//! Built-in message processors.
//!
//! [`ContigProcessor`] models the *non-processing* landing of a message:
//! each packet becomes one DMA write at its stream offset (contiguous
//! receive). It is both the RDMA staging step of the host-based unpack
//! baseline and a convenient test strategy.

use crate::handler::{
    DmaWrite, HandlerCost, HandlerOutput, MessageProcessor, PacketCtx, SchedPolicy,
};
use nca_sim::Time;

/// Contiguous landing: payload `p` at stream offset `o` is written to
/// host offset `base + o`. Handler cost is the minimal sPIN envelope.
pub struct ContigProcessor {
    /// Host offset of stream byte 0.
    pub base: i64,
    /// Fixed handler cost (defaults to the Fig. 2 minimal handler).
    pub handler_time: Time,
}

impl ContigProcessor {
    /// Create with the minimal-handler cost from `params`.
    pub fn new(base: i64, handler_time: Time) -> Self {
        ContigProcessor { base, handler_time }
    }
}

impl MessageProcessor for ContigProcessor {
    fn policy(&self) -> SchedPolicy {
        SchedPolicy::Default
    }

    fn nic_mem_bytes(&self) -> u64 {
        0
    }

    fn on_payload(&mut self, ctx: &mut PacketCtx<'_>) -> HandlerOutput {
        // One whole-payload block: copy it now, length-only write.
        let host_off = self.base + ctx.stream_offset as i64;
        let len = ctx.payload.len();
        ctx.direct.block(host_off, ctx.payload, 0, len);
        let w = DmaWrite::len_only(host_off, len as u64);
        HandlerOutput {
            cost: HandlerCost {
                init: self.handler_time,
                setup: 0,
                processing: 0,
            },
            dma: vec![w],
        }
    }

    fn name(&self) -> &'static str {
        "contig"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::{ReceiveSim, RunConfig};
    use crate::params::NicParams;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn contiguous_receive_lands_bytes_correctly() {
        let msg = pattern(10_000);
        let params = NicParams::with_hpus(4);
        let proc = Box::new(ContigProcessor::new(0, params.spin_min_handler()));
        let cfg = RunConfig::new(params);
        let report = ReceiveSim::run(proc, msg.clone(), 0, 10_000, &cfg);
        assert_eq!(report.host_buf, msg);
        assert_eq!(report.npkt, 5);
        // 5 payload writes + 1 completion signal
        assert_eq!(report.dma_writes, 6);
        assert_eq!(report.dma_bytes, 10_000);
        assert!(report.t_complete > report.t_first_byte);
    }

    #[test]
    fn out_of_order_delivery_still_lands_correctly() {
        let msg = pattern(64 * 2048);
        let params = NicParams::with_hpus(8);
        let handler = params.spin_min_handler();
        for seed in [1u64, 7, 42] {
            let proc = Box::new(ContigProcessor::new(0, handler));
            let cfg = RunConfig {
                params: params.clone(),
                out_of_order: Some(seed),
                record_dma_history: false,
                portals: None,
                telemetry: nca_telemetry::Telemetry::disabled(),
                faults: nca_sim::FaultSpec::inert(),
                reliability: crate::params::ReliabilityParams::default(),
                engine: crate::nic::EngineMode,
            };
            let report = ReceiveSim::run(proc, msg.clone(), 0, msg.len() as u64, &cfg);
            assert_eq!(report.host_buf, msg, "seed {seed}");
        }
    }

    #[test]
    fn throughput_bounded_by_line_rate() {
        let msg = vec![7u8; 4 << 20];
        let params = NicParams::with_hpus(16);
        let proc = Box::new(ContigProcessor::new(0, params.spin_min_handler()));
        let report = ReceiveSim::run(
            proc,
            msg.clone(),
            0,
            msg.len() as u64,
            &RunConfig::new(params),
        );
        let tp = report.throughput_gbit();
        assert!(tp <= 200.0, "cannot beat line rate, got {tp}");
        assert!(
            tp > 150.0,
            "contiguous receive should be near line rate, got {tp}"
        );
    }

    #[test]
    fn single_hpu_serializes_handlers() {
        // With 1 HPU and a handler slower than the packet arrival rate,
        // total time is dominated by npkt * handler_time.
        let npkt = 32u64;
        let msg = vec![1u8; (npkt * 2048) as usize];
        let mut params = NicParams::with_hpus(1);
        params.hpus = 1;
        let slow = nca_sim::us(1);
        let proc = Box::new(ContigProcessor::new(0, slow));
        let report = ReceiveSim::run(
            proc,
            msg.clone(),
            0,
            msg.len() as u64,
            &RunConfig::new(params),
        );
        let t = report.processing_time();
        assert!(
            t >= npkt * slow,
            "1 HPU must serialize: {} < {}",
            t,
            npkt * slow
        );
        // With 16 HPUs the same run is much faster.
        let params16 = NicParams::with_hpus(16);
        let proc16 = Box::new(ContigProcessor::new(0, slow));
        let fast = ReceiveSim::run(
            proc16,
            msg.clone(),
            0,
            msg.len() as u64,
            &RunConfig::new(params16),
        );
        assert!(
            fast.processing_time() * 4 < t,
            "16 HPUs should be >4x faster"
        );
    }
}
