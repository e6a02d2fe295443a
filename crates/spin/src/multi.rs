//! Concurrent multi-message receive simulation.
//!
//! The single-message pipeline ([`crate::nic::ReceiveSim`]) answers the
//! paper's microbenchmark questions; a real NIC, however, serves many
//! in-flight messages whose packets interleave on the link and whose
//! handlers compete for the same HPUs, NIC memory and DMA engine. This
//! module is a message source in front of the same receive core
//! ([`crate::nic::Nic`]): each message carries its own
//! [`MessageProcessor`], vHPUs are namespaced per message, and the
//! completion of each message is signalled by its own event-generating
//! DMA write.
//!
//! Link model: messages become eligible at their `start_time`; the
//! shared ingress link serializes packets of all eligible messages
//! round-robin at line rate (an idealized fair switch).

use nca_portals::packet::Packet;
use nca_sim::{Sim, Time, WireBuf};
use nca_telemetry::Telemetry;

use crate::handler::{HandlerCost, MessageProcessor};
use crate::nic::{MessageSource, Nic};
use crate::params::NicParams;

/// One message to receive.
pub struct MessageSpec {
    /// Packed message bytes (shared wire buffer; `Vec<u8>` converts via
    /// `.into()` at the cost of one copy).
    pub packed: WireBuf,
    /// The processing strategy.
    pub proc: Box<dyn MessageProcessor>,
    /// Receive-buffer offset of index 0.
    pub host_origin: i64,
    /// Receive-buffer span.
    pub host_span: u64,
    /// Time the sender starts injecting.
    pub start_time: Time,
}

/// Per-message outcome.
pub struct MessageReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Message bytes.
    pub msg_bytes: u64,
    /// First byte of this message at the NIC.
    pub t_first_byte: Time,
    /// Completion-event time.
    pub t_complete: Time,
    /// Final receive buffer.
    pub host_buf: Vec<u8>,
    /// Per-handler costs.
    pub handler_costs: Vec<HandlerCost>,
}

impl MessageReport {
    /// Message processing time.
    pub fn processing_time(&self) -> Time {
        self.t_complete - self.t_first_byte
    }
}

/// The concurrent-receive source: messages are known up front, so it
/// only steers.
struct Concurrent;

impl MessageSource for Concurrent {
    /// Mix the message index into a well-spread dFCFS steering hint
    /// (splitmix64 finalizer).
    fn steer(&self, m: usize, vhpu: u64) -> usize {
        let mut z = (m as u64) ^ (vhpu.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    }
}

/// Round-robin link serialization: packets of all eligible messages
/// share the ingress at line rate. Returns `(arrival_time, msg, pkt)`.
fn schedule_arrivals(
    params: &NicParams,
    msgs: &[&[Packet]],
    starts: &[Time],
) -> Vec<(Time, usize, usize)> {
    let mut cursors: Vec<usize> = vec![0; msgs.len()];
    // (eligible_time, msg) priority: earliest start first, round-robin on ties.
    let mut link_free: Time = 0;
    let mut out = Vec::new();
    let total: usize = msgs.iter().map(|m| m.len()).sum();
    let mut rr = 0usize;
    while out.len() < total {
        // Pick the message that can occupy the link earliest
        // (max(link_free, start)), round-robin among ties so concurrent
        // messages interleave fairly and the link never idles while an
        // eligible message has packets.
        let mut pick: Option<(usize, Time)> = None;
        for k in 0..msgs.len() {
            let m = (rr + k) % msgs.len();
            if cursors[m] >= msgs[m].len() {
                continue;
            }
            let ready = link_free.max(starts[m]);
            match pick {
                None => pick = Some((m, ready)),
                Some((_, best)) if ready < best => pick = Some((m, ready)),
                _ => {}
            }
        }
        let (m, _) = pick.expect("total counted");
        let pkt = &msgs[m][cursors[m]];
        let begin = link_free.max(starts[m]);
        let end = begin + params.pkt_wire_time(pkt.len);
        link_free = end;
        out.push((end + params.net_latency, m, cursors[m]));
        cursors[m] += 1;
        rr = m + 1;
    }
    out
}

/// Run several concurrent receives sharing one NIC.
pub fn run_concurrent(specs: Vec<MessageSpec>, params: &NicParams) -> Vec<MessageReport> {
    run_concurrent_traced(specs, params, Telemetry::disabled())
}

/// [`run_concurrent`] with a trace sink: emits the single-message
/// pipeline's `spin` event families (wire/inbound spans and arrival
/// counters on per-message tracks, queue-wait/dispatch/handler spans on
/// vHPU tracks, DMA busy intervals on per-channel tracks, completion
/// instants).
pub fn run_concurrent_traced(
    specs: Vec<MessageSpec>,
    params: &NicParams,
    tel: Telemetry,
) -> Vec<MessageReport> {
    let wire_tel = tel.clone();
    let mut nic = Nic::new(params.clone(), tel, Concurrent);
    let mut starts = Vec::with_capacity(specs.len());
    let mut names = Vec::with_capacity(specs.len());
    for spec in specs {
        starts.push(spec.start_time);
        names.push(spec.proc.name());
        nic.add_message(&spec.packed, spec.proc, spec.host_origin, spec.host_span);
    }
    let packets: Vec<&[Packet]> = (0..names.len()).map(|m| nic.packets(m)).collect();
    let arrivals = schedule_arrivals(params, &packets, &starts);
    let mut t_first_byte = vec![0; names.len()];
    for &(t, m, pkt) in &arrivals {
        let wire = params.pkt_wire_time(packets[m][pkt].len);
        if pkt == 0 {
            t_first_byte[m] = t - wire;
        }
        // Wire serialization span: the arrival time is one network
        // latency after the packet left the shared link.
        let end = t - params.net_latency;
        wire_tel.span("spin", "wire", m as u64, end.saturating_sub(wire), end);
    }
    let mut sim: Sim<Nic<Concurrent>> = Sim::new();
    for (t, m, pkt) in arrivals {
        Nic::schedule_arrival(&mut sim, m, pkt, t);
    }
    sim.run(&mut nic);
    nic.into_messages()
        .into_iter()
        .zip(names)
        .zip(t_first_byte)
        .map(|((st, strategy), t_first_byte)| MessageReport {
            strategy,
            msg_bytes: st.bytes,
            t_first_byte,
            t_complete: st.t_complete.unwrap_or(0),
            host_buf: st.host_buf.into_vec(),
            handler_costs: st.handler_costs,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::ContigProcessor;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i + seed as usize) % 251) as u8)
            .collect()
    }

    fn spec(len: usize, seed: u8, start: Time, handler: Time) -> MessageSpec {
        MessageSpec {
            packed: pattern(len, seed).into(),
            proc: Box::new(ContigProcessor::new(0, handler)),
            host_origin: 0,
            host_span: len as u64,
            start_time: start,
        }
    }

    #[test]
    fn two_concurrent_messages_land_byte_exact() {
        let p = NicParams::with_hpus(8);
        let h = p.spin_min_handler();
        let reports = run_concurrent(vec![spec(64 << 10, 1, 0, h), spec(64 << 10, 2, 0, h)], &p);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].host_buf, pattern(64 << 10, 1));
        assert_eq!(reports[1].host_buf, pattern(64 << 10, 2));
        assert!(reports.iter().all(|r| r.t_complete > 0));
    }

    #[test]
    fn concurrent_messages_share_the_link() {
        // Two messages on one link take about twice as long as one.
        let p = NicParams::with_hpus(16);
        let h = p.spin_min_handler();
        let alone = run_concurrent(vec![spec(256 << 10, 1, 0, h)], &p);
        let both = run_concurrent(vec![spec(256 << 10, 1, 0, h), spec(256 << 10, 2, 0, h)], &p);
        let t1 = alone[0].t_complete;
        let t2 = both
            .iter()
            .map(|r| r.t_complete)
            .max()
            .expect("two reports");
        assert!(t2 as f64 > 1.7 * t1 as f64, "link sharing: {t2} vs {t1}");
        assert!(
            (t2 as f64) < 2.6 * t1 as f64,
            "no pathological serialization"
        );
    }

    #[test]
    fn hpu_contention_slows_handler_bound_messages() {
        // With 1 HPU and slow handlers, two messages serialize on the HPU.
        let mut p = NicParams::with_hpus(1);
        p.hpus = 1;
        let slow = nca_sim::us(2);
        let alone = run_concurrent(vec![spec(32 << 10, 1, 0, slow)], &p);
        let both = run_concurrent(
            vec![spec(32 << 10, 1, 0, slow), spec(32 << 10, 2, 0, slow)],
            &p,
        );
        let t1 = alone[0].t_complete - alone[0].t_first_byte;
        let t2 = both.iter().map(|r| r.t_complete).max().expect("max") - both[0].t_first_byte;
        assert!(t2 as f64 > 1.8 * t1 as f64, "HPU contention: {t2} vs {t1}");
    }

    #[test]
    fn staggered_start_orders_completions() {
        let p = NicParams::with_hpus(8);
        let h = p.spin_min_handler();
        let reports = run_concurrent(
            vec![
                spec(32 << 10, 1, 0, h),
                spec(32 << 10, 2, nca_sim::us(500), h),
            ],
            &p,
        );
        assert!(reports[0].t_complete < reports[1].t_complete);
        assert!(reports[1].t_first_byte >= nca_sim::us(500));
    }

    #[test]
    fn traced_run_emits_lifecycle_spans_with_disjoint_channel_tracks() {
        let p = NicParams::with_hpus(4);
        let h = p.spin_min_handler();
        let (tel, sink) = Telemetry::ring(1 << 16);
        let reports = run_concurrent_traced(
            vec![spec(32 << 10, 1, 0, h), spec(32 << 10, 2, 0, h)],
            &p,
            tel,
        );
        assert_eq!(reports.len(), 2);
        let evs = sink.events();
        let roll = nca_telemetry::aggregate::rollup(&evs);
        let spin = &roll["spin"];
        assert!(spin.counters["packets_arrived"] > 0);
        for name in ["wire", "inbound", "handler", "dma_chan"] {
            assert!(spin.spans.contains_key(name), "missing {name} spans");
        }
        assert_eq!(spin.instants["message_complete"], 2);
        // Per-channel DMA spans never overlap on their own track.
        for chan in 0..p.dma_channels as u64 {
            let mut spans: Vec<(Time, Time)> = evs
                .iter()
                .filter(|e| e.name == "dma_chan" && e.track == chan)
                .filter_map(|e| match e.kind {
                    nca_telemetry::EventKind::Span { end } => Some((e.time, end)),
                    _ => None,
                })
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1, "channel {chan} spans overlap: {w:?}");
            }
        }
    }

    #[test]
    fn many_small_messages_all_complete() {
        let p = NicParams::with_hpus(4);
        let h = p.spin_min_handler();
        let specs: Vec<MessageSpec> = (0..20)
            .map(|i| spec(4096, i as u8, (i as u64) * nca_sim::us(1), h))
            .collect();
        let reports = run_concurrent(specs, &p);
        assert_eq!(reports.len(), 20);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.host_buf, pattern(4096, i as u8), "message {i}");
            assert!(r.t_complete > r.t_first_byte);
        }
    }
}
