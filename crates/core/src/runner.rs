//! End-to-end experiment runner: build the packed message, run a
//! strategy through the NIC pipeline, verify correctness, and report
//! the metrics every figure harness consumes.

use nca_ddt::dataloop::compile_cached;
use nca_ddt::pack::{buffer_span, pack_pattern, unpack};
use nca_ddt::types::Datatype;
use nca_sim::{FaultSpec, Pool, Time, WireBuf};
use nca_spin::builtin::ContigProcessor;
use nca_spin::handler::{unpack_recorded, MessageProcessor};
use nca_spin::nic::{EngineMode, ReceiveSim, RunConfig, RunReport};
use nca_spin::params::{NicParams, ReliabilityParams};
use std::sync::Arc;

use nca_telemetry::{merge_ring_events, RingRecorder, Telemetry, TraceEvent};

use crate::baselines::{host_unpack, iovec_offload, BaselineReport};
use crate::costmodel::{HandlerCycles, HostCostModel};
use crate::heuristic::CheckpointPlan;
use crate::strategies::{estimate_t_ph, Commit, GeneralKind};

/// Which receive method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Datatype-specific handlers.
    Specialized,
    /// General handlers, per-vHPU segment replicas.
    HpuLocal,
    /// General handlers, read-only checkpoints.
    RoCp,
    /// General handlers, progressing checkpoints.
    RwCp,
}

impl Strategy {
    /// All offloaded strategies (Fig. 8 order).
    pub const ALL: [Strategy; 4] = [
        Strategy::Specialized,
        Strategy::RwCp,
        Strategy::RoCp,
        Strategy::HpuLocal,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Specialized => "Specialized",
            Strategy::HpuLocal => "HPU-local",
            Strategy::RoCp => "RO-CP",
            Strategy::RwCp => "RW-CP",
        }
    }

    /// Commit to `count` copies of `dt`: build the read-only part of
    /// the receive (dataloop, Δr plan, checkpoint table, shape, NIC
    /// bytes, host setup time) once, for any number of processors.
    /// `epsilon` is the Δr heuristic's scheduling-overhead bound.
    pub fn commit(&self, dt: &Datatype, count: u32, params: NicParams, epsilon: f64) -> Commit {
        let kind = match self {
            Strategy::Specialized => return Commit::specialized(dt, count, params),
            Strategy::HpuLocal => GeneralKind::HpuLocal,
            Strategy::RoCp => GeneralKind::RoCp,
            Strategy::RwCp => GeneralKind::RwCp,
        };
        Commit::general(kind, dt, count, params, epsilon)
    }

    /// Commit to `count` copies of `dt` and instantiate one processor.
    /// Pass `Telemetry::disabled()` when no trace is wanted.
    pub fn build(
        &self,
        dt: &Datatype,
        count: u32,
        params: NicParams,
        epsilon: f64,
        telemetry: Telemetry,
    ) -> Box<dyn MessageProcessor> {
        self.commit(dt, count, params, epsilon)
            .instantiate(telemetry)
    }
}

/// A strategy run plus the model-side predictions that went into it,
/// so reports can compare predicted vs measured (Sec. 3.2.4 ε bound).
pub struct ModeledRun {
    /// The pipeline run report.
    pub report: RunReport,
    /// The Δr plan the strategy committed to (RO-CP/RW-CP only).
    pub plan: Option<CheckpointPlan>,
    /// Predicted per-packet general-handler runtime T_PH(γ), ps.
    pub t_ph_predicted: Time,
}

/// Result of [`Experiment::run_all_modeled`]: one run per strategy (in
/// [`Strategy::ALL`] order) plus the deterministically merged telemetry
/// capture.
pub struct StrategySweep {
    /// `(strategy, run)` pairs in [`Strategy::ALL`] order.
    pub runs: Vec<(Strategy, ModeledRun)>,
    /// Merged event stream — byte-identical to a serial shared-ring
    /// capture (empty when capture was off).
    pub events: Vec<TraceEvent>,
    /// Events evicted by ring pressure (per-job + merge-time).
    pub dropped: u64,
}

/// One experiment configuration.
#[derive(Clone)]
pub struct Experiment {
    /// The receive datatype.
    pub dt: Datatype,
    /// Repetition count.
    pub count: u32,
    /// NIC parameters.
    pub params: NicParams,
    /// Out-of-order seed (None = in order).
    pub out_of_order: Option<u64>,
    /// Scheduling-overhead bound for Δr selection.
    pub epsilon: f64,
    /// Record DMA queue time series.
    pub record_dma_history: bool,
    /// Verify the receive buffer against a reference unpack.
    pub verify: bool,
    /// Trace sink threaded into the strategy and the NIC pipeline
    /// (disabled by default).
    pub telemetry: Telemetry,
    /// Network fault model (inert by default: the lossless pipeline is
    /// taken unchanged, preserving bit-identical figure outputs).
    pub faults: FaultSpec,
    /// Reliable-delivery protocol knobs (only consulted when `faults`
    /// is not inert).
    pub reliability: ReliabilityParams,
    /// Refuse to run a strategy whose NIC-memory footprint exceeds
    /// `params.nic_mem_capacity`; instead degrade gracefully to a
    /// contiguous landing + host unpack (still byte-exact).
    pub enforce_nic_capacity: bool,
    /// Selects nothing (see [`EngineMode`]).
    pub engine: EngineMode,
}

impl Experiment {
    /// Sensible defaults (in order, ε = 0.2, verification on).
    pub fn new(dt: Datatype, count: u32, params: NicParams) -> Self {
        Experiment {
            dt,
            count,
            params,
            out_of_order: None,
            epsilon: 0.2,
            record_dma_history: false,
            verify: true,
            telemetry: Telemetry::disabled(),
            faults: FaultSpec::inert(),
            reliability: ReliabilityParams::default(),
            enforce_nic_capacity: false,
            engine: EngineMode,
        }
    }

    /// Packed message bytes for this experiment (the deterministic
    /// pattern of [`pack_pattern`]).
    pub fn packed_message(&self) -> Vec<u8> {
        let _phase = nca_sim::profile::enter(nca_sim::profile::Phase::Alloc);
        pack_pattern(&self.dt, self.count)
    }

    /// Average contiguous regions per packet (the paper's γ).
    pub fn gamma(&self) -> f64 {
        let dl = compile_cached(&self.dt, self.count);
        let npkt = dl.size.div_ceil(self.params.payload_size).max(1);
        dl.blocks as f64 / npkt as f64
    }

    /// Run one offloaded strategy; panics on receive-buffer corruption
    /// when verification is enabled.
    pub fn run(&self, strategy: Strategy) -> RunReport {
        self.run_modeled(strategy).report
    }

    /// Like [`Experiment::run`], but also captures the strategy's Δr
    /// plan and the predicted T_PH(γ) so a report can validate the
    /// model against the measured run.
    pub fn run_modeled(&self, strategy: Strategy) -> ModeledRun {
        let dl = compile_cached(&self.dt, self.count);
        let t_ph_predicted = estimate_t_ph(&self.params, &HandlerCycles::default(), &dl);
        let commit = strategy.commit(&self.dt, self.count, self.params.clone(), self.epsilon);
        let report = self.execute(strategy, commit.instantiate(self.telemetry.clone()));
        ModeledRun {
            report,
            plan: commit.plan().copied(),
            t_ph_predicted,
        }
    }

    fn execute(&self, strategy: Strategy, proc_: Box<dyn MessageProcessor>) -> RunReport {
        let (origin, span) = buffer_span(&self.dt, self.count);
        // Build the shared wire buffer once; the pipeline, the fallback
        // path and verification all view it without copying.
        let packed: WireBuf = self.packed_message().into();
        let cfg = RunConfig {
            params: self.params.clone(),
            out_of_order: self.out_of_order,
            record_dma_history: self.record_dma_history,
            portals: None,
            telemetry: self.telemetry.clone(),
            faults: self.faults,
            reliability: self.reliability.clone(),
            engine: self.engine,
        };
        if self.enforce_nic_capacity && proc_.nic_mem_bytes() > self.params.nic_mem_capacity {
            return self.execute_host_fallback(strategy, &packed, origin, span, &cfg);
        }
        let report = ReceiveSim::run(proc_, packed.clone(), origin, span, &cfg);
        if self.verify {
            let mut expect = vec![0u8; span as usize];
            unpack(&self.dt, self.count, &packed, &mut expect, origin).expect("unpackable");
            assert_eq!(
                report.host_buf,
                expect,
                "strategy {} corrupted the receive buffer",
                strategy.label()
            );
        }
        report
    }

    /// Graceful degradation when a strategy's NIC-memory footprint does
    /// not fit: land the message contiguously (no per-packet scatter
    /// state on the NIC) and unpack on the host. The receive buffer is
    /// still byte-exact; only the completion time pays the host-unpack
    /// cost. The transport-level fault/reliability machinery still
    /// applies to the contiguous landing.
    fn execute_host_fallback(
        &self,
        strategy: Strategy,
        packed: &WireBuf,
        origin: i64,
        span: u64,
        cfg: &RunConfig,
    ) -> RunReport {
        let landing = Box::new(ContigProcessor::new(0, self.params.spin_min_handler()));
        let mut report = ReceiveSim::run(landing, packed.clone(), 0, packed.len() as u64, cfg);
        debug_assert_eq!(
            report.host_buf[..],
            packed[..],
            "contiguous landing corrupted"
        );
        let dl = compile_cached(&self.dt, self.count);
        let unpack_cost = HostCostModel::default().unpack_time(dl.size, dl.blocks.max(1));
        let host_buf = unpack_recorded(dl, packed, origin, span);
        self.telemetry
            .counter("core", "nic_mem_fallback", 0, report.t_complete, 1);
        report.strategy = strategy.label();
        report.host_buf = host_buf;
        report.host_origin = origin;
        report.t_complete += unpack_cost;
        report.rel.nic_mem_fallback = true;
        report
    }

    /// Run every strategy of [`Strategy::ALL`] as independent jobs on
    /// `pool`, one experiment sweep cell per strategy.
    ///
    /// With `ring_capacity = Some(cap)` each job records into its own
    /// private ring sink (scoped to the strategy label); after the
    /// barrier the captures are merged in `Strategy::ALL` order, so the
    /// returned runs, event stream and drop count are **byte-identical
    /// to a serial loop sharing one `Telemetry::ring(cap)`**, at any
    /// worker count. With `None`, each job inherits this experiment's
    /// telemetry handle unchanged (typically disabled) and no events
    /// are returned.
    pub fn run_all_modeled(&self, pool: &Pool, ring_capacity: Option<usize>) -> StrategySweep {
        let out = pool.par_map(Strategy::ALL.to_vec(), |_, s| {
            let mut exp = self.clone();
            let ring = ring_capacity.map(|cap| Arc::new(RingRecorder::new(cap)));
            if let Some(r) = &ring {
                exp.telemetry = Telemetry::with_recorder(r.clone()).scoped(s.label());
            }
            let run = exp.run_modeled(s);
            let capture = ring.map(|r| (r.events(), r.dropped())).unwrap_or_default();
            ((s, run), capture)
        });
        let (runs, per_job): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        let (events, dropped) = match ring_capacity {
            Some(cap) => merge_ring_events(per_job, cap),
            None => (Vec::new(), 0),
        };
        StrategySweep {
            runs,
            events,
            dropped,
        }
    }

    /// Host-based unpack baseline for this experiment.
    pub fn run_host(&self) -> BaselineReport {
        host_unpack(
            &self.dt,
            self.count,
            &self.params,
            &HostCostModel::default(),
        )
    }

    /// Portals 4 iovec baseline for this experiment.
    pub fn run_iovec(&self) -> BaselineReport {
        iovec_offload(&self.dt, self.count, &self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_ddt::types::{elem, DatatypeExt};

    #[test]
    fn experiment_runs_all_strategies() {
        let dt = Datatype::vector(1024, 32, 64, &elem::double());
        let exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
        for s in Strategy::ALL {
            let r = exp.run(s);
            assert!(r.processing_time() > 0);
            assert!(r.dma_bytes >= exp.packed_message().len() as u64);
        }
    }

    #[test]
    fn gamma_matches_block_arithmetic() {
        // 256 B blocks in 2 KiB packets -> γ = 8.
        let dt = Datatype::vector(4096, 32, 64, &elem::double());
        let exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
        assert!((exp.gamma() - 8.0).abs() < 0.01, "γ = {}", exp.gamma());
    }

    #[test]
    fn baselines_report_consistent_sizes() {
        let dt = Datatype::vector(512, 8, 16, &elem::double());
        let exp = Experiment::new(dt.clone(), 2, NicParams::with_hpus(16));
        let h = exp.run_host();
        let i = exp.run_iovec();
        assert_eq!(h.msg_bytes, dt.size * 2);
        assert_eq!(i.msg_bytes, dt.size * 2);
        // 512 blocks per copy; the copies abut at the extent boundary, so
        // the last block of copy 1 merges with the first of copy 2.
        assert_eq!(i.regions, 1023);
    }
}
