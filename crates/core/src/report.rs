//! Fills a [`nca_telemetry::report::RunReportDoc`] from an experiment:
//! the glue between the NIC model (this crate) and the generic report
//! schema (`nca-telemetry`). One [`strategy_report`] call turns a
//! [`ModeledRun`] into the measured + model-validated block `ncmt_cli
//! --report-out` serializes. Every field comes from what the run itself
//! keeps (its counters, histograms and stage intervals), so no trace is
//! captured for a report and none can change it.

use nca_telemetry::report::{
    FaultSummary, HistSummary, ModelValidation, ReportConfig, StrategyReport, UtilizationReport,
};
use nca_telemetry::{Time, TraceEvent};

use crate::runner::{Experiment, ModeledRun};

/// The `bucket_ps` a strategy report's utilization block states, and the
/// default time-series bucket width of a strategy-run trace's counter
/// tracks (1 µs of simulated time per bucket).
pub const UTILIZATION_BUCKET_PS: Time = 1_000_000;

/// The workload/pipeline configuration block for `exp`.
pub fn report_config(exp: &Experiment) -> ReportConfig {
    let msg_bytes = exp.dt.size * exp.count as u64;
    ReportConfig {
        datatype: exp.dt.signature(),
        msg_bytes,
        npkt: msg_bytes.div_ceil(exp.params.payload_size).max(1),
        gamma: exp.gamma(),
        hpus: exp.params.hpus as u64,
        payload_size: exp.params.payload_size,
        epsilon: exp.epsilon,
        out_of_order: exp.out_of_order,
    }
}

/// Build the report entry for one strategy run, entirely from
/// `run.report`: the attribution sweeps its stage intervals, and busy
/// time, the utilization block, the NIC-memory peak, the latency
/// histograms and the observed scheduling overhead are its counters.
pub fn strategy_report(exp: &Experiment, run: &ModeledRun) -> StrategyReport {
    let r = &run.report;
    let end_to_end = r.processing_time();

    let histograms = r
        .histograms
        .iter()
        .map(|(name, h)| (name.to_string(), HistSummary::of(h)))
        .collect();
    let hpu_busy_ps: Time = r.hpu_busy_ps.iter().sum();
    let hpus = exp.params.hpus as u64;
    let hpu_utilization = if end_to_end > 0 {
        hpu_busy_ps as f64 / (hpus * end_to_end) as f64
    } else {
        0.0
    };

    let model = run.plan.map(|plan| {
        let npkt = r.npkt.max(1);
        let sched_budget_ps =
            (exp.epsilon * npkt.div_ceil(hpus.max(1)) as f64 * run.t_ph_predicted as f64) as u64;
        let sched_overhead_ps = r
            .histograms
            .iter()
            .find(|(name, _)| *name == "queue_wait_ps")
            .and_then(|(_, h)| h.max())
            .unwrap_or(0);
        ModelValidation {
            delta_r: plan.delta_r,
            delta_p: plan.delta_p,
            num_checkpoints: plan.num_checkpoints,
            ckpt_nic_bytes: plan.nic_bytes,
            epsilon: exp.epsilon,
            planned_epsilon_violated: plan.epsilon_violated,
            t_ph_predicted_ps: run.t_ph_predicted,
            t_ph_measured_ps: r.mean_handler_time(),
            sched_budget_ps,
            sched_overhead_ps,
            epsilon_respected: !plan.epsilon_violated && sched_overhead_ps <= sched_budget_ps,
        }
    });

    let utilization = UtilizationReport::from_busy(
        UTILIZATION_BUCKET_PS,
        end_to_end,
        hpus,
        &r.hpu_busy_ps,
        &r.dma_chan_busy_ps,
        r.dma_max_queue as f64,
    );

    let mut out = StrategyReport {
        name: r.strategy.to_string(),
        end_to_end_ps: end_to_end,
        host_setup_ps: r.host_setup_time,
        throughput_gbit: r.throughput_gbit(),
        nic_mem_bytes: r.nic_mem_bytes,
        nic_mem_hwm_bytes: r.nic_mem_hwm_bytes,
        dma_writes: r.dma_writes,
        dma_bytes: r.dma_bytes,
        dma_max_queue: r.dma_max_queue as u64,
        attribution: Vec::new(),
        hpu_busy_ps,
        hpu_utilization,
        histograms,
        utilization: Some(utilization),
        model,
        faults: fault_summary(run, &[]),
    };
    out.set_attribution(&r.attribution());
    out
}

/// The fault/reliability block for a run: the pipeline's
/// [`nca_spin::nic::ReliabilityStats`] plus the strategy's recovery
/// counts (checkpoint reverts, catch-up blocks), both taken from
/// `run.report`, so the block is exact whatever a trace ring dropped.
/// `_evs` is unused; it stays so existing callers compile. `None` for
/// lossless runs — they carry no reliability state.
pub fn fault_summary(run: &ModeledRun, _evs: &[TraceEvent]) -> Option<FaultSummary> {
    let rel = &run.report.rel;
    let recovery = &run.report.recovery;
    if rel.transmissions == 0 && !rel.nic_mem_fallback {
        return None;
    }
    Some(FaultSummary {
        transmissions: rel.transmissions,
        retransmissions: rel.retransmissions,
        drops_injected: rel.drops_injected,
        dups_injected: rel.dups_injected,
        dups_suppressed: rel.dups_suppressed,
        corrupts_injected: rel.corrupts_injected,
        corrupts_rejected: rel.corrupts_rejected,
        acks_received: rel.acks_received,
        host_fallback_packets: rel.host_fallback_packets,
        nic_mem_fallback: rel.nic_mem_fallback,
        delivered_exactly_once: rel.delivered_exactly_once,
        checkpoint_reverts: recovery.checkpoint_reverts,
        catchup_blocks: recovery.catchup_blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Strategy;
    use nca_ddt::types::{elem, Datatype, DatatypeExt};
    use nca_spin::params::NicParams;
    use nca_telemetry::Telemetry;

    /// The CI strategy run's experiment, telemetry off: a report needs
    /// no capture.
    fn experiment() -> Experiment {
        let dt = Datatype::vector(512, 16, 32, &elem::double());
        Experiment::new(dt, 1, NicParams::with_hpus(16))
    }

    #[test]
    fn strategy_report_attribution_tiles_the_window() {
        let exp = experiment();
        let run = exp.run_modeled(Strategy::RwCp);
        let rep = strategy_report(&exp, &run);
        assert_eq!(rep.name, "RW-CP");
        assert_eq!(rep.attribution_sum(), rep.end_to_end_ps);
        assert!(rep.histograms.contains_key("handler_ps"));
        assert!(rep.hpu_busy_ps > 0);
        assert!(rep.hpu_utilization > 0.0 && rep.hpu_utilization <= 1.0);
    }

    #[test]
    fn utilization_block_matches_the_trace() {
        // The report reads the run's counters; a lossless trace of the
        // same run folds to the same busy time, utilization block,
        // histograms, NIC-memory peak and attribution.
        for s in Strategy::ALL {
            let (tel, sink) = Telemetry::ring(1 << 20);
            let mut exp = experiment();
            exp.telemetry = tel;
            let run = exp.run_modeled(s);
            let events = sink.events();
            let rep = strategy_report(&exp, &run);
            let mut agg = nca_telemetry::StreamAggregate::new(UTILIZATION_BUCKET_PS);
            for ev in &events {
                agg.fold(ev);
            }
            let traced = UtilizationReport::from_aggregate(&agg, "spin", rep.end_to_end_ps, 16);
            assert_eq!(rep.utilization.as_ref(), Some(&traced), "{}", s.label());
            assert!(traced.hpu_busy_frac.len() >= 16, "{}", s.label());
            assert!(!traced.dma_chan_occupancy.is_empty(), "{}", s.label());
            let busy = agg.span_total("spin", "handler").map(|(_, t)| t);
            assert_eq!(busy, Some(rep.hpu_busy_ps), "{}", s.label());
            let hists: std::collections::BTreeMap<String, HistSummary> = agg.rollups()["spin"]
                .hists
                .iter()
                .map(|(name, h)| (name.clone(), HistSummary::of(h)))
                .collect();
            assert_eq!(rep.histograms, hists, "{}", s.label());
            assert_eq!(
                agg.gauge_hwm("spin", "nic_mem_bytes"),
                Some(rep.nic_mem_hwm_bytes as f64),
                "{}",
                s.label()
            );
            let r = &run.report;
            let traced = nca_telemetry::flight::attribute(&events, r.t_first_byte, r.t_complete);
            assert_eq!(r.attribution(), traced, "{}", s.label());
        }
    }

    #[test]
    fn model_block_present_only_for_checkpointed_strategies() {
        let exp = experiment();
        let rep_rw = strategy_report(&exp, &exp.run_modeled(Strategy::RwCp));
        let rep_spec = strategy_report(&exp, &exp.run_modeled(Strategy::Specialized));
        let m = rep_rw.model.expect("RW-CP carries a Δr plan");
        assert!(m.t_ph_predicted_ps > 0);
        assert!(m.sched_budget_ps > 0);
        assert!(rep_spec.model.is_none());
    }

    #[test]
    fn config_block_matches_the_experiment() {
        let exp = experiment();
        let cfg = report_config(&exp);
        assert_eq!(cfg.msg_bytes, exp.dt.size);
        assert_eq!(cfg.hpus, 16);
        assert_eq!(cfg.npkt, cfg.msg_bytes.div_ceil(cfg.payload_size));
        assert!(cfg.datatype.contains("vec") || !cfg.datatype.is_empty());
    }
}
