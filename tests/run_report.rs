//! Acceptance tests for the flight-recorder/run-report layer: for an
//! RW-CP run, (a) the attributed per-stage times must sum to the
//! end-to-end window within 1% (they tile it exactly by construction),
//! and (b) the observed scheduling overhead must respect the ε bound —
//! or the report must flag the violation. Then, for every strategy over
//! in-order, out-of-order and faulty deliveries: the attribution a run
//! keeps equals the one its lossless trace gives, and no capture
//! changes any field of a run.

use std::sync::Arc;

use ncmt::core::report::{report_config, strategy_report};
use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::{FaultSpec, Pool};
use ncmt::spin::nic::RunReport;
use ncmt::spin::params::NicParams;
use ncmt::telemetry::report::RunReportDoc;
use ncmt::telemetry::{flight, StreamingRecorder, Telemetry};
use ncmt::workloads::apps::all_workloads;

fn rwcp_report() -> (ncmt::telemetry::report::StrategyReport, Experiment) {
    let dt = Datatype::vector(512, 16, 32, &elem::double());
    let exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
    let run = exp.run_modeled(Strategy::RwCp);
    (strategy_report(&exp, &run), exp)
}

#[test]
fn attributed_times_sum_to_the_measured_window_within_one_percent() {
    let (rep, _exp) = rwcp_report();
    let e2e = rep.end_to_end_ps as f64;
    let sum = rep.attribution_sum() as f64;
    assert!(e2e > 0.0);
    assert!(
        (sum - e2e).abs() <= 0.01 * e2e,
        "attribution sum {sum} vs end-to-end {e2e}"
    );
    // The attribution is meaningful, not one catch-all bucket: real
    // handler work and DMA time both show up.
    let get = |label: &str| {
        rep.attribution
            .iter()
            .find(|&&(l, _)| l == label)
            .map(|&(_, t)| t)
            .unwrap_or(0)
    };
    assert!(get("handler_proc") > 0, "handler time attributed");
    assert!(get("dma") + get("drain") > 0, "DMA time attributed");
}

#[test]
fn observed_scheduling_overhead_respects_epsilon_or_is_flagged() {
    let (rep, _exp) = rwcp_report();
    let m = rep.model.expect("RW-CP must carry a model block");
    assert!(m.sched_budget_ps > 0, "budget derives from ε·⌈npkt/P⌉·T_PH");
    assert!(
        m.sched_overhead_ps <= m.sched_budget_ps || !m.epsilon_respected,
        "overhead {} exceeds budget {} without being flagged",
        m.sched_overhead_ps,
        m.sched_budget_ps
    );
    if m.planned_epsilon_violated {
        assert!(!m.epsilon_respected, "a planned violation must propagate");
    }
    assert!(m.t_ph_predicted_ps > 0);
    assert!(m.t_ph_measured_ps > 0.0);
}

#[test]
fn full_document_round_trips_with_the_rwcp_entry() {
    let (rep, exp) = rwcp_report();
    let doc = RunReportDoc {
        version: RunReportDoc::VERSION,
        trace_dropped_events: 0,
        config: report_config(&exp),
        strategies: vec![rep],
    };
    let v = ncmt::telemetry::report::Json::parse(&doc.to_json()).expect("own JSON parses");
    let strat = &v
        .get("strategies")
        .and_then(ncmt::telemetry::report::Json::as_arr)
        .unwrap()[0];
    assert_eq!(
        strat
            .path("attribution_sum_ps")
            .and_then(ncmt::telemetry::report::Json::as_f64),
        strat
            .path("end_to_end_ps")
            .and_then(ncmt::telemetry::report::Json::as_f64),
    );
    assert!(strat.path("model.epsilon_respected").is_some());
}

/// One strategy over one experiment, telemetry off, into a lossless
/// ring and into a streaming recorder: the run's own attribution equals
/// the trace-side one, and every field of the three runs agrees.
fn check_case(exp: &Experiment, s: Strategy, case: &str) {
    let run = |tel: Telemetry| -> RunReport {
        let mut e = exp.clone();
        e.telemetry = tel;
        e.run(s)
    };
    let mut off = run(Telemetry::disabled());
    let (tel, ring) = Telemetry::ring(1 << 22);
    let ringed = run(tel);
    let streamed = run(Telemetry::with_recorder(Arc::new(StreamingRecorder::new(
        1_000_000,
    ))));
    assert_eq!(
        ring.dropped(),
        0,
        "{case}: the reference ring must be lossless"
    );
    let traced = flight::attribute(&ring.events(), off.t_first_byte, off.t_complete);
    assert_eq!(off.attribution(), traced, "{case}: attribution");
    assert_eq!(off.attribution().sum(), off.processing_time(), "{case}");
    assert!(!off.stages.is_empty(), "{case}: the run kept no stages");
    assert!(
        off.histograms.iter().all(|(_, h)| h.count() > 0),
        "{case}: an empty histogram"
    );
    let buf = std::mem::take(&mut off.host_buf);
    for (what, mut other) in [("ring", ringed), ("streaming", streamed)] {
        let same_buf = std::mem::take(&mut other.host_buf) == buf;
        assert!(
            same_buf,
            "{case}: a {what} capture changed the receive buffer"
        );
        assert_eq!(off, other, "{case}: a {what} capture changed the run");
    }
}

#[test]
fn runs_keep_their_traced_attribution_and_no_capture_changes_a_run() {
    let mut exps = vec![(
        "vector 512x16/32".to_string(),
        Experiment::new(
            Datatype::vector(512, 16, 32, &elem::double()),
            1,
            NicParams::with_hpus(16),
        ),
    )];
    for w in all_workloads() {
        if w.msg_bytes() <= 64 << 10 {
            let exp = Experiment::new(w.dt.clone(), w.count, NicParams::with_hpus(16));
            exps.push((w.label(), exp));
        }
    }
    let faults = FaultSpec {
        drop: 0.05,
        duplicate: 0.02,
        corrupt: 0.01,
        reorder_window: 2_000_000,
        seed: 1,
    };
    let mut cases = Vec::new();
    for (label, exp) in exps {
        for delivery in ["in order", "out_of_order = 7", "faults"] {
            let mut exp = exp.clone();
            match delivery {
                "out_of_order = 7" => exp.out_of_order = Some(7),
                "faults" => exp.faults = faults,
                _ => {}
            }
            for s in Strategy::ALL {
                cases.push((
                    format!("{label}, {delivery}, {}", s.label()),
                    exp.clone(),
                    s,
                ));
            }
        }
    }
    assert!(cases.len() > 100, "{} cases", cases.len());
    Pool::new(2).par_map(cases, |_, (case, exp, s)| check_case(&exp, s, &case));
}
