//! End-to-end tests of the `nca-traffic` engine through the `ncmt`
//! facade, plus the golden gate for the committed `ncmt-traffic`
//! artifact: the baseline in `tests/golden/traffic_baseline.json` must
//! reproduce byte-for-byte on any host at any worker count.
//!
//! A cell's utilization block comes from the busy totals the engine
//! counts as it schedules; the equivalence tests pin them to the
//! `traffic` trace the same run emits, over every discipline and three
//! strategies, at light load and under admission overload.

use std::sync::Arc;

use ncmt::core::runner::Strategy;
use ncmt::sim::Pool;
use ncmt::spin::sched::QueueDiscipline;
use ncmt::telemetry::report::{Json, TrafficDoc, UtilizationReport};
use ncmt::telemetry::{StreamingRecorder, Telemetry};
use ncmt::traffic::sweep::cell_report;
use ncmt::traffic::{
    run_traffic, run_traffic_with, traffic_sweep, ArrivalKind, TenantStats, TrafficRunResult,
    TrafficSweepSpec,
};

/// The spec behind `tests/golden/traffic_baseline.json`. Regenerate
/// with the command in the golden test's failure message.
fn golden_spec() -> TrafficSweepSpec {
    let mut s = TrafficSweepSpec::new(1);
    s.apps = vec!["COMB/b".into(), "NAS-MG/a".into()];
    s.loads = vec![0.4, 1.0];
    s.disciplines = QueueDiscipline::ALL.to_vec();
    s.tenants = 3;
    s.hpus = 8;
    s.horizon_ps = ncmt::sim::us(200);
    s
}

#[test]
fn golden_traffic_baseline_reproduces_byte_identically() {
    let path = format!(
        "{}/tests/golden/traffic_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    let got = traffic_sweep(&golden_spec(), &Pool::from_env(None)).to_json();
    assert_eq!(
        got, want,
        "traffic engine drifted from its golden artifact; if the model \
         change is intended, regenerate with \
         `cargo test --test traffic_engine -- --ignored regenerate` \
         and commit the new {path}"
    );
}

/// Not a test: rewrites the golden artifact. Run explicitly via
/// `cargo test --test traffic_engine -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate_golden_traffic_baseline() {
    let path = format!(
        "{}/tests/golden/traffic_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let doc = traffic_sweep(&golden_spec(), &Pool::from_env(None));
    std::fs::write(&path, doc.to_json()).expect("write golden");
}

/// FNV-1a 64 of `text`, as 16 hex digits (the digest
/// `benchmark/expected/` pins artifacts by).
fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn every_strategy_reproduces_its_golden_grid_digest() {
    // The golden grid's artifact under each of the other strategies,
    // pinned by digest when every admission still built its own
    // processor; RW-CP's is `tests/golden/traffic_baseline.json`. The
    // same artifacts are `run scenarios/traffic.json --set
    // traffic.strategy=<label> --report-out F`.
    let pinned = [
        (Strategy::Specialized, "18d9d4dbd46da347"),
        (Strategy::RoCp, "cddd0b18c3ebf58b"),
        (Strategy::HpuLocal, "190c6aa8e4aa39ec"),
    ];
    for (strategy, want) in pinned {
        let mut spec = golden_spec();
        spec.strategy = strategy;
        let doc = traffic_sweep(&spec, &Pool::from_env(None));
        assert!(doc.all_byte_exact(), "{}", strategy.label());
        assert_eq!(
            fnv1a(&doc.to_json()),
            want,
            "{} drifted from its golden-grid digest",
            strategy.label()
        );
    }
}

#[test]
fn golden_artifact_round_trips_through_the_parser() {
    let doc = traffic_sweep(&golden_spec(), &Pool::from_env(None));
    let json = doc.to_json();
    let parsed = Json::parse(&json).expect("self-emitted JSON parses");
    assert_eq!(
        parsed.get("kind").and_then(Json::as_str),
        Some(TrafficDoc::KIND)
    );
    assert_eq!(parsed.get("seed").and_then(Json::as_f64), Some(1.0));
    let cells = parsed.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), doc.cells.len());
    for (cell, c) in cells.iter().zip(&doc.cells) {
        assert_eq!(cell.get("app").and_then(Json::as_str), Some(c.app.as_str()));
        let tenants = cell.get("tenants").and_then(Json::as_arr).expect("tenants");
        assert_eq!(tenants.len(), c.tenants.len());
        for (tj, t) in tenants.iter().zip(&c.tenants) {
            assert_eq!(
                tj.get("offered").and_then(Json::as_f64),
                Some(t.offered as f64)
            );
            assert_eq!(
                tj.path("latency.p999").and_then(Json::as_f64),
                Some(t.latency.p999 as f64)
            );
        }
    }
}

#[test]
fn disciplines_separate_in_the_tail_under_skewed_steering() {
    // dFCFS serves per-HPU FIFOs fed by the RSS hash; with few flows the
    // table maps traffic onto a few HPUs and the tail inflates relative
    // to work-conserving cFCFS over the same arrival schedule.
    let mut s = golden_spec();
    s.apps = vec!["COMB/b".into()];
    s.loads = vec![0.6];
    s.flows_per_tenant = 2;
    let doc = traffic_sweep(&s, &Pool::from_env(None));
    let p99_of = |label: &str| -> u64 {
        doc.cells
            .iter()
            .find(|c| c.discipline == label)
            .expect(label)
            .tenants
            .iter()
            .map(|t| t.latency.p99)
            .max()
            .expect("tenants")
    };
    assert!(
        p99_of("dfcfs") > p99_of("cfcfs"),
        "steering imbalance must show: dfcfs {} vs cfcfs {}",
        p99_of("dfcfs"),
        p99_of("cfcfs")
    );
}

#[test]
fn heavy_tailed_arrivals_inflate_the_tail_at_equal_load() {
    // At 0.3 offered load the system is stable, so the tail reflects
    // arrival burstiness, not saturation (where every process pins the
    // latency near the horizon and the comparison degenerates).
    let mut pois = golden_spec();
    pois.apps = vec!["COMB/b".into()];
    pois.loads = vec![0.3];
    pois.disciplines = vec![QueueDiscipline::BlockedRR];
    let mut logn = pois.clone();
    logn.arrival = ArrivalKind::LogNormal;
    let tail = |spec: &TrafficSweepSpec| -> u64 {
        traffic_sweep(spec, &Pool::from_env(None)).cells[0]
            .tenants
            .iter()
            .map(|t| t.latency.p99)
            .max()
            .expect("tenants")
    };
    assert!(
        tail(&logn) > tail(&pois),
        "bursty lognormal arrivals must queue deeper than Poisson"
    );
}

#[test]
fn strategies_and_specialized_pipeline_compose_with_the_engine() {
    // The engine is strategy-agnostic: the specialized processor (whose
    // Default policy spreads packets over any free HPU) completes the
    // same offered schedule the RW-CP tenants do.
    let mut s = golden_spec();
    s.apps = vec!["NAS-MG/a".into()];
    s.loads = vec![0.5];
    s.disciplines = vec![QueueDiscipline::CFcfs];
    s.strategy = Strategy::Specialized;
    let doc = traffic_sweep(&s, &Pool::from_env(None));
    assert!(doc.all_byte_exact());
    let cell = &doc.cells[0];
    for t in &cell.tenants {
        assert_eq!(t.completed + t.lost, t.offered);
        assert!(t.completed > 0);
    }
}

#[test]
fn run_traffic_exposes_per_tenant_stats_directly() {
    let cfg = golden_spec().cell_config("COMB/b", 0.4, QueueDiscipline::BlockedRR);
    let r = run_traffic(&cfg);
    assert_eq!(r.tenants.len(), 3);
    let total: u64 = r.tenants.iter().map(|t: &TenantStats| t.completed).sum();
    assert!(total > 0);
    assert!(r.byte_exact);
    assert!(r.t_end >= cfg.horizon_ps);
}

/// The equivalence grid's spec for `strategy`: the golden's shape, and
/// under `overload` a 4 KiB packet buffer that admission overruns.
fn equivalence_spec(strategy: Strategy, overload: bool) -> TrafficSweepSpec {
    let mut s = golden_spec();
    s.apps = vec!["COMB/b".into()];
    s.strategy = strategy;
    s.horizon_ps = ncmt::sim::us(60);
    if overload {
        s.loads = vec![3.0];
        s.pkt_buffer_bytes = Some(4 << 10);
    } else {
        s.loads = vec![0.4];
    }
    s
}

/// Every discipline × {RW-CP, Specialized, HPU-local} × {light load,
/// overload}, as `(label, spec, load, discipline)`.
fn equivalence_grid() -> Vec<(String, TrafficSweepSpec, f64, QueueDiscipline)> {
    let mut out = Vec::new();
    for d in QueueDiscipline::ALL {
        for strategy in [Strategy::RwCp, Strategy::Specialized, Strategy::HpuLocal] {
            for overload in [false, true] {
                let spec = equivalence_spec(strategy, overload);
                let load = spec.loads[0];
                let label = format!("{} {} load {load}", d.label(), strategy.label());
                out.push((label, spec, load, d));
            }
        }
    }
    out
}

/// The block [`traffic_sweep`] builds from a run's own totals.
fn block_from_run(spec: &TrafficSweepSpec, r: &TrafficRunResult) -> UtilizationReport {
    UtilizationReport::from_busy(
        spec.stream_bucket_ps,
        r.t_end,
        spec.hpus as u64,
        &r.hpu_busy_ps,
        &r.dma_chan_busy_ps,
        r.dma_max_queue as f64,
    )
}

#[test]
fn engine_totals_do_not_depend_on_the_trace() {
    for (label, spec, load, d) in equivalence_grid() {
        let cfg = spec.cell_config("COMB/b", load, d);
        let off = run_traffic(&cfg);
        let rec = Arc::new(StreamingRecorder::new(spec.stream_bucket_ps));
        let streamed = run_traffic_with(&cfg, &Telemetry::with_recorder(rec.clone()));
        assert_eq!(off, streamed, "{label}: tracing changed the run");
        assert!(off.byte_exact, "{label}");
        assert_eq!(off.hpu_busy_ps.len(), spec.hpus, "{label}");
        assert!(
            off.hpu_busy_ps.iter().any(|&b| b > 0),
            "{label}: no handler ran"
        );
        assert!(
            off.dma_chan_busy_ps.iter().any(|&b| b > 0),
            "{label}: no DMA write"
        );
        assert!(off.dma_max_queue > 0, "{label}");
        if spec.pkt_buffer_bytes.is_some() {
            let dropped: u64 = off.tenants.iter().map(|t| t.dropped).sum();
            assert!(dropped > 0, "{label}: admission must reject");
        }
        assert_eq!(
            block_from_run(&spec, &off),
            UtilizationReport::from_aggregate(&rec.take(), "traffic", off.t_end, spec.hpus as u64),
            "{label}: the engine's totals disagree with its trace"
        );
    }
}

/// The reference assembly of a sweep: each cell streams its `traffic`
/// trace, and its utilization block is folded from that stream.
fn streamed_sweep(spec: &TrafficSweepSpec) -> TrafficDoc {
    let mut cells = Vec::new();
    for app in &spec.apps {
        for &load in &spec.loads {
            for &d in &spec.disciplines {
                let rec = Arc::new(StreamingRecorder::new(spec.stream_bucket_ps));
                let tel = Telemetry::with_recorder(rec.clone());
                let r = run_traffic_with(&spec.cell_config(app, load, d), &tel);
                let mut cell = cell_report(app, d, load, &r);
                cell.utilization = Some(UtilizationReport::from_aggregate(
                    &rec.take(),
                    "traffic",
                    r.t_end,
                    spec.hpus as u64,
                ));
                cells.push(cell);
            }
        }
    }
    TrafficDoc {
        version: TrafficDoc::VERSION,
        seed: spec.seed,
        hpus: spec.hpus as u64,
        strategy: spec.strategy.label().to_string(),
        arrival: spec.arrival.label().to_string(),
        horizon_ps: spec.horizon_ps,
        cells,
    }
}

#[test]
fn sweep_equals_the_streamed_assembly_at_any_worker_count() {
    let mut overload = equivalence_spec(Strategy::HpuLocal, true);
    overload.arrival = ArrivalKind::LogNormal;
    overload.stream_bucket_ps = 333;
    let mut light = equivalence_spec(Strategy::Specialized, false);
    light.apps.push("NAS-MG/a".into());
    for spec in [golden_spec(), light, overload] {
        let want = streamed_sweep(&spec).to_json();
        assert_eq!(traffic_sweep(&spec, &Pool::serial()).to_json(), want);
        assert_eq!(traffic_sweep(&spec, &Pool::new(4)).to_json(), want);
    }
}
