//! Equivalence wall for the streaming telemetry pipeline: folding
//! events into bounded [`StreamAggregate`] reducers must be
//! indistinguishable from retaining every event and rolling the stream
//! up afterwards — for arbitrary event sequences, at any shard count,
//! and end to end through the runner's parallel capture path, where
//! each strategy's ring slice also folds to the counters its run kept.
//! This is the contract that lets a trace's counter tracks be folded at
//! export, and a report read counters instead of the trace.

use std::sync::Arc;

use proptest::prelude::*;

use ncmt::core::report::strategy_report;
use ncmt::core::runner::{Experiment, StrategySweep};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::Pool;
use ncmt::spin::params::NicParams;
use ncmt::telemetry::aggregate::rollup;
use ncmt::telemetry::hist::LogHistogram;
use ncmt::telemetry::{EventKind, StreamAggregate, TraceEvent};

const BUCKET_PS: u64 = 100_000;
const COMPONENTS: [&str; 3] = ["spin", "core", "traffic"];
const NAMES: [&str; 4] = ["pkts", "handler", "depth", "lat"];

/// Arbitrary events over small pools of components/names/tracks so
/// reducer keys collide often (the interesting case for merging).
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        0usize..COMPONENTS.len(),
        0usize..NAMES.len(),
        0u64..4,
        0u64..8 * BUCKET_PS,
        0usize..6,
        0u64..3 * BUCKET_PS,
    )
        .prop_map(|(c, n, track, time, k, x)| {
            let kind = match k {
                0 => EventKind::Counter { delta: x + 1 },
                1 => EventKind::Gauge { value: x as f64 },
                2 => EventKind::Value {
                    value: x as f64 / 3.0,
                },
                3 => EventKind::Span { end: time + x },
                4 => EventKind::Instant,
                _ => {
                    let mut h = LogHistogram::new();
                    h.record(x + 1);
                    h.record(x / 2 + 1);
                    EventKind::Hist { hist: Arc::new(h) }
                }
            };
            TraceEvent {
                scope: "",
                component: COMPONENTS[c],
                name: NAMES[n],
                track,
                time,
                kind,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any event sequence: (a) the incremental fold reduces to the
    /// identical rollup as retaining the events, and (b) splitting the
    /// sequence into any number of shards, folding each separately and
    /// merging in serial order reproduces the single-fold state —
    /// rollups, busy series and gauge-peak series included.
    #[test]
    fn fold_equals_retained_rollup_at_any_shard_count(
        evs in proptest::collection::vec(arb_event(), 0..120),
        shards in 1usize..6,
    ) {
        let mut serial = StreamAggregate::new(BUCKET_PS);
        for e in &evs {
            serial.fold(e);
        }
        prop_assert_eq!(serial.rollups(), rollup(&evs));

        let chunk = evs.len().div_ceil(shards).max(1);
        let mut merged = StreamAggregate::new(BUCKET_PS);
        for part in evs.chunks(chunk) {
            let mut shard = StreamAggregate::new(BUCKET_PS);
            for e in part {
                shard.fold(e);
            }
            merged.merge(&shard);
        }
        prop_assert_eq!(merged.rollups(), serial.rollups(), "shards = {}", shards);
        for ((c, n, t), series) in serial.busy_series_iter() {
            prop_assert_eq!(merged.busy_series(c, n, t), series);
        }
        for ((c, n, t), series) in serial.gauge_peak_iter() {
            prop_assert_eq!(merged.gauge_peak_series(c, n, t), series);
        }
    }
}

fn captured_experiment() -> Experiment {
    let dt = Datatype::vector(128, 8, 16, &elem::double());
    let mut exp = Experiment::new(dt, 1, NicParams::with_hpus(8));
    exp.verify = false;
    exp
}

const RING: Option<usize> = Some(1 << 20);

/// Each strategy's slice of the merged ring, folded at 1 µs buckets, in
/// `Strategy::ALL` order.
fn slice_folds(sweep: &StrategySweep) -> Vec<(&'static str, Vec<TraceEvent>, StreamAggregate)> {
    sweep
        .runs
        .iter()
        .map(|(s, _)| {
            let evs: Vec<TraceEvent> = sweep
                .events
                .iter()
                .filter(|e| e.scope == s.label())
                .cloned()
                .collect();
            let mut agg = StreamAggregate::new(1_000_000);
            for e in &evs {
                agg.fold(e);
            }
            (s.label(), evs, agg)
        })
        .collect()
}

/// End to end through the runner: each strategy's slice of a parallel
/// sweep's ring folds to exactly that slice's rollup, and its handler
/// busy series to the per-vHPU busy time the run counted.
#[test]
fn runner_streaming_aggregates_match_ring_rollups() {
    let exp = captured_experiment();
    let sweep = exp.run_all_modeled(&Pool::new(4), RING);
    assert_eq!(sweep.dropped, 0);
    for ((label, evs, agg), (_, run)) in slice_folds(&sweep).iter().zip(&sweep.runs) {
        assert!(!evs.is_empty(), "{label} captured no events");
        assert_eq!(agg.rollups(), rollup(evs), "{label}");
        let busy = &run.report.hpu_busy_ps;
        for (v, &ps) in busy.iter().enumerate() {
            assert_eq!(
                agg.busy_total("spin", "handler", v as u64),
                ps,
                "{label} vHPU {v}"
            );
        }
        assert!(
            agg.busy_tracks("spin", "handler").len() <= busy.len(),
            "{label}"
        );
    }
}

/// Regression for per-job NIC-memory peaks at `--jobs 4`: each
/// strategy's high-water mark — the report field and the gauge its ring
/// slice folds to — must equal its serial value, not the maximum over
/// whatever jobs shared a worker.
#[test]
fn nic_mem_hwm_is_per_job_at_jobs_4() {
    let exp = captured_experiment();
    let serial = exp.run_all_modeled(&Pool::serial(), RING);
    let parallel = exp.run_all_modeled(&Pool::new(4), RING);
    let hwms: Vec<u64> = serial
        .runs
        .iter()
        .zip(&parallel.runs)
        .zip(slice_folds(&parallel))
        .map(|(((s, run_s), (_, run_p)), (label, _, agg))| {
            let (rs, rp) = (strategy_report(&exp, run_s), strategy_report(&exp, run_p));
            assert_eq!(s.label(), label);
            assert_eq!(rs.nic_mem_hwm_bytes, rp.nic_mem_hwm_bytes, "{label}");
            assert_eq!(
                agg.gauge_hwm("spin", "nic_mem_bytes"),
                Some(rp.nic_mem_hwm_bytes as f64),
                "{label}: the traced gauge peak"
            );
            rs.nic_mem_hwm_bytes
        })
        .collect();
    let distinct = {
        let mut h = hwms.clone();
        h.sort_unstable();
        h.dedup();
        h.len()
    };
    // Strategies differ in footprint, so cross-job contamination (a
    // shared sink remembering a bigger job's peak) would break this.
    assert!(
        distinct > 1,
        "strategies should have distinct HWMs for the check to bite: {hwms:?}"
    );
}
