//! Property-based determinism wall for the traffic engine (the
//! contract the golden gate spot-checks, generalized): the offered
//! schedule and the emitted artifact are pure functions of the seed —
//! independent of worker count — and per-tenant histograms merge
//! order-independently.

use proptest::prelude::*;

use ncmt::sim::Pool;
use ncmt::spin::sched::QueueDiscipline;
use ncmt::telemetry::hist::LogHistogram;
use ncmt::traffic::{generate_schedule, render_schedule, traffic_sweep, TrafficSweepSpec};

fn tiny_spec(seed: u64) -> TrafficSweepSpec {
    let mut s = TrafficSweepSpec::new(seed);
    s.apps = vec!["COMB/b".into()];
    s.loads = vec![0.5, 1.1];
    s.disciplines = vec![QueueDiscipline::BlockedRR, QueueDiscipline::DFcfs];
    s.tenants = 2;
    s.hpus = 4;
    s.horizon_ps = ncmt::sim::us(60);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The rendered offer schedule of every grid cell is byte-identical
    /// for a fixed seed regardless of the worker count used elsewhere —
    /// and the whole emitted artifact is too. Every completed message,
    /// concurrent with the other tenants' on a random number of HPUs,
    /// lands byte-exact.
    #[test]
    fn schedule_and_artifact_are_byte_identical_at_any_jobs_count(
        seed in 0u64..1_000_000,
        jobs in 2usize..8,
        hpus in 1usize..32,
    ) {
        let mut spec = tiny_spec(seed);
        spec.hpus = hpus;
        let cfg = spec.cell_config("COMB/b", 0.5, QueueDiscipline::BlockedRR);
        let rendered = render_schedule(&generate_schedule(&cfg));
        prop_assert_eq!(&rendered, &render_schedule(&generate_schedule(&cfg)));
        prop_assert!(!rendered.is_empty());

        let doc = traffic_sweep(&spec, &Pool::serial());
        prop_assert!(doc.all_byte_exact(), "hpus = {}", hpus);
        let serial = doc.to_json();
        let parallel = traffic_sweep(&spec, &Pool::new(jobs)).to_json();
        prop_assert_eq!(serial, parallel, "jobs = {}", jobs);
    }

    /// Merging per-tenant latency histograms is order-independent: any
    /// permutation of partial histograms folds to the same aggregate.
    #[test]
    fn histogram_merge_is_order_independent(
        chunks in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000_000_000, 1..40),
            2..6,
        ),
        perm_seed in 0u64..1_000,
    ) {
        let parts: Vec<LogHistogram> = chunks
            .iter()
            .map(|samples| {
                let mut h = LogHistogram::new();
                for &s in samples {
                    h.record(s);
                }
                h
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut total = LogHistogram::new();
            for &i in order {
                total.merge(&parts[i]);
            }
            total
        };
        let serial_order: Vec<usize> = (0..parts.len()).collect();
        // A deterministic permutation derived from perm_seed.
        let mut shuffled = serial_order.clone();
        for i in (1..shuffled.len()).rev() {
            let j = ((perm_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32))
                % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let a = fold(&serial_order);
        let b = fold(&shuffled);
        prop_assert_eq!(&a, &b);
        let n: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        prop_assert_eq!(a.count(), n);
        prop_assert_eq!(a.percentile(99.9), b.percentile(99.9));
    }
}
