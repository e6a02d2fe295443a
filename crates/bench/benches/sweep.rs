//! Parallel-sweep wall-clock benchmark: the same fault-sweep matrix run
//! serially and on a 4-worker pool.
//!
//! This is the benchmark wall for the parallel executor:
//! `cargo bench -p nca-bench --bench sweep -- --save-baseline sweep`
//! writes `target/nca-criterion/sweep.{tsv,json}`; the JSON is committed
//! as `BENCH_sweep.json` so future PRs can diff sweep wall-clock against
//! it (see EXPERIMENTS.md). On a single-core runner the two series are
//! expected to be equal (the pool degrades to at most one runnable
//! worker); the `--jobs 4` speedup target applies on multi-core CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use nca_core::sweep::{fault_sweep, FaultSweepSpec};
use nca_ddt::types::{elem, Datatype, DatatypeExt};
use nca_sim::{FaultSpec, Pool};
use nca_spin::params::NicParams;

/// The matrix both variants run: a 64 KiB strided vector, 4 seeds × 3
/// scales × 4 strategies (a fault-sweep scenario's default `sweep`).
fn spec() -> FaultSweepSpec {
    FaultSweepSpec {
        dt: Datatype::vector(512, 16, 32, &elem::double()),
        count: 1,
        params: NicParams::with_hpus(16),
        base: FaultSpec {
            drop: 0.05,
            duplicate: 0.02,
            corrupt: 0.01,
            reorder_window: 2_000_000,
            seed: 1,
        },
        seed0: 1,
        seeds: 4,
        scales: vec![0.0, 0.5, 1.0],
        ring_capacity: 1 << 20,
    }
}

fn bench_sweep(c: &mut Criterion) {
    let spec = spec();
    let cells = (spec.seeds as usize) * spec.scales.len();
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells as u64));
    for (label, jobs) in [("serial", 1usize), ("jobs4", 4)] {
        let pool = Pool::new(jobs);
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| fault_sweep(&spec, &pool).len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
