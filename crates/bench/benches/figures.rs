//! One Criterion group per paper figure, running the harness in quick
//! mode — regression tracking for the figure pipelines themselves.

use criterion::{criterion_group, criterion_main, Criterion};
use nca_bench::figures as f;

fn figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_quick");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("fig02_put_latency", |b| b.iter(f::fig02::rows));
    g.bench_function("fig08_unpack_throughput", |b| {
        b.iter(|| f::fig08::rows(true))
    });
    g.bench_function("fig09c_bandwidth", |b| b.iter(f::fig09c::rows));
    g.bench_function("fig10_pulp_vs_arm", |b| b.iter(f::fig10::rows));
    g.bench_function("fig11_ipc", |b| b.iter(f::fig11::rows));
    g.bench_function("fig12_handler_breakdown", |b| {
        b.iter(|| f::fig12::rows(true))
    });
    g.bench_function("fig13_scalability", |b| {
        b.iter(|| f::fig13::throughput_vs_hpus(true))
    });
    g.bench_function("fig14_dma_queue", |b| b.iter(|| f::fig14::rows(true)));
    let pool = nca_sim::Pool::from_env(None);
    g.bench_function("fig16", |b| {
        b.iter(|| nca_scenario::fig16::rows_filtered(Some(512), &pool))
    });
    g.bench_function("fig17_memory_traffic", |b| b.iter(|| f::fig17::rows(true)));
    g.bench_function("fig18_amortization", |b| b.iter(|| f::fig18::rows(true)));
    g.bench_function("fig19_fft2d", |b| b.iter(|| f::fig19::rows(true)));
    g.finish();
}

criterion_group!(benches, figures);
criterion_main!(benches);
