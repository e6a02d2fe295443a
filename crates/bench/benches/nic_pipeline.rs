//! NIC-pipeline benchmarks: matching, end-to-end simulated receives per
//! strategy, and the host LLC traffic replay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use nca_core::runner::{Experiment, Strategy};
use nca_ddt::types::{elem, Datatype, DatatypeExt};
use nca_memsim::cache::CacheConfig;
use nca_memsim::traffic::unpack_traffic;
use nca_portals::matching::{MatchEntry, MatchingUnit};
use nca_spin::params::NicParams;

fn bench_matching(c: &mut Criterion) {
    c.bench_function("portals_match_256_entries", |b| {
        b.iter_batched(
            || {
                let mut mu = MatchingUnit::new();
                for i in 0..256u64 {
                    mu.append_priority(MatchEntry {
                        id: 0,
                        match_bits: i,
                        ignore_bits: 0,
                        start: 0,
                        length: 4096,
                        exec_ctx: None,
                        use_once: false,
                    });
                }
                mu
            },
            |mut mu| {
                let (out, _) = mu.match_header(0, 255);
                out
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_receive(c: &mut Criterion) {
    let dt = Datatype::vector(512, 16, 32, &elem::double()); // 64 KiB, 128 B blocks
    let mut g = c.benchmark_group("simulated_receive_64kib");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(4));
    g.throughput(Throughput::Bytes(dt.size));
    for s in Strategy::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(s.label()), &s, |b, &s| {
            let mut exp = Experiment::new(dt.clone(), 1, NicParams::with_hpus(16));
            exp.verify = false;
            b.iter(|| exp.run(s).t_complete)
        });
    }
    g.finish();
}

fn bench_cache_replay(c: &mut Criterion) {
    let dt = Datatype::vector(2048, 16, 32, &elem::double()); // 256 KiB
    c.bench_function("llc_unpack_replay_256kib", |b| {
        b.iter(|| unpack_traffic(&dt, 1, CacheConfig::i7_4770_llc()).host_bytes)
    });
}

fn bench_sender_pipelines(c: &mut Criterion) {
    use nca_ddt::flatten::flatten;
    use nca_spin::sender::{simulate_streaming_put, SenderCosts};
    let dt = Datatype::vector(4096, 16, 32, &elem::double());
    let (origin, span) = nca_ddt::pack::buffer_span(&dt, 1);
    let src: Vec<u8> = (0..span as usize).map(|i| i as u8).collect();
    let iov = flatten(&dt, 1);
    c.bench_function("streaming_put_sender_512kib", |b| {
        let p = NicParams::default();
        let costs = SenderCosts::default();
        b.iter(|| simulate_streaming_put(&p, &costs, &iov, &src, origin).inject_done)
    });
}

criterion_group!(
    benches,
    bench_matching,
    bench_receive,
    bench_cache_replay,
    bench_sender_pipelines
);
criterion_main!(benches);
