//! Packet-path wall-clock benchmarks: packets/sec and bytes/sec through
//! the receive pipeline, per strategy plus the contiguous landing.
//!
//! This is the benchmark wall for the zero-copy wire-buffer refactor:
//! `cargo bench -p nca-bench --bench packet_path -- --save-baseline
//! packet_path` writes `target/nca-criterion/packet_path.{tsv,json}`;
//! the JSON is committed as `BENCH_packet_path.json` so future PRs can
//! diff packet-path throughput against it (see EXPERIMENTS.md).
//!
//! The `contig` benchmarks isolate the pipeline itself (minimal handler,
//! no datatype processing): their packets/sec is the per-packet overhead
//! of the simulated receive path — message clone, payload staging and
//! DMA landing — which is exactly what the zero-copy refactor attacks.
//! The runs are lossless, so no payload byte is ever hashed. The
//! per-strategy benchmarks include processor construction (dataloop
//! compile, checkpoint tables), i.e. the full per-message receive cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use nca_core::runner::Strategy;
use nca_ddt::pack::{buffer_span, pack};
use nca_ddt::types::{elem, Datatype, DatatypeExt};
use nca_sim::WireBuf;
use nca_spin::builtin::ContigProcessor;
use nca_spin::nic::{ReceiveSim, RunConfig};
use nca_spin::params::NicParams;
use nca_telemetry::Telemetry;

/// Deterministic payload pattern.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
}

fn npackets(params: &NicParams, bytes: u64) -> u64 {
    bytes.div_ceil(params.payload_size).max(1)
}

/// Contiguous landing at two message sizes, reported as packets/sec.
fn bench_contig_pkts(c: &mut Criterion) {
    let params = NicParams::with_hpus(16);
    let mut g = c.benchmark_group("packet_path_pkts");
    g.sample_size(20);
    for (label, bytes) in [("contig_64k", 64usize << 10), ("contig_1m", 1usize << 20)] {
        // Built once; per-iteration clones are refcount bumps.
        let packed: WireBuf = pattern(bytes).into();
        g.throughput(Throughput::Elements(npackets(&params, bytes as u64)));
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            let cfg = RunConfig::new(params.clone());
            b.iter(|| {
                let proc = Box::new(ContigProcessor::new(0, params.spin_min_handler()));
                ReceiveSim::run(proc, packed.clone(), 0, bytes as u64, &cfg).t_complete
            })
        });
    }
    g.finish();
}

/// Contiguous landing, reported as bytes/sec.
fn bench_contig_bytes(c: &mut Criterion) {
    let params = NicParams::with_hpus(16);
    let bytes = 1usize << 20;
    let packed: WireBuf = pattern(bytes).into();
    let mut g = c.benchmark_group("packet_path_bytes");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function(BenchmarkId::from_parameter("contig_1m"), |b| {
        let cfg = RunConfig::new(params.clone());
        b.iter(|| {
            let proc = Box::new(ContigProcessor::new(0, params.spin_min_handler()));
            ReceiveSim::run(proc, packed.clone(), 0, bytes as u64, &cfg).t_complete
        })
    });
    g.finish();
}

/// Full receive per strategy over a 64 KiB vector datatype (128 B
/// blocks), both packets/sec and bytes/sec.
fn bench_strategies(c: &mut Criterion) {
    let dt = Datatype::vector(512, 16, 32, &elem::double()); // 64 KiB
    let params = NicParams::with_hpus(16);
    let (origin, span) = buffer_span(&dt, 1);
    let src = pattern(span as usize);
    let packed: WireBuf = pack(&dt, 1, &src, origin).expect("packable").into();
    let msg_bytes = packed.len() as u64;
    let npkt = npackets(&params, msg_bytes);

    let mut g = c.benchmark_group("packet_path_pkts");
    g.sample_size(20);
    g.throughput(Throughput::Elements(npkt));
    for s in Strategy::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(s.label()), &s, |b, &s| {
            let cfg = RunConfig::new(params.clone());
            b.iter(|| {
                let proc = s.build(&dt, 1, params.clone(), 0.2, Telemetry::disabled());
                ReceiveSim::run(proc, packed.clone(), origin, span, &cfg).t_complete
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("packet_path_bytes");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(msg_bytes));
    for s in Strategy::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(s.label()), &s, |b, &s| {
            let cfg = RunConfig::new(params.clone());
            b.iter(|| {
                let proc = s.build(&dt, 1, params.clone(), 0.2, Telemetry::disabled());
                ReceiveSim::run(proc, packed.clone(), origin, span, &cfg).t_complete
            })
        });
    }
    g.finish();
}

/// The CI telemetry-overhead gate (ISSUE 7): one RW-CP receive carried
/// through to the rollups both ways. The `stream` arm runs with
/// aggregation **on** — events fold into a [`StreamingRecorder`] at
/// emission, and reading the rollups afterwards touches only the tiny
/// reducer state. The `ring` arm runs with aggregation **fully off** —
/// every event is retained, and the identical rollups (byte-identical,
/// CI-enforced by `tests/streaming_equiv.rs`) are computed from the
/// retained stream afterwards. Both arms pay the same emission cost and
/// deliver the same result, so the ratio is exactly what streaming
/// aggregation costs relative to retention; CI fails when `stream`
/// exceeds `ring` by more than 5%.
///
/// A receive emits one event per ~35 ns of simulated host work, so any
/// per-event sink — even one that discards — reads as a large fraction
/// of a telemetry-disabled run; `disabled` is recorded for context
/// (the pay-for-use cost of capture as a whole), not as the baseline.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use std::sync::Arc;

    use nca_telemetry::aggregate::rollup;
    use nca_telemetry::{Recorder, StreamingRecorder};

    let dt = Datatype::vector(512, 16, 32, &elem::double()); // 64 KiB
    let params = NicParams::with_hpus(16);
    let (origin, span) = buffer_span(&dt, 1);
    let src = pattern(span as usize);
    let packed: WireBuf = pack(&dt, 1, &src, origin).expect("packable").into();
    let s = Strategy::RwCp;
    let receive = |tel: &Telemetry| {
        let mut cfg = RunConfig::new(params.clone());
        cfg.telemetry = tel.clone();
        let proc = s.build(&dt, 1, params.clone(), 0.2, tel.clone());
        ReceiveSim::run(proc, packed.clone(), origin, span, &cfg).t_complete
    };

    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(20);
    g.bench_function(BenchmarkId::from_parameter("ring"), |b| {
        b.iter(|| {
            // Big enough that nothing drops (a receive emits ~4.3k
            // events); retention must see the whole stream.
            let (tel, ring) = Telemetry::ring(1 << 13);
            receive(&tel);
            rollup(&ring.events())
        })
    });
    g.bench_function(BenchmarkId::from_parameter("stream"), |b| {
        b.iter(|| {
            let rec = Arc::new(StreamingRecorder::new(1_000_000));
            let tel = Telemetry::with_recorder(rec.clone() as Arc<dyn Recorder>);
            receive(&tel);
            rec.take().rollups()
        })
    });
    g.bench_function(BenchmarkId::from_parameter("disabled"), |b| {
        let tel = Telemetry::disabled();
        b.iter(|| receive(&tel))
    });
    g.finish();
}

/// Leaf copy-kernel microbenchmarks (bytes/sec per kernel variant):
/// the specialized strided kernels against the per-block generic paths
/// they replaced. The workload mirrors the strategy benchmarks' wire
/// shape — 64 KiB moved as fixed-size blocks at a fixed stride — so a
/// kernel regression shows up here before it blurs into the full
/// pipeline numbers. `strided_*` are the word-multiple (aligned) fast
/// paths taken by every vector-like dataloop level; `per_block_*` is
/// the same byte movement through one kernel call per block; the
/// `memcpy_128` variant is the pre-kernel reference loop (runtime
/// length, one `memcpy` dispatch per block).
fn bench_copy_kernels(c: &mut Criterion) {
    use nca_ddt::kernels::{copy_block, copy_strided};

    const TOTAL: usize = 64 << 10;
    let src = pattern(TOTAL);
    let mut g = c.benchmark_group("copy_kernels");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(TOTAL as u64));

    // 8-byte blocks (a double) scattered at stride 16: the finest
    // aligned case, where per-block dispatch overhead dominates.
    let n8 = (TOTAL / 8) as u64;
    let mut dst = vec![0u8; 2 * TOTAL];
    g.bench_function(BenchmarkId::from_parameter("strided_8"), |b| {
        b.iter(|| copy_strided(&mut dst, 0, 16, &src, 0, 8, 8, n8))
    });

    // 128-byte blocks at stride 256: the strategy benchmarks' datatype
    // (vector of 16 doubles every 32).
    let n128 = (TOTAL / 128) as u64;
    g.bench_function(BenchmarkId::from_parameter("strided_128_aligned"), |b| {
        b.iter(|| copy_strided(&mut dst, 0, 256, &src, 0, 128, 128, n128))
    });

    g.bench_function(BenchmarkId::from_parameter("per_block_128"), |b| {
        b.iter(|| {
            for i in 0..n128 as usize {
                copy_block(&mut dst, i * 256, &src, i * 128, 128);
            }
        })
    });

    g.bench_function(BenchmarkId::from_parameter("per_block_memcpy_128"), |b| {
        b.iter(|| {
            for i in 0..n128 as usize {
                let (d, s) = (i * 256, i * 128);
                let len = criterion::black_box(128usize);
                dst[d..d + len].copy_from_slice(&src[s..s + len]);
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_contig_pkts,
    bench_contig_bytes,
    bench_strategies,
    bench_copy_kernels,
    bench_telemetry_overhead
);
criterion_main!(benches);
