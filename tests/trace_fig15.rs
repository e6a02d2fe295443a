//! The trace-driven Fig. 15 harness must reproduce the DMA-occupancy
//! series of the pipeline's bespoke `dma_history` probe exactly, and
//! its rendered table must match the committed golden output.
//!
//! Regenerate the golden with
//! `BLESS_GOLDEN=1 cargo test --release --test trace_fig15`.

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::core::strategies::{GeneralKind, GeneralProcessor};
use ncmt::ddt::pack::{buffer_span, pack};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::spin::handler::{DirectDst, MessageProcessor, PacketCtx};
use ncmt::spin::params::NicParams;
use ncmt::telemetry::{aggregate, export, Telemetry};

use nca_bench::figures::fig15;

/// γ=16 vector workload, small enough for a debug-mode test run.
fn workload() -> (Datatype, u32) {
    // 128 B blocks, 64 KiB total: 512 blocks of 16 doubles.
    (Datatype::vector(512, 16, 32, &elem::double()), 1)
}

#[test]
fn trace_gauge_series_equals_bespoke_dma_history() {
    for s in [
        Strategy::RwCp,
        Strategy::RoCp,
        Strategy::HpuLocal,
        Strategy::Specialized,
    ] {
        let (dt, count) = workload();
        let mut exp = Experiment::new(dt, count, NicParams::with_hpus(16));
        exp.record_dma_history = true;
        let (tel, sink) = Telemetry::ring(1 << 20);
        exp.telemetry = tel;
        let r = exp.run(s);
        let traced: Vec<(u64, usize)> =
            aggregate::gauge_series(&sink.events(), "spin", "dma_queue")
                .into_iter()
                .map(|(t, v)| (t, v as usize))
                .collect();
        assert!(
            !traced.is_empty(),
            "{}: trace must contain dma_queue samples",
            s.label()
        );
        assert_eq!(
            traced,
            r.dma_history,
            "{}: trace-driven series must equal the bespoke probe sample for sample",
            s.label()
        );
    }
}

#[test]
fn trace_contains_the_advertised_event_families() {
    let (dt, count) = workload();
    let mut exp = Experiment::new(dt, count, NicParams::with_hpus(16));
    let (tel, sink) = Telemetry::ring(1 << 20);
    exp.telemetry = tel.scoped("RW-CP");
    exp.run(Strategy::RwCp);
    let evs = sink.events();
    let roll = aggregate::rollup(&evs);
    // HPU handler spans with phase timings, sim-loop counters, DMA
    // queue samples, and checkpoint bookkeeping all present.
    assert!(roll["spin"].spans.contains_key("handler"));
    assert!(roll["spin"].counters["packets_arrived"] > 0);
    assert!(roll["sim"].counters["events_dispatched"] > 0);
    assert!(roll["core"].counters["checkpoints_created"] > 0);
    assert!(roll["core"].values.contains_key("t_processing"));
    assert!(!aggregate::gauge_series(&evs, "spin", "dma_queue").is_empty());

    // And the Perfetto export carries them as spans/counters/instants.
    let json = export::chrome_trace_json(&evs);
    assert!(json.contains(r#""name":"RW-CP/spin""#));
    assert!(
        json.contains(r#""ph":"X","pid":"#),
        "handler spans exported"
    );
    assert!(
        json.contains(r#""name":"dma_queue""#),
        "dma counter track exported"
    );
    assert!(json.contains(r#""ph":"i""#), "instant events exported");
}

#[test]
fn rwcp_revert_is_traced() {
    // Drive the RW-CP processor directly with an out-of-order pair on
    // one vHPU: the second packet rewinds past the progressed
    // checkpoint and must emit revert telemetry.
    let (dt, count) = workload();
    let params = NicParams::with_hpus(16);
    let (origin, span) = buffer_span(&dt, count);
    let src: Vec<u8> = (0..span as usize).map(|i| (i % 251) as u8).collect();
    let packed: ncmt::sim::WireBuf = pack(&dt, count, &src, origin).unwrap().into();
    let ps = params.payload_size as usize;

    let (tel, sink) = Telemetry::ring(256);
    let mut p =
        GeneralProcessor::new(GeneralKind::RwCp, &dt, count, params, 0.2).with_telemetry(tel);
    let mut host = ncmt::sim::arena::take_zeroed(span as usize);
    let mut later = PacketCtx {
        payload: &packed.view(ps, ps),
        stream_offset: ps as u64,
        seq: 1,
        npkt: 2,
        vhpu: 0,
        now: 10,
        direct: DirectDst::new(&mut host, origin),
    };
    p.on_payload(&mut later);
    let mut earlier = PacketCtx {
        payload: &packed.view(0, ps),
        stream_offset: 0,
        seq: 0,
        npkt: 2,
        vhpu: 0,
        now: 20,
        direct: DirectDst::new(&mut host, origin),
    };
    p.on_payload(&mut earlier);
    let rec = p.recovery();
    assert_eq!(rec.checkpoint_reverts, 1);
    let roll = aggregate::rollup(&sink.events());
    assert_eq!(roll["core"].counters["checkpoint_reverts"], 1);
    assert_eq!(roll["core"].instants["checkpoint_revert"], 1);
    // The processor's own counts, which run reports carry, match the
    // trace's.
    assert_eq!(rec.catchup_blocks, roll["core"].counters["catchup_blocks"]);
}

#[test]
fn dma_channel_tracks_carry_disjoint_busy_spans() {
    let (dt, count) = workload();
    let mut exp = Experiment::new(dt, count, NicParams::with_hpus(16));
    let (tel, sink) = Telemetry::ring(1 << 20);
    exp.telemetry = tel;
    let r = exp.run(Strategy::RwCp);
    let evs = sink.events();

    // Every DMA write is served by exactly one channel busy span.
    let mut per_chan: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for ev in &evs {
        if ev.component == "spin" && ev.name == "dma_chan" {
            if let ncmt::telemetry::EventKind::Span { end } = ev.kind {
                per_chan.entry(ev.track).or_default().push((ev.time, end));
            }
        }
    }
    let total: usize = per_chan.values().map(Vec::len).sum();
    assert_eq!(
        total as u64, r.dma_writes,
        "one dma_chan span per DMA write"
    );
    // A channel serves one write at a time: spans on its track are
    // non-overlapping in dispatch order.
    for (chan, spans) in &per_chan {
        let mut sorted = spans.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "channel {chan}: spans {:?} and {:?} overlap",
                w[0],
                w[1]
            );
        }
    }
    // And the figure helper sees the same channel-0 spans.
    let (n0, busy0) = fig15::channel_busy(&evs, 0);
    assert_eq!(n0, per_chan.get(&0).map_or(0, Vec::len));
    assert!(busy0 > 0);
}

#[test]
fn fig15_rows_match_golden() {
    let actual = fig15::rows(true).join("\n") + "\n";
    let path = format!(
        "{}/tests/golden/fig15_dma_timeline.tsv",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "fig15 drifted from its golden output; regenerate {path} if intended"
    );
}
