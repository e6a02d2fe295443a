//! The DMA engine is pinned to `tests/golden/dma_engine.json`, captured
//! from the event-driven engine the NIC once ran alongside the eager
//! one: every write's service start, channel and landing time was a
//! simulator event there, so its outputs are the reference schedule.
//!
//! Each case must match the golden four ways, because observation must
//! never change what runs:
//! - telemetry off: times, counters, landed bytes, reliability and
//!   recovery counts, and the engine's own per-channel busy
//!   picoseconds (`RunReport::dma_chan_busy_ps`);
//! - ring capture: the same, plus per-channel write counts and busy
//!   picoseconds from the `spin/dma_chan` spans;
//! - streaming capture: the same, plus per-channel busy picoseconds
//!   from the aggregate's busy series;
//! - history recording: the same, plus the occupancy series.
//!
//! The fault half also runs a ring far too small for the trace.
//!
//! The cases: three lossless datatypes spanning γ regimes (fine blocks
//! with a DMA backlog, wide service-bound blocks, a multi-count message)
//! and the fault sweep's 512×16/32 vector under its full fault mix over
//! seeds 1–4, each with every strategy.

use std::sync::Arc;

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::FaultSpec;
use ncmt::spin::nic::RunReport;
use ncmt::spin::params::NicParams;
use ncmt::telemetry::report::Json;
use ncmt::telemetry::{EventKind, StreamingRecorder, Telemetry, TraceEvent};

const GOLDEN: &str = "tests/golden/dma_engine.json";

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// One case: a named experiment and the strategy it runs.
struct Case {
    name: String,
    exp: Experiment,
    strategy: Strategy,
}

fn cases() -> Vec<Case> {
    let lossless = [
        (
            "vector 512x16/32 x1",
            Datatype::vector(512, 16, 32, &elem::double()),
            1,
        ),
        (
            "vector 64x256/512 x1",
            Datatype::vector(64, 256, 512, &elem::double()),
            1,
        ),
        (
            "vector 128x4/8 x3",
            Datatype::vector(128, 4, 8, &elem::double()),
            3,
        ),
    ];
    let mut out = Vec::new();
    for (label, dt, count) in lossless {
        for s in Strategy::ALL {
            let mut exp = Experiment::new(dt.clone(), count, NicParams::with_hpus(16));
            exp.verify = false;
            out.push(Case {
                name: format!("{label} {}", s.label()),
                exp,
                strategy: s,
            });
        }
    }
    // The fault sweep's datatype and mix: retransmissions re-run
    // handlers, and HPU-local catches up.
    let mix = FaultSpec {
        drop: 0.05,
        duplicate: 0.02,
        corrupt: 0.01,
        reorder_window: 2_000_000,
        seed: 1,
    };
    for seed in 1..=4 {
        for s in Strategy::ALL {
            let dt = Datatype::vector(512, 16, 32, &elem::double());
            let mut exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
            exp.faults = mix.with_seed(seed);
            out.push(Case {
                name: format!("vector 512x16/32 x1 faults seed {seed} {}", s.label()),
                exp,
                strategy: s,
            });
        }
    }
    out
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn array(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// What one run shows, as `(key, JSON value)` pairs in golden order.
/// Every mode observes the report's scalars; the rest depends on what
/// the mode captured.
fn scalars(r: &RunReport) -> Vec<(&'static str, String)> {
    let rel = &r.rel;
    vec![
        ("t_first_byte", r.t_first_byte.to_string()),
        ("t_complete", r.t_complete.to_string()),
        ("dma_writes", r.dma_writes.to_string()),
        ("dma_bytes", r.dma_bytes.to_string()),
        ("dma_max_queue", r.dma_max_queue.to_string()),
        ("nic_mem_hwm_bytes", r.nic_mem_hwm_bytes.to_string()),
        (
            "host_buf_fnv",
            format!("\"{:#018x}\"", fnv1a(r.host_buf.iter().copied())),
        ),
        (
            "rel",
            array(&[
                rel.transmissions,
                rel.retransmissions,
                rel.drops_injected,
                rel.dups_injected,
                rel.dups_suppressed,
                rel.corrupts_injected,
                rel.corrupts_rejected,
                rel.acks_received,
                rel.host_fallback_packets,
                rel.nic_mem_fallback as u64,
                rel.delivered_exactly_once as u64,
            ]),
        ),
        (
            "recovery",
            array(&[r.recovery.checkpoint_reverts, r.recovery.catchup_blocks]),
        ),
    ]
}

/// The engine's per-channel busy picoseconds, listed as the golden
/// lists channels: up to the last one that served a write.
fn engine_busy(r: &RunReport) -> Vec<(&'static str, String)> {
    let busy = &r.dma_chan_busy_ps;
    let listed = busy.iter().rposition(|&b| b > 0).map_or(0, |c| c + 1);
    vec![("chan_busy_ps", array(&busy[..listed]))]
}

fn history(r: &RunReport) -> Vec<(&'static str, String)> {
    let bytes = r
        .dma_history
        .iter()
        .flat_map(|&(t, d)| t.to_le_bytes().into_iter().chain((d as u64).to_le_bytes()));
    vec![
        ("dma_history_len", r.dma_history.len().to_string()),
        ("dma_history_fnv", format!("\"{:#018x}\"", fnv1a(bytes))),
    ]
}

/// Per-channel `(writes, busy ps)` of the `spin/dma_chan` spans.
fn channels(events: &[TraceEvent]) -> Vec<(&'static str, String)> {
    let (mut writes, mut busy) = (Vec::<u64>::new(), Vec::<u64>::new());
    for e in events {
        if let (("spin", "dma_chan"), EventKind::Span { end }) = ((e.component, e.name), &e.kind) {
            let c = e.track as usize;
            if writes.len() <= c {
                writes.resize(c + 1, 0);
                busy.resize(c + 1, 0);
            }
            writes[c] += 1;
            busy[c] += end - e.time;
        }
    }
    vec![
        ("chan_writes", array(&writes)),
        ("chan_busy_ps", array(&busy)),
    ]
}

/// Ring capture and history recording together: everything the golden
/// holds, from one run.
fn observe_all(c: &Case) -> Vec<(&'static str, String)> {
    let mut exp = c.exp.clone();
    let (tel, ring) = Telemetry::ring(1 << 22);
    exp.telemetry = tel;
    exp.record_dma_history = true;
    let r = exp.run(c.strategy);
    assert_eq!(ring.dropped(), 0, "{}: ring overflowed", c.name);
    let mut fields = vec![("case", format!("\"{}\"", c.name))];
    fields.extend(scalars(&r));
    fields.extend(history(&r));
    fields.extend(channels(&ring.events()));
    fields
}

fn render(fields: &[(&'static str, String)]) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn golden_cases() -> Vec<Json> {
    let path = repo_path(GOLDEN);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    doc.get("cases")
        .and_then(Json::as_arr)
        .expect("golden cases")
        .to_vec()
}

/// Every observed field must equal the golden's.
fn assert_matches(golden: &Json, fields: &[(&'static str, String)], what: &str) {
    for (k, v) in fields {
        let got = Json::parse(v).expect("rendered field parses");
        assert_eq!(
            Some(&got),
            golden.get(k),
            "{what}: {k} drifted from {GOLDEN} (captured from the event-driven \
             engine; regenerate only for an intended model change, with \
             `cargo test --test dma_engine_equiv -- --ignored regenerate_golden_dma_engine`)"
        );
    }
}

/// Run every case four ways against the golden; `faulty` picks the
/// lossless or the fault-mix half.
fn check_against_golden(faulty: bool) {
    let golden = golden_cases();
    let all = cases();
    assert_eq!(golden.len(), all.len(), "golden case count");
    let mut checked = 0;
    for (c, g) in all.iter().zip(&golden) {
        assert_eq!(g.get("case").and_then(Json::as_str), Some(c.name.as_str()));
        if c.exp.faults.is_inert() == faulty {
            continue;
        }
        checked += 1;

        let off = c.exp.run(c.strategy);
        assert!(off.dma_history.is_empty());
        let what = format!("{}, telemetry off", c.name);
        assert_matches(g, &scalars(&off), &what);
        assert_matches(g, &engine_busy(&off), &what);

        let mut ring_exp = c.exp.clone();
        let (tel, ring) = Telemetry::ring(1 << 22);
        ring_exp.telemetry = tel;
        let traced = ring_exp.run(c.strategy);
        assert_eq!(ring.dropped(), 0);
        let what = format!("{}, ring capture", c.name);
        assert_matches(g, &scalars(&traced), &what);
        assert_matches(g, &engine_busy(&traced), &what);
        assert_matches(g, &channels(&ring.events()), &what);

        let mut stream_exp = c.exp.clone();
        let rec = Arc::new(StreamingRecorder::new(ncmt::sim::us(1)));
        stream_exp.telemetry = Telemetry::with_recorder(rec.clone());
        let streamed = stream_exp.run(c.strategy);
        let agg = rec.snapshot();
        let busy: Vec<u64> = agg
            .busy_tracks("spin", "dma_chan")
            .into_iter()
            .map(|t| agg.busy_total("spin", "dma_chan", t))
            .collect();
        let what = format!("{}, streaming capture", c.name);
        assert_matches(g, &scalars(&streamed), &what);
        assert_matches(g, &engine_busy(&streamed), &what);
        assert_matches(g, &[("chan_busy_ps", array(&busy))], &what);
        let writes = g
            .get("chan_writes")
            .and_then(Json::as_arr)
            .expect("chan_writes");
        let total: f64 = writes.iter().filter_map(Json::as_f64).sum();
        let spans = agg.span_total("spin", "dma_chan").map_or(0, |(n, _)| n);
        assert_eq!(spans as f64, total, "{what}: dma_chan span count");

        let mut hist_exp = c.exp.clone();
        hist_exp.record_dma_history = true;
        let recorded = hist_exp.run(c.strategy);
        let what = format!("{}, history recording", c.name);
        assert_matches(g, &scalars(&recorded), &what);
        assert_matches(g, &engine_busy(&recorded), &what);
        assert_matches(g, &history(&recorded), &what);

        if faulty {
            // Capture into a ring far too small to hold the run: the
            // counts come from the handler, not the trace.
            let mut small = c.exp.clone();
            let (tel, ring) = Telemetry::ring(64);
            small.telemetry = tel;
            let r = small.run(c.strategy);
            assert!(ring.dropped() > 0, "{}: the ring must overflow", c.name);
            let what = format!("{}, overflowing ring", c.name);
            assert_matches(g, &scalars(&r), &what);
            assert_matches(g, &engine_busy(&r), &what);
        }
    }
    assert!(checked > 0);
}

#[test]
fn eager_dma_matches_event_driven_engine() {
    check_against_golden(false);
}

#[test]
fn eager_dma_matches_event_driven_engine_under_faults() {
    check_against_golden(true);
    // The mix must exercise recovery, or the fault half pins nothing:
    // `rel[1]` counts retransmissions, `recovery[1]` catch-up blocks.
    let golden = golden_cases();
    let total = |key: &str, i: usize| -> f64 {
        golden
            .iter()
            .filter_map(|g| g.get(key)?.as_arr()?.get(i)?.as_f64())
            .sum()
    };
    assert!(
        total("rel", 1) > 0.0,
        "the mix must make the sender retransmit"
    );
    assert!(total("recovery", 1) > 0.0, "HPU-local must catch up");
}

/// Not a test: rewrites the golden from the current engine, with ring
/// capture and history recording on. Run explicitly via
/// `cargo test --test dma_engine_equiv -- --ignored regenerate_golden_dma_engine`.
#[test]
#[ignore]
fn regenerate_golden_dma_engine() {
    let lines: Vec<String> = cases()
        .iter()
        .map(|c| format!("    {}", render(&observe_all(c))))
        .collect();
    let text = format!(
        "{{\n  \"kind\": \"ncmt-dma-engine-golden\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    );
    std::fs::write(repo_path(GOLDEN), text).expect("write golden");
}
