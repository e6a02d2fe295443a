//! Host-side DDT pack/unpack comparison: the dataloop/kernels engine
//! against a naive manual copy that walks the typemap one elementary
//! element at a time (the "loop over MPI_DOUBLEs" a hand-rolled
//! application copy would do). The modeled times come from the
//! deterministic [`HostCostModel`], so the artifact is bit-reproducible
//! and lives as a golden under `tests/golden/`.
//!
//! Each row checks that the engine's receive image is the one the
//! manual copy would build, by typemap rather than over the span. The
//! engine unpacks into a zeroed arena image
//! ([`nca_spin::handler::unpack_recorded`]) through `DirectDst`'s
//! recorder, the one every NIC write goes through, so the image lists
//! the extents written into it; the manual path walks the typemap into
//! a run list without copying anything.
//! [`nca_ddt::typemap::typemap_verdict`], the verdict traffic landings
//! use too, then compares the image's own runs (sorted and merged in
//! place) with the typemap's, and the written bytes with the packed
//! stream. No gap byte is read and no second image is built, so a
//! sparse type pays for its message and for the pages it writes, not for
//! its span (NAS-MG/d's 512 KiB message spans 255 MiB). Its doc comment
//! says why this equals comparing the engine's image with a manually
//! filled one byte for byte. Dropping the image re-zeroes only those
//! runs and pools it in the worker's arena, so a later row on that
//! worker, or a later run on the thread that is a `Pool`'s worker 0,
//! reuses storage whose pages are already faulted in.

use std::fmt::Write;
use std::sync::Arc;

use nca_core::costmodel::HostCostModel;
use nca_ddt::dataloop::compile_cached;
use nca_ddt::pack::{buffer_span, pack_pattern};
use nca_ddt::typemap::{for_each_block, typemap_verdict};
use nca_ddt::Datatype;
use nca_sim::Pool;
use nca_spin::handler::unpack_recorded;
use nca_workloads::apps::all_workloads;

use nca_telemetry::report::{esc, fmt_f64};

/// One application workload compared across the two unpack paths.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Workload label, e.g. `MILC/b`.
    pub label: String,
    /// Datatype constructor class.
    pub class: &'static str,
    /// Packed message size in bytes.
    pub msg_bytes: u64,
    /// Contiguous regions after dataloop merging (the engine's copies).
    pub blocks: u64,
    /// Elementary typemap entries (the manual path's copies).
    pub elements: u64,
    /// Engine and manual unpack produce identical receive buffers.
    /// Decided by typemap, not over the span: the image came all-zero
    /// from the arena and the recorder wrote exactly the typemap's
    /// extents into it, so every gap is still zero, and those extents
    /// hold the packed stream, which is what the manual copy puts there.
    pub byte_exact: bool,
    /// Modeled engine unpack time (ps): one copy per merged block.
    pub engine_ps: u64,
    /// Modeled manual unpack time (ps): one copy per element.
    pub manual_ps: u64,
    /// Engine throughput (Gbit/s) at the modeled time.
    pub engine_gbit: f64,
    /// Manual-copy throughput (Gbit/s) at the modeled time.
    pub manual_gbit: f64,
    /// Throughput ratio engine/manual (= `manual_ps / engine_ps`).
    pub ratio: f64,
}

/// Artifact of the `ddt-host-compare` scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DdtCompareDoc {
    /// Schema version ([`DdtCompareDoc::VERSION`]).
    pub version: u64,
    /// One row per application workload, figure order.
    pub rows: Vec<CompareRow>,
}

impl DdtCompareDoc {
    /// `kind` tag of the JSON document.
    pub const KIND: &'static str = "ncmt-ddt-compare";
    /// Current schema version.
    pub const VERSION: u64 = 1;

    /// Render the document as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"kind\": \"{}\",", Self::KIND);
        let _ = writeln!(o, "  \"version\": {},", self.version);
        o.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(o, "    {{");
            let _ = writeln!(o, "      \"label\": \"{}\",", esc(&r.label));
            let _ = writeln!(o, "      \"class\": \"{}\",", esc(r.class));
            let _ = writeln!(o, "      \"msg_bytes\": {},", r.msg_bytes);
            let _ = writeln!(o, "      \"blocks\": {},", r.blocks);
            let _ = writeln!(o, "      \"elements\": {},", r.elements);
            let _ = writeln!(o, "      \"byte_exact\": {},", r.byte_exact);
            let _ = writeln!(o, "      \"engine_ps\": {},", r.engine_ps);
            let _ = writeln!(o, "      \"manual_ps\": {},", r.manual_ps);
            let _ = writeln!(o, "      \"engine_gbit\": {},", fmt_f64(r.engine_gbit));
            let _ = writeln!(o, "      \"manual_gbit\": {},", fmt_f64(r.manual_gbit));
            let _ = writeln!(o, "      \"ratio\": {}", fmt_f64(r.ratio));
            let _ = writeln!(
                o,
                "    }}{}",
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        o.push_str("  ]\n}\n");
        o
    }
}

fn throughput_gbit(bytes: u64, ps: u64) -> f64 {
    if ps == 0 {
        return 0.0;
    }
    // bits / (ps · 1e-12 s) / 1e9 = bytes · 8000 / ps
    bytes as f64 * 8000.0 / ps as f64
}

/// The typemap's extents `(buf_off, len)` in stream order. An extent
/// that starts where the previous one ends is merged into it, as the
/// arena's recorder merges the engine's writes.
type Runs = Vec<(i64, u64)>;

/// Append `[off, off + len)` to `runs`; a zero-length write records
/// nothing.
fn push_run(runs: &mut Runs, off: i64, len: u64) {
    if len == 0 {
        return;
    }
    match runs.last_mut() {
        Some((at, n)) if *at + *n as i64 == off => *n += len,
        _ => runs.push((off, len)),
    }
}

/// The manual path: walk the typemap leaf by leaf, one elementary
/// element at a time (no block merging, no vectorized kernels; what the
/// modeled cost charges for is the per-element dispatch, counted in
/// `elements`), and merge the elements into runs as the recorder does.
fn typemap_runs(dt: &Datatype, count: u32) -> (Runs, u64) {
    let (mut runs, mut elements) = (Runs::new(), 0u64);
    for_each_block(dt, count, |off, len| {
        elements += 1;
        push_run(&mut runs, off, len);
    });
    (runs, elements)
}

fn compare_row(w: &nca_workloads::AppWorkload) -> CompareRow {
    let (origin, span) = buffer_span(&w.dt, w.count);
    let packed = pack_pattern(&w.dt, w.count);
    let dl = compile_cached(&w.dt, w.count);
    // The engine path: `nca_ddt::pack::unpack`'s walk into a zeroed
    // arena image, through the recorder every NIC write uses.
    let mut image = unpack_recorded(Arc::clone(&dl), &packed, origin, span);
    let (typemap, elements) = typemap_runs(&w.dt, w.count);
    let (bytes, written) = image
        .merged_written()
        .expect("the host unpack writes only through the recorder");
    let byte_exact = typemap_verdict(bytes, origin, written, &typemap, &packed);

    let model = HostCostModel::default();
    let engine_ps = model.unpack_time(dl.size, dl.blocks);
    let manual_ps = model.unpack_time(dl.size, elements);
    CompareRow {
        label: w.label(),
        class: w.ddt_class,
        msg_bytes: dl.size,
        blocks: dl.blocks,
        elements,
        byte_exact,
        engine_ps,
        manual_ps,
        engine_gbit: throughput_gbit(dl.size, engine_ps),
        manual_gbit: throughput_gbit(dl.size, manual_ps),
        ratio: manual_ps as f64 / engine_ps as f64,
    }
}

/// Compare every application workload of at most `max_kib` KiB
/// (`None` keeps all). Rows run as independent pool jobs and come back
/// in figure order, so the artifact is byte-identical at any job count.
pub fn rows_filtered(max_kib: Option<u64>, pool: &Pool) -> Vec<CompareRow> {
    let workloads: Vec<_> = all_workloads()
        .into_iter()
        .filter(|w| max_kib.is_none_or(|kib| w.msg_bytes() <= kib << 10))
        .collect();
    pool.par_map(workloads, |_, w| compare_row(&w))
}

/// The human table for a set of rows (tab-separated like the figures).
pub fn render(rows: &[CompareRow]) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# DDT host unpack — dataloop/kernels engine vs element-wise manual copy"
    );
    let _ = writeln!(
        o,
        "workload\tclass\tsize_kib\tblocks\telements\tengine_us\tmanual_us\tengine_gbit\tmanual_gbit\tratio\texact"
    );
    for r in rows {
        let _ = writeln!(
            o,
            "{}\t{}\t{:.1}\t{}\t{}\t{:.3}\t{:.3}\t{:.2}\t{:.2}\t{:.2}\t{}",
            r.label,
            r.class,
            r.msg_bytes as f64 / 1024.0,
            r.blocks,
            r.elements,
            r.engine_ps as f64 / 1e6,
            r.manual_ps as f64 / 1e6,
            r.engine_gbit,
            r.manual_gbit,
            r.ratio,
            if r.byte_exact { "yes" } else { "NO" }
        );
    }
    let n = rows.len().max(1) as f64;
    let mean = rows.iter().map(|r| r.ratio).sum::<f64>() / n;
    let _ = writeln!(o, "# mean manual/engine time ratio: {mean:.2}x");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_workloads::AppWorkload;

    /// The reference verdict: the engine's image as `compare_row` takes
    /// it (an arena buffer, warm after earlier rows), compared over the
    /// whole span with a second image that a copy of the packed stream,
    /// element by element, filled. The only check here that reads gaps,
    /// so it is what catches a dirty pooled buffer.
    fn two_image_verdict(w: &AppWorkload) -> bool {
        let (origin, span) = buffer_span(&w.dt, w.count);
        let packed = pack_pattern(&w.dt, w.count);
        let engine = unpack_recorded(compile_cached(&w.dt, w.count), &packed, origin, span);
        let mut manual_dst = vec![0u8; span as usize];
        let mut cursor = 0usize;
        for_each_block(&w.dt, w.count, |off, len| {
            let at = (off - origin) as usize;
            let len = len as usize;
            manual_dst[at..at + len].copy_from_slice(&packed[cursor..cursor + len]);
            cursor += len;
        });
        engine == manual_dst
    }

    #[test]
    fn engine_and_manual_unpack_agree_on_every_workload() {
        let workloads: Vec<_> = all_workloads()
            .into_iter()
            .filter(|w| w.msg_bytes() <= 512 << 10)
            .collect();
        assert!(!workloads.is_empty());
        // The second pass runs every row on buffers the first pooled.
        for pass in 0..2 {
            for w in &workloads {
                let r = compare_row(w);
                assert_eq!(
                    r.byte_exact,
                    two_image_verdict(w),
                    "{} (pass {pass}): typemap verdict differs from the two-image compare",
                    r.label
                );
                assert!(r.byte_exact, "{}: engine vs manual mismatch", r.label);
                assert!(
                    r.elements >= r.blocks,
                    "{}: merging cannot create blocks",
                    r.label
                );
                assert!(r.ratio >= 1.0, "{}: manual path cannot be faster", r.label);
            }
        }
    }

    #[test]
    fn no_app_typemap_overlaps() {
        let workloads = all_workloads();
        assert!(!workloads.is_empty());
        for w in &workloads {
            let (mut runs, _) = typemap_runs(&w.dt, w.count);
            runs.sort_unstable();
            for pair in runs.windows(2) {
                let ((a, len), (b, _)) = (pair[0], pair[1]);
                assert!(a + len as i64 <= b, "{}: extents overlap at {b}", w.label());
            }
        }
    }

    #[test]
    fn doc_round_trips_through_the_json_parser() {
        let doc = DdtCompareDoc {
            version: DdtCompareDoc::VERSION,
            rows: rows_filtered(Some(64), &Pool::serial()),
        };
        let v = nca_telemetry::report::Json::parse(&doc.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("kind").and_then(nca_telemetry::report::Json::as_str),
            Some(DdtCompareDoc::KIND)
        );
        let rows = v
            .get("rows")
            .and_then(nca_telemetry::report::Json::as_arr)
            .expect("rows array");
        assert_eq!(rows.len(), doc.rows.len());
    }
}
