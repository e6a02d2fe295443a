//! Host-side DDT pack/unpack comparison: the dataloop/kernels engine
//! against a naive manual copy that walks the typemap one elementary
//! element at a time (the "loop over MPI_DOUBLEs" a hand-rolled
//! application copy would do). Both paths must produce byte-identical
//! receive buffers; the modeled times come from the deterministic
//! [`HostCostModel`], so the artifact is bit-reproducible and lives as
//! a golden under `tests/golden/`.

use std::fmt::Write;

use nca_core::costmodel::HostCostModel;
use nca_ddt::dataloop::compile_cached;
use nca_ddt::pack::{buffer_span, pack_pattern, unpack};
use nca_ddt::typemap::for_each_block;
use nca_sim::Pool;
use nca_workloads::apps::all_workloads;

use crate::schema::{esc, fmt_f64};

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
    /// Engine and manual unpack produced identical receive buffers.
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

fn compare_row(w: &nca_workloads::AppWorkload) -> CompareRow {
    let (origin, span) = buffer_span(&w.dt, w.count);
    let packed = pack_pattern(&w.dt, w.count);
    let mut engine_dst = vec![0u8; span as usize];
    unpack(&w.dt, w.count, &packed, &mut engine_dst, origin).expect("app datatypes unpack");

    // The manual path: walk the typemap leaf by leaf and copy one
    // elementary element at a time from the packed stream — no block
    // merging, no vectorized kernels. (The copies themselves use
    // copy_from_slice; what the modeled cost charges for is the
    // per-element dispatch, counted in `elements`.)
    let mut manual_dst = vec![0u8; span as usize];
    let mut cursor = 0usize;
    let mut elements = 0u64;
    for_each_block(&w.dt, w.count, |off, len| {
        elements += 1;
        let at = (off - origin) as usize;
        let len = len as usize;
        manual_dst[at..at + len].copy_from_slice(&packed[cursor..cursor + len]);
        cursor += len;
    });

    let dl = compile_cached(&w.dt, w.count);
    let model = HostCostModel::default();
    let engine_ps = model.unpack_time(dl.size, dl.blocks);
    let manual_ps = model.unpack_time(dl.size, elements);
    CompareRow {
        label: w.label(),
        class: w.ddt_class,
        msg_bytes: dl.size,
        blocks: dl.blocks,
        elements,
        byte_exact: engine_dst == manual_dst,
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

    #[test]
    fn engine_and_manual_unpack_agree_on_every_workload() {
        let rows = rows_filtered(Some(512), &Pool::serial());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.byte_exact, "{}: engine vs manual mismatch", r.label);
            assert!(
                r.elements >= r.blocks,
                "{}: merging cannot create blocks",
                r.label
            );
            assert!(r.ratio >= 1.0, "{}: manual path cannot be faster", r.label);
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
