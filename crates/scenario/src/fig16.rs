//! Fig. 16 — message-processing-time speedup over host-based unpacking
//! for the thirteen application DDTs, for RW-CP, specialized handlers,
//! and the Portals 4 iovec baseline; annotated with γ, the host baseline
//! time T, the message size S, and the data moved to the NIC.
//!
//! `ncmt_cli run scenarios/fig16.json` renders the quick table (messages
//! up to 512 KiB); `--set 'workload={"kind":"apps"}'` renders all
//! thirteen workloads.

use std::fmt::Write;

use nca_core::runner::{Experiment, Strategy};
use nca_sim::Pool;
use nca_spin::params::NicParams;
use nca_workloads::apps::all_workloads;

/// One application/input row.
pub struct Row {
    /// e.g. `MILC/b`.
    pub label: String,
    /// Datatype constructor class.
    pub class: &'static str,
    /// Average regions per packet.
    pub gamma: f64,
    /// Host baseline message processing time (ms) — the figure's `T`.
    pub host_ms: f64,
    /// Message size in KiB — the figure's `S`.
    pub size_kib: f64,
    /// Speedups over host: RW-CP, Specialized, Portals-4 iovec.
    pub speedup: [f64; 3],
    /// Data moved to the NIC (KiB): RW-CP, Specialized, iovec.
    pub nic_kib: [f64; 3],
}

/// Compute the figure keeping only messages of at most `max_kib` KiB
/// (`None` keeps all thirteen workloads). Workload experiments are
/// independent and deterministic; `pool` bounds the concurrency and
/// results keep figure order.
pub fn rows_filtered(max_kib: Option<u64>, pool: &Pool) -> Vec<Row> {
    let workloads: Vec<_> = all_workloads()
        .into_iter()
        .filter(|w| max_kib.is_none_or(|kib| w.msg_bytes() <= kib << 10))
        .collect();
    pool.par_map(workloads, |_, w| compute_row(&w))
}

fn compute_row(w: &nca_workloads::AppWorkload) -> Row {
    let params = NicParams::with_hpus(16);
    let mut exp = Experiment::new(w.dt.clone(), w.count, params);
    exp.verify = false;
    let host = exp.run_host();
    let iovec = exp.run_iovec();
    // Keep only what the row needs, so each run's receive buffer (a full
    // span image, 255 MiB for NAS-MG/d) returns to the worker's arena,
    // re-zeroed over the extents the run wrote, before the next run
    // takes it again.
    let run = |s| {
        let r = exp.run(s);
        (r.processing_time() as f64, r.nic_mem_bytes as f64 / 1024.0)
    };
    let (rwcp_t, rwcp_kib) = run(Strategy::RwCp);
    let (spec_t, spec_kib) = run(Strategy::Specialized);
    let host_t = host.processing_time as f64;
    Row {
        label: w.label(),
        class: w.ddt_class,
        gamma: w.gamma(2048),
        host_ms: host_t / 1e9,
        size_kib: w.msg_bytes() as f64 / 1024.0,
        speedup: [
            host_t / rwcp_t,
            host_t / spec_t,
            host_t / iovec.processing_time as f64,
        ],
        nic_kib: [rwcp_kib, spec_kib, iovec.nic_bytes as f64 / 1024.0],
    }
}

/// The figure table as a string — what the `fig16` scenario prints and
/// writes as its artifact (so the file and the stdout are
/// byte-identical).
pub fn render(max_kib: Option<u64>, pool: &Pool) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Fig. 16 — speedup over host-based unpacking (13 app DDTs)"
    );
    let _ = writeln!(o, "app\tclass\tgamma\tT_host_ms\tS_kib\tRW-CP\tSpecialized\tPortals4-iovec\tnic_rwcp_kib\tnic_spec_kib\tnic_iovec_kib");
    let rows = rows_filtered(max_kib, pool);
    for r in &rows {
        let _ = writeln!(
            o,
            "{}\t{}\t{:.1}\t{:.3}\t{:.1}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            r.label,
            r.class,
            r.gamma,
            r.host_ms,
            r.size_kib,
            r.speedup[0],
            r.speedup[1],
            r.speedup[2],
            r.nic_kib[0],
            r.nic_kib[1],
            r.nic_kib[2]
        );
    }
    let best = rows
        .iter()
        .map(|r| r.speedup[0].max(r.speedup[1]))
        .fold(0.0f64, f64::max);
    let _ = writeln!(o, "# max offload speedup: {best:.1}x (paper: up to ~12x)");
    o
}
