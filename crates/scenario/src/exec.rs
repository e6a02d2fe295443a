//! Compile a parsed [`Scenario`] into a concrete [`Plan`] and run it
//! on a worker [`Pool`]. The run functions here are the implementation
//! behind `ncmt_cli run <scenario.json>`; at any `--jobs` value every
//! grid comes back in serial job order, so the printed tables and
//! written artifacts are byte-identical. [`Scenario::compile`] refuses,
//! with a path-qualified error, keys a kind would ignore (telemetry
//! keys; a `sweep` outside a fault sweep; on traffic, nonzero fault
//! rates and non-default `scheduling.epsilon`, `copies` and
//! `out_of_order`; on a fault sweep, non-default `scheduling.epsilon`
//! and `out_of_order`; on fig16 and ddt-host-compare, any non-default
//! `faults` or `scheduling` field) and inputs a run could not finish:
//! receive spans over 1 GiB, more than 1024 tenants, more than 2^16 RSS
//! slots, a horizon past the 64-bit picosecond clock, and traffic cells
//! expecting more than 2^21 offers or 2^20 streaming buckets. A strategy run refuses, once it knows its own
//! length, a trace whose counter tracks would fold more than 2^22
//! time-series cells.

use std::fmt::Write;

use nca_core::report::{report_config, strategy_report, UTILIZATION_BUCKET_PS};
use nca_core::runner::{Experiment, Strategy};
use nca_core::sweep::{cell_ok, fault_sweep, FaultSweepSpec};
use nca_ddt::normalize::classify;
use nca_ddt::types::{elem, Datatype, DatatypeExt};
use nca_sim::{FaultSpec, Pool};
use nca_spin::params::NicParams;
use nca_telemetry::report::{FaultSweepDoc, RunReportDoc};
use nca_telemetry::streaming::series_cells;
use nca_telemetry::{export, StreamAggregate};
use nca_traffic::{app_group, mean_mix_wire_ps, traffic_sweep, TrafficSweepSpec};
use nca_workloads::apps;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ddt_compare::{self, DdtCompareDoc};
use crate::fig16;
use crate::schema::{FaultsSpec, Scenario, ScenarioKind, SchedulingSpec, SweepSpec, WorkloadSpec};

/// What the caller wants out of a run beyond the table.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Export a Chrome/Perfetto trace (strategy runs only).
    pub want_trace: bool,
    /// Build the machine-readable artifact document.
    pub want_report: bool,
}

/// A produced artifact plus the stdout line announcing where it went;
/// `line` contains a literal `{path}` the CLI substitutes once it
/// knows the output file.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub text: String,
    pub line: String,
}

/// Everything one scenario run produced, ready for the CLI to print,
/// write and turn into an exit status.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The human table (everything printed before any artifact
    /// announcement).
    pub stdout: String,
    /// Non-fatal warning for stderr (e.g. dropped trace events).
    pub warn: Option<String>,
    /// Perfetto trace, when requested.
    pub trace: Option<Artifact>,
    /// The machine-readable document, when requested.
    pub artifact: Option<Artifact>,
    /// Trailing success line, printed only when `fail` is `None`.
    pub verdict: Option<String>,
    /// Failure message for stderr; its presence means exit status 1.
    pub fail: Option<String>,
    /// A path-qualified refusal of an input the run could not honour
    /// (a trace bucket width too fine for its run): nothing is printed
    /// or written, and the exit status is 2.
    pub refused: Option<String>,
}

/// A single-datatype strategy run, fully resolved.
#[derive(Debug, Clone)]
pub struct StrategyPlan {
    pub dt: Datatype,
    pub copies: u32,
    /// Extra leading stdout line for app workloads
    /// (`workload : MILC/b (vector(vector))`).
    pub workload_line: Option<String>,
    pub hpus: usize,
    pub epsilon: f64,
    pub out_of_order: Option<u64>,
    pub faults: FaultSpec,
    /// The `--trace-out` ring's capacity in events; `None` falls back to
    /// a 4 Mi-event ring. Nothing else captures.
    pub ring_capacity: Option<usize>,
    /// Bucket width of the trace's counter tracks; `None` falls back to
    /// [`UTILIZATION_BUCKET_PS`].
    pub bucket_ps: Option<u64>,
}

/// A compiled scenario: concrete simulator specs, ready to run.
pub enum Plan {
    Strategy(StrategyPlan),
    FaultSweep(FaultSweepSpec),
    Traffic(TrafficSweepSpec),
    Fig16 { max_kib: Option<u64> },
    DdtCompare { max_kib: Option<u64> },
}

impl std::fmt::Debug for Plan {
    // Compact: the inner specs carry whole datatype trees.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Plan::Strategy(_) => "Plan::Strategy",
            Plan::FaultSweep(_) => "Plan::FaultSweep",
            Plan::Traffic(_) => "Plan::Traffic",
            Plan::Fig16 { .. } => "Plan::Fig16",
            Plan::DdtCompare { .. } => "Plan::DdtCompare",
        })
    }
}

/// Largest receive span, in bytes, a vector or indexed workload may
/// ask for: 2048× the largest such workload a shipped scenario, CI job
/// or benchmark runs (the 2048×16/32 vector, 512 KiB), and 4× the
/// largest application span (NAS-MG/d, 255 MiB).
const MAX_SPAN_BYTES: u64 = 1 << 30;

/// Most tenants one traffic cell may run: 256× the nightly soak's 4.
const MAX_TENANTS: u64 = 1 << 10;

/// Most offers one traffic cell may expect (load × horizon ÷ the mix's
/// mean wire time): 23× the nightly soak's busiest cell (COMB/b at load
/// 2.0 over 2 ms, about 91k offers).
const MAX_CELL_OFFERS: f64 = (1u64 << 21) as f64;

/// Most RSS indirection-table slots: 1024× the default 64.
const MAX_RSS_ENTRIES: u64 = 1 << 16;

/// Most HPUs a scenario may configure: 32× Fig. 13's largest (32).
const MAX_HPUS: u64 = 1 << 10;

/// Most (seed, scale) cells one fault sweep may run: 42× the nightly
/// sweep's 96 (32 seeds × 3 scales).
const MAX_SWEEP_CELLS: u128 = 1 << 12;

/// Most streaming time-series buckets one traffic cell may need
/// (horizon ÷ `telemetry.bucket_ps`): 524× the nightly soak's 2000
/// (2 ms at the default 1 µs buckets). The sweep itself streams no
/// trace; this bounds what a caller streaming a cell at that width
/// allocates.
const MAX_CELL_BUCKETS: u64 = 1 << 20;

/// Events a strategy run's `--trace-out` ring holds when the scenario
/// names no `telemetry.ring_capacity`.
const DEFAULT_RING: usize = 1 << 22;

/// Most time-series cells (series × buckets, over all strategies) a
/// strategy-run trace's counter tracks may fold: [`DEFAULT_RING`], so
/// the counter tracks add at most as many samples as the default ring
/// holds events. The shipped strategy run needs 1,620 at the default
/// 1 µs buckets and 1.47 × 10^9 at 1 ps; a 2 MiB vector
/// (`workload.count=65536`) needs 24.7 × 10^6 at 1 µs.
const MAX_TRACE_CELLS: u128 = DEFAULT_RING as u128;

/// Reject a vector or indexed workload whose receive span, bounded
/// above by `copies × units × 8` bytes of doubles, exceeds
/// [`MAX_SPAN_BYTES`]. Runs before the datatype is built: building one
/// loops over every block, and its byte offsets wrap past `i64`.
fn check_span(units: u128, copies: u32) -> Result<(), String> {
    let span = units.saturating_mul(8).saturating_mul(copies as u128);
    if span > MAX_SPAN_BYTES as u128 {
        return Err(format!(
            "scenario.workload: a receive span of up to {span} bytes exceeds the \
             bound of {MAX_SPAN_BYTES} bytes"
        ));
    }
    Ok(())
}

/// Resolve a single-datatype workload section into `(dt, copies,
/// leading stdout line)`. `copies` multiplies vector/indexed datatypes;
/// app workloads carry their own repetition count.
fn resolve_single(
    w: &WorkloadSpec,
    copies: u32,
) -> Result<(Datatype, u32, Option<String>), String> {
    match w {
        WorkloadSpec::Vector {
            count,
            blocklen,
            stride,
        } => {
            let reach = (*count as u128).saturating_sub(1) * stride.unsigned_abs() as u128;
            check_span(reach + *blocklen as u128, copies)?;
            Ok((
                Datatype::vector(*count, *blocklen, *stride, &elem::double()),
                copies,
                None,
            ))
        }
        WorkloadSpec::Indexed {
            blocks,
            blocklen,
            seed,
        } => {
            // Fixed-size blocks at seeded random offsets with 1–4
            // element gaps, so the span is under blocks × (blocklen + 4).
            check_span(*blocks as u128 * (*blocklen as u128 + 4), copies)?;
            let mut rng = StdRng::seed_from_u64(*seed);
            let mut displs = Vec::with_capacity(*blocks as usize);
            let mut at = 0i64;
            for _ in 0..*blocks {
                displs.push(at);
                at += *blocklen as i64 + rng.random_range(1..=4i64);
            }
            let dt = Datatype::indexed_block(*blocklen, &displs, &elem::double())
                .map_err(|e| format!("scenario.workload: {e}"))?;
            Ok((dt, copies, None))
        }
        WorkloadSpec::App { label } => {
            let w = apps::by_label(label)
                .ok_or_else(|| format!("scenario.workload.label: unknown workload {label}"))?;
            let line = format!("workload : {} ({})", w.label(), w.ddt_class);
            Ok((w.dt.clone(), w.count, Some(line)))
        }
        WorkloadSpec::Apps { .. } => Err(
            "scenario.workload: this scenario kind needs a single workload \
             (vector, indexed or app)"
                .to_string(),
        ),
    }
}

impl Scenario {
    /// Compile the scenario into a concrete [`Plan`], validating the
    /// section combination (e.g. a `traffic` section is only legal on
    /// a traffic scenario, a fault sweep needs nonzero fault rates).
    pub fn compile(&self) -> Result<Plan, String> {
        if self.traffic.is_some() && self.kind != ScenarioKind::Traffic {
            return Err(
                "scenario.traffic: only traffic scenarios use a traffic section".to_string(),
            );
        }
        let t = &self.telemetry;
        let ignored = match self.kind {
            ScenarioKind::StrategyRun => None,
            _ if t.ring_capacity.is_some() => Some(
                "ring_capacity: only strategy-run scenarios record a trace ring (for --trace-out)",
            ),
            ScenarioKind::Traffic => None,
            _ => t
                .bucket_ps
                .map(|_| "bucket_ps: only strategy-run and traffic scenarios bucket time series"),
        };
        if let Some(why) = ignored {
            return Err(format!("scenario.telemetry.{why}"));
        }
        if self.kind != ScenarioKind::FaultSweep && self.sweep != SweepSpec::default() {
            return Err(format!(
                "scenario.sweep: only fault-sweep scenarios run a seed × scale grid; \
                 {} scenarios ignore it",
                self.kind.label()
            ));
        }
        if self.scheduling.hpus > MAX_HPUS {
            return Err(format!(
                "scenario.scheduling.hpus: {} HPUs exceed the bound of {MAX_HPUS}",
                self.scheduling.hpus
            ));
        }
        let base = FaultSpec {
            drop: self.faults.drop,
            duplicate: self.faults.duplicate,
            corrupt: self.faults.corrupt,
            reorder_window: self.faults.reorder_ns * 1_000,
            seed: self.faults.seed,
        };
        match self.kind {
            ScenarioKind::StrategyRun => {
                let w = self
                    .workload
                    .as_ref()
                    .ok_or("scenario.workload: strategy-run scenarios need a workload section")?;
                let (dt, copies, workload_line) = resolve_single(w, self.scheduling.copies)?;
                Ok(Plan::Strategy(StrategyPlan {
                    dt,
                    copies,
                    workload_line,
                    hpus: self.scheduling.hpus as usize,
                    epsilon: self.scheduling.epsilon,
                    out_of_order: self.scheduling.out_of_order,
                    faults: base,
                    ring_capacity: self.telemetry.ring_capacity.map(|v| v as usize),
                    bucket_ps: self.telemetry.bucket_ps,
                }))
            }
            ScenarioKind::FaultSweep => {
                if self.faults.is_inert() {
                    return Err("scenario.faults: fault-sweep needs at least one nonzero \
                                fault rate (drop/duplicate/corrupt/reorder_ns)"
                        .to_string());
                }
                // The cells commit at the default ε and reorder packets
                // only through `faults.reorder_ns`. `faults.seed` stays
                // legal: the cells take their seeds from `sweep.seed0`.
                let fixed = SchedulingSpec::default();
                if self.scheduling.epsilon != fixed.epsilon {
                    return Err(format!(
                        "scenario.scheduling.epsilon: fault-sweep cells commit their \
                         checkpointed strategies at the default ε = {}",
                        fixed.epsilon
                    ));
                }
                if self.scheduling.out_of_order.is_some() {
                    return Err("scenario.scheduling.out_of_order: fault-sweep cells \
                                reorder packets only through faults.reorder_ns"
                        .to_string());
                }
                let cells = self.sweep.seeds as u128 * self.sweep.scales.len() as u128;
                if cells > MAX_SWEEP_CELLS {
                    return Err(format!(
                        "scenario.sweep: {} seeds × {} scales make {cells} cells, above \
                         the bound of {MAX_SWEEP_CELLS}",
                        self.sweep.seeds,
                        self.sweep.scales.len()
                    ));
                }
                let w = self
                    .workload
                    .as_ref()
                    .ok_or("scenario.workload: fault-sweep scenarios need a workload section")?;
                let (dt, count, _) = resolve_single(w, self.scheduling.copies)?;
                Ok(Plan::FaultSweep(FaultSweepSpec {
                    dt,
                    count,
                    params: NicParams::with_hpus(self.scheduling.hpus as usize),
                    base,
                    seed0: self.sweep.seed0,
                    seeds: self.sweep.seeds,
                    scales: self.sweep.scales.clone(),
                    ring_capacity: 1 << 20,
                }))
            }
            ScenarioKind::Traffic => {
                if self.workload.is_some() {
                    return Err(
                        "scenario.workload: traffic scenarios take their mixes from \
                                the traffic section, not a workload"
                            .to_string(),
                    );
                }
                // Keys a traffic cell would ignore: its losses are
                // admission rejections, each message's packets arrive in
                // wire order, its mixes fix every datatype and count,
                // and its cells commit at the default ε.
                if !self.faults.is_inert() {
                    return Err("scenario.faults: traffic scenarios inject no network \
                                faults (overload shows as admission rejections)"
                        .to_string());
                }
                let fixed = SchedulingSpec::default();
                if self.scheduling.epsilon != fixed.epsilon {
                    return Err(format!(
                        "scenario.scheduling.epsilon: traffic cells commit their \
                         checkpointed strategies at the default ε = {}",
                        fixed.epsilon
                    ));
                }
                if self.scheduling.copies != fixed.copies {
                    return Err("scenario.scheduling.copies: traffic scenarios take each \
                                message's datatype and count from the traffic mixes"
                        .to_string());
                }
                if self.scheduling.out_of_order.is_some() {
                    return Err("scenario.scheduling.out_of_order: traffic scenarios \
                                deliver each message's packets in wire order"
                        .to_string());
                }
                let t = self.traffic.clone().unwrap_or_default();
                if t.tenants > MAX_TENANTS {
                    return Err(format!(
                        "scenario.traffic.tenants: {} tenants exceed the bound of {MAX_TENANTS}",
                        t.tenants
                    ));
                }
                if t.rss_entries > MAX_RSS_ENTRIES {
                    return Err(format!(
                        "scenario.traffic.rss_entries: {} slots exceed the bound of \
                         {MAX_RSS_ENTRIES}",
                        t.rss_entries
                    ));
                }
                let mut spec = TrafficSweepSpec::new(t.seed);
                if let Some(b) = self.telemetry.bucket_ps {
                    spec.stream_bucket_ps = b;
                }
                spec.horizon_ps = t.horizon_us.checked_mul(1_000_000).ok_or_else(|| {
                    format!(
                        "scenario.traffic.horizon_us: {} us overflows the 64-bit \
                         picosecond clock",
                        t.horizon_us
                    )
                })?;
                let buckets = spec.horizon_ps / spec.stream_bucket_ps;
                if buckets > MAX_CELL_BUCKETS {
                    return Err(format!(
                        "scenario.traffic.horizon_us: {} us at {} ps per telemetry bucket \
                         needs {buckets} streaming buckets per cell, above the bound of \
                         {MAX_CELL_BUCKETS} (raise telemetry.bucket_ps)",
                        t.horizon_us, spec.stream_bucket_ps
                    ));
                }
                let params = NicParams::with_hpus(self.scheduling.hpus as usize);
                for app in &t.apps {
                    let mix = app_group(app).ok_or_else(|| {
                        format!("scenario.traffic.apps: unknown application mix {app:?}")
                    })?;
                    let wire_ps = mean_mix_wire_ps(&params, &mix);
                    for (i, load) in t.loads.iter().enumerate() {
                        let offers = load * t.horizon_us as f64 * 1e6 / wire_ps;
                        if offers.is_nan() || offers > MAX_CELL_OFFERS {
                            return Err(format!(
                                "scenario.traffic.loads[{i}]: load {load} of {app} over {} us \
                                 expects {offers:.3e} offers per cell, above the bound of \
                                 {MAX_CELL_OFFERS}",
                                t.horizon_us
                            ));
                        }
                    }
                }
                spec.apps = t.apps;
                spec.loads = t.loads;
                spec.disciplines = t.disciplines;
                spec.tenants = t.tenants as usize;
                spec.strategy = t.strategy;
                spec.arrival = t.arrival;
                spec.sigma = t.sigma;
                spec.flows_per_tenant = t.flows_per_tenant;
                spec.rss_entries = t.rss_entries as usize;
                spec.hpus = self.scheduling.hpus as usize;
                spec.pkt_buffer_bytes = t.buffer_kib.map(|k| k << 10);
                Ok(Plan::Traffic(spec))
            }
            ScenarioKind::Fig16 | ScenarioKind::DdtHostCompare => {
                // Fig. 16 receives every row losslessly on the paper's
                // 16-HPU NIC at the default ε and the workload's own
                // count; the host comparison runs no NIC at all.
                let (faults, scheduling) = if self.kind == ScenarioKind::Fig16 {
                    (
                        "fig16 scenarios receive every row over a lossless network",
                        "fig16 scenarios run every row on a 16-HPU NIC at the default ε, \
                         with the workload's own count and packets in wire order",
                    )
                } else {
                    (
                        "ddt-host-compare scenarios run no network",
                        "ddt-host-compare scenarios run no NIC",
                    )
                };
                if self.faults != FaultsSpec::default() {
                    return Err(format!("scenario.faults: {faults}"));
                }
                if let Some(key) = self.scheduling.changed_key() {
                    return Err(format!("scenario.scheduling.{key}: {scheduling}"));
                }
                let max_kib = match &self.workload {
                    None => None,
                    Some(WorkloadSpec::Apps { max_kib }) => *max_kib,
                    Some(_) => {
                        return Err(format!(
                            "scenario.workload: {} scenarios run the application set \
                             (use an `apps` workload or omit the section)",
                            self.kind.label()
                        ))
                    }
                };
                Ok(match self.kind {
                    ScenarioKind::Fig16 => Plan::Fig16 { max_kib },
                    _ => Plan::DdtCompare { max_kib },
                })
            }
        }
    }
}

impl Plan {
    /// Run the compiled plan on `pool`.
    pub fn run(&self, pool: &Pool, opts: &RunOptions) -> Outcome {
        match self {
            Plan::Strategy(plan) => run_strategy(plan, pool, opts),
            Plan::FaultSweep(spec) => run_fault_sweep(spec, pool),
            Plan::Traffic(spec) => run_traffic(spec, pool),
            Plan::Fig16 { max_kib } => {
                let table = fig16::render(*max_kib, pool);
                Outcome {
                    artifact: Some(Artifact {
                        text: table.clone(),
                        line: "\nfigure → {path}".to_string(),
                    }),
                    stdout: table,
                    ..Outcome::default()
                }
            }
            Plan::DdtCompare { max_kib } => run_ddt_compare(*max_kib, pool),
        }
    }
}

/// One datatype through every strategy plus the host and iovec
/// baselines (`kind: "strategy-run"`).
pub fn run_strategy(plan: &StrategyPlan, pool: &Pool, opts: &RunOptions) -> Outcome {
    // Only `--trace-out` reads a trace: per-strategy rings merged after
    // the barrier reproduce exactly what one shared ring would capture
    // from the serial loop; per-strategy scopes keep the runs apart.
    let capture = opts
        .want_trace
        .then(|| plan.ring_capacity.unwrap_or(DEFAULT_RING));

    let mut exp = Experiment::new(
        plan.dt.clone(),
        plan.copies,
        NicParams::with_hpus(plan.hpus),
    );
    exp.epsilon = plan.epsilon;
    exp.out_of_order = plan.out_of_order;
    exp.verify = plan.dt.size * plan.copies as u64 <= 16 << 20;
    exp.faults = plan.faults;
    let faulty = !exp.faults.is_inert();

    let mut o = String::new();
    if let Some(line) = &plan.workload_line {
        let _ = writeln!(o, "{line}");
    }
    let _ = writeln!(o, "datatype : {}", plan.dt.signature());
    let _ = writeln!(o, "shape    : {:?}", classify(&plan.dt));
    let _ = writeln!(
        o,
        "message  : {:.1} KiB in {} regions (gamma = {:.1}), {} HPUs{}",
        plan.dt.size as f64 * plan.copies as f64 / 1024.0,
        nca_ddt::dataloop::compile_cached(&plan.dt, plan.copies).blocks,
        exp.gamma(),
        plan.hpus,
        if plan.out_of_order.is_some() {
            ", out-of-order"
        } else {
            ""
        }
    );
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "{:<14} {:>12} {:>10} {:>12}",
        "method", "time (us)", "Gbit/s", "NIC KiB"
    );
    // All strategies run as independent pool jobs; rendering happens
    // after the barrier, in Strategy::ALL order, from the merged sweep.
    let sweep = exp.run_all_modeled(pool, capture);
    for (s, run) in &sweep.runs {
        let rel = if faulty {
            let r = &run.report.rel;
            format!(
                "  rtx {} drop {} dup {} corrupt {} fallback {}",
                r.retransmissions,
                r.drops_injected,
                r.dups_suppressed,
                r.corrupts_rejected,
                r.host_fallback_packets
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            o,
            "{:<14} {:>12.1} {:>10.1} {:>12.2}{}",
            s.label(),
            run.report.processing_time() as f64 / 1e6,
            run.report.throughput_gbit(),
            run.report.nic_mem_bytes as f64 / 1024.0,
            rel
        );
    }
    let host = exp.run_host();
    let _ = writeln!(
        o,
        "{:<14} {:>12.1} {:>10.1} {:>12.2}",
        "Host unpack",
        host.processing_time as f64 / 1e6,
        host.throughput_gbit(),
        0.0
    );
    let iov = exp.run_iovec();
    let _ = writeln!(
        o,
        "{:<14} {:>12.1} {:>10.1} {:>12.2}",
        "Portals iovec",
        iov.processing_time as f64 / 1e6,
        iov.throughput_gbit(),
        iov.nic_bytes as f64 / 1024.0
    );
    if exp.verify {
        let _ = writeln!(o, "\nreceive buffers byte-verified ✓");
    }

    let mut out = Outcome {
        stdout: o,
        ..Outcome::default()
    };
    if sweep.dropped > 0 {
        out.warn = Some(format!(
            "warning: trace ring dropped {} event(s); the exported trace is a \
             suffix of the run (see trace_dropped_events in the report)",
            sweep.dropped
        ));
    }
    let events = sweep.events;
    if opts.want_trace {
        // Counter tracks are folded here, at export, from each
        // strategy's slice of the ring.
        let bucket_ps = plan.bucket_ps.unwrap_or(UTILIZATION_BUCKET_PS);
        let cells = series_cells(&events, bucket_ps);
        if cells > MAX_TRACE_CELLS {
            out.refused = Some(format!(
                "scenario.telemetry.bucket_ps: {bucket_ps} ps buckets need {cells} trace \
                 counter-track cells for this run, above the bound of {MAX_TRACE_CELLS} \
                 (raise telemetry.bucket_ps)"
            ));
            return out;
        }
        let folds: Vec<(&str, StreamAggregate)> = sweep
            .runs
            .iter()
            .map(|(s, _)| {
                let mut agg = StreamAggregate::new(bucket_ps);
                for ev in events.iter().filter(|ev| ev.scope == s.label()) {
                    agg.fold(ev);
                }
                (s.label(), agg)
            })
            .collect();
        let aggs: Vec<(&str, &StreamAggregate)> = folds.iter().map(|(s, a)| (*s, a)).collect();
        out.trace = Some(Artifact {
            text: export::chrome_trace_json_with_aggregates(&events, &aggs),
            line: format!(
                "\ntrace    : {} events → {{path}} (Perfetto/chrome://tracing){}",
                events.len(),
                if sweep.dropped > 0 {
                    format!(", {} oldest dropped", sweep.dropped)
                } else {
                    String::new()
                }
            ),
        });
    }
    if opts.want_report {
        let doc = RunReportDoc {
            version: RunReportDoc::VERSION,
            trace_dropped_events: sweep.dropped,
            config: report_config(&exp),
            strategies: sweep
                .runs
                .iter()
                .map(|(_, run)| strategy_report(&exp, run))
                .collect(),
        };
        out.artifact = Some(Artifact {
            line: format!("report   : {} strategies → {{path}}", doc.strategies.len()),
            text: doc.to_json(),
        });
    }
    out
}

/// The seed × fault-scale matrix over all strategies, with its table
/// and `ncmt-fault-sweep` artifact.
pub fn run_fault_sweep(spec: &FaultSweepSpec, pool: &Pool) -> Outcome {
    let base = spec.base;
    let mut o = String::new();
    let _ = writeln!(
        o,
        "fault-sweep: {} over {} seeds × {:?} scales × {} strategies",
        spec.dt.signature(),
        spec.seeds,
        spec.scales,
        Strategy::ALL.len()
    );
    let _ = writeln!(
        o,
        "rates at 1.0: drop {} dup {} corrupt {} reorder {} ns\n",
        base.drop,
        base.duplicate,
        base.corrupt,
        base.reorder_window / 1_000
    );
    let _ = writeln!(
        o,
        "{:<6} {:>6} {:<14} {:>6} {:>6} {:>9} {:>9} {:>9} {:>6}",
        "seed", "scale", "strategy", "exact", "tx", "rtx", "rejected", "fallback", "rcvry"
    );

    // The matrix runs in parallel at (seed, scale)-cell granularity;
    // cells come back in serial order, so the table and the artifact
    // are byte-identical at any --jobs value.
    let cells = fault_sweep(spec, pool);
    let mut failures = 0u64;
    for cell in &cells {
        let ok = cell_ok(cell);
        if !ok {
            failures += 1;
        }
        let f = &cell.faults;
        let _ = writeln!(
            o,
            "{:<6} {:>6.1} {:<14} {:>6} {:>6} {:>9} {:>9} {:>9} {:>6}",
            cell.seed,
            cell.scale,
            cell.strategy,
            if ok { "yes" } else { "NO" },
            f.transmissions,
            f.retransmissions,
            f.corrupts_rejected,
            f.host_fallback_packets,
            f.checkpoint_reverts + f.catchup_blocks
        );
    }
    let ncells = cells.len();
    let doc = FaultSweepDoc {
        version: FaultSweepDoc::VERSION,
        drop: base.drop,
        duplicate: base.duplicate,
        corrupt: base.corrupt,
        reorder_ns: base.reorder_window / 1_000,
        cells,
    };
    Outcome {
        stdout: o,
        artifact: Some(Artifact {
            text: doc.to_json(),
            line: "\nsweep report → {path}".to_string(),
        }),
        verdict: (failures == 0)
            .then(|| format!("\nall {ncells} cells byte-exact, delivered exactly once ✓")),
        fail: (failures > 0)
            .then(|| format!("\nFAIL: {failures} cell(s) were not byte-exact exactly-once")),
        ..Outcome::default()
    }
}

/// The open-loop traffic grid with the exact table and `ncmt-traffic`
/// artifact the `traffic` subcommand has always produced.
pub fn run_traffic(spec: &TrafficSweepSpec, pool: &Pool) -> Outcome {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "traffic: {} × {:?} loads × {} disciplines, {} {} tenants ({} arrivals), {} HPUs",
        spec.apps.join("/"),
        spec.loads,
        spec.disciplines.len(),
        spec.tenants,
        spec.strategy.label(),
        spec.arrival.label(),
        spec.hpus
    );
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "{:<8} {:<11} {:>5} {:<4} {:>7} {:>7} {:>6} {:>5} {:>9} {:>9} {:>9} {:>8}",
        "app",
        "discipline",
        "load",
        "ten",
        "offered",
        "compl",
        "drop",
        "lost",
        "p50 us",
        "p99 us",
        "p999 us",
        "Gbit/s"
    );
    let doc = traffic_sweep(spec, pool);
    for c in &doc.cells {
        for t in &c.tenants {
            let _ = writeln!(
                o,
                "{:<8} {:<11} {:>5.2} {:<4} {:>7} {:>7} {:>6} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>8.1}",
                c.app,
                c.discipline,
                c.offered_load,
                t.tenant,
                t.offered,
                t.completed,
                t.dropped,
                t.lost,
                t.latency.p50 as f64 / 1e6,
                t.latency.p99 as f64 / 1e6,
                t.latency.p999 as f64 / 1e6,
                t.goodput_gbit
            );
        }
    }
    let ok = doc.all_byte_exact();
    Outcome {
        stdout: o,
        artifact: Some(Artifact {
            text: doc.to_json(),
            line: "\ntraffic report → {path}".to_string(),
        }),
        verdict: ok.then(|| "\nall completed messages byte-verified ✓".to_string()),
        fail: (!ok).then(|| "\nFAIL: a completed message was not byte-exact".to_string()),
        ..Outcome::default()
    }
}

fn run_ddt_compare(max_kib: Option<u64>, pool: &Pool) -> Outcome {
    let rows = ddt_compare::rows_filtered(max_kib, pool);
    let table = ddt_compare::render(&rows);
    let ok = rows.iter().all(|r| r.byte_exact);
    let n = rows.len();
    let doc = DdtCompareDoc {
        version: DdtCompareDoc::VERSION,
        rows,
    };
    Outcome {
        stdout: table,
        artifact: Some(Artifact {
            text: doc.to_json(),
            line: "\nddt compare report → {path}".to_string(),
        }),
        verdict: ok
            .then(|| format!("\nengine and manual unpack byte-identical on all {n} workloads ✓")),
        fail: (!ok).then(|| "\nFAIL: engine and manual unpack disagree".to_string()),
        ..Outcome::default()
    }
}
