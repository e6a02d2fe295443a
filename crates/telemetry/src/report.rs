//! Machine-readable run reports: the JSON artifact one strategy sweep
//! emits (`ncmt_cli --report-out`), plus a parser and a thresholded
//! baseline diff (`ncmt_cli report-diff`).
//!
//! This module is deliberately generic — it knows stage labels,
//! histograms, and JSON, but nothing about the NIC model. The glue
//! that fills a [`RunReportDoc`] from an experiment lives in
//! `nca-core::report`, keeping the dependency direction
//! `core → telemetry`.
//!
//! Everything is hand-rendered/hand-parsed: the workspace builds
//! offline, so no serde. The schema is documented in EXPERIMENTS.md;
//! bump [`RunReportDoc::VERSION`] on breaking changes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::flight::Attribution;
use crate::hist::LogHistogram;
use crate::streaming::StreamAggregate;
use crate::Time;

/// Summary form of a [`LogHistogram`] as serialized into a report.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (exact).
    pub min: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median estimate (≤3.1% relative error).
    pub p50: u64,
    /// 90th percentile estimate.
    pub p90: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// 99.9th percentile estimate (the tail the traffic engine chases).
    pub p999: u64,
    /// Sparse `(bucket_lower_bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSummary {
    /// Summarize `h`.
    pub fn of(h: &LogHistogram) -> Self {
        HistSummary {
            count: h.count(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            mean: h.mean(),
            p50: h.percentile_ps(50.0),
            p90: h.percentile_ps(90.0),
            p99: h.percentile_ps(99.0),
            p999: h.percentile_ps(99.9),
            buckets: h.nonempty_buckets(),
        }
    }
}

/// Model-vs-measured validation block: what the analytic cost model
/// predicted for this run against what the trace observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelValidation {
    /// Planned checkpoint restart distance Δr (packets).
    pub delta_r: u64,
    /// Planned checkpoint interval Δp (packets).
    pub delta_p: u64,
    /// Planned number of checkpoints.
    pub num_checkpoints: u64,
    /// NIC memory the checkpoint plan claims (bytes).
    pub ckpt_nic_bytes: u64,
    /// The ε scheduling-overhead budget factor the plan was built for.
    pub epsilon: f64,
    /// The planner already knew ε could not be met (NIC-memory bound).
    pub planned_epsilon_violated: bool,
    /// Predicted per-packet handler time T_PH (ps).
    pub t_ph_predicted_ps: u64,
    /// Measured mean payload-handler runtime (ps).
    pub t_ph_measured_ps: f64,
    /// Absolute ε budget in time: `ε · ⌈n_pkt/P⌉ · T_PH_predicted` (ps).
    pub sched_budget_ps: u64,
    /// Observed worst-case scheduling overhead: the longest time any
    /// packet waited in a vHPU queue (ps).
    pub sched_overhead_ps: u64,
    /// Whether the observed overhead respected the ε bound (and the
    /// plan thought it would).
    pub epsilon_respected: bool,
}

/// Fault-injection + reliable-delivery outcome of one strategy run.
/// `None`/`null` when the run was configured lossless (inert faults):
/// the lossless pipeline carries no reliability state at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Total packet transmissions (first attempts + retransmissions).
    pub transmissions: u64,
    /// Timer-driven retransmissions.
    pub retransmissions: u64,
    /// Packets the injector dropped.
    pub drops_injected: u64,
    /// Packets the injector duplicated.
    pub dups_injected: u64,
    /// Duplicate copies the receiver suppressed.
    pub dups_suppressed: u64,
    /// Packets the injector corrupted.
    pub corrupts_injected: u64,
    /// Corrupted copies the checksum check rejected.
    pub corrupts_rejected: u64,
    /// Acknowledgements that reached the sender.
    pub acks_received: u64,
    /// Packets recovered over the host-fallback channel after
    /// retry-budget exhaustion.
    pub host_fallback_packets: u64,
    /// The run degraded to contiguous landing + host unpack because the
    /// strategy's state did not fit in NIC memory.
    pub nic_mem_fallback: bool,
    /// Every packet was delivered to the processor exactly once.
    pub delivered_exactly_once: bool,
    /// RW-CP checkpoint reverts the out-of-order/fault recovery took.
    pub checkpoint_reverts: u64,
    /// HPU-local / RO-CP catch-up replay blocks executed.
    pub catchup_blocks: u64,
}

/// Utilization block: where the simulated hardware spent the run.
/// Unlike [`StrategyReport::attribution`] (which tiles the end-to-end
/// window once), this is *per resource* — one busy fraction per vHPU
/// and per DMA channel — so skew across HPUs/channels is visible. It is
/// computed by one formula, [`UtilizationReport::from_busy`], over busy
/// totals the run counted: per vHPU and DMA channel for a strategy
/// report, per physical HPU slot and channel for a traffic cell.
/// [`UtilizationReport::from_aggregate`] reads the same totals off a
/// folded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// Time-series bucket width (ps) a trace of the run would fold its
    /// counter tracks at; it only labels the block.
    pub bucket_ps: Time,
    /// Handler-busy fraction of the end-to-end window, one entry per
    /// vHPU in track order.
    pub hpu_busy_frac: Vec<f64>,
    /// Peak DMA queue occupancy (the `dma_queue` gauge's maximum).
    pub peak_queue_depth: f64,
    /// DMA-channel busy fraction of the end-to-end window, one entry
    /// per channel in track order.
    pub dma_chan_occupancy: Vec<f64>,
}

impl UtilizationReport {
    /// Compute the block from busy picoseconds per track (index = track
    /// id): `hpu_busy` per HPU, `chan_busy` per DMA channel. Each
    /// fraction is `busy / end_to_end` (0 when `end_to_end` is 0). A
    /// track is listed up to the last one that was busy at all; idle
    /// tracks below it read 0, and the HPU list is padded to
    /// `min_hpu_tracks` entries so idle HPUs still show up as zeros.
    /// `bucket_ps` only labels the block.
    pub fn from_busy(
        bucket_ps: Time,
        end_to_end: Time,
        min_hpu_tracks: u64,
        hpu_busy: &[Time],
        chan_busy: &[Time],
        peak_queue_depth: f64,
    ) -> UtilizationReport {
        let frac = |busy: Time| {
            if end_to_end > 0 {
                busy as f64 / end_to_end as f64
            } else {
                0.0
            }
        };
        let listed = |busy: &[Time]| busy.iter().rposition(|&b| b > 0).map_or(0, |t| t + 1);
        let hpus = listed(hpu_busy).max(min_hpu_tracks as usize);
        UtilizationReport {
            bucket_ps,
            hpu_busy_frac: (0..hpus)
                .map(|t| frac(hpu_busy.get(t).copied().unwrap_or(0)))
                .collect(),
            peak_queue_depth,
            dma_chan_occupancy: chan_busy[..listed(chan_busy)]
                .iter()
                .map(|&b| frac(b))
                .collect(),
        }
    }

    /// [`UtilizationReport::from_busy`] over a streaming aggregate: the
    /// busy totals of the `handler` (per-track) and `dma_chan`
    /// (per-channel) span series under `component`, and the `dma_queue`
    /// gauge's high-water mark as the peak queue depth.
    pub fn from_aggregate(
        agg: &StreamAggregate,
        component: &str,
        end_to_end: Time,
        min_hpu_tracks: u64,
    ) -> UtilizationReport {
        let busy = |name| {
            let tracks = agg.busy_tracks(component, name);
            let mut totals = vec![0; tracks.last().map_or(0, |&t| t as usize + 1)];
            for t in tracks {
                totals[t as usize] = agg.busy_total(component, name, t);
            }
            totals
        };
        UtilizationReport::from_busy(
            agg.bucket_ps(),
            end_to_end,
            min_hpu_tracks,
            &busy("handler"),
            &busy("dma_chan"),
            agg.gauge_hwm(component, "dma_queue").unwrap_or(0.0),
        )
    }
}

/// One strategy's measured results within a report.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// Strategy label (`"RW-CP"`, …).
    pub name: String,
    /// Message processing time, first byte → completion (ps).
    pub end_to_end_ps: u64,
    /// One-time host preparation (ps).
    pub host_setup_ps: u64,
    /// Receive throughput over the processing time (Gbit/s).
    pub throughput_gbit: f64,
    /// NIC memory the strategy occupied (bytes).
    pub nic_mem_bytes: u64,
    /// NIC-memory high-water mark: the static footprint plus the peak
    /// payload resident at once (bytes).
    pub nic_mem_hwm_bytes: u64,
    /// DMA writes issued.
    pub dma_writes: u64,
    /// Bytes DMA-written.
    pub dma_bytes: u64,
    /// Maximum DMA queue occupancy.
    pub dma_max_queue: u64,
    /// Attributed time per stage label, tiling the window.
    pub attribution: Vec<(&'static str, Time)>,
    /// Total handler-busy time across vHPUs (ps).
    pub hpu_busy_ps: u64,
    /// `hpu_busy / (hpus · end_to_end)`.
    pub hpu_utilization: f64,
    /// Latency distributions by metric name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Utilization block (`None` only for pre-streaming producers;
    /// every current writer fills it).
    pub utilization: Option<UtilizationReport>,
    /// Model-vs-measured block (checkpointed strategies only).
    pub model: Option<ModelValidation>,
    /// Fault/reliability outcome (lossy runs only).
    pub faults: Option<FaultSummary>,
}

impl StrategyReport {
    /// Fill the attribution fields from a sweep result.
    pub fn set_attribution(&mut self, a: &Attribution) {
        self.attribution = a.entries().map(|(s, t)| (s.label(), t)).collect();
    }

    /// Sum of the attributed stage times (ps).
    pub fn attribution_sum(&self) -> Time {
        self.attribution.iter().map(|&(_, t)| t).sum()
    }
}

/// Workload/pipeline configuration stamped on a report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportConfig {
    /// Datatype signature string.
    pub datatype: String,
    /// Message size (bytes).
    pub msg_bytes: u64,
    /// Packets per message.
    pub npkt: u64,
    /// Blocks per packet γ.
    pub gamma: f64,
    /// Physical HPUs.
    pub hpus: u64,
    /// Packet payload size (bytes).
    pub payload_size: u64,
    /// ε scheduling-overhead budget factor.
    pub epsilon: f64,
    /// Out-of-order shuffle seed, if any.
    pub out_of_order: Option<u64>,
}

/// The top-level report artifact. (Named `…Doc` to avoid colliding
/// with the simulator's in-memory `nca_spin::nic::RunReport`.)
#[derive(Debug, Clone, PartialEq)]
pub struct RunReportDoc {
    /// Schema version ([`RunReportDoc::VERSION`]).
    pub version: u64,
    /// Events evicted from the `--trace-out` ring sink during capture
    /// (0 when capture was off or the ring never overflowed). Nonzero
    /// means the exported trace is a *suffix* of the run, not the run.
    pub trace_dropped_events: u64,
    /// Workload configuration.
    pub config: ReportConfig,
    /// One entry per strategy run.
    pub strategies: Vec<StrategyReport>,
}

impl RunReportDoc {
    /// Current schema version.
    pub const VERSION: u64 = 1;

    /// Artifact type tag (`"kind"` key).
    pub const KIND: &'static str = "ncmt-run-report";
}

// ---------------------------------------------------------------- JSON out

/// `s` escaped for a JSON string literal (no surrounding quotes): the
/// one escaper every hand-rendered artifact, trace and scenario uses.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `v` as a JSON number: Rust's shortest round-trip form, and `0` for
/// NaN and infinities, which JSON cannot hold (readers treat them as
/// absent).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl RunReportDoc {
    /// Render the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"kind\": \"{}\",", Self::KIND);
        let _ = writeln!(o, "  \"version\": {},", self.version);
        let _ = writeln!(
            o,
            "  \"trace_dropped_events\": {},",
            self.trace_dropped_events
        );
        let c = &self.config;
        let _ = writeln!(o, "  \"config\": {{");
        let _ = writeln!(o, "    \"datatype\": \"{}\",", esc(&c.datatype));
        let _ = writeln!(o, "    \"msg_bytes\": {},", c.msg_bytes);
        let _ = writeln!(o, "    \"npkt\": {},", c.npkt);
        let _ = writeln!(o, "    \"gamma\": {},", fmt_f64(c.gamma));
        let _ = writeln!(o, "    \"hpus\": {},", c.hpus);
        let _ = writeln!(o, "    \"payload_size\": {},", c.payload_size);
        let _ = writeln!(o, "    \"epsilon\": {},", fmt_f64(c.epsilon));
        match c.out_of_order {
            Some(seed) => {
                let _ = writeln!(o, "    \"out_of_order\": {seed}");
            }
            None => {
                let _ = writeln!(o, "    \"out_of_order\": null");
            }
        }
        let _ = writeln!(o, "  }},");
        let _ = writeln!(o, "  \"strategies\": [");
        for (i, s) in self.strategies.iter().enumerate() {
            let comma = if i + 1 < self.strategies.len() {
                ","
            } else {
                ""
            };
            o.push_str(&strategy_json(s, "    "));
            let _ = writeln!(o, "{comma}");
        }
        let _ = writeln!(o, "  ]");
        o.push_str("}\n");
        o
    }
}

fn strategy_json(s: &StrategyReport, ind: &str) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{ind}{{");
    let _ = writeln!(o, "{ind}  \"name\": \"{}\",", esc(&s.name));
    let _ = writeln!(o, "{ind}  \"end_to_end_ps\": {},", s.end_to_end_ps);
    let _ = writeln!(o, "{ind}  \"host_setup_ps\": {},", s.host_setup_ps);
    let _ = writeln!(
        o,
        "{ind}  \"throughput_gbit\": {},",
        fmt_f64(s.throughput_gbit)
    );
    let _ = writeln!(o, "{ind}  \"nic_mem_bytes\": {},", s.nic_mem_bytes);
    let _ = writeln!(o, "{ind}  \"nic_mem_hwm_bytes\": {},", s.nic_mem_hwm_bytes);
    let _ = writeln!(o, "{ind}  \"dma_writes\": {},", s.dma_writes);
    let _ = writeln!(o, "{ind}  \"dma_bytes\": {},", s.dma_bytes);
    let _ = writeln!(o, "{ind}  \"dma_max_queue\": {},", s.dma_max_queue);
    let _ = writeln!(o, "{ind}  \"attribution\": {{");
    for (i, (label, t)) in s.attribution.iter().enumerate() {
        let comma = if i + 1 < s.attribution.len() { "," } else { "" };
        let _ = writeln!(o, "{ind}    \"{label}_ps\": {t}{comma}");
    }
    let _ = writeln!(o, "{ind}  }},");
    let _ = writeln!(o, "{ind}  \"attribution_sum_ps\": {},", s.attribution_sum());
    let _ = writeln!(o, "{ind}  \"hpu_busy_ps\": {},", s.hpu_busy_ps);
    let _ = writeln!(
        o,
        "{ind}  \"hpu_utilization\": {},",
        fmt_f64(s.hpu_utilization)
    );
    let _ = writeln!(o, "{ind}  \"histograms\": {{");
    for (i, (name, h)) in s.histograms.iter().enumerate() {
        let comma = if i + 1 < s.histograms.len() { "," } else { "" };
        let _ = writeln!(o, "{ind}    \"{}\": {{", esc(name));
        o.push_str(&hist_summary_members(h, &format!("{ind}      ")));
        let _ = writeln!(o, "{ind}    }}{comma}");
    }
    let _ = writeln!(o, "{ind}  }},");
    match &s.utilization {
        None => {
            let _ = writeln!(o, "{ind}  \"utilization\": null,");
        }
        Some(u) => {
            let _ = writeln!(o, "{ind}  \"utilization\": {{");
            let _ = writeln!(o, "{ind}    \"bucket_ps\": {},", u.bucket_ps);
            let fracs: Vec<String> = u.hpu_busy_frac.iter().map(|&f| fmt_f64(f)).collect();
            let _ = writeln!(o, "{ind}    \"hpu_busy_frac\": [{}],", fracs.join(","));
            let _ = writeln!(
                o,
                "{ind}    \"peak_queue_depth\": {},",
                fmt_f64(u.peak_queue_depth)
            );
            let chans: Vec<String> = u.dma_chan_occupancy.iter().map(|&f| fmt_f64(f)).collect();
            let _ = writeln!(o, "{ind}    \"dma_chan_occupancy\": [{}]", chans.join(","));
            let _ = writeln!(o, "{ind}  }},");
        }
    }
    match &s.faults {
        None => {
            let _ = writeln!(o, "{ind}  \"faults\": null,");
        }
        Some(f) => {
            let _ = writeln!(o, "{ind}  \"faults\": {},", fault_summary_json(f, ind));
        }
    }
    match &s.model {
        None => {
            let _ = write!(o, "{ind}  \"model\": null");
        }
        Some(m) => {
            let _ = writeln!(o, "{ind}  \"model\": {{");
            let _ = writeln!(o, "{ind}    \"delta_r\": {},", m.delta_r);
            let _ = writeln!(o, "{ind}    \"delta_p\": {},", m.delta_p);
            let _ = writeln!(o, "{ind}    \"num_checkpoints\": {},", m.num_checkpoints);
            let _ = writeln!(o, "{ind}    \"ckpt_nic_bytes\": {},", m.ckpt_nic_bytes);
            let _ = writeln!(o, "{ind}    \"epsilon\": {},", fmt_f64(m.epsilon));
            let _ = writeln!(
                o,
                "{ind}    \"planned_epsilon_violated\": {},",
                m.planned_epsilon_violated
            );
            let _ = writeln!(
                o,
                "{ind}    \"t_ph_predicted_ps\": {},",
                m.t_ph_predicted_ps
            );
            let _ = writeln!(
                o,
                "{ind}    \"t_ph_measured_ps\": {},",
                fmt_f64(m.t_ph_measured_ps)
            );
            let _ = writeln!(o, "{ind}    \"sched_budget_ps\": {},", m.sched_budget_ps);
            let _ = writeln!(
                o,
                "{ind}    \"sched_overhead_ps\": {},",
                m.sched_overhead_ps
            );
            let _ = writeln!(o, "{ind}    \"epsilon_respected\": {}", m.epsilon_respected);
            let _ = write!(o, "{ind}  }}");
        }
    }
    let _ = writeln!(o);
    let _ = write!(o, "{ind}}}");
    o
}

/// Render the members of a [`HistSummary`] object, one per line at
/// indentation `ind` (the caller writes the braces).
fn hist_summary_members(h: &HistSummary, ind: &str) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{ind}\"count\": {},", h.count);
    let _ = writeln!(o, "{ind}\"min\": {},", h.min);
    let _ = writeln!(o, "{ind}\"max\": {},", h.max);
    let _ = writeln!(o, "{ind}\"mean\": {},", fmt_f64(h.mean));
    let _ = writeln!(o, "{ind}\"p50\": {},", h.p50);
    let _ = writeln!(o, "{ind}\"p90\": {},", h.p90);
    let _ = writeln!(o, "{ind}\"p99\": {},", h.p99);
    let _ = writeln!(o, "{ind}\"p999\": {},", h.p999);
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .map(|&(lo, c)| format!("[{lo},{c}]"))
        .collect();
    let _ = writeln!(o, "{ind}\"buckets\": [{}]", buckets.join(","));
    o
}

/// Render a [`FaultSummary`] as a JSON object. `ind` is the indentation
/// of the *containing* line; inner members indent two further spaces.
fn fault_summary_json(f: &FaultSummary, ind: &str) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{{");
    let _ = writeln!(o, "{ind}    \"transmissions\": {},", f.transmissions);
    let _ = writeln!(o, "{ind}    \"retransmissions\": {},", f.retransmissions);
    let _ = writeln!(o, "{ind}    \"drops_injected\": {},", f.drops_injected);
    let _ = writeln!(o, "{ind}    \"dups_injected\": {},", f.dups_injected);
    let _ = writeln!(o, "{ind}    \"dups_suppressed\": {},", f.dups_suppressed);
    let _ = writeln!(
        o,
        "{ind}    \"corrupts_injected\": {},",
        f.corrupts_injected
    );
    let _ = writeln!(
        o,
        "{ind}    \"corrupts_rejected\": {},",
        f.corrupts_rejected
    );
    let _ = writeln!(o, "{ind}    \"acks_received\": {},", f.acks_received);
    let _ = writeln!(
        o,
        "{ind}    \"host_fallback_packets\": {},",
        f.host_fallback_packets
    );
    let _ = writeln!(o, "{ind}    \"nic_mem_fallback\": {},", f.nic_mem_fallback);
    let _ = writeln!(
        o,
        "{ind}    \"delivered_exactly_once\": {},",
        f.delivered_exactly_once
    );
    let _ = writeln!(
        o,
        "{ind}    \"checkpoint_reverts\": {},",
        f.checkpoint_reverts
    );
    let _ = writeln!(o, "{ind}    \"catchup_blocks\": {}", f.catchup_blocks);
    let _ = write!(o, "{ind}  }}");
    o
}

// ------------------------------------------------------------- fault sweep

/// One cell of a fault-sweep matrix: one strategy run at one
/// (seed, fault-scale) point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Fault-schedule seed of this run.
    pub seed: u64,
    /// Scale factor applied to the base fault rates (0.0 = lossless).
    pub scale: f64,
    /// Strategy label.
    pub strategy: String,
    /// The receive buffer matched the reference unpack byte-for-byte.
    pub byte_exact: bool,
    /// Message processing time (ps).
    pub end_to_end_ps: u64,
    /// Reliability counters of the run.
    pub faults: FaultSummary,
}

/// Artifact of a fault-sweep scenario: a seed × fault-rate matrix with
/// delivered-exactly-once statistics per strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepDoc {
    /// Schema version ([`FaultSweepDoc::VERSION`]).
    pub version: u64,
    /// Base per-packet drop probability (scale 1.0).
    pub drop: f64,
    /// Base per-packet duplication probability.
    pub duplicate: f64,
    /// Base per-packet corruption probability.
    pub corrupt: f64,
    /// Reordering-window width (ns).
    pub reorder_ns: u64,
    /// Every (seed, scale, strategy) run.
    pub cells: Vec<SweepCell>,
}

impl FaultSweepDoc {
    /// Current schema version.
    pub const VERSION: u64 = 1;

    /// Artifact type tag (`"kind"` key).
    pub const KIND: &'static str = "ncmt-fault-sweep";

    /// Whether every cell delivered a byte-exact buffer exactly once.
    pub fn all_byte_exact(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.byte_exact && c.faults.delivered_exactly_once)
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"kind\": \"{}\",", Self::KIND);
        let _ = writeln!(o, "  \"version\": {},", self.version);
        let _ = writeln!(o, "  \"drop\": {},", fmt_f64(self.drop));
        let _ = writeln!(o, "  \"duplicate\": {},", fmt_f64(self.duplicate));
        let _ = writeln!(o, "  \"corrupt\": {},", fmt_f64(self.corrupt));
        let _ = writeln!(o, "  \"reorder_ns\": {},", self.reorder_ns);
        let _ = writeln!(o, "  \"all_byte_exact\": {},", self.all_byte_exact());
        let _ = writeln!(o, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(o, "    {{");
            let _ = writeln!(o, "      \"seed\": {},", c.seed);
            let _ = writeln!(o, "      \"scale\": {},", fmt_f64(c.scale));
            let _ = writeln!(o, "      \"strategy\": \"{}\",", esc(&c.strategy));
            let _ = writeln!(o, "      \"byte_exact\": {},", c.byte_exact);
            let _ = writeln!(o, "      \"end_to_end_ps\": {},", c.end_to_end_ps);
            let _ = writeln!(
                o,
                "      \"faults\": {}",
                fault_summary_json(&c.faults, "    ")
            );
            let _ = writeln!(o, "    }}{comma}");
        }
        let _ = writeln!(o, "  ]");
        o.push_str("}\n");
        o
    }
}

// ------------------------------------------------------------ traffic doc

/// One tenant's outcome within a [`TrafficCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTrafficReport {
    /// Tenant label (`"t0"`, …).
    pub tenant: String,
    /// Messages the arrival process offered inside the horizon.
    pub offered: u64,
    /// Offers admitted into the NIC (first attempt or after retry).
    pub admitted: u64,
    /// Admitted messages that completed inside the drain window.
    pub completed: u64,
    /// Admission rejections (each backed-off attempt counts once).
    pub dropped: u64,
    /// Re-offered attempts after an admission rejection.
    pub retried: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub lost: u64,
    /// Completed payload over the active window (Gbit/s).
    pub goodput_gbit: f64,
    /// Offer→completion latency distribution (ps), including admission
    /// backoff delay.
    pub latency: HistSummary,
}

/// One (app × discipline × offered-load) point of a traffic sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficCell {
    /// Application workload label (`"MILC/b"`, …).
    pub app: String,
    /// Queue-discipline label (`"blocked-rr"` / `"cfcfs"` / `"dfcfs"`).
    pub discipline: String,
    /// Offered load as a fraction of line rate.
    pub offered_load: f64,
    /// Every completed message unpacked byte-exactly.
    pub byte_exact: bool,
    /// Streaming-aggregation utilization block for the whole cell
    /// (all tenants share the NIC).
    pub utilization: Option<UtilizationReport>,
    /// Per-tenant accounting, in tenant order.
    pub tenants: Vec<TenantTrafficReport>,
}

/// Artifact of a traffic scenario: per-tenant tail-latency and
/// drop/goodput accounting over an offered-load × discipline × app grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficDoc {
    /// Schema version ([`TrafficDoc::VERSION`]).
    pub version: u64,
    /// Master schedule seed.
    pub seed: u64,
    /// Physical HPUs.
    pub hpus: u64,
    /// Strategy label all tenants ran.
    pub strategy: String,
    /// Arrival-process label (`"poisson"` / `"lognormal"` / `"mixed"`).
    pub arrival: String,
    /// Open-loop generation horizon (ps).
    pub horizon_ps: u64,
    /// Every grid point.
    pub cells: Vec<TrafficCell>,
}

impl TrafficDoc {
    /// Current schema version.
    pub const VERSION: u64 = 1;

    /// Artifact type tag (`"kind"` key).
    pub const KIND: &'static str = "ncmt-traffic";

    /// Whether every cell stayed byte-exact.
    pub fn all_byte_exact(&self) -> bool {
        self.cells.iter().all(|c| c.byte_exact)
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"kind\": \"{}\",", Self::KIND);
        let _ = writeln!(o, "  \"version\": {},", self.version);
        let _ = writeln!(o, "  \"seed\": {},", self.seed);
        let _ = writeln!(o, "  \"hpus\": {},", self.hpus);
        let _ = writeln!(o, "  \"strategy\": \"{}\",", esc(&self.strategy));
        let _ = writeln!(o, "  \"arrival\": \"{}\",", esc(&self.arrival));
        let _ = writeln!(o, "  \"horizon_ps\": {},", self.horizon_ps);
        let _ = writeln!(o, "  \"all_byte_exact\": {},", self.all_byte_exact());
        let _ = writeln!(o, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(o, "    {{");
            let _ = writeln!(o, "      \"app\": \"{}\",", esc(&c.app));
            let _ = writeln!(o, "      \"discipline\": \"{}\",", esc(&c.discipline));
            let _ = writeln!(o, "      \"offered_load\": {},", fmt_f64(c.offered_load));
            let _ = writeln!(o, "      \"byte_exact\": {},", c.byte_exact);
            match &c.utilization {
                None => {
                    let _ = writeln!(o, "      \"utilization\": null,");
                }
                Some(u) => {
                    let _ = writeln!(o, "      \"utilization\": {{");
                    let _ = writeln!(o, "        \"bucket_ps\": {},", u.bucket_ps);
                    let fracs: Vec<String> = u.hpu_busy_frac.iter().map(|&f| fmt_f64(f)).collect();
                    let _ = writeln!(o, "        \"hpu_busy_frac\": [{}],", fracs.join(","));
                    let _ = writeln!(
                        o,
                        "        \"peak_queue_depth\": {},",
                        fmt_f64(u.peak_queue_depth)
                    );
                    let chans: Vec<String> =
                        u.dma_chan_occupancy.iter().map(|&f| fmt_f64(f)).collect();
                    let _ = writeln!(o, "        \"dma_chan_occupancy\": [{}]", chans.join(","));
                    let _ = writeln!(o, "      }},");
                }
            }
            let _ = writeln!(o, "      \"tenants\": [");
            for (j, t) in c.tenants.iter().enumerate() {
                let tcomma = if j + 1 < c.tenants.len() { "," } else { "" };
                let _ = writeln!(o, "        {{");
                let _ = writeln!(o, "          \"tenant\": \"{}\",", esc(&t.tenant));
                let _ = writeln!(o, "          \"offered\": {},", t.offered);
                let _ = writeln!(o, "          \"admitted\": {},", t.admitted);
                let _ = writeln!(o, "          \"completed\": {},", t.completed);
                let _ = writeln!(o, "          \"dropped\": {},", t.dropped);
                let _ = writeln!(o, "          \"retried\": {},", t.retried);
                let _ = writeln!(o, "          \"lost\": {},", t.lost);
                let _ = writeln!(
                    o,
                    "          \"goodput_gbit\": {},",
                    fmt_f64(t.goodput_gbit)
                );
                let _ = writeln!(o, "          \"latency\": {{");
                o.push_str(&hist_summary_members(&t.latency, "            "));
                let _ = writeln!(o, "          }}");
                let _ = writeln!(o, "        }}{tcomma}");
            }
            let _ = writeln!(o, "      ]");
            let _ = writeln!(o, "    }}{comma}");
        }
        let _ = writeln!(o, "  ]");
        o.push_str("}\n");
        o
    }
}

// ------------------------------------------------------------ profile doc

/// One phase's accumulated host time within a [`ProfileWorker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilePhase {
    /// Stable phase label (`"event_queue"`, `"handler"`, …).
    pub phase: String,
    /// Wall-clock nanoseconds attributed to the phase (innermost wins:
    /// a nested phase pauses its parent).
    pub ns: u64,
    /// Times the phase was entered.
    pub count: u64,
}

/// One worker thread's phase breakdown. Worker 0 includes the
/// coordinating (main) thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileWorker {
    /// Pool worker index.
    pub worker: u64,
    /// Phase totals, in the profiler's canonical phase order.
    pub phases: Vec<ProfilePhase>,
}

/// Artifact of `ncmt_cli run --profile`: the simulator self-profiler's
/// attribution of host wall-clock to simulator phases, per worker.
/// Because phases nest innermost-wins, the per-phase totals are
/// disjoint and `attributed + other` tiles `wall_ns` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDoc {
    /// Schema version ([`ProfileDoc::VERSION`]).
    pub version: u64,
    /// Human-readable label of what was profiled.
    pub command: String,
    /// Wall-clock of the profiled region (ns).
    pub wall_ns: u64,
    /// Per-worker phase breakdowns.
    pub workers: Vec<ProfileWorker>,
}

impl ProfileDoc {
    /// Current schema version.
    pub const VERSION: u64 = 1;

    /// Artifact type tag (`"kind"` key).
    pub const KIND: &'static str = "ncmt-profile";

    /// Phase totals summed across workers, preserving first-appearance
    /// phase order.
    pub fn totals(&self) -> Vec<ProfilePhase> {
        let mut out: Vec<ProfilePhase> = Vec::new();
        for w in &self.workers {
            for p in &w.phases {
                match out.iter_mut().find(|t| t.phase == p.phase) {
                    Some(t) => {
                        t.ns += p.ns;
                        t.count += p.count;
                    }
                    None => out.push(p.clone()),
                }
            }
        }
        out
    }

    /// Total nanoseconds attributed to any phase.
    pub fn attributed_ns(&self) -> u64 {
        self.totals().iter().map(|p| p.ns).sum()
    }

    /// Unattributed remainder of the wall clock (clamped at zero: timer
    /// granularity can make attribution nominally exceed the wall).
    pub fn other_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.attributed_ns())
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        fn phase_members(o: &mut String, phases: &[ProfilePhase], ind: &str) {
            for (i, p) in phases.iter().enumerate() {
                let comma = if i + 1 < phases.len() { "," } else { "" };
                let _ = writeln!(
                    o,
                    "{ind}\"{}\": {{\"ns\": {}, \"count\": {}}}{comma}",
                    esc(&p.phase),
                    p.ns,
                    p.count
                );
            }
        }
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"kind\": \"{}\",", Self::KIND);
        let _ = writeln!(o, "  \"version\": {},", self.version);
        let _ = writeln!(o, "  \"command\": \"{}\",", esc(&self.command));
        let _ = writeln!(o, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(o, "  \"attributed_ns\": {},", self.attributed_ns());
        let _ = writeln!(o, "  \"other_ns\": {},", self.other_ns());
        let _ = writeln!(o, "  \"totals\": {{");
        phase_members(&mut o, &self.totals(), "    ");
        let _ = writeln!(o, "  }},");
        let _ = writeln!(o, "  \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            let comma = if i + 1 < self.workers.len() { "," } else { "" };
            let _ = writeln!(o, "    {{");
            let _ = writeln!(o, "      \"worker\": {},", w.worker);
            let _ = writeln!(o, "      \"phases\": {{");
            phase_members(&mut o, &w.phases, "        ");
            let _ = writeln!(o, "      }}");
            let _ = writeln!(o, "    }}{comma}");
        }
        let _ = writeln!(o, "  ]");
        o.push_str("}\n");
        o
    }
}

// ---------------------------------------------------------------- JSON in

/// A parsed JSON value (minimal recursive-descent parser; enough for
/// report files — no serde offline).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64; report integers stay exact below 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Deepest nesting of arrays and objects [`Json::parse`] accepts: the
    /// parser recurses once per level, and no document in the tree nests
    /// deeper than 6.
    pub const MAX_DEPTH: usize = 256;

    /// Parse `text`; `Err` carries a byte offset and message. Arrays and
    /// objects may nest [`Json::MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walk a dotted path of object keys (`"model.sched_overhead_ps"`).
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parse one value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == Json::MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {} levels at byte {}",
            Json::MAX_DEPTH,
            *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                // Consume one UTF-8 scalar (multi-byte sequences pass through).
                let s = &b[*pos..];
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = s
                    .get(..ch_len)
                    .ok_or_else(|| "truncated UTF-8 in string".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".to_string())
}

// ---------------------------------------------------------------- diff

/// Default relative regression threshold for [`diff_reports`] (5%).
pub const DEFAULT_THRESHOLD: f64 = 0.05;

/// Per-strategy metrics compared by [`diff_reports`]; all are
/// "higher is worse". Dotted paths resolve inside each strategy object.
pub const DIFF_METRICS: &[&str] = &[
    "end_to_end_ps",
    "host_setup_ps",
    "attribution.queue_wait_ps",
    "model.sched_overhead_ps",
    "histograms.handler_ps.p99",
    "histograms.queue_wait_ps.p99",
];

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Strategy name.
    pub strategy: String,
    /// Metric path.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// Relative change `(new - base) / base` (infinite when base is 0
    /// and new is not).
    pub delta_frac: f64,
    /// Whether the change exceeds the threshold in the bad direction.
    pub regressed: bool,
}

/// Result of comparing two parsed reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Threshold the rows were judged against.
    pub threshold: f64,
    /// All compared metrics.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Number of regressed rows.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Human-readable table (one line per row, regressions flagged).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let delta = if r.delta_frac.is_infinite() {
                "new".to_string()
            } else {
                format!("{:+.2}%", r.delta_frac * 100.0)
            };
            let flag = if r.regressed { "  REGRESSED" } else { "" };
            let _ = writeln!(
                out,
                "{:<12} {:<32} {:>14.0} -> {:>14.0}  {}{}",
                r.strategy, r.metric, r.base, r.new, delta, flag
            );
        }
        let _ = writeln!(
            out,
            "{} metrics compared, {} regression(s) over {:.1}% threshold",
            self.rows.len(),
            self.regressions(),
            self.threshold * 100.0
        );
        out
    }
}

/// Compare two parsed report documents. Strategies are matched by
/// name; metrics present in only one side are skipped. `Err` when
/// either document lacks the report structure.
pub fn diff_reports(base: &Json, new: &Json, threshold: f64) -> Result<DiffReport, String> {
    for (label, doc) in [("baseline", base), ("candidate", new)] {
        match doc.get("kind").and_then(Json::as_str) {
            Some(k) if k == RunReportDoc::KIND => {}
            _ => return Err(format!("{label} is not a {} document", RunReportDoc::KIND)),
        }
    }
    let base_strats = base
        .get("strategies")
        .and_then(Json::as_arr)
        .ok_or("baseline has no strategies array")?;
    let new_strats = new
        .get("strategies")
        .and_then(Json::as_arr)
        .ok_or("candidate has no strategies array")?;

    let mut rows = Vec::new();
    for bs in base_strats {
        let Some(name) = bs.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(ns) = new_strats
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for &metric in DIFF_METRICS {
            let (Some(b), Some(n)) = (
                bs.path(metric).and_then(Json::as_f64),
                ns.path(metric).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let delta_frac = if b > 0.0 {
                (n - b) / b
            } else if n > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            rows.push(DiffRow {
                strategy: name.to_string(),
                metric: metric.to_string(),
                base: b,
                new: n,
                delta_frac,
                regressed: delta_frac > threshold,
            });
        }
    }
    Ok(DiffReport { threshold, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc(e2e: u64) -> RunReportDoc {
        let mut h = LogHistogram::new();
        h.record_n(100, 50);
        h.record(5_000);
        let mut histograms = BTreeMap::new();
        histograms.insert("handler_ps".to_string(), HistSummary::of(&h));
        RunReportDoc {
            version: RunReportDoc::VERSION,
            trace_dropped_events: 0,
            config: ReportConfig {
                datatype: "vec(512,16,32,f64)".to_string(),
                msg_bytes: 65536,
                npkt: 32,
                gamma: 16.0,
                hpus: 16,
                payload_size: 2048,
                epsilon: 0.2,
                out_of_order: None,
            },
            strategies: vec![StrategyReport {
                name: "RW-CP".to_string(),
                end_to_end_ps: e2e,
                host_setup_ps: 1_000,
                throughput_gbit: 150.0,
                nic_mem_bytes: 4096,
                nic_mem_hwm_bytes: 4096,
                dma_writes: 512,
                dma_bytes: 65536,
                dma_max_queue: 9,
                attribution: vec![("handler_proc", e2e / 2), ("idle", e2e / 2)],
                hpu_busy_ps: e2e / 2,
                hpu_utilization: 0.03,
                histograms,
                utilization: Some(UtilizationReport {
                    bucket_ps: 1_000_000,
                    hpu_busy_frac: vec![0.5, 0.25],
                    peak_queue_depth: 9.0,
                    dma_chan_occupancy: vec![0.75],
                }),
                model: Some(ModelValidation {
                    delta_r: 3,
                    delta_p: 4,
                    num_checkpoints: 8,
                    ckpt_nic_bytes: 2048,
                    epsilon: 0.2,
                    planned_epsilon_violated: false,
                    t_ph_predicted_ps: 90_000,
                    t_ph_measured_ps: 92_000.0,
                    sched_budget_ps: 36_000,
                    sched_overhead_ps: 20_000,
                    epsilon_respected: true,
                }),
                faults: Some(FaultSummary {
                    transmissions: 40,
                    retransmissions: 8,
                    drops_injected: 5,
                    dups_injected: 2,
                    dups_suppressed: 2,
                    corrupts_injected: 1,
                    corrupts_rejected: 1,
                    acks_received: 32,
                    host_fallback_packets: 0,
                    nic_mem_fallback: false,
                    delivered_exactly_once: true,
                    checkpoint_reverts: 3,
                    catchup_blocks: 0,
                }),
            }],
        }
    }

    #[test]
    fn from_busy_leaves_a_trailing_idle_channel_out() {
        let u = UtilizationReport::from_busy(1_000, 100, 1, &[10], &[40, 10, 0, 0], 3.0);
        assert_eq!(u.dma_chan_occupancy, vec![0.4, 0.1]);
        assert_eq!(u.bucket_ps, 1_000);
        assert_eq!(u.peak_queue_depth, 3.0);
        let idle = UtilizationReport::from_busy(1_000, 100, 1, &[10], &[0, 0], 0.0);
        assert!(idle.dma_chan_occupancy.is_empty());
    }

    #[test]
    fn from_busy_reads_an_idle_slot_inside_the_range_as_zero() {
        let u = UtilizationReport::from_busy(1_000, 100, 0, &[50, 0, 25], &[0, 20], 1.0);
        assert_eq!(u.hpu_busy_frac, vec![0.5, 0.0, 0.25]);
        assert_eq!(u.dma_chan_occupancy, vec![0.0, 0.2]);
    }

    #[test]
    fn from_busy_pads_the_hpu_list_to_min_hpu_tracks() {
        let u = UtilizationReport::from_busy(1_000, 100, 4, &[50, 0, 0, 0, 0, 0], &[], 0.0);
        assert_eq!(u.hpu_busy_frac, vec![0.5, 0.0, 0.0, 0.0]);
        let none = UtilizationReport::from_busy(1_000, 100, 3, &[], &[], 0.0);
        assert_eq!(none.hpu_busy_frac, vec![0.0; 3]);
        // A busy track past the minimum is still listed.
        let wide = UtilizationReport::from_busy(1_000, 100, 2, &[0, 0, 0, 10], &[], 0.0);
        assert_eq!(wide.hpu_busy_frac, vec![0.0, 0.0, 0.0, 0.1]);
    }

    #[test]
    fn from_busy_gives_zero_fractions_over_an_empty_window() {
        let u = UtilizationReport::from_busy(1_000, 0, 2, &[5, 7], &[9], 2.0);
        assert_eq!(u.hpu_busy_frac, vec![0.0, 0.0]);
        assert_eq!(u.dma_chan_occupancy, vec![0.0]);
        assert_eq!(u.peak_queue_depth, 2.0);
    }

    #[test]
    fn from_aggregate_is_from_busy_over_the_span_totals() {
        let ev = |name, track, time, kind| crate::TraceEvent {
            scope: "",
            component: "traffic",
            name,
            track,
            time,
            kind,
        };
        let span = |end| crate::EventKind::Span { end };
        let gauge = |value| crate::EventKind::Gauge { value };
        let mut agg = StreamAggregate::new(1_000);
        for e in [
            // Spans crossing bucket edges, an idle slot 1 and a
            // zero-length span on trailing channel 2.
            ev("handler", 0, 500, span(2_700)),
            ev("handler", 2, 900, span(1_100)),
            ev("handler", 0, 3_000, span(3_400)),
            ev("dma_chan", 0, 100, span(1_600)),
            ev("dma_chan", 1, 1_999, span(2_001)),
            ev("dma_chan", 2, 2_500, span(2_500)),
            ev("dma_queue", 0, 100, gauge(3.0)),
            ev("dma_queue", 0, 900, gauge(1.0)),
        ] {
            agg.fold(&e);
        }
        let want = UtilizationReport::from_busy(
            1_000,
            8_000,
            4,
            &[2_200 + 400, 0, 200],
            &[1_500, 2, 0],
            3.0,
        );
        assert_eq!(
            UtilizationReport::from_aggregate(&agg, "traffic", 8_000, 4),
            want
        );
        assert_eq!(want.hpu_busy_frac, vec![0.325, 0.0, 0.025, 0.0]);
        assert_eq!(want.dma_chan_occupancy, vec![0.1875, 0.00025]);
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let doc = sample_doc(1_000_000);
        let json = doc.to_json();
        let v = Json::parse(&json).expect("own output must parse");
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some(RunReportDoc::KIND)
        );
        assert_eq!(
            v.path("config.msg_bytes").and_then(Json::as_f64),
            Some(65536.0)
        );
        let strat = &v.get("strategies").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(strat.get("name").and_then(Json::as_str), Some("RW-CP"));
        assert_eq!(
            strat
                .path("attribution.handler_proc_ps")
                .and_then(Json::as_f64),
            Some(500_000.0)
        );
        assert_eq!(
            strat.path("model.sched_overhead_ps").and_then(Json::as_f64),
            Some(20_000.0)
        );
        assert_eq!(
            strat
                .path("histograms.handler_ps.count")
                .and_then(Json::as_f64),
            Some(51.0)
        );
        assert_eq!(
            strat.path("model.epsilon_respected"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            strat.path("faults.retransmissions").and_then(Json::as_f64),
            Some(8.0)
        );
        assert_eq!(
            strat.path("faults.delivered_exactly_once"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            v.get("trace_dropped_events").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            strat
                .path("utilization.peak_queue_depth")
                .and_then(Json::as_f64),
            Some(9.0)
        );
        let fracs = strat
            .path("utilization.hpu_busy_frac")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(fracs[0].as_f64(), Some(0.5));
        assert_eq!(fracs[1].as_f64(), Some(0.25));
    }

    #[test]
    fn profile_doc_round_trips_and_tiles_the_wall() {
        let doc = ProfileDoc {
            version: ProfileDoc::VERSION,
            command: "vector --count 512".to_string(),
            wall_ns: 1_000_000,
            workers: vec![
                ProfileWorker {
                    worker: 0,
                    phases: vec![
                        ProfilePhase {
                            phase: "event_queue".to_string(),
                            ns: 100_000,
                            count: 512,
                        },
                        ProfilePhase {
                            phase: "handler".to_string(),
                            ns: 600_000,
                            count: 512,
                        },
                    ],
                },
                ProfileWorker {
                    worker: 1,
                    phases: vec![ProfilePhase {
                        phase: "handler".to_string(),
                        ns: 200_000,
                        count: 128,
                    }],
                },
            ],
        };
        assert_eq!(doc.attributed_ns(), 900_000);
        assert_eq!(doc.other_ns(), 100_000);
        let totals = doc.totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[1].phase, "handler");
        assert_eq!(totals[1].ns, 800_000);
        assert_eq!(totals[1].count, 640);
        let v = Json::parse(&doc.to_json()).expect("own output must parse");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some(ProfileDoc::KIND));
        assert_eq!(
            v.path("totals.handler.ns").and_then(Json::as_f64),
            Some(800_000.0)
        );
        assert_eq!(v.get("other_ns").and_then(Json::as_f64), Some(100_000.0));
        let w = &v.get("workers").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(
            w.path("phases.handler.count").and_then(Json::as_f64),
            Some(128.0)
        );
        // attributed + other tiles the wall exactly.
        let attributed = v.get("attributed_ns").and_then(Json::as_f64).unwrap();
        let other = v.get("other_ns").and_then(Json::as_f64).unwrap();
        let wall = v.get("wall_ns").and_then(Json::as_f64).unwrap();
        assert_eq!(attributed + other, wall);
    }

    #[test]
    fn profile_doc_other_ns_clamps_overattribution() {
        let doc = ProfileDoc {
            version: ProfileDoc::VERSION,
            command: "x".to_string(),
            wall_ns: 100,
            workers: vec![ProfileWorker {
                worker: 0,
                phases: vec![ProfilePhase {
                    phase: "handler".to_string(),
                    ns: 150,
                    count: 1,
                }],
            }],
        };
        assert_eq!(doc.other_ns(), 0);
    }

    #[test]
    fn fault_sweep_doc_round_trips_through_the_parser() {
        let doc = FaultSweepDoc {
            version: FaultSweepDoc::VERSION,
            drop: 0.05,
            duplicate: 0.02,
            corrupt: 0.01,
            reorder_ns: 2000,
            cells: vec![SweepCell {
                seed: 7,
                scale: 1.0,
                strategy: "RW-CP".to_string(),
                byte_exact: true,
                end_to_end_ps: 123_456,
                faults: FaultSummary {
                    transmissions: 35,
                    delivered_exactly_once: true,
                    ..FaultSummary::default()
                },
            }],
        };
        let v = Json::parse(&doc.to_json()).expect("own output must parse");
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some(FaultSweepDoc::KIND)
        );
        assert_eq!(v.get("all_byte_exact"), Some(&Json::Bool(true)));
        let cell = &v.get("cells").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            cell.path("faults.transmissions").and_then(Json::as_f64),
            Some(35.0)
        );
    }

    #[test]
    fn traffic_doc_round_trips_through_the_parser() {
        let mut h = LogHistogram::new();
        h.record_n(2_000_000, 995);
        h.record_n(40_000_000, 5);
        let doc = TrafficDoc {
            version: TrafficDoc::VERSION,
            seed: 11,
            hpus: 16,
            strategy: "RW-CP".to_string(),
            arrival: "poisson".to_string(),
            horizon_ps: 1_000_000_000,
            cells: vec![TrafficCell {
                app: "MILC/b".to_string(),
                discipline: "cfcfs".to_string(),
                offered_load: 0.9,
                byte_exact: true,
                utilization: Some(UtilizationReport {
                    bucket_ps: 1_000_000,
                    hpu_busy_frac: vec![0.9, 0.8],
                    peak_queue_depth: 4.0,
                    dma_chan_occupancy: vec![0.6, 0.5],
                }),
                tenants: vec![TenantTrafficReport {
                    tenant: "t0".to_string(),
                    offered: 1000,
                    admitted: 950,
                    completed: 910,
                    dropped: 60,
                    retried: 55,
                    lost: 5,
                    goodput_gbit: 88.5,
                    latency: HistSummary::of(&h),
                }],
            }],
        };
        let v = Json::parse(&doc.to_json()).expect("own output must parse");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some(TrafficDoc::KIND));
        assert_eq!(v.get("all_byte_exact"), Some(&Json::Bool(true)));
        let cell = &v.get("cells").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(cell.get("discipline").and_then(Json::as_str), Some("cfcfs"));
        let t = &cell.get("tenants").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(t.path("latency.count").and_then(Json::as_f64), Some(1000.0));
        let p99 = t.path("latency.p99").and_then(Json::as_f64).unwrap();
        let p999 = t.path("latency.p999").and_then(Json::as_f64).unwrap();
        assert!(p999 > p99, "the 1% tail must surface in p999");
        assert_eq!(t.get("dropped").and_then(Json::as_f64), Some(60.0));
        assert_eq!(
            cell.path("utilization.bucket_ps").and_then(Json::as_f64),
            Some(1_000_000.0)
        );
    }

    #[test]
    fn parser_handles_escapes_nulls_and_rejects_garbage() {
        let v = Json::parse(r#"{"a": "x\n\"y\"", "b": null, "c": [1, -2.5e1]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(
            v.path("c").and_then(Json::as_arr).unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn parser_bounds_the_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let at = Json::parse(&nested(Json::MAX_DEPTH)).expect("exactly at the bound");
        let mut v = &at;
        for _ in 1..Json::MAX_DEPTH {
            v = &v.as_arr().expect("array")[0];
        }
        assert_eq!(v, &Json::Arr(Vec::new()));
        let err = Json::parse(&nested(Json::MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err, "nesting deeper than 256 levels at byte 256");
        // Objects count too, and the offset names the offending bracket.
        let obj = format!(r#"{{"a": {}}}"#, nested(Json::MAX_DEPTH));
        let err = Json::parse(&obj).expect_err("object + arrays too deep");
        assert_eq!(err, "nesting deeper than 256 levels at byte 261");
    }

    #[test]
    fn diff_is_clean_for_identical_reports() {
        let json = sample_doc(1_000_000).to_json();
        let a = Json::parse(&json).unwrap();
        let d = diff_reports(&a, &a, DEFAULT_THRESHOLD).unwrap();
        assert!(!d.rows.is_empty());
        assert_eq!(d.regressions(), 0);
    }

    #[test]
    fn diff_flags_a_seeded_regression_over_threshold() {
        let a = Json::parse(&sample_doc(1_000_000).to_json()).unwrap();
        let b = Json::parse(&sample_doc(1_200_000).to_json()).unwrap();
        let d = diff_reports(&a, &b, 0.05).unwrap();
        assert!(
            d.rows
                .iter()
                .any(|r| r.metric == "end_to_end_ps" && r.regressed),
            "{:?}",
            d.rows
        );
        // Improvements are never "regressions".
        let rev = diff_reports(&b, &a, 0.05).unwrap();
        assert_eq!(rev.regressions(), 0);
        // A generous threshold accepts the change.
        assert_eq!(diff_reports(&a, &b, 0.5).unwrap().regressions(), 0);
    }

    #[test]
    fn diff_rejects_non_report_documents() {
        let a = Json::parse(&sample_doc(1).to_json()).unwrap();
        let junk = Json::parse("{\"kind\": \"other\"}").unwrap();
        assert!(diff_reports(&a, &junk, 0.05).is_err());
        assert!(diff_reports(&junk, &a, 0.05).is_err());
    }
}
