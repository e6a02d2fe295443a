//! The declarative scenario schema: a JSON document that names a
//! workload, fault model, scheduling setup, telemetry capture, traffic
//! mix and sweep axes, compiled by [`crate::exec`] into pool jobs.
//!
//! Every struct here is plain data with explicit defaults — no
//! [`Datatype`](nca_ddt::types::Datatype) or simulator state — so a
//! scenario value round-trips exactly through [`Scenario::to_json`]
//! and [`crate::parse_scenario`].

use std::fmt::Write;

use nca_core::runner::Strategy;
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::report::{esc, fmt_f64};
use nca_traffic::ArrivalKind;

/// Schema version this build reads and writes.
pub const VERSION: u64 = 1;

/// What the scenario runs: one of the five experiment families the CLI
/// exposes. The label is the `"kind"` string in the JSON document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// One datatype through every strategy plus the host/iovec
    /// baselines.
    StrategyRun,
    /// Seed × fault-scale matrix over all strategies.
    FaultSweep,
    /// Open-loop multi-tenant traffic sweep.
    Traffic,
    /// The Fig. 16 application-speedup table.
    Fig16,
    /// Host-side DDT unpack: dataloop/kernels engine vs a naive
    /// element-wise manual copy, per application datatype.
    DdtHostCompare,
}

impl ScenarioKind {
    /// All kinds, for help text and error messages.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::StrategyRun,
        ScenarioKind::FaultSweep,
        ScenarioKind::Traffic,
        ScenarioKind::Fig16,
        ScenarioKind::DdtHostCompare,
    ];

    /// The `"kind"` string in the scenario document.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::StrategyRun => "strategy-run",
            ScenarioKind::FaultSweep => "fault-sweep",
            ScenarioKind::Traffic => "traffic",
            ScenarioKind::Fig16 => "fig16",
            ScenarioKind::DdtHostCompare => "ddt-host-compare",
        }
    }

    /// Inverse of [`ScenarioKind::label`].
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Which receive datatype the scenario drives.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Strided blocks of doubles (`MPI_Type_vector`).
    Vector {
        count: u32,
        blocklen: u32,
        stride: i64,
    },
    /// Irregular fixed-size blocks at seeded random offsets.
    Indexed {
        blocks: u64,
        blocklen: u32,
        seed: u64,
    },
    /// One Fig. 16 application workload by exact label (e.g. `MILC/b`).
    App { label: String },
    /// Every Fig. 16 application workload, optionally capped at
    /// `max_kib` KiB of message size (the figures' quick mode is 512).
    Apps { max_kib: Option<u64> },
}

/// The fault-injection knobs (PR 3); rates are per packet at scale 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSpec {
    pub drop: f64,
    pub duplicate: f64,
    pub corrupt: f64,
    /// Extra-delay reordering window in nanoseconds.
    pub reorder_ns: u64,
    /// Fault-schedule seed (sweeps use `sweep.seed0..+seeds` instead).
    pub seed: u64,
}

impl Default for FaultsSpec {
    fn default() -> Self {
        FaultsSpec {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder_ns: 0,
            seed: 1,
        }
    }
}

impl FaultsSpec {
    /// No fault machinery engaged at these rates.
    pub fn is_inert(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.corrupt == 0.0 && self.reorder_ns == 0
    }
}

/// Pipeline/scheduling knobs shared by every kind.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingSpec {
    /// Handler processing units.
    pub hpus: u64,
    /// RW-CP scheduling-overhead bound ε.
    pub epsilon: f64,
    /// Datatype repetition count (strategy runs and fault sweeps).
    pub copies: u32,
    /// Shuffle payload-packet arrival order with this seed.
    pub out_of_order: Option<u64>,
}

impl Default for SchedulingSpec {
    fn default() -> Self {
        SchedulingSpec {
            hpus: 16,
            epsilon: 0.2,
            copies: 1,
            out_of_order: None,
        }
    }
}

impl SchedulingSpec {
    /// The first key, in document order, whose value differs from the
    /// default.
    pub(crate) fn changed_key(&self) -> Option<&'static str> {
        let d = Self::default();
        [
            ("hpus", self.hpus != d.hpus),
            ("epsilon", self.epsilon != d.epsilon),
            ("copies", self.copies != d.copies),
            ("out_of_order", self.out_of_order != d.out_of_order),
        ]
        .into_iter()
        .find_map(|(key, changed)| changed.then_some(key))
    }
}

/// Telemetry capture tuning; it never turns capture on. Only a strategy
/// run's `--trace-out` captures: a ring of 4 Mi events unless
/// `ring_capacity` says otherwise, with counter tracks bucketed at
/// `bucket_ps`. Traffic runs read only `bucket_ps`, as the label of
/// their utilization blocks. Every other kind refuses both keys.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySpec {
    /// Ring capacity in events.
    pub ring_capacity: Option<u64>,
    /// Time-series bucket width (ps).
    pub bucket_ps: Option<u64>,
}

/// The open-loop traffic grid (`kind: "traffic"` only).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Application mixes: Fig. 16 family names or exact labels.
    pub apps: Vec<String>,
    /// Offered loads as fractions of line rate.
    pub loads: Vec<f64>,
    /// Queue disciplines to grid over.
    pub disciplines: Vec<QueueDiscipline>,
    pub tenants: u64,
    /// Strategy all tenants run.
    pub strategy: Strategy,
    pub arrival: ArrivalKind,
    /// Log-normal shape parameter.
    pub sigma: f64,
    /// Flows per tenant for RSS steering.
    pub flows_per_tenant: u64,
    /// RSS indirection-table slots.
    pub rss_entries: u64,
    /// Open-loop generation horizon in microseconds.
    pub horizon_us: u64,
    /// Override the NIC packet-buffer admission budget (KiB).
    pub buffer_kib: Option<u64>,
    /// Master schedule seed.
    pub seed: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            apps: vec!["milc".into(), "comb".into(), "fft2d".into()],
            loads: vec![0.3, 0.6, 0.9, 1.2],
            disciplines: QueueDiscipline::ALL.to_vec(),
            tenants: 4,
            strategy: Strategy::RwCp,
            arrival: ArrivalKind::Poisson,
            sigma: 1.5,
            flows_per_tenant: 8,
            rss_entries: 64,
            horizon_us: 400,
            buffer_kib: None,
            seed: 1,
        }
    }
}

/// The fault-sweep axes; the grid is the cartesian product
/// `seed0..seed0+seeds × scales` run over every strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    pub seeds: u64,
    pub seed0: u64,
    /// Scale factors applied to the base fault rates (0.0 = lossless
    /// control).
    pub scales: Vec<f64>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            seeds: 4,
            seed0: 1,
            scales: vec![0.0, 0.5, 1.0],
        }
    }
}

impl SweepSpec {
    /// The expanded (seed, scale) grid, seed-major — the exact job
    /// order [`nca_core::sweep::FaultSweepSpec::cells`] runs.
    pub fn expand(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity((self.seeds as usize) * self.scales.len());
        for s in 0..self.seeds {
            for &scale in &self.scales {
                out.push((self.seed0 + s, scale));
            }
        }
        out
    }
}

/// One parsed scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Free-form scenario name (shows up nowhere load-bearing).
    pub name: String,
    pub kind: ScenarioKind,
    pub workload: Option<WorkloadSpec>,
    pub faults: FaultsSpec,
    pub scheduling: SchedulingSpec,
    pub telemetry: TelemetrySpec,
    pub traffic: Option<TrafficSpec>,
    pub sweep: SweepSpec,
}

impl Scenario {
    /// A scenario of `kind` with every section at its default.
    pub fn new(name: &str, kind: ScenarioKind) -> Scenario {
        Scenario {
            name: name.to_string(),
            kind,
            workload: None,
            faults: FaultsSpec::default(),
            scheduling: SchedulingSpec::default(),
            telemetry: TelemetrySpec::default(),
            traffic: None,
            sweep: SweepSpec::default(),
        }
    }
}

// ---------------------------------------------------------------- JSON out

fn f64_list(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| fmt_f64(v)).collect();
    format!("[{}]", items.join(", "))
}

fn str_list(vs: &[String]) -> String {
    let items: Vec<String> = vs.iter().map(|v| format!("\"{}\"", esc(v))).collect();
    format!("[{}]", items.join(", "))
}

impl Scenario {
    /// Render the scenario in canonical form: every section written,
    /// every present field explicit. `parse_scenario(to_json(s)) == s`.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"name\": \"{}\",", esc(&self.name));
        let _ = writeln!(o, "  \"version\": {VERSION},");
        let _ = writeln!(o, "  \"kind\": \"{}\",", self.kind.label());
        if let Some(w) = &self.workload {
            o.push_str("  \"workload\": ");
            match w {
                WorkloadSpec::Vector {
                    count,
                    blocklen,
                    stride,
                } => {
                    let _ = writeln!(
                        o,
                        "{{ \"kind\": \"vector\", \"count\": {count}, \
                         \"blocklen\": {blocklen}, \"stride\": {stride} }},"
                    );
                }
                WorkloadSpec::Indexed {
                    blocks,
                    blocklen,
                    seed,
                } => {
                    let _ = writeln!(
                        o,
                        "{{ \"kind\": \"indexed\", \"blocks\": {blocks}, \
                         \"blocklen\": {blocklen}, \"seed\": {seed} }},"
                    );
                }
                WorkloadSpec::App { label } => {
                    let _ = writeln!(o, "{{ \"kind\": \"app\", \"label\": \"{}\" }},", esc(label));
                }
                WorkloadSpec::Apps { max_kib } => match max_kib {
                    Some(kib) => {
                        let _ = writeln!(o, "{{ \"kind\": \"apps\", \"max_kib\": {kib} }},");
                    }
                    None => {
                        let _ = writeln!(o, "{{ \"kind\": \"apps\" }},");
                    }
                },
            }
        }
        let f = &self.faults;
        let _ = writeln!(
            o,
            "  \"faults\": {{ \"drop\": {}, \"duplicate\": {}, \"corrupt\": {}, \
             \"reorder_ns\": {}, \"seed\": {} }},",
            fmt_f64(f.drop),
            fmt_f64(f.duplicate),
            fmt_f64(f.corrupt),
            f.reorder_ns,
            f.seed
        );
        let s = &self.scheduling;
        let ooo = s
            .out_of_order
            .map(|v| format!(", \"out_of_order\": {v}"))
            .unwrap_or_default();
        let _ = writeln!(
            o,
            "  \"scheduling\": {{ \"hpus\": {}, \"epsilon\": {}, \"copies\": {}{} }},",
            s.hpus,
            fmt_f64(s.epsilon),
            s.copies,
            ooo
        );
        let t = &self.telemetry;
        let mut tel = Vec::new();
        if let Some(rc) = t.ring_capacity {
            tel.push(format!("\"ring_capacity\": {rc}"));
        }
        if let Some(b) = t.bucket_ps {
            tel.push(format!("\"bucket_ps\": {b}"));
        }
        if tel.is_empty() {
            let _ = writeln!(o, "  \"telemetry\": {{}},");
        } else {
            let _ = writeln!(o, "  \"telemetry\": {{ {} }},", tel.join(", "));
        }
        if let Some(t) = &self.traffic {
            let disciplines: Vec<String> = t
                .disciplines
                .iter()
                .map(|d| format!("\"{}\"", d.label()))
                .collect();
            let buffer = t
                .buffer_kib
                .map(|v| format!("\n    \"buffer_kib\": {v},"))
                .unwrap_or_default();
            let _ = writeln!(
                o,
                "  \"traffic\": {{\n    \"apps\": {},\n    \"loads\": {},\n    \
                 \"disciplines\": [{}],\n    \"tenants\": {},\n    \"strategy\": \"{}\",\n    \
                 \"arrival\": \"{}\",\n    \"sigma\": {},\n    \"flows_per_tenant\": {},\n    \
                 \"rss_entries\": {},\n    \"horizon_us\": {},{}\n    \"seed\": {}\n  }},",
                str_list(&t.apps),
                f64_list(&t.loads),
                disciplines.join(", "),
                t.tenants,
                t.strategy.label(),
                t.arrival.label(),
                fmt_f64(t.sigma),
                t.flows_per_tenant,
                t.rss_entries,
                t.horizon_us,
                buffer,
                t.seed
            );
        }
        let sw = &self.sweep;
        let _ = writeln!(
            o,
            "  \"sweep\": {{ \"seeds\": {}, \"seed0\": {}, \"scales\": {} }}",
            sw.seeds,
            sw.seed0,
            f64_list(&sw.scales)
        );
        o.push_str("}\n");
        o
    }
}
