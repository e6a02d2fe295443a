//! Offered-load × discipline × application sweeps.
//!
//! A sweep runs one traffic cell per grid point on a [`Pool`] and
//! merges the results in grid order, so the emitted `ncmt-traffic`
//! document is byte-identical at any `--jobs` worker count. All cells
//! of one (app, load) pair share the master seed — the offered
//! schedule is the *same* across disciplines, so a p99 difference
//! between blocked-RR, cFCFS and dFCFS is attributable to scheduling
//! alone.
//!
//! Cells run with telemetry off. Each cell's utilization block comes
//! from the busy totals and peak DMA-queue depth the engine counts as
//! it schedules handlers and DMA writes ([`TrafficRunResult`]), so the
//! sweep builds no recorder and folds no event stream. A caller that
//! wants the `traffic` trace passes its own handle to
//! [`run_traffic_with`](crate::engine::run_traffic_with); folding that
//! stream with [`UtilizationReport::from_aggregate`] gives the same
//! block.

use nca_core::runner::Strategy;
use nca_sim::units::throughput_gbit;
use nca_sim::{Pool, Time};
use nca_spin::params::NicParams;
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::report::{
    HistSummary, TenantTrafficReport, TrafficCell, TrafficDoc, UtilizationReport,
};
use nca_workloads::apps::{self, AppWorkload};

use crate::arrival::ArrivalProcess;
use crate::engine::{mean_mix_wire_ps, run_traffic, TenantSpec, TrafficConfig, TrafficRunResult};

/// Which arrival process the sweep's tenants use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// All tenants Poisson.
    Poisson,
    /// All tenants lognormal (heavy-tailed).
    LogNormal,
    /// Alternating: even tenants Poisson, odd tenants lognormal.
    Mixed,
}

impl ArrivalKind {
    /// Label used in reports and on the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::LogNormal => "lognormal",
            ArrivalKind::Mixed => "mixed",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<ArrivalKind> {
        match s {
            "poisson" => Some(ArrivalKind::Poisson),
            "lognormal" => Some(ArrivalKind::LogNormal),
            "mixed" => Some(ArrivalKind::Mixed),
            _ => None,
        }
    }

    fn process(
        &self,
        tenant: usize,
        wire_ps: f64,
        ntenants: usize,
        load: f64,
        sigma: f64,
    ) -> ArrivalProcess {
        let heavy = match self {
            ArrivalKind::Poisson => false,
            ArrivalKind::LogNormal => true,
            ArrivalKind::Mixed => tenant % 2 == 1,
        };
        if heavy {
            ArrivalProcess::lognormal_for_load(wire_ps, ntenants, load, sigma)
        } else {
            ArrivalProcess::poisson_for_load(wire_ps, ntenants, load)
        }
    }
}

/// Resolve an application name to its workload mix: either a Fig. 16
/// family (`"milc"`, `"comb"`, `"fft2d"`, …; see
/// [`apps::FAMILIES`]) whose inputs form the mix, or one exact workload
/// label (`"MILC/b"`) as a single-entry mix. Only the named family's
/// datatypes are built.
pub fn app_group(name: &str) -> Option<Vec<AppWorkload>> {
    match apps::FAMILIES.iter().find(|(family, _, _)| *family == name) {
        Some((_, _, build)) => Some(build()),
        None => apps::by_label(name).map(|w| vec![w]),
    }
}

/// The grid a traffic sweep runs.
#[derive(Debug, Clone)]
pub struct TrafficSweepSpec {
    /// Application names ([`app_group`] syntax).
    pub apps: Vec<String>,
    /// Offered loads (fraction of line rate).
    pub loads: Vec<f64>,
    /// Queue disciplines.
    pub disciplines: Vec<QueueDiscipline>,
    /// Concurrent tenants per cell.
    pub tenants: usize,
    /// Strategy every tenant runs.
    pub strategy: Strategy,
    /// Arrival-process mix.
    pub arrival: ArrivalKind,
    /// Lognormal shape (only used by lognormal/mixed tenants).
    pub sigma: f64,
    /// Master seed.
    pub seed: u64,
    /// Physical HPUs.
    pub hpus: usize,
    /// RSS indirection-table slots.
    pub rss_entries: usize,
    /// Flows per tenant.
    pub flows_per_tenant: u64,
    /// Open-loop generation horizon (ps).
    pub horizon_ps: Time,
    /// Override the NIC packet-buffer budget (admission-control knob);
    /// `None` keeps the [`NicParams`] default.
    pub pkt_buffer_bytes: Option<u64>,
    /// Time-series bucket width (ps): the artifact's
    /// `utilization.bucket_ps` label, and the width a caller streaming
    /// a cell's trace folds at (memory O(t_end / bucket) per cell,
    /// independent of message count). The sweep itself streams
    /// nothing.
    pub stream_bucket_ps: Time,
}

impl TrafficSweepSpec {
    /// The benchmark-default grid shape: RW-CP tenants, Poisson
    /// arrivals, 4 tenants, all three disciplines, no grid points (fill
    /// in `apps`/`loads` before running).
    pub fn new(seed: u64) -> Self {
        TrafficSweepSpec {
            apps: Vec::new(),
            loads: Vec::new(),
            disciplines: QueueDiscipline::ALL.to_vec(),
            tenants: 4,
            strategy: Strategy::RwCp,
            arrival: ArrivalKind::Poisson,
            sigma: 1.5,
            seed,
            hpus: 16,
            rss_entries: 64,
            flows_per_tenant: 8,
            horizon_ps: nca_sim::us(400),
            pkt_buffer_bytes: None,
            stream_bucket_ps: nca_sim::us(1),
        }
    }

    /// The config one grid cell runs.
    pub fn cell_config(&self, app: &str, load: f64, discipline: QueueDiscipline) -> TrafficConfig {
        let mix =
            app_group(app).unwrap_or_else(|| panic!("unknown application {app:?}; see app_group"));
        let mut params = NicParams::with_hpus(self.hpus);
        params.discipline = discipline;
        if let Some(bytes) = self.pkt_buffer_bytes {
            params.pkt_buffer_bytes = bytes;
        }
        let wire = mean_mix_wire_ps(&params, &mix);
        let n = self.tenants.max(1);
        let tenants: Vec<TenantSpec> = (0..n)
            .map(|t| TenantSpec {
                name: format!("t{t}"),
                arrival: self.arrival.process(t, wire, n, load, self.sigma),
                mix: mix.clone(),
                strategy: self.strategy,
            })
            .collect();
        let mut cfg = TrafficConfig::new(params, self.seed, tenants);
        cfg.horizon_ps = self.horizon_ps;
        cfg.flows_per_tenant = self.flows_per_tenant;
        cfg.rss_entries = self.rss_entries;
        cfg
    }
}

/// Summarize one run as a report cell, with `utilization` left for the
/// caller to fill.
pub fn cell_report(
    app: &str,
    discipline: QueueDiscipline,
    load: f64,
    r: &TrafficRunResult,
) -> TrafficCell {
    TrafficCell {
        app: app.to_string(),
        discipline: discipline.label().to_string(),
        offered_load: load,
        byte_exact: r.byte_exact,
        utilization: None,
        tenants: r
            .tenants
            .iter()
            .map(|t| TenantTrafficReport {
                tenant: t.name.clone(),
                offered: t.offered,
                admitted: t.admitted,
                completed: t.completed,
                dropped: t.dropped,
                retried: t.retried,
                lost: t.lost,
                goodput_gbit: throughput_gbit(t.bytes_completed, r.t_end),
                latency: HistSummary::of(&t.latency),
            })
            .collect(),
    }
}

/// Run the full grid on `pool` and assemble the `ncmt-traffic` document.
/// Cells execute in parallel but are merged in grid order — the output
/// is byte-identical at any worker count.
pub fn traffic_sweep(spec: &TrafficSweepSpec, pool: &Pool) -> TrafficDoc {
    assert!(!spec.apps.is_empty(), "sweep needs at least one app");
    assert!(!spec.loads.is_empty(), "sweep needs at least one load");
    assert!(!spec.disciplines.is_empty(), "sweep needs a discipline");
    let mut grid: Vec<(String, f64, QueueDiscipline)> = Vec::new();
    for app in &spec.apps {
        for &load in &spec.loads {
            for &d in &spec.disciplines {
                grid.push((app.clone(), load, d));
            }
        }
    }
    let cells = pool.par_map(grid, |_, (app, load, d)| {
        let r = run_traffic(&spec.cell_config(&app, load, d));
        let mut cell = cell_report(&app, d, load, &r);
        cell.utilization = Some(UtilizationReport::from_busy(
            spec.stream_bucket_ps,
            r.t_end,
            spec.hpus as u64,
            &r.hpu_busy_ps,
            &r.dma_chan_busy_ps,
            r.dma_max_queue as f64,
        ));
        cell
    });
    TrafficDoc {
        version: TrafficDoc::VERSION,
        seed: spec.seed,
        hpus: spec.hpus as u64,
        strategy: spec.strategy.label().to_string(),
        arrival: spec.arrival.label().to_string(),
        horizon_ps: spec.horizon_ps,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> TrafficSweepSpec {
        let mut s = TrafficSweepSpec::new(3);
        s.apps = vec!["comb".to_string()];
        s.loads = vec![0.4, 1.2];
        s.disciplines = vec![QueueDiscipline::BlockedRR, QueueDiscipline::DFcfs];
        s.tenants = 2;
        s.hpus = 8;
        s.horizon_ps = nca_sim::us(120);
        s
    }

    #[test]
    fn sweep_covers_the_grid_in_order() {
        let doc = traffic_sweep(&tiny_spec(), &Pool::serial());
        assert_eq!(doc.cells.len(), 4);
        let key: Vec<(String, f64, String)> = doc
            .cells
            .iter()
            .map(|c| (c.app.clone(), c.offered_load, c.discipline.clone()))
            .collect();
        assert_eq!(key[0], ("comb".into(), 0.4, "blocked-rr".into()));
        assert_eq!(key[1], ("comb".into(), 0.4, "dfcfs".into()));
        assert_eq!(key[2], ("comb".into(), 1.2, "blocked-rr".into()));
        assert_eq!(key[3], ("comb".into(), 1.2, "dfcfs".into()));
        assert!(doc.all_byte_exact());
        for c in &doc.cells {
            assert_eq!(c.tenants.len(), 2);
            for t in &c.tenants {
                assert!(t.offered > 0);
                assert_eq!(t.admitted + t.lost, t.offered);
            }
        }
    }

    #[test]
    fn parallel_merge_is_byte_identical_to_serial() {
        let spec = tiny_spec();
        let a = traffic_sweep(&spec, &Pool::serial()).to_json();
        let b = traffic_sweep(&spec, &Pool::new(4)).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn same_schedule_across_disciplines_at_one_grid_point() {
        // Offered counts per tenant depend only on (app, load, seed) —
        // the discipline must not perturb the arrival schedule.
        let doc = traffic_sweep(&tiny_spec(), &Pool::serial());
        assert_eq!(
            doc.cells[0]
                .tenants
                .iter()
                .map(|t| t.offered)
                .collect::<Vec<_>>(),
            doc.cells[1]
                .tenants
                .iter()
                .map(|t| t.offered)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn app_group_resolves_families_and_exact_labels() {
        assert!(app_group("milc").is_some());
        for (name, _, build) in apps::FAMILIES {
            let group = app_group(name).unwrap_or_else(|| panic!("{name}"));
            let labels: Vec<String> = group.iter().map(AppWorkload::label).collect();
            let want: Vec<String> = build().iter().map(AppWorkload::label).collect();
            assert_eq!(labels, want, "{name}");
        }
        let one = app_group("MILC/b").expect("exact label");
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].label(), "MILC/b");
        // Every Fig. 16 label resolves to the very workload the full
        // list holds.
        for w in apps::all_workloads() {
            let one = app_group(&w.label()).unwrap_or_else(|| panic!("{}", w.label()));
            assert_eq!(one.len(), 1, "{}", w.label());
            assert_eq!(one[0].label(), w.label());
            assert_eq!(one[0].count, w.count, "{}", w.label());
            assert_eq!(one[0].dt.signature(), w.dt.signature(), "{}", w.label());
        }
        for bad in ["no-such-app", "MILC/z", "MILC", "/b", "milc/b"] {
            assert!(app_group(bad).is_none(), "{bad}");
        }
    }
}
