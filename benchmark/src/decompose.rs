//! The traced pass: each plan re-run as calls into the layers' public
//! functions, with a span around every call. The calls mirror what
//! `Plan::run` does at `--jobs 1`, and each decomposition must give
//! back the real run's results, so the split is of the work the real
//! run does.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use nca_core::costmodel::{HandlerCycles, HostCostModel};
use nca_core::heuristic::CheckpointPlan;
use nca_core::report::fault_summary;
use nca_core::runner::{Experiment, ModeledRun, Strategy};
use nca_core::strategies::{estimate_t_ph, GeneralKind, GeneralProcessor, SpecializedProcessor};
use nca_core::sweep::FaultSweepSpec;
use nca_ddt::dataloop::compile_cached;
use nca_ddt::pack::{buffer_span, pack, unpack};
use nca_ddt::typemap::for_each_block;
use nca_scenario::ddt_compare::{self, CompareRow, DdtCompareDoc};
use nca_scenario::fig16::{self, Row};
use nca_scenario::Plan;
use nca_sim::{Pool, Time, WireBuf};
use nca_spin::handler::MessageProcessor;
use nca_spin::nic::{ReceiveSim, RunConfig, RunReport};
use nca_spin::params::NicParams;
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::report::{
    FaultSummary, FaultSweepDoc, SweepCell, TrafficCell, TrafficDoc, UtilizationReport,
};
use nca_telemetry::{Recorder, StreamingRecorder, Telemetry, TraceEvent};
use nca_traffic::sweep::cell_report;
use nca_traffic::{
    app_group, generate_schedule, mean_mix_wire_ps, run_traffic_with, ArrivalKind, ArrivalProcess,
    TenantSpec, TrafficConfig, TrafficRunResult, TrafficSweepSpec,
};
use nca_workloads::apps::{all_workloads, AppWorkload};

use crate::trace::Tracer;

/// Re-run `plan` under spans. `artifact` is the real run's artifact,
/// which the decomposition must reproduce; `check_rows` also compares
/// the Fig. 16 rows field by field against `fig16::rows_filtered`
/// (`pool` runs that comparison).
pub fn traced(
    tr: &mut Tracer,
    plan: &Plan,
    artifact: &str,
    check_rows: bool,
    pool: &Pool,
) -> Result<(), String> {
    let text = match plan {
        Plan::Fig16 { max_kib } => return fig16_rows(tr, *max_kib, check_rows, pool),
        Plan::Traffic(spec) => traffic(tr, spec)?,
        Plan::FaultSweep(spec) => fault_sweep(tr, spec)?,
        Plan::DdtCompare { max_kib } => ddt(tr, *max_kib),
        Plan::Strategy(_) => return Err("strategy runs are not a benchmark workload".into()),
    };
    tr.aside("scenario", "check", |_| {
        if text == artifact {
            Ok(())
        } else {
            Err("the traced decomposition's artifact differs from the real run's".to_string())
        }
    })
}

fn generate(tr: &mut Tracer, max_kib: Option<u64>) -> Vec<AppWorkload> {
    tr.span("workloads", "generate", |_| {
        all_workloads()
            .into_iter()
            .filter(|w| max_kib.is_none_or(|kib| w.msg_bytes() <= kib << 10))
            .collect()
    })
}

/// `Experiment::packed_message`, counting the receive span it fills
/// against the message it keeps.
fn input(tr: &mut Tracer, exp: &Experiment) -> Vec<u8> {
    let packed = tr.span("core", "input", |_| exp.packed_message());
    tr.count("core.input_msg_bytes", packed.len() as f64);
    tr.count(
        "core.input_span_bytes",
        buffer_span(&exp.dt, exp.count).1 as f64,
    );
    packed
}

fn build(
    exp: &Experiment,
    s: Strategy,
) -> (Box<dyn MessageProcessor>, Option<CheckpointPlan>, Time) {
    let dl = compile_cached(&exp.dt, exp.count);
    let t_ph = estimate_t_ph(&exp.params, &HandlerCycles::default(), &dl);
    let kind = match s {
        Strategy::Specialized => {
            let p = SpecializedProcessor::new(&exp.dt, exp.count, exp.params.clone())
                .with_telemetry(exp.telemetry.clone());
            return (Box::new(p), None, t_ph);
        }
        Strategy::HpuLocal => GeneralKind::HpuLocal,
        Strategy::RoCp => GeneralKind::RoCp,
        Strategy::RwCp => GeneralKind::RwCp,
    };
    let gp = GeneralProcessor::new(kind, &exp.dt, exp.count, exp.params.clone(), exp.epsilon);
    let plan = gp.plan().copied();
    (
        Box::new(gp.with_telemetry(exp.telemetry.clone())),
        plan,
        t_ph,
    )
}

/// `Experiment::run_modeled` without verification, one span per layer.
/// `name` tells a telemetry-off receive from a captured one.
fn receive(tr: &mut Tracer, exp: &Experiment, s: Strategy, name: &'static str) -> ModeledRun {
    let (proc_, plan, t_ph_predicted) = tr.span("core", "strategy_build", |_| build(exp, s));
    let (origin, span) = buffer_span(&exp.dt, exp.count);
    let packed: WireBuf = input(tr, exp).into();
    let cfg = RunConfig {
        params: exp.params.clone(),
        out_of_order: exp.out_of_order,
        record_dma_history: exp.record_dma_history,
        portals: None,
        telemetry: exp.telemetry.clone(),
        faults: exp.faults,
        reliability: exp.reliability.clone(),
        engine: exp.engine,
    };
    let report = tr.span("spin", name, |_| {
        ReceiveSim::run(proc_, packed, origin, span, &cfg)
    });
    tr.count("spin.pkts", report.npkt as f64);
    tr.count("spin.dma_writes", report.dma_writes as f64);
    ModeledRun {
        report,
        plan,
        t_ph_predicted,
    }
}

fn fig16_rows(
    tr: &mut Tracer,
    max_kib: Option<u64>,
    check_rows: bool,
    pool: &Pool,
) -> Result<(), String> {
    let apps = generate(tr, max_kib);
    let rows: Vec<Row> = apps
        .iter()
        .map(|w| tr.job("scenario", "row", |tr| fig16_row(tr, w)))
        .collect();
    if !check_rows {
        return Ok(());
    }
    tr.aside("scenario", "check", |_| {
        let real = fig16::rows_filtered(max_kib, pool);
        if real.len() != rows.len() {
            return Err(format!("{} traced rows, {} real", rows.len(), real.len()));
        }
        for (a, b) in rows.iter().zip(&real) {
            let same = a.label == b.label
                && a.class == b.class
                && a.gamma == b.gamma
                && a.host_ms == b.host_ms
                && a.size_kib == b.size_kib
                && a.speedup == b.speedup
                && a.nic_kib == b.nic_kib;
            if !same {
                return Err(format!("traced Fig. 16 row {} differs", a.label));
            }
        }
        Ok(())
    })
}

fn fig16_row(tr: &mut Tracer, w: &AppWorkload) -> Row {
    let gamma = tr.span("ddt", "compile", |_| w.gamma(2048));
    let mut exp = Experiment::new(w.dt.clone(), w.count, NicParams::with_hpus(16));
    exp.verify = false;
    let (host, iovec) = tr.span("core", "baselines", |_| (exp.run_host(), exp.run_iovec()));
    let rwcp = receive(tr, &exp, Strategy::RwCp, "receive").report;
    let spec = receive(tr, &exp, Strategy::Specialized, "receive").report;
    let host_t = host.processing_time as f64;
    Row {
        label: w.label(),
        class: w.ddt_class,
        gamma,
        host_ms: host_t / 1e9,
        size_kib: w.msg_bytes() as f64 / 1024.0,
        speedup: [
            host_t / rwcp.processing_time() as f64,
            host_t / spec.processing_time() as f64,
            host_t / iovec.processing_time as f64,
        ],
        nic_kib: [
            rwcp.nic_mem_bytes as f64 / 1024.0,
            spec.nic_mem_bytes as f64 / 1024.0,
            iovec.nic_bytes as f64 / 1024.0,
        ],
    }
}

/// The simulated results a telemetry-off twin must reproduce.
fn same_report(a: &RunReport, b: &RunReport) -> Result<(), &'static str> {
    let fields = [
        (a.t_first_byte == b.t_first_byte, "t_first_byte"),
        (a.t_complete == b.t_complete, "t_complete"),
        (a.npkt == b.npkt, "npkt"),
        (a.dma_writes == b.dma_writes, "dma_writes"),
        (a.dma_bytes == b.dma_bytes, "dma_bytes"),
        (a.dma_max_queue == b.dma_max_queue, "dma_max_queue"),
        (
            a.nic_mem_hwm_bytes == b.nic_mem_hwm_bytes,
            "nic_mem_hwm_bytes",
        ),
        (a.rel == b.rel, "reliability counters"),
        (*a.host_buf == *b.host_buf, "receive buffer"),
    ];
    match fields.iter().find(|(same, _)| !same) {
        Some((_, field)) => Err(field),
        None => Ok(()),
    }
}

fn fault_sweep(tr: &mut Tracer, spec: &FaultSweepSpec) -> Result<String, String> {
    let mut cells = Vec::new();
    for (seed, scale) in spec.cells() {
        cells.extend(tr.job("core", "cell", |tr| fault_cell(tr, spec, seed, scale))?);
    }
    let doc = FaultSweepDoc {
        version: FaultSweepDoc::VERSION,
        drop: spec.base.drop,
        duplicate: spec.base.duplicate,
        corrupt: spec.base.corrupt,
        reorder_ns: spec.base.reorder_window / 1_000,
        cells,
    };
    Ok(tr.span("telemetry", "render", |_| doc.to_json()))
}

/// `nca_core::sweep`'s cell: every strategy against one fault schedule,
/// each receive captured into the cell's ring.
fn fault_cell(
    tr: &mut Tracer,
    spec: &FaultSweepSpec,
    seed: u64,
    scale: f64,
) -> Result<Vec<SweepCell>, String> {
    let (tel, sink) = tr.span("telemetry", "ring_alloc", |_| {
        Telemetry::ring(spec.ring_capacity)
    });
    let mut exp = Experiment::new(spec.dt.clone(), spec.count, spec.params.clone());
    exp.faults = spec.base.scaled(scale).with_seed(seed);
    exp.verify = false;
    let (origin, span) = buffer_span(&exp.dt, exp.count);
    let packed = input(tr, &exp);
    let expect = tr.span("ddt", "unpack", |_| {
        let mut expect = vec![0u8; span as usize];
        unpack(&exp.dt, exp.count, &packed, &mut expect, origin).expect("unpackable");
        expect
    });
    let mut cells = Vec::with_capacity(Strategy::ALL.len());
    for s in Strategy::ALL {
        exp.telemetry = tel.scoped(s.label());
        let run = receive(tr, &exp, s, "receive_captured");
        tr.aside("spin", "twin", |tr| {
            let mut off = exp.clone();
            off.telemetry = Telemetry::disabled();
            let twin = receive(tr, &off, s, "receive").report;
            same_report(&run.report, &twin)
                .map_err(|f| format!("{} telemetry-off twin differs in {f}", s.label()))
        })?;
        let byte_exact = tr.span("core", "verify", |_| run.report.host_buf == expect);
        let f = tr.span("telemetry", "drain", |_| {
            let events = sink.events();
            let evs: Vec<TraceEvent> = events
                .iter()
                .filter(|ev| ev.scope == s.label())
                .cloned()
                .collect();
            fault_summary(&run, &evs).unwrap_or_default()
        });
        if f.transmissions > 0 {
            tr.count("fault.packets", run.report.npkt as f64);
        }
        tr.count("fault.transmissions", f.transmissions as f64);
        tr.count("fault.retransmissions", f.retransmissions as f64);
        cells.push(SweepCell {
            seed,
            scale,
            strategy: s.label().to_string(),
            byte_exact,
            end_to_end_ps: run.report.processing_time(),
            faults: FaultSummary {
                delivered_exactly_once: run.report.rel.delivered_exactly_once,
                ..f
            },
        });
    }
    tr.count(
        "telemetry.events",
        (sink.len() as u64 + sink.dropped()) as f64,
    );
    Ok(cells)
}

fn traffic(tr: &mut Tracer, spec: &TrafficSweepSpec) -> Result<String, String> {
    let mut cells = Vec::new();
    for app in &spec.apps {
        for &load in &spec.loads {
            for &d in &spec.disciplines {
                cells.push(tr.job("traffic", "cell", |tr| traffic_cell(tr, spec, app, load, d))?);
            }
        }
    }
    let doc = TrafficDoc {
        version: TrafficDoc::VERSION,
        seed: spec.seed,
        hpus: spec.hpus as u64,
        strategy: spec.strategy.label().to_string(),
        arrival: spec.arrival.label().to_string(),
        horizon_ps: spec.horizon_ps,
        cells,
    };
    Ok(tr.span("telemetry", "render", |_| doc.to_json()))
}

/// Forwards every event, counting them.
struct Counted {
    inner: Arc<StreamingRecorder>,
    events: AtomicU64,
}

impl Recorder for Counted {
    fn record(&self, ev: TraceEvent) {
        self.events.fetch_add(1, Relaxed);
        self.inner.record(ev);
    }
}

/// `TrafficSweepSpec::cell_config` with the mix resolved by the caller,
/// so generating the datatypes and configuring the cell time apart.
fn cell_config(
    spec: &TrafficSweepSpec,
    mix: Vec<AppWorkload>,
    load: f64,
    d: QueueDiscipline,
) -> TrafficConfig {
    let mut params = NicParams::with_hpus(spec.hpus);
    params.discipline = d;
    if let Some(bytes) = spec.pkt_buffer_bytes {
        params.pkt_buffer_bytes = bytes;
    }
    let wire = mean_mix_wire_ps(&params, &mix);
    let n = spec.tenants.max(1);
    let tenants: Vec<TenantSpec> = (0..n)
        .map(|t| {
            let heavy = match spec.arrival {
                ArrivalKind::Poisson => false,
                ArrivalKind::LogNormal => true,
                ArrivalKind::Mixed => t % 2 == 1,
            };
            TenantSpec {
                name: format!("t{t}"),
                arrival: if heavy {
                    ArrivalProcess::lognormal_for_load(wire, n, load, spec.sigma)
                } else {
                    ArrivalProcess::poisson_for_load(wire, n, load)
                },
                mix: mix.clone(),
                strategy: spec.strategy,
            }
        })
        .collect();
    let mut cfg = TrafficConfig::new(params, spec.seed, tenants);
    cfg.horizon_ps = spec.horizon_ps;
    cfg.flows_per_tenant = spec.flows_per_tenant;
    cfg.rss_entries = spec.rss_entries;
    cfg
}

fn same_traffic(a: &TrafficRunResult, b: &TrafficRunResult) -> bool {
    a.t_end == b.t_end
        && a.byte_exact == b.byte_exact
        && a.tenants.len() == b.tenants.len()
        && a.tenants.iter().zip(&b.tenants).all(|(x, y)| {
            (
                x.offered,
                x.admitted,
                x.completed,
                x.dropped,
                x.retried,
                x.lost,
            ) == (
                y.offered,
                y.admitted,
                y.completed,
                y.dropped,
                y.retried,
                y.lost,
            ) && x.bytes_completed == y.bytes_completed
                && x.latency == y.latency
        })
}

fn traffic_cell(
    tr: &mut Tracer,
    spec: &TrafficSweepSpec,
    app: &str,
    load: f64,
    d: QueueDiscipline,
) -> Result<TrafficCell, String> {
    let mix = tr
        .span("workloads", "generate", |_| app_group(app))
        .ok_or_else(|| format!("unknown application {app:?}"))?;
    let cfg = tr.span("traffic", "config", |_| cell_config(spec, mix, load, d));
    // A probe: the engine derives the same schedule again inside its span.
    let offered = tr.aside("traffic", "schedule", |_| generate_schedule(&cfg).len());
    let rec = Arc::new(StreamingRecorder::new(spec.stream_bucket_ps));
    let counted = Arc::new(Counted {
        inner: rec.clone(),
        events: AtomicU64::new(0),
    });
    let tel = Telemetry::with_recorder(counted.clone() as Arc<dyn Recorder>);
    let r = tr.span("traffic", "engine", |_| run_traffic_with(&cfg, &tel));
    let (cell, handlers, dma) = tr.span("telemetry", "drain", |_| {
        let agg = rec.take();
        let mut cell = cell_report(app, d, load, &r);
        cell.utilization = Some(UtilizationReport::from_aggregate(
            &agg,
            "traffic",
            r.t_end,
            spec.hpus as u64,
        ));
        let count = |name| agg.span_total("traffic", name).map_or(0, |(n, _)| n);
        (cell, count("handler"), count("dma_chan"))
    });
    tr.aside("traffic", "twin", |tr| {
        let off = tr.span("traffic", "engine", |_| {
            run_traffic_with(&cfg, &Telemetry::disabled())
        });
        if same_traffic(&r, &off) {
            Ok(())
        } else {
            Err(format!(
                "{app} {} load {load}: telemetry-off twin differs",
                d.label()
            ))
        }
    })?;
    let admitted: u64 = r.tenants.iter().map(|t| t.admitted).sum();
    let engine_offered: u64 = r.tenants.iter().map(|t| t.offered).sum();
    if engine_offered != offered as u64 {
        return Err(format!(
            "schedule probe offered {offered}, the engine {engine_offered}"
        ));
    }
    tr.count("traffic.offered", offered as f64);
    tr.count("traffic.admitted", admitted as f64);
    tr.count("spin.pkts", handlers as f64);
    tr.count("spin.dma_writes", dma as f64);
    tr.count("telemetry.events", counted.events.load(Relaxed) as f64);
    Ok(cell)
}

fn ddt(tr: &mut Tracer, max_kib: Option<u64>) -> String {
    let apps = generate(tr, max_kib);
    let rows: Vec<CompareRow> = apps
        .iter()
        .map(|w| tr.job("scenario", "row", |tr| ddt_row(tr, w)))
        .collect();
    tr.span("scenario", "render", |_| {
        std::hint::black_box(ddt_compare::render(&rows));
        DdtCompareDoc {
            version: DdtCompareDoc::VERSION,
            rows,
        }
        .to_json()
    })
}

fn gbit(bytes: u64, ps: u64) -> f64 {
    if ps == 0 {
        0.0
    } else {
        bytes as f64 * 8000.0 / ps as f64
    }
}

/// `ddt_compare`'s row: engine pack/unpack against an element-wise
/// walk of the typemap.
fn ddt_row(tr: &mut Tracer, w: &AppWorkload) -> CompareRow {
    let (origin, span) = buffer_span(&w.dt, w.count);
    let src = tr.span("scenario", "input", |_| {
        let mut src = vec![0u8; span as usize];
        for (i, b) in src.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        src
    });
    let packed = tr.span("ddt", "pack", |_| {
        pack(&w.dt, w.count, &src, origin).expect("app datatypes pack")
    });
    let engine_dst = tr.span("ddt", "unpack", |_| {
        let mut dst = vec![0u8; span as usize];
        unpack(&w.dt, w.count, &packed, &mut dst, origin).expect("app datatypes unpack");
        dst
    });
    let (manual_dst, elements) = tr.span("ddt", "typemap_walk", |_| {
        let mut dst = vec![0u8; span as usize];
        let (mut cursor, mut elements) = (0usize, 0u64);
        for_each_block(&w.dt, w.count, |off, len| {
            elements += 1;
            let at = (off - origin) as usize;
            let len = len as usize;
            dst[at..at + len].copy_from_slice(&packed[cursor..cursor + len]);
            cursor += len;
        });
        (dst, elements)
    });
    let dl = tr.span("ddt", "compile", |_| compile_cached(&w.dt, w.count));
    let byte_exact = tr.span("scenario", "compare", |_| engine_dst == manual_dst);
    tr.count("ddt.blocks", dl.blocks as f64);
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
        engine_gbit: gbit(dl.size, engine_ps),
        manual_gbit: gbit(dl.size, manual_ps),
        ratio: manual_ps as f64 / engine_ps as f64,
    }
}
