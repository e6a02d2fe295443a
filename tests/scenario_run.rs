//! End-to-end tests of the declarative scenario layer through the
//! `ncmt` facade: every shipped `scenarios/*.json` parses, compiles
//! and runs; the `traffic`, `ddt-host-compare`, `fault-sweep`, `fig16`
//! and strategy-run scenarios reproduce their committed goldens
//! byte-for-byte; scenario runs and the strategy-run trace stay
//! byte-identical at any worker count; no report depends on the trace
//! ring's size; and inputs a run could not finish, or keys a kind
//! ignores, are rejected, promptly, with a path-qualified error.

use std::sync::mpsc;
use std::time::Duration;

use ncmt::scenario::{parse_scenario, parse_scenario_with, Outcome, Plan, RunOptions, Scenario};
use ncmt::sim::Pool;
use ncmt::telemetry::report::Json;

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn shipped(name: &str) -> Scenario {
    let path = repo_path(&format!("scenarios/{name}"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing scenario {path}: {e}"));
    parse_scenario(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A shipped scenario with `--set` overrides, compiled.
fn shipped_with(name: &str, sets: &[&str]) -> Plan {
    let path = repo_path(&format!("scenarios/{name}"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_scenario_with(&text, sets)
        .and_then(|scn| scn.compile())
        .unwrap_or_else(|e| panic!("{path} {sets:?}: {e}"))
}

fn shipped_names() -> Vec<String> {
    let dir = repo_path("scenarios");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing {dir}: {e}"))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

#[test]
fn every_shipped_scenario_parses_and_compiles() {
    let names = shipped_names();
    assert!(
        names.len() >= 4,
        "expected the shipped scenario set, found {names:?}"
    );
    for name in names {
        let scn = shipped(&name);
        scn.compile()
            .unwrap_or_else(|e| panic!("scenarios/{name}: {e}"));
    }
}

#[test]
fn shipped_scenarios_are_byte_identical_at_any_worker_count() {
    // traffic.json and ddt_host_compare.json are pinned byte-for-byte
    // by their golden tests below at whatever NCMT_JOBS is in effect
    // (and the CI scenario-matrix job cmp-gates every shipped file at
    // --jobs 1 vs --jobs 4 in release), so the debug-build double-run
    // here covers the two cheap scenarios only.
    for name in ["fault_sweep.json", "fig16.json"] {
        let plan = shipped(name).compile().expect("compiles");
        let opts = RunOptions {
            want_trace: false,
            want_report: true,
        };
        let serial = plan.run(&Pool::serial(), &opts);
        // Worker 0 is this thread, so both parallel runs reuse receive
        // buffers its arena pooled in the runs before.
        let pool = Pool::new(4);
        for run in ["first", "second"] {
            let parallel = plan.run(&pool, &opts);
            assert_eq!(
                serial.stdout, parallel.stdout,
                "scenarios/{name}: stdout differs between --jobs 1 and a {run} --jobs 4"
            );
            assert_eq!(
                serial.artifact.as_ref().map(|a| &a.text),
                parallel.artifact.as_ref().map(|a| &a.text),
                "scenarios/{name}: artifact differs between --jobs 1 and a {run} --jobs 4"
            );
        }
    }
}

#[test]
fn traffic_scenario_reproduces_the_traffic_golden() {
    let plan = shipped("traffic.json").compile().expect("compiles");
    assert!(matches!(plan, Plan::Traffic(_)));
    let out = plan.run(&Pool::from_env(None), &RunOptions::default());
    let golden = std::fs::read_to_string(repo_path("tests/golden/traffic_baseline.json"))
        .expect("committed golden");
    assert_eq!(
        out.artifact.expect("traffic artifact").text,
        golden,
        "scenarios/traffic.json drifted from tests/golden/traffic_baseline.json \
         (the scenario mirrors the golden-gate traffic flags; regenerate the \
         golden with `cargo test --test traffic_engine -- --ignored regenerate` \
         only for an intended model change)"
    );
}

#[test]
fn ddt_host_compare_reproduces_its_golden() {
    let plan = shipped("ddt_host_compare.json")
        .compile()
        .expect("compiles");
    let out = plan.run(&Pool::from_env(None), &RunOptions::default());
    assert!(out.fail.is_none(), "{:?}", out.fail);
    let path = repo_path("tests/golden/ddt_host_compare.json");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    assert_eq!(
        out.artifact.expect("ddt-compare artifact").text,
        golden,
        "ddt-host-compare drifted from its golden; if the cost model or \
         datatype change is intended, regenerate with \
         `cargo test --test scenario_run -- --ignored regenerate_golden_ddt_host_compare` and commit {path}"
    );
}

/// Not a test: rewrites the ddt-host-compare golden. Run explicitly via
/// `cargo test --test scenario_run -- --ignored regenerate_golden_ddt_host_compare`.
#[test]
#[ignore]
fn regenerate_golden_ddt_host_compare() {
    let plan = shipped("ddt_host_compare.json")
        .compile()
        .expect("compiles");
    let out = plan.run(&Pool::from_env(None), &RunOptions::default());
    let path = repo_path("tests/golden/ddt_host_compare.json");
    std::fs::write(&path, out.artifact.expect("artifact").text).expect("write golden");
}

#[test]
fn fault_sweep_reproduces_its_golden() {
    let plan = shipped("fault_sweep.json").compile().expect("compiles");
    let out = plan.run(&Pool::from_env(None), &RunOptions::default());
    assert!(out.fail.is_none(), "{:?}", out.fail);
    let path = repo_path("tests/golden/fault_sweep.json");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    assert_eq!(
        out.artifact.expect("fault-sweep artifact").text,
        golden,
        "the fault sweep drifted from its golden; if the fault or cost model \
         change is intended, regenerate with \
         `cargo test --test scenario_run -- --ignored regenerate_golden_fault_sweep` and commit {path}"
    );
}

/// Not a test: rewrites the fault-sweep golden. Run explicitly via
/// `cargo test --test scenario_run -- --ignored regenerate_golden_fault_sweep`.
#[test]
#[ignore]
fn regenerate_golden_fault_sweep() {
    let plan = shipped("fault_sweep.json").compile().expect("compiles");
    let out = plan.run(&Pool::from_env(None), &RunOptions::default());
    let path = repo_path("tests/golden/fault_sweep.json");
    std::fs::write(&path, out.artifact.expect("artifact").text).expect("write golden");
}

const REPORT_ONLY: RunOptions = RunOptions {
    want_trace: false,
    want_report: true,
};

#[test]
fn strategy_run_report_reproduces_the_ci_baseline_golden() {
    let plan = shipped("strategy_run.json").compile().expect("compiles");
    let out = plan.run(&Pool::from_env(None), &REPORT_ONLY);
    let path = repo_path("tests/golden/ci_baseline_report.json");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    assert_eq!(
        out.artifact.expect("run report").text,
        golden,
        "scenarios/strategy_run.json's report drifted from {path}"
    );
}

#[test]
fn strategy_report_fault_blocks_do_not_depend_on_the_ring_capacity() {
    // A report once attributed from a captured ring: at 1000 events
    // Specialized, RW-CP and RO-CP read 100% idle under this fault mix.
    // A report-only run captures nothing, so the ring size cannot reach
    // it; `--trace-out` captures, and changes only the drop count.
    let run = |ring: u64, opts: RunOptions| {
        let set = format!("telemetry.ring_capacity={ring}");
        let plan = shipped_with(
            "strategy_run.json",
            &["faults.drop=0.05", "faults.duplicate=0.02", &set],
        );
        let out = plan.run(&Pool::from_env(None), &opts);
        (out.warn, out.artifact.expect("run report").text)
    };
    let (warn, small) = run(1000, REPORT_ONLY);
    let (_, large) = run(1 << 22, REPORT_ONLY);
    assert_eq!(warn, None, "a report-only run warned of a trace ring");
    assert_eq!(small, large, "the ring size changed a report-only run");
    let traced = RunOptions {
        want_trace: true,
        want_report: true,
    };
    let (warn, traced) = run(1000, traced);
    assert!(warn.is_some(), "the small trace ring dropped silently");
    let doc = |text: &str| match Json::parse(text).expect("report parses") {
        Json::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    };
    let (traced, large) = (doc(&traced), doc(&large));
    let dropped = |m: &[(String, Json)]| -> Option<f64> {
        let (_, v) = m.iter().find(|(k, _)| k == "trace_dropped_events")?;
        v.as_f64()
    };
    assert!(dropped(&traced) > Some(0.0), "the small ring must drop");
    assert_eq!(dropped(&large), Some(0.0));
    let without_drops = |m: &[(String, Json)]| -> Vec<(String, Json)> {
        m.iter()
            .filter(|(k, _)| k != "trace_dropped_events")
            .cloned()
            .collect()
    };
    assert_eq!(
        without_drops(&traced),
        without_drops(&large),
        "a dropping trace ring changed a report field"
    );
    // Exact, not merely equal. 32 packets of 16 blocks on 16 vHPUs:
    // vHPU k first walks the 16k blocks before packet k, then the 240
    // between packets k and k + 16, so 1920 + 3840 = 5760.
    let strategies = large
        .iter()
        .find(|(k, _)| k == "strategies")
        .and_then(|(_, v)| v.as_arr())
        .expect("strategies");
    assert_eq!(strategies.len(), 4);
    let hpu_local = strategies
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("HPU-local"))
        .expect("HPU-local");
    assert_eq!(
        hpu_local
            .path("faults.catchup_blocks")
            .and_then(Json::as_f64),
        Some(5760.0)
    );
}

#[test]
fn fig16_scenario_renders_the_quick_figure_table() {
    let plan = shipped("fig16.json").compile().expect("compiles");
    let out = plan.run(&Pool::from_env(None), &RunOptions::default());
    let path = repo_path("tests/golden/fig16.tsv");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"));
    let art = out.artifact.expect("figure artifact");
    assert_eq!(
        art.text, golden,
        "the Fig. 16 table drifted from its golden; if the model change is \
         intended, regenerate with \
         `cargo test --test scenario_run -- --ignored regenerate_golden_fig16` and commit {path}"
    );
    assert_eq!(out.stdout, golden, "the figure table is also the stdout");
}

/// Not a test: rewrites the Fig. 16 golden. Run explicitly via
/// `cargo test --test scenario_run -- --ignored regenerate_golden_fig16`.
#[test]
#[ignore]
fn regenerate_golden_fig16() {
    let plan = shipped("fig16.json").compile().expect("compiles");
    let out = plan.run(&Pool::from_env(None), &RunOptions::default());
    let path = repo_path("tests/golden/fig16.tsv");
    std::fs::write(&path, out.artifact.expect("artifact").text).expect("write golden");
}

#[test]
fn strategy_run_trace_has_counter_tracks_per_strategy_at_any_worker_count() {
    let plan = shipped("strategy_run.json").compile().expect("compiles");
    let opts = RunOptions {
        want_trace: true,
        want_report: false,
    };
    let trace = |pool: &Pool| plan.run(pool, &opts).trace.expect("trace artifact").text;
    let serial = trace(&Pool::serial());
    assert_eq!(
        serial,
        trace(&Pool::new(3)),
        "the trace differs between --jobs 1 and --jobs 3"
    );
    let doc = Json::parse(&serial).expect("the trace parses");
    let events = doc.as_arr().expect("a trace is an array of events");
    let field = |ev: &Json, key: &str| ev.path(key).and_then(Json::as_str).map(str::to_string);
    for label in ["Specialized", "RW-CP", "RO-CP", "HPU-local"] {
        let process = format!("{label}/spin");
        let pid = events
            .iter()
            .find(|ev| {
                field(ev, "ph").as_deref() == Some("M")
                    && field(ev, "args.name") == Some(process.clone())
            })
            .and_then(|ev| ev.get("pid"))
            .unwrap_or_else(|| panic!("no {process} process"));
        let samples = events
            .iter()
            .filter(|ev| {
                ev.get("pid") == Some(pid)
                    && field(ev, "ph").as_deref() == Some("C")
                    && field(ev, "name").as_deref() == Some("handler_busy_frac")
            })
            .count();
        assert!(samples > 0, "{process} has no handler_busy_frac samples");
    }
}

/// Run a compiled plan on a watchdog thread: the answer must come
/// within 60 s, even in a debug build on a loaded machine.
fn run_watched(plan: Plan, opts: RunOptions) -> Outcome {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(plan.run(&Pool::from_env(None), &opts));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("the run did not answer within 60 s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the run panicked"),
    }
}

#[test]
fn a_fine_trace_bucket_cannot_abort_a_strategy_run() {
    // `telemetry.bucket_ps=1` once aborted a report run folding per-HPU
    // series of 1 ps buckets (about 11 GB). The report reads the run's
    // counters, so the width changes nothing in it.
    let fine = "telemetry.bucket_ps=1";
    let report = |sets: &[&str]| {
        let out = run_watched(shipped_with("strategy_run.json", sets), REPORT_ONLY);
        assert!(out.refused.is_none(), "{sets:?}: {:?}", out.refused);
        out.artifact.expect("run report").text
    };
    assert_eq!(
        report(&[fine]),
        report(&[]),
        "the trace bucket width changed the report"
    );
    // A trace folds its counter tracks at that width: 1.47e9 cells is
    // past the bound, so the run is refused before the fold allocates.
    let traced = run_watched(
        shipped_with("strategy_run.json", &[fine]),
        RunOptions {
            want_trace: true,
            want_report: true,
        },
    );
    let err = traced.refused.expect("the trace is refused");
    assert!(err.starts_with("scenario.telemetry.bucket_ps: "), "{err}");
    assert!(traced.trace.is_none() && traced.artifact.is_none());
}

/// Parse a shipped scenario with `--set` overrides and compile it on a
/// watchdog thread: the answer must come within 10 s, even in a debug
/// build on a loaded machine.
fn compile_watched(name: &str, sets: &[&str]) -> Result<(), String> {
    let path = repo_path(&format!("scenarios/{name}"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let owned: Vec<String> = sets.iter().map(|s| s.to_string()).collect();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let sets: Vec<&str> = owned.iter().map(String::as_str).collect();
        let compiled = parse_scenario_with(&text, &sets).and_then(|scn| scn.compile());
        let _ = tx.send(compiled.map(drop));
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(compiled) => compiled,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name} {sets:?}: compile did not answer within 10 s")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{name} {sets:?}: compile panicked"),
    }
}

fn assert_rejected(name: &str, sets: &[&str], path: &str) {
    let err = compile_watched(name, sets).expect_err("must not compile");
    assert!(err.starts_with(&format!("{path}: ")), "{sets:?}: {err}");
}

#[test]
fn offers_per_cell_are_bounded() {
    // Was still running after 90 s.
    assert_rejected(
        "traffic.json",
        &[
            r#"traffic.apps=["COMB/b"]"#,
            "traffic.loads=[1e6]",
            "traffic.tenants=1",
            "traffic.horizon_us=10",
        ],
        "scenario.traffic.loads[0]",
    );
}

#[test]
fn tenants_are_bounded() {
    // Was OOM-killed after 61 s.
    assert_rejected(
        "traffic.json",
        &[
            r#"traffic.apps=["COMB/b"]"#,
            "traffic.loads=[0.5]",
            "traffic.tenants=100000000",
            "traffic.horizon_us=10",
        ],
        "scenario.traffic.tenants",
    );
}

#[test]
fn receive_spans_are_bounded_before_the_datatype_is_built() {
    // Aborted allocating 800 TB.
    assert_rejected(
        "strategy_run.json",
        &[
            "workload.count=100000",
            "workload.blocklen=1",
            "workload.stride=1000000000",
        ],
        "scenario.workload",
    );
    // Aborted allocating 32 PB.
    assert_rejected(
        "strategy_run.json",
        &[
            "workload.count=4000000000",
            "workload.blocklen=1000000",
            "workload.stride=2000000",
        ],
        "scenario.workload",
    );
    // The bound is 1 GiB: two doubles 2^27 - 1 doubles apart span
    // exactly 2^30 bytes; one double further does not fit.
    let pair = |stride: &str| {
        let set = format!("workload.stride={stride}");
        compile_watched(
            "strategy_run.json",
            &["workload.count=2", "workload.blocklen=1", &set],
        )
    };
    pair("134217727").expect("exactly at the bound");
    assert!(pair("134217728").is_err());
    assert_rejected(
        "fault_sweep.json",
        &[r#"workload={"kind": "indexed", "blocks": 1000000000, "blocklen": 1, "seed": 1}"#],
        "scenario.workload",
    );
}

#[test]
fn rss_tables_and_horizons_are_bounded() {
    // Aborted allocating a 40 TB indirection table.
    assert_rejected(
        "traffic.json",
        &["traffic.rss_entries=10000000000000"],
        "scenario.traffic.rss_entries",
    );
    compile_watched("traffic.json", &["traffic.rss_entries=65536"]).expect("at the bound");
    assert_rejected(
        "traffic.json",
        &["traffic.rss_entries=65537"],
        "scenario.traffic.rss_entries",
    );
    // Aborted allocating a 565 GB streaming-bucket vector.
    let tiny_load = "traffic.loads=[1e-12]";
    assert_rejected(
        "traffic.json",
        &[tiny_load, "traffic.horizon_us=18446744073709"],
        "scenario.traffic.horizon_us",
    );
    // One microsecond more wraps the 64-bit picosecond clock.
    assert_rejected(
        "traffic.json",
        &[tiny_load, "traffic.horizon_us=18446744073710"],
        "scenario.traffic.horizon_us",
    );
    // The bucket bound is 2^20 per cell: 2^20 us at the default 1 us
    // buckets fits, one more microsecond does not, and wider buckets
    // admit a longer horizon.
    compile_watched("traffic.json", &[tiny_load, "traffic.horizon_us=1048576"])
        .expect("exactly at the bound");
    assert_rejected(
        "traffic.json",
        &[tiny_load, "traffic.horizon_us=1048577"],
        "scenario.traffic.horizon_us",
    );
    compile_watched(
        "traffic.json",
        &[
            tiny_load,
            "traffic.horizon_us=1048577",
            "telemetry.bucket_ps=2000000",
        ],
    )
    .expect("wider buckets");
}

#[test]
fn hpus_and_sweep_cells_are_bounded() {
    // 2^40 HPUs panicked on a remainder by zero in the RSS table, and a
    // strategy run's report aborted allocating 8 TiB of per-HPU series.
    let huge = "scheduling.hpus=1099511627776";
    assert_rejected("traffic.json", &[huge], "scenario.scheduling.hpus");
    assert_rejected("strategy_run.json", &[huge], "scenario.scheduling.hpus");
    compile_watched("strategy_run.json", &["scheduling.hpus=1024"]).expect("at the bound");
    assert_rejected(
        "strategy_run.json",
        &["scheduling.hpus=1025"],
        "scenario.scheduling.hpus",
    );
    // Aborted allocating 52 TB of sweep cells; smaller seed counts ran
    // for hours. The bound is 4096 (seed, scale) cells.
    assert_rejected(
        "fault_sweep.json",
        &["sweep.seeds=1099511627776"],
        "scenario.sweep",
    );
    compile_watched(
        "fault_sweep.json",
        &["sweep.seeds=4096", "sweep.scales=[1.0]"],
    )
    .expect("at the bound");
    compile_watched("fault_sweep.json", &["sweep.seeds=1365"]).expect("4095 cells");
    assert_rejected("fault_sweep.json", &["sweep.seeds=1366"], "scenario.sweep");
}

#[test]
fn telemetry_keys_a_kind_ignores_are_refused_with_their_path() {
    // A fault sweep once accepted `telemetry.ring_capacity` and recorded
    // no trace; only a strategy run's `--trace-out` reads a ring, and
    // only strategy-run traces and traffic cells bucket time series.
    let ring = "telemetry.ring_capacity=1000";
    let bucket = "telemetry.bucket_ps=5000";
    for name in ["fault_sweep.json", "fig16.json", "ddt_host_compare.json"] {
        assert_rejected(name, &[ring], "scenario.telemetry.ring_capacity");
        assert_rejected(name, &[bucket], "scenario.telemetry.bucket_ps");
    }
    assert_rejected("traffic.json", &[ring], "scenario.telemetry.ring_capacity");
    compile_watched("traffic.json", &[bucket]).expect("traffic reads bucket_ps");
    compile_watched("strategy_run.json", &[ring, bucket]).expect("a strategy run reads both");
}

#[test]
fn fault_and_scheduling_keys_traffic_ignores_are_refused_with_their_path() {
    // Each of these once ran a traffic scenario and wrote the default
    // artifact: a cell's losses are admission rejections, its messages'
    // packets arrive in wire order, its mixes fix every datatype and
    // count, and its cells commit at the default ε.
    for set in [
        "faults.drop=0.2",
        "faults.duplicate=0.1",
        "faults.corrupt=0.01",
        "faults.reorder_ns=2000",
    ] {
        assert_rejected("traffic.json", &[set], "scenario.faults");
    }
    for (set, path) in [
        (
            "scheduling.out_of_order=7",
            "scenario.scheduling.out_of_order",
        ),
        ("scheduling.epsilon=0.05", "scenario.scheduling.epsilon"),
        ("scheduling.copies=4", "scenario.scheduling.copies"),
    ] {
        assert_rejected("traffic.json", &[set], path);
    }
    // An inert fault section and the default scheduling values change
    // nothing and stay legal.
    let plan = shipped_with(
        "traffic.json",
        &[
            "faults.seed=9",
            "scheduling.epsilon=0.2",
            "scheduling.copies=1",
        ],
    );
    assert!(matches!(plan, Plan::Traffic(_)), "{plan:?}");
    compile_watched(
        "strategy_run.json",
        &[
            "faults.drop=0.2",
            "scheduling.out_of_order=7",
            "scheduling.epsilon=0.05",
            "scheduling.copies=4",
        ],
    )
    .expect("a strategy run reads them all");
}

#[test]
fn fault_scheduling_and_sweep_keys_other_kinds_ignore_are_refused_with_their_path() {
    // Each of these once ran and wrote the default artifact. Fig. 16
    // receives every row losslessly on a 16-HPU NIC at the default ε and
    // the workload's own count; the host comparison runs no NIC.
    for name in ["fig16.json", "ddt_host_compare.json"] {
        for set in [
            "faults.drop=0.2",
            "faults.duplicate=0.1",
            "faults.corrupt=0.01",
            "faults.reorder_ns=2000",
            "faults.seed=9",
        ] {
            assert_rejected(name, &[set], "scenario.faults");
        }
        for (set, path) in [
            ("scheduling.hpus=4", "scenario.scheduling.hpus"),
            ("scheduling.epsilon=0.05", "scenario.scheduling.epsilon"),
            ("scheduling.copies=4", "scenario.scheduling.copies"),
            (
                "scheduling.out_of_order=7",
                "scenario.scheduling.out_of_order",
            ),
        ] {
            assert_rejected(name, &[set], path);
        }
        compile_watched(
            name,
            &[
                "faults.seed=1",
                "scheduling.hpus=16",
                "scheduling.epsilon=0.2",
            ],
        )
        .expect("the default values change nothing and stay legal");
    }
    // A fault sweep commits its cells at the default ε and reorders
    // packets only through `faults.reorder_ns`. It reads `faults.seed`
    // no more than the other kinds do (its cells take `sweep.seed0`),
    // but the benchmark's fault-sweep document sets it.
    assert_rejected(
        "fault_sweep.json",
        &["scheduling.epsilon=0.05"],
        "scenario.scheduling.epsilon",
    );
    assert_rejected(
        "fault_sweep.json",
        &["scheduling.out_of_order=7"],
        "scenario.scheduling.out_of_order",
    );
    compile_watched(
        "fault_sweep.json",
        &["faults.seed=9", "scheduling.hpus=4", "scheduling.copies=2"],
    )
    .expect("a fault sweep reads hpus and copies, and accepts faults.seed");
    // Only a fault sweep runs a (seed, scale) grid.
    for name in [
        "strategy_run.json",
        "traffic.json",
        "fig16.json",
        "ddt_host_compare.json",
    ] {
        for set in ["sweep.seeds=8", "sweep.seed0=3", "sweep.scales=[1.0]"] {
            assert_rejected(name, &[set], "scenario.sweep");
        }
        compile_watched(name, &["sweep.seeds=4"]).expect("the default sweep stays legal");
    }
}

#[test]
fn every_ci_nightly_and_benchmark_case_stays_under_the_bounds() {
    let cases: [(&str, &[&str]); 5] = [
        // Nightly traffic soak: 4 tenants and 16 HPUs.
        (
            "traffic.json",
            &[
                r#"traffic.apps=["COMB/b", "NAS-MG/a", "LAMMPS/a"]"#,
                "traffic.loads=[0.5, 1.0, 1.5, 2.0]",
                "traffic.arrival=mixed",
                "traffic.horizon_us=2000",
                "traffic.tenants=4",
                "scheduling.hpus=16",
            ],
        ),
        // Nightly fault sweep.
        ("fault_sweep.json", &["sweep.seeds=32"]),
        // The benchmark's fault sweep.
        (
            "fault_sweep.json",
            &["workload.count=2048", "sweep.seeds=8"],
        ),
        // The largest application span (NAS-MG/d, 255 MiB).
        (
            "strategy_run.json",
            &[r#"workload={"kind": "app", "label": "NAS-MG/d"}"#],
        ),
        ("strategy_run.json", &[]),
    ];
    for (name, sets) in cases {
        compile_watched(name, sets).unwrap_or_else(|e| panic!("{name} {sets:?}: {e}"));
    }
}
