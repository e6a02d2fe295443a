//! End-to-end tests of `ncmt_cli run`, `--report-out`, `--profile` and
//! `report-diff`: the emitted artifact parses with the advertised keys,
//! self-diff is clean (exit 0), a seeded regression trips the exit
//! code, and bad arguments exit 2.

use std::collections::BTreeMap;
use std::process::Command;

use nca_telemetry::report::{
    HistSummary, Json, ModelValidation, ReportConfig, RunReportDoc, StrategyReport,
};

const CLI: &str = env!("CARGO_BIN_EXE_ncmt_cli");

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ncmt-report-cli-{}-{name}", std::process::id()));
    p
}

/// The CI strategy run: 512×16/32 doubles on 16 HPUs.
const STRATEGY_RUN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/strategy_run.json"
);

fn run_report(path: &std::path::Path) {
    let out = Command::new(CLI)
        .args(["run", STRATEGY_RUN, "--report-out"])
        .arg(path)
        .output()
        .expect("run ncmt_cli");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn report_out_emits_a_parsable_document_with_required_keys() {
    let path = tmp_path("doc.json");
    run_report(&path);
    let text = std::fs::read_to_string(&path).expect("report written");
    let v = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some(RunReportDoc::KIND)
    );
    assert_eq!(
        v.path("version").and_then(Json::as_f64),
        Some(RunReportDoc::VERSION as f64)
    );
    for key in ["datatype", "msg_bytes", "npkt", "gamma", "hpus", "epsilon"] {
        assert!(
            v.path(&format!("config.{key}")).is_some(),
            "config.{key} missing"
        );
    }
    assert_eq!(
        v.path("trace_dropped_events").and_then(Json::as_f64),
        Some(0.0),
        "a report-only run captures no trace, so it drops nothing"
    );
    let strats = v.get("strategies").and_then(Json::as_arr).expect("array");
    assert_eq!(strats.len(), 4);
    for s in strats {
        let name = s.get("name").and_then(Json::as_str).unwrap();
        let e2e = s.path("end_to_end_ps").and_then(Json::as_f64).unwrap();
        let sum = s.path("attribution_sum_ps").and_then(Json::as_f64).unwrap();
        assert!(e2e > 0.0, "{name}: end_to_end_ps");
        assert_eq!(sum, e2e, "{name}: attribution must tile the window");
        assert!(
            s.path("histograms.handler_ps.p99")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0,
            "{name}: handler histogram"
        );
        let peak = s
            .path("utilization.peak_queue_depth")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(peak > 0.0, "{name}: utilization block");
        let fracs = s
            .path("utilization.hpu_busy_frac")
            .and_then(Json::as_arr)
            .unwrap();
        assert!(!fracs.is_empty(), "{name}: per-HPU busy fractions");
        let model = s.path("model").unwrap();
        match name {
            "RW-CP" | "RO-CP" => assert!(
                model.path("sched_budget_ps").is_some(),
                "{name}: model block expected"
            ),
            _ => assert_eq!(model, &Json::Null, "{name}: no Δr plan"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// `ncmt_cli run --profile` acceptance: the artifact parses, carries
/// every phase, and at `--jobs 1` its phase totals tile the measured
/// wall-clock — the sum of attributed and unattributed time must equal
/// `wall_ns` within 2% (it is exact by construction; the slack guards
/// the JSON round-trip).
#[test]
fn profile_artifact_phase_totals_tile_the_wall_clock() {
    let path = tmp_path("profile.json");
    let out = Command::new(CLI)
        .args(["run", STRATEGY_RUN, "--set", "workload.count=256"])
        .args(["--jobs", "1", "--profile"])
        .arg(&path)
        .output()
        .expect("run ncmt_cli run --profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("profile written");
    let v = Json::parse(&text).expect("valid JSON");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("ncmt-profile"));
    let wall = v.path("wall_ns").and_then(Json::as_f64).unwrap();
    let attributed = v.path("attributed_ns").and_then(Json::as_f64).unwrap();
    let other = v.path("other_ns").and_then(Json::as_f64).unwrap();
    assert!(wall > 0.0);
    assert!(
        ((attributed + other) - wall).abs() <= 0.02 * wall,
        "attributed {attributed} + other {other} must tile wall {wall}"
    );
    let mut sum = 0.0;
    for phase in ["event_queue", "handler", "dma_copy", "telemetry", "alloc"] {
        let ns = v
            .path(&format!("totals.{phase}.ns"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("totals.{phase} missing"));
        sum += ns;
    }
    assert_eq!(sum, attributed, "totals must re-sum to attributed_ns");
    assert!(
        v.get("workers")
            .and_then(Json::as_arr)
            .is_some_and(|w| !w.is_empty()),
        "per-worker breakdown present"
    );
    let _ = std::fs::remove_file(&path);
}

/// Bad arguments, rejected overrides, keys a kind would ignore and
/// inputs over a compile-time bound all exit 2 with a message naming
/// the culprit; the legacy flag subcommands are gone.
#[test]
fn run_rejects_bad_input_with_exit_2() {
    let traffic = STRATEGY_RUN.replace("strategy_run.json", "traffic.json");
    let fig16 = STRATEGY_RUN.replace("strategy_run.json", "fig16.json");
    let ddt = STRATEGY_RUN.replace("strategy_run.json", "ddt_host_compare.json");
    let sweep = STRATEGY_RUN.replace("strategy_run.json", "fault_sweep.json");
    let cases: [(Vec<&str>, &str); 16] = [
        (
            vec!["run", STRATEGY_RUN, "--set", "workload.cuont=5"],
            "scenario.workload.cuont: unknown key",
        ),
        (
            vec!["run", STRATEGY_RUN, "--set", "workload.count"],
            "--set workload.count: expected path=value",
        ),
        (
            vec![
                "run",
                STRATEGY_RUN,
                "--set",
                "workload.count=100000",
                "--set",
                "workload.stride=1000000000",
            ],
            "scenario.workload: a receive span",
        ),
        (
            vec!["run", &traffic, "--set", "traffic.tenants=100000000"],
            "scenario.traffic.tenants",
        ),
        (
            vec!["run", &traffic, "--set", "faults.drop=0.2"],
            "scenario.faults: traffic scenarios inject no network faults",
        ),
        (
            vec!["run", &traffic, "--set", "scheduling.out_of_order=7"],
            "scenario.scheduling.out_of_order: traffic scenarios",
        ),
        (
            vec!["run", &traffic, "--set", "scheduling.epsilon=0.05"],
            "scenario.scheduling.epsilon: traffic cells commit",
        ),
        (
            vec!["run", &traffic, "--set", "scheduling.copies=4"],
            "scenario.scheduling.copies: traffic scenarios",
        ),
        (
            vec!["run", &fig16, "--set", "faults.drop=0.2"],
            "scenario.faults: fig16 scenarios",
        ),
        (
            vec!["run", &fig16, "--set", "scheduling.hpus=4"],
            "scenario.scheduling.hpus: fig16 scenarios",
        ),
        (
            vec!["run", &ddt, "--set", "scheduling.epsilon=0.05"],
            "scenario.scheduling.epsilon: ddt-host-compare scenarios",
        ),
        (
            vec!["run", &sweep, "--set", "scheduling.out_of_order=7"],
            "scenario.scheduling.out_of_order: fault-sweep cells",
        ),
        (
            vec!["run", &sweep, "--set", "scheduling.epsilon=0.05"],
            "scenario.scheduling.epsilon: fault-sweep cells",
        ),
        (
            vec!["run", STRATEGY_RUN, "--set", "sweep.seeds=8"],
            "scenario.sweep: only fault-sweep scenarios",
        ),
        (
            vec!["run", STRATEGY_RUN, "--count", "5"],
            "unknown run flag --count",
        ),
        (
            vec!["vector", "--count", "512"],
            "valid subcommands: run, list, report-diff, bench-diff",
        ),
    ];
    for (args, want) in cases {
        let out = Command::new(CLI)
            .args(&args)
            .output()
            .expect("run ncmt_cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

/// A 100 KB document of 50,000 nested arrays under an unknown key once
/// overflowed the main thread's stack (exit 134) in every subcommand
/// that parses JSON. The parser now refuses it at a bounded depth.
#[test]
fn deeply_nested_json_exits_2_in_every_parsing_subcommand() {
    let path = tmp_path("deep.json");
    let deep = format!(
        r#"{{"name": "deep", "version": 1, "kind": "strategy-run", "zz": {}{}}}"#,
        "[".repeat(50_000),
        "]".repeat(50_000)
    );
    std::fs::write(&path, deep).unwrap();
    let file = path.to_str().expect("utf-8 path");
    for args in [
        vec!["run", file],
        vec!["report-diff", file, file],
        vec!["bench-diff", file, file],
    ] {
        let out = Command::new(CLI)
            .args(&args)
            .output()
            .expect("run ncmt_cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than 256 levels at byte"),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_diff_of_a_report_with_itself_exits_zero() {
    let path = tmp_path("self.json");
    run_report(&path);
    let out = Command::new(CLI)
        .arg("report-diff")
        .arg(&path)
        .arg(&path)
        .output()
        .expect("run report-diff");
    assert!(
        out.status.success(),
        "self-diff must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_file(&path);
}

fn synthetic_doc(e2e: u64) -> RunReportDoc {
    let mut h = nca_telemetry::hist::LogHistogram::new();
    h.record_n(e2e / 10, 20);
    let mut histograms = BTreeMap::new();
    histograms.insert("handler_ps".to_string(), HistSummary::of(&h));
    histograms.insert("queue_wait_ps".to_string(), HistSummary::of(&h));
    RunReportDoc {
        version: RunReportDoc::VERSION,
        trace_dropped_events: 0,
        config: ReportConfig {
            datatype: "vector(MPI_DOUBLE)".to_string(),
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
            throughput_gbit: 100.0,
            nic_mem_bytes: 4096,
            nic_mem_hwm_bytes: 4096,
            dma_writes: 512,
            dma_bytes: 65536,
            dma_max_queue: 9,
            attribution: vec![("handler_proc", e2e)],
            hpu_busy_ps: e2e,
            hpu_utilization: 0.1,
            histograms,
            utilization: None,
            model: Some(ModelValidation {
                delta_r: 8192,
                delta_p: 4,
                num_checkpoints: 8,
                ckpt_nic_bytes: 2048,
                epsilon: 0.2,
                planned_epsilon_violated: false,
                t_ph_predicted_ps: 90_000,
                t_ph_measured_ps: 92_000.0,
                sched_budget_ps: 36_000,
                sched_overhead_ps: e2e / 100,
                epsilon_respected: true,
            }),
            faults: None,
        }],
    }
}

#[test]
fn report_diff_exits_nonzero_on_a_seeded_regression() {
    let base = tmp_path("base.json");
    let worse = tmp_path("worse.json");
    std::fs::write(&base, synthetic_doc(1_000_000).to_json()).unwrap();
    std::fs::write(&worse, synthetic_doc(1_300_000).to_json()).unwrap();
    let out = Command::new(CLI)
        .arg("report-diff")
        .arg(&base)
        .arg(&worse)
        .output()
        .expect("run report-diff");
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // A loose threshold waves the same change through.
    let out = Command::new(CLI)
        .args(["report-diff"])
        .arg(&base)
        .arg(&worse)
        .args(["--threshold", "0.5"])
        .output()
        .expect("run report-diff");
    assert_eq!(out.status.code(), Some(0));

    // Garbage input is an operational error, not a regression.
    let junk = tmp_path("junk.json");
    std::fs::write(&junk, "not json").unwrap();
    let out = Command::new(CLI)
        .arg("report-diff")
        .arg(&base)
        .arg(&junk)
        .output()
        .expect("run report-diff");
    assert_eq!(out.status.code(), Some(2), "parse failure must exit 2");
    for p in [&base, &worse, &junk] {
        let _ = std::fs::remove_file(p);
    }
}
