//! `ncmt_cli` — command-line experiment driver.
//!
//! Every experiment is a declarative scenario file (see `scenarios/`
//! and EXPERIMENTS.md) run by `run`; `--set path=value` overrides any
//! scenario key and `--profile` self-profiles the run:
//!
//! ```sh
//! # every strategy on a strided vector: 512 blocks of 16 doubles, stride 32
//! ncmt_cli run scenarios/strategy_run.json
//!
//! # 4096 blocks of 32 doubles at stride 64, 8 HPUs, out-of-order arrival
//! ncmt_cli run scenarios/strategy_run.json --set workload.count=4096 \
//!     --set workload.blocklen=32 --set workload.stride=64 \
//!     --set scheduling.hpus=8 --set scheduling.out_of_order=7
//!
//! # one of the Fig. 16 application workloads
//! ncmt_cli run scenarios/strategy_run.json --set 'workload={"kind":"app","label":"MILC/b"}'
//!
//! # the Fig. 16 table, with a host wall-clock profile
//! ncmt_cli run scenarios/fig16.json --jobs 1 --profile fig16.profile.json
//! ```

use std::time::Instant;

use nca_scenario::{parse_scenario_with, Outcome, Plan, RunOptions};
use nca_sim::{profile, Pool};
use nca_telemetry::report::{
    diff_reports, Json, ProfileDoc, ProfilePhase, ProfileWorker, DEFAULT_THRESHOLD,
};
use nca_workloads::apps::all_workloads;

/// One dispatch-table entry: every subcommand is a diverging function,
/// with an optional dedicated `--help` renderer (commands without one
/// fall back to the global usage).
struct Cmd {
    name: &'static str,
    help: Option<fn() -> !>,
    run: fn(&[String]) -> !,
}

/// The single subcommand table: lookup, help dispatch and the
/// unknown-subcommand message all derive from it.
const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "run",
        help: Some(run_usage),
        run: run_cmd,
    },
    Cmd {
        name: "list",
        help: None,
        run: list_cmd,
    },
    Cmd {
        name: "report-diff",
        help: None,
        run: report_diff,
    },
    Cmd {
        name: "bench-diff",
        help: None,
        run: bench_diff,
    },
];

fn names() -> Vec<&'static str> {
    COMMANDS.iter().map(|c| c.name).collect()
}

/// Whether the args ask for help (`--help`/`-h` anywhere).
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_f64(args: &[String], name: &str, default: f64) -> f64 {
    flag(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad {name}"))))
        .unwrap_or(default)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ncmt_cli <{}> [flags]  (see --help)",
        names().join("|")
    );
    std::process::exit(2)
}

fn usage() -> ! {
    println!(
        "ncmt_cli — datatype-offload experiment driver

subcommands:
  run      <SCENARIO.json> [flags]             compile and run a declarative
                                               scenario file (workload × traffic ×
                                               faults × scheduling × sweep; see
                                               scenarios/ and `ncmt_cli run --help`)
  list                                         list application workloads
  report-diff <BASE> <NEW> [--threshold T]     compare two --report-out files;
                                               exit 1 when any metric regresses
                                               more than T (default 0.05)
  bench-diff <BASE> <NEW> [--fail-over P]      compare two nca-criterion-baseline
             [--warn-over P] [--require A>B]   JSONs (BENCH_*.json) on per_sec;
                                               exit 1 when any bench is more than
                                               P% slower (default fail 10, warn 5)
                                               or a --require assertion fails"
    );
    std::process::exit(0)
}

fn run_usage() -> ! {
    println!(
        "ncmt_cli run — compile and run a declarative scenario file

A scenario is one JSON document naming the workload, fault model,
scheduling setup, telemetry capture, traffic mix and sweep axes; the
strict parser rejects unknown keys with the offending path. Scenario
kinds: strategy-run, fault-sweep, traffic, fig16, ddt-host-compare.
Shipped scenarios live in scenarios/; the full schema reference is in
EXPERIMENTS.md.

usage: ncmt_cli run <SCENARIO.json> [flags]

flags:
  --set PATH=VALUE  override one scenario key before the parser runs
                  (repeatable, applied in order). PATH is dotted from
                  the document root (workload.count, traffic.loads);
                  missing sections are created. VALUE is JSON, or a
                  string when it is not valid JSON:
                    --set traffic.arrival=mixed
                    --set 'traffic.apps=[\"COMB/b\",\"NAS-MG/a\"]'
                    --set 'workload={{\"kind\":\"app\",\"label\":\"MILC/b\"}}'
  --jobs N        worker threads (default: NCMT_JOBS, else cores;
                  artifacts are byte-identical at any N)
  --report-out F  write the scenario's machine-readable artifact to F
                  (run report, fault-sweep matrix, traffic document,
                  figure table or ddt-compare document, by kind)
  --trace-out F   strategy-run scenarios: write a Perfetto trace to F
  --profile F     attribute the run's host wall-clock to simulator
                  phases (event queue, handlers, DMA copies, telemetry,
                  allocation) and write an ncmt-profile JSON artifact to
                  F; at --jobs 1 the phases tile the wall-clock

exit status follows the scenario's own verification (e.g. 1 when a
fault-sweep cell is not byte-exact exactly-once); 2 on a bad argument,
a scenario the parser or compiler rejects, a trace whose
telemetry.bucket_ps is too fine for its run, or an unwritable path."
    );
    std::process::exit(0)
}

/// `run`'s arguments: the scenario path, then flags in any order.
#[derive(Default)]
struct RunArgs {
    path: String,
    sets: Vec<String>,
    jobs: Option<usize>,
    report_out: Option<String>,
    trace_out: Option<String>,
    profile_out: Option<String>,
}

fn run_args(args: &[String]) -> RunArgs {
    let path = args
        .get(1)
        .filter(|p| !p.starts_with("--"))
        .unwrap_or_else(|| die("run needs a scenario file; see `ncmt_cli run --help`"));
    let mut a = RunArgs {
        path: path.clone(),
        ..RunArgs::default()
    };
    let mut rest = args[2..].iter();
    while let Some(name) = rest.next() {
        let value = rest
            .next()
            .unwrap_or_else(|| die(&format!("{name} needs a value")))
            .clone();
        match name.as_str() {
            "--set" => a.sets.push(value),
            "--jobs" => a.jobs = Some(value.parse().unwrap_or_else(|_| die("bad --jobs"))),
            "--report-out" => a.report_out = Some(value),
            "--trace-out" => a.trace_out = Some(value),
            "--profile" => a.profile_out = Some(value),
            _ => die(&format!("unknown run flag {name}")),
        }
    }
    a
}

fn run_cmd(args: &[String]) -> ! {
    let a = run_args(args);
    if a.profile_out.is_some() && !profile::is_compiled() {
        die("--profile needs a binary built with the nca-sim `self-profile` feature");
    }
    let text = std::fs::read_to_string(&a.path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", a.path)));
    let sets: Vec<&str> = a.sets.iter().map(String::as_str).collect();
    let plan = parse_scenario_with(&text, &sets)
        .and_then(|scn| scn.compile())
        .unwrap_or_else(|e| die(&e));
    let pool = Pool::from_env(a.jobs);
    let opts = RunOptions {
        want_trace: a.trace_out.is_some(),
        want_report: a.report_out.is_some(),
    };
    match &a.profile_out {
        None => emit(plan.run(&pool, &opts), &a, None),
        Some(_) => {
            let (out, doc) = profiled(&plan, &pool, &opts, args.join(" "));
            emit(out, &a, Some(doc))
        }
    }
}

/// Run `plan` under the self-profiler: the profiled region is exactly
/// [`Plan::run`]. Phases nest innermost-wins, so on one worker the
/// totals are disjoint and tile the wall-clock (attributed + other =
/// wall); with more workers each reports its own breakdown.
fn profiled(plan: &Plan, pool: &Pool, opts: &RunOptions, command: String) -> (Outcome, ProfileDoc) {
    profile::reset();
    profile::set_enabled(true);
    let wall = Instant::now();
    let out = plan.run(pool, opts);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    profile::set_enabled(false);
    let snap = profile::snapshot();
    profile::reset();
    let doc = ProfileDoc {
        version: ProfileDoc::VERSION,
        command,
        wall_ns,
        workers: snap
            .iter()
            .map(|w| ProfileWorker {
                worker: w.worker as u64,
                phases: profile::Phase::ALL
                    .iter()
                    .map(|p| ProfilePhase {
                        phase: p.label().to_string(),
                        ns: w.ns[p.index()],
                        count: w.counts[p.index()],
                    })
                    .collect(),
            })
            .collect(),
    };
    (out, doc)
}

/// Print the phase table of a profile.
fn print_profile(doc: &ProfileDoc) {
    let pct = |ns: u64| {
        if doc.wall_ns > 0 {
            ns as f64 / doc.wall_ns as f64 * 100.0
        } else {
            0.0
        }
    };
    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>8}",
        "phase", "ms", "enters", "% wall"
    );
    for p in doc.totals() {
        println!(
            "{:<14} {:>12.3} {:>12} {:>8.1}",
            p.phase,
            p.ns as f64 / 1e6,
            p.count,
            pct(p.ns)
        );
    }
    println!(
        "{:<14} {:>12.3} {:>12} {:>8.1}",
        "other",
        doc.other_ns() as f64 / 1e6,
        "",
        pct(doc.other_ns())
    );
    println!(
        "{:<14} {:>12.3}  ({} worker(s); attributed + other = wall)",
        "wall",
        doc.wall_ns as f64 / 1e6,
        doc.workers.len()
    );
}

/// Print the run's table, write any requested artifacts, print the
/// verdict and the profile, and exit with the run's status.
fn emit(out: Outcome, a: &RunArgs, profile: Option<ProfileDoc>) -> ! {
    if let Some(e) = &out.refused {
        die(e);
    }
    let write = |path: &str, text: &str| {
        std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")))
    };
    print!("{}", out.stdout);
    if let Some(w) = &out.warn {
        eprintln!("{w}");
    }
    if let (Some(t), Some(path)) = (&out.trace, &a.trace_out) {
        write(path, &t.text);
        println!("{}", t.line.replace("{path}", path));
    }
    if let (Some(art), Some(path)) = (&out.artifact, &a.report_out) {
        write(path, &art.text);
        println!("{}", art.line.replace("{path}", path));
    }
    match (&out.fail, &out.verdict) {
        (Some(f), _) => eprintln!("{f}"),
        (None, Some(v)) => println!("{v}"),
        (None, None) => {}
    }
    if let (Some(doc), Some(path)) = (&profile, &a.profile_out) {
        print_profile(doc);
        write(path, &doc.to_json());
        println!("\nprofile  → {path}");
    }
    std::process::exit(if out.fail.is_some() { 1 } else { 0 })
}

fn list_cmd(_args: &[String]) -> ! {
    println!(
        "{:<14} {:<20} {:>10} {:>8}",
        "workload", "class", "size KiB", "gamma"
    );
    for w in all_workloads() {
        println!(
            "{:<14} {:<20} {:>10.1} {:>8.1}",
            w.label(),
            w.ddt_class,
            w.msg_bytes() as f64 / 1024.0,
            w.gamma(2048)
        );
    }
    std::process::exit(0)
}

fn report_diff(args: &[String]) -> ! {
    let (Some(base_path), Some(new_path)) = (args.get(1), args.get(2)) else {
        die("report-diff needs <BASE> <NEW>")
    };
    let threshold: f64 = flag(args, "--threshold")
        .map(|v| v.parse().unwrap_or_else(|_| die("bad --threshold")))
        .unwrap_or(DEFAULT_THRESHOLD);
    let parse = |path: &String| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2)
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2)
        })
    };
    let (base, new) = (parse(base_path), parse(new_path));
    let diff = diff_reports(&base, &new, threshold).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    print!("{}", diff.render());
    std::process::exit(if diff.regressions() > 0 { 1 } else { 0 })
}

/// `bench-diff`: gate a fresh criterion-shim baseline against a
/// committed one on throughput. This is what the CI `bench-gate` job
/// runs; the thresholds and the missing-bench policy live in
/// [`nca_bench::bench_diff`].
fn bench_diff(args: &[String]) -> ! {
    use nca_bench::bench_diff::{diff_baselines, parse_baseline, parse_require};
    let (Some(base_path), Some(new_path)) = (args.get(1), args.get(2)) else {
        die("bench-diff needs <BASE> <NEW>")
    };
    let warn_over = flag_f64(args, "--warn-over", 5.0);
    let fail_over = flag_f64(args, "--fail-over", 10.0);
    // Every `--require A>B` occurrence, in order.
    let requires: Vec<(String, String)> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--require")
        .map(|(i, _)| {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| die("--require needs a value"));
            parse_require(v).unwrap_or_else(|| die(&format!("bad --require {v:?} (want A>B)")))
        })
        .collect();
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2)
        });
        parse_baseline(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2)
        })
    };
    let (base, new) = (load(base_path), load(new_path));
    let diff = diff_baselines(&base, &new, warn_over, fail_over, &requires);
    print!("{}", diff.render());
    std::process::exit(if diff.failures() > 0 { 1 } else { 0 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == args[0]) else {
        if wants_help(&args) {
            usage();
        }
        die(&format!(
            "unknown subcommand {}; valid subcommands: {}",
            args[0],
            names().join(", ")
        ))
    };
    if wants_help(&args) {
        // Commands with a dedicated flag reference print it; the rest
        // fall back to the global usage — no special-case name list.
        match cmd.help {
            Some(help) => help(),
            None => usage(),
        }
    }
    (cmd.run)(&args)
}
