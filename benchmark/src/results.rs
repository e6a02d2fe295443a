//! Result sets: `run` drives every workload through this binary's
//! single-workload mode and writes one results file with a provenance header;
//! `compare` applies the bounds in BENCHMARK.json to two such files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use nca_telemetry::report::Json;

use crate::measure::{END_TO_END, PER_LAYER, TIMED_JOBS, USAGE};
use crate::stats::{verdict, Bound, Direction, Summary, Verdict};
use crate::workload;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// `setup_s` regresses only past its relative bound *and* this many
/// seconds: a 25% move of a few microseconds is noise, not a change.
const SETUP_FLOOR_S: f64 = 1e-3;

/// A path in the repository this benchmark was built from.
pub fn repo_path(rel: &str) -> String {
    format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"))
}

pub fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a result came from: commit, dirty flag, core count, compiler,
/// worker count, seed, run length and runs per workload.
pub fn provenance(seed: u64, seconds: f64, runs: &[(&str, u64)]) -> String {
    let root = repo_path("");
    let commit = command_line("git", &["-C", &root, "rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| command_line("git", &["-C", &root, "status", "--porcelain"]))
        .map(|s| !s.is_empty());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let runs: Vec<String> = runs
        .iter()
        .map(|(w, n)| format!("{}: {n}", json_str(w)))
        .collect();
    format!(
        "{{\"commit\": {}, \"dirty\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"jobs\": {TIMED_JOBS}, \
         \"seed\": {seed}, \"seconds\": {seconds}, \"runs\": {{{}}}}}",
        commit.map_or("null".to_string(), |c| json_str(&c)),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        command_line(&rustc, &["-V"]).map_or("null".to_string(), |v| json_str(&v)),
        runs.join(", ")
    )
}

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub bound: Bound,
}

/// The parts of BENCHMARK.json the benchmark itself reads.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<(String, String)>,
}

pub fn spec() -> Result<Spec, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no `{key}` array"))
    };
    let field = |v: &Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: an entry has no `{key}`"))
    };
    let mut end_to_end = Vec::new();
    for m in list("end_to_end")? {
        let name = field(m, "name")?;
        let better = Direction::parse(&field(m, "better")?).ok_or(format!(
            "BENCHMARK.json: {name}: `better` is lower or higher"
        ))?;
        let rel = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or(format!("BENCHMARK.json: {name}: no bound"))?;
        end_to_end.push(MetricSpec {
            unit: field(m, "unit")?,
            bound: Bound {
                better,
                rel,
                abs_floor: if name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                },
            },
            name,
        });
    }
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
            .collect::<Result<_, String>>()?,
    })
}

/// One child invocation and its result line.
struct Invocation {
    workload: String,
    seed: u64,
    trace: bool,
    result: Json,
    line: String,
}

impl Invocation {
    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }

    /// Metric names contain dots, so this looks them up key by key
    /// rather than by a dotted path.
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

struct RunOpts {
    seed: u64,
    reps: u64,
    seconds: f64,
    quick: bool,
    out: Option<String>,
}

fn parse_run(args: &[String], default_seconds: f64) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        seed: 1,
        reps: 1,
        seconds: default_seconds,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--reps" => o.reps = value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn invoke(w: &str, seed: u64, o: &RunOpts, trace: bool) -> Result<Invocation, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {w}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    let result =
        Json::parse(&line).map_err(|e| format!("{w} seed {seed}: bad result line: {e}"))?;
    Ok(Invocation {
        workload: w.to_string(),
        seed,
        trace,
        result,
        line,
    })
}

/// `run`: `--reps` timed invocations (seeds `seed..seed+reps`) and one
/// traced invocation per workload; prints every metric and writes the
/// results file.
pub fn run_main(args: &[String]) -> i32 {
    let spec = match spec() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let o = match parse_run(args, spec.run_seconds) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let mut all = Vec::new();
    for w in &workload::ALL {
        for trace in [false, true] {
            let reps = if trace { 1 } else { o.reps };
            for seed in o.seed..o.seed + reps {
                match invoke(w.name, seed, &o, trace) {
                    Ok(inv) => all.push(inv),
                    Err(e) => {
                        eprintln!("FAIL {e}");
                        return 1;
                    }
                }
            }
        }
    }
    let failed = all.iter().filter(|i| !i.correct()).count();
    print_table(&all);
    let runs: Vec<(&str, u64)> = workload::ALL
        .iter()
        .map(|w| {
            let attempted = all
                .iter()
                .filter(|i| i.workload == w.name)
                .filter_map(|i| i.result.get("attempted").and_then(Json::as_f64))
                .sum::<f64>();
            (w.name, attempted as u64)
        })
        .collect();
    let mut doc = format!(
        "{{\n  \"provenance\": {},\n  \"kind\": \"ncmt-scenario-bench-results\",\n  \"version\": 1,\n  \"invocations\": [",
        provenance(o.seed, o.seconds, &runs)
    );
    for (k, inv) in all.iter().enumerate() {
        let _ = write!(
            doc,
            "{}\n    {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {}}}",
            if k > 0 { "," } else { "" },
            json_str(&inv.workload),
            inv.seed,
            u8::from(inv.trace),
            inv.line
        );
    }
    doc.push_str("\n  ]\n}\n");
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
        eprintln!("results → {path}");
    }
    if failed > 0 {
        eprintln!("FAIL: {failed} invocation(s) reported incorrect results");
        return 1;
    }
    0
}

fn fmt_summary(s: &Summary) -> String {
    format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n)
}

fn print_table(all: &[Invocation]) {
    for w in &workload::ALL {
        println!("\n{}", w.name);
        let of = |trace: bool| {
            all.iter()
                .filter(move |i| i.workload == w.name && i.trace == trace)
        };
        for (name, unit) in END_TO_END {
            let v: Vec<f64> = of(false).filter_map(|i| i.metric(name)).collect();
            if !v.is_empty() {
                println!("  {name:<24} {:<48} {unit}", fmt_summary(&Summary::of(&v)));
            }
        }
        for (name, unit) in PER_LAYER {
            let v: Vec<f64> = of(true).filter_map(|i| i.metric(name)).collect();
            if !v.is_empty() {
                println!("  {name:<24} {:<48} {unit}", fmt_summary(&Summary::of(&v)));
            }
        }
    }
}

fn load(path: &str) -> Result<Vec<Invocation>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let invs = doc
        .get("invocations")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no invocations"))?;
    invs.iter()
        .map(|i| {
            let num = |k: &str| i.get(k).and_then(Json::as_f64);
            Ok(Invocation {
                workload: i
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or(format!("{path}: an invocation has no workload"))?
                    .to_string(),
                seed: num("seed").unwrap_or(0.0) as u64,
                trace: num("trace") == Some(1.0),
                result: i
                    .get("result")
                    .cloned()
                    .ok_or(format!("{path}: no result"))?,
                line: String::new(),
            })
        })
        .collect()
}

/// `compare A B`: one row per (workload, end-to-end metric) with both
/// medians and quartiles and a verdict. Exit 1 when any row is worse or
/// missing.
pub fn compare_main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let (spec, a, b) = match (spec(), load(a), load(b)) {
        (Ok(s), Ok(a), Ok(b)) => (s, a, b),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let values = |set: &[Invocation]| {
        let mut m: BTreeMap<(String, bool, String), Vec<f64>> = BTreeMap::new();
        for inv in set.iter().filter(|i| i.correct()) {
            if let Some(Json::Obj(metrics)) = inv.result.get("metrics") {
                for (name, v) in metrics {
                    if let Some(x) = v.get("value").and_then(Json::as_f64) {
                        let key = (inv.workload.clone(), inv.trace, name.clone());
                        m.entry(key).or_default().push(x);
                    }
                }
            }
        }
        m
    };
    let (va, vb) = (values(&a), values(&b));
    println!(
        "{:<17} {:<24} {:<44} {:<44} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound"
    );
    let mut bad = 0;
    let rows = spec
        .end_to_end
        .iter()
        .map(|m| (false, &m.name, &m.unit, Some(&m.bound)))
        .chain(spec.per_layer.iter().map(|(n, u)| (true, n, u, None)));
    for (trace, name, unit, bound) in rows {
        for w in &spec.workloads {
            let key = (w.clone(), trace, name.clone());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                if bound.is_some() {
                    println!("{w:<17} {name:<24} missing from one of the sets");
                    bad += 1;
                }
                continue;
            };
            let (sa, sb) = (Summary::of(xa), Summary::of(xb));
            let change = if sa.median == 0.0 {
                0.0
            } else {
                100.0 * (sb.median - sa.median) / sa.median.abs()
            };
            let (bound, label) = match bound {
                Some(b) => {
                    let v = verdict(xa, xb, b);
                    bad += usize::from(v == Verdict::Worse);
                    (format!("{:.0}%", 100.0 * b.rel), v.label())
                }
                None => ("-".to_string(), "(layer)"),
            };
            println!(
                "{w:<17} {name:<24} {:<44} {:<44} {change:>+7.2}% {bound:>6}  {label} {unit}",
                fmt_summary(&sa),
                fmt_summary(&sb),
            );
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let spec = spec().expect("BENCHMARK.json parses");
        let names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
        for m in &spec.end_to_end {
            assert!(m.bound.rel > 0.0 && m.bound.rel <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn dotted_metric_names_are_found() {
        let line = crate::measure::result_line(1, 0, &[("core.input_s", 0.5, "s")]);
        let inv = Invocation {
            workload: "fig16".to_string(),
            seed: 1,
            trace: true,
            result: Json::parse(&line).expect("valid JSON"),
            line,
        };
        assert_eq!(inv.metric("core.input_s"), Some(0.5));
        assert_eq!(inv.metric("core"), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
