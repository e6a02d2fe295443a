//! One workload at one seed: the set-up, memory, timed and traced
//! passes, every correctness check, and the one-line JSON result.
//!
//! `--trace 0` reports the end-to-end metrics from the timed pass
//! (`--jobs 2`, tracing off), its times scaled to the reference box's
//! speed by `speed::probe`; `--trace 1` reports the per-layer metrics
//! from the traced pass (`--jobs 1`), with jobs-2 and memory runs in
//! between for the pool and overhead ratios. Both start with set-up and
//! one memory-pass run, whose artifact every later run must reproduce.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nca_scenario::{parse_scenario, Outcome, Plan, RunOptions};
use nca_sim::Pool;

use crate::alloc;
use crate::decompose;
use crate::results::{json_str, provenance, repo_path};
use crate::speed::{self, REFERENCE_PROBE_S};
use crate::stats::{median, tail, Summary};
use crate::trace::{Split, Tracer};
use crate::workload::{self, Workload};

/// Workers of the timed pass: the core count of the 2-core reference
/// box, fixed so results stay comparable across machines.
pub const TIMED_JOBS: usize = 2;
/// `setup_s` samples parse + compile at least this often and this long
/// before the first run, then for `SETUP_BURST_SECS` after every timed
/// run. Set-up takes microseconds, and the host's contention swings
/// such short work by up to 2x for tens of seconds at a time, so the
/// samples are spread over the whole timed pass.
const SETUP_MIN_REPS: usize = 11;
const SETUP_MIN_SECS: f64 = 0.1;
const SETUP_BURST_SECS: f64 = 0.01;

/// The `--trace 0` metrics, in BENCHMARK.json order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_msgs_per_s", "1/s"),
    ("peak_heap_mib", "MiB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
];

/// The `--trace 1` metrics, in BENCHMARK.json order, with units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.input_s", "s"),
    ("core.useful_ratio", "ratio"),
    ("core.strategy_build_s", "s"),
    ("core.baselines_s", "s"),
    ("spin.receive_s", "s"),
    ("spin.pkts", "count"),
    ("spin.dma_writes", "count"),
    ("spin.pkts_per_s", "1/s"),
    ("telemetry.capture_s", "s"),
    ("telemetry.capture_ratio", "ratio"),
    ("telemetry.drain_s", "s"),
    ("telemetry.events", "count"),
    ("workloads.generate_s", "s"),
    ("traffic.config_s", "s"),
    ("traffic.schedule_s", "s"),
    ("traffic.engine_s", "s"),
    ("traffic.offered", "count"),
    ("traffic.admit_ratio", "ratio"),
    ("fault.transmissions", "count"),
    ("fault.retransmissions", "count"),
    ("fault.goodput_ratio", "ratio"),
    ("ddt.pack_s", "s"),
    ("ddt.unpack_s", "s"),
    ("ddt.blocks", "count"),
    ("scenario.render_s", "s"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("pool.jobs1_wall_s", "s"),
    ("pool.speedup", "ratio"),
    ("pool.balance", "ratio"),
    ("trace.overhead", "ratio"),
    ("other_share", "ratio"),
];

pub const USAGE: &str =
    "usage: scenario-bench --workload <fig16|traffic|fault_sweep|ddt_host_compare> \
--seed <n> --seconds <s> --trace <0|1> [--quick]
       scenario-bench run [--seed <n>] [--reps <n>] [--seconds <s>] [--quick] [--out <file>]
       scenario-bench compare <A.json> <B.json>";

pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One run per pass, every check on.
    pub quick: bool,
}

impl Opts {
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
            (None, None, None, None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(workload::find(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            quick,
        })
    }
}

/// Process CPU time, user + system, of every thread so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` on
    // 64-bit targets (two `struct timeval`s of two `long`s, then
    // fourteen `long`s), and `u` is a live, writable value of it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cpu_s reads getrusage with the 64-bit Linux struct layout");

/// Run `f` under a deadline. Past it, print `expiry` as the result line
/// and exit 1, so a hung run (the pool's steal-path deadlock among
/// them) becomes a failure that names the workload, not a hung job.
fn guarded<R>(deadline: Duration, what: &str, expiry: &str, f: impl FnOnce() -> R) -> R {
    let (done, wait) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            if wait.recv_timeout(deadline) == Err(mpsc::RecvTimeoutError::Timeout) {
                eprintln!(
                    "watchdog: {what} passed its {:.1} s deadline; counted as failed",
                    deadline.as_secs_f64()
                );
                println!("{expiry}");
                let _ = std::io::stdout().flush();
                std::process::exit(1);
            }
        });
        let r = f();
        drop(done);
        r
    })
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string());
    format!("panic: {msg}")
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line of stdout, what a harness reads.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics_json(metrics)
    )
}

struct Ran {
    wall: f64,
    cpu: f64,
    outcome: Result<Outcome, String>,
}

struct Bench<'a> {
    opts: &'a Opts,
    /// The scenario document.
    text: String,
    plan: Plan,
    attempted: u64,
    failed: u64,
    /// The first memory-pass artifact, which every later run must match.
    reference: Option<String>,
}

impl Bench<'_> {
    fn fail(&mut self, pass: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAIL {} {pass}: {why}", self.opts.workload.name);
    }

    fn guarded<R>(&self, pass: &str, f: impl FnOnce() -> R) -> R {
        let w = self.opts.workload;
        let expiry = result_line(self.attempted + 1, self.failed + 1, &[]);
        guarded(w.deadline(), &format!("{} {pass} run", w.name), &expiry, f)
    }

    fn run_plan(&self, pool: &Pool, pass: &str) -> Ran {
        self.guarded(pass, || {
            let (c0, t0) = (cpu_seconds(), Instant::now());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.plan.run(pool, &RunOptions::default())
            }));
            Ran {
                wall: t0.elapsed().as_secs_f64(),
                cpu: cpu_seconds() - c0,
                outcome: outcome.map_err(panic_message),
            }
        })
    }

    /// Count one run and check its outcome; the artifact when it passed.
    fn judge(&mut self, pass: &str, outcome: Result<Outcome, String>) -> Option<String> {
        self.attempted += 1;
        let checked = outcome.and_then(|o| {
            if let Some(f) = o.fail {
                return Err(f.trim().to_string());
            }
            let text = o.artifact.ok_or("the run produced no artifact")?.text;
            self.opts.workload.check_artifact(self.opts.seed, &text)?;
            match &self.reference {
                Some(r) if *r != text => {
                    Err("artifact differs from the --jobs 1 memory-pass artifact".to_string())
                }
                _ => Ok(text),
            }
        });
        checked.map_err(|why| self.fail(pass, &why)).ok()
    }

    /// One `--jobs 1` run with the counting allocator on.
    fn memory_run(&mut self) -> Option<(f64, alloc::Usage)> {
        alloc::start();
        let ran = self.run_plan(&Pool::serial(), "memory");
        let usage = alloc::stop();
        let text = self.judge("memory", ran.outcome)?;
        self.reference.get_or_insert(text);
        Some((ran.wall, usage))
    }

    fn timed_pass(
        &mut self,
        mut setup_times: Vec<f64>,
        memory: Option<(f64, alloc::Usage)>,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let pool = Pool::new(TIMED_JOBS);
        let (mut walls, mut cpus, mut probes) = (Vec::new(), Vec::new(), Vec::new());
        let t0 = Instant::now();
        loop {
            probes.push(speed::probe(TIMED_JOBS));
            let ran = self.run_plan(&pool, "timed");
            if self.judge("timed", ran.outcome).is_some() {
                walls.push(ran.wall);
                cpus.push(ran.cpu);
            }
            if let Err(e) = setup(&self.text, 1, SETUP_BURST_SECS, &mut setup_times) {
                self.fail("setup", &e);
            }
            if self.opts.quick || t0.elapsed().as_secs_f64() >= self.opts.seconds {
                break;
            }
        }
        let (Some((_, usage)), Some(reference), false) =
            (memory, &self.reference, walls.is_empty())
        else {
            return Vec::new();
        };
        let msgs = match self.opts.workload.sim_messages(reference) {
            Ok(n) => n,
            Err(e) => {
                self.fail("timed", &format!("cannot count messages: {e}"));
                return Vec::new();
            }
        };
        // Raw host seconds go to stderr; the result line holds them
        // scaled to the reference box's speed. Set-up times come scaled
        // burst by burst.
        let scale = REFERENCE_PROBE_S / median(&probes);
        for (name, v) in [
            ("wall_s", &walls),
            ("cpu_s", &cpus),
            ("probe_s", &probes),
            ("setup_s", &setup_times),
        ] {
            let s = Summary::of(v);
            let tail = tail(v).map_or("n/a (n < 11)".to_string(), |(p, x)| {
                format!("p{p:.0} {x:.6}")
            });
            eprintln!(
                "{:<16} {name:<8} n {:>4}  median {:.6}  q1 {:.6}  q3 {:.6}  {tail}",
                self.opts.workload.name, s.n, s.median, s.q1, s.q3
            );
        }
        eprintln!(
            "{:<16} raw wall_s and cpu_s x {scale:.4} = reference-box times",
            self.opts.workload.name
        );
        let wall = scale * median(&walls);
        vec![
            ("wall_s", wall, "s"),
            ("cpu_s", scale * median(&cpus), "s"),
            ("sim_msgs_per_s", msgs / wall, "1/s"),
            (
                "peak_heap_mib",
                usage.peak_bytes as f64 / (1u64 << 20) as f64,
                "MiB",
            ),
            ("setup_s", median(&setup_times), "s"),
            (
                "ok_frac",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    }

    fn traced_run(&mut self, tr: &mut Tracer, first: bool, pool: &Pool) -> Option<Split> {
        let reference = self.reference.clone().unwrap_or_default();
        let t0 = Instant::now();
        let (run, res) = self.guarded("traced", || {
            tr.run(|tr| {
                catch_unwind(AssertUnwindSafe(|| {
                    decompose::traced(tr, &self.plan, &reference, first, pool)
                }))
            })
        });
        let outer = t0.elapsed().as_secs_f64();
        self.attempted += 1;
        if let Err(why) = res.map_err(panic_message).and_then(|r| r) {
            self.fail("traced", &why);
            return None;
        }
        let split = tr.split(run);
        let err = split.tiling_error(outer);
        if err > 0.02 {
            self.fail(
                "traced",
                &format!("spans miss the traced wall by {:.1}%", err * 100.0),
            );
            return None;
        }
        if split.other() > 0.10 * split.wall {
            eprintln!(
                "warning: {} other_share {:.1}% exceeds 10%",
                self.opts.workload.name,
                100.0 * split.other() / split.wall
            );
        }
        Some(split)
    }

    fn traced_pass(
        &mut self,
        memory: Option<(f64, alloc::Usage)>,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let jobs2 = Pool::new(TIMED_JOBS);
        let mut tracer = Tracer::new();
        // The first memory run fills the caches, so its wall is not
        // compared with the warm jobs-2 and traced runs.
        let (mut splits, mut walls1, mut walls2) = (Vec::new(), Vec::new(), Vec::new());
        let t0 = Instant::now();
        loop {
            splits.extend(self.traced_run(&mut tracer, splits.is_empty(), &jobs2));
            let ran = self.run_plan(&jobs2, "jobs-2");
            if self.judge("jobs-2", ran.outcome).is_some() {
                walls2.push(ran.wall);
            }
            walls1.extend(self.memory_run().map(|(wall, _)| wall));
            if self.opts.quick || t0.elapsed().as_secs_f64() >= self.opts.seconds {
                break;
            }
        }
        let Some((_, usage)) = memory else {
            return Vec::new();
        };
        if splits.is_empty() || walls1.is_empty() || walls2.is_empty() {
            return Vec::new();
        }
        let per_run: Vec<BTreeMap<&str, f64>> = splits.iter().map(layer_values).collect();
        let med = |key: &str| median(&per_run.iter().map(|m| m[key]).collect::<Vec<_>>());
        let (wall1, wall2) = (median(&walls1), median(&walls2));
        let speedup = wall1 / wall2;
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "alloc.count" => usage.count as f64,
                    "alloc.bytes" => usage.bytes as f64,
                    "pool.jobs1_wall_s" => wall1,
                    "pool.speedup" => speedup,
                    "pool.balance" => speedup / med("pool.ideal"),
                    "trace.overhead" => med("trace.wall") / wall1 - 1.0,
                    _ => med(name),
                };
                (name, v, unit)
            })
            .collect();
        self.write_trace(&tracer, &splits, &metrics);
        metrics
    }

    fn write_trace(&self, tr: &Tracer, splits: &[Split], metrics: &[(&str, f64, &str)]) {
        let w = self.opts.workload.name;
        let mut o = format!(
            "{{\n  \"provenance\": {},\n  \"workload\": {},\n  \"seed\": {},\n  \"runs\": [",
            provenance(self.opts.seed, self.opts.seconds, &[]),
            json_str(w),
            self.opts.seed
        );
        fn object<'a>(entries: impl Iterator<Item = (&'a str, &'a f64)>) -> String {
            let body: Vec<String> = entries
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        for (i, s) in splits.iter().enumerate() {
            let _ = write!(
                o,
                "{}\n    {{\"wall_s\": {}, \"aside_s\": {}, \"other_share\": {}, \
                 \"layers\": {}, \"spans\": {}, \"aside\": {}}}",
                if i > 0 { "," } else { "" },
                s.wall,
                s.aside_secs,
                s.other() / s.wall,
                object(s.layers.iter().map(|(k, v)| (*k, v))),
                object(s.total.iter().map(|(k, v)| (k.as_str(), v))),
                object(s.aside.iter().map(|(k, v)| (k.as_str(), v))),
            );
        }
        let _ = write!(o, "\n  ],\n  \"metrics\": {}\n}}\n", metrics_json(metrics));
        let dir = repo_path("benchmark/out");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(format!("{dir}/{w}.layers.json"), &o))
            .and_then(|()| std::fs::write(format!("{dir}/{w}.trace.json"), tr.chrome_json(w)));
        match written {
            Ok(()) => {
                eprintln!("trace: benchmark/out/{w}.trace.json, benchmark/out/{w}.layers.json")
            }
            Err(e) => eprintln!("warning: cannot write the trace under {dir}: {e}"),
        }
    }
}

/// Every per-layer quantity one traced run gives, by metric name, plus
/// `trace.wall` and `pool.ideal` for the ratios.
fn layer_values(s: &Split) -> BTreeMap<&'static str, f64> {
    let t = |k: &str| s.total.get(k).copied().unwrap_or(0.0);
    let a = |k: &str| s.aside.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| s.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64, none: f64| if den > 0.0 { num / den } else { none };
    // Twins re-run a captured receive with telemetry off.
    let twin = a("spin.receive") + a("traffic.engine");
    let captured = t("spin.receive_captured") + t("traffic.engine");
    let receive = t("spin.receive") + twin;
    // The ideal speedup of the pool jobs on TIMED_JOBS workers, the
    // serial remainder of the run included.
    let jobs: f64 = s.jobs.iter().sum();
    let longest = s.jobs.iter().copied().fold(0.0, f64::max);
    let ideal = s.wall / (s.wall - jobs + (jobs / TIMED_JOBS as f64).max(longest));
    BTreeMap::from([
        ("core.input_s", t("core.input")),
        (
            "core.useful_ratio",
            ratio(c("core.input_msg_bytes"), c("core.input_span_bytes"), 0.0),
        ),
        ("core.strategy_build_s", t("core.strategy_build")),
        ("core.baselines_s", t("core.baselines")),
        ("spin.receive_s", receive),
        ("spin.pkts", c("spin.pkts")),
        ("spin.dma_writes", c("spin.dma_writes")),
        ("spin.pkts_per_s", ratio(c("spin.pkts"), receive, 0.0)),
        (
            "telemetry.capture_s",
            if twin > 0.0 { captured - twin } else { 0.0 },
        ),
        ("telemetry.capture_ratio", ratio(captured, twin, 1.0)),
        ("telemetry.drain_s", t("telemetry.drain")),
        ("telemetry.events", c("telemetry.events")),
        ("workloads.generate_s", t("workloads.generate")),
        ("traffic.config_s", t("traffic.config")),
        ("traffic.schedule_s", a("traffic.schedule")),
        ("traffic.engine_s", t("traffic.engine")),
        ("traffic.offered", c("traffic.offered")),
        (
            "traffic.admit_ratio",
            ratio(c("traffic.admitted"), c("traffic.offered"), 0.0),
        ),
        ("fault.transmissions", c("fault.transmissions")),
        ("fault.retransmissions", c("fault.retransmissions")),
        (
            "fault.goodput_ratio",
            ratio(c("fault.packets"), c("fault.transmissions"), 0.0),
        ),
        ("ddt.pack_s", t("ddt.pack")),
        ("ddt.unpack_s", t("ddt.unpack")),
        ("ddt.blocks", c("ddt.blocks")),
        (
            "scenario.render_s",
            t("scenario.render") + t("telemetry.render"),
        ),
        ("other_share", ratio(s.other(), s.wall, 0.0)),
        ("trace.wall", s.wall),
        ("pool.ideal", ideal),
    ])
}

/// Parse and compile `text` at least `min_reps` times and for at least
/// `min_secs`, adding each repetition's time to `times`; the last plan.
/// The times are in reference-box seconds, scaled by a probe run on this
/// thread just before: a vCPU's speed changes within seconds, and
/// microsecond work follows it more closely than the plans do.
fn setup(text: &str, min_reps: usize, min_secs: f64, times: &mut Vec<f64>) -> Result<Plan, String> {
    let scale = REFERENCE_PROBE_S / speed::probe_here();
    let (start, mut reps) = (Instant::now(), 0);
    loop {
        let t0 = Instant::now();
        let plan = parse_scenario(text)?.compile()?;
        times.push(scale * t0.elapsed().as_secs_f64());
        reps += 1;
        if reps >= min_reps && start.elapsed().as_secs_f64() >= min_secs {
            return Ok(plan);
        }
    }
}

pub fn main(args: &[String]) -> i32 {
    let opts = match Opts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let text = opts.workload.scenario(opts.seed);
    let mut setup_times = Vec::new();
    let plan = match setup(&text, SETUP_MIN_REPS, SETUP_MIN_SECS, &mut setup_times) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("FAIL {} setup: {e}", opts.workload.name);
            println!("{}", result_line(1, 1, &[]));
            return 1;
        }
    };
    let mut b = Bench {
        opts: &opts,
        text,
        plan,
        attempted: 0,
        failed: 0,
        reference: None,
    };
    let memory = b.memory_run();
    let metrics = if opts.trace {
        b.traced_pass(memory)
    } else {
        b.timed_pass(setup_times, memory)
    };
    if metrics.is_empty() && b.failed == 0 {
        b.fail("report", "no metrics");
    }
    for (name, value, unit) in &metrics {
        eprintln!("{:<16} {name:<24} {value:>16.6} {unit}", opts.workload.name);
    }
    println!("{}", result_line(b.attempted, b.failed, &metrics));
    i32::from(b.failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_telemetry::report::Json;

    #[test]
    fn every_per_layer_metric_has_a_source() {
        let values = layer_values(&Split::default());
        let from_other_passes = [
            "alloc.count",
            "alloc.bytes",
            "pool.jobs1_wall_s",
            "pool.speedup",
            "pool.balance",
            "trace.overhead",
        ];
        for (name, _) in PER_LAYER {
            assert!(
                values.contains_key(name) || from_other_passes.contains(&name),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(3, 0, &[("wall_s", 1.25, "s"), ("x", f64::NAN, "s")]);
        let v = Json::parse(&line).expect("valid JSON");
        let Json::Obj(keys) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.path("metrics.wall_s.value"), Some(&Json::Num(1.25)));
        assert_eq!(v.path("metrics.x.value"), Some(&Json::Num(0.0)));
        let failed = Json::parse(&result_line(3, 1, &[])).expect("valid JSON");
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }
}
