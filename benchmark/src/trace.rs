//! In-memory spans around calls into the layer crates.
//!
//! A span records id, parent, run, layer, name, start and end; spans
//! stay in memory and are written out when the benchmark ends. A span's
//! self time is its duration minus its children's. Spans opened with
//! [`Tracer::aside`] (telemetry-off twins, probes and checks) and
//! everything under them are excluded from the tiling: the self times
//! of the remaining spans, the root's (`other`) included, add up to the
//! traced wall time.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: usize,
    pub layer: &'static str,
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// A twin, probe or check, or inside one.
    pub aside: bool,
    /// One pool job of the real run (a row or a cell).
    pub job: bool,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end - self.start
    }

    fn key(&self) -> String {
        format!("{}.{}", self.layer, self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Counts per run, recorded outside aside spans only.
    counts: Vec<BTreeMap<&'static str, f64>>,
}

/// One traced run, reduced.
#[derive(Debug, Default)]
pub struct Split {
    /// Root duration minus the time spent aside.
    pub wall: f64,
    /// Self time per layer; the root's self time is `other`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Full durations of spans that count, by `layer.name`.
    pub total: BTreeMap<String, f64>,
    /// Full durations of aside spans, by `layer.name`.
    pub aside: BTreeMap<String, f64>,
    /// Time spent in aside spans directly under spans that count.
    pub aside_secs: f64,
    /// Durations of the pool jobs, less their aside children.
    pub jobs: Vec<f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Split {
    pub fn other(&self) -> f64 {
        self.layers.get("other").copied().unwrap_or(0.0)
    }

    /// How far Σ self times plus the aside time miss `outer`, the wall
    /// time measured around the whole traced run, as a share of it.
    pub fn tiling_error(&self, outer: f64) -> f64 {
        let sum: f64 = self.layers.values().sum::<f64>() + self.aside_secs;
        if outer > 0.0 {
            (sum - outer).abs() / outer
        } else {
            0.0
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Trace one run of the workload under a root span (layer `other`)
    /// and return its index.
    pub fn run<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (usize, R) {
        // A panic caught inside a previous run may have left spans open.
        self.stack.clear();
        self.counts.push(BTreeMap::new());
        let r = self.open("other", "run", false, false, f);
        (self.counts.len() - 1, r)
    }

    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.open(layer, name, false, false, f)
    }

    /// A span around one pool job of the real run.
    pub fn job<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.open(layer, name, false, true, f)
    }

    /// A span the real run does not contain: excluded from the tiling.
    pub fn aside<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.open(layer, name, true, false, f)
    }

    fn open<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        aside: bool,
        job: bool,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            run: self.counts.len().saturating_sub(1),
            layer,
            name,
            start,
            end: start,
            aside: aside || self.in_aside(),
            job,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        r
    }

    fn in_aside(&self) -> bool {
        self.stack.last().is_some_and(|&p| self.spans[p].aside)
    }

    /// Add `v` to a work counter of the current run, unless inside an
    /// aside span (a twin repeats work the real run does once).
    pub fn count(&mut self, key: &'static str, v: f64) {
        if !self.in_aside() {
            if let Some(c) = self.counts.last_mut() {
                *c.entry(key).or_default() += v;
            }
        }
    }

    pub fn split(&self, run: usize) -> Split {
        let spans: Vec<&Span> = self.spans.iter().filter(|s| s.run == run).collect();
        let mut child_secs: BTreeMap<usize, f64> = BTreeMap::new();
        let mut aside_children: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_secs.entry(p).or_default() += s.secs();
                if s.aside {
                    *aside_children.entry(p).or_default() += s.secs();
                }
            }
        }
        let mut out = Split {
            counts: self.counts.get(run).cloned().unwrap_or_default(),
            ..Split::default()
        };
        for s in &spans {
            let kids = child_secs.get(&s.id).copied().unwrap_or(0.0);
            if s.aside {
                *out.aside.entry(s.key()).or_default() += s.secs();
                if s.parent.is_some_and(|p| !self.spans[p].aside) {
                    out.aside_secs += s.secs();
                }
                continue;
            }
            *out.layers.entry(s.layer).or_default() += s.secs() - kids;
            *out.total.entry(s.key()).or_default() += s.secs();
            if s.job {
                out.jobs
                    .push(s.secs() - aside_children.get(&s.id).copied().unwrap_or(0.0));
            }
            if s.parent.is_none() {
                out.wall += s.secs();
            }
        }
        out.wall -= out.aside_secs;
        out
    }

    /// Every span in Chrome trace format (one thread per run), for
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut o = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            o,
            "{{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": {{\"name\": \"{workload}\"}}}}"
        );
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                o,
                ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}, \
                 \"workload\": \"{workload}\", \"run\": {}, \"aside\": {}}}}}",
                s.run,
                s.layer,
                s.key(),
                s.start * 1e6,
                s.secs() * 1e6,
                s.id,
                s.run,
                s.aside
            );
        }
        o.push_str("\n]}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_tile_the_wall_without_aside_spans() {
        let mut tr = Tracer::new();
        let outer = Instant::now();
        let (run, ()) = tr.run(|tr| {
            busy(200);
            tr.job("core", "cell", |tr| {
                tr.span("spin", "receive", |_| busy(500));
                tr.aside("spin", "twin", |tr| {
                    tr.span("spin", "receive", |_| busy(400));
                });
                tr.count("spin.pkts", 3.0);
            });
        });
        let outer = outer.elapsed().as_secs_f64();
        let s = tr.split(run);
        let layers: f64 = s.layers.values().sum();
        assert!((layers - s.wall).abs() < 1e-9, "{layers} vs {}", s.wall);
        assert!(s.tiling_error(outer) < 0.02, "{}", s.tiling_error(outer));
        assert!((s.aside_secs - s.aside["spin.twin"]).abs() < 1e-12);
        assert!(s.other() > 150e-6);
        assert!(s.layers["spin"] >= 500e-6);
        assert!(s.aside["spin.receive"] >= 400e-6);
        assert!(s.aside["spin.twin"] >= s.aside["spin.receive"]);
        assert_eq!(s.total["spin.receive"], s.layers["spin"]);
        assert_eq!(s.jobs.len(), 1);
        assert!(s.jobs[0] < s.total["core.cell"] - 350e-6);
        assert_eq!(s.counts["spin.pkts"], 3.0);
    }

    #[test]
    fn counts_inside_aside_spans_are_ignored() {
        let mut tr = Tracer::new();
        let (run, ()) = tr.run(|tr| {
            tr.aside("spin", "twin", |tr| tr.count("spin.pkts", 5.0));
            tr.count("spin.pkts", 1.0);
        });
        assert_eq!(tr.split(run).counts["spin.pkts"], 1.0);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let mut tr = Tracer::new();
        tr.run(|tr| tr.span("ddt", "unpack", |_| ()));
        let text = tr.chrome_json("fig16");
        let v = nca_telemetry::report::Json::parse(&text).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 3);
    }
}
