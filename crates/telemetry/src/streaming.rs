//! Streaming, bounded-memory aggregation of [`TraceEvent`]s.
//!
//! The ring sink retains every event, so a million-message traffic run
//! either blows memory or silently drops the head of the stream. A
//! [`StreamAggregate`] instead *folds* each event into incremental
//! reducers at emission time — counter sums, gauge last/high-water
//! marks, span count+total, instant counts, merged [`LogHistogram`]s,
//! and time-bucketed busy/occupancy series at a configurable sim-time
//! resolution — and retains nothing else. Memory is
//! O(metrics × tracks × buckets) regardless of how many events flow
//! through.
//!
//! Equivalence contract (CI-enforced, see the proptests in
//! `tests/streaming_equiv.rs`): for any event sequence, folding
//! incrementally and calling [`StreamAggregate::rollups`] yields a
//! result **byte-identical** to retaining the events and calling
//! [`aggregate::rollup`] on them. Sharded runs keep the contract too:
//! one aggregate per job, merged with [`StreamAggregate::merge`] in
//! serial job order, equals folding the merged stream (the same
//! job-order convention as [`crate::merge_ring_events`]).
//!
//! The one reducer that is not O(1) per metric is the `Value` reducer:
//! [`aggregate::rollup`] computes nearest-rank percentiles over the raw
//! observations, so byte-identical equivalence forces us to retain
//! them. Hot paths emit `Hist`/`Span`/`Counter` events, never per-packet
//! `Value`s, so this stays small; [`StreamAggregate::approx_bytes`]
//! accounts for it either way.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use nca_sim::stats;

use crate::aggregate::{ComponentRollup, ValueSummary};
use crate::hist::LogHistogram;
use crate::{EventKind, Recorder, Time, TraceEvent};

/// Gauge reducer state: last sample and high-water mark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeAgg {
    /// Most recent sample.
    pub last: f64,
    /// Largest sample since construction.
    pub hwm: f64,
}

/// Per-component reducer state (mirrors [`ComponentRollup`] plus the
/// gauge reducers `rollup` ignores).
#[derive(Debug, Clone, Default)]
struct CompAgg {
    counters: BTreeMap<&'static str, u64>,
    values: BTreeMap<&'static str, Vec<f64>>,
    spans: BTreeMap<&'static str, (usize, Time)>,
    instants: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, LogHistogram>,
    gauges: BTreeMap<(&'static str, u64), GaugeAgg>,
}

/// Key of one time series: `(component, name, track)`.
pub type SeriesKey = (&'static str, &'static str, u64);

/// Incremental fold of a trace-event stream; see the module docs for
/// the equivalence contract with [`aggregate::rollup`].
#[derive(Debug, Clone)]
pub struct StreamAggregate {
    bucket_ps: Time,
    comps: BTreeMap<&'static str, CompAgg>,
    /// Busy picoseconds per time bucket, per span series.
    busy: BTreeMap<SeriesKey, Vec<Time>>,
    /// Per-bucket maximum, per gauge series.
    gauge_peak: BTreeMap<SeriesKey, Vec<f64>>,
}

impl StreamAggregate {
    /// An empty aggregate bucketing its time series at `bucket_ps`
    /// picoseconds per bucket (must be positive).
    pub fn new(bucket_ps: Time) -> Self {
        assert!(bucket_ps > 0, "bucket width must be positive");
        StreamAggregate {
            bucket_ps,
            comps: BTreeMap::new(),
            busy: BTreeMap::new(),
            gauge_peak: BTreeMap::new(),
        }
    }

    /// The time-series bucket width (ps).
    pub fn bucket_ps(&self) -> Time {
        self.bucket_ps
    }

    /// Fold one event into the reducers.
    pub fn fold(&mut self, ev: &TraceEvent) {
        let comp = self.comps.entry(ev.component).or_default();
        match &ev.kind {
            EventKind::Counter { delta } => {
                *comp.counters.entry(ev.name).or_insert(0) += delta;
            }
            EventKind::Value { value } => {
                comp.values.entry(ev.name).or_default().push(*value);
            }
            EventKind::Span { end } => {
                let e = comp.spans.entry(ev.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += end.saturating_sub(ev.time);
                if *end > ev.time {
                    let series = self
                        .busy
                        .entry((ev.component, ev.name, ev.track))
                        .or_default();
                    fold_span(series, self.bucket_ps, ev.time, *end);
                }
            }
            EventKind::Instant => {
                *comp.instants.entry(ev.name).or_insert(0) += 1;
            }
            EventKind::Hist { hist } => {
                comp.hists.entry(ev.name).or_default().merge(hist);
            }
            EventKind::Gauge { value } => {
                let g = comp.gauges.entry((ev.name, ev.track)).or_insert(GaugeAgg {
                    last: *value,
                    hwm: f64::NEG_INFINITY,
                });
                g.last = *value;
                g.hwm = g.hwm.max(*value);
                let series = self
                    .gauge_peak
                    .entry((ev.component, ev.name, ev.track))
                    .or_default();
                let b = (ev.time / self.bucket_ps) as usize;
                if series.len() <= b {
                    series.resize(b + 1, f64::NEG_INFINITY);
                }
                series[b] = series[b].max(*value);
            }
        }
    }

    /// Fold `other` into `self`.
    ///
    /// Shards must be merged **in the order their events would have
    /// been emitted serially** (job order, the [`crate::merge_ring_events`]
    /// convention): counters/spans/instants/hists are commutative, but
    /// the retained `Value` observations and gauge `last` samples are
    /// order-sensitive.
    pub fn merge(&mut self, other: &StreamAggregate) {
        assert_eq!(
            self.bucket_ps, other.bucket_ps,
            "cannot merge aggregates with different bucket widths"
        );
        for (name, o) in &other.comps {
            let c = self.comps.entry(name).or_default();
            for (k, v) in &o.counters {
                *c.counters.entry(k).or_insert(0) += v;
            }
            for (k, v) in &o.values {
                c.values.entry(k).or_default().extend_from_slice(v);
            }
            for (k, &(n, total)) in &o.spans {
                let e = c.spans.entry(k).or_insert((0, 0));
                e.0 += n;
                e.1 += total;
            }
            for (k, v) in &o.instants {
                *c.instants.entry(k).or_insert(0) += v;
            }
            for (k, h) in &o.hists {
                c.hists.entry(k).or_default().merge(h);
            }
            for (k, g) in &o.gauges {
                let e = c.gauges.entry(*k).or_insert(GaugeAgg {
                    last: g.last,
                    hwm: f64::NEG_INFINITY,
                });
                e.last = g.last; // `other` is later in serial order
                e.hwm = e.hwm.max(g.hwm);
            }
        }
        for (k, v) in &other.busy {
            let series = self.busy.entry(*k).or_default();
            if series.len() < v.len() {
                series.resize(v.len(), 0);
            }
            for (a, b) in series.iter_mut().zip(v) {
                *a += b;
            }
        }
        for (k, v) in &other.gauge_peak {
            let series = self.gauge_peak.entry(*k).or_default();
            if series.len() < v.len() {
                series.resize(v.len(), f64::NEG_INFINITY);
            }
            for (a, b) in series.iter_mut().zip(v) {
                *a = a.max(*b);
            }
        }
    }

    /// The rollup this stream reduces to — byte-identical to
    /// [`aggregate::rollup`] over the same (merged) event sequence.
    pub fn rollups(&self) -> BTreeMap<String, ComponentRollup> {
        let mut out = BTreeMap::new();
        for (name, c) in &self.comps {
            let mut r = ComponentRollup::default();
            for (k, &v) in &c.counters {
                r.counters.insert(k.to_string(), v);
            }
            for (k, xs) in &c.values {
                let ps = stats::percentiles(xs, &[50.0, 95.0]).expect("non-empty");
                r.values.insert(
                    k.to_string(),
                    ValueSummary {
                        count: xs.len(),
                        mean: stats::mean(xs),
                        p50: ps[0],
                        p95: ps[1],
                        max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    },
                );
            }
            for (k, &v) in &c.spans {
                r.spans.insert(k.to_string(), v);
            }
            for (k, &v) in &c.instants {
                r.instants.insert(k.to_string(), v);
            }
            for (k, h) in &c.hists {
                r.hists.insert(k.to_string(), h.clone());
            }
            out.insert(name.to_string(), r);
        }
        out
    }

    /// Total of one counter (all tracks); 0 when absent.
    pub fn counter_total(&self, component: &str, name: &str) -> u64 {
        self.comps
            .get(component)
            .and_then(|c| c.counters.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// The merged histogram of one metric, `None` when absent.
    pub fn merged_hist(&self, component: &str, name: &str) -> Option<&LogHistogram> {
        self.comps.get(component).and_then(|c| c.hists.get(name))
    }

    /// `(count, total_ps)` of one span metric, `None` when absent.
    pub fn span_total(&self, component: &str, name: &str) -> Option<(usize, Time)> {
        self.comps
            .get(component)
            .and_then(|c| c.spans.get(name))
            .copied()
    }

    /// High-water mark of one gauge across all tracks; `None` when no
    /// sample arrived.
    pub fn gauge_hwm(&self, component: &str, name: &str) -> Option<f64> {
        let c = self.comps.get(component)?;
        let hwm = c
            .gauges
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, g)| g.hwm)
            .fold(f64::NEG_INFINITY, f64::max);
        hwm.is_finite().then_some(hwm)
    }

    /// Busy picoseconds per time bucket of one span series (e.g. the
    /// per-vHPU `handler` occupancy). Empty when the series is absent.
    pub fn busy_series(&self, component: &str, name: &str, track: u64) -> &[Time] {
        self.busy
            .iter()
            .find(|((c, n, t), _)| *c == component && *n == name && *t == track)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total busy picoseconds of one span series across all buckets.
    pub fn busy_total(&self, component: &str, name: &str, track: u64) -> Time {
        self.busy_series(component, name, track).iter().sum()
    }

    /// The tracks a span series was recorded on, ascending.
    pub fn busy_tracks(&self, component: &str, name: &str) -> Vec<u64> {
        self.busy
            .keys()
            .filter(|(c, n, _)| *c == component && *n == name)
            .map(|&(_, _, t)| t)
            .collect()
    }

    /// Per-bucket maximum of one gauge series; `NEG_INFINITY` marks
    /// buckets without a sample. Empty when the series is absent.
    pub fn gauge_peak_series(&self, component: &str, name: &str, track: u64) -> &[f64] {
        self.gauge_peak
            .iter()
            .find(|((c, n, t), _)| *c == component && *n == name && *t == track)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// All busy series as `(key, busy_ps_per_bucket)` in key order
    /// (Perfetto counter-track export walks this).
    pub fn busy_series_iter(&self) -> impl Iterator<Item = (SeriesKey, &[Time])> {
        self.busy.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// All gauge-peak series as `(key, max_per_bucket)` in key order.
    pub fn gauge_peak_iter(&self) -> impl Iterator<Item = (SeriesKey, &[f64])> {
        self.gauge_peak.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Approximate heap footprint of the reducer state in bytes — the
    /// number the bounded-memory acceptance gate checks. Map-entry
    /// bookkeeping is estimated at a flat 64 bytes per entry.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY: usize = 64;
        let mut bytes = std::mem::size_of::<Self>();
        for c in self.comps.values() {
            bytes += ENTRY;
            bytes += c.counters.len() * (ENTRY + 8);
            bytes += c.spans.len() * (ENTRY + 24);
            bytes += c.instants.len() * (ENTRY + 8);
            bytes += c.gauges.len() * (ENTRY + 16);
            for v in c.values.values() {
                bytes += ENTRY + v.capacity() * 8;
            }
            for h in c.hists.values() {
                bytes += ENTRY + h.heap_bytes();
            }
        }
        for v in self.busy.values() {
            bytes += ENTRY + v.capacity() * 8;
        }
        for v in self.gauge_peak.values() {
            bytes += ENTRY + v.capacity() * 8;
        }
        bytes
    }
}

/// Distribute the busy time of span `[start, end)` over the buckets it
/// overlaps.
fn fold_span(series: &mut Vec<Time>, bucket_ps: Time, start: Time, end: Time) {
    debug_assert!(end > start);
    let b0 = (start / bucket_ps) as usize;
    let b1 = ((end - 1) / bucket_ps) as usize;
    if series.len() <= b1 {
        series.resize(b1 + 1, 0);
    }
    for (b, slot) in series.iter_mut().enumerate().take(b1 + 1).skip(b0) {
        let lo = b as Time * bucket_ps;
        let hi = lo + bucket_ps;
        *slot += end.min(hi) - start.max(lo);
    }
}

/// Time-series cells (busy and gauge-peak buckets) that folding
/// `events` into one [`StreamAggregate`] per scope at `bucket_ps`
/// allocates: each series holds one cell per bucket up to its last
/// sample. A caller can refuse a bucket width before folding.
pub fn series_cells(events: &[TraceEvent], bucket_ps: Time) -> u128 {
    let mut last: HashMap<(&str, SeriesKey), Time> = HashMap::new();
    for ev in events {
        let t = match ev.kind {
            EventKind::Span { end } if end > ev.time => end - 1,
            EventKind::Gauge { .. } => ev.time,
            _ => continue,
        };
        let e = last
            .entry((ev.scope, (ev.component, ev.name, ev.track)))
            .or_insert(t);
        *e = (*e).max(t);
    }
    last.values().map(|&t| (t / bucket_ps) as u128 + 1).sum()
}

/// A [`Recorder`] folding events into a [`StreamAggregate`] at
/// emission: the bounded-memory alternative to [`crate::RingRecorder`].
pub struct StreamingRecorder {
    inner: Mutex<StreamAggregate>,
}

impl StreamingRecorder {
    /// A recorder bucketing time series at `bucket_ps`.
    pub fn new(bucket_ps: Time) -> Self {
        StreamingRecorder {
            inner: Mutex::new(StreamAggregate::new(bucket_ps)),
        }
    }

    /// Clone of the current aggregate.
    pub fn snapshot(&self) -> StreamAggregate {
        self.lock().clone()
    }

    /// Take the aggregate out, leaving a fresh one (same bucket width).
    pub fn take(&self) -> StreamAggregate {
        let mut g = self.lock();
        let bucket_ps = g.bucket_ps;
        std::mem::replace(&mut g, StreamAggregate::new(bucket_ps))
    }

    /// Approximate heap footprint of the aggregate (see
    /// [`StreamAggregate::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.lock().approx_bytes()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StreamAggregate> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Recorder for StreamingRecorder {
    fn record(&self, ev: TraceEvent) {
        self.lock().fold(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate;
    use std::sync::Arc;

    fn ev(
        component: &'static str,
        name: &'static str,
        track: u64,
        time: Time,
        kind: EventKind,
    ) -> TraceEvent {
        TraceEvent {
            scope: "",
            component,
            name,
            track,
            time,
            kind,
        }
    }

    fn sample_stream() -> Vec<TraceEvent> {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(5000);
        vec![
            ev(
                "spin",
                "packets_arrived",
                0,
                5,
                EventKind::Counter { delta: 1 },
            ),
            ev("spin", "handler", 2, 10, EventKind::Span { end: 250 }),
            ev("spin", "dma_queue", 0, 15, EventKind::Gauge { value: 2.0 }),
            ev("spin", "handler", 1, 120, EventKind::Span { end: 380 }),
            ev("spin", "dma_queue", 0, 130, EventKind::Gauge { value: 5.0 }),
            ev("core", "lat", 0, 140, EventKind::Value { value: 7.5 }),
            ev("core", "lat", 0, 150, EventKind::Value { value: 2.5 }),
            ev("spin", "dispatch", 3, 160, EventKind::Instant),
            ev(
                "spin",
                "packets_arrived",
                0,
                170,
                EventKind::Counter { delta: 3 },
            ),
            ev("spin", "dma_queue", 0, 180, EventKind::Gauge { value: 1.0 }),
            ev(
                "spin",
                "handler_ps",
                0,
                200,
                EventKind::Hist { hist: Arc::new(h) },
            ),
            ev("spin", "handler", 2, 210, EventKind::Span { end: 210 }),
        ]
    }

    #[test]
    fn rollups_match_retained_rollup_exactly() {
        let evs = sample_stream();
        let mut agg = StreamAggregate::new(100);
        for e in &evs {
            agg.fold(e);
        }
        assert_eq!(agg.rollups(), aggregate::rollup(&evs));
    }

    #[test]
    fn sharded_merge_matches_serial_fold() {
        let evs = sample_stream();
        for split in 0..=evs.len() {
            let mut serial = StreamAggregate::new(100);
            for e in &evs {
                serial.fold(e);
            }
            let mut a = StreamAggregate::new(100);
            let mut b = StreamAggregate::new(100);
            for e in &evs[..split] {
                a.fold(e);
            }
            for e in &evs[split..] {
                b.fold(e);
            }
            a.merge(&b);
            assert_eq!(a.rollups(), serial.rollups(), "split at {split}");
            assert_eq!(
                a.busy_series("spin", "handler", 2),
                serial.busy_series("spin", "handler", 2)
            );
            assert_eq!(
                a.gauge_peak_series("spin", "dma_queue", 0),
                serial.gauge_peak_series("spin", "dma_queue", 0)
            );
        }
    }

    #[test]
    fn series_cells_counts_what_the_fold_allocates() {
        let evs = sample_stream();
        for bucket_ps in [1, 7, 100, 1_000] {
            let mut agg = StreamAggregate::new(bucket_ps);
            for e in &evs {
                agg.fold(e);
            }
            let folded: usize = agg.busy_series_iter().map(|(_, v)| v.len()).sum::<usize>()
                + agg.gauge_peak_iter().map(|(_, v)| v.len()).sum::<usize>();
            assert_eq!(series_cells(&evs, bucket_ps), folded as u128, "{bucket_ps}");
        }
        // Scopes fold into separate aggregates, so they count apart.
        let mut scoped = evs.clone();
        scoped.extend(evs.iter().map(|e| TraceEvent {
            scope: "RW-CP",
            ..e.clone()
        }));
        assert_eq!(series_cells(&scoped, 100), 2 * series_cells(&evs, 100));
    }

    #[test]
    fn span_busy_tiles_across_buckets() {
        let mut agg = StreamAggregate::new(100);
        // [10, 250) overlaps buckets 0 ([10,100) = 90), 1 (100), 2 (50).
        agg.fold(&ev("spin", "handler", 2, 10, EventKind::Span { end: 250 }));
        assert_eq!(agg.busy_series("spin", "handler", 2), &[90, 100, 50]);
        assert_eq!(agg.busy_total("spin", "handler", 2), 240);
        // Zero-length spans contribute count but no busy time.
        agg.fold(&ev("spin", "handler", 2, 300, EventKind::Span { end: 300 }));
        assert_eq!(agg.busy_total("spin", "handler", 2), 240);
        assert_eq!(agg.span_total("spin", "handler"), Some((2, 240)));
    }

    #[test]
    fn gauge_peak_is_per_bucket_max() {
        let mut agg = StreamAggregate::new(100);
        for (t, v) in [(10, 2.0), (20, 7.0), (30, 3.0), (250, 1.0)] {
            agg.fold(&ev(
                "spin",
                "dma_queue",
                0,
                t,
                EventKind::Gauge { value: v },
            ));
        }
        let s = agg.gauge_peak_series("spin", "dma_queue", 0);
        assert_eq!(s[0], 7.0);
        assert_eq!(s[2], 1.0);
        assert!(s[1] == f64::NEG_INFINITY, "no sample in bucket 1");
        assert_eq!(agg.gauge_hwm("spin", "dma_queue"), Some(7.0));
    }

    #[test]
    fn streaming_recorder_folds_what_it_records() {
        let rec = Arc::new(StreamingRecorder::new(100));
        let tel = crate::Telemetry::with_recorder(rec.clone());
        tel.gauge("spin", "nic_mem_bytes", 0, 5, 1000.0);
        tel.counter("spin", "packets_arrived", 0, 6, 2);
        let agg = rec.snapshot();
        assert_eq!(agg.gauge_hwm("spin", "nic_mem_bytes"), Some(1000.0));
        assert_eq!(agg.counter_total("spin", "packets_arrived"), 2);
        assert!(rec.approx_bytes() > 0);
        assert_eq!(rec.take().counter_total("spin", "packets_arrived"), 2);
        assert_eq!(rec.snapshot().counter_total("spin", "packets_arrived"), 0);
    }

    #[test]
    fn memory_stays_bounded_under_a_flood() {
        let mut agg = StreamAggregate::new(1_000_000);
        for i in 0..200_000u64 {
            let t = i * 50;
            agg.fold(&ev(
                "spin",
                "handler",
                i % 16,
                t,
                EventKind::Span { end: t + 40 },
            ));
            agg.fold(&ev(
                "spin",
                "dma_queue",
                0,
                t,
                EventKind::Gauge {
                    value: (i % 7) as f64,
                },
            ));
            agg.fold(&ev(
                "spin",
                "packets_arrived",
                0,
                t,
                EventKind::Counter { delta: 1 },
            ));
        }
        // 200k events × 3 kinds folded; state is O(tracks × buckets).
        assert!(
            agg.approx_bytes() < 1 << 20,
            "flood must not grow the aggregate: {} bytes",
            agg.approx_bytes()
        );
        assert_eq!(agg.counter_total("spin", "packets_arrived"), 200_000);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merging_mismatched_buckets_panics() {
        let mut a = StreamAggregate::new(100);
        a.merge(&StreamAggregate::new(200));
    }
}
