//! Aggregation helpers over captured [`TraceEvent`]s: per-component
//! rollups and time-bucketed series, built on `nca_sim::stats`.

use std::collections::BTreeMap;

use nca_sim::stats;

use crate::hist::LogHistogram;
use crate::{EventKind, Time, TraceEvent};

/// Five-number-style summary of the `Value` observations of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSummary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

/// Everything one component emitted, rolled up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentRollup {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Value-metric summaries by name.
    pub values: BTreeMap<String, ValueSummary>,
    /// Span count and total duration (ps) by name.
    pub spans: BTreeMap<String, (usize, Time)>,
    /// Instant counts by name.
    pub instants: BTreeMap<String, u64>,
    /// Merged histogram snapshots by name (all `Hist` events of the
    /// same name fold into one distribution).
    pub hists: BTreeMap<String, LogHistogram>,
}

/// Roll up `events` per component (scopes are merged; filter first if
/// per-scope rollups are wanted).
pub fn rollup(events: &[TraceEvent]) -> BTreeMap<String, ComponentRollup> {
    let mut out: BTreeMap<String, ComponentRollup> = BTreeMap::new();
    let mut raw_values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for ev in events {
        let comp = out.entry(ev.component.to_string()).or_default();
        match &ev.kind {
            EventKind::Counter { delta } => {
                *comp.counters.entry(ev.name.to_string()).or_insert(0) += delta;
            }
            EventKind::Value { value } => {
                raw_values
                    .entry((ev.component.to_string(), ev.name.to_string()))
                    .or_default()
                    .push(*value);
            }
            EventKind::Span { end } => {
                let e = comp.spans.entry(ev.name.to_string()).or_insert((0, 0));
                e.0 += 1;
                e.1 += end.saturating_sub(ev.time);
            }
            EventKind::Instant => {
                *comp.instants.entry(ev.name.to_string()).or_insert(0) += 1;
            }
            EventKind::Hist { hist } => {
                comp.hists
                    .entry(ev.name.to_string())
                    .or_default()
                    .merge(hist);
            }
            EventKind::Gauge { .. } => {} // levels don't aggregate additively
        }
    }
    for ((component, name), xs) in raw_values {
        let ps = stats::percentiles(&xs, &[50.0, 95.0]).expect("non-empty");
        let summary = ValueSummary {
            count: xs.len(),
            mean: stats::mean(&xs),
            p50: ps[0],
            p95: ps[1],
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        };
        out.entry(component)
            .or_default()
            .values
            .insert(name, summary);
    }
    out
}

/// Total of one counter across `events` (all scopes/tracks).
pub fn counter_total(events: &[TraceEvent], component: &str, name: &str) -> u64 {
    events
        .iter()
        .filter(|ev| ev.component == component && ev.name == name)
        .map(|ev| match ev.kind {
            EventKind::Counter { delta } => delta,
            _ => 0,
        })
        .sum::<u64>()
}

/// The merged histogram of one metric across `events` (all tracks),
/// `None` when no `Hist` event matches.
pub fn merged_hist(events: &[TraceEvent], component: &str, name: &str) -> Option<LogHistogram> {
    let mut out: Option<LogHistogram> = None;
    for ev in events {
        if ev.component == component && ev.name == name {
            if let EventKind::Hist { hist } = &ev.kind {
                out.get_or_insert_with(LogHistogram::new).merge(hist);
            }
        }
    }
    out
}

/// Sum a counter's deltas into fixed-width time buckets.
///
/// Returns `(bucket_start_ps, sum_of_deltas)` for every bucket from 0 to
/// the last event, including empty ones, so series of the same span and
/// width line up. The series total always equals
/// [`counter_total`] for the same selection (property-tested).
pub fn bucket_counter_series(
    events: &[TraceEvent],
    component: &str,
    name: &str,
    bucket_ps: Time,
) -> Vec<(Time, u64)> {
    assert!(bucket_ps > 0, "bucket width must be positive");
    let deltas: Vec<(Time, u64)> = events
        .iter()
        .filter(|ev| ev.component == component && ev.name == name)
        .filter_map(|ev| match ev.kind {
            EventKind::Counter { delta } => Some((ev.time, delta)),
            _ => None,
        })
        .collect();
    let Some(t_max) = deltas.iter().map(|&(t, _)| t).max() else {
        return Vec::new();
    };
    let n = (t_max / bucket_ps + 1) as usize;
    let mut buckets = vec![0u64; n];
    for (t, d) in deltas {
        buckets[(t / bucket_ps) as usize] += d;
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, sum)| (i as Time * bucket_ps, sum))
        .collect()
}

/// The time series of one gauge: every `(time, value)` sample, in
/// recording order (e.g. the DMA-queue occupancy of Fig. 15).
pub fn gauge_series(events: &[TraceEvent], component: &str, name: &str) -> Vec<(Time, f64)> {
    events
        .iter()
        .filter(|ev| ev.component == component && ev.name == name)
        .filter_map(|ev| match ev.kind {
            EventKind::Gauge { value } => Some((ev.time, value)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &'static str, time: Time, delta: u64) -> TraceEvent {
        TraceEvent {
            scope: "",
            component: "c",
            name,
            track: 0,
            time,
            kind: EventKind::Counter { delta },
        }
    }

    fn value(name: &'static str, v: f64) -> TraceEvent {
        TraceEvent {
            scope: "",
            component: "c",
            name,
            track: 0,
            time: 0,
            kind: EventKind::Value { value: v },
        }
    }

    #[test]
    fn rollup_sums_counters_and_summarizes_values() {
        let evs = vec![
            counter("pkts", 10, 1),
            counter("pkts", 20, 2),
            counter("drops", 30, 1),
            value("lat", 10.0),
            value("lat", 30.0),
            TraceEvent {
                scope: "",
                component: "c",
                name: "h",
                track: 1,
                time: 5,
                kind: EventKind::Span { end: 25 },
            },
            TraceEvent {
                scope: "",
                component: "c",
                name: "h",
                track: 2,
                time: 10,
                kind: EventKind::Span { end: 20 },
            },
            TraceEvent {
                scope: "",
                component: "c",
                name: "boom",
                track: 0,
                time: 9,
                kind: EventKind::Instant,
            },
        ];
        let r = rollup(&evs);
        let c = &r["c"];
        assert_eq!(c.counters["pkts"], 3);
        assert_eq!(c.counters["drops"], 1);
        let lat = &c.values["lat"];
        assert_eq!(lat.count, 2);
        assert_eq!(lat.mean, 20.0);
        assert_eq!(lat.max, 30.0);
        assert_eq!(c.spans["h"], (2, 30));
        assert_eq!(c.instants["boom"], 1);
    }

    #[test]
    fn bucket_series_totals_match_counter_total() {
        let evs = vec![
            counter("pkts", 0, 1),
            counter("pkts", 99, 2),
            counter("pkts", 100, 4),
            counter("pkts", 350, 8),
        ];
        let series = bucket_counter_series(&evs, "c", "pkts", 100);
        assert_eq!(series, vec![(0, 3), (100, 4), (200, 0), (300, 8)]);
        let total: u64 = series.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, counter_total(&evs, "c", "pkts"));
    }

    #[test]
    fn bucket_series_of_nothing_is_empty() {
        assert!(bucket_counter_series(&[], "c", "pkts", 10).is_empty());
    }

    #[test]
    fn gauge_series_preserves_order() {
        let evs = vec![
            TraceEvent {
                scope: "",
                component: "c",
                name: "q",
                track: 0,
                time: 5,
                kind: EventKind::Gauge { value: 1.0 },
            },
            TraceEvent {
                scope: "",
                component: "c",
                name: "q",
                track: 0,
                time: 9,
                kind: EventKind::Gauge { value: 2.0 },
            },
            counter("q", 7, 1), // different kind, same name: excluded
        ];
        assert_eq!(gauge_series(&evs, "c", "q"), vec![(5, 1.0), (9, 2.0)]);
    }
}
