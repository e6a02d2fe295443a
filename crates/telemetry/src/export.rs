//! Trace exporter: Chrome/Perfetto `trace_event` JSON.
//!
//! The JSON exporter emits the "JSON array format" both `chrome://tracing`
//! and [ui.perfetto.dev](https://ui.perfetto.dev) load directly:
//!
//! * each unique `(scope, component)` pair becomes a process (`pid`),
//!   named via `process_name` metadata events,
//! * tracks become thread ids (`tid`),
//! * spans are `ph:"X"` complete events, instants `ph:"i"`, and
//!   counter/gauge/value samples `ph:"C"` counter tracks (counters are
//!   exported as running totals so the counter track shows the
//!   cumulative count over time),
//! * timestamps are microseconds (`ts`), converted from the simulated
//!   picosecond clock.
//!
//! Everything is hand-rendered: the workspace builds offline, so no
//! serde. Names come from instrumentation call sites but are escaped
//! anyway.

use std::collections::HashMap;

use crate::report::esc;
use crate::streaming::StreamAggregate;
use crate::{EventKind, Time, TraceEvent};

fn ts_us(t: Time) -> f64 {
    t as f64 / 1e6
}

/// Render `events` as Chrome `trace_event` JSON (array format).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_with_aggregates(events, &[])
}

/// [`chrome_trace_json`] plus `ph:"C"` counter tracks rendered from
/// streaming aggregates: one `<name>_busy_frac` track per busy series
/// (span overlap per bucket, as a fraction of the bucket) and one
/// `<name>_peak` track per gauge-peak series. `aggs` pairs each
/// aggregate with the scope its samples should appear under (use the
/// strategy label, or `""`). Raw events can be empty — a pure
/// streaming capture still yields a loadable trace.
pub fn chrome_trace_json_with_aggregates(
    events: &[TraceEvent],
    aggs: &[(&str, &StreamAggregate)],
) -> String {
    // Stable pid per (scope, component), in first-appearance order.
    let mut pids: HashMap<(&str, &str), u32> = HashMap::new();
    let mut processes: Vec<(&str, &str)> = Vec::new();
    for ev in events {
        pids.entry((ev.scope, ev.component)).or_insert_with(|| {
            processes.push((ev.scope, ev.component));
            processes.len() as u32
        });
    }
    for (scope, agg) in aggs {
        let series_comps = agg
            .busy_series_iter()
            .map(|((c, _, _), _)| c)
            .chain(agg.gauge_peak_iter().map(|((c, _, _), _)| c));
        for comp in series_comps {
            pids.entry((scope, comp)).or_insert_with(|| {
                processes.push((scope, comp));
                processes.len() as u32
            });
        }
    }

    let mut out = String::from("[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&line);
    };

    for (i, (scope, component)) in processes.iter().enumerate() {
        let pname = if scope.is_empty() {
            (*component).to_string()
        } else {
            format!("{scope}/{component}")
        };
        push(
            &mut out,
            &mut first,
            format!(
                r#"{{"ph":"M","pid":{},"name":"process_name","args":{{"name":"{}"}}}}"#,
                i + 1,
                esc(&pname)
            ),
        );
    }

    // Counter tracks show cumulative totals.
    let mut totals: HashMap<(&str, &str, &str, u64), u64> = HashMap::new();
    for ev in events {
        let pid = pids[&(ev.scope, ev.component)];
        let name = esc(ev.name);
        let line = match &ev.kind {
            EventKind::Span { end } => format!(
                r#"{{"ph":"X","pid":{pid},"tid":{},"ts":{},"dur":{},"name":"{name}","cat":"{}"}}"#,
                ev.track,
                ts_us(ev.time),
                ts_us(end.saturating_sub(ev.time)),
                esc(ev.component)
            ),
            EventKind::Instant => format!(
                r#"{{"ph":"i","pid":{pid},"tid":{},"ts":{},"name":"{name}","s":"t"}}"#,
                ev.track,
                ts_us(ev.time)
            ),
            EventKind::Counter { delta } => {
                let total = totals
                    .entry((ev.scope, ev.component, ev.name, ev.track))
                    .and_modify(|t| *t += delta)
                    .or_insert(*delta);
                format!(
                    r#"{{"ph":"C","pid":{pid},"tid":{},"ts":{},"name":"{name}","args":{{"{name}":{}}}}}"#,
                    ev.track,
                    ts_us(ev.time),
                    total
                )
            }
            EventKind::Gauge { value } | EventKind::Value { value } => format!(
                r#"{{"ph":"C","pid":{pid},"tid":{},"ts":{},"name":"{name}","args":{{"{name}":{}}}}}"#,
                ev.track,
                ts_us(ev.time),
                value
            ),
            // A distribution snapshot renders as one summary counter
            // sample so Perfetto shows the percentiles on a track.
            EventKind::Hist { hist } => format!(
                r#"{{"ph":"C","pid":{pid},"tid":{},"ts":{},"name":"{name}","args":{{"count":{},"p50":{},"p90":{},"p99":{}}}}}"#,
                ev.track,
                ts_us(ev.time),
                hist.count(),
                hist.percentile_ps(50.0),
                hist.percentile_ps(90.0),
                hist.percentile_ps(99.0)
            ),
        };
        push(&mut out, &mut first, line);
    }

    // Streaming time series: one counter sample per bucket.
    for (scope, agg) in aggs {
        let bp = agg.bucket_ps();
        for ((comp, name, track), series) in agg.busy_series_iter() {
            let pid = pids[&(*scope, comp)];
            let tname = format!("{}_busy_frac", esc(name));
            for (b, &busy) in series.iter().enumerate() {
                let frac = busy as f64 / bp as f64;
                push(
                    &mut out,
                    &mut first,
                    format!(
                        r#"{{"ph":"C","pid":{pid},"tid":{track},"ts":{},"name":"{tname}","args":{{"{tname}":{frac}}}}}"#,
                        ts_us(b as Time * bp)
                    ),
                );
            }
        }
        for ((comp, name, track), series) in agg.gauge_peak_iter() {
            let pid = pids[&(*scope, comp)];
            let tname = format!("{}_peak", esc(name));
            for (b, &peak) in series.iter().enumerate() {
                if !peak.is_finite() {
                    continue; // bucket without a sample
                }
                push(
                    &mut out,
                    &mut first,
                    format!(
                        r#"{{"ph":"C","pid":{pid},"tid":{track},"ts":{},"name":"{tname}","args":{{"{tname}":{peak}}}}}"#,
                        ts_us(b as Time * bp)
                    ),
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                scope: "RW-CP",
                component: "spin",
                name: "handler",
                track: 3,
                time: 1_000_000,
                kind: EventKind::Span { end: 2_500_000 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "spin",
                name: "dma_queue",
                track: 0,
                time: 1_200_000,
                kind: EventKind::Gauge { value: 4.0 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "core",
                name: "checkpoint_revert",
                track: 1,
                time: 2_000_000,
                kind: EventKind::Instant,
            },
            TraceEvent {
                scope: "RW-CP",
                component: "sim",
                name: "events",
                track: 0,
                time: 500_000,
                kind: EventKind::Counter { delta: 2 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "sim",
                name: "events",
                track: 0,
                time: 900_000,
                kind: EventKind::Counter { delta: 3 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "spin",
                name: "handler_ps",
                track: 0,
                time: 3_000_000,
                kind: EventKind::Hist {
                    hist: std::sync::Arc::new({
                        let mut h = crate::hist::LogHistogram::new();
                        h.record_n(100, 9);
                        h.record(1_000_000);
                        h
                    }),
                },
            },
        ]
    }

    #[test]
    fn chrome_json_has_processes_spans_counters_instants() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""name":"process_name""#));
        assert!(json.contains(r#""name":"RW-CP/spin""#));
        assert!(json.contains(r#""ph":"X""#), "span events present");
        assert!(json.contains(r#""ph":"C""#), "counter samples present");
        assert!(json.contains(r#""ph":"i""#), "instant events present");
        // Span: ts 1 µs, dur 1.5 µs.
        assert!(
            json.contains(r#""ts":1,"dur":1.5"#),
            "ps→µs conversion: {json}"
        );
        // Counter totals accumulate: 2 then 5.
        assert!(json.contains(r#"{"events":2}"#));
        assert!(json.contains(r#"{"events":5}"#));
        // Balanced braces (cheap well-formedness check; no serde offline).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn json_escapes_special_characters() {
        let evs = vec![TraceEvent {
            scope: "",
            component: "x",
            name: "weird\"name\\with\nstuff",
            track: 0,
            time: 0,
            kind: EventKind::Instant,
        }];
        let json = chrome_trace_json(&evs);
        assert!(json.contains(r#"weird\"name\\with\nstuff"#));
    }

    #[test]
    fn chrome_json_renders_histogram_percentiles() {
        let json = chrome_trace_json(&sample_events());
        // p50 is the upper bound of the bucket holding 100 (≤3.1% off).
        assert!(
            json.contains(r#""count":10,"p50":101,"#),
            "histogram summary exported: {json}"
        );
    }

    #[test]
    fn streaming_aggregates_render_counter_tracks() {
        let mut agg = StreamAggregate::new(1_000_000);
        agg.fold(&TraceEvent {
            scope: "",
            component: "spin",
            name: "handler",
            track: 2,
            time: 500_000,
            kind: EventKind::Span { end: 1_500_000 },
        });
        agg.fold(&TraceEvent {
            scope: "",
            component: "spin",
            name: "dma_queue",
            track: 0,
            time: 100_000,
            kind: EventKind::Gauge { value: 3.0 },
        });
        let json = chrome_trace_json_with_aggregates(&[], &[("RW-CP", &agg)]);
        assert!(json.contains(r#""name":"RW-CP/spin""#), "{json}");
        assert!(json.contains("handler_busy_frac"), "{json}");
        assert!(json.contains("dma_queue_peak"), "{json}");
        // The [0.5 µs, 1.5 µs) span half-fills both buckets.
        assert!(json.contains(r#"{"handler_busy_frac":0.5}"#), "{json}");
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
