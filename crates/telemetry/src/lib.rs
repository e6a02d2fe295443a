//! # nca-telemetry — tracing & metrics for the simulation stack
//!
//! Every figure in the paper is an *observability artifact* of the NIC
//! model: DMA-queue occupancy over time (Fig. 15), handler-runtime
//! breakdowns (Fig. 12), memory-traffic volumes (Fig. 17). This crate
//! gives the whole workspace one uniform way to emit and consume such
//! signals, mirroring the per-HPU/per-queue counters real sPIN
//! implementations (PsPIN, FPsPIN) expose in hardware.
//!
//! Design:
//!
//! * A [`TraceEvent`] is one typed record — counter increment, gauge
//!   sample, value observation (histogram input), span, or instant —
//!   keyed by `(scope, component, name, track)` and stamped with the
//!   simulated [`Time`] in picoseconds.
//! * [`Recorder`] is the sink interface; [`ring::RingRecorder`] is the
//!   bundled bounded in-memory sink.
//! * [`Telemetry`] is the cheap, clonable handle instrumented code
//!   holds. A disabled handle (`Telemetry::disabled()`, also
//!   `Default`) carries no recorder: every record call is one `Option`
//!   branch and constructs nothing.
//! * [`export`] renders captured events as Chrome/Perfetto
//!   `trace_event` JSON; [`aggregate`] rolls them up
//!   (per-component totals, histogram summaries, time-bucketed series)
//!   on top of `nca_sim::stats`.
//! * [`probe::SimTelemetryProbe`] adapts a handle to
//!   [`nca_sim::SimProbe`] so the event loop itself (dispatch count,
//!   heap depth) can be traced without `nca-sim` depending on this
//!   crate.

pub mod aggregate;
pub mod export;
pub mod flight;
pub mod hist;
pub mod probe;
pub mod report;
pub mod ring;
pub mod streaming;

use std::sync::Arc;

pub use nca_sim::Time;
pub use ring::{merge_ring_events, RingRecorder};
pub use streaming::{StreamAggregate, StreamingRecorder};

/// What a [`TraceEvent`] carries beyond its key and timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Monotonic count increment (e.g. packets arrived, reverts).
    Counter {
        /// Amount added at this timestamp.
        delta: u64,
    },
    /// Sampled level (e.g. DMA-queue depth, NIC memory in use).
    Gauge {
        /// The level at this timestamp.
        value: f64,
    },
    /// One observation of a distribution (histogram input, e.g. a
    /// handler phase runtime).
    Value {
        /// The observed value.
        value: f64,
    },
    /// A duration: the event's `time` is the start.
    Span {
        /// End of the span (ps); `end >= time`.
        end: Time,
    },
    /// A point event (e.g. a checkpoint revert).
    Instant,
    /// A whole distribution snapshot: a merged [`hist::LogHistogram`]
    /// emitted once per run so percentiles survive ring-buffer
    /// eviction of the raw `Value` samples. Shared via `Arc` so the
    /// event stays cheap to clone.
    Hist {
        /// The merged histogram.
        hist: Arc<hist::LogHistogram>,
    },
}

/// One telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Run-level namespace (e.g. the strategy label when several runs
    /// share one sink); empty when unscoped.
    pub scope: &'static str,
    /// Emitting subsystem (`"sim"`, `"spin"`, `"core"`, …).
    pub component: &'static str,
    /// Metric/event name within the component.
    pub name: &'static str,
    /// Lane within the component: vHPU id, DMA channel, … (0 if N/A).
    pub track: u64,
    /// Simulated timestamp in picoseconds (span start for spans).
    pub time: Time,
    /// The payload.
    pub kind: EventKind,
}

/// A telemetry sink. Implementations must be cheap: recording happens
/// inside the simulation's hot loops.
pub trait Recorder: Send + Sync {
    /// Consume one event.
    fn record(&self, ev: TraceEvent);
}

/// The handle instrumented code holds. Cloning is a refcount bump; a
/// disabled handle records nothing and costs one branch per call site.
#[derive(Clone, Default)]
pub struct Telemetry {
    recorder: Option<Arc<dyn Recorder>>,
    scope: &'static str,
}

impl Telemetry {
    /// A handle that records nothing (the zero-cost default).
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A handle feeding `recorder`.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Self {
        Telemetry {
            recorder: Some(recorder),
            scope: "",
        }
    }

    /// A handle backed by a fresh bounded ring sink; returns the sink
    /// too so the caller can drain/export events afterwards.
    pub fn ring(capacity: usize) -> (Self, Arc<RingRecorder>) {
        let sink = Arc::new(RingRecorder::new(capacity));
        (Telemetry::with_recorder(sink.clone()), sink)
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// A handle to the same sink whose events carry `scope` (used to
    /// separate e.g. per-strategy runs sharing one trace).
    pub fn scoped(&self, scope: &'static str) -> Telemetry {
        Telemetry {
            recorder: self.recorder.clone(),
            scope,
        }
    }

    /// The scope this handle stamps on events (empty when unscoped).
    pub fn scope(&self) -> &'static str {
        self.scope
    }

    #[inline]
    fn emit(
        &self,
        component: &'static str,
        name: &'static str,
        track: u64,
        time: Time,
        kind: EventKind,
    ) {
        if let Some(r) = &self.recorder {
            // Self-profiler: emission + sink work is its own phase, so
            // the cost of telemetry never pollutes the phase it fires
            // from (no-op unless `nca-sim/self-profile` is active).
            let _phase = nca_sim::profile::enter(nca_sim::profile::Phase::Telemetry);
            r.record(TraceEvent {
                scope: self.scope,
                component,
                name,
                track,
                time,
                kind,
            });
        }
    }

    /// Add `delta` to a monotonic counter.
    #[inline]
    pub fn counter(
        &self,
        component: &'static str,
        name: &'static str,
        track: u64,
        time: Time,
        delta: u64,
    ) {
        self.emit(component, name, track, time, EventKind::Counter { delta });
    }

    /// Sample a level.
    #[inline]
    pub fn gauge(
        &self,
        component: &'static str,
        name: &'static str,
        track: u64,
        time: Time,
        value: f64,
    ) {
        self.emit(component, name, track, time, EventKind::Gauge { value });
    }

    /// Observe one value of a distribution.
    #[inline]
    pub fn value(
        &self,
        component: &'static str,
        name: &'static str,
        track: u64,
        time: Time,
        value: f64,
    ) {
        self.emit(component, name, track, time, EventKind::Value { value });
    }

    /// Record a `[start, end]` span (e.g. a handler execution).
    #[inline]
    pub fn span(
        &self,
        component: &'static str,
        name: &'static str,
        track: u64,
        start: Time,
        end: Time,
    ) {
        debug_assert!(end >= start, "span ends before it starts");
        self.emit(component, name, track, start, EventKind::Span { end });
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&self, component: &'static str, name: &'static str, track: u64, time: Time) {
        self.emit(component, name, track, time, EventKind::Instant);
    }

    /// Record a distribution snapshot (cloned into the event; no-op on
    /// a disabled handle, so callers can emit unconditionally).
    pub fn histogram(
        &self,
        component: &'static str,
        name: &'static str,
        track: u64,
        time: Time,
        hist: &hist::LogHistogram,
    ) {
        if self.recorder.is_some() {
            self.emit(
                component,
                name,
                track,
                time,
                EventKind::Hist {
                    hist: Arc::new(hist.clone()),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reports_so() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        // No sink: these must be no-ops, not panics.
        t.counter("spin", "packets", 0, 10, 1);
        t.span("spin", "handler", 3, 0, 50);
    }

    #[test]
    fn ring_handle_captures_typed_events() {
        let (t, sink) = Telemetry::ring(64);
        assert!(t.is_enabled());
        t.counter("sim", "events", 0, 5, 2);
        t.gauge("spin", "dma_queue", 1, 7, 3.0);
        t.instant("core", "revert", 2, 9);
        t.span("spin", "handler", 4, 10, 30);
        let evs = sink.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].kind, EventKind::Counter { delta: 2 });
        assert_eq!(evs[1].component, "spin");
        assert_eq!(evs[3].kind, EventKind::Span { end: 30 });
    }

    #[test]
    fn histogram_snapshots_are_recorded_and_shared_cheaply() {
        let (t, sink) = Telemetry::ring(8);
        let mut h = hist::LogHistogram::new();
        h.record(10);
        h.record(1000);
        t.histogram("spin", "handler_ps", 0, 99, &h);
        let evs = sink.events();
        assert_eq!(evs.len(), 1);
        match &evs[0].kind {
            EventKind::Hist { hist } => {
                assert_eq!(hist.count(), 2);
                assert_eq!(hist.max(), Some(1000));
            }
            other => panic!("expected Hist, got {other:?}"),
        }
        // Disabled handles skip even the clone.
        Telemetry::disabled().histogram("spin", "handler_ps", 0, 0, &h);
    }

    #[test]
    fn scoped_handles_share_the_sink() {
        let (t, sink) = Telemetry::ring(8);
        t.scoped("RW-CP").instant("core", "revert", 0, 1);
        t.scoped("RO-CP").instant("core", "revert", 0, 2);
        let evs = sink.events();
        assert_eq!(evs[0].scope, "RW-CP");
        assert_eq!(evs[1].scope, "RO-CP");
    }
}
