//! Flight recorder: an attributed latency breakdown of one receive.
//!
//! The receive pipeline keeps overlapping activity on many tracks (wire
//! serialization, inbound copies, per-vHPU queue waits and handler
//! executions, per-channel DMA transfers). [`sweep`] folds those stage
//! intervals into a single exhaustive partition of the end-to-end
//! window `[t_start, t_end]`: every instant is charged to exactly one
//! [`Stage`], the highest-priority activity in flight at that time
//! (compute beats data movement beats scheduling beats the network).
//! By construction the per-stage totals sum to *exactly* the window
//! length, which is what makes the run-report "attribution adds up"
//! invariant testable.
//!
//! A run keeps its own intervals where the NIC schedules the work
//! (`nca_spin::nic::RunReport::attribution`). [`attribute`] maps a
//! run's `spin` trace spans to the same intervals and sweeps them: the
//! trace-side reference a run's attribution is tested against. There,
//! handler spans are subdivided into init/setup/processing using the
//! `t_init`/`t_setup` phase observations the strategies emit at the
//! span's start time on the same vHPU track; a handler span without
//! phase data counts wholly as [`Stage::HandlerProc`].

use std::collections::HashMap;

use crate::{EventKind, Time, TraceEvent};

/// Attribution categories, listed in sweep priority order: when
/// several activities overlap, the earliest variant wins the instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Handler init phase (per-message state load).
    HandlerInit,
    /// Handler setup phase (checkpoint create / restore / catch-up).
    HandlerSetup,
    /// Handler payload processing (block scatter).
    HandlerProc,
    /// DMA channel busy (PCIe write in flight).
    Dma,
    /// Completion drain (final event write landing in host memory).
    Drain,
    /// Scheduler dispatch overhead.
    Dispatch,
    /// Packet sat in a vHPU run queue.
    QueueWait,
    /// Inbound engine (parse + NIC-memory payload copy).
    Inbound,
    /// Wire serialization of packets.
    Wire,
    /// Nothing traced in flight (gaps in the window).
    Idle,
}

impl Stage {
    /// All stages, priority order first to last ([`Stage::Idle`] is the
    /// fallback and must stay last).
    pub const ALL: [Stage; 10] = [
        Stage::HandlerInit,
        Stage::HandlerSetup,
        Stage::HandlerProc,
        Stage::Dma,
        Stage::Drain,
        Stage::Dispatch,
        Stage::QueueWait,
        Stage::Inbound,
        Stage::Wire,
        Stage::Idle,
    ];

    /// Stable snake_case label (JSON report key).
    pub fn label(self) -> &'static str {
        match self {
            Stage::HandlerInit => "handler_init",
            Stage::HandlerSetup => "handler_setup",
            Stage::HandlerProc => "handler_proc",
            Stage::Dma => "dma",
            Stage::Drain => "drain",
            Stage::Dispatch => "dispatch",
            Stage::QueueWait => "queue_wait",
            Stage::Inbound => "inbound",
            Stage::Wire => "wire",
            Stage::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The attributed breakdown of one window: per-stage totals that tile
/// `[t_start, t_end]` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Window start (ps), typically the message's first byte at the NIC.
    pub t_start: Time,
    /// Window end (ps), typically the completion landing.
    pub t_end: Time,
    totals: [Time; Stage::ALL.len()],
}

impl Attribution {
    /// Time charged to `stage` (ps).
    pub fn total(&self, stage: Stage) -> Time {
        self.totals[stage.index()]
    }

    /// Window length (ps).
    pub fn end_to_end(&self) -> Time {
        self.t_end - self.t_start
    }

    /// Sum of all stage totals; equals [`end_to_end`](Self::end_to_end)
    /// by construction.
    pub fn sum(&self) -> Time {
        self.totals.iter().sum()
    }

    /// `(stage, total)` pairs in priority order.
    pub fn entries(&self) -> impl Iterator<Item = (Stage, Time)> + '_ {
        Stage::ALL.iter().map(|&s| (s, self.total(s)))
    }
}

/// Map a span event to its attribution stage (handler spans are
/// subdivided separately).
fn span_stage(ev: &TraceEvent) -> Option<Stage> {
    if ev.component != "spin" {
        return None;
    }
    Some(match ev.name {
        "wire" => Stage::Wire,
        "inbound" => Stage::Inbound,
        "queue_wait" => Stage::QueueWait,
        "sched" => Stage::Dispatch,
        "handler" => Stage::HandlerProc,
        "dma_chan" => Stage::Dma,
        "dma_drain" => Stage::Drain,
        _ => return None,
    })
}

/// One stretch of a stage's activity, `[start, end)` in ps.
pub type Interval = (Time, Time, Stage);

/// The trace-side reference: attribute the window `[t_start, t_end]`
/// across the `spin` spans of `events` (pre-filter by scope when several
/// runs share a sink), mapped to stage intervals and [`sweep`]ed.
pub fn attribute(events: &[TraceEvent], t_start: Time, t_end: Time) -> Attribution {
    // Handler phase observations, keyed by (vHPU track, span start).
    let mut phases: HashMap<(u64, Time), (Time, Time)> = HashMap::new();
    for ev in events {
        if ev.component != "core" {
            continue;
        }
        if let EventKind::Value { value } = ev.kind {
            let slot = phases.entry((ev.track, ev.time)).or_insert((0, 0));
            match ev.name {
                "t_init" => slot.0 = value.round() as Time,
                "t_setup" => slot.1 = value.round() as Time,
                _ => {}
            }
        }
    }

    let mut intervals = Vec::new();
    for ev in events {
        let EventKind::Span { end } = ev.kind else {
            continue;
        };
        let Some(stage) = span_stage(ev) else {
            continue;
        };
        if stage == Stage::HandlerProc {
            if let Some(&(init, setup)) = phases.get(&(ev.track, ev.time)) {
                let a = (ev.time + init).min(end);
                let b = (a + setup).min(end);
                intervals.push((ev.time, a, Stage::HandlerInit));
                intervals.push((a, b, Stage::HandlerSetup));
                intervals.push((b, end, Stage::HandlerProc));
                continue;
            }
        }
        intervals.push((ev.time, end, stage));
    }
    sweep(&intervals, t_start, t_end)
}

/// Attribute the window `[t_start, t_end]` across `intervals`. Every
/// instant of the window lands in exactly one stage, so the totals
/// always sum to `t_end - t_start`.
pub fn sweep(intervals: &[Interval], t_start: Time, t_end: Time) -> Attribution {
    // Boundary sweep: at each instant the highest-priority active
    // stage wins; stretches with nothing active are Idle.
    let mut bounds: Vec<(Time, usize, i64)> = Vec::new();
    for &(s, e, stage) in intervals {
        let (s, e) = (s.max(t_start), e.min(t_end));
        if s < e {
            bounds.push((s, stage.index(), 1));
            bounds.push((e, stage.index(), -1));
        }
    }
    bounds.sort_unstable();

    let mut totals = [0 as Time; Stage::ALL.len()];
    let mut active = [0i64; Stage::ALL.len()];
    let mut cursor = t_start;
    let mut i = 0;
    while i < bounds.len() {
        let t = bounds[i].0;
        if t > cursor {
            let stage = Stage::ALL
                .iter()
                .copied()
                .find(|s| active[s.index()] > 0)
                .unwrap_or(Stage::Idle);
            totals[stage.index()] += t - cursor;
            cursor = t;
        }
        while i < bounds.len() && bounds[i].0 == t {
            active[bounds[i].1] += bounds[i].2;
            i += 1;
        }
    }
    if cursor < t_end {
        totals[Stage::Idle.index()] += t_end - cursor;
    }

    Attribution {
        t_start,
        t_end,
        totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, track: u64, start: Time, end: Time) -> TraceEvent {
        TraceEvent {
            scope: "",
            component: "spin",
            name,
            track,
            time: start,
            kind: EventKind::Span { end },
        }
    }

    fn phase(name: &'static str, track: u64, time: Time, v: f64) -> TraceEvent {
        TraceEvent {
            scope: "",
            component: "core",
            name,
            track,
            time,
            kind: EventKind::Value { value: v },
        }
    }

    #[test]
    fn empty_trace_is_all_idle_and_sums_exactly() {
        let a = attribute(&[], 100, 400);
        assert_eq!(a.total(Stage::Idle), 300);
        assert_eq!(a.sum(), a.end_to_end());
    }

    #[test]
    fn disjoint_stages_get_their_own_time_and_gaps_are_idle() {
        let evs = vec![
            span("wire", 0, 0, 10),
            span("inbound", 0, 10, 20),
            span("queue_wait", 1, 20, 30),
            span("handler", 1, 30, 50),
            span("dma_chan", 0, 50, 70),
        ];
        let a = attribute(&evs, 0, 80);
        assert_eq!(a.total(Stage::Wire), 10);
        assert_eq!(a.total(Stage::Inbound), 10);
        assert_eq!(a.total(Stage::QueueWait), 10);
        assert_eq!(a.total(Stage::HandlerProc), 20);
        assert_eq!(a.total(Stage::Dma), 20);
        assert_eq!(a.total(Stage::Idle), 10);
        assert_eq!(a.sum(), 80);
    }

    #[test]
    fn overlaps_resolve_by_priority() {
        // Handler and DMA overlap on [5,10): compute wins the overlap.
        let evs = vec![span("handler", 1, 0, 10), span("dma_chan", 0, 5, 15)];
        let a = attribute(&evs, 0, 15);
        assert_eq!(a.total(Stage::HandlerProc), 10);
        assert_eq!(a.total(Stage::Dma), 5);
        assert_eq!(a.sum(), 15);
    }

    #[test]
    fn handler_spans_subdivide_via_phase_values() {
        let evs = vec![
            span("handler", 2, 100, 200),
            phase("t_init", 2, 100, 30.0),
            phase("t_setup", 2, 100, 20.0),
        ];
        let a = attribute(&evs, 100, 200);
        assert_eq!(a.total(Stage::HandlerInit), 30);
        assert_eq!(a.total(Stage::HandlerSetup), 20);
        assert_eq!(a.total(Stage::HandlerProc), 50);
        assert_eq!(a.sum(), 100);
    }

    #[test]
    fn intervals_clamp_to_the_window() {
        let evs = vec![span("wire", 0, 0, 100)];
        let a = attribute(&evs, 40, 60);
        assert_eq!(a.total(Stage::Wire), 20);
        assert_eq!(a.sum(), 20);
    }
}
