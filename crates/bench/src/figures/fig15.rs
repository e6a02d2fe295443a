//! Fig. 15 — DMA-write queue occupancy over time for γ = 16, per
//! strategy, including the host checkpoint-creation overhead.
//!
//! The timeline is reconstructed from the telemetry trace stream (the
//! `spin/dma_queue` gauge, sampled at every FIFO push/pop) rather than
//! from the pipeline's bespoke `dma_history` probe — the same events
//! a `--trace-out` Perfetto dump contains.

use nca_core::runner::{Experiment, Strategy};
use nca_spin::params::NicParams;
use nca_telemetry::{aggregate, EventKind, Telemetry, TraceEvent};

use super::vector_workload;

/// One strategy's timeline.
pub struct Timeline {
    /// Strategy label.
    pub strategy: &'static str,
    /// Host-side setup (checkpoint creation/copy), ps.
    pub host_overhead: u64,
    /// Sampled `(time_ps, queue_len)` series.
    pub series: Vec<(u64, usize)>,
    /// Busy-interval spans DMA channel 0 served.
    pub chan0_spans: usize,
    /// Total busy time of DMA channel 0, ps.
    pub chan0_busy: u64,
}

/// Count and total duration of the `dma_chan` busy spans on one
/// channel track (the per-channel PCIe-utilization view).
pub fn channel_busy(events: &[TraceEvent], chan: u64) -> (usize, u64) {
    events
        .iter()
        .filter(|ev| ev.component == "spin" && ev.name == "dma_chan" && ev.track == chan)
        .fold((0, 0), |(n, busy), ev| match ev.kind {
            EventKind::Span { end } => (n + 1, busy + end.saturating_sub(ev.time)),
            _ => (n, busy),
        })
}

/// Strategies in the figure's panel order.
pub const STRATEGIES: [Strategy; 4] = [
    Strategy::HpuLocal,
    Strategy::RoCp,
    Strategy::RwCp,
    Strategy::Specialized,
];

/// Compute the figure (γ=16, i.e. 128 B blocks).
pub fn timelines(quick: bool) -> Vec<Timeline> {
    let msg: u64 = if quick { 256 << 10 } else { 4 << 20 };
    STRATEGIES
        .iter()
        .map(|&s| {
            let (dt, count) = vector_workload(msg, 128);
            let mut exp = Experiment::new(dt, count, NicParams::with_hpus(16));
            exp.verify = false;
            let (tel, sink) = Telemetry::ring(1 << 20);
            exp.telemetry = tel;
            let r = exp.run(s);
            let events = sink.events();
            let history: Vec<(u64, usize)> = aggregate::gauge_series(&events, "spin", "dma_queue")
                .into_iter()
                .map(|(t, v)| (t, v as usize))
                .collect();
            // Downsample to 48 points for the table.
            let series = sample(&history, 48);
            let (chan0_spans, chan0_busy) = channel_busy(&events, 0);
            Timeline {
                strategy: s.label(),
                host_overhead: r.host_setup_time,
                series,
                chan0_spans,
                chan0_busy,
            }
        })
        .collect()
}

/// Downsample `h` to at most `n` evenly spaced points.
pub fn sample(h: &[(u64, usize)], n: usize) -> Vec<(u64, usize)> {
    if h.len() <= n {
        return h.to_vec();
    }
    let step = h.len() as f64 / n as f64;
    (0..n).map(|i| h[(i as f64 * step) as usize]).collect()
}

/// Render the figure's rows as TSV lines (golden-tested).
pub fn rows(quick: bool) -> Vec<String> {
    let mut out = Vec::new();
    for t in timelines(quick) {
        out.push(format!(
            "{}\thost_overhead_us\t{:.1}",
            t.strategy,
            t.host_overhead as f64 / 1e6
        ));
        out.push(format!(
            "{}\tdma_chan0\t{}\t{:.1}",
            t.strategy,
            t.chan0_spans,
            t.chan0_busy as f64 / 1e6
        ));
        for (time, q) in &t.series {
            out.push(format!("{}\t{:.4}\t{}", t.strategy, *time as f64 / 1e9, q));
        }
    }
    out
}

/// Print the figure table.
pub fn print(quick: bool) {
    println!("# Fig. 15 — DMA queue size over time (gamma = 16)");
    for t in timelines(quick) {
        println!(
            "## {} (host overhead: {:.1} us; DMA chan 0: {} spans, {:.1} us busy)",
            t.strategy,
            t.host_overhead as f64 / 1e6,
            t.chan0_spans,
            t.chan0_busy as f64 / 1e6
        );
        println!("time_ms\tqueue");
        for (time, q) in &t.series {
            println!("{:.4}\t{}", *time as f64 / 1e9, q);
        }
    }
}
