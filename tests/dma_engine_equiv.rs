//! The eager (event-free) DMA engine must be observationally identical
//! to the event-driven one: same completion time, same landed bytes,
//! same write/byte counters and the same `dma_max_queue` high-water
//! mark. The eager engine runs whenever telemetry is off and no DMA
//! occupancy time series was requested — i.e. in every benchmark and
//! figure hot loop — so this equivalence is what keeps the perf fast
//! path honest against the reference pipeline.
//!
//! The reference runs are forced onto the event-driven engine two ways:
//! with a live (ring) telemetry sink, and with telemetry off but the
//! occupancy series on. Both must agree with the eager run.

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::FaultSpec;
use ncmt::spin::nic::RunReport;
use ncmt::spin::params::NicParams;
use ncmt::telemetry::Telemetry;

fn assert_equiv(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.t_complete, b.t_complete, "{what}: t_complete");
    assert_eq!(a.t_first_byte, b.t_first_byte, "{what}: t_first_byte");
    assert_eq!(a.dma_writes, b.dma_writes, "{what}: dma_writes");
    assert_eq!(a.dma_bytes, b.dma_bytes, "{what}: dma_bytes");
    assert_eq!(a.dma_max_queue, b.dma_max_queue, "{what}: dma_max_queue");
    assert_eq!(*a.host_buf, *b.host_buf, "{what}: host_buf");
    assert_eq!(
        a.nic_mem_hwm_bytes, b.nic_mem_hwm_bytes,
        "{what}: nic_mem_hwm"
    );
}

/// Workloads spanning γ regimes: fine blocks (DMA queue backlog), wide
/// blocks (service-bound) and a multi-count message.
fn workloads() -> Vec<(Datatype, u32)> {
    vec![
        (Datatype::vector(512, 16, 32, &elem::double()), 1),
        (Datatype::vector(64, 256, 512, &elem::double()), 1),
        (Datatype::vector(128, 4, 8, &elem::double()), 3),
    ]
}

#[test]
fn eager_dma_matches_event_driven_engine() {
    for (dt, count) in workloads() {
        for s in Strategy::ALL {
            let mut exp = Experiment::new(dt.clone(), count, NicParams::with_hpus(16));
            exp.verify = false;
            let eager = exp.run(s); // telemetry off, no history: eager engine

            let mut hist = exp.clone();
            hist.record_dma_history = true; // event-driven, telemetry still off
            let evented = hist.run(s);
            assert_equiv(&eager, &evented, &format!("{} history-run", s.label()));
            assert!(
                !evented.dma_history.is_empty(),
                "reference run must have taken the event-driven engine"
            );

            let mut tel = exp.clone();
            let (sink, _ring) = Telemetry::ring(1 << 14);
            tel.telemetry = sink; // event-driven via the telemetry gate
            let traced = tel.run(s);
            assert_equiv(&eager, &traced, &format!("{} traced-run", s.label()));
        }
    }
}

#[test]
fn eager_dma_matches_event_driven_engine_under_faults() {
    // The reliable-delivery path re-runs handlers for retransmitted
    // packets; DMA arrivals stay FIFO at nondecreasing times, which is
    // the property the eager schedule rests on. The fault sweep runs
    // this path (telemetry off, so eager) with this mix and datatype,
    // and takes its reliability and recovery counts from the report.
    let dt = Datatype::vector(512, 16, 32, &elem::double());
    let mut exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
    exp.verify = true;
    let mix = FaultSpec {
        drop: 0.05,
        duplicate: 0.02,
        corrupt: 0.01,
        reorder_window: 2_000_000,
        seed: 1,
    };
    let (mut retransmissions, mut catchup) = (0, 0);
    for seed in 1..=4 {
        exp.faults = mix.with_seed(seed);
        for s in Strategy::ALL {
            let what = format!("{} faulty, seed {seed}", s.label());
            let eager = exp.run(s);
            let mut hist = exp.clone();
            hist.record_dma_history = true;
            let evented = hist.run(s);
            assert_equiv(&eager, &evented, &what);
            assert_eq!(eager.rel, evented.rel, "{what}: rel");
            assert_eq!(eager.recovery, evented.recovery, "{what}: recovery");

            // Capture on, into a ring far too small to hold the run:
            // the counts come from the handler, not the trace.
            let mut tel = exp.clone();
            let (sink, ring) = Telemetry::ring(64);
            tel.telemetry = sink;
            let traced = tel.run(s);
            assert!(ring.dropped() > 0, "{what}: the ring must overflow");
            assert_eq!(eager.rel, traced.rel, "{what}: traced rel");
            assert_eq!(eager.recovery, traced.recovery, "{what}: traced recovery");

            retransmissions += eager.rel.retransmissions;
            catchup += eager.recovery.catchup_blocks;
        }
    }
    assert!(
        retransmissions > 0,
        "the mix must make the sender retransmit"
    );
    assert!(catchup > 0, "HPU-local must catch up");
}
