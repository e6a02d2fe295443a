//! End-to-end fault-injection + reliable-delivery tests: every strategy
//! must produce a byte-exact receive buffer under any fault mix, the
//! schedule must be a pure function of the seed, and degraded paths
//! (retry exhaustion, NIC-memory exhaustion) must recover instead of
//! wedging.

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::pack::{buffer_span, unpack};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::FaultSpec;
use ncmt::spin::params::NicParams;

fn small_exp() -> Experiment {
    // 512 blocks of 16 doubles, stride 32 -> 64 KiB message, 32 packets.
    let dt = Datatype::vector(512, 16, 32, &elem::double());
    Experiment::new(dt, 1, NicParams::with_hpus(16))
}

fn lossy(seed: u64) -> FaultSpec {
    FaultSpec {
        drop: 0.05,
        duplicate: 0.02,
        corrupt: 0.01,
        reorder_window: nca_sim::us(2),
        seed,
    }
}

#[test]
fn all_strategies_byte_exact_under_fault_mix() {
    for seed in [1u64, 7, 42] {
        let mut exp = small_exp();
        exp.faults = lossy(seed);
        for s in Strategy::ALL {
            // Experiment::run verifies the receive buffer internally and
            // panics on any corruption.
            let r = exp.run(s);
            assert!(
                r.rel.delivered_exactly_once,
                "{} seed {seed}: not exactly-once",
                s.label()
            );
            assert_eq!(r.rel.corrupts_injected, r.rel.corrupts_rejected);
            assert_eq!(r.rel.dups_injected, r.rel.dups_suppressed);
        }
    }
}

#[test]
fn fault_schedule_is_a_pure_function_of_the_seed() {
    let mut exp = small_exp();
    exp.faults = lossy(99);
    let a = exp.run(Strategy::RwCp);
    let b = exp.run(Strategy::RwCp);
    assert_eq!(a.rel, b.rel, "same seed must replay identically");
    assert_eq!(a.host_buf, b.host_buf);
    assert_eq!(a.t_complete, b.t_complete);
    // A different seed draws a different schedule (with these rates and
    // 32 packets the chance of identical stats is negligible).
    exp.faults = lossy(100);
    let c = exp.run(Strategy::RwCp);
    assert_ne!(
        (
            a.rel.drops_injected,
            a.rel.dups_injected,
            a.rel.corrupts_injected
        ),
        (
            c.rel.drops_injected,
            c.rel.dups_injected,
            c.rel.corrupts_injected
        ),
        "different seeds should differ"
    );
}

#[test]
fn faults_trigger_retransmissions_and_stay_exact() {
    let mut exp = small_exp();
    exp.faults = FaultSpec {
        drop: 0.3,
        ..lossy(5)
    };
    let r = exp.run(Strategy::Specialized);
    assert!(r.rel.drops_injected > 0, "30% drop over 32 pkts must hit");
    assert!(r.rel.retransmissions > 0);
    assert!(r.rel.delivered_exactly_once);
}

#[test]
fn total_loss_degrades_to_host_fallback_and_recovers() {
    let mut exp = small_exp();
    // Every transmission (and retransmission) is dropped: the sender
    // exhausts its retry budget on every packet and the host-fallback
    // channel must recover all of them.
    exp.faults = FaultSpec {
        drop: 1.0,
        duplicate: 0.0,
        corrupt: 0.0,
        reorder_window: 0,
        seed: 3,
    };
    exp.reliability.max_retries = 2;
    let r = exp.run(Strategy::RwCp);
    assert_eq!(r.rel.host_fallback_packets, r.npkt);
    assert!(r.rel.delivered_exactly_once);
    assert_eq!(
        r.rel.retransmissions,
        r.npkt * exp.reliability.max_retries as u64
    );
}

#[test]
fn corruption_only_mix_rejects_and_retransmits() {
    let mut exp = small_exp();
    exp.faults = FaultSpec {
        drop: 0.0,
        duplicate: 0.0,
        corrupt: 0.2,
        reorder_window: 0,
        seed: 11,
    };
    let r = exp.run(Strategy::HpuLocal);
    assert!(r.rel.corrupts_injected > 0);
    assert_eq!(r.rel.corrupts_injected, r.rel.corrupts_rejected);
    assert!(
        r.rel.retransmissions > 0,
        "rejected packets must retransmit"
    );
    assert!(r.rel.delivered_exactly_once);

    // Corrupt every copy: each one is checked and rejected, so every
    // packet exhausts its retries and arrives over the host fallback.
    exp.faults.corrupt = 1.0;
    exp.reliability.max_retries = 2;
    let r = exp.run(Strategy::HpuLocal);
    assert_eq!(
        r.rel.corrupts_injected,
        r.npkt * (1 + exp.reliability.max_retries as u64)
    );
    assert_eq!(r.rel.corrupts_rejected, r.rel.corrupts_injected);
    assert_eq!(r.rel.host_fallback_packets, r.npkt);
    assert!(r.rel.delivered_exactly_once);
    let (origin, span) = buffer_span(&exp.dt, exp.count);
    let mut expect = vec![0u8; span as usize];
    unpack(
        &exp.dt,
        exp.count,
        &exp.packed_message(),
        &mut expect,
        origin,
    )
    .expect("unpackable");
    assert_eq!(r.host_buf, expect, "the fallback copies are not byte-exact");
}

#[test]
fn inert_faults_take_the_legacy_lossless_path_bit_identically() {
    let base = small_exp();
    let mut with_knobs = small_exp();
    with_knobs.faults = FaultSpec::inert();
    with_knobs.reliability.rto = nca_sim::us(1); // must not matter
    for s in Strategy::ALL {
        let a = base.run(s);
        let b = with_knobs.run(s);
        assert_eq!(a.t_complete, b.t_complete, "{}", s.label());
        assert_eq!(a.host_buf, b.host_buf);
        assert_eq!(a.dma_writes, b.dma_writes);
        assert_eq!(a.rel, b.rel);
        assert!(a.rel.delivered_exactly_once);
        assert_eq!(a.rel.transmissions, 0, "lossless path has no tx state");
    }
}

#[test]
fn nic_memory_exhaustion_falls_back_to_host_unpack() {
    let mut exp = small_exp();
    exp.params.nic_mem_capacity = 16; // nothing fits
    exp.enforce_nic_capacity = true;
    let r = exp.run(Strategy::RwCp);
    assert!(r.rel.nic_mem_fallback);
    // The host unpack writes its arena buffer through the recorder, so
    // the buffer lists its written extents and drop re-zeroes only those.
    assert!(r.host_buf.written().is_some(), "fallback buffer untracked");
    let (origin, span) = buffer_span(&exp.dt, exp.count);
    let mut expect = vec![0u8; span as usize];
    unpack(
        &exp.dt,
        exp.count,
        &exp.packed_message(),
        &mut expect,
        origin,
    )
    .expect("unpackable");
    assert_eq!(r.host_buf, expect, "fallback unpack not byte-exact");

    // And the fallback still works on a lossy network.
    exp.faults = lossy(21);
    let r2 = exp.run(Strategy::RwCp);
    assert!(r2.rel.nic_mem_fallback);
    assert!(r2.rel.delivered_exactly_once);
    assert!(r2.host_buf.written().is_some(), "fallback buffer untracked");

    // With capacity restored the normal offloaded path is taken.
    exp.params.nic_mem_capacity = 4 << 20;
    exp.faults = FaultSpec::inert();
    let r3 = exp.run(Strategy::RwCp);
    assert!(!r3.rel.nic_mem_fallback);
}

#[test]
fn reordering_window_alone_preserves_exactness() {
    let mut exp = small_exp();
    exp.faults = FaultSpec {
        drop: 0.0,
        duplicate: 0.0,
        corrupt: 0.0,
        reorder_window: nca_sim::us(10),
        seed: 8,
    };
    for s in Strategy::ALL {
        let r = exp.run(s);
        assert!(r.rel.delivered_exactly_once, "{}", s.label());
        assert_eq!(r.rel.drops_injected + r.rel.corrupts_injected, 0);
    }
}
