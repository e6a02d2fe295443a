//! Property-based end-to-end tests: random datatypes through the full
//! simulated NIC pipeline under every strategy, in and out of order.

use proptest::prelude::*;

use ncmt::core::runner::{Experiment, Strategy as Recv};
use ncmt::ddt::flatten::flatten;
use ncmt::ddt::pack::{buffer_span, unpack};
use ncmt::ddt::typemap::typemap_verdict;
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::arena::take_zeroed;
use ncmt::sim::{FaultSpec, WireBuf};
use ncmt::spin::builtin::ContigProcessor;
use ncmt::spin::nic::{ReceiveSim, RunConfig};
use ncmt::spin::params::NicParams;

/// Random small-but-multi-packet datatypes (messages of 4–64 KiB).
fn arb_message_type() -> impl Strategy<Value = (Datatype, u32)> {
    let base = prop_oneof![Just(elem::int()), Just(elem::double()), Just(elem::float())];
    (base, 1u32..3).prop_flat_map(|(b, count)| {
        let (b1, b2, b3) = (b.clone(), b.clone(), b);
        prop_oneof![
            // vector
            (64u32..512, 1u32..16, 1i64..8).prop_map(move |(c, bl, gap)| {
                (Datatype::vector(c, bl, bl as i64 + gap, &b1), count)
            }),
            // indexed_block with irregular gaps
            (proptest::collection::vec(1i64..5, 16..128), 1u32..6).prop_map(move |(gaps, bl)| {
                let mut displs = Vec::with_capacity(gaps.len());
                let mut at = 0i64;
                for g in gaps {
                    displs.push(at);
                    at += bl as i64 + g;
                }
                (
                    Datatype::indexed_block(bl, &displs, &b2).expect("valid"),
                    count,
                )
            }),
            // nested vector (general strategies only path)
            (4u32..16, 2u32..6, 8u32..32).prop_map(move |(oc, ic, stride)| {
                let inner = Datatype::vector(ic, 1, 3, &b3);
                (
                    Datatype::hvector(oc, 1, (stride as i64) * 64, &inner),
                    count,
                )
            }),
        ]
    })
}

/// Vector and indexed-block types from dense to sparse (gaps of 1–63
/// elements), so the arena's re-zeroing takes both its one hull fill
/// and its per-run fills.
fn arb_landing_type() -> impl Strategy<Value = (Datatype, u32)> {
    let base = prop_oneof![Just(elem::int()), Just(elem::double())];
    (base, 1u32..3).prop_flat_map(|(b, count)| {
        let (b1, b2) = (b.clone(), b);
        prop_oneof![
            (64u32..512, 1u32..16, 1i64..64).prop_map(move |(c, bl, gap)| {
                (Datatype::vector(c, bl, bl as i64 + gap, &b1), count)
            }),
            (proptest::collection::vec(1i64..64, 16..128), 1u32..6).prop_map(move |(gaps, bl)| {
                let mut displs = Vec::with_capacity(gaps.len());
                let mut at = 0i64;
                for g in gaps {
                    displs.push(at);
                    at += bl as i64 + g;
                }
                (
                    Datatype::indexed_block(bl, &displs, &b2).expect("valid"),
                    count,
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_strategies_byte_exact((dt, count) in arb_message_type()) {
        prop_assume!(dt.size * count as u64 >= 4096);
        let exp = Experiment::new(dt, count, NicParams::with_hpus(8));
        for s in Recv::ALL {
            // Experiment::run verifies the receive buffer byte-for-byte.
            let r = exp.run(s);
            prop_assert!(r.t_complete > r.t_first_byte);
        }
    }

    #[test]
    fn out_of_order_byte_exact((dt, count) in arb_message_type(), seed in 0u64..1000) {
        prop_assume!(dt.size * count as u64 >= 8192);
        let mut exp = Experiment::new(dt, count, NicParams::with_hpus(8));
        exp.out_of_order = Some(seed);
        for s in Recv::ALL {
            exp.run(s);
        }
    }

    /// Random DDTs under random seeded fault schedules: delivery must
    /// stay byte-exact and exactly-once for every strategy. Fault rates
    /// are drawn as permille integers so a failing case shrinks toward
    /// the minimal fault schedule (rates walk to 0 knob by knob, then
    /// the datatype shrinks).
    #[test]
    fn faulty_network_byte_exact(
        (dt, count) in arb_message_type(),
        fault_seed in 0u64..1000,
        drop_pm in 0u64..120,
        dup_pm in 0u64..60,
        corrupt_pm in 0u64..40,
        reorder_us in 0u64..4,
    ) {
        prop_assume!(dt.size * count as u64 >= 4096);
        let mut exp = Experiment::new(dt, count, NicParams::with_hpus(8));
        exp.faults = FaultSpec {
            drop: drop_pm as f64 / 1000.0,
            duplicate: dup_pm as f64 / 1000.0,
            corrupt: corrupt_pm as f64 / 1000.0,
            reorder_window: nca_sim::us(reorder_us),
            seed: fault_seed,
        };
        for s in Recv::ALL {
            // Experiment::run verifies the receive buffer byte-for-byte.
            let r = exp.run(s);
            prop_assert!(r.rel.delivered_exactly_once, "{}", s.label());
            prop_assert_eq!(r.rel.dups_injected, r.rel.dups_suppressed);
            prop_assert_eq!(r.rel.corrupts_injected, r.rel.corrupts_rejected);
        }
    }

    /// The premises of the typemap verdict, held by the NIC itself, for
    /// random vector and indexed types, dense to sparse, under every
    /// strategy, in and out of order, lossless and faulty: every nonzero byte of the receive
    /// buffer lies inside its recorded extents; the verdict over those
    /// extents equals the span-sized compare with a reference unpack (the
    /// old check, kept here as the oracle); and the arena hands the span
    /// back all-zero once the report is dropped.
    #[test]
    fn recorded_extents_verify_like_the_span_compare(
        (dt, count) in arb_landing_type(),
        reorder_seed in 0u64..1000,
        fault_seed in 0u64..1000,
    ) {
        prop_assume!(dt.size * count as u64 >= 4096);
        let (origin, span) = buffer_span(&dt, count);
        let reference: Vec<(i64, u64)> = flatten(&dt, count)
            .entries
            .iter()
            .map(|e| (e.offset, e.len))
            .collect();
        let mut exp = Experiment::new(dt, count, NicParams::with_hpus(8));
        exp.verify = false;
        let packed = exp.packed_message();
        let mut expect = vec![0u8; span as usize];
        unpack(&exp.dt, count, &packed, &mut expect, origin).expect("unpackable");
        let lossy = FaultSpec {
            drop: 0.05,
            duplicate: 0.02,
            corrupt: 0.01,
            reorder_window: nca_sim::us(2),
            seed: fault_seed,
        };
        for (order, faults) in [
            (None, FaultSpec::inert()),
            (Some(reorder_seed), FaultSpec::inert()),
            (None, lossy),
            (Some(reorder_seed), lossy),
        ] {
            exp.out_of_order = order;
            exp.faults = faults;
            for s in Recv::ALL {
                let mut r = exp.run(s);
                let written = r.host_buf.written().expect("the NIC records every write");
                let mut covered = vec![false; r.host_buf.len()];
                for &(at, n) in written {
                    covered[at..at + n].fill(true);
                }
                prop_assert!(
                    r.host_buf.iter().zip(&covered).all(|(&b, &c)| b == 0 || c),
                    "{}: a nonzero byte outside the recorded extents", s.label()
                );
                // The verdict reads the buffer's own runs, sorted and
                // merged in place, as traffic's `landed` does; drop then
                // re-zeroes by them.
                let (buf, runs) = r.host_buf.merged_written().expect("recorded");
                let verdict = typemap_verdict(buf, origin, runs, &reference, &packed);
                prop_assert_eq!(verdict, *buf == expect[..], "{}", s.label());
                prop_assert!(verdict, "{}: receive not byte-exact", s.label());
                drop(r);
                let next = take_zeroed(span as usize);
                prop_assert!(next.iter().all(|&b| b == 0), "{}: dirty pooled buffer", s.label());
            }
        }
    }

    /// The zero-copy pipeline shares one `WireBuf` between the sender,
    /// every retransmission, and the fault layer. Corruption must be
    /// applied to a copy-on-write snapshot of the hit packet only: after
    /// an aggressively corrupting run, the shared buffer is still
    /// byte-identical to what the sender packed.
    #[test]
    fn corruption_never_touches_the_senders_buffer(
        len_kb in 1usize..48,
        fault_seed in 0u64..1000,
        corrupt_pm in 100u64..800,
    ) {
        let bytes = len_kb << 10;
        let msg: Vec<u8> = (0..bytes).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        let packed: WireBuf = msg.clone().into();
        let params = NicParams::with_hpus(8);
        let mut cfg = RunConfig::new(params.clone());
        cfg.faults = FaultSpec {
            corrupt: corrupt_pm as f64 / 1000.0,
            seed: fault_seed,
            ..FaultSpec::inert()
        };
        let proc = Box::new(ContigProcessor::new(0, params.spin_min_handler()));
        let r = ReceiveSim::run(proc, packed.clone(), 0, bytes as u64, &cfg);
        prop_assert_eq!(&packed[..], &msg[..], "sender's wire buffer was mutated");
        prop_assert_eq!(r.host_buf, msg);
        prop_assert_eq!(r.rel.corrupts_injected, r.rel.corrupts_rejected);
    }

    #[test]
    fn processing_time_at_least_wire_time((dt, count) in arb_message_type()) {
        let exp = Experiment::new(dt.clone(), count, NicParams::with_hpus(16));
        let msg = dt.size * count as u64;
        prop_assume!(msg >= 4096);
        let r = exp.run(Recv::Specialized);
        // Nothing can beat serialization at line rate.
        let wire = NicParams::default().line_rate.time_for(msg);
        prop_assert!(r.processing_time() >= wire);
    }
}

/// A zero-length message still produces a well-formed run: one empty
/// packet, an empty host buffer, and a completion signal.
#[test]
fn zero_length_message_completes() {
    let params = NicParams::with_hpus(4);
    let cfg = RunConfig::new(params.clone());
    let proc = Box::new(ContigProcessor::new(0, params.spin_min_handler()));
    let r = ReceiveSim::run(proc, WireBuf::empty(), 0, 0, &cfg);
    assert_eq!(r.npkt, 1);
    assert!(r.host_buf.is_empty());
    assert!(r.t_complete > 0);
}

/// `payload_size` larger than the whole message degenerates to a single
/// packet that carries the entire stream.
#[test]
fn payload_size_exceeding_message_is_one_packet() {
    let msg: Vec<u8> = (0..100u32).map(|i| (i % 251) as u8).collect();
    let params = NicParams::with_hpus(4);
    assert!(params.payload_size > msg.len() as u64);
    let cfg = RunConfig::new(params.clone());
    let proc = Box::new(ContigProcessor::new(0, params.spin_min_handler()));
    let packed: WireBuf = msg.clone().into();
    let r = ReceiveSim::run(proc, packed.clone(), 0, msg.len() as u64, &cfg);
    assert_eq!(r.npkt, 1);
    assert_eq!(r.host_buf, msg);
    assert_eq!(&packed[..], &msg[..]);
}
