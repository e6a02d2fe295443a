//! Property-based tests for the datatype engine.
//!
//! A bounded random datatype generator drives the core invariants:
//! pack∘unpack identity over the whole span (gaps stay zero),
//! partial-processing equivalence, seek/advance agreement, checkpoint
//! correctness, and normalization typemap preservation.

use proptest::prelude::*;

use nca_ddt::checkpoint::CheckpointTable;
use nca_ddt::dataloop::compile;
use nca_ddt::normalize::normalize;
use nca_ddt::pack::{buffer_span, pack, pack_pattern, unpack, unpack_partial};
use nca_ddt::segment::Segment;
use nca_ddt::sink::{NullSink, VecSink};
use nca_ddt::typemap;
use nca_ddt::types::{elem, ArrayOrder, Datatype, DatatypeExt};

/// A strategy producing random (but bounded) datatype trees.
fn arb_datatype() -> impl Strategy<Value = Datatype> {
    let leaf = prop_oneof![
        Just(elem::byte()),
        Just(elem::int()),
        Just(elem::float()),
        Just(elem::double()),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            // contiguous
            (1u32..5, inner.clone()).prop_map(|(c, t)| Datatype::contiguous(c, &t)),
            // vector (positive strides keep buffers small)
            (1u32..5, 1u32..4, 1i64..8, inner.clone()).prop_map(|(c, b, s, t)| Datatype::vector(
                c,
                b,
                s.max(b as i64),
                &t
            )),
            // indexed_block with increasing displacements
            (
                1u32..3,
                proptest::collection::vec(0i64..6, 1..5),
                inner.clone()
            )
                .prop_map(|(b, gaps, t)| {
                    let mut displs = Vec::new();
                    let mut at = 0i64;
                    for g in gaps {
                        displs.push(at);
                        at += b as i64 + g;
                    }
                    Datatype::indexed_block(b, &displs, &t).unwrap()
                }),
            // indexed with variable lengths
            (
                proptest::collection::vec((1u32..4, 0i64..6), 1..5),
                inner.clone()
            )
                .prop_map(|(items, t)| {
                    let mut lens = Vec::new();
                    let mut displs = Vec::new();
                    let mut at = 0i64;
                    for (l, g) in items {
                        lens.push(l);
                        displs.push(at);
                        at += l as i64 + g;
                    }
                    Datatype::indexed(&lens, &displs, &t).unwrap()
                }),
            // 2-field struct
            (inner.clone(), inner, 0i64..64).prop_map(|(a, b, gap)| {
                let d1 = a.true_ub.max(a.ub) + gap;
                Datatype::struct_(&[1, 1], &[0, d1], &[a, b]).unwrap()
            }),
        ]
    })
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(37).wrapping_add(seed as usize) % 251) as u8)
        .collect()
}

/// The source buffer [`pack_pattern`] stands for: byte `i` of the span
/// is `i * 31 % 251`.
fn pattern31(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// `pack_pattern` against `pack` over the materialized pattern.
fn pack_pattern_matches_pack(dt: &Datatype, count: u32) -> bool {
    let (origin, span) = buffer_span(dt, count);
    pack_pattern(dt, count) == pack(dt, count, &pattern31(span as usize), origin).unwrap()
}

#[test]
fn pack_pattern_matches_pack_fixed_cases() {
    // A descending vector: the span's origin is negative.
    let desc = Datatype::vector(5, 2, -7, &elem::double());
    assert!(buffer_span(&desc, 1).0 < 0);
    // A struct of a subarray (one 240 B block) and two ints.
    let sa =
        Datatype::subarray(&[10, 10], &[3, 10], &[2, 0], ArrayOrder::C, &elem::double()).unwrap();
    let st = Datatype::struct_(&[1, 2], &[0, 1024], &[sa, elem::int()]).unwrap();
    // 800 B blocks, each spanning several pattern periods.
    let long = Datatype::vector(3, 100, 150, &elem::double());
    for (dt, count) in [(&desc, 1), (&desc, 3), (&st, 1), (&st, 2), (&long, 2)] {
        assert!(pack_pattern_matches_pack(dt, count), "{}", dt.signature());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pack_pattern_equals_pack_of_the_pattern(dt in arb_datatype(), count in 1u32..4) {
        let (_, span) = buffer_span(&dt, count);
        prop_assume!(span < 1 << 20);
        prop_assert!(pack_pattern_matches_pack(&dt, count));
    }

    #[test]
    fn size_laws(dt in arb_datatype(), count in 1u32..4) {
        let dl = compile(&dt, count);
        prop_assert_eq!(dl.size, dt.size * count as u64);
        // typemap total equals size
        let total: u64 = typemap::blocks(&dt, count).iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(total, dt.size * count as u64);
        // true extent bounds every block
        for (off, len) in typemap::blocks(&dt, 1) {
            prop_assert!(off >= dt.true_lb);
            prop_assert!(off + len as i64 <= dt.true_ub);
        }
    }

    #[test]
    fn pack_unpack_identity(dt in arb_datatype(), count in 1u32..4, seed in 0u8..255) {
        let (origin, span) = buffer_span(&dt, count);
        prop_assume!(span > 0 && span < 1 << 20);
        let src = pattern(span as usize, seed);
        let packed = pack(&dt, count, &src, origin).unwrap();
        prop_assert_eq!(packed.len() as u64, dt.size * count as u64);
        let mut dst = vec![0u8; span as usize];
        unpack(&dt, count, &packed, &mut dst, origin).unwrap();
        // The whole image, gaps included, against a zeroed span holding
        // each typemap block of `src`. Built by plain slice copies, not
        // by `nca_ddt::kernels`, which `typemap::reference_unpack` uses
        // too, so a kernel that writes past its block fails here.
        let mut expected = vec![0u8; span as usize];
        typemap::for_each_block(&dt, count, |off, len| {
            let s = (off - origin) as usize;
            expected[s..s + len as usize].copy_from_slice(&src[s..s + len as usize]);
        });
        prop_assert!(dst == expected, "unpack image differs from the typemap's");
    }

    #[test]
    fn chunked_processing_equivalent(
        dt in arb_datatype(),
        count in 1u32..3,
        chunk in 1u64..64,
        seed in 0u8..255,
    ) {
        let (origin, span) = buffer_span(&dt, count);
        prop_assume!(span > 0 && span < 1 << 20);
        let src = pattern(span as usize, seed);
        let packed = pack(&dt, count, &src, origin).unwrap();
        let mut full = vec![0u8; span as usize];
        unpack(&dt, count, &packed, &mut full, origin).unwrap();

        let dl = compile(&dt, count);
        let mut seg = Segment::new(dl);
        let mut piecewise = vec![0u8; span as usize];
        let mut pos = 0usize;
        while pos < packed.len() {
            let end = (pos + chunk as usize).min(packed.len());
            unpack_partial(&mut seg, pos as u64, &packed[pos..end], &mut piecewise, origin)
                .unwrap();
            pos = end;
        }
        prop_assert_eq!(piecewise, full);
    }

    #[test]
    fn seek_equals_linear_advance(dt in arb_datatype(), count in 1u32..3, frac in 0.0f64..1.0) {
        let dl = compile(&dt, count);
        prop_assume!(dl.size > 0);
        let pos = ((dl.size as f64 * frac) as u64).min(dl.size);
        let mut a = Segment::new(dl.clone());
        a.seek(pos).unwrap();
        let mut b = Segment::new(dl);
        b.advance(pos, &mut NullSink);
        prop_assert_eq!(a.position(), b.position());
        let mut sa = VecSink::default();
        let mut sb = VecSink::default();
        a.advance(32, &mut sa);
        b.advance(32, &mut sb);
        prop_assert_eq!(sa.blocks, sb.blocks);
    }

    #[test]
    fn checkpoint_resume_equals_fresh(
        dt in arb_datatype(),
        interval in 8u64..256,
        frac in 0.0f64..1.0,
    ) {
        let dl = compile(&dt, 2);
        prop_assume!(dl.size > 1);
        let table = CheckpointTable::build(&dl, interval).unwrap();
        let first = ((dl.size as f64 * frac) as u64).min(dl.size - 1);
        let last = (first + 40).min(dl.size);
        let mut from_cp = table.closest(first).materialize();
        let mut a = VecSink::default();
        from_cp.process_range(first, last, &mut a).unwrap();
        let mut fresh = Segment::new(dl);
        let mut b = VecSink::default();
        fresh.process_range(first, last, &mut b).unwrap();
        prop_assert_eq!(a.blocks, b.blocks);
        // resuming from the floor checkpoint never needs more catch-up
        // than one interval
        prop_assert!(from_cp.stats.catchup_bytes < interval);
    }

    #[test]
    fn normalization_preserves_merged_typemap(dt in arb_datatype()) {
        let n = normalize(&dt);
        prop_assert_eq!(n.size, dt.size);
        let merge = |t: &Datatype| {
            let mut out: Vec<(i64, u64)> = Vec::new();
            for (off, len) in typemap::blocks(t, 1) {
                match out.last_mut() {
                    Some(last) if last.0 + last.1 as i64 == off => last.1 += len,
                    _ => out.push((off, len)),
                }
            }
            out
        };
        prop_assert_eq!(merge(&dt), merge(&n));
    }

    #[test]
    fn flatten_covers_size(dt in arb_datatype(), count in 1u32..4) {
        let iov = nca_ddt::flatten::flatten(&dt, count);
        prop_assert_eq!(iov.total_bytes(), dt.size * count as u64);
        // entries are maximal: no two adjacent entries touch
        for w in iov.entries.windows(2) {
            prop_assert!(w[0].offset + w[0].len as i64 != w[1].offset);
        }
    }
}
