//! Reference typemap enumeration.
//!
//! [`for_each_block`] walks a datatype tree recursively and yields every
//! *leaf* contiguous block as `(buffer_offset_bytes, len_bytes)` in typemap
//! (= packed stream) order. It is deliberately simple and unoptimized: it
//! serves as the ground truth against which the compiled
//! [`crate::dataloop`]/[`crate::segment`] engine is differential-tested,
//! and as the source for iovec flattening.

use crate::types::{Datatype, DatatypeKind};

/// Invoke `f(offset, len)` for every elementary-level contiguous block of
/// `count` copies of `dt`, placed at byte `base`, in typemap order.
///
/// Adjacent blocks are *not* merged here (see [`crate::flatten`] for the
/// merged form).
pub fn for_each_block(dt: &Datatype, count: u32, mut f: impl FnMut(i64, u64)) {
    for c in 0..count as i64 {
        walk(dt, c * dt.extent(), &mut f);
    }
}

fn walk(dt: &Datatype, base: i64, f: &mut impl FnMut(i64, u64)) {
    match &dt.kind {
        DatatypeKind::Elementary(e) => f(base, e.size()),
        DatatypeKind::Contiguous { count } => {
            let child = dt.child.as_ref().expect("contiguous child");
            let ext = child.extent();
            for i in 0..*count as i64 {
                walk(child, base + i * ext, f);
            }
        }
        DatatypeKind::Vector {
            count,
            blocklen,
            stride_bytes,
        } => {
            let child = dt.child.as_ref().expect("vector child");
            let ext = child.extent();
            for i in 0..*count as i64 {
                let block_base = base + i * stride_bytes;
                for j in 0..*blocklen as i64 {
                    walk(child, block_base + j * ext, f);
                }
            }
        }
        DatatypeKind::IndexedBlock {
            blocklen,
            displs_bytes,
        } => {
            let child = dt.child.as_ref().expect("indexed_block child");
            let ext = child.extent();
            for &d in displs_bytes.iter() {
                for j in 0..*blocklen as i64 {
                    walk(child, base + d + j * ext, f);
                }
            }
        }
        DatatypeKind::Indexed { blocks } => {
            let child = dt.child.as_ref().expect("indexed child");
            let ext = child.extent();
            for &(len, d) in blocks.iter() {
                for j in 0..len as i64 {
                    walk(child, base + d + j * ext, f);
                }
            }
        }
        DatatypeKind::Struct { fields } => {
            for field in fields.iter() {
                let ext = field.ty.extent();
                for j in 0..field.count as i64 {
                    walk(&field.ty, base + field.displ + j * ext, f);
                }
            }
        }
        DatatypeKind::Resized { .. } => {
            walk(dt.child.as_ref().expect("resized child"), base, f);
        }
    }
}

/// Collect the full (unmerged) typemap of `count` copies of `dt`.
pub fn blocks(dt: &Datatype, count: u32) -> Vec<(i64, u64)> {
    let mut v = Vec::new();
    for_each_block(dt, count, |off, len| v.push((off, len)));
    v
}

/// Reference scatter: compute, for a packed stream of `dt.size * count`
/// bytes, the destination buffer offset of every stream byte range, and
/// copy `src` into `dst` accordingly. `dst` is indexed from the true lower
/// bound upward; `dst[0]` corresponds to buffer offset `origin`.
///
/// Panics if any block falls outside `dst` — tests construct buffers from
/// the type bounds so this indicates a bug.
pub fn reference_unpack(dt: &Datatype, count: u32, src: &[u8], dst: &mut [u8], origin: i64) {
    let mut pos = 0usize;
    for_each_block(dt, count, |off, len| {
        let start = (off - origin) as usize;
        let len = len as usize;
        crate::kernels::copy_block(dst, start, src, pos, len);
        pos += len;
    });
    assert_eq!(pos, src.len(), "stream length mismatch in reference_unpack");
}

/// Whether an unpack `image` (index 0 ↔ buffer offset `origin`) equals
/// the image a manual copy of `packed` along the typemap builds: the
/// `written` runs recorded while unpacking cover exactly the
/// `reference` runs, and the reference runs' bytes in `image`, taken in
/// stream order, equal `packed`.
///
/// `written` is what the receive buffer recorded, `(index, len)` with
/// index 0 at `origin`, sorted by index and merged (disjoint, not
/// touching), as `nca_sim::arena::PooledBuf::merged_written` returns it
/// whatever order the writes came in (a NIC's DMA order is not stream
/// order once several HPUs finish out of turn). `reference` is the
/// typemap's runs `(buf_off, len)` in stream order, adjacent runs merged
/// or not (the element-wise walk, or the dataloop's merged runs from
/// [`crate::flatten`]). Written runs out of order or not merged never
/// let a wrong image pass: each reference run must lie inside one
/// written run, and the written runs' lengths must add up to the
/// message. Debug builds assert the order.
///
/// This equals comparing `image` byte for byte with a second,
/// span-sized image that a manual copy filled, without building that
/// image or reading a gap:
/// - `image` starts all-zero, as the manual image does (a receive
///   buffer from `nca_sim::arena`, by its invariant that a pooled
///   buffer is all-zero);
/// - every write to `image` goes through the recorder that produced
///   `written` (`DirectDst`'s recorder in `nca_spin`, the only way a
///   handler, the NIC's data-carrying writes or a host-side unpack reach
///   a receive buffer), and the kernels behind it are safe slice copies
///   of exactly the recorded extents (`pack_unpack_identity` in
///   `nca-ddt`'s proptests holds them to that);
/// - so when the written runs cover exactly the typemap's bytes, every
///   gap is still zero, as in the manual image;
/// - the covered bytes then match exactly when they hold the packed
///   stream in typemap order, which is what the manual copy put there.
///
/// The coverage check and the last step need a typemap without
/// overlaps, which MPI requires of a receive type: where two elements
/// overlap, the manual copy keeps only the later one's bytes.
/// Allocates nothing; linear in the runs when the reference is sorted by
/// buffer offset (every app typemap is).
pub fn typemap_verdict(
    image: &[u8],
    origin: i64,
    written: &[(usize, usize)],
    reference: &[(i64, u64)],
    packed: &[u8],
) -> bool {
    debug_assert!(
        written.is_sorted_by(|a, b| a.0 + a.1 < b.0),
        "written runs must be sorted and merged"
    );
    // Merged as the reference is (a typemap in buffer order, unpacked or
    // landed): the cover is the reference's by construction.
    let as_listed = written.len() == reference.len()
        && written
            .iter()
            .zip(reference)
            .all(|(&(at, n), &(off, len))| origin + at as i64 == off && n as u64 == len);
    (as_listed || covers(written, origin, reference, packed.len()))
        && holds_stream(image, origin, reference, packed)
}

/// Whether `written` (sorted and merged) is `total` bytes long and
/// covers every `reference` run. With disjoint reference runs of `total`
/// bytes in all (which [`holds_stream`] checks), that makes it exactly
/// the reference's bytes.
fn covers(written: &[(usize, usize)], origin: i64, reference: &[(i64, u64)], total: usize) -> bool {
    let end = |(at, n): (usize, usize)| at + n;
    if written.iter().map(|run| run.1).sum::<usize>() != total {
        return false;
    }
    let mut at = 0usize;
    reference.iter().filter(|run| run.1 > 0).all(|&(off, len)| {
        let Ok(start) = usize::try_from(off - origin) else {
            return false; // before the image
        };
        if at == written.len() || start < written[at].0 {
            // A step back (or a gap): find the run by binary search.
            at = written.partition_point(|&c| end(c) <= start);
        }
        while at < written.len() && end(written[at]) <= start {
            at += 1;
        }
        at < written.len() && written[at].0 <= start && start + len as usize <= end(written[at])
    })
}

/// Whether the `reference` runs' bytes in `image`, taken in stream
/// order, are exactly `packed`.
fn holds_stream(image: &[u8], origin: i64, reference: &[(i64, u64)], packed: &[u8]) -> bool {
    let mut cursor = 0usize;
    reference.iter().all(|&(off, len)| {
        let (at, len) = ((off - origin) as usize, len as usize);
        let same = packed
            .get(cursor..cursor + len)
            .is_some_and(|stream| image[at..at + len] == *stream);
        cursor += len;
        same
    }) && cursor == packed.len()
}

/// Reference gather (pack): inverse of [`reference_unpack`].
pub fn reference_pack(dt: &Datatype, count: u32, src: &[u8], origin: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity((dt.size * count as u64) as usize);
    for_each_block(dt, count, |off, len| {
        let start = (off - origin) as usize;
        out.extend_from_slice(&src[start..start + len as usize]);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{elem, ArrayOrder, DatatypeExt};

    #[test]
    fn vector_blocks_in_order() {
        let t = Datatype::vector(3, 2, 4, &elem::int());
        let b = blocks(&t, 1);
        // 3 blocks of 2 ints each -> 6 elementary blocks of 4 bytes
        assert_eq!(b.len(), 6);
        assert_eq!(b[0], (0, 4));
        assert_eq!(b[1], (4, 4));
        assert_eq!(b[2], (16, 4));
        assert_eq!(b[5], (36, 4));
    }

    #[test]
    fn count_steps_by_extent() {
        let t = Datatype::vector(2, 1, 2, &elem::int());
        // extent = (1*2+1)*4 = 12? lb=0, ub = stride*(count-1)+blocklen ext = 8+4=12
        assert_eq!(t.extent(), 12);
        let b = blocks(&t, 2);
        assert_eq!(b.len(), 4);
        assert_eq!(b[2].0, 12);
        assert_eq!(b[3].0, 20);
    }

    #[test]
    fn total_bytes_equals_size() {
        let t = Datatype::subarray(
            &[5, 7, 3],
            &[2, 4, 2],
            &[1, 1, 0],
            ArrayOrder::C,
            &elem::double(),
        )
        .unwrap();
        let total: u64 = blocks(&t, 3).iter().map(|&(_, l)| l).sum();
        assert_eq!(total, t.size * 3);
    }

    #[test]
    fn reference_pack_unpack_roundtrip() {
        let t = Datatype::vector(4, 3, 5, &elem::int());
        let span = (t.true_ub - t.true_lb) as usize + t.extent() as usize; // room for count=2
        let mut buf = vec![0u8; span + 64];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let packed = reference_pack(&t, 2, &buf, 0);
        assert_eq!(packed.len(), (t.size * 2) as usize);
        let mut out = vec![0u8; buf.len()];
        reference_unpack(&t, 2, &packed, &mut out, 0);
        // every mapped byte must match, unmapped bytes must be zero
        let mut mapped = vec![false; buf.len()];
        for_each_block(&t, 2, |off, len| {
            for k in off..off + len as i64 {
                mapped[k as usize] = true;
            }
        });
        for i in 0..buf.len() {
            if mapped[i] {
                assert_eq!(out[i], buf[i], "mismatch at {i}");
            } else {
                assert_eq!(out[i], 0, "unmapped byte {i} written");
            }
        }
    }

    #[test]
    fn typemap_verdict_rejects_every_wrong_image() {
        use crate::flatten::flatten;
        use crate::pack::{buffer_span, pack_pattern, unpack};
        // Four 8-byte runs at a 48-byte stride: 40-byte gaps.
        let dt = Datatype::vector(4, 2, 12, &elem::int());
        let (origin, span) = buffer_span(&dt, 1);
        let packed = pack_pattern(&dt, 1);
        let mut image = vec![0u8; span as usize];
        unpack(&dt, 1, &packed, &mut image, origin).unwrap();
        // The element-wise reference: eight 4-byte elements.
        let reference = blocks(&dt, 1);
        // Runs as a receive buffer records them: `(index, len)`.
        let recorded = |runs: &[(i64, u64)]| -> Vec<(usize, usize)> {
            runs.iter()
                .map(|&(off, len)| ((off - origin) as usize, len as usize))
                .collect()
        };
        let flat: Vec<(i64, u64)> = flatten(&dt, 1)
            .entries
            .iter()
            .map(|e| (e.offset, e.len))
            .collect();
        let written = recorded(&flat);
        assert_eq!(written.len(), 4);
        let verdict = |image: &[u8], written: &[(usize, usize)]| {
            typemap_verdict(image, origin, written, &reference, &packed)
        };
        let at = |run: usize| written[run].0;
        assert!(verdict(&image, &written));
        // Against the dataloop's merged runs, which the written list
        // equals.
        assert!(typemap_verdict(&image, origin, &written, &flat, &packed));

        // One run shifted by a byte, its bytes moved along with it.
        let (mut img, mut runs) = (image.clone(), written.clone());
        let bytes = img[at(1)..at(1) + 8].to_vec();
        img[at(1)..at(1) + 8].fill(0);
        img[at(1) + 1..at(1) + 9].copy_from_slice(&bytes);
        runs[1].0 += 1;
        assert!(!verdict(&img, &runs));

        // A run missing from the written list, its bytes left zero.
        let (mut img, mut runs) = (image.clone(), written.clone());
        img[at(2)..at(2) + 8].fill(0);
        runs.remove(2);
        assert!(!verdict(&img, &runs));

        // An extra one-byte run in the gap after run 0.
        let (mut img, mut runs) = (image.clone(), written.clone());
        img[at(0) + 12] = 0xab;
        runs.insert(1, (written[0].0 + 12, 1));
        assert!(!verdict(&img, &runs));

        // One covered byte flipped.
        let mut img = image.clone();
        img[at(3)] ^= 0xff;
        assert!(!verdict(&img, &written));
    }

    #[test]
    fn typemap_verdict_reads_a_reference_out_of_buffer_order() {
        // Field A at offset 8 comes first in the stream, B at 0 second.
        let t = Datatype::struct_(&[1, 1], &[8, 0], &[elem::int(), elem::int()]).unwrap();
        let packed = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut image = [5u8, 6, 7, 8, 0, 0, 0, 0, 1, 2, 3, 4];
        let reference = blocks(&t, 1);
        let verdict =
            |image: &[u8]| typemap_verdict(image, 0, &[(0, 4), (8, 4)], &reference, &packed);
        assert!(verdict(&image));
        image[0] = 1;
        assert!(!verdict(&image));
    }

    #[test]
    fn struct_field_order_defines_stream_order() {
        // field B placed before field A in memory, but A first in typemap
        let t = Datatype::struct_(&[1, 1], &[8, 0], &[elem::int(), elem::int()]).unwrap();
        let b = blocks(&t, 1);
        assert_eq!(b[0], (8, 4));
        assert_eq!(b[1], (0, 4));
    }
}
