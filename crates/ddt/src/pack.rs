//! Pack/unpack built on the segment engine — the host-side reference
//! implementation (what `MPI_Pack`/`MPI_Unpack`/`MPIT_Type_memcpy` do).

use crate::dataloop::compile_cached;
use crate::error::{DdtError, Result};
use crate::segment::{SegStats, Segment};
use crate::sink::{BlockSink, CopySink, PackSink};
use crate::types::Datatype;

/// Byte span a buffer must cover to hold `count` copies of `dt`:
/// `(origin, len)` where `origin` is the lowest touched byte offset
/// (≤ 0 for types with negative displacements) and `len` the span size.
pub fn buffer_span(dt: &Datatype, count: u32) -> (i64, u64) {
    if count == 0 || dt.size == 0 {
        return (0, 0);
    }
    let first = dt.true_lb;
    let last = dt.true_ub + (count as i64 - 1) * dt.extent();
    let last = last.max(dt.true_ub);
    (first.min(0), (last - first.min(0)) as u64)
}

/// Pack `count` copies of `dt` from `src` into a fresh contiguous buffer.
/// `src[0]` corresponds to buffer offset `origin`.
pub fn pack(dt: &Datatype, count: u32, src: &[u8], origin: i64) -> Result<Vec<u8>> {
    let (lo, span) = buffer_span(dt, count);
    if (src.len() as u64) < span || lo < origin {
        return Err(DdtError::BufferTooSmall {
            needed: span,
            got: src.len() as u64,
        });
    }
    let dl = compile_cached(dt, count);
    let mut out = Vec::with_capacity(dl.size as usize);
    let mut seg = Segment::new(dl);
    let mut sink = PackSink {
        src,
        origin,
        out: &mut out,
    };
    seg.advance(u64::MAX, &mut sink);
    Ok(out)
}

/// Period of the payload pattern [`pack_pattern`] generates.
const PERIOD: usize = 251;

/// Two periods of the payload pattern `i * 31 % 251`: a run of up to one
/// period that starts anywhere in the first period is one slice.
const PATTERN: [u8; 2 * PERIOD] = {
    let mut t = [0u8; 2 * PERIOD];
    let mut i = 0;
    while i < t.len() {
        t[i] = (i * 31 % PERIOD) as u8;
        i += 1;
    }
    t
};

/// Pack sink whose source buffer is the implicit pattern: buffer offset
/// `origin + i` holds `PATTERN[i % PERIOD]`.
struct PatternSink {
    origin: i64,
    out: Vec<u8>,
}

impl BlockSink for PatternSink {
    #[inline]
    fn block(&mut self, buf_off: i64, len: u64, _stream_off: u64) {
        let mut p = (buf_off - self.origin).rem_euclid(PERIOD as i64) as usize;
        let mut len = len as usize;
        while len > 0 {
            let n = len.min(PERIOD);
            self.out.extend_from_slice(&PATTERN[p..p + n]);
            p = (p + n) % PERIOD;
            len -= n;
        }
    }
}

/// The packed message every simulated sender transmits: `count` copies
/// of `dt` packed from a buffer whose byte `i` (counted from the span's
/// origin) is `i * 31 % 251`. Equals
/// `pack(dt, count, &pattern, origin)` with `(origin, span) =
/// buffer_span(dt, count)`, but only the bytes the message carries are
/// generated, so a sparse type costs its size rather than its span.
pub fn pack_pattern(dt: &Datatype, count: u32) -> Vec<u8> {
    let (origin, _) = buffer_span(dt, count);
    let dl = compile_cached(dt, count);
    let mut sink = PatternSink {
        origin,
        out: Vec::with_capacity(dl.size as usize),
    };
    Segment::new(dl).advance(u64::MAX, &mut sink);
    sink.out
}

/// Unpack a full packed stream into `dst` (`dst[0]` ↔ buffer offset
/// `origin`). Returns the segment statistics (block counts drive the
/// host-unpack cost model).
pub fn unpack(
    dt: &Datatype,
    count: u32,
    packed: &[u8],
    dst: &mut [u8],
    origin: i64,
) -> Result<SegStats> {
    let dl = compile_cached(dt, count);
    if packed.len() as u64 != dl.size {
        return Err(DdtError::StreamOutOfBounds {
            pos: packed.len() as u64,
            size: dl.size,
        });
    }
    let mut seg = Segment::new(dl);
    let mut sink = CopySink {
        src: packed,
        stream_base: 0,
        dst,
        origin,
    };
    seg.advance(u64::MAX, &mut sink);
    Ok(seg.stats)
}

/// Unpack one contiguous piece of the packed stream (e.g. a packet
/// payload) covering stream offsets `[first, first + piece.len())`,
/// resuming `seg` with catch-up/reset semantics.
pub fn unpack_partial(
    seg: &mut Segment,
    first: u64,
    piece: &[u8],
    dst: &mut [u8],
    origin: i64,
) -> Result<()> {
    let mut sink = CopySink {
        src: piece,
        stream_base: first,
        dst,
        origin,
    };
    seg.process_range(first, first + piece.len() as u64, &mut sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataloop::compile;
    use crate::typemap;
    use crate::types::{elem, ArrayOrder, Datatype, DatatypeExt};

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
    }

    fn roundtrip(dt: &Datatype, count: u32) {
        let (origin, span) = buffer_span(dt, count);
        let src = pattern(span as usize);
        let packed = pack(dt, count, &src, origin).unwrap();
        assert_eq!(packed.len() as u64, dt.size * count as u64);
        // Compare against the slow reference.
        let reference = typemap::reference_pack(dt, count, &src, origin);
        assert_eq!(packed, reference, "pack mismatch for {}", dt.signature());

        let mut dst = vec![0u8; span as usize];
        unpack(dt, count, &packed, &mut dst, origin).unwrap();
        // Every mapped byte must round-trip.
        typemap::for_each_block(dt, count, |off, len| {
            let s = (off - origin) as usize;
            assert_eq!(&dst[s..s + len as usize], &src[s..s + len as usize]);
        });
    }

    #[test]
    fn roundtrip_various_types() {
        roundtrip(&Datatype::contiguous(9, &elem::int()), 3);
        roundtrip(&Datatype::vector(5, 2, 7, &elem::double()), 2);
        roundtrip(&Datatype::vector(5, 2, -7, &elem::double()), 1);
        roundtrip(
            &Datatype::indexed(&[3, 1, 2], &[4, 0, 10], &elem::float()).unwrap(),
            2,
        );
        roundtrip(
            &Datatype::subarray(
                &[5, 6, 7],
                &[2, 3, 4],
                &[1, 2, 1],
                ArrayOrder::Fortran,
                &elem::int(),
            )
            .unwrap(),
            1,
        );
        let sa = Datatype::subarray(&[10, 10], &[3, 10], &[2, 0], ArrayOrder::C, &elem::double())
            .unwrap();
        let st = Datatype::struct_(&[1, 2], &[0, 1024], &[sa, elem::int()]).unwrap();
        roundtrip(&st, 2);
    }

    #[test]
    fn unpack_partial_packetwise_equals_full() {
        let dt = Datatype::vector(40, 3, 8, &elem::int());
        let (origin, span) = buffer_span(&dt, 2);
        let src = pattern(span as usize);
        let packed = pack(&dt, 2, &src, origin).unwrap();

        let mut full = vec![0u8; span as usize];
        unpack(&dt, 2, &packed, &mut full, origin).unwrap();

        for pkt in [1usize, 5, 64, 333] {
            let dl = compile(&dt, 2);
            let mut seg = Segment::new(dl);
            let mut piecewise = vec![0u8; span as usize];
            let mut pos = 0usize;
            while pos < packed.len() {
                let end = (pos + pkt).min(packed.len());
                unpack_partial(
                    &mut seg,
                    pos as u64,
                    &packed[pos..end],
                    &mut piecewise,
                    origin,
                )
                .unwrap();
                pos = end;
            }
            assert_eq!(piecewise, full, "packet size {pkt}");
        }
    }

    #[test]
    fn unpack_partial_out_of_order_with_catchup() {
        let dt = Datatype::vector(32, 1, 3, &elem::double());
        let (origin, span) = buffer_span(&dt, 1);
        let src = pattern(span as usize);
        let packed = pack(&dt, 1, &src, origin).unwrap();
        let mut full = vec![0u8; span as usize];
        unpack(&dt, 1, &packed, &mut full, origin).unwrap();

        // Deliver packets in a shuffled order; each forces catch-up or reset.
        let k = 32usize;
        let order = [3usize, 0, 5, 1, 7, 2, 4, 6];
        let dl = compile(&dt, 1);
        let mut seg = Segment::new(dl);
        let mut out = vec![0u8; span as usize];
        for &i in &order {
            let s = i * k;
            let e = ((i + 1) * k).min(packed.len());
            unpack_partial(&mut seg, s as u64, &packed[s..e], &mut out, origin).unwrap();
        }
        assert_eq!(out, full);
        assert!(seg.stats.resets > 0);
    }

    #[test]
    fn pack_rejects_small_buffer() {
        let dt = Datatype::contiguous(100, &elem::double());
        let e = pack(&dt, 1, &[0u8; 10], 0);
        assert!(matches!(e, Err(DdtError::BufferTooSmall { .. })));
    }

    #[test]
    fn unpack_rejects_wrong_stream_len() {
        let dt = Datatype::contiguous(4, &elem::int());
        let mut dst = [0u8; 16];
        assert!(unpack(&dt, 1, &[0u8; 15], &mut dst, 0).is_err());
    }

    #[test]
    fn buffer_span_with_negative_lb() {
        let dt = Datatype::vector(4, 1, -2, &elem::int());
        let (origin, span) = buffer_span(&dt, 1);
        assert!(origin <= dt.true_lb);
        assert!(span >= dt.true_extent() as u64);
        roundtrip(&dt, 1);
    }
}
