//! Shared handler plumbing: scatter a packet payload into DMA writes via
//! the segment engine.
//!
//! Every receiver strategy moves bytes the same way — what differs is
//! *which* segment state it starts from and what the work *costs*. This
//! module provides the common scatter step and the per-call statistics
//! delta the cost models consume.

use nca_ddt::segment::{SegStats, Segment};
use nca_ddt::sink::BlockSink;
use nca_sim::PktView;
use nca_spin::handler::{DirectDst, DmaWrite};

/// Sink that copies emitted blocks into the receive buffer on the spot
/// and collects length-only DMA writes for the timing model (see
/// [`DirectDst`]).
pub struct DmaSink<'a, 'b> {
    /// Packet payload (stream bytes `[stream_base, stream_base+len)`).
    pub payload: &'a PktView,
    /// Stream offset of `payload[0]`.
    pub stream_base: u64,
    /// Collected writes.
    pub writes: Vec<DmaWrite>,
    /// The receive buffer and its datatype origin.
    pub dst: &'a mut DirectDst<'b>,
}

impl BlockSink for DmaSink<'_, '_> {
    fn block(&mut self, buf_off: i64, len: u64, stream_off: u64) {
        let s = (stream_off - self.stream_base) as usize;
        self.dst.block(buf_off, self.payload, s, len as usize);
        self.writes.push(DmaWrite::len_only(buf_off, len));
    }

    fn strided(&mut self, buf_off: i64, len: u64, stream_off: u64, n: u64, step: i64) {
        self.writes.reserve(n as usize);
        let s = (stream_off - self.stream_base) as i64;
        self.dst.strided(buf_off, step, self.payload, s, len, n);
        let mut b = buf_off;
        for _ in 0..n {
            self.writes.push(DmaWrite::len_only(b, len));
            b += step;
        }
    }
}

/// Process stream range `[first, first+payload.len())` on `seg` with
/// catch-up/reset semantics, scattering into `dst` and returning the
/// DMA writes and the statistics delta of this call. `writes` is the
/// (empty) scatter scratch vector — strategies feed back the vector the
/// pipeline recycled via
/// [`nca_spin::handler::MessageProcessor::recycle_dma`] so steady-state
/// packets allocate nothing.
pub fn scatter_packet(
    seg: &mut Segment,
    first: u64,
    payload: &PktView,
    writes: Vec<DmaWrite>,
    dst: &mut DirectDst<'_>,
) -> (Vec<DmaWrite>, SegStats) {
    debug_assert!(writes.is_empty());
    let before = seg.stats;
    let mut sink = DmaSink {
        payload,
        stream_base: first,
        writes,
        dst,
    };
    seg.process_range(first, first + payload.len() as u64, &mut sink)
        .expect("packet range within message");
    let after = seg.stats;
    let delta = SegStats {
        blocks_emitted: after.blocks_emitted - before.blocks_emitted,
        bytes_emitted: after.bytes_emitted - before.bytes_emitted,
        catchup_blocks: after.catchup_blocks - before.catchup_blocks,
        catchup_bytes: after.catchup_bytes - before.catchup_bytes,
        resets: after.resets - before.resets,
    };
    (sink.writes, delta)
}

/// Like [`scatter_packet`] but positions the segment with a free `seek`
/// first — the specialized handlers compute the start offset
/// arithmetically (O(1) or one binary search), so no catch-up is paid.
pub fn scatter_packet_seek(
    seg: &mut Segment,
    first: u64,
    payload: &PktView,
    writes: Vec<DmaWrite>,
    dst: &mut DirectDst<'_>,
) -> (Vec<DmaWrite>, SegStats) {
    seg.seek(first).expect("packet offset within message");
    scatter_packet(seg, first, payload, writes, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_ddt::dataloop::compile;
    use nca_ddt::types::{elem, Datatype, DatatypeExt};
    use nca_sim::arena::take_zeroed;
    use nca_sim::PooledBuf;

    /// A scatter into `buf` at origin 0.
    fn dst(buf: &mut PooledBuf) -> DirectDst<'_> {
        DirectDst::new(buf, 0)
    }

    #[test]
    fn scatter_produces_block_writes() {
        let dt = Datatype::vector(8, 1, 2, &elem::int()); // 8 x 4B blocks
        let dl = compile(&dt, 1);
        let mut seg = Segment::new(dl);
        let payload: PktView = (0..16u8).collect::<Vec<u8>>().into();
        let mut buf = take_zeroed(64);
        let (writes, stats) = scatter_packet(&mut seg, 0, &payload, Vec::new(), &mut dst(&mut buf));
        assert_eq!(writes.len(), 4);
        assert_eq!(stats.blocks_emitted, 4);
        assert_eq!(writes[1].host_off, 8);
        assert_eq!(writes[1].len, 4);
        assert!(writes[1].data.is_empty());
        assert_eq!(buf[8..12], [4, 5, 6, 7]);
        assert_eq!(buf[4..8], [0; 4], "gaps stay untouched");
        let written = buf.written().expect("written through the recorder");
        assert_eq!(written, [(0, 4), (8, 4), (16, 4), (24, 4)]);
    }

    #[test]
    fn scatter_with_catchup_counts_skipped() {
        let dt = Datatype::vector(8, 1, 2, &elem::int());
        let dl = compile(&dt, 1);
        let mut seg = Segment::new(dl);
        let payload: PktView = vec![0u8; 8].into();
        let mut buf = take_zeroed(64);
        let (_, stats) = scatter_packet(&mut seg, 16, &payload, Vec::new(), &mut dst(&mut buf));
        assert_eq!(stats.catchup_blocks, 4);
        assert_eq!(stats.blocks_emitted, 2);
    }

    #[test]
    fn seek_variant_pays_no_catchup() {
        let dt = Datatype::vector(8, 1, 2, &elem::int());
        let dl = compile(&dt, 1);
        let mut seg = Segment::new(dl);
        let payload: PktView = vec![0u8; 8].into();
        let mut buf = take_zeroed(64);
        let (writes, stats) =
            scatter_packet_seek(&mut seg, 16, &payload, Vec::new(), &mut dst(&mut buf));
        assert_eq!(stats.catchup_blocks, 0);
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[0].host_off, 32);
    }
}
