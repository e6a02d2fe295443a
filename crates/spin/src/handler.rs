//! Handler ABI: the contract between the NIC pipeline and the datatype
//! processing strategies (which live in `nca-core`).
//!
//! Handlers are **really executed**: a payload handler receives the
//! actual packet bytes and returns the DMA writes that scatter them into
//! host memory. Its *simulated cost* is reported alongside, split into
//! the paper's three phases (Fig. 12): `init` (handler start + argument
//! preparation, e.g. RO-CP's checkpoint copy), `setup` (datatype
//! processing function startup incl. catch-up), and `processing`
//! (per-block work).

use std::sync::Arc;

use nca_ddt::{BlockSink, Dataloop, Segment};
use nca_sim::{PktView, PooledBuf, Time};

/// One DMA write toward host memory (`PltHandlerDMAToHostNB`).
#[derive(Debug, Clone)]
pub struct DmaWrite {
    /// Destination offset in the receive buffer (relative to the
    /// datatype origin; may be negative for types with negative lb).
    pub host_off: i64,
    /// The bytes to write: a view into the shared wire buffer, which the
    /// DMA engine copies into the receive buffer through [`DirectDst`]
    /// when the write is enqueued (the non-processing and unexpected
    /// paths). Empty for handler writes, whose bytes a direct scatter
    /// already landed (see [`PacketCtx::direct`]), and for the completion
    /// signal: a length-only write is a timing record and writes nothing.
    pub data: PktView,
    /// Write length in bytes — what the DMA timing model charges. Equals
    /// `data.len()` for view-carrying writes; length-only writes have
    /// empty `data` but a nonzero `len`.
    pub len: u64,
    /// Whether completion generates a full event (the paper's handlers
    /// pass `NO_EVENT` for all but the final zero-byte write).
    pub event: bool,
}

impl DmaWrite {
    /// A data write without completion event.
    pub fn data(host_off: i64, data: impl Into<PktView>) -> Self {
        let data = data.into();
        DmaWrite {
            host_off,
            len: data.len() as u64,
            data,
            event: false,
        }
    }

    /// A write whose bytes were already scattered directly into the
    /// receive buffer: carries only the length the timing model needs.
    pub fn len_only(host_off: i64, len: u64) -> Self {
        DmaWrite {
            host_off,
            data: PktView::empty(),
            len,
            event: false,
        }
    }

    /// The final zero-byte write with event generation.
    pub fn completion_signal() -> Self {
        DmaWrite {
            host_off: 0,
            data: PktView::empty(),
            len: 0,
            event: true,
        }
    }
}

/// Handler runtime split into the paper's phases (all in simulated ps).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HandlerCost {
    /// `T_init`: handler start + argument preparation (checkpoint copy
    /// for RO-CP).
    pub init: Time,
    /// `T_setup`: datatype-processing startup, including catch-up.
    pub setup: Time,
    /// `γ · T_block`: per-contiguous-region processing.
    pub processing: Time,
}

impl HandlerCost {
    /// Total handler occupancy of an HPU.
    pub fn total(&self) -> Time {
        self.init + self.setup + self.processing
    }

    /// Accumulate another cost (for aggregate reporting).
    pub fn add(&mut self, o: &HandlerCost) {
        self.init += o.init;
        self.setup += o.setup;
        self.processing += o.processing;
    }
}

/// The recovery work a strategy did over one message, which the paper
/// charges to the handlers' init and setup phases (Fig. 12). Counted by
/// the handler itself, so it is exact whatever a trace captured.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Times an RW-CP checkpoint was reverted from its master copy
    /// (out-of-order arrivals).
    pub checkpoint_reverts: u64,
    /// Blocks a handler walked to bring its segment up to the packet's
    /// stream offset.
    pub catchup_blocks: u64,
}

/// What a handler invocation produced.
#[derive(Debug, Default)]
pub struct HandlerOutput {
    /// Simulated cost.
    pub cost: HandlerCost,
    /// DMA writes to enqueue (in order).
    pub dma: Vec<DmaWrite>,
}

/// Direct-scatter destination: the pipeline's host receive buffer.
///
/// The DMA engine resolves every write's service window when it is
/// enqueued, and nothing reads a receive buffer before its message's
/// completion write lands, so handlers copy payload bytes into the
/// receive buffer *immediately* and emit length-only DMA writes for the
/// timing model. That skips one wire-buffer view per contiguous block
/// plus a second pass over the data.
///
/// It is the only way anything writes a receive buffer: its buffer is
/// private, and [`DirectDst::block`] and [`DirectDst::strided`] copy with
/// `nca_ddt::kernels` and record the extents they copy in the buffer
/// (`nca_sim::arena`). The arena re-zeroes only those extents when the
/// buffer returns to it, and a message source verifies a landing by them
/// (`nca_ddt::typemap::typemap_verdict`). A host-side unpack writes
/// through it too ([`unpack_recorded`]).
pub struct DirectDst<'a> {
    buf: &'a mut PooledBuf,
    origin: i64,
}

impl<'a> DirectDst<'a> {
    /// Scatter into `buf`, whose index 0 is buffer offset `origin` (the
    /// datatype origin).
    pub fn new(buf: &'a mut PooledBuf, origin: i64) -> Self {
        DirectDst { buf, origin }
    }

    /// Copy `src[src_off..src_off + len]` to buffer offset `buf_off`.
    #[inline]
    pub fn block(&mut self, buf_off: i64, src: &[u8], src_off: usize, len: usize) {
        let dst = self.buf.record((buf_off - self.origin) as usize, len);
        nca_ddt::kernels::copy_block(dst, 0, src, src_off, len);
    }

    /// Copy `n` blocks of `len` bytes, block `i` from `src` at
    /// `src_off + i·len` to buffer offset `buf_off + i·step`.
    #[inline]
    pub fn strided(&mut self, buf_off: i64, step: i64, src: &[u8], src_off: i64, len: u64, n: u64) {
        let at = buf_off - self.origin;
        let dst = self
            .buf
            .record_strided(at as usize, step as isize, len as usize, n as usize);
        nca_ddt::kernels::copy_strided(dst, at, step, src, src_off, len as i64, len, n);
    }
}

/// [`BlockSink`] that lands every block of a whole packed message
/// (`packed[0]` is stream offset 0) through a [`DirectDst`].
struct DirectSink<'a, 'b> {
    packed: &'a [u8],
    dst: DirectDst<'b>,
}

impl BlockSink for DirectSink<'_, '_> {
    #[inline]
    fn block(&mut self, buf_off: i64, len: u64, stream_off: u64) {
        self.dst
            .block(buf_off, self.packed, stream_off as usize, len as usize);
    }

    #[inline]
    fn strided(&mut self, buf_off: i64, len: u64, stream_off: u64, n: u64, step: i64) {
        self.dst
            .strided(buf_off, step, self.packed, stream_off as i64, len, n);
    }
}

/// Host-side unpack of a whole `packed` message along `dl` into a zeroed
/// arena buffer of `span` bytes (index 0 ↔ buffer offset `origin`),
/// written through the recorder like every NIC write, so the buffer
/// lists what it holds and drop re-zeroes only that.
pub fn unpack_recorded(dl: Arc<Dataloop>, packed: &[u8], origin: i64, span: u64) -> PooledBuf {
    assert_eq!(packed.len() as u64, dl.size, "packed stream is one message");
    let mut buf = nca_sim::arena::take_zeroed(span as usize);
    let mut sink = DirectSink {
        packed,
        dst: DirectDst::new(&mut buf, origin),
    };
    Segment::new(dl).advance(u64::MAX, &mut sink);
    buf
}

/// Per-packet context handed to the payload handler.
pub struct PacketCtx<'a> {
    /// The packet payload: a view into the shared wire buffer. Derefs to
    /// `&[u8]`.
    pub payload: &'a PktView,
    /// Offset of `payload[0]` in the packed message stream.
    pub stream_offset: u64,
    /// Packet sequence number within the message.
    pub seq: u64,
    /// Total packets in the message.
    pub npkt: u64,
    /// The vHPU this handler runs on (strategies keep per-vHPU state).
    pub vhpu: u64,
    /// Simulated time the handler starts (ps), so strategies can stamp
    /// their own telemetry without a side channel to the engine.
    pub now: Time,
    /// Where the handler scatters the payload bytes (see [`DirectDst`]).
    pub direct: DirectDst<'a>,
}

/// Packet scheduling policy (paper Sec. 3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Default sPIN scheduling: every ready handler may run on any idle
    /// HPU (header-before-payload, completion-last dependencies are
    /// enforced by the pipeline).
    Default,
    /// Blocked round-robin: sequences of `delta_p` consecutive packets
    /// are bound to one virtual HPU; a vHPU executes at most one handler
    /// at a time and is multiplexed onto physical HPUs.
    BlockedRR {
        /// Packets per sequence (Δp).
        delta_p: u64,
        /// Number of virtual HPUs.
        num_vhpus: u64,
    },
}

impl SchedPolicy {
    /// Map a packet sequence number to its vHPU id. Under the default
    /// policy every packet gets a fresh vHPU (unbounded parallelism,
    /// limited only by physical HPUs).
    pub fn vhpu_of(&self, seq: u64) -> u64 {
        match *self {
            SchedPolicy::Default => seq,
            SchedPolicy::BlockedRR { delta_p, num_vhpus } => (seq / delta_p) % num_vhpus,
        }
    }
}

/// A receiver-side message processing strategy (implemented by
/// `nca-core`: specialized handlers, HPU-local, RO-CP, RW-CP, …).
pub trait MessageProcessor {
    /// Scheduling policy this strategy requires.
    fn policy(&self) -> SchedPolicy;

    /// NIC memory footprint (descriptors + checkpoints + lists) for
    /// accounting and admission.
    fn nic_mem_bytes(&self) -> u64;

    /// Host-side preparation time before the message can be received
    /// (e.g. creating checkpoints and copying state to the NIC). Charged
    /// once; Fig. 15 shows it as "host overhead", Fig. 18 amortizes it.
    fn host_setup_time(&self) -> Time {
        0
    }

    /// Process one payload-bearing packet. The context is `&mut` so the
    /// handler can scatter through [`PacketCtx::direct`].
    fn on_payload(&mut self, ctx: &mut PacketCtx<'_>) -> HandlerOutput;

    /// The completion handler: runs after every payload handler of the
    /// message finished; must end with an event-generating DMA write.
    fn on_completion(&mut self) -> HandlerOutput {
        HandlerOutput {
            cost: HandlerCost::default(),
            dma: vec![DmaWrite::completion_signal()],
        }
    }

    /// The pipeline hands back the (drained) DMA scratch vector after the
    /// writes of [`MessageProcessor::on_payload`] are enqueued, so
    /// strategies can reuse its capacity for the next packet instead of
    /// allocating a fresh vector per handler invocation. The default
    /// drops it.
    fn recycle_dma(&mut self, _scratch: Vec<DmaWrite>) {}

    /// Recovery work done so far ([`RecoveryStats`]);
    /// [`ReceiveSim::run`](crate::nic::ReceiveSim::run) reads it once the
    /// message completes. Strategies that never catch up or revert keep
    /// the all-zero default.
    fn recovery(&self) -> RecoveryStats {
        RecoveryStats::default()
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_vhpu_mapping() {
        let p = SchedPolicy::BlockedRR {
            delta_p: 4,
            num_vhpus: 3,
        };
        // packets 0..3 -> vhpu 0, 4..7 -> vhpu 1, 8..11 -> vhpu 2, 12..15 -> vhpu 0
        assert_eq!(p.vhpu_of(0), 0);
        assert_eq!(p.vhpu_of(3), 0);
        assert_eq!(p.vhpu_of(4), 1);
        assert_eq!(p.vhpu_of(11), 2);
        assert_eq!(p.vhpu_of(12), 0);
        let d = SchedPolicy::Default;
        assert_eq!(d.vhpu_of(17), 17);
    }

    #[test]
    fn cost_totals() {
        let mut a = HandlerCost {
            init: 10,
            setup: 20,
            processing: 30,
        };
        assert_eq!(a.total(), 60);
        a.add(&HandlerCost {
            init: 1,
            setup: 2,
            processing: 3,
        });
        assert_eq!(a.total(), 66);
    }
}
