//! NIC command descriptors issued through the command queue, including
//! the paper's two sender-side extensions.

use crate::packet::{packetize, PacketKind, PktHeader};

/// A contiguous memory region `(offset, len)` in the initiator's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Byte offset in the initiator buffer.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Classic `PtlPut`: one contiguous region, one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Put {
    /// Message id.
    pub msg_id: u64,
    /// Target match bits.
    pub match_bits: u64,
    /// The region to send.
    pub region: Region,
}

/// `PtlProcessPut` (Sec. 3.1.2): like a put, but outbound packets are
/// *not* filled from host memory by the outbound engine; instead a
/// Handler Execution Request is generated per packet and the sender-side
/// handler gathers the data (outbound sPIN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessPut {
    /// Message id.
    pub msg_id: u64,
    /// Target match bits.
    pub match_bits: u64,
    /// Total message length the handlers will produce.
    pub msg_len: u64,
    /// Execution context holding the sender-side handlers.
    pub exec_ctx: u32,
}

/// A streaming put in construction (Sec. 3.1.1): `PtlSPutStart` opens the
/// message, `PtlSPutStream` appends further regions, the final call sets
/// the end-of-message flag. All regions become **one** message: one
/// matching walk and one event at the target, packets numbered
/// continuously.
#[derive(Debug, Clone)]
pub struct StreamingPut {
    /// Message id.
    pub msg_id: u64,
    /// Target match bits.
    pub match_bits: u64,
    /// Payload size used for packetization.
    pub payload_size: u64,
    regions: Vec<Region>,
    buffered: u64,
    emitted_pkts: u64,
    emitted_bytes: u64,
    closed: bool,
}

impl StreamingPut {
    /// `PtlSPutStart`: open a streaming put with its first region.
    pub fn start(msg_id: u64, match_bits: u64, payload_size: u64, first: Region) -> Self {
        assert!(payload_size > 0);
        let mut sp = StreamingPut {
            msg_id,
            match_bits,
            payload_size,
            regions: Vec::new(),
            buffered: 0,
            emitted_pkts: 0,
            emitted_bytes: 0,
            closed: false,
        };
        sp.push_region(first, false);
        sp
    }

    /// `PtlSPutStream`: append a region; `end_of_message` closes the put.
    pub fn stream(&mut self, region: Region, end_of_message: bool) {
        assert!(!self.closed, "streaming put already closed");
        self.push_region(region, end_of_message);
    }

    fn push_region(&mut self, region: Region, end: bool) {
        self.regions.push(region);
        self.buffered += region.len;
        self.closed = end;
    }

    /// Whether the end-of-message flag has been given.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Total bytes supplied so far.
    pub fn bytes_supplied(&self) -> u64 {
        self.emitted_bytes + self.buffered
    }

    /// All regions supplied so far (for gather simulation).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Packets that can be emitted now: full payloads, plus the trailing
    /// partial packet once the put is closed. Packets of one streaming
    /// put form a single message (continuous sequence numbers); the last
    /// drained packet after closing is the completion packet.
    pub fn drain_ready_packets(&mut self) -> Vec<PktHeader> {
        let mut out = Vec::new();
        while self.buffered >= self.payload_size {
            out.push(self.mk_packet(self.payload_size, false));
        }
        if self.closed && self.buffered > 0 {
            let len = self.buffered;
            out.push(self.mk_packet(len, true));
        }
        if self.closed {
            if let Some(last) = out.last_mut() {
                last.kind = if last.seq == 0 {
                    PacketKind::Only
                } else {
                    PacketKind::Completion
                };
            }
        }
        out
    }

    fn mk_packet(&mut self, len: u64, _last: bool) -> PktHeader {
        let seq = self.emitted_pkts;
        let pkt = PktHeader {
            msg_id: self.msg_id,
            seq,
            offset: self.emitted_bytes,
            len,
            kind: if seq == 0 {
                PacketKind::Header
            } else {
                PacketKind::Payload
            },
        };
        self.emitted_pkts += 1;
        self.emitted_bytes += len;
        self.buffered -= len;
        pkt
    }

    /// The packet stream an equivalent single put of the same total
    /// length would produce (for equivalence testing).
    pub fn equivalent_put_packets(&self) -> Vec<PktHeader> {
        packetize(self.msg_id, self.bytes_supplied(), self.payload_size)
    }
}

/// Any NIC command (pushed to the command queue by host or handlers).
#[derive(Debug, Clone)]
pub enum Command {
    /// Plain put.
    Put(Put),
    /// Outbound-sPIN put.
    ProcessPut(ProcessPut),
    /// A handler-issued DMA write toward host memory
    /// (`PltHandlerDMAToHostNB`); `event` = generate a full event on
    /// completion (the paper's `NO_EVENT` option inverted).
    DmaToHost {
        /// Host buffer offset.
        host_off: i64,
        /// Length in bytes.
        len: u64,
        /// Whether completion posts a full event.
        event: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_put_single_message_packets() {
        let mut sp = StreamingPut::start(
            9,
            0xC0DE,
            2048,
            Region {
                offset: 0,
                len: 3000,
            },
        );
        let p1 = sp.drain_ready_packets();
        assert_eq!(p1.len(), 1); // one full payload ready
        assert_eq!(p1[0].kind, PacketKind::Header);
        sp.stream(
            Region {
                offset: 8192,
                len: 2000,
            },
            false,
        );
        let p2 = sp.drain_ready_packets();
        assert_eq!(p2.len(), 1);
        assert_eq!(p2[0].seq, 1);
        assert_eq!(p2[0].kind, PacketKind::Payload);
        sp.stream(
            Region {
                offset: 100_000,
                len: 1000,
            },
            true,
        );
        let p3 = sp.drain_ready_packets();
        // 3000+2000+1000 = 6000; 4096 emitted; 1904 remain -> 1 final pkt
        assert_eq!(p3.len(), 1);
        assert_eq!(p3[0].len, 1904);
        assert_eq!(p3[0].kind, PacketKind::Completion);
        assert_eq!(sp.bytes_supplied(), 6000);
    }

    #[test]
    fn streaming_equals_plain_put_packetization() {
        let mut sp = StreamingPut::start(
            3,
            0,
            2048,
            Region {
                offset: 0,
                len: 2500,
            },
        );
        sp.stream(
            Region {
                offset: 4096,
                len: 2500,
            },
            false,
        );
        sp.stream(
            Region {
                offset: 9000,
                len: 1192,
            },
            true,
        );
        let mut streamed = sp.drain_ready_packets();
        let mut more = sp.drain_ready_packets();
        streamed.append(&mut more);
        assert_eq!(streamed, sp.equivalent_put_packets());
    }

    #[test]
    fn single_region_closed_start_is_only_packet() {
        let mut sp = StreamingPut::start(
            1,
            0,
            2048,
            Region {
                offset: 0,
                len: 100,
            },
        );
        sp.stream(
            Region {
                offset: 200,
                len: 0,
            },
            true,
        );
        let pkts = sp.drain_ready_packets();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].kind, PacketKind::Only);
    }

    #[test]
    #[should_panic(expected = "already closed")]
    fn streaming_after_close_panics() {
        let mut sp = StreamingPut::start(1, 0, 2048, Region { offset: 0, len: 10 });
        sp.stream(
            Region {
                offset: 16,
                len: 10,
            },
            true,
        );
        sp.stream(
            Region {
                offset: 32,
                len: 10,
            },
            false,
        );
    }
}
