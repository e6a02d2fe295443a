//! Message packetization.
//!
//! The sPIN NIC model distinguishes three packet types (paper Sec. 2.1.2):
//! the **header** packet (first of a message, triggers matching), the
//! **completion** packet (last, releases the pinned ME and fires the
//! completion handler), and **payload** packets in between. The network
//! is assumed to deliver the header first and the completion last; payload
//! packets may be reordered.
//!
//! Packet metadata ([`PktHeader`]) is a small `Copy` struct; a full
//! [`Packet`] pairs it with a [`PktView`] payload handle into the shared
//! [`WireBuf`] packed stream, so packets can be dispatched, retransmitted
//! and DMA'd without ever copying payload bytes.

use nca_sim::{PktView, WireBuf};

/// Packet classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// First packet of a message (carries match information + payload).
    Header,
    /// Intermediate packet.
    Payload,
    /// Last packet of a message.
    Completion,
    /// Single-packet message: header and completion at once.
    Only,
}

impl PacketKind {
    /// Whether this packet triggers the matching walk.
    pub fn is_header(self) -> bool {
        matches!(self, PacketKind::Header | PacketKind::Only)
    }

    /// Whether this packet closes the message.
    pub fn is_completion(self) -> bool {
        matches!(self, PacketKind::Completion | PacketKind::Only)
    }
}

/// Packet metadata: everything on the wire except the payload bytes.
/// Small and `Copy` — dispatch paths pass it by value instead of cloning
/// a packet per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktHeader {
    /// Message this packet belongs to.
    pub msg_id: u64,
    /// Sequence number within the message (0-based).
    pub seq: u64,
    /// Byte offset of the payload within the packed message stream.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Packet classification.
    pub kind: PacketKind,
}

impl PktHeader {
    /// Bytes on the wire: payload plus link/protocol header.
    pub fn wire_bytes(&self, header_bytes: u64) -> u64 {
        self.len + header_bytes
    }
}

/// One packet of a message: `Copy` metadata plus a cheap shared-ownership
/// handle to its payload bytes in the packed stream. Cloning a `Packet`
/// copies the header and bumps the payload refcount — no bytes move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Wire metadata.
    pub hdr: PktHeader,
    /// Payload bytes, viewed into the message's [`WireBuf`].
    pub payload: PktView,
}

impl std::ops::Deref for Packet {
    type Target = PktHeader;
    fn deref(&self) -> &PktHeader {
        &self.hdr
    }
}

impl std::ops::DerefMut for Packet {
    fn deref_mut(&mut self) -> &mut PktHeader {
        &mut self.hdr
    }
}

/// FNV-1a over the payload bytes (32-bit). Any single-byte change flips
/// the digest: the per-byte transform `h = (h ^ b) * prime` is injective
/// in `h` for fixed suffixes, so a one-byte flip always propagates to
/// the final value — exactly the corruption model the fault injector
/// produces. A receiver checks a corrupted copy by comparing its digest
/// with the digest of the packet's own (immutable) payload view, so
/// only copies the fault layer corrupted are ever hashed.
pub fn payload_checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in payload {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Split a message of `msg_len` bytes into packet headers with at most
/// `payload_size` payload each. A zero-length message still produces one
/// (empty) `Only` packet so matching and completion semantics hold.
pub fn packetize(msg_id: u64, msg_len: u64, payload_size: u64) -> Vec<PktHeader> {
    assert!(payload_size > 0, "payload size must be positive");
    if msg_len == 0 {
        return vec![PktHeader {
            msg_id,
            seq: 0,
            offset: 0,
            len: 0,
            kind: PacketKind::Only,
        }];
    }
    let npkt = msg_len.div_ceil(payload_size);
    (0..npkt)
        .map(|seq| {
            let offset = seq * payload_size;
            let len = payload_size.min(msg_len - offset);
            let kind = match (seq == 0, seq == npkt - 1) {
                (true, true) => PacketKind::Only,
                (true, false) => PacketKind::Header,
                (false, true) => PacketKind::Completion,
                (false, false) => PacketKind::Payload,
            };
            PktHeader {
                msg_id,
                seq,
                offset,
                len,
                kind,
            }
        })
        .collect()
}

/// Packetize a packed stream, attaching each packet's payload view into
/// the shared buffer. The only allocation is the `Vec` of packets.
pub fn packetize_wire(msg_id: u64, buf: &WireBuf, payload_size: u64) -> Vec<Packet> {
    packetize(msg_id, buf.len() as u64, payload_size)
        .into_iter()
        .map(|hdr| Packet {
            payload: buf.view(hdr.offset as usize, hdr.len as usize),
            hdr,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple() {
        let pkts = packetize(7, 8192, 2048);
        assert_eq!(pkts.len(), 4);
        assert_eq!(pkts[0].kind, PacketKind::Header);
        assert_eq!(pkts[1].kind, PacketKind::Payload);
        assert_eq!(pkts[2].kind, PacketKind::Payload);
        assert_eq!(pkts[3].kind, PacketKind::Completion);
        assert!(pkts.iter().all(|p| p.len == 2048));
        assert_eq!(pkts[3].offset, 6144);
    }

    #[test]
    fn trailing_partial_packet() {
        let pkts = packetize(0, 5000, 2048);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[2].len, 5000 - 4096);
        assert_eq!(pkts[2].kind, PacketKind::Completion);
        let total: u64 = pkts.iter().map(|p| p.len).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn single_packet_message() {
        let pkts = packetize(1, 100, 2048);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].kind, PacketKind::Only);
        assert!(pkts[0].kind.is_header());
        assert!(pkts[0].kind.is_completion());
    }

    #[test]
    fn zero_length_message() {
        let pkts = packetize(1, 0, 2048);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].len, 0);
        assert_eq!(pkts[0].kind, PacketKind::Only);
    }

    #[test]
    fn packetize_wire_attaches_matching_views() {
        let stream: WireBuf = (0..5000)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>()
            .into();
        let pkts = packetize_wire(9, &stream, 2048);
        assert_eq!(pkts.len(), 3);
        for p in &pkts {
            let lo = p.offset as usize;
            assert_eq!(&p.payload[..], &stream[lo..lo + p.len as usize]);
        }
        // Views share storage with the stream — no payload copies.
        assert!(std::ptr::eq(
            pkts[1].payload.as_ref().as_ptr(),
            stream[2048..].as_ptr()
        ));
    }

    #[test]
    fn packetize_wire_zero_length_stream() {
        let pkts = packetize_wire(1, &WireBuf::empty(), 2048);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].payload.is_empty());
    }

    #[test]
    fn packetize_wire_payload_size_exceeds_msg_len() {
        let stream: WireBuf = vec![3u8; 100].into();
        let pkts = packetize_wire(1, &stream, 2048);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].kind, PacketKind::Only);
        assert_eq!(pkts[0].payload.len(), 100);
    }

    #[test]
    fn checksum_detects_any_single_byte_flip() {
        let stream: WireBuf = (0..4096)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>()
            .into();
        for p in &packetize_wire(3, &stream, 2048) {
            let want = payload_checksum(&p.payload);
            // Flip each byte in turn with several masks: all must fail.
            let mut copy = p.payload.to_vec();
            assert_eq!(payload_checksum(&copy), want);
            for at in [0usize, copy.len() / 2, copy.len() - 1] {
                for mask in [1u8, 0x80, 0xFF] {
                    copy[at] ^= mask;
                    assert_ne!(payload_checksum(&copy), want, "flip at {at} mask {mask:#x}");
                    copy[at] ^= mask;
                }
            }
        }
    }

    #[test]
    fn wire_bytes_include_header() {
        let p = PktHeader {
            msg_id: 0,
            seq: 0,
            offset: 0,
            len: 2048,
            kind: PacketKind::Only,
        };
        assert_eq!(p.wire_bytes(64), 2112);
    }
}
