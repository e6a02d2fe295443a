//! Shared-ownership wire buffers.
//!
//! The packet path used to copy payload bytes at every hop: the sender
//! gathered the message into a `Vec<u8>`, the NIC cloned the packed
//! stream into its world state, every dispatch re-sliced it with
//! `to_vec()`, and the fault layer copied once more before flipping a
//! byte. [`WireBuf`] and [`PktView`] replace all of that with
//! reference-per-hop semantics:
//!
//! - [`WireBuf`] is an immutable, atomically reference-counted packed
//!   stream (`Arc<[u8]>`). Cloning it is a refcount bump; the bytes are
//!   written exactly once, when the buffer is built from a `Vec<u8>`.
//! - [`PktView`] is a `{buf, offset, len}` handle into a `WireBuf` —
//!   the payload of one packet. It derefs to `&[u8]` and clones for the
//!   price of an `Arc` clone, without touching the underlying bytes.
//!
//! Mutation is deliberately absent. The one consumer that needs to
//! change payload bytes — fault-injected corruption — does so
//! copy-on-write (`DeliveredCopy::materialize` returns a
//! `Cow::Owned` only for corrupted copies), so the sender's buffer is
//! provably untouched no matter what the wire does to the packet.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// The interned zero-length buffer: empty views are created on hot
/// paths (length-only DMA writes, completion signals), and `Arc::from`
/// on an empty slice still pays a heap allocation per call.
fn empty_arc() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(Vec::new())).clone()
}

/// An immutable packed wire stream shared by every layer that sees it.
///
/// Construction from a `Vec<u8>` costs the one unavoidable copy (the
/// refcount header is allocated in front of the bytes); every
/// subsequent `clone()` is a refcount bump.
#[derive(Clone)]
pub struct WireBuf {
    bytes: Arc<[u8]>,
}

impl WireBuf {
    /// An empty stream.
    pub fn empty() -> Self {
        WireBuf { bytes: empty_arc() }
    }

    /// Length of the packed stream in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the stream has no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// A view of `len` bytes starting at `offset`.
    ///
    /// Panics if the range is out of bounds, same as slicing would.
    pub fn view(&self, offset: usize, len: usize) -> PktView {
        assert!(
            offset + len <= self.bytes.len(),
            "view {offset}..{} out of bounds for WireBuf of {} bytes",
            offset + len,
            self.bytes.len()
        );
        PktView {
            buf: Some(self.bytes.clone()),
            off: offset,
            len,
        }
    }

    /// A view covering the whole stream.
    pub fn view_all(&self) -> PktView {
        self.view(0, self.len())
    }
}

impl From<Vec<u8>> for WireBuf {
    fn from(v: Vec<u8>) -> Self {
        WireBuf {
            bytes: Arc::from(v),
        }
    }
}

impl From<&[u8]> for WireBuf {
    fn from(v: &[u8]) -> Self {
        WireBuf {
            bytes: Arc::from(v),
        }
    }
}

impl std::ops::Deref for WireBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl AsRef<[u8]> for WireBuf {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for WireBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bytes[..] == other.bytes[..]
    }
}

impl Eq for WireBuf {}

impl PartialEq<Vec<u8>> for WireBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.bytes[..] == other[..]
    }
}

impl PartialEq<WireBuf> for Vec<u8> {
    fn eq(&self, other: &WireBuf) -> bool {
        self[..] == other.bytes[..]
    }
}

impl PartialEq<[u8]> for WireBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes[..] == *other
    }
}

impl fmt::Debug for WireBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireBuf({} bytes)", self.bytes.len())
    }
}

/// A packet's payload: a cheap handle into a shared [`WireBuf`].
///
/// The backing buffer is optional so the empty view — constructed per
/// length-only DMA write and completion signal on the hot path — costs
/// nothing: no allocation, no refcount traffic.
#[derive(Clone)]
pub struct PktView {
    buf: Option<Arc<[u8]>>,
    off: usize,
    len: usize,
}

impl PktView {
    /// A view of zero bytes (completion signals, zero-length messages).
    pub fn empty() -> Self {
        PktView {
            buf: None,
            off: 0,
            len: 0,
        }
    }

    /// Length of the viewed payload in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of this view within its backing stream.
    pub fn offset(&self) -> usize {
        self.off
    }
}

impl From<Vec<u8>> for PktView {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        PktView {
            buf: Some(Arc::from(v)),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for PktView {
    fn from(v: &[u8]) -> Self {
        let len = v.len();
        PktView {
            buf: Some(Arc::from(v)),
            off: 0,
            len,
        }
    }
}

impl From<WireBuf> for PktView {
    fn from(w: WireBuf) -> Self {
        let len = w.len();
        PktView {
            buf: Some(w.bytes),
            off: 0,
            len,
        }
    }
}

impl std::ops::Deref for PktView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(b) => &b[self.off..self.off + self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for PktView {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for PktView {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PktView {}

impl PartialEq<Vec<u8>> for PktView {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<[u8]> for PktView {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl fmt::Debug for PktView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PktView({}..{} of {} bytes)",
            self.off,
            self.off + self.len,
            self.buf.as_ref().map_or(0, |b| b.len())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wirebuf_clone_shares_bytes() {
        let w: WireBuf = vec![1u8, 2, 3, 4].into();
        let w2 = w.clone();
        assert_eq!(w, w2);
        assert!(std::ptr::eq(w.as_ref().as_ptr(), w2.as_ref().as_ptr()));
    }

    #[test]
    fn view_derefs_to_the_right_range() {
        let w: WireBuf = (0u8..32).collect::<Vec<u8>>().into();
        let v = w.view(8, 4);
        assert_eq!(&v[..], &[8, 9, 10, 11]);
        assert_eq!(v.len(), 4);
        assert_eq!(v.offset(), 8);
    }

    #[test]
    fn empty_views_are_fine() {
        let v = PktView::empty();
        assert!(v.is_empty());
        assert_eq!(&v[..], &[] as &[u8]);
        let w = WireBuf::empty();
        assert_eq!(w.len(), 0);
        let z = w.view(0, 0);
        assert!(z.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_past_the_end_panics() {
        let w: WireBuf = vec![0u8; 8].into();
        let _ = w.view(4, 8);
    }

    #[test]
    fn equality_against_vecs_and_slices() {
        let w: WireBuf = vec![5u8, 6, 7].into();
        assert_eq!(w, vec![5u8, 6, 7]);
        assert_eq!(vec![5u8, 6, 7], w);
        let v: PktView = w.view_all();
        assert_eq!(v, vec![5u8, 6, 7]);
        assert_eq!(v, *b"\x05\x06\x07".as_slice());
    }
}
