//! Datatype flattening: extraction of the merged iovec list.
//!
//! The Portals 4 baseline in the paper offloads non-contiguous transfers
//! as input/output vectors: a list of `(offset, len)` contiguous regions,
//! with O(m) space in the number of regions. [`flatten`] produces that
//! list (adjacent regions merged), and [`Iovec`] carries the accounting
//! the baseline model needs (entry count → NIC refill reads).

use crate::dataloop::compile_cached;
use crate::segment::Segment;
use crate::sink::BlockSink;
use crate::types::Datatype;

/// One contiguous region of a flattened datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IovEntry {
    /// Byte offset in the user buffer.
    pub offset: i64,
    /// Region length in bytes.
    pub len: u64,
}

/// A flattened datatype: merged contiguous regions in typemap order.
#[derive(Debug, Clone, Default)]
pub struct Iovec {
    /// The regions.
    pub entries: Vec<IovEntry>,
}

impl Iovec {
    /// Total data bytes described.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// Bytes this list occupies when shipped to a NIC that stores
    /// `(virtual address, length)` pairs — 16 B per entry, the linear
    /// overhead the paper attributes to iovec offload.
    pub fn nic_bytes(&self) -> u64 {
        16 * self.entries.len() as u64
    }
}

struct MergeSink {
    entries: Vec<IovEntry>,
}

impl BlockSink for MergeSink {
    fn block(&mut self, buf_off: i64, len: u64, _stream_off: u64) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.entries.last_mut() {
            if last.offset + last.len as i64 == buf_off {
                last.len += len;
                return;
            }
        }
        self.entries.push(IovEntry {
            offset: buf_off,
            len,
        });
    }
}

/// Flatten `count` copies of `dt` into a merged iovec.
pub fn flatten(dt: &Datatype, count: u32) -> Iovec {
    let dl = compile_cached(dt, count);
    let mut seg = Segment::new(dl);
    let mut sink = MergeSink {
        entries: Vec::new(),
    };
    seg.advance(u64::MAX, &mut sink);
    Iovec {
        entries: sink.entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{elem, Datatype, DatatypeExt};

    #[test]
    fn contiguous_flattens_to_one_entry() {
        let t = Datatype::contiguous(64, &elem::int());
        let iov = flatten(&t, 4);
        assert_eq!(iov.entries.len(), 1);
        assert_eq!(
            iov.entries[0],
            IovEntry {
                offset: 0,
                len: 1024
            }
        );
    }

    #[test]
    fn vector_entry_per_block() {
        let t = Datatype::vector(10, 2, 5, &elem::int());
        let iov = flatten(&t, 1);
        assert_eq!(iov.entries.len(), 10);
        assert_eq!(iov.entries[1], IovEntry { offset: 20, len: 8 });
        assert_eq!(iov.total_bytes(), t.size);
        assert_eq!(iov.nic_bytes(), 160);
    }

    #[test]
    fn adjacent_count_copies_merge() {
        // gap-free vector repeated: whole thing one region
        let t = Datatype::vector(4, 2, 2, &elem::int());
        let iov = flatten(&t, 3);
        assert_eq!(iov.entries.len(), 1);
        assert_eq!(iov.total_bytes(), t.size * 3);
    }

    #[test]
    fn indexed_adjacent_blocks_merge() {
        let t = Datatype::indexed(&[2, 2, 4], &[0, 2, 8], &elem::int()).unwrap();
        let iov = flatten(&t, 1);
        // blocks at 0..8, 8..16 merge; 32..48 separate
        assert_eq!(iov.entries.len(), 2);
        assert_eq!(iov.entries[0], IovEntry { offset: 0, len: 16 });
        assert_eq!(
            iov.entries[1],
            IovEntry {
                offset: 32,
                len: 16
            }
        );
    }
}
