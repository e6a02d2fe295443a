//! Per-worker buffer arena: recycled byte buffers for hot allocation sites.
//!
//! The packet-path hot loop allocates one large, short-lived buffer per
//! simulated message: the simulated host receive buffer (~128 KiB for the
//! bench datatype, i.e. over glibc's mmap threshold, so a plain
//! `vec![0; span]` costs an mmap + page faults + munmap per run). Sweeps
//! repeat that thousands of times per worker.
//!
//! [`PooledBuf`] is a `Vec<u8>` that returns its storage to a thread-local
//! free list on drop; [`take_zeroed`] hands it back re-zeroed (a memset,
//! not a fresh mapping). Pool hits are witnessed by the profiler's `alloc`
//! phase share in `ncmt_cli run --profile`.
//!
//! Buffers over [`MAX_RETAIN_BYTES`] bypass the pool both ways: drop frees
//! them, and [`take_zeroed`] returns a fresh zeroed allocation, whose
//! pages the allocator maps zero-filled on first touch. A sparse datatype
//! spanning hundreds of MiB then pays only for the pages the NIC writes,
//! not for a memset of the whole span.
//!
//! The pool is strictly thread-local, so the `nca_sim::pool` workers each
//! get an independent arena and no locks are involved. Bounds: at most
//! [`MAX_POOLED`] buffers retained per thread, each at most
//! [`MAX_RETAIN_BYTES`] capacity.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Max buffers kept per thread.
const MAX_POOLED: usize = 8;
/// Max capacity of a buffer worth retaining (4 MiB).
const MAX_RETAIN_BYTES: usize = 4 << 20;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A `Vec<u8>` whose storage is recycled through the thread-local arena.
///
/// Dereferences to `Vec<u8>`, so indexing, slicing, iteration and length
/// checks all work unchanged; it also compares equal to plain `Vec<u8>` /
/// `[u8]` so assertions against reference images need no conversion.
#[derive(Default)]
pub struct PooledBuf {
    buf: Vec<u8>,
}

/// Take a buffer of `len` zeroed bytes, reusing pooled storage when a
/// pooled buffer's capacity suffices. Requests over [`MAX_RETAIN_BYTES`]
/// get a fresh zeroed allocation and leave the pool untouched.
pub fn take_zeroed(len: usize) -> PooledBuf {
    let _phase = crate::profile::enter(crate::profile::Phase::Alloc);
    if len > MAX_RETAIN_BYTES {
        return PooledBuf {
            buf: vec![0u8; len],
        };
    }
    let mut buf = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        // First fit: take the first buffer that already has the capacity.
        if let Some(i) = pool.iter().position(|b| b.capacity() >= len) {
            pool.swap_remove(i)
        } else {
            pool.pop().unwrap_or_default()
        }
    });
    buf.clear();
    buf.resize(len, 0);
    PooledBuf { buf }
}

impl PooledBuf {
    /// Wrap an existing vector (it joins the pool when dropped).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        PooledBuf { buf }
    }

    /// Move the bytes out, bypassing the pool.
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 || buf.capacity() > MAX_RETAIN_BYTES {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    #[inline]
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        let mut c = take_zeroed(self.buf.len());
        c.copy_from_slice(&self.buf);
        c
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
    }
}

impl From<Vec<u8>> for PooledBuf {
    fn from(buf: Vec<u8>) -> Self {
        PooledBuf { buf }
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}
impl Eq for PooledBuf {}

impl PartialEq<Vec<u8>> for PooledBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.buf == other
    }
}
impl PartialEq<PooledBuf> for Vec<u8> {
    fn eq(&self, other: &PooledBuf) -> bool {
        self == &other.buf
    }
}
impl PartialEq<[u8]> for PooledBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.buf.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_is_zeroed_after_reuse() {
        {
            let mut a = take_zeroed(1024);
            a.iter_mut().for_each(|b| *b = 0xAB);
        } // returns to pool dirty
        let b = take_zeroed(512);
        assert_eq!(b.len(), 512);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn reuse_keeps_capacity() {
        let cap = {
            let a = take_zeroed(100_000);
            a.capacity()
        };
        let b = take_zeroed(100_000);
        assert!(b.capacity() >= 100_000);
        // Same thread, pool hit: capacity survives the round trip.
        assert!(cap >= 100_000 && b.capacity() >= cap.min(100_000));
    }

    #[test]
    fn compares_with_plain_vecs() {
        let mut a = take_zeroed(4);
        a[1] = 7;
        let v = vec![0u8, 7, 0, 0];
        assert_eq!(a, v);
        assert_eq!(v, a);
        assert_eq!(a, *v.as_slice());
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn oversized_requests_are_zeroed_and_leave_the_pool_alone() {
        let small_ptr = {
            let small = take_zeroed(1024);
            small.as_ptr()
        }; // back in the pool
        let big = take_zeroed(MAX_RETAIN_BYTES + 1);
        assert_eq!(POOL.with(|p| p.borrow().len()), 1);
        assert_eq!(big.len(), MAX_RETAIN_BYTES + 1);
        // Sampled bytes only: a full scan is slow under miri.
        for i in (0..big.len()).step_by(4093).chain([big.len() - 1]) {
            assert_eq!(big[i], 0, "byte {i}");
        }
        let again = take_zeroed(1024);
        assert_eq!(again.as_ptr(), small_ptr, "the pooled buffer was consumed");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let huge = MAX_RETAIN_BYTES + 1;
        drop(PooledBuf::from_vec(Vec::with_capacity(huge)));
        // Nothing observable to assert beyond "no panic"; the cap is a
        // memory bound, exercised here for miri.
        let s = take_zeroed(16);
        assert_eq!(s.len(), 16);
    }
}
