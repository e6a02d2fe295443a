//! Per-worker buffer arena: recycled receive buffers that record where
//! they were written.
//!
//! The packet-path hot loop allocates one large, short-lived buffer per
//! simulated message: the simulated host receive buffer, which spans
//! the datatype's extent (~128 KiB for the bench datatype, 255 MiB for
//! NAS-MG/d's 512 KiB message). A plain `vec![0; span]` costs an mmap,
//! a page fault per touched page and a munmap per run, and sweeps and
//! traffic cells repeat that thousands of times per worker.
//!
//! **Invariant:** a pooled buffer is all-zero over its whole length.
//! [`take_zeroed`] therefore hands out the shortest pooled buffer that is
//! long enough with no memset; its [`PooledBuf`] exposes exactly the
//! requested `len` bytes (`Deref<Target = [u8]>`) of a possibly longer
//! storage. Writers that keep the pool cheap record every extent they
//! write ([`PooledBuf::record`], [`PooledBuf::record_strided`]): receive
//! buffers, the NIC's and the host unpack's, are written only that way.
//! On drop, only the recorded runs are re-zeroed, one fill over their
//! hull when the hull is not much longer than the runs, so a sparse
//! receive pays for the bytes it landed, not for its span. Any other
//! mutable access (`DerefMut`, `Clone`) marks the buffer untracked, and
//! drop then zeroes its whole visible length.
//!
//! **Retention bound:** the pool is strictly thread-local, so the
//! `nca_sim::pool` workers each get an independent arena and no locks are
//! involved. A thread keeps at most [`MAX_POOLED`] buffers, of any size,
//! and when no pooled buffer is long enough, [`take_zeroed`] frees them
//! all (they are all shorter) before it allocates, so a thread's cold
//! peak is its largest live request, not that plus its pool. Pool hits
//! are witnessed by the profiler's `alloc` phase share in
//! `ncmt_cli run --profile`. A multi-worker `nca_sim::pool::Pool` runs
//! its worker 0 on the calling thread, which so reuses its own pool from
//! call to call, as a one-worker pool does; the spawned workers' pools
//! are freed with their threads when the call ends.
//!
//! **One owner of the invariant:** only this module touches the storage
//! and the run list that says what to re-zero. Readers get the runs
//! read-only: [`PooledBuf::written`] in recording order, or
//! [`PooledBuf::merged_written`], which sorts and merges them in place
//! and keeps their union.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Max buffers kept per thread.
const MAX_POOLED: usize = 8;
/// Drop zeroes the recorded runs' hull in one fill when the hull is at
/// most the runs' bytes plus this many bytes per run. In cache, a short
/// fill costs about as much as 200 more bytes of a long one (on a Xeon
/// core, 128-byte runs at a 256-byte stride over 512 KiB: 16.5 µs run by
/// run, 13 µs as one fill), and the slack keeps the hull from reaching
/// pages no run wrote.
const FILL_SLACK_PER_RUN: usize = 128;

/// A written extent `(start, len)` in buffer indices.
pub type Run = (usize, usize);

/// Pooled storage: zeroed bytes plus the emptied run list that recorded
/// their last use, kept so steady-state receives allocate neither.
struct Pooled {
    bytes: Vec<u8>,
    runs: Vec<Run>,
}

thread_local! {
    static POOL: RefCell<Vec<Pooled>> = const { RefCell::new(Vec::new()) };
}

/// A byte buffer whose storage is recycled through the thread-local
/// arena.
///
/// Dereferences to its `len` visible bytes, so indexing, slicing,
/// iteration and length checks all work unchanged; it also compares
/// equal to plain `Vec<u8>` / `[u8]` so assertions against reference
/// images need no conversion.
#[derive(Default)]
pub struct PooledBuf {
    /// Storage, at least `len` bytes. Zero wherever no recorded run (or,
    /// once untracked, no visible byte) lies.
    bytes: Vec<u8>,
    /// Visible length.
    len: usize,
    /// Extents written through the recorder, in recording order; a run
    /// that starts where the previous one ends extends it.
    runs: Vec<Run>,
    /// Written by something other than the recorder: drop zeroes every
    /// visible byte.
    untracked: bool,
}

/// Take a buffer of `len` zeroed bytes: the shortest pooled buffer long
/// enough, or, when none is, a fresh zeroed allocation once the pool
/// (holding only shorter buffers) has been freed.
pub fn take_zeroed(len: usize) -> PooledBuf {
    if len == 0 {
        return PooledBuf::default();
    }
    let _phase = crate::profile::enter(crate::profile::Phase::Alloc);
    let Pooled { bytes, runs } = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let best = (0..pool.len())
            .filter(|&i| pool[i].bytes.len() >= len)
            .min_by_key(|&i| pool[i].bytes.len());
        match best {
            Some(i) => pool.swap_remove(i),
            None => {
                // Every pooled buffer is shorter: free them first.
                pool.clear();
                Pooled {
                    bytes: vec![0u8; len],
                    runs: Vec::new(),
                }
            }
        }
    });
    PooledBuf {
        bytes,
        len,
        runs,
        untracked: false,
    }
}

impl PooledBuf {
    /// Move the `len` visible bytes out, bypassing the pool.
    pub fn into_vec(mut self) -> Vec<u8> {
        let mut bytes = std::mem::take(&mut self.bytes);
        bytes.truncate(self.len);
        bytes
    }

    /// Record `[at, at + len)` as written and return exactly those bytes
    /// to write.
    pub fn record(&mut self, at: usize, len: usize) -> &mut [u8] {
        let extent = &mut self.bytes[..self.len][at..at + len];
        push_run(&mut self.runs, at, len);
        extent
    }

    /// Record the `n` extents of `len` bytes at `at + i·step` (`step`
    /// may be negative) as written and return the visible bytes to write
    /// them through. The caller writes nothing else (`nca_ddt::kernels`'
    /// `copy_strided` writes exactly these extents): drop re-zeroes only
    /// what was recorded.
    pub fn record_strided(&mut self, at: usize, step: isize, len: usize, n: usize) -> &mut [u8] {
        if n > 0 && len > 0 {
            let last = at as isize + (n as isize - 1) * step;
            assert!(last >= 0, "strided write before the buffer");
            let (lo, hi) = (at.min(last as usize), at.max(last as usize) + len);
            assert!(hi <= self.len, "strided write past the buffer");
            if step.unsigned_abs() == len {
                push_run(&mut self.runs, lo, hi - lo);
            } else {
                for i in 0..n as isize {
                    push_run(&mut self.runs, (at as isize + i * step) as usize, len);
                }
            }
        }
        &mut self.bytes[..self.len]
    }

    /// The extents written through the recorder, in recording order, or
    /// `None` once the buffer was written some other way.
    pub fn written(&self) -> Option<&[Run]> {
        (!self.untracked).then_some(&self.runs[..])
    }

    /// The visible bytes and the recorded runs sorted by start and
    /// merged in place: disjoint, not touching, and covering exactly
    /// the bytes written. For a reader after the last write (a verdict
    /// that walks the runs in buffer order); a later write records after
    /// them as usual. `None` once untracked.
    pub fn merged_written(&mut self) -> Option<(&[u8], &[Run])> {
        if self.untracked {
            return None;
        }
        let runs = &mut self.runs;
        // A recorder that wrote in buffer order already left them merged.
        if !runs.is_sorted_by(|a, b| a.0 + a.1 < b.0) {
            runs.sort_unstable();
            let mut merged = 0usize;
            for i in 0..runs.len() {
                let (at, n) = runs[i];
                match merged.checked_sub(1).map(|last| &mut runs[last]) {
                    Some(last) if at <= last.0 + last.1 => {
                        last.1 = last.1.max(at + n - last.0);
                    }
                    _ => {
                        runs[merged] = (at, n);
                        merged += 1;
                    }
                }
            }
            runs.truncate(merged);
        }
        Some((&self.bytes[..self.len], &self.runs))
    }

    /// Restore the all-zero invariant over the storage.
    fn rezero(&mut self) {
        if self.untracked {
            self.bytes[..self.len].fill(0);
            return;
        }
        let (lo, hi, covered) = self
            .runs
            .iter()
            .fold((usize::MAX, 0, 0), |(lo, hi, sum), &(at, n)| {
                (lo.min(at), hi.max(at + n), sum + n)
            });
        if lo >= hi {
            return; // nothing recorded
        }
        if hi - lo <= covered + FILL_SLACK_PER_RUN * self.runs.len() {
            self.bytes[lo..hi].fill(0);
        } else {
            for &(at, n) in &self.runs {
                self.bytes[at..at + n].fill(0);
            }
        }
    }
}

/// Append `[at, at + len)` to `runs`, extending the last run when it
/// ends where this one starts; a zero-length write records nothing.
fn push_run(runs: &mut Vec<Run>, at: usize, len: usize) {
    if len == 0 {
        return;
    }
    match runs.last_mut() {
        Some((start, n)) if *start + *n == at => *n += len,
        _ => runs.push((at, len)),
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.bytes.is_empty() {
            return;
        }
        // `try_with`: a buffer dropped while the thread tears its pool
        // down is simply freed.
        let _ = POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() >= MAX_POOLED {
                return;
            }
            let _phase = crate::profile::enter(crate::profile::Phase::Alloc);
            self.rezero();
            let mut runs = std::mem::take(&mut self.runs);
            runs.clear();
            pool.push(Pooled {
                bytes: std::mem::take(&mut self.bytes),
                runs,
            });
        });
    }
}

impl Deref for PooledBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl DerefMut for PooledBuf {
    /// Unrecorded access: marks the buffer untracked.
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        self.untracked = true;
        &mut self.bytes[..self.len]
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        let mut c = take_zeroed(self.len);
        c.copy_from_slice(self);
        c
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self[..].fmt(f)
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for PooledBuf {}

impl PartialEq<Vec<u8>> for PooledBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}
impl PartialEq<PooledBuf> for Vec<u8> {
    fn eq(&self, other: &PooledBuf) -> bool {
        self[..] == other[..]
    }
}
impl PartialEq<[u8]> for PooledBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

/// Whether every buffer in this thread's pool is zero over its whole
/// storage.
#[cfg(test)]
pub(crate) fn pool_is_zero() -> bool {
    POOL.with(|p| p.borrow().iter().all(|b| b.bytes.iter().all(|&x| x == 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Storage lengths of the pooled buffers, in pool order.
    fn pooled() -> Vec<usize> {
        POOL.with(|p| p.borrow().iter().map(|b| b.bytes.len()).collect())
    }

    /// Re-take a buffer of `len` bytes and scan its whole storage (each
    /// test runs on its own thread, so the pool holds only its buffers).
    fn storage_is_zero(len: usize) -> bool {
        let b = take_zeroed(len);
        b.bytes.iter().all(|&x| x == 0)
    }

    #[test]
    fn take_zeroed_is_zeroed_after_reuse() {
        {
            let mut a = take_zeroed(1024);
            a.iter_mut().for_each(|b| *b = 0xAB);
        } // returns to pool dirty, untracked
        let b = take_zeroed(512);
        assert_eq!(b.len(), 512);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn reuse_keeps_capacity() {
        let ptr = take_zeroed(100_000).as_ptr();
        let b = take_zeroed(100_000);
        // Same thread, pool hit: the storage survives the round trip.
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 100_000);
    }

    #[test]
    fn recorded_runs_are_rezeroed_per_run() {
        {
            let mut a = take_zeroed(4096);
            // Two 8-byte runs 4000 bytes apart: the hull is far longer
            // than the runs, so drop fills each run.
            a.record(16, 8).fill(0xAB);
            a.record(4040, 8).fill(0xCD);
            assert_eq!(a.written(), Some(&[(16, 8), (4040, 8)][..]));
        }
        assert!(storage_is_zero(4096));
    }

    #[test]
    fn recorded_runs_are_rezeroed_over_their_hull() {
        {
            let mut a = take_zeroed(4096);
            // 32 runs of 16 bytes at a 32-byte stride: the hull is barely
            // longer than the runs, so drop fills it once.
            let buf = a.record_strided(1024, 32, 16, 32);
            for i in 0..32 {
                buf[1024 + i * 32..1024 + i * 32 + 16].fill(0xEE);
            }
            assert_eq!(a.written().map(<[Run]>::len), Some(32));
            // A contiguous strided write records one run.
            a.record_strided(64, 8, 8, 4)[64..96].fill(0xEE);
            assert_eq!(a.written().and_then(|r| r.last().copied()), Some((64, 32)));
        }
        assert!(storage_is_zero(4096));
    }

    #[test]
    fn negative_strides_record_their_blocks() {
        let mut a = take_zeroed(256);
        a.record_strided(192, -64, 16, 3);
        assert_eq!(a.written(), Some(&[(192, 16), (128, 16), (64, 16)][..]));
        a.record_strided(32, -8, 8, 3);
        assert_eq!(a.written().and_then(|r| r.last().copied()), Some((16, 24)));
    }

    #[test]
    fn untracked_buffers_come_back_zeroed() {
        {
            let mut a = take_zeroed(512);
            a.record(0, 4).fill(1);
            a[300] = 7; // DerefMut: unrecorded
            assert_eq!(a.written(), None);
            assert!(a.merged_written().is_none());
        }
        assert!(storage_is_zero(512));
        let mut src = take_zeroed(512);
        src.fill(3);
        let copy = src.clone();
        assert_eq!(copy.written(), None);
        drop((src, copy));
        assert!(pool_is_zero());
        assert_eq!(pooled().len(), 2);
    }

    #[test]
    fn merged_runs_cover_exactly_what_was_written() {
        {
            let mut a = take_zeroed(4096);
            // Out of order, a run recorded twice, two halves of one run,
            // a run inside another and two that touch.
            for (at, n) in [(3000, 8), (100, 8), (108, 8), (2000, 8), (100, 4)] {
                a.record(at, n).fill(0xAB);
            }
            for (at, n) in [(2002, 2), (3008, 8)] {
                a.record(at, n).fill(0xAB);
            }
            let (bytes, runs) = a.merged_written().expect("recorded");
            assert_eq!(bytes.len(), 4096);
            assert_eq!(runs, [(100, 16), (2000, 8), (3000, 16)]);
            // Merged runs stay merged; a later write records after them.
            assert_eq!(a.merged_written().map(|(_, r)| r.len()), Some(3));
            a.record(0, 4).fill(0xCD);
            assert_eq!(a.written().and_then(|r| r.last().copied()), Some((0, 4)));
            assert_eq!(
                a.merged_written().map(|(_, r)| r.to_vec()),
                Some(vec![(0, 4), (100, 16), (2000, 8), (3000, 16)])
            );
        }
        assert!(storage_is_zero(4096));
        // In buffer order, as an in-order unpack records them: untouched.
        let mut b = take_zeroed(256);
        b.record_strided(0, 32, 8, 4);
        let recorded = b.written().map(<[Run]>::to_vec);
        assert_eq!(b.merged_written().map(|(_, r)| r.to_vec()), recorded);
    }

    #[test]
    fn take_zeroed_picks_the_shortest_fit() {
        drop((take_zeroed(100), take_zeroed(300), take_zeroed(200)));
        let b = take_zeroed(150);
        assert_eq!(b.bytes.len(), 200);
        let mut left = pooled();
        left.sort_unstable();
        assert_eq!(left, [100, 300]);
    }

    #[test]
    fn a_longer_buffer_exposes_exactly_len() {
        drop(take_zeroed(1000));
        let mut b = take_zeroed(10);
        assert_eq!(b.bytes.len(), 1000, "pool hit");
        assert_eq!(b.len(), 10);
        assert_eq!(b, vec![0u8; 10]);
        b.record(6, 4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(b.into_vec(), [0, 0, 0, 0, 0, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_fresh_allocation_frees_the_shorter_pool_first() {
        drop((take_zeroed(64), take_zeroed(128)));
        assert_eq!(pooled().len(), 2);
        let big = take_zeroed(1024);
        assert!(
            pooled().is_empty(),
            "shorter buffers freed before allocating"
        );
        assert_eq!(big.len(), 1024);
        drop(big);
        assert_eq!(pooled(), [1024]);
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
}
