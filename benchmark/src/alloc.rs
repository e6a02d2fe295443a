//! A counting global allocator for the memory pass.
//!
//! Counting is switched on only around a `--jobs 1` run, so the timed
//! `--jobs 2` pass pays one relaxed load per call and no contended
//! read-modify-write. Live bytes are counted from the moment counting
//! starts; memory the process held before does not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// What one counted interval allocated.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Highest live heap above the level at `start`, in bytes.
    pub peak_bytes: u64,
    /// Allocation calls (a growing `realloc` counts as one).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

fn grow(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

/// Reset the counters and start counting.
pub fn start() {
    for c in [&LIVE, &PEAK] {
        c.store(0, Relaxed);
    }
    for c in [&COUNT, &BYTES] {
        c.store(0, Relaxed);
    }
    ON.store(true, Relaxed);
}

/// Stop counting and report the interval.
pub fn stop() -> Usage {
    ON.store(false, Relaxed);
    Usage {
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// counters only observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees a valid layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees a valid layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came
        // from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came
        // from this allocator with `layout` and `new_size` is valid.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}
