//! Allocation budget of the traffic sweep: a ratchet on how many heap
//! allocations one admitted message costs.
//!
//! This binary installs a counting global allocator that counts only the
//! allocations of the thread that makes them, so the test harness's other
//! threads do not show, and runs the golden traffic grid on a serial
//! `Pool`, which runs every cell on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ncmt::sim::Pool;
use ncmt::spin::sched::QueueDiscipline;
use ncmt::traffic::{traffic_sweep, TrafficSweepSpec};

/// Forwards to `System`, counting each allocation on the calling
/// thread.
struct PerThread;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialized `Cell` has no destructor, so the slot stays
    // readable while a thread tears down; `try_with` covers the rest.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// never touches the memory.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller guarantees a valid layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller guarantees a valid layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The grid of `tests/golden/traffic_baseline.json`.
fn golden_spec() -> TrafficSweepSpec {
    let mut s = TrafficSweepSpec::new(1);
    s.apps = vec!["COMB/b".into(), "NAS-MG/a".into()];
    s.loads = vec![0.4, 1.0];
    s.disciplines = QueueDiscipline::ALL.to_vec();
    s.tenants = 3;
    s.hpus = 8;
    s.horizon_ps = ncmt::sim::us(200);
    s
}

/// Most allocations (a growing `realloc` counts as one) one traffic
/// sweep of the golden grid may make per admitted message. Measured on
/// that grid, which admits 21,996 messages, the same in debug and
/// release builds:
/// - when every admission built its own processor (dataloop lookup,
///   Δr plan, checkpoint table): 274,344 allocations, 12.47 per message;
/// - once each cell commits every (strategy, workload) once and
///   admission only instantiates: 242,039, 11.00 per message.
///
/// A ratchet, like CI's telemetry ceiling: lower it when a change lowers
/// the count, and never raise it to let a change pass.
const MAX_ALLOCS_PER_ADMITTED: f64 = 11.05;

#[test]
fn a_traffic_sweep_stays_within_its_allocation_budget_per_admitted_message() {
    let spec = golden_spec();
    let before = allocs();
    let doc = traffic_sweep(&spec, &Pool::serial());
    let made = allocs() - before;
    assert!(doc.all_byte_exact());
    let admitted: u64 = doc
        .cells
        .iter()
        .flat_map(|c| &c.tenants)
        .map(|t| t.admitted)
        .sum();
    assert!(
        admitted > 20_000,
        "the golden grid admits about 22k messages"
    );
    let per = made as f64 / admitted as f64;
    eprintln!("{made} allocations for {admitted} admitted messages: {per:.2} each");
    assert!(
        per <= MAX_ALLOCS_PER_ADMITTED,
        "{made} allocations for {admitted} admitted messages is {per:.2} per message, above \
         the budget of {MAX_ALLOCS_PER_ADMITTED}"
    );
}
