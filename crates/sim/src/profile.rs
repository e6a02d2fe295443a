//! Simulator self-profiler: where does the *wall-clock* go?
//!
//! The telemetry stack measures *simulated* time in detail; this module
//! measures the simulator itself, attributing host wall-clock to a
//! small fixed set of [`Phase`]s — event-queue operations, event/handler
//! execution, DMA-copy kernels, telemetry emission, and
//! allocation/packing — so hot-path work can be optimized against real
//! numbers instead of guesses (`ncmt_cli run --profile` renders the
//! result as an `ncmt-profile` artifact).
//!
//! Mechanics:
//!
//! * Scoped guards over a monotonic clock. [`enter`] pushes a phase and
//!   returns a guard; dropping it pops back to the parent. Elapsed time
//!   is charged to whichever phase is **innermost**, so nested phases
//!   never double-count and the per-phase totals tile the instrumented
//!   wall-clock: `sum(phases) + unattributed = wall`.
//! * Per-thread accumulators, flushed into a process-wide table keyed
//!   by worker id ([`set_worker`] / [`flush`]; the pool does both for
//!   its workers). The hot path touches only a thread-local — no locks.
//! * Two gates. Compile time: the whole module is a no-op unless the
//!   `self-profile` cargo feature is on (instrumented call sites melt
//!   away). Runtime: even when compiled in, a disabled profiler
//!   ([`set_enabled`]) costs one relaxed atomic load per call site.
//!
//! Instrumented sites call [`enter`] unconditionally; the signatures
//! exist (as no-ops) with the feature off, so no caller needs cfg.

use std::sync::atomic::{AtomicBool, Ordering};

/// Number of profiled phases.
pub const NUM_PHASES: usize = 5;

/// What a slice of simulator wall-clock was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Event-queue operations: heap push on schedule, pop on step.
    EventQueue,
    /// Event execution: the scheduled closure, which in the NIC model
    /// is dominated by sPIN handler work (nested phases are excluded).
    Handler,
    /// DMA-copy kernels: landing payload bytes into host memory.
    DmaCopy,
    /// Telemetry emission and sink work (ring push / streaming fold).
    Telemetry,
    /// Allocation and packing: building message payloads, staging
    /// buffers.
    Alloc,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::EventQueue,
        Phase::Handler,
        Phase::DmaCopy,
        Phase::Telemetry,
        Phase::Alloc,
    ];

    /// Stable snake_case label used in the `ncmt-profile` artifact.
    pub fn label(self) -> &'static str {
        match self {
            Phase::EventQueue => "event_queue",
            Phase::Handler => "handler",
            Phase::DmaCopy => "dma_copy",
            Phase::Telemetry => "telemetry",
            Phase::Alloc => "alloc",
        }
    }

    /// Index of this phase in the [`WorkerProfile`] arrays (the
    /// position in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Phase::EventQueue => 0,
            Phase::Handler => 1,
            Phase::DmaCopy => 2,
            Phase::Telemetry => 3,
            Phase::Alloc => 4,
        }
    }
}

/// One worker's accumulated profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker id ([`set_worker`]; 0 is the coordinating thread).
    pub worker: usize,
    /// Nanoseconds charged to each phase, indexed like [`Phase::ALL`].
    pub ns: [u64; NUM_PHASES],
    /// Number of [`enter`] calls per phase, same indexing.
    pub counts: [u64; NUM_PHASES],
}

impl WorkerProfile {
    /// Total attributed nanoseconds across all phases.
    pub fn attributed_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the profiler on or off at runtime. Off (the default), every
/// instrumented site costs one relaxed atomic load. No-op without the
/// `self-profile` feature.
pub fn set_enabled(on: bool) {
    ENABLED.store(on && cfg!(feature = "self-profile"), Ordering::Relaxed);
}

/// Whether the profiler is compiled in *and* enabled.
#[inline]
pub fn is_enabled() -> bool {
    cfg!(feature = "self-profile") && ENABLED.load(Ordering::Relaxed)
}

/// Whether the `self-profile` feature was compiled in.
pub fn is_compiled() -> bool {
    cfg!(feature = "self-profile")
}

/// Enter `phase`: wall-clock is charged to it until the guard drops or
/// a nested [`enter`] supersedes it.
#[inline]
#[must_use = "the phase ends when the guard drops"]
pub fn enter(phase: Phase) -> PhaseGuard {
    #[cfg(feature = "self-profile")]
    {
        if is_enabled() {
            imp::push(phase);
            return PhaseGuard { active: true };
        }
        PhaseGuard { active: false }
    }
    #[cfg(not(feature = "self-profile"))]
    {
        let _ = phase;
        PhaseGuard {}
    }
}

/// Scoped phase marker; see [`enter`].
pub struct PhaseGuard {
    #[cfg(feature = "self-profile")]
    active: bool,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        #[cfg(feature = "self-profile")]
        if self.active {
            imp::pop();
        }
    }
}

/// Label the calling thread's accumulator with `worker` (pool workers
/// call this before their job loop; unlabelled threads report as 0).
pub fn set_worker(worker: usize) {
    #[cfg(feature = "self-profile")]
    imp::set_worker(worker);
    #[cfg(not(feature = "self-profile"))]
    let _ = worker;
}

/// Fold the calling thread's accumulator into the process-wide table
/// and zero it. Call when a worker finishes (the pool does) — a
/// thread's counts are invisible to [`snapshot`] until flushed.
pub fn flush() {
    #[cfg(feature = "self-profile")]
    imp::flush();
}

/// Zero the process-wide table and the calling thread's accumulator
/// (start of a profiled region).
pub fn reset() {
    #[cfg(feature = "self-profile")]
    imp::reset();
}

/// Flush the calling thread, then return every worker's totals in
/// worker-id order. Empty without the `self-profile` feature.
pub fn snapshot() -> Vec<WorkerProfile> {
    #[cfg(feature = "self-profile")]
    {
        imp::flush();
        imp::snapshot()
    }
    #[cfg(not(feature = "self-profile"))]
    Vec::new()
}

#[cfg(feature = "self-profile")]
mod imp {
    use super::{Phase, WorkerProfile, NUM_PHASES};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::time::Instant;

    struct Acc {
        worker: usize,
        ns: [u64; NUM_PHASES],
        counts: [u64; NUM_PHASES],
        /// Innermost-wins phase stack; `mark` is when the current
        /// innermost phase (re)started.
        stack: Vec<usize>,
        mark: Option<Instant>,
    }

    impl Acc {
        const fn new() -> Acc {
            Acc {
                worker: 0,
                ns: [0; NUM_PHASES],
                counts: [0; NUM_PHASES],
                stack: Vec::new(),
                mark: None,
            }
        }

        /// Charge elapsed time since `mark` to the innermost phase.
        fn settle(&mut self, now: Instant) {
            if let (Some(&top), Some(mark)) = (self.stack.last(), self.mark) {
                self.ns[top] += now.duration_since(mark).as_nanos() as u64;
            }
        }
    }

    thread_local! {
        static ACC: RefCell<Acc> = const { RefCell::new(Acc::new()) };
    }

    /// Per-worker `(ns, counts)` totals, indexed by phase.
    type Totals = ([u64; NUM_PHASES], [u64; NUM_PHASES]);

    static GLOBAL: Mutex<BTreeMap<usize, Totals>> = Mutex::new(BTreeMap::new());

    fn lock() -> std::sync::MutexGuard<'static, BTreeMap<usize, Totals>> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(super) fn push(phase: Phase) {
        ACC.with(|acc| {
            let mut acc = acc.borrow_mut();
            let now = Instant::now();
            acc.settle(now);
            let idx = phase.index();
            acc.stack.push(idx);
            acc.counts[idx] += 1;
            acc.mark = Some(now);
        });
    }

    pub(super) fn pop() {
        ACC.with(|acc| {
            let mut acc = acc.borrow_mut();
            let now = Instant::now();
            acc.settle(now);
            acc.stack.pop();
            acc.mark = Some(now);
        });
    }

    pub(super) fn set_worker(worker: usize) {
        ACC.with(|acc| acc.borrow_mut().worker = worker);
    }

    pub(super) fn flush() {
        ACC.with(|acc| {
            let mut acc = acc.borrow_mut();
            if acc.ns.iter().all(|&n| n == 0) && acc.counts.iter().all(|&c| c == 0) {
                return;
            }
            let mut table = lock();
            let entry = table
                .entry(acc.worker)
                .or_insert(([0; NUM_PHASES], [0; NUM_PHASES]));
            for i in 0..NUM_PHASES {
                entry.0[i] += acc.ns[i];
                entry.1[i] += acc.counts[i];
            }
            drop(table);
            acc.ns = [0; NUM_PHASES];
            acc.counts = [0; NUM_PHASES];
        });
    }

    pub(super) fn reset() {
        lock().clear();
        ACC.with(|acc| {
            let mut acc = acc.borrow_mut();
            acc.ns = [0; NUM_PHASES];
            acc.counts = [0; NUM_PHASES];
        });
    }

    pub(super) fn snapshot() -> Vec<WorkerProfile> {
        lock()
            .iter()
            .map(|(&worker, &(ns, counts))| WorkerProfile { worker, ns, counts })
            .collect()
    }
}

#[cfg(all(test, feature = "self-profile"))]
mod tests {
    use super::*;

    /// The profiler state is process-global, so the tests that drive it
    /// share one lock (cargo runs tests concurrently).
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn spin_for(ns: u64) {
        let t0 = std::time::Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        {
            let _p = enter(Phase::Handler);
            spin_for(50_000);
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn nested_phases_pause_their_parent() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let block = std::time::Instant::now();
        {
            let _h = enter(Phase::Handler);
            spin_for(200_000);
            {
                let _d = enter(Phase::DmaCopy);
                spin_for(200_000);
            }
            spin_for(200_000);
        }
        let wall = block.elapsed().as_nanos() as u64;
        set_enabled(false);
        let snap = snapshot();
        reset();
        assert_eq!(snap.len(), 1);
        let w = snap[0];
        let handler = w.ns[Phase::Handler.index()];
        let dma = w.ns[Phase::DmaCopy.index()];
        assert_eq!(w.counts[Phase::Handler.index()], 1);
        assert_eq!(w.counts[Phase::DmaCopy.index()], 1);
        // Handler held the clock for ~400µs of the ~600µs total.
        assert!(dma >= 150_000, "dma {dma}ns");
        assert!(handler >= 300_000, "handler {handler}ns");
        // Exclusive accounting tiles the guarded block, so the two
        // phases can never exceed its wall-clock, however long the
        // thread was preempted inside it. Charging the nested DMA slice
        // to the handler too would overshoot by at least that slice.
        assert!(
            handler + dma <= wall,
            "handler {handler}ns + dma {dma}ns exceed the block's {wall}ns: \
             the nested dma slice was double-counted"
        );
    }

    #[test]
    fn flush_accumulates_per_worker() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for w in [1usize, 2] {
                s.spawn(move || {
                    set_worker(w);
                    let _p = enter(Phase::EventQueue);
                    spin_for(100_000);
                    drop(_p);
                    flush();
                });
            }
        });
        set_enabled(false);
        let snap = snapshot();
        reset();
        let workers: Vec<usize> = snap.iter().map(|w| w.worker).collect();
        assert_eq!(workers, vec![1, 2]);
        for w in snap {
            assert_eq!(w.counts[Phase::EventQueue.index()], 1);
            assert!(w.ns[Phase::EventQueue.index()] > 0);
        }
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec!["event_queue", "handler", "dma_copy", "telemetry", "alloc"]
        );
    }
}
