//! Scoped work-stealing thread pool for independent deterministic
//! simulations.
//!
//! The evaluation harnesses run large matrices of *independent*
//! simulations (seed × scale × strategy fault sweeps, the 36 Fig. 16
//! application rows, per-figure parameter bins). Every cell is a
//! pure function of its configuration — the event engine breaks ties by
//! insertion sequence, so a cell's result is bit-identical however and
//! whenever it runs. That makes the matrix embarrassingly parallel
//! *provided the harness keeps the aggregation deterministic*, which is
//! exactly the [`Pool::par_map`] contract:
//!
//! * **Ordering** — results come back in input order, whatever order the
//!   workers finished in. A caller that prints or serializes after the
//!   barrier emits byte-identical output at any worker count.
//! * **Isolation** — the closure receives owned items; jobs share
//!   nothing unless the caller opts in (e.g. an `Arc` datatype). Give
//!   each job its own telemetry sink and merge after the barrier (see
//!   `nca-telemetry`'s `merge_ring_events`).
//! * **Panics propagate** — a panicking job poisons nothing silently:
//!   the pool joins every worker, then resumes the first panic payload
//!   on the caller's thread, same as the serial loop would have.
//!
//! Scheduling is work-stealing over per-worker deques: the items are
//! dealt into contiguous blocks (good locality for parameter sweeps,
//! where neighbours share compiled state), each worker drains its own
//! block front-to-back and steals from the *back* of a victim's deque
//! once idle, so long-tailed cells (large messages, high fault rates)
//! don't leave workers parked behind a static partition.
//!
//! There are no external dependencies (the container builds with no
//! crates.io route, per the rand/proptest shim precedent) — workers are
//! `std::thread::scope` threads, so borrowed captures work and no thread
//! outlives the call.
//!
//! **The caller is worker 0.** `par_map` spawns `jobs - 1` threads and
//! runs worker 0's share on the calling thread, which would otherwise
//! wait at the barrier. Worker 0 so takes its receive buffers from the
//! caller's thread-local arena ([`crate::arena`]), as a one-worker pool
//! does: a process that runs work on one thread again and again (a
//! benchmark loop, a test that runs a plan twice) keeps worker 0's
//! storage, pages already faulted in, between calls at any `jobs`. The
//! spawned workers start with empty arenas and free them when the call
//! ends, so a pool keeps nothing between calls beyond the caller's own
//! arena, whose retention bound is the arena's. Which thread runs an
//! item cannot change its result: the arena hands out only all-zero
//! storage, and a job's other state is its own.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Lock that survives a poisoned mutex: pool state is only item/queue
/// bookkeeping, always consistent between operations, and panics are
/// re-raised after the barrier anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pick the worker count: an explicit request (CLI `--jobs`) wins, then
/// the `NCMT_JOBS` environment variable, then the machine's available
/// parallelism. Zero (from either source) means "auto", mirroring
/// `make -j`.
pub fn resolve_jobs(requested: Option<usize>, env: Option<&str>) -> usize {
    if let Some(j) = requested {
        if j >= 1 {
            return j;
        }
    }
    if let Some(v) = env {
        if let Ok(j) = v.trim().parse::<usize>() {
            if j >= 1 {
                return j;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width worker pool. Creating one allocates nothing; the
/// calling thread is worker 0 and the other workers are threads scoped
/// to each [`Pool::par_map`] call.
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool of `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// A single-worker pool: `par_map` degenerates to the plain serial
    /// loop on the calling thread (no threads spawned).
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// A pool sized by [`resolve_jobs`]: `requested` (e.g. a parsed
    /// `--jobs` flag) beats `NCMT_JOBS` beats the machine.
    pub fn from_env(requested: Option<usize>) -> Pool {
        Pool::new(resolve_jobs(
            requested,
            std::env::var("NCMT_JOBS").ok().as_deref(),
        ))
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item concurrently and return the results **in
    /// input order**. `f` gets `(index, item)`; the index is the item's
    /// position in `items`, stable across worker counts. Panics from
    /// any job are re-raised here after all workers have stopped.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let workers = self.jobs.min(n);
        // Each item sits behind its own lock so exactly one worker takes
        // it, even when a steal races the owner.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        // Contiguous index blocks, one deque per worker.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w * n / workers..(w + 1) * n / workers).collect()))
            .collect();

        let work = |w: usize| {
            let mut out: Vec<(usize, R)> = Vec::new();
            loop {
                // Own deque first (front), then steal from a victim's
                // back. The own-deque pop is its own statement so its
                // guard drops before any victim is locked: holding it
                // across a steal lets two idle workers each hold their
                // own lock while waiting on the other's.
                let own = lock(&queues[w]).pop_front();
                let next = own.or_else(|| {
                    (1..workers)
                        .map(|d| (w + d) % workers)
                        .find_map(|v| lock(&queues[v]).pop_back())
                });
                let Some(i) = next else { break };
                // Item lock is released before `f` runs so a panicking
                // job never poisons a slot.
                let taken = lock(&slots[i]).take();
                if let Some(item) = taken {
                    out.push((i, f(i, item)));
                }
            }
            // Self-profiler: spawned workers die with the scope; bank
            // the phase totals first.
            crate::profile::flush();
            out
        };

        let gathered: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let work = &work;
                    scope.spawn(move || {
                        crate::profile::set_worker(w);
                        work(w)
                    })
                })
                .collect();
            // Worker 0 is this thread (see the module doc). Its panic is
            // held until every spawned worker has stopped.
            let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(0)));
            let mut all = Vec::with_capacity(n);
            let mut panic = None;
            for part in std::iter::once(own).chain(handles.into_iter().map(|h| h.join())) {
                match part {
                    Ok(part) => all.extend(part),
                    Err(payload) => panic = panic.or(Some(payload)),
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
            all
        });

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in gathered {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every index produced exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 3, 8, 128] {
            let out = Pool::new(jobs).par_map(items.clone(), |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = Pool::new(4).par_map((0..1000).collect::<Vec<u32>>(), |_, x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn stealing_drains_long_tails() {
        // Worker 0's block is one huge job; the rest are tiny. With a
        // static partition worker 0 would also own jobs 1..=3; stealing
        // lets the others finish them while it grinds.
        let out = Pool::new(4).par_map(vec![40u64, 1, 1, 1, 1, 1, 1, 1], |_, ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert_eq!(out, vec![40, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let r = std::panic::catch_unwind(|| {
            Pool::new(3).par_map((0..16).collect::<Vec<u32>>(), |_, x| {
                if x == 7 {
                    panic!("job 7 exploded");
                }
                x
            })
        });
        let payload = r.expect_err("panic must cross the barrier");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("job 7"), "payload preserved, got {msg:?}");
    }

    #[test]
    fn trivial_jobs_never_deadlock_the_steal_path() {
        // Thousands of equal, instant jobs make workers drain their own
        // deques and turn to stealing at the same moment, the schedule
        // under which a guard held across the steal deadlocked. A hang
        // must fail the test, so the runs go on a watchdog thread.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..50 {
                for jobs in [2, 3, 4, 8, 16] {
                    let n = 2000 + round;
                    let out = Pool::new(jobs).par_map((0..n).collect::<Vec<usize>>(), |_, x| x + 1);
                    assert_eq!(out.len(), n);
                    assert!(out.iter().enumerate().all(|(i, &x)| x == i + 1));
                }
            }
            tx.send(()).expect("watchdog listening");
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("par_map hung (or panicked) on trivial jobs");
    }

    #[test]
    fn serial_pool_runs_inline() {
        let caller = std::thread::current().id();
        Pool::serial().par_map(vec![(), (), ()], |_, ()| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    /// Take a buffer, write it through the recorder, and return where
    /// its storage lives.
    fn dirty_buffer(len: usize) -> usize {
        let mut b = crate::arena::take_zeroed(len);
        b.record(1, 7).fill(0xAB);
        b.as_ptr() as usize
    }

    #[test]
    fn worker_zero_keeps_the_callers_storage_across_calls() {
        let at = dirty_buffer(4096);
        let caller = std::thread::current().id();
        let pool = Pool::new(2);
        // The barrier holds each job until both run, so each worker runs
        // its own item: item 0 on worker 0, item 1 on worker 1.
        let together = std::sync::Barrier::new(2);
        let call = || {
            pool.par_map(vec![4096usize, 4097], |_, len| {
                together.wait();
                (std::thread::current().id() == caller, dirty_buffer(len))
            })
        };
        let first = call();
        assert!(crate::arena::pool_is_zero(), "pooled storage is all-zero");
        let second = call();
        assert_eq!(
            (first[0].0, first[1].0),
            (true, false),
            "worker 0 is the caller"
        );
        assert_eq!(first[0].1, at, "worker 0 took the caller's pooled storage");
        assert_eq!(second[0].1, at, "and keeps it for the next call");
        assert!(crate::arena::pool_is_zero(), "pooled storage is all-zero");
        let serial = Pool::serial().par_map(vec![4096usize], |_, len| dirty_buffer(len));
        assert_eq!(serial, [at], "as a one-worker pool does");
    }

    #[test]
    fn a_panicking_job_leaves_only_zeroed_storage() {
        // Item 0 runs on worker 0 (this thread), item 9 on a spawned one.
        for boom in [0usize, 9] {
            let pool = Pool::new(2);
            let r = std::panic::catch_unwind(|| {
                pool.par_map((0..16).collect::<Vec<usize>>(), |i, _| {
                    let mut b = crate::arena::take_zeroed(256 + i);
                    b.record(0, 8).fill(0xEE);
                    if i == boom {
                        b[100] = 1;
                        panic!("job {i} exploded");
                    }
                    dirty_buffer(512 + i)
                })
            });
            let payload = r.expect_err("panic must cross the barrier");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains(&format!("job {boom}")),
                "payload preserved, got {msg:?}"
            );
            let zero = pool.par_map((0..16).collect::<Vec<usize>>(), |i, _| {
                crate::arena::take_zeroed(300 + i).iter().all(|&x| x == 0)
            });
            assert!(zero.iter().all(|&z| z), "boom {boom}: a dirty buffer");
            assert!(
                crate::arena::pool_is_zero(),
                "boom {boom}: dirty pooled storage"
            );
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = Pool::new(8).par_map(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn resolve_jobs_precedence() {
        assert_eq!(resolve_jobs(Some(3), Some("8")), 3, "CLI wins");
        assert_eq!(resolve_jobs(None, Some("8")), 8, "env next");
        assert_eq!(resolve_jobs(None, Some(" 2 ")), 2, "env is trimmed");
        let auto = resolve_jobs(None, None);
        assert!(auto >= 1, "machine fallback");
        assert_eq!(resolve_jobs(Some(0), Some("5")), 5, "0 means auto");
        assert_eq!(resolve_jobs(None, Some("zero")), auto, "bad env ignored");
    }
}
