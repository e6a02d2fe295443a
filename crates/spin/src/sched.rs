//! Pluggable HPU queueing disciplines.
//!
//! The receive core ([`crate::nic::Nic`]) funnels the ready handlers of
//! every in-flight message, whichever source admitted it, through one
//! scheduler that multiplexes work onto the physical HPUs. Historically that scheduler was hard-wired to the
//! paper's blocked round-robin semantics; under multi-tenant load the
//! choice of discipline dominates tail latency, so it is now pluggable:
//!
//! * [`QueueDiscipline::BlockedRR`] — the original semantics, bit-exact:
//!   per-key FIFOs, a key occupies at most one HPU at a time, keys are
//!   served in arrival order with busy keys rotated to the back.
//! * [`QueueDiscipline::CFcfs`] — centralized FCFS: one global FIFO of
//!   ready handlers, dispatched to any idle HPU in strict arrival
//!   order. No per-key serialization, no head-of-line blocking across
//!   keys — the M/G/k ideal.
//! * [`QueueDiscipline::DFcfs`] — distributed FCFS: every physical HPU
//!   owns a private FIFO; arrivals are steered to an HPU by the
//!   caller's hint (an RSS-style indirection-table lookup in the
//!   traffic engine). Cache-friendly and synchronization-free on real
//!   hardware, but hash imbalance shows up directly in the tail.
//!
//! The scheduler is generic over the queue key `K`; the receive core
//! packs `(message, vHPU)` into one `u64`, which for a one-message
//! receive is the bare vHPU id.

use std::collections::{HashMap, HashSet, VecDeque};

/// Which queueing discipline the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Blocked round-robin over keys (paper Sec. 3.2.1); the default.
    BlockedRR,
    /// Centralized FCFS: one FIFO, any idle HPU.
    CFcfs,
    /// Distributed FCFS: per-HPU FIFOs steered by the enqueue hint.
    DFcfs,
}

impl QueueDiscipline {
    /// All disciplines, in report order.
    pub const ALL: [QueueDiscipline; 3] = [
        QueueDiscipline::BlockedRR,
        QueueDiscipline::CFcfs,
        QueueDiscipline::DFcfs,
    ];

    /// Stable label used in CLI flags and report artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            QueueDiscipline::BlockedRR => "blocked-rr",
            QueueDiscipline::CFcfs => "cfcfs",
            QueueDiscipline::DFcfs => "dfcfs",
        }
    }

    /// Parse a CLI label (`blocked-rr` / `cfcfs` / `dfcfs`).
    pub fn parse(s: &str) -> Option<QueueDiscipline> {
        Self::ALL.into_iter().find(|d| d.label() == s)
    }
}

/// One dispatch decision: which key's packet runs, and on which HPU
/// slot. `hpu` is a real HPU index under [`QueueDiscipline::DFcfs`];
/// the other disciplines treat HPUs as anonymous and return 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch<K> {
    /// The queue key the work item was enqueued under.
    pub key: K,
    /// The opaque work item (a packet index in the pipelines).
    pub pkt: usize,
    /// The physical HPU serving it (meaningful for dFCFS only).
    pub hpu: usize,
}

enum Inner<K> {
    /// The original blocked-RR state machine, verbatim: per-key FIFOs,
    /// a busy set, and a lazily-deduplicated runnable deque.
    BlockedRR {
        free_hpus: usize,
        queues: HashMap<K, VecDeque<usize>>,
        busy: HashSet<K>,
        runnable: VecDeque<K>,
    },
    CFcfs {
        free_hpus: usize,
        fifo: VecDeque<(K, usize)>,
    },
    DFcfs {
        queues: Vec<VecDeque<(K, usize)>>,
        hpu_busy: Vec<bool>,
    },
}

/// A discipline-parameterized HPU scheduler. Deterministic: dispatch
/// order is a pure function of the enqueue/done call sequence.
pub struct Scheduler<K> {
    inner: Inner<K>,
}

impl<K: Copy + Eq + std::hash::Hash> Scheduler<K> {
    /// A scheduler over `hpus` physical HPUs.
    pub fn new(discipline: QueueDiscipline, hpus: usize) -> Self {
        let inner = match discipline {
            QueueDiscipline::BlockedRR => Inner::BlockedRR {
                free_hpus: hpus,
                queues: HashMap::new(),
                busy: HashSet::new(),
                runnable: VecDeque::new(),
            },
            QueueDiscipline::CFcfs => Inner::CFcfs {
                free_hpus: hpus,
                fifo: VecDeque::new(),
            },
            QueueDiscipline::DFcfs => Inner::DFcfs {
                queues: vec![VecDeque::new(); hpus.max(1)],
                hpu_busy: vec![false; hpus.max(1)],
            },
        };
        Scheduler { inner }
    }

    /// Enqueue one ready work item. `hpu_hint` steers dFCFS (taken
    /// modulo the HPU count); the other disciplines ignore it.
    pub fn enqueue(&mut self, key: K, pkt: usize, hpu_hint: usize) {
        match &mut self.inner {
            Inner::BlockedRR {
                queues, runnable, ..
            } => {
                queues.entry(key).or_default().push_back(pkt);
                runnable.push_back(key);
            }
            Inner::CFcfs { fifo, .. } => fifo.push_back((key, pkt)),
            Inner::DFcfs { queues, .. } => {
                let n = queues.len();
                queues[hpu_hint % n].push_back((key, pkt));
            }
        }
    }

    /// Pick the next work item to dispatch, if any HPU that may serve
    /// one is free.
    pub fn next_dispatch(&mut self) -> Option<Dispatch<K>> {
        match &mut self.inner {
            Inner::BlockedRR {
                free_hpus,
                queues,
                busy,
                runnable,
            } => {
                if *free_hpus == 0 {
                    return None;
                }
                let mut rotated = 0;
                while let Some(key) = runnable.pop_front() {
                    let has_work = queues.get(&key).map(|q| !q.is_empty()).unwrap_or(false);
                    if !has_work {
                        continue; // stale entry
                    }
                    if busy.contains(&key) {
                        // Key already running a handler: rotate to the back.
                        runnable.push_back(key);
                        rotated += 1;
                        if rotated > runnable.len() {
                            return None; // all pending keys are busy
                        }
                        continue;
                    }
                    let pkt = queues
                        .get_mut(&key)
                        .expect("queue exists")
                        .pop_front()
                        .expect("work");
                    busy.insert(key);
                    *free_hpus -= 1;
                    return Some(Dispatch { key, pkt, hpu: 0 });
                }
                None
            }
            Inner::CFcfs { free_hpus, fifo } => {
                if *free_hpus == 0 {
                    return None;
                }
                let (key, pkt) = fifo.pop_front()?;
                *free_hpus -= 1;
                Some(Dispatch { key, pkt, hpu: 0 })
            }
            Inner::DFcfs { queues, hpu_busy } => {
                for hpu in 0..queues.len() {
                    if hpu_busy[hpu] {
                        continue;
                    }
                    if let Some((key, pkt)) = queues[hpu].pop_front() {
                        hpu_busy[hpu] = true;
                        return Some(Dispatch { key, pkt, hpu });
                    }
                }
                None
            }
        }
    }

    /// Return the resources a finished dispatch held. Pass back the
    /// `key` and `hpu` of the [`Dispatch`] that started the handler.
    pub fn done(&mut self, key: K, hpu: usize) {
        match &mut self.inner {
            Inner::BlockedRR {
                free_hpus,
                queues,
                busy,
                runnable,
            } => {
                *free_hpus += 1;
                busy.remove(&key);
                // A drained key leaves the map: `next_dispatch` reads a
                // missing queue as empty, so the map holds only keys with
                // work, not every key a run ever saw.
                if queues.get(&key).is_some_and(|q| !q.is_empty()) {
                    runnable.push_back(key);
                } else {
                    queues.remove(&key);
                }
            }
            Inner::CFcfs { free_hpus, .. } => *free_hpus += 1,
            Inner::DFcfs { hpu_busy, .. } => hpu_busy[hpu] = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<K: Copy + Eq + std::hash::Hash>(s: &mut Scheduler<K>) -> Vec<Dispatch<K>> {
        let mut out = Vec::new();
        while let Some(d) = s.next_dispatch() {
            out.push(d);
        }
        out
    }

    #[test]
    fn labels_round_trip() {
        for d in QueueDiscipline::ALL {
            assert_eq!(QueueDiscipline::parse(d.label()), Some(d));
        }
        assert_eq!(QueueDiscipline::parse("fifo"), None);
    }

    #[test]
    fn blocked_rr_serializes_within_a_key_and_rotates_across() {
        let mut s: Scheduler<u64> = Scheduler::new(QueueDiscipline::BlockedRR, 2);
        s.enqueue(0, 10, 0);
        s.enqueue(0, 11, 0);
        s.enqueue(1, 20, 0);
        // Key 0 gets one HPU, key 1 the other; key 0's second packet
        // must wait for the first to finish even though an HPU is free.
        let first = drain(&mut s);
        assert_eq!(
            first.iter().map(|d| (d.key, d.pkt)).collect::<Vec<_>>(),
            vec![(0, 10), (1, 20)]
        );
        s.done(1, 0);
        assert!(s.next_dispatch().is_none(), "key 0 still busy");
        s.done(0, 0);
        let d = s.next_dispatch().expect("key 0 freed");
        assert_eq!((d.key, d.pkt), (0, 11));
    }

    #[test]
    fn blocked_rr_keeps_no_queue_once_every_item_is_done() {
        // Many keys over few HPUs, several items per key, finished as
        // they dispatch: once the last item is done, no key keeps a
        // queue, as a traffic cell that keys by (message, vHPU) needs.
        let mut s: Scheduler<u64> = Scheduler::new(QueueDiscipline::BlockedRR, 2);
        let mut enqueued = 0;
        for key in 0..50u64 {
            for pkt in 0..3 {
                s.enqueue(key, pkt, 0);
                enqueued += 1;
            }
        }
        let mut served = 0;
        while let Some(d) = s.next_dispatch() {
            served += 1;
            s.done(d.key, d.hpu);
            if served % 7 == 0 {
                // Work arriving mid-run re-creates a drained key's queue.
                s.enqueue(d.key, 9, 0);
                enqueued += 1;
            }
        }
        assert_eq!(served, enqueued);
        match &s.inner {
            Inner::BlockedRR { queues, busy, .. } => {
                assert!(queues.is_empty(), "{} drained queues kept", queues.len());
                assert!(busy.is_empty());
            }
            _ => unreachable!("a blocked-RR scheduler"),
        }
    }

    #[test]
    fn cfcfs_dispatches_in_strict_arrival_order_to_any_hpu() {
        let mut s: Scheduler<u64> = Scheduler::new(QueueDiscipline::CFcfs, 2);
        s.enqueue(0, 10, 0);
        s.enqueue(0, 11, 0);
        s.enqueue(1, 20, 0);
        // Two HPUs: both of key 0's packets run concurrently (no per-key
        // blocking), key 1 waits only for a free HPU.
        let first = drain(&mut s);
        assert_eq!(
            first.iter().map(|d| (d.key, d.pkt)).collect::<Vec<_>>(),
            vec![(0, 10), (0, 11)]
        );
        s.done(0, 0);
        assert_eq!(s.next_dispatch().map(|d| d.pkt), Some(20));
    }

    #[test]
    fn dfcfs_steers_by_hint_and_blocks_per_hpu() {
        let mut s: Scheduler<u64> = Scheduler::new(QueueDiscipline::DFcfs, 2);
        s.enqueue(0, 10, 0);
        s.enqueue(1, 20, 0); // hashes onto the same HPU: queued behind 10
        s.enqueue(2, 30, 1);
        let first = drain(&mut s);
        assert_eq!(
            first.iter().map(|d| (d.pkt, d.hpu)).collect::<Vec<_>>(),
            vec![(10, 0), (30, 1)]
        );
        // HPU 1 finishing does not free HPU 0's queue.
        s.done(2, 1);
        assert!(s.next_dispatch().is_none());
        s.done(0, 0);
        assert_eq!(s.next_dispatch().map(|d| d.pkt), Some(20));
    }

    #[test]
    fn dfcfs_hint_wraps_modulo_hpus() {
        let mut s: Scheduler<u64> = Scheduler::new(QueueDiscipline::DFcfs, 4);
        s.enqueue(0, 1, 7); // 7 % 4 = 3
        let d = s.next_dispatch().expect("work");
        assert_eq!(d.hpu, 3);
    }
}
