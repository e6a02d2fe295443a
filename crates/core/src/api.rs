//! MPI-integration layer (paper Sec. 3.2.6).
//!
//! Models how an MPI implementation drives the offload:
//!
//! 1. **Commit** — [`OffloadManager::commit`] classifies the datatype and
//!    picks a processing strategy (specialized vs general), honouring the
//!    user's [`TypeAttr`] (the `MPI_Type_set_attr` hook: offload on/off,
//!    eviction priority, ε).
//! 2. **Post receive** — [`OffloadManager::post_receive`] allocates NIC
//!    memory for the DDT state; on exhaustion it evicts least-recently-
//!    used lower-priority datatypes, falling back to host-based unpack if
//!    the state still does not fit.
//! 3. **Complete** — the completion event releases the posting (the DDT
//!    state stays resident for reuse until evicted).

use std::collections::HashMap;

use nca_ddt::normalize::classify;
use nca_ddt::types::Datatype;
use nca_spin::nicmem::{AllocId, NicMemory};
use nca_spin::params::NicParams;
use nca_telemetry::Telemetry;

use crate::runner::Strategy;
use crate::strategies::SpecializedProcessor;
use nca_spin::handler::MessageProcessor;

/// Per-type attributes (the `MPI_Type_set_attr` knobs the paper lists).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeAttr {
    /// Whether this type may be offloaded at all.
    pub offload: bool,
    /// Eviction priority (higher = keep longer).
    pub priority: u8,
    /// Scheduling-overhead bound ε for Δr selection.
    pub epsilon: f64,
}

impl Default for TypeAttr {
    fn default() -> Self {
        TypeAttr {
            offload: true,
            priority: 0,
            epsilon: 0.2,
        }
    }
}

/// A committed datatype handle.
#[derive(Debug, Clone)]
pub struct CommittedDdt {
    /// Handle id.
    pub id: u64,
    /// The type.
    pub dt: Datatype,
    /// Strategy chosen at commit time.
    pub strategy: Strategy,
    /// Attributes.
    pub attr: TypeAttr,
}

/// How a posted receive will be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOutcome {
    /// DDT state resident on the NIC; handlers will process packets.
    Offloaded(Strategy),
    /// NIC memory exhausted (or offload disabled): host-based unpack.
    FallbackHost,
}

struct Resident {
    alloc: AllocId,
    bytes: u64,
    priority: u8,
    /// LRU stamp.
    last_used: u64,
}

/// The per-NIC offload state an MPI library would keep.
pub struct OffloadManager {
    params: NicParams,
    nicmem: NicMemory,
    resident: HashMap<u64, Resident>,
    next_id: u64,
    clock: u64,
    /// Receives served from NIC-resident state without re-copying
    /// (checkpoint reuse — Fig. 18's amortization).
    pub reuse_hits: u64,
    /// Fallbacks to host unpack due to NIC memory pressure.
    pub fallbacks: u64,
    /// Trace sink; events are stamped with the manager's logical clock
    /// (one tick per posted receive), not simulated time.
    tel: Telemetry,
}

impl OffloadManager {
    /// Create a manager over the NIC's DDT memory budget.
    pub fn new(params: NicParams) -> Self {
        let cap = params.nic_mem_capacity;
        OffloadManager {
            params,
            nicmem: NicMemory::new(cap),
            resident: HashMap::new(),
            next_id: 0,
            clock: 0,
            reuse_hits: 0,
            fallbacks: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a trace sink (reuse hits, evictions, fallbacks, and the
    /// NIC-memory level, keyed by the logical post clock).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Commit a datatype: classify and choose the strategy.
    ///
    /// Specialized handlers are chosen when the shape admits O(1) NIC
    /// state (vector forms) or when the offset-list state is below 1/4 of
    /// NIC memory; otherwise the general RW-CP strategy is used.
    pub fn commit(&mut self, dt: &Datatype, attr: TypeAttr) -> CommittedDdt {
        let id = self.next_id;
        self.next_id += 1;
        let shape = classify(dt);
        let strategy = if shape.constant_state() {
            Strategy::Specialized
        } else if shape.has_specialized_handler() {
            // list-based specialized handler: admit if the list is small
            let probe = SpecializedProcessor::new(dt, 1, self.params.clone());
            if probe.nic_mem_bytes() <= self.params.nic_mem_capacity / 4 {
                Strategy::Specialized
            } else {
                Strategy::RwCp
            }
        } else {
            Strategy::RwCp
        };
        CommittedDdt {
            id,
            dt: dt.clone(),
            strategy,
            attr,
        }
    }

    /// Post a receive of `count` copies of the committed type: ensure its
    /// DDT state is NIC-resident, evicting if necessary.
    pub fn post_receive(&mut self, ddt: &CommittedDdt, count: u32) -> PostOutcome {
        self.clock += 1;
        if !ddt.attr.offload {
            self.fallbacks += 1;
            self.tel.counter("core", "fallbacks", 0, self.clock, 1);
            return PostOutcome::FallbackHost;
        }
        if let Some(r) = self.resident.get_mut(&ddt.id) {
            r.last_used = self.clock;
            self.reuse_hits += 1;
            self.tel.counter("core", "reuse_hits", 0, self.clock, 1);
            return PostOutcome::Offloaded(ddt.strategy);
        }
        let bytes = ddt
            .strategy
            .commit(&ddt.dt, count, self.params.clone(), ddt.attr.epsilon)
            .nic_mem_bytes();
        loop {
            if let Some(alloc) = self.nicmem.alloc(bytes) {
                self.resident.insert(
                    ddt.id,
                    Resident {
                        alloc,
                        bytes,
                        priority: ddt.attr.priority,
                        last_used: self.clock,
                    },
                );
                self.tel.gauge(
                    "core",
                    "nic_mem_used",
                    0,
                    self.clock,
                    self.nic_mem_used() as f64,
                );
                return PostOutcome::Offloaded(ddt.strategy);
            }
            // Victim selection: lowest priority, then least recently
            // used. Entries with strictly higher priority than the
            // requesting type are protected.
            let victim = self
                .resident
                .iter()
                .filter(|(_, r)| r.priority <= ddt.attr.priority)
                .min_by_key(|(_, r)| (r.priority, r.last_used))
                .map(|(&id, _)| id);
            match victim {
                Some(vid) => {
                    let r = self.resident.remove(&vid).expect("victim resident");
                    self.nicmem.free(r.alloc);
                    self.tel.counter("core", "evictions", 0, self.clock, 1);
                    self.tel.instant("core", "eviction", 0, self.clock);
                }
                None => {
                    self.fallbacks += 1;
                    self.tel.counter("core", "fallbacks", 0, self.clock, 1);
                    return PostOutcome::FallbackHost;
                }
            }
        }
    }

    /// Whether a committed type currently has NIC-resident state.
    pub fn is_resident(&self, ddt: &CommittedDdt) -> bool {
        self.resident.contains_key(&ddt.id)
    }

    /// NIC memory currently used by DDT state.
    pub fn nic_mem_used(&self) -> u64 {
        self.resident.values().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_ddt::types::{elem, DatatypeExt};

    fn mgr(capacity: u64) -> OffloadManager {
        let mut p = NicParams::with_hpus(16);
        p.nic_mem_capacity = capacity;
        OffloadManager::new(p)
    }

    #[test]
    fn vector_commits_to_specialized() {
        let mut m = mgr(1 << 20);
        let dt = Datatype::vector(100, 4, 8, &elem::double());
        let c = m.commit(&dt, TypeAttr::default());
        assert_eq!(c.strategy, Strategy::Specialized);
    }

    #[test]
    fn nested_commits_to_rwcp() {
        let mut m = mgr(1 << 20);
        let inner = Datatype::vector(4, 1, 3, &elem::int());
        let mid = Datatype::vector(8, 2, 30, &inner);
        let dt = Datatype::vector(16, 1, 1000, &mid);
        let c = m.commit(&dt, TypeAttr::default());
        assert_eq!(c.strategy, Strategy::RwCp);
    }

    #[test]
    fn huge_index_list_commits_to_general() {
        let mut m = mgr(64 << 10); // 64 KiB NIC memory
                                   // Irregular displacements (no constant stride, so no vector
                                   // normalization): the offset list is the NIC state.
        let displs: Vec<i64> = (0..10_000).map(|i| i * 5 + (i * i) % 3).collect();
        let dt = Datatype::indexed_block(1, &displs, &elem::double()).unwrap();
        let c = m.commit(&dt, TypeAttr::default());
        // 10_000 * 8 B list > 16 KiB budget quarter ⇒ general
        assert_eq!(c.strategy, Strategy::RwCp);
    }

    #[test]
    fn reuse_hits_count() {
        let mut m = mgr(1 << 20);
        let dt = Datatype::vector(100, 4, 8, &elem::double());
        let c = m.commit(&dt, TypeAttr::default());
        assert_eq!(
            m.post_receive(&c, 1),
            PostOutcome::Offloaded(Strategy::Specialized)
        );
        assert_eq!(
            m.post_receive(&c, 1),
            PostOutcome::Offloaded(Strategy::Specialized)
        );
        assert_eq!(m.reuse_hits, 1);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut m = mgr(200); // tiny: fits only one list-based state
        let irregular =
            |salt: i64| -> Vec<i64> { (0..12).map(|i| i * 7 + (i * i + salt) % 3).collect() };
        // Construct handles directly: this test isolates post_receive's
        // admission/eviction from commit's strategy choice.
        let mk = |m: &mut OffloadManager, salt: i64| {
            let dt = Datatype::indexed_block(1, &irregular(salt), &elem::double()).unwrap();
            let mut c = m.commit(&dt, TypeAttr::default());
            c.strategy = Strategy::Specialized; // 16 + 8·12 = 112 B list
            c
        };
        let a = mk(&mut m, 0);
        let b = mk(&mut m, 1);
        assert!(matches!(m.post_receive(&a, 1), PostOutcome::Offloaded(_)));
        assert!(matches!(m.post_receive(&b, 1), PostOutcome::Offloaded(_)));
        // `a` was evicted to make room for `b`.
        assert!(!m.is_resident(&a));
        assert!(m.is_resident(&b));
    }

    #[test]
    fn priority_protects_from_eviction() {
        let mut m = mgr(200);
        let hot = {
            let dt = Datatype::indexed_block(
                1,
                &[0, 9, 19, 28, 36, 44, 53, 61, 70, 78, 87, 95],
                &elem::double(),
            )
            .unwrap();
            let mut c = m.commit(
                &dt,
                TypeAttr {
                    priority: 9,
                    ..Default::default()
                },
            );
            c.strategy = Strategy::Specialized;
            c
        };
        let cold = {
            let dt = Datatype::indexed_block(
                1,
                &[1, 10, 20, 29, 37, 45, 54, 62, 71, 79, 88, 96],
                &elem::double(),
            )
            .unwrap();
            let mut c = m.commit(&dt, TypeAttr::default());
            c.strategy = Strategy::Specialized;
            c
        };
        assert!(matches!(m.post_receive(&hot, 1), PostOutcome::Offloaded(_)));
        // `cold` (priority 0) may not evict `hot` (priority 9); with no
        // other victims it falls back to host unpack.
        assert_eq!(m.post_receive(&cold, 1), PostOutcome::FallbackHost);
        assert!(m.is_resident(&hot), "high-priority type must survive");
        assert_eq!(m.fallbacks, 1);
    }

    #[test]
    fn offload_disabled_falls_back() {
        let mut m = mgr(1 << 20);
        let dt = Datatype::vector(10, 1, 2, &elem::int());
        let c = m.commit(
            &dt,
            TypeAttr {
                offload: false,
                ..Default::default()
            },
        );
        assert_eq!(m.post_receive(&c, 1), PostOutcome::FallbackHost);
        assert_eq!(m.fallbacks, 1);
    }
}
