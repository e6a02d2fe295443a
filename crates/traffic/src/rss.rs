//! RSS-style flow → HPU steering.
//!
//! Real NICs steer flows with a hash over the flow identity indexing a
//! small indirection table of queue ids. The traffic engine mirrors
//! that: [`flow_hash`] mixes `(tenant, flow)` into a stable 64-bit
//! identity, and [`IndirectionTable`] maps it onto a physical HPU. The
//! table is what dFCFS consumes as its enqueue hint — hash collisions
//! land different flows on the same HPU, and that imbalance is exactly
//! the tail-latency cost the sweeps measure.

/// A fixed flow → HPU indirection table.
#[derive(Debug, Clone)]
pub struct IndirectionTable {
    entries: Vec<u32>,
}

impl IndirectionTable {
    /// A table of `nentries` slots filled round-robin over `hpus`
    /// (the conventional even initial spread; real NICs rebalance by
    /// rewriting entries, which the model does not need).
    pub fn new(nentries: usize, hpus: usize) -> Self {
        let n = nentries.max(1);
        let h = hpus.max(1);
        IndirectionTable {
            entries: (0..n).map(|i| (i % h) as u32).collect(),
        }
    }

    /// Number of table slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no slots (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The HPU a flow hash steers to.
    pub fn hpu_for(&self, flow_hash: u64) -> usize {
        self.entries[(flow_hash % self.entries.len() as u64) as usize] as usize
    }
}

/// Stable 64-bit flow identity for `(tenant, flow)` (splitmix64
/// finalizer — well-spread so the table index behaves like a hash).
pub fn flow_hash(tenant: usize, flow: u64) -> u64 {
    let mut z = (tenant as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(flow);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_fill_spreads_evenly() {
        let t = IndirectionTable::new(128, 16);
        let mut counts = [0u32; 16];
        for i in 0..128u64 {
            counts[t.hpu_for(i * 128)] += 1; // index the slots directly
        }
        // Slot fill is exactly even; hashed flows need not be, but the
        // slots themselves are.
        let slots: Vec<usize> = (0..128).map(|i| t.entries[i] as usize).collect();
        for h in 0..16 {
            assert_eq!(slots.iter().filter(|&&s| s == h).count(), 8);
        }
        assert_eq!(counts.iter().sum::<u32>(), 128);
    }

    #[test]
    fn steering_is_stable_and_in_range() {
        let t = IndirectionTable::new(64, 7);
        for tenant in 0..5 {
            for flow in 0..100 {
                let h = flow_hash(tenant, flow);
                let hpu = t.hpu_for(h);
                assert!(hpu < 7);
                assert_eq!(hpu, t.hpu_for(h), "steering must be stable");
            }
        }
    }

    #[test]
    fn flow_hash_separates_tenants() {
        // Same flow id under different tenants must (overwhelmingly)
        // hash apart.
        let collisions = (0..1000u64)
            .filter(|&f| flow_hash(0, f) == flow_hash(1, f))
            .count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn hpu_counts_past_u32_do_not_wrap() {
        // 2^40 HPUs once truncated to a zero divisor.
        let t = IndirectionTable::new(64, 1 << 40);
        assert_eq!(t.hpu_for(63), 63);
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let t = IndirectionTable::new(0, 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.hpu_for(12345), 0);
    }
}
