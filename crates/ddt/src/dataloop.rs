//! Compiled ("committed") datatype representation: dataloops.
//!
//! Mirrors the MPITypes dataloop design (Ross, Miller, Gropp): the datatype
//! tree is compiled into a compact loop nest in which every contiguous
//! subtree is collapsed into a [`Body::Leaf`]. Leaves are what the NIC
//! handlers ultimately turn into DMA writes, so the number of leaves
//! emitted per packet is exactly the paper's γ (contiguous regions per
//! packet).
//!
//! Only four body kinds are needed (the MPITypes `contig`/`vector` pair
//! collapses into [`Body::Count`]; `blockindexed` keeps a dedicated
//! uniform-size body; `indexed` and `struct` share [`Body::Multi`]):
//!
//! * `Leaf { bytes, offset }` — a single contiguous run.
//! * `Count { count, step, child }` — `count` children at `i * step`.
//! * `BlockIndexed { offsets, child }` — uniform children at given offsets.
//! * `Multi { entries, prefix }` — heterogeneous children (struct, indexed
//!   with variable block lengths), with stream-size prefix sums for
//!   O(log n) random positioning.

use std::collections::HashMap;
use std::sync::Arc;

use crate::types::{Datatype, DatatypeKind};

/// One entry of a [`Body::Multi`] loop.
#[derive(Debug)]
pub struct MultiEntry {
    /// Byte offset of the child relative to the loop origin.
    pub offset: i64,
    /// The child dataloop.
    pub child: Arc<Dataloop>,
}

/// The body of a compiled dataloop node.
#[derive(Debug)]
pub enum Body {
    /// A contiguous run of `bytes` starting `offset` bytes from the node
    /// origin. Terminal.
    Leaf {
        /// Length of the run in bytes.
        bytes: u64,
        /// Start offset of the run relative to the node origin.
        offset: i64,
    },
    /// `count` copies of `child`, copy `i` placed at `i * step`.
    /// Encodes both MPI contiguous (`step == child extent`) and vector
    /// (`step == stride`) loops.
    Count {
        /// Repetitions.
        count: u64,
        /// Byte step between copies (may be negative).
        step: i64,
        /// Child loop.
        child: Arc<Dataloop>,
    },
    /// Uniform-size children at explicit offsets (indexed-block).
    BlockIndexed {
        /// Byte offset of each child.
        offsets: Arc<[i64]>,
        /// Child loop.
        child: Arc<Dataloop>,
    },
    /// Heterogeneous children (struct / variable-length indexed).
    Multi {
        /// Entries in typemap order.
        entries: Arc<[MultiEntry]>,
        /// `prefix[i]` = packed bytes before entry `i`; length =
        /// `entries.len() + 1`, last element = total size.
        prefix: Arc<[u64]>,
    },
}

/// A compiled dataloop node with cached totals.
#[derive(Debug)]
pub struct Dataloop {
    /// Node body.
    pub body: Body,
    /// Total packed bytes described by this node.
    pub size: u64,
    /// Number of leaf (contiguous-region) emissions.
    pub blocks: u64,
    /// Nesting depth (leaf = 1).
    pub depth: u32,
}

impl Dataloop {
    /// Number of child slots of this node (leaves have none).
    pub fn nblocks(&self) -> u64 {
        match &self.body {
            Body::Leaf { .. } => 0,
            Body::Count { count, .. } => *count,
            Body::BlockIndexed { offsets, .. } => offsets.len() as u64,
            Body::Multi { entries, .. } => entries.len() as u64,
        }
    }

    /// Byte offset of child `i` relative to this node's origin.
    pub fn block_offset(&self, i: u64) -> i64 {
        match &self.body {
            Body::Leaf { .. } => unreachable!("leaf has no blocks"),
            Body::Count { step, .. } => i as i64 * step,
            Body::BlockIndexed { offsets, .. } => offsets[i as usize],
            Body::Multi { entries, .. } => entries[i as usize].offset,
        }
    }

    /// The child dataloop at slot `i`.
    pub fn block_child(&self, i: u64) -> &Arc<Dataloop> {
        match &self.body {
            Body::Leaf { .. } => unreachable!("leaf has no blocks"),
            Body::Count { child, .. } | Body::BlockIndexed { child, .. } => child,
            Body::Multi { entries, .. } => &entries[i as usize].child,
        }
    }

    /// Packed bytes preceding child `i` within this node.
    pub fn block_prefix(&self, i: u64) -> u64 {
        match &self.body {
            Body::Leaf { .. } => 0,
            Body::Count { child, .. } | Body::BlockIndexed { child, .. } => i * child.size,
            Body::Multi { prefix, .. } => prefix[i as usize],
        }
    }

    /// Locate the child containing packed offset `within` (`< self.size`):
    /// returns `(child index, offset within child)`.
    pub fn find_block(&self, within: u64) -> (u64, u64) {
        debug_assert!(within < self.size);
        match &self.body {
            Body::Leaf { .. } => unreachable!("leaf has no blocks"),
            Body::Count { child, .. } | Body::BlockIndexed { child, .. } => {
                (within / child.size, within % child.size)
            }
            Body::Multi { prefix, .. } => {
                // partition_point gives the first prefix > within; entry is that - 1.
                let idx = prefix.partition_point(|&p| p <= within) - 1;
                (idx as u64, within - prefix[idx])
            }
        }
    }

    /// Bytes this dataloop description occupies when copied to NIC
    /// memory — the exact length of the serialized descriptor
    /// ([`crate::descr::encode`]); offset lists dominate, matching the
    /// paper's "data moved to the NIC" annotations for the general
    /// strategies.
    pub fn nic_descr_bytes(&self) -> u64 {
        crate::descr::encoded_len(self)
    }

    fn leaf(bytes: u64, offset: i64) -> Arc<Dataloop> {
        Arc::new(Dataloop {
            body: Body::Leaf { bytes, offset },
            size: bytes,
            blocks: u64::from(bytes > 0),
            depth: 1,
        })
    }

    fn count(count: u64, step: i64, child: Arc<Dataloop>) -> Arc<Dataloop> {
        let size = count * child.size;
        let blocks = count * child.blocks;
        let depth = child.depth + 1;
        Arc::new(Dataloop {
            body: Body::Count { count, step, child },
            size,
            blocks,
            depth,
        })
    }
}

/// Entries the process-wide compile cache holds before it is wiped and
/// repopulated (a sweep touches a handful of distinct types; the cap
/// only guards against pathological type-churn workloads).
const COMPILE_CACHE_CAP: usize = 256;

/// Cache key: a structural fingerprint of the full constructor tree
/// plus the cheap exact discriminants. A false hit would need two
/// different types with identical size, extent, leaf-block count *and*
/// a 64-bit FNV collision over their full constructor trees (every
/// count, stride, bound and displacement list is hashed).
#[derive(PartialEq, Eq, Hash)]
struct CompileKey {
    fingerprint: u64,
    size: u64,
    extent: i64,
    leaf_blocks: u64,
    count: u32,
}

static COMPILE_CACHE: std::sync::OnceLock<std::sync::Mutex<HashMap<CompileKey, Arc<Dataloop>>>> =
    std::sync::OnceLock::new();

/// FNV-1a over the full structural description of a type tree: the
/// constructor kind and all of its parameters at every node, recursing
/// into children/fields. Two types with equal fingerprints (and equal
/// cached discriminants, see [`CompileKey`]) compile to identical
/// dataloops. [`compile_cached`] memoizes it on the root node.
fn fingerprint(dt: &Datatype) -> u64 {
    fn mix(h: &mut u64, v: u64) {
        // FNV-1a, folded a byte at a time.
        for b in v.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn node(h: &mut u64, dt: &Datatype) {
        mix(h, dt.lb as u64);
        mix(h, dt.ub as u64);
        mix(h, dt.true_lb as u64);
        mix(h, dt.true_ub as u64);
        mix(h, dt.size);
        match &dt.kind {
            DatatypeKind::Elementary(e) => {
                mix(h, 1);
                for b in e.name().bytes() {
                    mix(h, b as u64);
                }
            }
            DatatypeKind::Contiguous { count } => {
                mix(h, 2);
                mix(h, *count as u64);
            }
            DatatypeKind::Vector {
                count,
                blocklen,
                stride_bytes,
            } => {
                mix(h, 3);
                mix(h, *count as u64);
                mix(h, *blocklen as u64);
                mix(h, *stride_bytes as u64);
            }
            DatatypeKind::IndexedBlock {
                blocklen,
                displs_bytes,
            } => {
                mix(h, 4);
                mix(h, *blocklen as u64);
                mix(h, displs_bytes.len() as u64);
                for &d in displs_bytes.iter() {
                    mix(h, d as u64);
                }
            }
            DatatypeKind::Indexed { blocks } => {
                mix(h, 5);
                mix(h, blocks.len() as u64);
                for &(len, off) in blocks.iter() {
                    mix(h, len as u64);
                    mix(h, off as u64);
                }
            }
            DatatypeKind::Struct { fields } => {
                mix(h, 6);
                mix(h, fields.len() as u64);
                for f in fields.iter() {
                    mix(h, f.count as u64);
                    mix(h, f.displ as u64);
                    node(h, &f.ty);
                }
            }
            DatatypeKind::Resized { .. } => {
                mix(h, 7);
            }
        }
        if let Some(c) = &dt.child {
            mix(h, 8);
            node(h, c);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    node(&mut h, dt);
    h
}

/// Like [`compile`], but through a process-wide, thread-safe cache
/// keyed by the type's structural signature, so identical workloads
/// across concurrent sweep jobs (every seed × scale cell of a fault
/// sweep re-receives the same datatype) pay the compile — offset-list
/// materialization included — exactly once. The signature's
/// fingerprint is memoized on the type node, so repeated lookups of one
/// handle hash nothing. The returned `Arc` is shared between all hits;
/// dataloops are immutable, so sharing is invisible to callers.
pub fn compile_cached(dt: &Datatype, count: u32) -> Arc<Dataloop> {
    let key = CompileKey {
        fingerprint: *dt.fingerprint.get_or_init(|| fingerprint(dt)),
        size: dt.size,
        extent: dt.extent(),
        leaf_blocks: dt.leaf_blocks,
        count,
    };
    let cache = COMPILE_CACHE.get_or_init(|| std::sync::Mutex::new(HashMap::new()));
    if let Some(dl) = cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
        .cloned()
    {
        return dl;
    }
    // Compile outside the lock: concurrent first-misses of *different*
    // types shouldn't serialize on each other.
    let dl = compile(dt, count);
    let mut g = cache.lock().unwrap_or_else(|e| e.into_inner());
    if g.len() >= COMPILE_CACHE_CAP {
        g.clear();
    }
    g.entry(key).or_insert_with(|| dl.clone());
    dl
}

/// Compile `count` copies of a datatype into a dataloop tree, collapsing
/// all contiguous subtrees into leaves. This is the "commit" step an MPI
/// implementation would perform in `MPI_Type_commit`.
pub fn compile(dt: &Datatype, count: u32) -> Arc<Dataloop> {
    let inner = compile_node(dt);
    if count == 1 {
        inner
    } else if inner.size == 0 || count == 0 {
        Dataloop::leaf(0, 0)
    } else {
        // Repetition steps by the datatype extent; collapse if the result
        // is still a single run.
        if let Body::Leaf { bytes, offset } = inner.body {
            if bytes as i64 == dt.extent() {
                return Dataloop::leaf(bytes * count as u64, offset);
            }
        }
        Dataloop::count(count as u64, dt.extent(), inner)
    }
}

fn compile_node(dt: &Datatype) -> Arc<Dataloop> {
    if dt.size == 0 {
        return Dataloop::leaf(0, 0);
    }
    if let Some(run) = dt.contig_run {
        return Dataloop::leaf(run, dt.true_lb);
    }
    let child_loop = |c: &Datatype| compile_node(c);
    match &dt.kind {
        DatatypeKind::Elementary(_) => unreachable!("elementary is always a run"),
        DatatypeKind::Resized { .. } => compile_node(dt.child.as_ref().expect("resized child")),
        DatatypeKind::Contiguous { count } => {
            let c = dt.child.as_ref().expect("contiguous child");
            Dataloop::count(*count as u64, c.extent(), child_loop(c))
        }
        DatatypeKind::Vector {
            count,
            blocklen,
            stride_bytes,
        } => {
            let c = dt.child.as_ref().expect("vector child");
            let block = compile_block(c, *blocklen);
            Dataloop::count(*count as u64, *stride_bytes, block)
        }
        DatatypeKind::IndexedBlock {
            blocklen,
            displs_bytes,
        } => {
            let c = dt.child.as_ref().expect("indexed_block child");
            let block = compile_block(c, *blocklen);
            let size = displs_bytes.len() as u64 * block.size;
            let blocks = displs_bytes.len() as u64 * block.blocks;
            let depth = block.depth + 1;
            Arc::new(Dataloop {
                body: Body::BlockIndexed {
                    offsets: displs_bytes.clone(),
                    child: block,
                },
                size,
                blocks,
                depth,
            })
        }
        DatatypeKind::Indexed { blocks } => {
            let c = dt.child.as_ref().expect("indexed child");
            let entries: Vec<MultiEntry> = blocks
                .iter()
                .filter(|&&(len, _)| len > 0)
                .map(|&(len, off)| MultiEntry {
                    offset: off,
                    child: compile_block(c, len),
                })
                .collect();
            multi(entries)
        }
        DatatypeKind::Struct { fields } => {
            let entries: Vec<MultiEntry> = fields
                .iter()
                .filter(|f| f.count > 0 && f.ty.size > 0)
                .map(|f| MultiEntry {
                    offset: f.displ,
                    child: compile_block(&f.ty, f.count),
                })
                .collect();
            multi(entries)
        }
    }
}

/// Compile `blocklen` consecutive copies of `c` (a loop "block"),
/// collapsing to a leaf when the copies abut into one run.
fn compile_block(c: &Datatype, blocklen: u32) -> Arc<Dataloop> {
    if blocklen == 0 || c.size == 0 {
        return Dataloop::leaf(0, 0);
    }
    match c.contig_run {
        Some(run) if blocklen == 1 => Dataloop::leaf(run, c.true_lb),
        Some(run) if run as i64 == c.extent() => Dataloop::leaf(run * blocklen as u64, c.true_lb),
        _ if blocklen == 1 => compile_node(c),
        _ => Dataloop::count(blocklen as u64, c.extent(), compile_node(c)),
    }
}

fn multi(entries: Vec<MultiEntry>) -> Arc<Dataloop> {
    let mut prefix = Vec::with_capacity(entries.len() + 1);
    let mut acc = 0u64;
    let mut blocks = 0u64;
    let mut depth = 0u32;
    for e in &entries {
        prefix.push(acc);
        acc += e.child.size;
        blocks += e.child.blocks;
        depth = depth.max(e.child.depth);
    }
    prefix.push(acc);
    Arc::new(Dataloop {
        body: Body::Multi {
            entries: entries.into(),
            prefix: prefix.into(),
        },
        size: acc,
        blocks,
        depth: depth + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{elem, ArrayOrder, DatatypeExt};

    #[test]
    fn contiguous_compiles_to_leaf() {
        let t = Datatype::contiguous(16, &elem::int());
        let dl = compile(&t, 1);
        assert!(matches!(
            dl.body,
            Body::Leaf {
                bytes: 64,
                offset: 0
            }
        ));
        assert_eq!(dl.blocks, 1);
    }

    #[test]
    fn vector_collapses_inner_block() {
        let t = Datatype::vector(8, 4, 16, &elem::int());
        let dl = compile(&t, 1);
        // one Count loop over 8 leaves of 16 bytes each
        match &dl.body {
            Body::Count {
                count: 8,
                step,
                child,
            } => {
                assert_eq!(*step, 64);
                assert!(matches!(child.body, Body::Leaf { bytes: 16, .. }));
            }
            other => panic!("unexpected body {other:?}"),
        }
        assert_eq!(dl.blocks, 8);
        assert_eq!(dl.depth, 2);
    }

    #[test]
    fn indexed_variable_uses_multi() {
        let t = Datatype::indexed(&[2, 5, 1], &[0, 10, 30], &elem::double()).unwrap();
        let dl = compile(&t, 1);
        match &dl.body {
            Body::Multi { entries, prefix } => {
                assert_eq!(entries.len(), 3);
                assert_eq!(prefix.as_ref(), &[0, 16, 56, 64]);
            }
            other => panic!("unexpected body {other:?}"),
        }
        assert_eq!(dl.size, 64);
        assert_eq!(dl.blocks, 3);
    }

    #[test]
    fn find_block_multi_boundaries() {
        let t = Datatype::indexed(&[2, 5, 1], &[0, 10, 30], &elem::double()).unwrap();
        let dl = compile(&t, 1);
        assert_eq!(dl.find_block(0), (0, 0));
        assert_eq!(dl.find_block(15), (0, 15));
        assert_eq!(dl.find_block(16), (1, 0));
        assert_eq!(dl.find_block(55), (1, 39));
        assert_eq!(dl.find_block(56), (2, 0));
        assert_eq!(dl.find_block(63), (2, 7));
    }

    #[test]
    fn count_repetition_with_gaps_keeps_loop() {
        let t = Datatype::vector(2, 1, 4, &elem::int());
        let dl = compile(&t, 3);
        match &dl.body {
            Body::Count { count: 3, step, .. } => assert_eq!(*step, t.extent()),
            other => panic!("unexpected body {other:?}"),
        }
        assert_eq!(dl.size, t.size * 3);
        assert_eq!(dl.blocks, 6);
    }

    #[test]
    fn count_repetition_of_full_run_collapses() {
        let t = Datatype::contiguous(4, &elem::int());
        let dl = compile(&t, 5);
        assert!(matches!(dl.body, Body::Leaf { bytes: 80, .. }));
    }

    #[test]
    fn subarray_block_count_matches_typemap() {
        let t = Datatype::subarray(
            &[6, 8, 4],
            &[2, 3, 4],
            &[1, 2, 0],
            ArrayOrder::C,
            &elem::float(),
        )
        .unwrap();
        let dl = compile(&t, 1);
        // Innermost dim fully taken (4 of 4, 16 B rows) and the middle
        // dim's rows abut (stride == row length), so each outer plane
        // slice is one 48 B run: 2 runs total.
        assert_eq!(dl.blocks, 2);
        assert_eq!(dl.size, t.size);
    }

    #[test]
    fn struct_of_subarrays_compiles() {
        let sa =
            Datatype::subarray(&[8, 8], &[2, 8], &[0, 0], ArrayOrder::C, &elem::double()).unwrap();
        let t = Datatype::struct_(&[1, 1], &[0, 4096], &[sa.clone(), sa]).unwrap();
        let dl = compile(&t, 1);
        assert_eq!(dl.size, t.size);
        assert!(dl.blocks >= 2);
    }

    #[test]
    fn nic_descr_bytes_scales_with_offsets() {
        let small = Datatype::indexed_block(1, &[0, 2, 4, 9], &elem::int()).unwrap();
        let displs: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        let big = Datatype::indexed_block(1, &displs, &elem::int()).unwrap();
        let a = compile(&small, 1).nic_descr_bytes();
        let b = compile(&big, 1).nic_descr_bytes();
        assert!(b > a * 100);
    }

    #[test]
    fn zero_size_type_compiles_to_empty_leaf() {
        let t = Datatype::contiguous(0, &elem::int());
        let dl = compile(&t, 7);
        assert_eq!(dl.size, 0);
        assert_eq!(dl.blocks, 0);
    }

    #[test]
    fn cache_shares_one_dataloop_across_equal_types() {
        // Structurally equal types built from *separate* allocations hit
        // the same cache entry; different parameters miss.
        let a = Datatype::vector(700, 3, 9, &elem::double());
        let b = Datatype::vector(700, 3, 9, &elem::double());
        let dl_a = compile_cached(&a, 2);
        let dl_b = compile_cached(&b, 2);
        assert!(Arc::ptr_eq(&dl_a, &dl_b), "equal types share the compile");
        assert!(
            !Arc::ptr_eq(&compile_cached(&a, 3), &dl_a),
            "count is part of the key"
        );
        let c = Datatype::vector(700, 3, 10, &elem::double());
        assert!(
            !Arc::ptr_eq(&compile_cached(&c, 2), &dl_a),
            "stride is part of the key"
        );
        // And the cached loop is the same structure compile() builds.
        let fresh = compile(&a, 2);
        assert_eq!(dl_a.size, fresh.size);
        assert_eq!(dl_a.blocks, fresh.blocks);
        assert_eq!(dl_a.depth, fresh.depth);
    }

    #[test]
    fn cache_distinguishes_offset_lists() {
        let x = Datatype::indexed_block(2, &[0, 8, 32, 40], &elem::int()).unwrap();
        let y = Datatype::indexed_block(2, &[0, 8, 32, 48], &elem::int()).unwrap();
        // Same size / blocklen / block count — only a displacement
        // differs, so the fingerprint must separate them.
        let dx = compile_cached(&x, 1);
        let dy = compile_cached(&y, 1);
        assert!(!Arc::ptr_eq(&dx, &dy));
        match (&dx.body, &dy.body) {
            (Body::BlockIndexed { offsets: ox, .. }, Body::BlockIndexed { offsets: oy, .. }) => {
                assert_ne!(ox.as_ref(), oy.as_ref());
            }
            other => panic!("unexpected bodies {other:?}"),
        }
    }

    #[test]
    fn the_memoized_fingerprint_is_the_fresh_one_and_keys_one_entry() {
        // Each type is built twice from separate allocations: the first
        // lookup memoizes the fingerprint on its own root, which must
        // equal a fresh hash of the other copy, and both copies must
        // hit one cache entry.
        let indexed =
            || Datatype::indexed(&[3, 1, 4, 1, 5], &[0, 7, 11, 19, 29], &elem::double()).unwrap();
        let struct_of_subarrays = || {
            let d = elem::double();
            let face = |dim: usize| {
                let mut sub = [6u64, 6, 6];
                sub[dim] = 2;
                Datatype::subarray(&[6, 6, 6], &sub, &[0, 0, 0], ArrayOrder::C, &d).unwrap()
            };
            Datatype::struct_(&[1, 1], &[0, 4096], &[face(1), face(2)]).unwrap()
        };
        for build in [&indexed as &dyn Fn() -> Datatype, &struct_of_subarrays] {
            let (a, b) = (build(), build());
            assert!(!Arc::ptr_eq(&a, &b));
            assert_eq!(a.fingerprint.get(), None, "filled lazily, not at build");
            let dl_a = compile_cached(&a, 2);
            assert_eq!(a.fingerprint.get(), Some(&fingerprint(&b)));
            assert_eq!(b.fingerprint.get(), None);
            let dl_b = compile_cached(&b, 2);
            assert_eq!(b.fingerprint.get(), a.fingerprint.get());
            assert!(Arc::ptr_eq(&dl_a, &dl_b), "both copies share one entry");
        }
    }

    #[test]
    fn cache_is_thread_safe_and_converges() {
        let t = Datatype::vector(123, 5, 11, &elem::float());
        let loops: Vec<Arc<Dataloop>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| compile_cached(&t, 4))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // However the first-miss race resolved, every caller ends up
        // with a loop equivalent to a fresh compile.
        let fresh = compile(&t, 4);
        for dl in &loops {
            assert_eq!(dl.size, fresh.size);
            assert_eq!(dl.blocks, fresh.blocks);
        }
        // And subsequent lookups all share one entry.
        let one = compile_cached(&t, 4);
        assert!(Arc::ptr_eq(&one, &compile_cached(&t, 4)));
    }
}
