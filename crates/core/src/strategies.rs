//! The receiver-side DDT offload strategies (paper Sec. 3.2).
//!
//! * [`SpecializedProcessor`] — datatype-specific handlers (vector,
//!   indexed-block, indexed, nested vector) with O(1)-arithmetic or
//!   binary-search block location (Sec. 3.2.3).
//! * [`GeneralProcessor`] — MPITypes-based general handlers in the three
//!   write-conflict-free variants of Sec. 3.2.4: **HPU-local**, **RO-CP**
//!   (read-only checkpoints) and **RW-CP** (progressing checkpoints under
//!   blocked-RR scheduling).
//!
//! Both implement `nca_spin::MessageProcessor`: they *really* scatter the
//! packet bytes (so end-to-end tests can verify the receive buffer) and
//! report modelled costs per the calibrated [`crate::costmodel`].
//!
//! Each processor is a [`Commit`] shared through an `Arc` — what the host
//! prepares once per datatype: dataloop, Δr plan, checkpoint table,
//! shape, NIC bytes, host setup time — plus one message's state:
//! segments, DMA scratch and recovery counters. No receive writes to a
//! commit, so any number of messages may instantiate processors of one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use nca_ddt::checkpoint::CheckpointTable;
use nca_ddt::dataloop::{compile_cached, Dataloop};
use nca_ddt::normalize::{classify, Shape};
use nca_ddt::segment::Segment;
use nca_ddt::types::Datatype;
use nca_sim::Time;
use nca_spin::handler::{
    DmaWrite, HandlerOutput, MessageProcessor, PacketCtx, RecoveryStats, SchedPolicy,
};
use nca_spin::params::NicParams;
use nca_telemetry::Telemetry;

use crate::costmodel::{
    general_handler_cost, specialized_handler_cost, HandlerCycles, HostCostModel,
};
use crate::engine::{scatter_packet, scatter_packet_seek};
use crate::heuristic::{select_checkpoint_interval, CheckpointPlan};

/// Which general-handler variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneralKind {
    /// Per-vHPU segment replicas, Δp = 1, P vHPUs; pays (P−1)·γ catch-up
    /// blocks per packet.
    HpuLocal,
    /// Read-only checkpoints: every handler copies the closest checkpoint
    /// and processes locally.
    RoCp,
    /// Progressing checkpoints: blocked-RR binds each Δr-sequence to the
    /// vHPU owning its checkpoint; no copy, no catch-up in order.
    RwCp,
}

/// Multiplicative hasher for the small-integer vHPU keys of the per-vHPU
/// segment maps. The map is touched once per packet on the handler hot
/// path; SipHash dominates the lookup there, and the keys are dense
/// sequence-derived ids with no adversarial source, so a single `xor` +
/// multiply (the fxhash recipe) is both sufficient and ~10x cheaper.
#[derive(Default)]
pub struct SmallKeyHasher(u64);

impl Hasher for SmallKeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed by small trusted integers (vHPU ids).
pub type SmallKeyMap<V> = HashMap<u64, V, BuildHasherDefault<SmallKeyHasher>>;

/// Bound on the DMA-scratch stack a processor keeps: at most one vector
/// per physical HPU can be in flight, and the pipeline caps HPUs well
/// below this.
const MAX_SCRATCH: usize = 64;

/// Estimate of the per-packet general handler runtime at the message's
/// average γ — the `T_PH(γ)` the Δr heuristic needs.
pub fn estimate_t_ph(p: &NicParams, cyc: &HandlerCycles, dl: &Dataloop) -> Time {
    let npkt = dl.size.div_ceil(p.payload_size).max(1);
    let gamma = (dl.blocks as f64 / npkt as f64).ceil().max(1.0) as u64;
    p.cycles(cyc.init + cyc.setup + gamma * cyc.block_general)
}

/// What a general-handler strategy fixes once per (datatype, count)
/// and shares, read-only, with every message it receives: the dataloop,
/// the Δr plan and checkpoint table (RO-CP/RW-CP), the scheduling
/// policy, the NIC bytes and the host setup time. The host builds it
/// once per datatype, as the paper's checkpoint creation does (Fig. 18).
struct GeneralCommit {
    kind: GeneralKind,
    params: NicParams,
    cyc: HandlerCycles,
    dl: Arc<Dataloop>,
    table: Option<CheckpointTable>,
    plan: Option<CheckpointPlan>,
    policy: SchedPolicy,
    nic_mem: u64,
    host_setup: Time,
}

impl GeneralCommit {
    /// Commit to `count` copies of `dt` with the Δr heuristic's
    /// scheduling-overhead bound `epsilon`.
    fn new(kind: GeneralKind, dt: &Datatype, count: u32, params: NicParams, epsilon: f64) -> Self {
        let dl = compile_cached(dt, count);
        let cyc = HandlerCycles::default();
        let npkt = dl.size.div_ceil(params.payload_size).max(1);
        let (table, plan) = match kind {
            GeneralKind::HpuLocal => (None, None),
            GeneralKind::RoCp | GeneralKind::RwCp => {
                let t_ph = estimate_t_ph(&params, &cyc, &dl);
                let plan = select_checkpoint_interval(&params, dl.size, t_ph, epsilon);
                let table = CheckpointTable::build(&dl, plan.delta_r.max(1))
                    .expect("valid checkpoint interval");
                (Some(table), Some(plan))
            }
        };
        let policy = match (kind, &plan) {
            (GeneralKind::HpuLocal, _) => SchedPolicy::BlockedRR {
                delta_p: 1,
                num_vhpus: params.hpus as u64,
            },
            (GeneralKind::RwCp, Some(plan)) => SchedPolicy::BlockedRR {
                delta_p: plan.delta_p,
                num_vhpus: npkt.div_ceil(plan.delta_p).max(1),
            },
            _ => SchedPolicy::Default,
        };
        // Copy the dataloop descriptor to the NIC; the checkpointed
        // variants also create their checkpoints on the host.
        let descr = dl.nic_descr_bytes();
        let ncp = table.as_ref().map_or(0, |t| t.len() as u64);
        let (nic_mem, host_setup) = match kind {
            GeneralKind::HpuLocal => (
                descr + params.hpus as u64 * nca_ddt::checkpoint::CHECKPOINT_NIC_BYTES,
                params.pcie_bw.time_for(descr) + params.pcie_latency,
            ),
            GeneralKind::RoCp | GeneralKind::RwCp => (
                descr + table.as_ref().map_or(0, |t| t.nic_bytes()),
                params.pcie_bw.time_for(descr)
                    + params.pcie_latency
                    + ncp * HostCostModel::default().checkpoint_create_time(),
            ),
        };
        GeneralCommit {
            kind,
            params,
            cyc,
            dl,
            table,
            plan,
            policy,
            nic_mem,
            host_setup,
        }
    }
}

/// The general (MPITypes-interpreting) processor: its strategy's
/// committed part, shared with every processor of the same [`Commit`],
/// plus one message's state — the per-vHPU segments, the DMA scratch
/// and the recovery counters.
pub struct GeneralProcessor {
    c: Arc<GeneralCommit>,
    /// Per-vHPU working segments (HPU-local replicas / RW-CP owned
    /// checkpoints).
    segs: SmallKeyMap<Segment>,
    /// Recycled DMA-write vectors ([`MessageProcessor::recycle_dma`]).
    scratch: Vec<Vec<DmaWrite>>,
    /// Times an RW-CP checkpoint had to be reverted from its master copy
    /// (out-of-order arrivals).
    reverts: u64,
    /// Catch-up blocks summed over every handler call.
    catchup_blocks: u64,
    tel: Telemetry,
}

impl GeneralProcessor {
    /// Commit to `count` copies of `dt` and instantiate one processor.
    /// `epsilon` is the scheduling-overhead bound of the Δr heuristic
    /// (the paper uses 0.2).
    pub fn new(
        kind: GeneralKind,
        dt: &Datatype,
        count: u32,
        params: NicParams,
        epsilon: f64,
    ) -> Self {
        Self::instantiate(Arc::new(GeneralCommit::new(
            kind, dt, count, params, epsilon,
        )))
    }

    /// A processor for one message of `commit`.
    fn instantiate(commit: Arc<GeneralCommit>) -> Self {
        GeneralProcessor {
            c: commit,
            segs: SmallKeyMap::default(),
            scratch: Vec::new(),
            reverts: 0,
            catchup_blocks: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a trace sink. Records the checkpoint-table construction
    /// (a host-side "time 0" activity) immediately, then handler-phase
    /// timings, catch-up blocks and RW-CP reverts as packets arrive.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        if let Some(table) = &self.c.table {
            tel.counter("core", "checkpoints_created", 0, 0, table.len() as u64);
            for i in 0..table.len() as u64 {
                tel.instant("core", "checkpoint_create", i, 0);
            }
        }
        self.tel = tel;
        self
    }

    /// The Δr plan (RO-CP/RW-CP only).
    pub fn plan(&self) -> Option<&CheckpointPlan> {
        self.c.plan.as_ref()
    }
}

/// Emit a handler's phase timings (`t_init`, `t_setup`, `t_processing`).
fn record_phases(tel: &Telemetry, ctx: &PacketCtx<'_>, out: &HandlerOutput) {
    if tel.is_enabled() {
        let c = &out.cost;
        tel.value("core", "t_init", ctx.vhpu, ctx.now, c.init as f64);
        tel.value("core", "t_setup", ctx.vhpu, ctx.now, c.setup as f64);
        tel.value(
            "core",
            "t_processing",
            ctx.vhpu,
            ctx.now,
            c.processing as f64,
        );
    }
}

/// Keep an emptied DMA-write vector for the next handler invocation.
fn recycle(pool: &mut Vec<Vec<DmaWrite>>, mut scratch: Vec<DmaWrite>) {
    scratch.clear();
    if pool.len() < MAX_SCRATCH {
        pool.push(scratch);
    }
}

impl MessageProcessor for GeneralProcessor {
    fn policy(&self) -> SchedPolicy {
        self.c.policy
    }

    fn nic_mem_bytes(&self) -> u64 {
        self.c.nic_mem
    }

    fn host_setup_time(&self) -> Time {
        self.c.host_setup
    }

    fn on_payload(&mut self, ctx: &mut PacketCtx<'_>) -> HandlerOutput {
        let first = ctx.stream_offset;
        let scratch = self.scratch.pop().unwrap_or_default();
        let direct = &mut ctx.direct;
        let c = &*self.c;
        // `ckpt_copy`: the handler paid for materializing a checkpoint.
        let (dma, stats, ckpt_copy) = match c.kind {
            GeneralKind::HpuLocal => {
                let seg = self
                    .segs
                    .entry(ctx.vhpu)
                    .or_insert_with(|| Segment::new(Arc::clone(&c.dl)));
                let (dma, stats) = scatter_packet(seg, first, ctx.payload, scratch, direct);
                (dma, stats, false)
            }
            GeneralKind::RoCp => {
                // Copy the closest checkpoint, process locally, discard.
                let table = c.table.as_ref().expect("RO-CP table");
                let mut seg = table.closest(first).materialize();
                let (dma, stats) = scatter_packet(&mut seg, first, ctx.payload, scratch, direct);
                (dma, stats, true)
            }
            GeneralKind::RwCp => {
                let table = c.table.as_ref().expect("RW-CP table");
                let mut reverted = false;
                let seg = match self.segs.entry(ctx.vhpu) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let seg = e.into_mut();
                        if first < seg.position() {
                            // Out-of-order within the sequence: revert the
                            // progressed checkpoint from its master copy.
                            *seg = table.closest(first).materialize();
                            reverted = true;
                        }
                        seg
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        // First packet of the sequence: the vHPU takes
                        // ownership of its checkpoint (no copy needed).
                        v.insert(table.closest(first).materialize())
                    }
                };
                let (dma, stats) = scatter_packet(seg, first, ctx.payload, scratch, direct);
                if reverted {
                    self.reverts += 1;
                    self.tel
                        .counter("core", "checkpoint_reverts", ctx.vhpu, ctx.now, 1);
                    self.tel
                        .instant("core", "checkpoint_revert", ctx.vhpu, ctx.now);
                }
                (dma, stats, reverted)
            }
        };
        self.catchup_blocks += stats.catchup_blocks;
        self.tel.counter(
            "core",
            "catchup_blocks",
            ctx.vhpu,
            ctx.now,
            stats.catchup_blocks,
        );
        let out = HandlerOutput {
            cost: general_handler_cost(&c.params, &c.cyc, &stats, ckpt_copy),
            dma,
        };
        record_phases(&self.tel, ctx, &out);
        out
    }

    fn recycle_dma(&mut self, scratch: Vec<DmaWrite>) {
        recycle(&mut self.scratch, scratch);
    }

    fn recovery(&self) -> RecoveryStats {
        RecoveryStats {
            checkpoint_reverts: self.reverts,
            catchup_blocks: self.catchup_blocks,
        }
    }

    fn name(&self) -> &'static str {
        match self.c.kind {
            GeneralKind::HpuLocal => "HPU-local",
            GeneralKind::RoCp => "RO-CP",
            GeneralKind::RwCp => "RW-CP",
        }
    }
}

/// What a specialized strategy fixes once per (datatype, count): the
/// dataloop, the classified shape, its NIC bytes and the block-search
/// depth its handlers pay.
struct SpecializedCommit {
    params: NicParams,
    cyc: HandlerCycles,
    dl: Arc<Dataloop>,
    shape: Shape,
    nic_mem: u64,
    search_depth: u32,
}

impl SpecializedCommit {
    /// Commit to `count` copies of `dt`.
    fn new(dt: &Datatype, count: u32, params: NicParams) -> Self {
        let dl = compile_cached(dt, count);
        let shape = classify(dt);
        let nic_mem = shape_nic_bytes(&shape, &dl);
        let search_depth = match &shape {
            Shape::Contiguous { .. } | Shape::Vector { .. } | Shape::Vector2 { .. } => 0,
            Shape::IndexedBlock { count, .. } => (*count as f64).log2().ceil() as u32,
            Shape::Indexed { count } => (*count as f64).log2().ceil() as u32,
            Shape::General => (dl.blocks.max(2) as f64).log2().ceil() as u32,
        };
        SpecializedCommit {
            params,
            cyc: HandlerCycles::default(),
            dl,
            shape,
            nic_mem,
            search_depth,
        }
    }
}

/// NIC state the specialized handler needs: O(1) for (nested) vectors,
/// offset/length lists otherwise ("the specialized handler always
/// requires the minimum amount of space").
fn shape_nic_bytes(shape: &Shape, dl: &Dataloop) -> u64 {
    match shape {
        Shape::Contiguous { .. } => 16,
        Shape::Vector { .. } => 32,
        Shape::Vector2 { .. } => 56,
        Shape::IndexedBlock { count, .. } => 16 + 8 * count,
        Shape::Indexed { count } => 16 + 16 * count,
        // No true specialized handler: a custom handler would carry
        // the full flattened region list.
        Shape::General => 16 + 16 * dl.blocks,
    }
}

/// The specialized (datatype-specific) processor: its committed part,
/// shared with every processor of the same [`Commit`], plus one
/// message's segment and DMA scratch.
pub struct SpecializedProcessor {
    c: Arc<SpecializedCommit>,
    seg: Segment,
    /// Recycled DMA-write vectors ([`MessageProcessor::recycle_dma`]).
    scratch: Vec<Vec<DmaWrite>>,
    tel: Telemetry,
}

impl SpecializedProcessor {
    /// Commit to `count` copies of `dt` and instantiate one processor.
    /// Works for any type (the offset/length lists degenerate to a full
    /// flatten for `Shape::General`, like a user-written custom handler
    /// would).
    pub fn new(dt: &Datatype, count: u32, params: NicParams) -> Self {
        Self::instantiate(Arc::new(SpecializedCommit::new(dt, count, params)))
    }

    /// A processor for one message of `commit`.
    fn instantiate(commit: Arc<SpecializedCommit>) -> Self {
        SpecializedProcessor {
            seg: Segment::new(Arc::clone(&commit.dl)),
            c: commit,
            scratch: Vec::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a trace sink (handler-phase timings per packet).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// The classified shape.
    pub fn shape(&self) -> &Shape {
        &self.c.shape
    }
}

impl MessageProcessor for SpecializedProcessor {
    fn policy(&self) -> SchedPolicy {
        SchedPolicy::Default
    }

    fn nic_mem_bytes(&self) -> u64 {
        self.c.nic_mem
    }

    fn host_setup_time(&self) -> Time {
        self.c.params.pcie_bw.time_for(self.c.nic_mem) + self.c.params.pcie_latency
    }

    fn on_payload(&mut self, ctx: &mut PacketCtx<'_>) -> HandlerOutput {
        let scratch = self.scratch.pop().unwrap_or_default();
        let direct = &mut ctx.direct;
        let (dma, stats) = scatter_packet_seek(
            &mut self.seg,
            ctx.stream_offset,
            ctx.payload,
            scratch,
            direct,
        );
        let c = &*self.c;
        let out = HandlerOutput {
            cost: specialized_handler_cost(&c.params, &c.cyc, stats.blocks_emitted, c.search_depth),
            dma,
        };
        record_phases(&self.tel, ctx, &out);
        out
    }

    fn recycle_dma(&mut self, scratch: Vec<DmaWrite>) {
        recycle(&mut self.scratch, scratch);
    }

    fn name(&self) -> &'static str {
        "Specialized"
    }
}

/// A strategy committed to one (datatype, count): the read-only part of
/// its receive, built once and shared by every processor instantiated
/// from it ([`crate::runner::Strategy::commit`]).
#[derive(Clone)]
pub struct Commit(Committed);

#[derive(Clone)]
enum Committed {
    Specialized(Arc<SpecializedCommit>),
    General(Arc<GeneralCommit>),
}

impl Commit {
    /// Commit a general-handler variant (see [`GeneralProcessor::new`]).
    pub(crate) fn general(
        kind: GeneralKind,
        dt: &Datatype,
        count: u32,
        params: NicParams,
        epsilon: f64,
    ) -> Commit {
        Commit(Committed::General(Arc::new(GeneralCommit::new(
            kind, dt, count, params, epsilon,
        ))))
    }

    /// Commit the specialized handlers (see [`SpecializedProcessor::new`]).
    pub(crate) fn specialized(dt: &Datatype, count: u32, params: NicParams) -> Commit {
        Commit(Committed::Specialized(Arc::new(SpecializedCommit::new(
            dt, count, params,
        ))))
    }

    /// A fresh processor for one message, tracing into `telemetry`.
    pub fn instantiate(&self, telemetry: Telemetry) -> Box<dyn MessageProcessor> {
        match &self.0 {
            Committed::Specialized(c) => {
                Box::new(SpecializedProcessor::instantiate(Arc::clone(c)).with_telemetry(telemetry))
            }
            Committed::General(c) => {
                Box::new(GeneralProcessor::instantiate(Arc::clone(c)).with_telemetry(telemetry))
            }
        }
    }

    /// The Δr plan (RO-CP/RW-CP only).
    pub fn plan(&self) -> Option<&CheckpointPlan> {
        match &self.0 {
            Committed::Specialized(_) => None,
            Committed::General(c) => c.plan.as_ref(),
        }
    }

    /// NIC memory every processor of this commit occupies.
    pub fn nic_mem_bytes(&self) -> u64 {
        match &self.0 {
            Committed::Specialized(c) => c.nic_mem,
            Committed::General(c) => c.nic_mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Strategy;
    use nca_ddt::types::{elem, DatatypeExt};
    use nca_spin::nic::{ReceiveSim, RunConfig};

    fn vec_dt(count: u32, blocklen: u32, stride: i64) -> Datatype {
        Datatype::vector(count, blocklen, stride, &elem::double())
    }

    fn packed_for(dt: &Datatype, count: u32) -> (Vec<u8>, Vec<u8>, i64, u64) {
        let (origin, span) = nca_ddt::pack::buffer_span(dt, count);
        let src: Vec<u8> = (0..span as usize).map(|i| (i % 251) as u8).collect();
        let packed = nca_ddt::pack::pack(dt, count, &src, origin).unwrap();
        let mut expect = vec![0u8; span as usize];
        nca_ddt::pack::unpack(dt, count, &packed, &mut expect, origin).unwrap();
        (packed, expect, origin, span)
    }

    fn run_end_to_end(
        proc_: Box<dyn MessageProcessor>,
        dt: &Datatype,
        count: u32,
        ooo: Option<u64>,
    ) {
        let (packed, expect, origin, span) = packed_for(dt, count);
        let cfg = RunConfig {
            params: NicParams::with_hpus(16),
            out_of_order: ooo,
            record_dma_history: false,
            portals: None,
            telemetry: Telemetry::disabled(),
            faults: nca_sim::FaultSpec::inert(),
            reliability: nca_spin::params::ReliabilityParams::default(),
            engine: nca_spin::nic::EngineMode,
        };
        let name = proc_.name();
        let report = ReceiveSim::run(proc_, packed, origin, span, &cfg);
        assert_eq!(
            report.host_buf, expect,
            "strategy {name} corrupted the receive buffer"
        );
        assert!(report.t_complete > report.t_first_byte);
    }

    #[test]
    fn all_strategies_unpack_correctly_in_order() {
        let dt = vec_dt(512, 16, 32); // 64 KiB of 128 B blocks
        let p = NicParams::with_hpus(16);
        run_end_to_end(
            Box::new(SpecializedProcessor::new(&dt, 1, p.clone())),
            &dt,
            1,
            None,
        );
        for kind in [GeneralKind::HpuLocal, GeneralKind::RoCp, GeneralKind::RwCp] {
            run_end_to_end(
                Box::new(GeneralProcessor::new(kind, &dt, 1, p.clone(), 0.2)),
                &dt,
                1,
                None,
            );
        }
    }

    #[test]
    fn all_strategies_unpack_correctly_out_of_order() {
        let dt = vec_dt(2048, 8, 16); // 128 KiB
        let p = NicParams::with_hpus(8);
        for seed in [3u64, 11] {
            run_end_to_end(
                Box::new(SpecializedProcessor::new(&dt, 1, p.clone())),
                &dt,
                1,
                Some(seed),
            );
            for kind in [GeneralKind::HpuLocal, GeneralKind::RoCp, GeneralKind::RwCp] {
                run_end_to_end(
                    Box::new(GeneralProcessor::new(kind, &dt, 1, p.clone(), 0.2)),
                    &dt,
                    1,
                    Some(seed),
                );
            }
        }
    }

    #[test]
    fn nested_type_general_strategies() {
        let inner = Datatype::vector(4, 2, 6, &elem::float());
        let dt = Datatype::vector(256, 1, 64, &inner);
        let p = NicParams::with_hpus(16);
        for kind in [GeneralKind::HpuLocal, GeneralKind::RoCp, GeneralKind::RwCp] {
            run_end_to_end(
                Box::new(GeneralProcessor::new(kind, &dt, 2, p.clone(), 0.2)),
                &dt,
                2,
                None,
            );
        }
    }

    #[test]
    fn a_commit_serves_later_messages_like_a_fresh_build() {
        // Every strategy, in order and out of order: once one processor
        // of a commit has received a shuffled message (RW-CP reverting
        // checkpoints on the way), a second processor of the same commit
        // gives the report a processor built from scratch gives, field
        // for field (receive buffer, stages, histograms, recovery).
        let dt = vec_dt(2048, 8, 16); // 128 KiB, 64 packets
        let params = NicParams::with_hpus(8);
        let (packed, _, origin, span) = packed_for(&dt, 1);
        let run = |proc_: Box<dyn MessageProcessor>, ooo: Option<u64>| {
            let mut cfg = RunConfig::new(params.clone());
            cfg.out_of_order = ooo;
            ReceiveSim::run(proc_, packed.clone(), origin, span, &cfg)
        };
        for s in Strategy::ALL {
            let commit = s.commit(&dt, 1, params.clone(), 0.2);
            let first = run(commit.instantiate(Telemetry::disabled()), Some(3));
            if s == Strategy::RwCp {
                assert!(first.recovery.checkpoint_reverts > 0);
            }
            for ooo in [None, Some(7)] {
                let fresh = run(
                    s.build(&dt, 1, params.clone(), 0.2, Telemetry::disabled()),
                    ooo,
                );
                let shared = run(commit.instantiate(Telemetry::disabled()), ooo);
                assert!(shared == fresh, "{} at {ooo:?}", s.label());
            }
        }
    }

    #[test]
    fn specialized_faster_than_general_big_blocks() {
        let dt = vec_dt(2048, 256, 512); // 4 MiB, 2 KiB blocks
        let p = NicParams::with_hpus(16);
        let (packed, _, origin, span) = packed_for(&dt, 1);
        let cfg = RunConfig::new(p.clone());
        let spec = ReceiveSim::run(
            Box::new(SpecializedProcessor::new(&dt, 1, p.clone())),
            packed.clone(),
            origin,
            span,
            &cfg,
        );
        let hpul = ReceiveSim::run(
            Box::new(GeneralProcessor::new(
                GeneralKind::HpuLocal,
                &dt,
                1,
                p.clone(),
                0.2,
            )),
            packed.clone(),
            origin,
            span,
            &cfg,
        );
        let rocp = ReceiveSim::run(
            Box::new(GeneralProcessor::new(GeneralKind::RoCp, &dt, 1, p, 0.2)),
            packed,
            origin,
            span,
            &cfg,
        );
        assert!(spec.processing_time() <= hpul.processing_time());
        assert!(spec.processing_time() <= rocp.processing_time());
    }

    #[test]
    fn rwcp_policy_uses_plan() {
        let dt = vec_dt(4096, 16, 32); // 512 KiB
        let p = NicParams::with_hpus(16);
        let proc_ = GeneralProcessor::new(GeneralKind::RwCp, &dt, 1, p, 0.2);
        let plan = proc_.plan().unwrap();
        match proc_.policy() {
            SchedPolicy::BlockedRR { delta_p, num_vhpus } => {
                assert_eq!(delta_p, plan.delta_p);
                assert!(num_vhpus >= 1);
            }
            other => panic!("RW-CP must use blocked-RR, got {other:?}"),
        }
    }

    #[test]
    fn hpu_local_memory_scales_with_hpus() {
        let dt = vec_dt(4096, 16, 32);
        let small =
            GeneralProcessor::new(GeneralKind::HpuLocal, &dt, 1, NicParams::with_hpus(4), 0.2);
        let large =
            GeneralProcessor::new(GeneralKind::HpuLocal, &dt, 1, NicParams::with_hpus(32), 0.2);
        assert!(large.nic_mem_bytes() > small.nic_mem_bytes());
    }

    #[test]
    fn specialized_shape_detection() {
        let v = vec_dt(128, 4, 8);
        let p = SpecializedProcessor::new(&v, 1, NicParams::default());
        assert!(matches!(p.shape(), Shape::Vector { .. }));
        assert_eq!(p.nic_mem_bytes(), 32);

        let ib = Datatype::indexed_block(4, &[0, 9, 20, 31, 50], &elem::double()).unwrap();
        let p2 = SpecializedProcessor::new(&ib, 1, NicParams::default());
        assert!(matches!(p2.shape(), Shape::IndexedBlock { .. }));
        assert_eq!(p2.nic_mem_bytes(), 16 + 8 * 5);
    }
}
