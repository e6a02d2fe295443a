//! The event-driven sPIN NIC receive core.
//!
//! One core models the inbound path every in-flight message takes:
//!
//! ```text
//! network (serialization + latency, optional reordering)
//!   → inbound engine (parse, matching on the header packet,
//!     payload copy into NIC memory)
//!   → scheduler (vHPU assignment per policy, dispatch to idle HPUs)
//!   → handler execution (the strategy: real byte scatter + modelled cost)
//!   → DMA/PCIe engine (FIFO, per-write overhead + bandwidth, occupancy
//!     tracked for Figs. 14/15)
//!   → host memory (actual bytes land in the receive buffer)
//! ```
//!
//! [`Nic`] holds a per-message table (packets, processor, receive
//! buffer, pending handlers, completion) in front of one NIC-wide
//! scheduler, NIC memory and DMA engine. Messages enter it through a
//! [`MessageSource`]: [`ReceiveSim::run`] is the one-message case, and
//! the open-loop traffic engine (`nca-traffic`) admits seeded offers
//! from many tenants against the packet buffer.
//!
//! Everything up to the handlers is simulator events. The DMA engine
//! is not: it resolves each write's channel and service window when the
//! write is enqueued, and each message's completion write lands as one
//! event at its computed landing time. Its trace, occupancy series and
//! source hooks come from the same schedule, so observing a run never
//! changes what runs.
//!
//! A receive whose results outlive it ([`MessageSource::RETAIN`], every
//! [`ReceiveSim::run`]) keeps its attribution's stage intervals and its
//! latency histograms where the NIC schedules the work, whatever the run
//! observes ([`RunReport::stages`], [`RunReport::histograms`]).
//!
//! The *message processing time* reported is the paper's definition:
//! from the first byte of the message arriving at the NIC to the last
//! byte landing in the receive buffer (signalled by the completion
//! handler's event-generating zero-byte DMA).

use std::collections::VecDeque;

use nca_portals::event::{EventKind, EventQueue, FullEvent};
use nca_portals::matching::{MatchOutcome, MatchingUnit};
use nca_portals::packet::{packetize_wire, payload_checksum, Packet};
use nca_sim::{DeliveredCopy, FaultInjector, FaultSpec, PooledBuf, Sim, Time, WireBuf};
use nca_telemetry::flight::{self, Attribution, Interval, Stage};
use nca_telemetry::{hist::LogHistogram, probe::SimTelemetryProbe, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::handler::{
    DirectDst, DmaWrite, HandlerCost, MessageProcessor, PacketCtx, RecoveryStats,
};
use crate::params::{NicParams, ReliabilityParams};
use crate::sched::Scheduler;

/// Portals 4 state for a matched receive: the posted lists plus the
/// match bits the incoming message carries.
#[derive(Debug, Clone, Default)]
pub struct PortalsSetup {
    /// Pre-populated matching unit (priority + overflow lists).
    pub matching: MatchingUnit,
    /// Match bits of the incoming message's header packet.
    pub match_bits: u64,
}

/// Which data path the matching walk selected for the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgPath {
    /// Matched an ME with an execution context: sPIN handler processing.
    Spin,
    /// Matched a plain ME: non-processing (RDMA) path, contiguous landing.
    NonProcessing,
    /// Matched only on the overflow list: unexpected message, contiguous
    /// landing + `PutOverflow` event (host unpacks later, Sec. 3.2.6).
    Unexpected,
    /// No match anywhere: the message is discarded.
    Discarded,
}

/// Selects nothing: the NIC has one DMA engine, whatever a run
/// observes. It survives only as the type of [`RunConfig::engine`] and
/// `nca_core::runner::Experiment::engine`, because the scenario
/// benchmark (`benchmark/src/decompose.rs`) builds [`RunConfig`] as a
/// full struct literal from `Experiment::engine`. A benchmark-only
/// change that stops naming the field deletes this type and both
/// fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineMode;

/// Configuration of one simulated receive.
pub struct RunConfig {
    /// NIC parameters.
    pub params: NicParams,
    /// `Some(seed)` shuffles payload-packet arrival order (header stays
    /// first, completion stays last) to exercise out-of-order handling.
    pub out_of_order: Option<u64>,
    /// Record the full DMA-queue occupancy time series (Fig. 15) into
    /// [`RunReport::dma_history`]. It only requests the series.
    pub record_dma_history: bool,
    /// Portals matching state. `None` models an implicit
    /// execution-context-attached ME (every packet goes to sPIN).
    pub portals: Option<PortalsSetup>,
    /// Trace sink for the run. Disabled by default: every record call
    /// is then a single branch.
    pub telemetry: Telemetry,
    /// Network fault model. When inert (the default), the run takes the
    /// exact lossless code path — no sequence tracking, no acks, no
    /// timers — so fault-free results are bit-identical to a build
    /// without the fault layer.
    pub faults: FaultSpec,
    /// Retransmission/ack protocol parameters (consulted only when
    /// `faults` is not inert).
    pub reliability: ReliabilityParams,
    /// Selects nothing (see [`EngineMode`]).
    pub engine: EngineMode,
}

impl RunConfig {
    /// In-order run with default parameters and an implicit sPIN ME.
    pub fn new(params: NicParams) -> Self {
        RunConfig {
            params,
            out_of_order: None,
            record_dma_history: false,
            portals: None,
            telemetry: Telemetry::disabled(),
            faults: FaultSpec::inert(),
            reliability: ReliabilityParams::default(),
            engine: EngineMode,
        }
    }
}

/// Reliable-delivery outcome of one run: what the fault layer injected
/// and how the protocol recovered. All-zero (with
/// `delivered_exactly_once: true`) for lossless runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Wire transmissions (first attempts + retransmissions).
    pub transmissions: u64,
    /// Sender retransmissions triggered by timeout.
    pub retransmissions: u64,
    /// Transmissions the fault layer dropped.
    pub drops_injected: u64,
    /// Transmissions the fault layer duplicated.
    pub dups_injected: u64,
    /// Arrivals discarded by receiver duplicate suppression.
    pub dups_suppressed: u64,
    /// Delivered copies the fault layer corrupted in flight.
    pub corrupts_injected: u64,
    /// Arrivals rejected by the per-packet checksum.
    pub corrupts_rejected: u64,
    /// Acknowledgements that reached the sender.
    pub acks_received: u64,
    /// Packets recovered over the reliable host-fallback channel after
    /// retry-budget exhaustion.
    pub host_fallback_packets: u64,
    /// The whole message was degraded to contiguous landing + host
    /// unpack because the strategy did not fit NIC memory (set by the
    /// runner's admission control, not by this pipeline).
    pub nic_mem_fallback: bool,
    /// Every packet was accepted exactly once (dedup discarded the rest)
    /// and none is missing.
    pub delivered_exactly_once: bool,
}

/// Sender-side retransmission state for one packet.
struct TxState {
    acked: bool,
    attempt: u32,
    fallback: bool,
}

/// Reliable-delivery state (present only when faults are active).
struct RelState {
    injector: FaultInjector,
    rparams: ReliabilityParams,
    tx: Vec<TxState>,
    received: Vec<bool>,
    stats: ReliabilityStats,
}

/// Everything a run produced.
#[derive(Debug, PartialEq)]
pub struct RunReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Packets in the message.
    pub npkt: u64,
    /// First byte at the NIC (ps).
    pub t_first_byte: Time,
    /// Completion event time (last byte in receive buffer, ps).
    pub t_complete: Time,
    /// The receive buffer after the run (index 0 ↔ `host_origin`).
    /// A pooled buffer that derefs to its span's bytes (`[u8]`) and
    /// carries the extents written into it
    /// ([`PooledBuf::written`](nca_sim::PooledBuf::written)): dropping
    /// the report re-zeroes those and returns the storage to the worker's
    /// arena for the next run.
    pub host_buf: nca_sim::PooledBuf,
    /// Host-buffer offset of index 0.
    pub host_origin: i64,
    /// Total DMA writes issued (data writes + completion signal).
    pub dma_writes: u64,
    /// Total bytes DMA-written.
    pub dma_bytes: u64,
    /// Maximum DMA queue occupancy.
    pub dma_max_queue: usize,
    /// Service picoseconds per DMA channel, summed as writes are
    /// enqueued, traced or not: channel `c` was busy
    /// `dma_chan_busy_ps[c]` ps of the run.
    pub dma_chan_busy_ps: Vec<Time>,
    /// Handler-busy picoseconds per vHPU track, summed as handlers
    /// start, traced or not: vHPU `v` ran handlers for
    /// `hpu_busy_ps[v]` ps of the run.
    pub hpu_busy_ps: Vec<Time>,
    /// The latency distributions the NIC accumulated over the run, by
    /// metric name: `handler_ps`, `queue_wait_ps` and `dma_service_ps`.
    pub histograms: Vec<(&'static str, LogHistogram)>,
    /// The stage intervals [`RunReport::attribution`] sweeps: wire,
    /// inbound, queue wait and dispatch per packet, each payload handler
    /// split by its [`HandlerCost`], the DMA engine's busy periods and
    /// the completion drain.
    pub stages: Vec<Interval>,
    /// DMA queue occupancy series (if recorded).
    pub dma_history: Vec<(Time, usize)>,
    /// Per-handler cost samples (payload handlers, dispatch order).
    pub handler_costs: Vec<HandlerCost>,
    /// NIC memory the strategy occupied.
    pub nic_mem_bytes: u64,
    /// NIC-memory high-water mark: the strategy's static footprint plus
    /// the peak payload bytes resident in NIC memory at once (charged
    /// when the inbound engine lands a packet, released when its handler
    /// completes).
    pub nic_mem_hwm_bytes: u64,
    /// One-time host preparation (checkpoint creation/copy).
    pub host_setup_time: Time,
    /// Data path the matching walk selected.
    pub path: MsgPath,
    /// Full events posted during the run (Put / PutOverflow / DMA).
    pub events: Vec<FullEvent>,
    /// Fault-injection and reliable-delivery outcome.
    pub rel: ReliabilityStats,
    /// Checkpoint reverts and catch-up blocks the strategy counted
    /// ([`MessageProcessor::recovery`]). Unlike [`RunReport::rel`] these
    /// can be nonzero on a lossless run: an HPU-local vHPU catches up over
    /// the packets the other vHPUs took.
    pub recovery: RecoveryStats,
}

impl RunReport {
    /// Message processing time (paper definition).
    pub fn processing_time(&self) -> Time {
        self.t_complete - self.t_first_byte
    }

    /// The latency attribution of the processing window: every instant
    /// charged to the highest-priority stage in flight.
    pub fn attribution(&self) -> Attribution {
        flight::sweep(&self.stages, self.t_first_byte, self.t_complete)
    }

    /// Receive throughput in Gbit/s over the processing time.
    pub fn throughput_gbit(&self) -> f64 {
        nca_sim::units::throughput_gbit(self.msg_bytes, self.processing_time())
    }

    /// Aggregate handler cost (sums of the three phases).
    pub fn handler_cost_sum(&self) -> HandlerCost {
        let mut acc = HandlerCost::default();
        for c in &self.handler_costs {
            acc.add(c);
        }
        acc
    }

    /// Mean payload-handler runtime (ps).
    pub fn mean_handler_time(&self) -> f64 {
        if self.handler_costs.is_empty() {
            return 0.0;
        }
        self.handler_costs
            .iter()
            .map(|c| c.total() as f64)
            .sum::<f64>()
            / self.handler_costs.len() as f64
    }
}

/// What sits in front of the receive core: the part of a receive that
/// differs between the one-message microbenchmark and open-loop
/// traffic. Sources add messages with
/// [`Nic::add_message`], schedule their packets with
/// [`Nic::schedule_arrival`], and may schedule events of their own on
/// the same simulator.
pub trait MessageSource: Sized + 'static {
    /// Whether per-message results (receive buffer, handler costs,
    /// completion time, stage intervals, histograms) outlive completion.
    /// A source that reads nothing back sets this to `false`: the core
    /// then records none of them and frees a message's processor,
    /// packets and receive buffer as soon as its completion write lands,
    /// so no packet of the message may arrive after that (no duplicates
    /// or retransmissions).
    const RETAIN: bool = true;

    /// dFCFS steering hint for message `m`'s packets on `vhpu` (the
    /// other disciplines ignore it).
    fn steer(&self, m: usize, vhpu: u64) -> usize;

    /// Message `m`'s completion write landed at `t`; `buf` is its final
    /// receive buffer, which recorded every extent written into it (see
    /// [`DirectDst`]): every byte outside them is zero. A verdict reads
    /// them sorted and merged through [`PooledBuf::merged_written`], so a
    /// source that checks nothing pays nothing. This runs as its own
    /// simulator event at landing time, so a source that admits work
    /// against completions sees them in simulated-time order.
    fn landed(&mut self, _m: usize, _t: Time, _buf: &mut PooledBuf) {}

    /// Whether the `trace_*` hooks record anything. The core skips its
    /// per-write DMA trace emission when neither this nor its own
    /// telemetry nor the occupancy series observes it.
    fn traced(&self) -> bool {
        false
    }

    /// A handler of `runtime` starts at `now` for `vhpu` on physical HPU
    /// `hpu` (a real index under dFCFS, 0 under the pooled disciplines).
    /// Called for every handler, traced or not, so a source may account
    /// occupancy here.
    fn trace_handler(&mut self, _hpu: usize, _vhpu: u64, _now: Time, _runtime: Time) {}

    /// The DMA queue holds `depth` writes after a push or pop at `now`.
    fn trace_dma_queue(&self, _now: Time, _depth: usize) {}

    /// DMA channel `chan` starts servicing a write at `now` for `service`.
    fn trace_dma_chan(&self, _chan: usize, _now: Time, _service: Time) {}
}

/// [`ReceiveSim::run`]'s source: the single-message pipeline has no
/// flow table, so the vHPU id doubles as the dFCFS steering hint and
/// vHPUs map straight onto physical HPUs. It counts each vHPU's
/// handler-busy picoseconds ([`RunReport::hpu_busy_ps`]).
#[derive(Default)]
struct OneMessage {
    hpu_busy: Vec<Time>,
}

impl MessageSource for OneMessage {
    fn steer(&self, _m: usize, vhpu: u64) -> usize {
        vhpu as usize
    }

    fn trace_handler(&mut self, _hpu: usize, vhpu: u64, _now: Time, runtime: Time) {
        let v = vhpu as usize;
        if self.hpu_busy.len() <= v {
            self.hpu_busy.resize(v + 1, 0);
        }
        self.hpu_busy[v] += runtime;
    }
}

const LIVE: &str = "message state released before its last event";
const RECORDED: &str = "receive buffers are written only through DirectDst";

/// One message's receive state.
struct Message {
    packets: Vec<Packet>,
    /// Packed message length.
    bytes: u64,
    /// `None` once released (see [`MessageSource::RETAIN`]).
    proc: Option<Box<dyn MessageProcessor>>,
    host_buf: PooledBuf,
    host_origin: i64,
    arrived: u64,
    /// When each packet entered its vHPU queue (empty unless a report
    /// or a trace reads queue waits).
    enq: Vec<Time>,
    /// Payload handlers not yet finished.
    pending: u64,
    completion_dispatched: bool,
    t_complete: Option<Time>,
    handler_costs: Vec<HandlerCost>,
    path: MsgPath,
}

/// Parked event arguments: the slot index rides in a `schedule_call`
/// scalar, so the event needs no boxed closure. Slots are recycled
/// through a free list.
struct Slots<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    fn park(&mut self, item: T) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = Some(item);
                i as u64
            }
            None => {
                self.items.push(Some(item));
                (self.items.len() - 1) as u64
            }
        }
    }

    fn take(&mut self, slot: u64) -> T {
        self.free.push(slot as u32);
        self.items[slot as usize].take().expect("armed slot")
    }
}

/// The DMA/PCIe engine: `dma_channels` channels serve one FIFO of
/// writes. Writes leave the FIFO in order, so a write's channel and
/// service window depend only on the writes before it and are resolved
/// when it is enqueued ([`Nic::enqueue_dma`]); the engine schedules no
/// per-write event.
#[derive(Default)]
struct DmaEngine {
    /// Per-channel state (index = channel).
    chans: Vec<DmaChan>,
    /// Service start of the previous write: the FIFO head cannot start
    /// before it.
    head: Time,
    /// Service starts (queue-leave times) not yet folded into the
    /// occupancy model. They never decrease, so a deque suffices.
    starts: VecDeque<Time>,
    /// Modelled queue occupancy and its high-water mark.
    occ: usize,
    max_occ: usize,
    /// The `(time, occupancy)` series, when requested.
    history: Option<Vec<(Time, usize)>>,
    writes: u64,
    bytes: u64,
}

/// One DMA channel's state.
#[derive(Clone, Copy, Default)]
struct DmaChan {
    /// Service-completion time of its latest write.
    free_at: Time,
    /// Assignment order of its latest write: among channels freeing at
    /// the same picosecond, the one assigned first frees first and
    /// takes the next write.
    order: u64,
    /// Service picoseconds summed over its writes.
    busy: Time,
}

/// Parked `handler_done` arguments: `(scheduler key, packet index, hpu,
/// writes)`.
type DoneArgs = (u64, usize, usize, Vec<DmaWrite>);

/// Scheduler key of message `m`'s `vhpu`. vHPU ids stay below 2^32 (a
/// packet sequence number or a Δp block index), so the one-message case
/// keys by the bare vHPU id.
fn sched_key(m: usize, vhpu: u64) -> u64 {
    ((m as u64) << 32) | vhpu
}

/// The receive core: a per-message table in front of one scheduler,
/// NIC memory and DMA engine, fed by the source `S`. It is the world
/// type of its simulator, `Sim<Nic<S>>`.
pub struct Nic<S> {
    params: NicParams,
    msgs: Vec<Message>,
    sched: Scheduler<u64>,
    dma: DmaEngine,
    tel: Telemetry,
    done: Slots<DoneArgs>,
    /// Completion-handler writes, waiting out the handler's runtime.
    finals: Slots<Vec<DmaWrite>>,
    /// What a report reads, kept only when `S::RETAIN`: the stage
    /// intervals, the DMA busy period still growing (write starts never
    /// decrease, so a write starting after its end closes it), the
    /// latency distributions, and a DMA service time not yet recorded
    /// with how many writes in a row took it.
    stages: Vec<Interval>,
    dma_busy: (Time, Time),
    hist_handler: LogHistogram,
    hist_queue_wait: LogHistogram,
    hist_dma: LogHistogram,
    dma_run: (Time, u64),
    /// The strategy's static NIC-memory footprint.
    nic_mem: u64,
    /// Payload bytes currently resident in NIC memory (landed by the
    /// inbound engine, not yet consumed by a handler).
    resident_payload: u64,
    /// Peak of `resident_payload` over the run.
    resident_hwm: u64,
    // Portals matching and reliable delivery serve the one-message
    // receive: the matching walk assumes its header arrives first, and
    // the retransmission state is message 0's.
    matching: Option<MatchingUnit>,
    match_bits: u64,
    events: EventQueue,
    rel: Option<RelState>,
    /// The message source.
    pub src: S,
}

impl<S: MessageSource> Nic<S> {
    /// An idle core emitting the `spin` trace family into `tel`.
    pub fn new(params: NicParams, tel: Telemetry, src: S) -> Self {
        let chans = params.dma_channels.max(1);
        Nic {
            sched: Scheduler::new(params.discipline, params.hpus),
            dma: DmaEngine {
                chans: vec![DmaChan::default(); chans],
                ..DmaEngine::default()
            },
            params,
            msgs: Vec::new(),
            tel,
            done: Slots::new(),
            finals: Slots::new(),
            stages: Vec::new(),
            dma_busy: (0, 0),
            hist_handler: LogHistogram::new(),
            hist_queue_wait: LogHistogram::new(),
            hist_dma: LogHistogram::new(),
            dma_run: (0, 0),
            nic_mem: 0,
            resident_payload: 0,
            resident_hwm: 0,
            matching: None,
            match_bits: 0,
            events: EventQueue::new(),
            rel: None,
            src,
        }
    }

    /// Add a message: `packed` is packetized (message id = the returned
    /// table index) for `proc`, landing in a zeroed receive buffer
    /// spanning `[host_origin, host_origin + host_span)`. Its packets
    /// reach the NIC only once scheduled with [`Nic::schedule_arrival`].
    pub fn add_message(
        &mut self,
        packed: &WireBuf,
        proc: Box<dyn MessageProcessor>,
        host_origin: i64,
        host_span: u64,
    ) -> usize {
        let m = self.msgs.len();
        let packets = packetize_wire(m as u64, packed, self.params.payload_size);
        let npkt = packets.len();
        let waits = if S::RETAIN || self.tel.is_enabled() {
            npkt
        } else {
            0
        };
        self.msgs.push(Message {
            packets,
            bytes: packed.len() as u64,
            proc: Some(proc),
            host_buf: nca_sim::arena::take_zeroed(host_span as usize),
            host_origin,
            arrived: 0,
            enq: vec![0; waits],
            pending: npkt as u64,
            completion_dispatched: false,
            t_complete: None,
            handler_costs: Vec::with_capacity(if S::RETAIN { npkt } else { 0 }),
            path: MsgPath::Spin,
        });
        m
    }

    /// Message `m`'s packets (empty once released).
    pub fn packets(&self, m: usize) -> &[Packet] {
        &self.msgs[m].packets
    }

    /// Schedule packet `idx` of message `m` to reach the NIC at `at`.
    pub fn schedule_arrival(sim: &mut Sim<Self>, m: usize, idx: usize, at: Time) {
        sim.schedule_call(at, ev_packet_arrival::<S>, m as u64, idx as u64);
    }

    /// Run `sim` to completion, then fold the DMA service starts still
    /// ahead of the last enqueue into the occupancy samples.
    pub fn run(&mut self, sim: &mut Sim<Self>) {
        sim.run(self);
        let observed = self.dma_observed();
        self.fold_dma_starts(Time::MAX, observed);
    }

    /// Service picoseconds each DMA channel has been busy so far.
    pub fn dma_chan_busy_ps(&self) -> Vec<Time> {
        self.dma.chans.iter().map(|c| c.busy).collect()
    }

    /// Peak DMA-queue occupancy so far: the high-water mark of the
    /// depth [`MessageSource::trace_dma_queue`] reports.
    pub fn dma_max_queue(&self) -> usize {
        self.dma.max_occ
    }

    /// One wire transmission attempt of packet `idx` with nominal
    /// arrival time `arrival` (serialization already accounted). The
    /// fault injector renders the deterministic verdict; every delivered
    /// copy becomes an arrival event and a retransmission timer guards
    /// the attempt.
    fn transmit(&mut self, sim: &mut Sim<Self>, idx: usize, attempt: u32, arrival: Time) {
        let hdr = self.msgs[0].packets[idx].hdr;
        let (msg_id, seq) = (hdr.msg_id, hdr.seq);
        let rel = self.rel.as_mut().expect("transmit requires fault mode");
        rel.stats.transmissions += 1;
        let verdict = rel.injector.judge(msg_id, seq, attempt);
        let now = sim.now();
        if verdict.dropped {
            rel.stats.drops_injected += 1;
            self.tel.counter("spin", "fault_drop", 0, now, 1);
        }
        if verdict.duplicated {
            rel.stats.dups_injected += 1;
            self.tel.counter("spin", "fault_dup", 0, now, 1);
        }
        if verdict.corrupted {
            rel.stats.corrupts_injected += 1;
            self.tel.counter("spin", "fault_corrupt", 0, now, 1);
        }
        let rel = self.rel.as_ref().expect("fault mode");
        for copy in verdict.copies {
            sim.schedule(arrival + copy.extra_delay, move |w, s| {
                w.packet_rx(s, idx, Some(copy));
            });
        }
        // Exponential backoff, capped absolutely at rto_max, with a
        // seeded uniform jitter so the timers of a correlated drop
        // burst spread out instead of firing in lockstep (retransmit
        // storms under open-loop overload). The jitter draw is a pure
        // function of (seed, msg, seq, attempt): replays are identical.
        let shift = attempt.min(rel.rparams.backoff_cap);
        let backoff = (rel.rparams.rto << shift).min(rel.rparams.rto_max.max(rel.rparams.rto));
        let jitter = rel
            .injector
            .jitter(msg_id, seq, attempt, rel.rparams.rto_jitter);
        let deadline = arrival + backoff + jitter;
        sim.schedule(deadline, move |w, s| w.retry_timeout(s, idx, attempt));
    }

    /// Retransmission timer for `attempt` of packet `idx` fired.
    fn retry_timeout(&mut self, sim: &mut Sim<Self>, idx: usize, attempt: u32) {
        let params_net = self.params.net_latency;
        let wire = self.params.pkt_wire_time(self.msgs[0].packets[idx].len);
        let rel = self.rel.as_mut().expect("fault mode");
        let tx = &mut rel.tx[idx];
        if tx.acked || tx.fallback || tx.attempt != attempt {
            return; // delivered, degraded, or a newer attempt owns the timer
        }
        if attempt >= rel.rparams.max_retries {
            // Retry budget exhausted: recover the fragment over the
            // reliable host channel instead of wedging the receive.
            tx.fallback = true;
            rel.stats.host_fallback_packets += 1;
            let at = sim.now() + rel.rparams.fallback_latency;
            self.tel.counter("spin", "host_fallback", 0, sim.now(), 1);
            sim.schedule(at, move |w, s| w.packet_rx(s, idx, None));
            return;
        }
        tx.attempt = attempt + 1;
        rel.stats.retransmissions += 1;
        self.tel.counter("spin", "retransmission", 0, sim.now(), 1);
        let arrival = sim.now() + params_net + wire;
        self.tel
            .span("spin", "wire", 0, sim.now(), sim.now() + wire);
        self.stage(sim.now(), sim.now() + wire, Stage::Wire);
        self.transmit(sim, idx, attempt + 1, arrival);
    }

    /// A copy of packet `idx` reached the NIC. `copy: None` means the
    /// reliable host-fallback channel delivered it (never faulty).
    fn packet_rx(&mut self, sim: &mut Sim<Self>, idx: usize, copy: Option<DeliveredCopy>) {
        let pkt = &self.msgs[0].packets[idx];
        let now = sim.now();
        // Corruption detection: compare the checksum of the bytes as
        // they arrived with the checksum of the packet's own payload.
        // The fault layer materializes corrupted copies copy-on-write,
        // so the shared wire buffer is never mutated and its digest is
        // the one a sender would have stamped. A single-byte flip always
        // breaks FNV-1a, so a corrupted copy never reaches the pipeline.
        if let Some(c) = copy {
            if c.corrupt && pkt.hdr.len > 0 {
                let bytes = c.materialize(&pkt.payload);
                if payload_checksum(&bytes) != payload_checksum(&pkt.payload) {
                    let rel = self.rel.as_mut().expect("fault mode");
                    rel.stats.corrupts_rejected += 1;
                    self.tel.counter("spin", "corrupt_rejected", 0, now, 1);
                    return; // discarded; the sender's timer recovers it
                }
                debug_assert!(false, "single-byte flip must break the checksum");
            }
        }
        let rel = self.rel.as_mut().expect("fault mode");
        if rel.received[idx] {
            rel.stats.dups_suppressed += 1;
            self.tel.counter("spin", "dup_suppressed", 0, now, 1);
            return;
        }
        rel.received[idx] = true;
        // Acknowledge so the sender cancels the retransmission timer.
        let ack_at = now + rel.rparams.ack_latency;
        sim.schedule(ack_at, move |w, _| {
            let rel = w.rel.as_mut().expect("fault mode");
            if !rel.tx[idx].acked {
                rel.tx[idx].acked = true;
                rel.stats.acks_received += 1;
            }
        });
        self.packet_arrival(sim, 0, idx);
    }

    /// A stage interval of the report's attribution.
    fn stage(&mut self, start: Time, end: Time, stage: Stage) {
        if S::RETAIN && start < end {
            self.stages.push((start, end, stage));
        }
    }

    fn packet_arrival(&mut self, sim: &mut Sim<Self>, m: usize, idx: usize) {
        let now = sim.now();
        let st = &mut self.msgs[m];
        let hdr = st.packets[idx].hdr;
        st.arrived += 1;
        self.tel
            .counter("spin", "packets_arrived", m as u64, now, 1);
        // The header packet triggers the Portals matching walk and fixes
        // the message's data path (the pinned ME serves the rest).
        if hdr.kind.is_header() {
            if let Some(mu) = self.matching.as_mut() {
                let (outcome, me) = mu.match_header(hdr.msg_id, self.match_bits);
                st.path = match (outcome, me.and_then(|e| e.exec_ctx)) {
                    (MatchOutcome::Priority, Some(_)) => MsgPath::Spin,
                    (MatchOutcome::Priority, None) => MsgPath::NonProcessing,
                    (MatchOutcome::Overflow, _) => MsgPath::Unexpected,
                    (MatchOutcome::Discard, _) => MsgPath::Discarded,
                };
            }
        }
        if hdr.kind.is_completion() {
            if let Some(mu) = self.matching.as_mut() {
                mu.complete(hdr.msg_id);
            }
        }
        let last = st.arrived == st.packets.len() as u64;
        match st.path {
            MsgPath::Spin => {
                // Inbound engine: copy payload into NIC memory, then HER.
                let inbound = self.params.nic_passthrough + self.params.nicmem_copy_time(hdr.len);
                self.tel
                    .span("spin", "inbound", m as u64, now, now + inbound);
                self.stage(now, now + inbound, Stage::Inbound);
                sim.schedule_call_in(inbound, ev_her_ready::<S>, m as u64, idx as u64);
            }
            MsgPath::NonProcessing | MsgPath::Unexpected => {
                // RDMA landing: one contiguous DMA write per packet at its
                // stream offset; no HPU involvement. The write reuses the
                // packet's payload view — no bytes are copied.
                let overflow = st.path == MsgPath::Unexpected;
                sim.schedule_in(self.params.nic_passthrough, move |w, s| {
                    let st = &w.msgs[m];
                    let write = DmaWrite::data(
                        st.host_origin + hdr.offset as i64,
                        st.packets[idx].payload.clone(),
                    );
                    let size = st.bytes;
                    w.enqueue_dma(s, m, &write);
                    if last {
                        w.events.post(FullEvent {
                            kind: if overflow {
                                EventKind::PutOverflow
                            } else {
                                EventKind::Put
                            },
                            msg_id: hdr.msg_id,
                            size,
                            time: s.now(),
                        });
                        w.enqueue_dma(s, m, &DmaWrite::completion_signal());
                    }
                });
            }
            MsgPath::Discarded => {
                // Dropped: no data movement, no events. The run ends when
                // the last packet has been parsed.
                if last {
                    st.t_complete = Some(now + self.params.nic_passthrough);
                }
            }
        }
    }

    fn her_ready(&mut self, sim: &mut Sim<Self>, m: usize, idx: usize) {
        let now = sim.now();
        let st = &mut self.msgs[m];
        if let Some(t) = st.enq.get_mut(idx) {
            *t = now;
        }
        let pkt = &st.packets[idx];
        // The inbound engine has landed this payload in NIC memory:
        // charge it against the NIC-memory budget until its handler
        // consumes it.
        self.resident_payload += pkt.len;
        if self.resident_payload > self.resident_hwm {
            self.resident_hwm = self.resident_payload;
        }
        self.tel.gauge(
            "spin",
            "nic_mem_bytes",
            0,
            now,
            (self.nic_mem + self.resident_payload) as f64,
        );
        let vhpu = st.proc.as_deref().expect(LIVE).policy().vhpu_of(pkt.seq);
        let hint = self.src.steer(m, vhpu);
        self.sched.enqueue(sched_key(m, vhpu), idx, hint);
        self.try_dispatch(sim);
    }

    fn try_dispatch(&mut self, sim: &mut Sim<Self>) {
        while let Some(d) = self.sched.next_dispatch() {
            let (key, idx, hpu) = (d.key, d.pkt, d.hpu);
            let (m, vhpu) = ((key >> 32) as usize, key & 0xFFFF_FFFF);
            let dispatch = self.params.sched_dispatch;
            let now = sim.now();
            if let Some(&enq) = self.msgs[m].enq.get(idx) {
                if S::RETAIN {
                    self.hist_queue_wait.record(now - enq);
                }
                if now > enq {
                    self.tel.span("spin", "queue_wait", vhpu, enq, now);
                }
                self.stage(enq, now, Stage::QueueWait);
            }
            self.tel.instant("spin", "dispatch", vhpu, now);
            self.tel.span("spin", "sched", vhpu, now, now + dispatch);
            self.stage(now, now + dispatch, Stage::Dispatch);
            sim.schedule_call_in(
                dispatch,
                ev_run_handler::<S>,
                key,
                ((idx as u64) << 32) | hpu as u64,
            );
        }
    }

    fn run_handler(&mut self, sim: &mut Sim<Self>, key: u64, idx: usize, hpu: usize) {
        let (m, vhpu) = ((key >> 32) as usize, key & 0xFFFF_FFFF);
        let now = sim.now();
        let st = &mut self.msgs[m];
        let pkt = &st.packets[idx];
        // The handler scatters payload bytes straight into the receive
        // buffer and returns length-only DMA writes for the timing model.
        let mut ctx = PacketCtx {
            payload: &pkt.payload,
            stream_offset: pkt.hdr.offset,
            seq: pkt.hdr.seq,
            npkt: st.packets.len() as u64,
            vhpu,
            now,
            direct: DirectDst::new(&mut st.host_buf, st.host_origin),
        };
        let out = st.proc.as_deref_mut().expect(LIVE).on_payload(&mut ctx);
        let (c, runtime) = (out.cost, out.cost.total());
        if S::RETAIN {
            st.handler_costs.push(c);
            self.hist_handler.record(runtime);
            let (a, b) = (now + c.init, now + c.init + c.setup);
            self.stage(now, a, Stage::HandlerInit);
            self.stage(a, b, Stage::HandlerSetup);
            self.stage(b, now + runtime, Stage::HandlerProc);
        }
        self.tel.span("spin", "handler", vhpu, now, now + runtime);
        self.src.trace_handler(hpu, vhpu, now, runtime);
        let slot = self.done.park((key, idx, hpu, out.dma));
        sim.schedule_call_in(runtime, ev_handler_done::<S>, slot, 0);
    }

    fn handler_done(
        &mut self,
        sim: &mut Sim<Self>,
        key: u64,
        idx: usize,
        hpu: usize,
        mut dma: Vec<DmaWrite>,
    ) {
        let m = (key >> 32) as usize;
        // The handler consumed the packet: its payload leaves NIC memory.
        self.resident_payload -= self.msgs[m].packets[idx].len;
        self.tel.gauge(
            "spin",
            "nic_mem_bytes",
            0,
            sim.now(),
            (self.nic_mem + self.resident_payload) as f64,
        );
        {
            let _phase = nca_sim::profile::enter(nca_sim::profile::Phase::DmaCopy);
            for w in dma.drain(..) {
                self.enqueue_dma(sim, m, &w);
            }
        }
        let st = &mut self.msgs[m];
        // Hand the emptied scratch vector back to the strategy so the
        // next handler invocation reuses its capacity.
        st.proc.as_deref_mut().expect(LIVE).recycle_dma(dma);
        self.sched.done(key, hpu);
        st.pending -= 1;
        if st.pending == 0 && !st.completion_dispatched {
            st.completion_dispatched = true;
            sim.schedule_call_in(self.params.sched_dispatch, ev_completion::<S>, m as u64, 0);
        }
        self.try_dispatch(sim);
    }

    /// Whether anything observes the DMA engine per write: the `spin`
    /// trace, the source's hooks or the occupancy series.
    fn dma_observed(&self) -> bool {
        self.tel.is_enabled() || self.dma.history.is_some() || self.src.traced()
    }

    /// One DMA-queue occupancy sample: `depth` writes queued at `t`.
    fn dma_sample(&mut self, t: Time, depth: usize) {
        self.tel.gauge("spin", "dma_queue", 0, t, depth as f64);
        self.src.trace_dma_queue(t, depth);
        if let Some(h) = self.dma.history.as_mut() {
            h.push((t, depth));
        }
    }

    /// Writes whose service started at or before `now` have left the
    /// queue: fold them into the occupancy model, one sample each.
    fn fold_dma_starts(&mut self, now: Time, observed: bool) {
        while let Some(&t) = self.dma.starts.front() {
            if t > now {
                break;
            }
            self.dma.starts.pop_front();
            self.dma.occ -= 1;
            if observed {
                self.dma_sample(t, self.dma.occ);
            }
        }
    }

    /// Enqueue write `w` of message `m` and resolve its service window
    /// now (DESIGN §4e). Its channel follows the FIFO's rules:
    /// - no write starts before the previous one did (the FIFO head);
    /// - a data write takes the lowest-index channel free at the head,
    ///   else the channel freeing first (ties: the one assigned first);
    /// - the event-generating completion write waits until every channel
    ///   is idle and takes channel 0 (Portals ordering: it lands after
    ///   every data write).
    ///
    /// The write's bytes, if it carries any, land in the receive buffer
    /// at once; a direct-scatter write's bytes already have. Nothing
    /// reads a receive buffer before its message completes, and the
    /// completion write is scheduled as the message's one landing event.
    fn enqueue_dma(&mut self, sim: &mut Sim<Self>, m: usize, w: &DmaWrite) {
        let now = sim.now();
        let observed = self.dma_observed();
        self.fold_dma_starts(now, observed);
        self.dma.occ += 1;
        self.dma.max_occ = self.dma.max_occ.max(self.dma.occ);
        if observed {
            self.dma_sample(now, self.dma.occ);
        }
        let d = &mut self.dma;
        let service = self.params.dma_service_time(w.len);
        let head = now.max(d.head);
        let (chan, start) = if w.event {
            (0, d.chans.iter().fold(head, |t, c| t.max(c.free_at)))
        } else if let Some(c) = d.chans.iter().position(|c| c.free_at <= head) {
            (c, head)
        } else {
            let c = (0..d.chans.len())
                .min_by_key(|&c| (d.chans[c].free_at, d.chans[c].order))
                .expect("at least one DMA channel");
            (c, d.chans[c].free_at)
        };
        d.head = start;
        let c = &mut d.chans[chan];
        c.free_at = start + service;
        c.order = d.writes;
        c.busy += service;
        d.writes += 1;
        d.bytes += w.len;
        d.starts.push_back(start);
        let land = start + service + self.params.pcie_latency;
        if S::RETAIN {
            if self.dma_run.0 != service {
                self.hist_dma.record_n(self.dma_run.0, self.dma_run.1);
                self.dma_run = (service, 0);
            }
            self.dma_run.1 += 1;
            let (s, e) = self.dma_busy;
            if start <= e {
                self.dma_busy.1 = e.max(start + service);
            } else {
                self.stage(s, e, Stage::Dma);
                self.dma_busy = (start, start + service);
            }
            if w.event {
                self.stage(start + service, land, Stage::Drain);
            }
        }
        if observed {
            // Busy-interval span on the channel's own track (the
            // Perfetto PCIe-utilization view).
            self.tel
                .span("spin", "dma_chan", chan as u64, start, start + service);
            self.src.trace_dma_chan(chan, start, service);
            if w.event {
                // The completion drain: everything is on the wire, the
                // message now waits for the final PCIe landing.
                self.tel
                    .span("spin", "dma_drain", chan as u64, start + service, land);
            }
        }
        if !w.data.is_empty() {
            let _phase = nca_sim::profile::enter(nca_sim::profile::Phase::DmaCopy);
            let st = &mut self.msgs[m];
            DirectDst::new(&mut st.host_buf, st.host_origin).block(
                w.host_off,
                &w.data,
                0,
                w.data.len(),
            );
        }
        if w.event {
            sim.schedule_call(land, ev_complete::<S>, m as u64, 0);
        }
    }

    /// Message `m`'s completion event: it is fully in the receive buffer.
    fn complete(&mut self, m: usize, t: Time) {
        let st = &mut self.msgs[m];
        st.t_complete = Some(t);
        self.tel.instant("spin", "message_complete", m as u64, t);
        assert!(st.host_buf.written().is_some(), "{RECORDED}");
        self.src.landed(m, t, &mut st.host_buf);
        if !S::RETAIN {
            st.proc = None;
            st.packets = Vec::new();
            st.enq = Vec::new();
            st.host_buf = PooledBuf::default();
        }
    }
}

// Allocation-free event bodies (scheduled via `Sim::schedule_call`): a
// function pointer plus two scalars instead of a boxed closure per event.

fn ev_packet_arrival<S: MessageSource>(w: &mut Nic<S>, s: &mut Sim<Nic<S>>, m: u64, idx: u64) {
    w.packet_arrival(s, m as usize, idx as usize);
}

fn ev_her_ready<S: MessageSource>(w: &mut Nic<S>, s: &mut Sim<Nic<S>>, m: u64, idx: u64) {
    w.her_ready(s, m as usize, idx as usize);
}

fn ev_run_handler<S: MessageSource>(w: &mut Nic<S>, s: &mut Sim<Nic<S>>, key: u64, idx_hpu: u64) {
    w.run_handler(
        s,
        key,
        (idx_hpu >> 32) as usize,
        (idx_hpu & 0xFFFF_FFFF) as usize,
    );
}

fn ev_handler_done<S: MessageSource>(w: &mut Nic<S>, s: &mut Sim<Nic<S>>, slot: u64, _b: u64) {
    let (key, idx, hpu, dma) = w.done.take(slot);
    w.handler_done(s, key, idx, hpu, dma);
}

/// Every payload handler of message `m` finished: run its completion
/// handler, whose writes enqueue once its runtime has elapsed.
fn ev_completion<S: MessageSource>(w: &mut Nic<S>, s: &mut Sim<Nic<S>>, m: u64, _b: u64) {
    let out = w.msgs[m as usize]
        .proc
        .as_deref_mut()
        .expect(LIVE)
        .on_completion();
    let slot = w.finals.park(out.dma);
    s.schedule_call_in(out.cost.total(), ev_completion_writes::<S>, m, slot);
}

fn ev_completion_writes<S: MessageSource>(w: &mut Nic<S>, s: &mut Sim<Nic<S>>, m: u64, slot: u64) {
    for wr in w.finals.take(slot) {
        w.enqueue_dma(s, m as usize, &wr);
    }
}

fn ev_complete<S: MessageSource>(w: &mut Nic<S>, s: &mut Sim<Nic<S>>, m: u64, _b: u64) {
    w.complete(m as usize, s.now());
}

/// The receive-pipeline runner.
pub struct ReceiveSim;

impl ReceiveSim {
    /// Simulate receiving `packed` (the packed message bytes, anything
    /// convertible into a shared [`WireBuf`] — a `Vec<u8>` costs one
    /// copy at conversion, a `WireBuf` clone costs a refcount bump)
    /// processed by `proc`, landing in a receive buffer spanning
    /// `[host_origin, host_origin + host_span)`.
    pub fn run(
        proc: Box<dyn MessageProcessor>,
        packed: impl Into<WireBuf>,
        host_origin: i64,
        host_span: u64,
        cfg: &RunConfig,
    ) -> RunReport {
        let params = &cfg.params;
        let faulty = !cfg.faults.is_inert();
        assert!(
            !faulty || cfg.portals.is_none(),
            "fault injection requires an implicit sPIN ME: the matching walk \
             assumes the header packet arrives first, which a lossy network \
             cannot guarantee"
        );
        let strategy_name = proc.name();
        let nic_mem = proc.nic_mem_bytes();
        let host_setup = proc.host_setup_time();

        let mut nic = Nic::new(params.clone(), cfg.telemetry.clone(), OneMessage::default());
        nic.dma.history = cfg.record_dma_history.then(Vec::new);
        nic.nic_mem = nic_mem;
        if let Some(p) = &cfg.portals {
            nic.matching = Some(p.matching.clone());
            nic.match_bits = p.match_bits;
        }
        nic.add_message(&packed.into(), proc, host_origin, host_span);
        let npkt = nic.msgs[0].packets.len();
        nic.rel = faulty.then(|| RelState {
            injector: FaultInjector::new(cfg.faults),
            rparams: cfg.reliability.clone(),
            tx: (0..npkt)
                .map(|_| TxState {
                    acked: false,
                    attempt: 0,
                    fallback: false,
                })
                .collect(),
            received: vec![false; npkt],
            stats: ReliabilityStats::default(),
        });

        // Network arrival schedule: serialization at line rate after the
        // one-way latency; optionally shuffle which payload packet
        // occupies which serialization slot.
        let mut order: Vec<usize> = (0..npkt).collect();
        if let Some(seed) = cfg.out_of_order {
            if npkt > 3 {
                let mut rng = StdRng::seed_from_u64(seed);
                order[1..npkt - 1].shuffle(&mut rng);
            }
        }

        let mut sim: Sim<Nic<OneMessage>> = Sim::new();
        if cfg.telemetry.is_enabled() {
            sim.set_probe(Box::new(SimTelemetryProbe::new(
                cfg.telemetry.clone(),
                "sim",
            )));
            // One-shot allocation sample: the strategy's NIC-memory
            // footprint is fixed for the lifetime of the receive.
            nic.tel.gauge("spin", "nic_mem_bytes", 0, 0, nic_mem as f64);
        }
        let t_first_byte = params.net_latency;
        let mut t = t_first_byte;
        let mut slots = Vec::with_capacity(npkt);
        for &pkt_idx in &order {
            let wire = params.pkt_wire_time(nic.msgs[0].packets[pkt_idx].len);
            nic.tel.span("spin", "wire", 0, t, t + wire);
            nic.stage(t, t + wire, Stage::Wire);
            t += wire;
            slots.push((pkt_idx, t));
        }
        for (pkt_idx, at) in slots {
            if faulty {
                // Reliable mode: each serialization slot is a
                // *transmission* through the fault layer; the
                // retransmission protocol and receiver dedup guarantee
                // exactly-once processing.
                nic.transmit(&mut sim, pkt_idx, 0, at);
            } else {
                Nic::schedule_arrival(&mut sim, 0, pkt_idx, at);
            }
        }
        nic.run(&mut sim);

        let t_complete = nic.msgs[0].t_complete.unwrap_or_else(|| sim.now());
        // Close the last DMA run and busy period, then emit the
        // distributions as single mergeable events so percentiles survive
        // however much the ring evicted.
        nic.hist_dma.record_n(nic.dma_run.0, nic.dma_run.1);
        let (s, e) = nic.dma_busy;
        nic.stage(s, e, Stage::Dma);
        let histograms = vec![
            ("handler_ps", std::mem::take(&mut nic.hist_handler)),
            ("queue_wait_ps", std::mem::take(&mut nic.hist_queue_wait)),
            ("dma_service_ps", std::mem::take(&mut nic.hist_dma)),
        ];
        for (name, h) in &histograms {
            nic.tel.histogram("spin", name, 0, t_complete, h);
        }
        let rel = match nic.rel.take() {
            Some(r) => ReliabilityStats {
                delivered_exactly_once: r.received.iter().all(|&x| x),
                ..r.stats
            },
            None => ReliabilityStats {
                delivered_exactly_once: true,
                ..ReliabilityStats::default()
            },
        };
        let msg = nic.msgs.pop().expect("one message");
        let recovery = msg.proc.as_deref().expect(LIVE).recovery();
        RunReport {
            strategy: strategy_name,
            msg_bytes: msg.bytes,
            npkt: npkt as u64,
            t_first_byte,
            t_complete,
            host_buf: msg.host_buf,
            host_origin,
            dma_writes: nic.dma.writes,
            dma_bytes: nic.dma.bytes,
            dma_max_queue: nic.dma.max_occ,
            dma_chan_busy_ps: nic.dma_chan_busy_ps(),
            hpu_busy_ps: std::mem::take(&mut nic.src.hpu_busy),
            histograms,
            stages: std::mem::take(&mut nic.stages),
            dma_history: nic.dma.history.take().unwrap_or_default(),
            handler_costs: msg.handler_costs,
            nic_mem_bytes: nic_mem,
            nic_mem_hwm_bytes: nic_mem + nic.resident_hwm,
            host_setup_time: host_setup,
            path: msg.path,
            events: nic.events.into_all(),
            rel,
            recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::ContigProcessor;
    use crate::handler::HandlerCost;
    use nca_portals::event::EventKind;
    use nca_portals::matching::MatchEntry;

    fn me(bits: u64, exec_ctx: Option<u32>) -> MatchEntry {
        MatchEntry {
            id: 0,
            match_bits: bits,
            ignore_bits: 0,
            start: 0,
            length: 1 << 20,
            exec_ctx,
            use_once: false,
        }
    }

    fn msg(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    fn run_with(portals: Option<PortalsSetup>, n: usize) -> RunReport {
        let params = NicParams::with_hpus(4);
        let handler = params.spin_min_handler();
        let proc_ = Box::new(ContigProcessor::new(0, handler));
        let cfg = RunConfig {
            params,
            out_of_order: None,
            record_dma_history: false,
            portals,
            telemetry: Telemetry::disabled(),
            faults: FaultSpec::inert(),
            reliability: ReliabilityParams::default(),
            engine: EngineMode,
        };
        ReceiveSim::run(proc_, msg(n), 0, n as u64, &cfg)
    }

    /// Emits length-only writes of the given lengths from each payload
    /// handler, at zero handler cost.
    struct Lengths(Vec<u64>);

    impl MessageProcessor for Lengths {
        fn policy(&self) -> crate::handler::SchedPolicy {
            crate::handler::SchedPolicy::Default
        }

        fn nic_mem_bytes(&self) -> u64 {
            0
        }

        fn on_payload(&mut self, _ctx: &mut PacketCtx<'_>) -> crate::handler::HandlerOutput {
            crate::handler::HandlerOutput {
                cost: HandlerCost::default(),
                dma: self
                    .0
                    .iter()
                    .map(|&len| DmaWrite::len_only(0, len))
                    .collect(),
            }
        }

        fn name(&self) -> &'static str {
            "lengths"
        }
    }

    #[test]
    fn channels_freeing_together_serve_in_assignment_order() {
        // Service is 1000 ps + 1 ps per byte. Channel 0 serves 100 B and
        // then 100 B, freeing at +2200 ps together with channel 1, whose
        // 1200 B write was assigned before channel 0's second one. The
        // fourth write goes to channel 1: the channel assigned first
        // frees first, not the lower index. The completion write, once
        // its handler ran, takes channel 0.
        let mut params = NicParams::with_hpus(1);
        params.dma_write_overhead = 1000;
        params.pcie_bw = nca_sim::Bandwidth::gbit_per_s(8000.0);
        let (tel, ring) = Telemetry::ring(1 << 10);
        let mut cfg = RunConfig::new(params);
        cfg.telemetry = tel;
        let proc_ = Box::new(Lengths(vec![100, 1200, 100, 100]));
        ReceiveSim::run(proc_, msg(16), 0, 16, &cfg);
        let mut spans: Vec<(Time, u64)> = ring
            .events()
            .iter()
            .filter(|e| e.name == "dma_chan")
            .map(|e| (e.time, e.track))
            .collect();
        spans.sort();
        let t0 = spans[0].0;
        let rel: Vec<(Time, u64)> = spans.iter().map(|&(t, c)| (t - t0, c)).collect();
        assert_eq!(rel[..4], [(0, 0), (0, 1), (1100, 0), (2200, 1)]);
        assert_eq!(rel[4].1, 0, "the completion write takes channel 0");
    }

    #[test]
    fn matched_priority_with_exec_ctx_takes_spin_path() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0xCAFE, Some(1)));
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::Spin);
        assert_eq!(r.host_buf, msg(8192));
        assert!(!r.handler_costs.is_empty(), "handlers must have run");
    }

    #[test]
    fn matched_plain_me_takes_non_processing_path() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0xCAFE, None));
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::NonProcessing);
        assert_eq!(r.host_buf, msg(8192), "RDMA path must still land the bytes");
        assert!(r.handler_costs.is_empty(), "no handlers on the RDMA path");
        assert!(r.events.iter().any(|e| e.kind == EventKind::Put));
    }

    #[test]
    fn overflow_match_is_unexpected_with_event() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0x1111, Some(1))); // does not match
        mu.append_overflow(MatchEntry {
            ignore_bits: !0,
            ..me(0, None)
        }); // wildcard
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::Unexpected);
        assert_eq!(
            r.host_buf,
            msg(8192),
            "overflow buffer receives the packed bytes"
        );
        assert!(r.events.iter().any(|e| e.kind == EventKind::PutOverflow));
    }

    #[test]
    fn no_match_discards_the_message() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0x1111, Some(1)));
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::Discarded);
        assert_eq!(r.dma_bytes, 0, "discarded messages move no data");
        assert!(r.host_buf.iter().all(|&b| b == 0));
        assert!(r.events.is_empty());
    }

    #[test]
    fn spin_path_faster_processing_visibility_than_unexpected_plus_unpack() {
        // The unexpected path only lands packed bytes; the MPI layer
        // still has to unpack on the host. The sPIN path delivers
        // unpacked data at completion time directly.
        let mut mu_spin = MatchingUnit::new();
        mu_spin.append_priority(me(7, Some(1)));
        let spin = run_with(
            Some(PortalsSetup {
                matching: mu_spin,
                match_bits: 7,
            }),
            65536,
        );
        let mut mu_over = MatchingUnit::new();
        mu_over.append_overflow(MatchEntry {
            ignore_bits: !0,
            ..me(0, None)
        });
        let over = run_with(
            Some(PortalsSetup {
                matching: mu_over,
                match_bits: 7,
            }),
            65536,
        );
        // Both deliver; the overflow landing itself is comparable, but it
        // represents *packed* data (host unpack still pending).
        assert_eq!(spin.path, MsgPath::Spin);
        assert_eq!(over.path, MsgPath::Unexpected);
        assert!(spin.t_complete > 0 && over.t_complete > 0);
    }
}
