//! The open-loop traffic engine.
//!
//! A cell run drives the sPIN NIC model with many concurrent tenants.
//! Each tenant owns a seeded arrival process ([`crate::arrival`]), a
//! message mix over application datatypes, and a strategy; the engine
//! offers messages open-loop (arrivals do not wait for completions),
//! admits them against the NIC packet-buffer budget, serializes
//! admitted packets onto the shared ingress link, and runs them through
//! the sPIN receive core ([`nca_spin::nic::Nic`]) — inbound engine,
//! pluggable-discipline HPU scheduler, real handler execution, DMA/PCIe
//! — to completion. The cell is that core's message source.
//!
//! A cell commits each distinct (strategy, workload) once when it sets
//! up: dataloop, Δr plan, checkpoint table. Admitting a message only
//! instantiates a processor of its commit (per-message state around a
//! shared `Arc`), so admission builds none of them.
//!
//! Overload shows up as admission rejections: a rejected offer backs
//! off (capped exponential + seeded jitter, the same policy the
//! reliability layer's retransmit timers use) and re-offers, up to the
//! retry budget; past it the message is *lost*. Offer→completion
//! latency therefore includes backoff delay, link serialization, HPU
//! queueing and DMA — the end-to-end number a tenant would see.
//!
//! Everything is a pure function of the config (seed included): two
//! runs produce bit-identical schedules, latencies and counters.

use std::collections::HashMap;

use nca_core::runner::Strategy;
use nca_core::strategies::Commit;
use nca_ddt::flatten::flatten;
use nca_ddt::pack::{buffer_span, pack_pattern};
use nca_ddt::typemap::typemap_verdict;
use nca_sim::{FaultInjector, FaultSpec, PooledBuf, Sim, Time, WireBuf};
use nca_spin::nic::{MessageSource, Nic};
use nca_spin::params::{NicParams, ReliabilityParams};
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::hist::LogHistogram;
use nca_telemetry::Telemetry;
use nca_workloads::apps::AppWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arrival::{ArrivalProcess, GapSampler};
use crate::rss::{flow_hash, IndirectionTable};

/// One tenant of a traffic run.
#[derive(Clone)]
pub struct TenantSpec {
    /// Label used in reports (`"t0"`, …).
    pub name: String,
    /// The tenant's interarrival process.
    pub arrival: ArrivalProcess,
    /// Message mix: each offer picks one workload uniformly.
    pub mix: Vec<AppWorkload>,
    /// Receive strategy for every message of this tenant.
    pub strategy: Strategy,
}

/// Configuration of one traffic cell run.
#[derive(Clone)]
pub struct TrafficConfig {
    /// NIC parameters; `params.discipline` selects the HPU scheduler.
    pub params: NicParams,
    /// Backoff policy for admission retries (rto / backoff_cap /
    /// rto_max / rto_jitter / max_retries).
    pub reliability: ReliabilityParams,
    /// Master seed: arrival schedules and retry jitter derive from it.
    pub seed: u64,
    /// Open-loop generation horizon (ps); admitted work drains fully.
    pub horizon_ps: Time,
    /// Flows per tenant (RSS steering granularity).
    pub flows_per_tenant: u64,
    /// RSS indirection-table slots.
    pub rss_entries: usize,
    /// ε scheduling-overhead budget the checkpointed strategies commit
    /// with.
    pub epsilon: f64,
    /// Verify every completed receive buffer against a reference unpack.
    pub verify: bool,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

impl TrafficConfig {
    /// Sensible defaults around a tenant set: 64-slot RSS table, 8
    /// flows per tenant, 1 ms horizon, verification on.
    pub fn new(params: NicParams, seed: u64, tenants: Vec<TenantSpec>) -> Self {
        TrafficConfig {
            params,
            reliability: ReliabilityParams::default(),
            seed,
            horizon_ps: nca_sim::us(1000),
            flows_per_tenant: 8,
            rss_entries: 64,
            epsilon: 0.2,
            verify: true,
            tenants,
        }
    }
}

/// One scheduled offer (before admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledMsg {
    /// Tenant index.
    pub tenant: usize,
    /// Per-tenant message sequence number.
    pub seq: u64,
    /// Offer time (ps).
    pub arrival_ps: Time,
    /// Index into the tenant's mix.
    pub mix_idx: usize,
    /// Flow id within the tenant (RSS steering key).
    pub flow: u64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate the full offer schedule: per-tenant seeded streams, merged
/// by `(arrival, tenant, seq)`. Pure function of the config — the
/// schedule is identical however the run is later parallelized.
pub fn generate_schedule(cfg: &TrafficConfig) -> Vec<ScheduledMsg> {
    let mut out = Vec::new();
    for (t, spec) in cfg.tenants.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(splitmix64(cfg.seed ^ (t as u64).wrapping_mul(0xA5)));
        let mut sampler = GapSampler::new(spec.arrival);
        let mut at: Time = 0;
        let mut seq = 0u64;
        loop {
            at = at.saturating_add(sampler.next_gap(&mut rng));
            if at > cfg.horizon_ps {
                break;
            }
            let mix_idx = if spec.mix.len() > 1 {
                rng.random_range(0..spec.mix.len())
            } else {
                0
            };
            let flow = if cfg.flows_per_tenant > 1 {
                rng.random_range(0..cfg.flows_per_tenant)
            } else {
                0
            };
            out.push(ScheduledMsg {
                tenant: t,
                seq,
                arrival_ps: at,
                mix_idx,
                flow,
            });
            seq += 1;
        }
    }
    out.sort_by_key(|m| (m.arrival_ps, m.tenant, m.seq));
    out
}

/// Render a schedule as one line per offer — the canonical byte form
/// determinism tests compare.
pub fn render_schedule(sched: &[ScheduledMsg]) -> String {
    use std::fmt::Write as _;
    let mut o = String::new();
    for m in sched {
        let _ = writeln!(
            o,
            "t={} tenant={} seq={} mix={} flow={}",
            m.arrival_ps, m.tenant, m.seq, m.mix_idx, m.flow
        );
    }
    o
}

/// Per-tenant accounting of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant label.
    pub name: String,
    /// Offers generated inside the horizon.
    pub offered: u64,
    /// Offers admitted into the NIC.
    pub admitted: u64,
    /// Admitted messages that completed.
    pub completed: u64,
    /// Admission rejections (each backed-off attempt counts once).
    pub dropped: u64,
    /// Re-offers scheduled after a rejection.
    pub retried: u64,
    /// Messages abandoned after the retry budget.
    pub lost: u64,
    /// Payload bytes of completed messages.
    pub bytes_completed: u64,
    /// Offer→completion latency (ps).
    pub latency: LogHistogram,
}

impl TenantStats {
    fn new(name: &str) -> Self {
        TenantStats {
            name: name.to_string(),
            offered: 0,
            admitted: 0,
            completed: 0,
            dropped: 0,
            retried: 0,
            lost: 0,
            bytes_completed: 0,
            latency: LogHistogram::new(),
        }
    }
}

/// Outcome of one traffic cell run. The occupancy totals are counted
/// where the engine schedules handlers and DMA writes, so a run returns
/// the same result whatever its telemetry handle records; they are what
/// a cell's utilization block reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRunResult {
    /// Per-tenant accounting, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Every completed receive buffer unpacked byte-exactly (always
    /// true when `verify` was off — nothing was checked).
    pub byte_exact: bool,
    /// Last completion time (ps); at least the horizon.
    pub t_end: Time,
    /// Handler-busy picoseconds per physical HPU slot (the tracks of
    /// the `handler` spans).
    pub hpu_busy_ps: Vec<Time>,
    /// Service picoseconds per DMA channel (the tracks of the
    /// `dma_chan` spans).
    pub dma_chan_busy_ps: Vec<Time>,
    /// Peak DMA-queue depth (the high-water mark of the `dma_queue`
    /// gauge).
    pub dma_max_queue: usize,
}

/// A workload instantiated once and shared by every message using it.
struct CachedWorkload {
    packed: WireBuf,
    /// The dataloop's merged runs `(buf_off, len)` in stream order: the
    /// reference a landing is verified against (no span-sized image).
    runs: Vec<(i64, u64)>,
    origin: i64,
    span: u64,
}

/// Wire occupancy (ps) of a packed message of `len` bytes under
/// `params` (payload plus per-packet header bytes at line rate).
pub fn message_wire_ps(params: &NicParams, len: u64) -> Time {
    let npkt = len.div_ceil(params.payload_size).max(1);
    params
        .line_rate
        .time_for(len + npkt * params.pkt_header_bytes)
}

/// Mean wire occupancy (ps) over a tenant mix — the per-message cost
/// figure offered-load calculations divide by.
pub fn mean_mix_wire_ps(params: &NicParams, mix: &[AppWorkload]) -> f64 {
    assert!(!mix.is_empty(), "empty tenant mix");
    let total: u128 = mix
        .iter()
        .map(|w| message_wire_ps(params, w.msg_bytes()) as u128)
        .sum();
    total as f64 / mix.len() as f64
}

/// An admitted message's accounting tags (index = the core's message
/// index).
struct Admitted {
    tenant: usize,
    wl: usize,
    flow: u64,
    offered_at: Time,
}

/// One traffic cell: the message source in front of the receive core.
/// It offers the seeded schedule open-loop, admits against the packet
/// buffer, serializes admitted packets onto the shared ingress link,
/// steers flows through the RSS table and accounts completions per
/// tenant.
struct Cell {
    params: NicParams,
    rel: ReliabilityParams,
    /// Seeded jitter source for admission-retry backoff (the fault
    /// spec is inert: only the jitter lane is drawn).
    jitter_src: FaultInjector,
    verify: bool,
    cache: Vec<CachedWorkload>,
    /// Each distinct (strategy, workload) committed once, shared by
    /// every tenant that runs it.
    commits: Vec<Commit>,
    /// `(tenant, mix_idx)` → (cache slot, commit slot).
    mix_slot: Vec<Vec<(usize, usize)>>,
    schedule: Vec<ScheduledMsg>,
    rss: IndirectionTable,
    admitted: Vec<Admitted>,
    /// When each physical HPU slot frees up, for busy accounting.
    /// Blocked-RR and cFCFS schedule against an anonymous free-HPU
    /// *count* (their [`Dispatch::hpu`] is always 0), so each handler
    /// is charged to the lowest slot free at dispatch; dFCFS binds real
    /// HPU indices and bypasses this.
    hpu_busy_until: Vec<Time>,
    /// Handler-busy picoseconds per physical HPU slot.
    hpu_busy: Vec<Time>,
    link_free: Time,
    inflight_bytes: u64,
    stats: Vec<TenantStats>,
    byte_exact: bool,
    t_end: Time,
    /// Trace sink (component `"traffic"`); disabled handles make every
    /// emission a no-op, so the closed-loop hot path stays clean.
    tel: Telemetry,
}

impl MessageSource for Cell {
    const RETAIN: bool = false;

    fn steer(&self, m: usize, _vhpu: u64) -> usize {
        let a = &self.admitted[m];
        self.rss.hpu_for(flow_hash(a.tenant, a.flow))
    }

    fn landed(&mut self, m: usize, t: Time, buf: &mut PooledBuf) {
        let a = &self.admitted[m];
        let c = &self.cache[a.wl];
        if self.verify {
            let (bytes, written) = buf.merged_written().expect("the NIC records every write");
            if !typemap_verdict(bytes, c.origin, written, &c.runs, &c.packed) {
                self.byte_exact = false;
            }
        }
        let stats = &mut self.stats[a.tenant];
        stats.completed += 1;
        stats.bytes_completed += c.packed.len() as u64;
        stats.latency.record(t.saturating_sub(a.offered_at));
        self.inflight_bytes -= c.packed.len() as u64;
        self.tel
            .counter("traffic", "completed", a.tenant as u64, t, 1);
        self.t_end = self.t_end.max(t);
    }

    fn traced(&self) -> bool {
        self.tel.is_enabled()
    }

    fn trace_handler(&mut self, hpu: usize, _vhpu: u64, now: Time, runtime: Time) {
        // Charge the handler to a *physical* HPU — the busy resource
        // the utilization block reports on (vHPUs are per-message
        // virtual). dFCFS dispatches carry a real HPU binding; the pool
        // disciplines carry `hpu == 0` (anonymous free count), so pick
        // the lowest slot free at dispatch — handlers are
        // non-preemptive with runtime known up front, so slot occupancy
        // is a pure function of sim time and stays deterministic.
        let slot = if self.params.discipline == QueueDiscipline::DFcfs {
            hpu
        } else {
            let s = self
                .hpu_busy_until
                .iter()
                .position(|&free_at| free_at <= now)
                .unwrap_or(0);
            self.hpu_busy_until[s] = now + runtime;
            s
        };
        self.hpu_busy[slot] += runtime;
        self.tel
            .span("traffic", "handler", slot as u64, now, now + runtime);
    }

    fn trace_dma_queue(&self, now: Time, depth: usize) {
        self.tel.gauge("traffic", "dma_queue", 0, now, depth as f64);
    }

    fn trace_dma_chan(&self, chan: usize, now: Time, service: Time) {
        self.tel
            .span("traffic", "dma_chan", chan as u64, now, now + service);
    }
}

/// Offer `attempt` of schedule entry `i`: admit it, or back off and
/// re-offer while the retry budget lasts.
fn ev_offer(w: &mut Nic<Cell>, s: &mut Sim<Nic<Cell>>, i: u64, attempt: u64) {
    let c = &mut w.src;
    let m = c.schedule[i as usize];
    let (wl, k) = c.mix_slot[m.tenant][m.mix_idx];
    let bytes = c.cache[wl].packed.len() as u64;
    if c.inflight_bytes + bytes > c.params.pkt_buffer_bytes {
        // Admission rejection: the NIC's packet buffer cannot hold
        // another in-flight message. Back off and re-offer.
        c.stats[m.tenant].dropped += 1;
        c.tel
            .counter("traffic", "dropped", m.tenant as u64, s.now(), 1);
        let attempt = attempt as u32;
        if attempt < c.rel.max_retries {
            c.stats[m.tenant].retried += 1;
            let shift = attempt.min(c.rel.backoff_cap);
            let backoff = (c.rel.rto << shift).min(c.rel.rto_max.max(c.rel.rto));
            let jitter = c.jitter_src.jitter(i, 0, attempt, c.rel.rto_jitter);
            s.schedule_call_in(backoff + jitter, ev_offer, i, attempt as u64 + 1);
        } else {
            c.stats[m.tenant].lost += 1;
            c.tel
                .counter("traffic", "lost", m.tenant as u64, s.now(), 1);
        }
        return;
    }
    let proc = c.commits[k].instantiate(Telemetry::disabled());
    let wc = &c.cache[wl];
    let (packed, origin, span) = (wc.packed.clone(), wc.origin, wc.span);
    c.inflight_bytes += bytes;
    c.stats[m.tenant].admitted += 1;
    c.tel
        .counter("traffic", "admitted", m.tenant as u64, s.now(), 1);
    c.tel.gauge(
        "traffic",
        "inflight_bytes",
        0,
        s.now(),
        c.inflight_bytes as f64,
    );
    c.admitted.push(Admitted {
        tenant: m.tenant,
        wl,
        flow: m.flow,
        offered_at: m.arrival_ps,
    });
    let run = w.add_message(&packed, proc, origin, span);
    // Serialize onto the shared ingress link FIFO from now (or from
    // whenever the link frees up).
    let p = &w.src.params;
    let mut begin = w.src.link_free.max(s.now());
    for (idx, pkt) in w.packets(run).iter().enumerate() {
        let end = begin + p.pkt_wire_time(pkt.len);
        Nic::schedule_arrival(s, run, idx, end + p.net_latency);
        begin = end;
    }
    w.src.link_free = begin;
}

/// Run one traffic cell to completion (no trace).
pub fn run_traffic(cfg: &TrafficConfig) -> TrafficRunResult {
    run_traffic_with(cfg, &Telemetry::disabled())
}

/// Run one traffic cell to completion, emitting the engine's trace
/// (component `"traffic"`) into `tel`: per-HPU `handler` busy spans,
/// per-channel `dma_chan` service spans, `dma_queue` / `inflight_bytes`
/// gauges, per-tenant admission counters and an end-of-run `latency_ps`
/// histogram per tenant (track = tenant index). Attach a
/// `StreamingRecorder` to keep the capture bounded-memory however long
/// the run is. The result is identical to [`run_traffic`]'s either way:
/// its busy totals and peak queue depth are counted by the engine, not
/// read back from the trace, so the sweep captures nothing.
pub fn run_traffic_with(cfg: &TrafficConfig, tel: &Telemetry) -> TrafficRunResult {
    assert!(!cfg.tenants.is_empty(), "at least one tenant");
    // Instantiate each distinct workload once, and commit each distinct
    // (strategy, workload) once, shared across tenants.
    let mut cache: Vec<CachedWorkload> = Vec::new();
    let mut by_label: HashMap<String, usize> = HashMap::new();
    let mut commits: Vec<Commit> = Vec::new();
    let mut committed: Vec<(Strategy, usize)> = Vec::new();
    let mut mix_slot: Vec<Vec<(usize, usize)>> = Vec::new();
    for spec in &cfg.tenants {
        assert!(
            !spec.mix.is_empty(),
            "tenant {} has an empty mix",
            spec.name
        );
        let mut slots = Vec::with_capacity(spec.mix.len());
        for w in &spec.mix {
            let label = w.label();
            let slot = *by_label.entry(label).or_insert_with(|| {
                let (origin, span) = buffer_span(&w.dt, w.count);
                // The same payload `core::runner::Experiment` sends.
                let packed: WireBuf = pack_pattern(&w.dt, w.count).into();
                let runs = flatten(&w.dt, w.count)
                    .entries
                    .iter()
                    .map(|e| (e.offset, e.len))
                    .collect();
                cache.push(CachedWorkload {
                    packed,
                    runs,
                    origin,
                    span,
                });
                cache.len() - 1
            });
            let key = (spec.strategy, slot);
            let k = match committed.iter().position(|&c| c == key) {
                Some(k) => k,
                None => {
                    commits.push(spec.strategy.commit(
                        &w.dt,
                        w.count,
                        cfg.params.clone(),
                        cfg.epsilon,
                    ));
                    committed.push(key);
                    commits.len() - 1
                }
            };
            slots.push((slot, k));
        }
        mix_slot.push(slots);
    }
    let schedule = generate_schedule(cfg);
    let mut stats: Vec<TenantStats> = cfg
        .tenants
        .iter()
        .map(|t| TenantStats::new(&t.name))
        .collect();
    for m in &schedule {
        stats[m.tenant].offered += 1;
    }
    let cell = Cell {
        params: cfg.params.clone(),
        rel: cfg.reliability.clone(),
        jitter_src: FaultInjector::new(FaultSpec::inert().with_seed(splitmix64(cfg.seed ^ 0x7261))),
        verify: cfg.verify,
        cache,
        commits,
        mix_slot,
        schedule: schedule.clone(),
        rss: IndirectionTable::new(cfg.rss_entries, cfg.params.hpus),
        admitted: Vec::new(),
        hpu_busy_until: vec![0; cfg.params.hpus.max(1)],
        hpu_busy: vec![0; cfg.params.hpus.max(1)],
        link_free: 0,
        inflight_bytes: 0,
        stats,
        byte_exact: true,
        t_end: cfg.horizon_ps,
        tel: tel.clone(),
    };
    // The core's own `spin` trace stays off: a cell traces the
    // `traffic` family through its source hooks.
    let mut nic = Nic::new(cfg.params.clone(), Telemetry::disabled(), cell);
    let mut sim: Sim<Nic<Cell>> = Sim::new();
    for (i, m) in schedule.iter().enumerate() {
        sim.schedule_call(m.arrival_ps, ev_offer, i as u64, 0);
    }
    nic.run(&mut sim);
    let dma_chan_busy_ps = nic.dma_chan_busy_ps();
    let dma_max_queue = nic.dma_max_queue();
    let world = nic.src;
    debug_assert_eq!(world.inflight_bytes, 0, "all admitted work must drain");
    for (t, st) in world.stats.iter().enumerate() {
        if st.latency.count() > 0 {
            tel.histogram("traffic", "latency_ps", t as u64, world.t_end, &st.latency);
        }
    }
    TrafficRunResult {
        tenants: world.stats,
        byte_exact: world.byte_exact,
        t_end: world.t_end,
        hpu_busy_ps: world.hpu_busy,
        dma_chan_busy_ps,
        dma_max_queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_spin::sched::QueueDiscipline;
    use nca_workloads::apps;

    fn small_mix() -> Vec<AppWorkload> {
        // Pick the two smallest COMB inputs: single-packet messages run
        // fast and still exercise the full pipeline.
        apps::comb().into_iter().take(2).collect()
    }

    fn cfg(load: f64, discipline: QueueDiscipline, seed: u64) -> TrafficConfig {
        let mut params = NicParams::with_hpus(8);
        params.discipline = discipline;
        let wire = mean_mix_wire_ps(&params, &small_mix());
        let tenants: Vec<TenantSpec> = (0..3)
            .map(|t| TenantSpec {
                name: format!("t{t}"),
                arrival: ArrivalProcess::poisson_for_load(wire, 3, load),
                mix: small_mix(),
                strategy: Strategy::RwCp,
            })
            .collect();
        let mut c = TrafficConfig::new(params, seed, tenants);
        c.horizon_ps = nca_sim::us(300);
        c
    }

    #[test]
    fn light_load_completes_everything_byte_exact() {
        let r = run_traffic(&cfg(0.3, QueueDiscipline::BlockedRR, 1));
        assert!(r.byte_exact);
        for t in &r.tenants {
            assert!(t.offered > 0, "{}: no offers inside horizon", t.name);
            assert_eq!(
                t.admitted, t.offered,
                "{}: light load must admit all",
                t.name
            );
            assert_eq!(t.completed, t.admitted);
            assert_eq!(t.lost, 0);
            assert!(t.latency.count() == t.completed);
        }
    }

    #[test]
    fn runs_are_a_pure_function_of_the_seed() {
        let a = run_traffic(&cfg(0.8, QueueDiscipline::CFcfs, 42));
        let b = run_traffic(&cfg(0.8, QueueDiscipline::CFcfs, 42));
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.offered, y.offered);
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.dropped, y.dropped);
            assert_eq!(x.latency, y.latency);
        }
        assert_eq!(a.t_end, b.t_end);
        // A different seed draws a different schedule.
        let c = run_traffic(&cfg(0.8, QueueDiscipline::CFcfs, 43));
        assert_ne!(
            a.tenants.iter().map(|t| t.offered).collect::<Vec<_>>(),
            c.tenants.iter().map(|t| t.offered).collect::<Vec<_>>()
        );
    }

    #[test]
    fn overload_drops_and_accounting_balances() {
        // 4× line rate into a tiny packet buffer: admission must reject.
        let mut c = cfg(4.0, QueueDiscipline::BlockedRR, 7);
        c.params.pkt_buffer_bytes = 4 << 10;
        c.reliability.max_retries = 2;
        let r = run_traffic(&c);
        let drops: u64 = r.tenants.iter().map(|t| t.dropped).sum();
        let lost: u64 = r.tenants.iter().map(|t| t.lost).sum();
        assert!(drops > 0, "4x overload must reject offers");
        assert!(
            lost > 0,
            "retry budget must exhaust under sustained overload"
        );
        for t in &r.tenants {
            assert_eq!(t.admitted + t.lost, t.offered, "{}: conservation", t.name);
            assert_eq!(t.completed, t.admitted, "admitted work drains");
            assert_eq!(
                t.dropped,
                t.retried + t.lost,
                "each rejection retries or loses"
            );
        }
        assert!(
            r.byte_exact,
            "completed messages stay byte-exact under overload"
        );
    }

    #[test]
    fn latency_grows_with_offered_load() {
        let lo = run_traffic(&cfg(0.2, QueueDiscipline::BlockedRR, 5));
        let hi = run_traffic(&cfg(1.5, QueueDiscipline::BlockedRR, 5));
        let p99 = |r: &TrafficRunResult| {
            let mut h = LogHistogram::new();
            for t in &r.tenants {
                h.merge(&t.latency);
            }
            h.percentile_ps(99.0)
        };
        assert!(
            p99(&hi) > p99(&lo),
            "queueing must show in the tail: {} vs {}",
            p99(&hi),
            p99(&lo)
        );
    }

    #[test]
    fn all_disciplines_run_all_strategies_byte_exact() {
        for d in QueueDiscipline::ALL {
            for s in Strategy::ALL {
                let mut c = cfg(0.7, d, 11);
                c.horizon_ps = nca_sim::us(120);
                for t in &mut c.tenants {
                    t.strategy = s;
                }
                let r = run_traffic(&c);
                assert!(r.byte_exact, "{} / {}", d.label(), s.label());
                assert!(r.tenants.iter().any(|t| t.completed > 0));
            }
        }
    }

    #[test]
    fn schedule_renders_deterministically() {
        let c = cfg(0.5, QueueDiscipline::BlockedRR, 99);
        let a = render_schedule(&generate_schedule(&c));
        let b = render_schedule(&generate_schedule(&c));
        assert_eq!(a, b);
        assert!(a.lines().count() > 10, "horizon should yield many offers");
    }
}
