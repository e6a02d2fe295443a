//! The simulated multi-rank world.

use std::collections::HashMap;

use nca_core::api::{OffloadManager, PostOutcome, TypeAttr};
use nca_core::costmodel::{HandlerCycles, HostCostModel};
use nca_core::heuristic::select_checkpoint_interval;
use nca_core::runner::Strategy;
use nca_ddt::dataloop::compile_cached;
use nca_ddt::pack::{buffer_span, pack, unpack};
use nca_ddt::types::Datatype;
use nca_loggopsim::model::LogGopsParams;
use nca_sim::Time;
use nca_spin::params::NicParams;

/// A rank-local clock value.
pub type RankTime = Time;

/// Handle for an outstanding receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(u64);

struct InFlight {
    src: u32,
    tag: u32,
    packed: Vec<u8>,
    dt_size: u64,
    arrival: Time,
}

struct PostedRecv {
    src: u32,
    tag: u32,
    dt: Datatype,
    count: u32,
    posted_at: Time,
    offloaded: Option<Strategy>,
    req: Request,
}

struct Pending {
    /// Completion time once known.
    complete_at: Option<Time>,
    /// Unpacked receive buffer once complete (index 0 ↔ origin).
    buffer: Option<Vec<u8>>,
    origin: i64,
}

struct RankState {
    mgr: OffloadManager,
    time: Time,
    nic_free: Time,
    posted: Vec<PostedRecv>,
    unexpected: Vec<InFlight>,
}

/// The simulated world: `n` ranks, a shared network model, per-rank
/// offload managers.
pub struct World {
    params: NicParams,
    net: LogGopsParams,
    host: HostCostModel,
    ranks: Vec<RankState>,
    pending: HashMap<Request, Pending>,
    next_req: u64,
    /// Messages that arrived with no matching posted receive and were
    /// served by the host-unpack fallback.
    pub unexpected_fallbacks: u64,
}

impl World {
    /// Create a world of `n` ranks.
    pub fn new(n: u32, params: NicParams) -> World {
        World {
            ranks: (0..n)
                .map(|_| RankState {
                    mgr: OffloadManager::new(params.clone()),
                    time: 0,
                    nic_free: 0,
                    posted: Vec::new(),
                    unexpected: Vec::new(),
                })
                .collect(),
            params,
            net: LogGopsParams::default(),
            host: HostCostModel::default(),
            pending: HashMap::new(),
            next_req: 0,
            unexpected_fallbacks: 0,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// Rank-local time.
    pub fn time(&self, rank: u32) -> RankTime {
        self.ranks[rank as usize].time
    }

    /// Advance a rank's clock by local computation.
    pub fn compute(&mut self, rank: u32, duration: Time) {
        self.ranks[rank as usize].time += duration;
    }

    /// Nonblocking datatype send: packs `count` copies of `dt` from
    /// `buf` (index 0 ↔ `origin`) and injects toward `(dest, tag)`.
    /// The CPU is busy for `o` only (zero-copy injection).
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Isend signature
    pub fn isend(
        &mut self,
        rank: u32,
        buf: &[u8],
        origin: i64,
        dt: &Datatype,
        count: u32,
        dest: u32,
        tag: u32,
    ) {
        let packed = pack(dt, count, buf, origin).expect("send buffer too small");
        let r = &mut self.ranks[rank as usize];
        r.time += self.net.o;
        let inject_start = r.time.max(r.nic_free);
        let inject_end = inject_start + self.net.gap_time(packed.len() as u64);
        r.nic_free = inject_end;
        let arrival = inject_end + self.net.l;
        let msg = InFlight {
            src: rank,
            tag,
            dt_size: packed.len() as u64,
            packed,
            arrival,
        };
        self.deliver(dest, msg);
    }

    fn deliver(&mut self, dest: u32, msg: InFlight) {
        // Match against posted receives (MPI ordering: first match wins).
        let pos = self.ranks[dest as usize]
            .posted
            .iter()
            .position(|p| p.src == msg.src && p.tag == msg.tag);
        match pos {
            Some(i) => {
                let posted = self.ranks[dest as usize].posted.remove(i);
                self.complete_posted(dest, posted, msg);
            }
            None => self.ranks[dest as usize].unexpected.push(msg),
        }
    }

    /// Residual processing time beyond the transfer for an offloaded
    /// receive (the Sec. 3.2.4 message-processing model minus the wire
    /// time the network already charged).
    fn offload_residual(&self, strategy: Strategy, msg_bytes: u64, blocks: u64) -> Time {
        let p = &self.params;
        let cyc = HandlerCycles::default();
        let k = p.payload_size;
        let npkt = msg_bytes.div_ceil(k).max(1);
        let gamma = (blocks as f64 / npkt as f64).max(1.0).ceil() as u64;
        let (t_ph, delta_p) = match strategy {
            Strategy::Specialized => (p.cycles(cyc.init + gamma * cyc.block_specialized), 1),
            _ => {
                let t = p.cycles(cyc.init + cyc.setup + gamma * cyc.block_general);
                let plan = select_checkpoint_interval(p, msg_bytes, t, 0.2);
                (t, plan.delta_p)
            }
        };
        let hpus = p.hpus as u64;
        let fill = (delta_p * (hpus - 1)).min(npkt.saturating_sub(1));
        let tc = p.t_pkt() + fill * p.t_pkt() + npkt.div_ceil(hpus) * t_ph;
        let wire = npkt * p.t_pkt();
        tc.saturating_sub(wire.min(tc)) + p.pcie_latency
    }

    fn complete_posted(&mut self, dest: u32, posted: PostedRecv, msg: InFlight) {
        let (origin, span) = buffer_span(&posted.dt, posted.count);
        let mut buffer = vec![0u8; span as usize];
        unpack(&posted.dt, posted.count, &msg.packed, &mut buffer, origin)
            .expect("stream length matches datatype");
        let dl = compile_cached(&posted.dt, posted.count);
        let ready = msg.arrival.max(posted.posted_at);
        let complete_at = match posted.offloaded {
            Some(s) => ready + self.net.o + self.offload_residual(s, msg.dt_size, dl.blocks),
            None => {
                // Host fallback for a pre-posted receive that could not
                // be offloaded (NIC memory pressure).
                ready + self.net.o + self.host.unpack_time(msg.dt_size, dl.blocks)
            }
        };
        let _ = dest;
        self.pending.insert(
            posted.req,
            Pending {
                complete_at: Some(complete_at),
                buffer: Some(buffer),
                origin,
            },
        );
    }

    /// Nonblocking datatype receive from `(src, tag)`. Returns a request
    /// to [`World::wait`] on.
    pub fn irecv(&mut self, rank: u32, dt: &Datatype, count: u32, src: u32, tag: u32) -> Request {
        let req = Request(self.next_req);
        self.next_req += 1;
        let now = {
            let r = &mut self.ranks[rank as usize];
            r.time += self.net.o;
            r.time
        };
        // Unexpected queue first (MPI semantics).
        if let Some(i) = self.ranks[rank as usize]
            .unexpected
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            let msg = self.ranks[rank as usize].unexpected.remove(i);
            // The message landed packed: the host must unpack it.
            self.unexpected_fallbacks += 1;
            let (origin, span) = buffer_span(dt, count);
            let mut buffer = vec![0u8; span as usize];
            unpack(dt, count, &msg.packed, &mut buffer, origin).expect("length matches");
            let dl = compile_cached(dt, count);
            let complete_at = now.max(msg.arrival) + self.host.unpack_time(msg.dt_size, dl.blocks);
            self.pending.insert(
                req,
                Pending {
                    complete_at: Some(complete_at),
                    buffer: Some(buffer),
                    origin,
                },
            );
            return req;
        }
        // Pre-posted: commit + try to offload.
        let committed = self.ranks[rank as usize]
            .mgr
            .commit(dt, TypeAttr::default());
        let outcome = self.ranks[rank as usize]
            .mgr
            .post_receive(&committed, count);
        let offloaded = match outcome {
            PostOutcome::Offloaded(s) => Some(s),
            PostOutcome::FallbackHost => None,
        };
        let (origin, _) = buffer_span(dt, count);
        self.ranks[rank as usize].posted.push(PostedRecv {
            src,
            tag,
            dt: dt.clone(),
            count,
            posted_at: now,
            offloaded,
            req,
        });
        self.pending.insert(
            req,
            Pending {
                complete_at: None,
                buffer: None,
                origin,
            },
        );
        req
    }

    /// Wait for a receive: advances the rank clock to the completion
    /// time and returns `(buffer, origin)` with the unpacked data.
    ///
    /// Panics if the matching send was never issued (deadlock).
    pub fn wait(&mut self, rank: u32, req: Request) -> (Vec<u8>, i64) {
        let pending = self
            .pending
            .remove(&req)
            .expect("unknown or already-waited request");
        let (complete_at, buffer) = match (pending.complete_at, pending.buffer) {
            (Some(t), Some(b)) => (t, b),
            _ => panic!("wait would deadlock: no matching send for {req:?}"),
        };
        let r = &mut self.ranks[rank as usize];
        r.time = r.time.max(complete_at);
        (buffer, pending.origin)
    }

    /// Whether a request has a known completion (its send arrived).
    pub fn test(&self, req: Request) -> bool {
        self.pending
            .get(&req)
            .map(|p| p.complete_at.is_some())
            .unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_ddt::types::{elem, DatatypeExt};

    fn strided(count: u32, blocklen: u32) -> Datatype {
        Datatype::vector(count, blocklen, 2 * blocklen as i64, &elem::double())
    }

    fn pattern(span: u64) -> Vec<u8> {
        (0..span as usize).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn ping_pong_moves_real_data() {
        let dt = strided(512, 8);
        let (origin, span) = buffer_span(&dt, 1);
        let src_buf = pattern(span);
        let mut w = World::new(2, NicParams::with_hpus(16));
        let req = w.irecv(1, &dt, 1, 0, 99);
        assert!(!w.test(req), "nothing sent yet");
        w.isend(0, &src_buf, origin, &dt, 1, 1, 99);
        assert!(w.test(req));
        let (buf, o) = w.wait(1, req);
        assert_eq!(o, origin);
        // every mapped byte round-trips
        nca_ddt::typemap::for_each_block(&dt, 1, |off, len| {
            let s = (off - origin) as usize;
            assert_eq!(&buf[s..s + len as usize], &src_buf[s..s + len as usize]);
        });
        assert!(w.time(1) > 0);
    }

    #[test]
    fn preposted_offload_faster_than_unexpected() {
        let dt = strided(4096, 16); // 512 KiB
        let (origin, span) = buffer_span(&dt, 1);
        let src_buf = pattern(span);

        // Pre-posted: receive first, then send.
        let mut a = World::new(2, NicParams::with_hpus(16));
        let ra = a.irecv(1, &dt, 1, 0, 1);
        a.isend(0, &src_buf, origin, &dt, 1, 1, 1);
        a.wait(1, ra);
        let t_posted = a.time(1);

        // Unexpected: send first, receive later.
        let mut b = World::new(2, NicParams::with_hpus(16));
        b.isend(0, &src_buf, origin, &dt, 1, 1, 1);
        let rb = b.irecv(1, &dt, 1, 0, 1);
        b.wait(1, rb);
        let t_unexpected = b.time(1);

        assert_eq!(b.unexpected_fallbacks, 1);
        assert!(
            t_posted < t_unexpected,
            "offloaded pre-posted ({t_posted}) must beat unexpected host unpack ({t_unexpected})"
        );
    }

    #[test]
    fn matching_is_by_source_and_tag() {
        let dt = strided(64, 4);
        let (origin, span) = buffer_span(&dt, 1);
        let mut w = World::new(3, NicParams::with_hpus(8));
        let from2 = w.irecv(0, &dt, 1, 2, 7);
        let from1 = w.irecv(0, &dt, 1, 1, 7);
        let buf1 = pattern(span);
        let buf2: Vec<u8> = buf1.iter().map(|b| b.wrapping_add(1)).collect();
        w.isend(1, &buf1, origin, &dt, 1, 0, 7);
        w.isend(2, &buf2, origin, &dt, 1, 0, 7);
        let (got2, _) = w.wait(0, from2);
        let (got1, _) = w.wait(0, from1);
        nca_ddt::typemap::for_each_block(&dt, 1, |off, len| {
            let s = (off - origin) as usize;
            assert_eq!(&got1[s..s + len as usize], &buf1[s..s + len as usize]);
            assert_eq!(&got2[s..s + len as usize], &buf2[s..s + len as usize]);
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn wait_without_send_panics() {
        let dt = strided(8, 2);
        let mut w = World::new(2, NicParams::with_hpus(4));
        let r = w.irecv(0, &dt, 1, 1, 0);
        w.wait(0, r);
    }

    #[test]
    fn halo_exchange_2d_verified() {
        // 4 ranks in a ring exchange column halos of an 8x8 tile.
        let n = 8u32;
        let col = Datatype::vector(n, 1, n as i64, &elem::double());
        let (origin, span) = buffer_span(&col, 1);
        let ranks = 4u32;
        let mut w = World::new(ranks, NicParams::with_hpus(8));
        let bufs: Vec<Vec<u8>> = (0..ranks)
            .map(|r| {
                (0..span as usize)
                    .map(|i| ((i + r as usize * 17) % 251) as u8)
                    .collect()
            })
            .collect();
        // Everyone posts a receive from the left, sends its column right.
        let reqs: Vec<Request> = (0..ranks)
            .map(|r| w.irecv(r, &col, 1, (r + ranks - 1) % ranks, 5))
            .collect();
        for r in 0..ranks {
            let buf = bufs[r as usize].clone();
            w.isend(r, &buf, origin, &col, 1, (r + 1) % ranks, 5);
        }
        for r in 0..ranks {
            let (got, _) = w.wait(r, reqs[r as usize]);
            let left = &bufs[((r + ranks - 1) % ranks) as usize];
            nca_ddt::typemap::for_each_block(&col, 1, |off, len| {
                let s = (off - origin) as usize;
                assert_eq!(
                    &got[s..s + len as usize],
                    &left[s..s + len as usize],
                    "rank {r}"
                );
            });
        }
    }

    #[test]
    fn compute_advances_clock() {
        let mut w = World::new(1, NicParams::default());
        w.compute(0, nca_sim::us(5));
        assert_eq!(w.time(0), nca_sim::us(5));
    }
}

/// Collective helpers built on the point-to-point layer.
impl World {
    /// A datatype alltoall among all ranks: every rank contributes one
    /// `dt`-shaped message per peer (taken from `bufs[rank]`), and the
    /// call returns each rank's received buffers indexed by source.
    /// Receives are pre-posted (offloadable); clocks advance to the
    /// completion of each rank's last receive.
    pub fn alltoall(
        &mut self,
        dt: &Datatype,
        count: u32,
        bufs: &[Vec<u8>],
        tag: u32,
    ) -> Vec<Vec<(u32, Vec<u8>)>> {
        let n = self.size();
        assert_eq!(bufs.len() as u32, n, "one contribution buffer per rank");
        let (origin, _) = buffer_span(dt, count);
        // Pre-post all receives.
        let mut reqs: Vec<Vec<(u32, Request)>> = Vec::with_capacity(n as usize);
        for r in 0..n {
            let mut v = Vec::with_capacity(n as usize - 1);
            for off in 1..n {
                let src = (r + n - off) % n;
                v.push((src, self.irecv(r, dt, count, src, tag)));
            }
            reqs.push(v);
        }
        // All sends.
        for r in 0..n {
            for off in 1..n {
                let dst = (r + off) % n;
                let buf = bufs[r as usize].clone();
                self.isend(r, &buf, origin, dt, count, dst, tag);
            }
        }
        // Drain.
        reqs.into_iter()
            .enumerate()
            .map(|(r, v)| {
                v.into_iter()
                    .map(|(src, req)| {
                        let (buf, _) = self.wait(r as u32, req);
                        (src, buf)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;
    use nca_ddt::types::{elem, DatatypeExt};

    #[test]
    fn alltoall_delivers_every_pairwise_buffer() {
        let dt = Datatype::vector(128, 2, 4, &elem::double());
        let (origin, span) = buffer_span(&dt, 1);
        let ranks = 4u32;
        let mut w = World::new(ranks, NicParams::with_hpus(8));
        let bufs: Vec<Vec<u8>> = (0..ranks)
            .map(|r| {
                (0..span as usize)
                    .map(|i| ((i + 13 * r as usize) % 251) as u8)
                    .collect()
            })
            .collect();
        let got = w.alltoall(&dt, 1, &bufs, 77);
        for (r, per_src) in got.iter().enumerate() {
            assert_eq!(per_src.len(), ranks as usize - 1);
            for (src, buf) in per_src {
                nca_ddt::typemap::for_each_block(&dt, 1, |off, len| {
                    let s = (off - origin) as usize;
                    assert_eq!(
                        &buf[s..s + len as usize],
                        &bufs[*src as usize][s..s + len as usize],
                        "rank {r} from {src}"
                    );
                });
            }
        }
        // everyone's clock advanced past the transfers
        for r in 0..ranks {
            assert!(w.time(r) > 0);
        }
    }

    #[test]
    fn alltoall_preposted_receives_offload() {
        let dt = Datatype::vector(2048, 4, 8, &elem::double());
        let (_, span) = buffer_span(&dt, 1);
        let ranks = 3u32;
        let mut w = World::new(ranks, NicParams::with_hpus(8));
        let bufs: Vec<Vec<u8>> = (0..ranks)
            .map(|r| {
                (0..span as usize)
                    .map(|i| ((i + r as usize) % 251) as u8)
                    .collect()
            })
            .collect();
        let _ = w.alltoall(&dt, 1, &bufs, 1);
        // all receives were pre-posted: no unexpected-message fallbacks
        assert_eq!(w.unexpected_fallbacks, 0);
    }
}
