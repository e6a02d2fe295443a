//! DRAM-traffic replay of host-based unpacking (Fig. 17 methodology).
//!
//! Host-based receive of a non-contiguous message moves, per the paper:
//!
//! 1. the packed message, DMA-written by the NIC into a staging buffer
//!    (message size, NIC → DRAM), then
//! 2. everything the CPU's unpack loop exchanges with DRAM: reading the
//!    packed stream back (cold), fetching destination lines
//!    (write-allocate), and writing dirty destination lines back —
//!    "measured as number of last-level cache misses times the cache
//!    line size".
//!
//! NIC-offloaded unpacking moves only (1), written directly to its final
//! location. [`unpack_traffic`] replays the unpack access pattern of a
//! datatype through the LLC model and reports both volumes.

use nca_ddt::dataloop::compile_cached;
use nca_ddt::segment::Segment;
use nca_ddt::sink::BlockSink;
use nca_ddt::types::Datatype;

use crate::cache::{Cache, CacheConfig};

/// Traffic volumes for receiving + unpacking one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficReport {
    /// Message (packed) size in bytes.
    pub message_bytes: u64,
    /// Host-based total: NIC DMA of the packed message + LLC miss traffic
    /// of the unpack loop.
    pub host_bytes: u64,
    /// Offloaded total: the NIC writes each block to its final location —
    /// exactly the message size.
    pub offload_bytes: u64,
    /// LLC statistics of the unpack replay.
    pub unpack_misses: u64,
    /// Dirty lines written back during/after the unpack replay.
    pub unpack_writebacks: u64,
}

impl TrafficReport {
    /// Host/offload traffic ratio (the paper reports a 3.8× geometric
    /// mean across its application workloads).
    pub fn ratio(&self) -> f64 {
        self.host_bytes as f64 / self.offload_bytes as f64
    }
}

struct UnpackReplay<'c> {
    cache: &'c mut Cache,
    src_base: u64,
    dst_base: u64,
}

impl BlockSink for UnpackReplay<'_> {
    fn block(&mut self, buf_off: i64, len: u64, stream_off: u64) {
        // The unpack loop reads the packed bytes and writes them to the
        // destination (write-allocate: the destination line is fetched on
        // a write miss).
        self.cache
            .access_range(self.src_base + stream_off, len, false);
        self.cache
            .access_range((self.dst_base as i64 + buf_off) as u64, len, true);
    }
}

/// Replay a cold-cache unpack of `count` copies of `dt` and report the
/// DRAM traffic of host-based vs offloaded receive.
pub fn unpack_traffic(dt: &Datatype, count: u32, cfg: CacheConfig) -> TrafficReport {
    let dl = compile_cached(dt, count);
    let msg = dl.size;
    let mut cache = Cache::new(cfg);
    // Address layout: destination buffer at 0 (+slack for negative lb),
    // packed staging buffer far away (no aliasing).
    let dst_base = 1u64 << 33;
    let src_base = 1u64 << 34;
    {
        let mut replay = UnpackReplay {
            cache: &mut cache,
            src_base,
            dst_base,
        };
        let mut seg = Segment::new(dl);
        seg.advance(u64::MAX, &mut replay);
    }
    // Account resident dirty lines: they will eventually reach DRAM.
    cache.flush();
    let line = cfg.line_size;
    let unpack_traffic = cache.stats.dram_traffic_bytes(line);
    TrafficReport {
        message_bytes: msg,
        host_bytes: msg + unpack_traffic,
        offload_bytes: msg,
        unpack_misses: cache.stats.misses,
        unpack_writebacks: cache.stats.writebacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_ddt::types::{elem, Datatype, DatatypeExt};

    fn llc() -> CacheConfig {
        CacheConfig::i7_4770_llc()
    }

    #[test]
    fn contiguous_unpack_traffic_about_3x() {
        // Contiguous copy: read src (1x) + write dst (fetch 1x + writeback
        // 1x) => host ≈ msg + 3·msg.
        let dt = Datatype::contiguous(1 << 20, &elem::byte());
        let r = unpack_traffic(&dt, 1, llc());
        assert_eq!(r.message_bytes, 1 << 20);
        assert_eq!(r.offload_bytes, 1 << 20);
        let x = r.host_bytes as f64 / r.message_bytes as f64;
        assert!((3.8..=4.2).contains(&x), "expected ~4x total, got {x}");
    }

    #[test]
    fn sparse_small_blocks_amplify_traffic() {
        // 4-byte blocks, 64-byte stride: every block touches a distinct
        // destination line -> 64B fetched + 64B written back per 4B of
        // payload.
        let dt = Datatype::vector(1 << 16, 1, 16, &elem::int());
        let r = unpack_traffic(&dt, 1, llc());
        let x = r.ratio();
        assert!(x > 10.0, "sparse unpack should amplify traffic, got {x}");
    }

    #[test]
    fn dense_blocks_close_to_contiguous() {
        // 2 KiB blocks: destination lines fully written, amplification
        // only from write-allocate fetches.
        let dt = Datatype::vector(512, 256, 512, &elem::double());
        let r = unpack_traffic(&dt, 1, llc());
        let x = r.ratio();
        assert!((3.5..=4.5).contains(&x), "got {x}");
    }

    #[test]
    fn offload_volume_is_message_size() {
        let dt = Datatype::vector(100, 3, 9, &elem::float());
        let r = unpack_traffic(&dt, 4, llc());
        assert_eq!(r.offload_bytes, dt.size * 4);
    }
}
