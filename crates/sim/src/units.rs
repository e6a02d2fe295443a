//! Time and bandwidth units.
//!
//! All simulated time is picoseconds; these helpers keep the conversion
//! arithmetic in one place (and exact where it can be).

use crate::engine::Time;

/// Picoseconds (identity, for symmetry).
pub const fn ps(v: u64) -> Time {
    v
}

/// Nanoseconds → picoseconds.
pub const fn ns(v: u64) -> Time {
    v * 1_000
}

/// Microseconds → picoseconds.
pub const fn us(v: u64) -> Time {
    v * 1_000_000
}

/// Milliseconds → picoseconds.
pub const fn ms(v: u64) -> Time {
    v * 1_000_000_000
}

/// Picoseconds → fractional microseconds (for reporting).
pub fn to_us(t: Time) -> f64 {
    t as f64 / 1e6
}

/// A link/memory bandwidth, stored as picoseconds per byte (f64 to allow
/// non-integral rates; serialization times are rounded to whole ps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    ps_per_byte: f64,
}

impl Bandwidth {
    /// From Gbit/s (e.g. the paper's 200 Gbit/s line rate).
    pub fn gbit_per_s(g: f64) -> Bandwidth {
        // 1 Gbit/s = 0.125 GB/s = 8 ps/byte per Gbit.
        Bandwidth {
            ps_per_byte: 8_000.0 / g,
        }
    }

    /// From GiB/s (e.g. the paper's 50 GiB/s NIC memory).
    pub fn gib_per_s(g: f64) -> Bandwidth {
        let bytes_per_ps = g * (1u64 << 30) as f64 / 1e12;
        Bandwidth {
            ps_per_byte: 1.0 / bytes_per_ps,
        }
    }

    /// Serialization time for `bytes` at this rate, rounded up to 1 ps
    /// minimum for nonzero transfers.
    pub fn time_for(&self, bytes: u64) -> Time {
        if bytes == 0 {
            return 0;
        }
        ((bytes as f64 * self.ps_per_byte).round() as u64).max(1)
    }

    /// The rate expressed back in Gbit/s (for reporting).
    pub fn as_gbit_per_s(&self) -> f64 {
        8_000.0 / self.ps_per_byte
    }

    /// Scale the bandwidth by a factor (e.g. per-channel share).
    pub fn scaled(&self, factor: f64) -> Bandwidth {
        Bandwidth {
            ps_per_byte: self.ps_per_byte / factor,
        }
    }
}

/// Throughput in Gbit/s from bytes moved over a time span.
pub fn throughput_gbit(bytes: u64, elapsed: Time) -> f64 {
    if elapsed == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / (elapsed as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(ns(1), 1_000);
        assert_eq!(us(3), 3_000_000);
        assert_eq!(ms(2), 2_000_000_000);
        assert!((to_us(us(7)) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn line_rate_serialization() {
        let link = Bandwidth::gbit_per_s(200.0);
        // 200 Gbit/s = 25 GB/s = 40 ps/byte
        assert_eq!(link.time_for(1), 40);
        assert_eq!(link.time_for(2048), 2048 * 40);
        assert!((link.as_gbit_per_s() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn gib_bandwidth() {
        let mem = Bandwidth::gib_per_s(50.0);
        // 50 GiB/s ≈ 53.687 GB/s → ≈ 18.6 ps/byte
        let t = mem.time_for(1 << 20);
        let expect = (1u64 << 20) as f64 / (50.0 * (1u64 << 30) as f64) * 1e12;
        assert!((t as f64 - expect).abs() / expect < 0.01);
    }

    #[test]
    fn throughput_round_trip() {
        let link = Bandwidth::gbit_per_s(100.0);
        let bytes = 1_000_000u64;
        let t = link.time_for(bytes);
        assert!((throughput_gbit(bytes, t) - 100.0).abs() < 0.1);
    }

    #[test]
    fn zero_bytes_take_zero_time() {
        assert_eq!(Bandwidth::gbit_per_s(200.0).time_for(0), 0);
    }
}
