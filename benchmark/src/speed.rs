//! Host-speed normalisation of the end-to-end times.
//!
//! The benchmark runs on a few vCPUs of a shared host. Other tenants'
//! load slows this machine by up to a third for minutes at a time, and
//! microsecond work on one vCPU by up to 1.7x for seconds at a time, so
//! raw times from invocations a few minutes apart spread by 10–25%
//! however many runs each takes. A fixed probe slows with them. Dividing a time by the
//! probe's time, then multiplying by the probe's time on the reference
//! box, removes about half of that spread and leaves times in
//! reference-box seconds. The probe is an integer hash loop with no
//! memory traffic: on this host it tracked the plans and set-up better
//! than a load-latency walk. It touches no simulator code, so a change
//! to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the reference box (2-vCPU x86-64 VM, 2.0 GHz
/// Xeon), in seconds. Only the unit of the normalised times depends on
/// it; changing it rescales every result.
pub const REFERENCE_PROBE_S: f64 = 0.004;

/// splitmix64 rounds per probe.
const ROUNDS: u64 = 2_000_000;

/// Run the probe on the calling thread; its time in seconds.
pub fn probe_here() -> f64 {
    let t0 = Instant::now();
    black_box(splitmix_rounds(black_box(0), ROUNDS));
    t0.elapsed().as_secs_f64()
}

/// Run the probe once on each of `workers` threads at the same time;
/// the mean time per thread, in seconds. The threads are plain scoped
/// threads, not `Pool::par_map`: jobs this short finish together, and
/// the pool's steal path then deadlocks within minutes.
pub fn probe(workers: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..workers).map(|_| s.spawn(probe_here)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("the probe loop cannot panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// XOR of `rounds` successive splitmix64 outputs from `seed`.
fn splitmix_rounds(seed: u64, rounds: u64) -> u64 {
    let (mut state, mut acc) = (seed, 0u64);
    for _ in 0..rounds {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_its_reference_output() {
        // The first splitmix64 output from state 0.
        assert_eq!(splitmix_rounds(0, 1), 0xe220_a839_7b1d_cdaf);
    }
}
