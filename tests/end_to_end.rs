//! Cross-crate integration tests: real application datatypes received
//! end-to-end through the simulated NIC under every strategy, with
//! byte-exact verification and timing invariants.

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::dataloop::compile;
use ncmt::ddt::pack::{buffer_span, pack};
use ncmt::spin::params::NicParams;
use ncmt::workloads::apps;

fn small_workloads() -> Vec<ncmt::workloads::AppWorkload> {
    apps::all_workloads()
        .into_iter()
        .filter(|w| w.msg_bytes() <= 192 << 10)
        .collect()
}

#[test]
fn every_strategy_unpacks_every_small_app_datatype() {
    let ws = small_workloads();
    assert!(
        ws.len() >= 10,
        "need a representative sample, got {}",
        ws.len()
    );
    for w in &ws {
        let mut exp = Experiment::new(w.dt.clone(), w.count, NicParams::with_hpus(16));
        exp.verify = true; // Experiment::run panics on buffer mismatch
        for s in Strategy::ALL {
            let r = exp.run(s);
            assert!(
                r.t_complete > r.t_first_byte,
                "{} / {}: time must advance",
                w.label(),
                s.label()
            );
            // All message bytes must have crossed the PCIe bus.
            assert_eq!(r.dma_bytes, w.msg_bytes(), "{} / {}", w.label(), s.label());
        }
    }
}

#[test]
fn packed_message_is_the_span_pattern_packed() {
    // Verification unpacks the very bytes it was handed, so a wrong
    // payload would pass every receive check: pin the block-wise
    // generator to `pack` over the materialized span pattern.
    let mut checked = 0;
    for w in apps::all_workloads() {
        let (origin, span) = buffer_span(&w.dt, w.count);
        if span > 16 << 20 {
            continue;
        }
        let src: Vec<u8> = (0..span as usize).map(|i| (i * 31 % 251) as u8).collect();
        let exp = Experiment::new(w.dt.clone(), w.count, NicParams::with_hpus(16));
        assert_eq!(
            exp.packed_message(),
            pack(&w.dt, w.count, &src, origin).unwrap(),
            "{}",
            w.label()
        );
        checked += 1;
    }
    assert!(checked >= 30, "only {checked} workloads checked");
}

#[test]
fn out_of_order_delivery_is_correct_for_all_strategies() {
    for w in small_workloads().into_iter().take(6) {
        for seed in [5u64, 23] {
            let mut exp = Experiment::new(w.dt.clone(), w.count, NicParams::with_hpus(8));
            exp.out_of_order = Some(seed);
            exp.verify = true;
            for s in Strategy::ALL {
                exp.run(s); // panics on corruption
            }
        }
    }
}

#[test]
fn offload_beats_host_on_coarse_grained_types() {
    // For block sizes well above the Fig. 8 crossover, every offloaded
    // strategy except possibly RO-CP/HPU-local must beat the host.
    use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
    let dt = Datatype::vector(512, 256, 512, &elem::double()); // 1 MiB, 2 KiB blocks
    let exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
    let host = exp.run_host().processing_time;
    for s in [Strategy::Specialized, Strategy::RwCp] {
        let t = exp.run(s).processing_time();
        assert!(t < host, "{} ({t}) must beat host ({host})", s.label());
    }
}

#[test]
fn host_beats_offload_on_pathological_tiny_blocks() {
    // The Fig. 8 crossover: 4-byte blocks make offload lose.
    use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
    let dt = Datatype::vector(65536, 1, 2, &elem::int()); // 256 KiB of 4 B blocks
    let mut exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
    exp.verify = false;
    let host = exp.run_host().processing_time;
    let off = exp.run(Strategy::RwCp).processing_time();
    assert!(
        host < off,
        "host ({host}) must beat RW-CP ({off}) at 4 B blocks"
    );
}

#[test]
fn strategy_ordering_matches_fig8_at_moderate_gamma() {
    use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
    // γ = 16 (128 B blocks), 512 KiB message.
    let dt = Datatype::vector(4096, 16, 32, &elem::double());
    let mut exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
    exp.verify = false;
    let spec = exp.run(Strategy::Specialized).processing_time();
    let rwcp = exp.run(Strategy::RwCp).processing_time();
    let rocp = exp.run(Strategy::RoCp).processing_time();
    let hpul = exp.run(Strategy::HpuLocal).processing_time();
    assert!(spec <= rwcp, "specialized ≤ RW-CP");
    assert!(rwcp <= rocp, "RW-CP ≤ RO-CP");
    assert!(rocp <= hpul, "RO-CP ≤ HPU-local");
}

#[test]
fn simulation_is_deterministic() {
    let w = &small_workloads()[2];
    let exp = Experiment::new(w.dt.clone(), w.count, NicParams::with_hpus(16));
    let a = exp.run(Strategy::RwCp);
    let b = exp.run(Strategy::RwCp);
    assert_eq!(a.t_complete, b.t_complete);
    assert_eq!(a.dma_writes, b.dma_writes);
    assert_eq!(a.host_buf, b.host_buf);
}

#[test]
fn gamma_agrees_between_workload_and_experiment() {
    for w in small_workloads().into_iter().take(8) {
        let exp = Experiment::new(w.dt.clone(), w.count, NicParams::with_hpus(16));
        let dl = compile(&w.dt, w.count);
        assert!(dl.size > 0);
        assert!((exp.gamma() - w.gamma(2048)).abs() < 1e-9);
    }
}

#[test]
fn more_hpus_never_slow_down_general_strategies() {
    use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
    let dt = Datatype::vector(2048, 32, 64, &elem::double()); // 512 KiB
    let mut t_prev = u64::MAX;
    for hpus in [2usize, 8, 32] {
        let mut exp = Experiment::new(dt.clone(), 1, NicParams::with_hpus(hpus));
        exp.verify = false;
        let t = exp.run(Strategy::RwCp).processing_time();
        assert!(t <= t_prev, "RW-CP slower with {hpus} HPUs: {t} > {t_prev}");
        t_prev = t;
    }
}
