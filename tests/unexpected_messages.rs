//! End-to-end unexpected-message handling (paper Sec. 3.2.6): offloaded
//! datatype processing is impossible before the receive is posted, so
//! overflow-matched messages land packed and the host unpacks later.

use ncmt::core::costmodel::HostCostModel;
use ncmt::core::runner::Strategy;
use ncmt::ddt::dataloop::compile;
use ncmt::ddt::pack::{buffer_span, pack, unpack};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::portals::matching::{MatchEntry, MatchingUnit};
use ncmt::spin::nic::{MsgPath, PortalsSetup, ReceiveSim, RunConfig};
use ncmt::spin::params::NicParams;
use ncmt::telemetry::Telemetry;

fn me(bits: u64, exec_ctx: Option<u32>, ignore: u64) -> MatchEntry {
    MatchEntry {
        id: 0,
        match_bits: bits,
        ignore_bits: ignore,
        start: 0,
        length: 1 << 22,
        exec_ctx,
        use_once: false,
    }
}

#[test]
fn expected_ddt_message_processes_on_the_spin_path() {
    let dt = Datatype::vector(1024, 8, 16, &elem::double());
    let (origin, span) = buffer_span(&dt, 1);
    let src: Vec<u8> = (0..span as usize).map(|i| (i % 251) as u8).collect();
    let packed = pack(&dt, 1, &src, origin).unwrap();
    let params = NicParams::with_hpus(16);

    let mut mu = MatchingUnit::new();
    mu.append_priority(me(0xAA, Some(1), 0));
    let cfg = RunConfig {
        params: params.clone(),
        out_of_order: None,
        record_dma_history: false,
        engine: ncmt::spin::nic::EngineMode,
        portals: Some(PortalsSetup {
            matching: mu,
            match_bits: 0xAA,
        }),
        telemetry: Telemetry::disabled(),
        faults: ncmt::sim::FaultSpec::inert(),
        reliability: ncmt::spin::params::ReliabilityParams::default(),
    };
    let proc_ = Strategy::RwCp.build(&dt, 1, params, 0.2, Telemetry::disabled());
    let report = ReceiveSim::run(proc_, packed.clone(), origin, span, &cfg);
    assert_eq!(report.path, MsgPath::Spin);
    // handler-scattered result equals the reference unpack
    let mut expect = vec![0u8; span as usize];
    unpack(&dt, 1, &packed, &mut expect, origin).unwrap();
    assert_eq!(report.host_buf, expect);
}

#[test]
fn unexpected_ddt_message_lands_packed_and_host_unpack_finishes_later() {
    let dt = Datatype::vector(1024, 8, 16, &elem::double());
    let (origin, span) = buffer_span(&dt, 1);
    let src: Vec<u8> = (0..span as usize).map(|i| (i % 251) as u8).collect();
    let packed = pack(&dt, 1, &src, origin).unwrap();
    let params = NicParams::with_hpus(16);

    // Only an overflow wildcard matches: the message is unexpected.
    let mut mu = MatchingUnit::new();
    mu.append_priority(me(0x55, Some(1), 0)); // wrong bits
    mu.append_overflow(me(0, None, !0)); // wildcard overflow buffer
    let cfg = RunConfig {
        params: params.clone(),
        out_of_order: None,
        record_dma_history: false,
        engine: ncmt::spin::nic::EngineMode,
        portals: Some(PortalsSetup {
            matching: mu,
            match_bits: 0xAA,
        }),
        telemetry: Telemetry::disabled(),
        faults: ncmt::sim::FaultSpec::inert(),
        reliability: ncmt::spin::params::ReliabilityParams::default(),
    };
    let proc_ = Strategy::RwCp.build(&dt, 1, params.clone(), 0.2, Telemetry::disabled());
    // Overflow landing is contiguous: the buffer receives the PACKED
    // stream, not the scattered layout.
    let report = ReceiveSim::run(proc_, packed.clone(), 0, packed.len() as u64, &cfg);
    assert_eq!(report.path, MsgPath::Unexpected);
    assert_eq!(
        report.host_buf, packed,
        "overflow buffer holds packed bytes"
    );
    assert!(report.handler_costs.is_empty(), "no DDT handlers ran");

    // The eventual receive must fall back to the host unpack; total time
    // = landing + host unpack, which exceeds the offloaded path.
    let host = HostCostModel::default();
    let dl = compile(&dt, 1);
    let t_unexpected = report.processing_time() + host.unpack_time(dl.size, dl.blocks);

    let mut mu2 = MatchingUnit::new();
    mu2.append_priority(me(0xAA, Some(1), 0));
    let cfg2 = RunConfig {
        params: params.clone(),
        out_of_order: None,
        record_dma_history: false,
        engine: ncmt::spin::nic::EngineMode,
        portals: Some(PortalsSetup {
            matching: mu2,
            match_bits: 0xAA,
        }),
        telemetry: Telemetry::disabled(),
        faults: ncmt::sim::FaultSpec::inert(),
        reliability: ncmt::spin::params::ReliabilityParams::default(),
    };
    let proc2 = Strategy::RwCp.build(&dt, 1, params, 0.2, Telemetry::disabled());
    let offloaded = ReceiveSim::run(proc2, packed, origin, span, &cfg2);
    assert!(
        offloaded.processing_time() < t_unexpected,
        "offloaded {} must beat unexpected+host-unpack {}",
        offloaded.processing_time(),
        t_unexpected
    );
}
