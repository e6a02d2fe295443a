//! The receive core's one-message case. `ReceiveSim::run`, a concurrent
//! receive of a single message and a traffic cell that admits a single
//! offer are three sources in front of one core, so on one message they
//! must agree: same first byte, same completion time, same landed bytes.

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::pack::buffer_span;
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::spin::multi::{run_concurrent, MessageSpec};
use ncmt::spin::nic::{EngineMode, ReceiveSim, RunConfig, RunReport};
use ncmt::spin::params::NicParams;
use ncmt::telemetry::Telemetry;
use ncmt::traffic::{generate_schedule, run_traffic, ArrivalProcess, TenantSpec, TrafficConfig};
use ncmt::workloads::apps::{self, AppWorkload};

const EPSILON: f64 = 0.2;

/// The `tests/dma_engine_equiv.rs` workloads: fine blocks, wide blocks
/// and a multi-count message.
fn workloads() -> Vec<(Datatype, u32)> {
    vec![
        (Datatype::vector(512, 16, 32, &elem::double()), 1),
        (Datatype::vector(64, 256, 512, &elem::double()), 1),
        (Datatype::vector(128, 4, 8, &elem::double()), 3),
    ]
}

fn receive(
    s: Strategy,
    dt: &Datatype,
    count: u32,
    params: &NicParams,
    engine: EngineMode,
) -> RunReport {
    let (origin, span) = buffer_span(dt, count);
    let packed = Experiment::new(dt.clone(), count, params.clone()).packed_message();
    let proc_ = s.build(dt, count, params.clone(), EPSILON, Telemetry::disabled());
    let mut cfg = RunConfig::new(params.clone());
    cfg.engine = engine;
    ReceiveSim::run(proc_, packed, origin, span, &cfg)
}

#[test]
fn one_message_concurrent_receive_equals_receive_sim() {
    let params = NicParams::with_hpus(16);
    for (dt, count) in workloads() {
        let (origin, span) = buffer_span(&dt, count);
        let packed = Experiment::new(dt.clone(), count, params.clone()).packed_message();
        for s in Strategy::ALL {
            let spec = MessageSpec {
                packed: packed.clone().into(),
                proc: s.build(&dt, count, params.clone(), EPSILON, Telemetry::disabled()),
                host_origin: origin,
                host_span: span,
                start_time: 0,
            };
            let multi = run_concurrent(vec![spec], &params).remove(0);
            for engine in [EngineMode::Auto, EngineMode::Event] {
                let what = format!("{} {:?} count {count} {engine:?}", s.label(), dt.size);
                let one = receive(s, &dt, count, &params, engine);
                assert_eq!(multi.t_first_byte, one.t_first_byte, "{what}: t_first_byte");
                assert_eq!(multi.t_complete, one.t_complete, "{what}: t_complete");
                assert_eq!(multi.host_buf, *one.host_buf, "{what}: host_buf");
            }
        }
    }
}

/// One workload from each of six applications, small enough to fit
/// the NIC packet buffer so the single offer is admitted.
fn traffic_workloads() -> Vec<AppWorkload> {
    vec![
        apps::comb().remove(0),
        apps::milc().remove(0),
        apps::nas_mg().remove(0),
        apps::nas_lu().remove(0),
        apps::sw4_x().remove(0),
        apps::lammps().remove(0),
    ]
}

#[test]
fn one_offer_traffic_latency_equals_receive_sim_completion() {
    let params = NicParams::with_hpus(8);
    for w in traffic_workloads() {
        for s in Strategy::ALL {
            let tenant = TenantSpec {
                name: "t0".into(),
                arrival: ArrivalProcess::poisson_for_load(1e6, 1, 0.5),
                mix: vec![w.clone()],
                strategy: s,
            };
            let mut cfg = TrafficConfig::new(params.clone(), 7, vec![tenant]);
            cfg.epsilon = EPSILON;
            cfg.horizon_ps = generate_schedule(&cfg)[0].arrival_ps;
            let what = format!("{} {}", w.label(), s.label());
            let r = run_traffic(&cfg);
            let t = &r.tenants[0];
            assert_eq!((t.offered, t.admitted, t.completed), (1, 1, 1), "{what}");
            assert!(r.byte_exact, "{what}: byte_exact");
            let one = receive(s, &w.dt, w.count, &params, EngineMode::Event);
            assert_eq!(t.latency.min(), Some(one.t_complete), "{what}: latency");
            assert_eq!(t.latency.max(), Some(one.t_complete), "{what}: latency");
        }
    }
}
