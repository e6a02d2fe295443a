//! The receive core's one-message case. `ReceiveSim::run` and a traffic
//! cell that admits a single offer are two sources in front of one
//! core and its one DMA engine, so on one message they must agree: the
//! offer's latency is the receive's completion time, and the landed
//! bytes are exact.

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::pack::buffer_span;
use ncmt::ddt::types::Datatype;
use ncmt::spin::nic::{ReceiveSim, RunConfig, RunReport};
use ncmt::spin::params::NicParams;
use ncmt::telemetry::Telemetry;
use ncmt::traffic::{generate_schedule, run_traffic, ArrivalProcess, TenantSpec, TrafficConfig};
use ncmt::workloads::apps::{self, AppWorkload};

const EPSILON: f64 = 0.2;

/// `ReceiveSim::run` of one message, telemetry off.
fn receive(s: Strategy, dt: &Datatype, count: u32, params: &NicParams) -> RunReport {
    let (origin, span) = buffer_span(dt, count);
    let packed = Experiment::new(dt.clone(), count, params.clone()).packed_message();
    let proc_ = s.build(dt, count, params.clone(), EPSILON, Telemetry::disabled());
    ReceiveSim::run(proc_, packed, origin, span, &RunConfig::new(params.clone()))
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
            let one = receive(s, &w.dt, w.count, &params);
            assert_eq!(t.latency.min(), Some(one.t_complete), "{what}: latency");
            assert_eq!(t.latency.max(), Some(one.t_complete), "{what}: latency");
        }
    }
}
