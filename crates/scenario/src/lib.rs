//! Declarative scenario configs for the NCMT reproduction: one JSON
//! document names workload × traffic × faults × scheduling × telemetry
//! × sweep, a strict hand-rolled parser rejects anything it does not
//! understand (unknown keys are hard errors naming the JSON path), and
//! the compiler turns the result into deterministic pool jobs whose
//! artifacts are byte-identical at any `--jobs` value. `ncmt_cli run
//! <scenario.json>` is the one experiment entry point; its `--set
//! path=value` overrides edit the document before the parser runs.
//!
//! Layers:
//! - [`schema`] — the scenario document as plain data with defaults
//!   and a canonical serializer.
//! - [`parse_scenario`] — strict JSON → [`Scenario`];
//!   [`parse_scenario_with`] applies `--set` overrides first.
//! - [`exec`] — [`Scenario::compile`] into a [`exec::Plan`] and run it.
//! - [`fig16`] — the Fig. 16 application-speedup table (moved here
//!   from `nca-bench`, which re-exports it).
//! - [`ddt_compare`] — dataloop/kernels engine vs naive element-wise
//!   manual copy, per application datatype.

pub mod ddt_compare;
pub mod exec;
pub mod fig16;
mod parse;
pub mod schema;

pub use exec::{Artifact, Outcome, Plan, RunOptions, StrategyPlan};
pub use parse::{parse_scenario, parse_scenario_with, parse_strategy};
pub use schema::{
    FaultsSpec, Scenario, ScenarioKind, SchedulingSpec, SweepSpec, TelemetrySpec, TrafficSpec,
    WorkloadSpec, VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_for_every_kind() {
        for kind in ScenarioKind::ALL {
            let mut scn = Scenario::new("rt", kind);
            if matches!(kind, ScenarioKind::Traffic) {
                scn.traffic = Some(TrafficSpec::default());
            }
            if matches!(kind, ScenarioKind::StrategyRun | ScenarioKind::FaultSweep) {
                scn.workload = Some(WorkloadSpec::Vector {
                    count: 512,
                    blocklen: 16,
                    stride: 32,
                });
            }
            let text = scn.to_json();
            let back = parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(back, scn, "{} round trip", kind.label());
        }
    }

    #[test]
    fn unknown_top_level_key_is_rejected_with_its_path() {
        let err =
            parse_scenario(r#"{ "name": "x", "version": 1, "kind": "fig16", "workloads": {} }"#)
                .unwrap_err();
        assert!(err.contains("scenario.workloads"), "{err}");
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn nested_unknown_key_names_the_full_path() {
        let err = parse_scenario(
            r#"{ "name": "x", "version": 1, "kind": "traffic",
                 "traffic": { "loadz": [0.5] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("scenario.traffic.loadz"), "{err}");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let err = parse_scenario(r#"{ "name": "x", "version": 2, "kind": "fig16" }"#).unwrap_err();
        assert!(err.contains("scenario.version"), "{err}");
    }

    #[test]
    fn bad_array_entries_name_their_index() {
        let err = parse_scenario(
            r#"{ "name": "x", "version": 1, "kind": "traffic",
                 "traffic": { "loads": [0.5, -1.0] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("scenario.traffic.loads[1]"), "{err}");
    }

    #[test]
    fn fault_sweep_without_rates_fails_to_compile() {
        let mut scn = Scenario::new("s", ScenarioKind::FaultSweep);
        scn.workload = Some(WorkloadSpec::Vector {
            count: 512,
            blocklen: 16,
            stride: 32,
        });
        let err = scn.compile().unwrap_err();
        assert!(err.contains("scenario.faults"), "{err}");
    }

    #[test]
    fn traffic_section_is_rejected_on_other_kinds() {
        let mut scn = Scenario::new("s", ScenarioKind::Fig16);
        scn.traffic = Some(TrafficSpec::default());
        let err = scn.compile().unwrap_err();
        assert!(err.contains("scenario.traffic"), "{err}");
    }

    const VECTOR_RUN: &str = r#"{ "name": "x", "version": 1, "kind": "strategy-run",
        "workload": { "kind": "vector", "count": 512, "blocklen": 16, "stride": 32 } }"#;

    #[test]
    fn set_overrides_a_nested_scalar() {
        let scn = parse_scenario_with(VECTOR_RUN, &["workload.count=4096"]).unwrap();
        let want = WorkloadSpec::Vector {
            count: 4096,
            blocklen: 16,
            stride: 32,
        };
        assert_eq!(scn.workload, Some(want));
    }

    #[test]
    fn set_takes_an_array_value() {
        let base = r#"{ "name": "t", "version": 1, "kind": "traffic", "traffic": {} }"#;
        let scn = parse_scenario_with(base, &["traffic.loads=[0.5, 1.5]"]).unwrap();
        assert_eq!(scn.traffic.unwrap().loads, vec![0.5, 1.5]);
    }

    #[test]
    fn set_takes_a_bare_string_and_a_whole_object() {
        let scn = parse_scenario_with(
            VECTOR_RUN,
            &[
                "name=renamed-run",
                r#"workload={"kind": "app", "label": "MILC/b"}"#,
            ],
        )
        .unwrap();
        assert_eq!(scn.name, "renamed-run");
        let want = WorkloadSpec::App {
            label: "MILC/b".to_string(),
        };
        assert_eq!(scn.workload, Some(want));
    }

    #[test]
    fn set_creates_a_missing_section() {
        let scn = parse_scenario_with(VECTOR_RUN, &["faults.drop=0.1", "sweep.seeds=3"]).unwrap();
        assert_eq!(scn.faults.drop, 0.1);
        assert_eq!(scn.faults.seed, FaultsSpec::default().seed);
        assert_eq!(scn.sweep.seeds, 3);
        // Later overrides win.
        let scn =
            parse_scenario_with(VECTOR_RUN, &["scheduling.hpus=4", "scheduling.hpus=8"]).unwrap();
        assert_eq!(scn.scheduling.hpus, 8);
    }

    #[test]
    fn set_of_an_unknown_key_gets_the_parsers_error() {
        let err = parse_scenario_with(VECTOR_RUN, &["workload.cuont=5"]).unwrap_err();
        assert!(
            err.contains("scenario.workload.cuont: unknown key"),
            "{err}"
        );
    }

    #[test]
    fn malformed_set_names_the_argument() {
        for (set, why) in [
            ("workload.count", "expected path=value"),
            (
                "workload.count.x=1",
                "scenario.workload.count is not an object",
            ),
            ("name.first=a", "scenario.name is not an object"),
            ("workload..count=1", "empty key"),
            ("=1", "empty key"),
        ] {
            let err = parse_scenario_with(VECTOR_RUN, &[set]).unwrap_err();
            assert!(err.starts_with(&format!("--set {set}: ")), "{err}");
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn sweep_expansion_is_seed_major() {
        let sweep = SweepSpec {
            seeds: 2,
            seed0: 5,
            scales: vec![0.0, 1.0],
        };
        assert_eq!(sweep.expand(), vec![(5, 0.0), (5, 1.0), (6, 0.0), (6, 1.0)]);
    }
}
