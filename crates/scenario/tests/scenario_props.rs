//! Property tests for the scenario schema: every generated scenario
//! round-trips parse → serialize → parse bit-for-bit, the canonical
//! serializer is a fixed point, and an unknown key injected anywhere
//! in the document is rejected with an error naming its JSON path.

use proptest::prelude::*;

use nca_core::runner::Strategy as RunStrategy;
use nca_scenario::{
    parse_scenario, FaultsSpec, Scenario, ScenarioKind, SchedulingSpec, SweepSpec, TelemetrySpec,
    TrafficSpec, WorkloadSpec,
};
use nca_spin::sched::QueueDiscipline;
use nca_traffic::ArrivalKind;

/// Pick one of a fixed set of strings (includes every character class
/// the serializer has to escape).
fn pick_str(items: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..items.len()).prop_map(move |i| items[i].to_string())
}

const NAMES: &[&str] = &[
    "sweep",
    "ci fault sweep",
    "tricky \"name\"",
    "back\\slash",
    "line\nbreak\ttab",
    "Ω-mix",
];

/// Seeds and counters must survive the JSON number domain (f64 with
/// 53-bit mantissa), so the generators stay below 2^53.
const MAX_UINT: u64 = 1 << 53;

fn arb_kind() -> impl Strategy<Value = ScenarioKind> {
    (0..ScenarioKind::ALL.len()).prop_map(|i| ScenarioKind::ALL[i])
}

fn arb_workload() -> impl Strategy<Value = Option<WorkloadSpec>> {
    prop_oneof![
        Just(None),
        (1u32..5000, 1u32..64, -64i64..128).prop_map(|(count, blocklen, stride)| Some(
            WorkloadSpec::Vector {
                count,
                blocklen,
                stride,
            }
        )),
        (1u64..10_000, 1u32..16, 0u64..MAX_UINT).prop_map(|(blocks, blocklen, seed)| Some(
            WorkloadSpec::Indexed {
                blocks,
                blocklen,
                seed,
            }
        )),
        pick_str(&["MILC/b", "COMB/a", "NAS-MG/a", "not a \"real\" app"])
            .prop_map(|label| Some(WorkloadSpec::App { label })),
        prop_oneof![Just(None), (1u64..4096).prop_map(Some)]
            .prop_map(|max_kib| Some(WorkloadSpec::Apps { max_kib })),
    ]
}

fn arb_faults() -> impl Strategy<Value = FaultsSpec> {
    (
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0u64..100_000,
        0u64..MAX_UINT,
    )
        .prop_map(|(drop, duplicate, corrupt, reorder_ns, seed)| FaultsSpec {
            drop,
            duplicate,
            corrupt,
            reorder_ns,
            seed,
        })
}

fn arb_scheduling() -> impl Strategy<Value = SchedulingSpec> {
    (
        1u64..1024,
        0.0f64..8.0,
        1u32..64,
        prop_oneof![Just(None), (0u64..MAX_UINT).prop_map(Some)],
    )
        .prop_map(|(hpus, epsilon, copies, out_of_order)| SchedulingSpec {
            hpus,
            epsilon,
            copies,
            out_of_order,
        })
}

fn arb_telemetry() -> impl Strategy<Value = TelemetrySpec> {
    (
        prop_oneof![Just(None), (1u64..(1 << 32)).prop_map(Some)],
        prop_oneof![Just(None), (1u64..1_000_000_000).prop_map(Some)],
    )
        .prop_map(|(ring_capacity, bucket_ps)| TelemetrySpec {
            ring_capacity,
            bucket_ps,
        })
}

fn arb_traffic() -> impl Strategy<Value = Option<TrafficSpec>> {
    let apps = proptest::collection::vec(
        pick_str(&["milc", "comb", "fft2d", "MILC/b", "NAS-MG/a"]),
        1..4,
    );
    let loads = proptest::collection::vec(0.05f64..2.0, 1..4);
    let disciplines = proptest::collection::vec(
        (0..QueueDiscipline::ALL.len()).prop_map(|i| QueueDiscipline::ALL[i]),
        1..4,
    );
    let knobs = (
        1u64..8,
        (0..RunStrategy::ALL.len()).prop_map(|i| RunStrategy::ALL[i]),
        (0..3usize).prop_map(|i| {
            [
                ArrivalKind::Poisson,
                ArrivalKind::LogNormal,
                ArrivalKind::Mixed,
            ][i]
        }),
        0.1f64..5.0,
    );
    let sizes = (
        1u64..32,
        1u64..128,
        1u64..1000,
        prop_oneof![Just(None), (1u64..(1 << 20)).prop_map(Some)],
        0u64..MAX_UINT,
    );
    prop_oneof![
        Just(None),
        ((apps, loads, disciplines), knobs, sizes).prop_map(
            |(
                (apps, loads, disciplines),
                (tenants, strategy, arrival, sigma),
                (flows_per_tenant, rss_entries, horizon_us, buffer_kib, seed),
            )| {
                Some(TrafficSpec {
                    apps,
                    loads,
                    disciplines,
                    tenants,
                    strategy,
                    arrival,
                    sigma,
                    flows_per_tenant,
                    rss_entries,
                    horizon_us,
                    buffer_kib,
                    seed,
                })
            }
        ),
    ]
}

fn arb_sweep() -> impl Strategy<Value = SweepSpec> {
    (
        1u64..8,
        0u64..MAX_UINT,
        proptest::collection::vec(0.0f64..2.0, 1..5),
    )
        .prop_map(|(seeds, seed0, scales)| SweepSpec {
            seeds,
            seed0,
            scales,
        })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (pick_str(NAMES), arb_kind(), arb_workload()),
        (arb_faults(), arb_scheduling(), arb_telemetry()),
        (arb_traffic(), arb_sweep()),
    )
        .prop_map(
            |((name, kind, workload), (faults, scheduling, telemetry), (traffic, sweep))| {
                let mut scn = Scenario::new(&name, kind);
                scn.workload = workload;
                scn.faults = faults;
                scn.scheduling = scheduling;
                scn.telemetry = telemetry;
                scn.traffic = traffic;
                scn.sweep = sweep;
                scn
            },
        )
}

/// Insert an unknown key right after the opening brace of `section`
/// (the whole document when `section` is empty).
fn inject_unknown(text: &str, section: &str) -> Option<String> {
    let brace = if section.is_empty() {
        text.find('{')?
    } else {
        let at = text.find(&format!("\"{section}\":"))?;
        at + text[at..].find('{')?
    };
    let rest = &text[brace + 1..];
    // No trailing comma when the section was empty (`{}`).
    let sep = if rest.trim_start().starts_with('}') {
        ""
    } else {
        ","
    };
    Some(format!("{} \"zz_unknown\": 1{sep}{rest}", &text[..=brace]))
}

proptest! {
    #[test]
    fn scenario_round_trips_through_json(scn in arb_scenario()) {
        let text = scn.to_json();
        let back = parse_scenario(&text)
            .unwrap_or_else(|e| panic!("serialized scenario must parse: {e}\n{text}"));
        prop_assert_eq!(&back, &scn);
        // The serializer is canonical: a second trip is a fixed point.
        prop_assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_path(
        scn in arb_scenario(),
        section in (0..6usize),
    ) {
        let names = ["", "faults", "scheduling", "telemetry", "traffic", "sweep"];
        let section = names[section];
        let Some(mutated) = inject_unknown(&scn.to_json(), section) else {
            // Optional section absent from this document — nothing to mutate.
            return Ok(());
        };
        let err = parse_scenario(&mutated)
            .expect_err("a document with an unknown key must not parse");
        prop_assert!(err.contains("zz_unknown"), "error names the key: {}", &err);
        prop_assert!(err.contains("unknown key"), "error says why: {}", &err);
        let path = if section.is_empty() {
            "scenario.zz_unknown".to_string()
        } else {
            format!("scenario.{section}.zz_unknown")
        };
        prop_assert!(err.contains(&path), "error names the path {}: {}", &path, &err);
    }
}
