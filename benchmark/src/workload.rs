//! The four workloads: which scenario each runs, why, and what its
//! artifact must look like.

use std::time::Duration;

use nca_telemetry::report::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig16,
    Traffic,
    FaultSweep,
    DdtHostCompare,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Median `--jobs 2` wall time of one run on a 2-core x86-64 box;
    /// the watchdog allows twenty times this.
    pub expected_s: f64,
    /// Whether the scenario takes the seed (the others have fixed
    /// inputs and record the seed without using it).
    pub seeded: bool,
    /// FNV-1a 64 of the seed-1 artifact.
    digest: &'static str,
}

pub const ALL: [Workload; 4] = [
    // The paper's headline figure: 36 application DDTs of at most
    // 512 KiB through RW-CP, Specialized, host unpack and iovec, with
    // telemetry off and the eager DMA engine.
    Workload {
        name: "fig16",
        kind: Kind::Fig16,
        expected_s: 1.0,
        seeded: false,
        digest: include_str!("../expected/fig16.seed1.digest"),
    },
    // The open-loop multi-tenant service question: ~22k offers through
    // the NIC with streaming telemetry and the event-driven engine.
    Workload {
        name: "traffic",
        kind: Kind::Traffic,
        expected_s: 0.5,
        seeded: true,
        digest: include_str!("../expected/traffic.seed1.digest"),
    },
    // The reliability path (retransmit, duplicate suppression,
    // checksums) with ring capture on every receive.
    Workload {
        name: "fault_sweep",
        kind: Kind::FaultSweep,
        expected_s: 0.25,
        seeded: true,
        digest: include_str!("../expected/fault_sweep.seed1.digest"),
    },
    // No NIC: host pack/unpack against an element-wise copy over all 48
    // app datatypes. It bypasses spin, telemetry and traffic.
    Workload {
        name: "ddt_host_compare",
        kind: Kind::DdtHostCompare,
        expected_s: 1.25,
        seeded: false,
        digest: include_str!("../expected/ddt_host_compare.seed1.digest"),
    },
];

const DDT_GOLDEN: &str = include_str!("../../tests/golden/ddt_host_compare.json");

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// FNV-1a 64 of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl Workload {
    /// The scenario document this workload runs at `seed`.
    pub fn scenario(&self, seed: u64) -> String {
        match self.kind {
            Kind::Fig16 => r#"{
  "name": "fig16-applications",
  "version": 1,
  "kind": "fig16",
  "workload": { "kind": "apps", "max_kib": 512 }
}"#
            .to_string(),
            Kind::Traffic => format!(
                r#"{{
  "name": "bench-traffic",
  "version": 1,
  "kind": "traffic",
  "scheduling": {{ "hpus": 8 }},
  "traffic": {{
    "apps": ["COMB/b", "NAS-MG/a"],
    "loads": [0.4, 1.0],
    "tenants": 3,
    "horizon_us": 200,
    "seed": {seed}
  }}
}}"#
            ),
            // The shipped fault_sweep.json rates on a 256 KiB vector
            // over eight fault seeds, so one run is long enough to time.
            Kind::FaultSweep => format!(
                r#"{{
  "name": "bench-fault-sweep",
  "version": 1,
  "kind": "fault-sweep",
  "workload": {{ "kind": "vector", "count": 2048, "blocklen": 16, "stride": 32 }},
  "faults": {{ "drop": 0.05, "duplicate": 0.02, "corrupt": 0.01, "reorder_ns": 2000, "seed": {seed} }},
  "scheduling": {{ "hpus": 16 }},
  "sweep": {{ "seeds": 8, "seed0": {seed}, "scales": [0.0, 0.5, 1.0] }}
}}"#
            ),
            Kind::DdtHostCompare => r#"{
  "name": "ddt-host-compare",
  "version": 1,
  "kind": "ddt-host-compare",
  "workload": { "kind": "apps" }
}"#
            .to_string(),
        }
    }

    /// The watchdog deadline of one run.
    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64((20.0 * self.expected_s).min(120.0))
    }

    /// Check a run's artifact against what this workload must produce
    /// at `seed`.
    pub fn check_artifact(&self, seed: u64, text: &str) -> Result<(), String> {
        if seed == 1 || !self.seeded {
            let (got, want) = (digest(text), self.digest.trim());
            if got != want {
                return Err(format!(
                    "artifact digest {got} differs from expected/{}.seed1.digest ({want})",
                    self.name
                ));
            }
        }
        if self.kind == Kind::DdtHostCompare && text != DDT_GOLDEN {
            return Err("artifact differs from tests/golden/ddt_host_compare.json".to_string());
        }
        Ok(())
    }

    /// Simulated (or, for the host comparison, unpacked) messages in one
    /// run: four per Fig. 16 row, every completed traffic message, four
    /// strategies per fault cell, and two unpacks per DDT row.
    pub fn sim_messages(&self, artifact: &str) -> Result<f64, String> {
        if self.kind == Kind::Fig16 {
            let rows = artifact
                .lines()
                .filter(|l| !l.starts_with('#') && !l.starts_with("app\t"))
                .count();
            return Ok(4.0 * rows as f64);
        }
        let doc = Json::parse(artifact)?;
        let array = |v: &Json, key: &str| -> Result<Vec<Json>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("artifact has no `{key}` array"))
        };
        Ok(match self.kind {
            Kind::Traffic => {
                let mut completed = 0.0;
                for cell in array(&doc, "cells")? {
                    for t in array(&cell, "tenants")? {
                        completed += t.get("completed").and_then(Json::as_f64).unwrap_or(0.0);
                    }
                }
                completed
            }
            Kind::FaultSweep => array(&doc, "cells")?.len() as f64,
            _ => 2.0 * array(&doc, "rows")?.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_parses_and_compiles() {
        for w in &ALL {
            for seed in [1, 7] {
                let scn = nca_scenario::parse_scenario(&w.scenario(seed))
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                scn.compile().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn deadlines_are_capped() {
        assert_eq!(ALL[0].deadline(), Duration::from_secs(20));
        let slow = Workload {
            expected_s: 30.0,
            ..ALL[0]
        };
        assert_eq!(slow.deadline(), Duration::from_secs(120));
    }
}
