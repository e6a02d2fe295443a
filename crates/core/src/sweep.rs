//! Parallel fault-sweep executor.
//!
//! A fault-sweep scenario runs a seed × fault-scale × strategy matrix;
//! every cell is an independent deterministic simulation, which makes
//! the matrix embarrassingly parallel. This module owns the cell logic
//! so the CLI (and tests) can run it through [`nca_sim::Pool`]:
//!
//! * parallelism is at **(seed, scale) cell granularity**: the four
//!   strategies of a cell share one fault schedule and one host-side
//!   reference unpack;
//! * cells record no trace. Every reported number comes from the run
//!   itself: the reliability counters and the strategy's recovery
//!   counts ([`nca_spin::nic::RunReport::recovery`]), so no ring size
//!   can change an artifact, and no trace emission costs anything;
//! * [`fault_sweep`] returns cells **in serial (seed-major, then
//!   scale) order** regardless of worker count — `Pool::par_map`
//!   preserves input ordering — so the emitted `FaultSweepDoc` is
//!   byte-identical to a `--jobs 1` run.

use nca_ddt::pack::{buffer_span, unpack};
use nca_ddt::types::Datatype;
use nca_sim::{FaultSpec, Pool};
use nca_spin::params::NicParams;
use nca_telemetry::report::{FaultSummary, SweepCell};

use crate::report::fault_summary;
use crate::runner::{Experiment, Strategy};

/// Everything that defines one fault-sweep matrix (what a fault-sweep
/// scenario compiles to, minus output formatting).
#[derive(Clone)]
pub struct FaultSweepSpec {
    /// Receive datatype for every cell.
    pub dt: Datatype,
    /// Datatype repetition count.
    pub count: u32,
    /// NIC configuration shared by all cells.
    pub params: NicParams,
    /// Fault rates at scale 1.0; each cell runs `base.scaled(scale)`
    /// with its own seed.
    pub base: FaultSpec,
    /// First fault seed; cells use `seed0 .. seed0 + seeds`.
    pub seed0: u64,
    /// Number of seeds in the matrix.
    pub seeds: u64,
    /// Fault-rate scales (0.0 doubles as the lossless control).
    pub scales: Vec<f64>,
    /// Ring capacity for a caller that traces the sweep's receives (the
    /// scenario benchmark's decomposition; a fault-sweep scenario sets
    /// 1 Mi events and refuses `telemetry.ring_capacity`). The sweep
    /// itself records no trace and does not read it.
    pub ring_capacity: usize,
}

impl FaultSweepSpec {
    /// The `(seed, scale)` grid in serial order: seed-major, scales in
    /// the given order within each seed.
    pub fn cells(&self) -> Vec<(u64, f64)> {
        let mut grid = Vec::with_capacity((self.seeds as usize) * self.scales.len());
        for seed in self.seed0..self.seed0 + self.seeds {
            for &scale in &self.scales {
                grid.push((seed, scale));
            }
        }
        grid
    }
}

/// Run one `(seed, scale)` cell: all strategies against one fault
/// schedule, byte-exactness checked against a host-side unpack
/// reference.
fn run_cell(spec: &FaultSweepSpec, seed: u64, scale: f64) -> Vec<SweepCell> {
    let mut exp = Experiment::new(spec.dt.clone(), spec.count, spec.params.clone());
    exp.faults = spec.base.scaled(scale).with_seed(seed);
    exp.verify = false; // manual check below: report, don't panic
    let (origin, span) = buffer_span(&exp.dt, exp.count);
    let packed = exp.packed_message();
    let mut expect = vec![0u8; span as usize];
    unpack(&exp.dt, exp.count, &packed, &mut expect, origin).expect("unpackable");
    Strategy::ALL
        .iter()
        .map(|&s| {
            let run = exp.run_modeled(s);
            SweepCell {
                seed,
                scale,
                strategy: s.label().to_string(),
                byte_exact: run.report.host_buf == expect,
                end_to_end_ps: run.report.processing_time(),
                faults: FaultSummary {
                    delivered_exactly_once: run.report.rel.delivered_exactly_once,
                    ..fault_summary(&run, &[]).unwrap_or_default()
                },
            }
        })
        .collect()
}

/// Run the whole matrix on `pool`, one job per `(seed, scale)` cell.
///
/// The returned cells are in serial order (seed-major, then scale,
/// then [`Strategy::ALL`] order within each cell) at any worker
/// count, so serializing them yields a byte-identical `FaultSweepDoc`.
pub fn fault_sweep(spec: &FaultSweepSpec, pool: &Pool) -> Vec<SweepCell> {
    pool.par_map(spec.cells(), |_, (seed, scale)| run_cell(spec, seed, scale))
        .into_iter()
        .flatten()
        .collect()
}

/// Whether a cell met the sweep's acceptance bar: byte-exact receive
/// buffer and exactly-once delivery.
pub fn cell_ok(cell: &SweepCell) -> bool {
    cell.byte_exact && cell.faults.delivered_exactly_once
}

#[cfg(test)]
mod tests {
    use super::*;
    use nca_ddt::types::{elem, DatatypeExt};

    fn tiny_spec() -> FaultSweepSpec {
        FaultSweepSpec {
            dt: Datatype::vector(64, 4, 8, &elem::double()),
            count: 1,
            params: NicParams::with_hpus(4),
            base: FaultSpec {
                drop: 0.05,
                duplicate: 0.02,
                corrupt: 0.01,
                reorder_window: 2_000_000,
                seed: 1,
            },
            seed0: 1,
            seeds: 2,
            scales: vec![0.0, 1.0],
            ring_capacity: 1 << 16,
        }
    }

    #[test]
    fn cells_grid_is_seed_major() {
        let spec = tiny_spec();
        assert_eq!(spec.cells(), vec![(1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)]);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let spec = tiny_spec();
        let serial = fault_sweep(&spec, &Pool::serial());
        let parallel = fault_sweep(&spec, &Pool::new(3));
        assert_eq!(serial.len(), 4 * Strategy::ALL.len());
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(cell_ok), "tiny sweep must pass");
    }
}
