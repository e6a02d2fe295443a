//! # nca-bench — figure harnesses
//!
//! One module (and one binary under `src/bin/`) per figure of the
//! paper's evaluation, except Fig. 16, which runs as the `fig16`
//! scenario; each recomputes the series the figure plots and prints a
//! TSV table. Pass `--quick` (or set `NCA_QUICK=1`) for a
//! reduced-size run used by the smoke tests and Criterion benches.
//!
//! | Figure | Module | Binary |
//! |--------|--------|--------|
//! | Fig. 2 | [`figures::fig02`] | `fig02_put_latency` |
//! | Fig. 8 | [`figures::fig08`] | `fig08_unpack_throughput` |
//! | Fig. 9b | [`figures::fig09b`] | `fig09b_area` |
//! | Fig. 9c | [`figures::fig09c`] | `fig09c_bandwidth` |
//! | Fig. 10 | [`figures::fig10`] | `fig10_pulp_vs_arm` |
//! | Fig. 11 | [`figures::fig11`] | `fig11_ipc` |
//! | Fig. 12 | [`figures::fig12`] | `fig12_handler_breakdown` |
//! | Fig. 13 | [`figures::fig13`] | `fig13_scalability` |
//! | Fig. 14 | [`figures::fig14`] | `fig14_dma_queue` |
//! | Fig. 15 | [`figures::fig15`] | `fig15_dma_timeline` |
//! | Fig. 16 | `nca_scenario::fig16` | `ncmt_cli run scenarios/fig16.json` |
//! | Fig. 17 | [`figures::fig17`] | `fig17_memory_traffic` |
//! | Fig. 18 | [`figures::fig18`] | `fig18_amortization` |
//! | Fig. 19 | [`figures::fig19`] | `fig19_fft2d_scaling` |
//! | Sec. 3.1 | [`figures::sender`] | `sender_strategies` |

pub mod bench_diff;
pub mod figures;

/// Whether a reduced-size run was requested (`--quick` argument or
/// `NCA_QUICK=1`).
pub fn quick_from_env_args() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("NCA_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
}
