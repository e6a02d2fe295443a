//! Scenario-level benchmark of the NCMT simulator.
//!
//! Single-workload mode (`--workload W --seed N --seconds T --trace 0|1`) runs
//! one workload and prints one JSON result line; `run` drives every
//! workload and writes a results file; `compare A B` judges two results
//! files against the bounds in BENCHMARK.json. All timing, tracing and
//! allocation counting lives here: the simulator crates are called
//! through their public functions, unchanged.

mod alloc;
mod decompose;
mod measure;
mod results;
mod speed;
mod stats;
mod trace;
mod workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => results::run_main(&args[1..]),
        Some("compare") => results::compare_main(&args[1..]),
        _ => measure::main(&args),
    };
    std::process::exit(code);
}
