//! # ncmt — Network-accelerated non-contiguous memory transfers
//!
//! A full reproduction of *"Network-Accelerated Non-Contiguous Memory
//! Transfers"* (Di Girolamo et al., SC'19): NIC offload of MPI derived
//! datatype processing on a simulated sPIN/Portals 4 NIC, with the
//! specialized and general (HPU-local / RO-CP / RW-CP) handler
//! strategies, the host-unpack and Portals-iovec baselines, the PULP
//! hardware prototype models, and a LogGOPS application-scale
//! simulator.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`ddt`] — MPI derived-datatype engine (constructors, dataloops,
//!   segments, checkpoints, pack/unpack, flattening, normalization).
//! * [`sim`] — deterministic discrete-event engine.
//! * [`telemetry`] — simulation-time-aware tracing & metrics
//!   (ring sink, Perfetto export, aggregation).
//! * [`memsim`] — host LLC/memory-traffic simulation.
//! * [`portals`] — Portals 4 matching, packetization, streaming puts.
//! * [`spin`] — the sPIN NIC model (HPUs, scheduler, DMA/PCIe).
//! * [`core`] — the paper's contribution: offloaded DDT processing.
//! * [`pulp`] — PULP accelerator prototype models.
//! * [`loggopsim`] — LogGOPS simulator + FFT2D strong scaling.
//! * [`mpi`] — mini message-passing layer tying it all together.
//! * [`workloads`] — the thirteen application datatypes of Fig. 16.
//! * [`traffic`] — open-loop multi-tenant traffic engine with
//!   per-tenant tail-latency accounting over the queue disciplines.
//! * [`scenario`] — declarative scenario configs: one JSON document
//!   compiling workload × traffic × faults × scheduling × sweep into
//!   deterministic pool jobs (what `ncmt_cli run` executes).
//!
//! ## Quickstart
//!
//! ```
//! use ncmt::core::runner::{Experiment, Strategy};
//! use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
//! use ncmt::spin::params::NicParams;
//!
//! // A strided receive: 512 blocks of 16 doubles, stride 32.
//! let dt = Datatype::vector(512, 16, 32, &elem::double());
//! let exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
//! let offloaded = exp.run(Strategy::RwCp);
//! let host = exp.run_host();
//! assert!(offloaded.processing_time() < host.processing_time);
//! ```

pub use nca_core as core;
pub use nca_ddt as ddt;
pub use nca_loggopsim as loggopsim;
pub use nca_memsim as memsim;
pub use nca_mpi as mpi;
pub use nca_portals as portals;
pub use nca_pulp as pulp;
pub use nca_scenario as scenario;
pub use nca_sim as sim;
pub use nca_spin as spin;
pub use nca_telemetry as telemetry;
pub use nca_traffic as traffic;
pub use nca_workloads as workloads;
