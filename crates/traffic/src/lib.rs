//! Open-loop multi-tenant traffic engine for the sPIN NIC model.
//!
//! The per-message pipeline (`nca-spin`) answers the paper's
//! microbenchmark questions; this crate asks the *service* question: at
//! a sustained offered load from many tenants, what tail latency and
//! loss does each tenant see, and how much of it is the NIC's HPU
//! queue discipline?
//!
//! - [`arrival`] — seeded Poisson and heavy-tailed lognormal
//!   interarrival samplers, bit-deterministic via [`detmath`].
//! - [`rss`] — RSS-style flow → HPU steering (hash + indirection
//!   table), the enqueue hint dFCFS consumes.
//! - [`engine`] — the cell run: open-loop offers, admission control
//!   against the NIC packet buffer with capped+jittered backoff, shared
//!   ingress link, full receive pipeline, per-tenant latency and
//!   drop/goodput accounting.
//! - [`sweep`] — offered-load × discipline × application grids on a
//!   worker pool with deterministic merge (`ncmt-traffic` artifact).
//!
//! Everything is a pure function of the configuration, seed included:
//! committed golden artifacts reproduce byte-identically on any host at
//! any `--jobs` count.

pub mod arrival;
pub mod detmath;
pub mod engine;
pub mod rss;
pub mod sweep;

pub use arrival::{ArrivalProcess, GapSampler};
pub use engine::{
    generate_schedule, mean_mix_wire_ps, render_schedule, run_traffic, run_traffic_with,
    ScheduledMsg, TenantSpec, TenantStats, TrafficConfig, TrafficRunResult,
};
pub use rss::{flow_hash, IndirectionTable};
pub use sweep::{app_group, traffic_sweep, ArrivalKind, TrafficSweepSpec};
