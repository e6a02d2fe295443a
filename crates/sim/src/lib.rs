//! # nca-sim — deterministic discrete-event simulation engine
//!
//! A small, allocation-light discrete-event core used by every simulated
//! component in this workspace (NIC model, LogGOPS simulator, PULP timing
//! model).
//!
//! Design points (per the reproduction's determinism requirement):
//!
//! * Simulated time is `u64` **picoseconds** ([`Time`]); at 200 Gbit/s a
//!   byte takes 40 ps, so picoseconds keep serialization arithmetic exact.
//! * Events are `FnOnce(&mut W, &mut Sim<W>)` closures over a caller-owned
//!   world type `W`; the engine pops an event *before* invoking it, so
//!   handlers freely schedule follow-ups.
//! * Ties are broken by insertion sequence number — identical runs replay
//!   identically.

pub mod arena;
pub mod calendar;
pub mod engine;
pub mod fault;
pub mod pool;
pub mod profile;
pub mod stats;
pub mod units;
pub mod wire;

pub use arena::PooledBuf;
pub use calendar::CalendarQueue;
pub use engine::{Sim, SimProbe, Time};
pub use fault::{DeliveredCopy, FaultInjector, FaultSpec, Verdict};
pub use pool::Pool;
pub use units::{ns, ps, us, Bandwidth};
pub use wire::{PktView, WireBuf};
