//! # nca-spin — the sPIN NIC model
//!
//! An event-driven model of a 200 Gbit/s sPIN-capable NIC (paper Fig. 1):
//! inbound engine, Portals 4 matching, Handler Processing Units with
//! virtual-HPU scheduling (default and blocked round-robin policies,
//! Sec. 3.2.1, plus pluggable cFCFS/dFCFS disciplines in [`sched`]),
//! NIC memory, and a DMA/PCIe engine with occupancy tracking. Handlers *really execute* — packet bytes are scattered into
//! the simulated receive buffer — while their simulated runtime comes
//! from the strategy's cost model (see `nca-core`).
//!
//! The receive path is one core, [`nic::Nic`], fed by two message
//! sources: [`nic::ReceiveSim::run`] (one message, the usual entry
//! point) and the `nca-traffic` engine (open-loop multi-tenant offers).
//! Sender-side strategies (streaming puts, outbound sPIN) are modelled
//! in [`outbound`].

pub mod builtin;
pub mod handler;
pub mod nic;
pub mod nicmem;
pub mod outbound;
pub mod params;
pub mod sched;
pub mod sender;

pub use handler::{
    DmaWrite, HandlerCost, HandlerOutput, MessageProcessor, PacketCtx, RecoveryStats, SchedPolicy,
};
pub use nic::{MsgPath, PortalsSetup, ReceiveSim, RunConfig, RunReport};
pub use nicmem::NicMemory;
pub use params::NicParams;
pub use sched::{Dispatch, QueueDiscipline, Scheduler};
