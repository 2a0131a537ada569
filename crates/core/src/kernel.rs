//! The scheduling vocabulary every stepper-facing crate speaks:
//! [`TravelStatus`] and the per-step [`Transition`] feed.
//!
//! The kernel itself is [`crate::arena::ArenaKernel`], whose module
//! documentation carries the argument for why parking a blocked travel on
//! one port's wake-list is sound. Here is what other crates are written
//! against: the status lattice a travel moves through and the log of its
//! changes, which is the incremental feed for online deadlock detection
//! (`genoc-detect`) and for the write-ahead log (`genoc-obs`).

use crate::ids::{MsgId, PortId};

/// Scheduling state of one travel, as maintained by the
/// [`ArenaKernel`](crate::arena::ArenaKernel).
///
/// The status lattice: `Pending → Active ⇄ Blocked(p)`, with `Delivered`
/// terminal. `Pending` travels (no flit has moved yet) and `Active` travels
/// are on the run queue; `Blocked(p)` travels are parked on port `p`'s
/// wake-list and skipped until a flit move frees `p`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TravelStatus {
    /// Injected, but no flit has moved yet.
    Pending,
    /// Some flit has moved and the travel is (as far as the kernel knows)
    /// still runnable.
    Active,
    /// No flit can move until the given port is freed; parked on that
    /// port's wake-list.
    Blocked(PortId),
    /// Every flit has been delivered; the travel left the loop for good.
    Delivered,
}

/// One status change, recorded in step order. The kernel's per-step
/// transition log is the incremental feed for online deadlock detection: a
/// [`TravelStatus::Blocked`] transition is a wait-for edge (toward the owner
/// of the blocking port), an [`TravelStatus::Active`] or
/// [`TravelStatus::Delivered`] transition retracts it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transition {
    /// The travel whose status changed.
    pub msg: MsgId,
    /// The status it changed to.
    pub status: TravelStatus,
}
