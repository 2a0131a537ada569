//! # genoc-switching
//!
//! Switching policies for GeNoC-rs:
//!
//! * [`wormhole::WormholePolicy`] — the paper's `Swh`: flit-level wormhole
//!   switching with single-packet port ownership;
//! * [`virtual_cut_through::VirtualCutThroughPolicy`] — pipelined like
//!   wormhole but blocked packets collapse into one port;
//! * [`store_forward::StoreForwardPolicy`] — whole-packet hop-by-hop
//!   transfer, the unpipelined baseline;
//! * [`arbitration::Arbitration`] — fixed-priority or round-robin service
//!   order.
//!
//! All policies share the flit-motion machinery in [`motion`], which layers
//! a per-policy *head admission* predicate over the movement primitives of
//! `genoc-core`. Every policy satisfies the (C-5) contract: a step on a
//! non-deadlocked configuration moves at least one flit and strictly
//! decreases the progress measure.
//!
//! Every policy's `step` is one [`step_all`](genoc_core::step::step_all)
//! sweep, and every policy exposes that as a
//! [`KernelSpec`](genoc_core::switching::KernelSpec) — its arbitration order
//! plus admission predicate — turning it into an ordering strategy over the
//! run queue of the arena kernel
//! ([`ArenaKernel`](genoc_core::arena::ArenaKernel)), since each admission
//! predicate also names its closed-world
//! [`AdmissionKind`](genoc_core::step::AdmissionKind). Runners (`genoc-sim`)
//! execute policies on the arena by default, with move-for-move identical
//! semantics to stepping them directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitration;
pub mod motion;
pub mod store_forward;
pub mod virtual_cut_through;
pub mod wormhole;

pub use crate::arbitration::Arbitration;
pub use crate::store_forward::StoreForwardPolicy;
pub use crate::virtual_cut_through::VirtualCutThroughPolicy;
pub use crate::wormhole::WormholePolicy;
