//! # genoc-core
//!
//! An executable, generic model of networks-on-chips after the GeNoC
//! methodology, reproducing *"Formal Specification of Networks-on-Chips:
//! Deadlock and Evacuation"* (Verbeek & Schmaltz, DATE 2010).
//!
//! GeNoC specifies a network by three *constituents*:
//!
//! * an [injection method](injection::InjectionMethod) `I`,
//! * a [routing function](routing::RoutingFunction) `R` defined between
//!   *ports*, and
//! * a [switching policy](switching::SwitchingPolicy) `S`,
//!
//! and characterises them by proof obligations
//! ([(C-1)…(C-5)](obligations::ObligationId)) from which three global
//! theorems follow: functional correctness (`CorrThm`), deadlock-freedom
//! (`DeadThm`), and evacuation/liveness (`EvacThm`).
//!
//! This crate provides the generic machinery: configurations
//! `σ = ⟨T, ST, A⟩` ([`config::Config`]), the [interpreter](interpreter::run)
//! with its deadlock predicate `Ω` and run-time (C-5) enforcement,
//! [termination measures](measure), movement [traces](trace), and the
//! executable [theorem statements](theorems). Concrete topologies, routing
//! functions, switching policies, dependency-graph analyses, and the
//! obligation-discharge engine live in the sibling crates
//! `genoc-topology`, `genoc-routing`, `genoc-switching`, `genoc-depgraph`,
//! and `genoc-verif`.
//!
//! ## Quick example
//!
//! Run a two-message workload across the built-in [`line`](mod@line) reference
//! network and check the evacuation theorem:
//!
//! ```
//! use genoc_core::config::Config;
//! use genoc_core::injection::IdentityInjection;
//! use genoc_core::interpreter::{run, RunOptions};
//! use genoc_core::line::{LineNetwork, LineRouting, LineSwitching};
//! use genoc_core::spec::MessageSpec;
//! use genoc_core::theorems::check_evacuation;
//! use genoc_core::{MsgId, NodeId};
//!
//! # fn main() -> Result<(), genoc_core::Error> {
//! let net = LineNetwork::new(4, 1);
//! let routing = LineRouting::new(&net);
//! let specs = [
//!     MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
//!     MessageSpec::new(NodeId::from_index(3), NodeId::from_index(0), 3),
//! ];
//! let cfg = Config::from_specs(&net, &routing, &specs)?;
//! let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
//! let result = run(&net, &IdentityInjection, &mut LineSwitching::default(), cfg,
//!                  &RunOptions::default())?;
//! assert!(check_evacuation(&injected, &result).holds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod blocking;
pub mod config;
pub mod error;
pub mod ids;
pub mod injection;
pub mod interpreter;
pub mod kernel;
pub mod line;
pub mod measure;
pub mod meta;
pub mod moves;
pub mod network;
pub mod obligations;
#[cfg(test)]
mod proptests;
pub mod routing;
pub mod spec;
pub mod state;
pub mod steal;
pub mod step;
pub mod switching;
pub mod theorems;
pub mod trace;
pub mod travel;

pub use crate::error::{Error, Result};
pub use crate::ids::{MsgId, NodeId, PortId};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::arena::{ArenaConfig, ArenaKernel, ArenaSpec, MoveRec};
    pub use crate::blocking::{block_events, find_wait_cycle, BlockDiff, BlockEvent, WaitCycle};
    pub use crate::config::Config;
    pub use crate::error::{Error, Result};
    pub use crate::ids::{MsgId, NodeId, PortId};
    pub use crate::injection::{IdentityInjection, InjectionMethod};
    pub use crate::interpreter::{
        run, run_hooked, DetectorHook, NullHook, Outcome, RunOptions, RunResult,
    };
    pub use crate::kernel::{Transition, TravelStatus};
    pub use crate::measure::{ProgressMeasure, RouteLengthMeasure, TerminationMeasure};
    pub use crate::meta::{InstanceMeta, RoutingKind, SwitchingKind, TopologyKind};
    pub use crate::moves::{Move, MoveEnumerator, MoveKind};
    pub use crate::network::{Direction, Network, PortAttrs};
    pub use crate::obligations::{ObligationId, ObligationReport};
    pub use crate::routing::{compute_route, RoutingFunction};
    pub use crate::spec::MessageSpec;
    pub use crate::switching::{Arbitration, KernelSpec, StepReport, SwitchingPolicy};
    pub use crate::theorems::{check_correctness, check_evacuation};
    pub use crate::travel::{FlitPos, Travel};
}
