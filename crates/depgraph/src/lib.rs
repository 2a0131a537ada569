//! # genoc-depgraph
//!
//! Dependency-graph machinery for GeNoC-rs: everything needed to state and
//! discharge the deadlock theorem of the paper.
//!
//! * [`graph::DiGraph`] — compact digraph over ports;
//! * [`build`] — exhaustive port dependency graphs for any routing function,
//!   plus the paper's closed-form `E^xy_dep` for meshes;
//! * [`cycle`] — [`acyclicity`], the fixed-size discharge of (C-3): one
//!   depth-first search that returns a cycle or a ranking certificate
//!   (Tarjan's SCCs, the Taktak-style alternative, are its oracle in the
//!   tests, `tests/oracle/scc.rs`);
//! * [`ranking`] — the ranking checker, and the closed-form certificate of
//!   XY meshes (the executable counterpart of the paper's parametric flows
//!   proof);
//! * [`flows`] — the flow decomposition of Fig. 4 with its escape lemmas;
//! * [`channel_graph`] — the classical Dally–Seitz channel dependency graph
//!   as a comparator;
//! * [`witness`] — the sufficiency construction of Theorem 1
//!   (cycle → deadlock configuration);
//! * [`dot`] — Graphviz export (Fig. 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod channel_graph;
pub mod cycle;
pub mod dot;
pub mod flows;
pub mod graph;
#[cfg(test)]
mod proptests;
pub mod ranking;
#[cfg(test)]
#[path = "../../../tests/oracle/scc.rs"]
mod scc;
pub mod witness;

pub use crate::build::{port_dependency_graph, xy_mesh_dependency_graph};
pub use crate::channel_graph::{channel_dependency_graph, ChannelGraph};
pub use crate::cycle::{acyclicity, is_cycle_of, Acyclicity};
pub use crate::dot::to_dot;
pub use crate::flows::{check_flow_escapes, classify, Flow};
pub use crate::graph::DiGraph;
pub use crate::ranking::{verify_ranking, xy_mesh_ranking};
pub use crate::witness::{deadlock_from_cycle, DeadlockWitness};
