//! # genoc-explore
//!
//! Exhaustive bounded state-space exploration for GeNoC instances: the
//! ground-truth tier between the static dependency-graph analysis and the
//! randomized deadlock hunts.
//!
//! The paper's own toolchain for this job was mCRL2 — `mcrl22lps`,
//! `lps2pbes -f nodeadlock.mcf`, `pbes2bool` for the verdict, `lps2lts -Dt`
//! for the state space and deadlock traces. This crate is that workflow
//! natively in Rust, specialised to the port-level model:
//!
//! - [`explore`] enumerates **all** reachable configurations of a workload
//!   breadth-first, branching on every individual flit move
//!   ([`MoveEnumerator`](genoc_core::moves::MoveEnumerator)) rather than the
//!   kernel's greedy schedule — `pbes2bool`'s verdict, bounded.
//! - [`Verdict::NoReachableDeadlock`] is an exhaustive proof for the
//!   workload; [`Verdict::Deadlock`] carries a depth-minimal, replayable
//!   [`Counterexample`] — `lps2lts -Dt` + `tracepp`.
//! - [`to_aut`]/[`to_dot`] export the explored graph in Aldebaran and
//!   Graphviz form — `ltsgraph`.
//! - [`symmetry`] quotients the search by verified node automorphisms
//!   (rotations, reflections, torus translations), checked structurally and
//!   against the workload's computed routes so the reduction can degrade
//!   but never lie.
//! - [`por`] prunes commuting interleavings with per-state ample sets
//!   ([`ExploreOptions::por`]), and [`ExploreOptions::jobs`] runs the
//!   search on a persistent-pool pipelined frontier (shard-bucketed
//!   interning, batched work-stealing) — both preserve verdicts and
//!   minimal counterexample depths while cutting stored states and wall
//!   time by an order of magnitude on pressure workloads.
//! - [`spill`] adds a disk tier: with [`ExploreOptions::spill_dir`] set,
//!   a run that outgrows [`ExploreOptions::mem_limit`] streams cold
//!   frontier levels and arena segments through temp files instead of
//!   stopping, with byte-identical observables.
//!
//! # Examples
//!
//! Prove a workload deadlock-free under *every* interleaving, then find the
//! shortest route into a deadlock on the cyclic comparator:
//!
//! ```
//! use genoc_core::meta::{InstanceMeta, RoutingKind};
//! use genoc_core::spec::MessageSpec;
//! use genoc_core::step::AlwaysAdmit;
//! use genoc_core::NodeId;
//! use genoc_explore::{explore, ExploreOptions, Verdict};
//! use genoc_routing::ring::RingShortestRouting;
//! use genoc_topology::ring::Ring;
//!
//! # fn main() -> Result<(), genoc_core::Error> {
//! let ring = Ring::new(4, 1);
//! let routing = RingShortestRouting::new(&ring);
//! let meta = InstanceMeta::new(RoutingKind::RingShortest, 4, 1, 1);
//! // Four worms, each two hops clockwise: the cw cycle saturates.
//! let specs: Vec<MessageSpec> = (0..4)
//!     .map(|i| MessageSpec::new(NodeId::from_index(i), NodeId::from_index((i + 2) % 4), 2))
//!     .collect();
//! let result = explore(&ring, &routing, &meta, &specs, &AlwaysAdmit, &ExploreOptions::default())?;
//! let cex = result.counterexample().expect("the plain ring deadlocks");
//! assert!(!cex.config.any_move_possible());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expand;
pub mod explorer;
pub mod export;
mod parallel;
pub mod por;
pub mod spill;
pub mod state;
pub mod symmetry;

pub use crate::explorer::{
    explore, explore_policy, replay, BoundReason, Counterexample, Exploration, ExploreOptions,
    StateGraph, StateStatus, Verdict, MAX_PARALLELISM,
};
pub use crate::export::{to_aut, to_dot};
pub use crate::por::AmpleSelector;
pub use crate::spill::{SpillDir, SpillFile};
pub use crate::state::{StateArena, Workload};
pub use crate::symmetry::{candidate_node_perms, lift_node_perm, slot_perms};

use genoc_core::meta::{InstanceMeta, TopologyKind};
use genoc_core::spec::MessageSpec;
use genoc_core::NodeId;

/// An adversarial all-nodes pressure workload for the instance: the
/// pattern most likely to exhibit a reachable deadlock if the routing
/// function's dependency graph is cyclic.
///
/// - **Mesh / torus**: bit-complement — `(x, y)` sends to
///   `(w−1−x, h−1−y)` (self-pairs at an odd centre are skipped).
/// - **Ring**: every node sends `⌊n/2⌋` hops; clockwise wins the distance
///   tie, so all worms pile onto the cw cycle.
/// - **Spidergon**: every node sends `n/2 − 1` hops — just inside the ring
///   quadrants, keeping traffic off the across links.
///
/// The pattern is symmetric under the topology's rotations/point group, so
/// symmetry reduction stays effective on it.
pub fn pressure_specs(meta: &InstanceMeta, flits: usize) -> Vec<MessageSpec> {
    let mut specs = Vec::new();
    match meta.topology {
        TopologyKind::Mesh | TopologyKind::Torus => {
            let (w, h) = (meta.width, meta.height);
            for y in 0..h {
                for x in 0..w {
                    let (dx, dy) = (w - 1 - x, h - 1 - y);
                    if (dx, dy) == (x, y) {
                        continue;
                    }
                    specs.push(MessageSpec::new(
                        NodeId::from_index(y * w + x),
                        NodeId::from_index(dy * w + dx),
                        flits,
                    ));
                }
            }
        }
        TopologyKind::Ring | TopologyKind::Spidergon => {
            let n = meta.nodes();
            let offset = if meta.topology == TopologyKind::Ring {
                (n / 2).max(1)
            } else {
                (n / 2).saturating_sub(1).max(1)
            };
            for i in 0..n {
                specs.push(MessageSpec::new(
                    NodeId::from_index(i),
                    NodeId::from_index((i + offset) % n),
                    flits,
                ));
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::meta::RoutingKind;

    #[test]
    fn pressure_covers_every_node_or_skips_the_centre() {
        let mesh = InstanceMeta::new(RoutingKind::Xy, 3, 3, 1);
        assert_eq!(pressure_specs(&mesh, 2).len(), 8, "centre skipped");
        let ring = InstanceMeta::new(RoutingKind::RingShortest, 4, 1, 1);
        let specs = pressure_specs(&ring, 2);
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.source != s.dest));
    }
}
