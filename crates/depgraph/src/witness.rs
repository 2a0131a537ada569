//! The executable witness for the sufficiency direction of the deadlock
//! theorem.
//!
//! **Theorem 1** (paper): a deterministic routing function is deadlock-free
//! iff its port dependency graph is acyclic. The paper's proof is
//! constructive in both directions:
//!
//! * [`deadlock_from_cycle`] — *sufficiency*: given a cycle, fill every port
//!   of the cycle with messages whose (C-2) witness destinations route them
//!   into the next port of the cycle; the resulting configuration satisfies
//!   `Ω`.
//! * *necessity* — given a deadlocked configuration, follow the blocked-on
//!   relation until it closes; every step is a routing step, so the closed
//!   walk is a cycle of the dependency graph. That is the wait-for cycle
//!   `genoc_core::blocking::find_wait_cycle` returns, expanded to ports.

use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::network::Network;
use genoc_core::routing::{compute_route, RoutingFunction};
use genoc_core::travel::Travel;
use genoc_core::{MsgId, PortId};

/// A deadlock configuration compiled from a dependency-graph cycle, together
/// with the (C-2) witness destinations that realise each edge.
#[derive(Clone, Debug)]
pub struct DeadlockWitness {
    /// The cycle the configuration was compiled from.
    pub cycle: Vec<PortId>,
    /// The witness destination chosen for each cycle port.
    pub destinations: Vec<PortId>,
    /// The deadlocked configuration: every cycle port is filled with a
    /// message whose next hop is the (full) next cycle port.
    pub config: Config,
}

/// Compiles a dependency-graph cycle into a concrete deadlock configuration
/// (the sufficiency construction of Theorem 1).
///
/// For each consecutive pair `(p, p')` of the cycle a destination `d` with
/// `p' ∈ R(p, d)` is searched among the reachable destinations — existence is
/// exactly proof obligation (C-2). The port `p` is then filled to capacity
/// with the flits of a message destined to `d`.
///
/// # Errors
///
/// * [`Error::InvalidSpec`] if some edge has no witness destination (i.e.
///   (C-2) fails for the supplied cycle, which then is not a cycle of the
///   *dependency* graph);
/// * route-computation errors if the routing function does not terminate.
pub fn deadlock_from_cycle(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    cycle: &[PortId],
) -> Result<DeadlockWitness> {
    let analysis = crate::build::RoutingAnalysis::new(net, routing);
    deadlock_from_cycle_with(net, routing, &analysis, cycle)
}

/// [`deadlock_from_cycle`] with a pre-computed [`RoutingAnalysis`], so
/// repeated witness compilation (`genoc-verif`'s Theorem 1 check, with
/// the instance's cached analysis) amortises the reachability traversal.
///
/// # Errors
///
/// As for [`deadlock_from_cycle`].
///
/// [`RoutingAnalysis`]: crate::build::RoutingAnalysis
pub fn deadlock_from_cycle_with(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    analysis: &crate::build::RoutingAnalysis,
    cycle: &[PortId],
) -> Result<DeadlockWitness> {
    if cycle.is_empty() {
        return Err(Error::InvalidSpec("empty cycle".into()));
    }
    let mut travels = Vec::with_capacity(cycle.len());
    let mut destinations = Vec::with_capacity(cycle.len());
    for (i, &p) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        // (C-2) witness search: a reachable destination routing p into next.
        // Iterating the analysis's destination slice directly (no re-collect
        // per edge) keeps repeated witness compilation cheap in hunts.
        let mut hops = Vec::with_capacity(4);
        let witness = analysis.destinations().iter().copied().find(|&d| {
            if !analysis.reachable(p, d) || p == d {
                return false;
            }
            hops.clear();
            routing.next_hops(p, d, &mut hops);
            hops.contains(&next)
        });
        let d = witness.ok_or_else(|| {
            Error::InvalidSpec(format!(
                "no witness destination routes {} into {} — (C-2) fails on this edge",
                net.port_label(p),
                net.port_label(next)
            ))
        })?;
        let route = compute_route(net, routing, p, d)?;
        debug_assert_eq!(route[1], next, "witness must route across the cycle edge");
        let capacity = net.attrs(p).capacity as usize;
        travels.push(Travel::mid_flight(
            net,
            MsgId::from_index(i),
            route,
            capacity,
        )?);
        destinations.push(d);
    }
    let config = Config::from_travels(net, travels)?;
    Ok(DeadlockWitness {
        cycle: cycle.to_vec(),
        destinations,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::port_dependency_graph;
    use crate::cycle::acyclicity;
    use genoc_core::blocking::find_wait_cycle;
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_routing::ring::RingShortestRouting;
    use genoc_topology::mesh::Mesh;
    use genoc_topology::ring::Ring;

    #[test]
    fn mixed_mesh_cycle_compiles_to_a_deadlock() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let g = port_dependency_graph(&mesh, &routing);
        let verdict = acyclicity(&g);
        let cycle = verdict.cycle().expect("mixed XY/YX is cyclic on 2x2");
        let witness = deadlock_from_cycle(&mesh, &routing, cycle).unwrap();
        witness.config.validate(&mesh).unwrap();
        assert!(
            !witness.config.any_move_possible(),
            "compiled configuration must satisfy Ω"
        );
        assert_eq!(witness.config.travels().len(), cycle.len());
    }

    #[test]
    fn ring_cycle_compiles_to_a_deadlock() {
        let ring = Ring::new(6, 2);
        let routing = RingShortestRouting::new(&ring);
        let g = port_dependency_graph(&ring, &routing);
        let verdict = acyclicity(&g);
        let cycle = verdict
            .cycle()
            .expect("shortest-path ring routing is cyclic");
        let witness = deadlock_from_cycle(&ring, &routing, cycle).unwrap();
        witness.config.validate(&ring).unwrap();
        assert!(!witness.config.any_move_possible());
    }

    #[test]
    fn non_deadlock_is_rejected() {
        // The necessity walk (`find_wait_cycle`) finds no cycle to extract
        // from a configuration that is not a deadlock.
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let cfg = Config::from_specs(&mesh, &routing, &[]).unwrap();
        assert!(find_wait_cycle(&cfg).is_none());
    }

    #[test]
    fn acyclic_edge_has_no_witness_requirement() {
        // Feeding a bogus "cycle" whose edges are not routing edges must
        // fail the (C-2) witness search, not construct nonsense.
        let mesh = Mesh::new(2, 2, 1);
        let routing = genoc_routing::xy::XyRouting::new(&mesh);
        let li = mesh.local_in(mesh.node(0, 0));
        let lo = mesh.local_out(mesh.node(1, 1));
        let err = deadlock_from_cycle(&mesh, &routing, &[lo, li]).unwrap_err();
        assert!(matches!(err, Error::InvalidSpec(_)));
    }
}
