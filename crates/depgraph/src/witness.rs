//! Executable witnesses for both directions of the deadlock theorem.
//!
//! **Theorem 1** (paper): a deterministic routing function is deadlock-free
//! iff its port dependency graph is acyclic. The paper's proof is
//! constructive in both directions, and this module executes both
//! constructions:
//!
//! * [`deadlock_from_cycle`] — *sufficiency*: given a cycle, fill every port
//!   of the cycle with messages whose (C-2) witness destinations route them
//!   into the next port of the cycle; the resulting configuration satisfies
//!   `Ω`.
//! * [`cycle_from_deadlock`] — *necessity*: given a deadlocked
//!   configuration, walk the blocked-on relation through the unavailable
//!   ports until it closes; every step is a routing step, so the walk is a
//!   cycle of the dependency graph.

use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::network::Network;
use genoc_core::routing::{compute_route, RoutingFunction};
use genoc_core::travel::{FlitPos, Travel};
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

/// Extracts a dependency-graph cycle from a deadlocked configuration (the
/// necessity construction of Theorem 1).
///
/// Starting from any blocked in-network flit, the walk repeatedly moves to
/// the port the current flit is blocked on. In a genuine wormhole deadlock
/// every blocked flit waits on a *full* port (an unavailable port in the
/// paper's terms), whose resident message is itself blocked, so the walk
/// stays well-defined and must eventually revisit a port — closing a cycle
/// in which every step is a routing step.
///
/// # Errors
///
/// Returns [`Error::Invariant`] if the configuration is not actually
/// deadlocked (some flit can move, or the walk escapes).
pub fn cycle_from_deadlock(net: &dyn Network, cfg: &Config) -> Result<Vec<PortId>> {
    if cfg.any_move_possible() {
        return Err(Error::Invariant("configuration is not a deadlock".into()));
    }
    // Start from the frontmost in-network flit of any travel.
    let mut start: Option<PortId> = None;
    'outer: for t in cfg.travels() {
        for f in 0..t.flit_count() {
            if let FlitPos::InNetwork(k) = t.flit_pos(f) {
                start = Some(t.route()[k]);
                break 'outer;
            }
        }
    }
    let start =
        start.ok_or_else(|| Error::Invariant("deadlock without any in-network flit".into()))?;

    let mut visited: Vec<PortId> = Vec::new();
    let mut current = start;
    loop {
        if let Some(pos) = visited.iter().position(|&q| q == current) {
            return Ok(visited[pos..].to_vec());
        }
        visited.push(current);
        // The message resident in (or owning) `current`.
        let owner = cfg.state().port(current).owner().ok_or_else(|| {
            Error::Invariant(format!(
                "walk reached unowned port {}",
                net.port_label(current)
            ))
        })?;
        let t = cfg.travel_by_id(owner).ok_or(Error::UnknownTravel(owner))?;
        let k = t
            .route()
            .iter()
            .position(|&q| q == current)
            .ok_or_else(|| {
                Error::Invariant(format!(
                    "owner {} does not route through {}",
                    owner,
                    net.port_label(current)
                ))
            })?;
        if k + 1 >= t.route().len() {
            return Err(Error::Invariant(format!(
                "walk reached destination port {} — ejection cannot block",
                net.port_label(current)
            )));
        }
        current = t.route()[k + 1];
        if visited.len() > net.port_count() + 1 {
            return Err(Error::Invariant("blocked-on walk failed to close".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::port_dependency_graph;
    use crate::cycle::{acyclicity, is_cycle_of};
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
    fn extracted_cycle_lies_in_the_dependency_graph() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let g = port_dependency_graph(&mesh, &routing);
        let verdict = acyclicity(&g);
        let witness = deadlock_from_cycle(&mesh, &routing, verdict.cycle().unwrap()).unwrap();
        // Round trip: deadlock -> cycle -> must be a dependency cycle.
        let extracted = cycle_from_deadlock(&mesh, &witness.config).unwrap();
        assert!(is_cycle_of(&g, &extracted), "{extracted:?}");
    }

    #[test]
    fn non_deadlock_is_rejected() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let cfg = Config::from_specs(&mesh, &routing, &[]).unwrap();
        assert!(cycle_from_deadlock(&mesh, &cfg).is_err());
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
