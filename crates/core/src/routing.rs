//! The [`RoutingFunction`] abstraction and route computation.
//!
//! The paper defines routing at the level of ports: `R : P × P → P` maps the
//! current port and the destination port to the next hop. Deterministic
//! functions return exactly one hop; adaptive functions (used here only for
//! dependency-graph analysis, as in the paper's future-work section) may
//! return several.

use crate::error::{Error, Result};
use crate::ids::PortId;
use crate::network::Network;

/// A port-level routing function `R : P × P → P(P)`.
///
/// Implementations own whatever instance data they need (dimensions, port
/// tables); consistency with the [`Network`] they were built from is the
/// constructor's responsibility.
///
/// # Examples
///
/// ```
/// use genoc_core::line::{LineNetwork, LineRouting};
/// use genoc_core::network::Network;
/// use genoc_core::routing::RoutingFunction;
/// use genoc_core::NodeId;
///
/// let net = LineNetwork::new(3, 1);
/// let routing = LineRouting::new(&net);
/// let src = net.local_in(NodeId::from_index(0));
/// let dst = net.local_out(NodeId::from_index(2));
/// let hop = routing.next_hop(src, dst).expect("line is connected");
/// assert_ne!(hop, src);
/// ```
pub trait RoutingFunction {
    /// Human-readable name, e.g. `"xy"`.
    fn name(&self) -> String;

    /// Appends to `out` every admissible next hop from `from` toward `dest`.
    ///
    /// `out` is not cleared, so callers can accumulate. If `from == dest`
    /// the message has arrived and no hop is produced.
    fn next_hops(&self, from: PortId, dest: PortId, out: &mut Vec<PortId>);

    /// Whether the function returns at most one next hop for every pair.
    ///
    /// The deadlock theorem of the paper (Theorem 1) is stated for
    /// deterministic routing; the acyclicity check remains *sufficient* for
    /// adaptive functions but is no longer necessary.
    fn is_deterministic(&self) -> bool {
        true
    }

    /// The first admissible next hop, if any.
    fn next_hop(&self, from: PortId, dest: PortId) -> Option<PortId> {
        let mut out = Vec::with_capacity(1);
        self.next_hops(from, dest, &mut out);
        out.first().copied()
    }
}

/// Computes the full port path from `source` to `dest` by iterating a
/// deterministic routing function, the pre-computation of routes used by the
/// paper's `GeNoC2D` (deterministic routing makes routes
/// configuration-independent).
///
/// The returned path includes both endpoints: `path[0] == source` and
/// `path.last() == dest`.
///
/// # Errors
///
/// * [`Error::NoRoute`] if the routing function returns no hop before the
///   destination is reached;
/// * [`Error::RouteDiverged`] if the path exceeds `4 * port_count` hops,
///   which indicates a non-terminating routing function.
///
/// # Examples
///
/// ```
/// use genoc_core::line::{LineNetwork, LineRouting};
/// use genoc_core::network::Network;
/// use genoc_core::routing::compute_route;
/// use genoc_core::NodeId;
///
/// # fn main() -> Result<(), genoc_core::Error> {
/// let net = LineNetwork::new(3, 1);
/// let routing = LineRouting::new(&net);
/// let src = net.local_in(NodeId::from_index(0));
/// let dst = net.local_out(NodeId::from_index(2));
/// let route = compute_route(&net, &routing, src, dst)?;
/// assert_eq!(route[0], src);
/// assert_eq!(*route.last().unwrap(), dst);
/// # Ok(())
/// # }
/// ```
pub fn compute_route(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    source: PortId,
    dest: PortId,
) -> Result<Vec<PortId>> {
    let mut path = Vec::with_capacity(8);
    extend_route(
        net,
        routing,
        source,
        dest,
        &mut path,
        &mut Vec::with_capacity(4),
    )?;
    Ok(path)
}

/// [`compute_route`] appended to `path`, with `hops` as the buffer each
/// hop's candidates are collected in (one buffer for the whole route, not
/// one per hop): a caller that keeps both computes routes without
/// allocating once they have grown, as an arena loading a workload into
/// its route pool does.
///
/// # Errors
///
/// As [`compute_route`]; `path` then ends in part of the route.
pub fn extend_route(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    source: PortId,
    dest: PortId,
    path: &mut Vec<PortId>,
    hops: &mut Vec<PortId>,
) -> Result<()> {
    let limit = 4 * net.port_count().max(4);
    let start = path.len();
    path.push(source);
    let mut current = source;
    while current != dest {
        if path.len() - start > limit {
            return Err(Error::RouteDiverged {
                from: source,
                dest,
                limit,
            });
        }
        hops.clear();
        routing.next_hops(current, dest, hops);
        let next = *hops.first().ok_or(Error::NoRoute {
            from: current,
            dest,
        })?;
        path.push(next);
        current = next;
    }
    Ok(())
}

/// Validates that `path` is a plausible route on `net` under `routing`:
/// consecutive, terminating at `path.last()`, and reproducible hop by hop.
///
/// Used by the executable correctness theorem to check that arrived messages
/// "followed a valid path".
pub fn is_valid_route(_net: &dyn Network, routing: &dyn RoutingFunction, path: &[PortId]) -> bool {
    if path.is_empty() {
        return false;
    }
    let dest = *path.last().expect("non-empty");
    let mut hops = Vec::with_capacity(2);
    for window in path.windows(2) {
        hops.clear();
        routing.next_hops(window[0], dest, &mut hops);
        if !hops.contains(&window[1]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::line::{LineNetwork, LineRouting};

    fn fixture() -> (LineNetwork, LineRouting) {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        (net, routing)
    }

    #[test]
    fn route_reaches_every_destination() {
        let (net, routing) = fixture();
        for s in net.nodes() {
            for d in net.nodes() {
                let src = net.local_in(s);
                let dst = net.local_out(d);
                let route = compute_route(&net, &routing, src, dst).expect("line connected");
                assert_eq!(route[0], src);
                assert_eq!(*route.last().unwrap(), dst);
                // Hop count: in + (out,in) per intermediate link + out.
                let hops = s.index().abs_diff(d.index());
                assert_eq!(route.len(), 2 + 2 * hops);
            }
        }
    }

    #[test]
    fn route_to_same_node_is_two_ports() {
        let (net, routing) = fixture();
        let n = NodeId::from_index(1);
        let route =
            compute_route(&net, &routing, net.local_in(n), net.local_out(n)).expect("trivial");
        assert_eq!(route.len(), 2);
    }

    #[test]
    fn computed_routes_validate() {
        let (net, routing) = fixture();
        let src = net.local_in(NodeId::from_index(0));
        let dst = net.local_out(NodeId::from_index(3));
        let route = compute_route(&net, &routing, src, dst).unwrap();
        assert!(is_valid_route(&net, &routing, &route));
    }

    #[test]
    fn tampered_route_fails_validation() {
        let (net, routing) = fixture();
        let src = net.local_in(NodeId::from_index(0));
        let dst = net.local_out(NodeId::from_index(3));
        let mut route = compute_route(&net, &routing, src, dst).unwrap();
        route.swap(1, 2);
        assert!(!is_valid_route(&net, &routing, &route));
    }

    #[test]
    fn empty_route_is_invalid() {
        let (net, routing) = fixture();
        assert!(!is_valid_route(&net, &routing, &[]));
    }

    struct StuckRouting;
    impl RoutingFunction for StuckRouting {
        fn name(&self) -> String {
            "stuck".into()
        }
        fn next_hops(&self, _from: PortId, _dest: PortId, _out: &mut Vec<PortId>) {}
    }

    #[test]
    fn stuck_routing_reports_no_route() {
        let (net, _) = fixture();
        let src = net.local_in(NodeId::from_index(0));
        let dst = net.local_out(NodeId::from_index(3));
        let err = compute_route(&net, &StuckRouting, src, dst).unwrap_err();
        assert!(matches!(err, Error::NoRoute { .. }));
    }

    struct LoopRouting(PortId);
    impl RoutingFunction for LoopRouting {
        fn name(&self) -> String {
            "loop".into()
        }
        fn next_hops(&self, _from: PortId, _dest: PortId, out: &mut Vec<PortId>) {
            out.push(self.0);
        }
    }

    #[test]
    fn livelocked_routing_reports_divergence() {
        let (net, _) = fixture();
        let src = net.local_in(NodeId::from_index(0));
        let dst = net.local_out(NodeId::from_index(3));
        let err = compute_route(&net, &LoopRouting(src), src, dst).unwrap_err();
        assert!(matches!(err, Error::RouteDiverged { .. }));
    }
}
