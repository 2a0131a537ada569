//! Construction of port dependency graphs and of the reachability relation
//! `s R d`.
//!
//! The *port dependency graph* has the ports of the network as vertices and
//! an edge `(s, p)` whenever the routing function can move a message from `s`
//! to `p` for some destination *that a message at `s` can legitimately have*.
//! The latter qualification is the paper's relation `s R d` ("quite
//! technical" in its words): a message can only sit at port `s` with
//! destination `d` if `s` lies on a route from some injection port to `d`.
//! Ignoring it would add impossible edges — e.g. an east-in port "routing
//! east" although east-in ports only ever hold westbound traffic — and those
//! phantom edges create phantom cycles.
//!
//! [`RoutingAnalysis`] therefore computes, per destination, the set of ports
//! traffic to that destination can traverse (a graph traversal from all
//! injection ports), collecting the dependency edges along the way, and then
//! decides the graph's [`acyclicity`] once for every checker. For XY
//! routing on any mesh the result coincides with the paper's closed-form
//! `E^xy_dep` ([`xy_mesh_dependency_graph`], Section V.6) — a coincidence the
//! (C-1)/(C-2) checkers in `genoc-verif` re-verify per instance.

use genoc_core::network::{Direction, Network};
use genoc_core::routing::RoutingFunction;
use genoc_core::PortId;
use genoc_topology::mesh::{Cardinal, Mesh};

use crate::cycle::{acyclicity, Acyclicity};
use crate::graph::DiGraph;

/// The dependency graph of a routing function together with the reachability
/// relation `s R d` it induces and the graph's acyclicity verdict.
#[derive(Clone, Debug)]
pub struct RoutingAnalysis {
    /// The port dependency graph.
    pub graph: DiGraph,
    /// [`acyclicity`] of `graph`: the (C-3) verdict with its certificate.
    pub acyclicity: Acyclicity,
    /// All destination ports, in node order.
    dests: Vec<PortId>,
    /// Dense destination index by port index (`usize::MAX` if not a
    /// destination).
    dest_index: Vec<usize>,
    /// `bits[s * stride + d/64]` bit `d%64`: `s R dests[d]`.
    bits: Vec<u64>,
    stride: usize,
}

impl RoutingAnalysis {
    /// Computes the dependency graph and reachability relation of `routing`
    /// on `net` by traversing, per destination, every port its traffic can
    /// occupy (starting from all injection ports), and decides the graph's
    /// acyclicity.
    pub fn new(net: &dyn Network, routing: &dyn RoutingFunction) -> Self {
        let port_count = net.port_count();
        let dests = net.destinations();
        let mut dest_index = vec![usize::MAX; port_count];
        for (i, &d) in dests.iter().enumerate() {
            dest_index[d.index()] = i;
        }
        let stride = dests.len().div_ceil(64);
        let mut bits = vec![0u64; port_count * stride];
        let mut graph = DiGraph::new(port_count);

        let mut stack: Vec<PortId> = Vec::new();
        let mut visited = vec![false; port_count];
        let mut hops = Vec::with_capacity(4);
        for (di, &d) in dests.iter().enumerate() {
            visited.iter_mut().for_each(|v| *v = false);
            stack.clear();
            for n in net.nodes() {
                let li = net.local_in(n);
                if li != d && !visited[li.index()] {
                    visited[li.index()] = true;
                    stack.push(li);
                }
            }
            while let Some(p) = stack.pop() {
                bits[p.index() * stride + di / 64] |= 1 << (di % 64);
                if p == d {
                    continue; // arrived: no further hops
                }
                hops.clear();
                routing.next_hops(p, d, &mut hops);
                for &q in &hops {
                    graph.add_edge(p, q);
                    if !visited[q.index()] {
                        visited[q.index()] = true;
                        stack.push(q);
                    }
                }
            }
        }
        RoutingAnalysis {
            acyclicity: acyclicity(&graph),
            graph,
            dests,
            dest_index,
            bits,
            stride,
        }
    }

    /// The paper's `s R d`: whether a message with destination `d` can
    /// legitimately occupy port `s`.
    pub fn reachable(&self, s: PortId, d: PortId) -> bool {
        let di = self.dest_index[d.index()];
        if di == usize::MAX {
            return false;
        }
        self.bits[s.index() * self.stride + di / 64] & (1 << (di % 64)) != 0
    }

    /// All destination ports, in node order.
    pub fn destinations(&self) -> &[PortId] {
        &self.dests
    }

    /// Destinations reachable from port `s`, excluding `s` itself.
    pub fn destinations_from(&self, s: PortId) -> Vec<PortId> {
        self.dests
            .iter()
            .copied()
            .filter(|&d| d != s && self.reachable(s, d))
            .collect()
    }
}

/// Builds the port dependency graph of `routing` on `net` (see
/// [`RoutingAnalysis`] for the construction).
pub fn port_dependency_graph(net: &dyn Network, routing: &dyn RoutingFunction) -> DiGraph {
    RoutingAnalysis::new(net, routing).graph
}

/// The paper's closed-form `next_outs(p)` for a mesh in-port: the set of
/// out-ports of the same node that XY routing can continue into.
///
/// ```text
/// next_outs(p) = { trans(p, L,Out) }
///              ∪ { trans(p, W,Out) | port(p) ∈ {E, L} }
///              ∪ { trans(p, E,Out) | port(p) ∈ {W, L} }
///              ∪ { trans(p, N,Out) | port(p) ≠ N }
///              ∪ { trans(p, S,Out) | port(p) ≠ S }
/// ```
///
/// Ports that do not exist on border nodes are filtered out, and so are
/// continuations no legitimate traffic performs on border nodes (e.g. a
/// `W-in` port on the eastern border never continues east — there is no node
/// further east to be destined to).
pub fn xy_next_outs(mesh: &Mesh, p: genoc_core::PortId) -> Vec<genoc_core::PortId> {
    let info = mesh.info(p);
    debug_assert_eq!(info.dir, Direction::In);
    let mut outs = Vec::with_capacity(5);
    let mut push = |card: Cardinal| {
        if let Some(q) = mesh.trans(p, card, Direction::Out) {
            outs.push(q);
        }
    };
    push(Cardinal::Local);
    if matches!(info.card, Cardinal::East | Cardinal::Local) {
        push(Cardinal::West);
    }
    if matches!(info.card, Cardinal::West | Cardinal::Local) {
        push(Cardinal::East);
    }
    if info.card != Cardinal::North {
        push(Cardinal::North);
    }
    if info.card != Cardinal::South {
        push(Cardinal::South);
    }
    outs
}

/// The paper's closed-form port dependency graph `E^xy_dep` of a mesh:
/// in-ports connect to their `next_outs`, non-local out-ports to their
/// `next_in`, and local out-ports are sinks (Fig. 3 shows this graph for the
/// 2×2 mesh).
pub fn xy_mesh_dependency_graph(mesh: &Mesh) -> DiGraph {
    let mut g = DiGraph::new(mesh.port_count());
    for p in mesh.ports() {
        let info = mesh.info(p);
        match info.dir {
            Direction::In => {
                for q in xy_next_outs(mesh, p) {
                    g.add_edge(p, q);
                }
            }
            Direction::Out => {
                if let Some(q) = mesh.next_in(p) {
                    g.add_edge(p, q);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::network::Network;
    use genoc_routing::xy::XyRouting;

    #[test]
    fn exhaustive_graph_is_a_subgraph_of_the_closed_form() {
        // (C-1) in exact form: every routing step is a closed-form edge.
        for (w, h) in [(1, 1), (2, 2), (3, 2), (4, 4), (1, 5)] {
            let mesh = Mesh::new(w, h, 1);
            let exhaustive = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
            let closed = xy_mesh_dependency_graph(&mesh);
            assert_eq!(
                exhaustive.difference(&closed),
                vec![],
                "{w}x{h}: routing step missing from the closed form"
            );
        }
    }

    #[test]
    fn closed_form_edges_all_have_witnesses_on_interior_sizes() {
        // (C-2) in exact form. On meshes of width/height >= 2 every
        // closed-form edge is realised by actual traffic, so the two
        // constructions coincide.
        for (w, h) in [(2, 2), (3, 2), (3, 3), (4, 4)] {
            let mesh = Mesh::new(w, h, 1);
            let exhaustive = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
            let closed = xy_mesh_dependency_graph(&mesh);
            assert_eq!(
                closed.difference(&exhaustive),
                vec![],
                "{w}x{h}: closed-form edge without routing witness"
            );
        }
    }

    #[test]
    fn reachability_excludes_impossible_destinations() {
        let mesh = Mesh::new(2, 2, 1);
        let analysis = RoutingAnalysis::new(&mesh, &XyRouting::new(&mesh));
        // An east-in port holds only westbound traffic: destinations with a
        // larger x are not reachable from it.
        let e_in = mesh.port(0, 0, Cardinal::East, Direction::In).unwrap();
        assert!(analysis.reachable(e_in, mesh.local_out(mesh.node(0, 0))));
        assert!(analysis.reachable(e_in, mesh.local_out(mesh.node(0, 1))));
        assert!(!analysis.reachable(e_in, mesh.local_out(mesh.node(1, 0))));
        assert!(!analysis.reachable(e_in, mesh.local_out(mesh.node(1, 1))));
    }

    #[test]
    fn no_u_turn_edges() {
        let mesh = Mesh::new(3, 3, 1);
        let g = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
        for (u, v) in g.edges() {
            let iu = mesh.info(u);
            let iv = mesh.info(v);
            if iu.dir == Direction::In && iv.dir == Direction::Out {
                assert!(
                    iu.card != iv.card || iu.card == Cardinal::Local,
                    "U-turn {} -> {}",
                    mesh.port_label(u),
                    mesh.port_label(v)
                );
            }
        }
    }

    #[test]
    fn local_outs_are_sinks() {
        let mesh = Mesh::new(3, 3, 1);
        let g = xy_mesh_dependency_graph(&mesh);
        for n in mesh.nodes() {
            assert_eq!(g.out_degree(mesh.local_out(n)), 0);
        }
    }

    #[test]
    fn local_ins_are_sources() {
        let mesh = Mesh::new(3, 3, 1);
        let g = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
        for (_, v) in g.edges() {
            assert!(
                !mesh.attrs(v).is_local_in(),
                "nothing routes into a local in-port"
            );
        }
    }

    #[test]
    fn interior_in_port_has_four_next_outs() {
        let mesh = Mesh::new(3, 3, 1);
        // W-in of the center node receives eastbound traffic, which can
        // continue east, turn north/south, or eject — but never U-turn west.
        let p = mesh.port(1, 1, Cardinal::West, Direction::In).unwrap();
        let outs = xy_next_outs(&mesh, p);
        assert_eq!(outs.len(), 4);
        let cards: Vec<Cardinal> = outs.iter().map(|&q| mesh.info(q).card).collect();
        assert!(cards.contains(&Cardinal::East));
        assert!(!cards.contains(&Cardinal::West), "no U-turns");
    }

    #[test]
    fn vertical_in_ports_cannot_turn_horizontally() {
        let mesh = Mesh::new(3, 3, 1);
        let p = mesh.port(1, 1, Cardinal::North, Direction::In).unwrap();
        let cards: Vec<Cardinal> = xy_next_outs(&mesh, p)
            .iter()
            .map(|&q| mesh.info(q).card)
            .collect();
        assert_eq!(cards, vec![Cardinal::Local, Cardinal::South]);
    }

    #[test]
    fn destinations_from_lists_reachable_targets() {
        let mesh = Mesh::new(2, 2, 1);
        let analysis = RoutingAnalysis::new(&mesh, &XyRouting::new(&mesh));
        let li = mesh.local_in(mesh.node(0, 0));
        assert_eq!(
            analysis.destinations_from(li).len(),
            4,
            "all nodes reachable"
        );
    }
}
