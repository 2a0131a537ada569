//! The classical Dally–Seitz *channel* dependency graph, as a comparator.
//!
//! Dally & Seitz define dependencies between *channels* (unidirectional
//! inter-router links); the paper moves the definition to *ports*. The two
//! views are tightly related: every channel is identified by the out-port
//! that drives it, a port cycle cannot pass through local ports (injection
//! ports have no predecessors, ejection ports no successors), and it must
//! alternate out- and in-ports — so contracting the in-ports of a port cycle
//! yields a channel cycle and vice versa. [`channel_dependency_graph`] builds
//! the channel view directly, and the test suite checks the cyclicity
//! equivalence on every instance family.

use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::PortId;

use crate::graph::DiGraph;

/// The channel dependency graph of a routed network. Vertices are channels
/// (non-local out-ports); edge `c1 → c2` iff a message can arrive over `c1`
/// and be routed onward over `c2`.
#[derive(Clone, Debug)]
pub struct ChannelGraph {
    /// The dependency graph over channel indices.
    pub graph: DiGraph,
    /// `channels[i]` is the out-port driving channel `i`.
    pub channels: Vec<PortId>,
}

impl ChannelGraph {
    /// The channel index of an out-port, if it drives a channel.
    pub fn channel_of(&self, p: PortId) -> Option<usize> {
        self.channels.iter().position(|&c| c == p)
    }
}

/// Builds the Dally–Seitz channel dependency graph of `routing` on `net` by
/// contracting the in-ports out of the port dependency graph: `c1 → c2` iff
/// the port graph routes `next_in(c1)` into `c2`.
pub fn channel_dependency_graph(net: &dyn Network, routing: &dyn RoutingFunction) -> ChannelGraph {
    let pg = crate::build::port_dependency_graph(net, routing);
    let channels: Vec<PortId> = net
        .ports()
        .filter(|&p| {
            let a = net.attrs(p);
            a.direction == genoc_core::network::Direction::Out && !a.local
        })
        .collect();
    let mut index = vec![usize::MAX; net.port_count()];
    for (i, &c) in channels.iter().enumerate() {
        index[c.index()] = i;
    }
    let mut graph = DiGraph::new(channels.len());
    for (i, &c1) in channels.iter().enumerate() {
        let arrival = match net.next_in(c1) {
            Some(p) => p,
            None => continue,
        };
        for p in pg.successors(arrival) {
            if index[p.index()] != usize::MAX {
                graph.add_edge(PortId::from_index(i), PortId::from_index(index[p.index()]));
            }
        }
    }
    ChannelGraph { graph, channels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::port_dependency_graph;
    use crate::cycle::acyclicity;
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_routing::ring::RingShortestRouting;
    use genoc_routing::xy::XyRouting;
    use genoc_topology::mesh::Mesh;
    use genoc_topology::ring::Ring;

    #[test]
    fn xy_channel_graph_is_acyclic() {
        let mesh = Mesh::new(4, 4, 1);
        let cg = channel_dependency_graph(&mesh, &XyRouting::new(&mesh));
        assert!(acyclicity(&cg.graph).is_acyclic());
    }

    #[test]
    fn port_and_channel_cyclicity_agree() {
        let mesh = Mesh::new(3, 3, 1);
        let cases: Vec<(DiGraph, DiGraph)> = vec![
            (
                port_dependency_graph(&mesh, &XyRouting::new(&mesh)),
                channel_dependency_graph(&mesh, &XyRouting::new(&mesh)).graph,
            ),
            (
                port_dependency_graph(&mesh, &MixedXyYxRouting::new(&mesh)),
                channel_dependency_graph(&mesh, &MixedXyYxRouting::new(&mesh)).graph,
            ),
            {
                let ring = Ring::new(6, 1);
                (
                    port_dependency_graph(&ring, &RingShortestRouting::new(&ring)),
                    channel_dependency_graph(&ring, &RingShortestRouting::new(&ring)).graph,
                )
            },
        ];
        for (i, (pg, cg)) in cases.iter().enumerate() {
            assert_eq!(
                !acyclicity(pg).is_acyclic(),
                !acyclicity(cg).is_acyclic(),
                "case {i}: port-level and channel-level cyclicity disagree"
            );
        }
    }

    #[test]
    fn channel_count_matches_link_count() {
        let (w, h) = (3, 2);
        let mesh = Mesh::new(w, h, 1);
        let cg = channel_dependency_graph(&mesh, &XyRouting::new(&mesh));
        // 4 directed links per adjacent pair / 2 (each link one out-port).
        let links = 2 * ((w - 1) * h + w * (h - 1));
        assert_eq!(cg.channels.len(), links);
    }

    #[test]
    fn channel_of_resolves_out_ports() {
        let mesh = Mesh::new(2, 2, 1);
        let cg = channel_dependency_graph(&mesh, &XyRouting::new(&mesh));
        for (i, &c) in cg.channels.iter().enumerate() {
            assert_eq!(cg.channel_of(c), Some(i));
        }
        assert_eq!(cg.channel_of(mesh.local_out(mesh.node(0, 0))), None);
    }
}
