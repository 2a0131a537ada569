//! A minimal reference instance: a bidirectional line of nodes.
//!
//! The line network is the smallest interesting [`Network`]: every node has
//! local in/out ports plus forward/backward link ports toward its neighbors,
//! and shortest-path routing is trivially deadlock-free. It exists so that
//! `genoc-core` can test and document itself without depending on the
//! topology crates; realistic instances (HERMES mesh, torus, ring,
//! Spidergon) live in `genoc-topology`.

use crate::config::Config;
use crate::error::Result;
use crate::ids::{NodeId, PortId};
use crate::network::{Direction, Network, PortAttrs};
use crate::routing::RoutingFunction;
use crate::step::{step_all, AlwaysAdmit, StepScratch};
use crate::switching::{Arbitration, KernelSpec, StepReport, SwitchingPolicy};
use crate::trace::Trace;

/// Port names of the line network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum LinePortName {
    Local,
    /// Link toward the higher-indexed neighbor.
    Fwd,
    /// Link toward the lower-indexed neighbor.
    Bwd,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct LinePort {
    node: usize,
    name: LinePortName,
    dir: Direction,
}

/// A bidirectional line of `n` nodes with uniform buffer capacity.
///
/// # Examples
///
/// ```
/// use genoc_core::line::LineNetwork;
/// use genoc_core::network::Network;
///
/// let net = LineNetwork::new(4, 2);
/// assert_eq!(net.node_count(), 4);
/// assert_eq!(net.topology_name(), "line-4");
/// ```
#[derive(Clone, Debug)]
pub struct LineNetwork {
    nodes: usize,
    capacity: u32,
    ports: Vec<LinePort>,
    /// `port_index[node]` maps (name, dir) pairs to dense port ids.
    local_in: Vec<PortId>,
    local_out: Vec<PortId>,
    fwd_in: Vec<Option<PortId>>,
    fwd_out: Vec<Option<PortId>>,
    bwd_in: Vec<Option<PortId>>,
    bwd_out: Vec<Option<PortId>>,
}

impl LineNetwork {
    /// Builds a line of `nodes` nodes (at least 1) with `capacity` one-flit
    /// buffers on every port.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `capacity == 0`.
    pub fn new(nodes: usize, capacity: u32) -> Self {
        assert!(nodes > 0, "line network needs at least one node");
        assert!(capacity > 0, "ports need at least one buffer");
        let mut net = LineNetwork {
            nodes,
            capacity,
            ports: Vec::new(),
            local_in: Vec::with_capacity(nodes),
            local_out: Vec::with_capacity(nodes),
            fwd_in: vec![None; nodes],
            fwd_out: vec![None; nodes],
            bwd_in: vec![None; nodes],
            bwd_out: vec![None; nodes],
        };
        for node in 0..nodes {
            let li = net.push(node, LinePortName::Local, Direction::In);
            let lo = net.push(node, LinePortName::Local, Direction::Out);
            net.local_in.push(li);
            net.local_out.push(lo);
            if node + 1 < nodes {
                net.fwd_out[node] = Some(net.push(node, LinePortName::Fwd, Direction::Out));
                net.bwd_in[node] = Some(net.push(node, LinePortName::Bwd, Direction::In));
            }
            if node > 0 {
                net.fwd_in[node] = Some(net.push(node, LinePortName::Fwd, Direction::In));
                net.bwd_out[node] = Some(net.push(node, LinePortName::Bwd, Direction::Out));
            }
        }
        net
    }

    fn push(&mut self, node: usize, name: LinePortName, dir: Direction) -> PortId {
        let id = PortId::from_index(self.ports.len());
        self.ports.push(LinePort { node, name, dir });
        id
    }

    fn port(&self, p: PortId) -> LinePort {
        self.ports[p.index()]
    }

    /// The forward out-port of `node`, if it has a higher neighbor.
    pub fn fwd_out(&self, node: usize) -> Option<PortId> {
        self.fwd_out[node]
    }

    /// The backward out-port of `node`, if it has a lower neighbor.
    pub fn bwd_out(&self, node: usize) -> Option<PortId> {
        self.bwd_out[node]
    }
}

impl Network for LineNetwork {
    fn port_count(&self) -> usize {
        self.ports.len()
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn attrs(&self, p: PortId) -> PortAttrs {
        let port = self.port(p);
        PortAttrs {
            node: NodeId::from_index(port.node),
            direction: port.dir,
            local: port.name == LinePortName::Local,
            capacity: self.capacity,
        }
    }

    fn next_in(&self, p: PortId) -> Option<PortId> {
        let port = self.port(p);
        if port.dir != Direction::Out {
            return None;
        }
        match port.name {
            LinePortName::Local => None,
            LinePortName::Fwd => self.fwd_in[port.node + 1],
            LinePortName::Bwd => self.bwd_in[port.node - 1],
        }
    }

    fn local_in(&self, n: NodeId) -> PortId {
        self.local_in[n.index()]
    }

    fn local_out(&self, n: NodeId) -> PortId {
        self.local_out[n.index()]
    }

    fn port_label(&self, p: PortId) -> String {
        let port = self.port(p);
        let name = match port.name {
            LinePortName::Local => "L",
            LinePortName::Fwd => "F",
            LinePortName::Bwd => "B",
        };
        let dir = match port.dir {
            Direction::In => "in",
            Direction::Out => "out",
        };
        format!("({}) {} {}", port.node, name, dir)
    }

    fn topology_name(&self) -> String {
        format!("line-{}", self.nodes)
    }
}

/// Shortest-path routing on the line: forward if the destination node is
/// higher, backward if lower, local otherwise.
#[derive(Clone, Debug)]
pub struct LineRouting {
    net: LineNetwork,
}

impl LineRouting {
    /// Builds the routing function for a line instance.
    pub fn new(net: &LineNetwork) -> Self {
        LineRouting { net: net.clone() }
    }
}

impl RoutingFunction for LineRouting {
    fn name(&self) -> String {
        "line-shortest".into()
    }

    fn next_hops(&self, from: PortId, dest: PortId, out: &mut Vec<PortId>) {
        if from == dest {
            return;
        }
        let p = self.net.port(from);
        if p.dir == Direction::Out {
            if let Some(next) = self.net.next_in(from) {
                out.push(next);
            }
            return;
        }
        let here = p.node;
        let target = self.net.port(dest).node;
        let hop = if target > here {
            self.net.fwd_out[here]
        } else if target < here {
            self.net.bwd_out[here]
        } else {
            Some(self.net.local_out[here])
        };
        if let Some(hop) = hop {
            out.push(hop);
        }
    }
}

/// The reference wormhole switching policy for the line (fixed-priority
/// greedy step); `genoc-switching` provides the configurable policies used
/// by the experiments.
#[derive(Clone, Debug, Default)]
pub struct LineSwitching {
    scratch: StepScratch,
}

impl SwitchingPolicy for LineSwitching {
    fn name(&self) -> String {
        "line-wormhole".into()
    }

    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut Trace,
    ) -> Result<StepReport> {
        self.scratch.reset(net.port_count());
        let order = 0..cfg.travels().len();
        step_all(cfg, order, &mut self.scratch, trace, &AlwaysAdmit)
    }

    fn is_deadlock(&self, _net: &dyn Network, cfg: &Config) -> bool {
        !cfg.is_evacuated() && !cfg.any_move_possible()
    }

    fn kernel_spec(&self) -> Option<KernelSpec> {
        static ADMISSION: AlwaysAdmit = AlwaysAdmit;
        Some(KernelSpec {
            arbitration: Arbitration::FixedPriority,
            admission: &ADMISSION,
            first_step: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_line_has_only_local_ports() {
        let net = LineNetwork::new(1, 1);
        assert_eq!(net.port_count(), 2);
        let n = NodeId::from_index(0);
        assert!(net.attrs(net.local_in(n)).is_local_in());
        assert!(net.attrs(net.local_out(n)).is_local_out());
    }

    #[test]
    fn links_are_wired_symmetrically() {
        let net = LineNetwork::new(3, 1);
        for node in 0..2 {
            let out = net.fwd_out(node).unwrap();
            let next = net.next_in(out).unwrap();
            let attrs = net.attrs(next);
            assert_eq!(attrs.node.index(), node + 1);
            assert_eq!(attrs.direction, Direction::In);
        }
        let back = net.bwd_out(2).unwrap();
        let next = net.next_in(back).unwrap();
        assert_eq!(net.attrs(next).node.index(), 1);
    }

    #[test]
    fn in_ports_have_no_next_in() {
        let net = LineNetwork::new(2, 1);
        for p in net.ports() {
            if net.attrs(p).direction == Direction::In {
                assert_eq!(net.next_in(p), None);
            }
        }
    }

    #[test]
    fn local_out_is_a_sink() {
        let net = LineNetwork::new(2, 1);
        let lo = net.local_out(NodeId::from_index(0));
        assert_eq!(net.next_in(lo), None);
    }

    #[test]
    fn routing_is_deterministic_and_minimal() {
        let net = LineNetwork::new(5, 1);
        let routing = LineRouting::new(&net);
        assert!(routing.is_deterministic());
        let src = net.local_in(NodeId::from_index(1));
        let dst = net.local_out(NodeId::from_index(4));
        let route = crate::routing::compute_route(&net, &routing, src, dst).unwrap();
        assert_eq!(route.len(), 2 + 2 * 3);
    }

    #[test]
    fn port_labels_are_informative() {
        let net = LineNetwork::new(2, 1);
        let label = net.port_label(net.local_in(NodeId::from_index(1)));
        assert!(label.contains('1') && label.contains('L'), "{label}");
    }
}
