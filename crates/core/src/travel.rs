//! Travels: messages in flight, the `⟨id, c, d⟩` triples of the paper,
//! extended with their pre-computed route (the `GeNoC2D` optimisation) and
//! per-flit positions (wormhole switching decomposes messages into flits).

use crate::error::{Error, Result};
use crate::ids::{MsgId, NodeId, PortId};
use crate::network::Network;
use crate::routing::{compute_route, RoutingFunction};
use crate::spec::MessageSpec;

/// Position of a single flit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlitPos {
    /// Still queued in the source IP core, before the local in-port.
    Pending,
    /// Resident in the buffer of the route port with this index.
    InNetwork(usize),
    /// Ejected into the destination IP core.
    Delivered,
}

impl FlitPos {
    /// Total order used by the worm-shape invariant: `Delivered` is furthest,
    /// then in-network positions by route index, then `Pending`.
    fn rank(self, route_len: usize) -> usize {
        match self {
            FlitPos::Pending => 0,
            FlitPos::InNetwork(k) => k + 1,
            FlitPos::Delivered => route_len + 1,
        }
    }
}

/// A message in flight.
///
/// A travel stores the static description (`id`, source/destination nodes),
/// the pre-computed port route (`route[0]` is the first port the head enters,
/// `route.last()` the destination's local out-port), and the dynamic position
/// of every flit. Flit 0 is the header (the worm's head); the last flit is
/// the tail.
///
/// # Worm-shape invariant
///
/// Flit positions are non-increasing from head to tail (a flit never passes
/// the one in front of it), which [`Travel::check_invariants`] verifies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Travel {
    id: MsgId,
    source_node: NodeId,
    dest_node: NodeId,
    route: Vec<PortId>,
    flits: Vec<FlitPos>,
}

/// The checks [`Travel::from_spec`] makes of `spec` before it computes a
/// route: at least one flit, and both nodes inside `net`.
///
/// # Errors
///
/// [`Error::InvalidSpec`] naming message `id`.
pub(crate) fn check_spec(net: &dyn Network, id: MsgId, spec: &MessageSpec) -> Result<()> {
    if spec.flits == 0 {
        return Err(Error::InvalidSpec(format!("message {id} has zero flits")));
    }
    if spec.source.index() >= net.node_count() || spec.dest.index() >= net.node_count() {
        return Err(Error::InvalidSpec(format!(
            "message {id} references a node outside the {}-node network",
            net.node_count()
        )));
    }
    Ok(())
}

impl Travel {
    /// Builds a travel for `spec`, pre-computing its route from the node's
    /// local in-port to the destination's local out-port (all flits start
    /// [`FlitPos::Pending`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] for zero-flit messages or out-of-range
    /// nodes, and propagates route-computation failures.
    pub fn from_spec(
        net: &dyn Network,
        routing: &dyn RoutingFunction,
        id: MsgId,
        spec: &MessageSpec,
    ) -> Result<Self> {
        check_spec(net, id, spec)?;
        let source = net.local_in(spec.source);
        let dest = net.local_out(spec.dest);
        let route = compute_route(net, routing, source, dest)?;
        Ok(Travel {
            id,
            source_node: spec.source,
            dest_node: spec.dest,
            route,
            flits: vec![FlitPos::Pending; spec.flits],
        })
    }

    /// Builds a pending travel on an explicit, pre-selected route (all flits
    /// [`FlitPos::Pending`]).
    ///
    /// This is how *adaptive* routing functions are simulated: a route
    /// selector fixes one admissible route per message up front (any
    /// selection from an acyclic adaptive relation is itself acyclic), and
    /// the deterministic wormhole machinery runs it unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] if the route is empty, does not start
    /// at a local in-port, does not end at a local out-port, or `flits` is
    /// zero.
    pub fn from_route(
        net: &dyn Network,
        id: MsgId,
        route: Vec<PortId>,
        flits: usize,
    ) -> Result<Self> {
        if route.is_empty() {
            return Err(Error::InvalidSpec(format!(
                "message {id} has an empty route"
            )));
        }
        if flits == 0 {
            return Err(Error::InvalidSpec(format!("message {id} has zero flits")));
        }
        let first = net.attrs(route[0]);
        if !first.is_local_in() {
            return Err(Error::InvalidSpec(format!(
                "message {id}: route must start at a local in-port"
            )));
        }
        let last = net.attrs(*route.last().expect("non-empty"));
        if !last.is_local_out() {
            return Err(Error::InvalidSpec(format!(
                "message {id}: route must end at a local out-port"
            )));
        }
        Ok(Travel {
            id,
            source_node: first.node,
            dest_node: last.node,
            route,
            flits: vec![FlitPos::Pending; flits],
        })
    }

    /// Builds a travel mid-flight on an explicit route, with all flits
    /// resident in `route[0]`.
    ///
    /// This is the constructor used by the executable sufficiency direction
    /// of Theorem 1: a cycle in the dependency graph is compiled into a
    /// configuration of mid-flight messages that block each other.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] if the route or flit count is empty.
    pub fn mid_flight(
        net: &dyn Network,
        id: MsgId,
        route: Vec<PortId>,
        flits: usize,
    ) -> Result<Self> {
        if route.is_empty() {
            return Err(Error::InvalidSpec(format!(
                "message {id} has an empty route"
            )));
        }
        if flits == 0 {
            return Err(Error::InvalidSpec(format!("message {id} has zero flits")));
        }
        let dest = *route.last().expect("non-empty");
        let dest_node = net.attrs(dest).node;
        let source_node = net.attrs(route[0]).node;
        Ok(Travel {
            id,
            source_node,
            dest_node,
            route,
            flits: vec![FlitPos::InNetwork(0); flits],
        })
    }

    /// The travel identifier.
    pub fn id(&self) -> MsgId {
        self.id
    }

    /// Source node of the message.
    pub fn source_node(&self) -> NodeId {
        self.source_node
    }

    /// Destination node of the message.
    pub fn dest_node(&self) -> NodeId {
        self.dest_node
    }

    /// The first port of the route (the source local in-port for injected
    /// travels).
    pub fn source(&self) -> PortId {
        self.route[0]
    }

    /// The destination port `d` of the travel triple (a local out-port).
    pub fn dest(&self) -> PortId {
        *self.route.last().expect("routes are non-empty")
    }

    /// The pre-computed port route, endpoints included.
    pub fn route(&self) -> &[PortId] {
        &self.route
    }

    /// Number of flits of the message.
    pub fn flit_count(&self) -> usize {
        self.flits.len()
    }

    /// Position of flit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= flit_count()`.
    pub fn flit_pos(&self, i: usize) -> FlitPos {
        self.flits[i]
    }

    /// Iterates over the flit positions, head first.
    pub fn flit_positions(&self) -> impl ExactSizeIterator<Item = FlitPos> + '_ {
        self.flits.iter().copied()
    }

    /// Whether flit `i` is the tail (ownership of a port is released when the
    /// tail leaves it).
    pub fn is_tail(&self, i: usize) -> bool {
        i + 1 == self.flits.len()
    }

    /// Route index of the header flit, or `None` while it is pending or after
    /// it has been delivered.
    pub fn head_route_index(&self) -> Option<usize> {
        match self.flits[0] {
            FlitPos::InNetwork(k) => Some(k),
            _ => None,
        }
    }

    /// The current location `c` of the travel triple: the header's port, the
    /// source port while pending, or the destination once delivered.
    pub fn current(&self) -> PortId {
        match self.flits[0] {
            FlitPos::Pending => self.source(),
            FlitPos::InNetwork(k) => self.route[k],
            FlitPos::Delivered => self.dest(),
        }
    }

    /// Whether every flit has been delivered (the travel belongs in `A`).
    pub fn is_arrived(&self) -> bool {
        self.flits.iter().all(|f| *f == FlitPos::Delivered)
    }

    /// Whether any flit has entered the network and not yet been delivered.
    pub fn occupies_network(&self) -> bool {
        self.flits
            .iter()
            .any(|f| matches!(f, FlitPos::InNetwork(_)))
    }

    /// The paper's measure contribution `|m.r|`: the number of route hops the
    /// header has not yet taken.
    ///
    /// This is `route.len() - 1` for a pending head and `0` once the head has
    /// reached the destination port — note it stays `0` while the worm is
    /// still draining, which is why the strictly-decreasing measure used for
    /// (C-5) is [`progress_potential`](Travel::progress_potential).
    pub fn remaining_route(&self) -> usize {
        match self.flits[0] {
            FlitPos::Pending => self.route.len() - 1,
            FlitPos::InNetwork(k) => self.route.len() - 1 - k,
            FlitPos::Delivered => 0,
        }
    }

    /// The refined measure contribution: the exact number of flit moves still
    /// needed to deliver the whole message. Every flit move (entry, hop, or
    /// ejection) decreases this by exactly one.
    pub fn progress_potential(&self) -> u64 {
        let len = self.route.len();
        self.flits
            .iter()
            .map(|f| match *f {
                FlitPos::Pending => (len + 1) as u64,
                FlitPos::InNetwork(k) => (len - k) as u64,
                FlitPos::Delivered => 0,
            })
            .sum()
    }

    /// Ports currently *owned* by this travel under wormhole semantics: every
    /// route port the header has entered and the tail has not yet left.
    pub fn owned_route_range(&self) -> Option<(usize, usize)> {
        let head_extent = match self.flits[0] {
            FlitPos::Pending => return None,
            FlitPos::InNetwork(k) => k,
            FlitPos::Delivered => self.route.len() - 1,
        };
        let tail = *self.flits.last().expect("at least one flit");
        let tail_pos = match tail {
            FlitPos::Pending => 0,
            FlitPos::InNetwork(k) => k,
            FlitPos::Delivered => return None,
        };
        Some((tail_pos, head_extent))
    }

    /// Replaces the not-yet-claimed suffix of the route, keeping everything
    /// the worm has already claimed.
    ///
    /// This is the primitive behind escape-channel deadlock recovery: a
    /// blocked travel keeps the route prefix its flits occupy and own (up to
    /// and including the head's port) and continues along a new suffix —
    /// typically through a reserved escape virtual channel. Since ownership
    /// under wormhole semantics never extends beyond the head, no network
    /// state changes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] if the head has already been delivered,
    /// if `new_route` does not preserve the claimed prefix (`route[0]` for a
    /// pending head, `route[0..=k]` for a head at index `k`), does not end at
    /// the original destination's local out-port (recovery re-routes *how* a
    /// message travels, never *where* it is delivered), or visits a port
    /// twice.
    pub fn reroute(&mut self, net: &dyn Network, new_route: Vec<PortId>) -> Result<()> {
        let keep = match self.flits[0] {
            FlitPos::Pending => 1,
            FlitPos::InNetwork(k) => k + 1,
            FlitPos::Delivered => {
                return Err(Error::InvalidSpec(format!(
                    "travel {}: cannot reroute a delivered header",
                    self.id
                )))
            }
        };
        if new_route.len() < keep || new_route[..keep] != self.route[..keep] {
            return Err(Error::InvalidSpec(format!(
                "travel {}: reroute must preserve the claimed prefix of {} ports",
                self.id, keep
            )));
        }
        let last = *new_route.last().expect("prefix is non-empty");
        if !net.attrs(last).is_local_out() || net.attrs(last).node != self.dest_node {
            return Err(Error::InvalidSpec(format!(
                "travel {}: rerouted route must end at the destination's local out-port",
                self.id
            )));
        }
        for (i, p) in new_route.iter().enumerate() {
            if new_route[..i].contains(p) {
                return Err(Error::InvalidSpec(format!(
                    "travel {}: rerouted route visits {p} twice",
                    self.id
                )));
            }
        }
        self.route = new_route;
        Ok(())
    }

    /// Sets flit `i` to `pos`.
    ///
    /// This is a low-level mutator used by switching policies via
    /// [`Config`](crate::config::Config); prefer the `Config` movement
    /// methods, which keep the port state consistent.
    ///
    /// # Panics
    ///
    /// Panics if `i >= flit_count()` or if `pos` refers outside the route.
    #[doc(hidden)]
    pub fn set_flit_pos(&mut self, i: usize, pos: FlitPos) {
        if let FlitPos::InNetwork(k) = pos {
            assert!(k < self.route.len(), "flit position outside route");
        }
        self.flits[i] = pos;
    }

    /// Re-seats every flit from `block`, this travel's slice of a
    /// [`Config::position_key`](crate::config::Config::position_key): `0`
    /// pending, `k + 1` in the network at route index `k`, [`u16::MAX`]
    /// delivered. The caller slices `block` to the flit count.
    ///
    /// # Errors
    ///
    /// As [`reseat_with`](Travel::reseat_with).
    #[inline]
    pub(crate) fn reseat(&mut self, block: &[u16]) -> Result<()> {
        self.reseat_with(block.iter().map(|&v| match v {
            0 => FlitPos::Pending,
            u16::MAX => FlitPos::Delivered,
            k => FlitPos::InNetwork(usize::from(k) - 1),
        }))
    }

    /// Re-seats every flit from `positions`, head first: the dynamic checks
    /// of [`check_invariants`](Travel::check_invariants) without the route
    /// scan. The route is not looked at beyond its length: it is static, and
    /// whoever built the travel validated it.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] if `positions` is not one per flit, names a
    /// route index outside the route, or breaks the worm-shape invariant.
    /// The flits hold part of `positions` then; re-seat again before reading
    /// them.
    ///
    /// The explorer decodes every state through this loop: it is inlined
    /// into `Config::reseat`, and the out-of-route message names `k` by
    /// value so that `pos` stays in registers.
    #[inline]
    pub(crate) fn reseat_with(
        &mut self,
        positions: impl ExactSizeIterator<Item = FlitPos>,
    ) -> Result<()> {
        if positions.len() != self.flits.len() {
            return Err(Error::Invariant(format!(
                "travel {}: {} positions for {} flits",
                self.id,
                positions.len(),
                self.flits.len()
            )));
        }
        for (flit, pos) in self.flits.iter_mut().zip(positions) {
            match pos {
                FlitPos::InNetwork(k) if k >= self.route.len() => {
                    return Err(Error::Invariant(format!(
                        "travel {}: route index {k} lies outside its {}-port route",
                        self.id,
                        self.route.len()
                    )));
                }
                _ => *flit = pos,
            }
        }
        self.check_worm_shape()
    }

    /// Verifies the worm-shape invariant and that the route visits no port
    /// twice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] naming the first out-of-order flit pair
    /// or repeated port.
    pub fn check_invariants(&self) -> Result<()> {
        self.check_worm_shape()?;
        // Route must be duplicate-free for the ownership bookkeeping to hold.
        for (i, p) in self.route.iter().enumerate() {
            if self.route[..i].contains(p) {
                return Err(Error::Invariant(format!(
                    "travel {}: route visits {p} twice",
                    self.id
                )));
            }
        }
        Ok(())
    }

    /// The dynamic half of [`check_invariants`](Travel::check_invariants):
    /// flit positions are non-increasing from head to tail.
    fn check_worm_shape(&self) -> Result<()> {
        let len = self.route.len();
        for w in 0..self.flits.len().saturating_sub(1) {
            let ahead = self.flits[w].rank(len);
            let behind = self.flits[w + 1].rank(len);
            if behind > ahead {
                return Err(Error::Invariant(format!(
                    "travel {}: flit {} ({:?}) is ahead of flit {} ({:?})",
                    self.id,
                    w + 1,
                    self.flits[w + 1],
                    w,
                    self.flits[w]
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{LineNetwork, LineRouting};

    fn travel(flits: usize) -> (LineNetwork, Travel) {
        let net = LineNetwork::new(3, 2);
        let routing = LineRouting::new(&net);
        let spec = MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), flits);
        let t = Travel::from_spec(&net, &routing, MsgId::from_index(0), &spec).unwrap();
        (net, t)
    }

    #[test]
    fn fresh_travel_is_pending() {
        let (_, t) = travel(3);
        assert!(t.flit_positions().all(|f| f == FlitPos::Pending));
        assert!(!t.is_arrived());
        assert!(!t.occupies_network());
        assert_eq!(t.current(), t.source());
        assert_eq!(t.owned_route_range(), None);
    }

    #[test]
    fn zero_flit_spec_is_rejected() {
        let net = LineNetwork::new(2, 1);
        let routing = LineRouting::new(&net);
        let spec = MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 0);
        let err = Travel::from_spec(&net, &routing, MsgId::from_index(0), &spec).unwrap_err();
        assert!(matches!(err, Error::InvalidSpec(_)));
    }

    #[test]
    fn out_of_range_node_is_rejected() {
        let net = LineNetwork::new(2, 1);
        let routing = LineRouting::new(&net);
        let spec = MessageSpec::new(NodeId::from_index(0), NodeId::from_index(9), 1);
        assert!(Travel::from_spec(&net, &routing, MsgId::from_index(0), &spec).is_err());
    }

    #[test]
    fn remaining_route_counts_down() {
        let (_, mut t) = travel(1);
        let full = t.remaining_route();
        assert_eq!(full, t.route().len() - 1);
        t.set_flit_pos(0, FlitPos::InNetwork(0));
        assert_eq!(t.remaining_route(), full);
        t.set_flit_pos(0, FlitPos::InNetwork(1));
        assert_eq!(t.remaining_route(), full - 1);
        t.set_flit_pos(0, FlitPos::Delivered);
        assert_eq!(t.remaining_route(), 0);
        assert!(t.is_arrived());
    }

    #[test]
    fn progress_potential_counts_every_move() {
        let (_, mut t) = travel(2);
        let len = t.route().len() as u64;
        // Each flit: enter (1) + len-1 hops + eject (1).
        assert_eq!(t.progress_potential(), 2 * (len + 1));
        t.set_flit_pos(0, FlitPos::InNetwork(0));
        assert_eq!(t.progress_potential(), 2 * (len + 1) - 1);
    }

    #[test]
    fn worm_shape_invariant_detects_passing() {
        let (_, mut t) = travel(2);
        t.set_flit_pos(0, FlitPos::InNetwork(0));
        t.check_invariants().unwrap();
        t.set_flit_pos(1, FlitPos::InNetwork(0));
        t.check_invariants().unwrap();
        // Body flit ahead of the head is illegal.
        t.set_flit_pos(1, FlitPos::InNetwork(1));
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn owned_range_tracks_head_and_tail() {
        let (_, mut t) = travel(2);
        t.set_flit_pos(0, FlitPos::InNetwork(2));
        t.set_flit_pos(1, FlitPos::InNetwork(1));
        assert_eq!(t.owned_route_range(), Some((1, 2)));
        t.set_flit_pos(0, FlitPos::Delivered);
        let last = t.route().len() - 1;
        assert_eq!(t.owned_route_range(), Some((1, last)));
        t.set_flit_pos(1, FlitPos::Delivered);
        assert_eq!(t.owned_route_range(), None);
    }

    #[test]
    fn reroute_preserves_prefix_and_destination() {
        let (net, mut t) = travel(2);
        t.set_flit_pos(0, FlitPos::InNetwork(1));
        t.set_flit_pos(1, FlitPos::InNetwork(0));
        // Identity reroute is valid.
        t.reroute(&net, t.route().to_vec()).unwrap();
        // A route ending at another node's local out-port is rejected: the
        // destination is part of the message contract.
        let mut wrong_dest = t.route().to_vec();
        *wrong_dest.last_mut().unwrap() = net.local_out(NodeId::from_index(1));
        assert!(t.reroute(&net, wrong_dest).is_err());
        // A route that does not preserve the claimed prefix is rejected.
        assert!(t.reroute(&net, t.route()[..1].to_vec()).is_err());
        // A delivered head cannot be rerouted.
        let (net, mut done) = travel(1);
        done.set_flit_pos(0, FlitPos::Delivered);
        assert!(done.reroute(&net, done.route().to_vec()).is_err());
    }

    #[test]
    fn mid_flight_travel_starts_in_network() {
        let (net, t) = travel(1);
        let mid = Travel::mid_flight(&net, MsgId::from_index(9), t.route().to_vec(), 2).unwrap();
        assert!(mid.occupies_network());
        assert_eq!(mid.owned_route_range(), Some((0, 0)));
        assert_eq!(mid.flit_count(), 2);
    }
}
