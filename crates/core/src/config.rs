//! Configurations `σ = ⟨T, ST, A⟩` and the flit-movement primitives shared by
//! all switching policies.
//!
//! A configuration bundles the in-flight travel list `T`, the network state
//! `ST`, and the arrived list `A`. The movement primitives (`enter_flit`,
//! `advance_flit`, `eject_flit`) keep `T` and `ST` consistent; switching
//! policies differ only in *which* admissible moves they perform per step.

use crate::error::{Error, Result};
use crate::ids::{MsgId, PortId};
use crate::moves::MoveKind;
use crate::network::Network;
use crate::routing::RoutingFunction;
use crate::spec::MessageSpec;
use crate::state::NetworkState;
use crate::step::{self, AlwaysAdmit};
use crate::travel::{FlitPos, Travel};

/// A network configuration `σ = ⟨T, ST, A⟩`.
///
/// # Examples
///
/// ```
/// use genoc_core::line::{LineNetwork, LineRouting};
/// use genoc_core::spec::MessageSpec;
/// use genoc_core::config::Config;
/// use genoc_core::NodeId;
///
/// # fn main() -> Result<(), genoc_core::Error> {
/// let net = LineNetwork::new(3, 1);
/// let routing = LineRouting::new(&net);
/// let specs = [MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2)];
/// let cfg = Config::from_specs(&net, &routing, &specs)?;
/// assert_eq!(cfg.travels().len(), 1);
/// assert!(cfg.arrived().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Config {
    travels: Vec<Travel>,
    state: NetworkState,
    arrived: Vec<Travel>,
}

impl Config {
    /// Builds the initial configuration for a workload: every message of
    /// `specs` becomes a travel with a pre-computed route and all flits
    /// pending at the source IP core (all messages are present at time 0, so
    /// the identity injection method satisfies (C-4)).
    ///
    /// # Errors
    ///
    /// Propagates specification and route-computation errors.
    pub fn from_specs(
        net: &dyn Network,
        routing: &dyn RoutingFunction,
        specs: &[MessageSpec],
    ) -> Result<Self> {
        let travels = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| Travel::from_spec(net, routing, MsgId::from_index(i), spec))
            .collect::<Result<Vec<_>>>()?;
        Ok(Config {
            travels,
            state: NetworkState::for_network(net),
            arrived: Vec::new(),
        })
    }

    /// Builds a configuration from explicit (possibly mid-flight) travels,
    /// reconstructing buffer occupancy and ownership from the flit positions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] or [`Error::CapacityExceeded`] if two
    /// travels claim the same port or a port is over-subscribed, and
    /// propagates worm-shape violations.
    pub fn from_travels(net: &dyn Network, travels: Vec<Travel>) -> Result<Self> {
        let mut state = NetworkState::for_network(net);
        for t in &travels {
            t.check_invariants()?;
            seat(&mut state, t)?;
        }
        let (arrived, travels) = travels.into_iter().partition(|t| t.is_arrived());
        Ok(Config {
            travels,
            state,
            arrived,
        })
    }

    /// Moves every flit of every message to the position `key` gives it —
    /// the inverse of [`position_key`](Config::position_key) — in place:
    /// flit positions are overwritten, `ST` is emptied and rebuilt from them
    /// with the checks of [`from_travels`](Config::from_travels), and `T`
    /// and `A` are re-partitioned, each in [`MsgId`] order. An explorer
    /// decodes one state after another into the same configuration this
    /// way, allocating nothing.
    ///
    /// Routes are not looked at again: they are static, and whoever built
    /// the configuration validated them.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] if `key` has the wrong length, names a position
    /// outside a route, or breaks a worm shape or port ownership, and
    /// [`Error::CapacityExceeded`] if it over-fills a port: a corrupted key,
    /// never a legal state. The configuration is inconsistent then; re-seat
    /// it with a valid key before using it.
    pub fn reseat(&mut self, key: &[u16]) -> Result<()> {
        self.travels.append(&mut self.arrived);
        self.travels.sort_unstable_by_key(|t| t.id().index());
        self.state.reset();
        let mut rest = key;
        for t in &mut self.travels {
            let Some((block, tail)) = rest.split_at_checked(t.flit_count()) else {
                return Err(Error::Invariant(format!(
                    "position key of {} entries is too short for the workload",
                    key.len()
                )));
            };
            rest = tail;
            t.reseat(block)?;
            seat(&mut self.state, t)?;
        }
        if !rest.is_empty() {
            return Err(Error::Invariant(format!(
                "position key of {} entries is {} too long for the workload",
                key.len(),
                rest.len()
            )));
        }
        self.arrived
            .extend(self.travels.extract_if(.., |t| t.is_arrived()));
        Ok(())
    }

    /// [`reseat`](Config::reseat) for a stepper that evolved this
    /// configuration in a layout of its own (the arena): `seats` lists every
    /// travel — its id, the route it was stepped along, its flit positions
    /// head first — in the order `T` followed by `A` is to have. The travels
    /// are sorted into that order, their flits overwritten, `ST` emptied and
    /// rebuilt with the checks of [`from_travels`](Config::from_travels), and
    /// `T` and `A` re-partitioned by [`Travel::is_arrived`] as `from_travels`
    /// does. No travel, route or flit vector is allocated.
    ///
    /// A route is compared with the one this configuration holds and not
    /// validated again: whoever built the configuration checked that it
    /// visits no port twice and ends where the travel does, and an equal
    /// route inherits both.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] if `seats` does not list exactly the travels of
    /// this configuration once each, if a route differs, or if the positions
    /// name a port outside a route or break a worm shape or port ownership,
    /// and [`Error::CapacityExceeded`] if they over-fill a port. The
    /// configuration is inconsistent then.
    pub(crate) fn reseat_in_order<'a, F>(
        &mut self,
        seats: impl Iterator<Item = (MsgId, &'a [PortId], F)> + Clone,
    ) -> Result<()>
    where
        F: ExactSizeIterator<Item = FlitPos>,
    {
        self.travels.append(&mut self.arrived);
        // Each travel's place in `seats`, by id; one `seats` leaves out
        // sorts last.
        let ids = self.travels.iter().map(|t| t.id().index() + 1).max();
        let mut rank = vec![usize::MAX; ids.unwrap_or(0)];
        let mut listed = 0;
        for (id, ..) in seats.clone() {
            if let Some(place) = rank.get_mut(id.index()) {
                *place = listed;
            }
            listed += 1;
        }
        if listed != self.travels.len() {
            return Err(Error::Invariant(format!(
                "{listed} travels written back into a configuration of {}",
                self.travels.len()
            )));
        }
        self.travels.sort_unstable_by_key(|t| rank[t.id().index()]);
        self.state.reset();
        // A travel listed twice, or one this configuration does not hold,
        // leaves some place with another travel's id in it.
        for (t, (id, route, flits)) in self.travels.iter_mut().zip(seats) {
            if t.id() != id {
                return Err(Error::Invariant(format!(
                    "travel {id} written back twice or into a configuration that does not \
                     hold it: travel {} is in its place",
                    t.id()
                )));
            }
            if t.route() != route {
                return Err(Error::Invariant(format!(
                    "travel {id} written back along a route that differs from its own"
                )));
            }
            t.reseat_with(flits)?;
            seat(&mut self.state, t)?;
        }
        self.arrived
            .extend(self.travels.extract_if(.., |t| t.is_arrived()));
        Ok(())
    }

    /// The in-flight travel list `T`.
    pub fn travels(&self) -> &[Travel] {
        &self.travels
    }

    /// Appends a travel to `T`, registering any in-network flits and owned
    /// ports with the network state. Used by non-identity injection methods
    /// (the paper's future-work extension) to release messages into the
    /// configuration after time 0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the travel violates the worm-shape
    /// invariant or conflicts with resident packets.
    pub fn push_travel(&mut self, travel: Travel) -> Result<()> {
        travel.check_invariants()?;
        if self
            .travels
            .iter()
            .chain(self.arrived.iter())
            .any(|t| t.id() == travel.id())
        {
            return Err(Error::Invariant(format!(
                "travel {} already present in configuration",
                travel.id()
            )));
        }
        seat(&mut self.state, &travel)?;
        self.travels.push(travel);
        Ok(())
    }

    /// Removes an in-flight travel from `T`, returning its flits' buffers and
    /// its owned ports to the network. The aborted message is simply gone —
    /// the recovery analogue of dropping a packet.
    ///
    /// This is the primitive behind abort-based deadlock recovery: evicting
    /// one member of a wait-for cycle frees the port its predecessor is
    /// blocked on, and the remaining messages drain (Theorem 2 applies to the
    /// survivor configuration).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTravel`] if `id` is not in flight, and
    /// propagates state bookkeeping violations (which indicate a bug).
    pub fn remove_travel(&mut self, id: MsgId) -> Result<Travel> {
        let i = self
            .travels
            .iter()
            .position(|t| t.id() == id)
            .ok_or(Error::UnknownTravel(id))?;
        let t = self.travels.remove(i);
        for pos in t.flit_positions() {
            if let FlitPos::InNetwork(j) = pos {
                self.state.leave(t.route()[j], id, false)?;
            }
        }
        if let Some((lo, hi)) = t.owned_route_range() {
            for j in lo..=hi {
                self.state.release(t.route()[j], id)?;
            }
        }
        Ok(t)
    }

    /// Reroutes an in-flight travel onto a new route that preserves its
    /// claimed prefix (see [`Travel::reroute`]). Ownership never extends
    /// beyond the head, so the network state is unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTravel`] if `id` is not in flight and
    /// propagates [`Travel::reroute`] validation failures (in which case the
    /// configuration is unchanged).
    pub fn reroute_travel(
        &mut self,
        net: &dyn Network,
        id: MsgId,
        new_route: Vec<PortId>,
    ) -> Result<()> {
        let i = self
            .travels
            .iter()
            .position(|t| t.id() == id)
            .ok_or(Error::UnknownTravel(id))?;
        self.travels[i].reroute(net, new_route)
    }

    /// The arrived travel list `A`.
    pub fn arrived(&self) -> &[Travel] {
        &self.arrived
    }

    /// Total flits delivered into destination IP cores: the flits of every
    /// arrived travel. The single definition behind every throughput figure
    /// (campaign reports, Theorem 2 reports).
    pub fn delivered_flits(&self) -> u64 {
        self.arrived.iter().map(|t| t.flit_count() as u64).sum()
    }

    /// The network state `ST`.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Travel at index `i` of `T`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn travel(&self, i: usize) -> &Travel {
        &self.travels[i]
    }

    /// Finds an in-flight travel by identifier.
    pub fn travel_by_id(&self, id: MsgId) -> Option<&Travel> {
        self.travels.iter().find(|t| t.id() == id)
    }

    /// Whether every message has arrived (`T = ∅`), the first termination
    /// case of the `GeNoC` function.
    pub fn is_evacuated(&self) -> bool {
        self.travels.is_empty()
    }

    // ------------------------------------------------------------------
    // Movement primitives
    // ------------------------------------------------------------------

    /// Whether flit `flit` of travel `i` may enter the network at `route[0]`
    /// under wormhole admission rules.
    pub fn can_enter_flit(&self, i: usize, flit: usize) -> bool {
        let t = &self.travels[i];
        if t.flit_pos(flit) != FlitPos::Pending {
            return false;
        }
        // A non-head flit may only enter once its predecessor has.
        if flit > 0 && t.flit_pos(flit - 1) == FlitPos::Pending {
            return false;
        }
        self.state.can_enter(t.route()[0], t.id(), flit == 0)
    }

    /// Moves flit `flit` of travel `i` from the source IP core into
    /// `route[0]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the move is not admissible.
    pub fn enter_flit(&mut self, i: usize, flit: usize) -> Result<()> {
        if !self.can_enter_flit(i, flit) {
            return Err(Error::Invariant(format!(
                "inadmissible entry of flit {flit} of travel index {i}"
            )));
        }
        let (port, id) = {
            let t = &self.travels[i];
            (t.route()[0], t.id())
        };
        self.state.enter(port, id)?;
        self.travels[i].set_flit_pos(flit, FlitPos::InNetwork(0));
        Ok(())
    }

    /// Whether flit `flit` of travel `i` may advance one hop along its route
    /// under wormhole admission rules: the target port has a free buffer, the
    /// ownership rules admit the flit, and the flit does not pass its
    /// predecessor.
    pub fn can_advance_flit(&self, i: usize, flit: usize) -> bool {
        let t = &self.travels[i];
        let k = match t.flit_pos(flit) {
            FlitPos::InNetwork(k) => k,
            _ => return false,
        };
        if k + 1 >= t.route().len() {
            return false; // at the destination port; the only move left is ejection
        }
        if flit > 0 {
            match t.flit_pos(flit - 1) {
                FlitPos::Delivered => {}
                FlitPos::InNetwork(pk) if pk > k => {}
                _ => return false,
            }
        }
        self.state.can_enter(t.route()[k + 1], t.id(), flit == 0)
    }

    /// Advances flit `flit` of travel `i` one hop along its route.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the move is not admissible.
    pub fn advance_flit(&mut self, i: usize, flit: usize) -> Result<()> {
        if !self.can_advance_flit(i, flit) {
            return Err(Error::Invariant(format!(
                "inadmissible advance of flit {flit} of travel index {i}"
            )));
        }
        let (from, to, id, is_tail) = {
            let t = &self.travels[i];
            let k = match t.flit_pos(flit) {
                FlitPos::InNetwork(k) => k,
                _ => unreachable!("checked by can_advance_flit"),
            };
            (t.route()[k], t.route()[k + 1], t.id(), t.is_tail(flit))
        };
        self.state.enter(to, id)?;
        self.state.leave(from, id, is_tail)?;
        let t = &mut self.travels[i];
        let k = match t.flit_pos(flit) {
            FlitPos::InNetwork(k) => k,
            _ => unreachable!(),
        };
        t.set_flit_pos(flit, FlitPos::InNetwork(k + 1));
        Ok(())
    }

    /// Whether flit `flit` of travel `i` may eject into the destination IP
    /// core: it resides in the destination port and every flit ahead of it
    /// has been delivered (flits leave in order).
    pub fn can_eject_flit(&self, i: usize, flit: usize) -> bool {
        let t = &self.travels[i];
        let k = match t.flit_pos(flit) {
            FlitPos::InNetwork(k) => k,
            _ => return false,
        };
        if k + 1 != t.route().len() {
            return false;
        }
        flit == 0 || t.flit_pos(flit - 1) == FlitPos::Delivered
    }

    /// Ejects flit `flit` of travel `i` into the destination IP core.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the move is not admissible.
    pub fn eject_flit(&mut self, i: usize, flit: usize) -> Result<()> {
        if !self.can_eject_flit(i, flit) {
            return Err(Error::Invariant(format!(
                "inadmissible ejection of flit {flit} of travel index {i}"
            )));
        }
        let (port, id, is_tail) = {
            let t = &self.travels[i];
            (t.dest(), t.id(), t.is_tail(flit))
        };
        self.state.leave(port, id, is_tail)?;
        self.travels[i].set_flit_pos(flit, FlitPos::Delivered);
        Ok(())
    }

    /// Makes the single-flit move `kind` names with flit `flit` of travel
    /// `i`: [`enter_flit`](Self::enter_flit),
    /// [`advance_flit`](Self::advance_flit) or
    /// [`eject_flit`](Self::eject_flit).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the move is not admissible.
    pub fn move_flit(&mut self, i: usize, flit: usize, kind: MoveKind) -> Result<()> {
        match kind {
            MoveKind::Enter => self.enter_flit(i, flit),
            MoveKind::Advance => self.advance_flit(i, flit),
            MoveKind::Eject => self.eject_flit(i, flit),
        }
    }

    /// Moves every fully-delivered travel from `T` to `A`, preserving order.
    /// Returns the identifiers of the newly arrived travels.
    ///
    /// One order-preserving pass over `T` in place: a travel that stays is
    /// moved at most once, to close the gaps the arrivals leave, and an
    /// arrival-free call moves and allocates nothing (a per-removal
    /// `Vec::remove` here was quadratic, and rebuilding `T` in a fresh
    /// vector moved every travel on every step that delivered one).
    pub fn drain_arrived(&mut self) -> Vec<MsgId> {
        let had = self.arrived.len();
        self.arrived
            .extend(self.travels.extract_if(.., |t| t.is_arrived()));
        self.arrived[had..].iter().map(Travel::id).collect()
    }

    // ------------------------------------------------------------------
    // Global predicates and measures
    // ------------------------------------------------------------------

    /// Whether any flit of any in-flight travel can move under wormhole
    /// admission rules. The deadlock predicate `Ω(σ)` of the paper is the
    /// negation of this (for non-empty `T`).
    pub fn any_move_possible(&self) -> bool {
        (0..self.travels.len()).any(|i| self.travel_can_progress(i))
    }

    /// Whether travel `i` can make progression: some flit of it can enter,
    /// advance, or eject.
    pub fn travel_can_progress(&self, i: usize) -> bool {
        let flits = self.travels[i].flit_count();
        (0..flits).any(|f| step::flit_move(self, i, f, &AlwaysAdmit).is_some())
    }

    /// The paper's termination measure `μxy(σ) = Σ |m.r|` over the in-flight
    /// travels: total remaining header route length.
    pub fn route_length_measure(&self) -> u64 {
        self.travels
            .iter()
            .map(|t| t.remaining_route() as u64)
            .sum()
    }

    /// The refined, strictly-decreasing measure: total number of flit moves
    /// still needed to deliver every in-flight message.
    pub fn progress_measure(&self) -> u64 {
        self.travels.iter().map(Travel::progress_potential).sum()
    }

    /// A compact canonical encoding of the configuration's dynamic part:
    /// every flit position of every message (in-flight *and* arrived),
    /// concatenated in [`MsgId`] order.
    ///
    /// Routes are static for a fixed workload, and the network state `ST` is
    /// a function of the flit positions (see [`Config::from_travels`]), so
    /// two configurations of the same workload are equal exactly when their
    /// position keys are equal. Encoding per flit: `0` for pending,
    /// `k + 1` for in-network at route index `k`, [`u16::MAX`] for
    /// delivered. Route indices are *relative* positions, invariant under
    /// port relabeling — which is what makes this key the right carrier for
    /// symmetry reduction in `genoc-explore`.
    ///
    /// # Panics
    ///
    /// Panics if a route is longer than `u16::MAX - 1` hops (no supported
    /// topology comes anywhere near this).
    pub fn position_key(&self) -> Vec<u16> {
        let mut slots: Vec<&Travel> = self.travels.iter().chain(self.arrived.iter()).collect();
        slots.sort_by_key(|t| t.id().index());
        let total: usize = slots.iter().map(|t| t.flit_count()).sum();
        let mut key = Vec::with_capacity(total);
        for t in slots {
            for pos in t.flit_positions() {
                key.push(match pos {
                    FlitPos::Pending => 0,
                    FlitPos::InNetwork(k) => {
                        u16::try_from(k + 1).expect("route index exceeds u16 encoding")
                    }
                    FlitPos::Delivered => u16::MAX,
                });
            }
        }
        key
    }

    /// FNV-1a hash of [`Config::position_key`]: a cheap 64-bit state
    /// fingerprint for visited sets and duplicate detection.
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in self.position_key() {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Verifies the cross-structure invariants: worm shapes, buffer
    /// occupancy matching flit positions, and ownership matching the owned
    /// route ranges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] describing the first violation found.
    pub fn validate(&self, net: &dyn Network) -> Result<()> {
        let mut expected = NetworkState::for_network(net);
        for t in self.travels.iter().chain(self.arrived.iter()) {
            t.check_invariants()?;
            seat(&mut expected, t)?;
        }
        for p in net.ports() {
            let got = self.state.port(p);
            let want = expected.port(p);
            if got != want {
                return Err(Error::Invariant(format!(
                    "port {p}: state {got:?} but flit positions imply {want:?}"
                )));
            }
        }
        for t in &self.arrived {
            if !t.is_arrived() {
                return Err(Error::Invariant(format!(
                    "travel {} in A but not fully delivered",
                    t.id()
                )));
            }
        }
        Ok(())
    }
}

/// Registers a travel's flits with `state`: every in-network flit enters its
/// port, and the worm claims every port between its tail and its head.
fn seat(state: &mut NetworkState, t: &Travel) -> Result<()> {
    for pos in t.flit_positions() {
        if let FlitPos::InNetwork(k) = pos {
            state.enter(t.route()[k], t.id())?;
        }
    }
    if let Some((lo, hi)) = t.owned_route_range() {
        for k in lo..=hi {
            state.claim(t.route()[k], t.id())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::line::{LineNetwork, LineRouting};

    fn setup(nodes: usize, capacity: u32, specs: &[MessageSpec]) -> (LineNetwork, Config) {
        let net = LineNetwork::new(nodes, capacity);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, specs).unwrap();
        (net, cfg)
    }

    fn spec(s: usize, d: usize, flits: usize) -> MessageSpec {
        MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), flits)
    }

    #[test]
    fn single_flit_message_walks_its_route() {
        let (net, mut cfg) = setup(3, 1, &[spec(0, 2, 1)]);
        cfg.validate(&net).unwrap();
        assert!(cfg.can_enter_flit(0, 0));
        cfg.enter_flit(0, 0).unwrap();
        cfg.validate(&net).unwrap();
        let hops = cfg.travel(0).route().len() - 1;
        for _ in 0..hops {
            assert!(cfg.can_advance_flit(0, 0));
            cfg.advance_flit(0, 0).unwrap();
            cfg.validate(&net).unwrap();
        }
        assert!(
            !cfg.can_advance_flit(0, 0),
            "at destination only ejection remains"
        );
        assert!(cfg.can_eject_flit(0, 0));
        cfg.eject_flit(0, 0).unwrap();
        cfg.validate(&net).unwrap();
        assert_eq!(cfg.drain_arrived().len(), 1);
        assert!(cfg.is_evacuated());
        // Every port released.
        assert!(cfg.state().ports().all(|p| p.available()));
    }

    #[test]
    fn body_flit_cannot_enter_before_head() {
        let (_, cfg) = setup(3, 2, &[spec(0, 2, 2)]);
        assert!(cfg.can_enter_flit(0, 0));
        assert!(!cfg.can_enter_flit(0, 1));
    }

    #[test]
    fn body_flit_follows_head_into_same_port() {
        let (net, mut cfg) = setup(3, 2, &[spec(0, 2, 2)]);
        cfg.enter_flit(0, 0).unwrap();
        assert!(
            cfg.can_enter_flit(0, 1),
            "capacity 2 admits the body flit too"
        );
        cfg.enter_flit(0, 1).unwrap();
        cfg.validate(&net).unwrap();
        assert_eq!(cfg.state().port(cfg.travel(0).route()[0]).occupied(), 2);
    }

    #[test]
    fn capacity_one_serialises_the_worm() {
        let (net, mut cfg) = setup(3, 1, &[spec(0, 2, 2)]);
        cfg.enter_flit(0, 0).unwrap();
        assert!(!cfg.can_enter_flit(0, 1), "port full");
        cfg.advance_flit(0, 0).unwrap();
        assert!(
            cfg.can_enter_flit(0, 1),
            "vacated and still owned by the worm"
        );
        cfg.enter_flit(0, 1).unwrap();
        cfg.validate(&net).unwrap();
    }

    #[test]
    fn competing_header_is_blocked_by_ownership() {
        let (net, mut cfg) = setup(3, 2, &[spec(0, 2, 2), spec(0, 1, 1)]);
        cfg.enter_flit(0, 0).unwrap();
        assert!(
            !cfg.can_enter_flit(1, 0),
            "local in-port owned by travel 0 until its tail passes"
        );
        // Walk travel 0's head forward; ownership of the in-port persists
        // until the tail flit leaves it.
        cfg.advance_flit(0, 0).unwrap();
        assert!(!cfg.can_enter_flit(1, 0));
        cfg.enter_flit(0, 1).unwrap(); // tail enters
        cfg.advance_flit(0, 0).unwrap();
        cfg.advance_flit(0, 1).unwrap(); // tail leaves route[0]
        assert!(
            cfg.can_enter_flit(1, 0),
            "ownership released after tail passed"
        );
        cfg.validate(&net).unwrap();
    }

    #[test]
    fn flits_eject_in_order() {
        let (net, mut cfg) = setup(2, 2, &[spec(0, 1, 2)]);
        cfg.enter_flit(0, 0).unwrap();
        cfg.enter_flit(0, 1).unwrap();
        let hops = cfg.travel(0).route().len() - 1;
        for _ in 0..hops {
            cfg.advance_flit(0, 0).unwrap();
            cfg.advance_flit(0, 1).unwrap();
        }
        assert!(!cfg.can_eject_flit(0, 1), "tail must wait for the head");
        cfg.eject_flit(0, 0).unwrap();
        assert!(cfg.can_eject_flit(0, 1));
        cfg.eject_flit(0, 1).unwrap();
        cfg.validate(&net).unwrap();
    }

    #[test]
    fn measures_decrease_with_each_move() {
        let (_, mut cfg) = setup(3, 1, &[spec(0, 2, 1)]);
        let mut last = cfg.progress_measure();
        cfg.enter_flit(0, 0).unwrap();
        assert_eq!(cfg.progress_measure(), last - 1);
        last = cfg.progress_measure();
        cfg.advance_flit(0, 0).unwrap();
        assert_eq!(cfg.progress_measure(), last - 1);
    }

    #[test]
    fn route_length_measure_matches_paper_definition() {
        let (_, mut cfg) = setup(3, 1, &[spec(0, 2, 1), spec(1, 2, 1)]);
        let expected: u64 = cfg
            .travels()
            .iter()
            .map(|t| (t.route().len() - 1) as u64)
            .sum();
        assert_eq!(cfg.route_length_measure(), expected);
        cfg.enter_flit(0, 0).unwrap();
        assert_eq!(
            cfg.route_length_measure(),
            expected,
            "entry does not shorten |m.r|"
        );
        cfg.advance_flit(0, 0).unwrap();
        assert_eq!(cfg.route_length_measure(), expected - 1);
    }

    #[test]
    fn from_travels_reconstructs_state() {
        let (net, mut cfg) = setup(3, 2, &[spec(0, 2, 2)]);
        cfg.enter_flit(0, 0).unwrap();
        cfg.enter_flit(0, 1).unwrap();
        cfg.advance_flit(0, 0).unwrap();
        let rebuilt = Config::from_travels(&net, cfg.travels().to_vec()).unwrap();
        assert_eq!(rebuilt.state(), cfg.state());
    }

    #[test]
    fn reseat_inverts_position_key_and_matches_from_travels() {
        let specs = [spec(0, 2, 2), spec(2, 0, 1), spec(1, 2, 1)];
        let (net, mut cfg) = setup(3, 2, &specs);
        let blank = cfg.clone();
        // Walk message 1 to delivery and message 0 into the network.
        cfg.enter_flit(1, 0).unwrap();
        while cfg.can_advance_flit(1, 0) {
            cfg.advance_flit(1, 0).unwrap();
        }
        cfg.eject_flit(1, 0).unwrap();
        cfg.enter_flit(0, 0).unwrap();
        cfg.enter_flit(0, 1).unwrap();
        cfg.advance_flit(0, 0).unwrap();
        let key = cfg.position_key();
        let mut travels = cfg.travels().to_vec();
        travels.sort_by_key(|t| t.id().index());
        let rebuilt = Config::from_travels(&net, travels).unwrap();
        assert_eq!(rebuilt.arrived().len(), 1);

        let mut reseated = blank.clone();
        reseated.reseat(&key).unwrap();
        assert_eq!(reseated, rebuilt);
        reseated.validate(&net).unwrap();
        // And back, over a configuration whose `A` is not empty.
        reseated.reseat(&blank.position_key()).unwrap();
        assert_eq!(reseated, blank);
    }

    #[test]
    fn reseat_rejects_corrupted_keys() {
        let (_, mut cfg) = setup(3, 1, &[spec(0, 2, 2), spec(0, 1, 1)]);
        for key in [
            &[9u16, 0, 0][..], // outside the route
            &[1, 2, 0],        // body flit ahead of the head
            &[1, 1, 0],        // over capacity
            &[1, 0, 1],        // two owners
            &[0, 0],           // too short
            &[0, 0, 0, 0],     // too long
        ] {
            assert!(cfg.reseat(key).is_err(), "{key:?}");
        }
        cfg.reseat(&[2, 1, 0]).unwrap();
    }

    #[test]
    fn from_travels_rejects_conflicting_ownership() {
        let (net, cfg) = setup(3, 2, &[spec(0, 2, 1), spec(0, 1, 1)]);
        let mut t0 = cfg.travel(0).clone();
        let mut t1 = cfg.travel(1).clone();
        // Both claim route[0] (the shared local in-port of node 0).
        t0.set_flit_pos(0, FlitPos::InNetwork(0));
        t1.set_flit_pos(0, FlitPos::InNetwork(0));
        assert!(Config::from_travels(&net, vec![t0, t1]).is_err());
    }

    #[test]
    fn progress_predicates_match_moves() {
        let (_, mut cfg) = setup(3, 1, &[spec(0, 2, 1)]);
        assert!(cfg.any_move_possible());
        assert!(cfg.travel_can_progress(0));
        cfg.enter_flit(0, 0).unwrap();
        assert!(cfg.any_move_possible());
    }
}
