//! The network state `ST`: per-port buffer occupancy and wormhole ownership.
//!
//! The paper defines the state as "the list of all the ports of the network,
//! each port associated to the list of its buffers". We keep the same
//! port-indexed structure but store, per port, the number of occupied
//! one-flit buffers and the packet that currently *owns* the port ("a port
//! can only accept flits of at most one packet"). Ownership is claimed when a
//! header flit enters a port and released when the tail flit leaves it.

use crate::error::{Error, Result};
use crate::ids::{MsgId, PortId};
use crate::network::Network;

/// Dynamic state of one port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortState {
    capacity: u32,
    occupied: u32,
    owner: Option<MsgId>,
}

impl PortState {
    /// Creates an empty port with the given number of one-flit buffers.
    pub fn new(capacity: u32) -> Self {
        PortState {
            capacity,
            occupied: 0,
            owner: None,
        }
    }

    /// Number of one-flit buffers of the port.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of occupied buffers.
    pub fn occupied(&self) -> u32 {
        self.occupied
    }

    /// Number of free buffers.
    pub fn free(&self) -> u32 {
        self.capacity - self.occupied
    }

    /// The packet currently owning the port, if any.
    pub fn owner(&self) -> Option<MsgId> {
        self.owner
    }

    /// Whether the port is *available* to a new packet's header: unowned with
    /// at least one free buffer. This is the availability notion used in the
    /// necessity direction of the deadlock theorem (the witness set `P` is
    /// the set of unavailable ports).
    pub fn available(&self) -> bool {
        self.owner.is_none() && self.occupied < self.capacity
    }
}

/// Dynamic state of every port of a network instance.
///
/// # Examples
///
/// ```
/// use genoc_core::line::LineNetwork;
/// use genoc_core::state::NetworkState;
///
/// let net = LineNetwork::new(2, 3);
/// let st = NetworkState::for_network(&net);
/// assert!(st.ports().all(|p| p.occupied() == 0));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkState {
    ports: Vec<PortState>,
}

impl NetworkState {
    /// Creates the empty state for `net`, with capacities taken from the
    /// port attributes.
    pub fn for_network(net: &dyn Network) -> Self {
        let ports = net
            .ports()
            .map(|p| PortState::new(net.attrs(p).capacity))
            .collect();
        NetworkState { ports }
    }

    /// Empties every port — no flits, no owners — keeping the capacities:
    /// the state [`for_network`](NetworkState::for_network) built, without
    /// building it again.
    pub fn reset(&mut self) {
        for ps in &mut self.ports {
            ps.occupied = 0;
            ps.owner = None;
        }
    }

    /// State of port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn port(&self, p: PortId) -> &PortState {
        &self.ports[p.index()]
    }

    /// Iterates over the per-port states in port order.
    pub fn ports(&self) -> impl ExactSizeIterator<Item = &PortState> {
        self.ports.iter()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Whether a flit of message `m` may enter port `p`.
    ///
    /// A header flit (`is_head`) requires the port to be available (unowned,
    /// free buffer); a body flit requires the port to be owned by its own
    /// packet and to have a free buffer.
    pub fn can_enter(&self, p: PortId, m: MsgId, is_head: bool) -> bool {
        let ps = &self.ports[p.index()];
        if ps.occupied >= ps.capacity {
            return false;
        }
        match ps.owner {
            None => is_head,
            Some(owner) => owner == m,
        }
    }

    /// Records a flit of `m` entering `p`, claiming ownership if the port was
    /// unowned.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityExceeded`] if the port is full and
    /// [`Error::Invariant`] if it is owned by a different packet.
    pub fn enter(&mut self, p: PortId, m: MsgId) -> Result<()> {
        let ps = &mut self.ports[p.index()];
        if ps.occupied >= ps.capacity {
            return Err(Error::CapacityExceeded {
                port: p,
                capacity: ps.capacity,
            });
        }
        match ps.owner {
            None => ps.owner = Some(m),
            Some(owner) if owner == m => {}
            Some(owner) => {
                return Err(Error::Invariant(format!(
                    "flit of {m} entering {p} owned by {owner}"
                )))
            }
        }
        ps.occupied += 1;
        Ok(())
    }

    /// Records a flit of `m` leaving `p`; releases ownership when the leaving
    /// flit is the packet's tail.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the port is empty or owned by a
    /// different packet.
    pub fn leave(&mut self, p: PortId, m: MsgId, is_tail: bool) -> Result<()> {
        let ps = &mut self.ports[p.index()];
        if ps.occupied == 0 {
            return Err(Error::Invariant(format!(
                "flit of {m} leaving empty port {p}"
            )));
        }
        if ps.owner != Some(m) {
            return Err(Error::Invariant(format!(
                "flit of {m} leaving {p} with owner {:?}",
                ps.owner
            )));
        }
        ps.occupied -= 1;
        if is_tail {
            ps.owner = None;
        }
        Ok(())
    }

    /// Claims ownership of `p` for `m` without occupying a buffer.
    ///
    /// Used when reconstructing mid-flight configurations: a worm owns every
    /// port between its tail and its head even if no flit currently resides
    /// there.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the port is owned by another packet.
    pub fn claim(&mut self, p: PortId, m: MsgId) -> Result<()> {
        let ps = &mut self.ports[p.index()];
        match ps.owner {
            None => {
                ps.owner = Some(m);
                Ok(())
            }
            Some(owner) if owner == m => Ok(()),
            Some(owner) => Err(Error::Invariant(format!(
                "port {p} claimed by {m} but owned by {owner}"
            ))),
        }
    }

    /// Releases ownership of `p` held by `m` without a flit leaving.
    ///
    /// Used when a travel is evicted from the network (deadlock recovery):
    /// after its resident flits have left, the ports it still owns are
    /// released in one sweep.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the port is not owned by `m` or still
    /// holds flits.
    pub fn release(&mut self, p: PortId, m: MsgId) -> Result<()> {
        let ps = &mut self.ports[p.index()];
        match ps.owner {
            Some(owner) if owner == m => {
                if ps.occupied > 0 {
                    return Err(Error::Invariant(format!(
                        "releasing port {p} of {m} while {} flits remain",
                        ps.occupied
                    )));
                }
                ps.owner = None;
                Ok(())
            }
            other => Err(Error::Invariant(format!(
                "port {p} released by {m} but owned by {other:?}"
            ))),
        }
    }

    /// The set of unavailable ports — the witness set `P` of the necessity
    /// direction of the deadlock theorem.
    pub fn unavailable_ports(&self) -> Vec<PortId> {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, ps)| !ps.available())
            .map(|(i, _)| PortId::from_index(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineNetwork;

    fn msg(i: usize) -> MsgId {
        MsgId::from_index(i)
    }

    #[test]
    fn enter_claims_ownership() {
        let net = LineNetwork::new(2, 2);
        let mut st = NetworkState::for_network(&net);
        let p = PortId::from_index(0);
        assert!(st.can_enter(p, msg(0), true));
        assert!(
            !st.can_enter(p, msg(0), false),
            "body flits need prior ownership"
        );
        st.enter(p, msg(0)).unwrap();
        assert_eq!(st.port(p).owner(), Some(msg(0)));
        assert!(
            st.can_enter(p, msg(0), false),
            "own packet may add body flits"
        );
        assert!(
            !st.can_enter(p, msg(1), true),
            "owned port rejects other headers"
        );
    }

    #[test]
    fn capacity_is_enforced() {
        let net = LineNetwork::new(2, 2);
        let mut st = NetworkState::for_network(&net);
        let p = PortId::from_index(0);
        st.enter(p, msg(0)).unwrap();
        st.enter(p, msg(0)).unwrap();
        assert!(!st.can_enter(p, msg(0), false));
        assert!(matches!(
            st.enter(p, msg(0)),
            Err(Error::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn tail_leave_releases_ownership() {
        let net = LineNetwork::new(2, 2);
        let mut st = NetworkState::for_network(&net);
        let p = PortId::from_index(0);
        st.enter(p, msg(0)).unwrap();
        st.enter(p, msg(0)).unwrap();
        st.leave(p, msg(0), false).unwrap();
        assert_eq!(
            st.port(p).owner(),
            Some(msg(0)),
            "non-tail leave keeps ownership"
        );
        st.leave(p, msg(0), true).unwrap();
        assert_eq!(st.port(p).owner(), None);
        assert!(st.port(p).available());
    }

    #[test]
    fn foreign_leave_is_rejected() {
        let net = LineNetwork::new(2, 2);
        let mut st = NetworkState::for_network(&net);
        let p = PortId::from_index(0);
        st.enter(p, msg(0)).unwrap();
        assert!(st.leave(p, msg(1), true).is_err());
    }

    #[test]
    fn unavailable_ports_lists_full_and_owned() {
        let net = LineNetwork::new(2, 1);
        let mut st = NetworkState::for_network(&net);
        let p = PortId::from_index(0);
        assert!(st.unavailable_ports().is_empty());
        st.enter(p, msg(0)).unwrap();
        assert_eq!(st.unavailable_ports(), vec![p]);
    }

    #[test]
    fn claim_without_occupancy() {
        let net = LineNetwork::new(2, 1);
        let mut st = NetworkState::for_network(&net);
        let p = PortId::from_index(1);
        st.claim(p, msg(0)).unwrap();
        assert_eq!(st.port(p).occupied(), 0);
        assert!(!st.port(p).available());
        assert!(st.claim(p, msg(1)).is_err());
    }
}
