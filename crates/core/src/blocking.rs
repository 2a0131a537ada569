//! Blocking events and the wait-for structure of a configuration.
//!
//! Online deadlock detection observes *blocking events*: a travel whose head
//! flit cannot claim the next port of its route is *blocked on* that port,
//! and — under wormhole ownership — on the message that currently owns it.
//! The blocked-on relation over the in-flight travels is a functional graph
//! (each blocked travel waits on exactly one port, hence on at most one
//! owner), so a deadlock shows up as a cycle of travels each waiting on the
//! next.
//!
//! A key wormhole fact makes this *exact*: a blocked worm is fully compacted
//! (any internal gap would let a body flit advance, contradicting
//! blockedness), so no flit of it can move until its head does, and its head
//! cannot move until the owner of the wanted port drains. A wait-for cycle is
//! therefore permanent — once observed, the members can never move again —
//! which is why the online detector built on these events has no false
//! positives (see `genoc-detect`).
//!
//! [`expand_port_cycle`] turns a cycle of travels into the corresponding
//! cycle of *ports* by walking each member's owned route segment. Every
//! consecutive pair of that port cycle is a routing step of some in-flight
//! message, so (given proof obligation (C-1)) the expansion is a cycle of the
//! static port dependency graph — the bridge between runtime detection and
//! the statically checked Theorem 1.

use crate::config::Config;
use crate::error::{Error, Result};
use crate::ids::{MsgId, PortId};
use crate::travel::FlitPos;

/// One blocking event: a travel that cannot make progression, the port it
/// needs next, and the message holding that port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockEvent {
    /// The blocked travel.
    pub msg: MsgId,
    /// The port its head currently occupies (`None` while the head is still
    /// pending at the source IP core — such a travel holds no network
    /// resource and thus can feed a deadlock cycle but never be part of one).
    pub holds: Option<PortId>,
    /// The port the head cannot claim: `route[0]` for a pending head, the
    /// next route port otherwise.
    pub wants: PortId,
    /// The message owning the wanted port. In wormhole switching a blocked
    /// head always waits on an owned port, so this is `Some` for every
    /// genuine blocking event; `None` is kept for defensive completeness.
    pub on: Option<MsgId>,
}

/// Computes the blocking event of the in-flight travel at index `i`, or
/// `None` if some flit of it can still move.
pub fn block_event(cfg: &Config, i: usize) -> Option<BlockEvent> {
    if cfg.travel_can_progress(i) {
        return None;
    }
    let t = cfg.travel(i);
    let (holds, wants) = match t.flit_pos(0) {
        FlitPos::Pending => (None, t.route()[0]),
        FlitPos::InNetwork(k) => {
            if k + 1 >= t.route().len() {
                // Head at the destination port: ejection is always
                // admissible, so this travel cannot actually be blocked.
                return None;
            }
            (Some(t.route()[k]), t.route()[k + 1])
        }
        // A delivered head leaves only body flits, which can always drain
        // through the worm's owned suffix.
        FlitPos::Delivered => return None,
    };
    Some(BlockEvent {
        msg: t.id(),
        holds,
        wants,
        on: cfg.state().port(wants).owner(),
    })
}

/// Computes the blocking events of every in-flight travel, in travel order.
pub fn block_events(cfg: &Config) -> Vec<BlockEvent> {
    (0..cfg.travels().len())
        .filter_map(|i| block_event(cfg, i))
        .collect()
}

/// A cycle in the wait-for structure: travels each blocked on the next, and
/// the corresponding cycle of ports in the dependency graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WaitCycle {
    /// The travels of the cycle, in wait order: `msgs[i]` is blocked on a
    /// port owned by `msgs[(i + 1) % len]`.
    pub msgs: Vec<MsgId>,
    /// The port expansion of the cycle (see [`expand_port_cycle`]): every
    /// consecutive pair (and the closing pair) is a routing step of one of
    /// the member travels.
    pub ports: Vec<PortId>,
}

impl WaitCycle {
    /// Whether `msg` is a member of the cycle.
    pub fn contains(&self, msg: MsgId) -> bool {
        self.msgs.contains(&msg)
    }
}

/// Searches the current wait-for structure of `cfg` for a cycle.
///
/// Unlike [`cycle extraction from a full deadlock`], this works on *any*
/// configuration: it finds a cycle of mutually blocked travels even while
/// unrelated messages are still making progress — the basis of *online*
/// detection, which fires as the deadlock forms rather than when the whole
/// network has seized.
///
/// The search chases the blocked-on edges travel by travel, in travel
/// order, and computes a travel's [`block_event`] when the chase first
/// reaches it: a search that finds a cycle has evaluated the travels up to
/// it and no further, and one that finds none has evaluated every travel
/// once. Evaluating every event up front instead, as the search once did,
/// gives the same witness in the same rotation.
///
/// [`cycle extraction from a full deadlock`]: crate::config::Config::any_move_possible
pub fn find_wait_cycle(cfg: &Config) -> Option<WaitCycle> {
    let n = cfg.travels().len();
    // Dense index from message id to travel position, for following edges.
    let max_id = cfg
        .travels()
        .iter()
        .map(|t| t.id().index())
        .max()
        .unwrap_or(0);
    let mut pos_of = vec![usize::MAX; max_id + 1];
    for (i, t) in cfg.travels().iter().enumerate() {
        pos_of[t.id().index()] = i;
    }
    // Functional-graph cycle chase: each blocked travel has at most one
    // out-edge (toward the owner of its wanted port), so a stamped walk
    // visits every travel once, and its event is computed on that visit.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut path: Vec<usize> = Vec::new();
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        path.clear();
        let mut cur = start;
        let cycle_at = loop {
            match color[cur] {
                GRAY => break Some(cur),
                BLACK => break None,
                _ => {}
            }
            color[cur] = GRAY;
            path.push(cur);
            let next = block_event(cfg, cur)
                .and_then(|e| e.on)
                .map(|m| pos_of[m.index()]);
            match next {
                Some(p) if p != usize::MAX => cur = p,
                _ => break None,
            }
        };
        for &p in &path {
            color[p] = BLACK;
        }
        if let Some(at) = cycle_at {
            let from = path.iter().position(|&p| p == at).expect("gray is on path");
            let msgs: Vec<MsgId> = path[from..].iter().map(|&p| cfg.travel(p).id()).collect();
            let ports = expand_port_cycle(cfg, &msgs).ok()?;
            return Some(WaitCycle { msgs, ports });
        }
    }
    None
}

/// Expands a cycle of mutually blocked travels into the corresponding cycle
/// of ports: for each member, the segment of its route from the port its
/// predecessor wants up to (and including) its head port. Every consecutive
/// pair of the result is a routing step of one member, so under (C-1) the
/// expansion is a cycle of the port dependency graph.
///
/// # Errors
///
/// Returns [`Error::Invariant`] if `msgs` is not actually a wait-for cycle of
/// `cfg` (some member is missing, unblocked, or does not own the port its
/// predecessor wants), and [`Error::UnknownTravel`] for ids not in flight.
pub fn expand_port_cycle(cfg: &Config, msgs: &[MsgId]) -> Result<Vec<PortId>> {
    if msgs.is_empty() {
        return Err(Error::Invariant("empty wait cycle".into()));
    }
    let index_of = |id: MsgId| -> Result<usize> {
        cfg.travels()
            .iter()
            .position(|t| t.id() == id)
            .ok_or(Error::UnknownTravel(id))
    };
    let mut ports = Vec::new();
    for (i, &prev) in msgs.iter().enumerate() {
        let cur = msgs[(i + 1) % msgs.len()];
        let handoff = block_event(cfg, index_of(prev)?)
            .ok_or_else(|| Error::Invariant(format!("cycle member {prev} is not blocked")))?
            .wants;
        let t = cfg.travel(index_of(cur)?);
        let head = t.head_route_index().ok_or_else(|| {
            Error::Invariant(format!("cycle member {cur} has no in-network head"))
        })?;
        let from = t
            .route()
            .iter()
            .position(|&p| p == handoff)
            .ok_or_else(|| {
                Error::Invariant(format!(
                    "{cur} does not route through the port {prev} wants"
                ))
            })?;
        if from > head {
            return Err(Error::Invariant(format!(
                "{cur} has not yet claimed the port {prev} wants"
            )));
        }
        ports.extend_from_slice(&t.route()[from..=head]);
    }
    Ok(ports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::line::{LineNetwork, LineRouting};
    use crate::spec::MessageSpec;

    fn spec(s: usize, d: usize, flits: usize) -> MessageSpec {
        MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), flits)
    }

    #[test]
    fn fresh_configuration_has_no_blocking_events() {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, &[spec(0, 3, 2)]).unwrap();
        assert!(block_events(&cfg).is_empty());
        assert!(find_wait_cycle(&cfg).is_none());
    }

    #[test]
    fn pending_head_blocked_at_entry_reports_the_owner() {
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        let mut cfg = Config::from_specs(&net, &routing, &[spec(0, 2, 2), spec(0, 1, 1)]).unwrap();
        // Travel 0's worm occupies and owns the shared local in-port.
        cfg.enter_flit(0, 0).unwrap();
        let events = block_events(&cfg);
        assert_eq!(events.len(), 1, "{events:?}");
        let e = events[0];
        assert_eq!(e.msg, MsgId::from_index(1));
        assert_eq!(e.holds, None, "pending heads hold nothing");
        assert_eq!(e.wants, cfg.travel(1).route()[0]);
        assert_eq!(e.on, Some(MsgId::from_index(0)));
        // A chain without a cycle is not a deadlock.
        assert!(find_wait_cycle(&cfg).is_none());
    }

    #[test]
    fn expansion_rejects_non_cycles() {
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, &[spec(0, 2, 1)]).unwrap();
        assert!(expand_port_cycle(&cfg, &[]).is_err());
        assert!(expand_port_cycle(&cfg, &[MsgId::from_index(0)]).is_err());
        assert!(expand_port_cycle(&cfg, &[MsgId::from_index(9)]).is_err());
    }
}
