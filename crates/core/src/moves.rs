//! Nondeterministic move enumeration: the per-step move *set* behind the
//! kernel's greedy schedule.
//!
//! The interpreter and kernel commit moves greedily — each step performs
//! every admissible flit move in a fixed arbitration order. For state-space
//! exploration (`genoc-explore`) that schedule is one path among many: the
//! deadlock predicate `Ω` quantifies over *all* interleavings of individual
//! flit moves. [`MoveEnumerator`] exposes exactly the per-flit moves the
//! greedy stepper would consider, one at a time, under the same admission
//! rules ([`HeadAdmission`]), so an explorer can branch on each of them.
//!
//! Moves are identified by [`MsgId`] rather than by position in
//! `Config::travels`, so they stay meaningful across re-encoding of a
//! configuration (where arrived travels are partitioned out of `T`).
//!
//! The enumeration is complete and sound with respect to the kernel's Ω:
//! [`MoveEnumerator::moves`] is non-empty if and only if
//! [`any_move_possible_with`](crate::step::any_move_possible_with) holds,
//! because both ask [`step::flit_move`] — the one eject → advance → enter
//! precondition chain — of every flit.

use crate::config::Config;
use crate::error::{Error, Result};
use crate::ids::MsgId;
use crate::step::{self, HeadAdmission};

/// The kind of a single-flit move.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MoveKind {
    /// A pending flit enters the network at `route[0]`.
    Enter,
    /// An in-network flit advances to the next port of its route.
    Advance,
    /// The head flit (and, in turn, its followers) leaves at the
    /// destination's local out-port.
    Eject,
}

impl MoveKind {
    /// Short lowercase label (`enter`/`advance`/`eject`).
    pub fn label(self) -> &'static str {
        match self {
            MoveKind::Enter => "enter",
            MoveKind::Advance => "advance",
            MoveKind::Eject => "eject",
        }
    }
}

/// One admissible single-flit move of a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Move {
    /// The message whose flit moves.
    pub msg: MsgId,
    /// Flit index within the message (0 is the header).
    pub flit: usize,
    /// What the flit does.
    pub kind: MoveKind,
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{} {}", self.msg, self.flit, self.kind.label())
    }
}

/// Enumerates and applies single-flit moves under a policy's admission rule.
pub struct MoveEnumerator<'a> {
    admission: &'a dyn HeadAdmission,
}

impl<'a> MoveEnumerator<'a> {
    /// An enumerator gated by the given head-admission predicate (obtain a
    /// policy's via [`SwitchingPolicy::kernel_spec`]).
    ///
    /// [`SwitchingPolicy::kernel_spec`]: crate::switching::SwitchingPolicy::kernel_spec
    pub fn new(admission: &'a dyn HeadAdmission) -> Self {
        MoveEnumerator { admission }
    }

    /// The admissible move of flit `flit` of travel `i`, if any
    /// ([`step::flit_move`] under this enumerator's admission).
    pub fn flit_move(&self, cfg: &Config, i: usize, flit: usize) -> Option<MoveKind> {
        step::flit_move(cfg, i, flit, self.admission)
    }

    /// Appends every admissible move of the configuration to `out`.
    pub fn push_moves(&self, cfg: &Config, out: &mut Vec<Move>) {
        for i in 0..cfg.travels().len() {
            let t = cfg.travel(i);
            for flit in 0..t.flit_count() {
                if let Some(kind) = self.flit_move(cfg, i, flit) {
                    out.push(Move {
                        msg: t.id(),
                        flit,
                        kind,
                    });
                }
            }
        }
    }

    /// Every admissible move of the configuration.
    pub fn moves(&self, cfg: &Config) -> Vec<Move> {
        let mut out = Vec::new();
        self.push_moves(cfg, &mut out);
        out
    }

    /// Whether the configuration satisfies the policy's deadlock predicate
    /// `Ω`: some message has not arrived, yet no flit move is admissible.
    pub fn is_deadlock(&self, cfg: &Config) -> bool {
        cfg.travels().iter().any(|t| !t.is_arrived()) && self.moves(cfg).is_empty()
    }

    /// Applies one move, re-validating its admissibility.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] if the message is unknown (or already drained)
    /// or the move is not admissible in this configuration.
    pub fn apply(&self, cfg: &mut Config, mv: Move) -> Result<()> {
        let i = (0..cfg.travels().len())
            .find(|&i| cfg.travel(i).id() == mv.msg)
            .ok_or_else(|| Error::Invariant(format!("move {mv} names no in-flight travel")))?;
        if self.flit_move(cfg, i, mv.flit) != Some(mv.kind) {
            return Err(Error::Invariant(format!("move {mv} is not admissible")));
        }
        cfg.move_flit(i, mv.flit, mv.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::line::{LineNetwork, LineRouting};
    use crate::network::Network;
    use crate::routing::compute_route;
    use crate::spec::MessageSpec;
    use crate::step::{any_move_possible_with, AlwaysAdmit};
    use crate::NodeId;

    fn line_config(specs: &[MessageSpec]) -> (LineNetwork, Config) {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, specs).unwrap();
        (net, cfg)
    }

    #[test]
    fn enumeration_matches_omega_complement() {
        let specs = [
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 2),
            MessageSpec::new(NodeId::from_index(1), NodeId::from_index(2), 2),
        ];
        let (_net, mut cfg) = line_config(&specs);
        let en = MoveEnumerator::new(&AlwaysAdmit);
        // Drive the configuration through every state of a greedy run by
        // always applying the first enumerated move; at each state the move
        // set is non-empty exactly when `Ω` does not hold.
        let mut steps = 0;
        loop {
            let moves = en.moves(&cfg);
            assert_eq!(
                !moves.is_empty(),
                any_move_possible_with(&cfg, &AlwaysAdmit),
                "move set and Ω complement must agree"
            );
            let Some(&mv) = moves.first() else { break };
            en.apply(&mut cfg, mv).unwrap();
            steps += 1;
            assert!(steps < 1_000, "single-move stepping must terminate");
        }
        assert!(cfg.travels().iter().all(|t| t.is_arrived()));
        assert!(!en.is_deadlock(&cfg), "evacuated is not deadlocked");
    }

    #[test]
    fn each_enumerated_move_applies_cleanly() {
        let specs = [
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 3),
            MessageSpec::new(NodeId::from_index(3), NodeId::from_index(1), 3),
        ];
        let (_net, cfg) = line_config(&specs);
        let en = MoveEnumerator::new(&AlwaysAdmit);
        for mv in en.moves(&cfg) {
            let mut branch = cfg.clone();
            en.apply(&mut branch, mv).unwrap();
            assert_ne!(branch, cfg, "a move must change the configuration");
        }
    }

    #[test]
    fn inadmissible_moves_are_rejected() {
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(3),
            2,
        )];
        let (_net, mut cfg) = line_config(&specs);
        let en = MoveEnumerator::new(&AlwaysAdmit);
        // Flit 1 cannot enter before the header.
        let bad = Move {
            msg: MsgId::from_index(0),
            flit: 1,
            kind: MoveKind::Enter,
        };
        assert!(en.apply(&mut cfg, bad).is_err());
        // Unknown message.
        let bad = Move {
            msg: MsgId::from_index(7),
            flit: 0,
            kind: MoveKind::Enter,
        };
        assert!(en.apply(&mut cfg, bad).is_err());
    }

    #[test]
    fn route_indices_are_what_moves_carry() {
        // Sanity: the route of a spec is computable (documents the encoding
        // the explorer relies on — flit positions are route indices).
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        let route = compute_route(
            &net,
            &routing,
            net.local_in(NodeId::from_index(0)),
            net.local_out(NodeId::from_index(2)),
        )
        .unwrap();
        assert!(route.len() >= 2);
    }
}
