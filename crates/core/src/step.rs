//! The canonical greedy wormhole step, shared by concrete switching
//! policies, generalised over a per-policy *head admission* predicate.
//!
//! One step processes every in-flight travel in a given priority order and
//! every flit head-to-tail, performing each admissible move. Link bandwidth
//! is modelled by allowing at most one flit to enter a given port per step
//! and at most one flit to eject from a given port per step. Because the
//! first admissible move encountered is always performed, a step moves at
//! least one flit whenever the configuration is not a deadlock — the
//! progress half of proof obligation (C-5).
//!
//! All three switching policies of `genoc-switching` move flits the same way
//! — body flits follow their predecessor under the ownership rules of this
//! crate — and differ only in when a *header* flit may claim the next port.
//! That policy-specific condition is the [`HeadAdmission`] predicate;
//! [`AlwaysAdmit`] recovers plain wormhole switching.
//!
//! This is the reference semantics: [`step_all`] under
//! [`interpreter::run`](crate::interpreter::run) re-examines every flit of
//! every travel on every step, and the arena kernel
//! ([`crate::arena::ArenaKernel`]) is held move-for-move equal to it by the
//! differential suites. [`blocked_port_with`] states, over a `Config`, which
//! port the arena parks a stuck travel on.

use crate::config::Config;
use crate::error::Result;
use crate::ids::PortId;
use crate::meta::SwitchingKind;
use crate::moves::MoveKind;
use crate::switching::StepReport;
use crate::trace::{Trace, Zone};
use crate::travel::FlitPos;

/// Where a header flit is about to move from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeadMove {
    /// Entry from the source IP core into `route[0]`.
    Entry,
    /// Advance from `route[k]` to `route[k + 1]`.
    Advance {
        /// Current route index of the header.
        from: usize,
    },
}

/// Extra admission condition a policy imposes on header moves, on top of the
/// core wormhole rules (free buffer, ownership).
///
/// `Send + Sync` is a supertrait so the explorer's parallel frontier can
/// share one predicate across its scoped worker threads; implementations
/// are static descriptions of a rule, never mutable state.
pub trait HeadAdmission: Send + Sync {
    /// Whether the header of travel `i` may perform `mv` in configuration
    /// `cfg`.
    fn admit(&self, cfg: &Config, i: usize, mv: HeadMove) -> bool;

    /// The shipped switching policy whose predicate this is, if any: the
    /// closed-world description data-layout-specialised steppers (the SoA
    /// arena of [`crate::arena`]) evaluate without a `Config`. `None` (the
    /// default) means the predicate is opaque and only `Config`-backed
    /// steppers can evaluate it.
    fn kind(&self) -> Option<SwitchingKind> {
        None
    }
}

/// Admits every header move: plain wormhole switching.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysAdmit;

impl HeadAdmission for AlwaysAdmit {
    fn admit(&self, _cfg: &Config, _i: usize, _mv: HeadMove) -> bool {
        true
    }

    fn kind(&self) -> Option<SwitchingKind> {
        Some(SwitchingKind::Wormhole)
    }
}

/// Per-step scratch state: which ports already accepted/ejected a flit (the
/// one-entry, one-ejection per port per step bandwidth rule).
///
/// Reusable across steps to avoid reallocation; see [`StepScratch::reset`].
#[derive(Clone, Debug, Default)]
pub struct StepScratch {
    entered: Vec<bool>,
    ejected: Vec<bool>,
}

impl StepScratch {
    /// Creates scratch space for a network with `port_count` ports.
    pub fn new(port_count: usize) -> Self {
        StepScratch {
            entered: vec![false; port_count],
            ejected: vec![false; port_count],
        }
    }

    /// Clears the per-step flags, resizing if the port count changed.
    pub fn reset(&mut self, port_count: usize) {
        self.entered.clear();
        self.entered.resize(port_count, false);
        self.ejected.clear();
        self.ejected.resize(port_count, false);
    }

    /// Whether no flit has entered `p` during the current step.
    pub fn may_enter(&self, p: PortId) -> bool {
        !self.entered[p.index()]
    }

    /// Records that a flit entered `p` during the current step.
    pub fn mark_entered(&mut self, p: PortId) {
        self.entered[p.index()] = true;
    }

    /// Whether no flit has ejected from `p` during the current step.
    pub fn may_eject(&self, p: PortId) -> bool {
        !self.ejected[p.index()]
    }

    /// Records that a flit ejected from `p` during the current step.
    pub fn mark_ejected(&mut self, p: PortId) {
        self.ejected[p.index()] = true;
    }
}

/// The admissible move of flit `flit` of travel `i` under the policy's
/// head-admission predicate, if any, ignoring the per-step bandwidth flags:
/// the per-flit move rule every stepper, the move enumerator and the
/// deadlock predicate share.
///
/// At most one move kind applies to a given flit: the preconditions of
/// eject, advance, and enter are mutually exclusive (they inspect the flit's
/// own position), so trying them in this order loses nothing.
#[inline]
pub fn flit_move<A: HeadAdmission + ?Sized>(
    cfg: &Config,
    i: usize,
    flit: usize,
    admission: &A,
) -> Option<MoveKind> {
    if cfg.can_eject_flit(i, flit) {
        return Some(MoveKind::Eject);
    }
    if cfg.can_advance_flit(i, flit) {
        if flit > 0 {
            return Some(MoveKind::Advance);
        }
        let k = match cfg.travel(i).flit_pos(flit) {
            FlitPos::InNetwork(k) => k,
            _ => unreachable!("can_advance_flit implies an in-network flit"),
        };
        return admission
            .admit(cfg, i, HeadMove::Advance { from: k })
            .then_some(MoveKind::Advance);
    }
    if cfg.can_enter_flit(i, flit) {
        return (flit > 0 || admission.admit(cfg, i, HeadMove::Entry)).then_some(MoveKind::Enter);
    }
    None
}

/// Performs all admissible moves for travel `i`, head to tail, honouring the
/// per-step bandwidth flags in `scratch` and the policy's head-admission
/// predicate. Returns the number of (entries, advances, ejections)
/// performed.
///
/// # Errors
///
/// Propagates invariant violations from the movement primitives (these
/// indicate a bug: every move is guarded by its `can_*` predicate).
pub fn step_travel_with(
    cfg: &mut Config,
    i: usize,
    scratch: &mut StepScratch,
    trace: &mut Trace,
    admission: &dyn HeadAdmission,
) -> Result<StepReport> {
    let mut report = StepReport::default();
    let flit_count = cfg.travel(i).flit_count();
    let id = cfg.travel(i).id();
    for f in 0..flit_count {
        let t = cfg.travel(i);
        match flit_move(cfg, i, f, admission) {
            Some(MoveKind::Eject) => {
                let port = t.dest();
                if scratch.may_eject(port) {
                    cfg.eject_flit(i, f)?;
                    scratch.mark_ejected(port);
                    trace.record(id, f, Zone::Port(port), Zone::Delivered);
                    report.ejections += 1;
                }
            }
            Some(MoveKind::Advance) => {
                let FlitPos::InNetwork(k) = t.flit_pos(f) else {
                    unreachable!("an advance moves an in-network flit")
                };
                let (from, to) = (t.route()[k], t.route()[k + 1]);
                if scratch.may_enter(to) {
                    cfg.advance_flit(i, f)?;
                    scratch.mark_entered(to);
                    trace.record(id, f, Zone::Port(from), Zone::Port(to));
                    report.advances += 1;
                }
            }
            Some(MoveKind::Enter) => {
                let port = t.route()[0];
                if scratch.may_enter(port) {
                    cfg.enter_flit(i, f)?;
                    scratch.mark_entered(port);
                    trace.record(id, f, Zone::Source, Zone::Port(port));
                    report.entries += 1;
                }
            }
            None => {}
        }
    }
    Ok(report)
}

/// One greedy step over every travel, in the order given by `order`
/// (indices into `cfg.travels()`), under the policy's head-admission
/// predicate: the sweep every shipped switching policy's `step` is.
///
/// # Errors
///
/// Propagates invariant violations from the movement primitives.
///
/// # Panics
///
/// Panics if `order` contains an out-of-range travel index.
pub fn step_all(
    cfg: &mut Config,
    order: impl IntoIterator<Item = usize>,
    scratch: &mut StepScratch,
    trace: &mut Trace,
    admission: &dyn HeadAdmission,
) -> Result<StepReport> {
    let mut total = StepReport::default();
    for i in order {
        let r = step_travel_with(cfg, i, scratch, trace, admission)?;
        total.entries += r.entries;
        total.advances += r.advances;
        total.ejections += r.ejections;
    }
    Ok(total)
}

/// Whether some flit of travel `i` can move under the policy's admission
/// rules (ignoring the per-step bandwidth flags).
pub fn travel_can_move_with(cfg: &Config, i: usize, admission: &dyn HeadAdmission) -> bool {
    (0..cfg.travel(i).flit_count()).any(|f| flit_move(cfg, i, f, admission).is_some())
}

/// Whether any flit of any travel can move under the policy's admission
/// rules — the complement of the policy's deadlock predicate `Ω`.
pub fn any_move_possible_with(cfg: &Config, admission: &dyn HeadAdmission) -> bool {
    (0..cfg.travels().len()).any(|i| travel_can_move_with(cfg, i, admission))
}

/// The port whose state keeps travel `i` from moving, or `None` if some flit
/// of it can still move under the policy's admission rules.
///
/// A fully blocked worm is gated solely by its head's next port (`route[0]`
/// for a pending head, `route[k + 1]` for a head at route index `k`): body
/// flits only wait on ports the worm itself owns, which drain exclusively
/// through the worm's own moves, and a head at the destination port can
/// always eject. The returned port is never the travel's own, and a head
/// enters no port another worm owns, so the port's *release* — its owner's
/// tail leaving it — is the only event that can make the travel movable
/// again: the invariant behind the arena kernel's per-port wake-lists, and
/// `tests/arena_props.rs` checks every park the arena reports against this
/// function.
pub fn blocked_port_with(cfg: &Config, i: usize, admission: &dyn HeadAdmission) -> Option<PortId> {
    if travel_can_move_with(cfg, i, admission) {
        return None;
    }
    let t = cfg.travel(i);
    match t.flit_pos(0) {
        FlitPos::Pending => Some(t.route()[0]),
        FlitPos::InNetwork(k) if k + 1 < t.route().len() => Some(t.route()[k + 1]),
        // A head at the destination port can always eject, and a delivered
        // head leaves only body flits that drain through the worm's owned
        // suffix — neither state can coexist with a blocked travel.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::ids::NodeId;
    use crate::line::{LineNetwork, LineRouting};
    use crate::network::Network;
    use crate::spec::MessageSpec;

    #[test]
    fn step_moves_the_whole_worm_pipelined() {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(3),
            3,
        )];
        let mut cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let mut scratch = StepScratch::new(net.port_count());
        let mut trace = Trace::new(false);
        // Step 1: only the head can enter (capacity-1 ports).
        scratch.reset(net.port_count());
        let r = step_all(&mut cfg, [0], &mut scratch, &mut trace, &AlwaysAdmit).unwrap();
        assert_eq!(r.entries, 1);
        assert_eq!(r.advances, 0);
        // Step 2: head advances, first body flit enters behind it.
        scratch.reset(net.port_count());
        let r = step_all(&mut cfg, [0], &mut scratch, &mut trace, &AlwaysAdmit).unwrap();
        assert_eq!((r.entries, r.advances), (1, 1));
        cfg.validate(&net).unwrap();
    }

    #[test]
    fn one_entry_per_port_per_step() {
        let net = LineNetwork::new(3, 4);
        let routing = LineRouting::new(&net);
        // Two flits could both enter the roomy local in-port, but link
        // bandwidth admits one per step.
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(2),
            2,
        )];
        let mut cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let mut scratch = StepScratch::new(net.port_count());
        let mut trace = Trace::new(false);
        scratch.reset(net.port_count());
        let r = step_all(&mut cfg, [0], &mut scratch, &mut trace, &AlwaysAdmit).unwrap();
        assert_eq!(r.entries, 1, "second flit must wait for the next step");
    }

    #[test]
    fn scratch_reset_resizes() {
        let mut s = StepScratch::new(2);
        s.mark_entered(PortId::from_index(1));
        s.reset(4);
        assert!(s.may_enter(PortId::from_index(1)));
        assert!(s.may_enter(PortId::from_index(3)));
    }

    #[test]
    fn blocked_port_points_at_the_heads_next_hop() {
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        // Two messages from node 0: the second is blocked at entry while the
        // first owns the shared local in-port.
        let specs = [
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2),
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1),
        ];
        let mut cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        cfg.enter_flit(0, 0).unwrap();
        assert_eq!(blocked_port_with(&cfg, 0, &AlwaysAdmit), None);
        assert_eq!(
            blocked_port_with(&cfg, 1, &AlwaysAdmit),
            Some(cfg.travel(1).route()[0]),
        );
    }
}
