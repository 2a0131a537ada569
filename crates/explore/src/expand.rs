//! One state's expansion: the body both search engines run per state.
//!
//! [`Expander::expand`] takes a packed key and hands every successor, as a
//! canonical packed key, to the caller — the sequential loop in
//! [`crate::explorer`] interns it on the spot, a worker of [`crate::parallel`]
//! buckets it for its shard. In between:
//!
//! 1. **Decode** the key into the one [`Config`] the expander owns
//!    ([`Workload::decode_into`]), under every worm-shape, capacity, and
//!    ownership check: each state that contributes to a verdict is
//!    validated here.
//! 2. **Enumerate** its admissible moves; under POR, **select** an ample
//!    subset.
//! 3. **Patch**: a move changes exactly one flit position, so a child's key
//!    is the parent's with one entry rewritten ([`Workload::patch`]). The
//!    move was enumerated on this very configuration a line earlier, so it
//!    is not applied to a clone and re-validated; debug builds assert that
//!    the two agree.
//! 4. **Canonicalize** the child key under the symmetry group: an image is
//!    read through its permutation against the least so far and abandoned
//!    at its first greater block, never built
//!    ([`Workload::canonicalize_with`]).
//!
//! Every buffer lives in the expander, so a state allocates nothing here.

use std::ops::ControlFlow;

use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::moves::{Move, MoveEnumerator};
use genoc_core::network::Network;
use genoc_core::step::HeadAdmission;

use crate::explorer::StateStatus;
use crate::por::AmpleSelector;
use crate::state::{CanonScratch, Workload};

/// Per-thread expansion state: the problem, plus every buffer a state needs.
pub(crate) struct Expander<'a> {
    workload: &'a Workload,
    perms: &'a [Vec<usize>],
    /// Where the identity sits in `perms`.
    identity: Option<usize>,
    enumerator: MoveEnumerator<'a>,
    selector: Option<AmpleSelector>,
    /// The configuration every key is decoded into.
    cfg: Config,
    moves: Vec<Move>,
    ample: Vec<Move>,
    /// The expanded state's key, patched into each child in turn.
    child: Vec<u16>,
    canonical: Vec<u16>,
    canon: CanonScratch,
}

impl<'a> Expander<'a> {
    /// An expander for `workload` on `net`. `por` asks for ample sets; their
    /// independence relation only holds for the closed-world admission
    /// kinds, so an opaque predicate gets the full enabled set.
    pub(crate) fn new(
        net: &dyn Network,
        workload: &'a Workload,
        perms: &'a [Vec<usize>],
        admission: &'a dyn HeadAdmission,
        por: bool,
    ) -> Expander<'a> {
        Expander {
            workload,
            perms,
            identity: perms.iter().position(|p| is_identity(p)),
            enumerator: MoveEnumerator::new(admission),
            selector: (por && admission.kind().is_some())
                .then(|| AmpleSelector::new(workload, net.port_count())),
            cfg: workload.blank(),
            moves: Vec::new(),
            ample: Vec::new(),
            child: Vec::new(),
            canonical: Vec::new(),
            canon: CanonScratch::default(),
        }
    }

    /// Expands the state `key`: calls `emit` with each successor — the move
    /// in `key`'s frame, the canonical key, and the permutation that
    /// canonicalized it (`canonical[j] = concrete[perm[j]]`, `None` for the
    /// identity) — in move order, until it breaks. A terminal state reports
    /// which kind it is.
    ///
    /// # Errors
    ///
    /// The decode errors of [`Workload::decode_into`]: a corrupted key.
    pub(crate) fn expand(
        &mut self,
        key: &[u16],
        mut emit: impl FnMut(Move, &[u16], Option<&[usize]>) -> ControlFlow<()>,
    ) -> Result<StateStatus> {
        self.workload.decode_into(&mut self.cfg, key)?;
        self.moves.clear();
        self.enumerator.push_moves(&self.cfg, &mut self.moves);
        if self.moves.is_empty() {
            // Decoding partitions fully-delivered travels into `A`, so an
            // empty `T` is exactly the evacuated case.
            return Ok(if self.cfg.is_evacuated() {
                StateStatus::Evacuated
            } else {
                StateStatus::Deadlock
            });
        }
        let reduced = self
            .selector
            .as_mut()
            .is_some_and(|sel| sel.select(&self.cfg, &self.moves, &mut self.ample));
        let expand: &[Move] = if reduced { &self.ample } else { &self.moves };
        self.child.clear();
        self.child.extend_from_slice(key);
        for &mv in expand {
            let (at, was) = self.workload.patch(&mut self.child, mv);
            debug_assert_eq!(
                self.child,
                applied_key(&self.enumerator, &self.cfg, mv),
                "patching {mv} into the key must equal applying it"
            );
            let (winner, sorted) = self.workload.canonicalize_with(
                &self.child,
                self.perms,
                &mut self.canonical,
                &mut self.canon,
            );
            // An unsorted total is known by its index; a sorted one is read.
            let perm = match sorted {
                Some(total) => (!is_identity(total)).then_some(total),
                None => (Some(winner) != self.identity).then(|| &self.perms[winner][..]),
            };
            let flow = emit(mv, &self.canonical, perm);
            self.child[at] = was;
            if flow.is_break() {
                break;
            }
        }
        Ok(StateStatus::Live)
    }

    /// Enabled moves of the state last expanded, before ample reduction.
    pub(crate) fn enabled(&self) -> usize {
        self.moves.len()
    }
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(j, &s)| j == s)
}

/// The successor key the long way round — clone, apply under full
/// re-validation, flatten: the oracle [`Workload::patch`] is held to.
fn applied_key(enumerator: &MoveEnumerator<'_>, cfg: &Config, mv: Move) -> Vec<u16> {
    let mut child = cfg.clone();
    enumerator
        .apply(&mut child, mv)
        .expect("an enumerated move applies to the configuration it was enumerated on");
    child.position_key()
}
