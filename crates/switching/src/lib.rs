//! # genoc-switching
//!
//! The switching policy `S` of GeNoC-rs, as one type: [`Switching`] over a
//! [`SwitchingKind`] —
//!
//! * [`SwitchingKind::Wormhole`] — the paper's `Swh`: flit-level wormhole
//!   switching with single-packet port ownership, under fixed-priority or
//!   round-robin [`Arbitration`];
//! * [`SwitchingKind::VirtualCutThrough`] — pipelined like wormhole but
//!   blocked packets collapse into one port;
//! * [`SwitchingKind::StoreForward`] — whole-packet hop-by-hop transfer,
//!   the unpipelined baseline.
//!
//! The three move flits alike and differ only in when a header flit may
//! claim the next port: the *head admission* predicate of [`motion`],
//! layered over the movement primitives of `genoc-core`. Every policy
//! satisfies the (C-5) contract: a step on a non-deadlocked configuration
//! moves at least one flit and strictly decreases the progress measure.
//!
//! A step is one [`step_all`] sweep, exposed as
//! a [`KernelSpec`] — the arbitration order plus the admission predicate —
//! which turns the policy into an ordering strategy over the run queue of
//! the arena kernel ([`ArenaKernel`](genoc_core::arena::ArenaKernel)),
//! since each shipped predicate names its [`SwitchingKind`]. Runners
//! (`genoc-sim`) execute policies on the arena by default, with
//! move-for-move identical semantics to stepping them directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod motion;
#[cfg(test)]
mod store_forward;
#[cfg(test)]
mod virtual_cut_through;
pub mod wormhole;

pub use genoc_core::meta::SwitchingKind;
pub use genoc_core::switching::Arbitration;

use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::network::Network;
use genoc_core::step::StepScratch;
use genoc_core::switching::{KernelSpec, StepReport, SwitchingPolicy};
use genoc_core::trace::Trace;

use crate::motion::{
    any_move_possible_with, step_all, AlwaysAdmit, HeadAdmission, StoreAndForwardAdmission,
    WholePacketRoom,
};

/// A switching policy: one greedy sweep per step, in arbitration order,
/// under the head-admission rule of its [`SwitchingKind`].
///
/// Every policy a workload needs comes from [`Switching::new`] (fixed
/// priority) or, for round-robin wormhole, [`Switching::wormhole`]; the
/// default is wormhole with fixed priority.
///
/// Virtual cut-through and store-and-forward need every port on a packet's
/// route to buffer the whole packet
/// ([`SwitchingKind::requires_whole_packet_buffering`]); a workload that
/// violates this wedges at once and is reported as a deadlock.
///
/// # Examples
///
/// ```
/// use genoc_core::config::Config;
/// use genoc_core::injection::IdentityInjection;
/// use genoc_core::interpreter::{run, Outcome, RunOptions};
/// use genoc_core::spec::MessageSpec;
/// use genoc_switching::{Switching, SwitchingKind};
/// use genoc_topology::mesh::Mesh;
/// use genoc_routing::xy::XyRouting;
///
/// # fn main() -> Result<(), genoc_core::Error> {
/// let mesh = Mesh::new(3, 3, 4);
/// let routing = XyRouting::new(&mesh);
/// let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 4)];
/// for kind in SwitchingKind::ALL {
///     let cfg = Config::from_specs(&mesh, &routing, &specs)?;
///     let mut policy = Switching::new(kind);
///     let result = run(&mesh, &IdentityInjection, &mut policy, cfg, &RunOptions::default())?;
///     assert_eq!(result.outcome, Outcome::Evacuated);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Switching {
    kind: SwitchingKind,
    arbitration: Arbitration,
    scratch: StepScratch,
    step_count: u64,
}

impl Default for Switching {
    fn default() -> Self {
        Switching::new(SwitchingKind::Wormhole)
    }
}

impl Switching {
    /// The `kind` policy under fixed-priority arbitration.
    pub fn new(kind: SwitchingKind) -> Self {
        Switching {
            kind,
            arbitration: Arbitration::FixedPriority,
            scratch: StepScratch::default(),
            step_count: 0,
        }
    }

    /// Wormhole switching under the given arbitration scheme.
    pub fn wormhole(arbitration: Arbitration) -> Self {
        Switching {
            arbitration,
            ..Switching::new(SwitchingKind::Wormhole)
        }
    }

    /// Which policy this is.
    pub fn kind(&self) -> SwitchingKind {
        self.kind
    }

    /// The arbitration scheme in force.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }

    fn admission(&self) -> &'static dyn HeadAdmission {
        match self.kind {
            SwitchingKind::Wormhole => &AlwaysAdmit,
            SwitchingKind::VirtualCutThrough => &WholePacketRoom,
            SwitchingKind::StoreForward => &StoreAndForwardAdmission,
        }
    }
}

impl SwitchingPolicy for Switching {
    fn name(&self) -> String {
        match self.kind {
            SwitchingKind::Wormhole => format!("wormhole/{}", self.arbitration.label()),
            SwitchingKind::VirtualCutThrough => "virtual-cut-through".into(),
            SwitchingKind::StoreForward => "store-and-forward".into(),
        }
    }

    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut Trace,
    ) -> Result<StepReport> {
        let admission = self.admission();
        self.scratch.reset(net.port_count());
        let order = self.arbitration.order(cfg.travels().len(), self.step_count);
        self.step_count += 1;
        step_all(cfg, order, &mut self.scratch, trace, admission)
    }

    fn is_deadlock(&self, _net: &dyn Network, cfg: &Config) -> bool {
        !cfg.is_evacuated() && !any_move_possible_with(cfg, self.admission())
    }

    fn kernel_spec(&self) -> Option<KernelSpec> {
        Some(KernelSpec {
            arbitration: self.arbitration,
            admission: self.admission(),
            first_step: self.step_count,
        })
    }

    fn note_kernel_steps(&mut self, steps: u64) {
        self.step_count += steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::arena::ArenaSpec;
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions};
    use genoc_core::spec::MessageSpec;
    use genoc_routing::xy::XyRouting;
    use genoc_topology::mesh::Mesh;

    #[test]
    fn every_policy_keeps_its_name_kernel_spec_and_admission_rule() {
        let rows = [
            (Switching::new(SwitchingKind::Wormhole), "wormhole/fixed"),
            (
                Switching::wormhole(Arbitration::RoundRobin),
                "wormhole/round-robin",
            ),
            (
                Switching::new(SwitchingKind::VirtualCutThrough),
                "virtual-cut-through",
            ),
            (
                Switching::new(SwitchingKind::StoreForward),
                "store-and-forward",
            ),
        ];
        let mesh = Mesh::new(3, 3, 2);
        let routing = XyRouting::new(&mesh);
        let crossing: Vec<MessageSpec> = mesh
            .nodes()
            .map(|n| {
                let (x, y) = mesh.node_coords(n);
                MessageSpec::new(n, mesh.node(2 - x, 2 - y), 3)
            })
            .collect();
        for (mut policy, name) in rows {
            let kind = policy.kind();
            assert_eq!(policy.name(), name);
            let spec = policy.kernel_spec().unwrap();
            assert_eq!(spec.admission.kind(), Some(kind), "{name}");
            let arena = ArenaSpec::from_kernel_spec(&spec).unwrap();
            assert_eq!(arena.admission, kind, "{name}");
            assert_eq!(arena.arbitration, policy.arbitration(), "{name}");

            // 3-flit packets through 2-flit buffers: wormhole pipelines
            // them, the whole-packet rule wedges at once.
            let cfg = Config::from_specs(&mesh, &routing, &crossing).unwrap();
            let options = RunOptions {
                check_invariants: true,
                ..RunOptions::default()
            };
            let r = run(&mesh, &IdentityInjection, &mut policy, cfg, &options).unwrap();
            let expected = if kind.requires_whole_packet_buffering() {
                Outcome::Deadlock
            } else {
                Outcome::Evacuated
            };
            assert_eq!(r.outcome, expected, "{name}");
        }
    }
}
