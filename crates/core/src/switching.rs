//! The [`SwitchingPolicy`] abstraction, service-order [`Arbitration`], and
//! the [`KernelSpec`] bridge to the arena kernel.
//!
//! The switching policy `S : Σ → Σ` computes the configuration after one
//! switching step, "after each message that can make progression has advanced
//! by at most one hop". Concrete policies (wormhole, store-and-forward,
//! virtual cut-through) live in the `genoc-switching` crate; this module
//! defines the interface the interpreter drives.
//!
//! A policy that is a *greedy sweep in some arbitration order under some
//! head-admission predicate* — all three concrete policies are — can
//! additionally expose that structure through
//! [`SwitchingPolicy::kernel_spec`], turning itself into an ordering
//! strategy over the run queue of the
//! [`ArenaKernel`](crate::arena::ArenaKernel). Runners then execute the
//! policy through the kernel's incremental scheduler with move-for-move
//! identical semantics.

use crate::config::Config;
use crate::error::Result;
use crate::network::Network;
use crate::step::HeadAdmission;
use crate::trace::Trace;

/// What a switching step did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StepReport {
    /// Flits that entered the network from a source IP core.
    pub entries: usize,
    /// Flits that advanced one hop.
    pub advances: usize,
    /// Flits ejected into a destination IP core.
    pub ejections: usize,
}

impl StepReport {
    /// Total number of flit moves in the step.
    pub fn moves(&self) -> usize {
        self.entries + self.advances + self.ejections
    }
}

/// Travel service order within a switching step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Arbitration {
    /// Travels are served in message-id order every step. Simple, but can
    /// starve high-id messages under sustained contention.
    #[default]
    FixedPriority,
    /// The starting travel rotates every step, spreading contention fairly.
    RoundRobin,
}

impl Arbitration {
    /// Short label used in policy names.
    pub fn label(self) -> &'static str {
        match self {
            Arbitration::FixedPriority => "fixed",
            Arbitration::RoundRobin => "round-robin",
        }
    }

    /// The travel index a sweep over `n` travels starts from at step `step`;
    /// service proceeds cyclically from there.
    pub fn start(self, n: usize, step: u64) -> usize {
        match self {
            Arbitration::FixedPriority => 0,
            Arbitration::RoundRobin => {
                if n == 0 {
                    0
                } else {
                    (step % n as u64) as usize
                }
            }
        }
    }

    /// The service order for `n` travels at step `step`.
    pub fn order(self, n: usize, step: u64) -> Vec<usize> {
        let start = self.start(n, step);
        (0..n).map(|i| (start + i) % n.max(1)).collect()
    }
}

/// The kernel-facing description of a switching policy: its service order,
/// its head-admission predicate, and the step counter the order starts from.
/// It feeds [`ArenaSpec::from_kernel_spec`](crate::arena::ArenaSpec::from_kernel_spec),
/// which accepts it when `admission` names a closed-world
/// [`SwitchingKind`](crate::meta::SwitchingKind).
///
/// A policy exposing a `KernelSpec` promises that its
/// [`step`](SwitchingPolicy::step) is exactly one greedy sweep in
/// `arbitration` order under `admission`
/// ([`step_all`](crate::step::step_all)), and that its
/// [`is_deadlock`](SwitchingPolicy::is_deadlock) is the negation of
/// "some flit can move under `admission`" — which makes kernel execution
/// observationally identical to stepping the policy itself, and makes
/// stepping the policy itself a sound fallback when the arena cannot
/// interpret the admission.
///
/// The admission predicate must additionally be *wake-complete*: for a
/// travel none of whose flits can move, the verdict of `admission` on the
/// head's pending move may only change through a `leave`/`release` on the
/// head's gate port (`route[0]` for a pending head, `route[k + 1]` for a
/// head at route index `k`). The kernel parks such a travel on that port's
/// wake-list and will not re-examine it until the port is freed — an
/// admission predicate reading any *other* mutable state (say, congestion
/// on a distant port) would leave the travel asleep through the change and
/// diverge from the reference sweep. All in-tree predicates qualify: plain
/// wormhole and whole-packet-room admission read only the gate port's
/// state, and store-and-forward's co-location clause depends only on the
/// worm's own flits, which cannot move while the travel is blocked.
#[derive(Clone, Copy)]
pub struct KernelSpec {
    /// The service order of the policy's step sweep.
    pub arbitration: Arbitration,
    /// The policy's head-admission predicate.
    pub admission: &'static dyn HeadAdmission,
    /// The step count the policy has already performed (relevant for
    /// round-robin order when a policy is reused across runs).
    pub first_step: u64,
}

impl std::fmt::Debug for KernelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSpec")
            .field("arbitration", &self.arbitration)
            .field("first_step", &self.first_step)
            .finish_non_exhaustive()
    }
}

/// A switching policy: the constituent `S` of the GeNoC triple.
///
/// The policy must satisfy the contract behind proof obligation (C-5): if
/// [`is_deadlock`](SwitchingPolicy::is_deadlock) returns `false` on a
/// configuration with a non-empty travel list, then
/// [`step`](SwitchingPolicy::step) must perform at least one flit move on it.
/// The interpreter enforces this contract at run time.
pub trait SwitchingPolicy {
    /// Human-readable name, e.g. `"wormhole"`.
    fn name(&self) -> String;

    /// Advances the configuration by one switching step, recording flit
    /// movements into `trace`.
    ///
    /// # Errors
    ///
    /// Implementations return an error only on internal invariant violations
    /// (which indicate a bug, not a property of the workload).
    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut Trace,
    ) -> Result<StepReport>;

    /// The deadlock predicate `Ω(σ)`: no in-flight message can make
    /// progression under this policy's admission rules.
    ///
    /// Must be `false` when `cfg.travels()` is empty (an evacuated
    /// configuration is terminal, not deadlocked).
    fn is_deadlock(&self, net: &dyn Network, cfg: &Config) -> bool;

    /// The policy's kernel description, if its step is a greedy
    /// arbitration-ordered sweep (see [`KernelSpec`]). Runners use it to
    /// execute the policy on the arena kernel when the spec's admission has a
    /// closed-world description; `None` (the default), or an opaque
    /// admission, keeps the runner on the reference full-rescan step.
    fn kernel_spec(&self) -> Option<KernelSpec> {
        None
    }

    /// Informs the policy that a kernel executed `steps` switching steps on
    /// its behalf, so stateful service orders (round-robin) stay in sync if
    /// the policy is stepped directly afterwards. The default is a no-op.
    fn note_kernel_steps(&mut self, steps: u64) {
        let _ = steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_report_sums_moves() {
        let r = StepReport {
            entries: 1,
            advances: 2,
            ejections: 3,
        };
        assert_eq!(r.moves(), 6);
        assert_eq!(StepReport::default().moves(), 0);
    }

    #[test]
    fn fixed_priority_is_stable() {
        assert_eq!(Arbitration::FixedPriority.order(3, 0), vec![0, 1, 2]);
        assert_eq!(Arbitration::FixedPriority.order(3, 7), vec![0, 1, 2]);
        assert_eq!(Arbitration::FixedPriority.start(3, 7), 0);
    }

    #[test]
    fn round_robin_rotates() {
        assert_eq!(Arbitration::RoundRobin.order(3, 0), vec![0, 1, 2]);
        assert_eq!(Arbitration::RoundRobin.order(3, 1), vec![1, 2, 0]);
        assert_eq!(Arbitration::RoundRobin.order(3, 5), vec![2, 0, 1]);
        assert_eq!(Arbitration::RoundRobin.start(3, 5), 2);
    }

    #[test]
    fn empty_travel_list_has_empty_order() {
        assert_eq!(Arbitration::RoundRobin.order(0, 9), Vec::<usize>::new());
        assert_eq!(Arbitration::RoundRobin.start(0, 9), 0);
    }
}
