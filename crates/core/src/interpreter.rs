//! The GeNoC interpreter: the recursive function
//!
//! ```text
//! GeNoC(σ) = σ                    if σ.T = ∅
//!          = σ                    if Ω(R(I(σ)))
//!          = GeNoC(S(R(I(σ))))    otherwise
//! ```
//!
//! implemented as a loop with run-time enforcement of the progress and
//! measure contracts behind proof obligation (C-5). Routes are pre-computed
//! when the configuration is built (the `GeNoC2D` specialisation: with
//! deterministic routing and identity injection, `R` and `I` can be hoisted
//! out of the recursion).
//!
//! Online deadlock detection and recovery, in the style of arXiv:1110.4677,
//! hook into the loop: [`run_hooked`] asks a [`DetectorHook`] at `σ.T = ∅`
//! ([`on_drained`](DetectorHook::on_drained), which may inject more work)
//! and at `Ω` ([`on_deadlock`](DetectorHook::on_deadlock), which may
//! recover) whether to leave or to recurse on the mutated `σ`, and hands it
//! every `S(σ)` with the step's [`BlockDiff`] transitions
//! ([`after_kernel_step`](DetectorHook::after_kernel_step)). [`run`] is the
//! definition above: no hook, no log.

use crate::blocking::BlockDiff;
use crate::config::Config;
use crate::error::{Error, Result};
use crate::ids::MsgId;
use crate::injection::InjectionMethod;
use crate::kernel::Transition;
use crate::network::Network;
use crate::switching::SwitchingPolicy;
use crate::trace::Trace;

/// Tuning knobs for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunOptions {
    /// Abort with [`Outcome::StepLimit`] after this many switching steps.
    pub max_steps: u64,
    /// Record every flit movement into the result's [`Trace`].
    pub record_trace: bool,
    /// Record the value of both measures after every step.
    pub record_measures: bool,
    /// Re-validate the configuration invariants after every step (slow;
    /// meant for tests).
    pub check_invariants: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_steps: 1_000_000,
            record_trace: false,
            record_measures: false,
            check_invariants: false,
        }
    }
}

/// How a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// All messages arrived: `GeNoC(σ).A = σ.T` (the evacuation theorem's
    /// conclusion).
    Evacuated,
    /// The configuration reached a deadlock: `Ω(σ)` held with `σ.T ≠ ∅`.
    Deadlock,
    /// The step limit was exhausted (indicates livelock or an insufficient
    /// limit; cannot happen when (C-5) holds and the limit exceeds the
    /// initial measure).
    StepLimit,
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Number of switching steps performed.
    pub steps: u64,
    /// The final configuration.
    pub config: Config,
    /// Movement trace (empty unless requested).
    pub trace: Trace,
    /// Per-step `(μxy, progress)` measure values (empty unless requested).
    pub measures: Vec<(u64, u64)>,
    /// Identifiers of travels in arrival order.
    pub arrival_order: Vec<MsgId>,
}

impl RunResult {
    /// Whether the run evacuated every message.
    pub fn evacuated(&self) -> bool {
        self.outcome == Outcome::Evacuated
    }
}

/// Observer/actor interface for detector-instrumented runs.
///
/// All methods have no-op defaults. Every loop that takes a hook guarantees
/// the following call discipline: `after_kernel_step` after every switching
/// step (with newly arrived travels already drained), `on_deadlock`
/// whenever the policy's `Ω` holds (return `true` after mutating the
/// configuration to continue the run, `false` to end it with
/// [`Outcome::Deadlock`]), and `on_drained` whenever `T` is empty (return
/// `true` after injecting more work, `false` to end with
/// [`Outcome::Evacuated`]).
pub trait DetectorHook {
    /// Never called by either loop, whose per-step callback is
    /// [`after_kernel_step`](DetectorHook::after_kernel_step): it stays only
    /// while the benchmark crate (`ledger/`) wraps it.
    fn after_step(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<()> {
        let _ = (net, cfg, step);
        Ok(())
    }

    /// Called after each switching step (`step` is its index) with its
    /// status [`Transition`]s: the arena kernel's log, or on the reference
    /// loop a [`BlockDiff`]'s. A `Blocked(p)` transition *is* a wait-for
    /// edge, so incremental detectors need not rescan the configuration. May
    /// mutate the configuration (e.g. break a wait-for cycle the moment it
    /// is detected), and returns whether it did.
    ///
    /// # Errors
    ///
    /// Errors abort the run.
    fn after_kernel_step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        transitions: &[Transition],
        step: u64,
    ) -> Result<bool> {
        let _ = (net, cfg, transitions, step);
        Ok(false)
    }

    /// Called when the deadlock predicate holds. Return `true` iff the hook
    /// recovered (mutated `cfg` so that progress is possible again).
    ///
    /// # Errors
    ///
    /// Errors abort the run.
    fn on_deadlock(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<bool> {
        let _ = (net, cfg, step);
        Ok(false)
    }

    /// Called when the in-flight travel list drained. Return `true` iff the
    /// hook injected more work (e.g. staged travels from a drain-and-restart
    /// recovery).
    ///
    /// # Errors
    ///
    /// Errors abort the run.
    fn on_drained(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<bool> {
        let _ = (net, cfg, step);
        Ok(false)
    }
}

/// A hook that never acts: every callback is the trait default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullHook;

impl DetectorHook for NullHook {}

/// The guard every loop that takes a hook runs once per iteration against
/// a hook that answers "continue" forever without enabling a step (a
/// recovery that never recovers). `idle_continues` counts its `true` answers since the last step.
///
/// # Errors
///
/// Reports [`Error::Invariant`] once `idle_continues` exceeds 10,000.
pub fn check_idle_continues(idle_continues: u32) -> Result<()> {
    if idle_continues > 10_000 {
        return Err(Error::Invariant(
            "detector hook keeps continuing without the run progressing".into(),
        ));
    }
    Ok(())
}

/// Runs the GeNoC interpreter to termination, with no hook: the recursion
/// of the module documentation, checked against (C-5) every step.
///
/// # Errors
///
/// Propagates invariant violations from the switching policy, and reports
/// [`Error::ProgressViolation`] / [`Error::MeasureViolation`] if the policy
/// breaks the (C-5) contract.
///
/// # Examples
///
/// ```
/// use genoc_core::line::{LineNetwork, LineRouting, LineSwitching};
/// use genoc_core::injection::IdentityInjection;
/// use genoc_core::interpreter::{run, Outcome, RunOptions};
/// use genoc_core::spec::MessageSpec;
/// use genoc_core::config::Config;
/// use genoc_core::NodeId;
///
/// # fn main() -> Result<(), genoc_core::Error> {
/// let net = LineNetwork::new(4, 1);
/// let routing = LineRouting::new(&net);
/// let specs = [
///     MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 2),
///     MessageSpec::new(NodeId::from_index(3), NodeId::from_index(0), 2),
/// ];
/// let cfg = Config::from_specs(&net, &routing, &specs)?;
/// let mut switching = LineSwitching::default();
/// let result = run(&net, &IdentityInjection, &mut switching, cfg, &RunOptions::default())?;
/// assert_eq!(result.outcome, Outcome::Evacuated);
/// assert_eq!(result.config.arrived().len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn run(
    net: &dyn Network,
    injection: &dyn InjectionMethod,
    switching: &mut dyn SwitchingPolicy,
    cfg: Config,
    options: &RunOptions,
) -> Result<RunResult> {
    run_hooked(net, injection, switching, cfg, options, None)
}

/// Runs the GeNoC interpreter to termination, reporting into `hook` (see
/// [`DetectorHook`] for the call discipline) the transitions a [`BlockDiff`]
/// reads off each step. Without a hook it keeps no log and leaves at both
/// exits: that is [`run`]. Hook mutations happen between steps and are
/// exempt from (C-5): recovery may raise the measure, e.g. when a
/// drain-and-restart resets flits to their sources.
///
/// # Errors
///
/// As [`run`], plus hook errors and [`check_idle_continues`]'s.
pub fn run_hooked(
    net: &dyn Network,
    injection: &dyn InjectionMethod,
    switching: &mut dyn SwitchingPolicy,
    mut cfg: Config,
    options: &RunOptions,
    mut hook: Option<&mut dyn DetectorHook>,
) -> Result<RunResult> {
    let mut trace = Trace::new(options.record_trace);
    let mut measures = Vec::new();
    let mut arrival_order = Vec::new();
    let mut steps: u64 = 0;
    let mut idle_continues: u32 = 0;
    let mut diff = BlockDiff::default();

    let outcome = loop {
        // Injection runs before the termination test so that non-identity
        // methods (the scheduled-injection extension) can still release
        // messages into a drained travel list; under the identity injection
        // of the paper the order is immaterial.
        injection.inject(net, &mut cfg)?;
        let mutated = if cfg.is_evacuated() {
            let go_on = hook
                .as_mut()
                .map_or(Ok(false), |h| h.on_drained(net, &mut cfg, steps));
            if !go_on? {
                break Outcome::Evacuated;
            }
            idle_continues += 1;
            true
        } else if switching.is_deadlock(net, &cfg) {
            let go_on = hook
                .as_mut()
                .map_or(Ok(false), |h| h.on_deadlock(net, &mut cfg, steps));
            if !go_on? {
                break Outcome::Deadlock;
            }
            idle_continues += 1;
            true
        } else {
            if steps >= options.max_steps {
                break Outcome::StepLimit;
            }

            let before = cfg.progress_measure();
            trace.begin_step(steps);
            let report = switching.step(net, &mut cfg, &mut trace)?;
            let arrived = cfg.drain_arrived();
            let after = cfg.progress_measure();

            if report.moves() == 0 {
                return Err(Error::ProgressViolation { step: steps });
            }
            if after >= before {
                return Err(Error::MeasureViolation {
                    step: steps,
                    before,
                    after,
                });
            }
            if options.record_measures {
                measures.push((cfg.route_length_measure(), after));
            }
            if options.check_invariants {
                cfg.validate(net)?;
            }
            let mutated = match &mut hook {
                Some(hook) => {
                    let transitions = diff.step(&cfg, &arrived);
                    hook.after_kernel_step(net, &mut cfg, transitions, steps)?
                }
                None => false,
            };
            arrival_order.extend(arrived);
            steps += 1;
            idle_continues = 0;
            mutated
        };
        if mutated {
            diff.rebaseline(&cfg);
        }
        check_idle_continues(idle_continues)?;
    };

    Ok(RunResult {
        outcome,
        steps,
        config: cfg,
        trace,
        measures,
        arrival_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::injection::IdentityInjection;
    use crate::line::{LineNetwork, LineRouting, LineSwitching};
    use crate::spec::MessageSpec;

    fn spec(s: usize, d: usize, flits: usize) -> MessageSpec {
        MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), flits)
    }

    fn evacuate(nodes: usize, capacity: u32, specs: &[MessageSpec]) -> RunResult {
        let net = LineNetwork::new(nodes, capacity);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, specs).unwrap();
        let options = RunOptions {
            check_invariants: true,
            record_measures: true,
            ..RunOptions::default()
        };
        run(
            &net,
            &IdentityInjection,
            &mut LineSwitching::default(),
            cfg,
            &options,
        )
        .unwrap()
    }

    #[test]
    fn empty_workload_terminates_immediately() {
        let r = evacuate(2, 1, &[]);
        assert_eq!(r.outcome, Outcome::Evacuated);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn single_message_evacuates() {
        let r = evacuate(4, 1, &[spec(0, 3, 3)]);
        assert_eq!(r.outcome, Outcome::Evacuated);
        assert_eq!(r.config.arrived().len(), 1);
        assert_eq!(r.arrival_order, vec![MsgId::from_index(0)]);
    }

    #[test]
    fn opposing_messages_evacuate() {
        let r = evacuate(4, 1, &[spec(0, 3, 2), spec(3, 0, 2), spec(1, 2, 1)]);
        assert_eq!(r.outcome, Outcome::Evacuated);
        assert_eq!(r.config.arrived().len(), 3);
    }

    #[test]
    fn progress_measure_strictly_decreases() {
        let r = evacuate(4, 2, &[spec(0, 3, 2), spec(2, 0, 3)]);
        let progresses: Vec<u64> = r.measures.iter().map(|&(_, p)| p).collect();
        for w in progresses.windows(2) {
            assert!(
                w[1] < w[0],
                "progress measure must strictly decrease: {progresses:?}"
            );
        }
    }

    #[test]
    fn route_measure_weakly_decreases() {
        let r = evacuate(4, 1, &[spec(0, 3, 4)]);
        let mus: Vec<u64> = r.measures.iter().map(|&(mu, _)| mu).collect();
        for w in mus.windows(2) {
            assert!(w[1] <= w[0], "mu_xy must weakly decrease: {mus:?}");
        }
    }

    #[test]
    fn step_limit_is_reported() {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, &[spec(0, 3, 3)]).unwrap();
        let options = RunOptions {
            max_steps: 1,
            ..RunOptions::default()
        };
        let r = run(
            &net,
            &IdentityInjection,
            &mut LineSwitching::default(),
            cfg,
            &options,
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::StepLimit);
        assert_eq!(r.steps, 1);
    }

    #[test]
    fn many_messages_same_source_serialise() {
        let specs: Vec<_> = (0..5).map(|_| spec(0, 3, 2)).collect();
        let r = evacuate(4, 1, &specs);
        assert_eq!(r.outcome, Outcome::Evacuated);
        assert_eq!(r.config.arrived().len(), 5);
    }

    #[test]
    fn trace_is_recorded_on_request() {
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, &[spec(0, 2, 1)]).unwrap();
        let options = RunOptions {
            record_trace: true,
            ..RunOptions::default()
        };
        let r = run(
            &net,
            &IdentityInjection,
            &mut LineSwitching::default(),
            cfg,
            &options,
        )
        .unwrap();
        let path = r.trace.flit_path(MsgId::from_index(0), 0);
        assert_eq!(path.len(), r.config.arrived()[0].route().len());
        assert!(r.trace.flit_delivered(MsgId::from_index(0), 0));
    }
}
