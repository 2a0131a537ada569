//! Driving a workload to termination and collecting statistics.
//!
//! One entry, [`simulate_config`], runs a configuration already built under
//! a switching policy, with an optional [`DetectorHook`] and an optional
//! [`RunObserver`], and is the only place that picks the loop:
//!
//! | arena | hook | observer | loop |
//! |-------|------|----------|------|
//! | yes   | —    | —        | the arena loop, quiet: no shadow `Config`, no logs |
//! | yes   | any  | any      | the arena loop, listened ([`NullHook`] / [`NullObserver`] for the one missing) |
//! | no    | any  | yes      | none: [`Error::Invariant`] |
//! | no    | any  | —        | [`run_hooked`], the reference loop: a [`BlockDiff`](genoc_core::blocking::BlockDiff) log for a hook, none without |
//!
//! "Arena" means [`Stepper::Arena`] (the default) and a policy whose
//! [`KernelSpec`](genoc_core::switching::KernelSpec) has a closed-world
//! admission predicate (every shipped policy has one); the differential
//! suites ask for [`Stepper::Legacy`] to prove both produce identical runs.
//! Observed runs exist only on the arena: the observer contract is its
//! kernel's logs. [`simulate`] (from message specs, neither hook nor
//! observer) and [`simulate_observed_config`] (both) wrap the entry.
//!
//! The hook is the integration point for online deadlock detection and
//! recovery (`genoc-detect`): it sees every step's status transitions
//! ([`after_kernel_step`](DetectorHook::after_kernel_step)), may mutate the
//! configuration then and when `Ω` holds (recovery), and may re-inject
//! staged travels when the travel list drains.
//!
//! The arena loop is one loop with two paths because hooks and observers
//! read and mutate `σ` as a [`Config`]: a listened run keeps a shadow
//! `Config` in lock step for them, and a quiet run, with no one to show `σ`
//! to, keeps none and re-seats its `Config` once at the end.

use genoc_core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::injection::IdentityInjection;
use genoc_core::interpreter::{check_idle_continues, run_hooked, Outcome, RunOptions, RunResult};
use genoc_core::kernel::Transition;
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::switching::SwitchingPolicy;
use genoc_core::trace::{Event, Trace, Zone};
use genoc_core::{MsgId, PortId};

pub use genoc_core::interpreter::{DetectorHook, NullHook};

use crate::stats::LatencySummary;

/// Which step engine drives the run. Both produce the same run, move for
/// move; they differ in what a step costs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Stepper {
    /// The struct-of-arrays arena stepper ([`genoc_core::arena`]), the
    /// default: flat `u32`-indexed storage, a run queue, zero per-step
    /// allocation. Requires the policy to expose a `KernelSpec` whose
    /// admission predicate has a closed-world
    /// [`SwitchingKind`](genoc_core::meta::SwitchingKind); a plain or hooked
    /// run falls back to the legacy loop otherwise, an observed run is
    /// refused.
    #[default]
    Arena,
    /// The reference full-rescan step loop — the policy's own `step` under
    /// [`interpreter::run`](genoc_core::interpreter::run), the executable
    /// form of the paper's `GeNoC` definition. What the differential suites
    /// compare the arena against, and the fallback for policies the arena
    /// cannot run.
    Legacy,
}

/// Knobs for a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Step limit handed to the interpreter.
    pub max_steps: u64,
    /// Record a movement trace (needed for per-message latencies and for
    /// the correctness theorem).
    pub record_trace: bool,
    /// Re-validate configuration invariants each step (slow).
    pub check_invariants: bool,
    /// The step engine (the arena by default).
    pub stepper: Stepper,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_steps: 1_000_000,
            record_trace: false,
            check_invariants: false,
            stepper: Stepper::default(),
        }
    }
}

/// Result of a simulation run: the interpreter result plus derived
/// statistics.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The raw interpreter result.
    pub run: RunResult,
    /// Identifiers of all injected messages, in spec order.
    pub injected: Vec<MsgId>,
    /// Per-message latency in steps (first movement event to last ejection),
    /// only when a trace was recorded.
    pub latencies: Vec<u64>,
}

impl SimResult {
    /// Whether every message arrived.
    pub fn evacuated(&self) -> bool {
        self.run.outcome == Outcome::Evacuated
    }

    /// Latency summary, when a trace was recorded.
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_latencies(&self.latencies)
    }
}

/// Runs `cfg` to termination under `policy`, reporting into `hook` and
/// `observer` when given, on the loop the module documentation's table
/// picks; every loop produces the same run. On the arena a hook mutates a
/// shadow `Config` (through [`Config::push_travel`],
/// [`Config::remove_travel`] and [`Config::reroute_travel`]) and the arena
/// takes the same changes in place. There the (C-5) measure is carried from
/// move counts and audited in full at every mutation and at termination
/// (per step under [`SimOptions::check_invariants`]).
///
/// # Errors
///
/// Propagates kernel, interpreter, hook and observer errors; reports
/// [`Error::Invariant`] for an observer off the arena, and if a hook keeps
/// answering "continue" without the run making progress.
pub fn simulate_config(
    net: &dyn Network,
    policy: &mut dyn SwitchingPolicy,
    cfg: Config,
    options: &SimOptions,
    hook: Option<&mut dyn DetectorHook>,
    observer: Option<&mut dyn RunObserver>,
) -> Result<SimResult> {
    let aspec = match options.stepper {
        Stepper::Arena => policy
            .kernel_spec()
            .and_then(|spec| ArenaSpec::from_kernel_spec(&spec)),
        Stepper::Legacy => None,
    };
    let run_options = RunOptions {
        max_steps: options.max_steps,
        record_trace: options.record_trace,
        record_measures: false,
        check_invariants: options.check_invariants,
    };
    let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
    let run = match (aspec, hook, observer) {
        (Some(aspec), None, None) => arena_loop(net, aspec, cfg, options, None)?,
        (Some(aspec), hook, observer) => arena_loop(
            net,
            aspec,
            cfg,
            options,
            Some(Listeners {
                hook: hook.unwrap_or(&mut NullHook),
                observer: observer.unwrap_or(&mut NullObserver),
            }),
        )?,
        (None, _, Some(_)) => {
            return Err(Error::Invariant(
                "observed runs need the arena's transition log: Stepper::Arena and a \
                 switching policy whose KernelSpec has a closed-world admission"
                    .into(),
            ))
        }
        // A policy that exposes a `KernelSpec` promises its own `step` is
        // that sweep, so the reference loop is sound for an opaque admission.
        (None, hook, None) => run_hooked(net, &IdentityInjection, policy, cfg, &run_options, hook)?,
    };
    if aspec.is_some() {
        policy.note_kernel_steps(run.steps);
    }
    let latencies = if options.record_trace {
        per_message_latencies(&run, &injected)
    } else {
        Vec::new()
    };
    Ok(SimResult {
        run,
        injected,
        latencies,
    })
}

/// Builds the initial configuration for `specs` and runs it to termination
/// under the identity injection, with neither hook nor observer.
///
/// # Errors
///
/// Propagates configuration-construction and interpreter errors.
pub fn simulate(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    specs: &[MessageSpec],
    options: &SimOptions,
) -> Result<SimResult> {
    let cfg = Config::from_specs(net, routing, specs)?;
    simulate_config(net, policy, cfg, options, None, None)
}

/// Passive per-step observer for instrumented runs — the sibling of
/// [`DetectorHook`] that *watches* instead of *acting*. Observers never
/// mutate the configuration; they receive the kernel's full evidence stream
/// (status transitions, freed ports, flit moves, arrivals) so a write-ahead
/// log or metrics registry can be fed without the runner knowing any
/// observability specifics (`genoc-obs`).
///
/// All methods have no-op defaults, so the disabled case
/// ([`NullObserver`]) costs one virtual call per step and nothing else.
///
/// Call discipline: `on_run_start` once before the first
/// step; `on_step` after every switching step (after arrivals are drained
/// and the (C-5) audit passed, *before* the [`DetectorHook`] may mutate, so
/// observers see the pre-recovery state); `on_mutation` after every hook
/// mutation (recovery, re-injection) with the number of completed steps, so
/// logs can mark a resynchronisation barrier; `on_run_end` once with the
/// outcome.
pub trait RunObserver {
    /// Whether the runner should force-record a movement trace so
    /// [`on_step`](RunObserver::on_step) receives the step's flit moves even
    /// when [`SimOptions::record_trace`] is off.
    fn wants_moves(&self) -> bool {
        false
    }

    /// Called once with the initial configuration, before any step.
    ///
    /// # Errors
    ///
    /// Errors abort the run.
    fn on_run_start(&mut self, net: &dyn Network, cfg: &Config) -> Result<()> {
        let _ = (net, cfg);
        Ok(())
    }

    /// Called after switching step `step`: `transitions` and `freed` are the
    /// kernel's status-transition and freed-port logs for the step (arrival
    /// transitions included), `moves` the step's flit movements (empty
    /// unless a trace is recorded or [`wants_moves`](RunObserver::wants_moves)
    /// holds), `arrived` the travels drained this step.
    ///
    /// # Errors
    ///
    /// Errors abort the run.
    fn on_step(
        &mut self,
        cfg: &Config,
        step: u64,
        transitions: &[Transition],
        freed: &[PortId],
        moves: &[Event],
        arrived: &[MsgId],
    ) -> Result<()> {
        let _ = (cfg, step, transitions, freed, moves, arrived);
        Ok(())
    }

    /// Called after a [`DetectorHook`] mutated the configuration (recovery
    /// or re-injection); `steps_done` is the number of completed switching
    /// steps. Incremental consumers must treat this as a barrier: parked
    /// state derived from earlier transitions may be stale.
    ///
    /// # Errors
    ///
    /// Errors abort the run.
    fn on_mutation(&mut self, cfg: &Config, steps_done: u64) -> Result<()> {
        let _ = (cfg, steps_done);
        Ok(())
    }

    /// Called once when the run terminates with `outcome` after `steps`
    /// switching steps.
    ///
    /// # Errors
    ///
    /// Errors abort the run (the result is discarded).
    fn on_run_end(&mut self, outcome: Outcome, steps: u64, cfg: &Config) -> Result<()> {
        let _ = (outcome, steps, cfg);
        Ok(())
    }
}

/// The do-nothing observer: every callback is the trait default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {}

/// [`simulate_config`] with both a hook and an observer, on a configuration
/// already built (adaptive instances choose their routes up front, see
/// [`config_with_selected_routes`](crate::adaptive::config_with_selected_routes);
/// everyone else calls [`Config::from_specs`]). Runs on the arena or not at
/// all.
///
/// # Errors
///
/// As for [`simulate_config`]: in particular [`Error::Invariant`] under
/// [`Stepper::Legacy`], and for a policy that exposes no
/// [`KernelSpec`](genoc_core::switching::KernelSpec) or one whose admission
/// predicate has no closed-world description.
pub fn simulate_observed_config(
    net: &dyn Network,
    policy: &mut dyn SwitchingPolicy,
    cfg: Config,
    options: &SimOptions,
    hook: &mut dyn DetectorHook,
    observer: &mut dyn RunObserver,
) -> Result<SimResult> {
    simulate_config(net, policy, cfg, options, Some(hook), Some(observer))
}

/// The full (C-5) audit: the ledger the arena loop carries against the
/// `actual` measure, recomputed.
fn audit_ledger(actual: u64, ledger: u64, step: u64) -> Result<()> {
    if actual == ledger {
        return Ok(());
    }
    Err(Error::MeasureViolation {
        step,
        before: ledger,
        after: actual,
    })
}

/// What a listened arena run reports into: the caller's hook and observer,
/// [`NullHook`] / [`NullObserver`] standing in for the one not given.
struct Listeners<'a> {
    hook: &'a mut dyn DetectorHook,
    observer: &'a mut dyn RunObserver,
}

/// The loop on the arena stepper: the termination order of
/// [`interpreter::run`](genoc_core::interpreter::run) (evacuated, then `Ω`,
/// then the step limit) over [`ArenaConfig`] columns. A step that moves
/// nothing on a non-deadlocked configuration is an
/// [`Error::ProgressViolation`]; since every flit move lowers the progress
/// measure by exactly one, the (C-5) ledger is carried by subtraction and
/// audited against a full recomputation at termination and per step under
/// [`SimOptions::check_invariants`], instead of being recomputed every
/// step.
///
/// *Quiet* (`listeners` is `None`): the kernel keeps no logs, `cfg` sits
/// untouched beside the arena until [`ArenaConfig::write_back`] re-seats it
/// at the end (debug builds also build [`ArenaConfig::to_config`] and
/// assert the two equal), and the ledger is audited against the arena's
/// own measure.
///
/// *Listened*: hooks and observers read and mutate `σ` as a [`Config`], so
/// `cfg` becomes a *shadow* kept in lock step by replaying the observed
/// kernel's move log; they keep their `Config`-based interface (and stable
/// public ids) unchanged. Replay is self-validating: every replayed move
/// goes through the `Config` movement methods, which reject anything the
/// legacy semantics would not do and lower the shadow's measure by one
/// each. A step checks that it replayed as many moves as the arena counted,
/// a hook mutation — applied to the arena in place, whichever callback made
/// it ([`ArenaKernel::follow`]) — adjusts the ledger by the arena's own
/// figures, and the full audit against the shadow runs at every mutation
/// and at termination, per step also in debug builds. A step costs its
/// moves, a recovery what it touched.
fn arena_loop(
    net: &dyn Network,
    aspec: ArenaSpec,
    mut cfg: Config,
    options: &SimOptions,
    mut listeners: Option<Listeners<'_>>,
) -> Result<RunResult> {
    let mut arena = ArenaConfig::from_config(net, &cfg)?;
    let mut kernel = ArenaKernel::new(&arena, aspec);
    kernel.set_observed(listeners.is_some());
    let wants_moves = listeners.as_ref().is_some_and(|l| l.observer.wants_moves());
    let mut trace = Trace::new(options.record_trace || wants_moves);
    let mut arrival_order = Vec::new();
    let mut steps: u64 = 0;
    let mut idle_continues: u32 = 0;
    let mut ledger = arena.progress_measure();
    // Index into the trace marking the start of the current step's moves,
    // so the observer sees exactly this step's slice.
    let mut moves_seen: usize = 0;
    if let Some(l) = &mut listeners {
        l.observer.on_run_start(net, &cfg)?;
    }

    let outcome = loop {
        // The flight list mirrors the shadow's `T` at the top of every
        // iteration (a step drains both, a mutation is followed), so the
        // arena answers "evacuated" for either path.
        let mutated = if arena.is_evacuated() {
            let go_on = match &mut listeners {
                Some(l) => l.hook.on_drained(net, &mut cfg, steps)?,
                None => false,
            };
            if !go_on {
                break Outcome::Evacuated;
            }
            idle_continues += 1;
            true
        } else if kernel.is_deadlock(&arena) {
            let go_on = match &mut listeners {
                Some(l) => l.hook.on_deadlock(net, &mut cfg, steps)?,
                None => false,
            };
            if !go_on {
                break Outcome::Deadlock;
            }
            idle_continues += 1;
            true
        } else {
            if steps >= options.max_steps {
                break Outcome::StepLimit;
            }
            trace.begin_step(steps);
            let report = kernel.step(&mut arena, &mut trace)?;
            // The flight list mirrors `cfg.travels()` order, across mutations
            // too, so the log's positions address the shadow's travels.
            let replayed = if listeners.is_some() {
                kernel.replay_moves(&mut cfg)? as u64
            } else {
                0
            };
            if kernel.take_saw_arrival() {
                kernel.drain_arrived(&mut arena);
                if listeners.is_some() {
                    let shadow_newly = cfg.drain_arrived();
                    debug_assert_eq!(shadow_newly, kernel.newly_arrived());
                }
            }
            if report.moves() == 0 {
                return Err(Error::ProgressViolation { step: steps });
            }
            let before = ledger;
            ledger = ledger.saturating_sub(report.moves() as u64);
            let Some(l) = &mut listeners else {
                if options.check_invariants {
                    arena.to_config(net)?.validate(net)?;
                    audit_ledger(arena.progress_measure(), ledger, steps)?;
                }
                arrival_order.extend_from_slice(kernel.newly_arrived());
                steps += 1;
                continue;
            };
            // (C-5) before the hook may mutate, as the reference loop
            // checks it every step: the shadow agrees with the ledger exactly
            // when it was handed every move the arena counted.
            let shadow = before.saturating_sub(replayed);
            if shadow != ledger {
                return Err(Error::MeasureViolation {
                    step: steps,
                    before: ledger,
                    after: shadow,
                });
            }
            if options.check_invariants {
                cfg.validate(net)?;
            }
            if options.check_invariants || cfg!(debug_assertions) {
                audit_ledger(cfg.progress_measure(), ledger, steps)?;
            }
            // The observer sees the step before the hook may mutate, so a
            // log records the state the detector acted on, not its repair.
            l.observer.on_step(
                &cfg,
                steps,
                kernel.transitions(),
                kernel.freed_ports(),
                &trace.events()[moves_seen..],
                kernel.newly_arrived(),
            )?;
            moves_seen = trace.events().len();
            arrival_order.extend_from_slice(kernel.newly_arrived());
            let mutated = l
                .hook
                .after_kernel_step(net, &mut cfg, kernel.transitions(), steps)?;
            steps += 1;
            idle_continues = 0;
            mutated
        };
        if mutated {
            // Audited in full before the observer hears of it, so that no
            // recovery absorbs a violation that came before it.
            ledger = ledger.wrapping_add_signed(kernel.follow(net, &mut arena, &cfg)?);
            audit_ledger(cfg.progress_measure(), ledger, steps)?;
            if let Some(l) = &mut listeners {
                l.observer.on_mutation(&cfg, steps)?;
            }
        }
        check_idle_continues(idle_continues)?;
    };

    match listeners {
        None => {
            audit_ledger(arena.progress_measure(), ledger, steps)?;
            arena.write_back(&mut cfg)?;
            debug_assert_eq!(cfg, arena.to_config(net)?, "write-back ≡ to_config");
        }
        Some(l) => {
            audit_ledger(cfg.progress_measure(), ledger, steps)?;
            l.observer.on_run_end(outcome, steps, &cfg)?;
        }
    }
    Ok(RunResult {
        outcome,
        steps,
        config: cfg,
        trace,
        measures: Vec::new(),
        arrival_order,
    })
}

/// Per-message latencies in a single pass over the trace: the first movement
/// event and the last delivery event of every injected message are recorded
/// as the events stream by, instead of rescanning the whole trace once per
/// message.
///
/// Each distinct message contributes at most one latency sample, even when
/// `injected` lists an id more than once — batch-injected cohorts sharing an
/// injection step used to be counted once per listing, skewing every mean.
pub(crate) fn per_message_latencies(run: &RunResult, injected: &[MsgId]) -> Vec<u64> {
    let slots = injected
        .iter()
        .map(|id| id.index())
        .max()
        .map_or(0, |m| m + 1);
    const UNSEEN: u64 = u64::MAX;
    let mut first = vec![UNSEEN; slots];
    let mut delivered = vec![UNSEEN; slots];
    for e in run.trace.events() {
        let i = e.msg.index();
        if i >= slots {
            continue;
        }
        if first[i] == UNSEEN {
            first[i] = e.step;
        }
        if e.to == Zone::Delivered {
            delivered[i] = e.step;
        }
    }
    let mut counted = vec![false; slots];
    injected
        .iter()
        .filter_map(|id| {
            let i = id.index();
            if counted[i] {
                return None;
            }
            counted[i] = true;
            if first[i] != UNSEEN && delivered[i] != UNSEEN {
                Some(delivered[i] - first[i] + 1)
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::line::{LineNetwork, LineRouting, LineSwitching};
    use genoc_core::NodeId;
    use genoc_routing::xy::XyRouting;
    use genoc_switching::Switching;
    use genoc_topology::mesh::Mesh;

    #[test]
    fn simulate_collects_latencies() {
        let mesh = Mesh::new(3, 3, 2);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::transpose(&mesh, 2);
        let options = SimOptions {
            record_trace: true,
            ..SimOptions::default()
        };
        let result =
            simulate(&mesh, &routing, &mut Switching::default(), &specs, &options).unwrap();
        assert!(result.evacuated());
        assert_eq!(result.latencies.len(), specs.len());
        let summary = result.latency_summary().unwrap();
        assert!(summary.min >= 1);
        assert!(summary.max >= summary.min);
    }

    #[test]
    fn latencies_empty_without_trace() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::all_to_all(4, 1);
        let result = simulate(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            &SimOptions::default(),
        )
        .unwrap();
        assert!(result.evacuated());
        assert!(result.latencies.is_empty());
        assert!(result.latency_summary().is_none());
    }

    #[test]
    fn arena_stepper_agrees_with_legacy_on_a_mesh_workload() {
        let mesh = Mesh::new(4, 4, 1);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::uniform_random(16, 48, 1..=5, 17);
        let mut results = Vec::new();
        for stepper in [Stepper::Arena, Stepper::Legacy] {
            let options = SimOptions {
                record_trace: true,
                check_invariants: true,
                stepper,
                ..SimOptions::default()
            };
            results.push(
                simulate(&mesh, &routing, &mut Switching::default(), &specs, &options).unwrap(),
            );
        }
        let (arena, legacy) = (&results[0], &results[1]);
        assert_eq!(arena.run.outcome, legacy.run.outcome);
        assert_eq!(arena.run.steps, legacy.run.steps);
        assert_eq!(arena.run.arrival_order, legacy.run.arrival_order);
        assert_eq!(arena.run.trace.events(), legacy.run.trace.events());
        assert_eq!(arena.latencies, legacy.latencies);
        assert_eq!(
            arena.run.config.position_key(),
            legacy.run.config.position_key()
        );
    }

    /// Messages from every node of a `nodes`-node line to either end, so
    /// worms meet head-on and queue behind each other.
    fn contended_line(nodes: usize, capacity: u32, flits: usize) -> (LineNetwork, Config) {
        let net = LineNetwork::new(nodes, capacity);
        let routing = LineRouting::new(&net);
        let mut specs = Vec::new();
        for i in 0..nodes - 1 {
            specs.push(MessageSpec::new(
                NodeId::from_index(i),
                NodeId::from_index(nodes - 1),
                flits,
            ));
            specs.push(MessageSpec::new(
                NodeId::from_index(nodes - 1 - i),
                NodeId::from_index(0),
                flits,
            ));
        }
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        (net, cfg)
    }

    #[test]
    fn arena_run_matches_legacy_runs() {
        // Both paths of the arena loop, with the per-step validation and
        // ledger audit on, against the reference interpreter.
        for (nodes, cap, flits) in [(4, 1, 1), (5, 1, 3), (6, 2, 4), (7, 3, 2)] {
            let (net, cfg) = contended_line(nodes, cap, flits);
            let options = SimOptions {
                record_trace: true,
                check_invariants: true,
                ..SimOptions::default()
            };
            let run_options = RunOptions {
                record_trace: true,
                check_invariants: true,
                ..RunOptions::default()
            };
            let lega = genoc_core::interpreter::run(
                &net,
                &IdentityInjection,
                &mut LineSwitching::default(),
                cfg.clone(),
                &run_options,
            )
            .unwrap();
            for listened in [false, true] {
                let mut policy = LineSwitching::default();
                let aren = simulate_config(
                    &net,
                    &mut policy,
                    cfg.clone(),
                    &options,
                    listened.then_some(&mut NullHook as &mut dyn DetectorHook),
                    None,
                )
                .unwrap()
                .run;
                let cell =
                    format!("line {nodes}, capacity {cap}, {flits} flits, listened {listened}");
                assert_eq!(aren.outcome, lega.outcome, "{cell}");
                assert_eq!(aren.steps, lega.steps, "{cell}");
                assert_eq!(aren.arrival_order, lega.arrival_order, "{cell}");
                assert_eq!(aren.trace.events(), lega.trace.events(), "{cell}");
                assert_eq!(
                    aren.config.position_key(),
                    lega.config.position_key(),
                    "{cell}"
                );
                assert_eq!(aren.config.state_hash(), lega.config.state_hash(), "{cell}");
            }
        }
    }

    #[test]
    fn the_default_stepper_is_the_arena() {
        assert_eq!(Stepper::default(), Stepper::Arena);
        assert_eq!(SimOptions::default().stepper, Stepper::Arena);
    }

    /// How [`Reluctant`] shows its `KernelSpec`.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    enum Shown {
        /// As wormhole switching has it: the arena can run it.
        #[default]
        AsIs,
        /// Not at all.
        Hidden,
        /// With an admission predicate that has no closed-world description.
        Opaque,
    }

    /// Wormhole switching that shows its `KernelSpec` as `shown` says, and
    /// counts the `step` calls the reference loop makes (the arena never
    /// calls `step`). The arena can run only [`Shown::AsIs`], so the others
    /// belong to the reference loop.
    #[derive(Default)]
    struct Reluctant {
        inner: Switching,
        shown: Shown,
        stepped: u64,
    }

    struct OpaqueAdmission;

    impl genoc_core::step::HeadAdmission for OpaqueAdmission {
        fn admit(&self, _: &Config, _: usize, _: genoc_core::step::HeadMove) -> bool {
            true
        }
    }

    impl SwitchingPolicy for Reluctant {
        fn name(&self) -> String {
            "reluctant".into()
        }

        fn step(
            &mut self,
            net: &dyn Network,
            cfg: &mut Config,
            trace: &mut Trace,
        ) -> Result<genoc_core::switching::StepReport> {
            self.stepped += 1;
            self.inner.step(net, cfg, trace)
        }

        fn is_deadlock(&self, net: &dyn Network, cfg: &Config) -> bool {
            self.inner.is_deadlock(net, cfg)
        }

        fn kernel_spec(&self) -> Option<genoc_core::switching::KernelSpec> {
            static OPAQUE: OpaqueAdmission = OpaqueAdmission;
            let spec = self.inner.kernel_spec()?;
            match self.shown {
                Shown::AsIs => Some(spec),
                Shown::Hidden => None,
                Shown::Opaque => Some(genoc_core::switching::KernelSpec {
                    admission: &OPAQUE,
                    ..spec
                }),
            }
        }
    }

    /// A hook and an observer that only count their per-step calls. As a
    /// hook it reports a mutation every step, so a listened arena run
    /// follows the shadow after every step, and a reference run rebaselines
    /// its diff.
    #[derive(Default)]
    struct Tally {
        calls: u64,
    }

    impl DetectorHook for Tally {
        fn after_kernel_step(
            &mut self,
            _: &dyn Network,
            _: &mut Config,
            _: &[Transition],
            _: u64,
        ) -> Result<bool> {
            self.calls += 1;
            Ok(true)
        }
    }

    impl RunObserver for Tally {
        fn on_step(
            &mut self,
            _: &Config,
            _: u64,
            _: &[Transition],
            _: &[PortId],
            _: &[Event],
            _: &[MsgId],
        ) -> Result<()> {
            self.calls += 1;
            Ok(())
        }
    }

    #[test]
    fn the_default_falls_back_where_the_arena_cannot_run() {
        let mesh = Mesh::new(4, 4, 1);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::uniform_random(16, 48, 1..=5, 17);
        let cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
        let traced = |stepper| SimOptions {
            record_trace: true,
            stepper,
            ..SimOptions::default()
        };
        let legacy = simulate(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            &traced(Stepper::Legacy),
        )
        .unwrap();
        assert_eq!(legacy.run.outcome, Outcome::Evacuated);

        // Every cell of the dispatch table: which loop stepped the run, and
        // that it is the legacy plain run, move for move.
        for shown in [Shown::AsIs, Shown::Hidden, Shown::Opaque] {
            for stepper in [Stepper::Arena, Stepper::Legacy] {
                let on_arena = stepper == Stepper::Arena && shown == Shown::AsIs;
                for (hooked, observed) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let cell =
                        format!("{shown:?}, {stepper:?}, hook {hooked}, observer {observed}");
                    let mut policy = Reluctant {
                        shown,
                        ..Reluctant::default()
                    };
                    let (mut hook, mut observer) = (Tally::default(), Tally::default());
                    let result = simulate_config(
                        &mesh,
                        &mut policy,
                        cfg.clone(),
                        &traced(stepper),
                        hooked.then_some(&mut hook as &mut dyn DetectorHook),
                        observed.then_some(&mut observer as &mut dyn RunObserver),
                    );
                    if observed && !on_arena {
                        // An observed run has no legacy form: refused, typed.
                        assert!(
                            matches!(result, Err(Error::Invariant(_))),
                            "{cell}: {result:?}"
                        );
                        assert_eq!(policy.stepped, 0, "{cell}");
                        continue;
                    }
                    let run = result.unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let steps = run.run.steps;
                    // The reference loop steps the policy; the arena never does.
                    assert_eq!(policy.stepped, if on_arena { 0 } else { steps }, "{cell}");
                    // A hook or observer puts an arena run on the listened path.
                    assert_eq!(hook.calls, if hooked { steps } else { 0 }, "{cell}");
                    assert_eq!(observer.calls, if observed { steps } else { 0 }, "{cell}");
                    assert_eq!(run.run.outcome, legacy.run.outcome, "{cell}");
                    assert_eq!(steps, legacy.run.steps, "{cell}");
                    assert_eq!(run.run.arrival_order, legacy.run.arrival_order, "{cell}");
                    assert_eq!(run.run.trace.events(), legacy.run.trace.events(), "{cell}");
                    assert_eq!(run.run.config, legacy.run.config, "{cell}");
                    assert_eq!(run.latencies, legacy.latencies, "{cell}");
                }
            }
        }
    }

    /// Answers "continue" at both exits of the loop and does nothing else.
    struct Stubborn;

    impl DetectorHook for Stubborn {
        fn on_deadlock(&mut self, _: &dyn Network, _: &mut Config, _: u64) -> Result<bool> {
            Ok(true)
        }

        fn on_drained(&mut self, _: &dyn Network, _: &mut Config, _: u64) -> Result<bool> {
            Ok(true)
        }
    }

    #[test]
    fn a_hook_that_keeps_continuing_without_progress_is_refused() {
        // The 2×2 mixed XY/YX storm deadlocks and `on_deadlock` recovers
        // nothing; the 3×3 XY transpose evacuates and `on_drained` injects
        // nothing. Either way the run must end in a typed error, not spin.
        let storm = Mesh::new(2, 2, 1);
        let storm_cfg = Config::from_specs(
            &storm,
            &genoc_routing::mixed::MixedXyYxRouting::new(&storm),
            &crate::workload::bit_complement(&storm, 4),
        )
        .unwrap();
        let grid = Mesh::new(3, 3, 1);
        let grid_cfg = Config::from_specs(
            &grid,
            &XyRouting::new(&grid),
            &crate::workload::transpose(&grid, 2),
        )
        .unwrap();
        for (net, cfg, exit) in [
            (&storm, storm_cfg, "deadlock"),
            (&grid, grid_cfg, "drained"),
        ] {
            for stepper in [Stepper::Arena, Stepper::Legacy] {
                let options = SimOptions {
                    stepper,
                    ..SimOptions::default()
                };
                let result = simulate_config(
                    net,
                    &mut Switching::default(),
                    cfg.clone(),
                    &options,
                    Some(&mut Stubborn),
                    None,
                );
                match result {
                    Err(Error::Invariant(text)) => {
                        assert!(
                            text.contains("detector hook keeps continuing"),
                            "{exit}, {stepper:?}: {text}"
                        )
                    }
                    other => panic!("{exit}, {stepper:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn observed_runs_refuse_the_legacy_stepper() {
        // The reference loop keeps no freed-port or move log for an
        // observer, and an option that cannot be honoured is an error, not a
        // silent change of stepper.
        let mesh = Mesh::new(3, 3, 1);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::transpose(&mesh, 2);
        let observed = |stepper| {
            let options = SimOptions {
                stepper,
                ..SimOptions::default()
            };
            simulate_observed_config(
                &mesh,
                &mut Switching::default(),
                Config::from_specs(&mesh, &routing, &specs).unwrap(),
                &options,
                &mut NullHook,
                &mut NullObserver,
            )
        };
        assert!(observed(Stepper::Arena).unwrap().evacuated());
        let refused = observed(Stepper::Legacy);
        assert!(matches!(refused, Err(Error::Invariant(_))), "{refused:?}");
    }

    #[test]
    fn latencies_count_each_message_once_even_when_injected_lists_repeat() {
        // Batch-injected cohorts share an injection step; a caller that
        // assembles `injected` from overlapping batches must not inflate
        // the sample count.
        let mesh = Mesh::new(3, 3, 2);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::transpose(&mesh, 2);
        let options = SimOptions {
            record_trace: true,
            ..SimOptions::default()
        };
        let result =
            simulate(&mesh, &routing, &mut Switching::default(), &specs, &options).unwrap();
        let mut doubled = result.injected.clone();
        doubled.extend_from_slice(&result.injected);
        let deduped = per_message_latencies(&result.run, &doubled);
        assert_eq!(deduped.len(), result.injected.len());
        assert_eq!(deduped, result.latencies);
    }

    #[test]
    fn large_mesh_16x16_with_a_thousand_messages_evacuates() {
        // The run queue's reason to exist: a 16x16 mesh under a thousand
        // messages of uniform traffic finishes promptly because blocked and
        // entry-queued worms cost nothing per step instead of a flit rescan.
        let mesh = Mesh::new(16, 16, 2);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::uniform_random(256, 1024, 1..=6, 5);
        let result = simulate(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            &SimOptions::default(),
        )
        .unwrap();
        assert!(result.evacuated(), "XY is deadlock-free at any scale");
        assert_eq!(result.run.config.arrived().len(), 1024);
    }

    #[test]
    fn large_mesh_32x32_heavy_traffic_evacuates() {
        let mesh = Mesh::new(32, 32, 2);
        let routing = XyRouting::new(&mesh);
        let specs = crate::workload::uniform_random(1024, 2048, 2..=4, 9);
        let result = simulate(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            &SimOptions::default(),
        )
        .unwrap();
        assert!(result.evacuated());
        assert_eq!(result.run.config.arrived().len(), 2048);
    }
}
