//! The detection engine: detectors + recovery policy behind the runner hook.
//!
//! [`DetectionEngine`] implements [`DetectorHook`], so plugging
//! online detection (and optionally recovery) into a simulation is one call:
//!
//! ```
//! use genoc_detect::{DetectionEngine, EngineOptions, AbortAndEvacuate};
//! use genoc_routing::mixed::MixedXyYxRouting;
//! use genoc_core::config::Config;
//! use genoc_sim::{simulate_config, workload, SimOptions};
//! use genoc_switching::Switching;
//! use genoc_topology::mesh::Mesh;
//!
//! # fn main() -> Result<(), genoc_core::Error> {
//! let mesh = Mesh::new(2, 2, 1);
//! let routing = MixedXyYxRouting::new(&mesh);
//! let specs = workload::bit_complement(&mesh, 4); // deadlocks undetected
//! let mut engine =
//!     DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
//! let result = simulate_config(
//!     &mesh,
//!     &mut Switching::default(),
//!     Config::from_specs(&mesh, &routing, &specs)?,
//!     &SimOptions::default(),
//!     Some(&mut engine),
//!     None,
//! )?;
//! assert!(result.evacuated(), "recovery saves the run");
//! let summary = engine.summary(&result);
//! assert_eq!(summary.aborted.len(), 1, "at the price of one message");
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

use genoc_core::blocking::{find_wait_cycle, WaitCycle};
use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::interpreter::DetectorHook;
use genoc_core::kernel::Transition;
use genoc_core::network::Network;
use genoc_core::travel::Travel;
use genoc_sim::stats::RecoverySummary;
use genoc_sim::SimResult;

use crate::exact::ExactDetector;
use crate::recovery::RecoveryPolicy;
use crate::timeout::{TimeoutDetector, DEFAULT_THRESHOLD};

/// Which comparator the engine runs beside its exact wait-for detector (the
/// exact detector always runs: it drives recovery when a policy is
/// installed).
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Run the timeout heuristic with this stall threshold as a comparator
    /// (`None` disables it).
    pub heuristic_threshold: Option<u64>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            heuristic_threshold: Some(DEFAULT_THRESHOLD),
        }
    }
}

/// Recovery invocations after which the engine gives up and lets the run
/// end as a deadlock — the safety valve against recovery that never
/// converges.
const MAX_RECOVERIES: u64 = 1024;

/// One detection: when it happened and the cycle that was caught.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Switching step after which the cycle was observed.
    pub step: u64,
    /// The detected wait-for cycle.
    pub cycle: WaitCycle,
}

/// Online deadlock detection (and optional recovery) as a runner hook.
pub struct DetectionEngine {
    exact: ExactDetector,
    heuristic: Option<TimeoutDetector>,
    policy: Option<Box<dyn RecoveryPolicy>>,
    staged: VecDeque<Travel>,
    detections: Vec<Detection>,
    stats: RecoverySummary,
}

impl std::fmt::Debug for DetectionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionEngine")
            .field("heuristic", &self.heuristic.is_some())
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("detections", &self.detections.len())
            .finish_non_exhaustive()
    }
}

impl DetectionEngine {
    /// A detect-only engine: observes and records, never intervenes.
    pub fn detector(options: EngineOptions) -> Self {
        DetectionEngine {
            exact: ExactDetector::new(),
            heuristic: options.heuristic_threshold.map(TimeoutDetector::new),
            policy: None,
            staged: VecDeque::new(),
            detections: Vec::new(),
            stats: RecoverySummary::default(),
        }
    }

    /// An engine that recovers through `policy` whenever the exact detector
    /// reports a cycle.
    pub fn with_policy(options: EngineOptions, policy: Box<dyn RecoveryPolicy>) -> Self {
        let mut engine = DetectionEngine::detector(options);
        engine.policy = Some(policy);
        engine
    }

    /// Every detection so far, in order.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Whether any deadlock was detected.
    pub fn fired(&self) -> bool {
        !self.detections.is_empty()
    }

    /// The engine's running statistics as they stand mid-run. Delivery
    /// counts are only filled in by [`summary`](DetectionEngine::summary);
    /// use this to diff recovery actions (aborts, reroutes, restarts)
    /// between steps without a finished [`SimResult`].
    pub fn stats(&self) -> &RecoverySummary {
        &self.stats
    }

    /// The run statistics, completed with the result's delivery counts.
    pub fn summary(&self, result: &SimResult) -> RecoverySummary {
        let mut s = self.stats.clone();
        s.delivered = result.run.config.arrived().len() as u64;
        s.total_steps = result.run.steps;
        s
    }

    fn record_detection(&mut self, step: u64, cycle: WaitCycle) {
        self.stats.exact_detections += 1;
        self.stats.first_exact_step.get_or_insert(step);
        self.detections.push(Detection { step, cycle });
    }

    /// Applies the recovery policy to `cycle`, then keeps re-checking for
    /// further cycles (several independent ones can coexist) until none
    /// remains or the recovery budget runs out. Returns whether anything was
    /// recovered.
    fn recover(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        step: u64,
        cycle: WaitCycle,
    ) -> Result<bool> {
        let Some(mut policy) = self.policy.take() else {
            return Ok(false);
        };
        let result = self.recover_with(net, cfg, step, cycle, policy.as_mut());
        self.policy = Some(policy);
        result
    }

    fn recover_with(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        step: u64,
        mut cycle: WaitCycle,
        policy: &mut dyn RecoveryPolicy,
    ) -> Result<bool> {
        let mut acted = false;
        loop {
            if self.stats.recoveries >= MAX_RECOVERIES {
                self.exact.cycle_stands();
                return Ok(acted);
            }
            self.stats.recoveries += 1;
            let outcome = policy.recover(net, cfg, &cycle)?;
            if !outcome.acted() {
                return Err(Error::Invariant(format!(
                    "recovery policy {} did not act on a detected cycle",
                    policy.name()
                )));
            }
            acted = true;
            self.stats.note_aborted(outcome.aborted);
            self.stats.note_rerouted(outcome.rerouted);
            if outcome.restarted {
                self.stats.restarts += 1;
                self.staged.extend(outcome.staged);
                // The configuration was rebuilt wholesale; stale detector
                // state would mis-diff against it.
                self.exact.reset();
                if let Some(h) = self.heuristic.as_mut() {
                    h.reset();
                }
            }
            match find_wait_cycle(cfg) {
                Some(next) => {
                    self.record_detection(step, next.clone());
                    cycle = next;
                }
                None => {
                    // Repaired, and without transitions: the stored graph is void.
                    self.exact.reset();
                    return Ok(true);
                }
            }
        }
    }

    /// The timeout comparator contributes its first alarm only: after that it is not run.
    fn observe_heuristic(&mut self, cfg: &Config, step: u64) {
        if self.stats.first_heuristic_step.is_some() {
            return;
        }
        if let Some(heuristic) = self.heuristic.as_mut() {
            let suspects = heuristic.observe(cfg);
            if !suspects.is_empty() {
                self.stats.first_heuristic_step = Some(step);
                if find_wait_cycle(cfg).is_none() {
                    self.stats.heuristic_false_alarms += 1;
                }
            }
        }
    }
}

impl DetectorHook for DetectionEngine {
    /// Folds the step's transitions into the exact detector and recovers
    /// from any cycle it reports; returns whether recovery mutated `cfg`.
    /// The heuristic observes (and a first alarm is classified as
    /// true/false) *before* recovery, so an alarm on a cycle about to be
    /// repaired still counts as genuine.
    fn after_kernel_step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        transitions: &[Transition],
        step: u64,
    ) -> Result<bool> {
        self.observe_heuristic(cfg, step);
        match self.exact.apply_kernel_transitions(cfg, transitions) {
            Some(cycle) => {
                self.record_detection(step, cycle.clone());
                self.recover(net, cfg, step, cycle)
            }
            None => Ok(false),
        }
    }

    fn on_deadlock(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<bool> {
        // The global predicate Ω can hold before any step ran (hand-built
        // configurations) or for blockages the per-step detector recovered
        // only partially; record the cycle if it is new, then recover.
        if let Some(cycle) = find_wait_cycle(cfg) {
            let known = self
                .detections
                .last()
                .is_some_and(|d| d.cycle.msgs == cycle.msgs);
            if !known {
                self.record_detection(step, cycle.clone());
            }
            self.recover(net, cfg, step, cycle)
        } else {
            // Deadlocked without a wormhole wait-for cycle (e.g. stricter
            // admission rules): nothing this engine can do.
            Ok(false)
        }
    }

    fn on_drained(&mut self, _net: &dyn Network, cfg: &mut Config, _step: u64) -> Result<bool> {
        // Serialized re-injection after a drain-and-restart: one travel at a
        // time, so the replay cannot re-create the deadlock.
        match self.staged.pop_front() {
            Some(travel) => {
                cfg.push_travel(travel)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{AbortAndEvacuate, DrainAll};
    use genoc_core::interpreter::Outcome;
    use genoc_core::routing::RoutingFunction;
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_routing::xy::XyRouting;
    use genoc_sim::workload::{bit_complement, uniform_random};
    use genoc_sim::{simulate, simulate_config, SimOptions, Stepper};
    use genoc_switching::Switching;
    use genoc_topology::mesh::Mesh;

    fn storm() -> (Mesh, MixedXyYxRouting, Vec<genoc_core::spec::MessageSpec>) {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        (mesh, routing, specs)
    }

    #[test]
    fn undetected_run_deadlocks_but_abort_recovery_evacuates() {
        let (mesh, routing, specs) = storm();
        let undetected = simulate(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(undetected.run.outcome, Outcome::Deadlock);

        let mut engine =
            DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
        let recovered = simulate_config(
            &mesh,
            &mut Switching::default(),
            Config::from_specs(&mesh, &routing, &specs).unwrap(),
            &SimOptions::default(),
            Some(&mut engine),
            None,
        )
        .unwrap();
        assert_eq!(recovered.run.outcome, Outcome::Evacuated);
        let summary = engine.summary(&recovered);
        assert_eq!(summary.exact_detections as usize, engine.detections().len());
        assert!(summary.first_exact_step.is_some());
        assert_eq!(
            summary.delivered as usize + summary.aborted.len(),
            specs.len(),
            "every message either arrived or was deliberately aborted"
        );
        assert!(summary.throughput() > 0.0);
    }

    #[test]
    fn drain_all_delivers_every_message() {
        let (mesh, routing, specs) = storm();
        let mut engine = DetectionEngine::with_policy(EngineOptions::default(), Box::new(DrainAll));
        let result = simulate_config(
            &mesh,
            &mut Switching::default(),
            Config::from_specs(&mesh, &routing, &specs).unwrap(),
            &SimOptions::default(),
            Some(&mut engine),
            None,
        )
        .unwrap();
        assert_eq!(result.run.outcome, Outcome::Evacuated);
        let summary = engine.summary(&result);
        assert_eq!(summary.delivered as usize, specs.len(), "nothing is lost");
        assert!(summary.restarts >= 1);
        assert!(summary.aborted.is_empty());
    }

    #[test]
    fn detect_only_engine_observes_without_intervening() {
        let (mesh, routing, specs) = storm();
        let mut engine = DetectionEngine::detector(EngineOptions::default());
        let result = simulate_config(
            &mesh,
            &mut Switching::default(),
            Config::from_specs(&mesh, &routing, &specs).unwrap(),
            &SimOptions::default(),
            Some(&mut engine),
            None,
        )
        .unwrap();
        assert_eq!(result.run.outcome, Outcome::Deadlock);
        assert!(engine.fired());
        let first = engine.detections()[0].step;
        assert!(
            first <= result.run.steps,
            "online detection cannot be later than Ω"
        );
    }

    /// Seeded uniform traffic on a `width`² capacity-1 mixed XY/YX mesh
    /// under abort recovery.
    fn recovering_run(
        width: usize,
        messages: usize,
        threshold: u64,
        stepper: Stepper,
    ) -> (DetectionEngine, SimResult) {
        let mesh = Mesh::new(width, width, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = uniform_random(width * width, messages, 2..=8, 7);
        hooked(&mesh, &routing, &specs, threshold, true, stepper)
    }

    fn hooked(
        mesh: &Mesh,
        routing: &dyn RoutingFunction,
        specs: &[genoc_core::spec::MessageSpec],
        threshold: u64,
        recover: bool,
        stepper: Stepper,
    ) -> (DetectionEngine, SimResult) {
        let options = EngineOptions {
            heuristic_threshold: Some(threshold),
        };
        let mut engine = if recover {
            DetectionEngine::with_policy(options, Box::new(AbortAndEvacuate))
        } else {
            DetectionEngine::detector(options)
        };
        let sim = SimOptions {
            stepper,
            ..SimOptions::default()
        };
        let mut policy = Switching::default();
        let cfg = Config::from_specs(mesh, routing, specs).unwrap();
        let result =
            simulate_config(mesh, &mut policy, cfg, &sim, Some(&mut engine), None).unwrap();
        (engine, result)
    }

    #[test]
    fn the_comparator_goes_quiet_after_its_first_alarm_and_the_summary_does_not_notice() {
        // (first_heuristic_step, heuristic_false_alarms, exact_detections,
        // total_steps), pinned from the commit before `observe_heuristic`
        // returned early once the comparator had spoken.
        let (mesh, routing, specs) = storm();
        for stepper in [Stepper::Legacy, Stepper::Arena] {
            let figures = |(engine, result): (DetectionEngine, SimResult)| {
                let s = engine.summary(&result);
                let heuristic = (s.first_heuristic_step, s.heuristic_false_alarms);
                (heuristic, s.exact_detections, s.total_steps)
            };
            let watched = figures(hooked(&mesh, &routing, &specs, 1, false, stepper));
            assert_eq!(
                watched,
                ((None, 0), 1, 3),
                "storm, detect-only, {stepper:?}"
            );
            let healed = figures(hooked(&mesh, &routing, &specs, 2, true, stepper));
            assert_eq!(healed, ((Some(4), 1), 1, 15), "storm, {stepper:?}");
            let mixed = figures(recovering_run(4, 256, 16, stepper));
            assert_eq!(mixed, ((Some(16), 1), 13, 317), "4×4 mixed, {stepper:?}");
        }
    }

    #[test]
    fn a_recovering_run_scans_in_full_only_to_extract_a_witness() {
        let (engine, result) = recovering_run(8, 768, 32, Stepper::Arena);
        assert_eq!(result.run.outcome, Outcome::Evacuated);
        let detections = engine.detections().len() as u64;
        let scans = engine.exact.full_scans();
        assert!(detections >= 20, "only {detections} detections");
        assert!(
            scans <= detections && scans * 10 < result.run.steps,
            "{scans} full scans for {detections} detections in {} steps",
            result.run.steps
        );

        // Where no cycle ever closes, no call scans: the walk from the
        // step's parks answers each one. The id → index map is rebuilt
        // when a travel leaves, not on every call that parks one.
        let mesh = Mesh::new(8, 8, 2);
        let specs = uniform_random(64, 128, 1..=4, 23);
        let xy = XyRouting::new(&mesh);
        let (engine, result) = hooked(
            &mesh,
            &xy,
            &specs,
            crate::DEFAULT_THRESHOLD,
            false,
            Stepper::Arena,
        );
        assert_eq!(result.run.outcome, Outcome::Evacuated);
        assert!(!engine.fired(), "a clean run raises no alarm");
        let exact = &engine.exact;
        assert_eq!(exact.full_scans(), 0);
        assert!(
            exact.index_rebuilds() < result.run.steps,
            "{} map rebuilds in {} steps",
            exact.index_rebuilds(),
            result.run.steps
        );
    }
}
