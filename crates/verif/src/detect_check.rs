//! Cross-checking online detection against the static theory.
//!
//! The online detectors of `genoc-detect` make three claims this module
//! re-validates per instance, over batches of random workloads:
//!
//! 1. **Soundness** (exact detector, both directions): the detector fires on
//!    a run *iff* the run ends in the interpreter's deadlock predicate `Ω` —
//!    an early alarm on a run that would have evacuated would be a false
//!    positive, a deadlocked run without an alarm a false negative. On
//!    instances whose obligations (C-1)…(C-5) discharge this specialises to
//!    *zero alarms ever* (DeadThm).
//! 2. **Static agreement**: every runtime-detected blocked-port cycle is a
//!    cycle of the statically computed port dependency graph — the runtime
//!    subsystem and Theorem 1 see the same deadlock.
//! 3. **Heuristic completeness**: wherever the exact detector fires, the
//!    timeout heuristic also fires within its threshold (no false
//!    negatives), deadlocked messages being permanently stalled.

use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::interpreter::Outcome;
use genoc_depgraph::cycle::is_cycle_of;
use genoc_detect::{DetectionEngine, EngineOptions, TimeoutDetector};
use genoc_sim::runner::{simulate_config, SimOptions};
use genoc_sim::workload::uniform_random;
use genoc_switching::Switching;

use crate::instance::Instance;

/// Workload shape for a detection cross-check batch.
#[derive(Clone, Debug)]
pub struct DetectionCheckOptions {
    /// Seeds to run (one workload per seed).
    pub seeds: std::ops::Range<u64>,
    /// Messages per workload.
    pub messages: usize,
    /// Maximum flits per message.
    pub max_flits: usize,
    /// Stall threshold of the heuristic comparator.
    pub heuristic_threshold: u64,
    /// Step limit per run.
    pub max_steps: u64,
}

impl Default for DetectionCheckOptions {
    fn default() -> Self {
        DetectionCheckOptions {
            seeds: 0..16,
            messages: 16,
            max_flits: 4,
            heuristic_threshold: genoc_detect::DEFAULT_THRESHOLD,
            max_steps: 100_000,
        }
    }
}

/// Result of cross-checking detection on one instance.
#[derive(Clone, Debug)]
pub struct DetectionReport {
    /// Instance name.
    pub instance: String,
    /// Workloads run.
    pub runs: u64,
    /// Runs that ended in `Ω`.
    pub deadlocked_runs: u64,
    /// Exact-detector alarms across all runs.
    pub detections: u64,
    /// Findings; empty iff the cross-check holds.
    pub violations: Vec<String>,
}

impl DetectionReport {
    /// Whether every claim held on every run.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Cross-checks online detection on `instance` over a batch of random
/// workloads (see the module docs for the three claims).
///
/// # Errors
///
/// Propagates configuration and interpreter errors (which indicate bugs in
/// the model, not detection failures).
pub fn check_detection(
    instance: &Instance,
    options: &DetectionCheckOptions,
) -> Result<DetectionReport> {
    let net = instance.net.as_ref();
    let routing = instance.routing.as_ref();
    let graph = &instance.analysis().graph;
    let mut report = DetectionReport {
        instance: instance.name.clone(),
        runs: 0,
        deadlocked_runs: 0,
        detections: 0,
        violations: Vec::new(),
    };
    let sim_options = SimOptions {
        max_steps: options.max_steps,
        ..SimOptions::default()
    };
    for seed in options.seeds.clone() {
        let specs = uniform_random(
            net.node_count().max(2),
            options.messages,
            1..=options.max_flits.max(1),
            seed,
        );
        let mut engine = DetectionEngine::detector(EngineOptions {
            heuristic_threshold: Some(options.heuristic_threshold),
        });
        let result = simulate_config(
            net,
            &mut Switching::default(),
            Config::from_specs(net, routing, &specs)?,
            &sim_options,
            Some(&mut engine),
            None,
        )?;
        report.runs += 1;
        let deadlocked = result.run.outcome == Outcome::Deadlock;
        if deadlocked {
            report.deadlocked_runs += 1;
        }
        report.detections += engine.detections().len() as u64;

        // (1) Fires iff the run deadlocks.
        if engine.fired() != deadlocked {
            report.violations.push(format!(
                "seed {seed}: detector fired = {}, outcome = {:?}",
                engine.fired(),
                result.run.outcome
            ));
        }
        // (2) Every detected cycle lies in the static dependency graph.
        for d in engine.detections() {
            if !is_cycle_of(graph, &d.cycle.ports) {
                report.violations.push(format!(
                    "seed {seed}, step {}: detected cycle is not a dependency-graph cycle: {:?}",
                    d.step, d.cycle.ports
                ));
            }
        }
        // (3) Heuristic completeness: if the exact detector fired, the
        // heuristic must fire too — during the run, or within threshold + 1
        // further idle observations of the final (deadlocked, hence frozen)
        // configuration.
        if engine.fired() {
            let fired_during_run = engine.summary(&result).first_heuristic_step.is_some();
            let fires_eventually = || {
                let mut heuristic = TimeoutDetector::new(options.heuristic_threshold);
                (0..=options.heuristic_threshold + 1)
                    .any(|_| !heuristic.observe(&result.run.config).is_empty())
            };
            if !fired_during_run && !fires_eventually() {
                report.violations.push(format!(
                    "seed {seed}: exact detector fired but the heuristic never did"
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_router_cross_check_holds_and_finds_deadlocks() {
        let instance = Instance::mesh_mixed(3, 3, 1);
        // Heavy traffic (many long worms) keeps the per-workload deadlock
        // probability high enough that 16 seeds always hit some.
        let options = DetectionCheckOptions {
            messages: 48,
            max_flits: 8,
            ..DetectionCheckOptions::default()
        };
        let report = check_detection(&instance, &options).unwrap();
        assert!(report.holds(), "{:?}", report.violations);
        assert!(
            report.deadlocked_runs > 0,
            "heavy mixed traffic must deadlock sometimes"
        );
        assert!(report.detections >= report.deadlocked_runs);
    }

    #[test]
    fn discharging_instances_raise_no_alarms() {
        for instance in [
            Instance::mesh_xy(3, 3, 1),
            Instance::ring_dateline(6, 1),
            Instance::torus_dor_dateline(5, 3, 1),
        ] {
            let report = check_detection(&instance, &DetectionCheckOptions::default()).unwrap();
            assert!(
                report.holds(),
                "{}: {:?}",
                report.instance,
                report.violations
            );
            assert_eq!(report.detections, 0, "{}", report.instance);
            assert_eq!(report.deadlocked_runs, 0, "{}", report.instance);
        }
    }
}
