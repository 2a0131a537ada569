//! Cross-validation of the exhaustive state-space explorer against the
//! static dependency-graph verdict and the greedy deadlock hunts.
//!
//! The explorer ([`genoc_explore`]) is the ground-truth tier between the
//! two existing methods: the dependency graph decides *possibility* of
//! deadlock over all workloads, the hunts sample *one* greedy schedule per
//! workload, and the explorer decides one workload *exactly*, over every
//! move interleaving. That ordering yields one-directional implications
//! this module checks on concrete instances:
//!
//! - an **acyclic** dependency graph admits no reachable deadlock at all
//!   (Theorem 1 sufficiency), so any explorer counterexample on an
//!   `expect_acyclic` instance is a violation;
//! - the greedy schedule is one interleaving of the explorer's transition
//!   system, so a greedy deadlock on a workload the explorer *exhaustively*
//!   proved deadlock-free is a violation;
//! - when both find a deadlock on the same workload, the explorer's
//!   BFS-minimal trace can be no longer than the greedy path, whose move
//!   count is the [`progress_measure`](genoc_core::config::Config::progress_measure)
//!   drop from the initial configuration.
//!
//! Two tiers run per instance. The *exhaustive* tier truncates the
//! adversarial pressure workload to a few messages so small instances
//! enumerate completely — a definite verdict is required. The *pressure*
//! tier runs the full pressure workload (worms longer than the buffers) on
//! cyclic comparators hunting for a minimal counterexample; hitting the
//! state bound there is recorded, not judged.

use std::time::{Duration, Instant};

use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::meta::SwitchingKind;
use genoc_explore::{explore_policy, pressure_specs, Exploration, ExploreOptions, Verdict};
use genoc_sim::deadlock_hunt::hunt_workload;
use genoc_switching::Switching;

use crate::instance::Instance;

/// Messages the exhaustive tier keeps from the pressure workload.
const EXHAUSTIVE_MESSAGES: usize = 3;
/// Preferred flits per message in the exhaustive tier (capped at the
/// capacity for whole-packet switching policies).
const EXHAUSTIVE_FLITS: usize = 2;
/// Step limit for the greedy cross-hunt.
const HUNT_MAX_STEPS: u64 = 100_000;

/// The state bounds of [`explore_check`]. The defaults are sized for
/// smoke-scale instances (up to nine nodes / eight-node rings): the
/// exhaustive tier is required to finish within its bound there.
#[derive(Clone, Copy, Debug)]
pub struct ExploreCheckOptions {
    /// State bound of the exhaustive tier — exceeding it is a violation.
    pub max_states: usize,
    /// State bound of the pressure tier — exceeding it is merely recorded.
    pub pressure_states: usize,
}

impl Default for ExploreCheckOptions {
    fn default() -> Self {
        ExploreCheckOptions {
            max_states: 200_000,
            pressure_states: 150_000,
        }
    }
}

/// What one explorer tier did.
#[derive(Clone, Debug)]
pub struct TierOutcome {
    /// Tier name: `"exhaustive"`, `"exhaustive-por"`, `"exhaustive-par"`,
    /// or `"pressure"`.
    pub tier: &'static str,
    /// Messages in the workload.
    pub messages: usize,
    /// Flits per message.
    pub flits: usize,
    /// Verdict label (`no-deadlock`, `deadlock`, `bound`).
    pub verdict: String,
    /// Canonical states discovered.
    pub states: usize,
    /// Transitions traversed.
    pub transitions: u64,
    /// Largest BFS depth expanded.
    pub depth: usize,
    /// Symmetry group size used.
    pub group_size: usize,
    /// Enabled moves summed over expanded states before any ample-set
    /// reduction; compare with `transitions` for the branching reduction.
    pub enabled_moves: u64,
    /// Length of the minimal counterexample trace, when one was found.
    pub trace_len: Option<usize>,
    /// Wall-clock milliseconds this tier took.
    pub millis: u64,
}

impl TierOutcome {
    fn of(
        tier: &'static str,
        messages: usize,
        flits: usize,
        result: &Exploration,
        elapsed: Duration,
    ) -> TierOutcome {
        TierOutcome {
            tier,
            messages,
            flits,
            verdict: result.verdict.label().to_string(),
            states: result.states,
            transitions: result.transitions,
            depth: result.depth,
            group_size: result.group_size,
            enabled_moves: result.enabled_moves,
            trace_len: result.counterexample().map(|c| c.trace.len()),
            millis: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// One-line summary, the form campaign reports record.
    pub fn summary(&self) -> String {
        format!(
            "{}: verdict={} states={} transitions={} enabled={} depth={} group={} \
             messages={}x{}f ms={}{}",
            self.tier,
            self.verdict,
            self.states,
            self.transitions,
            self.enabled_moves,
            self.depth,
            self.group_size,
            self.messages,
            self.flits,
            self.millis,
            match self.trace_len {
                Some(n) => format!(" trace={n}"),
                None => String::new(),
            }
        )
    }
}

/// Report of one explorer cross-validation.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Instance name.
    pub name: String,
    /// Whether the dependency graph was expected acyclic.
    pub expect_acyclic: bool,
    /// The tiers that ran, in order.
    pub tiers: Vec<TierOutcome>,
    /// Whether any tier produced a replayable minimal counterexample.
    pub counterexample_found: bool,
    /// Cross-validation failures; empty when the check holds.
    pub violations: Vec<String>,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
}

impl ExploreReport {
    /// Whether every cross-validation held.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total canonical states discovered across tiers.
    pub fn states_explored(&self) -> u64 {
        self.tiers.iter().map(|t| t.states as u64).sum()
    }
}

/// Runs the explorer tiers on one instance under one switching policy and
/// cross-validates the verdicts against the static expectation and the
/// greedy schedule.
///
/// # Errors
///
/// Propagates route-computation and interpreter errors — harness bugs, not
/// verdicts.
pub fn explore_check(
    instance: &Instance,
    switching: SwitchingKind,
    options: &ExploreCheckOptions,
) -> Result<ExploreReport> {
    let start = Instant::now();
    let net = instance.net.as_ref();
    let routing = instance.routing.as_ref();
    let mut tiers = Vec::new();
    let mut violations = Vec::new();
    let mut counterexample_found = false;

    let cap_flits = |preferred| switching.workload_flits(preferred, instance.meta.capacity);

    // Exhaustive tier: few messages, complete enumeration required.
    let flits = cap_flits(EXHAUSTIVE_FLITS);
    let mut specs = pressure_specs(&instance.meta, flits);
    specs.truncate(EXHAUSTIVE_MESSAGES);
    let mut policy = Switching::new(switching);
    let tick = Instant::now();
    let exhaustive = explore_policy(
        net,
        routing,
        &instance.meta,
        &specs,
        &policy,
        &ExploreOptions {
            max_states: options.max_states,
            ..ExploreOptions::default()
        },
    )?;
    tiers.push(TierOutcome::of(
        "exhaustive",
        specs.len(),
        flits,
        &exhaustive,
        tick.elapsed(),
    ));
    match &exhaustive.verdict {
        Verdict::BoundExceeded => violations.push(format!(
            "exhaustive tier must enumerate completely but exceeded {} states",
            options.max_states
        )),
        Verdict::Deadlock(cex) => {
            counterexample_found = true;
            if instance.expect_acyclic {
                violations.push(format!(
                    "reachable deadlock (trace length {}) on an instance whose dependency \
                     graph is acyclic — Theorem 1 sufficiency refuted",
                    cex.trace.len()
                ));
            }
            if cex.trace.len() != exhaustive.depth {
                violations.push(format!(
                    "counterexample trace length {} disagrees with its BFS depth {}",
                    cex.trace.len(),
                    exhaustive.depth
                ));
            }
        }
        Verdict::NoReachableDeadlock => {}
    }

    // POR / parallel cross-check: the reduced (sequential) and sharded
    // (parallel) searches must reproduce the full sequential verdict exactly
    // — same verdict label, same minimal depth, same counterexample length.
    // The reduction proof (see genoc_explore::por) says they must; this
    // checks that they do.
    if !matches!(exhaustive.verdict, Verdict::BoundExceeded) {
        let variants: [(&'static str, ExploreOptions); 2] = [
            (
                "exhaustive-por",
                ExploreOptions {
                    max_states: options.max_states,
                    por: true,
                    ..ExploreOptions::default()
                },
            ),
            (
                "exhaustive-par",
                ExploreOptions {
                    max_states: options.max_states,
                    por: true,
                    jobs: 2,
                    shards: 3,
                    ..ExploreOptions::default()
                },
            ),
        ];
        for (tier, explore_options) in variants {
            let tick = Instant::now();
            let reduced = explore_policy(
                net,
                routing,
                &instance.meta,
                &specs,
                &policy,
                &explore_options,
            )?;
            let outcome = TierOutcome::of(tier, specs.len(), flits, &reduced, tick.elapsed());
            if outcome.verdict != exhaustive.verdict.label() {
                violations.push(format!(
                    "{tier} verdict {} disagrees with the full sequential verdict {}",
                    outcome.verdict,
                    exhaustive.verdict.label()
                ));
            }
            if let (Some(cex), Some(full)) = (reduced.counterexample(), exhaustive.counterexample())
            {
                if cex.trace.len() != full.trace.len() {
                    violations.push(format!(
                        "{tier} counterexample length {} differs from the full search's {}",
                        cex.trace.len(),
                        full.trace.len()
                    ));
                }
            }
            if matches!(reduced.verdict, Verdict::Deadlock(_)) && reduced.depth != exhaustive.depth
            {
                violations.push(format!(
                    "{tier} found its deadlock at depth {} but the full search found depth {}",
                    reduced.depth, exhaustive.depth
                ));
            }
            if reduced.states > exhaustive.states {
                violations.push(format!(
                    "{tier} stored {} states, more than the full search's {}",
                    reduced.states, exhaustive.states
                ));
            }
            tiers.push(outcome);
        }
    }

    // Greedy cross-hunt on the same workload: the kernel's schedule is one
    // interleaving of the explored transition system.
    let greedy = hunt_workload(net, routing, &mut policy, &specs, 0, HUNT_MAX_STEPS)?;
    match (&exhaustive.verdict, &greedy) {
        (Verdict::NoReachableDeadlock, Some(hunt)) => violations.push(format!(
            "greedy schedule deadlocked after {} steps a workload the explorer proved \
             deadlock-free over all interleavings",
            hunt.steps
        )),
        (Verdict::Deadlock(cex), Some(hunt)) => {
            let initial = Config::from_specs(net, routing, &specs)?;
            let greedy_moves = initial.progress_measure() - hunt.config.progress_measure();
            if cex.trace.len() as u64 > greedy_moves {
                violations.push(format!(
                    "minimal trace ({} moves) is longer than the greedy path to a deadlock \
                     ({greedy_moves} moves)",
                    cex.trace.len()
                ));
            }
        }
        _ => {}
    }

    // Pressure tier: full adversarial workload with worms longer than the
    // buffers, on cyclic comparators only. BFS finds shallow deadlocks long
    // before exhaustion; hitting the bound is recorded, not judged. It runs
    // sequentially under partial-order reduction, which puts the ~10⁶-state
    // capacity-2 cells a full search cannot finish within reach.
    if !instance.expect_acyclic {
        let flits = cap_flits(2 * instance.meta.capacity as usize);
        let specs = pressure_specs(&instance.meta, flits);
        let tick = Instant::now();
        let pressure = explore_policy(
            net,
            routing,
            &instance.meta,
            &specs,
            &policy,
            &ExploreOptions {
                max_states: options.pressure_states,
                por: true,
                ..ExploreOptions::default()
            },
        )?;
        tiers.push(TierOutcome::of(
            "pressure",
            specs.len(),
            flits,
            &pressure,
            tick.elapsed(),
        ));
        if let Some(cex) = pressure.counterexample() {
            counterexample_found = true;
            if cex.trace.len() != pressure.depth {
                violations.push(format!(
                    "pressure counterexample trace length {} disagrees with its BFS depth {}",
                    cex.trace.len(),
                    pressure.depth
                ));
            }
        }
    }

    Ok(ExploreReport {
        name: instance.name.clone(),
        expect_acyclic: instance.expect_acyclic,
        tiers,
        counterexample_found,
        violations,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_instance_gets_an_exhaustive_proof() {
        let instance = Instance::mesh_xy(2, 2, 1);
        let report =
            explore_check(&instance, SwitchingKind::Wormhole, &Default::default()).unwrap();
        assert!(report.holds(), "{:?}", report.violations);
        assert_eq!(
            report.tiers.len(),
            3,
            "acyclic: exhaustive tier plus its two cross-checks"
        );
        assert_eq!(report.tiers[0].verdict, "no-deadlock");
        assert!(!report.counterexample_found);
        assert!(report.states_explored() > 0);
    }

    #[test]
    fn por_cross_check_records_reduced_and_full_counts() {
        let instance = Instance::ring_shortest(4, 1);
        let report =
            explore_check(&instance, SwitchingKind::Wormhole, &Default::default()).unwrap();
        assert!(report.holds(), "{:?}", report.violations);
        let full = report
            .tiers
            .iter()
            .find(|t| t.tier == "exhaustive")
            .unwrap();
        let por = report
            .tiers
            .iter()
            .find(|t| t.tier == "exhaustive-por")
            .unwrap();
        let par = report
            .tiers
            .iter()
            .find(|t| t.tier == "exhaustive-par")
            .unwrap();
        for reduced in [por, par] {
            assert_eq!(reduced.verdict, full.verdict);
            assert_eq!(reduced.trace_len, full.trace_len);
            assert!(reduced.states <= full.states);
        }
        assert!(full.summary().contains("enabled="), "{}", full.summary());
        assert!(full.summary().contains("ms="), "{}", full.summary());
    }

    #[test]
    fn cyclic_ring_yields_a_minimal_counterexample() {
        let instance = Instance::ring_shortest(4, 1);
        let report =
            explore_check(&instance, SwitchingKind::Wormhole, &Default::default()).unwrap();
        assert!(report.holds(), "{:?}", report.violations);
        assert!(report.counterexample_found, "{:?}", report.tiers);
        let pressure = report.tiers.iter().find(|t| t.tier == "pressure").unwrap();
        assert_eq!(pressure.verdict, "deadlock");
        assert!(pressure.trace_len.is_some());
        assert!(pressure.summary().contains("verdict=deadlock"));
    }

    #[test]
    fn whole_packet_policies_cap_the_worm_length() {
        let instance = Instance::ring_shortest(4, 1);
        let report = explore_check(
            &instance,
            SwitchingKind::VirtualCutThrough,
            &Default::default(),
        )
        .unwrap();
        assert!(report.holds(), "{:?}", report.violations);
        for tier in &report.tiers {
            assert_eq!(tier.flits, 1, "capacity-1 VCT admits single-flit packets");
        }
    }
}
