//! Running one scenario: the full verification battery on one
//! (instance, switching policy) pair, with deterministic per-scenario seeds.
//!
//! Each scenario discharges the proof obligations, exercises Theorem 1
//! (wormhole scenarios — the deadlock theorem is stated for `Swh`),
//! checks Theorem 2 / evacuation under the scenario's own switching policy,
//! runs a bounded deadlock hunt, and cross-checks the online detectors
//! against the static theory. The evacuation workload runs once: that one
//! observed run is judged for Theorem 2 and supplies the scenario's
//! throughput, metrics and (optionally) WAL. Every randomised ingredient
//! derives its seed from the campaign seed and the scenario name (FNV-1a),
//! so a campaign is reproducible at any shard count: scheduling changes
//! *where* a scenario runs, never *what* it computes.

use std::path::Path;
use std::time::Instant;

use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::interpreter::Outcome;
use genoc_core::meta::SwitchingKind;
use genoc_core::spec::MessageSpec;
use genoc_detect::engine::{DetectionEngine, EngineOptions};
use genoc_obs::{shared, ObservedEngine, Recorder, RecorderOptions, WalMeta, WalWriter};
use genoc_sim::deadlock_hunt::{hunt_random, HuntOptions};
use genoc_sim::{DetectorHook, SimOptions, SimResult};
use genoc_switching::Switching;
use genoc_verif::{check_c1, check_c2, check_c3, check_c4, check_c5_with};
use genoc_verif::{check_detection, check_theorem1, DetectionCheckOptions};
use genoc_verif::{explore_check, ExploreCheckOptions};
use genoc_verif::{Instance, Theorem2Report};

use crate::matrix::ScenarioSpec;

/// How hard each scenario works; the knob campaign presets turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffortProfile {
    /// Messages per node in the Theorem 2 workload.
    pub messages_per_node: usize,
    /// Preferred packet length (capped at capacity for whole-packet
    /// switching policies).
    pub max_flits: usize,
    /// Random workloads the deadlock hunt tries.
    pub hunt_attempts: u64,
    /// Messages per hunted workload.
    pub hunt_messages: usize,
    /// Step limit per simulated run.
    pub max_steps: u64,
    /// Seeds the detection cross-check sweeps (0 disables the check).
    pub detect_seeds: u64,
    /// State bound for the exhaustive-exploration oracle
    /// ([`genoc_verif::explore_check()`]); 0 disables the check. Only the
    /// `oracle` preset turns this on — the exploration is exponential in the
    /// workload and belongs in its own dedicated campaign.
    pub explore_states: usize,
    /// State bound for the oracle's *pressure* tier (full adversarial
    /// workload under partial-order reduction); read only when
    /// `explore_states` is on. The oracle preset sets it high enough that the
    /// capacity-2 deadlock cells reach their minimal counterexamples
    /// exhaustively.
    pub explore_pressure_states: usize,
}

impl EffortProfile {
    /// CI-sized effort: small workloads, few hunts.
    pub fn quick() -> EffortProfile {
        EffortProfile {
            messages_per_node: 2,
            max_flits: 3,
            hunt_attempts: 4,
            hunt_messages: 12,
            max_steps: 50_000,
            detect_seeds: 2,
            explore_states: 0,
            explore_pressure_states: 0,
        }
    }

    /// Default effort: heavy enough that cyclic instances regularly
    /// deadlock live across a campaign.
    pub fn standard() -> EffortProfile {
        EffortProfile {
            messages_per_node: 4,
            max_flits: 6,
            hunt_attempts: 16,
            hunt_messages: 32,
            max_steps: 100_000,
            detect_seeds: 6,
            explore_states: 0,
            explore_pressure_states: 0,
        }
    }

    /// Effort for the `large` matrix: thousands of messages per evacuation
    /// run (the workloads the run-queue stepper exists for), with the
    /// randomized sweeps trimmed — on a 32×32 mesh one heavy run says more
    /// than sixteen light ones.
    pub fn large() -> EffortProfile {
        EffortProfile {
            messages_per_node: 4,
            max_flits: 4,
            hunt_attempts: 2,
            hunt_messages: 256,
            max_steps: 200_000,
            detect_seeds: 1,
            explore_states: 0,
            explore_pressure_states: 0,
        }
    }

    /// Effort for the `oracle` matrix: quick randomized sweeps plus the
    /// exhaustive state-space oracle on every cell. The 200k state bound is
    /// sized so the heaviest smoke-scale exhaustive tier (3-message pressure
    /// on the 3×3 mesh, ~111k states) completes with headroom. The pressure
    /// tier runs under partial-order reduction with a raised bound, putting
    /// the capacity-2 deadlock cells — whose full interleaving space is on
    /// the order of 10⁶ states — within exhaustive reach.
    pub fn oracle() -> EffortProfile {
        EffortProfile {
            explore_states: 200_000,
            explore_pressure_states: 600_000,
            ..EffortProfile::quick()
        }
    }
}

/// Throughput of a scenario's main evacuation run.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioThroughput {
    /// Switching steps until the run terminated.
    pub steps: u64,
    /// Flits delivered into destination IP cores.
    pub delivered_flits: u64,
    /// Wall-clock milliseconds of the run.
    pub run_ms: f64,
    /// Delivered flits per wall-clock second of the run.
    pub flits_per_sec: f64,
}

/// Per-scenario observability sample: counters the observers of the
/// Theorem 2 run collected (see `genoc-obs`), surfaced in campaign.json and
/// the Prometheus snapshot beside that run's [`ScenarioThroughput`], which
/// supplies their steps and flits per second.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioMetrics {
    /// Peak number of simultaneously blocked travels (wait-for edges alive
    /// at once).
    pub blocked_peak: u64,
    /// Step of the first exact-detector firing (wormhole runs only;
    /// `None` when no deadlock formed).
    pub detector_first_step: Option<u64>,
    /// Heuristic-vs-exact detection latency in steps, when both fired.
    pub detection_latency: Option<u64>,
    /// Bytes written to the scenario's WAL (0 without `--wal-dir`).
    pub wal_bytes: u64,
    /// Records written to the scenario's WAL (0 without `--wal-dir`).
    pub wal_records: u64,
}

/// Verdict of one check within a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckStatus {
    /// The check ran and its expectation held.
    Pass,
    /// The check ran and found a violation.
    Fail,
    /// The check does not apply to this scenario (e.g. Theorem 1 off
    /// wormhole switching).
    Skip,
}

impl CheckStatus {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CheckStatus::Pass => "pass",
            CheckStatus::Fail => "fail",
            CheckStatus::Skip => "skip",
        }
    }
}

/// One check's outcome within a scenario.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Check name, e.g. `"obligation-c3"` or `"theorem2"`.
    pub check: &'static str,
    /// Verdict.
    pub status: CheckStatus,
    /// Cases the underlying decision procedure discharged (0 when the
    /// notion does not apply).
    pub cases: u64,
    /// Wall-clock milliseconds spent.
    pub millis: f64,
    /// Findings and context; failure reasons live here.
    pub notes: Vec<String>,
}

impl CheckOutcome {
    fn skip(check: &'static str, why: impl Into<String>) -> CheckOutcome {
        CheckOutcome {
            check,
            status: CheckStatus::Skip,
            cases: 0,
            millis: 0.0,
            notes: vec![why.into()],
        }
    }
}

/// Everything one scenario produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name (`"mesh-3x3/xy@c1+wormhole"`).
    pub name: String,
    /// The spec that produced it.
    pub spec: ScenarioSpec,
    /// The derived per-scenario seed.
    pub seed: u64,
    /// Whether the dependency graph was expected acyclic.
    pub expect_acyclic: bool,
    /// Whether the routing function is deterministic.
    pub deterministic: bool,
    /// Deadlocks observed live across all checks (hunts, evacuation runs).
    pub deadlocks_seen: u64,
    /// The individual checks, in battery order.
    pub checks: Vec<CheckOutcome>,
    /// Throughput of the Theorem 2 evacuation run (`None` only when the
    /// scenario failed before running it).
    pub throughput: Option<ScenarioThroughput>,
    /// Observability counters from the Theorem 2 run (`None` exactly when
    /// [`throughput`](Self::throughput) is).
    pub metrics: Option<ScenarioMetrics>,
    /// Wall-clock milliseconds for the whole scenario.
    pub elapsed_ms: f64,
}

impl ScenarioOutcome {
    /// Whether no check failed (skips do not count against a scenario).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.status != CheckStatus::Fail)
    }

    /// The failed checks.
    pub fn failures(&self) -> impl Iterator<Item = &CheckOutcome> {
        self.checks.iter().filter(|c| c.status == CheckStatus::Fail)
    }
}

/// FNV-1a over the scenario name, folded with the campaign seed — cheap,
/// stable across platforms, and collision-free in practice for the few
/// thousand names a matrix emits.
///
/// The top byte is cleared: consumers hand the seed to consecutive-seed
/// sweeps (`seed..seed + n`, hunt seeds `seed + attempt`), which must not
/// wrap or overflow near `u64::MAX`.
pub fn scenario_seed(campaign_seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ campaign_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 8
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the full battery on one scenario (no WAL capture; see
/// [`run_scenario_with`]).
pub fn run_scenario(
    spec: &ScenarioSpec,
    campaign_seed: u64,
    effort: &EffortProfile,
) -> ScenarioOutcome {
    run_scenario_with(spec, campaign_seed, effort, None)
}

/// Runs the full battery on one scenario. The Theorem 2 run is observed and
/// fills [`ScenarioMetrics`]; with `wal_dir` it also streams its full event
/// log to `<wal_dir>/<scenario>.wal` for offline replay, and a log that
/// cannot be written fails the `theorem2` check.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    campaign_seed: u64,
    effort: &EffortProfile,
    wal_dir: Option<&Path>,
) -> ScenarioOutcome {
    let start = Instant::now();
    let name = spec.name();
    let seed = scenario_seed(campaign_seed, &name);
    let mut checks = Vec::new();
    let mut deadlocks_seen = 0u64;

    let instance = match Instance::from_meta(&spec.meta) {
        Ok(instance) => instance,
        Err(e) => {
            checks.push(CheckOutcome {
                check: "construct",
                status: CheckStatus::Fail,
                cases: 0,
                millis: 0.0,
                notes: vec![e],
            });
            return ScenarioOutcome {
                name,
                spec: *spec,
                seed,
                expect_acyclic: false,
                deterministic: spec.meta.routing.is_deterministic(),
                deadlocks_seen,
                checks,
                throughput: None,
                metrics: None,
                elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
            };
        }
    };
    let expect_acyclic = instance.expect_acyclic;
    let deterministic = instance.deterministic;
    let flits = spec.workload_flits(effort.max_flits);

    // Registry invariants.
    let (wf, millis) = timed(|| instance.well_formed());
    checks.push(CheckOutcome {
        check: "well-formed",
        status: if wf.is_ok() {
            CheckStatus::Pass
        } else {
            CheckStatus::Fail
        },
        cases: 1,
        millis,
        notes: wf.err().into_iter().collect(),
    });

    // Obligations (C-1), (C-2), (C-4) hold on every instance; (C-3) holds
    // exactly when the dependency graph is expected acyclic; (C-5) runs
    // under the scenario's own switching policy.
    for (check, report, expect_hold) in [
        ("obligation-c1", check_c1(&instance), true),
        ("obligation-c2", check_c2(&instance), true),
        ("obligation-c3", check_c3(&instance), expect_acyclic),
        ("obligation-c4", check_c4(&instance), true),
        (
            "obligation-c5",
            check_c5_with(&instance, &mut Switching::new(spec.switching), flits),
            true,
        ),
    ] {
        let held = report.holds();
        let mut notes = report.violations.clone();
        if held != expect_hold {
            notes.push(if expect_hold {
                format!("{} expected to hold", report.id)
            } else {
                format!(
                    "{} expected to fail (cyclic comparator) but held",
                    report.id
                )
            });
        } else if !expect_hold {
            notes = vec![format!(
                "cyclic as expected ({} violation lines)",
                report.violations.len()
            )];
        }
        checks.push(CheckOutcome {
            check,
            status: if held == expect_hold {
                CheckStatus::Pass
            } else {
                CheckStatus::Fail
            },
            cases: report.cases,
            millis: report.elapsed.as_secs_f64() * 1e3,
            notes,
        });
    }

    // Theorem 1: stated for wormhole switching; both constructive
    // directions on cyclic instances, bounded corroboration on acyclic.
    if spec.switching == SwitchingKind::Wormhole {
        let hunt = HuntOptions {
            attempts: effort.hunt_attempts,
            first_seed: seed,
            messages: effort.hunt_messages,
            flits: effort.max_flits,
            max_steps: effort.max_steps,
        };
        let (result, millis) = timed(|| check_theorem1(&instance, &hunt));
        let judged = result.map(|report| {
            if report.live_deadlock_found == Some(true) {
                deadlocks_seen += 1;
            }
            let consistent = report.cyclic() != expect_acyclic;
            let mut notes = report.notes.clone();
            if !consistent {
                notes.push(format!(
                    "graph cyclicity {} contradicts expectation",
                    report.cyclic()
                ));
            }
            (report.holds() && consistent, hunt.attempts, notes)
        });
        checks.push(recorded("theorem1", millis, judged));
    } else {
        checks.push(CheckOutcome::skip(
            "theorem1",
            "deadlock theorem is stated for wormhole switching",
        ));
    }

    // Theorem 2 / evacuation under the scenario's switching policy, on the
    // cell's one observed run of its evacuation workload.
    let wal = wal_dir.map(|dir| dir.join(wal_file_name(&name)));
    let (evacuation, run) = theorem2(
        &instance,
        spec,
        seed,
        effort,
        flits,
        wal.as_deref(),
        &mut deadlocks_seen,
    );
    checks.push(evacuation);
    let (throughput, metrics) = run.unzip();

    // Bounded deadlock hunt under the scenario's switching policy.
    if deterministic {
        let hunt = HuntOptions {
            attempts: effort.hunt_attempts,
            first_seed: seed ^ 0x5eed,
            messages: effort.hunt_messages,
            flits,
            max_steps: effort.max_steps,
        };
        let mut policy = Switching::new(spec.switching);
        let (found, millis) = timed(|| {
            hunt_random(
                instance.net.as_ref(),
                instance.routing.as_ref(),
                &mut policy,
                &hunt,
            )
        });
        let judged = found.map(|found| {
            let mut notes = Vec::new();
            if let Some(h) = &found {
                deadlocks_seen += 1;
                notes.push(format!(
                    "deadlock at seed {} after {} steps ({} blocked ports in witness)",
                    h.seed,
                    h.steps,
                    h.witness.as_ref().map_or(0, |w| w.ports.len())
                ));
            }
            // A deadlock under wormhole switching on an acyclic graph
            // refutes Theorem 1; stricter admission policies may block
            // earlier, so off-wormhole finds are recorded, not judged.
            let refuted =
                expect_acyclic && spec.switching == SwitchingKind::Wormhole && found.is_some();
            if refuted {
                notes.push("live deadlock on an acyclic wormhole instance".into());
            }
            (!refuted, hunt.attempts, notes)
        });
        checks.push(recorded("hunt", millis, judged));
    } else {
        checks.push(CheckOutcome::skip(
            "hunt",
            "the hunter executes pre-computed routes (deterministic only)",
        ));
    }

    // Online-detection cross-check (exact detector fires iff Ω, detected
    // cycles lie in the static graph, heuristic is complete).
    if spec.switching == SwitchingKind::Wormhole && deterministic && effort.detect_seeds > 0 {
        let options = DetectionCheckOptions {
            seeds: seed..seed + effort.detect_seeds,
            messages: effort.hunt_messages,
            max_flits: effort.max_flits,
            max_steps: effort.max_steps,
            ..DetectionCheckOptions::default()
        };
        let (result, millis) = timed(|| check_detection(&instance, &options));
        let judged = result.map(|report| {
            deadlocks_seen += report.deadlocked_runs;
            let mut notes = report.violations.clone();
            notes.push(format!(
                "{} runs, {} deadlocked, {} detections",
                report.runs, report.deadlocked_runs, report.detections
            ));
            (report.holds(), report.runs, notes)
        });
        checks.push(recorded("detect", millis, judged));
    } else {
        checks.push(CheckOutcome::skip(
            "detect",
            "cross-check runs deterministic wormhole scenarios only",
        ));
    }

    // Exhaustive state-space oracle: explores *every* move interleaving of
    // small pressure workloads, cross-validating the static verdict and the
    // greedy hunts (see `genoc_verif::explore_check` for the implication
    // lattice). Deterministic instances only — the explorer executes the
    // workload's pre-computed routes.
    if effort.explore_states > 0 && deterministic {
        let options = ExploreCheckOptions {
            max_states: effort.explore_states,
            pressure_states: effort.explore_pressure_states,
        };
        let (result, millis) = timed(|| explore_check(&instance, spec.switching, &options));
        let judged = result.map(|report| {
            deadlocks_seen += u64::from(report.counterexample_found);
            let mut notes: Vec<String> = report.tiers.iter().map(|tier| tier.summary()).collect();
            notes.extend(report.violations.iter().cloned());
            (report.holds(), report.states_explored(), notes)
        });
        checks.push(recorded("oracle", millis, judged));
    } else if effort.explore_states > 0 {
        checks.push(CheckOutcome::skip(
            "oracle",
            "the explorer executes pre-computed routes (deterministic only)",
        ));
    } else {
        checks.push(CheckOutcome::skip(
            "oracle",
            "exhaustive exploration runs in the oracle preset only",
        ));
    }

    ScenarioOutcome {
        name,
        spec: *spec,
        seed,
        expect_acyclic,
        deterministic,
        deadlocks_seen,
        checks,
        throughput,
        metrics,
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// `scenario.name()` as a filesystem-safe WAL file name.
fn wal_file_name(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    s.push_str(".wal");
    s
}

/// Theorem 2 under the scenario's policy, judged on the cell's one run of
/// its evacuation workload. Deterministic instances run the routed
/// configuration; adaptive ones fix one admissible route per message
/// (seeded) and run that selection, as the paper's future-work section
/// suggests. The run is observed: a [`Recorder`] (streaming to `wal` when
/// given) fills [`ScenarioMetrics`], and on wormhole cells a detect-only
/// [`ObservedEngine`] reports the exact detector — its semantics are
/// wormhole-only, so other policies run detector-free. The throughput and
/// the metrics come from this run, or neither does.
fn theorem2(
    instance: &Instance,
    spec: &ScenarioSpec,
    seed: u64,
    effort: &EffortProfile,
    flits: usize,
    wal: Option<&Path>,
    deadlocks_seen: &mut u64,
) -> (CheckOutcome, Option<(ScenarioThroughput, ScenarioMetrics)>) {
    let start = Instant::now();
    let nodes = instance.net.node_count();
    let messages = (nodes * effort.messages_per_node).max(4);
    let specs = genoc_sim::workload::uniform_random(nodes.max(2), messages, 1..=flits, seed);
    // Evacuation is guaranteed only where the obligations discharge: on an
    // acyclic instance under wormhole (the policy the theorems are proved
    // for). Stricter whole-packet admission and cyclic comparators may
    // legitimately deadlock; those runs are recorded, not judged.
    let must_evacuate = instance.expect_acyclic && spec.switching == SwitchingKind::Wormhole;
    let mut run = None;
    let judged = observed_run(instance, spec, seed, effort, &specs, wal).map(|(sim, sim_ms, m)| {
        let report = Theorem2Report::judge(instance, &specs, &sim, sim_ms);
        // A step-limit stop is not a deadlock seen.
        *deadlocks_seen += u64::from(sim.run.outcome == Outcome::Deadlock);
        let throughput = ScenarioThroughput {
            steps: report.steps,
            delivered_flits: report.delivered_flits,
            run_ms: sim_ms,
            flits_per_sec: if sim_ms > 0.0 {
                report.delivered_flits as f64 / (sim_ms / 1e3)
            } else {
                0.0
            },
        };
        run = Some((throughput, m));
        let failed = !report.correct || (must_evacuate && !report.evacuated);
        (!failed, report.messages as u64, report.notes)
    });
    let millis = start.elapsed().as_secs_f64() * 1e3;
    (recorded("theorem2", millis, judged), run)
}

/// The observed, traced run behind [`theorem2`], with its wall clock (the
/// `simulate_config` call alone) and its [`ScenarioMetrics`]. A WAL that
/// cannot be created or written is an error naming the file.
fn observed_run(
    instance: &Instance,
    spec: &ScenarioSpec,
    seed: u64,
    effort: &EffortProfile,
    specs: &[MessageSpec],
    wal_path: Option<&Path>,
) -> Result<(SimResult, f64, ScenarioMetrics)> {
    let net = instance.net.as_ref();
    let routing = instance.routing.as_ref();
    let cfg = if instance.deterministic {
        Config::from_specs(net, routing, specs)?
    } else {
        genoc_sim::config_with_selected_routes(net, routing, specs, seed)?
    };
    let wal = match wal_path {
        Some(path) => Some(shared(WalWriter::create(path).map_err(|e| {
            Error::Invariant(format!("cannot create WAL {}: {e}", path.display()))
        })?)),
        None => None,
    };
    let mut recorder = Recorder::build(
        wal.clone(),
        seed,
        Some(WalMeta {
            meta: spec.meta,
            switching: spec.switching,
        }),
        RecorderOptions::default(),
    );
    let mut hook = (spec.switching == SwitchingKind::Wormhole)
        .then(|| ObservedEngine::new(DetectionEngine::detector(EngineOptions::default()), wal));
    let mut policy = Switching::new(spec.switching);
    let options = SimOptions {
        max_steps: effort.max_steps,
        record_trace: true,
        ..SimOptions::default()
    };
    let (sim, sim_ms) = timed(|| {
        genoc_sim::simulate_config(
            net,
            &mut policy,
            cfg,
            &options,
            hook.as_mut().map(|h| h as &mut dyn DetectorHook),
            Some(&mut recorder),
        )
    });
    let sim = sim.map_err(|e| match wal_path {
        Some(path) => Error::Invariant(format!("{e} (recording {})", path.display())),
        None => e,
    })?;
    let summary = recorder.summary();
    let metrics = ScenarioMetrics {
        blocked_peak: summary.blocked_peak,
        detector_first_step: hook.as_ref().and_then(ObservedEngine::first_detection_step),
        detection_latency: hook
            .as_ref()
            .and_then(|h| h.engine().stats().detection_latency()),
        wal_bytes: summary.wal_bytes,
        wal_records: summary.wal_records,
    };
    Ok((sim, sim_ms, metrics))
}

/// Records one check: a `(passed, cases, notes)` verdict, or a harness error
/// that fails the check with no cases.
fn recorded(
    check: &'static str,
    millis: f64,
    verdict: Result<(bool, u64, Vec<String>)>,
) -> CheckOutcome {
    let (status, cases, notes) = match verdict {
        Ok((true, cases, notes)) => (CheckStatus::Pass, cases, notes),
        Ok((false, cases, notes)) => (CheckStatus::Fail, cases, notes),
        Err(e) => (CheckStatus::Fail, 0, vec![format!("harness error: {e}")]),
    };
    CheckOutcome {
        check,
        status,
        cases,
        millis,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::meta::{InstanceMeta, RoutingKind};

    fn spec(routing: RoutingKind, w: usize, h: usize, cap: u32, sw: SwitchingKind) -> ScenarioSpec {
        ScenarioSpec {
            meta: InstanceMeta::new(routing, w, h, cap),
            switching: sw,
        }
    }

    #[test]
    fn seeds_are_deterministic_and_name_sensitive() {
        assert_eq!(scenario_seed(7, "a"), scenario_seed(7, "a"));
        assert_ne!(scenario_seed(7, "a"), scenario_seed(7, "b"));
        assert_ne!(scenario_seed(7, "a"), scenario_seed(8, "a"));
    }

    #[test]
    fn seeds_leave_headroom_for_consecutive_sweeps() {
        // Detection sweeps `seed..seed + n` and hunts `seed + attempt`; the
        // seed space is capped so those never overflow.
        for (campaign, name) in [
            (0u64, "a"),
            (u64::MAX, "z"),
            (42, "mesh-3x3/xy@c1+wormhole"),
        ] {
            assert!(scenario_seed(campaign, name) <= u64::MAX >> 8);
        }
    }

    #[test]
    fn xy_wormhole_passes_the_full_battery() {
        let s = spec(RoutingKind::Xy, 3, 3, 1, SwitchingKind::Wormhole);
        let outcome = run_scenario(&s, 0, &EffortProfile::oracle());
        assert!(
            outcome.passed(),
            "{:?}",
            outcome.failures().collect::<Vec<_>>()
        );
        assert_eq!(outcome.deadlocks_seen, 0, "XY is deadlock-free");
        assert!(outcome.checks.iter().all(|c| c.status != CheckStatus::Skip));
        let throughput = outcome.throughput.expect("evacuation ran");
        assert!(throughput.steps > 0);
        assert!(
            throughput.delivered_flits > 0,
            "an evacuated run delivered flits"
        );
        assert!(throughput.flits_per_sec > 0.0);
    }

    #[test]
    fn adaptive_scenarios_report_throughput_too() {
        let s = spec(RoutingKind::WestFirst, 3, 3, 2, SwitchingKind::Wormhole);
        let outcome = run_scenario(&s, 3, &EffortProfile::quick());
        assert!(
            outcome.passed(),
            "{:?}",
            outcome.failures().collect::<Vec<_>>()
        );
        let throughput = outcome.throughput.expect("selection ran");
        assert!(throughput.delivered_flits > 0);
    }

    #[test]
    fn mixed_router_passes_as_a_cyclic_comparator() {
        // The cyclic comparator *passes*: C-3 fails as expected, Theorem 1
        // exercises both constructive directions, deadlocks are found live.
        // Heavy traffic (long worms, many messages) keeps the per-workload
        // deadlock probability high enough for a deterministic assertion.
        let s = spec(RoutingKind::MixedXyYx, 3, 3, 1, SwitchingKind::Wormhole);
        let heavy = EffortProfile {
            max_flits: 8,
            hunt_attempts: 32,
            hunt_messages: 40,
            ..EffortProfile::standard()
        };
        let outcome = run_scenario(&s, 0, &heavy);
        assert!(
            outcome.passed(),
            "{:?}",
            outcome.failures().collect::<Vec<_>>()
        );
        assert!(!outcome.expect_acyclic);
        assert!(outcome.deadlocks_seen > 0, "heavy traffic must deadlock");
    }

    #[test]
    fn oracle_check_finds_the_ring_counterexample_and_quick_skips_it() {
        // Capacity 1 is the cheap cell: whole-packet pressure deadlocks the
        // plain ring within a few thousand explored states.
        let s = spec(RoutingKind::RingShortest, 4, 1, 1, SwitchingKind::Wormhole);
        let outcome = run_scenario(&s, 0, &EffortProfile::oracle());
        assert!(
            outcome.passed(),
            "{:?}",
            outcome.failures().collect::<Vec<_>>()
        );
        let oracle = outcome.checks.iter().find(|c| c.check == "oracle").unwrap();
        assert_eq!(oracle.status, CheckStatus::Pass);
        assert!(oracle.cases > 0, "explored states are the case count");
        assert!(
            oracle.notes.iter().any(|n| n.contains("verdict=deadlock")),
            "the cyclic ring's pressure tier must reach a deadlock: {:?}",
            oracle.notes
        );
        assert!(outcome.deadlocks_seen > 0);

        let quick = run_scenario(&s, 0, &EffortProfile::quick());
        let oracle = quick.checks.iter().find(|c| c.check == "oracle").unwrap();
        assert_eq!(oracle.status, CheckStatus::Skip);
    }

    #[test]
    fn adaptive_and_non_wormhole_scenarios_skip_what_does_not_apply() {
        let adaptive = run_scenario(
            &spec(RoutingKind::WestFirst, 3, 3, 1, SwitchingKind::Wormhole),
            0,
            &EffortProfile::quick(),
        );
        assert!(
            adaptive.passed(),
            "{:?}",
            adaptive.failures().collect::<Vec<_>>()
        );
        let hunt = adaptive.checks.iter().find(|c| c.check == "hunt").unwrap();
        assert_eq!(hunt.status, CheckStatus::Skip);

        let saf = run_scenario(
            &spec(RoutingKind::Xy, 3, 3, 2, SwitchingKind::StoreForward),
            0,
            &EffortProfile::quick(),
        );
        assert!(saf.passed(), "{:?}", saf.failures().collect::<Vec<_>>());
        let t1 = saf.checks.iter().find(|c| c.check == "theorem1").unwrap();
        assert_eq!(t1.status, CheckStatus::Skip);
    }

    #[test]
    fn the_wal_is_the_theorem2_run() {
        use genoc_obs::{read_wal, recorded_outcome, replay_to};

        let dir = std::env::temp_dir().join(format!("genoc-campaign-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let xy = spec(RoutingKind::Xy, 3, 3, 1, SwitchingKind::Wormhole);
        // At campaign seed 23 the mixed corner cell's evacuation run
        // deadlocks (as in the `default` preset).
        let mixed = spec(RoutingKind::MixedXyYx, 2, 2, 1, SwitchingKind::Wormhole);
        for (s, effort, outcome) in [
            (xy, EffortProfile::quick(), Outcome::Evacuated),
            (mixed, EffortProfile::standard(), Outcome::Deadlock),
        ] {
            let cell = run_scenario_with(&s, 23, &effort, Some(&dir));
            assert!(cell.passed(), "{:?}", cell.failures().collect::<Vec<_>>());
            let run = cell.throughput.expect("the evacuation workload ran");
            let metrics = cell.metrics.expect("the run was observed");
            let theorem2 = cell.checks.iter().find(|c| c.check == "theorem2").unwrap();
            let evacuated = outcome == Outcome::Evacuated;
            assert_eq!(theorem2.notes.is_empty(), evacuated, "{:?}", theorem2.notes);

            let log = read_wal(&dir.join(wal_file_name(&cell.name))).unwrap();
            assert_eq!(log.damage, None, "{}", cell.name);
            assert_eq!(recorded_outcome(&log.events), Some((outcome, run.steps)));
            assert_eq!(metrics.wal_records, log.events.len() as u64);
            let instance = Instance::from_meta(&s.meta).unwrap();
            let end = replay_to(instance.net.as_ref(), &log.events, run.steps).unwrap();
            assert_eq!(end.delivered_flits(), run.delivered_flits, "{}", cell.name);
            assert_eq!(end.travels().is_empty(), evacuated, "{}", cell.name);
            assert!(!end.any_move_possible(), "{}", cell.name);
        }

        // A WAL directory below a regular file cannot hold the log: the
        // check that owns the run fails and names the file.
        let file = dir.join("not-a-directory");
        std::fs::write(&file, b"").unwrap();
        let cell = run_scenario_with(&xy, 23, &EffortProfile::quick(), Some(&file.join("wal")));
        let theorem2 = cell.checks.iter().find(|c| c.check == "theorem2").unwrap();
        assert_eq!(theorem2.status, CheckStatus::Fail);
        let path = file.join("wal").join(wal_file_name(&cell.name));
        assert!(
            theorem2
                .notes
                .iter()
                .any(|n| n.contains(&path.display().to_string())),
            "{:?}",
            theorem2.notes
        );
        assert!(cell.throughput.is_none() && cell.metrics.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
