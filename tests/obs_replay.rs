//! The replay equivalence contract, differentially: on **every**
//! smoke-matrix scenario, record a run through the WAL observer, then check
//! that `replay_to(events, n)` reconstructs *exactly* the configuration a
//! fresh rerun capped at `n` steps produces — same travel routes and flit
//! positions (hence the same kernel classification) and the same wait-for
//! structure — at the start, the middle, and the end of the run.
//!
//! Plus the deadlock path: the corner storm on the mixed 2×2 mesh is
//! recorded under an [`ObservedEngine`]; the log must carry the detector's
//! firing, and the replayed final state must contain a wait-for cycle
//! re-derivable from the reconstructed configuration alone.

use std::rc::Rc;

use genoc::campaign::{scenario_seed, ScenarioMatrix, ScenarioSpec};
use genoc::obs::{read_wal_bytes, ObservedEngine, Recorder, WalEvent, WalMeta};
use genoc::prelude::*;
use genoc::verif::Instance;

fn policy_for(kind: SwitchingKind) -> Box<dyn SwitchingPolicy> {
    match kind {
        SwitchingKind::Wormhole => Box::new(WormholePolicy::default()),
        SwitchingKind::VirtualCutThrough => Box::new(VirtualCutThroughPolicy::new()),
        SwitchingKind::StoreForward => Box::new(StoreForwardPolicy::new()),
    }
}

/// Records one run of `cfg` into an in-memory WAL, returning the decoded
/// events and the recorded step count.
fn record(
    instance: &Instance,
    spec: &ScenarioSpec,
    cfg: Config,
    seed: u64,
    max_steps: u64,
) -> (Vec<WalEvent>, u64) {
    let wal = genoc::obs::shared(WalWriter::in_memory());
    let mut recorder = Recorder::with_wal(
        Rc::clone(&wal),
        seed,
        Some(WalMeta {
            meta: spec.meta,
            switching: spec.switching,
        }),
    );
    let mut policy = policy_for(spec.switching);
    let result = simulate_observed_config(
        instance.net.as_ref(),
        policy.as_mut(),
        cfg,
        &SimOptions {
            max_steps,
            stepper: Stepper::Arena,
            ..SimOptions::default()
        },
        &mut NullHook,
        &mut recorder,
    )
    .expect("recorded run");
    drop(recorder);
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    let bytes = writer.finish().expect("flush").expect("in-memory bytes");
    let log = read_wal_bytes(&bytes);
    assert!(log.damage.is_none(), "fresh log damaged: {:?}", log.damage);
    (log.events, result.run.steps)
}

/// Runs the same configuration fresh, capped at `n` steps, on the legacy
/// interpreter. The recorder observed the arena, so replay ≡ rerun crosses
/// the two steppers as well.
fn rerun_to(instance: &Instance, spec: &ScenarioSpec, cfg: Config, n: u64) -> Config {
    let mut policy = policy_for(spec.switching);
    let result = run_policy(
        instance.net.as_ref(),
        policy.as_mut(),
        cfg,
        &RunOptions {
            max_steps: n,
            ..RunOptions::default()
        },
        Stepper::Legacy,
    )
    .expect("rerun");
    result.config
}

/// The scenario's seeded workload configuration, exactly as the campaign's
/// metrics probe builds it.
fn workload_config(instance: &Instance, spec: &ScenarioSpec, seed: u64) -> Config {
    let nodes = instance.net.node_count();
    let flits = spec.workload_flits(4);
    let specs = genoc::sim::workload::uniform_random(nodes.max(2), nodes * 2, 1..=flits, seed);
    if instance.deterministic {
        Config::from_specs(instance.net.as_ref(), instance.routing.as_ref(), &specs)
            .expect("routable workload")
    } else {
        config_with_selected_routes(
            instance.net.as_ref(),
            instance.routing.as_ref(),
            &specs,
            seed,
        )
        .expect("selectable workload")
    }
}

fn assert_replay_matches(replayed: &Config, rerun: &Config, what: &str) {
    assert_eq!(
        replayed, rerun,
        "{what}: replayed configuration diverges from the rerun"
    );
    // Config equality already pins routes and flit positions; re-deriving
    // the wait-for structure from both sides makes the contract explicit.
    let a = block_events(replayed);
    let b = block_events(rerun);
    assert_eq!(a.len(), b.len(), "{what}: wait-for edge count diverges");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.msg, x.wants), (y.msg, y.wants), "{what}: edge diverges");
    }
}

#[test]
fn every_smoke_scenario_replays_identically_to_a_rerun() {
    let scenarios = ScenarioMatrix::smoke().expand();
    assert!(scenarios.len() >= 20, "smoke matrix shrank unexpectedly");
    for spec in &scenarios {
        let name = spec.name();
        let seed = scenario_seed(11, &name);
        let instance = Instance::from_meta(&spec.meta).expect("smoke scenarios construct");
        let cfg = workload_config(&instance, spec, seed);
        let (events, steps) = record(&instance, spec, cfg.clone(), seed, 2_000);

        let mut checkpoints = vec![0, steps / 2, steps];
        checkpoints.dedup();
        for n in checkpoints {
            let replayed = genoc::obs::replay_to(instance.net.as_ref(), &events, n)
                .unwrap_or_else(|e| panic!("{name}: replay to {n} failed: {e}"));
            let rerun = rerun_to(&instance, spec, cfg.clone(), n);
            assert_replay_matches(&replayed, &rerun, &format!("{name} @ step {n}/{steps}"));
        }
    }
}

#[test]
fn recorded_deadlock_replays_to_a_detector_confirmed_cycle() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    let cfg = Config::from_specs(&mesh, &routing, &specs).expect("routable storm");

    let wal = genoc::obs::shared(WalWriter::in_memory());
    let mut recorder = Recorder::with_wal(Rc::clone(&wal), 0, None);
    let mut hook = ObservedEngine::new(
        DetectionEngine::detector(EngineOptions {
            heuristic_threshold: None,
            ..EngineOptions::default()
        }),
        Some(Rc::clone(&wal)),
    );
    let result = simulate_observed_config(
        &mesh,
        &mut WormholePolicy::default(),
        cfg,
        &SimOptions::default(),
        &mut hook,
        &mut recorder,
    )
    .expect("storm run");
    assert_eq!(result.run.outcome, Outcome::Deadlock, "the storm deadlocks");
    let detected_at = hook.first_detection_step().expect("detector fired");

    drop(recorder);
    drop(hook);
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    let bytes = writer.finish().expect("flush").expect("in-memory bytes");
    let log = read_wal_bytes(&bytes);
    assert!(log.damage.is_none());

    // The log carries the firing, at the step the engine reported.
    let logged = log
        .events
        .iter()
        .find_map(|e| match e {
            WalEvent::Detection { step, msgs, .. } => Some((*step, msgs.clone())),
            _ => None,
        })
        .expect("Detection record in the WAL");
    assert_eq!(logged.0, detected_at);
    assert!(!logged.1.is_empty(), "detection names the cycle members");

    // The footer agrees, and the replayed final state proves the deadlock
    // on its own: a wait-for cycle re-derived from the configuration.
    let (outcome, steps) = genoc::obs::recorded_outcome(&log.events).expect("clean footer");
    assert_eq!(outcome, Outcome::Deadlock);
    let replayed = genoc::obs::replay_to(&mesh, &log.events, steps).expect("replay to the end");
    let cycle = find_wait_cycle(&replayed).expect("replayed state contains the cycle");
    for m in &logged.1 {
        assert!(
            cycle.msgs.contains(m),
            "detector member {m} missing from the replayed cycle"
        );
    }
    assert_eq!(replayed, result.run.config, "final state replays exactly");
}
