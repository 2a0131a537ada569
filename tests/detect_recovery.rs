//! End-to-end detection and recovery through the facade.
//!
//! The headline scenario of the detect subsystem: workloads that *deadlock*
//! undetected become *survivable* with a recovery policy installed — abort
//! sacrifices one message, the escape channel and serialized drain deliver
//! everything — while on every instance that discharges its obligations the
//! detectors never raise a false alarm.

use genoc::prelude::*;

/// The four-corner turn storm on the mixed XY/YX 2×2 mesh.
fn storm() -> (Mesh, MixedXyYxRouting, Vec<MessageSpec>) {
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    (mesh, routing, specs)
}

#[test]
fn undetected_deadlock_becomes_survivable_with_abort() {
    let (mesh, routing, specs) = storm();

    // Undetected: the run seizes.
    let undetected = simulate(
        &mesh,
        &routing,
        &mut Switching::default(),
        &specs,
        &SimOptions::default(),
    )
    .unwrap();
    assert_eq!(undetected.run.outcome, Outcome::Deadlock);

    // Same workload, same arbitration, with detection + abort recovery: all
    // surviving messages are delivered.
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
    assert!(!summary.aborted.is_empty());
    assert_eq!(
        summary.delivered as usize + summary.aborted.len(),
        specs.len(),
        "every message either arrived or was deliberately aborted"
    );
    // The aborted victims really were cycle members, and the youngest ones.
    for (victim, detection) in summary.aborted.iter().zip(engine.detections()) {
        assert!(detection.cycle.contains(*victim));
        assert_eq!(*victim, *detection.cycle.msgs.iter().max().unwrap());
    }
    // Detection happened no later than the undetected run seized.
    assert!(summary.first_exact_step.unwrap() <= undetected.run.steps);
}

#[test]
fn escape_channel_recovers_the_ring_without_losses() {
    // Shortest-path routing on a two-VC ring keeps to channel 0, so channel
    // 1 is a reserved escape. Saturating one direction deadlocks the plain
    // router; with the escape policy everything is delivered.
    let ring = Ring::with_vcs(6, 2, 1);
    let routing = RingShortestRouting::new(&ring);
    let specs = genoc::sim::workload::ring_offset(6, 2, 4);

    let undetected = simulate(
        &ring,
        &routing,
        &mut Switching::default(),
        &specs,
        &SimOptions::default(),
    )
    .unwrap();
    assert_eq!(undetected.run.outcome, Outcome::Deadlock);

    let policy = EscapeChannel::new(Box::new(RingEscape::new(&ring)));
    let mut engine = DetectionEngine::with_policy(EngineOptions::default(), Box::new(policy));
    let recovered = simulate_config(
        &ring,
        &mut Switching::default(),
        Config::from_specs(&ring, &routing, &specs).unwrap(),
        &SimOptions::default(),
        Some(&mut engine),
        None,
    )
    .unwrap();
    assert_eq!(recovered.run.outcome, Outcome::Evacuated);
    let summary = engine.summary(&recovered);
    assert_eq!(summary.delivered as usize, specs.len(), "nothing lost");
    assert!(
        !summary.rerouted.is_empty(),
        "recovery must have used the escape channel"
    );
}

#[test]
fn drain_all_restart_delivers_everything() {
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
    assert_eq!(summary.delivered as usize, specs.len());
    assert!(summary.restarts >= 1);
    assert!(summary.aborted.is_empty());
    assert!(summary.throughput() > 0.0);
}

#[test]
fn no_false_positives_across_discharging_registry_instances() {
    // Every deterministic instance of the standard suite whose obligations
    // (C-1)…(C-5) discharge must run its whole cross-check batch without a
    // single alarm.
    for instance in Instance::standard_suite() {
        if !instance.deterministic || !instance.expect_acyclic {
            continue;
        }
        assert!(
            check_all(&instance).iter().all(|r| r.holds()),
            "{}: expected the obligations to discharge",
            instance.name
        );
        let report = check_detection(&instance, &DetectionCheckOptions::default()).unwrap();
        assert!(
            report.holds(),
            "{}: {:?}",
            report.instance,
            report.violations
        );
        assert_eq!(report.detections, 0, "{}", instance.name);
        assert_eq!(report.deadlocked_runs, 0, "{}", instance.name);
    }
}

#[test]
fn cross_check_confirms_runtime_cycles_on_cyclic_instances() {
    // On deadlock-prone instances the cross-check still holds (fires iff Ω,
    // runtime cycles lie in the static graph, heuristic complete) and heavy
    // traffic actually trips it.
    let options = DetectionCheckOptions {
        messages: 48,
        max_flits: 8,
        ..DetectionCheckOptions::default()
    };
    let report = check_detection(&Instance::mesh_mixed(3, 3, 1), &options).unwrap();
    assert!(report.holds(), "{:?}", report.violations);
    assert!(report.deadlocked_runs > 0);

    let report = check_detection(&Instance::ring_shortest(6, 1), &options).unwrap();
    assert!(report.holds(), "{:?}", report.violations);
}

#[test]
fn hunt_witness_is_a_dependency_graph_cycle() {
    // The hunter's structured witness ties into the same cross-check: the
    // blocked-port cycle of a hunted deadlock lies in the dependency graph.
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    let hunt = hunt_workload(
        &mesh,
        &routing,
        &mut Switching::default(),
        &specs,
        0,
        10_000,
    )
    .unwrap()
    .expect("the corner storm deadlocks");
    let witness = hunt.witness.expect("wormhole deadlocks carry a witness");
    let graph = port_dependency_graph(&mesh, &routing);
    assert!(genoc::depgraph::cycle::is_cycle_of(&graph, &witness.ports));
    // And it is the wait-for cycle of the deadlocked configuration itself.
    let rescanned = find_wait_cycle(&hunt.config).expect("the deadlock has a wait-for cycle");
    assert_eq!(rescanned, witness);
}
