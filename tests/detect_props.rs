//! Property-based validation of the online deadlock detectors.
//!
//! Across randomly drawn workloads on three representative instances — the
//! deadlock-prone mixed XY/YX mesh, the paper's XY mesh, and the
//! dateline-repaired torus — the exact online detector fires *iff* the run
//! ends in the interpreter's deadlock predicate `Ω`, every reported
//! blocked-port cycle is a cycle of the statically built port dependency
//! graph, detection is never later than `Ω`, and the timeout heuristic has
//! no false negatives against the exact detector. The wait-cycle search
//! itself, which evaluates blocking events as its chase reaches them, is
//! held to the search that evaluated them all first.

use genoc::core::blocking::{block_event, expand_port_cycle};
use genoc::depgraph::cycle::is_cycle_of;
use genoc::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

const HEURISTIC_THRESHOLD: u64 = 16;

/// A workload drawn as (source, dest, flits) triples over `nodes` nodes.
fn workload_strategy(
    nodes: usize,
    max_messages: usize,
    max_flits: usize,
) -> impl Strategy<Value = Vec<MessageSpec>> {
    vec((0..nodes, 0..nodes, 1..=max_flits), 0..=max_messages).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(s, d, f)| MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), f))
            .collect()
    })
}

/// The detector properties on the default stepper's feed: the arena's
/// transition log, folded by `apply_kernel_transitions`.
fn check_detection_properties(
    instance: &Instance,
    specs: &[MessageSpec],
) -> Result<(), TestCaseError> {
    let net = instance.net.as_ref();
    let routing = instance.routing.as_ref();
    let graph = port_dependency_graph(net, routing);
    let mut engine = DetectionEngine::detector(EngineOptions {
        heuristic_threshold: Some(HEURISTIC_THRESHOLD),
    });
    let result = simulate_config(
        net,
        &mut Switching::default(),
        Config::from_specs(net, routing, specs).unwrap(),
        &SimOptions::default(),
        Some(&mut engine),
        None,
    )
    .map_err(|e| TestCaseError::fail(format!("simulate_config: {e}")))?;

    // The exact detector fires iff the run ends in Ω.
    let deadlocked = result.run.outcome == Outcome::Deadlock;
    prop_assert_eq!(
        engine.fired(),
        deadlocked,
        "{}: fired = {}, outcome = {:?}",
        instance.name,
        engine.fired(),
        result.run.outcome
    );

    for d in engine.detections() {
        // Online detection is never later than the global predicate.
        prop_assert!(
            d.step <= result.run.steps,
            "{}: detection at {} after Ω at {}",
            instance.name,
            d.step,
            result.run.steps
        );
        // Every reported cycle is a cycle of the static dependency graph.
        prop_assert!(
            is_cycle_of(&graph, &d.cycle.ports),
            "{}: runtime cycle is no dependency cycle: {:?}",
            instance.name,
            d.cycle.ports
        );
        prop_assert!(!d.cycle.msgs.is_empty());
    }

    // The heuristic has no false negatives: wherever the exact detector
    // fired it fires too — during the run, or within threshold + 1 idle
    // observations of the final (deadlocked, hence frozen) configuration.
    if deadlocked {
        let summary = engine.summary(&result);
        if summary.first_heuristic_step.is_none() {
            let mut heuristic = TimeoutDetector::new(HEURISTIC_THRESHOLD);
            let fires = (0..=HEURISTIC_THRESHOLD + 1)
                .any(|_| !heuristic.observe(&result.run.config).is_empty());
            prop_assert!(
                fires,
                "{}: heuristic missed a deadlock the exact detector caught",
                instance.name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn mixed_mesh_detection_is_exact(specs in workload_strategy(9, 32, 6)) {
        check_detection_properties(&Instance::mesh_mixed(3, 3, 1), &specs)?;
    }

    #[test]
    fn xy_mesh_never_alarms(specs in workload_strategy(9, 32, 6)) {
        check_detection_properties(&Instance::mesh_xy(3, 3, 1), &specs)?;
    }

    #[test]
    fn dateline_torus_never_alarms(specs in workload_strategy(12, 24, 5)) {
        check_detection_properties(&Instance::torus_dor_dateline(4, 3, 1), &specs)?;
    }
}

/// The wait-cycle search as it was before it evaluated blocking events
/// lazily: every travel's event first, then the functional-graph chase from
/// each travel in order. Kept as the oracle of `find_wait_cycle`.
fn eager_wait_cycle(cfg: &Config) -> Option<WaitCycle> {
    let n = cfg.travels().len();
    let events: Vec<Option<BlockEvent>> = (0..n).map(|i| block_event(cfg, i)).collect();
    let max_id = cfg.travels().iter().map(|t| t.id().index()).max();
    let mut pos_of = vec![usize::MAX; max_id.unwrap_or(0) + 1];
    for (i, t) in cfg.travels().iter().enumerate() {
        pos_of[t.id().index()] = i;
    }
    let (white, gray, black) = (0u8, 1u8, 2u8);
    let mut color = vec![white; n];
    let mut path: Vec<usize> = Vec::new();
    for start in 0..n {
        if color[start] != white {
            continue;
        }
        path.clear();
        let mut cur = start;
        let cycle_at = loop {
            if color[cur] == gray {
                break Some(cur);
            }
            if color[cur] == black {
                break None;
            }
            color[cur] = gray;
            path.push(cur);
            match events[cur].and_then(|e| e.on).map(|m| pos_of[m.index()]) {
                Some(p) if p != usize::MAX => cur = p,
                _ => break None,
            }
        };
        for &p in &path {
            color[p] = black;
        }
        if let Some(at) = cycle_at {
            let from = path
                .iter()
                .position(|&p| p == at)
                .expect("gray is on the path");
            let msgs: Vec<MsgId> = path[from..].iter().map(|&p| cfg.travel(p).id()).collect();
            let ports = expand_port_cycle(cfg, &msgs).ok()?;
            return Some(WaitCycle { msgs, ports });
        }
    }
    None
}

/// The number of cycles in the wait-for graph of `cfg`: each travel has at
/// most one blocked-on edge, so every cycle is found by following edges
/// from each travel once.
fn wait_cycle_count(cfg: &Config) -> usize {
    let n = cfg.travels().len();
    let pos = |m: MsgId| cfg.travels().iter().position(|t| t.id() == m);
    let next: Vec<Option<usize>> = (0..n)
        .map(|i| block_event(cfg, i).and_then(|e| e.on).and_then(pos))
        .collect();
    let mut walk_of = vec![usize::MAX; n];
    let mut cycles = 0;
    for start in 0..n {
        let mut cur = Some(start);
        while let Some(i) = cur {
            if walk_of[i] != usize::MAX {
                cycles += usize::from(walk_of[i] == start);
                break;
            }
            walk_of[i] = start;
            cur = next[i];
        }
    }
    cycles
}

/// Runs `specs` without a detector for at most `stop` steps and compares the
/// lazy wait-cycle search with the eager one on the configuration it stops
/// in; returns that configuration's number of wait-for cycles.
fn check_lazy_search(
    instance: &Instance,
    specs: &[MessageSpec],
    stop: u64,
) -> Result<usize, TestCaseError> {
    let (net, routing) = (instance.net.as_ref(), instance.routing.as_ref());
    let options = SimOptions {
        max_steps: stop,
        ..SimOptions::default()
    };
    let cfg = Config::from_specs(net, routing, specs).unwrap();
    let result = simulate_config(net, &mut Switching::default(), cfg, &options, None, None)
        .map_err(|e| TestCaseError::fail(format!("simulate_config: {e}")))?;
    let cfg = &result.run.config;
    let (lazy, eager) = (find_wait_cycle(cfg), eager_wait_cycle(cfg));
    let cycles = wait_cycle_count(cfg);
    prop_assert_eq!(
        lazy.as_ref().map(|c| (&c.msgs, &c.ports)),
        eager.as_ref().map(|c| (&c.msgs, &c.ports)),
        "{} after {} steps ({} cycles)",
        instance.name,
        result.run.steps,
        cycles
    );
    prop_assert_eq!(lazy.is_some(), cycles > 0, "{}", instance.name);
    Ok(cycles)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn lazy_wait_cycle_search_matches_eager_on_the_mixed_mesh(
        specs in workload_strategy(9, 32, 6),
        stop in 0u64..48,
    ) {
        check_lazy_search(&Instance::mesh_mixed(3, 3, 1), &specs, stop)?;
    }

    #[test]
    fn lazy_wait_cycle_search_matches_eager_on_the_ring(
        specs in workload_strategy(6, 24, 5),
        stop in 0u64..48,
    ) {
        check_lazy_search(&Instance::ring_shortest(6, 1), &specs, stop)?;
    }
}

/// Congested mixed meshes stopped on the way to and at `Ω`: configurations
/// with no cycle, one, and several, where the two searches must pick the
/// same one.
#[test]
fn lazy_wait_cycle_search_matches_eager_with_several_cycles() {
    let mut by_cycles = [0usize; 3];
    for (width, messages, seed) in [(4, 96, 3u64), (8, 512, 101), (8, 768, 23), (12, 2000, 9)] {
        let instance = Instance::mesh_mixed(width, width, 1);
        let specs = genoc::sim::workload::uniform_random(width * width, messages, 2..=6, seed);
        for stop in [8, 16, 32, 10_000] {
            let cycles = check_lazy_search(&instance, &specs, stop)
                .unwrap_or_else(|e| panic!("{width}×{width}, seed {seed}: {e}"));
            by_cycles[cycles.min(2)] += 1;
        }
    }
    assert!(
        by_cycles.iter().all(|&n| n > 0),
        "configurations by cycle count (0, 1, 2+): {by_cycles:?}"
    );
}

/// What a hooked run reports, in the terms both steppers must agree on:
/// outcome and steps, the `(step, msgs, ports)` of each detection in order,
/// the aborted and rerouted sets, restarts and deliveries.
#[derive(Clone, Debug, PartialEq)]
struct Report {
    outcome: Outcome,
    steps: u64,
    detections: Vec<(u64, Vec<MsgId>, Vec<PortId>)>,
    aborted: Vec<MsgId>,
    rerouted: Vec<MsgId>,
    restarts: u64,
    delivered: u64,
}

fn hooked_report(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    stepper: Stepper,
    policy: Option<Box<dyn RecoveryPolicy>>,
) -> Report {
    let options = EngineOptions::default();
    let mut engine = match policy {
        Some(policy) => DetectionEngine::with_policy(options, policy),
        None => DetectionEngine::detector(options),
    };
    let sim = SimOptions {
        stepper,
        ..SimOptions::default()
    };
    let mut switching = Switching::default();
    let cfg = Config::from_specs(net, routing, specs).unwrap();
    let result = simulate_config(net, &mut switching, cfg, &sim, Some(&mut engine), None)
        .unwrap_or_else(|e| panic!("{stepper:?}: {e}"));
    let summary = engine.summary(&result);
    Report {
        outcome: result.run.outcome,
        steps: result.run.steps,
        detections: engine
            .detections()
            .iter()
            .map(|d| (d.step, d.cycle.msgs.clone(), d.cycle.ports.clone()))
            .collect(),
        aborted: summary.aborted,
        rerouted: summary.rerouted,
        restarts: summary.restarts,
        delivered: summary.delivered,
    }
}

/// Runs the workload on both steppers and returns the arena's report. Legacy
/// feeds the detector a `BlockDiff` of the configuration, taken from every
/// travel after every step: the reference the arena kernel's transition log
/// is held to.
///
/// Without a policy the first cycle stands for the rest of the run and is
/// reported again by every step that adds an edge. The two logs count
/// those steps differently — a travel woken and parked again on the same
/// owner is a `Blocked` transition to the arena kernel and no change to the
/// diff — so there the two are compared on the first report of each cycle,
/// and under a recovery policy on everything.
fn stepper_invariant_report(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    policy: &dyn Fn() -> Option<Box<dyn RecoveryPolicy>>,
    what: &str,
) -> Report {
    let first_reports = |mut report: Report| {
        let mut seen: Vec<Vec<MsgId>> = Vec::new();
        report.detections.retain(|(_, msgs, _)| {
            let fresh = !seen.contains(msgs);
            seen.push(msgs.clone());
            fresh
        });
        report
    };
    let legacy = hooked_report(net, routing, specs, Stepper::Legacy, policy());
    let arena = hooked_report(net, routing, specs, Stepper::Arena, policy());
    if policy().is_some() {
        assert_eq!(arena, legacy, "{what}: Arena against Legacy");
    } else {
        let (firsts, legacy) = (first_reports(arena.clone()), first_reports(legacy));
        assert_eq!(firsts, legacy, "{what}: Arena against Legacy");
    }
    arena
}

/// The equivalence proptests stop at 24 messages and a handful of
/// detections a run; these runs are congested enough for dozens, with
/// recoveries between them, wakes behind the cursor and travels that are
/// blocked at the end of a step without having parked in it.
#[test]
fn congested_runs_report_the_same_detections_on_every_stepper() {
    let mut detections = 0;
    for (width, messages, seed) in [(6, 256, 23u64), (6, 512, 7), (8, 512, 101), (8, 768, 23)] {
        let mesh = Mesh::new(width, width, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = genoc::sim::workload::uniform_random(width * width, messages, 2..=6, seed);
        let what = |policy: &str| format!("{width}×{width}, {messages} messages, {policy}");

        let watched = stepper_invariant_report(&mesh, &routing, &specs, &|| None, &what("none"));
        assert_eq!(watched.outcome, Outcome::Deadlock, "{}", what("none"));
        assert!(!watched.detections.is_empty());

        let aborting = || Some(Box::new(AbortAndEvacuate) as Box<dyn RecoveryPolicy>);
        let healed = stepper_invariant_report(&mesh, &routing, &specs, &aborting, &what("abort"));
        assert_eq!(healed.outcome, Outcome::Evacuated, "{}", what("abort"));
        assert_eq!(healed.delivered as usize + healed.aborted.len(), messages);
        detections += healed.detections.len();

        let draining = || Some(Box::new(DrainAll) as Box<dyn RecoveryPolicy>);
        let drained = stepper_invariant_report(&mesh, &routing, &specs, &draining, &what("drain"));
        assert_eq!(drained.outcome, Outcome::Evacuated, "{}", what("drain"));
        assert_eq!(drained.delivered as usize, messages);
        assert!(drained.restarts >= 1);
    }
    assert!(detections >= 100, "only {detections} detections in all");

    // Reroutes instead of removals: the escape channel on a two-VC ring.
    let ring = Ring::with_vcs(8, 2, 1);
    let routing = RingShortestRouting::new(&ring);
    let mut specs = genoc::sim::workload::ring_offset(8, 3, 5);
    specs.extend(genoc::sim::workload::ring_offset(8, 2, 4));
    let escaping = || {
        let policy = EscapeChannel::new(Box::new(RingEscape::new(&ring)));
        Some(Box::new(policy) as Box<dyn RecoveryPolicy>)
    };
    let escaped = stepper_invariant_report(&ring, &routing, &specs, &escaping, "ring, escape");
    assert_eq!(escaped.outcome, Outcome::Evacuated);
    assert!(!escaped.rerouted.is_empty() && !escaped.detections.is_empty());
}
