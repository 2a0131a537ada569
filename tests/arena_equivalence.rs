//! Differential equivalence of the struct-of-arrays arena stepper against
//! the reference full-rescan loop, the executable form of the paper's
//! `GeNoC` definition.
//!
//! The arena's contract is *move-for-move identity*: same greedy order
//! among runnable travels, same one-entry/one-ejection-per-port bandwidth
//! rule, same deadlock verdicts at the same steps — so obligations
//! (C-1)…(C-5) and Theorems 1–2 transfer to arena runs unchanged. The arena
//! must therefore be indistinguishable from the reference on *everything
//! observable*: outcome, step count, arrival order, the full movement
//! trace, per-message latencies, detector firings, recovery actions, and
//! the final configuration. This suite checks that three ways:
//!
//! * every scenario of the `smoke` campaign matrix, deterministic and
//!   adaptive, under its own switching policy and workload;
//! * detector-hooked runs (detections and recovery summaries must agree
//!   between the legacy loop's per-step blocking-event diffs and the status
//!   transitions of the arena's shadow-config loop);
//! * property tests over random workloads on the paper's XY mesh and the
//!   deadlock-prone mixed comparator, both arbitrations, all three
//!   switching policies.
//!
//! A pinned-anchor test freezes the exact step count, final state hash,
//! and arena occupancy counts of one reference cell, so any future change
//! to scheduling or storage shows up as a diff against known-good numbers
//! rather than only against a sibling stepper that may have drifted the
//! same way.

use genoc::core::arena::ArenaConfig;
use genoc::core::step::{any_move_possible_with, step_all, StepScratch};
use genoc::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

const STEPPERS: [Stepper; 2] = [Stepper::Arena, Stepper::Legacy];

/// Runs the same workload on both steppers and asserts the runs are
/// indistinguishable: outcome, step count, arrival order, the full
/// movement trace, per-message latencies, and the final configuration.
fn assert_equivalent(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    kind: SwitchingKind,
    specs: &[MessageSpec],
) {
    let mut results = Vec::new();
    for stepper in STEPPERS {
        let options = SimOptions {
            record_trace: true,
            check_invariants: true,
            max_steps: 50_000,
            stepper,
        };
        let mut policy = Switching::new(kind);
        results.push(simulate(net, routing, &mut policy, specs, &options).unwrap());
    }
    let (arena, legacy) = (&results[0], &results[1]);
    assert_eq!(arena.run.outcome, legacy.run.outcome, "outcome");
    assert_eq!(arena.run.steps, legacy.run.steps, "steps");
    assert_eq!(
        arena.run.arrival_order, legacy.run.arrival_order,
        "arrival order"
    );
    assert_eq!(arena.run.trace.events(), legacy.run.trace.events(), "trace");
    assert_eq!(arena.latencies, legacy.latencies, "latencies");
    assert_eq!(arena.run.config, legacy.run.config, "final config");
}

#[test]
fn every_smoke_scenario_is_arena_invariant() {
    for spec in ScenarioMatrix::smoke().expand() {
        let instance = Instance::from_meta(&spec.meta).unwrap();
        let net = instance.net.as_ref();
        let nodes = net.node_count();
        let flits = spec.workload_flits(3);
        let seed = scenario_seed(11, &spec.name());
        let specs = genoc::sim::workload::uniform_random(nodes.max(2), nodes * 2, 1..=flits, seed);
        if instance.deterministic {
            assert_equivalent(net, instance.routing.as_ref(), spec.switching, &specs);
        } else {
            // Adaptive instances fix one admissible route per message; both
            // steppers must agree on the selection's run.
            let mut results = Vec::new();
            for stepper in STEPPERS {
                let options = SimOptions {
                    record_trace: true,
                    max_steps: 50_000,
                    stepper,
                    ..SimOptions::default()
                };
                let mut policy = Switching::new(spec.switching);
                let cfg = config_with_selected_routes(net, instance.routing.as_ref(), &specs, seed)
                    .unwrap();
                results.push(simulate_config(net, &mut policy, cfg, &options, None, None).unwrap());
            }
            let (arena, legacy) = (&results[0], &results[1]);
            assert_eq!(arena.run.outcome, legacy.run.outcome, "{}", spec.name());
            assert_eq!(arena.run.steps, legacy.run.steps, "{}", spec.name());
            assert_eq!(
                arena.run.trace.events(),
                legacy.run.trace.events(),
                "{}",
                spec.name()
            );
            assert_eq!(arena.run.config, legacy.run.config, "{}", spec.name());
        }
    }
}

/// Hotspot traffic at a scale the smoke matrix does not reach: four
/// messages a node, 40% of them converging on one sink whose ejection port
/// serialises deliveries, so nearly every travel spends nearly the whole
/// run parked in a tree of wait-for chains. That is the regime the arena's
/// per-port wake lists exist for and the legacy sweep rescans in full.
#[test]
fn hotspot_traffic_is_arena_invariant() {
    let mesh = Mesh::new(8, 8, 2);
    let nodes = mesh.node_count();
    let specs = genoc::sim::workload::hotspot(nodes, 4 * nodes, nodes / 2, 40, 6, 23);
    assert_equivalent(
        &mesh,
        &XyRouting::new(&mesh),
        SwitchingKind::Wormhole,
        &specs,
    );
}

#[test]
fn deadlock_verdicts_and_witnesses_agree_on_the_corner_storm() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    let mut outcomes = Vec::new();
    for stepper in STEPPERS {
        let options = SimOptions {
            stepper,
            ..SimOptions::default()
        };
        let result =
            simulate(&mesh, &routing, &mut Switching::default(), &specs, &options).unwrap();
        assert_eq!(result.run.outcome, Outcome::Deadlock);
        let cycle = find_wait_cycle(&result.run.config).expect("wormhole deadlocks carry a cycle");
        outcomes.push((result.run.steps, cycle));
    }
    assert_eq!(outcomes[0].0, outcomes[1].0, "Ω at the same step");
    assert_eq!(outcomes[0].1, outcomes[1].1, "same wait-for cycle");
}

#[test]
fn hooked_detection_sees_the_same_cycles_on_the_arena() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    let mut observed = Vec::new();
    for stepper in STEPPERS {
        let mut engine = DetectionEngine::detector(EngineOptions::default());
        let options = SimOptions {
            stepper,
            ..SimOptions::default()
        };
        let result = simulate_config(
            &mesh,
            &mut Switching::default(),
            Config::from_specs(&mesh, &routing, &specs).unwrap(),
            &options,
            Some(&mut engine),
            None,
        )
        .unwrap();
        assert_eq!(result.run.outcome, Outcome::Deadlock);
        assert!(engine.fired());
        let detections: Vec<(u64, Vec<MsgId>)> = engine
            .detections()
            .iter()
            .map(|d| (d.step, d.cycle.msgs.clone()))
            .collect();
        observed.push((result.run.steps, detections));
    }
    assert_eq!(
        observed[0], observed[1],
        "arena transitions and per-step diffs must report identical detections"
    );
}

/// One workload under one recovery policy on both steppers: outcome, the
/// whole `RecoverySummary` (steps, detections, delivered, aborted, rerouted,
/// restarts) and the final configuration — `T`, `ST` and `A` in order — must
/// be the legacy loop's, and `ran` says the policy took the path it is here
/// to exercise.
fn assert_recovery_equivalent(
    cell: &str,
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    policy: &dyn Fn() -> Box<dyn RecoveryPolicy>,
    ran: fn(&RecoverySummary) -> bool,
) {
    let run = |stepper| {
        let mut engine = DetectionEngine::with_policy(EngineOptions::default(), policy());
        let options = SimOptions {
            stepper,
            ..SimOptions::default()
        };
        let mut switching = Switching::default();
        let cfg = Config::from_specs(net, routing, specs).unwrap();
        let result = simulate_config(net, &mut switching, cfg, &options, Some(&mut engine), None)
            .unwrap_or_else(|e| panic!("{cell}, {stepper:?}: {e}"));
        assert_eq!(result.run.outcome, Outcome::Evacuated, "{cell}: saved");
        (engine.summary(&result), result.run.config)
    };
    let (arena, legacy) = (run(Stepper::Arena), run(Stepper::Legacy));
    assert_eq!(arena, legacy, "{cell}");
    assert!(ran(&arena.0), "{cell}: {:?}", arena.0);
}

/// Every recovery policy: the arena applies a hook's removals
/// (`AbortAndEvacuate`), reroutes (`EscapeChannel` on a two-VC ring) and
/// pushes (`DrainAll`, which stages every travel and has `on_drained` push
/// them back one by one) to itself in place. An arena that skipped a reroute
/// would step the diverted travel along its old route and deadlock where
/// the shadow does not; a debug build trips the `to_config` oracle first.
#[test]
fn hooked_recovery_round_trips_identically_on_the_arena() {
    let abort = || Box::new(AbortAndEvacuate) as Box<dyn RecoveryPolicy>;
    let drain = || Box::new(DrainAll) as Box<dyn RecoveryPolicy>;
    let removed = |s: &RecoverySummary| !s.aborted.is_empty() && s.restarts == 0;
    let pushed = |s: &RecoverySummary| s.restarts >= 1 && s.aborted.is_empty();
    for (side, specs) in [
        (
            2,
            genoc::sim::workload::bit_complement(&Mesh::new(2, 2, 1), 4),
        ),
        (8, genoc::sim::workload::uniform_random(64, 768, 2..=8, 7)),
    ] {
        let mesh = Mesh::new(side, side, 1);
        let mixed = MixedXyYxRouting::new(&mesh);
        let cell = format!("{side}×{side} mixed");
        assert_recovery_equivalent(
            &format!("{cell}, abort"),
            &mesh,
            &mixed,
            &specs,
            &abort,
            removed,
        );
        assert_recovery_equivalent(
            &format!("{cell}, drain"),
            &mesh,
            &mixed,
            &specs,
            &drain,
            pushed,
        );
    }
    let ring = Ring::with_vcs(8, 2, 1);
    let shortest = RingShortestRouting::new(&ring);
    let mut specs = genoc::sim::workload::ring_offset(8, 3, 5);
    specs.extend(genoc::sim::workload::ring_offset(8, 2, 4));
    let escape = || {
        let policy = EscapeChannel::new(Box::new(RingEscape::new(&ring)));
        Box::new(policy) as Box<dyn RecoveryPolicy>
    };
    let rerouted = |s: &RecoverySummary| !s.rerouted.is_empty();
    assert_recovery_equivalent("ring, escape", &ring, &shortest, &specs, &escape, rerouted);
}

/// Regression anchors for one reference cell (3×3 XY mesh, wormhole,
/// seeded uniform-random workload): the exact step count, the final
/// configuration's position key hash, and the arena's occupancy counts.
/// These numbers are facts about the frozen greedy schedule; a change here
/// means the schedule (and thus every proof transfer) changed.
#[test]
fn pinned_anchors_on_the_reference_cell() {
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(9, 18, 1..=5, 23);
    let options = SimOptions {
        record_trace: true,
        stepper: Stepper::Arena,
        ..SimOptions::default()
    };
    let result = simulate(&mesh, &routing, &mut Switching::default(), &specs, &options).unwrap();
    assert_eq!(result.run.outcome, Outcome::Evacuated);
    assert_eq!(result.run.steps, PINNED_STEPS, "exact step count drifted");
    assert_eq!(
        result.run.config.state_hash(),
        PINNED_STATE_HASH,
        "final state hash drifted"
    );

    // Arena occupancy after importing the final configuration: every
    // message arrived, no slot leaked, pools hold exactly the workload.
    let arena = ArenaConfig::from_config(&mesh, &result.run.config).unwrap();
    assert_eq!(arena.slot_count(), 18);
    assert_eq!(arena.flight_count(), 0);
    assert_eq!(arena.arrived_count(), 18);
    assert_eq!(arena.free_count(), 0);
    assert_eq!(
        arena.flit_pool_len(),
        specs.iter().map(|s| s.flits).sum::<usize>()
    );
    assert_eq!(arena.delivered_flits() as usize, arena.flit_pool_len());
    assert!(arena.is_evacuated());
    assert_eq!(arena.progress_measure(), 0);
}

const PINNED_STEPS: u64 = 24;
const PINNED_STATE_HASH: u64 = 12_240_125_809_189_115_741;

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

proptest! {
    #[test]
    fn random_workloads_are_arena_invariant_on_xy(
        specs in workload_strategy(9, 24, 5),
    ) {
        let mesh = Mesh::new(3, 3, 1);
        let routing = XyRouting::new(&mesh);
        assert_equivalent(&mesh, &routing, SwitchingKind::Wormhole, &specs);
    }

    #[test]
    fn random_workloads_are_arena_invariant_on_the_cyclic_comparator(
        specs in workload_strategy(9, 24, 4),
    ) {
        let mesh = Mesh::new(3, 3, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        assert_equivalent(&mesh, &routing, SwitchingKind::Wormhole, &specs);
    }

    #[test]
    fn whole_packet_policies_are_arena_invariant(
        specs in workload_strategy(9, 12, 3),
    ) {
        let mesh = Mesh::new(3, 3, 4);
        let routing = XyRouting::new(&mesh);
        assert_equivalent(&mesh, &routing, SwitchingKind::VirtualCutThrough, &specs);
        assert_equivalent(&mesh, &routing, SwitchingKind::StoreForward, &specs);
    }

    #[test]
    fn round_robin_arbitration_is_arena_invariant(
        specs in workload_strategy(9, 16, 3),
    ) {
        let mesh = Mesh::new(3, 3, 2);
        let routing = XyRouting::new(&mesh);
        let mut results = Vec::new();
        for stepper in STEPPERS {
            let options = SimOptions {
                record_trace: true,
                stepper,
                ..SimOptions::default()
            };
            let mut policy = Switching::wormhole(Arbitration::RoundRobin);
            results.push(simulate(&mesh, &routing, &mut policy, &specs, &options).unwrap());
        }
        let (arena, legacy) = (&results[0], &results[1]);
        prop_assert_eq!(arena.run.trace.events(), legacy.run.trace.events());
        prop_assert_eq!(arena.run.steps, legacy.run.steps);
        prop_assert_eq!(&arena.run.arrival_order, &legacy.run.arrival_order);
        prop_assert_eq!(&arena.run.config, &legacy.run.config);
    }
}

/// The reference semantics of an arbitrary [`KernelSpec`]: one full greedy
/// sweep a step, in the spec's arbitration order under its admission. No
/// shipped policy type runs virtual cut-through or store-and-forward
/// round-robin; the arena can, so its reference must.
struct Sweep {
    spec: KernelSpec,
    scratch: StepScratch,
    steps: u64,
}

impl SwitchingPolicy for Sweep {
    fn name(&self) -> String {
        "sweep".into()
    }

    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut genoc::core::trace::Trace,
    ) -> genoc::core::Result<StepReport> {
        self.scratch.reset(net.port_count());
        let order = (self.spec.arbitration).order(cfg.travels().len(), self.steps);
        self.steps += 1;
        step_all(cfg, order, &mut self.scratch, trace, self.spec.admission)
    }

    fn is_deadlock(&self, _net: &dyn Network, cfg: &Config) -> bool {
        !cfg.is_evacuated() && !any_move_possible_with(cfg, self.spec.admission)
    }

    fn kernel_spec(&self) -> Option<KernelSpec> {
        Some(self.spec)
    }
}

/// The run queue is a bitset over ranks, 64 to a word; the proptests above
/// stay inside one word. These workloads cross one, two and five word
/// boundaries, with the service rotation (round-robin) starting mid-word,
/// on both arbitrations, all three admissions, and a routing that
/// deadlocks. In a debug build every served travel also asserts that its
/// popcount position is its index in the flight list.
#[test]
fn multi_word_workloads_are_arena_invariant() {
    let mesh = Mesh::new(6, 6, 3);
    let nodes = mesh.node_count();
    let xy = XyRouting::new(&mesh);
    let mixed = MixedXyYxRouting::new(&mesh);
    let routings: [(&dyn RoutingFunction, bool); 2] = [(&xy, false), (&mixed, true)];
    let kinds = [
        SwitchingKind::Wormhole,
        SwitchingKind::VirtualCutThrough,
        SwitchingKind::StoreForward,
    ];
    let options = RunOptions {
        record_trace: true,
        ..RunOptions::default()
    };
    let sim = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };
    let mut deadlocks = 0;
    for seed in 0..20u64 {
        for travels in [64, 65, 129, 200, 333] {
            let workloads = [
                genoc::sim::workload::uniform_random(nodes, travels, 1..=3, seed),
                genoc::sim::workload::hotspot(nodes, travels, seed as usize % nodes, 40, 3, seed),
            ];
            for specs in &workloads {
                for (routing, cyclic) in routings {
                    let cfg = Config::from_specs(&mesh, routing, specs).unwrap();
                    for kind in kinds {
                        for arbitration in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
                            let spec = KernelSpec {
                                arbitration,
                                ..Switching::new(kind).kernel_spec().unwrap()
                            };
                            let sweep = || Sweep {
                                spec,
                                scratch: StepScratch::default(),
                                steps: spec.first_step,
                            };
                            let refr = run(
                                &mesh,
                                &IdentityInjection,
                                &mut sweep(),
                                cfg.clone(),
                                &options,
                            )
                            .unwrap();
                            // The sweep shows its spec, so this runs on the arena.
                            let aren =
                                simulate_config(&mesh, &mut sweep(), cfg.clone(), &sim, None, None)
                                    .unwrap()
                                    .run;
                            let cell = format!("{seed}/{travels}/{kind:?}/{arbitration:?}");
                            assert_eq!(aren.outcome, refr.outcome, "outcome {cell}");
                            assert_eq!(aren.steps, refr.steps, "steps {cell}");
                            assert_eq!(aren.trace.events(), refr.trace.events(), "trace {cell}");
                            assert_eq!(aren.arrival_order, refr.arrival_order, "arrivals {cell}");
                            assert_eq!(aren.config, refr.config, "final config {cell}");
                            assert!(cyclic || aren.outcome == Outcome::Evacuated, "{cell}");
                            deadlocks += usize::from(aren.outcome == Outcome::Deadlock);
                        }
                    }
                }
            }
        }
    }
    assert!(
        deadlocks > 0,
        "the mixed routing must drive some run into Ω"
    );
}

/// The run queue's words are summarised 64 to a `busy` word, 4,096 ranks;
/// the workloads above stay inside one. These hold 4,500 travels, so a step
/// crosses from the first summary word into the second, and a round-robin
/// run starts at step 4,100: its first service rotation begins inside the
/// second summary word. Both arbitrations, uniform and hotspot traffic, on
/// XY and on a routing that deadlocks with more than 4,096 travels left, so
/// that `Ω` is judged over both summary words.
#[test]
fn summary_words_are_arena_invariant() {
    let mesh = Mesh::new(8, 8, 2);
    let nodes = mesh.node_count();
    let xy = XyRouting::new(&mesh);
    let mixed = MixedXyYxRouting::new(&mesh);
    let options = RunOptions {
        record_trace: true,
        ..RunOptions::default()
    };
    let sim = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };
    let workloads = [
        genoc::sim::workload::uniform_random(nodes, 4_500, 1..=2, 7),
        genoc::sim::workload::hotspot(nodes, 4_500, 27, 20, 1, 7),
    ];
    for specs in &workloads {
        for (routing, cyclic) in [(&xy as &dyn RoutingFunction, false), (&mixed, true)] {
            let cfg = Config::from_specs(&mesh, routing, specs).unwrap();
            for (arbitration, first_step) in [
                (Arbitration::FixedPriority, 0),
                (Arbitration::RoundRobin, 4_100),
            ] {
                let spec = KernelSpec {
                    arbitration,
                    first_step,
                    ..Switching::new(SwitchingKind::Wormhole)
                        .kernel_spec()
                        .unwrap()
                };
                let sweep = || Sweep {
                    spec,
                    scratch: StepScratch::default(),
                    steps: spec.first_step,
                };
                let refr = run(
                    &mesh,
                    &IdentityInjection,
                    &mut sweep(),
                    cfg.clone(),
                    &options,
                )
                .unwrap();
                let aren = simulate_config(&mesh, &mut sweep(), cfg.clone(), &sim, None, None)
                    .unwrap()
                    .run;
                let cell = format!("{}/{arbitration:?}/{}", routing.name(), specs.len());
                assert_eq!(aren.outcome, refr.outcome, "outcome {cell}");
                assert_eq!(aren.steps, refr.steps, "steps {cell}");
                assert_eq!(aren.trace.events(), refr.trace.events(), "trace {cell}");
                assert_eq!(aren.arrival_order, refr.arrival_order, "arrivals {cell}");
                assert_eq!(aren.config, refr.config, "final config {cell}");
                let deadlock = aren.outcome == Outcome::Deadlock;
                assert_eq!(deadlock, cyclic, "only the mixed routing reaches Ω: {cell}");
                assert!(!deadlock || aren.config.travels().len() > 4_096, "{cell}");
            }
        }
    }
}
