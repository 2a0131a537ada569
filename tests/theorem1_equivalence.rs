//! Theorem 1 across the whole instance suite: deadlock-freedom iff the port
//! dependency graph is acyclic (deterministic routing).
//!
//! For every standard instance:
//! * the (C-3) verdict of `acyclicity` (one DFS) agrees with the Tarjan SCC
//!   oracle of `tests/oracle/scc.rs` and matches the instance's expectation,
//!   and its certificate checks out: a ranking `verify_ranking` accepts, or
//!   a cycle of the graph — on every distinct instance of the campaign
//!   matrices too;
//! * cyclic + deterministic ⟹ the cycle compiles into a verified `Ω`
//!   configuration (sufficiency), and that configuration — like a live
//!   deadlock, where the hunter finds one — decompiles through its wait-for
//!   cycle (`find_wait_cycle`) into a valid dependency cycle (necessity);
//! * acyclic + deterministic ⟹ a bounded randomized hunt finds no deadlock;
//! * the Dally–Seitz channel graph agrees with the port graph on cyclicity.

use std::collections::BTreeSet;

use genoc::depgraph::cycle::is_cycle_of;
use genoc::prelude::*;

#[path = "oracle/scc.rs"]
mod scc;

fn hunt_options() -> HuntOptions {
    HuntOptions {
        attempts: 10,
        messages: 14,
        flits: 4,
        max_steps: 30_000,
        first_seed: 0,
    }
}

/// Holds the instance's one (C-3) verdict to the Tarjan oracle and to its
/// expectation, and checks the certificate the verdict carries. Returns
/// whether the instance is acyclic.
fn check_verdict(instance: &Instance) -> bool {
    let analysis = instance.analysis();
    let graph = &analysis.graph;
    let verdict = &analysis.acyclicity;
    assert_eq!(
        *verdict,
        acyclicity(graph),
        "{}: the instance's verdict is the DFS of its graph",
        instance.name
    );
    assert_eq!(
        verdict.is_acyclic(),
        !scc::is_cyclic_by_scc(graph),
        "{}: DFS and SCC disagree",
        instance.name
    );
    assert_eq!(
        verdict.is_acyclic(),
        instance.expect_acyclic,
        "{}: expected acyclic = {}",
        instance.name,
        instance.expect_acyclic
    );
    match verdict {
        Acyclicity::Acyclic(rank) => {
            if let Err((u, v)) = verify_ranking(graph, rank) {
                panic!("{}: DFS ranking fails at {u:?} -> {v:?}", instance.name);
            }
        }
        Acyclicity::Cyclic(cycle) => assert!(
            is_cycle_of(graph, cycle),
            "{}: the DFS cycle is not a cycle of the graph",
            instance.name
        ),
    }
    verdict.is_acyclic()
}

#[test]
fn acyclicity_matches_expectations_across_the_suite() {
    for instance in Instance::standard_suite() {
        check_verdict(&instance);
    }
}

/// Every distinct instance of the `full` matrix, which contains those of
/// `smoke`, `default` and `oracle`: the verdict agrees with the oracle, and
/// every acyclic one carries a ranking that verifies.
#[test]
fn every_campaign_instance_gets_a_certified_verdict() {
    let metas = |m: ScenarioMatrix| -> BTreeSet<InstanceMeta> {
        m.expand().into_iter().map(|spec| spec.meta).collect()
    };
    let full = metas(ScenarioMatrix::full());
    for name in ["smoke", "default", "oracle"] {
        let preset = metas(genoc::campaign::preset(name).unwrap().0);
        assert!(preset.is_subset(&full), "{name} has an instance full lacks");
    }
    let mut acyclic = 0;
    for meta in &full {
        acyclic += usize::from(check_verdict(&Instance::from_meta(meta).unwrap()));
    }
    eprintln!("{} instances, {acyclic} acyclic", full.len());
    assert!(acyclic > 0 && acyclic < full.len());
}

/// A DFS ranking with one edge's target raised to its source's rank is
/// refused, at an edge into that target; at the graph's first edge, at
/// exactly that edge.
#[test]
fn a_raised_rank_is_refused_at_its_edge() {
    for instance in Instance::standard_suite() {
        let analysis = instance.analysis();
        let graph = &analysis.graph;
        let Some(rank) = analysis.acyclicity.ranking() else {
            continue;
        };
        for (i, (u, v)) in graph.edges().enumerate() {
            let mut raised = rank.to_vec();
            raised[v.index()] = rank[u.index()];
            let (x, y) = verify_ranking(graph, &raised).expect_err("a raised rank is refused");
            assert!(
                graph.has_edge(x, y) && y == v,
                "{}: {x:?} -> {y:?}",
                instance.name
            );
            assert!(raised[x.index()] <= raised[y.index()], "{}", instance.name);
            if i == 0 {
                assert_eq!((x, y), (u, v), "{}", instance.name);
            }
        }
    }
}

#[test]
fn channel_graph_cyclicity_agrees_with_port_graph() {
    for instance in Instance::standard_suite() {
        let net = instance.net.as_ref();
        let routing = instance.routing.as_ref();
        let pg = port_dependency_graph(net, routing);
        let cg = channel_dependency_graph(net, routing);
        assert_eq!(
            !acyclicity(&pg).is_acyclic(),
            !acyclicity(&cg.graph).is_acyclic(),
            "{}: port vs channel cyclicity",
            instance.name
        );
    }
}

#[test]
fn sufficiency_cycles_compile_into_verified_deadlocks() {
    for instance in Instance::standard_suite() {
        if !instance.deterministic || instance.expect_acyclic {
            continue;
        }
        let net = instance.net.as_ref();
        let routing = instance.routing.as_ref();
        let g = port_dependency_graph(net, routing);
        let verdict = acyclicity(&g);
        let cycle = verdict.cycle().expect("cyclic instance");
        let witness = deadlock_from_cycle(net, routing, cycle)
            .unwrap_or_else(|e| panic!("{}: witness compilation failed: {e}", instance.name));
        witness.config.validate(net).unwrap();
        assert!(
            !witness.config.any_move_possible(),
            "{}: compiled witness is not deadlocked",
            instance.name
        );
    }
}

/// Both constructions of the proof, composed: the deadlock compiled from a
/// cyclic deterministic instance's cycle decompiles, through its wait-for
/// cycle, into a cycle of the dependency graph.
#[test]
fn compiled_deadlocks_decompile_into_dependency_cycles() {
    let mut checked = 0;
    for instance in Instance::standard_suite() {
        if !instance.deterministic || instance.expect_acyclic {
            continue;
        }
        let analysis = instance.analysis();
        let cycle = analysis.acyclicity.cycle().expect("cyclic instance");
        let witness = deadlock_from_cycle(instance.net.as_ref(), instance.routing.as_ref(), cycle)
            .unwrap_or_else(|e| panic!("{}: witness compilation failed: {e}", instance.name));
        let extracted = find_wait_cycle(&witness.config).unwrap_or_else(|| {
            panic!(
                "{}: the compiled deadlock has no wait-for cycle",
                instance.name
            )
        });
        assert!(
            is_cycle_of(&analysis.graph, &extracted.ports),
            "{}: {:?} is not a dependency cycle",
            instance.name,
            extracted.ports
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "the suite has no cyclic deterministic instance"
    );
}

#[test]
fn necessity_live_deadlocks_decompile_into_cycles() {
    // Adversarial workloads that reliably deadlock their cyclic router.
    let mesh = Mesh::new(2, 2, 1);
    let cases: Vec<(Instance, Vec<MessageSpec>)> = vec![
        (
            Instance::mesh_mixed(2, 2, 1),
            genoc::sim::workload::bit_complement(&mesh, 4),
        ),
        (
            Instance::ring_shortest(6, 1),
            genoc::sim::workload::ring_offset(6, 2, 4),
        ),
        (
            Instance::torus_dor(4, 4, 1),
            // Every node sends 2 hops east: saturates each row ring.
            (0..16)
                .map(|i| {
                    let (x, y) = (i % 4, i / 4);
                    MessageSpec::new(
                        NodeId::from_index(i),
                        NodeId::from_index(y * 4 + (x + 2) % 4),
                        4,
                    )
                })
                .collect(),
        ),
    ];
    for (instance, specs) in cases {
        let net = instance.net.as_ref();
        let routing = instance.routing.as_ref();
        let g = port_dependency_graph(net, routing);
        let hunt = hunt_workload(net, routing, &mut Switching::default(), &specs, 0, 50_000)
            .unwrap()
            .unwrap_or_else(|| panic!("{}: adversarial workload did not deadlock", instance.name));
        let cycle = find_wait_cycle(&hunt.config)
            .unwrap_or_else(|| panic!("{}: the deadlock has no wait-for cycle", instance.name));
        assert!(
            is_cycle_of(&g, &cycle.ports),
            "{}: extracted walk is not a dependency cycle",
            instance.name
        );
    }
}

#[test]
fn acyclic_deterministic_instances_survive_hunting() {
    for instance in Instance::standard_suite() {
        if !instance.deterministic || !instance.expect_acyclic {
            continue;
        }
        let report = check_theorem1(&instance, &hunt_options()).unwrap();
        assert!(!report.cyclic(), "{}", instance.name);
        assert_eq!(
            report.live_deadlock_found,
            Some(false),
            "{}: deadlock on an acyclic instance!",
            instance.name
        );
        assert!(report.holds(), "{}: {:?}", instance.name, report.notes);
    }
}

#[test]
fn full_theorem1_reports_hold_on_the_suite() {
    for instance in Instance::standard_suite() {
        let report = check_theorem1(&instance, &hunt_options()).unwrap();
        assert!(report.holds(), "{}: {:?}", instance.name, report.notes);
    }
}

#[test]
fn adaptive_deadlocks_decompile_into_adaptive_cycles() {
    // The future-work frontier: a deadlock reached under a *selection* from
    // the fully-adaptive relation yields a cycle that lies inside the
    // adaptive dependency graph (routes are selections from next_hops).
    let mesh = Mesh::new(2, 2, 1);
    let routing = MinimalAdaptiveRouting::new(&mesh);
    let g = port_dependency_graph(&mesh, &routing);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    for seed in 0..100u64 {
        let cfg = config_with_selected_routes(&mesh, &routing, &specs, seed).unwrap();
        let r = genoc_core::interpreter::run(
            &mesh,
            &IdentityInjection,
            &mut Switching::default(),
            cfg,
            &genoc_core::interpreter::RunOptions {
                max_steps: 10_000,
                ..Default::default()
            },
        )
        .unwrap();
        if r.outcome == genoc_core::interpreter::Outcome::Deadlock {
            let cycle = find_wait_cycle(&r.config).expect("a deadlock has a wait-for cycle");
            assert!(
                is_cycle_of(&g, &cycle.ports),
                "adaptive cycle must lie in the adaptive dependency graph"
            );
            return;
        }
    }
    panic!("no selection deadlocked in 100 seeds (probability < 1e-5)");
}
