//! Theorem 1 across the whole instance suite: deadlock-freedom iff the port
//! dependency graph is acyclic (deterministic routing).
//!
//! For every standard instance:
//! * the three (C-3) procedures (DFS, SCC, ranking when available) agree and
//!   match the instance's expectation;
//! * cyclic + deterministic ⟹ the cycle compiles into a verified `Ω`
//!   configuration (sufficiency) and — where the hunter finds one — a live
//!   deadlock decompiles into a valid dependency cycle (necessity);
//! * acyclic + deterministic ⟹ a bounded randomized hunt finds no deadlock;
//! * the Dally–Seitz channel graph agrees with the port graph on cyclicity.

use genoc::depgraph::build::RoutingAnalysis;
use genoc::prelude::*;

fn hunt_options() -> HuntOptions {
    HuntOptions {
        attempts: 10,
        messages: 14,
        flits: 4,
        max_steps: 30_000,
        first_seed: 0,
    }
}

#[test]
fn acyclicity_matches_expectations_across_the_suite() {
    for instance in Instance::standard_suite() {
        let analysis = RoutingAnalysis::new(instance.net.as_ref(), instance.routing.as_ref());
        let dfs = find_cycle(&analysis.graph).is_some();
        let scc = is_cyclic_by_scc(&analysis.graph);
        assert_eq!(dfs, scc, "{}: DFS and SCC disagree", instance.name);
        assert_eq!(
            !dfs, instance.expect_acyclic,
            "{}: expected acyclic = {}",
            instance.name, instance.expect_acyclic
        );
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
            find_cycle(&pg).is_some(),
            find_cycle(&cg.graph).is_some(),
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
        let cycle = find_cycle(&g).expect("cyclic instance");
        let witness = deadlock_from_cycle(net, routing, &cycle)
            .unwrap_or_else(|e| panic!("{}: witness compilation failed: {e}", instance.name));
        witness.config.validate(net).unwrap();
        assert!(
            !witness.config.any_move_possible(),
            "{}: compiled witness is not deadlocked",
            instance.name
        );
    }
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
        let cycle = cycle_from_deadlock(net, &hunt.config)
            .unwrap_or_else(|e| panic!("{}: extraction failed: {e}", instance.name));
        assert!(
            genoc::depgraph::cycle::is_cycle_of(&g, &cycle),
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
        assert!(!report.cyclic, "{}", instance.name);
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
            let cycle = cycle_from_deadlock(&mesh, &r.config).unwrap();
            assert!(
                genoc::depgraph::cycle::is_cycle_of(&g, &cycle),
                "adaptive cycle must lie in the adaptive dependency graph"
            );
            return;
        }
    }
    panic!("no selection deadlocked in 100 seeds (probability < 1e-5)");
}
