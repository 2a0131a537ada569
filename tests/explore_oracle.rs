//! Differential oracle: the exhaustive explorer, the static dependency
//! graph, and the greedy bounded hunts must tell one consistent story on
//! every cell of the oracle matrix.
//!
//! The three analyses see different slices of the truth, so agreement is a
//! lattice of one-directional implications rather than an equivalence:
//!
//! * acyclic dependency graph ⟹ the explorer finds no reachable deadlock
//!   (Theorem 1's sufficiency direction, checked exhaustively);
//! * explorer deadlock ⟹ the graph is cyclic (contrapositive, and the
//!   constructive refutation of (C-3) on the comparators);
//! * greedy deadlock on a workload ⟹ explorer deadlock on the same
//!   workload (the greedy schedule is one of the explored interleavings);
//! * explorer exhaustive proof ⟹ the greedy run cannot deadlock.
//!
//! Any disagreement prints the minimal counterexample trace so the failing
//! interleaving can be replayed by hand.

use genoc::prelude::*;

/// Re-explores a cell's pressure workload and renders the minimal trace,
/// for failure messages. Returns an empty string when no deadlock is
/// reachable at these settings (the disagreement is then in the other
/// direction and the tier summaries tell the story).
fn rendered_trace(instance: &Instance, switching: SwitchingKind, flits: usize) -> String {
    let policy = Switching::new(switching);
    let specs = pressure_specs(&instance.meta, flits);
    let options = ExploreOptions {
        max_states: 200_000,
        ..ExploreOptions::default()
    };
    match explore_policy(
        instance.net.as_ref(),
        instance.routing.as_ref(),
        &instance.meta,
        &specs,
        &policy,
        &options,
    ) {
        Ok(result) => match result.counterexample() {
            Some(cex) => {
                let lines: Vec<String> = cex
                    .trace
                    .iter()
                    .enumerate()
                    .map(|(i, mv)| format!("  {i:>4}  {mv}"))
                    .collect();
                format!("minimal trace:\n{}", lines.join("\n"))
            }
            None => String::new(),
        },
        Err(e) => format!("(re-exploration failed: {e})"),
    }
}

#[test]
fn every_oracle_cell_agrees_with_static_and_greedy_analyses() {
    let cells = ScenarioMatrix::oracle().expand();
    assert!(!cells.is_empty());
    let mut explored_cells = 0usize;
    let mut counterexamples = 0usize;
    for cell in &cells {
        let instance = Instance::from_meta(&cell.meta)
            .unwrap_or_else(|e| panic!("{}: construction failed: {e}", cell.name()));
        if !instance.deterministic {
            // The explorer executes pre-computed routes; adaptive cells are
            // covered by their deterministic selections elsewhere.
            continue;
        }
        explored_cells += 1;
        let report = explore_check(&instance, cell.switching, &ExploreCheckOptions::default())
            .unwrap_or_else(|e| panic!("{}: explore_check failed: {e}", cell.name()));

        // The report's own cross-validation: exhaustive tiers terminate,
        // greedy hunts agree with the exhaustive verdict, counterexample
        // traces are depth-minimal.
        let tiers: Vec<String> = report.tiers.iter().map(|t| t.summary()).collect();
        assert!(
            report.holds(),
            "{}: explorer disagrees with the greedy analyses:\n  {}\ntiers:\n  {}\n{}",
            cell.name(),
            report.violations.join("\n  "),
            tiers.join("\n  "),
            rendered_trace(&instance, cell.switching, 2),
        );

        // Static cross-check: the explorer may only reach a deadlock when
        // the dependency graph is cyclic, and an acyclic graph forces an
        // exhaustive no-deadlock verdict on every tier.
        let graph = port_dependency_graph(instance.net.as_ref(), instance.routing.as_ref());
        let cyclic = !acyclicity(&graph).is_acyclic();
        if report.counterexample_found {
            assert!(
                cyclic,
                "{}: reachable deadlock but the static graph is acyclic — \
                 Theorem 1 sufficiency refuted\ntiers:\n  {}\n{}",
                cell.name(),
                tiers.join("\n  "),
                rendered_trace(&instance, cell.switching, 2),
            );
            counterexamples += 1;
        }
        if !cyclic {
            for tier in &report.tiers {
                assert_eq!(
                    tier.verdict,
                    "no-deadlock",
                    "{}: acyclic graph but tier {:?} did not prove deadlock-freedom",
                    cell.name(),
                    tier.tier
                );
            }
        }
    }
    assert!(explored_cells >= 24, "only {explored_cells} cells explored");
    assert!(
        counterexamples >= 1,
        "no cyclic comparator cell produced a reachable deadlock — \
         the oracle matrix has lost its counterexample cells"
    );
}

#[test]
fn minimal_counterexamples_replay_and_beat_the_greedy_witness() {
    // The two cheap cyclic cells: capacity 1, whole-packet pressure.
    for instance in [Instance::ring_shortest(4, 1), Instance::mesh_mixed(2, 2, 1)] {
        let specs = pressure_specs(&instance.meta, 2);
        let net = instance.net.as_ref();
        let routing = instance.routing.as_ref();
        let result = explore(
            net,
            routing,
            &instance.meta,
            &specs,
            &genoc_core::step::AlwaysAdmit,
            &ExploreOptions::default(),
        )
        .unwrap();
        let cex = result
            .counterexample()
            .unwrap_or_else(|| panic!("{}: pressure must deadlock at capacity 1", instance.name));

        // The trace replays move-for-move into a live deadlock.
        let replayed = replay(net, routing, &specs, &cex.trace).unwrap();
        assert!(
            !replayed.any_move_possible(),
            "{}: replayed trace is not deadlocked",
            instance.name
        );

        // BFS minimality: the greedy run cannot reach its deadlock in fewer
        // flit moves than the minimal trace (each move lowers the progress
        // measure by exactly one).
        let initial = replay(net, routing, &specs, &[]).unwrap();
        let mut policy = Switching::default();
        let hunt = hunt_workload(net, routing, &mut policy, &specs, 0, 50_000)
            .unwrap()
            .unwrap_or_else(|| panic!("{}: greedy run must deadlock too", instance.name));
        let greedy_moves = (initial.progress_measure() - hunt.config.progress_measure()) as usize;
        assert!(
            cex.trace.len() <= greedy_moves,
            "{}: minimal trace {} exceeds the greedy run's {} moves",
            instance.name,
            cex.trace.len(),
            greedy_moves
        );

        // The hunt's workload, explored without symmetry and with ample
        // sets, reaches its deadlock at the same minimal depth.
        let asymmetric = explore_policy(
            net,
            routing,
            &instance.meta,
            &hunt.specs,
            &policy,
            &ExploreOptions {
                symmetry: false,
                por: true,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let direct = asymmetric
            .counterexample()
            .unwrap_or_else(|| panic!("{}: the hunt's workload must deadlock", instance.name));
        assert_eq!(
            direct.trace.len(),
            cex.trace.len(),
            "{}: two BFS explorations disagree on the minimal depth",
            instance.name
        );
    }
}
