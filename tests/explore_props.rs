//! Property-based validation of the exhaustive explorer.
//!
//! * **Symmetry soundness**: exploring a workload and exploring its image
//!   under a route-preserving node automorphism (ring rotation, mesh
//!   half-turn) yield identical verdicts, state counts, and depths — with
//!   and without the symmetry quotient. The two state graphs are isomorphic
//!   by construction, so any difference is a canonicalization bug.
//! * **Counterexample soundness**: whenever the explorer reports a
//!   deadlock, the minimal trace replays move-for-move into a configuration
//!   where `Ω` holds and the exact online detector confirms a wait-for
//!   cycle. (The greedy simulation cannot serve as the confirming run here:
//!   a reachable deadlock need not be reached by the greedy schedule, which
//!   is exactly why the explorer exists.)

use genoc::prelude::*;
use genoc_core::step::AlwaysAdmit;
use proptest::collection::vec;
use proptest::prelude::*;

/// A workload drawn as (source, dest, flits) triples over `nodes` nodes,
/// self-sends filtered out (a self-send has an empty route and no moves).
fn workload_strategy(
    nodes: usize,
    max_messages: usize,
    max_flits: usize,
) -> impl Strategy<Value = Vec<MessageSpec>> {
    vec((0..nodes, 0..nodes, 1..=max_flits), 1..=max_messages).prop_map(|triples| {
        triples
            .into_iter()
            .filter(|(s, d, _)| s != d)
            .map(|(s, d, f)| MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), f))
            .collect()
    })
}

fn permuted(specs: &[MessageSpec], perm: &dyn Fn(usize) -> usize) -> Vec<MessageSpec> {
    specs
        .iter()
        .map(|s| {
            MessageSpec::new(
                NodeId::from_index(perm(s.source.index())),
                NodeId::from_index(perm(s.dest.index())),
                s.flits,
            )
        })
        .collect()
}

fn assert_permutation_invariance(
    instance: &Instance,
    specs: &[MessageSpec],
    perm: &dyn Fn(usize) -> usize,
) -> Result<(), TestCaseError> {
    let net = instance.net.as_ref();
    let routing = instance.routing.as_ref();
    let mapped = permuted(specs, perm);
    for symmetry in [true, false] {
        let options = ExploreOptions {
            max_states: 60_000,
            symmetry,
            ..ExploreOptions::default()
        };
        let a = explore(net, routing, &instance.meta, specs, &AlwaysAdmit, &options)
            .map_err(|e| TestCaseError::fail(format!("explore: {e}")))?;
        let b = explore(
            net,
            routing,
            &instance.meta,
            &mapped,
            &AlwaysAdmit,
            &options,
        )
        .map_err(|e| TestCaseError::fail(format!("explore (permuted): {e}")))?;
        prop_assert_eq!(
            a.verdict.label(),
            b.verdict.label(),
            "{} (symmetry {}): verdicts differ under a node automorphism",
            instance.name,
            symmetry
        );
        prop_assert_eq!(
            a.states,
            b.states,
            "{} (symmetry {}): canonical state counts differ",
            instance.name,
            symmetry
        );
        prop_assert_eq!(
            a.depth,
            b.depth,
            "{} (symmetry {}): exploration depths differ",
            instance.name,
            symmetry
        );
    }
    Ok(())
}

fn assert_counterexamples_replay(
    instance: &Instance,
    specs: &[MessageSpec],
) -> Result<(), TestCaseError> {
    let net = instance.net.as_ref();
    let routing = instance.routing.as_ref();
    let options = ExploreOptions {
        max_states: 60_000,
        ..ExploreOptions::default()
    };
    let result = explore(net, routing, &instance.meta, specs, &AlwaysAdmit, &options)
        .map_err(|e| TestCaseError::fail(format!("explore: {e}")))?;
    let Some(cex) = result.counterexample() else {
        return Ok(());
    };
    let replayed = replay(net, routing, specs, &cex.trace)
        .map_err(|e| TestCaseError::fail(format!("replay: {e}")))?;
    prop_assert!(
        !replayed.any_move_possible(),
        "{}: replayed counterexample is not deadlocked",
        instance.name
    );
    prop_assert!(
        !replayed.travels().is_empty(),
        "{}: an evacuated configuration is no deadlock",
        instance.name
    );
    // A fresh diff logs every blocked travel: the detector's one feed.
    let parks = BlockDiff::default().step(&replayed, &[]).to_vec();
    let cycle = ExactDetector::new().apply_kernel_transitions(&replayed, &parks);
    let cycle = cycle.ok_or_else(|| {
        TestCaseError::fail(format!(
            "{}: exact detector saw no wait-for cycle in the replayed deadlock",
            instance.name
        ))
    })?;
    prop_assert!(!cycle.msgs.is_empty());
    for &m in &cycle.msgs {
        prop_assert!(
            replayed.travel_by_id(m).is_some(),
            "{}: detector cycle names a message not in the configuration",
            instance.name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn ring_rotations_preserve_the_state_space(
        specs in workload_strategy(4, 4, 2),
        rot in 1usize..4,
    ) {
        let instance = Instance::ring_shortest(4, 1);
        assert_permutation_invariance(&instance, &specs, &|i| (i + rot) % 4)?;
    }

    #[test]
    fn mesh_half_turns_preserve_the_state_space(specs in workload_strategy(4, 4, 2)) {
        // The 180° rotation of the mesh maps XY routes to XY routes.
        let instance = Instance::mesh_xy(2, 2, 1);
        assert_permutation_invariance(&instance, &specs, &|i| 3 - i)?;
    }

    #[test]
    fn mixed_mesh_counterexamples_replay_to_confirmed_deadlocks(
        specs in workload_strategy(4, 5, 3),
    ) {
        assert_counterexamples_replay(&Instance::mesh_mixed(2, 2, 1), &specs)?;
    }

    #[test]
    fn ring_counterexamples_replay_to_confirmed_deadlocks(
        specs in workload_strategy(4, 5, 3),
    ) {
        assert_counterexamples_replay(&Instance::ring_shortest(4, 1), &specs)?;
    }
}
