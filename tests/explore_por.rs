//! Differential validation of the reduced and parallel explorers.
//!
//! The partial-order reduction (ample sets, `genoc_explore::por`) and the
//! sharded parallel frontier are *optimizations*: both must reproduce the
//! sequential full-BFS verdict exactly on every cell of the oracle matrix —
//! same verdict, same minimal counterexample depth, same trace length. On
//! complete explorations the parallel frontier without POR must even
//! reproduce the exact canonical state and transition counts, since it
//! explores the identical graph. (On deadlock cells only the verdict-facing
//! numbers are comparable: the sequential search stops mid-level at the
//! first dead state while the level-synchronized frontier finishes the
//! level, so the incidental traversal counts differ.)
//!
//! The suite sweeps every deterministic oracle cell at the exhaustive-tier
//! workload size, then property-tests that worker count and shard count
//! never leak into any observable outcome on randomly drawn workloads.

use genoc::prelude::*;
use genoc_core::step::AlwaysAdmit;
use proptest::collection::vec;
use proptest::prelude::*;

#[test]
fn por_and_parallel_match_full_bfs_on_every_oracle_cell() {
    let cells = ScenarioMatrix::oracle().expand();
    assert!(!cells.is_empty());
    let mut checked = 0usize;
    let mut deadlock_cells = 0usize;
    let mut reduced_cells = 0usize;
    // The cyclic comparators ride along at their *full* pressure workload:
    // truncating to the exhaustive-tier message count breaks the 4-message
    // wait cycle, and the counterexample comparison needs real deadlocks.
    let comparators = [
        (Instance::ring_shortest(4, 1), SwitchingKind::Wormhole),
        (Instance::mesh_mixed(2, 2, 1), SwitchingKind::Wormhole),
    ];
    let sweep = cells
        .iter()
        .map(|cell| {
            let instance = Instance::from_meta(&cell.meta)
                .unwrap_or_else(|e| panic!("{}: construction failed: {e}", cell.name()));
            (instance, cell.switching, 3usize)
        })
        .chain(
            comparators
                .into_iter()
                .map(|(instance, switching)| (instance, switching, 0)),
        );
    for (instance, switching, truncate) in sweep {
        if !instance.deterministic {
            continue;
        }
        checked += 1;
        // Exhaustive-tier sizing: few messages, worms capped at the capacity
        // for whole-packet switching so every variant enumerates completely.
        let flits = switching.workload_flits(2, instance.meta.capacity);
        let mut specs = pressure_specs(&instance.meta, flits);
        if truncate > 0 {
            specs.truncate(truncate);
        }
        let policy = Switching::new(switching);
        let run = |options: &ExploreOptions| {
            explore_policy(
                instance.net.as_ref(),
                instance.routing.as_ref(),
                &instance.meta,
                &specs,
                &policy,
                options,
            )
            .unwrap_or_else(|e| panic!("{}: exploration failed: {e}", instance.name))
        };
        let base = ExploreOptions {
            max_states: 200_000,
            ..ExploreOptions::default()
        };
        let full = run(&base);
        assert!(
            !matches!(full.verdict, Verdict::BoundExceeded),
            "{}: the reference search must enumerate completely",
            instance.name
        );
        if full.counterexample().is_some() {
            deadlock_cells += 1;
        }
        for (label, options) in [
            (
                "por",
                ExploreOptions {
                    por: true,
                    ..base.clone()
                },
            ),
            (
                "jobs=2",
                ExploreOptions {
                    jobs: 2,
                    ..base.clone()
                },
            ),
            (
                "jobs=3 shards=5",
                ExploreOptions {
                    jobs: 3,
                    shards: 5,
                    ..base.clone()
                },
            ),
            (
                "por jobs=2 shards=3",
                ExploreOptions {
                    por: true,
                    jobs: 2,
                    shards: 3,
                    ..base.clone()
                },
            ),
            // A spilling run under a punitive memory budget must still be
            // observationally sequential: residence is not an observable.
            (
                "jobs=2 spill",
                ExploreOptions {
                    jobs: 2,
                    mem_limit: Some(32 * 1024),
                    spill_dir: Some(std::env::temp_dir()),
                    ..base.clone()
                },
            ),
        ] {
            let variant = run(&options);
            assert_eq!(
                variant.verdict.label(),
                full.verdict.label(),
                "{} [{label}]: verdict differs from the sequential full BFS",
                instance.name
            );
            assert_eq!(
                variant.counterexample().map(|c| c.trace.len()),
                full.counterexample().map(|c| c.trace.len()),
                "{} [{label}]: minimal counterexample length differs",
                instance.name
            );
            if variant.counterexample().is_some() {
                assert_eq!(
                    variant.depth, full.depth,
                    "{} [{label}]: minimal deadlock depth differs",
                    instance.name
                );
            }
            if options.por {
                assert!(
                    variant.states <= full.states,
                    "{} [{label}]: the reduction stored more states ({}) than the full \
                     search ({})",
                    instance.name,
                    variant.states,
                    full.states
                );
                if variant.states < full.states {
                    reduced_cells += 1;
                }
            } else if full.counterexample().is_none() {
                // Without POR, a *complete* parallel exploration visits the
                // identical graph: every count is byte-for-byte sequential.
                assert_eq!(
                    (variant.states, variant.transitions, variant.depth),
                    (full.states, full.transitions, full.depth),
                    "{} [{label}]: parallel full search diverged from sequential",
                    instance.name
                );
            } else {
                // Deadlock stop: the searches halt at different points of
                // the final level, but no variant may store more states.
                assert!(
                    variant.states <= full.states,
                    "{} [{label}]: parallel search stored more states ({}) than \
                     sequential ({})",
                    instance.name,
                    variant.states,
                    full.states
                );
            }
        }
    }
    assert!(checked >= 24, "only {checked} oracle cells checked");
    assert!(
        deadlock_cells >= 1,
        "no deadlock cell exercised the counterexample comparison"
    );
    assert!(
        reduced_cells >= 1,
        "the ample sets never pruned anything on any oracle cell"
    );
}

/// The 2×2 corner storm (four 4-flit worms across the mixed XY/YX mesh),
/// explored without symmetry: the ample sets keep the full search's minimal
/// deadlock depth, and the reduced search's trace replays into `Ω`.
#[test]
fn por_keeps_the_corner_storm_minimal_depth_without_symmetry() {
    let instance = Instance::mesh_mixed(2, 2, 1);
    let (net, routing) = (instance.net.as_ref(), instance.routing.as_ref());
    let specs = genoc::sim::workload::bit_complement(&Mesh::new(2, 2, 1), 4);
    let run = |por: bool| {
        let options = ExploreOptions {
            symmetry: false,
            por,
            ..ExploreOptions::default()
        };
        explore(net, routing, &instance.meta, &specs, &AlwaysAdmit, &options).unwrap()
    };
    let (reduced, full) = (run(true), run(false));
    let trace = &reduced
        .counterexample()
        .expect("the corner storm deadlocks under POR")
        .trace;
    let full_trace = &full
        .counterexample()
        .expect("the corner storm deadlocks under the full search")
        .trace;
    assert_eq!(trace.len(), full_trace.len());
    assert!(
        reduced.states < full.states,
        "the ample sets pruned nothing"
    );
    let replayed = replay(net, routing, &specs, trace).unwrap();
    assert!(!replayed.travels().is_empty());
    assert!(
        !replayed.any_move_possible(),
        "the minimal trace must replay into a deadlock"
    );
}

/// A workload drawn as (source, dest, flits) triples, self-sends filtered.
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

fn explore_with(
    instance: &Instance,
    specs: &[MessageSpec],
    options: &ExploreOptions,
) -> Result<Exploration, TestCaseError> {
    explore(
        instance.net.as_ref(),
        instance.routing.as_ref(),
        &instance.meta,
        specs,
        &AlwaysAdmit,
        options,
    )
    .map_err(|e| TestCaseError::fail(format!("explore: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Worker and shard counts are scheduling knobs, and disk spill is a
    /// residence knob: with POR off, every observable outcome — verdict,
    /// state count, transition count, depth, trace length — is identical to
    /// the sequential search's.
    #[test]
    fn jobs_and_shards_never_change_the_outcome(
        specs in workload_strategy(4, 4, 3),
        jobs in 2usize..5,
        shards in 0usize..7,
        spill_draw in 0usize..2,
    ) {
        let spill = spill_draw == 1;
        let instance = Instance::ring_shortest(4, 1);
        let base = ExploreOptions { max_states: 60_000, ..ExploreOptions::default() };
        let seq = explore_with(&instance, &specs, &base)?;
        prop_assert_ne!(seq.verdict.label(), "bound", "draws must enumerate completely");
        let par = explore_with(&instance, &specs, &ExploreOptions {
            jobs,
            shards,
            // A punitive budget so spilling runs actually spill.
            mem_limit: spill.then_some(16 * 1024),
            spill_dir: spill.then(std::env::temp_dir),
            ..base.clone()
        })?;
        prop_assert_eq!(seq.verdict.label(), par.verdict.label());
        prop_assert_eq!(seq.depth, par.depth);
        if seq.counterexample().is_none() {
            prop_assert_eq!(
                (seq.states, seq.transitions),
                (par.states, par.transitions),
                "jobs={} shards={} spill={} changed the explored space", jobs, shards, spill
            );
        }
        prop_assert_eq!(
            seq.counterexample().map(|c| c.trace.len()),
            par.counterexample().map(|c| c.trace.len())
        );
    }

    /// The ample-set reduction may prune states but never the answer: the
    /// verdict and the minimal counterexample depth survive any
    /// jobs/shards/spill combination stacked on top of POR.
    #[test]
    fn por_preserves_the_verdict_under_any_sharding(
        specs in workload_strategy(4, 4, 3),
        jobs in 1usize..4,
        shards in 0usize..5,
        spill_draw in 0usize..2,
    ) {
        let spill = spill_draw == 1;
        let instance = Instance::mesh_mixed(2, 2, 1);
        let base = ExploreOptions { max_states: 60_000, ..ExploreOptions::default() };
        let seq = explore_with(&instance, &specs, &base)?;
        prop_assert_ne!(seq.verdict.label(), "bound", "draws must enumerate completely");
        let por = explore_with(
            &instance,
            &specs,
            &ExploreOptions {
                por: true,
                jobs,
                shards,
                mem_limit: spill.then_some(16 * 1024),
                spill_dir: spill.then(std::env::temp_dir),
                ..base.clone()
            },
        )?;
        prop_assert_eq!(seq.verdict.label(), por.verdict.label());
        prop_assert!(por.states <= seq.states);
        prop_assert_eq!(
            seq.counterexample().map(|c| c.trace.len()),
            por.counterexample().map(|c| c.trace.len())
        );
        if por.counterexample().is_some() {
            prop_assert_eq!(seq.depth, por.depth, "minimal deadlock depth moved under POR");
        }
    }
}
