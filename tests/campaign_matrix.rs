//! Property-based coverage of the scenario matrix: expansion counts are
//! the exact product of the valid dimensions, predicate filters remove
//! precisely what they veto, and every instance a matrix can emit passes
//! the registry's well-formedness invariants.

use genoc::prelude::*;
use proptest::prelude::*;

/// Expansion count is the product of the dimension sizes when every
/// combination is valid.
#[test]
fn expansion_counts_are_exact_products() {
    let m = ScenarioMatrix::empty()
        .routings([RoutingKind::Xy, RoutingKind::Yx, RoutingKind::MixedXyYx])
        .switchings(SwitchingKind::ALL)
        .mesh_sizes([(2, 2), (3, 2), (3, 3), (4, 4)])
        .capacities([1, 2]);
    assert_eq!(m.expand().len(), 3 * 3 * 4 * 2);

    // Mixing topologies: each routing kind multiplies with its own
    // topology's size list only.
    let m = ScenarioMatrix::empty()
        .routings([RoutingKind::Xy, RoutingKind::RingShortest])
        .switchings([SwitchingKind::Wormhole])
        .mesh_sizes([(2, 2), (3, 3)])
        .ring_sizes([4, 6, 8])
        .capacities([1]);
    assert_eq!(m.expand().len(), 2 + 3);
}

/// Filters compose conjunctively and report the veto count.
#[test]
fn filters_remove_exactly_what_they_veto() {
    let base = || {
        ScenarioMatrix::empty()
            .routings([RoutingKind::Xy])
            .switchings(SwitchingKind::ALL)
            .mesh_sizes([(2, 2), (3, 3)])
            .capacities([1, 2, 4])
    };
    let unfiltered = base().expand();
    let wormhole_only = base()
        .filter(|s| s.switching == SwitchingKind::Wormhole)
        .expand_with_stats();
    assert_eq!(
        wormhole_only.scenarios.len() + wormhole_only.filtered,
        unfiltered.len()
    );
    assert!(wormhole_only
        .scenarios
        .iter()
        .all(|s| s.switching == SwitchingKind::Wormhole));

    // Two filters conjoin.
    let both = base()
        .filter(|s| s.switching == SwitchingKind::Wormhole)
        .filter(|s| s.meta.capacity >= 2)
        .expand();
    assert_eq!(both.len(), 2 * 2, "two sizes x two surviving capacities");
}

/// Unconstructible combinations are dropped with accounting, never panics.
#[test]
fn invalid_combinations_are_accounted_not_fatal() {
    let e = ScenarioMatrix::empty()
        .routings([RoutingKind::AcrossFirst, RoutingKind::AcrossFirstDateline])
        .switchings([SwitchingKind::Wormhole])
        .spidergon_sizes([3, 4, 7, 8]) // 3 and 7 are odd: invalid
        .capacities([1, 0]) // capacity 0: invalid
        .expand_with_stats();
    assert_eq!(e.candidates, 2 * 4 * 2);
    assert_eq!(e.scenarios.len(), 2 * 2, "two even sizes, one capacity");
    assert_eq!(e.invalid, e.candidates - e.scenarios.len());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every scenario any matrix can emit builds an instance that passes
    /// the registry's well-formedness invariants, agrees with its spec, and
    /// derives a stable scenario seed.
    #[test]
    fn every_matrix_instance_is_well_formed(
        routing_index in 0usize..13,
        mesh in (2usize..=5, 2usize..=5),
        ring in 2usize..=10,
        spidergon_half in 2usize..=8,
        capacity in 1u32..=4,
        switching_index in 0usize..3,
    ) {
        let routing = RoutingKind::ALL[routing_index];
        let switching = SwitchingKind::ALL[switching_index];
        let scenarios = ScenarioMatrix::empty()
            .routings([routing])
            .switchings([switching])
            .mesh_sizes([mesh])
            .torus_sizes([mesh])
            .ring_sizes([ring])
            .spidergon_sizes([2 * spidergon_half])
            .capacities([capacity])
            .expand();
        prop_assert_eq!(scenarios.len(), 1, "one valid combination per draw");
        let spec = scenarios[0];

        let instance = Instance::from_meta(&spec.meta)
            .map_err(|e| TestCaseError::fail(format!("from_meta: {e}")))?;
        if let Err(e) = instance.well_formed() {
            return Err(TestCaseError::fail(format!("well_formed: {e}")));
        }
        prop_assert_eq!(instance.meta, spec.meta);
        prop_assert_eq!(instance.name, spec.meta.instance_name());
        prop_assert_eq!(instance.deterministic, spec.meta.routing.is_deterministic());

        // Scenario seeds are a pure function of (campaign seed, name).
        let name = spec.name();
        prop_assert_eq!(scenario_seed(3, &name), scenario_seed(3, &name));

        // Whole-packet policies never draw workloads above capacity.
        let flits = spec.workload_flits(8);
        if spec.switching.requires_whole_packet_buffering() {
            prop_assert!(flits <= spec.meta.capacity as usize);
        } else {
            prop_assert_eq!(flits, 8);
        }
    }

    /// The standard matrix's scenarios expand deterministically: two
    /// expansions agree element-wise.
    #[test]
    fn expansion_is_deterministic(_case in 0u32..2) {
        let a = ScenarioMatrix::standard().expand();
        let b = ScenarioMatrix::standard().expand();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x, y);
        }
    }
}

/// The acceptance floor: the default matrix expands to at least 500
/// runnable scenarios and a small slice of it runs green end to end.
#[test]
fn standard_matrix_meets_the_scale_floor_and_runs() {
    let scenarios = ScenarioMatrix::standard().expand();
    assert!(scenarios.len() >= 500, "{}", scenarios.len());

    // Run one shard's worth (every 30th scenario) through the executor.
    let slice: Vec<ScenarioSpec> = scenarios.into_iter().step_by(30).collect();
    let report = run_campaign(
        &slice,
        &CampaignOptions {
            jobs: 2,
            seed: 9,
            effort: EffortProfile::quick(),
            matrix: "standard-slice".into(),
            wal_dir: None,
        },
    );
    assert!(report.all_passed(), "{}", report.render_markdown());
    assert_eq!(report.total(), slice.len());
    let json = report.to_json();
    assert!(json.contains("\"matrix\":\"standard-slice\""));
}

/// The `campaign-full` benchmark's slice — every 4th cell of the full
/// matrix at seed 23, standard effort, two jobs — with the outputs the
/// benchmark holds it to: every cell passes, and the check and deadlock
/// counts are exact, so a change to any check's verdict, to which checks a
/// cell runs or to what a hunt finds shows here before it shows there.
#[test]
fn the_full_matrix_benchmark_slice_is_pinned() {
    let slice: Vec<ScenarioSpec> = ScenarioMatrix::full()
        .expand()
        .into_iter()
        .step_by(4)
        .collect();
    let report = run_campaign(
        &slice,
        &CampaignOptions {
            jobs: 2,
            seed: 23,
            effort: EffortProfile::standard(),
            matrix: "full".into(),
            wal_dir: None,
        },
    );
    let checks: usize = report.outcomes.iter().map(|o| o.checks.len()).sum();
    assert_eq!(report.total(), 252);
    assert_eq!(report.passed(), 252, "{}", report.render_markdown());
    assert_eq!(checks, 2_772);
    assert_eq!(report.deadlocks_seen(), 48);
}
