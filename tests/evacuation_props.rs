//! Property-based evacuation: Theorem 2 over randomly drawn instances and
//! workloads.
//!
//! For any mesh size, buffer depth, workload and message lengths, a run
//! under XY routing and wormhole switching terminates with `A = T`, with
//! both measures behaving as specified and every configuration invariant
//! intact. Ditto for the dateline ring and torus.

use genoc::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

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

fn assert_evacuates(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
) -> Result<(), TestCaseError> {
    let cfg = Config::from_specs(net, routing, specs)
        .map_err(|e| TestCaseError::fail(format!("config: {e}")))?;
    let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
    let options = RunOptions {
        check_invariants: true,
        record_measures: true,
        ..RunOptions::default()
    };
    let result = run(
        net,
        &IdentityInjection,
        &mut Switching::default(),
        cfg,
        &options,
    )
    .map_err(|e| TestCaseError::fail(format!("run: {e}")))?;
    prop_assert_eq!(result.outcome, Outcome::Evacuated);
    let evac = check_evacuation(&injected, &result);
    prop_assert!(
        evac.holds,
        "missing {:?}, unexpected {:?}",
        evac.missing,
        evac.unexpected
    );
    // mu_xy weakly decreases; the progress measure strictly decreases.
    for w in result.measures.windows(2) {
        prop_assert!(w[1].0 <= w[0].0, "mu_xy increased");
        prop_assert!(w[1].1 < w[0].1, "progress stalled");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn xy_mesh_always_evacuates(
        w in 1usize..=4,
        h in 1usize..=4,
        capacity in 1u32..=3,
        seed in 0u64..1000,
        messages in 0usize..=16,
        max_flits in 1usize..=5,
    ) {
        let mesh = Mesh::new(w, h, capacity);
        let routing = XyRouting::new(&mesh);
        let nodes = mesh.node_count();
        let specs = if nodes >= 2 {
            genoc::sim::workload::uniform_random(nodes, messages, 1..=max_flits, seed)
        } else {
            vec![MessageSpec::new(NodeId::from_index(0), NodeId::from_index(0), max_flits); messages.min(3)]
        };
        assert_evacuates(&mesh, &routing, &specs)?;
    }

    #[test]
    fn yx_mesh_always_evacuates(
        w in 1usize..=3,
        h in 1usize..=4,
        capacity in 1u32..=2,
        seed in 0u64..500,
        messages in 0usize..=12,
    ) {
        let mesh = Mesh::new(w, h, capacity);
        let routing = YxRouting::new(&mesh);
        let nodes = mesh.node_count();
        if nodes >= 2 {
            let specs = genoc::sim::workload::uniform_random(nodes, messages, 1..=4, seed);
            assert_evacuates(&mesh, &routing, &specs)?;
        }
    }

    #[test]
    fn dateline_ring_always_evacuates(
        nodes in 2usize..=8,
        capacity in 1u32..=2,
        seed in 0u64..500,
        messages in 0usize..=12,
        flits in 1usize..=4,
    ) {
        let ring = Ring::with_vcs(nodes, 2, capacity);
        let routing = RingDatelineRouting::new(&ring);
        let specs = genoc::sim::workload::uniform_random(nodes, messages, 1..=flits, seed);
        assert_evacuates(&ring, &routing, &specs)?;
    }

    #[test]
    fn dateline_torus_always_evacuates(
        w in 2usize..=4,
        h in 2usize..=4,
        seed in 0u64..300,
        messages in 0usize..=10,
    ) {
        let torus = Torus::with_vcs(w, h, 2, 1);
        let routing = TorusDorDatelineRouting::new(&torus);
        let specs = genoc::sim::workload::uniform_random(w * h, messages, 1..=4, seed);
        assert_evacuates(&torus, &routing, &specs)?;
    }

    #[test]
    fn arbitrary_workloads_on_3x3_mesh(specs in workload_strategy(9, 14, 5)) {
        let mesh = Mesh::new(3, 3, 1);
        let routing = XyRouting::new(&mesh);
        assert_evacuates(&mesh, &routing, &specs)?;
    }

    #[test]
    fn routes_are_always_duplicate_free(
        w in 1usize..=5,
        h in 1usize..=5,
        s in 0usize..25,
        d in 0usize..25,
    ) {
        let mesh = Mesh::new(w, h, 1);
        let nodes = mesh.node_count();
        let (s, d) = (s % nodes, d % nodes);
        let routing = XyRouting::new(&mesh);
        let route = compute_route(
            &mesh,
            &routing,
            mesh.local_in(NodeId::from_index(s)),
            mesh.local_out(NodeId::from_index(d)),
        ).unwrap();
        let mut sorted: Vec<_> = route.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), route.len(), "route visits a port twice");
    }
}
