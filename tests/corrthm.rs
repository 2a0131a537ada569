//! The original GeNoC correctness theorem (CorrThm), executably: every
//! message reaching a destination was emitted at a valid source, was
//! destined there, and followed a valid route.

use genoc::prelude::*;

fn traced_sim(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
) -> SimResult {
    let options = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };
    simulate(net, routing, &mut Switching::default(), specs, &options).unwrap()
}

#[test]
fn corrthm_holds_on_mesh_torus_ring_spidergon() {
    let mesh = Mesh::new(3, 3, 2);
    let mesh_routing = XyRouting::new(&mesh);
    let mesh_specs = genoc::sim::workload::uniform_random(9, 30, 1..=4, 17);
    let r = traced_sim(&mesh, &mesh_routing, &mesh_specs);
    assert!(check_correctness(&mesh, &mesh_routing, &mesh_specs, &r.run).holds());

    let torus = Torus::with_vcs(3, 3, 2, 2);
    let torus_routing = TorusDorDatelineRouting::new(&torus);
    let torus_specs = genoc::sim::workload::uniform_random(9, 24, 1..=3, 23);
    let r = traced_sim(&torus, &torus_routing, &torus_specs);
    assert!(check_correctness(&torus, &torus_routing, &torus_specs, &r.run).holds());

    let ring = Ring::with_vcs(7, 2, 1);
    let ring_routing = RingDatelineRouting::new(&ring);
    let ring_specs = genoc::sim::workload::uniform_random(7, 20, 1..=4, 29);
    let r = traced_sim(&ring, &ring_routing, &ring_specs);
    assert!(check_correctness(&ring, &ring_routing, &ring_specs, &r.run).holds());

    let s = Spidergon::with_vcs(8, 2, 1);
    let s_routing = AcrossFirstDatelineRouting::new(&s);
    let s_specs = genoc::sim::workload::uniform_random(8, 20, 1..=3, 31);
    let r = traced_sim(&s, &s_routing, &s_specs);
    assert!(check_correctness(&s, &s_routing, &s_specs, &r.run).holds());
}

#[test]
fn corrthm_catches_forged_sources() {
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 2)];
    let r = traced_sim(&mesh, &routing, &specs);
    // Claim the message came from somewhere else.
    let forged = [MessageSpec::new(mesh.node(1, 1), mesh.node(2, 2), 2)];
    let report = check_correctness(&mesh, &routing, &forged, &r.run);
    assert!(!report.holds(), "forged source must be detected");
}

#[test]
fn corrthm_catches_forged_destinations() {
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 2)];
    let r = traced_sim(&mesh, &routing, &specs);
    let forged = [MessageSpec::new(mesh.node(0, 0), mesh.node(0, 2), 2)];
    let report = check_correctness(&mesh, &routing, &forged, &r.run);
    assert!(!report.holds(), "forged destination must be detected");
}

#[test]
fn corrthm_validates_against_the_declared_routing_function() {
    // A trace produced under XY is not a valid YX trace (on paths where the
    // disciplines differ).
    let mesh = Mesh::new(3, 3, 1);
    let xy = XyRouting::new(&mesh);
    let yx = YxRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 1)];
    let r = traced_sim(&mesh, &xy, &specs);
    assert!(check_correctness(&mesh, &xy, &specs, &r.run).holds());
    let cross = check_correctness(&mesh, &yx, &specs, &r.run);
    assert!(!cross.holds(), "XY trajectory must not validate under YX");
}

#[test]
fn corrthm_checks_every_flit_of_the_worm() {
    let mesh = Mesh::new(4, 1, 2);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(3, 0), 6)];
    let r = traced_sim(&mesh, &routing, &specs);
    let report = check_correctness(&mesh, &routing, &specs, &r.run);
    assert!(report.holds(), "{:?}", report.violations);
}

/// Index ≡ scans for every flit of `run`, and for one flit and one message
/// past the end.
fn assert_index_matches_scans(specs: &[MessageSpec], run: &RunResult, what: &str) {
    let index = run.trace.flit_index();
    for (m, spec) in specs.iter().chain([&specs[0]]).enumerate() {
        let id = MsgId::from_index(m);
        for f in 0..=spec.flits as u32 {
            assert_eq!(
                index.path(id, f),
                run.trace.flit_path(id, f),
                "{what}: path of {id} flit {f}"
            );
            assert_eq!(
                index.delivered(id, f),
                run.trace.flit_delivered(id, f),
                "{what}: delivery of {id} flit {f}"
            );
        }
    }
}

#[test]
fn the_flit_index_answers_what_the_trace_scans_answer() {
    use genoc::campaign::{scenario_seed, ScenarioMatrix};
    use genoc::verif::Instance;
    let options = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };
    for spec in ScenarioMatrix::smoke().expand() {
        let name = spec.name();
        let seed = scenario_seed(23, &name);
        let instance = Instance::from_meta(&spec.meta).unwrap();
        let (net, routing) = (instance.net.as_ref(), instance.routing.as_ref());
        let nodes = net.node_count();
        let specs = genoc::sim::workload::uniform_random(
            nodes.max(2),
            nodes * 4,
            1..=spec.workload_flits(6),
            seed,
        );
        let mut policy = Switching::new(spec.switching);
        let sim = if instance.deterministic {
            simulate(net, routing, &mut policy, &specs, &options)
        } else {
            let cfg = config_with_selected_routes(net, routing, &specs, seed).unwrap();
            simulate_config(net, &mut policy, cfg, &options, None, None)
        }
        .unwrap();
        assert!(!sim.run.trace.events().is_empty(), "{name}");
        assert!(check_correctness(net, routing, &specs, &sim.run).holds());
        assert_index_matches_scans(&specs, &sim.run, &name);
    }

    // A deadlocked run: the flits still in flight have partial paths and no
    // delivery, and the arrived list is short of the workload.
    let mesh = Mesh::new(3, 3, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let deadlocked = (0..64u64).find_map(|seed| {
        let specs = genoc::sim::workload::uniform_random(9, 40, 8..=8, seed);
        let sim = simulate(&mesh, &routing, &mut Switching::default(), &specs, &options).unwrap();
        (sim.run.outcome == Outcome::Deadlock).then_some((specs, sim))
    });
    let (specs, sim) = deadlocked.expect("heavy mixed traffic deadlocks");
    assert!(sim
        .run
        .config
        .travels()
        .iter()
        .any(Travel::occupies_network));
    assert_index_matches_scans(&specs, &sim.run, "deadlocked 3x3");
}
