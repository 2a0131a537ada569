//! End-to-end scenarios across every crate: topologies × routers × switching
//! policies, driven through the public API only.

use genoc::prelude::*;

fn evacuate(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    specs: &[MessageSpec],
) -> SimResult {
    let options = SimOptions {
        record_trace: true,
        check_invariants: true,
        ..SimOptions::default()
    };
    let result = simulate(net, routing, policy, specs, &options).expect("simulation error");
    assert!(
        result.evacuated(),
        "{} on {}: outcome {:?}",
        policy.name(),
        net.topology_name(),
        result.run.outcome
    );
    result
}

#[test]
fn hermes_4x4_transpose_under_all_policies() {
    let mesh = Mesh::builder(4, 4).capacity(4).local_capacity(4).build();
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::transpose(&mesh, 3);
    let [wh, vct, saf] =
        SwitchingKind::ALL.map(|kind| evacuate(&mesh, &routing, &mut Switching::new(kind), &specs));
    assert!(
        saf.run.steps >= vct.run.steps && saf.run.steps >= wh.run.steps,
        "store-and-forward must be slowest: saf {} vct {} wh {}",
        saf.run.steps,
        vct.run.steps,
        wh.run.steps
    );
}

#[test]
fn hotspot_traffic_on_mesh_evacuates() {
    let mesh = Mesh::new(4, 4, 2);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::hotspot(16, 64, 5, 70, 2, 13);
    let result = evacuate(&mesh, &routing, &mut Switching::default(), &specs);
    assert_eq!(result.run.config.arrived().len(), 64);
}

#[test]
fn spidergon_dateline_all_to_all() {
    let s = Spidergon::with_vcs(8, 2, 2);
    let routing = AcrossFirstDatelineRouting::new(&s);
    let specs = genoc::sim::workload::all_to_all(8, 2);
    let result = evacuate(&s, &routing, &mut Switching::default(), &specs);
    let corr = check_correctness(&s, &routing, &specs, &result.run);
    assert!(corr.holds(), "{:?}", corr.violations);
}

#[test]
fn torus_dateline_uniform_traffic() {
    let torus = Torus::with_vcs(4, 4, 2, 2);
    let routing = TorusDorDatelineRouting::new(&torus);
    let specs = genoc::sim::workload::uniform_random(16, 48, 1..=4, 21);
    evacuate(&torus, &routing, &mut Switching::default(), &specs);
}

#[test]
fn round_robin_arbitration_matches_fixed_on_arrivals() {
    let mesh = Mesh::new(3, 3, 2);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(9, 24, 1..=3, 5);
    let fixed = evacuate(
        &mesh,
        &routing,
        &mut Switching::wormhole(Arbitration::FixedPriority),
        &specs,
    );
    let rr = evacuate(
        &mesh,
        &routing,
        &mut Switching::wormhole(Arbitration::RoundRobin),
        &specs,
    );
    assert_eq!(
        fixed.run.config.arrived().len(),
        rr.run.config.arrived().len(),
        "both arbitrations deliver everything"
    );
}

#[test]
fn turn_model_graphs_are_acyclic_and_beat_minimal_adaptive() {
    let mesh = Mesh::new(4, 4, 1);
    for model in [
        TurnModel::WestFirst,
        TurnModel::NorthLast,
        TurnModel::NegativeFirst,
    ] {
        let g = port_dependency_graph(&mesh, &TurnModelRouting::new(&mesh, model));
        assert!(acyclicity(&g).is_acyclic(), "{model:?}");
    }
    let adaptive = port_dependency_graph(&mesh, &MinimalAdaptiveRouting::new(&mesh));
    assert!(!acyclicity(&adaptive).is_acyclic());
}

#[test]
fn latencies_scale_with_distance() {
    let mesh = Mesh::new(6, 1, 2);
    let routing = XyRouting::new(&mesh);
    let near = [MessageSpec::new(mesh.node(0, 0), mesh.node(1, 0), 2)];
    let far = [MessageSpec::new(mesh.node(0, 0), mesh.node(5, 0), 2)];
    let near_r = evacuate(&mesh, &routing, &mut Switching::default(), &near);
    let far_r = evacuate(&mesh, &routing, &mut Switching::default(), &far);
    assert!(far_r.latencies[0] > near_r.latencies[0]);
}

#[test]
fn deterministic_runs_are_reproducible() {
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(9, 20, 1..=4, 99);
    let a = evacuate(&mesh, &routing, &mut Switching::default(), &specs);
    let b = evacuate(&mesh, &routing, &mut Switching::default(), &specs);
    assert_eq!(a.run.steps, b.run.steps);
    assert_eq!(a.run.arrival_order, b.run.arrival_order);
}

#[test]
fn single_node_network_self_delivery() {
    let mesh = Mesh::new(1, 1, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(0, 0), 3)];
    let result = evacuate(&mesh, &routing, &mut Switching::default(), &specs);
    assert_eq!(result.run.config.arrived().len(), 1);
}

#[test]
fn line_reference_network_agrees_with_mesh_1xn() {
    // The core crate's line network and a 1xN mesh are the same topology;
    // the same workload takes the same number of steps.
    use genoc_core::line::{LineNetwork, LineRouting};
    let line = LineNetwork::new(5, 1);
    let line_routing = LineRouting::new(&line);
    let mesh = Mesh::new(5, 1, 1);
    let mesh_routing = XyRouting::new(&mesh);
    let specs = [
        MessageSpec::new(NodeId::from_index(0), NodeId::from_index(4), 3),
        MessageSpec::new(NodeId::from_index(4), NodeId::from_index(1), 2),
    ];
    let a = evacuate(&line, &line_routing, &mut Switching::default(), &specs);
    let b = evacuate(&mesh, &mesh_routing, &mut Switching::default(), &specs);
    assert_eq!(a.run.steps, b.run.steps);
}
