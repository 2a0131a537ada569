//! Facade smoke test: the quickstart paths end to end through `genoc::prelude`.
//!
//! Two flavours, mirroring the two doc examples:
//!
//! * the `genoc-core` line-network example (4-node line, two crossing
//!   messages, `check_evacuation`), exactly as the crate-level docs show it;
//! * the mesh quickstart (`examples/quickstart.rs`): obligations (C-1)…(C-5),
//!   acyclic dependency graph, and a traced run with all three theorems.

use genoc::prelude::*;
use genoc_core::line::{LineNetwork, LineRouting, LineSwitching};

#[test]
fn line_network_two_messages_evacuate() {
    let net = LineNetwork::new(4, 1);
    let routing = LineRouting::new(&net);
    let specs = [
        MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
        MessageSpec::new(NodeId::from_index(3), NodeId::from_index(0), 3),
    ];
    let cfg = Config::from_specs(&net, &routing, &specs).expect("valid line workload");
    let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
    let result = run(
        &net,
        &IdentityInjection,
        &mut LineSwitching::default(),
        cfg,
        &RunOptions::default(),
    )
    .expect("line run succeeds");
    assert_eq!(result.outcome, Outcome::Evacuated);
    let evac = check_evacuation(&injected, &result);
    assert!(evac.holds, "missing {:?}", evac.missing);
}

#[test]
fn mesh_quickstart_path_end_to_end() {
    let mesh = Mesh::new(3, 3, 2);
    let routing = XyRouting::new(&mesh);

    let instance = Instance::mesh_xy(3, 3, 2);
    for report in check_all(&instance) {
        assert!(report.holds(), "obligation failed: {report}");
    }

    let graph = port_dependency_graph(&mesh, &routing);
    assert!(
        acyclicity(&graph).is_acyclic(),
        "XY mesh graph must be acyclic"
    );

    let specs = [
        MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 4),
        MessageSpec::new(mesh.node(2, 2), mesh.node(0, 0), 4),
        MessageSpec::new(mesh.node(1, 1), mesh.node(1, 1), 1),
    ];
    let cfg = Config::from_specs(&mesh, &routing, &specs).expect("valid mesh workload");
    let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
    let options = RunOptions {
        record_trace: true,
        record_measures: true,
        ..RunOptions::default()
    };
    let result = run(
        &mesh,
        &IdentityInjection,
        &mut Switching::default(),
        cfg,
        &options,
    )
    .expect("mesh run succeeds");

    assert_eq!(result.outcome, Outcome::Evacuated);
    assert!(check_evacuation(&injected, &result).holds);
    let corr = check_correctness(&mesh, &routing, &specs, &result);
    assert!(corr.holds());
    assert_eq!(corr.messages_checked, specs.len());

    // The progress measure strictly decreases along the recorded run.
    for w in result.measures.windows(2) {
        assert!(w[1].1 < w[0].1, "progress measure must strictly decrease");
    }
}
