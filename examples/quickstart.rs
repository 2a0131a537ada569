//! Quickstart: the GeNoC methodology end to end (Fig. 2 of the paper).
//!
//! 1. Give concrete definitions to the constituents `I`, `R`, `S`
//!    (identity injection, XY routing, wormhole switching on a HERMES mesh).
//! 2. Discharge the instantiated proof obligations (C-1)…(C-5).
//! 3. Enjoy the global theorems — executable here: run a workload and check
//!    deadlock-freedom, evacuation, and functional correctness.
//!
//! Run with: `cargo run -p genoc --example quickstart`

use genoc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== GeNoC-rs quickstart: a 3x3 HERMES mesh with XY routing ==\n");

    // --- User input, part I: the executable specification ----------------
    let mesh = Mesh::new(3, 3, 2);
    let routing = XyRouting::new(&mesh);
    println!(
        "network: {} ({} nodes, {} ports, buffer depth 2)",
        mesh.topology_name(),
        mesh.node_count(),
        mesh.port_count()
    );

    // --- User input, part II: discharge the proof obligations ------------
    let instance = Instance::mesh_xy(3, 3, 2);
    println!("\nproof obligations:");
    for report in check_all(&instance) {
        println!("  {report}");
        assert!(report.holds());
    }

    // --- The theorems, executably -----------------------------------------
    // DeadThm: the port dependency graph is acyclic.
    let graph = port_dependency_graph(&mesh, &routing);
    assert!(acyclicity(&graph).is_acyclic());
    println!(
        "\nDeadThm: dependency graph with {} edges over {} ports is acyclic",
        graph.edge_count(),
        mesh.port_count()
    );

    // EvacThm + CorrThm: run a workload with tracing.
    let specs = [
        MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 4),
        MessageSpec::new(mesh.node(2, 2), mesh.node(0, 0), 4),
        MessageSpec::new(mesh.node(2, 0), mesh.node(0, 2), 2),
        MessageSpec::new(mesh.node(0, 2), mesh.node(2, 0), 2),
        MessageSpec::new(mesh.node(1, 1), mesh.node(1, 1), 1),
    ];
    let cfg = Config::from_specs(&mesh, &routing, &specs)?;
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
    )?;

    println!(
        "\nEvacThm: {} messages evacuated in {} steps (outcome {:?})",
        result.config.arrived().len(),
        result.steps,
        result.outcome
    );
    let evac = check_evacuation(&injected, &result);
    assert!(evac.holds);

    let corr = check_correctness(&mesh, &routing, &specs, &result);
    assert!(corr.holds());
    println!(
        "CorrThm: all {} trajectories validated",
        corr.messages_checked
    );

    // The termination measures along the run.
    println!("\nmeasure trace (mu_xy, progress):");
    for (step, (mu, progress)) in result.measures.iter().enumerate() {
        if step % 4 == 0 {
            println!("  step {step:>3}: mu_xy = {mu:>3}, progress = {progress:>3}");
        }
    }
    println!("\nall checks passed.");
    Ok(())
}
