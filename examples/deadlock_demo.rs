//! Both directions of the deadlock theorem on a deadlock-prone router.
//!
//! The mixed XY/YX router performs all eight mesh turns, so its port
//! dependency graph is cyclic. This demo:
//!
//! 1. finds the cycle ((C-3) fails);
//! 2. compiles the cycle into a concrete deadlock configuration and checks
//!    `Ω` on it (Theorem 1, sufficiency — the paper's proof construction,
//!    executed);
//! 3. drives the simulator into a *live* deadlock with the four-corner
//!    storm and decompiles it back into a dependency cycle — its wait-for
//!    cycle, expanded to ports (Theorem 1, necessity);
//! 4. hunts random traffic on a 3×3 mixed mesh for another deadlock and
//!    prints its structured blocked-port witness;
//! 5. shows the dateline-repaired ring for contrast;
//! 6. re-runs the corner storm under a detect-only engine, recording it into
//!    an event WAL (`target/wal/deadlock_demo.wal`), and prints the
//!    post-mortem tail — the last events before the cycle closed — straight
//!    from the log.
//!
//! Run with: `cargo run -p genoc --example deadlock_demo`
//!
//! The random hunt is seeded from the `GENOC_SEED` environment variable
//! (default 0), so hunts are reproducible *and* explorable:
//! `GENOC_SEED=42 cargo run -p genoc --example deadlock_demo`.

use std::rc::Rc;

use genoc::prelude::*;

/// The hunt seed: `GENOC_SEED` from the environment, defaulting to 0.
fn hunt_seed() -> u64 {
    match std::env::var("GENOC_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("GENOC_SEED must be an integer, got {v:?}")),
        Err(_) => 0,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Theorem 1, executable, on the mixed XY/YX router (2x2 mesh) ==\n");
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);

    // (1) The dependency graph has a cycle.
    let graph = port_dependency_graph(&mesh, &routing);
    let verdict = acyclicity(&graph);
    let cycle = verdict.cycle().expect("mixed routing is cyclic");
    println!("cycle of {} ports found:", cycle.len());
    for &p in cycle {
        println!("  {}", mesh.port_label(p));
    }

    // (2) Sufficiency: compile the cycle into a deadlock configuration.
    let witness = deadlock_from_cycle(&mesh, &routing, cycle)?;
    println!("\nwitness destinations per cycle port:");
    for (p, d) in witness.cycle.iter().zip(&witness.destinations) {
        println!(
            "  {} blocked toward {}",
            mesh.port_label(*p),
            mesh.port_label(*d)
        );
    }
    assert!(!witness.config.any_move_possible());
    println!("compiled configuration satisfies Ω (no flit can move).");

    // (3) Necessity: reach a deadlock live and decompile it.
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    println!(
        "\ndriving the simulator with the four-corner storm ({} messages)...",
        specs.len()
    );
    let hunt = hunt_workload(
        &mesh,
        &routing,
        &mut Switching::default(),
        &specs,
        0,
        10_000,
    )?
    .expect("the corner storm deadlocks the mixed router");
    println!("live deadlock after {} steps.", hunt.steps);
    let extracted = &hunt
        .witness
        .as_ref()
        .expect("wormhole deadlocks carry a wait-for cycle")
        .ports;
    println!("extracted blocked-on cycle:");
    for &p in extracted {
        println!("  {}", mesh.port_label(p));
    }
    assert!(genoc::depgraph::cycle::is_cycle_of(&graph, extracted));
    println!("the extracted cycle is a cycle of the dependency graph. qed (necessity)");

    // (4) Random hunt on a larger mesh, seeded from GENOC_SEED.
    let seed = hunt_seed();
    println!("\n== random hunt on the 3x3 mixed mesh (GENOC_SEED = {seed}) ==");
    let big = Mesh::new(3, 3, 1);
    let big_routing = MixedXyYxRouting::new(&big);
    let options = HuntOptions {
        attempts: 64,
        first_seed: seed,
        messages: 40,
        flits: 8,
        ..HuntOptions::default()
    };
    match hunt_random(&big, &big_routing, &mut Switching::default(), &options)? {
        Some(found) => {
            println!(
                "deadlock on workload seed {} after {} steps; blocked-port witness:",
                found.seed, found.steps
            );
            if let Some(witness) = &found.witness {
                for &p in &witness.ports {
                    println!("  {}", big.port_label(p));
                }
                let big_graph = port_dependency_graph(&big, &big_routing);
                assert!(genoc::depgraph::cycle::is_cycle_of(
                    &big_graph,
                    &witness.ports
                ));
                println!("(a dependency-graph cycle, as Theorem 1 demands)");
            }
        }
        None => println!(
            "no deadlock in {} attempts from this seed",
            options.attempts
        ),
    }

    // (5) Contrast: the dateline repair on a ring.
    println!("\n== contrast: plain vs dateline ring (6 nodes) ==");
    let plain = Ring::new(6, 1);
    let plain_graph = port_dependency_graph(&plain, &RingShortestRouting::new(&plain));
    println!(
        "plain ring, shortest-path routing: cycle found = {}",
        !acyclicity(&plain_graph).is_acyclic()
    );
    let vc = Ring::with_vcs(6, 2, 1);
    let vc_graph = port_dependency_graph(&vc, &RingDatelineRouting::new(&vc));
    println!(
        "two-VC ring, dateline routing:     cycle found = {}",
        !acyclicity(&vc_graph).is_acyclic()
    );

    // (6) Post-mortem: re-record the corner storm with the event WAL and
    // print the tail — what happened just before the cycle closed.
    println!("\n== post-mortem: the corner storm, replayed from its WAL ==");
    let wal_path = std::path::Path::new("target/wal/deadlock_demo.wal");
    let wal = shared(WalWriter::create(wal_path)?);
    let meta = WalMeta {
        meta: InstanceMeta::new(RoutingKind::MixedXyYx, 2, 2, 1),
        switching: SwitchingKind::Wormhole,
    };
    let mut recorder = Recorder::with_wal(Rc::clone(&wal), hunt.seed, Some(meta));
    let mut detector = ObservedEngine::new(
        DetectionEngine::detector(EngineOptions {
            heuristic_threshold: None,
        }),
        Some(wal),
    );
    let result = simulate_observed_config(
        &mesh,
        &mut Switching::default(),
        Config::from_specs(&mesh, &routing, &hunt.specs)?,
        &SimOptions {
            max_steps: hunt.steps + 16,
            ..SimOptions::default()
        },
        &mut detector,
        &mut recorder,
    )?;
    assert_eq!(
        result.run.outcome,
        Outcome::Deadlock,
        "the corner storm replays to its deadlock"
    );
    let summary = recorder.summary();
    println!(
        "recorded {} events ({} bytes) to {}",
        summary.wal_records,
        summary.wal_bytes,
        wal_path.display()
    );
    let log = read_wal(wal_path)?;
    assert!(log.damage.is_none(), "freshly written log is intact");
    println!("last 12 events before the verdict:");
    for line in tail_lines(&log.events, 12)? {
        println!("  {line}");
    }
    Ok(())
}
