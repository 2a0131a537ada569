//! A deadlock-prone mesh surviving through online detection and recovery.
//!
//! The mixed XY/YX router is Theorem 1's negative instance: its dependency
//! graph is cyclic and the four-corner storm drives it into a live deadlock.
//! This demo runs that exact workload three times:
//!
//! 1. undetected — the run seizes (`Ω` holds, messages are stuck forever);
//! 2. with the exact online detector — the wait-for cycle is caught the
//!    step it forms, before the global predicate holds;
//! 3. with `AbortAndEvacuate` recovery — the youngest cycle member is
//!    sacrificed and every surviving message is delivered.
//!
//! Run with: `cargo run -p genoc --example detection_recovery`

use genoc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    println!(
        "== four-corner storm on the mixed XY/YX 2x2 mesh ({} messages, 4 flits each) ==\n",
        specs.len()
    );

    // (1) Undetected: the run seizes.
    let undetected = simulate(
        &mesh,
        &routing,
        &mut Switching::default(),
        &specs,
        &SimOptions::default(),
    )?;
    assert_eq!(undetected.run.outcome, Outcome::Deadlock);
    println!(
        "undetected: deadlock after {} steps, {}/{} messages delivered",
        undetected.run.steps,
        undetected.run.config.arrived().len(),
        specs.len()
    );

    // (2) Detect-only: the cycle is caught as it forms.
    let mut watcher = DetectionEngine::detector(EngineOptions::default());
    let watched = simulate_config(
        &mesh,
        &mut Switching::default(),
        Config::from_specs(&mesh, &routing, &specs)?,
        &SimOptions::default(),
        Some(&mut watcher),
        None,
    )?;
    let detection = &watcher.detections()[0];
    println!(
        "\ndetected:   wait-for cycle of {} messages caught after step {} (Ω held at step {}):",
        detection.cycle.msgs.len(),
        detection.step,
        watched.run.steps
    );
    for &p in &detection.cycle.ports {
        println!("  {}", mesh.port_label(p));
    }

    // (3) Recovered: abort the youngest cycle member, evacuate the rest.
    let mut engine =
        DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
    let recovered = simulate_config(
        &mesh,
        &mut Switching::default(),
        Config::from_specs(&mesh, &routing, &specs)?,
        &SimOptions::default(),
        Some(&mut engine),
        None,
    )?;
    assert_eq!(recovered.run.outcome, Outcome::Evacuated);
    let summary = engine.summary(&recovered);
    println!(
        "\nrecovered:  {} delivered, {} aborted ({}), {} steps, throughput {:.3} msg/step",
        summary.delivered,
        summary.aborted.len(),
        summary
            .aborted
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        recovered.run.steps,
        summary.throughput()
    );
    println!(
        "detection latency of the timeout heuristic vs exact: {:?} steps",
        summary.detection_latency()
    );
    println!("\nthe deadlock-prone instance became runnable: prover + self-healing runtime. qed");
    Ok(())
}
