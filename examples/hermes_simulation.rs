//! Simulate an arbitrary-size HERMES mesh under uniform random traffic
//! (Fig. 1 of the paper: the 2D mesh with buffered ports).
//!
//! Usage:
//! `cargo run -p genoc --example hermes_simulation -- [width] [height] [messages] [flits] [seed]`
//! (defaults: 4 4 64 4 7)

use genoc::prelude::*;

fn arg(n: usize, default: usize) -> usize {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = arg(1, 4);
    let height = arg(2, 4);
    let messages = arg(3, 64);
    let flits = arg(4, 4).max(1);
    let seed = arg(5, 7) as u64;

    let mesh = Mesh::builder(width, height)
        .capacity(2)
        .local_capacity(4)
        .build();
    let routing = XyRouting::new(&mesh);
    println!("== HERMES {}x{} ==", width, height);
    println!(
        "nodes: {}, ports: {}, link buffers: 2, local buffers: 4",
        mesh.node_count(),
        mesh.port_count()
    );

    // Fig. 1b: one node's port inventory.
    let (cx, cy) = (width / 2, height / 2);
    println!("\nport inventory of node ({cx},{cy}):");
    for card in Cardinal::ALL {
        for dir in [Direction::In, Direction::Out] {
            if let Some(p) = mesh.port(cx, cy, card, dir) {
                println!("  {}", mesh.port_label(p));
            }
        }
    }

    let specs = genoc::sim::workload::uniform_random(mesh.node_count(), messages, 1..=flits, seed);
    println!(
        "\nworkload: {} messages, 1..={} flits, seed {}",
        specs.len(),
        flits,
        seed
    );

    let options = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };
    let result = simulate(&mesh, &routing, &mut Switching::default(), &specs, &options)?;

    println!(
        "\noutcome: {:?} after {} steps",
        result.run.outcome, result.run.steps
    );
    assert!(
        result.evacuated(),
        "XY routing is deadlock-free and must evacuate"
    );
    if let Some(summary) = result.latency_summary() {
        println!(
            "latency (steps): min {}, mean {:.1}, max {} over {} messages",
            summary.min, summary.mean, summary.max, summary.messages
        );
    }
    let evac = check_evacuation(&result.injected, &result.run);
    println!(
        "evacuation theorem: {}",
        if evac.holds { "holds" } else { "VIOLATED" }
    );
    Ok(())
}
