//! Switching-policy comparison (ablation E-A3): wormhole vs virtual
//! cut-through vs store-and-forward on the same mesh and workloads.
//!
//! Wormhole was adopted by HERMES precisely because it pipelines flits with
//! tiny buffers; this binary reproduces the latency separation:
//! wormhole ≈ VCT ≈ hops + flits, store-and-forward ≈ hops × flits.
//!
//! Run with: `cargo run -p genoc --example switching_compare`

use genoc::prelude::*;

fn steps(
    mesh: &Mesh,
    routing: &XyRouting,
    policy: &mut dyn SwitchingPolicy,
    specs: &[MessageSpec],
) -> u64 {
    let result =
        simulate(mesh, routing, policy, specs, &SimOptions::default()).expect("simulation error");
    assert!(
        result.evacuated(),
        "{}: {:?}",
        policy.name(),
        result.run.outcome
    );
    result.run.steps
}

fn main() {
    // Buffers deep enough that every policy can run (store-and-forward and
    // cut-through need whole-packet room).
    let mesh = Mesh::builder(4, 4).capacity(8).local_capacity(8).build();
    let routing = XyRouting::new(&mesh);

    let mut table = TextTable::new(["Workload", "Flits", "Wormhole", "VCT", "Store&Fwd"]);
    for flits in [2usize, 4, 8] {
        let workloads: Vec<(&str, Vec<MessageSpec>)> = vec![
            ("transpose", genoc::sim::workload::transpose(&mesh, flits)),
            (
                "bit-complement",
                genoc::sim::workload::bit_complement(&mesh, flits),
            ),
            (
                "uniform-32",
                genoc::sim::workload::uniform_random(16, 32, flits..=flits, 7),
            ),
        ];
        for (name, specs) in workloads {
            let [wh, vct, saf] = SwitchingKind::ALL
                .map(|kind| steps(&mesh, &routing, &mut Switching::new(kind), &specs));
            table.row([
                name.to_string(),
                flits.to_string(),
                wh.to_string(),
                vct.to_string(),
                saf.to_string(),
            ]);
        }
    }
    println!("evacuation steps on a 4x4 HERMES mesh (XY routing):\n");
    println!("{table}");
    println!("store-and-forward serialises every hop; wormhole and cut-through pipeline.");
}
