//! Regenerates Fig. 3 of the paper: the port dependency graph of the 2×2
//! HERMES mesh under XY routing, as Graphviz DOT on stdout plus a summary.
//!
//! Run with: `cargo run -p genoc --example fig3_depgraph`
//! Render with: `cargo run -p genoc --example fig3_depgraph | dot -Tpdf > fig3.pdf`

use genoc::prelude::*;

fn main() {
    let mesh = Mesh::new(2, 2, 1);
    let closed_form = xy_mesh_dependency_graph(&mesh);
    let exhaustive = port_dependency_graph(&mesh, &XyRouting::new(&mesh));

    // The paper's closed-form E^xy_dep and the graph induced by actual
    // routing coincide — print the DOT of the graph Fig. 3 draws.
    assert_eq!(closed_form.difference(&exhaustive), vec![]);
    assert_eq!(exhaustive.difference(&closed_form), vec![]);

    println!(
        "{}",
        to_dot(&mesh, &closed_form, "fig3_port_dependency_graph_2x2")
    );

    eprintln!(
        "// {} ports, {} dependency edges, acyclic = {}",
        mesh.port_count(),
        closed_form.edge_count(),
        acyclicity(&closed_form).is_acyclic()
    );
    eprintln!("// per-port successors:");
    for p in mesh.ports() {
        let succ: Vec<String> = closed_form
            .successors(p)
            .map(|q| mesh.port_label(q))
            .collect();
        eprintln!("//   {:<12} -> {}", mesh.port_label(p), succ.join(", "));
    }
}
