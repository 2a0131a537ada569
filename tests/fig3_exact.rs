//! Exact regeneration of Fig. 3: the port dependency graph of the 2×2 HERMES
//! mesh under XY routing, checked edge by edge against a hand-derived
//! transcription of the paper's `next_outs` definition.

use genoc::prelude::*;
use std::collections::BTreeSet;

#[path = "oracle/scc.rs"]
mod scc;

/// The expected successor sets, written out by hand from Section V.6 of the
/// paper (north decreases y; border nodes omit non-existent ports).
fn expected_successors() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        // Node (0,0): local, east, south ports.
        (
            "(0,0) L in",
            vec!["(0,0) L out", "(0,0) E out", "(0,0) S out"],
        ),
        ("(0,0) E in", vec!["(0,0) L out", "(0,0) S out"]),
        ("(0,0) S in", vec!["(0,0) L out"]),
        ("(0,0) E out", vec!["(1,0) W in"]),
        ("(0,0) S out", vec!["(0,1) N in"]),
        ("(0,0) L out", vec![]),
        // Node (1,0): local, west, south ports.
        (
            "(1,0) L in",
            vec!["(1,0) L out", "(1,0) W out", "(1,0) S out"],
        ),
        ("(1,0) W in", vec!["(1,0) L out", "(1,0) S out"]),
        ("(1,0) S in", vec!["(1,0) L out"]),
        ("(1,0) W out", vec!["(0,0) E in"]),
        ("(1,0) S out", vec!["(1,1) N in"]),
        ("(1,0) L out", vec![]),
        // Node (0,1): local, east, north ports.
        (
            "(0,1) L in",
            vec!["(0,1) L out", "(0,1) E out", "(0,1) N out"],
        ),
        ("(0,1) E in", vec!["(0,1) L out", "(0,1) N out"]),
        ("(0,1) N in", vec!["(0,1) L out"]),
        ("(0,1) E out", vec!["(1,1) W in"]),
        ("(0,1) N out", vec!["(0,0) S in"]),
        ("(0,1) L out", vec![]),
        // Node (1,1): local, west, north ports.
        (
            "(1,1) L in",
            vec!["(1,1) L out", "(1,1) W out", "(1,1) N out"],
        ),
        ("(1,1) W in", vec!["(1,1) L out", "(1,1) N out"]),
        ("(1,1) N in", vec!["(1,1) L out"]),
        ("(1,1) W out", vec!["(0,1) E in"]),
        ("(1,1) N out", vec!["(1,0) S in"]),
        ("(1,1) L out", vec![]),
    ]
}

fn successors_by_label(mesh: &Mesh, g: &DiGraph) -> Vec<(String, BTreeSet<String>)> {
    mesh.ports()
        .map(|p| {
            (
                mesh.port_label(p),
                g.successors(p)
                    .map(|q| mesh.port_label(q))
                    .collect::<BTreeSet<_>>(),
            )
        })
        .collect()
}

#[test]
fn fig3_closed_form_graph_is_exactly_the_papers() {
    let mesh = Mesh::new(2, 2, 1);
    let g = xy_mesh_dependency_graph(&mesh);
    assert_eq!(g.edge_count(), 32, "the 2x2 graph has 32 edges");
    let actual = successors_by_label(&mesh, &g);
    let expected = expected_successors();
    assert_eq!(actual.len(), expected.len());
    for (label, succ) in expected {
        let (_, got) = actual
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("missing port {label}"));
        let want: BTreeSet<String> = succ.into_iter().map(String::from).collect();
        assert_eq!(got, &want, "successors of {label}");
    }
}

#[test]
fn fig3_exhaustive_graph_coincides() {
    let mesh = Mesh::new(2, 2, 1);
    let closed = xy_mesh_dependency_graph(&mesh);
    let exhaustive = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
    assert_eq!(closed.difference(&exhaustive), vec![]);
    assert_eq!(exhaustive.difference(&closed), vec![]);
}

#[test]
fn fig3_graph_is_acyclic_by_all_three_procedures() {
    let mesh = Mesh::new(2, 2, 1);
    let g = xy_mesh_dependency_graph(&mesh);
    let verdict = acyclicity(&g);
    assert!(verify_ranking(&g, verdict.ranking().expect("acyclic")).is_ok());
    assert!(!scc::is_cyclic_by_scc(&g));
    assert!(verify_ranking(&g, &xy_mesh_ranking(&mesh)).is_ok());
}

#[test]
fn fig3_dot_export_mentions_every_port() {
    let mesh = Mesh::new(2, 2, 1);
    let g = xy_mesh_dependency_graph(&mesh);
    let dot = to_dot(&mesh, &g, "fig3");
    for p in mesh.ports() {
        assert!(dot.contains(&mesh.port_label(p)));
    }
    assert_eq!(dot.matches(" -> ").count(), 32);
}
