//! The proof obligations across every standard instance: (C-1), (C-2),
//! (C-4), (C-5) hold universally; (C-3) holds exactly on the instances
//! expected to be acyclic.

use genoc::prelude::*;
use genoc_core::obligations::ObligationId;

#[test]
fn obligations_hold_where_expected() {
    for instance in Instance::standard_suite() {
        let reports = check_all(&instance);
        assert_eq!(reports.len(), 5);
        for report in &reports {
            match report.id {
                ObligationId::C3 => assert_eq!(
                    report.holds(),
                    instance.expect_acyclic,
                    "{}: C-3 expectation ({:?})",
                    instance.name,
                    report.violations
                ),
                _ => assert!(
                    report.holds(),
                    "{}: {} violated: {:?}",
                    instance.name,
                    report.id,
                    report.violations
                ),
            }
            assert!(
                report.cases > 0,
                "{}: {} checked nothing",
                instance.name,
                report.id
            );
        }
    }
}

#[test]
fn c1_and_c2_relate_exhaustive_and_closed_form_graphs() {
    // For XY on meshes the closed form and the routing-induced graph are
    // equal, so C-1 (⊆) and C-2 (witnesses ⊇) both hold with the closed
    // form as candidate — the exact content of the paper's proofs V1/V2.
    for (w, h) in [(2usize, 2usize), (3, 3), (4, 2), (5, 5)] {
        let mesh = Mesh::new(w, h, 1);
        let closed = xy_mesh_dependency_graph(&mesh);
        let exhaustive = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
        assert!(exhaustive.is_subgraph_of(&closed), "{w}x{h}: C-1");
        assert!(closed.is_subgraph_of(&exhaustive), "{w}x{h}: C-2 witnesses");
    }
}

#[test]
fn ranking_certificates_scale_to_larger_meshes() {
    for (w, h) in [(8usize, 8usize), (12, 5), (16, 16)] {
        let mesh = Mesh::new(w, h, 1);
        let g = xy_mesh_dependency_graph(&mesh);
        assert!(
            verify_ranking(&g, &xy_mesh_ranking(&mesh)).is_ok(),
            "{w}x{h}"
        );
        assert!(acyclicity(&g).is_acyclic(), "{w}x{h}");
    }
}

#[test]
fn flow_escape_lemmas_hold_on_xy_and_fail_on_mixed() {
    for (w, h) in [(2usize, 2usize), (4, 4), (6, 3)] {
        let mesh = Mesh::new(w, h, 1);
        let xy = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
        assert!(check_flow_escapes(&mesh, &xy).is_empty(), "{w}x{h} xy");
        if w >= 2 && h >= 2 {
            let mixed = port_dependency_graph(&mesh, &MixedXyYxRouting::new(&mesh));
            assert!(
                !check_flow_escapes(&mesh, &mixed).is_empty(),
                "{w}x{h} mixed"
            );
        }
    }
}

#[test]
fn effort_table_holds_for_multiple_sizes() {
    for size in [2usize, 3, 4] {
        let rows = effort_table(size, size, 1);
        assert!(rows.iter().all(|r| r.holds), "size {size}");
        // Case counts grow with size for the case-analysis obligations.
        assert!(rows[3].cases >= 40, "C-1 cases at size {size}");
    }
    let small: u64 = effort_table(2, 2, 1)[3].cases;
    let large: u64 = effort_table(4, 4, 1)[3].cases;
    assert!(large > small, "C-1 case analysis grows with the mesh");
}
