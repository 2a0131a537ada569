//! Property-based tests of the graph algorithms on randomly generated
//! graphs: the DFS verdict agrees with the Tarjan oracle, its witnesses and
//! rankings validate, and rankings certify exactly the acyclic cases.

#![cfg(test)]

use proptest::prelude::*;

use crate::cycle::{acyclicity, is_cycle_of, Acyclicity};
use crate::graph::DiGraph;
use crate::ranking::verify_ranking;
use crate::scc::{is_cyclic_by_scc, strongly_connected_components};
use genoc_core::PortId;

/// A random DAG: edges only from lower to higher rank.
fn dag_strategy(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..3 * n).prop_map(move |pairs| {
            let mut g = DiGraph::new(n);
            for (a, b) in pairs {
                if a < b {
                    g.add_edge(PortId::from_index(a), PortId::from_index(b));
                }
            }
            g
        })
    })
}

/// A random graph with arbitrary edges (may be cyclic).
fn graph_strategy(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..4 * n).prop_map(move |pairs| {
            let mut g = DiGraph::new(n);
            for (a, b) in pairs {
                g.add_edge(PortId::from_index(a), PortId::from_index(b));
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// DAG-by-construction graphs are reported acyclic by every procedure
    /// with a ranking that verifies, and the identity ranking (reversed
    /// indices) certifies them too.
    #[test]
    fn dags_are_acyclic_by_all_procedures(g in dag_strategy(24)) {
        let verdict = acyclicity(&g);
        prop_assert!(verify_ranking(&g, verdict.ranking().expect("acyclic")).is_ok());
        prop_assert!(!is_cyclic_by_scc(&g));
        // Edges go low -> high, so rank = n - index strictly decreases.
        let rank: Vec<u64> = (0..g.vertex_count()).map(|i| (g.vertex_count() - i) as u64).collect();
        prop_assert!(verify_ranking(&g, &rank).is_ok());
    }

    /// Closing any DAG path back to its start creates a cycle every
    /// procedure detects, and the returned witness validates.
    #[test]
    fn added_back_edge_is_detected(g in dag_strategy(24), a in 0usize..24, b in 0usize..24) {
        let n = g.vertex_count();
        let (a, b) = (a % n, b % n);
        prop_assume!(a < b);
        let mut g = g.clone();
        g.add_edge(PortId::from_index(a), PortId::from_index(b));
        g.add_edge(PortId::from_index(b), PortId::from_index(a));
        let verdict = acyclicity(&g);
        prop_assert!(is_cycle_of(&g, verdict.cycle().expect("cyclic")));
        prop_assert!(is_cyclic_by_scc(&g));
    }

    /// DFS and SCC agree on arbitrary random graphs, and either certificate
    /// the DFS returns is genuine.
    #[test]
    fn dfs_and_scc_agree_on_random_graphs(g in graph_strategy(20)) {
        let verdict = acyclicity(&g);
        prop_assert_eq!(!verdict.is_acyclic(), is_cyclic_by_scc(&g));
        match verdict {
            Acyclicity::Cyclic(c) => prop_assert!(is_cycle_of(&g, &c)),
            Acyclicity::Acyclic(rank) => prop_assert!(verify_ranking(&g, &rank).is_ok()),
        }
    }

    /// SCCs partition the vertex set.
    #[test]
    fn sccs_partition_vertices(g in graph_strategy(20)) {
        let sccs = strongly_connected_components(&g);
        let mut seen: Vec<usize> = sccs.iter().flatten().map(|p| p.index()).collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..g.vertex_count()).collect();
        prop_assert_eq!(seen, expected);
    }

    /// A verified ranking implies acyclicity (soundness of the certificate
    /// checker): whenever `verify_ranking` accepts, DFS finds no cycle.
    #[test]
    fn verified_rankings_imply_acyclicity(
        g in graph_strategy(16),
        rank in proptest::collection::vec(0u64..32, 16),
    ) {
        if verify_ranking(&g, &rank).is_ok() {
            prop_assert!(acyclicity(&g).is_acyclic());
        }
    }
}
