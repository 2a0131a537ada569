//! Strongly connected components (iterative Tarjan): the test oracle for
//! `genoc_depgraph::acyclicity`.
//!
//! Taktak, Desbarbieux & Encrenaz (TODAES 2008, cited in the paper's related
//! work) discharge the acyclicity condition by extracting strongly connected
//! components first; a graph is cyclic iff it has a non-trivial SCC or a
//! self-loop. The library decides (C-3) with one depth-first search; this
//! independent procedure is what the tests hold it to. It is compiled only
//! into test targets: `genoc-depgraph`'s unit tests,
//! `tests/theorem1_equivalence.rs` and `tests/fig3_exact.rs` include this
//! file as a module `scc`, whose parent module must have `DiGraph` in scope.

use genoc_core::PortId;

use super::DiGraph;

/// Strongly connected components of `g`, each a list of vertices, in reverse
/// topological order of the condensation.
pub fn strongly_connected_components(g: &DiGraph) -> Vec<Vec<PortId>> {
    let n = g.vertex_count();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Iterative Tarjan: frames of (vertex, successor offset).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        call.push((start, 0));
        while let Some(&(v, si)) = call.last() {
            if si == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let successor = g.successors(PortId::from_index(v)).nth(si);
            match successor {
                Some(wp) => {
                    call.last_mut().expect("non-empty").1 += 1;
                    let w = wp.index();
                    if index[w] == UNSET {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    if low[v] == index[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component.push(PortId::from_index(w));
                            if w == v {
                                break;
                            }
                        }
                        components.push(component);
                    }
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
    }
    components
}

/// Whether `g` is cyclic, decided through its SCCs: a non-trivial component
/// or a self-loop.
pub fn is_cyclic_by_scc(g: &DiGraph) -> bool {
    strongly_connected_components(g)
        .iter()
        .any(|c| c.len() > 1 || (c.len() == 1 && g.has_edge(c[0], c[0])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PortId {
        PortId::from_index(i)
    }

    #[test]
    fn dag_has_singleton_components() {
        let mut g = DiGraph::new(4);
        g.add_edge(p(0), p(1));
        g.add_edge(p(1), p(2));
        g.add_edge(p(2), p(3));
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 4);
        assert!(!is_cyclic_by_scc(&g));
    }

    #[test]
    fn cycle_forms_one_component() {
        let mut g = DiGraph::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)] {
            g.add_edge(p(u), p(v));
        }
        let sccs = strongly_connected_components(&g);
        let big = sccs
            .iter()
            .find(|c| c.len() == 3)
            .expect("triangle component");
        let mut ids: Vec<usize> = big.iter().map(|q| q.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(is_cyclic_by_scc(&g));
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut g = DiGraph::new(2);
        g.add_edge(p(0), p(0));
        assert!(is_cyclic_by_scc(&g));
    }

    #[test]
    fn components_cover_every_vertex_once() {
        let mut g = DiGraph::new(7);
        for (u, v) in [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 6)] {
            g.add_edge(p(u), p(v));
        }
        let sccs = strongly_connected_components(&g);
        let mut all: Vec<usize> = sccs.iter().flatten().map(|q| q.index()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn reverse_topological_order_of_condensation() {
        let mut g = DiGraph::new(3);
        g.add_edge(p(0), p(1));
        g.add_edge(p(1), p(2));
        let sccs = strongly_connected_components(&g);
        // Sinks first.
        assert_eq!(sccs[0], vec![p(2)]);
        assert_eq!(sccs[2], vec![p(0)]);
    }
}
