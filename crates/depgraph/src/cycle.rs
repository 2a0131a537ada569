//! The acyclicity decision, with a certificate either way.
//!
//! Proof obligation (C-3) demands the absence of cycles in the port
//! dependency graph. For a fixed instance the paper notes a linear-time
//! search suffices; [`acyclicity`] is that search (iterative depth-first),
//! and it never answers with a bare boolean. On a cyclic graph it returns
//! the cycle itself, so that the sufficiency direction of Theorem 1 can
//! compile it into a deadlock configuration. On an acyclic graph it returns
//! the DFS finishing order as a ranking that strictly decreases along every
//! edge, which [`verify_ranking`](crate::ranking::verify_ranking) re-checks
//! in `O(E)` independently of the search.

use genoc_core::PortId;

use crate::graph::DiGraph;

/// The verdict of [`acyclicity`], holding its certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Acyclicity {
    /// The graph is acyclic: `rank[p.index()]` strictly decreases along
    /// every edge.
    Acyclic(Vec<u64>),
    /// The graph is cyclic: `[v0, v1, …, vk]` with edges
    /// `v0→v1→…→vk→v0`.
    Cyclic(Vec<PortId>),
}

impl Acyclicity {
    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        matches!(self, Acyclicity::Acyclic(_))
    }

    /// The cycle, if the graph is cyclic.
    pub fn cycle(&self) -> Option<&[PortId]> {
        match self {
            Acyclicity::Cyclic(cycle) => Some(cycle),
            Acyclicity::Acyclic(_) => None,
        }
    }

    /// The ranking, if the graph is acyclic.
    pub fn ranking(&self) -> Option<&[u64]> {
        match self {
            Acyclicity::Acyclic(rank) => Some(rank),
            Acyclicity::Cyclic(_) => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Color {
    White,
    Gray,
    Black,
}

/// Decides whether `g` is acyclic by one depth-first search from every
/// unvisited vertex in index order, successors in ascending order.
///
/// A back edge to a vertex on the current path closes the cycle returned in
/// [`Acyclicity::Cyclic`]. Otherwise every vertex is numbered when it
/// finishes: an edge `u → v` is only examined while `u` is on the path, and
/// `v` has then finished or finishes first, so the numbers are a ranking.
///
/// # Examples
///
/// ```
/// use genoc_core::PortId;
/// use genoc_depgraph::graph::DiGraph;
/// use genoc_depgraph::cycle::{acyclicity, Acyclicity};
/// use genoc_depgraph::ranking::verify_ranking;
///
/// let mut g = DiGraph::new(3);
/// let p = |i| PortId::from_index(i);
/// g.add_edge(p(0), p(1));
/// g.add_edge(p(1), p(2));
/// assert_eq!(acyclicity(&g), Acyclicity::Acyclic(vec![2, 1, 0]));
/// assert!(verify_ranking(&g, &[2, 1, 0]).is_ok());
/// g.add_edge(p(2), p(0));
/// assert_eq!(acyclicity(&g), Acyclicity::Cyclic(vec![p(0), p(1), p(2)]));
/// ```
pub fn acyclicity(g: &DiGraph) -> Acyclicity {
    let n = g.vertex_count();
    let mut color = vec![Color::White; n];
    let mut rank = vec![0u64; n];
    let mut finished = 0u64;
    // Explicit DFS stack of (vertex, successor offset): the gray vertices
    // in path order.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        color[start] = Color::Gray;
        stack.push((start, 0));
        while let Some(&(u, next)) = stack.last() {
            match g.successors(PortId::from_index(u)).nth(next) {
                Some(vp) => {
                    stack.last_mut().expect("non-empty").1 += 1;
                    let v = vp.index();
                    match color[v] {
                        Color::Gray => {
                            // A back edge: the cycle is the path suffix
                            // starting at v.
                            let pos = stack.iter().position(|&(w, _)| w == v);
                            let path = &stack[pos.expect("gray is on the path")..];
                            return Acyclicity::Cyclic(
                                path.iter().map(|&(w, _)| PortId::from_index(w)).collect(),
                            );
                        }
                        Color::White => {
                            color[v] = Color::Gray;
                            stack.push((v, 0));
                        }
                        Color::Black => {}
                    }
                }
                None => {
                    color[u] = Color::Black;
                    rank[u] = finished;
                    finished += 1;
                    stack.pop();
                }
            }
        }
    }
    Acyclicity::Acyclic(rank)
}

/// Whether `cycle` really is a cycle of `g` (every consecutive pair and the
/// closing pair are edges, and the vertices are distinct).
pub fn is_cycle_of(g: &DiGraph, cycle: &[PortId]) -> bool {
    if cycle.is_empty() {
        return false;
    }
    for i in 0..cycle.len() {
        let u = cycle[i];
        let v = cycle[(i + 1) % cycle.len()];
        if !g.has_edge(u, v) {
            return false;
        }
    }
    let mut seen: Vec<usize> = cycle.iter().map(|p| p.index()).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len() == cycle.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::verify_ranking;

    fn p(i: usize) -> PortId {
        PortId::from_index(i)
    }

    fn cycle_of(g: &DiGraph) -> Vec<PortId> {
        acyclicity(g).cycle().expect("cyclic").to_vec()
    }

    #[test]
    fn empty_graph_is_acyclic() {
        assert_eq!(acyclicity(&DiGraph::new(0)), Acyclicity::Acyclic(vec![]));
        // Isolated vertices finish in index order.
        assert_eq!(
            acyclicity(&DiGraph::new(5)),
            Acyclicity::Acyclic(vec![0, 1, 2, 3, 4])
        );
    }

    #[test]
    fn dag_is_acyclic() {
        let mut g = DiGraph::new(6);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)] {
            g.add_edge(p(u), p(v));
        }
        let verdict = acyclicity(&g);
        let rank = verdict.ranking().expect("a DAG is acyclic");
        assert!(verify_ranking(&g, rank).is_ok());
        // Post-order from 0: 4, 5, 3, 1, 2, 0.
        assert_eq!(rank, [5, 3, 4, 2, 0, 1]);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(2);
        g.add_edge(p(1), p(1));
        let c = cycle_of(&g);
        assert_eq!(c, vec![p(1)]);
        assert!(is_cycle_of(&g, &c));
    }

    #[test]
    fn finds_cycle_behind_a_dag_prefix() {
        let mut g = DiGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(p(u), p(v));
        }
        let c = cycle_of(&g);
        assert!(is_cycle_of(&g, &c));
        assert_eq!(c, vec![p(3), p(4), p(5)]);
    }

    #[test]
    fn witness_validation_rejects_non_cycles() {
        let mut g = DiGraph::new(3);
        g.add_edge(p(0), p(1));
        g.add_edge(p(1), p(2));
        assert!(!is_cycle_of(&g, &[p(0), p(1)]));
        assert!(!is_cycle_of(&g, &[]));
        assert!(!is_cycle_of(&g, &[p(0), p(1), p(0), p(1)]));
    }

    #[test]
    fn two_cycles_one_found_and_valid() {
        let mut g = DiGraph::new(4);
        g.add_edge(p(0), p(1));
        g.add_edge(p(1), p(0));
        g.add_edge(p(2), p(3));
        g.add_edge(p(3), p(2));
        let c = cycle_of(&g);
        assert!(is_cycle_of(&g, &c));
        assert_eq!(c, vec![p(0), p(1)]);
    }
}
