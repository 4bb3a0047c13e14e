//! NC cycle finding in pseudoforests — the three approaches of Section IV-A.
//!
//! Given the switching graph (a directed pseudoforest, or its undirected
//! view), the paper needs the unique cycle of every component.  It sketches
//! three NC routes, all implemented here so experiment E7 can compare them:
//!
//! 1. **Transitive closure** ([`cycle_vertices_via_closure`]): compute `G*`
//!    and test pairs of vertices that reach each other (Theorem 5).
//! 2. **Incidence rank** ([`cycle_edges_via_rank`]): removing edge `e` keeps
//!    `rank(I_G) = n − cc(G)` unchanged iff `e` lies on a cycle (Lemma 6 +
//!    Theorem 7).
//! 3. **Component counting** ([`cycle_edges_via_cc`]): the same test phrased
//!    directly with a connected-components algorithm (Theorem 8).
//!
//! The fast pointer-doubling detector used by the production algorithms
//! lives on [`FunctionalGraph`]; the routines here are the faithful
//! reproductions of the paper's alternatives and are cross-validated
//! against it in the tests.

use rayon::prelude::*;

use pm_linalg::{BoolMatrix, Gf2Matrix};
use pm_pram::tracker::DepthTracker;

use crate::connected::count_components;
use crate::functional::FunctionalGraph;
use crate::pseudoforest::UndirectedGraph;

/// Marks the vertices of a directed pseudoforest that lie on a cycle, using
/// the transitive-closure criterion of the paper: `v` lies on a cycle iff
/// `G⁺(v, v)` holds (equivalently, iff there are `i ≠ j` with `G*(i, j)` and
/// `G*(j, i)`, plus self-loops).
pub fn cycle_vertices_via_closure(g: &FunctionalGraph, tracker: &DepthTracker) -> Vec<bool> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let adj = BoolMatrix::from_edges(n, &g.edges());
    let closure = adj.strict_transitive_closure(tracker);
    (0..n).map(|v| closure.get(v, v)).collect()
}

/// Marks the edges of an undirected pseudoforest that lie on a cycle using
/// the incidence-matrix rank criterion: `e` is a cycle edge iff
/// `rank(I_{G−e}) = rank(I_G)`.
///
/// All edge removals are tested in parallel (one rank computation each), as
/// the paper prescribes ("for each e in G_P, compute the rank of
/// I_{G_P −{e}} in parallel").
pub fn cycle_edges_via_rank(g: &UndirectedGraph, tracker: &DepthTracker) -> Vec<bool> {
    let incidence = Gf2Matrix::incidence(g.n(), g.edges());
    let base_rank = incidence.rank(tracker);
    tracker.round();
    tracker.work(g.num_edges() as u64);
    // One rank computation per edge: heavy items, so let even a handful of
    // edges fan out instead of waiting for the default minimum chunk size.
    (0..g.num_edges())
        .into_par_iter()
        .with_min_len(1)
        .map(|e| {
            let (u, v) = g.edges()[e];
            if u == v {
                // A self-loop is a cycle by itself and never affects the rank.
                return true;
            }
            incidence.without_column(e).rank(tracker) == base_rank
        })
        .collect()
}

/// Marks the edges of an undirected pseudoforest that lie on a cycle using
/// connected-component counting: `e` is a cycle edge iff
/// `cc(G − e) = cc(G)`.
pub fn cycle_edges_via_cc(g: &UndirectedGraph, tracker: &DepthTracker) -> Vec<bool> {
    let base = count_components(g.n(), g.edges());
    tracker.round();
    tracker.work((g.num_edges() * (g.n() + g.num_edges())) as u64);
    // One component count per edge — heavy items, as above.
    (0..g.num_edges())
        .into_par_iter()
        .with_min_len(1)
        .map(|e| {
            let (u, v) = g.edges()[e];
            if u == v {
                return true;
            }
            let remaining: Vec<(usize, usize)> = g
                .edges()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != e)
                .map(|(_, &uv)| uv)
                .collect();
            count_components(g.n(), &remaining) == base
        })
        .collect()
}

/// Converts a directed pseudoforest into its undirected view, keeping edge
/// `e` in the same order as `g.edges()` so edge-indexed results line up.
pub fn undirected_view(g: &FunctionalGraph) -> UndirectedGraph {
    UndirectedGraph::from_edges(g.n(), &g.edges())
}

/// Convenience: cycle vertices of a directed pseudoforest via the rank
/// method (mapping cycle edges back to their endpoints).
pub fn cycle_vertices_via_rank(g: &FunctionalGraph, tracker: &DepthTracker) -> Vec<bool> {
    let ug = undirected_view(g);
    let edge_marks = cycle_edges_via_rank(&ug, tracker);
    vertices_from_edge_marks(&ug, &edge_marks)
}

/// Convenience: cycle vertices of a directed pseudoforest via the
/// component-counting method.
pub fn cycle_vertices_via_cc(g: &FunctionalGraph, tracker: &DepthTracker) -> Vec<bool> {
    let ug = undirected_view(g);
    let edge_marks = cycle_edges_via_cc(&ug, tracker);
    vertices_from_edge_marks(&ug, &edge_marks)
}

fn vertices_from_edge_marks(g: &UndirectedGraph, edge_marks: &[bool]) -> Vec<bool> {
    let mut out = vec![false; g.n()];
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        if edge_marks[e] {
            out[u] = true;
            out[v] = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_pseudoforest() -> FunctionalGraph {
        // Component 1: cycle 0 -> 1 -> 2 -> 0 with tails 3 -> 0, 4 -> 3.
        // Component 2: path to sink 5 -> 6 -> 7 (7 is a sink).
        // Component 3: self-loop 8 -> 8.
        FunctionalGraph::new(vec![
            Some(1),
            Some(2),
            Some(0),
            Some(0),
            Some(3),
            Some(6),
            Some(7),
            None,
            Some(8),
        ])
    }

    #[test]
    fn closure_matches_doubling() {
        let g = example_pseudoforest();
        let t = DepthTracker::new();
        assert_eq!(cycle_vertices_via_closure(&g, &t), g.on_cycle_parallel(&t));
        assert_eq!(cycle_vertices_via_closure(&g, &t), g.on_cycle_sequential());
    }

    #[test]
    fn rank_and_cc_methods_agree_with_pruning() {
        let g = example_pseudoforest();
        let ug = undirected_view(&g);
        assert!(ug.is_pseudoforest());
        let t = DepthTracker::new();
        let expected = ug.cycle_edges_sequential();
        assert_eq!(cycle_edges_via_rank(&ug, &t), expected);
        assert_eq!(cycle_edges_via_cc(&ug, &t), expected);
    }

    #[test]
    fn vertex_views_agree_across_all_methods() {
        let g = example_pseudoforest();
        let t = DepthTracker::new();
        let doubling = g.on_cycle_parallel(&t);
        assert_eq!(cycle_vertices_via_closure(&g, &t), doubling);
        assert_eq!(cycle_vertices_via_rank(&g, &t), doubling);
        assert_eq!(cycle_vertices_via_cc(&g, &t), doubling);
    }

    #[test]
    fn empty_and_sink_only_graphs() {
        let t = DepthTracker::new();
        let empty = FunctionalGraph::new(vec![]);
        assert!(cycle_vertices_via_closure(&empty, &t).is_empty());
        let sinks = FunctionalGraph::new(vec![None, None]);
        assert_eq!(cycle_vertices_via_closure(&sinks, &t), vec![false, false]);
        assert_eq!(cycle_vertices_via_rank(&sinks, &t), vec![false, false]);
    }

    #[test]
    fn two_cycle_is_detected_by_all_methods() {
        // 0 <-> 1 (a 2-cycle in the directed sense; two parallel edges in
        // the undirected view).
        let g = FunctionalGraph::new(vec![Some(1), Some(0)]);
        let t = DepthTracker::new();
        assert_eq!(cycle_vertices_via_closure(&g, &t), vec![true, true]);
        assert_eq!(cycle_vertices_via_rank(&g, &t), vec![true, true]);
        assert_eq!(cycle_vertices_via_cc(&g, &t), vec![true, true]);
        assert_eq!(g.on_cycle_parallel(&t), vec![true, true]);
    }

    #[test]
    fn random_pseudoforests_all_methods_agree() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for &n in &[3usize, 10, 40, 120] {
            let succ: Vec<Option<usize>> = (0..n)
                .map(|_| {
                    if rng.random_range(0..5) == 0 {
                        None
                    } else {
                        Some(rng.random_range(0..n))
                    }
                })
                .collect();
            let g = FunctionalGraph::new(succ);
            let t = DepthTracker::new();
            let reference = g.on_cycle_sequential();
            assert_eq!(
                cycle_vertices_via_closure(&g, &t),
                reference,
                "closure n={n}"
            );
            assert_eq!(cycle_vertices_via_rank(&g, &t), reference, "rank n={n}");
            assert_eq!(cycle_vertices_via_cc(&g, &t), reference, "cc n={n}");
        }
    }
}
