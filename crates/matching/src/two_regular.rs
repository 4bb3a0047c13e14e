//! Perfect matching in 2-regular bipartite graphs (disjoint even cycles).
//!
//! This is the final step of Algorithm 2: after the degree-1 peeling loop,
//! "G′ becomes a 2-regular bipartite graph and consists of a disjoint union
//! of even cycles.  Choosing all edges of even distance yields a perfect
//! matching."  Equivalently — and this is how the parallel routine works —
//! pick one traversal *orientation* per cycle and match every left vertex to
//! its successor post in that orientation.  The orientation is chosen
//! canonically (the one containing the smallest arc id), and the choice is
//! broadcast around each cycle with `O(log n)` rounds of pointer doubling,
//! so the whole step is in NC as the paper claims.

use rayon::prelude::*;

use pm_graph::BipartiteGraph;
use pm_pram::pointer::min_label_cycles_idx;
use pm_pram::tracker::DepthTracker;
use pm_pram::{Idx, SEQUENTIAL_CUTOFF};

use crate::matching::Matching;

/// Checks that `g` is 2-regular on both sides with equally many left and
/// right vertices.
pub fn is_two_regular(g: &BipartiteGraph) -> bool {
    g.n_left() == g.n_right()
        && (0..g.n_left()).all(|l| g.degree_left(l) == 2)
        && (0..g.n_right()).all(|r| g.degree_right(r) == 2)
}

/// Perfect matching of a 2-regular bipartite graph, parallel version.
///
/// # Panics
/// Panics if `g` is not 2-regular with `n_left == n_right`.
pub fn two_regular_perfect_matching_parallel(
    g: &BipartiteGraph,
    tracker: &DepthTracker,
) -> Matching {
    assert!(
        is_two_regular(g),
        "graph must be 2-regular with equal sides"
    );
    let n = g.n_left();
    if n == 0 {
        return Matching::empty(0, 0);
    }
    let num_arcs = 2 * n;

    // Arc 2l + i is "left vertex l takes its i-th incident post".
    // next(arc) walks two steps along the cycle to the next left vertex.
    // Arc ids fit the `Idx` layer: there is one per edge, and the graph
    // keeps its edge count in range.
    let next_arc = |arc: usize| -> Idx {
        let (l, i) = (arc / 2, arc % 2);
        let p = g.neighbors_left(l)[i];
        let p_nbrs = g.neighbors_right(p.get());
        let l2 = if p_nbrs[0].get() == l {
            p_nbrs[1].get()
        } else {
            p_nbrs[0].get()
        };
        let l2_nbrs = g.neighbors_left(l2);
        let j = usize::from(l2_nbrs[0] == p);
        Idx::new(2 * l2 + j)
    };

    tracker.round();
    tracker.work(num_arcs as u64);
    let mut ptr: Vec<Idx> = if num_arcs >= SEQUENTIAL_CUTOFF {
        (0..num_arcs).into_par_iter().map(next_arc).collect()
    } else {
        (0..num_arcs).map(next_arc).collect()
    };
    let mut label: Vec<Idx> = (0..num_arcs).map(Idx::new).collect();

    // Min-label pointer doubling (the shared `pm_pram` primitive): after at
    // most ⌈log₂(2n)⌉ rounds — with a sound early exit once no label
    // changes — every arc knows the minimum arc id on its orientation
    // cycle, with no per-round allocation.
    min_label_cycles_idx(
        &mut label,
        &mut ptr,
        &mut Vec::new(),
        &mut Vec::new(),
        tracker,
    );

    // One parallel round: each left vertex keeps the arc whose orientation
    // cycle has the smaller canonical label.
    tracker.round();
    tracker.work(n as u64);
    let choice: Vec<usize> = if n >= SEQUENTIAL_CUTOFF {
        (0..n)
            .into_par_iter()
            .map(|l| {
                let i = usize::from(label[2 * l + 1] < label[2 * l]);
                g.neighbors_left(l)[i].get()
            })
            .collect()
    } else {
        (0..n)
            .map(|l| {
                let i = usize::from(label[2 * l + 1] < label[2 * l]);
                g.neighbors_left(l)[i].get()
            })
            .collect()
    };

    let mut m = Matching::empty(n, n);
    for (l, p) in choice.into_iter().enumerate() {
        m.add(l, p);
    }
    m
}

/// Perfect matching of a 2-regular bipartite graph by walking each cycle and
/// taking alternate edges (the sequential baseline).
///
/// # Panics
/// Panics if `g` is not 2-regular with `n_left == n_right`.
pub fn two_regular_perfect_matching_sequential(g: &BipartiteGraph) -> Matching {
    assert!(
        is_two_regular(g),
        "graph must be 2-regular with equal sides"
    );
    let n = g.n_left();
    let mut m = Matching::empty(n, n);
    let mut visited = vec![false; n];

    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Walk the cycle: from left vertex l arriving via post `came_from`
        // (None for the start), match l to its other post and continue from
        // that post's other left vertex.
        let mut l = start;
        let mut came_from: Option<usize> = None;
        loop {
            visited[l] = true;
            let nbrs = g.neighbors_left(l);
            let p = match came_from {
                Some(cf) if nbrs[0].get() == cf => nbrs[1].get(),
                Some(_) => nbrs[0].get(),
                None => nbrs[0].get(),
            };
            m.add(l, p);
            let p_nbrs = g.neighbors_right(p);
            let l_next = if p_nbrs[0].get() == l {
                p_nbrs[1].get()
            } else {
                p_nbrs[0].get()
            };
            if l_next == start {
                break;
            }
            l = l_next;
            came_from = Some(p);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the disjoint union of even cycles with the given numbers of
    /// left vertices per cycle.
    fn cycles(sizes: &[usize]) -> BipartiteGraph {
        let n: usize = sizes.iter().sum();
        let mut edges = Vec::new();
        let mut base = 0;
        for &k in sizes {
            for i in 0..k {
                edges.push((base + i, base + i));
                edges.push((base + i, base + (i + 1) % k));
            }
            base += k;
        }
        BipartiteGraph::from_edges(n, n, &edges)
    }

    fn check_perfect(g: &BipartiteGraph, m: &Matching) {
        assert_eq!(m.size(), g.n_left());
        assert!(m.is_left_perfect());
        assert!(m.uses_only_edges_of(g));
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(0, 0);
        let t = DepthTracker::new();
        assert_eq!(two_regular_perfect_matching_parallel(&g, &t).size(), 0);
        assert_eq!(two_regular_perfect_matching_sequential(&g).size(), 0);
    }

    #[test]
    fn single_small_cycle() {
        let g = cycles(&[2]);
        let t = DepthTracker::new();
        check_perfect(&g, &two_regular_perfect_matching_parallel(&g, &t));
        check_perfect(&g, &two_regular_perfect_matching_sequential(&g));
    }

    #[test]
    fn multiple_cycles_of_various_sizes() {
        let g = cycles(&[2, 3, 5, 8]);
        let t = DepthTracker::new();
        check_perfect(&g, &two_regular_perfect_matching_parallel(&g, &t));
        check_perfect(&g, &two_regular_perfect_matching_sequential(&g));
    }

    #[test]
    fn regularity_check() {
        assert!(is_two_regular(&cycles(&[4])));
        let path = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        assert!(!is_two_regular(&path));
        let unbalanced = BipartiteGraph::from_edges(1, 2, &[(0, 0), (0, 1)]);
        assert!(!is_two_regular(&unbalanced));
    }

    #[test]
    #[should_panic(expected = "2-regular")]
    fn non_regular_input_panics() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        let t = DepthTracker::new();
        let _ = two_regular_perfect_matching_parallel(&g, &t);
    }

    #[test]
    fn large_single_cycle_logarithmic_rounds() {
        let g = cycles(&[20_000]);
        let t = DepthTracker::new();
        let m = two_regular_perfect_matching_parallel(&g, &t);
        check_perfect(&g, &m);
        // ⌈log₂ 40000⌉ = 16 doubling rounds plus three bookkeeping rounds.
        assert!(t.stats().depth <= 20, "depth = {}", t.stats().depth);
    }

    #[test]
    fn scrambled_cycle_labels() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        // Build cycles whose vertex ids are interleaved rather than
        // contiguous, to exercise the canonical-orientation choice.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sizes = [3usize, 4, 6, 7];
        let n: usize = sizes.iter().sum();
        let mut left_ids: Vec<usize> = (0..n).collect();
        let mut right_ids: Vec<usize> = (0..n).collect();
        left_ids.shuffle(&mut rng);
        right_ids.shuffle(&mut rng);
        let mut edges = Vec::new();
        let mut base = 0;
        for &k in &sizes {
            for i in 0..k {
                edges.push((left_ids[base + i], right_ids[base + i]));
                edges.push((left_ids[base + i], right_ids[base + (i + 1) % k]));
            }
            base += k;
        }
        let g = BipartiteGraph::from_edges(n, n, &edges);
        assert!(is_two_regular(&g));
        let t = DepthTracker::new();
        check_perfect(&g, &two_regular_perfect_matching_parallel(&g, &t));
        check_perfect(&g, &two_regular_perfect_matching_sequential(&g));
    }
}
