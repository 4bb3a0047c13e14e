//! Hopcroft–Karp maximum-cardinality bipartite matching.
//!
//! Used as the independent referee in experiment E9 (Theorem 11 reduces
//! maximum-cardinality bipartite matching to popular matching; Lemmas 12 and
//! 13 say the two problems have the same optimal size on the all-rank-1
//! construction, which the tests verify by comparing against this routine),
//! and by the brute-force popularity verifier for small instances.

use pm_graph::BipartiteGraph;
use pm_pram::{DepthTracker, Idx, Phase};

use crate::matching::Matching;

const INF: u32 = u32::MAX;

/// Sentinel for "unmatched" in the dense match arrays: the [`Idx::NONE`]
/// pattern — a quarter of the footprint of `Option<usize>` and half of the
/// former `usize::MAX` sentinel, which matters on the 10^6-vertex ties
/// workload where the BFS/DFS sweeps are bandwidth-bound.
const FREE: Idx = Idx::NONE;

/// Per-right-vertex state, fused into one 8-byte record.
///
/// The hot chain of both the BFS layering and the layered DFS is the
/// two-step gather `match_right[r]` → `dist[match_right[r]]`: the first load
/// lands on a random cache line and the second *depends on it*, so the
/// textbook two-array layout pays two serialized memory round-trips per edge
/// scan.  A left vertex is only ever reached through its unique matched
/// right vertex, so its BFS layer can live *on that right* — fusing the
/// match pointer and the layer into one aligned record makes the chain a
/// single random cache-line touch (DESIGN.md §11: fuse passes that share an
/// index space; here we fuse the *arrays* that share an access path).
#[derive(Clone, Copy, Debug)]
struct RightState {
    /// The left vertex matched to this right, or [`FREE`].
    left: Idx,
    /// The BFS layer of `left` in the current phase, maintained as exactly
    /// the `dist[match_right[r]]` of the textbook formulation
    /// (`INF` = undiscovered or exhausted this phase).
    dist: u32,
}

/// Computes a maximum-cardinality matching of `g` with the Hopcroft–Karp
/// algorithm in `O(E √V)` time.
pub fn hopcroft_karp(g: &BipartiteGraph) -> Matching {
    let mut out = Matching::empty(0, 0);
    hopcroft_karp_into(g, &mut out, &mut HkScratch::default(), &DepthTracker::new());
    out
}

/// Caller-owned scratch for [`hopcroft_karp_into`]: the dense left-match
/// array, the fused per-right state, and the BFS queue.  Hold one per
/// serving solver and every warm call over a graph no larger than any
/// previous one performs no heap allocation.
#[derive(Debug, Default)]
pub struct HkScratch {
    match_left: Vec<Idx>,
    rights: Vec<RightState>,
    /// BFS queue of `(left vertex, its layer)`: carrying the layer in the
    /// (sequentially scanned) queue is what lets the left-indexed `dist`
    /// array disappear entirely.
    queue: Vec<(Idx, u32)>,
}

/// Allocation-free Hopcroft–Karp: all storage is caller-provided via
/// [`HkScratch`], and the result is written into `out` via
/// [`Matching::reset`].  The matching produced is bit-for-bit the one
/// [`hopcroft_karp`] returns.  The sweeps' wall time goes to `tracker`'s
/// [`Phase::HkBfs`], [`Phase::HkDfs`] and [`Phase::HkAugment`] spans; no
/// depth or work is charged.
pub fn hopcroft_karp_into(
    g: &BipartiteGraph,
    out: &mut Matching,
    ws: &mut HkScratch,
    tracker: &DepthTracker,
) {
    let n_left = g.n_left();
    let n_right = g.n_right();
    let HkScratch {
        match_left,
        rights,
        queue,
    } = ws;
    match_left.clear();
    match_left.resize(n_left, FREE);
    rights.clear();
    rights.resize(
        n_right,
        RightState {
            left: FREE,
            dist: INF,
        },
    );

    loop {
        // BFS phase: layer the free left vertices.  The queue is a plain
        // vector with a read cursor (elements are never removed, so FIFO
        // order matches the textbook deque formulation exactly).
        let found_augmenting_layer;
        let free_before;
        {
            let _bfs = tracker.span(Phase::HkBfs);
            queue.clear();
            let mut head = 0usize;
            for st in rights.iter_mut() {
                st.dist = INF;
            }
            for (l, &m) in match_left.iter().enumerate() {
                if m == FREE {
                    queue.push((Idx::new(l), 0));
                }
            }
            free_before = queue.len();
            let mut found = false;
            while head < queue.len() {
                let (l, dl) = queue[head];
                head += 1;
                let nbrs = g.neighbors_left(l.get());
                for &r in nbrs {
                    let st = rights[r];
                    if st.left == FREE {
                        found = true;
                    } else if st.dist == INF {
                        rights[r].dist = dl + 1;
                        queue.push((st.left, dl + 1));
                    }
                }
            }
            found_augmenting_layer = found;
        }
        if !found_augmenting_layer {
            break;
        }

        // DFS phase: find a maximal set of vertex-disjoint shortest
        // augmenting paths.  The path flips happen in place inside `dfs`,
        // so the `hk_dfs` span covers both the search and the augmenting
        // rewrites; `hk_augment` below is the final matching write-out.
        let _dfs = tracker.span(Phase::HkDfs);
        let mut augments = 0usize;
        for l in 0..n_left {
            if match_left[l] == FREE && dfs(l, 0, FREE, g, match_left, rights) {
                augments += 1;
            }
        }
        if free_before == augments {
            // Left-perfect: skip the final proving BFS sweep.
            break;
        }
    }

    let _aug = tracker.span(Phase::HkAugment);
    out.reset(n_left, n_right);
    for (l, &r) in match_left.iter().enumerate() {
        if r != FREE {
            out.add(l, r.get());
        }
    }
}

/// Layered DFS from left vertex `l` at layer `dl`, entered through matched
/// right `entry` (or [`FREE`] for a phase root).  On exhaustion the layer
/// stored on `entry` is set to `INF` — the fused-record equivalent of the
/// textbook `dist[l] = INF` dead mark, written to a cache line the caller
/// touched one load ago.
fn dfs(
    l: usize,
    dl: u32,
    entry: Idx,
    g: &BipartiteGraph,
    match_left: &mut [Idx],
    rights: &mut [RightState],
) -> bool {
    for &r in g.neighbors_left(l) {
        let st = rights[r];
        if st.left == FREE {
            rights[r] = RightState {
                left: Idx::new(l),
                dist: dl,
            };
            match_left[l] = r;
            return true;
        }
        if st.dist == dl + 1 && dfs(st.left.get(), dl + 1, r, g, match_left, rights) {
            rights[r] = RightState {
                left: Idx::new(l),
                dist: dl,
            };
            match_left[l] = r;
            return true;
        }
    }
    if entry != FREE {
        rights[entry].dist = INF;
    }
    false
}

/// Exhaustive maximum-matching size for tiny graphs (used only in tests and
/// the brute-force verifiers); exponential in the number of left vertices.
pub fn brute_force_max_matching_size(g: &BipartiteGraph) -> usize {
    fn rec(g: &BipartiteGraph, l: usize, used: &mut Vec<bool>) -> usize {
        if l == g.n_left() {
            return 0;
        }
        // Option 1: leave l unmatched.
        let mut best = rec(g, l + 1, used);
        // Option 2: match l to any free neighbour.
        for &r in g.neighbors_left(l) {
            if !used[r] {
                used[r] = true;
                best = best.max(1 + rec(g, l + 1, used));
                used[r] = false;
            }
        }
        best
    }
    let mut used = vec![false; g.n_right()];
    rec(g, 0, &mut used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(3, 3);
        assert_eq!(hopcroft_karp(&g).size(), 0);
    }

    #[test]
    fn perfect_matching_exists() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 3);
        assert!(m.uses_only_edges_of(&g));
        assert!(m.is_left_perfect());
    }

    #[test]
    fn bottleneck_limits_size() {
        // Three left vertices all only like right vertex 0.
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 0), (2, 0)]);
        assert_eq!(hopcroft_karp(&g).size(), 1);
    }

    #[test]
    fn requires_augmenting_paths() {
        // A graph where the greedy matching is not maximum.
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 3);
    }

    #[test]
    fn into_variant_reuses_buffers_and_matches_plain() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut out = Matching::empty(0, 0);
        let mut ws = HkScratch::default();
        let tracker = DepthTracker::new();
        for _ in 0..20 {
            let n = rng.random_range(1..40);
            let mut edges = Vec::new();
            for l in 0..n {
                edges.push((l, l % n));
                edges.push((l, rng.random_range(0..n)));
            }
            let g = BipartiteGraph::from_edges(n, n, &edges);
            hopcroft_karp_into(&g, &mut out, &mut ws, &tracker);
            let want = hopcroft_karp(&g);
            assert_eq!(out.left_assignment(), want.left_assignment());
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n_left = rng.random_range(1..7);
            let n_right = rng.random_range(1..7);
            let mut edges = Vec::new();
            for l in 0..n_left {
                for r in 0..n_right {
                    if rng.random_range(0..3) == 0 {
                        edges.push((l, r));
                    }
                }
            }
            let g = BipartiteGraph::from_edges(n_left, n_right, &edges);
            let hk = hopcroft_karp(&g);
            assert!(hk.uses_only_edges_of(&g));
            assert_eq!(hk.size(), brute_force_max_matching_size(&g));
        }
    }

    #[test]
    fn large_bipartite_cycle() {
        // A single cycle of length 2n has a perfect matching.
        let n = 5000;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, i));
            edges.push((i, (i + 1) % n));
        }
        let g = BipartiteGraph::from_edges(n, n, &edges);
        assert_eq!(hopcroft_karp(&g).size(), n);
    }
}
