//! Connected components: a parallel O(log n)-round algorithm and a
//! sequential union–find baseline.
//!
//! Theorem 8 of the paper invokes the Cole–Vishkin connected-components
//! algorithm.  We substitute the deterministic min-label hooking +
//! shortcutting scheme (the "FastSV" formulation of Shiloach–Vishkin), which
//! also converges in `O(log n)` rounds; the round count is recorded on the
//! [`DepthTracker`] so experiment E7 can verify logarithmic behaviour.
//! Outputs are canonical: every vertex is labelled with the minimum vertex
//! id of its component, so the parallel and sequential routines agree
//! exactly.

use std::sync::atomic::Ordering;

use rayon::prelude::*;

use pm_pram::tracker::DepthTracker;
use pm_pram::{Idx, Workspace};

/// Canonical component labelling: `label[v]` is the smallest vertex id in
/// `v`'s component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    /// Per-vertex canonical label (minimum vertex id of the component).
    pub label: Vec<usize>,
    /// Number of distinct components.
    pub count: usize,
    /// Number of synchronous rounds the algorithm used (0 for union–find).
    pub rounds: u64,
}

impl ComponentLabels {
    /// Groups vertices by component, ordered by canonical label.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut by_label: Vec<Vec<usize>> = Vec::new();
        let mut index_of: Vec<Option<usize>> = vec![None; self.label.len()];
        for v in 0..self.label.len() {
            let root = self.label[v];
            let idx = match index_of[root] {
                Some(i) => i,
                None => {
                    by_label.push(Vec::new());
                    index_of[root] = Some(by_label.len() - 1);
                    by_label.len() - 1
                }
            };
            by_label[idx].push(v);
        }
        by_label
    }
}

/// Deterministic parallel connected components (min-label hooking +
/// shortcutting), `O(log n)` rounds.
///
/// A `usize` adapter over [`connected_components_idx_ws`]: same labels,
/// same rounds, same depth/work charges.
///
/// # Panics
///
/// Panics if an edge endpoint is out of range or `n` does not fit the
/// [`Idx`] layer.
pub fn connected_components_parallel(
    n: usize,
    edges: &[(usize, usize)],
    tracker: &DepthTracker,
) -> ComponentLabels {
    assert!(n <= Idx::MAX_INDEX + 1, "input exceeds the u32 index layer");
    let edges: Vec<(Idx, Idx)> = edges
        .iter()
        .map(|&(u, v)| {
            assert!(u < n && v < n, "edge endpoint out of range");
            (Idx::new(u), Idx::new(v))
        })
        .collect();
    let labels = connected_components_idx_ws(n, &edges, &mut Workspace::new(), tracker);
    ComponentLabels {
        label: labels.label.iter().map(|l| l.get()).collect(),
        count: labels.count,
        rounds: labels.rounds,
    }
}

/// Canonical component labelling in the 32-bit index layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabelsIdx {
    /// Per-vertex canonical label (minimum vertex id of the component).
    pub label: Vec<Idx>,
    /// Number of distinct components.
    pub count: usize,
    /// Number of synchronous rounds the algorithm used.
    pub rounds: u64,
}

/// Workspace-backed parallel connected components on the 32-bit layer:
/// edges are `(Idx, Idx)` pairs, the hooking forest is `AtomicU32` and the
/// output labelling is `Idx` (DESIGN.md §7).  The hooking forest, the two
/// round-scratch snapshots and the output labelling are all checked out of
/// `ws`, so repeated calls against a long-lived workspace allocate nothing
/// (the caller may return `label` with `put_idx` when done with it).
pub fn connected_components_idx_ws(
    n: usize,
    edges: &[(Idx, Idx)],
    ws: &mut Workspace,
    tracker: &DepthTracker,
) -> ComponentLabelsIdx {
    if n == 0 {
        return ComponentLabelsIdx {
            label: Vec::new(),
            count: 0,
            rounds: 0,
        };
    }
    debug_assert!(n <= Idx::MAX_INDEX + 1);
    for &(u, v) in edges {
        assert!(u.get() < n && v.get() < n, "edge endpoint out of range");
    }

    let parent = ws.take_atomic_u32_identity(n);
    let mut rounds = 0u64;

    // Round-scratch buffers, reused across all hooking rounds (every cell
    // is rewritten at the start of each round, so the checkouts skip the
    // fill).
    let mut snapshot = ws.take_u32_dirty(n, 0);
    let mut grand = ws.take_u32_dirty(n, 0);

    loop {
        rounds += 1;
        tracker.round();
        tracker.work((n + edges.len()) as u64);

        // Snapshot of the grandparent function at the start of the round.
        for (s, p) in snapshot.iter_mut().zip(parent.iter()) {
            *s = p.load(Ordering::Relaxed);
        }
        for (g, &p) in grand.iter_mut().zip(snapshot.iter()) {
            *g = snapshot[p as usize];
        }

        // Hooking: min-writes commute, so the result is deterministic
        // regardless of scheduling.
        edges.par_iter().for_each(|&(u, v)| {
            let (u, v) = (u.get(), v.get());
            let (gu, gv) = (grand[u], grand[v]);
            let m = gu.min(gv);
            parent[snapshot[u] as usize].fetch_min(m, Ordering::Relaxed);
            parent[snapshot[v] as usize].fetch_min(m, Ordering::Relaxed);
            parent[u].fetch_min(m, Ordering::Relaxed);
            parent[v].fetch_min(m, Ordering::Relaxed);
        });

        // Shortcutting against a post-hook snapshot: reading live
        // `parent[p]` would race with p's own shortcut write and make the
        // round count charged on the tracker depend on chunk scheduling.
        for (g, p) in grand.iter_mut().zip(parent.iter()) {
            *g = p.load(Ordering::Relaxed);
        }
        (0..n).into_par_iter().for_each(|v| {
            let gp = grand[grand[v] as usize];
            parent[v].fetch_min(gp, Ordering::Relaxed);
        });

        let stable = parent
            .iter()
            .zip(snapshot.iter())
            .all(|(p, &s)| p.load(Ordering::Relaxed) == s);
        if stable {
            break;
        }
        assert!(
            rounds <= 4 * (usize::BITS as u64) + 8,
            "connected components failed to converge"
        );
    }

    let mut label = ws.take_idx(n, Idx::ZERO);
    for (l, p) in label.iter_mut().zip(parent.iter()) {
        *l = Idx::from_raw(p.load(Ordering::Relaxed));
    }
    ws.put_atomic_u32(parent);
    ws.put_u32(snapshot);
    ws.put_u32(grand);
    debug_assert!(label.iter().all(|&l| label[l] == l));
    let count = label
        .iter()
        .enumerate()
        .filter(|&(v, &l)| v == l.get())
        .count();
    ComponentLabelsIdx {
        label,
        count,
        rounds,
    }
}

/// Sequential union–find baseline with canonical (min-vertex) labels.
pub fn connected_components_union_find(n: usize, edges: &[(usize, usize)]) -> ComponentLabels {
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for &(u, v) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            // Union by canonical label: the smaller id becomes the root so the
            // final labelling matches the parallel algorithm's.
            let (small, big) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent[big] = small;
        }
    }

    let mut label = vec![0usize; n];
    for (v, l) in label.iter_mut().enumerate() {
        *l = find(&mut parent, v);
    }
    let count = label.iter().enumerate().filter(|&(v, &l)| v == l).count();
    ComponentLabels {
        label,
        count,
        rounds: 0,
    }
}

/// Number of connected components (sequential).
pub fn count_components(n: usize, edges: &[(usize, usize)]) -> usize {
    connected_components_union_find(n, edges).count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_agreement(n: usize, edges: &[(usize, usize)]) {
        let t = DepthTracker::new();
        let par = connected_components_parallel(n, edges, &t);
        let seq = connected_components_union_find(n, edges);
        assert_eq!(par.label, seq.label, "labels differ for n={n}");
        assert_eq!(par.count, seq.count);
    }

    #[test]
    fn empty_graph() {
        let t = DepthTracker::new();
        let c = connected_components_parallel(0, &[], &t);
        assert_eq!(c.count, 0);
        let c = connected_components_parallel(5, &[], &t);
        assert_eq!(c.count, 5);
        assert_eq!(c.label, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn simple_components() {
        // {0,1,2} via path, {3,4} via edge, {5} isolated
        let edges = [(0, 1), (1, 2), (3, 4)];
        check_agreement(6, &edges);
        let seq = connected_components_union_find(6, &edges);
        assert_eq!(seq.label, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(seq.count, 3);
        assert_eq!(seq.groups(), vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn long_path_converges_in_logarithmic_rounds() {
        let n = 1 << 14;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let t = DepthTracker::new();
        let c = connected_components_parallel(n, &edges, &t);
        assert_eq!(c.count, 1);
        assert!(c.label.iter().all(|&l| l == 0));
        assert!(c.rounds <= 20, "rounds = {}", c.rounds);
    }

    #[test]
    fn cycles_and_self_loops() {
        let edges = [(0, 1), (1, 2), (2, 0), (3, 3)];
        check_agreement(5, &edges);
        let seq = connected_components_union_find(5, &edges);
        assert_eq!(seq.count, 3); // {0,1,2}, {3}, {4}
    }

    #[test]
    fn random_graphs_agree() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for &n in &[2usize, 10, 100, 1000] {
            for density in [1usize, 2, 4] {
                let m = n * density / 2;
                let edges: Vec<(usize, usize)> = (0..m)
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                    .collect();
                check_agreement(n, &edges);
            }
        }
    }

    #[test]
    fn ws_variant_agrees_and_reuses_buffers() {
        // The returned labelling is the only `Idx` buffer in the pool, so
        // every later call, shrinking or regrowing, hands it back out.
        let t = DepthTracker::new();
        let mut ws = Workspace::new();
        let mut label_buf = None;
        for n in [800usize, 50, 3, 800] {
            let path: Vec<(Idx, Idx)> = (1..n).map(|v| (Idx::new(v - 1), Idx::new(v))).collect();
            let got = connected_components_idx_ws(n, &path, &mut ws, &t);
            assert_eq!(got.count, 1, "n = {n}");
            assert!(got.label.iter().all(|&l| l == Idx::ZERO), "n = {n}");
            let ptr = got.label.as_ptr();
            assert!(label_buf.is_none_or(|p| p == ptr), "n = {n}");
            label_buf = Some(ptr);
            ws.put_idx(got.label);
        }
    }

    #[test]
    fn idx_variant_agrees_with_union_find() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let t = DepthTracker::new();
        let mut ws = Workspace::new();
        for &n in &[0usize, 1, 3, 50, 800] {
            let edges: Vec<(usize, usize)> = (0..n)
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .collect();
            let edges_idx: Vec<(Idx, Idx)> = edges
                .iter()
                .map(|&(u, v)| (Idx::new(u), Idx::new(v)))
                .collect();
            let got = connected_components_idx_ws(n, &edges_idx, &mut ws, &t);
            let want = connected_components_union_find(n, &edges);
            let got_labels: Vec<usize> = got.label.iter().map(|l| l.get()).collect();
            assert_eq!(got_labels, want.label, "n = {n}");
            assert_eq!(got.count, want.count);
            ws.put_idx(got.label);
        }
    }

    #[test]
    fn count_components_helper() {
        assert_eq!(count_components(4, &[(0, 1), (2, 3)]), 2);
        assert_eq!(count_components(4, &[]), 4);
        assert_eq!(count_components(4, &[(0, 1), (1, 2), (2, 3)]), 1);
    }
}
