//! Pointer jumping (pointer doubling) and list ranking.
//!
//! Algorithm 2 of the paper finds *maximal paths* of degree-2 vertices "by
//! the doubling trick in polylog time", and Section IV finds roots/cycles in
//! pseudoforests.  Both reduce to the classic pointer-jumping primitive: each
//! vertex holds a pointer to a successor, and in `O(log n)` synchronous
//! rounds every vertex learns the end of its pointer chain and its distance
//! to it, by repeatedly replacing `ptr[v]` with `ptr[ptr[v]]`.

use rayon::prelude::*;

use crate::idx::Idx;
use crate::tracker::DepthTracker;
use crate::SEQUENTIAL_CUTOFF;

/// The result of [`pointer_jump_roots`]: for every vertex, the root (fixed
/// point) its pointer chain reaches and the number of hops to get there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointerJumpResult {
    /// `root[v]` is the unique vertex `r` with `parent[r] == r` reachable
    /// from `v` by following parent pointers.
    pub root: Vec<usize>,
    /// `dist[v]` is the number of parent-pointer hops from `v` to `root[v]`.
    pub dist: Vec<u64>,
    /// Number of doubling rounds executed.
    pub rounds: u32,
}

/// Finds, for every vertex of a *rooted forest* given by `parent` pointers
/// (roots satisfy `parent[r] == r`), the root of its tree and its depth,
/// using pointer doubling in `⌈log₂ n⌉` rounds.
///
/// A `usize` adapter over [`pointer_jump_roots_into_idx`]: same rounds,
/// same depth/work charges, numerically the same roots and distances.
///
/// # Panics
///
/// Panics if a parent pointer is out of range or the input does not fit
/// the [`Idx`] layer.  Debug builds also assert that the input is indeed a
/// forest (no vertex is left unresolved after `⌈log₂ n⌉` rounds).  In
/// release builds a cyclic input yields pointers that still sit on their
/// cycle, with `dist` equal to the number of hops performed; callers that
/// may hand in functional graphs with cycles should use the cycle-detection
/// routines in `pm_graph` instead.
pub fn pointer_jump_roots(parent: &[usize], tracker: &DepthTracker) -> PointerJumpResult {
    let n = parent.len();
    assert!(n <= Idx::MAX_INDEX + 1, "input exceeds the u32 index layer");
    assert!(
        parent.iter().all(|&p| p < n.max(1)),
        "parent pointer out of range"
    );
    let parent_idx: Vec<Idx> = parent.iter().map(|&p| Idx::new(p)).collect();
    let (mut root, mut dist) = (Vec::new(), Vec::new());
    let rounds = pointer_jump_roots_into_idx(
        &parent_idx,
        &mut root,
        &mut dist,
        &mut Vec::new(),
        &mut Vec::new(),
        tracker,
    );
    let root: Vec<usize> = root.iter().map(|r| r.get()).collect();
    debug_assert!(
        root.iter().all(|&r| parent[r] == r) || has_cycle(parent),
        "pointer jumping did not converge on an acyclic input"
    );
    PointerJumpResult {
        root,
        dist: dist.iter().map(|&d| u64::from(d)).collect(),
        rounds,
    }
}

/// Allocation-free pointer doubling over 32-bit pointers: writes the roots
/// into `root` and the hop counts into `dist`, double-buffering through the
/// two scratch vectors, and returns the number of doubling rounds.  All four
/// buffers reuse their capacity, so a caller that holds them across calls
/// (one checkout from a [`crate::Workspace`] outside a peeling loop, say)
/// pays no per-round *or* per-call heap allocation.
///
/// Hop counts are `u32`: every distance is bounded by the vertex count,
/// which the instance-size funnel keeps below `u32::MAX`.  Parent pointers
/// must be in range (debug-asserted; [`pointer_jump_roots`] checks them in
/// every build).
pub fn pointer_jump_roots_into_idx(
    parent: &[Idx],
    root: &mut Vec<Idx>,
    dist: &mut Vec<u32>,
    ptr_scratch: &mut Vec<Idx>,
    dist_scratch: &mut Vec<u32>,
    tracker: &DepthTracker,
) -> u32 {
    let n = parent.len();
    debug_assert!(
        parent.iter().all(|&p| p.get() < n.max(1)),
        "parent pointer out of range"
    );
    root.clear();
    root.extend_from_slice(parent);
    dist.clear();
    dist.extend(
        parent
            .iter()
            .enumerate()
            .map(|(v, &p)| u32::from(p.get() != v)),
    );
    // The scratches are fully overwritten every doubling round before any
    // read, so only their length matters — skip the O(n) refill when a
    // warm buffer already has it (saves two dense memsets per call, which
    // a peeling loop pays once per round), and allocate cold ones zeroed
    // (calloc fast path, no explicit memset).
    if ptr_scratch.capacity() < n {
        *ptr_scratch = vec![Idx::ZERO; n];
    } else if ptr_scratch.len() != n {
        ptr_scratch.clear();
        ptr_scratch.resize(n, Idx::ZERO);
    }
    if dist_scratch.capacity() < n {
        *dist_scratch = vec![0; n];
    } else if dist_scratch.len() != n {
        dist_scratch.clear();
        dist_scratch.resize(n, 0);
    }

    let max_rounds = if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    };
    let mut rounds = 0u32;
    for _ in 0..max_rounds {
        rounds += 1;
        tracker.round();
        tracker.work(n as u64);
        // Convergence is detected inside the round itself: a cell changes
        // iff its (pre-round) target is not yet a fixed point, so "nothing
        // changed" is read off the values already in hand — no separate
        // O(n) random-access check pass.  The flag is a pure function of
        // the data, never of scheduling.
        let changed = if n >= SEQUENTIAL_CUTOFF {
            let changed = std::sync::atomic::AtomicBool::new(false);
            ptr_scratch
                .par_iter_mut()
                .zip(dist_scratch.par_iter_mut())
                .enumerate()
                .for_each(|(v, (np, nd))| {
                    (*np, *nd) = jump_one(v, root, dist);
                    if *np != root[v] {
                        changed.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            changed.load(std::sync::atomic::Ordering::Relaxed)
        } else {
            let mut changed = false;
            for (v, (np, nd)) in ptr_scratch
                .iter_mut()
                .zip(dist_scratch.iter_mut())
                .enumerate()
            {
                (*np, *nd) = jump_one(v, root, dist);
                changed |= *np != root[v];
            }
            changed
        };
        std::mem::swap(root, ptr_scratch);
        std::mem::swap(dist, dist_scratch);
        if !changed {
            break;
        }
    }
    rounds
}

/// One synchronous pointer-doubling step for vertex `v`:
/// `ptr'[v] = ptr[ptr[v]]`, `dist'[v] = dist[v] + dist[ptr[v]]`.
/// When `ptr[v]` is already a root its `dist` is 0, so the update is a no-op
/// on the distance, which keeps the value exact at convergence.
#[inline(always)]
fn jump_one(v: usize, ptr: &[Idx], dist: &[u32]) -> (Idx, u32) {
    let p = ptr[v];
    (ptr[p], dist[v] + dist[p])
}

/// Min-label pointer doubling over the cycles of a permutation-like pointer
/// array: after the loop, `label[v]` is the minimum initial label on `v`'s
/// cycle.  The rounds ping-pong the two scratch buffers (no per-round
/// allocation; pass checked-out buffers for an allocation-free call) and
/// stop as soon as a round changes no label — stability is a sound
/// fixpoint (the stable window minima are constant along the stride orbit,
/// which closes into the whole cycle), so the early exit returns labels
/// bit-identical to running all `⌈log₂ n⌉` rounds.  This is the canonical
/// orientation primitive of the 2-regular perfect matcher
/// (`pm_matching::two_regular` and Algorithm 2's inlined even-cycle
/// finish).
///
/// `ptr` is consumed as working state (its final contents are the
/// `2^rounds`-fold composition); initial labels are taken from `label`.
pub fn min_label_cycles_idx(
    label: &mut Vec<Idx>,
    ptr: &mut Vec<Idx>,
    label_scratch: &mut Vec<Idx>,
    ptr_scratch: &mut Vec<Idx>,
    tracker: &DepthTracker,
) {
    let n = label.len();
    assert_eq!(ptr.len(), n, "label/pointer length mismatch");
    if n <= 1 {
        return;
    }
    // The scratches are fully overwritten each round before any read, so
    // only their length matters (same policy as the root-finding kernel).
    if label_scratch.len() != n {
        label_scratch.clear();
        label_scratch.resize(n, Idx::ZERO);
    }
    if ptr_scratch.len() != n {
        ptr_scratch.clear();
        ptr_scratch.resize(n, Idx::ZERO);
    }
    let rounds = usize::BITS - (n - 1).leading_zeros();
    for _ in 0..rounds {
        tracker.round();
        tracker.work(n as u64);
        // The change flag is read off the values already in hand (no
        // separate compare pass) and is a pure function of the data.
        let changed = if n >= SEQUENTIAL_CUTOFF {
            let changed = std::sync::atomic::AtomicBool::new(false);
            label_scratch
                .par_iter_mut()
                .zip(ptr_scratch.par_iter_mut())
                .enumerate()
                .for_each(|(a, (nl, np))| {
                    *nl = label[a].min(label[ptr[a]]);
                    *np = ptr[ptr[a]];
                    if *nl != label[a] {
                        changed.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            changed.load(std::sync::atomic::Ordering::Relaxed)
        } else {
            let mut changed = false;
            for (a, (nl, np)) in label_scratch
                .iter_mut()
                .zip(ptr_scratch.iter_mut())
                .enumerate()
            {
                *nl = label[a].min(label[ptr[a]]);
                *np = ptr[ptr[a]];
                changed |= *nl != label[a];
            }
            changed
        };
        std::mem::swap(label, label_scratch);
        std::mem::swap(ptr, ptr_scratch);
        if !changed {
            break;
        }
    }
}

fn has_cycle(parent: &[usize]) -> bool {
    // Simple sequential check used only in debug assertions.
    let n = parent.len();
    let mut colour = vec![0u8; n]; // 0 = white, 1 = grey, 2 = black
    for s in 0..n {
        if colour[s] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut v = s;
        loop {
            if colour[v] == 1 {
                return true;
            }
            if colour[v] == 2 {
                break;
            }
            colour[v] = 1;
            path.push(v);
            if parent[v] == v {
                break;
            }
            v = parent[v];
        }
        for u in path {
            colour[u] = 2;
        }
    }
    false
}

/// Ranks the elements of one or more linked lists: `succ[v]` is the successor
/// of `v` (or `None` for a list tail).  Returns for every element the number
/// of hops to its tail, computed by pointer doubling in `O(log n)` rounds.
///
/// This is the textbook list-ranking problem, the literal form of the
/// paper's Algorithm 2 step ("each edge at an even distance from `v0` is
/// added to `M`").  The solver's Algorithm 2 needs only where each walk
/// ends, not its length, and calls [`pointer_jump_roots_into_idx`] on the
/// chain nodes directly.
pub fn list_rank(succ: &[Option<usize>], tracker: &DepthTracker) -> Vec<u64> {
    let parent: Vec<usize> = succ
        .iter()
        .enumerate()
        .map(|(v, s)| s.unwrap_or(v))
        .collect();
    let result = pointer_jump_roots(&parent, tracker);
    result.dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_root_dist(parent: &[usize]) -> (Vec<usize>, Vec<u64>) {
        let n = parent.len();
        let mut root = vec![0usize; n];
        let mut dist = vec![0u64; n];
        for v in 0..n {
            let mut u = v;
            let mut d = 0u64;
            while parent[u] != u {
                u = parent[u];
                d += 1;
                assert!(d as usize <= n, "cycle in test input");
            }
            root[v] = u;
            dist[v] = d;
        }
        (root, dist)
    }

    #[test]
    fn empty_and_singleton() {
        let t = DepthTracker::new();
        let r = pointer_jump_roots(&[], &t);
        assert!(r.root.is_empty());
        let r = pointer_jump_roots(&[0], &t);
        assert_eq!(r.root, vec![0]);
        assert_eq!(r.dist, vec![0]);
    }

    #[test]
    fn single_path() {
        // 0 <- 1 <- 2 <- 3 <- 4 (parent points towards 0)
        let parent = vec![0, 0, 1, 2, 3];
        let t = DepthTracker::new();
        let r = pointer_jump_roots(&parent, &t);
        let (root, dist) = naive_root_dist(&parent);
        assert_eq!(r.root, root);
        assert_eq!(r.dist, dist);
    }

    #[test]
    fn star_and_forest() {
        // star rooted at 0 plus a separate chain rooted at 5
        let parent = vec![0, 0, 0, 0, 0, 5, 5, 6, 7];
        let t = DepthTracker::new();
        let r = pointer_jump_roots(&parent, &t);
        let (root, dist) = naive_root_dist(&parent);
        assert_eq!(r.root, root);
        assert_eq!(r.dist, dist);
    }

    #[test]
    fn long_path_logarithmic_rounds() {
        let n = 100_000usize;
        // path: parent[i] = i - 1, parent[0] = 0
        let parent: Vec<usize> = (0..n).map(|i| i.saturating_sub(1)).collect();
        let t = DepthTracker::new();
        let r = pointer_jump_roots(&parent, &t);
        let (root, dist) = naive_root_dist(&parent);
        assert_eq!(r.root, root);
        assert_eq!(r.dist, dist);
        // Rounds must be logarithmic, not linear.
        assert!(r.rounds <= 18, "rounds = {}", r.rounds);
    }

    #[test]
    fn random_forest_matches_naive() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for n in [2usize, 3, 10, 257, 5000] {
            // Build a random forest: parent[i] <= i, with some self-roots.
            let parent: Vec<usize> = (0..n)
                .map(|i| {
                    if i == 0 || rng.random_range(0..4) == 0 {
                        i
                    } else {
                        rng.random_range(0..i)
                    }
                })
                .collect();
            let t = DepthTracker::new();
            let r = pointer_jump_roots(&parent, &t);
            let (root, dist) = naive_root_dist(&parent);
            assert_eq!(r.root, root, "n = {n}");
            assert_eq!(r.dist, dist, "n = {n}");
        }
    }

    #[test]
    fn into_variant_reuses_buffers_across_calls() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let t = DepthTracker::new();
        let (mut root, mut dist) = (Vec::new(), Vec::new());
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        for n in [0usize, 1, 5, 4000, 100, 9001] {
            let parent: Vec<usize> = (0..n)
                .map(|i| if i == 0 { 0 } else { rng.random_range(0..i) })
                .collect();
            let parent_idx: Vec<Idx> = parent.iter().map(|&p| Idx::new(p)).collect();
            pointer_jump_roots_into_idx(&parent_idx, &mut root, &mut dist, &mut s1, &mut s2, &t);
            let (want_root, want_dist) = naive_root_dist(&parent);
            assert_eq!(root, want_root, "n = {n}");
            let dist_u64: Vec<u64> = dist.iter().map(|&d| u64::from(d)).collect();
            assert_eq!(dist_u64, want_dist, "n = {n}");
        }
    }

    #[test]
    fn idx_kernel_matches_usize_kernel() {
        // The `Idx` kernel against the `usize` entry point (which checks
        // and converts its input) and against the naive walk.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let t = DepthTracker::new();
        let (mut root, mut dist) = (Vec::new(), Vec::new());
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        for n in [0usize, 1, 5, 4000, 9001] {
            let parent: Vec<usize> = (0..n)
                .map(|i| if i == 0 { 0 } else { rng.random_range(0..i) })
                .collect();
            let parent_idx: Vec<Idx> = parent.iter().map(|&p| Idx::new(p)).collect();
            let rounds = pointer_jump_roots_into_idx(
                &parent_idx,
                &mut root,
                &mut dist,
                &mut s1,
                &mut s2,
                &t,
            );
            let want = pointer_jump_roots(&parent, &t);
            assert_eq!(rounds, want.rounds, "n = {n}");
            let root_usize: Vec<usize> = root.iter().map(|r| r.get()).collect();
            assert_eq!(root_usize, want.root, "n = {n}");
            let dist_u64: Vec<u64> = dist.iter().map(|&d| u64::from(d)).collect();
            assert_eq!(dist_u64, want.dist, "n = {n}");
            let (naive_root, naive_dist) = naive_root_dist(&parent);
            assert_eq!(root_usize, naive_root, "n = {n}");
            assert_eq!(dist_u64, naive_dist, "n = {n}");
        }
    }

    #[test]
    fn min_label_idx_matches_naive_cycle_minimum() {
        use rand::{seq::SliceRandom, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for n in [1usize, 2, 9, 4096] {
            // A random permutation: a disjoint union of cycles.
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let want: Vec<usize> = (0..n)
                .map(|v| {
                    let (mut min, mut u) = (v, perm[v]);
                    while u != v {
                        min = min.min(u);
                        u = perm[u];
                    }
                    min
                })
                .collect();
            let t = DepthTracker::new();
            let mut label: Vec<Idx> = (0..n).map(Idx::new).collect();
            let mut ptr: Vec<Idx> = perm.iter().map(|&p| Idx::new(p)).collect();
            min_label_cycles_idx(&mut label, &mut ptr, &mut Vec::new(), &mut Vec::new(), &t);
            assert_eq!(label, want, "n = {n}");
        }
    }

    #[test]
    fn list_rank_simple_list() {
        // list 0 -> 1 -> 2 -> 3 -> None
        let succ = vec![Some(1), Some(2), Some(3), None];
        let t = DepthTracker::new();
        let ranks = list_rank(&succ, &t);
        assert_eq!(ranks, vec![3, 2, 1, 0]);
    }

    #[test]
    fn list_rank_multiple_lists() {
        // two lists: 0->1->None, 2->3->4->None, plus isolated 5
        let succ = vec![Some(1), None, Some(3), Some(4), None, None];
        let t = DepthTracker::new();
        let ranks = list_rank(&succ, &t);
        assert_eq!(ranks, vec![1, 0, 2, 1, 0, 0]);
    }
}
