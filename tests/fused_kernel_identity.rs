//! Fused-kernel bit-identity: the single-sweep fused primitives in
//! `pm_pram` must be **interchangeable** with their unfused two-pass
//! ancestors — identical outputs *and* identical `DepthTracker` depth/work
//! charges — at every input size and executor width.  The same holds for
//! the public `usize` entry points of `pm_pram`, `pm_graph` and
//! `pm_matching` against the 32-bit `Idx` kernels they wrap.
//!
//! Same harness shape as `tests/parallel_determinism.rs`: each property
//! runs under `ThreadPool::install(1)` and `install(4)` (the in-process
//! equivalent of the CI `PM_THREADS` matrix) and the size sweep straddles
//! `SEQUENTIAL_CUTOFF` so the inline, boundary and blocked code paths are
//! all exercised.  Any divergence here means the fusion changed semantics
//! or accounting, which would silently skew every depth/work trajectory
//! the experiments record.

use pm_graph::connected::{
    connected_components_idx_ws, connected_components_parallel, ComponentLabels,
};
use pm_graph::functional::{extract_cycles_marked_idx, on_cycle_of_idx, FunctionalGraph};
use pm_graph::BipartiteGraph;
use pm_matching::two_regular::two_regular_perfect_matching_parallel;
use pm_pram::compact::{compact_indices, compact_indices_fused_into_idx, compact_with};
use pm_pram::pointer::{
    list_rank, pointer_jump_roots, pointer_jump_roots_into_idx, PointerJumpResult,
};
use pm_pram::scan::csr_offsets_into_u32;
use pm_pram::{DepthTracker, Idx, PramStats, Workspace, SEQUENTIAL_CUTOFF};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools always build")
}

/// Sizes straddling the sequential cutoff plus a blocked-path size large
/// enough for multi-chunk fan-out at width 4.
fn sizes() -> [usize; 7] {
    [
        0,
        1,
        17,
        SEQUENTIAL_CUTOFF - 1,
        SEQUENTIAL_CUTOFF,
        SEQUENTIAL_CUTOFF + 1,
        50_000,
    ]
}

/// Deterministic pseudo-random draws below `bound`.
fn draws(seed: u64) -> impl FnMut(usize) -> usize {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |bound| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound.max(1)
    }
}

/// The unfused two-pass compaction, the reference the fused kernel is
/// checked against: the predicate is evaluated into a 0/1 flag array, a
/// CSR scan turns the flags into output slots, and a scatter round writes
/// the kept indices.
fn compact_indices_into_idx<F>(
    n: usize,
    keep: F,
    out: &mut Vec<Idx>,
    ws: &mut Workspace,
    tracker: &DepthTracker,
) where
    F: Fn(usize) -> bool + Send + Sync,
{
    // Round 1: evaluate the predicate into 0/1 counts.
    tracker.round();
    tracker.work(n as u64);
    let mut flags = ws.take_u32(n, 0);
    if n >= SEQUENTIAL_CUTOFF {
        flags
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, f)| *f = u32::from(keep(i)));
    } else {
        for (i, f) in flags.iter_mut().enumerate() {
            *f = u32::from(keep(i));
        }
    }

    // Scan rounds: each kept element's output slot (CSR boundaries; the
    // trailing total slot is ignored).
    let mut slots = ws.take_u32_empty();
    let mut chunk_scratch = ws.take_u32_empty();
    let total = csr_offsets_into_u32(&flags, &mut slots, &mut chunk_scratch, tracker);

    // Scatter round.
    tracker.round();
    tracker.work(n as u64);
    out.clear();
    out.resize(total, Idx::ZERO);
    for i in 0..n {
        if flags[i] == 1 {
            out[slots[i] as usize] = Idx::new(i);
        }
    }

    ws.put_u32(flags);
    ws.put_u32(slots);
    ws.put_u32(chunk_scratch);
}

/// Everything observable from one compaction run.
#[derive(Debug, PartialEq, Eq)]
struct CompactFingerprint {
    kept: Vec<Idx>,
    stats: PramStats,
}

fn compact<F>(n: usize, keep: F, fused: bool) -> CompactFingerprint
where
    F: Fn(usize) -> bool + Send + Sync,
{
    let tracker = DepthTracker::new();
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    if fused {
        compact_indices_fused_into_idx(n, keep, &mut out, &mut ws, &tracker);
    } else {
        compact_indices_into_idx(n, keep, &mut out, &mut ws, &tracker);
    }
    CompactFingerprint {
        kept: out,
        stats: tracker.stats(),
    }
}

#[test]
fn fused_compaction_is_bit_identical_to_unfused_across_widths() {
    // A pure, cheap predicate with an irregular keep pattern (~37% kept).
    let keep = |i: usize| (i.wrapping_mul(2654435761) >> 7) % 8 < 3;
    for n in sizes() {
        let reference = compact(n, keep, false);
        let filtered: Vec<Idx> = (0..n).filter(|&i| keep(i)).map(Idx::new).collect();
        assert_eq!(reference.kept, filtered, "unfused reference (n = {n})");
        for threads in [1usize, 4] {
            let fused = pool(threads).install(|| compact(n, keep, true));
            assert_eq!(
                fused.kept, reference.kept,
                "fused compaction output diverged (n = {n}, {threads} threads)"
            );
            assert_eq!(
                fused.stats, reference.stats,
                "fused compaction depth/work charges diverged (n = {n}, {threads} threads)"
            );
        }
        // Degenerate predicates: keep-all and keep-none.
        for (name, pred) in [("all", true), ("none", false)] {
            let r = compact(n, |_| pred, false);
            let f = pool(4).install(|| compact(n, |_| pred, true));
            assert_eq!(f, r, "fused compaction diverged on keep-{name} (n = {n})");
        }
    }
}

// ------------------------------------------------------------------------
// The `usize` boundary adapters: each narrows its input once and calls one
// `Idx` kernel, so it must match that kernel run on the converted input.

/// Runs `adapter` under `install(1)` and `install(4)` and checks both runs
/// against `kernel` under `install(1)`: equal outputs and equal `PramStats`.
fn assert_matches_kernel<T: PartialEq + std::fmt::Debug + Send>(
    what: &str,
    n: usize,
    kernel: impl Fn(&DepthTracker) -> T + Sync,
    adapter: impl Fn(&DepthTracker) -> T + Sync,
) {
    let run = |f: &(dyn Fn(&DepthTracker) -> T + Sync), threads: usize| {
        pool(threads).install(|| {
            let tracker = DepthTracker::new();
            (f(&tracker), tracker.stats())
        })
    };
    let reference = run(&kernel, 1);
    for t in [1, 4] {
        assert_eq!(run(&adapter, t), reference, "{what}: n = {n}, {t} threads");
    }
}

fn widen(xs: &[Idx]) -> Vec<usize> {
    xs.iter().map(|x| x.get()).collect()
}

#[test]
fn pointer_jumping_adapters_match_the_idx_kernel() {
    for n in sizes() {
        let mut draw = draws(5);
        let parent: Vec<usize> = (0..n)
            .map(|i| if i == 0 || draw(4) == 0 { i } else { draw(i) })
            .collect();
        let parent_idx: Vec<Idx> = parent.iter().map(|&p| Idx::new(p)).collect();
        let kernel = |t: &DepthTracker| {
            let (mut root, mut dist) = (Vec::new(), Vec::new());
            let (mut s1, mut s2) = (Vec::new(), Vec::new());
            let rounds =
                pointer_jump_roots_into_idx(&parent_idx, &mut root, &mut dist, &mut s1, &mut s2, t);
            let (root, dist) = (widen(&root), dist.iter().map(|&d| u64::from(d)).collect());
            PointerJumpResult { root, dist, rounds }
        };
        let adapter = |t: &DepthTracker| pointer_jump_roots(&parent, t);
        assert_matches_kernel("pointer_jump_roots", n, kernel, adapter);
        // As a list, every root is a tail.
        let succ: Vec<Option<usize>> = (0..n)
            .map(|v| (parent[v] != v).then_some(parent[v]))
            .collect();
        assert_matches_kernel("list_rank", n, |t| kernel(t).dist, |t| list_rank(&succ, t));
    }
}

#[test]
fn compaction_adapters_match_the_fused_kernel() {
    let keep = |i: usize| (i.wrapping_mul(2654435761) >> 7) % 8 < 3;
    for n in sizes() {
        let kernel = |t: &DepthTracker| {
            let mut out = Vec::new();
            compact_indices_fused_into_idx(n, keep, &mut out, &mut Workspace::new(), t);
            widen(&out)
        };
        let adapter = |t: &DepthTracker| compact_indices(n, keep, t);
        assert_matches_kernel("compact_indices", n, kernel, adapter);
        // compact_with is the same compaction plus one gather round.
        let xs: Vec<usize> = (0..n).map(|i| 7 * i).collect();
        let gather = |t: &DepthTracker| {
            let kept = kernel(t);
            t.round();
            t.work(kept.len() as u64);
            kept.iter().map(|&i| xs[i]).collect::<Vec<_>>()
        };
        let adapter = |t: &DepthTracker| compact_with(&xs, |&x| keep(x / 7), t);
        assert_matches_kernel("compact_with", n, gather, adapter);
    }
}

fn components_idx(n: usize, edges: &[(usize, usize)], t: &DepthTracker) -> ComponentLabels {
    let edges: Vec<(Idx, Idx)> = edges
        .iter()
        .map(|&(u, v)| (Idx::new(u), Idx::new(v)))
        .collect();
    let c = connected_components_idx_ws(n, &edges, &mut Workspace::new(), t);
    let label = widen(&c.label);
    ComponentLabels {
        label,
        count: c.count,
        rounds: c.rounds,
    }
}

#[test]
fn graph_adapters_match_the_idx_kernels() {
    for n in sizes() {
        let mut draw = draws(11);
        let edges: Vec<(usize, usize)> = (0..n).map(|_| (draw(n), draw(n))).collect();
        let cc = |t: &DepthTracker| components_idx(n, &edges, t);
        let cc_usize = |t: &DepthTracker| connected_components_parallel(n, &edges, t);
        assert_matches_kernel("connected_components", n, cc, cc_usize);

        let succ: Vec<Option<usize>> = (0..n).map(|_| (draw(6) != 0).then(|| draw(n))).collect();
        let succ_idx: Vec<Idx> = succ.iter().map(|&s| Idx::from_option(s)).collect();
        let g = FunctionalGraph::new(succ);
        let marks = |t: &DepthTracker| {
            let mut out = Vec::new();
            on_cycle_of_idx(&succ_idx, &mut out, &mut Workspace::new(), t);
            out
        };
        assert_matches_kernel("on_cycle_parallel", n, marks, |t| g.on_cycle_parallel(t));
        let cycles = |t: &DepthTracker| extract_cycles_marked_idx(&succ_idx, &marks(t));
        assert_matches_kernel("cycles_parallel", n, cycles, |t| g.cycles_parallel(t));
        let cycles_seq =
            |_: &DepthTracker| extract_cycles_marked_idx(&succ_idx, &g.on_cycle_sequential());
        let cycles_seq_usize = |_: &DepthTracker| g.cycles_sequential();
        assert_matches_kernel("cycles_sequential", n, cycles_seq, cycles_seq_usize);
        let weak = |t: &DepthTracker| components_idx(n, &g.edges(), t);
        assert_matches_kernel("weak_components", n, weak, |t| g.weak_components(t));
    }
}

#[test]
fn two_regular_matcher_keeps_its_answers_and_accounting() {
    // Disjoint even cycles with these left sizes, ids scrambled by
    // multiplying with primes coprime to n.  An FNV-1a hash of the answer,
    // the depth and the work were recorded before the matcher moved onto
    // the `Idx` min-label kernel.
    let pinned: [(&[usize], u64, u64, u64); 3] = [
        (&[3, 4, 6, 7], 8821340831358132905, 6, 220),
        (&[2, 3, 997, 1500], 3097293798208821230, 14, 67554),
        (&[2, 5, 4000, 9000], 17357924906534733432, 17, 429231),
    ];
    for (sizes, fp, depth, work) in pinned {
        let n: usize = sizes.iter().sum();
        let (left, right) = (|i: usize| i * 7919 % n, |i: usize| i * 104_729 % n);
        let mut edges = Vec::new();
        let mut base = 0;
        for &k in sizes {
            for i in 0..k {
                edges.push((left(base + i), right(base + i)));
                edges.push((left(base + i), right(base + (i + 1) % k)));
            }
            base += k;
        }
        let g = BipartiteGraph::from_edges(n, n, &edges);
        for threads in [1, 4] {
            let (m, stats) = pool(threads).install(|| {
                let tracker = DepthTracker::new();
                let m = two_regular_perfect_matching_parallel(&g, &tracker);
                (m, tracker.stats())
            });
            let hash = m
                .left_assignment()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h, r| {
                    (h ^ r.map_or(u64::MAX, |r| r as u64)).wrapping_mul(0x0100_0000_01b3)
                });
            let got = (hash, stats.depth, stats.work, stats.phases);
            assert_eq!(
                got,
                (fp, depth, work, 0),
                "cycles {sizes:?}, {threads} threads"
            );
        }
    }
}
