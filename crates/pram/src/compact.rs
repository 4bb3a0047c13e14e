//! Stream compaction (parallel filtering with stable order).
//!
//! Algorithm 4 of the paper soft-deletes entries of the preference matrices
//! and then "compresses the preference list using parallel prefix sum
//! technique"; that compression is exactly the compaction implemented here:
//! given a keep/drop flag per element, compute with a prefix sum the output
//! slot of every kept element and write all of them in one parallel round.

use rayon::prelude::*;

use crate::idx::Idx;
use crate::tracker::DepthTracker;
use crate::workspace::Workspace;
use crate::SEQUENTIAL_CUTOFF;

/// Returns the indices `i` for which `keep(i)` is true, in increasing order,
/// using a prefix-sum based compaction (two scan rounds plus one scatter
/// round on the [`DepthTracker`]).
///
/// A `usize` adapter over [`compact_indices_fused_into_idx`], so `keep`
/// must be pure: it may be called twice for the same index.
///
/// # Panics
///
/// Panics if `n` does not fit the [`Idx`] layer.
pub fn compact_indices<F>(n: usize, keep: F, tracker: &DepthTracker) -> Vec<usize>
where
    F: Fn(usize) -> bool + Send + Sync,
{
    assert!(n <= Idx::MAX_INDEX + 1, "input exceeds the u32 index layer");
    let mut out = Vec::new();
    compact_indices_fused_into_idx(n, keep, &mut out, &mut Workspace::new(), tracker);
    out.iter().map(|i| i.get()).collect()
}

/// Allocation-free two-pass compaction: the flag and slot arrays are
/// checked out of `ws` and the kept indices are written into `out`
/// (capacity reused).  A warm call — same workspace, no larger `n` than any
/// previous call — performs no heap allocation.  `n` must fit the `Idx`
/// range (guaranteed by the instance-size funnel; debug-asserted here).
///
/// This is the unfused reference that [`compact_indices_fused_into_idx`] is
/// checked against.
pub fn compact_indices_into_idx<F>(
    n: usize,
    keep: F,
    out: &mut Vec<Idx>,
    ws: &mut Workspace,
    tracker: &DepthTracker,
) where
    F: Fn(usize) -> bool + Send + Sync,
{
    debug_assert!(n <= Idx::MAX_INDEX + 1);
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
    let total = crate::scan::csr_offsets_into_u32(&flags, &mut slots, &mut chunk_scratch, tracker);

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

/// Fused twin of [`compact_indices_into_idx`]: same outputs, same work/depth
/// accounting, a fraction of the memory traffic.
///
/// The unfused kernel materialises a full flag array (n × 4 B written, then
/// read twice by the scan) and a full slot array (n × 4 B written, read by
/// the scatter) just to ferry the predicate's verdict between rounds.  The
/// fused kernel re-evaluates the predicate instead of spilling it: pass 1
/// reduces each chunk to a single survivor count, the per-chunk counts are
/// scanned sequentially (there are only `O(n / chunk)` of them), and pass 2
/// streams the kept indices straight into `out` — about 20 bytes per element
/// of flag/slot traffic gone, in exchange for one extra (cheap, cacheable)
/// predicate evaluation.
///
/// The predicate must be pure: it is called up to twice per index and the
/// two calls must agree.  Charges on the [`DepthTracker`] are bit-identical
/// to the unfused kernel on every input size, so the fused and unfused forms
/// are interchangeable under depth/work assertions.
pub fn compact_indices_fused_into_idx<F>(
    n: usize,
    keep: F,
    out: &mut Vec<Idx>,
    ws: &mut Workspace,
    tracker: &DepthTracker,
) where
    F: Fn(usize) -> bool + Send + Sync,
{
    debug_assert!(n <= Idx::MAX_INDEX + 1);
    // Pass 1 (charged like the unfused flag round): predicate evaluation.
    tracker.round();
    tracker.work(n as u64);
    // Scan charge (the unfused kernel's slot scan): work(n) plus one round
    // below the cutoff, two rounds on the blocked path.
    tracker.work(n as u64);
    if n < SEQUENTIAL_CUTOFF {
        tracker.round();
        // Pass 2 (the unfused scatter round): stream the kept indices out.
        tracker.round();
        tracker.work(n as u64);
        out.clear();
        for i in 0..n {
            if keep(i) {
                out.push(Idx::new(i));
            }
        }
        return;
    }

    let chunk = crate::par_chunk_len_bytes(n, std::mem::size_of::<u32>());
    let n_chunks = n.div_ceil(chunk);
    let mut chunk_counts = ws.take_u32_empty();
    chunk_counts.clear();
    chunk_counts.resize(n_chunks, 0);
    {
        let keep = &keep;
        chunk_counts
            .par_iter_mut()
            .enumerate()
            .with_min_len(1)
            .for_each(|(ci, t)| {
                let s = ci * chunk;
                let e = ((ci + 1) * chunk).min(n);
                let mut cnt = 0u32;
                for i in s..e {
                    cnt += u32::from(keep(i));
                }
                *t = cnt;
            });
    }
    // The two blocked-scan rounds of the unfused kernel (chunk reduce +
    // seeded rescan).  The fused pass 1 above already produced the chunk
    // totals, so both rounds collapse to the short sequential scan below —
    // charged identically, executed on `O(n / chunk)` elements.
    tracker.round();
    tracker.round();
    let mut acc = 0u32;
    for t in chunk_counts.iter_mut() {
        let c = *t;
        *t = acc;
        acc += c;
    }
    let total = acc as usize;

    // Pass 2: re-evaluate the predicate and stream the kept indices into
    // `out` in order.  Sequential like the unfused scatter round — but where
    // that round reads the flag and slot arrays back (8 bytes per element),
    // this one touches only the predicate's own inputs and the output.
    tracker.round();
    tracker.work(n as u64);
    out.clear();
    out.resize(total, Idx::ZERO);
    let mut w = 0usize;
    for i in 0..n {
        if keep(i) {
            out[w] = Idx::new(i);
            w += 1;
        }
    }
    debug_assert_eq!(w, total);
    ws.put_u32(chunk_counts);
}

/// Compacts the elements of `xs` for which `keep` returns true, preserving
/// their relative order, and returns the surviving elements (cloned).
/// Built on [`compact_indices`], so `keep` must be pure.
pub fn compact_with<T, F>(xs: &[T], keep: F, tracker: &DepthTracker) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    let idx = compact_indices(xs.len(), |i| keep(&xs[i]), tracker);
    tracker.round();
    tracker.work(idx.len() as u64);
    if idx.len() >= SEQUENTIAL_CUTOFF {
        idx.par_iter().map(|&i| xs[i].clone()).collect()
    } else {
        idx.iter().map(|&i| xs[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let t = DepthTracker::new();
        assert!(compact_indices(0, |_| true, &t).is_empty());
        let empty: Vec<u32> = Vec::new();
        assert!(compact_with(&empty, |_| true, &t).is_empty());
    }

    #[test]
    fn keep_all_and_none() {
        let t = DepthTracker::new();
        let all = compact_indices(10, |_| true, &t);
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        let none = compact_indices(10, |_| false, &t);
        assert!(none.is_empty());
    }

    #[test]
    fn keep_even_indices() {
        let t = DepthTracker::new();
        let idx = compact_indices(9, |i| i % 2 == 0, &t);
        assert_eq!(idx, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn into_variant_matches_allocating_compaction() {
        let t = DepthTracker::new();
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        for n in [0usize, 1, 9, 3000, 50_000, 2047] {
            compact_indices_into_idx(n, |i| i % 3 == 1, &mut out, &mut ws, &t);
            assert_eq!(out, compact_indices(n, |i| i % 3 == 1, &t), "n = {n}");
        }
    }

    #[test]
    fn idx_variant_matches_usize_variant() {
        let t = DepthTracker::new();
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        for n in [0usize, 1, 9, 3000, 50_000] {
            compact_indices_into_idx(n, |i| i % 3 == 1, &mut out, &mut ws, &t);
            let want: Vec<usize> = (0..n).filter(|&i| i % 3 == 1).collect();
            let got: Vec<usize> = out.iter().map(|i| i.get()).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn fused_variant_matches_unfused_outputs_and_accounting() {
        let mut ws = Workspace::new();
        let mut out_fused = Vec::new();
        let mut out_ref = Vec::new();
        for n in [0usize, 1, 9, 2047, 2048, 3000, 50_000] {
            let tf = DepthTracker::new();
            compact_indices_fused_into_idx(n, |i| i % 3 == 1, &mut out_fused, &mut ws, &tf);
            let tu = DepthTracker::new();
            compact_indices_into_idx(n, |i| i % 3 == 1, &mut out_ref, &mut ws, &tu);
            assert_eq!(out_fused, out_ref, "n = {n}");
            assert_eq!(tf.stats(), tu.stats(), "accounting differs at n = {n}");
        }
    }

    #[test]
    fn compact_values_preserves_order() {
        let t = DepthTracker::new();
        let xs: Vec<i32> = (0..10_000).map(|i| i * 7 % 23 - 11).collect();
        let got = compact_with(&xs, |&x| x > 0, &t);
        let want: Vec<i32> = xs.iter().copied().filter(|&x| x > 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn large_input_matches_sequential_filter() {
        let t = DepthTracker::new();
        let n = 100_000;
        let idx = compact_indices(n, |i| (i * i) % 7 == 1, &t);
        let want: Vec<usize> = (0..n).filter(|&i| (i * i) % 7 == 1).collect();
        assert_eq!(idx, want);
    }
}
