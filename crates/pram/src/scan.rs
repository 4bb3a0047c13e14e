//! Parallel prefix scans (prefix sums).
//!
//! Prefix sums are the workhorse primitive of PRAM algorithms: the paper uses
//! them to compress soft-deleted preference lists in Algorithm 4 ("we can
//! compress the preference list using parallel prefix sum technique") and we
//! use them throughout for stream compaction and for assigning slots when
//! building graphs in parallel.
//!
//! The implementation is the standard two-pass blocked scan: the input is
//! divided into chunks, each chunk is reduced in parallel, the chunk totals
//! are scanned sequentially (there are only `O(n / chunk)` of them), and a
//! second parallel pass produces the final prefix values.  This is the
//! work-optimal O(n) / depth O(log n) scheme of Blelloch, with the depth
//! charged as two rounds on the [`DepthTracker`].

use rayon::prelude::*;

use crate::tracker::DepthTracker;
use crate::SEQUENTIAL_CUTOFF;

/// Generic exclusive prefix scan under an associative operation `op` with
/// identity `identity`.
///
/// Returns the vector of prefixes (`out[i] = op(x[0], ..., x[i-1])`, with
/// `out[0] = identity`) and the total reduction of the whole input.
///
/// The operation must be associative; it does not need to be commutative.
pub fn prefix_scan_exclusive<T, F>(
    xs: &[T],
    identity: T,
    op: F,
    tracker: &DepthTracker,
) -> (Vec<T>, T)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Send + Sync,
{
    tracker.work(xs.len() as u64);
    if xs.is_empty() {
        tracker.round();
        return (Vec::new(), identity);
    }
    if xs.len() < SEQUENTIAL_CUTOFF {
        tracker.round();
        return sequential_exclusive(xs, identity, &op);
    }

    let chunk = crate::par_chunk_len_bytes(xs.len(), std::mem::size_of::<T>());

    // Round 1: reduce each chunk in parallel.
    tracker.round();
    let chunk_totals: Vec<T> = xs
        .par_chunks(chunk)
        .map(|c| {
            let mut acc = c[0].clone();
            for x in &c[1..] {
                acc = op(&acc, x);
            }
            acc
        })
        .collect();

    // Sequential scan over the (few) chunk totals.
    let mut offsets = Vec::with_capacity(chunk_totals.len());
    let mut acc = identity.clone();
    for t in &chunk_totals {
        offsets.push(acc.clone());
        acc = op(&acc, t);
    }
    let total = acc;

    // Round 2: rescan each chunk in parallel, seeded with its offset.
    tracker.round();
    let mut out: Vec<T> = vec![identity; xs.len()];
    out.par_chunks_mut(chunk)
        .zip(xs.par_chunks(chunk))
        .zip(offsets.into_par_iter())
        .for_each(|((o, c), seed)| {
            let mut acc = seed;
            for (oi, x) in o.iter_mut().zip(c.iter()) {
                *oi = acc.clone();
                acc = op(&acc, x);
            }
        });

    (out, total)
}

/// Generic inclusive prefix scan: `out[i] = op(x[0], ..., x[i])`.
pub fn prefix_scan_inclusive<T, F>(xs: &[T], identity: T, op: F, tracker: &DepthTracker) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Send + Sync,
{
    let (mut ex, _total) = prefix_scan_exclusive(xs, identity, &op, tracker);
    tracker.round();
    tracker.work(xs.len() as u64);
    ex.par_iter_mut().zip(xs.par_iter()).for_each(|(e, x)| {
        *e = op(e, x);
    });
    ex
}

/// Exclusive prefix sum over `u64` values; returns the prefixes and the total.
pub fn prefix_sum_exclusive(xs: &[u64], tracker: &DepthTracker) -> (Vec<u64>, u64) {
    prefix_scan_exclusive(xs, 0u64, |a, b| a + b, tracker)
}

/// Inclusive prefix sum over `u64` values.
pub fn prefix_sum_inclusive(xs: &[u64], tracker: &DepthTracker) -> Vec<u64> {
    prefix_scan_inclusive(xs, 0u64, |a, b| a + b, tracker)
}

/// Exclusive prefix sum over `usize` counts, the form most graph-building
/// code wants (CSR row offsets).  Returns the offsets and the total.
///
/// Scans the counts directly through the generic blocked scan — no widening
/// round-trip, so the only allocation is the output vector itself.
pub fn offsets_from_counts(counts: &[usize], tracker: &DepthTracker) -> (Vec<usize>, usize) {
    prefix_scan_exclusive(counts, 0usize, |a, b| a + b, tracker)
}

/// CSR row-boundary array for the given per-row counts: `n + 1` offsets with
/// `out[i]` the start of row `i` and `out[n]` the total.  Row `i`'s slice of
/// the flat payload is `flat[out[i]..out[i + 1]]` — the form every flat
/// adjacency builder in the workspace consumes.
pub fn csr_offsets(counts: &[usize], tracker: &DepthTracker) -> Vec<usize> {
    let (mut offsets, total) = offsets_from_counts(counts, tracker);
    offsets.push(total);
    offsets
}

/// Allocation-free variant of [`csr_offsets`] on the narrowed data path:
/// writes the `counts.len() + 1` CSR row boundaries into `out` (reusing its
/// capacity) and returns the total as `usize`.  `chunk_scratch` holds the
/// per-chunk totals of the blocked parallel path — hand both buffers out of
/// a [`crate::Workspace`] and a warm call performs no heap allocation.
/// Counts, offsets and the chunk scratch are all 4-byte; a grand total
/// beyond `u32` panics.
pub fn csr_offsets_into_u32(
    counts: &[u32],
    out: &mut Vec<u32>,
    chunk_scratch: &mut Vec<u32>,
    tracker: &DepthTracker,
) -> usize {
    let len = counts.len();
    tracker.work(len as u64);
    if len < SEQUENTIAL_CUTOFF {
        tracker.round();
        out.clear();
        out.reserve(len + 1);
        let mut acc = 0u32;
        for &c in counts {
            out.push(acc);
            acc = acc.checked_add(c).expect("u32 CSR total overflow");
        }
        out.push(acc);
        return acc as usize;
    }

    let chunk = crate::par_chunk_len_bytes(len, std::mem::size_of::<u32>());
    let n_chunks = len.div_ceil(chunk);

    // Round 1: per-chunk totals, written in place.
    tracker.round();
    chunk_scratch.clear();
    chunk_scratch.resize(n_chunks, 0);
    chunk_scratch
        .par_iter_mut()
        .enumerate()
        .with_min_len(1)
        .for_each(|(ci, t)| {
            let s = ci * chunk;
            let e = ((ci + 1) * chunk).min(len);
            let sum: u64 = counts[s..e].iter().map(|&c| u64::from(c)).sum();
            *t = u32::try_from(sum).expect("u32 CSR chunk-total overflow");
        });

    // Sequential exclusive scan over the (few) chunk totals.
    let mut acc = 0u32;
    for t in chunk_scratch.iter_mut() {
        let c = *t;
        *t = acc;
        acc = acc.checked_add(c).expect("u32 CSR total overflow");
    }
    let total = acc;

    // Round 2: rescan each chunk seeded with its offset.
    tracker.round();
    let out_len = len + 1;
    if out.capacity() < out_len {
        *out = vec![0; out_len];
    } else {
        out.clear();
        out.resize(out_len, 0);
    }
    out[..len]
        .par_chunks_mut(chunk)
        .zip(counts.par_chunks(chunk))
        .zip(chunk_scratch.par_iter())
        .for_each(|((o, c), &seed)| {
            let mut acc = seed;
            for (oi, &ci) in o.iter_mut().zip(c.iter()) {
                *oi = acc;
                acc += ci;
            }
        });
    out[len] = total;
    total as usize
}

fn sequential_exclusive<T, F>(xs: &[T], identity: T, op: &F) -> (Vec<T>, T)
where
    T: Clone,
    F: Fn(&T, &T) -> T,
{
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = identity;
    for x in xs {
        out.push(acc.clone());
        acc = op(&acc, x);
    }
    (out, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_exclusive(xs: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn empty_input() {
        let t = DepthTracker::new();
        let (p, total) = prefix_sum_exclusive(&[], &t);
        assert!(p.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn single_element() {
        let t = DepthTracker::new();
        let (p, total) = prefix_sum_exclusive(&[7], &t);
        assert_eq!(p, vec![0]);
        assert_eq!(total, 7);
    }

    #[test]
    fn small_matches_naive() {
        let t = DepthTracker::new();
        let xs = vec![3, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(prefix_sum_exclusive(&xs, &t), naive_exclusive(&xs));
    }

    #[test]
    fn large_matches_naive() {
        let t = DepthTracker::new();
        let xs: Vec<u64> = (0..100_000).map(|i| (i * 2654435761u64) % 97).collect();
        assert_eq!(prefix_sum_exclusive(&xs, &t), naive_exclusive(&xs));
        // Large input goes through the two-round blocked path.
        assert!(t.stats().depth >= 2);
    }

    #[test]
    fn inclusive_is_exclusive_shifted() {
        let t = DepthTracker::new();
        let xs: Vec<u64> = (0..50_000).map(|i| i % 13).collect();
        let inc = prefix_sum_inclusive(&xs, &t);
        let (exc, total) = prefix_sum_exclusive(&xs, &t);
        for i in 0..xs.len() {
            assert_eq!(inc[i], exc[i] + xs[i]);
        }
        assert_eq!(*inc.last().unwrap(), total);
    }

    #[test]
    fn non_commutative_operation_string_concat() {
        // String concatenation is associative but not commutative; the scan
        // must preserve order.
        let t = DepthTracker::new();
        let xs: Vec<String> = (0..3000).map(|i| format!("{},", i % 10)).collect();
        let (scanned, total) =
            prefix_scan_exclusive(&xs, String::new(), |a, b| format!("{a}{b}"), &t);
        let mut acc = String::new();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(scanned[i], acc, "prefix {i}");
            acc.push_str(x);
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn offsets_from_counts_builds_csr_offsets() {
        let t = DepthTracker::new();
        let counts = vec![2usize, 0, 3, 1];
        let (off, total) = offsets_from_counts(&counts, &t);
        assert_eq!(off, vec![0, 2, 2, 5]);
        assert_eq!(total, 6);
        assert_eq!(csr_offsets(&counts, &t), vec![0, 2, 2, 5, 6]);
        assert_eq!(csr_offsets(&[], &t), vec![0]);
    }

    #[test]
    fn offsets_from_counts_matches_naive_on_large_input() {
        // Exercises the blocked two-round path on native usize counts.
        let t = DepthTracker::new();
        let counts: Vec<usize> = (0..70_000).map(|i| (i * 31) % 11).collect();
        let (off, total) = offsets_from_counts(&counts, &t);
        let mut acc = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(off[i], acc, "offset {i}");
            acc += c;
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn into_variants_match_allocating_scans() {
        // Shrinking and regrowing sizes: warm buffers must never leak stale
        // offsets into a shorter or longer call.
        let t = DepthTracker::new();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for n in [70_000usize, 5, 3000, 0, 1, 70_000] {
            let counts: Vec<usize> = (0..n).map(|i| (i * 31) % 11).collect();
            let counts32: Vec<u32> = counts.iter().map(|&c| c as u32).collect();
            let total = csr_offsets_into_u32(&counts32, &mut out, &mut scratch, &t);
            let out_usize: Vec<usize> = out.iter().map(|&o| o as usize).collect();
            assert_eq!(out_usize, csr_offsets(&counts, &t), "n = {n}");
            assert_eq!(total, offsets_from_counts(&counts, &t).1, "n = {n}");
        }
    }

    #[test]
    fn u32_csr_scan_matches_usize_scan() {
        let t = DepthTracker::new();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for n in [0usize, 1, 5, 3000, 70_000] {
            let counts: Vec<usize> = (0..n).map(|i| (i * 31) % 11).collect();
            let counts32: Vec<u32> = counts.iter().map(|&c| c as u32).collect();
            let total = csr_offsets_into_u32(&counts32, &mut out, &mut scratch, &t);
            let want = csr_offsets(&counts, &t);
            let out_usize: Vec<usize> = out.iter().map(|&o| o as usize).collect();
            assert_eq!(out_usize, want, "n = {n}");
            assert_eq!(total, *want.last().unwrap());
        }
    }

    #[test]
    fn max_scan_monoid() {
        let t = DepthTracker::new();
        let xs: Vec<u64> = vec![1, 5, 3, 9, 2, 9, 11, 0];
        let inc = prefix_scan_inclusive(&xs, u64::MIN, |a, b| *a.max(b), &t);
        assert_eq!(inc, vec![1, 5, 5, 9, 9, 9, 11, 11]);
    }
}
