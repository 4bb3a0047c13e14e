//! PRAM-style parallel primitives with work/depth instrumentation.
//!
//! The NC algorithms of Hu & Garg (2020) are stated for a CREW/CRCW PRAM.
//! On a real shared-memory machine we cannot execute a PRAM directly, so this
//! crate provides the substitution described in `DESIGN.md`:
//!
//! * every algorithm is organised as a sequence of *synchronous rounds*
//!   (a round is one "parallel step" of the PRAM program);
//! * inside a round, work is executed with [rayon] data parallelism;
//! * a [`DepthTracker`] records how many rounds were executed (the *depth*)
//!   and how many elementary operations were performed (the *work*), so the
//!   complexity claims of the paper (polylogarithmic depth, polynomial work)
//!   can be verified empirically by the benchmark harness.
//!
//! The crate also implements the classic PRAM building blocks the paper
//! relies on:
//!
//! * [`scan`] — parallel prefix sums over an arbitrary associative operation,
//!   used for list compaction (Section VI of the paper compresses reduced
//!   preference lists "using parallel prefix sum technique");
//! * [`pointer`](mod@pointer) — pointer jumping / pointer doubling, used to
//!   find maximal paths of degree-2 vertices in Algorithm 2 ("the doubling
//!   trick") and to locate roots and cycle representatives in pseudoforests;
//! * [`compact`] — stream compaction and parallel filtering built on scans;
//! * [`reduce`] — parallel reductions (sum / min / max / argmin / argmax);
//! * [`scheduler`] — a small helper for writing round-synchronous loops with
//!   automatic depth accounting.
//!
//! # Example
//!
//! ```
//! use pm_pram::{scan::prefix_sum_exclusive, tracker::DepthTracker};
//!
//! let tracker = DepthTracker::new();
//! let xs = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
//! let (prefix, total) = prefix_sum_exclusive(&xs, &tracker);
//! assert_eq!(prefix, vec![0, 3, 4, 8, 9, 14, 23, 25]);
//! assert_eq!(total, 31);
//! assert!(tracker.stats().depth >= 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compact;
pub mod idx;
pub mod phaseclock;
pub mod pointer;
pub mod reduce;
pub mod scan;
pub mod scheduler;
pub mod tracker;
pub mod workspace;

pub use compact::{
    compact_indices, compact_indices_fused_into_idx, compact_indices_into_idx, compact_with,
};
pub use idx::Idx;
pub use pointer::{
    list_rank, min_label_cycles_idx, pointer_jump_roots, pointer_jump_roots_into_idx,
    PointerJumpResult,
};
pub use reduce::{par_argmax, par_argmin, par_max, par_min, par_sum};
pub use scan::{
    csr_offsets, csr_offsets_census_into_u32, csr_offsets_into_u32, offsets_from_counts,
    prefix_scan_exclusive, prefix_scan_inclusive, prefix_sum_exclusive, prefix_sum_inclusive,
    DegreeCensus,
};
pub use scheduler::RoundScheduler;
pub use tracker::{DepthTracker, LocalWork, PramStats};
pub use workspace::{EpochMap, EpochMarks, Workspace};

/// The threshold below which the primitives fall back to a purely sequential
/// implementation.  Parallelising tiny inputs costs more than it saves; the
/// outputs are identical either way.
pub const SEQUENTIAL_CUTOFF: usize = 2048;

/// Chunk length for blocked parallel passes over `len` elements: ceil-divides
/// the input over the pool's fan-out (threads × a small over-partition
/// factor) and clamps to `min_chunk` from below.
///
/// The ceil division guarantees the partition never produces a degenerate
/// trailing chunk beyond the intended fan-out, and the `min_chunk` clamp
/// keeps small inputs in a handful of chunks (or one), so tiny instances do
/// not pay fan-out overhead and no chunk is ever empty.  The result depends
/// only on `len` and the configured thread count — never on scheduling — so
/// chunked algorithms built on it stay deterministic; with an associative
/// combining operator the outputs are identical for every thread count.
pub fn par_chunk_len(len: usize, min_chunk: usize) -> usize {
    let fan_out = (rayon::current_num_threads() * 4).max(1);
    len.div_ceil(fan_out).max(min_chunk).max(1)
}

/// Target per-chunk footprint, in bytes, for blocked parallel passes.
///
/// The kernels are bandwidth-bound: what amortises fan-out overhead is the
/// number of *bytes* a worker streams per chunk, not the number of elements.
/// 16 KiB keeps a chunk comfortably inside L1 while still being ~3 orders of
/// magnitude more work than a chunk claim costs.  For 4-byte elements this
/// reproduces the historical `MIN_CHUNK = 4096` floor exactly, so the u32
/// scan paths keep bit-identical chunk boundaries.
pub const TARGET_CHUNK_BYTES: usize = 16 * 1024;

/// Element-size-aware twin of [`par_chunk_len`]: derives the minimum chunk
/// length from [`TARGET_CHUNK_BYTES`] and the element size, so `u8` marks
/// and 8- or 16-byte records chunk to comparable cache footprints instead
/// of a flat element count.  Same determinism guarantee as
/// [`par_chunk_len`]: the result depends only on `len`, `elem_bytes` and
/// the configured thread count, never on scheduling.
pub fn par_chunk_len_bytes(len: usize, elem_bytes: usize) -> usize {
    par_chunk_len(len, (TARGET_CHUNK_BYTES / elem_bytes.max(1)).max(1))
}
