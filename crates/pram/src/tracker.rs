//! Work/depth accounting for the PRAM simulation.
//!
//! The paper's NC claims are statements about the *depth* (number of
//! synchronous parallel rounds) and *work* (total number of elementary
//! operations) of an algorithm.  Every algorithm in this repository accepts a
//! [`DepthTracker`] and reports into it, which lets the benchmark harness
//! verify, e.g., that the while-loop of Algorithm 2 runs `O(log n)` rounds
//! (Lemma 2) and that the overall work stays polynomial.
//!
//! The same tracker also times the pipeline's kernels: [`DepthTracker::span`]
//! adds a kernel's wall time to a per-[`Phase`] table, so each solver can
//! say what its own last call spent where, even while other solvers run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The timed kernels of the solve pipelines, the rows of a tracker's
/// [`PhaseTimes`] table.
///
/// [`Reduce`](Phase::Reduce), [`Algorithm2`](Phase::Algorithm2) and
/// [`Promote`](Phase::Promote) partition a popular-matching solve, and
/// [`Algorithm3`](Phase::Algorithm3) follows them in a maximum-cardinality
/// solve; [`Census`](Phase::Census) and [`Jump`](Phase::Jump) nest inside
/// Algorithm 2; the three `Hk*` phases partition the Hopcroft–Karp referee
/// of the ties pipeline.  The entries therefore do not sum to any single
/// pipeline's wall time.  (Unrelated to [`PramStats::phases`], which counts
/// coarse algorithm sections.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reduced-graph construction (`pm_popular::reduced::build_into`).
    Reduce,
    /// Algorithm 2 end to end (degree/XOR build, peeling, even-cycle
    /// finish).
    Algorithm2,
    /// The promotion pass of Algorithm 1.
    Promote,
    /// Algorithm 3, the maximum-cardinality step (zero on a `Popular`
    /// solve).
    Algorithm3,
    /// Algorithm 2's per-post degree and XOR build, with the alive and
    /// degree-1 post tallies.
    Census,
    /// Algorithm 2's chain rounds (successors, pointer jumping, the chain
    /// applicants' decisions) and min-label cycle doubling.
    Jump,
    /// Hopcroft–Karp BFS layering sweeps.
    HkBfs,
    /// Hopcroft–Karp layered DFS sweeps (path search + in-place flips).
    HkDfs,
    /// Hopcroft–Karp final matching write-out.
    HkAugment,
}

impl Phase {
    /// Number of phases (the size of a [`PhaseTimes`] table): the last
    /// variant's index plus one.
    pub const COUNT: usize = Phase::HkAugment as usize + 1;

    /// Stable lowercase name, as the harness prints it.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Reduce => "reduce",
            Phase::Algorithm2 => "algorithm2",
            Phase::Promote => "promote",
            Phase::Algorithm3 => "algorithm3",
            Phase::Census => "census",
            Phase::Jump => "jump",
            Phase::HkBfs => "hk_bfs",
            Phase::HkDfs => "hk_dfs",
            Phase::HkAugment => "hk_augment",
        }
    }
}

/// A snapshot of a tracker's per-[`Phase`] wall time
/// ([`DepthTracker::phase_times`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes([Duration; Phase::COUNT]);

impl PhaseTimes {
    /// The accumulated wall time of one phase.
    pub fn get(&self, phase: Phase) -> Duration {
        self.0[phase as usize]
    }
}

/// A snapshot of the counters held by a [`DepthTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PramStats {
    /// Number of synchronous parallel rounds executed (the PRAM depth).
    pub depth: u64,
    /// Total number of elementary operations charged (the PRAM work).
    pub work: u64,
    /// Number of "phases": coarse algorithm sections (e.g. "build reduced
    /// graph", "peel degree-1 paths", "match even cycles").  Useful for
    /// per-phase reporting in the harness.
    pub phases: u64,
}

impl PramStats {
    /// Returns `work / depth`, the average parallelism exposed by the
    /// algorithm, or 0 when no rounds were executed.
    pub fn average_parallelism(&self) -> f64 {
        if self.depth == 0 {
            0.0
        } else {
            self.work as f64 / self.depth as f64
        }
    }
}

/// Thread-safe counter of PRAM rounds and work, plus a per-[`Phase`]
/// wall-time table.
///
/// `DepthTracker` is deliberately tiny: charging work is a relaxed atomic
/// add, and advancing a round is a single atomic increment performed by the
/// coordinating thread between rounds.  A [`span`](Self::span) costs one
/// clock pair and one relaxed add: about 110 ns on a 2-vCPU Xeon VM with a
/// TSC clock source, where a warm width-1 solve at n = 10⁴ takes about
/// 0.9 ms and opens four spans plus one per peel round and one for the
/// even-cycle finish.  The wall times stay out of [`PramStats`], so
/// comparing stats across runs or executor widths stays exact.
#[derive(Debug, Default)]
pub struct DepthTracker {
    depth: AtomicU64,
    work: AtomicU64,
    phases: AtomicU64,
    phase_nanos: [AtomicU64; Phase::COUNT],
}

impl DepthTracker {
    /// Creates a tracker with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one synchronous parallel round (one unit of depth).
    pub fn round(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` synchronous parallel rounds at once.
    pub fn rounds(&self, n: u64) {
        self.depth.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges `n` units of work (elementary operations).
    pub fn work(&self, n: u64) {
        self.work.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks the beginning of a new coarse phase of the algorithm.
    pub fn phase(&self) {
        self.phases.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> PramStats {
        PramStats {
            depth: self.depth.load(Ordering::Relaxed),
            work: self.work.load(Ordering::Relaxed),
            phases: self.phases.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters and the phase table to zero.
    pub fn reset(&self) {
        self.depth.store(0, Ordering::Relaxed);
        self.work.store(0, Ordering::Relaxed);
        self.phases.store(0, Ordering::Relaxed);
        for cell in &self.phase_nanos {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Opens a wall-clock span charging `phase`: the returned guard adds
    /// the time until it drops to this tracker's phase table.  Spans may
    /// nest; only the coordinating thread opens them.
    pub fn span(&self, phase: Phase) -> PhaseSpan<'_> {
        PhaseSpan {
            tracker: self,
            phase,
            start: Instant::now(),
        }
    }

    /// The wall time each [`Phase`] accumulated since the last
    /// [`reset`](Self::reset).
    pub fn phase_times(&self) -> PhaseTimes {
        PhaseTimes(
            self.phase_nanos
                .each_ref()
                .map(|cell| Duration::from_nanos(cell.load(Ordering::Relaxed))),
        )
    }

    /// Runs `f` as one synchronous round: increments the depth by one before
    /// executing `f`, and charges `work` units of work.
    pub fn in_round<R>(&self, work: u64, f: impl FnOnce() -> R) -> R {
        self.round();
        self.work(work);
        f()
    }

    /// Adds another tracker's totals to this one — how the thin free-function
    /// wrappers transfer a solver's internal accounting onto the tracker the
    /// caller supplied.
    pub fn absorb(&self, stats: PramStats) {
        self.depth.fetch_add(stats.depth, Ordering::Relaxed);
        self.work.fetch_add(stats.work, Ordering::Relaxed);
        self.phases.fetch_add(stats.phases, Ordering::Relaxed);
    }

    /// A batched work charger for hot per-element loops: counts locally and
    /// performs a single relaxed `fetch_add` when flushed (or dropped),
    /// instead of one atomic per element.  Totals are exact and independent
    /// of how a loop is chunked across threads, so depth/work accounting
    /// stays bit-for-bit identical across thread counts.
    pub fn local(&self) -> LocalWork<'_> {
        LocalWork {
            tracker: self,
            count: 0,
        }
    }
}

/// A wall-clock span opened by [`DepthTracker::span`]; adds its elapsed
/// time to its phase on drop.
#[derive(Debug)]
#[must_use = "a span measures until it drops; bind it to a named variable"]
pub struct PhaseSpan<'a> {
    tracker: &'a DepthTracker,
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tracker.phase_nanos[self.phase as usize].fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Per-chunk work accumulator created by [`DepthTracker::local`]; flushes
/// its count to the tracker with one atomic add on drop.
#[derive(Debug)]
pub struct LocalWork<'a> {
    tracker: &'a DepthTracker,
    count: u64,
}

impl LocalWork<'_> {
    /// Records `n` units of work locally (no atomic traffic).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }
}

impl Drop for LocalWork<'_> {
    fn drop(&mut self) {
        if self.count != 0 {
            self.tracker.work(self.count);
        }
    }
}

impl Clone for DepthTracker {
    fn clone(&self) -> Self {
        let s = self.stats();
        let t = DepthTracker::new();
        t.depth.store(s.depth, Ordering::Relaxed);
        t.work.store(s.work, Ordering::Relaxed);
        t.phases.store(s.phases, Ordering::Relaxed);
        for (to, from) in t.phase_nanos.iter().zip(&self.phase_nanos) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tracker_is_zeroed() {
        let t = DepthTracker::new();
        assert_eq!(t.stats(), PramStats::default());
        assert_eq!(t.stats().average_parallelism(), 0.0);
    }

    #[test]
    fn round_and_work_accumulate() {
        let t = DepthTracker::new();
        t.round();
        t.round();
        t.work(10);
        t.work(5);
        t.phase();
        let s = t.stats();
        assert_eq!(s.depth, 2);
        assert_eq!(s.work, 15);
        assert_eq!(s.phases, 1);
        assert!((s.average_parallelism() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn rounds_bulk_increment() {
        let t = DepthTracker::new();
        t.rounds(7);
        assert_eq!(t.stats().depth, 7);
    }

    #[test]
    fn reset_clears_counters() {
        let t = DepthTracker::new();
        t.round();
        t.work(3);
        t.phase();
        t.reset();
        assert_eq!(t.stats(), PramStats::default());
    }

    #[test]
    fn spans_fill_the_phase_table_without_touching_stats() {
        let t = DepthTracker::new();
        t.rounds(2);
        t.work(9);
        let before = t.stats();
        {
            let _outer = t.span(Phase::Algorithm2);
            let _inner = t.span(Phase::Jump);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(t.stats(), before, "spans charge no depth, work or phases");
        let times = t.phase_times();
        assert!(times.get(Phase::Jump) >= std::time::Duration::from_millis(2));
        assert!(times.get(Phase::Algorithm2) >= times.get(Phase::Jump));
        assert_eq!(times.get(Phase::Census), Duration::ZERO);
        assert_eq!(t.clone().phase_times(), times);
        t.reset();
        assert_eq!(t.phase_times(), PhaseTimes::default());
        assert_eq!(t.stats(), PramStats::default());
    }

    #[test]
    fn in_round_charges_and_returns() {
        let t = DepthTracker::new();
        let v = t.in_round(42, || 7usize);
        assert_eq!(v, 7);
        assert_eq!(t.stats().depth, 1);
        assert_eq!(t.stats().work, 42);
    }

    #[test]
    fn clone_preserves_counters() {
        let t = DepthTracker::new();
        t.rounds(3);
        t.work(9);
        let u = t.clone();
        assert_eq!(u.stats(), t.stats());
        u.round();
        assert_ne!(u.stats(), t.stats());
    }

    #[test]
    fn absorb_merges_totals() {
        let a = DepthTracker::new();
        a.rounds(2);
        a.work(5);
        a.phase();
        let b = DepthTracker::new();
        b.round();
        b.work(7);
        b.absorb(a.stats());
        let s = b.stats();
        assert_eq!(s.depth, 3);
        assert_eq!(s.work, 12);
        assert_eq!(s.phases, 1);
    }

    #[test]
    fn local_work_flushes_once_on_drop() {
        let t = DepthTracker::new();
        {
            let mut w = t.local();
            for _ in 0..10 {
                w.add(3);
            }
            assert_eq!(t.stats().work, 0, "no atomic traffic before the flush");
        }
        assert_eq!(t.stats().work, 30);
        // An empty charger adds nothing.
        drop(t.local());
        assert_eq!(t.stats().work, 30);
    }

    #[test]
    fn concurrent_work_charges_are_not_lost() {
        use std::sync::Arc;
        let t = Arc::new(DepthTracker::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.work(1);
                    }
                });
            }
        });
        assert_eq!(t.stats().work, 8000);
    }
}
