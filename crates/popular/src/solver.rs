//! The serving-oriented solver: reusable workspace, warm zero-allocation
//! solves, and a batched entry point.
//!
//! The free functions ([`popular_matching_nc`], the ties oracle, the
//! max-cardinality entry point) are the documented simple path: each call
//! runs the pipeline in a fresh [`PopularSolver`] and drops it.  A service
//! handling many requests should instead hold one `PopularSolver` (per
//! worker) and call [`solve`](PopularSolver::solve) repeatedly: every piece
//! of scratch the pipeline touches — reduced-graph buffers, CSR adjacency,
//! liveness flags, pointer-jumping double buffers, switching-graph arrays,
//! Hopcroft–Karp layers — lives in the solver's [`Workspace`] and is reused
//! across requests, so a **warm solve performs zero heap allocations** (the
//! bench harness enforces this with a counting global allocator; see
//! `DESIGN.md` §6).
//!
//! [`solve_batch`](PopularSolver::solve_batch) amortises further by
//! fanning a slice of instances out across the thread pool, one warm
//! sub-solver per worker chunk.
//!
//! [`popular_matching_nc`]: crate::algorithm1::popular_matching_nc

use rayon::prelude::*;

use pm_graph::BipartiteGraph;
use pm_matching::hopcroft_karp::{hopcroft_karp_into, HkScratch};
use pm_matching::matching::Matching;
use pm_pram::tracker::DepthTracker;
use pm_pram::{Idx, Phase, PhaseTimes, PramStats, Workspace};

use crate::algorithm1::promote_into;
use crate::algorithm2::applicant_complete_matching_into;
use crate::error::PopularError;
use crate::instance::{Assignment, PrefInstance};
use crate::max_cardinality::improve_to_maximum_cardinality_ws;
use crate::reduced::{build_into, ReducedGraph};

/// Minimum batch members per worker before [`PopularSolver::solve_batch`]
/// fans out across the thread pool.  Below `BATCH_FANOUT_MIN_CHUNK × threads`
/// the batch runs sequentially on one warm sub-solver: each parallel chunk
/// pays its own sub-solver warm-up, and measurements (EXPERIMENTS.md E16)
/// show that cost beats the parallel speedup until every worker has at
/// least this many members to amortise it over.
pub const BATCH_FANOUT_MIN_CHUNK: usize = 3;

/// Which pipeline a solve runs: the mode of a [`PopularSolver`] call, of a
/// [`DeltaSolver`](crate::delta::DeltaSolver) and of a server request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Algorithm 1: any popular matching (maximal in G′).
    #[default]
    Popular,
    /// Algorithms 1 + 3: a maximum-cardinality popular matching.
    MaxCardinality,
}

/// A reusable popular-matching solver (see the module docs).
///
/// All entry points reset the internal [`DepthTracker`] and record the
/// depth/work and per-phase wall time of the last call only
/// ([`stats`](PopularSolver::stats), [`phase_times`](PopularSolver::phase_times));
/// `solve_batch` records the batch's summed depth/work.  Results are returned
/// by reference into solver-owned buffers — clone them (or
/// [`take_matching`](PopularSolver::take_matching)) if they must outlive
/// the next call.
#[derive(Debug)]
pub struct PopularSolver {
    ws: Workspace,
    tracker: DepthTracker,
    // Reduced-graph buffers, persistent so `solve_max_cardinality` (and the
    // free-function wrappers) can consume them after the Algorithm 1 phase.
    f: Vec<Idx>,
    s: Vec<Idx>,
    is_f_post: Vec<bool>,
    // Output buffers, refilled in place on every call.
    out: Assignment,
    ties_out: Matching,
    // Hopcroft–Karp scratch for `solve_ties` (Idx sentinel match arrays,
    // layer/queue storage, and the augmenting-tail cursor/undo buffers).
    hk_scratch: HkScratch,
    peel_rounds: u32,
    // Warm sub-solvers for `solve_batch`, one per worker chunk.
    batch_workers: Vec<PopularSolver>,
}

impl PopularSolver {
    /// Creates a solver.  `n_hint`/`p_hint` pre-size the applicant- and
    /// post-indexed output buffers (pass 0 to size lazily on first solve);
    /// the pooled scratch warms up on the first request either way.
    pub fn new(n_hint: usize, p_hint: usize) -> Self {
        Self {
            ws: Workspace::new(),
            tracker: DepthTracker::new(),
            f: Vec::with_capacity(n_hint),
            s: Vec::with_capacity(n_hint),
            is_f_post: Vec::with_capacity(n_hint + p_hint),
            out: Assignment::from_idx_vec(Vec::with_capacity(n_hint)),
            ties_out: Matching::empty(0, 0),
            hk_scratch: HkScratch::default(),
            peel_rounds: 0,
            batch_workers: Vec::new(),
        }
    }

    /// Runs Algorithm 1 (reduced graph → applicant-complete matching →
    /// promotion) and returns the popular matching by reference.
    ///
    /// # Errors
    /// * [`PopularError::TiesNotSupported`] if a preference list has a tie.
    /// * [`PopularError::NoPopularMatching`] if none exists.
    /// * [`PopularError::SolverPoisoned`] if a previous solve panicked
    ///   mid-flight (see [`is_poisoned`](Self::is_poisoned)).
    pub fn solve(&mut self, inst: &PrefInstance) -> Result<&Assignment, PopularError> {
        self.solve_in_mode(inst, SolveMode::Popular)
    }

    /// Runs Algorithms 1 + 3 and returns a maximum-cardinality popular
    /// matching by reference.
    pub fn solve_max_cardinality(
        &mut self,
        inst: &PrefInstance,
    ) -> Result<&Assignment, PopularError> {
        self.solve_in_mode(inst, SolveMode::MaxCardinality)
    }

    /// The Section V ties oracle: a popular matching of the rank-1 instance
    /// derived from `g` (Lemma 13: any maximum-cardinality matching), by
    /// reference.  Mirrors [`crate::ties::popular_matching_rank1`]
    /// bit-for-bit, with the Hopcroft–Karp scratch held in the solver.
    ///
    /// # Errors
    /// [`PopularError::InvalidInstance`] if a left vertex has no incident
    /// edge (the reduction requires non-empty preference lists).
    pub fn solve_ties(&mut self, g: &BipartiteGraph) -> Result<&Matching, PopularError> {
        self.enter()?;
        self.tracker.reset();
        if (0..g.n_left()).any(|l| g.degree_left(l) == 0) {
            self.ws.end_epoch();
            return Err(PopularError::InvalidInstance(
                "rank-1 reduction requires every applicant to have at least one acceptable post"
                    .into(),
            ));
        }
        // Work accounting: Hopcroft–Karp is the sequential oracle standing
        // in for the open NC ties case; charge its edge scans coarsely as
        // one phase (exact augmenting-path work is data-dependent).
        self.tracker.phase();
        self.tracker.round();
        self.tracker.work(g.num_edges() as u64);
        hopcroft_karp_into(g, &mut self.ties_out, &mut self.hk_scratch, &self.tracker);
        self.ws.end_epoch();
        Ok(&self.ties_out)
    }

    /// Solves a batch of instances, fanning out across the executor (one
    /// warm sub-solver per worker chunk; chunking — and hence sub-solver
    /// assignment — depends only on the batch size and thread count, and
    /// every result depends only on its instance, so outputs are identical
    /// for every thread count).  Returns owned results in input order;
    /// [`stats`](Self::stats) afterwards reports the *summed* depth/work of
    /// every solve in the batch (sums commute, so the total is
    /// thread-count-independent too).
    pub fn solve_batch(&mut self, insts: &[PrefInstance]) -> Vec<Result<Assignment, PopularError>> {
        if self.is_poisoned() {
            return insts
                .iter()
                .map(|_| Err(PopularError::SolverPoisoned))
                .collect();
        }
        // A sub-solver a previous batch's panic unwound through is replaced
        // wholesale (cheap relative to a batch, and the batch path is not
        // under the zero-alloc gate): one poisoned worker must never turn
        // every later request routed to its chunk into an error.
        for w in &mut self.batch_workers {
            if w.is_poisoned() {
                *w = PopularSolver::new(0, 0);
            }
        }
        self.tracker.reset();
        let threads = rayon::current_num_threads().max(1);
        // Fan-out policy: one sub-solver per worker chunk, never more
        // chunks than batch members, and *no fan-out at all* below the
        // crossover.  Each chunk pays its own sub-solver warm-up, so a
        // batch only amortises across `min(batch, threads)` warm solver
        // states — and the measured crossover economics (EXPERIMENTS.md
        // E16, BENCH_popular.json served/batch) show that on small batches
        // the warm-up plus memory-bus contention outweighs the
        // parallelism: at batch = 8 on 4 threads and n = 10⁵ the fanned
        // path ran at 0.72× the single-thread batch.  Below
        // `BATCH_FANOUT_MIN_CHUNK` members per worker the whole batch
        // therefore runs sequentially on the single long-lived sub-solver,
        // which stays warm across *batches*, not just across members.
        //
        // Past the crossover, members share sub-solvers in contiguous
        // chunks; `with_min_len(1)` pins one chunk per schedulable work
        // item so the executor cannot merge two sub-solvers onto one
        // thread while another idles.  Chunking depends only on batch size
        // and thread count, and each result only on its instance, so both
        // regimes produce identical outputs.
        let chunk = if insts.len() < BATCH_FANOUT_MIN_CHUNK * threads {
            insts.len().max(1)
        } else {
            insts.len().div_ceil(threads).max(1)
        };
        let n_chunks = insts.len().div_ceil(chunk);
        while self.batch_workers.len() < n_chunks {
            self.batch_workers.push(PopularSolver::new(0, 0));
        }

        let mut results: Vec<Result<Assignment, PopularError>> = Vec::with_capacity(insts.len());
        results.extend((0..insts.len()).map(|_| Err(PopularError::NoPopularMatching)));
        let tracker = &self.tracker;
        results
            .par_chunks_mut(chunk)
            .zip(insts.par_chunks(chunk))
            .zip(self.batch_workers[..n_chunks].par_iter_mut())
            .with_min_len(1)
            .for_each(|((rs, is), worker)| {
                for (r, inst) in rs.iter_mut().zip(is.iter()) {
                    *r = worker.solve(inst).cloned();
                    tracker.absorb(worker.stats());
                }
            });
        results
    }

    /// PRAM depth/work accounting of the last call (for
    /// [`solve_batch`](Self::solve_batch): summed over the whole batch).
    pub fn stats(&self) -> PramStats {
        self.tracker.stats()
    }

    /// Per-[`Phase`] wall time of the last call.  After
    /// [`solve_batch`](Self::solve_batch) the table is zero: the members
    /// run concurrently on sub-solvers, so their spans do not partition
    /// the batch's wall time.
    pub fn phase_times(&self) -> PhaseTimes {
        self.tracker.phase_times()
    }

    /// Moves the last solve's matching out of the solver without cloning
    /// (the output buffer is replaced by an empty one).  The free-function
    /// wrappers use this to return an owned [`Assignment`] from a solver
    /// they are about to drop.
    pub fn take_matching(&mut self) -> Assignment {
        std::mem::replace(&mut self.out, Assignment::from_idx_vec(Vec::new()))
    }

    /// Degree-1 peeling rounds Algorithm 2 used in the last solve.
    pub fn peel_rounds(&self) -> u32 {
        self.peel_rounds
    }

    /// The reduced graph of the last solved instance, assembled from the
    /// solver's buffers (consumes the solver; the free-function wrappers
    /// use this to return an owned [`ReducedGraph`] without rebuilding it).
    pub fn into_reduced_graph(self) -> ReducedGraph {
        let num_posts = self.is_f_post.len() - self.f.len();
        ReducedGraph::from_parts(num_posts, self.f, self.s, self.is_f_post)
    }

    /// True once a solve on this solver has panicked and unwound: the
    /// pooled workspace buffers (and the half-written output buffers) are
    /// inconsistent, every further solve returns
    /// [`PopularError::SolverPoisoned`], and the only recovery is to drop
    /// the solver and build a fresh one.  The serving layer (`pm_serve`)
    /// does exactly that after `catch_unwind` traps a solve panic; callers
    /// rolling their own isolation should too.
    pub fn is_poisoned(&self) -> bool {
        self.ws.is_poisoned() || self.ws.epoch_open()
    }

    /// Poison gate + epoch open, shared by every solve entry point.  The
    /// check runs *before* `begin_epoch` so detection is a typed error,
    /// never a debug assertion, on the public path.
    fn enter(&mut self) -> Result<(), PopularError> {
        if self.is_poisoned() {
            return Err(PopularError::SolverPoisoned);
        }
        self.ws.begin_epoch();
        Ok(())
    }

    /// The body of `solve` and `solve_max_cardinality`.
    fn solve_in_mode(
        &mut self,
        inst: &PrefInstance,
        mode: SolveMode,
    ) -> Result<&Assignment, PopularError> {
        self.enter()?;
        self.tracker.reset();
        let result = self.solve_into_out(inst, mode);
        self.ws.end_epoch();
        result?;
        Ok(&self.out)
    }

    fn solve_into_out(&mut self, inst: &PrefInstance, mode: SolveMode) -> Result<(), PopularError> {
        {
            let _span = self.tracker.span(Phase::Reduce);
            build_into(
                inst,
                &mut self.f,
                &mut self.s,
                &mut self.is_f_post,
                &self.tracker,
            )?;
        }
        self.out.reset_unassigned(inst.num_applicants());
        let (feasible, peel_rounds) = solve_reduced_into(
            mode,
            inst.num_posts(),
            &self.f,
            &self.s,
            &self.is_f_post,
            self.out.as_mut_slice(),
            &mut self.ws,
            &self.tracker,
        );
        self.peel_rounds = peel_rounds;
        if !feasible {
            return Err(PopularError::NoPopularMatching);
        }
        Ok(())
    }
}

/// The pipeline on a built reduced graph, shared by [`PopularSolver`] and
/// the delta layer's full rebuilds and shard re-solves: Algorithm 2, then
/// (if it finds an applicant-complete matching) the promotion step of
/// Algorithm 1, then in [`SolveMode::MaxCardinality`] Algorithm 3.
///
/// `f`, `s` and `is_f_post` are a reduced graph over `num_posts` real posts
/// followed by the last resorts, `is_f_post.len()` posts in all; `matched`
/// must be all [`Idx::NONE`] on entry.  Returns Algorithm 2's feasibility
/// flag and peel rounds; `matched` holds the answer iff the flag is true.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_reduced_into(
    mode: SolveMode,
    num_posts: usize,
    f: &[Idx],
    s: &[Idx],
    is_f_post: &[bool],
    matched: &mut [Idx],
    ws: &mut Workspace,
    tracker: &DepthTracker,
) -> (bool, u32) {
    let (feasible, peel_rounds) = {
        let _span = tracker.span(Phase::Algorithm2);
        applicant_complete_matching_into(is_f_post.len(), f, s, matched, ws, tracker)
    };
    if feasible {
        {
            let _span = tracker.span(Phase::Promote);
            promote_into(f, s, is_f_post, matched, ws, tracker);
        }
        if mode == SolveMode::MaxCardinality {
            improve_to_maximum_cardinality_ws(f, s, num_posts, matched, ws, tracker);
        }
    }
    (feasible, peel_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{popular_matching_nc, popular_matching_run};
    use crate::max_cardinality::maximum_cardinality_popular_matching_nc;
    use crate::ties::popular_matching_rank1;
    use crate::verify::is_popular_characterization;
    use rand::{RngExt, SeedableRng};

    fn random_instance(rng: &mut impl rand::RngExt, max_a: usize, max_p: usize) -> PrefInstance {
        let n_a = rng.random_range(1..=max_a);
        let n_p = rng.random_range(1..=max_p);
        let lists: Vec<Vec<usize>> = (0..n_a)
            .map(|_| {
                let mut posts: Vec<usize> = (0..n_p).collect();
                for i in (1..posts.len()).rev() {
                    posts.swap(i, rng.random_range(0..=i));
                }
                posts.truncate(rng.random_range(1..=posts.len()));
                posts
            })
            .collect();
        PrefInstance::new_strict(n_p, lists).unwrap()
    }

    #[test]
    fn reused_solver_matches_free_functions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let mut solver = PopularSolver::new(8, 8);
        for _ in 0..40 {
            let inst = random_instance(&mut rng, 8, 8);
            let tracker = DepthTracker::new();
            let want = popular_matching_nc(&inst, &tracker);
            match (solver.solve(&inst), want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.as_slice(), want.as_slice());
                    assert!(is_popular_characterization(&inst, got));
                    assert_eq!(solver.stats(), tracker.stats());
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (a, b) => panic!("solver/free-function disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn max_cardinality_matches_free_function() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
        let mut solver = PopularSolver::new(0, 0);
        for _ in 0..40 {
            let inst = random_instance(&mut rng, 7, 6);
            let tracker = DepthTracker::new();
            let want = maximum_cardinality_popular_matching_nc(&inst, &tracker);
            match (solver.solve_max_cardinality(&inst), want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.as_slice(), want.as_slice());
                    assert_eq!(solver.stats(), tracker.stats());
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (a, b) => panic!("disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn ties_oracle_matches_free_function() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut solver = PopularSolver::new(0, 0);
        for _ in 0..25 {
            let n = rng.random_range(1..30);
            let mut edges = Vec::new();
            for l in 0..n {
                edges.push((l, l % n));
                edges.push((l, rng.random_range(0..n)));
            }
            let g = BipartiteGraph::from_edges(n, n, &edges);
            let got = solver.solve_ties(&g).unwrap();
            let want = popular_matching_rank1(&g);
            assert_eq!(got.left_assignment(), want.left_assignment());
        }
        // Isolated left vertices are rejected like `rank1_instance`.
        let g = BipartiteGraph::new(2, 2);
        assert!(matches!(
            solver.solve_ties(&g),
            Err(PopularError::InvalidInstance(_))
        ));
    }

    #[test]
    fn batch_matches_individual_solves() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let insts: Vec<PrefInstance> = (0..13).map(|_| random_instance(&mut rng, 9, 9)).collect();
        let mut solver = PopularSolver::new(0, 0);
        let batch = solver.solve_batch(&insts);
        assert_eq!(batch.len(), insts.len());
        for (inst, got) in insts.iter().zip(&batch) {
            let t = DepthTracker::new();
            match (got, popular_matching_nc(inst, &t)) {
                (Ok(got), Ok(want)) => assert_eq!(got.as_slice(), want.as_slice()),
                (Err(e1), Err(e2)) => assert_eq!(e1, &e2),
                (a, b) => panic!("batch/individual disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn batch_fanout_crossover_is_gated_on_batch_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(616);
        let threads = rayon::current_num_threads().max(1);

        // Below the crossover: the whole batch must run on one sub-solver
        // (no fan-out), and the results must match per-item solves.
        let small: Vec<PrefInstance> = (0..(BATCH_FANOUT_MIN_CHUNK * threads - 1))
            .map(|_| random_instance(&mut rng, 9, 9))
            .collect();
        let mut solver = PopularSolver::new(0, 0);
        let got = solver.solve_batch(&small);
        assert_eq!(
            solver.batch_workers.len(),
            1,
            "batch of {} on {threads} threads must not fan out",
            small.len()
        );
        for (inst, r) in small.iter().zip(&got) {
            let t = DepthTracker::new();
            assert_eq!(r.as_ref().ok().map(|a| a.as_slice().to_vec()), {
                popular_matching_nc(inst, &t)
                    .ok()
                    .map(|a| a.as_slice().to_vec())
            });
        }

        // At the crossover: the batch fans out across several sub-solvers
        // (when the pool actually has more than one thread) and still
        // produces identical results.
        let big: Vec<PrefInstance> = (0..(BATCH_FANOUT_MIN_CHUNK * threads))
            .map(|_| random_instance(&mut rng, 9, 9))
            .collect();
        let got = solver.solve_batch(&big);
        assert_eq!(
            solver.batch_workers.len(),
            threads,
            "batch of {} on {threads} threads must use one sub-solver per worker",
            big.len()
        );
        for (inst, r) in big.iter().zip(&got) {
            let t = DepthTracker::new();
            assert_eq!(r.as_ref().ok().map(|a| a.as_slice().to_vec()), {
                popular_matching_nc(inst, &t)
                    .ok()
                    .map(|a| a.as_slice().to_vec())
            });
        }
    }

    #[test]
    fn poisoned_solver_returns_typed_error_not_dirty_buffers() {
        let inst = PrefInstance::new_strict(3, vec![vec![0, 1], vec![0, 2]]).unwrap();
        let mut solver = PopularSolver::new(0, 0);
        assert!(!solver.is_poisoned());
        assert!(solver.solve(&inst).is_ok());

        // Simulate a panic unwinding mid-solve: the epoch opens but never
        // closes (this is precisely the state `catch_unwind` in the serving
        // layer observes after trapping a solve panic).
        solver.ws.begin_epoch();
        assert!(solver.is_poisoned());

        // Every entry point refuses with a typed error instead of touching
        // the (notionally dirty) pooled buffers.
        assert_eq!(solver.solve(&inst), Err(PopularError::SolverPoisoned));
        assert_eq!(
            solver.solve_max_cardinality(&inst),
            Err(PopularError::SolverPoisoned)
        );
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        assert!(matches!(
            solver.solve_ties(&g),
            Err(PopularError::SolverPoisoned)
        ));
        let batch = solver.solve_batch(std::slice::from_ref(&inst));
        assert!(batch
            .iter()
            .all(|r| r == &Err(PopularError::SolverPoisoned)));

        // A fresh solver is the documented recovery.
        let mut fresh = PopularSolver::new(0, 0);
        assert!(fresh.solve(&inst).is_ok());
    }

    #[test]
    fn batch_replaces_poisoned_sub_solvers() {
        let inst = PrefInstance::new_strict(3, vec![vec![0, 1], vec![0, 2]]).unwrap();
        let insts = vec![inst.clone(), inst.clone(), inst];
        let mut solver = PopularSolver::new(0, 0);
        assert!(solver.solve_batch(&insts).iter().all(|r| r.is_ok()));
        // Poison one warm sub-solver as if a batch panic unwound through it;
        // the next batch must self-heal, not error its chunk forever.
        solver.batch_workers[0].ws.begin_epoch();
        assert!(solver.solve_batch(&insts).iter().all(|r| r.is_ok()));
    }

    #[test]
    fn run_wrapper_exposes_reduced_graph() {
        let inst = PrefInstance::new_strict(3, vec![vec![0, 1], vec![0, 2]]).unwrap();
        let t = DepthTracker::new();
        let run = popular_matching_run(&inst, &t).unwrap();
        assert_eq!(run.reduced, ReducedGraph::build_sequential(&inst).unwrap());
        assert!(t.stats().depth > 0, "wrapper absorbs solver accounting");
    }
}
