//! Delta-path equivalence properties: across random delta sequences the
//! incremental solver must be indistinguishable — bit for bit — from
//! throwing the mutated instance at a from-scratch solver.
//!
//! Three layers of the claim are pinned here:
//!
//! * **Per-step result equivalence** — after every apply+flush, the
//!   incremental matching (or typed error) equals a fresh solve on a
//!   validated snapshot of the mutated instance, in both
//!   [`DeltaMode::Popular`] and [`DeltaMode::MaxCardinality`].
//! * **Executor-width determinism** — the entire trajectory (every
//!   intermediate matching, the solver's own [`DeltaStats`] counters, and
//!   the PRAM depth/work accounting) is identical under
//!   `ThreadPool::install(1)` and `install(4)`, the in-process equivalent
//!   of the CI `PM_THREADS` matrix.
//! * **Error paths** — `NoPopularMatching` surfaces exactly when the
//!   from-scratch solve errs and heals the same way, and a poisoned solver
//!   ([`PopularError::SolverPoisoned`]) refuses service until `recover`
//!   re-solves fully to the same matching a fresh solver produces.
//! * **Full solves are the solver's** — the install solve and a structural
//!   rebuild report the same answer and the same PRAM depth/work as a
//!   [`PopularSolver`] on the same instance.

use pm_instances::churn::{self, ChurnConfig};
use popular_matchings::prelude::*;
use rayon::ThreadPoolBuilder;

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools always build")
}

fn base(n: usize, seed: u64) -> PrefInstance {
    generators::solvable(&GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 5,
        seed,
    })
}

/// From-scratch reference: a cold solve of `inst` in the matching mode,
/// with the solver's PRAM accounting.
fn fresh_solve_with_stats(
    mode: DeltaMode,
    inst: &PrefInstance,
) -> (Result<Vec<Idx>, PopularError>, PramStats) {
    let mut solver = PopularSolver::new(0, 0);
    let m = match mode {
        DeltaMode::Popular => solver.solve(inst),
        DeltaMode::MaxCardinality => solver.solve_max_cardinality(inst),
    };
    let m = m.map(|m| m.as_slice().to_vec());
    (m, solver.stats())
}

fn fresh_solve(mode: DeltaMode, inst: &PrefInstance) -> Result<Vec<Idx>, PopularError> {
    fresh_solve_with_stats(mode, inst).0
}

#[test]
fn every_step_of_a_random_delta_sequence_matches_from_scratch() {
    for mode in [DeltaMode::Popular, DeltaMode::MaxCardinality] {
        for (seed, n) in [(11u64, 60usize), (12, 90), (13, 140)] {
            let inst = base(n, seed);
            let stream = churn::mixed_churn(
                &inst,
                &ChurnConfig {
                    deltas: 40,
                    seed: seed ^ 0xD17A,
                },
            );
            let mut ds = DeltaSolver::install(&inst, mode).expect("solvable base");
            for (i, d) in stream.iter().enumerate() {
                ds.apply(d).expect("mirror-validated deltas are valid");
                let got = ds.flush().map(|m| m.as_slice().to_vec());
                let snap = ds.snapshot_instance().expect("snapshot of live instance");
                let want = fresh_solve(mode, &snap);
                assert_eq!(got, want, "{mode:?} diverged at delta {i} (n = {n})");
            }
        }
    }
}

/// Everything observable from one incremental trajectory.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    steps: Vec<Result<Vec<Idx>, PopularError>>,
    stats: DeltaStats,
    pram: PramStats,
}

fn run_trace(threads: usize, inst: &PrefInstance, stream: &[Delta], mode: DeltaMode) -> Trace {
    pool(threads).install(|| {
        let mut ds = DeltaSolver::install(inst, mode).expect("solvable base");
        let steps = stream
            .iter()
            .map(|d| {
                ds.apply(d).expect("mirror-validated deltas are valid");
                ds.flush().map(|m| m.as_slice().to_vec())
            })
            .collect();
        Trace {
            steps,
            stats: ds.stats(),
            pram: ds.pram_stats(),
        }
    })
}

#[test]
fn delta_trajectories_are_identical_across_thread_counts() {
    for mode in [DeltaMode::Popular, DeltaMode::MaxCardinality] {
        for (seed, n) in [(21u64, 80usize), (22, 120)] {
            let inst = base(n, seed);
            let stream = churn::mixed_churn(
                &inst,
                &ChurnConfig {
                    deltas: 40,
                    seed: seed ^ 0x11,
                },
            );
            let t1 = run_trace(1, &inst, &stream, mode);
            let t4 = run_trace(4, &inst, &stream, mode);
            assert_eq!(
                t1, t4,
                "{mode:?} trajectory must be width-independent (n = {n})"
            );
        }
    }
}

#[test]
fn full_solves_match_the_solver_in_answer_and_accounting() {
    // The server's mode names the delta layer's mode type, so both modes
    // here are `pm_serve::SolveMode` values.
    use popular_matchings::serve::SolveMode;
    let cutoff = popular_matchings::pram::SEQUENTIAL_CUTOFF;
    for mode in [SolveMode::Popular, SolveMode::MaxCardinality] {
        // Both sides of the cut-off, so the reduced-graph build also takes
        // its parallel path.
        for (seed, n) in [(41u64, 300usize), (42, cutoff + 500)] {
            let inst = base(n, seed);
            for threads in [1usize, 4] {
                pool(threads).install(|| {
                    let mut ds = DeltaSolver::install(&inst, mode).expect("solvable base");
                    // The install solve is the last flush until `flush` runs.
                    let pram = ds.pram_stats();
                    let got = (ds.flush().map(|m| m.as_slice().to_vec()), pram);
                    assert_eq!(
                        got,
                        fresh_solve_with_stats(mode, &inst),
                        "{mode:?} install, n = {n}, {threads} threads"
                    );

                    // A structural rebuild: a new post, then an edit that
                    // puts it first on applicant 0's list.
                    let np = inst.num_posts();
                    let mut prefs = inst.strict_list(0).expect("strict list");
                    prefs.insert(0, np);
                    ds.apply(&Delta::AddPost).unwrap();
                    ds.apply(&Delta::EditPrefList {
                        applicant: 0,
                        prefs,
                    })
                    .unwrap();
                    let full_before = ds.stats().full_solves;
                    let m = ds.flush().map(|m| m.as_slice().to_vec());
                    assert_eq!(ds.stats().full_solves, full_before + 1);
                    let snap = ds.snapshot_instance().expect("snapshot of live instance");
                    assert_eq!(
                        (m, ds.pram_stats()),
                        fresh_solve_with_stats(mode, &snap),
                        "{mode:?} rebuild, n = {n}, {threads} threads"
                    );
                });
            }
        }
    }
}

#[test]
fn infeasibility_surfaces_and_heals_exactly_like_from_scratch() {
    // Two applicants sharing two posts is fine; a third fighting over the
    // same pair has no popular matching.  The incremental path must err and
    // heal in lock-step with the from-scratch reference at every width.
    let inst = PrefInstance::new_strict(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
    let sequence = [
        Delta::AddApplicant { prefs: vec![0, 1] },
        Delta::RemoveApplicant { applicant: 2 },
    ];
    for threads in [1usize, 4] {
        pool(threads).install(|| {
            let mut ds = DeltaSolver::install(&inst, DeltaMode::Popular).unwrap();
            for d in &sequence {
                ds.apply(d).unwrap();
                let got = ds.flush().map(|m| m.as_slice().to_vec());
                let snap = ds.snapshot_instance().unwrap();
                assert_eq!(got, fresh_solve(DeltaMode::Popular, &snap));
            }
            assert!(
                ds.flush().is_ok(),
                "healed instance serves again at {threads} threads"
            );
        });
    }
}

#[test]
fn poisoned_solver_recovers_to_the_from_scratch_matching() {
    let inst = base(70, 31);
    let stream = churn::mixed_churn(
        &inst,
        &ChurnConfig {
            deltas: 10,
            seed: 7,
        },
    );
    let recovered: Vec<Vec<Idx>> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            pool(threads).install(|| {
                let mut ds = DeltaSolver::install(&inst, DeltaMode::Popular).unwrap();
                for d in &stream {
                    ds.apply(d).unwrap();
                    ds.flush().unwrap();
                }
                ds.poison_for_tests();
                assert_eq!(ds.flush().unwrap_err(), PopularError::SolverPoisoned);
                assert_eq!(
                    ds.apply(&Delta::AddPost).unwrap_err(),
                    PopularError::SolverPoisoned
                );
                let m = ds.recover().unwrap().as_slice().to_vec();
                let snap = ds.snapshot_instance().unwrap();
                assert_eq!(
                    m,
                    fresh_solve(DeltaMode::Popular, &snap).unwrap(),
                    "recovery re-solves to the from-scratch matching"
                );
                m
            })
        })
        .collect();
    assert_eq!(recovered[0], recovered[1], "recovery is width-independent");
}
