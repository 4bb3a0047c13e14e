//! Property test for the serving path: a `PopularSolver` reused across many
//! consecutive solves over *different* generated instances must be
//! observationally identical to the fresh free-function path — bit-identical
//! matchings, identical PRAM depth/work accounting, identical peel-round
//! counts — at every executor width.  This is the contract that makes the
//! warm zero-allocation path safe to serve from: reuse may never leak state
//! from one request into the next.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pm_popular::ties::popular_matching_rank1;
use pm_pram::Phase;
use popular_matchings::prelude::*;
use rayon::ThreadPoolBuilder;

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools always build")
}

fn generated_instances() -> Vec<PrefInstance> {
    // Ten instances of varying shapes: below and above the parallel cutoff,
    // solvable and unsolvable, tiny and mid-sized — sizes deliberately
    // zig-zag so the solver's pooled buffers shrink and regrow.
    let cfg = |n: usize, seed: u64| GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 4,
        seed,
    };
    let mut out = vec![
        generators::solvable(&cfg(50, 1)),
        generators::solvable(&cfg(3000, 2)),
        generators::solvable(&cfg(120, 3)),
        generators::master_list(&cfg(400, 4), 8),
        generators::solvable(&cfg(2500, 5)),
        generators::last_resort_pressure(&cfg(800, 6), 0.4),
        generators::solvable(&cfg(64, 7)),
        generators::master_list(&cfg(150, 8), 5),
        generators::last_resort_pressure(&cfg(2048, 9), 0.25),
        generators::solvable(&cfg(999, 10)),
    ];
    // An instance whose popular matching does not exist.
    out.push(PrefInstance::new_strict(3, vec![vec![0, 2], vec![0, 2], vec![0, 2]]).unwrap());
    out
}

fn run_reuse_property(threads: usize) {
    pool(threads).install(|| {
        let insts = generated_instances();
        let mut solver = PopularSolver::new(0, 0);
        let mut max_solver = PopularSolver::new(0, 0);
        for (i, inst) in insts.iter().enumerate() {
            // Fresh free-function reference for this instance.
            let tracker = DepthTracker::new();
            let want = popular_matching_run(inst, &tracker);

            match (solver.solve(inst), want) {
                (Ok(got), Ok(want_run)) => {
                    assert_eq!(
                        got.as_slice(),
                        want_run.matching.as_slice(),
                        "instance {i}: reused solver diverged from the free function"
                    );
                    assert!(is_popular_characterization(inst, got), "instance {i}");
                    assert_eq!(
                        solver.peel_rounds(),
                        want_run.peel_rounds,
                        "instance {i}: peel rounds"
                    );
                    assert_eq!(
                        solver.stats(),
                        tracker.stats(),
                        "instance {i}: depth/work accounting"
                    );
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "instance {i}"),
                (got, want) => panic!("instance {i}: disagreement {got:?} vs {want:?}"),
            }

            // Max-cardinality reuse against its free function.
            let tracker = DepthTracker::new();
            let want = maximum_cardinality_popular_matching_nc(inst, &tracker);
            match (max_solver.solve_max_cardinality(inst), want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.as_slice(), want.as_slice(), "instance {i}: max-card");
                    assert_eq!(
                        max_solver.stats(),
                        tracker.stats(),
                        "instance {i}: max-card accounting"
                    );
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (got, want) => panic!("instance {i}: max-card disagreement {got:?} vs {want:?}"),
            }
        }
    });
}

#[test]
fn reused_solver_is_bit_identical_to_free_functions_at_width_1() {
    run_reuse_property(1);
}

#[test]
fn reused_solver_is_bit_identical_to_free_functions_at_width_4() {
    run_reuse_property(4);
}

#[test]
fn reused_solver_is_identical_across_widths() {
    // The same request stream at widths 1 and 4 must produce identical
    // matchings AND identical accounting (the executor chunking may differ;
    // the results may not).
    let collect = |threads: usize| {
        pool(threads).install(|| {
            let mut solver = PopularSolver::new(0, 0);
            generated_instances()
                .iter()
                .map(|inst| {
                    let result = solver.solve(inst).map(|m| m.as_slice().to_vec());
                    (result, solver.stats(), solver.peel_rounds())
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(collect(1), collect(4));
}

#[test]
fn batched_and_ties_serving_match_their_references() {
    let insts = generated_instances();
    let mut solver = PopularSolver::new(0, 0);
    let batch = solver.solve_batch(&insts);
    assert_eq!(batch.len(), insts.len());
    for (i, (inst, got)) in insts.iter().zip(&batch).enumerate() {
        let tracker = DepthTracker::new();
        match (got, popular_matching_nc(inst, &tracker)) {
            (Ok(got), Ok(want)) => assert_eq!(got.as_slice(), want.as_slice(), "instance {i}"),
            (Err(e1), Err(e2)) => assert_eq!(e1, &e2, "instance {i}"),
            (got, want) => panic!("instance {i}: batch disagreement {got:?} vs {want:?}"),
        }
    }

    // Ties oracle reuse across differently-shaped graphs.
    for seed in 0..6u64 {
        let n = 100 + (seed as usize) * 317;
        let g = generators::random_bipartite(n, n, 3.0 / n as f64, seed ^ 0xABCD);
        if (0..g.n_left()).any(|l| g.degree_left(l) == 0) {
            assert!(solver.solve_ties(&g).is_err());
            continue;
        }
        let got = solver.solve_ties(&g).unwrap();
        let want = popular_matching_rank1(&g);
        assert_eq!(got.left_assignment(), want.left_assignment(), "seed {seed}");
    }
}

fn run_batch_error_isolation(threads: usize) {
    // PR 7 satellite: a failing item inside a batch must not corrupt its
    // siblings or the pooled buffers.  The batch mixes solvable instances
    // with a NoPopularMatching instance and a TiesNotSupported instance;
    // each sibling's answer must be bit-identical to a fresh individual
    // solve, and the SAME warm solver must keep producing identical batches
    // across repeated rounds (pool integrity after error paths).
    pool(threads).install(|| {
        let cfg = |n: usize, seed: u64| GeneratorConfig {
            num_applicants: n,
            num_posts: n + n / 8 + 1,
            list_len: 4,
            seed,
        };
        let unsolvable =
            PrefInstance::new_strict(3, vec![vec![0, 2], vec![0, 2], vec![0, 2]]).unwrap();
        let tied = PrefInstance::new_with_ties(3, vec![vec![vec![0, 1]], vec![vec![2]]]).unwrap();
        let batch = vec![
            generators::solvable(&cfg(300, 21)),
            unsolvable,
            generators::solvable(&cfg(900, 22)),
            tied,
            generators::solvable(&cfg(150, 23)),
        ];

        // Fresh per-instance references.
        let want: Vec<_> = batch
            .iter()
            .map(|inst| PopularSolver::new(0, 0).solve(inst).cloned())
            .collect();
        assert!(matches!(want[1], Err(PopularError::NoPopularMatching)));
        assert!(matches!(want[3], Err(PopularError::TiesNotSupported)));

        let mut solver = PopularSolver::new(0, 0);
        for round in 0..3 {
            let got = solver.solve_batch(&batch);
            assert_eq!(got.len(), batch.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                match (g, w) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(
                            g.as_slice(),
                            w.as_slice(),
                            "round {round}, instance {i}: sibling corrupted by an error path"
                        );
                        assert!(is_popular_characterization(&batch[i], g));
                    }
                    (Err(e1), Err(e2)) => assert_eq!(e1, e2, "round {round}, instance {i}"),
                    (g, w) => panic!("round {round}, instance {i}: {g:?} vs {w:?}"),
                }
            }
        }

        // The pool survives the error rounds: a fresh solvable solve on the
        // same warm solver still matches its reference exactly.
        let extra = generators::solvable(&cfg(500, 24));
        let want_extra = PopularSolver::new(0, 0).solve(&extra).cloned();
        let got_extra = solver.solve(&extra).cloned();
        assert_eq!(got_extra, want_extra);
    });
}

#[test]
fn batch_error_paths_do_not_corrupt_siblings_at_width_1() {
    run_batch_error_isolation(1);
}

#[test]
fn batch_error_paths_do_not_corrupt_siblings_at_width_4() {
    run_batch_error_isolation(4);
}

/// Two solvers solving at the same time on two threads each keep their own
/// phase table.  Every span nests inside its own solver's call, so the
/// child phases fit inside their parent and the top-level phases inside the
/// wall time around the call, however the host schedules the threads; a
/// table that other solves add into would break the second fact whenever
/// the two solves overlap.
fn run_concurrent_phase_tables(threads: usize) {
    let n = 10_000;
    let inst = generators::solvable(&GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 4,
        seed: 41,
    });
    let g = generators::random_bipartite(n, n, 4.0 / n as f64, 43);
    let start_together = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                pool(threads).install(|| check_own_phase_tables(&inst, &g, &start_together))
            });
        }
    });
}

fn check_own_phase_tables(inst: &PrefInstance, g: &BipartiteGraph, start_together: &Barrier) {
    let mut solver = PopularSolver::new(0, 0);
    for _ in 0..3 {
        start_together.wait();
        let start = Instant::now();
        solver.solve(inst).expect("solvable instance");
        let wall = start.elapsed();
        let t = solver.phase_times();
        let [reduce, alg2, promote, census, jump] = [
            Phase::Reduce,
            Phase::Algorithm2,
            Phase::Promote,
            Phase::Census,
            Phase::Jump,
        ]
        .map(|p| t.get(p));
        assert!(
            [reduce, alg2, promote, census, jump]
                .iter()
                .all(|d| !d.is_zero()),
            "{t:?}"
        );
        assert!(census + jump <= alg2, "{t:?}");
        assert!(reduce + alg2 + promote <= wall, "{t:?} vs {wall:?}");
        assert!(t.get(Phase::HkBfs).is_zero(), "{t:?}");

        start_together.wait();
        let start = Instant::now();
        solver.solve_ties(g).expect("every left vertex has an edge");
        let wall = start.elapsed();
        let t = solver.phase_times();
        let hk = [Phase::HkBfs, Phase::HkDfs, Phase::HkAugment].map(|p| t.get(p));
        assert!(hk.iter().all(|d| !d.is_zero()), "{t:?}");
        assert!(hk.iter().sum::<Duration>() <= wall, "{t:?} vs {wall:?}");
        assert!(t.get(Phase::Algorithm2).is_zero(), "{t:?}");
    }
}

#[test]
fn concurrent_solvers_keep_their_own_phase_tables_at_width_1() {
    run_concurrent_phase_tables(1);
}

#[test]
fn concurrent_solvers_keep_their_own_phase_tables_at_width_4() {
    run_concurrent_phase_tables(4);
}
