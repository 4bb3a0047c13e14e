//! The experiment harness: regenerates every table of EXPERIMENTS.md and
//! records the machine-readable perf trajectory.
//!
//! ```text
//! cargo run --release -p pm_bench --bin harness            # full sweep
//! cargo run --release -p pm_bench --bin harness -- --quick # smaller sizes
//! cargo run --release -p pm_bench --bin harness -- --json  # BENCH_popular.json
//! cargo run --release -p pm_bench --bin harness -- --json --workloads 'served/*'
//! cargo run --release -p pm_bench --bin harness -- --profile # per-kernel phases
//! ```
//!
//! Markdown output (one table per experiment, E1–E10) is designed to be
//! pasted directly into EXPERIMENTS.md.  `--json` instead times the
//! production pipeline workloads (Algorithm 1, Algorithm 3, the switching
//! graph, the ties reduction) plus the `served/` family — repeated warm
//! solves on a reused [`PopularSolver`], the cold free-function path for
//! comparison, and batched throughput, all reported as amortized
//! per-request milliseconds — and writes schema-6 `BENCH_popular.json`,
//! the perf trajectory file every perf PR measures itself against.  The
//! `layout/` families A/B the locality layout pass
//! (`pm_instances::layout`, DESIGN.md §12) on the clustered-scattered
//! workload.  The
//! server-routed families (`served/server_warm`, `served/degraded`,
//! `faults/chaos`) push the same request stream through the fault-tolerant
//! [`Server`] and record its counters (served / rejected / shed /
//! panics_recovered / degraded_responses) alongside the timings; see
//! `server_burst`.  The incremental families
//! (`served/incremental/edit_churn`, `…/mixed_churn`, `…/server_churn`)
//! replay churn streams against a warm [`DeltaSolver`] and report amortized
//! per-delta milliseconds.  Every family is one entry of the `WORKLOADS`
//! table, timed through the one `Bench` protocol.
//!
//! The harness binary installs a **counting global allocator**; the warm
//! `served/` measurement runs a width-1 warm solve under it and hard-fails
//! (exit 1) if a single heap allocation is observed — the zero-allocation
//! regression gate CI runs on every push.  The `cold/` family measures the
//! three ingest paths (nested-`Vec` build, streaming text parse, binary
//! snapshot load) and gates the snapshot loader to a flat-buffers-only
//! allocation budget the same way.
//!
//! Each workload is swept across thread counts (default `1,2,4`; override
//! with `--threads 1,8`) by pinning the executor width per measurement, so
//! the file records the wall clock per thread count and the speedup of the
//! widest configuration over one thread.  An existing `"baseline"` object
//! in the output file is preserved verbatim, so the pre-refactor reference
//! numbers survive regeneration.  `--json-out PATH` overrides the output
//! path; `--quick` shrinks the size sweep in both modes; `--workloads GLOB`
//! (json mode, `*` wildcard) restricts the sweep to matching workload
//! names — pair it with `--json-out` to avoid truncating the committed
//! trajectory file.  `--assert-speedup FLOOR` (json mode) is the multicore
//! regression gate: after writing the file it requires every n ≥ 10⁶
//! workload to reach FLOOR× speedup at the widest swept width, downgrading
//! to a warning when the runner has fewer hardware threads than that width.
//! `--profile` (its own mode, takes precedence) prints the per-kernel phase
//! table — reduce / algorithm2 / promote / census / jump wall time per warm
//! solve, plus the Hopcroft–Karp referee's bfs / dfs / augment phases per
//! warm `solve_ties` — summed from each solve's
//! [`PopularSolver::phase_times`].  An unknown flag, a
//! value flag without its value, or a `--workloads` glob that selects no
//! workload prints the usage line and exits 2 without writing anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use pm_bench::workloads;
use pm_bench::{ms, time_best, Table};

/// Number of heap allocations observed process-wide (relaxed; exact when
/// read around a single-threaded region, which is how the cold-ingest gate
/// uses it).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Number of heap allocations made by the current thread: the count
    /// behind the zero-allocation gates, which no other thread (a pool
    /// worker starting up, say) can add to.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn thread_allocation_count() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Adds one allocation to both counts.  The thread-local is `const`
/// initialised, so touching it from inside the allocator allocates nothing.
fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

/// A [`System`] allocator that counts every allocation (including
/// `realloc`/`alloc_zeroed`) — the measuring instrument behind the
/// `served/` zero-allocation gate and the cold-ingest gate.
struct CountingAllocator;

// SAFETY: every method delegates verbatim to `System`; the only addition is
// a relaxed counter increment and a thread-local cell bump, which allocate
// nothing and have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_graph::cycle::{cycle_vertices_via_cc, cycle_vertices_via_closure, cycle_vertices_via_rank};
use pm_instances::paper;
use pm_matching::hopcroft_karp::hopcroft_karp;
use pm_popular::algorithm1::{popular_matching_nc, popular_matching_run};
use pm_popular::delta::{DeltaMode, DeltaSolver};
use pm_popular::instance::PrefInstance;
use pm_popular::max_cardinality::maximum_cardinality_popular_matching_nc;
use pm_popular::optimal::{fair_popular_matching, rank_maximal_popular_matching};
use pm_popular::profile::Profile;
use pm_popular::relabel::{Relabeled, RelabeledSolver};
use pm_popular::sequential::popular_matching_sequential;
use pm_popular::solver::PopularSolver;
use pm_popular::switching::{ComponentKind, SwitchingGraph};
use pm_popular::ties::popular_matching_rank1;
use pm_popular::verify::is_popular_characterization;
use pm_popular::PopularError;
use pm_pram::{DepthTracker, Phase, PhaseTimes};
use pm_serve::faults::Spec;
use pm_serve::{DeltaRequest, Request, ServeError, Server, ServerConfig, SolveMode, StatsSnapshot};
use pm_stable::next::{next_stable_matchings, NextStableOutcome};
use pm_stable::rotations::exposed_rotations_sequential;

const USAGE: &str = "usage: harness [--quick] [--profile] [--json [--json-out PATH] \
                     [--threads 1,2,4] [--workloads GLOB] [--assert-speedup FLOOR]]";

/// The parsed command line; see the module docs for what each flag does.
#[derive(Debug, Default)]
struct Cli {
    quick: bool,
    profile: bool,
    json: bool,
    json_out: String,
    threads: Vec<usize>,
    workloads: Option<String>,
    assert_speedup: Option<f64>,
}

/// Parses the arguments after the program name.  Every flag must be known
/// and every value flag needs a value, so a typo or a trailing `--json-out`
/// is an error rather than a silent full sweep or an overwritten
/// `BENCH_popular.json`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        json_out: "BENCH_popular.json".to_string(),
        threads: vec![1, 2, 4],
        ..Cli::default()
    };
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--quick" => cli.quick = true,
            "--profile" => cli.profile = true,
            "--json" => cli.json = true,
            "--json-out" => cli.json_out = value()?,
            "--workloads" => cli.workloads = Some(value()?),
            "--threads" => {
                let list = value()?;
                cli.threads = list
                    .split(',')
                    .map(|t| t.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--threads takes e.g. 1,2,4, not {list}"))?;
                if cli.threads.first() != Some(&1) || cli.threads.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("--threads must be strictly increasing and start at 1 \
                                (speedup_vs_1 compares the first and last entries)"
                        .to_string());
                }
            }
            "--assert-speedup" => {
                let floor = value()?;
                cli.assert_speedup = Some(
                    floor
                        .parse()
                        .map_err(|_| format!("--assert-speedup takes e.g. 3.0, not {floor}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

/// Rejects the command line: prints `err` and the usage line, exits 2.
fn usage_exit(err: &str) -> ! {
    eprintln!("harness: {err}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| usage_exit(&err));
    let quick = cli.quick;
    if cli.profile {
        print_profile(quick);
        return;
    }
    if cli.json {
        let bench = Bench {
            quick,
            threads: cli.threads,
            reps: if quick { 2 } else { 3 },
        };
        write_trajectory(
            &bench,
            &cli.json_out,
            cli.workloads.as_deref(),
            cli.assert_speedup,
        );
        return;
    }
    let threads = rayon::current_num_threads();
    println!(
        "<!-- harness run: {} rayon threads, quick = {quick} -->\n",
        threads
    );

    e1_e2_paper_popular_example();
    e3_paper_stable_example();
    e4_peel_rounds(quick);
    e5_parallel_vs_sequential(quick);
    e6_max_cardinality(quick);
    e7_pseudoforest_cycles(quick);
    e8_optimal_variants(quick);
    e9_ties_reduction(quick);
    e10_next_stable(quick);
}

// ---------------------------------------------------------------- E1 / E2

fn e1_e2_paper_popular_example() {
    let inst = paper::figure1_instance();
    let tracker = DepthTracker::new();
    let run = popular_matching_run(&inst, &tracker).expect("Figure 1 is solvable");

    let mut t = Table::new(
        "E1 — Figures 1–3: reduced graph and popular matching of the paper's example",
        &[
            "applicant",
            "f(a)",
            "s(a)",
            "matched to",
            "paper's matching",
        ],
    );
    let paper_m = paper::figure1_popular_matching();
    for a in 0..inst.num_applicants() {
        t.row(vec![
            format!("a{}", a + 1),
            post(&inst, run.reduced.f(a)),
            post(&inst, run.reduced.s(a)),
            post(&inst, run.matching.post(a)),
            post(&inst, paper_m.post(a)),
        ]);
    }
    t.print();
    println!(
        "- peel rounds = {} (Lemma 2 bound {}), matching size = {}, popular = {}\n",
        run.peel_rounds,
        (inst.num_applicants() as f64).log2().ceil() as u32 + 1,
        run.matching.size(&inst),
        is_popular_characterization(&inst, &run.matching),
    );

    // E2: switching graph of the paper's matching.
    let sg = SwitchingGraph::build(&run.reduced, &paper_m, &tracker);
    let comps = sg.components(&tracker);
    let mut t2 = Table::new(
        "E2 — Figure 4: switching graph G_M of the paper's matching",
        &["component", "kind", "posts", "switching paths from"],
    );
    for (i, c) in comps.iter().enumerate() {
        let (kind, starts) = match &c.kind {
            ComponentKind::Cycle(cycle) => {
                (format!("cycle of length {}", cycle.len()), "-".to_string())
            }
            ComponentKind::Tree { sink } => {
                let starts: Vec<String> = c
                    .posts
                    .iter()
                    .filter(|&&q| q != *sink && sg.is_s_post(q))
                    .map(|&q| post(&inst, q))
                    .collect();
                (
                    format!("tree with sink {}", post(&inst, *sink)),
                    starts.join(" "),
                )
            }
        };
        t2.row(vec![
            format!("{}", i + 1),
            kind,
            c.posts
                .iter()
                .map(|&p| post(&inst, p))
                .collect::<Vec<_>>()
                .join(" "),
            starts,
        ]);
    }
    t2.print();
}

// --------------------------------------------------------------------- E3

fn e3_paper_stable_example() {
    let (inst, m) = paper::figure5_instance();
    let tracker = DepthTracker::new();
    let outcome = next_stable_matchings(&inst, &m, &tracker);
    let mut t = Table::new(
        "E3 — Figures 5–7: exposed rotations of the paper's stable matching",
        &["rotation", "men", "M\\rho (man -> woman)"],
    );
    if let NextStableOutcome::Next(results) = outcome {
        for (i, (rot, next)) in results.iter().enumerate() {
            t.row(vec![
                format!("rho{}", i + 1),
                rot.men()
                    .iter()
                    .map(|m| format!("m{}", m + 1))
                    .collect::<Vec<_>>()
                    .join(" "),
                (0..inst.n())
                    .map(|man| format!("m{}-w{}", man + 1, next.wife(man) + 1))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]);
        }
    }
    t.print();
    let all = pm_stable::lattice::all_stable_matchings(&inst, &tracker);
    println!(
        "- the Figure 5 instance has {} stable matchings in total\n",
        all.len()
    );
}

// --------------------------------------------------------------------- E4

fn e4_peel_rounds(quick: bool) {
    let mut t = Table::new(
        "E4 — Lemma 2: degree-1 peeling rounds of Algorithm 2",
        &[
            "workload",
            "n (applicants)",
            "peel rounds",
            "⌈log2 n⌉ + 1 bound",
            "within bound",
        ],
    );
    let mut row = |label: &str, inst: &PrefInstance| {
        let tracker = DepthTracker::new();
        let run = popular_matching_run(inst, &tracker).expect("solvable workload");
        let n = inst.num_applicants();
        let bound = (n as f64).log2().ceil() as u32 + 1;
        t.row(vec![
            label.to_string(),
            n.to_string(),
            run.peel_rounds.to_string(),
            bound.to_string(),
            (run.peel_rounds <= bound).to_string(),
        ]);
    };
    let uniform_sizes: Vec<usize> = if quick {
        vec![1_000, 16_000]
    } else {
        vec![1_024, 16_384, 262_144]
    };
    for &n in &uniform_sizes {
        row("uniform (solvable)", &workloads::solvable_uniform(n));
    }
    let depths: Vec<usize> = if quick {
        vec![6, 10, 14]
    } else {
        vec![6, 10, 14, 17]
    };
    for &d in &depths {
        row("binary-tree worst case", &workloads::peeling_tree(d));
    }
    t.print();
}

// --------------------------------------------------------------------- E5

fn e5_parallel_vs_sequential(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000, 64_000]
    } else {
        workloads::harness_sizes()
    };
    let reps = if quick { 2 } else { 3 };
    let mut t = Table::new(
        "E5 — Theorem 3: NC popular matching vs sequential baseline (solvable uniform workload)",
        &[
            "n",
            "sequential ms",
            "parallel ms",
            "seq/par",
            "PRAM depth",
            "PRAM work",
            "both popular",
            "size",
        ],
    );
    for &n in &sizes {
        let inst = workloads::solvable_uniform(n);
        let (seq, seq_t) = time_best(reps, || popular_matching_sequential(&inst).unwrap());
        let (par, par_t) = time_best(reps, || {
            let tracker = DepthTracker::new();
            pm_popular::algorithm1::popular_matching_nc(&inst, &tracker).unwrap()
        });
        let depth_tracker = DepthTracker::new();
        let _ = pm_popular::algorithm1::popular_matching_nc(&inst, &depth_tracker).unwrap();
        let stats = depth_tracker.stats();
        let both_popular =
            is_popular_characterization(&inst, &seq) && is_popular_characterization(&inst, &par);
        t.row(vec![
            n.to_string(),
            ms(seq_t),
            ms(par_t),
            format!("{:.2}x", seq_t.as_secs_f64() / par_t.as_secs_f64()),
            stats.depth.to_string(),
            stats.work.to_string(),
            both_popular.to_string(),
            par.size(&inst).to_string(),
        ]);
    }
    t.print();

    // Feasibility on the contended workload (popular matchings usually do
    // not exist there — part of the observed "shape").
    let mut t2 = Table::new(
        "E5b — feasibility under contention (master-list workload)",
        &["n", "popular matching exists", "parallel ms"],
    );
    // Capped at 64,000 applicants; the cap must not repeat a row.
    let mut contended_sizes: Vec<usize> = sizes.iter().map(|&n| n.min(64_000)).collect();
    contended_sizes.dedup();
    for &n in &contended_sizes {
        let inst = workloads::contended(n);
        let (res, par_t) = time_best(reps, || {
            let tracker = DepthTracker::new();
            pm_popular::algorithm1::popular_matching_nc(&inst, &tracker)
        });
        let exists = match res {
            Ok(_) => "yes",
            Err(PopularError::NoPopularMatching) => "no",
            Err(_) => "error",
        };
        t2.row(vec![
            inst.num_applicants().to_string(),
            exists.to_string(),
            ms(par_t),
        ]);
    }
    t2.print();
}

// --------------------------------------------------------------------- E6

fn e6_max_cardinality(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000]
    } else {
        vec![4_000, 16_000, 64_000, 256_000]
    };
    let mut t = Table::new(
        "E6 — Theorem 10: maximum-cardinality popular matching (Algorithm 3), paired-pressure workload",
        &["n (applicants)", "minimum popular size", "Algorithm 1 size", "maximum popular size", "spread", "algorithm 3 ms", "PRAM depth"],
    );
    for &n in &sizes {
        let inst = workloads::paired_pressure(n / 2);
        let tracker = DepthTracker::new();
        let run = popular_matching_run(&inst, &tracker).expect("pressured workload is solvable");
        // The smallest popular matching (cardinality weights, minimised): the
        // worst outcome Theorem 9 allows — the spread to the maximum is what
        // Algorithm 3 is able to recover from an adversarial starting point.
        let min = pm_popular::optimal::optimal_popular_matching(
            &inst,
            |a, p| {
                if p == inst.last_resort(a) {
                    pm_linalg::BigUint::zero()
                } else {
                    pm_linalg::BigUint::one()
                }
            },
            pm_popular::optimal::Objective::Minimize,
            &tracker,
        )
        .unwrap();
        let ((), alg3_t) = time_best(2, || {
            let tracker = DepthTracker::new();
            let _ = maximum_cardinality_popular_matching_nc(&inst, &tracker).unwrap();
        });
        let tracker2 = DepthTracker::new();
        let max = maximum_cardinality_popular_matching_nc(&inst, &tracker2).unwrap();
        t.row(vec![
            n.to_string(),
            min.size(&inst).to_string(),
            run.matching.size(&inst).to_string(),
            max.size(&inst).to_string(),
            (max.size(&inst) - min.size(&inst)).to_string(),
            ms(alg3_t),
            tracker2.stats().depth.to_string(),
        ]);
    }
    t.print();
}

// --------------------------------------------------------------------- E7

fn e7_pseudoforest_cycles(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![64, 256, 1_024]
    } else {
        workloads::pseudoforest_sizes()
    };
    let mut t = Table::new(
        "E7 — Section IV-A: cycle finding in pseudoforests (ms)",
        &[
            "n",
            "pointer doubling",
            "transitive closure",
            "incidence rank",
            "component counting",
            "sequential",
        ],
    );
    for &n in &sizes {
        let fg = workloads::pseudoforest(n);
        let tracker = DepthTracker::new();
        let reference = fg.on_cycle_sequential();

        let (d, t_doubling) = time_best(3, || fg.on_cycle_parallel(&tracker));
        let (c, t_closure) = time_best(3, || cycle_vertices_via_closure(&fg, &tracker));
        let (r, t_rank) = time_best(1, || cycle_vertices_via_rank(&fg, &tracker));
        let (cc, t_cc) = time_best(1, || cycle_vertices_via_cc(&fg, &tracker));
        let (_, t_seq) = time_best(3, || fg.on_cycle_sequential());

        assert_eq!(d, reference);
        assert_eq!(c, reference);
        // rank / cc methods return edge-derived vertex marks; agreement was
        // unit-tested, here we only check counts to avoid re-deriving.
        assert_eq!(
            r.iter().filter(|&&b| b).count(),
            reference.iter().filter(|&&b| b).count()
        );
        assert_eq!(
            cc.iter().filter(|&&b| b).count(),
            reference.iter().filter(|&&b| b).count()
        );

        t.row(vec![
            n.to_string(),
            ms(t_doubling),
            ms(t_closure),
            ms(t_rank),
            ms(t_cc),
            ms(t_seq),
        ]);
    }
    t.print();
}

// --------------------------------------------------------------------- E8

fn e8_optimal_variants(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000]
    } else {
        vec![4_000, 16_000, 64_000]
    };
    let mut t = Table::new(
        "E8 — Section IV-E: optimal popular matchings (A1 fraction 0.4)",
        &[
            "n",
            "first choices (arbitrary)",
            "first choices (rank-maximal)",
            "last resorts (arbitrary)",
            "last resorts (fair)",
            "rank-maximal ms",
            "fair ms",
        ],
    );
    for &n in &sizes {
        let inst = workloads::pressured(n, 0.4);
        let tracker = DepthTracker::new();
        let arbitrary = pm_popular::algorithm1::popular_matching_nc(&inst, &tracker).unwrap();
        let (rm, rm_t) = time_best(2, || {
            let tr = DepthTracker::new();
            rank_maximal_popular_matching(&inst, &tr).unwrap()
        });
        let (fair, fair_t) = time_best(2, || {
            let tr = DepthTracker::new();
            fair_popular_matching(&inst, &tr).unwrap()
        });
        let p_arb = Profile::of(&inst, &arbitrary);
        let p_rm = Profile::of(&inst, &rm);
        let p_fair = Profile::of(&inst, &fair);
        t.row(vec![
            n.to_string(),
            p_arb.0[0].to_string(),
            p_rm.0[0].to_string(),
            p_arb.0.last().unwrap().to_string(),
            p_fair.0.last().unwrap().to_string(),
            ms(rm_t),
            ms(fair_t),
        ]);
    }
    t.print();
}

// --------------------------------------------------------------------- E9

fn e9_ties_reduction(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 8_000]
    } else {
        vec![4_000, 16_000, 64_000, 256_000]
    };
    let mut t = Table::new(
        "E9 — Theorem 11: ties reduction vs Hopcroft–Karp (expected degree 4)",
        &[
            "n (per side)",
            "maximum matching size",
            "rank-1 popular oracle size",
            "sizes equal",
            "HK ms",
        ],
    );
    for &n in &sizes {
        let g = workloads::bipartite(n);
        let (hk, hk_t) = time_best(2, || hopcroft_karp(&g));
        let oracle = popular_matching_rank1(&g);
        t.row(vec![
            n.to_string(),
            hk.size().to_string(),
            oracle.size().to_string(),
            (hk.size() == oracle.size()).to_string(),
            ms(hk_t),
        ]);
    }
    t.print();
}

// -------------------------------------------------------------------- E10

fn e10_next_stable(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![64, 256]
    } else {
        workloads::stable_sizes()
    };
    let mut t = Table::new(
        "E10 — Theorem 16: next stable matching (Algorithm 4) at the man-optimal matching",
        &[
            "n",
            "exposed rotations",
            "algorithm 4 ms",
            "sequential finder ms",
            "lattice size (n ≤ 256)",
        ],
    );
    for &n in &sizes {
        let inst = workloads::stable_marriage(n);
        let m0 = inst.man_optimal();
        let (outcome, par_t) = time_best(2, || {
            let tracker = DepthTracker::new();
            next_stable_matchings(&inst, &m0, &tracker)
        });
        let (seq, seq_t) = time_best(2, || exposed_rotations_sequential(&inst, &m0));
        let rotations = match &outcome {
            NextStableOutcome::WomanOptimal => 0,
            NextStableOutcome::Next(v) => v.len(),
        };
        assert_eq!(rotations, seq.len());
        let lattice = if n <= 256 {
            let tracker = DepthTracker::new();
            pm_stable::lattice::all_stable_matchings(&inst, &tracker)
                .len()
                .to_string()
        } else {
            "-".to_string()
        };
        t.row(vec![
            n.to_string(),
            rotations.to_string(),
            ms(par_t),
            ms(seq_t),
            lattice,
        ]);
    }
    t.print();
}

// ---------------------------------------------------- perf trajectory JSON

/// One measured point on the perf trajectory.
struct JsonResult {
    workload: &'static str,
    n: usize,
    row: Row,
}

/// What a workload's run measures at one size.
struct Row {
    /// Best-of-reps wall clock per executor width, in `--threads` order (the
    /// first entry is the 1-thread reference), in milliseconds per operation
    /// of the lap (request, delta, batch member or single call).
    wall: Vec<(usize, f64)>,
    /// Realised PRAM (depth, work) of the timed call, where tracked.
    pram: Option<(u64, u64)>,
    /// Extra integer fields rendered verbatim into the JSON entry
    /// (`requests`, `batch`, `allocs_per_solve`, …).
    extra: Vec<(&'static str, u64)>,
}

impl Row {
    /// The 1-thread wall clock — the trajectory number comparable with the
    /// pre-executor history of this file.
    fn wall_ms_1(&self) -> f64 {
        self.wall[0].1
    }

    /// Speedup of the widest swept configuration over one thread.
    fn speedup_vs_1(&self) -> f64 {
        self.wall_ms_1() / self.wall.last().expect("non-empty sweep").1
    }
}

/// `*`-wildcard matching for `--workloads` (iterative backtracking; `*`
/// matches any — possibly empty — substring).
fn glob_match(pattern: &str, text: &str) -> bool {
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == b'*')
}

/// The timing protocol every trajectory row shares: the best of `reps` laps
/// (2 under `--quick`, 3 in the full sweep), divided by the operations one
/// lap performs.  Each lap returns its result to [`time_best`], which drops
/// it outside the timed region, so a lap never times a free.
struct Bench {
    quick: bool,
    threads: Vec<usize>,
    reps: usize,
}

impl Bench {
    /// Best of `reps` laps at each `--threads` width, in ms per operation.
    fn sweep<R>(&self, per_lap: usize, mut lap: impl FnMut() -> R) -> Vec<(usize, f64)> {
        self.threads
            .iter()
            .map(|&t| (t, pool(t).install(|| self.best_ms(per_lap, &mut lap))))
            .collect()
    }

    /// Best of `reps` laps on the calling thread, in ms per operation: for
    /// server-routed families (the server owns its worker threads) and
    /// ingest (sequential), where a width sweep would record noise.
    fn width1<R>(&self, per_lap: usize, lap: impl FnMut() -> R) -> Vec<(usize, f64)> {
        vec![(1, self.best_ms(per_lap, lap))]
    }

    fn best_ms<R>(&self, per_lap: usize, lap: impl FnMut() -> R) -> f64 {
        let (_, best) = time_best(self.reps, lap);
        best.as_secs_f64() * 1e3 / per_lap as f64
    }

    /// Solves per timed lap of the warm and cold request streams.
    fn requests(&self, n: usize) -> usize {
        if n >= 1_000_000 {
            2
        } else if self.quick {
            4
        } else {
            8
        }
    }
}

/// An executor pinned to `width` threads.
fn pool(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("shim pools always build")
}

/// A (`--quick`, full sweep) pair of size lists.
type Sizes = (&'static [usize], &'static [usize]);
const SOLVE_SIZES: Sizes = (&[10_000, 100_000], &[10_000, 100_000, 1_000_000]);
const DEEP_SIZES: Sizes = (&[100_000], &[100_000, 1_000_000]);
const SERVER_SIZES: Sizes = (&[10_000], &[10_000, 100_000]);
const BATCH_SIZES: Sizes = (&[10_000], &[100_000]);

/// A workload's run: sets up one size, runs the family's gates and times it.
/// `None` skips the family in this build.
type Run = fn(&Bench, usize) -> Option<Row>;

/// Every row family, in output order: (name, sizes, run).  The pipeline
/// rows carry the realised PRAM (depth, work); `layout/` A/Bs the locality
/// layout pass (`pm_instances::layout`, DESIGN.md §12) on the
/// clustered-scattered workload — community structure in the preferences,
/// post ids scattered across the whole id space; `served/` times warm,
/// cold, batched, incremental and server-routed serving; `cold/` the three
/// ways a `PrefInstance` comes into existence.
const WORKLOADS: [(&str, Sizes, Run); 20] = [
    ("popular_matching_run/uniform", SOLVE_SIZES, |b, n| {
        let inst = workloads::solvable_uniform(n);
        Some(tracked_row(b, &inst, |tr| {
            popular_matching_run(&inst, tr).expect("solvable workload")
        }))
    }),
    ("max_cardinality/paired", DEEP_SIZES, |b, n| {
        let inst = workloads::paired_pressure(n / 2);
        Some(tracked_row(b, &inst, |tr| {
            maximum_cardinality_popular_matching_nc(&inst, tr).expect("solvable")
        }))
    }),
    ("switching_graph/uniform", DEEP_SIZES, |b, n| {
        Some(switching_graph_row(b, &workloads::solvable_uniform(n)))
    }),
    ("ties_rank1/bipartite", DEEP_SIZES, ties_rank1),
    ("layout/switching_graph/off", DEEP_SIZES, |b, n| {
        Some(switching_graph_row(b, &workloads::clustered_scattered(n)))
    }),
    ("layout/switching_graph/on", DEEP_SIZES, |b, n| {
        let (twin, layout_pass_us) = layout_twin(n);
        let mut row = switching_graph_row(b, twin.instance());
        row.extra.push(("layout_pass_us", layout_pass_us));
        Some(row)
    }),
    ("layout/warm_solve/off", DEEP_SIZES, |b, n| {
        let inst = workloads::clustered_scattered(n);
        let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
        solver.solve(&inst).expect("solvable workload");
        let mut row = request_row(b, n, None, || {
            black_box(solver.solve(&inst).expect("solvable").num_applicants());
        });
        row.extra
            .push(("bytes_per_entity", instance_bytes_per_entity(&inst)));
        Some(row)
    }),
    ("layout/warm_solve/on", DEEP_SIZES, |b, n| {
        // Warm solves through the layout, answers in original ids.  The
        // map-back buffer is pooled, so they run the zero-allocation gate.
        let (twin, layout_pass_us) = layout_twin(n);
        let inst = twin.instance();
        let mut rs = RelabeledSolver::new(inst.num_applicants(), inst.num_posts());
        let mut row = request_row(b, n, Some("warm layout solve (RelabeledSolver)"), || {
            black_box(rs.solve(&twin).expect("solvable").num_applicants());
        });
        row.extra.push(("layout_pass_us", layout_pass_us));
        row.extra
            .push(("bytes_per_entity", instance_bytes_per_entity(inst)));
        Some(row)
    }),
    ("served/warm_solve/uniform", SOLVE_SIZES, |b, n| {
        let inst = workloads::solvable_uniform(n);
        let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
        let mut row = request_row(b, n, Some("warm PopularSolver::solve"), || {
            black_box(solver.solve(&inst).expect("solvable").num_applicants());
        });
        row.extra
            .push(("bytes_per_entity", instance_bytes_per_entity(&inst)));
        Some(row)
    }),
    ("served/cold_solve/uniform", SOLVE_SIZES, |b, n| {
        let inst = workloads::solvable_uniform(n);
        let mut row = request_row(b, n, None, || {
            let tr = DepthTracker::new();
            black_box(
                popular_matching_nc(&inst, &tr)
                    .expect("solvable")
                    .num_applicants(),
            );
        });
        row.extra
            .push(("bytes_per_entity", instance_bytes_per_entity(&inst)));
        Some(row)
    }),
    ("served/batch/uniform", BATCH_SIZES, served_batch),
    ("served/incremental/edit_churn", SOLVE_SIZES, edit_churn),
    ("served/incremental/mixed_churn", SERVER_SIZES, mixed_churn),
    (
        "served/incremental/server_churn",
        SERVER_SIZES,
        server_churn,
    ),
    ("served/server_warm/uniform", SERVER_SIZES, |b, n| {
        let config = ServerConfig {
            workers: 1,
            faults: Spec::none(),
            ..ServerConfig::default()
        };
        let (row, s) = server_burst(b, n, config, false);
        // Zero-rejected gate: a burst that fits the queue must never be
        // rejected or shed at nominal, injection-free load.
        if s.rejected != 0 || s.shed != 0 {
            gate_failed(&format!(
                "ZERO-REJECTED GATE FAILED: served/server_warm rejected {} and shed {} \
                 requests at nominal load, n = {n} (expected 0 / 0)",
                s.rejected, s.shed
            ));
        }
        eprintln!(
            "zero-rejected gate passed at n = {n} ({} requests served)",
            s.served
        );
        Some(row)
    }),
    ("served/degraded/uniform", SERVER_SIZES, |b, n| {
        let config = ServerConfig {
            workers: 1,
            backoff_max: Duration::from_secs(3600),
            faults: Spec::none(),
            ..ServerConfig::default()
        };
        Some(server_burst(b, n, config, true).0)
    }),
    ("faults/chaos/uniform", SERVER_SIZES, |b, n| {
        // Injection only when the `faults` feature is compiled in, so the
        // committed trajectory stays injection-free.
        if !Spec::compiled_in() {
            eprintln!(
                "faults/chaos/uniform skipped: fail points compiled out \
                 (rebuild with `--features faults` to measure under injection)"
            );
            return None;
        }
        let faults = match std::env::var(pm_serve::faults::ENV_VAR) {
            Ok(s) if !s.trim().is_empty() => Spec::from_env(),
            _ => Spec::parse("panic:0.05,delay:1ms").expect("built-in spec parses"),
        };
        let config = ServerConfig {
            workers: 2,
            faults,
            ..ServerConfig::default()
        };
        Some(server_burst(b, n, config, false).0)
    }),
    ("cold/nested_build/uniform", DEEP_SIZES, |b, n| {
        // Includes the per-applicant vector materialisation the nested API
        // forces on every producer, modelled by cloning the lists per lap.
        let inst = workloads::solvable_uniform(n);
        let lists: Vec<Vec<usize>> = (0..inst.num_applicants())
            .map(|a| inst.strict_list(a).expect("uniform workload is strict"))
            .collect();
        let num_posts = inst.num_posts();
        Some(ingest_row(b, &inst, || {
            PrefInstance::new_strict(num_posts, lists.clone()).expect("valid workload")
        }))
    }),
    ("cold/text_parse/uniform", DEEP_SIZES, |b, n| {
        let inst = workloads::solvable_uniform(n);
        let text = pm_instances::io::text(&inst).to_string();
        Some(ingest_row(b, &inst, || {
            pm_instances::io::parse(&text).expect("rendered text parses")
        }))
    }),
    ("cold/snapshot_load/uniform", DEEP_SIZES, snapshot_load),
];

/// Times the `--workloads`-selected rows of [`WORKLOADS`] and writes
/// `BENCH_popular.json`.
///
/// Depth/work are read off a fresh tracker for an untimed call (they are
/// executor-independent, which the determinism tests assert).  An
/// unselected family never builds its instances.
fn write_trajectory(
    bench: &Bench,
    out_path: &str,
    filter: Option<&str>,
    speedup_floor: Option<f64>,
) {
    if let Some(pat) = filter {
        eprintln!("workload filter: {pat} (unselected workloads are dropped from the output file)");
    }
    let mut results: Vec<JsonResult> = Vec::new();
    for &(workload, (quick_sizes, full_sizes), run) in &WORKLOADS {
        if filter.is_some_and(|pat| !glob_match(pat, workload)) {
            continue;
        }
        for &n in if bench.quick { quick_sizes } else { full_sizes } {
            let Some(row) = run(bench, n) else { break };
            results.push(JsonResult { workload, n, row });
        }
    }
    if results.is_empty() {
        usage_exit("--workloads selects no workload that runs in this build");
    }

    let baseline = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|old| extract_object(&old, "baseline"));
    let json = render_json(bench, &results, baseline.as_deref());
    std::fs::write(out_path, &json).expect("write BENCH json");
    eprintln!("wrote {out_path}");
    println!("{json}");
    if let Some(floor) = speedup_floor {
        assert_speedup_floor(&results, &bench.threads, floor);
    }
}

/// Prints a failed gate's message and exits 1 (the CI regression gates).
fn gate_failed(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The zero-allocation gate: at width `threads`, repeats `lap` until one
/// lap allocates nothing (pooled buffers settle their capacity within a few
/// laps; 10 is far beyond it), then three more laps must not touch the
/// allocator at all.  Returns their allocation count, which is 0, or the
/// failure message.
///
/// It counts the calling thread's allocations only.  At width 1 the
/// executor runs every parallel call inline on that thread, so the count
/// is every allocation of the lap; at a wider width a fan-out allocates
/// its batch on the caller, so the count sees any fan-out, while a pool
/// worker's own start-up never lands in the window.
fn zero_alloc_gate(
    label: &str,
    n: usize,
    threads: usize,
    mut lap: impl FnMut(),
) -> Result<u64, String> {
    let pool = pool(threads);
    let mut warmups = 0u32;
    loop {
        let before = thread_allocation_count();
        pool.install(&mut lap);
        warmups += 1;
        if thread_allocation_count() == before || warmups >= 10 {
            break;
        }
    }
    let before = thread_allocation_count();
    pool.install(|| (0..3).for_each(|_| lap()));
    let allocs = thread_allocation_count() - before;
    if allocs != 0 {
        return Err(format!(
            "ZERO-ALLOC GATE FAILED: {label} performed {allocs} allocations over 3 laps \
             at n = {n}, width {threads}, after {warmups} warm-ups (expected 0)"
        ));
    }
    eprintln!(
        "zero-alloc gate passed at n = {n}, width {threads}, for {label} \
         (0 allocations across 3 warm laps, {warmups} warm-ups to steady state)"
    );
    Ok(allocs)
}

/// A pipeline row: `call` once on a fresh tracker for the realised PRAM
/// (depth, work), then swept with a fresh tracker per lap.
fn tracked_row<R>(bench: &Bench, inst: &PrefInstance, call: impl Fn(&DepthTracker) -> R) -> Row {
    let tracker = DepthTracker::new();
    call(&tracker);
    let stats = tracker.stats();
    Row {
        wall: bench.sweep(1, || call(&DepthTracker::new())),
        pram: Some((stats.depth, stats.work)),
        extra: vec![("bytes_per_entity", instance_bytes_per_entity(inst))],
    }
}

/// Switching-graph build + components + margins over a popular matching of
/// `inst` (`switching_graph/uniform` and the `layout/switching_graph/` A/B).
fn switching_graph_row(bench: &Bench, inst: &PrefInstance) -> Row {
    let run = popular_matching_run(inst, &DepthTracker::new()).expect("solvable workload");
    tracked_row(bench, inst, |tr| {
        let sg = SwitchingGraph::build(&run.reduced, &run.matching, tr);
        black_box((sg.components(tr).len(), sg.margins_to_sink(tr).len()))
    })
}

fn ties_rank1(bench: &Bench, n: usize) -> Option<Row> {
    let g = workloads::bipartite(n);
    // Depth/work of the ties path — the one workload that historically
    // lacked the fields.  The timed lap runs two stages: the rank-1 instance
    // construction (one O(|E|) validation round) and the Hopcroft-Karp
    // oracle (charged by `solve_ties` on the solver's internal tracker); the
    // recorded stats charge both so they describe exactly what is measured.
    let tracker = DepthTracker::new();
    tracker.round();
    tracker.work(g.num_edges() as u64);
    let mut stats_solver = PopularSolver::new(0, 0);
    let _ = stats_solver.solve_ties(&g).expect("valid ties graph");
    tracker.absorb(stats_solver.stats());
    let stats = tracker.stats();
    let wall = bench.sweep(1, || {
        let inst = pm_popular::ties::rank1_instance(&g).unwrap();
        black_box(inst.num_edges());
        popular_matching_rank1(&g).size()
    });
    let entities = g.n_left() + g.n_right();
    Some(Row {
        wall,
        pram: Some((stats.depth, stats.work)),
        extra: vec![(
            "bytes_per_entity",
            bytes_per_entity(g.heap_bytes(), entities),
        )],
    })
}

/// The relabeled twin of the clustered-scattered instance for the
/// `layout/*/on` rows, and the cost of its layout pass in µs — cold, run
/// once per instance (snapshots persist the result), so an extra field, not
/// a lap.  Once, untimed, the twin's solve mapped back through the inverse
/// permutation must be popular on the ORIGINAL (tie-break shifts make it a
/// possibly different matching than the direct solve's — popularity on the
/// original is the invariant that matters).
fn layout_twin(n: usize) -> (Relabeled, u64) {
    let inst = workloads::clustered_scattered(n);
    let pass_start = Instant::now();
    let twin = pm_instances::layout::optimize_layout(&inst).expect("valid instance relabels");
    let layout_pass_us = pass_start.elapsed().as_micros() as u64;
    let mut rs = RelabeledSolver::new(inst.num_applicants(), inst.num_posts());
    assert!(
        is_popular_characterization(&inst, rs.solve(&twin).expect("solvable workload")),
        "layout-path answer is not popular on the original instance at n = {n}"
    );
    (twin, layout_pass_us)
}

/// A request stream on one instance: `requests(n)` calls of `solve` per lap,
/// swept.  `gate` names a warm path that must not allocate: it runs the
/// zero-allocation gate first and records `allocs_per_solve` (provably 0,
/// since the gate exits otherwise; recording the measured value keeps the
/// JSON an observation rather than a constant).
fn request_row(bench: &Bench, n: usize, gate: Option<&str>, mut solve: impl FnMut()) -> Row {
    let requests = bench.requests(n);
    let mut extra = vec![("requests", requests as u64)];
    if let Some(label) = gate {
        let allocs = zero_alloc_gate(label, n, 1, &mut solve).unwrap_or_else(|e| gate_failed(&e));
        extra.push(("allocs_per_solve", allocs));
    }
    let wall = bench.sweep(requests, || (0..requests).for_each(|_| solve()));
    Row {
        wall,
        pram: None,
        extra,
    }
}

/// `served/batch/uniform`: `solve_batch` throughput, per batch member.
fn served_batch(bench: &Bench, n: usize) -> Option<Row> {
    let batch = if bench.quick { 4 } else { 8 };
    let insts = workloads::batch_instances(n, batch);
    let mut solver = PopularSolver::new(n, n);
    let wall = bench.sweep(batch, || black_box(solver.solve_batch(&insts).len()));
    // Once per size, untimed: the warm batch path answers every member as a
    // solo solve of that member would.
    let mut solo = PopularSolver::new(n, n);
    for (inst, answer) in insts.iter().zip(solver.solve_batch(&insts)) {
        assert_eq!(
            &answer.expect("batch member is solvable"),
            solo.solve(inst).expect("solvable workload"),
            "batch answer differs from a solo solve at n = {n}"
        );
    }
    let bytes: usize = insts.iter().map(PrefInstance::heap_bytes).sum();
    let entities: usize = insts
        .iter()
        .map(|i| i.num_applicants() + i.total_posts())
        .sum();
    Some(Row {
        wall,
        pram: None,
        extra: vec![
            ("batch", batch as u64),
            ("bytes_per_entity", bytes_per_entity(bytes, entities)),
        ],
    })
}

/// Fraction of a full warm solve the amortized per-delta cost of pure-edit
/// churn may reach before the harness exits non-zero (the incremental
/// regression gate CI runs on every push).  Dirty-component re-solves on
/// star-shaped components are microseconds against a full solve's hundreds
/// of milliseconds at n = 10^6, so 20% is a loose tripwire: it only fires
/// when the delta path has collapsed into near-constant full re-solves.
const INCREMENTAL_GATE_FRACTION: f64 = 0.20;

/// `served/incremental/edit_churn`: pure `EditPrefList` deltas with the
/// first choice pinned (no f-census flips) against a warm [`DeltaSolver`],
/// the regime the incremental layer is built for: every apply-and-flush
/// round re-solves only the edited applicant's component and splices it into
/// the cached global matching.  Reported per delta.  Runs two gates: the
/// zero-allocation gate at widths 1 and 2 (warm apply+flush rounds on clean
/// shards must neither touch the allocator nor fan out) and, at width 1,
/// the incremental gate (amortized per-delta cost must stay under
/// [`INCREMENTAL_GATE_FRACTION`] of a full warm solve).
fn edit_churn(bench: &Bench, n: usize) -> Option<Row> {
    let inst = workloads::solvable_uniform(n);
    // The stream and its reversed-tails twin: a measured pass applies both,
    // so every edit lands on a list the previous half-pass changed away —
    // replaying a single stream would time no-op applies on clean shards
    // instead of shard re-solves.
    let deltas = if bench.quick { 32 } else { 64 };
    let stream = workloads::edit_churn_stream(&inst, deltas);
    let streams = [workloads::resampled_twin(&inst, &stream), stream];
    let pass_deltas = 2 * deltas;

    // The full-warm-solve reference the incremental gate compares against:
    // same instance, same width, steady-state solver.
    let mut ref_solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
    let mut solve = || black_box(ref_solver.solve(&inst).expect("solvable").num_applicants());
    let full_warm_ms = pool(1).install(|| {
        solve();
        bench.best_ms(1, solve)
    });
    drop(ref_solver);

    let mut ds = pool(1)
        .install(|| DeltaSolver::install(&inst, DeltaMode::Popular))
        .expect("solvable workload");

    // The held pass keeps each answer until the next one, as the server's
    // last-good cache and a client do, so the solver must recycle its spare
    // answer buffer instead of copying the held one.
    let labels = [
        "warm delta apply+flush",
        "warm delta apply+flush with held answers",
    ];
    // Width 1 sees every allocation; width 2 then sees any fan-out on the
    // shard path, which the inline width-1 executor cannot.
    let mut allocs = [0u64; 2];
    for threads in [1, 2] {
        for (held_pass, label) in labels.into_iter().enumerate() {
            let mut held = None;
            allocs[held_pass] += zero_alloc_gate(label, n, threads, || {
                for d in streams.iter().flatten() {
                    ds.apply(d).expect("edit churn deltas are valid");
                    let answer = ds.flush().expect("solvable");
                    black_box(answer.num_applicants());
                    if held_pass == 1 {
                        held = Some(answer.clone());
                    }
                }
            })
            .unwrap_or_else(|e| gate_failed(&e));
            drop(held);
        }
    }

    let wall = bench.sweep(pass_deltas, || {
        for d in streams.iter().flatten() {
            ds.apply(d).expect("edit churn deltas are valid");
            black_box(ds.flush().expect("solvable").num_applicants());
        }
    });
    let amortized_ms = wall[0].1;
    if amortized_ms > INCREMENTAL_GATE_FRACTION * full_warm_ms {
        gate_failed(&format!(
            "INCREMENTAL GATE FAILED: amortized per-delta cost {amortized_ms:.3} ms \
             exceeds {INCREMENTAL_GATE_FRACTION} x full warm solve ({full_warm_ms:.3} ms) \
             at n = {n} — the delta path is re-solving from scratch"
        ));
    }
    eprintln!(
        "incremental gate passed at n = {n} ({} ms/delta vs {full_warm_ms:.3} ms full warm solve)",
        fmt_ms(amortized_ms)
    );

    let s = ds.stats();
    Some(Row {
        wall,
        pram: None,
        extra: vec![
            ("deltas", pass_deltas as u64),
            ("full_warm_solve_us", (full_warm_ms * 1e3) as u64),
            ("allocs_per_pass", allocs[0]),
            ("held_allocs_per_pass", allocs[1]),
            ("shard_solves", s.shard_solves),
            ("full_solves", s.full_solves),
            ("fallback_full_solves", s.fallback_full_solves),
            ("spliced_applicants", s.spliced_applicants),
        ],
    })
}

/// `served/incremental/mixed_churn`: the honest mix (edits, applicant
/// add/remove, post add/remove); post-set changes force full rebuilds by
/// design, so this family records what heterogeneous churn actually costs,
/// fallbacks included.
fn mixed_churn(bench: &Bench, n: usize) -> Option<Row> {
    let inst = workloads::solvable_uniform(n);
    let deltas = if bench.quick { 32 } else { 64 };
    let stream = workloads::mixed_churn_stream(&inst, deltas);

    // The stream mutates the instance (adds/removes), so it cannot be
    // replayed on the same solver: each width reinstalls a fresh solver
    // outside the timed region and times one pass.
    let mut infeasible_flushes = 0u64;
    let mut last_stats = None;
    let wall = bench
        .threads
        .iter()
        .map(|&t| {
            let elapsed = pool(t).install(|| {
                let mut ds =
                    DeltaSolver::install(&inst, DeltaMode::Popular).expect("solvable workload");
                infeasible_flushes = 0;
                let start = Instant::now();
                for d in &stream {
                    ds.apply(d).expect("mirror-validated deltas are valid");
                    match ds.flush() {
                        Ok(m) => {
                            black_box(m.num_applicants());
                        }
                        Err(PopularError::NoPopularMatching) => infeasible_flushes += 1,
                        Err(e) => panic!("mixed churn flush failed: {e}"),
                    }
                }
                let elapsed = start.elapsed();
                last_stats = Some(ds.stats());
                elapsed
            });
            (t, elapsed.as_secs_f64() * 1e3 / deltas as f64)
        })
        .collect();

    let s = last_stats.expect("at least one width measured");
    Some(Row {
        wall,
        pram: None,
        extra: vec![
            ("deltas", deltas as u64),
            ("infeasible_flushes", infeasible_flushes),
            ("shard_solves", s.shard_solves),
            ("full_solves", s.full_solves),
            ("fallback_full_solves", s.fallback_full_solves),
            ("spliced_applicants", s.spliced_applicants),
        ],
    })
}

/// `served/incremental/server_churn`: the `edit_churn` streams through the
/// fault-tolerant [`Server`] delta path (bounded queue, scheduling tick,
/// coalescing, health gate), measured at width 1 with the server's delta
/// counters recorded alongside.
fn server_churn(bench: &Bench, n: usize) -> Option<Row> {
    let inst = workloads::solvable_uniform(n);
    let deltas = if bench.quick { 32 } else { 64 };
    // Same stream/reversed-twin alternation as `edit_churn`: each measured
    // round submits both, so replays stay genuine changes.
    let stream = workloads::edit_churn_stream(&inst, deltas);
    let streams = [workloads::resampled_twin(&inst, &stream), stream];
    let pass_deltas = 2 * deltas;
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: deltas,
        faults: Spec::none(),
        ..ServerConfig::default()
    });
    server
        .install_delta(1, &inst, SolveMode::Popular)
        .expect("solvable workload");

    // One burst: submit the whole stream, then wait for every ticket.  The
    // single worker drains the queue in coalesced rounds, so this measures
    // the full tick path — queue, drain, apply, one flush per round,
    // response fan-out.
    let burst = || {
        for stream in &streams {
            let tickets: Vec<_> = stream
                .iter()
                .map(|d| {
                    server
                        .submit_delta(DeltaRequest::new(1, d.clone()))
                        .expect("burst fits the pending capacity")
                })
                .collect();
            for t in tickets {
                let resp = t.wait().expect("edit churn deltas solve cleanly");
                black_box(resp.matching.num_applicants());
            }
        }
    };
    burst();
    let wall = bench.width1(pass_deltas, burst);

    let s = server.stats();
    let d = server.delta_stats(1).expect("installed above");
    server.shutdown();
    Some(Row {
        wall,
        pram: None,
        extra: vec![
            ("deltas", pass_deltas as u64),
            ("served", s.served),
            ("delta_ticks", s.delta_ticks),
            ("deltas_coalesced", s.deltas_coalesced),
            ("degraded_responses", s.degraded_responses),
            ("panics_recovered", s.panics_recovered),
            ("shard_solves", d.shard_solves),
            ("full_solves", d.full_solves),
            ("fallback_full_solves", d.fallback_full_solves),
        ],
    })
}

/// The server-routed families (`served/server_warm`, `served/degraded`,
/// `faults/chaos`): the `served/warm_solve` request stream, but travelling
/// the full fault-tolerant path — bounded queue, deadline check, health
/// gate, `catch_unwind` — so the trajectory records what robustness costs
/// per request.  A burst of requests (the queue's capacity) goes to a
/// [`Server`] started from `config`; with `degrade`, the instance id is
/// force-degraded first and every answer must be the serial-dictatorship
/// fallback.  One burst warms the worker's solver; the rest are timed at
/// width 1.  Returns the row, with the server counters as extra fields, and
/// the counters themselves.
fn server_burst(
    bench: &Bench,
    n: usize,
    config: ServerConfig,
    degrade: bool,
) -> (Row, StatsSnapshot) {
    let requests = if bench.quick { 8 } else { 16 };
    let inst = Arc::new(workloads::solvable_uniform(n));
    let server = Server::start(ServerConfig {
        queue_capacity: requests,
        ..config
    });
    if degrade {
        server.force_degrade(1);
    }
    // Submits the burst and waits for every ticket; returns the
    // degraded-answer count observed by the client side.
    let burst = || {
        let tickets: Vec<_> = (0..requests)
            .map(|_| {
                server
                    .submit(Request::new(Arc::clone(&inst), 1))
                    .expect("burst fits the queue capacity")
            })
            .collect();
        let mut degraded = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(resp) => degraded += u64::from(resp.is_degraded()),
                Err(ServeError::Faulted) => {}
                Err(e) => panic!("server burst failed: {e}"),
            }
        }
        degraded
    };
    let degraded = burst();
    if degrade {
        assert_eq!(
            degraded, requests as u64,
            "a force-degraded id must answer every request degraded"
        );
    }
    let wall = bench.width1(requests, burst);

    let s = server.stats();
    server.shutdown();
    let extra = vec![
        ("requests", requests as u64),
        ("served", s.served),
        ("rejected", s.rejected),
        ("shed", s.shed),
        ("panics_recovered", s.panics_recovered),
        ("degraded_responses", s.degraded_responses),
    ];
    (
        Row {
            wall,
            pram: None,
            extra,
        },
        s,
    )
}

/// A `cold/` ingest row: `ingest` must reproduce `inst` (checked once,
/// untimed), then it is timed at width 1 — ingest is sequential.
fn ingest_row(bench: &Bench, inst: &PrefInstance, mut ingest: impl FnMut() -> PrefInstance) -> Row {
    assert_eq!(ingest(), *inst, "ingest must reproduce the instance");
    Row {
        wall: bench.width1(1, ingest),
        pram: None,
        extra: vec![("bytes_per_entity", instance_bytes_per_entity(inst))],
    }
}

/// Allocations one snapshot load may perform: essentially one per flat
/// buffer plus the file read.  More means the loader started restructuring
/// instead of filling flat buffers, and the harness exits non-zero.
const COLD_ALLOC_BOUND: u64 = 16;

/// `cold/snapshot_load/uniform`: the binary CSR snapshot loader, behind the
/// counting-allocator gate of [`COLD_ALLOC_BOUND`].
fn snapshot_load(bench: &Bench, n: usize) -> Option<Row> {
    let inst = workloads::solvable_uniform(n);
    let path = std::env::temp_dir().join(format!("pm_bench_cold_{n}.pmsnap"));
    pm_instances::snapshot::write_file(&inst, &path).expect("snapshot write");

    // Allocation gate: one load, counted exactly.
    let before = allocation_count();
    let loaded = pm_instances::snapshot::read_file(&path).expect("snapshot read");
    let allocs = allocation_count() - before;
    assert_eq!(loaded, inst, "snapshot load must reproduce the instance");
    drop(loaded);
    if allocs > COLD_ALLOC_BOUND {
        gate_failed(&format!(
            "COLD-ALLOC GATE FAILED: snapshot_load performed {allocs} allocations \
             at n = {n} (bound {COLD_ALLOC_BOUND}) — the loader is restructuring \
             instead of filling flat buffers"
        ));
    }
    eprintln!(
        "cold-alloc gate passed at n = {n} \
         ({allocs} allocations per snapshot load, bound {COLD_ALLOC_BOUND})"
    );

    let wall = bench.width1(1, || {
        pm_instances::snapshot::read_file(&path).expect("snapshot read")
    });
    std::fs::remove_file(&path).ok();
    Some(Row {
        wall,
        pram: None,
        extra: vec![
            ("allocs_per_load", allocs),
            ("bytes_per_entity", instance_bytes_per_entity(&inst)),
        ],
    })
}

/// The multicore regression gate behind `--assert-speedup FLOOR` (the CI
/// PM_THREADS=4 bench leg): every n ≥ 10⁶ workload swept at more than one
/// width must reach `floor` speedup of the widest width over one thread.
/// A miss downgrades to a warning when the runner reports fewer hardware
/// threads than the sweep's widest width — a 2-core shared runner cannot
/// reach a 3× floor, and that is a hardware fact, not a regression.
fn assert_speedup_floor(results: &[JsonResult], threads: &[usize], floor: f64) {
    const GATE_MIN_N: usize = 1_000_000;
    let widest = *threads.last().expect("non-empty sweep");
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let gated: Vec<&JsonResult> = results
        .iter()
        .filter(|r| r.n >= GATE_MIN_N && r.row.wall.len() > 1)
        .collect();
    if gated.is_empty() {
        eprintln!(
            "speedup gate: no n >= {GATE_MIN_N} workload in this sweep \
             (quick or filtered run) — nothing to assert"
        );
        return;
    }
    let mut failed = false;
    for r in gated {
        let s = r.row.speedup_vs_1();
        let ok = s >= floor;
        eprintln!(
            "speedup gate: {} n={} speedup_vs_1 = {s:.2} (floor {floor:.2}) — {}",
            r.workload,
            r.n,
            if ok { "ok" } else { "BELOW FLOOR" }
        );
        failed |= !ok;
    }
    if failed {
        if hw < widest {
            eprintln!(
                "speedup gate: WARNING only — runner reports {hw} hardware thread(s) \
                 for a {widest}-wide sweep; the {floor:.1}x floor is unreachable \
                 on this machine, not a regression signal"
            );
        } else {
            gate_failed("speedup gate: FAILED (workloads below the floor listed above)");
        }
    }
}

/// Warm laps per `--profile` row.
const PROFILE_REPS: u32 = 5;

/// `--profile`: each warm solve's own phase table
/// ([`PopularSolver::phase_times`]), summed over the laps.  Census and Jump
/// are sub-spans *inside* Algorithm 2, so the columns of the first table do
/// not sum to the total; a span is one clock pair and one relaxed add, so
/// the numbers below are the same solves the trajectory file times.
fn print_profile(quick: bool) {
    let sizes = if quick { SOLVE_SIZES.0 } else { SOLVE_SIZES.1 };
    println!(
        "<!-- harness --profile: {} rayon threads, {PROFILE_REPS} warm solves per size -->\n",
        rayon::current_num_threads()
    );
    let phases = [
        Phase::Reduce,
        Phase::Algorithm2,
        Phase::Promote,
        Phase::Census,
        Phase::Jump,
    ];
    let mut t = phase_table(
        "Per-kernel phase wall time, ms per warm solve (census/jump nest inside algorithm2)",
        &phases,
    );
    for &n in sizes {
        let inst = workloads::solvable_uniform(n);
        let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
        t.row(phase_row(n, &phases, || {
            black_box(
                solver
                    .solve(&inst)
                    .expect("solvable workload")
                    .num_applicants(),
            );
            solver.phase_times()
        }));
    }
    t.print();

    // The Hopcroft–Karp referee of the ties pipeline, same protocol: warm
    // `solve_ties` laps on the bipartite workload.
    // hk_dfs covers the layered search *including* its in-place path flips;
    // hk_augment is the final matching write-out, so the three phases
    // partition the referee.
    let phases = [Phase::HkBfs, Phase::HkDfs, Phase::HkAugment];
    let mut t2 = phase_table(
        "Hopcroft–Karp referee phases, ms per warm solve_ties (bipartite, expected degree 4)",
        &phases,
    );
    for &n in sizes {
        let g = workloads::bipartite(n);
        let mut solver = PopularSolver::new(0, 0);
        t2.row(phase_row(n, &phases, || {
            black_box(solver.solve_ties(&g).expect("valid ties graph").size());
            solver.phase_times()
        }));
    }
    t2.print();
}

/// A `--profile` table: `n`, one column per phase, then the lap total.
fn phase_table(title: &str, phases: &[Phase]) -> Table {
    let mut headers = vec!["n"];
    headers.extend(phases.iter().map(|p| p.name()));
    headers.push("total");
    Table::new(title, &headers)
}

/// One `--profile` row: `n`, then each of `phases` and the total wall time
/// in ms per lap over [`PROFILE_REPS`] laps, each lap returning its solve's
/// phase table.  One untimed lap first warms the workspace, so the totals
/// describe steady-state serving, not first-touch page faults.
fn phase_row(n: usize, phases: &[Phase], mut lap: impl FnMut() -> PhaseTimes) -> Vec<String> {
    lap();
    let mut sums = vec![Duration::ZERO; phases.len()];
    let start = Instant::now();
    for _ in 0..PROFILE_REPS {
        let times = lap();
        for (sum, &p) in sums.iter_mut().zip(phases) {
            *sum += times.get(p);
        }
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(PROFILE_REPS);
    let per_lap = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3 / f64::from(PROFILE_REPS));
    let mut row = vec![n.to_string()];
    row.extend(sums.into_iter().map(per_lap));
    row.push(format!("{total_ms:.3}"));
    row
}

fn render_json(bench: &Bench, results: &[JsonResult], baseline: Option<&str>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 6,\n");
    out.push_str("  \"harness\": \"pm_bench --json\",\n");
    out.push_str(&format!("  \"quick\": {},\n", bench.quick));
    out.push_str(&format!(
        "  \"rayon_threads\": {},\n",
        rayon::current_num_threads()
    ));
    out.push_str(&format!(
        "  \"thread_sweep\": [{}],\n",
        bench
            .threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut pram = match r.row.pram {
            Some((depth, work)) => format!(", \"depth\": {depth}, \"work\": {work}"),
            None => String::new(),
        };
        for (key, value) in &r.row.extra {
            pram.push_str(&format!(", \"{key}\": {value}"));
        }
        // `wall_ms` stays the 1-thread number so the trajectory remains
        // comparable with the sequential-shim history of this file.
        let by_threads = r
            .row
            .wall
            .iter()
            .map(|&(t, ms)| format!("\"{t}\": {}", fmt_ms(ms)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"wall_ms\": {}, \
             \"wall_ms_by_threads\": {{{}}}, \"speedup_vs_1\": {:.2}{}}}{}\n",
            r.workload,
            r.n,
            fmt_ms(r.row.wall_ms_1()),
            by_threads,
            r.row.speedup_vs_1(),
            pram,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if let Some(b) = baseline {
        out.push_str(",\n  \"baseline\": ");
        out.push_str(b);
    }
    out.push_str("\n}\n");
    out
}

/// Formats a millisecond timing for the trajectory JSON: three decimals,
/// or more where needed to keep three significant figures, so rows in the
/// microsecond range do not all round to `0.001`.
fn fmt_ms(ms: f64) -> String {
    let decimals = if ms > 0.0 && ms.is_finite() {
        (2 - ms.log10().floor() as i32).clamp(3, 9) as usize
    } else {
        3
    };
    format!("{ms:.decimals$}")
}

/// Extracts the balanced-brace JSON object bound to the given top-level key
/// from `text`, e.g. `extract_object(s, "baseline")` returns the `{...}`
/// after `"baseline":`.  Good enough for the harness's own output format
/// (no braces inside strings).
fn extract_object(text: &str, key: &str) -> Option<String> {
    let at = text.find(&format!("\"{key}\""))?;
    let start = at + text[at..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..=start + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

// ------------------------------------------------------------------ utils

/// Resident heap bytes of an instance's flat arrays per entity (applicants
/// plus extended posts), rounded to the nearest byte — the peak-footprint
/// estimate of the workload's *input* the trajectory file records so the
/// 32-bit index narrowing (DESIGN.md §7) is visible as data, not prose.
fn instance_bytes_per_entity(inst: &PrefInstance) -> u64 {
    bytes_per_entity(
        inst.heap_bytes(),
        inst.num_applicants() + inst.total_posts(),
    )
}

fn bytes_per_entity(bytes: usize, entities: usize) -> u64 {
    (bytes as u64 + entities as u64 / 2) / (entities as u64).max(1)
}

fn post(inst: &PrefInstance, p: usize) -> String {
    if inst.is_last_resort(p) {
        format!("l(a{})", p - inst.num_posts() + 1)
    } else {
        format!("p{}", p + 1)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    use super::{extract_object, fmt_ms, glob_match, parse_args, zero_alloc_gate, Cli, WORKLOADS};

    fn parse(line: &str) -> Result<Cli, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_args_reads_every_flag_and_keeps_defaults() {
        let defaults = parse("").unwrap();
        assert_eq!(defaults.json_out, "BENCH_popular.json");
        assert_eq!(defaults.threads, [1, 2, 4]);
        let cli = parse("--quick --json --json-out x.json --threads 1,4 --profile").unwrap();
        assert!(cli.quick && cli.json && cli.profile);
        assert_eq!(cli.json_out, "x.json");
        assert_eq!(cli.threads, [1, 4]);
        let cli = parse("--workloads served/* --assert-speedup 3").unwrap();
        assert_eq!(cli.workloads.as_deref(), Some("served/*"));
        assert_eq!(cli.assert_speedup, Some(3.0));
    }

    #[test]
    fn parse_args_rejects_unknown_flags_and_missing_values() {
        for (line, want) in [
            ("--json --quik", "unknown flag --quik"),
            ("stray", "unknown flag stray"),
            // A trailing value flag must not fall back to its default path.
            ("--json --json-out", "--json-out needs a value"),
            ("--json-out --json", "--json-out needs a value"),
            ("--threads 1,x", "--threads takes"),
            ("--threads 2,4", "strictly increasing"),
            ("--assert-speedup fast", "--assert-speedup takes"),
        ] {
            assert!(parse(line).unwrap_err().contains(want), "{line}");
        }
    }

    #[test]
    fn fmt_ms_keeps_three_significant_figures() {
        assert_eq!(fmt_ms(209.04), "209.040");
        assert_eq!(fmt_ms(1.5), "1.500");
        assert_eq!(fmt_ms(0.123), "0.123");
        assert_eq!(fmt_ms(0.00127), "0.00127");
        assert_eq!(fmt_ms(0.000772), "0.000772");
        assert_eq!(fmt_ms(0.0), "0.000");
    }

    #[test]
    fn glob_match_selects_by_wildcard() {
        for (pattern, text, want) in [
            ("served/*", "served/incremental/edit_churn", true),
            ("served/*", "layout/warm_solve/on", false),
            ("served/*/uniform", "served/warm_solve/uniform", true),
            ("served/*/uniform", "served/incremental/edit_churn", false),
            (
                "served/incremental*",
                "served/incremental/mixed_churn",
                true,
            ),
            ("served/incremental*", "served/batch/uniform", false),
            (
                "cold/snapshot_load/uniform",
                "cold/snapshot_load/uniform",
                true,
            ),
            ("", "", true),
            ("", "cold/text_parse/uniform", false),
        ] {
            assert_eq!(glob_match(pattern, text), want, "{pattern:?} on {text:?}");
        }
    }

    #[test]
    fn extract_object_returns_the_balanced_object_verbatim() {
        let baseline = r#"{"note": "pre-refactor", "results": [
    {"workload": "w", "n": 10, "wall_ms_by_threads": {"1": 2.5}}
  ]}"#;
        let head = r#"{
  "schema": 6,
  "results": [
    {"workload": "w", "n": 10, "wall_ms_by_threads": {"1": 1.5}}
  ],
  "baseline": "#;
        let text = [head, baseline, "\n}\n"].concat();
        assert_eq!(extract_object(&text, "baseline").as_deref(), Some(baseline));
        assert_eq!(extract_object(&text, "missing"), None);
    }

    #[test]
    fn workload_table_matches_the_committed_full_sweep() {
        // Top-level rows only: the preserved `baseline` object follows them.
        let committed = include_str!("../../../../BENCH_popular.json");
        let top = committed.split("\"baseline\"").next().unwrap();
        let mut want: Vec<(&str, usize)> = top
            .split("{\"workload\": \"")
            .skip(1)
            .map(|row| {
                let (name, rest) = row.split_once('"').unwrap();
                let n = rest.split("\"n\": ").nth(1).unwrap().split(',').next();
                (name, n.unwrap().parse().unwrap())
            })
            .collect();
        // The chaos family only runs with the `faults` feature, which the
        // committed trajectory never enables.
        let mut got: Vec<(&str, usize)> = WORKLOADS
            .iter()
            .filter(|&&(name, ..)| name != "faults/chaos/uniform")
            .flat_map(|&(name, (_, full), _)| full.iter().map(move |&n| (name, n)))
            .collect();
        assert_eq!(want.len(), 41);
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn workload_names_are_unique_and_every_ci_glob_selects_one() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let globs: Vec<&str> = ci
            .split("--workloads '")
            .skip(1)
            .map(|rest| rest.split('\'').next().unwrap())
            .collect();
        assert!(globs.len() >= 6, "{globs:?}");
        for glob in globs {
            assert!(names.iter().any(|name| glob_match(glob, name)), "{glob}");
        }
    }

    #[test]
    fn zero_alloc_gate_rejects_a_lap_that_allocates() {
        for threads in [1, 2] {
            let err = zero_alloc_gate("allocating lap", 7, threads, || {
                std::hint::black_box(vec![0u8; 64]);
            })
            .unwrap_err();
            assert!(
                err.starts_with("ZERO-ALLOC GATE FAILED: allocating lap"),
                "{err}"
            );
            assert!(err.contains(&format!("n = 7, width {threads}")), "{err}");
        }
    }

    #[test]
    fn zero_alloc_gate_ignores_other_threads() {
        // Another thread allocates inside every lap, between the lap's two
        // barrier waits; the gate counts only the calling thread, so it
        // still passes at both widths.
        let (step, done) = (Barrier::new(2), AtomicBool::new(false));
        let results = std::thread::scope(|scope| {
            scope.spawn(|| loop {
                step.wait();
                if done.load(Ordering::SeqCst) {
                    break;
                }
                std::hint::black_box(vec![0u8; 64]);
                step.wait();
            });
            let lap = || {
                step.wait();
                step.wait();
            };
            let results = [1, 2].map(|threads| zero_alloc_gate("busy neighbour", 7, threads, lap));
            // Release the neighbour before asserting, so a failure cannot
            // leave it waiting.
            done.store(true, Ordering::SeqCst);
            step.wait();
            results
        });
        assert_eq!(results, [Ok(0), Ok(0)]);
    }
}
