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
//! `server_trajectory`.  The incremental families
//! (`served/incremental/edit_churn`, `…/mixed_churn`, `…/server_churn`)
//! replay churn streams against a warm [`DeltaSolver`] and report amortized
//! per-delta milliseconds; see `incremental_trajectory`.
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
//! clock — reduce / algorithm2 / promote / census / jump wall time per warm
//! solve, plus the Hopcroft–Karp referee's bfs / dfs / augment phases per
//! warm `solve_ties` — via `pm_popular::profile`.  An unknown flag, a
//! value flag without its value, or a `--workloads` glob that selects no
//! workload prints the usage line and exits 2 without writing anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pm_bench::workloads;
use pm_bench::{ms, time_best, Table};

/// Number of heap allocations observed process-wide (relaxed; exact when
/// read around a single-threaded region, which is how the zero-allocation
/// gate uses it).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// A [`System`] allocator that counts every allocation (including
/// `realloc`/`alloc_zeroed`) — the measuring instrument behind the
/// `served/` zero-allocation gate.
struct CountingAllocator;

// SAFETY: every method delegates verbatim to `System`; the only addition is
// a relaxed counter increment, which allocates nothing and has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

use pm_graph::cycle::{
    cycle_vertices_via_cc, cycle_vertices_via_closure, cycle_vertices_via_rank, undirected_view,
};
use pm_instances::paper;
use pm_matching::hopcroft_karp::hopcroft_karp;
use pm_popular::algorithm1::popular_matching_run;
use pm_popular::delta::{DeltaMode, DeltaSolver};
use pm_popular::instance::PrefInstance;
use pm_popular::max_cardinality::maximum_cardinality_popular_matching_nc;
use pm_popular::optimal::{fair_popular_matching, rank_maximal_popular_matching};
use pm_popular::profile::Profile;
use pm_popular::sequential::popular_matching_sequential;
use pm_popular::solver::PopularSolver;
use pm_popular::switching::{ComponentKind, SwitchingGraph};
use pm_popular::ties::popular_matching_rank1;
use pm_popular::verify::is_popular_characterization;
use pm_popular::PopularError;
use pm_pram::DepthTracker;
use pm_serve::faults::Spec;
use pm_serve::{DeltaRequest, Request, ServeError, Server, ServerConfig, SolveMode};
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
        profile_trajectory(quick);
        return;
    }
    if cli.json {
        json_trajectory(
            quick,
            &cli.threads,
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
    for &n in &sizes {
        let inst = workloads::contended(n.min(64_000));
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
        let _ug = undirected_view(&fg);
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
    /// Best-of-N wall clock per executor width, in `--threads` order (the
    /// first entry is the 1-thread reference).  For `served/` workloads the
    /// values are amortized per-request milliseconds.
    wall_ms_by_threads: Vec<(usize, f64)>,
    /// Realised PRAM (depth, work) of the timed call, where tracked.
    pram: Option<(u64, u64)>,
    /// Extra integer fields rendered verbatim into the JSON entry
    /// (`requests`, `batch`, `allocs_per_solve`, …).
    extra: Vec<(&'static str, u64)>,
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

impl JsonResult {
    /// The 1-thread wall clock — the trajectory number comparable with the
    /// pre-executor history of this file.
    fn wall_ms_1(&self) -> f64 {
        self.wall_ms_by_threads[0].1
    }

    /// Speedup of the widest swept configuration over one thread.
    fn speedup_vs_1(&self) -> f64 {
        self.wall_ms_1() / self.wall_ms_by_threads.last().expect("non-empty sweep").1
    }
}

/// Runs `f` under each executor width in `threads` (best of `reps` each)
/// and returns the per-width wall clocks in milliseconds.
fn sweep_threads<R>(threads: &[usize], reps: usize, mut f: impl FnMut() -> R) -> Vec<(usize, f64)> {
    threads
        .iter()
        .map(|&t| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("shim pools always build");
            let (_, d) = pool.install(|| time_best(reps, &mut f));
            (t, d.as_secs_f64() * 1e3)
        })
        .collect()
}

/// Times the production pipeline workloads and writes `BENCH_popular.json`.
///
/// Wall clock is the `time_best`-of-3 protocol the Markdown tables use, run
/// once per entry of the `--threads` sweep; depth/work are read off a fresh
/// tracker for the same call (they are executor-independent, which the
/// determinism tests assert).  The sizes go up to 10^6 applicants in the
/// full sweep (10^5 under `--quick`, which is what the CI bench-smoke job
/// runs).  `filter` is the `--workloads` glob; unselected workload families
/// are skipped entirely (their instances are never even generated).
fn json_trajectory(
    quick: bool,
    threads: &[usize],
    out_path: &str,
    filter: Option<&str>,
    speedup_floor: Option<f64>,
) {
    let reps = if quick { 2 } else { 3 };
    let selected = |name: &str| filter.is_none_or(|pat| glob_match(pat, name));
    if let Some(pat) = filter {
        eprintln!("workload filter: {pat} (unselected workloads are dropped from the output file)");
    }
    let mut results: Vec<JsonResult> = Vec::new();

    let popular_sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    if selected("popular_matching_run/uniform") {
        for &n in popular_sizes {
            let inst = workloads::solvable_uniform(n);
            let tracker = DepthTracker::new();
            let _ = popular_matching_run(&inst, &tracker).expect("solvable workload");
            let stats = tracker.stats();
            let wall_ms_by_threads = sweep_threads(threads, reps, || {
                let tr = DepthTracker::new();
                popular_matching_run(&inst, &tr).unwrap()
            });
            results.push(JsonResult {
                workload: "popular_matching_run/uniform",
                n,
                wall_ms_by_threads,
                pram: Some((stats.depth, stats.work)),
                extra: vec![("bytes_per_entity", instance_bytes_per_entity(&inst))],
            });
        }
    }

    let deep_sizes: &[usize] = if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    if selected("max_cardinality/paired") {
        for &n in deep_sizes {
            let inst = workloads::paired_pressure(n / 2);
            let tracker = DepthTracker::new();
            let _ = maximum_cardinality_popular_matching_nc(&inst, &tracker).expect("solvable");
            let stats = tracker.stats();
            let wall_ms_by_threads = sweep_threads(threads, reps, || {
                let tr = DepthTracker::new();
                maximum_cardinality_popular_matching_nc(&inst, &tr).unwrap()
            });
            results.push(JsonResult {
                workload: "max_cardinality/paired",
                n,
                wall_ms_by_threads,
                pram: Some((stats.depth, stats.work)),
                extra: vec![("bytes_per_entity", instance_bytes_per_entity(&inst))],
            });
        }
    }

    if selected("switching_graph/uniform") {
        for &n in deep_sizes {
            let inst = workloads::solvable_uniform(n);
            let tracker = DepthTracker::new();
            let run = popular_matching_run(&inst, &tracker).expect("solvable workload");
            let sg_tracker = DepthTracker::new();
            {
                let sg = SwitchingGraph::build(&run.reduced, &run.matching, &sg_tracker);
                let _ = sg.components(&sg_tracker);
                let _ = sg.margins_to_sink(&sg_tracker);
            }
            let stats = sg_tracker.stats();
            let wall_ms_by_threads = sweep_threads(threads, reps, || {
                let tr = DepthTracker::new();
                let sg = SwitchingGraph::build(&run.reduced, &run.matching, &tr);
                let comps = sg.components(&tr);
                let margins = sg.margins_to_sink(&tr);
                std::hint::black_box((comps.len(), margins.len()))
            });
            results.push(JsonResult {
                workload: "switching_graph/uniform",
                n,
                wall_ms_by_threads,
                pram: Some((stats.depth, stats.work)),
                extra: vec![("bytes_per_entity", instance_bytes_per_entity(&inst))],
            });
        }
    }

    if selected("ties_rank1/bipartite") {
        for &n in deep_sizes {
            let g = workloads::bipartite(n);
            // Depth/work of the ties path — the one workload that
            // historically lacked the fields.  The timed closure below runs
            // two stages: the rank-1 instance construction (one O(|E|)
            // validation round) and the Hopcroft-Karp oracle (charged by
            // `solve_ties` on the solver's internal tracker); the recorded
            // stats charge both so they describe exactly what is measured.
            let tracker = DepthTracker::new();
            tracker.round();
            tracker.work(g.num_edges() as u64);
            let mut stats_solver = PopularSolver::new(0, 0);
            let _ = stats_solver.solve_ties(&g).expect("valid ties graph");
            tracker.absorb(stats_solver.stats());
            let stats = tracker.stats();
            let wall_ms_by_threads = sweep_threads(threads, reps, || {
                let inst = pm_popular::ties::rank1_instance(&g).unwrap();
                std::hint::black_box(inst.num_edges());
                popular_matching_rank1(&g).size()
            });
            results.push(JsonResult {
                workload: "ties_rank1/bipartite",
                n,
                wall_ms_by_threads,
                pram: Some((stats.depth, stats.work)),
                extra: vec![(
                    "bytes_per_entity",
                    bytes_per_entity(g.heap_bytes(), g.n_left() + g.n_right()),
                )],
            });
        }
    }

    layout_trajectory(quick, threads, reps, &selected, &mut results);
    served_trajectory(quick, threads, reps, &selected, &mut results);
    incremental_trajectory(quick, threads, reps, &selected, &mut results);
    server_trajectory(quick, reps, &selected, &mut results);
    cold_trajectory(quick, reps, &selected, &mut results);
    if results.is_empty() {
        usage_exit("--workloads selects no workload that runs in this build");
    }

    let baseline = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|old| extract_object(&old, "baseline"));
    let json = render_json(quick, threads, &results, baseline.as_deref());
    std::fs::write(out_path, &json).expect("write BENCH json");
    eprintln!("wrote {out_path}");
    println!("{json}");
    if let Some(floor) = speedup_floor {
        assert_speedup_floor(&results, threads, floor);
    }
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
        .filter(|r| r.n >= GATE_MIN_N && r.wall_ms_by_threads.len() > 1)
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
        let s = r.speedup_vs_1();
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
            eprintln!("speedup gate: FAILED (workloads below the floor listed above)");
            std::process::exit(1);
        }
    }
}

/// `--profile`: the per-kernel phase clock (pm_popular::profile) over warm
/// solves of the headline uniform workload.  Census and Jump are sub-spans
/// *inside* Algorithm 2, so the five columns do not sum to the total; the
/// clock itself is two relaxed atomics per span, so the numbers below are
/// the same solves the trajectory file times.
fn profile_trajectory(quick: bool) {
    use pm_popular::profile::{
        enable_phase_timings, phase_timings, reset_phase_timings, SolvePhase,
    };
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let reps = 5u32;
    println!(
        "<!-- harness --profile: {} rayon threads, {reps} warm solves per size -->\n",
        rayon::current_num_threads()
    );
    let mut t = Table::new(
        "Per-kernel phase wall time, ms per warm solve (census/jump nest inside algorithm2)",
        &[
            "n",
            "reduce",
            "algorithm2",
            "promote",
            "census",
            "jump",
            "total",
        ],
    );
    for &n in sizes {
        let inst = workloads::solvable_uniform(n);
        let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
        // One untimed solve warms the workspace so the phase totals describe
        // steady-state serving, not first-touch page faults.
        solver.solve(&inst).expect("solvable workload");
        reset_phase_timings();
        enable_phase_timings(true);
        let start = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(
                solver
                    .solve(&inst)
                    .expect("solvable workload")
                    .num_applicants(),
            );
        }
        let total_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        enable_phase_timings(false);
        let timings = phase_timings();
        let per_solve = |p: SolvePhase| {
            format!(
                "{:.3}",
                timings.get(p).as_secs_f64() * 1e3 / f64::from(reps)
            )
        };
        t.row(vec![
            n.to_string(),
            per_solve(SolvePhase::Reduce),
            per_solve(SolvePhase::Algorithm2),
            per_solve(SolvePhase::Promote),
            per_solve(SolvePhase::Census),
            per_solve(SolvePhase::Jump),
            format!("{total_ms:.3}"),
        ]);
    }
    t.print();

    // The Hopcroft–Karp referee of the ties pipeline, same protocol: warm
    // `solve_ties` laps on the bipartite workload with the clock enabled.
    // hk_dfs covers the layered search *including* its in-place path flips;
    // hk_augment is the final matching write-out, so the three phases
    // partition the referee.
    let mut t2 = Table::new(
        "Hopcroft–Karp referee phases, ms per warm solve_ties (bipartite, expected degree 4)",
        &["n", "hk_bfs", "hk_dfs", "hk_augment", "total"],
    );
    for &n in sizes {
        let g = workloads::bipartite(n);
        let mut solver = PopularSolver::new(0, 0);
        let _ = solver.solve_ties(&g).expect("valid ties graph");
        reset_phase_timings();
        enable_phase_timings(true);
        let start = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(solver.solve_ties(&g).expect("valid ties graph").size());
        }
        let total_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        enable_phase_timings(false);
        let timings = phase_timings();
        let per_solve = |p: SolvePhase| {
            format!(
                "{:.3}",
                timings.get(p).as_secs_f64() * 1e3 / f64::from(reps)
            )
        };
        t2.row(vec![
            n.to_string(),
            per_solve(SolvePhase::HkBfs),
            per_solve(SolvePhase::HkDfs),
            per_solve(SolvePhase::HkAugment),
            format!("{total_ms:.3}"),
        ]);
    }
    t2.print();
}

/// The `layout/` workload family (E23): the same pipeline measured with
/// and without the locality layout pass of `pm_instances::layout`
/// (DESIGN.md §12), on the clustered-scattered workload — community
/// structure in the preferences, post ids scattered across the whole id
/// space.
///
/// * `layout/switching_graph/{off,on}` — switching-graph build +
///   components + margins over a popular matching of the original (`off`)
///   vs the relabeled twin (`on`); the headline A/B of the layout PR.
/// * `layout/warm_solve/{off,on}` — warm repeated solves: a plain
///   [`PopularSolver`] on the original vs a
///   [`pm_popular::RelabeledSolver`] solving the twin and mapping answers
///   back to original post ids.  The `on` side runs the **zero-allocation
///   gate** (the map-back buffer is pooled, so warm layout solves must not
///   touch the allocator) and records `allocs_per_solve`.
///
/// Once per size, untimed, the twin's mapped-back answer is verified
/// popular **on the original instance** (tie-break shifts make it a
/// possibly different matching than the direct solve's — popularity on the
/// original is the invariant that matters).  The `on` entries record the
/// one-time layout pass cost as `layout_pass_us`.
fn layout_trajectory(
    quick: bool,
    threads: &[usize],
    reps: usize,
    selected: &dyn Fn(&str) -> bool,
    results: &mut Vec<JsonResult>,
) {
    use pm_popular::relabel::RelabeledSolver;

    let want_sg = selected("layout/switching_graph/off") || selected("layout/switching_graph/on");
    let want_warm = selected("layout/warm_solve/off") || selected("layout/warm_solve/on");
    if !(want_sg || want_warm) {
        return;
    }
    let sizes: &[usize] = if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    for &n in sizes {
        let inst = workloads::clustered_scattered(n);

        // The layout pass itself — cold, run once per instance (snapshots
        // persist the result), so its cost is an extra field, not a lap.
        let pass_start = std::time::Instant::now();
        let relabeled =
            pm_instances::layout::optimize_layout(&inst).expect("valid instance relabels");
        let layout_pass_us = pass_start.elapsed().as_micros() as u64;

        // Correctness once per size, untimed: the twin's solve, mapped back
        // through the inverse permutation, must be popular on the ORIGINAL.
        let mut rs = RelabeledSolver::new(inst.num_applicants(), inst.num_posts());
        let mapped = rs.solve(&relabeled).expect("solvable workload").clone();
        assert!(
            is_popular_characterization(&inst, &mapped),
            "layout-path answer is not popular on the original instance at n = {n}"
        );
        drop(rs);

        if want_sg {
            for (workload, subject) in [
                ("layout/switching_graph/off", &inst),
                ("layout/switching_graph/on", relabeled.instance()),
            ] {
                let tracker = DepthTracker::new();
                let run = popular_matching_run(subject, &tracker).expect("solvable workload");
                let sg_tracker = DepthTracker::new();
                {
                    let sg = SwitchingGraph::build(&run.reduced, &run.matching, &sg_tracker);
                    let _ = sg.components(&sg_tracker);
                    let _ = sg.margins_to_sink(&sg_tracker);
                }
                let stats = sg_tracker.stats();
                let wall_ms_by_threads = sweep_threads(threads, reps, || {
                    let tr = DepthTracker::new();
                    let sg = SwitchingGraph::build(&run.reduced, &run.matching, &tr);
                    let comps = sg.components(&tr);
                    let margins = sg.margins_to_sink(&tr);
                    std::hint::black_box((comps.len(), margins.len()))
                });
                let mut extra = vec![("bytes_per_entity", instance_bytes_per_entity(subject))];
                if workload.ends_with("/on") {
                    extra.push(("layout_pass_us", layout_pass_us));
                }
                results.push(JsonResult {
                    workload,
                    n,
                    wall_ms_by_threads,
                    pram: Some((stats.depth, stats.work)),
                    extra,
                });
            }
        }

        if want_warm {
            let requests: usize = if n >= 1_000_000 {
                2
            } else if quick {
                4
            } else {
                8
            };

            // Off: plain warm solves on the scattered original.
            let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
            solver.solve(&inst).expect("solvable workload");
            let wall_off: Vec<(usize, f64)> = sweep_threads(threads, reps, || {
                for _ in 0..requests {
                    std::hint::black_box(solver.solve(&inst).expect("solvable").num_applicants());
                }
            })
            .into_iter()
            .map(|(t, total_ms)| (t, total_ms / requests as f64))
            .collect();
            drop(solver);
            results.push(JsonResult {
                workload: "layout/warm_solve/off",
                n,
                wall_ms_by_threads: wall_off,
                pram: None,
                extra: vec![
                    ("requests", requests as u64),
                    ("bytes_per_entity", instance_bytes_per_entity(&inst)),
                ],
            });

            // On: warm solves through the layout, answers in original ids.
            // Zero-allocation gate at width 1, like `served/warm_solve`.
            let mut rs = RelabeledSolver::new(inst.num_applicants(), inst.num_posts());
            let pool1 = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("shim pools always build");
            let mut warmups = 0u32;
            loop {
                let before = allocation_count();
                pool1.install(|| {
                    std::hint::black_box(rs.solve(&relabeled).expect("solvable").num_applicants());
                });
                warmups += 1;
                if allocation_count() == before || warmups >= 10 {
                    break;
                }
            }
            let before = allocation_count();
            pool1.install(|| {
                for _ in 0..3 {
                    std::hint::black_box(rs.solve(&relabeled).expect("solvable").num_applicants());
                }
            });
            let allocs = allocation_count() - before;
            if allocs != 0 {
                eprintln!(
                    "ZERO-ALLOC GATE FAILED: warm layout solve (RelabeledSolver) performed \
                     {allocs} allocations over 3 solves at n = {n} after {warmups} warm-ups \
                     (expected 0)"
                );
                std::process::exit(1);
            }
            eprintln!(
                "zero-alloc gate passed at n = {n} \
                 (0 allocations across 3 warm layout solves, {warmups} warm-ups to steady state)"
            );

            let wall_on: Vec<(usize, f64)> = sweep_threads(threads, reps, || {
                for _ in 0..requests {
                    std::hint::black_box(rs.solve(&relabeled).expect("solvable").num_applicants());
                }
            })
            .into_iter()
            .map(|(t, total_ms)| (t, total_ms / requests as f64))
            .collect();
            results.push(JsonResult {
                workload: "layout/warm_solve/on",
                n,
                wall_ms_by_threads: wall_on,
                pram: None,
                extra: vec![
                    ("requests", requests as u64),
                    ("allocs_per_solve", allocs),
                    ("layout_pass_us", layout_pass_us),
                    (
                        "bytes_per_entity",
                        instance_bytes_per_entity(relabeled.instance()),
                    ),
                ],
            });
        }
    }
}

/// The `served/` workload family: warm repeated solves on one reused
/// [`PopularSolver`], the cold free-function path on the same request
/// stream, and batched throughput — all reported as amortized per-request
/// milliseconds.  Also runs the zero-allocation gate: a width-1 warm solve
/// under the counting allocator must allocate exactly zero times, or the
/// harness exits non-zero (the CI regression gate).
fn served_trajectory(
    quick: bool,
    threads: &[usize],
    reps: usize,
    selected: &dyn Fn(&str) -> bool,
    results: &mut Vec<JsonResult>,
) {
    let served_sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    if selected("served/warm_solve/uniform") {
        for &n in served_sizes {
            let inst = workloads::solvable_uniform(n);
            let requests: usize = if n >= 1_000_000 {
                2
            } else if quick {
                4
            } else {
                8
            };
            let mut solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());

            // Zero-allocation gate, width 1: warm until the pooled buffers
            // reach steady state (capacity growth settles within a few
            // requests; 10 is far beyond it), then three measured solves
            // must not touch the allocator at all.
            let pool1 = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("shim pools always build");
            let mut warmups = 0u32;
            loop {
                let before = allocation_count();
                pool1.install(|| {
                    std::hint::black_box(solver.solve(&inst).expect("solvable").num_applicants());
                });
                warmups += 1;
                if allocation_count() == before || warmups >= 10 {
                    break;
                }
            }
            let before = allocation_count();
            pool1.install(|| {
                for _ in 0..3 {
                    std::hint::black_box(solver.solve(&inst).expect("solvable").num_applicants());
                }
            });
            let allocs = allocation_count() - before;
            if allocs != 0 {
                eprintln!(
                    "ZERO-ALLOC GATE FAILED: warm PopularSolver::solve performed {allocs} \
                     allocations over 3 solves at n = {n} after {warmups} warm-ups (expected 0)"
                );
                std::process::exit(1);
            }
            eprintln!(
                "zero-alloc gate passed at n = {n} \
                 (0 allocations across 3 warm solves, {warmups} warm-ups to steady state)"
            );

            let wall_ms_by_threads: Vec<(usize, f64)> = sweep_threads(threads, reps, || {
                for _ in 0..requests {
                    std::hint::black_box(solver.solve(&inst).expect("solvable").num_applicants());
                }
            })
            .into_iter()
            .map(|(t, total_ms)| (t, total_ms / requests as f64))
            .collect();
            results.push(JsonResult {
                workload: "served/warm_solve/uniform",
                n,
                wall_ms_by_threads,
                pram: None,
                // `allocs` is provably 0 here (the gate above exits
                // otherwise); recording the measured value keeps the JSON
                // an observation rather than a constant.
                extra: vec![
                    ("requests", requests as u64),
                    ("allocs_per_solve", allocs),
                    ("bytes_per_entity", instance_bytes_per_entity(&inst)),
                ],
            });
        }
    }

    if selected("served/cold_solve/uniform") {
        for &n in served_sizes {
            let inst = workloads::solvable_uniform(n);
            let requests: usize = if n >= 1_000_000 {
                2
            } else if quick {
                4
            } else {
                8
            };
            let wall_ms_by_threads: Vec<(usize, f64)> = sweep_threads(threads, reps, || {
                for _ in 0..requests {
                    let tr = DepthTracker::new();
                    std::hint::black_box(
                        pm_popular::algorithm1::popular_matching_nc(&inst, &tr)
                            .expect("solvable")
                            .num_applicants(),
                    );
                }
            })
            .into_iter()
            .map(|(t, total_ms)| (t, total_ms / requests as f64))
            .collect();
            results.push(JsonResult {
                workload: "served/cold_solve/uniform",
                n,
                wall_ms_by_threads,
                pram: None,
                extra: vec![
                    ("requests", requests as u64),
                    ("bytes_per_entity", instance_bytes_per_entity(&inst)),
                ],
            });
        }
    }

    if selected("served/batch/uniform") {
        let (batch_n, batch_size): (usize, usize) = if quick { (10_000, 4) } else { (100_000, 8) };
        let insts = workloads::batch_instances(batch_n, batch_size);
        let mut solver = PopularSolver::new(batch_n, batch_n);
        let wall_ms_by_threads: Vec<(usize, f64)> = sweep_threads(threads, reps, || {
            let out = solver.solve_batch(&insts);
            debug_assert!(out.iter().all(Result::is_ok));
            std::hint::black_box(out.len())
        })
        .into_iter()
        .map(|(t, total_ms)| (t, total_ms / batch_size as f64))
        .collect();
        let batch_bytes: usize = insts.iter().map(PrefInstance::heap_bytes).sum();
        let batch_entities: usize = insts
            .iter()
            .map(|i| i.num_applicants() + i.total_posts())
            .sum();
        results.push(JsonResult {
            workload: "served/batch/uniform",
            n: batch_n,
            wall_ms_by_threads,
            pram: None,
            extra: vec![
                ("batch", batch_size as u64),
                (
                    "bytes_per_entity",
                    bytes_per_entity(batch_bytes, batch_entities),
                ),
            ],
        });
    }
}

/// Fraction of a full warm solve the amortized per-delta cost of pure-edit
/// churn may reach before the harness exits non-zero (the incremental
/// regression gate CI runs on every push).  Dirty-component re-solves on
/// star-shaped components are microseconds against a full solve's hundreds
/// of milliseconds at n = 10^6, so 20% is a loose tripwire: it only fires
/// when the delta path has collapsed into near-constant full re-solves.
const INCREMENTAL_GATE_FRACTION: f64 = 0.20;

/// The `served/incremental/` workload family (PR 8): churn streams against
/// a warm [`DeltaSolver`], reported as amortized per-delta milliseconds —
///
/// * `served/incremental/edit_churn` — pure `EditPrefList` deltas with the
///   first choice pinned (no f-census flips), the regime the incremental
///   layer is built for: every apply-and-flush round re-solves only the
///   edited applicant's component and splices it into the cached global
///   matching.  Runs two gates at width 1: the **zero-allocation gate**
///   (warm apply+flush rounds on clean shards must not touch the
///   allocator) and the **incremental gate** (amortized per-delta cost must
///   stay under [`INCREMENTAL_GATE_FRACTION`] of a full warm solve).
/// * `served/incremental/mixed_churn` — the honest mix (edits, applicant
///   add/remove, post add/remove); post-set changes force full rebuilds by
///   design, so this family records what heterogeneous churn actually
///   costs, fallbacks included.  The stream mutates the instance, so each
///   measured pass reinstalls a fresh solver (untimed) and is timed once.
/// * `served/incremental/server_churn` — the same edit stream through the
///   fault-tolerant [`Server`] delta path (bounded queue, scheduling tick,
///   coalescing, health gate), measured at width 1 with the server's
///   delta counters recorded alongside.
fn incremental_trajectory(
    quick: bool,
    threads: &[usize],
    reps: usize,
    selected: &dyn Fn(&str) -> bool,
    results: &mut Vec<JsonResult>,
) {
    let inc_sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let deltas: usize = if quick { 32 } else { 64 };

    if selected("served/incremental/edit_churn") {
        for &n in inc_sizes {
            let inst = workloads::solvable_uniform(n);
            // The stream and its reversed-tails twin: a measured pass
            // applies both, so every edit lands on a list the previous
            // half-pass changed away — replaying a single stream would time
            // no-op applies on clean shards instead of shard re-solves.
            let stream = workloads::edit_churn_stream(&inst, deltas);
            let streams = [workloads::resampled_twin(&inst, &stream), stream];
            let pass_deltas = 2 * deltas;
            let pool1 = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("shim pools always build");

            // The full-warm-solve reference the incremental gate compares
            // against: same instance, same width, steady-state solver.
            let mut ref_solver = PopularSolver::new(inst.num_applicants(), inst.num_posts());
            let full_warm_ms = pool1.install(|| {
                std::hint::black_box(ref_solver.solve(&inst).expect("solvable").num_applicants());
                let (_, t) = time_best(reps, || {
                    std::hint::black_box(
                        ref_solver.solve(&inst).expect("solvable").num_applicants(),
                    )
                });
                t.as_secs_f64() * 1e3
            });
            drop(ref_solver);

            let mut ds = pool1
                .install(|| DeltaSolver::install(&inst, DeltaMode::Popular))
                .expect("solvable workload");

            // Zero-allocation gate, width 1: replay the stream until the
            // pooled buffers (dirty lists, component scratch, sub-instance
            // slices) reach steady state, then three full apply+flush
            // passes must not allocate at all.  The held pass keeps each
            // answer until the next one, as the server's last-good cache
            // and a client do, so the solver must recycle its spare answer
            // buffer instead of copying the held one.
            let mut allocs_by_pass = [0u64; 2];
            for (held_pass, allocs) in allocs_by_pass.iter_mut().enumerate() {
                let mut held = None;
                let mut churn_pass = || {
                    for d in streams.iter().flatten() {
                        ds.apply(d).expect("edit churn deltas are valid");
                        let answer = ds.flush().expect("solvable");
                        std::hint::black_box(answer.num_applicants());
                        if held_pass == 1 {
                            held = Some(answer.clone());
                        }
                    }
                };
                let mut warmups = 0u32;
                loop {
                    let before = allocation_count();
                    pool1.install(&mut churn_pass);
                    warmups += 1;
                    if allocation_count() == before || warmups >= 10 {
                        break;
                    }
                }
                let before = allocation_count();
                pool1.install(|| (0..3).for_each(|_| churn_pass()));
                *allocs = allocation_count() - before;
                drop(held);
                let what = ["apply+flush", "apply+flush with held answers"][held_pass];
                if *allocs != 0 {
                    eprintln!(
                        "ZERO-ALLOC GATE FAILED: warm delta {what} performed {allocs} \
                         allocations over 3 x {pass_deltas} deltas at n = {n} after {warmups} \
                         warm-up passes (expected 0)"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "zero-alloc gate passed at n = {n} for {what} (0 allocations across \
                     3 warm churn passes, {warmups} warm-ups to steady state)"
                );
            }
            let [allocs, held_allocs] = allocs_by_pass;

            let wall_ms_by_threads: Vec<(usize, f64)> = sweep_threads(threads, reps, || {
                for d in streams.iter().flatten() {
                    ds.apply(d).expect("edit churn deltas are valid");
                    std::hint::black_box(ds.flush().expect("solvable").num_applicants());
                }
            })
            .into_iter()
            .map(|(t, total_ms)| (t, total_ms / pass_deltas as f64))
            .collect();

            let amortized_ms = wall_ms_by_threads[0].1;
            if amortized_ms > INCREMENTAL_GATE_FRACTION * full_warm_ms {
                eprintln!(
                    "INCREMENTAL GATE FAILED: amortized per-delta cost {amortized_ms:.3} ms \
                     exceeds {INCREMENTAL_GATE_FRACTION} x full warm solve ({full_warm_ms:.3} ms) \
                     at n = {n} — the delta path is re-solving from scratch"
                );
                std::process::exit(1);
            }
            eprintln!(
                "incremental gate passed at n = {n} ({} ms/delta vs \
                 {full_warm_ms:.3} ms full warm solve)",
                fmt_ms(amortized_ms)
            );

            let s = ds.stats();
            results.push(JsonResult {
                workload: "served/incremental/edit_churn",
                n,
                wall_ms_by_threads,
                pram: None,
                extra: vec![
                    ("deltas", pass_deltas as u64),
                    ("full_warm_solve_us", (full_warm_ms * 1e3) as u64),
                    ("allocs_per_pass", allocs),
                    ("held_allocs_per_pass", held_allocs),
                    ("shard_solves", s.shard_solves),
                    ("full_solves", s.full_solves),
                    ("fallback_full_solves", s.fallback_full_solves),
                    ("spliced_applicants", s.spliced_applicants),
                ],
            });
        }
    }

    if selected("served/incremental/mixed_churn") {
        let mixed_sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
        for &n in mixed_sizes {
            let inst = workloads::solvable_uniform(n);
            let stream = workloads::mixed_churn_stream(&inst, deltas);

            // The stream mutates the instance (adds/removes), so it cannot
            // be replayed on the same solver: each width reinstalls a fresh
            // solver outside the timed region and times one pass.
            let mut infeasible_flushes = 0u64;
            let mut last_stats = None;
            let wall_ms_by_threads: Vec<(usize, f64)> = threads
                .iter()
                .map(|&t| {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(t)
                        .build()
                        .expect("shim pools always build");
                    let elapsed = pool.install(|| {
                        let mut ds = DeltaSolver::install(&inst, DeltaMode::Popular)
                            .expect("solvable workload");
                        infeasible_flushes = 0;
                        let start = std::time::Instant::now();
                        for d in &stream {
                            ds.apply(d).expect("mirror-validated deltas are valid");
                            match ds.flush() {
                                Ok(m) => {
                                    std::hint::black_box(m.num_applicants());
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
            results.push(JsonResult {
                workload: "served/incremental/mixed_churn",
                n,
                wall_ms_by_threads,
                pram: None,
                extra: vec![
                    ("deltas", deltas as u64),
                    ("infeasible_flushes", infeasible_flushes),
                    ("shard_solves", s.shard_solves),
                    ("full_solves", s.full_solves),
                    ("fallback_full_solves", s.fallback_full_solves),
                    ("spliced_applicants", s.spliced_applicants),
                ],
            });
        }
    }

    if selected("served/incremental/server_churn") {
        let server_sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
        for &n in server_sizes {
            let inst = workloads::solvable_uniform(n);
            // Same stream/reversed-twin alternation as `edit_churn`: each
            // measured round submits both, so replays stay genuine changes.
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

            // One burst: submit the whole stream, then wait for every
            // ticket.  The single worker drains the queue in coalesced
            // rounds, so this measures the full tick path — queue, drain,
            // apply, one flush per round, response fan-out.
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
                        std::hint::black_box(resp.matching.num_applicants());
                    }
                }
            };
            burst();
            let (_, t) = time_best(reps, burst);

            let s = server.stats();
            let d = server.delta_stats(1).expect("installed above");
            results.push(JsonResult {
                workload: "served/incremental/server_churn",
                n,
                wall_ms_by_threads: vec![(1, t.as_secs_f64() * 1e3 / pass_deltas as f64)],
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
            });
            server.shutdown();
        }
    }
}

/// The server-routed workload families (PR 7): the same uniform request
/// stream as `served/warm_solve`, but travelling the full fault-tolerant
/// path — bounded queue, deadline check, health gate, `catch_unwind` —
/// so the trajectory records what robustness costs per request.
///
/// * `served/server_warm/uniform` — a burst of requests through a
///   one-worker [`Server`] with injection explicitly inert.  Runs the
///   **zero-rejected gate**: at nominal load (burst ≤ queue capacity)
///   nothing may be rejected or shed, or the harness exits non-zero.
/// * `served/degraded/uniform` — the same burst against a force-degraded
///   instance id: every answer is the serial-dictatorship fallback, timing
///   the degraded path end to end.
/// * `faults/chaos/uniform` — the burst under `panic:0.05,delay:1ms`
///   injection (or `PM_FAULTS` when set).  Only runs when the `faults`
///   feature is compiled in (`--features faults`); skipped with a notice
///   otherwise, so the committed trajectory stays injection-free.
///
/// The server owns its worker threads (the executor sweep does not apply),
/// so all three are measured at width 1 and report the server counters
/// (served / rejected / shed / panics_recovered / degraded_responses) as
/// extra fields.
fn server_trajectory(
    quick: bool,
    reps: usize,
    selected: &dyn Fn(&str) -> bool,
    results: &mut Vec<JsonResult>,
) {
    use std::sync::Arc;

    let server_sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let requests: usize = if quick { 8 } else { 16 };

    // One burst of `requests` submits, then wait for every ticket; returns
    // the degraded-answer count observed by the client side.
    let burst = |server: &Server, inst: &Arc<PrefInstance>, id: u64| -> u64 {
        let tickets: Vec<_> = (0..requests)
            .map(|_| {
                server
                    .submit(Request::new(Arc::clone(inst), id))
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
    let stats_extra = |server: &Server| -> Vec<(&'static str, u64)> {
        let s = server.stats();
        vec![
            ("requests", requests as u64),
            ("served", s.served),
            ("rejected", s.rejected),
            ("shed", s.shed),
            ("panics_recovered", s.panics_recovered),
            ("degraded_responses", s.degraded_responses),
        ]
    };

    if selected("served/server_warm/uniform") {
        for &n in server_sizes {
            let inst = Arc::new(workloads::solvable_uniform(n));
            let server = Server::start(ServerConfig {
                workers: 1,
                queue_capacity: requests,
                faults: Spec::none(),
                ..ServerConfig::default()
            });

            // Warm the worker's solver so the measured bursts are the
            // steady serving state, like `served/warm_solve`.
            burst(&server, &inst, 1);
            let (_, t) = time_best(reps, || burst(&server, &inst, 1));

            // Zero-rejected gate: a burst that fits the queue must never be
            // rejected or shed at nominal, injection-free load.
            let s = server.stats();
            if s.rejected != 0 || s.shed != 0 {
                eprintln!(
                    "ZERO-REJECTED GATE FAILED: served/server_warm rejected {} and shed {} \
                     requests at nominal load, n = {n} (expected 0 / 0)",
                    s.rejected, s.shed
                );
                std::process::exit(1);
            }
            eprintln!(
                "zero-rejected gate passed at n = {n} ({} requests served)",
                s.served
            );

            results.push(JsonResult {
                workload: "served/server_warm/uniform",
                n,
                wall_ms_by_threads: vec![(1, t.as_secs_f64() * 1e3 / requests as f64)],
                pram: None,
                extra: stats_extra(&server),
            });
            server.shutdown();
        }
    }

    if selected("served/degraded/uniform") {
        for &n in server_sizes {
            let inst = Arc::new(workloads::solvable_uniform(n));
            let server = Server::start(ServerConfig {
                workers: 1,
                queue_capacity: requests,
                backoff_max: std::time::Duration::from_secs(3600),
                faults: Spec::none(),
                ..ServerConfig::default()
            });
            server.force_degrade(1);

            let degraded = burst(&server, &inst, 1);
            assert_eq!(
                degraded, requests as u64,
                "a force-degraded id must answer every request degraded"
            );
            let (_, t) = time_best(reps, || burst(&server, &inst, 1));

            results.push(JsonResult {
                workload: "served/degraded/uniform",
                n,
                wall_ms_by_threads: vec![(1, t.as_secs_f64() * 1e3 / requests as f64)],
                pram: None,
                extra: stats_extra(&server),
            });
            server.shutdown();
        }
    }

    if selected("faults/chaos/uniform") {
        if !Spec::compiled_in() {
            eprintln!(
                "faults/chaos/uniform skipped: fail points compiled out \
                 (rebuild with `--features faults` to measure under injection)"
            );
        } else {
            for &n in server_sizes {
                let inst = Arc::new(workloads::solvable_uniform(n));
                let spec = match std::env::var(pm_serve::faults::ENV_VAR) {
                    Ok(s) if !s.trim().is_empty() => Spec::from_env(),
                    _ => Spec::parse("panic:0.05,delay:1ms").expect("built-in spec parses"),
                };
                let server = Server::start(ServerConfig {
                    workers: 2,
                    queue_capacity: requests,
                    faults: spec,
                    ..ServerConfig::default()
                });

                burst(&server, &inst, 1);
                let (_, t) = time_best(reps, || burst(&server, &inst, 1));

                results.push(JsonResult {
                    workload: "faults/chaos/uniform",
                    n,
                    wall_ms_by_threads: vec![(1, t.as_secs_f64() * 1e3 / requests as f64)],
                    pram: None,
                    extra: stats_extra(&server),
                });
                server.shutdown();
            }
        }
    }
}

/// The `cold/` workload family: the three ways a `PrefInstance` can come
/// into existence, measured end to end on the same uniform workload —
///
/// * `cold/nested_build/uniform` — the nested `Vec<Vec<usize>>` path
///   (`PrefInstance::new_strict`), including the per-applicant vector
///   materialisation the nested API forces on every producer (modelled by
///   cloning the lists inside the timed closure);
/// * `cold/text_parse/uniform` — the streaming two-pass text parser;
/// * `cold/snapshot_load/uniform` — the binary CSR snapshot loader.
///
/// Ingest is sequential, so these are measured at width 1 only (a thread
/// sweep would record noise).  The snapshot load also runs an allocation
/// gate under the counting allocator: one load must stay within
/// [`COLD_ALLOC_BOUND`] allocations — essentially one per flat buffer plus
/// the file read — or the harness exits non-zero.  A regression here means
/// the loader started restructuring instead of filling flat buffers.
const COLD_ALLOC_BOUND: u64 = 16;

fn cold_trajectory(
    quick: bool,
    reps: usize,
    selected: &dyn Fn(&str) -> bool,
    results: &mut Vec<JsonResult>,
) {
    let want_nested = selected("cold/nested_build/uniform");
    let want_text = selected("cold/text_parse/uniform");
    let want_snapshot = selected("cold/snapshot_load/uniform");
    if !(want_nested || want_text || want_snapshot) {
        return;
    }
    let cold_sizes: &[usize] = if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };

    for &n in cold_sizes {
        let inst = workloads::solvable_uniform(n);

        if want_nested {
            let lists: Vec<Vec<usize>> = (0..inst.num_applicants())
                .map(|a| inst.strict_list(a).expect("uniform workload is strict"))
                .collect();
            let num_posts = inst.num_posts();
            let (built, t) = time_best(reps, || {
                PrefInstance::new_strict(num_posts, lists.clone()).expect("valid workload")
            });
            assert_eq!(built, inst, "nested build must reproduce the instance");
            results.push(JsonResult {
                workload: "cold/nested_build/uniform",
                n,
                wall_ms_by_threads: vec![(1, t.as_secs_f64() * 1e3)],
                pram: None,
                extra: vec![("bytes_per_entity", instance_bytes_per_entity(&inst))],
            });
        }

        if want_text {
            let text = pm_instances::io::text(&inst).to_string();
            let (parsed, t) = time_best(reps, || {
                pm_instances::io::parse(&text).expect("rendered text parses")
            });
            assert_eq!(parsed, inst, "text parse must reproduce the instance");
            results.push(JsonResult {
                workload: "cold/text_parse/uniform",
                n,
                wall_ms_by_threads: vec![(1, t.as_secs_f64() * 1e3)],
                pram: None,
                extra: vec![("bytes_per_entity", instance_bytes_per_entity(&inst))],
            });
        }

        if want_snapshot {
            let path = std::env::temp_dir().join(format!("pm_bench_cold_{n}.pmsnap"));
            pm_instances::snapshot::write_file(&inst, &path).expect("snapshot write");

            // Allocation gate: one load, counted exactly.
            let before = allocation_count();
            let loaded = pm_instances::snapshot::read_file(&path).expect("snapshot read");
            let allocs = allocation_count() - before;
            assert_eq!(loaded, inst, "snapshot load must reproduce the instance");
            drop(loaded);
            if allocs > COLD_ALLOC_BOUND {
                eprintln!(
                    "COLD-ALLOC GATE FAILED: snapshot_load performed {allocs} allocations \
                     at n = {n} (bound {COLD_ALLOC_BOUND}) — the loader is restructuring \
                     instead of filling flat buffers"
                );
                std::process::exit(1);
            }
            eprintln!(
                "cold-alloc gate passed at n = {n} \
                 ({allocs} allocations per snapshot load, bound {COLD_ALLOC_BOUND})"
            );

            let (loaded, t) = time_best(reps, || {
                pm_instances::snapshot::read_file(&path).expect("snapshot read")
            });
            std::fs::remove_file(&path).ok();
            results.push(JsonResult {
                workload: "cold/snapshot_load/uniform",
                n,
                wall_ms_by_threads: vec![(1, t.as_secs_f64() * 1e3)],
                pram: None,
                extra: vec![
                    ("allocs_per_load", allocs),
                    ("bytes_per_entity", instance_bytes_per_entity(&loaded)),
                ],
            });
        }
    }
}

fn render_json(
    quick: bool,
    threads: &[usize],
    results: &[JsonResult],
    baseline: Option<&str>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 6,\n");
    out.push_str("  \"harness\": \"pm_bench --json\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"rayon_threads\": {},\n",
        rayon::current_num_threads()
    ));
    out.push_str(&format!(
        "  \"thread_sweep\": [{}],\n",
        threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut pram = match r.pram {
            Some((depth, work)) => format!(", \"depth\": {depth}, \"work\": {work}"),
            None => String::new(),
        };
        for (key, value) in &r.extra {
            pram.push_str(&format!(", \"{key}\": {value}"));
        }
        // `wall_ms` stays the 1-thread number so the trajectory remains
        // comparable with the sequential-shim history of this file.
        let by_threads = r
            .wall_ms_by_threads
            .iter()
            .map(|&(t, ms)| format!("\"{t}\": {}", fmt_ms(ms)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"wall_ms\": {}, \
             \"wall_ms_by_threads\": {{{}}}, \"speedup_vs_1\": {:.2}{}}}{}\n",
            r.workload,
            r.n,
            fmt_ms(r.wall_ms_1()),
            by_threads,
            r.speedup_vs_1(),
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
    use super::{fmt_ms, parse_args, Cli};

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
}
