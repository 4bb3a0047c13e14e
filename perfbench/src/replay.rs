//! The traced run's direct replay: the window's operations once more,
//! through the layer functions with a caller-held `Workspace`, each call
//! inside a span.  Its output must be bit-identical to `PopularSolver`'s,
//! or it measured a different program.

use std::hint::black_box;
use std::time::Instant;

use pm_popular::algorithm1::promote_into;
use pm_popular::algorithm2::applicant_complete_matching_into;
use pm_popular::delta::{DeltaMode, DeltaSolver, DeltaStats};
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::max_cardinality::improve_to_maximum_cardinality_ws;
use pm_popular::reduced::build_into;
use pm_popular::solver::PopularSolver;
use pm_pram::{DepthTracker, Idx, PramStats, Workspace};
use pm_serve::SolveMode;

use crate::measure::Run;
use crate::stats::median;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{nth_edit, Workload};

/// The reads the replay repeats: the start of the window's read sequence,
/// which has the window's mix of instances and modes.
fn replay_reads(w: Workload) -> u64 {
    match w {
        Workload::BulkSolve => 8,
        Workload::LiveDeltas => 8,
    }
}

/// The pipeline's buffers, held by the caller.
#[derive(Default)]
struct Buffers {
    f: Vec<Idx>,
    s: Vec<Idx>,
    is_f_post: Vec<bool>,
    out: Option<Assignment>,
    ws: Workspace,
}

/// What one replayed solve did.
struct Replayed {
    pram: PramStats,
    peel_rounds: u32,
}

/// One solve through the layer functions, spans under a `replay.solve`
/// root.  `extra_maxcard` times Algorithm 3 on top of a Popular answer
/// (after the answer was compared) under its own span name, so that
/// workloads without MaxCardinality traffic still report its cost at their
/// size.
fn replay_solve(
    b: &mut Buffers,
    inst: &PrefInstance,
    mode: SolveMode,
    tr: &mut Tracer,
    op: u64,
) -> Result<Replayed, String> {
    let tracker = DepthTracker::new();
    let out = b
        .out
        .get_or_insert_with(|| Assignment::from_idx_vec(Vec::new()));
    b.ws.begin_epoch();
    let root = tr.open("replay.solve", NO_PARENT, op);
    tr.time("reduce", root, op, || {
        build_into(inst, &mut b.f, &mut b.s, &mut b.is_f_post, &tracker)
    })
    .map_err(|e| e.to_string())?;
    out.reset_unassigned(inst.num_applicants());
    let (feasible, peel_rounds) = tr.time("alg2", root, op, || {
        applicant_complete_matching_into(
            inst.total_posts(),
            &b.f,
            &b.s,
            out.as_mut_slice(),
            &mut b.ws,
            &tracker,
        )
    });
    if !feasible {
        b.ws.end_epoch();
        return Err("replay found no popular matching on a solvable input".into());
    }
    tr.time("promote", root, op, || {
        promote_into(
            &b.f,
            &b.s,
            &b.is_f_post,
            out.as_mut_slice(),
            &mut b.ws,
            &tracker,
        )
    });
    if mode == SolveMode::MaxCardinality {
        tr.time("maxcard", root, op, || {
            improve_to_maximum_cardinality_ws(
                &b.f,
                &b.s,
                inst.num_posts(),
                out.as_mut_slice(),
                &mut b.ws,
                &tracker,
            )
        });
    }
    tr.close(root);
    b.ws.end_epoch();
    Ok(Replayed {
        pram: tracker.stats(),
        peel_rounds,
    })
}

fn extra_maxcard(b: &mut Buffers, inst: &PrefInstance, tr: &mut Tracer, op: u64) {
    let tracker = DepthTracker::new();
    let out = b.out.as_mut().expect("a replayed answer exists");
    b.ws.begin_epoch();
    tr.time("maxcard.extra", NO_PARENT, op, || {
        improve_to_maximum_cardinality_ws(
            &b.f,
            &b.s,
            inst.num_posts(),
            out.as_mut_slice(),
            &mut b.ws,
            &tracker,
        )
    });
    b.ws.end_epoch();
}

/// Times one `PopularSolver` call as a span; returns whether its answer
/// equals `expect` (compared outside the span).
fn direct(
    solver: &mut PopularSolver,
    inst: &PrefInstance,
    mode: SolveMode,
    tr: &mut Tracer,
    name: &'static str,
    op: u64,
    expect: &[Idx],
) -> Result<bool, String> {
    let start = Instant::now();
    let m = match mode {
        SolveMode::Popular => solver.solve(inst),
        SolveMode::MaxCardinality => solver.solve_max_cardinality(inst),
    }
    .map_err(|e| e.to_string())?;
    tr.record(name, start, Instant::now(), NO_PARENT, op);
    Ok(m.as_slice() == expect)
}

/// Per-layer numbers of the solve path.
pub struct SolveLayers {
    pub reduce_ms: f64,
    pub alg2_ms: f64,
    pub promote_ms: f64,
    pub maxcard_ms: f64,
    pub peel_rounds: f64,
    pub solve_ms: f64,
    pub solve_median_ms: f64,
    pub coverage: f64,
    pub solve_ms_w1: f64,
    pub depth: f64,
    pub work: f64,
    pub clone_ms: f64,
    /// Replayed answers that differ from `PopularSolver`'s, in matching or
    /// in depth/work accounting.
    pub mismatches: usize,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Replays the start of the read sequence: layer functions, then
/// `PopularSolver` directly, then `PopularSolver` at executor width 1.
/// One untimed pass of the first read warms every path first.
pub fn solves(run: &Run, tr: &mut Tracer) -> Result<SolveLayers, String> {
    let w = run.plan.w;
    let reads = &run.plan.ld.reads;
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("shim pools always build");
    let mut b = Buffers::default();
    let mut solver = PopularSolver::new(0, 0);
    let mut scratch = Tracer::new(Instant::now());
    {
        let (t, mode) = (w.read_target(0), w.read_mode(0));
        replay_solve(&mut b, &reads[t], mode, &mut scratch, 0)?;
        let got = b.out.as_ref().expect("replayed").as_slice();
        direct(&mut solver, &reads[t], mode, &mut scratch, "warm", 0, got)?;
        pool1.install(|| direct(&mut solver, &reads[t], mode, &mut scratch, "warm", 0, got))?;
    }
    let (mut mismatches, mut peel, mut depth, mut work) = (0, Vec::new(), Vec::new(), Vec::new());
    for i in 0..replay_reads(w) {
        let (t, mode) = (w.read_target(i), w.read_mode(i));
        let inst = &reads[t];
        let r = replay_solve(&mut b, inst, mode, tr, i)?;
        let got = b.out.as_ref().expect("replayed").as_slice();
        let same = direct(&mut solver, inst, mode, tr, "solve.direct", i, got)?;
        mismatches += usize::from(!same || r.pram != solver.stats());
        let same_w1 = pool1.install(|| direct(&mut solver, inst, mode, tr, "solve.w1", i, got))?;
        mismatches += usize::from(!same_w1);
        if mode == SolveMode::Popular && w != Workload::BulkSolve {
            extra_maxcard(&mut b, inst, tr, i);
        }
        peel.push(r.peel_rounds as f64);
        depth.push(r.pram.depth as f64);
        work.push(r.pram.work as f64);
    }
    let n = replay_reads(w) as f64;
    let total = |name: &str| tr.durations(name).iter().sum::<f64>();
    let phases = total("reduce") + total("alg2") + total("promote") + total("maxcard");
    let maxcard = if w == Workload::BulkSolve {
        mean(&tr.durations("maxcard"))
    } else {
        mean(&tr.durations("maxcard.extra"))
    };
    Ok(SolveLayers {
        reduce_ms: total("reduce") / n,
        alg2_ms: total("alg2") / n,
        promote_ms: total("promote") / n,
        maxcard_ms: maxcard,
        peel_rounds: mean(&peel),
        solve_ms: total("solve.direct") / n,
        solve_median_ms: median(&tr.durations("solve.direct")).unwrap_or(f64::NAN),
        coverage: phases / total("solve.direct"),
        solve_ms_w1: total("solve.w1") / n,
        depth: mean(&depth),
        work: mean(&work),
        clone_ms: clone_ms(b.out.as_ref().expect("replayed")),
        mismatches,
    })
}

/// Per-layer numbers of the delta path.
pub struct DeltaLayers {
    pub apply_us: f64,
    pub flush_us: f64,
    pub stats: DeltaStats,
    /// Clone time of one answer of the largest edited instance.
    pub clone_ms: f64,
}

/// Replays every edit the server applied, on private replicas, in the
/// server's coalesced rounds: apply each edit, then flush once per round.
/// Instances with a failed edit are skipped (their stream has a gap).
pub fn deltas(run: &Run, tr: &mut Tracer) -> Result<DeltaLayers, String> {
    let book = &run.book;
    let mut stats = DeltaStats::default();
    let mut clone = f64::NAN;
    for (j, inst) in run.plan.ld.writes.iter().enumerate() {
        if book.write_failed[j] {
            continue;
        }
        let mut replica =
            DeltaSolver::install(inst, DeltaMode::Popular).map_err(|e| e.to_string())?;
        let mut k = 0;
        for &round in &book.batches[j] {
            let root = tr.open("delta.round", NO_PARENT, j as u64);
            for _ in 0..round {
                let d = nth_edit(&run.plan.streams[j], k);
                tr.time("delta.apply", root, k as u64, || replica.apply(d))
                    .map_err(|e| format!("replica edit {k}: {e}"))?;
                k += 1;
            }
            tr.time("delta.flush", root, j as u64, || {
                replica.flush().map(|m| m.num_applicants())
            })
            .map_err(|e| e.to_string())?;
            tr.close(root);
        }
        let s = replica.stats();
        stats.deltas_applied += s.deltas_applied;
        stats.flushes += s.flushes;
        stats.shard_solves += s.shard_solves;
        stats.full_solves += s.full_solves;
        stats.fallback_full_solves += s.fallback_full_solves;
        stats.spliced_applicants += s.spliced_applicants;
        if j == 0 {
            clone = clone_ms(replica.flush().map_err(|e| e.to_string())?);
        }
    }
    let us = |name: &str| median(&tr.durations(name)).map_or(f64::NAN, |ms| ms * 1e3);
    Ok(DeltaLayers {
        apply_us: us("delta.apply"),
        flush_us: us("delta.flush"),
        stats,
        clone_ms: clone,
    })
}

/// Median time of one `Assignment::clone` of `m`, in ms.
fn clone_ms(m: &Assignment) -> f64 {
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            black_box(m.clone());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(f64::NAN)
}

/// Median time of an empty `rayon::join` at the configured width, in µs.
pub fn fork_join_us() -> f64 {
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for i in 0..1000u32 {
                black_box(rayon::join(|| black_box(i), || black_box(i + 1)));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&batches).unwrap_or(f64::NAN)
}
