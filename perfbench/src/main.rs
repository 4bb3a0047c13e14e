//! `perfbench`: the repository benchmark.  It drives `pm_serve`,
//! `pm_popular`, `pm_instances` and `pm_pram` through their public APIs
//! and prints every metric by name, with its unit and sample count.
//!
//! ```text
//! perfbench --workload <bulk_solve|live_deltas> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <result-a> <result-b>
//! ```
//!
//! A run generates its inputs from the seed into `.perfbench_data/`,
//! solves and verifies the reference answers, then starts a second process
//! (`perfbench measure ...`) that sets up the server, runs the timed window
//! and reports.  Generation therefore counts in neither `setup_s` nor
//! `peak_rss_mb`.  The parent checks the final state of every edited
//! instance against a replayed replica, prints the report, writes it to
//! `.perfbench_out/`, and prints the result as one JSON object on the last
//! line.  It exits non-zero on any wrong answer.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! ones (see `metrics.rs`).

mod host;
mod measure;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use host::Fingerprint;
use measure::{setup, Run};
use metrics::{unit_of, END_TO_END, PER_LAYER};
use stats::{median, percentile, summarize, WindowSummary};
use trace::Tracer;
use workload::{hash_matching, load_refs, Traffic, Workload};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The system allocator plus a counter of allocations.
struct CountingAllocator;

// SAFETY: every method delegates to `System` unchanged; the added relaxed
// counter increment allocates nothing and does not touch the memory.
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
static GLOBAL: CountingAllocator = CountingAllocator;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Reads an untraced window must hold, so p90 has ten samples beyond it.
const MIN_READS: usize = 110;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        if kv.insert(key.to_string(), v.clone()).is_some() {
            return Err(format!("{k} given twice"));
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let w = get("workload")?;
    let args = Args {
        workload: Workload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: get("seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        dir: kv.get("dir").map(PathBuf::from),
    };
    let known = ["workload", "seed", "seconds", "trace", "dir"];
    match kv.keys().find(|k| !known.contains(&k.as_str())) {
        Some(k) => Err(format!("unknown option --{k}")),
        None => Ok(args),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("measure") => measure_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => run_main(&args),
    };
    std::process::exit(code);
}

const OUT_DIR: &str = ".perfbench_out";

// ------------------------------------------------------------ the parent

fn run_main(args: &[String]) -> i32 {
    let a = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|"));
            return 2;
        }
    };
    let w = a.workload;
    let root = std::env::current_dir().expect("the working directory is readable");
    let data = root.join(".perfbench_data").join(format!(
        "{}-{}-{}",
        w.name(),
        a.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&data)
        .map_err(|e| e.to_string())
        .and_then(|()| run_parent(&a, &root, &data));
    let _ = std::fs::remove_dir_all(&data);
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn run_parent(a: &Args, root: &Path, data: &Path) -> Result<i32, String> {
    let w = a.workload;
    let t = Instant::now();
    workload::prepare(w, a.seed, data)?;
    eprintln!(
        "perfbench: inputs generated and references verified in {:.1} s",
        t.elapsed().as_secs_f64()
    );

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("measure")
        .args(["--workload", w.name(), "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if a.trace { "1" } else { "0" },
        ])
        .arg("--dir")
        .arg(data)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the measured process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the measured process failed ({})", out.status));
    }
    let report = String::from_utf8_lossy(&out.stdout);

    let mut metrics: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut text = String::new();
    let mut problems = Vec::new();
    let mut checked = 0;
    for line in report.lines() {
        let f: Vec<&str> = line.splitn(4, ' ').collect();
        match f.as_slice() {
            ["metric", name, value, samples] => {
                let v: f64 = value.parse().map_err(|_| format!("bad line {line:?}"))?;
                metrics.insert(name.to_string(), (v, samples.parse().unwrap_or(0)));
            }
            ["count", name, value] => {
                counts.insert(
                    name.to_string(),
                    value.parse().map_err(|_| format!("bad line {line:?}"))?,
                );
            }
            ["final", j, applied, hash] => {
                let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("bad line {line:?}"));
                let (j, applied, hash) =
                    (parse(j)? as usize, parse(applied)? as usize, parse(hash)?);
                match workload::check_final(w, a.seed, data, j, applied, hash) {
                    Ok(()) => checked += 1,
                    Err(e) => problems.push(e),
                }
            }
            _ => writeln!(text, "{line}").unwrap(),
        }
    }
    writeln!(
        text,
        "final states equal to a fresh solve of the replayed replica: {checked} edited instances"
    )
    .unwrap();
    let wrong = counts.get("wrong").copied().unwrap_or(0) as usize + problems.len();
    let attempted = counts.get("attempted").copied().unwrap_or(0);
    let failed = counts.get("failed").copied().unwrap_or(0) + problems.len() as u64;
    let wanted = if a.trace { PER_LAYER } else { END_TO_END };
    let missing: Vec<&str> = wanted
        .iter()
        .map(|m| m.0)
        .filter(|n| metrics.get(*n).is_none_or(|(v, _)| !v.is_finite()))
        .collect();

    // The human-readable report.
    let fp = Fingerprint::current();
    let commit = host::commit(root);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for (k, v) in fp.lines() {
        println!("{k} {v}");
    }
    println!("commit {commit}");
    print!("{text}");
    for (name, unit, _) in wanted {
        match metrics.get(*name) {
            Some((v, n)) if v.is_finite() => println!("{name} = {v} {unit} (samples: {n})"),
            _ => println!("{name} = missing {unit}"),
        }
    }
    println!(
        "failed_frac = {} (failed {failed} of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    for p in &problems {
        println!("WRONG: {p}");
    }
    for m in &missing {
        println!("MISSING: {m} (too few samples or not measured)");
    }

    // The result file `compare` reads.
    let mut file = String::new();
    for (k, v) in fp.lines() {
        writeln!(file, "{k} {v}").unwrap();
    }
    writeln!(
        file,
        "commit {commit}\nworkload {}\nseed {}\ntrace {}",
        w.name(),
        a.seed,
        u8::from(a.trace)
    )
    .unwrap();
    for (name, (v, n)) in &metrics {
        writeln!(
            file,
            "metric {name} {v} {} {n}",
            unit_of(name).unwrap_or("?")
        )
        .unwrap();
    }
    let dir = root.join(OUT_DIR);
    let path = dir.join(format!(
        "{}-seed{}-trace{}.txt",
        w.name(),
        a.seed,
        u8::from(a.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, file)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }

    let correct = wrong == 0;
    let mut json = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    let mut first = true;
    for (name, unit, _) in wanted {
        if let Some((v, _)) = metrics.get(*name).filter(|(v, _)| v.is_finite()) {
            let sep = if first { "" } else { ", " };
            first = false;
            write!(json, r#"{sep}"{name}": {{"value": {v}, "unit": "{unit}"}}"#).unwrap();
        }
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if correct && missing.is_empty() { 0 } else { 1 })
}

// ------------------------------------------------------------ the measured process

/// Prints `metric` lines for the parent; a missing value is printed as
/// NaN and reported missing there.
struct Emit(String);

impl Emit {
    fn metric(&mut self, name: &str, value: Option<f64>, samples: usize) {
        debug_assert!(
            unit_of(name).is_some() && stats::valid_metric_name(name),
            "{name}"
        );
        writeln!(
            self.0,
            "metric {name} {} {samples}",
            value.unwrap_or(f64::NAN)
        )
        .unwrap();
    }

    fn note(&mut self, text: impl std::fmt::Display) {
        writeln!(self.0, "{text}").unwrap();
    }
}

fn measure_main(args: &[String]) -> i32 {
    match parse_args(args).and_then(|a| measure(&a)) {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("perfbench measure: {e}");
            1
        }
    }
}

fn measure(a: &Args) -> Result<String, String> {
    let origin = Instant::now();
    let w = a.workload;
    let p = w.params();
    let dir = a.dir.as_deref().ok_or("--dir is required")?;
    let refs = load_refs(dir)?;
    let mut tr = Tracer::new(origin);

    // Set up SETUPS times; each set-up first shuts the previous one down.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut loaded = None;
    for _ in 0..SETUPS {
        drop(loaded.take());
        let t = Instant::now();
        loaded = Some(setup(w, dir, &refs, &mut tr)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let ld = loaded.expect("at least one set-up ran");
    let mut e = Emit(String::new());
    e.note(format_args!(
        "note first set-up, from process start: {:.3} s",
        setups[0] + (tr.spans()[0].start_ns as f64 / 1e9)
    ));

    let mut run = Run::new(w, a.seed, &ld, &refs);
    let open = matches!(p.traffic, Traffic::Open { .. });
    let report_lateness = |e: &mut Emit, s: &WindowSummary, which: &str| {
        if let Some((p50, max)) = s.lateness {
            e.note(format_args!(
                "note generator lateness ({which}): p50 {p50:.4} ms, max {max:.4} ms"
            ));
        }
    };

    let (attempted, failed);
    if !a.trace {
        let win = run.window(a.seconds, MIN_READS, None);
        let rss = host::peak_rss_mb();
        let s = summarize(&win.log, p.limit_ms, open);
        e.metric("read_p50_ms", s.read.p50, s.read.samples);
        e.metric("read_p90_ms", s.read.p90, s.read.samples);
        e.metric(
            "reads_per_s",
            Some(s.reads_done as f64 / win.elapsed_s),
            s.reads_done,
        );
        e.metric("write_p50_ms", s.write.p50, s.write.samples);
        e.metric("write_p90_ms", s.write.p90, s.write.samples);
        e.metric("setup_s", median(&setups), SETUPS);
        e.metric("peak_rss_mb", Some(rss), 1);
        report_lateness(&mut e, &s, "window");
        e.note(format_args!(
            "note window {:.3} s, latency limit {} ms",
            win.elapsed_s, p.limit_ms
        ));
        (attempted, failed) = (s.attempted, s.failed);
    } else {
        // A third of the window untraced, the rest traced: the difference
        // of the two read medians is the tracing overhead.
        let plain = run.window(a.seconds / 3.0, MIN_READS / 4, None);
        let traced = run.window(a.seconds * 2.0 / 3.0, MIN_READS / 2, Some(&mut tr));
        let s1 = summarize(&plain.log, p.limit_ms, open);
        let s2 = summarize(&traced.log, p.limit_ms, open);
        report_lateness(&mut e, &s1, "untraced third");
        report_lateness(&mut e, &s2, "traced two thirds");
        let show = |v: Option<f64>| v.map_or("missing".into(), |v| format!("{v:.4} ms"));
        e.note(format_args!(
            "note untraced third: read p50 {}, write p50 {}; traced: read p50 {}, write p50 {}",
            show(s1.read.p50),
            show(s1.write.p50),
            show(s2.read.p50),
            show(s2.write.p50)
        ));
        (attempted, failed) = (s1.attempted + s2.attempted, s1.failed + s2.failed);

        let per_setup = |name: &str| {
            let spans = tr.spans();
            let sums: Vec<f64> = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == "setup")
                .map(|(id, _)| {
                    spans
                        .iter()
                        .filter(|c| c.parent == id as u32 && c.name == name)
                        .map(trace::Span::ms)
                        .sum()
                })
                .collect();
            median(&sums)
        };
        e.metric("snapshot.load_ms", per_setup("snapshot.load"), SETUPS);
        e.metric("delta.install_ms", per_setup("delta.install"), SETUPS);

        let sl = replay::solves(&run, &mut tr)?;
        let dl = replay::deltas(&run, &mut tr)?;
        let reps = tr.durations("solve.direct").len();
        e.metric("reduce.ms", Some(sl.reduce_ms), reps);
        e.metric("alg2.ms", Some(sl.alg2_ms), reps);
        e.metric("alg2.peel_rounds", Some(sl.peel_rounds), reps);
        e.metric("promote.ms", Some(sl.promote_ms), reps);
        e.metric("maxcard.ms", Some(sl.maxcard_ms), reps);
        e.metric("solve.ms", Some(sl.solve_ms), reps);
        e.metric("solve.coverage", Some(sl.coverage), reps);
        e.metric("solve.ms_w1", Some(sl.solve_ms_w1), reps);
        e.metric("pram.depth", Some(sl.depth), reps);
        e.metric("pram.work", Some(sl.work), reps);
        e.metric("executor.fork_join_us", Some(replay::fork_join_us()), 7000);
        let clone_ms = if w == Workload::LiveDeltas {
            dl.clone_ms
        } else {
            sl.clone_ms
        };
        e.metric("response.clone_ms", Some(clone_ms), 21);
        let answered = traced.log.iter().filter(|o| o.ok).count();
        e.metric(
            "response.bytes_copied",
            Some(traced.bytes_copied / answered.max(1) as f64),
            answered,
        );
        let applies = tr.durations("delta.apply").len();
        e.metric("delta.apply_us", Some(dl.apply_us), applies);
        e.metric(
            "delta.flush_us",
            Some(dl.flush_us),
            tr.durations("delta.flush").len(),
        );
        e.metric(
            "delta.shard_solves",
            Some(dl.stats.shard_solves as f64),
            applies,
        );
        e.metric(
            "delta.full_solves",
            Some(dl.stats.full_solves as f64),
            applies,
        );
        e.metric(
            "delta.fallback_full_solves",
            Some(dl.stats.fallback_full_solves as f64),
            applies,
        );
        e.metric(
            "delta.spliced_applicants",
            Some(dl.stats.spliced_applicants as f64),
            applies,
        );
        let submits: Vec<f64> = traced.submit_ns.iter().map(|&n| n as f64 / 1e3).collect();
        e.metric("server.submit_us", median(&submits), submits.len());
        let mut queue = traced.queue_lens.clone();
        queue.sort_by(f64::total_cmp);
        e.metric("server.queue_len_p90", percentile(&queue, 0.9), queue.len());
        let (s0, s) = traced.stats;
        let ticks = s.delta_ticks - s0.delta_ticks;
        let coalesced = s.deltas_coalesced - s0.deltas_coalesced;
        e.metric("server.delta_ticks", Some(ticks as f64), 1);
        e.metric("server.deltas_coalesced", Some(coalesced as f64), 1);
        e.metric(
            "server.coalesce_factor",
            Some(coalesced as f64 / ticks as f64),
            ticks as usize,
        );
        e.metric(
            "server.rejected",
            Some((s.rejected - s0.rejected) as f64),
            1,
        );
        e.metric("server.shed", Some((s.shed - s0.shed) as f64), 1);
        e.metric(
            "server.degraded_responses",
            Some((s.degraded_responses - s0.degraded_responses) as f64),
            1,
        );
        e.metric(
            "server.overhead_ms",
            s2.read.p50.map(|p| p - sl.solve_median_ms),
            s2.read.samples,
        );
        e.metric(
            "alloc.per_op",
            Some(plain.allocs as f64 / plain.log.len().max(1) as f64),
            plain.log.len(),
        );
        e.metric(
            "trace.overhead_ms",
            s2.read.p50.zip(s1.read.p50).map(|(t, u)| t - u),
            s2.read.samples,
        );
        if sl.mismatches > 0 {
            e.note(format_args!(
                "WRONG: {} replayed solves differ from PopularSolver",
                sl.mismatches
            ));
            run.book.wrong += sl.mismatches;
        }
        for (name, t) in tr.totals() {
            e.note(format_args!(
                "span {name}: count {}, total {:.3} ms, self {:.3} ms",
                t.count, t.total_ms, t.self_ms
            ));
        }
        let out = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(OUT_DIR);
        let path = out.join(format!("{}-seed{}-spans.tsv", w.name(), a.seed));
        std::fs::create_dir_all(&out)
            .and_then(|()| tr.write(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        e.note(format_args!("note spans written to {}", path.display()));
    }

    for (j, last) in run.book.last.iter().enumerate() {
        match last {
            Some(m) if !run.book.write_failed[j] => {
                e.note(format_args!(
                    "final {j} {} {}",
                    run.book.applied[j],
                    hash_matching(m)
                ));
            }
            Some(_) => e.note(format_args!(
                "note edited instance {j} had a failed edit; final state not checked"
            )),
            None => {}
        }
    }
    e.note(format_args!("count attempted {attempted}"));
    e.note(format_args!("count failed {}", failed));
    e.note(format_args!("count wrong {}", run.book.wrong));
    drop(run);
    ld.server.shutdown();
    Ok(e.0)
}

// ------------------------------------------------------------ compare

/// A result file: its identifying `key value` lines, and its metrics.
type ResultFile = (Vec<(String, String)>, BTreeMap<String, f64>);

fn read_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut id = Vec::new();
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let (k, v) = line.split_once(' ').unwrap_or((line, ""));
        if k == "metric" {
            let f: Vec<&str> = v.split(' ').collect();
            if let [name, value, ..] = f.as_slice() {
                metrics.insert(name.to_string(), value.parse().unwrap_or(f64::NAN));
            }
        } else {
            id.push((k.to_string(), v.to_string()));
        }
    }
    Ok((id, metrics))
}

/// Compares two result files.  Refuses when their host fingerprints or
/// workloads differ: numbers from different hosts do not compare.
fn compare_main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare <result-a> <result-b>");
        return 2;
    };
    let (ra, rb) = match (read_result(a), read_result(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 1;
        }
    };
    let key = |k: &str| k.starts_with("host.") || k == "workload" || k == "trace";
    let ida: Vec<_> = ra.0.iter().filter(|(k, _)| key(k)).collect();
    let idb: Vec<_> = rb.0.iter().filter(|(k, _)| key(k)).collect();
    if ida != idb {
        eprintln!("perfbench compare: refusing to compare results with different fingerprints:");
        for (x, y) in ida.iter().zip(&idb).filter(|(x, y)| x != y) {
            eprintln!("  {} {:?} vs {} {:?}", x.0, x.1, y.0, y.1);
        }
        return 1;
    }
    println!("{:<28} {:>16} {:>16} {:>9}", "metric", "a", "b", "b/a");
    for (name, va) in &ra.1 {
        if let Some(vb) = rb.1.get(name) {
            println!("{name:<28} {va:>16.6} {vb:>16.6} {:>9.4}", vb / va);
        }
    }
    0
}
