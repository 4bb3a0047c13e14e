//! The workloads, their inputs, and the reference answers the
//! outputs are checked against.
//!
//! Inputs are generated from the seed by the parent process and written as
//! snapshot files, so generation counts in neither `setup_s` nor
//! `peak_rss_mb` of the measured process.

use std::path::{Path, PathBuf};

use pm_instances::churn::{edit_churn, resampled_twin};
use pm_instances::generators::{clustered_scattered, solvable, GeneratorConfig};
use pm_instances::{snapshot, ChurnConfig};
use pm_popular::delta::Delta;
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::solver::PopularSolver;
use pm_popular::verify::is_popular_characterization;
use pm_serve::SolveMode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 1 client: n = 10^6 community-structured solves (every
    /// 4th one MaxCardinality), two edits of a 10^6 instance per solve.
    BulkSolve,
    /// Open loop: edits of one n = 10^6 instance beside a low-rate stream
    /// of n = 10^4 solves on the same queue and worker.
    LiveDeltas,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// One client; each solve is followed by `writes_per_read` edits, and
    /// every request waits for the previous answer.
    Closed { writes_per_read: usize },
    /// Fixed rates, sent on schedule whether or not earlier answers came
    /// back (see `stats::fixed_rate`).
    Open { reads_per_s: f64, writes_per_s: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    ClusteredScattered,
    SolvableUniform,
}

/// Which instances the edits go to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteTarget {
    /// The live copies of the first `count` read instances.
    Reads(usize),
    /// `count` instances of their own, of size `n`.
    Own { n: usize, count: usize },
}

/// Everything that defines a workload apart from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    family: Family,
    read_n: usize,
    read_count: usize,
    writes: WriteTarget,
    /// Length of each edit stream; it is replayed alternately with its
    /// resampled twin so that every replayed edit is a real change.
    pub stream_len: usize,
    pub traffic: Traffic,
    /// Answers later than this (ms after they were due) count as failed.
    pub limit_ms: f64,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BulkSolve, Workload::LiveDeltas];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkSolve => "bulk_solve",
            Workload::LiveDeltas => "live_deltas",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn params(self) -> Params {
        match self {
            Workload::BulkSolve => Params {
                family: Family::ClusteredScattered,
                read_n: 1_000_000,
                read_count: 2,
                writes: WriteTarget::Reads(1),
                stream_len: 256,
                traffic: Traffic::Closed { writes_per_read: 2 },
                limit_ms: 5_000.0,
            },
            Workload::LiveDeltas => Params {
                family: Family::SolvableUniform,
                read_n: 10_000,
                read_count: 1,
                writes: WriteTarget::Own {
                    n: 1_000_000,
                    count: 1,
                },
                stream_len: 2048,
                traffic: Traffic::Open {
                    reads_per_s: 20.0,
                    writes_per_s: 200.0,
                },
                limit_ms: 1_000.0,
            },
        }
    }

    /// The solve mode of the `i`-th read.
    pub fn read_mode(self, i: u64) -> SolveMode {
        if self == Workload::BulkSolve && i % 4 == 3 {
            SolveMode::MaxCardinality
        } else {
            SolveMode::Popular
        }
    }

    /// The read instance the `i`-th read solves.
    pub fn read_target(self, i: u64) -> usize {
        let count = self.params().read_count as u64;
        match self {
            // Four consecutive reads (3 Popular, 1 MaxCardinality) per
            // instance, so both instances see both modes.
            Workload::BulkSolve => ((i / 4) % count) as usize,
            _ => (i % count) as usize,
        }
    }

    /// The modes the reads use (for the reference answers).
    pub fn modes(self) -> &'static [SolveMode] {
        match self {
            Workload::BulkSolve => &[SolveMode::Popular, SolveMode::MaxCardinality],
            _ => &[SolveMode::Popular],
        }
    }
}

impl Params {
    pub fn write_count(&self) -> usize {
        match self.writes {
            WriteTarget::Reads(c) | WriteTarget::Own { count: c, .. } => c,
        }
    }

    pub fn read_count(&self) -> usize {
        self.read_count
    }

    /// The snapshot file the `j`-th write instance is installed from.
    pub fn write_file(&self, dir: &Path, j: usize) -> PathBuf {
        match self.writes {
            WriteTarget::Reads(_) => read_file(dir, j),
            WriteTarget::Own { .. } => dir.join(format!("write-{j}.snap")),
        }
    }
}

pub fn read_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("read-{i}.snap"))
}

/// SplitMix64 finaliser: independent seeds for every generated input.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate(family: Family, n: usize, seed: u64) -> PrefInstance {
    let cfg = GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 5,
        seed,
    };
    match family {
        Family::ClusteredScattered => clustered_scattered(&cfg, 256),
        Family::SolvableUniform => solvable(&cfg),
    }
}

/// A 64-bit fingerprint of a matching; answers are compared with the
/// verified reference answers through it.
pub fn hash_matching(m: &Assignment) -> u64 {
    m.as_slice().iter().fold(m.num_applicants() as u64, |h, p| {
        (h.rotate_left(5) ^ p.get() as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// A verified reference answer of one read instance in one mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub read: usize,
    pub mode: SolveMode,
    pub hash: u64,
}

fn mode_name(mode: SolveMode) -> &'static str {
    match mode {
        SolveMode::Popular => "popular",
        SolveMode::MaxCardinality => "maxcard",
    }
}

fn parse_mode(s: &str) -> Option<SolveMode> {
    match s {
        "popular" => Some(SolveMode::Popular),
        "maxcard" => Some(SolveMode::MaxCardinality),
        _ => None,
    }
}

/// Generates the workload's snapshots into `dir`, solves and verifies the
/// reference answers, and writes them to `dir/refs.txt`.  Returns an error
/// message if a reference fails verification.
pub fn prepare(w: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let p = w.params();
    let mut refs = Vec::new();
    let mut solver = PopularSolver::new(0, 0);
    for i in 0..p.read_count {
        let inst = generate(p.family, p.read_n, mix(seed, 1 + i as u64));
        snapshot::write_file(&inst, read_file(dir, i)).map_err(|e| e.to_string())?;
        for &mode in w.modes() {
            let m = match mode {
                SolveMode::Popular => solver.solve(&inst),
                SolveMode::MaxCardinality => solver.solve_max_cardinality(&inst),
            }
            .map_err(|e| format!("reference solve of read {i}: {e}"))?;
            if !is_popular_characterization(&inst, m) {
                return Err(format!("reference answer of read {i} is not popular"));
            }
            refs.push(Reference {
                read: i,
                mode,
                hash: hash_matching(m),
            });
        }
    }
    if let WriteTarget::Own { n, count } = p.writes {
        for j in 0..count {
            let inst = generate(p.family, n, mix(seed, 0x1000 + j as u64));
            snapshot::write_file(&inst, p.write_file(dir, j)).map_err(|e| e.to_string())?;
        }
    }
    let text: String = refs
        .iter()
        .map(|r| format!("{} {} {}\n", r.read, mode_name(r.mode), r.hash))
        .collect();
    std::fs::write(dir.join("refs.txt"), text).map_err(|e| e.to_string())
}

pub fn load_refs(dir: &Path) -> Result<Vec<Reference>, String> {
    let text = std::fs::read_to_string(dir.join("refs.txt")).map_err(|e| e.to_string())?;
    text.lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let bad = || format!("malformed reference line {l:?}");
            if f.len() != 3 {
                return Err(bad());
            }
            Ok(Reference {
                read: f[0].parse().map_err(|_| bad())?,
                mode: parse_mode(f[1]).ok_or_else(bad)?,
                hash: f[2].parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

/// The edit stream of write instance `j`: `edit_churn` and its resampled
/// twin, which the workload replays alternately.
pub fn edit_streams(inst: &PrefInstance, len: usize, seed: u64, j: usize) -> [Vec<Delta>; 2] {
    let stream = edit_churn(
        inst,
        &ChurnConfig {
            deltas: len,
            seed: mix(seed, 0x2000 + j as u64),
        },
    );
    let twin = resampled_twin(inst, &stream, mix(seed, 0x3000 + j as u64));
    [stream, twin]
}

/// The `k`-th edit of an alternating stream pair.
pub fn nth_edit(streams: &[Vec<Delta>; 2], k: usize) -> &Delta {
    let len = streams[0].len();
    &streams[(k / len) % 2][k % len]
}

/// Checks the server's final matching of write instance `j` after `applied`
/// edits: a private replica replays the same edits, and a from-scratch
/// solve of its snapshot must equal the server's answer bit for bit.
pub fn check_final(
    w: Workload,
    seed: u64,
    dir: &Path,
    j: usize,
    applied: usize,
    server_hash: u64,
) -> Result<(), String> {
    use pm_popular::delta::{DeltaMode, DeltaSolver};
    let p = w.params();
    let inst = snapshot::read_file(p.write_file(dir, j)).map_err(|e| e.to_string())?;
    let streams = edit_streams(&inst, p.stream_len, seed, j);
    let mut replica = DeltaSolver::install(&inst, DeltaMode::Popular).map_err(|e| e.to_string())?;
    for k in 0..applied {
        replica
            .apply(nth_edit(&streams, k))
            .map_err(|e| format!("replica edit {k}: {e}"))?;
    }
    let snap = replica.snapshot_instance().map_err(|e| e.to_string())?;
    let want = PopularSolver::new(0, 0)
        .solve(&snap)
        .map(hash_matching)
        .map_err(|e| e.to_string())?;
    if want == server_hash {
        Ok(())
    } else {
        Err(format!(
            "write instance {j}: server matching after {applied} edits differs from a fresh solve"
        ))
    }
}
