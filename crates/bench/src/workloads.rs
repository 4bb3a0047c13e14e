//! Canonical workloads for every experiment, shared between the Criterion
//! benches and the harness binary (same generators, same seeds, same
//! parameters — so EXPERIMENTS.md, `cargo bench` and the harness tables all
//! describe the same inputs).

use pm_instances::generators::{self, GeneratorConfig};
use pm_instances::ChurnConfig;
use pm_popular::instance::PrefInstance;
use pm_stable::instance::SmInstance;

/// The base RNG seed used by all workloads.
pub const SEED: u64 = 20_200_518; // IPDPS 2020 week, for flavour

/// E4/E5 — solvable uniform instances: every applicant's first choice is
/// distinct (so a popular matching always exists) and the remaining list is
/// uniform.  `list_len = 5`.
pub fn solvable_uniform(n: usize) -> PrefInstance {
    let cfg = GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 5,
        seed: SEED ^ n as u64,
    };
    generators::solvable(&cfg)
}

/// E5 — master-list (high contention) instances; popular matchings often do
/// not exist here, which is itself part of the measurement (feasibility rate).
pub fn contended(n: usize) -> PrefInstance {
    let cfg = GeneratorConfig {
        num_applicants: n,
        num_posts: n,
        list_len: 5,
        seed: SEED ^ (n as u64).rotate_left(17),
    };
    generators::master_list(&cfg, 8)
}

/// E6/E8 — instances with a tunable `A₁` population (applicants whose only
/// alternative is their last resort), the regime where maximum-cardinality /
/// fair / rank-maximal popular matchings differ from arbitrary ones.
pub fn pressured(n: usize, a1_fraction: f64) -> PrefInstance {
    let cfg = GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 4,
        seed: SEED ^ 0xA1A1 ^ n as u64,
    };
    generators::last_resort_pressure(&cfg, a1_fraction)
}

/// E6 — the "paired pressure" family: `n_pairs` hot posts, each the first
/// choice of one *risky* applicant (whose list is just that post, so
/// `s = l(a)`) and one *safe* applicant (who also likes a private cold
/// post).  Every hot post must be matched in any popular matching, but it
/// can go to either fan, so popular matchings of sizes between `n_pairs`
/// and `2·n_pairs` exist — exactly the spread Algorithm 3 must close.
pub fn paired_pressure(n_pairs: usize) -> PrefInstance {
    let num_posts = 2 * n_pairs;
    let mut lists = Vec::with_capacity(2 * n_pairs);
    for j in 0..n_pairs {
        lists.push(vec![j]); // risky applicant: only the hot post
        lists.push(vec![j, n_pairs + j]); // safe applicant: hot post then cold post
    }
    PrefInstance::new_strict(num_posts, lists).expect("paired instance is valid")
}

/// E6 — the "crowded" family: `n` applicants with strict lists of 1–3
/// uniform posts over `n/2 + 1` posts (`pm_instances::generators::
/// short_lists`).  About half the applicants end Algorithm 1 on their last
/// resorts, and Algorithm 3 moves a few per cent of them onto real posts,
/// so this is the family on which the maximum-cardinality step does work;
/// on the other families Algorithm 1's answer is already maximum.
pub fn crowded(n: usize) -> PrefInstance {
    let cfg = GeneratorConfig {
        num_applicants: n,
        num_posts: n / 2 + 1,
        list_len: 3,
        seed: SEED ^ 0xC20D ^ n as u64,
    };
    generators::short_lists(&cfg)
}

/// E4 — the worst-case peeling family: an instance whose reduced graph is a
/// complete binary tree of the given depth (`n ≈ 2^(depth+1)` applicants),
/// which Algorithm 2 peels one level per round.
pub fn peeling_tree(depth: usize) -> PrefInstance {
    generators::binary_tree_instance(depth)
}

/// E16 / served — `count` independent solvable-uniform instances of size
/// `n` with distinct seeds: the request stream of the batched serving
/// workload (`PopularSolver::solve_batch`).
pub fn batch_instances(n: usize, count: usize) -> Vec<PrefInstance> {
    (0..count as u64)
        .map(|i| {
            let cfg = GeneratorConfig {
                num_applicants: n,
                num_posts: n + n / 8 + 1,
                list_len: 5,
                seed: SEED ^ (n as u64) ^ ((i + 1) << 32),
            };
            generators::solvable(&cfg)
        })
        .collect()
}

/// E23 — the layout A/B workload: community-structured solvable instances
/// whose post ids are scattered by a random bijection (see
/// `pm_instances::generators::clustered_scattered`).  The referential
/// locality is there — each applicant stays inside a 256-post community —
/// but the address locality is destroyed, which is exactly what the
/// `pm_instances::layout` pass recovers; the `layout/*` families measure
/// the same pipeline with and without it.
pub fn clustered_scattered(n: usize) -> PrefInstance {
    let cfg = GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 5,
        seed: SEED ^ 0x1A07 ^ n as u64,
    };
    generators::clustered_scattered(&cfg, 256)
}

/// E7 — random directed pseudoforests with 10% sinks.
pub fn pseudoforest(n: usize) -> pm_graph::FunctionalGraph {
    generators::random_functional_graph(n, 0.1, SEED ^ 0x7777 ^ n as u64)
}

/// E9 — random bipartite graphs with expected degree ≈ 4.
pub fn bipartite(n: usize) -> pm_graph::BipartiteGraph {
    let density = 4.0 / n as f64;
    generators::random_bipartite(n, n, density, SEED ^ 0x9999 ^ n as u64)
}

/// E10 — random stable marriage instances with complete lists.
pub fn stable_marriage(n: usize) -> SmInstance {
    generators::random_sm_instance(n, SEED ^ 0x1010 ^ n as u64)
}

/// E21 — a pure-edit churn stream against `inst` (first choices pinned, so
/// no delta flips a post's f-status; see `pm_instances::churn`).  The
/// canonical input of the `served/incremental/edit_churn` workload and the
/// warm-delta zero-allocation gate.  The harness alternates this stream
/// with its [`resampled_twin`] so that endless replay stays statistically
/// identical to fresh churn (a straight repeat would re-apply tails the
/// instance already has, timing no-ops on clean shards).
pub fn edit_churn_stream(inst: &PrefInstance, deltas: usize) -> Vec<pm_popular::delta::Delta> {
    let cfg = ChurnConfig {
        deltas,
        seed: SEED ^ 0xDE17A ^ inst.num_applicants() as u64,
    };
    pm_instances::churn::edit_churn(inst, &cfg)
}

/// The alternation twin of [`edit_churn_stream`]: same applicants, freshly
/// resampled tails (see `pm_instances::churn::resampled_twin`).
pub fn resampled_twin(
    inst: &PrefInstance,
    stream: &[pm_popular::delta::Delta],
) -> Vec<pm_popular::delta::Delta> {
    pm_instances::churn::resampled_twin(inst, stream, SEED ^ 0x7717)
}

/// E21 — a mixed churn stream (edits, applicant add/remove, post
/// add/remove) against `inst`, mirror-validated so every delta is legal in
/// order.  The canonical input of `served/incremental/mixed_churn`.
pub fn mixed_churn_stream(inst: &PrefInstance, deltas: usize) -> Vec<pm_popular::delta::Delta> {
    let cfg = ChurnConfig {
        deltas,
        seed: SEED ^ 0x1117A ^ inst.num_applicants() as u64,
    };
    pm_instances::churn::mixed_churn(inst, &cfg)
}

/// The instance-size sweep used by the wall-clock experiments in the
/// harness.  Criterion benches use a subset to keep `cargo bench` short.
pub fn harness_sizes() -> Vec<usize> {
    vec![1_000, 4_000, 16_000, 64_000, 256_000]
}

/// The size sweep for the (more expensive) pseudoforest method comparison.
pub fn pseudoforest_sizes() -> Vec<usize> {
    vec![64, 256, 1_024, 4_096]
}

/// The size sweep for the stable-marriage experiments (quadratic-size
/// inputs, so smaller n).
pub fn stable_sizes() -> Vec<usize> {
    vec![64, 256, 1_024, 2_048]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        let inst = solvable_uniform(500);
        assert_eq!(inst.num_applicants(), 500);
        let c = contended(200);
        assert_eq!(c.num_applicants(), 200);
        let p = pressured(100, 0.5);
        assert_eq!(p.num_applicants(), 100);
        assert_eq!(pseudoforest(50).n(), 50);
        assert_eq!(bipartite(64).n_left(), 64);
        assert_eq!(stable_marriage(16).n(), 16);
        assert!(!harness_sizes().is_empty());
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(solvable_uniform(100), solvable_uniform(100));
        assert_eq!(contended(100), contended(100));
    }
}
