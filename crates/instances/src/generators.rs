//! Synthetic workload generators for the benchmark harness.
//!
//! The paper motivates popular matchings with house-allocation and
//! resident-matching markets; these generators parameterise the structural
//! knobs that matter for the algorithms: preference-list length, contention
//! on the top posts (how many applicants share an f-post), tie density, the
//! fraction of applicants whose `s(a)` is their last resort (the `A₁`
//! population that drives the maximum-cardinality experiments), and the
//! shape of the pseudoforests used by the cycle-finding experiments.
//! All generators are deterministic given the seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use pm_graph::{BipartiteGraph, FunctionalGraph};
use pm_popular::instance::PrefInstance;
use pm_stable::instance::SmInstance;

/// Common knobs for the preference-list generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Number of applicants.
    pub num_applicants: usize,
    /// Number of real posts.
    pub num_posts: usize,
    /// Length of each applicant's preference list (clamped to `num_posts`).
    pub list_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A reasonable default: as many posts as applicants, lists of length 5.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            num_applicants: n,
            num_posts: n,
            list_len: 5,
            seed,
        }
    }

    fn clamped_len(&self) -> usize {
        self.list_len.clamp(1, self.num_posts.max(1))
    }
}

/// Uniform random strict preference lists: every applicant ranks a uniform
/// random subset of the posts in uniform random order.
pub fn uniform_strict(cfg: &GeneratorConfig) -> PrefInstance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let len = cfg.clamped_len();
    let lists = (0..cfg.num_applicants)
        .map(|_| random_subset(&mut rng, cfg.num_posts, len))
        .collect();
    PrefInstance::new_strict(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// Master-list instances: there is a global ranking of the posts and every
/// applicant's list is a prefix-biased sample of it, lightly perturbed.
/// This concentrates first choices on few posts (high contention), the
/// regime where popular matchings frequently do not exist.
pub fn master_list(cfg: &GeneratorConfig, swaps: usize) -> PrefInstance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut master: Vec<usize> = (0..cfg.num_posts).collect();
    master.shuffle(&mut rng);
    let len = cfg.clamped_len();
    let lists = (0..cfg.num_applicants)
        .map(|_| {
            // Start from the master prefix and perturb it with a few random
            // replacements drawn from the whole master list (kept O(len) per
            // applicant so huge instances stay cheap to generate).
            let mut list: Vec<usize> = master[..len].to_vec();
            for _ in 0..swaps {
                let i = rng.random_range(0..list.len());
                let candidate = master[rng.random_range(0..master.len())];
                if !list.contains(&candidate) {
                    list[i] = candidate;
                }
            }
            list
        })
        .collect();
    PrefInstance::new_strict(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// Clustered-popularity instances: a fraction of "hot" posts is sampled much
/// more often (roughly Zipf-like contention), the rest uniformly.
pub fn clustered(cfg: &GeneratorConfig, hot_posts: usize) -> PrefInstance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let hot = hot_posts.clamp(1, cfg.num_posts);
    let len = cfg.clamped_len();
    let lists = (0..cfg.num_applicants)
        .map(|_| {
            let mut list = Vec::with_capacity(len);
            while list.len() < len {
                let p = if rng.random_range(0..4) < 3 {
                    rng.random_range(0..hot)
                } else {
                    rng.random_range(0..cfg.num_posts)
                };
                if !list.contains(&p) {
                    list.push(p);
                }
            }
            list
        })
        .collect();
    PrefInstance::new_strict(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// Instances guaranteed to admit a popular matching: first choices are a
/// permutation (all f-posts distinct), so matching every applicant to `f(a)`
/// is applicant-complete.  The remaining list entries are uniform.
pub fn solvable(cfg: &GeneratorConfig) -> PrefInstance {
    assert!(
        cfg.num_posts >= cfg.num_applicants,
        "solvable generator needs at least as many posts as applicants"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut firsts: Vec<usize> = (0..cfg.num_posts).collect();
    firsts.shuffle(&mut rng);
    let len = cfg.clamped_len();
    let lists = (0..cfg.num_applicants)
        .map(|a| {
            let mut list = vec![firsts[a]];
            while list.len() < len {
                let p = rng.random_range(0..cfg.num_posts);
                if !list.contains(&p) {
                    list.push(p);
                }
            }
            list
        })
        .collect();
    PrefInstance::new_strict(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// Community-structured instances with **scattered post ids** — the layout
/// pass's headline workload (E23).
///
/// Applicants come in communities of `community` consecutive ids, and every
/// applicant ranks only posts of its own community's window, so the
/// instance has strong *referential* locality.  The post ids, however, are
/// passed through a random bijection ("scatter"), destroying *address*
/// locality: each community's posts are strewn across the whole id space,
/// and every per-post gather in the solve kernels strides the full array.
/// `pm_instances::layout::optimize_layout` recovers contiguous ids from the
/// incidence structure alone, which is exactly the A/B contrast the
/// `layout/*` bench family measures.
///
/// First choices are globally distinct (applicant `a` gets scattered
/// logical post `a`), so the instance always admits a popular matching,
/// like [`solvable`].
pub fn clustered_scattered(cfg: &GeneratorConfig, community: usize) -> PrefInstance {
    assert!(
        cfg.num_posts >= cfg.num_applicants,
        "clustered_scattered needs at least as many posts as applicants"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let len = cfg.clamped_len();
    // Logical → physical post id bijection; everything below works in
    // logical ids and maps through `scatter` at the last moment.
    let mut scatter: Vec<usize> = (0..cfg.num_posts).collect();
    scatter.shuffle(&mut rng);
    let c = community.clamp(len, cfg.num_posts);
    let lists = (0..cfg.num_applicants)
        .map(|a| {
            // The community window in logical id space; the last window is
            // shifted down so every window keeps full width.
            let lo = (a / c * c).min(cfg.num_posts - c);
            let mut list = vec![scatter[a]];
            while list.len() < len {
                let p = scatter[lo + rng.random_range(0..c)];
                if !list.contains(&p) {
                    list.push(p);
                }
            }
            list
        })
        .collect();
    PrefInstance::new_strict(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// Instances with tunable *last-resort pressure*: `a1_fraction` of the
/// applicants rank only posts that are somebody's first choice, making their
/// `s(a)` the last resort (the `A₁` population of Section IV).  First
/// choices are kept distinct so the instance stays solvable and the
/// interesting question is how many `A₁`-applicants a maximum-cardinality
/// popular matching can keep off their last resorts.
pub fn last_resort_pressure(cfg: &GeneratorConfig, a1_fraction: f64) -> PrefInstance {
    assert!(
        cfg.num_posts >= cfg.num_applicants,
        "last_resort_pressure needs at least as many posts as applicants"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.num_applicants;
    let mut firsts: Vec<usize> = (0..cfg.num_posts).collect();
    firsts.shuffle(&mut rng);
    let first_of: Vec<usize> = firsts[..n].to_vec();
    let len = cfg.clamped_len();
    let a1_count = ((n as f64) * a1_fraction).round() as usize;

    let lists = (0..n)
        .map(|a| {
            let mut list = vec![first_of[a]];
            if a < a1_count {
                // A1 applicant: every other entry is some other applicant's
                // first choice (hence an f-post), so s(a) = l(a).
                while list.len() < len.min(n) {
                    let p = first_of[rng.random_range(0..n)];
                    if !list.contains(&p) {
                        list.push(p);
                    }
                }
            } else {
                while list.len() < len {
                    let p = rng.random_range(0..cfg.num_posts);
                    if !list.contains(&p) {
                        list.push(p);
                    }
                }
            }
            list
        })
        .collect();
    PrefInstance::new_strict(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// Short uniform strict lists: every applicant ranks between 1 and
/// `list_len` distinct posts, the length and each post drawn uniformly.
/// With about half as many posts as applicants most posts are somebody's
/// first choice, so many applicants have `s(a) = l(a)`: Algorithm 1 leaves
/// them on their last resorts and Algorithm 3 moves some of them onto real
/// posts.  Sampling is by rejection, `O(list_len²)` per applicant.
pub fn short_lists(cfg: &GeneratorConfig) -> PrefInstance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let max_len = cfg.clamped_len();
    let lists = (0..cfg.num_applicants)
        .map(|_| {
            let len = rng.random_range(1..=max_len);
            let mut list = Vec::with_capacity(len);
            while list.len() < len {
                let p = rng.random_range(0..cfg.num_posts);
                if !list.contains(&p) {
                    list.push(p);
                }
            }
            list
        })
        .collect();
    PrefInstance::new_strict(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// An instance whose reduced graph is a complete binary tree of the given
/// depth: posts are the tree nodes (even levels are f-posts, odd levels are
/// s-posts), applicants are the tree edges.  Algorithm 2's degree-1 peeling
/// consumes this instance level by level, so the number of peeling rounds
/// grows with the depth ≈ log₂(n) — the worst-case family for the Lemma 2
/// experiment (E4).
pub fn binary_tree_instance(depth: usize) -> PrefInstance {
    // Complete binary tree with 2^(depth+1) - 1 nodes, node 0 the root,
    // children of i at 2i+1 and 2i+2.
    let num_nodes = (1usize << (depth + 1)) - 1;
    let level_of = |i: usize| (usize::BITS - (i + 1).leading_zeros() - 1) as usize;
    let mut lists: Vec<Vec<usize>> = Vec::new();
    for child in 1..num_nodes {
        let parent = (child - 1) / 2;
        // The endpoint on an even level is the f-post (listed first).
        let (f_post, s_post) = if level_of(parent) % 2 == 0 {
            (parent, child)
        } else {
            (child, parent)
        };
        lists.push(vec![f_post, s_post]);
    }
    if lists.is_empty() {
        // depth 0: a single post, a single applicant who only wants it.
        lists.push(vec![0]);
    }
    PrefInstance::new_strict(num_nodes, lists).expect("tree instance is valid")
}

/// Preference lists with ties: each applicant gets `groups` tie groups of
/// roughly equal size drawn from a random subset of the posts.
pub fn with_ties(cfg: &GeneratorConfig, groups: usize) -> PrefInstance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let len = cfg.clamped_len();
    let groups = groups.clamp(1, len);
    let lists = (0..cfg.num_applicants)
        .map(|_| {
            let posts = random_subset(&mut rng, cfg.num_posts, len);
            let per = posts.len().div_ceil(groups);
            posts.chunks(per).map(|c| c.to_vec()).collect::<Vec<_>>()
        })
        .collect();
    PrefInstance::new_with_ties(cfg.num_posts, lists).expect("generator produces valid instances")
}

/// A random bipartite graph with the given edge probability (per pair), with
/// every left vertex guaranteed at least one edge — the workload for the
/// Section V ties reduction and the Hopcroft–Karp referee.
///
/// The graph is generated by sampling `⌊density · n_right⌋` right endpoints
/// per left vertex (so generation is `O(E)`, not `O(n_left · n_right)`).
pub fn random_bipartite(n_left: usize, n_right: usize, density: f64, seed: u64) -> BipartiteGraph {
    assert!(n_right > 0, "need at least one right vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let per_left = ((density * n_right as f64).round() as usize).min(n_right);
    let mut edges = Vec::with_capacity(n_left * (per_left + 1));
    for l in 0..n_left {
        for _ in 0..per_left {
            edges.push((l, rng.random_range(0..n_right)));
        }
        // Guarantee a non-empty neighbourhood.
        edges.push((l, rng.random_range(0..n_right)));
    }
    BipartiteGraph::from_edges(n_left, n_right, &edges)
}

/// A random functional graph (directed pseudoforest): each vertex gets a
/// successor with probability `1 − sink_fraction`, uniformly at random.
pub fn random_functional_graph(n: usize, sink_fraction: f64, seed: u64) -> FunctionalGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let succ = (0..n)
        .map(|_| {
            if n == 0 || rng.random_range(0.0..1.0) < sink_fraction {
                None
            } else {
                Some(rng.random_range(0..n))
            }
        })
        .collect();
    FunctionalGraph::new(succ)
}

/// A random stable marriage instance with complete uniformly-random lists.
pub fn random_sm_instance(n: usize, seed: u64) -> SmInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = |_: usize| {
        (0..n)
            .map(|_| {
                let mut l: Vec<usize> = (0..n).collect();
                l.shuffle(&mut rng);
                l
            })
            .collect::<Vec<_>>()
    };
    let men = gen(0);
    let women = gen(1);
    SmInstance::new(men, women)
}

fn random_subset(rng: &mut StdRng, universe: usize, len: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..universe).collect();
    all.shuffle(rng);
    all.truncate(len.min(universe).max(1));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_popular::algorithm1::popular_matching_nc;
    use pm_popular::reduced::ReducedGraph;
    use pm_pram::DepthTracker;

    fn cfg(n: usize) -> GeneratorConfig {
        GeneratorConfig {
            num_applicants: n,
            num_posts: n,
            list_len: 4,
            seed: 42,
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = uniform_strict(&cfg(50));
        let b = uniform_strict(&cfg(50));
        assert_eq!(a, b);
        let c = uniform_strict(&GeneratorConfig {
            seed: 43,
            ..cfg(50)
        });
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_and_master_list_shapes() {
        let u = uniform_strict(&cfg(100));
        assert_eq!(u.num_applicants(), 100);
        assert!(u.is_strict());
        for a in 0..100 {
            assert_eq!(u.num_ranks(a), 4);
        }

        // Master lists concentrate first choices: with zero swaps every
        // applicant has the same first choice.
        let m = master_list(&cfg(60), 0);
        let g = ReducedGraph::build_sequential(&m).unwrap();
        assert_eq!(g.f_posts().len(), 1);
        // With a few swaps there is still much more contention than uniform.
        let m2 = master_list(&cfg(60), 3);
        let g2 = ReducedGraph::build_sequential(&m2).unwrap();
        let gu = ReducedGraph::build_sequential(&uniform_strict(&cfg(60))).unwrap();
        assert!(g2.f_posts().len() <= gu.f_posts().len());
    }

    #[test]
    fn clustered_prefers_hot_posts() {
        let c = clustered(&cfg(200), 5);
        let g = ReducedGraph::build_sequential(&c).unwrap();
        // Most applicants' first choice lands in the hot set.
        let hot_firsts = (0..200).filter(|&a| g.f(a) < 5).count();
        assert!(hot_firsts > 120, "hot firsts = {hot_firsts}");
    }

    #[test]
    fn solvable_instances_always_admit_a_popular_matching() {
        for seed in 0..20 {
            let inst = solvable(&GeneratorConfig { seed, ..cfg(40) });
            let t = DepthTracker::new();
            assert!(popular_matching_nc(&inst, &t).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn last_resort_pressure_creates_a1_applicants() {
        let inst = last_resort_pressure(
            &GeneratorConfig {
                list_len: 3,
                ..cfg(50)
            },
            0.5,
        );
        let g = ReducedGraph::build_sequential(&inst).unwrap();
        let a1 = (0..50).filter(|&a| g.s(a) == inst.last_resort(a)).count();
        assert!(a1 >= 20, "a1 = {a1}");
        // Still solvable by construction.
        let t = DepthTracker::new();
        assert!(popular_matching_nc(&inst, &t).is_ok());
    }

    #[test]
    fn clustered_scattered_is_solvable_and_scattered() {
        let inst = clustered_scattered(
            &GeneratorConfig {
                num_applicants: 80,
                num_posts: 100,
                list_len: 4,
                seed: 11,
            },
            16,
        );
        assert_eq!(inst.num_applicants(), 80);
        let t = DepthTracker::new();
        assert!(popular_matching_nc(&inst, &t).is_ok());
        // Scatter destroys address locality: the average per-list id span
        // is a large fraction of the post id space.
        let total_span: usize = (0..80)
            .map(|a| {
                let ids: Vec<usize> = inst.flat_list(a).iter().map(|p| p.get()).collect();
                ids.iter().max().unwrap() - ids.iter().min().unwrap()
            })
            .sum();
        assert!(total_span / 80 > 25, "mean span = {}", total_span / 80);
    }

    #[test]
    fn ties_generator_produces_tied_lists() {
        let inst = with_ties(&cfg(30), 2);
        assert!(!inst.is_strict());
        assert_eq!(inst.num_applicants(), 30);
    }

    #[test]
    fn bipartite_and_functional_generators() {
        let g = random_bipartite(40, 30, 0.1, 7);
        assert_eq!(g.n_left(), 40);
        assert!((0..40).all(|l| g.degree_left(l) >= 1));

        let f = random_functional_graph(100, 0.2, 9);
        assert_eq!(f.n(), 100);
        let sinks = f.sinks().len();
        assert!(sinks > 5 && sinks < 50, "sinks = {sinks}");
    }

    #[test]
    fn sm_generator_produces_valid_instances() {
        let inst = random_sm_instance(20, 3);
        assert_eq!(inst.n(), 20);
        assert!(inst.is_stable(&inst.man_optimal()));
    }
}
