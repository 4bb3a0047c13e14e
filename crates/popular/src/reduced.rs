//! The reduced graph `G'` of f-posts and s-posts (Section III).
//!
//! For a strictly-ordered instance, `f(a)` is the first post on applicant
//! `a`'s list and `s(a)` is the first *non-f-post* on the list (which always
//! exists because the last resort `l(a)` is appended and is never an
//! f-post).  Theorem 1 (Abraham et al.): a matching `M` is popular iff every
//! f-post is matched and every applicant is matched to `f(a)` or `s(a)` —
//! so the whole problem lives inside the reduced graph `G'` whose only edges
//! are `(a, f(a))` and `(a, s(a))`.
//!
//! The paper's construction (Section III-B) is three parallel steps: mark
//! the posts with a rank-1 incident edge, drop non-rank-1 edges at those
//! posts, and keep for every applicant only the highest-ranked surviving
//! non-f edge.  [`ReducedGraph::build_parallel`] mirrors those steps (with
//! the work and rounds charged to the tracker); [`ReducedGraph::build_sequential`]
//! is the obvious single-threaded construction used for validation.

use rayon::prelude::*;

use pm_graph::BipartiteGraph;
use pm_pram::tracker::DepthTracker;
use pm_pram::{par_chunk_len, Idx, SEQUENTIAL_CUTOFF};

use crate::error::PopularError;
use crate::instance::PrefInstance;

/// Allocation-free construction of the reduced graph: writes `f(a)`,
/// `s(a)` and the f-post marking into caller-provided buffers (capacities
/// reused), so a solver that holds them across requests builds `G'` with
/// zero heap allocation on a warm call.  The three parallel steps and their
/// round accounting match [`ReducedGraph::build_parallel`], except that the
/// s-scan charges the work it *actually* performs — entries examined until
/// the first non-f-post — accumulated per chunk and flushed with a single
/// atomic add per chunk (exact totals, independent of the thread count).
pub fn build_into(
    inst: &PrefInstance,
    f: &mut Vec<Idx>,
    s: &mut Vec<Idx>,
    is_f_post: &mut Vec<bool>,
    tracker: &DepthTracker,
) -> Result<(), PopularError> {
    if !inst.is_strict() {
        return Err(PopularError::TiesNotSupported);
    }
    let n_a = inst.num_applicants();
    tracker.phase();

    // Steps 1 + 2: every applicant reads its first choice straight off the
    // flat CSR storage (one round), then the f-posts are marked (one
    // concurrent-write round).  Below the cutoff the two sweeps fuse into
    // one — the first-choice read feeds the mark scatter while the value is
    // still in a register, halving the traffic over `f`; the charges stay
    // those of the two logical rounds.  On the parallel path the mark
    // scatter stays a separate sequential sweep.
    tracker.round();
    tracker.work(n_a as u64);
    if f.len() != n_a {
        f.clear();
        f.resize(n_a, Idx::ZERO);
    }
    tracker.round();
    tracker.work(n_a as u64);
    is_f_post.clear();
    is_f_post.resize(inst.total_posts(), false);
    if n_a >= SEQUENTIAL_CUTOFF {
        f.par_iter_mut()
            .enumerate()
            .for_each(|(a, fa)| *fa = inst.first_choice(a));
        for &p in f.iter() {
            is_f_post[p] = true;
        }
    } else {
        for (a, fa) in f.iter_mut().enumerate() {
            let p = inst.first_choice(a);
            *fa = p;
            is_f_post[p] = true;
        }
    }

    // Step 3 (one round): every applicant scans its (strict, hence flat)
    // list for the first non-f-post; the last resort is the fallback.
    tracker.round();
    if s.len() != n_a {
        s.clear();
        s.resize(n_a, Idx::ZERO);
    }
    let marks: &[bool] = is_f_post;
    let scan_chunk = |base: usize, sc: &mut [Idx]| {
        let mut charged = tracker.local();
        for (i, slot) in sc.iter_mut().enumerate() {
            let a = base + i;
            let mut found = None;
            let mut scanned = 0u64;
            for &p in inst.flat_list(a) {
                scanned += 1;
                if !marks[p] {
                    found = Some(p);
                    break;
                }
            }
            charged.add(scanned);
            *slot = found.unwrap_or_else(|| inst.last_resort_idx(a));
        }
    };
    if n_a >= SEQUENTIAL_CUTOFF {
        let chunk = par_chunk_len(n_a, 1024);
        s.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(ci, sc)| scan_chunk(ci * chunk, sc));
    } else {
        scan_chunk(0, s);
    }
    Ok(())
}

/// The reduced graph `G'`: for every applicant its f-post and s-post, plus
/// the global f-post marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedGraph {
    num_applicants: usize,
    num_posts: usize,
    f: Vec<Idx>,
    s: Vec<Idx>,
    is_f_post: Vec<bool>,
}

impl ReducedGraph {
    /// Builds `G'` with the paper's parallel three-step construction.
    ///
    /// Returns [`PopularError::TiesNotSupported`] if any list has a tie —
    /// Section III explicitly restricts to strictly-ordered lists.
    pub fn build_parallel(
        inst: &PrefInstance,
        tracker: &DepthTracker,
    ) -> Result<Self, PopularError> {
        let mut f = Vec::new();
        let mut s = Vec::new();
        let mut is_f_post = Vec::new();
        build_into(inst, &mut f, &mut s, &mut is_f_post, tracker)?;
        Ok(Self {
            num_applicants: inst.num_applicants(),
            num_posts: inst.num_posts(),
            f,
            s,
            is_f_post,
        })
    }

    /// Sequential construction of `G'` (the validation baseline).
    pub fn build_sequential(inst: &PrefInstance) -> Result<Self, PopularError> {
        if !inst.is_strict() {
            return Err(PopularError::TiesNotSupported);
        }
        let n_a = inst.num_applicants();
        let mut is_f_post = vec![false; inst.total_posts()];
        let mut f = Vec::with_capacity(n_a);
        for a in 0..n_a {
            let fa = inst.first_choice(a);
            f.push(fa);
            is_f_post[fa] = true;
        }
        let mut s = Vec::with_capacity(n_a);
        for a in 0..n_a {
            let sa = inst
                .flat_list(a)
                .iter()
                .copied()
                .find(|&p| !is_f_post[p])
                .unwrap_or_else(|| inst.last_resort_idx(a));
            s.push(sa);
        }
        Ok(Self {
            num_applicants: n_a,
            num_posts: inst.num_posts(),
            f,
            s,
            is_f_post,
        })
    }

    /// Assembles a reduced graph from raw parts, e.g. the buffers filled by
    /// [`build_into`] (the solver's free-function wrappers use this to hand
    /// back an owned `ReducedGraph` without rebuilding it).
    pub fn from_parts(num_posts: usize, f: Vec<Idx>, s: Vec<Idx>, is_f_post: Vec<bool>) -> Self {
        let num_applicants = f.len();
        debug_assert_eq!(s.len(), num_applicants);
        debug_assert_eq!(is_f_post.len(), num_posts + num_applicants);
        Self {
            num_applicants,
            num_posts,
            f,
            s,
            is_f_post,
        }
    }

    /// Number of applicants.
    pub fn num_applicants(&self) -> usize {
        self.num_applicants
    }

    /// Number of real posts.
    pub fn num_posts(&self) -> usize {
        self.num_posts
    }

    /// Number of extended posts (real + last resorts).
    pub fn total_posts(&self) -> usize {
        self.num_posts + self.num_applicants
    }

    /// `f(a)`: applicant `a`'s first choice.
    pub fn f(&self, a: usize) -> usize {
        self.f[a].get()
    }

    /// `s(a)`: applicant `a`'s most preferred non-f-post (possibly `l(a)`).
    pub fn s(&self, a: usize) -> usize {
        self.s[a].get()
    }

    /// The whole `f` map as a slice (one entry per applicant).
    pub fn f_slice(&self) -> &[Idx] {
        &self.f
    }

    /// The whole `s` map as a slice (one entry per applicant).
    pub fn s_slice(&self) -> &[Idx] {
        &self.s
    }

    /// The f-post marking over all extended posts, as a slice.
    pub fn is_f_post_slice(&self) -> &[bool] {
        &self.is_f_post
    }

    /// True iff the extended post `p` is an f-post.
    pub fn is_f_post(&self, p: usize) -> bool {
        self.is_f_post[p]
    }

    /// The f-posts, in increasing id order.
    pub fn f_posts(&self) -> Vec<usize> {
        (0..self.total_posts())
            .filter(|&p| self.is_f_post[p])
            .collect()
    }

    /// The s-posts (distinct values of `s(a)`), in increasing id order.
    pub fn s_posts(&self) -> Vec<usize> {
        let mut mark = vec![false; self.total_posts()];
        for &p in &self.s {
            mark[p] = true;
        }
        (0..self.total_posts()).filter(|&p| mark[p]).collect()
    }

    /// `f⁻¹(p)`: the applicants whose first choice is `p`.
    pub fn f_inverse(&self, p: usize) -> Vec<usize> {
        (0..self.num_applicants)
            .filter(|&a| self.f[a].get() == p)
            .collect()
    }

    /// True iff extended post `p` occurs in the reduced graph (as some
    /// applicant's f-post or s-post).
    pub fn in_reduced_graph(&self, p: usize) -> bool {
        self.is_f_post[p] || self.s.contains(&Idx::new(p))
    }

    /// The reduced graph as a bipartite graph: left vertices are applicants,
    /// right vertices are extended posts, and each applicant has exactly the
    /// two edges `(a, f(a))` and `(a, s(a))`.  Built through the CSR fast
    /// path — every applicant's row is the two-element slice `[f(a), s(a)]`.
    pub fn to_bipartite(&self) -> BipartiteGraph {
        let offsets: Vec<u32> = (0..=self.num_applicants as u32).map(|a| 2 * a).collect();
        let mut flat = Vec::with_capacity(2 * self.num_applicants);
        for a in 0..self.num_applicants {
            flat.push(self.f[a]);
            flat.push(self.s[a]);
        }
        BipartiteGraph::from_left_csr(self.num_applicants, self.total_posts(), offsets, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The instance of Figure 1 in the paper (applicants a1..a8, posts
    /// p1..p9 — zero-indexed here).
    pub fn figure1_instance() -> PrefInstance {
        PrefInstance::new_strict(
            9,
            vec![
                vec![0, 3, 4, 1, 5],
                vec![3, 4, 6, 1, 7],
                vec![3, 0, 2, 7],
                vec![0, 6, 3, 2, 8],
                vec![4, 0, 6, 1, 5],
                vec![6, 5],
                vec![6, 3, 7, 1],
                vec![6, 3, 0, 4, 8, 2],
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure2_reduced_lists() {
        // Figure 2(a): the reduced preference lists of the paper's example.
        let inst = figure1_instance();
        let t = DepthTracker::new();
        let g = ReducedGraph::build_parallel(&inst, &t).unwrap();

        // f-posts are {p1, p4, p5, p7} = ids {0, 3, 4, 6}.
        assert_eq!(g.f_posts(), vec![0, 3, 4, 6]);
        // s-posts are {p2, p3, p6, p8, p9} = ids {1, 2, 5, 7, 8}.
        assert_eq!(g.s_posts(), vec![1, 2, 5, 7, 8]);

        let expected: Vec<(usize, usize)> = vec![
            (0, 1), // a1: p1 p2
            (3, 1), // a2: p4 p2
            (3, 2), // a3: p4 p3
            (0, 2), // a4: p1 p3
            (4, 1), // a5: p5 p2
            (6, 5), // a6: p7 p6
            (6, 7), // a7: p7 p8
            (6, 8), // a8: p7 p9
        ];
        for (a, &(fa, sa)) in expected.iter().enumerate() {
            assert_eq!(g.f(a), fa, "f(a{})", a + 1);
            assert_eq!(g.s(a), sa, "s(a{})", a + 1);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let inst = figure1_instance();
        let t = DepthTracker::new();
        assert_eq!(
            ReducedGraph::build_parallel(&inst, &t).unwrap(),
            ReducedGraph::build_sequential(&inst).unwrap()
        );
    }

    #[test]
    fn last_resort_becomes_s_post_when_all_choices_are_f_posts() {
        // Applicant 1 ranks only post 0, which is an f-post (their own first
        // choice), so s(1) must be the last resort l(1).
        let inst = PrefInstance::new_strict(2, vec![vec![0, 1], vec![0]]).unwrap();
        let t = DepthTracker::new();
        let g = ReducedGraph::build_parallel(&inst, &t).unwrap();
        assert_eq!(g.f(1), 0);
        assert_eq!(g.s(1), inst.last_resort(1));
        assert!(g.in_reduced_graph(inst.last_resort(1)));
        assert!(!g.in_reduced_graph(inst.last_resort(0))); // a0 has s(a0) = p1
        assert_eq!(g.s(0), 1);
    }

    #[test]
    fn f_and_s_are_always_distinct() {
        let inst = figure1_instance();
        let g = ReducedGraph::build_sequential(&inst).unwrap();
        for a in 0..inst.num_applicants() {
            assert_ne!(g.f(a), g.s(a));
            assert!(g.is_f_post(g.f(a)));
            assert!(!g.is_f_post(g.s(a)));
        }
    }

    #[test]
    fn ties_are_rejected() {
        let tied = PrefInstance::new_with_ties(2, vec![vec![vec![0, 1]]]).unwrap();
        let t = DepthTracker::new();
        assert_eq!(
            ReducedGraph::build_parallel(&tied, &t),
            Err(PopularError::TiesNotSupported)
        );
        assert_eq!(
            ReducedGraph::build_sequential(&tied),
            Err(PopularError::TiesNotSupported)
        );
    }

    #[test]
    fn f_inverse_and_bipartite_view() {
        let inst = figure1_instance();
        let g = ReducedGraph::build_sequential(&inst).unwrap();
        assert_eq!(g.f_inverse(6), vec![5, 6, 7]); // p7 is first choice of a6, a7, a8
        assert_eq!(g.f_inverse(4), vec![4]); // p5 only of a5
        assert!(g.f_inverse(1).is_empty()); // p2 is nobody's first choice

        let bg = g.to_bipartite();
        assert_eq!(bg.n_left(), 8);
        assert_eq!(bg.num_edges(), 16);
        for a in 0..8 {
            assert_eq!(bg.degree_left(a), 2);
            assert!(bg.has_edge(a, g.f(a)));
            assert!(bg.has_edge(a, g.s(a)));
        }
    }
}
