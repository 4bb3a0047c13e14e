//! Algorithm 2: an applicant-complete matching of the reduced graph in NC.
//!
//! The reduced graph `G'` has every applicant with degree exactly 2 (the
//! edges to `f(a)` and `s(a)`), while posts may have any degree.  Algorithm 2
//! works in two stages:
//!
//! 1. **Degree-1 peeling** (the `while` loop): as long as some post has
//!    degree 1, find every maximal path of degree-2 vertices that ends at
//!    such a post, match the edges at even distance from the degree-1
//!    endpoint, and delete the matched vertices.  Lemma 2 bounds the number
//!    of rounds by `⌈log n⌉ + 1`; the realised count is returned in
//!    [`Algorithm2Outcome::peel_rounds`] so experiment E4 can check the bound.
//! 2. **Even-cycle finish**: after the loop (and after dropping isolated
//!    posts) every surviving post has degree ≥ 2 and every surviving
//!    applicant still has degree 2.  If there are fewer posts than
//!    applicants, no applicant-complete matching exists (Hall); otherwise
//!    the remaining graph is 2-regular — a disjoint union of even cycles —
//!    and a perfect matching is read off with the orientation rule of
//!    [`pm_matching::two_regular`].
//!
//! The edge an applicant gets in a peel round is a local decision.  Call an
//! applicant's *side* the walk that leaves it through one of its two posts
//! and continues through every post of degree exactly 2 (a post of degree 2
//! passes the walk to its other applicant, and that applicant passes it on
//! through its other post).  Edge `(a, p)` lies at even distance from the
//! degree-1 endpoint of a maximal path exactly when `a`'s side through `p`
//! ends at that endpoint, and when both sides of `a` end at degree-1 posts
//! the paper considers the path once, from the smaller endpoint.  So every
//! applicant takes the post on the side whose walk ends at the smaller
//! degree-1 post, and no distance is ever needed.  Only the *chain nodes*
//! (sides that enter a degree-2 post) have walks longer than one edge; they
//! are pointer-jumped to the end of their walk ("the doubling trick"), and
//! every other side is decided by its post's degree alone.
//!
//! Two numbers per post carry the whole graph: its alive degree and the XOR
//! of its alive applicants' ids.  At a post of degree 2 the other applicant
//! is `xor ^ a`, so neither stage needs an adjacency list.

use rayon::prelude::*;

use pm_pram::pointer::{min_label_cycles_idx, pointer_jump_roots_into_idx};
use pm_pram::tracker::{DepthTracker, Phase};
use pm_pram::{Idx, Workspace, SEQUENTIAL_CUTOFF};

use crate::instance::Assignment;
use crate::reduced::ReducedGraph;

/// The outcome of Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Algorithm2Outcome {
    /// The applicant-complete matching of the reduced graph (each applicant
    /// mapped to `f(a)` or `s(a)`), or `None` if none exists.
    pub assignment: Option<Assignment>,
    /// Number of iterations of the degree-1 peeling loop (Lemma 2 bounds
    /// this by `⌈log₂ n⌉ + 1`).
    pub peel_rounds: u32,
}

/// Runs Algorithm 2 on a reduced graph.
pub fn applicant_complete_matching(g: &ReducedGraph, tracker: &DepthTracker) -> Algorithm2Outcome {
    let mut matched = vec![Idx::NONE; g.num_applicants()];
    let (feasible, peel_rounds) = applicant_complete_matching_into(
        g.total_posts(),
        g.f_slice(),
        g.s_slice(),
        &mut matched,
        &mut Workspace::new(),
        tracker,
    );
    Algorithm2Outcome {
        assignment: feasible.then(|| Assignment::from_idx_vec(matched)),
        peel_rounds,
    }
}

/// Allocation-free core of Algorithm 2, the heart of the warm serving path.
///
/// `f`/`s` are the reduced edges (one pair per applicant), `matched` is the
/// output buffer — every slot must be `Idx::NONE` on entry and every slot
/// is written iff the return flag is `true` (an applicant-complete matching
/// exists).  All scratch — the per-post degree and XOR arrays, the alive
/// applicant list, the chain nodes and their pointer-jumping buffers, and
/// the even-cycle orientation labels — is checked out of `ws`, so a warm
/// call performs zero heap allocation.
///
/// A side of applicant `a` is numbered `2a` (through `f(a)`) or `2a + 1`
/// (through `s(a)`).  The loops are sequential; the pointer jumping over
/// the chain nodes and the even-cycle finish run in parallel above
/// [`SEQUENTIAL_CUTOFF`] elements.  The even-cycle finish matches the
/// surviving applicants with the canonical min-arc orientation of
/// `pm_matching::two_regular`, on the original vertex ids.
pub fn applicant_complete_matching_into(
    total_posts: usize,
    f: &[Idx],
    s: &[Idx],
    matched: &mut [Idx],
    ws: &mut Workspace,
    tracker: &DepthTracker,
) -> (bool, u32) {
    let n_a = f.len();
    debug_assert_eq!(s.len(), n_a);
    debug_assert_eq!(matched.len(), n_a);
    debug_assert!(matched.iter().all(|&m| m.is_none()));
    // Side ids go up to 2a + 1; the instance-size funnel
    // (`pm_popular::instance::MAX_APPLICANTS`) keeps them in range.
    debug_assert!(2 * n_a <= Idx::MAX_INDEX);
    tracker.phase();

    if n_a == 0 {
        return (true, 0);
    }
    let side_post = |side: usize| -> Idx {
        if side & 1 == 0 {
            f[side / 2]
        } else {
            s[side / 2]
        }
    };

    // One scatter builds each post's alive degree and the XOR of its alive
    // applicants, and tallies the alive and degree-1 posts as the degrees
    // change, so the loop condition and the final Hall check are O(1).
    let mut deg = ws.take_u32(total_posts, 0);
    let mut xor = ws.take_u32(total_posts, 0);
    let mut alive_p_count = 0usize;
    let mut degree_one_count = 0usize;
    {
        let _span = tracker.span(Phase::Census);
        tracker.round();
        tracker.work(2 * n_a as u64);
        for a in 0..n_a {
            for p in [f[a], s[a]] {
                let d = deg[p];
                deg[p] = d + 1;
                xor[p] ^= a as u32;
                alive_p_count += usize::from(d == 0);
                degree_one_count = degree_one_count + usize::from(d == 0) - usize::from(d == 1);
            }
        }
    }

    // The unmatched applicants, in increasing order; an applicant matched in
    // a round leaves the list in the next round's scan.
    let mut alive = ws.take_idx_dirty(n_a, Idx::ZERO);
    for (i, a) in alive.iter_mut().enumerate() {
        *a = Idx::new(i);
    }
    let mut alive_a_count = n_a;
    // Per round: each chain side's index among the chain nodes (written and
    // read only for chain sides, so the checkout skips the fill), the chain
    // nodes (side ids), the applicants with a chain side, each chain node's
    // successor and walk end, the pointer-jumping buffers, and the
    // applicants matched in this round.
    let mut slot = ws.take_idx_dirty(2 * n_a, Idx::ZERO);
    let mut newly_matched = ws.take_idx_empty();
    let mut chain = ws.take_idx_empty();
    let mut pending = ws.take_idx_empty();
    let mut parent = ws.take_idx_empty();
    let mut tail = ws.take_idx_empty();
    let mut jump_root = ws.take_idx_empty();
    let mut jump_dist = ws.take_u32_empty();
    let mut jump_sptr = ws.take_idx_empty();
    let mut jump_sdist = ws.take_u32_empty();
    let mut peel_rounds = 0u32;

    while degree_one_count > 0 {
        peel_rounds += 1;
        assert!(
            peel_rounds as usize <= usize::BITS as usize + 2,
            "degree-1 peeling exceeded the Lemma 2 bound by a wide margin"
        );

        // Scan the alive applicants: drop last round's matches, decide every
        // applicant whose posts both have degree ≠ 2 (a degree-1 post ends
        // its side at once; any other post ends it nowhere), and collect
        // the chain nodes of the rest.
        tracker.round();
        tracker.work(alive.len() as u64);
        chain.clear();
        pending.clear();
        newly_matched.clear();
        let mut kept = 0;
        for i in 0..alive.len() {
            let a = alive[i];
            if matched[a].is_some() {
                continue;
            }
            alive[kept] = a;
            kept += 1;
            let (pf, ps) = (f[a], s[a]);
            let (df, ds) = (deg[pf], deg[ps]);
            if df != 2 && ds != 2 {
                let end_f = if df == 1 { pf } else { Idx::NONE };
                let end_s = if ds == 1 { ps } else { Idx::NONE };
                if let Some(p) = nearer_end(end_f, end_s, pf, ps) {
                    matched[a] = p;
                    newly_matched.push(a);
                }
                continue;
            }
            pending.push(a);
            for (side, d) in [(2 * a.get(), df), (2 * a.get() + 1, ds)] {
                if d == 2 {
                    slot[side] = Idx::new(chain.len());
                    chain.push(Idx::new(side));
                }
            }
        }
        alive.truncate(kept);

        // Chain nodes: each points at the chain node its walk enters next,
        // or is a root whose walk ends at its successor's post.  Pointer
        // jumping takes every chain node to its root; the applicants with a
        // chain side then decide like the others.
        {
            let _span = tracker.span(Phase::Jump);
            if !chain.is_empty() {
                tracker.round();
                tracker.work(chain.len() as u64);
                parent.clear();
                tail.clear();
                for (i, &side) in chain.iter().enumerate() {
                    let (a, p) = (side.get() / 2, side_post(side.get()));
                    // The other applicant at p, and its side that leaves p.
                    let b = Idx::from_raw(xor[p] ^ a as u32);
                    let next = 2 * b.get() + usize::from(f[b] == p);
                    let q = side_post(next);
                    if deg[q] == 2 {
                        parent.push(slot[next]);
                        tail.push(Idx::NONE);
                    } else {
                        parent.push(Idx::new(i));
                        tail.push(if deg[q] == 1 { q } else { Idx::NONE });
                    }
                }
                pointer_jump_roots_into_idx(
                    &parent,
                    &mut jump_root,
                    &mut jump_dist,
                    &mut jump_sptr,
                    &mut jump_sdist,
                    tracker,
                );
                tracker.round();
                tracker.work(pending.len() as u64);
                let end = |side: usize| -> Idx {
                    let p = side_post(side);
                    match deg[p] {
                        1 => p,
                        2 => tail[jump_root[slot[side]]],
                        _ => Idx::NONE,
                    }
                };
                for &a in pending.iter() {
                    let (end_f, end_s) = (end(2 * a.get()), end(2 * a.get() + 1));
                    if let Some(p) = nearer_end(end_f, end_s, f[a], s[a]) {
                        matched[a] = p;
                        newly_matched.push(a);
                    }
                }
            }
        }
        assert!(
            !newly_matched.is_empty(),
            "a degree-1 post exists but no edge was matched (internal error)"
        );

        // Apply the matches: a matched post dies; the applicant leaves its
        // other post, which dies on the spot if that was its last applicant
        // (no later decrement can touch a dead post).
        tracker.round();
        tracker.work(newly_matched.len() as u64);
        for &a in newly_matched.iter() {
            let p = matched[a];
            debug_assert!(deg[p] > 0, "post {p:?} matched twice in one round");
            degree_one_count -= usize::from(deg[p] == 1);
            deg[p] = 0;
            alive_p_count -= 1;
            let q = if f[a] == p { s[a] } else { f[a] };
            let d = deg[q];
            if d > 0 {
                deg[q] = d - 1;
                xor[q] ^= a.raw();
                degree_one_count += usize::from(d == 2);
                if d == 1 {
                    degree_one_count -= 1;
                    alive_p_count -= 1;
                }
            }
        }
        alive_a_count -= newly_matched.len();
    }
    // The round scratch goes back before the finish checks out its own,
    // so the finish reuses it instead of growing the pools.
    ws.put_idx(slot);
    ws.put_idx(newly_matched);
    ws.put_idx(chain);
    ws.put_idx(pending);
    ws.put_idx(parent);
    ws.put_idx(tail);
    ws.put_idx(jump_root);
    ws.put_u32(jump_dist);
    ws.put_idx(jump_sptr);
    ws.put_u32(jump_sdist);

    // Every surviving applicant still has degree 2; every surviving post has
    // degree ≥ 2.  The incremental survivor counts give the Hall check for
    // free.
    let feasible = alive_p_count >= alive_a_count;
    if feasible && alive_a_count > 0 {
        // |P| >= |A| together with the degree count forces |P| = |A| and a
        // 2-regular remainder (see the correctness argument in the paper):
        // a disjoint union of even cycles.  Pick one traversal orientation
        // per cycle — canonically, the one containing the smallest arc id —
        // by min-label pointer doubling, and match every surviving
        // applicant to its successor post in that orientation.  This is the
        // `two_regular` matcher inlined on the original vertex ids.
        debug_assert_eq!(alive_p_count, alive_a_count);
        alive.retain(|&a| matched[a].is_none());
        debug_assert_eq!(alive.len(), alive_a_count);
        let k = alive.len();
        let num_arcs2 = 2 * k;

        // Arc 2i+j: surviving applicant alive[i] takes f (j=0) / s (j=1).
        // next_arc walks two steps along the cycle to the next applicant.
        tracker.round();
        tracker.work(num_arcs2 as u64);
        // app_idx is written for every surviving applicant and read only
        // for surviving applicants; ptr and label are fully initialised
        // below — all three checkouts skip the fill.
        let mut app_idx = ws.take_idx_dirty(n_a, Idx::NONE);
        for (i, &a) in alive.iter().enumerate() {
            app_idx[a] = Idx::new(i);
        }
        let mut ptr = ws.take_idx_dirty(num_arcs2, Idx::ZERO);
        let mut label = ws.take_idx_dirty(num_arcs2, Idx::ZERO);
        {
            let (alive, app_idx, xor) = (&alive, &app_idx, &xor);
            let next_arc = |arc: usize| -> Idx {
                let a = alive[arc / 2];
                let p = if arc & 1 == 0 { f[a] } else { s[a] };
                let b = Idx::from_raw(xor[p] ^ a.raw());
                let ib = app_idx[b].get();
                if f[b] == p {
                    Idx::new(2 * ib + 1)
                } else {
                    Idx::new(2 * ib)
                }
            };
            if num_arcs2 >= SEQUENTIAL_CUTOFF {
                ptr.par_iter_mut()
                    .enumerate()
                    .for_each(|(arc, p)| *p = next_arc(arc));
            } else {
                for (arc, p) in ptr.iter_mut().enumerate() {
                    *p = next_arc(arc);
                }
            }
        }
        for (arc, l) in label.iter_mut().enumerate() {
            *l = Idx::new(arc);
        }

        // Min-label pointer doubling over the orientation cycles — the
        // shared `pm_pram` primitive, double-buffered through checked-out
        // scratch, with the sound no-label-changed early exit (random
        // instances have short cycles and converge in a handful of rounds).
        let mut label_scratch = ws.take_idx_dirty(num_arcs2, Idx::ZERO);
        let mut ptr_scratch = ws.take_idx_dirty(num_arcs2, Idx::ZERO);
        {
            let _span = tracker.span(Phase::Jump);
            min_label_cycles_idx(
                &mut label,
                &mut ptr,
                &mut label_scratch,
                &mut ptr_scratch,
                tracker,
            );
        }

        // One parallel round: each surviving applicant keeps the arc whose
        // orientation cycle has the smaller canonical label.
        tracker.round();
        tracker.work(k as u64);
        for (i, &a) in alive.iter().enumerate() {
            let take_s = label[2 * i + 1] < label[2 * i];
            matched[a] = if take_s { s[a] } else { f[a] };
        }

        ws.put_idx(app_idx);
        ws.put_idx(ptr);
        ws.put_idx(label);
        ws.put_idx(label_scratch);
        ws.put_idx(ptr_scratch);
    }

    debug_assert!(!feasible || matched.iter().all(|&m| m.is_some()));

    ws.put_u32(deg);
    ws.put_u32(xor);
    ws.put_idx(alive);

    (feasible, peel_rounds)
}

/// The post an applicant takes, given where its two sides end (`NONE` for a
/// side that ends at no degree-1 post): the post on the side that ends at
/// the smaller degree-1 post, or `None` while neither side ends at one.
#[inline]
fn nearer_end(end_f: Idx, end_s: Idx, pf: Idx, ps: Idx) -> Option<Idx> {
    if end_f.is_none() && end_s.is_none() {
        None
    } else if end_f <= end_s {
        Some(pf)
    } else {
        Some(ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PrefInstance;

    fn figure1_instance() -> PrefInstance {
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

    fn check_applicant_complete(g: &ReducedGraph, m: &Assignment) {
        for a in 0..g.num_applicants() {
            let p = m.post(a);
            assert!(
                p == g.f(a) || p == g.s(a),
                "applicant {a} not matched to f or s"
            );
        }
        // No post used twice.
        let mut used = vec![false; g.total_posts()];
        for a in 0..g.num_applicants() {
            assert!(!used[m.post(a)], "post {} used twice", m.post(a));
            used[m.post(a)] = true;
        }
    }

    #[test]
    fn empty_instance() {
        let inst = PrefInstance::new_strict(0, vec![]).unwrap();
        let t = DepthTracker::new();
        let g = ReducedGraph::build_parallel(&inst, &t).unwrap();
        let out = applicant_complete_matching(&g, &t);
        assert_eq!(out.assignment.unwrap().num_applicants(), 0);
        assert_eq!(out.peel_rounds, 0);
    }

    #[test]
    fn paper_example_peels_four_pairs_then_matches_cycles() {
        // Section III-C: the while loop matches (a8,p9), (a6,p6), (a7,p8),
        // (a5,p5); the remaining graph is the even cycle on
        // {a1..a4, p1..p4}.
        let inst = figure1_instance();
        let t = DepthTracker::new();
        let g = ReducedGraph::build_parallel(&inst, &t).unwrap();
        let out = applicant_complete_matching(&g, &t);
        let m = out
            .assignment
            .expect("the paper example has a popular matching");
        check_applicant_complete(&g, &m);

        // Peeled pairs reported in the paper (0-indexed): a8->p9, a6->p6, a7->p8, a5->p5.
        assert_eq!(m.post(7), 8);
        assert_eq!(m.post(5), 5);
        assert_eq!(m.post(6), 7);
        assert_eq!(m.post(4), 4);
        // a1..a4 are matched within {p1, p2, p3, p4} = ids {0,1,2,3}.
        for a in 0..4 {
            assert!(m.post(a) <= 3);
        }
        assert!(out.peel_rounds >= 1);
    }

    #[test]
    fn unsolvable_instance_detected() {
        // Three applicants all with the single post 0 as first choice and no
        // other acceptable post: the reduced graph has posts {p0, l(a0),
        // l(a1), l(a2)}, but p0 can serve only one applicant and the other
        // two take their last resorts — that IS applicant-complete.  To get a
        // genuinely unsolvable instance we need more applicants than posts in
        // some subgraph of G': two applicants with identical two-post lists
        // where both posts are f-posts of others.
        //
        //   a0: p0          (f = p0, s = l0)
        //   a1: p1          (f = p1, s = l1)
        //   a2: p0 p1       (f = p0, s = l2)
        //   a3: p0 p1       (f = p0, s = l3)
        // Reduced graph: every applicant has its own last resort except that
        // all of a2, a3 compete for p0 — still solvable via last resorts.
        // A genuinely unsolvable case needs s-posts to collide:
        //   a0: p0 p2
        //   a1: p1 p2
        //   a2: p0 p2
        // f-posts {p0, p1}; s(a0)=s(a1)=s(a2)=p2.  G' has applicants {a0,a1,a2}
        // adjacent to {p0,p2}, {p1,p2}, {p0,p2}.  An applicant-complete
        // matching needs 3 distinct posts for {a0,a2} ⊂ {p0,p2} — impossible?
        // a0->p0, a2->p2, a1->p1 works, so that's solvable too.  Use:
        //   a0: p0 p2
        //   a1: p0 p2
        //   a2: p0 p2
        // f-post {p0}, s = p2 for all three: 3 applicants, 2 posts -> None.
        let inst = PrefInstance::new_strict(3, vec![vec![0, 2], vec![0, 2], vec![0, 2]]).unwrap();
        let t = DepthTracker::new();
        let g = ReducedGraph::build_parallel(&inst, &t).unwrap();
        let out = applicant_complete_matching(&g, &t);
        assert!(out.assignment.is_none());
    }

    #[test]
    fn single_applicant() {
        let inst = PrefInstance::new_strict(2, vec![vec![0, 1]]).unwrap();
        let t = DepthTracker::new();
        let g = ReducedGraph::build_parallel(&inst, &t).unwrap();
        let out = applicant_complete_matching(&g, &t);
        let m = out.assignment.unwrap();
        check_applicant_complete(&g, &m);
    }

    #[test]
    fn pure_even_cycle_instance_needs_no_peeling() {
        // Two applicants sharing the same f-post and s-post is impossible
        // (f-posts are distinct from s-posts); build a 4-cycle instead:
        //   a0: p0 p2..., a1: p1 ... with s(a0)=s(a1) impossible to be a
        // cycle of length 4 needs: a0 - p0, a0 - p2, a1 - p1 ... Simplest:
        //   a0: p0 p2
        //   a1: p2 ... no, p2 must not be an f-post.
        // Use: a0: p0 p2 ; a1: p1 p2 — f-posts {p0, p1}, s = p2 for both.
        // G': a0-{p0,p2}, a1-{p1,p2}: a path, not a cycle (p2 has degree 2,
        // p0 and p1 degree 1) — peeled.  A genuine 2-regular component needs
        // two applicants sharing BOTH posts: a0: p0 p2, a1: p0 p2 is invalid
        // (s-post equals for both but f also equal => both posts shared):
        //   a0: p0 p2
        //   a1: p0 p2
        // f-post {p0}, s = p2 for both: cycle a0-p0-a1-p2-a0 of length 4.
        let inst = PrefInstance::new_strict(3, vec![vec![0, 2], vec![0, 2]]).unwrap();
        let t = DepthTracker::new();
        let g = ReducedGraph::build_parallel(&inst, &t).unwrap();
        let out = applicant_complete_matching(&g, &t);
        let m = out.assignment.unwrap();
        check_applicant_complete(&g, &m);
        assert_eq!(out.peel_rounds, 0, "a pure even cycle needs no peeling");
        assert_eq!(m.size(&inst), 2);
    }

    #[test]
    fn long_path_instances_peel_in_logarithmic_rounds() {
        // Build an instance whose reduced graph is one long path:
        //   a_i: p_i p_{i+1}  with p_0 .. p_n, and only p_i are f-posts.
        // f(a_i) = p_i; s(a_i) = p_{i+1} provided p_{i+1} is not an f-post,
        // which fails for interior posts.  Instead use the "chain" instance:
        //   a_i: q_i q_{i+1}   where q_j is never anyone's first choice except
        // q_i for a_i — then f(a_i) = q_i is an f-post and s(a_i) = q_{i+1}
        // only if q_{i+1} is not an f-post, again false.  A reliable way to
        // get long paths is a "ladder": applicants 0..n share s-post chain.
        // Simpler large test: many disjoint 3-vertex paths — peeling is one
        // round regardless of n, plus a pseudo-random large instance below.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for &n in &[50usize, 500, 5000] {
            let num_posts = n;
            let lists: Vec<Vec<usize>> = (0..n)
                .map(|a| {
                    let mut l = vec![a % num_posts];
                    // a few random lower choices
                    for _ in 0..3 {
                        let p = rng.random_range(0..num_posts);
                        if !l.contains(&p) {
                            l.push(p);
                        }
                    }
                    l
                })
                .collect();
            let inst = PrefInstance::new_strict(num_posts, lists).unwrap();
            let t = DepthTracker::new();
            let g = ReducedGraph::build_parallel(&inst, &t).unwrap();
            let out = applicant_complete_matching(&g, &t);
            let m = out
                .assignment
                .expect("instances with distinct f-posts are solvable");
            check_applicant_complete(&g, &m);
            let bound = (n as f64).log2().ceil() as u32 + 1;
            assert!(
                out.peel_rounds <= bound,
                "peel rounds {} exceeded Lemma 2 bound {bound} for n={n}",
                out.peel_rounds
            );
        }
    }
}
