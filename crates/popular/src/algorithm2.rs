//! Algorithm 2: an applicant-complete matching of the reduced graph in NC.
//!
//! The reduced graph `G'` has every applicant with degree exactly 2 (the
//! edges to `f(a)` and `s(a)`), while posts may have any degree.  Algorithm 2
//! works in two stages:
//!
//! 1. **Degree-1 peeling** (the `while` loop): as long as some post has
//!    degree 1, find every maximal path of degree-2 vertices that ends at
//!    such a post, match the edges at even distance from the degree-1
//!    endpoint, and delete the matched vertices.  The maximal paths and the
//!    parities are computed with the "doubling trick": one list-ranking pass
//!    over the *arcs* of the current graph per round.  Lemma 2 bounds the
//!    number of rounds by `⌈log n⌉ + 1`; the realised count is returned in
//!    [`Algorithm2Outcome::peel_rounds`] so experiment E4 can check the bound.
//! 2. **Even-cycle finish**: after the loop (and after dropping isolated
//!    posts) every surviving post has degree ≥ 2 and every surviving
//!    applicant still has degree 2.  If there are fewer posts than
//!    applicants, no applicant-complete matching exists (Hall); otherwise
//!    the remaining graph is 2-regular — a disjoint union of even cycles —
//!    and a perfect matching is read off with the NC matcher of
//!    [`pm_matching::two_regular`].

use rayon::prelude::*;

use pm_pram::compact::compact_indices_fused_into_idx;
use pm_pram::pointer::{min_label_cycles_idx, pointer_jump_roots_into_idx};
use pm_pram::scan::csr_offsets_census_into_u32;
use pm_pram::tracker::{DepthTracker, Phase};
use pm_pram::{par_chunk_len_bytes, Idx, Workspace, SEQUENTIAL_CUTOFF};

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
/// exists).  All scratch — the post→applicant CSR adjacency, liveness
/// flags, the per-round arc successor array, the list-ranking double
/// buffers and the even-cycle orientation labels — is checked out of `ws`,
/// so a warm call performs zero heap allocation.
///
/// The degree-1 peeling loop is the same arc construction as always; the
/// even-cycle finish inlines the 2-regular orientation matcher of
/// `pm_matching::two_regular` directly on the surviving applicants (same
/// canonical min-arc orientation, hence bit-identical output) instead of
/// materialising a compacted `BipartiteGraph`.
pub fn applicant_complete_matching_into(
    total_posts: usize,
    f: &[Idx],
    s: &[Idx],
    matched: &mut [Idx],
    ws: &mut Workspace,
    tracker: &DepthTracker,
) -> (bool, u32) {
    let n_a = f.len();
    let n_p = total_posts;
    debug_assert_eq!(s.len(), n_a);
    debug_assert_eq!(matched.len(), n_a);
    debug_assert!(matched.iter().all(|&m| m.is_none()));
    // The arc encoding below packs 4 arcs per applicant into u32 ids; the
    // instance-size funnel (`pm_popular::instance::MAX_APPLICANTS`) keeps
    // that in range.
    debug_assert!(4 * n_a <= u32::MAX as usize);
    tracker.phase();

    if n_a == 0 {
        return (true, 0);
    }
    // Static adjacency of the reduced graph, post -> incident applicants, in
    // flat CSR form: one counting round, one prefix scan, one fill round —
    // no per-post vectors.
    let mut counts = ws.take_u32(n_p, 0);
    for a in 0..n_a {
        counts[f[a]] += 1;
        counts[s[a]] += 1;
    }
    // A post participates only if it occurs in the reduced graph.  The
    // offsets scan already streams every count, so the post-liveness flags
    // and the alive/degree-1 tallies are folded into the same sweep instead
    // of a separate O(|P|) census pass over `counts`.
    let mut alive_post = ws.take_bool(n_p, false);
    let mut adj_off = ws.take_u32_empty();
    let mut chunk_scratch = ws.take_u32_empty();
    let census = {
        let _span = tracker.span(Phase::Census);
        let (_, census) = csr_offsets_census_into_u32(
            &counts,
            &mut adj_off,
            &mut chunk_scratch,
            &mut alive_post,
            tracker,
        );
        census
    };
    let mut cursor = ws.take_u32_empty();
    cursor.extend_from_slice(&adj_off[..n_p]);
    // Every slot of the flat adjacency is written by the scatter below
    // (the offsets are exact), so the checkout can skip the fill.
    let mut adj_flat = ws.take_idx_dirty(2 * n_a, Idx::ZERO);
    for a in 0..n_a {
        for p in [f[a], s[a]] {
            adj_flat[cursor[p] as usize] = Idx::new(a);
            cursor[p] += 1;
        }
    }

    let mut alive_applicant = ws.take_bool(n_a, true);
    // The survivor counts and the number of alive degree-1 posts are
    // maintained incrementally, so the loop condition and the final Hall
    // check are O(1) instead of an O(|P|) scan per round.
    let mut alive_a_count = n_a;
    let mut alive_p_count = census.nonzero;
    let mut degree_one_count = census.ones;
    let mut post_degree = counts;
    let mut peel_rounds = 0u32;

    // Scratch buffers reused across peeling rounds: the arc successor array
    // is fully rewritten every round (so its checkout skips the fill), the
    // matched-edge list is drained, and the list-ranking result + double
    // buffers persist across rounds.
    let mut succ = ws.take_idx_dirty(4 * n_a, Idx::ZERO);
    let mut root_tail = ws.take_idx_dirty(4 * n_a, Idx::ZERO);
    let mut newly_matched = ws.take_idx_pair_empty();
    let mut jump_root = ws.take_idx_empty();
    let mut jump_dist = ws.take_u32_empty();
    let mut jump_sptr = ws.take_idx_empty();
    let mut jump_sdist = ws.take_u32_empty();

    // Arc encoding: 4a+0 = a -> f(a), 4a+1 = f(a) -> a,
    //               4a+2 = a -> s(a), 4a+3 = s(a) -> a.
    let num_arcs = 4 * n_a;

    loop {
        if degree_one_count == 0 {
            break;
        }
        peel_rounds += 1;
        tracker.round();
        tracker.work(num_arcs as u64);
        assert!(
            peel_rounds as usize <= usize::BITS as usize + 2,
            "degree-1 peeling exceeded the Lemma 2 bound by a wide margin"
        );

        // (Re)build the arc successor structure for this round in the reused
        // scratch buffer: every arc is written exactly once (dead applicants'
        // arcs become self-pointing tails), so no clearing pass is needed.
        // The valid-terminal memo (`root_tail`) is written in the same pass:
        // an applicant->post arc is a terminal iff it self-points into an
        // alive degree-1 post, which is exactly known while choosing the
        // successor.  The per-applicant quads are disjoint, so the rebuild
        // fans out over contiguous applicant chunks.
        succ.resize(num_arcs, Idx::ZERO);
        {
            let (adj_off, adj_flat) = (&adj_off, &adj_flat);
            let (alive_applicant, alive_post) = (&alive_applicant, &alive_post);
            let post_degree = &post_degree;
            let build_quads = |base: usize, quads: &mut [Idx], tails: &mut [Idx]| {
                // Other alive applicant incident to a degree-2 post.
                let other_applicant = |p: Idx, not_a: usize| -> Idx {
                    adj_flat[adj_off[p] as usize..adj_off[p.get() + 1] as usize]
                        .iter()
                        .copied()
                        .find(|&b| b.get() != not_a && alive_applicant[b])
                        .expect("degree-2 post has a second alive applicant")
                };
                for (i, (quad, tail)) in quads.chunks_mut(4).zip(tails.chunks_mut(4)).enumerate() {
                    let a = base + i;
                    tail.fill(Idx::NONE);
                    if !alive_applicant[a] {
                        for (j, arc) in quad.iter_mut().enumerate() {
                            *arc = Idx::new(4 * a + j);
                        }
                        continue;
                    }
                    // Applicant -> post arcs: continue through the post iff
                    // its degree is 2; otherwise the arc is a tail, and a
                    // *valid* terminal iff the post's degree is exactly 1.
                    for (j, p) in [(0usize, f[a]), (2usize, s[a])] {
                        quad[j] = if alive_post[p] && post_degree[p] == 2 {
                            let b = other_applicant(p, a);
                            // Next arc is post -> other applicant b.
                            if f[b] == p {
                                Idx::new(4 * b.get() + 1)
                            } else {
                                Idx::new(4 * b.get() + 3)
                            }
                        } else {
                            if alive_post[p] && post_degree[p] == 1 {
                                tail[j] = p;
                            }
                            Idx::new(4 * a + j)
                        };
                    }
                    // Post -> applicant arcs: always continue through the
                    // applicant to its other post.
                    quad[1] = Idx::new(4 * a + 2); // arrived from f(a), towards s(a)
                    quad[3] = Idx::new(4 * a); // arrived from s(a), towards f(a)
                }
            };
            if n_a >= SEQUENTIAL_CUTOFF {
                let chunk_a = par_chunk_len_bytes(n_a, 4 * std::mem::size_of::<Idx>());
                succ.par_chunks_mut(4 * chunk_a)
                    .zip(root_tail.par_chunks_mut(4 * chunk_a))
                    .enumerate()
                    .for_each(|(ci, (quads, tails))| build_quads(ci * chunk_a, quads, tails));
            } else {
                build_quads(0, &mut succ, &mut root_tail);
            }
        }

        // List-rank every arc: distance and endpoint of its walk (double
        // buffers persist across peeling rounds — no per-round allocation).
        {
            let _span = tracker.span(Phase::Jump);
            pointer_jump_roots_into_idx(
                &succ,
                &mut jump_root,
                &mut jump_dist,
                &mut jump_sptr,
                &mut jump_sdist,
                tracker,
            );
        }

        // An arc's walk is "valid" when it terminates at an applicant->post
        // arc whose head post has degree 1 (that post is the v0 endpoint) —
        // exactly the memo `root_tail` recorded while building `succ`, so
        // the decision loop pays a single lookup per direction instead of
        // re-deriving the test at four random arcs per edge.
        let tail_post = |arc: usize| -> Option<usize> { root_tail[jump_root[arc]].some() };

        // Decide matched edges.  Edge (a, p) has an applicant->post arc A and
        // a post->applicant arc B; if both directions reach a degree-1 post,
        // the smaller post id is chosen as v0 (the "consider the path once"
        // rule of the paper).  The arcs examined are charged through a local
        // accumulator — exact totals, one atomic add for the whole loop.
        newly_matched.clear();
        let mut charged = tracker.local();
        for (a, &a_alive) in alive_applicant.iter().enumerate() {
            if !a_alive {
                continue;
            }
            for (arc_ap, arc_pa, p) in [(4 * a, 4 * a + 1, f[a]), (4 * a + 2, 4 * a + 3, s[a])] {
                if !alive_post[p] {
                    continue;
                }
                charged.add(2);
                let t_fwd = tail_post(arc_ap);
                let t_bwd = tail_post(arc_pa);
                let use_forward = match (t_fwd, t_bwd) {
                    (Some(x), Some(y)) => x <= y,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => continue,
                };
                let dist = if use_forward {
                    jump_dist[arc_ap]
                } else {
                    jump_dist[arc_pa]
                };
                if dist % 2 == 0 && use_forward {
                    // Even distance and the arc is applicant -> post: the post
                    // side is nearer the endpoint, so applicant a takes post p.
                    newly_matched.push((Idx::new(a), p));
                } else if dist % 2 == 0 && !use_forward {
                    // Even distance measured from the other endpoint means the
                    // *applicant* side is nearer that endpoint, which cannot
                    // happen for an applicant->post edge of an alternating
                    // path that starts at a post; skip (the partner edge of
                    // this applicant is the matched one).
                    continue;
                }
            }
        }
        drop(charged);

        assert!(
            !newly_matched.is_empty(),
            "a degree-1 post exists but no edge was matched (internal error)"
        );

        // Apply the matches and delete matched vertices.
        for &(a, p) in newly_matched.iter() {
            debug_assert!(
                matched[a].is_none(),
                "applicant {a} matched twice in one round"
            );
            debug_assert!(alive_post[p]);
            matched[a] = p;
        }
        tracker.round();
        tracker.work(newly_matched.len() as u64);
        for &(a, p) in newly_matched.iter() {
            alive_applicant[a] = false;
            degree_one_count -= usize::from(post_degree[p] == 1);
            alive_post[p] = false;
        }
        alive_a_count -= newly_matched.len();
        alive_p_count -= newly_matched.len();
        // Removing an applicant decrements its posts' degrees; a post
        // dropping to degree 0 is isolated and dies on the spot (the
        // deferred end-of-round sweep the original formulation used reaches
        // the same state — no later decrement can touch a dead post).
        for &(a, _p) in newly_matched.iter() {
            for q in [f[a], s[a]] {
                if alive_post[q] {
                    let d = post_degree[q];
                    post_degree[q] = d - 1;
                    degree_one_count += usize::from(d == 2);
                    if d == 1 {
                        degree_one_count -= 1;
                        alive_post[q] = false;
                        alive_p_count -= 1;
                    }
                }
            }
        }
    }

    // Every surviving applicant still has degree 2; every surviving post has
    // degree ≥ 2.  The incremental survivor counts give the Hall check for
    // free; the survivor *list* (the paper's prefix-sum list compression)
    // is materialised only when the cycle finish actually needs it — on a
    // fully peeled instance the epilogue costs nothing.
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
        let mut alive_as = ws.take_idx_empty();
        {
            let alive_applicant = &alive_applicant;
            compact_indices_fused_into_idx(n_a, |a| alive_applicant[a], &mut alive_as, ws, tracker);
        }
        debug_assert_eq!(alive_as.len(), alive_a_count);
        let k = alive_as.len();
        let num_arcs2 = 2 * k;

        // Arc 2i+j: surviving applicant alive_as[i] takes f (j=0) / s (j=1).
        // next_arc walks two steps along the cycle to the next applicant.
        tracker.round();
        tracker.work(num_arcs2 as u64);
        // app_idx is written for every surviving applicant and read only
        // for surviving applicants; ptr and label are fully initialised
        // below — all three checkouts skip the fill.
        let mut app_idx = ws.take_idx_dirty(n_a, Idx::NONE);
        for (i, &a) in alive_as.iter().enumerate() {
            app_idx[a] = Idx::new(i);
        }
        let mut ptr = ws.take_idx_dirty(num_arcs2, Idx::ZERO);
        let mut label = ws.take_idx_dirty(num_arcs2, Idx::ZERO);
        {
            let (adj_off, adj_flat) = (&adj_off, &adj_flat);
            let (alive_applicant, alive_as) = (&alive_applicant, &alive_as);
            let app_idx = &app_idx;
            let next_arc = |arc: usize| -> Idx {
                let (i, j) = (arc / 2, arc % 2);
                let a = alive_as[i];
                let p = if j == 0 { f[a] } else { s[a] };
                let b = adj_flat[adj_off[p] as usize..adj_off[p.get() + 1] as usize]
                    .iter()
                    .copied()
                    .find(|&b| b != a && alive_applicant[b])
                    .expect("2-regular post has a second surviving applicant");
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
        for (i, &a) in alive_as.iter().enumerate() {
            let take_s = label[2 * i + 1] < label[2 * i];
            matched[a] = if take_s { s[a] } else { f[a] };
        }

        ws.put_idx(alive_as);
        ws.put_idx(app_idx);
        ws.put_idx(ptr);
        ws.put_idx(label);
        ws.put_idx(label_scratch);
        ws.put_idx(ptr_scratch);
    }

    debug_assert!(!feasible || matched.iter().all(|&m| m.is_some()));

    ws.put_u32(adj_off);
    ws.put_u32(chunk_scratch);
    ws.put_u32(cursor);
    ws.put_idx(adj_flat);
    ws.put_u32(post_degree);
    ws.put_bool(alive_applicant);
    ws.put_bool(alive_post);
    ws.put_idx(succ);
    ws.put_idx(root_tail);
    ws.put_idx_pair(newly_matched);
    ws.put_idx(jump_root);
    ws.put_u32(jump_dist);
    ws.put_idx(jump_sptr);
    ws.put_u32(jump_sdist);

    (feasible, peel_rounds)
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
