//! Algorithm 3: maximum-cardinality popular matching in NC (Section IV).
//!
//! Let `A₁` be the applicants with `s(a) = l(a)` — the only ones that can
//! ever occupy a last resort in a popular matching.  Among all matchings
//! satisfying Theorem 1, the maximum-cardinality popular matching allocates
//! the fewest `A₁`-applicants to their last resorts.  By Theorem 9 every
//! popular matching is reachable from an arbitrary one by applying at most
//! one switching path per tree component and optionally the switching cycle
//! of each cycle component, and those moves are independent across
//! components — so maximising the total margin decomposes component-wise:
//! apply every switching cycle with positive margin, and in every tree
//! component the switching path of largest margin if that margin is
//! positive.
//!
//! The margin telescopes.  The edge `p → succ(p)` of `G_M` has margin
//! `real(succ(p)) − real(p)` (Definition 4), where `real(x)` is 1 for a
//! real post and 0 for a last resort, so a switching path from `q` to its
//! sink `r` has margin `real(r) − real(q) ∈ {−1, 0, +1}`, and a switching
//! cycle has margin 0.  A positive move is therefore a path from a matched
//! last resort to an unmatched real post, and "largest margin, ties to the
//! smallest start" elects, for every real sink, the smallest matched last
//! resort whose walk ends there.  No margin is summed: plain root pointer
//! jumping over `G_M` finds every walk's endpoint, so Algorithm 3 adds
//! `⌈log₂(|P| + |A|)⌉ + 3` rounds, `O(log n)` depth, to Algorithm 1
//! (the switching-path walks are charged as work, not depth).  When
//! Algorithm 1 leaves no applicant on a last resort, one round finds that
//! there is nothing to do.

use pm_pram::tracker::DepthTracker;
use pm_pram::{pointer_jump_roots_into_idx, Idx, Workspace};

use crate::algorithm1::popular_matching_run;
use crate::error::PopularError;
use crate::instance::{Assignment, PrefInstance};
use crate::reduced::ReducedGraph;
use crate::switching::{ComponentKind, SwitchingGraph};

/// Improves an arbitrary popular matching to a maximum-cardinality popular
/// matching by applying the positive-margin switching moves (the body of
/// Algorithm 3).  Thin wrapper over the allocation-free
/// [`improve_to_maximum_cardinality_ws`].
pub fn improve_to_maximum_cardinality(
    reduced: &ReducedGraph,
    matching: &Assignment,
    tracker: &DepthTracker,
) -> Assignment {
    let mut improved = matching.clone();
    improve_to_maximum_cardinality_ws(
        reduced.f_slice(),
        reduced.s_slice(),
        reduced.num_posts(),
        improved.as_mut_slice(),
        &mut Workspace::new(),
        tracker,
    );
    improved
}

/// Allocation-free core of Algorithm 3 on raw reduced-graph buffers:
/// applies in place, for every real sink of the switching graph `G_M` of
/// `matched`, the switching path from the smallest matched last resort
/// whose walk ends there (the module docs show that these are exactly the
/// positive-margin moves).
///
/// One round first scans `matched` and returns if no applicant is on a
/// last resort.  Otherwise `G_M` is built in checked-out scratch with sinks
/// pointing at themselves, and [`pointer_jump_roots_into_idx`] takes every
/// post to the end of its walk.  A walk inside a cycle component never
/// ends at a sink, so cycles need no marking.  An election round then
/// picks the starts, ascending over applicants, and the paths are walked.
pub fn improve_to_maximum_cardinality_ws(
    f: &[Idx],
    s: &[Idx],
    num_posts: usize,
    matched: &mut [Idx],
    ws: &mut Workspace,
    tracker: &DepthTracker,
) {
    let n_a = f.len();
    debug_assert_eq!(matched.len(), n_a);
    tracker.phase();
    tracker.round();
    tracker.work(n_a as u64);
    if matched.iter().all(|m| m.get() < num_posts) {
        return;
    }

    // Build G_M: succ[p] = the other reduced post of the applicant matched
    // to p, out_applicant[p] = that applicant; an unmatched post is a sink
    // and points at itself (f(a) ≠ s(a), so no matched post does).
    let total = num_posts + n_a;
    tracker.round();
    tracker.work(n_a as u64);
    let mut succ = ws.take_idx_empty();
    succ.extend((0..total).map(Idx::new));
    // Read only at matched posts, each of which the loop below writes.
    let mut out_applicant = ws.take_idx_dirty(total, Idx::NONE);
    for a in 0..n_a {
        let m = matched[a];
        debug_assert!(
            m == f[a] || m == s[a],
            "switching graph requires a Theorem 1 matching"
        );
        debug_assert_eq!(succ[m], m, "post {m} matched to two applicants");
        succ[m] = if m == f[a] { s[a] } else { f[a] };
        out_applicant[m] = Idx::new(a);
    }

    let mut root = ws.take_idx_empty();
    let mut dist = ws.take_u32_empty();
    let mut ptr_scratch = ws.take_idx_empty();
    let mut dist_scratch = ws.take_u32_empty();
    pointer_jump_roots_into_idx(
        &succ,
        &mut root,
        &mut dist,
        &mut ptr_scratch,
        &mut dist_scratch,
        tracker,
    );

    // Election round: for every real sink, the first applicant in
    // ascending order whose last resort's walk ends there.  Last resort
    // l(a) is post num_posts + a, so that is the smallest start.
    tracker.round();
    tracker.work(n_a as u64);
    let mut best_start = ws.take_idx(num_posts, Idx::NONE);
    for &q in matched.iter() {
        if q.get() < num_posts {
            continue;
        }
        let r = root[q];
        if r.get() < num_posts && succ[r] == r && best_start[r].is_none() {
            best_start[r] = q;
        }
    }

    // Apply the elected switching paths (disjoint across components, total
    // walk length ≤ |P|).
    let mut charged = tracker.local();
    for &q in best_start.iter().filter(|q| q.is_some()) {
        let mut v = q;
        while succ[v] != v {
            matched[out_applicant[v]] = succ[v];
            v = succ[v];
            charged.add(1);
        }
    }
    drop(charged);

    ws.put_idx(succ);
    ws.put_idx(out_applicant);
    ws.put_idx(root);
    ws.put_u32(dist);
    ws.put_idx(ptr_scratch);
    ws.put_u32(dist_scratch);
    ws.put_idx(best_start);
}

/// Runs Algorithm 1 followed by Algorithm 3 and returns a maximum-cardinality
/// popular matching (or the usual errors if none exists / ties are present).
/// Thin wrapper over a fresh [`crate::solver::PopularSolver`]; services
/// should hold a solver and call
/// [`solve_max_cardinality`](crate::solver::PopularSolver::solve_max_cardinality)
/// for warm allocation-free solves.
pub fn maximum_cardinality_popular_matching_nc(
    inst: &PrefInstance,
    tracker: &DepthTracker,
) -> Result<Assignment, PopularError> {
    let mut solver = crate::solver::PopularSolver::new(0, 0);
    let result = solver.solve_max_cardinality(inst).map(|_| ());
    tracker.absorb(solver.stats());
    result.map(|()| solver.take_matching())
}

/// Sequential baseline for Algorithm 3: identical component logic but every
/// switching-path margin is computed by walking the path.
pub fn maximum_cardinality_popular_matching_sequential(
    inst: &PrefInstance,
) -> Result<Assignment, PopularError> {
    let tracker = DepthTracker::new();
    let run = popular_matching_run(inst, &tracker)?;
    let sg = SwitchingGraph::build(&run.reduced, &run.matching, &tracker);
    let components = sg.components(&tracker);
    let mut improved = run.matching.clone();
    for comp in &components {
        match &comp.kind {
            ComponentKind::Cycle(cycle) => {
                if sg.cycle_margin(cycle) > 0 {
                    sg.apply_cycle(&mut improved, cycle);
                }
            }
            ComponentKind::Tree { sink } => {
                let best = comp
                    .posts
                    .iter()
                    .copied()
                    .filter(|&q| q != *sink && sg.is_s_post(q))
                    .filter_map(|q| sg.path_margin(q).map(|m| (m, std::cmp::Reverse(q))))
                    .max();
                if let Some((margin, std::cmp::Reverse(q))) = best {
                    if margin > 0 {
                        sg.apply_path(&mut improved, q);
                    }
                }
            }
        }
    }
    Ok(improved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{enumerate_assignments, is_popular_characterization};

    fn random_instance(rng: &mut impl rand::RngExt, max_a: usize, max_p: usize) -> PrefInstance {
        let n_a = rng.random_range(1..=max_a);
        let n_p = rng.random_range(1..=max_p);
        let lists: Vec<Vec<usize>> = (0..n_a)
            .map(|_| {
                let mut posts: Vec<usize> = (0..n_p).collect();
                for i in (1..posts.len()).rev() {
                    posts.swap(i, rng.random_range(0..=i));
                }
                posts.truncate(rng.random_range(1..=posts.len()));
                posts
            })
            .collect();
        PrefInstance::new_strict(n_p, lists).unwrap()
    }

    /// The maximum size over all popular matchings, by brute force.
    fn brute_force_max_popular_size(inst: &PrefInstance) -> Option<usize> {
        enumerate_assignments(inst)
            .into_iter()
            .filter(|m| is_popular_characterization(inst, m))
            .map(|m| m.size(inst))
            .max()
    }

    #[test]
    fn instance_where_arbitrary_popular_matching_is_not_maximum() {
        // a0: p0           (A1-applicant: s(a0) = l(a0))
        // a1: p0 p1        (s(a1) = p1)
        // f-post {p0}; two popular matchings exist:
        //   M1 = {a0->l(a0), a1->p0}            size 1
        //   M2 = {a0->p0,    a1->p1}            size 2  (maximum)
        let inst = PrefInstance::new_strict(2, vec![vec![0], vec![0, 1]]).unwrap();
        let t = DepthTracker::new();

        let small = Assignment::new(vec![inst.last_resort(0), 0]);
        let large = Assignment::new(vec![0, 1]);
        assert!(is_popular_characterization(&inst, &small));
        assert!(is_popular_characterization(&inst, &large));

        let max = maximum_cardinality_popular_matching_nc(&inst, &t).unwrap();
        assert!(is_popular_characterization(&inst, &max));
        assert_eq!(max.size(&inst), 2);

        // Improving the small matching directly also reaches size 2.
        let reduced = ReducedGraph::build_sequential(&inst).unwrap();
        let improved = improve_to_maximum_cardinality(&reduced, &small, &t);
        assert!(is_popular_characterization(&inst, &improved));
        assert_eq!(improved.size(&inst), 2);
    }

    #[test]
    fn switching_cycle_with_positive_margin_is_applied() {
        // Build an instance whose switching graph has a cycle with positive
        // margin: applicants a0, a1 share posts so that one orientation of
        // the cycle uses a last resort and the other does not.  Cycle margins
        // are 0 unless a last resort lies ON the cycle, which happens when
        // s(a) = l(a) for a cycle applicant:
        //   a0: p0        f=p0, s=l0
        //   a1: p0 p1     f=p0, s=p1
        //   a2: p1 p0...  we need l0 to be on a cycle: l0 has degree 1 in G'
        // (only a0 is adjacent), so it can never be on a cycle — cycles in
        // G_M need both endpoints matched...  In fact a last resort can be on
        // a switching cycle: G_M vertices are posts; the cycle needs every
        // vertex matched; l0 matched to a0 and O_M(a0) = p0 gives edge
        // l0 -> p0, and p0 -> l0 requires the applicant matched to p0 to have
        // l0 on its reduced list — impossible (l0 belongs to a0 only).  So a
        // switching cycle never contains a last resort, its margin is always
        // 0, and Algorithm 3 never applies cycles.  We assert that here as a
        // structural sanity check on random instances below.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        use rand::SeedableRng;
        for _ in 0..50 {
            let inst = random_instance(&mut rng, 5, 5);
            let t = DepthTracker::new();
            let Ok(run) = popular_matching_run(&inst, &t) else {
                continue;
            };
            let sg = SwitchingGraph::build(&run.reduced, &run.matching, &t);
            for comp in sg.components(&t) {
                if let ComponentKind::Cycle(cycle) = comp.kind {
                    assert_eq!(sg.cycle_margin(&cycle), 0);
                }
            }
        }
    }

    #[test]
    fn nc_result_matches_brute_force_maximum_size() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut solvable = 0;
        for _ in 0..250 {
            let inst = random_instance(&mut rng, 5, 4);
            let t = DepthTracker::new();
            match maximum_cardinality_popular_matching_nc(&inst, &t) {
                Ok(m) => {
                    assert!(m.is_valid(&inst));
                    assert!(is_popular_characterization(&inst, &m));
                    let best = brute_force_max_popular_size(&inst).unwrap();
                    assert_eq!(m.size(&inst), best, "not maximum for {inst:?}");
                    solvable += 1;
                }
                Err(PopularError::NoPopularMatching) => {
                    assert!(brute_force_max_popular_size(&inst).is_none());
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(solvable > 50);
    }

    #[test]
    fn sequential_and_nc_agree_on_sizes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        for _ in 0..150 {
            let inst = random_instance(&mut rng, 6, 5);
            let t = DepthTracker::new();
            let nc = maximum_cardinality_popular_matching_nc(&inst, &t);
            let seq = maximum_cardinality_popular_matching_sequential(&inst);
            match (nc, seq) {
                (Ok(a), Ok(b)) => assert_eq!(a.size(&inst), b.size(&inst)),
                (Err(x), Err(y)) => assert_eq!(x, y),
                (a, b) => panic!("disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn ties_and_infeasible_errors_propagate() {
        let tied = PrefInstance::new_with_ties(2, vec![vec![vec![0, 1]]]).unwrap();
        let t = DepthTracker::new();
        assert_eq!(
            maximum_cardinality_popular_matching_nc(&tied, &t),
            Err(PopularError::TiesNotSupported)
        );
        let infeasible =
            PrefInstance::new_strict(2, vec![vec![0, 1], vec![0, 1], vec![0, 1]]).unwrap();
        assert_eq!(
            maximum_cardinality_popular_matching_nc(&infeasible, &t),
            Err(PopularError::NoPopularMatching)
        );
    }
}
