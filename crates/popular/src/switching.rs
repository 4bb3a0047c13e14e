//! The switching graph `G_M` of a popular matching (Section IV).
//!
//! Given a popular matching `M`, the switching graph has one vertex per
//! (extended) post and, for every applicant `a`, a directed edge from
//! `M(a)` to `O_M(a)` — the other post on `a`'s reduced preference list.
//! Because `M` is a matching, every vertex has out-degree at most one, so
//! `G_M` is a directed pseudoforest (Lemma 4): each component has either a
//! unique sink (an unmatched s-post) or a unique cycle.
//!
//! *Switching cycles* and *switching paths* are the unit moves that map one
//! popular matching to another (Theorem 9, McDermid–Irving): applying a
//! switching cycle re-matches every applicant on the cycle to its other
//! reduced post; applying the switching path from an s-post `q` to the sink
//! `p` does the same along the path, leaving `q` unmatched and `p` matched.
//! The *margin* (Definition 4) of a move is the net change in the number of
//! applicants matched to real (non-last-resort) posts; Algorithm 3 applies
//! exactly the positive-margin moves.

use pm_graph::connected::{connected_components_idx_ws, ComponentLabelsIdx};
use pm_graph::functional::{extract_cycles_marked_idx, on_cycle_of_idx, FunctionalGraph};
use pm_pram::scan::csr_offsets_into_u32;
use pm_pram::tracker::DepthTracker;
use pm_pram::{pointer_jump_roots_into_idx, Idx, Workspace};

use crate::instance::Assignment;
use crate::reduced::ReducedGraph;

/// What a component of the switching graph contains (Lemma 4 (iii)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentKind {
    /// A cycle component with its unique switching cycle (posts in successor
    /// order, starting from the smallest post id).
    Cycle(Vec<usize>),
    /// A tree component with its unique sink vertex (an unmatched s-post).
    Tree {
        /// The sink post.
        sink: usize,
    },
}

/// One weakly-connected component of the switching graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchingComponent {
    /// The posts in this component (increasing id order).
    pub posts: Vec<usize>,
    /// Cycle or tree, with the associated cycle/sink.
    pub kind: ComponentKind,
}

/// The switching graph `G_M` of a popular matching `M`.
#[derive(Debug, Clone)]
pub struct SwitchingGraph {
    num_applicants: usize,
    num_posts: usize,
    total_posts: usize,
    /// `succ[p]` = the other reduced post of the applicant matched to `p`
    /// (`Idx::NONE` when `p` is unmatched — a sink or outside the graph).
    succ: Vec<Idx>,
    /// `out_applicant[p]` = the applicant matched to `p` (labels the edge).
    out_applicant: Vec<Idx>,
    /// Post occurs in the reduced graph (as someone's f-post or s-post).
    in_graph: Vec<bool>,
    /// Post is an s-post (the only legal starting points of switching paths).
    is_s_post: Vec<bool>,
    /// Lazily computed cycle-vertex marking (a pure function of `succ`),
    /// shared by [`components`](Self::components) and
    /// [`margins_to_sink`](Self::margins_to_sink) so an analysis pipeline
    /// runs the `O(log n)`-round doubling once instead of once per query.
    cycle_marks: std::sync::OnceLock<Vec<bool>>,
}

impl SwitchingGraph {
    /// Builds `G_M` from the reduced graph and a popular matching.
    ///
    /// # Panics
    /// Panics (in debug builds) if `matching` does not assign every
    /// applicant to `f(a)` or `s(a)` — the switching graph is only defined
    /// for matchings satisfying Theorem 1.
    pub fn build(reduced: &ReducedGraph, matching: &Assignment, tracker: &DepthTracker) -> Self {
        let n_a = reduced.num_applicants();
        let total = reduced.total_posts();
        tracker.phase();
        tracker.round();
        tracker.work(n_a as u64);

        let mut succ = vec![Idx::NONE; total];
        let mut out_applicant = vec![Idx::NONE; total];
        let mut in_graph = vec![false; total];
        let mut is_s_post = vec![false; total];
        for a in 0..n_a {
            in_graph[reduced.f(a)] = true;
            in_graph[reduced.s(a)] = true;
            is_s_post[reduced.s(a)] = true;
            let m = matching.post(a);
            debug_assert!(
                m == reduced.f(a) || m == reduced.s(a),
                "switching graph requires a Theorem 1 matching"
            );
            let other = if m == reduced.f(a) {
                reduced.s(a)
            } else {
                reduced.f(a)
            };
            debug_assert!(succ[m].is_none(), "post {m} matched to two applicants");
            succ[m] = Idx::new(other);
            out_applicant[m] = Idx::new(a);
        }

        Self {
            num_applicants: n_a,
            num_posts: reduced.num_posts(),
            total_posts: total,
            succ,
            out_applicant,
            in_graph,
            is_s_post,
            cycle_marks: std::sync::OnceLock::new(),
        }
    }

    /// The memoised cycle-vertex marking of `G_M` (computed on first use;
    /// the depth/work of the doubling is charged to the tracker of that
    /// first call only).
    fn cycle_marks(&self, tracker: &DepthTracker) -> &[bool] {
        self.cycle_marks.get_or_init(|| {
            let mut out = Vec::new();
            on_cycle_of_idx(&self.succ, &mut out, &mut Workspace::new(), tracker);
            out
        })
    }

    /// Number of applicants in the underlying instance.
    pub fn num_applicants(&self) -> usize {
        self.num_applicants
    }

    /// The successor of post `p` (the post its matched applicant would
    /// switch to), if `p` is matched.
    pub fn successor(&self, p: usize) -> Option<usize> {
        self.succ[p].some()
    }

    /// The applicant matched to post `p`, if any.
    pub fn applicant_at(&self, p: usize) -> Option<usize> {
        self.out_applicant[p].some()
    }

    /// True iff post `p` occurs in the reduced graph.
    pub fn in_graph(&self, p: usize) -> bool {
        self.in_graph[p]
    }

    /// True iff post `p` is an s-post.
    pub fn is_s_post(&self, p: usize) -> bool {
        self.is_s_post[p]
    }

    /// True iff post `p` is a last-resort post.
    pub fn is_last_resort(&self, p: usize) -> bool {
        p >= self.num_posts
    }

    /// The switching graph as a directed pseudoforest over all extended
    /// posts (posts outside the reduced graph are isolated sinks).
    pub fn functional_graph(&self) -> FunctionalGraph {
        FunctionalGraph::new(self.succ.iter().map(|s| s.some()).collect())
    }

    /// The sinks of `G_M` restricted to the reduced graph: exactly the posts
    /// of `G'` left unmatched by `M` (Lemma 4 (ii)), which are all s-posts.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.total_posts)
            .filter(|&p| self.in_graph[p] && self.succ[p].is_none())
            .collect()
    }

    /// Decomposes `G_M` into its weakly-connected components, classifying
    /// each as a cycle component or a tree component (Lemma 4 (iii)).
    /// Components are ordered by their smallest post.
    pub fn components(&self, tracker: &DepthTracker) -> Vec<SwitchingComponent> {
        // All dense scratch — the edge list, the hooking forest, the cycle
        // marking and the label buckets — is checked out of one workspace,
        // so the phases of this call share their slabs instead of each
        // allocating afresh (and no `FunctionalGraph` clone of the
        // successor array is materialised).
        let mut ws = Workspace::new();
        let mut edges = ws.take_idx_pair_empty();
        edges.extend(
            self.succ
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(v, &s)| (Idx::new(v), s)),
        );
        let labels: ComponentLabelsIdx =
            connected_components_idx_ws(self.total_posts, &edges, &mut ws, tracker);
        ws.put_idx_pair(edges);
        let cycles = extract_cycles_marked_idx(&self.succ, self.cycle_marks(tracker));

        // Map each component label to its cycle (if any).
        let mut cycle_of_label: Vec<Option<Vec<usize>>> = vec![None; self.total_posts];
        for cycle in cycles {
            let l = labels.label[cycle[0]];
            cycle_of_label[l.get()] = Some(cycle);
        }

        // Bucket the reduced-graph posts by component label in one flat CSR
        // pass: counts, prefix scan, slotted fill.  Filling in increasing
        // post order keeps each bucket sorted, as the component contract
        // requires.  The per-post bucket work is accumulated locally and
        // flushed with one atomic add per pass.
        let mut counts = ws.take_u32(self.total_posts, 0);
        let mut charged = tracker.local();
        for p in 0..self.total_posts {
            if self.in_graph[p] {
                counts[labels.label[p]] += 1;
                charged.add(1);
            }
        }
        drop(charged);
        let mut bucket_off = ws.take_u32_empty();
        let mut chunk_scratch = ws.take_u32_empty();
        csr_offsets_into_u32(&counts, &mut bucket_off, &mut chunk_scratch, tracker);
        let mut cursor = ws.take_u32_empty();
        cursor.extend_from_slice(&bucket_off[..self.total_posts]);
        let mut bucket_flat = ws.take_idx(*bucket_off.last().unwrap_or(&0) as usize, Idx::ZERO);
        let mut charged = tracker.local();
        for p in 0..self.total_posts {
            if self.in_graph[p] {
                let l = labels.label[p];
                bucket_flat[cursor[l] as usize] = Idx::new(p);
                cursor[l] += 1;
                charged.add(1);
            }
        }
        drop(charged);

        let mut out = Vec::new();
        for l in 0..self.total_posts {
            let posts = &bucket_flat[bucket_off[l] as usize..bucket_off[l + 1] as usize];
            if posts.is_empty() {
                continue;
            }
            let kind = match cycle_of_label[l].take() {
                Some(cycle) => ComponentKind::Cycle(cycle),
                None => {
                    let sink = posts
                        .iter()
                        .copied()
                        .find(|&p| self.succ[p].is_none())
                        .expect("a tree component has a sink (Lemma 4)");
                    ComponentKind::Tree { sink: sink.get() }
                }
            };
            out.push(SwitchingComponent {
                posts: posts.iter().map(|p| p.get()).collect(),
                kind,
            });
        }
        ws.put_idx(labels.label);
        ws.put_u32(counts);
        ws.put_u32(bucket_off);
        ws.put_u32(chunk_scratch);
        ws.put_u32(cursor);
        ws.put_idx(bucket_flat);
        out
    }

    /// The applicants on the switching cycle through the given cycle posts.
    pub fn cycle_applicants(&self, cycle_posts: &[usize]) -> Vec<usize> {
        cycle_posts
            .iter()
            .map(|&p| {
                self.out_applicant[p]
                    .some()
                    .expect("cycle posts are matched")
            })
            .collect()
    }

    /// The switching path from s-post `q` to its component's sink, as the
    /// list of matched posts traversed (excluding the sink).  Returns `None`
    /// if `q` is not an s-post, is unmatched (it *is* the sink), or lies in
    /// a cycle component (no switching path exists there).
    pub fn switching_path(&self, q: usize) -> Option<Vec<usize>> {
        if !self.is_s_post[q] || self.succ[q].is_none() {
            return None;
        }
        let mut path = Vec::new();
        let mut v = q;
        let mut steps = 0usize;
        while let Some(next) = self.succ[v].some() {
            path.push(v);
            v = next;
            steps += 1;
            if steps > self.total_posts {
                return None; // walked into a cycle: no switching path from q
            }
        }
        Some(path)
    }

    /// The applicants along the switching path starting at s-post `q`.
    pub fn path_applicants(&self, q: usize) -> Option<Vec<usize>> {
        self.switching_path(q).map(|posts| {
            posts
                .iter()
                .map(|&p| {
                    self.out_applicant[p]
                        .some()
                        .expect("path posts are matched")
                })
                .collect()
        })
    }

    /// The margin (Definition 4) of the switching cycle through the given
    /// posts: the change in the number of applicants on real posts.
    pub fn cycle_margin(&self, cycle_posts: &[usize]) -> i64 {
        cycle_posts.iter().map(|&p| self.edge_margin(p)).sum()
    }

    /// The margin of the switching path starting at s-post `q`.
    pub fn path_margin(&self, q: usize) -> Option<i64> {
        self.switching_path(q)
            .map(|posts| posts.iter().map(|&p| self.edge_margin(p)).sum())
    }

    /// Margin contribution of the edge leaving post `p`: +1 if its applicant
    /// moves from a last resort onto a real post, −1 for the reverse, else 0.
    fn edge_margin(&self, p: usize) -> i64 {
        let q = self.succ[p].some().expect("edge_margin of a matched post");
        i64::from(!self.is_last_resort(q)) - i64::from(!self.is_last_resort(p))
    }

    /// For every post, the total margin of the path from it to its
    /// component's sink (0 for sinks and for posts on cycles — cycles have
    /// no path to a sink; a post hanging off a cycle gets the margin of its
    /// path to the cycle entry).  Edge margins telescope, so this is
    /// `real(end) − real(p)` where `end` is where the walk from `p` stops
    /// once cycle posts are frozen, found by root pointer jumping in
    /// `O(log n)` rounds.
    pub fn margins_to_sink(&self, tracker: &DepthTracker) -> Vec<i64> {
        let on_cycle = self.cycle_marks(tracker);
        let frozen: Vec<Idx> = (0..self.total_posts)
            .map(|p| match self.succ[p].some() {
                Some(q) if !on_cycle[p] => Idx::new(q),
                _ => Idx::new(p),
            })
            .collect();
        let (mut end, mut dist) = (Vec::new(), Vec::new());
        pointer_jump_roots_into_idx(
            &frozen,
            &mut end,
            &mut dist,
            &mut Vec::new(),
            &mut Vec::new(),
            tracker,
        );
        let real = |p: usize| i64::from(!self.is_last_resort(p));
        end.iter()
            .enumerate()
            .map(|(p, e)| real(e.get()) - real(p))
            .collect()
    }

    /// Applies the switching cycle through `cycle_posts` to `matching`:
    /// every applicant on the cycle switches to its other reduced post.
    pub fn apply_cycle(&self, matching: &mut Assignment, cycle_posts: &[usize]) {
        let slots = matching.as_mut_slice();
        for &p in cycle_posts {
            let a = self.out_applicant[p]
                .some()
                .expect("cycle posts are matched");
            let target = self.succ[p].some().expect("cycle posts have successors");
            slots[a] = Idx::new(target);
        }
    }

    /// Applies the switching path starting at s-post `q` to `matching`.
    ///
    /// # Panics
    /// Panics if `q` has no switching path (see [`switching_path`](Self::switching_path)).
    pub fn apply_path(&self, matching: &mut Assignment, q: usize) {
        let posts = self
            .switching_path(q)
            .expect("apply_path requires a valid switching path start");
        let slots = matching.as_mut_slice();
        for p in posts {
            let a = self.out_applicant[p]
                .some()
                .expect("path posts are matched");
            let target = self.succ[p].some().expect("path posts have successors");
            slots[a] = Idx::new(target);
        }
    }

    /// Enumerates every popular matching reachable from the base matching by
    /// Theorem 9: for each tree component choose at most one switching path,
    /// for each cycle component choose whether to apply its switching cycle.
    /// Exponential in the number of components — used by the tests and the
    /// optimality cross-checks on small instances.
    pub fn enumerate_popular_matchings(
        &self,
        base: &Assignment,
        tracker: &DepthTracker,
    ) -> Vec<Assignment> {
        let components = self.components(tracker);
        // Per component, the list of alternative "moves" (None = do nothing).
        let mut choices: Vec<Vec<Option<MoveRef>>> = Vec::new();
        for comp in &components {
            let mut opts: Vec<Option<MoveRef>> = vec![None];
            match &comp.kind {
                ComponentKind::Cycle(cycle) => opts.push(Some(MoveRef::Cycle(cycle.clone()))),
                ComponentKind::Tree { sink } => {
                    for &q in &comp.posts {
                        if q != *sink && self.is_s_post[q] && self.succ[q].is_some() {
                            opts.push(Some(MoveRef::Path(q)));
                        }
                    }
                }
            }
            choices.push(opts);
        }

        let mut out = Vec::new();
        let mut stack = vec![0usize; choices.len()];
        loop {
            let mut m = base.clone();
            for (ci, &pick) in stack.iter().enumerate() {
                match &choices[ci][pick] {
                    None => {}
                    Some(MoveRef::Cycle(cycle)) => self.apply_cycle(&mut m, cycle),
                    Some(MoveRef::Path(q)) => self.apply_path(&mut m, *q),
                }
            }
            out.push(m);
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == choices.len() {
                    return out;
                }
                stack[i] += 1;
                if stack[i] < choices[i].len() {
                    break;
                }
                stack[i] = 0;
                i += 1;
            }
        }
    }
}

#[derive(Debug, Clone)]
enum MoveRef {
    Cycle(Vec<usize>),
    Path(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PrefInstance;
    use crate::verify::{enumerate_assignments, is_popular_characterization, more_popular};

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

    /// The popular matching M of the paper's Figure 4:
    /// a1→p1, a2→p2, a3→p4, a4→p3, a5→p5, a6→p7, a7→p8, a8→p9.
    fn figure4_matching() -> Assignment {
        Assignment::new(vec![0, 1, 3, 2, 4, 6, 7, 8])
    }

    fn build_figure4() -> (PrefInstance, ReducedGraph, SwitchingGraph, Assignment) {
        let inst = figure1_instance();
        let reduced = ReducedGraph::build_sequential(&inst).unwrap();
        let m = figure4_matching();
        let t = DepthTracker::new();
        let sg = SwitchingGraph::build(&reduced, &m, &t);
        (inst, reduced, sg, m)
    }

    #[test]
    fn lemma4_structure_on_figure4() {
        let (_inst, _reduced, sg, _m) = build_figure4();
        let t = DepthTracker::new();

        // (ii) sinks are the unmatched s-posts: p2? no — in Figure 4 the
        // sinks are p6 (id 5) and p2?  The matching M matches p1..p5, p7..p9;
        // unmatched reduced posts are p6 (id 5)?  p6 is s(a6) and unmatched;
        // p2 (id 1) is matched to a2; p3 matched; so sinks = {p6}.  Wait —
        // Figure 4 shows switching paths ending at p6... and p2/p3 are
        // matched.  The sink set must be exactly the unmatched reduced posts.
        let sinks = sg.sinks();
        for &p in &sinks {
            assert!(sg.is_s_post(p), "Lemma 4(ii): sink {p} must be an s-post");
            assert!(sg.applicant_at(p).is_none());
        }

        // (i) out-degree at most 1 holds by construction; check the edge
        // labels are exactly the 8 applicants.
        let labelled: Vec<usize> = (0..sg.total_posts)
            .filter_map(|p| sg.applicant_at(p))
            .collect();
        assert_eq!(labelled.len(), 8);

        // (iii) each component has a single sink or a single cycle.
        let comps = sg.components(&t);
        for c in &comps {
            match &c.kind {
                ComponentKind::Cycle(cycle) => {
                    assert!(!cycle.is_empty());
                    // no sink inside a cycle component
                    assert!(c.posts.iter().all(|&p| sg.successor(p).is_some()));
                }
                ComponentKind::Tree { sink } => {
                    let sink_count = c
                        .posts
                        .iter()
                        .filter(|&&p| sg.successor(p).is_none())
                        .count();
                    assert_eq!(sink_count, 1);
                    assert!(sg.successor(*sink).is_none());
                }
            }
        }
    }

    #[test]
    fn figure4_has_one_cycle_and_two_switching_paths() {
        // "There are one switching cycle and two switching paths starting
        //  from p8 and p9 respectively."
        let (_inst, _reduced, sg, _m) = build_figure4();
        let t = DepthTracker::new();
        let comps = sg.components(&t);

        let cycles: Vec<&SwitchingComponent> = comps
            .iter()
            .filter(|c| matches!(c.kind, ComponentKind::Cycle(_)))
            .collect();
        assert_eq!(cycles.len(), 1, "exactly one cycle component");
        if let ComponentKind::Cycle(cycle) = &cycles[0].kind {
            // The cycle is p1 -> p2 -> p4 -> p3 -> p1 (ids 0,1,3,2) in some rotation.
            let mut sorted = cycle.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }

        // Switching paths start at s-posts p8 (id 7) and p9 (id 8).
        let p8 = sg.switching_path(7).expect("p8 starts a switching path");
        let p9 = sg.switching_path(8).expect("p9 starts a switching path");
        assert!(!p8.is_empty() && !p9.is_empty());
        // Both end at the unique sink p6 (id 5): the posts on the path are
        // matched, and following the last post's successor gives the sink.
        let end8 = sg.successor(*p8.last().unwrap()).unwrap();
        let end9 = sg.successor(*p9.last().unwrap()).unwrap();
        assert_eq!(end8, 5);
        assert_eq!(end9, 5);
        // p5 (id 4) is an s-post?  No: p5 is an f-post, so it cannot start a
        // switching path.
        assert!(sg.switching_path(4).is_none());
    }

    #[test]
    fn margins_on_figure4_are_zero() {
        // Every applicant in the Figure 4 matching sits on a real post and
        // both of its reduced posts are real, so every margin is 0.
        let (_inst, _reduced, sg, _m) = build_figure4();
        let t = DepthTracker::new();
        let comps = sg.components(&t);
        for c in &comps {
            if let ComponentKind::Cycle(cycle) = &c.kind {
                assert_eq!(sg.cycle_margin(cycle), 0);
            }
        }
        assert_eq!(sg.path_margin(7), Some(0));
        assert_eq!(sg.path_margin(8), Some(0));
        let margins = sg.margins_to_sink(&t);
        assert_eq!(margins[7], 0);
        assert_eq!(margins[8], 0);
    }

    #[test]
    fn margins_to_sink_match_path_margins() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for _ in 0..100 {
            let n_a = rng.random_range(1..6);
            let n_p = rng.random_range(1..6);
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
            let inst = PrefInstance::new_strict(n_p, lists).unwrap();
            let t = DepthTracker::new();
            let Ok(run) = crate::algorithm1::popular_matching_run(&inst, &t) else {
                continue;
            };
            let sg = SwitchingGraph::build(&run.reduced, &run.matching, &t);
            let doubled = sg.margins_to_sink(&t);
            for (q, &margin) in doubled.iter().enumerate() {
                if let Some(expected) = sg.path_margin(q) {
                    assert_eq!(margin, expected, "margin mismatch at post {q}");
                }
            }
        }
    }

    #[test]
    fn theorem9_enumeration_yields_exactly_the_popular_matchings() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let mut checked = 0;
        for _ in 0..120 {
            let n_a = rng.random_range(1..5);
            let n_p = rng.random_range(1..5);
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
            let inst = PrefInstance::new_strict(n_p, lists).unwrap();
            let t = DepthTracker::new();
            let Ok(run) = crate::algorithm1::popular_matching_run(&inst, &t) else {
                continue;
            };
            let sg = SwitchingGraph::build(&run.reduced, &run.matching, &t);

            // All matchings produced by Theorem 9 moves...
            let mut generated: Vec<Vec<pm_pram::Idx>> = sg
                .enumerate_popular_matchings(&run.matching, &t)
                .into_iter()
                .map(|m| m.as_slice().to_vec())
                .collect();
            generated.sort_unstable();
            generated.dedup();

            // ... must coincide with the popular matchings found by brute force.
            let mut brute: Vec<Vec<pm_pram::Idx>> = enumerate_assignments(&inst)
                .into_iter()
                .filter(|m| is_popular_characterization(&inst, m))
                .map(|m| m.as_slice().to_vec())
                .collect();
            brute.sort_unstable();

            assert_eq!(
                generated, brute,
                "Theorem 9 enumeration mismatch for {inst:?}"
            );

            // And every generated matching is genuinely popular.
            for m in sg.enumerate_popular_matchings(&run.matching, &t) {
                assert!(m.is_valid(&inst));
                assert!(enumerate_assignments(&inst)
                    .iter()
                    .all(|other| !more_popular(&inst, other, &m)));
            }
            checked += 1;
        }
        assert!(checked > 30);
    }
}
