//! Incremental re-solve: typed deltas over a persistent component
//! decomposition of the reduced graph.
//!
//! A warm [`PopularSolver`](crate::solver::PopularSolver) solve costs
//! ~209 ms at n = 10⁶, so a serving core re-solving from scratch on every
//! preference mutation caps out near 5 solves/s.  The paper's structure
//! points at the fix: Algorithm 2 operates on the reduced graph G′, whose
//! connected components are solved **independently** — after degree-1
//! peeling every surviving post has degree ≥ 2 and every surviving
//! applicant degree exactly 2, so the feasibility count
//! `alive_posts >= alive_applicants` holds globally iff it holds per
//! component, and the matching of an untouched component never changes.
//! A [`DeltaSolver`] therefore maintains, across mutations:
//!
//! * the mutable instance itself (a slotted CSR arena, edited in place);
//! * the reduced graph `f`/`s` arrays, the f-post census `f_count`, and a
//!   reverse containment index (which lists mention post p) so an
//!   `is_f_post` flip can rescan exactly the affected `s` values;
//! * a **union-only** component decomposition of the extended post set
//!   (union–find + a circular ring of each component's posts + intrusive
//!   `f⁻¹` lists for member gathering).  Components are never split
//!   incrementally — the decomposition is a coarsening of the true one,
//!   which is sound because re-solving a union of true components with the
//!   same kernels reproduces each true component's answer bit-for-bit;
//! * the cached global matching, spliced shard by shard.
//!
//! A delta dirties the components it touches; [`DeltaSolver::flush`]
//! re-solves only the dirty shards through the existing kernels
//! ([`applicant_complete_matching_into`], [`promote_into`], and in
//! max-cardinality mode [`improve_to_maximum_cardinality_ws`]) on compact
//! remapped id spaces, and splices the results into the cached matching.
//! The remap is **monotone** (shard members and shard posts are sorted
//! ascending), which is exactly the property the kernels' tie-breaks
//! (min-arc orientation, smallest-applicant promotion, best-(margin, q)
//! election) need to reproduce the global solve's decisions.
//!
//! Falling back to a full solve happens when structure changes too much to
//! patch: a post is added or removed (every last-resort id shifts), the
//! dirty fraction exceeds [`FULL_SOLVE_DIRTY_FRACTION`] of the extended
//! post set, an applicant slot regrows into a retired last-resort id, or
//! the previous full solve found the instance infeasible.  DESIGN.md §10
//! states the invariants; the serving layer (`pm_serve`) coalesces queued
//! deltas per instance into one flush per scheduling tick.
//!
//! Zero-alloc discipline: [`DeltaSolver::install`] runs a full solve
//! through the owned [`Workspace`], warming every pool at instance scale;
//! warm flushes then draw all shard scratch (member/post lists, remapped
//! `f`/`s`/`matched` slices, the [`EpochMap`] remap table) from those
//! pools and perform zero heap allocations — the harness gates this with
//! the counting allocator, like the warm-solve path.  That holds while
//! callers keep clones of the answers too: the solver publishes into a
//! recycled spare buffer instead of copying a held one (DESIGN.md §10).

use pm_pram::tracker::DepthTracker;
use pm_pram::workspace::{EpochMap, EpochMarks, Workspace};
use pm_pram::Idx;

use crate::algorithm1::promote_into;
use crate::algorithm2::applicant_complete_matching_into;
use crate::error::PopularError;
use crate::instance::{check_sizes, Assignment, PrefInstance};
use crate::max_cardinality::improve_to_maximum_cardinality_ws;

/// Dirty-fraction fallback threshold: if the dirty components cover more
/// than this fraction of the extended post set, `flush` abandons shard
/// patching and re-solves the whole instance (the decomposition is rebuilt
/// from scratch as a side effect, undoing union-only coarsening).
pub const FULL_SOLVE_DIRTY_FRACTION: f64 = 0.25;

/// The log of applicants spliced since the spare answer buffer was current
/// holds one applicant in this many (plus a small floor).  Beyond that,
/// replaying the log costs about as much as copying the whole answer, so
/// the solver stops logging and copies instead.
const RESPLICE_LOG_DIVISOR: usize = 64;

/// Which pipeline the incremental layer keeps the cached matching on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaMode {
    /// Algorithms 1+2: any popular matching (maximal in G′).
    Popular,
    /// Algorithms 1+2+3: popular and of maximum cardinality.
    MaxCardinality,
}

/// One typed mutation of a preference instance.
///
/// Applicant removal renumbers by **swap-remove**: the last applicant
/// takes the removed slot, so ids stay dense without shifting every later
/// applicant.  Post addition/removal shifts every last-resort id
/// (`l(a) = num_posts + a`), so those two deltas always schedule a full
/// re-solve; `remove_post` additionally renumbers the last post into the
/// removed slot and strips the post from every list (rejected if that
/// would empty a list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// Append a new applicant (id `num_applicants`) with these preferences.
    AddApplicant {
        /// The new applicant's strict preference list, most preferred first.
        prefs: Vec<usize>,
    },
    /// Swap-remove an applicant; the last applicant takes its id.
    RemoveApplicant {
        /// The applicant id to remove.
        applicant: usize,
    },
    /// Append a new post (id `num_posts`), initially on no list.
    AddPost,
    /// Swap-remove a post: strip it from every list, renumber the last
    /// post into its id.
    RemovePost {
        /// The post id to remove.
        post: usize,
    },
    /// Replace one applicant's preference list.
    EditPrefList {
        /// The applicant whose list changes.
        applicant: usize,
        /// The replacement strict list, most preferred first.
        prefs: Vec<usize>,
    },
}

/// Counters describing how the incremental layer has been solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Deltas accepted by [`DeltaSolver::apply`].
    pub deltas_applied: u64,
    /// Calls to [`DeltaSolver::flush`].
    pub flushes: u64,
    /// Dirty component shards re-solved incrementally.
    pub shard_solves: u64,
    /// Full from-scratch re-solves (install, post deltas, fallbacks).
    pub full_solves: u64,
    /// Full solves triggered by the dirty-fraction threshold specifically.
    pub fallback_full_solves: u64,
    /// Applicant slots spliced back into the cached matching by shard
    /// solves.
    pub spliced_applicants: u64,
}

/// The mutable instance: a slotted CSR arena.  `arena[off[a] .. off[a]+len[a]]`
/// is applicant `a`'s list.  Same-length edits rewrite slots in place;
/// length-changing edits append fresh slots and leak the old ones (the
/// leak is reclaimed by compaction at the next full rebuild).
#[derive(Debug, Default)]
struct DeltaInstance {
    num_posts: usize,
    arena: Vec<Idx>,
    off: Vec<u32>,
    len: Vec<u32>,
    /// Live (non-leaked) arena entries: Σ len.
    live_entries: usize,
}

impl DeltaInstance {
    fn num_applicants(&self) -> usize {
        self.off.len()
    }

    fn list(&self, a: usize) -> &[Idx] {
        let lo = self.off[a] as usize;
        &self.arena[lo..lo + self.len[a] as usize]
    }

    fn slots(&self, a: usize) -> std::ops::Range<usize> {
        let lo = self.off[a] as usize;
        lo..lo + self.len[a] as usize
    }
}

/// The incremental popular-matching solver (see the module docs).
///
/// Lifecycle: [`install`](Self::install) a base instance (runs one full
/// solve, warming the workspace pools), then interleave
/// [`apply`](Self::apply) and [`flush`](Self::flush).  A panic that
/// unwinds a flush or an apply poisons the solver
/// ([`is_poisoned`](Self::is_poisoned)); [`recover`](Self::recover)
/// rebuilds the scratch state from the retained instance and re-solves
/// fully — a poisoned shard never patches, it re-solves.
#[derive(Debug)]
pub struct DeltaSolver {
    mode: DeltaMode,
    inst: DeltaInstance,

    // Reverse containment index over arena slots, real posts only:
    // rev_head[p] heads an intrusive doubly-linked list of the arena slots
    // whose entry is p; rev_owner[slot] is the applicant owning the slot.
    rev_head: Vec<Idx>,
    rev_next: Vec<Idx>,
    rev_prev: Vec<Idx>,
    rev_owner: Vec<Idx>,

    // Reduced graph state (the exact arrays ReducedGraph::build_into
    // produces, maintained incrementally).
    f: Vec<Idx>,
    s: Vec<Idx>,
    f_count: Vec<u32>,
    is_f_post: Vec<bool>,

    // f⁻¹ intrusive lists: finv_head[p] (real posts) heads the chain of
    // applicants whose first choice is p.
    finv_head: Vec<Idx>,
    finv_next: Vec<Idx>,
    finv_prev: Vec<Idx>,

    // Union-only component decomposition over extended posts: union–find
    // (parent/csize), a circular ring of each component's posts
    // (ring_next), and per-root infeasibility flags.  Arrays are sized
    // `posts_hi`, which can exceed the live extended post count after
    // removals (retired ids keep their slots until the next full rebuild).
    parent: Vec<u32>,
    csize: Vec<u32>,
    ring_next: Vec<u32>,
    comp_bad: Vec<bool>,
    bad_comps: usize,
    posts_hi: usize,

    // Dirty component queue: raw (possibly stale) post ids, canonicalised
    // through `find` and deduplicated at flush time.
    dirty: Vec<u32>,
    needs_full: bool,
    infeasible_full: bool,

    // The published matching and its spare (DESIGN.md §10).  `out` is the
    // cached matching `flush` returns; callers may hold clones of it.
    // `spare` is the buffer published before it, recycled once no caller
    // holds it.  While `spare_synced`, the spare equals `out` except at the
    // applicants in `respliced`, a log whose capacity is fixed at install.
    out: Assignment,
    spare: Assignment,
    respliced: Vec<Idx>,
    spare_synced: bool,

    ws: Workspace,
    tracker: DepthTracker,
    post_marks: EpochMarks,
    dirty_marks: EpochMarks,
    app_marks: EpochMarks,
    valid_marks: EpochMarks,
    post_map: EpochMap,
    rescan_buf: Vec<u32>,
    applying: bool,

    stats: DeltaStats,
}

fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    loop {
        let p = parent[x as usize];
        if p == x {
            return x;
        }
        let gp = parent[p as usize];
        parent[x as usize] = gp;
        x = gp;
    }
}

impl DeltaSolver {
    /// Builds the incremental solver around a strict instance and runs the
    /// initial full solve (warming the workspace pools to instance scale).
    ///
    /// An instance that admits no popular matching still installs — the
    /// error is reported by [`flush`](Self::flush) (and re-checked after
    /// every mutation) — but ties and size-funnel violations are rejected
    /// here.
    pub fn install(inst: &PrefInstance, mode: DeltaMode) -> Result<Self, PopularError> {
        if !inst.is_strict() {
            return Err(PopularError::TiesNotSupported);
        }
        let n = inst.num_applicants();
        let np = inst.num_posts();
        let entries = inst.num_edges();
        let mut di = DeltaInstance {
            num_posts: np,
            arena: Vec::with_capacity(entries + entries / 2 + 16),
            off: Vec::with_capacity(n + 16),
            len: Vec::with_capacity(n + 16),
            live_entries: entries,
        };
        for a in 0..n {
            let list = inst.flat_list(a);
            di.off.push(di.arena.len() as u32);
            di.len.push(list.len() as u32);
            di.arena.extend_from_slice(list);
        }
        let mut out = Assignment::from_idx_vec(Vec::with_capacity(n + 16));
        out.reset_unassigned(n);
        let mut solver = Self {
            mode,
            inst: di,
            rev_head: Vec::new(),
            rev_next: Vec::new(),
            rev_prev: Vec::new(),
            rev_owner: Vec::new(),
            f: Vec::with_capacity(n + 16),
            s: Vec::with_capacity(n + 16),
            f_count: Vec::new(),
            is_f_post: Vec::new(),
            finv_head: Vec::new(),
            finv_next: Vec::with_capacity(n + 16),
            finv_prev: Vec::with_capacity(n + 16),
            parent: Vec::with_capacity(np + n + 16),
            csize: Vec::with_capacity(np + n + 16),
            ring_next: Vec::with_capacity(np + n + 16),
            comp_bad: Vec::with_capacity(np + n + 16),
            bad_comps: 0,
            posts_hi: 0,
            dirty: Vec::with_capacity(1024),
            needs_full: true,
            infeasible_full: false,
            out,
            spare: Assignment::from_idx_vec(Vec::new()),
            respliced: Vec::with_capacity(n / RESPLICE_LOG_DIVISOR + 64),
            spare_synced: false,
            ws: Workspace::new(),
            tracker: DepthTracker::new(),
            post_marks: EpochMarks::new(),
            dirty_marks: EpochMarks::new(),
            app_marks: EpochMarks::new(),
            valid_marks: EpochMarks::new(),
            post_map: EpochMap::new(),
            rescan_buf: Vec::with_capacity(256),
            applying: false,
            stats: DeltaStats::default(),
        };
        // Pre-size the epoch structures so even the first incremental
        // flush after install allocates nothing.
        let total = np + n;
        solver.post_marks.reset(total + 1);
        solver.dirty_marks.reset(total + 1);
        solver.app_marks.reset(n + 1);
        solver.valid_marks.reset(np + 1);
        solver.post_map.reset(total + 1);
        // The install solve: counts as a flush; NoPopularMatching installs
        // fine, anything else cannot occur on a validated instance.
        solver.stats.flushes += 1;
        solver.tracker.reset();
        solver.ws.begin_epoch();
        solver.rebuild_full_inner();
        solver.ws.end_epoch();
        Ok(solver)
    }

    /// The solve mode fixed at install time.
    pub fn mode(&self) -> DeltaMode {
        self.mode
    }

    /// Current number of applicants.
    pub fn num_applicants(&self) -> usize {
        self.inst.num_applicants()
    }

    /// Current number of real posts.
    pub fn num_posts(&self) -> usize {
        self.inst.num_posts
    }

    /// True if mutations have been applied since the last flush (or a full
    /// re-solve is scheduled).
    pub fn is_dirty(&self) -> bool {
        self.needs_full || !self.dirty.is_empty()
    }

    /// Incremental-layer counters.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// The PRAM depth/work accounting of the most recent flush.
    pub fn pram_stats(&self) -> pm_pram::PramStats {
        self.tracker.stats()
    }

    /// True once a panic has unwound an apply or a flush: pooled scratch
    /// and incremental indices can no longer be trusted, and `flush`
    /// answers [`PopularError::SolverPoisoned`] until
    /// [`recover`](Self::recover) rebuilds.
    pub fn is_poisoned(&self) -> bool {
        self.ws.is_poisoned() || self.ws.epoch_open() || self.applying
    }

    /// Simulates a panic that unwound mid-flush by leaving the workspace
    /// epoch open, so the error-path property tests can drive the
    /// poisoned → [`recover`](Self::recover) cycle deterministically
    /// without arranging a real unwind.  Test hook only — never part of
    /// the serving contract.
    #[doc(hidden)]
    pub fn poison_for_tests(&mut self) {
        self.ws.begin_epoch();
    }

    /// Discards all derived state and re-solves fully from the retained
    /// instance — the recovery path after a poisoning panic (the arena is
    /// append/overwrite-only during an apply, so it is the one structure a
    /// mid-apply unwind cannot tear).
    pub fn recover(&mut self) -> Result<&Assignment, PopularError> {
        self.ws = Workspace::new();
        self.applying = false;
        self.dirty.clear();
        self.needs_full = true;
        self.infeasible_full = false;
        self.flush()
    }

    /// A fresh validated [`PrefInstance`] snapshot of the current mutated
    /// instance (allocating; used by equivalence tests and the serving
    /// layer's degraded fallback, never by the hot path).
    pub fn snapshot_instance(&self) -> Result<PrefInstance, PopularError> {
        let n = self.inst.num_applicants();
        let mut flat = Vec::with_capacity(self.inst.live_entries);
        let mut offs = Vec::with_capacity(n + 1);
        offs.push(0u32);
        for a in 0..n {
            flat.extend_from_slice(self.inst.list(a));
            offs.push(flat.len() as u32);
        }
        PrefInstance::from_strict_csr(self.inst.num_posts, flat, offs)
    }

    /// Validates and applies one delta to the instance and the incremental
    /// indices.  Returns an error (and mutates nothing) if the delta is
    /// malformed; the re-solve itself is deferred to
    /// [`flush`](Self::flush).
    pub fn apply(&mut self, delta: &Delta) -> Result<(), PopularError> {
        if self.is_poisoned() {
            return Err(PopularError::SolverPoisoned);
        }
        self.validate(delta)?;
        self.applying = true;
        match delta {
            Delta::EditPrefList { applicant, prefs } => self.apply_edit(*applicant, prefs),
            Delta::AddApplicant { prefs } => self.apply_add_applicant(prefs),
            Delta::RemoveApplicant { applicant } => self.apply_remove_applicant(*applicant),
            Delta::AddPost => {
                self.inst.num_posts += 1;
                self.needs_full = true;
            }
            Delta::RemovePost { post } => self.apply_remove_post(*post),
        }
        self.stats.deltas_applied += 1;
        self.applying = false;
        Ok(())
    }

    /// Re-solves everything the applied deltas touched and returns the
    /// up-to-date global matching (or [`PopularError::NoPopularMatching`]
    /// if any component is currently infeasible,
    /// [`PopularError::SolverPoisoned`] after an unrecovered panic).
    ///
    /// Clean-shard warm flushes perform zero heap allocations; the
    /// dirty-fraction and structural fallbacks re-solve fully and rebuild
    /// the component decomposition.
    pub fn flush(&mut self) -> Result<&Assignment, PopularError> {
        if self.is_poisoned() {
            return Err(PopularError::SolverPoisoned);
        }
        self.stats.flushes += 1;
        self.tracker.reset();
        self.ws.begin_epoch();
        if self.needs_full || self.infeasible_full {
            self.rebuild_full_inner();
        } else if !self.solve_dirty_inner() {
            self.stats.fallback_full_solves += 1;
            self.rebuild_full_inner();
        }
        self.ws.end_epoch();
        if self.infeasible_full || self.bad_comps > 0 {
            return Err(PopularError::NoPopularMatching);
        }
        Ok(&self.out)
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    fn validate_prefs(&mut self, prefs: &[usize]) -> Result<(), PopularError> {
        if prefs.is_empty() {
            return Err(PopularError::InvalidInstance(
                "delta: empty preference list".into(),
            ));
        }
        self.valid_marks.reset(self.inst.num_posts);
        for &p in prefs {
            if p >= self.inst.num_posts {
                return Err(PopularError::InvalidInstance(format!(
                    "delta: post {p} out of range (num_posts = {})",
                    self.inst.num_posts
                )));
            }
            if !self.valid_marks.insert(p) {
                return Err(PopularError::InvalidInstance(format!(
                    "delta: duplicate post {p} in one list"
                )));
            }
        }
        Ok(())
    }

    fn validate(&mut self, delta: &Delta) -> Result<(), PopularError> {
        let n = self.inst.num_applicants();
        match delta {
            Delta::EditPrefList { applicant, prefs } => {
                if *applicant >= n {
                    return Err(PopularError::InvalidInstance(format!(
                        "delta: applicant {applicant} out of range (n = {n})"
                    )));
                }
                self.validate_prefs(prefs)
            }
            Delta::AddApplicant { prefs } => {
                check_sizes(
                    n + 1,
                    self.inst.num_posts,
                    self.inst.live_entries + prefs.len(),
                )?;
                self.validate_prefs(prefs)
            }
            Delta::RemoveApplicant { applicant } => {
                if *applicant >= n {
                    return Err(PopularError::InvalidInstance(format!(
                        "delta: applicant {applicant} out of range (n = {n})"
                    )));
                }
                Ok(())
            }
            Delta::AddPost => check_sizes(n, self.inst.num_posts + 1, self.inst.live_entries),
            Delta::RemovePost { post } => {
                let p = *post;
                if p >= self.inst.num_posts {
                    return Err(PopularError::InvalidInstance(format!(
                        "delta: post {p} out of range (num_posts = {})",
                        self.inst.num_posts
                    )));
                }
                for a in 0..n {
                    if self.inst.len[a] == 1
                        && self.inst.arena[self.inst.off[a] as usize].get() == p
                    {
                        return Err(PopularError::InvalidInstance(format!(
                            "delta: removing post {p} would empty applicant {a}'s list"
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Intrusive index maintenance
    // ------------------------------------------------------------------

    fn rev_unlink(&mut self, slot: usize) {
        let p = self.arena_post(slot);
        let prev = self.rev_prev[slot];
        let next = self.rev_next[slot];
        if prev.is_none() {
            self.rev_head[p] = next;
        } else {
            self.rev_next[prev.get()] = next;
        }
        if next.is_some() {
            self.rev_prev[next.get()] = prev;
        }
    }

    fn rev_link(&mut self, slot: usize, p: usize) {
        let h = self.rev_head[p];
        self.rev_prev[slot] = Idx::NONE;
        self.rev_next[slot] = h;
        if h.is_some() {
            self.rev_prev[h.get()] = Idx::new(slot);
        }
        self.rev_head[p] = Idx::new(slot);
    }

    fn arena_post(&self, slot: usize) -> usize {
        self.inst.arena[slot].get()
    }

    fn finv_unlink(&mut self, a: usize) {
        let p = self.f[a].get();
        let prev = self.finv_prev[a];
        let next = self.finv_next[a];
        if prev.is_none() {
            self.finv_head[p] = next;
        } else {
            self.finv_next[prev.get()] = next;
        }
        if next.is_some() {
            self.finv_prev[next.get()] = prev;
        }
    }

    fn finv_link(&mut self, a: usize, p: usize) {
        let h = self.finv_head[p];
        self.finv_prev[a] = Idx::NONE;
        self.finv_next[a] = h;
        if h.is_some() {
            self.finv_prev[h.get()] = Idx::new(a);
        }
        self.finv_head[p] = Idx::new(a);
    }

    /// Renames intrusive `f⁻¹` node `from` to `to` (the swap-remove move);
    /// the link *values* are copied by the caller's `swap_remove`.
    fn finv_rename(&mut self, from: usize, to: usize) {
        let p = self.f[from].get();
        let prev = self.finv_prev[from];
        let next = self.finv_next[from];
        if prev.is_none() {
            self.finv_head[p] = Idx::new(to);
        } else {
            self.finv_next[prev.get()] = Idx::new(to);
        }
        if next.is_some() {
            self.finv_prev[next.get()] = Idx::new(to);
        }
    }

    // ------------------------------------------------------------------
    // Union–find + dirty marking
    // ------------------------------------------------------------------

    fn union(&mut self, x: usize, y: usize) {
        let rx = uf_find(&mut self.parent, x as u32);
        let ry = uf_find(&mut self.parent, y as u32);
        if rx == ry {
            return;
        }
        // The merged component is dirtied by every caller, so conservative
        // flag clearing is sound: the flush that follows recomputes it.
        self.bad_comps -= usize::from(self.comp_bad[rx as usize]);
        self.bad_comps -= usize::from(self.comp_bad[ry as usize]);
        self.comp_bad[rx as usize] = false;
        self.comp_bad[ry as usize] = false;
        let (w, l) = if self.csize[rx as usize] >= self.csize[ry as usize] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[l as usize] = w;
        self.csize[w as usize] += self.csize[l as usize];
        self.ring_next.swap(rx as usize, ry as usize);
    }

    /// Recomputes `s(b)` from the current list and `is_f_post`; on change,
    /// merges and dirties the affected component.
    fn rescan_s(&mut self, b: usize) {
        let lo = self.inst.off[b] as usize;
        let hi = lo + self.inst.len[b] as usize;
        let mut new_s = Idx::new(self.inst.num_posts + b);
        for i in lo..hi {
            let p = self.inst.arena[i];
            if !self.is_f_post[p.get()] {
                new_s = p;
                break;
            }
        }
        if new_s != self.s[b] {
            self.s[b] = new_s;
            let fb = self.f[b].get();
            self.union(fb, new_s.get());
            self.dirty.push(fb as u32);
        }
    }

    /// Queues every applicant whose list mentions `p` for an `s` rescan
    /// (dedup across multiple flipped posts via `app_marks`).
    fn collect_rev_owners(&mut self, p: usize) {
        let mut slot = self.rev_head[p];
        while slot.is_some() {
            let b = self.rev_owner[slot.get()];
            if self.app_marks.insert(b.get()) {
                self.rescan_buf.push(b.raw());
            }
            slot = self.rev_next[slot.get()];
        }
    }

    // ------------------------------------------------------------------
    // Delta application
    // ------------------------------------------------------------------

    fn apply_edit(&mut self, a: usize, prefs: &[usize]) {
        let old_len = self.inst.len[a] as usize;
        if self.needs_full {
            // Raw mode: only the arena/off/len need to stay consistent.
            if prefs.len() == old_len {
                let lo = self.inst.off[a] as usize;
                for (i, &p) in prefs.iter().enumerate() {
                    self.inst.arena[lo + i] = Idx::new(p);
                }
            } else {
                self.ensure_arena_room(prefs.len());
                self.inst.off[a] = self.inst.arena.len() as u32;
                self.inst.len[a] = prefs.len() as u32;
                self.inst.arena.extend(prefs.iter().map(|&p| Idx::new(p)));
                self.inst.live_entries = self.inst.live_entries + prefs.len() - old_len;
            }
            return;
        }

        let old_f = self.f[a];
        let new_f = Idx::new(prefs[0]);

        // 1. Rewrite the arena slots and the reverse index.
        if prefs.len() == old_len {
            let lo = self.inst.off[a] as usize;
            for (i, &p) in prefs.iter().enumerate() {
                if self.arena_post(lo + i) != p {
                    self.rev_unlink(lo + i);
                    self.inst.arena[lo + i] = Idx::new(p);
                    self.rev_link(lo + i, p);
                }
            }
        } else {
            for slot in self.inst.slots(a) {
                self.rev_unlink(slot);
            }
            self.ensure_arena_room(prefs.len());
            let base = self.inst.arena.len();
            self.inst.off[a] = base as u32;
            self.inst.len[a] = prefs.len() as u32;
            self.inst.arena.extend(prefs.iter().map(|&p| Idx::new(p)));
            let grown = self.inst.arena.len();
            self.rev_next.resize(grown, Idx::NONE);
            self.rev_prev.resize(grown, Idx::NONE);
            self.rev_owner.resize(grown, Idx::NONE);
            for (i, &p) in prefs.iter().enumerate() {
                self.rev_owner[base + i] = Idx::new(a);
                self.rev_link(base + i, p);
            }
            self.inst.live_entries = self.inst.live_entries + prefs.len() - old_len;
            if self.needs_full {
                // ensure_arena_room may have forced a compaction; the
                // indices are stale now, nothing more to maintain.
                return;
            }
        }

        // 2. First-choice bookkeeping and is_f_post flips.
        self.app_marks.reset(self.inst.num_applicants());
        self.rescan_buf.clear();
        if new_f != old_f {
            self.dirty.push(old_f.raw());
            self.finv_unlink(a);
            self.f[a] = new_f;
            self.finv_link(a, new_f.get());
            self.f_count[old_f.get()] -= 1;
            self.f_count[new_f.get()] += 1;
            if self.f_count[old_f.get()] == 0 {
                self.is_f_post[old_f.get()] = false;
            }
            if self.f_count[new_f.get()] == 1 {
                self.is_f_post[new_f.get()] = true;
            }
            // Both flips are applied before any rescan reads is_f_post.
            if self.f_count[old_f.get()] == 0 {
                self.collect_rev_owners(old_f.get());
            }
            if self.f_count[new_f.get()] == 1 {
                self.collect_rev_owners(new_f.get());
            }
        }
        // The edited applicant always rescans (its list changed even when
        // no census flip occurred).
        if self.app_marks.insert(a) {
            self.rescan_buf.push(a as u32);
        }

        // 3. Rescans (each merges + dirties as needed).
        for i in 0..self.rescan_buf.len() {
            let b = self.rescan_buf[i] as usize;
            self.rescan_s(b);
        }
        // Even when s(a) is unchanged, an f change moved `a` between
        // components: re-link and dirty the new one.
        if new_f != old_f {
            let sa = self.s[a].get();
            self.union(new_f.get(), sa);
            self.dirty.push(new_f.raw());
        }
    }

    fn apply_add_applicant(&mut self, prefs: &[usize]) {
        let n = self.inst.num_applicants();
        let np = self.inst.num_posts;
        if self.needs_full {
            self.raw_push_applicant(prefs);
            return;
        }
        let l = np + n;
        if l != self.posts_hi {
            // The new last-resort id re-occupies a retired slot whose
            // union–find/ring state still belongs to a dead component —
            // re-solve fully instead of patching (DESIGN.md §10).
            self.needs_full = true;
            self.raw_push_applicant(prefs);
            return;
        }
        // Arena + reverse index.
        self.ensure_arena_room(prefs.len());
        let base = self.inst.arena.len();
        self.inst.off.push(base as u32);
        self.inst.len.push(prefs.len() as u32);
        self.inst.arena.extend(prefs.iter().map(|&p| Idx::new(p)));
        self.inst.live_entries += prefs.len();
        if self.needs_full {
            return; // compaction fired mid-append
        }
        let grown = self.inst.arena.len();
        self.rev_next.resize(grown, Idx::NONE);
        self.rev_prev.resize(grown, Idx::NONE);
        self.rev_owner.resize(grown, Idx::NONE);
        for (i, &p) in prefs.iter().enumerate() {
            self.rev_owner[base + i] = Idx::new(n);
            self.rev_link(base + i, p);
        }
        // Fresh singleton component for the new last resort.
        self.parent.push(l as u32);
        self.csize.push(1);
        self.ring_next.push(l as u32);
        self.comp_bad.push(false);
        self.is_f_post.push(false);
        self.posts_hi += 1;
        // Applicant arrays.
        let new_f = Idx::new(prefs[0]);
        self.f.push(new_f);
        self.s.push(Idx::NONE);
        self.finv_next.push(Idx::NONE);
        self.finv_prev.push(Idx::NONE);
        self.finv_link(n, new_f.get());
        self.own_out();
        self.out.push_idx(Idx::new(l));
        self.spare_synced = false;
        // Census + rescans.  The new applicant's own list contains new_f,
        // so the flip-on rescan necessarily covers it; otherwise rescan it
        // explicitly (its s is the NONE sentinel, so rescan always fires).
        self.app_marks.reset(n + 1);
        self.rescan_buf.clear();
        self.f_count[new_f.get()] += 1;
        if self.f_count[new_f.get()] == 1 {
            self.is_f_post[new_f.get()] = true;
            self.collect_rev_owners(new_f.get());
        } else if self.app_marks.insert(n) {
            self.rescan_buf.push(n as u32);
        }
        for i in 0..self.rescan_buf.len() {
            let b = self.rescan_buf[i] as usize;
            self.rescan_s(b);
        }
    }

    fn raw_push_applicant(&mut self, prefs: &[usize]) {
        self.ensure_arena_room(prefs.len());
        self.inst.off.push(self.inst.arena.len() as u32);
        self.inst.len.push(prefs.len() as u32);
        self.inst.arena.extend(prefs.iter().map(|&p| Idx::new(p)));
        self.inst.live_entries += prefs.len();
    }

    fn apply_remove_applicant(&mut self, r: usize) {
        let n = self.inst.num_applicants();
        let m = n - 1;
        if self.needs_full {
            self.inst.live_entries -= self.inst.len[r] as usize;
            self.inst.off.swap_remove(r);
            self.inst.len.swap_remove(r);
            return;
        }
        let np = self.inst.num_posts;
        let old_f = self.f[r];

        // 1. Detach the removed applicant from every index.
        for slot in self.inst.slots(r) {
            self.rev_unlink(slot);
        }
        self.inst.live_entries -= self.inst.len[r] as usize;
        self.finv_unlink(r);
        self.dirty.push(old_f.raw());
        self.f_count[old_f.get()] -= 1;
        let flipped_off = self.f_count[old_f.get()] == 0;
        if flipped_off {
            self.is_f_post[old_f.get()] = false;
        }

        // 2. Swap-move the last applicant into slot r.
        if r != m {
            for slot in self.inst.slots(m) {
                self.rev_owner[slot] = Idx::new(r);
            }
            self.finv_rename(m, r);
        }
        self.inst.off.swap_remove(r);
        self.inst.len.swap_remove(r);
        self.f.swap_remove(r);
        self.s.swap_remove(r);
        self.finv_next.swap_remove(r);
        self.finv_prev.swap_remove(r);
        self.own_out();
        self.out.swap_remove(r);
        self.spare_synced = false;

        // 3. The moved applicant's last resort changes id from np+m to
        // np+r; if its s *was* its last resort, re-point it (the retired
        // id np+m keeps its stale ring/UF slot until the next rebuild).
        if r != m && self.s[r] == Idx::new(np + m) {
            self.s[r] = Idx::new(np + r);
            let fr = self.f[r].get();
            self.union(fr, np + r);
            self.dirty.push(fr as u32);
        }

        // 4. Census-flip rescans, after the move so owners are valid.
        if flipped_off {
            self.app_marks.reset(self.inst.num_applicants());
            self.rescan_buf.clear();
            self.collect_rev_owners(old_f.get());
            for i in 0..self.rescan_buf.len() {
                let b = self.rescan_buf[i] as usize;
                self.rescan_s(b);
            }
        }
    }

    fn apply_remove_post(&mut self, p: usize) {
        // Every last-resort id shifts, so this always re-solves fully;
        // the mutation itself is a raw arena rewrite.
        self.needs_full = true;
        let last = self.inst.num_posts - 1;
        let n = self.inst.num_applicants();
        let mut removed = 0usize;
        for a in 0..n {
            let lo = self.inst.off[a] as usize;
            let hi = lo + self.inst.len[a] as usize;
            let mut w = lo;
            for i in lo..hi {
                let q = self.inst.arena[i].get();
                if q == p {
                    continue;
                }
                self.inst.arena[w] = if q == last { Idx::new(p) } else { Idx::new(q) };
                w += 1;
            }
            removed += hi - w;
            self.inst.len[a] = (w - lo) as u32;
        }
        self.inst.live_entries -= removed;
        self.inst.num_posts = last;
    }

    /// Guards the `u32` arena offsets: if an append would overflow them,
    /// compact the arena now (allocating — vanishingly rare) and schedule
    /// a full rebuild, since every slot-based index just went stale.
    fn ensure_arena_room(&mut self, extra: usize) {
        if self.inst.arena.len() + extra <= u32::MAX as usize - 2 {
            return;
        }
        let mut fresh = Vec::with_capacity(self.inst.live_entries + extra + 16);
        for a in 0..self.inst.num_applicants() {
            let lo = self.inst.off[a] as usize;
            let hi = lo + self.inst.len[a] as usize;
            let base = fresh.len() as u32;
            fresh.extend_from_slice(&self.inst.arena[lo..hi]);
            self.inst.off[a] = base;
        }
        self.inst.arena = fresh;
        self.needs_full = true;
    }

    // ------------------------------------------------------------------
    // Flush internals
    // ------------------------------------------------------------------

    /// Canonicalises the dirty queue and re-solves each dirty shard.
    /// Returns `false` (leaving the instance un-patched) when the dirty
    /// fraction exceeds the full-solve threshold.
    fn solve_dirty_inner(&mut self) -> bool {
        if self.dirty.is_empty() {
            return true;
        }
        let live_total = self.inst.num_posts + self.inst.num_applicants();
        self.dirty_marks.reset(self.posts_hi);
        let mut roots = self.ws.take_u32_empty();
        let mut dirty_posts: u64 = 0;
        for i in 0..self.dirty.len() {
            let r = uf_find(&mut self.parent, self.dirty[i]);
            if self.dirty_marks.insert(r as usize) {
                roots.push(r);
                dirty_posts += u64::from(self.csize[r as usize]);
            }
        }
        self.dirty.clear();
        if dirty_posts as f64 > FULL_SOLVE_DIRTY_FRACTION * live_total as f64 {
            self.ws.put_u32(roots);
            return false;
        }
        for &r in &roots {
            self.solve_shard(r);
        }
        self.ws.put_u32(roots);
        true
    }

    /// Re-solves the component rooted at `root` on a compact, monotonically
    /// remapped id space and splices the result into the cached matching.
    fn solve_shard(&mut self, root: u32) {
        self.stats.shard_solves += 1;
        let np = self.inst.num_posts;
        let ri = root as usize;

        // Gather members: every applicant's f-post lies in its component,
        // so walking the component's post ring and each real post's f⁻¹
        // list enumerates each member exactly once.
        let mut members = self.ws.take_idx_empty();
        let mut p = ri;
        loop {
            if p < np {
                let mut b = self.finv_head[p];
                while b.is_some() {
                    members.push(b);
                    b = self.finv_next[b.get()];
                }
            }
            p = self.ring_next[p] as usize;
            if p == ri {
                break;
            }
        }
        let k = members.len();
        if k == 0 {
            // Every applicant migrated out; an empty component is
            // trivially feasible.
            if self.comp_bad[ri] {
                self.comp_bad[ri] = false;
                self.bad_comps -= 1;
            }
            self.ws.put_idx(members);
            return;
        }
        members.sort_unstable();

        // Shard post space: the members' f/s posts, sorted ascending so
        // real posts precede last resorts and the remap is monotone.
        let mut posts = self.ws.take_idx_empty();
        self.post_marks.reset(self.posts_hi);
        for &m in &members {
            let b = m.get();
            let (fb, sb) = (self.f[b], self.s[b]);
            if self.post_marks.insert(fb.get()) {
                posts.push(fb);
            }
            if self.post_marks.insert(sb.get()) {
                posts.push(sb);
            }
        }
        posts.sort_unstable();
        let sp_real = posts.partition_point(|q| q.get() < np);
        self.post_map.reset(self.posts_hi);
        for (i, &q) in posts.iter().enumerate() {
            self.post_map.set(q.get(), i as u32);
        }

        // Remapped sub-instance (every slot written before read).
        let kp = posts.len();
        let mut sub_f = self.ws.take_idx_dirty(k, Idx::NONE);
        let mut sub_s = self.ws.take_idx_dirty(k, Idx::NONE);
        for i in 0..k {
            let b = members[i].get();
            sub_f[i] = Idx::from_raw(self.post_map.get(self.f[b].get()).expect("f post mapped"));
            sub_s[i] = Idx::from_raw(self.post_map.get(self.s[b].get()).expect("s post mapped"));
        }
        let mut sub_m = self.ws.take_idx(k, Idx::NONE);
        let (feasible, _peel_rounds) = applicant_complete_matching_into(
            kp,
            &sub_f,
            &sub_s,
            &mut sub_m,
            &mut self.ws,
            &self.tracker,
        );
        if feasible {
            // Shard f-post status equals global status restricted to the
            // shard: f⁻¹ of a shard post is entirely inside the shard.
            let mut sub_isf = self.ws.take_bool(kp, false);
            for i in 0..k {
                sub_isf[sub_f[i].get()] = true;
            }
            promote_into(
                &sub_f,
                &sub_s,
                &sub_isf,
                &mut sub_m,
                &mut self.ws,
                &self.tracker,
            );
            if self.mode == DeltaMode::MaxCardinality {
                improve_to_maximum_cardinality_ws(
                    &sub_f,
                    &sub_s,
                    sp_real,
                    &mut sub_m,
                    &mut self.ws,
                    &self.tracker,
                );
            }
            self.own_out();
            let out = self.out.as_mut_slice();
            for i in 0..k {
                out[members[i].get()] = posts[sub_m[i].get()];
            }
            if self.spare_synced && self.respliced.len() + k <= self.respliced.capacity() {
                self.respliced.extend_from_slice(&members);
            } else {
                self.spare_synced = false;
            }
            self.stats.spliced_applicants += k as u64;
            if self.comp_bad[ri] {
                self.comp_bad[ri] = false;
                self.bad_comps -= 1;
            }
            self.ws.put_bool(sub_isf);
        } else if !self.comp_bad[ri] {
            self.comp_bad[ri] = true;
            self.bad_comps += 1;
        }
        self.ws.put_idx(sub_m);
        self.ws.put_idx(sub_s);
        self.ws.put_idx(sub_f);
        self.ws.put_idx(posts);
        self.ws.put_idx(members);
    }

    /// Makes the cached matching writable without changing an answer a
    /// caller holds.  A held `out` trades places with the spare, which is
    /// first brought up to date: by replaying the `respliced` log (time
    /// proportional to the spliced applicants, no allocation) when the spare
    /// is free and in sync, by one plain copy otherwise — in place into a
    /// free spare, into a fresh buffer while a caller still holds it.
    fn own_out(&mut self) {
        if self.out.is_unique() {
            return;
        }
        if self.spare_synced && self.spare.is_unique() {
            let (cur, spare) = (self.out.as_slice(), self.spare.as_mut_slice());
            for &a in &self.respliced {
                spare[a.get()] = cur[a.get()];
            }
        } else {
            self.spare.copy_from(self.out.as_slice());
        }
        std::mem::swap(&mut self.out, &mut self.spare);
        self.respliced.clear();
        self.spare_synced = true;
    }

    /// Full rebuild: recompute the reduced graph from the arena, solve
    /// globally, and reconstitute every incremental index from scratch.
    fn rebuild_full_inner(&mut self) {
        self.stats.full_solves += 1;
        self.dirty.clear();
        if self.inst.arena.len() > 2 * self.inst.live_entries + 64 {
            self.compact_arena();
        }
        let n = self.inst.num_applicants();
        let np = self.inst.num_posts;
        let total = np + n;

        // Reduced graph, mirroring ReducedGraph::build_into's three steps
        // (sequential here: a rebuild is already the slow path, and the
        // charges stay deterministic across thread counts).
        self.tracker.phase();
        self.tracker.round();
        self.tracker.work(n as u64);
        self.f.clear();
        for a in 0..n {
            self.f.push(self.inst.arena[self.inst.off[a] as usize]);
        }
        self.tracker.round();
        self.tracker.work(n as u64);
        self.f_count.clear();
        self.f_count.resize(np, 0);
        for a in 0..n {
            self.f_count[self.f[a].get()] += 1;
        }
        self.is_f_post.clear();
        self.is_f_post.resize(total, false);
        for p in 0..np {
            self.is_f_post[p] = self.f_count[p] > 0;
        }
        self.tracker.round();
        let mut examined: u64 = 0;
        self.s.clear();
        for a in 0..n {
            let lo = self.inst.off[a] as usize;
            let hi = lo + self.inst.len[a] as usize;
            let mut sa = Idx::new(np + a);
            for i in lo..hi {
                examined += 1;
                let p = self.inst.arena[i];
                if !self.is_f_post[p.get()] {
                    sa = p;
                    break;
                }
            }
            self.s.push(sa);
        }
        self.tracker.work(examined);

        // Global solve through the shared workspace, into a buffer no
        // caller holds: every slot is rewritten, so a held `out` trades
        // places with the spare instead of being copied.
        if !self.out.is_unique() {
            std::mem::swap(&mut self.out, &mut self.spare);
        }
        self.out.reset_unassigned(n);
        self.spare_synced = false;
        let (feasible, _peel_rounds) = applicant_complete_matching_into(
            total,
            &self.f,
            &self.s,
            self.out.as_mut_slice(),
            &mut self.ws,
            &self.tracker,
        );
        if !feasible {
            // Stay in full-rebuild mode until a delta restores
            // feasibility; the decomposition is not rebuilt (it would
            // describe an instance we cannot serve anyway).
            self.infeasible_full = true;
            self.needs_full = true;
            return;
        }
        promote_into(
            &self.f,
            &self.s,
            &self.is_f_post,
            self.out.as_mut_slice(),
            &mut self.ws,
            &self.tracker,
        );
        if self.mode == DeltaMode::MaxCardinality {
            improve_to_maximum_cardinality_ws(
                &self.f,
                &self.s,
                np,
                self.out.as_mut_slice(),
                &mut self.ws,
                &self.tracker,
            );
        }

        // Fresh decomposition and indices.
        self.parent.clear();
        self.parent.extend(0..total as u32);
        self.csize.clear();
        self.csize.resize(total, 1);
        self.ring_next.clear();
        self.ring_next.extend(0..total as u32);
        self.comp_bad.clear();
        self.comp_bad.resize(total, false);
        self.bad_comps = 0;
        self.finv_head.clear();
        self.finv_head.resize(np, Idx::NONE);
        self.finv_next.clear();
        self.finv_next.resize(n, Idx::NONE);
        self.finv_prev.clear();
        self.finv_prev.resize(n, Idx::NONE);
        for a in 0..n {
            let p = self.f[a].get();
            self.finv_link(a, p);
        }
        let arena_len = self.inst.arena.len();
        self.rev_head.clear();
        self.rev_head.resize(np, Idx::NONE);
        self.rev_next.clear();
        self.rev_next.resize(arena_len, Idx::NONE);
        self.rev_prev.clear();
        self.rev_prev.resize(arena_len, Idx::NONE);
        self.rev_owner.clear();
        self.rev_owner.resize(arena_len, Idx::NONE);
        for a in 0..n {
            for slot in self.inst.slots(a) {
                self.rev_owner[slot] = Idx::new(a);
                let p = self.arena_post(slot);
                self.rev_link(slot, p);
            }
        }
        for a in 0..n {
            let (fa, sa) = (self.f[a].get(), self.s[a].get());
            self.union(fa, sa);
        }
        self.posts_hi = total;
        self.needs_full = false;
        self.infeasible_full = false;
    }

    /// Rewrites the arena densely in applicant order, dropping leaked
    /// slots.  Only called from the full-rebuild path (or the u32-offset
    /// guard), which reconstructs the slot-based indices afterwards.
    fn compact_arena(&mut self) {
        let mut fresh = Vec::with_capacity(self.inst.live_entries + 16);
        for a in 0..self.inst.num_applicants() {
            let lo = self.inst.off[a] as usize;
            let hi = lo + self.inst.len[a] as usize;
            let base = fresh.len() as u32;
            fresh.extend_from_slice(&self.inst.arena[lo..hi]);
            self.inst.off[a] = base;
        }
        self.inst.arena = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::PopularSolver;

    fn inst(num_posts: usize, lists: &[&[usize]]) -> PrefInstance {
        PrefInstance::new_strict(num_posts, lists.iter().map(|l| l.to_vec()).collect()).unwrap()
    }

    fn assert_matches_fresh(ds: &mut DeltaSolver) {
        let snap = ds.snapshot_instance().expect("snapshot");
        let mut fresh = PopularSolver::new(0, 0);
        let expected = match ds.mode() {
            DeltaMode::Popular => fresh.solve(&snap).map(|m| m.as_slice().to_vec()),
            DeltaMode::MaxCardinality => fresh
                .solve_max_cardinality(&snap)
                .map(|m| m.as_slice().to_vec()),
        };
        let got = ds.flush().map(|m| m.as_slice().to_vec());
        assert_eq!(got, expected);
    }

    #[test]
    fn install_matches_fresh_solve_in_both_modes() {
        let base = inst(4, &[&[0, 1], &[0, 2], &[2, 0], &[3, 1]]);
        for mode in [DeltaMode::Popular, DeltaMode::MaxCardinality] {
            let mut ds = DeltaSolver::install(&base, mode).unwrap();
            assert_matches_fresh(&mut ds);
        }
    }

    #[test]
    fn edit_only_dirties_and_stays_equivalent() {
        // Eight independent two-post components; editing one must re-solve
        // only its shard and must stay bit-identical to a fresh solve.
        let lists: Vec<Vec<usize>> = (0..8).map(|a| vec![2 * a, 2 * a + 1]).collect();
        let base = PrefInstance::new_strict(16, lists).unwrap();
        let mut ds = DeltaSolver::install(&base, DeltaMode::MaxCardinality).unwrap();
        let before = ds.flush().unwrap().as_slice().to_vec();
        let full_before = ds.stats().full_solves;
        ds.apply(&Delta::EditPrefList {
            applicant: 0,
            prefs: vec![1, 0],
        })
        .unwrap();
        assert!(ds.is_dirty());
        assert_matches_fresh(&mut ds);
        assert_eq!(
            ds.stats().full_solves,
            full_before,
            "edit path stays incremental"
        );
        assert!(ds.stats().shard_solves >= 1);
        // The untouched components kept their cached slots.
        let after = ds.flush().unwrap().as_slice().to_vec();
        assert_eq!(after[1..], before[1..]);
    }

    /// Applies `d` and flushes; checks the answer against a fresh solve and
    /// returns a clone of it, held as a caller would hold it.
    fn publish(ds: &mut DeltaSolver, d: &Delta) -> Assignment {
        ds.apply(d).unwrap();
        assert_matches_fresh(ds);
        ds.flush().unwrap().clone()
    }

    #[test]
    fn held_answers_never_change_while_the_spare_recycles() {
        let lists: Vec<Vec<usize>> = (0..8).map(|a| vec![2 * a, 2 * a + 1]).collect();
        let base = PrefInstance::new_strict(16, lists).unwrap();
        let mut ds = DeltaSolver::install(&base, DeltaMode::Popular).unwrap();
        let swap_first = |a: usize| Delta::EditPrefList {
            applicant: a,
            prefs: vec![2 * a + 1, 2 * a],
        };
        let ptr = |m: &Assignment| m.as_slice().as_ptr();

        // One held generation: the buffer published two rounds back is
        // recycled once its holder drops it.
        let a1 = publish(&mut ds, &swap_first(0));
        let a2 = publish(&mut ds, &swap_first(1));
        let p1 = ptr(&a1);
        assert_ne!(p1, ptr(&a2));
        drop(a1);
        let a3 = publish(&mut ds, &swap_first(2));
        assert_eq!(ptr(&a3), p1, "a free spare is recycled");
        drop(a2);

        // Two held generations: the spare is taken, so the solver copies.
        let a4 = publish(&mut ds, &swap_first(3));
        let mut held = vec![(a3.as_slice().to_vec(), a3), (a4.as_slice().to_vec(), a4)];
        let a5 = publish(&mut ds, &swap_first(4));
        assert!(held.iter().all(|(_, h)| ptr(h) != ptr(&a5)));
        held.push((a5.as_slice().to_vec(), a5));

        // A full rebuild, then both applicant-count changes.
        for d in [
            Delta::AddPost,
            Delta::AddApplicant { prefs: vec![16, 0] },
            Delta::RemoveApplicant { applicant: 0 },
        ] {
            let m = publish(&mut ds, &d);
            held.push((m.as_slice().to_vec(), m));
        }
        for (value, m) in &held {
            assert_eq!(m.as_slice(), &value[..], "a held answer changed");
        }
    }

    #[test]
    fn add_and_remove_applicants_stay_equivalent() {
        let base = inst(5, &[&[0, 1], &[2, 3]]);
        let mut ds = DeltaSolver::install(&base, DeltaMode::Popular).unwrap();
        ds.apply(&Delta::AddApplicant { prefs: vec![4, 0] })
            .unwrap();
        assert_matches_fresh(&mut ds);
        ds.apply(&Delta::AddApplicant { prefs: vec![0, 2] })
            .unwrap();
        assert_matches_fresh(&mut ds);
        ds.apply(&Delta::RemoveApplicant { applicant: 0 }).unwrap();
        assert_matches_fresh(&mut ds);
        // Regrowing into the retired last-resort id forces a full rebuild
        // but stays correct.
        let full_before = ds.stats().full_solves;
        ds.apply(&Delta::AddApplicant { prefs: vec![1, 3] })
            .unwrap();
        assert_matches_fresh(&mut ds);
        assert!(ds.stats().full_solves > full_before);
    }

    #[test]
    fn post_deltas_force_full_rebuild_and_stay_equivalent() {
        let base = inst(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let mut ds = DeltaSolver::install(&base, DeltaMode::MaxCardinality).unwrap();
        ds.apply(&Delta::AddPost).unwrap();
        assert!(ds.is_dirty());
        assert_matches_fresh(&mut ds);
        ds.apply(&Delta::EditPrefList {
            applicant: 0,
            prefs: vec![4, 0, 1],
        })
        .unwrap();
        assert_matches_fresh(&mut ds);
        // Removing post 0 renumbers post 4 -> 0 and strips 0 from lists.
        ds.apply(&Delta::RemovePost { post: 0 }).unwrap();
        assert_matches_fresh(&mut ds);
        assert_eq!(ds.num_posts(), 4);
        // Removing a post that would empty a list is rejected atomically.
        let only = inst(1, &[&[0]]);
        let mut ds = DeltaSolver::install(&only, DeltaMode::Popular).unwrap();
        let err = ds.apply(&Delta::RemovePost { post: 0 }).unwrap_err();
        assert!(matches!(err, PopularError::InvalidInstance(_)));
        assert_eq!(ds.num_posts(), 1, "rejected delta mutates nothing");
        assert!(ds.flush().is_ok());
    }

    #[test]
    fn infeasibility_is_tracked_per_component_and_heals() {
        // p0/p1 with three applicants fighting over them: no popular
        // matching; a second, healthy component must keep serving after
        // the first heals.
        let base = inst(4, &[&[0, 1], &[0, 1], &[2, 3]]);
        let mut ds = DeltaSolver::install(&base, DeltaMode::Popular).unwrap();
        assert!(ds.flush().is_ok(), "two applicants on two posts are fine");
        // A third applicant with f = 0 and s = 1 overloads the component:
        // three applicants, two alive posts.
        ds.apply(&Delta::AddApplicant { prefs: vec![0, 1] })
            .unwrap();
        assert_eq!(ds.flush().unwrap_err(), PopularError::NoPopularMatching);
        // The bad flag persists across an unrelated flush.
        assert_eq!(ds.flush().unwrap_err(), PopularError::NoPopularMatching);
        // Healing the component restores service.
        ds.apply(&Delta::RemoveApplicant { applicant: 3 }).unwrap();
        assert_matches_fresh(&mut ds);
    }

    #[test]
    fn dirty_fraction_threshold_falls_back_to_full_solve() {
        // One big component (shared s-post chain): editing it dirties more
        // than the threshold fraction of posts.
        let lists: Vec<Vec<usize>> = (0..8).map(|a| vec![a, 8]).collect();
        let base = PrefInstance::new_strict(9, lists).unwrap();
        let mut ds = DeltaSolver::install(&base, DeltaMode::Popular).unwrap();
        // Moving post 8 to the front makes it an f-post, which re-points
        // s(a) for every applicant sharing it: the whole component is dirty.
        ds.apply(&Delta::EditPrefList {
            applicant: 0,
            prefs: vec![8, 0],
        })
        .unwrap();
        let before = ds.stats().fallback_full_solves;
        assert_matches_fresh(&mut ds);
        assert!(
            ds.stats().fallback_full_solves > before,
            "a dirty shard covering most of the instance must fall back"
        );
    }

    #[test]
    fn poisoned_solver_refuses_and_recovers_fully() {
        let base = inst(3, &[&[0, 1], &[1, 2]]);
        let mut ds = DeltaSolver::install(&base, DeltaMode::MaxCardinality).unwrap();
        // Simulate a panic that unwound mid-flush: the epoch stays open.
        ds.ws.begin_epoch();
        assert!(ds.is_poisoned());
        assert_eq!(ds.flush().unwrap_err(), PopularError::SolverPoisoned);
        assert_eq!(
            ds.apply(&Delta::AddPost).unwrap_err(),
            PopularError::SolverPoisoned
        );
        // Recovery rebuilds scratch and re-solves fully.
        let full_before = ds.stats().full_solves;
        let m = ds.recover().unwrap().as_slice().to_vec();
        assert!(ds.stats().full_solves > full_before);
        let mut fresh = PopularSolver::new(0, 0);
        let snap = ds.snapshot_instance().unwrap();
        assert_eq!(
            m,
            fresh
                .solve_max_cardinality(&snap)
                .unwrap()
                .as_slice()
                .to_vec()
        );
    }

    #[test]
    fn invalid_deltas_are_rejected_without_mutation() {
        let base = inst(3, &[&[0, 1], &[1, 2]]);
        let mut ds = DeltaSolver::install(&base, DeltaMode::Popular).unwrap();
        for bad in [
            Delta::EditPrefList {
                applicant: 0,
                prefs: vec![],
            },
            Delta::EditPrefList {
                applicant: 0,
                prefs: vec![0, 0],
            },
            Delta::EditPrefList {
                applicant: 0,
                prefs: vec![3],
            },
            Delta::EditPrefList {
                applicant: 7,
                prefs: vec![0],
            },
            Delta::RemoveApplicant { applicant: 2 },
            Delta::AddApplicant { prefs: vec![5] },
        ] {
            assert!(ds.apply(&bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(!ds.is_dirty(), "rejected deltas leave nothing dirty");
        assert_matches_fresh(&mut ds);
    }

    #[test]
    fn ties_are_rejected_at_install() {
        let tied = PrefInstance::new_with_ties(2, vec![vec![vec![0, 1]], vec![vec![1]]]).unwrap();
        assert_eq!(
            DeltaSolver::install(&tied, DeltaMode::Popular).unwrap_err(),
            PopularError::TiesNotSupported
        );
    }
}
