//! The one-sided preference instance and applicant-complete assignments.
//!
//! An instance is a bipartite graph `G = (A ∪ P, E)` where every applicant
//! `a ∈ A` ranks a non-empty subset of the posts, possibly with ties
//! (Section II-A).  As in the paper (and in Abraham et al.), every applicant
//! additionally gets a unique *last-resort* post `l(a)` appended after all
//! real choices, so that every matching can be treated as applicant-complete
//! and the *size* of a matching is the number of applicants **not** assigned
//! to their last resort.
//!
//! Post identifiers: real posts are `0..num_posts`; the last resort of
//! applicant `a` is the *extended* post id `num_posts + a`.
//!
//! # Storage: flat 32-bit CSR, built once at validation time
//!
//! Preference lists are stored in a compressed sparse row (CSR) layout
//! rather than nested vectors: one flat array with all ranked posts in
//! preference order (applicant-major), a parallel array with each entry's
//! tie-group index (its *rank*), and two offset arrays delimiting the
//! applicants and the tie groups.  Every accessor hands out contiguous
//! slices of these arrays, so the hot loops of the reduced-graph
//! construction, Algorithm 2 and the ties reduction stream through memory
//! instead of chasing `Vec<Vec<Vec<usize>>>` pointers.
//!
//! All five arrays are 32-bit ([`Idx`] posts, `u32` offsets and ranks —
//! DESIGN.md §7), which halves the bytes every downstream scan moves.
//! Construction is the **size funnel** of the whole pipeline: it rejects
//! any instance whose applicant, extended-post or edge counts would not fit
//! the 32-bit layer with a typed [`PopularError::TooLarge`], so every
//! kernel below may assume indices fit without re-checking.  The layout is
//! fixed at construction; instances are immutable afterwards.

use std::sync::Arc;

use pm_pram::{EpochMarks, Idx};

use crate::error::PopularError;

/// The largest admissible applicant count: a quarter of the `u32` range,
/// still north of 10⁹ — far beyond anything the dense arrays fit in memory
/// anyway.  Algorithm 2 numbers applicant `a`'s two sides `2a` and `2a + 1`
/// in [`Idx`] ids, so side ids stay in range with room to spare.
pub const MAX_APPLICANTS: usize = (u32::MAX as usize - 3) / 4;

/// The largest admissible extended-post count (`num_posts + num_applicants`)
/// and edge count: the [`Idx`] range.
pub const MAX_ENTITIES: usize = Idx::MAX_INDEX;

/// Rejects counts that do not fit the 32-bit index layer — the single
/// construction-time check every kernel below relies on.  Public so the
/// property tests can drive every overflow branch with fabricated counts
/// (a real 4-billion-edge instance would not fit in memory); the
/// constructors call it before any proportional allocation.
pub fn check_sizes(
    num_applicants: usize,
    num_posts: usize,
    num_edges: usize,
) -> Result<(), PopularError> {
    if num_applicants > MAX_APPLICANTS {
        return Err(PopularError::TooLarge {
            what: "applicants",
            count: num_applicants,
            limit: MAX_APPLICANTS,
        });
    }
    let total_posts = num_posts.saturating_add(num_applicants);
    if total_posts > MAX_ENTITIES {
        return Err(PopularError::TooLarge {
            what: "extended posts",
            count: total_posts,
            limit: MAX_ENTITIES,
        });
    }
    if num_edges > MAX_ENTITIES {
        return Err(PopularError::TooLarge {
            what: "preference edges",
            count: num_edges,
            limit: MAX_ENTITIES,
        });
    }
    Ok(())
}

/// `None` if `xs` is strictly increasing, else the first index `i` with
/// `xs[i] >= xs[i + 1]`.  The hot side is a branch-free adjacent-compare
/// scan the optimiser vectorises; the index is re-derived only on the cold
/// error side.
fn first_non_increase(xs: &[u32]) -> Option<usize> {
    if xs.windows(2).all(|w| w[0] < w[1]) {
        None
    } else {
        xs.windows(2).position(|w| w[0] >= w[1])
    }
}

/// Checks that `ranks[i]` equals the position of entry `i`'s tie group on
/// its applicant's list, on the store's native width (`u16` or `u32` —
/// monomorphised per width so the hot loop never widens).  Assumes the
/// offset arrays already passed the strictly-increasing and tiling scans.
/// A rank that does not fit `T` at all (an applicant with more tie groups
/// than the store can number) is reported as a width error.
fn check_rank_tiling<T: Copy + Eq + TryFrom<usize>>(
    ranks: &[T],
    group_off: &[u32],
    group_idx: &[u32],
) -> Result<(), String> {
    let n_a = group_idx.len() - 1;
    for a in 0..n_a {
        let (glo, ghi) = (group_idx[a] as usize, group_idx[a + 1] as usize);
        let (lo, hi) = (group_off[glo] as usize, group_off[ghi] as usize);
        if ghi - glo == hi - lo {
            // Every tie group is a singleton (the strict-instance shape, by
            // far the common case): the ranks of this applicant are exactly
            // 0, 1, …, k−1, checked in one flat sweep with no per-group
            // slicing.
            let ok = ranks[lo..hi]
                .iter()
                .enumerate()
                .all(|(r, &x)| T::try_from(r).is_ok_and(|r| x == r));
            if !ok {
                return Err(rank_tiling_error(a, glo, lo, &ranks[lo..hi]));
            }
        } else {
            for g in glo..ghi {
                let Ok(r) = T::try_from(g - glo) else {
                    return Err(format!(
                        "applicant {a}: rank {} does not fit the rank store's width",
                        g - glo
                    ));
                };
                let (s, e) = (group_off[g] as usize, group_off[g + 1] as usize);
                if let Some(i) = ranks[s..e].iter().position(|&x| x != r) {
                    return Err(format!(
                        "applicant {a}: entry {} carries the wrong rank inside tie group {}",
                        s + i,
                        g - glo
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Cold error side of the singleton fast path in [`check_rank_tiling`]:
/// re-derives which entry broke the 0, 1, …, k−1 rank sequence.
fn rank_tiling_error<T: Copy + Eq + TryFrom<usize>>(
    a: usize,
    glo: usize,
    lo: usize,
    ranks: &[T],
) -> String {
    for (r, &x) in ranks.iter().enumerate() {
        match T::try_from(r) {
            Ok(want) if x == want => continue,
            Ok(_) => {
                return format!(
                    "applicant {a}: entry {} carries the wrong rank inside tie group {r}",
                    lo + r
                );
            }
            Err(_) => {
                return format!("applicant {a}: rank {r} does not fit the rank store's width");
            }
        }
    }
    // `all` reported a mismatch, so the loop above must find one; if the
    // store mutated under us that is a caller bug, not corrupt input.
    unreachable!("rank mismatch vanished on the error path (applicant {a}, groups at {glo})")
}

/// Every post id is in range — the first of the two post-payload scans
/// shared by the flat constructors ([`PrefInstance::from_csr_parts`] /
/// [`PrefInstance::from_strict_csr`]).  `list_off` must already be a
/// validated boundary array over `post_flat` (it is only consulted on the
/// cold error path, to name the offending applicant).
///
/// The scan is a chunked OR-reduction over the raw bit patterns (the
/// `Idx` sentinel is `u32::MAX`, so corrupted sentinels fail like any other
/// out-of-range id) — the inner loop is branch-free and vectorises, the
/// early exit lives at chunk granularity.
fn check_post_range(
    num_posts: usize,
    post_flat: &[Idx],
    list_off: &[u32],
) -> Result<(), PopularError> {
    // The cast is exact: callers run `check_sizes` first, which bounds
    // `num_posts` to the 32-bit layer.
    let limit = num_posts as u32;
    let out_of_range = post_flat
        .chunks(1024)
        .any(|c| c.iter().fold(false, |acc, p| acc | (p.raw() >= limit)));
    if out_of_range {
        let i = post_flat
            .iter()
            .position(|p| p.raw() >= limit)
            .expect("a scan just found one");
        let a = list_off.partition_point(|&o| o as usize <= i) - 1;
        return Err(PopularError::InvalidInstance(format!(
            "applicant {a} ranks post {}, but there are only {num_posts} posts",
            post_flat[i].raw()
        )));
    }
    Ok(())
}

/// Detects whether one (short) preference list repeats a post.
///
/// Real corpora are dominated by lists of half a dozen entries, where a
/// closed-form all-pairs comparison — no inner loop, no data-dependent
/// trip count, everything in registers — beats both epoch marking and the
/// general quadratic scan by a wide margin; the slice-pattern arms pin
/// those shapes down for the optimiser.  Detection only; the caller
/// re-derives the offending post on the cold path.
fn list_has_dup(s: &[Idx]) -> bool {
    match s {
        [] | [_] => false,
        [a, b] => a == b,
        [a, b, c] => (a == b) | (a == c) | (b == c),
        [a, b, c, d] => (a == b) | (a == c) | (a == d) | (b == c) | (b == d) | (c == d),
        [a, b, c, d, e] => {
            (a == b)
                | (a == c)
                | (a == d)
                | (a == e)
                | (b == c)
                | (b == d)
                | (b == e)
                | (c == d)
                | (c == e)
                | (d == e)
        }
        [a, b, c, d, e, f] => {
            (a == b)
                | (a == c)
                | (a == d)
                | (a == e)
                | (a == f)
                | (b == c)
                | (b == d)
                | (b == e)
                | (b == f)
                | (c == d)
                | (c == e)
                | (c == f)
                | (d == e)
                | (d == f)
                | (e == f)
        }
        s => {
            let mut dup = false;
            for i in 1..s.len() {
                let p = s[i];
                for &q in &s[..i] {
                    dup |= q == p;
                }
            }
            dup
        }
    }
}

/// No applicant ranks a post twice — the second shared post-payload scan.
/// `list_off` must already be a validated boundary array over `post_flat`.
///
/// Each (nearly always short, L1-resident) list slice goes through the
/// closed-form pairwise check of [`list_has_dup`], which beats the
/// random-access epoch marking of the nested constructors; genuinely long
/// lists fall back to the marks.
fn check_no_duplicates(
    num_posts: usize,
    post_flat: &[Idx],
    list_off: &[u32],
) -> Result<(), PopularError> {
    let invalid = |msg: String| Err(PopularError::InvalidInstance(msg));
    let n_a = list_off.len() - 1;
    let mut marks: Option<DupCheck> = None;
    for a in 0..n_a {
        let slice = &post_flat[list_off[a] as usize..list_off[a + 1] as usize];
        if slice.len() <= 64 {
            if list_has_dup(slice) {
                let p = (1..slice.len())
                    .find(|&i| slice[..i].contains(&slice[i]))
                    .map(|i| slice[i].get())
                    .expect("the scan just found one");
                return invalid(format!("applicant {a} ranks post {p} more than once"));
            }
        } else {
            let dup = marks.get_or_insert_with(|| DupCheck::new(num_posts));
            dup.next_applicant();
            for &p in slice {
                dup.check(a, p.get())?;
            }
        }
    }
    Ok(())
}

/// The per-entry tie-group indices of the CSR layout, stored at the
/// narrowest width that fits the instance's deepest preference list
/// (DESIGN.md §7–8): 2-byte entries when every rank is below 2¹⁶ — true
/// for every realistic workload — and 4-byte entries otherwise.  The rank
/// array is one of the two |E|-length streams every rank-aware scan moves,
/// so halving it is wall-clock on bandwidth-bound instances.
///
/// Equality is **by value**, not by representation: a `U16` store equals a
/// `U32` store holding the same ranks, so snapshots and constructors may
/// pick widths independently without breaking `PrefInstance` equality.
#[derive(Debug, Clone)]
pub enum RankArray {
    /// 2-byte ranks: every tie-group index fits `u16`.
    U16(Vec<u16>),
    /// 4-byte ranks, for lists with 2¹⁶ or more tie groups.
    U32(Vec<u32>),
}

impl RankArray {
    /// The largest rank value a `U16` store can hold.
    pub const U16_MAX_RANK: u32 = u16::MAX as u32;

    /// An empty store of the given width with room for `cap` entries;
    /// `fits_u16` is "every rank that will be pushed is ≤
    /// [`U16_MAX_RANK`](Self::U16_MAX_RANK)" (callers know the deepest list
    /// before filling).
    pub fn with_capacity(cap: usize, fits_u16: bool) -> Self {
        if fits_u16 {
            RankArray::U16(Vec::with_capacity(cap))
        } else {
            RankArray::U32(Vec::with_capacity(cap))
        }
    }

    /// Wraps a plain `u32` rank vector, narrowing it to 2-byte entries when
    /// every value fits (the cold nested-`Vec` constructors use this).
    pub fn from_u32_vec(ranks: Vec<u32>) -> Self {
        if ranks.iter().all(|&r| r <= Self::U16_MAX_RANK) {
            RankArray::U16(ranks.into_iter().map(|r| r as u16).collect())
        } else {
            RankArray::U32(ranks)
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            RankArray::U16(v) => v.len(),
            RankArray::U32(v) => v.len(),
        }
    }

    /// True iff the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff ranks are stored as 2-byte entries.
    pub fn is_u16(&self) -> bool {
        matches!(self, RankArray::U16(_))
    }

    /// The rank at position `i`, widened to `u32`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            RankArray::U16(v) => v[i] as u32,
            RankArray::U32(v) => v[i],
        }
    }

    /// Appends a rank.
    ///
    /// # Panics
    /// Debug builds panic when pushing a rank above
    /// [`U16_MAX_RANK`](Self::U16_MAX_RANK) into a `U16` store; the
    /// constructors size the width from the deepest list first, so this is
    /// unreachable through the public API.
    #[inline]
    pub fn push(&mut self, r: u32) {
        match self {
            RankArray::U16(v) => {
                debug_assert!(r <= Self::U16_MAX_RANK, "rank exceeds the u16 store");
                v.push(r as u16);
            }
            RankArray::U32(v) => v.push(r),
        }
    }

    /// Iterates the ranks, widened to `u32`.
    pub fn iter(&self) -> RankIter<'_> {
        match self {
            RankArray::U16(v) => RankIter::U16(v.iter()),
            RankArray::U32(v) => RankIter::U32(v.iter()),
        }
    }

    /// Iterates the sub-range `lo..hi`, widened to `u32`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, like slice indexing.
    pub fn range_iter(&self, lo: usize, hi: usize) -> RankIter<'_> {
        match self {
            RankArray::U16(v) => RankIter::U16(v[lo..hi].iter()),
            RankArray::U32(v) => RankIter::U32(v[lo..hi].iter()),
        }
    }

    /// Resident heap bytes of the store.
    pub fn heap_bytes(&self) -> usize {
        match self {
            RankArray::U16(v) => v.len() * std::mem::size_of::<u16>(),
            RankArray::U32(v) => v.len() * std::mem::size_of::<u32>(),
        }
    }
}

impl PartialEq for RankArray {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (RankArray::U16(a), RankArray::U16(b)) => a == b,
            (RankArray::U32(a), RankArray::U32(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for RankArray {}

/// Iterator over per-entry ranks, yielding every rank as `u32` — backed by
/// a [`RankArray`] slice, or by nothing at all for strict instances, whose
/// ranks are the positions `0, 1, …` themselves.
pub enum RankIter<'a> {
    /// Iterating a 2-byte store.
    U16(std::slice::Iter<'a, u16>),
    /// Iterating a 4-byte store.
    U32(std::slice::Iter<'a, u32>),
    /// Iterating the derived iota ranks of a strict instance.
    Iota(std::ops::Range<u32>),
}

impl Iterator for RankIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            RankIter::U16(it) => it.next().map(|&r| r as u32),
            RankIter::U32(it) => it.next().copied(),
            RankIter::Iota(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RankIter::U16(it) => it.size_hint(),
            RankIter::U32(it) => it.size_hint(),
            RankIter::Iota(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for RankIter<'_> {}

/// A borrowed view of the validated CSR arrays — everything a serialiser
/// needs to persist an instance without re-deriving structure (the binary
/// snapshot in `pm_instances::snapshot` writes exactly these sections).
/// `ties` is `None` for strict instances, whose tie layer is derived, not
/// stored.
#[derive(Debug, Clone, Copy)]
pub struct CsrParts<'a> {
    /// Number of real posts.
    pub num_posts: usize,
    /// Every ranked post, applicant-major, in preference order.
    pub post_flat: &'a [Idx],
    /// Per-applicant entry boundaries (length `num_applicants + 1`).
    pub list_off: &'a [u32],
    /// The materialised tie layer; `None` for strict instances.
    pub ties: Option<TiedCsrParts<'a>>,
}

/// The tie-layer arrays of a non-strict instance (see [`CsrParts::ties`]).
#[derive(Debug, Clone, Copy)]
pub struct TiedCsrParts<'a> {
    /// Tie-group index of each `post_flat` entry.
    pub rank_flat: &'a RankArray,
    /// Global tie-group boundaries (length `groups + 1`).
    pub group_off: &'a [u32],
    /// Per-applicant group-id ranges (length `num_applicants + 1`).
    pub group_idx: &'a [u32],
}

/// The tie layer of an instance.  A **strict** instance (every tie group a
/// singleton) fully determines all three arrays — `group_off` is the
/// identity boundary array, `group_idx` equals `list_off`, and the ranks
/// are a per-applicant iota — so storing them would triple the footprint
/// for zero information.  Every constructor canonicalises: an instance
/// whose group count equals its entry count is *always* `Strict`, so
/// derived `PartialEq` remains value equality.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TieStore {
    /// Every tie group is a singleton; the tie layer is derived on the fly.
    Strict,
    /// At least one tie group holds two or more posts.
    Tied {
        /// `rank_flat.get(i)` is the tie-group index of `post_flat[i]` on
        /// its applicant's list (2-byte entries when the deepest list fits).
        rank_flat: RankArray,
        /// Flat tie-group boundaries: group `g` (globally numbered) spans
        /// `post_flat[group_off[g]..group_off[g + 1]]`; length `groups + 1`.
        group_off: Vec<u32>,
        /// Applicant `a`'s tie groups are the global group ids
        /// `group_idx[a]..group_idx[a + 1]`; length `num_applicants + 1`.
        group_idx: Vec<u32>,
    },
}

impl TieStore {
    /// Canonicalises a fully validated tie layer: a layer with as many
    /// groups as entries is the strict one, and its arrays are dropped.
    fn canonical(rank_flat: RankArray, group_off: Vec<u32>, group_idx: Vec<u32>) -> Self {
        if group_off.len() == rank_flat.len() + 1 {
            TieStore::Strict
        } else {
            TieStore::Tied {
                rank_flat,
                group_off,
                group_idx,
            }
        }
    }
}

/// A one-sided preference instance with optionally tied preference lists,
/// stored as a flat 32-bit CSR structure (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefInstance {
    num_posts: usize,
    /// Every ranked post, applicant-major, in preference order.
    post_flat: Vec<Idx>,
    /// Applicant `a`'s entries are `post_flat[list_off[a]..list_off[a + 1]]`;
    /// length `num_applicants + 1`.
    list_off: Vec<u32>,
    /// The tie layer — materialised only when a real tie exists.
    ties: TieStore,
}

/// Shared validation state: an [`EpochMarks`] set over the posts, cleared
/// in O(1) per applicant by bumping the epoch — one O(|P|) allocation for
/// the whole construction instead of one per applicant.
struct DupCheck {
    seen: EpochMarks,
    num_posts: usize,
}

impl DupCheck {
    fn new(num_posts: usize) -> Self {
        Self {
            seen: EpochMarks::new(),
            num_posts,
        }
    }

    /// Starts validating the next applicant's list (clears the seen-set).
    fn next_applicant(&mut self) {
        self.seen.reset(self.num_posts);
    }

    fn check(&mut self, a: usize, p: usize) -> Result<(), PopularError> {
        let num_posts = self.num_posts;
        if p >= num_posts {
            return Err(PopularError::InvalidInstance(format!(
                "applicant {a} ranks post {p}, but there are only {num_posts} posts"
            )));
        }
        if !self.seen.insert(p) {
            return Err(PopularError::InvalidInstance(format!(
                "applicant {a} ranks post {p} twice"
            )));
        }
        Ok(())
    }
}

impl PrefInstance {
    /// Builds a strictly-ordered instance: `lists[a]` is applicant `a`'s
    /// preference list, most preferred first, over real posts `< num_posts`.
    ///
    /// The CSR arrays are filled directly from the lists — no intermediate
    /// per-entry singleton groups are materialised.
    pub fn new_strict(num_posts: usize, lists: Vec<Vec<usize>>) -> Result<Self, PopularError> {
        let total: usize = lists.iter().map(Vec::len).sum();
        check_sizes(lists.len(), num_posts, total)?;
        let mut post_flat = Vec::with_capacity(total);
        let mut list_off = Vec::with_capacity(lists.len() + 1);
        list_off.push(0u32);
        let mut dup = DupCheck::new(num_posts);
        for (a, list) in lists.iter().enumerate() {
            if list.is_empty() {
                return Err(PopularError::InvalidInstance(format!(
                    "applicant {a} has an empty preference list"
                )));
            }
            dup.next_applicant();
            for &p in list {
                dup.check(a, p)?;
                post_flat.push(Idx::new(p));
            }
            list_off.push(post_flat.len() as u32);
        }
        Ok(Self {
            num_posts,
            post_flat,
            list_off,
            ties: TieStore::Strict,
        })
    }

    /// Builds an instance whose preference lists may contain ties:
    /// `groups[a]` is a ranked list of tie groups.
    pub fn new_with_ties(
        num_posts: usize,
        groups: Vec<Vec<Vec<usize>>>,
    ) -> Result<Self, PopularError> {
        let total: usize = groups
            .iter()
            .map(|list| list.iter().map(Vec::len).sum::<usize>())
            .sum();
        check_sizes(groups.len(), num_posts, total)?;
        let deepest = groups.iter().map(Vec::len).max().unwrap_or(0);
        let mut post_flat = Vec::with_capacity(total);
        let mut rank_flat =
            RankArray::with_capacity(total, deepest <= RankArray::U16_MAX_RANK as usize + 1);
        let mut list_off = Vec::with_capacity(groups.len() + 1);
        list_off.push(0u32);
        let mut group_off = vec![0u32];
        let mut group_idx = Vec::with_capacity(groups.len() + 1);
        group_idx.push(0u32);
        let mut dup = DupCheck::new(num_posts);
        for (a, list) in groups.iter().enumerate() {
            if list.is_empty() {
                return Err(PopularError::InvalidInstance(format!(
                    "applicant {a} has an empty preference list"
                )));
            }
            dup.next_applicant();
            for (r, group) in list.iter().enumerate() {
                if group.is_empty() {
                    return Err(PopularError::InvalidInstance(format!(
                        "applicant {a} has an empty tie group"
                    )));
                }
                for &p in group {
                    dup.check(a, p)?;
                    post_flat.push(Idx::new(p));
                    rank_flat.push(r as u32);
                }
                group_off.push(post_flat.len() as u32);
            }
            group_idx.push(group_off.len() as u32 - 1);
            list_off.push(post_flat.len() as u32);
        }
        Ok(Self {
            num_posts,
            post_flat,
            list_off,
            ties: TieStore::canonical(rank_flat, group_off, group_idx),
        })
    }

    /// Builds the rank-1 instance of the Section V ties reduction straight
    /// from a 32-bit CSR adjacency (`offsets`/`flat` as produced by
    /// `pm_graph::BipartiteGraph::left_csr`): applicant `a`'s single tie
    /// group is `flat[offsets[a]..offsets[a + 1]]`.  No nested vectors are
    /// materialised on the way in.  Invalid *preference data* (an empty
    /// list, an out-of-range or repeated post) is reported as
    /// [`PopularError::InvalidInstance`].
    ///
    /// # Panics
    /// Panics if `offsets` is not a CSR boundary array over `flat`
    /// (`offsets` empty or its last entry ≠ `flat.len()`) — a malformed
    /// *container*, not a malformed instance.
    pub fn new_rank1(
        num_posts: usize,
        offsets: &[u32],
        flat: &[Idx],
    ) -> Result<Self, PopularError> {
        assert!(
            !offsets.is_empty() && *offsets.last().unwrap() as usize == flat.len(),
            "offsets must be a CSR boundary array over flat"
        );
        let n_a = offsets.len() - 1;
        check_sizes(n_a, num_posts, flat.len())?;
        // Validation runs as three flat scans instead of a per-edge epoch
        // check: a boundary sweep for empty lists, then the two shared
        // post-payload scans (branch-free chunked range OR-reduction and
        // the closed-form short-list duplicate check).  This is the hot
        // constructor of the Section V ties reduction — on rank-1 workloads
        // the per-edge `DupCheck` random-access marking dominated the whole
        // reduction's wall time.
        if let Some(a) = (0..n_a).find(|&a| offsets[a] == offsets[a + 1]) {
            return Err(PopularError::InvalidInstance(format!(
                "applicant {a} has an empty preference list"
            )));
        }
        check_post_range(num_posts, flat, offsets)?;
        check_no_duplicates(num_posts, flat, offsets)?;
        Ok(Self {
            num_posts,
            post_flat: flat.to_vec(),
            list_off: offsets.to_vec(),
            ties: TieStore::canonical(
                RankArray::U16(vec![0; flat.len()]),
                offsets.to_vec(),
                (0..=n_a as u32).collect(),
            ),
        })
    }

    /// Builds an instance directly from owned CSR arrays, validating in
    /// O(|E|) **without restructuring** — no nested vectors are built and
    /// the five arrays are moved into place as-is.  This is the ingest path
    /// of the binary snapshot reader and the streaming text parser: they
    /// fill flat buffers and hand them over.
    ///
    /// Validation covers everything the nested constructors check, plus the
    /// structural invariants nested input satisfies by construction:
    ///
    /// * sizes fit the 32-bit layer ([`check_sizes`] — the `TooLarge`
    ///   funnel);
    /// * the offset arrays are monotone boundary arrays over `post_flat`
    ///   (first entry 0, last entry `|E|`, no empty preference list, no
    ///   empty tie group) and the tie groups of each applicant exactly tile
    ///   that applicant's list slice;
    /// * `rank_flat[i]` equals the position of entry `i`'s tie group on its
    ///   applicant's list;
    /// * every post is in range and no applicant ranks a post twice.
    ///
    /// Untrusted (e.g. deserialised) input is therefore safe here: any
    /// corruption surfaces as a typed [`PopularError`], never a panic or an
    /// out-of-bounds index downstream.
    pub fn from_csr_parts(
        num_posts: usize,
        post_flat: Vec<Idx>,
        rank_flat: RankArray,
        list_off: Vec<u32>,
        group_off: Vec<u32>,
        group_idx: Vec<u32>,
    ) -> Result<Self, PopularError> {
        let invalid = |msg: String| Err(PopularError::InvalidInstance(msg));
        if list_off.is_empty() || group_off.is_empty() || group_idx.is_empty() {
            return invalid("CSR offset arrays must be non-empty".into());
        }
        let n_a = list_off.len() - 1;
        let n_e = post_flat.len();
        let n_g = group_off.len() - 1;
        check_sizes(n_a, num_posts, n_e)?;
        if rank_flat.len() != n_e {
            return invalid(format!(
                "rank array has {} entries for {n_e} preference entries",
                rank_flat.len()
            ));
        }
        if group_idx.len() != n_a + 1 {
            return invalid(format!(
                "group index has {} boundaries for {n_a} applicants",
                group_idx.len()
            ));
        }
        if list_off[0] != 0 || group_off[0] != 0 || group_idx[0] != 0 {
            return invalid("CSR offset arrays must start at 0".into());
        }
        if *list_off.last().unwrap() as usize != n_e {
            return invalid(format!(
                "list offsets end at {} instead of the {n_e} preference entries",
                list_off.last().unwrap()
            ));
        }
        if *group_off.last().unwrap() as usize != n_e {
            return invalid(format!(
                "group offsets end at {} instead of the {n_e} preference entries",
                group_off.last().unwrap()
            ));
        }
        if *group_idx.last().unwrap() as usize != n_g {
            return invalid(format!(
                "group index ends at {} instead of the {n_g} tie groups",
                group_idx.last().unwrap()
            ));
        }

        // The structural checks run as a few sequential, SIMD-friendly
        // passes over the flat arrays instead of one nested walk — this
        // function sits on the snapshot cold path, so its constant factor
        // is wall-clock (see the `cold/` bench family).  Each scan's hot
        // side is a branch-free predicate; the offending index is only
        // re-derived on the (cold) error path.

        // Pass 1 — the offset arrays are strictly increasing.  For
        // `list_off` that means no empty preference list, for `group_off`
        // no empty tie group, for `group_idx` at least one group per
        // applicant; combined with the boundary checks above, every later
        // slice access is in bounds.
        if let Some(a) = first_non_increase(&list_off) {
            return invalid(if list_off[a] == list_off[a + 1] {
                format!("applicant {a} has an empty preference list")
            } else {
                format!("applicant {a}: list offsets are not monotone")
            });
        }
        if let Some(a) = first_non_increase(&group_idx) {
            return invalid(format!("applicant {a}: group index is not monotone"));
        }
        if let Some(g) = first_non_increase(&group_off) {
            let a = group_idx.partition_point(|&x| x as usize <= g) - 1;
            return invalid(if group_off[g] == group_off[g + 1] {
                format!("applicant {a} has an empty tie group")
            } else {
                format!("applicant {a}: group offsets are not monotone")
            });
        }

        // Pass 2 — the tie groups of each applicant tile its list slice:
        // the first group of applicant `a` starts exactly at `list_off[a]`.
        // With all three arrays strictly increasing and sharing their final
        // boundary `n_e`, agreement at every applicant boundary pins each
        // group inside its applicant's slice.
        for a in 0..=n_a {
            if group_off[group_idx[a] as usize] != list_off[a] {
                return invalid(format!(
                    "applicant {a}: tie groups do not tile the list slice"
                ));
            }
        }

        // Pass 3 — `rank_flat[i]` names the position of entry `i`'s tie
        // group on its applicant's list, checked on the store's native
        // width (no per-entry widening).
        let rank_err = match &rank_flat {
            RankArray::U16(v) => check_rank_tiling(v, &group_off, &group_idx),
            RankArray::U32(v) => check_rank_tiling(v, &group_off, &group_idx),
        };
        if let Err(msg) = rank_err {
            return invalid(msg);
        }

        // Passes 4 and 5 — every post is in range and no applicant ranks a
        // post twice (shared with `from_strict_csr`).
        check_post_range(num_posts, &post_flat, &list_off)?;
        check_no_duplicates(num_posts, &post_flat, &list_off)?;
        Ok(Self {
            num_posts,
            post_flat,
            list_off,
            ties: TieStore::canonical(rank_flat, group_off, group_idx),
        })
    }

    /// [`from_csr_parts`](Self::from_csr_parts) specialised to **strict**
    /// instances, where the tie layer is fully determined and need not be
    /// supplied, validated, or even materialised:
    ///
    /// * every tie group is a singleton, so `group_off` is the identity
    ///   boundary array `0, 1, …, |E|`;
    /// * applicant `a`'s groups are its entries, so `group_idx == list_off`;
    /// * entry `i`'s rank is its position on its applicant's list.
    ///
    /// This is the ingest path of `FLAG_STRICT` snapshots: the format omits
    /// the three derivable sections, and this constructor takes just the
    /// posts and list offsets.  Validation of the two supplied arrays is
    /// identical to the general constructor (same boundary checks, same
    /// [`check_sizes`] funnel, same post scans), so untrusted input is
    /// equally safe here.
    pub fn from_strict_csr(
        num_posts: usize,
        post_flat: Vec<Idx>,
        list_off: Vec<u32>,
    ) -> Result<Self, PopularError> {
        let invalid = |msg: String| Err(PopularError::InvalidInstance(msg));
        if list_off.is_empty() {
            return invalid("CSR offset arrays must be non-empty".into());
        }
        let n_a = list_off.len() - 1;
        let n_e = post_flat.len();
        check_sizes(n_a, num_posts, n_e)?;
        if list_off[0] != 0 {
            return invalid("CSR offset arrays must start at 0".into());
        }
        if *list_off.last().unwrap() as usize != n_e {
            return invalid(format!(
                "list offsets end at {} instead of the {n_e} preference entries",
                list_off.last().unwrap()
            ));
        }
        if let Some(a) = first_non_increase(&list_off) {
            return invalid(if list_off[a] == list_off[a + 1] {
                format!("applicant {a} has an empty preference list")
            } else {
                format!("applicant {a}: list offsets are not monotone")
            });
        }
        check_post_range(num_posts, &post_flat, &list_off)?;
        check_no_duplicates(num_posts, &post_flat, &list_off)?;
        Ok(Self {
            num_posts,
            post_flat,
            list_off,
            ties: TieStore::Strict,
        })
    }

    /// The validated CSR arrays as one borrowed view (see [`CsrParts`]) —
    /// the exact sections the binary snapshot format persists.  `ties` is
    /// `None` for strict instances: their tie layer is derived, and the
    /// snapshot format omits it.
    pub fn csr_parts(&self) -> CsrParts<'_> {
        CsrParts {
            num_posts: self.num_posts,
            post_flat: &self.post_flat,
            list_off: &self.list_off,
            ties: match &self.ties {
                TieStore::Strict => None,
                TieStore::Tied {
                    rank_flat,
                    group_off,
                    group_idx,
                } => Some(TiedCsrParts {
                    rank_flat,
                    group_off,
                    group_idx,
                }),
            },
        }
    }

    /// Number of applicants `|A|`.
    pub fn num_applicants(&self) -> usize {
        self.list_off.len() - 1
    }

    /// Number of real posts `|P|` (excluding last resorts).
    pub fn num_posts(&self) -> usize {
        self.num_posts
    }

    /// Number of extended posts: real posts plus one last resort per
    /// applicant.
    pub fn total_posts(&self) -> usize {
        self.num_posts + self.num_applicants()
    }

    /// Number of `(applicant, real post)` preference pairs — the edge count
    /// `|E|` of the underlying bipartite graph.
    pub fn num_edges(&self) -> usize {
        self.post_flat.len()
    }

    /// The extended post id of applicant `a`'s last resort `l(a)`.
    pub fn last_resort(&self, a: usize) -> usize {
        self.num_posts + a
    }

    /// The last resort as an [`Idx`] (the form the pipeline buffers hold).
    pub fn last_resort_idx(&self, a: usize) -> Idx {
        Idx::new(self.num_posts + a)
    }

    /// True iff the extended post id denotes a last-resort post.
    pub fn is_last_resort(&self, post: usize) -> bool {
        post >= self.num_posts
    }

    /// True iff no preference list contains a tie (every tie group is a
    /// singleton).  Constructors canonicalise the tie layer, so this is a
    /// tag check, not a count comparison.
    pub fn is_strict(&self) -> bool {
        matches!(self.ties, TieStore::Strict)
    }

    /// Applicant `a`'s ranked posts as one flat slice, most preferred first
    /// (ties appear consecutively; the implicit last resort is not included).
    pub fn flat_list(&self, a: usize) -> &[Idx] {
        &self.post_flat[self.list_off[a] as usize..self.list_off[a + 1] as usize]
    }

    /// The tie-group indices parallel to [`flat_list`](Self::flat_list):
    /// the `i`-th yielded rank is the rank of `flat_list(a)[i]` on `a`'s
    /// list.  An iterator rather than a slice because the rank store may be
    /// 2-byte or 4-byte wide — or absent entirely for strict instances,
    /// whose ranks are the positions themselves (see [`RankIter`]).
    pub fn flat_ranks(&self, a: usize) -> RankIter<'_> {
        let (lo, hi) = (self.list_off[a] as usize, self.list_off[a + 1] as usize);
        match &self.ties {
            TieStore::Strict => RankIter::Iota(0..(hi - lo) as u32),
            TieStore::Tied { rank_flat, .. } => rank_flat.range_iter(lo, hi),
        }
    }

    /// Applicant `a`'s tie group of the given rank, as a slice of real posts.
    pub fn group_slice(&self, a: usize, rank: usize) -> &[Idx] {
        match &self.ties {
            TieStore::Strict => {
                let i = self.list_off[a] as usize + rank;
                debug_assert!(
                    i < self.list_off[a + 1] as usize,
                    "rank {rank} out of range"
                );
                &self.post_flat[i..i + 1]
            }
            TieStore::Tied {
                group_off,
                group_idx,
                ..
            } => {
                let g = group_idx[a] as usize + rank;
                debug_assert!(g < group_idx[a + 1] as usize, "rank {rank} out of range");
                &self.post_flat[group_off[g] as usize..group_off[g + 1] as usize]
            }
        }
    }

    /// Applicant `a`'s ranked tie groups, most preferred first, as slices
    /// into the flat storage (real posts only; the implicit last resort is
    /// not included).
    pub fn groups(&self, a: usize) -> impl ExactSizeIterator<Item = &[Idx]> + '_ {
        (0..self.num_ranks(a)).map(move |r| self.group_slice(a, r))
    }

    /// Applicant `a`'s single most-preferred post: the first entry of the
    /// top tie group (for strict instances, *the* first choice `f`-candidate).
    pub fn first_choice(&self, a: usize) -> Idx {
        self.post_flat[self.list_off[a] as usize]
    }

    /// Applicant `a`'s strict preference list over real posts, if the
    /// instance is strict for this applicant.
    pub fn strict_list(&self, a: usize) -> Option<Vec<usize>> {
        if self.num_ranks(a) != self.flat_list(a).len() {
            return None;
        }
        Some(self.flat_list(a).iter().map(|p| p.get()).collect())
    }

    /// Rank of an extended post on applicant `a`'s list: tie-group index for
    /// real posts, one past the last group for the last resort, `None` if the
    /// post is not acceptable to `a`.  One linear scan of `a`'s flat slice.
    pub fn rank(&self, a: usize, post: usize) -> Option<usize> {
        if post == self.last_resort(a) {
            return Some(self.num_ranks(a));
        }
        if self.is_last_resort(post) {
            return None; // another applicant's last resort
        }
        let lo = self.list_off[a] as usize;
        self.post_flat[lo..self.list_off[a + 1] as usize]
            .iter()
            .position(|&p| p.get() == post)
            .map(|i| match &self.ties {
                TieStore::Strict => i,
                TieStore::Tied { rank_flat, .. } => rank_flat.get(lo + i) as usize,
            })
    }

    /// True iff applicant `a` strictly prefers extended post `p` to
    /// extended post `q`.  Unacceptable posts are worse than anything
    /// acceptable (and two unacceptable posts are incomparable — `false`).
    pub fn prefers(&self, a: usize, p: usize, q: usize) -> bool {
        match (self.rank(a, p), self.rank(a, q)) {
            (Some(rp), Some(rq)) => rp < rq,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// The number of tie groups of applicant `a` (the rank of `l(a)`).
    pub fn num_ranks(&self, a: usize) -> usize {
        match &self.ties {
            TieStore::Strict => (self.list_off[a + 1] - self.list_off[a]) as usize,
            TieStore::Tied { group_idx, .. } => (group_idx[a + 1] - group_idx[a]) as usize,
        }
    }

    /// All `(applicant, real post, rank)` triples — the edge set `E` of `G`
    /// with its rank partition `E₁ ∪ … ∪ E_r`.
    pub fn ranked_edges(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::with_capacity(self.post_flat.len());
        for a in 0..self.num_applicants() {
            let (lo, hi) = (self.list_off[a] as usize, self.list_off[a + 1] as usize);
            for i in lo..hi {
                let rank = match &self.ties {
                    TieStore::Strict => i - lo,
                    TieStore::Tied { rank_flat, .. } => rank_flat.get(i) as usize,
                };
                out.push((a, self.post_flat[i].get(), rank));
            }
        }
        out
    }

    /// Resident heap bytes of the CSR arrays — the footprint estimate the
    /// bench harness reports as `bytes_per_entity`.  Strict instances store
    /// no tie layer, so they cost just the posts and the list offsets.
    pub fn heap_bytes(&self) -> usize {
        let ties = match &self.ties {
            TieStore::Strict => 0,
            TieStore::Tied {
                rank_flat,
                group_off,
                group_idx,
            } => {
                rank_flat.heap_bytes()
                    + (group_off.len() + group_idx.len()) * std::mem::size_of::<u32>()
            }
        };
        self.post_flat.len() * std::mem::size_of::<Idx>()
            + self.list_off.len() * std::mem::size_of::<u32>()
            + ties
    }
}

/// An applicant-complete assignment: every applicant is matched to exactly
/// one extended post (possibly its last resort).  Stored as a dense [`Idx`]
/// array with [`Idx::NONE`] as the transient "unassigned" sentinel of the
/// pipeline's output buffer.
///
/// The array is a copy-on-write handle: `clone` only bumps a reference
/// count, so publishing an answer to a cache or to many callers copies
/// nothing.  Every mutator writes in place while the handle is the sole
/// owner and copies first while the array is shared, so a held clone never
/// changes.  Equality compares the assignments by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    post_of: Arc<Vec<Idx>>,
}

impl Assignment {
    /// Wraps a raw applicant → extended-post vector.  An entry beyond the
    /// 32-bit index range is stored as the invalid sentinel, so it can
    /// never alias a real post and [`is_valid`](Self::is_valid) rejects it
    /// — the same observable behaviour the pre-`Idx` representation had
    /// for out-of-range posts.
    pub fn new(post_of: Vec<usize>) -> Self {
        Self::from_idx_vec(
            post_of
                .into_iter()
                .map(|p| Idx::try_new(p).unwrap_or(Idx::NONE))
                .collect(),
        )
    }

    /// Wraps an [`Idx`]-typed applicant → extended-post vector (the
    /// pipeline's native form).
    pub fn from_idx_vec(post_of: Vec<Idx>) -> Self {
        Self {
            post_of: Arc::new(post_of),
        }
    }

    /// The assignment in which every applicant takes their last resort.
    pub fn all_last_resort(inst: &PrefInstance) -> Self {
        Self::from_idx_vec(
            (0..inst.num_applicants())
                .map(|a| inst.last_resort_idx(a))
                .collect(),
        )
    }

    /// True if no clone of this assignment is alive, so a mutator writes
    /// in place instead of copying.
    pub(crate) fn is_unique(&mut self) -> bool {
        Arc::get_mut(&mut self.post_of).is_some()
    }

    /// Overwrites every slot with `src`: in place while unshared (reusing
    /// the capacity), into a fresh buffer while a clone holds this one.
    pub(crate) fn copy_from(&mut self, src: &[Idx]) {
        match Arc::get_mut(&mut self.post_of) {
            Some(post_of) => {
                post_of.clear();
                post_of.extend_from_slice(src);
            }
            None => self.post_of = Arc::new(src.to_vec()),
        }
    }

    /// Number of applicants.
    pub fn num_applicants(&self) -> usize {
        self.post_of.len()
    }

    /// The extended post assigned to applicant `a`.
    pub fn post(&self, a: usize) -> usize {
        self.post_of[a].get()
    }

    /// Reassigns applicant `a`.  Loops that rewrite many slots should go
    /// through one [`as_mut_slice`](Self::as_mut_slice) instead, which
    /// checks for sharing once rather than per slot.
    pub fn set_post(&mut self, a: usize, post: usize) {
        Arc::make_mut(&mut self.post_of)[a] = Idx::new(post);
    }

    /// Clears the assignment and resizes it to `n` applicants, all set to
    /// the [`Idx::NONE`] "unassigned" sentinel.  This is the solver's
    /// output-buffer reset: the pipeline then writes every slot exactly
    /// once, so a warm refill of an unshared buffer reuses its capacity and
    /// allocates nothing, and a shared buffer is left to its holders for a
    /// fresh one (copying slots about to be overwritten would be wasted).
    /// The assignment is not valid until every slot is written.
    pub fn reset_unassigned(&mut self, n: usize) {
        match Arc::get_mut(&mut self.post_of) {
            Some(post_of) => {
                post_of.clear();
                post_of.resize(n, Idx::NONE);
            }
            None => self.post_of = Arc::new(vec![Idx::NONE; n]),
        }
    }

    /// Mutable access to the raw applicant → extended-post slots, for
    /// pipeline stages that fill a reused output buffer in place (copying
    /// the slots first if a clone shares them).
    pub fn as_mut_slice(&mut self) -> &mut [Idx] {
        Arc::make_mut(&mut self.post_of).as_mut_slice()
    }

    /// Appends one applicant slot assigned to the raw extended post `post`
    /// — the incremental delta layer's `add_applicant` growth path (the
    /// slot is rewritten by the next shard solve before it is observable).
    pub fn push_idx(&mut self, post: Idx) {
        Arc::make_mut(&mut self.post_of).push(post);
    }

    /// Removes applicant `a`'s slot by moving the last applicant into index
    /// `a` — the delta layer's `remove_applicant` renumbering, which keeps
    /// the applicant id space dense without shifting every later id.
    pub fn swap_remove(&mut self, a: usize) {
        Arc::make_mut(&mut self.post_of).swap_remove(a);
    }

    /// The underlying applicant → extended-post slice.
    pub fn as_slice(&self) -> &[Idx] {
        &self.post_of
    }

    /// The size of the matching in the paper's sense: the number of
    /// applicants **not** matched to their last resort.
    pub fn size(&self, inst: &PrefInstance) -> usize {
        self.post_of
            .iter()
            .enumerate()
            .filter(|&(a, &p)| p.get() != inst.last_resort(a))
            .count()
    }

    /// Inverse map over extended posts: `applicant_of[p]` is the applicant
    /// matched to `p`, if any.
    pub fn applicant_of(&self, inst: &PrefInstance) -> Vec<Option<usize>> {
        let mut inv = vec![None; inst.total_posts()];
        for (a, &p) in self.post_of.iter().enumerate() {
            debug_assert!(inv[p.get()].is_none(), "post {p} assigned twice");
            inv[p.get()] = Some(a);
        }
        inv
    }

    /// The matched `(applicant, real post)` pairs, excluding last resorts.
    pub fn real_pairs(&self, inst: &PrefInstance) -> Vec<(usize, usize)> {
        self.post_of
            .iter()
            .enumerate()
            .filter(|&(_, &p)| !inst.is_last_resort(p.get()))
            .map(|(a, &p)| (a, p.get()))
            .collect()
    }

    /// Validates the assignment against an instance: each applicant gets an
    /// acceptable post or their own last resort, and no post is used twice.
    pub fn is_valid(&self, inst: &PrefInstance) -> bool {
        if self.post_of.len() != inst.num_applicants() {
            return false;
        }
        let mut used = vec![false; inst.total_posts()];
        for (a, &pi) in self.post_of.iter().enumerate() {
            // Raw view so an unfilled NONE slot reads as out-of-range
            // rather than asserting.
            let p = pi.raw() as usize;
            if p >= inst.total_posts() || used[p] {
                return false;
            }
            if inst.is_last_resort(p) && p != inst.last_resort(a) {
                return false;
            }
            if !inst.is_last_resort(p) && inst.rank(a, p).is_none() {
                return false;
            }
            used[p] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idxs(xs: &[usize]) -> Vec<Idx> {
        xs.iter().map(|&x| Idx::new(x)).collect()
    }

    fn tiny() -> PrefInstance {
        PrefInstance::new_strict(3, vec![vec![0, 1], vec![0, 2], vec![1]]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let inst = tiny();
        assert_eq!(inst.num_applicants(), 3);
        assert_eq!(inst.num_posts(), 3);
        assert_eq!(inst.total_posts(), 6);
        assert_eq!(inst.num_edges(), 5);
        assert!(inst.is_strict());
        assert_eq!(inst.last_resort(2), 5);
        assert_eq!(inst.last_resort_idx(2), Idx::new(5));
        assert!(inst.is_last_resort(5));
        assert!(!inst.is_last_resort(2));
        assert!(inst.heap_bytes() > 0);
    }

    #[test]
    fn invalid_instances_are_rejected() {
        assert!(matches!(
            PrefInstance::new_strict(2, vec![vec![]]),
            Err(PopularError::InvalidInstance(_))
        ));
        assert!(matches!(
            PrefInstance::new_strict(2, vec![vec![0, 0]]),
            Err(PopularError::InvalidInstance(_))
        ));
        assert!(matches!(
            PrefInstance::new_strict(2, vec![vec![2]]),
            Err(PopularError::InvalidInstance(_))
        ));
        assert!(matches!(
            PrefInstance::new_with_ties(2, vec![vec![vec![]]]),
            Err(PopularError::InvalidInstance(_))
        ));
        // A post may be repeated across *different* applicants.
        assert!(PrefInstance::new_strict(2, vec![vec![0], vec![0]]).is_ok());
    }

    #[test]
    fn oversized_instances_are_rejected_with_typed_error() {
        // A post count beyond the u32 layer must be rejected before any
        // proportional allocation happens (the check reads only counts).
        let r = PrefInstance::new_strict(u32::MAX as usize, vec![vec![0]]);
        assert!(matches!(
            r,
            Err(PopularError::TooLarge {
                what: "extended posts",
                ..
            })
        ));
        let r = PrefInstance::new_with_ties(usize::MAX / 2, vec![vec![vec![0]]]);
        assert!(matches!(r, Err(PopularError::TooLarge { .. })));
    }

    #[test]
    fn ranks_and_preferences() {
        let inst = tiny();
        assert_eq!(inst.rank(0, 0), Some(0));
        assert_eq!(inst.rank(0, 1), Some(1));
        assert_eq!(inst.rank(0, 2), None);
        assert_eq!(inst.rank(0, inst.last_resort(0)), Some(2));
        assert_eq!(inst.rank(0, inst.last_resort(1)), None);
        assert!(inst.prefers(0, 0, 1));
        assert!(inst.prefers(0, 1, inst.last_resort(0)));
        assert!(inst.prefers(0, 0, 2)); // acceptable beats unacceptable
        assert!(!inst.prefers(0, 2, 0));
        assert!(!inst.prefers(0, 2, inst.last_resort(1))); // both unranked
    }

    #[test]
    fn ties_are_detected() {
        let tied = PrefInstance::new_with_ties(3, vec![vec![vec![0, 1], vec![2]]]).unwrap();
        assert!(!tied.is_strict());
        assert_eq!(tied.rank(0, 0), Some(0));
        assert_eq!(tied.rank(0, 1), Some(0));
        assert_eq!(tied.rank(0, 2), Some(1));
        assert!(tied.strict_list(0).is_none());
        assert_eq!(tied.num_ranks(0), 2);
    }

    #[test]
    fn csr_accessors_expose_flat_slices() {
        let tied =
            PrefInstance::new_with_ties(4, vec![vec![vec![0, 1], vec![2]], vec![vec![3]]]).unwrap();
        assert_eq!(tied.flat_list(0), idxs(&[0, 1, 2]).as_slice());
        assert_eq!(tied.flat_ranks(0).collect::<Vec<_>>(), vec![0, 0, 1]);
        assert_eq!(tied.group_slice(0, 0), idxs(&[0, 1]).as_slice());
        assert_eq!(tied.group_slice(0, 1), idxs(&[2]).as_slice());
        assert_eq!(tied.flat_list(1), idxs(&[3]).as_slice());
        assert_eq!(tied.group_slice(1, 0), idxs(&[3]).as_slice());
        assert_eq!(tied.first_choice(0), Idx::new(0));
        assert_eq!(tied.first_choice(1), Idx::new(3));
        let groups: Vec<&[Idx]> = tied.groups(0).collect();
        assert_eq!(groups, vec![&idxs(&[0, 1])[..], &idxs(&[2])[..]]);

        let strict = tiny();
        assert_eq!(strict.flat_list(1), idxs(&[0, 2]).as_slice());
        assert_eq!(strict.strict_list(1), Some(vec![0, 2]));
        assert_eq!(strict.group_slice(1, 1), idxs(&[2]).as_slice());
        assert_eq!(strict.first_choice(2), Idx::new(1));
    }

    #[test]
    fn rank1_constructor_matches_new_with_ties() {
        // CSR input: applicant 0 -> {0, 2}, applicant 1 -> {1}.
        let direct = PrefInstance::new_rank1(3, &[0, 2, 3], &idxs(&[0, 2, 1])).unwrap();
        let nested = PrefInstance::new_with_ties(3, vec![vec![vec![0, 2]], vec![vec![1]]]).unwrap();
        assert_eq!(direct, nested);
        // Empty lists are rejected.
        assert!(matches!(
            PrefInstance::new_rank1(3, &[0, 0, 1], &idxs(&[0])),
            Err(PopularError::InvalidInstance(_))
        ));
        // Duplicates within one applicant are rejected.
        assert!(matches!(
            PrefInstance::new_rank1(3, &[0, 2], &idxs(&[1, 1])),
            Err(PopularError::InvalidInstance(_))
        ));
    }

    #[test]
    fn rank_array_narrowing_and_value_equality() {
        let narrow = RankArray::from_u32_vec(vec![0, 1, 2]);
        assert!(narrow.is_u16());
        let wide = RankArray::U32(vec![0, 1, 2]);
        assert!(!wide.is_u16());
        assert_eq!(narrow, wide); // by value, across widths
        assert_ne!(narrow, RankArray::U32(vec![0, 1, 3]));
        assert_eq!(narrow.get(2), 2);
        assert_eq!(narrow.heap_bytes(), 6);
        assert_eq!(wide.heap_bytes(), 12);
        let too_deep = RankArray::from_u32_vec(vec![0, RankArray::U16_MAX_RANK + 1]);
        assert!(!too_deep.is_u16());
        assert_eq!(too_deep.iter().collect::<Vec<_>>(), vec![0, 65536]);
    }

    /// The five explicit CSR arrays of an instance, materialising the
    /// derived tie layer of strict instances — test input for the general
    /// `from_csr_parts` path.
    fn five_arrays(inst: &PrefInstance) -> (Vec<Idx>, RankArray, Vec<u32>, Vec<u32>, Vec<u32>) {
        let p = inst.csr_parts();
        let n_e = p.post_flat.len();
        match p.ties {
            Some(t) => (
                p.post_flat.to_vec(),
                t.rank_flat.clone(),
                p.list_off.to_vec(),
                t.group_off.to_vec(),
                t.group_idx.to_vec(),
            ),
            None => (
                p.post_flat.to_vec(),
                RankArray::from_u32_vec(
                    p.list_off.windows(2).flat_map(|w| 0..w[1] - w[0]).collect(),
                ),
                p.list_off.to_vec(),
                (0..=n_e as u32).collect(),
                p.list_off.to_vec(),
            ),
        }
    }

    #[test]
    fn from_csr_parts_roundtrips_the_nested_constructors() {
        // Strict input canonicalises back to the derived tie layer, so
        // feeding the materialised five-array form reproduces the instance
        // exactly (including `is_strict`).
        for inst in [
            tiny(),
            PrefInstance::new_with_ties(4, vec![vec![vec![0, 1], vec![2]], vec![vec![3]]]).unwrap(),
        ] {
            let (pf, rf, lo, go, gi) = five_arrays(&inst);
            let rebuilt =
                PrefInstance::from_csr_parts(inst.num_posts(), pf, rf, lo, go, gi).unwrap();
            assert_eq!(rebuilt, inst);
            assert_eq!(rebuilt.is_strict(), inst.is_strict());
        }
    }

    #[test]
    fn from_csr_parts_rejects_corrupt_arrays() {
        let inst =
            PrefInstance::new_with_ties(4, vec![vec![vec![0, 1], vec![2]], vec![vec![3]]]).unwrap();
        let build = |num_posts: usize,
                     post_flat: Vec<Idx>,
                     rank_flat: RankArray,
                     list_off: Vec<u32>,
                     group_off: Vec<u32>,
                     group_idx: Vec<u32>| {
            PrefInstance::from_csr_parts(
                num_posts, post_flat, rank_flat, list_off, group_off, group_idx,
            )
        };
        let parts = || five_arrays(&inst);
        let invalid = |r: Result<PrefInstance, PopularError>| {
            assert!(matches!(r, Err(PopularError::InvalidInstance(_))), "{r:?}");
        };

        // Empty offset arrays.
        invalid(build(
            4,
            vec![],
            RankArray::U32(vec![]),
            vec![],
            vec![],
            vec![],
        ));
        // Rank array of the wrong length.
        let (pf, _, lo, go, gi) = parts();
        invalid(build(4, pf, RankArray::U32(vec![0]), lo, go, gi));
        // Offsets that do not start at zero.
        let (pf, rf, mut lo, go, gi) = parts();
        lo[0] = 1;
        invalid(build(4, pf, rf, lo, go, gi));
        // Offsets that do not cover the entries.
        let (pf, rf, mut lo, go, gi) = parts();
        *lo.last_mut().unwrap() = 3;
        invalid(build(4, pf, rf, lo, go, gi));
        // Non-monotone list offsets.
        let (pf, rf, mut lo, go, gi) = parts();
        lo[1] = 4;
        invalid(build(4, pf, rf, lo, go, gi));
        // An empty preference list.
        let (pf, rf, mut lo, go, gi) = parts();
        lo[1] = 0;
        invalid(build(4, pf, rf, lo, go, gi));
        // A rank that disagrees with its tie group.
        let (pf, _, lo, go, gi) = parts();
        invalid(build(4, pf, RankArray::U32(vec![0, 1, 1, 0]), lo, go, gi));
        // Tie groups that do not tile the list slice.
        let (pf, rf, lo, mut go, gi) = parts();
        go[1] = 1;
        invalid(build(4, pf, rf, lo, go, gi));
        // An out-of-range post — including the Idx sentinel pattern, which
        // must be reported, not tripped over.
        let (mut pf, rf, lo, go, gi) = parts();
        pf[0] = Idx::from_raw(u32::MAX);
        invalid(build(4, pf, rf, lo, go, gi));
        let (mut pf, rf, lo, go, gi) = parts();
        pf[0] = Idx::new(9);
        invalid(build(4, pf, rf, lo, go, gi));
        // A duplicated post within one applicant.
        let (mut pf, rf, lo, go, gi) = parts();
        pf[1] = pf[0];
        invalid(build(4, pf, rf, lo, go, gi));
        // Oversized counts funnel into TooLarge before any per-entry work.
        let r = PrefInstance::from_csr_parts(
            usize::MAX / 2,
            vec![Idx::new(0)],
            RankArray::U32(vec![0]),
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
        );
        assert!(matches!(r, Err(PopularError::TooLarge { .. })));
    }

    #[test]
    fn from_strict_csr_matches_the_general_constructor() {
        // A strict instance rebuilt from just (posts, list offsets) equals
        // the one built through the nested path, and the general
        // constructor fed the materialised five-array form canonicalises
        // to the same (derived) tie layer.
        let lists = vec![vec![0, 3, 4], vec![2], vec![4, 1]];
        let inst = PrefInstance::new_strict(5, lists).unwrap();
        let p = inst.csr_parts();
        assert!(
            p.ties.is_none(),
            "strict tie layer must not be materialised"
        );
        let back =
            PrefInstance::from_strict_csr(5, p.post_flat.to_vec(), p.list_off.to_vec()).unwrap();
        assert_eq!(back, inst);
        assert!(back.is_strict());
        let (pf, rf, lo, go, gi) = five_arrays(&inst);
        let general = PrefInstance::from_csr_parts(5, pf, rf, lo, go, gi).unwrap();
        assert_eq!(general, back);
        assert!(general.is_strict());

        // The derived ranks are the per-list positions, whatever the depth
        // (this list is deeper than the u16 rank ceiling).
        let deep: Vec<usize> = (0..RankArray::U16_MAX_RANK as usize + 2).collect();
        let wide = PrefInstance::new_strict(deep.len(), vec![deep.clone()]).unwrap();
        let p = wide.csr_parts();
        let back =
            PrefInstance::from_strict_csr(deep.len(), p.post_flat.to_vec(), p.list_off.to_vec())
                .unwrap();
        assert_eq!(back, wide);
        assert_eq!(back.rank(0, deep.len() - 1), Some(deep.len() - 1));
    }

    #[test]
    fn from_strict_csr_rejects_corrupt_arrays() {
        let inst = PrefInstance::new_strict(4, vec![vec![0, 1], vec![3]]).unwrap();
        let parts = || {
            let p = inst.csr_parts();
            (p.post_flat.to_vec(), p.list_off.to_vec())
        };
        let invalid = |r: Result<PrefInstance, PopularError>| {
            assert!(matches!(r, Err(PopularError::InvalidInstance(_))), "{r:?}");
        };

        invalid(PrefInstance::from_strict_csr(4, vec![], vec![]));
        let (pf, mut lo) = parts();
        lo[0] = 1;
        invalid(PrefInstance::from_strict_csr(4, pf, lo));
        let (pf, mut lo) = parts();
        *lo.last_mut().unwrap() = 2;
        invalid(PrefInstance::from_strict_csr(4, pf, lo));
        let (pf, mut lo) = parts();
        lo[1] = 0; // empty preference list
        invalid(PrefInstance::from_strict_csr(4, pf, lo));
        let (mut pf, lo) = parts();
        pf[0] = Idx::from_raw(u32::MAX); // sentinel pattern → out of range
        invalid(PrefInstance::from_strict_csr(4, pf, lo));
        let (mut pf, lo) = parts();
        pf[1] = pf[0]; // duplicate within one applicant
        invalid(PrefInstance::from_strict_csr(4, pf, lo));
        let r = PrefInstance::from_strict_csr(usize::MAX / 2, vec![Idx::new(0)], vec![0, 1]);
        assert!(matches!(r, Err(PopularError::TooLarge { .. })));
    }

    #[test]
    fn ranked_edges_enumeration() {
        let inst = tiny();
        let edges = inst.ranked_edges();
        assert_eq!(edges.len(), 5);
        assert!(edges.contains(&(0, 0, 0)));
        assert!(edges.contains(&(1, 2, 1)));
    }

    #[test]
    fn assignment_size_and_validity() {
        let inst = tiny();
        let all_lr = Assignment::all_last_resort(&inst);
        assert_eq!(all_lr.size(&inst), 0);
        assert!(all_lr.is_valid(&inst));

        let m = Assignment::new(vec![0, 2, 1]);
        assert!(m.is_valid(&inst));
        assert_eq!(m.size(&inst), 3);
        assert_eq!(m.real_pairs(&inst), vec![(0, 0), (1, 2), (2, 1)]);
        let inv = m.applicant_of(&inst);
        assert_eq!(inv[0], Some(0));
        assert_eq!(inv[3], None);

        // Post 0 used twice.
        assert!(!Assignment::new(vec![0, 0, 1]).is_valid(&inst));
        // Applicant 2 does not rank post 0.
        assert!(!Assignment::new(vec![1, 2, 0]).is_valid(&inst));
        // Applicant 0 assigned to someone else's last resort.
        assert!(!Assignment::new(vec![inst.last_resort(1), 0, 1]).is_valid(&inst));
        // Wrong length.
        assert!(!Assignment::new(vec![0]).is_valid(&inst));
        // A reset-but-unfilled buffer is not valid.
        let mut unfilled = Assignment::new(Vec::new());
        unfilled.reset_unassigned(3);
        assert!(!unfilled.is_valid(&inst));
        // An out-of-u32-range post is stored as the sentinel and rejected,
        // never truncated into a colliding real post id.
        assert!(!Assignment::new(vec![usize::MAX - 1, 2, 1]).is_valid(&inst));
    }

    #[test]
    fn set_post_mutation() {
        let inst = tiny();
        let mut m = Assignment::all_last_resort(&inst);
        m.set_post(0, 0);
        assert_eq!(m.post(0), 0);
        assert_eq!(m.size(&inst), 1);
        assert_eq!(m.as_slice()[0], Idx::new(0));
        let v = Assignment::from_idx_vec(idxs(&[0, 1]));
        assert_eq!(v.post(1), 1);

        // Copy-on-write: a clone taken before any mutator keeps its value,
        // and the mutated handle no longer equals it.
        let mutators: [fn(&mut Assignment); 5] = [
            |m| m.set_post(1, 0),
            |m| m.as_mut_slice()[2] = Idx::new(9),
            |m| m.reset_unassigned(3),
            |m| m.push_idx(Idx::new(7)),
            |m| m.swap_remove(0),
        ];
        for mutate in mutators {
            let mut m = Assignment::from_idx_vec(idxs(&[3, 4, 5]));
            let held = m.clone();
            assert!(!m.is_unique());
            mutate(&mut m);
            assert_eq!(held.as_slice(), idxs(&[3, 4, 5]).as_slice());
            assert_ne!(m, held);
            assert!(m.is_unique(), "the mutated handle owns its copy");
        }
        // A unique handle mutates in place: same buffer, no copy.
        let mut m = Assignment::from_idx_vec(idxs(&[3, 4, 5]));
        let before = m.as_slice().as_ptr();
        m.reset_unassigned(3);
        m.as_mut_slice()[0] = Idx::new(1);
        assert_eq!(m.as_slice().as_ptr(), before);
    }
}
