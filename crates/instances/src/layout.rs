//! The locality layout pass: post relabeling + blocked CSR edge ordering
//! (DESIGN.md §12).
//!
//! The solve kernels are bandwidth-bound, and their remaining waste is
//! *random* gathers — `counts[f[a]]` scatters, switching-graph root
//! lookups, the Hopcroft–Karp referee's per-edge state touches — whose
//! destinations are spread across the whole post array.  Post ids are
//! arbitrary labels, so nothing forces that spread: this pass rewrites a
//! validated [`PrefInstance`] into an isomorphic twin whose labels are
//! chosen for locality.
//!
//! Two transforms compose:
//!
//! 1. **Post relabeling** ([`locality_permutation`]): a degree-ordered BFS
//!    over the applicant–post incidence assigns new ids in discovery order,
//!    so posts co-referenced by the same applicants land in contiguous id
//!    blocks.  A gather sweep over applicants then touches a small set of
//!    [`LAYOUT_BLOCK_LEN`]-sized resident windows instead of striding the
//!    full array.
//! 2. **Blocked edge ordering** ([`apply_permutation`]): within each tie
//!    group of each preference list — the one place entry order is
//!    semantically free — destinations are sorted by relabeled id, i.e. by
//!    post block, so an edge scan walks its blocks monotonically.
//!
//! Both transforms preserve the preference relation exactly (popularity is
//! label-invariant), but they *do* move every min-label tie-break the
//! kernels take, so a solve of the twin returns a possibly different —
//! equally popular — matching.  [`pm_popular::relabel::Relabeled`] maps
//! answers back through the inverse permutation, and the oracles in
//! `pm_popular::verify` check them against the **original** instance; the
//! `tests/layout_equivalence.rs` property suite and the harness's `layout/`
//! family both do so.
//!
//! This is a cold-path pass (O(|E|) time and memory, run once per
//! instance); the snapshot format persists the pair (flag bit 2, see
//! [`crate::snapshot`]) so repeated cold loads skip it entirely.

use pm_popular::error::PopularError;
use pm_popular::instance::PrefInstance;
use pm_popular::relabel::{PostPermutation, Relabeled};
use pm_pram::Idx;

/// Computes the locality permutation of `inst`: a degree-ordered BFS over
/// the applicant–post incidence, assigning new post ids in discovery order.
///
/// Seeds are taken in decreasing incidence degree (ties to the smaller id),
/// so the hottest posts anchor the first blocks; from each seed the BFS
/// alternates post → referencing applicants → their other posts, expanding
/// every applicant's list once.  The result depends only on the instance,
/// never on thread count or scheduling.  Unreferenced posts sort last and
/// keep their relative order.
///
/// # Errors
/// [`PopularError::TooLarge`] through the permutation size funnel (only
/// reachable with a post count at the 32-bit boundary — any validated
/// instance is already inside it).
pub fn locality_permutation(inst: &PrefInstance) -> Result<PostPermutation, PopularError> {
    let n_a = inst.num_applicants();
    let n_p = inst.num_posts();
    let parts = inst.csr_parts();

    // Incidence degree of every post, then the post → applicants transpose
    // in flat CSR form (counts, exclusive prefix, slotted fill).
    let mut degree = vec![0u32; n_p];
    for &p in parts.post_flat {
        degree[p.get()] += 1;
    }
    let mut off = Vec::with_capacity(n_p + 1);
    let mut acc = 0u32;
    off.push(0u32);
    for &d in &degree {
        acc += d;
        off.push(acc);
    }
    let mut cursor = off[..n_p].to_vec();
    let mut apps = vec![0u32; parts.post_flat.len()];
    for a in 0..n_a {
        for &p in inst.flat_list(a) {
            let c = &mut cursor[p.get()];
            apps[*c as usize] = a as u32;
            *c += 1;
        }
    }

    // Seed order: degree descending, id ascending — deterministic.
    let mut seeds: Vec<u32> = (0..n_p as u32).collect();
    seeds.sort_unstable_by(|&x, &y| degree[y as usize].cmp(&degree[x as usize]).then(x.cmp(&y)));

    // BFS: the queue holds posts; applicants are expanded (once each) as
    // they are discovered, pushing their yet-unseen posts in list order.
    let mut new_of_old = vec![Idx::NONE; n_p];
    let mut seen_app = vec![false; n_a];
    let mut queue: Vec<u32> = Vec::with_capacity(n_p);
    let mut next = 0u32;
    for &seed in &seeds {
        if new_of_old[seed as usize].is_some() {
            continue;
        }
        new_of_old[seed as usize] = Idx::from_raw(next);
        next += 1;
        queue.clear();
        queue.push(seed);
        let mut head = 0;
        while head < queue.len() {
            let p = queue[head] as usize;
            head += 1;
            for &a in &apps[off[p] as usize..off[p + 1] as usize] {
                if seen_app[a as usize] {
                    continue;
                }
                seen_app[a as usize] = true;
                for &q in inst.flat_list(a as usize) {
                    if new_of_old[q.get()].is_none() {
                        new_of_old[q.get()] = Idx::from_raw(next);
                        next += 1;
                        queue.push(q.get() as u32);
                    }
                }
            }
        }
    }
    debug_assert_eq!(next as usize, n_p);
    PostPermutation::try_new(new_of_old)
}

/// Rewrites `inst` under `perm`: every preference entry maps to its
/// relabeled post, and within each tie group (where entry order carries no
/// meaning) the destinations are sorted ascending by relabeled id — the
/// blocked CSR edge ordering, since contiguous relabeled ids tile the
/// [`LAYOUT_BLOCK_LEN`]-post blocks.  The
/// rebuilt arrays go back through the full O(|E|) construction validation.
///
/// Strict instances have singleton tie groups, so for them this is a pure
/// relabeling; the list *order* of every applicant is preserved in all
/// cases — only ids change, plus the free intra-group order.
///
/// # Errors
/// [`PopularError::InvalidInstance`] when `perm` does not cover exactly the
/// instance's posts (plus the construction funnel's own errors, unreachable
/// from a validated instance and bijective permutation).
pub fn apply_permutation(
    inst: &PrefInstance,
    perm: &PostPermutation,
) -> Result<PrefInstance, PopularError> {
    if perm.len() != inst.num_posts() {
        return Err(PopularError::InvalidInstance(format!(
            "layout permutation covers {} posts but the instance has {}",
            perm.len(),
            inst.num_posts()
        )));
    }
    let parts = inst.csr_parts();
    let mut post_flat: Vec<Idx> = parts
        .post_flat
        .iter()
        .map(|&p| perm.new_id(p.get()))
        .collect();
    match parts.ties {
        None => PrefInstance::from_strict_csr(parts.num_posts, post_flat, parts.list_off.to_vec()),
        Some(t) => {
            for g in 0..t.group_off.len() - 1 {
                let (lo, hi) = (t.group_off[g] as usize, t.group_off[g + 1] as usize);
                post_flat[lo..hi].sort_unstable();
            }
            PrefInstance::from_csr_parts(
                parts.num_posts,
                post_flat,
                t.rank_flat.clone(),
                parts.list_off.to_vec(),
                t.group_off.to_vec(),
                t.group_idx.to_vec(),
            )
        }
    }
}

/// The full layout pass: [`locality_permutation`] + [`apply_permutation`],
/// returning the relabeled twin paired with its permutation as a
/// [`Relabeled`] — ready for `RelabeledSolver` or for persistence via
/// [`crate::snapshot::write_file_layout`].
pub fn optimize_layout(inst: &PrefInstance) -> Result<Relabeled, PopularError> {
    let perm = locality_permutation(inst)?;
    let twin = apply_permutation(inst, &perm)?;
    Relabeled::new(twin, perm)
}

/// Block length, in posts, of the locality layout (DESIGN.md §12): the
/// number of 4-byte post-sided gather targets that fit one
/// [`TARGET_CHUNK_BYTES`](pm_pram::TARGET_CHUNK_BYTES) chunk.
pub const LAYOUT_BLOCK_LEN: usize = pm_pram::TARGET_CHUNK_BYTES / 4;

/// The [`LAYOUT_BLOCK_LEN`]-post block a relabeled post id belongs to.
/// Exposed for tests and diagnostics — the kernels never need it, which is
/// the point: locality comes from the id assignment, not from extra
/// indirection.
pub fn block_of(post: usize) -> usize {
    post / LAYOUT_BLOCK_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{clustered_scattered, uniform_strict, with_ties, GeneratorConfig};
    use pm_popular::verify::is_popular_characterization;
    use pm_popular::PopularSolver;
    use pm_popular::RelabeledSolver;

    fn cfg(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            num_applicants: 60,
            num_posts: 70,
            list_len: 5,
            seed,
        }
    }

    #[test]
    fn permutation_is_a_bijection_and_groups_communities() {
        let inst = clustered_scattered(&cfg(3), 10);
        let r = optimize_layout(&inst).unwrap();
        let perm = r.permutation();
        assert_eq!(perm.len(), inst.num_posts());
        // Bijection: every relabeled id has exactly one preimage.
        let mut seen = vec![false; perm.len()];
        for old in 0..perm.len() {
            let new = perm.new_id(old).get();
            assert!(!seen[new]);
            seen[new] = true;
            assert_eq!(perm.old_id(new).get(), old);
        }
        // Locality: each applicant's relabeled list span is far below the
        // scattered span (communities of 10 posts in a 70-post id space).
        let orig_span: usize = span_sum(&inst);
        let twin_span: usize = span_sum(r.instance());
        assert!(
            twin_span * 2 < orig_span,
            "relabeled spans {twin_span} not tighter than scattered {orig_span}"
        );
    }

    fn span_sum(inst: &PrefInstance) -> usize {
        (0..inst.num_applicants())
            .map(|a| {
                let ids: Vec<usize> = inst.flat_list(a).iter().map(|p| p.get()).collect();
                ids.iter().max().unwrap() - ids.iter().min().unwrap()
            })
            .sum()
    }

    #[test]
    fn relabeled_solve_is_popular_on_the_original() {
        for seed in [1, 5, 9] {
            let inst = clustered_scattered(&cfg(seed), 10);
            let r = optimize_layout(&inst).unwrap();
            let mut solver = RelabeledSolver::new(0, 0);
            let m = solver.solve(&r).unwrap().clone();
            assert!(m.is_valid(&inst));
            assert!(is_popular_characterization(&inst, &m));
            // Same size as a direct solve (all popular matchings of a
            // strict instance match the same applicants to f/s posts).
            let mut direct = PopularSolver::new(0, 0);
            let d = direct.solve(&inst).unwrap();
            assert_eq!(m.size(&inst), d.size(&inst));
        }
    }

    #[test]
    fn tie_groups_are_block_sorted_and_lists_preserved() {
        let inst = with_ties(&cfg(7), 3);
        let r = optimize_layout(&inst).unwrap();
        let twin = r.instance();
        let perm = r.permutation();
        for a in 0..inst.num_applicants() {
            assert_eq!(inst.num_ranks(a), twin.num_ranks(a));
            for rank in 0..inst.num_ranks(a) {
                // Same group membership under the permutation…
                let mut orig: Vec<usize> = inst
                    .group_slice(a, rank)
                    .iter()
                    .map(|p| perm.new_id(p.get()).get())
                    .collect();
                orig.sort_unstable();
                let twin_g: Vec<usize> =
                    twin.group_slice(a, rank).iter().map(|p| p.get()).collect();
                assert_eq!(orig, twin_g);
                // …and the twin's group is sorted (blocked order).
                assert!(twin_g.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn infeasibility_is_label_invariant() {
        // Uniform instances at this density routinely have no popular
        // matching; whatever the direct solve reports, the layout path
        // must report the same.
        for seed in [2, 4, 6, 8] {
            let inst = uniform_strict(&cfg(seed));
            let r = optimize_layout(&inst).unwrap();
            let mut direct = PopularSolver::new(0, 0);
            let mut layered = RelabeledSolver::new(0, 0);
            let d = direct.solve(&inst).map(|m| m.size(&inst));
            let l = layered.solve(&r).map(|m| m.size(&inst));
            assert_eq!(d, l);
        }
    }

    #[test]
    fn block_of_uses_the_effective_block_length() {
        let b = LAYOUT_BLOCK_LEN;
        assert_eq!(b, 4096);
        assert_eq!(block_of(0), 0);
        assert_eq!(block_of(b - 1), 0);
        assert_eq!(block_of(b), 1);
    }
}
