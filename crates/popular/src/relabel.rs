//! Post permutations and the `Relabeled` solve path of the locality layout
//! (DESIGN.md §12).
//!
//! The layout pass (`pm_instances::layout`) rewrites a validated
//! [`PrefInstance`] into an isomorphic twin whose post ids are renamed so
//! that co-referenced posts share contiguous id blocks.  Popularity is
//! label-invariant — renaming posts and reordering entries *within* a tie
//! group changes no applicant's preference relation — so a popular matching
//! of the twin, mapped back through the inverse permutation, is popular on
//! the original instance.  What the rename *does* shift is every min-label
//! tie-break the kernels take (smallest post id in a tie group, cycle
//! representatives, …), so the mapped-back answer is a possibly *different*
//! popular matching than a direct solve would return.  Callers that care
//! verify against the original instance with the `verify` oracles; the
//! property tests and the harness's `layout/` family do exactly that.
//!
//! The types here live in `pm_popular` rather than next to the layout pass
//! because `pm_instances` depends on this crate, and both the snapshot
//! format (which persists a permutation section) and the solver wrapper
//! need the permutation type.

use pm_pram::{Idx, PramStats};

use crate::instance::{check_sizes, Assignment, PrefInstance};
use crate::solver::PopularSolver;
use crate::PopularError;

/// A validated bijection on post ids, held as both directions (`new_of_old`
/// and `old_of_new`) so the solve path maps forward and the answer path
/// maps back without a search.  Last resorts are *not* renamed: they are
/// applicant-keyed (`num_posts + a`), so a permutation over the real posts
/// leaves every extended id above `num_posts` fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostPermutation {
    new_of_old: Vec<Idx>,
    old_of_new: Vec<Idx>,
}

impl PostPermutation {
    /// Validates `new_of_old` as a bijection on `0..len` and materialises
    /// the inverse.  Runs the [`check_sizes`] funnel (a post count beyond
    /// the 32-bit layer is rejected before the proportional inverse array
    /// is allocated) and rejects out-of-range entries and duplicates with a
    /// typed [`PopularError::InvalidInstance`].
    pub fn try_new(new_of_old: Vec<Idx>) -> Result<Self, PopularError> {
        let n = new_of_old.len();
        check_sizes(0, n, 0)?;
        let mut old_of_new = vec![Idx::NONE; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            // Range-check the raw bit pattern: untrusted input (the snapshot
            // permutation section) can hold anything up to and including the
            // NONE sentinel, which must be a typed rejection, not a debug
            // assert in `Idx::get`.
            if new.raw() as usize >= n {
                return Err(PopularError::InvalidInstance(format!(
                    "post permutation maps {old} to {} (only {n} posts)",
                    new.raw()
                )));
            }
            if old_of_new[new.get()].is_some() {
                return Err(PopularError::InvalidInstance(format!(
                    "post permutation is not a bijection: {} has two preimages",
                    new.get()
                )));
            }
            old_of_new[new.get()] = Idx::new(old);
        }
        Ok(Self {
            new_of_old,
            old_of_new,
        })
    }

    /// The identity permutation on `len` posts.
    pub fn identity(len: usize) -> Result<Self, PopularError> {
        check_sizes(0, len, 0)?;
        let ids: Vec<Idx> = (0..len).map(Idx::new).collect();
        Ok(Self {
            new_of_old: ids.clone(),
            old_of_new: ids,
        })
    }

    /// Number of posts the permutation acts on.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// `true` when the permutation acts on zero posts.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The relabeled id of original post `old`.
    pub fn new_id(&self, old: usize) -> Idx {
        self.new_of_old[old]
    }

    /// The original id of relabeled post `new`.
    pub fn old_id(&self, new: usize) -> Idx {
        self.old_of_new[new]
    }

    /// The forward direction (`new_of_old`) as a slice — the section the
    /// snapshot format persists.
    pub fn forward(&self) -> &[Idx] {
        &self.new_of_old
    }

    /// The inverse direction (`old_of_new`) as a slice.
    pub fn inverse(&self) -> &[Idx] {
        &self.old_of_new
    }
}

/// A relabeled instance paired with the permutation that produced it: the
/// solve-side artifact of the layout pass.  Solvers run on
/// [`instance`](Self::instance) (the locality-optimized twin) and answers
/// come back through [`map_back_into`](Self::map_back_into).
#[derive(Debug, Clone)]
pub struct Relabeled {
    inst: PrefInstance,
    perm: PostPermutation,
}

impl Relabeled {
    /// Pairs a relabeled instance with its permutation.  The only check
    /// possible at this layer is the size contract (the permutation acts on
    /// exactly the instance's posts); the layout pass constructs the pair
    /// so the deeper invariant — `inst` *is* the original with posts mapped
    /// forward — holds by construction.
    pub fn new(inst: PrefInstance, perm: PostPermutation) -> Result<Self, PopularError> {
        if perm.len() != inst.num_posts() {
            return Err(PopularError::InvalidInstance(format!(
                "post permutation covers {} posts but the instance has {}",
                perm.len(),
                inst.num_posts()
            )));
        }
        Ok(Self { inst, perm })
    }

    /// The locality-optimized twin the solver runs on.
    pub fn instance(&self) -> &PrefInstance {
        &self.inst
    }

    /// The post permutation (original → relabeled).
    pub fn permutation(&self) -> &PostPermutation {
        &self.perm
    }

    /// Decomposes the pair.
    pub fn into_parts(self) -> (PrefInstance, PostPermutation) {
        (self.inst, self.perm)
    }

    /// Maps an assignment over the relabeled instance back to
    /// original-instance post ids, into a reused output buffer (no
    /// allocation once `out` has the capacity).  Real posts map through the
    /// inverse permutation; last resorts (`num_posts + a`) are
    /// applicant-keyed and identical on both sides.
    pub fn map_back_into(&self, relabeled: &Assignment, out: &mut Assignment) {
        let num_posts = self.inst.num_posts();
        out.reset_unassigned(relabeled.num_applicants());
        for (slot, &p) in out.as_mut_slice().iter_mut().zip(relabeled.as_slice()) {
            *slot = if p.get() < num_posts {
                self.perm.old_id(p.get())
            } else {
                p
            };
        }
    }
}

/// A [`PopularSolver`] that solves through a [`Relabeled`] layout: forward
/// solve on the twin, answer mapped back to original post ids.  Owns the
/// mapped-back output buffer, so warm solves stay at zero heap allocations
/// — the property the harness's `layout/` zero-alloc gate pins.
#[derive(Debug)]
pub struct RelabeledSolver {
    solver: PopularSolver,
    out: Assignment,
}

impl RelabeledSolver {
    /// Builds a solver with warm-start capacity hints (see
    /// [`PopularSolver::new`]).
    pub fn new(n_hint: usize, p_hint: usize) -> Self {
        Self {
            solver: PopularSolver::new(n_hint, p_hint),
            out: Assignment::from_idx_vec(Vec::with_capacity(n_hint)),
        }
    }

    /// Runs Algorithms 1 + 2 on the relabeled twin and returns a popular
    /// matching **in original post ids**, by reference.
    ///
    /// # Errors
    /// Those of [`PopularSolver::solve`]; popularity is label-invariant, so
    /// `NoPopularMatching` surfaces exactly when a direct solve of the
    /// original instance would report it.
    pub fn solve(&mut self, r: &Relabeled) -> Result<&Assignment, PopularError> {
        let m = self.solver.solve(r.instance())?;
        r.map_back_into(m, &mut self.out);
        Ok(&self.out)
    }

    /// Maximum-cardinality variant of [`solve`](Self::solve).
    pub fn solve_max_cardinality(&mut self, r: &Relabeled) -> Result<&Assignment, PopularError> {
        let m = self.solver.solve_max_cardinality(r.instance())?;
        r.map_back_into(m, &mut self.out);
        Ok(&self.out)
    }

    /// Depth/work statistics of the last solve (see [`PopularSolver::stats`]).
    pub fn stats(&self) -> PramStats {
        self.solver.stats()
    }

    /// Whether a previous solve poisoned the pooled workspace.
    pub fn is_poisoned(&self) -> bool {
        self.solver.is_poisoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_validation_rejects_bad_maps() {
        // Out of range.
        let e = PostPermutation::try_new(vec![Idx::new(0), Idx::new(2)]).unwrap_err();
        assert!(matches!(e, PopularError::InvalidInstance(_)));
        // Not injective.
        let e = PostPermutation::try_new(vec![Idx::new(1), Idx::new(1)]).unwrap_err();
        assert!(matches!(e, PopularError::InvalidInstance(_)));
        // Valid: inverse round-trips.
        let p = PostPermutation::try_new(vec![Idx::new(2), Idx::new(0), Idx::new(1)]).unwrap();
        for old in 0..3 {
            assert_eq!(p.old_id(p.new_id(old).get()).get(), old);
        }
        assert_eq!(p.len(), 3);
        let id = PostPermutation::identity(4).unwrap();
        assert_eq!(id.new_id(3).get(), 3);
    }

    #[test]
    fn relabeled_requires_matching_post_count() {
        let inst = PrefInstance::new_strict(2, vec![vec![0], vec![1]]).unwrap();
        let perm = PostPermutation::identity(3).unwrap();
        assert!(matches!(
            Relabeled::new(inst, perm),
            Err(PopularError::InvalidInstance(_))
        ));
    }

    #[test]
    fn map_back_fixes_last_resorts_and_inverts_posts() {
        // Original: 2 posts.  Permutation swaps them.
        let inst = PrefInstance::new_strict(2, vec![vec![1, 0], vec![0, 1]]).unwrap();
        let perm = PostPermutation::try_new(vec![Idx::new(1), Idx::new(0)]).unwrap();
        // The "relabeled" instance under the swap.
        let twin = PrefInstance::new_strict(2, vec![vec![0, 1], vec![1, 0]]).unwrap();
        let r = Relabeled::new(twin, perm).unwrap();
        // Relabeled answer: a0 -> relabeled post 0 (= original 1),
        // a1 -> its last resort (2 + 1 = 3).
        let m = Assignment::new(vec![0, 3]);
        let mut out = Assignment::new(vec![]);
        r.map_back_into(&m, &mut out);
        assert_eq!(out.post(0), 1);
        assert_eq!(out.post(1), 3);
        assert!(out.is_valid(&inst));
    }
}
