//! Matching profiles and the `≻_R` / `≺_F` orders (Section IV-E).
//!
//! The *profile* of a matching is the vector `(x₁, …, x_{n₂+1})` where `x_i`
//! counts the applicants matched to their `i`-th ranked post; an applicant on
//! its last resort counts at rank `n₂ + 1` regardless of its list length.
//! A *rank-maximal* popular matching maximises the profile in the
//! left-to-right lexicographic order `≻_R`; a *fair* popular matching
//! minimises it in the right-to-left order `≺_F`.

use std::cmp::Ordering;

use crate::instance::{Assignment, PrefInstance};

/// The profile vector of a matching (index `i` = count at rank `i + 1`;
/// the final entry counts last resorts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile(pub Vec<u64>);

impl Profile {
    /// Computes the profile of `m` with respect to `inst`.
    pub fn of(inst: &PrefInstance, m: &Assignment) -> Self {
        let mut counts = vec![0u64; inst.num_posts() + 1];
        for a in 0..inst.num_applicants() {
            let p = m.post(a);
            if p == inst.last_resort(a) {
                *counts.last_mut().expect("profile has at least one slot") += 1;
            } else {
                let rank = inst.rank(a, p).expect("matched post must be acceptable");
                counts[rank] += 1;
            }
        }
        Profile(counts)
    }

    /// Compares two profiles in the rank-maximal order `≻_R`: the first
    /// position (from the front) where they differ decides; larger is
    /// `Ordering::Greater` (better).
    pub fn cmp_rank_maximal(&self, other: &Profile) -> Ordering {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Compares two profiles in the fair order `≺_F`: the last position
    /// (from the back) where they differ decides; the profile with the
    /// smaller entry there is `Ordering::Less` (better for fairness, since
    /// fair popular matchings are `≺_F`-minimal).
    pub fn cmp_fair(&self, other: &Profile) -> Ordering {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter().rev().zip(other.0.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Total number of applicants accounted for (sanity helper).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Number of applicants **not** on their last resort — the matching size.
    pub fn size(&self) -> u64 {
        self.total() - self.0.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> PrefInstance {
        PrefInstance::new_strict(3, vec![vec![0, 1], vec![0, 2], vec![2, 1, 0]]).unwrap()
    }

    #[test]
    fn profile_counts_ranks_and_last_resorts() {
        let i = inst();
        // a0 -> p0 (rank 1), a1 -> p2 (rank 2), a2 -> last resort.
        let m = Assignment::new(vec![0, 2, i.last_resort(2)]);
        let p = Profile::of(&i, &m);
        assert_eq!(p.0, vec![1, 1, 0, 1]);
        assert_eq!(p.total(), 3);
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn rank_maximal_order_prefers_more_first_choices() {
        let a = Profile(vec![2, 0, 1, 0]);
        let b = Profile(vec![1, 2, 0, 0]);
        assert_eq!(a.cmp_rank_maximal(&b), Ordering::Greater);
        assert_eq!(b.cmp_rank_maximal(&a), Ordering::Less);
        assert_eq!(a.cmp_rank_maximal(&a), Ordering::Equal);
    }

    #[test]
    fn fair_order_penalises_bad_ranks_first() {
        // b has an applicant at the worst rank, a does not: a ≺_F b.
        let a = Profile(vec![1, 2, 1, 0]);
        let b = Profile(vec![3, 0, 0, 1]);
        assert_eq!(a.cmp_fair(&b), Ordering::Less);
        assert_eq!(b.cmp_fair(&a), Ordering::Greater);
        assert_eq!(a.cmp_fair(&a), Ordering::Equal);
    }

    #[test]
    fn fair_order_distinguishes_middle_ranks() {
        let a = Profile(vec![1, 2, 1, 0]);
        let c = Profile(vec![2, 1, 1, 0]);
        // From the back: rank 4 equal, rank 3 equal, rank 2: a has 2, c has 1
        // -> c is smaller there, so c ≺_F a.
        assert_eq!(c.cmp_fair(&a), Ordering::Less);
        assert_eq!(a.cmp_fair(&c), Ordering::Greater);
    }

    #[test]
    fn fair_popular_matching_is_maximum_cardinality() {
        // A profile with fewer last resorts is always ≺_F-smaller, matching
        // the paper's remark that fair popular matchings are maximum
        // cardinality.
        let fewer_lr = Profile(vec![0, 0, 3, 1]);
        let more_lr = Profile(vec![3, 0, 0, 2]);
        assert_eq!(fewer_lr.cmp_fair(&more_lr), Ordering::Less);
    }
}
