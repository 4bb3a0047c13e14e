//! Graceful degradation: per-instance health tracking, the last-good
//! matching cache, and the serial-dictatorship fallback.
//!
//! The policy (DESIGN.md §9): failures here mean *solve panics and injected
//! I/O faults* — a typed [`PopularError`](pm_popular::PopularError) is a
//! legitimate deterministic answer and never counts.  After `K`
//! **consecutive** failures on one instance id the server stops sending its
//! traffic to the solver and answers degraded instead:
//!
//! * the **last-good matching** cached from the most recent successful
//!   solve of the same id, flagged stale; or, if none exists yet,
//! * a **serial-dictatorship** matching computed fresh — the classic
//!   mechanism baseline (each applicant in index order takes their most
//!   preferred still-free post).  It is not popular in general, but it is
//!   O(|E|), allocation-light, trivially panic-free, and always a *valid*
//!   assignment — a designed answer of last resort, not an accident.
//!
//! Re-promotion is by bounded exponential backoff: once degraded, a single
//! probe request per backoff window is allowed through to the real solver;
//! a success resets the instance to full service, a failure doubles the
//! backoff up to the configured ceiling.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pm_popular::instance::{Assignment, PrefInstance};

/// Serial dictatorship over the instance's preference lists: applicants in
/// index order each take their most preferred still-unclaimed real post,
/// falling back to their own last resort.  Ties are broken by list order
/// (the flat CSR order), so the result is deterministic.
///
/// The output is always a valid assignment
/// ([`Assignment::is_valid`]) but carries no popularity guarantee — it is
/// the serving layer's cheap degraded answer, flagged as such.
pub fn serial_dictatorship(inst: &PrefInstance) -> Assignment {
    let mut taken = vec![false; inst.num_posts()];
    let mut out = Assignment::all_last_resort(inst);
    for (a, slot) in out.as_mut_slice().iter_mut().enumerate() {
        for &p in inst.flat_list(a) {
            if !taken[p.get()] {
                taken[p.get()] = true;
                *slot = p;
                break;
            }
        }
    }
    out
}

/// What the health gate tells the worker to do with a request.
#[derive(Debug)]
pub(crate) enum Gate {
    /// Run the real solver.  `probe` marks the single bounded-backoff retry
    /// of a degraded instance.
    Solve {
        /// True iff this request is the re-promotion probe of a degraded id.
        probe: bool,
    },
    /// Answer from the cached last-good matching, flagged stale.
    Stale(Assignment),
    /// Answer with a fresh serial-dictatorship fallback (computed by the
    /// caller, outside the health lock).
    Fallback,
}

/// What to tell the client after a recorded failure.
#[derive(Debug)]
pub(crate) enum FailureDisposition {
    /// Fewer than `K` consecutive failures: surface the error.
    Error,
    /// Degraded, last-good available: serve it stale.
    Stale(Assignment),
    /// Degraded, nothing cached: serve the serial-dictatorship fallback.
    Fallback,
}

#[derive(Debug)]
struct Health {
    consecutive_failures: u32,
    last_good: Option<Assignment>,
    backoff: Duration,
    retry_at: Option<Instant>,
}

/// Shared per-instance health state (see the module docs for the policy).
#[derive(Debug)]
pub(crate) struct HealthMap {
    map: Mutex<HashMap<u64, Health>>,
    k: u32,
    backoff_initial: Duration,
    backoff_max: Duration,
}

impl HealthMap {
    pub(crate) fn new(
        degrade_after: u32,
        backoff_initial: Duration,
        backoff_max: Duration,
    ) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            k: degrade_after.max(1),
            backoff_initial,
            backoff_max: backoff_max.max(backoff_initial),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Health>> {
        // The critical sections below are pure map bookkeeping; a panic
        // mid-update cannot leave them logically torn, so a poisoned lock
        // keeps serving.
        self.map
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn fresh(&self) -> Health {
        Health {
            consecutive_failures: 0,
            last_good: None,
            backoff: self.backoff_initial,
            retry_at: None,
        }
    }

    /// Routes a request: solve, or answer degraded without touching the
    /// solver.  Claiming the probe slot moves `retry_at` forward *here*, so
    /// concurrent workers cannot all probe at once.
    pub(crate) fn gate(&self, id: u64, now: Instant) -> Gate {
        let mut map = self.lock();
        let Some(h) = map.get_mut(&id) else {
            return Gate::Solve { probe: false };
        };
        if h.consecutive_failures < self.k {
            return Gate::Solve { probe: false };
        }
        match h.retry_at {
            Some(t) if now >= t => {
                h.retry_at = Some(now + h.backoff);
                h.backoff = (h.backoff * 2).min(self.backoff_max);
                Gate::Solve { probe: true }
            }
            _ => match &h.last_good {
                Some(m) => Gate::Stale(m.clone()),
                None => Gate::Fallback,
            },
        }
    }

    /// A successful solve: reset the failure streak, cache the matching,
    /// re-promote to full service.
    pub(crate) fn record_success(&self, id: u64, matching: &Assignment) {
        let mut map = self.lock();
        let h = map.entry(id).or_insert_with(|| self.fresh());
        h.consecutive_failures = 0;
        h.backoff = self.backoff_initial;
        h.retry_at = None;
        h.last_good = Some(matching.clone());
    }

    /// The solver completed without panicking but produced a typed error
    /// (e.g. no popular matching exists).  That is a *healthy* solver, so a
    /// probe reaching this outcome re-promotes the instance to full
    /// service — there is just no matching to cache.
    pub(crate) fn record_healthy(&self, id: u64) {
        let mut map = self.lock();
        let h = map.entry(id).or_insert_with(|| self.fresh());
        h.consecutive_failures = 0;
        h.backoff = self.backoff_initial;
        h.retry_at = None;
    }

    /// A solve panic or injected fault: bump the streak; once it reaches
    /// `K`, arm the backoff window and tell the caller to answer degraded.
    pub(crate) fn record_failure(&self, id: u64, now: Instant) -> FailureDisposition {
        let mut map = self.lock();
        let h = map.entry(id).or_insert_with(|| self.fresh());
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        if h.consecutive_failures < self.k {
            return FailureDisposition::Error;
        }
        if h.retry_at.is_none() {
            h.retry_at = Some(now + h.backoff);
            h.backoff = (h.backoff * 2).min(self.backoff_max);
        }
        match &h.last_good {
            Some(m) => FailureDisposition::Stale(m.clone()),
            None => FailureDisposition::Fallback,
        }
    }

    /// Forces the id into the degraded state with the probe window pushed a
    /// full `backoff_max` out — the ops/bench hook for measuring the
    /// degraded path without injecting failures.
    pub(crate) fn force_degrade(&self, id: u64, now: Instant) {
        let mut map = self.lock();
        let h = map.entry(id).or_insert_with(|| self.fresh());
        h.consecutive_failures = h.consecutive_failures.max(self.k);
        h.backoff = self.backoff_max;
        h.retry_at = Some(now + self.backoff_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> PrefInstance {
        // a0: p0 > p1; a1: p0 > p2; a2: p2 > p0.
        PrefInstance::new_strict(3, vec![vec![0, 1], vec![0, 2], vec![2, 0]]).unwrap()
    }

    #[test]
    fn serial_dictatorship_is_valid_and_greedy() {
        let inst = inst();
        let m = serial_dictatorship(&inst);
        assert!(m.is_valid(&inst));
        assert_eq!(m.post(0), 0, "a0 takes its first choice");
        assert_eq!(m.post(1), 2, "a1's first choice is taken, takes p2");
        assert_eq!(
            m.post(2),
            inst.last_resort(2),
            "both of a2's choices are taken"
        );
    }

    #[test]
    fn serial_dictatorship_handles_ties_and_tiny_instances() {
        let tied =
            PrefInstance::new_with_ties(3, vec![vec![vec![0, 1], vec![2]], vec![vec![1]]]).unwrap();
        let m = serial_dictatorship(&tied);
        assert!(m.is_valid(&tied));
        assert_eq!(m.post(0), 0, "tie broken by flat order");
        assert_eq!(m.post(1), 1);
    }

    #[test]
    fn degrades_after_k_and_probes_with_backoff() {
        let inst = inst();
        let h = HealthMap::new(2, Duration::from_millis(10), Duration::from_millis(40));
        let t0 = Instant::now();
        // Healthy id goes straight to the solver.
        assert!(matches!(h.gate(7, t0), Gate::Solve { probe: false }));
        // First failure: still an error; second reaches K and degrades.
        assert!(matches!(h.record_failure(7, t0), FailureDisposition::Error));
        assert!(matches!(
            h.record_failure(7, t0),
            FailureDisposition::Fallback
        ));
        // Inside the backoff window: degraded answers, no solver traffic.
        assert!(matches!(h.gate(7, t0), Gate::Fallback));
        // After the window: exactly one probe is let through...
        let later = t0 + Duration::from_millis(15);
        assert!(matches!(h.gate(7, later), Gate::Solve { probe: true }));
        // ...and a concurrent second request stays degraded.
        assert!(matches!(h.gate(7, later), Gate::Fallback));
        // Probe succeeds: full service, and the matching is cached.
        let m = serial_dictatorship(&inst);
        h.record_success(7, &m);
        assert!(matches!(h.gate(7, later), Gate::Solve { probe: false }));
        // New failures now serve the cached matching stale.
        h.record_failure(7, later);
        match h.record_failure(7, later) {
            FailureDisposition::Stale(stale) => assert_eq!(stale, m),
            other => panic!("expected Stale, got {other:?}"),
        }
        match h.gate(7, later) {
            Gate::Stale(stale) => assert_eq!(stale, m),
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn backoff_doubles_up_to_the_ceiling() {
        let h = HealthMap::new(1, Duration::from_millis(10), Duration::from_millis(25));
        let t0 = Instant::now();
        h.record_failure(9, t0); // arms retry at t0+10, backoff -> 20
        let mut t = t0;
        // Walk three probe windows; each failure re-arms from the doubled
        // (then clamped) backoff.
        for expected_ms in [10u64, 20, 25] {
            let before = t + Duration::from_millis(expected_ms - 5);
            assert!(
                matches!(h.gate(9, before), Gate::Fallback),
                "window of {expected_ms}ms must hold"
            );
            t += Duration::from_millis(expected_ms);
            assert!(matches!(h.gate(9, t), Gate::Solve { probe: true }));
            // Probe fails: streak continues, next window armed.
            h.record_failure(9, t);
        }
    }

    #[test]
    fn force_degrade_is_immediate_and_sticky() {
        let h = HealthMap::new(3, Duration::from_millis(1), Duration::from_secs(60));
        let t0 = Instant::now();
        h.force_degrade(11, t0);
        assert!(matches!(h.gate(11, t0), Gate::Fallback));
        assert!(matches!(
            h.gate(11, t0 + Duration::from_secs(1)),
            Gate::Fallback
        ));
    }
}
