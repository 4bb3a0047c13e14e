//! Functional tests for the incremental (delta) serving path: install,
//! round-trip equivalence with a direct [`DeltaSolver`], burst coalescing,
//! typed error pass-through, and the degradation interaction.
//!
//! Every server gets an explicit fault spec so the suite stays
//! deterministic even when the environment exports `PM_FAULTS`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use pm_instances::generators::{self, GeneratorConfig};
use pm_popular::delta::{Delta, DeltaMode, DeltaSolver};
use pm_popular::{PopularError, PrefInstance};
use pm_serve::faults::Spec;
use pm_serve::{DeltaRequest, Quality, Request, ServeError, Server, ServerConfig, SolveMode};

fn gen(n: usize, seed: u64) -> PrefInstance {
    generators::solvable(&GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 4,
        seed,
    })
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        faults: Spec::none(),
        ..ServerConfig::default()
    }
}

/// An edit of applicant `a` that keeps the list's members but reverses the
/// tail (valid against any instance with list length ≥ 2).
fn tail_reversal(inst: &PrefInstance, a: usize) -> Delta {
    let mut prefs: Vec<usize> = inst.flat_list(a).iter().map(|p| p.get()).collect();
    prefs[1..].reverse();
    Delta::EditPrefList {
        applicant: a,
        prefs,
    }
}

/// An edit of applicant `a` that swaps its first two choices, so its first
/// choice changes (valid against any instance with list length ≥ 2).
fn head_swap(inst: &PrefInstance, a: usize) -> Delta {
    let mut prefs: Vec<usize> = inst.flat_list(a).iter().map(|p| p.get()).collect();
    prefs.swap(0, 1);
    Delta::EditPrefList {
        applicant: a,
        prefs,
    }
}

#[test]
fn delta_round_trip_matches_direct_incremental_solver() {
    // Ids 9 and 10 take the same rounds of deltas.  The client keeps every
    // answer of id 9 to the end.  Of id 10 it holds only the latest round's
    // answers, or the latest two rounds' in one stretch, as a caller that
    // replaces its copy does; the server then publishes into recycled
    // buffers.  Every answer must equal the direct solver's for its round,
    // on arrival and for as long as it is held.  The edits change first
    // choices, so most rounds change the answer.
    let spec = Spec::none();
    let mut cfg = quiet_config();
    cfg.workers = 1;
    cfg.faults = spec.clone();
    let server = Server::start(cfg);
    let inst = gen(500, 3);
    let np = inst.num_posts();
    for id in [9, 10] {
        server.install_delta(id, &inst, SolveMode::Popular).unwrap();
    }
    let mut direct = DeltaSolver::install(&inst, DeltaMode::Popular).unwrap();

    let rounds = 72;
    let mut kept = Vec::new();
    let mut held = VecDeque::new();
    let mut deltas_sent = 0;
    for round in 0..rounds {
        let deltas: Vec<Delta> = match round {
            // A burst coalesced into one round behind a stalled worker.
            20 => (400..404).map(|a| head_swap(&inst, a)).collect(),
            // A full rebuild, then the applicant count grows and shrinks.
            30 => vec![Delta::AddPost],
            31 => vec![Delta::AddApplicant { prefs: vec![np] }],
            32 => vec![Delta::RemoveApplicant { applicant: 0 }],
            _ => vec![head_swap(&inst, (round * 37) % 400)],
        };
        deltas_sent += deltas.len();
        let stall = (deltas.len() > 1).then(|| {
            spec.set("delay:200ms").unwrap();
            server
                .submit(Request::new(Arc::new(gen(50, 6)), 77))
                .unwrap()
        });
        let tickets: Vec<Vec<_>> = [9, 10]
            .iter()
            .map(|&id| {
                deltas
                    .iter()
                    .map(|d| {
                        server
                            .submit_delta(DeltaRequest::new(id, d.clone()))
                            .unwrap()
                    })
                    .collect()
            })
            .collect();
        if let Some(stall) = stall {
            // Disabled only once the stall is over, so it surely slept.
            assert!(stall.wait().is_ok());
            spec.disable();
        }
        for d in &deltas {
            direct.apply(d).unwrap();
        }
        let want = direct.flush().unwrap().as_slice().to_vec();
        let [answers_9, answers_10]: [Vec<_>; 2] = tickets
            .into_iter()
            .map(|ts| {
                ts.into_iter()
                    .map(|t| {
                        let resp = t.wait().unwrap();
                        assert_eq!(resp.quality, Quality::Full);
                        assert_eq!(resp.coalesced, deltas.len(), "round {round}");
                        assert!(!resp.overran_deadline);
                        assert_eq!(resp.matching.as_slice(), want.as_slice(), "round {round}");
                        resp
                    })
                    .collect()
            })
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        kept.push((round, want.clone(), answers_9));
        held.push_back((round, want, answers_10));
        let generations = if (50..58).contains(&round) { 2 } else { 1 };
        while held.len() > generations {
            held.pop_front();
        }
        for (r, want, answers) in &held {
            for resp in answers {
                assert_eq!(resp.matching.as_slice(), want.as_slice(), "round {r}");
            }
        }
    }
    for (r, want, answers) in &kept {
        for resp in answers {
            assert_eq!(
                resp.matching.as_slice(),
                want.as_slice(),
                "round {r} changed"
            );
        }
    }
    let stats = server.stats();
    assert_eq!(stats.served, 2 * deltas_sent as u64 + 1);
    assert_eq!(stats.delta_ticks, 2 * rounds as u64);
    assert_eq!(stats.deltas_coalesced, 2 * deltas_sent as u64);
    server.shutdown();
}

#[test]
fn max_cardinality_mode_is_respected() {
    let server = Server::start(quiet_config());
    let inst = gen(300, 11);
    server
        .install_delta(2, &inst, SolveMode::MaxCardinality)
        .unwrap();
    let mut direct = DeltaSolver::install(&inst, DeltaMode::MaxCardinality).unwrap();
    let d = tail_reversal(&inst, 42);
    let resp = server.apply_delta(DeltaRequest::new(2, d.clone())).unwrap();
    direct.apply(&d).unwrap();
    assert_eq!(resp.matching.as_slice(), direct.flush().unwrap().as_slice());
    server.shutdown();
}

#[test]
fn bursts_coalesce_into_one_solve_round() {
    let spec = Spec::none();
    let mut cfg = quiet_config();
    cfg.workers = 1;
    cfg.faults = spec.clone();
    let server = Server::start(cfg);
    let inst = gen(300, 5);
    server.install_delta(1, &inst, SolveMode::Popular).unwrap();

    // Stall the single worker on a plain solve; the burst of deltas below
    // queues behind one scheduling tick while it sleeps.
    spec.set("delay:200ms").unwrap();
    let stall = server
        .submit(Request::new(Arc::new(gen(50, 6)), 77))
        .unwrap();
    let tickets: Vec<_> = (0..6)
        .map(|a| {
            server
                .submit_delta(DeltaRequest::new(1, tail_reversal(&inst, a)))
                .unwrap()
        })
        .collect();
    spec.disable();
    assert!(stall.wait().is_ok());

    let mut direct = DeltaSolver::install(&inst, DeltaMode::Popular).unwrap();
    for a in 0..6 {
        direct.apply(&tail_reversal(&inst, a)).unwrap();
    }
    let want = direct.flush().unwrap().as_slice().to_vec();
    for t in tickets {
        let resp = t.wait().unwrap();
        assert_eq!(resp.quality, Quality::Full);
        assert_eq!(
            resp.coalesced, 6,
            "all six deltas must land in one coalesced round"
        );
        assert_eq!(resp.matching.as_slice(), want.as_slice());
    }
    let stats = server.stats();
    assert_eq!(stats.delta_ticks, 1);
    assert_eq!(stats.deltas_coalesced, 6);
    server.shutdown();
}

#[test]
fn unknown_instance_is_a_typed_rejection() {
    let server = Server::start(quiet_config());
    match server.submit_delta(DeltaRequest::new(42, Delta::AddPost)) {
        Err(ServeError::UnknownInstance { instance_id: 42 }) => {}
        other => panic!("expected UnknownInstance, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn infeasible_delta_returns_typed_error_and_heals() {
    // Two applicants on two posts is fine; a third fighting over the same
    // pair makes the component infeasible.  The typed error must pass
    // through without degrading the id, and the healing delta must restore
    // full-quality service.
    let base = PrefInstance::new_strict(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
    let mut cfg = quiet_config();
    cfg.degrade_after = 1; // hair trigger: any *failure* would degrade
    let server = Server::start(cfg);
    server.install_delta(5, &base, SolveMode::Popular).unwrap();
    match server.apply_delta(DeltaRequest::new(
        5,
        Delta::AddApplicant { prefs: vec![0, 1] },
    )) {
        Err(ServeError::Solve(PopularError::NoPopularMatching)) => {}
        other => panic!("expected NoPopularMatching, got {other:?}"),
    }
    let resp = server
        .apply_delta(DeltaRequest::new(
            5,
            Delta::RemoveApplicant { applicant: 2 },
        ))
        .unwrap();
    assert_eq!(resp.quality, Quality::Full, "typed errors never degrade");
    assert_eq!(server.stats().solve_errors, 1);
    assert_eq!(server.stats().degraded_responses, 0);
    server.shutdown();
}

#[test]
fn invalid_deltas_are_rejected_individually() {
    let server = Server::start(quiet_config());
    let inst = gen(50, 9);
    server.install_delta(4, &inst, SolveMode::Popular).unwrap();
    match server.apply_delta(DeltaRequest::new(
        4,
        Delta::RemoveApplicant { applicant: 10_000 },
    )) {
        Err(ServeError::Solve(PopularError::InvalidInstance(_))) => {}
        other => panic!("expected InvalidInstance, got {other:?}"),
    }
    // The rejection left the instance untouched and serviceable.
    let resp = server
        .apply_delta(DeltaRequest::new(4, tail_reversal(&inst, 0)))
        .unwrap();
    assert_eq!(resp.quality, Quality::Full);
    server.shutdown();
}

#[test]
fn degraded_instance_answers_deltas_stale_without_flushing() {
    let server = Server::start(quiet_config());
    let inst = gen(100, 8);
    server.install_delta(3, &inst, SolveMode::Popular).unwrap();

    // One successful round caches a last-good matching for the id.
    let first = server
        .apply_delta(DeltaRequest::new(3, tail_reversal(&inst, 0)))
        .unwrap();
    assert_eq!(first.quality, Quality::Full);
    let before = server.delta_stats(3).unwrap();

    server.force_degrade(3);
    let resp = server
        .apply_delta(DeltaRequest::new(3, tail_reversal(&inst, 1)))
        .unwrap();
    assert_eq!(resp.quality, Quality::Stale);
    assert_eq!(
        resp.matching.as_slice(),
        first.matching.as_slice(),
        "stale answers come from the last-good cache"
    );
    let after = server.delta_stats(3).unwrap();
    assert_eq!(
        after.flushes, before.flushes,
        "a degraded id is answered without solver traffic"
    );
    assert_eq!(
        after.deltas_applied,
        before.deltas_applied + 1,
        "the mutation still lands, to be picked up by the next full round"
    );
    assert_eq!(server.stats().degraded_responses, 1);
    server.shutdown();
}

#[test]
fn delta_deadlines_shed_before_applying() {
    let server = Server::start(quiet_config());
    let inst = gen(50, 12);
    server.install_delta(6, &inst, SolveMode::Popular).unwrap();
    // Already expired at submit: shed without touching the queue.
    let req = DeltaRequest::new(6, tail_reversal(&inst, 0)).with_timeout(Duration::ZERO);
    match server.submit_delta(req) {
        Err(ServeError::DeadlineExpired { .. }) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let stats = server.delta_stats(6).unwrap();
    assert_eq!(stats.deltas_applied, 0);
    server.shutdown();
}
