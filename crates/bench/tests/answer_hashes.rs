//! Pins the answers of the popular-matching pipeline on the harness's own
//! workload families: for each instance, `PopularSolver::solve` at widths 1
//! and 4 must return the same peel-round count and the same matching as
//! recorded here, hashed with FNV-1a-64 over each applicant's post id (4
//! little-endian bytes, in applicant order).  On feasible instances
//! `solve_max_cardinality` must return the same hash as `solve` (on these
//! instances Algorithm 3 finds no larger popular matching to switch to),
//! except on the crowded family, where Algorithm 3 moves applicants off
//! their last resorts and its answer has a hash of its own.
//!
//! The values were recorded from an earlier formulation of Algorithm 2
//! that list-ranked four arcs per applicant in every peel round.  The
//! chain-only formulation, and any later rewrite of the peeling loop or the
//! even-cycle finish, must keep every answer bit-identical to it.  The
//! crowded family's hashes were recorded from the formulation of
//! Algorithm 3 that summed margins with weighted pointer doubling; the
//! telescoped formulation must keep them bit-identical too.

use pm_bench::workloads;
use pm_popular::error::PopularError;
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::solver::PopularSolver;
use rayon::ThreadPoolBuilder;

/// What a solve returned: the answer's hash, or `None` when the instance
/// has no popular matching.
type Expected = (Option<u64>, u32);

fn fnv1a64(m: &Assignment) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in 0..m.num_applicants() {
        let post = u32::try_from(m.post(a)).expect("post ids fit 32 bits");
        for byte in post.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check(name: &str, inst: &PrefInstance, expected: Expected) {
    check_with_max_cardinality(name, inst, expected, expected.0);
}

/// [`check`] on an instance where `solve_max_cardinality` returns
/// `max_hash` rather than `solve`'s hash.
fn check_with_max_cardinality(
    name: &str,
    inst: &PrefInstance,
    (hash, rounds): Expected,
    max_hash: Option<u64>,
) {
    for threads in [1, 4] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pools always build");
        pool.install(|| {
            let mut solver = PopularSolver::new(0, 0);
            let got = match solver.solve(inst) {
                Ok(m) => Some(fnv1a64(m)),
                Err(PopularError::NoPopularMatching) => None,
                Err(e) => panic!("{name} at width {threads}: unexpected error {e}"),
            };
            assert_eq!(got, hash, "{name} at width {threads}: answer hash");
            assert_eq!(
                solver.peel_rounds(),
                rounds,
                "{name} at width {threads}: peel rounds"
            );
            if let Some(max_hash) = max_hash {
                let m = solver
                    .solve_max_cardinality(inst)
                    .unwrap_or_else(|e| panic!("{name} at width {threads}: {e}"));
                assert_eq!(
                    fnv1a64(m),
                    max_hash,
                    "{name} at width {threads}: max-cardinality hash"
                );
            }
        });
    }
}

#[test]
fn answers_at_ten_thousand_match_the_recorded_hashes() {
    let n = 10_000;
    check(
        "solvable_uniform",
        &workloads::solvable_uniform(n),
        (Some(17_691_613_340_575_156_075), 1),
    );
    check(
        "clustered_scattered",
        &workloads::clustered_scattered(n),
        (Some(7_137_724_611_250_947_017), 1),
    );
    check(
        "pressured(0.4)",
        &workloads::pressured(n, 0.4),
        (Some(9_769_951_434_680_439_438), 1),
    );
    check("contended", &workloads::contended(n), (None, 4));
    check(
        "peeling_tree(17)",
        &workloads::peeling_tree(17),
        (Some(8_640_229_170_302_323_542), 17),
    );
    check_with_max_cardinality(
        "crowded",
        &workloads::crowded(n),
        (Some(3_695_454_184_702_181_463), 3),
        Some(10_897_078_187_449_430_154),
    );
}

#[test]
fn answers_at_one_hundred_thousand_match_the_recorded_hashes() {
    let n = 100_000;
    check(
        "solvable_uniform",
        &workloads::solvable_uniform(n),
        (Some(952_111_441_401_142_964), 1),
    );
    check(
        "clustered_scattered",
        &workloads::clustered_scattered(n),
        (Some(17_659_193_824_666_270_023), 1),
    );
    check(
        "pressured(0.4)",
        &workloads::pressured(n, 0.4),
        (Some(5_864_652_058_364_395_445), 1),
    );
    check("contended", &workloads::contended(n), (None, 3));
    check_with_max_cardinality(
        "crowded",
        &workloads::crowded(n),
        (Some(7_295_273_206_355_684_269), 4),
        Some(17_061_367_227_411_336_688),
    );
}
