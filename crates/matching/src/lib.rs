//! Baseline matching algorithms used as substrates and referees.
//!
//! The paper's NC algorithms lean on a few classical matching routines:
//!
//! * Algorithm 2 finishes on a 2-regular bipartite graph ("G′ decomposes
//!   into a family of disjoint even cycles … choosing all edges of even
//!   distance yields a perfect matching"); [`two_regular`] provides both a
//!   parallel (orientation-selection) and a sequential implementation, and
//!   [`regular`] extends to 2^k-regular graphs in the spirit of the
//!   Lev–Pippenger–Valiant routing result the paper cites.
//! * Theorem 11 reduces maximum-cardinality bipartite matching to popular
//!   matching; [`hopcroft_karp`](mod@hopcroft_karp) is the independent
//!   referee that experiment E9 uses to check cardinalities.
//! * Section VI builds on the stable-marriage model; [`gale_shapley`] is the
//!   classic sequential algorithm used to produce the stable matchings the
//!   NC "next"-matching algorithm starts from.
//!
//! [`matching::Matching`] is the shared bipartite-matching value type.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gale_shapley;
pub mod hopcroft_karp;
pub mod matching;
pub mod regular;
pub mod two_regular;

pub use gale_shapley::{gale_shapley_man_optimal, gale_shapley_woman_optimal, is_stable};
pub use hopcroft_karp::hopcroft_karp;
pub use matching::Matching;
pub use regular::regular_perfect_matching;
pub use two_regular::{
    two_regular_perfect_matching_parallel, two_regular_perfect_matching_sequential,
};
