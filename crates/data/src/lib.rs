//! Synthetic workload generators for the fair near-neighbor experiments.
//!
//! The paper's evaluation (Section 6) uses two real-world datasets from the
//! hetrec-2011 collection, converted to set representation:
//!
//! * **MovieLens** — 2 112 users, 65 536 unique movies; a user's set is the
//!   movies they rated at least 4; mean set size 178.1 (σ = 187.5);
//! * **Last.FM** — 1 892 users, 18 739 unique artists; a user's set is their
//!   top-20 artists; mean set size 19.8 (σ = 1.78).
//!
//! Those files are not available in this environment, so this crate provides
//! synthetic generators calibrated to the same statistics
//! ([`setdata::movielens_like`], [`setdata::lastfm_like`]): Zipf-distributed
//! item popularity, log-normal set sizes and planted interest clusters that
//! create the "interesting users" the paper selects as queries (at least 40
//! neighbours at Jaccard ≥ 0.2). See `DESIGN.md` for the substitution
//! argument.
//!
//! The crate also contains:
//!
//! * [`adversarial`] — the exact Section 6.2 instance (universe `{1..30}`,
//!   sets `X`, `Y`, `Z` and the family `M` of large subsets of `Y`) used to
//!   show that *approximate neighbourhood* sampling is unfair;
//! * [`vectors`] — dense unit-vector workloads with planted neighbours for
//!   the Section 5 filter structure;
//! * [`queries`] — query selection ("interesting" users);
//! * [`rng`] and [`zipf`] — the random-variate plumbing (log-normal, Zipf)
//!   implemented locally to stay inside the approved dependency set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod queries;
pub mod rng;
pub mod setdata;
pub mod vectors;
pub mod zipf;

pub use adversarial::AdversarialInstance;
pub use queries::select_interesting_queries;
pub use setdata::{lastfm_like, movielens_like, SetDataConfig};
pub use vectors::{random_unit_vectors, PlantedInstance, PlantedInstanceConfig};
pub use zipf::Zipf;
