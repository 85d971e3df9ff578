//! Fair near-neighbor sampling data structures.
//!
//! This crate implements the contributions of *Aumüller, Pagh, Silvestri —
//! "Fair Near Neighbor Search: Independent Range Sampling in High
//! Dimensions" (PODS 2020)*:
//!
//! | Paper | Type | Problem solved |
//! |---|---|---|
//! | Section 3, Theorem 1 | [`FairNns`] | r-near neighbor sampling (r-NNS): uniform sample from `B_S(q, r)` |
//! | Section 3.1 / Appendix A, Theorem 5 | [`RankSwapSampler`] | r-NNIS restricted to a single repeated query, via rank re-randomisation |
//! | Section 4, Theorem 2 | [`FairNnis`] | r-near neighbor *independent* sampling (r-NNIS): the [`FairNns`] structure plus one count-distinct sketch per large bucket |
//! | Section 5 / Appendix B, Theorems 3–4 | [`FilterNnis`] | α-NNIS under inner product in nearly-linear space |
//! | Section 2.2 / Section 6 baselines | [`StandardLsh`], [`NaiveFairLsh`], [`ExactSampler`] | the comparison points of the experimental evaluation |
//! | Section 6.2 | [`ApproximateNeighborhoodSampler`], an alias of [`NaiveFairLsh`] | the approximate-neighbourhood notion: the naive fair query at the far threshold `cr` |
//!
//! The three paper samplers share one LSH layer: [`RankSwapSampler`] and
//! [`FairNnis`] each wrap a [`FairNns`], which holds the hasher bank, the
//! rank permutation and the rank-sorted tables, and whose snapshot sections
//! begin both of their images.
//!
//! All samplers implement the common [`NeighborSampler`] trait, so the
//! examples, experiments and tests can swap them freely. Every structure is
//! deterministic given its build seed; query-time randomness comes from the
//! caller-provided RNG, which is what makes the *independent* sampling
//! guarantees meaningful.
//!
//! # Quick example
//!
//! ```
//! use fairnn_core::{FairNns, NeighborSampler, SimilarityAtLeast};
//! use fairnn_lsh::{MinHash, ParamsBuilder};
//! use fairnn_space::{Dataset, Jaccard, SparseSet};
//! use rand::SeedableRng;
//!
//! // Toy dataset: four users with overlapping taste.
//! let data: Dataset<SparseSet> = vec![
//!     SparseSet::from_items(vec![1, 2, 3, 4]),
//!     SparseSet::from_items(vec![1, 2, 3, 5]),
//!     SparseSet::from_items(vec![1, 2, 3, 6]),
//!     SparseSet::from_items(vec![100, 200, 300]),
//! ].into_iter().collect();
//!
//! let params = ParamsBuilder::new(data.len(), 0.5, 0.1).empirical(&MinHash);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut sampler = FairNns::build(
//!     &MinHash,
//!     params,
//!     &data,
//!     SimilarityAtLeast::new(Jaccard, 0.5),
//!     &mut rng,
//! );
//!
//! let query = SparseSet::from_items(vec![1, 2, 3, 4]);
//! let sampled = sampler.sample(&query, &mut rng);
//! assert!(sampled.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod filter;
pub mod nnis;
pub mod nns;
pub mod predicate;
pub mod rank;
pub mod rank_swap;
pub mod sampler;

pub use baseline::{ApproximateNeighborhoodSampler, ExactSampler, NaiveFairLsh, StandardLsh};
pub use filter::{FilterConfig, FilterNnis, TensorFilter};
pub use nnis::FairNnis;
pub use nns::FairNns;
pub use predicate::{DistanceAtMost, Nearness, SimilarityAtLeast};
pub use rank::RankPermutation;
pub use rank_swap::RankSwapSampler;
pub use sampler::{FairSampler, NeighborSampler, QueryStats};
