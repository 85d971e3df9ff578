//! Point types, similarity and distance measures, and exact-neighbourhood
//! datasets used throughout the fair near-neighbor search reproduction.
//!
//! The paper (Aumüller, Pagh, Silvestri, PODS 2020) works in a generic
//! metric/similarity space. Two concrete spaces are exercised by its
//! evaluation:
//!
//! * **set space with Jaccard similarity** — user profiles represented as
//!   sets of item ids (MovieLens / Last.FM experiments, Section 6);
//! * **unit vectors with inner-product similarity** — the nearly-linear
//!   space filter data structure of Section 5.
//!
//! This crate provides the corresponding point types ([`SparseSet`] and
//! [`DenseVector`]), the similarity/distance functions, and a [`Dataset`]
//! container with exact (linear-scan) neighbourhood queries. The exact
//! queries serve as ground truth for the fair samplers and directly power the
//! Figure 3 experiment (the `b_S(q, cr)/b_S(q, r)` cost ratio).
//!
//! # Quick example
//!
//! ```
//! use fairnn_space::{SparseSet, Jaccard, Similarity, Dataset};
//!
//! let users = vec![
//!     SparseSet::from_items(vec![1, 2, 3, 4]),
//!     SparseSet::from_items(vec![1, 2, 3, 9]),
//!     SparseSet::from_items(vec![7, 8]),
//! ];
//! let data = Dataset::new(users);
//! let query = SparseSet::from_items(vec![1, 2, 3, 4]);
//!
//! // Exact neighbourhood at Jaccard similarity >= 0.5.
//! let near = data.similar_indices(&Jaccard, &query, 0.5);
//! assert_eq!(near.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod metric;
pub mod point;
pub mod snapshot;

pub use dataset::Dataset;
pub use metric::{
    Cosine, Distance, Euclidean, Hamming, InnerProduct, Jaccard, Similarity, SquaredEuclidean,
};
pub use point::{BitVector, DenseVector, PointId, SparseSet};
