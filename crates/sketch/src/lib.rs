//! Count-distinct sketches and the hash families they are built on.
//!
//! Section 4 of the paper equips every LSH bucket with a sketch for the
//! number of distinct elements (the `F0` frequency moment), following
//! Bar-Yossef, Jayram, Kumar, Sivakumar and Trevisan \[11\]. The essential
//! property used by the r-NNIS query algorithm is *mergeability*: the
//! sketches of the `L` buckets a query collides with can be combined into a
//! sketch of their union, giving a constant-factor approximation `ŝ_q` of the
//! number of distinct colliding points.
//!
//! This crate provides:
//!
//! * [`hashing`] — 2-universal and k-independent hash families
//!   (multiply-shift, polynomial hashing over the Mersenne prime 2⁶¹−1) plus
//!   the SplitMix64 mixer used for seeding;
//! * [`distinct`] — [`DistinctSketch`], the bottom-`t` sketch of \[11\] with
//!   `Δ` independent rows and median-of-rows estimation;
//! * [`bottomk`] — a single-row KMV (k-minimum-values) sketch, a simpler
//!   alternative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottomk;
pub mod distinct;
pub mod hashing;

pub use bottomk::BottomKSketch;
pub use distinct::{DistinctSketch, DistinctSketchParams, DistinctValueTable};
pub use hashing::{splitmix64, MultiplyShift, PolynomialHash};

/// Common interface of the cardinality estimators in this crate.
///
/// All estimators are *mergeable*: the estimate of a union can be computed
/// from the sketches of its parts, which is exactly how Section 4 merges the
/// per-bucket sketches of the buckets a query collides with.
pub trait CardinalityEstimator {
    /// Registers one element (elements are identified by `u64` keys; in the
    /// fair near-neighbor structures the key is the point id).
    fn insert(&mut self, element: u64);

    /// Merges `other` into `self`. Both sketches must have been created with
    /// the same parameters/seed; implementations panic otherwise.
    fn merge(&mut self, other: &Self);

    /// Returns the current estimate of the number of distinct inserted
    /// elements.
    fn estimate(&self) -> f64;
}
