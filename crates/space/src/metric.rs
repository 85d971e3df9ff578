//! Similarity and distance measures.
//!
//! The paper formulates neighbourhoods both in terms of distances
//! (`D(p, q) <= r`, Section 2.1) and similarities (`S(p, q) >= r`, the
//! "Comment" in Section 2.1). We model both sides with two small traits so
//! that the samplers in `fairnn-core` can be written once per orientation:
//!
//! * [`Distance`] — smaller is closer, the neighbourhood is
//!   `{p : D(p, q) <= r}`;
//! * [`Similarity`] — larger is closer, the neighbourhood is
//!   `{p : S(p, q) >= r}`.
//!
//! Implementations provided here: [`Euclidean`], [`SquaredEuclidean`] and
//! [`Hamming`] distances, and [`Jaccard`], [`InnerProduct`] and [`Cosine`]
//! similarities.

use crate::point::{BitVector, DenseVector, SparseSet};

/// A dissimilarity measure: lower values mean more similar points.
pub trait Distance<P> {
    /// Distance between `a` and `b`. Must be non-negative and symmetric.
    fn distance(&self, a: &P, b: &P) -> f64;

    /// Returns `true` when `a` is within distance `r` of `b`.
    fn is_near(&self, a: &P, b: &P, r: f64) -> bool {
        self.distance(a, b) <= r
    }
}

/// A similarity measure: higher values mean more similar points.
pub trait Similarity<P> {
    /// Similarity of `a` and `b`. Must be symmetric.
    fn similarity(&self, a: &P, b: &P) -> f64;

    /// Returns `true` when the similarity of `a` and `b` is at least `r`.
    fn is_near(&self, a: &P, b: &P, r: f64) -> bool {
        self.similarity(a, b) >= r
    }
}

/// Euclidean (ℓ2) distance between dense vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Distance<DenseVector> for Euclidean {
    fn distance(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        a.distance(b)
    }
}

/// Squared Euclidean distance; monotone in [`Euclidean`] but cheaper to
/// evaluate, useful inside inner loops and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl Distance<DenseVector> for SquaredEuclidean {
    fn distance(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        a.squared_distance(b)
    }
}

/// Hamming distance between bit vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hamming;

impl Distance<BitVector> for Hamming {
    fn distance(&self, a: &BitVector, b: &BitVector) -> f64 {
        a.hamming(b) as f64
    }
}

/// Jaccard similarity between item sets, `|A ∩ B| / |A ∪ B|`.
///
/// This is the similarity measure of the paper's experimental evaluation
/// (Section 6): user profiles are sets of movies/artists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaccard;

impl Similarity<SparseSet> for Jaccard {
    fn similarity(&self, a: &SparseSet, b: &SparseSet) -> f64 {
        a.jaccard(b)
    }
}

/// Inner-product similarity between dense vectors.
///
/// Section 5 states its bounds for unit-length vectors under inner product;
/// for unit vectors `⟨p, q⟩ = 1 - ||p - q||² / 2`, so thresholds translate
/// directly between the two formulations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InnerProduct;

impl Similarity<DenseVector> for InnerProduct {
    fn similarity(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        a.dot(b)
    }
}

/// Cosine similarity between dense vectors (inner product of the normalised
/// vectors). Equal to [`InnerProduct`] on unit-length inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cosine;

impl Similarity<DenseVector> for Cosine {
    fn similarity(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        a.cosine(b)
    }
}

/// Converts a Euclidean distance threshold `r` between unit vectors into the
/// equivalent inner-product threshold `α = 1 - r²/2`.
pub fn euclidean_radius_to_inner_product(r: f64) -> f64 {
    1.0 - r * r / 2.0
}

/// Converts an inner-product threshold `α` between unit vectors into the
/// equivalent Euclidean distance threshold `r = sqrt(2 - 2α)`.
pub fn inner_product_to_euclidean_radius(alpha: f64) -> f64 {
    (2.0 - 2.0 * alpha).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_and_squared() {
        let a = DenseVector::new(vec![0.0, 0.0]);
        let b = DenseVector::new(vec![3.0, 4.0]);
        assert_eq!(Euclidean.distance(&a, &b), 5.0);
        assert_eq!(SquaredEuclidean.distance(&a, &b), 25.0);
        assert!(Euclidean.is_near(&a, &b, 5.0));
        assert!(!Euclidean.is_near(&a, &b, 4.9));
    }

    #[test]
    fn hamming_distance() {
        let a = BitVector::from_bools(&[true, true, false]);
        let b = BitVector::from_bools(&[false, true, true]);
        assert_eq!(Hamming.distance(&a, &b), 2.0);
        assert!(Hamming.is_near(&a, &b, 2.0));
        assert!(!Hamming.is_near(&a, &b, 1.0));
    }

    #[test]
    fn jaccard_similarity_threshold() {
        let a = SparseSet::from_items(vec![1, 2, 3, 4]);
        let b = SparseSet::from_items(vec![1, 2, 3, 5]);
        let s = Jaccard.similarity(&a, &b);
        assert!((s - 0.6).abs() < 1e-12);
        assert!(Jaccard.is_near(&a, &b, 0.5));
        assert!(!Jaccard.is_near(&a, &b, 0.7));
    }

    #[test]
    fn inner_product_and_cosine_agree_on_unit_vectors() {
        let a = DenseVector::new(vec![0.6, 0.8]);
        let b = DenseVector::new(vec![1.0, 0.0]);
        assert!((InnerProduct.similarity(&a, &b) - Cosine.similarity(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn threshold_conversions_roundtrip() {
        for alpha in [0.9, 0.5, 0.0, -0.5] {
            let r = inner_product_to_euclidean_radius(alpha);
            let back = euclidean_radius_to_inner_product(r);
            assert!((alpha - back).abs() < 1e-12, "alpha={alpha} back={back}");
        }
        assert_eq!(inner_product_to_euclidean_radius(1.0), 0.0);
    }

    #[test]
    fn similarity_is_near_uses_geq() {
        let a = SparseSet::from_items(vec![1, 2]);
        let b = SparseSet::from_items(vec![1, 2]);
        assert!(Jaccard.is_near(&a, &b, 1.0));
    }
}
