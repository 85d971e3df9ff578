//! Nearness predicates.
//!
//! The paper states its constructions both for distance thresholds
//! (`D(p, q) ≤ r`) and for similarity thresholds (`S(p, q) ≥ r`, Section 2.1
//! "Comment"). The samplers in this crate are generic over a [`Nearness`]
//! predicate so a single implementation covers both orientations; the two
//! adapters [`SimilarityAtLeast`] and [`DistanceAtMost`] wrap the measures of
//! `fairnn-space`.

use fairnn_space::metric::{Distance, Similarity};

/// Decides whether a dataset point belongs to the neighbourhood of a query.
pub trait Nearness<P> {
    /// Returns `true` when `point` is a near neighbour of `query`.
    fn is_near(&self, query: &P, point: &P) -> bool;

    /// The threshold value this predicate encodes (used for reporting).
    fn threshold(&self) -> f64;
}

/// Neighbourhood defined by a similarity threshold: `S(q, p) ≥ r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityAtLeast<S> {
    measure: S,
    threshold: f64,
}

impl<S> SimilarityAtLeast<S> {
    /// Creates the predicate `S(q, p) >= threshold`.
    pub fn new(measure: S, threshold: f64) -> Self {
        Self { measure, threshold }
    }

    /// The underlying similarity measure.
    pub fn measure(&self) -> &S {
        &self.measure
    }
}

impl<P, S: Similarity<P>> Nearness<P> for SimilarityAtLeast<S> {
    fn is_near(&self, query: &P, point: &P) -> bool {
        self.measure.similarity(query, point) >= self.threshold
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl<S: fairnn_snapshot::Codec> fairnn_snapshot::Codec for SimilarityAtLeast<S> {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.measure.encode(enc);
        enc.write_f64(self.threshold);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            measure: S::decode(dec)?,
            threshold: dec.read_f64()?,
        })
    }
}

/// Neighbourhood defined by a distance threshold: `D(q, p) ≤ r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceAtMost<D> {
    metric: D,
    threshold: f64,
}

impl<D> DistanceAtMost<D> {
    /// Creates the predicate `D(q, p) <= threshold`.
    pub fn new(metric: D, threshold: f64) -> Self {
        Self { metric, threshold }
    }

    /// The underlying distance metric.
    pub fn metric(&self) -> &D {
        &self.metric
    }
}

impl<D: fairnn_snapshot::Codec> fairnn_snapshot::Codec for DistanceAtMost<D> {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.metric.encode(enc);
        enc.write_f64(self.threshold);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            metric: D::decode(dec)?,
            threshold: dec.read_f64()?,
        })
    }
}

impl<P, D: Distance<P>> Nearness<P> for DistanceAtMost<D> {
    fn is_near(&self, query: &P, point: &P) -> bool {
        self.metric.distance(query, point) <= self.threshold
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairnn_space::{DenseVector, Euclidean, Jaccard, SparseSet};

    #[test]
    fn similarity_predicate() {
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let a = SparseSet::from_items(vec![1, 2, 3, 4]);
        let b = SparseSet::from_items(vec![1, 2, 3, 5]);
        let c = SparseSet::from_items(vec![9, 10]);
        assert!(near.is_near(&a, &b));
        assert!(!near.is_near(&a, &c));
        assert_eq!(near.threshold(), 0.5);
        let _ = near.measure();
    }

    #[test]
    fn distance_predicate() {
        let near = DistanceAtMost::new(Euclidean, 1.0);
        let origin = DenseVector::new(vec![0.0, 0.0]);
        let close = DenseVector::new(vec![0.5, 0.5]);
        let far = DenseVector::new(vec![3.0, 4.0]);
        assert!(near.is_near(&origin, &close));
        assert!(!near.is_near(&origin, &far));
        assert_eq!(near.threshold(), 1.0);
        let _ = near.metric();
    }

    #[test]
    fn boundary_is_inclusive_in_both_orientations() {
        let sim = SimilarityAtLeast::new(Jaccard, 1.0);
        let a = SparseSet::from_items(vec![1, 2]);
        assert!(sim.is_near(&a, &a));
        let dist = DistanceAtMost::new(Euclidean, 5.0);
        let x = DenseVector::new(vec![0.0, 0.0]);
        let y = DenseVector::new(vec![3.0, 4.0]);
        assert!(dist.is_near(&x, &y));
    }
}
