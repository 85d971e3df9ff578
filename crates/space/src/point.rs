//! Concrete point representations.
//!
//! Three representations cover every experiment in the paper:
//!
//! * [`SparseSet`] — a set of item ids (Jaccard similarity, Sections 2 and 6);
//! * [`DenseVector`] — a dense real vector (inner product / Euclidean,
//!   Section 5);
//! * [`BitVector`] — a fixed-length bit string (Hamming distance, mentioned
//!   in Section 1.1 as a metric the filter structure extends to).

use std::fmt;

/// Identifier of a point inside a [`crate::Dataset`].
///
/// Point ids are dense indices in `0..n` where `n` is the dataset size. All
/// data structures in the workspace store `PointId`s rather than owning
/// copies of the points, mirroring the paper's accounting where a point is
/// stored once and referenced with constant-size pointers (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct PointId(pub u32);

impl PointId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `PointId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`. Datasets in this workspace
    /// are far below that bound.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        PointId(u32::try_from(index).expect("point index exceeds u32::MAX"))
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PointId {
    fn from(value: u32) -> Self {
        PointId(value)
    }
}

/// A sparse set of item identifiers, stored sorted and deduplicated.
///
/// This is the representation of a user profile in the paper's experiments:
/// for MovieLens the set of movies rated at least 4, for Last.FM the top-20
/// artists. Jaccard similarity between two `SparseSet`s is computed with a
/// linear merge over the sorted id lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SparseSet {
    items: Vec<u32>,
}

impl SparseSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Builds a set from arbitrary (possibly unsorted, possibly duplicated)
    /// item ids.
    pub fn from_items(mut items: Vec<u32>) -> Self {
        items.sort_unstable();
        items.dedup();
        Self { items }
    }

    /// Builds a set from items that are already sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted(items: Vec<u32>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly increasing"
        );
        Self { items }
    }

    /// Number of items in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when the set has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorted slice of the item ids.
    #[inline]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Returns `true` when `item` belongs to the set.
    pub fn contains(&self, item: u32) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Size of the intersection with `other` (linear merge).
    pub fn intersection_size(&self, other: &SparseSet) -> usize {
        // Branch-light sorted merge: every iteration advances at least one
        // cursor via arithmetic on the comparison results, so the loop has a
        // single well-predicted branch. This is the inner loop of every
        // distance evaluation the samplers perform.
        let a = &self.items;
        let b = &other.items;
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            let x = a[i];
            let y = b[j];
            count += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        count
    }

    /// Size of the union with `other`.
    pub fn union_size(&self, other: &SparseSet) -> usize {
        self.items.len() + other.items.len() - self.intersection_size(other)
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|`; defined as 1 for two empty
    /// sets. One merge pass: the union size is derived from the
    /// intersection instead of being merged a second time.
    pub fn jaccard(&self, other: &SparseSet) -> f64 {
        let intersection = self.intersection_size(other);
        let union = self.items.len() + other.items.len() - intersection;
        if union == 0 {
            return 1.0;
        }
        intersection as f64 / union as f64
    }
}

impl FromIterator<u32> for SparseSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Self::from_items(iter.into_iter().collect())
    }
}

/// A dense real-valued vector.
///
/// Used for the inner-product / Euclidean experiments of Section 5. The
/// filter data structure assumes unit-length vectors; [`DenseVector::normalized`]
/// produces that form and [`DenseVector::is_unit`] checks it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseVector {
    values: Vec<f64>,
}

impl DenseVector {
    /// Wraps a raw coordinate vector.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Dimensionality of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the vector has no coordinates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw coordinates.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Inner product with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn dot(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in dot product");
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean (ℓ2) norm.
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    pub fn squared_distance(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in distance");
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &DenseVector) -> f64 {
        self.squared_distance(other).sqrt()
    }

    /// Returns a unit-length copy of the vector. The zero vector is returned
    /// unchanged.
    pub fn normalized(&self) -> DenseVector {
        let norm = self.norm();
        if norm == 0.0 {
            return self.clone();
        }
        DenseVector::new(self.values.iter().map(|v| v / norm).collect())
    }

    /// Returns `true` when the norm is within `tol` of 1.
    pub fn is_unit(&self, tol: f64) -> bool {
        (self.norm() - 1.0).abs() <= tol
    }

    /// Cosine similarity with `other`; 0 when either vector is zero.
    pub fn cosine(&self, other: &DenseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        self.dot(other) / denom
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(values: Vec<f64>) -> Self {
        DenseVector::new(values)
    }
}

impl FromIterator<f64> for DenseVector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        DenseVector::new(iter.into_iter().collect())
    }
}

/// A fixed-length bit string stored as packed 64-bit words.
///
/// Supports Hamming distance, the third metric the paper mentions the filter
/// structure can be adapted to (Section 1.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    bits: Vec<u64>,
    len: usize,
}

impl BitVector {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            bits: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a bit vector from a boolean slice.
    pub fn from_bools(values: &[bool]) -> Self {
        let mut bv = Self::zeros(values.len());
        for (i, &b) in values.iter().enumerate() {
            if b {
                bv.set(i, true);
            }
        }
        bv
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the value of bit `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index out of range");
        (self.bits[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "bit index out of range");
        let word = &mut self.bits[index / 64];
        let mask = 1u64 << (index % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn hamming(&self, other: &BitVector) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in Hamming distance");
        self.bits
            .iter()
            .zip(other.bits.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_id_roundtrip() {
        let id = PointId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, PointId(42));
        assert_eq!(format!("{id}"), "p42");
        assert_eq!(PointId::from(7u32), PointId(7));
    }

    #[test]
    fn sparse_set_sorts_and_dedups() {
        let s = SparseSet::from_items(vec![5, 1, 3, 1, 5]);
        assert_eq!(s.items(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn sparse_set_intersection_union() {
        let a = SparseSet::from_items(vec![1, 2, 3, 4]);
        let b = SparseSet::from_items(vec![3, 4, 5, 6]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 6);
        assert!((a.jaccard(&b) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_identity_and_disjoint() {
        let a = SparseSet::from_items(vec![1, 2, 3]);
        let b = SparseSet::from_items(vec![4, 5]);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.jaccard(&b), 0.0);
        let empty = SparseSet::new();
        assert_eq!(empty.jaccard(&empty), 1.0);
        assert_eq!(a.jaccard(&empty), 0.0);
    }

    #[test]
    fn sparse_set_from_iter() {
        let s: SparseSet = [9u32, 2, 2, 7].into_iter().collect();
        assert_eq!(s.items(), &[2, 7, 9]);
    }

    #[test]
    fn dense_vector_dot_and_norm() {
        let a = DenseVector::new(vec![1.0, 2.0, 2.0]);
        let b = DenseVector::new(vec![2.0, 0.0, 1.0]);
        assert_eq!(a.dot(&b), 4.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.squared_distance(&b), 1.0 + 4.0 + 1.0);
        assert!((a.distance(&b) - 6.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn dense_vector_normalization() {
        let a = DenseVector::new(vec![3.0, 4.0]);
        let u = a.normalized();
        assert!(u.is_unit(1e-12));
        assert!((u.values()[0] - 0.6).abs() < 1e-12);
        let zero = DenseVector::new(vec![0.0, 0.0]);
        assert_eq!(zero.normalized(), zero);
        assert!(!zero.is_unit(1e-12));
    }

    #[test]
    fn dense_vector_cosine() {
        let a = DenseVector::new(vec![1.0, 0.0]);
        let b = DenseVector::new(vec![0.0, 1.0]);
        let c = DenseVector::new(vec![2.0, 0.0]);
        assert_eq!(a.cosine(&b), 0.0);
        assert!((a.cosine(&c) - 1.0).abs() < 1e-12);
        let zero = DenseVector::new(vec![0.0, 0.0]);
        assert_eq!(a.cosine(&zero), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dense_vector_dot_dim_mismatch_panics() {
        let a = DenseVector::new(vec![1.0]);
        let b = DenseVector::new(vec![1.0, 2.0]);
        let _ = a.dot(&b);
    }

    #[test]
    fn unit_relation_between_distance_and_inner_product() {
        // For unit vectors: ||p - q||^2 = 2 - 2 <p, q>   (Section 5).
        let p = DenseVector::new(vec![0.6, 0.8]);
        let q = DenseVector::new(vec![1.0, 0.0]);
        assert!(p.is_unit(1e-12) && q.is_unit(1e-12));
        let lhs = p.squared_distance(&q);
        let rhs = 2.0 - 2.0 * p.dot(&q);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn bit_vector_basics() {
        let mut bv = BitVector::zeros(70);
        assert_eq!(bv.len(), 70);
        assert!(!bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
        bv.set(0, true);
        bv.set(69, true);
        assert!(bv.get(0));
        assert!(bv.get(69));
        assert!(!bv.get(35));
        assert_eq!(bv.count_ones(), 2);
        bv.set(0, false);
        assert_eq!(bv.count_ones(), 1);
    }

    #[test]
    fn bit_vector_hamming() {
        let a = BitVector::from_bools(&[true, false, true, true]);
        let b = BitVector::from_bools(&[true, true, false, true]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bit_vector_hamming_len_mismatch_panics() {
        let a = BitVector::zeros(3);
        let b = BitVector::zeros(4);
        let _ = a.hamming(&b);
    }
}
