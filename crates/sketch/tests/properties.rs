//! Property-based tests of the cardinality estimators.

#![expect(
    clippy::iter_over_hash_type,
    clippy::disallowed_methods,
    reason = "the inputs are sets: a sketch of a set does not depend on insertion order"
)]

use fairnn_sketch::{BottomKSketch, CardinalityEstimator, DistinctSketch, DistinctSketchParams};
use proptest::prelude::*;
use std::collections::HashSet;

fn params() -> DistinctSketchParams {
    DistinctSketchParams {
        epsilon: 0.5,
        delta: 0.01,
        universe: 1 << 20,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distinct_sketch_is_exact_below_row_width(elements in proptest::collection::hash_set(0u64..1_000_000, 0..14)) {
        let mut sketch = DistinctSketch::new(17, params());
        for &e in &elements {
            sketch.insert(e);
            sketch.insert(e);
        }
        prop_assert_eq!(sketch.estimate(), elements.len() as f64);
    }

    #[test]
    fn distinct_sketch_insertion_order_does_not_matter(mut elements in proptest::collection::vec(0u64..100_000, 0..200)) {
        let forward = DistinctSketch::from_elements(3, params(), elements.iter().copied());
        elements.reverse();
        let backward = DistinctSketch::from_elements(3, params(), elements.iter().copied());
        prop_assert_eq!(forward.estimate(), backward.estimate());
    }

    #[test]
    fn distinct_sketch_merge_is_idempotent(elements in proptest::collection::vec(0u64..100_000, 0..300)) {
        let sketch = DistinctSketch::from_elements(5, params(), elements.iter().copied());
        let mut merged = sketch.clone();
        merged.merge(&sketch);
        prop_assert_eq!(merged.estimate(), sketch.estimate());
    }

    #[test]
    fn distinct_sketch_merge_matches_union(
        left in proptest::collection::vec(0u64..50_000, 0..400),
        right in proptest::collection::vec(0u64..50_000, 0..400),
    ) {
        let p = params();
        let mut merged = DistinctSketch::from_elements(9, p, left.iter().copied());
        merged.merge(&DistinctSketch::from_elements(9, p, right.iter().copied()));
        let union = DistinctSketch::from_elements(
            9,
            p,
            left.iter().copied().chain(right.iter().copied()),
        );
        prop_assert_eq!(merged.estimate(), union.estimate());
    }

    #[test]
    fn distinct_sketch_estimate_within_factor_two(step in 1u64..50, count in 100u64..4000) {
        // Structured streams (arithmetic progressions) should still be
        // estimated within the 1/2-approximation the r-NNIS proof needs.
        let sketch = DistinctSketch::from_elements(
            29,
            params(),
            (0..count).map(|i| i * step + 7),
        );
        let est = sketch.estimate();
        let truth = count as f64;
        prop_assert!(est >= truth / 2.0, "estimate {} for true count {}", est, truth);
        prop_assert!(est <= 2.0 * truth, "estimate {} for true count {}", est, truth);
    }

    #[test]
    fn distinct_sketch_merge_estimates_union_within_error_bound(
        left in proptest::collection::hash_set(0u64..30_000, 0..2_000),
        right in proptest::collection::hash_set(0u64..30_000, 0..2_000),
    ) {
        // The estimate-after-merge guarantee the sharded engine relies on:
        // merging per-part sketches estimates |A ∪ B| within the same
        // relative error bound ε that a sketch built directly over the
        // union enjoys. Exercised across disjoint, overlapping (the hash
        // sets routinely intersect) and empty operands.
        let p = params();
        let mut merged = DistinctSketch::from_elements(21, p, left.iter().copied());
        merged.merge(&DistinctSketch::from_elements(21, p, right.iter().copied()));
        let truth: HashSet<u64> = left.union(&right).copied().collect();
        let est = merged.estimate();
        if truth.is_empty() {
            prop_assert_eq!(est, 0.0);
        } else {
            let rel = (est - truth.len() as f64).abs() / truth.len() as f64;
            prop_assert!(
                rel <= p.epsilon,
                "merged estimate {} for |A ∪ B| = {} (relative error {:.3} > ε = {})",
                est, truth.len(), rel, p.epsilon
            );
        }
    }

    #[test]
    fn distinct_sketch_merge_with_empty_is_identity(
        elements in proptest::collection::vec(0u64..100_000, 0..500),
    ) {
        let p = params();
        let empty = DistinctSketch::new(33, p);
        prop_assert_eq!(empty.estimate(), 0.0);
        let sketch = DistinctSketch::from_elements(33, p, elements.iter().copied());
        let mut merged = sketch.clone();
        merged.merge(&empty);
        prop_assert_eq!(merged.estimate(), sketch.estimate());
        let mut other_way = empty.clone();
        other_way.merge(&sketch);
        prop_assert_eq!(other_way.estimate(), sketch.estimate());
        prop_assert!(sketch.mergeable_with(&empty));
    }

    #[test]
    fn distinct_sketch_merge_is_associative_across_three_parts(
        a in proptest::collection::vec(0u64..40_000, 0..300),
        b in proptest::collection::vec(0u64..40_000, 0..300),
        c in proptest::collection::vec(0u64..40_000, 0..300),
    ) {
        // Shard merges happen in arbitrary grouping; (A ∪ B) ∪ C must
        // estimate like A ∪ (B ∪ C).
        let p = params();
        let sa = DistinctSketch::from_elements(55, p, a.iter().copied());
        let sb = DistinctSketch::from_elements(55, p, b.iter().copied());
        let sc = DistinctSketch::from_elements(55, p, c.iter().copied());
        let mut ab_c = sa.clone();
        ab_c.merge(&sb);
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.estimate(), a_bc.estimate());
    }

    #[test]
    fn bottomk_merge_estimates_union_within_kmv_error(
        left in proptest::collection::hash_set(0u64..30_000, 0..3_000),
        right in proptest::collection::hash_set(0u64..30_000, 0..3_000),
    ) {
        // Same estimate-after-merge guarantee for the engine's per-bucket
        // KMV sketches: the merged sketch behaves like one built over the
        // union, and the union estimate stays within the usual
        // O(1/sqrt(k)) KMV error envelope (generous constant for the tail).
        let k = 256usize;
        let mut merged = BottomKSketch::new(31, k);
        for &e in &left { merged.insert(e); }
        let mut other = BottomKSketch::new(31, k);
        for &e in &right { other.insert(e); }
        merged.merge(&other);
        prop_assert!(merged.mergeable_with(&other));
        let truth: HashSet<u64> = left.union(&right).copied().collect();
        if truth.is_empty() {
            prop_assert_eq!(merged.estimate(), 0.0);
        } else if truth.len() < k {
            // Below capacity the KMV sketch is exact.
            prop_assert_eq!(merged.estimate(), truth.len() as f64);
        } else {
            let rel = (merged.estimate() - truth.len() as f64).abs() / truth.len() as f64;
            prop_assert!(
                rel < 6.0 / (k as f64).sqrt(),
                "merged KMV estimate {} for |A ∪ B| = {}",
                merged.estimate(), truth.len()
            );
        }
    }

    #[test]
    fn bottomk_merge_matches_union(
        left in proptest::collection::vec(0u64..80_000, 0..300),
        right in proptest::collection::vec(0u64..80_000, 0..300),
    ) {
        let mut merged = BottomKSketch::new(13, 64);
        let mut other = BottomKSketch::new(13, 64);
        let mut union = BottomKSketch::new(13, 64);
        for &e in &left { merged.insert(e); union.insert(e); }
        for &e in &right { other.insert(e); union.insert(e); }
        merged.merge(&other);
        prop_assert_eq!(merged.estimate(), union.estimate());
    }
}
