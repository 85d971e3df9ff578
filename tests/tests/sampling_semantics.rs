//! Semantics of the sampling variants across crates: with/without
//! replacement (Section 3.1), correctness of the returned neighbourhoods,
//! and the cost-ratio quantities behind Figure 3.

use fairnn_core::{ExactSampler, FairNnis, FairNns, NeighborSampler, SimilarityAtLeast};
use fairnn_integration_tests::{test_dataset, test_params};
use fairnn_lsh::OneBitMinHash;
use fairnn_space::{Jaccard, PointId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

const R: f64 = 0.25;

#[test]
fn without_replacement_samples_are_distinct_near_neighbors() {
    let data = test_dataset(11);
    let params = test_params(data.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let mut rng = StdRng::seed_from_u64(1);
    let mut nns = FairNns::build(&OneBitMinHash, params, &data, near, &mut rng);
    let exact = ExactSampler::new(&data, near);

    let query = data.point(PointId(0)).clone();
    let neighborhood: HashSet<PointId> = exact.neighborhood(&query).into_iter().collect();
    for k in [1usize, 3, 8, neighborhood.len() + 5] {
        let sample = nns.sample_without_replacement(&query, k);
        assert!(sample.len() <= k);
        assert!(sample.len() <= neighborhood.len());
        let distinct: HashSet<PointId> = sample.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            sample.len(),
            "duplicates in a without-replacement sample"
        );
        for id in &sample {
            assert!(neighborhood.contains(id), "sampled a non-neighbour {id:?}");
        }
    }
}

#[test]
fn with_replacement_sampling_covers_the_neighborhood() {
    let data = test_dataset(12);
    let params = test_params(data.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let mut rng = StdRng::seed_from_u64(2);
    let mut nnis = FairNnis::build(&OneBitMinHash, params, &data, near, &mut rng);
    let exact = ExactSampler::new(&data, near);

    let query = data.point(PointId(1)).clone();
    let neighborhood: HashSet<PointId> = exact.neighborhood(&query).into_iter().collect();
    assert!(neighborhood.len() >= 5);

    let draws = nnis.sample_with_replacement(&query, 60 * neighborhood.len(), &mut rng);
    let seen: HashSet<PointId> = draws.iter().copied().collect();
    // With-replacement independent draws should quickly cover (almost) the
    // whole neighbourhood by the coupon-collector argument.
    assert!(
        seen.len() * 10 >= neighborhood.len() * 9,
        "covered {} of {} neighbours",
        seen.len(),
        neighborhood.len()
    );
    for id in &draws {
        assert!(neighborhood.contains(id));
    }
}

#[test]
fn every_sampler_agrees_on_empty_neighborhoods() {
    let data = test_dataset(13);
    let params = test_params(data.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let mut rng = StdRng::seed_from_u64(3);
    let mut nns = FairNns::build(&OneBitMinHash, params, &data, near, &mut rng);
    let mut nnis = FairNnis::build(&OneBitMinHash, params, &data, near, &mut rng);
    let mut exact = ExactSampler::new(&data, near);

    // A query with no items in common with anything.
    let query = fairnn_space::SparseSet::from_items(vec![999_900, 999_901, 999_902]);
    assert!(exact.sample(&query, &mut rng).is_none());
    assert!(nns.sample(&query, &mut rng).is_none());
    assert!(nnis.sample(&query, &mut rng).is_none());
    assert!(nns.sample_without_replacement(&query, 5).is_empty());
}

#[test]
fn cost_ratio_is_monotone_and_at_least_one() {
    // The Figure 3 quantity on the integration fixture: the ratio
    // b(q, cr)/b(q, r) is >= 1 and grows as c (and hence the far threshold)
    // shrinks.
    let data = test_dataset(14);
    let query = data.point(PointId(0)).clone();
    let b_r = data.similar_count(&Jaccard, &query, R) as f64;
    assert!(b_r >= 1.0);
    let mut previous = 1.0;
    for c in [0.9, 0.67, 0.5, 0.33, 0.2] {
        let b_cr = data.similar_count(&Jaccard, &query, c * R) as f64;
        let ratio = b_cr / b_r;
        assert!(ratio >= 1.0 - 1e-9);
        assert!(
            ratio >= previous - 1e-9,
            "ratio not monotone as c decreases"
        );
        previous = ratio;
    }
}
