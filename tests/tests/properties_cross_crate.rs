//! Cross-crate property-based tests: invariants that must hold for random
//! datasets, thresholds and seeds, tying the LSH substrate, the rank
//! permutation and the fair samplers together.

use fairnn_core::{
    ExactSampler, FairNnis, FairNns, NeighborSampler, RankPermutation, SimilarityAtLeast,
};
use fairnn_lsh::{LshIndex, LshParams, MinHash, OneBitMinHash, ParamsBuilder};
use fairnn_space::{Dataset, Jaccard, PointId, SparseSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_dataset() -> impl Strategy<Value = Dataset<SparseSet>> {
    // Random small datasets: a handful of clusters with shared prefixes plus
    // noise items, so neighbourhoods of various sizes exist.
    proptest::collection::vec(
        (0u32..6, proptest::collection::vec(0u32..400, 3..25)),
        8..40,
    )
    .prop_map(|specs| {
        let sets = specs
            .into_iter()
            .map(|(cluster, extra)| {
                let mut items: Vec<u32> = (cluster * 1000..cluster * 1000 + 12).collect();
                items.extend(extra);
                SparseSet::from_items(items)
            })
            .collect();
        Dataset::new(sets)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rank_permutation_is_always_a_bijection(n in 1usize..300, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let perm = RankPermutation::random(n, &mut rng);
        prop_assert!(perm.is_consistent());
        let ranks: std::collections::HashSet<u32> = (0..n as u32).map(|p| perm.rank(PointId(p))).collect();
        prop_assert_eq!(ranks.len(), n);
    }

    #[test]
    fn lsh_index_query_with_itself_always_collides(data in arb_dataset(), seed in 0u64..500) {
        let params = LshParams::explicit(2, 4, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let index = LshIndex::build(&MinHash, params, data.points(), &mut rng);
        for (id, p) in data.iter() {
            prop_assert!(index.colliding_ids(p).contains(&id));
        }
    }

    #[test]
    fn fair_samplers_never_return_points_outside_the_neighborhood(
        data in arb_dataset(),
        seed in 0u64..500,
        r in 0.2f64..0.6,
    ) {
        let near = SimilarityAtLeast::new(Jaccard, r);
        let params = ParamsBuilder::new(data.len(), r, 0.05)
            .with_recall(0.9)
            .empirical(&OneBitMinHash);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nns = FairNns::build(&OneBitMinHash, params, &data, near, &mut rng);
        let mut nnis = FairNnis::build(&OneBitMinHash, params, &data, near, &mut rng);
        let exact = ExactSampler::new(&data, near);
        for qi in [0usize, data.len() / 2, data.len() - 1] {
            let query = data.point(PointId::from_index(qi)).clone();
            let neighborhood = exact.neighborhood(&query);
            for _ in 0..5 {
                if let Some(id) = nns.sample(&query, &mut rng) {
                    prop_assert!(neighborhood.contains(&id));
                }
                if let Some(id) = nnis.sample(&query, &mut rng) {
                    prop_assert!(neighborhood.contains(&id));
                }
            }
            // The query point itself is always in its own neighbourhood, so
            // a sampler must never answer ⊥ for it (self-similarity is 1).
            prop_assert!(nnis.sample(&query, &mut rng).is_some());
        }
    }

    #[test]
    fn without_replacement_is_a_subset_of_the_neighborhood_without_duplicates(
        data in arb_dataset(),
        seed in 0u64..500,
        k in 1usize..12,
    ) {
        let r = 0.3;
        let near = SimilarityAtLeast::new(Jaccard, r);
        let params = ParamsBuilder::new(data.len(), r, 0.05)
            .with_recall(0.9)
            .empirical(&OneBitMinHash);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nns = FairNns::build(&OneBitMinHash, params, &data, near, &mut rng);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(0)).clone();
        let neighborhood = exact.neighborhood(&query);
        let sample = nns.sample_without_replacement(&query, k);
        prop_assert!(sample.len() <= k.min(neighborhood.len()));
        let distinct: std::collections::HashSet<_> = sample.iter().collect();
        prop_assert_eq!(distinct.len(), sample.len());
        for id in &sample {
            prop_assert!(neighborhood.contains(id));
        }
    }
}
