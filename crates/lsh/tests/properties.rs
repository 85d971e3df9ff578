//! Property-based tests for the LSH substrate.

use fairnn_lsh::{
    CollisionModel, ConcatenatedFamily, ConcatenatedHasher, LshFamily, LshHasher, LshIndex,
    LshParams, MinHash, MinHasher, OneBitMinHash, PStableLsh, ParamsBuilder, SimHash,
};
use fairnn_space::{DenseVector, PointId, SparseSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_set() -> impl Strategy<Value = SparseSet> {
    proptest::collection::vec(0u32..500, 1..40).prop_map(SparseSet::from_items)
}

fn arb_vector() -> impl Strategy<Value = DenseVector> {
    proptest::collection::vec(-5.0f64..5.0, 8).prop_map(DenseVector::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minhash_is_deterministic_per_seed(set in arb_set(), seed in 0u64..10_000) {
        let h1 = MinHasher::from_seed(seed);
        let h2 = MinHasher::from_seed(seed);
        prop_assert_eq!(h1.hash(&set), h2.hash(&set));
    }

    #[test]
    fn identical_points_always_collide_under_any_family(set in arb_set(), seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mh = MinHash.sample(&mut rng);
        prop_assert_eq!(mh.hash(&set), mh.hash(&set));
        let ob = OneBitMinHash.sample(&mut rng);
        prop_assert_eq!(ob.hash(&set), ob.hash(&set));
    }

    #[test]
    fn one_bit_minhash_outputs_single_bits(set in arb_set(), seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = OneBitMinHash.sample(&mut rng);
        prop_assert!(h.hash(&set) <= 1);
    }

    #[test]
    fn collision_models_are_monotone(s1 in 0.0f64..1.0, s2 in 0.0f64..1.0) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(MinHash.collision_probability(lo) <= MinHash.collision_probability(hi) + 1e-12);
        prop_assert!(OneBitMinHash.collision_probability(lo) <= OneBitMinHash.collision_probability(hi) + 1e-12);
        // SimHash is monotone in the inner-product similarity as well.
        let sim = SimHash::new(8);
        prop_assert!(sim.collision_probability(lo) <= sim.collision_probability(hi) + 1e-12);
    }

    #[test]
    fn pstable_collision_probability_is_antitone_in_distance(d1 in 0.01f64..20.0, d2 in 0.01f64..20.0) {
        let family = PStableLsh::new(8, 4.0);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(family.collision_probability(lo) >= family.collision_probability(hi) - 1e-12);
    }

    #[test]
    fn concatenation_collision_probability_is_base_to_the_k(s in 0.0f64..1.0, k in 1usize..12) {
        let fam = ConcatenatedFamily::new(OneBitMinHash, k);
        let expected = OneBitMinHash.collision_probability(s).powi(k as i32);
        prop_assert!((fam.collision_probability(s) - expected).abs() < 1e-12);
    }

    #[test]
    fn empirical_params_always_meet_recall(n in 50usize..5000, r in 0.15f64..0.6) {
        let params = ParamsBuilder::new(n, r, 0.1).empirical(&OneBitMinHash);
        prop_assert!(params.retrieval_probability(&OneBitMinHash, r) >= 0.99 - 1e-9);
        prop_assert!(params.k >= 1 && params.l >= 1);
    }

    #[test]
    fn index_stores_every_point_once_per_table(
        sets in proptest::collection::vec(arb_set(), 2..30),
        seed in 0u64..500,
        k in 1usize..4,
        l in 1usize..6,
    ) {
        let params = LshParams::explicit(k, l, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let index = LshIndex::build(&MinHash, params, &sets, &mut rng);
        prop_assert_eq!(index.num_tables(), l);
        prop_assert_eq!(index.total_entries(), sets.len() * l);
        // Self-collision: every point must find itself.
        for (i, s) in sets.iter().enumerate() {
            prop_assert!(index.colliding_ids(s).contains(&PointId::from_index(i)));
        }
    }

    #[test]
    fn colliding_ids_are_unique_and_in_range(
        sets in proptest::collection::vec(arb_set(), 2..30),
        seed in 0u64..500,
    ) {
        let params = LshParams::explicit(2, 5, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let index = LshIndex::build(&OneBitMinHash, params, &sets, &mut rng);
        let ids = index.colliding_ids(&sets[0]);
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        prop_assert_eq!(unique.len(), ids.len());
        for id in ids {
            prop_assert!(id.index() < sets.len());
        }
    }

    #[test]
    fn simhash_collides_identically_scaled_vectors(v in arb_vector(), scale in 0.1f64..10.0, seed in 0u64..1000) {
        prop_assume!(v.norm() > 1e-6);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = SimHash::new(8).sample(&mut rng);
        let scaled = DenseVector::new(v.values().iter().map(|x| x * scale).collect());
        prop_assert_eq!(h.hash(&v), h.hash(&scaled));
    }

    #[test]
    fn concatenated_hasher_arity_matches(k in 1usize..10, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hasher: ConcatenatedHasher<_> = ConcatenatedFamily::new(MinHash, k).sample(&mut rng);
        prop_assert_eq!(hasher.arity(), k);
        prop_assert_eq!(hasher.rows().len(), k);
    }

    // ---- batched hashing: hash_all must be bit-identical to per-row hash ----

    #[test]
    fn minhash_hash_all_matches_per_row(set in arb_set(), seed in 0u64..1000, rows in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hashers = MinHash.sample_many(&mut rng, rows);
        let mut out = vec![0u64; rows];
        LshHasher::hash_all(&hashers, &set, &mut out);
        for (h, got) in hashers.iter().zip(&out) {
            prop_assert_eq!(h.hash(&set), *got);
        }
        let one_bit = OneBitMinHash.sample_many(&mut rng, rows);
        LshHasher::hash_all(&one_bit, &set, &mut out);
        for (h, got) in one_bit.iter().zip(&out) {
            prop_assert_eq!(h.hash(&set), *got);
        }
    }

    #[test]
    fn dense_hash_all_matches_per_row(v in arb_vector(), seed in 0u64..1000, rows in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = SimHash::new(8).sample_many(&mut rng, rows);
        let mut out = vec![0u64; rows];
        LshHasher::hash_all(&sim, &v, &mut out);
        for (h, got) in sim.iter().zip(&out) {
            prop_assert_eq!(h.hash(&v), *got);
        }
        let pstable = PStableLsh::new(8, 4.0).sample_many(&mut rng, rows);
        LshHasher::hash_all(&pstable, &v, &mut out);
        for (h, got) in pstable.iter().zip(&out) {
            prop_assert_eq!(h.hash(&v), *got);
        }
    }

    #[test]
    fn concatenated_hash_all_matches_per_table(
        set in arb_set(),
        seed in 0u64..1000,
        k in 1usize..6,
        l in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Shared-bank layout (the one LshIndex::build produces): the batched
        // path takes the single-pass fast path.
        let bank = ConcatenatedHasher::bank(MinHash.sample_many(&mut rng, k * l), k);
        let mut out = vec![0u64; l];
        LshHasher::hash_all(&bank, &set, &mut out);
        for (h, got) in bank.iter().zip(&out) {
            prop_assert_eq!(h.hash(&set), *got);
        }
        // Independently-built tables (no shared bank): the fallback path.
        let fam = ConcatenatedFamily::new(MinHash, k);
        let tables: Vec<ConcatenatedHasher<_>> = (0..l).map(|_| fam.sample(&mut rng)).collect();
        LshHasher::hash_all(&tables, &set, &mut out);
        for (h, got) in tables.iter().zip(&out) {
            prop_assert_eq!(h.hash(&set), *got);
        }
    }

    // ---- frozen CSR storage: bit-identical buckets, contents and order ----

    #[test]
    fn frozen_table_matches_staging_buckets(
        inserts in proptest::collection::vec((0u64..32, 0u32..100), 1..120),
    ) {
        use fairnn_lsh::LshTable;
        use std::collections::HashMap;
        // Reference: the plain staging form.
        let mut reference: HashMap<u64, Vec<PointId>> = HashMap::new();
        let mut table = LshTable::new();
        for &(key, id) in &inserts {
            reference.entry(key).or_default().push(PointId(id));
            table.insert(key, PointId(id));
        }
        prop_assert!(!table.is_frozen());
        table.freeze();
        prop_assert!(table.is_frozen());
        // Identical buckets: contents *and* order, plus identical accounting.
        for (key, bucket) in &reference {
            prop_assert_eq!(table.bucket(*key), bucket.as_slice());
        }
        prop_assert_eq!(table.num_buckets(), reference.len());
        prop_assert_eq!(
            table.num_entries(),
            reference.values().map(Vec::len).sum::<usize>()
        );
        prop_assert_eq!(
            table.max_bucket_size(),
            reference.values().map(Vec::len).max().unwrap_or(0)
        );
        // Thaw by mutating, then refreeze: still identical.
        table.insert(1000, PointId(7));
        prop_assert!(!table.is_frozen());
        prop_assert!(table.remove(1000, PointId(7)));
        table.freeze();
        for (key, bucket) in &reference {
            prop_assert_eq!(table.bucket(*key), bucket.as_slice());
        }
    }

    #[test]
    fn frozen_index_queries_match_staging_queries(
        sets in proptest::collection::vec(arb_set(), 2..30),
        seed in 0u64..500,
    ) {
        // The same index queried in frozen form (as built) and after thawing
        // every table via a no-op mutation must return identical results.
        let params = LshParams::explicit(2, 5, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let frozen = LshIndex::build(&OneBitMinHash, params, &sets, &mut rng);
        prop_assert!(frozen.is_frozen());
        let mut staged = frozen.clone();
        let probe = sets[0].clone();
        let (id, _) = staged.insert_point(&probe);
        staged.remove_point(&probe, id);
        prop_assert!(!staged.is_frozen());
        for s in &sets {
            prop_assert_eq!(frozen.colliding_ids(s), staged.colliding_ids(s));
            prop_assert_eq!(frozen.query_keys(s), staged.query_keys(s));
            prop_assert_eq!(frozen.collision_count(s), staged.collision_count(s));
        }
    }
}
