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

    // ---- CSR storage: a lookup goes through the radix directory ----

    #[test]
    fn lookups_match_a_reference_map_before_and_after_a_round_trip(
        random in proptest::collection::vec(0u64..=u64::MAX, 0..64),
        clumped in proptest::collection::vec(0u64..1024, 0..64),
        probes in proptest::collection::vec(0u64..=u64::MAX, 0..8),
    ) {
        // Random keys spread over the directory's cells. Small keys and
        // `k << 8` runs share all their top bits, so they land in one cell.
        let runs: Vec<u64> = clumped.iter().map(|&k| k << 8).collect();
        for keys in [&random, &clumped, &runs] {
            check_lookups(keys, &probes);
        }
    }

    // ---- CSR storage: the one update kernel is canonical ----

    #[test]
    fn merged_table_matches_from_buckets_and_encodes_canonically(
        base in proptest::collection::vec((0u64..32, 0u32..1000), 0..80),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..48, 0u32..1000), 0..12),
            1..5,
        ),
        tail in proptest::collection::vec((0u64..48, 0u32..1000), 0..40),
    ) {
        use fairnn_lsh::FrozenTable;
        use std::collections::BTreeMap;
        // No remap: every entry is kept as it is.
        const IDENTITY: Option<fn(&PointId) -> Option<PointId>> = None;
        // Reference: bucket contents as plain vectors, concatenated in
        // append order.
        let mut reference: BTreeMap<u64, Vec<PointId>> = BTreeMap::new();
        for &(key, id) in &base {
            reference.entry(key).or_default().push(PointId(id));
        }
        let mut table = FrozenTable::from_buckets(reference.clone());
        for batch in &batches {
            let mut appends: Vec<(u64, PointId)> =
                batch.iter().map(|&(key, id)| (key, PointId(id))).collect();
            // Stable: equal keys keep their batch order.
            appends.sort_by_key(|&(key, _)| key);
            for &(key, id) in &appends {
                reference.entry(key).or_default().push(id);
            }
            table = table.updated(IDENTITY, &appends);
            let rebuilt = FrozenTable::from_buckets(reference.clone());
            // Bucket for bucket, then every array including the directory.
            let got: Vec<(u64, Vec<PointId>)> =
                table.buckets().map(|(k, b)| (k, b.to_vec())).collect();
            let want: Vec<(u64, Vec<PointId>)> = reference.clone().into_iter().collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(&table, &rebuilt);
            prop_assert_eq!(encode(&table), encode(&rebuilt));
        }
        // Compaction: drop odd ids, halve the rest (a monotone remap).
        // `remap(parity, shift)` keeps the ids of that parity, halved and
        // shifted.
        let remap = |parity: u32, shift: u32| {
            move |id: &PointId| (id.0 % 2 == parity).then_some(PointId(id.0 / 2 + shift))
        };
        let mapped = |buckets: &BTreeMap<u64, Vec<PointId>>, parity: u32, shift: u32| {
            let mut map = remap(parity, shift);
            buckets
                .iter()
                .map(|(&key, ids)| (key, ids.iter().filter_map(&mut map).collect::<Vec<_>>()))
                .collect::<BTreeMap<u64, Vec<PointId>>>()
        };
        let non_empty = |buckets: BTreeMap<u64, Vec<PointId>>| {
            buckets.into_iter().filter(|(_, ids)| !ids.is_empty())
        };
        let compacted = table.updated(Some(remap(0, 0)), &[]);
        let rebuilt = FrozenTable::from_buckets(non_empty(mapped(&reference, 0, 0)));
        prop_assert_eq!(encode(&compacted), encode(&rebuilt));
        prop_assert_eq!(compacted, rebuilt);

        // Two-table merge: under each key the head's mapped entries, then
        // the tail table's (odd ids, shifted past every head id) as
        // appends, emptied buckets dropped.
        let mut tail_reference: BTreeMap<u64, Vec<PointId>> = BTreeMap::new();
        for &(key, id) in &tail {
            tail_reference.entry(key).or_default().push(PointId(id));
        }
        let tail_table = FrozenTable::from_buckets(tail_reference.clone());
        let tail_map = remap(1, 1000);
        let tail_appends: Vec<(u64, PointId)> = tail_table
            .buckets()
            .flat_map(|(key, ids)| ids.iter().filter_map(tail_map).map(move |id| (key, id)))
            .collect();
        let merged = table.updated(Some(remap(0, 0)), &tail_appends);
        let mut concatenated = mapped(&reference, 0, 0);
        for (key, ids) in mapped(&tail_reference, 1, 1000) {
            concatenated.entry(key).or_default().extend(ids);
        }
        let rebuilt = FrozenTable::from_buckets(non_empty(concatenated));
        prop_assert_eq!(encode(&merged), encode(&rebuilt));
        prop_assert_eq!(merged, rebuilt);

        // One call that drops and renames head entries (odd ids kept) and
        // appends a raw sorted batch: keys the head lacks, keys whose head
        // bucket the remap empties, and keys it keeps entries under.
        let mut appends: Vec<(u64, PointId)> =
            tail.iter().map(|&(key, id)| (key, PointId(id + 2000))).collect();
        appends.sort_by_key(|&(key, _)| key);
        let updated = table.updated(Some(remap(1, 0)), &appends);
        let mut expected = mapped(&reference, 1, 0);
        for &(key, id) in &appends {
            expected.entry(key).or_default().push(id);
        }
        let rebuilt = FrozenTable::from_buckets(non_empty(expected));
        prop_assert_eq!(encode(&updated), encode(&rebuilt));
        prop_assert_eq!(updated, rebuilt);

        // Remaps that empty chosen buckets: every id of `dropped` goes away
        // and the rest are renamed, in one call with `appends`.
        let check = |dropped: &[PointId], appends: &[(u64, PointId)]| {
            let remap = |id: &PointId| (!dropped.contains(id)).then_some(PointId(id.0 + 1));
            let updated = table.updated(Some(remap), appends);
            let mut expected: BTreeMap<u64, Vec<PointId>> = reference
                .iter()
                .map(|(&key, ids)| (key, ids.iter().filter_map(remap).collect()))
                .collect();
            for &(key, id) in appends {
                expected.entry(key).or_default().push(id);
            }
            let rebuilt = FrozenTable::from_buckets(non_empty(expected));
            prop_assert_eq!(encode(&updated), encode(&rebuilt));
            prop_assert_eq!(updated, rebuilt);
        };
        let buckets: Vec<(u64, Vec<PointId>)> = reference.clone().into_iter().collect();
        let every: Vec<PointId> = buckets.iter().flat_map(|(_, ids)| ids.clone()).collect();
        // Everything dropped, with and without appends.
        check(&every, &[]);
        check(&every, &[(7, PointId(3000)), (40, PointId(3001))]);
        if let (Some((first, first_ids)), Some((last, last_ids))) =
            (buckets.first(), buckets.last())
        {
            let (first, last) = (*first, *last);
            // The first bucket emptied, then the last, each with and
            // without an append elsewhere.
            check(first_ids, &[]);
            check(first_ids, &[(last, PointId(3000))]);
            check(last_ids, &[]);
            check(last_ids, &[(first, PointId(3000))]);
            // Every bucket strictly between two appended keys emptied.
            let middle: Vec<PointId> = buckets[1..buckets.len().saturating_sub(1).max(1)]
                .iter()
                .flat_map(|(_, ids)| ids.clone())
                .collect();
            check(&middle, &[(first, PointId(3000)), (last, PointId(3001))]);
            // An emptied key refilled by an append in the same call: the
            // first, the last and a middle one.
            check(first_ids, &[(first, PointId(3000))]);
            check(last_ids, &[(last, PointId(3000)), (last, PointId(3001))]);
            let (key, ids) = &buckets[buckets.len() / 2];
            check(ids, &[(first, PointId(3000)), (*key, PointId(3001)), (last + 1, PointId(3002))]);
        }
    }

    #[test]
    fn appended_and_compacted_tables_equal_fresh_builds(
        sets in proptest::collection::vec(arb_set(), 2..30),
        split in 0usize..30,
        staged in 0usize..30,
        dead in proptest::collection::vec(0u8..2, 30),
        seed in 0u64..500,
    ) {
        use fairnn_lsh::{HasherBank, LshTables};
        // Tables appended in two steps equal the tables built in one, and
        // compacting them equals building over the survivors.
        let params = LshParams::explicit(2, 5, 0.5, 0.1);
        let bank = HasherBank::sample(&OneBitMinHash, params, &mut StdRng::seed_from_u64(seed));
        let l = bank.num_tables();
        let split = split.min(sets.len());
        let keys = bank.all_point_keys(&sets);
        let head = LshTables::build(&keys[..split * l], l, split);
        let appended = head.updated(
            None,
            |t, out| out.extend(LshTables::point_entries(&keys[split * l..], l, t, (split..).map(PointId::from_index))),
            sets.len(),
        );
        let built = LshTables::build(&keys, l, sets.len());
        prop_assert_eq!(encode(&appended), encode(&built));

        let mut new_id_of = vec![u32::MAX; sets.len()];
        let mut survivors = Vec::new();
        for (i, set) in sets.iter().enumerate() {
            if dead[i] == 0 {
                new_id_of[i] = survivors.len() as u32;
                survivors.push(set.clone());
            }
        }
        let compacted = appended.updated(Some(&new_id_of), |_, _| {}, survivors.len());
        let rebuilt = LshTables::build(&bank.all_point_keys(&survivors), l, survivors.len());
        prop_assert_eq!(encode(&compacted), encode(&rebuilt));
        // A fold: head and tail built apart, each over its own dense ids,
        // then folded in one pass. The tail's tables cover its points up
        // to `cover`; the points past it are staged, given by their keys.
        let fold = |cover: usize| {
            let tail = LshTables::build(&keys[split * l..cover * l], l, cover - split);
            let tail_ids = &new_id_of[split..cover];
            let staged: Vec<usize> =
                (cover..sets.len()).filter(|&i| new_id_of[i] != u32::MAX).collect();
            let staged_keys: Vec<u64> =
                staged.iter().flat_map(|&i| keys[i * l..(i + 1) * l].iter().copied()).collect();
            let staged_ids = || staged.iter().map(|&i| PointId(new_id_of[i]));
            head.updated(
                Some(&new_id_of[..split]),
                |t, out| {
                    for (key, ids) in tail.table(t).buckets() {
                        let live = ids.iter().map(|id| tail_ids[id.index()]);
                        out.extend(live.filter(|&id| id != u32::MAX).map(|id| (key, PointId(id))));
                    }
                    out.extend(LshTables::point_entries(&staged_keys, l, t, staged_ids()));
                },
                survivors.len(),
            )
        };
        let folded = fold(sets.len());
        prop_assert_eq!(encode(&folded), encode(&rebuilt));
        let folded_with_staged = fold(sets.len() - staged.min(sets.len() - split));
        prop_assert_eq!(encode(&folded_with_staged), encode(&rebuilt));
        let mut query_keys = Vec::new();
        for s in &survivors {
            bank.query_keys_into(s, &mut query_keys);
            for (t, &key) in query_keys.iter().enumerate() {
                prop_assert_eq!(compacted.table(t).bucket(key), rebuilt.table(t).bucket(key));
            }
        }
    }
}

#[test]
fn lookups_match_a_reference_map_on_tiny_and_clumped_tables() {
    // The empty and one-key tables index no key bits (one cell), which
    // must not become a shift by 64; the unit tests' keys share a cell.
    let probes = [0, 1, 2, 9, 400, 1 << 63, u64::MAX];
    for keys in [&[][..], &[0], &[u64::MAX], &[1 << 63], &[2, 9, 400]] {
        check_lookups(keys, &probes);
    }
}

/// Checks `find`, `bucket` and `entry_range` of the table
/// [`FrozenTable::from_buckets`] builds over `keys` against a `BTreeMap`
/// reference, for each key, its neighbours and `probes`, both on the table
/// and on its encode/decode round trip.
///
/// [`FrozenTable::from_buckets`]: fairnn_lsh::FrozenTable::from_buckets
fn check_lookups(keys: &[u64], probes: &[u64]) {
    use fairnn_lsh::FrozenTable;
    use fairnn_snapshot::{Codec, Decoder};
    use std::collections::BTreeMap;
    let reference: BTreeMap<u64, Vec<PointId>> = (0u32..)
        .zip(keys)
        .map(|(i, &key)| (key, vec![PointId(i); i as usize % 3 + 1]))
        .collect();
    let table = FrozenTable::from_buckets(reference.clone());
    let decoded =
        FrozenTable::<PointId>::decode(&mut Decoder::new(&encode(&table))).expect("decodes");
    assert_eq!(decoded, table);
    let lookups: Vec<u64> = keys
        .iter()
        .flat_map(|&key| [key.wrapping_sub(1), key, key.wrapping_add(1)])
        .chain(probes.iter().copied())
        .collect();
    for table in [&table, &decoded] {
        for &key in &lookups {
            let want = reference.get(&key).map_or(&[][..], Vec::as_slice);
            let position = reference.range(..key).count();
            let found = reference.contains_key(&key).then_some(position);
            assert_eq!(table.find(key), found, "find({key:#x})");
            assert_eq!(table.bucket(key), want, "bucket({key:#x})");
            let (start, end) = table.entry_range(key);
            let range = &table.entries()[start as usize..end as usize];
            assert_eq!(range, want, "entry_range({key:#x})");
        }
    }
}

/// The canonical wire bytes of a value.
fn encode<T: fairnn_snapshot::Codec>(value: &T) -> Vec<u8> {
    let mut enc = fairnn_snapshot::Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}
