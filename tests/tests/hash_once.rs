//! The sharded index hashes each query exactly once, whatever its shard
//! count: every shard is keyed by the same hasher bank, so one
//! `lsh_hash_bank_ns` observation per `prepare`, `sample` and
//! `neighborhood` call. One test in its own binary, so no concurrently
//! running test records into the process-global registry.

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{ShardedIndex, ShardedIndexConfig};
use fairnn_integration_tests::{golden_dataset, golden_params};
use fairnn_lsh::{ConcatenatedHasher, MinHash, MinHasher};
use fairnn_space::{Jaccard, PointId, SparseSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Index = ShardedIndex<SparseSet, ConcatenatedHasher<MinHasher>, SimilarityAtLeast<Jaccard>>;

#[test]
fn every_query_entry_point_hashes_once_at_any_shard_count() {
    fairnn_obs::set_enabled(true);
    let hashes = fairnn_obs::global().histogram("lsh_hash_bank_ns", "");
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(3);
    for shards in [1, 2, 4] {
        let index: Index = ShardedIndex::build(
            &MinHash,
            golden_params(data.len()),
            &data,
            SimilarityAtLeast::new(Jaccard, 0.5),
            ShardedIndexConfig::with_shards(shards).seeded(11),
        );
        for qi in [0u32, 7, 19, 28] {
            let query = data.point(PointId(qi)).clone();

            let before = hashes.count();
            let mut prepared = index.prepare(&query);
            // Draws reuse the prepared keys: no further hashing.
            for _ in 0..3 {
                prepared.sample(&mut rng);
            }
            assert_eq!(
                hashes.count() - before,
                1,
                "prepare + 3 draws, query {qi}, {shards} shards"
            );

            let before = hashes.count();
            index.sample(&query, &mut rng);
            assert_eq!(
                hashes.count() - before,
                1,
                "sample, query {qi}, {shards} shards"
            );

            let before = hashes.count();
            index.neighborhood(&query);
            assert_eq!(
                hashes.count() - before,
                1,
                "neighborhood, query {qi}, {shards} shards"
            );
        }
    }
}
