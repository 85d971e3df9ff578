//! The index hashes each query exactly once, whether or not its delta
//! holds points: the base and the delta are keyed by the same hasher bank,
//! so one `lsh_hash_bank_ns` observation per `prepare`, `sample` and
//! `neighborhood` call. One test in its own binary, so no concurrently
//! running test records into the process-global registry.

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{EngineWriter, ShardedIndex, ShardedIndexConfig, WriteBatch};
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
    let built: Index = ShardedIndex::build(
        &MinHash,
        golden_params(data.len()),
        &data,
        SimilarityAtLeast::new(Jaccard, 0.5),
        ShardedIndexConfig::default().seeded(11),
    );
    // The same points with two near twins of the cluster in the delta.
    let dir = std::env::temp_dir().join(format!("fairnn-hash-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = EngineWriter::bootstrap(
        &MinHash,
        golden_params(data.len()),
        &data,
        SimilarityAtLeast::new(Jaccard, 0.5),
        ShardedIndexConfig::default().seeded(11),
        &dir,
    )
    .expect("bootstrap");
    let twin = |extra: u32| {
        let mut items = data.point(PointId(0)).items().to_vec();
        items.push(extra);
        SparseSet::from_items(items)
    };
    writer
        .commit(WriteBatch::new().insert(twin(9_000)).insert(twin(9_001)))
        .expect("insert commit");
    let split: Index = writer.staging().clone();
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(split.delta().live_points(), 2);
    for (layout, index) in [("empty delta", built), ("two points in the delta", split)] {
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
                "prepare + 3 draws, query {qi}, {layout}"
            );

            let before = hashes.count();
            index.sample(&query, &mut rng);
            assert_eq!(hashes.count() - before, 1, "sample, query {qi}, {layout}");

            let before = hashes.count();
            index.neighborhood(&query);
            assert_eq!(
                hashes.count() - before,
                1,
                "neighborhood, query {qi}, {layout}"
            );
        }
    }
}
