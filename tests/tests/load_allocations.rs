//! The zero-copy acceptance criterion: a warm load of the engine
//! [`Checkpoint`] — the image `EngineWriter::open` reads on restart —
//! through [`SnapshotImage`] performs **O(1) large allocations** — the number of
//! ≥ 64 KiB allocations must not grow with the dataset, because every
//! fixed-width column borrows the one verified image buffer instead of
//! being copied out per section.
//!
//! This test lives in its own integration binary because it installs the
//! [`CountingAlloc`] global allocator (one per binary).

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{Checkpoint, QueryRequest, ShardedIndex, ShardedIndexConfig};
use fairnn_integration_tests::test_dataset;
use fairnn_lsh::{ConcatenatedHasher, OneBitMinHash, OneBitMinHasher};
use fairnn_snapshot::{CountingAlloc, SnapshotImage, SnapshotKind};
use fairnn_space::{Dataset, Jaccard, SparseSet};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

type SetCheckpoint =
    Checkpoint<SparseSet, ConcatenatedHasher<OneBitMinHasher>, SimilarityAtLeast<Jaccard>>;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fairnn-load-allocs-{}-{name}.snap",
        std::process::id()
    ))
}

/// Builds a checkpoint over `data`, saves it, and counts the large
/// allocations of the image-open + decode path. Returns the count and the
/// snapshot size so callers can confirm the workload actually scaled.
fn large_allocs_for_load(data: &Dataset<SparseSet>, name: &str) -> (u64, u64) {
    let near = SimilarityAtLeast::new(Jaccard, 0.3);
    let params = fairnn_lsh::ParamsBuilder::new(data.len(), 0.3, 0.05)
        .with_recall(0.9)
        .empirical(&OneBitMinHash);
    let checkpoint: SetCheckpoint = Checkpoint {
        seq: 0,
        index: ShardedIndex::build(
            &OneBitMinHash,
            params,
            data,
            near,
            ShardedIndexConfig::default().seeded(7),
        ),
    };

    let path = temp_path(name);
    fairnn_snapshot::save(SnapshotKind::Checkpoint, &checkpoint, &path)
        .expect("save checkpoint snapshot");
    let snapshot_bytes = std::fs::metadata(&path).expect("stat snapshot").len();

    CountingAlloc::reset();
    let image = SnapshotImage::open(&path).expect("open snapshot image");
    let loaded: SetCheckpoint = image.decode(SnapshotKind::Checkpoint).expect("decode");
    let count = CountingAlloc::large_allocs();
    let _ = std::fs::remove_file(&path);

    // The loaded index must actually serve (the count would be
    // meaningless for a lazily-decoded husk).
    let request = QueryRequest::new(data.points().iter().take(8).cloned().collect());
    assert_eq!(
        checkpoint.index.run_batch(&request),
        loaded.index.run_batch(&request)
    );
    (count, snapshot_bytes)
}

#[test]
fn image_load_performs_constant_large_allocations() {
    let small = test_dataset(11);
    let mut sets: Vec<SparseSet> = small.points().to_vec();
    for seed in 12..18u64 {
        sets.extend(test_dataset(seed).points().iter().cloned());
    }
    let big = Dataset::new(sets);

    let (small_count, small_bytes) = large_allocs_for_load(&small, "small");
    let (big_count, big_bytes) = large_allocs_for_load(&big, "big");

    assert!(
        big_bytes > small_bytes * 3,
        "the big snapshot ({big_bytes} B) must dwarf the small one ({small_bytes} B) \
         for the O(1) claim to be tested"
    );
    // O(1): the count must not grow with the dataset. (A per-section or
    // per-element copy path scales with points and blows well past this.)
    assert_eq!(
        big_count, small_count,
        "large allocations grew with the dataset: {small_count} → {big_count}"
    );
    // And the constant is small: the image buffer plus O(1) bookkeeping.
    assert!(
        small_count <= 4,
        "expected a handful of large allocations per load, got {small_count}"
    );
}
