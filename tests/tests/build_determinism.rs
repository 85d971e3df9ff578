//! Parallel build ≡ serial build, bit for bit.
//!
//! The build path — LSH hashing, per-table CSR freezes, rank-table sorts,
//! bucket sketches, engine index construction and snapshot encode/decode — runs on
//! the `fairnn-parallel` build workers. The contract is the one the batch
//! executor holds for queries: **output is a pure function of the
//! inputs, identical at every thread count**. This suite pins it end to end:
//!
//! * the canonical snapshot image (`to_bytes`) of every structure built at
//!   1, 2 and 8 build threads is byte-identical — which covers bucket
//!   *contents and order*, since the encoding is canonical and order-
//!   preserving;
//! * query/sample sequences drawn with identical RNG streams agree;
//! * property test: random datasets, same guarantee for the bare index.
//!
//! The thread knob is process-global, so the sweeping tests serialize on a
//! lock — not for correctness (any interleaving still passes, that is the
//! point of determinism) but so each sweep genuinely exercises the thread
//! counts it names.

use fairnn_core::{FairNnis, NeighborSampler, SimilarityAtLeast};
use fairnn_engine::{EngineWriter, QueryRequest, ShardedIndex, ShardedIndexConfig, WriteBatch};
use fairnn_integration_tests::{golden_dataset, golden_params as params};
use fairnn_lsh::{ConcatenatedHasher, LshIndex, MinHash, MinHasher};
use fairnn_snapshot::{from_bytes, to_bytes, SnapshotKind};
use fairnn_space::{Dataset, Jaccard, PointId, SparseSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

type Hasher = ConcatenatedHasher<MinHasher>;
type Near = SimilarityAtLeast<Jaccard>;
type SetNnis = FairNnis<SparseSet, Hasher, Near>;
type SetSharded = ShardedIndex<SparseSet, Hasher, Near>;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

static KNOB: Mutex<()> = Mutex::new(());

/// Runs `build` once per thread count and returns the results in order
/// (1, 2, 8), restoring the auto setting afterwards.
fn sweep<T>(mut build: impl FnMut() -> T) -> Vec<T> {
    let _guard = KNOB.lock().unwrap();
    let out = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            fairnn_parallel::set_build_threads(threads);
            build()
        })
        .collect();
    fairnn_parallel::set_build_threads(0);
    out
}

fn near() -> Near {
    SimilarityAtLeast::new(Jaccard, 0.5)
}

#[test]
fn lsh_index_builds_identically_at_every_thread_count() {
    let data = golden_dataset();
    let indexes = sweep(|| {
        let mut rng = StdRng::seed_from_u64(41);
        LshIndex::build(&MinHash, params(data.len()), data.points(), &mut rng)
    });
    let Ok([serial, two, eight]) = <[_; 3]>::try_from(indexes) else {
        panic!("three builds expected");
    };
    let reference = to_bytes(SnapshotKind::LshIndex, &serial);
    assert_eq!(to_bytes(SnapshotKind::LshIndex, &two), reference);
    assert_eq!(to_bytes(SnapshotKind::LshIndex, &eight), reference);
    // Spot-check the contract behind the byte equality: bucket contents AND
    // per-bucket order, table by table.
    for (a, b) in serial.tables().iter().zip(eight.tables()) {
        let left: Vec<(u64, Vec<PointId>)> = a.buckets().map(|(k, v)| (k, v.to_vec())).collect();
        let right: Vec<(u64, Vec<PointId>)> = b.buckets().map(|(k, v)| (k, v.to_vec())).collect();
        assert_eq!(left, right);
    }
    for qi in 0..5u32 {
        let query = data.point(PointId(qi)).clone();
        assert_eq!(serial.colliding_ids(&query), eight.colliding_ids(&query));
    }
}

#[test]
fn lsh_rebuild_is_thread_count_independent() {
    let data = golden_dataset();
    let images = sweep(|| {
        let mut rng = StdRng::seed_from_u64(43);
        let mut index = LshIndex::build(&MinHash, params(data.len()), data.points(), &mut rng);
        index.rebuild(&data.points()[..20]);
        to_bytes(SnapshotKind::LshIndex, &index)
    });
    assert!(images.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn fair_nnis_builds_identically_at_every_thread_count() {
    let data = golden_dataset();
    let samplers: Vec<SetNnis> = sweep(|| {
        let mut rng = StdRng::seed_from_u64(2);
        FairNnis::build(&MinHash, params(data.len()), &data, near(), &mut rng)
    });
    let images: Vec<Vec<u8>> = samplers
        .iter()
        .map(|s| to_bytes(SnapshotKind::FairNnis, s))
        .collect();
    assert!(images.windows(2).all(|w| w[0] == w[1]));
    // Sample sequences stay in lockstep too.
    let query = data.point(PointId(0)).clone();
    let sequences: Vec<Vec<Option<PointId>>> = samplers
        .into_iter()
        .map(|mut s| {
            let mut rng = StdRng::seed_from_u64(99);
            (0..20).map(|_| s.sample(&query, &mut rng)).collect()
        })
        .collect();
    assert!(sequences.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn sharded_index_builds_identically_at_every_thread_count() {
    let data = golden_dataset();
    let indexes: Vec<SetSharded> = sweep(|| {
        ShardedIndex::build(
            &MinHash,
            params(data.len()),
            &data,
            near(),
            ShardedIndexConfig::default().seeded(17),
        )
    });
    let images: Vec<Vec<u8>> = indexes
        .iter()
        .map(|s| to_bytes(SnapshotKind::ShardedIndex, s))
        .collect();
    assert!(images.windows(2).all(|w| w[0] == w[1]));
    let query = data.point(PointId(0)).clone();
    let sequences: Vec<Vec<Option<PointId>>> = indexes
        .iter()
        .map(|index| {
            let mut rng = StdRng::seed_from_u64(11);
            (0..20).map(|_| index.sample(&query, &mut rng).0).collect()
        })
        .collect();
    assert!(sequences.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn query_engine_builds_and_answers_identically_at_every_thread_count() {
    // The served engine: an `EngineWriter` bootstrapped at each thread count
    // publishes the same generation, and batches answered through a reader's
    // `EpochPin` agree bit for bit, over two batch numbers.
    let data = golden_dataset();
    let batch: Vec<SparseSet> = (0..10u32).map(|i| data.point(PointId(i)).clone()).collect();
    let mut round = 0u32;
    let served = sweep(|| {
        round += 1;
        let dir = std::env::temp_dir().join(format!(
            "fairnn-engine-sweep-{round}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer: EngineWriter<SparseSet, Hasher, Near> = EngineWriter::bootstrap(
            &MinHash,
            params(data.len()),
            &data,
            near(),
            ShardedIndexConfig::default().seeded(23),
            &dir,
        )
        .expect("bootstrap");
        let image = to_bytes(SnapshotKind::ShardedIndex, writer.staging());
        let pin = writer.reader().pin();
        let answers: Vec<_> = (0..2u64)
            .map(|b| pin.run_batch(&QueryRequest::new(batch.clone()).with_batch(b)))
            .collect();
        drop(pin);
        drop(writer);
        let _ = std::fs::remove_dir_all(dir);
        (image, answers)
    });
    assert!(served.windows(2).all(|w| w[0].0 == w[1].0));
    assert!(served.windows(2).all(|w| w[0].1 == w[1].1));
}

#[test]
fn snapshot_encode_and_decode_are_thread_count_independent() {
    // The sectioned container encodes, checksums and decodes per-part /
    // per-table payloads on the build workers; the emitted bytes and the
    // restored structure must not depend on the worker count.
    let data = golden_dataset();
    let index: SetSharded = ShardedIndex::build(
        &MinHash,
        params(data.len()),
        &data,
        near(),
        ShardedIndexConfig::default().seeded(17),
    );
    let images = sweep(|| to_bytes(SnapshotKind::ShardedIndex, &index));
    assert!(images.windows(2).all(|w| w[0] == w[1]));
    let restored = sweep(|| {
        let loaded: SetSharded = from_bytes(SnapshotKind::ShardedIndex, &images[0]).expect("load");
        to_bytes(SnapshotKind::ShardedIndex, &loaded)
    });
    for image in restored {
        assert_eq!(
            image, images[0],
            "decode must be lossless at every thread count"
        );
    }
}

#[test]
fn compaction_stays_in_lockstep_across_thread_counts() {
    // Delete enough points to trigger the base's compaction (the no-rehash
    // `LshTables::updated` path) under each thread count; the surviving structure
    // and its answers must agree bit for bit. Mutations go through the
    // generational writer, so this also pins the WAL-logged commit path.
    let data = golden_dataset();
    let mut round = 0u32;
    let images = sweep(|| {
        round += 1;
        let dir = std::env::temp_dir().join(format!(
            "fairnn-compaction-sweep-{round}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer: EngineWriter<SparseSet, Hasher, Near> = EngineWriter::bootstrap(
            &MinHash,
            params(data.len()),
            &data,
            near(),
            ShardedIndexConfig::default().seeded(17),
            &dir,
        )
        .expect("bootstrap");
        let mut batch = WriteBatch::new();
        for id in 0..8u32 {
            batch = batch.delete(PointId(id));
        }
        writer.commit(batch.compact()).expect("commit");
        let image = to_bytes(SnapshotKind::ShardedIndex, writer.staging());
        let _ = std::fs::remove_dir_all(dir);
        image
    });
    assert!(images.windows(2).all(|w| w[0] == w[1]));
}

/// Strategy: small random set-datasets (each set distinct enough to hash).
fn arb_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..400, 3..20), 2..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_datasets_build_identically_at_1_2_8_threads(
        raw in arb_sets(),
        seed in 0u64..1000,
    ) {
        let sets: Vec<SparseSet> = raw
            .into_iter()
            .map(SparseSet::from_items)
            .collect();
        let data = Dataset::new(sets);
        let p = fairnn_integration_tests::test_params(data.len(), 0.5);
        let images = sweep(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let index = LshIndex::build(&MinHash, p, data.points(), &mut rng);
            to_bytes(SnapshotKind::LshIndex, &index)
        });
        prop_assert!(images.windows(2).all(|w| w[0] == w[1]));
    }
}
