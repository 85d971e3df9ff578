//! `engine_fold_ns` observes every fold of the delta into the base: the one
//! a `Compact` commit runs and the one the write-ahead-log replay runs
//! again on reopen. A commit that only inserts folds nothing and records
//! nothing.
//!
//! This binary holds one test on purpose: the metrics are process-global,
//! and no other engine may fold while it reads them.

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{EngineWriter, ShardedIndexConfig, WriteBatch};
use fairnn_integration_tests::{golden_dataset, golden_params};
use fairnn_lsh::{ConcatenatedHasher, MinHash, MinHasher};
use fairnn_space::{Jaccard, PointId, SparseSet};

type Near = SimilarityAtLeast<Jaccard>;
type SetWriter = EngineWriter<SparseSet, ConcatenatedHasher<MinHasher>, Near>;

/// Observations of the global fold histogram (0 while it is unregistered).
fn folds() -> i64 {
    fairnn_obs::global()
        .snapshot()
        .into_iter()
        .find(|m| m.name == "engine_fold_ns")
        .map_or(0, |m| m.value)
}

#[test]
fn every_fold_records_one_observation_and_nothing_else_records_any() {
    fairnn_obs::set_enabled(true);
    let data = golden_dataset();
    let dir = std::env::temp_dir().join(format!("fairnn-fold-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer: SetWriter = EngineWriter::bootstrap(
        &MinHash,
        golden_params(data.len()),
        &data,
        SimilarityAtLeast::new(Jaccard, 0.5),
        ShardedIndexConfig::default().seeded(31),
        &dir,
    )
    .expect("bootstrap");
    let start = folds();

    writer
        .commit(WriteBatch::new().insert(SparseSet::from_items(vec![1u32, 2, 3, 500])))
        .expect("insert commit");
    let after_insert = folds();
    assert_eq!(
        writer.staging().delta().live_points(),
        1,
        "the insert stays in the delta"
    );

    // A tombstone in the base, then the fold: its tables are remapped.
    writer
        .commit(WriteBatch::new().delete(PointId(3)).compact())
        .expect("compact commit");
    let after_compact = folds();
    assert_eq!(
        writer.staging().delta().live_points(),
        0,
        "the delta folded"
    );
    assert_eq!(writer.staging().base().tombstones(), 0);
    drop(writer);

    // The reopen replays both commits, and with them the fold.
    let reopened = SetWriter::open(&dir).expect("reopen");
    let after_reopen = folds();
    assert_eq!(reopened.staging().len(), data.len());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(after_insert, start, "an insert-only commit does not fold");
    assert_eq!(after_compact, start + 1, "a Compact commit folds once");
    assert_eq!(after_reopen, start + 2, "the replay folds once more");
}
