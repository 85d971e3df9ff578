//! `save` streams a snapshot image into its file through the writer that
//! builds `to_bytes`, so the file holds exactly those bytes.
//!
//! This binary holds one test on purpose: the save metrics are
//! process-global, and no other save may run while it reads them.

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{Checkpoint, EngineWriter, ShardedIndexConfig, WriteBatch};
use fairnn_integration_tests::{golden_dataset, golden_params};
use fairnn_lsh::{ConcatenatedHasher, MinHash, MinHasher};
use fairnn_snapshot::{to_bytes, SnapshotKind, HEADER_LEN, SECTION_ALIGN};
use fairnn_space::{Jaccard, SparseSet};

type Near = SimilarityAtLeast<Jaccard>;
type SetWriter = EngineWriter<SparseSet, ConcatenatedHasher<MinHasher>, Near>;

/// The current value of a global counter or the observation count of a
/// global histogram (0 while it is unregistered).
fn metric(name: &str) -> i64 {
    fairnn_obs::global()
        .snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .map_or(0, |m| m.value)
}

#[test]
fn checkpoint_save_writes_exactly_the_bytes_of_to_bytes() {
    fairnn_obs::set_enabled(true);
    let data = golden_dataset();
    let dir = std::env::temp_dir().join(format!("fairnn-streamed-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer: SetWriter = EngineWriter::bootstrap(
        &MinHash,
        golden_params(data.len()),
        &data,
        SimilarityAtLeast::new(Jaccard, 0.5),
        ShardedIndexConfig::default().seeded(29),
        &dir,
    )
    .expect("bootstrap");
    // Inserts land in the delta, so the image holds both parts' points and
    // table ranges: many sections, with zero padding between them.
    for items in [vec![1u32, 2, 3, 500], vec![7, 8, 9, 10, 11, 600]] {
        writer
            .commit(WriteBatch::new().insert(SparseSet::from_items(items)))
            .expect("commit");
    }
    let checkpoint = Checkpoint {
        seq: writer.next_seq(),
        index: writer.staging().clone(),
    };
    assert_eq!(
        checkpoint.index.delta().live_points(),
        2,
        "the delta holds the inserts"
    );

    let bytes = to_bytes(SnapshotKind::Checkpoint, &checkpoint);
    let sections = u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
    assert!(sections > 4, "a checkpoint of two parts has many sections");
    assert_ne!(
        (HEADER_LEN + 4 + 16 * sections as usize) % SECTION_ALIGN,
        0,
        "padding must follow the directory"
    );

    let path = dir.join("streamed.snap");
    let written_before = metric("snapshot_bytes_written_total");
    let saves_before = metric("snapshot_save_ns");
    fairnn_snapshot::save(SnapshotKind::Checkpoint, &checkpoint, &path).expect("save");
    let written = metric("snapshot_bytes_written_total") - written_before;
    let saves = metric("snapshot_save_ns") - saves_before;
    let file = std::fs::read(&path).expect("read the saved file");
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(file.len(), bytes.len());
    assert!(
        file == bytes,
        "save must write exactly the bytes of to_bytes"
    );
    assert_eq!(written, file.len() as i64, "bytes written = file length");
    assert_eq!(saves, 1, "one save, one observation");
}
