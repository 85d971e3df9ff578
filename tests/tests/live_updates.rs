//! The generational live-update contract, end to end.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Epoch isolation** — a reader pinned before a publish keeps
//!    serving its generation bit-for-bit, even while the writer publishes
//!    more generations and concurrent readers pin newer ones.
//! 2. **Serial equivalence** — the state after any sequence of committed
//!    batches is bit-identical to applying the same ops serially, however
//!    the ops are partitioned into batches, and replaying either log
//!    recovers it (property test).
//! 3. **Crash durability** — killing the process mid-commit (simulated by
//!    truncating the WAL at every record boundary and mid-record) loses at
//!    most the torn record: recovery replays to the exact byte image of
//!    the last fully durable commit.
//! 4. **Thread-count independence** — bootstrap + commits produce the same
//!    bytes at 1, 2 and 8 build threads.
//!
//! "Bit-identical" is always asserted on the canonical snapshot encoding
//! (`to_bytes` of the staging index), which covers every table, point and
//! routing entry.

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{
    EngineWriter, QueryRequest, ShardedIndexConfig, WriteBatch, WriteOp, CHECKPOINT_FILE, WAL_FILE,
};
use fairnn_integration_tests::{golden_dataset, golden_params};
use fairnn_lsh::{ConcatenatedHasher, MinHash, MinHasher};
use fairnn_snapshot::{to_bytes, SnapshotKind, WAL_HEADER_LEN};
use fairnn_space::{Dataset, Jaccard, PointId, SparseSet};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;

type Hasher = ConcatenatedHasher<MinHasher>;
type Near = SimilarityAtLeast<Jaccard>;
type SetWriter = EngineWriter<SparseSet, Hasher, Near>;

fn near() -> Near {
    SimilarityAtLeast::new(Jaccard, 0.5)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fairnn-live-updates-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bootstrap(tag: &str, data: &Dataset<SparseSet>) -> (SetWriter, PathBuf) {
    let dir = scratch_dir(tag);
    let writer = SetWriter::bootstrap(
        &MinHash,
        golden_params(data.len()),
        data,
        near(),
        ShardedIndexConfig::default().seeded(17),
        &dir,
    )
    .expect("bootstrap");
    (writer, dir)
}

/// A twin of dataset point 0 with one extra distinguishing item.
fn twin(extra: u32) -> SparseSet {
    let mut items: Vec<u32> = (0..25).collect();
    items.push(100);
    items.push(extra);
    SparseSet::from_items(items)
}

/// A deterministic little op script over the golden dataset: inserts,
/// deletes (of both original and freshly inserted points) and compactions.
fn op_script(data_len: usize) -> Vec<WriteOp<SparseSet>> {
    let mut ops = Vec::new();
    for j in 0..6u32 {
        ops.push(WriteOp::Insert(twin(500 + j)));
    }
    for id in 0..5u32 {
        ops.push(WriteOp::Delete(PointId(id)));
    }
    ops.push(WriteOp::Compact);
    ops.push(WriteOp::Delete(PointId::from_index(data_len + 2)));
    for j in 0..4u32 {
        ops.push(WriteOp::Insert(twin(600 + j)));
    }
    ops.push(WriteOp::Delete(PointId(7)));
    ops.push(WriteOp::Compact);
    ops
}

#[test]
fn pinned_readers_survive_concurrent_publishes_untouched() {
    // A serial twin first records the expected response of every
    // generation; the concurrent run then checks each observed response
    // against the expectation for its stamped generation number.
    let data = golden_dataset();
    let request = QueryRequest::new(vec![data.point(PointId(0)).clone(), twin(999)]);
    let batches: Vec<WriteBatch<SparseSet>> = (0..8u32)
        .map(|j| {
            if j % 3 == 2 {
                WriteBatch::new().delete(PointId(j / 3)).compact()
            } else {
                WriteBatch::new().insert(twin(700 + j))
            }
        })
        .collect();

    let (mut serial, serial_dir) = bootstrap("pin-serial", &data);
    let mut expected = vec![serial.reader().pin().run_batch(&request)];
    for batch in &batches {
        serial.commit(batch.clone()).expect("serial commit");
        expected.push(serial.reader().pin().run_batch(&request));
    }

    let (mut writer, dir) = bootstrap("pin-live", &data);
    let reader = writer.reader();
    // Pin generation 0 up front; it must stay bit-identical throughout.
    let old_pin = reader.pin();
    assert_eq!(old_pin.generation(), 0);

    let pool = fairnn_parallel::ThreadPool::new(4);
    let (tx, rx) = mpsc::channel();
    let stop = std::sync::Arc::new(Mutex::new(false));
    for _ in 0..4 {
        let reader = reader.clone();
        let request = request.clone();
        let tx = tx.clone();
        let stop = std::sync::Arc::clone(&stop);
        pool.execute(move || loop {
            let pin = reader.pin();
            let response = pin.run_batch(&request);
            let done = *stop.lock().unwrap();
            tx.send(response).expect("send");
            if done {
                break;
            }
        });
    }
    drop(tx);
    for batch in &batches {
        writer.commit(batch.clone()).expect("live commit");
    }
    *stop.lock().unwrap() = true;

    let mut observed = 0usize;
    for response in rx {
        let generation = response.generation as usize;
        assert!(generation < expected.len(), "unknown generation published");
        assert_eq!(
            response, expected[generation],
            "concurrent reader diverged from the serial twin at generation {generation}"
        );
        observed += 1;
    }
    assert!(observed >= 4, "readers produced no responses");
    drop(pool);

    // The pin taken before any commit still serves generation 0 exactly.
    let frozen_in_time = old_pin.run_batch(&request);
    assert_eq!(frozen_in_time, expected[0]);
    assert_eq!(writer.generation(), batches.len() as u64);

    let _ = std::fs::remove_dir_all(serial_dir);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn kill_during_commit_replays_to_the_last_durable_commit() {
    // Commit a batch sequence, remembering the staging image after every
    // commit. Then simulate a crash at every WAL cut: full prefixes must
    // recover the matching commit exactly; torn tails (any cut strictly
    // inside a record) must be dropped and recover the previous commit.
    let data = golden_dataset();
    let (mut writer, dir) = bootstrap("kill", &data);

    let ops = op_script(data.len());
    let mut images = vec![to_bytes(SnapshotKind::ShardedIndex, writer.staging())];
    let mut record_ends = vec![WAL_HEADER_LEN as u64];
    for op in ops {
        let mut batch = WriteBatch::new();
        batch.push(op);
        writer.commit(batch).expect("commit");
        images.push(to_bytes(SnapshotKind::ShardedIndex, writer.staging()));
        record_ends.push(writer.wal_bytes());
    }
    let wal = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    assert_eq!(wal.len() as u64, *record_ends.last().unwrap());

    let crash_dir = scratch_dir("kill-crash");
    std::fs::create_dir_all(&crash_dir).expect("mkdir");
    std::fs::copy(dir.join(CHECKPOINT_FILE), crash_dir.join(CHECKPOINT_FILE))
        .expect("copy checkpoint");
    for (k, window) in record_ends.windows(2).enumerate() {
        let (prev_end, end) = (window[0] as usize, window[1] as usize);
        // Cut exactly at the record boundary (commit k+1 fully durable),
        // and at three interior positions (commit k+1 torn → dropped).
        let interior = [
            prev_end + 1,  // torn header
            prev_end + 13, // header complete, payload torn
            end - 1,       // one byte short of durable
        ];
        for (cut, expect_k) in
            std::iter::once((end, k + 1)).chain(interior.into_iter().map(|c| (c, k)))
        {
            std::fs::write(crash_dir.join(WAL_FILE), &wal[..cut]).expect("write torn wal");
            let recovered = SetWriter::open(&crash_dir).expect("recovery must not fail");
            assert_eq!(
                to_bytes(SnapshotKind::ShardedIndex, recovered.staging()),
                images[expect_k],
                "cut at byte {cut}: recovery does not match commit {expect_k}"
            );
            assert_eq!(recovered.next_seq(), expect_k as u64);
            // The recovered WAL length excludes the torn tail.
            assert_eq!(recovered.wal_bytes(), record_ends[expect_k]);
        }
    }

    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(crash_dir);
}

#[test]
fn commits_are_identical_at_1_2_8_thread_counts() {
    // The full writer lifecycle — bootstrap, commits, checkpoint, reopen —
    // must produce the same bytes at every build-worker count.
    let data = golden_dataset();
    static KNOB: Mutex<()> = Mutex::new(());
    let _guard = KNOB.lock().unwrap();
    let mut images = Vec::new();
    for (round, threads) in [1usize, 2, 8].into_iter().enumerate() {
        fairnn_parallel::set_build_threads(threads);
        let (mut writer, dir) = bootstrap(&format!("threads-{round}"), &data);
        for op in op_script(data.len()) {
            let mut batch = WriteBatch::new();
            batch.push(op);
            writer.commit(batch).expect("commit");
        }
        writer.checkpoint().expect("checkpoint");
        let reopened = SetWriter::open(&dir).expect("open");
        images.push((
            to_bytes(SnapshotKind::ShardedIndex, writer.staging()),
            std::fs::read(dir.join(CHECKPOINT_FILE)).expect("read checkpoint"),
            to_bytes(SnapshotKind::ShardedIndex, reopened.staging()),
        ));
        let _ = std::fs::remove_dir_all(dir);
    }
    fairnn_parallel::set_build_threads(0);
    assert_eq!(images[0], images[1], "2 threads diverged from 1");
    assert_eq!(images[0], images[2], "8 threads diverged from 1");
    assert_eq!(
        images[0].0, images[0].2,
        "checkpoint recovery diverged from the live writer"
    );
}

/// Random op sequences: inserts of random sets, deletes of random earlier
/// ids (original or inserted), occasional compactions.
fn arb_ops() -> impl Strategy<Value = Vec<u8>> {
    // Encoded as bytes to keep shrinking simple: 0..=5 insert variants,
    // 6..=8 delete slots, 9 compact.
    proptest::collection::vec(0u8..10, 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_batch_partition_matches_serial_application(
        encoded in arb_ops(),
        split_mask in proptest::collection::vec(0u8..2, 24),
        case in 0u32..u32::MAX,
    ) {
        // Decode the script against a live id universe, so deletes always
        // reference ids that exist at that point in the sequence.
        let data = golden_dataset();
        let make_ops = |_: ()| -> Vec<WriteOp<SparseSet>> {
            let mut live: Vec<PointId> = (0..data.len()).map(PointId::from_index).collect();
            let mut next = data.len();
            let mut ops = Vec::new();
            for (i, &b) in encoded.iter().enumerate() {
                match b {
                    0..=5 => {
                        ops.push(WriteOp::Insert(twin(800 + (b as u32) * 31 + i as u32)));
                        live.push(PointId::from_index(next));
                        next += 1;
                    }
                    6..=8 if !live.is_empty() => {
                        let pick = (b as usize * 7 + i) % live.len();
                        ops.push(WriteOp::Delete(live.swap_remove(pick)));
                    }
                    _ => ops.push(WriteOp::Compact),
                }
            }
            ops
        };
        let ops = make_ops(());

        // Serial writer: one op per commit.
        let (mut serial, serial_dir) = bootstrap(&format!("prop-serial-{case}"), &data);
        for op in ops.clone() {
            let mut batch = WriteBatch::new();
            batch.push(op);
            serial.commit(batch).expect("serial commit");
        }

        // Partitioned writer: the same ops grouped into random batches.
        let (mut grouped, grouped_dir) = bootstrap(&format!("prop-grouped-{case}"), &data);
        let mut batch = WriteBatch::new();
        for (i, op) in ops.into_iter().enumerate() {
            batch.push(op);
            if split_mask.get(i).copied().unwrap_or(0) != 0 && !batch.is_empty() {
                let full = std::mem::replace(&mut batch, WriteBatch::new());
                grouped.commit(full).expect("grouped commit");
            }
        }
        if !batch.is_empty() {
            grouped.commit(batch).expect("grouped tail commit");
        }

        let live = to_bytes(SnapshotKind::ShardedIndex, serial.staging());
        prop_assert_eq!(
            &live,
            &to_bytes(SnapshotKind::ShardedIndex, grouped.staging()),
            "batch partitioning changed the resulting structure"
        );

        // Replay stages every record's inserts and merges the delta once
        // (and at each compaction or fold): both logs recover the live
        // bytes.
        for (dir, writer) in [(&serial_dir, &serial), (&grouped_dir, &grouped)] {
            let reopened = SetWriter::open(dir).expect("reopen");
            prop_assert_eq!(reopened.next_seq(), writer.next_seq());
            prop_assert_eq!(
                &to_bytes(SnapshotKind::ShardedIndex, reopened.staging()),
                &live,
                "replay diverged from the live staging index"
            );
        }
        let _ = std::fs::remove_dir_all(serial_dir);
        let _ = std::fs::remove_dir_all(grouped_dir);
    }
}
