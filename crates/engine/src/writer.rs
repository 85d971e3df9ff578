//! The write half of the generational engine: WAL-durable commits that
//! publish immutable generations.
//!
//! One [`EngineWriter`] owns an engine directory holding exactly two
//! files: a checkpoint (`checkpoint.snap`, a [`Checkpoint`] in the
//! sectioned snapshot container format) and a write-ahead log
//! (`engine.wal`).
//! The commit protocol for a [`WriteBatch`]:
//!
//! 1. **validate** — every `Delete` must reference an id live in the
//!    staging index, and no id may be deleted twice in one batch; an
//!    invalid batch is rejected whole, before anything touches the log;
//! 2. **log** — the batch is encoded (prefixed with its sequence number)
//!    and appended to the WAL as one checksummed, fsynced record;
//! 3. **apply** — the ops run, in order, against a staged copy of the
//!    private staging index (copy-on-write at part granularity: only
//!    touched parts are copied, and a copied part still shares its tables
//!    and points). A delete only tombstones its point, so its part keeps
//!    sharing its tables with the published generation. An insert only
//!    stages its point in the delta. An op after which the delta holds more
//!    than an eighth of the base's live points folds the delta into the
//!    base: one linear pass per table over both parts' tables builds the
//!    next base, and only the delta's staged points are hashed. Then the
//!    delta hashes its staged points and builds its next tables from the
//!    current ones in one linear merge per table;
//! 4. **publish** — a clone of the staging index (an `Arc`-pointer copy
//!    per part) becomes the next [`Generation`], swapped into the shared
//!    cell for readers.
//!
//! Crash recovery ([`EngineWriter::open`]) loads the checkpoint and
//! replays the WAL tail through the *same* validation and `apply_batch`
//! the live path uses; a record the live commit would have rejected fails
//! the recovery. The replayed inserts stay staged across records, so the
//! delta merges its tables once at the end of the replay (or earlier, when
//! it compacts or folds), not once per record. The fold check runs after
//! every insert and delete, so a replay folds at exactly the op the live
//! writer folded at, and a merge of many staged points builds exactly the
//! tables a merge per commit builds, so a recovered index is bit-identical
//! to the pre-crash one — a property the integration tests assert by
//! re-encoding both sides. A torn final record (the crash
//! happened mid-append) is detected by checksum, dropped, and physically
//! truncated away on resume.
//!
//! [`EngineWriter::checkpoint`] writes the full image of the staging
//! index, exactly as bootstrap does, and then resets the WAL. The writer
//! keeps no encoded bytes and no parts of past checkpoints.

use crate::api_types::{CommitReceipt, EngineError, WriteBatch, WriteOp};
use crate::generation::{Generation, Shared};
use crate::reader::EngineReader;
use crate::sharded::{ShardedIndex, ShardedIndexConfig, StagedIndex};
use fairnn_core::predicate::Nearness;
use fairnn_lsh::{ConcatenatedHasher, HasherBankCodec, LshFamily, LshHasher, LshParams};
use fairnn_obs::{LazyHistogram, Timer};
use fairnn_snapshot::{
    read_wal, Codec, Decoder, Encoder, Section, SnapshotCodec, SnapshotError, SnapshotKind,
    WalWriter,
};
use fairnn_space::{Dataset, PointId};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Wall time of one generation publish: staging apply, the merge of the
/// staged inserts into the tables, clone and shared-cell swap (the WAL
/// fsync is `snapshot_wal_fsync_ns`).
static PUBLISH_NS: LazyHistogram = LazyHistogram::new(
    "engine_generation_publish_ns",
    "apply+merge+publish time of one commit in nanoseconds",
);

/// File name of the checkpoint inside an engine directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.snap";
/// File name of the write-ahead log inside an engine directory.
pub const WAL_FILE: &str = "engine.wal";

/// A durable cut of the engine: the WAL sequence number it was taken at
/// plus the sharded index state with every commit `< seq` applied.
///
/// Replay applies exactly the WAL records with sequence number `>= seq`
/// (older records may legitimately remain in the log if the process died
/// between checkpoint save and log reset — they are skipped).
#[derive(Debug, Clone)]
pub struct Checkpoint<P, H, N> {
    /// First WAL sequence number *not* contained in `index`.
    pub seq: u64,
    /// The index state at the cut.
    pub index: ShardedIndex<P, H, N>,
}

impl<P, H, N> SnapshotCodec for Checkpoint<P, H, N>
where
    P: Codec + Send + Sync,
    H: HasherBankCodec + Send + Sync,
    N: Codec + Send + Sync + Nearness<P>,
{
    /// The sequence number gets its own leading section, so the index's
    /// bank and part sections keep their 64-byte image alignment.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut head = Encoder::new();
        head.write_u64(self.seq);
        let mut sections = vec![head.into_bytes()];
        sections.extend(self.index.encode_sections());
        sections
    }

    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        let Some((head, index_sections)) = sections.split_first() else {
            return Err(SnapshotError::Corrupt(
                "checkpoint snapshot has no head section".into(),
            ));
        };
        let mut dec = head.decoder();
        let seq = dec.read_u64()?;
        dec.finish()?;
        let index = ShardedIndex::decode_sections(index_sections)?;
        Ok(Self { seq, index })
    }
}

/// The single writer of a generational engine.
///
/// Owns the staging index, the engine directory (checkpoint + WAL) and
/// the shared generation cell. All mutation flows through
/// [`EngineWriter::commit`]; readers are handed out by
/// [`EngineWriter::reader`] and never block the writer (nor vice versa).
#[derive(Debug)]
pub struct EngineWriter<P, H, N> {
    shared: Arc<Shared<P, H, N>>,
    /// The writer's private next-generation state; published by cloning.
    staging: ShardedIndex<P, H, N>,
    /// Sequence number the next commit's WAL record will carry, which is
    /// also the number of the published generation.
    next_seq: u64,
    wal: WalWriter,
    dir: PathBuf,
}

/// Checks a batch against the state it applies to: every `Delete` must
/// name a point live before the batch (so not one the batch inserts), and
/// no point may be deleted twice in one batch. Every op of a valid batch
/// therefore changes the state. Returns the first offending id.
///
/// The live commit runs it before logging a batch and WAL replay before
/// applying a record, so replay admits exactly the records a commit could
/// have logged.
fn validate_batch<P, H, N>(
    staged: &StagedIndex<P, H, N>,
    batch: &WriteBatch<P>,
) -> Result<(), PointId>
where
    P: Clone,
    H: LshHasher<P> + Clone,
    N: Nearness<P> + Clone,
{
    let mut deleted = HashSet::new();
    for op in batch.ops() {
        if let WriteOp::Delete(id) = op {
            if !staged.contains(*id) || !deleted.insert(*id) {
                return Err(*id);
            }
        }
    }
    Ok(())
}

/// Applies a batch that passed [`validate_batch`] to a staged index,
/// returning the global ids assigned to the batch's `Insert` ops in op
/// order.
///
/// Ops apply in order. An `Insert` stages its point in the delta; no table
/// changes until the caller merges ([`StagedIndex::merged`]). A `Delete`
/// tombstones its point and touches no table. A `Compact` folds the delta
/// into the base and compacts the base, as does a delete that trips the
/// base's automatic compaction; one that trips the delta's compacts the
/// delta alone. An insert or a delete after which the delta holds more than
/// an eighth of the base's live points folds the delta into the base.
///
/// This is the **one** mutation path of the engine: the live commit and
/// WAL replay both call it, which is what makes a replayed index
/// bit-identical to the live one.
pub(crate) fn apply_batch<P, H, N>(
    staged: &mut StagedIndex<P, H, N>,
    batch: &WriteBatch<P>,
) -> Vec<PointId>
where
    P: Clone,
    H: LshHasher<P> + Clone,
    N: Nearness<P> + Clone,
{
    let mut assigned = Vec::new();
    for op in batch.ops() {
        match op {
            WriteOp::Insert(point) => assigned.push(staged.insert(point.clone())),
            WriteOp::Delete(id) => {
                let deleted = staged.delete(*id);
                debug_assert!(deleted, "validate_batch admits live ids only");
            }
            WriteOp::Compact => staged.compact(),
        }
    }
    assigned
}

impl<P, BH, N> EngineWriter<P, ConcatenatedHasher<BH>, N>
where
    P: Codec + Clone + Send + Sync,
    BH: LshHasher<P> + Send + Sync,
    ConcatenatedHasher<BH>: HasherBankCodec + LshHasher<P> + Clone + Send + Sync,
    N: Codec + Nearness<P> + Clone + Send + Sync,
{
    /// Builds the generation-0 index from a dataset and makes the engine
    /// directory durable: checkpoint at `seq = 0`, empty WAL, generation 0
    /// published. Fails without side effects on the shared cell if the
    /// directory cannot be written.
    pub fn bootstrap<F>(
        family: &F,
        params: LshParams,
        dataset: &Dataset<P>,
        near: N,
        config: ShardedIndexConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, EngineError>
    where
        F: LshFamily<P, Hasher = BH> + Sync,
    {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(SnapshotError::Io)?;
        let index = ShardedIndex::build(family, params, dataset, near, config);

        // Durable before visible: checkpoint first, then the WAL (file and
        // directory entry), then publish generation 0.
        fairnn_snapshot::save(
            SnapshotKind::Checkpoint,
            &Checkpoint {
                seq: 0,
                index: index.clone(),
            },
            dir.join(CHECKPOINT_FILE),
        )?;
        let wal = WalWriter::create(dir.join(WAL_FILE))?;

        let shared = Arc::new(Shared::new(Arc::new(Generation::now(0, index.clone()))));
        Ok(Self {
            shared,
            staging: index,
            next_seq: 0,
            wal,
            dir,
        })
    }
}

impl<P, H, N> EngineWriter<P, H, N>
where
    P: Codec + Clone + Send + Sync,
    H: HasherBankCodec + LshHasher<P> + Clone + Send + Sync,
    N: Codec + Nearness<P> + Clone + Send + Sync,
{
    /// Recovers an engine from its directory: loads the checkpoint,
    /// replays the WAL tail through `apply_batch`, merges the staged
    /// inserts once, truncates any torn final record, and
    /// publishes the recovered state.
    ///
    /// Records older than the checkpoint (left behind by a crash between
    /// checkpoint save and WAL reset) are skipped. A gap in the sequence
    /// numbers is corruption and fails the recovery, as does a record the
    /// live commit would have rejected (a delete of a point that is not
    /// live, or a second delete of one point).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        let checkpoint: Checkpoint<P, H, N> =
            fairnn_snapshot::load(SnapshotKind::Checkpoint, dir.join(CHECKPOINT_FILE))?;
        let Checkpoint { seq, index } = checkpoint;
        let mut staged = StagedIndex::new(index);

        let replay = read_wal(dir.join(WAL_FILE))?;
        let mut next_seq = seq;
        for record in &replay.records {
            let mut dec = Decoder::new(record);
            let record_seq = dec.read_u64()?;
            let batch = WriteBatch::<P>::decode(&mut dec)?;
            dec.finish()?;
            if record_seq < seq {
                continue; // applied before the checkpoint was cut
            }
            if record_seq != next_seq {
                return Err(EngineError::Snapshot(SnapshotError::Corrupt(format!(
                    "WAL skips from sequence {next_seq} to {record_seq}"
                ))));
            }
            validate_batch(&staged, &batch).map_err(|id| {
                SnapshotError::Corrupt(format!(
                    "WAL record {record_seq} deletes point {id}, which is not live \
                     or is deleted twice in the record"
                ))
            })?;
            apply_batch(&mut staged, &batch);
            next_seq += 1;
        }
        let index = staged.merged();
        let wal = WalWriter::resume(dir.join(WAL_FILE), replay.valid_len)?;

        let shared = Arc::new(Shared::new(Arc::new(Generation::now(
            next_seq,
            index.clone(),
        ))));
        Ok(Self {
            shared,
            staging: index,
            next_seq,
            wal,
            dir,
        })
    }

    /// Commits a batch: validates it, appends it to the WAL (fsynced),
    /// applies it to the staging index, merges the staged inserts into
    /// the delta's tables, and publishes the
    /// result as the next generation. Atomic from every reader's point of
    /// view — a pin taken at any moment sees either none of the batch or
    /// all of it.
    ///
    /// `Delete` ops must reference ids live in the *current* state;
    /// deleting an id inserted earlier in the same batch is rejected
    /// (split it into two commits), and so is a second delete of one id
    /// within a batch. Both fail with [`EngineError::UnknownId`]. A
    /// rejected batch leaves the log and the published generation
    /// untouched.
    pub fn commit(&mut self, batch: WriteBatch<P>) -> Result<CommitReceipt, EngineError> {
        let mut staged = StagedIndex::new(self.staging.clone());
        validate_batch(&staged, &batch).map_err(EngineError::UnknownId)?;

        let seq = self.next_seq;
        let mut enc = Encoder::new();
        enc.write_u64(seq);
        batch.encode(&mut enc);
        let wal_bytes = self.wal.append(&enc.into_bytes())?;

        let timer = Timer::start(&PUBLISH_NS);
        let assigned = apply_batch(&mut staged, &batch);
        self.staging = staged.merged();
        self.next_seq = seq + 1;
        self.shared.publish(Arc::new(Generation::now(
            self.next_seq,
            self.staging.clone(),
        )));
        drop(timer);

        Ok(CommitReceipt {
            seq,
            generation: self.next_seq,
            assigned,
            wal_bytes,
        })
    }

    /// Cuts a durable checkpoint at the current state and resets the WAL.
    ///
    /// Writes the full image of the staging index. Crash-safe at every
    /// step: the checkpoint replaces the old one atomically and is fsynced
    /// before the WAL is reset, and until that reset lands, replay simply
    /// skips the pre-checkpoint records.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        let seq = self.next_seq;
        fairnn_snapshot::save(
            SnapshotKind::Checkpoint,
            &Checkpoint {
                seq,
                index: self.staging.clone(),
            },
            self.dir.join(CHECKPOINT_FILE),
        )?;
        // Checkpoint durable — every logged record is now `< seq`, so the
        // log can restart empty. A crash before this create leaves stale
        // records that replay skips.
        self.wal = WalWriter::create(self.dir.join(WAL_FILE))?;
        Ok(())
    }
}

impl<P, H, N> EngineWriter<P, H, N> {
    /// A new reader handle onto this engine's published generations.
    pub fn reader(&self) -> EngineReader<P, H, N> {
        EngineReader::new(Arc::clone(&self.shared))
    }

    /// Number of the currently published generation: the commits it
    /// holds, so always [`EngineWriter::next_seq`].
    pub fn generation(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number the next commit will log.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes currently in the write-ahead log (header included).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// The engine directory this writer owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read-only view of the staging index (what the next generation will
    /// contain; equal to the published generation between commits).
    pub fn staging(&self) -> &ShardedIndex<P, H, N> {
        &self.staging
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api_types::QueryRequest;
    use fairnn_core::SimilarityAtLeast;
    use fairnn_lsh::{MinHash, ParamsBuilder};
    use fairnn_space::{Dataset, Jaccard, SparseSet};

    type Writer = EngineWriter<
        SparseSet,
        ConcatenatedHasher<fairnn_lsh::MinHasher>,
        SimilarityAtLeast<Jaccard>,
    >;

    fn clustered_dataset() -> Dataset<SparseSet> {
        let mut sets = Vec::new();
        for j in 0..10u32 {
            let mut items: Vec<u32> = (0..25).collect();
            items.push(100 + j);
            items.push(200 + j);
            sets.push(SparseSet::from_items(items));
        }
        for j in 0..20u32 {
            sets.push(SparseSet::from_items(
                (1000 + j * 40..1000 + j * 40 + 15).collect(),
            ));
        }
        Dataset::new(sets)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fairnn-writer-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bootstrap(tag: &str, seed: u64) -> (Dataset<SparseSet>, Writer, PathBuf) {
        let data = clustered_dataset();
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let dir = scratch_dir(tag);
        let config = ShardedIndexConfig::default().seeded(seed);
        let writer =
            Writer::bootstrap(&MinHash, params, &data, near, config, &dir).expect("bootstrap");
        (data, writer, dir)
    }

    fn twin(data: &Dataset<SparseSet>, extra: u32) -> SparseSet {
        let mut items: Vec<u32> = (0..25).collect();
        items.push(100);
        items.push(200);
        items.push(extra);
        let _ = data;
        SparseSet::from_items(items)
    }

    #[test]
    fn budgeted_batches_match_unbudgeted_and_fail_fast_when_spent() {
        use crate::api_types::{DeadlineBudget, EngineError};

        let (data, writer, dir) = bootstrap("budget", 11);
        let reader = writer.reader();
        let pin = reader.pin();
        let query = data.point(PointId(0)).clone();
        let request = QueryRequest::new(vec![query.clone(), query]).with_batch(4);

        // The budget check sits between positions and must not perturb
        // the per-position RNG streams: a generous budget returns the
        // bit-identical unbudgeted response.
        let free = pin.run_batch(&request);
        let budgeted = pin
            .run_batch_within(&request, &DeadlineBudget::from_now_ms(1 << 40))
            .expect("generous budget completes");
        assert_eq!(budgeted, free);

        // An already-spent budget fails before answering anything.
        let spent = pin.run_batch_within(&request, &DeadlineBudget::from_now_ns(0));
        assert!(matches!(
            spent,
            Err(EngineError::DeadlineExceeded {
                completed: 0,
                total: 2
            })
        ));

        // Publish stamps are monotonic-clock readings; age never panics.
        assert!(pin.published_at_ns() <= fairnn_obs::monotonic_ns());
        let _age = pin.generation_age_ns();
        drop(pin);
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commits_publish_and_reach_queries_while_pins_hold_the_past() {
        let (data, mut writer, dir) = bootstrap("publish", 8);
        let reader = writer.reader();
        let query = data.point(PointId(0)).clone();

        let old_pin = reader.pin();
        assert_eq!(old_pin.generation(), 0);
        let before = old_pin.run_batch(&QueryRequest::new(vec![query.clone()]));

        let receipt = writer
            .commit(WriteBatch::new().insert(twin(&data, 999)))
            .expect("commit");
        assert_eq!(receipt.seq, 0);
        assert_eq!(receipt.generation, 1);
        assert_eq!(receipt.assigned, vec![PointId::from_index(data.len())]);
        let id = receipt.assigned[0];

        // The pinned epoch still serves generation 0, bit for bit.
        let after = old_pin.run_batch(&QueryRequest::new(vec![query.clone()]));
        assert_eq!(before, after);
        assert!(!old_pin.index().contains(id));

        // A fresh pin sees the twin, and repeated batches eventually draw it.
        let pin = reader.pin();
        assert_eq!(pin.generation(), 1);
        assert!(pin.index().contains(id));
        let seen = (0..40u64).any(|batch| {
            pin.run_batch(&QueryRequest::new(vec![query.clone(); 50]).with_batch(batch))
                .answers
                .iter()
                .any(|a| a.id == Some(id))
        });
        assert!(seen, "inserted twin never sampled from the new generation");

        // Delete it again: gone from the next generation.
        writer
            .commit(WriteBatch::new().delete(id))
            .expect("delete commit");
        let pin = reader.pin();
        assert_eq!(pin.generation(), 2);
        assert!(!pin.index().contains(id));
        let response = pin.run_batch(&QueryRequest::new(vec![query.clone(); 50]).with_batch(7));
        assert!(response.answers.iter().all(|a| a.id != Some(id)));

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn publish_shares_the_tables_a_commit_did_not_change() {
        let (data, mut writer, dir) = bootstrap("share", 12);
        let reader = writer.reader();
        let query = data.point(PointId(0)).clone();
        let request = QueryRequest::new(vec![query.clone(); 40]).with_batch(3);
        let first = reader.pin();
        let before = first.run_batch(&request);
        let base_of = |pin: &crate::EpochPin<_, _, _>| {
            let base = pin.index().base();
            (Arc::clone(base.tables()), Arc::clone(base.points()))
        };
        let (tables, points) = base_of(&first);

        // A delete-only commit tombstones: no table and no point is copied.
        writer
            .commit(WriteBatch::new().delete(PointId(3)))
            .expect("delete commit");
        let deleted = reader.pin();
        let (after_tables, after_points) = base_of(&deleted);
        assert!(
            Arc::ptr_eq(&tables, &after_tables),
            "a delete copied tables"
        );
        assert!(
            Arc::ptr_eq(&points, &after_points),
            "a delete copied points"
        );
        assert!(Arc::ptr_eq(
            first.index().delta().tables(),
            deleted.index().delta().tables()
        ));
        assert_eq!(deleted.index().base().tombstones(), 1);

        // An insert lands in the delta and rebuilds only the delta's
        // tables; the base is shared whole.
        let receipt = writer
            .commit(WriteBatch::new().insert(twin(&data, 500)))
            .expect("insert commit");
        let inserted = reader.pin();
        let id = receipt.assigned[0];
        assert!(inserted.index().delta().contains(id));
        assert!(Arc::ptr_eq(
            &deleted.index().shards()[0],
            &inserted.index().shards()[0]
        ));
        let (after_tables, after_points) = base_of(&inserted);
        assert!(
            Arc::ptr_eq(&tables, &after_tables),
            "an insert copied tables"
        );
        assert!(
            Arc::ptr_eq(&points, &after_points),
            "an insert copied points"
        );
        let (old, new) = (deleted.index().delta(), inserted.index().delta());
        assert!(!Arc::ptr_eq(old.tables(), new.tables()));
        assert_eq!(new.tables().num_points(), old.tables().num_points() + 1);

        // The pin on generation 0 still answers bit for bit.
        assert_eq!(first.run_batch(&request), before);
        drop((first, deleted, inserted));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_replaced_shard_is_freed_once_no_pin_holds_it() {
        let (data, mut writer, dir) = bootstrap("free", 13);
        let reader = writer.reader();
        let pin = reader.pin();
        let [base, delta] = [0, 1].map(|part| Arc::downgrade(&pin.index().shards()[part]));
        drop(pin);

        let receipt = writer
            .commit(WriteBatch::new().insert(twin(&data, 600)))
            .expect("insert commit");
        assert!(reader.pin().index().delta().contains(receipt.assigned[0]));

        // Only the published generation and the staging index hold parts:
        // the delta the insert replaced is gone, the base is shared.
        assert!(base.upgrade().is_some(), "the base was replaced");
        assert!(delta.upgrade().is_none(), "the replaced delta is alive");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_delete_is_rejected_before_logging() {
        let (data, mut writer, dir) = bootstrap("reject", 9);
        let wal_before = writer.wal_bytes();
        let bogus = PointId::from_index(data.len() + 17);
        let err = writer
            .commit(WriteBatch::new().insert(twin(&data, 777)).delete(bogus))
            .expect_err("unknown id must be rejected");
        assert!(matches!(err, EngineError::UnknownId(id) if id == bogus));
        assert_eq!(writer.wal_bytes(), wal_before, "rejected batch was logged");
        assert_eq!(writer.generation(), 0, "rejected batch was published");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_second_delete_of_one_id_in_a_batch_is_rejected_before_logging() {
        let (data, mut writer, dir) = bootstrap("twice", 14);
        let wal_before = writer.wal_bytes();
        let err = writer
            .commit(
                WriteBatch::new()
                    .delete(PointId(3))
                    .insert(twin(&data, 778))
                    .delete(PointId(3)),
            )
            .expect_err("a second delete of one id must be rejected");
        assert!(matches!(err, EngineError::UnknownId(PointId(3))));
        assert_eq!(writer.wal_bytes(), wal_before, "rejected batch was logged");
        assert_eq!(writer.generation(), 0, "rejected batch was published");
        assert!(writer.staging().contains(PointId(3)));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Appends `batch` to the engine directory's WAL as record `seq`,
    /// bypassing the commit's validation.
    fn append_record(dir: &Path, seq: u64, batch: &WriteBatch<SparseSet>) {
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).expect("stat wal").len();
        let mut wal = WalWriter::resume(&path, len).expect("resume wal");
        let mut enc = Encoder::new();
        enc.write_u64(seq);
        batch.encode(&mut enc);
        wal.append(&enc.into_bytes()).expect("append record");
    }

    #[test]
    fn replay_rejects_a_record_the_commit_would_reject() {
        let bad = [
            ("unknown", WriteBatch::new().delete(PointId(999_999))),
            (
                "twice",
                WriteBatch::new().delete(PointId(3)).delete(PointId(3)),
            ),
            (
                "both",
                WriteBatch::new()
                    .delete(PointId(999_999))
                    .delete(PointId(3))
                    .delete(PointId(3)),
            ),
        ];
        for (tag, batch) in bad {
            let (data, mut writer, dir) = bootstrap(&format!("replay-{tag}"), 15);
            writer
                .commit(WriteBatch::new().insert(twin(&data, 779)))
                .expect("valid commit");
            drop(writer);
            append_record(&dir, 1, &batch);
            let err = Writer::open(&dir).expect_err("replay admitted an invalid record");
            assert!(
                matches!(&err, EngineError::Snapshot(SnapshotError::Corrupt(msg))
                    if msg.contains("WAL record 1 ")),
                "{tag}: {err}"
            );
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn replayed_delete_compacts_a_shard_with_staged_inserts() {
        // Replay keeps inserts staged across records. Here a replayed
        // delete trips the automatic compaction of the delta while it
        // holds staged inserts, so the compaction must merge them first,
        // exactly as the live writer merged them at each commit.
        let (data, mut writer, dir) = bootstrap("staged-compact", 16);
        let first = writer
            .commit(
                WriteBatch::new()
                    .insert(twin(&data, 800))
                    .insert(twin(&data, 801)),
            )
            .expect("insert commit")
            .assigned;
        writer
            .commit(WriteBatch::new().insert(twin(&data, 802)))
            .expect("insert commit");
        writer
            .commit(WriteBatch::new().delete(first[0]))
            .expect("delete commit");
        assert_eq!(writer.staging().delta().tombstones(), 1);
        // One more insert staged in the delta on replay, then the delete
        // that compacts it.
        writer
            .commit(WriteBatch::new().insert(twin(&data, 803)).delete(first[1]))
            .expect("compacting commit");
        let delta = writer.staging().delta();
        assert_eq!((delta.tombstones(), delta.live_points()), (0, 2));
        writer
            .commit(WriteBatch::new().insert(twin(&data, 804)))
            .expect("insert after compaction");

        let reopened = Writer::open(&dir).expect("open");
        assert_eq!(reopened.next_seq(), writer.next_seq());
        assert_eq!(
            fairnn_snapshot::to_bytes(SnapshotKind::ShardedIndex, reopened.staging()),
            fairnn_snapshot::to_bytes(SnapshotKind::ShardedIndex, writer.staging()),
            "replay diverged from the live writer"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reopened_engine_matches_the_live_one_bit_for_bit() {
        let (data, mut writer, dir) = bootstrap("reopen", 10);
        writer
            .commit(
                WriteBatch::new()
                    .insert(twin(&data, 300))
                    .insert(twin(&data, 301))
                    .delete(PointId(3)),
            )
            .expect("first commit");
        writer
            .commit(WriteBatch::new().delete(PointId(5)).compact())
            .expect("second commit");
        // 30 live base points: the fourth insert passes an eighth of them
        // and folds, and the fifth stays in the delta. Replay must fold at
        // the same op.
        let mut batch = WriteBatch::new();
        for extra in 302..306 {
            batch = batch.insert(twin(&data, extra));
        }
        writer.commit(batch).expect("folding commit");
        writer
            .commit(WriteBatch::new().insert(twin(&data, 306)))
            .expect("delta commit");
        let index = writer.staging();
        assert_eq!(index.base().live_points(), 34);
        assert_eq!(index.delta().live_points(), 1);

        let reopened = Writer::open(&dir).expect("open");
        assert_eq!(reopened.generation(), writer.generation());
        assert_eq!(reopened.next_seq(), writer.next_seq());
        let live = fairnn_snapshot::to_bytes(SnapshotKind::ShardedIndex, writer.staging());
        let replayed = fairnn_snapshot::to_bytes(SnapshotKind::ShardedIndex, reopened.staging());
        assert_eq!(live, replayed, "replayed state differs from live state");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn incremental_checkpoint_equals_a_full_reencode() {
        let (data, mut writer, dir) = bootstrap("ckpt", 11);
        writer
            .commit(WriteBatch::new().insert(twin(&data, 400)))
            .expect("commit");
        writer.checkpoint().expect("first checkpoint");
        assert_eq!(writer.wal_bytes(), fairnn_snapshot::WAL_HEADER_LEN as u64);

        // Insert once more, then checkpoint again.
        writer
            .commit(WriteBatch::new().insert(twin(&data, 401)))
            .expect("commit");
        writer.checkpoint().expect("incremental checkpoint");

        let incremental = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("read checkpoint");
        let full = fairnn_snapshot::to_bytes(
            SnapshotKind::Checkpoint,
            &Checkpoint {
                seq: writer.next_seq(),
                index: writer.staging().clone(),
            },
        );
        assert_eq!(incremental, full, "cached sections drifted from re-encode");

        // And the checkpoint alone (empty WAL) recovers the same state.
        let reopened = Writer::open(&dir).expect("open");
        assert_eq!(
            fairnn_snapshot::to_bytes(SnapshotKind::ShardedIndex, reopened.staging()),
            fairnn_snapshot::to_bytes(SnapshotKind::ShardedIndex, writer.staging()),
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
