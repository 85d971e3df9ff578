//! Snapshot persistence: disk roundtrips must be invisible to sampling.
//!
//! Three families of guarantees are pinned here:
//!
//! 1. **Golden identity** — a structure restored via `load()` reproduces
//!    the exact seed-pinned sample sequences of `golden_samples.rs`
//!    (same constants, same RNG streams), for every persisted structure:
//!    `FairNns`, `FairNnis`, `RankSwapSampler`, `ShardedIndex`, and the
//!    engine `Checkpoint` a restart loads.
//! 2. **Canonical encoding** — `save → load → save` is byte-identical.
//! 3. **Rejection, not panic** — corrupted, truncated and version-bumped
//!    snapshots fail with the matching typed [`SnapshotError`] variant;
//!    property tests hammer the loader with random mutations (including
//!    checksum-repaired payload corruption, which exercises the decoders
//!    themselves) and require an error or a clean decode, never a panic.

use fairnn_core::{
    FairNnis, FairNns, NeighborSampler, RankPermutation, RankSwapSampler, SimilarityAtLeast,
};
use fairnn_engine::{
    Checkpoint, EngineWriter, QueryRequest, ShardedIndex, ShardedIndexConfig, WriteBatch,
    CHECKPOINT_FILE, WAL_FILE,
};
use fairnn_integration_tests::{
    golden_dataset, golden_ids as ids, golden_params as params, GOLDEN_ENGINE_FIRST,
    GOLDEN_FAIR_NNIS, GOLDEN_FAIR_NNS, GOLDEN_RANK_SWAP, GOLDEN_SHARDED,
};
use fairnn_lsh::{ConcatenatedHasher, LshIndex, LshParams, MinHash, MinHasher};
use fairnn_snapshot::{
    from_bytes, image_from_sections, to_bytes, Codec, SnapshotCodec, SnapshotError, SnapshotImage,
    SnapshotKind, FORMAT_VERSION, HEADER_LEN,
};
use fairnn_space::{Jaccard, PointId, SparseSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

type Hasher = ConcatenatedHasher<MinHasher>;
type Near = SimilarityAtLeast<Jaccard>;
type SetNns = FairNns<SparseSet, Hasher, Near>;
type SetNnis = FairNnis<SparseSet, Hasher, Near>;
type SetRankSwap = RankSwapSampler<SparseSet, Hasher, Near>;
type SetSharded = ShardedIndex<SparseSet, Hasher, Near>;
type SetCheckpoint = Checkpoint<SparseSet, Hasher, Near>;
type SetWriter = EngineWriter<SparseSet, Hasher, Near>;

fn near() -> Near {
    SimilarityAtLeast::new(Jaccard, 0.5)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fairnn-roundtrip-{}-{name}.snap",
        std::process::id()
    ))
}

/// Saves to a real file, loads back, removes the file.
fn file_roundtrip<T, S, L>(value: &T, name: &str, save: S, load: L) -> T
where
    S: FnOnce(&T, &PathBuf),
    L: FnOnce(&PathBuf) -> T,
{
    let path = temp_path(name);
    save(value, &path);
    let restored = load(&path);
    let _ = std::fs::remove_file(&path);
    restored
}

#[test]
fn loaded_fair_nns_reproduces_the_golden_sequence() {
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(1);
    let sampler: SetNns = FairNns::build(&MinHash, params(data.len()), &data, near(), &mut rng);
    let mut loaded = file_roundtrip(
        &sampler,
        "fair-nns",
        |s, p| s.save(p).expect("save"),
        |p| SetNns::load(p).expect("load"),
    );
    let mut qrng = StdRng::seed_from_u64(5);
    let got: Vec<Option<PointId>> = [0u32, 3, 7, 10, 13, 16, 19, 22, 25, 28]
        .iter()
        .map(|&qi| loaded.sample(&data.point(PointId(qi)).clone(), &mut qrng))
        .collect();
    assert_eq!(ids(&got), GOLDEN_FAIR_NNS);
}

#[test]
fn loaded_fair_nnis_reproduces_the_golden_sequence() {
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(2);
    let sampler: SetNnis = FairNnis::build(&MinHash, params(data.len()), &data, near(), &mut rng);
    let mut loaded = file_roundtrip(
        &sampler,
        "fair-nnis",
        |s, p| s.save(p).expect("save"),
        |p| SetNnis::load(p).expect("load"),
    );
    let query = data.point(PointId(0)).clone();
    let mut qrng = StdRng::seed_from_u64(99);
    let got: Vec<Option<PointId>> = (0..20).map(|_| loaded.sample(&query, &mut qrng)).collect();
    assert_eq!(ids(&got), GOLDEN_FAIR_NNIS);
}

#[test]
fn loaded_rank_swap_reproduces_the_golden_sequence() {
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(3);
    let sampler: SetRankSwap =
        RankSwapSampler::build(&MinHash, params(data.len()), &data, near(), &mut rng);
    let mut loaded = file_roundtrip(
        &sampler,
        "rank-swap",
        |s, p| s.save(p).expect("save"),
        |p| SetRankSwap::load(p).expect("load"),
    );
    let query = data.point(PointId(4)).clone();
    let mut qrng = StdRng::seed_from_u64(7);
    let got: Vec<Option<PointId>> = (0..20).map(|_| loaded.sample(&query, &mut qrng)).collect();
    assert_eq!(ids(&got), GOLDEN_RANK_SWAP);
}

#[test]
fn mid_sequence_rank_swap_snapshot_continues_the_sequence() {
    // The rank-swap sampler mutates its permutation on every draw; a
    // snapshot taken mid-sequence must capture that state, so the restored
    // sampler continues exactly where the saved one stood.
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(3);
    let mut sampler: SetRankSwap =
        RankSwapSampler::build(&MinHash, params(data.len()), &data, near(), &mut rng);
    let query = data.point(PointId(4)).clone();
    let mut qrng = StdRng::seed_from_u64(7);
    let mut got: Vec<Option<PointId>> =
        (0..10).map(|_| sampler.sample(&query, &mut qrng)).collect();
    let mut restored = file_roundtrip(
        &sampler,
        "rank-swap-mid",
        |s, p| s.save(p).expect("save"),
        |p| SetRankSwap::load(p).expect("load"),
    );
    got.extend((0..10).map(|_| restored.sample(&query, &mut qrng)));
    assert_eq!(ids(&got), GOLDEN_RANK_SWAP);
}

#[test]
fn loaded_sharded_index_reproduces_the_golden_sequence() {
    let data = golden_dataset();
    let index: SetSharded = ShardedIndex::build(
        &MinHash,
        params(data.len()),
        &data,
        near(),
        ShardedIndexConfig::default().seeded(17),
    );
    let loaded = file_roundtrip(
        &index,
        "sharded",
        |s, p| s.save(p).expect("save"),
        |p| SetSharded::load(p).expect("load"),
    );
    let query = data.point(PointId(0)).clone();
    let mut qrng = StdRng::seed_from_u64(11);
    let got: Vec<Option<PointId>> = (0..20)
        .map(|_| loaded.sample(&query, &mut qrng).0)
        .collect();
    assert_eq!(ids(&got), GOLDEN_SHARDED);
}

#[test]
fn reopened_engine_reproduces_the_golden_batch() {
    // The acceptance criterion of the snapshot subsystem: an engine
    // restarted from its directory (checkpoint load + empty WAL replay)
    // answers the pinned batch bit-for-bit through a reader pin.
    let data = golden_dataset();
    let dir = std::env::temp_dir().join(format!("fairnn-roundtrip-{}-engine", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer: SetWriter = EngineWriter::bootstrap(
        &MinHash,
        params(data.len()),
        &data,
        near(),
        ShardedIndexConfig::default().seeded(23),
        &dir,
    )
    .expect("bootstrap");
    drop(writer);
    let reopened = SetWriter::open(&dir).expect("reopen");
    let batch: Vec<SparseSet> = (0..10u32).map(|i| data.point(PointId(i)).clone()).collect();
    let response = reopened.reader().pin().run_batch(&QueryRequest::new(batch));
    let first: Vec<Option<PointId>> = response.answers.iter().map(|a| a.id).collect();
    assert_eq!(ids(&first), GOLDEN_ENGINE_FIRST);
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
}

/// Saves via the structure's own `save`, reopens through the explicit
/// [`SnapshotImage`] path (one verified buffer, borrowed columns), decodes.
fn via_image<T, S>(value: &T, name: &str, kind: SnapshotKind, save: S) -> T
where
    T: fairnn_snapshot::SnapshotCodec,
    S: FnOnce(&T, &PathBuf),
{
    let path = temp_path(name);
    save(value, &path);
    let image = SnapshotImage::open(&path).expect("open snapshot image");
    let _ = std::fs::remove_file(&path);
    assert_eq!(image.kind_tag(), kind.tag(), "header kind tag");
    image.decode(kind).expect("decode from image")
}

#[test]
fn snapshot_image_decoded_structures_replay_every_golden_sequence() {
    // The explicit zero-copy path — `SnapshotImage::open` → `decode`, all
    // columns borrowing the one image buffer — must replay all four
    // seed-pinned golden sequences and the engine batch byte-identically
    // to the live structures. (`load()` routes through the same image, but
    // this pins the public API an embedding process would use to share one
    // page-cache-resident image across consumers.)
    let data = golden_dataset();
    let p = params(data.len());

    let mut rng = StdRng::seed_from_u64(1);
    let nns: SetNns = FairNns::build(&MinHash, p, &data, near(), &mut rng);
    let mut nns = via_image(&nns, "image-nns", SnapshotKind::FairNns, |s, path| {
        s.save(path).expect("save")
    });
    let mut qrng = StdRng::seed_from_u64(5);
    let got: Vec<Option<PointId>> = [0u32, 3, 7, 10, 13, 16, 19, 22, 25, 28]
        .iter()
        .map(|&qi| nns.sample(&data.point(PointId(qi)).clone(), &mut qrng))
        .collect();
    assert_eq!(ids(&got), GOLDEN_FAIR_NNS);

    let mut rng = StdRng::seed_from_u64(2);
    let nnis: SetNnis = FairNnis::build(&MinHash, p, &data, near(), &mut rng);
    let mut nnis = via_image(&nnis, "image-nnis", SnapshotKind::FairNnis, |s, path| {
        s.save(path).expect("save")
    });
    let query = data.point(PointId(0)).clone();
    let mut qrng = StdRng::seed_from_u64(99);
    let got: Vec<Option<PointId>> = (0..20).map(|_| nnis.sample(&query, &mut qrng)).collect();
    assert_eq!(ids(&got), GOLDEN_FAIR_NNIS);

    let mut rng = StdRng::seed_from_u64(3);
    let swap: SetRankSwap = RankSwapSampler::build(&MinHash, p, &data, near(), &mut rng);
    let mut swap = via_image(&swap, "image-swap", SnapshotKind::RankSwap, |s, path| {
        s.save(path).expect("save")
    });
    let query = data.point(PointId(4)).clone();
    let mut qrng = StdRng::seed_from_u64(7);
    let got: Vec<Option<PointId>> = (0..20).map(|_| swap.sample(&query, &mut qrng)).collect();
    assert_eq!(ids(&got), GOLDEN_RANK_SWAP);

    let sharded: SetSharded = ShardedIndex::build(
        &MinHash,
        p,
        &data,
        near(),
        ShardedIndexConfig::default().seeded(17),
    );
    let sharded = via_image(
        &sharded,
        "image-sharded",
        SnapshotKind::ShardedIndex,
        |s, path| s.save(path).expect("save"),
    );
    let query = data.point(PointId(0)).clone();
    let mut qrng = StdRng::seed_from_u64(11);
    let got: Vec<Option<PointId>> = (0..20)
        .map(|_| sharded.sample(&query, &mut qrng).0)
        .collect();
    assert_eq!(ids(&got), GOLDEN_SHARDED);

    let checkpoint = SetCheckpoint {
        seq: 0,
        index: ShardedIndex::build(
            &MinHash,
            p,
            &data,
            near(),
            ShardedIndexConfig::default().seeded(23),
        ),
    };
    let checkpoint = via_image(
        &checkpoint,
        "image-checkpoint",
        SnapshotKind::Checkpoint,
        |s, path| fairnn_snapshot::save(SnapshotKind::Checkpoint, s, path).expect("save"),
    );
    let batch: Vec<SparseSet> = (0..10u32).map(|i| data.point(PointId(i)).clone()).collect();
    let first: Vec<Option<PointId>> = checkpoint
        .index
        .run_batch(&QueryRequest::new(batch))
        .iter()
        .map(|a| a.id)
        .collect();
    assert_eq!(ids(&first), GOLDEN_ENGINE_FIRST);
}

#[test]
fn save_load_save_is_byte_identical_for_every_structure() {
    let data = golden_dataset();
    let p = params(data.len());

    let mut rng = StdRng::seed_from_u64(1);
    let nns: SetNns = FairNns::build(&MinHash, p, &data, near(), &mut rng);
    let bytes = to_bytes(SnapshotKind::FairNns, &nns);
    let back: SetNns = from_bytes(SnapshotKind::FairNns, &bytes).expect("load");
    assert_eq!(to_bytes(SnapshotKind::FairNns, &back), bytes, "FairNns");

    let mut rng = StdRng::seed_from_u64(2);
    let nnis: SetNnis = FairNnis::build(&MinHash, p, &data, near(), &mut rng);
    let bytes = to_bytes(SnapshotKind::FairNnis, &nnis);
    let back: SetNnis = from_bytes(SnapshotKind::FairNnis, &bytes).expect("load");
    assert_eq!(to_bytes(SnapshotKind::FairNnis, &back), bytes, "FairNnis");

    let mut rng = StdRng::seed_from_u64(3);
    let swap: SetRankSwap = RankSwapSampler::build(&MinHash, p, &data, near(), &mut rng);
    let bytes = to_bytes(SnapshotKind::RankSwap, &swap);
    let back: SetRankSwap = from_bytes(SnapshotKind::RankSwap, &bytes).expect("load");
    assert_eq!(to_bytes(SnapshotKind::RankSwap, &back), bytes, "RankSwap");

    let sharded: SetSharded = ShardedIndex::build(
        &MinHash,
        p,
        &data,
        near(),
        ShardedIndexConfig::default().seeded(17),
    );
    let bytes = to_bytes(SnapshotKind::ShardedIndex, &sharded);
    let back: SetSharded = from_bytes(SnapshotKind::ShardedIndex, &bytes).expect("load");
    assert_eq!(
        to_bytes(SnapshotKind::ShardedIndex, &back),
        bytes,
        "ShardedIndex"
    );

    let checkpoint = SetCheckpoint {
        seq: 5,
        index: sharded,
    };
    let bytes = to_bytes(SnapshotKind::Checkpoint, &checkpoint);
    let back: SetCheckpoint = from_bytes(SnapshotKind::Checkpoint, &bytes).expect("load");
    assert_eq!(
        to_bytes(SnapshotKind::Checkpoint, &back),
        bytes,
        "Checkpoint"
    );
}

/// `(len, FNV-1a 64)` of a snapshot image: pins its exact bytes. The hash
/// is a local copy, so the pins do not depend on the container's own
/// checksum.
fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (bytes.len(), hash)
}

#[test]
fn golden_images_keep_their_exact_bytes() {
    // The on-disk format of every snapshot type, pinned byte for byte: a
    // change to any encoder, to the section split or to the container
    // shows up here even when it still round-trips.
    let data = golden_dataset();
    let p = params(data.len());

    let lsh: LshIndex<Hasher> =
        LshIndex::build(&MinHash, p, data.points(), &mut StdRng::seed_from_u64(4));
    let nns: SetNns = FairNns::build(&MinHash, p, &data, near(), &mut StdRng::seed_from_u64(1));
    let nnis: SetNnis = FairNnis::build(&MinHash, p, &data, near(), &mut StdRng::seed_from_u64(2));
    let swap: SetRankSwap =
        RankSwapSampler::build(&MinHash, p, &data, near(), &mut StdRng::seed_from_u64(3));
    let sharded: SetSharded = ShardedIndex::build(
        &MinHash,
        p,
        &data,
        near(),
        ShardedIndexConfig::default().seeded(17),
    );
    let checkpoint = SetCheckpoint {
        seq: 5,
        index: sharded.clone(),
    };
    let images = [
        ("LshIndex", to_bytes(SnapshotKind::LshIndex, &lsh)),
        ("FairNns", to_bytes(SnapshotKind::FairNns, &nns)),
        ("FairNnis", to_bytes(SnapshotKind::FairNnis, &nnis)),
        ("RankSwap", to_bytes(SnapshotKind::RankSwap, &swap)),
        (
            "ShardedIndex",
            to_bytes(SnapshotKind::ShardedIndex, &sharded),
        ),
        (
            "Checkpoint",
            to_bytes(SnapshotKind::Checkpoint, &checkpoint),
        ),
    ];
    // Format version 12: every image's header carries the new version.
    // The LshIndex, ShardedIndex and Checkpoint images differ from v11 in
    // that version field alone. FairNns, RankSwap and FairNnis images split
    // the old single FairNns section into a head, the bank and one section
    // per table (FairNnis follows them with its sketch sections and drops
    // its stored configuration and sketch parameters), so each is 664 to
    // 704 bytes longer here while bucket contents stay as they were.
    let pinned: [(usize, u64); 6] = [
        (4868, 6593985300665986410),
        (8452, 14241035985228195323),
        (46480, 7622585664202525122),
        (8516, 5825873970245263675),
        (9032, 9779342332353335213),
        (9096, 1761622028693186825),
    ];
    for ((name, image), want) in images.iter().zip(pinned) {
        assert_eq!(fingerprint(image), want, "{name} image bytes changed");
    }

    // The checkpoint file an engine leaves behind after bootstrap →
    // commit → checkpoint → commit → checkpoint.
    let dir = std::env::temp_dir().join(format!(
        "fairnn-roundtrip-golden-ckpt-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer: SetWriter = EngineWriter::bootstrap(
        &MinHash,
        p,
        &data,
        near(),
        ShardedIndexConfig::default().seeded(23),
        &dir,
    )
    .expect("bootstrap");
    let mut items: Vec<u32> = (0..25).collect();
    items.push(100);
    items.push(777);
    writer
        .commit(WriteBatch::new().insert(SparseSet::from_items(items.clone())))
        .expect("first commit");
    writer.checkpoint().expect("first checkpoint");
    items.push(778);
    writer
        .commit(
            WriteBatch::new()
                .insert(SparseSet::from_items(items))
                .delete(PointId(3)),
        )
        .expect("second commit");
    writer.checkpoint().expect("second checkpoint");
    let file = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("read checkpoint");
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        fingerprint(&file),
        (9416, 16559263208355623547),
        "checkpoint.snap bytes changed"
    );
}

#[test]
fn updates_after_load_behave_like_updates_after_freeze() {
    // Commits on a recovered engine (whose tables borrow the checkpoint
    // image) must answer exactly like the same commits applied to the
    // writer it was saved from: the live path and checkpoint-recovery path
    // share one apply routine.
    let data = golden_dataset();
    let dir_live = std::env::temp_dir().join(format!(
        "fairnn-roundtrip-writer-live-{}",
        std::process::id()
    ));
    let dir_copy = std::env::temp_dir().join(format!(
        "fairnn-roundtrip-writer-copy-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir_live);
    let _ = std::fs::remove_dir_all(&dir_copy);
    let mut writer: SetWriter = EngineWriter::bootstrap(
        &MinHash,
        params(data.len()),
        &data,
        near(),
        ShardedIndexConfig::default().seeded(23),
        &dir_live,
    )
    .expect("bootstrap");
    std::fs::create_dir_all(&dir_copy).expect("mkdir");
    for file in [CHECKPOINT_FILE, WAL_FILE] {
        std::fs::copy(dir_live.join(file), dir_copy.join(file)).expect("copy engine dir");
    }
    let mut loaded: SetWriter = EngineWriter::open(&dir_copy).expect("open");

    let mut items: Vec<u32> = (0..25).collect();
    items.push(100);
    items.push(777);
    let twin = SparseSet::from_items(items);
    let live_receipt = writer
        .commit(WriteBatch::new().insert(twin.clone()))
        .expect("live commit");
    let loaded_receipt = loaded
        .commit(WriteBatch::new().insert(twin.clone()))
        .expect("loaded commit");
    assert_eq!(live_receipt.assigned, loaded_receipt.assigned);

    let batch: Vec<SparseSet> = (0..10u32)
        .map(|i| data.point(PointId(i)).clone())
        .chain(std::iter::once(twin))
        .collect();
    for b in 0..3u64 {
        let request = QueryRequest::new(batch.clone()).with_batch(b);
        assert_eq!(
            writer.reader().pin().run_batch(&request),
            loaded.reader().pin().run_batch(&request)
        );
    }

    // Deletes (which may trigger a compaction) stay in lockstep too.
    writer
        .commit(WriteBatch::new().delete(PointId(0)))
        .expect("live delete");
    loaded
        .commit(WriteBatch::new().delete(PointId(0)))
        .expect("loaded delete");
    let request = QueryRequest::new(batch).with_batch(9);
    assert_eq!(
        writer.reader().pin().run_batch(&request),
        loaded.reader().pin().run_batch(&request)
    );
    assert_eq!(
        to_bytes(SnapshotKind::ShardedIndex, writer.staging()),
        to_bytes(SnapshotKind::ShardedIndex, loaded.staging()),
        "live and recovered staging diverged"
    );
    let _ = std::fs::remove_dir_all(dir_live);
    let _ = std::fs::remove_dir_all(dir_copy);
}

/// A small FairNns snapshot image the corruption tests mutate.
fn small_snapshot() -> Vec<u8> {
    static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IMAGE
        .get_or_init(|| {
            let data = golden_dataset();
            let mut rng = StdRng::seed_from_u64(1);
            let sampler: SetNns =
                FairNns::build(&MinHash, params(data.len()), &data, near(), &mut rng);
            to_bytes(SnapshotKind::FairNns, &sampler)
        })
        .clone()
}

/// A FairNnis snapshot image (carries per-bucket sketches and the distinct
/// value table — the state whose cross-structure invariants the decoder
/// must re-verify).
fn small_nnis_snapshot() -> Vec<u8> {
    static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IMAGE
        .get_or_init(|| {
            let data = golden_dataset();
            let mut rng = StdRng::seed_from_u64(2);
            let sampler: SetNnis =
                FairNnis::build(&MinHash, params(data.len()), &data, near(), &mut rng);
            to_bytes(SnapshotKind::FairNnis, &sampler)
        })
        .clone()
}

/// A ShardedIndex snapshot image (next global id, hasher bank, base and delta).
fn small_sharded_snapshot() -> Vec<u8> {
    static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IMAGE
        .get_or_init(|| {
            let data = golden_dataset();
            let index: SetSharded = ShardedIndex::build(
                &MinHash,
                params(data.len()),
                &data,
                near(),
                ShardedIndexConfig::default().seeded(17),
            );
            to_bytes(SnapshotKind::ShardedIndex, &index)
        })
        .clone()
}

/// Flips one payload byte and repairs every checksum (each section's
/// directory entry plus the header checksum over the directory), so the
/// mutation reaches the structural decoders instead of the checksum wall.
fn flip_and_repair(bytes: &[u8], offset: usize, flip: u8) -> Vec<u8> {
    let offset = HEADER_LEN + (offset % (bytes.len() - HEADER_LEN));
    let mut mutated = bytes.to_vec();
    mutated[offset] ^= flip;
    fairnn_snapshot::repair_checksums(&mut mutated);
    mutated
}

fn load_small(bytes: &[u8]) -> Result<SetNns, SnapshotError> {
    from_bytes(SnapshotKind::FairNns, bytes)
}

#[test]
fn corrupted_truncated_and_version_bumped_snapshots_fail_typed() {
    let bytes = small_snapshot();

    // Payload corruption → checksum mismatch.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    assert!(matches!(
        load_small(&corrupt),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Truncation → typed truncation error, at header and payload cuts.
    for cut in [
        0,
        4,
        HEADER_LEN - 1,
        HEADER_LEN,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        assert!(
            matches!(
                load_small(&bytes[..cut]),
                Err(SnapshotError::Truncated { .. })
            ),
            "cut at {cut} must report truncation"
        );
    }

    // Version bump → typed version rejection (no migration shims).
    let mut bumped = bytes.clone();
    bumped[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        load_small(&bumped),
        Err(SnapshotError::UnsupportedVersion { found, supported })
            if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
    ));

    // Old-version files — the flat v1 layout, the unaligned v2 sections,
    // v3 images still carrying the engine's tuning knobs, v4 images with a
    // hasher bank inside every shard section, v5 images with per-bucket
    // KMV sketch maps inside every shard section, v6 images of `N` shards,
    // v7 images with an id map in the index head, v8 images under FNV-1a
    // checksums, v9 images with the engine's bank as K x L coefficient
    // pairs, v10 images with an open-addressing slot index in every frozen
    // table and v11 images with a single-section FairNns and a FairNnis
    // storing its configuration — get the same typed rejection (no
    // migration shims), and the message tells the operator how to move
    // forward: re-save with a current binary.
    for found in [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&found.to_le_bytes());
        let err = load_small(&old).expect_err("an old-version file must not load");
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found: f, supported }
                if f == found && supported == FORMAT_VERSION
        ));
        let message = err.to_string();
        assert!(
            message.contains("re-sav") && message.contains(&format!("version {FORMAT_VERSION}")),
            "v{found} error must carry an upgrade hint, got: {message}"
        );
    }

    // Wrong magic → BadMagic.
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'Z';
    assert!(matches!(
        load_small(&wrong_magic),
        Err(SnapshotError::BadMagic { .. })
    ));

    // Wrong structure kind → KindMismatch (a FairNnis loader must refuse a
    // FairNns file instead of misreading it).
    assert!(matches!(
        from_bytes::<SetNnis>(SnapshotKind::FairNnis, &bytes),
        Err(SnapshotError::KindMismatch { .. })
    ));

    // Trailing garbage → TrailingBytes.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0, 1, 2]);
    assert!(matches!(
        load_small(&padded),
        Err(SnapshotError::TrailingBytes { .. })
    ));

    // The pristine image still loads.
    assert!(load_small(&bytes).is_ok());
}

/// The sections of the golden index built with `params`: `[head, hasher
/// bank, base points, base table ranges…, delta points, delta table
/// ranges…]`.
fn sharded_sections(params: LshParams) -> Vec<Vec<u8>> {
    let index: SetSharded = ShardedIndex::build(
        &MinHash,
        params,
        &golden_dataset(),
        near(),
        ShardedIndexConfig::default().seeded(17),
    );
    index.encode_sections()
}

/// Loads a sharded image assembled from `sections`.
fn load_sections(sections: Vec<Vec<u8>>) -> Result<SetSharded, SnapshotError> {
    let image = image_from_sections(SnapshotKind::ShardedIndex, sections);
    from_bytes(SnapshotKind::ShardedIndex, &image)
}

#[test]
fn hasher_bank_that_does_not_fit_the_stored_parameters_fails_the_load() {
    // A bank of (K + 1) x L rows under a head declaring K x L: well-formed
    // section by section, so only the cross-check can catch it before a
    // query hashes with the wrong functions.
    let base = params(golden_dataset().len());
    let mut spliced = sharded_sections(base);
    assert!(load_sections(spliced.clone()).is_ok());
    spliced[1] = sharded_sections(LshParams {
        k: base.k + 1,
        ..base
    })[1]
        .clone();
    assert!(matches!(
        load_sections(spliced),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// Loads an image of `kind` assembled from `sections`.
fn load_image<T: SnapshotCodec>(
    kind: SnapshotKind,
    sections: Vec<Vec<u8>>,
) -> Result<T, SnapshotError> {
    from_bytes(kind, &image_from_sections(kind, sections))
}

/// Splices the bank section (section 1) of a `K + 1` build of `build` into
/// the sections of a `K` build: the load must fail with `Corrupt`.
fn assert_rejects_a_wider_bank<T: SnapshotCodec>(
    kind: SnapshotKind,
    build: impl Fn(LshParams) -> T,
) {
    let base = params(golden_dataset().len());
    let mut spliced = build(base).encode_sections();
    assert!(load_image::<T>(kind, spliced.clone()).is_ok(), "{kind:?}");
    spliced[1] = build(LshParams {
        k: base.k + 1,
        ..base
    })
    .encode_sections()[1]
        .clone();
    let err = load_image::<T>(kind, spliced).err();
    assert!(
        matches!(&err, Some(SnapshotError::Corrupt(msg)) if msg.contains("hasher bank")),
        "{kind:?}: {err:?}"
    );
}

#[test]
fn paper_sampler_bank_that_does_not_fit_the_stored_parameters_fails_the_load() {
    // The same splice for the ranked layout, whose section 1 is the bank
    // in FairNns, RankSwapSampler and FairNnis images alike.
    let data = golden_dataset();
    let rng = || StdRng::seed_from_u64(3);
    assert_rejects_a_wider_bank(SnapshotKind::FairNns, |p| -> SetNns {
        FairNns::build(&MinHash, p, &data, near(), &mut rng())
    });
    assert_rejects_a_wider_bank(SnapshotKind::RankSwap, |p| -> SetRankSwap {
        RankSwapSampler::build(&MinHash, p, &data, near(), &mut rng())
    });
    assert_rejects_a_wider_bank(SnapshotKind::FairNnis, |p| -> SetNnis {
        FairNnis::build(&MinHash, p, &data, near(), &mut rng())
    });
}

#[test]
fn a_stored_rank_that_is_not_its_points_rank_fails_the_load() {
    // An entry (r, id) of a rank-sorted bucket moved to rank r + 1, still
    // below the next entry's rank: the bucket stays sorted and every rank
    // stays below n, but the min-rank scan would now order `id` by a rank
    // the permutation gives another point. The decoder must compare each
    // stored rank with the permutation.
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(1);
    let index: LshIndex<Hasher> =
        LshIndex::build(&MinHash, params(data.len()), data.points(), &mut rng);
    let ranks = RankPermutation::random(data.len(), &mut rng);
    let ((rank, id), (next_rank, next_id)) = index
        .tables()
        .iter()
        .flat_map(|table| table.buckets())
        .find_map(|(_, ids)| {
            let mut entries: Vec<(u32, PointId)> =
                ids.iter().map(|&id| (ranks.rank(id), id)).collect();
            entries.sort_unstable();
            entries
                .windows(2)
                .find(|w| w[1].0 > w[0].0 + 1)
                .map(|w| (w[0], w[1]))
        })
        .expect("a bucket with a gap between two ranks");
    let sampler: SetNns = FairNns::from_index(index, &data, ranks, near());
    let bytes = to_bytes(SnapshotKind::FairNns, &sampler);
    // The two entries as the image stores them: rank, id, rank, id.
    let pair: Vec<u8> = [rank, id.0, next_rank, next_id.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at = bytes
        .windows(pair.len())
        .position(|w| w == pair.as_slice())
        .expect("the entry pair in the image");
    let mut moved = bytes.clone();
    moved[at..at + 4].copy_from_slice(&(rank + 1).to_le_bytes());
    fairnn_snapshot::repair_checksums(&mut moved);
    assert!(load_small(&bytes).is_ok());
    let err = load_small(&moved).err();
    assert!(
        matches!(&err, Some(SnapshotError::Corrupt(msg)) if msg.contains("rank permutation")),
        "{err:?}"
    );
}

#[test]
fn shard_whose_table_count_is_not_l_fails_the_load() {
    // The base's first table range taken from an index with L + 1 tables:
    // its extra table would never be keyed, and a query would index past
    // the bank's keys.
    let base = params(golden_dataset().len());
    let mut spliced = sharded_sections(base);
    spliced[3] = sharded_sections(LshParams {
        l: base.l + 1,
        ..base
    })[3]
        .clone();
    assert!(matches!(
        load_sections(spliced),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn next_id_not_above_a_stored_id_fails_the_load() {
    // The head section holds the next global id, then the parameters and
    // the config. A head whose next id is not above every stored id would
    // hand a held id to the next insert, so the load must refuse it.
    let p = params(golden_dataset().len());
    let n = golden_dataset().len() as u32;
    let head = |next_id: u32| {
        let mut enc = fairnn_snapshot::Encoder::new();
        PointId(next_id).encode(&mut enc);
        p.encode(&mut enc);
        ShardedIndexConfig::default().seeded(17).encode(&mut enc);
        enc.into_bytes()
    };
    let mut spliced = sharded_sections(p);
    assert_eq!(spliced[0], head(n), "the head layout changed");
    spliced[0] = head(n + 40);
    assert!(load_sections(spliced.clone()).is_ok(), "ids may be skipped");
    for next_id in [0, n - 1] {
        spliced[0] = head(next_id);
        assert!(
            matches!(load_sections(spliced.clone()), Err(SnapshotError::Corrupt(msg)) if msg.contains("next id")),
            "next id {next_id} loaded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_single_byte_flips_never_panic(offset in 0usize..1 << 16, flip in 1u8..=255) {
        let bytes = small_snapshot();
        let offset = offset % bytes.len();
        // Offsets 16..20 are the reserved header field, which loaders
        // deliberately ignore; everywhere else a flip must be rejected.
        let mut mutated = bytes.clone();
        mutated[offset] ^= flip;
        match load_small(&mutated) {
            Err(_) => {}
            Ok(_) => prop_assert!(
                (16..20).contains(&offset),
                "flip at {offset} was accepted outside the reserved field"
            ),
        }
    }

    #[test]
    fn random_truncations_never_panic(cut in 0usize..1 << 16) {
        let bytes = small_snapshot();
        let cut = cut % bytes.len();
        prop_assert!(load_small(&bytes[..cut]).is_err());
    }

    #[test]
    fn checksum_repaired_corruption_is_rejected_or_decoded_never_panics(
        offset in 0usize..1 << 16,
        flip in 1u8..=255,
    ) {
        // The decoders must survive arbitrary checksum-valid payloads:
        // either a typed error or a structurally valid value, never a
        // panic.
        let mutated = flip_and_repair(&small_snapshot(), offset, flip);
        let _ = load_small(&mutated);
    }

    #[test]
    fn corrupt_fair_nnis_snapshots_reject_at_load_or_serve_cleanly(
        offset in 0usize..1 << 20,
        flip in 1u8..=255,
    ) {
        // FairNnis carries per-bucket sketches whose seeds/parameters must
        // agree with the sampler's accumulator: a mutation that breaks that
        // cross-structure invariant must be rejected by `load`, not panic
        // inside `merge` on the first query.
        let mutated = flip_and_repair(&small_nnis_snapshot(), offset, flip);
        if let Ok(mut loaded) = from_bytes::<SetNnis>(SnapshotKind::FairNnis, &mutated) {
            let data = golden_dataset();
            let query = data.point(PointId(0)).clone();
            let mut qrng = StdRng::seed_from_u64(99);
            for _ in 0..3 {
                let _ = loaded.sample(&query, &mut qrng);
            }
        }
    }

    #[test]
    fn corrupt_sharded_snapshots_reject_at_load_or_serve_cleanly(
        offset in 0usize..1 << 20,
        flip in 1u8..=255,
    ) {
        // Same property for the index's bank and part tables.
        let mutated = flip_and_repair(&small_sharded_snapshot(), offset, flip);
        if let Ok(loaded) = from_bytes::<SetSharded>(SnapshotKind::ShardedIndex, &mutated) {
            let data = golden_dataset();
            let query = data.point(PointId(0)).clone();
            let mut qrng = StdRng::seed_from_u64(11);
            for _ in 0..3 {
                let _ = loaded.sample(&query, &mut qrng);
            }
        }
    }
}
