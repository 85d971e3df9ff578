//! The write-ahead log: durable commit records between checkpoints.
//!
//! A generational engine writer appends one record per committed write
//! batch *before* publishing the new generation, so a crashed process
//! replays `checkpoint + WAL tail` instead of rebuilding from raw points.
//! The log is deliberately dumb — it stores opaque [`crate::Codec`]
//! payloads; the engine owns the record schema (sequence number + batch)
//! and the replay semantics.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! ------  ----  --------------------------------------------------
//!      0     8  magic            "FAIRNNWL"
//!      8     4  wal version      (this build reads exactly WAL_VERSION)
//!     12     4  reserved         zero; room for future flags
//!     16     …  records, back to back:
//!               [u32 payload len][u64 checksum64 of payload][payload]
//! ```
//!
//! Records are append-only and each `append` is followed by an
//! `fdatasync`, so after a crash the file is a valid prefix plus at most
//! one torn record. [`read_wal`] recovers accordingly: a record cut short
//! by the end of the file, or a checksum-mismatching **final** record, is
//! a torn tail — dropped, reported via [`WalReplay::dropped_tail`], and
//! truncated away when the writer [`WalWriter::resume`]s. A checksum
//! mismatch on an *interior* record cannot be a torn write (a synced
//! record followed it) and is reported as corruption instead. Reading
//! never panics on malformed input, like every other decoder in this
//! crate.

use crate::codec::Decoder;
use crate::container::{checksum64, sync_parent_dir};
use crate::error::SnapshotError;
use fairnn_obs::{LazyCounter, LazyHistogram, Timer};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Wall time of the `fdatasync` that makes each appended record durable —
/// the latency floor of a commit.
static WAL_FSYNC_NS: LazyHistogram = LazyHistogram::new(
    "snapshot_wal_fsync_ns",
    "wall time of the per-append WAL fdatasync in nanoseconds",
);

/// Total record bytes (headers included) appended to write-ahead logs.
static WAL_BYTES_WRITTEN: LazyCounter = LazyCounter::new(
    "snapshot_wal_bytes_written_total",
    "total WAL record bytes written by append",
);

/// Records recovered by [`read_wal`] across all replays.
static WAL_RECORDS_REPLAYED: LazyCounter = LazyCounter::new(
    "snapshot_wal_records_replayed_total",
    "WAL records successfully read back during replay",
);

/// Torn tails detected (and dropped) by [`read_wal`].
static WAL_TAILS_DROPPED: LazyCounter = LazyCounter::new(
    "snapshot_wal_tails_dropped_total",
    "torn WAL tail records detected and dropped during replay",
);

/// Magic bytes at offset 0 of every write-ahead log.
pub const WAL_MAGIC: [u8; 8] = *b"FAIRNNWL";

/// The single WAL format version this build writes and reads. Version
/// bumps are deliberate breaks, exactly like the snapshot container: a
/// reader accepts one version and rejects everything else with a typed
/// [`SnapshotError::UnsupportedVersion`] whose message says to checkpoint
/// with the build that wrote the log. Version history: 1 = FNV-1a record
/// checksums; 2 = the word-wise [`checksum64`] of snapshot format 9.
pub const WAL_VERSION: u32 = 2;

/// File-header size in bytes.
pub const WAL_HEADER_LEN: usize = 16;

/// Per-record header size: `u32` payload length + `u64` payload checksum.
const RECORD_HEADER_LEN: usize = 12;

/// An append-only write-ahead log open for writing. Every [`append`]
/// writes one length-prefixed, checksummed record and `fdatasync`s it, so
/// an acknowledged commit survives process death.
///
/// [`append`]: WalWriter::append
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    bytes: u64,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` and writes the file
    /// header durably, directory entry included.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let mut file = std::fs::File::create(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        sync_parent_dir(path)?;
        Ok(Self {
            file,
            bytes: WAL_HEADER_LEN as u64,
        })
    }

    /// Reopens an existing log for appending, truncating it to
    /// `valid_len` first — the [`WalReplay::valid_len`] a preceding
    /// [`read_wal`] established, so a dropped torn tail is physically
    /// removed before new records land after it.
    pub fn resume<P: AsRef<Path>>(path: P, valid_len: u64) -> Result<Self, SnapshotError> {
        if valid_len < WAL_HEADER_LEN as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "wal valid length {valid_len} is shorter than the {WAL_HEADER_LEN}-byte header"
            )));
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        Ok(Self {
            file,
            bytes: valid_len,
        })
    }

    /// Appends one record and makes it durable (`fdatasync`). Returns the
    /// total record size in bytes (header + payload).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, SnapshotError> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            SnapshotError::Corrupt(format!(
                "wal record payload of {} bytes exceeds the u32 length field",
                payload.len()
            ))
        })?;
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&checksum64(payload).to_le_bytes());
        record.extend_from_slice(payload);
        self.file.write_all(&record)?;
        {
            let _timer = Timer::start(&WAL_FSYNC_NS);
            self.file.sync_data()?;
        }
        WAL_BYTES_WRITTEN.add(record.len() as u64);
        self.bytes += record.len() as u64;
        Ok(record.len() as u64)
    }

    /// Current file length in bytes (header + every appended record).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The result of reading a write-ahead log back: the recovered record
/// payloads (in append order), the byte length of the valid prefix, and
/// whether a torn tail record was detected and dropped.
#[derive(Debug)]
pub struct WalReplay {
    /// Recovered record payloads, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Length in bytes of the valid prefix (header + intact records).
    /// [`WalWriter::resume`] truncates the file to exactly this length.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed and were dropped as a torn
    /// tail (a crash between `write` and `fdatasync`).
    pub dropped_tail: bool,
}

/// Reads the log at `path` and recovers every intact record (see the
/// module docs for the torn-tail rules).
pub fn read_wal<P: AsRef<Path>>(path: P) -> Result<WalReplay, SnapshotError> {
    let bytes = std::fs::read(path)?;
    parse_wal(&bytes)
}

/// In-memory form of [`read_wal`] (the kill-during-commit tests feed
/// byte images directly).
pub fn parse_wal(bytes: &[u8]) -> Result<WalReplay, SnapshotError> {
    let Some(header) = bytes.get(..WAL_HEADER_LEN) else {
        return Err(SnapshotError::Corrupt(format!(
            "wal header needs {WAL_HEADER_LEN} bytes, file holds {}",
            bytes.len()
        )));
    };
    let (magic, tail) = header.split_at(8);
    if magic != WAL_MAGIC {
        return Err(SnapshotError::Corrupt(format!(
            "wal magic mismatch: found {magic:02x?}"
        )));
    }
    let mut dec = Decoder::new(tail);
    let version = dec.read_u32()?;
    if version != WAL_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let _reserved = dec.read_u32()?;

    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    let mut dropped_tail = false;
    while offset < bytes.len() {
        let header_end = offset.saturating_add(RECORD_HEADER_LEN);
        let Some(record_header) = bytes.get(offset..header_end) else {
            dropped_tail = true; // record header cut short by the crash
            break;
        };
        let mut dec = Decoder::new(record_header);
        let len = dec.read_u32()? as usize;
        let stored = dec.read_u64()?;
        let end = header_end.saturating_add(len);
        let Some(payload) = bytes.get(header_end..end) else {
            dropped_tail = true; // payload cut short by the crash
            break;
        };
        let computed = checksum64(payload);
        if computed != stored {
            if end == bytes.len() {
                // Final record: a torn write that reached full length but
                // not full content. Drop it like a short tail.
                dropped_tail = true;
                break;
            }
            // Interior record: a synced record follows it, so this is bit
            // rot, not a torn write.
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        records.push(payload.to_vec());
        offset = end;
    }
    if dropped_tail {
        WAL_TAILS_DROPPED.inc();
    }
    WAL_RECORDS_REPLAYED.add(records.len() as u64);
    Ok(WalReplay {
        records,
        valid_len: offset as u64,
        dropped_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fairnn-wal-test-{tag}-{}.wal", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_records_in_order() {
        let path = temp_path("roundtrip");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"").unwrap();
        wal.append(&[0xAB; 100]).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(
            replay.records,
            vec![b"first".to_vec(), Vec::new(), vec![0xAB; 100]]
        );
        assert!(!replay.dropped_tail);
        assert_eq!(replay.valid_len, wal.bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_tail_is_dropped_at_every_cut() {
        let path = temp_path("short-tail");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(b"keep me").unwrap();
        let keep_len = wal.bytes();
        wal.append(b"torn away").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cutting exactly at the valid prefix leaves nothing torn; every
        // strictly-longer cut short of the full record must drop the tail.
        let exact = parse_wal(&full[..keep_len as usize]).unwrap();
        assert!(!exact.dropped_tail);
        for cut in keep_len as usize + 1..full.len() - 1 {
            let replay = parse_wal(&full[..cut]).unwrap();
            assert_eq!(replay.records, vec![b"keep me".to_vec()], "cut at {cut}");
            assert!(replay.dropped_tail, "cut at {cut}");
            assert_eq!(replay.valid_len, keep_len, "cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn final_record_checksum_mismatch_is_a_dropped_tail() {
        let path = temp_path("final-flip");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(b"intact").unwrap();
        let keep_len = wal.bytes();
        wal.append(b"flipped").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let replay = parse_wal(&bytes).unwrap();
        assert_eq!(replay.records, vec![b"intact".to_vec()]);
        assert!(replay.dropped_tail);
        assert_eq!(replay.valid_len, keep_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_drop() {
        let path = temp_path("interior-flip");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(b"first record").unwrap();
        wal.append(b"second record").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[WAL_HEADER_LEN + RECORD_HEADER_LEN] ^= 0x01; // first payload byte
        assert!(matches!(
            parse_wal(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_the_torn_tail_physically() {
        let path = temp_path("resume");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(b"durable").unwrap();
        wal.append(b"torn").unwrap();
        drop(wal);
        // Simulate the crash: chop the last record mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.dropped_tail);
        let mut wal = WalWriter::resume(&path, replay.valid_len).unwrap();
        wal.append(b"after recovery").unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(
            replay.records,
            vec![b"durable".to_vec(), b"after recovery".to_vec()]
        );
        assert!(!replay.dropped_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            parse_wal(b"FAIRNNW"),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("header")
        ));
        assert!(matches!(
            parse_wal(b"NOTAWAL!\x01\x00\x00\x00\x00\x00\x00\x00"),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("magic")
        ));
        let mut wrong_version = Vec::new();
        wrong_version.extend_from_slice(&WAL_MAGIC);
        wrong_version.extend_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        wrong_version.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            parse_wal(&wrong_version),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found == WAL_VERSION + 1 && supported == WAL_VERSION
        ));
    }

    #[test]
    fn v1_logs_are_rejected_with_the_typed_version_error() {
        // A v1 log (FNV-1a record checksums) with one intact record: the
        // header check fires before any record is read.
        let path = temp_path("v1");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(b"a v1 record").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = parse_wal(&bytes).expect_err("a v1 log must not replay");
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion {
                found: 1,
                supported: WAL_VERSION
            }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("version 1") && msg.contains("checkpoint with the build that wrote"),
            "the error must name the version and the upgrade path: {msg}"
        );
    }

    #[test]
    fn bit_flip_sweep_never_panics() {
        let path = temp_path("flip-sweep");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut mutated = bytes.clone();
                mutated[i] ^= bit;
                let _ = parse_wal(&mutated);
            }
        }
        for cut in 0..bytes.len() {
            let _ = parse_wal(&bytes[..cut]);
        }
    }
}
