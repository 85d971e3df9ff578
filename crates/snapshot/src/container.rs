//! The on-disk container: header, section directory, checksums, and the
//! save/load entry points.
//!
//! Layout of format version 12 (the aligned layout of version 3; all
//! integers little-endian):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic            "FAIRNNSS"
//!      8     4  format version   (this build reads exactly FORMAT_VERSION)
//!     12     4  byte-order mark  0x0A0B0C0D (reads back wrong if a writer
//!                                ever emitted native big-endian)
//!     16     4  kind tag         which structure the payload holds
//!     20     4  reserved         zero; room for future flags
//!     24     8  payload length   bytes following the header (incl. padding)
//!     32     8  checksum         checksum64 over the section directory
//!     40     4  section count    ≥ 1           ┐
//!     44    16  len + checksum   of section 0  │ the section directory
//!      …    16  len + checksum   of section k  ┘ (covered by the header
//!                                                 checksum above)
//!      …     …  zero padding to the next 64-byte image offset
//!   64·a  len0  section 0 payload                ┐ every section payload
//!      …     …  zero padding to a 64-byte offset │ starts 64-byte aligned;
//!   64·b  len1  section 1 payload                │ no padding after the
//!      …     …  …                                ┘ last section
//! ```
//!
//! **Why sections?** Version 1 stored one flat payload under one checksum,
//! which forces serial verification and decoding. Version 2 lets a
//! structure split its image into independently checksummed sections
//! ([`SnapshotCodec::encode_sections`]) — one per LSH table or range of
//! tables — so encode, checksum and decode all run on parallel build
//! workers. The bytes are identical at every thread count (sections are
//! concatenated in a fixed order).
//!
//! **Why alignment?** Version 3 places every section payload at a 64-byte-
//! aligned image offset, and the large fixed-width columns inside sections
//! use the aligned little-endian array layout of
//! [`crate::SliceCodec`] — byte-identical to the in-memory CSR/bank
//! representations. Loading through a [`SnapshotImage`] (one aligned
//! read-to-end, [`crate::ArcBytes`]) then lets those columns *borrow* the
//! image in place: a warm engine load performs O(1) large allocations and
//! zero per-element copies. Checksums cover exactly the section payloads;
//! the padding is required to be zero (a nonzero pad byte is rejected as
//! [`SnapshotError::Corrupt`]).
//!
//! The header is fully validated before a single payload byte is decoded:
//! magic → version → byte order → kind → length → directory checksum, each
//! failure a distinct [`SnapshotError`] variant; each section's checksum is
//! verified before that section is decoded. Version bumps are deliberate
//! breaks — the format has no migration shims; a reader accepts exactly one
//! version, and files written by other versions (including v2) are rejected
//! with an upgrade hint (rebuild from raw data and re-save, or re-save with
//! the build that wrote them).

use crate::bytes::{ArcBytes, SECTION_ALIGN};
use crate::codec::{Decoder, Section, SnapshotCodec};
use crate::error::SnapshotError;
use fairnn_obs::{LazyCounter, LazyHistogram, Timer};
use std::io::{BufWriter, IntoInnerError, Read, Write};
use std::path::Path;

/// Wall time of [`save`] end to end (encode + checksum + write + fsync +
/// rename).
static SAVE_NS: LazyHistogram = LazyHistogram::new(
    "snapshot_save_ns",
    "wall time of snapshot save (encode, checksum, write, fsync, rename) in nanoseconds",
);

/// Wall time of [`load`] end to end (read + verify + decode).
static LOAD_NS: LazyHistogram = LazyHistogram::new(
    "snapshot_load_ns",
    "wall time of snapshot load (read, verify, decode) in nanoseconds",
);

/// Total snapshot bytes written by [`save`].
static BYTES_WRITTEN: LazyCounter = LazyCounter::new(
    "snapshot_bytes_written_total",
    "total snapshot bytes written by save",
);

/// Total snapshot bytes read by [`load`].
static BYTES_READ: LazyCounter = LazyCounter::new(
    "snapshot_bytes_read_total",
    "total snapshot bytes read by load",
);

/// Per-section checksum cost, encode and verify sides both — the term the
/// sectioned format parallelises, so the distribution shows whether
/// sections are balanced.
static SECTION_CHECKSUM_NS: LazyHistogram = LazyHistogram::new(
    "snapshot_section_checksum_ns",
    "per-section checksum64 time (encode and verify) in nanoseconds",
);

/// Magic bytes at offset 0 of every snapshot.
pub const MAGIC: [u8; 8] = *b"FAIRNNSS";

/// The single format version this build writes and reads.
/// Version history: 1 = flat single-checksum payload; 2 = sectioned payload
/// with a per-section checksum directory (parallel encode/decode); 3 =
/// sections placed at 64-byte-aligned image offsets with aligned
/// little-endian array columns (zero-copy [`SnapshotImage`] loads); 4 =
/// the same layout without the engine's tuning knobs (rejection margin,
/// round budget, shard sketch size/threshold, compaction fraction), which
/// became constants of the code; 5 = one hasher bank per sharded index, in
/// its own section, instead of one inside every shard section; 6 = shard
/// sections without the per-bucket KMV sketch maps and their seed; 7 = a
/// base and an insert delta instead of `N` shards, each a points section
/// plus fixed table-range sections, under an id map of part and local id;
/// 8 = the same parts under the next global id instead of the id map; 9 =
/// the same layout under the word-wise [`checksum64`] instead of a
/// byte-serial FNV-1a; 10 = the engine's hasher bank as one sketch, stored
/// as its seed (bank layout tag 2) instead of `K × L` coefficient pairs;
/// 11 = every frozen table with a radix directory over its sorted keys
/// instead of an open-addressing slot index; 12 = the paper samplers in
/// one sectioned layout (a `FairNns` head, its hasher bank and one section
/// per rank-sorted table, which `RankSwapSampler` stores as is and
/// `FairNnis` follows with its sketch seed, per-table sketches and value
/// table) without `FairNnis`'s stored configuration and sketch parameters.
pub const FORMAT_VERSION: u32 = 12;

/// Byte-order marker: written little-endian, so a conforming file always
/// reads back as this value.
pub const ENDIAN_MARK: u32 = 0x0A0B_0C0D;

/// Total header size in bytes.
pub const HEADER_LEN: usize = 40;

/// Which structure a snapshot holds. The tag is stored in the header so a
/// loader immediately rejects a file holding the wrong structure instead of
/// misinterpreting its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SnapshotKind {
    /// A bare `fairnn_lsh::LshIndex`.
    LshIndex = 1,
    /// The Section 3 `fairnn_core::FairNns` structure.
    FairNns = 2,
    /// The Section 4 `fairnn_core::FairNnis` structure.
    FairNnis = 3,
    /// The Appendix A `fairnn_core::RankSwapSampler`.
    RankSwap = 4,
    /// A single shard. The engine no longer writes shards on their own (a
    /// shard is keyed by its index's shared hasher bank); the tag stays
    /// assigned for the container's own tests.
    Shard = 5,
    /// A `fairnn_engine::ShardedIndex` (base, delta and next global id).
    ShardedIndex = 6,
    // Tag 7 stays unassigned: old engine images fail with `KindMismatch`.
    /// A `fairnn_engine::Checkpoint`: a WAL sequence number plus the
    /// index it was cut at (the durable base the write-ahead log
    /// tail replays on top of).
    Checkpoint = 8,
}

impl SnapshotKind {
    /// The header tag value.
    pub fn tag(self) -> u32 {
        self as u32
    }
}

/// Lanes of [`checksum64`]: word `i` of the input feeds lane `i % LANES`.
const LANES: usize = 4;

/// Bytes the lanes consume per step: one little-endian `u64` word each.
const BLOCK: usize = LANES * 8;

/// Odd multiplier of a lane step (the 64-bit golden ratio).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial lane states (the first hexadecimal digits of π): distinct, so
/// the lanes are not interchangeable.
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One lane step: xor in the word, multiply by an odd constant, then fold
/// the high half down. For a fixed word it is a bijection of the state, so
/// a change confined to one word always changes the lane; the fold carries
/// a high-bit difference down, so two flipped bits in two words of one
/// lane cannot cancel (with the multiply alone, two bit-63 flips do).
#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    let z = (state ^ word).wrapping_mul(MUL);
    z ^ (z >> 32)
}

/// The checksum of the image header, the section directory, every section
/// and every WAL record: a word-wise hash, entirely deterministic across
/// platforms. Four independent lanes read the input as little-endian `u64`
/// words (word `i` feeds lane `i % 4`), so the multiplies of consecutive
/// words overlap; the final combine folds in the lanes, the zero-padded
/// byte tail and the length. Every lane step and every combine step is a
/// bijection of the running state, so any change confined to one word (or
/// to the tail) is always caught. A snapshot is trusted storage, so the
/// checksum guards against truncation and bit rot, not adversaries.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (blocks, rest) = bytes.as_chunks::<BLOCK>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = lane_step(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = lane_step(*lane, u64::from_le_bytes(*word));
    }
    let mut last = [0u8; 8];
    for (dst, src) in last.iter_mut().zip(tail) {
        *dst = *src;
    }
    let len = bytes.len() as u64;
    let mut hash = len;
    for lane in lanes {
        hash = lane_step(hash, lane);
    }
    hash = lane_step(hash, u64::from_le_bytes(last));
    lane_step(hash, len)
}

/// Rounds `offset` up to the next [`SECTION_ALIGN`]-byte boundary, or
/// `None` on overflow (only reachable from a corrupt directory).
fn align_up(offset: usize) -> Option<usize> {
    offset
        .checked_add(SECTION_ALIGN - 1)
        .map(|v| v & !(SECTION_ALIGN - 1))
}

/// Serializes `value` into a complete snapshot byte image (header +
/// section directory + aligned section payloads) from the sections of
/// [`SnapshotCodec::encode_sections`].
pub fn to_bytes<T: SnapshotCodec>(kind: SnapshotKind, value: &T) -> Vec<u8> {
    image_from_sections(kind, value.encode_sections())
}

/// Assembles a complete snapshot image from encoded sections: the tail of
/// [`to_bytes`], byte-identical to it over a value whose `encode_sections`
/// returns `sections`. Corruption tests use it to splice sections of
/// different values into one image.
pub fn image_from_sections(kind: SnapshotKind, sections: Vec<Vec<u8>>) -> Vec<u8> {
    let image = ImageWriter::new(kind, sections);
    let mut out = Vec::with_capacity(image.len);
    #[expect(
        clippy::expect_used,
        reason = "encode side: writing into a `Vec` cannot fail"
    )]
    image.write_to(&mut out).expect("a Vec accepts every write");
    debug_assert_eq!(out.len(), image.len);
    out
}

/// The one writer of a snapshot image, behind both [`to_bytes`] and
/// [`save`]: the header and section directory, then each section after the
/// zero padding that places it at a 64-byte-aligned image offset. Nothing
/// follows the last section. The section checksums are computed up front
/// on parallel build workers, so the image is identical at every thread
/// count and [`ImageWriter::write_to`] only copies bytes out.
struct ImageWriter {
    /// Header and section directory.
    head: Vec<u8>,
    /// Each section's payload with the zero padding written before it.
    sections: Vec<(usize, Vec<u8>)>,
    /// Total image length in bytes.
    len: usize,
}

impl ImageWriter {
    fn new(kind: SnapshotKind, sections: Vec<Vec<u8>>) -> Self {
        assert!(
            !sections.is_empty(),
            "a snapshot needs at least one section"
        );
        let checksums = fairnn_parallel::map_indexed(sections.len(), |i| {
            let _timer = Timer::start(&SECTION_CHECKSUM_NS);
            #[expect(
                clippy::indexing_slicing,
                reason = "encode side: `i` ranges over `sections.len()` by construction"
            )]
            let section = &sections[i];
            checksum64(section)
        });

        let mut directory = Vec::with_capacity(4 + sections.len() * 16);
        #[expect(
            clippy::expect_used,
            reason = "encode side: >u32::MAX sections is a programming error, not snapshot input"
        )]
        directory.extend_from_slice(
            &u32::try_from(sections.len())
                .expect("section count fits u32")
                .to_le_bytes(),
        );
        for (section, checksum) in sections.iter().zip(&checksums) {
            directory.extend_from_slice(&(section.len() as u64).to_le_bytes());
            directory.extend_from_slice(&checksum.to_le_bytes());
        }

        // Aligned placement: each section starts at the next 64-byte image
        // offset after the directory (or the previous section); the image
        // ends exactly where the last section does. Offsets here are
        // absolute (from the magic), which is what makes an aligned-buffer
        // load see aligned section payloads.
        let mut placed = Vec::with_capacity(sections.len());
        let mut cursor = HEADER_LEN + directory.len();
        for section in sections {
            #[expect(
                clippy::expect_used,
                reason = "encode side: image sizes come from in-memory values, far from usize overflow"
            )]
            let aligned = align_up(cursor).expect("image size fits usize");
            let padding = aligned - cursor;
            cursor = aligned + section.len();
            placed.push((padding, section));
        }

        let mut head = Vec::with_capacity(HEADER_LEN + directory.len());
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        head.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
        head.extend_from_slice(&kind.tag().to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        head.extend_from_slice(&((cursor - HEADER_LEN) as u64).to_le_bytes());
        head.extend_from_slice(&checksum64(&directory).to_le_bytes());
        head.extend_from_slice(&directory);
        Self {
            head,
            sections: placed,
            len: cursor,
        }
    }

    /// Writes the image to `out`, section by section: no second copy of
    /// the image is ever assembled.
    fn write_to<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(&self.head)?;
        for (padding, section) in &self.sections {
            std::io::copy(&mut std::io::repeat(0).take(*padding as u64), out)?;
            out.write_all(section)?;
        }
        Ok(())
    }
}

/// A parsed-and-verified snapshot image: the kind tag plus each section's
/// absolute `(offset, len)`. Producing one runs the complete validation
/// chain — header, directory checksum, alignment/padding, exact coverage,
/// and every section checksum (in parallel) — so holders may decode
/// sections without further integrity checks.
struct ParsedImage {
    kind_tag: u32,
    sections: Vec<(usize, usize)>,
}

/// Runs the full validation chain over a snapshot byte image. When
/// `expected` is set, the kind tag is checked in the canonical header
/// order (between byte order and payload length); [`SnapshotImage`] passes
/// `None` and re-checks the tag at decode time instead.
fn parse_image(bytes: &[u8], expected: Option<SnapshotKind>) -> Result<ParsedImage, SnapshotError> {
    // Magic first, so "not a snapshot at all" is distinguished from
    // "header cut short" even on sub-header inputs.
    if let Some(magic) = bytes.get(..8) {
        if magic != MAGIC {
            let mut found = [0u8; 8];
            for (dst, src) in found.iter_mut().zip(magic) {
                *dst = *src;
            }
            return Err(SnapshotError::BadMagic { found });
        }
    }
    let (Some(header_bytes), Some(payload)) = (bytes.get(8..HEADER_LEN), bytes.get(HEADER_LEN..))
    else {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    };
    // The `?`s below cannot fire — the header slice is exactly 32 bytes —
    // but snapshot code never panics on input, so they stay `?`.
    let mut header = Decoder::new(header_bytes);
    let version = header.read_u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let endian = header.read_u32()?;
    if endian != ENDIAN_MARK {
        return Err(SnapshotError::EndiannessMismatch { found: endian });
    }
    let kind_tag = header.read_u32()?;
    if let Some(kind) = expected {
        if kind_tag != kind.tag() {
            return Err(SnapshotError::KindMismatch {
                found: kind_tag,
                expected: kind.tag(),
            });
        }
    }
    let _reserved = header.read_u32()?;
    let payload_len = header.read_u64()?;
    let stored_checksum = header.read_u64()?;

    let payload_len = usize::try_from(payload_len).map_err(|_| {
        SnapshotError::Corrupt(format!("payload length {payload_len} does not fit usize"))
    })?;
    let available = payload.len();
    if available < payload_len {
        return Err(SnapshotError::Truncated {
            needed: payload_len,
            available,
        });
    }
    if available > payload_len {
        return Err(SnapshotError::TrailingBytes {
            remaining: available - payload_len,
        });
    }

    // Section directory: count, then (length, checksum) per section. The
    // header checksum covers exactly these bytes, so a corrupt directory is
    // caught before any length is trusted.
    let mut dir = Decoder::new(payload);
    let count = dir.read_u32().map_err(|_| SnapshotError::Truncated {
        needed: 4,
        available: payload.len(),
    })? as usize;
    let dir_len = 4 + count
        .checked_mul(16)
        .ok_or_else(|| SnapshotError::Corrupt(format!("section count {count} overflows")))?;
    let Some(directory) = payload.get(..dir_len) else {
        return Err(SnapshotError::Corrupt(format!(
            "section directory of {count} entries needs {dir_len} bytes, payload has {}",
            payload.len()
        )));
    };
    let computed = checksum64(directory);
    if computed != stored_checksum {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored_checksum,
            computed,
        });
    }
    if count == 0 {
        return Err(SnapshotError::Corrupt(
            "a snapshot needs at least one section".into(),
        ));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let len = dir.read_u64()?;
        let checksum = dir.read_u64()?;
        let len = usize::try_from(len).map_err(|_| {
            SnapshotError::Corrupt(format!("section length {len} does not fit usize"))
        })?;
        entries.push((len, checksum));
    }

    // Aligned placement (absolute offsets, mirroring the writer), exact
    // coverage, and all-zero padding. Checked arithmetic throughout: a
    // repaired-checksum directory can carry absurd lengths.
    let mut sections = Vec::with_capacity(count);
    let mut cursor = HEADER_LEN + dir_len;
    for (len, _) in &entries {
        let aligned = align_up(cursor)
            .ok_or_else(|| SnapshotError::Corrupt("section offsets overflow".into()))?;
        sections.push((aligned, *len));
        cursor = aligned
            .checked_add(*len)
            .ok_or_else(|| SnapshotError::Corrupt("section lengths overflow".into()))?;
    }
    if cursor - HEADER_LEN != payload.len() {
        return Err(SnapshotError::Corrupt(format!(
            "sections end at image offset {cursor}, image holds {} bytes",
            HEADER_LEN + payload.len()
        )));
    }
    let mut prev_end = HEADER_LEN + dir_len;
    for (offset, len) in &sections {
        let Some(pad) = bytes.get(prev_end..*offset) else {
            return Err(SnapshotError::Corrupt(
                "section padding extends past the image".into(),
            ));
        };
        if pad.iter().any(|&b| b != 0) {
            return Err(SnapshotError::Corrupt(
                "alignment padding must be zero".into(),
            ));
        }
        prev_end = offset + len;
    }

    // Per-section integrity, verified on parallel build workers.
    let section_sums = fairnn_parallel::map_indexed(count, |i| {
        let _timer = Timer::start(&SECTION_CHECKSUM_NS);
        #[expect(
            clippy::indexing_slicing,
            reason = "`i` ranges over `count == sections.len()` by construction"
        )]
        let (offset, len) = sections[i];
        let section = bytes.get(offset..offset + len).unwrap_or(&[]);
        checksum64(section)
    });
    for (computed, (_, stored)) in section_sums.iter().zip(&entries) {
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch {
                stored: *stored,
                computed: *computed,
            });
        }
    }

    Ok(ParsedImage { kind_tag, sections })
}

/// Parses a snapshot byte image produced by [`to_bytes`], validating the
/// full header chain and the section directory before decoding; section
/// checksums are verified (in parallel) before the sections reach
/// [`SnapshotCodec::decode_sections`]. Decoding from a plain slice always
/// copies; use a [`SnapshotImage`] for the zero-copy path.
pub fn from_bytes<T: SnapshotCodec>(kind: SnapshotKind, bytes: &[u8]) -> Result<T, SnapshotError> {
    let image = parse_image(bytes, Some(kind))?;
    let mut sections = Vec::with_capacity(image.sections.len());
    for (offset, len) in &image.sections {
        // In-bounds by the coverage checks in `parse_image`; `get` keeps
        // the no-panic guarantee even if those ever regress.
        let slice = offset
            .checked_add(*len)
            .and_then(|end| bytes.get(*offset..end));
        let Some(slice) = slice else {
            return Err(SnapshotError::Corrupt(
                "section extends past the payload".into(),
            ));
        };
        sections.push(Section::new(slice));
    }
    T::decode_sections(&sections)
}

/// A fully verified snapshot held in one 64-byte-aligned allocation — the
/// zero-copy load path.
///
/// [`SnapshotImage::open`] performs a single read-to-end into an
/// [`ArcBytes`] buffer and validates everything up front (header chain,
/// directory checksum, alignment padding, every section checksum).
/// [`SnapshotImage::decode`] then hands the structural decoders sections
/// that *carry the buffer*, so every [`crate::SliceCodec`] column in the
/// value borrows the image in place: O(1) large allocations, zero
/// per-element copies, and any number of decoded structures share the one
/// buffer until the last of them drops.
pub struct SnapshotImage {
    bytes: ArcBytes,
    kind_tag: u32,
    sections: Vec<(usize, usize)>,
}

impl SnapshotImage {
    /// Reads and fully verifies the snapshot file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = ArcBytes::read_file(path.as_ref())?;
        BYTES_READ.add(bytes.len() as u64);
        Self::from_arc_bytes(bytes)
    }

    /// Verifies an already-loaded aligned buffer as a snapshot image.
    pub fn from_arc_bytes(bytes: ArcBytes) -> Result<Self, SnapshotError> {
        let parsed = parse_image(bytes.as_slice(), None)?;
        Ok(Self {
            bytes,
            kind_tag: parsed.kind_tag,
            sections: parsed.sections,
        })
    }

    /// The header's structure tag (compare with [`SnapshotKind::tag`]).
    pub fn kind_tag(&self) -> u32 {
        self.kind_tag
    }

    /// Total image size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image holds zero bytes (never true for a verified
    /// image, which has at least a header).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The backing buffer.
    pub fn as_bytes(&self) -> &ArcBytes {
        &self.bytes
    }

    /// Decodes the image as a `T`, borrowing fixed-width columns from the
    /// backing buffer. Integrity was verified at construction; only the
    /// kind tag and structural invariants are checked here.
    pub fn decode<T: SnapshotCodec>(&self, kind: SnapshotKind) -> Result<T, SnapshotError> {
        if self.kind_tag != kind.tag() {
            return Err(SnapshotError::KindMismatch {
                found: self.kind_tag,
                expected: kind.tag(),
            });
        }
        let mut sections = Vec::with_capacity(self.sections.len());
        for (offset, len) in &self.sections {
            let slice = offset
                .checked_add(*len)
                .and_then(|end| self.bytes.as_slice().get(*offset..end));
            let Some(slice) = slice else {
                return Err(SnapshotError::Corrupt(
                    "section extends past the payload".into(),
                ));
            };
            sections.push(Section::with_owner(slice, &self.bytes, *offset));
        }
        T::decode_sections(&sections)
    }
}

impl std::fmt::Debug for SnapshotImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotImage")
            .field("kind_tag", &self.kind_tag)
            .field("bytes", &self.bytes.len())
            .field("sections", &self.sections.len())
            .finish()
    }
}

/// Recomputes every checksum of a snapshot image in place — each section's
/// directory entry, then the header checksum over the directory. Tooling
/// and corruption tests use this to push a payload mutation *past* the
/// checksum wall so it reaches the structural decoders; it is best-effort
/// on malformed images (out-of-range lengths leave the image untouched).
pub fn repair_checksums(bytes: &mut [u8]) {
    let Some(count) = read_le_array::<4>(bytes, HEADER_LEN).map(u32::from_le_bytes) else {
        return;
    };
    let count = count as usize;
    let Some(dir_len) = count.checked_mul(16).and_then(|n| n.checked_add(4)) else {
        return;
    };
    if dir_len > bytes.len() - HEADER_LEN {
        return;
    }
    let mut offset = HEADER_LEN + dir_len;
    for i in 0..count {
        // Sections sit at aligned image offsets (v3); mirror the writer.
        let Some(aligned) = align_up(offset) else {
            return;
        };
        let entry = HEADER_LEN + 4 + i * 16;
        let Some(len) = read_le_array::<8>(bytes, entry).map(u64::from_le_bytes) else {
            return;
        };
        let Some(end) = aligned.checked_add(len as usize) else {
            return;
        };
        let Some(section) = bytes.get(aligned..end) else {
            return;
        };
        let checksum = checksum64(section).to_le_bytes();
        let Some(slot) = bytes.get_mut(entry + 8..entry + 16) else {
            return;
        };
        slot.copy_from_slice(&checksum);
        offset = end;
    }
    let Some(directory) = bytes.get(HEADER_LEN..HEADER_LEN + dir_len) else {
        return;
    };
    let checksum = checksum64(directory).to_le_bytes();
    if let Some(slot) = bytes.get_mut(32..40) {
        slot.copy_from_slice(&checksum);
    }
}

/// Reads `N` bytes at `at` as a fixed array, without indexing (`None` when
/// the slice is short or the range overflows).
fn read_le_array<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    let slice = bytes.get(at..at.checked_add(N)?)?;
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(slice) {
        *dst = *src;
    }
    Some(out)
}

/// Writes `value` as a snapshot file at `path`, atomically and durably.
///
/// The image streams section by section into a sibling temporary file (the
/// bytes of [`to_bytes`], through the same writer, without assembling them
/// in memory), which is fsynced before it is renamed over `path`; the
/// directory is fsynced after the rename. So readers never observe a
/// half-written snapshot, and once `save` returns the new file survives a
/// power loss (the engine truncates its WAL right after a checkpoint save).
/// A failed step removes the temporary file.
pub fn save<T: SnapshotCodec, P: AsRef<Path>>(
    kind: SnapshotKind,
    value: &T,
    path: P,
) -> Result<(), SnapshotError> {
    let _timer = Timer::start(&SAVE_NS);
    let image = ImageWriter::new(kind, value.encode_sections());
    let path = path.as_ref();
    // The temp name appends to the *full* file name (never replaces an
    // extension — sibling snapshots sharing a stem must not collide) and
    // carries the pid so concurrent saves from different processes do not
    // race on one temp file.
    let file_name = path.file_name().ok_or_else(|| {
        SnapshotError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("snapshot path {} has no file name", path.display()),
        ))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|file| {
        let mut out = BufWriter::new(file);
        image.write_to(&mut out)?;
        let file = out.into_inner().map_err(IntoInnerError::into_error)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if let Err(err) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(err.into());
    }
    BYTES_WRITTEN.add(image.len as u64);
    sync_parent_dir(path)?;
    Ok(())
}

/// Fsyncs the directory holding `path`, so a file created or renamed
/// there survives a power loss.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Reads a snapshot file written by [`save`], through the zero-copy
/// [`SnapshotImage`] path: one aligned read-to-end, up-front verification,
/// and in-place column borrows for [`crate::SliceCodec`] data.
pub fn load<T: SnapshotCodec, P: AsRef<Path>>(
    kind: SnapshotKind,
    path: P,
) -> Result<T, SnapshotError> {
    let _timer = Timer::start(&LOAD_NS);
    let image = SnapshotImage::open(path)?;
    image.decode(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, Encoder};

    #[test]
    fn image_roundtrip() {
        let value = vec![3u64, 1, 4, 1, 5];
        let bytes = to_bytes(SnapshotKind::LshIndex, &value);
        assert_eq!(&bytes[..8], &MAGIC);
        let back: Vec<u64> = from_bytes(SnapshotKind::LshIndex, &bytes).unwrap();
        assert_eq!(back, value);
        // Canonical: re-encoding the decoded value is byte-identical.
        assert_eq!(to_bytes(SnapshotKind::LshIndex, &back), bytes);
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = to_bytes(SnapshotKind::LshIndex, &7u64);
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes::<u64>(SnapshotKind::LshIndex, &bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn bumped_version_rejected() {
        let mut bytes = to_bytes(SnapshotKind::LshIndex, &7u64);
        bytes[8] = FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            from_bytes::<u64>(SnapshotKind::LshIndex, &bytes),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn flipped_endian_mark_rejected() {
        let mut bytes = to_bytes(SnapshotKind::LshIndex, &7u64);
        bytes[12..16].reverse(); // what a native big-endian writer would emit
        assert!(matches!(
            from_bytes::<u64>(SnapshotKind::LshIndex, &bytes),
            Err(SnapshotError::EndiannessMismatch { .. })
        ));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let bytes = to_bytes(SnapshotKind::FairNns, &7u64);
        assert!(matches!(
            from_bytes::<u64>(SnapshotKind::Checkpoint, &bytes),
            Err(SnapshotError::KindMismatch { found, expected })
                if found == SnapshotKind::FairNns.tag()
                    && expected == SnapshotKind::Checkpoint.tag()
        ));
    }

    #[test]
    fn payload_corruption_caught_by_checksum() {
        let mut bytes = to_bytes(SnapshotKind::LshIndex, &vec![1u64, 2, 3]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = to_bytes(SnapshotKind::LshIndex, &vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let err = from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &bytes[..cut])
                .expect_err("truncated snapshot must not load");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn appended_garbage_detected() {
        let mut bytes = to_bytes(SnapshotKind::LshIndex, &7u64);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u64>(SnapshotKind::LshIndex, &bytes),
            Err(SnapshotError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let path =
            std::env::temp_dir().join(format!("fairnn-snapshot-test-{}.snap", std::process::id()));
        save(SnapshotKind::Shard, &vec![9u64, 8, 7], &path).unwrap();
        let back: Vec<u64> = load(SnapshotKind::Shard, &path).unwrap();
        assert_eq!(back, vec![9, 8, 7]);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load::<Vec<u64>, _>(SnapshotKind::Shard, &path),
            Err(SnapshotError::Io(_))
        ));
    }

    /// A two-section test type: exercises the sectioned encode/decode path
    /// the way the sharded structures use it.
    #[derive(Debug, PartialEq)]
    struct TwoPart {
        head: Vec<u64>,
        tail: Vec<u64>,
    }

    impl SnapshotCodec for TwoPart {
        fn encode_sections(&self) -> Vec<Vec<u8>> {
            let mut head = Encoder::new();
            self.head.encode(&mut head);
            let mut tail = Encoder::new();
            self.tail.encode(&mut tail);
            vec![head.into_bytes(), tail.into_bytes()]
        }
        fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
            let [head, tail] = sections else {
                return Err(SnapshotError::Corrupt(format!(
                    "expected 2 sections, found {}",
                    sections.len()
                )));
            };
            let mut head_dec = head.decoder();
            let mut tail_dec = tail.decoder();
            let out = Self {
                head: Vec::decode(&mut head_dec)?,
                tail: Vec::decode(&mut tail_dec)?,
            };
            head_dec.finish()?;
            tail_dec.finish()?;
            Ok(out)
        }
    }

    #[test]
    fn multi_section_images_roundtrip_and_stay_canonical() {
        let value = TwoPart {
            head: vec![1, 2, 3],
            tail: vec![9, 8],
        };
        let bytes = to_bytes(SnapshotKind::Shard, &value);
        let back: TwoPart = from_bytes(SnapshotKind::Shard, &bytes).unwrap();
        assert_eq!(back, value);
        assert_eq!(to_bytes(SnapshotKind::Shard, &back), bytes);
        // 2 sections in the directory.
        assert_eq!(
            u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()),
            2
        );
        // Corrupting either section trips its own checksum: the first byte
        // of section 0 (at the first aligned offset after the directory)
        // and the last byte of section 1 (the final image byte — v3 never
        // pads after the last section).
        let section0 = align_up(HEADER_LEN + 4 + 2 * 16).unwrap();
        for offset in [section0, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x01;
            assert!(matches!(
                from_bytes::<TwoPart>(SnapshotKind::Shard, &corrupt),
                Err(SnapshotError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn directory_corruption_is_caught_before_lengths_are_trusted() {
        let bytes = to_bytes(SnapshotKind::LshIndex, &vec![5u64; 8]);
        // Flip a byte of a section length inside the directory: the header
        // checksum over the directory must reject it.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 4] ^= 0xFF;
        assert!(matches!(
            from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn repair_checksums_lets_mutations_reach_the_decoders() {
        let bytes = to_bytes(SnapshotKind::LshIndex, &vec![7u64, 7, 7]);
        let mut mutated = bytes.clone();
        let last = mutated.len() - 1;
        mutated[last] ^= 0x10;
        // Without repair: checksum wall.
        assert!(matches!(
            from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &mutated),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // With repair: checksums pass, the (structurally valid) mutated
        // value decodes.
        repair_checksums(&mut mutated);
        let back: Vec<u64> = from_bytes(SnapshotKind::LshIndex, &mutated).unwrap();
        assert_eq!(back.len(), 3);
        assert_ne!(back, vec![7u64, 7, 7]);
        // Best-effort on garbage: must not panic.
        repair_checksums(&mut []);
        repair_checksums(&mut [0u8; 39]);
        let mut absurd = bytes;
        absurd[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        repair_checksums(&mut absurd);
    }

    #[test]
    fn lying_directory_lengths_are_corrupt_not_panics() {
        // vec![1u64, 2, 3] encodes to one 32-byte section (8-byte length
        // prefix + 3×8 payload). Misdeclare its directory length in both
        // directions; repair_checksums pushes the lie past the checksum
        // wall, and the exact-coverage check must reject it structurally.
        let bytes = to_bytes(SnapshotKind::LshIndex, &vec![1u64, 2, 3]);
        // Shrunk lengths pass repair, so the exact-coverage check fires;
        // an inflated length makes repair bail early (best-effort), so the
        // stale directory checksum rejects it instead. Either way: an
        // error, never a panic.
        for lied_len in [1u8, 31, 33] {
            let mut mutated = bytes.clone();
            mutated[HEADER_LEN + 4] = lied_len;
            repair_checksums(&mut mutated);
            assert!(
                matches!(
                    from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &mutated),
                    Err(SnapshotError::Corrupt(_) | SnapshotError::ChecksumMismatch { .. })
                ),
                "declared section length {lied_len} must be structurally rejected"
            );
        }
    }

    #[test]
    fn bit_flip_sweep_never_panics() {
        // Flip low and high bits at every byte offset — header, directory
        // and payload — both behind and past the checksum wall. Every
        // outcome must be a Result, never a panic.
        let bytes = to_bytes(SnapshotKind::LshIndex, &vec![0xABu64; 4]);
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut mutated = bytes.clone();
                mutated[i] ^= bit;
                let _ = from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &mutated);
                repair_checksums(&mut mutated);
                let _ = from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &mutated);
            }
        }
    }

    #[test]
    fn sections_start_at_aligned_offsets() {
        let value = TwoPart {
            head: vec![1, 2, 3],
            tail: (0..50).collect(),
        };
        let bytes = to_bytes(SnapshotKind::Shard, &value);
        // Recompute the writer's placement and check each section really
        // sits at a 64-byte image offset, with the image ending at the
        // last section's final byte.
        let dir_len = 4 + 2 * 16;
        let len0 = u64::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 12].try_into().unwrap());
        let len1 = u64::from_le_bytes(bytes[HEADER_LEN + 20..HEADER_LEN + 28].try_into().unwrap());
        let off0 = align_up(HEADER_LEN + dir_len).unwrap();
        let off1 = align_up(off0 + len0 as usize).unwrap();
        assert_eq!(off0 % SECTION_ALIGN, 0);
        assert_eq!(off1 % SECTION_ALIGN, 0);
        assert_eq!(bytes.len(), off1 + len1 as usize);
        // Padding bytes are zero.
        assert!(bytes[HEADER_LEN + dir_len..off0].iter().all(|&b| b == 0));
        assert!(bytes[off0 + len0 as usize..off1].iter().all(|&b| b == 0));
        // Header payload length covers padding exactly.
        let payload_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        assert_eq!(payload_len, bytes.len() - HEADER_LEN);
    }

    #[test]
    fn nonzero_padding_is_corrupt() {
        let mut bytes = to_bytes(SnapshotKind::LshIndex, &vec![1u64, 2, 3]);
        // The gap between the 20-byte directory and the first aligned
        // section is padding: not covered by any checksum, so it must be
        // structurally required to be zero.
        bytes[HEADER_LEN + 20] = 0xAA;
        assert!(matches!(
            from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &bytes),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("padding")
        ));
    }

    #[test]
    fn v2_files_are_rejected_with_an_upgrade_hint() {
        // A minimal genuine v2 image: directory immediately followed by
        // the (unaligned) section payload, version field = 2.
        let mut section = Encoder::new();
        vec![7u64].encode(&mut section);
        let section = section.into_bytes();
        let mut directory = Vec::new();
        directory.extend_from_slice(&1u32.to_le_bytes());
        directory.extend_from_slice(&(section.len() as u64).to_le_bytes());
        directory.extend_from_slice(&checksum64(&section).to_le_bytes());
        let payload_len = directory.len() + section.len();
        let mut v2 = Vec::new();
        v2.extend_from_slice(&MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
        v2.extend_from_slice(&SnapshotKind::LshIndex.tag().to_le_bytes());
        v2.extend_from_slice(&0u32.to_le_bytes());
        v2.extend_from_slice(&(payload_len as u64).to_le_bytes());
        v2.extend_from_slice(&checksum64(&directory).to_le_bytes());
        v2.extend_from_slice(&directory);
        v2.extend_from_slice(&section);

        let err = from_bytes::<Vec<u64>>(SnapshotKind::LshIndex, &v2)
            .expect_err("a v2 file must not load");
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion {
                found: 2,
                supported: FORMAT_VERSION
            }
        ));
        // The error text documents the upgrade path.
        let msg = err.to_string();
        assert!(
            msg.contains("version 2") && msg.contains(&format!("version {FORMAT_VERSION}")),
            "upgrade hint must name both versions: {msg}"
        );
    }

    /// A single-column type exercising the zero-copy [`SliceCodec`] path.
    #[derive(Debug, PartialEq)]
    struct PodColumn {
        values: crate::ArcSlice<u64>,
    }

    impl Codec for PodColumn {
        fn encode(&self, enc: &mut Encoder) {
            crate::SliceCodec::encode_slice(self.values.as_slice(), enc);
        }
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
            Ok(Self {
                values: <u64 as crate::SliceCodec>::decode_slice(dec)?,
            })
        }
    }

    #[test]
    fn snapshot_image_decodes_zero_copy_and_from_bytes_copies() {
        let value = PodColumn {
            values: crate::ArcSlice::from_vec((0..1000u64).collect()),
        };
        let bytes = to_bytes(SnapshotKind::LshIndex, &value);

        // Plain-slice decode: owned column.
        let copied: PodColumn = from_bytes(SnapshotKind::LshIndex, &bytes).unwrap();
        assert_eq!(copied, value);
        assert!(!copied.values.is_borrowed());

        // Image decode: the column borrows the image buffer in place.
        let image =
            SnapshotImage::from_arc_bytes(ArcBytes::copy_from_slice(&bytes).unwrap()).unwrap();
        assert_eq!(image.kind_tag(), SnapshotKind::LshIndex.tag());
        let borrowed: PodColumn = image.decode(SnapshotKind::LshIndex).unwrap();
        assert_eq!(borrowed, value);
        assert!(borrowed.values.is_borrowed());
        let base = image.as_bytes().as_slice().as_ptr() as usize;
        let col = borrowed.values.as_slice().as_ptr() as usize;
        assert!(col > base && col < base + image.len());
        assert_eq!(col % SECTION_ALIGN, 0, "column must land 64-byte aligned");

        // Wrong kind at decode time.
        assert!(matches!(
            image.decode::<PodColumn>(SnapshotKind::Shard),
            Err(SnapshotError::KindMismatch { .. })
        ));

        // The decoded structure keeps the buffer alive after the image
        // handle drops.
        drop(image);
        assert_eq!(borrowed.values.len(), 1000);
        assert_eq!(borrowed.values[999], 999);
    }

    #[test]
    fn snapshot_image_open_verifies_and_borrows_from_disk() {
        let path = std::env::temp_dir().join(format!(
            "fairnn-snapshot-image-test-{}.snap",
            std::process::id()
        ));
        let value = PodColumn {
            values: crate::ArcSlice::from_vec((0..256u64).rev().collect()),
        };
        save(SnapshotKind::Shard, &value, &path).unwrap();
        let image = SnapshotImage::open(&path).unwrap();
        let back: PodColumn = image.decode(SnapshotKind::Shard).unwrap();
        assert_eq!(back, value);
        assert!(back.values.is_borrowed());

        // Corrupt the file: open() must reject it up front.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            SnapshotImage::open(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            SnapshotImage::open(&path),
            Err(SnapshotError::Io(_))
        ));
    }

    /// A value of many sections of uneven lengths, so zero padding sits
    /// between them, and one section longer than a `BufWriter`'s buffer.
    #[derive(Debug, PartialEq)]
    struct Parts(Vec<Vec<u64>>);

    impl SnapshotCodec for Parts {
        fn encode_sections(&self) -> Vec<Vec<u8>> {
            self.0
                .iter()
                .map(|part| {
                    let mut enc = Encoder::new();
                    part.encode(&mut enc);
                    enc.into_bytes()
                })
                .collect()
        }
        fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
            let mut parts = Vec::with_capacity(sections.len());
            for section in sections {
                let mut dec = section.decoder();
                parts.push(Vec::decode(&mut dec)?);
                dec.finish()?;
            }
            Ok(Self(parts))
        }
    }

    #[test]
    fn save_streams_exactly_the_bytes_of_to_bytes() {
        let value = Parts(
            (0..9u64)
                .map(|i| (0..i * 5 + i % 3).collect())
                .chain([(0..3000).collect()])
                .collect(),
        );
        let bytes = to_bytes(SnapshotKind::Shard, &value);
        assert_ne!(
            (HEADER_LEN + 4 + 10 * 16) % SECTION_ALIGN,
            0,
            "the test image must carry padding"
        );
        let path = std::env::temp_dir().join(format!(
            "fairnn-snapshot-stream-test-{}.snap",
            std::process::id()
        ));
        save(SnapshotKind::Shard, &value, &path).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(file, bytes, "save must write exactly the bytes of to_bytes");
        let back: Parts = from_bytes(SnapshotKind::Shard, &file).unwrap();
        assert_eq!(back, value);
    }

    /// The known-answer input: `len` bytes of a fixed scrambled pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(7))
            .collect()
    }

    /// Flips bit `bit` of little-endian word `word`.
    fn flip_word_bit(bytes: &mut [u8], word: usize, bit: usize) {
        bytes[word * 8 + bit / 8] ^= 1 << (bit % 8);
    }

    #[test]
    fn checksum_known_answers() {
        // Pins the function on every platform: a silent change would
        // invalidate every existing snapshot and WAL while still
        // round-tripping in-process. Covers the empty input, a bare tail,
        // one word, a partial and a full lane block, and several blocks.
        let pinned: [(usize, u64); 8] = [
            (0, 0x357b_138f_0f49_1117),
            (1, 0x9842_2df8_64ce_7d26),
            (7, 0x0ea3_dab3_d2d0_e44e),
            (8, 0xcaef_494f_adac_2961),
            (31, 0x9e76_cb79_80d9_5cfe),
            (32, 0xee2c_17a3_a44a_1347),
            (33, 0xb00f_6713_1c12_6869),
            (100, 0xed3e_a954_1376_f6e0),
        ];
        for (len, want) in pinned {
            assert_eq!(checksum64(&pattern(len)), want, "length {len}");
        }
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        // Every lane step and combine step is a bijection of the state, so
        // a change confined to one word or to the tail is always caught:
        // at every length, whichever lane or tail byte the flip lands in.
        for len in 0..=100 {
            for bytes in [pattern(len), vec![0; len]] {
                let sum = checksum64(&bytes);
                for i in 0..len {
                    for bit in 0..8 {
                        let mut flipped = bytes.clone();
                        flipped[i] ^= 1 << bit;
                        assert_ne!(
                            checksum64(&flipped),
                            sum,
                            "length {len}, byte {i}, bit {bit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_catches_every_pair_of_flips_in_one_lane() {
        // Words 0 and 4 feed lane 0 in consecutive steps. With a plain
        // xor-multiply step two bit-63 flips cancel; the fold of the high
        // half into the low one must leave no pair undetected.
        for bytes in [pattern(64), vec![0; 64], vec![0xFF; 64]] {
            let sum = checksum64(&bytes);
            for a in 0..64 {
                for b in 0..64 {
                    let mut flipped = bytes.clone();
                    flip_word_bit(&mut flipped, 0, a);
                    flip_word_bit(&mut flipped, 4, b);
                    assert_ne!(checksum64(&flipped), sum, "word 0 bit {a}, word 4 bit {b}");
                }
            }
        }
    }

    #[test]
    fn checksum_folds_in_the_length() {
        // The byte tail is zero-padded into a word, so only the folded-in
        // length tells a trailing zero byte (or a cut at a word boundary)
        // from the input without it.
        for len in 0..=100 {
            for bytes in [pattern(len), vec![0; len]] {
                let mut longer = bytes.clone();
                longer.push(0);
                assert_ne!(checksum64(&longer), checksum64(&bytes), "length {len} + 0");
            }
        }
        for bytes in [pattern(100), vec![0; 100]] {
            let sum = checksum64(&bytes);
            for cut in (0..bytes.len()).step_by(8) {
                assert_ne!(checksum64(&bytes[..cut]), sum, "cut at {cut}");
            }
        }
    }
}
