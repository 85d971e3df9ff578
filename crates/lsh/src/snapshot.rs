//! Snapshot support for the LSH substrate.
//!
//! Most types here implement [`fairnn_snapshot::Codec`] next to their
//! definition (they have private fields); this module holds the one
//! abstraction the index codec needs on top: [`HasherBankCodec`],
//! slice-level hasher serialization.
//!
//! An [`crate::LshIndex`] does not store `L` independent hashers — it stores
//! `L` views into one shared, table-major row bank
//! ([`crate::ConcatenatedHasher::bank`]), which is what makes the batched
//! single-pass query evaluation possible. Serializing the hashers one by one
//! would write every row once but *load* them into `L` separate allocations,
//! silently losing the single-pass layout. [`HasherBankCodec`] serializes
//! the whole slice at once: when the hashers share a bank the rows are
//! written flat and the bank is reconstituted on load, so a loaded index has
//! the exact memory layout — and therefore the exact performance — of a
//! freshly built one.

use fairnn_snapshot::{Codec, Decoder, Encoder, SnapshotError};

/// Slice-level hasher serialization (see the module docs for why this is
/// not simply `Codec` on the hasher type).
pub trait HasherBankCodec: Sized {
    /// Encodes a slice of per-table hashers, preserving bank sharing.
    fn encode_bank(hashers: &[Self], enc: &mut Encoder);

    /// Decodes a slice written by [`HasherBankCodec::encode_bank`],
    /// reconstructing the shared bank layout when one was written.
    fn decode_bank(dec: &mut Decoder<'_>) -> Result<Vec<Self>, SnapshotError>;

    /// Total number of base hash functions across the per-table hashers
    /// (`K × L` for a standard bank), so a loader can check a decoded bank
    /// against the stored [`crate::LshParams`].
    fn bank_rows(hashers: &[Self]) -> usize;
}

/// Row-level bulk serialization inside a shared hasher bank.
///
/// The default methods serialize rows one [`Codec`] value at a time, which
/// is right for hashers carrying variable-width state (projection vectors).
/// Fixed-coefficient families (the MinHash family: each row is a full-width
/// multiply-shift `(a, b)` pair) override them to write the whole bank as
/// one 64-byte-aligned coefficient array — the snapshot-v3 layout that a
/// loaded [`fairnn_snapshot::SnapshotImage`] reads back through a zero-copy
/// [`fairnn_snapshot::ArcSlice`] view before materializing the in-memory
/// bank in a single pass.
pub trait RowCodec: Codec {
    /// The token a sketched bank of these rows keeps, or `None`, the
    /// default, when the family has no sketch: a bank image of the sketch
    /// layout then fails to decode.
    const SKETCH_TOKEN: Option<crate::sketch::SketchToken> = None;

    /// Encodes `rows` (the flat table-major bank, each row exactly once).
    fn encode_rows(rows: &[Self], enc: &mut Encoder) {
        for row in rows {
            row.encode(enc);
        }
    }

    /// Decodes `count` rows written by [`RowCodec::encode_rows`].
    fn decode_rows(dec: &mut Decoder<'_>, count: usize) -> Result<Vec<Self>, SnapshotError> {
        let mut rows = Vec::with_capacity(count.min(dec.remaining()));
        for _ in 0..count {
            rows.push(Self::decode(dec)?);
        }
        Ok(rows)
    }
}
