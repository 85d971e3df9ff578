//! Versioned, checksummed binary snapshots: build frozen indexes once,
//! attach them from disk everywhere.
//!
//! Every process start used to rebuild LSH tables, CSR buckets, rank tables
//! and sketches from raw points. Pod-style serving architectures get their
//! elasticity from separating expensive state *construction* from cheap
//! state *attachment*; the frozen CSR structures of this workspace are flat,
//! offset-indexed representations that are one serialization step away from
//! that property — this crate is that step.
//!
//! The crate deliberately sits at the bottom of the dependency graph and
//! knows nothing about LSH or sampling. It provides:
//!
//! * [`Codec`] — the canonical little-endian encode/decode contract the
//!   structural crates (`fairnn-lsh`, `fairnn-sketch`, `fairnn-core`,
//!   `fairnn-engine`) implement next to their types, and
//!   [`SnapshotCodec`] — the section split of a whole image, which every
//!   `Codec` type has as one section and the large indexes implement
//!   instead of `Codec`;
//! * [`Encoder`] / [`Decoder`] — the bounds-checked byte cursors;
//! * the container format ([`to_bytes`] / [`from_bytes`] /
//!   [`save`] / [`load`]): an 8-byte magic, a format version, a byte-order
//!   marker, a structure [`SnapshotKind`] tag, the payload length, the
//!   word-wise [`checksum64`] of the section directory — validated in that order
//!   before any payload byte is decoded — and per-section lengths and
//!   checksums, so large structures encode, verify and decode their
//!   sections on parallel build workers
//!   ([`SnapshotCodec::encode_sections`]);
//! * [`SnapshotError`] — a typed error for every rejection path (bad magic,
//!   unsupported version, endianness, kind mismatch, checksum mismatch,
//!   truncation, corrupt payload, trailing bytes). Loading never panics on
//!   malformed input.
//!
//! The format is canonical: unordered containers are encoded in sorted
//! order, so `save → load → save` is byte-identical — which is also what
//! makes snapshot files meaningfully diffable and checksummable in CI.
//!
//! Format **v3** adds the servable layout: every section payload is placed
//! at a 64-byte-aligned image offset and the large fixed-width columns
//! inside are written as contiguous little-endian arrays ([`SliceCodec`]),
//! exactly the in-memory CSR/bank representation. A [`SnapshotImage`]
//! reads the whole file into one aligned allocation ([`ArcBytes`]),
//! verifies the header chain and every section checksum up front, and
//! then decodes structures whose columns ([`ArcSlice`]) *borrow* the image
//! in place — a warm engine load is O(1) large allocations and zero
//! per-element copies, and N processes can serve one page-cache-resident
//! image.
//!
//! This crate also hosts the workspace's **one blessed unsafe module**
//! ([`mod@bytes`]): aligned buffers, pod byte views, the SIMD feature
//! dispatcher and the software-prefetch shim. Every other crate root
//! forbids `unsafe_code`, and every unsafe block or impl inside the module
//! carries a `// SAFETY:` comment.
//!
//! Decoders read untrusted bytes, so they return typed [`SnapshotError`]s
//! instead of panicking: outside test code this crate denies `unwrap`,
//! `expect`, `panic!` (and `unreachable!`, `todo!`, `unimplemented!`) and
//! direct indexing.

#![deny(unsafe_code)] // `bytes` expects it; the other modules forbid it
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks
)]
#![warn(missing_docs)]

pub mod bytes;
#[forbid(unsafe_code)]
mod codec;
#[forbid(unsafe_code)]
mod container;
#[forbid(unsafe_code)]
mod error;
#[forbid(unsafe_code)]
mod wal;

pub use bytes::{
    pod_bytes, prefetch_read, ArcBytes, ArcSlice, CountingAlloc, Pod, LARGE_ALLOC_THRESHOLD,
    SECTION_ALIGN,
};
pub use codec::{
    decode_pod_slice, encode_pod_slice, Codec, Decoder, Encoder, Section, SliceCodec, SnapshotCodec,
};
pub use container::{
    checksum64, from_bytes, image_from_sections, load, repair_checksums, save, to_bytes,
    SnapshotImage, SnapshotKind, ENDIAN_MARK, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use error::SnapshotError;
pub use wal::{parse_wal, read_wal, WalReplay, WalWriter, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION};
