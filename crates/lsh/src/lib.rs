//! Locality-sensitive hashing (LSH) substrate.
//!
//! The paper's fair samplers use LSH as a black box (Sections 3 and 4): a
//! family of hash functions is *(r, cr, p1, p2)-sensitive* if near points
//! (distance ≤ r, or similarity ≥ r) collide with probability at least `p1`
//! and far points (distance > cr, similarity < cr) collide with probability
//! at most `p2` (Definition 3). Concatenating `K` functions drives `p2`
//! below `1/n`; repeating the table `L = Θ(p1^{-K} log n)` times makes every
//! near point collide with the query at least once with high probability.
//!
//! This crate implements:
//!
//! * the family abstraction ([`LshFamily`], [`LshHasher`]) together with the
//!   collision-probability model each family exposes, which drives parameter
//!   selection the same way Section 6 of the paper does;
//! * concrete families: [`minhash::MinHash`] and
//!   [`minhash::OneBitMinHash`] for Jaccard similarity (the scheme used in
//!   the paper's experiments, following Broder and Li–König),
//!   [`simhash::SimHash`] (random hyperplanes) for angular/inner-product
//!   similarity, and [`pstable::PStableLsh`] (Gaussian projections with
//!   quantisation) for Euclidean distance;
//! * AND-concatenation over `K` rows ([`concat::ConcatenatedHasher`]),
//!   including the shared table-major row bank behind the single-pass
//!   batched evaluation ([`family::LshHasher::hash_all`]), and the
//!   engine's bank drawn as one sketch of `K × L` MinHash bins
//!   ([`sketch::BankSketch`]) instead of `K × L` rows;
//! * the multi-table index ([`table::LshIndex`]) that stores the dataset
//!   once per repetition and answers collision queries, every table in one
//!   representation, the frozen CSR bucket layout
//!   ([`frozen::FrozenTable`]), which updates never modify: appends and
//!   compactions build the next tables from the current ones in one linear
//!   pass; its two halves also stand alone, so several table sets
//!   ([`table::LshTables`]) can share one [`bank::HasherBank`] and a query
//!   is hashed once for all of them;
//! * reusable per-query scratch ([`scratch::QueryScratch`]) so the query
//!   hot path is allocation-free in the steady state;
//! * parameter selection helpers ([`params`]) mirroring the choices of
//!   Section 6 (expected number of far collisions ≈ 5, recall ≥ 99 %).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod concat;
pub mod family;
pub mod frozen;
pub mod gaussian;
pub mod minhash;
pub mod params;
pub mod pstable;
pub mod scratch;
pub mod simhash;
pub mod sketch;
pub mod snapshot;
pub mod table;

pub use bank::HasherBank;
pub use concat::{ConcatenatedFamily, ConcatenatedHasher};
pub use family::{CollisionModel, LshFamily, LshHasher};
pub use frozen::FrozenTable;
pub use minhash::{MinHash, MinHasher, OneBitMinHash, OneBitMinHasher};
pub use params::{LshParams, ParamsBuilder};
pub use pstable::{PStableHasher, PStableLsh};
pub use scratch::{DistanceMemo, QueryScratch, VisitedSet};
pub use simhash::{SimHash, SimHasher};
pub use snapshot::HasherBankCodec;
pub use table::{LshIndex, LshTable, LshTables};
