//! Concurrent, batch query-serving subsystem for fair near-neighbor
//! sampling.
//!
//! The paper's samplers are single-shot data structures: one monolithic
//! index, one query at a time, one core. This crate turns them into a
//! serving layer that takes inserts and deletes. An index holds two parts
//! keyed by one hasher bank: a base built over the dataset and a delta
//! over the points inserted since the last fold, so a commit rebuilds only
//! the small delta's tables while a query still probes each table of the
//! paper's single `L`-table structure at most twice. The load-bearing
//! observation is that a part needs no estimate to be sampled fairly: the
//! summed lengths `b_i` of its `L` query buckets never undercount its
//! distinct colliding points `D_i`, so a two-level sampler that proposes
//! parts by `b_i`, walks a part on first use and from then on weighs it by
//! `|D_i|` returns every near point of `∪_i D_i` with the same probability
//! in every round. A round evaluates only the one candidate it lands on and
//! drops it when it is far, so each candidate is evaluated at most once
//! and a draw pays for the far points it examines, as the paper's query
//! does. It is exactly uniform and ends within `f + 3` rounds for `f` far
//! candidates removed (see the `sharded` module docs).
//!
//! The pieces:
//!
//! * [`shard`] — one part: its LSH tables keyed by the index-wide hasher
//!   bank, the bucket-length bound, the bucket walk and the per-candidate
//!   predicate of a query, staged inserts, tombstoning deletes and
//!   part-local compaction;
//! * [`sharded`] — [`ShardedIndex`]: the base and the delta, the next
//!   global id, the fold, the one shared hasher bank (each query is hashed
//!   once for both parts), the exactly uniform two-level sampler (with its
//!   uniformity argument and round bound), and the [`ShardedSampler`]
//!   adapter into the `fairnn-core` sampler traits;
//! * [`engine`] — the batch executor [`ShardedIndex::run_batch_within`]:
//!   per-position RNG streams split from the root seed, so an [`Answer`]
//!   list is a pure function of the index, the seed and the request;
//! * [`seed`] — the deterministic stream-splitting helpers;
//! * [`api_types`] / [`reader`] / [`writer`] / [`generation`] — the live-
//!   update layer: an [`EngineWriter`] stages [`WriteBatch`] mutations,
//!   write-ahead-logs them and atomically publishes immutable
//!   generations, while cheap-to-clone [`EngineReader`]s pin an epoch
//!   ([`EpochPin`]) and answer batches on it through the executor —
//!   a commit never modifies a published generation, and crash recovery
//!   (checkpoint + WAL replay) is bit-identical to the live path.
//!
//! # Quick example
//!
//! ```
//! use fairnn_engine::{EngineWriter, QueryRequest, ShardedIndexConfig, WriteBatch};
//! use fairnn_core::SimilarityAtLeast;
//! use fairnn_lsh::{MinHash, ParamsBuilder};
//! use fairnn_space::{Dataset, Jaccard, SparseSet};
//!
//! // Toy dataset: three mutually similar users plus an outlier.
//! let data: Dataset<SparseSet> = vec![
//!     SparseSet::from_items(vec![1, 2, 3, 4]),
//!     SparseSet::from_items(vec![1, 2, 3, 5]),
//!     SparseSet::from_items(vec![1, 2, 3, 6]),
//!     SparseSet::from_items(vec![100, 200, 300]),
//! ].into_iter().collect();
//!
//! // The engine directory holds the checkpoint and the write-ahead log.
//! let dir = std::env::temp_dir().join(format!("fairnn-doc-{}", std::process::id()));
//! let params = ParamsBuilder::new(data.len(), 0.5, 0.1).empirical(&MinHash);
//! let mut writer = EngineWriter::bootstrap(
//!     &MinHash,
//!     params,
//!     &data,
//!     SimilarityAtLeast::new(Jaccard, 0.5),
//!     ShardedIndexConfig::default().seeded(7),
//!     &dir,
//! )?;
//! let reader = writer.reader();
//!
//! let query = SparseSet::from_items(vec![1, 2, 3, 4]);
//! let request = QueryRequest::new(vec![query.clone(), query.clone()]).with_batch(1);
//! let response = reader.pin().run_batch(&request);
//! assert_eq!(response.answers.len(), 2);
//! assert!(response.answers[0].id.is_some());
//!
//! // A commit publishes a new generation; the same request replays
//! // bit-for-bit on any pin of the same generation.
//! let receipt = writer.commit(WriteBatch::new().insert(query))?;
//! let pin = reader.pin();
//! assert_eq!(pin.generation(), receipt.generation);
//! assert_eq!(pin.run_batch(&request), reader.pin().run_batch(&request));
//! # drop(writer);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), fairnn_engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api_types;
pub mod engine;
pub mod generation;
pub mod reader;
pub mod seed;
pub mod shard;
pub mod sharded;
pub mod writer;

pub use api_types::{
    BatchResponse, CommitReceipt, DeadlineBudget, EngineError, QueryRequest, WriteBatch, WriteOp,
};
pub use engine::Answer;
pub use generation::Generation;
pub use reader::{EngineReader, EpochPin};
pub use shard::Shard;
pub use sharded::{PreparedQuery, ShardedIndex, ShardedIndexConfig, ShardedSampler};
pub use writer::{Checkpoint, EngineWriter, CHECKPOINT_FILE, WAL_FILE};
