//! The batch executor: the one way a batch of queries is answered.
//!
//! [`ShardedIndex::run_batch_within`] walks a [`QueryRequest`] position by
//! position. Each position draws from its own RNG stream split off the root
//! seed by `(request.batch, position)`, so a response is a pure function of
//! the index contents, the root seed and the request — independent of
//! which thread runs it, of what ran before it, and of how many positions
//! precede it. Every route serves through this loop: [`crate::EpochPin`]
//! (and so the network server) only adds the generation stamp, and tests
//! and benches holding a bare index call it directly.

use crate::api_types::{DeadlineBudget, EngineError, QueryRequest};
use crate::seed::{split_seed, stream_rng};
use crate::sharded::ShardedIndex;
use fairnn_core::predicate::Nearness;
use fairnn_core::QueryStats;
use fairnn_lsh::LshHasher;
use fairnn_obs::{LazyCounter, LazyHistogram, Timer};
use fairnn_space::PointId;

/// Wall time of one batch, deadline-rejected batches included.
static BATCH_NS: LazyHistogram = LazyHistogram::new(
    "engine_batch_ns",
    "wall time of one run_batch call in nanoseconds",
);

/// Queries answered across all completed batches.
static QUERIES_TOTAL: LazyCounter = LazyCounter::new(
    "engine_queries_total",
    "queries answered by run_batch across all batches",
);

/// One answered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// The sampled neighbor, or `None` (the paper's `⊥`) for an empty
    /// neighborhood.
    pub id: Option<PointId>,
    /// Pipeline work performed for this answer.
    pub stats: QueryStats,
}

/// RNG stream tag for batches (domain-separated from the index streams).
pub(crate) const STREAM_BATCH_BASE: u64 = 3 << 32;

impl<P, H, N> ShardedIndex<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Answers a batch with no deadline (see
    /// [`ShardedIndex::run_batch_within`]); `answers[i]` corresponds to
    /// `request.queries[i]`.
    pub fn run_batch(&self, request: &QueryRequest<P>) -> Vec<Answer> {
        match self.run_batch_within(request, &DeadlineBudget::unlimited()) {
            Ok(answers) => answers,
            // Unreachable: an unlimited budget never expires, and the
            // budget check is the only failure path.
            Err(err) => unreachable!("unlimited budget failed: {err}"),
        }
    }

    /// Answers a batch, checking the deadline budget between queries and
    /// failing fast with [`EngineError::DeadlineExceeded`] once it expires.
    ///
    /// The check sits *between* positions, so an accepted response is
    /// always complete and bit-identical to the unbudgeted run. A rejected
    /// batch returns no partial answers — the deterministic serving
    /// contract is all-or-nothing.
    pub fn run_batch_within(
        &self,
        request: &QueryRequest<P>,
        budget: &DeadlineBudget,
    ) -> Result<Vec<Answer>, EngineError> {
        let _timer = Timer::start(&BATCH_NS);
        let batch_seed = split_seed(
            self.config().seed,
            STREAM_BATCH_BASE.wrapping_add(request.batch),
        );
        let total = request.queries.len();
        let mut answers = Vec::with_capacity(total);
        for (pos, query) in request.queries.iter().enumerate() {
            if budget.expired() {
                return Err(EngineError::DeadlineExceeded {
                    completed: pos,
                    total,
                });
            }
            let mut rng = stream_rng(batch_seed, pos as u64);
            let (id, stats) = self.sample(query, &mut rng);
            answers.push(Answer { id, stats });
        }
        QUERIES_TOTAL.add(total as u64);
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedIndexConfig;
    use fairnn_core::{ExactSampler, SimilarityAtLeast};
    use fairnn_lsh::{ConcatenatedHasher, MinHash, MinHasher, ParamsBuilder};
    use fairnn_space::{Dataset, Jaccard, SparseSet};

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

    type Index = ShardedIndex<SparseSet, ConcatenatedHasher<MinHasher>, SimilarityAtLeast<Jaccard>>;

    fn build(config: ShardedIndexConfig) -> (Dataset<SparseSet>, Index) {
        let data = clustered_dataset();
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let index = ShardedIndex::build(&MinHash, params, &data, near, config);
        (data, index)
    }

    fn mixed_batch(data: &Dataset<SparseSet>) -> Vec<SparseSet> {
        // Distinct queries with deliberate duplicates sprinkled in.
        let mut batch = Vec::new();
        for round in 0..3 {
            for qi in 0..10u32 {
                batch.push(data.point(PointId(qi)).clone());
                if round == 1 && qi % 3 == 0 {
                    batch.push(data.point(PointId(0)).clone());
                }
            }
        }
        batch
    }

    #[test]
    fn batch_answers_line_up_with_queries() {
        let (data, index) = build(ShardedIndexConfig::default().seeded(21));
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let batch = mixed_batch(&data);
        let answers = index.run_batch(&QueryRequest::new(batch.clone()));
        assert_eq!(answers.len(), batch.len());
        for (query, answer) in batch.iter().zip(&answers) {
            let neighborhood = exact.neighborhood(query);
            let id = answer.id.expect("cluster queries have neighbors");
            assert!(neighborhood.contains(&id));
            // Every position runs the full pipeline, duplicates included.
            assert!(answer.stats.rounds >= 1);
        }
        // Duplicate positions draw from their own streams.
        let repeats: Vec<_> = batch
            .iter()
            .zip(&answers)
            .filter(|(q, _)| **q == batch[0])
            .map(|(_, a)| a.id)
            .collect();
        assert!(repeats.len() > 3);
        assert!(repeats.iter().any(|&id| id != repeats[0]));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "raw threads answer concurrently, as a server's workers would"
    )]
    fn identical_seeds_give_identical_answers_across_thread_counts() {
        // The determinism regression: one thread per batch number, all
        // answering concurrently over one shared index, must reproduce the
        // serial answers bit for bit.
        let (data, index) = build(ShardedIndexConfig::default().seeded(33));
        let requests: Vec<QueryRequest<SparseSet>> = (0..8u64)
            .map(|b| QueryRequest::new(mixed_batch(&data)).with_batch(b))
            .collect();
        let serial: Vec<Vec<Answer>> = requests.iter().map(|r| index.run_batch(r)).collect();
        let parallel: Vec<Vec<Answer>> = std::thread::scope(|scope| {
            let workers: Vec<_> = requests
                .iter()
                .map(|r| scope.spawn(|| index.run_batch(r)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(serial, parallel, "thread count changed the answers");
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_, index) = build(ShardedIndexConfig::default());
        assert!(index.run_batch(&QueryRequest::new(Vec::new())).is_empty());
    }

    #[test]
    fn snapshot_mid_serving_continues_bit_for_bit() {
        use fairnn_snapshot::{from_bytes, to_bytes, SnapshotKind};
        let (data, index) = build(ShardedIndexConfig::default().seeded(31));
        let batch = mixed_batch(&data);
        let _ = index.run_batch(&QueryRequest::new(batch.clone()));
        let _ = index.run_batch(&QueryRequest::new(batch.clone()).with_batch(1));

        // Serving leaves no state behind, so a snapshot taken mid-serving
        // answers the *next* batches exactly like the live index.
        let bytes = to_bytes(SnapshotKind::ShardedIndex, &index);
        let restored: Index = from_bytes(SnapshotKind::ShardedIndex, &bytes).expect("load");
        for b in 2..4u64 {
            let request = QueryRequest::new(batch.clone()).with_batch(b);
            assert_eq!(restored.run_batch(&request), index.run_batch(&request));
        }
    }
}
