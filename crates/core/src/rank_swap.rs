//! The Appendix A data structure: independent sampling for a repeated query.
//!
//! Repeating the same query against the Section 3 structure always returns
//! the same point (the permutation is fixed). Appendix A (Theorem 5) fixes
//! this for the special case where *one* query is repeated: after returning
//! the minimum-rank near point `x`, swap the rank of `x` with the rank of a
//! uniformly random point holding a rank in `[rank(x), n)` — a single step
//! of a Fisher–Yates shuffle. After the swap it is impossible to tell how
//! the remaining neighbours are distributed among the ranks above the old
//! `rank(x)`, so the next invocation of the same query again returns a
//! uniform and independent sample.
//!
//! The paper warns (and [`RankSwapSampler`] inherits the caveat) that the
//! guarantee only covers a single repeated query: interleaving different
//! queries biases them, because all previously returned points drift towards
//! high ranks. Use [`crate::FairNnis`] when full independence across queries
//! is needed.

use crate::nns::FairNns;
use crate::predicate::Nearness;
use crate::rank::RankPermutation;
use crate::sampler::{NeighborSampler, QueryStats};
use fairnn_lsh::{ConcatenatedHasher, HasherBankCodec, LshFamily, LshHasher, LshIndex, LshParams};
use fairnn_snapshot::{Codec, Section, SnapshotCodec, SnapshotError};
use fairnn_space::{Dataset, PointId};
use rand::Rng;

/// Fair sampler with rank re-randomisation after every query (Appendix A).
#[derive(Debug, Clone)]
pub struct RankSwapSampler<P, H, N> {
    inner: FairNns<P, H, N>,
}

impl<P: Clone + Sync, BH, N> RankSwapSampler<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
    N: Nearness<P>,
{
    /// Builds the data structure (same construction as [`FairNns`]).
    pub fn build<F, R>(
        family: &F,
        params: LshParams,
        dataset: &Dataset<P>,
        near: N,
        rng: &mut R,
    ) -> Self
    where
        F: LshFamily<P, Hasher = BH>,
        R: Rng + ?Sized,
    {
        Self {
            inner: FairNns::build(family, params, dataset, near, rng),
        }
    }
}

impl<P: Clone, H, N> RankSwapSampler<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Builds the sampler from an existing index and permutation.
    pub fn from_index(
        index: LshIndex<H>,
        dataset: &Dataset<P>,
        ranks: RankPermutation,
        near: N,
    ) -> Self {
        Self {
            inner: FairNns::from_index(index, dataset, ranks, near),
        }
    }
}

impl<P, H, N> RankSwapSampler<P, H, N> {
    /// The current rank permutation (changes after every successful query).
    pub fn ranks(&self) -> &RankPermutation {
        self.inner.ranks()
    }

    /// Number of LSH tables.
    pub fn num_tables(&self) -> usize {
        self.inner.num_tables()
    }
}

impl<P: Codec, H: HasherBankCodec, N: Codec> SnapshotCodec for RankSwapSampler<P, H, N> {
    /// The image of the wrapped [`FairNns`], current rank permutation and
    /// all.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        self.inner.encode_sections()
    }

    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        FairNns::decode_sections(sections).map(|inner| Self { inner })
    }
}

impl<P: Codec, H: HasherBankCodec, N: Codec> RankSwapSampler<P, H, N> {
    /// Writes the sampler (including the *current* rank permutation — the
    /// swap state survives the round trip) as a snapshot file.
    pub fn save<Q: AsRef<std::path::Path>>(&self, path: Q) -> Result<(), SnapshotError> {
        fairnn_snapshot::save(fairnn_snapshot::SnapshotKind::RankSwap, self, path)
    }

    /// Restores a sampler written by [`RankSwapSampler::save`].
    pub fn load<Q: AsRef<std::path::Path>>(path: Q) -> Result<Self, SnapshotError> {
        fairnn_snapshot::load(fairnn_snapshot::SnapshotKind::RankSwap, path)
    }
}

impl<P, H, N> NeighborSampler<P> for RankSwapSampler<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    fn sample<R: Rng + ?Sized>(&mut self, query: &P, rng: &mut R) -> Option<PointId> {
        let result = self.inner.min_rank_near_neighbor(query);
        if let Some((_, x)) = result {
            // Re-randomise *before* returning so the next repetition of the
            // same query sees a fresh permutation of the neighbourhood.
            self.inner.reshuffle_rank_of(x, rng);
        }
        result.map(|(_, id)| id)
    }

    fn last_query_stats(&self) -> QueryStats {
        self.inner.last_query_stats()
    }

    fn name(&self) -> &'static str {
        "rank-swap-nns"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::ExactSampler;
    use crate::predicate::SimilarityAtLeast;
    use fairnn_lsh::{MinHash, ParamsBuilder};
    use fairnn_space::{Jaccard, SparseSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clustered_dataset() -> Dataset<SparseSet> {
        let mut sets = Vec::new();
        for j in 0..6u32 {
            let mut items: Vec<u32> = (0..30).collect();
            items.push(100 + j);
            sets.push(SparseSet::from_items(items));
        }
        for j in 0..10u32 {
            sets.push(SparseSet::from_items(
                (1000 + j * 40..1000 + j * 40 + 12).collect(),
            ));
        }
        Dataset::new(sets)
    }

    #[test]
    fn repeated_query_is_uniform_over_the_neighborhood() {
        let data = clustered_dataset();
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sampler = RankSwapSampler::build(&MinHash, params, &data, near, &mut rng);

        let query = data.point(PointId(0)).clone();
        let neighborhood = ExactSampler::new(&data, near).neighborhood(&query);
        assert_eq!(neighborhood.len(), 6);

        let trials = 9000;
        let mut counts = vec![0usize; data.len()];
        for _ in 0..trials {
            let id = sampler
                .sample(&query, &mut rng)
                .expect("neighbourhood non-empty");
            assert!(neighborhood.contains(&id), "non-neighbour returned");
            counts[id.index()] += 1;
        }
        for &id in &neighborhood {
            let rate = counts[id.index()] as f64 / trials as f64;
            assert!(
                (rate - 1.0 / 6.0).abs() < 0.03,
                "member {id:?} rate {rate}, expected ~1/6"
            );
        }
    }

    #[test]
    fn repeated_query_output_actually_varies() {
        let data = clustered_dataset();
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sampler = RankSwapSampler::build(&MinHash, params, &data, near, &mut rng);
        let query = data.point(PointId(1)).clone();
        let outputs: std::collections::HashSet<PointId> = (0..200)
            .filter_map(|_| sampler.sample(&query, &mut rng))
            .collect();
        assert!(
            outputs.len() >= 4,
            "rank swapping should visit most of the neighbourhood, saw {outputs:?}"
        );
        assert_eq!(sampler.name(), "rank-swap-nns");
        assert!(sampler.num_tables() >= 1);
    }

    #[test]
    fn permutation_stays_consistent_after_many_swaps() {
        let data = clustered_dataset();
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = RankSwapSampler::build(&MinHash, params, &data, near, &mut rng);
        let query = data.point(PointId(2)).clone();
        for _ in 0..500 {
            let _ = sampler.sample(&query, &mut rng);
        }
        assert!(
            sampler.ranks().is_consistent(),
            "rank permutation corrupted"
        );
    }

    #[test]
    fn missing_neighborhood_returns_none_and_swaps_nothing() {
        let data = clustered_dataset();
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let mut rng = StdRng::seed_from_u64(4);
        let mut sampler = RankSwapSampler::build(&MinHash, params, &data, near, &mut rng);
        let before = sampler.ranks().clone();
        let query = SparseSet::from_items(vec![90_000, 90_001]);
        assert!(sampler.sample(&query, &mut rng).is_none());
        assert_eq!(sampler.ranks(), &before, "permutation must not change on ⊥");
    }
}
