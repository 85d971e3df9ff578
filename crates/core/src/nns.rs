//! The Section 3 data structure: r-near neighbor sampling (r-NNS).
//!
//! Construction (Theorem 1): build the standard `K × L` LSH index and assign
//! every point a rank from a uniformly random permutation; store each bucket
//! sorted by increasing rank. A query scans each of the `L` colliding
//! buckets *until the first near point* (which, by the sort order, is the
//! minimum-rank near point of that bucket) and returns the minimum-rank near
//! point over all buckets.
//!
//! Because the permutation is independent of the LSH randomness, each member
//! of `B_S(q, r)` is equally likely to hold the minimum rank, so the output
//! is uniform over the neighbourhood — the r-NNS guarantee. The query time
//! is `O((n^ρ + b_S(q, cr)/(b_S(q, r)+1)) log n)` in expectation: the random
//! permutation breaks long runs of (c, r)-near points, which is also why
//! this structure is *faster* than the standard LSH query on worst-case
//! inputs (end of Section 3).
//!
//! The same structure supports sampling `k` points **without replacement**
//! (Section 3.1): return the `k` near points of smallest rank.
//!
//! [`FairNns`] is also the LSH layer of the other paper samplers: the
//! Appendix A [`crate::RankSwapSampler`] re-ranks it after every query, and
//! the Section 4 [`crate::FairNnis`] adds one count-distinct sketch per
//! bucket. The rank sort, the snapshot sections and their validation exist
//! here once for all three.

use crate::predicate::Nearness;
use crate::rank::RankPermutation;
use crate::sampler::{NeighborSampler, QueryStats};
use fairnn_lsh::{
    ConcatenatedHasher, FrozenTable, HasherBank, HasherBankCodec, LshFamily, LshHasher, LshIndex,
    LshParams, QueryScratch,
};
use fairnn_snapshot::{Codec, Decoder, Encoder, Section, SnapshotError};
use fairnn_space::{Dataset, PointId};
use rand::Rng;

/// One LSH table of the ranked layout: bucket key → `(rank, id)` pairs
/// sorted by rank.
pub(crate) type RankedTable = FrozenTable<(u32, PointId)>;

/// The Section 3 fair r-NNS data structure.
///
/// Buckets are stored in the frozen CSR layout ([`FrozenTable`]): per table
/// one sorted key array and one contiguous array of `(rank, id)` entries
/// sorted by rank, so the first-near scan reads ranks inline instead of
/// chasing the permutation array. The structure is static after
/// construction (only the Appendix A rank swap rearranges bucket *contents*
/// in place), so it is built once from the index's tables, and each query
/// reuses an owned [`QueryScratch`] — including a per-query distance memo
/// that caps predicate evaluations at one per distinct candidate — so the
/// steady-state query performs no heap allocation.
#[derive(Debug, Clone)]
pub struct FairNns<P, H, N> {
    pub(crate) points: Vec<P>,
    pub(crate) bank: HasherBank<H>,
    /// Table `t` is keyed by `bank.hashers()[t]`.
    pub(crate) buckets: Vec<RankedTable>,
    ranks: RankPermutation,
    pub(crate) near: N,
    params: LshParams,
    pub(crate) stats: QueryStats,
    pub(crate) scratch: QueryScratch,
}

impl<P: Clone + Sync, BH, N> FairNns<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
    N: Nearness<P>,
{
    /// Builds the data structure: LSH index plus random rank permutation.
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
        let index = LshIndex::build(family, params, dataset.points(), rng);
        let ranks = RankPermutation::random(dataset.len(), rng);
        Self::from_index(index, dataset, ranks, near)
    }
}

impl<P: Clone, H, N> FairNns<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Builds the structure from an existing LSH index and rank permutation
    /// (used by tests that need to control the randomness and by the
    /// samplers that share the layout).
    pub fn from_index(
        index: LshIndex<H>,
        dataset: &Dataset<P>,
        ranks: RankPermutation,
        near: N,
    ) -> Self {
        assert_eq!(
            ranks.len(),
            dataset.len(),
            "rank permutation size must match the dataset"
        );
        let params = index.params();
        let (bank, tables) = index.into_parts();
        // Per-table rank sort + CSR freeze are disjoint work items: they run
        // on parallel build workers, in table order, so the result is
        // bit-identical to the serial construction.
        let buckets = fairnn_parallel::map_indexed(tables.len(), |t| {
            FrozenTable::from_buckets(tables[t].buckets().map(|(key, ids)| {
                let mut sorted: Vec<(u32, PointId)> =
                    ids.iter().map(|&id| (ranks.rank(id), id)).collect();
                sorted.sort_unstable();
                (key, sorted)
            }))
        });
        Self {
            points: dataset.points().to_vec(),
            bank,
            buckets,
            ranks,
            near,
            params,
            stats: QueryStats::default(),
            scratch: QueryScratch::new(),
        }
    }
}

impl<P, H, N> FairNns<P, H, N> {
    /// Number of indexed points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of LSH tables `L`.
    pub fn num_tables(&self) -> usize {
        self.buckets.len()
    }

    /// The LSH parameters the structure was built with.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// The rank permutation (exposed for the rank-swap sampler and tests).
    pub fn ranks(&self) -> &RankPermutation {
        &self.ranks
    }

    /// Total number of bucket entries over all tables (the `Θ(nL)` space
    /// term of Theorem 1).
    pub fn total_entries(&self) -> usize {
        self.buckets.iter().map(FrozenTable::num_entries).sum()
    }
}

impl<P, H, N> FairNns<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// The minimum-rank near neighbour of `query`, together with its rank.
    ///
    /// This is the deterministic core of the Theorem 1 query; `sample`
    /// simply forwards to it (the "randomness" of the output lives entirely
    /// in the rank permutation drawn at construction time).
    pub fn min_rank_near_neighbor(&mut self, query: &P) -> Option<(u32, PointId)> {
        let Self {
            points,
            bank,
            buckets,
            near,
            scratch,
            ..
        } = self;
        let mut stats = QueryStats::default();
        // All K × L row hashes in one batched pass, into the reused buffer.
        bank.query_keys_into(query, &mut scratch.keys);
        scratch.memo.reset(points.len());
        let memo = &mut scratch.memo;
        // Warm the directory cell of every table while the first probe is
        // still in flight.
        for (table, &key) in buckets.iter().zip(scratch.keys.iter()) {
            table.prefetch(key);
        }
        let mut best: Option<(u32, PointId)> = None;
        for (table, &key) in buckets.iter().zip(scratch.keys.iter()) {
            stats.buckets_inspected += 1;
            let bucket = table.bucket(key);
            for (pos, &(rank, id)) in bucket.iter().enumerate() {
                stats.entries_scanned += 1;
                // Skip points that cannot improve the current minimum: the
                // bucket is rank-sorted, so once we pass the current best we
                // can stop scanning this bucket.
                if let Some((best_rank, _)) = best {
                    if rank >= best_rank {
                        break;
                    }
                }
                if let Some(&(_, ahead)) = bucket.get(pos + 1) {
                    fairnn_snapshot::prefetch_read(points, ahead.index());
                }
                let is_near = memo.get_or_insert_with(id.index(), || {
                    stats.distance_computations += 1;
                    near.is_near(query, &points[id.index()])
                });
                if is_near {
                    best = Some((rank, id));
                    break; // first near point in this bucket has its minimum rank
                }
            }
        }
        self.stats = stats;
        best
    }

    /// Returns up to `k` points sampled **without replacement** from the
    /// neighbourhood of `query`: the `k` near points of smallest rank
    /// (Section 3.1). Returns fewer than `k` points when the neighbourhood
    /// (restricted to colliding points) is smaller than `k`.
    pub fn sample_without_replacement(&mut self, query: &P, k: usize) -> Vec<PointId> {
        let Self {
            points,
            bank,
            buckets,
            near,
            scratch,
            ..
        } = self;
        let mut stats = QueryStats::default();
        bank.query_keys_into(query, &mut scratch.keys);
        scratch.memo.reset(points.len());
        let memo = &mut scratch.memo;
        for (table, &key) in buckets.iter().zip(scratch.keys.iter()) {
            table.prefetch(key);
        }
        // Collect the k smallest-rank near points of each bucket, then merge.
        let mut candidates: Vec<(u32, PointId)> = Vec::new();
        for (table, &key) in buckets.iter().zip(scratch.keys.iter()) {
            stats.buckets_inspected += 1;
            let mut found = 0usize;
            let bucket = table.bucket(key);
            for (pos, &(rank, id)) in bucket.iter().enumerate() {
                stats.entries_scanned += 1;
                if let Some(&(_, ahead)) = bucket.get(pos + 1) {
                    fairnn_snapshot::prefetch_read(points, ahead.index());
                }
                let is_near = memo.get_or_insert_with(id.index(), || {
                    stats.distance_computations += 1;
                    near.is_near(query, &points[id.index()])
                });
                if is_near {
                    candidates.push((rank, id));
                    found += 1;
                    if found >= k {
                        break;
                    }
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.truncate(k);
        self.stats = stats;
        candidates.into_iter().map(|(_, id)| id).collect()
    }
}

impl<P, H, N> FairNns<P, H, N>
where
    H: LshHasher<P>,
{
    /// Appendix A rank re-randomisation: swap the rank of `x` with the rank
    /// of a uniformly random point holding a rank in `[rank(x), n)` and
    /// restore the rank-sorted order of every bucket containing either point.
    /// Returns the point `x` was swapped with.
    pub(crate) fn reshuffle_rank_of<R: Rng + ?Sized>(
        &mut self,
        x: PointId,
        rng: &mut R,
    ) -> PointId {
        let Self {
            points,
            bank,
            buckets,
            ranks,
            ..
        } = self;
        let y = ranks.reshuffle_upwards(x, rng);
        if y == x {
            return y;
        }
        // Restore stored ranks and rank order in every bucket containing x
        // or y. The frozen layout supports this in place: a bucket is a
        // contiguous slice whose *contents* may be rearranged freely.
        for p in [x, y] {
            let keys = bank.point_keys(&points[p.index()]);
            for (table, &key) in buckets.iter_mut().zip(&keys) {
                if let Some(bucket) = table.bucket_mut(key) {
                    for entry in bucket.iter_mut() {
                        entry.0 = ranks.rank(entry.1);
                    }
                    bucket.sort_unstable();
                }
            }
        }
        y
    }
}

/// The bucket checks of a decoded ranked table, run on the build workers:
/// every entry names an indexed point under the rank the permutation gives
/// it, and every bucket is strictly rank-sorted. The min-rank scan
/// early-exits on the first near point and the Section 4 rank-range query
/// binary-searches the ranks, so an entry whose stored rank is not its
/// point's rank, or an unsorted bucket, would silently bias sampling rather
/// than fail: both are part of the format.
fn validate_ranked_table(
    table: &RankedTable,
    ranks: &RankPermutation,
) -> Result<(), SnapshotError> {
    for (_, bucket) in table.buckets() {
        let misranked = bucket
            .iter()
            .find(|&&(rank, id)| id.index() >= ranks.len() || ranks.rank(id) != rank);
        if let Some(&(rank, id)) = misranked {
            return Err(SnapshotError::Corrupt(format!(
                "bucket entry (rank {rank}, {id}) does not match the rank permutation over {} \
                 points",
                ranks.len()
            )));
        }
        if !bucket.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt(
                "bucket entries are not strictly rank-sorted".into(),
            ));
        }
    }
    Ok(())
}

/// One section per item, encoded on the build workers in item order.
pub(crate) fn encode_each(len: usize, encode: impl Fn(usize, &mut Encoder) + Sync) -> Vec<Vec<u8>> {
    fairnn_parallel::map_indexed(len, |i| {
        let mut enc = Encoder::new();
        encode(i, &mut enc);
        enc.into_bytes()
    })
}

/// Decodes one value from each of `sections` on the build workers; each
/// section must be consumed whole.
pub(crate) fn decode_each<T: Send>(
    sections: &[Section<'_>],
    decode: impl Fn(usize, &mut Decoder<'_>) -> Result<T, SnapshotError> + Sync,
) -> Result<Vec<T>, SnapshotError> {
    fairnn_parallel::map_indexed(sections.len(), |i| {
        let mut dec = sections[i].decoder();
        let value = decode(i, &mut dec)?;
        dec.finish()?;
        Ok(value)
    })
    .into_iter()
    .collect()
}

impl<P: Codec, H: HasherBankCodec, N: Codec> FairNns<P, H, N> {
    /// Decodes the sections [`SnapshotCodec::encode_sections`] writes from
    /// the front of `sections` and returns the ones after them, which the
    /// structures that extend this one ([`crate::FairNnis`]) append.
    ///
    /// [`SnapshotCodec::encode_sections`]: fairnn_snapshot::SnapshotCodec::encode_sections
    pub(crate) fn decode_prefix<'s, 'a>(
        sections: &'s [Section<'a>],
    ) -> Result<(Self, &'s [Section<'a>]), SnapshotError> {
        let [head, bank_section, rest @ ..] = sections else {
            return Err(SnapshotError::Corrupt(
                "ranked snapshot needs a head and a hasher bank section".into(),
            ));
        };
        let mut dec = head.decoder();
        let points = Vec::<P>::decode(&mut dec)?;
        let ranks = RankPermutation::decode(&mut dec)?;
        let near = N::decode(&mut dec)?;
        let params = LshParams::decode(&mut dec)?;
        dec.finish()?;
        if ranks.len() != points.len() {
            return Err(SnapshotError::Corrupt(format!(
                "rank permutation over {} points does not match {} stored points",
                ranks.len(),
                points.len()
            )));
        }
        let mut dec = bank_section.decoder();
        let bank = HasherBank::<H>::decode(&mut dec)?;
        dec.finish()?;
        bank.check_shape(params)?;
        let Some((table_sections, rest)) = rest.split_at_checked(bank.num_tables()) else {
            return Err(SnapshotError::Corrupt(format!(
                "ranked snapshot holds {} sections after its bank, its {} tables need more",
                rest.len(),
                bank.num_tables()
            )));
        };
        let buckets = decode_each(table_sections, |_, dec| {
            let table = RankedTable::decode(dec)?;
            validate_ranked_table(&table, &ranks)?;
            Ok(table)
        })?;
        let nns = Self {
            points,
            bank,
            buckets,
            ranks,
            near,
            params,
            stats: QueryStats::default(),
            scratch: QueryScratch::new(),
        };
        Ok((nns, rest))
    }
}

impl<P: Codec, H: HasherBankCodec, N: Codec> fairnn_snapshot::SnapshotCodec for FairNns<P, H, N> {
    /// Sectioned container image: a head section (points, rank
    /// permutation, predicate, parameters), the hasher bank section, then
    /// one section per rank-sorted table — so the per-table encode,
    /// checksum and decode-with-validation run on parallel build workers.
    /// Bytes are identical at every thread count.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut head = Encoder::new();
        self.points.encode(&mut head);
        self.ranks.encode(&mut head);
        self.near.encode(&mut head);
        self.params.encode(&mut head);
        let mut bank = Encoder::new();
        self.bank.encode(&mut bank);
        let mut sections = vec![head.into_bytes(), bank.into_bytes()];
        // Capture only the tables (not `self`), so the parallel encode needs
        // no `Sync` bounds on the point/hasher/predicate types.
        let buckets = &self.buckets;
        sections.extend(encode_each(buckets.len(), |t, enc| buckets[t].encode(enc)));
        sections
    }

    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        let (nns, rest) = Self::decode_prefix(sections)?;
        if !rest.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "fair-nns snapshot holds {} sections past its tables",
                rest.len()
            )));
        }
        Ok(nns)
    }
}

impl<P: Codec, H: HasherBankCodec, N: Codec> FairNns<P, H, N> {
    /// Writes the whole structure — points, hasher bank, rank-sorted frozen
    /// buckets, rank permutation — as a versioned, checksummed snapshot.
    pub fn save<Q: AsRef<std::path::Path>>(
        &self,
        path: Q,
    ) -> Result<(), fairnn_snapshot::SnapshotError> {
        fairnn_snapshot::save(fairnn_snapshot::SnapshotKind::FairNns, self, path)
    }

    /// Restores a structure written by [`FairNns::save`]; the restored
    /// sampler answers every query exactly like the saved one.
    pub fn load<Q: AsRef<std::path::Path>>(
        path: Q,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        fairnn_snapshot::load(fairnn_snapshot::SnapshotKind::FairNns, path)
    }
}

impl<P, H, N> NeighborSampler<P> for FairNns<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Returns the minimum-rank near neighbour. Note that for a fixed build
    /// this is deterministic — uniformity holds over the randomness of the
    /// construction, which is exactly the r-NNS guarantee (Definition 1).
    /// Use [`crate::RankSwapSampler`] or [`crate::FairNnis`] when repeated
    /// queries must produce independent samples.
    fn sample<R: Rng + ?Sized>(&mut self, query: &P, _rng: &mut R) -> Option<PointId> {
        self.min_rank_near_neighbor(query).map(|(_, id)| id)
    }

    fn last_query_stats(&self) -> QueryStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "fair-nns"
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
        for j in 0..8u32 {
            let mut items: Vec<u32> = (0..24).collect();
            items.push(100 + j);
            items.push(200 + j);
            sets.push(SparseSet::from_items(items));
        }
        for j in 0..8u32 {
            sets.push(SparseSet::from_items(
                (1000 + j * 40..1000 + j * 40 + 15).collect(),
            ));
        }
        Dataset::new(sets)
    }

    fn build(
        seed: u64,
    ) -> (
        Dataset<SparseSet>,
        FairNns<SparseSet, ConcatenatedHasher<fairnn_lsh::MinHasher>, SimilarityAtLeast<Jaccard>>,
    ) {
        let data = clustered_dataset();
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = FairNns::build(
            &MinHash,
            params,
            &data,
            SimilarityAtLeast::new(Jaccard, 0.5),
            &mut rng,
        );
        (data, sampler)
    }

    #[test]
    fn returns_a_near_point_for_clustered_queries() {
        let (data, mut sampler) = build(1);
        let mut rng = StdRng::seed_from_u64(10);
        for qi in 0..8u32 {
            let query = data.point(PointId(qi)).clone();
            let id = sampler
                .sample(&query, &mut rng)
                .expect("cluster member expected");
            assert!(id.index() < 8, "returned far point {id:?} for query {qi}");
        }
        assert!(sampler.last_query_stats().distance_computations > 0);
        assert_eq!(sampler.name(), "fair-nns");
    }

    #[test]
    fn returns_none_for_isolated_query() {
        let (_, mut sampler) = build(2);
        let mut rng = StdRng::seed_from_u64(11);
        let query = SparseSet::from_items(vec![70_000, 70_001, 70_002]);
        assert!(sampler.sample(&query, &mut rng).is_none());
    }

    #[test]
    fn output_matches_minimum_rank_of_exact_neighborhood() {
        // With 99%-recall parameters the structure finds every neighbour, so
        // the returned point must be exactly the min-rank member of the true
        // neighbourhood.
        let (data, mut sampler) = build(3);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        for qi in 0..8u32 {
            let query = data.point(PointId(qi)).clone();
            let expected = exact
                .neighborhood(&query)
                .into_iter()
                .min_by_key(|id| sampler.ranks().rank(*id))
                .unwrap();
            let (_, got) = sampler.min_rank_near_neighbor(&query).unwrap();
            assert_eq!(got, expected, "query {qi}");
        }
    }

    #[test]
    fn repeated_queries_return_the_same_point() {
        let (data, mut sampler) = build(4);
        let mut rng = StdRng::seed_from_u64(12);
        let query = data.point(PointId(0)).clone();
        let first = sampler.sample(&query, &mut rng);
        for _ in 0..10 {
            assert_eq!(sampler.sample(&query, &mut rng), first);
        }
    }

    #[test]
    fn output_is_uniform_over_rebuilds() {
        // The r-NNS guarantee: over the construction randomness, each of the
        // 8 cluster members is returned with probability ~1/8.
        let data = clustered_dataset();
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let query = data.point(PointId(0)).clone();
        let mut counts = vec![0usize; data.len()];
        let rebuilds = 1200;
        for seed in 0..rebuilds {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut sampler = FairNns::build(&MinHash, params, &data, near, &mut rng);
            let id = sampler.sample(&query, &mut rng).expect("non-empty");
            counts[id.index()] += 1;
        }
        for (member, &count) in counts.iter().enumerate().take(8) {
            let rate = count as f64 / rebuilds as f64;
            assert!(
                (rate - 1.0 / 8.0).abs() < 0.05,
                "member {member} returned with rate {rate}"
            );
        }
    }

    #[test]
    fn without_replacement_returns_smallest_ranks_without_duplicates() {
        let (data, mut sampler) = build(5);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(3)).clone();
        let neighborhood = exact.neighborhood(&query);
        let k = 4;
        let sample = sampler.sample_without_replacement(&query, k);
        assert_eq!(sample.len(), k);
        // No duplicates.
        let mut dedup = sample.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), k);
        // They are exactly the k smallest-rank members of the neighbourhood.
        let mut expected: Vec<PointId> = neighborhood.clone();
        expected.sort_by_key(|id| sampler.ranks().rank(*id));
        expected.truncate(k);
        let mut got = sample.clone();
        got.sort_by_key(|id| sampler.ranks().rank(*id));
        assert_eq!(got, expected);
        // Asking for more than the neighbourhood returns the whole
        // neighbourhood.
        let all = sampler.sample_without_replacement(&query, 100);
        assert_eq!(all.len(), neighborhood.len());
    }

    #[test]
    fn structure_accounting() {
        let (data, sampler) = build(6);
        assert_eq!(sampler.num_points(), data.len());
        assert!(sampler.num_tables() >= 1);
        assert_eq!(
            sampler.total_entries(),
            data.len() * sampler.num_tables(),
            "every point appears once per table"
        );
        assert_eq!(sampler.params().near, 0.5);
    }
}
