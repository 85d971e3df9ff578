//! Baseline near-neighbor searchers used as comparison points.
//!
//! Three baselines appear in the paper:
//!
//! * [`ExactSampler`] — the trivial solution: scan the whole dataset, build
//!   `B_S(q, r)` exactly and sample uniformly. Perfectly fair and
//!   independent, but the query time is `Θ(n)`; it is the ground truth the
//!   fair LSH structures are validated against.
//! * [`StandardLsh`] — the classic LSH query of Section 2.2: scan the `L`
//!   buckets in a fixed order and return the *first* near point encountered.
//!   This is the "standard LSH" curve of Figure 1 and is demonstrably unfair
//!   (points that collide with the query more often, i.e. closer points, are
//!   returned more often).
//! * [`NaiveFairLsh`] — what Section 6 calls *fair LSH*: collect **all** near
//!   points in the `L` buckets, remove duplicates and return one uniformly at
//!   random. Fair, but the query pays for the full neighbourhood
//!   (`Θ̃(b_S(q, r) n^ρ + b_S(q, cr))` in the worst case, as discussed in
//!   Section 2.2).
//!
//! Run at the far threshold `cr`, the naive fair query is also Section 6.2's
//! *approximate neighbourhood* sampler ([`ApproximateNeighborhoodSampler`]):
//! Har-Peled and Mahabadi's relaxed fairness notion samples uniformly from a
//! set `S'` that holds every r-near point but may also hold points up to
//! `cr`, and the LSH implementation the paper evaluates takes
//! `S' = S(q, cr) ∩ (∪_i S_{i, ℓ_i(q)})`, the colliding points that are not
//! far. Section 6.2 builds a dataset (`fairnn_data::adversarial`) on which
//! this notion is badly unfair: a point whose neighbourhood is a tight
//! cluster is sampled with probability `O(1/n)`, an isolated point at the
//! same distance with constant probability (Figure 2).

use crate::predicate::Nearness;
use crate::sampler::{NeighborSampler, QueryStats};
use fairnn_lsh::{ConcatenatedHasher, LshFamily, LshHasher, LshIndex, LshParams, QueryScratch};
use fairnn_space::{Dataset, PointId};
use rand::Rng;

/// Exact (linear scan) fair sampler — the ground-truth baseline.
#[derive(Debug, Clone)]
pub struct ExactSampler<P, N> {
    points: Vec<P>,
    near: N,
    stats: QueryStats,
    scratch: QueryScratch,
}

impl<P: Clone, N> ExactSampler<P, N> {
    /// Builds the sampler from a dataset and nearness predicate.
    pub fn new(dataset: &Dataset<P>, near: N) -> Self {
        Self {
            points: dataset.points().to_vec(),
            near,
            stats: QueryStats::default(),
            scratch: QueryScratch::new(),
        }
    }

    /// The exact neighbourhood of a query (ids in increasing order).
    pub fn neighborhood(&self, query: &P) -> Vec<PointId>
    where
        N: Nearness<P>,
    {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| self.near.is_near(query, p))
            .map(|(i, _)| PointId::from_index(i))
            .collect()
    }
}

impl<P, N: Nearness<P>> NeighborSampler<P> for ExactSampler<P, N> {
    fn sample<R: Rng + ?Sized>(&mut self, query: &P, rng: &mut R) -> Option<PointId> {
        let mut stats = QueryStats::default();
        let near_points = &mut self.scratch.candidates;
        near_points.clear();
        for (i, p) in self.points.iter().enumerate() {
            stats.entries_scanned += 1;
            stats.distance_computations += 1;
            if self.near.is_near(query, p) {
                near_points.push(PointId::from_index(i));
            }
        }
        let result = if near_points.is_empty() {
            None
        } else {
            Some(near_points[rng.random_range(0..near_points.len())])
        };
        self.stats = stats;
        result
    }

    fn last_query_stats(&self) -> QueryStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// The standard (unfair) LSH query: return the first near point found while
/// scanning the buckets in table order.
#[derive(Debug, Clone)]
pub struct StandardLsh<P, H, N> {
    points: Vec<P>,
    index: LshIndex<H>,
    near: N,
    stats: QueryStats,
    scratch: QueryScratch,
}

impl<P: Clone + Sync, BH, N> StandardLsh<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
{
    /// Builds the standard LSH searcher with the given family and
    /// parameters.
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
        Self {
            points: dataset.points().to_vec(),
            index,
            near,
            stats: QueryStats::default(),
            scratch: QueryScratch::new(),
        }
    }
}

impl<P, H, N> StandardLsh<P, H, N> {
    /// The underlying LSH index (exposed for space accounting and tests).
    pub fn index(&self) -> &LshIndex<H> {
        &self.index
    }
}

impl<P, H, N> StandardLsh<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// The pure Section 2.2 query: scan tables in build order, scan bucket
    /// entries in insertion order, return the first near point. Fully
    /// deterministic for a fixed index and query.
    pub fn sample_deterministic(&mut self, query: &P) -> Option<PointId> {
        let mut stats = QueryStats::default();
        let mut result = None;
        self.index.query_keys_into(query, &mut self.scratch.keys);
        'tables: for (t, &key) in self.scratch.keys.iter().enumerate() {
            stats.buckets_inspected += 1;
            for &id in self.index.table(t).bucket(key) {
                stats.entries_scanned += 1;
                stats.distance_computations += 1;
                if self.near.is_near(query, &self.points[id.index()]) {
                    result = Some(id);
                    break 'tables;
                }
            }
        }
        self.stats = stats;
        result
    }
}

impl<P, H, N> NeighborSampler<P> for StandardLsh<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// The standard LSH query with randomised visiting order: tables are
    /// visited in a random permutation and each bucket is scanned starting
    /// at a random offset. The paper notes (Section 2.2) that the standard
    /// approach is biased *"even if the order in which the L hash tables are
    /// visited is randomized"* — this is the variant the Figure 1 experiment
    /// measures, because it exposes the output distribution of a single
    /// build without rebuilding the index for every repetition.
    fn sample<R: Rng + ?Sized>(&mut self, query: &P, rng: &mut R) -> Option<PointId> {
        let mut stats = QueryStats::default();
        let Self {
            points,
            index,
            near,
            scratch,
            ..
        } = self;
        index.query_keys_into(query, &mut scratch.keys);
        // Random visiting order over tables (kept in the reused index
        // buffer, so the randomness consumption matches the historical
        // `Vec`-based shuffle exactly).
        let order = &mut scratch.indices;
        order.clear();
        order.extend(0..scratch.keys.len() as u32);
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut result = None;
        'tables: for &t in order.iter() {
            let bucket = index.table(t as usize).bucket(scratch.keys[t as usize]);
            stats.buckets_inspected += 1;
            if bucket.is_empty() {
                continue;
            }
            let offset = rng.random_range(0..bucket.len());
            for step in 0..bucket.len() {
                let id = bucket[(offset + step) % bucket.len()];
                stats.entries_scanned += 1;
                stats.distance_computations += 1;
                if near.is_near(query, &points[id.index()]) {
                    result = Some(id);
                    break 'tables;
                }
            }
        }
        self.stats = stats;
        result
    }

    fn last_query_stats(&self) -> QueryStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "standard-lsh"
    }
}

/// The naive fair LSH query of Section 6: collect every near point in the
/// buckets, deduplicate, and sample uniformly.
///
/// Under a predicate at the far threshold `cr` (e.g.
/// `SimilarityAtLeast::new(Jaccard, 0.5)` for the Section 6.2 instance) it
/// samples the approximate neighbourhood `S'`; see the module docs.
#[derive(Debug, Clone)]
pub struct NaiveFairLsh<P, H, N> {
    points: Vec<P>,
    index: LshIndex<H>,
    near: N,
    stats: QueryStats,
    scratch: QueryScratch,
}

impl<P: Clone + Sync, BH, N> NaiveFairLsh<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
{
    /// Builds the naive fair LSH searcher.
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
        Self {
            points: dataset.points().to_vec(),
            index,
            near,
            stats: QueryStats::default(),
            scratch: QueryScratch::new(),
        }
    }
}

/// Section 6.2's approximate-neighbourhood sampler: [`NaiveFairLsh`] built
/// with a predicate at the far threshold `cr`, so it samples uniformly from
/// the colliding points that are not far (see the module docs).
pub type ApproximateNeighborhoodSampler<P, H, N> = NaiveFairLsh<P, H, N>;

impl<P, H, N> NaiveFairLsh<P, H, N> {
    /// The underlying LSH index.
    pub fn index(&self) -> &LshIndex<H> {
        &self.index
    }
}

impl<P, H, N> NaiveFairLsh<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// All near points colliding with the query, deduplicated — the
    /// candidate set the naive query samples from. The allocation-free form
    /// used by [`NeighborSampler::sample`] leaves the candidates in the
    /// owned scratch; this public wrapper clones them out.
    pub fn near_candidates(&mut self, query: &P) -> Vec<PointId> {
        self.fill_near_candidates(query);
        self.scratch.candidates.clone()
    }

    /// Collects the deduplicated colliding near points into
    /// `self.scratch.candidates`, in walk order: the index's deduplicated
    /// colliding set ([`LshIndex::colliding_ids_into`], allocation-free),
    /// filtered by the predicate. Every distinct colliding point is
    /// evaluated once.
    fn fill_near_candidates(&mut self, query: &P) {
        let Self {
            points,
            index,
            near,
            scratch,
            stats,
        } = self;
        let entries_scanned = index.colliding_ids_into(query, scratch);
        *stats = QueryStats {
            entries_scanned,
            distance_computations: scratch.candidates.len(),
            buckets_inspected: index.num_tables(),
            rounds: 0,
        };
        scratch
            .candidates
            .retain(|id| near.is_near(query, &points[id.index()]));
    }
}

impl<P, H, N> NeighborSampler<P> for NaiveFairLsh<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    fn sample<R: Rng + ?Sized>(&mut self, query: &P, rng: &mut R) -> Option<PointId> {
        self.fill_near_candidates(query);
        let candidates = &self.scratch.candidates;
        if candidates.is_empty() {
            None
        } else {
            let pick = rng.random_range(0..candidates.len());
            Some(candidates[pick])
        }
    }

    fn last_query_stats(&self) -> QueryStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "naive-fair-lsh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::SimilarityAtLeast;
    use fairnn_lsh::{MinHash, OneBitMinHash, ParamsBuilder};
    use fairnn_space::{Jaccard, Similarity, SparseSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset() -> Dataset<SparseSet> {
        let mut sets = Vec::new();
        // Cluster of 6 mutually similar sets.
        for j in 0..6u32 {
            let mut items: Vec<u32> = (0..20).collect();
            items.push(100 + j);
            sets.push(SparseSet::from_items(items));
        }
        // Far away singletons.
        for j in 0..6u32 {
            sets.push(SparseSet::from_items(
                (1000 + j * 50..1000 + j * 50 + 20).collect(),
            ));
        }
        Dataset::new(sets)
    }

    fn toy_params(n: usize) -> LshParams {
        ParamsBuilder::new(n, 0.5, 0.05).empirical(&MinHash)
    }

    #[test]
    fn exact_sampler_returns_only_near_points_and_is_uniform() {
        let data = toy_dataset();
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let mut sampler = ExactSampler::new(&data, near);
        let query = data.point(PointId(0)).clone();
        let neighborhood = sampler.neighborhood(&query);
        assert_eq!(neighborhood.len(), 6);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; data.len()];
        for _ in 0..6000 {
            let id = sampler
                .sample(&query, &mut rng)
                .expect("neighbourhood non-empty");
            assert!(neighborhood.contains(&id));
            counts[id.index()] += 1;
        }
        for &id in &neighborhood {
            let rate = counts[id.index()] as f64 / 6000.0;
            assert!((rate - 1.0 / 6.0).abs() < 0.05, "rate {rate}");
        }
        assert_eq!(sampler.last_query_stats().entries_scanned, data.len());
        assert_eq!(sampler.name(), "exact");
    }

    #[test]
    fn exact_sampler_returns_none_for_empty_neighborhood() {
        let data = toy_dataset();
        let mut sampler = ExactSampler::new(&data, SimilarityAtLeast::new(Jaccard, 0.5));
        let query = SparseSet::from_items(vec![90_000, 90_001]);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(sampler.sample(&query, &mut rng).is_none());
    }

    #[test]
    fn standard_lsh_finds_a_near_point() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = StandardLsh::build(
            &MinHash,
            toy_params(data.len()),
            &data,
            SimilarityAtLeast::new(Jaccard, 0.5),
            &mut rng,
        );
        let query = data.point(PointId(0)).clone();
        let result = sampler
            .sample(&query, &mut rng)
            .expect("cluster should be found");
        assert!(result.index() < 6, "returned a far point {result:?}");
        assert!(sampler.last_query_stats().entries_scanned >= 1);
        assert_eq!(sampler.name(), "standard-lsh");
        assert!(sampler.index().num_tables() >= 1);
    }

    #[test]
    fn standard_lsh_is_deterministic_for_a_fixed_query() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let mut sampler = StandardLsh::build(
            &MinHash,
            toy_params(data.len()),
            &data,
            SimilarityAtLeast::new(Jaccard, 0.5),
            &mut rng,
        );
        let query = data.point(PointId(2)).clone();
        let first = sampler.sample_deterministic(&query);
        assert!(first.is_some());
        for _ in 0..20 {
            assert_eq!(sampler.sample_deterministic(&query), first);
        }
        // The randomised-order variant still only ever returns near points.
        for _ in 0..50 {
            if let Some(id) = sampler.sample(&query, &mut rng) {
                assert!(id.index() < 6);
            }
        }
    }

    #[test]
    fn naive_fair_lsh_candidates_match_exact_neighborhood() {
        let data = toy_dataset();
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut naive =
            NaiveFairLsh::build(&MinHash, toy_params(data.len()), &data, near, &mut rng);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(1)).clone();
        let mut candidates = naive.near_candidates(&query);
        candidates.sort();
        let expected = exact.neighborhood(&query);
        // With 99% recall parameters all six cluster members are found with
        // overwhelming probability for this seed.
        assert_eq!(candidates, expected);
        assert!(naive.index().total_entries() > 0);
        assert_eq!(naive.name(), "naive-fair-lsh");
    }

    #[test]
    fn naive_fair_lsh_is_close_to_uniform() {
        let data = toy_dataset();
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut naive =
            NaiveFairLsh::build(&MinHash, toy_params(data.len()), &data, near, &mut rng);
        let query = data.point(PointId(0)).clone();
        let mut counts = vec![0usize; data.len()];
        let trials = 6000;
        for _ in 0..trials {
            let id = naive.sample(&query, &mut rng).expect("non-empty");
            counts[id.index()] += 1;
        }
        for (id, &count) in counts.iter().enumerate().take(6) {
            let rate = count as f64 / trials as f64;
            assert!((rate - 1.0 / 6.0).abs() < 0.05, "rate {rate} for {id}");
        }
    }

    #[test]
    fn naive_fair_lsh_returns_none_without_near_collisions() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(7);
        let mut naive = NaiveFairLsh::build(
            &MinHash,
            toy_params(data.len()),
            &data,
            SimilarityAtLeast::new(Jaccard, 0.5),
            &mut rng,
        );
        let query = SparseSet::from_items(vec![77_777, 77_778]);
        assert!(naive.sample(&query, &mut rng).is_none());
    }

    // Section 6.2's approximate-neighbourhood sampler: the naive fair
    // query under a predicate at the far threshold.

    fn small_instance() -> Dataset<SparseSet> {
        let mut sets = Vec::new();
        // A point with an isolated neighbourhood at similarity 0.5.
        sets.push(SparseSet::from_items((16..=30).collect()));
        // A tight cluster of near-identical points at similarity ~0.5-0.6.
        for drop in 0..10u32 {
            let items: Vec<u32> = (1..=18).filter(|&x| x != drop + 1).collect();
            sets.push(SparseSet::from_items(items));
        }
        Dataset::new(sets)
    }

    #[test]
    fn neighborhood_only_contains_points_within_far_threshold() {
        let data = small_instance();
        let query = SparseSet::from_items((1..=30).collect());
        let params = ParamsBuilder::new(data.len(), 0.9, 0.45).empirical(&OneBitMinHash);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sampler = NaiveFairLsh::build(
            &OneBitMinHash,
            params,
            &data,
            SimilarityAtLeast::new(Jaccard, 0.45),
            &mut rng,
        );
        let neighborhood = sampler.near_candidates(&query);
        for id in &neighborhood {
            let sim = Jaccard.similarity(&query, data.point(*id));
            assert!(sim >= 0.45, "similarity {sim} below the far threshold");
        }
        assert!(sampler.index().num_tables() >= 1);
        assert!(sampler.last_query_stats().entries_scanned > 0);
    }

    #[test]
    fn sample_returns_members_of_the_approximate_neighborhood_or_none() {
        let data = small_instance();
        let query = SparseSet::from_items((1..=30).collect());
        let params = ParamsBuilder::new(data.len(), 0.9, 0.45).empirical(&OneBitMinHash);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sampler = NaiveFairLsh::build(
            &OneBitMinHash,
            params,
            &data,
            SimilarityAtLeast::new(Jaccard, 0.45),
            &mut rng,
        );
        let allowed = sampler.near_candidates(&query);
        for _ in 0..200 {
            match sampler.sample(&query, &mut rng) {
                Some(id) => assert!(allowed.contains(&id)),
                None => assert!(allowed.is_empty()),
            }
        }
    }

    #[test]
    fn far_query_returns_none() {
        let data = small_instance();
        let params = ParamsBuilder::new(data.len(), 0.9, 0.45).empirical(&OneBitMinHash);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = NaiveFairLsh::build(
            &OneBitMinHash,
            params,
            &data,
            SimilarityAtLeast::new(Jaccard, 0.45),
            &mut rng,
        );
        let query = SparseSet::from_items(vec![500, 501, 502]);
        assert!(sampler.sample(&query, &mut rng).is_none());
    }
}
