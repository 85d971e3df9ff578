//! The Section 4 data structure: r-near neighbor *independent* sampling.
//!
//! The Section 3 structure is fair but deterministic per build; Section 4
//! makes repeated and interleaved queries independent (Definition 2,
//! Theorem 2). Construction: the `K × L` LSH index, a random rank
//! permutation, and for every bucket (i) a rank-sorted array supporting
//! rank-range queries (the paper uses a balanced tree; a sorted array plus
//! binary search gives the same `O(log n + output)` bound for a static
//! bucket) and (ii) a mergeable count-distinct sketch. Part (i) with the
//! index and the permutation is exactly the Section 3 structure, so
//! [`FairNnis`] embeds a [`FairNns`] and adds only the sketches; its image
//! is the [`FairNns`] image followed by the sketch sections.
//!
//! Query `q`:
//!
//! 1. merge the sketches of the `L` colliding buckets to get a
//!    `1/2`-approximation `ŝ_q` of the number of distinct colliding points;
//! 2. set `k` to the smallest power of two ≥ `2 ŝ_q`, split the rank space
//!    into `k` equal segments, set `λ = Θ(log n)` and `Σ = Θ(log² n)`;
//! 3. repeatedly pick a uniform segment `h`, pull the near points of that
//!    rank range out of the colliding buckets (deduplicating), and accept
//!    the segment with probability `λ_{q,h} / λ`, where `λ_{q,h}` is the
//!    number of near points found; after `Σ` consecutive failures halve `k`;
//! 4. on acceptance return a uniform point among the near points of the
//!    segment.
//!
//! Every point of `B_S(q, r)` is returned with probability `1/(kλ)` per
//! round, independent of everything else, which yields both uniformity and
//! independence. The expected query time is
//! `O((n^ρ + b_S(q, cr)/(b_S(q, r)+1)) · polylog n)`.

use crate::nns::{decode_each, encode_each, FairNns, RankedTable};
use crate::predicate::Nearness;
use crate::rank::RankPermutation;
use crate::sampler::{NeighborSampler, QueryStats};
use fairnn_lsh::{
    ConcatenatedHasher, DistanceMemo, HasherBankCodec, LshFamily, LshHasher, LshIndex, LshParams,
    VisitedSet,
};
use fairnn_sketch::{
    CardinalityEstimator, DistinctSketch, DistinctSketchParams, DistinctValueTable,
};
use fairnn_snapshot::{Codec, Encoder, Section, SnapshotCodec, SnapshotError};
use fairnn_space::{Dataset, PointId};
use rand::Rng;

/// `⌈log₂ n⌉`, at least 1: the `log n` of the paper's constants.
fn log2_n(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize
}

/// Per-segment cap `λ = Θ(log n)`: a segment is accepted with probability
/// `λ_{q,h}/λ`.
fn lambda(n: usize) -> usize {
    (2 * log2_n(n)).max(8)
}

/// Number of consecutive failed segments `Σ = Θ(log² n)` before `k` is
/// halved.
fn sigma(n: usize) -> usize {
    (log2_n(n) * log2_n(n)).max(16)
}

/// Buckets with at least this many points pre-compute their count-distinct
/// sketch; smaller buckets are sketched on the fly at query time (the
/// space-saving rule of Section 4).
fn sketch_threshold(n: usize) -> usize {
    (4 * log2_n(n)).max(16)
}

/// The sub-slice of a rank-sorted bucket whose ranks lie in `[lo, hi)`.
///
/// LSH buckets are short (tens of entries), so for them a forward linear
/// scan — predictable branches, no misprediction-heavy binary search — beats
/// `partition_point`; long buckets fall back to binary search. This runs
/// once per (round, table) in the rejection loop, which makes it the single
/// hottest comparison loop of the Section 4 query.
fn rank_range(entries: &[(u32, PointId)], lo: u32, hi: u32) -> &[(u32, PointId)] {
    const LINEAR_SCAN_MAX: usize = 64;
    if entries.len() <= LINEAR_SCAN_MAX {
        let mut start = 0;
        while start < entries.len() && entries[start].0 < lo {
            start += 1;
        }
        let mut end = start;
        while end < entries.len() && entries[end].0 < hi {
            end += 1;
        }
        &entries[start..end]
    } else {
        let start = entries.partition_point(|(r, _)| *r < lo);
        let end = entries.partition_point(|(r, _)| *r < hi);
        &entries[start..end]
    }
}

/// The Section 4 fair independent sampler.
///
/// It is the Section 3 structure ([`FairNns`]: points, hasher bank,
/// rank-sorted frozen tables, rank permutation, predicate and query
/// scratch) plus one count-distinct sketch per large bucket. The query hot
/// path hashes the query once (all `K × L` rows in one batched pass), reuses
/// those keys for both the sketch-merge estimate and every rejection round,
/// and keeps its working memory — keys, epoch-stamped visited set, candidate
/// buffer, merge-accumulator sketch — in owned scratch, so steady-state
/// queries perform no heap allocation.
///
/// The paper's constants are functions of `n`: `λ = max(2⌈log₂ n⌉, 8)`,
/// `Σ = max(⌈log₂ n⌉², 16)`, buckets of at least `max(4⌈log₂ n⌉, 16)`
/// entries carry a precomputed sketch, and sketches use
/// [`DistinctSketchParams::paper_defaults`]. When the rejection loop exhausts
/// every value of `k` (a low-probability failure event), the query falls
/// back to collecting all colliding near points and sampling uniformly among
/// them instead of returning `⊥`: fresh randomness over the same candidate
/// set keeps the output uniform and independent, and the structure stays
/// robust at small `n`, where the asymptotic constants are loose.
#[derive(Debug, Clone)]
pub struct FairNnis<P, H, N> {
    inner: FairNns<P, H, N>,
    /// `sketches[t][i]` is the sketch of bucket `i` of table `t`, present
    /// only for buckets with at least [`sketch_threshold`] entries.
    sketches: Vec<Vec<Option<DistinctSketch>>>,
    sketch_seed: u64,
    /// Precomputed per-point sketch row values: on-the-fly sketching of
    /// small buckets costs a cutoff comparison per row instead of a
    /// polynomial hash per row.
    sketch_values: DistinctValueTable,
    /// Reusable merge accumulator for the step-1 estimate.
    merged: DistinctSketch,
}

impl<P: Clone + Sync, BH, N> FairNnis<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
    N: Nearness<P>,
{
    /// Builds the data structure: the [`FairNns`] build, then the sketch
    /// seed drawn from the same `rng`.
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
        let inner = FairNns::build(family, params, dataset, near, rng);
        Self::from_nns(inner, rng.random())
    }
}

impl<P: Clone, H, N> FairNnis<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Builds the structure from an existing index, permutation and sketch
    /// seed (full control for tests).
    pub fn from_index(
        index: LshIndex<H>,
        dataset: &Dataset<P>,
        ranks: RankPermutation,
        near: N,
        sketch_seed: u64,
    ) -> Self {
        Self::from_nns(
            FairNns::from_index(index, dataset, ranks, near),
            sketch_seed,
        )
    }
}

impl<P, H, N> FairNnis<P, H, N> {
    /// Sketches every bucket of `inner` that reaches the threshold. Tables
    /// are disjoint work items; they run on parallel build workers in table
    /// order, so the structure is bit-identical to the serial construction
    /// at any thread count.
    fn from_nns(inner: FairNns<P, H, N>, sketch_seed: u64) -> Self {
        let n = inner.num_points();
        let params = DistinctSketchParams::paper_defaults(n);
        let tables = &inner.buckets;
        let sketches = fairnn_parallel::map_indexed(tables.len(), |t| {
            (0..tables[t].num_buckets())
                .map(|i| {
                    let entries = tables[t].bucket_at(i);
                    (entries.len() >= sketch_threshold(n)).then(|| {
                        let mut s = DistinctSketch::new(sketch_seed, params);
                        for (_, id) in entries {
                            s.insert(id.0 as u64);
                        }
                        s
                    })
                })
                .collect()
        });
        Self {
            sketches,
            sketch_seed,
            sketch_values: DistinctValueTable::build(sketch_seed, params, n),
            merged: DistinctSketch::new(sketch_seed, params),
            inner,
        }
    }

    /// Number of indexed points.
    pub fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    /// Number of LSH tables `L`.
    pub fn num_tables(&self) -> usize {
        self.inner.num_tables()
    }

    /// The LSH parameters.
    pub fn params(&self) -> LshParams {
        self.inner.params()
    }

    /// The rank permutation the segment structure is defined over.
    pub fn ranks(&self) -> &RankPermutation {
        self.inner.ranks()
    }

    /// Number of buckets that carry a pre-computed sketch (space
    /// accounting / ablation).
    pub fn sketched_buckets(&self) -> usize {
        self.sketches
            .iter()
            .map(|t| t.iter().flatten().count())
            .sum()
    }
}

/// Sentinel in the per-table resolved-bucket-index array for "query's key
/// has no bucket in this table".
const NO_BUCKET: u32 = u32::MAX;

/// Resolves each table's bucket index for the query's keys, once per query:
/// every later step — sketch merge, emptiness check, each of the potentially
/// hundreds of rejection rounds — reuses the indices instead of re-running
/// `L` binary searches per round.
fn resolve_buckets(tables: &[RankedTable], keys: &[u64], indices: &mut Vec<u32>) {
    indices.clear();
    // Warm each table's directory cell before the probes run.
    for (table, &key) in tables.iter().zip(keys) {
        table.prefetch(key);
    }
    indices.extend(
        tables
            .iter()
            .zip(keys)
            .map(|(table, &key)| table.find(key).map_or(NO_BUCKET, |i| i as u32)),
    );
}

/// Merges the colliding buckets' sketches into `merged` given resolved
/// bucket indices — the core of step 1, shared by
/// [`FairNnis::estimate_colliding`] and [`NeighborSampler::sample`] (which
/// hashes the query exactly once and reuses both the keys and the indices).
/// Small (unsketched) buckets are folded in from the precomputed value
/// table, and since sketch insertion is idempotent, `seen` gates each
/// distinct point to a single insertion even when it collides in many
/// tables — both shortcuts leave the merged sketch bit-identical to
/// element-wise insertion.
fn merge_colliding(
    tables: &[RankedTable],
    sketches: &[Vec<Option<DistinctSketch>>],
    bucket_idx: &[u32],
    sketch_values: &DistinctValueTable,
    seen: &mut VisitedSet,
    merged: &mut DistinctSketch,
) {
    seen.reset(sketch_values.universe());
    for ((table, sketches), &idx) in tables.iter().zip(sketches).zip(bucket_idx) {
        if idx == NO_BUCKET {
            continue;
        }
        let i = idx as usize;
        match &sketches[i] {
            Some(sketch) => merged.merge(sketch),
            None => {
                for (_, id) in table.bucket_at(i) {
                    if seen.insert(id.index()) {
                        merged.insert_precomputed(sketch_values.values_of(id.index()));
                    }
                }
            }
        }
    }
}

/// Collects the distinct near points of `query` whose rank lies in
/// `[lo, hi)` into `found` (step 3.b of the query algorithm). Cross-table
/// duplicates are skipped via the epoch-stamped `visited` set — `O(1)` per
/// entry instead of an `O(|found|)` scan — bucket indices are pre-resolved
/// (no per-round binary searches), the distance predicate is memoized
/// across the whole query, and every buffer is caller-provided, so rounds
/// do not allocate.
#[expect(
    clippy::too_many_arguments,
    reason = "every per-query buffer is caller-provided so rounds do not allocate"
)]
fn collect_near_in_range<P, N: Nearness<P>>(
    tables: &[RankedTable],
    points: &[P],
    near: &N,
    query: &P,
    bucket_idx: &[u32],
    lo: u32,
    hi: u32,
    visited: &mut VisitedSet,
    memo: &mut DistanceMemo,
    found: &mut Vec<PointId>,
    stats: &mut QueryStats,
) {
    visited.reset(points.len());
    found.clear();
    for (table, &idx) in tables.iter().zip(bucket_idx) {
        stats.buckets_inspected += 1;
        if idx == NO_BUCKET {
            continue;
        }
        let in_range = rank_range(table.bucket_at(idx as usize), lo, hi);
        for (pos, &(_, id)) in in_range.iter().enumerate() {
            stats.entries_scanned += 1;
            if !visited.insert(id.index()) {
                continue; // duplicate across tables
            }
            if let Some(&(_, ahead)) = in_range.get(pos + 1) {
                fairnn_snapshot::prefetch_read(points, ahead.index());
            }
            let is_near = memo.get_or_insert_with(id.index(), || {
                stats.distance_computations += 1;
                near.is_near(query, &points[id.index()])
            });
            if is_near {
                found.push(id);
            }
        }
    }
}

impl<P, H, N> FairNnis<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Estimates the number of distinct points colliding with the query by
    /// merging the per-bucket count-distinct sketches (step 1 of the query
    /// algorithm). Exposed for tests and the experiment harness; the hot
    /// path reuses its own scratch so the query is hashed only once.
    pub fn estimate_colliding(&self, query: &P) -> f64 {
        let mut keys = Vec::new();
        self.inner.bank.query_keys_into(query, &mut keys);
        let mut indices = Vec::new();
        resolve_buckets(&self.inner.buckets, &keys, &mut indices);
        let mut merged = DistinctSketch::new(self.sketch_seed, self.merged.params());
        merge_colliding(
            &self.inner.buckets,
            &self.sketches,
            &indices,
            &self.sketch_values,
            &mut VisitedSet::new(),
            &mut merged,
        );
        merged.estimate()
    }

    /// Collects all distinct colliding near points (used by tests).
    pub fn all_colliding_near_points(&mut self, query: &P) -> Vec<PointId> {
        let FairNns {
            points,
            bank,
            buckets,
            near,
            scratch,
            stats,
            ..
        } = &mut self.inner;
        *stats = QueryStats::default();
        bank.query_keys_into(query, &mut scratch.keys);
        resolve_buckets(buckets, &scratch.keys, &mut scratch.indices);
        scratch.memo.reset(points.len());
        collect_near_in_range(
            buckets,
            points,
            near,
            query,
            &scratch.indices,
            0,
            points.len() as u32,
            &mut scratch.visited,
            &mut scratch.memo,
            &mut scratch.candidates,
            stats,
        );
        scratch.candidates.clone()
    }
}

impl<P: Codec, H: HasherBankCodec, N: Codec> SnapshotCodec for FairNnis<P, H, N> {
    /// Sectioned container image: the sections of the wrapped [`FairNns`]
    /// (head, hasher bank, one per rank-sorted table), then the sketch seed,
    /// one section per table holding its bucket sketches, and one holding
    /// the precomputed distinct-value table — so the per-table encode,
    /// checksum and decode-with-validation run on parallel build workers.
    /// The sketch parameters and the query constants are functions of the
    /// point count and are not stored. Bytes are identical at every thread
    /// count.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut sections = self.inner.encode_sections();
        let mut seed = Encoder::new();
        seed.write_u64(self.sketch_seed);
        sections.push(seed.into_bytes());
        let sketches = &self.sketches;
        sections.extend(encode_each(sketches.len(), |t, enc| {
            sketches[t].encode(enc)
        }));
        let mut values = Encoder::new();
        self.sketch_values.encode(&mut values);
        sections.push(values.into_bytes());
        sections
    }

    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        let (inner, rest) = FairNns::decode_prefix(sections)?;
        let num_tables = inner.num_tables();
        let [seed_section, rest @ ..] = rest else {
            return Err(SnapshotError::Corrupt(
                "fair-nnis snapshot has no sketch seed section".into(),
            ));
        };
        let Some((values_section, sketch_sections)) = rest.split_last() else {
            return Err(SnapshotError::Corrupt(
                "fair-nnis snapshot has no value-table section".into(),
            ));
        };
        if sketch_sections.len() != num_tables {
            return Err(SnapshotError::Corrupt(format!(
                "fair-nnis snapshot holds {} sketch sections for {num_tables} tables",
                sketch_sections.len()
            )));
        }
        let mut dec = seed_section.decoder();
        let sketch_seed = dec.read_u64()?;
        dec.finish()?;
        let n = inner.num_points();
        let merged = DistinctSketch::new(sketch_seed, DistinctSketchParams::paper_defaults(n));
        // Every bucket has a sketch slot, and every sketch merges with the
        // query-time accumulator: a mismatched seed or parameter set would
        // otherwise panic inside `merge` on the first query that touches the
        // bucket, instead of failing the load.
        let tables = &inner.buckets;
        let sketches = decode_each(sketch_sections, |t, dec| {
            let sketches = Vec::<Option<DistinctSketch>>::decode(dec)?;
            if sketches.len() != tables[t].num_buckets() {
                return Err(SnapshotError::Corrupt(format!(
                    "table {t} stores {} sketch slots for {} buckets",
                    sketches.len(),
                    tables[t].num_buckets()
                )));
            }
            if !sketches.iter().flatten().all(|s| merged.mergeable_with(s)) {
                return Err(SnapshotError::Corrupt(
                    "bucket sketch seed/parameters do not match the sampler's".into(),
                ));
            }
            Ok(sketches)
        })?;
        let mut dec = values_section.decoder();
        let sketch_values = DistinctValueTable::decode(&mut dec)?;
        dec.finish()?;
        if sketch_values.num_rows() != merged.num_rows() || sketch_values.universe() != n {
            return Err(SnapshotError::Corrupt(format!(
                "distinct value table has {} rows over {} elements, the sampler needs {} over {n}",
                sketch_values.num_rows(),
                sketch_values.universe(),
                merged.num_rows()
            )));
        }
        Ok(Self {
            inner,
            sketches,
            sketch_seed,
            sketch_values,
            merged,
        })
    }
}

impl<P: Codec, H: HasherBankCodec, N: Codec> FairNnis<P, H, N> {
    /// Writes the whole Section 4 structure — the [`FairNns`] image, the
    /// per-bucket sketches and the precomputed [`DistinctValueTable`] — as
    /// a versioned, checksummed snapshot.
    pub fn save<Q: AsRef<std::path::Path>>(&self, path: Q) -> Result<(), SnapshotError> {
        fairnn_snapshot::save(fairnn_snapshot::SnapshotKind::FairNnis, self, path)
    }

    /// Restores a structure written by [`FairNnis::save`]; the restored
    /// sampler consumes query randomness identically to the saved one, so
    /// sample sequences are reproduced bit for bit.
    pub fn load<Q: AsRef<std::path::Path>>(path: Q) -> Result<Self, SnapshotError> {
        fairnn_snapshot::load(fairnn_snapshot::SnapshotKind::FairNnis, path)
    }
}

impl<P, H, N> NeighborSampler<P> for FairNnis<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    fn sample<R: Rng + ?Sized>(&mut self, query: &P, rng: &mut R) -> Option<PointId> {
        let Self {
            inner,
            sketches,
            sketch_values,
            merged,
            ..
        } = self;
        let FairNns {
            points,
            bank,
            buckets: tables,
            near,
            scratch,
            stats,
            ..
        } = inner;
        *stats = QueryStats::default();
        let n = points.len();
        if n == 0 {
            return None;
        }
        // One batched hash pass, then one bucket resolution: the keys and
        // per-table bucket indices feed the sketch merge *and* every
        // rejection round below (the query is never hashed again, and no
        // round repeats a bucket lookup). The distance memo spans the whole
        // query, so each distinct candidate is checked at most once even
        // across hundreds of rounds.
        bank.query_keys_into(query, &mut scratch.keys);
        resolve_buckets(tables, &scratch.keys, &mut scratch.indices);
        scratch.memo.reset(n);

        // Step 1: estimate the number of distinct colliding points by
        // merging bucket sketches into the reusable accumulator.
        merged.clear();
        merge_colliding(
            tables,
            sketches,
            &scratch.indices,
            sketch_values,
            &mut scratch.visited,
            merged,
        );
        let estimate = merged.estimate_into(&mut scratch.floats);
        let colliding_is_empty = scratch
            .indices
            .iter()
            .zip(tables.iter())
            .all(|(&idx, table)| idx == NO_BUCKET || table.bucket_at(idx as usize).is_empty());
        if colliding_is_empty {
            return None;
        }

        // Step 2: initial number of segments k = smallest power of two >= 2 ŝ_q.
        let max_k = (n as u64).next_power_of_two().max(1);
        let mut k: u64 = ((2.0 * estimate).ceil().max(1.0) as u64)
            .next_power_of_two()
            .clamp(1, max_k);
        let lambda = lambda(n) as f64;
        let sigma = sigma(n);

        // Step 3: segment sampling with geometric acceptance and k-halving.
        let mut failures = 0usize;
        // Generous overall bound: Σ failures per value of k, log2(max_k)+1
        // values of k, plus the accepted round.
        let max_rounds = sigma * ((max_k as f64).log2() as usize + 2) + 1;
        for _ in 0..max_rounds {
            if k < 1 {
                break;
            }
            stats.rounds += 1;
            let segment_len = (n as u64).div_ceil(k).max(1);
            let h = rng.random_range(0..k);
            let lo = (h * segment_len).min(n as u64) as u32;
            let hi = ((h + 1) * segment_len).min(n as u64) as u32;
            if lo < hi {
                collect_near_in_range(
                    tables,
                    points,
                    near,
                    query,
                    &scratch.indices,
                    lo,
                    hi,
                    &mut scratch.visited,
                    &mut scratch.memo,
                    &mut scratch.candidates,
                    stats,
                );
            } else {
                scratch.candidates.clear();
            }
            let near_points = &scratch.candidates;
            let lambda_qh = near_points.len() as f64;
            if lambda_qh > 0.0 && rng.random::<f64>() < (lambda_qh / lambda).min(1.0) {
                // Step 4: uniform point among the near points of the segment.
                let pick = rng.random_range(0..near_points.len());
                return Some(near_points[pick]);
            }
            failures += 1;
            if failures >= sigma {
                failures = 0;
                if k == 1 {
                    k = 0; // exhausted every scale
                } else {
                    k /= 2;
                }
            }
        }

        // Failure event (probability O(1/n²) with the paper's constants):
        // fall back to exhaustive collection, which keeps the output uniform
        // over the colliding near points.
        collect_near_in_range(
            tables,
            points,
            near,
            query,
            &scratch.indices,
            0,
            n as u32,
            &mut scratch.visited,
            &mut scratch.memo,
            &mut scratch.candidates,
            stats,
        );
        let all = &scratch.candidates;
        (!all.is_empty()).then(|| all[rng.random_range(0..all.len())])
    }

    fn last_query_stats(&self) -> QueryStats {
        self.inner.stats
    }

    fn name(&self) -> &'static str {
        "fair-nnis"
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

    type Sampler =
        FairNnis<SparseSet, ConcatenatedHasher<fairnn_lsh::MinHasher>, SimilarityAtLeast<Jaccard>>;

    fn build(seed: u64) -> (Dataset<SparseSet>, Sampler) {
        let data = clustered_dataset();
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = FairNnis::build(
            &MinHash,
            params,
            &data,
            SimilarityAtLeast::new(Jaccard, 0.5),
            &mut rng,
        );
        (data, sampler)
    }

    #[test]
    fn config_defaults_scale_with_n() {
        assert_eq!((lambda(10), sigma(10), sketch_threshold(10)), (8, 16, 16));
        assert!(lambda(1_000_000) > lambda(10));
        assert!(sigma(1_000_000) > sigma(10));
        assert!(sketch_threshold(1_000_000) > sketch_threshold(10));
        assert_eq!(lambda(1 << 20), 40);
        assert_eq!(sigma(1 << 20), 400);
    }

    #[test]
    fn returns_only_near_points() {
        let (data, mut sampler) = build(1);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let mut rng = StdRng::seed_from_u64(7);
        for qi in 0..10u32 {
            let query = data.point(PointId(qi)).clone();
            let neighborhood = exact.neighborhood(&query);
            for _ in 0..20 {
                let id = sampler
                    .sample(&query, &mut rng)
                    .expect("cluster is non-empty");
                assert!(neighborhood.contains(&id), "returned non-neighbour {id:?}");
            }
        }
        assert_eq!(sampler.name(), "fair-nnis");
        assert!(sampler.last_query_stats().rounds >= 1);
    }

    #[test]
    fn returns_none_for_isolated_query() {
        let (_, mut sampler) = build(2);
        let mut rng = StdRng::seed_from_u64(8);
        let query = SparseSet::from_items(vec![77_000, 77_001]);
        assert!(sampler.sample(&query, &mut rng).is_none());
    }

    #[test]
    fn repeated_queries_are_uniform_for_a_single_build() {
        // The defining property of r-NNIS: one build, repeated queries, the
        // empirical distribution over the 10-member cluster must be uniform.
        let (data, mut sampler) = build(3);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(0)).clone();
        let neighborhood = exact.neighborhood(&query);
        assert_eq!(neighborhood.len(), 10);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 12_000;
        let mut counts = vec![0usize; data.len()];
        for _ in 0..trials {
            let id = sampler.sample(&query, &mut rng).expect("non-empty");
            counts[id.index()] += 1;
        }
        for &id in &neighborhood {
            let rate = counts[id.index()] as f64 / trials as f64;
            assert!(
                (rate - 0.1).abs() < 0.02,
                "member {id:?} sampled at rate {rate}, expected ~0.1"
            );
        }
    }

    #[test]
    fn interleaved_queries_remain_uniform() {
        // Interleave two different queries; each must stay uniform over its
        // own neighbourhood (this is what the rank-swap structure cannot do).
        let (data, mut sampler) = build(4);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let qa = data.point(PointId(0)).clone();
        let qb = data.point(PointId(15)).clone(); // isolated point: neighbourhood = itself
        let na = exact.neighborhood(&qa);
        let nb = exact.neighborhood(&qb);
        assert_eq!(nb.len(), 1);
        let mut rng = StdRng::seed_from_u64(10);
        let mut counts_a = vec![0usize; data.len()];
        let trials = 6000;
        for _ in 0..trials {
            let ida = sampler.sample(&qa, &mut rng).unwrap();
            counts_a[ida.index()] += 1;
            let idb = sampler.sample(&qb, &mut rng).unwrap();
            assert_eq!(idb, nb[0]);
        }
        for &id in &na {
            let rate = counts_a[id.index()] as f64 / trials as f64;
            assert!((rate - 0.1).abs() < 0.025, "rate {rate} for {id:?}");
        }
    }

    #[test]
    fn estimate_colliding_is_within_factor_two() {
        let (data, sampler) = build(5);
        let query = data.point(PointId(0)).clone();
        let estimate = sampler.estimate_colliding(&query);
        // The true number of distinct colliding points is at least the
        // 10-member cluster (99% recall) and at most the whole dataset.
        assert!(estimate >= 5.0, "estimate {estimate}");
        assert!(estimate <= 2.0 * data.len() as f64, "estimate {estimate}");
    }

    #[test]
    fn all_colliding_near_points_matches_exact_neighborhood() {
        let (data, mut sampler) = build(6);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(2)).clone();
        let mut got = sampler.all_colliding_near_points(&query);
        got.sort();
        assert_eq!(got, exact.neighborhood(&query));
    }

    #[test]
    fn rank_range_retrieval_is_correct() {
        let entries = [
            (2, PointId(10)),
            (5, PointId(11)),
            (5, PointId(12)),
            (9, PointId(13)),
        ];
        assert_eq!(rank_range(&entries, 0, 3).len(), 1);
        assert_eq!(rank_range(&entries, 2, 6).len(), 3);
        assert_eq!(rank_range(&entries, 6, 9).len(), 0);
        assert_eq!(rank_range(&entries, 0, 100).len(), 4);
        assert_eq!(rank_range(&entries, 9, 9).len(), 0);
    }

    #[test]
    fn structure_accounting() {
        let (data, sampler) = build(7);
        assert_eq!(sampler.num_points(), data.len());
        assert!(sampler.num_tables() >= 1);
        // Some buckets (the cluster buckets) are large enough to be sketched
        // only if they exceed the threshold; the count must be well-defined.
        let _ = sampler.sketched_buckets();
        assert_eq!(sampler.params().near, 0.5);
    }
}
