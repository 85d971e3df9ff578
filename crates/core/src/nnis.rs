//! The Section 4 data structure: r-near neighbor *independent* sampling.
//!
//! The Section 3 structure is fair but deterministic per build; Section 4
//! makes repeated and interleaved queries independent (Definition 2,
//! Theorem 2). Construction: the `K × L` LSH index, a random rank
//! permutation, and for every bucket (i) a rank-sorted array supporting
//! rank-range queries (the paper uses a balanced tree; a sorted array plus
//! binary search gives the same `O(log n + output)` bound for a static
//! bucket) and (ii) a mergeable count-distinct sketch.
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

use crate::predicate::Nearness;
use crate::rank::RankPermutation;
use crate::sampler::{NeighborSampler, QueryStats};
use fairnn_lsh::{
    ConcatenatedHasher, FrozenTable, LshFamily, LshHasher, LshIndex, LshParams, QueryScratch,
};
use fairnn_sketch::{
    CardinalityEstimator, DistinctSketch, DistinctSketchParams, DistinctValueTable,
};
use fairnn_snapshot::Codec;
use fairnn_space::{Dataset, PointId};
use rand::Rng;

/// Tuning knobs of the Section 4 query algorithm. The defaults follow the
/// paper's asymptotic choices with explicit constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairNnisConfig {
    /// Per-segment cap `λ = Θ(log n)`: a segment is accepted with
    /// probability `λ_{q,h}/λ`.
    pub lambda: usize,
    /// Number of consecutive failed segments `Σ = Θ(log² n)` before `k` is
    /// halved.
    pub sigma: usize,
    /// Buckets with at least this many points pre-compute their
    /// count-distinct sketch; smaller buckets are sketched on the fly at
    /// query time (the space-saving rule of Section 4).
    pub sketch_threshold: usize,
    /// When the rejection loop exhausts all values of `k` without success
    /// (a low-probability failure event), fall back to collecting all
    /// colliding near points and sampling uniformly among them instead of
    /// returning `⊥`. The fallback preserves uniformity and independence
    /// (it uses fresh randomness and the same candidate set) and makes the
    /// structure robust at small `n`, where the asymptotic constants are
    /// loose.
    pub exhaustive_fallback: bool,
}

impl FairNnisConfig {
    /// Default configuration for a dataset of `n` points.
    pub fn for_dataset_size(n: usize) -> Self {
        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        Self {
            lambda: (2 * log_n).max(8),
            sigma: (log_n * log_n).max(16),
            sketch_threshold: (4 * log_n).max(16),
            exhaustive_fallback: true,
        }
    }
}

impl fairnn_snapshot::Codec for FairNnisConfig {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        enc.write_u64(self.lambda as u64);
        enc.write_u64(self.sigma as u64);
        enc.write_u64(self.sketch_threshold as u64);
        self.exhaustive_fallback.encode(enc);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            lambda: usize::decode(dec)?,
            sigma: usize::decode(dec)?,
            sketch_threshold: usize::decode(dec)?,
            exhaustive_fallback: bool::decode(dec)?,
        })
    }
}

/// One LSH table in the frozen layout: `(rank, id)` entries, rank-sorted
/// within each bucket, in one contiguous CSR array, plus a parallel array of
/// pre-computed count-distinct sketches (large buckets only).
#[derive(Debug, Clone)]
struct RankedTable {
    /// Bucket key → rank-sorted `(rank, id)` pairs; rank-range retrieval is
    /// a binary search inside the bucket slice.
    buckets: FrozenTable<(u32, PointId)>,
    /// `sketches[i]` is the sketch of `buckets.bucket_at(i)`, present only
    /// for buckets with at least `sketch_threshold` entries.
    sketches: Vec<Option<DistinctSketch>>,
}

impl fairnn_snapshot::Codec for RankedTable {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.buckets.encode(enc);
        self.sketches.encode(enc);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        let buckets = FrozenTable::<(u32, PointId)>::decode(dec)?;
        let sketches = Vec::<Option<DistinctSketch>>::decode(dec)?;
        if sketches.len() != buckets.num_buckets() {
            return Err(fairnn_snapshot::SnapshotError::Corrupt(format!(
                "ranked table stores {} sketch slots for {} buckets",
                sketches.len(),
                buckets.num_buckets()
            )));
        }
        Ok(Self { buckets, sketches })
    }
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
/// Buckets live in the frozen CSR layout ([`FrozenTable`]); the query hot
/// path hashes the query once (all `K × L` rows in one batched pass), reuses
/// those keys for both the sketch-merge estimate and every rejection round,
/// and keeps its working memory — keys, epoch-stamped visited set, candidate
/// buffer, merge-accumulator sketch — in owned scratch, so steady-state
/// queries perform no heap allocation.
#[derive(Debug, Clone)]
pub struct FairNnis<P, H, N> {
    points: Vec<P>,
    hashers: Vec<H>,
    tables: Vec<RankedTable>,
    ranks: RankPermutation,
    near: N,
    params: LshParams,
    config: FairNnisConfig,
    sketch_seed: u64,
    sketch_params: DistinctSketchParams,
    stats: QueryStats,
    scratch: QueryScratch,
    /// Reusable merge accumulator for the step-1 estimate.
    merged: DistinctSketch,
    /// Precomputed per-point sketch row values: on-the-fly sketching of
    /// small buckets costs a cutoff comparison per row instead of a
    /// polynomial hash per row.
    sketch_values: DistinctValueTable,
}

impl<P: Clone + Sync, BH, N> FairNnis<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
    N: Nearness<P>,
{
    /// Builds the data structure with default configuration.
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
        let config = FairNnisConfig::for_dataset_size(dataset.len());
        Self::build_with_config(family, params, dataset, near, config, rng)
    }

    /// Builds the data structure with an explicit configuration.
    pub fn build_with_config<F, R>(
        family: &F,
        params: LshParams,
        dataset: &Dataset<P>,
        near: N,
        config: FairNnisConfig,
        rng: &mut R,
    ) -> Self
    where
        F: LshFamily<P, Hasher = BH>,
        R: Rng + ?Sized,
    {
        let index = LshIndex::build(family, params, dataset.points(), rng);
        let ranks = RankPermutation::random(dataset.len(), rng);
        let sketch_seed: u64 = rng.random();
        Self::from_index(index, dataset, ranks, near, config, sketch_seed)
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
        config: FairNnisConfig,
        sketch_seed: u64,
    ) -> Self {
        assert_eq!(
            ranks.len(),
            dataset.len(),
            "rank permutation size must match the dataset"
        );
        let params = index.params();
        let sketch_params = DistinctSketchParams::paper_defaults(dataset.len());
        let (hashers, lsh_tables) = index.into_parts();
        // Per-table rank sort, CSR freeze and bucket sketching are disjoint
        // work items; they run on parallel build workers in table order, so
        // the structure is bit-identical to the serial construction at any
        // thread count.
        let tables = fairnn_parallel::map_indexed(lsh_tables.len(), |t| {
            let buckets = FrozenTable::from_buckets(lsh_tables[t].buckets().map(|(key, ids)| {
                let mut entries: Vec<(u32, PointId)> =
                    ids.iter().map(|&id| (ranks.rank(id), id)).collect();
                entries.sort_unstable();
                (key, entries)
            }));
            let sketches = (0..buckets.num_buckets())
                .map(|i| {
                    let entries = buckets.bucket_at(i);
                    (entries.len() >= config.sketch_threshold).then(|| {
                        let mut s = DistinctSketch::new(sketch_seed, sketch_params);
                        for (_, id) in entries {
                            s.insert(id.0 as u64);
                        }
                        s
                    })
                })
                .collect();
            RankedTable { buckets, sketches }
        });
        Self {
            points: dataset.points().to_vec(),
            hashers,
            tables,
            ranks,
            near,
            params,
            config,
            sketch_seed,
            sketch_params,
            stats: QueryStats::default(),
            scratch: QueryScratch::new(),
            merged: DistinctSketch::new(sketch_seed, sketch_params),
            sketch_values: DistinctValueTable::build(sketch_seed, sketch_params, dataset.len()),
        }
    }
}

impl<P, H, N> FairNnis<P, H, N> {
    /// Number of indexed points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of LSH tables `L`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The LSH parameters.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// The query-algorithm configuration.
    pub fn config(&self) -> FairNnisConfig {
        self.config
    }

    /// The rank permutation the segment structure is defined over.
    pub fn ranks(&self) -> &RankPermutation {
        &self.ranks
    }

    /// Number of buckets that carry a pre-computed sketch (space
    /// accounting / ablation).
    pub fn sketched_buckets(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.sketches.iter().flatten().count())
            .sum()
    }
}

impl<P, H, N> FairNnis<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Sentinel in the per-table resolved-bucket-index array for "query's
    /// key has no bucket in this table".
    const NO_BUCKET: u32 = u32::MAX;

    /// Resolves each table's bucket index for the query's keys, once per
    /// query: every later step — sketch merge, emptiness check, each of the
    /// potentially hundreds of rejection rounds — reuses the indices
    /// instead of re-running `L` binary searches per round.
    fn resolve_buckets(tables: &[RankedTable], keys: &[u64], indices: &mut Vec<u32>) {
        indices.clear();
        // Warm each table's directory cell before the probes run.
        for (table, &key) in tables.iter().zip(keys.iter()) {
            table.buckets.prefetch(key);
        }
        indices.extend(tables.iter().zip(keys.iter()).map(|(table, &key)| {
            table
                .buckets
                .find(key)
                .map_or(Self::NO_BUCKET, |i| i as u32)
        }));
    }

    /// Merges the colliding buckets' sketches into `merged` given resolved
    /// bucket indices — the core of step 1, shared by
    /// [`FairNnis::estimate_colliding`] and [`NeighborSampler::sample`]
    /// (which hashes the query exactly once and reuses both the keys and
    /// the indices). Small (unsketched) buckets are folded in from the
    /// precomputed value table, and since sketch insertion is idempotent,
    /// `seen` gates each distinct point to a single insertion even when it
    /// collides in many tables — both shortcuts leave the merged sketch
    /// bit-identical to element-wise insertion.
    fn merge_colliding_resolved(
        tables: &[RankedTable],
        bucket_idx: &[u32],
        sketch_values: &DistinctValueTable,
        seen: &mut fairnn_lsh::VisitedSet,
        num_points: usize,
        merged: &mut DistinctSketch,
    ) {
        seen.reset(num_points);
        for (table, &idx) in tables.iter().zip(bucket_idx.iter()) {
            if idx == Self::NO_BUCKET {
                continue;
            }
            let i = idx as usize;
            match &table.sketches[i] {
                Some(sketch) => merged.merge(sketch),
                None => {
                    for (_, id) in table.buckets.bucket_at(i) {
                        if seen.insert(id.index()) {
                            merged.insert_precomputed(sketch_values.values_of(id.index()));
                        }
                    }
                }
            }
        }
    }

    /// Estimates the number of distinct points colliding with the query by
    /// merging the per-bucket count-distinct sketches (step 1 of the query
    /// algorithm). Exposed for tests and the experiment harness; the hot
    /// path goes through the keys-taking variant instead so the query is
    /// hashed only once.
    pub fn estimate_colliding(&self, query: &P) -> f64 {
        let mut keys = vec![0u64; self.hashers.len()];
        H::hash_all(&self.hashers, query, &mut keys);
        let mut indices = Vec::new();
        Self::resolve_buckets(&self.tables, &keys, &mut indices);
        let mut merged = DistinctSketch::new(self.sketch_seed, self.sketch_params);
        let mut seen = fairnn_lsh::VisitedSet::new();
        Self::merge_colliding_resolved(
            &self.tables,
            &indices,
            &self.sketch_values,
            &mut seen,
            self.points.len(),
            &mut merged,
        );
        merged.estimate()
    }

    /// Collects the distinct near points of `query` whose rank lies in
    /// `[lo, hi)` into `found` (step 3.b of the query algorithm).
    /// Cross-table duplicates are skipped via the epoch-stamped `visited`
    /// set — `O(1)` per entry instead of the former `O(|found|)` scan —
    /// bucket indices are pre-resolved (no per-round binary searches), the
    /// distance predicate is memoized across the whole query, and every
    /// buffer is caller-provided, so rounds do not allocate.
    #[expect(
        clippy::too_many_arguments,
        reason = "every per-query buffer is caller-provided so rounds do not allocate"
    )]
    fn collect_near_in_range(
        tables: &[RankedTable],
        points: &[P],
        near: &N,
        query: &P,
        bucket_idx: &[u32],
        lo: u32,
        hi: u32,
        visited: &mut fairnn_lsh::VisitedSet,
        memo: &mut fairnn_lsh::DistanceMemo,
        found: &mut Vec<PointId>,
        stats: &mut QueryStats,
    ) {
        visited.reset(points.len());
        found.clear();
        for (table, &idx) in tables.iter().zip(bucket_idx.iter()) {
            stats.buckets_inspected += 1;
            if idx == Self::NO_BUCKET {
                continue;
            }
            let in_range = rank_range(table.buckets.bucket_at(idx as usize), lo, hi);
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

    /// Collects all distinct colliding near points (used by the exhaustive
    /// fallback and by tests).
    pub fn all_colliding_near_points(&mut self, query: &P) -> Vec<PointId> {
        let Self {
            points,
            hashers,
            tables,
            near,
            scratch,
            ..
        } = self;
        let mut stats = QueryStats::default();
        scratch.compute_keys(hashers, query);
        Self::resolve_buckets(tables, &scratch.keys, &mut scratch.indices);
        scratch.memo.reset(points.len());
        let n = points.len() as u32;
        Self::collect_near_in_range(
            tables,
            points,
            near,
            query,
            &scratch.indices,
            0,
            n,
            &mut scratch.visited,
            &mut scratch.memo,
            &mut scratch.candidates,
            &mut stats,
        );
        self.stats = stats;
        self.scratch.candidates.clone()
    }
}

/// Structural validation of one decoded [`RankedTable`]: entry ranges, the
/// rank-sort invariant (rank-range retrieval binary-searches inside the
/// bucket; unsorted entries would silently bias sampling rather than fail,
/// so the sort is part of the format), and sketch mergeability with the
/// query-time accumulator (a mismatched seed or parameter set would
/// otherwise panic inside `merge` on the first query that touches the
/// bucket, instead of failing the load).
fn validate_ranked_table(
    table: &RankedTable,
    num_points: usize,
    reference: &DistinctSketch,
) -> Result<(), fairnn_snapshot::SnapshotError> {
    use fairnn_snapshot::SnapshotError;
    for (_, bucket) in table.buckets.buckets() {
        for &(rank, id) in bucket {
            if id.index() >= num_points || rank as usize >= num_points {
                return Err(SnapshotError::Corrupt(format!(
                    "bucket entry (rank {rank}, {id}) out of range for {num_points} points"
                )));
            }
        }
        if !bucket.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt(
                "bucket entries are not strictly rank-sorted".into(),
            ));
        }
    }
    for sketch in table.sketches.iter().flatten() {
        if !reference.mergeable_with(sketch) {
            return Err(SnapshotError::Corrupt(
                "bucket sketch seed/parameters do not match the sampler's".into(),
            ));
        }
    }
    Ok(())
}

impl<P, H, N> FairNnis<P, H, N> {
    /// Tail of the sectioned decoder: every cross-field invariant of the
    /// wire format lives here.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per decoded field of the wire format"
    )]
    fn assemble(
        points: Vec<P>,
        hashers: Vec<H>,
        tables: Vec<RankedTable>,
        ranks: RankPermutation,
        near: N,
        params: LshParams,
        config: FairNnisConfig,
        sketch_seed: u64,
        sketch_params: DistinctSketchParams,
        sketch_values: DistinctValueTable,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        use fairnn_snapshot::SnapshotError;
        if tables.len() != hashers.len() {
            return Err(SnapshotError::Corrupt(format!(
                "fair-nnis stores {} ranked tables for {} hashers",
                tables.len(),
                hashers.len()
            )));
        }
        if ranks.len() != points.len() {
            return Err(SnapshotError::Corrupt(format!(
                "rank permutation over {} points does not match {} stored points",
                ranks.len(),
                points.len()
            )));
        }
        let merged = DistinctSketch::new(sketch_seed, sketch_params);
        if sketch_values.num_rows() != merged.num_rows() {
            return Err(SnapshotError::Corrupt(format!(
                "distinct value table has {} rows, the sketch parameters derive {}",
                sketch_values.num_rows(),
                merged.num_rows()
            )));
        }
        if sketch_values.universe() != points.len() {
            return Err(SnapshotError::Corrupt(format!(
                "distinct value table covers {} elements for {} points",
                sketch_values.universe(),
                points.len()
            )));
        }
        for table in &tables {
            validate_ranked_table(table, points.len(), &merged)?;
        }
        Ok(Self {
            points,
            hashers,
            tables,
            ranks,
            near,
            params,
            config,
            sketch_seed,
            sketch_params,
            stats: QueryStats::default(),
            scratch: QueryScratch::new(),
            merged,
            sketch_values,
        })
    }
}

impl<P, H, N> fairnn_snapshot::SnapshotCodec for FairNnis<P, H, N>
where
    P: fairnn_snapshot::Codec,
    H: fairnn_lsh::HasherBankCodec,
    N: fairnn_snapshot::Codec,
{
    /// Sectioned container image: a head section (points, hasher bank, rank
    /// permutation, predicate and all scalar parameters), one section per
    /// ranked table, and one for the precomputed distinct-value table — so
    /// the per-table encode, checksum and decode-with-validation work (the
    /// dominant cost either way) runs on parallel build workers. Bytes are
    /// identical at every thread count.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut head = fairnn_snapshot::Encoder::new();
        self.points.encode(&mut head);
        H::encode_bank(&self.hashers, &mut head);
        self.ranks.encode(&mut head);
        self.near.encode(&mut head);
        self.params.encode(&mut head);
        self.config.encode(&mut head);
        head.write_u64(self.sketch_seed);
        self.sketch_params.encode(&mut head);
        head.write_u64(self.tables.len() as u64);
        let mut sections = Vec::with_capacity(self.tables.len() + 2);
        sections.push(head.into_bytes());
        // Capture only the ranked tables (not `self`), so the parallel
        // encode needs no `Sync` bounds on the point/hasher/predicate types.
        let tables = &self.tables;
        sections.extend(fairnn_parallel::map_indexed(tables.len(), |t| {
            let mut enc = fairnn_snapshot::Encoder::new();
            tables[t].encode(&mut enc);
            enc.into_bytes()
        }));
        let mut values = fairnn_snapshot::Encoder::new();
        self.sketch_values.encode(&mut values);
        sections.push(values.into_bytes());
        sections
    }

    fn decode_sections(
        sections: &[fairnn_snapshot::Section<'_>],
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        use fairnn_snapshot::SnapshotError;
        let Some((head, rest)) = sections.split_first() else {
            return Err(SnapshotError::Corrupt(
                "fair-nnis snapshot has no head section".into(),
            ));
        };
        let mut dec = head.decoder();
        let points = Vec::<P>::decode(&mut dec)?;
        let hashers = H::decode_bank(&mut dec)?;
        let ranks = RankPermutation::decode(&mut dec)?;
        let near = N::decode(&mut dec)?;
        let params = LshParams::decode(&mut dec)?;
        let config = FairNnisConfig::decode(&mut dec)?;
        let sketch_seed = dec.read_u64()?;
        let sketch_params = DistinctSketchParams::decode(&mut dec)?;
        // Cross-section count: a plain u64 (`read_len` bounds by this
        // section's remaining bytes, which is not the right limit here).
        let num_tables = usize::try_from(dec.read_u64()?)
            .map_err(|_| SnapshotError::Corrupt("table count does not fit usize".into()))?;
        dec.finish()?;
        let Some((value_section, table_sections)) = rest.split_last() else {
            return Err(SnapshotError::Corrupt(
                "fair-nnis snapshot has no value-table section".into(),
            ));
        };
        if table_sections.len() != num_tables {
            return Err(SnapshotError::Corrupt(format!(
                "fair-nnis head declares {num_tables} tables, directory holds {} table sections",
                table_sections.len()
            )));
        }
        let decoded = fairnn_parallel::map_indexed(table_sections.len(), |t| {
            let mut dec = table_sections[t].decoder();
            let table = RankedTable::decode(&mut dec)?;
            dec.finish()?;
            Ok::<RankedTable, SnapshotError>(table)
        });
        let mut tables = Vec::with_capacity(num_tables);
        for table in decoded {
            tables.push(table?);
        }
        let mut dec = value_section.decoder();
        let sketch_values = DistinctValueTable::decode(&mut dec)?;
        dec.finish()?;
        // All cross-field invariants live in the shared `assemble` tail.
        Self::assemble(
            points,
            hashers,
            tables,
            ranks,
            near,
            params,
            config,
            sketch_seed,
            sketch_params,
            sketch_values,
        )
    }
}

impl<P, H, N> FairNnis<P, H, N>
where
    P: fairnn_snapshot::Codec,
    H: fairnn_lsh::HasherBankCodec,
    N: fairnn_snapshot::Codec,
{
    /// Writes the whole Section 4 structure — points, hasher bank, ranked
    /// CSR tables with their per-bucket sketches, rank permutation, and the
    /// precomputed [`DistinctValueTable`] — as a versioned, checksummed
    /// snapshot.
    pub fn save<Q: AsRef<std::path::Path>>(
        &self,
        path: Q,
    ) -> Result<(), fairnn_snapshot::SnapshotError> {
        fairnn_snapshot::save(fairnn_snapshot::SnapshotKind::FairNnis, self, path)
    }

    /// Restores a structure written by [`FairNnis::save`]; the restored
    /// sampler consumes query randomness identically to the saved one, so
    /// sample sequences are reproduced bit for bit.
    pub fn load<Q: AsRef<std::path::Path>>(
        path: Q,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
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
            points,
            hashers,
            tables,
            near,
            config,
            scratch,
            merged,
            sketch_values,
            ..
        } = self;
        let mut stats = QueryStats::default();
        let n = points.len();
        if n == 0 {
            self.stats = stats;
            return None;
        }
        // One batched hash pass, then one bucket resolution: the keys and
        // per-table bucket indices feed the sketch merge *and* every
        // rejection round below (the query is never hashed again, and no
        // round repeats a bucket lookup). The distance memo spans the whole
        // query, so each distinct candidate is checked at most once even
        // across hundreds of rounds.
        scratch.compute_keys(hashers, query);
        Self::resolve_buckets(tables, &scratch.keys, &mut scratch.indices);
        scratch.memo.reset(points.len());

        // Step 1: estimate the number of distinct colliding points by
        // merging bucket sketches into the reusable accumulator.
        merged.clear();
        Self::merge_colliding_resolved(
            tables,
            &scratch.indices,
            sketch_values,
            &mut scratch.visited,
            n,
            merged,
        );
        let estimate = merged.estimate_into(&mut scratch.floats);
        let colliding_is_empty = scratch
            .indices
            .iter()
            .zip(tables.iter())
            .all(|(&idx, table)| {
                idx == Self::NO_BUCKET || table.buckets.bucket_at(idx as usize).is_empty()
            });
        if colliding_is_empty {
            self.stats = stats;
            return None;
        }

        // Step 2: initial number of segments k = smallest power of two >= 2 ŝ_q.
        let max_k = (n as u64).next_power_of_two().max(1);
        let mut k: u64 = ((2.0 * estimate).ceil().max(1.0) as u64)
            .next_power_of_two()
            .clamp(1, max_k);
        let lambda = config.lambda.max(1) as f64;
        let sigma = config.sigma.max(1);

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
                Self::collect_near_in_range(
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
                    &mut stats,
                );
            } else {
                scratch.candidates.clear();
            }
            let near_points = &scratch.candidates;
            let lambda_qh = near_points.len() as f64;
            if lambda_qh > 0.0 && rng.random::<f64>() < (lambda_qh / lambda).min(1.0) {
                // Step 4: uniform point among the near points of the segment.
                let pick = rng.random_range(0..near_points.len());
                let chosen = near_points[pick];
                self.stats = stats;
                return Some(chosen);
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
        // optionally fall back to exhaustive collection, which keeps the
        // output uniform over the colliding near points.
        if config.exhaustive_fallback {
            Self::collect_near_in_range(
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
                &mut stats,
            );
            let all = &scratch.candidates;
            let result = if all.is_empty() {
                None
            } else {
                Some(all[rng.random_range(0..all.len())])
            };
            self.stats = stats;
            return result;
        }
        self.stats = stats;
        None
    }

    fn last_query_stats(&self) -> QueryStats {
        self.stats
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
        let small = FairNnisConfig::for_dataset_size(10);
        let large = FairNnisConfig::for_dataset_size(1_000_000);
        assert!(large.lambda > small.lambda || small.lambda == 8);
        assert!(large.sigma >= small.sigma);
        assert!(small.exhaustive_fallback);
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
        assert!(sampler.config().lambda >= 8);
        // Some buckets (the cluster buckets) are large enough to be sketched
        // only if they exceed the threshold; the count must be well-defined.
        let _ = sampler.sketched_buckets();
        assert_eq!(sampler.params().near, 0.5);
    }
}
