//! The two-part index and its exactly uniform two-level sampler.
//!
//! [`ShardedIndex`] holds its points in two [`Shard`]s: the **base**, one
//! `L`-table set built over the whole dataset, and the **delta**, a second
//! `L`-table set over the points inserted since the last fold. Both parts
//! share one hasher bank, so `A_base ∪ A_delta` — the union of the parts'
//! colliding near sets — is exactly the colliding near set of the paper's
//! single `L`-table structure over all live points. Which part holds a
//! point changes the cost of an answer, never its distribution. A query
//! runs the two-level protocol:
//!
//! 1. hash the query once, probe the `L` tables of each part that holds a
//!    live point once ([`Shard::locate_buckets_with_keys`]: each bucket's
//!    entry range is kept), and give every part the integer weight
//!    `w_i = b_i = Σ_t |B_t(q)|`, the summed lengths of its `L` buckets,
//!    read from the bucket offsets with no entry walked (a part without a
//!    live point is not probed and weighs 0);
//! 2. draw one `u` uniform in `[0, W)`, `W = Σ_i w_i`, and find the part
//!    `i` whose slice `[o_i, o_i + w_i)` of `[0, W)` holds it;
//! 3. if part `i` has not been walked yet, walk its kept entry ranges into
//!    `D_i`, the distinct live colliding points in walk order
//!    ([`Shard::walk_buckets`], no predicate evaluated), and lower its
//!    weight to `w_i = |D_i| ≤ b_i`;
//! 4. `D_i` is split into a verified-near prefix `[0, v_i)` and an
//!    unevaluated rest. With `j = u − o_i`: if `j < v_i`, return `D_i[j]`;
//!    if `v_i ≤ j < |D_i|`, evaluate `D_i[j]` with the exact predicate —
//!    when near, swap it to position `v_i`, grow the prefix and return it;
//!    when far, swap-remove it from `D_i`, so `w_i` and `W` drop by one;
//! 5. otherwise (no return) go to 2.
//!
//! A draw with `W = 0` returns `None`: no part has a colliding live point
//! that is not known to be far.
//!
//! **Exactly uniform.** In every round each `x ∈ ∪_i A_i` owns exactly one
//! value of `u` — position `o_i + j` when `x = D_i[j]`, which exists
//! because `|D_i| ≤ w_i` before the walk and `= w_i` after it, and because
//! a near point is never removed from `D_i` — so each point is returned
//! with probability exactly `1/W` in that round, whatever earlier rounds
//! walked, verified or removed. The returned point is therefore uniform
//! over `∪_i A_i`: there is no estimate whose error could bias it and no
//! margin to tune.
//!
//! **Work and rounds.** Each round evaluates at most one candidate, and
//! each candidate is evaluated at most once per [`PreparedQuery`] (a far
//! one leaves `D_i`, a near one joins the verified prefix); each part is
//! walked at most once per [`PreparedQuery`], however many draws it
//! serves. A round that returns nothing either walks one of the two parts
//! for the first time or removes a far candidate, so a draw takes at most
//! `f + 3` rounds, where `f` is the number of far candidates it removes —
//! `f + 2` when it answers `None`, which it does only after evaluating
//! every candidate of both parts. No round budget, no fallback.
//!
//! **Writes.** An insert stages into the delta under the next global id,
//! so a commit merges only the delta's tables, and a delete tombstones the
//! point in whichever part holds it. No map from global id to part is
//! kept: each part's global ids ascend and the delta's are above the
//! base's, so comparing an id with the delta's first id picks the part and
//! a binary search there finds the point. Once the delta holds more than
//! `1/FOLD_FRACTION` of the base's live points, a **fold** builds the next
//! base from both parts (`Shard::compacted`): the live base points, then
//! the live delta points. Each base table takes one pass of the table
//! update kernel: the base's surviving entries, then the delta's live
//! entries appended, read from the delta's tables, plus its staged points,
//! the only points hashed. The delta is left empty. A `Compact`, and a
//! delete that trips the base's compaction, fold as well.
//!
//! Fresh query randomness on every call makes repeated queries independent,
//! so the sampler solves r-NNIS over the colliding near points — the
//! property the uniformity battery checks.

use crate::seed::stream_rng;
use crate::shard::{self, Shard};
use fairnn_core::predicate::Nearness;
use fairnn_core::{NeighborSampler, QueryStats};
use fairnn_lsh::{ConcatenatedHasher, HasherBank, LshFamily, LshHasher, LshParams};
use fairnn_obs::{LazyHistogram, Timer};
use fairnn_snapshot::{Codec, Encoder, Section, SnapshotError};
use fairnn_space::{Dataset, PointId};
use rand::Rng;
use std::sync::Arc;

/// Rounds spent per draw (one observation per [`PreparedQuery::sample`]
/// call): at most `f + 3` for the `f` far candidates the draw removes, 0
/// when nothing collides.
static REJECTION_ROUNDS: LazyHistogram = LazyHistogram::new(
    "engine_rejection_rounds",
    "rounds spent per draw of the two-level protocol (at most far candidates removed + 3)",
);

/// Wall time of one fold ([`ShardedIndex::fold`]), whichever path runs
/// it: a `Compact` commit, an insert or delete that makes it due, or the
/// replay of either on reopen.
static FOLD_NS: LazyHistogram = LazyHistogram::new(
    "engine_fold_ns",
    "wall time of one fold of the delta into the base in nanoseconds",
);

/// Configuration of a [`ShardedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIndexConfig {
    /// Root seed: determines the hasher bank and every batch's answer
    /// streams.
    pub seed: u64,
}

impl Default for ShardedIndexConfig {
    fn default() -> Self {
        Self { seed: 0x5EED }
    }
}

impl ShardedIndexConfig {
    /// The default config; the argument is ignored. An index has one base
    /// and one delta whatever it is given.
    #[deprecated(note = "an index always has one base and one delta; use `default()`")]
    pub fn with_shards(_shards: usize) -> Self {
        Self::default()
    }

    /// Replaces the root seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl fairnn_snapshot::Codec for ShardedIndexConfig {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        enc.write_u64(self.seed);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            seed: dec.read_u64()?,
        })
    }
}

/// Position of the base in [`ShardedIndex::shards`].
const BASE: usize = 0;
/// Position of the delta in [`ShardedIndex::shards`].
const DELTA: usize = 1;
/// Number of parts.
const PARTS: usize = 2;

/// The delta folds into the base once it holds more than `1/FOLD_FRACTION`
/// of the base's live points.
const FOLD_FRACTION: usize = 8;

/// The hasher bank's RNG stream (domain separation for
/// [`crate::seed::split_seed`]). It is the stream the first shard drew
/// its own bank from when every shard had one, so a seed keeps those
/// hashers.
const STREAM_BANK: u64 = 2 << 32;

/// A dataset indexed as a base plus an insert delta, with a uniform
/// two-level sampler.
///
/// One `K × L` [`HasherBank`] keys the tables of both parts, so a query is
/// hashed once and the same `L` keys are looked up in each part: the union
/// of the parts' colliding sets is exactly the colliding set of the
/// paper's single `L`-table structure over all points.
///
/// Parts are held behind [`Arc`]s: cloning the index (what the
/// generational writer does to stage the next generation) shares both
/// parts, and a mutation copies only the part it touches
/// ([`Arc::make_mut`]), sharing that part's tables and points unless it
/// rebuilds them — readers pinned on an older generation keep their
/// original parts untouched.
///
/// A published index is immutable to every other crate: its mutators
/// (`delete`, `compact`, and the `Shard` and `StagedIndex` methods behind
/// an insert) are `pub(crate)`, so the only way to change the points an
/// engine serves is [`EngineWriter::commit`](crate::EngineWriter::commit),
/// which write-ahead-logs the change and publishes a new generation:
///
/// ```compile_fail,E0624
/// use fairnn_core::SimilarityAtLeast;
/// use fairnn_engine::ShardedIndex;
/// use fairnn_lsh::{ConcatenatedHasher, MinHasher};
/// use fairnn_space::{Jaccard, PointId, SparseSet};
///
/// fn bypass_the_log(
///     index: &mut ShardedIndex<SparseSet, ConcatenatedHasher<MinHasher>, SimilarityAtLeast<Jaccard>>,
/// ) {
///     index.delete(PointId::from_index(0));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedIndex<P, H, N> {
    /// The hasher bank shared by both parts.
    bank: HasherBank<H>,
    /// `[base, delta]`. Each part lists the global ids of its points in
    /// ascending order, and every id the delta holds is above every id the
    /// base holds, so the ids alone say which part holds a point.
    parts: [Arc<Shard<P, H, N>>; PARTS],
    /// The global id the next insert gets: above every id either part has
    /// held, and never lowered, so an id a fold dropped is not reused.
    next_id: PointId,
    params: LshParams,
    config: ShardedIndexConfig,
}

impl<P: Clone + Send + Sync, BH, N> ShardedIndex<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
    N: Nearness<P>,
{
    /// Draws the one `K × L` hasher bank from an RNG stream split off the
    /// root seed and builds the base over every point of `dataset`, keyed
    /// by that bank; the delta starts empty. The base is built on the
    /// calling thread, so its hashing and its table build each spread over
    /// the build workers, and the result is bit-for-bit the serial build at
    /// any thread count. Fully deterministic given `config.seed`.
    pub fn build<F>(
        family: &F,
        params: LshParams,
        dataset: &Dataset<P>,
        near: N,
        config: ShardedIndexConfig,
    ) -> Self
    where
        F: LshFamily<P, Hasher = BH> + Sync,
        N: Clone + Send + Sync,
    {
        let bank = HasherBank::sample(family, params, &mut stream_rng(config.seed, STREAM_BANK));
        let ids = (0..dataset.len()).map(PointId::from_index).collect();
        let base = Shard::build(bank.clone(), dataset.points().to_vec(), ids, near);
        let delta = base.emptied();
        Self {
            bank,
            parts: [Arc::new(base), Arc::new(delta)],
            next_id: PointId::from_index(dataset.len()),
            params,
            config,
        }
    }
}

impl<P, H, N> ShardedIndex<P, H, N> {
    /// Total number of live points in both parts.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|s| s.live_points()).sum()
    }

    /// Whether no live point remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared LSH parameters.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> ShardedIndexConfig {
        self.config
    }

    /// The hasher bank shared by both parts.
    pub fn bank(&self) -> &HasherBank<H> {
        &self.bank
    }

    /// Both parts, `[base, delta]` (read-only; for accounting and tests).
    pub fn shards(&self) -> &[Arc<Shard<P, H, N>>] {
        &self.parts
    }

    /// The base: the points of the build and of every fold.
    pub fn base(&self) -> &Shard<P, H, N> {
        &self.parts[BASE]
    }

    /// The delta: the points inserted since the last fold.
    pub fn delta(&self) -> &Shard<P, H, N> {
        &self.parts[DELTA]
    }

    /// Whether the (live) point with this global id is present.
    pub fn contains(&self, id: PointId) -> bool {
        self.locate(id).is_some()
    }

    /// The part holding the live point with this global id, and its local
    /// id there. The delta holds the ids from its first one up, the base
    /// those below; the local id is a binary search in that part.
    fn locate(&self, id: PointId) -> Option<(usize, u32)> {
        let in_delta = self.parts[DELTA]
            .global_ids()
            .first()
            .is_some_and(|&first| id >= first);
        let part = if in_delta { DELTA } else { BASE };
        self.parts[part].local_id(id).map(|local| (part, local))
    }
}

impl<P, H, N> ShardedIndex<P, H, N>
where
    H: LshHasher<P>,
{
    /// The query's `L` bucket keys: one batched pass over the shared bank,
    /// valid in both parts.
    fn query_keys(&self, query: &P) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.bank.num_tables());
        self.bank.query_keys_into(query, &mut keys);
        keys
    }
}

impl<P, H, N> ShardedIndex<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// The distinct colliding near points of both parts, sorted by id (the
    /// parts are disjoint, so this is a plain concatenation): exactly the
    /// near points colliding with `query` in one `L`-table index over all
    /// live points keyed by [`ShardedIndex::bank`].
    pub fn neighborhood(&self, query: &P) -> Vec<PointId> {
        let mut stats = QueryStats::default();
        let keys = self.query_keys(query);
        let mut all = Vec::new();
        for part in &self.parts {
            all.extend(part.colliding_near_points_with_keys(query, &keys, &mut stats));
        }
        all.sort_unstable();
        all
    }

    /// Prepares a query for (repeated) sampling: hashes it once and probes
    /// the `L` tables of each part that holds a live point once for their
    /// bucket entry ranges and bound `b_i`, so it inspects `L` buckets with
    /// an empty delta and `2 L` otherwise. Parts are walked and candidates
    /// evaluated lazily, as draws land on them. Every cached quantity is a
    /// *deterministic* function of the index and the query, so drawing
    /// many samples from one [`PreparedQuery`] yields exactly the same
    /// output distribution as calling [`ShardedIndex::sample`] repeatedly,
    /// while each part is walked and each candidate evaluated at most once.
    pub fn prepare<'a>(&'a self, query: &'a P) -> PreparedQuery<'a, P, H, N> {
        let mut stats = QueryStats::default();
        let keys = self.query_keys(query);
        let l = keys.len();
        let mut buckets = vec![(0, 0); PARTS * l];
        let mut weights = [0; PARTS];
        for (i, part) in self.parts.iter().enumerate() {
            // A part without a live point has no candidate: weight 0, so no
            // draw lands on it and its tables are never read.
            if part.live_points() > 0 {
                weights[i] = part.locate_buckets_with_keys(&keys, &mut buckets[i * l..(i + 1) * l]);
                stats.buckets_inspected += l;
            }
        }
        PreparedQuery {
            index: self,
            query,
            buckets,
            weights,
            total: weights.iter().sum(),
            walked: Default::default(),
            stats,
        }
    }

    /// One uniform sample from the colliding near points of `query`, with
    /// the work statistics of this call. Fresh `rng` draws make repeated
    /// calls independent (see the module docs for the uniformity argument).
    pub fn sample<R: Rng + ?Sized>(&self, query: &P, rng: &mut R) -> (Option<PointId>, QueryStats) {
        let mut prepared = self.prepare(query);
        let id = prepared.sample(rng);
        (id, prepared.stats())
    }
}

impl<P, H, N> fairnn_snapshot::SnapshotCodec for ShardedIndex<P, H, N>
where
    P: fairnn_snapshot::Codec + Send + Sync,
    H: fairnn_lsh::HasherBankCodec + Send + Sync,
    N: fairnn_snapshot::Codec + Send + Sync + Nearness<P>,
{
    /// Sectioned container image: a head section (the next global id, the
    /// shared LSH parameters, the configuration), the hasher bank section,
    /// then the sections of the base and of the delta — per part, one with
    /// its points and one per fixed range of tables. Encode, per-section
    /// checksums and decodes all run on parallel build workers. Bytes are
    /// identical at every thread count.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut head = Encoder::new();
        self.next_id.encode(&mut head);
        self.params.encode(&mut head);
        self.config.encode(&mut head);
        let mut bank = Encoder::new();
        self.bank.encode(&mut bank);
        let per_part = shard::section_count(self.bank.num_tables());
        let mut sections = vec![head.into_bytes(), bank.into_bytes()];
        sections.extend(fairnn_parallel::map_indexed(PARTS * per_part, |i| {
            self.parts[i / per_part].encode_section(i % per_part)
        }));
        sections
    }

    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        let [head, bank_section, part_sections @ ..] = sections else {
            return Err(SnapshotError::Corrupt(
                "index snapshot needs a head and a hasher bank section".into(),
            ));
        };
        let mut dec = head.decoder();
        let next_id = PointId::decode(&mut dec)?;
        let params = LshParams::decode(&mut dec)?;
        let config = ShardedIndexConfig::decode(&mut dec)?;
        dec.finish()?;
        // The bank must fit the stored parameters: exactly `L` tables and
        // `K × L` rows, or a query would index past the parts' tables.
        let mut dec = bank_section.decoder();
        let bank = HasherBank::<H>::decode(&mut dec)?;
        dec.finish()?;
        bank.check_shape(params)?;
        let per_part = shard::section_count(bank.num_tables());
        if part_sections.len() != PARTS * per_part {
            return Err(SnapshotError::Corrupt(format!(
                "index snapshot holds {} part sections, its two parts need {}",
                part_sections.len(),
                PARTS * per_part
            )));
        }
        let (base, delta) = part_sections.split_at(per_part);
        let base = Shard::decode_sections(base, bank.clone())?;
        let delta = Shard::decode_sections(delta, bank.clone())?;
        Self::assemble(bank, [base, delta], next_id, params, config)
    }
}

impl<P, H, N> ShardedIndex<P, H, N> {
    /// Tail of the sectioned decoder: cross-part validation and assembly.
    /// (Each part's table count was checked against the bank, the bank
    /// against `params`, and each part's global ids for ascending order, as
    /// they decoded.) Every id the delta has held must be above every id
    /// the base has held, as inserts and folds keep them, and the next id
    /// must be above both, or an insert would hand out an id a part holds.
    fn assemble(
        bank: HasherBank<H>,
        parts: [Shard<P, H, N>; PARTS],
        next_id: PointId,
        params: LshParams,
        config: ShardedIndexConfig,
    ) -> Result<Self, SnapshotError> {
        let [base, delta] = parts;
        let (base_last, delta_first) = (base.global_ids().last(), delta.global_ids().first());
        if let (Some(last), Some(first)) = (base_last, delta_first) {
            if first <= last {
                return Err(SnapshotError::Corrupt(format!(
                    "the delta holds id {first}, not above the base's last id {last}"
                )));
            }
        }
        if let Some(&last) = delta.global_ids().last().or(base_last) {
            if next_id <= last {
                return Err(SnapshotError::Corrupt(format!(
                    "the next id {next_id} is not above the stored id {last}"
                )));
            }
        }
        Ok(Self {
            bank,
            parts: [Arc::new(base), Arc::new(delta)],
            next_id,
            params,
            config,
        })
    }
}

impl<P, H, N> ShardedIndex<P, H, N>
where
    P: fairnn_snapshot::Codec + Send + Sync,
    H: fairnn_lsh::HasherBankCodec + Send + Sync,
    N: fairnn_snapshot::Codec + Send + Sync + Nearness<P>,
{
    /// Writes the index as a versioned, checksummed snapshot file.
    pub fn save<Q: AsRef<std::path::Path>>(&self, path: Q) -> Result<(), SnapshotError> {
        fairnn_snapshot::save(fairnn_snapshot::SnapshotKind::ShardedIndex, self, path)
    }

    /// Restores an index written by [`ShardedIndex::save`]. Sampling from
    /// the restored index with the same RNG stream reproduces the saved
    /// index's draws bit for bit, and incremental insert/delete behave
    /// exactly as on the saved instance.
    pub fn load<Q: AsRef<std::path::Path>>(path: Q) -> Result<Self, SnapshotError> {
        fairnn_snapshot::load(fairnn_snapshot::SnapshotKind::ShardedIndex, path)
    }
}

/// Repeated-sampling cursor over one query (see [`ShardedIndex::prepare`]).
#[derive(Debug)]
pub struct PreparedQuery<'a, P, H, N> {
    index: &'a ShardedIndex<P, H, N>,
    query: &'a P,
    /// `2 × L` bucket entry ranges `(start, end)` found at prepare time
    /// (part-major; empty where a table has no bucket for the query's key,
    /// and for a part that was not probed).
    buckets: Vec<(u32, u32)>,
    /// Per-part proposal weights: the bucket-length bound `b_i` until the
    /// part is walked, `|D_i|` from then on.
    weights: [usize; PARTS],
    /// `W = Σ_i w_i`.
    total: usize,
    /// Per-part candidates `D_i`, walked on first landing.
    walked: [Option<Candidates>; PARTS],
    stats: QueryStats,
}

/// A walked part's remaining candidates `D_i` (local ids): the points in
/// `ids[..verified]` are known near, the rest are not evaluated yet.
#[derive(Debug)]
struct Candidates {
    ids: Vec<u32>,
    verified: usize,
}

impl<P, H, N> PreparedQuery<'_, P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Accumulated work statistics over every draw from this cursor (one
    /// [`ShardedIndex::sample`] call equals one prepare + one draw).
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Draws one uniform sample from `∪_i A_i`, or `None` when it is empty
    /// (steps 2–5 of the module docs). Each round evaluates at most one
    /// candidate; a draw takes at most `f + 3` rounds for the `f` far
    /// candidates it removes.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<PointId> {
        let rounds_before = self.stats.rounds;
        let out = self.sample_inner(rng);
        REJECTION_ROUNDS.record((self.stats.rounds - rounds_before) as u64);
        out
    }

    fn sample_inner<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<PointId> {
        while self.total > 0 {
            self.stats.rounds += 1;
            let mut u = rng.random_range(0..self.total);
            let mut pick = 0;
            while u >= self.weights[pick] {
                u -= self.weights[pick];
                pick += 1;
            }
            if let Some(id) = self.land(pick, u) {
                return Some(id);
            }
        }
        None
    }

    /// One round landing on slot `j` of part `i` (steps 3–4 of the module
    /// docs): walks the part on first landing, then returns a verified
    /// point, or evaluates the one unverified candidate in the slot.
    fn land(&mut self, i: usize, j: usize) -> Option<PointId> {
        let part = &self.index.parts[i];
        let candidates = match &mut self.walked[i] {
            Some(candidates) => candidates,
            slot => {
                let _span = fairnn_obs::span!("shard.sample", shard = i);
                let l = self.index.bank.num_tables();
                let mut ids = Vec::new();
                part.walk_buckets(&self.buckets[i * l..(i + 1) * l], &mut ids, &mut self.stats);
                // Every round's 1/W per point rests on this (module docs).
                assert!(ids.len() <= self.weights[i], "b_i < |D_i|");
                self.total -= self.weights[i] - ids.len();
                self.weights[i] = ids.len();
                slot.insert(Candidates { ids, verified: 0 })
            }
        };
        if j < candidates.verified {
            return Some(part.global_id(candidates.ids[j]));
        }
        let &local = candidates.ids.get(j)?;
        if part.is_near(self.query, local, &mut self.stats) {
            candidates.ids.swap(j, candidates.verified);
            candidates.verified += 1;
            Some(part.global_id(local))
        } else {
            candidates.ids.swap_remove(j);
            self.weights[i] -= 1;
            self.total -= 1;
            None
        }
    }
}

impl<P: Clone, H: Clone, N: Clone> ShardedIndex<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Deletes a point by global id; returns `false` for unknown or already
    /// deleted ids. The part holding the point tombstones it and keeps
    /// sharing its tables and points. A delete that trips a part's
    /// compaction compacts the delta on its own, or folds the delta into
    /// the base ([`ShardedIndex::fold`]). Crate-private: external callers
    /// go through the engine writer's `WriteBatch`, which write-ahead-logs
    /// the mutation and publishes a fresh generation.
    pub(crate) fn delete(&mut self, id: PointId) -> bool {
        let Some((part, local)) = self.locate(id) else {
            return false;
        };
        let shard = Arc::make_mut(&mut self.parts[part]);
        shard.delete(local);
        if shard.needs_compaction() {
            if part == BASE {
                self.fold();
            } else {
                self.parts[DELTA] = Arc::new(shard.compacted(None));
            }
        }
        true
    }

    /// Folds unless the base holds no tombstone and the delta no point.
    /// Crate-private: reachable through `WriteOp::Compact` on the writer,
    /// which runs it on the staging generation — never on a published one.
    pub(crate) fn compact(&mut self) {
        let delta = &self.parts[DELTA];
        if self.parts[BASE].tombstones() + delta.live_points() + delta.tombstones() > 0 {
            self.fold();
        }
    }

    /// Builds the next base from the live points of the base and then of
    /// the delta, with one update pass per base table that appends the
    /// delta's live entries ([`Shard::compacted`]), and empties the delta.
    /// Only the delta's staged points are hashed. Afterwards the base holds
    /// every live point under dense local ids, in the tables a fresh build
    /// over them would have. The base is not modified: it may still be
    /// shared with published generations.
    fn fold(&mut self) {
        let _timer = Timer::start(&FOLD_NS);
        let [base, delta] = &self.parts;
        self.parts = [
            Arc::new(base.compacted(Some(delta))),
            Arc::new(delta.emptied()),
        ];
    }
}

/// A [`ShardedIndex`] whose inserts are staged: each inserted point is
/// stored in the delta, but the delta's tables do not cover it yet.
///
/// The writer applies batches to a staged index, during a commit and
/// across a whole WAL replay, so the delta's tables take one merge for all
/// the points it received. A staged index answers no query, has no
/// encoding and is never published: it has no query or snapshot method,
/// and the one way back to a [`ShardedIndex`] is
/// [`StagedIndex::merged`], which brings the delta's tables up to date.
#[derive(Debug)]
pub(crate) struct StagedIndex<P, H, N> {
    index: ShardedIndex<P, H, N>,
}

impl<P: Clone, H: Clone, N: Clone> StagedIndex<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Starts staging on top of a merged index.
    pub(crate) fn new(index: ShardedIndex<P, H, N>) -> Self {
        Self { index }
    }

    /// Whether the (live) point with this global id is present, staged
    /// points included.
    pub(crate) fn contains(&self, id: PointId) -> bool {
        self.index.contains(id)
    }

    /// Stages a new point in the delta and returns its freshly assigned
    /// global id. Only the delta is copied, and the base stays shared with
    /// the previous generation unless the insert makes the fold due.
    pub(crate) fn insert(&mut self, point: P) -> PointId {
        let index = &mut self.index;
        let id = index.next_id;
        index.next_id = PointId::from_index(id.index() + 1);
        Arc::make_mut(&mut index.parts[DELTA]).insert(id, point);
        self.fold_if_due();
        id
    }

    /// [`ShardedIndex::delete`]; a compaction it triggers takes the staged
    /// points along. May make the fold due, as an insert may.
    pub(crate) fn delete(&mut self, id: PointId) -> bool {
        let deleted = self.index.delete(id);
        self.fold_if_due();
        deleted
    }

    /// [`ShardedIndex::compact`]; the fold takes the staged points along.
    pub(crate) fn compact(&mut self) {
        self.index.compact();
    }

    /// Folds the delta into the base once it holds more than
    /// `1/FOLD_FRACTION` of the base's live points. Checked after every
    /// insert and delete, so the fold happens at the same op however the
    /// ops are batched into commits: a WAL replay folds exactly where the
    /// live writer did and recovers its index bit for bit.
    fn fold_if_due(&mut self) {
        let [base, delta] = &self.index.parts;
        if delta.live_points() * FOLD_FRACTION > base.live_points() {
            self.index.fold();
        }
    }

    /// The index with the delta's staged points merged into its tables:
    /// one linear merge per delta table. Only the delta holds staged
    /// points ([`StagedIndex::insert`] stages there), so the base stays
    /// shared.
    pub(crate) fn merged(mut self) -> ShardedIndex<P, H, N> {
        let delta = &mut self.index.parts[DELTA];
        if delta.staged_points() > 0 {
            Arc::make_mut(delta).merge_staged();
        }
        self.index
    }
}

/// [`NeighborSampler`] adapter around a [`ShardedIndex`], so the sharded
/// engine slots into every harness built on the core sampling traits
/// (including [`fairnn_core::FairSampler`] trait objects via the blanket
/// impl).
#[derive(Debug, Clone)]
pub struct ShardedSampler<P, H, N> {
    index: ShardedIndex<P, H, N>,
    stats: QueryStats,
}

impl<P, H, N> ShardedSampler<P, H, N> {
    /// Wraps an existing index.
    pub fn new(index: ShardedIndex<P, H, N>) -> Self {
        Self {
            index,
            stats: QueryStats::default(),
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &ShardedIndex<P, H, N> {
        &self.index
    }

    /// Unwraps the index.
    pub fn into_inner(self) -> ShardedIndex<P, H, N> {
        self.index
    }
}

impl<P: Clone + Send + Sync, BH, N> ShardedSampler<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
    N: Nearness<P>,
{
    /// Builds the index and wraps it (mirrors `FairNns::build` ergonomics).
    pub fn build<F>(
        family: &F,
        params: LshParams,
        dataset: &Dataset<P>,
        near: N,
        config: ShardedIndexConfig,
    ) -> Self
    where
        F: LshFamily<P, Hasher = BH> + Sync,
        N: Clone + Send + Sync,
    {
        Self::new(ShardedIndex::build(family, params, dataset, near, config))
    }
}

impl<P, H, N> NeighborSampler<P> for ShardedSampler<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    fn sample<R: Rng + ?Sized>(&mut self, query: &P, rng: &mut R) -> Option<PointId> {
        let (id, stats) = self.index.sample(query, rng);
        self.stats = stats;
        id
    }

    fn last_query_stats(&self) -> QueryStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "sharded-engine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::apply_batch;
    use crate::WriteBatch;
    use fairnn_core::{ExactSampler, SimilarityAtLeast};
    use fairnn_lsh::{MinHash, ParamsBuilder};
    use fairnn_snapshot::{from_bytes, to_bytes, SnapshotKind};
    use fairnn_space::{Jaccard, SparseSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn clustered_sets() -> Vec<SparseSet> {
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
        sets
    }

    fn clustered_dataset() -> Dataset<SparseSet> {
        Dataset::new(clustered_sets())
    }

    type Index = ShardedIndex<
        SparseSet,
        ConcatenatedHasher<fairnn_lsh::MinHasher>,
        SimilarityAtLeast<Jaccard>,
    >;

    fn build_over(data: &Dataset<SparseSet>, seed: u64) -> Index {
        // The parameters of the 30-point fixture, whatever `data` holds, so
        // indexes over different point sets share one bank per seed.
        let params = ParamsBuilder::new(30, 0.5, 0.05).empirical(&MinHash);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let config = ShardedIndexConfig::default().seeded(seed);
        ShardedIndex::build(&MinHash, params, data, near, config)
    }

    fn build(seed: u64) -> (Dataset<SparseSet>, Index) {
        let data = clustered_dataset();
        let index = build_over(&data, seed);
        (data, index)
    }

    /// A near twin of the cluster around point 0.
    fn twin(j: u32) -> SparseSet {
        let mut items: Vec<u32> = (0..25).collect();
        items.push(100);
        items.push(900 + j);
        SparseSet::from_items(items)
    }

    /// `index` with `points` staged into the delta and merged, no fold.
    fn with_delta(index: Index, points: impl IntoIterator<Item = SparseSet>) -> Index {
        let mut staged = StagedIndex::new(index);
        for point in points {
            staged.insert(point);
        }
        staged.merged()
    }

    #[test]
    fn shards_partition_the_dataset() {
        let (data, index) = build(1);
        let index = with_delta(index, (0..3).map(twin));
        assert_eq!(index.shards().len(), 2);
        assert_eq!(index.len(), data.len() + 3);
        assert!(!index.is_empty());
        assert_eq!(index.base().live_points(), data.len());
        assert_eq!(index.delta().live_points(), 3);
        for id in (0..data.len() + 3).map(PointId::from_index) {
            assert!(index.contains(id));
            assert_eq!(
                index.shards().iter().filter(|s| s.contains(id)).count(),
                1,
                "{id} owned by != 1 part"
            );
        }
    }

    #[test]
    fn neighborhood_matches_exact_ground_truth() {
        let (data, index) = build(2);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        for qi in 0..10u32 {
            let query = data.point(PointId(qi)).clone();
            assert_eq!(
                index.neighborhood(&query),
                exact.neighborhood(&query),
                "query {qi}"
            );
        }
    }

    #[test]
    fn sample_returns_only_near_points_and_none_off_support() {
        let (data, index) = build(3);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let mut rng = StdRng::seed_from_u64(5);
        let query = data.point(PointId(0)).clone();
        let neighborhood = exact.neighborhood(&query);
        for _ in 0..50 {
            let (id, stats) = index.sample(&query, &mut rng);
            assert!(neighborhood.contains(&id.expect("non-empty")));
            assert!(stats.rounds >= 1);
        }
        let isolated = SparseSet::from_items(vec![88_000, 88_001]);
        assert_eq!(index.sample(&isolated, &mut rng).0, None);
    }

    #[test]
    fn repeated_queries_are_uniform_over_the_neighborhood() {
        // The r-NNIS property of the two-level sampler: repeated queries
        // on one index whose neighbourhood spans base and delta, empirical
        // distribution uniform over the 13 members.
        let (data, index) = build(4);
        let index = with_delta(index, (0..3).map(twin));
        let query = data.point(PointId(0)).clone();
        let neighborhood = index.neighborhood(&query);
        assert_eq!(neighborhood.len(), 13);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 13_000;
        let mut counts = vec![0usize; index.next_id.index()];
        for _ in 0..trials {
            let (id, _) = index.sample(&query, &mut rng);
            counts[id.expect("non-empty").index()] += 1;
        }
        for &id in &neighborhood {
            let rate = counts[id.index()] as f64 / trials as f64;
            assert!(
                (rate - 1.0 / 13.0).abs() < 0.02,
                "member {id} sampled at rate {rate}, expected ~1/13"
            );
        }
    }

    #[test]
    fn prepared_query_draws_match_the_one_shot_distribution() {
        // prepare() caches only deterministic per-query state, so bulk draws
        // from one cursor must be distributed like independent sample()
        // calls: uniform over the neighborhood.
        let (data, index) = build(5);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(0)).clone();
        let neighborhood = exact.neighborhood(&query);
        let mut prepared = index.prepare(&query);
        let mut rng = StdRng::seed_from_u64(17);
        let trials = 12_000;
        let mut counts = vec![0usize; data.len()];
        for _ in 0..trials {
            counts[prepared.sample(&mut rng).expect("non-empty").index()] += 1;
        }
        for &id in &neighborhood {
            let rate = counts[id.index()] as f64 / trials as f64;
            assert!(
                (rate - 0.1).abs() < 0.02,
                "member {id} rate {rate} via prepared cursor"
            );
        }
        assert!(prepared.stats().rounds >= trials);
    }

    #[test]
    fn insert_stages_into_the_delta_and_is_sampleable() {
        let (data, index) = build(8);
        let query = data.point(PointId(0)).clone();
        let base = Arc::clone(&index.parts[BASE]);
        let mut staged = StagedIndex::new(index);
        let ids = vec![staged.insert(twin(0))];
        let index = staged.merged();
        assert_eq!(ids, vec![PointId::from_index(data.len())]);
        let id = ids[0];
        assert!(index.contains(id));
        assert!(index.delta().contains(id));
        assert!(
            Arc::ptr_eq(&base, &index.parts[BASE]),
            "the base was copied"
        );
        assert_eq!(index.len(), data.len() + 1);
        assert!(
            index.neighborhood(&query).contains(&id),
            "inserted near point must join the neighborhood"
        );
        let mut rng = StdRng::seed_from_u64(9);
        let seen_inserted = (0..2000).any(|_| index.sample(&query, &mut rng).0 == Some(id));
        assert!(seen_inserted, "inserted point never sampled");
    }

    #[test]
    fn prepare_probes_l_buckets_with_an_empty_delta_and_2l_otherwise() {
        let (data, index) = build(18);
        let l = index.params().l;
        let query = data.point(PointId(0)).clone();
        let probed = |index: &Index| index.prepare(&query).stats().buckets_inspected;
        assert_eq!(probed(&index), l, "fresh build");
        let index = with_delta(index, [twin(0)]);
        assert_eq!(probed(&index), 2 * l, "one point in the delta");
        // Deleting the delta's only point compacts the delta to nothing.
        let mut staged = StagedIndex::new(index);
        assert!(staged.delete(PointId::from_index(data.len())));
        let index = staged.merged();
        assert_eq!(index.delta().live_points() + index.delta().tombstones(), 0);
        assert_eq!(probed(&index), l, "delta emptied by a delete");
    }

    #[test]
    fn the_delta_folds_past_an_eighth_of_the_base_and_on_compact() {
        let (data, index) = build(19);
        let n = data.len();
        let mut staged = StagedIndex::new(index);
        // 30 base points: three staged points stay in the delta (3 × 8 ≤
        // 30), a fourth folds them all (4 × 8 > 30).
        for j in 0..3 {
            staged.insert(twin(j));
        }
        assert_eq!(staged.index.delta().live_points(), 3);
        staged.insert(twin(3));
        let index = staged.merged();
        assert_eq!(index.delta().live_points() + index.delta().tombstones(), 0);
        assert_eq!(index.base().live_points(), n + 4);
        assert!((0..n + 4).all(|i| index.base().contains(PointId::from_index(i))));

        // A base delete can make the fold due as well: ten deletes leave
        // 24 live base points, which still carry three delta points (3 × 8
        // ≤ 24); the eleventh folds them (3 × 8 > 23).
        let mut staged = StagedIndex::new(with_delta(index, (4..7).map(twin)));
        for id in 10..20 {
            assert!(staged.delete(PointId(id)));
        }
        assert_eq!(staged.index.delta().live_points(), 3);
        for id in 20..30 {
            assert!(staged.delete(PointId(id)));
        }
        let index = staged.merged();
        assert_eq!(index.delta().live_points(), 0);

        // `Compact` folds a delta of any size.
        let mut staged = StagedIndex::new(with_delta(index, [twin(7)]));
        assert_eq!(staged.index.delta().live_points(), 1);
        staged.compact();
        let index = staged.merged();
        assert_eq!(index.delta().live_points(), 0);
        assert_eq!(index.base().live_points(), n + 8 - 20);
    }

    #[test]
    fn a_fold_leaves_every_neighborhood_unchanged() {
        let (data, index) = build(20);
        let mut staged = StagedIndex::new(with_delta(index, (0..3).map(twin)));
        assert!(staged.delete(PointId(4)));
        assert!(staged.delete(PointId::from_index(data.len() + 1)));
        let before = staged.merged();
        let mut after = before.clone();
        after.fold();
        assert_eq!(after.delta().live_points(), 0);
        let queries = data.points().iter().cloned().chain((0..3).map(twin));
        for (qi, query) in queries.enumerate() {
            assert_eq!(
                after.neighborhood(&query),
                before.neighborhood(&query),
                "query {qi}"
            );
        }
    }

    #[test]
    fn a_fold_builds_the_tables_of_a_fresh_build() {
        let (data, index) = build(21);
        let inserted: Vec<SparseSet> = (0..3).map(twin).collect();
        let all = || data.points().iter().chain(&inserted).cloned();

        // Without deletes the folded index is the fresh build over the
        // same points in the same order, byte for byte.
        let mut folded = with_delta(index.clone(), inserted.clone());
        folded.fold();
        let fresh = build_over(&Dataset::new(all().collect()), 21);
        assert_eq!(
            to_bytes(SnapshotKind::ShardedIndex, &folded),
            to_bytes(SnapshotKind::ShardedIndex, &fresh)
        );

        // With deletes in both parts, a `Compact` folds and compacts: the
        // base tables are those of a fresh build over the live points.
        let mut staged = StagedIndex::new(with_delta(index, inserted.clone()));
        let gone = [PointId(2), PointId(13), PointId::from_index(data.len())];
        for id in gone {
            assert!(staged.delete(id));
        }
        staged.compact();
        let compacted = staged.merged();
        let live = all()
            .enumerate()
            .filter(|&(i, _)| !gone.contains(&PointId::from_index(i)))
            .map(|(_, point)| point);
        let fresh = build_over(&Dataset::new(live.collect()), 21);
        let sections = |index: &Index| -> Vec<Vec<u8>> {
            let per_part = crate::shard::section_count(index.params().l);
            (1..per_part)
                .map(|i| index.base().encode_section(i))
                .collect()
        };
        assert_eq!(sections(&compacted), sections(&fresh));
    }

    #[test]
    fn ids_are_never_reused_after_a_fold() {
        // Deleting the last-inserted point and folding drops the highest id
        // from both parts; the next insert still gets the next id, on the
        // live index and on one decoded from its image.
        let (data, index) = build(22);
        let mut staged = StagedIndex::new(index);
        let first = staged.insert(twin(0));
        let last = staged.insert(twin(1));
        assert!(staged.delete(last));
        staged.compact();
        let index = staged.merged();
        assert_eq!(index.base().live_points(), data.len() + 1);
        assert_eq!(index.delta().live_points(), 0);
        assert!(index.contains(first) && !index.contains(last));
        let next = PointId(last.0 + 1);
        let image = to_bytes(SnapshotKind::ShardedIndex, &index);
        let decoded: Index = from_bytes(SnapshotKind::ShardedIndex, &image).expect("decode");
        for index in [index, decoded] {
            let mut staged = StagedIndex::new(index);
            assert_eq!(staged.insert(twin(2)), next);
        }
    }

    /// Rows evaluated by every [`CountingHasher`] of this test binary.
    static ROWS_HASHED: AtomicUsize = AtomicUsize::new(0);

    /// A MinHash row that counts its evaluations.
    #[derive(Debug, Clone)]
    struct CountingHasher(fairnn_lsh::MinHasher);

    impl LshHasher<SparseSet> for CountingHasher {
        fn hash(&self, point: &SparseSet) -> u64 {
            ROWS_HASHED.fetch_add(1, Ordering::Relaxed);
            self.0.hash(point)
        }
    }

    /// [`MinHash`], drawing [`CountingHasher`]s.
    struct CountingMinHash;

    impl fairnn_lsh::CollisionModel for CountingMinHash {
        fn collision_probability(&self, x: f64) -> f64 {
            MinHash.collision_probability(x)
        }
    }

    impl LshFamily<SparseSet> for CountingMinHash {
        type Hasher = CountingHasher;

        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CountingHasher {
            CountingHasher(MinHash.sample(rng))
        }
    }

    type CountingIndex =
        ShardedIndex<SparseSet, ConcatenatedHasher<CountingHasher>, SimilarityAtLeast<Jaccard>>;

    /// Applies `batch` to `index` as a commit does and returns the number
    /// of points it ran through the bank.
    fn points_hashed_by_commit(index: &mut CountingIndex, batch: WriteBatch<SparseSet>) -> usize {
        let rows = index.params().k * index.params().l;
        let before = ROWS_HASHED.load(Ordering::Relaxed);
        let mut staged = StagedIndex::new(index.clone());
        apply_batch(&mut staged, &batch);
        *index = staged.merged();
        let hashed = ROWS_HASHED.load(Ordering::Relaxed) - before;
        assert_eq!(hashed % rows, 0, "a point is hashed by all K x L rows");
        hashed / rows
    }

    #[test]
    fn a_folding_commit_hashes_only_the_deltas_staged_points() {
        // A fold and a `Compact` build every table from the tables the
        // parts already have, so a commit hashes the points it inserts and
        // no other, whether it folds or not.
        let data = clustered_dataset();
        let params = LshParams::explicit(2, 6, 0.5, 0.05);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let config = ShardedIndexConfig::default().seeded(23);
        let mut index = ShardedIndex::build(&CountingMinHash, params, &data, near, config);
        let n = data.len();
        let insert = |j| WriteBatch::new().insert(twin(j));
        let commit = points_hashed_by_commit;
        assert_eq!(commit(&mut index, insert(0).insert(twin(1))), 2);
        assert_eq!(commit(&mut index, insert(2)), 1);
        // 30 base points: the fourth delta point folds all four.
        assert_eq!(commit(&mut index, insert(3)), 1, "the fold re-hashed");
        assert_eq!(
            (index.base().live_points(), index.delta().live_points()),
            (n + 4, 0)
        );
        assert_eq!(commit(&mut index, insert(4)), 1);
        assert_eq!(
            commit(&mut index, WriteBatch::new().delete(PointId(3)).compact()),
            0,
            "a Compact re-hashed"
        );
        assert_eq!(index.delta().live_points(), 0);
        assert_eq!(index.base().tombstones(), 0);
        assert_eq!(commit(&mut index, insert(5).compact()), 1);
        assert_eq!(index.base().live_points(), n + 5);
    }

    /// Whether `T` implements [`SnapshotCodec`](fairnn_snapshot::SnapshotCodec),
    /// decided at compile time: `(&Probe::<T>(PhantomData)).encodable()`
    /// resolves to `Encodable` when the bound holds and, one autoref
    /// later, to `NotEncodable` otherwise.
    struct Probe<T>(std::marker::PhantomData<T>);
    trait Encodable {
        fn encodable(&self) -> bool {
            true
        }
    }
    impl<T: fairnn_snapshot::SnapshotCodec> Encodable for Probe<T> {}
    trait NotEncodable {
        fn encodable(&self) -> bool {
            false
        }
    }
    impl<T> NotEncodable for &Probe<T> {}

    #[test]
    fn staged_points_reach_readers_and_encoders_only_through_a_merge() {
        use std::marker::PhantomData;
        // The type boundary: a staged index has no encoding, no query
        // method, and `Generation::now` takes a `ShardedIndex` only, so
        // the one way to publish, query or encode staged points is
        // `StagedIndex::merged`.
        type Staged = StagedIndex<
            SparseSet,
            ConcatenatedHasher<fairnn_lsh::MinHasher>,
            SimilarityAtLeast<Jaccard>,
        >;
        assert!(Probe::<Index>(PhantomData).encodable());
        assert!(!(&Probe::<Staged>(PhantomData)).encodable());

        let (data, index) = build(16);
        let query = data.point(PointId(0)).clone();
        let before = to_bytes(SnapshotKind::ShardedIndex, &index);
        let mut staged = StagedIndex::new(index.clone());
        let ids: Vec<PointId> = (0..3).map(|j| staged.insert(twin(j))).collect();
        assert!(ids.iter().all(|&id| staged.contains(id)));
        // Staged: the delta holds the points, its tables do not.
        let parts = &staged.index.parts;
        assert_eq!(parts.iter().map(|s| s.staged_points()).sum::<usize>(), 3);
        // Copy-on-write: the index the staging started from is untouched.
        assert_eq!(to_bytes(SnapshotKind::ShardedIndex, &index), before);

        let merged = staged.merged();
        assert!(merged.shards().iter().all(|s| s.staged_points() == 0));
        let neighborhood = merged.neighborhood(&query);
        assert!(ids.iter().all(|id| neighborhood.contains(id)));
        // One merge over all three points builds the bytes of one merge
        // per point.
        let mut one_by_one = index;
        for j in 0..3 {
            let mut staged = StagedIndex::new(one_by_one);
            staged.insert(twin(j));
            one_by_one = staged.merged();
        }
        assert_eq!(
            to_bytes(SnapshotKind::ShardedIndex, &merged),
            to_bytes(SnapshotKind::ShardedIndex, &one_by_one)
        );
    }

    #[test]
    fn delete_removes_points_until_neighborhood_empties() {
        let (data, index) = build(10);
        let mut index = with_delta(index, [twin(0)]);
        let query = data.point(PointId(0)).clone();
        let members = index.neighborhood(&query);
        assert_eq!(members.len(), 11);
        for &id in &members {
            assert!(index.delete(id));
            assert!(!index.contains(id));
            assert!(!index.delete(id), "double delete must fail");
        }
        assert_eq!(index.len(), data.len() + 1 - members.len());
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(index.sample(&query, &mut rng).0, None);
        assert!(index.neighborhood(&query).is_empty());
    }

    #[test]
    fn sharded_sampler_implements_the_core_traits() {
        use fairnn_core::FairSampler;
        let (data, index) = build(12);
        let mut sampler = ShardedSampler::new(index);
        assert_eq!(sampler.name(), "sharded-engine");
        let query = data.point(PointId(1)).clone();
        let mut rng = StdRng::seed_from_u64(13);
        assert!(sampler.sample(&query, &mut rng).is_some());
        assert!(sampler.last_query_stats().rounds >= 1);
        assert_eq!(sampler.index().len(), data.len());
        // Through the object-safe trait as well.
        let boxed: &mut dyn FairSampler<SparseSet> = &mut sampler;
        assert!(boxed.sample_dyn(&query, &mut rng).is_some());
        assert_eq!(boxed.sampler_name(), "sharded-engine");
    }

    #[test]
    fn one_shard_degenerates_gracefully() {
        // A fresh build: the base holds every point, the delta none.
        let (data, index) = build(14);
        assert_eq!(index.delta().live_points(), 0);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(5)).clone();
        assert_eq!(index.neighborhood(&query), exact.neighborhood(&query));
        let mut rng = StdRng::seed_from_u64(15);
        assert!(index.sample(&query, &mut rng).0.is_some());
    }
}
