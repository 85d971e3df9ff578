//! The sharded index and its exactly uniform two-level sampler.
//!
//! [`ShardedIndex`] partitions a [`Dataset`] across `N` [`Shard`]s (round
//! robin, so shard sizes differ by at most one). All shards share one
//! hasher bank, so `∪_i A_i` — the union of the shards' colliding near
//! sets — is exactly the colliding near set of the paper's single
//! `L`-table structure over all points. A query runs the two-level
//! protocol:
//!
//! 1. hash the query once, probe each shard's `L` tables once
//!    ([`Shard::locate_buckets_with_keys`]: each bucket's entry range is
//!    kept), and give every shard the integer weight
//!    `w_i = b_i = Σ_t |B_t(q)|`, the summed lengths of its `L` buckets,
//!    read from the bucket offsets with no entry walked;
//! 2. draw one `u` uniform in `[0, W)`, `W = Σ_i w_i`, and find the shard
//!    `i` whose slice `[o_i, o_i + w_i)` of `[0, W)` holds it;
//! 3. if shard `i` has not been walked yet, walk its kept entry ranges into
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
//! A draw with `W = 0` returns `None`: no shard has a colliding live point
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
//! one leaves `D_i`, a near one joins the verified prefix); each shard is
//! walked at most once per [`PreparedQuery`], however many draws it
//! serves. A round that returns nothing either walks a shard for the first
//! time or removes a far candidate, so a draw takes at most
//! `N + f + 1` rounds, where `f` is the number of far candidates it
//! removes — `N + f` when it answers `None`, which it does only after
//! evaluating every candidate of every shard. No round budget, no
//! fallback.
//!
//! Fresh query randomness on every call makes repeated queries independent,
//! so the sharded sampler solves r-NNIS over the colliding near points —
//! the property the uniformity battery checks.

use crate::seed::stream_rng;
use crate::shard::Shard;
use fairnn_core::predicate::Nearness;
use fairnn_core::{NeighborSampler, QueryStats};
use fairnn_data::partition;
use fairnn_lsh::{ConcatenatedHasher, HasherBank, LshFamily, LshHasher, LshParams};
use fairnn_obs::LazyHistogram;
use fairnn_snapshot::{Codec, Encoder, Section, SnapshotError};
use fairnn_space::{Dataset, PointId};
use rand::Rng;
use std::sync::Arc;

/// Rounds spent per draw (one observation per [`PreparedQuery::sample`]
/// call): at most `N + f + 1` for `N` shards and `f` far candidates the
/// draw removes, 0 when nothing collides.
static REJECTION_ROUNDS: LazyHistogram = LazyHistogram::new(
    "engine_rejection_rounds",
    "rounds spent per draw of the two-level protocol (at most shards + far candidates removed + 1)",
);

/// Configuration of a [`ShardedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIndexConfig {
    /// Number of shards `N ≥ 1`.
    pub shards: usize,
    /// Root seed: determines the hasher bank and every batch's answer
    /// streams.
    pub seed: u64,
}

impl Default for ShardedIndexConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            seed: 0x5EED,
        }
    }
}

impl ShardedIndexConfig {
    /// A config with the given shard count (default seed).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Replaces the root seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl fairnn_snapshot::Codec for ShardedIndexConfig {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        enc.write_u64(self.shards as u64);
        enc.write_u64(self.seed);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        let shards = usize::decode(dec)?;
        let seed = dec.read_u64()?;
        if shards < 1 {
            return Err(fairnn_snapshot::SnapshotError::Corrupt(
                "sharded index needs at least one shard".into(),
            ));
        }
        Ok(Self { shards, seed })
    }
}

/// Sentinel in the id→shard routing table for deleted / never-assigned ids.
const UNASSIGNED: u32 = u32::MAX;

/// The hasher bank's RNG stream (domain separation for
/// [`crate::seed::split_seed`]). It is the stream shard 0 drew its own bank
/// from when every shard had one, so a seed keeps shard 0's hashers.
const STREAM_BANK: u64 = 2 << 32;

/// A dataset partitioned across shards with a uniform two-level sampler.
///
/// One `K × L` [`HasherBank`] keys the tables of every shard, so a query is
/// hashed once and the same `L` keys are looked up in each shard: the
/// union of the shards' colliding sets is exactly the colliding set of the
/// paper's single `L`-table structure over all points.
///
/// Shards are held behind [`Arc`]s: cloning the index (what the
/// generational writer does to stage the next generation) shares every
/// shard, and a mutation copies only the one shard it touches
/// ([`Arc::make_mut`]) — readers pinned on an older generation keep their
/// original shards untouched.
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
    /// The hasher bank shared by every shard.
    bank: HasherBank<H>,
    shards: Vec<Arc<Shard<P, H, N>>>,
    /// Global id → owning shard (dense; [`UNASSIGNED`] for deleted ids).
    shard_of: Vec<u32>,
    params: LshParams,
    config: ShardedIndexConfig,
}

impl<P: Clone + Send + Sync, BH, N> ShardedIndex<P, ConcatenatedHasher<BH>, N>
where
    BH: LshHasher<P> + Send + Sync,
    N: Nearness<P>,
{
    /// Partitions `dataset` round-robin across `config.shards` shards, draws
    /// the one `K × L` hasher bank from an RNG stream split off the root
    /// seed, and builds each shard's tables keyed by that bank. Shards are
    /// independent work items, so they build concurrently on the build
    /// workers, and the result is bit-for-bit the serial build at any
    /// thread count. Fully deterministic given `config.seed`.
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
        assert!(config.shards >= 1, "need at least one shard");
        let bank = HasherBank::sample(family, params, &mut stream_rng(config.seed, STREAM_BANK));
        let assignment = partition::round_robin(dataset.len(), config.shards);
        let mut shard_of = vec![UNASSIGNED; dataset.len()];
        for (s, indices) in assignment.iter().enumerate() {
            for &i in indices {
                shard_of[i] = s as u32;
            }
        }
        let shards = fairnn_parallel::map_indexed(config.shards, |s| {
            let indices = &assignment[s];
            let points: Vec<P> = indices
                .iter()
                .map(|&i| dataset.points()[i].clone())
                .collect();
            let globals: Vec<PointId> = indices.iter().map(|&i| PointId::from_index(i)).collect();
            Arc::new(Shard::build(bank.clone(), points, globals, near.clone()))
        });
        Self {
            bank,
            shards,
            shard_of,
            params,
            config,
        }
    }
}

impl<P, H, N> ShardedIndex<P, H, N> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of live points across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.live_points()).sum()
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

    /// The hasher bank shared by every shard.
    pub fn bank(&self) -> &HasherBank<H> {
        &self.bank
    }

    /// The shards themselves (read-only; for accounting and tests).
    pub fn shards(&self) -> &[Arc<Shard<P, H, N>>] {
        &self.shards
    }

    /// Whether the (live) point with this global id is present.
    pub fn contains(&self, id: PointId) -> bool {
        self.shard_of
            .get(id.index())
            .is_some_and(|&s| s != UNASSIGNED)
    }
}

impl<P, H, N> ShardedIndex<P, H, N>
where
    H: LshHasher<P>,
{
    /// The query's `L` bucket keys: one batched pass over the shared bank,
    /// valid in every shard.
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
    /// The distinct colliding near points over all shards, sorted by id
    /// (shards are disjoint, so this is a plain concatenation): exactly the
    /// near points colliding with `query` in one unsharded `L`-table index
    /// keyed by [`ShardedIndex::bank`].
    pub fn neighborhood(&self, query: &P) -> Vec<PointId> {
        let mut stats = QueryStats::default();
        let keys = self.query_keys(query);
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.colliding_near_points_with_keys(query, &keys, &mut stats));
        }
        all.sort_unstable();
        all
    }

    /// Prepares a query for (repeated) sampling: hashes it once, probes
    /// every shard's `L` tables once for their bucket entry ranges and
    /// bound `b_i`. Shards are walked and candidates evaluated lazily, as draws
    /// land on them. Every cached quantity is a *deterministic* function of
    /// the index and the query, so drawing many samples from one
    /// [`PreparedQuery`] yields exactly the same output distribution as
    /// calling [`ShardedIndex::sample`] repeatedly, while each shard is
    /// walked and each candidate evaluated at most once.
    pub fn prepare<'a>(&'a self, query: &'a P) -> PreparedQuery<'a, P, H, N> {
        let mut stats = QueryStats::default();
        // One batched all-rows pass over the shared bank; the same keys
        // locate every shard's buckets.
        let keys = self.query_keys(query);
        let l = keys.len();
        let mut buckets = vec![(0, 0); self.shards.len() * l];
        let weights: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                shard.locate_buckets_with_keys(&keys, &mut buckets[i * l..(i + 1) * l])
            })
            .collect();
        stats.buckets_inspected += self.shards.len() * l;
        let total = weights.iter().sum();
        PreparedQuery {
            index: self,
            query,
            buckets,
            weights,
            total,
            walked: self.shards.iter().map(|_| None).collect(),
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
    /// Sectioned container image: a head section (global id → shard
    /// partition map, shared LSH parameters, configuration, shard count),
    /// the hasher bank section, then one section per shard (frozen tables
    /// and points) — encode, per-section checksums and the per-shard
    /// decodes all run on parallel build workers. Bytes are identical at
    /// every thread count.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut head = Encoder::new();
        self.shard_of.encode(&mut head);
        self.params.encode(&mut head);
        self.config.encode(&mut head);
        head.write_u64(self.shards.len() as u64);
        let mut bank = Encoder::new();
        self.bank.encode(&mut bank);
        let mut sections = Vec::with_capacity(self.shards.len() + 2);
        sections.push(head.into_bytes());
        sections.push(bank.into_bytes());
        sections.extend(fairnn_parallel::map_indexed(self.shards.len(), |s| {
            let mut enc = Encoder::new();
            self.shards[s].encode(&mut enc);
            enc.into_bytes()
        }));
        sections
    }

    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        let [head, bank_section, shard_sections @ ..] = sections else {
            return Err(SnapshotError::Corrupt(
                "sharded index snapshot needs a head and a hasher bank section".into(),
            ));
        };
        let mut dec = head.decoder();
        let shard_of = Vec::<u32>::decode(&mut dec)?;
        let params = LshParams::decode(&mut dec)?;
        let config = ShardedIndexConfig::decode(&mut dec)?;
        // Cross-section count: a plain u64 (`read_len` bounds by this
        // section's remaining bytes, which is not the right limit here).
        let num_shards = usize::try_from(dec.read_u64()?)
            .map_err(|_| SnapshotError::Corrupt("shard count does not fit usize".into()))?;
        dec.finish()?;
        if num_shards != shard_sections.len() {
            return Err(SnapshotError::Corrupt(format!(
                "sharded head declares {num_shards} shards, directory holds {} shard sections",
                shard_sections.len()
            )));
        }
        // The bank must fit the stored parameters: exactly `L` tables and
        // `K × L` rows, or a query would index past the shards' tables.
        let mut dec = bank_section.decoder();
        let bank = HasherBank::<H>::decode(&mut dec)?;
        dec.finish()?;
        bank.check_shape(params)?;
        let decoded = fairnn_parallel::map_indexed(shard_sections.len(), |s| {
            let mut dec = shard_sections[s].decoder();
            let shard = Shard::<P, H, N>::decode(&mut dec, bank.clone())?;
            dec.finish()?;
            Ok::<Arc<Shard<P, H, N>>, SnapshotError>(Arc::new(shard))
        });
        let mut shards = Vec::with_capacity(num_shards);
        for shard in decoded {
            shards.push(shard?);
        }
        Self::assemble(bank, shards, shard_of, params, config)
    }
}

impl<P, H, N> ShardedIndex<P, H, N> {
    /// Tail of the sectioned decoder: cross-shard validation and assembly.
    /// (Each shard's table count was checked against the bank, and the
    /// bank against `params`, as they decoded.)
    fn assemble(
        bank: HasherBank<H>,
        shards: Vec<Arc<Shard<P, H, N>>>,
        shard_of: Vec<u32>,
        params: LshParams,
        config: ShardedIndexConfig,
    ) -> Result<Self, SnapshotError> {
        if shards.is_empty() {
            return Err(SnapshotError::Corrupt(
                "sharded index needs at least one shard".into(),
            ));
        }
        if let Some(&bad) = shard_of
            .iter()
            .find(|&&s| s != UNASSIGNED && s as usize >= shards.len())
        {
            return Err(SnapshotError::Corrupt(format!(
                "routing table points at shard {bad} of {}",
                shards.len()
            )));
        }
        Ok(Self {
            bank,
            shards,
            shard_of,
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
    /// Writes the sharded index as a versioned, checksummed snapshot file.
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
    /// `N × L` bucket entry ranges `(start, end)` found at prepare time
    /// (shard-major; empty where a table has no bucket for the query's
    /// key).
    buckets: Vec<(u32, u32)>,
    /// Per-shard proposal weights: the bucket-length bound `b_i` until the
    /// shard is walked, `|D_i|` from then on.
    weights: Vec<usize>,
    /// `W = Σ_i w_i`.
    total: usize,
    /// Per-shard candidates `D_i`, walked on first landing.
    walked: Vec<Option<Candidates>>,
    stats: QueryStats,
}

/// A walked shard's remaining candidates `D_i` (local ids): the points in
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
    /// candidate; a draw takes at most `N + f + 1` rounds for the `f` far
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

    /// One round landing on slot `j` of shard `i` (steps 3–4 of the module
    /// docs): walks the shard on first landing, then returns a verified
    /// point, or evaluates the one unverified candidate in the slot.
    fn land(&mut self, i: usize, j: usize) -> Option<PointId> {
        let shard = &self.index.shards[i];
        let candidates = match &mut self.walked[i] {
            Some(candidates) => candidates,
            slot => {
                let _span = fairnn_obs::span!("shard.sample", shard = i);
                let l = self.index.bank.num_tables();
                let mut ids = Vec::new();
                shard.walk_buckets(&self.buckets[i * l..(i + 1) * l], &mut ids, &mut self.stats);
                // Every round's 1/W per point rests on this (module docs).
                assert!(ids.len() <= self.weights[i], "b_i < |D_i|");
                self.total -= self.weights[i] - ids.len();
                self.weights[i] = ids.len();
                slot.insert(Candidates { ids, verified: 0 })
            }
        };
        if j < candidates.verified {
            return Some(shard.global_id(candidates.ids[j]));
        }
        let &local = candidates.ids.get(j)?;
        if shard.is_near(self.query, local, &mut self.stats) {
            candidates.ids.swap(j, candidates.verified);
            candidates.verified += 1;
            Some(shard.global_id(local))
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
    /// deleted ids. Purely shard-local: the owning shard tombstones the
    /// point and keeps sharing its tables, unless the delete triggers that
    /// shard's compaction. Crate-private: external callers go through the
    /// engine writer's `WriteBatch`, which write-ahead-logs the mutation
    /// and publishes a fresh generation.
    pub(crate) fn delete(&mut self, id: PointId) -> bool {
        let Some(&s) = self.shard_of.get(id.index()) else {
            return false;
        };
        if s == UNASSIGNED {
            return false;
        }
        let deleted = Arc::make_mut(&mut self.shards[s as usize]).delete(id);
        debug_assert!(deleted, "routing table out of sync");
        self.shard_of[id.index()] = UNASSIGNED;
        deleted
    }

    /// Force-compacts every shard that carries tombstones (drops them and
    /// re-densifies local ids), without waiting for
    /// the shard's tombstone-fraction trigger. Crate-private: reachable through
    /// `WriteOp::Compact` on the writer, which runs it on the staging
    /// generation — never on a published one.
    pub(crate) fn compact(&mut self) {
        for shard in &mut self.shards {
            if shard.tombstones() > 0 {
                Arc::make_mut(shard).force_compact();
            }
        }
    }
}

/// A [`ShardedIndex`] whose inserts are staged: each inserted point is
/// routed and stored in its shard, but no shard's tables cover it yet.
///
/// The writer applies batches to a staged index, during a commit and
/// across a whole WAL replay, so a shard's tables take one merge for all
/// the points it received. A staged index answers no query, has no
/// encoding and is never published: it has no query or snapshot method,
/// and the one way back to a [`ShardedIndex`] is
/// [`StagedIndex::merged`], which brings every shard's tables up to date.
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

    /// Stages a new point in the shard that is least loaded, staged points
    /// included (ties broken toward the lowest shard index, so routing is
    /// deterministic), and returns its freshly assigned global id. Only
    /// the receiving shard is copied; the others stay shared with the
    /// previous generation.
    pub(crate) fn insert(&mut self, point: P) -> PointId {
        let index = &mut self.index;
        let id = PointId::from_index(index.shard_of.len());
        let target = (0..index.shards.len())
            .min_by_key(|&s| index.shards[s].live_points())
            .expect("at least one shard");
        index.shard_of.push(target as u32);
        Arc::make_mut(&mut index.shards[target]).insert(id, point);
        id
    }

    /// [`ShardedIndex::delete`]; a compaction it triggers merges the
    /// shard's staged points first.
    pub(crate) fn delete(&mut self, id: PointId) -> bool {
        self.index.delete(id)
    }

    /// [`ShardedIndex::compact`]; each compacted shard merges its staged
    /// points first.
    pub(crate) fn compact(&mut self) {
        self.index.compact();
    }

    /// The index with every shard's staged points merged into its tables:
    /// one linear merge per table of each shard that holds staged points.
    /// The other shards stay shared.
    pub(crate) fn merged(mut self) -> ShardedIndex<P, H, N> {
        for shard in &mut self.index.shards {
            if shard.staged_points() > 0 {
                Arc::make_mut(shard).merge_staged();
            }
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
    use fairnn_core::{ExactSampler, SimilarityAtLeast};
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

    type Index = ShardedIndex<
        SparseSet,
        ConcatenatedHasher<fairnn_lsh::MinHasher>,
        SimilarityAtLeast<Jaccard>,
    >;

    fn build(shards: usize, seed: u64) -> (Dataset<SparseSet>, Index) {
        let data = clustered_dataset();
        let params = ParamsBuilder::new(data.len(), 0.5, 0.05).empirical(&MinHash);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let index = ShardedIndex::build(
            &MinHash,
            params,
            &data,
            near,
            ShardedIndexConfig::with_shards(shards).seeded(seed),
        );
        (data, index)
    }

    #[test]
    fn shards_partition_the_dataset() {
        let (data, index) = build(4, 1);
        assert_eq!(index.num_shards(), 4);
        assert_eq!(index.len(), data.len());
        assert!(!index.is_empty());
        for id in data.ids() {
            assert!(index.contains(id));
            assert_eq!(
                index.shards().iter().filter(|s| s.contains(id)).count(),
                1,
                "{id} owned by != 1 shard"
            );
        }
    }

    #[test]
    fn neighborhood_matches_exact_ground_truth() {
        let (data, index) = build(4, 2);
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
        let (data, index) = build(3, 3);
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
        // The r-NNIS property of the two-level sampler: one build, repeated
        // queries, empirical distribution uniform over the 10-member cluster.
        let (data, index) = build(4, 4);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(0)).clone();
        let neighborhood = exact.neighborhood(&query);
        assert_eq!(neighborhood.len(), 10);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 12_000;
        let mut counts = vec![0usize; data.len()];
        for _ in 0..trials {
            let (id, _) = index.sample(&query, &mut rng);
            counts[id.expect("non-empty").index()] += 1;
        }
        for &id in &neighborhood {
            let rate = counts[id.index()] as f64 / trials as f64;
            assert!(
                (rate - 0.1).abs() < 0.02,
                "member {id} sampled at rate {rate}, expected ~0.1"
            );
        }
    }

    #[test]
    fn prepared_query_draws_match_the_one_shot_distribution() {
        // prepare() caches only deterministic per-query state, so bulk draws
        // from one cursor must be distributed like independent sample()
        // calls: uniform over the neighborhood.
        let (data, index) = build(4, 5);
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
    fn insert_routes_to_least_loaded_shard_and_is_sampleable() {
        let (data, index) = build(4, 8);
        let query = data.point(PointId(0)).clone();
        let mut items: Vec<u32> = (0..25).collect();
        items.push(100); // joins the cluster of query 0
        items.push(777);
        let mut staged = StagedIndex::new(index);
        let ids = vec![staged.insert(SparseSet::from_items(items))];
        let index = staged.merged();
        assert_eq!(ids, vec![PointId::from_index(data.len())]);
        let id = ids[0];
        assert!(index.contains(id));
        assert_eq!(index.len(), data.len() + 1);
        assert!(
            index.neighborhood(&query).contains(&id),
            "inserted near point must join the neighborhood"
        );
        let mut rng = StdRng::seed_from_u64(9);
        let seen_inserted = (0..2000).any(|_| index.sample(&query, &mut rng).0 == Some(id));
        assert!(seen_inserted, "inserted point never sampled");
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
        use fairnn_snapshot::{to_bytes, SnapshotKind};
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

        let (data, index) = build(4, 16);
        let query = data.point(PointId(0)).clone();
        let before = to_bytes(SnapshotKind::ShardedIndex, &index);
        let twin = |j: u32| {
            let mut items: Vec<u32> = (0..25).collect();
            items.push(100);
            items.push(900 + j);
            SparseSet::from_items(items)
        };
        let mut staged = StagedIndex::new(index.clone());
        let ids: Vec<PointId> = (0..6).map(|j| staged.insert(twin(j))).collect();
        assert!(ids.iter().all(|&id| staged.contains(id)));
        // Staged: the shards hold the points, their tables do not.
        let shards = &staged.index.shards;
        assert_eq!(shards.iter().map(|s| s.staged_points()).sum::<usize>(), 6);
        // Copy-on-write: the index the staging started from is untouched.
        assert_eq!(to_bytes(SnapshotKind::ShardedIndex, &index), before);

        let merged = staged.merged();
        assert!(merged.shards().iter().all(|s| s.staged_points() == 0));
        let neighborhood = merged.neighborhood(&query);
        assert!(ids.iter().all(|id| neighborhood.contains(id)));
        // One merge over all six points builds the bytes of one merge per
        // point.
        let mut one_by_one = index;
        for j in 0..6 {
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
        let (data, mut index) = build(4, 10);
        let query = data.point(PointId(0)).clone();
        let members = index.neighborhood(&query);
        assert_eq!(members.len(), 10);
        for &id in &members {
            assert!(index.delete(id));
            assert!(!index.contains(id));
            assert!(!index.delete(id), "double delete must fail");
        }
        assert_eq!(index.len(), data.len() - members.len());
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(index.sample(&query, &mut rng).0, None);
        assert!(index.neighborhood(&query).is_empty());
    }

    #[test]
    fn sharded_sampler_implements_the_core_traits() {
        use fairnn_core::FairSampler;
        let (data, index) = build(2, 12);
        let mut sampler = ShardedSampler::new(index);
        assert_eq!(sampler.name(), "sharded-engine");
        let query = data.point(PointId(1)).clone();
        let mut rng = StdRng::seed_from_u64(13);
        assert!(sampler.sample(&query, &mut rng).is_some());
        assert!(sampler.last_query_stats().rounds >= 1);
        assert_eq!(sampler.index().num_shards(), 2);
        // Through the object-safe trait as well.
        let boxed: &mut dyn FairSampler<SparseSet> = &mut sampler;
        assert!(boxed.sample_dyn(&query, &mut rng).is_some());
        assert_eq!(boxed.sampler_name(), "sharded-engine");
    }

    #[test]
    fn one_shard_degenerates_gracefully() {
        let (data, index) = build(1, 14);
        let near = SimilarityAtLeast::new(Jaccard, 0.5);
        let exact = ExactSampler::new(&data, near);
        let query = data.point(PointId(5)).clone();
        assert_eq!(index.neighborhood(&query), exact.neighborhood(&query));
        let mut rng = StdRng::seed_from_u64(15);
        assert!(index.sample(&query, &mut rng).0.is_some());
    }
}
