//! One part of the index: a set of points with its own `L` LSH tables.
//!
//! A [`ShardedIndex`](crate::ShardedIndex) holds two parts, both of this
//! type: the **base**, built over every point at bootstrap, and the
//! **delta**, over the points inserted since the last fold. Both are keyed
//! by the index-wide [`HasherBank`] (one bank, shared through an `Arc`, so
//! a query is hashed once and its keys are looked up in each part). The
//! sampler in `sharded.rs` asks a part three things about a query's `L`
//! keys, each a separate step so that no step repeats another's work:
//!
//! - [`Shard::locate_buckets_with_keys`] probes each table once, keeps each
//!   bucket's entry range `(start, end)` (empty for a key with no bucket),
//!   and returns the bucket-length bound `b_i = Σ_t (end − start)` without
//!   walking an entry;
//! - [`Shard::walk_buckets`] reads those entry ranges and lists the
//!   distinct live colliding points `D_i`, evaluating no predicate, so
//!   `b_i ≥ |D_i|` always;
//! - `Shard::is_near` evaluates one candidate with the exact predicate.
//!
//! The colliding near set `A_i ⊆ D_i` is the walk filtered by the
//! predicate ([`Shard::colliding_near_points_with_keys`]).
//!
//! Probe and walk are software-pipelined over the `L` tables (see
//! `PIPELINE_DISTANCE`): each table's lookup is a chain of dependent
//! cache misses (directory cell, then key and offsets, then entries), and prefetching
//! a few tables ahead overlaps those chains. The prefetches are hints
//! only; the walk order, `D_i` and every counter are those of a plain
//! per-table walk.
//!
//! Updates never touch a table in place, and the tables know a point only
//! by its local id. The global ids ascend with the local ids, so a binary
//! search finds a global id's local id (`Shard::local_id`). A delete
//! only tombstones the point: it stays in its buckets, where the walk
//! skips it, and `b_i` keeps counting it (still an upper bound). An insert
//! only stages its point: it joins the point arrays, but not the tables.
//! Every table update is one [`LshTables::updated`] pass per table, the
//! one update kernel. `Shard::merge_staged` hashes every staged point and
//! appends it, however many points (and commits) were staged. Once
//! tombstones exceed half the live points the part asks for a compaction
//! (`Shard::needs_compaction`); the index decides when it runs.
//! `Shard::compacted` builds the next part from the live points of this
//! one and, in a fold, of a tail part (the delta after the base): each live
//! point is cloned once. The pass keeps this part's surviving entries under
//! their new ids and appends the tail's live entries, read from the tail's
//! tables, plus the staged points of either part, hashed once there. No
//! point a table already holds is hashed again. The tables and the points
//! sit behind `Arc`s, so a part copied for the next generation shares both
//! until a merge, a compaction or a fold replaces them: a delete copies
//! only the global ids and the alive flags.

use fairnn_core::predicate::Nearness;
use fairnn_core::QueryStats;
use fairnn_lsh::{HasherBank, LshHasher, LshTable, LshTables, QueryScratch};
use fairnn_sketch::{BottomKSketch, CardinalityEstimator};
use fairnn_snapshot::{Codec, Encoder, Section, SnapshotError};
use fairnn_space::PointId;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Per-worker-thread query scratch. Part query methods take `&self`
    /// (they run on shared generations from many threads), so the reusable
    /// epoch-stamped visited set lives in thread-local storage rather than
    /// in the part.
    static SHARD_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// `k` of the KMV sketch [`Shard::empty_sketch`] hands out (exact below
/// `k` distinct ids, ~`1/√k` relative error above).
const SKETCH_K: usize = 64;

/// Seed of that sketch. A constant, so the accumulator of any part merges
/// the folds of every other.
const SKETCH_SEED: u64 = 0x5EED_5CE7;

/// Pipeline distance `D` of the bucket probe and walk, in tables: the
/// probe prefetches a table's directory cell `2D` tables before it resolves the
/// table and its bucket's key and offsets `D` tables before, and the walk
/// prefetches a bucket's first entries `D` tables before it walks them.
pub(crate) const PIPELINE_DISTANCE: usize = 8;

/// A part asks for a compaction when its tombstones exceed this fraction
/// of its live point count.
const REBUILD_FRACTION: f64 = 0.5;

/// Tables per image section of a part. A fixed range, never a function of
/// the thread count, so the image bytes are the same on every machine,
/// while the encode, checksum and decode of a large part still spread
/// over the build workers and no one section holds a whole part.
const TABLES_PER_SECTION: usize = 16;

/// A part of the index (the base or the delta). Local point ids are dense
/// `0..points.len()` (with tombstoned holes between compactions), and their
/// global ids ascend with them.
#[derive(Debug, Clone)]
pub struct Shard<P, H, N> {
    /// The index-wide hasher bank (a shared handle, never serialized with
    /// the part).
    bank: HasherBank<H>,
    /// The part's tables, shared with every generation that has not
    /// merged into or compacted this part since.
    tables: Arc<LshTables>,
    /// The points by local id, shared like the tables.
    points: Arc<Vec<P>>,
    /// The global id of each local id, strictly ascending.
    global_ids: Vec<PointId>,
    alive: Vec<bool>,
    live: usize,
    tombstones: usize,
    near: N,
}

impl<P: Sync, H, N> Shard<P, H, N>
where
    H: LshHasher<P> + Sync,
{
    /// Builds a part over `points` with their strictly ascending global
    /// ids, keying its tables by the index-wide `bank`. Hashing and the
    /// table build run on the build workers.
    pub fn build(bank: HasherBank<H>, points: Vec<P>, global_ids: Vec<PointId>, near: N) -> Self {
        assert_eq!(points.len(), global_ids.len());
        assert!(
            global_ids.windows(2).all(|w| w[0] < w[1]),
            "global ids must ascend"
        );
        let keys = bank.all_point_keys(&points);
        let tables = Arc::new(LshTables::build(&keys, bank.num_tables(), points.len()));
        let shard = Self {
            bank,
            tables,
            alive: vec![true; points.len()],
            live: points.len(),
            tombstones: 0,
            near,
            points: Arc::new(points),
            global_ids,
        };
        shard.debug_assert_occupancy_invariants();
        shard
    }
}

impl<P, H, N> Shard<P, H, N> {
    /// Number of live points.
    pub fn live_points(&self) -> usize {
        self.live
    }

    /// Debug-only check of the occupancy invariants every mutation must
    /// preserve: the parallel point arrays agree in length, the global ids
    /// ascend, and `live` and `tombstones` partition the point array.
    /// Compiled away in release builds; `build`, `insert`, `delete`,
    /// `compact` and the snapshot decoder all end with this check so a
    /// broken invariant fails at the mutation site rather than at some
    /// later query.
    fn debug_assert_occupancy_invariants(&self) {
        if cfg!(debug_assertions) {
            debug_assert_eq!(self.global_ids.len(), self.points.len());
            debug_assert_eq!(self.alive.len(), self.points.len());
            debug_assert!(
                self.tables.num_points() <= self.points.len(),
                "the tables cover ids past the point array"
            );
            debug_assert_eq!(
                self.live + self.tombstones,
                self.points.len(),
                "live + tombstones must partition the point array"
            );
            debug_assert_eq!(self.live, self.alive.iter().filter(|&&a| a).count());
            debug_assert!(
                self.global_ids.windows(2).all(|w| w[0] < w[1]),
                "global ids must ascend"
            );
        }
    }

    /// Number of tombstoned points awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Number of LSH tables.
    pub fn num_tables(&self) -> usize {
        self.tables.num_tables()
    }

    /// Whether this part holds the (live) point with the given global id.
    pub fn contains(&self, global: PointId) -> bool {
        self.local_id(global).is_some()
    }

    /// The local id of the live point with the given global id, found by
    /// binary search over the ascending global ids; `None` when the part
    /// does not hold it or it is tombstoned.
    pub(crate) fn local_id(&self, global: PointId) -> Option<u32> {
        let local = self.global_ids.binary_search(&global).ok()?;
        self.alive[local].then_some(local as u32)
    }

    /// The global ids of the local ids, tombstoned ones included.
    pub(crate) fn global_ids(&self) -> &[PointId] {
        &self.global_ids
    }

    /// An empty KMV sketch for [`Shard::merge_colliding_with_keys`]. Every
    /// part hands out the same seed and `k`, so one accumulator folds any
    /// number of parts.
    pub fn empty_sketch(&self) -> BottomKSketch {
        BottomKSketch::new(SKETCH_SEED, SKETCH_K)
    }

    /// The part's tables (pointer-compare two generations' parts with
    /// [`Arc::ptr_eq`] to see whether a commit rebuilt them).
    #[cfg(test)]
    pub(crate) fn tables(&self) -> &Arc<LshTables> {
        &self.tables
    }

    /// The part's points (pointer-compare like [`Shard::tables`]).
    #[cfg(test)]
    pub(crate) fn points(&self) -> &Arc<Vec<P>> {
        &self.points
    }
}

impl<P, H, N: Clone> Shard<P, H, N> {
    /// A part with no points, keyed by the same bank and deciding nearness
    /// by the same predicate: the delta of a fresh build or of a fold.
    pub(crate) fn emptied(&self) -> Self {
        let tables = LshTables::build(&[], self.bank.num_tables(), 0);
        self.refilled(tables, Vec::new(), Vec::new())
    }

    /// A part over `points`, all live, under `tables` and `global_ids`,
    /// keyed by the same bank and deciding nearness by the same predicate.
    fn refilled(&self, tables: LshTables, points: Vec<P>, global_ids: Vec<PointId>) -> Self {
        let part = Self {
            bank: self.bank.clone(),
            tables: Arc::new(tables),
            alive: vec![true; points.len()],
            live: points.len(),
            tombstones: 0,
            near: self.near.clone(),
            points: Arc::new(points),
            global_ids,
        };
        part.debug_assert_occupancy_invariants();
        part
    }
}

impl<P, H, N> Shard<P, H, N>
where
    H: LshHasher<P>,
{
    /// Writes the query's per-table bucket keys into `keys` — one batched
    /// `hash_all` pass over all `K × L` rows of the bank. Both parts of an
    /// index hold the same bank, so these keys serve both: the index
    /// hashes each query once and hands the keys to the bucket lookups of
    /// each part.
    pub fn query_keys_into(&self, query: &P, keys: &mut Vec<u64>) {
        self.bank.query_keys_into(query, keys);
    }
}
impl<P, H, N> Shard<P, H, N> {
    /// Resolves the query's per-table `keys` to this part's bucket entry
    /// ranges, one `(start, end)` per table (the empty range when the
    /// table has no bucket for its key), and returns the bucket-length
    /// bound `b_i = Σ_t (end − start)`: the sum of the bucket lengths,
    /// read from the bucket offsets without walking an entry. It counts a
    /// point once per table it collides in, so it is never below the
    /// number of distinct colliding points — the sampler's proposal weight
    /// for a part it has not walked yet. [`Shard::walk_buckets`] then
    /// reads the same ranges without probing again.
    ///
    /// The probe is software-pipelined over the tables: table `t + 2D`
    /// has its directory cell prefetched, table `t + D` has that cell read
    /// and the cell's first key and offset prefetched, and table `t` is
    /// resolved (`D` is `PIPELINE_DISTANCE`). The `L` chains of dependent misses
    /// overlap instead of running one after another.
    pub fn locate_buckets_with_keys(&self, keys: &[u64], ranges: &mut [(u32, u32)]) -> usize {
        assert_eq!(ranges.len(), keys.len(), "one entry range per key");
        let l = keys.len();
        let tables = &self.tables.tables()[..l];
        let mut bound = 0;
        for ahead in 0..l + 2 * PIPELINE_DISTANCE {
            if ahead < l {
                tables[ahead].prefetch(keys[ahead]);
            }
            if let Some(t) = ahead.checked_sub(PIPELINE_DISTANCE).filter(|&t| t < l) {
                tables[t].prefetch_probe(keys[t]);
            }
            if let Some(t) = ahead.checked_sub(2 * PIPELINE_DISTANCE) {
                let (start, end) = tables[t].entry_range(keys[t]);
                ranges[t] = (start, end);
                bound += (end - start) as usize;
            }
        }
        bound
    }

    /// Appends to `out` the distinct live local ids in the given entry
    /// ranges (one per table, from [`Shard::locate_buckets_with_keys`]),
    /// in walk order: the part's colliding candidates `D_i`. Evaluates no
    /// predicate. Counts one inspected bucket per table and one scanned
    /// entry per bucket entry. Deduplication uses the thread-local
    /// epoch-stamped visited buffer. The entries of the range
    /// `PIPELINE_DISTANCE` tables ahead are prefetched while the current
    /// one is walked.
    pub fn walk_buckets(&self, ranges: &[(u32, u32)], out: &mut Vec<u32>, stats: &mut QueryStats) {
        let tables = self.tables.tables();
        let prefetch_entries = |t: usize| {
            if let (Some(&(start, end)), Some(table)) = (ranges.get(t), tables.get(t)) {
                if start < end {
                    fairnn_snapshot::prefetch_read(table.entries(), start as usize);
                }
            }
        };
        (0..PIPELINE_DISTANCE).for_each(&prefetch_entries);
        SHARD_SCRATCH.with(|cell| {
            let visited = &mut cell.borrow_mut().visited;
            visited.reset(self.points.len());
            for (t, (&(start, end), table)) in ranges.iter().zip(tables).enumerate() {
                prefetch_entries(t + PIPELINE_DISTANCE);
                stats.buckets_inspected += 1;
                for &lid in &table.entries()[start as usize..end as usize] {
                    stats.entries_scanned += 1;
                    let l = lid.index();
                    if self.alive[l] && visited.insert(l) {
                        out.push(l as u32);
                    }
                }
            }
        })
    }

    /// The global id of local point `local`.
    pub(crate) fn global_id(&self, local: u32) -> PointId {
        self.global_ids[local as usize]
    }

    /// Folds every live entry of the buckets with the given per-table keys
    /// into `acc` (start from [`Shard::empty_sketch`]): a KMV estimate of the
    /// distinct colliding points. Off the sampling path — the sampler
    /// proposes parts by [`Shard::locate_buckets_with_keys`] — and kept
    /// for tools that want the count-distinct estimate.
    pub fn merge_colliding_with_keys(
        &self,
        keys: &[u64],
        acc: &mut BottomKSketch,
        stats: &mut QueryStats,
    ) {
        for (&key, table) in keys.iter().zip(self.tables.tables()) {
            stats.buckets_inspected += 1;
            for &lid in table.bucket(key) {
                if self.alive[lid.index()] {
                    acc.insert(self.global_ids[lid.index()].0 as u64);
                }
            }
        }
    }
}

impl<P, H, N> Shard<P, H, N>
where
    N: Nearness<P>,
{
    /// Whether local point `local` is near `query` under the exact
    /// predicate. Counts one distance computation.
    pub(crate) fn is_near(&self, query: &P, local: u32, stats: &mut QueryStats) -> bool {
        stats.distance_computations += 1;
        self.near.is_near(query, &self.points[local as usize])
    }

    /// The distinct live near points of this part colliding with `query`
    /// in the buckets of the given per-table keys, as global ids (the set
    /// `A_i`): [`Shard::walk_buckets`] filtered by the predicate, one
    /// counted evaluation per candidate.
    pub fn colliding_near_points_with_keys(
        &self,
        query: &P,
        keys: &[u64],
        stats: &mut QueryStats,
    ) -> Vec<PointId> {
        let mut ranges = vec![(0, 0); keys.len()];
        self.locate_buckets_with_keys(keys, &mut ranges);
        let mut candidates = Vec::new();
        self.walk_buckets(&ranges, &mut candidates, stats);
        candidates
            .into_iter()
            .filter(|&l| self.is_near(query, l, stats))
            .map(|l| self.global_id(l))
            .collect()
    }
}

impl<P: Clone, H, N> Shard<P, H, N>
where
    H: LshHasher<P>,
{
    /// Stages a new point under a global id above every id the part has
    /// held: it is appended to the part's points, global ids and alive
    /// flags and counts as live, but no table covers it until
    /// [`Shard::merge_staged`]. Crate-private: mutations enter through the
    /// engine writer's `WriteBatch`, which merges before anything reads the
    /// part.
    pub(crate) fn insert(&mut self, global: PointId, point: P) {
        assert!(
            self.global_ids.last().is_none_or(|&last| global > last),
            "global id {global} already present in the part, or below its last id"
        );
        Arc::make_mut(&mut self.points).push(point);
        self.global_ids.push(global);
        self.alive.push(true);
        self.live += 1;
        self.debug_assert_occupancy_invariants();
    }

    /// Number of staged points: those past the last id the tables cover.
    pub(crate) fn staged_points(&self) -> usize {
        self.points.len() - self.tables.num_points()
    }

    /// Hashes the staged points and builds the part's next tables from
    /// the current ones with them appended: one [`LshTables::updated`]
    /// pass per table, however many points were staged. The result is the
    /// table a merge per staged batch would have built, since a bucket
    /// lists its ids in ascending order either way. A no-op with nothing
    /// staged.
    pub(crate) fn merge_staged(&mut self) {
        let first = self.tables.num_points();
        if first < self.points.len() {
            let keys: Vec<u64> = self.points[first..]
                .iter()
                .flat_map(|point| self.bank.point_keys(point))
                .collect();
            let l = self.bank.num_tables();
            let ids = move || (first..).map(PointId::from_index);
            self.tables = Arc::new(self.tables.updated(
                None,
                |t, out| out.extend(LshTables::point_entries(&keys, l, t, ids())),
                self.points.len(),
            ));
        }
    }

    /// Tombstones the live point with local id `local`; its bucket entries
    /// stay until the next compaction, which [`Shard::needs_compaction`]
    /// asks for. Crate-private like [`Shard::insert`].
    pub(crate) fn delete(&mut self, local: u32) {
        let alive = &mut self.alive[local as usize];
        assert!(*alive, "local id {local} is not live");
        *alive = false;
        self.live -= 1;
        self.tombstones += 1;
        self.debug_assert_occupancy_invariants();
    }

    /// Whether the tombstones exceed [`REBUILD_FRACTION`] of the live
    /// points.
    pub(crate) fn needs_compaction(&self) -> bool {
        self.tombstones as f64 > REBUILD_FRACTION * self.live.max(1) as f64
    }

    /// The part holding this part's live points and then `tail`'s (a
    /// later part: its global ids are above every id of this one), under
    /// dense local ids in that order and with no tombstone. Each live point
    /// is cloned once. The tables come from one [`LshTables::updated`]
    /// pass per table of this part: it keeps the surviving entries under
    /// their new ids (as they are when nothing is tombstoned) and appends
    /// the tail's live entries, read from the tail's tables, and the live
    /// staged points of both parts, the only points hashed. The result is
    /// bit-identical to a fresh build over the live points in their new
    /// order.
    ///
    /// Without a tail this compacts the part; with the delta as the tail
    /// of the base it is the index's fold.
    pub(crate) fn compacted(&self, tail: Option<&Self>) -> Self
    where
        N: Clone,
    {
        let mut points = Vec::with_capacity(self.live + tail.map_or(0, |tail| tail.live));
        let mut global_ids = Vec::with_capacity(points.capacity());
        let (mut staged_keys, mut staged_ids) = (Vec::new(), Vec::new());
        let mut take_live = |part: &Self| {
            let mut new_id_of = vec![u32::MAX; part.points.len()];
            for (local, point) in part.points.iter().enumerate() {
                if part.alive[local] {
                    new_id_of[local] = points.len() as u32;
                    if local >= part.tables.num_points() {
                        // Staged: no table holds it, so it is hashed here.
                        staged_keys.extend(self.bank.point_keys(point));
                        staged_ids.push(PointId(new_id_of[local]));
                    }
                    points.push(point.clone());
                    global_ids.push(part.global_ids[local]);
                }
            }
            new_id_of
        };
        let new_id_of = take_live(self);
        let tail = tail.map(|tail| (&*tail.tables, take_live(tail)));
        let l = self.bank.num_tables();
        let appends = |t: usize, out: &mut Vec<(u64, PointId)>| {
            if let Some((tables, ids)) = &tail {
                for (key, bucket) in tables.table(t).buckets() {
                    let new_ids = bucket.iter().map(|lid| ids[lid.index()]);
                    let live = new_ids.filter(|&id| id != u32::MAX);
                    out.extend(live.map(|id| (key, PointId(id))));
                }
            }
            let staged = staged_ids.iter().copied();
            out.extend(LshTables::point_entries(&staged_keys, l, t, staged));
        };
        let remap = (self.tombstones > 0).then_some(&new_id_of[..]);
        let tables = self.tables.updated(remap, appends, points.len());
        self.refilled(tables, points, global_ids)
    }
}

/// Number of image sections a part with `num_tables` tables encodes to:
/// one for its points, then one per range of [`TABLES_PER_SECTION`]
/// tables.
pub(crate) fn section_count(num_tables: usize) -> usize {
    1 + num_tables.div_ceil(TABLES_PER_SECTION)
}

impl<P, H, N> Shard<P, H, N>
where
    P: Codec,
    N: Codec,
{
    /// Section `i` of the part's image ([`section_count`] of them).
    /// Section 0 holds the points with their global ids and alive flags,
    /// the predicate and the tables' point count; section `1 + j` holds
    /// the tables of range `j`. The hasher bank is the index's, written
    /// once in its own section; the live and tombstone counts are derived,
    /// rebuilt on load.
    pub(crate) fn encode_section(&self, i: usize) -> Vec<u8> {
        let mut enc = Encoder::new();
        if let Some(range) = i.checked_sub(1) {
            let tables = self.tables.tables();
            let start = range * TABLES_PER_SECTION;
            let end = tables.len().min(start + TABLES_PER_SECTION);
            enc.write_len(end - start);
            for table in &tables[start..end] {
                table.encode(&mut enc);
            }
        } else {
            self.points.encode(&mut enc);
            self.global_ids.encode(&mut enc);
            self.alive.encode(&mut enc);
            self.near.encode(&mut enc);
            enc.write_u64(self.tables.num_points() as u64);
        }
        enc.into_bytes()
    }

    /// Restores a part from its [`section_count`] sections, keyed by the
    /// index's already-decoded `bank`; the table ranges decode on the
    /// build workers. Fails with `Corrupt` when a range holds other than
    /// its share of the bank's `L` tables, which would otherwise index
    /// past the tables at query time, or when the arrays disagree or the
    /// global ids do not ascend.
    pub(crate) fn decode_sections(
        sections: &[Section<'_>],
        bank: HasherBank<H>,
    ) -> Result<Self, SnapshotError> {
        let l = bank.num_tables();
        let [head, ranges @ ..] = sections else {
            return Err(SnapshotError::Corrupt("a part has no sections".into()));
        };
        if sections.len() != section_count(l) {
            return Err(SnapshotError::Corrupt(format!(
                "a part over {l} tables needs {} sections, found {}",
                section_count(l),
                sections.len()
            )));
        }
        let decoded = fairnn_parallel::map_indexed(ranges.len(), |range| {
            let mut dec = ranges[range].decoder();
            let tables = Vec::<LshTable>::decode(&mut dec)?;
            dec.finish()?;
            let share = l.min((range + 1) * TABLES_PER_SECTION) - range * TABLES_PER_SECTION;
            if tables.len() != share {
                return Err(SnapshotError::Corrupt(format!(
                    "table range {range} holds {} tables, the hasher bank keys {share} there",
                    tables.len()
                )));
            }
            Ok(tables)
        });
        let mut tables = Vec::with_capacity(l);
        for range in decoded {
            tables.extend(range?);
        }
        let mut dec = head.decoder();
        let points = Vec::<P>::decode(&mut dec)?;
        let global_ids = Vec::<PointId>::decode(&mut dec)?;
        let alive = Vec::<bool>::decode(&mut dec)?;
        let near = N::decode(&mut dec)?;
        let num_points = usize::decode(&mut dec)?;
        dec.finish()?;
        if points.len() != global_ids.len() || points.len() != alive.len() {
            return Err(SnapshotError::Corrupt(format!(
                "part arrays disagree: {} points, {} global ids, {} alive flags",
                points.len(),
                global_ids.len(),
                alive.len()
            )));
        }
        if num_points != points.len() {
            return Err(SnapshotError::Corrupt(format!(
                "part tables cover {num_points} local ids for {} stored points",
                points.len()
            )));
        }
        if !global_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt(
                "part global ids do not ascend".into(),
            ));
        }
        let live = alive.iter().filter(|&&a| a).count();
        let shard = Self {
            bank,
            tables: Arc::new(LshTables::from_tables(tables, num_points)?),
            tombstones: points.len() - live,
            live,
            points: Arc::new(points),
            global_ids,
            alive,
            near,
        };
        shard.debug_assert_occupancy_invariants();
        Ok(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairnn_core::SimilarityAtLeast;
    use fairnn_lsh::{ConcatenatedHasher, MinHash, ParamsBuilder};
    use fairnn_space::{Dataset, Jaccard, SparseSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tight cluster of `cluster` near-duplicates of `sets[0]`, then 8
    /// mutually far singletons.
    fn clustered_sets_of(cluster: u32) -> Vec<SparseSet> {
        let mut sets = Vec::new();
        for j in 0..cluster {
            let mut items: Vec<u32> = (0..24).collect();
            items.push(100 + j);
            sets.push(SparseSet::from_items(items));
        }
        for j in 0..8u32 {
            sets.push(SparseSet::from_items(
                (1000 + j * 40..1000 + j * 40 + 15).collect(),
            ));
        }
        sets
    }

    fn clustered_sets() -> Vec<SparseSet> {
        clustered_sets_of(8)
    }

    type TestShard =
        Shard<SparseSet, ConcatenatedHasher<fairnn_lsh::MinHasher>, SimilarityAtLeast<Jaccard>>;

    fn build_shard(sets: Vec<SparseSet>, first_global: u32) -> TestShard {
        let params = ParamsBuilder::new(16, 0.5, 0.05).empirical(&MinHash);
        let globals: Vec<PointId> = (0..sets.len() as u32)
            .map(|i| PointId(first_global + i))
            .collect();
        let bank = HasherBank::sample(&MinHash, params, &mut StdRng::seed_from_u64(3));
        Shard::build(bank, sets, globals, SimilarityAtLeast::new(Jaccard, 0.5))
    }

    fn keys(shard: &TestShard, query: &SparseSet) -> Vec<u64> {
        let mut keys = Vec::new();
        shard.query_keys_into(query, &mut keys);
        keys
    }

    /// The query's bucket entry ranges in `shard` and their bound `b`.
    fn located(shard: &TestShard, query: &SparseSet) -> (Vec<(u32, u32)>, usize) {
        let keys = keys(shard, query);
        let mut ranges = vec![(0, 0); keys.len()];
        let bound = shard.locate_buckets_with_keys(&keys, &mut ranges);
        (ranges, bound)
    }

    fn bound(shard: &TestShard, query: &SparseSet) -> usize {
        located(shard, query).1
    }

    fn colliding_near(
        shard: &TestShard,
        query: &SparseSet,
        stats: &mut QueryStats,
    ) -> Vec<PointId> {
        shard.colliding_near_points_with_keys(query, &keys(shard, query), stats)
    }

    /// Deletes the point with global id `global` as the index does:
    /// tombstones it and compacts once the part asks for it. Returns
    /// `false` when the part does not hold it.
    fn delete(shard: &mut TestShard, global: PointId) -> bool {
        let Some(local) = shard.local_id(global) else {
            return false;
        };
        shard.delete(local);
        if shard.needs_compaction() {
            *shard = shard.compacted(None);
        }
        true
    }

    fn estimate(shard: &TestShard, query: &SparseSet, stats: &mut QueryStats) -> f64 {
        let mut acc = shard.empty_sketch();
        shard.merge_colliding_with_keys(&keys(shard, query), &mut acc, stats);
        acc.estimate()
    }

    #[test]
    fn near_points_are_reported_with_global_ids() {
        let sets = clustered_sets();
        let shard = build_shard(sets.clone(), 1000);
        let mut stats = QueryStats::default();
        let near = colliding_near(&shard, &sets[0], &mut stats);
        assert!(near.len() >= 7, "cluster members missing: {near:?}");
        for id in &near {
            assert!((1000..1016).contains(&id.0), "non-global id {id}");
        }
        assert!(stats.distance_computations > 0);
    }

    #[test]
    fn bucket_bound_covers_the_colliding_near_set() {
        // b_i ≥ |D_i| ≥ |A_i| for every query, with |D_i| counted exactly
        // by the walk: on the built part, after inserts and deletes
        // (tombstoned ids still in their buckets) and after a compaction.
        let sets = clustered_sets_of(40);
        let mut queries = sets.clone();
        let isolated = SparseSet::from_items(vec![88_000, 88_001]);
        queries.push(isolated.clone());
        let check = |shard: &TestShard, label: &str| {
            for (qi, query) in queries.iter().enumerate() {
                let (ranges, bound) = located(shard, query);
                let mut stats = QueryStats::default();
                let mut walked = Vec::new();
                shard.walk_buckets(&ranges, &mut walked, &mut stats);
                assert_eq!(stats.entries_scanned, bound, "{label}, query {qi}");
                assert_eq!(stats.distance_computations, 0, "the walk evaluated");
                let colliding: Vec<PointId> = walked.iter().map(|&l| shard.global_id(l)).collect();
                let mut distinct = colliding.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), colliding.len(), "{label}: walk repeats");
                assert!(colliding.iter().all(|&id| shard.contains(id)));
                let near = colliding_near(shard, query, &mut stats);
                assert!(near.iter().all(|id| colliding.contains(id)));
                assert!(
                    bound >= colliding.len() && colliding.len() >= near.len(),
                    "{label}, query {qi}: b {bound}, |D| {}, |A| {}",
                    colliding.len(),
                    near.len()
                );
            }
        };
        let mut shard = build_shard(sets, 0);
        check(&shard, "built");
        assert_eq!(
            bound(&shard, &isolated),
            0,
            "a query that collides with nothing has bound 0"
        );
        let twins = (0..3u32).map(|j| {
            let mut items: Vec<u32> = (0..24).collect();
            items.push(700 + j);
            (PointId(90 + j), SparseSet::from_items(items))
        });
        for (global, point) in twins {
            shard.insert(global, point);
        }
        shard.merge_staged();
        for j in [1u32, 2, 5, 41] {
            assert!(delete(&mut shard, PointId(j)));
        }
        assert_eq!(shard.tombstones(), 4);
        check(&shard, "after churn");
        shard = shard.compacted(None);
        check(&shard, "after compaction");
    }

    /// The plain per-table walk the pipelined probe and walk must equal:
    /// `FrozenTable::bucket` per key, live entries deduplicated by first
    /// occurrence. Returns `D_i`, `b_i` and the walk's counters.
    fn reference_walk(shard: &TestShard, keys: &[u64]) -> (Vec<u32>, usize, QueryStats) {
        let mut stats = QueryStats::default();
        let mut seen = std::collections::HashSet::new();
        let (mut walked, mut bound) = (Vec::new(), 0);
        for (&key, table) in keys.iter().zip(shard.tables.tables()) {
            stats.buckets_inspected += 1;
            let bucket = table.bucket(key);
            bound += bucket.len();
            for &lid in bucket {
                stats.entries_scanned += 1;
                if shard.alive[lid.index()] && seen.insert(lid) {
                    walked.push(lid.0);
                }
            }
        }
        (walked, bound, stats)
    }

    #[test]
    fn pipelined_probe_and_walk_equal_the_plain_walk() {
        let d = PIPELINE_DISTANCE;
        let sets = clustered_sets_of(40);
        let mut queries = sets.clone();
        queries.push(SparseSet::from_items(vec![88_000, 88_001]));
        queries.push(SparseSet::from_items((0..12).chain(1000..1008).collect()));
        for l in [1, d - 1, d, d + 1, 2 * d + 1] {
            let params = fairnn_lsh::LshParams::explicit(2, l, 0.5, 0.05);
            let bank = HasherBank::sample(&MinHash, params, &mut StdRng::seed_from_u64(l as u64));
            let globals = (0..sets.len() as u32).map(PointId).collect();
            let near = SimilarityAtLeast::new(Jaccard, 0.5);
            let mut shard: TestShard = Shard::build(bank.clone(), sets.clone(), globals, near);
            for j in [1u32, 2, 5, 41] {
                assert!(delete(&mut shard, PointId(j)));
            }
            assert_eq!(shard.tombstones(), 4, "the deletes compacted");
            // The same part decoded from its sections: every table array a
            // zero-copy borrow of the section bytes.
            let owners: Vec<fairnn_snapshot::ArcBytes> = (0..section_count(l))
                .map(|i| fairnn_snapshot::ArcBytes::copy_from_slice(&shard.encode_section(i)))
                .collect::<Result<_, _>>()
                .unwrap();
            let sections: Vec<Section<'_>> = owners
                .iter()
                .map(|owner| Section::with_owner(owner.as_slice(), owner, 0))
                .collect();
            let loaded = Shard::decode_sections(&sections, bank).expect("decode");
            let mut absent = 0;
            for (label, shard) in [("built", &shard), ("loaded", &loaded)] {
                for (qi, query) in queries.iter().enumerate() {
                    let keys = keys(shard, query);
                    let (expected, expected_bound, expected_stats) = reference_walk(shard, &keys);
                    let mut ranges = vec![(0, 0); l];
                    let bound = shard.locate_buckets_with_keys(&keys, &mut ranges);
                    let mut stats = QueryStats::default();
                    let mut walked = Vec::new();
                    shard.walk_buckets(&ranges, &mut walked, &mut stats);
                    let at = format!("L = {l}, {label}, query {qi}");
                    assert_eq!(walked, expected, "D_i, {at}");
                    assert_eq!(bound, expected_bound, "b_i, {at}");
                    assert_eq!(
                        stats.entries_scanned, expected_stats.entries_scanned,
                        "{at}"
                    );
                    assert_eq!(
                        stats.buckets_inspected, expected_stats.buckets_inspected,
                        "{at}"
                    );
                    absent += ranges.iter().filter(|&&r| r == (0, 0)).count();
                }
            }
            assert!(absent > 0, "L = {l}: no key without a bucket");
        }
    }

    #[test]
    fn insert_extends_neighborhood_and_sketches() {
        let sets = clustered_sets();
        let query = sets[0].clone();
        let mut shard = build_shard(sets, 0);
        let mut twin_items: Vec<u32> = (0..24).collect();
        twin_items.push(500);
        shard.insert(PointId(90), SparseSet::from_items(twin_items));
        shard.merge_staged();
        assert_eq!(shard.live_points(), 17);
        assert!(shard.contains(PointId(90)));
        let mut stats = QueryStats::default();
        let near = colliding_near(&shard, &query, &mut stats);
        assert!(near.contains(&PointId(90)), "inserted twin not found");
        let bound = bound(&shard, &query);
        assert!(
            bound >= near.len(),
            "bound {bound} below |A| {}",
            near.len()
        );
        let est = estimate(&shard, &query, &mut stats);
        assert!(est >= 8.0, "fold misses the inserted twin: {est}");
    }

    #[test]
    fn delete_tombstones_then_compacts() {
        let sets = clustered_sets();
        let query = sets[0].clone();
        let mut shard = build_shard(sets, 0);
        assert!(
            !delete(&mut shard, PointId(99)),
            "unknown id must report false"
        );
        // A delete only tombstones: the point stays in its buckets, so the
        // bound still counts it while the walk and the fold skip it.
        let mut stats = QueryStats::default();
        let tables = Arc::clone(shard.tables());
        let bound_before = bound(&shard, &query);
        assert!(delete(&mut shard, PointId(1)));
        assert!(
            Arc::ptr_eq(&tables, shard.tables()),
            "a delete rebuilt the tables"
        );
        assert_eq!(bound(&shard, &query), bound_before);
        assert!(!colliding_near(&shard, &query, &mut stats).contains(&PointId(1)));
        // Delete the rest of the cluster; compaction triggers on the way.
        for j in 2..8u32 {
            assert!(delete(&mut shard, PointId(j)));
            assert!(!shard.contains(PointId(j)));
        }
        let mut stats = QueryStats::default();
        let near = colliding_near(&shard, &query, &mut stats);
        assert_eq!(near, vec![PointId(0)], "only the query's own point remains");
        assert_eq!(shard.live_points(), 9);
        assert!(
            shard.tombstones() < 7,
            "compaction never ran: {} tombstones",
            shard.tombstones()
        );
        // Compaction dropped the deleted points from the buckets: only the
        // query's own point and the one tombstone since (id 7) remain.
        let bound = bound(&shard, &query);
        assert!(
            bound <= 3 * shard.num_tables(),
            "stale buckets: bound {bound}"
        );
        let est = estimate(&shard, &query, &mut stats);
        assert!(est <= 3.0, "fold counts deleted points: {est}");
    }

    #[test]
    fn sketches_from_sibling_shards_merge() {
        let sets = clustered_sets();
        let (a, b) = sets.split_at(8);
        let shard_a = build_shard(a.to_vec(), 0);
        let shard_b = build_shard(b.to_vec(), 8);
        let query = sets[0].clone();
        let mut stats = QueryStats::default();
        let mut acc = shard_a.empty_sketch();
        shard_a.merge_colliding_with_keys(&keys(&shard_a, &query), &mut acc, &mut stats);
        shard_b.merge_colliding_with_keys(&keys(&shard_b, &query), &mut acc, &mut stats);
        let global = acc.estimate();
        let local = estimate(&shard_a, &query, &mut stats);
        assert!(global >= local, "merge lost mass: {global} < {local}");
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_global_id_rejected() {
        let sets = clustered_sets();
        let mut shard = build_shard(sets, 0);
        shard.insert(PointId(3), SparseSet::from_items(vec![1, 2, 3]));
    }

    #[test]
    fn dataset_roundtrip_matches_exact_neighborhood() {
        // A one-shard "sharded" index must see exactly the exact neighborhood
        // (99%-recall parameters).
        let sets = clustered_sets();
        let data = Dataset::new(sets.clone());
        let shard = build_shard(sets.clone(), 0);
        let mut stats = QueryStats::default();
        for qi in 0..8u32 {
            let query = data.point(PointId(qi)).clone();
            let mut got = colliding_near(&shard, &query, &mut stats);
            got.sort();
            assert_eq!(got, data.similar_indices(&Jaccard, &query, 0.5));
        }
    }
}
