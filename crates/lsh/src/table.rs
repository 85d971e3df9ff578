//! LSH hash tables and the multi-table index.
//!
//! The standard LSH data structure of Section 2.2 keeps `L` hash tables;
//! table `i` partitions the dataset into buckets by the value of the `i`-th
//! (concatenated) hash function. A query retrieves, for each table, the
//! bucket its own hash value falls into, and inspects the points inside.
//!
//! [`LshIndex`] is that structure. The fair samplers of `fairnn-core` build
//! on top of it: Section 3 re-sorts each bucket by rank, Section 4
//! additionally attaches a count-distinct sketch and a rank index to each
//! bucket. To support this, the index exposes its tables, buckets and
//! per-table query keys rather than only a flat "candidates" list.

use crate::bank::HasherBank;
use crate::concat::ConcatenatedHasher;
use crate::family::{LshFamily, LshHasher};
use crate::frozen::FrozenTable;
use crate::params::LshParams;
use crate::scratch::QueryScratch;
use fairnn_obs::{HistogramShard, LazyHistogram};
use fairnn_snapshot::Codec;
use fairnn_space::PointId;
use rand::Rng;
use std::cell::RefCell;

/// Bucket-size distribution of freshly built tables (one observation per
/// non-empty bucket, recorded by [`LshTables::build`]). The tail of this
/// histogram is what drives worst-case query cost and the fair samplers'
/// rejection rates.
static BUCKET_SIZE: LazyHistogram = LazyHistogram::new(
    "lsh_bucket_size",
    "bucket sizes of freshly built tables (entries per non-empty bucket)",
);

thread_local! {
    /// Per-thread scratch for the convenience query methods
    /// ([`LshIndex::colliding_ids`] and friends), which take `&self` and
    /// therefore cannot own reusable buffers. Hot paths that already hold a
    /// [`QueryScratch`] use the `_into` variants instead.
    static INDEX_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// A single hash table: bucket key → ids of the points in the bucket, in
/// the frozen CSR layout of [`FrozenTable`] (sorted keys, offsets, one
/// contiguous entry array). Each bucket lists its ids in ascending order:
/// builds insert points in id order, appends only ever add ids above every
/// existing one, and compaction renames ids monotonically.
pub type LshTable = FrozenTable<PointId>;

/// The `L` tables of an LSH structure over dense point ids
/// `0..num_points`, without the hash functions that key them.
///
/// [`LshIndex`] pairs one of these with its own [`HasherBank`]. The engine
/// pairs two (its base and its delta) with a single shared bank, so the
/// per-table query keys are computed once and looked up in both.
///
/// Tables are never mutated in place: [`LshTables::updated`] builds the
/// next tables from these in one linear pass per table, so a reader
/// holding the old ones is never disturbed.
#[derive(Debug, Clone, Default)]
pub struct LshTables {
    tables: Vec<LshTable>,
    num_points: usize,
}

impl LshTables {
    /// Builds the `num_tables` tables from a point-major key buffer
    /// (`keys[i * num_tables + t]` is point `i`'s key in table `t`; see
    /// [`crate::HasherBank::all_point_keys`]) by one [`LshTables::updated`]
    /// that appends every point to empty tables — the same pass a later
    /// insert runs, so each bucket lists its points in point order.
    pub fn build(keys: &[u64], num_tables: usize, num_points: usize) -> Self {
        assert_eq!(
            keys.len(),
            num_tables * num_points,
            "one key per table per point"
        );
        let empty = Self {
            tables: vec![LshTable::new(); num_tables],
            num_points: 0,
        };
        let built = empty.updated(
            None,
            |t, out| out.extend(Self::point_entries(keys, num_tables, t, (0..).map(PointId))),
            num_points,
        );
        if fairnn_obs::enabled() {
            let mut sizes = HistogramShard::new();
            for table in &built.tables {
                for (_, bucket) in table.buckets() {
                    sizes.record(bucket.len() as u64);
                }
            }
            BUCKET_SIZE.merge_shard(&sizes);
        }
        built
    }

    /// Number of tables `L`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of indexed point ids `n` (tombstoned ids included until
    /// compaction).
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// The tables themselves (index `t` is keyed by hasher `t`).
    pub fn tables(&self) -> &[LshTable] {
        &self.tables
    }

    /// One table.
    pub fn table(&self, i: usize) -> &LshTable {
        &self.tables[i]
    }

    /// Total number of point references stored across all tables — the
    /// `Θ(n L)` space term of Theorem 1.
    pub fn total_entries(&self) -> usize {
        self.tables.iter().map(LshTable::num_entries).sum()
    }

    /// These tables over `num_points` ids: the entries of each table kept
    /// through the `new_id_of` remap (old id → new id; [`u32::MAX`] marks
    /// an id that is gone; `None` keeps every id as it is), then the
    /// `(key, id)` pairs `appends(t, out)` pushes for table `t` added to
    /// their buckets in ascending id order. One [`FrozenTable::updated`]
    /// pass per table, tables in parallel. An insert appends the new ids
    /// ([`LshTables::point_entries`]), a compaction remaps the survivors to
    /// dense ids, and the engine's fold does both.
    ///
    /// Buckets list ids in ascending order and stay so when the remap
    /// numbers the survivors densely in order and every appended id is
    /// above them, so the result is bit-identical to a fresh build over
    /// the same points in new-id order, **without re-running any hasher**
    /// for the entries these tables hold.
    ///
    /// A pure constructor: `self` is not modified, so tables another
    /// reader holds stay valid. An engine's tables change only through
    /// `fairnn_engine::EngineWriter::commit`, whose index mutators are
    /// crate-private.
    pub fn updated<A>(&self, new_id_of: Option<&[u32]>, appends: A, num_points: usize) -> Self
    where
        A: Fn(usize, &mut Vec<(u64, PointId)>) + Sync,
    {
        if let Some(new_id_of) = new_id_of {
            assert!(
                new_id_of.len() >= self.num_points,
                "the remap must cover every indexed id"
            );
            debug_assert!(
                new_id_of
                    .iter()
                    .filter(|&&id| id != u32::MAX)
                    .zip(0..)
                    .all(|(&id, rank)| id == rank && (id as usize) < num_points),
                "the remap must number the survivors densely, in order"
            );
        }
        let tables = fairnn_parallel::map_indexed(self.tables.len(), |t| {
            let mut added = Vec::new();
            appends(t, &mut added);
            // Ids are distinct, so this orders equal keys by id.
            added.sort_unstable();
            debug_assert!(added.iter().all(|(_, id)| id.index() < num_points));
            let remap = new_id_of.map(|new_id_of| {
                move |id: &PointId| {
                    let new = new_id_of[id.index()];
                    (new != u32::MAX).then_some(PointId(new))
                }
            });
            self.tables[t].updated(remap, &added)
        });
        Self { tables, num_points }
    }

    /// The `(key, id)` entries of table `t` for points given by their
    /// point-major keys (`keys[i * num_tables + t]`, as
    /// [`crate::HasherBank::all_point_keys`] returns them), point `i` under
    /// the `i`-th of `ids`: the appends of an insert for
    /// [`LshTables::updated`].
    pub fn point_entries<'a>(
        keys: &'a [u64],
        num_tables: usize,
        t: usize,
        ids: impl IntoIterator<Item = PointId> + 'a,
    ) -> impl Iterator<Item = (u64, PointId)> + 'a {
        keys.iter().skip(t).step_by(num_tables).copied().zip(ids)
    }

    /// Tables over `num_points` ids from decoded tables: the shared tail of
    /// every decoder holding tables, including decoders that store the
    /// tables in several sections. Fails with `Corrupt` unless every bucket
    /// entry names an indexed point; the tables are checked on the build
    /// workers.
    pub fn from_tables(
        tables: Vec<LshTable>,
        num_points: usize,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        let out_of_range = fairnn_parallel::map_indexed(tables.len(), |t| {
            // The largest entry, without a branch per entry; the first one
            // out of range is looked for only when there is one.
            let entries = tables[t].entries();
            let largest = entries.iter().map(|id| id.0).max()?;
            if (largest as usize) < num_points {
                return None;
            }
            entries.iter().copied().find(|id| id.index() >= num_points)
        });
        if let Some(id) = out_of_range.into_iter().flatten().next() {
            return Err(fairnn_snapshot::SnapshotError::Corrupt(format!(
                "bucket entry {id} out of range for {num_points} points"
            )));
        }
        Ok(Self { tables, num_points })
    }
}

impl fairnn_snapshot::Codec for LshTables {
    /// Every table in its CSR wire form, then the point count.
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.tables.encode(enc);
        enc.write_u64(self.num_points as u64);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        let tables = Vec::<LshTable>::decode(dec)?;
        let num_points = usize::decode(dec)?;
        Self::from_tables(tables, num_points)
    }
}

/// The `L`-table LSH index.
///
/// Generic over the hasher type `H`; the usual instantiation is
/// `LshIndex<ConcatenatedHasher<F::Hasher>>` produced by [`LshIndex::build`].
#[derive(Debug, Clone)]
pub struct LshIndex<H> {
    bank: HasherBank<H>,
    tables: LshTables,
    params: LshParams,
}

impl<H> LshIndex<H> {
    /// Number of tables `L`.
    pub fn num_tables(&self) -> usize {
        self.tables.num_tables()
    }

    /// Number of indexed points `n`.
    pub fn num_points(&self) -> usize {
        self.tables.num_points()
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// The per-table hashers.
    pub fn hashers(&self) -> &[H] {
        self.bank.hashers()
    }

    /// The tables themselves (index `i` corresponds to hasher `i`).
    pub fn tables(&self) -> &[LshTable] {
        self.tables.tables()
    }

    /// One table.
    pub fn table(&self, i: usize) -> &LshTable {
        self.tables.table(i)
    }

    /// Total number of point references stored across all tables — the
    /// `Θ(n L)` space term of Theorem 1.
    pub fn total_entries(&self) -> usize {
        self.tables.total_entries()
    }

    /// Decomposes the index into its hasher bank and tables. Used by the
    /// fair samplers in `fairnn-core`, which re-organise the bucket contents
    /// (sort them by rank) while keeping the same hash functions.
    pub fn into_parts(self) -> (HasherBank<H>, Vec<LshTable>) {
        (self.bank, self.tables.tables)
    }
}

impl<H> LshIndex<H> {
    /// Builds an index from pre-sampled hashers (used by the filter-style
    /// structures and by tests that need full control over the hashers).
    /// Every point's `L` bucket keys are computed with one batched
    /// [`LshHasher::hash_all`] evaluation — point chunks hashed and the
    /// per-table CSR builds run on parallel build workers (see
    /// [`fairnn_parallel`]), with output bit-identical to the serial build
    /// at any thread count.
    pub fn from_hashers<P>(hashers: Vec<H>, points: &[P], params: LshParams) -> Self
    where
        H: LshHasher<P> + Sync,
        P: Sync,
    {
        let bank = HasherBank::new(hashers);
        let keys = bank.all_point_keys(points);
        let tables = LshTables::build(&keys, bank.num_tables(), points.len());
        Self {
            bank,
            tables,
            params,
        }
    }

    /// Per-table bucket keys of a query point.
    pub fn query_keys<P>(&self, query: &P) -> Vec<u64>
    where
        H: LshHasher<P>,
    {
        self.bank.point_keys(query)
    }

    /// Writes the per-table bucket keys of `query` into `keys` (resized to
    /// `L`), computing all `K × L` row hashes in one batched pass. This is
    /// the allocation-free form of [`LshIndex::query_keys`] for callers
    /// holding a reusable buffer.
    pub fn query_keys_into<P>(&self, query: &P, keys: &mut Vec<u64>)
    where
        H: LshHasher<P>,
    {
        self.bank.query_keys_into(query, keys);
    }

    /// The buckets a query collides with, one (possibly empty) slice per
    /// table, in table order.
    pub fn query_buckets<P>(&self, query: &P) -> Vec<&[PointId]>
    where
        H: LshHasher<P>,
    {
        INDEX_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.query_keys_into(query, &mut scratch.keys);
            scratch
                .keys
                .iter()
                .zip(self.tables())
                .map(|(&key, t)| t.bucket(key))
                .collect()
        })
    }

    /// Rebuilds every table over `points` (point `i` gets id `PointId(i)`)
    /// while keeping the existing hashers, so the rebuild is a pure
    /// compaction: deterministic and local to this index. The rebuilt
    /// Runs the same parallel two-phase build as
    /// [`LshIndex::from_hashers`]. When the surviving points are a subset
    /// of the currently indexed ones, [`LshTables::updated`] with an id
    /// remap gets the same tables without the re-hash.
    pub fn rebuild<P>(&mut self, points: &[P])
    where
        H: LshHasher<P> + Sync,
        P: Sync,
    {
        let keys = self.bank.all_point_keys(points);
        self.tables = LshTables::build(&keys, self.bank.num_tables(), points.len());
    }

    /// All ids colliding with the query in at least one table, deduplicated
    /// (the set `S_q = ∪_i S_{i, ℓ_i(q)}` of the paper). Uses a per-thread
    /// scratch; callers that own a [`QueryScratch`] should prefer
    /// [`LshIndex::colliding_ids_into`], which also reuses the output
    /// buffer.
    pub fn colliding_ids<P>(&self, query: &P) -> Vec<PointId>
    where
        H: LshHasher<P>,
    {
        INDEX_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.colliding_ids_into(query, scratch);
            scratch.candidates.clone()
        })
    }

    /// Collects the deduplicated colliding ids into `scratch.candidates`,
    /// in the order a walk over the tables and their buckets first meets
    /// them, without allocating in the steady state: bucket keys land in
    /// `scratch.keys` (one batched hash pass), deduplication uses the
    /// epoch-stamped `scratch.visited` (no `O(n)` clear), and the result
    /// reuses `scratch.candidates`. Returns the number of bucket entries
    /// the walk scanned, duplicates included.
    pub fn colliding_ids_into<P>(&self, query: &P, scratch: &mut QueryScratch) -> usize
    where
        H: LshHasher<P>,
    {
        let QueryScratch {
            keys,
            visited,
            candidates,
            ..
        } = scratch;
        self.query_keys_into(query, keys);
        visited.reset(self.num_points());
        candidates.clear();
        let mut scanned = 0;
        for (table, &key) in self.tables().iter().zip(keys.iter()) {
            let bucket = table.bucket(key);
            scanned += bucket.len();
            candidates.extend(bucket.iter().filter(|id| visited.insert(id.index())));
        }
        scanned
    }

    /// Total number of colliding entries including duplicates — the number
    /// of bucket entries a standard LSH query would inspect.
    pub fn collision_count<P>(&self, query: &P) -> usize
    where
        H: LshHasher<P>,
    {
        INDEX_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.query_keys_into(query, &mut scratch.keys);
            scratch
                .keys
                .iter()
                .zip(self.tables())
                .map(|(&key, t)| t.bucket(key).len())
                .sum()
        })
    }
}

impl<H: crate::snapshot::HasherBankCodec> fairnn_snapshot::SnapshotCodec for LshIndex<H> {
    /// Sectioned container image: section 0 holds the hasher bank and the
    /// scalar metadata, then one section per table — so table encodes, the
    /// per-section checksums and the per-table decodes (CSR validation +
    /// key-index rebuild, the expensive part of a load) all run on parallel
    /// build workers. The bytes are identical at every thread count.
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut head = fairnn_snapshot::Encoder::new();
        self.bank.encode(&mut head);
        head.write_u64(self.num_points() as u64);
        self.params.encode(&mut head);
        head.write_u64(self.num_tables() as u64);
        let mut sections = Vec::with_capacity(self.num_tables() + 1);
        sections.push(head.into_bytes());
        // Capture only the tables (not `self`), so the parallel encode
        // needs no `Sync` bound on the hasher type.
        let tables = self.tables();
        sections.extend(fairnn_parallel::map_indexed(tables.len(), |t| {
            let mut enc = fairnn_snapshot::Encoder::new();
            tables[t].encode(&mut enc);
            enc.into_bytes()
        }));
        sections
    }

    fn decode_sections(
        sections: &[fairnn_snapshot::Section<'_>],
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        use fairnn_snapshot::SnapshotError;
        let Some((head, table_sections)) = sections.split_first() else {
            return Err(SnapshotError::Corrupt(
                "LSH index snapshot has no head section".into(),
            ));
        };
        let mut dec = head.decoder();
        let bank = HasherBank::<H>::decode(&mut dec)?;
        let num_points = usize::decode(&mut dec)?;
        let params = LshParams::decode(&mut dec)?;
        // Cross-section count: a plain u64, *not* `read_len` (the bound of
        // which is the remaining bytes of this section, not the directory).
        let num_tables = usize::try_from(dec.read_u64()?)
            .map_err(|_| SnapshotError::Corrupt("table count does not fit usize".into()))?;
        dec.finish()?;
        bank.check_shape(params)?;
        if num_tables != table_sections.len() || num_tables != bank.num_tables() {
            return Err(SnapshotError::Corrupt(format!(
                "index head declares {num_tables} tables, the directory holds {} table \
                 sections and the bank keys {}",
                table_sections.len(),
                bank.num_tables()
            )));
        }
        let decoded = fairnn_parallel::map_indexed(table_sections.len(), |t| {
            let mut dec = table_sections[t].decoder();
            let table = LshTable::decode(&mut dec)?;
            dec.finish()?;
            Ok::<LshTable, SnapshotError>(table)
        });
        let mut tables = Vec::with_capacity(num_tables);
        for table in decoded {
            tables.push(table?);
        }
        Ok(Self {
            bank,
            tables: LshTables::from_tables(tables, num_points)?,
            params,
        })
    }
}

impl<H: crate::snapshot::HasherBankCodec> LshIndex<H> {
    /// Writes the index as a versioned, checksummed snapshot file. Tables
    /// are stored in their CSR form; the shared hasher bank is written
    /// flat, row by row, exactly once.
    pub fn save<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<(), fairnn_snapshot::SnapshotError> {
        fairnn_snapshot::save(fairnn_snapshot::SnapshotKind::LshIndex, self, path)
    }

    /// Restores an index written by [`LshIndex::save`]. The loaded index
    /// behaves exactly like the saved one: queries produce identical keys
    /// and buckets.
    pub fn load<P: AsRef<std::path::Path>>(
        path: P,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        fairnn_snapshot::load(fairnn_snapshot::SnapshotKind::LshIndex, path)
    }
}

impl<BH> LshIndex<ConcatenatedHasher<BH>> {
    /// Builds the standard `K × L` index: `L` tables, each keyed by a
    /// concatenation of `K` draws from `family`.
    ///
    /// All `K × L` rows are drawn into one shared table-major bank
    /// ([`ConcatenatedHasher::bank`]) so batched queries evaluate them in a
    /// single pass over the point. The draw order matches the historical
    /// per-table sampling exactly, so seeds keep producing the same hashers.
    pub fn build<P, F, R>(
        family: &F,
        params: LshParams,
        points: &[P],
        rng: &mut R,
    ) -> LshIndex<ConcatenatedHasher<F::Hasher>>
    where
        F: LshFamily<P, Hasher = BH>,
        BH: LshHasher<P> + Send + Sync,
        P: Sync,
        R: Rng + ?Sized,
    {
        let rows = family.sample_many(rng, params.k * params.l);
        let hashers = ConcatenatedHasher::bank(rows, params.k);
        LshIndex::from_hashers(hashers, points, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::OneBitMinHash;
    use crate::params::ParamsBuilder;
    use fairnn_space::{Dataset, Jaccard, SparseSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn out_of_range_bucket_entries_are_rejected() {
        let table = |buckets: Vec<(u64, Vec<u32>)>| {
            LshTable::from_buckets(
                buckets
                    .into_iter()
                    .map(|(key, ids)| (key, ids.into_iter().map(PointId).collect())),
            )
        };
        let tables = || {
            vec![
                table(vec![]),
                table(vec![(3, vec![0, 4]), (8, vec![1])]),
                table(vec![(1, vec![2, 7]), (2, vec![9, 3])]),
            ]
        };
        assert!(LshTables::from_tables(tables(), 10).is_ok());
        // The largest entry itself past the end.
        let rejected = LshTables::from_tables(tables(), 9);
        assert!(
            matches!(&rejected, Err(fairnn_snapshot::SnapshotError::Corrupt(msg))
                if msg == "bucket entry p9 out of range for 9 points"),
            "{rejected:?}"
        );
        // The first entry past the end is named, not the largest.
        let rejected = LshTables::from_tables(tables(), 5);
        assert!(
            matches!(&rejected, Err(fairnn_snapshot::SnapshotError::Corrupt(msg))
                if msg == "bucket entry p7 out of range for 5 points"),
            "{rejected:?}"
        );
    }

    fn toy_sets() -> Vec<SparseSet> {
        // Three clusters of mutually similar sets plus isolated points.
        let mut sets = Vec::new();
        for c in 0..3u32 {
            let base: Vec<u32> = (c * 100..c * 100 + 30).collect();
            for j in 0..8u32 {
                let mut items = base.clone();
                items.push(1000 + c * 10 + j);
                items.push(2000 + c * 10 + j);
                sets.push(SparseSet::from_items(items));
            }
        }
        for i in 0..10u32 {
            sets.push(SparseSet::from_items(
                (5000 + i * 50..5000 + i * 50 + 20).collect(),
            ));
        }
        sets
    }

    fn build_index(
        sets: &[SparseSet],
    ) -> LshIndex<ConcatenatedHasher<crate::minhash::OneBitMinHasher>> {
        let params = ParamsBuilder::new(sets.len(), 0.5, 0.1).empirical(&OneBitMinHash);
        let mut rng = StdRng::seed_from_u64(99);
        LshIndex::build(&OneBitMinHash, params, sets, &mut rng)
    }

    type TestIndex = LshIndex<ConcatenatedHasher<crate::minhash::OneBitMinHasher>>;

    /// Appends `points` to the index's tables under the next dense ids.
    fn append(index: &mut TestIndex, points: &[SparseSet]) {
        let keys = index.bank.all_point_keys(points);
        let (l, first) = (index.num_tables(), index.num_points());
        index.tables = index.tables.updated(
            None,
            |t, out| {
                out.extend(LshTables::point_entries(
                    &keys,
                    l,
                    t,
                    (first..).map(PointId::from_index),
                ))
            },
            first + points.len(),
        );
    }

    /// Compacts the tables to the ids that survive `new_id_of`.
    fn compacted(tables: &LshTables, new_id_of: &[u32], num_points: usize) -> LshTables {
        tables.updated(Some(new_id_of), |_, _| {}, num_points)
    }

    #[test]
    fn table_insert_and_lookup() {
        let tables = LshTables::build(&[7, 7, 9], 1, 3);
        let table = tables.table(0);
        assert_eq!(table.bucket(7), &[PointId(0), PointId(1)]);
        assert_eq!(table.bucket(9), &[PointId(2)]);
        assert!(table.bucket(8).is_empty());
        assert_eq!(table.num_buckets(), 2);
        assert_eq!(table.num_entries(), 3);
        assert_eq!(table.max_bucket_size(), 2);
        assert_eq!(table.buckets().count(), 2);
        // Appends go to the end of their bucket under the next ids.
        let grown = tables.updated(
            None,
            |t, out| out.extend(LshTables::point_entries(&[8, 7], 1, t, (3..).map(PointId))),
            5,
        );
        assert_eq!(grown.num_points(), 5);
        assert_eq!(
            grown.table(0).bucket(7),
            &[PointId(0), PointId(1), PointId(4)]
        );
        assert_eq!(grown.table(0).bucket(8), &[PointId(3)]);
        assert_eq!(tables.table(0).num_entries(), 3, "the source is untouched");
    }

    #[test]
    fn table_remove_preserves_order_and_drops_empty_buckets() {
        let tables = LshTables::build(&[7, 7, 7, 9], 1, 4);
        let compacted = compacted(&tables, &[0, u32::MAX, 1, u32::MAX], 2);
        assert_eq!(compacted.table(0).bucket(7), &[PointId(0), PointId(1)]);
        assert_eq!(
            compacted.table(0).num_buckets(),
            1,
            "emptied bucket must be dropped"
        );
        assert_eq!(compacted.num_points(), 2);
    }

    #[test]
    fn index_stores_every_point_in_every_table() {
        let sets = toy_sets();
        let index = build_index(&sets);
        assert_eq!(index.num_points(), sets.len());
        assert!(index.num_tables() >= 1);
        for table in index.tables() {
            assert_eq!(table.num_entries(), sets.len());
        }
        assert_eq!(index.total_entries(), sets.len() * index.num_tables());
        assert_eq!(index.hashers().len(), index.num_tables());
    }

    #[test]
    fn near_duplicates_collide_with_high_probability() {
        let sets = toy_sets();
        let index = build_index(&sets);
        let data = Dataset::new(sets.clone());
        // Query with the first cluster member: its 7 siblings have Jaccard
        // around 0.88 and must be retrieved by the 99%-recall index.
        let query = sets[0].clone();
        let near = data.similar_indices(&Jaccard, &query, 0.5);
        let colliding = index.colliding_ids(&query);
        for id in &near {
            assert!(
                colliding.contains(id),
                "near point {id:?} missing from collisions"
            );
        }
    }

    #[test]
    fn colliding_ids_are_deduplicated() {
        let sets = toy_sets();
        let index = build_index(&sets);
        let query = sets[0].clone();
        let ids = index.colliding_ids(&query);
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ids.len(), sorted.len(), "duplicate ids returned");
        // Counting duplicates across tables must be at least the dedup count.
        assert!(index.collision_count(&query) >= ids.len());
    }

    #[test]
    fn query_buckets_align_with_query_keys() {
        let sets = toy_sets();
        let index = build_index(&sets);
        let query = sets[3].clone();
        let keys = index.query_keys(&query);
        let buckets = index.query_buckets(&query);
        assert_eq!(keys.len(), index.num_tables());
        assert_eq!(buckets.len(), index.num_tables());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(index.table(i).bucket(*key), buckets[i]);
        }
    }

    #[test]
    fn from_hashers_respects_given_hashers() {
        use crate::minhash::OneBitMinHasher;
        let sets = toy_sets();
        let hashers = vec![
            ConcatenatedHasher::new(vec![
                OneBitMinHasher::from_seed(1),
                OneBitMinHasher::from_seed(2),
            ]),
            ConcatenatedHasher::new(vec![
                OneBitMinHasher::from_seed(3),
                OneBitMinHasher::from_seed(4),
            ]),
        ];
        let params = LshParams::explicit(2, 2, 0.5, 0.1);
        let index = LshIndex::from_hashers(hashers, &sets, params);
        assert_eq!(index.num_tables(), 2);
        assert_eq!(index.params().k, 2);
        // Every point must be findable by querying with itself.
        for (i, s) in sets.iter().enumerate() {
            assert!(index.colliding_ids(s).contains(&PointId::from_index(i)));
        }
    }

    #[test]
    fn incremental_insert_remove_and_rebuild() {
        use fairnn_snapshot::{to_bytes, SnapshotKind};
        let sets = toy_sets();
        let (head, tail) = sets.split_at(sets.len() - 3);
        let params = ParamsBuilder::new(sets.len(), 0.5, 0.1).empirical(&OneBitMinHash);
        let build = |points: &[SparseSet]| {
            let mut rng = StdRng::seed_from_u64(5);
            LshIndex::build(&OneBitMinHash, params, points, &mut rng)
        };
        // Appending the tail reproduces the index built over everything,
        // down to the snapshot bytes.
        let mut index = build(head);
        append(&mut index, tail);
        assert_eq!(index.num_points(), sets.len());
        assert_eq!(
            to_bytes(SnapshotKind::LshIndex, &index),
            to_bytes(SnapshotKind::LshIndex, &build(&sets))
        );
        for (i, p) in sets.iter().enumerate() {
            assert!(index.colliding_ids(p).contains(&PointId::from_index(i)));
        }

        // Compacting point 0 away erases it from every table.
        let new_id_of: Vec<u32> = (0..sets.len() as u32)
            .map(|i| i.checked_sub(1).unwrap_or(u32::MAX))
            .collect();
        index.tables = compacted(&index.tables, &new_id_of, sets.len() - 1);
        assert_eq!(index.total_entries(), (sets.len() - 1) * index.num_tables());
        let compacted = to_bytes(SnapshotKind::LshIndex, &index);

        // Rebuilding over the survivors gives the same tables.
        index.rebuild(&sets[1..]);
        assert_eq!(index.num_points(), sets.len() - 1);
        assert_eq!(to_bytes(SnapshotKind::LshIndex, &index), compacted);
        for (i, s) in sets[1..].iter().enumerate() {
            assert!(index.colliding_ids(s).contains(&PointId::from_index(i)));
        }
    }

    #[test]
    fn compact_retain_matches_rebuild_without_rehashing() {
        let sets = toy_sets();
        let mut retained = build_index(&sets);
        let mut rebuilt = retained.clone();
        // Drop every third point, as an engine compaction would after deletes
        // (the deleted ids are still in their buckets until now).
        let keep: Vec<usize> = (0..sets.len()).filter(|i| i % 3 != 0).collect();
        let mut new_id_of = vec![u32::MAX; sets.len()];
        for (new, &old) in keep.iter().enumerate() {
            new_id_of[old] = new as u32;
        }
        let survivors: Vec<SparseSet> = keep.iter().map(|&i| sets[i].clone()).collect();
        retained.tables = compacted(&retained.tables, &new_id_of, survivors.len());
        rebuilt.rebuild(&survivors);
        assert_eq!(retained.num_points(), rebuilt.num_points());
        for (a, b) in retained.tables().iter().zip(rebuilt.tables()) {
            let got: Vec<(u64, Vec<PointId>)> =
                a.buckets().map(|(k, ids)| (k, ids.to_vec())).collect();
            let want: Vec<(u64, Vec<PointId>)> =
                b.buckets().map(|(k, ids)| (k, ids.to_vec())).collect();
            assert_eq!(got, want, "contents and per-bucket order must match");
        }
        // And the canonical snapshots agree byte for byte.
        use fairnn_snapshot::{to_bytes, SnapshotKind};
        assert_eq!(
            to_bytes(SnapshotKind::LshIndex, &retained),
            to_bytes(SnapshotKind::LshIndex, &rebuilt)
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries_and_layout() {
        use fairnn_snapshot::{from_bytes, to_bytes, SnapshotKind};
        let sets = toy_sets();
        let index = build_index(&sets);
        let bytes = to_bytes(SnapshotKind::LshIndex, &index);
        let loaded: LshIndex<ConcatenatedHasher<crate::minhash::OneBitMinHasher>> =
            from_bytes(SnapshotKind::LshIndex, &bytes).expect("load");
        assert_eq!(loaded.num_points(), index.num_points());
        assert_eq!(loaded.num_tables(), index.num_tables());
        for s in &sets {
            assert_eq!(loaded.query_keys(s), index.query_keys(s));
            assert_eq!(loaded.colliding_ids(s), index.colliding_ids(s));
        }
        // Canonical: encoding the loaded index reproduces the bytes.
        assert_eq!(to_bytes(SnapshotKind::LshIndex, &loaded), bytes);
    }

    #[test]
    fn mutating_a_loaded_index_matches_mutating_the_original() {
        use fairnn_snapshot::{from_bytes, to_bytes, SnapshotKind};
        let sets = toy_sets();
        let mut index = build_index(&sets);
        let bytes = to_bytes(SnapshotKind::LshIndex, &index);
        let mut loaded: TestIndex = from_bytes(SnapshotKind::LshIndex, &bytes).expect("load");
        let extra = [
            SparseSet::from_items((3000..3020).collect()),
            sets[0].clone(),
        ];
        append(&mut loaded, &extra);
        append(&mut index, &extra);
        for s in sets.iter().chain(&extra) {
            assert_eq!(loaded.colliding_ids(s), index.colliding_ids(s));
        }
        assert_eq!(
            to_bytes(SnapshotKind::LshIndex, &loaded),
            to_bytes(SnapshotKind::LshIndex, &index)
        );
    }

    #[test]
    fn far_points_rarely_collide_under_full_minhash() {
        use crate::minhash::MinHash;
        let sets = toy_sets();
        let data = Dataset::new(sets.clone());
        // Full 64-bit MinHash: disjoint sets collide with probability ~0, so
        // even a single row per table keeps far points out of the buckets.
        let params = ParamsBuilder::new(sets.len(), 0.5, 0.05).empirical(&MinHash);
        let mut rng = StdRng::seed_from_u64(11);
        let index = LshIndex::build(&MinHash, params, &sets, &mut rng);
        let query = sets[0].clone();
        let colliding = index.colliding_ids(&query);
        let far: Vec<_> = data
            .similarities_to(&Jaccard, &query)
            .into_iter()
            .filter(|(_, s)| *s == 0.0)
            .map(|(id, _)| id)
            .collect();
        let far_collisions = far.iter().filter(|id| colliding.contains(id)).count();
        assert_eq!(
            far_collisions, 0,
            "disjoint sets should never share a MinHash value"
        );
    }
}
