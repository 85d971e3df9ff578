//! Read-optimized, frozen bucket storage.
//!
//! [`FrozenTable`] is the one representation of an LSH table: a sorted key
//! array, a CSR-style offset array, one contiguous entry array, and a radix
//! directory over the sorted keys. A lookup reads two adjacent directory
//! counts and searches the about one key between them, all over dense
//! arrays (cache-friendly, no map metadata), and a bucket is a contiguous
//! slice of one allocation — the right layout for the query hot path,
//! which does nothing but "find bucket, scan bucket" `L` times per query.
//!
//! A frozen table is never mutated in place. Every update builds the next
//! table from the current one in one linear pass of one kernel,
//! [`FrozenTable::updated`]: it keeps each bucket's entries through an
//! optional id remap (none is the identity; a dropped entry goes away) and
//! then appends a sorted batch of entries under their keys. An insert is
//! the identity plus appends, a compaction a remap without appends, and the
//! engine's fold both at once. The result is exactly the table
//! [`FrozenTable::from_buckets`] would build from the same bucket
//! contents, so a table's bytes depend only on what it holds, never on the
//! history of updates that produced it. Every fair-sampling guarantee in
//! this workspace is defined over bucket contents and their order
//! (rank-sorted buckets, first-near scans); the golden tests in
//! `fairnn-integration` pin this.
//!
//! The entry type is generic: the plain index stores [`fairnn_space::PointId`]
//! entries, the Section 4 structure stores `(rank, id)` pairs with a
//! parallel sketch array.

use fairnn_snapshot::{ArcSlice, SliceCodec};
use std::ops::Range;

/// A frozen (read-optimized) bucket table: sorted keys, CSR offsets, one
/// contiguous entry array, plus a radix directory that narrows a key to
/// the about one sorted key sharing its top bits, so a lookup costs two
/// adjacent loads and a search of that short run. See the module docs for
/// the layout rationale.
///
/// Every array is an [`ArcSlice`]: owned when built in memory, a zero-copy
/// borrow of the snapshot image when decoded from a
/// [`fairnn_snapshot::SnapshotImage`]. The directory is persisted alongside
/// the CSR triplet (and fully validated on decode), so loading a table
/// allocates nothing per table and does no per-entry work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenTable<E> {
    keys: ArcSlice<u64>,
    /// `offsets[i]..offsets[i + 1]` is the entry range of bucket `i`.
    offsets: ArcSlice<u32>,
    entries: ArcSlice<E>,
    /// The radix directory: `2^b + 1` counts, `dir[c]` the number of keys
    /// whose top `b` bits are below `c`, so the keys in cell `c` are
    /// `keys[dir[c]..dir[c + 1]]`. `2^b` is the largest power of two of at
    /// most `keys.len()` (1 for no key), so `b` and the whole directory
    /// depend on the keys alone, which keeps the encoding canonical.
    dir: ArcSlice<u32>,
}

impl<E> Default for FrozenTable<E> {
    fn default() -> Self {
        Self {
            keys: ArcSlice::default(),
            offsets: ArcSlice::from_vec(vec![0]),
            entries: ArcSlice::default(),
            dir: ArcSlice::from_vec(directory(&[])),
        }
    }
}

/// An entry count as a CSR offset.
#[inline]
fn entry_offset(len: usize) -> u32 {
    u32::try_from(len).expect("table exceeds u32 entries")
}

/// The `b` of a directory over `num_keys` keys: `2^b` is the largest power
/// of two of at most `num_keys`, and 1 for no key.
fn cell_bits(num_keys: usize) -> u32 {
    num_keys.checked_ilog2().unwrap_or(0)
}

/// The directory cell of `key` among `2^bits`: its top `bits` bits. Two
/// shifts, so that `bits = 0` gives cell 0 instead of a shift by 64.
#[inline]
fn cell(key: u64, bits: u32) -> usize {
    (key >> 1 >> (63 - bits)) as usize
}

/// The radix directory of a sorted key array, by one counting pass over
/// the keys and a running sum over the cells.
fn directory(keys: &[u64]) -> Vec<u32> {
    let bits = cell_bits(keys.len());
    let mut dir = vec![0u32; (1 << bits) + 1];
    for &key in keys {
        dir[cell(key, bits) + 1] += 1;
    }
    let mut below = 0;
    for count in &mut dir {
        below += *count;
        *count = below;
    }
    dir
}

/// A run of consecutive buckets of a table, bound to plain slices: bucket
/// `i` holds key `keys[i]` and ends at offset `ends[i]`, and `entries` are
/// the run's entries, the first at offset `first`.
struct Run<'a, E> {
    keys: &'a [u64],
    ends: &'a [u32],
    entries: &'a [E],
    first: u32,
}

/// The CSR arrays of a table being built, bucket by bucket in increasing
/// key order.
struct Csr<E> {
    keys: Vec<u64>,
    offsets: Vec<u32>,
    entries: Vec<E>,
}

impl<E> Csr<E> {
    fn with_capacity(buckets: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(buckets + 1);
        offsets.push(0);
        Self {
            keys: Vec::with_capacity(buckets),
            offsets,
            entries: Vec::with_capacity(entries),
        }
    }

    /// Closes the bucket of `key` over the entries written since the last
    /// bucket was closed; a bucket with no entry is dropped.
    fn close(&mut self, key: u64) {
        let end = entry_offset(self.entries.len());
        if self.offsets.last() != Some(&end) {
            self.keys.push(key);
            self.offsets.push(end);
        }
    }

    /// Keeps the buckets of `run`: its keys and entries are written with
    /// each bucket end shifted to the entries already written, which is
    /// the whole job without a remap. Under a remap the run's entries are
    /// copied wholesale too and compacted in place in one pass, in which a
    /// dropped entry takes one off the end of its bucket (found by a
    /// cursor that only moves forward), then one pass over the buckets
    /// that takes the running count of earlier drops off each end and
    /// moves later buckets down over the emptied ones.
    /// The cost is linear in buckets plus entries at any drop rate, no
    /// step branches on a bucket's size, and nothing is allocated.
    fn keep<F>(&mut self, run: Run<'_, E>, remap: Option<&mut F>)
    where
        E: Clone,
        F: FnMut(&E) -> Option<E>,
    {
        // Under a remap the output may trail the input, so the shift wraps.
        let shift = entry_offset(self.entries.len()).wrapping_sub(run.first);
        let at = self.keys.len();
        self.keys.extend_from_slice(run.keys);
        self.offsets
            .extend(run.ends.iter().map(|&end| end.wrapping_add(shift)));
        let Some(remap) = remap else {
            self.entries.extend_from_slice(run.entries);
            return;
        };
        // The run's entries are copied wholesale and compacted in place: a
        // kept entry is written over the next free one, and a dropped entry
        // takes one off its own bucket's end…
        let base = self.entries.len();
        self.entries.extend_from_slice(run.entries);
        let tail = &mut self.entries[base..];
        let ends = &mut self.offsets[at + 1..];
        let (mut bucket, mut written) = (0, 0);
        for (read, pos) in (0..tail.len()).zip(run.first..) {
            match remap(&tail[read]) {
                Some(entry) => {
                    tail[written] = entry;
                    written += 1;
                }
                None => {
                    // Drops come in increasing position: the cursor only
                    // moves forward, over each bucket at most once.
                    while run.ends[bucket] <= pos {
                        bucket += 1;
                    }
                    ends[bucket] = ends[bucket].wrapping_sub(1);
                }
            }
        }
        self.entries.truncate(base + written);
        // …and the running count of drops before a bucket off the rest.
        // An emptied bucket is overwritten by the next kept one.
        let (mut dropped, mut kept) = (0, at);
        for (i, &input_end) in (at..).zip(run.ends) {
            let end = self.offsets[i + 1];
            let own = input_end.wrapping_add(shift).wrapping_sub(end);
            let end = end.wrapping_sub(dropped);
            dropped += own;
            self.keys[kept] = self.keys[i];
            self.offsets[kept + 1] = end;
            kept += usize::from(end != self.offsets[kept]);
        }
        self.keys.truncate(kept);
        self.offsets.truncate(kept + 1);
    }

    /// The table over these arrays. `same_keys` is a table known to hold
    /// exactly these keys: its key array and directory are shared (a copy
    /// when owned, a reference-count bump when borrowed from an image)
    /// instead of rebuilt.
    fn finish(self, same_keys: Option<&FrozenTable<E>>) -> FrozenTable<E> {
        let (keys, dir) = match same_keys {
            Some(source) => {
                debug_assert_eq!(&source.keys[..], &self.keys[..]);
                (source.keys.clone(), source.dir.clone())
            }
            None => {
                let dir = directory(&self.keys);
                (self.keys.into(), dir.into())
            }
        };
        let table = FrozenTable {
            keys,
            offsets: self.offsets.into(),
            entries: self.entries.into(),
            dir,
        };
        table.debug_assert_csr_invariants();
        table
    }
}

impl<E> FrozenTable<E> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes a collection of `(key, bucket)` pairs. Keys are sorted (and
    /// must be distinct); the entries of each bucket keep their order.
    pub fn from_buckets(buckets: impl IntoIterator<Item = (u64, Vec<E>)>) -> Self {
        let mut pairs: Vec<(u64, Vec<E>)> = buckets.into_iter().collect();
        pairs.sort_unstable_by_key(|(key, _)| *key);
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bucket keys must be distinct"
        );
        let total: usize = pairs.iter().map(|(_, bucket)| bucket.len()).sum();
        let mut csr = Csr::with_capacity(pairs.len(), total);
        for (key, bucket) in pairs {
            csr.keys.push(key);
            csr.entries.extend(bucket);
            csr.offsets.push(entry_offset(csr.entries.len()));
        }
        csr.finish(None)
    }

    /// Debug-only check of the CSR structural invariants every lookup
    /// relies on: strictly increasing keys, `offsets` one longer than
    /// `keys`, starting at 0, non-decreasing, and ending exactly at
    /// `entries.len()`. Compiled away in release builds; every construction
    /// path (build, update and the snapshot decoder) calls it so
    /// a violated invariant fails at the build site, not at some later
    /// query.
    fn debug_assert_csr_invariants(&self) {
        debug_assert_eq!(
            self.offsets.len(),
            self.keys.len() + 1,
            "CSR offsets must be one longer than keys"
        );
        debug_assert_eq!(
            self.offsets.first(),
            Some(&0),
            "CSR offsets must start at 0"
        );
        debug_assert!(
            self.offsets.windows(2).all(|w| w[0] <= w[1]),
            "CSR offsets must be non-decreasing"
        );
        debug_assert_eq!(
            self.offsets.last().copied().unwrap_or(0) as usize,
            self.entries.len(),
            "CSR offsets must end at entries.len()"
        );
        debug_assert!(
            self.keys.windows(2).all(|w| w[0] < w[1]),
            "CSR keys must be strictly increasing"
        );
    }

    /// The table with each bucket's entries kept through `remap` and then
    /// `appends` added. `remap` maps an entry to the entry that replaces it
    /// (`None` drops it); no remap keeps every entry as it is. Each
    /// `(key, entry)` of `appends`, which must be sorted by key, goes to the
    /// end of its key's bucket, after the kept entries, and entries with
    /// equal keys keep their order in `appends`. A bucket left empty is
    /// dropped, and a key the table does not hold yet gets a new bucket.
    ///
    /// One linear pass over slices bound once. Each maximal run of buckets
    /// that no append touches is copied wholesale with its offsets
    /// shifted; under a remap the run's entries then go through the remap
    /// in one pass, and each bucket end is derived from the running count
    /// of dropped entries instead of closing bucket by bucket. When no key
    /// is added or emptied, the key array and the directory are reused.
    /// The result equals [`FrozenTable::from_buckets`] over the
    /// kept and appended buckets, so sorted buckets stay sorted when the
    /// remap renames monotonically and the appends sort above every kept
    /// entry (as an engine fold's do).
    pub fn updated<F>(&self, mut remap: Option<F>, appends: &[(u64, E)]) -> Self
    where
        E: Clone,
        F: FnMut(&E) -> Option<E>,
    {
        debug_assert!(
            appends.windows(2).all(|w| w[0].0 <= w[1].0),
            "appends must be sorted by key"
        );
        let (keys, offsets, entries) = (&self.keys[..], &self.offsets[..], &self.entries[..]);
        let run = |range: Range<usize>| {
            let (first, last) = (offsets[range.start], offsets[range.end]);
            Run {
                keys: &keys[range.clone()],
                ends: &offsets[range.start + 1..=range.end],
                entries: &entries[first as usize..last as usize],
                first,
            }
        };
        let mut csr = Csr::with_capacity(keys.len() + appends.len(), entries.len() + appends.len());
        let (mut kept, mut new_key) = (0, false); // kept: head buckets passed
        for appended in appends.chunk_by(|a, b| a.0 == b.0) {
            let key = appended[0].0;
            let pos = kept + keys[kept..].partition_point(|&k| k < key);
            let present = keys.get(pos) == Some(&key);
            let end = pos + usize::from(present);
            if kept < end {
                csr.keep(run(kept..end), remap.as_mut());
            }
            // Reopen the key's bucket, if it kept an entry, for the appends.
            if csr.keys.last() == Some(&key) {
                csr.keys.pop();
                csr.offsets.pop();
            }
            csr.entries.extend(appended.iter().map(|e| e.1.clone()));
            csr.close(key);
            kept = end;
            new_key |= !present;
        }
        csr.keep(run(kept..keys.len()), remap.as_mut());
        let same_keys = !new_key && csr.keys.len() == keys.len();
        csr.finish(same_keys.then_some(self))
    }

    /// The directory cell of `key` in this table.
    #[inline]
    fn cell_of(&self, key: u64) -> usize {
        cell(key, (self.dir.len() - 1).trailing_zeros())
    }

    /// Index of the bucket for `key`, if present: the directory cell's two
    /// counts bound the keys sharing its top bits (about one), and a binary
    /// search of that run finds it. Keys that clump into one cell cost a
    /// binary search of the cell, never a wrong answer.
    #[inline]
    pub fn find(&self, key: u64) -> Option<usize> {
        let c = self.cell_of(key);
        let start = self.dir[c] as usize;
        let run = &self.keys[start..self.dir[c + 1] as usize];
        run.binary_search(&key).ok().map(|i| start + i)
    }

    /// Issues a software prefetch for the cache line a lookup of `key`
    /// reads first (its directory cell): the first stage of a pipelined
    /// probe, issued a few tables ahead of the lookup so the cell's miss
    /// overlaps work on the tables before it. Purely a hint; a no-op off
    /// x86_64.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        fairnn_snapshot::prefetch_read(&self.dir, self.cell_of(key));
    }

    /// The second stage of a pipelined probe: reads the directory cell of
    /// `key` (warmed by an earlier [`FrozenTable::prefetch`]) and
    /// prefetches the first key and offset of that cell, which a lookup of
    /// `key` reads next. Observably a no-op.
    #[inline]
    pub fn prefetch_probe(&self, key: u64) {
        let start = self.dir[self.cell_of(key)] as usize;
        fairnn_snapshot::prefetch_read(&self.keys, start);
        fairnn_snapshot::prefetch_read(&self.offsets, start);
    }

    /// The entry range `(start, end)` of the bucket for `key`:
    /// `entries()[start..end]` is [`FrozenTable::bucket`]`(key)`. A key
    /// with no bucket gets the empty range `(0, 0)`.
    #[inline]
    pub fn entry_range(&self, key: u64) -> (u32, u32) {
        match self.find(key) {
            Some(i) => (self.offsets[i], self.offsets[i + 1]),
            None => (0, 0),
        }
    }

    /// The entry array: every bucket's entries, bucket after bucket (index
    /// it with an [`FrozenTable::entry_range`]).
    #[inline]
    pub fn entries(&self) -> &[E] {
        &self.entries
    }

    /// The bucket for `key` (empty slice if absent).
    #[inline]
    pub fn bucket(&self, key: u64) -> &[E] {
        match self.find(key) {
            Some(i) => self.bucket_at(i),
            None => &[],
        }
    }

    /// The bucket at index `i` (as returned by [`FrozenTable::find`]).
    #[inline]
    pub fn bucket_at(&self, i: usize) -> &[E] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Mutable view of the bucket for `key`. The *contents* of a frozen
    /// bucket may be rearranged in place (the rank-swap structure re-sorts
    /// buckets after a rank exchange); the bucket structure itself is fixed.
    /// On a table borrowing a snapshot image this is copy-on-write: the
    /// first mutation detaches the entry array into an owned vector.
    #[inline]
    pub fn bucket_mut(&mut self, key: u64) -> Option<&mut [E]>
    where
        E: Clone,
    {
        let i = self.find(key)?;
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        Some(&mut self.entries.to_mut()[start..end])
    }

    /// The key of bucket `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> u64 {
        self.keys[i]
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.keys.len()
    }

    /// Total number of stored entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Size of the largest bucket (0 for an empty table).
    pub fn max_bucket_size(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Iterator over `(key, bucket)` pairs in increasing key order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &[E])> {
        (0..self.keys.len()).map(|i| (self.keys[i], self.bucket_at(i)))
    }
}

impl<E: fairnn_snapshot::SliceCodec> fairnn_snapshot::Codec for FrozenTable<E> {
    /// Persists the CSR triplet `(keys, offsets, entries)` **and** the
    /// radix directory, each as a v3 aligned array
    /// ([`fairnn_snapshot::SliceCodec`]). When decoded from a snapshot
    /// image every array is a zero-copy borrow, and because the directory
    /// travels with the data (validated below) the load allocates no
    /// per-table array and does no per-entry work.
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        u64::encode_slice(&self.keys, enc);
        u32::encode_slice(&self.offsets, enc);
        E::encode_slice(&self.entries, enc);
        u32::encode_slice(&self.dir, enc);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        use fairnn_snapshot::SnapshotError;
        let keys = u64::decode_slice(dec)?;
        let offsets = u32::decode_slice(dec)?;
        let entries = E::decode_slice(dec)?;
        let dir = u32::decode_slice(dec)?;
        if offsets.len() != keys.len() + 1 {
            return Err(SnapshotError::Corrupt(format!(
                "frozen table has {} keys but {} offsets (expected one more than keys)",
                keys.len(),
                offsets.len()
            )));
        }
        if offsets.first() != Some(&0) {
            return Err(SnapshotError::Corrupt(
                "frozen table offsets must start at 0".into(),
            ));
        }
        // The directory's shape. With the per-key check below, a stored
        // directory that passes is exactly the one `directory` derives: a
        // monotone count from 0 to the key count under which every key
        // lies in its own cell. A lookup then trusts it blindly.
        let bits = cell_bits(keys.len());
        let cells = 1usize << bits;
        if dir.len() != cells + 1 {
            return Err(SnapshotError::Corrupt(format!(
                "frozen table directory has {} counts but {} keys require {}",
                dir.len(),
                keys.len(),
                cells + 1
            )));
        }
        if dir[0] != 0 {
            return Err(SnapshotError::Corrupt(
                "frozen table directory must start at 0".into(),
            ));
        }
        if dir[cells] as usize != keys.len() {
            return Err(SnapshotError::Corrupt(format!(
                "frozen table directory ends at {} but the table has {} keys",
                dir[cells],
                keys.len()
            )));
        }
        let falling = dir
            .iter()
            .zip(&dir[1..])
            .fold(false, |f, (a, b)| f | (a > b));
        if falling {
            return Err(SnapshotError::Corrupt(
                "frozen table directory is not non-decreasing".into(),
            ));
        }
        // One pass over keys, offsets and their directory cells,
        // accumulating every check instead of branching on each element;
        // the error reported is still the first check that fails, in the
        // order they are listed. The key count fits a `u32`: it is the
        // directory's last count.
        let (mut decreasing, mut unordered, mut misplaced) = (false, false, false);
        let mut previous = 0;
        for ((i, &key), (start, end)) in (0u32..)
            .zip(&keys[..])
            .zip(offsets.iter().zip(&offsets[1..]))
        {
            decreasing |= start > end;
            unordered |= (i > 0) & (key <= previous);
            let c = cell(key, bits);
            misplaced |= (i < dir[c]) | (i >= dir[c + 1]);
            previous = key;
        }
        if decreasing {
            return Err(SnapshotError::Corrupt(
                "frozen table offsets are not non-decreasing".into(),
            ));
        }
        let total = offsets[keys.len()];
        if total as usize != entries.len() {
            return Err(SnapshotError::Corrupt(format!(
                "frozen table final offset {total} does not match {} entries",
                entries.len()
            )));
        }
        if unordered {
            return Err(SnapshotError::Corrupt(
                "frozen table keys are not strictly increasing".into(),
            ));
        }
        if misplaced {
            return Err(SnapshotError::Corrupt(
                "frozen table directory puts a key outside its own cell".into(),
            ));
        }
        let table = Self {
            keys,
            offsets,
            entries,
            dir,
        };
        table.debug_assert_csr_invariants();
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> FrozenTable<u32> {
        FrozenTable::from_buckets(vec![
            (9, vec![7, 3, 5]),
            (2, vec![1]),
            (400, vec![9, 9, 2, 4]),
        ])
    }

    #[test]
    fn lookup_preserves_bucket_contents_and_order() {
        let table = sample_table();
        assert_eq!(table.bucket(9), &[7, 3, 5]);
        assert_eq!(table.bucket(2), &[1]);
        assert_eq!(table.bucket(400), &[9, 9, 2, 4]);
        assert!(table.bucket(3).is_empty());
        assert_eq!(table.num_buckets(), 3);
        assert_eq!(table.num_entries(), 8);
        assert_eq!(table.max_bucket_size(), 4);
    }

    #[test]
    fn buckets_iterate_in_key_order() {
        let table = sample_table();
        let keys: Vec<u64> = table.buckets().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![2, 9, 400]);
        assert_eq!(table.key_at(0), 2);
        assert_eq!(table.find(9), Some(1));
        assert_eq!(table.find(10), None);
    }

    #[test]
    fn entry_ranges_index_the_entry_array() {
        let table = sample_table();
        for key in [2, 9, 400, 3, 10] {
            table.prefetch(key);
            table.prefetch_probe(key);
            let (start, end) = table.entry_range(key);
            assert_eq!(
                &table.entries()[start as usize..end as usize],
                table.bucket(key),
                "key {key}"
            );
        }
        assert_eq!(table.entry_range(3), (0, 0), "absent key");
        assert_eq!(FrozenTable::<u32>::new().entry_range(7), (0, 0));
    }

    #[test]
    fn bucket_mut_allows_in_place_rearrangement() {
        let mut table = sample_table();
        table.bucket_mut(9).expect("bucket exists").sort_unstable();
        assert_eq!(table.bucket(9), &[3, 5, 7]);
        assert_eq!(table.bucket(2), &[1], "sibling buckets untouched");
        assert!(table.bucket_mut(77).is_none());
    }

    #[test]
    fn refreezing_the_listed_buckets_is_lossless() {
        let table = sample_table();
        let listed: Vec<(u64, Vec<u32>)> = table.buckets().map(|(k, b)| (k, b.to_vec())).collect();
        assert_eq!(
            listed,
            vec![(2, vec![1]), (9, vec![7, 3, 5]), (400, vec![9, 9, 2, 4])]
        );
        assert_eq!(FrozenTable::from_buckets(listed), table);
    }

    /// No remap: every entry is kept as it is.
    const IDENTITY: Option<fn(&u32) -> Option<u32>> = None;

    #[test]
    fn merge_appends_to_buckets_and_creates_new_ones() {
        let table = sample_table();
        // Known keys only: the key array and directory carry over.
        let grown = table.updated(IDENTITY, &[(2, 8), (400, 6), (400, 1)]);
        assert_eq!(grown.bucket(2), &[1, 8]);
        assert_eq!(grown.bucket(9), &[7, 3, 5]);
        assert_eq!(grown.bucket(400), &[9, 9, 2, 4, 6, 1]);
        assert_eq!(grown.dir, table.dir);
        // New keys before, between and after the old ones.
        let wider = table.updated(IDENTITY, &[(1, 0), (9, 4), (10, 2), (500, 3)]);
        let expected = FrozenTable::from_buckets(vec![
            (1, vec![0]),
            (2, vec![1]),
            (9, vec![7, 3, 5, 4]),
            (10, vec![2]),
            (400, vec![9, 9, 2, 4]),
            (500, vec![3]),
        ]);
        assert_eq!(wider, expected);
        assert_eq!(
            FrozenTable::new()
                .updated(IDENTITY, &[(3, 1), (3, 2)])
                .bucket(3),
            &[1, 2]
        );
        assert_eq!(table.updated(IDENTITY, &[]), table);
    }

    #[test]
    fn compacted_drops_entries_and_emptied_buckets() {
        let table = sample_table();
        let kept = table.updated(Some(|&e: &u32| (e != 1 && e != 9).then_some(e * 10)), &[]);
        let expected = FrozenTable::from_buckets(vec![(9, vec![70, 30, 50]), (400, vec![20, 40])]);
        assert_eq!(kept, expected);
        assert_eq!(kept.find(2), None);
        let renamed = table.updated(Some(|&e: &u32| Some(e + 1)), &[]);
        assert_eq!(renamed.bucket(400), &[10, 10, 3, 5]);
        assert_eq!(renamed.dir, table.dir);
        assert_eq!(table.updated(Some(|_: &u32| None), &[]), FrozenTable::new());
    }

    #[test]
    fn a_remap_drops_buckets_that_were_empty_and_no_remap_keeps_them() {
        let table = FrozenTable::from_buckets(vec![(1, vec![]), (5, vec![3, 4]), (7, vec![])]);
        let renamed = table.updated(Some(|&e: &u32| Some(e + 1)), &[]);
        assert_eq!(renamed, FrozenTable::from_buckets(vec![(5, vec![4, 5])]));
        let appended = table.updated(Some(|&e: &u32| (e != 4).then_some(e)), &[(9, 2)]);
        assert_eq!(
            appended,
            FrozenTable::from_buckets(vec![(5, vec![3]), (9, vec![2])])
        );
        assert_eq!(table.updated(IDENTITY, &[]), table);
    }

    #[test]
    fn snapshot_decode_from_an_owning_buffer_is_zero_copy() {
        use fairnn_snapshot::{ArcBytes, Codec, Section};
        let table = sample_table();
        let mut enc = fairnn_snapshot::Encoder::new();
        table.encode(&mut enc);
        let owner = ArcBytes::copy_from_slice(&enc.into_bytes()).expect("buffer");
        let section = Section::with_owner(owner.as_slice(), &owner, 0);
        let mut dec = section.decoder();
        let loaded = FrozenTable::<u32>::decode(&mut dec).expect("decode");
        dec.finish().expect("fully consumed");
        assert_eq!(loaded, table);
        assert!(loaded.keys.is_borrowed(), "keys must borrow the image");
        assert!(
            loaded.offsets.is_borrowed(),
            "offsets must borrow the image"
        );
        assert!(
            loaded.entries.is_borrowed(),
            "entries must borrow the image"
        );
        assert!(loaded.dir.is_borrowed(), "dir must borrow the image");
        assert_eq!(loaded.bucket(9), &[7, 3, 5]);
        assert_eq!(loaded.find(400), Some(2));
    }

    #[test]
    fn directories_count_the_keys_below_each_cell() {
        // Three keys get 2 cells; small keys all share cell 0, and a
        // search within it still finds each one.
        let table = sample_table();
        assert_eq!(&table.dir[..], &[0, 3, 3]);
        for (i, key) in [2, 9, 400].into_iter().enumerate() {
            assert_eq!(table.find(key), Some(i));
        }
        // Keys spread over the top bits get a cell each, empty ones too.
        let spread = FrozenTable::from_buckets([0u64, 1, 3, 7].map(|k| (k << 61, vec![k as u32])));
        assert_eq!(&spread.dir[..], &[0, 2, 3, 3, 4]);
        assert_eq!(spread.find(7 << 61), Some(3));
        assert_eq!(spread.find(5 << 61), None);
        // No key and one key index no bits: one cell, no shift by 64.
        assert_eq!(&FrozenTable::<u32>::new().dir[..], &[0, 0]);
        let single = FrozenTable::from_buckets([(u64::MAX, vec![1u32])]);
        assert_eq!(&single.dir[..], &[0, 1]);
        assert_eq!(single.find(u64::MAX), Some(0));
        assert_eq!(single.find(0), None);
    }

    #[test]
    fn corrupt_directories_are_rejected() {
        use fairnn_snapshot::{Codec, Decoder, Encoder, SliceCodec, SnapshotError};
        let table = sample_table();
        let decode = |dir: &[u32]| {
            let mut enc = Encoder::new();
            u64::encode_slice(&table.keys, &mut enc);
            u32::encode_slice(&table.offsets, &mut enc);
            u32::encode_slice(&table.entries, &mut enc);
            u32::encode_slice(dir, &mut enc);
            FrozenTable::<u32>::decode(&mut Decoder::new(&enc.into_bytes()))
        };
        assert_eq!(decode(&[0, 3, 3]).expect("intact"), table);
        // Three keys need 2 cells, so 3 counts ending at 3.
        for (dir, needle) in [
            (&[0, 3][..], "has 2 counts but 3 keys require 3"),
            (&[0, 1, 2, 3], "has 4 counts"),
            (&[1, 3, 3], "directory must start at 0"),
            (&[0, 2, 2], "ends at 2 but the table has 3 keys"),
            (&[0, 4, 3], "directory is not non-decreasing"),
            // Monotone from 0 to 3, but key 400 (cell 0) is put in cell 1.
            (&[0, 2, 3], "outside its own cell"),
            (&[0, 0, 3], "outside its own cell"),
        ] {
            let result = decode(dir);
            assert!(
                matches!(&result, Err(SnapshotError::Corrupt(msg)) if msg.contains(needle)),
                "dir {dir:?}: expected {needle:?}, got {result:?}"
            );
        }
    }

    #[test]
    fn corrupt_csr_arrays_are_rejected() {
        use fairnn_snapshot::{Codec, Decoder, Encoder, SliceCodec, SnapshotError};
        let table = sample_table();
        // The sample's own keys [2, 9, 400], offsets [0, 1, 4, 8], eight
        // entries and directory, with one array swapped out.
        let decode = |keys: &[u64], offsets: &[u32]| {
            let mut enc = Encoder::new();
            u64::encode_slice(keys, &mut enc);
            u32::encode_slice(offsets, &mut enc);
            u32::encode_slice(&table.entries, &mut enc);
            u32::encode_slice(&table.dir, &mut enc);
            FrozenTable::<u32>::decode(&mut Decoder::new(&enc.into_bytes()))
        };
        let rejected = |keys: &[u64], offsets: &[u32], needle: &str| {
            let result = decode(keys, offsets);
            assert!(
                matches!(&result, Err(SnapshotError::Corrupt(msg)) if msg.contains(needle)),
                "keys {keys:?}, offsets {offsets:?}: expected {needle:?}, got {result:?}"
            );
        };
        let keys = &table.keys[..];
        assert_eq!(decode(keys, &table.offsets).expect("intact"), table);

        rejected(keys, &[0, 1, 4], "expected one more than keys");
        rejected(keys, &[1, 1, 4, 8], "offsets must start at 0");
        rejected(keys, &[0, 4, 1, 8], "offsets are not non-decreasing");
        rejected(
            keys,
            &[0, 1, 4, 7],
            "final offset 7 does not match 8 entries",
        );
        rejected(
            &[2, 9, 9],
            &table.offsets,
            "keys are not strictly increasing",
        );
        rejected(
            &[9, 2, 400],
            &table.offsets,
            "keys are not strictly increasing",
        );
        // A decreasing offset is named before a bad final offset or key
        // order, as the checks run in that order.
        rejected(
            &[2, 2, 400],
            &[0, 4, 1, 7],
            "offsets are not non-decreasing",
        );
        rejected(&[2, 2, 400], &[0, 1, 4, 7], "final offset 7");
    }

    #[test]
    fn empty_table_behaves() {
        let table: FrozenTable<u32> = FrozenTable::new();
        assert_eq!(table.num_buckets(), 0);
        assert_eq!(table.num_entries(), 0);
        assert_eq!(table.max_bucket_size(), 0);
        assert!(table.bucket(0).is_empty());
        assert_eq!(table.buckets().count(), 0);
    }
}
