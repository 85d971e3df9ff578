//! Reusable per-query scratch space.
//!
//! The reference-style query path allocated on every call: a `Vec<u64>` of
//! bucket keys, an `O(n)` `vec![false; n]` visited array, and a candidate
//! vector. [`QueryScratch`] owns all three so a sampler (or a worker thread)
//! pays for them once and reuses them for every subsequent query;
//! [`VisitedSet`] replaces the boolean array with an epoch-stamped buffer
//! that resets in `O(1)` instead of `O(n)`.

use fairnn_space::PointId;

/// An epoch-stamped visited set over dense indices `0..n`.
///
/// `reset(n)` bumps the epoch instead of clearing the buffer, so starting a
/// new query costs `O(1)` once the buffer has grown to `n`. On the (once per
/// `u32::MAX` queries) epoch wrap the buffer is zeroed to keep stale stamps
/// from aliasing the new epoch.
#[derive(Debug, Clone, Default)]
pub struct VisitedSet {
    epoch: u32,
    stamps: Vec<u32>,
}

impl VisitedSet {
    /// An empty visited set. Call [`VisitedSet::reset`] before the first
    /// insertion.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new query over indices `0..n`: grows the buffer if needed
    /// and advances the epoch, invalidating every previous stamp.
    pub fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(epoch) => epoch,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// Marks `index` as visited. Returns `true` when it was not yet visited
    /// in the current epoch.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let stamp = &mut self.stamps[index];
        if *stamp == self.epoch {
            false
        } else {
            *stamp = self.epoch;
            true
        }
    }

    /// Whether `index` has been visited in the current epoch.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.stamps.get(index).is_some_and(|&s| s == self.epoch)
    }
}

/// An epoch-stamped memo of per-point predicate results (near / not near)
/// for the current query.
///
/// A multi-table LSH query meets the same point in many buckets — a cluster
/// member collides with the query in most of the `L` tables — and the
/// distance predicate (a Jaccard merge, a dot product) is far more expensive
/// than a lookup. Memoizing per query caps the predicate evaluations at one
/// per *distinct* candidate without changing any outcome: the predicate is
/// a pure function of (query, point).
#[derive(Debug, Clone, Default)]
pub struct DistanceMemo {
    epoch: u32,
    stamps: Vec<u32>,
    near: Vec<bool>,
}

impl DistanceMemo {
    /// An empty memo. Call [`DistanceMemo::reset`] before the first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new query over indices `0..n` in `O(1)` (amortised).
    pub fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.near.resize(n, false);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(epoch) => epoch,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// The memoized result for `index` in the current epoch, if any.
    #[inline]
    pub fn get(&self, index: usize) -> Option<bool> {
        (self.stamps[index] == self.epoch).then(|| self.near[index])
    }

    /// Memoizes `is_near` for `index` and returns it.
    #[inline]
    pub fn set(&mut self, index: usize, is_near: bool) -> bool {
        self.stamps[index] = self.epoch;
        self.near[index] = is_near;
        is_near
    }

    /// The memoized result, computing and storing it on a miss.
    #[inline]
    pub fn get_or_insert_with(&mut self, index: usize, compute: impl FnOnce() -> bool) -> bool {
        match self.get(index) {
            Some(is_near) => is_near,
            None => self.set(index, compute()),
        }
    }
}

/// Per-query scratch buffers, reused across queries so the steady-state hot
/// path performs no heap allocation.
///
/// Samplers own one (they take `&mut self` per query); the engine's worker
/// threads keep one per thread. All buffers are plain storage — no query
/// state survives from one call to the next beyond capacity.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Per-table bucket keys of the current query (filled by
    /// [`crate::HasherBank::query_keys_into`]).
    pub keys: Vec<u64>,
    /// Cross-table deduplication of scanned point ids.
    pub visited: VisitedSet,
    /// Candidate / result accumulator.
    pub candidates: Vec<PointId>,
    /// Small index accumulator (table visiting orders, per-table bucket
    /// indices and similar).
    pub indices: Vec<u32>,
    /// Per-query memo of distance-predicate results.
    pub memo: DistanceMemo,
    /// Floating-point accumulator (sketch estimate medians and similar).
    pub floats: Vec<f64>,
}

impl QueryScratch {
    /// Empty scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_set_tracks_per_epoch() {
        let mut visited = VisitedSet::new();
        visited.reset(4);
        assert!(visited.insert(1));
        assert!(!visited.insert(1), "second insert is a duplicate");
        assert!(visited.contains(1));
        assert!(!visited.contains(0));
        visited.reset(4);
        assert!(!visited.contains(1), "reset invalidates previous epoch");
        assert!(visited.insert(1));
    }

    #[test]
    fn visited_set_grows_monotonically() {
        let mut visited = VisitedSet::new();
        visited.reset(2);
        assert!(visited.insert(0));
        visited.reset(10);
        assert!(visited.insert(9));
        assert!(!visited.contains(0));
        // Shrinking the logical range keeps the larger buffer.
        visited.reset(1);
        assert!(visited.insert(0));
    }

    #[test]
    fn visited_set_survives_epoch_wrap() {
        let mut visited = VisitedSet {
            epoch: u32::MAX - 1,
            stamps: vec![u32::MAX - 1; 3],
        };
        // Everything is "visited" at the current epoch.
        assert!(visited.contains(0));
        visited.reset(3); // epoch -> MAX
        assert!(visited.insert(0));
        visited.reset(3); // wrap: buffer zeroed, epoch -> 1
        assert!(!visited.contains(0), "stale stamps must not alias");
        assert!(visited.insert(0));
        assert!(!visited.insert(0));
    }

    #[test]
    fn distance_memo_caches_per_epoch() {
        let mut memo = DistanceMemo::new();
        memo.reset(3);
        assert_eq!(memo.get(0), None);
        let mut evaluations = 0;
        let near = memo.get_or_insert_with(0, || {
            evaluations += 1;
            true
        });
        assert!(near);
        assert!(memo.get_or_insert_with(0, || unreachable!("memoized")));
        assert_eq!(evaluations, 1);
        assert_eq!(memo.get(0), Some(true));
        assert!(!memo.set(1, false));
        assert_eq!(memo.get(1), Some(false));
        memo.reset(3);
        assert_eq!(memo.get(0), None, "reset invalidates the memo");
    }

    #[test]
    fn distance_memo_survives_epoch_wrap() {
        let mut memo = DistanceMemo {
            epoch: u32::MAX,
            stamps: vec![u32::MAX; 2],
            near: vec![true; 2],
        };
        assert_eq!(memo.get(0), Some(true));
        memo.reset(2); // wrap: stamps zeroed, epoch -> 1
        assert_eq!(memo.get(0), None, "stale stamps must not alias");
    }

    #[test]
    fn contains_is_false_out_of_range() {
        let mut visited = VisitedSet::new();
        visited.reset(2);
        assert!(!visited.contains(100));
    }

    #[test]
    fn scratch_is_plain_reusable_storage() {
        let mut scratch = QueryScratch::new();
        scratch.keys.push(7);
        scratch.candidates.push(PointId(3));
        scratch.indices.push(1);
        scratch.visited.reset(2);
        assert!(scratch.visited.insert(0));
        let clone = scratch.clone();
        assert_eq!(clone.keys, vec![7]);
        assert_eq!(clone.candidates, vec![PointId(3)]);
    }
}
