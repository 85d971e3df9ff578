//! Lock-free metric primitives: counters, gauges and log-scale histograms.
//!
//! Everything here is a plain set of `AtomicU64`s updated with relaxed
//! ordering — a metric is a *sum* of recorded events, and addition is
//! commutative and associative, so the total is independent of the
//! interleaving and of which thread recorded what. That is the same merge
//! discipline the KMV sketches use, and it is what makes the 1/2/8-thread
//! metrics-determinism test in `tests/` hold without any synchronisation on
//! the hot path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of histogram buckets: one per power of two of the recorded value
/// (`bucket i` holds values whose highest set bit is `i - 1`, bucket 0
/// holds the value 0), covering the full `u64` range.
pub const BUCKETS: usize = 65;

/// Index of the bucket a value lands in: 0 for 0, otherwise
/// `64 - leading_zeros` (i.e. `floor(log2(v)) + 1`).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
/// Bucket 0 holds exactly the value 0; bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i - 1]`.
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Upper-bound quantile estimate from a bucket-count snapshot.
///
/// The estimate is the inclusive upper bound ([`bucket_bound`]) of the
/// first bucket whose cumulative count reaches `ceil(q · total)` (and at
/// least 1), i.e. the smallest power-of-two bound guaranteed to be ≥ the
/// true `q`-quantile of the recorded multiset. Because it reads only the
/// bucket counts — a commutative sum — the estimate is invariant under
/// shard merge order (pinned by the proptest suite).
fn quantile_from_buckets(buckets: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_bound(i);
        }
    }
    bucket_bound(BUCKETS - 1)
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (tests and bench isolation only; racing
    /// with concurrent writers loses their in-flight increments).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (queue depths, in-flight work).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (use a negative value to decrease).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the gauge to zero (tests and bench isolation only).
    pub fn reset(&self) {
        self.set(0);
    }
}

/// A fixed-bucket log₂-scale histogram of `u64` values (latencies in
/// nanoseconds, bucket sizes, round counts).
///
/// The bucket layout is fixed at compile time ([`BUCKETS`] powers of two),
/// so recording is a single index computation plus one relaxed atomic add —
/// no allocation, no locks, and concurrent recorders from any number of
/// threads produce the exact totals of the serial run.
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket counts; the observation count is their sum, so a record
    /// is two atomic adds, not three.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Self {
            // Inline-const repeat: each element is a fresh atomic
            // (`[AtomicU64::new(0); BUCKETS]` would need Copy).
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Merges a local shard into this histogram: bucket-wise addition, one
    /// atomic add per non-empty bucket.
    pub fn merge_shard(&self, shard: &HistogramShard) {
        for (i, &n) in shard.buckets.iter().enumerate() {
            if n != 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        if shard.count != 0 {
            self.sum.fetch_add(shard.sum, Ordering::Relaxed);
        }
    }

    /// Number of recorded observations (the sum of the bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values (wraps on overflow, like Prometheus).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, lowest bucket first.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile of the recorded values
    /// (`q` clamped to `[0, 1]`; 0 for an empty histogram).
    ///
    /// Returns the inclusive upper bound of the first bucket whose
    /// cumulative count reaches `ceil(q · count)` — the smallest
    /// power-of-two bound guaranteed to be ≥ the true quantile. The
    /// estimate is a pure function of the bucket counts, so it is
    /// independent of recording thread count and shard merge order.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets(), q)
    }

    /// Median upper bound (`quantile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th-percentile upper bound (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile upper bound (`quantile(0.999)`).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Resets all buckets (tests and bench isolation only; not atomic with
    /// respect to concurrent recorders).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A plain, single-owner histogram shard: the per-thread accumulation form.
///
/// Workers record into a local shard (plain `u64` adds, no atomics at all)
/// and merge it into the shared [`Histogram`] once at the end of their
/// chunk. [`HistogramShard::merge`] is bucket-wise addition, so shards
/// merge associatively and in any order to identical totals — the property
/// the proptest suite pins down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramShard {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for HistogramShard {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramShard {
    /// Creates an empty shard.
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation (plain arithmetic, no atomics).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Merges `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramShard) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts, lowest bucket first.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper-bound estimate of the `q`-quantile (see
    /// [`Histogram::quantile`] for the exact semantics).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets, q)
    }

    /// Median upper bound (`quantile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th-percentile upper bound (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile upper bound (`quantile(0.999)`).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value lands in the bucket whose bound is the first >= it.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_of(v);
            assert!(v <= bucket_bound(i), "{v} above bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "{v} fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn counter_and_gauge_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_records_and_summarises() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        let buckets = h.buckets();
        assert_eq!(buckets[bucket_of(0)], 1);
        assert_eq!(buckets[bucket_of(1)], 2);
        assert_eq!(buckets[bucket_of(5)], 1);
        assert_eq!(buckets[bucket_of(1000)], 1);
        assert!((h.mean() - 201.4).abs() < 1e-9);
    }

    #[test]
    fn shard_merge_matches_direct_recording() {
        let mut a = HistogramShard::new();
        let mut b = HistogramShard::new();
        let mut direct = HistogramShard::new();
        for v in [3u64, 9, 1, 0] {
            a.record(v);
            direct.record(v);
        }
        for v in [1u64, 1 << 40, 17] {
            b.record(v);
            direct.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, direct, "merge equals direct recording");
        assert_eq!(ba, direct, "merge is order-independent");
    }

    #[test]
    fn shard_flush_into_shared_histogram() {
        let h = Histogram::new();
        let mut s = HistogramShard::new();
        s.record(4);
        s.record(4096);
        h.merge_shard(&s);
        h.record(4);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 4104);
        assert_eq!(h.buckets()[bucket_of(4)], 2);
    }

    #[test]
    fn quantile_reports_upper_bucket_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantile is 0");
        for v in 1..=100u64 {
            h.record(v);
        }
        // The true p50 is 50, which lands in bucket [32, 63]; the estimate
        // is that bucket's inclusive upper bound.
        assert_eq!(h.p50(), 63);
        assert_eq!(h.quantile(0.5), bucket_bound(bucket_of(50)));
        // p99 → rank 99 → value 99 → bucket [64, 127].
        assert_eq!(h.p99(), bucket_bound(bucket_of(99)));
        // p999 → rank ceil(99.9) = 100 → value 100, same bucket as 99.
        assert_eq!(h.p999(), bucket_bound(bucket_of(100)));
        // Extreme and out-of-range q are clamped.
        assert_eq!(h.quantile(0.0), bucket_bound(bucket_of(1)));
        assert_eq!(h.quantile(1.0), bucket_bound(bucket_of(100)));
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_never_underestimates() {
        // For every q, the estimate must be >= the true quantile of the
        // recorded multiset (upper-bucket-bound semantics).
        let values = [0u64, 1, 1, 7, 8, 9, 1 << 20, u64::MAX];
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values;
        sorted.sort_unstable();
        for (i, q) in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .enumerate()
        {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            assert!(
                h.quantile(*q) >= truth,
                "case {i}: q={q} estimate {} below true {truth}",
                h.quantile(*q)
            );
        }
    }

    #[test]
    fn shard_quantile_matches_histogram_quantile() {
        let h = Histogram::new();
        let mut s = HistogramShard::new();
        for v in [5u64, 90, 1000, 12, 3] {
            h.record(v);
            s.record(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), s.quantile(q));
        }
        assert_eq!(s.p50(), h.p50());
        assert_eq!(s.p99(), h.p99());
        assert_eq!(s.p999(), h.p999());
        assert_eq!(HistogramShard::new().quantile(0.9), 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "raw threads record concurrently into one histogram"
    )]
    fn concurrent_histogram_totals_are_exact() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        let expected: u64 = (0..4000u64).sum();
        assert_eq!(h.sum(), expected);
    }
}
