//! `fairnn-obs`: the workspace's observability core — lock-free metrics,
//! scoped tracing spans, and the single timing seam.
//!
//! The crate sits at the very bottom of the stack (it depends on nothing,
//! std only) so every layer — `fairnn-parallel`, `fairnn-snapshot`,
//! `fairnn-lsh`, `fairnn-engine`, `fairnn-bench` — can record into it
//! without dependency cycles. Three sub-systems:
//!
//! * [`metrics`] / [`registry`] — atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log-scale [`Histogram`]s, named and rendered through the
//!   global [`MetricsRegistry`] in Prometheus text format or JSON. Per-site
//!   [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] statics keep the hot
//!   path allocation-free: one relaxed load when observability is off, one
//!   relaxed atomic add when it is on. [`HistogramShard`] is the mergeable
//!   per-thread form — merging is pure bucket-wise addition (commutative and
//!   associative, the same discipline as the KMV sketch merges), so
//!   aggregated totals are identical at any thread count and merge order.
//! * [`mod@span`] — a scoped-span facade (`span!("shard.sample", shard = i)`)
//!   writing `{name, key, value, start, duration}` events into a bounded
//!   ring buffer. Compiled down to a single relaxed load unless tracing is
//!   enabled; it never touches RNG streams or output ordering, so the
//!   seed-pinned goldens stay byte-identical with tracing on (enforced by
//!   the integration tests).
//! * [`clock`] — the injectable [`Clock`] trait (monotonic + wall). This
//!   crate is the only place in the workspace allowed to call
//!   `Instant::now()`/`SystemTime::now()`; `clippy.toml` disallows those
//!   calls everywhere else, which is what keeps timing reviewable in one
//!   spot.
//!
//! Everything is gated on a single process-global switch ([`set_enabled`]):
//! disabled (the default), every instrument is one relaxed `AtomicBool`
//! load — measured well below the 3% overhead budget the `obs_overhead`
//! bench binary enforces even when *enabled*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod registry;
pub mod span;

pub use clock::{monotonic_ns, wall_unix_ns, Clock, ManualClock, SystemClock, Timer};
pub use metrics::{Counter, Gauge, Histogram, HistogramShard, BUCKETS};
pub use registry::{
    global, LazyCounter, LazyGauge, LazyHistogram, MetricKind, MetricSnapshot, MetricsRegistry,
};
pub use span::{drain_events, set_tracing_enabled, tracing_enabled, SpanEvent, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-global observability switch. Off by default: all recording
/// macros and helpers collapse to one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric recording is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off for the whole process.
///
/// The switch only gates *recording*; registered metrics keep their
/// accumulated values, and [`MetricsRegistry::render_prometheus`] /
/// [`MetricsRegistry::render_json`] work regardless.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_toggle_round_trips() {
        // Tests in this binary share the process-global switch; restore it.
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
