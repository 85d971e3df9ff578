//! The injectable [`Clock`] seam: the one place in the workspace that may
//! read `Instant::now()`/`SystemTime::now()`.
//!
//! Every instrumented crate asks *this* module for time, through a
//! process-global `&'static dyn Clock` that tests can swap for a
//! [`ManualClock`]. `clippy.toml` disallows the `Instant` and `SystemTime`
//! types and their `now` everywhere else, so reviewing the workspace's
//! timing behaviour means reviewing the `#[expect]`s in this file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
#[expect(clippy::disallowed_types, reason = "the clock seam")]
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::registry::LazyHistogram;

/// A source of monotonic and wall time, injectable for tests.
pub trait Clock: Send + Sync {
    /// Nanoseconds on a monotonic clock with an arbitrary epoch. Only
    /// differences are meaningful.
    fn monotonic_ns(&self) -> u64;

    /// Nanoseconds since the Unix epoch on the wall clock (0 if the system
    /// clock is before the epoch).
    fn wall_unix_ns(&self) -> u64;
}

/// The real clock: `Instant` anchored at first use, `SystemTime` for wall
/// time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

/// The `Instant` all monotonic readings are measured from, fixed at the
/// first reading so the u64 nanosecond values stay small.
#[expect(clippy::disallowed_types, reason = "the clock seam")]
static ANCHOR: OnceLock<Instant> = OnceLock::new();

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the clock seam"
)]
impl Clock for SystemClock {
    fn monotonic_ns(&self) -> u64 {
        let anchor = *ANCHOR.get_or_init(Instant::now);
        u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn wall_unix_ns(&self) -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .ok()
            .and_then(|d| u64::try_from(d.as_nanos()).ok())
            .unwrap_or(0)
    }
}

/// A hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    mono: AtomicU64,
    wall: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at monotonic 0 / wall 0.
    pub const fn new() -> Self {
        Self {
            mono: AtomicU64::new(0),
            wall: AtomicU64::new(0),
        }
    }

    /// Advances both readings by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.mono.fetch_add(ns, Ordering::Relaxed);
        self.wall.fetch_add(ns, Ordering::Relaxed);
    }

    /// Sets the wall reading (monotonic is only ever advanced).
    pub fn set_wall_unix_ns(&self, ns: u64) {
        self.wall.store(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn monotonic_ns(&self) -> u64 {
        self.mono.load(Ordering::Relaxed)
    }

    fn wall_unix_ns(&self) -> u64 {
        self.wall.load(Ordering::Relaxed)
    }
}

/// The process-global clock. Defaults to [`SystemClock`]; settable exactly
/// once (before first use) via [`set_clock`].
static CLOCK: OnceLock<&'static dyn Clock> = OnceLock::new();

/// Injects the process-global clock. Returns `false` when a clock (or the
/// default) is already in place — callers that need a guaranteed manual
/// clock should inject it before any instrumentation runs.
pub fn set_clock(clock: &'static dyn Clock) -> bool {
    CLOCK.set(clock).is_ok()
}

fn clock() -> &'static dyn Clock {
    *CLOCK.get_or_init(|| &SystemClock)
}

/// Monotonic nanoseconds from the process-global clock.
#[inline]
pub fn monotonic_ns() -> u64 {
    clock().monotonic_ns()
}

/// Wall nanoseconds since the Unix epoch from the process-global clock.
#[inline]
pub fn wall_unix_ns() -> u64 {
    clock().wall_unix_ns()
}

/// A scoped timer recording elapsed monotonic nanoseconds into a
/// [`LazyHistogram`] on drop.
///
/// Inert when observability is disabled: no clock read on construction and
/// none on drop, so the disabled cost is one relaxed load.
#[must_use = "a timer measures the scope it is alive for"]
#[derive(Debug)]
pub struct Timer {
    target: &'static LazyHistogram,
    start_ns: Option<u64>,
}

impl Timer {
    /// Starts timing into `target` (no-op when observability is off).
    #[inline]
    pub fn start(target: &'static LazyHistogram) -> Self {
        let start_ns = crate::enabled().then(monotonic_ns);
        Self { target, start_ns }
    }

    /// Stops the timer early and records, consuming it.
    pub fn stop(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start_ns {
            let elapsed = monotonic_ns().saturating_sub(start);
            self.target.record(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock;
        let a = c.monotonic_ns();
        let b = c.monotonic_ns();
        assert!(b >= a);
        // Wall time is after 2020-01-01 on any sane build machine.
        assert!(c.wall_unix_ns() > 1_577_836_800_000_000_000);
    }

    #[test]
    fn manual_clock_advances_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.monotonic_ns(), 0);
        c.advance_ns(250);
        assert_eq!(c.monotonic_ns(), 250);
        assert_eq!(c.wall_unix_ns(), 250);
        c.set_wall_unix_ns(1_000_000);
        assert_eq!(c.wall_unix_ns(), 1_000_000);
        assert_eq!(c.monotonic_ns(), 250, "wall set leaves monotonic alone");
    }
}
