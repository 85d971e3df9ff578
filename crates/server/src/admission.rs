//! Admission control: the bounded connection budget and the per-client
//! token buckets.
//!
//! Everything here decides *before* a worker is spent on a connection
//! whether the server can afford it. The two levers are a hard cap on
//! admitted connections (beyond it: `503` + `Retry-After`, the load
//! shed) and a per-IP token bucket (beyond it: `429` + `Retry-After`,
//! the fairness backstop that keeps one chatty client from starving the
//! rest). Both run on the accept thread in O(1), so shedding stays cheap
//! exactly when the server is busiest.

use fairnn_obs::{monotonic_ns, LazyGauge};
use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "the network boundary")]
use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Mutex;

/// Connections currently admitted (accepted and not yet closed). The
/// `/healthz` saturation signal: compare against the configured cap.
pub(crate) static ACTIVE_CONNECTIONS: LazyGauge = LazyGauge::new(
    "server_active_connections",
    "connections currently admitted by the server (in-flight plus queued)",
);

/// Shared run state of one server: the drain flags plus the admitted-
/// connection count. Deliberately non-generic so [`crate::ServerHandle`]
/// stays non-generic too.
#[derive(Debug, Default)]
pub(crate) struct Control {
    /// Set once to stop accepting; in-flight connections finish their
    /// current exchange and close.
    draining: AtomicBool,
    /// Set when the drain deadline expires: connections abort even
    /// mid-exchange at the next poll slice.
    force_close: AtomicBool,
    /// Admitted connections (mirrors the gauge, readable without the
    /// registry).
    active: AtomicI64,
}

impl Control {
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn force_close(&self) {
        self.force_close.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_force_closed(&self) -> bool {
        self.force_close.load(Ordering::SeqCst)
    }

    pub(crate) fn active(&self) -> i64 {
        self.active.load(Ordering::SeqCst)
    }
}

/// An RAII admission slot, owned so it can ride into a worker closure
/// for the connection's whole lifetime. The slot (and the gauge unit)
/// is released on drop — panic or not, which is what keeps a crashing
/// connection from leaking capacity.
#[derive(Debug)]
pub(crate) struct OwnedPermit {
    control: std::sync::Arc<Control>,
}

impl OwnedPermit {
    /// Tries to admit one connection under `cap`; `None` is the shed
    /// signal (`503` + `Retry-After`).
    pub(crate) fn try_admit(control: &std::sync::Arc<Control>, cap: usize) -> Option<Self> {
        let prev = control.active.fetch_add(1, Ordering::SeqCst);
        if prev >= cap as i64 {
            control.active.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        ACTIVE_CONNECTIONS.add(1);
        Some(Self {
            control: std::sync::Arc::clone(control),
        })
    }
}

impl Drop for OwnedPermit {
    fn drop(&mut self) {
        self.control.active.fetch_sub(1, Ordering::SeqCst);
        ACTIVE_CONNECTIONS.add(-1);
    }
}

/// A token bucket per client IP: `rate` tokens per second refill,
/// `burst` capacity, one token per connection.
///
/// Time comes from [`fairnn_obs::monotonic_ns`] — the one clock
/// seam — so tests drive the buckets deterministically through a
/// `ManualClock`. A `rate` of 0 disables limiting entirely (every
/// `check` admits).
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "the network boundary")]
pub(crate) struct RateLimiter {
    rate_per_sec: u64,
    burst: u64,
    buckets: Mutex<BTreeMap<IpAddr, Bucket>>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Tokens scaled by 1e9 (nanotokens), so refill arithmetic stays in
    /// integers: one token = 1_000_000_000 nanotokens.
    nano_tokens: u64,
    last_refill_ns: u64,
}

const NANO: u64 = 1_000_000_000;

impl RateLimiter {
    pub(crate) fn new(rate_per_sec: u64, burst: u64) -> Self {
        Self {
            rate_per_sec,
            burst: burst.max(1),
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    /// Spends one token for `ip` if available. Returns `Ok(())` or the
    /// suggested `Retry-After` backoff in whole seconds (≥ 1).
    #[expect(clippy::disallowed_types, reason = "the network boundary")]
    pub(crate) fn check(&self, ip: IpAddr) -> Result<(), u64> {
        if self.rate_per_sec == 0 {
            return Ok(());
        }
        let now = monotonic_ns();
        let cap = self.burst.saturating_mul(NANO);
        let mut buckets = match self.buckets.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let bucket = buckets.entry(ip).or_insert(Bucket {
            nano_tokens: cap,
            last_refill_ns: now,
        });
        let elapsed = now.saturating_sub(bucket.last_refill_ns);
        let refill = elapsed.saturating_mul(self.rate_per_sec);
        bucket.nano_tokens = bucket.nano_tokens.saturating_add(refill).min(cap);
        bucket.last_refill_ns = now;
        if bucket.nano_tokens >= NANO {
            bucket.nano_tokens -= NANO;
            Ok(())
        } else {
            // Whole seconds until one full token accrues, rounded up:
            // the bucket refills rate·1e9 nanotokens per second.
            let deficit = NANO - bucket.nano_tokens;
            let secs = deficit.div_ceil(self.rate_per_sec.saturating_mul(NANO));
            Err(secs.max(1))
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "the network boundary")]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    #[test]
    fn permits_enforce_the_cap_and_release_on_drop() {
        let control = Arc::new(Control::default());
        let a = OwnedPermit::try_admit(&control, 2).expect("slot 1");
        let _b = OwnedPermit::try_admit(&control, 2).expect("slot 2");
        assert!(
            OwnedPermit::try_admit(&control, 2).is_none(),
            "cap reached sheds"
        );
        assert_eq!(control.active(), 2);
        drop(a);
        assert_eq!(control.active(), 1);
        assert!(
            OwnedPermit::try_admit(&control, 2).is_some(),
            "released slot readmits"
        );
    }

    #[test]
    fn zero_rate_disables_limiting() {
        let rl = RateLimiter::new(0, 4);
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        for _ in 0..1000 {
            assert!(rl.check(ip).is_ok());
        }
    }

    #[test]
    fn burst_exhausts_then_backs_off() {
        let rl = RateLimiter::new(1, 3);
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let mut admitted = 0;
        let mut denied = 0;
        // The burst drains in far less than a second of real time, so at
        // most `burst` (+1 for a refill race on a slow machine) pass.
        for _ in 0..50 {
            match rl.check(ip) {
                Ok(()) => admitted += 1,
                Err(secs) => {
                    assert!(secs >= 1, "backoff hint is at least one second");
                    denied += 1;
                }
            }
        }
        assert!(admitted >= 3, "the full burst is admitted");
        assert!(admitted <= 4, "beyond the burst is denied");
        assert!(denied >= 46);
    }

    #[test]
    fn distinct_clients_have_distinct_buckets() {
        let rl = RateLimiter::new(1, 1);
        let a = IpAddr::V4(Ipv4Addr::new(127, 0, 0, 1));
        let b = IpAddr::V4(Ipv4Addr::new(127, 0, 0, 2));
        assert!(rl.check(a).is_ok());
        assert!(rl.check(a).is_err(), "a's bucket is spent");
        assert!(rl.check(b).is_ok(), "b is unaffected");
    }
}
