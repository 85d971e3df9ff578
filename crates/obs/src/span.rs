//! Scoped tracing spans with a bounded ring-buffer sink.
//!
//! `span!("shard.sample", shard = i)` opens a [`SpanGuard`] that records a
//! [`SpanEvent`] — name, optional `key = value` argument, start and
//! duration in monotonic nanoseconds — into a fixed-capacity ring buffer
//! when it drops. Tracing has its own switch ([`set_tracing_enabled`]),
//! separate from the metrics switch, and is off by default: a disabled
//! span is one relaxed load, no clock read, no allocation.
//!
//! The sink is deliberately lossy: the buffer keeps the most recent
//! [`RING_CAPACITY`] events and overwrites the oldest, so tracing can stay
//! on in a serving process without unbounded growth. A closing span takes
//! no lock: each thread buffers its events and moves them into the shared
//! ring in batches. Nothing here touches RNG state or reorders work — the
//! integration suite proves the seed-pinned goldens stay byte-identical
//! with tracing enabled.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::clock::monotonic_ns;

/// Maximum number of buffered span events; older events are overwritten.
pub const RING_CAPACITY: usize = 4096;

static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is currently enabled.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off for the whole process.
pub fn set_tracing_enabled(on: bool) {
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (`"shard.sample"`, `"snapshot.load"`, …).
    pub name: &'static str,
    /// Argument key from `span!(name, key = value)` (empty when none).
    pub key: &'static str,
    /// Argument value (0 when none).
    pub value: u64,
    /// Monotonic nanoseconds at span entry.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

static RING: Mutex<VecDeque<SpanEvent>> = Mutex::new(VecDeque::new());

/// Events a thread buffers before it moves them into the shared ring under
/// one lock, so a span's drop takes no lock on the way.
const LOCAL_BATCH: usize = 64;

/// A thread's not yet shared events; moved into the ring when full, when
/// the thread drains, and when the thread exits.
struct LocalEvents(Vec<SpanEvent>);

impl Drop for LocalEvents {
    fn drop(&mut self) {
        move_to_ring(&mut self.0);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalEvents> = const { RefCell::new(LocalEvents(Vec::new())) };
}

fn move_to_ring(events: &mut Vec<SpanEvent>) {
    if events.is_empty() {
        return;
    }
    let mut ring = RING.lock().expect("span ring poisoned");
    for event in events.drain(..) {
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }
}

fn push_event(event: SpanEvent) {
    let pushed = LOCAL.try_with(|local| {
        let events = &mut local.borrow_mut().0;
        events.push(event);
        if events.len() == LOCAL_BATCH {
            move_to_ring(events);
        }
    });
    // A span closing while its thread's buffer is torn down goes straight
    // to the ring.
    if pushed.is_err() {
        move_to_ring(&mut vec![event]);
    }
}

/// Drains and returns the buffered span events: the calling thread's, and
/// those other threads have moved into the shared ring (a thread does so
/// every 64 events and when it exits). Each thread's events come in the
/// order they closed, oldest first; batches from different threads come
/// in the order they reached the ring.
pub fn drain_events() -> Vec<SpanEvent> {
    let _ = LOCAL.try_with(|local| move_to_ring(&mut local.borrow_mut().0));
    RING.lock().expect("span ring poisoned").drain(..).collect()
}

/// An open span; records its event into the ring buffer on drop. Create
/// via the [`span!`](crate::span!) macro.
#[must_use = "a span measures the scope it is alive for"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    key: &'static str,
    value: u64,
    start_ns: Option<u64>,
}

impl SpanGuard {
    /// Opens a span (no-op unless tracing is enabled).
    #[inline]
    pub fn enter(name: &'static str, key: &'static str, value: u64) -> Self {
        let start_ns = tracing_enabled().then(monotonic_ns);
        Self {
            name,
            key,
            value,
            start_ns,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start_ns) = self.start_ns {
            let duration_ns = monotonic_ns().saturating_sub(start_ns);
            push_event(SpanEvent {
                name: self.name,
                key: self.key,
                value: self.value,
                start_ns,
                duration_ns,
            });
        }
    }
}

/// Opens a scoped span: `span!("shard.sample")` or
/// `span!("shard.sample", shard = i)`. Bind the result to keep the span
/// open for the scope: `let _span = span!(…);`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, "", 0)
    };
    ($name:expr, $key:ident = $value:expr) => {
        $crate::span::SpanGuard::enter($name, stringify!($key), $value as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring buffer and the tracing switch are process-global; keep the
    // assertions inside one test so parallel test threads cannot interleave.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a raw thread shows its buffered events reach the ring on exit"
    )]
    fn spans_record_only_when_enabled_and_ring_is_bounded() {
        set_tracing_enabled(false);
        {
            let _span = crate::span!("quiet.scope");
        }
        assert!(
            drain_events().is_empty(),
            "disabled spans must leave no events"
        );

        set_tracing_enabled(true);
        {
            let _span = crate::span!("shard.sample", shard = 3usize);
        }
        {
            let _span = crate::span!("plain.scope");
        }
        let events = drain_events();
        set_tracing_enabled(false);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].name, "shard.sample");
        assert_eq!(events[0].key, "shard");
        assert_eq!(events[0].value, 3);
        assert_eq!(events[1].name, "plain.scope");
        assert_eq!(events[1].key, "");

        // Overflow keeps the newest RING_CAPACITY events.
        set_tracing_enabled(true);
        for i in 0..(RING_CAPACITY + 10) {
            let _span = crate::span!("overflow.scope", i = i);
        }
        let events = drain_events();
        set_tracing_enabled(false);
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events[0].value, 10, "oldest events were overwritten");
        assert_eq!(events[RING_CAPACITY - 1].value, (RING_CAPACITY + 9) as u64);

        // A thread's buffered events reach the ring when it exits.
        set_tracing_enabled(true);
        std::thread::spawn(|| {
            for i in 0..3u64 {
                let _span = crate::span!("worker.scope", i = i);
            }
        })
        .join()
        .expect("worker thread");
        let events = drain_events();
        set_tracing_enabled(false);
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, [0, 1, 2], "{events:?}");
    }
}
