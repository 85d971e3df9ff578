//! The read half of the generational engine: cheap-to-clone handles that
//! pin an epoch and query it.
//!
//! An [`EngineReader`] is a pointer-sized handle onto the writer's shared
//! generation cell — clone one per serving thread. Calling
//! [`EngineReader::pin`] takes an [`EpochPin`]: a snapshot-in-time of the
//! published generation, guaranteed immutable and fully frozen for the
//! pin's whole lifetime, no matter how many generations the writer
//! publishes meanwhile. Queries on a pin are pure functions of the pinned
//! index and the request, so two readers pinning the same generation
//! always return bit-identical answers — and a reader pinned before a
//! publish keeps answering from the old generation until it re-pins.

use crate::api_types::{BatchResponse, DeadlineBudget, EngineError, QueryRequest};
use crate::generation::{Generation, Shared};
use crate::sharded::{PreparedQuery, ShardedIndex};
use fairnn_core::predicate::Nearness;
use fairnn_lsh::LshHasher;
use fairnn_obs::LazyGauge;
use std::sync::Arc;

/// Epochs currently pinned by readers across the process: each live
/// [`EpochPin`] holds one unit. A persistently high value with an active
/// writer means old generations (and their memory) are being kept alive.
static PINNED_EPOCHS: LazyGauge = LazyGauge::new(
    "engine_pinned_epochs",
    "reader epoch pins currently alive (old generations they keep reachable)",
);

/// A cheap-to-clone handle for querying the live engine.
///
/// Obtained from [`crate::EngineWriter::reader`]; clone freely across
/// threads (it is `Send + Sync` whenever the point/hasher/nearness types
/// are).
#[derive(Debug)]
pub struct EngineReader<P, H, N> {
    shared: Arc<Shared<P, H, N>>,
}

// Manual impl: `#[derive(Clone)]` would demand `P: Clone` etc., but the
// handle only clones the `Arc`.
impl<P, H, N> Clone for EngineReader<P, H, N> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<P, H, N> EngineReader<P, H, N> {
    pub(crate) fn new(shared: Arc<Shared<P, H, N>>) -> Self {
        Self { shared }
    }

    /// Pins the currently published generation.
    ///
    /// The returned pin serves that exact generation until dropped:
    /// concurrent commits publish *new* generations but never touch
    /// pinned ones. Pin per batch (or per request burst) — a pin held
    /// across many publishes keeps every superseded generation's memory
    /// alive.
    pub fn pin(&self) -> EpochPin<P, H, N> {
        PINNED_EPOCHS.add(1);
        EpochPin {
            generation: self.shared.pin(),
        }
    }

    /// Number of the currently published generation (pin-free peek).
    pub fn generation(&self) -> u64 {
        self.shared.pin().number
    }
}

/// A pinned epoch: one immutable generation held for querying.
///
/// Dropping the pin releases the generation (memory is reclaimed once no
/// pin and not the writer's staging index references its parts).
#[derive(Debug)]
pub struct EpochPin<P, H, N> {
    generation: Arc<Generation<P, H, N>>,
}

impl<P, H, N> Drop for EpochPin<P, H, N> {
    fn drop(&mut self) {
        PINNED_EPOCHS.add(-1);
    }
}

impl<P, H, N> EpochPin<P, H, N> {
    /// The pinned generation's number.
    pub fn generation(&self) -> u64 {
        self.generation.number
    }

    /// Monotonic timestamp at which the pinned generation was published.
    pub fn published_at_ns(&self) -> u64 {
        self.generation.published_at_ns()
    }

    /// Nanoseconds since the pinned generation was published — the
    /// staleness signal `/healthz` surfaces (see
    /// [`crate::Generation::age_ns`]).
    pub fn generation_age_ns(&self) -> u64 {
        self.generation.age_ns()
    }

    /// The pinned index (read-only; always fully frozen).
    pub fn index(&self) -> &ShardedIndex<P, H, N> {
        &self.generation.index
    }
}

impl<P, H, N> EpochPin<P, H, N>
where
    H: LshHasher<P>,
    N: Nearness<P>,
{
    /// Prepares one query for repeated sampling against the pinned
    /// generation (see [`ShardedIndex::prepare`]).
    pub fn prepare<'a>(&'a self, query: &'a P) -> PreparedQuery<'a, P, H, N> {
        self.generation.index.prepare(query)
    }

    /// Answers a batch of queries against the pinned generation.
    ///
    /// Deterministic serving contract: the response is a pure function of
    /// `(engine seed, pinned generation, request)` — the answers are
    /// [`ShardedIndex::run_batch`] over the pinned index, stamped with the
    /// generation number.
    pub fn run_batch(&self, request: &QueryRequest<P>) -> BatchResponse {
        BatchResponse {
            answers: self.generation.index.run_batch(request),
            generation: self.generation.number,
        }
    }

    /// Answers a batch like [`EpochPin::run_batch`], but checks the
    /// deadline budget between queries and fails fast with
    /// [`EngineError::DeadlineExceeded`] once it expires (see
    /// [`ShardedIndex::run_batch_within`]).
    pub fn run_batch_within(
        &self,
        request: &QueryRequest<P>,
        budget: &DeadlineBudget,
    ) -> Result<BatchResponse, EngineError> {
        Ok(BatchResponse {
            answers: self.generation.index.run_batch_within(request, budget)?,
            generation: self.generation.number,
        })
    }
}
