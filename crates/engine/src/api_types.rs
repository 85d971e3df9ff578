//! The typed request/response/mutation surface of the generational engine.
//!
//! Everything a front-end needs to talk to the engine lives here as a
//! plain struct or enum: [`QueryRequest`] in, [`BatchResponse`] out on the
//! read path; [`WriteBatch`] in, [`CommitReceipt`] out on the write path;
//! [`EngineError`] for every failure. The mutation types implement the
//! snapshot [`fairnn_snapshot::Codec`], because a committed batch *is* the
//! write-ahead-log record payload — the wire format of the log and the
//! API surface of the writer are one and the same. These are the structs
//! the planned `fairnn-server` front-end will serialize across the
//! network.

use crate::engine::Answer;
use fairnn_snapshot::SnapshotError;
use fairnn_space::PointId;

/// A batch of queries addressed to one pinned generation
/// ([`crate::EpochPin::run_batch`]).
///
/// The `batch` number selects the deterministic RNG stream: for a fixed
/// engine seed, generation and batch number, the response is a pure
/// function of this request — independent of thread count, of concurrent
/// writers, and of every other request in flight. Callers own the batch
/// numbering (typically a per-client counter), which is what makes replay
/// and A/B verification possible from outside the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest<P> {
    /// The queries; `answers[i]` of the response corresponds to
    /// `queries[i]`.
    pub queries: Vec<P>,
    /// Caller-chosen batch number selecting the RNG stream (see the type
    /// docs).
    pub batch: u64,
}

impl<P> QueryRequest<P> {
    /// A request for batch number 0.
    pub fn new(queries: Vec<P>) -> Self {
        Self { queries, batch: 0 }
    }

    /// Replaces the batch number.
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }
}

impl<P: fairnn_snapshot::Codec> fairnn_snapshot::Codec for QueryRequest<P> {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.queries.encode(enc);
        enc.write_u64(self.batch);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            queries: Vec::<P>::decode(dec)?,
            batch: dec.read_u64()?,
        })
    }
}

/// The answers to one [`QueryRequest`], stamped with the generation that
/// served them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResponse {
    /// Per-position answers, aligned with the request's `queries`.
    pub answers: Vec<Answer>,
    /// Number of the pinned generation the batch ran against.
    pub generation: u64,
}

impl fairnn_snapshot::Codec for Answer {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.id.encode(enc);
        // Plain u64s, not `write_len`: these are work *counters*, and the
        // decoder's length-prefix sanity check (len <= remaining bytes)
        // must not apply to them.
        enc.write_u64(self.stats.entries_scanned as u64);
        enc.write_u64(self.stats.distance_computations as u64);
        enc.write_u64(self.stats.buckets_inspected as u64);
        enc.write_u64(self.stats.rounds as u64);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        let id = Option::<PointId>::decode(dec)?;
        let mut counter = || -> Result<usize, fairnn_snapshot::SnapshotError> {
            let raw = dec.read_u64()?;
            usize::try_from(raw).map_err(|_| {
                fairnn_snapshot::SnapshotError::Corrupt(format!(
                    "query stat counter {raw} does not fit usize"
                ))
            })
        };
        let stats = fairnn_core::QueryStats {
            entries_scanned: counter()?,
            distance_computations: counter()?,
            buckets_inspected: counter()?,
            rounds: counter()?,
        };
        Ok(Self { id, stats })
    }
}

impl fairnn_snapshot::Codec for BatchResponse {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.answers.encode(enc);
        enc.write_u64(self.generation);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            answers: Vec::<Answer>::decode(dec)?,
            generation: dec.read_u64()?,
        })
    }
}

/// A per-request deadline budget on the injectable monotonic clock
/// ([`fairnn_obs::monotonic_ns`]).
///
/// A budget is an absolute point on the monotonic timeline, fixed when
/// the budget is created — passing it down a call chain never extends
/// it, which is what makes it a *budget* rather than a per-hop timeout.
/// [`crate::EpochPin::run_batch_within`] checks it between queries and
/// fails fast with [`EngineError::DeadlineExceeded`] instead of serving
/// an answer nobody is still waiting for. Built on the `fairnn-obs`
/// clock seam, so tests drive it deterministically with a
/// `ManualClock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineBudget {
    /// Absolute monotonic deadline in nanoseconds; `None` = no limit.
    deadline_ns: Option<u64>,
}

impl DeadlineBudget {
    /// A budget that never expires.
    pub fn unlimited() -> Self {
        Self { deadline_ns: None }
    }

    /// A budget expiring `ms` milliseconds from now (saturating).
    pub fn from_now_ms(ms: u64) -> Self {
        Self::from_now_ns(ms.saturating_mul(1_000_000))
    }

    /// A budget expiring `ns` nanoseconds from now (saturating).
    pub fn from_now_ns(ns: u64) -> Self {
        Self {
            deadline_ns: Some(fairnn_obs::monotonic_ns().saturating_add(ns)),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline_ns
            .is_some_and(|d| fairnn_obs::monotonic_ns() >= d)
    }

    /// Nanoseconds left before expiry (`None` for an unlimited budget,
    /// 0 once expired).
    pub fn remaining_ns(&self) -> Option<u64> {
        self.deadline_ns
            .map(|d| d.saturating_sub(fairnn_obs::monotonic_ns()))
    }
}

/// One mutation inside a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp<P> {
    /// Insert a new point; its global id is assigned at apply time and
    /// reported through [`CommitReceipt::assigned`].
    Insert(P),
    /// Delete the point with this global id.
    Delete(PointId),
    /// Fold the delta into the base and compact the base, dropping every
    /// tombstone (off the query path: compaction runs on the staging
    /// generation and readers keep serving the published one).
    Compact,
}

impl<P: fairnn_snapshot::Codec> fairnn_snapshot::Codec for WriteOp<P> {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        match self {
            WriteOp::Insert(point) => {
                enc.write_u8(0);
                point.encode(enc);
            }
            WriteOp::Delete(id) => {
                enc.write_u8(1);
                id.encode(enc);
            }
            WriteOp::Compact => enc.write_u8(2),
        }
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        match dec.read_u8()? {
            0 => Ok(WriteOp::Insert(P::decode(dec)?)),
            1 => Ok(WriteOp::Delete(PointId::decode(dec)?)),
            2 => Ok(WriteOp::Compact),
            other => Err(fairnn_snapshot::SnapshotError::Corrupt(format!(
                "write op tag must be 0..=2, found {other}"
            ))),
        }
    }
}

/// A typed batch of mutations, committed atomically by
/// [`crate::EngineWriter::commit`]: the whole batch is write-ahead-logged
/// as one record, applied to the staging generation, and published as one
/// new generation — readers observe either none of it or all of it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WriteBatch<P> {
    ops: Vec<WriteOp<P>>,
}

impl<P> WriteBatch<P> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Appends an insert (builder style).
    pub fn insert(mut self, point: P) -> Self {
        self.ops.push(WriteOp::Insert(point));
        self
    }

    /// Appends a delete (builder style).
    pub fn delete(mut self, id: PointId) -> Self {
        self.ops.push(WriteOp::Delete(id));
        self
    }

    /// Appends a compaction request (builder style).
    pub fn compact(mut self) -> Self {
        self.ops.push(WriteOp::Compact);
        self
    }

    /// Appends one op in place.
    pub fn push(&mut self, op: WriteOp<P>) {
        self.ops.push(op);
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[WriteOp<P>] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl<P: fairnn_snapshot::Codec> fairnn_snapshot::Codec for WriteBatch<P> {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.ops.encode(enc);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            ops: Vec::<WriteOp<P>>::decode(dec)?,
        })
    }
}

/// Proof of a durable commit, returned by
/// [`crate::EngineWriter::commit`] after the batch is in the write-ahead
/// log and the new generation is published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The commit's write-ahead-log sequence number.
    pub seq: u64,
    /// The generation number this commit published; readers pinning from
    /// now on observe it.
    pub generation: u64,
    /// Global ids assigned to the batch's `Insert` ops, in op order.
    pub assigned: Vec<PointId>,
    /// Bytes this commit appended to the write-ahead log (record header
    /// included).
    pub wal_bytes: u64,
}

/// Every way an engine entry point can fail, in one place.
///
/// `#[non_exhaustive]`: front-ends must keep a wildcard arm, so the
/// engine can grow failure modes (quota, backpressure, …) without
/// breaking them.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// Persistence failed: checkpoint save/load, WAL append/replay, or a
    /// corrupt on-disk structure.
    Snapshot(SnapshotError),
    /// A `Delete` referenced a global id the staging generation does not
    /// hold (nothing was logged or applied; the whole batch is rejected).
    UnknownId(PointId),
    /// The engine directory or configuration is unusable.
    Config(String),
    /// A [`DeadlineBudget`] expired mid-batch: `completed` of `total`
    /// queries were answered before the budget ran out (the partial
    /// answers are discarded — a deterministic response is all-or-
    /// nothing).
    DeadlineExceeded {
        /// Queries answered before the deadline hit.
        completed: usize,
        /// Queries in the batch.
        total: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Snapshot(err) => write!(f, "engine persistence failed: {err}"),
            EngineError::UnknownId(id) => {
                write!(f, "delete references unknown point id {id}")
            }
            EngineError::Config(msg) => write!(f, "engine configuration invalid: {msg}"),
            EngineError::DeadlineExceeded { completed, total } => write!(
                f,
                "deadline budget expired after {completed} of {total} queries"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SnapshotError> for EngineError {
    fn from(err: SnapshotError) -> Self {
        EngineError::Snapshot(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairnn_snapshot::{Codec, Decoder, Encoder};

    fn roundtrip(batch: &WriteBatch<u64>) -> WriteBatch<u64> {
        let mut enc = Encoder::new();
        batch.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = WriteBatch::<u64>::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        back
    }

    #[test]
    fn write_batch_roundtrips_all_op_kinds() {
        let batch = WriteBatch::new()
            .insert(42u64)
            .delete(PointId(7))
            .compact()
            .insert(99);
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        assert_eq!(roundtrip(&batch), batch);
        assert_eq!(roundtrip(&WriteBatch::new()), WriteBatch::new());
    }

    #[test]
    fn bad_op_tag_is_corrupt() {
        let mut enc = Encoder::new();
        vec![0u64; 1].encode(&mut enc); // ops vec of length 1...
        let mut bytes = enc.into_bytes();
        bytes.truncate(8); // keep only the length prefix
        bytes.push(9); // ...whose single op has tag 9
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            WriteBatch::<u64>::decode(&mut dec),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("tag")
        ));
    }

    #[test]
    fn answer_and_response_roundtrip_for_the_wire() {
        let response = BatchResponse {
            answers: vec![
                Answer {
                    id: Some(PointId(12)),
                    stats: fairnn_core::QueryStats {
                        entries_scanned: 4,
                        distance_computations: 3,
                        buckets_inspected: 2,
                        rounds: 1,
                    },
                },
                Answer {
                    id: None,
                    stats: fairnn_core::QueryStats::default(),
                },
            ],
            generation: 7,
        };
        let mut enc = Encoder::new();
        response.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = BatchResponse::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, response);

        let request = QueryRequest::new(vec![10u64, 20]).with_batch(9);
        let mut enc = Encoder::new();
        request.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(QueryRequest::<u64>::decode(&mut dec).unwrap(), request);
    }

    #[test]
    fn deadline_budget_expiry_semantics() {
        let unlimited = DeadlineBudget::unlimited();
        assert!(!unlimited.expired());
        assert_eq!(unlimited.remaining_ns(), None);

        // A zero budget is expired by the time anyone checks it.
        let spent = DeadlineBudget::from_now_ns(0);
        assert!(spent.expired());
        assert_eq!(spent.remaining_ns(), Some(0));

        // A huge budget is live and reports a sane remainder.
        let generous = DeadlineBudget::from_now_ms(1 << 40);
        assert!(!generous.expired());
        assert!(generous.remaining_ns().unwrap() > 0);

        // Saturation instead of overflow at the extreme.
        let forever = DeadlineBudget::from_now_ns(u64::MAX);
        assert!(!forever.expired());

        let err = EngineError::DeadlineExceeded {
            completed: 3,
            total: 8,
        };
        assert!(err.to_string().contains("3 of 8"));
    }

    #[test]
    fn request_builders_and_error_display() {
        let req = QueryRequest::new(vec![1u64, 2]).with_batch(5);
        assert_eq!(req.batch, 5);
        assert_eq!(req.queries.len(), 2);
        let err = EngineError::UnknownId(PointId(3));
        assert!(err.to_string().contains("unknown point id"));
        let err: EngineError = SnapshotError::Corrupt("x".into()).into();
        assert!(matches!(err, EngineError::Snapshot(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
