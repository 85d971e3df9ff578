//! Overload-safe HTTP/1.1 serving for the fairnn generational engine.
//!
//! This crate is the network boundary of the workspace: the *only*
//! place where `std::net` appears outside test code and the bench load
//! generator (`clippy.toml` disallows its types everywhere else). It
//! fronts a [`fairnn_engine::EngineWriter`] with four routes:
//!
//! | Route | Body in | Body out |
//! |---|---|---|
//! | `POST /v1/query` | snapshot-codec [`fairnn_engine::QueryRequest`] | snapshot-codec [`fairnn_engine::BatchResponse`] |
//! | `POST /v1/commit` | snapshot-codec [`fairnn_engine::WriteBatch`] | JSON commit receipt |
//! | `GET /healthz` | — | JSON liveness + staleness/saturation signals |
//! | `GET /metrics` | — | Prometheus text |
//!
//! (`POST /admin/drain` additionally starts a graceful drain over the
//! wire.)
//!
//! The headline property is *robustness over features*: the server is a
//! std-only, hand-rolled HTTP/1.1 subset whose every limit is explicit
//! and tested. Oversized heads are `431`, oversized bodies `413`,
//! trickled requests `408`, garbage `400` — all pinned by fixtures and
//! a never-panics proptest over arbitrary bytes. Load is shed *before*
//! a worker is spent (`503`/`429` + `Retry-After` from the accept
//! thread), per-request deadline budgets propagate into batch execution
//! (`504` on expiry, with the all-or-nothing determinism contract
//! intact), handler panics are isolated to one `500`, and shutdown is a
//! graceful drain: stop accepting, finish in-flight within a deadline,
//! force-close stragglers, join every thread.
//!
//! The module layout mirrors the related `pod2-client` server tree:
//! [`config`] (tunables), [`http`] (bounded parser + response writer),
//! [`routes`] (dispatch), `handlers` (typed endpoints), [`server`]
//! (listener/worker core), plus [`admission`] for the load-shedding
//! machinery. The engine-facing API types live in
//! `fairnn_engine::api_types` — the server serializes exactly what the
//! write-ahead log stores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod handlers;
pub mod http;
pub mod routes;
pub mod server;

pub use config::ServerConfig;
pub use http::{
    parse_head, read_response, status_reason, ClientResponse, Head, ParseError, Response,
};
pub use server::{serve, DrainReport, ServerHandle};
