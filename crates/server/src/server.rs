//! The listener/worker core: accept, admit, serve, drain.
//!
//! One extra thread runs the accept loop on a non-blocking listener;
//! admitted connections are dispatched to a fixed
//! [`fairnn_parallel::ThreadPool`]. Robustness decisions all happen at
//! the edges:
//!
//! * **admission** (accept thread): per-IP token bucket → `429`, then
//!   the bounded connection budget → `503` + `Retry-After`. Shedding is
//!   O(1) and never touches a worker.
//! * **reading** (worker): all socket reads run in short poll slices,
//!   so every wait simultaneously watches its own deadline (idle, head,
//!   body) *and* the drain flags. A trickling head gets `408`; a quiet
//!   keep-alive connection is closed at the idle deadline; a
//!   force-closed drain aborts at the next slice.
//! * **handling** (worker): the route dispatch runs under
//!   `catch_unwind`, so a panicking handler costs one `500` and one
//!   connection, never the server.
//! * **drain** ([`ServerHandle::join`]): stop accepting, let in-flight
//!   exchanges finish within the drain deadline, then force-close the
//!   stragglers and join every thread.

use crate::admission::{Control, OwnedPermit, RateLimiter};
use crate::config::ServerConfig;
use crate::handlers::AppState;
use crate::http::{parse_head, Head, Response};
use crate::routes::dispatch;
use fairnn_core::predicate::Nearness;
use fairnn_engine::EngineWriter;
use fairnn_lsh::{HasherBankCodec, LshHasher};
use fairnn_obs::{monotonic_ns, LazyCounter};
use fairnn_parallel::ThreadPool;
use fairnn_snapshot::Codec;
use std::io::{self, Read};
#[expect(clippy::disallowed_types, reason = "the network boundary")]
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Connections shed with `503` because the admission budget was full.
static SHED_TOTAL: LazyCounter = LazyCounter::new(
    "server_shed_total",
    "connections rejected with 503 because the admission budget was full",
);

/// Connections rejected with `429` by the per-IP token bucket.
static RATE_LIMITED_TOTAL: LazyCounter = LazyCounter::new(
    "server_rate_limited_total",
    "connections rejected with 429 by per-client rate limiting",
);

/// Handler panics turned into `500`s (the server survived each one).
static PANICS_TOTAL: LazyCounter = LazyCounter::new(
    "server_handler_panics_total",
    "handler panics isolated to a 500 response",
);

/// Starts serving `writer`'s engine on `addr`.
///
/// Takes ownership of the [`EngineWriter`] — the server *is* the
/// single-writer process from here on; commits arrive through
/// `POST /v1/commit` and reads through per-request epoch pins. Enables
/// process observability (the `/metrics` endpoint is pointless without
/// it). Binds, then returns immediately; serving runs on `workers + 1`
/// pool threads until the returned [`ServerHandle`] drains.
#[expect(clippy::disallowed_types, reason = "the network boundary")]
pub fn serve<P, H, N>(
    writer: EngineWriter<P, H, N>,
    config: ServerConfig,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle>
where
    P: Codec + Clone + Send + Sync + 'static,
    H: HasherBankCodec + LshHasher<P> + Clone + Send + Sync + 'static,
    N: Codec + Nearness<P> + Clone + Send + Sync + 'static,
{
    fairnn_obs::set_enabled(true);
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let control = Arc::new(Control::default());
    let state = Arc::new(AppState {
        reader: writer.reader(),
        writer: Mutex::new(writer),
        config: config.clone(),
        control: Arc::clone(&control),
    });
    let workers = Arc::new(ThreadPool::new(config.workers));
    let accept_pool = ThreadPool::new(1);
    {
        let workers = Arc::clone(&workers);
        let state = Arc::clone(&state);
        accept_pool.execute(move || accept_loop(listener, state, workers));
    }

    Ok(ServerHandle {
        addr,
        control,
        accept_pool: Some(accept_pool),
        workers: Some(workers),
        drain_deadline_ms: config.drain_deadline_ms,
    })
}

/// The accept loop: admission decisions only, no request parsing.
#[expect(clippy::disallowed_types, reason = "the network boundary")]
fn accept_loop<P, H, N>(
    listener: TcpListener,
    state: Arc<AppState<P, H, N>>,
    workers: Arc<ThreadPool>,
) where
    P: Codec + Clone + Send + Sync + 'static,
    H: HasherBankCodec + LshHasher<P> + Clone + Send + Sync + 'static,
    N: Codec + Nearness<P> + Clone + Send + Sync + 'static,
{
    let config = &state.config;
    let limiter = RateLimiter::new(config.rate_limit_per_sec, config.rate_limit_burst);
    let write_timeout = config.write_timeout_ms;
    loop {
        if state.control.is_draining() {
            return; // dropping the listener stops new connections cold
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                if let Err(backoff_secs) = limiter.check(peer.ip()) {
                    RATE_LIMITED_TOTAL.inc();
                    reject(
                        stream,
                        Response::text(429, "rate limit exceeded for this client")
                            .with_retry_after(backoff_secs),
                        write_timeout,
                    );
                    continue;
                }
                match OwnedPermit::try_admit(&state.control, config.max_connections) {
                    Some(permit) => {
                        let state = Arc::clone(&state);
                        workers.execute(move || handle_connection(stream, state, permit));
                    }
                    None => {
                        SHED_TOTAL.inc();
                        reject(
                            stream,
                            Response::text(503, "server saturated; back off and retry")
                                .with_retry_after(1),
                            write_timeout,
                        );
                    }
                }
            }
            // Non-blocking accept with nothing pending (or a transient
            // error): nap one millisecond and re-check the drain flag.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Writes a rejection inline on the accept thread and closes. Failures
/// are ignored — the peer being gone is exactly as good as a delivered
/// rejection.
#[expect(clippy::disallowed_types, reason = "the network boundary")]
fn reject(mut stream: TcpStream, response: Response, write_timeout_ms: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(write_timeout_ms.max(1))));
    let _ = response.write_to(&mut stream, true);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One request's worth of progress on a connection.
enum ReadOutcome {
    /// A complete request: head plus exactly `Content-Length` body
    /// bytes.
    Request { head: Head, body: Vec<u8> },
    /// The request must be rejected with this response, then the
    /// connection closed.
    Reject(Response),
    /// Close quietly: clean EOF, idle timeout, drain, or peer gone.
    Close,
}

/// Serves one admitted connection until it closes; the permit rides
/// along and releases the admission slot on every exit path.
#[expect(clippy::disallowed_types, reason = "the network boundary")]
fn handle_connection<P, H, N>(
    mut stream: TcpStream,
    state: Arc<AppState<P, H, N>>,
    _permit: OwnedPermit,
) where
    P: Codec + Clone + Send + Sync,
    H: HasherBankCodec + LshHasher<P> + Clone + Send + Sync,
    N: Codec + Nearness<P> + Clone + Send + Sync,
{
    let config = &state.config;
    let _ = stream.set_nodelay(true);
    // One short read timeout for the whole connection: every blocking
    // read becomes a poll slice, and the loops below own the real
    // deadlines on the monotonic clock.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.poll_slice_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(config.write_timeout_ms.max(1))));

    let mut pending: Vec<u8> = Vec::new();
    loop {
        match read_request(&mut stream, &mut pending, &state) {
            ReadOutcome::Request { head, body } => {
                // Panic isolation: a handler panic costs this connection
                // a 500 and nothing else.
                let (response, panicked) =
                    match catch_unwind(AssertUnwindSafe(|| dispatch(&state, &head, &body))) {
                        Ok(response) => (response, false),
                        Err(_) => {
                            PANICS_TOTAL.inc();
                            (
                                Response::text(500, "internal error: handler panicked"),
                                true,
                            )
                        }
                    };
                let close = head.wants_close() || panicked || state.control.is_draining();
                if response.write_to(&mut stream, close).is_err() || close {
                    break;
                }
            }
            ReadOutcome::Reject(response) => {
                let _ = response.write_to(&mut stream, true);
                break;
            }
            ReadOutcome::Close => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

const READ_CHUNK: usize = 4096;

/// Reads one request off the connection, enforcing the idle, head and
/// body deadlines plus both size caps. `pending` carries pipelined
/// leftover bytes between calls.
#[expect(clippy::disallowed_types, reason = "the network boundary")]
fn read_request<P, H, N>(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    state: &AppState<P, H, N>,
) -> ReadOutcome {
    let config = &state.config;
    let control = &state.control;
    let mut chunk = [0u8; READ_CHUNK];

    // Head phase. The head deadline starts at the first byte of *this*
    // request, so a keep-alive connection may idle quietly up to the
    // idle deadline, but once a request starts trickling in (slowloris)
    // it must complete within the head budget or take a 408.
    let idle_start = monotonic_ns();
    let mut head_start = (!pending.is_empty()).then_some(idle_start);
    let head = loop {
        match parse_head(pending, config.max_head_bytes) {
            Ok(Some(head)) => break head,
            Ok(None) => {}
            Err(err) => return ReadOutcome::Reject(Response::text(err.status(), err.reason())),
        }
        if control.is_force_closed() {
            return ReadOutcome::Close;
        }
        let now = monotonic_ns();
        match head_start {
            None => {
                // Waiting for a request to start: drain and idle both
                // end the connection quietly.
                if control.is_draining() {
                    return ReadOutcome::Close;
                }
                if now.saturating_sub(idle_start) > ms_to_ns(config.idle_timeout_ms) {
                    return ReadOutcome::Close;
                }
            }
            Some(started) => {
                if now.saturating_sub(started) > ms_to_ns(config.head_timeout_ms) {
                    return ReadOutcome::Reject(Response::text(
                        408,
                        "request head not received within the deadline",
                    ));
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: clean between requests, malformed mid-head.
                return if pending.is_empty() {
                    ReadOutcome::Close
                } else {
                    ReadOutcome::Reject(Response::text(400, "connection closed mid-head"))
                };
            }
            Ok(n) => {
                if head_start.is_none() {
                    head_start = Some(monotonic_ns());
                }
                pending.extend_from_slice(&chunk[..n]);
            }
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // poll slice elapsed; loop re-checks deadlines
            }
            Err(_) => return ReadOutcome::Close,
        }
    };

    // Body phase: the length is known upfront (chunked was rejected in
    // `body_len`), so the cap check happens before a single body byte
    // is read.
    let body_len = match head.body_len() {
        Ok(len) => len,
        Err(err) => return ReadOutcome::Reject(Response::text(err.status(), err.reason())),
    };
    if body_len > config.max_body_bytes {
        return ReadOutcome::Reject(
            Response::text(413, "request body exceeds the configured cap")
                .with_header("X-Max-Body-Bytes", config.max_body_bytes.to_string()),
        );
    }
    let total = head.head_len + body_len;
    let body_deadline = monotonic_ns().saturating_add(ms_to_ns(config.body_timeout_ms));
    while pending.len() < total {
        if control.is_force_closed() {
            return ReadOutcome::Close;
        }
        if monotonic_ns() > body_deadline {
            return ReadOutcome::Reject(Response::text(
                408,
                "request body not received within the deadline",
            ));
        }
        match stream.read(&mut chunk) {
            // Mid-request disconnect: the peer can no longer hear any
            // response, so just release the slot and move on.
            Ok(0) => return ReadOutcome::Close,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return ReadOutcome::Close,
        }
    }

    let body = pending[head.head_len..total].to_vec();
    pending.drain(..total);
    ReadOutcome::Request { head, body }
}

fn ms_to_ns(ms: u64) -> u64 {
    ms.saturating_mul(1_000_000)
}

/// How a drain went: returned by [`ServerHandle::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every in-flight connection finished within the drain
    /// deadline.
    pub completed_within_deadline: bool,
    /// Connections force-closed at the deadline (0 on a clean drain).
    pub forced_connections: i64,
}

/// The running server: address, drain control, and the join that tears
/// everything down.
///
/// Dropping the handle performs a full graceful drain (equivalent to
/// [`ServerHandle::join`], discarding the report), so a server can
/// never outlive its handle.
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "the network boundary")]
pub struct ServerHandle {
    addr: SocketAddr,
    control: Arc<Control>,
    accept_pool: Option<ThreadPool>,
    workers: Option<Arc<ThreadPool>>,
    drain_deadline_ms: u64,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[expect(clippy::disallowed_types, reason = "the network boundary")]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain without waiting: accepting stops, and
    /// keep-alive connections close after their current exchange. Also
    /// reachable over the wire as `POST /admin/drain`.
    pub fn begin_drain(&self) {
        self.control.begin_drain();
    }

    /// Whether a drain has been requested (locally or over the wire).
    pub fn is_draining(&self) -> bool {
        self.control.is_draining()
    }

    /// Currently admitted connections.
    pub fn active_connections(&self) -> i64 {
        self.control.active()
    }

    /// Drains and joins: stop accepting, wait for in-flight connections
    /// up to the drain deadline, force-close stragglers, join every
    /// thread. Idempotent with [`ServerHandle::begin_drain`] — calling
    /// that first (or hitting `/admin/drain`) just means the drain is
    /// already underway when `join` starts waiting.
    pub fn join(mut self) -> DrainReport {
        self.join_inner()
    }

    fn join_inner(&mut self) -> DrainReport {
        self.control.begin_drain();
        // Joining the accept pool both waits for the accept loop to see
        // the flag and drops the listener, so no connection can be
        // admitted after this line.
        drop(self.accept_pool.take());

        let deadline = monotonic_ns().saturating_add(ms_to_ns(self.drain_deadline_ms));
        while self.control.active() > 0 && monotonic_ns() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let leftover = self.control.active();
        if leftover > 0 {
            self.control.force_close();
        }

        if let Some(workers) = self.workers.take() {
            // The accept loop's clone died with the accept pool, so this
            // is the last `Arc`; unwrapping it drops the pool, which
            // closes the queue and joins the workers (their connections
            // exit at the next poll slice once force-closed).
            let mut workers = workers;
            loop {
                match Arc::try_unwrap(workers) {
                    Ok(pool) => {
                        drop(pool);
                        break;
                    }
                    Err(still_shared) => {
                        workers = still_shared;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }

        DrainReport {
            completed_within_deadline: leftover == 0,
            forced_connections: leftover,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.workers.is_some() || self.accept_pool.is_some() {
            let _ = self.join_inner();
        }
    }
}
