//! Connection-level fault injection against a live `fairnn-server`.
//!
//! Every scenario is a fixed script driven over loopback `TcpStream`s:
//! slowloris heads, mid-request disconnects, garbage bytes, half-close,
//! oversized payloads, admission saturation, rate limiting, deadline
//! expiry, a deliberately panicking handler, and the full graceful-drain
//! lifecycle. Each pins (a) the rejection status / close behavior and
//! (b) the property that actually matters: *the server keeps serving
//! afterwards*. Timeouts in the configs are generous multiples of the
//! poll slice, so the suite is deterministic on a loaded 1-core CI box.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a wire-level fault suite: raw client sockets and wall-clock drain deadlines"
)]

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{BatchResponse, EngineWriter, QueryRequest, ShardedIndexConfig, WriteBatch};
use fairnn_integration_tests::{golden_dataset, golden_params};
use fairnn_lsh::{ConcatenatedHasher, MinHash, MinHasher};
use fairnn_server::{read_response, serve, ClientResponse, ServerConfig, ServerHandle};
use fairnn_snapshot::{Codec, Decoder, Encoder};
use fairnn_space::{Jaccard, PointId, SparseSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

type Hasher = ConcatenatedHasher<MinHasher>;
type Near = SimilarityAtLeast<Jaccard>;
type SetWriter = EngineWriter<SparseSet, Hasher, Near>;

const SEED: u64 = 17;
/// The index's parts: the base and the delta.
const PARTS: usize = 2;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fairnn-server-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bootstrap(tag: &str) -> (SetWriter, PathBuf) {
    let data = golden_dataset();
    let dir = scratch_dir(tag);
    let writer = SetWriter::bootstrap(
        &MinHash,
        golden_params(data.len()),
        &data,
        SimilarityAtLeast::new(Jaccard, 0.5),
        ShardedIndexConfig::default().seeded(SEED),
        &dir,
    )
    .expect("bootstrap");
    (writer, dir)
}

/// A config tuned for fast, deterministic fault tests: tight head
/// budget, roomy body budget (the saturation script holds a body open
/// on purpose), 5 ms poll slices.
fn fault_config() -> ServerConfig {
    ServerConfig::default()
        .with_io_timeouts_ms(400, 3_000, 2_000, 2_000)
        .with_poll_slice_ms(5)
        .with_drain_deadline_ms(5_000)
        .with_size_caps(512, 4 * 1024)
}

fn boot(tag: &str, config: ServerConfig) -> (ServerHandle, PathBuf) {
    let (writer, dir) = bootstrap(tag);
    let handle = serve(writer, config, ("127.0.0.1", 0)).expect("serve binds");
    (handle, dir)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    stream
}

fn request_bytes(method: &str, path: &str, headers: &[(&str, String)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: t\r\n").into_bytes();
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out
}

fn roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: &[u8],
) -> ClientResponse {
    let mut stream = connect(addr);
    stream
        .write_all(&request_bytes(method, path, headers, body))
        .expect("send request");
    read_response(&mut stream).expect("read response")
}

fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

fn sample_request(batch: u64) -> QueryRequest<SparseSet> {
    let data = golden_dataset();
    QueryRequest::new(vec![
        data.point(PointId(0)).clone(),
        data.point(PointId(1)).clone(),
    ])
    .with_batch(batch)
}

#[test]
fn serves_queries_commits_and_health_over_the_wire() {
    let (handle, dir) = boot("roundtrip", fault_config());
    let addr = handle.addr();

    // A twin engine bootstrapped from the same data and seed predicts
    // the served answers exactly: the deterministic serving contract,
    // now across a network hop.
    let (twin, twin_dir) = bootstrap("roundtrip-twin");
    let request = sample_request(3);
    let expected = twin.reader().pin().run_batch(&request);

    let got = roundtrip(addr, "POST", "/v1/query", &[], &encode(&request));
    assert_eq!(got.status, 200);
    let mut dec = Decoder::new(&got.body);
    let response = BatchResponse::decode(&mut dec).expect("decode response");
    assert_eq!(response, expected, "wire answers match the local twin");

    // Keep-alive: one connection, two exchanges, second is healthz.
    let mut stream = connect(addr);
    stream
        .write_all(&request_bytes("POST", "/v1/query", &[], &encode(&request)))
        .unwrap();
    let first = read_response(&mut stream).expect("first on keep-alive");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    stream
        .write_all(&request_bytes("GET", "/healthz", &[], b""))
        .unwrap();
    let health = read_response(&mut stream).expect("second on keep-alive");
    assert_eq!(health.status, 200);
    let health_text = String::from_utf8(health.body.clone()).unwrap();
    assert!(health_text.contains("\"status\":\"ok\""), "{health_text}");
    assert!(health_text.contains("\"generation\":0"), "{health_text}");
    assert!(
        health_text.contains("\"generation_age_ms\":"),
        "{health_text}"
    );
    assert!(
        health_text.contains("\"active_connections\":"),
        "{health_text}"
    );
    drop(stream);

    // A commit over the wire publishes a new generation...
    let batch = WriteBatch::new().insert(golden_dataset().point(PointId(0)).clone());
    let receipt = roundtrip(addr, "POST", "/v1/commit", &[], &encode(&batch));
    assert_eq!(receipt.status, 200);
    let receipt_text = String::from_utf8(receipt.body).unwrap();
    assert!(receipt_text.contains("\"seq\":0"), "{receipt_text}");
    assert!(receipt_text.contains("\"generation\":1"), "{receipt_text}");
    assert!(receipt_text.contains("\"assigned\":["), "{receipt_text}");

    // ...observable in healthz and stamped on subsequent answers.
    let health = roundtrip(addr, "GET", "/healthz", &[], b"");
    assert!(String::from_utf8(health.body)
        .unwrap()
        .contains("\"generation\":1"));
    let got = roundtrip(addr, "POST", "/v1/query", &[], &encode(&request));
    let mut dec = Decoder::new(&got.body);
    assert_eq!(BatchResponse::decode(&mut dec).unwrap().generation, 1);

    // A query that collides with the cluster (Jaccard ≈ 0.46 with every
    // member) but is near none of it: the draw answers ⊥ only after
    // evaluating, and removing, every colliding candidate. Each round walks
    // a part or removes one far candidate, so it takes at most one round
    // per part plus one per evaluation.
    let mut items: Vec<u32> = (0..18).collect();
    items.extend(5000..5012);
    let far = QueryRequest::new(vec![SparseSet::from_items(items)]).with_batch(4);
    let got = roundtrip(addr, "POST", "/v1/query", &[], &encode(&far));
    assert_eq!(got.status, 200);
    let mut dec = Decoder::new(&got.body);
    let response = BatchResponse::decode(&mut dec).expect("decode response");
    assert_eq!(response.answers[0].id, None);
    let stats = response.answers[0].stats;
    let (rounds, evals) = (stats.rounds, stats.distance_computations);
    assert!(
        evals >= 1,
        "the far query collides, yet nothing was evaluated"
    );
    assert!(
        (1..=PARTS + evals).contains(&rounds),
        "a colliding ⊥ draw that evaluates {evals} candidates takes 1..={} rounds, took {rounds}",
        PARTS + evals
    );

    // /metrics renders the server's own instrumentation and the engine's
    // per-draw round histogram.
    let metrics = roundtrip(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let metrics_text = String::from_utf8(metrics.body).unwrap();
    for name in [
        "server_requests_total",
        "server_active_connections",
        "engine_rejection_rounds",
    ] {
        assert!(
            metrics_text.contains(name),
            "{name} missing:\n{metrics_text}"
        );
    }

    // Unknown routes and wrong methods are typed, not closures.
    assert_eq!(roundtrip(addr, "GET", "/nope", &[], b"").status, 404);
    assert_eq!(roundtrip(addr, "GET", "/v1/query", &[], b"").status, 405);
    // A commit deleting an id nobody has is a 409, not a 500.
    let bad = WriteBatch::<SparseSet>::new().delete(PointId(9999));
    assert_eq!(
        roundtrip(addr, "POST", "/v1/commit", &[], &encode(&bad)).status,
        409
    );

    let report = handle.join();
    assert!(report.completed_within_deadline);
    let _ = std::fs::remove_dir_all(dir);
    drop(twin);
    let _ = std::fs::remove_dir_all(twin_dir);
}

#[test]
fn garbage_bytes_get_400_and_the_server_survives() {
    let (handle, dir) = boot("garbage", fault_config());
    let addr = handle.addr();

    let mut stream = connect(addr);
    stream
        .write_all(b"\x00\xffTOTAL GARBAGE\x01\x02\r\n\r\n")
        .unwrap();
    let resp = read_response(&mut stream).expect("400 response");
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("connection"), Some("close"));
    // The server closed its end after the rejection.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);

    // Still serving.
    assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn slowloris_head_gets_408() {
    let (handle, dir) = boot("slowloris", fault_config());
    let addr = handle.addr();

    let mut stream = connect(addr);
    // Trickle a plausible head one fragment at a time, slower than the
    // 400 ms head budget allows in total.
    for fragment in [&b"GET /hea"[..], b"lthz HT", b"TP/1."] {
        stream.write_all(fragment).unwrap();
        std::thread::sleep(Duration::from_millis(200));
    }
    let resp = read_response(&mut stream).expect("408 response");
    assert_eq!(resp.status, 408);
    assert_eq!(resp.header("connection"), Some("close"));

    // The slot was released and the server keeps serving.
    assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn oversized_head_431_and_oversized_body_413() {
    let (handle, dir) = boot("oversized", fault_config());
    let addr = handle.addr();

    // Head past the 512-byte cap, no terminator: 431.
    let mut stream = connect(addr);
    stream.write_all(&vec![b'a'; 600]).unwrap();
    let resp = read_response(&mut stream).expect("431 response");
    assert_eq!(resp.status, 431);
    drop(stream);

    // Declared body past the cap: 413 before any body byte is read.
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /v1/query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
        .unwrap();
    let resp = read_response(&mut stream).expect("413 response");
    assert_eq!(resp.status, 413);
    assert_eq!(resp.header("connection"), Some("close"));

    assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn mid_request_disconnect_releases_the_slot() {
    let (handle, dir) = boot("disconnect", fault_config());
    let addr = handle.addr();

    // Half a head, then vanish.
    let mut stream = connect(addr);
    stream.write_all(b"POST /v1/query HTT").unwrap();
    drop(stream);
    // Half a body, then vanish.
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /v1/query HTTP/1.1\r\nContent-Length: 64\r\n\r\nhalf")
        .unwrap();
    drop(stream);

    // Both slots come back and the server keeps serving.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.active_connections(), 0, "permits released");
    assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn half_close_still_gets_a_response() {
    let (handle, dir) = boot("halfclose", fault_config());
    let addr = handle.addr();

    let mut stream = connect(addr);
    stream
        .write_all(&request_bytes("GET", "/healthz", &[], b""))
        .unwrap();
    stream.shutdown(Shutdown::Write).expect("half-close");
    let resp = read_response(&mut stream).expect("response after half-close");
    assert_eq!(resp.status, 200);

    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn saturated_admission_sheds_503_while_in_flight_completes() {
    // One worker, one admission slot: the second connection must be
    // shed at accept while the first finishes untouched.
    let (handle, dir) = boot(
        "saturation",
        fault_config().with_workers(1).with_max_connections(1),
    );
    let addr = handle.addr();

    // Connection A: complete head, body withheld — occupies the slot.
    let body = encode(&sample_request(1));
    let mut a = connect(addr);
    a.write_all(
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    // Give the accept loop ample time to admit A.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(handle.active_connections(), 1);

    // Connection B: shed with 503 + Retry-After, served from the accept
    // thread without touching the busy worker.
    let mut b = connect(addr);
    b.write_all(&request_bytes("GET", "/healthz", &[], b""))
        .unwrap();
    let shed = read_response(&mut b).expect("503 response");
    assert_eq!(shed.status, 503);
    let retry_after: u64 = shed
        .header("retry-after")
        .expect("Retry-After present")
        .parse()
        .expect("Retry-After is seconds");
    assert!(retry_after >= 1);

    // A now completes and gets its full answer.
    a.write_all(&body).unwrap();
    let resp = read_response(&mut a).expect("A's response");
    assert_eq!(resp.status, 200);
    drop(a);

    // The slot frees up and the server admits again.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn per_client_rate_limit_sheds_429() {
    let (handle, dir) = boot("ratelimit", fault_config().with_rate_limit(1, 1));
    let addr = handle.addr();

    // Burst of 1: the first connection passes, the second (same IP,
    // immediately after) is rejected with 429 + Retry-After.
    assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
    let mut second = connect(addr);
    second
        .write_all(&request_bytes("GET", "/healthz", &[], b""))
        .unwrap();
    let limited = read_response(&mut second).expect("429 response");
    assert_eq!(limited.status, 429);
    assert!(limited.header("retry-after").is_some());

    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn spent_deadline_budget_is_504() {
    let (handle, dir) = boot("deadline", fault_config());
    let addr = handle.addr();

    let body = encode(&sample_request(2));
    let resp = roundtrip(
        addr,
        "POST",
        "/v1/query",
        &[("x-deadline-ms", "0".to_string())],
        &body,
    );
    assert_eq!(resp.status, 504, "a zero budget expires before position 0");
    assert!(resp.header("retry-after").is_some());
    let text = String::from_utf8(resp.body).unwrap();
    assert!(
        text.contains("0 of 2"),
        "all-or-nothing: no partial answers ({text})"
    );

    // A sane budget on the same connection pattern succeeds.
    let resp = roundtrip(
        addr,
        "POST",
        "/v1/query",
        &[("x-deadline-ms", "30000".to_string())],
        &body,
    );
    assert_eq!(resp.status, 200);

    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn handler_panic_is_isolated_to_a_500() {
    let (handle, dir) = boot("panic", fault_config());
    let addr = handle.addr();

    let resp = roundtrip(addr, "POST", "/admin/panic", &[], b"");
    if cfg!(debug_assertions) {
        assert_eq!(resp.status, 500);
        assert_eq!(resp.header("connection"), Some("close"));

        // The worker survived; the process keeps serving on a fresh
        // connection and the isolation is visible in the metrics.
        assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
        let metrics = roundtrip(addr, "GET", "/metrics", &[], b"");
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(
            text.contains("server_handler_panics_total 1"),
            "panic counted once: {text}"
        );
    } else {
        // The panicking route exists in debug builds only: a release
        // server has no such route, and keeps serving.
        assert_eq!(
            resp.status, 404,
            "release builds must not expose /admin/panic"
        );
        assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200);
    }

    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_new_work() {
    let (handle, dir) = boot(
        "drain",
        fault_config().with_workers(2).with_max_connections(4),
    );
    let addr = handle.addr();

    // Connection A is mid-request (body withheld) when the drain starts.
    let body = encode(&sample_request(5));
    let mut a = connect(addr);
    a.write_all(
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Drain over the wire: 202, and the draining state shows in the
    // response's Connection header (the drain connection itself closes).
    let mut d = connect(addr);
    d.write_all(&request_bytes("POST", "/admin/drain", &[], b""))
        .unwrap();
    let accepted = read_response(&mut d).expect("202 response");
    assert_eq!(accepted.status, 202);
    assert_eq!(accepted.header("connection"), Some("close"));
    assert!(handle.is_draining());
    drop(d);

    // A finishes its in-flight exchange with a full, valid response —
    // no lost answers — then is closed (draining forces close).
    a.write_all(&body).unwrap();
    let resp = read_response(&mut a).expect("in-flight completes during drain");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    let mut dec = Decoder::new(&resp.body);
    assert!(BatchResponse::decode(&mut dec).is_ok());
    drop(a);

    // join() reports a clean drain within the deadline.
    let report = handle.join();
    assert!(report.completed_within_deadline, "{report:?}");
    assert_eq!(report.forced_connections, 0);

    // The listener is gone: new connections are refused (or at best
    // accepted by a stale backlog entry and immediately closed).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.write_all(&request_bytes("GET", "/healthz", &[], b""));
            assert!(
                read_response(&mut stream).is_err(),
                "a drained server must not answer"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
