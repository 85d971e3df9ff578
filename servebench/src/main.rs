//! End-to-end benchmark of the fairnn served path.
//!
//! One process runs the whole stack: the engine is bootstrapped into an
//! engine directory, served by `fairnn_server::serve` on loopback, and
//! driven by one closed-loop client on the main thread. Every request is
//! generated from `--seed` before the server starts (see `inputs`).
//!
//! ```text
//! servebench --workload <read-large|churn-paper>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! taken by timing calls into each crate's public functions on the same
//! inputs. Every run checks the answers and exits non-zero on any failed
//! request or mismatch. See `README.md` beside this crate for the metric
//! definitions and the reasons behind each workload.

mod inputs;
mod layers;
mod spans;
mod stats;

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{
    BatchResponse, EngineReader, EngineWriter, QueryRequest, ShardedIndexConfig, CHECKPOINT_FILE,
    WAL_FILE,
};
use fairnn_lsh::snapshot::RowCodec;
use fairnn_lsh::{ConcatenatedHasher, LshFamily, LshHasher, MinHash, OneBitMinHash};
use fairnn_server::{read_response, serve, ClientResponse, ServerConfig, ServerHandle};
use fairnn_snapshot::{Codec, Decoder};
use fairnn_space::{Jaccard, SparseSet};
use inputs::{Inputs, Op, Workload, R};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spans::Spans;
use stats::{median, percentile};
use std::io::Write;
// fairnn-audit: allow(net-outside-server) — the benchmark's load client, driving the served path over loopback as server_throughput does
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

/// Row hasher of a workload's LSH family: one-bit MinHash on the
/// paper-parameter workloads, full MinHash on `read-large`.
pub trait Base: LshHasher<SparseSet> + RowCodec + Clone + Send + Sync + 'static {}
impl<T> Base for T where T: LshHasher<SparseSet> + RowCodec + Clone + Send + Sync + 'static {}

pub type Near = SimilarityAtLeast<Jaccard>;
pub type Writer<B> = EngineWriter<SparseSet, ConcatenatedHasher<B>, Near>;
pub type Reader<B> = EngineReader<SparseSet, ConcatenatedHasher<B>, Near>;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Reopens of the drained engine directory per run; `reopen_s` is the
/// median of their wall times, `reopen_cpu_s` the mean of their CPU times.
const REOPENS: usize = 3;
/// One in this many query responses is re-run in-process and compared.
const CHECK_EVERY: u64 = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or other context for the human-readable line.
    pub note: String,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servebench: {err}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".servebench");
    let work = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("servebench: cannot create {}: {err}", work.display());
        std::process::exit(1);
    }
    let outcome = match args.workload {
        Workload::ReadLarge => run(&args, &root, &work, &MinHash),
        Workload::ChurnPaper => run(&args, &root, &work, &OneBitMinHash),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("servebench: {err}");
            std::process::exit(1);
        }
    };

    for m in &outcome.metrics {
        println!("{:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for m in &outcome.info {
        println!(
            "{:<34} {:>16.4} {:<6} {} (wall clock, not in the JSON: moves with CPU steal)",
            m.name, m.value, m.unit, m.note
        );
    }
    for problem in &outcome.problems {
        println!("FAILED CHECK: {problem}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    /// Printed for people, left out of the JSON the gate reads.
    info: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// A served engine: the server, an in-process reader onto the same
/// generations, and the engine directory.
pub struct Served<B> {
    pub handle: ServerHandle,
    pub reader: Reader<B>,
    pub dir: PathBuf,
}

fn server_config() -> ServerConfig {
    // Two workers for one client: a keep-alive connection occupies a
    // worker while idle, and the traced run interleaves fresh connections
    // with it. Only one request is ever in flight.
    ServerConfig::default()
        .with_workers(2)
        .with_max_connections(4)
        .with_deadlines_ms(0, 60_000)
        .with_io_timeouts_ms(2_000, 2_000, 60_000, 2_000)
        .with_drain_deadline_ms(10_000)
}

/// Set-up as users pay it: index build + bootstrap (checkpoint fsynced),
/// then the server answering `/healthz`. Returns the served engine, the
/// set-up time and the bootstrap part of it, in seconds.
fn start<B: Base, F: LshFamily<SparseSet, Hasher = B> + Sync>(
    family: &F,
    inputs: &Inputs,
    dir: &Path,
) -> Result<(Served<B>, f64, f64), String> {
    let t0 = fairnn_obs::monotonic_ns();
    let writer = Writer::bootstrap(
        family,
        inputs.params,
        &inputs.dataset,
        SimilarityAtLeast::new(Jaccard, R),
        ShardedIndexConfig::with_shards(inputs::SHARDS).seeded(inputs.engine_seed),
        dir,
    )
    .map_err(|err| format!("bootstrap failed: {err}"))?;
    let bootstrap_s = secs_since(t0);
    let reader = writer.reader();
    let handle = serve(writer, server_config(), ("127.0.0.1", 0))
        .map_err(|err| format!("server failed to bind: {err}"))?;
    let health = roundtrip(
        handle.addr(),
        b"GET /healthz HTTP/1.1\r\nHost: servebench\r\nConnection: close\r\n\r\n",
    )
    .map_err(|err| format!("healthz failed: {err}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    let setup_s = secs_since(t0);
    Ok((
        Served {
            handle,
            reader,
            dir: dir.to_path_buf(),
        },
        setup_s,
        bootstrap_s,
    ))
}

fn roundtrip(addr: SocketAddr, wire: &[u8]) -> std::io::Result<ClientResponse> {
    Client::new(addr, true).send(wire, None).map(|(r, _)| r)
}

/// The one client: one keep-alive connection that is opened outside the
/// timed exchange, or (for the traced run's probes) a fresh connection
/// per request.
pub struct Client {
    addr: SocketAddr,
    fresh: bool,
    // fairnn-audit: allow(net-outside-server) — the benchmark's load client, driving the served path over loopback as server_throughput does
    conn: Option<TcpStream>,
}

impl Client {
    pub fn new(addr: SocketAddr, fresh: bool) -> Self {
        Self {
            addr,
            fresh,
            conn: None,
        }
    }

    // fairnn-audit: allow(net-outside-server) — the benchmark's load client, driving the served path over loopback as server_throughput does
    fn connect(&self) -> std::io::Result<TcpStream> {
        // fairnn-audit: allow(net-outside-server) — the benchmark's load client, driving the served path over loopback as server_throughput does
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One exchange; returns the response and the client wall time in ns
    /// (including the connect on a fresh connection). With `spans`, the
    /// connect, write and read are recorded as children of a
    /// `client.request` span.
    pub fn send(
        &mut self,
        wire: &[u8],
        mut spans: Option<&mut Spans>,
    ) -> std::io::Result<(ClientResponse, u64)> {
        if !self.fresh && self.conn.is_none() {
            self.conn = Some(self.connect()?);
        }
        let root = spans.as_deref_mut().map(|s| s.open("client.request"));
        let t0 = fairnn_obs::monotonic_ns();
        let mut fresh_stream = None;
        let stream = if self.fresh {
            let s = timed(&mut spans, "client.connect", || self.connect())?;
            fresh_stream.insert(s)
        } else {
            self.conn.as_mut().expect("connected above")
        };
        let result = timed(&mut spans, "client.write", || stream.write_all(wire))
            .and_then(|()| timed(&mut spans, "client.read", || read_response(stream)));
        let ns = fairnn_obs::monotonic_ns() - t0;
        if let (Some(s), Some(idx)) = (spans, root) {
            s.close(idx);
        }
        if result.is_err() {
            self.conn = None;
        }
        result.map(|response| (response, ns))
    }

    /// Drops the keep-alive connection (the next send reconnects).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }
}

fn timed<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f).0,
        None => f(),
    }
}

/// Decodes a `/v1/query` answer and checks its shape.
fn decode_answer(
    response: &ClientResponse,
    request: &QueryRequest<SparseSet>,
) -> Result<BatchResponse, String> {
    if response.status != 200 {
        return Err(format!("query answered {}", response.status));
    }
    let mut dec = Decoder::new(&response.body);
    let decoded = BatchResponse::decode(&mut dec)
        .and_then(|r| dec.finish().map(|()| r))
        .map_err(|err| format!("undecodable query answer: {err}"))?;
    if decoded.answers.len() != request.queries.len() {
        return Err(format!(
            "{} answers for {} queries",
            decoded.answers.len(),
            request.queries.len()
        ));
    }
    Ok(decoded)
}

/// Client-side record of one phase.
#[derive(Default)]
pub struct Phase {
    pub query_ns: Vec<f64>,
    pub commit_ns: Vec<f64>,
    /// Sum of all exchange times: the phase's wall time without the
    /// in-process checks that run between exchanges.
    pub busy_ns: u64,
    /// Process CPU time over the runs of consecutive query exchanges.
    pub query_cpu_ns: u64,
    /// Process CPU time of each commit exchange.
    pub commit_cpu_ns: Vec<f64>,
    pub queries: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub wal_bytes: u64,
    pub rounds: u64,
    pub buckets: u64,
    pub entries: u64,
    pub distance_evals: u64,
    pub answered: u64,
    pub fallbacks: u64,
    pub last_responses: Vec<BatchResponse>,
}

/// The client's model of the engine, advanced by every acknowledged
/// commit, plus the checks run against each answer.
pub struct Checker<'a, B> {
    inputs: &'a Inputs,
    reader: Reader<B>,
    live: Vec<bool>,
    generation: u64,
    sample: StdRng,
    fallback: std::sync::Arc<fairnn_obs::Counter>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl<'a, B: Base> Checker<'a, B> {
    fn new(inputs: &'a Inputs, reader: Reader<B>, seed: u64) -> Self {
        let n = inputs.dataset.len();
        let mut live = vec![false; inputs.points.len()];
        live[..n].iter_mut().for_each(|l| *l = true);
        Self {
            inputs,
            reader,
            live,
            generation: 0,
            sample: StdRng::seed_from_u64(seed ^ 0xc4ec_c4ec),
            fallback: fairnn_obs::global().counter(
                "engine_fallback_exhaustive_total",
                "draws that fell back to the exhaustive uniform scan",
            ),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Sends `ops` in order through `client`, checking every answer.
    ///
    /// Consecutive query exchanges run back to back with one process-CPU
    /// reading at each end, and their answers are checked before the next
    /// commit (still on the generation that answered them), so neither the
    /// checks nor a per-exchange clock-tick rounding land in the CPU
    /// figures.
    fn run(&mut self, client: &mut Client, ops: &[Op], keep_last: bool) -> Phase {
        let mut phase = Phase::default();
        let mut pending: Vec<(&QueryRequest<SparseSet>, BatchResponse)> = Vec::new();
        let mut segment_cpu: Option<u64> = None;
        for op in ops {
            let commit_cpu = if matches!(op, Op::Commit { .. }) {
                self.close_segment(&mut phase, &mut segment_cpu, &mut pending, keep_last);
                Some(cpu_ns())
            } else {
                segment_cpu.get_or_insert_with(cpu_ns);
                None
            };
            self.attempted += 1;
            let fallbacks_before = self.fallback.get();
            let sent = client.send(op.wire(), None);
            let commit_cpu = commit_cpu.map(|start| cpu_ns() - start);
            phase.fallbacks += self.fallback.get() - fallbacks_before;
            let (response, ns) = match sent {
                Ok(ok) => ok,
                Err(err) => {
                    self.failed += 1;
                    self.problem(format!("exchange failed: {err}"));
                    continue;
                }
            };
            phase.busy_ns += ns;
            match op {
                Op::Query { request, wire } => {
                    let answer = match decode_answer(&response, request) {
                        Ok(answer) => answer,
                        Err(err) => {
                            self.failed += 1;
                            self.problem(err);
                            continue;
                        }
                    };
                    phase.query_ns.push(ns as f64);
                    phase.queries += request.queries.len() as u64;
                    phase.request_bytes += (wire.len() - body_offset(wire)) as u64;
                    phase.response_bytes += response.body.len() as u64;
                    for a in &answer.answers {
                        phase.rounds += a.stats.rounds as u64;
                        phase.buckets += a.stats.buckets_inspected as u64;
                        phase.entries += a.stats.entries_scanned as u64;
                        phase.distance_evals += a.stats.distance_computations as u64;
                        phase.answered += u64::from(a.id.is_some());
                    }
                    pending.push((request, answer));
                }
                Op::Commit {
                    batch, assigned, ..
                } => {
                    if response.status != 200 {
                        self.failed += 1;
                        self.problem(format!("commit answered {}", response.status));
                        continue;
                    }
                    phase.commit_ns.push(ns as f64);
                    phase.commit_cpu_ns.extend(commit_cpu.map(|ns| ns as f64));
                    let receipt = String::from_utf8_lossy(&response.body).into_owned();
                    self.generation += 1;
                    let expected = format!(
                        "\"generation\":{},\"assigned\":[{}]",
                        self.generation,
                        assigned
                            .iter()
                            .map(|id| id.0.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    if !receipt.contains(&expected) {
                        self.problem(format!("receipt {receipt} lacks {expected}"));
                    }
                    phase.wal_bytes += json_u64(&receipt, "wal_bytes").unwrap_or(0);
                    for op in batch.ops() {
                        if let fairnn_engine::WriteOp::Delete(id) = op {
                            self.live[id.index()] = false;
                        }
                    }
                    for id in assigned {
                        self.live[id.index()] = true;
                    }
                }
            }
        }
        self.close_segment(&mut phase, &mut segment_cpu, &mut pending, keep_last);
        phase
    }

    /// Ends a run of query exchanges: books its CPU time, then checks the
    /// answers it got.
    fn close_segment(
        &mut self,
        phase: &mut Phase,
        segment_cpu: &mut Option<u64>,
        pending: &mut Vec<(&QueryRequest<SparseSet>, BatchResponse)>,
        keep_last: bool,
    ) {
        if let Some(start) = segment_cpu.take() {
            phase.query_cpu_ns += cpu_ns() - start;
        }
        for (request, answer) in pending.drain(..) {
            self.check_answer(request, &answer);
            if keep_last {
                phase.last_responses.push(answer);
            }
        }
    }

    /// Checks one decoded answer against the model; one in
    /// [`CHECK_EVERY`] answers (and every answer holding a `None`) is
    /// also compared with an in-process run on the same generation.
    fn check_answer(&mut self, request: &QueryRequest<SparseSet>, answer: &BatchResponse) {
        if answer.generation != self.generation {
            self.problem(format!(
                "answer stamped generation {} while {} is published",
                answer.generation, self.generation
            ));
        }
        for (q, a) in request.queries.iter().zip(&answer.answers) {
            if let Some(id) = a.id {
                let live = self.live.get(id.index()).copied().unwrap_or(false);
                if !live {
                    self.problem(format!("answer {id:?} is not live"));
                } else if self.inputs.points[id.index()].jaccard(q) < R {
                    self.problem(format!("answer {id:?} is farther than r from its query"));
                }
            }
        }
        let has_none = answer.answers.iter().any(|a| a.id.is_none());
        let sampled = self.sample.random_range(0..CHECK_EVERY) == 0;
        if !(sampled || has_none) {
            return;
        }
        let pin = self.reader.pin();
        if pin.generation() != answer.generation {
            self.problem(format!(
                "in-process pin sees generation {} for an answer of {}",
                pin.generation(),
                answer.generation
            ));
            return;
        }
        if sampled && &pin.run_batch(request) != answer {
            self.problem(format!(
                "wire answer of batch {} differs from the in-process run",
                request.batch
            ));
        }
        for (q, a) in request.queries.iter().zip(&answer.answers) {
            if a.id.is_none() && !pin.index().neighborhood(q).is_empty() {
                self.problem(format!(
                    "None answered in batch {} with a non-empty neighbourhood",
                    request.batch
                ));
            }
        }
    }
}

/// Offset of the body in a request built by `inputs::http_request`.
pub fn body_offset(wire: &[u8]) -> usize {
    wire.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(wire.len(), |p| p + 4)
}

fn json_u64(text: &str, key: &str) -> Option<u64> {
    let start = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) of every thread this process has run, in ns,
/// from `/proc/self/stat`. The kernel keeps it exact and reports it in
/// 10 ms clock ticks (`USER_HZ` = 100). Time a vCPU is stolen by the
/// hypervisor is not in it, so it stays steady when other guests load the
/// host and wall-clock figures do not.
pub fn cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name start at `state`;
    // `utime` and `stime` are the 12th and 13th of them.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<u64>().ok())
        .sum();
    ticks * NS_PER_TICK
}

/// Seconds since `t0_ns` on the process's monotonic clock.
pub fn secs_since(t0_ns: u64) -> f64 {
    (fairnn_obs::monotonic_ns() - t0_ns) as f64 / 1e9
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn run<B: Base, F: LshFamily<SparseSet, Hasher = B> + Sync>(
    args: &Args,
    root: &Path,
    work: &Path,
    family: &F,
) -> Result<Outcome, String> {
    let inputs = inputs::generate(args.workload, args.seed, args.seconds);

    let mut setup_s = Vec::new();
    let mut bootstrap_s = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let dir = work.join(format!("engine-{i}"));
        let (s, setup, boot) = start(family, &inputs, &dir)?;
        setup_s.push(setup);
        bootstrap_s.push(boot);
        if i + 1 < SETUPS {
            drop(s.reader);
            s.handle.join();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            served = Some(s);
        }
    }
    let served = served.expect("at least one set-up");
    let addr = served.handle.addr();
    let publish = fairnn_obs::global().histogram(
        "engine_generation_publish_ns",
        "apply+freeze+publish time of one commit in nanoseconds",
    );

    let mut checker = Checker::new(&inputs, served.reader.clone(), args.seed);
    let mut client = Client::new(addr, false);
    checker.run(&mut client, &inputs.warmup, false);
    let (publish_count, publish_sum) = (publish.count(), publish.sum());
    let measured = checker.run(&mut client, &inputs.measured, false);
    let tail = checker.run(&mut client, &inputs.tail, false);
    let publish_mean_ns =
        (publish.sum() - publish_sum) as f64 / (publish.count() - publish_count).max(1) as f64;
    let last = checker.run(&mut client, &inputs.last, true);

    let mut metrics = Vec::new();
    let mut info = Vec::new();
    let mut spans = Spans::new();
    let probe_p50_us = if args.trace {
        Some(layers::probe(
            &inputs,
            &served,
            &mut client,
            &mut spans,
            &mut metrics,
            &mut checker,
        ))
    } else {
        None
    };
    client.disconnect();
    let Served {
        handle,
        reader,
        dir,
    } = served;
    drop(reader);
    let report = handle.join();
    if !report.completed_within_deadline {
        checker.problem(format!("drain force-closed {report:?}"));
    }

    let mut reopen_times = Vec::new();
    let mut reopen_cpu_ns = 0;
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let (t0, cpu0) = (fairnn_obs::monotonic_ns(), cpu_ns());
        let writer = Writer::<B>::open(&dir).map_err(|err| format!("reopen failed: {err}"))?;
        reopen_cpu_ns += cpu_ns() - cpu0;
        reopen_times.push(secs_since(t0));
        reopened = Some(writer);
    }
    let reopened = reopened.ok_or("no reopen")?;
    let reopen_s = median(&reopen_times);
    let commits = inputs.commits() as u64;
    if reopened.generation() != commits {
        checker.problem(format!(
            "reopened at generation {} after {commits} commits",
            reopened.generation()
        ));
    }
    let pin = reopened.reader().pin();
    for (op, wire_answer) in inputs.last.iter().zip(&last.last_responses) {
        if let Op::Query { request, .. } = op {
            if &pin.run_batch(request) != wire_answer {
                checker.problem(format!(
                    "batch {} does not replay bit-identically after reopen",
                    request.batch
                ));
            }
        }
    }
    drop(pin);
    let live_points = reopened.staging().len() as u64;
    let model_live = checker.live.iter().filter(|&&l| l).count() as u64;
    if live_points != model_live {
        checker.problem(format!(
            "reopened engine holds {live_points} points, the script leaves {model_live}"
        ));
    }
    let disk_bytes = file_len(&dir.join(CHECKPOINT_FILE)) + file_len(&dir.join(WAL_FILE));
    let disk_bytes_per_point = disk_bytes as f64 / live_points.max(1) as f64;

    // Commits run in the measured phase on `churn-paper` and in the tail
    // elsewhere; one of the two is empty.
    let commit_ns: Vec<f64> = measured
        .commit_ns
        .iter()
        .chain(&tail.commit_ns)
        .copied()
        .collect();
    let commit_cpu_ns: f64 = measured
        .commit_cpu_ns
        .iter()
        .chain(&tail.commit_cpu_ns)
        .sum();
    let wal_bytes = measured.wal_bytes + tail.wal_bytes;
    if args.trace {
        layers::writer_layers(
            args,
            family,
            &inputs,
            reopened,
            &dir,
            work,
            LayerInputs {
                reopen_s,
                bootstrap_s: median(&bootstrap_s),
                publish_mean_ns,
                wal_bytes_per_commit: wal_bytes as f64 / commit_ns.len().max(1) as f64,
                disk_bytes_per_point,
                measured: &measured,
                untraced_p50_us: probe_p50_us.map(|p| p.0).unwrap_or(0.0),
                traced_p50_us: probe_p50_us.map(|p| p.1).unwrap_or(0.0),
            },
            &mut metrics,
            &mut checker,
        )?;
        let path = root.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        spans
            .write_tsv(&path)
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        println!("span self time per request ({}):", path.display());
        let requests = measured.query_ns.len().clamp(1, layers::PROBES) as f64;
        for (name, (ns, count)) in spans.self_times() {
            println!(
                "  {name:<20} {:>12.2} us/request  ({count} spans)",
                ns as f64 / 1e3 / requests
            );
        }
    } else {
        drop(reopened);
        let q = &measured.query_ns;
        if q.is_empty() || commit_ns.is_empty() {
            return Err("no successful query or commit to report".into());
        }
        let c = &commit_ns;
        info.extend([
            metric(
                "query_p50_us",
                percentile(q, 0.50) / 1e3,
                "us",
                format!("n={}", q.len()),
            ),
            metric(
                "query_p99_us",
                percentile(q, 0.99) / 1e3,
                "us",
                format!("n={}", q.len()),
            ),
            metric(
                "queries_per_s",
                measured.queries as f64 / (measured.busy_ns as f64 / 1e9),
                "1/s",
                format!("{} queries", measured.queries),
            ),
            metric(
                "commit_p50_ms",
                percentile(c, 0.50) / 1e6,
                "ms",
                format!("n={}", c.len()),
            ),
            metric(
                "commit_p90_ms",
                percentile(c, 0.90) / 1e6,
                "ms",
                format!("n={}", c.len()),
            ),
            metric(
                "reopen_s",
                reopen_s,
                "s",
                format!("median of {REOPENS}, {commits} commits in the WAL"),
            ),
        ]);
        metrics.extend([
            metric(
                "setup_s",
                median(&setup_s),
                "s",
                format!("median of {SETUPS} set-ups"),
            ),
            metric(
                "query_cpu_us",
                measured.query_cpu_ns as f64 / measured.queries.max(1) as f64 / 1e3,
                "us",
                format!("process CPU over {} queries", measured.queries),
            ),
            metric(
                "commit_cpu_ms",
                commit_cpu_ns / c.len() as f64 / 1e6,
                "ms",
                format!("process CPU, mean of {}", c.len()),
            ),
            metric(
                "reopen_cpu_s",
                reopen_cpu_ns as f64 / REOPENS as f64 / 1e9,
                "s",
                format!("process CPU, mean of {REOPENS}, {commits} commits in the WAL"),
            ),
            metric("rss_peak_mb", rss_peak_mb(), "MB", "VmHWM".into()),
            metric(
                "disk_bytes_per_point",
                disk_bytes_per_point,
                "bytes",
                format!("{disk_bytes} bytes / {live_points} points"),
            ),
        ]);
    }
    for m in &metrics {
        if !m.value.is_finite() {
            checker.problem(format!("metric {} is not finite", m.name));
        }
    }
    Ok(Outcome {
        metrics: metrics
            .into_iter()
            .map(|mut m| {
                if !m.value.is_finite() {
                    m.value = 0.0;
                }
                m
            })
            .collect(),
        info,
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems,
    })
}

/// Figures the writer-side layer report needs from the served run.
pub struct LayerInputs<'a> {
    pub reopen_s: f64,
    pub bootstrap_s: f64,
    pub publish_mean_ns: f64,
    pub wal_bytes_per_commit: f64,
    pub disk_bytes_per_point: f64,
    pub measured: &'a Phase,
    pub untraced_p50_us: f64,
    pub traced_p50_us: f64,
}
