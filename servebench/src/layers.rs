//! The traced run: per-layer numbers taken by timing calls into each
//! crate's public functions on the same inputs the served run used.
//!
//! Nothing inside the program is instrumented for this. The server and
//! HTTP layers are attributed by sending the same request three ways
//! (keep-alive, keep-alive traced, fresh connection); the codec and engine
//! layers by replaying the server's handler steps in-process on the same
//! pinned generation with the same batch number, so the engine does the
//! identical work; the writer and WAL layers by running the same commit
//! script through a twin writer and a scratch log.

use crate::inputs::{self, encode, Inputs, Op, R};
use crate::spans::Spans;
use crate::stats::median;
use crate::{
    decode_answer, metric, secs_since, Args, Base, Checker, Client, LayerInputs, Metric, Near,
    Served, Writer,
};
use fairnn_core::{QueryStats, SimilarityAtLeast};
use fairnn_engine::seed::{split_seed, stream_rng};
use fairnn_engine::{
    BatchResponse, Checkpoint, DeadlineBudget, QueryRequest, ShardedIndex, ShardedIndexConfig,
    CHECKPOINT_FILE, WAL_FILE,
};
use fairnn_lsh::{ConcatenatedHasher, LshFamily};
use fairnn_obs::monotonic_ns;
use fairnn_server::{parse_head, Response};
use fairnn_snapshot::{Codec, Decoder, Encoder, SnapshotKind, WalWriter};
use fairnn_space::{Jaccard, SparseSet};
use std::path::Path;

/// Query requests probed per traced run.
pub const PROBES: usize = 160;

/// Base of the per-batch answer streams; mirrors the engine's private
/// `STREAM_BATCH_BASE`, so the decomposed draws consume the same random
/// numbers as the served ones (checked against the wire answers).
const STREAM_BATCH_BASE: u64 = 3 << 32;

/// Server, HTTP, codec and engine layers over the first [`PROBES`]
/// measured query requests, re-sent at the current generation. Returns
/// the untraced and traced keep-alive medians in µs.
pub fn probe<B: Base>(
    inputs: &Inputs,
    served: &Served<B>,
    client: &mut Client,
    spans: &mut Spans,
    metrics: &mut Vec<Metric>,
    checker: &mut Checker<'_, B>,
) -> (f64, f64) {
    let addr = served.handle.addr();
    client.disconnect();
    let mut keep = Client::new(addr, false);
    let mut fresh = Client::new(addr, true);
    let probes: Vec<(&QueryRequest<SparseSet>, &[u8])> = inputs
        .measured
        .iter()
        .filter_map(|op| match op {
            Op::Query { request, wire } => Some((request, wire.as_slice())),
            Op::Commit { .. } => None,
        })
        .take(PROBES)
        .collect();

    let mut keep_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut fresh_ns = Vec::new();
    let mut batch_ns = Vec::new();
    let (mut parse_ns, mut write_ns, mut pin_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut decode_ns, mut encode_ns) = (Vec::new(), Vec::new());
    let mut engine = EngineParts::default();
    for (i, &(request, wire)) in probes.iter().enumerate() {
        spans.request(i as u64);
        let mut answers = Vec::new();
        // Alternate which keep-alive mode goes first (the first exchange
        // of a request meets colder caches and a longer-idle worker), so
        // the traced and untraced medians see the same conditions.
        let order = if i % 2 == 0 { [0, 1, 2] } else { [1, 0, 2] };
        for mode in order {
            checker.attempted += 1;
            let sent = match mode {
                0 => keep.send(wire, None),
                1 => keep.send(wire, Some(&mut *spans)),
                _ => fresh.send(wire, None),
            };
            let answer = sent
                .map_err(|err| err.to_string())
                .and_then(|(response, ns)| {
                    let answer = decode_answer(&response, request)?;
                    [&mut keep_ns, &mut traced_ns, &mut fresh_ns][mode].push(ns as f64);
                    Ok(answer)
                });
            match answer {
                Ok(answer) => answers.push(answer),
                Err(err) => {
                    checker.failed += 1;
                    checker.problem(format!("probe exchange failed: {err}"));
                }
            }
        }

        // The handler's steps, in-process, on the generation the wire
        // answers were stamped with.
        let handler = spans.open("handler");
        let (head, ns) = spans.time("http.parse", || parse_head(wire, 8 * 1024));
        parse_ns.push(ns as f64);
        let Ok(Some(head)) = head else {
            checker.problem("probe request head does not parse".into());
            spans.close(handler);
            continue;
        };
        let (decoded, ns) = spans.time("codec.decode", || {
            let mut dec = Decoder::new(&wire[head.head_len..]);
            QueryRequest::<SparseSet>::decode(&mut dec)
        });
        decode_ns.push(ns as f64);
        let Ok(decoded) = decoded else {
            checker.problem("probe request body does not decode".into());
            spans.close(handler);
            continue;
        };
        let (pin, ns) = spans.time("engine.pin", || served.reader.pin());
        pin_ns.push(ns as f64);
        let (response, batch_took) = spans.time("engine.batch", || {
            pin.run_batch_within(&decoded, &DeadlineBudget::unlimited())
        });
        batch_ns.push(batch_took as f64);
        let Ok(response) = response else {
            checker.problem("in-process batch failed".into());
            spans.close(handler);
            continue;
        };
        let (body, ns) = spans.time("codec.encode", || encode(&response));
        encode_ns.push(ns as f64);
        let (_, ns) = spans.time("http.write", || {
            let mut out = Vec::with_capacity(body.len() + 128);
            Response::binary(200, body).write_to(&mut out, false)
        });
        write_ns.push(ns as f64);
        spans.close(handler);
        if answers.iter().any(|a| a != &response) {
            checker.problem(format!(
                "probe of batch {} answered differently over the wire",
                decoded.batch
            ));
        }

        engine.decompose(spans, &pin, &decoded, &response, batch_took as f64);
    }

    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let n = format!("n={}", keep_ns.len());
    let per_query = engine.queries.max(1) as f64 * 1e3;
    metrics.extend([
        metric(
            "server.accept_us",
            (med(&fresh_ns) - med(&keep_ns)) / 1e3,
            "us",
            format!("median fresh - median keep-alive, {n}"),
        ),
        metric(
            "server.overhead_us",
            (med(&keep_ns) - med(&batch_ns)) / 1e3,
            "us",
            format!("median keep-alive - median run_batch_within, {n}"),
        ),
        metric("http.parse_ns", med(&parse_ns), "ns", n.clone()),
        metric("http.write_ns", med(&write_ns), "ns", n.clone()),
        metric("codec.decode_us", med(&decode_ns) / 1e3, "us", n.clone()),
        metric("codec.encode_us", med(&encode_ns) / 1e3, "us", n.clone()),
        metric("engine.pin_ns", med(&pin_ns), "ns", n.clone()),
        metric("engine.batch_us", med(&batch_ns) / 1e3, "us", n.clone()),
        metric(
            "lsh.hash_us",
            engine.hash_ns / per_query,
            "us",
            "per query, summed over shards".into(),
        ),
        metric(
            "sketch.merge_us",
            engine.merge_ns / per_query,
            "us",
            "per query, summed over shards".into(),
        ),
        metric(
            "shard.collect_us",
            engine.collect_ns / per_query,
            "us",
            "per query, shards the draw collected".into(),
        ),
        metric(
            "engine.draw_us",
            engine.draw_ns / per_query,
            "us",
            "per query, PreparedQuery::sample incl. collection".into(),
        ),
        metric(
            "shard.near_yield",
            engine.near as f64 / engine.evals.max(1) as f64,
            "ratio",
            format!("{} near / {} evaluations", engine.near, engine.evals),
        ),
        metric(
            "engine.unattributed_share",
            1.0 - (engine.hash_ns + engine.merge_ns + engine.draw_ns) / engine.batch_ns.max(1.0),
            "ratio",
            "1 - (hash + merge + draw) / batch".into(),
        ),
    ]);
    if engine.draw_mismatches > 0 {
        // The decomposition no longer replays the engine's own draws
        // (e.g. `STREAM_BATCH_BASE` changed), so `engine.draw_us` would
        // time other work.
        checker.problem(format!(
            "{} decomposed draws differ from the wire answers",
            engine.draw_mismatches
        ));
    }
    (med(&keep_ns) / 1e3, med(&traced_ns) / 1e3)
}

/// The engine's per-query parts, summed over the probes.
#[derive(Default)]
struct EngineParts {
    queries: u64,
    hash_ns: f64,
    merge_ns: f64,
    collect_ns: f64,
    draw_ns: f64,
    batch_ns: f64,
    near: u64,
    evals: u64,
    draw_mismatches: u64,
}

impl EngineParts {
    /// Re-runs each query of `request` through the public per-shard steps
    /// of the two-level sampler: hash, sketch merge, near-point
    /// collection, then `PreparedQuery::sample` with the answer's own
    /// random stream.
    fn decompose<B: Base>(
        &mut self,
        spans: &mut Spans,
        pin: &fairnn_engine::EpochPin<SparseSet, ConcatenatedHasher<B>, Near>,
        request: &QueryRequest<SparseSet>,
        response: &BatchResponse,
        batch_ns: f64,
    ) {
        let index = pin.index();
        let shards = index.shards();
        let l = index.params().l;
        let batch_seed = split_seed(
            index.config().seed,
            STREAM_BATCH_BASE.wrapping_add(request.batch),
        );
        self.batch_ns += batch_ns;
        let root = spans.open("engine.decompose");
        for (pos, q) in request.queries.iter().enumerate() {
            self.queries += 1;
            let mut prepared = pin.prepare(q);
            let before = prepared.stats().buckets_inspected;
            let query = spans.open("engine.query");
            let mut keys = vec![Vec::new(); shards.len()];
            for (shard, keys) in shards.iter().zip(&mut keys) {
                let (_, ns) = spans.time("lsh.hash", || shard.query_keys_into(q, keys));
                self.hash_ns += ns as f64;
            }
            let mut acc = shards[0].empty_sketch();
            let mut stats = QueryStats::default();
            for (shard, keys) in shards.iter().zip(&keys) {
                acc.clear();
                let (_, ns) = spans.time("sketch.merge", || {
                    shard.merge_colliding_with_keys(keys, &mut acc, &mut stats)
                });
                self.merge_ns += ns as f64;
            }
            let mut collect_ns = 0.0;
            for (shard, keys) in shards.iter().zip(&keys) {
                let mut stats = QueryStats::default();
                let (near, ns) = spans.time("shard.collect", || {
                    shard.colliding_near_points_with_keys(q, keys, &mut stats)
                });
                collect_ns += ns as f64;
                self.near += near.len() as u64;
                self.evals += stats.distance_computations as u64;
            }
            let mut rng = stream_rng(batch_seed, pos as u64);
            let (id, ns) = spans.time("engine.draw", || prepared.sample(&mut rng));
            self.draw_ns += ns as f64;
            spans.close(query);
            // The draw collects shards lazily; charge it the average
            // per-shard collection times the shards it walked.
            let walked = (prepared.stats().buckets_inspected - before) / l.max(1);
            self.collect_ns += collect_ns * walked as f64 / shards.len() as f64;
            if response.answers.get(pos).map(|a| a.id) != Some(id) {
                self.draw_mismatches += 1;
            }
        }
        spans.close(root);
    }
}

/// Writer, WAL, snapshot and build layers, the counts and ratios of the
/// measured phase, the determinism self-check and the reconciliation
/// metrics.
#[allow(clippy::too_many_arguments)]
pub fn writer_layers<B: Base, F: LshFamily<SparseSet, Hasher = B> + Sync>(
    args: &Args,
    family: &F,
    inputs: &Inputs,
    mut reopened: Writer<B>,
    dir: &Path,
    work: &Path,
    li: LayerInputs<'_>,
    metrics: &mut Vec<Metric>,
    checker: &mut Checker<'_, B>,
) -> Result<(), String> {
    let served_wal = std::fs::read(dir.join(WAL_FILE)).map_err(|e| e.to_string())?;

    let t0 = monotonic_ns();
    let loaded: Result<Checkpoint<SparseSet, ConcatenatedHasher<B>, Near>, _> =
        fairnn_snapshot::load(SnapshotKind::Checkpoint, dir.join(CHECKPOINT_FILE));
    let load_s = secs_since(t0);
    drop(loaded.map_err(|err| format!("checkpoint load failed: {err}"))?);

    let t0 = monotonic_ns();
    reopened
        .checkpoint()
        .map_err(|err| format!("checkpoint failed: {err}"))?;
    let checkpoint_s = secs_since(t0);
    drop(reopened);

    let near = SimilarityAtLeast::new(Jaccard, R);
    let config = ShardedIndexConfig::with_shards(inputs::SHARDS).seeded(inputs.engine_seed);
    let t0 = monotonic_ns();
    let index = ShardedIndex::build(family, inputs.params, &inputs.dataset, near, config);
    let build_s = secs_since(t0);
    drop(index);

    // The same commit script through a twin writer: its commit times, and
    // a second execution of the seed that must leave identical WAL bytes,
    // generation and disk footprint.
    let twin_dir = work.join("twin");
    let mut twin = Writer::bootstrap(
        family,
        inputs.params,
        &inputs.dataset,
        near,
        config,
        &twin_dir,
    )
    .map_err(|err| format!("twin bootstrap failed: {err}"))?;
    let mut commit_ns = Vec::new();
    let mut records = Vec::new();
    for op in inputs.all_ops() {
        if let Op::Commit {
            batch, assigned, ..
        } = op
        {
            let mut record = Encoder::new();
            record.write_u64(twin.next_seq());
            batch.encode(&mut record);
            records.push(record.into_bytes());
            let t0 = monotonic_ns();
            let receipt = twin
                .commit(batch.clone())
                .map_err(|err| format!("twin commit failed: {err}"))?;
            commit_ns.push((monotonic_ns() - t0) as f64);
            if &receipt.assigned != assigned {
                checker.problem("twin commit assigned other ids than the script".into());
            }
        }
    }
    let twin_wal = std::fs::read(twin_dir.join(WAL_FILE)).map_err(|e| e.to_string())?;
    if twin_wal != served_wal {
        checker.problem("the twin's WAL bytes differ from the served engine's".into());
    }
    if twin.generation() != inputs.commits() as u64 {
        checker.problem("the twin ends at another generation".into());
    }
    let twin_disk = std::fs::metadata(twin_dir.join(CHECKPOINT_FILE)).map_or(0, |m| m.len())
        + twin_wal.len() as u64;
    if twin_disk as f64 / twin.staging().len().max(1) as f64 != li.disk_bytes_per_point {
        checker.problem("the twin's disk bytes per point differ".into());
    }
    drop(twin);

    let mut wal = WalWriter::create(work.join("append.wal")).map_err(|e| e.to_string())?;
    let mut append_ns = Vec::new();
    for record in &records {
        let t0 = monotonic_ns();
        wal.append(record).map_err(|e| e.to_string())?;
        append_ns.push((monotonic_ns() - t0) as f64);
    }

    let same_bytes = |seed: u64| {
        let again = inputs::generate(args.workload, seed, args.seconds);
        let same = again
            .all_ops()
            .map(Op::wire)
            .eq(inputs.all_ops().map(Op::wire));
        same
    };
    if !same_bytes(args.seed) {
        checker.problem("one seed generated different request bytes twice".into());
    }
    if same_bytes(args.seed.wrapping_add(1)) {
        checker.problem("a holdout seed generated the same request bytes".into());
    }

    let m = li.measured;
    let queries = m.queries.max(1) as f64;
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let c = format!("n={}", commit_ns.len());
    metrics.extend([
        metric(
            "codec.request_bytes",
            m.request_bytes as f64 / m.query_ns.len().max(1) as f64,
            "bytes",
            "mean body per query request".into(),
        ),
        metric(
            "codec.response_bytes",
            m.response_bytes as f64 / m.query_ns.len().max(1) as f64,
            "bytes",
            "mean body per query response".into(),
        ),
        metric(
            "engine.rounds_per_draw",
            m.rounds as f64 / queries,
            "count",
            format!("{} draws", m.queries),
        ),
        metric(
            "engine.buckets_per_query",
            m.buckets as f64 / queries,
            "count",
            String::new(),
        ),
        metric(
            "engine.entries_per_query",
            m.entries as f64 / queries,
            "count",
            String::new(),
        ),
        metric(
            "engine.distance_evals_per_query",
            m.distance_evals as f64 / queries,
            "count",
            String::new(),
        ),
        metric(
            "engine.accept_ratio",
            m.answered.saturating_sub(m.fallbacks) as f64 / m.rounds.max(1) as f64,
            "ratio",
            "accepted draws / rounds".into(),
        ),
        metric(
            "engine.fallback_share",
            m.fallbacks as f64 / queries,
            "ratio",
            format!("{} exhaustive fallbacks", m.fallbacks),
        ),
        metric(
            "engine.repeat_share",
            inputs.repeat_share,
            "ratio",
            "queries repeating an earlier one".into(),
        ),
        metric("writer.commit_ms", med(&commit_ns) / 1e6, "ms", c.clone()),
        metric("wal.append_ms", med(&append_ns) / 1e6, "ms", c.clone()),
        metric(
            "writer.publish_ms",
            li.publish_mean_ns / 1e6,
            "ms",
            "mean of engine_generation_publish_ns".into(),
        ),
        metric(
            "wal.bytes_per_commit",
            li.wal_bytes_per_commit,
            "bytes",
            String::new(),
        ),
        metric("snapshot.load_s", load_s, "s", String::new()),
        metric(
            "wal.replay_s",
            li.reopen_s - load_s,
            "s",
            "reopen_s - snapshot.load_s".into(),
        ),
        metric("writer.checkpoint_s", checkpoint_s, "s", String::new()),
        metric("build.index_s", build_s, "s", String::new()),
        metric(
            "snapshot.save_s",
            li.bootstrap_s - build_s,
            "s",
            "bootstrap - build".into(),
        ),
        metric(
            "trace.overhead_share",
            li.traced_p50_us / li.untraced_p50_us.max(f64::MIN_POSITIVE) - 1.0,
            "ratio",
            format!(
                "traced {:.1} us vs untraced {:.1} us p50",
                li.traced_p50_us, li.untraced_p50_us
            ),
        ),
    ]);
    Ok(())
}
