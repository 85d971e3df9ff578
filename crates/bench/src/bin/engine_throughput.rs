//! Serving throughput of the sharded, concurrent query engine.
//!
//! Four measurements on the Last.FM-like workload:
//!
//! 1. **Baselines** — single-thread queries/sec of the unsharded fair
//!    samplers and the sharded sampler, all driven through the object-safe
//!    `FairSampler` trait;
//! 2. **Pipeline** — batch throughput of the one batch executor
//!    (`ShardedIndex::run_batch`, the loop every route serves through),
//!    including a bit-for-bit determinism check: `--threads` threads
//!    answering the same request concurrently must return identical
//!    answers;
//! 3. **Observability overhead** — the same executor with `fairnn-obs`
//!    metrics and span tracing fully enabled vs fully disabled. The CI
//!    gate requires the instrumented engine to stay within 3 % of the
//!    uninstrumented one, and the answers are asserted bit-identical
//!    (instrumentation must not perturb RNG streams). `--metrics-json
//!    <path>` additionally dumps the full metrics registry collected
//!    during the instrumented runs;
//! 4. **Concurrent churn** — `--threads` reader threads pin epochs and
//!    run batches through `EngineReader` while the main thread commits
//!    generational `WriteBatch`es through `EngineWriter` (WAL append,
//!    fsync, publish). Reports sustained reader queries/sec under churn
//!    and the mean commit→publish latency; `hardware_limited` when the
//!    runner has fewer cores than readers + writer.
//!
//! Usage: `cargo run -p fairnn-bench --release --bin engine_throughput --
//!         [--scale 0.25] [--repetitions 2000] [--seed 42]
//!         [--threads 8] [--shards 4]`
//! (`--repetitions` is reused as the batch size.)

use fairnn_bench::figures::{paper_lsh_params, SetShardedIndex, SetShardedSampler};
use fairnn_bench::{json_fixed, CommonArgs, SetWorkload, WorkloadKind};
use fairnn_core::{FairNnis, FairNns, FairSampler, NaiveFairLsh, SimilarityAtLeast};
use fairnn_engine::{EngineWriter, QueryRequest, ShardedIndexConfig, WriteBatch};
use fairnn_lsh::{LshHasher, LshIndex, OneBitMinHash, QueryScratch};
use fairnn_space::{Jaccard, SparseSet};
use fairnn_stats::{table::fmt_f64, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const R: f64 = 0.2;

/// Hashing cost of the full `K × L` bank per point, in nanoseconds:
/// batched (`hash_all`, single pass) vs per-row evaluation.
fn measure_hash_ns(
    index: &LshIndex<fairnn_lsh::ConcatenatedHasher<fairnn_lsh::OneBitMinHasher>>,
    batch: &[SparseSet],
) -> (f64, f64) {
    let mut scratch = QueryScratch::new();
    let start = Instant::now();
    for point in batch {
        index.query_keys_into(point, &mut scratch.keys);
    }
    let batched = start.elapsed().as_secs_f64() * 1e9 / batch.len() as f64;
    let start = Instant::now();
    for point in batch {
        scratch.keys.clear();
        scratch
            .keys
            .extend(index.hashers().iter().map(|h| h.hash(point)));
    }
    let per_row = start.elapsed().as_secs_f64() * 1e9 / batch.len() as f64;
    (batched, per_row)
}

fn main() {
    let args = CommonArgs::from_env();
    let batch_size = args.repetitions;
    println!("Engine throughput — sharded, concurrent, batched fair sampling");
    println!(
        "scale = {}, batch = {batch_size}, seed = {}, threads = {}, shards = {}\n",
        args.scale, args.seed, args.threads, args.shards
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < args.threads {
        println!(
            "note: only {cores} hardware thread(s) available; the {}-reader churn row will be bounded by the hardware\n",
            args.threads
        );
    }

    let workload = SetWorkload::generate(WorkloadKind::LastFm, args.scale, args.queries, args.seed);
    let dataset = &workload.dataset;
    let params = paper_lsh_params(dataset.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    println!(
        "Last.FM-like: {} users, r = {R}, K = {}, L = {}",
        dataset.len(),
        params.k,
        params.l
    );

    // A distinct-work batch: cycle the dataset points as queries.
    let batch: Vec<SparseSet> = (0..batch_size)
        .map(|i| dataset.points()[i % dataset.len()].clone())
        .collect();

    // 0. Raw hashing cost of the query pipeline's first stage.
    let hash_index = {
        let mut rng = StdRng::seed_from_u64(args.seed);
        LshIndex::build(&OneBitMinHash, params, dataset.points(), &mut rng)
    };
    let (hash_batched_ns, hash_per_row_ns) = measure_hash_ns(&hash_index, &batch);
    println!(
        "hash (K x L = {} rows/point): batched hash_all {} ns/point, per-row {} ns/point\n",
        params.k * params.l,
        fmt_f64(hash_batched_ns, 0),
        fmt_f64(hash_per_row_ns, 0),
    );
    drop(hash_index);

    // 1. Single-thread baselines through the object-safe FairSampler trait.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut baseline_qps: Vec<(String, f64)> = Vec::new();
    let mut baselines: Vec<Box<dyn FairSampler<SparseSet>>> = vec![
        Box::new(NaiveFairLsh::build(
            &OneBitMinHash,
            params,
            dataset,
            near,
            &mut rng,
        )),
        Box::new(FairNns::build(
            &OneBitMinHash,
            params,
            dataset,
            near,
            &mut rng,
        )),
        Box::new(FairNnis::build(
            &OneBitMinHash,
            params,
            dataset,
            near,
            &mut rng,
        )),
        Box::new(SetShardedSampler::build(
            &OneBitMinHash,
            params,
            dataset,
            near,
            ShardedIndexConfig::with_shards(args.shards).seeded(args.seed),
        )),
    ];
    let mut table = TextTable::new(
        "single-thread baselines (dyn FairSampler dispatch)",
        &["sampler", "queries/sec"],
    );
    for sampler in &mut baselines {
        let mut rng = StdRng::seed_from_u64(args.seed + 1);
        let start = Instant::now();
        for query in &batch {
            let _ = sampler.sample_dyn(query, &mut rng);
        }
        let qps = batch.len() as f64 / start.elapsed().as_secs_f64();
        table.add_row(vec![sampler.sampler_name().to_string(), fmt_f64(qps, 0)]);
        baseline_qps.push((sampler.sampler_name().to_string(), qps));
    }
    println!("{table}");

    // 2. The batch executor every route serves through, plus a determinism
    //    check: `--threads` threads answering the same request concurrently
    //    must reproduce the serial answers bit for bit.
    let index = SetShardedIndex::build(
        &OneBitMinHash,
        params,
        dataset,
        near,
        ShardedIndexConfig::with_shards(args.shards).seeded(args.seed),
    );
    let request = QueryRequest::new(batch.clone());
    // Warm the index (allocator, page faults) off the clock.
    let warmup = QueryRequest::new(batch.iter().take(64).cloned().collect());
    let _ = index.run_batch(&warmup);

    let start = Instant::now();
    let serial_answers = index.run_batch(&request);
    let serial_qps = batch.len() as f64 / start.elapsed().as_secs_f64();
    println!(
        "engine pipeline (one batch executor): {} queries/sec",
        fmt_f64(serial_qps, 0)
    );
    fairnn_parallel::set_build_threads(args.threads);
    let replays = fairnn_parallel::map_indexed(args.threads, |_| index.run_batch(&request));
    fairnn_parallel::set_build_threads(0);
    for replay in replays {
        assert_eq!(
            replay, serial_answers,
            "determinism violated: identical requests must yield identical answers on every thread"
        );
    }
    println!(
        "determinism check: {} answers identical across {} concurrent thread(s) (seed {})\n",
        serial_answers.len(),
        args.threads,
        args.seed
    );

    // 3. Observability overhead: the same request answered with fairnn-obs
    //    fully off and with metrics + span tracing fully on. The executor
    //    keeps no state between batches, so the answers must match bit for
    //    bit; best-of-rounds throughput feeds the CI gate's 3 % budget.
    fairnn_obs::set_enabled(true);
    fairnn_obs::set_tracing_enabled(true);
    let _ = index.run_batch(&warmup);
    fairnn_obs::set_enabled(false);
    fairnn_obs::set_tracing_enabled(false);

    const OBS_ROUNDS: usize = 3;
    let mut plain_best_qps = 0.0f64;
    let mut instr_best_qps = 0.0f64;
    let mut obs_measured_s = 0.0f64;
    for _ in 0..OBS_ROUNDS {
        let start = Instant::now();
        let plain_answers = index.run_batch(&request);
        let plain_secs = start.elapsed().as_secs_f64();

        fairnn_obs::set_enabled(true);
        fairnn_obs::set_tracing_enabled(true);
        let start = Instant::now();
        let instr_answers = index.run_batch(&request);
        let instr_secs = start.elapsed().as_secs_f64();
        fairnn_obs::set_enabled(false);
        fairnn_obs::set_tracing_enabled(false);

        assert_eq!(
            plain_answers, instr_answers,
            "instrumentation perturbed the engine output: identical seeds must \
             yield identical answers with metrics and tracing enabled"
        );
        plain_best_qps = plain_best_qps.max(batch.len() as f64 / plain_secs);
        instr_best_qps = instr_best_qps.max(batch.len() as f64 / instr_secs);
        obs_measured_s += plain_secs + instr_secs;
    }
    let obs_overhead_pct = (1.0 - instr_best_qps / plain_best_qps) * 100.0;
    println!(
        "observability overhead (metrics + tracing on): uninstrumented {} q/s, \
         instrumented {} q/s, overhead {}% (answers bit-identical over {OBS_ROUNDS} rounds)",
        fmt_f64(plain_best_qps, 0),
        fmt_f64(instr_best_qps, 0),
        fmt_f64(obs_overhead_pct, 2),
    );

    // 4. Concurrent churn: reader threads pin epochs and run batches while
    //    the main thread commits write batches (WAL append + fsync +
    //    generation publish). The readers never block on the writer — each
    //    iteration pins whatever generation is current — so this measures
    //    the query path's immunity to live updates, plus the full
    //    durability cost of a commit.
    let reader_threads = args.threads.max(1);
    let churn_dir = std::env::temp_dir().join(format!(
        "fairnn-bench-churn-{}-{}",
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&churn_dir);
    let mut writer: EngineWriter<SparseSet, _, _> = EngineWriter::bootstrap(
        &OneBitMinHash,
        params,
        dataset,
        near,
        ShardedIndexConfig::with_shards(args.shards).seeded(args.seed),
        &churn_dir,
    )
    .expect("bootstrap churn engine");
    let reader = writer.reader();
    let churn_batch: Vec<SparseSet> = (0..64)
        .map(|i| dataset.points()[i % dataset.len()].clone())
        .collect();

    const MIN_CHURN_COMMITS: usize = 32;
    const MIN_CHURN_WINDOW_S: f64 = 0.2;
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pool = fairnn_parallel::ThreadPool::new(reader_threads);
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    for worker in 0..reader_threads {
        let reader = reader.clone();
        let churn_batch = churn_batch.clone();
        let stop = std::sync::Arc::clone(&stop);
        let tx = tx.clone();
        pool.execute(move || {
            let mut served = 0u64;
            let mut round = worker as u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let request = QueryRequest::new(churn_batch.clone()).with_batch(round);
                let pin = reader.pin();
                served += pin.run_batch(&request).answers.len() as u64;
                round += reader_threads as u64;
            }
            tx.send(served).expect("report served count");
        });
    }
    drop(tx);

    let churn_start = Instant::now();
    let mut commits = 0usize;
    let mut commit_secs = 0.0f64;
    let mut last_inserted = None;
    while commits < MIN_CHURN_COMMITS || churn_start.elapsed().as_secs_f64() < MIN_CHURN_WINDOW_S {
        // Alternate insert / delete-what-we-inserted so the index size (and
        // therefore per-commit work) stays bounded over the whole window.
        let batch = match last_inserted.take() {
            None => WriteBatch::new().insert(dataset.points()[commits % dataset.len()].clone()),
            Some(id) => WriteBatch::new().delete(id),
        };
        let start = Instant::now();
        let receipt = writer.commit(batch).expect("churn commit");
        commit_secs += start.elapsed().as_secs_f64();
        last_inserted = receipt.assigned.first().copied();
        commits += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served: u64 = rx.iter().sum();
    let churn_secs = churn_start.elapsed().as_secs_f64();
    drop(pool);
    let _ = std::fs::remove_dir_all(&churn_dir);

    let churn_qps = served as f64 / churn_secs;
    let publish_ms = commit_secs / commits as f64 * 1e3;
    // Readers + the committing main thread need cores of their own for the
    // q/s figure to measure the engine rather than the scheduler.
    let churn_limited = cores < reader_threads + 1;
    println!(
        "\nconcurrent churn: {} reader thread(s) sustained {} q/s over {} commits \
         (mean commit→publish {} ms, final generation {}{})",
        reader_threads,
        fmt_f64(churn_qps, 0),
        commits,
        fmt_f64(publish_ms, 3),
        writer.generation(),
        if churn_limited {
            format!("; hardware-limited, {cores} core(s)")
        } else {
            String::new()
        },
    );

    // Full metrics registry dump collected during the instrumented runs.
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, fairnn_obs::global().render_json()).expect("write metrics JSON");
        println!("wrote metrics registry dump to {path}");
    }

    // Machine-readable report for CI's perf-trajectory artifact.
    if let Some(path) = &args.json {
        // Canonical fixed precision for every timing row: q/s and ns at one
        // decimal, percentages at two, seconds at three (see `json_fixed`).
        let baselines_json: Vec<String> = baseline_qps
            .iter()
            .map(|(name, qps)| {
                format!(
                    "    {{\"sampler\": \"{name}\", \"qps\": {}}}",
                    json_fixed(*qps, 1)
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"engine_throughput\",\n  \"scale\": {},\n  \"batch\": {},\n  \"seed\": {},\n  \"shards\": {},\n  \"threads\": {},\n  \"available_parallelism\": {cores},\n  \"dataset_points\": {},\n  \"k\": {},\n  \"l\": {},\n  \"hash_ns_per_point\": {{\"batched\": {}, \"per_row\": {}}},\n  \"baselines_qps\": [\n{}\n  ],\n  \"pipeline_qps\": [\n    {{\"threads\": 1, \"qps\": {}, \"hardware_limited\": false}}\n  ],\n  \"churn\": {{\"reader_threads\": {}, \"commits\": {}, \"qps\": {}, \"publish_ms\": {}, \"hardware_limited\": {}}},\n  \"obs_overhead\": {{\"uninstrumented_qps\": {}, \"instrumented_qps\": {}, \"overhead_pct\": {}, \"measured_s\": {}}}\n}}\n",
            args.scale,
            batch_size,
            args.seed,
            args.shards,
            args.threads,
            dataset.len(),
            params.k,
            params.l,
            json_fixed(hash_batched_ns, 1),
            json_fixed(hash_per_row_ns, 1),
            baselines_json.join(",\n"),
            json_fixed(serial_qps, 1),
            reader_threads,
            commits,
            json_fixed(churn_qps, 1),
            json_fixed(publish_ms, 3),
            churn_limited,
            json_fixed(plain_best_qps, 1),
            json_fixed(instr_best_qps, 1),
            json_fixed(obs_overhead_pct, 2),
            json_fixed(obs_measured_s, 3),
        );
        std::fs::write(path, json).expect("write JSON report");
        println!("\nwrote machine-readable report to {path}");
    }
}
