//! Observability overhead of the one batch executor.
//!
//! Answers the same request through `ShardedIndex::run_batch` (the loop
//! every route serves through) with `fairnn-obs` metrics and span tracing
//! fully disabled and fully enabled, and compares the best-of-rounds
//! throughput of the two. The answers must be bit-identical (instrumentation
//! must not perturb RNG streams), and the instrumented executor may be at
//! most [`MAX_OVERHEAD_PCT`] slower. The budget is enforced only when the
//! rounds took at least [`MIN_MEASURED_S`] of wall time in total; shorter
//! runs are scheduler noise on a shared runner and are reported as skipped.
//! The process exits non-zero when the budget is exceeded.
//!
//! This is the one absolute performance budget the end-to-end benchmark in
//! `servebench/` does not measure.
//!
//! Usage: `cargo run -p fairnn-bench --release --bin obs_overhead --
//!         [--scale 0.25] [--repetitions 2000] [--seed 42]
//!         [--threads 2]`
//! (`--repetitions` is the batch size; `--threads` sets the build workers.)

#![forbid(unsafe_code)]

use fairnn_bench::figures::{paper_lsh_params, SetShardedIndex};
use fairnn_bench::{CommonArgs, SetWorkload, WorkloadKind};
use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{QueryRequest, ShardedIndexConfig};
use fairnn_lsh::OneBitMinHash;
use fairnn_space::{Jaccard, SparseSet};
use fairnn_stats::table::fmt_f64;
use std::process::ExitCode;

const R: f64 = 0.2;

/// Instrumentation may cost at most this much executor throughput.
const MAX_OVERHEAD_PCT: f64 = 3.0;

/// Overhead measured over less total wall time than this does not gate.
const MIN_MEASURED_S: f64 = 0.05;

/// Plain/instrumented round pairs; the best round of each side is compared.
const ROUNDS: usize = 3;

fn set_instrumented(on: bool) {
    fairnn_obs::set_enabled(on);
    fairnn_obs::set_tracing_enabled(on);
}

fn main() -> ExitCode {
    let args = CommonArgs::from_env();
    let batch_size = args.repetitions;
    println!("Observability overhead — the batch executor with fairnn-obs off vs on");
    println!(
        "scale = {}, batch = {batch_size}, seed = {}, threads = {}\n",
        args.scale, args.seed, args.threads
    );

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

    fairnn_parallel::set_build_threads(args.threads);
    let index = SetShardedIndex::build(
        &OneBitMinHash,
        params,
        dataset,
        near,
        ShardedIndexConfig::default().seeded(args.seed),
    );
    fairnn_parallel::set_build_threads(0);

    // A distinct-work batch: cycle the dataset points as queries.
    let batch: Vec<SparseSet> = (0..batch_size)
        .map(|i| dataset.points()[i % dataset.len()].clone())
        .collect();
    let request = QueryRequest::new(batch);
    // Warm the index (allocator, page faults, lazy metric registration)
    // off the clock, both uninstrumented and instrumented.
    let _ = index.run_batch(&request);
    set_instrumented(true);
    let _ = index.run_batch(&request);
    set_instrumented(false);

    let mut plain_best_qps = 0.0f64;
    let mut instr_best_qps = 0.0f64;
    let mut measured_s = 0.0f64;
    for _ in 0..ROUNDS {
        let start = fairnn_obs::monotonic_ns();
        let plain_answers = index.run_batch(&request);
        let plain_secs = (fairnn_obs::monotonic_ns() - start) as f64 * 1e-9;

        set_instrumented(true);
        let start = fairnn_obs::monotonic_ns();
        let instr_answers = index.run_batch(&request);
        let instr_secs = (fairnn_obs::monotonic_ns() - start) as f64 * 1e-9;
        set_instrumented(false);

        assert_eq!(
            plain_answers, instr_answers,
            "instrumentation perturbed the engine output: identical seeds must \
             yield identical answers with metrics and tracing enabled"
        );
        plain_best_qps = plain_best_qps.max(batch_size as f64 / plain_secs);
        instr_best_qps = instr_best_qps.max(batch_size as f64 / instr_secs);
        measured_s += plain_secs + instr_secs;
    }
    let overhead_pct = (1.0 - instr_best_qps / plain_best_qps) * 100.0;
    println!(
        "observability overhead (metrics + tracing on): uninstrumented {} q/s, \
         instrumented {} q/s, overhead {}% (answers bit-identical over {ROUNDS} rounds, \
         {} s measured)",
        fmt_f64(plain_best_qps, 0),
        fmt_f64(instr_best_qps, 0),
        fmt_f64(overhead_pct, 2),
        fmt_f64(measured_s, 3),
    );

    if measured_s < MIN_MEASURED_S {
        println!(
            "budget: measured over only {measured_s:.3} s (< {MIN_MEASURED_S} s) — \
             too noisy to judge, skipped"
        );
        ExitCode::SUCCESS
    } else if overhead_pct > MAX_OVERHEAD_PCT {
        eprintln!(
            "budget exceeded: the instrumented executor is {overhead_pct:.2}% slower than \
             the uninstrumented one (budget {MAX_OVERHEAD_PCT:.0}%)"
        );
        ExitCode::FAILURE
    } else {
        println!("budget: {overhead_pct:+.2}% (budget {MAX_OVERHEAD_PCT:.0}%) — ok");
        ExitCode::SUCCESS
    }
}
