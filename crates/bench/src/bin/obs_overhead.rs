//! Observability overhead of the one batch executor.
//!
//! Answers the same request through `ShardedIndex::run_batch` (the loop
//! every route serves through) with `fairnn-obs` metrics and span tracing
//! fully disabled and fully enabled, in [`PAIRS`] back-to-back pairs of one
//! plain and one instrumented round, alternating which side goes first. A
//! pair's overhead is the throughput its instrumented round lost against
//! its plain round, and the verdict is the median over the pairs: host
//! noise that slows one round moves one pair, and a drift in host speed
//! over the run favours neither side. The answers must be bit-identical
//! (instrumentation must not perturb RNG streams), and the instrumented
//! executor may be at most [`MAX_OVERHEAD_PCT`] slower. The budget is
//! enforced only when the rounds took at least [`MIN_MEASURED_S`] of wall
//! time in total; shorter runs are scheduler noise on a shared runner and
//! are reported as skipped. The process exits non-zero when the budget is
//! exceeded.
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

/// Plain/instrumented round pairs; the median pair overhead is judged.
const PAIRS: usize = 101;

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

    let run = |instrumented: bool| {
        set_instrumented(instrumented);
        let start = fairnn_obs::monotonic_ns();
        let answers = index.run_batch(&request);
        let secs = (fairnn_obs::monotonic_ns() - start) as f64 * 1e-9;
        set_instrumented(false);
        (answers, secs)
    };
    let mut overheads = Vec::with_capacity(PAIRS);
    let (mut plain_s, mut instr_s) = (0.0f64, 0.0f64);
    for pair in 0..PAIRS {
        let ((plain_answers, plain_secs), (instr_answers, instr_secs)) = if pair % 2 == 0 {
            let plain = run(false);
            (plain, run(true))
        } else {
            let instr = run(true);
            (run(false), instr)
        };
        assert_eq!(
            plain_answers, instr_answers,
            "instrumentation perturbed the engine output: identical seeds must \
             yield identical answers with metrics and tracing enabled"
        );
        overheads.push((1.0 - plain_secs / instr_secs) * 100.0);
        plain_s += plain_secs;
        instr_s += instr_secs;
    }
    overheads.sort_by(f64::total_cmp);
    let overhead_pct = overheads[PAIRS / 2];
    let measured_s = plain_s + instr_s;
    let qps = |secs: f64| fmt_f64((PAIRS * batch_size) as f64 / secs, 0);
    println!(
        "observability overhead (metrics + tracing on): uninstrumented {} q/s, \
         instrumented {} q/s, median overhead {}% over {PAIRS} pairs (quartiles {}% and \
         {}%; answers bit-identical, {} s measured)",
        qps(plain_s),
        qps(instr_s),
        fmt_f64(overhead_pct, 2),
        fmt_f64(overheads[PAIRS / 4], 2),
        fmt_f64(overheads[3 * PAIRS / 4], 2),
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
