//! Deterministic parallel build: wall time vs build threads.
//!
//! The build path dominates every cold start, fold and compaction. This
//! binary measures how construction scales on the `fairnn-parallel` build
//! workers: for each of three dataset scales it builds the two heaviest
//! structures — the Section 4 [`FairNnis`] sampler and the engine's
//! [`ShardedIndex`] — at a sweep of thread counts, verifying at every step
//! that the parallel build is **bit-for-bit identical** to the serial one
//! (the binary aborts otherwise, so CI catches determinism drift). Rows with
//! more threads than cores are annotated `hardware-limited`: they document
//! the overhead, not a speedup.
//!
//! Usage: `cargo run --release -p fairnn-bench --bin build_scaling --
//!         [--scale 0.1] [--seed 42] [--threads 4]`
//! (three scales are exercised: ½×, 1× and 2× the `--scale` value, clamped
//! to the valid range; thread counts swept are 1, 2 and `--threads`.)

#![forbid(unsafe_code)]

use fairnn_bench::figures::{paper_lsh_params, SetShardedIndex};
use fairnn_bench::{CommonArgs, SetWorkload, WorkloadKind};
use fairnn_core::{FairNnis, SimilarityAtLeast};
use fairnn_engine::{ShardedIndex, ShardedIndexConfig};
use fairnn_lsh::{ConcatenatedHasher, OneBitMinHash, OneBitMinHasher};
use fairnn_snapshot::{to_bytes, SnapshotKind};
use fairnn_space::{Jaccard, SparseSet};
use fairnn_stats::{table::fmt_f64, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

const R: f64 = 0.2;

type SetNnis = FairNnis<SparseSet, ConcatenatedHasher<OneBitMinHasher>, SimilarityAtLeast<Jaccard>>;

/// One measured build.
struct BuildRow {
    scale: f64,
    structure: &'static str,
    dataset_points: usize,
    threads: usize,
    build_s: f64,
    speedup_vs_serial: f64,
    hardware_limited: bool,
}

impl BuildRow {
    fn points_per_s(&self) -> f64 {
        if self.build_s > 0.0 {
            self.dataset_points as f64 / self.build_s
        } else {
            f64::INFINITY
        }
    }
}

/// Builds per timed measurement: the reported wall time is the best of
/// these runs (the first doubles as warm-up), which keeps the smoke-scale
/// rows stable on shared runners.
const RUNS_PER_ROW: usize = 3;

/// Runs `f` [`RUNS_PER_ROW`] times; returns the last value and the minimum
/// wall time.
fn timed_best<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut value = None;
    for _ in 0..RUNS_PER_ROW {
        let start = fairnn_obs::monotonic_ns();
        value = Some(f());
        best = best.min((fairnn_obs::monotonic_ns() - start) as f64 * 1e-9);
    }
    (value.expect("at least one run"), best)
}

fn main() {
    let args = CommonArgs::from_env();
    let cores = fairnn_parallel::available_parallelism();
    println!("Build scaling — deterministic parallel index construction");
    println!(
        "base scale = {}, seed = {}, max threads = {}, {cores} hardware thread(s)\n",
        args.scale, args.seed, args.threads
    );

    let mut thread_counts = vec![1usize, 2, args.threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut scales: Vec<f64> = [0.5, 1.0, 2.0]
        .iter()
        .map(|m| (args.scale * m).clamp(0.01, 1.0))
        .collect();
    scales.dedup();

    let mut rows: Vec<BuildRow> = Vec::new();
    for &scale in &scales {
        let workload = SetWorkload::generate(WorkloadKind::LastFm, scale, args.queries, args.seed);
        let dataset = &workload.dataset;
        let params = paper_lsh_params(dataset.len(), R);
        let near = SimilarityAtLeast::new(Jaccard, R);
        println!(
            "scale {scale}: {} users, verifying parallel ≡ serial ...",
            dataset.len()
        );

        // Section 4 sampler.
        let mut serial_image: Option<Vec<u8>> = None;
        let mut serial_s = 0.0;
        for &threads in &thread_counts {
            fairnn_parallel::set_build_threads(threads);
            let (sampler, build_s) = timed_best(|| -> SetNnis {
                let mut rng = StdRng::seed_from_u64(args.seed);
                FairNnis::build(&OneBitMinHash, params, dataset, near, &mut rng)
            });
            let image = to_bytes(SnapshotKind::FairNnis, &sampler);
            match &serial_image {
                None => {
                    serial_image = Some(image);
                    serial_s = build_s;
                }
                Some(reference) => assert_eq!(
                    &image, reference,
                    "{threads}-thread fair-nnis build diverged from the serial build"
                ),
            }
            rows.push(BuildRow {
                scale,
                structure: "fair-nnis",
                dataset_points: dataset.len(),
                threads,
                build_s,
                speedup_vs_serial: serial_s / build_s.max(f64::MIN_POSITIVE),
                hardware_limited: threads > cores,
            });
        }

        // The engine's index (its tables build concurrently too).
        let mut serial_image: Option<Vec<u8>> = None;
        let mut serial_s = 0.0;
        for &threads in &thread_counts {
            fairnn_parallel::set_build_threads(threads);
            let config = ShardedIndexConfig::default().seeded(args.seed);
            let (index, build_s) = timed_best(|| -> SetShardedIndex {
                ShardedIndex::build(&OneBitMinHash, params, dataset, near, config)
            });
            let image = to_bytes(SnapshotKind::ShardedIndex, &index);
            match &serial_image {
                None => {
                    serial_image = Some(image);
                    serial_s = build_s;
                }
                Some(reference) => assert_eq!(
                    &image, reference,
                    "{threads}-thread sharded-index build diverged from the serial build"
                ),
            }
            rows.push(BuildRow {
                scale,
                structure: "sharded-index",
                dataset_points: dataset.len(),
                threads,
                build_s,
                speedup_vs_serial: serial_s / build_s.max(f64::MIN_POSITIVE),
                hardware_limited: threads > cores,
            });
        }
    }
    fairnn_parallel::set_build_threads(0);

    let mut table = TextTable::new(
        "build scaling (parallel ≡ serial verified bit-for-bit)",
        &[
            "scale",
            "structure",
            "points",
            "threads",
            "build s",
            "points/s",
            "speedup",
            "note",
        ],
    );
    for row in &rows {
        table.add_row(vec![
            format!("{}", row.scale),
            row.structure.to_string(),
            row.dataset_points.to_string(),
            row.threads.to_string(),
            fmt_f64(row.build_s, 3),
            fmt_f64(row.points_per_s(), 0),
            fmt_f64(row.speedup_vs_serial, 2),
            if row.hardware_limited {
                format!("hardware-limited ({cores} core(s))")
            } else {
                String::new()
            },
        ]);
    }
    println!("{table}");
}
