//! Build-once/serve-many: what does a snapshot buy over a rebuild?
//!
//! For each of several dataset scales, this binary builds the two heaviest
//! structures of the workspace — the Section 4 [`FairNnis`] sampler and the
//! engine [`Checkpoint`] a restarting server loads — then measures the
//! snapshot cycle:
//!
//! 1. **build** — wall time to construct the structure from raw points;
//! 2. **save** — wall time to write the versioned snapshot, plus its size;
//! 3. **load** — wall time to restore the structure from the snapshot;
//! 4. **verify** — the restored structure must answer a probe workload
//!    bit-for-bit identically to the one it was saved from (the binary
//!    aborts otherwise, so CI catches roundtrip drift).
//!
//! The `build / load` ratio is the multiplier a warm restart, a CI job
//! attaching a prebuilt fixture, or an extra serving replica gains from
//! attaching state instead of reconstructing it.
//!
//! Usage: `cargo run --release -p fairnn-bench --bin snapshot_cycle --
//!         [--scale 0.25] [--seed 42] [--threads 2] [--shards 4]
//!         [--json BENCH_snapshot.json]`
//! (three scales are exercised: ½×, 1× and 2× the `--scale` value, clamped
//! to the valid range).

use fairnn_bench::figures::paper_lsh_params;
use fairnn_bench::{json_fixed, CommonArgs, SetWorkload, WorkloadKind};
use fairnn_core::{FairNnis, NeighborSampler, SimilarityAtLeast};
use fairnn_engine::{Checkpoint, QueryRequest, ShardedIndex, ShardedIndexConfig};
use fairnn_lsh::{ConcatenatedHasher, OneBitMinHash, OneBitMinHasher};
use fairnn_snapshot::{CountingAlloc, SnapshotKind};
use fairnn_space::{Jaccard, SparseSet};
use fairnn_stats::{table::fmt_f64, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Meters ≥ 64 KiB allocations so the load phase can assert the image
/// path's O(1)-large-allocation promise in the emitted report.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const R: f64 = 0.2;

type SetNnis = FairNnis<SparseSet, ConcatenatedHasher<OneBitMinHasher>, SimilarityAtLeast<Jaccard>>;
type SetCheckpoint =
    Checkpoint<SparseSet, ConcatenatedHasher<OneBitMinHasher>, SimilarityAtLeast<Jaccard>>;

/// One measured build → save → load → verify cycle.
struct Cycle {
    scale: f64,
    structure: &'static str,
    dataset_points: usize,
    build_s: f64,
    save_s: f64,
    load_s: f64,
    /// Allocations of at least [`fairnn_snapshot::LARGE_ALLOC_THRESHOLD`]
    /// bytes during the load call — O(1) under the one-buffer image path.
    load_large_allocs: u64,
    snapshot_bytes: u64,
}

impl Cycle {
    fn build_over_load(&self) -> f64 {
        if self.load_s > 0.0 {
            self.build_s / self.load_s
        } else {
            f64::INFINITY
        }
    }
}

fn snapshot_path(structure: &str, scale: f64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fairnn-snapshot-cycle-{}-{structure}-{scale}.snap",
        std::process::id()
    ))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// One cycle for the Section 4 sampler: the verification draws a sample
/// sequence from the original and the restored sampler with identical RNG
/// streams and requires bit-for-bit equality.
fn cycle_fair_nnis(workload: &SetWorkload, scale: f64, seed: u64) -> Cycle {
    let dataset = &workload.dataset;
    let params = paper_lsh_params(dataset.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let (mut sampler, build_s) = timed(|| -> SetNnis {
        let mut rng = StdRng::seed_from_u64(seed);
        FairNnis::build(&OneBitMinHash, params, dataset, near, &mut rng)
    });

    let path = snapshot_path("fair-nnis", scale);
    let ((), save_s) = timed(|| sampler.save(&path).expect("save fair-nnis snapshot"));
    let snapshot_bytes = std::fs::metadata(&path).expect("stat snapshot").len();
    CountingAlloc::reset();
    let (mut loaded, load_s) = timed(|| SetNnis::load(&path).expect("load fair-nnis snapshot"));
    let load_large_allocs = CountingAlloc::large_allocs();
    let _ = std::fs::remove_file(&path);

    let queries = workload.query_points();
    let mut rng_a = StdRng::seed_from_u64(seed ^ 0xA5A5);
    let mut rng_b = StdRng::seed_from_u64(seed ^ 0xA5A5);
    for query in queries.iter().cycle().take(64) {
        assert_eq!(
            sampler.sample(query, &mut rng_a),
            loaded.sample(query, &mut rng_b),
            "restored fair-nnis diverged from the saved sampler"
        );
    }

    Cycle {
        scale,
        structure: "fair-nnis",
        dataset_points: dataset.len(),
        build_s,
        save_s,
        load_s,
        load_large_allocs,
        snapshot_bytes,
    }
}

/// One cycle for the engine checkpoint — the image `EngineWriter::open`
/// loads on restart: the verification runs the same batches through the
/// built and the restored index and requires identical answers (the
/// executor's determinism contract, now across a snapshot).
fn cycle_checkpoint(workload: &SetWorkload, scale: f64, args: &CommonArgs) -> Cycle {
    let dataset = &workload.dataset;
    let params = paper_lsh_params(dataset.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let config = ShardedIndexConfig::with_shards(args.shards).seeded(args.seed);
    let (index, build_s) =
        timed(|| ShardedIndex::build(&OneBitMinHash, params, dataset, near, config));
    let checkpoint = Checkpoint { seq: 0, index };

    let path = snapshot_path("checkpoint", scale);
    let ((), save_s) = timed(|| {
        fairnn_snapshot::save(SnapshotKind::Checkpoint, &checkpoint, &path)
            .expect("save checkpoint snapshot")
    });
    let snapshot_bytes = std::fs::metadata(&path).expect("stat snapshot").len();
    CountingAlloc::reset();
    let (loaded, load_s) = timed(|| -> SetCheckpoint {
        fairnn_snapshot::load(SnapshotKind::Checkpoint, &path).expect("load checkpoint snapshot")
    });
    let load_large_allocs = CountingAlloc::large_allocs();
    let _ = std::fs::remove_file(&path);

    let batch: Vec<SparseSet> = (0..256)
        .map(|i| dataset.points()[i % dataset.len()].clone())
        .collect();
    for b in 0..2u64 {
        let request = QueryRequest::new(batch.clone()).with_batch(b);
        assert_eq!(
            checkpoint.index.run_batch(&request),
            loaded.index.run_batch(&request),
            "restored checkpoint diverged from the saved index"
        );
    }

    Cycle {
        scale,
        structure: "checkpoint",
        dataset_points: dataset.len(),
        build_s,
        save_s,
        load_s,
        load_large_allocs,
        snapshot_bytes,
    }
}

fn main() {
    let args = CommonArgs::from_env();
    // Builds and snapshot encode/decode run on the build workers; the
    // outputs are bit-identical at any thread count (the roundtrip
    // verification below re-checks that on every run).
    fairnn_parallel::set_build_threads(args.threads);
    let cores = fairnn_parallel::available_parallelism();
    println!("Snapshot cycle — build-once/serve-many frozen indexes");
    println!(
        "base scale = {}, seed = {}, threads = {}, shards = {}, {cores} hardware thread(s), format v{}\n",
        args.scale,
        args.seed,
        args.threads,
        args.shards,
        fairnn_snapshot::FORMAT_VERSION
    );

    let mut scales: Vec<f64> = [0.5, 1.0, 2.0]
        .iter()
        .map(|m| (args.scale * m).clamp(0.01, 1.0))
        .collect();
    scales.dedup();

    let mut cycles: Vec<Cycle> = Vec::new();
    for &scale in &scales {
        let workload = SetWorkload::generate(WorkloadKind::LastFm, scale, args.queries, args.seed);
        println!(
            "scale {scale}: {} users, verifying roundtrips ...",
            workload.dataset.len()
        );
        cycles.push(cycle_fair_nnis(&workload, scale, args.seed));
        cycles.push(cycle_checkpoint(&workload, scale, &args));
    }

    let mut table = TextTable::new(
        "snapshot cycle (build vs load, roundtrips verified bit-for-bit)",
        &[
            "scale",
            "structure",
            "points",
            "build s",
            "save s",
            "load s",
            "lg allocs",
            "bytes",
            "build/load",
        ],
    );
    for c in &cycles {
        table.add_row(vec![
            format!("{}", c.scale),
            c.structure.to_string(),
            c.dataset_points.to_string(),
            fmt_f64(c.build_s, 3),
            fmt_f64(c.save_s, 3),
            fmt_f64(c.load_s, 3),
            c.load_large_allocs.to_string(),
            c.snapshot_bytes.to_string(),
            fmt_f64(c.build_over_load(), 1),
        ]);
    }
    println!("{table}");

    if let Some(path) = &args.json {
        // A run asking for more threads than the runner has measures
        // scheduling noise, not parallel speedup; annotate the rows so the
        // gate and dashboards can skip them — the same `hardware_limited`
        // convention `engine_throughput` and `build_scaling` use.
        let hardware_limited = args.threads > cores;
        let rows: Vec<String> = cycles
            .iter()
            .map(|c| {
                format!(
                    "    {{\"scale\": {}, \"structure\": \"{}\", \"dataset_points\": {}, \"threads\": {}, \"build_s\": {}, \"save_s\": {}, \"load_s\": {}, \"load_ns\": {}, \"load_large_allocs\": {}, \"snapshot_bytes\": {}, \"build_over_load\": {}, \"hardware_limited\": {}}}",
                    c.scale,
                    c.structure,
                    c.dataset_points,
                    args.threads,
                    json_fixed(c.build_s, 6),
                    json_fixed(c.save_s, 6),
                    json_fixed(c.load_s, 6),
                    json_fixed(c.load_s * 1e9, 1),
                    c.load_large_allocs,
                    c.snapshot_bytes,
                    json_fixed(c.build_over_load(), 1),
                    hardware_limited,
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"snapshot_cycle\",\n  \"base_scale\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \"shards\": {},\n  \"available_parallelism\": {cores},\n  \"format_version\": {},\n  \"cycles\": [\n{}\n  ]\n}}\n",
            args.scale,
            args.seed,
            args.threads,
            args.shards,
            fairnn_snapshot::FORMAT_VERSION,
            rows.join(",\n"),
        );
        std::fs::write(path, json).expect("write JSON report");
        println!("wrote machine-readable report to {path}");
    }
}
