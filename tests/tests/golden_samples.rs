//! Seed-pinned golden tests: the frozen-CSR bucket layout and the batched
//! hash path must not change a single sampled id.
//!
//! The expected sequences (shared constants in `fairnn_integration_tests`)
//! were captured from the pre-freeze `HashMap<u64, Vec<PointId>>`
//! implementation (PR 2 state) with the exact builds and RNG streams used
//! here. Any change to hashing order, bucket order, or the samplers'
//! consumption of query randomness shows up as a mismatch — which is the
//! point: freezing the layout is a pure representation change and must be
//! bit-for-bit invisible to callers. `snapshot_roundtrip.rs` holds the
//! disk-roundtrip counterparts of these tests, pinned to the same
//! constants.

use fairnn_core::{
    FairNnis, FairNns, NeighborSampler, QueryStats, RankSwapSampler, SimilarityAtLeast,
};
use fairnn_engine::{EngineWriter, QueryRequest, ShardedIndex, ShardedIndexConfig};
use fairnn_integration_tests::{
    golden_dataset, golden_ids as ids, golden_params as params, GOLDEN_ENGINE_FIRST,
    GOLDEN_FAIR_NNIS, GOLDEN_FAIR_NNS, GOLDEN_RANK_SWAP, GOLDEN_SHARDED,
};
use fairnn_lsh::MinHash;
use fairnn_space::{Jaccard, PointId, SparseSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Summed work counters of a golden run, pinned next to its ids so that a
/// change to what is walked or evaluated shows up even when no sampled id
/// moves. Fields: `entries_scanned`, `distance_computations`,
/// `buckets_inspected`, `rounds`.
fn counters(stats: QueryStats) -> [usize; 4] {
    [
        stats.entries_scanned,
        stats.distance_computations,
        stats.buckets_inspected,
        stats.rounds,
    ]
}

#[test]
fn fair_nns_golden() {
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(1);
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let mut sampler = FairNns::build(&MinHash, params(data.len()), &data, near, &mut rng);
    let mut qrng = StdRng::seed_from_u64(5);
    // Cluster queries all share one neighborhood (one min-rank answer);
    // isolated queries return themselves — both shapes are pinned.
    let mut work = QueryStats::default();
    let got: Vec<Option<PointId>> = [0u32, 3, 7, 10, 13, 16, 19, 22, 25, 28]
        .iter()
        .map(|&qi| {
            let id = sampler.sample(&data.point(PointId(qi)).clone(), &mut qrng);
            work.accumulate(&sampler.last_query_stats());
            id
        })
        .collect();
    println!("fair_nns_golden: {:?} {:?}", ids(&got), counters(work));
    assert_eq!(ids(&got), GOLDEN_FAIR_NNS);
    assert_eq!(counters(work), [70, 10, 70, 0]);
}

#[test]
fn fair_nnis_golden() {
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(2);
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let mut sampler = FairNnis::build(&MinHash, params(data.len()), &data, near, &mut rng);
    let query = data.point(PointId(0)).clone();
    let mut qrng = StdRng::seed_from_u64(99);
    let mut work = QueryStats::default();
    let got: Vec<Option<PointId>> = (0..20)
        .map(|_| {
            let id = sampler.sample(&query, &mut qrng);
            work.accumulate(&sampler.last_query_stats());
            id
        })
        .collect();
    println!("fair_nnis_golden: {:?} {:?}", ids(&got), counters(work));
    assert_eq!(ids(&got), GOLDEN_FAIR_NNIS);
    assert_eq!(counters(work), [853, 81, 2338, 355]);
}

#[test]
fn rank_swap_golden() {
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(3);
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let mut sampler = RankSwapSampler::build(&MinHash, params(data.len()), &data, near, &mut rng);
    let query = data.point(PointId(4)).clone();
    let mut qrng = StdRng::seed_from_u64(7);
    let got: Vec<Option<PointId>> = (0..20).map(|_| sampler.sample(&query, &mut qrng)).collect();
    println!("rank_swap_golden: {:?}", ids(&got));
    assert_eq!(ids(&got), GOLDEN_RANK_SWAP);
}

#[test]
fn sharded_index_golden() {
    let data = golden_dataset();
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let index = ShardedIndex::build(
        &MinHash,
        params(data.len()),
        &data,
        near,
        ShardedIndexConfig::default().seeded(17),
    );
    let query = data.point(PointId(0)).clone();
    let mut qrng = StdRng::seed_from_u64(11);
    let mut work = QueryStats::default();
    let got: Vec<Option<PointId>> = (0..20)
        .map(|_| {
            let (id, stats) = index.sample(&query, &mut qrng);
            work.accumulate(&stats);
            id
        })
        .collect();
    println!("sharded_index_golden: {:?} {:?}", ids(&got), counters(work));
    assert_eq!(ids(&got), GOLDEN_SHARDED);
    assert_eq!(counters(work), [1340, 20, 280, 37]);
}

#[test]
fn engine_batch_golden() {
    // Pinned through the served path: a bootstrapped engine directory, a
    // reader pin and the one batch executor.
    let data = golden_dataset();
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let dir = std::env::temp_dir().join(format!("fairnn-golden-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = EngineWriter::bootstrap(
        &MinHash,
        params(data.len()),
        &data,
        near,
        ShardedIndexConfig::default().seeded(23),
        &dir,
    )
    .expect("bootstrap");
    let batch: Vec<SparseSet> = (0..10u32).map(|i| data.point(PointId(i)).clone()).collect();
    let response = writer.reader().pin().run_batch(&QueryRequest::new(batch));
    let first: Vec<Option<PointId>> = response.answers.iter().map(|a| a.id).collect();
    println!("engine_batch_golden: {:?}", ids(&first));
    assert_eq!(ids(&first), GOLDEN_ENGINE_FIRST);
    drop(writer);
    let _ = std::fs::remove_dir_all(dir);
}
