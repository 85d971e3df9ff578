//! Instrumentation must be bit-for-bit invisible: with `fairnn-obs`
//! metrics *and* span tracing fully enabled, the seed-pinned golden
//! sequences of `golden_samples.rs` must reproduce exactly.
//!
//! The observability hooks sit on the sampling hot paths (rejection
//! rounds, batch timers, shard spans, hash-bank timers); the one thing they
//! must never touch is the RNG streams or the commit order of answers.
//! This binary runs the same builds and RNG streams as the golden suite
//! with every switch on — any perturbation shows up as a golden mismatch.
//!
//! Kept as its own integration-test binary: the enable switches are
//! process-global, so this test owns its process and cannot race other
//! suites toggling them.

use fairnn_core::{FairNnis, FairNns, NeighborSampler, SimilarityAtLeast};
use fairnn_engine::{QueryRequest, ShardedIndex, ShardedIndexConfig};
use fairnn_integration_tests::{
    golden_dataset, golden_ids as ids, golden_params as params, GOLDEN_ENGINE_FIRST,
    GOLDEN_FAIR_NNIS, GOLDEN_FAIR_NNS, GOLDEN_SHARDED,
};
use fairnn_lsh::MinHash;
use fairnn_space::{Jaccard, PointId, SparseSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Turns every observability switch on for the duration of the test.
fn fully_instrumented() {
    fairnn_obs::set_enabled(true);
    fairnn_obs::set_tracing_enabled(true);
}

#[test]
fn fair_nns_golden_reproduces_under_instrumentation() {
    fully_instrumented();
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(1);
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let mut sampler = FairNns::build(&MinHash, params(data.len()), &data, near, &mut rng);
    let mut qrng = StdRng::seed_from_u64(5);
    let got: Vec<Option<PointId>> = [0u32, 3, 7, 10, 13, 16, 19, 22, 25, 28]
        .iter()
        .map(|&qi| sampler.sample(&data.point(PointId(qi)).clone(), &mut qrng))
        .collect();
    assert_eq!(ids(&got), GOLDEN_FAIR_NNS);
}

#[test]
fn fair_nnis_golden_reproduces_under_instrumentation() {
    fully_instrumented();
    let data = golden_dataset();
    let mut rng = StdRng::seed_from_u64(2);
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let mut sampler = FairNnis::build(&MinHash, params(data.len()), &data, near, &mut rng);
    let query = data.point(PointId(0)).clone();
    let mut qrng = StdRng::seed_from_u64(99);
    let got: Vec<Option<PointId>> = (0..20).map(|_| sampler.sample(&query, &mut qrng)).collect();
    assert_eq!(ids(&got), GOLDEN_FAIR_NNIS);
}

#[test]
fn sharded_index_golden_reproduces_under_instrumentation() {
    fully_instrumented();
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
    let got: Vec<Option<PointId>> = (0..20).map(|_| index.sample(&query, &mut qrng).0).collect();
    assert_eq!(ids(&got), GOLDEN_SHARDED);
}

#[test]
fn engine_batch_golden_reproduces_under_instrumentation() {
    fully_instrumented();
    let data = golden_dataset();
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let index = ShardedIndex::build(
        &MinHash,
        params(data.len()),
        &data,
        near,
        ShardedIndexConfig::default().seeded(23),
    );
    // The one batch executor every route serves through, with every hook
    // live.
    let batch: Vec<SparseSet> = (0..10u32).map(|i| data.point(PointId(i)).clone()).collect();
    let answers = index.run_batch(&QueryRequest::new(batch));
    let first: Vec<Option<PointId>> = answers.iter().map(|a| a.id).collect();
    assert_eq!(ids(&first), GOLDEN_ENGINE_FIRST);
    // The hooks actually fired: the executor recorded its batch metrics
    // while reproducing the golden.
    let snapshot = fairnn_obs::global().snapshot();
    let metric = |name: &str| {
        snapshot
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} registered"))
    };
    assert!(metric("engine_queries_total").value >= 10);
    assert!(metric("engine_batch_ns").value >= 1);
}
