//! Metrics aggregation ≡ serial aggregation, at every thread count.
//!
//! `build_determinism.rs` pins that the *structures* built on 1, 2 and 8
//! threads are byte-identical; this suite pins the same contract for the
//! *metrics* the instrumented pipeline emits. Every value metric — counters
//! (queries), value histograms
//! (rejection rounds per draw, bucket sizes at build) and end-of-batch
//! gauges — is a commutative sum of per-item contributions, so its total
//! must be a pure function of the work done, not of how the work was split
//! across threads or the order per-thread shards merged back.
//!
//! Timing histograms (`*_ns`) are excluded: wall time is genuinely
//! nondeterministic. The split is exactly the one the exporters document — values are
//! comparable across runs, timings are not.
//!
//! Kept as its own integration-test binary: the enable switch and the
//! registry are process-global.

use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{QueryRequest, ShardedIndex, ShardedIndexConfig};
use fairnn_integration_tests::{golden_dataset, golden_params as params};
use fairnn_lsh::{LshIndex, MinHash};
use fairnn_space::Jaccard;
use fairnn_space::{PointId, SparseSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Mutex;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The registry and thread knob are process-global; serialize the sweeps.
static KNOB: Mutex<()> = Mutex::new(());

/// One comparable row per value metric (timing rows dropped).
type ValueMetrics = BTreeMap<String, (i64, u64, Vec<(u64, u64)>)>;

fn value_metrics() -> ValueMetrics {
    fairnn_obs::global()
        .snapshot()
        .into_iter()
        .filter(|m| !m.name.ends_with("_ns"))
        .map(|m| (m.name.to_string(), (m.value, m.sum, m.buckets)))
        .collect()
}

/// A lazy handle only registers its metric on first touch, so a code path
/// taken at one thread count but not another leaves the metric absent rather
/// than zero. Absent ≡ all-zero for comparison purposes: pad every sweep
/// with zero rows for the union of registered names, so a metric that is
/// *non-zero* on one sweep and missing on another still fails loudly.
fn aligned(sweeps: &mut [ValueMetrics]) {
    let names: Vec<String> = sweeps.iter().flat_map(|s| s.keys().cloned()).collect();
    for sweep in sweeps {
        for name in &names {
            sweep
                .entry(name.clone())
                .or_insert_with(|| (0, 0, Vec::new()));
        }
    }
}

#[test]
fn engine_pipeline_metrics_are_identical_at_1_2_8_threads() {
    let _guard = KNOB.lock().unwrap();
    fairnn_obs::set_enabled(true);
    let data = golden_dataset();
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let batch: Vec<SparseSet> = (0..10u32).map(|i| data.point(PointId(i)).clone()).collect();

    let mut sweeps: Vec<ValueMetrics> = Vec::new();
    for &threads in &THREAD_COUNTS {
        fairnn_parallel::set_build_threads(threads);
        fairnn_obs::global().reset();
        let index = ShardedIndex::build(
            &MinHash,
            params(data.len()),
            &data,
            near,
            ShardedIndexConfig::default().seeded(23),
        );
        // Two batches through the one executor: the build ran on
        // `threads` workers, the answers and their counters must not care.
        for b in 0..2u64 {
            let _ = index.run_batch(&QueryRequest::new(batch.clone()).with_batch(b));
        }
        sweeps.push(value_metrics());
    }
    fairnn_parallel::set_build_threads(0);
    aligned(&mut sweeps);

    assert!(
        !sweeps[0].is_empty(),
        "instrumented run must register value metrics"
    );
    assert!(
        sweeps[0].contains_key("engine_queries_total"),
        "engine counters missing from {:?}",
        sweeps[0]
    );
    assert_eq!(
        sweeps[0], sweeps[1],
        "value metrics diverged between 1 and 2 threads"
    );
    assert_eq!(
        sweeps[0], sweeps[2],
        "value metrics diverged between 1 and 8 threads"
    );
}

#[test]
fn freeze_metrics_are_identical_at_1_2_8_threads() {
    // The bucket-size histogram is recorded once the tables are built on
    // the build workers; the aggregate must not depend on the worker
    // count.
    let _guard = KNOB.lock().unwrap();
    fairnn_obs::set_enabled(true);
    let data = golden_dataset();

    let mut sweeps: Vec<ValueMetrics> = Vec::new();
    for &threads in &THREAD_COUNTS {
        fairnn_parallel::set_build_threads(threads);
        fairnn_obs::global().reset();
        let mut rng = StdRng::seed_from_u64(41);
        let _index = LshIndex::build(&MinHash, params(data.len()), data.points(), &mut rng);
        sweeps.push(value_metrics());
    }
    fairnn_parallel::set_build_threads(0);
    aligned(&mut sweeps);

    assert!(
        sweeps[0].contains_key("lsh_bucket_size"),
        "bucket-size histogram missing from {:?}",
        sweeps[0]
    );
    assert_eq!(sweeps[0], sweeps[1]);
    assert_eq!(sweeps[0], sweeps[2]);
}
