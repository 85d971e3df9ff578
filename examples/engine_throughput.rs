//! Serving demo: the generational query engine end to end —
//! bootstrap, batch queries on a pinned generation, incremental updates,
//! deterministic replay, and a small timed batch.
//!
//! Run with: `cargo run --release --example engine_throughput`

use fairnn_core::SimilarityAtLeast;
use fairnn_data::setdata::small_test_config;
use fairnn_engine::{EngineWriter, QueryRequest, ShardedIndexConfig, WriteBatch};
use fairnn_lsh::{OneBitMinHash, ParamsBuilder};
use fairnn_space::{Jaccard, PointId, Similarity};

fn main() {
    // 1. A small synthetic user/item dataset with planted interest clusters.
    let dataset = small_test_config().generate(42);
    let r = 0.3;
    let near = SimilarityAtLeast::new(Jaccard, r);
    let params = ParamsBuilder::new(dataset.len(), r, 0.1).empirical(&OneBitMinHash);
    println!(
        "dataset: {} users; LSH parameters: K = {}, L = {}",
        dataset.len(),
        params.k,
        params.l
    );

    // 2. Bootstrap the engine: a base over every point, an empty delta, a
    //    checkpoint and a write-ahead log in a fresh directory. Readers pin the published generation.
    let dir = std::env::temp_dir().join(format!("fairnn-example-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = EngineWriter::bootstrap(
        &OneBitMinHash,
        params,
        &dataset,
        near,
        ShardedIndexConfig::default().seeded(7),
        &dir,
    )
    .expect("bootstrap engine directory");
    let reader = writer.reader();
    let pin = reader.pin();
    println!(
        "engine: {} live points ({} in the base), generation {}",
        pin.index().len(),
        pin.index().base().live_points(),
        pin.generation()
    );

    // 3. A batch of queries, including deliberate repeats: every position
    //    runs the two-level pipeline on its own RNG stream, so repeats are
    //    independent draws.
    let query = dataset.point(PointId(0)).clone();
    let mut batch: Vec<_> = (0..6u32)
        .map(|i| dataset.point(PointId(i)).clone())
        .collect();
    batch.push(query.clone());
    batch.push(query.clone());
    let request = QueryRequest::new(batch);
    let response = pin.run_batch(&request);
    println!("\nbatch of {} queries:", request.queries.len());
    for (i, answer) in response.answers.iter().enumerate() {
        match answer.id {
            Some(id) => {
                let sim = Jaccard.similarity(&request.queries[i], dataset.point(id));
                println!("  query {i}: user {id} (similarity {sim:.3})");
            }
            None => println!("  query {i}: ⊥"),
        }
    }

    // 4. Incremental updates go through the writer: commits are
    //    write-ahead-logged, then published as a new immutable generation;
    //    readers pin an epoch, which no later commit modifies.
    let receipt = writer
        .commit(WriteBatch::new().insert(query.clone()))
        .expect("insert commit");
    let id = receipt.assigned[0];
    let fresh = reader.pin();
    println!(
        "\ninserted twin as {id} (generation {}, WAL seq {}); pinned index has {} points",
        receipt.generation,
        receipt.seq,
        fresh.index().len()
    );
    writer
        .commit(WriteBatch::new().delete(id))
        .expect("delete commit");
    println!(
        "deleted {id} again; fresh pin back to {} points (old pin still serves {})",
        reader.pin().index().len(),
        fresh.index().len()
    );

    // 5. Deterministic replay: the old pin still answers generation 0, and
    //    the same request on it returns the same answers bit for bit.
    assert_eq!(pin.run_batch(&request), response);
    println!(
        "replayed batch {} on generation {}: identical answers",
        request.batch,
        pin.generation()
    );

    // 6. Throughput of the batch executor on a hot-query batch.
    let hot = QueryRequest::new(vec![query; 2_000]).with_batch(1);
    let start = fairnn_obs::monotonic_ns();
    let answers = reader.pin().run_batch(&hot).answers;
    let secs = (fairnn_obs::monotonic_ns() - start) as f64 * 1e-9;
    let qps = answers.len() as f64 / secs;
    assert!(answers.iter().all(|a| a.id.is_some()));
    println!("\nhot-query batch throughput: {qps:.0} q/s");
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}
