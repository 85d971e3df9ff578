//! Micro-benchmarks of the sharded serving engine: the two-level pipeline
//! across shard counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairnn_bench::figures::paper_lsh_params;
use fairnn_bench::{SetWorkload, WorkloadKind};
use fairnn_core::SimilarityAtLeast;
use fairnn_engine::{ShardedIndex, ShardedIndexConfig};
use fairnn_lsh::OneBitMinHash;
use fairnn_space::Jaccard;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const R: f64 = 0.2;

fn workload() -> SetWorkload {
    SetWorkload::generate(WorkloadKind::LastFm, 0.15, 5, 9)
}

fn bench_two_level_pipeline(c: &mut Criterion) {
    let w = workload();
    let params = paper_lsh_params(w.dataset.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let queries = w.query_points();
    let mut group = c.benchmark_group("engine_two_level_sample");
    for shards in [1usize, 4, 8] {
        let index = ShardedIndex::build(
            &OneBitMinHash,
            params,
            &w.dataset,
            near,
            ShardedIndexConfig::with_shards(shards).seeded(5),
        );
        group.bench_with_input(BenchmarkId::from_parameter(shards), &index, |b, index| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(index.sample(black_box(q), &mut rng))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_two_level_pipeline);
criterion_main!(benches);
