//! Recall of the engine's sketched hasher bank against per-row MinHash.
//!
//! The engine draws uniformly from the colliding near set `A` of its `L`
//! tables, so what its hash family owes the paper's guarantee is recall:
//! `|A| / |B(q, r)|` close to 1. The engine's bank is one sketch of
//! `K × L` bins, whose bins are not independent, so its recall is measured
//! here, not assumed: on small MovieLens-like (full MinHash, the
//! `read-large` parameters) and Last.FM-like (1-bit MinHash, the paper's
//! parameter recipe) fixtures, against [`ExactSampler`], next to `K × L`
//! independent MinHash rows at the same `K` and `L` drawn from the same
//! seeds. The sketch's mean recall over the seeds may not fall below the
//! rows' by more than the rows' own seed-to-seed spread (the largest minus
//! the smallest per-seed mean).

use fairnn_core::{ExactSampler, Nearness, SimilarityAtLeast};
use fairnn_data::{lastfm_like, movielens_like, SetDataConfig};
use fairnn_engine::{ShardedIndex, ShardedIndexConfig};
use fairnn_lsh::sketch::SketchToken;
use fairnn_lsh::{
    ConcatenatedHasher, LshFamily, LshHasher, LshIndex, LshParams, MinHash, OneBitMinHash,
    ParamsBuilder,
};
use fairnn_space::{Dataset, Jaccard, PointId, SparseSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The served workloads' similarity threshold.
const R: f64 = 0.2;
const SEEDS: std::ops::Range<u64> = 0..6;

type Near = SimilarityAtLeast<Jaccard>;

/// `n` users of `cfg`, and as queries the first 120 of them with a
/// neighbour besides themselves, as `read-large` queries its clustered
/// users.
fn fixture(mut cfg: SetDataConfig, n: usize, seed: u64) -> (Dataset<SparseSet>, Vec<SparseSet>) {
    cfg.num_users = n;
    let dataset = cfg.generate(seed);
    let queries = dataset
        .points()
        .iter()
        .filter(|&q| dataset.similar_count(&Jaccard, q, R) >= 2)
        .take(120)
        .cloned()
        .collect();
    (dataset, queries)
}

/// Mean of `|A| / |B(q, r)|` over the queries with a non-empty
/// neighbourhood, where `colliding` lists a query's colliding ids.
fn mean_recall(
    dataset: &Dataset<SparseSet>,
    queries: &[SparseSet],
    near: &Near,
    colliding: impl Fn(&SparseSet) -> Vec<PointId>,
) -> f64 {
    let exact = ExactSampler::new(dataset, *near);
    let mut recalls = Vec::new();
    for q in queries {
        let truth = exact.neighborhood(q);
        if truth.is_empty() {
            continue;
        }
        let found = colliding(q)
            .into_iter()
            .filter(|&id| near.is_near(q, dataset.point(id)))
            .count();
        assert!(
            found <= truth.len(),
            "more near collisions than near points"
        );
        recalls.push(found as f64 / truth.len() as f64);
    }
    assert!(
        recalls.len() >= 60,
        "only {} queries have neighbours",
        recalls.len()
    );
    recalls.iter().sum::<f64>() / recalls.len() as f64
}

/// Per-seed mean recalls of `L`-table indexes over `hashers(seed)`.
fn recall_per_seed<H: LshHasher<SparseSet> + Clone + Send + Sync>(
    dataset: &Dataset<SparseSet>,
    queries: &[SparseSet],
    params: LshParams,
    hashers: impl Fn(u64) -> Vec<ConcatenatedHasher<H>>,
) -> Vec<f64> {
    let near = SimilarityAtLeast::new(Jaccard, R);
    SEEDS
        .map(|seed| {
            let index = LshIndex::from_hashers(hashers(seed), dataset.points(), params);
            mean_recall(dataset, queries, &near, |q| index.colliding_ids(q))
        })
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per-row MinHash, the sketch and the engine's own bank, at the same `K`
/// and `L`; the sketch and the engine must hold the rows' recall within
/// its seed-to-seed spread.
fn assert_sketch_keeps_recall<F>(
    label: &str,
    family: &F,
    token: SketchToken,
    dataset: &Dataset<SparseSet>,
    queries: &[SparseSet],
    params: LshParams,
) where
    F: LshFamily<SparseSet> + Sync,
    F::Hasher: Clone + Send + Sync,
{
    let (k, l) = (params.k, params.l);
    let rows = recall_per_seed(dataset, queries, params, |seed| {
        ConcatenatedHasher::bank(
            family.sample_many(&mut StdRng::seed_from_u64(seed), k * l),
            k,
        )
    });
    let sketch = recall_per_seed(dataset, queries, params, |seed| {
        ConcatenatedHasher::<F::Hasher>::sketched_bank(seed, l, k, token)
    });
    let near = SimilarityAtLeast::new(Jaccard, R);
    let engine: Vec<f64> = SEEDS
        .map(|seed| {
            let config = ShardedIndexConfig::default().seeded(seed);
            let index = ShardedIndex::build(family, params, dataset, near, config);
            mean_recall(dataset, queries, &near, |q| index.neighborhood(q))
        })
        .collect();
    let spread = rows.iter().copied().fold(f64::MIN, f64::max)
        - rows.iter().copied().fold(f64::MAX, f64::min);
    let floor = mean(&rows) - spread;
    println!(
        "{label}: K = {k}, L = {l}; mean recall per-row {:.4} (spread {spread:.4}), sketch {:.4}, \
         engine {:.4}; per seed rows {rows:.3?}, sketch {sketch:.3?}",
        mean(&rows),
        mean(&sketch),
        mean(&engine)
    );
    assert!(
        mean(&sketch) >= floor,
        "{label}: sketch recall {:.4} below per-row {:.4} − spread {spread:.4}",
        mean(&sketch),
        mean(&rows)
    );
    assert!(
        mean(&engine) >= floor,
        "{label}: engine recall {:.4} below per-row {:.4} − spread {spread:.4}",
        mean(&engine),
        mean(&rows)
    );
}

#[test]
fn sketch_keeps_recall_on_movielens_like_sets_under_full_minhash() {
    // `read-large`'s family and (K, L), at about 130 users per cluster.
    let mut cfg = movielens_like();
    cfg.num_clusters = 5;
    let (dataset, queries) = fixture(cfg, 660, 11);
    let params = LshParams::explicit(4, 100, R, 0.1);
    assert_sketch_keeps_recall(
        "movielens-like",
        &MinHash,
        SketchToken::Full,
        &dataset,
        &queries,
        params,
    );
}

#[test]
fn sketch_keeps_recall_on_lastfm_like_sets_under_one_bit_minhash() {
    // `churn-paper`'s family and parameter recipe.
    let mut cfg = lastfm_like();
    cfg.num_clusters = 8;
    let (dataset, queries) = fixture(cfg, 760, 12);
    let params = ParamsBuilder::new(dataset.len(), R, 0.1).empirical(&OneBitMinHash);
    assert_sketch_keeps_recall(
        "lastfm-like",
        &OneBitMinHash,
        SketchToken::OneBit,
        &dataset,
        &queries,
        params,
    );
}
