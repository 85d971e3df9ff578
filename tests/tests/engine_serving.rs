//! Integration tests of the `fairnn-engine` serving subsystem: the
//! two-level sampler over the base and the delta against the same
//! uniformity battery the single-structure samplers face (statically,
//! through the batch executor, through `POST /v1/query` before and after
//! churn and WAL recovery, and on a far-heavy neighbourhood where most
//! colliding points are decoys), the work bounds of lazy evaluation (each
//! part walked and each candidate evaluated at most once, at most `f + 3`
//! rounds for `f` far candidates removed), the paper's mean cost of a
//! fresh draw (`f/(m + 1) + 1` evaluations over `f` far and `m` near
//! candidates), the bucket-length bound it proposes by, the thread-count determinism contract, and the serving
//! lifecycle (batching, incremental updates) on the shared workload
//! fixtures.

use fairnn_core::predicate::Nearness;
use fairnn_core::{ExactSampler, NeighborSampler, QueryStats, SimilarityAtLeast};
use fairnn_engine::{
    BatchResponse, EngineWriter, QueryRequest, ShardedIndex, ShardedIndexConfig, ShardedSampler,
    WriteBatch,
};
use fairnn_integration_tests::{golden_dataset, golden_params, test_dataset, test_params};
use fairnn_lsh::{
    ConcatenatedHasher, HasherBankCodec, LshFamily, LshHasher, LshIndex, LshParams, MinHash,
    OneBitMinHash, OneBitMinHasher,
};
use fairnn_server::{read_response, serve, ClientResponse, ServerConfig, ServerHandle};
use fairnn_snapshot::{Codec, Decoder, Encoder};
use fairnn_space::{Dataset, Jaccard, PointId, SparseSet};
use fairnn_stats::{FrequencyHistogram, UniformityReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
#[expect(
    clippy::disallowed_types,
    reason = "a wire client drives the server over loopback"
)]
use std::net::TcpStream;
use std::time::Duration;

type Hasher = ConcatenatedHasher<OneBitMinHasher>;
type Near = SimilarityAtLeast<Jaccard>;

const R: f64 = 0.3;

fn build_index(
    seed: u64,
) -> (
    fairnn_space::Dataset<SparseSet>,
    ShardedIndex<SparseSet, Hasher, Near>,
) {
    let dataset = test_dataset(1);
    let params = test_params(dataset.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let index = ShardedIndex::build(
        &OneBitMinHash,
        params,
        &dataset,
        near,
        ShardedIndexConfig::default().seeded(seed),
    );
    (dataset, index)
}

/// An index whose base is bootstrapped over `base` and whose delta holds
/// `delta`, committed as inserts through an engine writer (so global ids
/// run over `base`, then `delta`). `delta` must stay under an eighth of
/// `base`, or the commit folds it into the base.
fn index_with_delta<F, BH>(
    label: &str,
    family: &F,
    params: LshParams,
    base: &Dataset<SparseSet>,
    delta: &[SparseSet],
    r: f64,
    seed: u64,
) -> ShardedIndex<SparseSet, ConcatenatedHasher<BH>, Near>
where
    F: LshFamily<SparseSet, Hasher = BH> + Sync,
    BH: LshHasher<SparseSet> + Send + Sync,
    ConcatenatedHasher<BH>: HasherBankCodec + LshHasher<SparseSet> + Clone + Send + Sync,
{
    let dir = std::env::temp_dir().join(format!("fairnn-delta-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let near = SimilarityAtLeast::new(Jaccard, r);
    let config = ShardedIndexConfig::default().seeded(seed);
    let mut writer =
        EngineWriter::bootstrap(family, params, base, near, config, &dir).expect("bootstrap");
    let batch = delta.iter().fold(WriteBatch::new(), |batch, point| {
        batch.insert(point.clone())
    });
    writer.commit(batch).expect("insert commit");
    let index = writer.staging().clone();
    drop(writer);
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(index.delta().live_points(), delta.len(), "{label}: folded");
    index
}

/// The fixture index with its last 24 points in the delta (ids line up
/// with `build_index`'s).
fn split_fixture_index(label: &str, seed: u64) -> ShardedIndex<SparseSet, Hasher, Near> {
    let dataset = test_dataset(1);
    let (base, delta) = dataset.points().split_at(dataset.len() - 24);
    index_with_delta(
        label,
        &OneBitMinHash,
        test_params(dataset.len(), R),
        &Dataset::new(base.to_vec()),
        delta,
        R,
        seed,
    )
}

/// Queries with a non-trivial neighbourhood on the fixture dataset.
fn interesting_queries(dataset: &fairnn_space::Dataset<SparseSet>) -> Vec<PointId> {
    dataset
        .ids()
        .filter(|id| dataset.similar_count(&Jaccard, dataset.point(*id), R) >= 6)
        .take(4)
        .collect()
}

#[test]
fn sharded_sampler_passes_the_uniformity_battery() {
    // The acceptance bar of the engine: with the points split over the
    // base and the delta, the output distribution over B_S(q, r) must be
    // statistically indistinguishable from uniform — the same battery
    // (chi-square consistency + total variation) the single-structure fair
    // samplers pass, on the same workload.
    let dataset = test_dataset(1);
    let index = split_fixture_index("battery", 21);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let exact = ExactSampler::new(&dataset, near);
    let queries = interesting_queries(&dataset);
    assert!(!queries.is_empty(), "fixture has no interesting queries");

    let mut rng = StdRng::seed_from_u64(99);
    for &qid in &queries {
        let query = dataset.point(qid).clone();
        let support = exact.neighborhood(&query);
        let trials = 1500 * support.len();
        let mut prepared = index.prepare(&query);
        let mut hist = FrequencyHistogram::new();
        for _ in 0..trials {
            hist.record(prepared.sample(&mut rng));
        }
        let report = UniformityReport::from_histogram(&hist, &support);
        assert_eq!(
            report.out_of_support, 0.0,
            "query {qid}: sampler left the neighbourhood"
        );
        assert!(
            report.is_consistent_with_uniform(0.001),
            "query {qid}: chi2 = {}, p = {}, TV = {}",
            report.chi_square,
            report.chi_square_p_value(),
            report.total_variation
        );
    }
}

#[test]
fn sharded_tv_matches_the_unsharded_fair_sampler() {
    // Head-to-head on the same queries and sample counts: the two-level
    // sampler must be as close to uniform as a single-structure fair
    // sampler drawing the same number of samples (both TVs are sampling
    // noise; allow a small gap).
    let (dataset, index) = build_index(22);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let exact = ExactSampler::new(&dataset, near);
    let params = test_params(dataset.len(), R);
    let mut build_rng = StdRng::seed_from_u64(7);
    let mut fair =
        fairnn_core::NaiveFairLsh::build(&OneBitMinHash, params, &dataset, near, &mut build_rng);

    let mut rng = StdRng::seed_from_u64(123);
    for qid in interesting_queries(&dataset).into_iter().take(2) {
        let query = dataset.point(qid).clone();
        let support = exact.neighborhood(&query);
        let trials = 300 * support.len();
        let mut prepared = index.prepare(&query);
        let (mut sharded_hist, mut fair_hist) =
            (FrequencyHistogram::new(), FrequencyHistogram::new());
        for _ in 0..trials {
            sharded_hist.record(prepared.sample(&mut rng));
            fair_hist.record(fair.sample(&query, &mut rng));
        }
        let sharded_tv = UniformityReport::from_histogram(&sharded_hist, &support).total_variation;
        let fair_tv = UniformityReport::from_histogram(&fair_hist, &support).total_variation;
        assert!(
            (sharded_tv - fair_tv).abs() < 0.05,
            "query {qid}: sharded TV {sharded_tv} vs fair TV {fair_tv}"
        );
    }
}

#[test]
fn sharded_neighborhood_preserves_recall() {
    // Splitting the points over the base and the delta must not lose
    // recall: the union of the parts' colliding near points is a subset of
    // the exact neighbourhood (no false positives by construction) and
    // misses at most the 1% the 99%-recall parameters allow, for several
    // seeds, with an empty delta and with the last 24 points in the delta.
    let dataset = test_dataset(1);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let exact = ExactSampler::new(&dataset, near);
    for seed in [31, 32, 34, 37] {
        let built = build_index(seed).1;
        let split = split_fixture_index(&format!("recall-{seed}"), seed);
        for (layout, index) in [("base only", &built), ("base + delta", &split)] {
            for &qid in &interesting_queries(&dataset) {
                let query = dataset.point(qid).clone();
                let truth = exact.neighborhood(&query);
                let got = index.neighborhood(&query);
                assert!(
                    got.iter().all(|id| truth.contains(id)),
                    "seed {seed}, {layout}, query {qid}: non-neighbour reported"
                );
                assert!(
                    got.len() as f64 >= 0.9 * truth.len() as f64,
                    "seed {seed}, {layout}, query {qid}: recall {}/{}",
                    got.len(),
                    truth.len()
                );
            }
        }
    }
}

/// The paper-fidelity contract of the shared hasher bank: for every
/// query, the two-part neighbourhood `A_base ∪ A_delta` equals the near
/// points colliding with it in *one* `L`-table index keyed by the same
/// bank over all live points (`live[i]` is a global id and its point).
fn assert_matches_one_unsharded_structure<H>(
    label: &str,
    index: &ShardedIndex<SparseSet, H, Near>,
    live: &[(PointId, SparseSet)],
    near: &Near,
    queries: &[SparseSet],
) where
    H: LshHasher<SparseSet> + Clone + Sync,
{
    let points: Vec<SparseSet> = live.iter().map(|(_, p)| p.clone()).collect();
    let unsharded =
        LshIndex::from_hashers(index.bank().hashers().to_vec(), &points, index.params());
    for (qi, query) in queries.iter().enumerate() {
        let mut expected: Vec<PointId> = unsharded
            .colliding_ids(query)
            .into_iter()
            .filter(|id| near.is_near(query, &points[id.index()]))
            .map(|id| live[id.index()].0)
            .collect();
        expected.sort_unstable();
        assert_eq!(index.neighborhood(query), expected, "{label}: query {qi}");
    }
}

/// Runs `check` on an engine bootstrapped over `dataset`, again after one
/// commit that inserts near twins of the first points, deletes and
/// compacts (folding the twins into the base) and a second that inserts
/// two more twins into the delta and deletes a base point, and again
/// after the engine directory is reopened (WAL replay). `check` gets the
/// stage label, the index, the live `(global id, point)` pairs and every
/// dataset point as a query.
fn check_through_churn_and_reopen<F, BH>(
    label: &str,
    family: &F,
    params: LshParams,
    dataset: &Dataset<SparseSet>,
    r: f64,
    check: impl Fn(
        &str,
        &ShardedIndex<SparseSet, ConcatenatedHasher<BH>, Near>,
        &[(PointId, SparseSet)],
        &[SparseSet],
    ),
) where
    F: LshFamily<SparseSet, Hasher = BH> + Sync,
    BH: LshHasher<SparseSet> + Send + Sync,
    ConcatenatedHasher<BH>: HasherBankCodec + LshHasher<SparseSet> + Clone + Send + Sync,
{
    let near = SimilarityAtLeast::new(Jaccard, r);
    let queries = dataset.points().to_vec();
    let dir = std::env::temp_dir().join(format!("fairnn-churn-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = EngineWriter::bootstrap(
        family,
        params,
        dataset,
        near,
        ShardedIndexConfig::default().seeded(41),
        &dir,
    )
    .expect("bootstrap");
    let reader = writer.reader();
    let mut live: Vec<(PointId, SparseSet)> = dataset
        .ids()
        .map(|id| (id, dataset.point(id).clone()))
        .collect();
    check(label, reader.pin().index(), &live, &queries);

    let twin = |i: u32| {
        let mut items = dataset.point(PointId(i)).items().to_vec();
        items.push(1_000_000 + i);
        SparseSet::from_items(items)
    };
    let twins: Vec<SparseSet> = (0..3u32).map(twin).collect();
    let deleted = [PointId(1), PointId(4), PointId(5), PointId(9)];
    let mut batch = WriteBatch::new();
    for twin in &twins {
        batch = batch.insert(twin.clone());
    }
    for &id in &deleted {
        batch = batch.delete(id);
    }
    let receipt = writer.commit(batch.compact()).expect("churn commit");
    live.retain(|(id, _)| !deleted.contains(id));
    live.extend(receipt.assigned.iter().copied().zip(twins));
    let pin = reader.pin();
    assert!(pin.index().shards().iter().all(|s| s.tombstones() == 0));
    assert_eq!(pin.index().delta().live_points(), 0, "Compact folds");
    let twins: Vec<SparseSet> = (3..5u32).map(twin).collect();
    let receipt = writer
        .commit(
            WriteBatch::new()
                .insert(twins[0].clone())
                .insert(twins[1].clone())
                .delete(PointId(7)),
        )
        .expect("delta commit");
    live.retain(|(id, _)| *id != PointId(7));
    live.extend(receipt.assigned.iter().copied().zip(twins));
    let pin = reader.pin();
    assert_eq!(pin.index().delta().live_points(), 2);
    check(
        &format!("{label} after churn"),
        pin.index(),
        &live,
        &queries,
    );
    drop(writer);

    let reopened =
        EngineWriter::<SparseSet, ConcatenatedHasher<BH>, Near>::open(&dir).expect("reopen");
    check(
        &format!("{label} after reopen"),
        reopened.reader().pin().index(),
        &live,
        &queries,
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sharded_neighborhood_is_the_colliding_near_set_of_one_unsharded_structure() {
    let golden = golden_dataset();
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    check_through_churn_and_reopen(
        "golden",
        &MinHash,
        golden_params(golden.len()),
        &golden,
        0.5,
        |label, index, live, queries| {
            assert_matches_one_unsharded_structure(label, index, live, &near, queries)
        },
    );
    let fixture = test_dataset(1);
    let near = SimilarityAtLeast::new(Jaccard, R);
    check_through_churn_and_reopen(
        "fixture",
        &OneBitMinHash,
        test_params(fixture.len(), R),
        &fixture,
        R,
        |label, index, live, queries| {
            assert_matches_one_unsharded_structure(label, index, live, &near, queries)
        },
    );
}

/// `b_i ≥ |D_i| ≥ |A_i|`: each part's bucket-length bound covers its
/// colliding candidates, and so its colliding near set, for every query —
/// the one fact exact uniformity rests on.
fn assert_bucket_bound_covers_every_part<H: LshHasher<SparseSet>>(
    label: &str,
    index: &ShardedIndex<SparseSet, H, Near>,
    queries: &[SparseSet],
) {
    for (qi, query) in queries.iter().enumerate() {
        for (s, (bound, candidates, near)) in shard_counts(index, query).into_iter().enumerate() {
            assert!(
                bound >= candidates && candidates >= near,
                "{label}: query {qi}, part {s}: b = {bound}, |D| = {candidates}, |A| = {near}"
            );
        }
    }
}

#[test]
fn bucket_bound_covers_the_colliding_near_set_through_churn_and_reopen() {
    let golden = golden_dataset();
    check_through_churn_and_reopen(
        "bound-golden",
        &MinHash,
        golden_params(golden.len()),
        &golden,
        0.5,
        |label, index, _, queries| assert_bucket_bound_covers_every_part(label, index, queries),
    );
    let fixture = test_dataset(1);
    check_through_churn_and_reopen(
        "bound-fixture",
        &OneBitMinHash,
        test_params(fixture.len(), R),
        &fixture,
        R,
        |label, index, _, queries| assert_bucket_bound_covers_every_part(label, index, queries),
    );
}

/// Per part, the bucket bound `b_i`, the exact candidate count `|D_i|`
/// (distinct live colliding points, counted by the walk) and the colliding
/// near count `|A_i|` of `query`.
fn shard_counts<H: LshHasher<SparseSet>>(
    index: &ShardedIndex<SparseSet, H, Near>,
    query: &SparseSet,
) -> Vec<(usize, usize, usize)> {
    let mut keys = Vec::new();
    index.bank().query_keys_into(query, &mut keys);
    let mut stats = QueryStats::default();
    index
        .shards()
        .iter()
        .map(|shard| {
            let mut ranges = vec![(0, 0); keys.len()];
            let bound = shard.locate_buckets_with_keys(&keys, &mut ranges);
            let mut candidates = Vec::new();
            shard.walk_buckets(&ranges, &mut candidates, &mut stats);
            let near = shard.colliding_near_points_with_keys(query, &keys, &mut stats);
            (bound, candidates.len(), near.len())
        })
        .collect()
}

/// Draws `draws` samples of `query` from one prepared cursor and checks the
/// work bounds of lazy evaluation: each of the two parts is walked at most
/// once (the cursor scans at most `Σ b_i` entries and inspects at most
/// `2·2·L` buckets), each candidate is evaluated at most once (at most
/// `Σ |D_i|` evaluations), and a draw that removes `f` far candidates takes
/// at most `f + 3` rounds (`f + 2` when it answers `None`, 0 when nothing
/// collides). A `None` draw has evaluated every candidate. Returns the
/// answers.
fn assert_work_bounds<H: LshHasher<SparseSet>>(
    label: &str,
    index: &ShardedIndex<SparseSet, H, Near>,
    query: &SparseSet,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<Option<PointId>> {
    let parts = index.shards().len();
    let counts = shard_counts(index, query);
    let bound: usize = counts.iter().map(|c| c.0).sum();
    let candidates: usize = counts.iter().map(|c| c.1).sum();
    let mut prepared = index.prepare(query);
    let mut answers: Vec<Option<PointId>> = Vec::with_capacity(draws);
    for d in 0..draws {
        let before = prepared.stats();
        let id = prepared.sample(rng);
        let after = prepared.stats();
        let rounds = after.rounds - before.rounds;
        let evals = after.distance_computations - before.distance_computations;
        // A draw's evaluations are its far removals, plus the returned
        // point when no earlier draw of this cursor returned (verified) it.
        let fresh = id.is_some() && !answers.contains(&id);
        let far = evals - usize::from(fresh);
        let limit = parts + far + usize::from(id.is_some());
        assert!(
            rounds <= limit,
            "{label}, draw {d}: {rounds} rounds > {limit} ({parts} parts, {far} far removed, answer {id:?})"
        );
        if id.is_none() {
            assert_eq!(
                after.distance_computations, candidates,
                "{label}, draw {d}: ⊥ before every candidate was evaluated"
            );
        }
        if bound == 0 {
            assert_eq!(rounds, 0, "{label}: nothing collides, yet {rounds} rounds");
        }
        answers.push(id);
    }
    let stats = prepared.stats();
    assert!(
        stats.entries_scanned <= bound,
        "{label}: scanned {} entries, more than Σ b_i = {bound}: a part was walked twice",
        stats.entries_scanned
    );
    assert!(
        stats.distance_computations <= candidates,
        "{label}: {} evaluations, more than Σ |D_i| = {candidates}: a candidate was evaluated twice",
        stats.distance_computations
    );
    let l = index.params().l;
    assert!(
        stats.buckets_inspected <= 2 * parts * l,
        "{label}: {} buckets inspected, over 2·L for the bounds plus 2·L for the walks",
        stats.buckets_inspected
    );
    answers
}

#[test]
fn each_shard_is_walked_and_each_candidate_evaluated_at_most_once() {
    let golden = golden_dataset();
    let fixture = test_dataset(1);
    let golden_params = golden_params(golden.len());
    // Each index twice: as built (empty delta), and with part of its points
    // in the delta — three cluster members of the golden set, the last 24
    // fixture points.
    let cluster_tail = [7u32, 8, 9].map(|i| golden.point(PointId(i)).clone());
    let golden_base: Vec<SparseSet> = golden
        .ids()
        .filter(|id| !(7..10).contains(&id.0))
        .map(|id| golden.point(id).clone())
        .collect();
    let layouts = [
        (
            "base only",
            ShardedIndex::build(
                &MinHash,
                golden_params,
                &golden,
                SimilarityAtLeast::new(Jaccard, 0.5),
                ShardedIndexConfig::default().seeded(43),
            ),
            build_index(43).1,
        ),
        (
            "base + delta",
            index_with_delta(
                "work-golden",
                &MinHash,
                golden_params,
                &Dataset::new(golden_base),
                &cluster_tail,
                0.5,
                43,
            ),
            split_fixture_index("work-fixture", 43),
        ),
    ];
    for (seed, (layout, golden_index, fixture_index)) in layouts.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for (qi, query) in golden.points().iter().enumerate() {
            let label = format!("golden, {layout}, query {qi}");
            let answers = assert_work_bounds(&label, golden_index, query, 20, &mut rng);
            let neighborhood = golden_index.neighborhood(query);
            for id in answers {
                assert_eq!(id.is_some(), !neighborhood.is_empty(), "{label}");
            }
        }
        for (qi, query) in fixture.points().iter().enumerate() {
            let label = format!("fixture, {layout}, query {qi}");
            assert_work_bounds(&label, fixture_index, query, 20, &mut rng);
        }

        // Collides with the golden cluster (Jaccard ≈ 0.46 with every
        // member) but is near none of it: ⊥ only after evaluating every
        // candidate exactly once, within 2 + Σ |D_i| rounds.
        let mut items: Vec<u32> = (0..18).collect();
        items.extend(5000..5012);
        let far = SparseSet::from_items(items);
        assert!(golden_index.neighborhood(&far).is_empty());
        let counts = shard_counts(golden_index, &far);
        let candidates: usize = counts.iter().map(|c| c.1).sum();
        assert!(candidates > 0, "{layout}: the far query collides");
        let (id, stats) = golden_index.sample(&far, &mut rng);
        assert_eq!(id, None);
        assert_eq!(
            stats.distance_computations, candidates,
            "{layout}: a colliding ⊥ draw evaluates every candidate once"
        );
        assert!(
            (1..=counts.len() + candidates).contains(&stats.rounds),
            "{layout}: colliding ⊥ draw took {} rounds",
            stats.rounds
        );
        assert_work_bounds("far", golden_index, &far, 20, &mut rng);

        // Collides with nothing: ⊥ in 0 rounds.
        let isolated = SparseSet::from_items(vec![88_000, 88_001]);
        let (id, stats) = golden_index.sample(&isolated, &mut rng);
        assert_eq!((id, stats.rounds), (None, 0), "{layout}");
        assert_work_bounds("isolated", golden_index, &isolated, 5, &mut rng);
    }
}

/// The uniformity battery across batch numbers. `draw(b)` answers the
/// query once with batch number `b`, one position per request; the batch
/// numbers run from `first_batch` over consecutive values, as many as
/// [`assert_uniform_pairs`] draws. Answers of consecutive batch numbers
/// must be independent: the disjoint pairs `(2k, 2k + 1)` are the pairs.
fn assert_uniform_across_batches(
    label: &str,
    support: &[PointId],
    first_batch: u64,
    mut draw: impl FnMut(u64) -> Option<PointId>,
) {
    assert_uniform_pairs(label, support, |k| {
        let b = first_batch + 2 * k;
        [draw(b), draw(b + 1)]
    });
}

/// The uniformity battery over pairs of answers. `pair(k)` draws the
/// `k`-th pair, for `k` from 0 until `1500 · |support|` answers (at least
/// 1 000) are drawn, enough for the pair test over support². The answers
/// must stay inside `support` and be uniform over it, and the two answers
/// of a pair must be independent: the pairs must be uniform over support².
fn assert_uniform_pairs(
    label: &str,
    support: &[PointId],
    pair: impl FnMut(u64) -> [Option<PointId>; 2],
) {
    let draws = (1500 * support.len()).max(1000) as u64;
    let draws: Vec<Option<PointId>> = (0..draws / 2).flat_map(pair).collect();
    let mut hist = FrequencyHistogram::new();
    for &id in &draws {
        hist.record(id);
    }
    let report = UniformityReport::from_histogram(&hist, support);
    assert_eq!(
        report.out_of_support, 0.0,
        "{label}: answers left the neighbourhood"
    );
    assert!(
        report.is_consistent_with_uniform(0.001),
        "{label} marginal: chi2 = {}, p = {}, TV = {}",
        report.chi_square,
        report.chi_square_p_value(),
        report.total_variation
    );

    // The pairs (answers 2k and 2k + 1), each encoded as one id over
    // support².
    let n = support
        .iter()
        .map(|id| id.0)
        .max()
        .expect("non-empty support")
        + 1;
    let pair_id = |a: PointId, b: PointId| PointId(a.0 * n + b.0);
    let mut pairs = FrequencyHistogram::new();
    for pair in draws.chunks_exact(2) {
        pairs.record_id(pair_id(pair[0].unwrap(), pair[1].unwrap()));
    }
    let pair_support: Vec<PointId> = support
        .iter()
        .flat_map(|&a| support.iter().map(move |&b| pair_id(a, b)))
        .collect();
    let report = UniformityReport::from_histogram(&pairs, &pair_support);
    assert!(
        report.is_consistent_with_uniform(0.001),
        "{label} pairs: chi2 = {}, p = {}, TV = {}",
        report.chi_square,
        report.chi_square_p_value(),
        report.total_variation
    );
}

#[test]
fn executor_answers_pass_the_uniformity_battery_across_batches() {
    // The battery above runs on a static sampler; this one runs it on the
    // batch executor every route serves through.
    let (dataset, index) = build_index(21);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let exact = ExactSampler::new(&dataset, near);
    let qid = interesting_queries(&dataset)[0];
    let query = dataset.point(qid).clone();
    let support = exact.neighborhood(&query);
    assert_uniform_across_batches("executor", &support, 0, |b| {
        let request = QueryRequest::new(vec![query.clone()]).with_batch(b);
        index.run_batch(&request)[0].id
    });
}

#[test]
fn positions_of_one_batch_pass_the_pair_test() {
    // One request asks the same query at positions 0 and 1, answered from
    // the streams of `(batch seed, 0)` and `(batch seed, 1)`: the two
    // answers must be independent, batch after batch.
    let (dataset, index) = build_index(21);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let exact = ExactSampler::new(&dataset, near);
    let qid = interesting_queries(&dataset)[0];
    let query = dataset.point(qid).clone();
    let support = exact.neighborhood(&query);
    assert_uniform_pairs("positions 0 and 1", &support, |b| {
        let request = QueryRequest::new(vec![query.clone(), query.clone()]).with_batch(b);
        let answers = index.run_batch(&request);
        [answers[0].id, answers[1].id]
    });
}

/// Isolated fillers of the far-heavy base.
const FILLERS: usize = 330;

/// A far-heavy neighbourhood split unevenly over the base and the delta.
/// The query is the set `0..30`. Near points share 27 of its items
/// (Jaccard 0.82); decoys share 19 (Jaccard ≈ 0.46, just under
/// `r = 0.5`), so they collide about as often as near points but are far.
/// Part `i` gets `plan[i]` = (near, decoys): the base is bootstrapped with
/// its share plus isolated fillers, which keep the delta under the eighth
/// of the base that would fold it, and the delta's share is inserted by a
/// commit. Returns the query, every point in global id order and the plan.
fn far_heavy_fixture() -> (SparseSet, Vec<SparseSet>, [(usize, usize); 2]) {
    let plan = [(5, 20), (3, 40)];
    let query = SparseSet::from_items((0..30).collect());
    let mut next_extra = 10_000u32;
    let mut variant = |shared: usize, extra: usize, rotation: usize| {
        let mut items: Vec<u32> = (0..30u32)
            .cycle()
            .skip(rotation % 30)
            .take(shared)
            .collect();
        items.extend(next_extra..next_extra + extra as u32);
        next_extra += extra as u32;
        SparseSet::from_items(items)
    };
    let mut points = Vec::new();
    for (i, &(near, decoys)) in plan.iter().enumerate() {
        points.extend((0..near).map(|j| variant(27, 3, 7 * i + j)));
        points.extend((0..decoys).map(|j| variant(19, 11, 3 * i + j)));
        if i == 0 {
            points.extend((0..FILLERS).map(|_| variant(0, 15, 0)));
        }
    }
    (query, points, plan)
}

/// The [`far_heavy_fixture`] points in an index: the base bootstrapped
/// over its share and the fillers, the delta's share committed as
/// inserts. `label` names the engine directory.
fn far_heavy_index(
    label: &str,
    points: &[SparseSet],
    plan: [(usize, usize); 2],
) -> ShardedIndex<SparseSet, ConcatenatedHasher<fairnn_lsh::MinHasher>, Near> {
    let in_base = plan[0].0 + plan[0].1 + FILLERS;
    index_with_delta(
        label,
        &MinHash,
        golden_params(points.len()),
        &Dataset::new(points[..in_base].to_vec()),
        &points[in_base..],
        0.5,
        61,
    )
}

#[test]
fn far_heavy_neighbourhoods_pass_the_uniformity_battery() {
    // Most colliding points are far, and near points and decoys are spread
    // unevenly over the base and the delta, so draws keep landing on decoys
    // and swap-removing them. Every near point must stay exactly uniform:
    // per batch through the executor, and over repeated draws from one
    // cursor.
    let (query, points, plan) = far_heavy_fixture();
    let dataset = Dataset::new(points.clone());
    let near = SimilarityAtLeast::new(Jaccard, 0.5);
    let index = far_heavy_index("far-heavy", &points, plan);
    let exact = ExactSampler::new(&dataset, near);
    let support = index.neighborhood(&query);
    assert_eq!(
        support,
        exact.neighborhood(&query),
        "a near point never collides"
    );
    let counts = shard_counts(&index, &query);
    for (i, (&(near_planned, _), &(_, candidates, near))) in plan.iter().zip(&counts).enumerate() {
        assert_eq!(near, near_planned, "part {i}");
        assert!(candidates > near, "part {i} holds no colliding decoy");
    }
    let candidates: usize = counts.iter().map(|c| c.1).sum();
    assert!(
        candidates >= 5 * support.len(),
        "not far-heavy: {candidates} candidates for {} near points",
        support.len()
    );

    assert_uniform_across_batches("far-heavy executor", &support, 0, |b| {
        let request = QueryRequest::new(vec![query.clone()]).with_batch(b);
        index.run_batch(&request)[0].id
    });
    let mut prepared = index.prepare(&query);
    let mut rng = StdRng::seed_from_u64(62);
    assert_uniform_across_batches("far-heavy cursor", &support, 0, |_| {
        prepared.sample(&mut rng)
    });
    assert!(prepared.stats().distance_computations <= candidates);
}

#[test]
fn consecutive_draws_from_one_cursor_pass_the_pair_test() {
    // A cursor carries its verified prefix and swap-removals from draw to
    // draw, which is where a lazy sampler could leak state. The far-heavy
    // battery pairs the draws (2k, 2k + 1) of its cursor; this one draws
    // the same sequence and pairs (2k + 1, 2k + 2), so every two
    // consecutive draws of that cursor are pair-tested.
    let (query, points, plan) = far_heavy_fixture();
    let index = far_heavy_index("far-heavy-cursor", &points, plan);
    let support = index.neighborhood(&query);
    let mut prepared = index.prepare(&query);
    let mut rng = StdRng::seed_from_u64(62);
    prepared.sample(&mut rng);
    assert_uniform_pairs("far-heavy cursor, shifted pairs", &support, |_| {
        [prepared.sample(&mut rng), prepared.sample(&mut rng)]
    });
}

#[test]
fn a_fresh_cursor_draw_costs_what_the_paper_bounds() {
    // The paper bounds a draw's evaluations by O(b(q, cr)/(b(q, r) + 1)).
    // A fresh cursor over f far and m >= 1 near distinct colliding points
    // evaluates candidates in uniformly random order until the first near
    // one: X far ones, X negative-hypergeometric with mean f/(m + 1) and
    // variance f(f + m + 1)m/((m + 1)^2 (m + 2)), plus the near one it
    // returns. One query per batch through the executor makes every draw a
    // fresh cursor.
    let (query, points, plan) = far_heavy_fixture();
    let index = far_heavy_index("far-heavy-cost", &points, plan);
    let counts = shard_counts(&index, &query);
    let near: usize = counts.iter().map(|c| c.2).sum();
    let far: usize = counts.iter().map(|c| c.1 - c.2).sum();
    assert!(near >= 1 && far >= 5 * near, "{far} far, {near} near");
    let (f, m) = (far as f64, near as f64);
    let expected = f / (m + 1.0) + 1.0;
    let variance = f * (f + m + 1.0) * m / ((m + 1.0).powi(2) * (m + 2.0));

    const BATCHES: u64 = 100_000;
    let evaluations: usize = (0..BATCHES)
        .map(|b| {
            let request = QueryRequest::new(vec![query.clone()]).with_batch(b);
            let answer = &index.run_batch(&request)[0];
            assert!(answer.id.is_some(), "batch {b}: ⊥ over {near} near points");
            answer.stats.distance_computations
        })
        .sum();
    let mean = evaluations as f64 / BATCHES as f64;

    // Bernstein's inequality for draws within f of their mean:
    // P(|mean - expected| >= t) <= 2 exp(-B t^2 / (2 variance + 2 f t / 3)).
    // `t` solves B t^2 = ln(2 / 1e-6) (2 variance + 2 f t / 3), so a correct
    // sampler fails this check with probability at most 1e-6.
    let (b, log) = (BATCHES as f64, (2.0 / 1e-6f64).ln());
    let linear = 2.0 * f * log / 3.0;
    let t = (linear + (linear * linear + 8.0 * b * variance * log).sqrt()) / (2.0 * b);
    assert!(
        (mean - expected).abs() < t,
        "{mean} evaluations per draw, expected f/(m + 1) + 1 = {expected} ± {t} \
         ({far} far, {near} near)"
    );
}

/// One keep-alive client of a loopback `fairnn-server`.
#[expect(
    clippy::disallowed_types,
    reason = "a wire client drives the server over loopback"
)]
struct WireClient(TcpStream);

#[expect(
    clippy::disallowed_types,
    reason = "a wire client drives the server over loopback"
)]
impl WireClient {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("client read timeout");
        Self(stream)
    }

    fn post<T: Codec>(&mut self, path: &str, body: &T) -> ClientResponse {
        let mut enc = Encoder::new();
        body.encode(&mut enc);
        let body = enc.into_bytes();
        let mut wire = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        self.0.write_all(&wire).expect("send request");
        let response = read_response(&mut self.0).expect("read response");
        assert_eq!(response.status, 200, "{path} answered {}", response.status);
        response
    }

    /// `POST /v1/query` with one query at batch number `batch`.
    fn draw(&mut self, query: &SparseSet, batch: u64) -> Option<PointId> {
        let request = QueryRequest::new(vec![query.clone()]).with_batch(batch);
        let response = self.post("/v1/query", &request);
        let decoded = BatchResponse::decode(&mut Decoder::new(&response.body)).expect("decode");
        decoded.answers[0].id
    }
}

#[test]
fn served_answers_pass_the_uniformity_battery_through_churn_and_recovery() {
    // The executor battery again, but every draw is a `POST /v1/query` on a
    // loopback server: on the bootstrapped engine, after a commit that
    // inserts, deletes and compacts, after a delete-only commit that leaves
    // a tombstoned neighbour in its buckets, and after drain → reopen (WAL
    // replay) → serve. Each phase uses its own batch numbers.
    let dataset = test_dataset(1);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let qid = interesting_queries(&dataset)[0];
    let query = dataset.point(qid).clone();
    let dir = std::env::temp_dir().join(format!("fairnn-serving-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = EngineWriter::bootstrap(
        &OneBitMinHash,
        test_params(dataset.len(), R),
        &dataset,
        near,
        ShardedIndexConfig::default().seeded(21),
        &dir,
    )
    .expect("bootstrap");

    // Live points by global id: the exact neighbourhood is the support.
    let mut live: Vec<Option<SparseSet>> = dataset.points().iter().cloned().map(Some).collect();
    let support_of = |live: &[Option<SparseSet>]| -> Vec<PointId> {
        live.iter()
            .enumerate()
            .filter(|(_, p)| p.as_ref().is_some_and(|p| near.is_near(&query, p)))
            .map(|(i, _)| PointId(i as u32))
            .collect()
    };

    let reader = writer.reader();
    let handle = serve(writer, ServerConfig::default(), ("127.0.0.1", 0)).expect("serve");
    let mut client = WireClient::connect(&handle);
    let support = support_of(&live);
    assert_uniform_across_batches("served", &support, 0, |b| client.draw(&query, b));

    // Churn: two copies of the query join (identical points collide in
    // every table), two other neighbours leave, and the compaction folds
    // the copies into the base.
    let leaving: Vec<PointId> = support
        .iter()
        .copied()
        .filter(|&id| id != qid)
        .take(2)
        .collect();
    let mut batch = WriteBatch::new()
        .insert(query.clone())
        .insert(query.clone());
    for &id in &leaving {
        batch = batch.delete(id);
    }
    let receipt = client.post("/v1/commit", &batch.compact());
    let receipt = String::from_utf8(receipt.body).expect("utf-8 receipt");
    let assigned = receipt
        .split("\"assigned\":[")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("receipt lists assigned ids");
    for id in assigned.split(',') {
        let id: usize = id.parse().expect("numeric id");
        live.resize(live.len().max(id + 1), None);
        live[id] = Some(query.clone());
    }
    for id in &leaving {
        live[id.index()] = None;
    }
    let support = support_of(&live);
    assert_uniform_across_batches("served after churn", &support, 1_000_000, |b| {
        client.draw(&query, b)
    });

    // Tombstones: a delete-only commit, no compaction. The deleted
    // neighbour stays in its buckets, so its part's bound b_i still
    // counts it while |A_i| drops — the sampler now proposes positions
    // that hold no live point and must reject them without bias.
    let before = shard_counts(reader.pin().index(), &query);
    let gone = support
        .iter()
        .copied()
        .find(|&id| id != qid && id.index() < dataset.len())
        .expect("an original neighbour besides the query");
    client.post("/v1/commit", &WriteBatch::<SparseSet>::new().delete(gone));
    live[gone.index()] = None;
    let tombstoned = reader.pin();
    assert_eq!(tombstoned.generation(), 2);
    assert_eq!(
        tombstoned
            .index()
            .shards()
            .iter()
            .map(|s| s.tombstones())
            .sum::<usize>(),
        1
    );
    let after = shard_counts(tombstoned.index(), &query);
    let bound = |counts: &[(usize, usize, usize)]| counts.iter().map(|c| c.0).collect::<Vec<_>>();
    let near = |counts: &[(usize, usize, usize)]| counts.iter().map(|c| c.2).sum::<usize>();
    assert_eq!(
        bound(&after),
        bound(&before),
        "a delete changed a bucket bound"
    );
    assert_eq!(near(&after) + 1, near(&before));
    let support = support_of(&live);
    assert_uniform_across_batches("served over tombstones", &support, 2_000_000, |b| {
        client.draw(&query, b)
    });
    drop((client, tombstoned));
    assert!(handle.join().completed_within_deadline);

    // Recovery: reopen replays both commits from the WAL (the delete
    // leaves the same tombstone), then serve again.
    let reopened = EngineWriter::<SparseSet, Hasher, Near>::open(&dir).expect("reopen");
    assert_eq!(shard_counts(reopened.reader().pin().index(), &query), after);
    let handle = serve(reopened, ServerConfig::default(), ("127.0.0.1", 0)).expect("serve");
    let mut client = WireClient::connect(&handle);
    assert_uniform_across_batches("served after recovery", &support, 3_000_000, |b| {
        client.draw(&query, b)
    });
    drop(client);
    assert!(handle.join().completed_within_deadline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "eight raw threads pin and answer concurrently, as a server's workers would"
)]
fn eight_thread_run_reproduces_one_thread_run_bit_for_bit() {
    // The determinism regression test: same root seed, same requests, one
    // reader thread vs eight concurrent reader threads pinning the same
    // generation — every answer (id and stats) must match.
    let dataset = test_dataset(1);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let dir = std::env::temp_dir().join(format!("fairnn-serving-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = EngineWriter::bootstrap(
        &OneBitMinHash,
        test_params(dataset.len(), R),
        &dataset,
        near,
        ShardedIndexConfig::default().seeded(77),
        &dir,
    )
    .expect("bootstrap");
    let reader = writer.reader();

    // Requests with distinct queries, duplicates and a ⊥ query.
    let queries = interesting_queries(&dataset);
    let requests: Vec<QueryRequest<SparseSet>> = (0..8u64)
        .map(|round| {
            let mut batch = Vec::new();
            for (i, &qid) in queries.iter().enumerate() {
                let point = dataset.point(qid).clone();
                batch.push(point.clone());
                if i as u64 % 2 == round % 2 {
                    batch.push(point);
                }
            }
            batch.push(SparseSet::from_items(vec![900_000, 900_001]));
            QueryRequest::new(batch).with_batch(round)
        })
        .collect();
    let one: Vec<_> = requests.iter().map(|r| reader.pin().run_batch(r)).collect();
    let eight: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .iter()
            .map(|r| {
                let reader = reader.clone();
                scope.spawn(move || reader.pin().run_batch(r))
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(one, eight, "thread count changed the answers");
    for response in &one {
        let last = response.answers.last().unwrap();
        assert!(last.id.is_none(), "⊥ query must answer None");
    }
    drop(writer);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serving_lifecycle_batch_insert_delete() {
    let dataset = test_dataset(1);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let exact = ExactSampler::new(&dataset, near);
    let qid = interesting_queries(&dataset)[0];
    let query = dataset.point(qid).clone();
    let support = exact.neighborhood(&query);

    let dir = std::env::temp_dir().join(format!("fairnn-serving-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = EngineWriter::bootstrap(
        &OneBitMinHash,
        test_params(dataset.len(), R),
        &dataset,
        near,
        ShardedIndexConfig::default().seeded(5),
        &dir,
    )
    .expect("bootstrap");
    let reader = writer.reader();

    // Batch answers stay in the neighbourhood; repeats of one query are
    // independent draws, not copies of the first answer.
    let batch = vec![query.clone(); 30];
    let first = reader.pin().run_batch(&QueryRequest::new(batch.clone()));
    assert!(first
        .answers
        .iter()
        .all(|a| support.contains(&a.id.unwrap())));
    assert!(first.answers.iter().any(|a| a.id != first.answers[0].id));

    // Live updates go through the generational writer: insert a twin of
    // the query and make sure a fresh pin serves it.
    let receipt = writer
        .commit(WriteBatch::new().insert(query.clone()))
        .expect("insert commit");
    let id = receipt.assigned[0];
    let pin = reader.pin();
    assert_eq!(pin.index().len(), dataset.len() + 1);
    let mut found = false;
    for b in 0..60u64 {
        let request = QueryRequest::new(batch.clone()).with_batch(b);
        if pin
            .run_batch(&request)
            .answers
            .iter()
            .any(|a| a.id == Some(id))
        {
            found = true;
            break;
        }
    }
    assert!(found, "inserted twin never served");

    // Delete it again; it must disappear from fresh pins' answers.
    writer
        .commit(WriteBatch::new().delete(id))
        .expect("delete commit");
    let pin = reader.pin();
    let after = pin.run_batch(&QueryRequest::new(batch.clone()));
    assert!(after.answers.iter().all(|a| a.id != Some(id)));
    assert_eq!(pin.index().len(), dataset.len());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sharded_sampler_slots_into_the_sampler_harness() {
    // The adapter must behave like any other NeighborSampler: k samples
    // with replacement, stats, name.
    let dataset = test_dataset(1);
    let params = test_params(dataset.len(), R);
    let near = SimilarityAtLeast::new(Jaccard, R);
    let mut sampler = ShardedSampler::build(
        &OneBitMinHash,
        params,
        &dataset,
        near,
        ShardedIndexConfig::default().seeded(55),
    );
    let qid = interesting_queries(&dataset)[0];
    let query = dataset.point(qid).clone();
    let mut rng = StdRng::seed_from_u64(3);
    let samples = sampler.sample_with_replacement(&query, 20, &mut rng);
    assert_eq!(samples.len(), 20);
    let exact = ExactSampler::new(&dataset, near);
    let support = exact.neighborhood(&query);
    for id in samples {
        assert!(support.contains(&id));
    }
    assert_eq!(sampler.name(), "sharded-engine");
    assert!(sampler.last_query_stats().buckets_inspected > 0);
}
