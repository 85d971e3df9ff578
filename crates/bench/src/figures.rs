//! The experiment implementations behind the `fig*` and `table_*` binaries.
//!
//! Each function is deterministic given its seed and returns a plain result
//! struct; the binaries only add argument parsing and table printing, so the
//! integration tests can assert on the experimental findings directly.

use crate::workload::SetWorkload;
use fairnn_core::{
    ApproximateNeighborhoodSampler, ExactSampler, FairNnis, FairNns, NaiveFairLsh, NeighborSampler,
    SimilarityAtLeast, StandardLsh,
};
use fairnn_data::AdversarialInstance;
use fairnn_engine::{ShardedIndex, ShardedIndexConfig, ShardedSampler};
use fairnn_lsh::{ConcatenatedHasher, LshParams, OneBitMinHash, OneBitMinHasher, ParamsBuilder};
use fairnn_space::{Dataset, Jaccard, PointId, Similarity, SparseSet};
use fairnn_stats::{FrequencyHistogram, SimilarityProfile, Summary, UniformityReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// LSH parameters used throughout the set-similarity experiments, following
/// the Section 6 recipe (1-bit MinHash, ≈5 expected far collisions at
/// Jaccard 0.1, ≥ 99 % recall at the near threshold `r`).
pub fn paper_lsh_params(n: usize, r: f64) -> LshParams {
    ParamsBuilder::new(n, r, 0.1).empirical(&OneBitMinHash)
}

// ---------------------------------------------------------------------------
// Figure 1: output distribution of standard LSH vs fair LSH
// ---------------------------------------------------------------------------

/// The measured output distribution of one method for one query.
#[derive(Debug, Clone)]
pub struct MethodDistribution {
    /// Relative output frequency aggregated by similarity level (the
    /// quantity plotted in Figure 1).
    pub profile: SimilarityProfile,
    /// Deviation of the output distribution from uniform over the true
    /// neighbourhood.
    pub report: UniformityReport,
    /// Pearson correlation between similarity and output frequency; positive
    /// values mean the method favours closer points.
    pub correlation: f64,
}

/// Per-query results of the Figure 1 experiment.
#[derive(Debug, Clone)]
pub struct QueryDistribution {
    /// The query id within the workload dataset.
    pub query: PointId,
    /// True neighbourhood size `b_S(q, r)`.
    pub neighborhood_size: usize,
    /// Standard LSH (first near point found, randomised visiting order).
    pub standard: MethodDistribution,
    /// Fair LSH (collect all near points, sample uniformly).
    pub fair: MethodDistribution,
}

/// Result of the Figure 1 experiment over a whole workload.
#[derive(Debug, Clone)]
pub struct OutputDistributionResult {
    /// The similarity threshold `r` used.
    pub r: f64,
    /// Per-query distributions.
    pub per_query: Vec<QueryDistribution>,
}

impl OutputDistributionResult {
    /// Mean total-variation distance from uniform of the standard LSH
    /// output across queries.
    pub fn mean_standard_tv(&self) -> f64 {
        mean(
            self.per_query
                .iter()
                .map(|q| q.standard.report.total_variation),
        )
    }

    /// Mean total-variation distance from uniform of the fair LSH output.
    pub fn mean_fair_tv(&self) -> f64 {
        mean(self.per_query.iter().map(|q| q.fair.report.total_variation))
    }

    /// Mean similarity/frequency correlation of the standard LSH output.
    pub fn mean_standard_correlation(&self) -> f64 {
        mean(self.per_query.iter().map(|q| q.standard.correlation))
    }

    /// Mean similarity/frequency correlation of the fair LSH output.
    pub fn mean_fair_correlation(&self) -> f64 {
        mean(self.per_query.iter().map(|q| q.fair.correlation))
    }
}

fn mean<I: Iterator<Item = f64>>(iter: I) -> f64 {
    let values: Vec<f64> = iter.collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Maps `f` over `items`, chunked across `threads` scoped workers, with the
/// output in input order. `f` must be a pure function of its item for the
/// result to be thread-count independent — which is how every threaded
/// experiment here stays deterministic.
fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads).max(1);
    #[expect(
        clippy::disallowed_methods,
        reason = "bench-only helper; `threads` is a per-call CLI argument, predates fairnn-parallel"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    })
}

/// Runs the Figure 1 experiment: repeatedly query the standard and the fair
/// LSH structures and record which neighbour is reported.
pub fn run_output_distribution(
    workload: &SetWorkload,
    r: f64,
    repetitions: usize,
    seed: u64,
) -> OutputDistributionResult {
    let dataset = &workload.dataset;
    let params = paper_lsh_params(dataset.len(), r);
    let near = SimilarityAtLeast::new(Jaccard, r);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut standard = StandardLsh::build(&OneBitMinHash, params, dataset, near, &mut rng);
    let mut fair = NaiveFairLsh::build(&OneBitMinHash, params, dataset, near, &mut rng);

    let mut per_query = Vec::new();
    for &query_id in &workload.queries {
        let query = dataset.point(query_id).clone();
        let neighborhood = dataset.similar_indices(&Jaccard, &query, r);
        if neighborhood.len() < 2 {
            continue; // nothing interesting to measure
        }
        let members: Vec<(PointId, f64)> = neighborhood
            .iter()
            .map(|id| (*id, Jaccard.similarity(&query, dataset.point(*id))))
            .collect();

        let mut standard_hist = FrequencyHistogram::new();
        let mut fair_hist = FrequencyHistogram::new();
        for _ in 0..repetitions {
            standard_hist.record(standard.sample(&query, &mut rng));
            fair_hist.record(fair.sample(&query, &mut rng));
        }

        let make = |hist: &FrequencyHistogram| {
            let profile = SimilarityProfile::from_histogram(hist, &members, 2);
            let report = UniformityReport::from_histogram(hist, &neighborhood);
            let correlation = profile.similarity_frequency_correlation();
            MethodDistribution {
                profile,
                report,
                correlation,
            }
        };

        per_query.push(QueryDistribution {
            query: query_id,
            neighborhood_size: neighborhood.len(),
            standard: make(&standard_hist),
            fair: make(&fair_hist),
        });
    }

    OutputDistributionResult { r, per_query }
}

// ---------------------------------------------------------------------------
// Figure 1 extension: the sharded engine against the uniformity battery
// ---------------------------------------------------------------------------

/// The sharded-index type every set-similarity engine experiment uses.
pub type SetShardedIndex =
    ShardedIndex<SparseSet, ConcatenatedHasher<OneBitMinHasher>, SimilarityAtLeast<Jaccard>>;

/// The matching sampler adapter.
pub type SetShardedSampler =
    ShardedSampler<SparseSet, ConcatenatedHasher<OneBitMinHasher>, SimilarityAtLeast<Jaccard>>;

/// Builds the sharded index over a workload with the paper's LSH recipe.
pub fn build_sharded_index(workload: &SetWorkload, r: f64, seed: u64) -> SetShardedIndex {
    let dataset = &workload.dataset;
    let params = paper_lsh_params(dataset.len(), r);
    let near = SimilarityAtLeast::new(Jaccard, r);
    ShardedIndex::build(
        &OneBitMinHash,
        params,
        dataset,
        near,
        ShardedIndexConfig::default().seeded(seed),
    )
}

/// Per-query outcome of the engine uniformity experiment.
#[derive(Debug, Clone)]
pub struct EngineQueryReport {
    /// The query id within the workload dataset.
    pub query: PointId,
    /// True neighbourhood size `b_S(q, r)`.
    pub neighborhood_size: usize,
    /// Deviation of the sharded engine's output distribution from uniform
    /// over the true neighbourhood.
    pub report: UniformityReport,
}

/// Result of running the sharded two-level sampler through the same
/// uniformity battery Figure 1 applies to the unsharded samplers.
#[derive(Debug, Clone)]
pub struct EngineDistributionResult {
    /// Per-query reports.
    pub per_query: Vec<EngineQueryReport>,
}

impl EngineDistributionResult {
    /// Mean total-variation distance from uniform across queries.
    pub fn mean_tv(&self) -> f64 {
        mean(self.per_query.iter().map(|q| q.report.total_variation))
    }

    /// Whether every query passed the chi-square consistency check at the
    /// given significance level.
    pub fn all_consistent(&self, significance: f64) -> bool {
        self.per_query
            .iter()
            .all(|q| q.report.is_consistent_with_uniform(significance))
    }
}

/// Runs the sharded engine over the Figure 1 workload: repeated independent
/// queries against one build, measured with [`UniformityReport`]. Queries
/// are distributed over `threads` workers; each query samples from its own
/// seed-derived RNG stream, so the result is identical for every thread
/// count.
pub fn run_engine_distribution(
    workload: &SetWorkload,
    r: f64,
    threads: usize,
    repetitions: usize,
    seed: u64,
) -> EngineDistributionResult {
    assert!(threads >= 1, "need at least one thread");
    let dataset = &workload.dataset;
    let index = build_sharded_index(workload, r, seed);

    let usable: Vec<PointId> = workload
        .queries
        .iter()
        .copied()
        .filter(|id| dataset.similar_count(&Jaccard, dataset.point(*id), r) >= 2)
        .collect();

    let measure_one = |query_id: PointId| -> EngineQueryReport {
        let query = dataset.point(query_id).clone();
        let neighborhood = dataset.similar_indices(&Jaccard, &query, r);
        let mut rng = StdRng::seed_from_u64(seed ^ (0xE1A0 + u64::from(query_id.0) * 0x9E37));
        let mut prepared = index.prepare(&query);
        let mut hist = FrequencyHistogram::new();
        for _ in 0..repetitions {
            hist.record(prepared.sample(&mut rng));
        }
        EngineQueryReport {
            query: query_id,
            neighborhood_size: neighborhood.len(),
            report: UniformityReport::from_histogram(&hist, &neighborhood),
        }
    };

    let per_query = parallel_map(&usable, threads, |&id| measure_one(id));

    EngineDistributionResult { per_query }
}

// ---------------------------------------------------------------------------
// Figure 2: unfairness of the approximate-neighbourhood notion
// ---------------------------------------------------------------------------

/// Result of the Section 6.2 adversarial experiment.
#[derive(Debug, Clone)]
pub struct AdversarialResult {
    /// Per-build empirical sampling probability of the set `X` (isolated,
    /// similarity 0.5).
    pub x_probability: Summary,
    /// Per-build empirical sampling probability of the set `Y` (crowded,
    /// similarity 0.6).
    pub y_probability: Summary,
    /// Per-build empirical sampling probability of the set `Z` (similarity
    /// 0.9, the true near neighbour).
    pub z_probability: Summary,
    /// Ratio of the mean sampling probabilities of `X` and `Y` — the paper
    /// reports a factor above 50.
    pub x_over_y: f64,
}

/// Runs the Figure 2 experiment: sample from the approximate-neighbourhood
/// sampler on the adversarial instance, over several independent builds.
pub fn run_adversarial_experiment(
    builds: usize,
    repetitions_per_build: usize,
    seed: u64,
) -> AdversarialResult {
    run_adversarial_experiment_threaded(builds, repetitions_per_build, seed, 1)
}

/// The Figure 2 experiment with the independent builds distributed over
/// `threads` workers. Every build is seeded from its own index, so the
/// result is identical for every thread count (and to the sequential
/// [`run_adversarial_experiment`]).
pub fn run_adversarial_experiment_threaded(
    builds: usize,
    repetitions_per_build: usize,
    seed: u64,
    threads: usize,
) -> AdversarialResult {
    assert!(threads >= 1, "need at least one thread");
    let instance = AdversarialInstance::build();
    let n = instance.dataset.len();
    // r = 0.9, cr = 0.5 as in the paper; the far threshold drives both the
    // LSH parameters and membership in the approximate neighbourhood S'.
    let params = ParamsBuilder::new(n, instance.near_threshold, instance.far_threshold)
        .empirical(&OneBitMinHash);
    let within_far = SimilarityAtLeast::new(Jaccard, instance.far_threshold);

    let run_build = |b: usize| -> (f64, f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(b as u64));
        let mut sampler = ApproximateNeighborhoodSampler::build(
            &OneBitMinHash,
            params,
            &instance.dataset,
            within_far,
            &mut rng,
        );
        let mut hist = FrequencyHistogram::new();
        for _ in 0..repetitions_per_build {
            hist.record(sampler.sample(&instance.query, &mut rng));
        }
        (
            hist.relative_frequency(instance.x),
            hist.relative_frequency(instance.y),
            hist.relative_frequency(instance.z),
        )
    };

    let ids: Vec<usize> = (0..builds).collect();
    let per_build = parallel_map(&ids, threads, |&b| run_build(b));

    let x_probs: Vec<f64> = per_build.iter().map(|p| p.0).collect();
    let y_probs: Vec<f64> = per_build.iter().map(|p| p.1).collect();
    let z_probs: Vec<f64> = per_build.iter().map(|p| p.2).collect();

    let x = Summary::of(&x_probs);
    let y = Summary::of(&y_probs);
    let z = Summary::of(&z_probs);
    let x_over_y = if y.mean > 0.0 {
        x.mean / y.mean
    } else {
        f64::INFINITY
    };
    AdversarialResult {
        x_probability: x,
        y_probability: y,
        z_probability: z,
        x_over_y,
    }
}

// ---------------------------------------------------------------------------
// Figure 3: cost ratio b_S(q, cr) / b_S(q, r)
// ---------------------------------------------------------------------------

/// One row of the Figure 3 experiment.
#[derive(Debug, Clone)]
pub struct CostRatioRow {
    /// Near similarity threshold `r`.
    pub r: f64,
    /// Approximation factor `c` (so the far threshold is `c · r`).
    pub c: f64,
    /// Summary of the per-query ratio `b_S(q, cr) / b_S(q, r)`.
    pub ratio: Summary,
}

/// Runs the Figure 3 experiment: exact neighbourhood-size ratios at the
/// paper's `r` and `c` grids.
pub fn run_cost_ratio(
    dataset: &Dataset<SparseSet>,
    queries: &[PointId],
    rs: &[f64],
    cs: &[f64],
) -> Vec<CostRatioRow> {
    run_cost_ratio_threaded(dataset, queries, rs, cs, 1)
}

/// The Figure 3 experiment with the `(r, c)` grid cells distributed over
/// `threads` workers. The computation is exact (no randomness), so the
/// result is identical for every thread count.
pub fn run_cost_ratio_threaded(
    dataset: &Dataset<SparseSet>,
    queries: &[PointId],
    rs: &[f64],
    cs: &[f64],
    threads: usize,
) -> Vec<CostRatioRow> {
    assert!(threads >= 1, "need at least one thread");
    let grid: Vec<(f64, f64)> = rs
        .iter()
        .flat_map(|&r| cs.iter().map(move |&c| (r, c)))
        .collect();

    let compute = |&(r, c): &(f64, f64)| -> CostRatioRow {
        let cr = c * r;
        let mut ratios = Vec::new();
        for &qid in queries {
            let q = dataset.point(qid);
            let b_r = dataset.similar_count(&Jaccard, q, r);
            let b_cr = dataset.similar_count(&Jaccard, q, cr);
            if b_r > 0 {
                ratios.push(b_cr as f64 / b_r as f64);
            }
        }
        CostRatioRow {
            r,
            c,
            ratio: Summary::of(&ratios),
        }
    };

    parallel_map(&grid, threads, compute)
}

// ---------------------------------------------------------------------------
// Section 6.3: query-cost comparison of the samplers
// ---------------------------------------------------------------------------

/// Measured per-query cost of one sampler.
#[derive(Debug, Clone)]
pub struct SamplerCost {
    /// Sampler name (as reported by [`NeighborSampler::name`]).
    pub name: &'static str,
    /// Mean bucket entries scanned per query.
    pub mean_entries: f64,
    /// Mean distance/similarity computations per query.
    pub mean_distance_computations: f64,
    /// Mean wall-clock time per query in microseconds.
    pub mean_micros: f64,
    /// Fraction of queries answered with `⊥`.
    pub failure_rate: f64,
}

/// Runs the query-cost comparison: every fair variant plus the baselines on
/// the same workload and threshold, then the engine's two-level sampler.
pub fn run_query_cost(
    workload: &SetWorkload,
    r: f64,
    repetitions: usize,
    seed: u64,
) -> Vec<SamplerCost> {
    let dataset = &workload.dataset;
    let params = paper_lsh_params(dataset.len(), r);
    let near = SimilarityAtLeast::new(Jaccard, r);
    let queries = workload.query_points();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut results = Vec::new();

    let mut exact = ExactSampler::new(dataset, near);
    results.push(measure(&mut exact, &queries, repetitions, seed + 1));

    let mut standard = StandardLsh::build(&OneBitMinHash, params, dataset, near, &mut rng);
    results.push(measure(&mut standard, &queries, repetitions, seed + 2));

    let mut naive = NaiveFairLsh::build(&OneBitMinHash, params, dataset, near, &mut rng);
    results.push(measure(&mut naive, &queries, repetitions, seed + 3));

    let mut nns = FairNns::build(&OneBitMinHash, params, dataset, near, &mut rng);
    results.push(measure(&mut nns, &queries, repetitions, seed + 4));

    let mut nnis = FairNnis::build(&OneBitMinHash, params, dataset, near, &mut rng);
    results.push(measure(&mut nnis, &queries, repetitions, seed + 5));

    let mut sharded = SetShardedSampler::build(
        &OneBitMinHash,
        params,
        dataset,
        near,
        ShardedIndexConfig::default().seeded(seed),
    );
    results.push(measure(&mut sharded, &queries, repetitions, seed + 6));

    results
}

/// Measures one sampler over all queries.
pub fn measure<P: Clone, S: NeighborSampler<P>>(
    sampler: &mut S,
    queries: &[P],
    repetitions: usize,
    seed: u64,
) -> SamplerCost {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = 0f64;
    let mut distances = 0f64;
    let mut failures = 0usize;
    let mut total = 0usize;
    let start = fairnn_obs::monotonic_ns();
    for query in queries {
        for _ in 0..repetitions {
            total += 1;
            if sampler.sample(query, &mut rng).is_none() {
                failures += 1;
            }
            let stats = sampler.last_query_stats();
            entries += stats.entries_scanned as f64;
            distances += stats.distance_computations as f64;
        }
    }
    let elapsed = (fairnn_obs::monotonic_ns() - start) as f64 * 1e-9;
    let denom = total.max(1) as f64;
    SamplerCost {
        name: sampler.name(),
        mean_entries: entries / denom,
        mean_distance_computations: distances / denom,
        mean_micros: elapsed * 1e6 / denom,
        failure_rate: failures as f64 / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    fn small_workload() -> SetWorkload {
        SetWorkload::generate(WorkloadKind::LastFm, 0.08, 4, 3)
    }

    #[test]
    fn paper_params_reach_the_recall_target() {
        let p = paper_lsh_params(1892, 0.2);
        assert!(p.retrieval_probability(&OneBitMinHash, 0.2) >= 0.99);
        assert!(p.k >= 1 && p.l >= 1);
    }

    #[test]
    fn output_distribution_standard_is_more_biased_than_fair() {
        let w = small_workload();
        let result = run_output_distribution(&w, 0.2, 400, 7);
        assert!(
            !result.per_query.is_empty(),
            "no query had a usable neighbourhood"
        );
        // The qualitative Figure 1 finding: fair LSH is closer to uniform
        // than standard LSH, and standard LSH has a positive
        // similarity/frequency correlation.
        assert!(
            result.mean_fair_tv() <= result.mean_standard_tv() + 0.05,
            "fair TV {} vs standard TV {}",
            result.mean_fair_tv(),
            result.mean_standard_tv()
        );
        assert!(result.mean_standard_correlation() > -0.2);
    }

    #[test]
    fn cost_ratio_rows_are_at_least_one_and_monotone_in_c() {
        let w = small_workload();
        let rows = run_cost_ratio(&w.dataset, &w.queries, &[0.2], &[0.25, 0.5, 0.75]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.ratio.mean >= 1.0, "ratio below 1: {}", row.ratio.mean);
        }
        // Smaller c => lower far threshold => more points => larger ratio.
        assert!(rows[0].ratio.mean >= rows[2].ratio.mean - 1e-9);
    }

    #[test]
    fn adversarial_experiment_shows_x_over_y_unfairness() {
        let result = run_adversarial_experiment(40, 200, 11);
        assert!(result.x_probability.mean >= 0.0);
        // The defining observation of Section 6.2: X is sampled much more
        // often than Y although Y is more similar to the query.
        assert!(
            result.x_probability.mean > result.y_probability.mean,
            "X mean {} vs Y mean {}",
            result.x_probability.mean,
            result.y_probability.mean
        );
    }

    #[test]
    fn engine_distribution_is_deterministic_across_threads_and_uniformish() {
        let w = small_workload();
        let serial = run_engine_distribution(&w, 0.2, 1, 600, 13);
        let threaded = run_engine_distribution(&w, 0.2, 3, 600, 13);
        assert!(!serial.per_query.is_empty());
        assert_eq!(serial.per_query.len(), threaded.per_query.len());
        for (a, b) in serial.per_query.iter().zip(&threaded.per_query) {
            assert_eq!(a.query, b.query);
            assert_eq!(a.report.total_variation, b.report.total_variation);
        }
        // The engine's sampler must put no mass outside the true
        // neighbourhood and stay near uniform.
        for q in &serial.per_query {
            assert_eq!(q.report.out_of_support, 0.0, "query {}", q.query);
        }
        assert!(serial.mean_tv() < 0.35, "mean TV {}", serial.mean_tv());
    }

    #[test]
    fn threaded_fig2_and_fig3_match_their_sequential_results() {
        let seq = run_adversarial_experiment(12, 80, 3);
        let par = run_adversarial_experiment_threaded(12, 80, 3, 4);
        assert_eq!(seq.x_probability.mean, par.x_probability.mean);
        assert_eq!(seq.y_probability.mean, par.y_probability.mean);
        assert_eq!(seq.z_probability.mean, par.z_probability.mean);

        let w = small_workload();
        let seq_rows = run_cost_ratio(&w.dataset, &w.queries, &[0.2, 0.3], &[0.25, 0.5]);
        let par_rows =
            run_cost_ratio_threaded(&w.dataset, &w.queries, &[0.2, 0.3], &[0.25, 0.5], 3);
        assert_eq!(seq_rows.len(), par_rows.len());
        for (a, b) in seq_rows.iter().zip(&par_rows) {
            assert_eq!((a.r, a.c, a.ratio.mean), (b.r, b.c, b.ratio.mean));
        }
    }

    #[test]
    fn query_cost_with_shards_appends_the_engine_row() {
        let w = small_workload();
        let costs = run_query_cost(&w, 0.2, 3, 5);
        assert_eq!(costs.len(), 6);
        let engine = costs.iter().find(|c| c.name == "sharded-engine").unwrap();
        assert!(engine.failure_rate <= 0.2);
        assert!(engine.mean_distance_computations > 0.0);
    }

    #[test]
    fn query_cost_reports_all_samplers() {
        let w = small_workload();
        let costs = run_query_cost(&w, 0.2, 3, 5);
        assert_eq!(costs.len(), 6);
        let names: Vec<&str> = costs.iter().map(|c| c.name).collect();
        assert!(names.contains(&"exact"));
        assert!(names.contains(&"fair-nnis"));
        // The exact scan must inspect the whole dataset; LSH-based samplers
        // should not inspect more entries than exact times the table count.
        let exact = costs.iter().find(|c| c.name == "exact").unwrap();
        assert!(exact.mean_entries >= w.dataset.len() as f64 - 1e-9);
        for c in &costs {
            assert!(
                c.failure_rate <= 0.2,
                "{} failed too often: {}",
                c.name,
                c.failure_rate
            );
        }
    }
}
