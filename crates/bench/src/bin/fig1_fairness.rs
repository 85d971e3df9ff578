//! Figure 1 reproduction: output distribution of standard LSH vs fair LSH.
//!
//! For each dataset (Last.FM-like at r = 0.15, MovieLens-like at r = 0.2,
//! as in the paper) and each selected query, the binary repeatedly queries
//! the standard LSH structure (first near point found) and the fair LSH
//! structure (uniform over all collected near points), then reports the
//! average relative output frequency per similarity level, the
//! total-variation distance from uniform, and the similarity/frequency
//! correlation.
//!
//! The two-level engine of `fairnn-engine` is then run through the same
//! uniformity battery, distributing queries over `--threads` workers.
//!
//! Usage: `cargo run -p fairnn-bench --release --bin fig1_fairness --
//!         [--scale 0.25] [--repetitions 2000] [--queries 10] [--paper-scale]
//!         [--threads 1]`

#![forbid(unsafe_code)]

use fairnn_bench::figures::{run_engine_distribution, run_output_distribution};
use fairnn_bench::{CommonArgs, SetWorkload, WorkloadKind};
use fairnn_stats::{table::fmt_f64, TextTable};

fn main() {
    let args = CommonArgs::from_env();
    println!("Figure 1 — (un)fairness of standard LSH vs fair LSH");
    println!(
        "scale = {}, repetitions = {}, queries = {}, seed = {}{}\n",
        args.scale,
        args.repetitions,
        args.queries,
        args.seed,
        args.engine_suffix()
    );

    let settings = [
        (WorkloadKind::LastFm, 0.15_f64),
        (WorkloadKind::MovieLens, 0.2_f64),
    ];

    for (kind, r) in settings {
        let workload = SetWorkload::generate(kind, args.scale, args.queries, args.seed);
        println!(
            "{} — {} users, {} usable queries, r = {r}",
            kind.name(),
            workload.dataset.len(),
            workload.queries.len()
        );
        let result = run_output_distribution(&workload, r, args.repetitions, args.seed + 1);

        let mut per_query = TextTable::new(
            format!(
                "{} (r = {r}): per-query deviation from uniform",
                kind.name()
            ),
            &[
                "query",
                "b_r",
                "TV standard",
                "TV fair",
                "corr standard",
                "corr fair",
            ],
        );
        for q in &result.per_query {
            per_query.add_row(vec![
                format!("{}", q.query),
                q.neighborhood_size.to_string(),
                fmt_f64(q.standard.report.total_variation, 3),
                fmt_f64(q.fair.report.total_variation, 3),
                fmt_f64(q.standard.correlation, 3),
                fmt_f64(q.fair.correlation, 3),
            ]);
        }
        println!("{per_query}");

        // The Figure 1 scatter itself: average relative frequency per
        // similarity level, for the first few queries.
        let mut scatter = TextTable::new(
            format!(
                "{} (r = {r}): relative frequency by similarity (first 3 queries)",
                kind.name()
            ),
            &["query", "similarity", "points", "standard LSH", "fair LSH"],
        );
        for q in result.per_query.iter().take(3) {
            for (std_bucket, fair_bucket) in q
                .standard
                .profile
                .buckets()
                .iter()
                .zip(q.fair.profile.buckets().iter())
            {
                scatter.add_row(vec![
                    format!("{}", q.query),
                    fmt_f64(std_bucket.similarity, 2),
                    std_bucket.num_points.to_string(),
                    fmt_f64(std_bucket.mean_relative_frequency, 4),
                    fmt_f64(fair_bucket.mean_relative_frequency, 4),
                ]);
            }
        }
        println!("{scatter}");

        println!(
            "summary: mean TV standard = {:.3}, mean TV fair = {:.3}, mean corr standard = {:.3}, mean corr fair = {:.3}\n",
            result.mean_standard_tv(),
            result.mean_fair_tv(),
            result.mean_standard_correlation(),
            result.mean_fair_correlation()
        );

        // The engine's sampler against the same battery.
        let engine =
            run_engine_distribution(&workload, r, args.threads, args.repetitions, args.seed + 1);
        let mut table = TextTable::new(
            format!("{} (r = {r}): sharded engine vs uniform", kind.name()),
            &["query", "b_r", "TV engine", "chi2 p", "consistent"],
        );
        for q in &engine.per_query {
            table.add_row(vec![
                format!("{}", q.query),
                q.neighborhood_size.to_string(),
                fmt_f64(q.report.total_variation, 3),
                fmt_f64(q.report.chi_square_p_value(), 3),
                q.report.is_consistent_with_uniform(0.01).to_string(),
            ]);
        }
        println!("{table}");
        println!(
            "engine summary: mean TV sharded = {:.3} (fair LSH above: {:.3})\n",
            engine.mean_tv(),
            result.mean_fair_tv()
        );
    }
}
