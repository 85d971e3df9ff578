//! Section 6.3 companion experiment: the per-query work of each sampler.
//!
//! The paper discusses the additional computational cost of guaranteeing
//! fairness but does not tabulate per-structure costs; this binary makes the
//! comparison explicit by measuring, on the same workload, the per-query
//! bucket entries read, similarity computations, wall-clock time and `⊥`
//! rate of: the exact scan, standard LSH, naive fair LSH, the Section 3
//! r-NNS structure, the Section 4 r-NNIS structure and the two-level
//! sampler of the serving engine.
//!
//! Usage: `cargo run -p fairnn-bench --release --bin table_query_cost --
//!         [--scale 0.25] [--repetitions 20] [--queries 10]`

#![forbid(unsafe_code)]

use fairnn_bench::figures::run_query_cost;
use fairnn_bench::{CommonArgs, SetWorkload, WorkloadKind};
use fairnn_stats::{table::fmt_f64, TextTable};

fn main() {
    let mut args = CommonArgs::from_env();
    // Per-query repetitions; the default Figure 1 count would be overkill here.
    if args.repetitions > 200 {
        args.repetitions = 20;
    }
    println!("Query-cost comparison (Section 6.3 companion)");
    println!(
        "scale = {}, repetitions per query = {}, queries = {}, seed = {}{}\n",
        args.scale,
        args.repetitions,
        args.queries,
        args.seed,
        args.engine_suffix()
    );

    for (kind, r) in [(WorkloadKind::LastFm, 0.2), (WorkloadKind::MovieLens, 0.2)] {
        let workload = SetWorkload::generate(kind, args.scale, args.queries, args.seed);
        println!(
            "{} — {} users, {} queries, r = {r}",
            kind.name(),
            workload.dataset.len(),
            workload.queries.len()
        );
        let costs = run_query_cost(&workload, r, args.repetitions, args.seed + 7);
        let mut table = TextTable::new(
            format!("{}: mean per-query work", kind.name()),
            &[
                "sampler",
                "entries",
                "similarity evals",
                "time (us)",
                "bottom rate",
            ],
        );
        for c in costs {
            table.add_row(vec![
                c.name.to_string(),
                fmt_f64(c.mean_entries, 1),
                fmt_f64(c.mean_distance_computations, 1),
                fmt_f64(c.mean_micros, 1),
                fmt_f64(c.failure_rate, 3),
            ]);
        }
        println!("{table}");
    }
}
