//! Figure 3 reproduction: the additional cost factor `b_S(q, cr)/b_S(q, r)`.
//!
//! All fair data structures in the paper carry an additive
//! `Õ(b_S(q, cr)/b_S(q, r))` term in their query time. This binary measures
//! that ratio exactly (by linear scan) on both synthetic datasets for
//! `r ∈ {0.15, 0.2, 0.25}` and `c ∈ {1/5, 1/4, 1/3, 1/2, 2/3}`, matching the
//! grid of the paper's Figure 3.
//!
//! Usage: `cargo run -p fairnn-bench --release --bin fig3_cost_ratio --
//!         [--scale 0.25] [--queries 10] [--seed 42] [--threads 1]`
//! (`--threads` distributes the exact `(r, c)` grid over workers without
//! changing the result.)

#![forbid(unsafe_code)]

use fairnn_bench::figures::run_cost_ratio_threaded;
use fairnn_bench::{CommonArgs, SetWorkload, WorkloadKind};
use fairnn_stats::{table::fmt_f64, TextTable};

fn main() {
    let args = CommonArgs::from_env();
    println!("Figure 3 — cost ratio b_S(q, cr) / b_S(q, r)");
    println!(
        "scale = {}, queries = {}, seed = {}{}\n",
        args.scale,
        args.queries,
        args.seed,
        args.engine_suffix()
    );

    let rs = [0.15, 0.2, 0.25];
    let cs = [0.2, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0];

    for kind in [WorkloadKind::LastFm, WorkloadKind::MovieLens] {
        let workload = SetWorkload::generate(kind, args.scale, args.queries, args.seed);
        println!(
            "{} — {} users, {} queries",
            kind.name(),
            workload.dataset.len(),
            workload.queries.len()
        );
        let rows =
            run_cost_ratio_threaded(&workload.dataset, &workload.queries, &rs, &cs, args.threads);
        let mut table = TextTable::new(
            format!(
                "{}: ratio of |similarity >= c*r| to |similarity >= r|",
                kind.name()
            ),
            &["r", "c", "mean ratio", "median", "max"],
        );
        for row in rows {
            table.add_row(vec![
                fmt_f64(row.r, 2),
                fmt_f64(row.c, 2),
                fmt_f64(row.ratio.mean, 1),
                fmt_f64(row.ratio.median, 1),
                fmt_f64(row.ratio.max, 1),
            ]);
        }
        println!("{table}");
    }
}
