//! Figure 2 reproduction: unfairness of the *approximate neighbourhood*
//! notion on the Section 6.2 adversarial instance.
//!
//! The instance contains the sets `X` (similarity 0.5, isolated), `Y`
//! (similarity 0.6, surrounded by 987 near-identical sets) and `Z`
//! (similarity 0.9). Sampling uniformly from the approximate neighbourhood
//! `S'` makes `X` far more likely to be reported than `Y`, although `Y` is
//! more similar to the query — the paper reports a factor above 50.
//!
//! Usage: `cargo run -p fairnn-bench --release --bin fig2_approximate --
//!         [--repetitions 2000] [--queries 20] [--seed 42] [--threads 1]`
//! (`--queries` is reused as the number of independent builds; `--threads`
//! distributes the builds over workers without changing the result.)

#![forbid(unsafe_code)]

use fairnn_bench::figures::run_adversarial_experiment_threaded;
use fairnn_bench::CommonArgs;
use fairnn_stats::{table::fmt_f64, Summary, TextTable};

fn main() {
    let args = CommonArgs::from_env();
    let builds = args.queries.max(100);
    println!("Figure 2 — approximate neighbourhood sampling on the adversarial instance");
    println!(
        "builds = {builds}, repetitions per build = {}, seed = {}{}\n",
        args.repetitions,
        args.seed,
        args.engine_suffix()
    );

    let result =
        run_adversarial_experiment_threaded(builds, args.repetitions, args.seed, args.threads);

    let mut table = TextTable::new(
        "Empirical sampling probabilities (quartiles over builds)",
        &["set", "similarity", "mean", "q25", "median", "q75"],
    );
    let mut add = |name: &str, sim: f64, s: &Summary| {
        table.add_row(vec![
            name.to_string(),
            fmt_f64(sim, 2),
            fmt_f64(s.mean, 4),
            fmt_f64(s.q25, 4),
            fmt_f64(s.median, 4),
            fmt_f64(s.q75, 4),
        ]);
    };
    add("X", 0.5, &result.x_probability);
    add("Y", 0.6, &result.y_probability);
    add("Z", 0.9, &result.z_probability);
    println!("{table}");

    println!(
        "X is sampled {} as often as Y (paper: more than 50x), despite Y being more similar to the query.",
        if result.x_over_y.is_finite() {
            format!("{:.1}x", result.x_over_y)
        } else {
            "infinitely more".to_string()
        }
    );
}
