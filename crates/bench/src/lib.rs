//! Experiment harness reproducing the paper's evaluation (Section 6).
//!
//! The paper's evaluation has three figures and a running-cost discussion;
//! each has a binary in `src/bin/` that prints the corresponding table:
//!
//! | Experiment | Binary | Library entry point |
//! |---|---|---|
//! | Figure 1 — output distribution of standard vs fair LSH | `fig1_fairness` | [`figures::run_output_distribution`] |
//! | Figure 2 — unfairness of approximate-neighbourhood sampling | `fig2_approximate` | [`figures::run_adversarial_experiment`] |
//! | Figure 3 — cost ratio `b_S(q, cr)/b_S(q, r)` | `fig3_cost_ratio` | [`figures::run_cost_ratio`] |
//! | Section 6.3 cost discussion | `table_query_cost` | [`figures::run_query_cost`] |
//!
//! The binaries accept `--scale` (fraction of the paper-sized dataset),
//! `--repetitions` and `--seed` flags so that both a quick smoke run and a
//! paper-scale run are possible; the workspace README's "Reproduce the
//! paper's figures" section lists the invocations.
//!
//! Two more binaries check engine properties rather than paper figures:
//! `build_scaling` (parallel builds are bit-for-bit the serial build) and
//! `obs_overhead` (the 3 % budget of `fairnn-obs` instrumentation).
//! Performance of the served path is measured by the stand-alone
//! `servebench/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod workload;

pub use args::CommonArgs;
pub use workload::{SetWorkload, WorkloadKind};
