//! # churnbal_bench
//!
//! The experiment harness: one binary per table/figure of Dhakal et al.
//! (IPDPS 2006), §4, plus ablation studies. Each binary regenerates the
//! corresponding series/rows and prints them next to the paper's reported
//! values:
//!
//! ```text
//! cargo run -p churnbal_bench --release --bin fig1   # … fig2 … fig5
//! cargo run -p churnbal_bench --release --bin table1 # … table2, table3
//! cargo run -p churnbal_bench --release --bin ablation_gain
//! cargo run -p churnbal_bench --release --bin ablation_eq8
//! cargo run -p churnbal_bench --release --bin ablation_sender
//! cargo run -p churnbal_bench --release --bin all    # quick smoke of everything
//! ```
//!
//! Common flags: `--reps N` (replication count), `--seed S`, `--quick`
//! (cheap settings for smoke runs).
//!
//! The `perfreport` binary times the table of rows in [`perf`] — engine
//! workloads, execution shapes and the analytic kernels — with pinned
//! output digests and gates, and writes the `BENCH_*.json` report.

pub mod args;
pub mod perf;
pub mod presets;
pub mod table;

pub use args::Args;
