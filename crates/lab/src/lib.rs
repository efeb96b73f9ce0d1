//! # churnbal-lab
//!
//! The declarative scenario & sweep subsystem: experiments as data
//! instead of `main()` functions.
//!
//! The paper's §4 is a handful of hard-coded parameter points; the lab
//! turns every experiment the suite can simulate into a serializable
//! [`Scenario`] — topology, per-node service/failure/recovery rates,
//! arrival process, delay model, policy, replications and seed — that can
//! be named, listed, dumped, edited, swept and reproduced:
//!
//! * [`toml`] — a hand-rolled TOML-subset document model, parser and
//!   serializer (the environment is offline; no serde). Canonical output,
//!   `parse ∘ serialize = id`, line-numbered errors.
//! * [`scenario`] — the [`Scenario`] spec and its TOML mapping; builds
//!   [`SystemConfig`](churnbal_cluster::SystemConfig)s and
//!   [`PolicySpec`](churnbal_core::PolicySpec)-driven policies on demand.
//! * [`registry`] — named presets: the paper baselines plus heterogeneous
//!   speeds, hot-spare recovery, correlated/cascading failures, bursty
//!   MMPP, diurnal and flash-crowd arrivals, volunteer churn.
//! * [`sweep`] — grid expansion over axes (gain, failure/recovery scale,
//!   arrival scale, delay, node count) and run options.
//! * [`experiment`] — the first-class experiment API: an
//!   [`ExperimentSpec`] (scenario × axes × **policy set** × options)
//!   executed in one scheduler pass, streaming rows to [`RowSink`]s
//!   (a [`LineSink`] writing CSV or JSON lines, or collect). One column
//!   table per row renders both formats. Multiple policies evaluate per grid
//!   point on **identical random-number streams**, so rows carry
//!   CRN-paired deltas with t-based 95% CIs; two-node closed points join
//!   the Eq. 4 theory mean ([`theory`]).
//! * [`cache`] — the one result store: a content-addressed file per
//!   `(point, policy)` cell, shared by `--cache DIR` runs and campaigns,
//!   so interrupted grids resume with byte-identical output.
//! * [`campaign`] — a directory of specs run as one unit with adaptive
//!   sequential stopping over the cell cache.
//! * [`cli`] — the `churnbal-lab` binary:
//!   `list | show | run | sweep | compare | stats | campaign | report`
//!   (`stats` is a one-point observability deep dive: counters, telemetry
//!   quantiles, runtime).
//!
//! Experiments and campaigns own no execution of their own: a private
//! `cells` module owns the `(grid point, policy)` cells both are made of.
//! It expands the grid, resolves and validates each cell's policy, keys
//! and replays cells from the cache, schedules the rest on
//! [`churnbal_cluster::exec::run_grid`] as one job per cell, and stores
//! what ran.
//!
//! ```
//! use churnbal_core::PolicySpec;
//! use churnbal_lab::{registry, Experiment, ExperimentSpec, PolicyEntry, RunOptions};
//!
//! let scenario = registry::get("paper-fig5").expect("registered");
//! let policies = ["lbp1-optimal", "none"]
//!     .map(|n| PolicyEntry::named(n, PolicySpec::parse(n, &scenario.policy).expect("known")))
//!     .to_vec();
//! let result = Experiment::new(ExperimentSpec::compare(
//!     scenario,
//!     Vec::new(),
//!     policies,
//!     RunOptions { reps: Some(4), threads: 2, ..Default::default() },
//! ))
//! .collect()
//! .expect("valid experiment");
//! // One row per (grid point, policy); the second policy's row carries a
//! // CRN-paired delta against the first.
//! assert_eq!(result.rows.len(), 2);
//! assert!(result.rows[1].delta.is_some());
//! ```

pub mod cache;
pub mod campaign;
mod cells;
pub mod cli;
pub mod experiment;
pub mod registry;
pub mod scenario;
pub mod sweep;
pub mod theory;
pub mod toml;

pub use campaign::{
    Campaign, CampaignRunOptions, CampaignRunReport, CampaignSpec, CellVerdict, StoppingRule,
};
pub use experiment::{
    probe_jsonl_row, CollectSink, Experiment, ExperimentResult, ExperimentRow, ExperimentSchema,
    ExperimentSpec, LineSink, OutputFormat, PairedDelta, PolicyEntry, RowSink,
};
pub use scenario::{
    ArrivalsSpec, NetworkSpec, NodeSpec, Scenario, ScenarioError, ScenarioErrorKind, TopologySpec,
};
pub use sweep::{apply_axis, expand_grid, Axis, AxisParam, RunOptions};
