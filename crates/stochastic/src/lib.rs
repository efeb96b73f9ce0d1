//! # churnbal-stochastic
//!
//! Reproducible randomness and statistics for the `churnbal` suite.
//!
//! The crate provides:
//!
//! * [`rng`] — a self-contained xoshiro256++ PRNG with SplitMix64 seeding and
//!   a [`rng::StreamFactory`] that derives *independent, replayable* streams
//!   (one per Monte-Carlo replication / per stochastic process), so results
//!   are bit-identical regardless of how many worker threads consume them.
//! * [`dist`] — the distributions the paper's model uses (exponential above
//!   all) plus richer ones used by the test-bed simulator.
//! * [`stats`] — Welford online moments, confidence intervals and mergeable
//!   summaries for parallel reduction.
//! * [`histogram`] / [`ecdf`] — empirical density and distribution estimates
//!   (Figs. 1–2 of the paper), with a Kolmogorov–Smirnov distance, plus the
//!   log-bucketed [`LogHistogram`] the observability layer merges across
//!   replications with exact integer bucket math.
//! * [`regression`] — ordinary least-squares line fit (Fig. 2, mean transfer
//!   delay vs. batch size).
//! * [`fit`] — moment/MLE fitting of exponential laws to samples.
//! * [`digest`] — FNV-1a fingerprints of result vectors, the currency of
//!   the suite's pinned-scenario regression gates and `perfreport`.
//!
//! Everything is `no_std`-shaped plain Rust with zero runtime dependencies;
//! determinism across platforms is part of the contract and is covered by
//! tests.

pub mod digest;
pub mod dist;
pub mod ecdf;
pub mod fit;
pub mod histogram;
pub mod regression;
pub mod rng;
pub mod stats;

pub use digest::{digest_f64s, fnv1a_bytes, Fnv1a};
pub use dist::{Deterministic, Erlang, Exponential, Sample, ShiftedExponential, Uniform};
pub use ecdf::Ecdf;
pub use histogram::{Histogram, LogHistogram};
pub use rng::{BatchedRng, SplitMix64, StreamFactory, Xoshiro256pp, RNG_BATCH};
pub use stats::{
    paired_comparison, t_ci95_half_width, t_critical_95, OnlineStats, PairedComparison,
};
