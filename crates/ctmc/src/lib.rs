//! # churnbal-ctmc
//!
//! A generic finite continuous-time Markov chain (CTMC) engine.
//!
//! The paper analyses its load-balancing policies with regeneration-theory
//! recursions (Eqs. 4–5). Those recursions are *equivalent* to absorption
//! analysis of a CTMC whose states are `(queue sizes, in-transit load, work
//! states)`. This crate implements that analysis independently —
//! state-space exploration, expected time to absorption, and transient
//! distributions via uniformization — so the recursion code in
//! `churnbal-model` can be cross-validated against a structurally different
//! implementation of the same mathematics.
//!
//! Pipeline:
//!
//! 1. [`explore::explore`] enumerates the reachable state space from a
//!    successor function and produces a [`Chain`] (CSR transition matrix).
//! 2. [`absorb::expected_absorption_times`] solves the linear system for
//!    `E[T_absorb | start = x]` (Gauss–Seidel on the M-matrix, with a dense
//!    direct fallback for small chains).
//! 3. [`uniformization::absorption_cdf`] computes `P(T_absorb ≤ t)` on a
//!    time grid by uniformization with adaptive sub-stepping.

pub mod absorb;
pub mod chain;
pub mod explore;
pub mod moments;
pub mod uniformization;

pub use absorb::expected_absorption_times;
pub use chain::{Chain, StateIndex, ABSORBING};
pub use explore::{explore, Explored};
pub use moments::{absorption_moments, AbsorptionMoments};
pub use uniformization::{absorption_cdf, transient_distribution};
