//! Completion-time distribution — the ODE system of §2.1.2.
//!
//! Writing `p^s_x(t) = P(T ≤ t | start in state x)` for every lattice state
//! `x = (M1, M2, work state, transit)`, the smoothing/regeneration argument
//! of the paper yields the linear constant-coefficient system `ṗ = A₁p +
//! B₁u` (Eq. 5) — cell by cell, with `u` gathering the already-computed
//! neighbour cells. Mathematically this is the backward Kolmogorov equation
//! of the absorbing CTMC:
//!
//! ```text
//! ṗ_x(t) = −Λ_x p_x(t) + Σ_y r_{xy} p_y(t) + r_{x→done},    p_x(0) = 0.
//! ```
//!
//! We assemble the *entire* sparse system (every cell at once — numerically
//! identical to the paper's per-cell iteration, without the bookkeeping)
//! and integrate with classical RK4, stepping well inside the stability
//! bound `h < 2.78/Λ_max`. [`churnbal_ctmc::absorption_cdf`]
//! (uniformization) provides an independent check in the tests.

use churnbal_ctmc::{Chain, ABSORBING};

use crate::exact::two_node_chain;
use crate::rates::TwoNodeParams;
use crate::state::WorkState;

/// A completion-time CDF sampled on a time grid.
#[derive(Clone, Debug)]
pub struct CompletionCdf {
    /// Ascending sample times (seconds).
    pub times: Vec<f64>,
    /// `P(T ≤ times[i])`.
    pub values: Vec<f64>,
}

impl CompletionCdf {
    /// Evaluates the CDF at `t` by linear interpolation (0 before the first
    /// sample, last value after the final sample).
    #[must_use]
    pub fn eval(&self, t: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        if t <= self.times[0] {
            return if t < self.times[0] {
                0.0
            } else {
                self.values[0]
            };
        }
        if t >= *self.times.last().expect("non-empty") {
            return *self.values.last().expect("non-empty");
        }
        let hi = self.times.partition_point(|&x| x <= t);
        let lo = hi - 1;
        let w = (t - self.times[lo]) / (self.times[hi] - self.times[lo]);
        self.values[lo] + w * (self.values[hi] - self.values[lo])
    }

    /// Probability mass covered by the horizon (`P(T ≤ t_max)`).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.values.last().copied().unwrap_or(0.0)
    }
}

/// Mean completion time from a CDF: `E[T] = ∫ (1 − F(t)) dt`, trapezoidal
/// on the grid plus an exponential tail correction beyond the horizon.
///
/// # Panics
/// Panics if the CDF covers less than 50% of the mass (the tail
/// extrapolation would dominate) or the tail is not decaying.
#[must_use]
pub fn mean_from_cdf(cdf: &CompletionCdf) -> f64 {
    assert!(cdf.times.len() >= 2, "need at least two samples");
    assert!(
        cdf.coverage() > 0.5,
        "horizon too short: coverage {}",
        cdf.coverage()
    );
    // Head segment [0, t0]: survival is bounded by 1 - F(t0) there (F is
    // monotone), and equals it when the grid starts where mass already
    // accumulated (e.g. the degenerate T = 0 workload on a late grid).
    let mut mean = cdf.times[0] * (1.0 - cdf.values[0]);
    for i in 1..cdf.times.len() {
        let s0 = 1.0 - cdf.values[i - 1];
        let s1 = 1.0 - cdf.values[i];
        mean += 0.5 * (s0 + s1) * (cdf.times[i] - cdf.times[i - 1]);
    }
    let tail_mass = 1.0 - cdf.coverage();
    if tail_mass > 1e-12 {
        // Fit e^{-βt} to the last decade of survival values.
        let k = cdf.times.len();
        let (mut i0, i1) = (k.saturating_sub(8), k - 1);
        while 1.0 - cdf.values[i0] <= tail_mass {
            // Degenerate flat tail sample; widen backwards.
            assert!(i0 > 0, "cannot estimate tail decay — flat survival curve");
            i0 -= 1;
        }
        let s0 = 1.0 - cdf.values[i0];
        let s1 = tail_mass;
        let beta = (s0 / s1).ln() / (cdf.times[i1] - cdf.times[i0]);
        assert!(
            beta > 0.0,
            "survival curve is not decaying — extend the horizon"
        );
        mean += tail_mass / beta;
    }
    mean
}

/// Integrates the backward Kolmogorov system for `chain` and returns
/// `P(T ≤ t)` at each grid time for the single state `initial`.
///
/// `steps_per_unit_rate` controls accuracy: the internal RK4 step is
/// `1 / (steps_per_unit_rate · Λ_max)`; 4 is already well inside the RK4
/// stability region, 8 is the comfortable default.
///
/// # Panics
/// Panics on an empty/descending grid or out-of-range `initial`.
#[must_use]
pub fn cdf_from_chain(
    chain: &Chain,
    initial: usize,
    times: &[f64],
    steps_per_unit_rate: f64,
) -> Vec<f64> {
    assert!(!times.is_empty(), "empty time grid");
    assert!(initial < chain.num_states(), "initial state out of range");
    assert!(
        steps_per_unit_rate >= 2.0,
        "step control too coarse for RK4 stability"
    );
    let n = chain.num_states();
    // CSR views plus the absorption inflow vector.
    let mut absorb = vec![0.0f64; n];
    for (x, a) in absorb.iter_mut().enumerate() {
        for (t, r) in chain.transitions(x) {
            if t == ABSORBING {
                *a += r;
            }
        }
    }
    let lambda_max = chain.max_exit_rate().max(1e-9);
    let h_target = 1.0 / (steps_per_unit_rate * lambda_max);

    let mut f = vec![0.0f64; n];
    let mut k1 = vec![0.0f64; n];
    let mut k2 = vec![0.0f64; n];
    let mut k3 = vec![0.0f64; n];
    let mut k4 = vec![0.0f64; n];
    let mut tmp = vec![0.0f64; n];

    let deriv = |state: &[f64], out: &mut [f64]| {
        for x in 0..n {
            let mut acc = absorb[x] - chain.exit_rate(x) * state[x];
            for (t, r) in chain.transitions(x) {
                if t != ABSORBING {
                    acc += r * state[t];
                }
            }
            out[x] = acc;
        }
    };

    let mut out = Vec::with_capacity(times.len());
    let mut now = 0.0f64;
    for &target in times {
        assert!(target >= now, "time grid must be ascending from 0");
        let span = target - now;
        if span > 0.0 {
            let steps = (span / h_target).ceil().max(1.0) as usize;
            let h = span / steps as f64;
            for _ in 0..steps {
                deriv(&f, &mut k1);
                for x in 0..n {
                    tmp[x] = f[x] + 0.5 * h * k1[x];
                }
                deriv(&tmp, &mut k2);
                for x in 0..n {
                    tmp[x] = f[x] + 0.5 * h * k2[x];
                }
                deriv(&tmp, &mut k3);
                for x in 0..n {
                    tmp[x] = f[x] + h * k3[x];
                }
                deriv(&tmp, &mut k4);
                for x in 0..n {
                    f[x] += h / 6.0 * (k1[x] + 2.0 * k2[x] + 2.0 * k3[x] + k4[x]);
                    // Clamp tiny numerical excursions outside [0, 1].
                    f[x] = f[x].clamp(0.0, 1.0);
                }
            }
            now = target;
        }
        out.push(f[initial]);
    }
    out
}

/// Completion-time CDF of the LBP-1 dynamics: `sender` ships `l` of its
/// `m0[sender]` tasks at `t = 0`, the system starts in `initial`.
///
/// This regenerates the curves of the paper's Fig. 5.
#[must_use]
pub fn lbp1_cdf(
    params: &TwoNodeParams,
    m0: [u32; 2],
    sender: usize,
    l: u32,
    initial: WorkState,
    times: &[f64],
) -> CompletionCdf {
    let values = match two_node_chain(params, m0, (sender, l), [0, 0], initial, 4_000_000) {
        // Zero workload: T = 0, so P(T <= t) = 1 on the whole (t >= 0) grid.
        None => vec![1.0; times.len()],
        Some((chain, start)) => cdf_from_chain(&chain, start, times, 8.0),
    };
    CompletionCdf {
        times: times.to_vec(),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::{DelayModel, TwoNodeParams};

    fn grid(to: f64, n: usize) -> Vec<f64> {
        (0..=n).map(|i| to * i as f64 / n as f64).collect()
    }

    #[test]
    fn zero_workload_cdf_is_one_everywhere() {
        let p = TwoNodeParams::paper();
        let times = grid(10.0, 5);
        let cdf = lbp1_cdf(&p, [0, 0], 0, 0, WorkState::BOTH_UP, &times);
        assert!(cdf.values.iter().all(|&v| v == 1.0));
        assert!((mean_from_cdf(&cdf) - 0.0).abs() < 1e-12);
        // A grid that starts past t = 0 must not resurrect phantom mass in
        // the head segment of the mean integral.
        let late = lbp1_cdf(&p, [0, 0], 0, 0, WorkState::BOTH_UP, &[5.0, 10.0]);
        assert!((mean_from_cdf(&late) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn no_churn_single_node_is_erlang() {
        let p = TwoNodeParams::new(
            [2.0, 1.0],
            [0.0, 0.0],
            [0.0, 0.0],
            DelayModel::per_task(0.02),
        );
        let k = 4u32;
        let cdf = lbp1_cdf(&p, [k, 0], 0, 0, WorkState::BOTH_UP, &grid(10.0, 100));
        for (i, &t) in cdf.times.iter().enumerate() {
            let lt = 2.0 * t;
            let mut tail = 0.0;
            let mut term = 1.0f64;
            for j in 0..k {
                if j > 0 {
                    term *= lt / f64::from(j);
                }
                tail += term;
            }
            let expected = 1.0 - (-lt).exp() * tail;
            assert!(
                (cdf.values[i] - expected).abs() < 1e-6,
                "t={t}: {} vs {expected}",
                cdf.values[i]
            );
        }
    }

    #[test]
    fn cdf_is_monotone_and_within_unit_interval() {
        let p = TwoNodeParams::paper();
        let cdf = lbp1_cdf(&p, [8, 5], 0, 3, WorkState::BOTH_UP, &grid(80.0, 160));
        for w in cdf.values.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "monotonicity violated");
        }
        for &v in &cdf.values {
            assert!((0.0..=1.0).contains(&v));
        }
        assert!(cdf.coverage() > 0.95, "coverage {}", cdf.coverage());
    }

    #[test]
    fn rk4_matches_uniformization() {
        let p = TwoNodeParams::paper();
        let (chain, idx) = two_node_chain(&p, [7, 3], (0, 2), [0, 0], WorkState::BOTH_UP, 100_000)
            .expect("a non-empty workload");
        let times = grid(40.0, 40);
        let rk4 = cdf_from_chain(&chain, idx, &times, 8.0);
        let unif = churnbal_ctmc::absorption_cdf(&chain, idx, &times, 1e-12);
        for ((&t, &a), &b) in times.iter().zip(&rk4).zip(&unif) {
            assert!((a - b).abs() < 1e-6, "t={t}: rk4 {a} vs uniformization {b}");
        }
    }

    #[test]
    fn mean_from_cdf_matches_mean_model() {
        let p = TwoNodeParams::paper();
        let cdf = lbp1_cdf(&p, [6, 4], 0, 2, WorkState::BOTH_UP, &grid(400.0, 800));
        let mean_cdf = mean_from_cdf(&cdf);
        let mean_model = crate::mean::lbp1_mean(&p, [6, 4], 0, 2, WorkState::BOTH_UP);
        assert!(
            (mean_cdf - mean_model).abs() < 0.05,
            "cdf {mean_cdf} vs model {mean_model}"
        );
    }

    #[test]
    fn failure_shifts_cdf_right() {
        // P(T ≤ t) with churn must be ≤ without churn, for all t (Fig. 5).
        let fail = TwoNodeParams::paper();
        let nofail = TwoNodeParams::paper_no_failure();
        let times = grid(120.0, 60);
        let c_fail = lbp1_cdf(&fail, [25, 10], 0, 8, WorkState::BOTH_UP, &times);
        let c_nofail = lbp1_cdf(&nofail, [25, 10], 0, 8, WorkState::BOTH_UP, &times);
        for (i, &t) in times.iter().enumerate() {
            assert!(
                c_fail.values[i] <= c_nofail.values[i] + 1e-9,
                "churn CDF must lie below at t={t}"
            );
        }
    }

    #[test]
    fn eval_interpolates() {
        let cdf = CompletionCdf {
            times: vec![0.0, 1.0, 2.0],
            values: vec![0.0, 0.4, 0.8],
        };
        assert_eq!(cdf.eval(-1.0), 0.0);
        assert!((cdf.eval(0.5) - 0.2).abs() < 1e-12);
        assert!((cdf.eval(1.5) - 0.6).abs() < 1e-12);
        assert_eq!(cdf.eval(5.0), 0.8);
    }

    #[test]
    #[should_panic(expected = "horizon too short")]
    fn mean_rejects_uncovered_cdf() {
        let cdf = CompletionCdf {
            times: vec![0.0, 1.0],
            values: vec![0.0, 0.1],
        };
        let _ = mean_from_cdf(&cdf);
    }
}
