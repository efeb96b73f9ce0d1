//! Variance of the overall completion time — an extension beyond the
//! paper, which reports only means and (in Fig. 5) CDFs.
//!
//! The same regeneration argument that yields Eq. (4) yields every moment
//! (see `churnbal_ctmc::moments`); here we expose the first two moments of
//! both policies' completion times, so a planner can trade expected speed
//! against predictability: under churn, shipping more load to a less
//! available node raises not only the mean but — much faster — the
//! variance.

use churnbal_ctmc::moments::absorption_moments;
use churnbal_ctmc::{Chain, StateIndex};

use crate::exact::{lbp2_transfer, two_node_chain};
use crate::rates::TwoNodeParams;
use crate::state::WorkState;

/// First two moments of a completion time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompletionMoments {
    /// Mean completion time (seconds).
    pub mean: f64,
    /// Standard deviation (seconds).
    pub std_dev: f64,
    /// Squared coefficient of variation (`variance / mean²`).
    pub cv2: f64,
}

/// The moments at the start row of a built chain; an empty workload
/// (no chain) completes at `T = 0`, whose cv² is taken as 0.
fn moments_at(built: Option<(Chain, StateIndex)>) -> CompletionMoments {
    built.map_or_else(CompletionMoments::default, |(chain, start)| {
        let mm = absorption_moments(&chain);
        CompletionMoments {
            mean: mm.mean[start],
            std_dev: mm.std_dev(start),
            cv2: mm.cv2(start),
        }
    })
}

/// Moments of the LBP-1 completion time (exact, via the CTMC).
///
/// # Panics
/// Panics on invalid transfer specs or a state space above 4M states.
#[must_use]
pub fn lbp1_moments(
    params: &TwoNodeParams,
    m0: [u32; 2],
    sender: usize,
    l: u32,
    initial: WorkState,
) -> CompletionMoments {
    let built = two_node_chain(params, m0, (sender, l), [0, 0], initial, 4_000_000);
    moments_at(built)
}

/// Moments of the LBP-2 completion time (exact, via the CTMC; the paper
/// has no analytic handle on LBP-2 at all).
///
/// `lf_on_failure[j]` is the Eq. 8 amount node `j` ships at each failure.
///
/// # Panics
/// Panics on invalid specs or when the state space exceeds `max_states`.
#[must_use]
pub fn lbp2_moments(
    params: &TwoNodeParams,
    m0: [u32; 2],
    lf_on_failure: [u32; 2],
    initial_transfer: Option<(usize, u32)>,
    initial: WorkState,
    max_states: usize,
) -> CompletionMoments {
    let transfer = lbp2_transfer(m0, initial_transfer);
    let built = two_node_chain(params, m0, transfer, lf_on_failure, initial, max_states);
    moments_at(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::{lbp1_cdf, CompletionCdf};
    use crate::mean::lbp1_mean;
    use crate::rates::{DelayModel, TwoNodeParams};

    fn params() -> TwoNodeParams {
        TwoNodeParams::new(
            [1.08, 1.86],
            [0.05, 0.05],
            [0.1, 0.05],
            DelayModel::per_task(0.05),
        )
    }

    #[test]
    fn zero_workload_has_zero_moments() {
        let p = params();
        let a = lbp1_moments(&p, [0, 0], 0, 0, WorkState::BOTH_UP);
        let b = lbp2_moments(&p, [0, 0], [2, 2], None, WorkState::BOTH_UP, 100_000);
        for m in [a, b] {
            assert_eq!(m.mean, 0.0);
            assert_eq!(m.std_dev, 0.0);
            assert_eq!(m.cv2, 0.0);
        }
    }

    #[test]
    fn mean_component_matches_eq4() {
        let p = params();
        let m = lbp1_moments(&p, [6, 4], 0, 2, WorkState::BOTH_UP);
        let eq4 = lbp1_mean(&p, [6, 4], 0, 2, WorkState::BOTH_UP);
        assert!((m.mean - eq4).abs() < 1e-7, "{} vs {eq4}", m.mean);
        assert!(m.std_dev > 0.0);
    }

    #[test]
    fn variance_matches_cdf_integration() {
        // E[T²] = ∫ 2t(1-F(t)) dt — check against the Eq. 5 CDF.
        let p = params();
        let times: Vec<f64> = (0..=4000).map(|i| f64::from(i) * 0.1).collect();
        let cdf: CompletionCdf = lbp1_cdf(&p, [5, 3], 0, 2, WorkState::BOTH_UP, &times);
        let mut second = 0.0;
        for i in 1..times.len() {
            let f0 = 2.0 * times[i - 1] * (1.0 - cdf.values[i - 1]);
            let f1 = 2.0 * times[i] * (1.0 - cdf.values[i]);
            second += 0.5 * (f0 + f1) * (times[i] - times[i - 1]);
        }
        let m = lbp1_moments(&p, [5, 3], 0, 2, WorkState::BOTH_UP);
        let var_cdf = second - m.mean * m.mean;
        let var = m.std_dev * m.std_dev;
        assert!(
            (var - var_cdf).abs() < 0.02 * var.max(1.0),
            "moments {var} vs cdf {var_cdf}"
        );
    }

    #[test]
    fn churn_inflates_variance_more_than_mean() {
        let with = params();
        let without = with.without_failures();
        let a = lbp1_moments(&with, [10, 6], 0, 3, WorkState::BOTH_UP);
        let b = lbp1_moments(&without, [10, 6], 0, 3, WorkState::BOTH_UP);
        assert!(a.mean > b.mean);
        assert!(a.std_dev > b.std_dev);
        assert!(
            a.cv2 > b.cv2,
            "churn should make completion relatively less predictable ({} vs {})",
            a.cv2,
            b.cv2
        );
    }

    #[test]
    fn lbp2_moments_reduce_to_lbp1_when_inactive() {
        let p = params();
        let a = lbp2_moments(
            &p,
            [5, 4],
            [0, 0],
            Some((0, 2)),
            WorkState::BOTH_UP,
            200_000,
        );
        let b = lbp1_moments(&p, [5, 4], 0, 2, WorkState::BOTH_UP);
        assert!((a.mean - b.mean).abs() < 1e-7);
        assert!((a.std_dev - b.std_dev).abs() < 1e-6);
    }
}
