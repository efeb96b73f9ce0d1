//! Optimal LBP-1 gain and sender/receiver selection.
//!
//! The paper chooses the gain `K` (equivalently the integer transfer size
//! `L = K·m_sender`, Eq. 1), the sender and the receiver to minimise the
//! mean overall completion time computed from the regenerative model. We
//! search over the integer `L` directly — the objective is only defined at
//! integer task counts — with a coarse grid followed by an exhaustive local
//! refinement, which is robust even where the objective is not perfectly
//! unimodal.

use crate::mean::Lbp1Evaluator;
use crate::rates::TwoNodeParams;
use crate::state::WorkState;

/// Result of the LBP-1 optimisation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lbp1Optimum {
    /// Sending node (0-based; `usize::MAX`-free: a no-transfer optimum
    /// reports sender 0 with `tasks = 0`).
    pub sender: usize,
    /// Receiving node.
    pub receiver: usize,
    /// Optimal number of tasks to ship at `t = 0`.
    pub tasks: u32,
    /// The corresponding gain `K = tasks / m_sender` (0 when the sender
    /// queue is empty).
    pub gain: f64,
    /// Minimised mean overall completion time (seconds).
    pub mean: f64,
}

/// Minimises the mean completion time over `L ∈ {0..=m_sender}` for a fixed
/// sender, returning `(L*, mean*)`.
#[must_use]
pub fn optimize_transfer(ev: &Lbp1Evaluator, sender: usize, initial: WorkState) -> (u32, f64) {
    let m_max = ev.workload()[sender];
    let eval = |l: u32| ev.mean(sender, l, initial);
    if m_max == 0 {
        return (0, eval(0));
    }
    // Coarse pass.
    let step = (m_max / 24).max(1);
    let mut best_l = 0u32;
    let mut best = f64::INFINITY;
    let mut l = 0u32;
    loop {
        let v = eval(l);
        if v < best {
            best = v;
            best_l = l;
        }
        if l == m_max {
            break;
        }
        l = (l + step).min(m_max);
    }
    // Exhaustive refinement around the coarse minimum.
    let lo = best_l.saturating_sub(step);
    let hi = (best_l + step).min(m_max);
    for l in lo..=hi {
        let v = eval(l);
        if v < best {
            best = v;
            best_l = l;
        }
    }
    (best_l, best)
}

/// Full LBP-1 optimisation: both orientations, all transfer sizes.
///
/// Returns the sender/receiver pair and gain minimising the model's mean
/// completion time from work state `initial` (the paper uses `(1,1)`).
#[must_use]
pub fn optimize_lbp1(params: &TwoNodeParams, m0: [u32; 2], initial: WorkState) -> Lbp1Optimum {
    let ev = Lbp1Evaluator::new(params, m0);
    let mut best: Option<Lbp1Optimum> = None;
    for (sender, &m_sender) in m0.iter().enumerate() {
        let (tasks, mean) = optimize_transfer(&ev, sender, initial);
        let gain = if m_sender == 0 {
            0.0
        } else {
            f64::from(tasks) / f64::from(m_sender)
        };
        let candidate = Lbp1Optimum {
            sender,
            receiver: 1 - sender,
            tasks,
            gain,
            mean,
        };
        let better = match &best {
            None => true,
            Some(b) => mean < b.mean,
        };
        if better {
            best = Some(candidate);
        }
    }
    best.expect("two senders evaluated")
}

/// Result of the deadline-probability optimisation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeadlineOptimum {
    /// Sending node.
    pub sender: usize,
    /// Receiving node.
    pub receiver: usize,
    /// Number of tasks to ship at `t = 0`.
    pub tasks: u32,
    /// The corresponding gain `K`.
    pub gain: f64,
    /// Maximised `P(T ≤ deadline)`.
    pub probability: f64,
}

/// Maximises `P(T ≤ deadline)` over the LBP-1 action space, using the
/// Eq. (5) distribution instead of the Eq. (4) mean — risk-sensitive
/// planning the paper's machinery enables but never exercises.
///
/// The CDF solve is much costlier than a mean solve, so the search
/// evaluates `grid_points + 1` evenly spaced transfer sizes per
/// orientation (11 is plenty in practice: the objective is smooth in `L`).
///
/// # Panics
/// Panics if `deadline` is not positive or `grid_points == 0`.
#[must_use]
pub fn optimize_lbp1_deadline(
    params: &TwoNodeParams,
    m0: [u32; 2],
    deadline: f64,
    initial: WorkState,
    grid_points: u32,
) -> DeadlineOptimum {
    assert!(
        deadline > 0.0 && deadline.is_finite(),
        "deadline must be positive"
    );
    assert!(grid_points > 0, "need at least one grid interval");
    let times = [deadline];
    let mut best: Option<DeadlineOptimum> = None;
    for sender in 0..2usize {
        let m_max = m0[sender];
        let mut seen = std::collections::HashSet::new();
        for g in 0..=grid_points {
            let l = (f64::from(g) / f64::from(grid_points) * f64::from(m_max)).round() as u32;
            if !seen.insert(l) {
                continue;
            }
            let cdf = crate::cdf::lbp1_cdf(params, m0, sender, l, initial, &times);
            let probability = cdf.values[0];
            let gain = if m_max == 0 {
                0.0
            } else {
                f64::from(l) / f64::from(m_max)
            };
            let candidate = DeadlineOptimum {
                sender,
                receiver: 1 - sender,
                tasks: l,
                gain,
                probability,
            };
            if best.as_ref().is_none_or(|b| probability > b.probability) {
                best = Some(candidate);
            }
        }
    }
    best.expect("grid evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::{DelayModel, TwoNodeParams};

    fn quick_params() -> TwoNodeParams {
        // Paper-shaped but smaller workloads solve fast.
        TwoNodeParams::new(
            [1.08, 1.86],
            [0.05, 0.05],
            [0.1, 0.05],
            DelayModel::per_task(0.02),
        )
    }

    #[test]
    fn optimum_is_the_grid_minimum() {
        let p = quick_params();
        let m0 = [30u32, 18];
        let ev = Lbp1Evaluator::new(&p, m0);
        let (l_star, v_star) = optimize_transfer(&ev, 0, WorkState::BOTH_UP);
        for l in 0..=m0[0] {
            let v = ev.mean(0, l, WorkState::BOTH_UP);
            assert!(v >= v_star - 1e-9, "L={l}: {v} < claimed optimum {v_star}");
        }
        assert!((ev.mean(0, l_star, WorkState::BOTH_UP) - v_star).abs() < 1e-12);
    }

    #[test]
    fn sender_is_the_loaded_node() {
        // With m = (30, 5), node 1 (index 0) must send toward the faster,
        // emptier node.
        let p = quick_params();
        let opt = optimize_lbp1(&p, [30, 5], WorkState::BOTH_UP);
        assert_eq!(opt.sender, 0);
        assert_eq!(opt.receiver, 1);
        assert!(opt.tasks > 0);
    }

    #[test]
    fn sender_flips_with_the_workload() {
        let p = quick_params();
        let opt = optimize_lbp1(&p, [5, 30], WorkState::BOTH_UP);
        assert_eq!(
            opt.sender, 1,
            "node 2 holds the load and the other node idles"
        );
        assert!(opt.tasks > 0);
    }

    #[test]
    fn churn_reduces_optimal_gain() {
        // The paper's central qualitative claim (§4, Fig. 3): under node
        // failure the optimum shifts to a smaller K than without failure.
        let with = quick_params();
        let without = with.without_failures();
        let m0 = [50u32, 30];
        let k_fail = optimize_lbp1(&with, m0, WorkState::BOTH_UP).gain;
        let k_nofail = optimize_lbp1(&without, m0, WorkState::BOTH_UP).gain;
        assert!(
            k_fail < k_nofail,
            "churn-aware optimum K={k_fail} should be below no-failure K={k_nofail}"
        );
    }

    #[test]
    fn deadline_optimum_is_a_probability_and_beats_the_corners() {
        let p = quick_params();
        let m0 = [20u32, 12];
        let deadline = 20.0;
        let opt = optimize_lbp1_deadline(&p, m0, deadline, WorkState::BOTH_UP, 10);
        assert!((0.0..=1.0).contains(&opt.probability));
        // It must beat (or tie) the no-transfer and full-transfer corners.
        for (s, l) in [(0usize, 0u32), (0, 20), (1, 12)] {
            let q = crate::cdf::lbp1_cdf(&p, m0, s, l, WorkState::BOTH_UP, &[deadline]).values[0];
            assert!(
                opt.probability >= q - 1e-9,
                "corner ({s},{l}) beats the optimum"
            );
        }
    }

    #[test]
    fn generous_deadline_makes_everything_certain() {
        // ~40x the mean completion time (the RK4 step count scales with
        // deadline · Λ_max, so keep the horizon moderate).
        let p = quick_params();
        let opt = optimize_lbp1_deadline(&p, [5, 3], 400.0, WorkState::BOTH_UP, 4);
        assert!(opt.probability > 0.999);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn nonpositive_deadline_rejected() {
        let p = quick_params();
        let _ = optimize_lbp1_deadline(&p, [5, 3], 0.0, WorkState::BOTH_UP, 4);
    }

    #[test]
    fn empty_sender_yields_zero_transfer() {
        let p = quick_params();
        let ev = Lbp1Evaluator::new(&p, [0, 10]);
        let (l, v) = optimize_transfer(&ev, 0, WorkState::BOTH_UP);
        assert_eq!(l, 0);
        assert!(v.is_finite());
    }

    #[test]
    fn optimum_mean_is_no_worse_than_doing_nothing() {
        let p = quick_params();
        let m0 = [25u32, 10];
        let opt = optimize_lbp1(&p, m0, WorkState::BOTH_UP);
        let nothing = Lbp1Evaluator::new(&p, m0).mean(0, 0, WorkState::BOTH_UP);
        assert!(opt.mean <= nothing + 1e-12);
    }
}
