use crate::exact::{lbp1_mean_exact, lbp2_mean_exact, two_node_chain};
use crate::mean::{lbp1_mean, Lbp1Evaluator};
use crate::rates::{DelayModel, TwoNodeParams};
use crate::state::WorkState;

fn small_params() -> TwoNodeParams {
    TwoNodeParams::new(
        [1.08, 1.86],
        [0.05, 0.05],
        [0.1, 0.05],
        DelayModel::per_task(0.1),
    )
}

#[test]
fn zero_workload_means_are_zero() {
    let p = small_params();
    assert_eq!(lbp1_mean_exact(&p, [0, 0], 0, 0, WorkState::BOTH_UP), 0.0);
    assert_eq!(
        lbp2_mean_exact(&p, [0, 0], [3, 3], None, WorkState::BOTH_UP, 1000),
        0.0
    );
}

#[test]
fn recursion_and_ctmc_agree_without_transfer() {
    let p = small_params();
    for m0 in [[3u32, 2], [5, 0], [0, 4]] {
        let rec = lbp1_mean(&p, m0, 0, 0, WorkState::BOTH_UP);
        let exact = lbp1_mean_exact(&p, m0, 0, 0, WorkState::BOTH_UP);
        assert!(
            (rec - exact).abs() < 1e-8,
            "m0={m0:?}: recursion {rec} vs ctmc {exact}"
        );
    }
}

#[test]
fn recursion_and_ctmc_agree_with_transfer() {
    let p = small_params();
    let m0 = [6u32, 3];
    for l in [1u32, 3, 6] {
        let rec = lbp1_mean(&p, m0, 0, l, WorkState::BOTH_UP);
        let exact = lbp1_mean_exact(&p, m0, 0, l, WorkState::BOTH_UP);
        assert!(
            (rec - exact).abs() < 1e-8,
            "l={l}: recursion {rec} vs ctmc {exact}"
        );
    }
}

#[test]
fn recursion_and_ctmc_agree_from_down_states() {
    let p = small_params();
    let ev = Lbp1Evaluator::new(&p, [4, 4]);
    for state in [
        WorkState::new(false, true),
        WorkState::new(true, false),
        WorkState::new(false, false),
    ] {
        let rec = ev.mean(0, 2, state);
        let exact = lbp1_mean_exact(&p, [4, 4], 0, 2, state);
        assert!((rec - exact).abs() < 1e-8, "{state:?}: {rec} vs {exact}");
    }
}

#[test]
fn reverse_direction_agrees_too() {
    let p = small_params();
    let rec = lbp1_mean(&p, [2, 7], 1, 4, WorkState::BOTH_UP);
    let exact = lbp1_mean_exact(&p, [2, 7], 1, 4, WorkState::BOTH_UP);
    assert!((rec - exact).abs() < 1e-8, "{rec} vs {exact}");
}

#[test]
fn lbp2_chain_reduces_to_lbp1_when_lf_is_zero() {
    let p = small_params();
    let a = lbp2_mean_exact(
        &p,
        [4, 3],
        [0, 0],
        Some((0, 2)),
        WorkState::BOTH_UP,
        100_000,
    );
    let b = lbp1_mean_exact(&p, [4, 3], 0, 2, WorkState::BOTH_UP);
    assert!((a - b).abs() < 1e-8, "{a} vs {b}");
}

#[test]
fn lbp2_failure_transfers_change_the_answer() {
    let p = small_params();
    let without = lbp2_mean_exact(&p, [6, 2], [0, 0], None, WorkState::BOTH_UP, 200_000);
    let with = lbp2_mean_exact(&p, [6, 2], [2, 2], None, WorkState::BOTH_UP, 200_000);
    assert!((without - with).abs() > 1e-6, "LF transfers must matter");
}

#[test]
fn lbp2_flight_clamping_bounds_state_space() {
    // Even with absurd LF the queue clamp keeps things finite.
    let p = small_params();
    let v = lbp2_mean_exact(&p, [3, 3], [100, 100], None, WorkState::BOTH_UP, 500_000);
    assert!(v.is_finite() && v > 0.0);
}

#[test]
fn chain_size_is_as_expected_for_no_churn() {
    let p = TwoNodeParams::paper_no_failure();
    let (chain, _) = two_node_chain(&p, [3, 2], (0, 0), [0, 0], WorkState::BOTH_UP, 10_000)
        .expect("a non-empty workload");
    // (3+1)*(2+1) cells minus the absorbing (0,0) cell, one work state.
    assert_eq!(chain.num_states(), 11);
}
