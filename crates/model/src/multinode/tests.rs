use crate::exact::{lbp1_mean_exact, lbp2_mean_exact, multinode_mean_exact};
use crate::rates::{DelayModel, MultiNodeParams, TwoNodeParams};
use crate::state::WorkState;

fn two_node() -> TwoNodeParams {
    MultiNodeParams::new(
        [1.08, 1.86],
        [0.05, 0.05],
        [0.1, 0.05],
        DelayModel::per_task(0.1),
    )
}

#[test]
fn zero_workload_mean_is_zero() {
    let t = multinode_mean_exact(&two_node(), [0, 0], &[], |_| vec![], 1000);
    assert_eq!(t, 0.0);
}

// The two-node entry points seed the search with every work state, the
// n-node one with all-up only: the chains differ, their answers must not.
#[test]
fn reduces_to_two_node_bridge_without_policy() {
    let p = two_node();
    let a = multinode_mean_exact(&p, [5, 3], &[], |_| vec![], 500_000);
    let b = lbp1_mean_exact(&p, [5, 3], 0, 0, WorkState::BOTH_UP);
    assert!((a - b).abs() < 1e-8, "{a} vs {b}");
}

#[test]
fn reduces_to_two_node_bridge_with_initial_flight() {
    let p = two_node();
    let a = multinode_mean_exact(&p, [3, 3], &[(1, 2)], |_| vec![], 500_000);
    let b = lbp1_mean_exact(&p, [5, 3], 0, 2, WorkState::BOTH_UP);
    assert!((a - b).abs() < 1e-8, "{a} vs {b}");
}

#[test]
fn reduces_to_two_node_lbp2_chain() {
    let p = two_node();
    let a = multinode_mean_exact(&p, [6, 2], &[], |j| vec![(1 - j, 2)], 2_000_000);
    let b = lbp2_mean_exact(&p, [6, 2], [2, 2], None, WorkState::BOTH_UP, 2_000_000);
    assert!((a - b).abs() < 1e-8, "{a} vs {b}");
}

#[test]
fn third_node_helps() {
    let delay = DelayModel::per_task(0.05);
    let two = MultiNodeParams::new([1.0; 2], [0.05; 2], [0.1; 2], delay);
    let three = MultiNodeParams::new([1.0; 3], [0.05; 3], [0.1; 3], delay);
    // Same 12-task total: two nodes split 6/6 (3 in flight), three
    // nodes split 4/5/3 (2 and 3 in flight).
    let t2 = multinode_mean_exact(&two, [6, 3], &[(1, 3)], |_| vec![], 500_000);
    let t3 = multinode_mean_exact(&three, [4, 3, 0], &[(1, 2), (2, 3)], |_| vec![], 500_000);
    assert!(t3 < t2, "a third worker should help: {t3} vs {t2}");
}

#[test]
fn failure_response_changes_the_mean() {
    let p = two_node();
    let passive = multinode_mean_exact(&p, [6, 2], &[], |_| vec![], 2_000_000);
    let active = multinode_mean_exact(&p, [6, 2], &[], |j| vec![(1 - j, 3)], 2_000_000);
    assert!((passive - active).abs() > 1e-6);
}

#[test]
#[should_panic(expected = "never recovers")]
fn invalid_params_rejected() {
    let _ = MultiNodeParams::new(
        [1.0, 1.0],
        [0.1, 0.0],
        [0.0, 0.0],
        DelayModel::per_task(0.1),
    );
}

#[test]
#[should_panic(expected = "service rate of node 1 must be positive")]
fn infinite_rate_rejected_at_three_nodes() {
    let _ = MultiNodeParams::new(
        [1.0, f64::INFINITY, 1.0],
        [0.05; 3],
        [0.1; 3],
        DelayModel::per_task(0.1),
    );
}
