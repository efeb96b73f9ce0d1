//! Integration: beyond two nodes. The paper claims the theory "can be
//! extended to a multi-node system in a straightforward way" (§1); the
//! simulator and the Eq. 6–8 machinery are n-node already, and the exact
//! CTMC validates them at n = 3.

use churnbal::model::{multinode_mean_exact, MultiNodeParams};
use churnbal::prelude::*;

/// Exact 3-node no-policy completion time vs Monte-Carlo.
#[test]
fn three_node_no_policy_matches_exact_ctmc() {
    let nodes = [
        NodeConfig::new(1.0, 0.05, 0.1, 6),
        NodeConfig::new(2.0, 0.05, 0.05, 4),
        NodeConfig::reliable(1.5, 5),
    ];
    let config = SystemConfig::new(nodes.to_vec(), NetworkConfig::exponential(0.05));

    let params = MultiNodeParams::new(
        nodes.map(|n| n.service_rate),
        nodes.map(|n| n.failure_rate),
        nodes.map(|n| n.recovery_rate),
        DelayModel::per_task(0.05),
    );
    let exact = multinode_mean_exact(&params, [6, 4, 5], &[], |_| vec![], 1_000_000);

    let mc = run_replications(&config, &|_| NoBalancing, 6000, 3, 0, SimOptions::default());
    assert!(
        (mc.mean() - exact).abs() < 3.0 * mc.ci95(),
        "3-node exact {exact:.3} vs MC {:.3} ± {:.3}",
        mc.mean(),
        mc.ci95()
    );
}

/// Eq. 6–7 initial balancing at n = 3 moves load toward fast idle nodes
/// and helps.
#[test]
fn three_node_lbp2_beats_no_balancing() {
    let config = SystemConfig::new(
        vec![
            NodeConfig::new(1.0, 0.05, 0.1, 120),
            NodeConfig::new(2.0, 0.05, 0.05, 0),
            NodeConfig::reliable(1.5, 0),
        ],
        NetworkConfig::exponential(0.02),
    );
    let reps = 1500;
    let none = run_replications(&config, &|_| NoBalancing, reps, 7, 0, SimOptions::default());
    let lbp2 = run_replications(
        &config,
        &|_| Lbp2::new(1.0),
        reps,
        7,
        0,
        SimOptions::default(),
    );
    assert!(
        lbp2.mean() < none.mean() * 0.75,
        "3-node LBP-2 {:.2} should clearly beat no-balancing {:.2}",
        lbp2.mean(),
        none.mean()
    );
}

/// The Eq. 7 partition at n = 3 sends more of the excess to the node with
/// the smaller *relative* load `m/λ_d` (observable through processed-task
/// counts). Note the receivers must hold some load: with both receivers
/// empty, Eq. 6 degenerates and the split is uniform by convention.
#[test]
fn partition_prefers_fast_receivers_in_simulation() {
    let config = SystemConfig::new(
        vec![
            NodeConfig::reliable(1.0, 150),
            NodeConfig::reliable(3.0, 30), // relative load 10
            NodeConfig::reliable(1.0, 30), // relative load 30 -> receives less
        ],
        NetworkConfig::exponential(0.01),
    );
    let mut policy = InitialBalanceOnly::new(1.0);
    let out = simulate(&config, &mut policy, 5, SimOptions::default());
    assert!(out.completed);
    assert!(
        out.metrics.processed_per_node[1] > out.metrics.processed_per_node[2],
        "fast node should receive (and process) more of the excess: {:?}",
        out.metrics.processed_per_node
    );
}

/// Five-node volunteer-grid smoke: dedicated + churning volunteers, LBP-2
/// completes and uses the volunteers.
#[test]
fn five_node_volunteer_grid_smoke() {
    let config = SystemConfig::new(
        vec![
            NodeConfig::reliable(2.0, 100),
            NodeConfig::reliable(1.5, 80),
            NodeConfig::new(1.2, 1.0 / 15.0, 1.0 / 10.0, 0),
            NodeConfig::new(1.2, 1.0 / 15.0, 1.0 / 10.0, 0),
            NodeConfig::new(1.0, 1.0 / 10.0, 1.0 / 10.0, 0),
        ],
        NetworkConfig::exponential(0.05),
    );
    let mut policy = Lbp2::new(1.0);
    let out = simulate(&config, &mut policy, 9, SimOptions::default());
    assert!(out.completed);
    let volunteer_work: u64 = out.metrics.processed_per_node[2..].iter().sum();
    assert!(volunteer_work > 0, "volunteers must contribute");
}
