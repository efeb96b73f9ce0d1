//! Extension: the multi-node generalisation the paper sketches in §1.
//!
//! Sweeps the node count (2–6, paper-like heterogeneous rates and churn)
//! and compares four policies by Monte-Carlo, plus an exact-CTMC check at
//! a small workload for n = 3:
//!
//! * no balancing,
//! * initial excess-load balancing only (churn-blind, Eqs. 6–7),
//! * n-node LBP-2 (initial + Eq. 8 failure compensation),
//! * n-node preemptive LBP-1 (availability-weighted shares, one shot).

use churnbal_bench::table::{f2, pm, TextTable};
use churnbal_bench::Args;
use churnbal_cluster::{
    run_replications, NetworkConfig, NoBalancing, NodeConfig, SimOptions, SystemConfig,
};
use churnbal_core::{InitialBalanceOnly, Lbp1Multi, Lbp2};
use churnbal_model::{multinode_mean_exact, DelayModel, MultiNodeParams};

fn system(n: usize, tasks_on_first: u32) -> SystemConfig {
    // Node 0 reliable and loaded; the rest alternate paper-like profiles.
    let mut nodes = vec![NodeConfig::reliable(1.08, tasks_on_first)];
    for i in 1..n {
        if i % 2 == 1 {
            nodes.push(NodeConfig::new(1.86, 0.05, 0.05, 0));
        } else {
            nodes.push(NodeConfig::new(1.08, 0.05, 0.1, 0));
        }
    }
    SystemConfig::new(nodes, NetworkConfig::exponential(0.02))
}

fn main() {
    let args = Args::parse();
    let reps = args.reps_or(400);

    println!("Extension — multi-node policies ({reps} MC reps, 160 tasks on node 1)\n");
    let mut t = TextTable::new([
        "n nodes",
        "no balancing",
        "initial only",
        "LBP-2",
        "LBP-1 multi",
    ]);
    for n in 2..=6 {
        let cfg = system(n, 160);
        let opts = SimOptions::default();
        let none = run_replications(&cfg, &|_| NoBalancing, reps, args.seed, args.threads, opts);
        let init = run_replications(
            &cfg,
            &|_| InitialBalanceOnly::new(1.0),
            reps,
            args.seed,
            args.threads,
            opts,
        );
        let lbp2 = run_replications(
            &cfg,
            &|_| Lbp2::new(1.0),
            reps,
            args.seed,
            args.threads,
            opts,
        );
        let multi = run_replications(
            &cfg,
            &|_| Lbp1Multi::new(1.0),
            reps,
            args.seed,
            args.threads,
            opts,
        );
        t.row([
            n.to_string(),
            pm(none.mean(), none.ci95()),
            pm(init.mean(), init.ci95()),
            pm(lbp2.mean(), lbp2.ci95()),
            pm(multi.mean(), multi.ci95()),
        ]);
        assert!(lbp2.mean() < none.mean(), "balancing must help at n = {n}");
    }
    t.print();

    // Exact cross-check at n = 3, small workload.
    println!("\nexact CTMC cross-check (n = 3, 12 tasks, no policy):");
    let params = MultiNodeParams::new(
        [1.08, 1.86, 1.08],
        [0.0, 0.05, 0.05],
        [0.0, 0.05, 0.1],
        DelayModel::per_task(0.02),
    );
    let exact = multinode_mean_exact(&params, [6, 4, 2], &[], |_| vec![], 2_000_000);
    let cfg = SystemConfig::new(
        vec![
            NodeConfig::reliable(1.08, 6),
            NodeConfig::new(1.86, 0.05, 0.05, 4),
            NodeConfig::new(1.08, 0.05, 0.1, 2),
        ],
        NetworkConfig::exponential(0.02),
    );
    let mc = run_replications(
        &cfg,
        &|_| NoBalancing,
        (reps * 10).max(2000),
        args.seed,
        args.threads,
        SimOptions::default(),
    );
    println!("  exact: {}   MC: {}", f2(exact), pm(mc.mean(), mc.ci95()));
    assert!(
        (mc.mean() - exact).abs() < 3.0 * mc.ci95(),
        "simulator disagrees with the exact 3-node model"
    );
    println!("\nshape check OK: n-node simulator validated against the exact model");
}
