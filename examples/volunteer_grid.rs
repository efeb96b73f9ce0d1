//! Volunteer computing ("SETI@home"-style), the scenario that motivates
//! the paper's introduction: a mix of dedicated and non-dedicated nodes,
//! where the non-dedicated ones churn aggressively (owners reclaim their
//! desktops), balanced with the n-node LBP-2 machinery.
//!
//! ```text
//! cargo run --release --example volunteer_grid
//! ```
//!
//! The system comes from the scenario registry's `volunteer-grid` preset
//! (`churnbal-lab show volunteer-grid` prints it as TOML); the ablation
//! is one [`Experiment`] over a three-policy set, so every policy sees
//! identical churn sample paths and the deltas are CRN-paired.
//! Equivalent to
//! `churnbal-lab compare volunteer-grid --policies none,initial-only,lbp2`.

use churnbal::lab::{registry, ExperimentSpec, PolicyEntry, RunOptions};
use churnbal::prelude::*;

fn main() {
    let scenario = registry::get("volunteer-grid").expect("registered preset");
    let config = scenario.system_config().expect("preset is valid");
    let total = config.initial_total_tasks();
    println!(
        "volunteer grid: 2 dedicated + {} volunteer nodes, {total} tasks on the servers",
        config.num_nodes() - 2
    );
    println!(
        "aggregate speed: {:.1} task/s nominal, {:.2} task/s availability-weighted\n",
        config.nodes.iter().map(|n| n.service_rate).sum::<f64>(),
        config
            .nodes
            .iter()
            .map(|n| n.service_rate * n.availability())
            .sum::<f64>()
    );

    // One experiment, three policies, identical churn sample paths:
    // servers-only hoarding as the baseline, then one-shot balancing,
    // then full LBP-2 (the preset's own policy).
    let policies = vec![
        PolicyEntry::named("no balancing (servers only)", PolicySpec::NoBalancing),
        PolicyEntry::named(
            "initial balancing only",
            PolicySpec::InitialBalanceOnly { gain: 1.0 },
        ),
        PolicyEntry::named("LBP-2 (initial + Eq. 8)", scenario.policy.clone()),
    ];
    let result = Experiment::new(ExperimentSpec::compare(
        scenario,
        Vec::new(),
        policies,
        RunOptions {
            threads: 0,
            ..RunOptions::default()
        },
    ))
    .collect()
    .expect("volunteer-grid comparison runs");

    println!(
        "{:<30} {:>12} {:>10} {:>14} {:>16}",
        "policy", "mean (s)", "±95% CI", "Δ vs none (s)", "tasks shipped"
    );
    for row in &result.rows {
        let delta = row.delta.expect("comparisons carry paired deltas");
        let d = if row.policy_index == 0 {
            "baseline".to_string()
        } else {
            format!("{:+.2} ± {:.2}", delta.mean_delta, delta.ci95_half_width)
        };
        println!(
            "{:<30} {:>12.2} {:>10.2} {:>14} {:>16.1}",
            row.policy,
            row.mean_completion,
            row.ci95,
            d,
            row.per_rep(row.counters.tasks_shipped as f64)
        );
    }

    let (none, init, lbp2) = (&result.rows[0], &result.rows[1], &result.rows[2]);
    let speedup = none.mean_completion / lbp2.mean_completion;
    println!("\nLBP-2 uses the volunteers despite churn: {speedup:.2}x faster than servers-only");
    assert!(
        lbp2.mean_completion < none.mean_completion,
        "balancing must beat hoarding"
    );
    assert!(
        lbp2.mean_completion <= init.mean_completion + 3.0,
        "failure compensation should not lose to initial-only"
    );
}
