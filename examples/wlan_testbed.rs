//! The paper's §4 test-bed session, end to end.
//!
//! ```text
//! cargo run --release --example wlan_testbed
//! ```
//!
//! Recreates the experimental campaign on the test-bed stand-in
//! (DESIGN.md, Substitutions): calibrate the node speeds and the channel
//! (Figs. 1–2), pick gains from the models, run both policies, and compare
//! with the paper's reported numbers.

use churnbal::cluster::testbed;
use churnbal::prelude::*;
use churnbal::stochastic::{fit, regression, OnlineStats};

fn main() {
    let mut rng = Xoshiro256pp::seed_from_u64(20060425);

    // --- Calibration (Figs. 1-2): estimate rates from "measurements" ---
    println!("== calibration ==");
    let crusoe = fit::exp_rate_mle(&testbed::sample_processing_times(1.08, 5000, &mut rng));
    let p4 = fit::exp_rate_mle(&testbed::sample_processing_times(1.86, 5000, &mut rng));
    println!("estimated processing rates: node 1 = {crusoe:.2} task/s, node 2 = {p4:.2} task/s");

    let ls: Vec<u32> = (1..=10).map(|i| i * 10).collect();
    let means: Vec<f64> = ls
        .iter()
        .map(|&l| {
            let mut s = OnlineStats::new();
            for d in testbed::sample_batch_delays(l, 30, &mut rng) {
                s.push(d);
            }
            s.mean()
        })
        .collect();
    let xs: Vec<f64> = ls.iter().map(|&l| f64::from(l)).collect();
    let line = regression::fit_line(&xs, &means);
    println!(
        "estimated delay: {:.4} s/task (channel probing, 30 realisations/point)\n",
        line.slope
    );

    // --- The experiment: (100, 60) tasks, both policies ---
    let config = testbed::testbed_config([100, 60]);
    println!("== experiment: workload (100, 60) over the WLAN stand-in ==");

    let lbp1 = Lbp1::optimal(&config);
    let e1 = run_replications(&config, &|_| lbp1, 60, 7, 0, SimOptions::default());
    println!(
        "LBP-1 (K = {:.2}): {:.2} ± {:.2} s   (paper Fig. 3 minimum: ≈ 117 s)",
        lbp1.gain(),
        e1.mean(),
        e1.ci95()
    );

    let k2 = Lbp2::optimal_initial_gain(&config);
    let e2 = run_replications(&config, &|_| Lbp2::new(k2), 60, 7, 0, SimOptions::default());
    println!(
        "LBP-2 (K = {k2:.2}): {:.2} ± {:.2} s   (paper: 109.17 s over 60 realisations)",
        e2.mean(),
        e2.ci95()
    );
    println!(
        "\nreactive beats preemptive at this delay (paper §4 finding): {}",
        e2.mean() < e1.mean()
    );

    // --- One traced realisation (Fig. 4 flavour) ---
    let mut p = Lbp2::new(k2);
    let out = simulate(
        &config,
        &mut p,
        99,
        SimOptions {
            record_trace: true,
            ..SimOptions::default()
        },
    );
    let tr = out.trace.expect("trace");
    println!(
        "\none realisation under LBP-2 (completion {:.1} s):",
        out.completion_time
    );
    for t in [0.0, 20.0, 40.0, 60.0, 80.0, 100.0] {
        if t > out.completion_time {
            break;
        }
        println!(
            "  t = {t:>5.1} s: queues = ({:>3}, {:>3})",
            tr.queue_at(0, t),
            tr.queue_at(1, t)
        );
    }
    println!(
        "  failures seen: {}, compensation transfers: {}",
        out.metrics.counters.failures,
        out.metrics.counters.transfers.saturating_sub(1)
    );
}
