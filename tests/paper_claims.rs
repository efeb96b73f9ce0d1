//! Integration: the qualitative claims of the paper's §4–§5, each as a
//! falsifiable test over the full stack (model + policies + simulator).

use churnbal::prelude::*;

/// §4/Fig. 3: under churn the optimal gain shrinks — *when the transfer
/// flows toward the less available node* (node 2 here, availability 1/2
/// vs node 1's 2/3), which is the configuration of every attenuation
/// statement in the paper. When the transfer flows the other way (toward
/// the more reliable node), availability-weighting works in reverse and
/// churn *raises* the optimal transfer — a refinement the paper's Table 1
/// data quietly contains (its (100,200) row has K* = 0.15 where the
/// no-failure balance point is ≈ 0.05). Both directions are asserted.
#[test]
fn churn_attenuates_gain_across_workloads() {
    for m0 in [[100u32, 60], [200, 100], [200, 50]] {
        let config = SystemConfig::paper(m0);
        let params = model_params(&config);
        let churn = optimize_lbp1(&params, m0, WorkState::BOTH_UP);
        let clean = optimize_lbp1(&params.without_failures(), m0, WorkState::BOTH_UP);
        assert_eq!(
            churn.sender, 0,
            "{m0:?}: node 1 holds the load and must send"
        );
        assert!(
            churn.gain <= clean.gain + 1e-9,
            "{m0:?}: churn K* {} should not exceed no-failure K* {} (receiver is flaky)",
            churn.gain,
            clean.gain
        );
    }
    for m0 in [[100u32, 200], [50, 200]] {
        let config = SystemConfig::paper(m0);
        let params = model_params(&config);
        let churn = optimize_lbp1(&params, m0, WorkState::BOTH_UP);
        let clean = optimize_lbp1(&params.without_failures(), m0, WorkState::BOTH_UP);
        assert_eq!(
            churn.sender, 1,
            "{m0:?}: node 2 holds the load and must send"
        );
        assert!(
            churn.gain >= clean.gain - 1e-9,
            "{m0:?}: churn K* {} should not drop below no-failure K* {} (receiver is reliable)",
            churn.gain,
            clean.gain
        );
    }
}

/// §4 (Fig. 3 vs LBP-2 paragraph): at the paper's 0.02 s/task delay,
/// reactive LBP-2 beats preemptive LBP-1.
#[test]
fn lbp2_wins_at_small_delay() {
    let m0 = [100u32, 60];
    let config = SystemConfig::paper(m0);
    let lbp1 = Lbp1::optimal(&config);
    let reps = 2000;
    let a = run_replications(&config, &|_| lbp1, reps, 31, 0, SimOptions::default());
    let k = Lbp2::optimal_initial_gain(&config);
    let b = run_replications(
        &config,
        &|_| Lbp2::new(k),
        reps,
        31,
        0,
        SimOptions::default(),
    );
    assert!(
        b.mean() < a.mean(),
        "LBP-2 ({:.2}) should beat LBP-1 ({:.2}) at 0.02 s/task",
        b.mean(),
        a.mean()
    );
}

/// §4 Table 3: at 3 s/task the ordering flips — preemptive wins.
#[test]
fn lbp1_wins_at_large_delay() {
    let m0 = [100u32, 60];
    let mut config = SystemConfig::paper(m0);
    config.network = NetworkConfig::exponential(3.0);
    let params = model_params(&config);
    let lbp1 = optimize_lbp1(&params, m0, WorkState::BOTH_UP);
    let k = Lbp2::optimal_initial_gain(&config);
    let reps = 2000;
    let b = run_replications(
        &config,
        &|_| Lbp2::new(k),
        reps,
        37,
        0,
        SimOptions::default(),
    );
    assert!(
        lbp1.mean < b.mean(),
        "LBP-1 ({:.2}) should beat LBP-2 ({:.2}) at 3 s/task",
        lbp1.mean,
        b.mean()
    );
}

/// §1 motivation: any balancing beats no balancing on an imbalanced
/// churning system.
#[test]
fn balancing_beats_hoarding() {
    let config = SystemConfig::paper([160, 0]);
    let reps = 1500;
    let none = run_replications(
        &config,
        &|_| NoBalancing,
        reps,
        41,
        0,
        SimOptions::default(),
    );
    let lbp1 = Lbp1::optimal(&config);
    let one = run_replications(&config, &|_| lbp1, reps, 41, 0, SimOptions::default());
    let k = Lbp2::optimal_initial_gain(&config);
    let two = run_replications(
        &config,
        &|_| Lbp2::new(k),
        reps,
        41,
        0,
        SimOptions::default(),
    );
    assert!(one.mean() < none.mean());
    assert!(two.mean() < none.mean());
}

/// Fig. 4 mechanics: on a single realisation, LBP-2 must fire a transfer at
/// every failure of a loaded node, visible as queue jumps; LBP-1 must not.
#[test]
fn failure_compensation_is_visible_in_traces() {
    let config = SystemConfig::paper([100, 60]);
    let opts = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };
    // Pick a seed whose churn path has at least one failure per node.
    let mut seed = 0u64;
    let (out1, out2) = loop {
        let o1 = simulate(&config, &mut Lbp1::with_gain(0, 1, 100, 0.35), seed, opts);
        let o2 = simulate(&config, &mut Lbp2::new(1.0), seed, opts);
        if o2.metrics.counters.failures >= 2 {
            break (o1, o2);
        }
        seed += 1;
        assert!(seed < 50, "could not find a churny seed");
    };
    assert_eq!(
        out1.metrics.counters.transfers, 1,
        "LBP-1 acts exactly once"
    );
    assert!(
        out2.metrics.counters.transfers >= 2,
        "LBP-2 must add compensation transfers at failures"
    );
    // Common random numbers: the churn path is policy-independent.
    assert_eq!(
        out1.metrics.counters.failures,
        out2.metrics.counters.failures
    );
}

/// §4: LBP-2's mean across seeds lands near the paper's measured 109-112 s
/// for workload (100, 60) — a coarse absolute regression band.
#[test]
fn lbp2_absolute_band_for_fig3_workload() {
    let config = SystemConfig::paper([100, 60]);
    let k = Lbp2::optimal_initial_gain(&config);
    let est = run_replications(
        &config,
        &|_| Lbp2::new(k),
        3000,
        43,
        0,
        SimOptions::default(),
    );
    assert!(
        (100.0..=125.0).contains(&est.mean()),
        "LBP-2 mean {:.2} outside the paper band (109.17 exp / 112.43 MC)",
        est.mean()
    );
}

/// The test-bed stand-in ("experiment") must agree with the model-faithful
/// engine within a few percent — the paper's theory/experiment gap.
#[test]
fn testbed_and_model_faithful_engines_agree() {
    let m0 = [100u32, 60];
    let mc_cfg = SystemConfig::paper(m0);
    let tb_cfg = churnbal::cluster::testbed::testbed_config(m0);
    let k = Lbp2::optimal_initial_gain(&mc_cfg);
    let reps = 2000;
    let a = run_replications(
        &mc_cfg,
        &|_| Lbp2::new(k),
        reps,
        47,
        0,
        SimOptions::default(),
    );
    let b = run_replications(
        &tb_cfg,
        &|_| Lbp2::new(k),
        reps,
        47,
        0,
        SimOptions::default(),
    );
    let rel = (a.mean() - b.mean()).abs() / a.mean();
    assert!(rel < 0.08, "engines diverge by {:.1}%", rel * 100.0);
}
