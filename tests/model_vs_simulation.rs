//! Integration: the three methods of the paper — regenerative model,
//! Monte-Carlo simulation, exact CTMC — must agree with each other on the
//! same dynamics, for both policies.

use churnbal::model::exact::{lbp1_mean_exact, lbp2_mean_exact};
use churnbal::prelude::*;

/// Mean of the LBP-1 dynamics: recursion vs Monte-Carlo confidence band.
#[test]
fn lbp1_model_mean_inside_mc_confidence_band() {
    let m0 = [40u32, 24];
    let config = SystemConfig::paper(m0);
    let params = model_params(&config);
    for (sender, l) in [(0usize, 0u32), (0, 14), (0, 40), (1, 10)] {
        let model = churnbal::model::mean::lbp1_mean(&params, m0, sender, l, WorkState::BOTH_UP);
        let (s, r) = (sender, 1 - sender);
        let mc = run_replications(
            &config,
            &|_| Lbp1::new(s, r, l),
            3000,
            77 + l as u64,
            0,
            SimOptions::default(),
        );
        let diff = (mc.mean() - model).abs();
        assert!(
            diff < 3.0 * mc.ci95(),
            "sender {sender} L={l}: model {model:.3} vs MC {:.3} ± {:.3}",
            mc.mean(),
            mc.ci95()
        );
    }
}

/// Mean of the LBP-2 dynamics: Monte-Carlo vs the exact CTMC (a result the
/// paper itself never had — it only compared MC to experiment).
#[test]
fn lbp2_mc_matches_exact_ctmc() {
    // Small workload: the exact chain's state space carries the full
    // multiset of in-flight transfers and grows combinatorially with the
    // task count (clamped Eq. 8 shipments produce many distinct sizes).
    let m0 = [8u32, 5];
    let config = SystemConfig::paper(m0);
    let params = model_params(&config);

    // Reconstruct the policy's actual orders for this system.
    let lbp2 = Lbp2::new(1.0);
    // Eq. 8 amounts: node 1 fails -> 3 to node 2; node 2 fails -> 9 to node 1
    // (validated against hand computation in churnbal-core tests).
    let lf = [3u32, 9];
    // Initial balancing for (18, 10): excess of node 1 over the speed share.
    let total = f64::from(m0[0] + m0[1]);
    let share0 = 1.08 / (1.08 + 1.86) * total;
    let excess0 = (f64::from(m0[0]) - share0).max(0.0);
    let l0 = excess0.round() as u32;

    let exact = lbp2_mean_exact(
        &params,
        m0,
        lf,
        Some((0, l0)),
        WorkState::BOTH_UP,
        5_000_000,
    );
    let mc = run_replications(&config, &|_| lbp2, 4000, 99, 0, SimOptions::default());
    let diff = (mc.mean() - exact).abs();
    assert!(
        diff < 3.0 * mc.ci95(),
        "LBP-2: exact CTMC {exact:.3} vs MC {:.3} ± {:.3}",
        mc.mean(),
        mc.ci95()
    );
}

/// Completion-time *distribution*: Eq. (5) CDF vs the Monte-Carlo ECDF
/// (Kolmogorov–Smirnov test at 0.1%).
#[test]
fn lbp1_cdf_matches_mc_ecdf() {
    let m0 = [25u32, 15];
    let config = SystemConfig::paper(m0);
    let params = model_params(&config);
    let l = 8u32;
    let times: Vec<f64> = (0..=400).map(|i| f64::from(i) * 0.5).collect();
    let cdf = lbp1_cdf(&params, m0, 0, l, WorkState::BOTH_UP, &times);

    let n = 4000u64;
    let mc = run_replications(
        &config,
        &|_| Lbp1::new(0, 1, l),
        n,
        1234,
        0,
        SimOptions::default(),
    );
    let ecdf = churnbal::stochastic::Ecdf::new(mc.completion_times.clone());
    let ks = ecdf.ks_distance(|t| cdf.eval(t));
    let crit = churnbal::stochastic::ecdf::ks_critical_value(n as usize, 0.001);
    assert!(
        ks < crit,
        "KS {ks:.4} exceeds the 0.1% critical value {crit:.4}"
    );
}

/// The same system described through the simulator's config and through
/// the model's parameter type must produce the same analytic answer as the
/// exact CTMC built from either.
#[test]
fn recursion_vs_ctmc_on_paper_parameters() {
    let params = model_params(&SystemConfig::paper([12, 7]));
    for l in [0u32, 4, 12] {
        let rec = churnbal::model::mean::lbp1_mean(&params, [12, 7], 0, l, WorkState::BOTH_UP);
        let exact = lbp1_mean_exact(&params, [12, 7], 0, l, WorkState::BOTH_UP);
        assert!((rec - exact).abs() < 1e-7, "L={l}: {rec} vs {exact}");
    }
}

/// Mean from the CDF (survival integral) agrees with the direct mean —
/// ties Eqs. (4) and (5) together end to end.
#[test]
fn mean_consistency_between_eq4_and_eq5() {
    let params = model_params(&SystemConfig::paper([15, 9]));
    let times: Vec<f64> = (0..=1200).map(|i| f64::from(i) * 0.25).collect();
    let cdf = lbp1_cdf(&params, [15, 9], 0, 5, WorkState::BOTH_UP, &times);
    let mean_eq5 = mean_from_cdf(&cdf);
    let mean_eq4 = churnbal::model::mean::lbp1_mean(&params, [15, 9], 0, 5, WorkState::BOTH_UP);
    assert!(
        (mean_eq5 - mean_eq4).abs() < 0.05,
        "Eq.5 integral {mean_eq5} vs Eq.4 recursion {mean_eq4}"
    );
}
