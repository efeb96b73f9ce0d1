//! Property-based tests of the analytical model over random parameter
//! sets: the recursion must agree with the independent CTMC solver, and
//! structural monotonicities must hold.

use churnbal_model::exact::lbp1_mean_exact;
use churnbal_model::mean::{lbp1_mean, HatTable};
use churnbal_model::{DelayModel, TwoNodeParams, WorkState};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = TwoNodeParams> {
    (
        0.2f64..5.0,
        0.2f64..5.0,
        0.0f64..0.3,
        0.0f64..0.3,
        0.02f64..0.5,
        0.02f64..0.5,
        0.005f64..1.0,
    )
        .prop_map(|(d1, d2, f1, f2, r1, r2, delay)| {
            TwoNodeParams::new([d1, d2], [f1, f2], [r1, r2], DelayModel::per_task(delay))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eq. (4) recursion == exact CTMC absorption, for arbitrary rates,
    /// workloads, transfer sizes and initial work states.
    #[test]
    fn recursion_equals_ctmc(
        params in arb_params(),
        m1 in 0u32..8,
        m2 in 0u32..8,
        l_frac in 0.0f64..1.0,
        sender in 0usize..2,
    ) {
        let m0 = [m1, m2];
        let l = (l_frac * f64::from(m0[sender])).floor() as u32;
        let rec = lbp1_mean(&params, m0, sender, l, WorkState::BOTH_UP);
        let exact = lbp1_mean_exact(&params, m0, sender, l, WorkState::BOTH_UP);
        prop_assert!(
            (rec - exact).abs() < 1e-6 * exact.max(1.0),
            "recursion {} vs ctmc {}", rec, exact
        );
    }

    /// More work never finishes sooner (monotonicity on the lattice).
    #[test]
    fn mean_monotone_in_workload(params in arb_params(), m in 1u32..20) {
        let hat = HatTable::build(&params, [m, m]);
        let smaller = hat.get(WorkState::BOTH_UP, [m - 1, m]);
        let larger = hat.get(WorkState::BOTH_UP, [m, m]);
        prop_assert!(larger > smaller - 1e-12);
    }

    /// Faster service never hurts.
    #[test]
    fn mean_monotone_in_service_rate(params in arb_params(), boost in 1.01f64..3.0) {
        let mut faster = params;
        faster.service[0] *= boost;
        let a = HatTable::build(&params, [6, 6]).get(WorkState::BOTH_UP, [6, 6]);
        let b = HatTable::build(&faster, [6, 6]).get(WorkState::BOTH_UP, [6, 6]);
        prop_assert!(b <= a + 1e-9, "speeding node 1 up increased E[T]: {} -> {}", a, b);
    }

    /// Starting with a node down never helps.
    #[test]
    fn down_start_is_never_faster(params in arb_params()) {
        prop_assume!(params.churns(0));
        let hat = HatTable::build(&params, [5, 5]);
        let up = hat.get(WorkState::BOTH_UP, [5, 5]);
        let down = hat.get(WorkState::new(false, true), [5, 5]);
        prop_assert!(down >= up - 1e-9);
    }

    /// The completion-time CDF is within [0,1], monotone, and its
    /// high-quantile mass is consistent with the mean (Markov bound).
    #[test]
    fn cdf_is_a_distribution(params in arb_params(), m1 in 1u32..6, m2 in 0u32..6) {
        let mean = lbp1_mean(&params, [m1, m2], 0, 0, WorkState::BOTH_UP);
        let horizon = mean * 10.0;
        let times: Vec<f64> = (0..=100).map(|i| horizon * f64::from(i) / 100.0).collect();
        let cdf = churnbal_model::lbp1_cdf(&params, [m1, m2], 0, 0, WorkState::BOTH_UP, &times);
        let mut prev = 0.0;
        for &v in &cdf.values {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            prop_assert!(v >= prev - 1e-9);
            prev = v;
        }
        // Markov: P(T > 10·E[T]) <= 0.1 ⇒ CDF(10·E[T]) >= 0.9.
        prop_assert!(cdf.coverage() >= 0.9 - 1e-6);
    }

    /// Availability is a probability and matches the rate definition.
    #[test]
    fn availability_is_probability(params in arb_params()) {
        for i in 0..2 {
            let a = params.availability(i);
            prop_assert!((0.0..=1.0).contains(&a));
            if params.churns(i) {
                let expect = params.recovery[i] / (params.failure[i] + params.recovery[i]);
                prop_assert!((a - expect).abs() < 1e-12);
            } else {
                prop_assert_eq!(a, 1.0);
            }
        }
    }
}
