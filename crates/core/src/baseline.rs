//! Baseline policies for the ablation studies.
//!
//! LBP-2 is "initial balancing + failure compensation"; these baselines
//! keep exactly one of the two ingredients so the harness can attribute
//! the benefit. `churnbal_cluster::NoBalancing` (neither ingredient) is
//! re-exported for completeness.

use churnbal_cluster::{Policy, SystemView, TransferOrder};

pub use churnbal_cluster::NoBalancing;

use crate::lbp2::Lbp2;

/// Only the `t = 0` speed-weighted excess-load balancing (Eqs. 6–7) —
/// the delay-aware one-shot policy of the authors' earlier, churn-blind
/// work ([8–11] in the paper). No reaction to failures.
#[derive(Clone, Copy, Debug)]
pub struct InitialBalanceOnly {
    inner: Lbp2,
}

impl InitialBalanceOnly {
    /// Initial balancing with gain `K`.
    ///
    /// # Panics
    /// Panics unless `K ∈ [0, 1]`.
    #[must_use]
    pub fn new(gain: f64) -> Self {
        Self {
            inner: Lbp2::new(gain),
        }
    }
}

impl Policy for InitialBalanceOnly {
    fn name(&self) -> &str {
        "initial-balance-only"
    }

    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.inner.balancing_orders_into(view, orders);
    }
}

/// Only the Eq. (8) failure compensation — no initial balancing at all
/// ("action-upon-failure", the pure reactive strawman of §1).
#[derive(Clone, Copy, Debug)]
pub struct UponFailureOnly {
    inner: Lbp2,
}

impl UponFailureOnly {
    /// Failure compensation with the full Eq. 8 weighting.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Lbp2::new(1.0),
        }
    }
}

impl Default for UponFailureOnly {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for UponFailureOnly {
    fn name(&self) -> &str {
        "upon-failure-only"
    }

    fn on_failure(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.inner.failure_orders_into(node, view, orders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnbal_cluster::{simulate, SimOptions, SystemConfig};

    #[test]
    fn initial_only_never_reacts_to_failures() {
        let cfg = SystemConfig::paper([100, 60]);
        let mut p = InitialBalanceOnly::new(1.0);
        let out = simulate(&cfg, &mut p, 31, SimOptions::default());
        assert!(out.completed);
        // one initial order from the overloaded node, nothing else
        assert_eq!(out.metrics.counters.transfers, 1);
    }

    #[test]
    fn upon_failure_only_never_balances_at_start() {
        let cfg = SystemConfig::paper_no_failure([100, 60]);
        let mut p = UponFailureOnly::new();
        let out = simulate(&cfg, &mut p, 32, SimOptions::default());
        assert!(out.completed);
        assert_eq!(
            out.metrics.counters.transfers, 0,
            "no failures, no transfers"
        );
    }

    #[test]
    fn upon_failure_only_reacts_to_churn() {
        let cfg = SystemConfig::paper([200, 120]);
        let mut p = UponFailureOnly::new();
        let out = simulate(&cfg, &mut p, 33, SimOptions::default());
        assert!(out.completed);
        assert!(
            out.metrics.counters.failures > 0,
            "long run should see churn"
        );
        assert!(out.metrics.counters.transfers > 0);
    }
}
