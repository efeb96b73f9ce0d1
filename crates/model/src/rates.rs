//! Model parameters: per-node rates and the load-dependent transfer delay.

/// Load-dependent transfer-delay model.
///
/// §4 of the paper measures the mean batch-transfer delay to grow linearly
/// with the number of tasks `L` (Fig. 2, bottom) with ≈ 0.02 s per task, and
/// approximates the delay as exponentially distributed. The analysis then
/// uses a single exponential with rate `λ_{ji} = 1 / mean(L)`.
///
/// `mean(L) = fixed + per_task · L`. The paper's model corresponds to
/// `fixed = 0`; the test-bed simulator uses a small positive `fixed` to
/// reproduce the "slight shift" the authors observed in the empirical pdf.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayModel {
    /// Load-independent part of the mean delay, seconds.
    pub fixed: f64,
    /// Mean seconds per transferred task (the paper's 0.02 s/task).
    pub per_task: f64,
}

impl DelayModel {
    /// Creates a delay model.
    ///
    /// # Panics
    /// Panics if either component is negative/non-finite or both are zero
    /// (a zero-mean transfer delay has an undefined exponential rate; model
    /// an instantaneous transfer by adding the load to the receiver's
    /// initial queue instead).
    #[must_use]
    pub fn new(fixed: f64, per_task: f64) -> Self {
        assert!(
            fixed.is_finite() && fixed >= 0.0,
            "fixed delay must be >= 0"
        );
        assert!(
            per_task.is_finite() && per_task >= 0.0,
            "per-task delay must be >= 0"
        );
        assert!(
            fixed + per_task > 0.0,
            "delay model cannot be identically zero"
        );
        Self { fixed, per_task }
    }

    /// Pure per-task model (the paper's analytical assumption).
    #[must_use]
    pub fn per_task(per_task: f64) -> Self {
        Self::new(0.0, per_task)
    }

    /// Mean delay for transferring `l` tasks.
    #[must_use]
    pub fn mean(&self, l: u32) -> f64 {
        self.fixed + self.per_task * f64::from(l)
    }

    /// Exponential rate `λ_{ji}` of the batch transfer of `l ≥ 1` tasks.
    ///
    /// # Panics
    /// Panics for `l = 0` (no transfer, no rate).
    #[must_use]
    pub fn rate(&self, l: u32) -> f64 {
        assert!(l > 0, "a zero-task transfer has no delay rate");
        let m = self.mean(l);
        assert!(m > 0.0, "delay mean must be positive");
        1.0 / m
    }
}

/// Full parameter set of an `N`-node system (§2 of the paper for `N = 2`).
///
/// * `service[i]` — `λ_{d_i}`, tasks per second (1.08 and 1.86 in §4);
/// * `failure[i]` — `λ_{f_i}`, failures per second (1/20 in §4); zero
///   disables churn for that node (the "no-failure case");
/// * `recovery[i]` — `λ_{r_i}`, recoveries per second (1/10 and 1/20);
/// * `delay` — the transfer-delay model (a shared network).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultiNodeParams<const N: usize> {
    /// Service rates `λ_d` (tasks/s).
    pub service: [f64; N],
    /// Failure rates `λ_f` (1/s); `0` = the node never fails.
    pub failure: [f64; N],
    /// Recovery rates `λ_r` (1/s); must be positive wherever `failure > 0`.
    pub recovery: [f64; N],
    /// Load-transfer delay model.
    pub delay: DelayModel,
}

/// The two-node parameter set the paper's recursions (Eqs. 4–5) cover.
pub type TwoNodeParams = MultiNodeParams<2>;

impl<const N: usize> MultiNodeParams<N> {
    /// Validates and constructs a parameter set.
    ///
    /// # Panics
    /// Panics unless `2 <= N <= 16` (the exact chain's up-mask is 16 bits),
    /// if any service rate is non-positive or any rate non-finite, any
    /// failure/recovery rate is negative, or a node can fail
    /// (`failure > 0`) but never recover (`recovery = 0`) — its expected
    /// completion time would be infinite.
    #[must_use]
    pub fn new(
        service: [f64; N],
        failure: [f64; N],
        recovery: [f64; N],
        delay: DelayModel,
    ) -> Self {
        assert!(
            (2..=16).contains(&N),
            "the model covers 2 to 16 nodes (the exact chain's up-mask is 16 bits)"
        );
        for i in 0..N {
            assert!(
                service[i] > 0.0 && service[i].is_finite(),
                "service rate of node {i} must be positive"
            );
            assert!(
                failure[i] >= 0.0 && failure[i].is_finite(),
                "failure rate of node {i} must be >= 0"
            );
            assert!(
                recovery[i] >= 0.0 && recovery[i].is_finite(),
                "recovery rate of node {i} must be >= 0"
            );
            assert!(
                failure[i] == 0.0 || recovery[i] > 0.0,
                "node {i} can fail but never recovers — completion time is infinite"
            );
        }
        Self {
            service,
            failure,
            recovery,
            delay,
        }
    }

    /// Copy with churn disabled on every node.
    #[must_use]
    pub fn without_failures(&self) -> Self {
        Self {
            failure: [0.0; N],
            recovery: [0.0; N],
            ..*self
        }
    }

    /// Copy with a different mean per-task delay (Table 3 sweeps this).
    #[must_use]
    pub fn with_per_task_delay(&self, per_task: f64) -> Self {
        Self {
            delay: DelayModel::new(self.delay.fixed, per_task),
            ..*self
        }
    }

    /// True when node `i` participates in churn (`λ_f > 0`).
    #[must_use]
    pub fn churns(&self, i: usize) -> bool {
        self.failure[i] > 0.0
    }

    /// Long-run probability that node `i` is up:
    /// `λ_r / (λ_f + λ_r)` (used by Eq. 8); 1 for non-churning nodes.
    #[must_use]
    pub fn availability(&self, i: usize) -> f64 {
        if self.churns(i) {
            self.recovery[i] / (self.failure[i] + self.recovery[i])
        } else {
            1.0
        }
    }
}

impl TwoNodeParams {
    /// The exact parameter set of the paper's §4 experiments:
    /// `λ_d = (1.08, 1.86)`, mean failure time 20 s for both nodes, mean
    /// recovery times (10 s, 20 s), mean transfer delay 0.02 s per task.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(
            [1.08, 1.86],
            [1.0 / 20.0, 1.0 / 20.0],
            [1.0 / 10.0, 1.0 / 20.0],
            DelayModel::per_task(0.02),
        )
    }

    /// Same node speeds and delay but churn disabled — the paper's
    /// "no failure case" reference curves.
    #[must_use]
    pub fn paper_no_failure() -> Self {
        Self::paper().without_failures()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_model_paper_values() {
        let d = DelayModel::per_task(0.02);
        assert!((d.mean(100) - 2.0).abs() < 1e-12);
        assert!((d.rate(50) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_model_with_fixed_part() {
        let d = DelayModel::new(0.005, 0.02);
        assert!((d.mean(0) - 0.005).abs() < 1e-12);
        assert!((d.mean(10) - 0.205).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero-task transfer")]
    fn rate_of_zero_tasks_panics() {
        let _ = DelayModel::per_task(0.02).rate(0);
    }

    #[test]
    #[should_panic(expected = "identically zero")]
    fn all_zero_delay_rejected() {
        let _ = DelayModel::new(0.0, 0.0);
    }

    #[test]
    fn paper_params_match_section_4() {
        let p = TwoNodeParams::paper();
        assert_eq!(p.service, [1.08, 1.86]);
        assert!((1.0 / p.failure[0] - 20.0).abs() < 1e-9);
        assert!((1.0 / p.recovery[0] - 10.0).abs() < 1e-9);
        assert!((1.0 / p.recovery[1] - 20.0).abs() < 1e-9);
        // availabilities quoted in our DESIGN notes: 2/3 and 1/2
        assert!((p.availability(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.availability(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_failure_variant_disables_churn() {
        let p = TwoNodeParams::paper_no_failure();
        assert!(!p.churns(0) && !p.churns(1));
        assert_eq!(p.availability(0), 1.0);
        let q = TwoNodeParams::paper().without_failures();
        assert_eq!(p, q);
    }

    #[test]
    fn delay_override() {
        let p = TwoNodeParams::paper().with_per_task_delay(1.0);
        assert!((p.delay.mean(3) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "never recovers")]
    fn failing_without_recovery_rejected() {
        let _ = TwoNodeParams::new(
            [1.0, 1.0],
            [0.1, 0.0],
            [0.0, 0.0],
            DelayModel::per_task(0.02),
        );
    }

    #[test]
    #[should_panic(expected = "service rate")]
    fn zero_service_rejected() {
        let _ = TwoNodeParams::new(
            [0.0, 1.0],
            [0.0, 0.0],
            [0.0, 0.0],
            DelayModel::per_task(0.02),
        );
    }
}
