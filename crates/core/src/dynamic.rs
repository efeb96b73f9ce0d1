//! Dynamic-workload extension (paper §5, final remark).
//!
//! "If new external workloads arrive regularly …, one can continue to
//! utilize the rationale of analogues to LBP-1 and LBP-2 to develop
//! dynamic versions of them. One simplified approach is to execute
//! load-balancing episodes at every external arrival of new workloads."
//!
//! [`EpisodicLbp2`] implements precisely that simplified approach: the
//! LBP-2 machinery runs its excess-load balancing episode not only at
//! `t = 0` but at every external batch arrival, while keeping the Eq. 8
//! failure compensation.

use churnbal_cluster::{Policy, SystemConfig, SystemView, TransferOrder};
use churnbal_model::optimize::optimize_lbp1;
use churnbal_model::{TwoNodeParams, WorkState};

use crate::glue::model_params;
use crate::lbp2::Lbp2;

/// LBP-2 with re-balancing episodes at external arrivals.
#[derive(Clone, Copy, Debug)]
pub struct EpisodicLbp2 {
    inner: Lbp2,
    episodes: u64,
}

impl EpisodicLbp2 {
    /// Episodic LBP-2 with initial/episode gain `K`.
    ///
    /// # Panics
    /// Panics unless `K ∈ [0, 1]`.
    #[must_use]
    pub fn new(gain: f64) -> Self {
        Self {
            inner: Lbp2::new(gain),
            episodes: 0,
        }
    }

    /// Number of balancing episodes executed so far (start + arrivals).
    #[must_use]
    pub fn episodes(&self) -> u64 {
        self.episodes
    }
}

impl Policy for EpisodicLbp2 {
    fn name(&self) -> &str {
        "LBP-2 (episodic)"
    }

    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.episodes += 1;
        self.inner.balancing_orders_into(view, orders);
    }

    fn on_failure(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.inner.failure_orders_into(node, view, orders);
    }

    fn on_external_arrival(
        &mut self,
        _node: usize,
        _tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.episodes += 1;
        self.inner.balancing_orders_into(view, orders);
    }
}

/// The dynamic analogue of LBP-1: at `t = 0` **and at every external
/// arrival**, re-run the full regeneration-theory optimisation on the
/// *current* queue snapshot and ship the resulting optimal transfer.
///
/// Two approximations, both conservative and documented: the optimisation
/// treats the re-planning instant as a fresh `t = 0` (its own preemptive
/// assumption — exact for LBP-1's semantics), and it ignores load already
/// in transit (the paper's model has no mid-flight re-planning either).
/// Two-node systems only (the closed-form model's domain).
#[derive(Clone, Debug)]
pub struct DynamicLbp1 {
    params: TwoNodeParams,
    episodes: u64,
}

impl DynamicLbp1 {
    /// Builds the policy from a two-node configuration.
    ///
    /// # Panics
    /// Panics unless the configuration has exactly two nodes.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        Self {
            params: model_params(config),
            episodes: 0,
        }
    }

    /// Number of optimisation episodes executed so far.
    #[must_use]
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    fn plan(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.episodes += 1;
        let m0 = [view.queue_len[0], view.queue_len[1]];
        if m0[0] + m0[1] == 0 {
            return;
        }
        let state = WorkState::new(view.up[0], view.up[1]);
        let opt = optimize_lbp1(&self.params, m0, state);
        if opt.tasks == 0 {
            return;
        }
        orders.push(TransferOrder {
            from: opt.sender,
            to: opt.receiver,
            tasks: opt.tasks,
        });
    }
}

impl Policy for DynamicLbp1 {
    fn name(&self) -> &str {
        "LBP-1 (dynamic)"
    }

    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.plan(view, orders);
    }

    fn on_external_arrival(
        &mut self,
        _node: usize,
        _tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.plan(view, orders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnbal_cluster::{simulate, ExternalArrival, SimOptions};

    #[test]
    fn episodes_fire_at_external_arrivals() {
        let cfg = SystemConfig::paper_no_failure([40, 10]).with_external_arrivals(vec![
            ExternalArrival {
                time: 5.0,
                node: 0,
                tasks: 50,
            },
            ExternalArrival {
                time: 10.0,
                node: 0,
                tasks: 50,
            },
        ]);
        let mut p = EpisodicLbp2::new(1.0);
        let out = simulate(&cfg, &mut p, 41, SimOptions::default());
        assert!(out.completed);
        assert_eq!(p.episodes(), 3, "start + two arrivals");
        // Re-balancing must have shipped some of the late-arriving load.
        assert!(out.metrics.counters.transfers >= 2);
    }

    #[test]
    fn dynamic_lbp1_replans_at_arrivals() {
        let cfg = SystemConfig::paper([40, 10]).with_external_arrivals(vec![ExternalArrival {
            time: 12.0,
            node: 0,
            tasks: 60,
        }]);
        let mut p = DynamicLbp1::new(&cfg);
        let out = simulate(&cfg, &mut p, 51, SimOptions::default());
        assert!(out.completed);
        assert_eq!(p.episodes(), 2, "start + one arrival");
        assert!(
            out.metrics.counters.transfers >= 2,
            "each episode should ship something here"
        );
    }

    #[test]
    fn dynamic_lbp1_beats_static_lbp1_under_arrivals() {
        use churnbal_cluster::run_replications;
        // A large late burst invalidates the t = 0 plan.
        let cfg = SystemConfig::paper([40, 24]).with_external_arrivals(vec![ExternalArrival {
            time: 10.0,
            node: 0,
            tasks: 120,
        }]);
        let static_plan = crate::lbp1::Lbp1::optimal(&cfg);
        let opts = SimOptions::default();
        let reps = 300;
        let dynamic = run_replications(&cfg, &|_| DynamicLbp1::new(&cfg), reps, 63, 0, opts);
        let fixed = run_replications(&cfg, &|_| static_plan, reps, 63, 0, opts);
        assert!(
            dynamic.mean() + 1.0 < fixed.mean(),
            "dynamic {} should clearly beat static {}",
            dynamic.mean(),
            fixed.mean()
        );
    }

    #[test]
    fn episodic_beats_start_only_under_arrivals() {
        // A big late batch lands on the slow node; re-balancing should cut
        // the mean completion time versus balancing only at t = 0.
        use churnbal_cluster::run_replications;
        let cfg = SystemConfig::paper_no_failure([30, 30]).with_external_arrivals(vec![
            ExternalArrival {
                time: 8.0,
                node: 0,
                tasks: 120,
            },
        ]);
        let opts = SimOptions::default();
        let episodic = run_replications(&cfg, &|_| EpisodicLbp2::new(1.0), 300, 77, 0, opts);
        let start_only = run_replications(&cfg, &|_| crate::lbp2::Lbp2::new(1.0), 300, 77, 0, opts);
        assert!(
            episodic.mean() + 1.0 < start_only.mean(),
            "episodic {} should clearly beat start-only {}",
            episodic.mean(),
            start_only.mean()
        );
    }
}
