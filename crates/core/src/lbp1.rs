//! LBP-1: the preemptive policy (§2.1).
//!
//! One node ships `L_ji = K·m_i` tasks (Eq. 1) to the other at `t = 0` and
//! **no further balancing ever happens** — the whole intelligence of the
//! policy sits in choosing `K` (and the orientation) *before* execution,
//! from the regeneration-theory model that accounts for failure and
//! recovery statistics.

use churnbal_cluster::{Policy, SystemConfig, SystemView, TransferOrder};
use churnbal_model::optimize::optimize_lbp1;
use churnbal_model::WorkState;

use crate::glue::{initial_workload, model_params};

/// The preemptive one-shot policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lbp1 {
    sender: usize,
    receiver: usize,
    tasks: u32,
    gain: f64,
}

impl Lbp1 {
    /// A fixed transfer of `tasks` tasks from `sender` to `receiver`.
    ///
    /// # Panics
    /// Panics if `sender == receiver`.
    #[must_use]
    pub fn new(sender: usize, receiver: usize, tasks: u32) -> Self {
        assert_ne!(sender, receiver, "sender and receiver must differ");
        Self {
            sender,
            receiver,
            tasks,
            gain: f64::NAN,
        }
    }

    /// Eq. (1): transfer `round(K · m_sender)` tasks.
    ///
    /// # Panics
    /// Panics unless `K ∈ [0, 1]` and the node indices differ.
    #[must_use]
    pub fn with_gain(sender: usize, receiver: usize, m_sender: u32, gain: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gain),
            "gain K must be in [0,1], got {gain}"
        );
        assert_ne!(sender, receiver, "sender and receiver must differ");
        let tasks = (gain * f64::from(m_sender)).round() as u32;
        Self {
            sender,
            receiver,
            tasks,
            gain,
        }
    }

    /// The model-optimal LBP-1 for a two-node configuration: gain, sender
    /// and receiver minimising the mean overall completion time of the
    /// regenerative model (§2.1.1), churn statistics included.
    ///
    /// # Panics
    /// Panics unless the configuration has exactly two nodes.
    #[must_use]
    pub fn optimal(config: &SystemConfig) -> Self {
        let params = model_params(config);
        let m0 = initial_workload(config);
        let opt = optimize_lbp1(&params, m0, WorkState::BOTH_UP);
        Self {
            sender: opt.sender,
            receiver: opt.receiver,
            tasks: opt.tasks,
            gain: opt.gain,
        }
    }

    /// The sending node.
    #[must_use]
    pub fn sender(&self) -> usize {
        self.sender
    }

    /// The receiving node.
    #[must_use]
    pub fn receiver(&self) -> usize {
        self.receiver
    }

    /// Number of tasks shipped at `t = 0`.
    #[must_use]
    pub fn tasks(&self) -> u32 {
        self.tasks
    }

    /// The gain `K` (NaN when constructed from a raw task count).
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

impl Policy for Lbp1 {
    fn name(&self) -> &str {
        "LBP-1"
    }

    fn on_start(&mut self, _view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        if self.tasks > 0 {
            orders.push(TransferOrder {
                from: self.sender,
                to: self.receiver,
                tasks: self.tasks,
            });
        }
    }
    // All other hooks: deliberately no action (the defining property of
    // LBP-1 — §2.1: "no other balancing action is taken afterwards").
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnbal_cluster::{simulate, SimOptions};

    #[test]
    fn ships_once_at_start() {
        let cfg = SystemConfig::paper([100, 60]);
        let mut p = Lbp1::with_gain(0, 1, 100, 0.35);
        assert_eq!(p.tasks(), 35);
        let out = simulate(&cfg, &mut p, 11, SimOptions::default());
        assert!(out.completed);
        assert_eq!(out.metrics.counters.transfers, 1);
        assert_eq!(out.metrics.counters.tasks_shipped, 35);
    }

    #[test]
    fn zero_gain_means_no_transfer() {
        let cfg = SystemConfig::paper([100, 60]);
        let mut p = Lbp1::with_gain(0, 1, 100, 0.0);
        let out = simulate(&cfg, &mut p, 12, SimOptions::default());
        assert_eq!(out.metrics.counters.transfers, 0);
    }

    #[test]
    fn optimal_matches_paper_fig3() {
        let cfg = SystemConfig::paper([100, 60]);
        let p = Lbp1::optimal(&cfg);
        assert_eq!(p.sender(), 0, "node 1 must send");
        // Paper: K* = 0.35 ⇒ 35 tasks. Allow the immediate neighbourhood.
        assert!(
            (30..=40).contains(&p.tasks()),
            "optimal transfer {} should be near the paper's 35",
            p.tasks()
        );
    }

    #[test]
    fn optimal_without_failure_ships_more() {
        let with = Lbp1::optimal(&SystemConfig::paper([100, 60]));
        let without = Lbp1::optimal(&SystemConfig::paper_no_failure([100, 60]));
        assert!(
            without.tasks() > with.tasks(),
            "churn must shrink the transfer ({} vs {})",
            with.tasks(),
            without.tasks()
        );
    }

    #[test]
    fn takes_no_action_after_start() {
        let cfg = SystemConfig::paper([50, 30]);
        let mut p = Lbp1::with_gain(0, 1, 50, 0.4);
        let out = simulate(&cfg, &mut p, 13, SimOptions::default());
        // exactly the single initial transfer, regardless of churn
        assert_eq!(out.metrics.counters.transfers, 1);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_transfer_rejected() {
        let _ = Lbp1::new(0, 0, 5);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn bad_gain_rejected() {
        let _ = Lbp1::with_gain(0, 1, 10, 1.5);
    }
}
