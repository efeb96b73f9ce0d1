//! LBP-2: the reactive policy (§2.2).
//!
//! Two ingredients:
//!
//! 1. **Initial balancing at `t = 0`**, computed *without* regard to
//!    churn: every node's excess over its speed-proportional share
//!    (Eq. 6) is partitioned over the other nodes (fractions `p_ij`) and
//!    attenuated by a gain `K` optimised under the authors' earlier
//!    no-failure delay model — Eq. (7): `L_ij = K·p_ij·L_excess_j`.
//! 2. **Compensation at every failure instant**: the failing node `j`
//!    will be out for `1/λ_rj` on average, accumulating `λ_dj/λ_rj` of
//!    unattended work, so its backup ships to every other node `i`
//!    (Eq. 8)
//!
//!    ```text
//!    L^F_ij = ⌊ (λ_ri/(λ_fi+λ_ri)) · (λ_di/Σ_k λ_dk) · (λ_dj/λ_rj) ⌋
//!    ```
//!
//!    — the receiver's long-run availability times its speed share times
//!    the failed node's expected backlog.
//!
//! The ablation switches expose the two weighting factors of Eq. 8 so the
//! harness can quantify what each buys.

use churnbal_cluster::{Policy, SystemConfig, SystemView, TransferOrder};
use churnbal_model::mean::Lbp1Evaluator;
use churnbal_model::WorkState;

use crate::excess::excess_loads;
use crate::glue::{initial_workload, model_params};

/// The reactive policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lbp2 {
    gain: f64,
    use_availability_weight: bool,
    use_speed_weight: bool,
}

impl Lbp2 {
    /// LBP-2 with initial gain `K` and the full Eq. 8 weighting.
    ///
    /// # Panics
    /// Panics unless `K ∈ [0, 1]`.
    #[must_use]
    pub fn new(gain: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gain),
            "gain K must be in [0,1], got {gain}"
        );
        Self {
            gain,
            use_availability_weight: true,
            use_speed_weight: true,
        }
    }

    /// Ablation: drop the availability factor `λ_ri/(λ_fi+λ_ri)` from
    /// Eq. 8.
    #[must_use]
    pub fn without_availability_weight(mut self) -> Self {
        self.use_availability_weight = false;
        self
    }

    /// Ablation: replace the speed share `λ_di/Σλ_d` in Eq. 8 by the
    /// uniform `1/(n−1)`.
    #[must_use]
    pub fn without_speed_weight(mut self) -> Self {
        self.use_speed_weight = false;
        self
    }

    /// The initial-balancing gain.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Computes the optimal *initial* gain for a two-node configuration
    /// using the no-failure model (§2.2: the initial scheduling "does not
    /// account for node failure"; its gain comes from the authors' earlier
    /// delay-only optimisation [10, 11]).
    ///
    /// Returns 1.0 when the system is already balanced (no excess to ship,
    /// the gain is immaterial).
    ///
    /// # Panics
    /// Panics unless the configuration has exactly two nodes.
    #[must_use]
    pub fn optimal_initial_gain(config: &SystemConfig) -> f64 {
        let params = model_params(config).without_failures();
        let m0 = initial_workload(config);
        let rates = [config.nodes[0].service_rate, config.nodes[1].service_rate];
        let excess = excess_loads(&m0.map(|m| m), &rates);
        let (sender, amount) = if excess[0] > 0.0 {
            (0, excess[0])
        } else {
            (1, excess[1])
        };
        if amount < 0.5 {
            return 1.0;
        }
        let ev = Lbp1Evaluator::new(&params, m0);
        let l_max = (amount.round() as u32).min(m0[sender]);
        let mut best = (0u32, f64::INFINITY);
        for l in 0..=l_max {
            let v = ev.mean(sender, l, WorkState::BOTH_UP);
            if v < best.1 {
                best = (l, v);
            }
        }
        (f64::from(best.0) / amount).clamp(0.0, 1.0)
    }

    /// LBP-2 with the gain of [`Lbp2::optimal_initial_gain`].
    #[must_use]
    pub fn optimal(config: &SystemConfig) -> Self {
        Self::new(Self::optimal_initial_gain(config))
    }

    /// The Eq. (7) orders for the current queue snapshot, appended to
    /// `orders` without allocating — the hot-path form used by the engine
    /// hooks at `t = 0` and by the episodic-rebalancing extension.
    ///
    /// Every sender computes its excess within its closed neighborhood
    /// and partitions it over its neighbors only (O(degree) per node);
    /// without a topology the neighborhood is the whole system, which is
    /// the paper's global partition.
    pub fn balancing_orders_into(&self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        crate::excess::balancing_orders_into(view, |i| view.service_rate[i], self.gain, orders);
    }

    /// The Eq. (7) orders as a fresh vector (convenience/diagnostic form of
    /// [`Lbp2::balancing_orders_into`]).
    #[must_use]
    pub fn balancing_orders(&self, view: &SystemView<'_>) -> Vec<TransferOrder> {
        let mut orders = Vec::new();
        self.balancing_orders_into(view, &mut orders);
        orders
    }

    /// The Eq. (8) compensation orders for a failure of node `j`, appended
    /// to `orders` without allocating.
    ///
    /// Neighbor-local under a topology: the speed-share denominator `Σ λ_d`
    /// runs over `j`'s closed neighborhood and only neighbors receive, so
    /// the per-failure cost is O(degree). [`SystemView::neighbors`] walks
    /// `0..n` minus `j` on the complete graph, making the topology-free
    /// sums and orders bit-identical to the historical global scan.
    pub fn failure_orders_into(
        &self,
        j: usize,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        if view.recovery_rate[j] <= 0.0 {
            return; // never recovers — config validation forbids this
        }
        // Expected backlog accumulated while j recovers: λ_dj / λ_rj.
        let backlog = view.service_rate[j] / view.recovery_rate[j];
        // Σ λ_d over the closed neighborhood, accumulated in ascending
        // node order (0..n on the complete graph, like the old global
        // `iter().sum()`).
        let mut total_rate = 0.0;
        let mut degree = 0usize;
        let mut merged = false;
        for i in view.neighbors(j) {
            if !merged && i > j {
                total_rate += view.service_rate[j];
                merged = true;
            }
            total_rate += view.service_rate[i];
            degree += 1;
        }
        if !merged {
            total_rate += view.service_rate[j];
        }
        if degree == 0 {
            return; // isolated node: nowhere to ship the backlog
        }
        let n_local = degree + 1;
        for i in view.neighbors(j) {
            let availability = if self.use_availability_weight {
                view.availability(i)
            } else {
                1.0
            };
            let speed_share = if self.use_speed_weight {
                view.service_rate[i] / total_rate
            } else {
                1.0 / (n_local as f64 - 1.0)
            };
            let amount = (availability * speed_share * backlog).floor() as u32;
            if amount > 0 {
                orders.push(TransferOrder {
                    from: j,
                    to: i,
                    tasks: amount,
                });
            }
        }
    }

    /// The Eq. (8) orders as a fresh vector (convenience/diagnostic form of
    /// [`Lbp2::failure_orders_into`]).
    #[must_use]
    pub fn failure_orders(&self, j: usize, view: &SystemView<'_>) -> Vec<TransferOrder> {
        let mut orders = Vec::new();
        self.failure_orders_into(j, view, &mut orders);
        orders
    }
}

impl Policy for Lbp2 {
    fn name(&self) -> &str {
        match (self.use_availability_weight, self.use_speed_weight) {
            (true, true) => "LBP-2",
            (false, true) => "LBP-2 (no availability weight)",
            (true, false) => "LBP-2 (no speed weight)",
            (false, false) => "LBP-2 (unweighted)",
        }
    }

    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.balancing_orders_into(view, orders);
    }

    fn on_failure(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.failure_orders_into(node, view, orders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnbal_cluster::{simulate, NodeView, SimOptions, SystemSnapshot};

    fn paper_nodes(queues: [u32; 2]) -> SystemSnapshot {
        SystemSnapshot::from_nodes(&[
            NodeView {
                id: 0,
                queue_len: queues[0],
                up: true,
                service_rate: 1.08,
                failure_rate: 0.05,
                recovery_rate: 0.1,
            },
            NodeView {
                id: 1,
                queue_len: queues[1],
                up: true,
                service_rate: 1.86,
                failure_rate: 0.05,
                recovery_rate: 0.05,
            },
        ])
        .with_context(0.0, 0.02, 0)
    }

    #[test]
    fn initial_orders_ship_gain_times_excess() {
        // (100, 60): node 1's excess is 41.22; K = 1 ships 41 tasks.
        let snap = paper_nodes([100, 60]);
        let p = Lbp2::new(1.0);
        let orders = p.balancing_orders(&snap.view());
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].from, 0);
        assert_eq!(orders[0].to, 1);
        assert_eq!(orders[0].tasks, 41);
        // K = 0.5 ships half.
        let half = Lbp2::new(0.5);
        assert_eq!(half.balancing_orders(&snap.view())[0].tasks, 21);
    }

    #[test]
    fn balanced_queues_produce_no_orders() {
        let snap = paper_nodes([108, 186]);
        let p = Lbp2::new(1.0);
        assert!(p.balancing_orders(&snap.view()).is_empty());
    }

    #[test]
    fn eq8_matches_hand_computation() {
        // Checked in DESIGN notes: node 1 fails -> ships
        // ⌊0.5 · (1.86/2.94) · (1.08·10)⌋ = ⌊3.417⌋ = 3 tasks to node 2;
        // node 2 fails -> ⌊(2/3)·(1.08/2.94)·(1.86·20)⌋ = ⌊9.11⌋ = 9 tasks.
        let p = Lbp2::new(1.0);
        let snap = paper_nodes([100, 60]);
        let v = snap.view();
        let f1 = p.failure_orders(0, &v);
        assert_eq!(
            f1,
            vec![TransferOrder {
                from: 0,
                to: 1,
                tasks: 3
            }]
        );
        let f2 = p.failure_orders(1, &v);
        assert_eq!(
            f2,
            vec![TransferOrder {
                from: 1,
                to: 0,
                tasks: 9
            }]
        );
    }

    #[test]
    fn eq8_amounts_are_queue_independent_constants() {
        // §4: "the amount of load to be transferred at every failure
        // instant happens to be a constant" — it depends on rates only.
        let p = Lbp2::new(1.0);
        let heavy = paper_nodes([100, 60]);
        let light = paper_nodes([3, 200]);
        let a = p.failure_orders(0, &heavy.view());
        let b = p.failure_orders(0, &light.view());
        assert_eq!(a, b);
    }

    #[test]
    fn ablations_change_eq8() {
        let snap = paper_nodes([100, 60]);
        let v = snap.view();
        let full = Lbp2::new(1.0).failure_orders(1, &v)[0].tasks;
        let no_avail = Lbp2::new(1.0)
            .without_availability_weight()
            .failure_orders(1, &v)[0]
            .tasks;
        // availability of node 1 is 2/3 < 1, so dropping it ships more.
        assert!(no_avail > full, "{no_avail} vs {full}");
        let no_speed = Lbp2::new(1.0).without_speed_weight().failure_orders(1, &v)[0].tasks;
        // node 1's speed share is 0.367 < 1/(n-1) = 1 -> unweighted ships more.
        assert!(no_speed > full);
    }

    #[test]
    fn simulation_fires_compensation_at_failures() {
        let cfg = SystemConfig::paper([100, 60]);
        let mut p = Lbp2::new(1.0);
        let out = simulate(&cfg, &mut p, 21, SimOptions::default());
        assert!(out.completed);
        if out.metrics.counters.failures > 0 {
            assert!(
                out.metrics.counters.transfers >= 1,
                "failures occurred but no compensation transfers"
            );
        }
    }

    #[test]
    fn optimal_initial_gain_is_high_for_paper_workloads() {
        // Paper Table 2: K = 1.00 for (100, 60)-style workloads (small
        // delay — strong balancing pays off).
        let k = Lbp2::optimal_initial_gain(&SystemConfig::paper([100, 60]));
        assert!(k > 0.8, "expected near-unity gain, got {k}");
    }

    #[test]
    fn optimal_gain_of_balanced_system_defaults_to_one() {
        let k = Lbp2::optimal_initial_gain(&SystemConfig::paper([108, 186]));
        assert_eq!(k, 1.0);
    }

    #[test]
    fn policy_name_reflects_ablations() {
        assert_eq!(Lbp2::new(1.0).name(), "LBP-2");
        assert_eq!(
            Lbp2::new(1.0).without_speed_weight().name(),
            "LBP-2 (no speed weight)"
        );
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn bad_gain_rejected() {
        let _ = Lbp2::new(-0.1);
    }

    fn four_nodes(queues: [u32; 4]) -> SystemSnapshot {
        let rows: Vec<NodeView> = queues
            .iter()
            .enumerate()
            .map(|(id, &q)| NodeView {
                id,
                queue_len: q,
                up: true,
                service_rate: 1.0 + 0.2 * id as f64,
                failure_rate: 0.05,
                recovery_rate: 0.1 + 0.05 * id as f64,
            })
            .collect();
        SystemSnapshot::from_nodes(&rows).with_context(0.0, 0.02, 0)
    }

    /// An explicit complete topology and the implicit one (no topology)
    /// must yield bit-identical orders — the complete graph *is* the
    /// paper's model, just spelled out.
    #[test]
    fn complete_topology_reproduces_the_global_scan_bit_for_bit() {
        use churnbal_cluster::Topology;
        let queues = [90, 3, 41, 0];
        let implicit = four_nodes(queues);
        let explicit = four_nodes(queues).with_topology(Topology::complete(4).expect("valid"));
        let p = Lbp2::new(0.7);
        assert_eq!(
            p.balancing_orders(&implicit.view()),
            p.balancing_orders(&explicit.view())
        );
        for j in 0..4 {
            assert_eq!(
                p.failure_orders(j, &implicit.view()),
                p.failure_orders(j, &explicit.view()),
                "failure of node {j}"
            );
        }
    }

    /// On a ring every order follows an edge and the Eq. 8 denominator
    /// shrinks to the closed neighborhood.
    #[test]
    fn ring_topology_keeps_orders_on_edges() {
        use churnbal_cluster::Topology;
        let snap = four_nodes([120, 0, 0, 0]).with_topology(Topology::ring(4).expect("valid"));
        let topo = Topology::ring(4).expect("valid");
        let p = Lbp2::new(1.0);
        let v = snap.view();
        let balancing = p.balancing_orders(&v);
        assert!(!balancing.is_empty());
        for j in 0..4 {
            for o in p.failure_orders(j, &v) {
                assert!(topo.contains_edge(o.from, o.to), "{o:?} off the ring");
                assert_eq!(o.from, j);
            }
        }
        for o in &balancing {
            assert!(topo.contains_edge(o.from, o.to), "{o:?} off the ring");
        }
        // Node 0's neighbors on the 4-ring are 1 and 3; node 2 is two
        // hops away and must receive nothing directly.
        assert!(balancing.iter().all(|o| !(o.from == 0 && o.to == 2)));
    }
}
