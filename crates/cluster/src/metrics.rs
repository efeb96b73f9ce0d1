//! Per-run summary metrics.
//!
//! Every per-run count lives in one [`Counters`] record: the engine
//! increments the fields of [`Metrics::counters`], the scheduler sums one
//! record per cell ([`crate::PointStats::counters`]), and the lab's rows
//! carry that sum. A new count is one `Counters` field, its line in
//! [`Counters::add`], its key in the lab's cell file (render and parse)
//! and its output column; `add` and the cell file take the record apart
//! or build it whole, so a count left out of either does not compile.

/// The per-run counts of one replication, or their sum over a cell's
/// replications.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events the engine executed (a deadline-exceeding pop is not
    /// counted). The throughput numerator of the `perfreport` harness.
    pub events: u64,
    /// Node failures observed.
    pub failures: u64,
    /// Node recoveries observed.
    pub recoveries: u64,
    /// Transfer batches initiated.
    pub transfers: u64,
    /// Tasks shipped between nodes.
    pub tasks_shipped: u64,
    /// Tasks a policy ordered but the source queue could not supply
    /// (requests are clamped; a large value flags a mis-tuned policy).
    pub tasks_clamped: u64,
    /// Tasks permanently lost by the transfer channel (dead-lettered
    /// after exhausting redelivery). Always 0 under
    /// [`crate::ChannelModel::Reliable`].
    pub tasks_lost: u64,
    /// Channel redelivery attempts (each backoff reschedule counts once).
    pub retries: u64,
    /// Batches bounced off a down destination back into the retry
    /// protocol ([`crate::config::DownPolicy::Bounce`]).
    pub bounces: u64,
}

impl Counters {
    /// Adds `other` field by field — integer sums, exact in any order
    /// (the destructuring breaks the build when a field is added unsummed).
    pub fn add(&mut self, other: &Self) {
        let Self {
            events,
            failures,
            recoveries,
            transfers,
            tasks_shipped,
            tasks_clamped,
            tasks_lost,
            retries,
            bounces,
        } = *other;
        self.events += events;
        self.failures += failures;
        self.recoveries += recoveries;
        self.transfers += transfers;
        self.tasks_shipped += tasks_shipped;
        self.tasks_clamped += tasks_clamped;
        self.tasks_lost += tasks_lost;
        self.retries += retries;
        self.bounces += bounces;
    }
}

/// Counters and integrals collected during one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// The run's counts.
    pub counters: Counters,
    /// Tasks processed by each node.
    pub processed_per_node: Vec<u64>,
    /// Total down-time accumulated by each node (seconds).
    pub downtime_per_node: Vec<f64>,
    /// Time-integral of the number of in-transit tasks (task·seconds) —
    /// measures the "volume of loads in transit" the paper worries about
    /// for high failure rates (§1).
    pub transit_task_seconds: f64,
}

impl Metrics {
    /// Fresh metrics for an `n`-node run.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            counters: Counters::default(),
            processed_per_node: vec![0; n],
            downtime_per_node: vec![0.0; n],
            transit_task_seconds: 0.0,
        }
    }

    /// Total tasks processed across nodes.
    #[must_use]
    pub fn total_processed(&self) -> u64 {
        self.processed_per_node.iter().sum()
    }

    /// Zeroes every counter in place, keeping the per-node vectors'
    /// allocations — the reset path of a reused simulator.
    pub fn reset(&mut self) {
        let n = self.processed_per_node.len();
        self.reset_for(n);
    }

    /// [`Metrics::reset`] for a possibly different node count — the rebind
    /// path of a simulator reused across sweep grid points. Keeps the
    /// per-node vectors' allocations whenever capacity allows.
    pub fn reset_for(&mut self, n: usize) {
        self.counters = Counters::default();
        self.processed_per_node.clear();
        self.processed_per_node.resize(n, 0);
        self.downtime_per_node.clear();
        self.downtime_per_node.resize(n, 0.0);
        self.transit_task_seconds = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = Metrics::new(3);
        assert_eq!(m.total_processed(), 0);
        assert_eq!(m.processed_per_node.len(), 3);
        assert_eq!(m.downtime_per_node.len(), 3);
        assert_eq!(m.counters, Counters::default());
    }

    #[test]
    fn totals_sum_over_nodes() {
        let mut m = Metrics::new(2);
        m.processed_per_node[0] = 10;
        m.processed_per_node[1] = 32;
        assert_eq!(m.total_processed(), 42);
    }

    #[test]
    fn reset_for_resizes_to_the_new_node_count() {
        let mut m = Metrics::new(4);
        m.processed_per_node[3] = 9;
        m.downtime_per_node[0] = 2.0;
        m.reset_for(2);
        assert_eq!(m, Metrics::new(2));
        m.reset_for(6);
        assert_eq!(m, Metrics::new(6));
    }

    #[test]
    fn reset_restores_the_zero_state() {
        let mut m = Metrics::new(2);
        m.counters.events = 9;
        m.counters.bounces = 1;
        m.processed_per_node[1] = 5;
        m.downtime_per_node[0] = 1.5;
        m.transit_task_seconds = 0.25;
        m.reset();
        assert_eq!(m, Metrics::new(2));
    }
}
