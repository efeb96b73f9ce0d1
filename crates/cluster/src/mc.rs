//! Parallel Monte-Carlo replication runner.
//!
//! The paper estimates LBP-2 performance from 60 experimental and 500
//! Monte-Carlo realisations; this module runs such replication studies in
//! parallel with results that are **bit-identical for any thread count**:
//! replication `r` always uses the random streams derived from
//! `(master_seed, r)`, worker threads write into disjoint slots of a
//! pre-allocated result vector, and the final reduction is sequential.

use churnbal_stochastic::OnlineStats;

use crate::config::SystemConfig;
use crate::engine::SimOptions;
use crate::exec::{run_grid, PointJob, PointStats};
use crate::policy::Policy;
use crate::probe::ProbeReport;

/// Aggregated replication results.
#[derive(Clone, Debug)]
pub struct McEstimate {
    /// Completion-time statistics across replications.
    pub completion: OnlineStats,
    /// Raw completion times, indexed by replication (for ECDFs etc.).
    pub completion_times: Vec<f64>,
    /// Failures observed in each replication (same indexing as
    /// [`McEstimate::completion_times`]) — lets sweep harnesses report
    /// dispersion, not just the mean.
    pub failures_per_rep: Vec<u64>,
    /// Tasks shipped in each replication (same indexing).
    pub tasks_shipped_per_rep: Vec<u64>,
    /// Total engine events dispatched across all replications — the
    /// numerator of `perfreport`'s events/sec throughput figure.
    pub total_events: u64,
    /// Mean number of failures per replication.
    pub mean_failures: f64,
    /// Mean tasks shipped per replication.
    pub mean_tasks_shipped: f64,
    /// Mean node recoveries per replication.
    pub mean_recoveries: f64,
    /// Mean transfer batches per replication.
    pub mean_transfers: f64,
    /// Mean tasks clamped per replication (policy orders the source queue
    /// could not supply).
    pub mean_tasks_clamped: f64,
    /// Mean tasks permanently lost by the transfer channel per
    /// replication (0 under [`crate::ChannelModel::Reliable`]).
    pub mean_tasks_lost: f64,
    /// Mean channel redelivery attempts per replication.
    pub mean_retries: f64,
    /// Mean bounced batches per replication.
    pub mean_bounces: f64,
    /// Mean in-transit task·seconds per replication.
    pub mean_transit_task_seconds: f64,
    /// Replications that hit the deadline without completing.
    pub incomplete: u64,
    /// Replications quarantined (panicked or timed out) and therefore
    /// *excluded* from every vector and mean above. A nonzero count marks
    /// the estimate as degraded — fewer samples than requested, never a
    /// silent average over garbage. When no replication survived, every
    /// per-replication statistic is `NaN`: [`McEstimate::mean`],
    /// [`McEstimate::ci95`] and each `mean_*` field.
    pub quarantined: u64,
    /// Per-replication probe telemetry, in replication order; empty when
    /// probing is off (see [`SimOptions::probe_dt`]).
    pub probes: Vec<ProbeReport>,
}

impl McEstimate {
    /// Sample mean of the completion time; `NaN` without a surviving
    /// replication.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.survived(self.completion.mean())
    }

    /// 95% confidence half-width of the mean; `NaN` without a surviving
    /// replication.
    #[must_use]
    pub fn ci95(&self) -> f64 {
        self.survived(self.completion.ci95_half_width())
    }

    /// `statistic`, or `NaN` when no replication survived: an empty
    /// sample has no statistic, and a made-up 0.0 would read as data.
    fn survived(&self, statistic: f64) -> f64 {
        if self.completion.count() == 0 {
            f64::NAN
        } else {
            statistic
        }
    }

    /// Aggregates one scheduler point into the estimate form — the shared
    /// reduction of [`run_replications`] and the sweep runner. Sequential
    /// and in replication order, so the aggregate is a pure function of
    /// the slot-stable per-replication vectors.
    ///
    /// Quarantined replications (see [`PointStats::quarantined_reps`])
    /// are dropped from the per-replication vectors before any mean is
    /// formed — their slots hold placeholder zeros, and averaging them in
    /// would silently corrupt the estimate. On a clean point the filter
    /// is a no-op and the aggregate is byte-identical to the
    /// pre-quarantine reduction.
    #[must_use]
    pub fn from_point_stats(stats: PointStats) -> Self {
        let PointStats {
            mut completion_times,
            mut failures_per_rep,
            mut tasks_shipped_per_rep,
            quarantined_reps,
            ..
        } = stats;
        if !quarantined_reps.is_empty() {
            // Drop the placeholder slots, preserving replication order
            // (quarantined_reps is small — a linear scan per slot is
            // cheaper than building a mask).
            let keep = |r: &mut usize| {
                let k = !quarantined_reps.contains(&(*r as u64));
                *r += 1;
                k
            };
            let mut i = 0;
            completion_times.retain(|_| keep(&mut i));
            let mut i = 0;
            failures_per_rep.retain(|_| keep(&mut i));
            let mut i = 0;
            tasks_shipped_per_rep.retain(|_| keep(&mut i));
        }
        let reps = completion_times.len() as f64;
        // Without a surviving replication every mean is NaN, whatever the
        // totals hold.
        let per_rep = |total: f64| if reps > 0.0 { total / reps } else { f64::NAN };
        let mut completion = OnlineStats::new();
        for &t in &completion_times {
            completion.push(t);
        }
        Self {
            completion,
            total_events: stats.total_events,
            mean_failures: per_rep(failures_per_rep.iter().sum::<u64>() as f64),
            mean_tasks_shipped: per_rep(tasks_shipped_per_rep.iter().sum::<u64>() as f64),
            mean_recoveries: per_rep(stats.total_recoveries as f64),
            mean_transfers: per_rep(stats.total_transfers as f64),
            mean_tasks_clamped: per_rep(stats.total_tasks_clamped as f64),
            mean_tasks_lost: per_rep(stats.total_tasks_lost as f64),
            mean_retries: per_rep(stats.total_retries as f64),
            mean_bounces: per_rep(stats.total_bounces as f64),
            mean_transit_task_seconds: per_rep(stats.transit_task_seconds),
            completion_times,
            failures_per_rep,
            tasks_shipped_per_rep,
            incomplete: stats.incomplete,
            quarantined: quarantined_reps.len() as u64,
            probes: stats.probes,
        }
    }
}

/// Runs `reps` independent replications of `config` under the policy built
/// by `make_policy(replication_index)` and aggregates completion times.
///
/// `threads = 0` picks the available parallelism. Results are independent
/// of the thread count.
///
/// # Panics
/// Panics if `reps == 0`.
#[must_use]
pub fn run_replications<P, F>(
    config: &SystemConfig,
    make_policy: &F,
    reps: u64,
    master_seed: u64,
    threads: usize,
    options: SimOptions,
) -> McEstimate
where
    P: Policy,
    F: Fn(u64) -> P + Sync,
{
    assert!(reps > 0, "need at least one replication");
    // A replication study is a one-point grid: the shared sweep scheduler
    // of [`crate::exec`] supplies the worker pool, the per-worker
    // simulator reuse ([`crate::engine::Simulator::reset`]) and the
    // replication-ordered result blocks, so `run`, `compare`, the bench
    // harness and the lab's sweeps all exercise the same execution path.
    let job = PointJob {
        config,
        reps,
        seed: master_seed,
        rep_base: 0,
        antithetic: false,
        options,
    };
    let mut stats = None;
    run_grid(
        std::slice::from_ref(&job),
        &|_, r| make_policy(r),
        threads,
        0,
        |_, s| {
            stats = Some(s);
            Ok(())
        },
    )
    .expect("infallible sink");
    McEstimate::from_point_stats(stats.expect("one point always completes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::policy::NoBalancing;

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = SystemConfig::paper([20, 12]);
        let opts = SimOptions::default();
        let a = run_replications(&cfg, &|_| NoBalancing, 64, 42, 1, opts);
        let b = run_replications(&cfg, &|_| NoBalancing, 64, 42, 4, opts);
        let c = run_replications(&cfg, &|_| NoBalancing, 64, 42, 7, opts);
        assert_eq!(a.completion_times, b.completion_times);
        assert_eq!(a.completion_times, c.completion_times);
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn seeds_change_results() {
        let cfg = SystemConfig::paper([20, 12]);
        let opts = SimOptions::default();
        let a = run_replications(&cfg, &|_| NoBalancing, 16, 1, 2, opts);
        let b = run_replications(&cfg, &|_| NoBalancing, 16, 2, 2, opts);
        assert_ne!(a.completion_times, b.completion_times);
    }

    #[test]
    fn replications_are_mutually_independent_slots() {
        // Running 8 reps and 16 reps: the first 8 completion times agree.
        let cfg = SystemConfig::paper([10, 5]);
        let opts = SimOptions::default();
        let small = run_replications(&cfg, &|_| NoBalancing, 8, 9, 3, opts);
        let large = run_replications(&cfg, &|_| NoBalancing, 16, 9, 3, opts);
        assert_eq!(small.completion_times[..], large.completion_times[..8]);
    }

    #[test]
    fn ci_shrinks_with_replications() {
        let cfg = SystemConfig::paper([15, 10]);
        let opts = SimOptions::default();
        let a = run_replications(&cfg, &|_| NoBalancing, 32, 5, 0, opts);
        let b = run_replications(&cfg, &|_| NoBalancing, 512, 5, 0, opts);
        assert!(b.ci95() < a.ci95());
    }

    #[test]
    fn per_replication_vectors_are_exposed_and_consistent() {
        let cfg = SystemConfig::paper([30, 20]);
        let opts = SimOptions::default();
        let reps = 32;
        let e = run_replications(&cfg, &|_| NoBalancing, reps, 77, 3, opts);
        assert_eq!(e.failures_per_rep.len(), reps as usize);
        assert_eq!(e.tasks_shipped_per_rep.len(), reps as usize);
        let mean_f = e.failures_per_rep.iter().sum::<u64>() as f64 / reps as f64;
        let mean_s = e.tasks_shipped_per_rep.iter().sum::<u64>() as f64 / reps as f64;
        assert!((mean_f - e.mean_failures).abs() < 1e-12);
        assert!((mean_s - e.mean_tasks_shipped).abs() < 1e-12);
        // NoBalancing never ships; churn produces some failures somewhere.
        assert!(e.tasks_shipped_per_rep.iter().all(|&s| s == 0));
        assert!(e.failures_per_rep.iter().any(|&f| f > 0));
        // Vectors are slot-stable across thread counts, like the times.
        let e2 = run_replications(&cfg, &|_| NoBalancing, reps, 77, 7, opts);
        assert_eq!(e.failures_per_rep, e2.failures_per_rep);
        assert_eq!(e.tasks_shipped_per_rep, e2.tasks_shipped_per_rep);
    }

    #[test]
    fn an_estimate_without_survivors_has_no_statistics() {
        // One replication, quarantined: its slots hold placeholder zeros,
        // and its counters may have run partway before it was lost.
        let stats = PointStats {
            completion_times: vec![0.0],
            failures_per_rep: vec![0],
            tasks_shipped_per_rep: vec![0],
            total_recoveries: 3,
            total_tasks_lost: 1,
            transit_task_seconds: 0.5,
            quarantined_reps: vec![0],
            ..PointStats::default()
        };
        let e = McEstimate::from_point_stats(stats);
        assert_eq!(e.quarantined, 1);
        assert!(e.completion_times.is_empty());
        for (name, value) in [
            ("mean", e.mean()),
            ("ci95", e.ci95()),
            ("mean_failures", e.mean_failures),
            ("mean_tasks_shipped", e.mean_tasks_shipped),
            ("mean_recoveries", e.mean_recoveries),
            ("mean_transfers", e.mean_transfers),
            ("mean_tasks_clamped", e.mean_tasks_clamped),
            ("mean_tasks_lost", e.mean_tasks_lost),
            ("mean_retries", e.mean_retries),
            ("mean_bounces", e.mean_bounces),
            ("mean_transit_task_seconds", e.mean_transit_task_seconds),
        ] {
            assert!(value.is_nan(), "{name} = {value}, want NaN");
        }
    }

    #[test]
    fn incomplete_runs_are_counted() {
        let cfg = SystemConfig::paper([5000, 5000]);
        let opts = SimOptions {
            deadline: Some(0.5),
            ..SimOptions::default()
        };
        let e = run_replications(&cfg, &|_| NoBalancing, 8, 5, 2, opts);
        assert_eq!(e.incomplete, 8);
    }
}
