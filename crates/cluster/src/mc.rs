//! Parallel Monte-Carlo replication runner.
//!
//! The paper estimates LBP-2 performance from 60 experimental and 500
//! Monte-Carlo realisations; [`run_replications`] runs such replication
//! studies in parallel with results that are **bit-identical for any
//! thread count**: replication `r` always uses the random streams derived
//! from `(master_seed, r)`, workers fill replication-ordered result
//! blocks, and the final reduction is sequential. The result is the
//! scheduler's one cell result, [`PointStats`]: the surviving
//! replications' columns and summed counters, with
//! [`PointStats::mean`] and [`PointStats::ci95`] as its estimates.

use crate::config::SystemConfig;
use crate::engine::SimOptions;
use crate::exec::{run_grid, PointJob, PointStats};
use crate::policy::Policy;

/// Runs `reps` independent replications of `config` under the policy built
/// by `make_policy(replication_index)` and collects their results.
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
) -> PointStats
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
    stats.expect("one point always completes")
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
        // The counter totals are the sums of the per-replication columns.
        assert_eq!(e.counters.failures, e.failures_per_rep.iter().sum::<u64>());
        assert_eq!(
            e.counters.tasks_shipped,
            e.tasks_shipped_per_rep.iter().sum::<u64>()
        );
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
        // A zero task timeout quarantines every replication: nothing
        // survives, so nothing is counted and no statistic exists.
        let cfg = SystemConfig::paper([20, 12]);
        let opts = SimOptions {
            task_timeout: Some(0.0),
            ..SimOptions::default()
        };
        let e = run_replications(&cfg, &|_| NoBalancing, 2, 7, 1, opts);
        assert_eq!(e.quarantined_reps, vec![0, 1]);
        assert!(e.completion_times.is_empty() && e.failures_per_rep.is_empty());
        assert_eq!(e.counters, crate::metrics::Counters::default());
        for (name, value) in [("mean", e.mean()), ("ci95", e.ci95())] {
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
