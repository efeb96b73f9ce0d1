//! Proof of the zero-allocation hot path: a counting global allocator
//! wraps the system allocator, and a warmed-up simulator must drive entire
//! replications — event scheduling, cancellation, pops, policy callbacks
//! (`view_at` + hook + `apply_orders`) — without a single allocation.
//!
//! This file deliberately holds ONE test: the counter is process-global,
//! and the default test harness runs sibling tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use churnbal::cluster::{
    run_grid, ChurnModel, NetworkConfig, NodeConfig, PointJob, SimOptions, Simulator, SystemConfig,
};
use churnbal::core::Lbp2;
use churnbal::desim::EventQueue;
use churnbal::stochastic::StreamFactory;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Only an explicitly armed thread is counted. The libtest *main*
    /// thread occasionally allocates while our test runs on the test
    /// thread — its blocking channel `recv()` lazily builds an mpmc
    /// context and registers a waker when it actually has to park —
    /// and that harness noise must not fail the gate. `Cell<bool>`
    /// with a `const` initializer compiles to a plain `#[thread_local]`
    /// access: no lazy init, no drop registration, and crucially no
    /// allocation from inside the allocator itself.
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

// The safety obligations are exactly `System`'s — every call is forwarded
// verbatim; the counter has no effect on layout or pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(std::cell::Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(std::cell::Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` on this thread with counting armed and returns how many
/// allocations it performed. Everything measured in this file is
/// single-threaded (the scheduler sections pass `threads = 1`, which
/// runs inline on the calling thread), so arming one thread sees every
/// allocation under test.
fn count_allocs(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = allocations();
    f();
    let n = allocations() - before;
    COUNTING.with(|c| c.set(false));
    n
}

#[test]
fn warm_simulation_hot_path_does_not_allocate() {
    // --- 1. The event queue alone: schedule/cancel/pop churn in steady
    //        state reuses slots and heap capacity.
    let mut q = EventQueue::new();
    for round in 0..64u32 {
        let a = q.schedule_in(0.5, round);
        q.schedule_in(1.0, round);
        q.cancel(a);
        q.pop();
    }
    while q.pop().is_some() {}
    let queue_allocs = count_allocs(|| {
        for round in 0..512u32 {
            let a = q.schedule_in(0.5, round);
            q.schedule_in(1.0, round);
            assert!(q.cancel(a));
            q.pop();
        }
        while q.pop().is_some() {}
    });
    assert_eq!(
        queue_allocs, 0,
        "EventQueue schedule/cancel/pop allocated after warm-up"
    );

    // --- 2. Whole replications on the paper system under LBP-2 (start
    //        balancing + Eq. 8 failure compensation): after one warm-up
    //        run, an identical reset + run allocates nothing.
    let paper = SystemConfig::paper([100, 60]);
    assert_run_is_allocation_free(&paper, 11, "paper two-node");

    // --- 3. A cancel-heavy multi-node system: cascading churn redraws
    //        every pending failure event at each churn transition, and the
    //        multi-node Eq. 6-7 partition exercises the n-node order path.
    let cascading = SystemConfig::new(
        (0..8)
            .map(|_| NodeConfig::new(1.0, 0.05, 0.4, 25))
            .collect(),
        NetworkConfig::exponential(0.01),
    )
    .with_churn_model(ChurnModel::Cascading { amplification: 2.0 });
    assert_run_is_allocation_free(&cascading, 17, "cascading eight-node");

    // --- 4. A warmed-up *sweep point* under the grid scheduler: re-running
    //        an entire already-warmed point (rebind + every replication)
    //        adds only the constant per-point result-buffer cost — zero
    //        allocations per replication — and that constant does not grow
    //        with the replication count.
    assert_warm_sweep_point_is_allocation_free(4);
    assert_warm_sweep_point_is_allocation_free(16);
}

/// Runs the scheduler on `[A, B]` and on `[A, B, B]` (the trailing point
/// repeated): the extra point replays `B`'s exact `(seed, r)` trajectories
/// on a simulator already warmed by the first `B`, so the allocation
/// delta is the per-point constant (result vectors and their hand-off)
/// and must not depend on `reps`.
fn assert_warm_sweep_point_is_allocation_free(reps: u64) {
    let point_a = SystemConfig::paper([40, 25]);
    let point_b = SystemConfig::new(
        (0..4)
            .map(|_| NodeConfig::new(1.0, 0.05, 0.4, 15))
            .collect(),
        NetworkConfig::exponential(0.01),
    );
    let job = |config, reps| PointJob {
        config,
        reps,
        seed: 23,
        rep_base: 0,
        antithetic: false,
        options: SimOptions::default(),
    };
    let count_run = |jobs: &[PointJob<'_>]| -> u64 {
        count_allocs(|| {
            run_grid(jobs, &|_, _| Lbp2::new(1.0), 1, 0, |_, stats| {
                assert!(!stats.completion_times.is_empty());
                Ok(())
            })
            .expect("grid runs");
        })
    };
    let base = [job(&point_a, reps), job(&point_b, reps)];
    let with_warm_repeat = [
        job(&point_a, reps),
        job(&point_b, reps),
        job(&point_b, reps),
    ];
    // Warm-up invocations: let lazy process-level one-time costs land.
    let _ = count_run(&base);
    let _ = count_run(&with_warm_repeat);
    let base_allocs = count_run(&base);
    let repeat_allocs = count_run(&with_warm_repeat);
    let per_warm_point = repeat_allocs.saturating_sub(base_allocs);
    assert!(
        per_warm_point <= 8,
        "re-running a warmed sweep point of {reps} replications performed \
         {per_warm_point} allocations — the hot path must only pay the \
         constant per-point result hand-off (base {base_allocs}, with \
         repeat {repeat_allocs})"
    );
}

fn assert_run_is_allocation_free(config: &SystemConfig, seed: u64, label: &str) {
    let factory = StreamFactory::new(seed);
    let sub = factory.subfactory(0);
    let mut policy = Lbp2::new(1.0);
    let mut sim = Simulator::new(config, &sub, SimOptions::default());
    // Warm-up: reach the high-water marks of the event queue, the order
    // sink and every scratch buffer on the exact trajectory we re-run.
    let warm = sim.run_summary(&mut policy);
    assert!(warm.completed, "{label}: warm-up must complete");
    sim.reset(&sub);
    let mut summary = None;
    let steady_allocs = count_allocs(|| summary = Some(sim.run_summary(&mut policy)));
    let summary = summary.expect("run completed");
    assert_eq!(
        summary.completion_time, warm.completion_time,
        "{label}: reset must replay the warm-up trajectory"
    );
    assert!(
        summary.events > 100,
        "{label}: workload too trivial to prove anything"
    );
    assert_eq!(
        steady_allocs, 0,
        "{label}: a warmed-up replication performed {steady_allocs} allocations \
         (events: {})",
        summary.events
    );
}
