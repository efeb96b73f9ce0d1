//! The sweep scheduler: one shared worker pool over the flattened
//! `(grid point, policy, replication)` index space, behind the single
//! entry point [`run_grid`].
//!
//! The Monte-Carlo runner of `mc` parallelises replications *within* one
//! system; a parameter sweep runs many systems, and driving them through
//! that runner point-by-point erects a thread barrier at every grid point
//! — workers idle whenever a point has fewer replications than the
//! machine has cores, and every point pays a fresh spawn/join round.
//! This module removes the barrier:
//!
//! * the whole grid is flattened into one task space, task `t` being the
//!   `r`-th replication of one `(point, policy)` cell (cells point-major,
//!   replications in index order within a cell);
//! * a fixed pool of workers claims **chunks** of that space from a single
//!   atomic cursor (a lock-light chunked work queue: claiming costs one
//!   `fetch_add`, and idle workers automatically "steal" whatever the
//!   busy ones have not claimed yet);
//! * each worker owns one long-lived [`Simulator`] and cycles it through
//!   [`Simulator::reset`] within a point and [`Simulator::rebind`] across
//!   points, so simulator allocations are per-worker, not per-point;
//! * results scatter into pre-sized **slot-stable** per-cell buffers
//!   (atomic cells indexed by replication), and completed cells drain
//!   through a reorder buffer so the caller's `on_cell` callback fires in
//!   **`(point, policy)` order** even when a later cell finishes first.
//!
//! Determinism: replication `r` of point `p` always runs on the streams
//! derived from `(jobs[p].seed, r)` — worker placement, thread count and
//! chunk size cannot change a single sampled value, only who computes it.
//! The in-order drain then makes the *observable output* (rows, bytes)
//! independent of scheduling too; both invariants are pinned by tests.
//!
//! The **policy axis** shares those streams: `N` policies evaluate per
//! grid point in one pass, every variant's replication `r` reusing the
//! *identical* `(seed, r)` streams — common random numbers across
//! policies by construction, which is what makes paired policy deltas a
//! variance-reduction device rather than a subtraction of noise. Cells a
//! caller already holds (a result cache) come in through `preloaded` and
//! are emitted at their turn without running a replication.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use churnbal_stochastic::StreamFactory;

use crate::config::SystemConfig;
use crate::engine::{RunSummary, SimOptions, Simulator};
use crate::policy::Policy;
use crate::probe::ProbeReport;

/// One grid point to execute: a system, how many replications, and the
/// master seed its streams derive from.
#[derive(Clone, Copy, Debug)]
pub struct PointJob<'a> {
    /// The system under test.
    pub config: &'a SystemConfig,
    /// Replications to run (must be ≥ 1).
    pub reps: u64,
    /// Master seed: local replication `r` uses the streams of **global**
    /// replication `g = rep_base + r` (see [`PointJob::rep_base`]).
    pub seed: u64,
    /// Global index of this job's first replication on the `(seed, r)`
    /// stream map: local replication `r` runs as global replication
    /// `rep_base + r`. Round-based schedulers (the campaign engine) set
    /// this to the replications already accumulated, so every round
    /// continues the *same* deterministic stream sequence an unrounded
    /// `reps = rep_base + reps` job would have used. Plain sweeps leave
    /// it 0.
    pub rep_base: u64,
    /// Antithetic replication pairing: when set, global replication `2k`
    /// uses `subfactory(k)` and `2k+1` uses `subfactory(k).antithetic()`
    /// (all uniforms mirrored `≈ 1 − u`), negatively correlating each
    /// pair — a variance-reduction mode for campaign runs. When unset,
    /// global replication `g` uses `subfactory(g)` (the historical map).
    pub antithetic: bool,
    /// Engine options (deadline; traces are not collected by the
    /// scheduler).
    pub options: SimOptions,
}

impl PointJob<'_> {
    /// The `(seed, r)` stream map: the [`StreamFactory`] of this job's
    /// local replication `r`, honouring `rep_base` and `antithetic`.
    #[must_use]
    pub fn streams_for_rep(&self, r: u64) -> StreamFactory {
        let g = self.rep_base + r;
        if self.antithetic {
            let f = StreamFactory::new(self.seed).subfactory(g / 2);
            if g % 2 == 1 {
                f.antithetic()
            } else {
                f
            }
        } else {
            StreamFactory::new(self.seed).subfactory(g)
        }
    }
}

/// Slot-stable per-replication results of one completed grid point, in
/// replication order.
#[derive(Clone, Debug, Default)]
pub struct PointStats {
    /// Completion time of each replication.
    pub completion_times: Vec<f64>,
    /// Failures observed in each replication.
    pub failures_per_rep: Vec<u64>,
    /// Tasks shipped in each replication.
    pub tasks_shipped_per_rep: Vec<u64>,
    /// Replications that hit the deadline without completing.
    pub incomplete: u64,
    /// Engine events dispatched across all replications.
    pub total_events: u64,
    /// Node recoveries summed across replications.
    pub total_recoveries: u64,
    /// Transfer batches summed across replications.
    pub total_transfers: u64,
    /// Tasks ordered by policies but clamped for lack of supply, summed
    /// across replications.
    pub total_tasks_clamped: u64,
    /// Tasks permanently lost by the transfer channel, summed across
    /// replications (always 0 under [`crate::ChannelModel::Reliable`]).
    pub total_tasks_lost: u64,
    /// Channel redelivery attempts summed across replications.
    pub total_retries: u64,
    /// Batches bounced off down destinations, summed across replications.
    pub total_bounces: u64,
    /// In-transit task·seconds summed across replications — the sum runs
    /// in replication order on the drain thread, so the float total is
    /// schedule-invariant.
    pub transit_task_seconds: f64,
    /// Per-replication probe telemetry, in replication order; empty when
    /// probing is off (see [`SimOptions::probe_dt`]).
    pub probes: Vec<ProbeReport>,
    /// Replication indices that were quarantined (panicked, or aborted by
    /// the [`SimOptions::task_timeout`] watchdog), in ascending order.
    /// Their slots in the per-replication vectors hold placeholder zeros
    /// and must be skipped by every estimator — see
    /// [`crate::mc::McEstimate::from_point_stats`].
    pub quarantined_reps: Vec<u64>,
}

/// One quarantined `(point, policy, replication)` task: the sweep kept
/// going without it, and the failure is reported here instead of tearing
/// the whole run down.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineReport {
    /// Grid-point index.
    pub point: usize,
    /// Policy-variant index.
    pub policy: usize,
    /// Replication index within the point.
    pub rep: u64,
    /// The panic payload (for panicking tasks) or the watchdog verdict
    /// (for timed-out tasks).
    pub message: String,
}

/// Per-point result cells: replication-indexed atomics the workers
/// scatter into, plus the countdown that detects point completion.
struct PointCell {
    /// Completion times as `f64::to_bits`.
    times: Vec<AtomicU64>,
    failures: Vec<AtomicU64>,
    shipped: Vec<AtomicU64>,
    /// Bit `completed` per replication (1 = ran to completion).
    completed: Vec<AtomicBool>,
    /// Per-replication transit integrals as `f64::to_bits` — summed
    /// sequentially in replication order by [`PointCell::stats`], so the
    /// float total matches the inline schedule bit-exactly.
    transit: Vec<AtomicU64>,
    events: AtomicU64,
    recoveries: AtomicU64,
    transfers: AtomicU64,
    clamped: AtomicU64,
    lost: AtomicU64,
    retries: AtomicU64,
    bounces: AtomicU64,
    /// Per-replication probe reports, slot-stable like the atomics above
    /// (all `None` and never touched when probing is off).
    probes: Mutex<Vec<Option<ProbeReport>>>,
    /// Bit per replication: quarantined (panicked or timed out); its data
    /// slots hold placeholder zeros.
    quarantined: Vec<AtomicBool>,
    /// Replications still outstanding; the worker that decrements it to
    /// zero publishes the point.
    remaining: AtomicU64,
    /// Published flag the drain loop polls under the rendezvous lock.
    done: AtomicBool,
}

impl PointCell {
    fn new(reps: u64) -> Self {
        let n = usize::try_from(reps).expect("replication count fits usize");
        Self {
            times: (0..n).map(|_| AtomicU64::new(0)).collect(),
            failures: (0..n).map(|_| AtomicU64::new(0)).collect(),
            shipped: (0..n).map(|_| AtomicU64::new(0)).collect(),
            completed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            transit: (0..n).map(|_| AtomicU64::new(0)).collect(),
            events: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            transfers: AtomicU64::new(0),
            clamped: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            bounces: AtomicU64::new(0),
            probes: Mutex::new((0..n).map(|_| None).collect()),
            quarantined: (0..n).map(|_| AtomicBool::new(false)).collect(),
            remaining: AtomicU64::new(reps),
            done: AtomicBool::new(false),
        }
    }

    /// Reads the cells out as the caller-facing stats (called on the
    /// drain thread after the point is published).
    fn stats(&self) -> PointStats {
        let completion_times: Vec<f64> = self
            .times
            .iter()
            .map(|t| f64::from_bits(t.load(Ordering::Acquire)))
            .collect();
        let failures_per_rep: Vec<u64> = self
            .failures
            .iter()
            .map(|f| f.load(Ordering::Acquire))
            .collect();
        let tasks_shipped_per_rep: Vec<u64> = self
            .shipped
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect();
        let quarantined_reps: Vec<u64> = self
            .quarantined
            .iter()
            .enumerate()
            .filter(|(_, q)| q.load(Ordering::Acquire))
            .map(|(r, _)| r as u64)
            .collect();
        // Quarantined slots never completed, but they are lost, not
        // deadline-incomplete — count them in neither bucket.
        let incomplete = self
            .completed
            .iter()
            .zip(&self.quarantined)
            .filter(|(c, q)| !c.load(Ordering::Acquire) && !q.load(Ordering::Acquire))
            .count() as u64;
        let transit_task_seconds = self
            .transit
            .iter()
            .map(|t| f64::from_bits(t.load(Ordering::Acquire)))
            .sum();
        let probes = {
            let mut slots = self.probes.lock().expect("probe slots poisoned");
            slots.iter_mut().filter_map(Option::take).collect()
        };
        PointStats {
            completion_times,
            failures_per_rep,
            tasks_shipped_per_rep,
            incomplete,
            total_events: self.events.load(Ordering::Acquire),
            total_recoveries: self.recoveries.load(Ordering::Acquire),
            total_transfers: self.transfers.load(Ordering::Acquire),
            total_tasks_clamped: self.clamped.load(Ordering::Acquire),
            total_tasks_lost: self.lost.load(Ordering::Acquire),
            total_retries: self.retries.load(Ordering::Acquire),
            total_bounces: self.bounces.load(Ordering::Acquire),
            transit_task_seconds,
            probes,
            quarantined_reps,
        }
    }
}

/// Resolves the `threads = 0 means auto` convention shared with the
/// Monte-Carlo runner, clamped to the total task count.
fn resolve_threads(threads: usize, total_tasks: u64) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    threads
        .min(usize::try_from(total_tasks).unwrap_or(usize::MAX))
        .max(1)
}

/// Default chunk size: small enough to balance wildly unequal points
/// across workers, large enough that the claim `fetch_add` is noise.
/// Exposed through the `chunk = 0` convention.
fn resolve_chunk(chunk: usize, total_tasks: u64, threads: usize) -> u64 {
    if chunk != 0 {
        return chunk as u64;
    }
    // Aim for ~16 claims per worker, capped so tiny tails still spread.
    (total_tasks / (threads as u64 * 16)).clamp(1, 64)
}

/// Runtime instrumentation of one scheduler worker — wall-clock facts
/// about *how* the work was executed, deliberately separate from the
/// simulation results: counts depend on scheduling for `threads > 1` and
/// the timings always do, so nothing here is ever digested.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerReport {
    /// `(point, policy, replication)` tasks this worker executed.
    pub tasks: u64,
    /// Chunks claimed from the shared cursor (0 on the inline path, which
    /// claims nothing).
    pub chunks: u64,
    /// Claim attempts that found the task space exhausted.
    pub idle_claims: u64,
    /// Simulator rebinds — grid-point transitions, including the first
    /// binding of the worker's long-lived simulator.
    pub rebinds: u64,
    /// Engine events this worker dispatched.
    pub events: u64,
    /// Wall-clock seconds spent inside replications (excludes claim and
    /// rendezvous overhead).
    pub busy_seconds: f64,
}

impl WorkerReport {
    /// Events per busy second (0 when nothing ran).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.busy_seconds > 0.0 {
            self.events as f64 / self.busy_seconds
        } else {
            0.0
        }
    }
}

/// Aggregated runtime instrumentation of one scheduler pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecReport {
    /// One entry per worker, in spawn order (a single entry on the inline
    /// path).
    pub workers: Vec<WorkerReport>,
    /// Wall-clock seconds of the whole pass (spawn to drain).
    pub wall_seconds: f64,
    /// Tasks that panicked or timed out, sorted by
    /// `(point, policy, rep)`; empty on a clean pass. The sweep completed
    /// *around* these — their cells are degraded, never silently
    /// averaged.
    pub quarantines: Vec<QuarantineReport>,
}

impl ExecReport {
    /// Sums the per-worker rows.
    #[must_use]
    pub fn totals(&self) -> WorkerReport {
        let mut t = WorkerReport::default();
        for w in &self.workers {
            t.tasks += w.tasks;
            t.chunks += w.chunks;
            t.idle_claims += w.idle_claims;
            t.rebinds += w.rebinds;
            t.events += w.events;
            t.busy_seconds += w.busy_seconds;
        }
        t
    }

    /// Aggregate throughput: total engine events over the pass wall time.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.totals().events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Executes the full `(point, policy, replication)` task space of
/// `jobs × policies` on one shared worker pool and hands each cell's
/// [`PointStats`] to `on_cell(point, policy, stats)` **in lexicographic
/// `(point, policy)` order** as cells complete (a reorder buffer holds
/// early finishers), so a paired-delta consumer always sees a point's
/// baseline variant first. `make_policy(point, policy, rep)` builds one
/// replication's policy.
///
/// Replication `r` of *every* policy variant of point `p` runs on the
/// streams derived from `(jobs[p].seed, r)`: common random numbers across
/// the policy axis hold **by construction**, so per-replication deltas
/// between two policies of the same point are paired samples. Because all
/// variants of a point share one configuration, a worker moving between
/// them keeps its simulator bound ([`Simulator::reset`], not
/// [`Simulator::rebind`]).
///
/// `preloaded` is either empty (run every cell) or holds one slot per
/// `(point, policy)` cell, point-major. A `Some(stats)` slot is a cell
/// already completed elsewhere — a result cache — and is emitted at its
/// in-order turn without running a single replication; only `None` cells
/// are scheduled. The emitted byte stream is therefore identical however
/// the work was split between passes.
///
/// `threads = 0` picks the available parallelism and `chunk = 0` an
/// automatic claim size; results are independent of both. With
/// `threads == 1` no worker thread is spawned at all: the calling thread
/// executes the flattened task space in order, which is also the
/// bit-exact reference schedule for the parallel path. The returned
/// [`ExecReport`] is observational only and never digested.
///
/// # Errors
/// Propagates the first error `on_cell` returns; remaining work is
/// abandoned (workers stop at their next chunk claim).
///
/// # Panics
/// Panics if `policies == 0`, if any job has `reps == 0`, or if a
/// non-empty `preloaded` does not hold exactly `jobs.len() * policies`
/// slots. A panic *inside a task* does not propagate: the replication is
/// quarantined (see [`QuarantineReport`]) and the pass completes degraded.
pub fn run_grid<P, F, G>(
    jobs: &[PointJob<'_>],
    policies: usize,
    make_policy: &F,
    threads: usize,
    chunk: usize,
    mut preloaded: Vec<Option<PointStats>>,
    mut on_cell: G,
) -> Result<ExecReport, String>
where
    P: Policy,
    F: Fn(usize, usize, u64) -> P + Sync,
    G: FnMut(usize, usize, PointStats) -> Result<(), String>,
{
    assert!(policies > 0, "need at least one policy variant");
    assert!(
        jobs.iter().all(|j| j.reps > 0),
        "every grid point needs at least one replication"
    );
    if jobs.is_empty() {
        return Ok(ExecReport::default());
    }
    if preloaded.is_empty() {
        preloaded.resize(jobs.len() * policies, None);
    }
    assert_eq!(
        preloaded.len(),
        jobs.len() * policies,
        "one preloaded slot per (point, policy) cell"
    );
    let wall_start = Instant::now();
    // Pending cells (no preloaded result) form the flattened task space:
    // pending cell s owns flat indices [seg_starts[s], seg_starts[s+1]) —
    // its `reps` replications. With nothing preloaded this is exactly the
    // pre-resume task order: cells point-major, `reps` consecutive tasks
    // per policy variant, so a chunk tends to stay within one
    // (point, policy) run of simulator resets.
    let pending: Vec<usize> = (0..preloaded.len())
        .filter(|&idx| preloaded[idx].is_none())
        .collect();
    let mut seg_starts = Vec::with_capacity(pending.len() + 1);
    let mut acc = 0u64;
    for &idx in &pending {
        seg_starts.push(acc);
        acc += jobs[idx / policies].reps;
    }
    seg_starts.push(acc);
    let total = acc;
    let threads = resolve_threads(threads, total);

    if threads == 1 {
        return run_grid_inline(jobs, policies, make_policy, preloaded, &mut on_cell);
    }

    let chunk = resolve_chunk(chunk, total, threads);
    // One result cell per *pending* (point, policy), in pending order.
    let cells: Vec<PointCell> = pending
        .iter()
        .map(|&idx| PointCell::new(jobs[idx / policies].reps))
        .collect();
    let cursor = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    // Rendezvous for the drain loop: workers notify under the lock after
    // publishing a cell (or on panic, via the guard below).
    let rendezvous = (Mutex::new(()), Condvar::new());
    // One instrumentation slot per worker, in spawn order; each worker
    // accumulates locally and publishes once at exit.
    let worker_reports: Vec<Mutex<WorkerReport>> = (0..threads)
        .map(|_| Mutex::new(WorkerReport::default()))
        .collect();
    let quarantines: Mutex<Vec<QuarantineReport>> = Mutex::new(Vec::new());

    let mut result = Ok(());
    std::thread::scope(|scope| {
        for report_slot in &worker_reports {
            let cells = &cells;
            let cursor = &cursor;
            let abort = &abort;
            let rendezvous = &rendezvous;
            let seg_starts = &seg_starts;
            let pending = &pending;
            let quarantines = &quarantines;
            scope.spawn(move || {
                // Wake the drain loop even if this worker unwinds, so a
                // panicking worker cannot leave the main thread waiting
                // forever — the scope join then propagates the panic.
                // (Task panics are caught and quarantined inside
                // `run_one`; this guard covers scheduler bugs.)
                let _guard = NotifyOnDrop { rendezvous, abort };
                let mut sim: Option<(usize, Simulator<'_>)> = None;
                let mut local = WorkerReport::default();
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let begin = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if begin >= total {
                        local.idle_claims += 1;
                        break;
                    }
                    local.chunks += 1;
                    let end = (begin + chunk).min(total);
                    for flat in begin..end {
                        // Binary-search the owning pending cell
                        // (seg_starts is sorted, one entry past the end).
                        let seg = match seg_starts.binary_search(&flat) {
                            Ok(exact) => exact,
                            Err(insert) => insert - 1,
                        };
                        let idx = pending[seg];
                        let (p, v) = (idx / policies, idx % policies);
                        let r = flat - seg_starts[seg];
                        let cell = &cells[seg];
                        match run_one(jobs, p, v, r, &mut sim, make_policy, &mut local) {
                            Ok((out, probe)) => scatter(cell, r, &out, probe),
                            Err(message) => {
                                let slot =
                                    usize::try_from(r).expect("replication index fits usize");
                                cell.quarantined[slot].store(true, Ordering::Release);
                                quarantines.lock().expect("quarantine log poisoned").push(
                                    QuarantineReport {
                                        point: p,
                                        policy: v,
                                        rep: r,
                                        message,
                                    },
                                );
                            }
                        }
                        if cell.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            let _lock = rendezvous.0.lock().expect("rendezvous poisoned");
                            cell.done.store(true, Ordering::Release);
                            rendezvous.1.notify_all();
                        }
                    }
                }
                *report_slot.lock().expect("worker report poisoned") = local;
            });
        }

        // Drain loop: emit cells strictly in (point, policy) order —
        // preloaded cells immediately at their turn, pending cells as
        // they publish (cells that complete early sit published, the
        // reorder buffer, until their turn).
        let mut next_seg = 0usize;
        for (idx, slot) in preloaded.iter_mut().enumerate() {
            let stats = if let Some(ready) = slot.take() {
                ready
            } else {
                let cell = &cells[next_seg];
                next_seg += 1;
                let mut lock = rendezvous.0.lock().expect("rendezvous poisoned");
                while !cell.done.load(Ordering::Acquire) && !abort.load(Ordering::Relaxed) {
                    lock = rendezvous.1.wait(lock).expect("rendezvous poisoned");
                }
                if !cell.done.load(Ordering::Acquire) {
                    break; // a worker died before finishing this cell
                }
                drop(lock);
                cell.stats()
            };
            if let Err(e) = on_cell(idx / policies, idx % policies, stats) {
                abort.store(true, Ordering::Relaxed);
                result = Err(e);
                break;
            }
        }
        // An on_cell error (or early break) must stop claim processing.
        if result.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
    });
    let mut quarantines = quarantines.into_inner().expect("quarantine log poisoned");
    // Workers append in claim order; present deterministically.
    quarantines.sort_by_key(|q| (q.point, q.policy, q.rep));
    let report = ExecReport {
        workers: worker_reports
            .into_iter()
            .map(|m| m.into_inner().expect("worker report poisoned"))
            .collect(),
        wall_seconds: wall_start.elapsed().as_secs_f64(),
        quarantines,
    };
    result.map(|()| report)
}

/// The single-threaded schedule: flattened task order on the calling
/// thread, emitting each `(point, policy)` cell as its last replication
/// finishes. This is both the `threads == 1` fast path (no spawn, no
/// atomics contention) and the reference the parallel path must reproduce
/// byte-for-byte.
fn run_grid_inline<P, F, G>(
    jobs: &[PointJob<'_>],
    policies: usize,
    make_policy: &F,
    mut preloaded: Vec<Option<PointStats>>,
    on_cell: &mut G,
) -> Result<ExecReport, String>
where
    P: Policy,
    F: Fn(usize, usize, u64) -> P + Sync,
    G: FnMut(usize, usize, PointStats) -> Result<(), String>,
{
    let wall_start = Instant::now();
    let mut sim: Option<(usize, Simulator<'_>)> = None;
    let mut local = WorkerReport::default();
    let mut quarantines: Vec<QuarantineReport> = Vec::new();
    let mut stats = PointStats::default();
    for (p, job) in jobs.iter().enumerate() {
        for v in 0..policies {
            if let Some(ready) = preloaded[p * policies + v].take() {
                on_cell(p, v, ready)?;
                continue;
            }
            stats.completion_times.clear();
            stats.failures_per_rep.clear();
            stats.tasks_shipped_per_rep.clear();
            stats.incomplete = 0;
            stats.total_events = 0;
            stats.total_recoveries = 0;
            stats.total_transfers = 0;
            stats.total_tasks_clamped = 0;
            stats.total_tasks_lost = 0;
            stats.total_retries = 0;
            stats.total_bounces = 0;
            stats.transit_task_seconds = 0.0;
            stats.probes.clear();
            stats.quarantined_reps.clear();
            stats.completion_times.reserve(job.reps as usize);
            stats.failures_per_rep.reserve(job.reps as usize);
            stats.tasks_shipped_per_rep.reserve(job.reps as usize);
            for r in 0..job.reps {
                match run_one(jobs, p, v, r, &mut sim, make_policy, &mut local) {
                    Ok((out, probe)) => {
                        stats.completion_times.push(out.completion_time);
                        stats.failures_per_rep.push(out.failures);
                        stats.tasks_shipped_per_rep.push(out.tasks_shipped);
                        stats.incomplete += u64::from(!out.completed);
                        stats.total_events += out.events;
                        stats.total_recoveries += out.recoveries;
                        stats.total_transfers += out.transfers;
                        stats.total_tasks_clamped += out.tasks_clamped;
                        stats.total_tasks_lost += out.tasks_lost;
                        stats.total_retries += out.retries;
                        stats.total_bounces += out.bounces;
                        stats.transit_task_seconds += out.transit_task_seconds;
                        if let Some(report) = probe {
                            stats.probes.push(report);
                        }
                    }
                    Err(message) => {
                        // Placeholder zeros, bit-identical to the
                        // parallel path's untouched atomic slots.
                        stats.completion_times.push(0.0);
                        stats.failures_per_rep.push(0);
                        stats.tasks_shipped_per_rep.push(0);
                        stats.quarantined_reps.push(r);
                        quarantines.push(QuarantineReport {
                            point: p,
                            policy: v,
                            rep: r,
                            message,
                        });
                    }
                }
            }
            // Move the probe reports out instead of cloning them (the
            // counter/time vectors still reuse their warm capacity).
            let probes = std::mem::take(&mut stats.probes);
            let mut cell = stats.clone();
            cell.probes = probes;
            on_cell(p, v, cell)?;
        }
    }
    Ok(ExecReport {
        workers: vec![local],
        wall_seconds: wall_start.elapsed().as_secs_f64(),
        quarantines,
    })
}

/// Returns the worker's long-lived simulator bound to point `p` and
/// re-armed on the streams of replication `r` — creating on first use,
/// [`Simulator::reset`] within a point, [`Simulator::rebind`] across
/// points. The ONE binding protocol shared by the inline and the
/// parallel path, so the two schedules cannot drift apart.
fn bind_simulator<'s, 'a>(
    slot: &'s mut Option<(usize, Simulator<'a>)>,
    p: usize,
    job: &PointJob<'a>,
    r: u64,
    rebinds: &mut u64,
) -> &'s mut Simulator<'a> {
    let streams = job.streams_for_rep(r);
    match slot {
        Some((bound, sim)) => {
            if *bound == p {
                sim.reset(&streams);
            } else {
                sim.rebind(job.config, &streams, job.options);
                *bound = p;
                *rebinds += 1;
            }
            sim
        }
        none => {
            *none = Some((p, Simulator::new(job.config, &streams, job.options)));
            *rebinds += 1;
            &mut none.as_mut().expect("just set").1
        }
    }
}

/// Runs one `(point, policy, replication)` task on the worker's
/// long-lived simulator (creating or rebinding it as needed) inside a
/// panic boundary, and accumulates the worker's instrumentation.
///
/// Returns the run's summary and probe report, or `Err(message)` when
/// the task must be quarantined: it panicked, or the
/// [`SimOptions::task_timeout`] watchdog aborted it. After a panic the
/// simulator slot is dropped — the unwound run may have left it
/// mid-update, and the next bind builds a fresh one ([`Simulator::rebind`]
/// fully reinitializes, so no poisoned state leaks). A watchdog abort
/// leaves the slot alone: the engine returned normally and the next
/// reset/rebind re-arms it.
fn run_one<'a, P, F>(
    jobs: &[PointJob<'a>],
    p: usize,
    v: usize,
    r: u64,
    sim: &mut Option<(usize, Simulator<'a>)>,
    make_policy: &F,
    local: &mut WorkerReport,
) -> Result<(RunSummary, Option<ProbeReport>), String>
where
    P: Policy,
    F: Fn(usize, usize, u64) -> P + Sync,
{
    let job = &jobs[p];
    let task_start = Instant::now();
    // AssertUnwindSafe: on Err every touched structure is either dropped
    // (the simulator slot, reset to None below) or append-only
    // instrumentation re-written unconditionally (local counters).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sim = bind_simulator(sim, p, job, r, &mut local.rebinds);
        let mut policy = make_policy(p, v, r);
        let out = sim.run_summary(&mut policy);
        let probe = sim.take_probe_report();
        (out, probe)
    }));
    local.busy_seconds += task_start.elapsed().as_secs_f64();
    local.tasks += 1;
    match outcome {
        Ok((out, probe)) => {
            local.events += out.events;
            if out.aborted {
                let limit = job.options.task_timeout.unwrap_or(f64::INFINITY);
                return Err(format!(
                    "exceeded the task timeout of {limit}s \
                     (point {p}, policy {v}, rep {r})"
                ));
            }
            Ok((out, probe))
        }
        Err(payload) => {
            *sim = None;
            Err(format!("panicked: {}", panic_message(payload.as_ref())))
        }
    }
}

/// Scatters one successful replication summary into the cell's slot `r`.
fn scatter(cell: &PointCell, r: u64, out: &RunSummary, probe: Option<ProbeReport>) {
    let slot = usize::try_from(r).expect("replication index fits usize");
    cell.times[slot].store(out.completion_time.to_bits(), Ordering::Release);
    cell.failures[slot].store(out.failures, Ordering::Release);
    cell.shipped[slot].store(out.tasks_shipped, Ordering::Release);
    cell.completed[slot].store(out.completed, Ordering::Release);
    cell.transit[slot].store(out.transit_task_seconds.to_bits(), Ordering::Release);
    cell.events.fetch_add(out.events, Ordering::AcqRel);
    cell.recoveries.fetch_add(out.recoveries, Ordering::AcqRel);
    cell.transfers.fetch_add(out.transfers, Ordering::AcqRel);
    cell.clamped.fetch_add(out.tasks_clamped, Ordering::AcqRel);
    cell.lost.fetch_add(out.tasks_lost, Ordering::AcqRel);
    cell.retries.fetch_add(out.retries, Ordering::AcqRel);
    cell.bounces.fetch_add(out.bounces, Ordering::AcqRel);
    if let Some(report) = probe {
        cell.probes.lock().expect("probe slots poisoned")[slot] = Some(report);
    }
}

/// Best-effort rendering of a caught panic payload (panics carry `&str`
/// or `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drop guard that wakes the drain loop; on a panicking unwind it also
/// raises the abort flag so sibling workers stop claiming chunks.
struct NotifyOnDrop<'a> {
    rendezvous: &'a (Mutex<()>, Condvar),
    abort: &'a AtomicBool,
}

impl Drop for NotifyOnDrop<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.abort.store(true, Ordering::Relaxed);
        }
        // Grab the lock so the wake cannot slip between the drain loop's
        // flag check and its wait.
        let _lock = self.rendezvous.0.lock();
        self.rendezvous.1.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkConfig, NodeConfig, SystemConfig};
    use crate::policy::NoBalancing;

    fn small(tasks: [u32; 2]) -> SystemConfig {
        SystemConfig::new(
            vec![
                NodeConfig::new(1.08, 0.05, 0.1, tasks[0]),
                NodeConfig::new(1.86, 0.05, 0.05, tasks[1]),
            ],
            NetworkConfig::exponential(0.02),
        )
    }

    fn grid() -> Vec<SystemConfig> {
        vec![small([30, 5]), small([4, 4]), small([60, 1]), small([2, 9])]
    }

    /// A job over `config` with default engine options.
    fn job(config: &SystemConfig, reps: u64, seed: u64) -> PointJob<'_> {
        PointJob {
            config,
            reps,
            seed,
            rep_base: 0,
            antithetic: false,
            options: SimOptions::default(),
        }
    }

    /// Runs `jobs × policies` under `NoBalancing`, returning every emitted
    /// `(point, policy, stats)` cell in order plus the runtime report.
    fn run_cells(
        jobs: &[PointJob<'_>],
        policies: usize,
        threads: usize,
        chunk: usize,
        preloaded: Vec<Option<PointStats>>,
    ) -> (Vec<(usize, usize, PointStats)>, ExecReport) {
        let mut out = Vec::new();
        let report = run_grid(
            jobs,
            policies,
            &|_, _, _| NoBalancing,
            threads,
            chunk,
            preloaded,
            |p, v, stats| {
                out.push((p, v, stats));
                Ok(())
            },
        )
        .expect("grid runs");
        (out, report)
    }

    fn collect(
        configs: &[SystemConfig],
        reps: &[u64],
        threads: usize,
        chunk: usize,
    ) -> Vec<(usize, PointStats)> {
        let jobs: Vec<PointJob<'_>> = configs
            .iter()
            .zip(reps)
            .map(|(config, &reps)| job(config, reps, 42))
            .collect();
        let (cells, _) = run_cells(&jobs, 1, threads, chunk, Vec::new());
        cells.into_iter().map(|(p, _, stats)| (p, stats)).collect()
    }

    #[test]
    fn points_arrive_in_grid_order_with_correct_shapes() {
        let configs = grid();
        let reps = [3u64, 1, 7, 2];
        let out = collect(&configs, &reps, 3, 1);
        assert_eq!(out.len(), 4);
        for (i, (p, stats)) in out.iter().enumerate() {
            assert_eq!(*p, i, "points must drain in grid order");
            assert_eq!(stats.completion_times.len(), reps[i] as usize);
            assert_eq!(stats.failures_per_rep.len(), reps[i] as usize);
            assert_eq!(stats.tasks_shipped_per_rep.len(), reps[i] as usize);
            assert!(stats.completion_times.iter().all(|&t| t > 0.0));
            assert!(stats.total_events > 0);
            assert_eq!(stats.incomplete, 0);
        }
    }

    #[test]
    fn results_are_invariant_to_threads_and_chunks() {
        let configs = grid();
        let reps = [5u64, 1, 9, 2];
        let reference = collect(&configs, &reps, 1, 0);
        for threads in [2, 3, 8] {
            for chunk in [0, 1, 2, 7, 64] {
                let got = collect(&configs, &reps, threads, chunk);
                for ((p_a, a), (p_b, b)) in reference.iter().zip(&got) {
                    assert_eq!(p_a, p_b);
                    assert_eq!(
                        a.completion_times, b.completion_times,
                        "threads={threads} chunk={chunk}"
                    );
                    assert_eq!(a.failures_per_rep, b.failures_per_rep);
                    assert_eq!(a.tasks_shipped_per_rep, b.tasks_shipped_per_rep);
                    assert_eq!(a.total_events, b.total_events);
                    assert_eq!(a.incomplete, b.incomplete);
                }
            }
        }
    }

    #[test]
    fn matches_the_single_point_runner() {
        // The scheduler on one point must reproduce mc::run_replications
        // (which itself wraps the scheduler — this pins the wrapper too).
        let config = small([40, 25]);
        let est = crate::mc::run_replications(
            &config,
            &|_| NoBalancing,
            16,
            42,
            3,
            SimOptions::default(),
        );
        let out = collect(std::slice::from_ref(&config), &[16], 4, 2);
        assert_eq!(out[0].1.completion_times, est.completion_times);
    }

    #[test]
    fn deadline_points_report_incomplete() {
        let config = small([5000, 5000]);
        let jobs = [PointJob {
            options: SimOptions {
                deadline: Some(0.25),
                ..SimOptions::default()
            },
            ..job(&config, 4, 7)
        }];
        let (cells, _) = run_cells(&jobs, 1, 2, 1, Vec::new());
        assert_eq!(cells[0].2.incomplete, 4);
    }

    #[test]
    fn sink_errors_abort_the_sweep() {
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 2, 1)).collect();
        for threads in [1, 4] {
            let mut seen = 0;
            let err = run_grid(
                &jobs,
                1,
                &|_, _, _| NoBalancing,
                threads,
                1,
                Vec::new(),
                |p, _, _| {
                    seen += 1;
                    if p == 1 {
                        Err("disk full".to_string())
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err, "disk full", "threads={threads}");
            assert_eq!(seen, 2, "threads={threads}: drain must stop at the error");
        }
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_rep_points_are_rejected() {
        let config = small([1, 1]);
        run_cells(&[job(&config, 0, 1)], 1, 1, 1, Vec::new());
    }

    #[test]
    fn policy_variants_share_replication_streams() {
        // Two variants of the *same* policy must sample identical
        // trajectories — the common-random-numbers invariant of the
        // policy axis, bit for bit.
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 5, 42)).collect();
        for threads in [1, 4] {
            let (cells, _) = run_cells(&jobs, 2, threads, 1, Vec::new());
            assert_eq!(cells.len(), 2 * jobs.len(), "threads={threads}");
            for (point, pair) in cells.chunks(2).enumerate() {
                let (p0, v0, a) = &pair[0];
                let (p1, v1, b) = &pair[1];
                assert_eq!((*p0, *v0), (point, 0), "cell order");
                assert_eq!((*p1, *v1), (point, 1), "cell order");
                assert_eq!(a.completion_times, b.completion_times);
                assert_eq!(a.failures_per_rep, b.failures_per_rep);
                assert_eq!(a.total_events, b.total_events);
            }
        }
    }

    #[test]
    fn policy_variants_match_independent_single_policy_passes() {
        // A variant pass over K distinct policies must reproduce, bit for
        // bit, K independent single-policy passes with the same seeds —
        // the compare ≡ K sweeps contract.
        use churnbal_core_free::gains;
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs
            .iter()
            .enumerate()
            .map(|(k, config)| job(config, 3 + (k as u64 % 3), 7))
            .collect();
        let times = |policies: &[ShipAtStart], threads: usize, chunk: usize| {
            let mut out: Vec<(usize, usize, Vec<f64>)> = Vec::new();
            run_grid(
                &jobs,
                policies.len(),
                &|_, v, _| policies[v].clone(),
                threads,
                chunk,
                Vec::new(),
                |p, v, stats| {
                    out.push((p, v, stats.completion_times));
                    Ok(())
                },
            )
            .expect("pass runs");
            out
        };
        let combined = times(&gains(), 3, 2);
        for (v, policy) in gains().into_iter().enumerate() {
            for (p, _, single) in times(&[policy], 1, 0) {
                let cell = combined
                    .iter()
                    .find(|&&(cp, cv, _)| cp == p && cv == v)
                    .expect("cell present");
                assert_eq!(cell.2, single, "point {p} policy {v} diverged");
            }
        }
    }

    use churnbal_core_free::ShipAtStart;

    /// Tiny local stand-in for distinct policies without a `core` dep:
    /// transfer-free policies that differ only in name (the trajectories
    /// still differ through NoBalancing vs a one-shot shipper below).
    mod churnbal_core_free {
        use crate::policy::{Policy, SystemView, TransferOrder};

        /// Ships `tasks` from node 0 to node 1 at t = 0 — enough to make
        /// two "policies" sample genuinely different trajectories.
        #[derive(Clone)]
        pub struct ShipAtStart(pub u32);

        impl Policy for ShipAtStart {
            fn name(&self) -> &str {
                "ship-at-start"
            }
            fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
                let l = self.0.min(view.queue_len[0]);
                if l > 0 {
                    orders.push(TransferOrder {
                        from: 0,
                        to: 1,
                        tasks: l,
                    });
                }
            }
        }

        /// Three distinct variants: do nothing, ship 2, ship 5.
        pub fn gains() -> Vec<ShipAtStart> {
            vec![ShipAtStart(0), ShipAtStart(2), ShipAtStart(5)]
        }
    }

    #[test]
    fn variant_cells_drain_in_point_major_order_across_threads() {
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 2, 3)).collect();
        for threads in [1, 3, 8] {
            let (cells, _) = run_cells(&jobs, 3, threads, 1, Vec::new());
            let order: Vec<(usize, usize)> = cells.iter().map(|&(p, v, _)| (p, v)).collect();
            let expected: Vec<(usize, usize)> = (0..jobs.len())
                .flat_map(|p| (0..3).map(move |v| (p, v)))
                .collect();
            assert_eq!(order, expected, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn zero_policies_are_rejected() {
        let config = small([1, 1]);
        run_cells(&[job(&config, 1, 1)], 0, 1, 1, Vec::new());
    }

    #[test]
    fn empty_grid_is_a_no_op() {
        let called = run_grid::<NoBalancing, _, _>(
            &[],
            1,
            &|_, _, _| NoBalancing,
            4,
            0,
            Vec::new(),
            |_, _, _| Err("must not be called".into()),
        );
        assert_eq!(called, Ok(ExecReport::default()));
    }

    #[test]
    fn telemetry_counters_are_schedule_invariant() {
        // The new PointStats counters (recoveries/transfers/clamped and
        // the float transit sum) must match the inline reference for any
        // thread/chunk placement, like the per-rep vectors.
        let configs = grid();
        let reps = [5u64, 3, 9, 2];
        let reference = collect(&configs, &reps, 1, 0);
        assert!(
            reference.iter().any(|(_, s)| s.total_recoveries > 0),
            "churny grid must recover somewhere"
        );
        for threads in [2, 4] {
            for chunk in [0, 1, 3] {
                let got = collect(&configs, &reps, threads, chunk);
                for ((_, a), (_, b)) in reference.iter().zip(&got) {
                    assert_eq!(a.total_recoveries, b.total_recoveries);
                    assert_eq!(a.total_transfers, b.total_transfers);
                    assert_eq!(a.total_tasks_clamped, b.total_tasks_clamped);
                    assert_eq!(
                        a.transit_task_seconds.to_bits(),
                        b.transit_task_seconds.to_bits(),
                        "threads={threads} chunk={chunk}: float sum must be bit-stable"
                    );
                    assert!(a.probes.is_empty() && b.probes.is_empty());
                }
            }
        }
    }

    #[test]
    fn probe_reports_flow_slot_stable_through_the_scheduler() {
        let configs = grid();
        let options = SimOptions {
            probe_dt: Some(0.5),
            ..SimOptions::default()
        };
        let jobs: Vec<PointJob<'_>> = configs
            .iter()
            .map(|c| PointJob {
                options,
                ..job(c, 4, 42)
            })
            .collect();
        let (reference, _) = run_cells(&jobs, 1, 1, 1, Vec::new());
        for (p, _, stats) in &reference {
            assert_eq!(stats.probes.len(), 4, "point {p}: one report per rep");
            assert!(stats.probes.iter().any(|r| !r.samples.is_empty()));
        }
        let (parallel, _) = run_cells(&jobs, 1, 4, 1, Vec::new());
        for ((_, _, a), (_, _, b)) in reference.iter().zip(&parallel) {
            assert_eq!(
                a.probes, b.probes,
                "probe telemetry must be thread-invariant"
            );
        }
    }

    #[test]
    fn exec_report_accounts_for_every_task() {
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 3, 9)).collect();
        for threads in [1, 4] {
            let (cells, report) = run_cells(&jobs, 2, threads, 1, Vec::new());
            let events: u64 = cells.iter().map(|(_, _, s)| s.total_events).sum();
            let totals = report.totals();
            assert_eq!(totals.tasks, 2 * 3 * jobs.len() as u64, "threads={threads}");
            assert_eq!(totals.events, events, "threads={threads}");
            assert!(
                totals.rebinds >= jobs.len() as u64 - 1,
                "every point transition rebinds"
            );
            assert!(report.wall_seconds > 0.0);
            assert!(totals.busy_seconds > 0.0);
            if threads == 1 {
                assert_eq!(report.workers.len(), 1);
                assert_eq!(totals.chunks, 0, "inline claims nothing");
            } else {
                assert_eq!(report.workers.len(), threads);
                assert!(totals.chunks > 0);
                assert!(totals.idle_claims >= 1);
            }
        }
    }

    /// Panics at `t = 0` of the armed replication, otherwise does
    /// nothing — the panic-injection fixture.
    struct PanicOn {
        armed: bool,
    }

    impl Policy for PanicOn {
        fn name(&self) -> &str {
            "panic-on"
        }
        fn on_start(
            &mut self,
            _view: &crate::policy::SystemView<'_>,
            _orders: &mut Vec<crate::policy::TransferOrder>,
        ) {
            assert!(!self.armed, "injected panic");
        }
    }

    #[test]
    fn panicking_reps_are_quarantined_and_every_other_cell_emits() {
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 3, 42)).collect();
        let reference = collect(&configs, &[3, 3, 3, 3], 1, 0);
        for threads in [1, 4] {
            let mut cells: Vec<(usize, PointStats)> = Vec::new();
            let report = run_grid(
                &jobs,
                1,
                &|p, _v, r| PanicOn {
                    armed: p == 1 && r == 1,
                },
                threads,
                1,
                Vec::new(),
                |p, _v, stats| {
                    cells.push((p, stats));
                    Ok(())
                },
            )
            .expect("degraded sweep still completes");
            assert_eq!(
                cells.len(),
                jobs.len(),
                "threads={threads}: every cell emits"
            );
            assert_eq!(report.quarantines.len(), 1, "threads={threads}");
            let q = &report.quarantines[0];
            assert_eq!((q.point, q.policy, q.rep), (1, 0, 1));
            assert!(q.message.contains("injected panic"), "{}", q.message);
            for (i, (p, stats)) in cells.iter().enumerate() {
                assert_eq!(*p, i);
                if i == 1 {
                    assert_eq!(stats.quarantined_reps, vec![1]);
                    assert_eq!(stats.completion_times[1], 0.0, "placeholder slot");
                    assert_eq!(stats.incomplete, 0, "lost, not deadline-incomplete");
                    // Surviving slots match the clean reference.
                    assert_eq!(
                        stats.completion_times[0],
                        reference[1].1.completion_times[0]
                    );
                    assert_eq!(
                        stats.completion_times[2],
                        reference[1].1.completion_times[2]
                    );
                } else {
                    assert_eq!(stats.completion_times, reference[i].1.completion_times);
                    assert!(stats.quarantined_reps.is_empty());
                }
            }
        }
    }

    #[test]
    fn preloaded_cells_are_emitted_in_order_without_rerunning() {
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 4, 42)).collect();
        let reference = collect(&configs, &[4, 4, 4, 4], 1, 0);
        for threads in [1, 4] {
            // Cells 0 and 2 come preloaded; 1 and 3 must run live.
            let preloaded: Vec<Option<PointStats>> = (0..jobs.len())
                .map(|i| (i % 2 == 0).then(|| reference[i].1.clone()))
                .collect();
            let (cells, report) = run_cells(&jobs, 1, threads, 1, preloaded);
            assert_eq!(
                report.totals().tasks,
                2 * 4,
                "threads={threads}: only pending cells run"
            );
            assert_eq!(cells.len(), jobs.len());
            for (i, (p, _, stats)) in cells.iter().enumerate() {
                assert_eq!(*p, i, "threads={threads}: strict cell order");
                assert_eq!(
                    stats.completion_times, reference[i].1.completion_times,
                    "threads={threads}: resumed bytes match the clean run"
                );
            }
        }
        // Everything preloaded: a pure replay, zero tasks executed.
        let preloaded: Vec<Option<PointStats>> =
            reference.iter().map(|(_, s)| Some(s.clone())).collect();
        let (cells, report) = run_cells(&jobs, 1, 4, 0, preloaded);
        assert_eq!(cells.len(), jobs.len());
        assert_eq!(report.totals().tasks, 0);
    }

    #[test]
    fn zero_task_timeout_quarantines_every_replication() {
        let config = small([40, 25]);
        let jobs = [PointJob {
            options: SimOptions {
                task_timeout: Some(0.0),
                ..SimOptions::default()
            },
            ..job(&config, 2, 7)
        }];
        let (cells, report) = run_cells(&jobs, 1, 1, 1, Vec::new());
        assert_eq!(report.quarantines.len(), 2);
        assert!(report.quarantines[0].message.contains("task timeout"));
        assert_eq!(cells[0].2.quarantined_reps, vec![0, 1]);
        assert_eq!(cells[0].2.incomplete, 0);
    }

    #[test]
    fn generous_task_timeout_leaves_results_bit_identical() {
        let config = small([40, 25]);
        let run = |timeout: Option<f64>| {
            let jobs = [PointJob {
                options: SimOptions {
                    task_timeout: timeout,
                    ..SimOptions::default()
                },
                ..job(&config, 6, 11)
            }];
            run_cells(&jobs, 1, 2, 1, Vec::new()).0.remove(0).2
        };
        let plain = run(None);
        let watched = run(Some(3600.0));
        assert_eq!(plain.completion_times, watched.completion_times);
        assert_eq!(plain.total_events, watched.total_events);
        assert!(watched.quarantined_reps.is_empty());
    }
}
