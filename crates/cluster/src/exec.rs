//! The sweep scheduler: one shared worker pool over the flattened
//! `(job, replication)` index space, behind the single entry point
//! [`run_grid`].
//!
//! The Monte-Carlo runner of `mc` parallelises replications *within* one
//! system; a parameter sweep runs many systems, and driving them through
//! that runner point-by-point erects a thread barrier at every grid point
//! — workers idle whenever a point has fewer replications than the
//! machine has cores, and every point pays a fresh spawn/join round.
//! This module removes the barrier:
//!
//! * the whole grid is flattened into one task space, task `t` being the
//!   `r`-th replication of one job (jobs in order, replications in index
//!   order within a job);
//! * a fixed pool of workers claims **chunks** of that space from a single
//!   atomic cursor (a lock-light chunked work queue: claiming costs one
//!   `fetch_add`, and idle workers automatically "steal" whatever the
//!   busy ones have not claimed yet);
//! * each worker owns one long-lived [`Simulator`] and re-arms it for
//!   every replication ([`Simulator::reset`] is [`Simulator::rebind`] to
//!   the bound system), so simulator allocations are per-worker;
//! * a worker runs the part of its chunk that falls in one job into a
//!   local **result block** and hands the block to that job under one
//!   lock; the drain thread folds a completed job's blocks, sorted by
//!   first replication, into [`PointStats`] and frees them, and a reorder
//!   buffer makes the caller's `on_cell` callback fire in **job order**
//!   even when a later job finishes first. Result memory thus follows the
//!   jobs in flight, not the whole grid.
//!
//! Determinism: replication `r` of a job always runs on the streams
//! derived from `(seed, rep_base + r)` — worker placement, thread count
//! and chunk size cannot change a single sampled value, only who computes
//! it, and the in-order drain makes the output bytes schedule-free too.
//! Jobs with equal seeds share those streams: that is how the
//! `(grid point, policy)` cells of the lab's `cells` module, one job
//! each, get common random numbers.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use churnbal_stochastic::StreamFactory;

use crate::config::SystemConfig;
use crate::engine::{RunSummary, SimOptions, Simulator};
use crate::policy::Policy;
use crate::probe::ProbeReport;

/// One job to execute: a system, how many replications, and the master
/// seed its streams derive from. The lab runs one job per
/// `(grid point, policy)` cell.
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

/// Slot-stable per-replication results of one completed job, in
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

impl PointStats {
    /// Appends the replications that follow this one's, in replication
    /// order: the per-replication columns, probe reports and quarantined
    /// replications move over, and the run totals (the float
    /// `transit_task_seconds` included) add.
    pub fn append(&mut self, mut next: Self) {
        self.completion_times.append(&mut next.completion_times);
        self.failures_per_rep.append(&mut next.failures_per_rep);
        self.tasks_shipped_per_rep
            .append(&mut next.tasks_shipped_per_rep);
        self.incomplete += next.incomplete;
        self.total_events += next.total_events;
        self.total_recoveries += next.total_recoveries;
        self.total_transfers += next.total_transfers;
        self.total_tasks_clamped += next.total_tasks_clamped;
        self.total_tasks_lost += next.total_tasks_lost;
        self.total_retries += next.total_retries;
        self.total_bounces += next.total_bounces;
        self.transit_task_seconds += next.transit_task_seconds;
        self.probes.append(&mut next.probes);
        self.quarantined_reps.append(&mut next.quarantined_reps);
    }
}

/// One quarantined `(job, replication)` task: the sweep kept going
/// without it, and the failure is reported here instead of tearing the
/// whole run down.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineReport {
    /// Index of the job (the [`PointJob`]) in the `jobs` slice.
    pub point: usize,
    /// Replication index within the job.
    pub rep: u64,
    /// The panic payload (for panicking tasks) or the watchdog verdict
    /// (for timed-out tasks).
    pub message: String,
}

/// The results of consecutive replications `first..first + len` of one
/// job: what a worker produces for its share of a chunk, and — merged in
/// replication order by [`fold`] — what becomes the job's [`PointStats`].
/// The inline path runs each job as one block, so both schedules build
/// their stats through this one accumulator.
struct Block {
    /// Replication index of the first entry.
    first: u64,
    /// Everything but the transit total: per-replication columns
    /// (placeholder zeros for a quarantined replication), integer run
    /// totals (exact in any order), probe reports when probing is armed,
    /// and the quarantined replications.
    stats: PointStats,
    /// Per-replication transit integrals, summed in replication order by
    /// [`Block::into_stats`] so the float total is schedule-invariant.
    transit: Vec<f64>,
    /// The block's quarantine reports, in replication order.
    quarantines: Vec<QuarantineReport>,
}

impl Block {
    /// Runs replications `reps` of job `j` on the worker's long-lived
    /// simulator.
    fn run<'a, P, F>(
        jobs: &[PointJob<'a>],
        j: usize,
        reps: Range<u64>,
        sim: &mut Option<(usize, Simulator<'a>)>,
        make_policy: &F,
        local: &mut WorkerReport,
    ) -> Self
    where
        P: Policy,
        F: Fn(usize, u64) -> P + Sync,
    {
        let len = usize::try_from(reps.end - reps.start).expect("replication count fits usize");
        let probes = if jobs[j].options.probe_dt.is_some() {
            len
        } else {
            0
        };
        let mut block = Self {
            first: reps.start,
            stats: PointStats {
                completion_times: Vec::with_capacity(len),
                failures_per_rep: Vec::with_capacity(len),
                tasks_shipped_per_rep: Vec::with_capacity(len),
                probes: Vec::with_capacity(probes),
                ..PointStats::default()
            },
            transit: Vec::with_capacity(len),
            quarantines: Vec::new(),
        };
        let s = &mut block.stats;
        for r in reps {
            match run_one(jobs, j, r, sim, make_policy, local) {
                Ok((out, probe)) => {
                    s.completion_times.push(out.completion_time);
                    s.failures_per_rep.push(out.failures);
                    s.tasks_shipped_per_rep.push(out.tasks_shipped);
                    block.transit.push(out.transit_task_seconds);
                    s.incomplete += u64::from(!out.completed);
                    s.total_events += out.events;
                    s.total_recoveries += out.recoveries;
                    s.total_transfers += out.transfers;
                    s.total_tasks_clamped += out.tasks_clamped;
                    s.total_tasks_lost += out.tasks_lost;
                    s.total_retries += out.retries;
                    s.total_bounces += out.bounces;
                    s.probes.extend(probe);
                }
                Err(message) => {
                    // Quarantined: placeholder zeros keep the columns
                    // slot-stable, and it counts as neither complete nor
                    // deadline-incomplete.
                    s.completion_times.push(0.0);
                    s.failures_per_rep.push(0);
                    s.tasks_shipped_per_rep.push(0);
                    block.transit.push(0.0);
                    s.quarantined_reps.push(r);
                    block.quarantines.push(QuarantineReport {
                        point: j,
                        rep: r,
                        message,
                    });
                }
            }
        }
        block
    }

    fn len(&self) -> u64 {
        self.transit.len() as u64
    }

    /// Appends the block that follows this one in replication order.
    fn append(&mut self, mut next: Self) {
        debug_assert_eq!(
            next.first,
            self.first + self.len(),
            "blocks must be contiguous"
        );
        self.stats.append(next.stats);
        self.transit.append(&mut next.transit);
        self.quarantines.append(&mut next.quarantines);
    }

    /// The whole job's stats (the block must cover every replication);
    /// its quarantine reports move to `quarantines`.
    fn into_stats(mut self, quarantines: &mut Vec<QuarantineReport>) -> PointStats {
        debug_assert_eq!(self.first, 0, "a job's stats start at replication 0");
        self.stats.transit_task_seconds = self.transit.iter().fold(0.0, |sum, t| sum + t);
        quarantines.append(&mut self.quarantines);
        self.stats
    }
}

/// Folds the blocks of one completed job, in any order, into its stats:
/// sorted by first replication, merged into the first block (reserved
/// once to the job's size) and freed as they go.
fn fold(mut blocks: Vec<Block>, quarantines: &mut Vec<QuarantineReport>) -> PointStats {
    blocks.sort_unstable_by_key(|b| b.first);
    let reps: usize = blocks.iter().map(|b| b.transit.len()).sum();
    let probes: usize = blocks.iter().map(|b| b.stats.probes.len()).sum();
    let mut blocks = blocks.into_iter();
    let mut cell = blocks.next().expect("a completed job holds a block");
    let more = reps - cell.transit.len();
    let s = &mut cell.stats;
    s.completion_times.reserve_exact(more);
    s.failures_per_rep.reserve_exact(more);
    s.tasks_shipped_per_rep.reserve_exact(more);
    s.probes.reserve_exact(probes - s.probes.len());
    cell.transit.reserve_exact(more);
    for block in blocks {
        cell.append(block);
    }
    cell.into_stats(quarantines)
}

/// A pending job on the result board: the blocks handed in so far and
/// the replications still outstanding.
struct PendingCell {
    blocks: Vec<Block>,
    remaining: u64,
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
    /// `(job, replication)` tasks this worker executed.
    pub tasks: u64,
    /// Chunks claimed from the shared cursor (0 on the inline path, which
    /// claims nothing).
    pub chunks: u64,
    /// Claim attempts that found the task space exhausted.
    pub idle_claims: u64,
    /// Simulator rebinds — job transitions, including the first binding
    /// of the worker's long-lived simulator.
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
    /// Tasks that panicked or timed out, sorted by `(point, rep)`; empty
    /// on a clean pass. The sweep completed *around* these — their jobs are
    /// degraded, never silently averaged.
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

/// Executes the full `(job, replication)` task space of `jobs` on one
/// shared worker pool and hands each job's [`PointStats`] to
/// `on_cell(job, stats)` **in job order** as jobs complete (a reorder
/// buffer holds early finishers). `make_policy(job, rep)` builds one
/// replication's policy, which runs on the streams of
/// [`PointJob::streams_for_rep`].
///
/// `threads = 0` picks the available parallelism and `chunk = 0` an
/// automatic claim size; results are independent of both. With
/// `threads == 1` no worker thread is spawned at all: the calling thread
/// executes the flattened task space in order, which is also the
/// bit-exact reference schedule for the parallel path. The returned
/// [`ExecReport`] is observational only and never digested.
///
/// Memory: a job holds 32 bytes per replication (and a probe report when
/// probing is armed) from the time its replications run until it is
/// emitted. Workers claim at most `4 × threads × chunk` tasks past the
/// end of the job `on_cell` waits for, so live results stay about one job
/// plus that window whatever the grid size; a slow `on_cell` holds the
/// workers there instead of letting results pile up.
///
/// # Errors
/// Propagates the first error `on_cell` returns; remaining work is
/// abandoned (workers stop at their next chunk claim).
///
/// # Panics
/// Panics if any job has `reps == 0`. A panic *inside a task* does not
/// propagate: the replication is quarantined (see [`QuarantineReport`])
/// and the pass completes degraded.
pub fn run_grid<P, F, G>(
    jobs: &[PointJob<'_>],
    make_policy: &F,
    threads: usize,
    chunk: usize,
    mut on_cell: G,
) -> Result<ExecReport, String>
where
    P: Policy,
    F: Fn(usize, u64) -> P + Sync,
    G: FnMut(usize, PointStats) -> Result<(), String>,
{
    assert!(
        jobs.iter().all(|j| j.reps > 0),
        "every grid point needs at least one replication"
    );
    if jobs.is_empty() {
        return Ok(ExecReport::default());
    }
    let wall_start = Instant::now();
    // The flattened task space: job j owns flat indices
    // [seg_starts[j], seg_starts[j+1]) — its `reps` replications, so a
    // chunk tends to stay within one job's run of simulator resets.
    let mut seg_starts = Vec::with_capacity(jobs.len() + 1);
    let mut acc = 0u64;
    for job in jobs {
        seg_starts.push(acc);
        acc += job.reps;
    }
    seg_starts.push(acc);
    let total = acc;
    let threads = resolve_threads(threads, total);

    if threads == 1 {
        return run_grid_inline(jobs, make_policy, &mut on_cell);
    }

    let chunk = resolve_chunk(chunk, total, threads);
    let cursor = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    // Claim window: workers claim no further than `slack` tasks past the
    // end of the job the drain loop waits for next. That is room for
    // every worker to hold a few chunks, so it binds only when the drain
    // (or the worker finishing that job) stalls — and then it keeps the
    // others from filling memory with blocks of jobs that cannot be
    // emitted yet. Live blocks stay within one job plus `slack` tasks.
    // `limit` publishes no data (blocks travel under the board lock), so
    // its loads and stores are relaxed.
    // Saturating: `chunk` comes from the command line.
    let slack = (4 * threads as u64).saturating_mul(chunk);
    let limit_for = |next: usize| seg_starts[(next + 1).min(jobs.len())].saturating_add(slack);
    let limit = AtomicU64::new(limit_for(0));
    // The result board, one entry per job, behind the rendezvous lock:
    // workers hand blocks in under it and notify when a job's countdown
    // reaches zero; the drain loop waits on it for the next job in order.
    let board: Vec<PendingCell> = jobs
        .iter()
        .map(|job| PendingCell {
            blocks: Vec::new(),
            remaining: job.reps,
        })
        .collect();
    let rendezvous = (Mutex::new(board), Condvar::new());
    // One instrumentation slot per worker, in spawn order; each worker
    // accumulates locally and publishes once at exit.
    let worker_reports: Vec<Mutex<WorkerReport>> = (0..threads)
        .map(|_| Mutex::new(WorkerReport::default()))
        .collect();
    let mut quarantines = Vec::new();

    let mut result = Ok(());
    std::thread::scope(|scope| {
        for report_slot in &worker_reports {
            let cursor = &cursor;
            let abort = &abort;
            let limit = &limit;
            let rendezvous = &rendezvous;
            let seg_starts = &seg_starts;
            scope.spawn(move || {
                // Wake the drain loop even if this worker unwinds, so a
                // panicking worker cannot leave the main thread waiting
                // forever — the scope join then propagates the panic.
                // (Task panics are caught and quarantined inside
                // `run_one`; this guard covers scheduler bugs.)
                let _guard = NotifyOnDrop { rendezvous, abort };
                let mut sim: Option<(usize, Simulator<'_>)> = None;
                let mut local = WorkerReport::default();
                let blocked = || {
                    let at = cursor.load(Ordering::Relaxed);
                    at < total
                        && at >= limit.load(Ordering::Relaxed)
                        && !abort.load(Ordering::Relaxed)
                };
                loop {
                    if blocked() {
                        let mut board = rendezvous.0.lock().expect("result board poisoned");
                        while blocked() {
                            board = rendezvous.1.wait(board).expect("result board poisoned");
                        }
                    }
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
                    // One block per job the chunk overlaps (seg_starts is
                    // sorted, one entry past the end).
                    let mut flat = begin;
                    while flat < end {
                        let seg = seg_starts.partition_point(|&s| s <= flat) - 1;
                        let (base, stop) = (seg_starts[seg], end.min(seg_starts[seg + 1]));
                        let block = Block::run(
                            jobs,
                            seg,
                            flat - base..stop - base,
                            &mut sim,
                            make_policy,
                            &mut local,
                        );
                        flat = stop;
                        let mut board = rendezvous.0.lock().expect("result board poisoned");
                        let cell = &mut board[seg];
                        cell.remaining -= block.len();
                        cell.blocks.push(block);
                        if cell.remaining == 0 {
                            rendezvous.1.notify_all();
                        }
                    }
                }
                *report_slot.lock().expect("worker report poisoned") = local;
            });
        }

        // Drain loop: emit jobs strictly in order as they complete (jobs
        // that complete early wait on the board, the reorder buffer,
        // until their turn). However it ends — an `on_cell` error or panic
        // included — the guard wakes workers waiting on the claim window,
        // and they see `abort`.
        let _wake = NotifyOnDrop {
            rendezvous: &rendezvous,
            abort: &abort,
        };
        for j in 0..jobs.len() {
            let mut board = rendezvous.0.lock().expect("result board poisoned");
            while board[j].remaining > 0 && !abort.load(Ordering::Relaxed) {
                board = rendezvous.1.wait(board).expect("result board poisoned");
            }
            if board[j].remaining > 0 {
                break; // a worker died before finishing this job
            }
            let blocks = std::mem::take(&mut board[j].blocks);
            // Open the claim window up to the next job's end.
            limit.store(limit_for(j + 1), Ordering::Relaxed);
            rendezvous.1.notify_all();
            drop(board);
            let stats = fold(blocks, &mut quarantines);
            // An on_cell error must stop claim processing.
            if let Err(e) = on_cell(j, stats) {
                abort.store(true, Ordering::Relaxed);
                result = Err(e);
                break;
            }
        }
    });
    // Jobs emit in order and each job's blocks fold in replication order,
    // so the quarantine log is already sorted.
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
/// thread, each job run as one [`Block`] and emitted as its last
/// replication finishes. This is both the `threads == 1` fast path (no
/// spawn, no locks) and the reference the parallel path must reproduce
/// byte-for-byte.
fn run_grid_inline<P, F, G>(
    jobs: &[PointJob<'_>],
    make_policy: &F,
    on_cell: &mut G,
) -> Result<ExecReport, String>
where
    P: Policy,
    F: Fn(usize, u64) -> P + Sync,
    G: FnMut(usize, PointStats) -> Result<(), String>,
{
    let wall_start = Instant::now();
    let mut sim: Option<(usize, Simulator<'_>)> = None;
    let mut local = WorkerReport::default();
    let mut quarantines: Vec<QuarantineReport> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let stats = Block::run(jobs, j, 0..job.reps, &mut sim, make_policy, &mut local)
            .into_stats(&mut quarantines);
        on_cell(j, stats)?;
    }
    Ok(ExecReport {
        workers: vec![local],
        wall_seconds: wall_start.elapsed().as_secs_f64(),
        quarantines,
    })
}

/// Returns the worker's long-lived simulator bound to job `j` and
/// re-armed on the streams of replication `r` — creating on first use,
/// [`Simulator::reset`] within a job, [`Simulator::rebind`] across jobs.
/// The ONE binding protocol shared by the inline and the parallel path,
/// so the two schedules cannot drift apart.
fn bind_simulator<'s, 'a>(
    slot: &'s mut Option<(usize, Simulator<'a>)>,
    j: usize,
    job: &PointJob<'a>,
    r: u64,
    rebinds: &mut u64,
) -> &'s mut Simulator<'a> {
    let streams = job.streams_for_rep(r);
    match slot {
        Some((bound, sim)) => {
            if *bound == j {
                sim.reset(&streams);
            } else {
                sim.rebind(job.config, &streams, job.options);
                *bound = j;
                *rebinds += 1;
            }
            sim
        }
        none => {
            *none = Some((j, Simulator::new(job.config, &streams, job.options)));
            *rebinds += 1;
            &mut none.as_mut().expect("just set").1
        }
    }
}

/// Runs one `(job, replication)` task on the worker's long-lived
/// simulator (creating or rebinding it as needed) inside a panic boundary,
/// and accumulates the worker's instrumentation.
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
    j: usize,
    r: u64,
    sim: &mut Option<(usize, Simulator<'a>)>,
    make_policy: &F,
    local: &mut WorkerReport,
) -> Result<(RunSummary, Option<ProbeReport>), String>
where
    P: Policy,
    F: Fn(usize, u64) -> P + Sync,
{
    let job = &jobs[j];
    let task_start = Instant::now();
    // AssertUnwindSafe: on Err every touched structure is either dropped
    // (the simulator slot, reset to None below) or append-only
    // instrumentation re-written unconditionally (local counters).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sim = bind_simulator(sim, j, job, r, &mut local.rebinds);
        let mut policy = make_policy(j, r);
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
                return Err(format!("exceeded the task timeout of {limit}s"));
            }
            Ok((out, probe))
        }
        Err(payload) => {
            *sim = None;
            Err(format!("panicked: {}", panic_message(payload.as_ref())))
        }
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

/// Drop guard that wakes every thread waiting on the rendezvous (the
/// drain loop, or workers waiting on the claim window); on a panicking
/// unwind it also raises the abort flag so the workers stop claiming
/// chunks.
struct NotifyOnDrop<'a> {
    rendezvous: &'a (Mutex<Vec<PendingCell>>, Condvar),
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

    /// Runs `jobs` under `NoBalancing`, returning every emitted
    /// `(job, stats)` pair in order plus the runtime report.
    fn run_cells(
        jobs: &[PointJob<'_>],
        threads: usize,
        chunk: usize,
    ) -> (Vec<(usize, PointStats)>, ExecReport) {
        let mut out = Vec::new();
        let report = run_grid(jobs, &|_, _| NoBalancing, threads, chunk, |j, stats| {
            out.push((j, stats));
            Ok(())
        })
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
        run_cells(&jobs, threads, chunk).0
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

    /// Asserts `a` and `b` agree in every field, floats bit for bit (the
    /// destructuring breaks the build when a field is added unchecked).
    fn assert_same_stats(a: &PointStats, b: &PointStats, ctx: &str) {
        let PointStats {
            completion_times,
            failures_per_rep,
            tasks_shipped_per_rep,
            incomplete,
            total_events,
            total_recoveries,
            total_transfers,
            total_tasks_clamped,
            total_tasks_lost,
            total_retries,
            total_bounces,
            transit_task_seconds,
            probes,
            quarantined_reps,
        } = a;
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(completion_times), bits(&b.completion_times), "{ctx}");
        assert_eq!(*failures_per_rep, b.failures_per_rep, "{ctx}");
        assert_eq!(*tasks_shipped_per_rep, b.tasks_shipped_per_rep, "{ctx}");
        assert_eq!(
            [
                *incomplete,
                *total_events,
                *total_recoveries,
                *total_transfers,
                *total_tasks_clamped,
                *total_tasks_lost,
                *total_retries,
                *total_bounces,
            ],
            [
                b.incomplete,
                b.total_events,
                b.total_recoveries,
                b.total_transfers,
                b.total_tasks_clamped,
                b.total_tasks_lost,
                b.total_retries,
                b.total_bounces,
            ],
            "{ctx}"
        );
        assert_eq!(
            transit_task_seconds.to_bits(),
            b.transit_task_seconds.to_bits(),
            "{ctx}"
        );
        assert_eq!(*probes, b.probes, "{ctx}");
        assert_eq!(*quarantined_reps, b.quarantined_reps, "{ctx}");
    }

    #[test]
    fn results_are_invariant_to_threads_and_chunks() {
        let configs = grid();
        let reps = [5u64, 1, 9, 2];
        let reference = collect(&configs, &reps, 1, 0);
        for threads in [2, 3, 8] {
            for chunk in [0, 1, 2, 7, 64, usize::MAX] {
                let got = collect(&configs, &reps, threads, chunk);
                assert_eq!(got.len(), reference.len());
                for ((p_a, a), (p_b, b)) in reference.iter().zip(&got) {
                    assert_eq!(p_a, p_b);
                    assert_same_stats(a, b, &format!("threads={threads} chunk={chunk}"));
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
        let (cells, _) = run_cells(&jobs, 2, 1);
        assert_eq!(cells[0].1.incomplete, 4);
    }

    #[test]
    fn sink_errors_abort_the_sweep() {
        let configs = grid();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 2, 1)).collect();
        for threads in [1, 4] {
            let mut seen = 0;
            let err = run_grid(&jobs, &|_, _| NoBalancing, threads, 1, |p, _| {
                seen += 1;
                if p == 1 {
                    Err("disk full".to_string())
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(err, "disk full", "threads={threads}");
            assert_eq!(seen, 2, "threads={threads}: drain must stop at the error");
        }
    }

    #[test]
    fn a_stalled_drain_holds_workers_to_the_claim_window() {
        use std::sync::atomic::AtomicU64;
        use std::time::Duration;
        // 24 cells of 4 replications, one policy, three workers with
        // one-task chunks: the window is 4 × 3 × 1 = 12 tasks. Taking
        // cell 0 opens it to the end of cell 1 (flat task 8) + 12, so while
        // `on_cell(0)` stalls the workers may start flat tasks up to 19,
        // plus two claims that raced past the check.
        let configs: Vec<SystemConfig> = (0..24).map(|k| small([3 + k % 5, 2])).collect();
        let jobs: Vec<PointJob<'_>> = configs.iter().map(|c| job(c, 4, 5)).collect();
        let (reference, _) = run_cells(&jobs, 1, 0);
        let started = AtomicU64::new(0);
        for fail_at in [None, Some(6)] {
            started.store(0, Ordering::SeqCst);
            let mut got = Vec::new();
            let result = run_grid(
                &jobs,
                &|p, r| {
                    started.fetch_max(p as u64 * 4 + r, Ordering::SeqCst);
                    NoBalancing
                },
                3,
                1,
                |p, stats| {
                    if p == 0 {
                        let t = Instant::now();
                        while started.load(Ordering::SeqCst) < 19 {
                            assert!(t.elapsed() < Duration::from_secs(10), "workers stopped");
                            std::thread::yield_now();
                        }
                        // Time enough to run the whole grid, had the
                        // window not held.
                        std::thread::sleep(Duration::from_millis(20));
                        let last = started.load(Ordering::SeqCst);
                        assert!(last <= 21, "claimed past the window: task {last}");
                    }
                    if Some(p) == fail_at {
                        return Err("stop".to_string());
                    }
                    got.push((p, stats));
                    Ok(())
                },
            );
            // Results are unchanged; an error from the drain still wakes
            // and stops the waiting workers.
            match fail_at {
                None => {
                    result.expect("grid runs");
                    assert_eq!(got.len(), reference.len());
                    for ((_, a), (_, b)) in reference.iter().zip(&got) {
                        assert_same_stats(a, b, "stalled drain");
                    }
                }
                Some(p) => {
                    assert_eq!(result.unwrap_err(), "stop");
                    assert_eq!(got.len(), p);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_rep_points_are_rejected() {
        let config = small([1, 1]);
        run_cells(&[job(&config, 0, 1)], 1, 1);
    }

    #[test]
    fn policy_variants_share_replication_streams() {
        // Two jobs of the *same* system, seed and policy must sample
        // identical trajectories — the common-random-numbers invariant
        // of a grid point's cells, bit for bit.
        let configs = grid();
        // Every (point, policy) cell one job, a point's cells on its seed.
        let jobs: Vec<_> = configs
            .iter()
            .flat_map(|c| std::iter::repeat_n(job(c, 5, 42), 2))
            .collect();
        for threads in [1, 4] {
            let (cells, _) = run_cells(&jobs, threads, 1);
            assert_eq!(cells.len(), jobs.len(), "threads={threads}");
            for (point, pair) in cells.chunks(2).enumerate() {
                let (j0, a) = &pair[0];
                let (j1, b) = &pair[1];
                assert_eq!((*j0, *j1), (2 * point, 2 * point + 1), "cell order");
                assert_eq!(a.completion_times, b.completion_times);
                assert_eq!(a.failures_per_rep, b.failures_per_rep);
                assert_eq!(a.total_events, b.total_events);
            }
        }
    }

    #[test]
    fn policy_variants_match_independent_single_policy_passes() {
        // One pass over every (point, policy) cell of K distinct policies
        // must reproduce, bit for bit, K independent single-policy passes
        // with the same seeds — the compare ≡ K sweeps contract.
        use churnbal_core_free::gains;
        let configs = grid();
        let reps = |p: usize| 3 + (p as u64 % 3);
        let k = gains().len();
        let jobs: Vec<PointJob<'_>> = (0..configs.len() * k)
            .map(|j| job(&configs[j / k], reps(j / k), 7))
            .collect();
        let times =
            |jobs: &[PointJob<'_>], policy: &(dyn Fn(usize) -> ShipAtStart + Sync), threads| {
                let mut out: Vec<Vec<f64>> = Vec::new();
                run_grid(jobs, &|j, _| policy(j), threads, 2, |_, stats| {
                    out.push(stats.completion_times);
                    Ok(())
                })
                .expect("pass runs");
                out
            };
        let variants = gains();
        let combined = times(&jobs, &|j| variants[j % k].clone(), 3);
        let points: Vec<PointJob<'_>> = jobs.iter().step_by(k).copied().collect();
        for (v, policy) in variants.iter().enumerate() {
            for (p, single) in times(&points, &|_| policy.clone(), 1).iter().enumerate() {
                assert_eq!(
                    &combined[p * k + v],
                    single,
                    "point {p} policy {v} diverged"
                );
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
        let jobs: Vec<_> = configs
            .iter()
            .flat_map(|c| std::iter::repeat_n(job(c, 2, 3), 3))
            .collect();
        for threads in [1, 3, 8] {
            let (cells, _) = run_cells(&jobs, threads, 1);
            let order: Vec<usize> = cells.iter().map(|&(j, _)| j).collect();
            assert_eq!(
                order,
                (0..jobs.len()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_grid_is_a_no_op() {
        let called = run_grid::<NoBalancing, _, _>(&[], &|_, _| NoBalancing, 4, 0, |_, _| {
            Err("must not be called".into())
        });
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
        let (reference, _) = run_cells(&jobs, 1, 1);
        for (p, stats) in &reference {
            assert_eq!(stats.probes.len(), 4, "point {p}: one report per rep");
            assert!(stats.probes.iter().any(|r| !r.samples.is_empty()));
        }
        let (parallel, _) = run_cells(&jobs, 4, 1);
        for ((_, a), (_, b)) in reference.iter().zip(&parallel) {
            assert_eq!(
                a.probes, b.probes,
                "probe telemetry must be thread-invariant"
            );
        }
    }

    #[test]
    fn exec_report_accounts_for_every_task() {
        let configs = grid();
        let jobs: Vec<_> = configs
            .iter()
            .flat_map(|c| std::iter::repeat_n(job(c, 3, 9), 2))
            .collect();
        for threads in [1, 4] {
            let (cells, report) = run_cells(&jobs, threads, 1);
            let events: u64 = cells.iter().map(|(_, s)| s.total_events).sum();
            let totals = report.totals();
            assert_eq!(totals.tasks, 3 * jobs.len() as u64, "threads={threads}");
            assert_eq!(totals.events, events, "threads={threads}");
            assert!(
                totals.rebinds >= jobs.len() as u64 - 1,
                "every job transition rebinds"
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
        // Chunks of 2 and 5 straddle cells of 3, so some block holds the
        // tail of one cell and the next one starts mid-chunk. The inline
        // run (first) is the reference for every degraded cell.
        let mut inline: Vec<(usize, PointStats)> = Vec::new();
        for (threads, chunk) in [(1, 1), (4, 1), (4, 2), (4, 5), (2, 5)] {
            let mut cells: Vec<(usize, PointStats)> = Vec::new();
            let report = run_grid(
                &jobs,
                &|p, r| PanicOn {
                    armed: p == 1 && r == 1,
                },
                threads,
                chunk,
                |p, stats| {
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
            assert_eq!((q.point, q.rep), (1, 1));
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
            if threads == 1 {
                inline = cells;
            } else {
                for ((_, a), (_, b)) in inline.iter().zip(&cells) {
                    assert_same_stats(a, b, &format!("threads={threads} chunk={chunk}"));
                }
            }
        }
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
        let (cells, report) = run_cells(&jobs, 1, 1);
        assert_eq!(report.quarantines.len(), 2);
        assert!(report.quarantines[0].message.contains("task timeout"));
        assert_eq!(cells[0].1.quarantined_reps, vec![0, 1]);
        assert_eq!(cells[0].1.incomplete, 0);
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
            run_cells(&jobs, 2, 1).0.remove(0).1
        };
        let plain = run(None);
        let watched = run(Some(3600.0));
        assert_eq!(plain.completion_times, watched.completion_times);
        assert_eq!(plain.total_events, watched.total_events);
        assert!(watched.quarantined_reps.is_empty());
    }
}
