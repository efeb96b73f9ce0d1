//! The event-driven system simulator.
//!
//! One run simulates the full lifetime of a workload on the configured
//! system under a [`Policy`]: exponential service at up nodes, exponential
//! failure/recovery churn, policy-ordered batch transfers with random
//! load-dependent delays, optional external arrivals. The run ends when
//! every task has been processed (the paper's *overall completion time*).
//!
//! Randomness is drawn from dedicated streams (per-node service, per-node
//! churn, one transfer stream), so
//!
//! * runs are reproducible from the seed alone, and
//! * the churn sample path does not depend on the policy under test —
//!   comparing LBP-1 and LBP-2 on the *same* failure trace (paper Fig. 4)
//!   is a matter of reusing the seed (common random numbers).

use std::ops::ControlFlow;
use std::time::Instant;

use churnbal_desim::{BackendQueue, EventId, QueueBackend, SimTime};
use churnbal_stochastic::{BatchedRng, StreamFactory};

use crate::config::{ArrivalKind, ChannelModel, ChurnModel, DelayLaw, DownPolicy, SystemConfig};
use crate::metrics::Metrics;
use crate::policy::{Policy, SystemView, TransferOrder};
use crate::probe::{ProbeReport, ProbeState};
use crate::trace::QueueTrace;

/// Run options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Record queue/work-state traces (Fig. 4).
    pub record_trace: bool,
    /// Hard stop; `None` runs to completion. An event at exactly the
    /// deadline still executes; a run that passes the deadline reports
    /// `completed = false` and the deadline as its completion time.
    pub deadline: Option<f64>,
    /// Event-queue backend. `Auto` (the default) picks the indexed heap
    /// for small fleets and the calendar queue at large node counts (see
    /// [`churnbal_desim::CALENDAR_AUTO_THRESHOLD`]). Both backends pop in
    /// identical `(time, seq)` order, so the trajectory — and every
    /// digest — is backend-invariant; only the wall clock changes.
    pub backend: QueueBackend,
    /// Simulation-time probe cadence: `Some(dt)` samples fleet aggregates
    /// at `t = dt, 2·dt, …` into a [`ProbeReport`] (see [`crate::probe`]).
    /// `None` (the default) disables probing entirely; probing draws no
    /// randomness and schedules no events, so the trajectory is identical
    /// either way, and between ticks an armed probe costs what none does.
    pub probe_dt: Option<f64>,
    /// Runaway-task watchdog: `Some(secs)` arms a cooperative *wall-clock*
    /// budget, sampled on the first event and then every 1,024 events; a
    /// run that exhausts it stops early with [`RunSummary::aborted`] set.
    /// Wall time is nondeterministic, so an aborted run's numbers must be
    /// discarded, never averaged — the replication runner quarantines
    /// them. `None` (the default) never aborts.
    pub task_timeout: Option<f64>,
    /// Task-conservation auditor: verify after every event that
    /// `spawned = processed + queued + in_transit + lost + pending`
    /// (see [`crate::ChannelModel`] for what `lost` can be). Always on in
    /// debug builds; this flag opts release builds in (`--audit`). A
    /// violation panics — the books being wrong means every metric is.
    pub audit: bool,
}

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Overall completion time (or the deadline if not completed).
    pub completion_time: f64,
    /// Whether every task was processed.
    pub completed: bool,
    /// Summary metrics.
    pub metrics: Metrics,
    /// Traces, when requested.
    pub trace: Option<QueueTrace>,
    /// Probe telemetry, when [`SimOptions::probe_dt`] was set.
    pub probe: Option<ProbeReport>,
}

/// Compact, allocation-free result of one replication: its outcome and a
/// flat view of its [`Metrics::counters`] (see [`crate::metrics::Counters`]
/// for each count), read off a reused simulator without moving or cloning
/// its [`Metrics`].
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Overall completion time (or the deadline if not completed).
    pub completion_time: f64,
    /// Whether every task was processed.
    pub completed: bool,
    /// Node failures observed.
    pub failures: u64,
    /// Node recoveries observed.
    pub recoveries: u64,
    /// Transfer batches initiated.
    pub transfers: u64,
    /// Total tasks shipped between nodes.
    pub tasks_shipped: u64,
    /// Tasks ordered but clamped for lack of supply.
    pub tasks_clamped: u64,
    /// Tasks permanently lost by the transfer channel.
    pub tasks_lost: u64,
    /// Channel redelivery attempts.
    pub retries: u64,
    /// Batches bounced off down destinations.
    pub bounces: u64,
    /// In-transit task·seconds integral (see
    /// [`Metrics::transit_task_seconds`]).
    pub transit_task_seconds: f64,
    /// Engine events dispatched.
    pub events: u64,
    /// The run was cut short by the [`SimOptions::task_timeout`]
    /// watchdog. Every other field then reflects a wall-clock-dependent
    /// prefix of the run and must not enter any estimate.
    pub aborted: bool,
}

/// The watchdog samples the wall clock every this many events: at
/// millions of events per second, well under a millisecond apart.
const WATCHDOG_STRIDE: u64 = 1024;

/// The thresholds of the event loop's one checkpoint test: the sooner of
/// the next probe tick and the deadline (+∞ when neither is armed), and
/// the executed-event count of the next watchdog sample (`u64::MAX` when
/// it is off).
#[derive(Clone, Copy)]
struct Checkpoint {
    time: f64,
    events: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Service(usize),
    Fail(usize),
    Recover(usize),
    TransferArrive {
        from: usize,
        to: usize,
        tasks: u32,
        /// Delivery attempt: 0 for the original send, incremented by each
        /// channel redelivery (see [`ChannelModel::Lossy`]).
        attempt: u32,
    },
    External {
        node: usize,
        tasks: u32,
    },
    /// A batch spawned by the stochastic [`ArrivalProcess`]; on firing, the
    /// next process arrival is sampled and scheduled.
    ProcArrival {
        node: usize,
        tasks: u32,
    },
    /// A tick of the churn model's shock clock ([`ChurnModel::shock_rate`]).
    Shock,
}

/// The channel's decision for one arriving batch (see [`ChannelModel`]).
enum ChannelVerdict {
    /// The batch reaches the destination queue (the only verdict under
    /// [`ChannelModel::Reliable`]).
    Deliver,
    /// The batch was lost in flight; it enters the retry protocol.
    Lost,
    /// The destination is down and the channel drops on-down batches:
    /// dead-letter immediately, no retry.
    DropDown,
    /// The destination is down and the channel bounces the batch back to
    /// its sender for redelivery.
    BounceDown,
}

/// Per-node runtime state in structure-of-arrays layout: column `i` of
/// every vector describes node `i`. The dynamic columns (`up`, `queue`)
/// double as the policy view — [`Simulator::view_at`] lends them out
/// directly, so a policy callback costs no per-node copy — and the rate
/// columns cache the static config fields contiguously so hot scans
/// (policy excess passes, the shock sweep, service scheduling) do not
/// stride through interleaved [`crate::config::NodeConfig`] structs.
#[derive(Default)]
struct NodeSoa {
    up: Vec<bool>,
    queue: Vec<u32>,
    service_ev: Vec<Option<EventId>>,
    fail_ev: Vec<Option<EventId>>,
    down_since: Vec<f64>,
    service_rate: Vec<f64>,
    failure_rate: Vec<f64>,
    recovery_rate: Vec<f64>,
}

impl NodeSoa {
    /// (Re)initialises every column from `config`, resizing as needed —
    /// the column half of [`Simulator::rebind`]. Allocation-free once each
    /// column's capacity covers the node count.
    fn load(&mut self, config: &SystemConfig) {
        let n = config.num_nodes();
        self.up.clear();
        self.up.resize(n, true);
        self.queue.clear();
        self.queue
            .extend(config.nodes.iter().map(|nc| nc.initial_tasks));
        self.service_ev.clear();
        self.service_ev.resize(n, None);
        self.fail_ev.clear();
        self.fail_ev.resize(n, None);
        self.down_since.clear();
        self.down_since.resize(n, 0.0);
        self.service_rate.clear();
        self.service_rate
            .extend(config.nodes.iter().map(|nc| nc.service_rate));
        self.failure_rate.clear();
        self.failure_rate
            .extend(config.nodes.iter().map(|nc| nc.failure_rate));
        self.recovery_rate.clear();
        self.recovery_rate
            .extend(config.nodes.iter().map(|nc| nc.recovery_rate));
    }
}

/// The simulator. Owns the event queue, the RNG streams and the
/// per-callback scratch buffers (node views, order sink). One-shot use is
/// [`Simulator::new`] + [`Simulator::run`]; the replication runner instead
/// keeps one simulator per worker and cycles it through
/// [`Simulator::reset`] + [`Simulator::run_summary`], so every allocation
/// is reused across replications.
pub struct Simulator<'a> {
    config: &'a SystemConfig,
    queue: BackendQueue<Ev>,
    /// All per-node state, as columns (see [`NodeSoa`]).
    nodes: NodeSoa,
    /// Reusable hook sink: cleared before each policy callback.
    order_sink: Vec<TransferOrder>,
    service_rng: Vec<BatchedRng>,
    churn_rng: Vec<BatchedRng>,
    transfer_rng: BatchedRng,
    arrival_rng: BatchedRng,
    shock_rng: BatchedRng,
    channel_rng: BatchedRng,
    arrival_phase: usize,
    arrival_clock: f64,
    arrivals_open: bool,
    processed: u64,
    spawned: u64,
    /// Tasks of fixed external arrivals whose events have not fired yet —
    /// counted in `spawned` up front, so the conservation auditor needs
    /// this term to balance the books before they land.
    pending_external: u64,
    down_count: usize,
    in_transit: u32,
    last_transit_change: f64,
    metrics: Metrics,
    trace: Option<QueueTrace>,
    probe: Option<ProbeState>,
    options: SimOptions,
    /// When the event loop started, if the watchdog is armed.
    wall_start: Instant,
    /// Set when the task-timeout watchdog fires.
    aborted: bool,
}

impl<'a> Simulator<'a> {
    /// Prepares a run of `config` with randomness derived from `streams`
    /// (pass a [`StreamFactory::subfactory`] per replication).
    #[must_use]
    pub fn new(config: &'a SystemConfig, streams: &StreamFactory, options: SimOptions) -> Self {
        let n = config.num_nodes();
        // An empty simulator that `rebind` arms, so a fresh simulator and
        // a reused one share one initialisation path. `rebind` keeps the
        // queue and reseeds the placeholder streams.
        let unseeded = || BatchedRng::new(streams.stream(0));
        let mut sim = Self {
            config,
            queue: BackendQueue::for_fleet(options.backend, n),
            nodes: NodeSoa::default(),
            order_sink: Vec::new(),
            service_rng: Vec::with_capacity(n),
            churn_rng: Vec::with_capacity(n),
            transfer_rng: unseeded(),
            arrival_rng: unseeded(),
            shock_rng: unseeded(),
            channel_rng: unseeded(),
            arrival_phase: 0,
            arrival_clock: 0.0,
            arrivals_open: false,
            processed: 0,
            spawned: 0,
            pending_external: 0,
            down_count: 0,
            in_transit: 0,
            last_transit_change: 0.0,
            metrics: Metrics::new(n),
            trace: None,
            probe: None,
            options,
            wall_start: Instant::now(),
            aborted: false,
        };
        sim.rebind(config, streams, options);
        sim
    }

    /// Re-arms a finished simulator for another replication of the same
    /// configuration, overwriting the RNG streams from `streams` — the
    /// state a fresh [`Simulator::new`] with the same arguments starts
    /// in, but reusing every allocation (event queue, node vectors,
    /// metrics, scratch buffers).
    pub fn reset(&mut self, streams: &StreamFactory) {
        let config = self.config;
        let options = self.options;
        self.rebind(config, streams, options);
    }

    /// Re-arms the simulator for a run of a *different* configuration —
    /// the cross-grid-point reuse path of the sweep scheduler: one
    /// long-lived simulator per worker serves every `(point, replication)`
    /// task it claims. [`Simulator::new`] arms a fresh simulator through
    /// this same path; per-node vectors are resized in place, so
    /// switching between points of equal node count (the common case along
    /// most sweep axes) keeps every allocation, and any point revisited
    /// after the high-water node count allocates nothing.
    pub fn rebind(
        &mut self,
        config: &'a SystemConfig,
        streams: &StreamFactory,
        options: SimOptions,
    ) {
        let n = config.num_nodes();
        self.config = config;
        self.options = options;
        // Keep the queue's allocation when the resolved backend is stable
        // across the rebind (the common case); rebuild it only when the
        // node count crosses the auto-selection threshold or the caller
        // switched backends explicitly.
        if options.backend.resolve(n) == self.queue.backend() {
            self.queue.clear();
        } else {
            self.queue = BackendQueue::for_fleet(options.backend, n);
        }
        self.nodes.load(config);
        self.service_rng.truncate(n);
        self.churn_rng.truncate(n);
        for i in 0..self.service_rng.len() {
            self.service_rng[i].reseed(streams.stream(2 * i as u64));
            self.churn_rng[i].reseed(streams.stream(2 * i as u64 + 1));
        }
        for i in self.service_rng.len()..n {
            self.service_rng
                .push(BatchedRng::new(streams.stream(2 * i as u64)));
            self.churn_rng
                .push(BatchedRng::new(streams.stream(2 * i as u64 + 1)));
        }
        self.transfer_rng.reseed(streams.stream(2 * n as u64));
        self.arrival_rng.reseed(streams.stream(2 * n as u64 + 1));
        self.shock_rng.reseed(streams.stream(2 * n as u64 + 2));
        self.channel_rng.reseed(streams.stream(2 * n as u64 + 3));
        self.arrival_phase = 0;
        self.arrival_clock = 0.0;
        self.arrivals_open = config.arrival_process.is_some();
        self.processed = 0;
        self.spawned = config.total_tasks();
        self.pending_external = config
            .external_arrivals
            .iter()
            .map(|a| u64::from(a.tasks))
            .sum();
        self.down_count = 0;
        self.in_transit = 0;
        self.last_transit_change = 0.0;
        self.metrics.reset_for(n);
        self.order_sink.clear();
        self.aborted = false;
        self.trace = options
            .record_trace
            .then(|| QueueTrace::new(&self.nodes.queue));
        // Re-arm the probe in place (keeping its allocations) when it
        // stays enabled; build or drop it on an on/off transition.
        match options.probe_dt {
            Some(dt) => self.probe.get_or_insert_with(ProbeState::default).rearm(dt),
            None => self.probe = None,
        }
    }

    /// Executes the run to completion (or deadline) under `policy`.
    ///
    /// Completion means every spawned task (initial workload, fixed
    /// external arrivals, and everything a stochastic arrival process has
    /// generated up to its horizon) has been processed.
    pub fn run(mut self, policy: &mut dyn Policy) -> SimOutcome {
        let (time, completed) = self.drive(policy);
        self.close_accounting(time);
        SimOutcome {
            completion_time: time,
            completed,
            metrics: self.metrics,
            trace: self.trace,
            probe: self.probe.map(|ps| ps.report),
        }
    }

    /// Executes the run and returns the compact per-replication summary,
    /// leaving the simulator ready for [`Simulator::reset`]. The
    /// allocation-free counterpart of [`Simulator::run`] for the
    /// replication runner; full metrics stay readable via
    /// [`Simulator::metrics`].
    pub fn run_summary(&mut self, policy: &mut dyn Policy) -> RunSummary {
        let (time, completed) = self.drive(policy);
        self.close_accounting(time);
        let c = self.metrics.counters;
        RunSummary {
            completion_time: time,
            completed,
            failures: c.failures,
            recoveries: c.recoveries,
            transfers: c.transfers,
            tasks_shipped: c.tasks_shipped,
            tasks_clamped: c.tasks_clamped,
            tasks_lost: c.tasks_lost,
            retries: c.retries,
            bounces: c.bounces,
            transit_task_seconds: self.metrics.transit_task_seconds,
            events: c.events,
            aborted: self.aborted,
        }
    }

    /// The metrics of the last completed run (for callers using
    /// [`Simulator::run_summary`]).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The probe telemetry of the last completed run, when probing was
    /// enabled via [`SimOptions::probe_dt`].
    #[must_use]
    pub fn probe_report(&self) -> Option<&ProbeReport> {
        self.probe.as_ref().map(|ps| &ps.report)
    }

    /// Moves the last run's probe telemetry out of the simulator, leaving
    /// an empty report — the replication runner's hand-off path: the
    /// simulator stays bound and ready for [`Simulator::reset`].
    pub fn take_probe_report(&mut self) -> Option<ProbeReport> {
        self.probe.as_mut().map(|ps| std::mem::take(&mut ps.report))
    }

    /// Seeds the initial events and drives the event loop; returns the
    /// completion time and whether the workload finished. Every event
    /// takes one path: pop, one checkpoint test, apply, audit, and one
    /// completion test after an event that drained tasks.
    fn drive(&mut self, policy: &mut dyn Policy) -> (f64, bool) {
        // A simulator must be freshly built, reset or rebound before every
        // run — driving a finished one again would seed new events onto
        // stale state and "complete" instantly with garbage.
        debug_assert!(
            self.queue.is_empty() && self.processed == 0 && self.metrics.counters.events == 0,
            "Simulator reused without reset()/rebind()"
        );
        // Seed churn, shock and external-arrival events.
        for i in 0..self.config.num_nodes() {
            self.schedule_failure(i);
        }
        self.arm_shock_clock();
        for a in &self.config.external_arrivals {
            self.queue.schedule_at(
                SimTime::new(a.time),
                Ev::External {
                    node: a.node,
                    tasks: a.tasks,
                },
            );
        }
        if self.arrivals_open {
            self.schedule_next_proc_arrival();
        }
        // t = 0 policy action.
        self.dispatch(policy, 0.0, |p, v, s| p.on_start(v, s));
        for i in 0..self.config.num_nodes() {
            self.maybe_schedule_service(i);
        }
        self.audit_conservation();
        if self.is_complete() {
            return (0.0, true);
        }

        let mut due = Checkpoint {
            time: self.next_checkpoint_time(),
            events: u64::MAX,
        };
        if self.options.task_timeout.is_some() {
            self.wall_start = Instant::now();
            due.events = 0;
        }
        while let Some(ev) = self.queue.pop() {
            let now = ev.time.seconds();
            if now >= due.time || self.metrics.counters.events >= due.events {
                match self.checkpoint(now, due) {
                    ControlFlow::Continue(next) => due = next,
                    ControlFlow::Break(stop) => return stop,
                }
            }
            self.metrics.counters.events += 1;
            // Whether tasks left the system, so the run may be complete.
            let drained = match ev.payload {
                Ev::Service(i) => {
                    debug_assert!(self.nodes.up[i], "service completion on a down node");
                    debug_assert!(
                        self.nodes.queue[i] > 0,
                        "service completion with empty queue"
                    );
                    self.nodes.service_ev[i] = None;
                    self.nodes.queue[i] -= 1;
                    self.processed += 1;
                    self.metrics.processed_per_node[i] += 1;
                    self.record_queue(now, i);
                    // A complete run has every queue empty: no draw.
                    self.maybe_schedule_service(i);
                    true
                }
                Ev::Fail(i) => {
                    self.nodes.fail_ev[i] = None;
                    self.fail_node(i, now, policy);
                    false
                }
                Ev::Recover(i) => {
                    debug_assert!(!self.nodes.up[i], "recovery of an up node");
                    self.nodes.up[i] = true;
                    self.down_count -= 1;
                    self.metrics.counters.recoveries += 1;
                    self.metrics.downtime_per_node[i] += now - self.nodes.down_since[i];
                    if let Some(ps) = &mut self.probe {
                        ps.record_downtime(now - self.nodes.down_since[i]);
                    }
                    self.schedule_failure(i);
                    self.maybe_schedule_service(i);
                    if let Some(t) = &mut self.trace {
                        t.record_state(now, i, true);
                    }
                    self.reschedule_failures_on_pressure_change(i);
                    self.dispatch(policy, now, |p, v, s| p.on_recovery(i, v, s));
                    false
                }
                Ev::TransferArrive {
                    from,
                    to,
                    tasks,
                    attempt,
                } => match self.channel_verdict(from, to) {
                    ChannelVerdict::Deliver => {
                        self.accumulate_transit(now);
                        self.in_transit -= tasks;
                        self.nodes.queue[to] += tasks;
                        self.record_queue(now, to);
                        self.maybe_schedule_service(to);
                        self.dispatch(policy, now, |p, v, s| {
                            p.on_transfer_arrival(to, tasks, v, s)
                        });
                        false
                    }
                    ChannelVerdict::Lost => {
                        self.retry_or_dead_letter(now, from, to, tasks, attempt)
                    }
                    ChannelVerdict::DropDown => {
                        self.dead_letter(now, tasks);
                        true
                    }
                    ChannelVerdict::BounceDown => {
                        self.metrics.counters.bounces += 1;
                        self.retry_or_dead_letter(now, from, to, tasks, attempt)
                    }
                },
                Ev::External { node, tasks } => {
                    self.pending_external -= u64::from(tasks);
                    self.nodes.queue[node] += tasks;
                    self.record_queue(now, node);
                    self.maybe_schedule_service(node);
                    self.dispatch(policy, now, |p, v, s| {
                        p.on_external_arrival(node, tasks, v, s);
                    });
                    false
                }
                Ev::ProcArrival { node, tasks } => {
                    self.spawned += u64::from(tasks);
                    self.nodes.queue[node] += tasks;
                    self.record_queue(now, node);
                    self.maybe_schedule_service(node);
                    self.schedule_next_proc_arrival();
                    self.dispatch(policy, now, |p, v, s| {
                        p.on_external_arrival(node, tasks, v, s);
                    });
                    false
                }
                Ev::Shock => {
                    self.shock(now, policy);
                    self.arm_shock_clock();
                    false
                }
            };
            self.audit_conservation();
            if drained && self.is_complete() {
                return (now, true);
            }
        }
        // Queue exhausted without processing everything: only possible when
        // tasks remain but nothing can ever happen — prevented by config
        // validation (a failing node always recovers).
        unreachable!(
            "event queue exhausted with {}/{} tasks processed",
            self.processed, self.spawned
        );
    }

    /// The event loop's one checkpoint, for an event at `now` that reached
    /// a threshold of `due`: a due watchdog sample aborts the run at `now`
    /// once the budget is spent; probe ticks up to `min(now, deadline)`
    /// sample the pre-event state; an event past the deadline stops the
    /// run there, uncounted. Otherwise it returns the next thresholds.
    fn checkpoint(
        &mut self,
        now: f64,
        mut due: Checkpoint,
    ) -> ControlFlow<(f64, bool), Checkpoint> {
        // Only an armed watchdog's threshold is ever reached.
        if self.metrics.counters.events >= due.events {
            let limit = self.options.task_timeout.unwrap_or(f64::INFINITY);
            if self.wall_start.elapsed().as_secs_f64() > limit {
                // Everything this run accumulated is lost (see
                // [`RunSummary::aborted`]).
                self.aborted = true;
                return ControlFlow::Break((now, false));
            }
            due.events += WATCHDOG_STRIDE;
        }
        let deadline = self.options.deadline.unwrap_or(f64::INFINITY);
        if let Some(ps) = &mut self.probe {
            // The state is piecewise constant between events, so a tick
            // sampled before the event sees the state at its instant.
            while ps.next_time() <= now.min(deadline) {
                ps.sample(
                    &self.nodes.up,
                    &self.nodes.queue,
                    self.in_transit,
                    self.metrics.counters.failures,
                    self.metrics.counters.transfers,
                    self.metrics.counters.tasks_lost,
                );
            }
        }
        if now > deadline {
            return ControlFlow::Break((deadline, false));
        }
        due.time = self.next_checkpoint_time();
        ControlFlow::Continue(due)
    }

    /// The time threshold of the next checkpoint (see [`Checkpoint`]).
    fn next_checkpoint_time(&self) -> f64 {
        let tick = self
            .probe
            .as_ref()
            .map_or(f64::INFINITY, ProbeState::next_time);
        tick.min(self.options.deadline.unwrap_or(f64::INFINITY))
    }

    /// Schedules the next tick of the churn model's shock clock, if it
    /// has one: at the start of a run and after each strike's draws.
    fn arm_shock_clock(&mut self) {
        if let Some(rate) = self.config.churn.shock_rate() {
            let dt = self.shock_rng.exp(rate);
            self.queue.schedule_in(dt, Ev::Shock);
        }
    }

    /// The strike of a shock-clock tick under the configured churn model.
    fn shock(&mut self, now: f64, policy: &mut dyn Policy) {
        let config = self.config;
        let n = config.num_nodes();
        match &config.churn {
            ChurnModel::CorrelatedShocks {
                hit_probability, ..
            } => {
                for i in 0..n {
                    if self.nodes.up[i]
                        && self.nodes.failure_rate[i] > 0.0
                        && self.shock_rng.next_f64() < *hit_probability
                    {
                        self.fail_node(i, now, policy);
                    }
                }
            }
            ChurnModel::RackShocks {
                group_size,
                hit_probabilities,
                ..
            } => {
                // One uniform draw per group, in ascending group order and
                // regardless of the hit outcome, so the RNG consumption
                // depends only on the group count — never on which racks
                // happened to be struck.
                let group = *group_size as usize;
                for g in 0..n.div_ceil(group) {
                    let p = hit_probabilities[g % hit_probabilities.len()];
                    if self.shock_rng.next_f64() < p {
                        for i in g * group..((g + 1) * group).min(n) {
                            if self.nodes.up[i] && self.nodes.failure_rate[i] > 0.0 {
                                self.fail_node(i, now, policy);
                            }
                        }
                    }
                }
            }
            ChurnModel::Adversarial { .. } => {
                // The adversary downs the most-loaded up, failure-prone
                // node (ties to the lowest index) — no randomness beyond
                // the strike clock.
                let mut target: Option<usize> = None;
                for i in 0..n {
                    if self.nodes.up[i] && self.nodes.failure_rate[i] > 0.0 {
                        let better =
                            target.is_none_or(|t| self.nodes.queue[i] > self.nodes.queue[t]);
                        if better {
                            target = Some(i);
                        }
                    }
                }
                if let Some(i) = target {
                    self.fail_node(i, now, policy);
                }
            }
            ChurnModel::Independent | ChurnModel::Cascading { .. } => {
                unreachable!("shock event without a shock churn model")
            }
        }
    }

    /// Every spawned task accounted for — processed, or permanently lost
    /// by the channel — and no more arrivals can come. Dead-lettered
    /// tasks count toward drain: a run whose last in-flight batch is lost
    /// still terminates (with `tasks_lost` on the books).
    fn is_complete(&self) -> bool {
        self.processed + self.metrics.counters.tasks_lost >= self.spawned && !self.arrivals_open
    }

    /// The channel's verdict for a batch arriving over `from → to`. Under
    /// [`ChannelModel::Lossy`] exactly one uniform is drawn per arrival
    /// (before the destination's up/down state is consulted), so the
    /// dedicated stream's consumption depends only on the arrival count —
    /// CRN pairing across policies survives any loss pattern. Under
    /// [`ChannelModel::Reliable`] no randomness is touched at all, which
    /// is what keeps legacy trajectories bit-identical.
    fn channel_verdict(&mut self, from: usize, to: usize) -> ChannelVerdict {
        let (base, on_down) = match &self.config.channel {
            ChannelModel::Reliable => return ChannelVerdict::Deliver,
            ChannelModel::Lossy {
                loss_probability,
                on_down,
                ..
            } => (*loss_probability, *on_down),
        };
        let mut p = base;
        if let Some(topo) = self.config.topology() {
            // `apply_orders` already rejected off-edge transfers; retries
            // keep the original endpoints, so the edge still exists.
            p = (p * topo
                .edge_loss_scale(from, to)
                .expect("transfer routed off the topology"))
            .min(1.0);
        }
        if self.channel_rng.next_f64() < p {
            ChannelVerdict::Lost
        } else if self.nodes.up[to] {
            ChannelVerdict::Deliver
        } else {
            match on_down {
                DownPolicy::Enqueue => ChannelVerdict::Deliver,
                DownPolicy::Drop => ChannelVerdict::DropDown,
                DownPolicy::Bounce => ChannelVerdict::BounceDown,
            }
        }
    }

    /// Redelivery protocol of [`ChannelModel::Lossy`]: reschedule the
    /// batch after an exponential backoff whose mean doubles with each
    /// attempt, or dead-letter it once `max_retries` redeliveries are
    /// exhausted. Tasks stay in transit while backing off. Returns whether
    /// the batch was dead-lettered — the caller must then re-check
    /// completion, since lost tasks count toward drain.
    fn retry_or_dead_letter(
        &mut self,
        now: f64,
        from: usize,
        to: usize,
        tasks: u32,
        attempt: u32,
    ) -> bool {
        let ChannelModel::Lossy {
            max_retries,
            retry_backoff,
            ..
        } = &self.config.channel
        else {
            unreachable!("retry protocol without a lossy channel")
        };
        let (max_retries, retry_backoff) = (*max_retries, *retry_backoff);
        if attempt >= max_retries {
            self.dead_letter(now, tasks);
            return true;
        }
        self.metrics.counters.retries += 1;
        // Mean backoff 2^attempt · retry_backoff; the exponent cap keeps
        // the mean finite for absurd `max_retries` settings.
        let mean = retry_backoff * f64::from(attempt.min(60)).exp2();
        let backoff = self.channel_rng.exp(1.0 / mean);
        if let Some(ps) = &mut self.probe {
            ps.record_retry_delay(backoff);
        }
        self.queue.schedule_in(
            backoff,
            Ev::TransferArrive {
                from,
                to,
                tasks,
                attempt: attempt + 1,
            },
        );
        false
    }

    /// Terminal channel failure: the batch leaves transit and its tasks
    /// are counted permanently lost.
    fn dead_letter(&mut self, now: f64, tasks: u32) {
        self.accumulate_transit(now);
        self.in_transit -= tasks;
        self.metrics.counters.tasks_lost += u64::from(tasks);
    }

    /// Task-conservation audit hook: free in release builds unless
    /// [`SimOptions::audit`] opted in; always armed under debug
    /// assertions.
    #[inline]
    fn audit_conservation(&self) {
        if cfg!(debug_assertions) || self.options.audit {
            self.check_conservation();
        }
    }

    /// Verifies the conservation invariant
    /// `spawned = processed + queued + in_transit + lost + pending`:
    /// every task the run has spawned (initial workload, fixed external
    /// arrivals counted up front, process arrivals counted on firing) is
    /// either done, waiting in a queue, in flight (including backoff),
    /// dead-lettered, or not yet landed. Panics on violation — cooked
    /// books invalidate every metric downstream.
    fn check_conservation(&self) {
        let queued: u64 = self.nodes.queue.iter().map(|&q| u64::from(q)).sum();
        let accounted = self.processed
            + queued
            + u64::from(self.in_transit)
            + self.metrics.counters.tasks_lost
            + self.pending_external;
        assert!(
            accounted == self.spawned,
            "task-conservation violation: {} processed + {queued} queued + {} in transit + \
             {} lost + {} pending external = {accounted}, but {} tasks were spawned",
            self.processed,
            self.in_transit,
            self.metrics.counters.tasks_lost,
            self.pending_external,
            self.spawned
        );
    }

    /// The common failure transition, used by both natural [`Ev::Fail`]
    /// events and environmental shocks.
    fn fail_node(&mut self, i: usize, now: f64, policy: &mut dyn Policy) {
        debug_assert!(self.nodes.up[i], "failure of an already-down node");
        // A shock may preempt the node's pending natural failure.
        if let Some(id) = self.nodes.fail_ev[i].take() {
            self.queue.cancel(id);
        }
        self.nodes.up[i] = false;
        self.nodes.down_since[i] = now;
        self.down_count += 1;
        self.metrics.counters.failures += 1;
        if let Some(id) = self.nodes.service_ev[i].take() {
            self.queue.cancel(id);
        }
        let dt = self.churn_rng[i].exp(self.nodes.recovery_rate[i]);
        self.queue.schedule_in(dt, Ev::Recover(i));
        if let Some(t) = &mut self.trace {
            t.record_state(now, i, false);
        }
        self.reschedule_failures_on_pressure_change(i);
        self.dispatch(policy, now, |p, v, s| p.on_failure(i, v, s));
    }

    /// Effective failure rate of node `i` under the configured churn model.
    fn effective_failure_rate(&self, i: usize) -> f64 {
        let base = self.nodes.failure_rate[i];
        match self.config.churn {
            ChurnModel::Cascading { amplification } => {
                base * (1.0 + amplification * self.down_count as f64)
            }
            ChurnModel::Independent
            | ChurnModel::CorrelatedShocks { .. }
            | ChurnModel::RackShocks { .. }
            | ChurnModel::Adversarial { .. } => base,
        }
    }

    /// Schedules the next natural failure of (up) node `i`.
    fn schedule_failure(&mut self, i: usize) {
        let rate = self.effective_failure_rate(i);
        if rate > 0.0 {
            let dt = self.churn_rng[i].exp(rate);
            self.nodes.fail_ev[i] = Some(self.queue.schedule_in(dt, Ev::Fail(i)));
        }
    }

    /// Under [`ChurnModel::Cascading`], a change in the number of down
    /// nodes changes every other up node's effective failure rate; by
    /// memorylessness of the exponential, cancelling and redrawing the
    /// pending failure at the new rate is distribution-exact for a
    /// piecewise-constant hazard. `changed` is the node whose state just
    /// flipped (its own failure event is already consistent).
    fn reschedule_failures_on_pressure_change(&mut self, changed: usize) {
        if !matches!(self.config.churn, ChurnModel::Cascading { .. }) {
            return;
        }
        for j in 0..self.config.num_nodes() {
            if j == changed || !self.nodes.up[j] {
                continue;
            }
            if let Some(id) = self.nodes.fail_ev[j].take() {
                self.queue.cancel(id);
                self.schedule_failure(j);
            }
        }
    }

    /// Samples and schedules the next stochastic arrival, or closes the
    /// process when the horizon has passed.
    fn schedule_next_proc_arrival(&mut self) {
        let config = self.config;
        let Some(process) = config.arrival_process.as_ref() else {
            self.arrivals_open = false;
            return;
        };
        match self.sample_next_arrival_time(&process.kind, process.horizon) {
            None => self.arrivals_open = false,
            Some(t) => {
                let node = self.arrival_rng.next_below(config.num_nodes() as u64) as usize;
                let span = u64::from(process.batch_max - process.batch_min) + 1;
                let tasks = process.batch_min + self.arrival_rng.next_below(span) as u32;
                self.queue
                    .schedule_at(SimTime::new(t), Ev::ProcArrival { node, tasks });
            }
        }
    }

    /// Advances the arrival generator from its current clock to the next
    /// arrival instant, or `None` once past the horizon.
    fn sample_next_arrival_time(&mut self, kind: &ArrivalKind, horizon: f64) -> Option<f64> {
        match kind {
            ArrivalKind::Poisson { rate } => {
                let t = self.arrival_clock + self.arrival_rng.exp(*rate);
                (t <= horizon).then(|| {
                    self.arrival_clock = t;
                    t
                })
            }
            ArrivalKind::Mmpp {
                rates,
                switch_rates,
            } => {
                let mut t = self.arrival_clock;
                loop {
                    let lambda = rates[self.arrival_phase];
                    let sojourn = self.arrival_rng.exp(switch_rates[self.arrival_phase]);
                    let arrival = if lambda > 0.0 {
                        self.arrival_rng.exp(lambda)
                    } else {
                        f64::INFINITY
                    };
                    if arrival <= sojourn {
                        let at = t + arrival;
                        if at > horizon {
                            return None;
                        }
                        self.arrival_clock = at;
                        return Some(at);
                    }
                    t += sojourn;
                    if t > horizon {
                        return None;
                    }
                    self.arrival_phase = (self.arrival_phase + 1) % rates.len();
                }
            }
            ArrivalKind::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                let rate_max = base_rate * (1.0 + amplitude);
                let rate_at = |t: f64| {
                    base_rate * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period).sin())
                };
                self.sample_by_thinning(rate_max, rate_at, horizon)
            }
            ArrivalKind::FlashCrowd {
                base_rate,
                spike_start,
                spike_duration,
                spike_factor,
            } => {
                let rate_max = base_rate * spike_factor;
                let spike = *spike_start..(spike_start + spike_duration);
                let rate_at = |t: f64| {
                    if spike.contains(&t) {
                        base_rate * spike_factor
                    } else {
                        *base_rate
                    }
                };
                self.sample_by_thinning(rate_max, rate_at, horizon)
            }
        }
    }

    /// Ogata thinning for a non-homogeneous Poisson process with rate
    /// function `rate_at` bounded by `rate_max`.
    fn sample_by_thinning(
        &mut self,
        rate_max: f64,
        rate_at: impl Fn(f64) -> f64,
        horizon: f64,
    ) -> Option<f64> {
        let mut t = self.arrival_clock;
        loop {
            t += self.arrival_rng.exp(rate_max);
            if t > horizon {
                return None;
            }
            if self.arrival_rng.next_f64() < rate_at(t) / rate_max {
                self.arrival_clock = t;
                return Some(t);
            }
        }
    }

    /// The policy-callback path: lends the engine's own state columns out
    /// as the view (`view_at` — no copy, no allocation), invokes one hook
    /// into the reusable order sink, and applies the resulting orders.
    fn dispatch(
        &mut self,
        policy: &mut dyn Policy,
        now: f64,
        hook: impl FnOnce(&mut dyn Policy, &SystemView<'_>, &mut Vec<TransferOrder>),
    ) {
        // Temporarily take the sink so the view's borrow of `self` and the
        // sink's mutability do not alias (`mem::take` swaps in an empty,
        // allocation-free Vec).
        let mut sink = std::mem::take(&mut self.order_sink);
        sink.clear();
        let view = self.view_at(now);
        hook(policy, &view, &mut sink);
        self.apply_orders(&sink);
        self.order_sink = sink;
    }

    /// Lends the engine's state columns out as a borrowed snapshot at time
    /// `time`. The dynamic columns (`queue`, `up`) *are* the engine state,
    /// so there is nothing to sync — the AoS design this replaces copied
    /// every node into a scratch view on each policy callback.
    fn view_at(&self, time: f64) -> SystemView<'_> {
        SystemView {
            time,
            queue_len: &self.nodes.queue,
            up: &self.nodes.up,
            service_rate: &self.nodes.service_rate,
            failure_rate: &self.nodes.failure_rate,
            recovery_rate: &self.nodes.recovery_rate,
            delay_per_task: self.config.network.per_task,
            in_transit: self.in_transit,
            tasks_lost: self.metrics.counters.tasks_lost,
            topology: self.config.topology(),
        }
    }

    fn maybe_schedule_service(&mut self, i: usize) {
        if self.nodes.up[i] && self.nodes.queue[i] > 0 && self.nodes.service_ev[i].is_none() {
            let dt = self.service_rng[i].exp(self.nodes.service_rate[i]);
            self.nodes.service_ev[i] = Some(self.queue.schedule_in(dt, Ev::Service(i)));
        }
    }

    fn apply_orders(&mut self, orders: &[TransferOrder]) {
        let now = self.queue.now().seconds();
        for order in orders {
            assert!(
                order.from < self.config.num_nodes() && order.to < self.config.num_nodes(),
                "transfer order references unknown node: {order:?}"
            );
            assert!(order.from != order.to, "transfer to self: {order:?}");
            if let Some(topo) = self.config.topology() {
                assert!(
                    topo.contains_edge(order.from, order.to),
                    "transfer order off the topology edge set: {order:?}"
                );
            }
            let available = self.nodes.queue[order.from];
            let granted = order.tasks.min(available);
            self.metrics.counters.tasks_clamped += u64::from(order.tasks - granted);
            if granted == 0 {
                continue;
            }
            self.nodes.queue[order.from] -= granted;
            // The batch may include the task currently in service; with the
            // queue emptied the pending completion must be cancelled.
            if self.nodes.queue[order.from] == 0 {
                if let Some(id) = self.nodes.service_ev[order.from].take() {
                    self.queue.cancel(id);
                }
            }
            self.record_queue(now, order.from);
            self.accumulate_transit(now);
            self.in_transit += granted;
            self.metrics.counters.transfers += 1;
            self.metrics.counters.tasks_shipped += u64::from(granted);
            let delay = self.sample_delay(order.from, order.to, granted);
            if let Some(ps) = &mut self.probe {
                ps.record_transfer_delay(delay);
            }
            self.queue.schedule_in(
                delay,
                Ev::TransferArrive {
                    from: order.from,
                    to: order.to,
                    tasks: granted,
                    attempt: 0,
                },
            );
        }
    }

    fn sample_delay(&mut self, from: usize, to: usize, tasks: u32) -> f64 {
        let net = &self.config.network;
        let scale = self.config.topology().map_or(1.0, |topo| {
            // `apply_orders` already rejected off-edge transfers.
            topo.edge_delay_scale(from, to)
                .expect("transfer routed off the topology")
        });
        match net.law {
            DelayLaw::ExponentialBatch => {
                self.transfer_rng.exp(1.0 / (scale * net.mean_delay(tasks)))
            }
            DelayLaw::ErlangPerTask => {
                let mut d = scale * net.fixed;
                if net.per_task > 0.0 {
                    for _ in 0..tasks {
                        d += self.transfer_rng.exp(1.0 / (scale * net.per_task));
                    }
                }
                d
            }
            DelayLaw::DeterministicBatch => scale * net.mean_delay(tasks),
        }
    }

    fn accumulate_transit(&mut self, now: f64) {
        self.metrics.transit_task_seconds +=
            f64::from(self.in_transit) * (now - self.last_transit_change);
        self.last_transit_change = now;
    }

    fn record_queue(&mut self, now: f64, i: usize) {
        if let Some(t) = &mut self.trace {
            t.record_queue(now, i, self.nodes.queue[i]);
        }
    }

    /// End-of-run bookkeeping shared by [`Simulator::run`] and
    /// [`Simulator::run_summary`].
    fn close_accounting(&mut self, time: f64) {
        self.accumulate_transit(time);
        // Close out down-time accounting for nodes still down.
        for i in 0..self.config.num_nodes() {
            if !self.nodes.up[i] {
                let spell = time - self.nodes.down_since[i];
                self.metrics.downtime_per_node[i] += spell;
                if let Some(ps) = &mut self.probe {
                    ps.record_downtime(spell);
                }
            }
        }
    }
}

/// Convenience wrapper: one full run from a bare seed.
#[must_use]
pub fn simulate(
    config: &SystemConfig,
    policy: &mut dyn Policy,
    seed: u64,
    options: SimOptions,
) -> SimOutcome {
    Simulator::new(config, &StreamFactory::new(seed), options).run(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExternalArrival, NetworkConfig, NodeConfig, SystemConfig};
    use crate::policy::NoBalancing;
    use churnbal_stochastic::OnlineStats;

    fn reliable_pair(m: [u32; 2]) -> SystemConfig {
        SystemConfig::new(
            vec![
                NodeConfig::reliable(1.08, m[0]),
                NodeConfig::reliable(1.86, m[1]),
            ],
            NetworkConfig::exponential(0.02),
        )
    }

    #[test]
    fn empty_workload_completes_instantly() {
        let cfg = reliable_pair([0, 0]);
        let out = simulate(&cfg, &mut NoBalancing, 1, SimOptions::default());
        assert!(out.completed);
        assert_eq!(out.completion_time, 0.0);
        assert_eq!(out.metrics.total_processed(), 0);
    }

    #[test]
    fn all_tasks_get_processed() {
        let cfg = reliable_pair([30, 20]);
        let out = simulate(&cfg, &mut NoBalancing, 2, SimOptions::default());
        assert!(out.completed);
        assert_eq!(out.metrics.total_processed(), 50);
        assert_eq!(out.metrics.processed_per_node, vec![30, 20]);
        assert!(out.completion_time > 0.0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let cfg = SystemConfig::paper([40, 25]);
        let a = simulate(&cfg, &mut NoBalancing, 7, SimOptions::default());
        let b = simulate(&cfg, &mut NoBalancing, 7, SimOptions::default());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SystemConfig::paper([40, 25]);
        let a = simulate(&cfg, &mut NoBalancing, 7, SimOptions::default());
        let b = simulate(&cfg, &mut NoBalancing, 8, SimOptions::default());
        assert_ne!(a.completion_time, b.completion_time);
    }

    #[test]
    fn no_balancing_mean_matches_erlang_makespan() {
        // Without churn and transfers, T = max(Erlang(m1, λ1), Erlang(m2, λ2)).
        // Check the MC mean against a numerically integrated reference.
        let cfg = reliable_pair([10, 10]);
        let mut stats = OnlineStats::new();
        for seed in 0..4000 {
            let out = simulate(&cfg, &mut NoBalancing, seed, SimOptions::default());
            stats.push(out.completion_time);
        }
        // E[max] via P(max > t) = 1 - F1 F2, trapezoid on a fine grid.
        let erlang_cdf = |k: u32, rate: f64, t: f64| {
            let lt = rate * t;
            let mut term = 1.0f64;
            let mut tail = 1.0f64;
            for j in 1..k {
                term *= lt / f64::from(j);
                tail += term;
            }
            1.0 - (-lt).exp() * tail
        };
        let mut expected = 0.0;
        let dt = 0.002;
        let mut t = 0.0;
        while t < 80.0 {
            let s = 1.0 - erlang_cdf(10, 1.08, t) * erlang_cdf(10, 1.86, t);
            expected += s * dt;
            t += dt;
        }
        let err = (stats.mean() - expected).abs();
        assert!(
            err < 3.0 * stats.ci95_half_width().max(0.05),
            "MC mean {} vs analytic {expected}",
            stats.mean()
        );
    }

    #[test]
    fn churn_produces_failures_and_downtime() {
        let cfg = SystemConfig::paper([60, 40]);
        let out = simulate(&cfg, &mut NoBalancing, 3, SimOptions::default());
        assert!(out.completed);
        // With ~100 s horizons and 20 s mean failure times, churn is near
        // certain across both nodes.
        assert!(
            out.metrics.counters.failures > 0,
            "expected at least one failure"
        );
        assert!(out.metrics.downtime_per_node.iter().any(|&d| d > 0.0));
    }

    #[test]
    fn reset_replays_a_run_bit_exactly() {
        // A reused simulator must be indistinguishable from a fresh one:
        // same streams -> same trajectory; intervening runs leave no trace.
        let cfg = SystemConfig::paper([60, 35]);
        let factory = StreamFactory::new(99);
        let fresh = Simulator::new(&cfg, &factory.subfactory(1), SimOptions::default())
            .run(&mut NoBalancing);
        let mut sim = Simulator::new(&cfg, &factory.subfactory(0), SimOptions::default());
        let _ = sim.run_summary(&mut NoBalancing); // a different replication first
        sim.reset(&factory.subfactory(1));
        let reused = sim.run_summary(&mut NoBalancing);
        assert_eq!(reused.completion_time, fresh.completion_time);
        assert_eq!(reused.failures, fresh.metrics.counters.failures);
        assert_eq!(reused.events, fresh.metrics.counters.events);
        assert_eq!(sim.metrics(), &fresh.metrics);
    }

    #[test]
    fn reset_covers_arrival_process_state() {
        use crate::config::ArrivalProcess;
        // Arrival clock/phase are part of the reset contract too.
        let cfg = reliable_pair([2, 2])
            .with_arrival_process(ArrivalProcess::poisson(1.0, 15.0).with_batch(1, 2));
        let factory = StreamFactory::new(7);
        let fresh = Simulator::new(&cfg, &factory.subfactory(3), SimOptions::default())
            .run(&mut NoBalancing);
        let mut sim = Simulator::new(&cfg, &factory.subfactory(2), SimOptions::default());
        let _ = sim.run_summary(&mut NoBalancing);
        sim.reset(&factory.subfactory(3));
        let reused = sim.run_summary(&mut NoBalancing);
        assert_eq!(reused.completion_time, fresh.completion_time);
        assert_eq!(sim.metrics(), &fresh.metrics);
    }

    #[test]
    fn deadline_stops_early() {
        let cfg = reliable_pair([10_000, 10_000]);
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            4,
            SimOptions {
                deadline: Some(1.0),
                ..SimOptions::default()
            },
        );
        assert!(!out.completed);
        assert_eq!(out.completion_time, 1.0);
        assert!(out.metrics.total_processed() < 20_000);
    }

    #[test]
    fn trace_records_queue_drain() {
        let cfg = reliable_pair([5, 3]);
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            5,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        let tr = out.trace.expect("trace requested");
        assert_eq!(tr.queue_at(0, 0.0), 5);
        assert_eq!(tr.queue_at(0, out.completion_time + 1.0), 0);
        // 5 decrements -> 6 breakpoints
        assert_eq!(tr.queue_series(0).len(), 6);
    }

    #[test]
    fn probing_does_not_change_the_trajectory() {
        let cfg = SystemConfig::paper([60, 40]);
        let off = simulate(&cfg, &mut NoBalancing, 3, SimOptions::default());
        let on = simulate(
            &cfg,
            &mut NoBalancing,
            3,
            SimOptions {
                probe_dt: Some(0.5),
                ..SimOptions::default()
            },
        );
        assert_eq!(on.completion_time, off.completion_time);
        assert_eq!(on.metrics, off.metrics);
        assert!(off.probe.is_none(), "no report without probe_dt");
        let report = on.probe.expect("probe requested");
        assert!(!report.samples.is_empty());
        for (k, s) in report.samples.iter().enumerate() {
            assert_eq!(s.time, (k as f64 + 1.0) * 0.5, "exact tick grid");
            assert!(s.time <= off.completion_time);
        }
        let last = report.samples.last().expect("non-empty");
        assert!(
            last.failures <= off.metrics.counters.failures,
            "cumulative counters"
        );
        assert!(report.downtime_us.total() >= off.metrics.counters.recoveries);
    }

    #[test]
    fn probe_samples_observe_fleet_aggregates() {
        // Deterministic single transfer: 4 tasks leave node 0 at t = 0 and
        // are in transit until exactly t = 1.5 (0.5 fixed + 4 × 0.25).
        let mut cfg = reliable_pair([4, 0]);
        cfg.network = NetworkConfig::new(0.5, 0.25, crate::config::DelayLaw::DeterministicBatch);
        let out = simulate(
            &cfg,
            &mut ShipOnce(4),
            11,
            SimOptions {
                probe_dt: Some(1.0),
                ..SimOptions::default()
            },
        );
        let report = out.probe.expect("probe requested");
        let s = report.samples[0];
        assert_eq!(s.time, 1.0);
        assert_eq!(s.up_nodes, 2);
        assert_eq!(s.queue_total, 0, "everything is in flight at t = 1");
        assert_eq!(s.in_transit, 4);
        assert_eq!(s.transfers, 1);
        assert_eq!(report.transfer_delay_us.total(), 1);
        assert_eq!(report.transfer_delay_us.max(), 1_500_000, "1.5 s in µs");
    }

    #[test]
    fn probe_report_replays_bit_exactly_across_reset() {
        let cfg = SystemConfig::paper([60, 35]);
        let opts = SimOptions {
            probe_dt: Some(0.25),
            ..SimOptions::default()
        };
        let factory = StreamFactory::new(99);
        let fresh = Simulator::new(&cfg, &factory.subfactory(1), opts)
            .run(&mut NoBalancing)
            .probe
            .expect("probe requested");
        let mut sim = Simulator::new(&cfg, &factory.subfactory(0), opts);
        let _ = sim.run_summary(&mut NoBalancing); // a different replication first
        sim.reset(&factory.subfactory(1));
        let _ = sim.run_summary(&mut NoBalancing);
        assert_eq!(sim.probe_report(), Some(&fresh));
        // Taking the report leaves an empty one behind.
        let taken = sim.take_probe_report().expect("probe enabled");
        assert_eq!(taken, fresh);
        assert_eq!(sim.probe_report(), Some(&ProbeReport::default()));
    }

    #[test]
    fn probe_ticks_stop_at_the_deadline() {
        let cfg = reliable_pair([10_000, 10_000]);
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            4,
            SimOptions {
                deadline: Some(1.0),
                probe_dt: Some(0.3),
                ..SimOptions::default()
            },
        );
        assert!(!out.completed);
        let report = out.probe.expect("probe requested");
        let times: Vec<f64> = report.samples.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![0.3, 0.6, 0.8999999999999999]);
    }

    #[test]
    fn external_arrivals_are_processed() {
        let cfg = reliable_pair([2, 2]).with_external_arrivals(vec![ExternalArrival {
            time: 5.0,
            node: 0,
            tasks: 4,
        }]);
        let out = simulate(&cfg, &mut NoBalancing, 6, SimOptions::default());
        assert!(out.completed);
        assert_eq!(out.metrics.total_processed(), 8);
        assert!(
            out.completion_time > 5.0,
            "cannot finish before the arrival lands"
        );
    }

    /// A policy that ships a fixed batch at start — exercises transfers.
    struct ShipOnce(u32);
    impl Policy for ShipOnce {
        fn name(&self) -> &str {
            "ship-once"
        }
        fn on_start(&mut self, _: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
            orders.push(TransferOrder {
                from: 0,
                to: 1,
                tasks: self.0,
            });
        }
    }

    #[test]
    fn transfers_move_load() {
        let cfg = reliable_pair([20, 0]);
        let out = simulate(&cfg, &mut ShipOnce(8), 9, SimOptions::default());
        assert!(out.completed);
        assert_eq!(out.metrics.counters.transfers, 1);
        assert_eq!(out.metrics.counters.tasks_shipped, 8);
        assert_eq!(out.metrics.processed_per_node[0], 12);
        assert_eq!(out.metrics.processed_per_node[1], 8);
        assert!(out.metrics.transit_task_seconds > 0.0);
    }

    #[test]
    fn oversized_orders_are_clamped() {
        let cfg = reliable_pair([5, 0]);
        let out = simulate(&cfg, &mut ShipOnce(100), 10, SimOptions::default());
        assert!(out.completed);
        assert_eq!(out.metrics.counters.tasks_shipped, 5);
        assert_eq!(out.metrics.counters.tasks_clamped, 95);
        assert_eq!(out.metrics.processed_per_node, vec![0, 5]);
    }

    #[test]
    fn deterministic_delay_law_is_exact() {
        let mut cfg = reliable_pair([4, 0]);
        cfg.network = NetworkConfig::new(0.5, 0.25, crate::config::DelayLaw::DeterministicBatch);
        let out = simulate(
            &cfg,
            &mut ShipOnce(4),
            11,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        let tr = out.trace.expect("trace");
        // All 4 tasks leave node 0 at t=0 and land at node 1 at exactly 1.5 s.
        assert_eq!(tr.queue_at(1, 1.49), 0);
        assert_eq!(tr.queue_at(1, 1.51), 4);
    }

    #[test]
    fn poisson_arrivals_spawn_tasks_and_complete() {
        use crate::config::ArrivalProcess;
        // Open system: no initial workload, tasks stream in until t = 40.
        let cfg = reliable_pair([0, 0])
            .with_arrival_process(ArrivalProcess::poisson(1.5, 40.0).with_batch(1, 3));
        let out = simulate(&cfg, &mut NoBalancing, 71, SimOptions::default());
        assert!(out.completed);
        // ~60 batches of mean size 2 ⇒ ~120 tasks; allow wide slack.
        let n = out.metrics.total_processed();
        assert!((40..=240).contains(&n), "spawned {n} tasks");
        assert!(out.completion_time > 10.0, "arrivals span the horizon");
    }

    #[test]
    fn arrival_process_with_initial_tasks_processes_both() {
        use crate::config::ArrivalProcess;
        let cfg = reliable_pair([10, 5]).with_arrival_process(ArrivalProcess::poisson(0.5, 20.0));
        let out = simulate(&cfg, &mut NoBalancing, 72, SimOptions::default());
        assert!(out.completed);
        assert!(out.metrics.total_processed() >= 15);
    }

    #[test]
    fn arrival_processes_are_deterministic_per_seed() {
        use crate::config::{ArrivalKind, ArrivalProcess};
        let cfg = reliable_pair([5, 5]).with_arrival_process(ArrivalProcess {
            kind: ArrivalKind::Mmpp {
                rates: vec![0.2, 4.0],
                switch_rates: vec![0.1, 0.5],
            },
            batch_min: 1,
            batch_max: 5,
            horizon: 30.0,
        });
        let a = simulate(&cfg, &mut NoBalancing, 73, SimOptions::default());
        let b = simulate(&cfg, &mut NoBalancing, 73, SimOptions::default());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics, b.metrics);
        let c = simulate(&cfg, &mut NoBalancing, 74, SimOptions::default());
        assert_ne!(a.completion_time, c.completion_time);
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_equal_mean_rate() {
        use crate::config::{ArrivalKind, ArrivalProcess};
        // Equal-sojourn two-phase MMPP with rates (0, 4) has mean rate 2.
        let mmpp = reliable_pair([0, 0]).with_arrival_process(ArrivalProcess {
            kind: ArrivalKind::Mmpp {
                rates: vec![0.0, 4.0],
                switch_rates: vec![0.2, 0.2],
            },
            batch_min: 1,
            batch_max: 1,
            horizon: 50.0,
        });
        let poisson =
            reliable_pair([0, 0]).with_arrival_process(ArrivalProcess::poisson(2.0, 50.0));
        let spawned_var = |cfg: &SystemConfig| {
            let mut s = OnlineStats::new();
            for seed in 0..300 {
                let out = simulate(cfg, &mut NoBalancing, seed, SimOptions::default());
                s.push(out.metrics.total_processed() as f64);
            }
            (s.mean(), s.variance())
        };
        let (m_mmpp, v_mmpp) = spawned_var(&mmpp);
        let (m_poi, v_poi) = spawned_var(&poisson);
        assert!(
            (m_mmpp - m_poi).abs() < 0.25 * m_poi,
            "means should be comparable: {m_mmpp} vs {m_poi}"
        );
        assert!(
            v_mmpp > 2.0 * v_poi,
            "MMPP should be over-dispersed: var {v_mmpp} vs {v_poi}"
        );
    }

    #[test]
    fn flash_crowd_spawns_more_than_its_baseline() {
        use crate::config::{ArrivalKind, ArrivalProcess};
        let crowd = |factor: f64| {
            reliable_pair([0, 0]).with_arrival_process(ArrivalProcess {
                kind: ArrivalKind::FlashCrowd {
                    base_rate: 0.5,
                    spike_start: 10.0,
                    spike_duration: 10.0,
                    spike_factor: factor,
                },
                batch_min: 1,
                batch_max: 1,
                horizon: 40.0,
            })
        };
        let count = |cfg: &SystemConfig| -> u64 {
            (0..100)
                .map(|seed| {
                    simulate(cfg, &mut NoBalancing, seed, SimOptions::default())
                        .metrics
                        .total_processed()
                })
                .sum()
        };
        let base = count(&crowd(1.0));
        let spiked = count(&crowd(8.0));
        // The spike multiplies 10 s of a 40 s window by 8: ~2.75x the load.
        assert!(
            spiked > base * 2,
            "flash crowd should spawn far more tasks ({spiked} vs {base})"
        );
    }

    #[test]
    fn diurnal_arrivals_complete_and_track_the_mean_rate() {
        use crate::config::{ArrivalKind, ArrivalProcess};
        let cfg = reliable_pair([0, 0]).with_arrival_process(ArrivalProcess {
            kind: ArrivalKind::Diurnal {
                base_rate: 1.0,
                amplitude: 1.0,
                period: 20.0,
            },
            batch_min: 1,
            batch_max: 1,
            horizon: 60.0,
        });
        // Over whole periods the sine integrates away: mean spawn ≈ 60.
        let mut s = OnlineStats::new();
        for seed in 0..200 {
            let out = simulate(&cfg, &mut NoBalancing, seed, SimOptions::default());
            assert!(out.completed);
            s.push(out.metrics.total_processed() as f64);
        }
        assert!((s.mean() - 60.0).abs() < 3.0, "mean spawned {}", s.mean());
    }

    #[test]
    fn adversarial_strikes_fail_the_most_loaded_node_first() {
        use crate::config::ChurnModel;
        // Node 0 holds almost all the work and natural churn is
        // negligible: every observed failure is an adversary strike, and
        // the very first one must land on node 0.
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 1e-9, 1.0, 60),
                NodeConfig::new(1.0, 1e-9, 1.0, 2),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_churn_model(ChurnModel::Adversarial { strike_rate: 0.5 });
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            7,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        assert!(out.completed);
        assert!(out.metrics.counters.failures > 0, "strikes must land");
        let trace = out.trace.expect("trace requested");
        let first_down = |node: usize| {
            trace
                .state_series(node)
                .iter()
                .find(|&&(_, up)| !up)
                .map(|&(t, _)| t)
        };
        let d0 = first_down(0).expect("node 0 must be struck");
        assert!(
            first_down(1).is_none_or(|d1| d0 < d1),
            "the adversary must strike the loaded node first"
        );
    }

    #[test]
    fn adversarial_strikes_spare_reliable_nodes() {
        use crate::config::ChurnModel;
        // A failure-free node is not a valid target even when it is the
        // most loaded one; strikes fall on the churn-prone node instead.
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 0.0, 0.0, 100),
                NodeConfig::new(1.0, 1e-9, 1.0, 5),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_churn_model(ChurnModel::Adversarial { strike_rate: 1.0 });
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            11,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        assert!(out.completed);
        let trace = out.trace.expect("trace requested");
        assert!(
            trace.state_series(0).iter().all(|&(_, up)| up),
            "a reliable node must never be struck"
        );
        assert!(
            trace.state_series(1).iter().any(|&(_, up)| !up),
            "the churn-prone node absorbs the strikes"
        );
    }

    #[test]
    fn adversarial_runs_are_reproducible_and_distinct_from_independent() {
        use crate::config::ChurnModel;
        let base = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 0.02, 0.5, 30),
                NodeConfig::new(1.2, 0.02, 0.5, 30),
            ],
            NetworkConfig::exponential(0.02),
        );
        let adv = base
            .clone()
            .with_churn_model(ChurnModel::Adversarial { strike_rate: 0.3 });
        let a = simulate(&adv, &mut NoBalancing, 5, SimOptions::default());
        let b = simulate(&adv, &mut NoBalancing, 5, SimOptions::default());
        assert_eq!(a.completion_time, b.completion_time, "determinism");
        let plain = simulate(&base, &mut NoBalancing, 5, SimOptions::default());
        assert!(
            a.metrics.counters.failures > plain.metrics.counters.failures,
            "strikes add failures ({} vs {})",
            a.metrics.counters.failures,
            plain.metrics.counters.failures
        );
    }

    #[test]
    fn correlated_shocks_fail_nodes_simultaneously() {
        use crate::config::ChurnModel;
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 1e-6, 0.5, 40),
                NodeConfig::new(1.0, 1e-6, 0.5, 40),
                NodeConfig::new(1.0, 1e-6, 0.5, 40),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_churn_model(ChurnModel::CorrelatedShocks {
            shock_rate: 0.2,
            hit_probability: 1.0,
        });
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            81,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        assert!(out.completed);
        let tr = out.trace.expect("trace");
        // With hit probability 1, every shock downs all three nodes at the
        // same instant: some down-transition time must be shared.
        let downs = |i: usize| -> Vec<f64> {
            tr.state_series(i)
                .iter()
                .filter(|(_, up)| !up)
                .map(|(t, _)| *t)
                .collect()
        };
        let d0 = downs(0);
        assert!(!d0.is_empty(), "expected at least one shock");
        let shared = d0
            .iter()
            .any(|t| downs(1).contains(t) && downs(2).contains(t));
        assert!(shared, "shocks should fail all nodes at the same instant");
    }

    #[test]
    fn shocks_add_failures_over_independent_churn() {
        use crate::config::ChurnModel;
        let base = SystemConfig::paper([80, 50]);
        let shocked = base.clone().with_churn_model(ChurnModel::CorrelatedShocks {
            shock_rate: 0.1,
            hit_probability: 1.0,
        });
        let fails = |cfg: &SystemConfig| -> u64 {
            (0..50)
                .map(|seed| {
                    simulate(cfg, &mut NoBalancing, seed, SimOptions::default())
                        .metrics
                        .counters
                        .failures
                })
                .sum()
        };
        assert!(fails(&shocked) > fails(&base));
    }

    #[test]
    fn cascading_churn_amplifies_failures() {
        use crate::config::ChurnModel;
        let mk = |amp: f64| {
            SystemConfig::new(
                vec![
                    NodeConfig::new(1.0, 0.02, 0.05, 60),
                    NodeConfig::new(1.0, 0.02, 0.05, 60),
                    NodeConfig::new(1.0, 0.02, 0.05, 60),
                ],
                NetworkConfig::exponential(0.02),
            )
            .with_churn_model(ChurnModel::Cascading { amplification: amp })
        };
        let fails = |cfg: &SystemConfig| -> u64 {
            (0..60)
                .map(|seed| {
                    simulate(cfg, &mut NoBalancing, seed, SimOptions::default())
                        .metrics
                        .counters
                        .failures
                })
                .sum()
        };
        let independent = fails(&mk(0.0));
        let cascading = fails(&mk(8.0));
        assert!(
            cascading > independent + independent / 4,
            "cascade should amplify failures: {cascading} vs {independent}"
        );
    }

    #[test]
    fn zero_amplification_cascade_matches_independent_statistically() {
        use crate::config::ChurnModel;
        // amplification = 0 has the same law as Independent (the redraws
        // consume different stream positions, so only distributions match).
        let base = SystemConfig::paper([40, 30]);
        let cascade0 = base
            .clone()
            .with_churn_model(ChurnModel::Cascading { amplification: 0.0 });
        let mean = |cfg: &SystemConfig| {
            let mut s = OnlineStats::new();
            for seed in 0..400 {
                s.push(
                    simulate(cfg, &mut NoBalancing, seed, SimOptions::default()).completion_time,
                );
            }
            s
        };
        let a = mean(&base);
        let b = mean(&cascade0);
        let tol = 3.0 * (a.ci95_half_width() + b.ci95_half_width());
        assert!(
            (a.mean() - b.mean()).abs() < tol,
            "means {} vs {}",
            a.mean(),
            b.mean()
        );
    }

    #[test]
    fn legacy_configs_do_not_touch_new_streams() {
        // The extension streams are derived lazily per id; a config without
        // arrivals/shocks must produce the exact same run as before the
        // extensions existed — pinned by cross-checking two identical runs
        // through different code paths (builder vs plain construction).
        let plain = SystemConfig::paper([30, 20]);
        let via_builder =
            SystemConfig::paper([30, 20]).with_churn_model(crate::config::ChurnModel::Independent);
        let a = simulate(&plain, &mut NoBalancing, 91, SimOptions::default());
        let b = simulate(&via_builder, &mut NoBalancing, 91, SimOptions::default());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn churn_trace_shows_flat_segments_while_down() {
        // While a node is down its queue cannot drain (Fig. 4's flat spans).
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 0.5, 0.1, 50), // fails fast, recovers slowly
                NodeConfig::reliable(1.0, 1),
            ],
            NetworkConfig::exponential(0.02),
        );
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            13,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        let tr = out.trace.expect("trace");
        let states = tr.state_series(0);
        assert!(states.len() >= 3, "node 0 should churn");
        // Find one down interval and verify the queue did not move inside it.
        let mut checked = false;
        for w in states.windows(2) {
            if let [(t_down, false), (t_up, true)] = w {
                let q_start = tr.queue_at(0, *t_down);
                let q_end = tr.queue_at(0, *t_up - 1e-9);
                assert_eq!(q_start, q_end, "queue moved while node was down");
                checked = true;
                break;
            }
        }
        assert!(checked, "no complete down interval observed");
    }

    #[test]
    fn rack_shocks_fail_whole_racks_and_spare_cold_ones() {
        use crate::config::ChurnModel;
        // Two racks of two; rack 0 is always hit, rack 1 never. Every
        // shock must down nodes 0 and 1 at the same instant, and nodes 2
        // and 3 must never fail (natural churn is negligible). Recovery is
        // near-instant so both rack mates are back up before the next shock.
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 1e-9, 500.0, 40),
                NodeConfig::new(1.0, 1e-9, 500.0, 40),
                NodeConfig::new(1.0, 1e-9, 500.0, 40),
                NodeConfig::new(1.0, 1e-9, 500.0, 40),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_churn_model(ChurnModel::RackShocks {
            shock_rate: 0.2,
            group_size: 2,
            hit_probabilities: vec![1.0, 0.0],
        });
        let out = simulate(
            &cfg,
            &mut NoBalancing,
            17,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        assert!(out.completed);
        let tr = out.trace.expect("trace");
        let downs = |i: usize| -> Vec<f64> {
            tr.state_series(i)
                .iter()
                .filter(|(_, up)| !up)
                .map(|(t, _)| *t)
                .collect()
        };
        let d0 = downs(0);
        assert!(!d0.is_empty(), "expected at least one rack shock");
        assert_eq!(d0, downs(1), "rack mates fail at the same instants");
        assert!(downs(2).is_empty(), "cold rack must never be hit");
        assert!(downs(3).is_empty(), "cold rack must never be hit");
    }

    #[test]
    fn rack_shock_runs_are_seed_deterministic() {
        use crate::config::ChurnModel;
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 0.01, 0.5, 30),
                NodeConfig::new(1.0, 0.01, 0.5, 30),
                NodeConfig::new(1.2, 0.01, 0.5, 30),
                NodeConfig::new(1.2, 0.01, 0.5, 30),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_churn_model(ChurnModel::RackShocks {
            shock_rate: 0.1,
            group_size: 2,
            hit_probabilities: vec![0.9, 0.3],
        });
        let a = simulate(&cfg, &mut NoBalancing, 23, SimOptions::default());
        let b = simulate(&cfg, &mut NoBalancing, 23, SimOptions::default());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics, b.metrics);
        let c = simulate(&cfg, &mut NoBalancing, 24, SimOptions::default());
        assert_ne!(a.completion_time, c.completion_time);
    }

    fn reliable_fleet(n: usize, tasks: u32) -> SystemConfig {
        SystemConfig::new(
            (0..n).map(|_| NodeConfig::reliable(1.0, tasks)).collect(),
            NetworkConfig::exponential(0.02),
        )
    }

    #[test]
    fn on_edge_transfers_use_the_edge_delay_scale() {
        use crate::topology::Topology;
        // Ring of 4 with deterministic delays: a custom topology scales
        // the 0 -> 1 edge by 3x, so the batch lands at exactly 3x the
        // homogeneous time.
        let topo = Topology::from_edges(4, &[(0, 1, 3.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
            .expect("valid");
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::reliable(1.0, 4),
                NodeConfig::reliable(1.0, 0),
                NodeConfig::reliable(1.0, 0),
                NodeConfig::reliable(1.0, 0),
            ],
            NetworkConfig::new(0.5, 0.25, crate::config::DelayLaw::DeterministicBatch),
        )
        .with_topology(topo);
        let out = simulate(
            &cfg,
            &mut ShipOnce(4),
            31,
            SimOptions {
                record_trace: true,
                ..SimOptions::default()
            },
        );
        let tr = out.trace.expect("trace");
        // Homogeneous batch delay = 0.5 + 4 * 0.25 = 1.5 s; edge scale 3.
        assert_eq!(tr.queue_at(1, 4.49), 0);
        assert_eq!(tr.queue_at(1, 4.51), 4);
    }

    #[test]
    #[should_panic(expected = "off the topology edge set")]
    fn off_edge_transfers_panic() {
        use crate::topology::Topology;
        struct ShipAcross;
        impl Policy for ShipAcross {
            fn name(&self) -> &str {
                "ship-across"
            }
            fn on_start(&mut self, _: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
                orders.push(TransferOrder {
                    from: 0,
                    to: 2,
                    tasks: 1,
                });
            }
        }
        // 0 and 2 are not adjacent on a 4-ring.
        let cfg = reliable_fleet(4, 5).with_topology(Topology::ring(4).expect("valid"));
        let _ = simulate(&cfg, &mut ShipAcross, 32, SimOptions::default());
    }

    #[test]
    fn policies_see_the_topology_in_their_view() {
        use crate::topology::Topology;
        struct SeesTopology(bool);
        impl Policy for SeesTopology {
            fn name(&self) -> &str {
                "sees-topology"
            }
            fn on_start(&mut self, view: &SystemView<'_>, _: &mut Vec<TransferOrder>) {
                let topo = view.topology.expect("topology must be visible");
                assert_eq!(topo.neighbors(0), &[1, 3]);
                self.0 = true;
            }
        }
        let cfg = reliable_fleet(4, 2).with_topology(Topology::ring(4).expect("valid"));
        let mut policy = SeesTopology(false);
        let out = simulate(&cfg, &mut policy, 33, SimOptions::default());
        assert!(out.completed);
        assert!(policy.0, "on_start must have observed the topology");
    }

    #[test]
    fn calendar_and_heap_backends_produce_identical_runs() {
        use crate::config::ChurnModel;
        // A churn-heavy run with transfers: every event class flows
        // through the queue, and the trajectories must match exactly.
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::new(1.0, 0.05, 0.5, 40),
                NodeConfig::new(1.4, 0.05, 0.5, 25),
                NodeConfig::new(0.8, 0.05, 0.5, 30),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_churn_model(ChurnModel::CorrelatedShocks {
            shock_rate: 0.1,
            hit_probability: 0.5,
        });
        let run = |backend| {
            simulate(
                &cfg,
                &mut NoBalancing,
                41,
                SimOptions {
                    backend,
                    ..SimOptions::default()
                },
            )
        };
        let heap = run(QueueBackend::Heap);
        let calendar = run(QueueBackend::Calendar);
        assert_eq!(heap.completion_time, calendar.completion_time);
        assert_eq!(heap.metrics, calendar.metrics);
    }

    #[test]
    fn rebind_switches_backend_when_options_change() {
        let cfg = reliable_pair([5, 5]);
        let factory = StreamFactory::new(3);
        let heap_opts = SimOptions {
            backend: QueueBackend::Heap,
            ..SimOptions::default()
        };
        let cal_opts = SimOptions {
            backend: QueueBackend::Calendar,
            ..SimOptions::default()
        };
        let fresh = Simulator::new(&cfg, &factory.subfactory(1), cal_opts);
        let fresh_out = fresh.run(&mut NoBalancing);
        let mut sim = Simulator::new(&cfg, &factory.subfactory(0), heap_opts);
        let _ = sim.run_summary(&mut NoBalancing);
        sim.rebind(&cfg, &factory.subfactory(1), cal_opts);
        let rebased = sim.run_summary(&mut NoBalancing);
        assert_eq!(rebased.completion_time, fresh_out.completion_time);
        assert_eq!(sim.metrics(), &fresh_out.metrics);
    }

    /// A two-node config where node 1 goes down almost immediately and
    /// stays down for ~1e9 sim-seconds — transfers sent at t = 0 are
    /// guaranteed to arrive at a down destination.
    fn down_destination_pair() -> SystemConfig {
        SystemConfig::new(
            vec![
                NodeConfig::reliable(1.0, 6),
                NodeConfig::new(1.0, 1e9, 1e-9, 0),
            ],
            NetworkConfig::new(0.5, 0.25, crate::config::DelayLaw::DeterministicBatch),
        )
    }

    #[test]
    fn zero_loss_lossy_channel_matches_the_reliable_trajectory() {
        // A p = 0 lossy channel draws its coins from the dedicated stream
        // and never loses: every legacy stream is consumed identically, so
        // the whole run must be bit-identical to `Reliable`. This is also
        // the pairing the perfreport overhead gate measures.
        let cfg = SystemConfig::paper([30, 20]);
        let lossy = SystemConfig::paper([30, 20]).with_channel_model(ChannelModel::Lossy {
            loss_probability: 0.0,
            on_down: DownPolicy::Bounce,
            max_retries: 3,
            retry_backoff: 0.1,
        });
        let mut ship = ShipOnce(10);
        let a = simulate(&cfg, &mut ship, 91, SimOptions::default());
        let b = simulate(&lossy, &mut ShipOnce(10), 91, SimOptions::default());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn certain_loss_retries_then_dead_letters_the_batch() {
        use crate::topology::Topology;
        // The 0 -> 1 edge's loss scale doubles a 0.5 base probability to a
        // certain loss: the batch is retried `max_retries` times and then
        // dead-lettered, and the run still completes with the loss on the
        // books (nothing was ever processed).
        let topo = Topology::from_edges(4, &[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
            .expect("valid");
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::reliable(1.0, 4),
                NodeConfig::reliable(1.0, 0),
                NodeConfig::reliable(1.0, 0),
                NodeConfig::reliable(1.0, 0),
            ],
            NetworkConfig::new(0.5, 0.25, crate::config::DelayLaw::DeterministicBatch),
        )
        .with_topology(topo)
        .with_channel_model(ChannelModel::Lossy {
            loss_probability: 0.5,
            on_down: DownPolicy::Enqueue,
            max_retries: 2,
            retry_backoff: 0.05,
        });
        let out = simulate(
            &cfg,
            &mut ShipOnce(4),
            7,
            SimOptions {
                probe_dt: Some(0.25),
                audit: true,
                ..SimOptions::default()
            },
        );
        assert!(out.completed, "dead-lettered tasks count toward drain");
        assert_eq!(out.metrics.counters.tasks_lost, 4);
        assert_eq!(out.metrics.counters.retries, 2);
        assert_eq!(out.metrics.counters.bounces, 0);
        assert_eq!(out.metrics.total_processed(), 0);
        let probe = out.probe.expect("probe report");
        assert_eq!(
            probe.retry_delay_us.total(),
            2,
            "one backoff sample per retry"
        );
    }

    #[test]
    fn bounce_on_down_destination_retries_then_dead_letters() {
        let cfg = down_destination_pair().with_channel_model(ChannelModel::Lossy {
            loss_probability: 0.0,
            on_down: DownPolicy::Bounce,
            max_retries: 3,
            retry_backoff: 0.01,
        });
        let out = simulate(&cfg, &mut ShipOnce(2), 19, SimOptions::default());
        assert!(out.completed);
        // Every delivery attempt (original + 3 redeliveries) bounces off
        // the down destination; the last one exhausts the retry budget.
        assert_eq!(out.metrics.counters.bounces, 4);
        assert_eq!(out.metrics.counters.retries, 3);
        assert_eq!(out.metrics.counters.tasks_lost, 2);
        assert_eq!(out.metrics.processed_per_node, vec![4, 0]);
    }

    #[test]
    fn drop_on_down_destination_dead_letters_immediately() {
        let cfg = down_destination_pair().with_channel_model(ChannelModel::Lossy {
            loss_probability: 0.0,
            on_down: DownPolicy::Drop,
            max_retries: 3,
            retry_backoff: 0.01,
        });
        let out = simulate(&cfg, &mut ShipOnce(2), 19, SimOptions::default());
        assert!(out.completed);
        assert_eq!(out.metrics.counters.bounces, 0);
        assert_eq!(out.metrics.counters.retries, 0);
        assert_eq!(out.metrics.counters.tasks_lost, 2);
        assert_eq!(out.metrics.processed_per_node, vec![4, 0]);
    }

    #[test]
    fn enqueue_on_down_destination_preserves_legacy_semantics() {
        // The destination's churn cycle (up ~1e-9 s, down ~1e9 s) makes
        // waiting for it to drain astronomically long, so run both
        // channels to a deadline instead: the semantic under test is that
        // `Enqueue` parks the batch in the down node's queue — nothing
        // lost, bounced or retried — exactly like the reliable engine.
        let opts = SimOptions {
            deadline: Some(1e6),
            record_trace: true,
            ..SimOptions::default()
        };
        let cfg = down_destination_pair().with_channel_model(ChannelModel::Lossy {
            loss_probability: 0.0,
            on_down: DownPolicy::Enqueue,
            max_retries: 3,
            retry_backoff: 0.01,
        });
        let out = simulate(&cfg, &mut ShipOnce(2), 19, opts);
        assert!(!out.completed, "the recovery outlives the deadline");
        assert_eq!(out.metrics.counters.tasks_lost, 0);
        assert_eq!(out.metrics.counters.bounces, 0);
        assert_eq!(out.metrics.counters.retries, 0);
        assert_eq!(out.metrics.processed_per_node, vec![4, 0]);
        let trace = out.trace.as_ref().expect("requested");
        assert_eq!(
            trace.queue_at(1, 1e5),
            2,
            "the batch waits in the down node's queue"
        );
        let reliable = simulate(&down_destination_pair(), &mut ShipOnce(2), 19, opts);
        assert_eq!(out.completion_time, reliable.completion_time);
        assert_eq!(out.metrics, reliable.metrics);
    }

    #[test]
    fn lossy_runs_are_seed_deterministic_and_conserve_tasks() {
        let make = || {
            SystemConfig::paper([25, 15]).with_channel_model(ChannelModel::Lossy {
                loss_probability: 0.9,
                on_down: DownPolicy::Bounce,
                max_retries: 1,
                retry_backoff: 0.05,
            })
        };
        let opts = SimOptions {
            audit: true,
            ..SimOptions::default()
        };
        let a = simulate(&make(), &mut ShipOnce(12), 57, opts);
        let b = simulate(&make(), &mut ShipOnce(12), 57, opts);
        assert!(a.completed);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(
            a.metrics.total_processed() + a.metrics.counters.tasks_lost,
            40,
            "every spawned task ends up processed or dead-lettered"
        );
        assert!(
            a.metrics.counters.tasks_lost > 0,
            "p = 0.9 with one redelivery loses the batch with probability 0.81"
        );
    }

    #[test]
    #[should_panic(expected = "task-conservation violation")]
    fn conservation_audit_catches_a_seeded_leak() {
        let cfg = reliable_pair([5, 5]);
        let factory = StreamFactory::new(1);
        let mut sim = Simulator::new(
            &cfg,
            &factory,
            SimOptions {
                audit: true,
                ..SimOptions::default()
            },
        );
        // Forge the books: a task vanishes from a queue without being
        // processed, shipped or lost. The auditor must notice.
        sim.nodes.queue[0] -= 1;
        let _ = sim.run_summary(&mut NoBalancing);
    }

    #[test]
    fn watchdog_abort_surfaces_in_the_run_summary() {
        // A zero wall-clock budget trips on the first event poll: the run
        // stops immediately and is flagged aborted-not-completed (the
        // replication runner quarantines such runs). Rebinding with the
        // watchdog disarmed fully recovers the simulator.
        let cfg = reliable_pair([50, 50]);
        let factory = StreamFactory::new(5);
        let mut sim = Simulator::new(
            &cfg,
            &factory,
            SimOptions {
                task_timeout: Some(0.0),
                ..SimOptions::default()
            },
        );
        let s = sim.run_summary(&mut NoBalancing);
        assert!(s.aborted);
        assert!(!s.completed);
        sim.rebind(&cfg, &factory, SimOptions::default());
        let s2 = sim.run_summary(&mut NoBalancing);
        assert!(!s2.aborted);
        assert!(s2.completed);
        assert_eq!(s2.tasks_lost, 0);
    }

    /// Sleeps in its external-arrival hook.
    struct SleepOnArrival(std::time::Duration);
    impl Policy for SleepOnArrival {
        fn name(&self) -> &str {
            "sleep-on-arrival"
        }
        fn on_external_arrival(
            &mut self,
            _: usize,
            _: u32,
            _: &SystemView<'_>,
            _: &mut Vec<TransferOrder>,
        ) {
            std::thread::sleep(self.0);
        }
    }

    #[test]
    fn watchdog_samples_the_wall_clock_every_1024_events() {
        // Thousands of fast services precede an arrival at t = 5 whose
        // hook sleeps past the budget. The watchdog samples the wall clock
        // at 0, 1024, 2048, … executed events, so it stops the run at the
        // first multiple of the stride after the arrival, not at once. (A
        // generous budget never tripping is the exec timeout tests' job.)
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::reliable(1000.0, 10_000),
                NodeConfig::reliable(1.0, 0),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_external_arrivals(vec![ExternalArrival {
            time: 5.0,
            node: 1,
            tasks: 1,
        }]);
        let opts = |deadline, task_timeout| SimOptions {
            deadline,
            task_timeout,
            ..SimOptions::default()
        };
        // Events executed up to and including the arrival.
        let upto = simulate(&cfg, &mut NoBalancing, 3, opts(Some(5.0), None))
            .metrics
            .counters
            .events;
        assert!(upto > 2 * WATCHDOG_STRIDE);
        let factory = StreamFactory::new(3);
        let mut sleepy = SleepOnArrival(std::time::Duration::from_millis(500));
        let s = Simulator::new(&cfg, &factory, opts(None, Some(0.25))).run_summary(&mut sleepy);
        assert!(s.aborted && !s.completed);
        assert_eq!(s.events, upto.next_multiple_of(WATCHDOG_STRIDE));
    }
}
