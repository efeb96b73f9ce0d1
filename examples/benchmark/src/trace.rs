//! The traced run: per-layer metrics from spans recorded in this file
//! around calls into each layer's public functions.
//!
//! The replay re-runs, in-process and on one thread, exactly the
//! replications of one CLI invocation — the same systems, policies and
//! `(seed, replication)` streams via `PointJob::streams_for_rep` — so its
//! means must equal the CLI's CSV bit for bit. Spans nest by parent:
//! `replay` → `lab.load`, `model.theory`, then per replication
//! `stochastic.streams`, `cluster.engine.reset`, `core.policy.build`,
//! `cluster.engine.run` (→ one span per policy hook), and `lab.render`.
//! They aggregate in memory and are written as JSON when the run ends.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use churnbal::cluster::{Policy, Simulator, SystemView, Topology, TransferOrder};
use churnbal::desim::{CalendarQueue, EventQueue, EventQueueBackend};
use churnbal::lab::theory::TheoryCache;
use churnbal::lab::{CollectSink, Experiment};
use churnbal::stochastic::{BatchedRng, StreamFactory};

use crate::json;
use crate::measure::{invoke, prime, repeat, Checker, Metric, Outcome, Tally};
use crate::stats::{LogHistogram, RunningMean};
use crate::sys;
use crate::workloads::{Cell, Inputs, Renderer, Workload};

/// Span ids; `SPANS[id]` names each and its parent.
const REPLAY: usize = 0;
const LOAD: usize = 1;
const THEORY: usize = 2;
const STREAMS: usize = 3;
const RESET: usize = 4;
const BUILD: usize = 5;
const RUN: usize = 6;
const HOOKS: [usize; 4] = [7, 8, 9, 10];
const RENDER: usize = 11;

const SPANS: [(&str, Option<usize>); 12] = [
    ("replay", None),
    ("lab.load", Some(REPLAY)),
    ("model.theory", Some(REPLAY)),
    ("stochastic.streams", Some(REPLAY)),
    ("cluster.engine.reset", Some(REPLAY)),
    ("core.policy.build", Some(REPLAY)),
    ("cluster.engine.run", Some(REPLAY)),
    ("core.policy.on_start", Some(RUN)),
    ("core.policy.on_failure", Some(RUN)),
    ("core.policy.on_recovery", Some(RUN)),
    ("core.policy.on_transfer_arrival", Some(RUN)),
    ("lab.render", Some(REPLAY)),
];

#[derive(Clone, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    /// Transfer orders issued (policy hooks only).
    orders: u64,
    hist: LogHistogram,
}

/// Span aggregates; a disabled recorder never reads the clock.
struct Recorder {
    enabled: bool,
    spans: Vec<SpanStat>,
}

impl Recorder {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: vec![SpanStat::default(); SPANS.len()],
        }
    }

    fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    fn stop(&mut self, id: usize, start: Option<Instant>) {
        if let Some(t) = start {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let s = &mut self.spans[id];
            s.count += 1;
            s.total_ns += ns;
            s.hist.record(ns);
        }
    }

    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = SPANS
            .iter()
            .enumerate()
            .filter(|(_, (_, parent))| *parent == Some(id))
            .map(|(c, _)| self.spans[c].total_ns)
            .sum();
        self.spans[id].total_ns.saturating_sub(children)
    }

    fn to_json(&self) -> String {
        let spans: Vec<String> = SPANS
            .iter()
            .enumerate()
            .map(|(id, (name, parent))| {
                let s = &self.spans[id];
                json::object(&[
                    ("name", json::string(name)),
                    (
                        "parent",
                        parent.map_or("null".into(), |p| json::string(SPANS[p].0)),
                    ),
                    ("count", s.count.to_string()),
                    ("total_ns", s.total_ns.to_string()),
                    ("self_ns", self.self_ns(id).to_string()),
                    ("p50_ns", s.hist.quantile(0.5).to_string()),
                    ("p99_ns", s.hist.quantile(0.99).to_string()),
                    ("orders", s.orders.to_string()),
                ])
            })
            .collect();
        format!("[{}]\n", spans.join(",\n"))
    }
}

/// Delegates every hook to the policy `PolicySpec::build_for_rep` built,
/// timing the four hooks the engine calls on these workloads.
struct TracedPolicy<'a> {
    inner: &'a mut dyn Policy,
    rec: &'a mut Recorder,
}

impl TracedPolicy<'_> {
    fn timed(
        &mut self,
        hook: usize,
        orders: &mut Vec<TransferOrder>,
        f: impl FnOnce(&mut dyn Policy, &mut Vec<TransferOrder>),
    ) {
        let t = Instant::now();
        f(&mut *self.inner, orders);
        self.rec.stop(HOOKS[hook], Some(t));
        self.rec.spans[HOOKS[hook]].orders += orders.len() as u64;
    }
}

impl Policy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.timed(0, orders, |p, o| p.on_start(view, o));
    }

    fn on_failure(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.timed(1, orders, |p, o| p.on_failure(node, view, o));
    }

    fn on_recovery(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.timed(2, orders, |p, o| p.on_recovery(node, view, o));
    }

    fn on_transfer_arrival(
        &mut self,
        node: usize,
        tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.timed(3, orders, |p, o| {
            p.on_transfer_arrival(node, tasks, view, o)
        });
    }

    // No workload has external arrivals; delegated untimed.
    fn on_external_arrival(
        &mut self,
        node: usize,
        tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.inner.on_external_arrival(node, tasks, view, orders);
    }
}

/// What a replay did.
struct Replay {
    wall_s: f64,
    events: u64,
    reps: u64,
    mismatches: Vec<String>,
}

/// Replays every cell in order on one long-lived simulator, as the
/// scheduler's single-threaded path does, between a load and a render
/// like the CLI's.
fn replay(
    inputs: &Inputs,
    cells: &[Cell],
    renderer: &Renderer,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let start = Instant::now();
    let root = rec.start();
    let t = rec.start();
    inputs.setup()?;
    rec.stop(LOAD, t);
    let t = rec.start();
    std::hint::black_box(theory(cells));
    rec.stop(THEORY, t);

    let mut sim: Option<Simulator<'_>> = None;
    let (mut events, mut reps) = (0, 0);
    let mut mismatches = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        let job = cell.job();
        let (mut mean, mut failures, mut shipped) = (RunningMean::default(), 0u64, 0u64);
        for r in 0..job.reps {
            let t = rec.start();
            let streams = job.streams_for_rep(r);
            rec.stop(STREAMS, t);
            let t = rec.start();
            match sim.as_mut() {
                Some(s) if r > 0 => s.reset(&streams),
                Some(s) => s.rebind(job.config, &streams, job.options),
                None => sim = Some(Simulator::new(job.config, &streams, job.options)),
            }
            rec.stop(RESET, t);
            let sim = sim.as_mut().expect("bound above");
            let t = rec.start();
            let mut policy = cell.policy.build_for_rep(job.config, r)?;
            rec.stop(BUILD, t);
            let t = rec.start();
            let summary = if rec.enabled {
                sim.run_summary(&mut TracedPolicy {
                    inner: &mut policy,
                    rec: &mut *rec,
                })
            } else {
                sim.run_summary(&mut policy)
            };
            rec.stop(RUN, t);
            mean.push(summary.completion_time);
            failures += summary.failures;
            shipped += summary.tasks_shipped;
            events += summary.events;
        }
        reps += job.reps;
        let n = job.reps as f64;
        let checks = [
            ("mean", Some(cell.expected.mean), mean.mean()),
            ("mean_failures", cell.expected.failures, failures as f64 / n),
            (
                "mean_tasks_shipped",
                cell.expected.shipped,
                shipped as f64 / n,
            ),
        ];
        for (what, want, got) in checks {
            if want.is_some_and(|w| w.to_bits() != got.to_bits()) {
                mismatches.push(format!("cell {c}: replay {what} {got:?} != CLI {want:?}"));
            }
        }
    }
    drop(sim);
    let t = rec.start();
    renderer.render()?;
    rec.stop(RENDER, t);
    rec.stop(REPLAY, root);
    Ok(Replay {
        wall_s: start.elapsed().as_secs_f64(),
        events,
        reps,
        mismatches,
    })
}

/// The Eq. 4 theory join over every cell (`None` outside the model).
fn theory(cells: &[Cell]) -> usize {
    let mut cache = TheoryCache::new();
    cells
        .iter()
        .filter_map(|c| cache.eq4_mean(&c.scenario, &c.config, &c.policy))
        .count()
}

/// Pending-set sizes of the synthetic queue replays: the heap at
/// fig3-compare's (at most 4 events) and cascading-churn's (two timers
/// on each of 24 nodes), the calendar queue at lossy-fleet's (two on
/// each of 4,096 nodes).
const QUEUE_SIZES: [(&str, usize); 3] =
    [("heap.n4", 4), ("heap.n48", 48), ("calendar.n8192", 8192)];
/// Operations of each kind per synthetic queue replay.
const QUEUE_OPS: usize = 400_000;

/// Mean ns per `schedule`, `pop` and `cancel` in a synthetic hold model
/// with exponential hold times: the pending set swings between `pending`
/// and `pending` plus a batch of at most 1,000.
fn queue_costs<Q: EventQueueBackend<u64>>(
    queue: &mut Q,
    pending: usize,
    rng: &mut BatchedRng,
) -> [f64; 3] {
    let batch = pending.clamp(4, 1000);
    queue.clear();
    for i in 0..pending {
        queue.schedule_in(rng.exp(1.0), i as u64);
    }
    let mut delays = vec![0.0; batch];
    let mut ids = Vec::with_capacity(batch);
    let mut ns = [0u128; 3];
    let rounds = QUEUE_OPS / batch;
    for _ in 0..rounds {
        delays.iter_mut().for_each(|d| *d = rng.exp(1.0));
        let t = Instant::now();
        for (i, &d) in delays.iter().enumerate() {
            std::hint::black_box(queue.schedule_in(d, i as u64));
        }
        ns[0] += t.elapsed().as_nanos();
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(queue.pop());
        }
        ns[1] += t.elapsed().as_nanos();
        ids.extend(delays.iter().map(|&d| queue.schedule_in(d, 0)));
        let t = Instant::now();
        for id in ids.drain(..) {
            std::hint::black_box(queue.cancel(id));
        }
        ns[2] += t.elapsed().as_nanos();
    }
    ns.map(|x| x as f64 / (rounds * batch) as f64)
}

/// Mean ns per call of `f` over `n` calls.
fn ns_per_call(n: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Exec-layer figures from a fresh process (see [`exec_probe`]).
struct ExecFigures {
    busy_share: f64,
    idle_claims: f64,
    chunks: f64,
    rss_bytes_per_rep: f64,
}

fn run_exec_probe(inputs: &Inputs, threads: usize) -> Result<ExecFigures, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "exec-probe",
            "--workload",
            inputs.workload.name(),
            "--seed",
            &inputs.seed.to_string(),
            "--threads",
            &threads.to_string(),
            "--dir",
            &inputs.dir().display().to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot run the exec probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "exec probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let field = |key: &str| -> Result<f64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .ok_or_else(|| format!("exec probe reported no `{key}`"))
    };
    Ok(ExecFigures {
        busy_share: field("busy_share")?,
        idle_claims: field("idle_claims")?,
        chunks: field("chunks")?,
        rss_bytes_per_rep: field("rss_bytes_per_rep")?,
    })
}

/// Runs the workload's experiments through `Experiment::run_with_report`
/// in this (fresh) process and prints the scheduler's figures, one
/// `key value` line each. The resident-set growth over the run, shared
/// over its replications, is what the scheduler keeps per replication.
///
/// # Errors
/// The experiments fail.
pub fn exec_probe(inputs: &Inputs, threads: usize) -> Result<(), String> {
    let cells = if inputs.workload.is_campaign() {
        inputs.cells(&inputs.output(&[])?)?
    } else {
        Vec::new()
    };
    let specs = inputs.experiments(&cells, threads)?;
    let me = std::process::id().to_string();
    let base = sys::status_bytes(&me, "VmRSS").ok_or("cannot read VmRSS")?;
    let (mut busy, mut capacity, mut idle, mut chunks, mut reps) = (0.0, 0.0, 0, 0, 0);
    for spec in specs {
        let mut sink = CollectSink::new();
        let (_, report) = Experiment::new(spec).run_with_report(&mut sink)?;
        let totals = report.totals();
        busy += totals.busy_seconds;
        capacity += report.wall_seconds * report.workers.len() as f64;
        idle += totals.idle_claims;
        chunks += totals.chunks;
        reps += sink.rows.iter().map(|r| r.reps).sum::<u64>();
    }
    let peak = sys::status_bytes(&me, "VmHWM").ok_or("cannot read VmHWM")?;
    println!("busy_share {}", busy / capacity);
    println!("idle_claims {idle}");
    println!("chunks {chunks}");
    println!(
        "rss_bytes_per_rep {}",
        peak.saturating_sub(base) as f64 / reps.max(1) as f64
    );
    Ok(())
}

/// Repeats single-threaded CLI invocations for at least this long.
const CLI_BUDGET: Duration = Duration::from_secs(1);
/// Repeats replay pairs for at least this long.
const REPLAY_BUDGET: Duration = Duration::from_secs(1);

/// Runs the traced measurement of `inputs`: single-threaded CLI
/// invocations (for the output and the process-level figures), the
/// untraced and traced replays of that output, repeated in-process
/// medians, the synthetic queue and RNG replays, and the exec probe at
/// `threads`.
///
/// # Errors
/// A process cannot be run or the inputs do not load.
pub fn trace(inputs: &Inputs, bin: &Path, threads: usize) -> Result<Outcome, String> {
    let ms = |samples: Vec<f64>| samples.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let mut tally = Tally::default();
    let mut checker = Checker::new(inputs);
    prime(inputs, bin, threads, &mut checker, &mut tally)?;
    // Before any invocation, so a cold campaign loads without a cache.
    let load = ms(repeat(|| inputs.setup())?);
    let args = inputs.cli_args(1);
    let cold = inputs.workload != Workload::CampaignWarm;
    let io = sys::io_counts()?;
    let mut io_after = io;
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < CLI_BUDGET {
        inputs.reset()?;
        let inv = invoke(bin, &args, inputs.dir())?;
        io_after = sys::io_counts()?;
        checker.record(&inv, cold, &mut tally);
        walls.push(inv.wall_s);
    }
    let invocations = walls.len();
    let per_invocation = |x: u64| x as f64 / invocations as f64;
    let writes = (
        per_invocation(io_after.0 - io.0),
        per_invocation(io_after.1 - io.1),
    );
    // Three cold runs of the rewrite probe: their wall time is time spent
    // waiting to replace cache files written a round earlier.
    let mut rewrite = Vec::new();
    for _ in 0..3 {
        let inv = invoke(bin, &inputs.rewrite_probe_args()?, inputs.dir())?;
        if let Some(e) = inv.error {
            tally.fail_all(e);
        }
        rewrite.push(inv.wall_s);
    }
    // A warm campaign replays the cold run it started from.
    let output = checker
        .reference()
        .map(<[u8]>::to_vec)
        .ok_or_else(|| format!("no checked output: {}", tally.problems.join("; ")))?;

    let cells = inputs.cells(&output)?;
    let renderer = inputs.renderer(&cells)?;
    // Untraced and traced replays alternate for at least a second; the
    // overhead compares the fastest of each, and the spans come from the
    // last traced replay.
    let (mut plain_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    let mut rec;
    let mut traced;
    let start = Instant::now();
    loop {
        let plain = replay(inputs, &cells, &renderer, &mut Recorder::new(false))?;
        rec = Recorder::new(true);
        traced = replay(inputs, &cells, &renderer, &mut rec)?;
        for problem in plain.mismatches.iter().chain(&traced.mismatches) {
            tally.fail_all(problem.clone());
        }
        tally.attempted += plain.reps + traced.reps;
        plain_s = plain_s.min(plain.wall_s);
        traced_s = traced_s.min(traced.wall_s);
        if start.elapsed() >= REPLAY_BUDGET {
            break;
        }
    }
    std::fs::write(inputs.dir().join("trace.json"), rec.to_json())
        .map_err(|e| format!("cannot write trace.json: {e}"))?;

    let render = ms(repeat(|| renderer.render())?);
    let theory_ms = ms(repeat(|| Ok(theory(&cells)))?);
    let largest = cells
        .iter()
        .max_by_key(|c| c.config.num_nodes())
        .ok_or("no cells to replay")?;
    let job = largest.job();
    let new_ms = ms(repeat(|| {
        Ok(Simulator::new(
            job.config,
            &job.streams_for_rep(0),
            job.options,
        ))
    })?);
    // lossy-fleet's torus, timed on every workload.
    let topology_ms = ms(repeat(|| Topology::torus(64, 64))?);

    let factory = StreamFactory::new(inputs.seed);
    let mut rng = BatchedRng::new(factory.stream(0));
    let mut acc = 0.0;
    let next_f64 = ns_per_call(4_000_000, || acc += rng.next_f64());
    let exp = ns_per_call(4_000_000, || acc += rng.exp(1.5));
    std::hint::black_box(acc);
    let mut id = 0;
    let derive = ns_per_call(400_000, || {
        id += 1;
        rng.reseed(factory.subfactory(id).stream(id % 7));
        std::hint::black_box(&mut rng);
    });
    let mut queue_rng = BatchedRng::new(factory.stream(1));
    let queues = QUEUE_SIZES.map(|(name, pending)| {
        let costs = if name.starts_with("heap") {
            queue_costs(&mut EventQueue::new(), pending, &mut queue_rng)
        } else {
            queue_costs(&mut CalendarQueue::new(), pending, &mut queue_rng)
        };
        (name, costs)
    });
    let exec = run_exec_probe(inputs, threads)?;

    let s = |id: usize| &rec.spans[id];
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let run_ns = s(RUN).total_ns as f64;
    let mut metrics = vec![
        Metric::median_of("lab.load_ms", "ms", load),
        Metric::median_of("lab.render_ms", "ms", render),
        Metric::median_of("lab.cli_wall_s", "s", walls),
        Metric::single("lab.cli_write_bytes", "bytes", writes.0),
        Metric::single("lab.cli_write_calls", "count", writes.1),
        Metric::median_of("lab.campaign.rewrite_wall_s", "s", rewrite),
        Metric::median_of("model.theory_ms", "ms", theory_ms),
        Metric::median_of("cluster.topology.build_ms", "ms", topology_ms),
        Metric::median_of("cluster.engine.new_ms", "ms", new_ms),
        Metric::single(
            "cluster.engine.reset_us_per_rep",
            "us",
            per(s(RESET).total_ns as f64 / 1e3, s(RESET).count),
        ),
        Metric::single(
            "cluster.engine.ns_per_event",
            "ns",
            per(run_ns, traced.events),
        ),
        Metric::single(
            "cluster.engine.self_ns_per_event",
            "ns",
            per(rec.self_ns(RUN) as f64, traced.events),
        ),
        Metric::single("cluster.engine.events", "count", traced.events as f64),
        Metric::single(
            "cluster.engine.events_per_s",
            "1/s",
            per(traced.events as f64 * 1e9, s(RUN).total_ns),
        ),
        Metric::single(
            "core.policy.build_ns",
            "ns",
            per(s(BUILD).total_ns as f64, s(BUILD).count),
        ),
    ];
    for (id, hook) in HOOKS.iter().map(|&id| (id, SPANS[id].0)) {
        let h = s(id);
        metrics.push(Metric::single(
            format!("{hook}.calls"),
            "count",
            h.count as f64,
        ));
        metrics.push(Metric::single(
            format!("{hook}.ns_per_call"),
            "ns",
            per(h.total_ns as f64, h.count),
        ));
        metrics.push(Metric::single(
            format!("{hook}.orders_per_call"),
            "count",
            per(h.orders as f64, h.count),
        ));
    }
    metrics.extend([
        Metric::single("cluster.exec.busy_share", "ratio", exec.busy_share),
        Metric::single("cluster.exec.idle_claims", "count", exec.idle_claims),
        Metric::single("cluster.exec.chunks", "count", exec.chunks),
        Metric::single(
            "cluster.exec.rss_bytes_per_rep",
            "bytes",
            exec.rss_bytes_per_rep,
        ),
    ]);
    for (name, costs) in queues {
        for (op, cost) in ["schedule", "pop", "cancel"].into_iter().zip(costs) {
            metrics.push(Metric::single(format!("desim.{name}.{op}_ns"), "ns", cost));
        }
    }
    metrics.extend([
        Metric::single("stochastic.rng.next_f64_ns", "ns", next_f64),
        Metric::single("stochastic.rng.exp_ns", "ns", exp),
        Metric::single("stochastic.streams.derive_ns", "ns", derive),
        Metric::single(
            "trace.unaccounted_share",
            "ratio",
            per(rec.self_ns(REPLAY) as f64, s(REPLAY).total_ns),
        ),
        Metric::single("trace.overhead", "ratio", traced_s / plain_s - 1.0),
    ]);
    Ok(Outcome {
        metrics,
        tally,
        invocations,
    })
}
