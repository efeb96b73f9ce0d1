//! The `perfreport` harness: one table of timed rows, each with pinned
//! output digests and an optional gate, rendered as the `BENCH_*.json`
//! report.
//!
//! Every row of [`ROWS`] has the same parts: a name, a run function that
//! times one run and returns an [`Outcome`], pinned `(quick, full)`
//! digests of its output, and an optional [`Gate`]. A row may time a
//! second mode — the same work done another way, either a baseline shape
//! or the same run with a feature armed — and its [`Outcome::ratio`] is
//! then the second mode's wall clock per event over the primary's.
//! [`measure`] runs a row `--repeat` times, keeps each mode's fastest wall
//! clock, checks the digests against the pins and judges the gate.
//!
//! The rows cover three kinds of work:
//!
//! * engine workloads through the replication runner: `paper-fig3` (the
//!   paper's two-node LBP-1 system), `shock-storm` (32 nodes under
//!   correlated shocks) and `cascading-churn` (24 nodes whose every churn
//!   transition cancels and redraws the other nodes' failure events);
//! * execution shapes timed against a baseline shape or an armed feature:
//!   `sweep-grid` and `compare-grid` (the flattened scheduler against
//!   per-point and per-policy passes), `large-fleet` (neighbor-local scans
//!   and the calendar queue against global scans and the heap),
//!   `probe-overhead` and `channel-overhead` (an armed probe and a
//!   zero-loss lossy channel against plain runs) and `campaign-cache` (a
//!   warm campaign re-run against the cold run);
//! * the analytic kernels behind the paper's Eq. 4 mean and Eq. 5 CDF and
//!   their CTMC cross-check.
//!
//! Adding a row means writing its run function and one entry of [`ROWS`];
//! the report, the pin check, the gates and the tests pick it up.
//!
//! Wall-clock numbers are measurements; the *outputs* are pinned. A
//! refactor that silently changes a sample path or a kernel's result fails
//! the report instead of producing an incomparable number.

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use churnbal_cluster::exec::{run_grid, PointJob};
use churnbal_cluster::{
    run_replications, ChannelModel, ChurnModel, DownPolicy, McEstimate, NetworkConfig, NodeConfig,
    Policy, QueueBackend, SimOptions, SystemConfig, Topology,
};
use churnbal_core::{Lbp2, PolicySpec};
use churnbal_model::exact;
use churnbal_model::{lbp1_cdf, optimize_lbp1, HatTable, TwoNodeParams, WorkState};
use churnbal_stochastic::{digest_f64s, fnv1a_bytes};

use crate::args::value;

/// Master seed shared by every row (digests are pinned to it).
pub const PERF_SEED: u64 = 20060425;

/// The `schema` tag of the JSON report.
const SCHEMA: &str = "churnbal-perfreport/8";

/// The one-line usage `perfreport` prints on a bad flag.
pub const USAGE: &str =
    "usage: perfreport [--quick] [--threads T] [--repeat N] [--seed S] [--out PATH]";

/// The run-level settings every row reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Settings {
    /// Quick (CI) sizes instead of full ones.
    pub quick: bool,
    /// Worker threads of the replication-runner rows (0 = auto); the rows
    /// that compare execution shapes fix their own thread counts.
    pub threads: usize,
    /// Master seed; only [`PERF_SEED`] is pinned.
    pub seed: u64,
    /// Runs per row, fastest kept. Wall-clock noise on a shared machine is
    /// one-sided — preemption and frequency dips only ever add time — so
    /// min-of-N is the stable estimator.
    pub repeat: u32,
}

impl Default for Settings {
    fn default() -> Self {
        Self {
            quick: false,
            threads: 1,
            seed: PERF_SEED,
            repeat: 3,
        }
    }
}

/// Parses `perfreport`'s flags into the settings and the `--out` path the
/// report is written to (none: print only).
///
/// # Errors
/// Names the offending flag or value.
pub fn parse_args<I: IntoIterator<Item = String>>(
    iter: I,
) -> Result<(Settings, Option<String>), String> {
    let mut s = Settings::default();
    let mut out = None;
    let mut it = iter.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => s.quick = true,
            "--threads" => s.threads = value(&flag, &mut it)?,
            "--seed" => s.seed = value(&flag, &mut it)?,
            "--repeat" => {
                s.repeat = value(&flag, &mut it)?;
                if s.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => out = Some(it.next().ok_or("--out needs a path")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((s, out))
}

/// One mode of a row, as measured.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Wall-clock seconds (the fastest run, once runs are merged).
    pub wall_seconds: f64,
    /// The unit the row's rate is quoted in: engine events, kernel calls,
    /// or campaign cells.
    pub events: u64,
    /// FNV-1a digest of the mode's output.
    pub digest: u64,
}

impl Mode {
    /// Events per wall-clock second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }
}

/// What one run of a row measured.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Replications one run simulated per mode (kernel rows: calls;
    /// `campaign-cache`: the cold mode's, as the warm mode simulates none).
    pub reps: u64,
    /// The mode under test.
    pub primary: Mode,
    /// The same work timed another way, if the row has a second mode.
    pub second: Option<Mode>,
}

impl Outcome {
    /// The second mode's wall clock per event over the primary's: a
    /// speedup when the second mode is a baseline shape, `1 + overhead`
    /// when it arms a feature.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        let per_event = |m: Mode| m.wall_seconds / m.events as f64;
        self.second.map(|b| per_event(b) / per_event(self.primary))
    }

    /// Folds another run of the same row in: each mode keeps its fastest
    /// wall clock, and every run must have done the same work.
    fn merge(mut self, run: Self, name: &str) -> Self {
        let work = |m: Mode| (m.events, m.digest);
        assert_eq!(
            (self.reps, work(self.primary), self.second.map(work)),
            (run.reps, work(run.primary), run.second.map(work)),
            "{name}: runs disagree"
        );
        self.primary.wall_seconds = self.primary.wall_seconds.min(run.primary.wall_seconds);
        if let (Some(a), Some(b)) = (&mut self.second, run.second) {
            a.wall_seconds = a.wall_seconds.min(b.wall_seconds);
        }
        self
    }
}

/// A row's acceptance gate, judged on its [`Outcome::ratio`].
#[derive(Clone, Copy, Debug)]
pub enum Gate {
    /// The primary mode must be at least this many times cheaper per event
    /// than the second mode, on the fastest runs.
    Speedup(f64),
    /// The second mode must cost less than this fraction more than the
    /// primary, on the 95% confidence interval of the median of paired,
    /// order-mirrored rounds.
    Overhead(f64),
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Speedup(floor) => write!(f, "speedup >= {floor}x"),
            Self::Overhead(ceiling) => write!(f, "overhead < {}%", ceiling * 100.0),
        }
    }
}

/// A pinned `(quick, full)` digest pair, for [`PERF_SEED`].
pub type Pin = (u64, u64);

/// One row of the perf table.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Stable row name (console and JSON key).
    pub name: &'static str,
    /// Times one run. `mirrored` asks a row with two independent modes
    /// to run its second mode first, so a drift in machine speed biases
    /// neither mode.
    pub run: fn(&Settings, bool) -> Outcome,
    /// Pinned digests of the primary mode's output.
    pub pin: Pin,
    /// Pinned digests of the second mode's output where it samples other
    /// paths; otherwise the second mode must match `pin`.
    pub second_pin: Option<Pin>,
    /// The acceptance gate, if any.
    pub gate: Option<Gate>,
}

impl Row {
    /// A row with one pin for every mode and no gate.
    const fn new(name: &'static str, run: fn(&Settings, bool) -> Outcome, pin: Pin) -> Self {
        Self {
            name,
            run,
            pin,
            second_pin: None,
            gate: None,
        }
    }

    /// Checks an outcome's digests against this row's pins.
    fn check(&self, o: &Outcome, s: &Settings) -> PinCheck {
        if s.seed != PERF_SEED {
            return PinCheck::Unpinned;
        }
        let second_pin = pick(s, self.second_pin.unwrap_or(self.pin));
        let second_ok = o.second.is_none_or(|m| m.digest == second_pin);
        if o.primary.digest == pick(s, self.pin) && second_ok {
            PinCheck::Ok
        } else {
            PinCheck::Drift
        }
    }
}

/// The `cascading-churn` pin. Both overhead rows time `cascading-churn`
/// twice, and neither arming a probe nor a zero-loss channel may move one
/// sampled value, so their modes share it.
const CASCADING_CHURN_PIN: Pin = (0xa6dd_59e7_2da6_9095, 0xfbf3_672e_d885_7e79);

/// The perf table, in report order. Change a pin deliberately or not at
/// all, and say in the change which outputs moved and why.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    Row::new("paper-fig3", paper_fig3, (0x2c94_8cc7_508e_4943, 0x23ce_c6b9_6177_7e3f)),
    Row::new("shock-storm", shock_storm, (0x652b_fe99_eae3_59e7, 0xafa7_2471_119b_5837)),
    Row::new("cascading-churn", cascading_churn, CASCADING_CHURN_PIN),
    Row::new("sweep-grid", sweep_grid_row, (0x5117_9065_1d66_93b9, 0x647f_3dce_b148_4c05)),
    Row::new("compare-grid", compare_grid, (0x0098_fd56_7fda_0769, 0x6d97_8a9a_9f7a_3d4d)),
    Row {
        second_pin: Some((0x1624_d456_4450_ab9c, 0x09f0_8430_eb04_6aa7)),
        gate: Some(Gate::Speedup(5.0)),
        ..Row::new("large-fleet", large_fleet, (0x09df_cb9f_e3b8_6f66, 0x655c_0ac6_d0f3_3bb2))
    },
    Row {
        gate: Some(Gate::Overhead(0.02)),
        ..Row::new("probe-overhead", probe_overhead, CASCADING_CHURN_PIN)
    },
    Row {
        gate: Some(Gate::Overhead(0.02)),
        ..Row::new("channel-overhead", channel_overhead, CASCADING_CHURN_PIN)
    },
    Row {
        gate: Some(Gate::Speedup(10.0)),
        ..Row::new("campaign-cache", campaign_cache, (0xbc4d_9e85_1830_3116, 0x892a_76a4_41c1_cde4))
    },
    Row::new("eq4-hat-table", eq4_hat_table, (0x8462_ad19_1e86_21e9, 0xc78c_a832_b62c_87f2)),
    Row::new("lbp1-optimize", lbp1_optimize, (0x7a6f_d49d_69d5_2997, 0x2eab_33ef_9949_2ff2)),
    Row::new("eq5-cdf", eq5_cdf, (0xc7a0_4e04_39c1_9754, 0x6da5_b643_7e43_5004)),
    Row::new("ctmc-mean", ctmc_mean, (0xf56d_0cde_f4bf_2735, 0xb97f_5ce8_e523_e5d1)),
    Row::new("ctmc-uniformization", uniformization, (0xb9bb_102e_70a6_ead3, 0x5885_d4f9_4954_49af)),
];

/// A gate's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The bound holds.
    Pass,
    /// The bound is broken: a regression.
    Fail,
    /// The round cap was reached with the bound still inside the
    /// confidence interval: the machine is too noisy to decide.
    Noisy,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Pass => "ok",
            Self::Fail => "FAIL",
            Self::Noisy => "NOISY",
        })
    }
}

/// A gate's reading on one measured row.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// The ratio judged: the fastest runs' [`Outcome::ratio`] for a
    /// speedup gate, the median paired ratio for an overhead gate.
    pub ratio: f64,
    /// Runs measured for a speedup gate, paired rounds for an overhead
    /// gate.
    pub rounds: usize,
    /// 95% confidence interval of the median paired ratio (overhead gates).
    pub ci: Option<(f64, f64)>,
    /// The verdict.
    pub verdict: Verdict,
}

impl Reading {
    fn describe(&self, gate: Gate) -> String {
        let pct = |r: f64| (r - 1.0) * 100.0;
        match (gate, self.ci) {
            (Gate::Overhead(_), Some((lo, hi))) => format!(
                "{:+.2}% [{:+.2}%, {:+.2}%] in {} rounds",
                pct(self.ratio),
                pct(lo),
                pct(hi),
                self.rounds
            ),
            _ => format!("{:.2}x", self.ratio),
        }
    }
}

/// The round cap of [`paired_overhead`].
const MAX_PAIRED_ROUNDS: usize = 256;

/// Runs of an overhead row that one paired round sums, `(quick, full)`.
/// A quick `cascading-churn` run takes 0.1–0.2 s, and on a shared 2-core
/// machine the ratio of one such pair of runs carries ~8% noise: the
/// interval around a 2% ceiling then needs about as many rounds as the cap
/// allows. Four alternately mirrored runs per round roughly halve that
/// noise and give the cap four times the data; a full run already does ten
/// times the work of a quick one.
const OVERHEAD_ROUND_RUNS: (usize, usize) = (4, 1);

/// The overhead estimator: paired per-round ratios (second mode's wall
/// over the primary's, from `next_ratio(round)`) are added two rounds at a
/// time, at least `min_rounds` of them (capped at [`MAX_PAIRED_ROUNDS`]),
/// until the 95% confidence interval of their median lies wholly below
/// `1 + ceiling` (pass) or wholly above it (fail). At
/// [`MAX_PAIRED_ROUNDS`] an undecided interval is [`Verdict::Noisy`].
///
/// The per-round pairing cancels machine-speed drift that min-of-N walls
/// would charge to one mode, and the interval keeps a noisy median from
/// passing or failing the ceiling by chance.
fn paired_overhead(
    ceiling: f64,
    min_rounds: usize,
    mut next_ratio: impl FnMut(usize) -> f64,
) -> Reading {
    let bound = 1.0 + ceiling;
    let min_rounds = min_rounds.min(MAX_PAIRED_ROUNDS);
    let mut ratios = Vec::new();
    loop {
        for _ in 0..2 {
            let ratio = next_ratio(ratios.len());
            ratios.push(ratio);
        }
        if ratios.len() < min_rounds {
            continue;
        }
        let mut sorted = ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let Some((lo, hi)) = median_ci95(&sorted) else {
            continue;
        };
        let verdict = if hi < bound {
            Verdict::Pass
        } else if lo > bound {
            Verdict::Fail
        } else if sorted.len() >= MAX_PAIRED_ROUNDS {
            Verdict::Noisy
        } else {
            continue;
        };
        let mid = sorted.len() / 2;
        return Reading {
            ratio: (sorted[mid - 1] + sorted[mid]) / 2.0,
            rounds: sorted.len(),
            ci: Some((lo, hi)),
            verdict,
        };
    }
}

/// The distribution-free 95% confidence interval of the median of
/// `sorted`: order statistics `x(k)` and `x(n+1−k)` for the largest `k`
/// with `P(Bin(n, ½) < k) ≤ 2.5%`. `None` below six samples, where no such
/// `k` exists.
fn median_ci95(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let mut pmf = 0.5f64.powi(i32::try_from(n).expect("few rounds")); // P(X = 0)
    let mut cdf = 0.0;
    let mut k = 0;
    while k < n / 2 {
        cdf += pmf; // P(X ≤ k)
        if cdf > 0.025 {
            break;
        }
        k += 1;
        pmf *= (n - k + 1) as f64 / k as f64; // P(X = k)
    }
    (k > 0).then(|| (sorted[k - 1], sorted[n - k]))
}

/// Whether a row's output matched its pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinCheck {
    /// Every mode's digest matched.
    Ok,
    /// Some digest differs from its pin.
    Drift,
    /// A non-default seed: nothing is pinned.
    Unpinned,
}

impl fmt::Display for PinCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Ok => "ok",
            Self::Drift => "DRIFT",
            Self::Unpinned => "unpinned",
        })
    }
}

fn pick<T>(s: &Settings, (quick, full): (T, T)) -> T {
    if s.quick {
        quick
    } else {
        full
    }
}

/// One measured row.
#[derive(Clone, Copy, Debug)]
pub struct Measured<'a> {
    /// The row.
    pub row: &'a Row,
    /// Its runs, merged.
    pub outcome: Outcome,
    /// The pin check.
    pub pin: PinCheck,
    /// The gate's reading, if the row has a gate.
    pub reading: Option<Reading>,
}

/// Measures one row: `--repeat` runs, merged, with odd runs mirrored. An
/// overhead gate takes at least twice as many rounds of
/// [`OVERHEAD_ROUND_RUNS`] runs (up to its cap) and keeps adding rounds
/// until the interval of its median paired ratio decides.
///
/// # Panics
/// Panics if a run does different work than the first, or if a gated row
/// has no second mode (a bug in the table).
#[must_use]
pub fn measure<'a>(row: &'a Row, s: &Settings) -> Measured<'a> {
    let repeat = s.repeat as usize;
    let mut merged: Option<Outcome> = None;
    let mut run = |i: usize| {
        let o = (row.run)(s, i % 2 == 1);
        merged = Some(merged.map_or(o, |m| m.merge(o, row.name)));
        o
    };
    let paired = match row.gate {
        Some(Gate::Overhead(ceiling)) => {
            let runs = pick(s, OVERHEAD_ROUND_RUNS);
            Some(paired_overhead(ceiling, 2 * repeat, |round| {
                let mut sum = run(round * runs);
                for i in round * runs + 1..(round + 1) * runs {
                    let o = run(i);
                    sum.primary.wall_seconds += o.primary.wall_seconds;
                    if let (Some(a), Some(b)) = (&mut sum.second, o.second) {
                        a.wall_seconds += b.wall_seconds;
                    }
                }
                sum.ratio().expect("an overhead row has a second mode")
            }))
        }
        _ => {
            for i in 0..repeat {
                run(i);
            }
            None
        }
    };
    let outcome = merged.expect("at least one run");
    let reading = match row.gate {
        Some(Gate::Speedup(floor)) => {
            let ratio = outcome.ratio().expect("a speedup row has a second mode");
            let verdict = if ratio >= floor {
                Verdict::Pass
            } else {
                Verdict::Fail
            };
            Some(Reading {
                ratio,
                rounds: repeat,
                ci: None,
                verdict,
            })
        }
        _ => paired,
    };
    Measured {
        row,
        outcome,
        pin: row.check(&outcome, s),
        reading,
    }
}

impl Measured<'_> {
    /// Why this row fails the report, if it does.
    #[must_use]
    pub fn failure(&self) -> Option<String> {
        let name = self.row.name;
        if self.pin == PinCheck::Drift {
            return Some(format!(
                "{name}: output digests drifted from their pins: the sampled paths or \
                 kernel results changed. Re-pin deliberately if the change is intended"
            ));
        }
        let (gate, r) = (self.row.gate?, self.reading?);
        let reading = r.describe(gate);
        match r.verdict {
            Verdict::Pass => None,
            Verdict::Fail => Some(format!("{name}: {reading} breaks the gate ({gate})")),
            Verdict::Noisy => Some(format!(
                "{name}: {reading} still straddles the gate ({gate}) at the round cap: \
                 the machine is too noisy to decide"
            )),
        }
    }

    /// The row as one JSON object.
    fn json(&self) -> String {
        let mode = |m: Mode| {
            format!(
                "\"events\": {}, \"wall_seconds\": {:?}, \"events_per_sec\": {:.0}, \
                 \"digest\": \"{:#018x}\"",
                m.events,
                m.wall_seconds,
                m.rate(),
                m.digest
            )
        };
        let o = &self.outcome;
        let mut out = format!(
            "{{\"name\": \"{}\", \"reps\": {}, {}, \"pin\": \"{}\"",
            self.row.name,
            o.reps,
            mode(o.primary),
            self.pin
        );
        if let (Some(second), Some(ratio)) = (o.second, o.ratio()) {
            out += &format!(", \"second\": {{{}}}, \"ratio\": {ratio:.4}", mode(second));
        }
        if let (Some(gate), Some(r)) = (self.row.gate, self.reading) {
            let (kind, bound) = match gate {
                Gate::Speedup(floor) => ("speedup", floor),
                Gate::Overhead(ceiling) => ("overhead", ceiling),
            };
            out += &format!(
                ", \"gate\": {{\"kind\": \"{kind}\", \"bound\": {bound:?}, \"ratio\": {:.4}, \
                 \"rounds\": {}",
                r.ratio, r.rounds
            );
            if let Some((lo, hi)) = r.ci {
                out += &format!(", \"ci\": [{lo:.4}, {hi:.4}]");
            }
            out += &format!(", \"verdict\": \"{}\"}}", r.verdict);
        }
        out + "}"
    }
}

impl fmt::Display for Measured<'_> {
    /// One console line: the primary mode's numbers and pin check, then
    /// the second mode's wall and ratio, then the gate's reading.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.outcome;
        let p = o.primary;
        write!(
            f,
            "{:<20} {:>6} {:>12} {:>10.4} {:>14.0}  {:#018x} {}",
            self.row.name,
            o.reps,
            p.events,
            p.wall_seconds,
            p.rate(),
            p.digest,
            self.pin
        )?;
        if let (Some(second), Some(ratio)) = (o.second, o.ratio()) {
            write!(
                f,
                "  (second {:.4}s, ratio {ratio:.3})",
                second.wall_seconds
            )?;
        }
        if let (Some(gate), Some(r)) = (self.row.gate, self.reading) {
            write!(f, "  {gate}: {} {}", r.describe(gate), r.verdict)?;
        }
        Ok(())
    }
}

/// Renders the report as pretty-printed JSON (no external deps; every
/// field is a number or a fixed-format string).
#[must_use]
pub fn to_json(measured: &[Measured<'_>], s: &Settings) -> String {
    let rows: Vec<String> = measured.iter().map(Measured::json).collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \
         \"seed\": {},\n  \"repeat\": {},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        pick(s, ("quick", "full")),
        s.threads,
        s.seed,
        s.repeat,
        rows.join(",\n    ")
    )
}

// ---------------------------------------------------------------------------
// Run functions: each times one run of its row.
// ---------------------------------------------------------------------------

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `a` and `b` — `b` first when `mirrored` — and returns their
/// results in `(a, b)` order.
fn in_order<A, B>(mirrored: bool, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if mirrored {
        let b = b();
        (a(), b)
    } else {
        let a = a();
        (a, b())
    }
}

/// The outcome of a row whose two modes sampled the same `times` (the
/// caller asserts that bit-exactly before trusting either wall clock).
fn same_paths(reps: u64, times: &[f64], events: u64, walls: (f64, f64)) -> Outcome {
    let digest = digest_f64s(times);
    let mode = |wall_seconds| Mode {
        wall_seconds,
        events,
        digest,
    };
    Outcome {
        reps,
        primary: mode(walls.0),
        second: Some(mode(walls.1)),
    }
}

/// Times `reps` replications of `config` under `policy`, rebuilt per
/// replication through the same declarative path the lab uses.
fn replications(
    s: &Settings,
    config: &SystemConfig,
    policy: &PolicySpec,
    reps: u64,
    options: SimOptions,
) -> (McEstimate, f64) {
    let make = |_| policy.build(config).expect("perf rows are self-consistent");
    timed(|| run_replications(config, &make, reps, s.seed, s.threads, options))
}

/// An engine row: `(quick, full)` replications of one system.
fn engine(s: &Settings, config: &SystemConfig, policy: &PolicySpec, reps: (u64, u64)) -> Outcome {
    let reps = pick(s, reps);
    let (est, wall_seconds) = replications(s, config, policy, reps, SimOptions::default());
    Outcome {
        reps,
        primary: Mode {
            wall_seconds,
            events: est.total_events,
            digest: digest_f64s(&est.completion_times),
        },
        second: None,
    }
}

/// Replications of the `paper-fig3` system, `(quick, full)`.
const PAPER_FIG3_REPS: (u64, u64) = (50, 500);

fn paper_fig3(s: &Settings, _: bool) -> Outcome {
    let policy = PolicySpec::Lbp1 {
        sender: 0,
        receiver: 1,
        gain: 0.35,
    };
    engine(s, &SystemConfig::paper([100, 60]), &policy, PAPER_FIG3_REPS)
}

/// Replications of the `shock-storm` system, `(quick, full)`.
const SHOCK_STORM_REPS: (u64, u64) = (20, 200);

/// 32 heterogeneous nodes hit by correlated shocks: each shock downs about
/// half the fleet at one instant, cancelling every victim's pending
/// service and failure events.
fn shock_storm(s: &Settings, _: bool) -> Outcome {
    let rates = [0.8, 1.2, 1.6, 2.0];
    let config = SystemConfig::new(
        (0..32)
            .map(|i| NodeConfig::new(rates[i % rates.len()], 0.02, 0.4, 30))
            .collect(),
        NetworkConfig::exponential(0.01),
    )
    .with_churn_model(ChurnModel::CorrelatedShocks {
        shock_rate: 0.25,
        hit_probability: 0.5,
    });
    let policy = PolicySpec::Lbp2 { gain: 1.0 };
    engine(s, &config, &policy, SHOCK_STORM_REPS)
}

/// Replications of the `cascading-churn` system, `(quick, full)`.
const CASCADING_CHURN_REPS: (u64, u64) = (20, 200);

/// 24 nodes with cascading failure amplification: every failure and
/// recovery changes every other up node's hazard, so the engine cancels
/// and redraws up to `n − 1` pending failure events per churn transition.
fn cascading_churn_config() -> SystemConfig {
    SystemConfig::new(
        (0..24)
            .map(|_| NodeConfig::new(1.0, 0.06, 0.5, 40))
            .collect(),
        NetworkConfig::exponential(0.01),
    )
    .with_churn_model(ChurnModel::Cascading { amplification: 3.0 })
}

fn cascading_churn(s: &Settings, _: bool) -> Outcome {
    let policy = PolicySpec::UponFailureOnly;
    engine(s, &cascading_churn_config(), &policy, CASCADING_CHURN_REPS)
}

/// Worker threads of both `sweep-grid` modes and both `compare-grid`
/// modes, so their ratios isolate orchestration, not parallelism.
const SWEEP_GRID_THREADS: usize = 4;

/// The `sweep-grid` systems: a fine-grained grid of small two-node systems
/// with mixed replication counts (many points with fewer replications than
/// workers — the shape that leaves cores idle under per-point
/// parallelism). Returns the configs and the per-point rep counts.
fn sweep_grid(quick: bool) -> (Vec<SystemConfig>, Vec<u64>) {
    let points = if quick { 32 } else { 96 };
    // Mixed on purpose: singleton points pay the worst idle-core cost
    // under per-point parallelism, multi-rep points pay the per-point
    // spawn/join barrier, and the occasional 8-rep point creates the
    // imbalance a flattened queue has to absorb.
    const REPS_CYCLE: [u64; 6] = [1, 2, 4, 4, 2, 8];
    let mut configs = Vec::with_capacity(points);
    let mut reps = Vec::with_capacity(points);
    for k in 0..points {
        let m = [8 + (k as u32 % 5) * 2, 5 + (k as u32 % 3) * 2];
        let churn_scale = 0.5 + 0.25 * (k % 4) as f64;
        configs.push(SystemConfig::new(
            vec![
                NodeConfig::new(1.08, 0.05 * churn_scale, 0.1, m[0]),
                NodeConfig::new(1.86, 0.05 * churn_scale, 0.05, m[1]),
            ],
            NetworkConfig::exponential(0.02),
        ));
        reps.push(REPS_CYCLE[k % REPS_CYCLE.len()]);
    }
    (configs, reps)
}

fn grid_jobs<'a>(configs: &'a [SystemConfig], reps: &[u64], seed: u64) -> Vec<PointJob<'a>> {
    configs
        .iter()
        .zip(reps)
        .map(|(config, &reps)| PointJob {
            config,
            reps,
            seed,
            rep_base: 0,
            antithetic: false,
            options: SimOptions::default(),
        })
        .collect()
}

/// One [`run_grid`] pass over `jobs` at [`SWEEP_GRID_THREADS`]: the
/// completion times per job, in order, and the events dispatched.
fn grid_pass<P: Policy>(
    jobs: &[PointJob<'_>],
    make: &(impl Fn(usize, u64) -> P + Sync),
) -> (Vec<Vec<f64>>, u64) {
    let mut cells = Vec::with_capacity(jobs.len());
    let mut events = 0;
    run_grid(jobs, make, SWEEP_GRID_THREADS, 0, |_, stats| {
        events += stats.total_events;
        cells.push(stats.completion_times);
        Ok(())
    })
    .expect("perf grid pass");
    (cells, events)
}

/// `sweep-grid`: the grid through one flattened scheduler pass, against
/// the sequential-point baseline — one scheduler invocation per point,
/// paying a worker-pool spawn/join barrier between points. The engine code
/// is identical in both modes; only the orchestration differs.
fn sweep_grid_row(s: &Settings, mirrored: bool) -> Outcome {
    let (configs, reps) = sweep_grid(s.quick);
    let jobs = grid_jobs(&configs, &reps, s.seed);
    let sequential = || {
        let mut cells = Vec::with_capacity(jobs.len());
        let mut events = 0;
        for job in &jobs {
            let est = run_replications(
                job.config,
                &|_| Lbp2::new(1.0),
                job.reps,
                job.seed,
                SWEEP_GRID_THREADS,
                job.options,
            );
            cells.push(est.completion_times);
            events += est.total_events;
        }
        (cells, events)
    };
    let (((cells, events), wall), ((seq_cells, seq_events), seq_wall)) = in_order(
        mirrored,
        || timed(|| grid_pass(&jobs, &|_, _| Lbp2::new(1.0))),
        || timed(sequential),
    );
    assert_eq!(
        cells, seq_cells,
        "sweep-grid: scheduler and sequential-point baseline sampled different trajectories"
    );
    assert_eq!(events, seq_events, "sweep-grid: event counts diverged");
    same_paths(reps.iter().sum(), &cells.concat(), events, (wall, seq_wall))
}

/// The policy set of the `compare-grid` workload, in baseline-first
/// order — the same declarative specs the lab's `compare` resolves.
fn compare_grid_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Lbp2 { gain: 1.0 },
        PolicySpec::UponFailureOnly,
        PolicySpec::NoBalancing,
    ]
}

/// `compare-grid`: the `sweep-grid` systems × a 3-policy set through one
/// shared scheduler pass, one job per `(point, policy)` cell on the
/// point's seed — how `churnbal-lab compare` executes — against K
/// sequential single-policy sweeps. The bit-exact cross-check of the two
/// modes is the common-random-numbers invariant, measured instead of
/// assumed.
fn compare_grid(s: &Settings, mirrored: bool) -> Outcome {
    let (configs, reps) = sweep_grid(s.quick);
    let jobs = grid_jobs(&configs, &reps, s.seed);
    let policies = compare_grid_policies();
    let k = policies.len();
    let cell_jobs: Vec<PointJob<'_>> = jobs
        .iter()
        .flat_map(|job| std::iter::repeat_n(*job, k))
        .collect();
    let build = |p: usize, v: usize| {
        policies[v]
            .build(jobs[p].config)
            .expect("compare-grid policies fit every point")
    };
    let sequential = || {
        let passes: Vec<_> = (0..k)
            .map(|v| grid_pass(&jobs, &|p, _| build(p, v)))
            .collect();
        let events = passes.iter().map(|(_, e)| e).sum::<u64>();
        // Interleave into the shared pass's (point, policy) cell order.
        let cells: Vec<Vec<f64>> = (0..jobs.len())
            .flat_map(|p| passes.iter().map(move |(cells, _)| cells[p].clone()))
            .collect();
        (cells, events)
    };
    let (((cells, events), wall), ((seq_cells, seq_events), seq_wall)) = in_order(
        mirrored,
        || timed(|| grid_pass(&cell_jobs, &|j, _| build(j / k, j % k))),
        || timed(sequential),
    );
    assert_eq!(
        cells, seq_cells,
        "compare-grid: shared pass and sequential sweeps sampled different trajectories \
         (CRN invariant broken)"
    );
    assert_eq!(events, seq_events, "compare-grid: event counts diverged");
    let reps = reps.iter().sum::<u64>() * k as u64;
    same_paths(reps, &cells.concat(), events, (wall, seq_wall))
}

/// Torus dimensions of the `large-fleet` workload: `100 × 100` (10⁴
/// nodes) in full mode, `50 × 50` in `--quick`.
fn large_fleet_dims(quick: bool) -> (usize, usize) {
    if quick {
        (50, 50)
    } else {
        (100, 100)
    }
}

/// Simulated-time horizon of the `large-fleet` workload. The fleet
/// carries ~40 initial tasks per node — more than it can drain before
/// this deadline — so both modes measure a steady churn-plus-service
/// regime instead of a drain tail.
const LARGE_FLEET_DEADLINE: f64 = 25.0;

/// The `large-fleet` system without a topology: a `rows × cols` fleet
/// whose racks (one per torus row) are struck by rack-correlated shocks
/// with per-rack probabilities cycled over four reliability classes.
/// Every policy scan falls back to the global O(n) walk.
fn large_fleet_global_config(quick: bool) -> SystemConfig {
    let (rows, cols) = large_fleet_dims(quick);
    let rates = [0.9, 1.0, 1.1, 1.2];
    SystemConfig::new(
        (0..rows * cols)
            .map(|i| NodeConfig::new(rates[i % rates.len()], 0.002, 0.1, 40 + (i as u32 % 3)))
            .collect(),
        NetworkConfig::exponential(0.05),
    )
    .with_churn_model(ChurnModel::RackShocks {
        shock_rate: 2.0,
        group_size: cols as u32,
        hit_probabilities: vec![0.10, 0.40, 0.20, 0.60],
    })
}

/// The same fleet on its `rows × cols` torus, so LBP-2 scans only a
/// node's neighbors.
fn large_fleet_config(quick: bool) -> SystemConfig {
    let (rows, cols) = large_fleet_dims(quick);
    large_fleet_global_config(quick)
        .with_topology(Topology::torus(rows, cols).expect("torus dims are valid"))
}

/// Trajectory digest of a deadline-bounded replication run. The
/// completion-time vector alone degenerates to the deadline constant, so
/// the digest folds in the per-replication failure and shipment counts
/// plus the total event count — any drifted trajectory moves at least
/// one of them.
fn deadline_run_digest(est: &McEstimate) -> u64 {
    let mut values = est.completion_times.clone();
    values.extend(est.failures_per_rep.iter().map(|&f| f as f64));
    values.extend(est.tasks_shipped_per_rep.iter().map(|&s| s as f64));
    values.push(est.total_events as f64);
    digest_f64s(&values)
}

/// `large-fleet`: one deadline-bounded replication of the torus fleet
/// through neighbor-local scans and the calendar queue, against the same
/// fleet through global scans and the binary heap. The topology changes
/// where transfers may go, so the modes sample different paths and the
/// ratio is a throughput ratio. Single-threaded on purpose: the contrast
/// under measurement is per-event scan and queue cost, not parallelism.
fn large_fleet(s: &Settings, mirrored: bool) -> Outcome {
    let run = |config: SystemConfig, backend| {
        let options = SimOptions {
            deadline: Some(LARGE_FLEET_DEADLINE),
            backend,
            ..SimOptions::default()
        };
        let (est, wall_seconds) =
            timed(|| run_replications(&config, &|_| Lbp2::new(1.0), 1, s.seed, 1, options));
        Mode {
            wall_seconds,
            events: est.total_events,
            digest: deadline_run_digest(&est),
        }
    };
    let (local, global) = in_order(
        mirrored,
        || run(large_fleet_config(s.quick), QueueBackend::Calendar),
        || run(large_fleet_global_config(s.quick), QueueBackend::Heap),
    );
    Outcome {
        reps: 1,
        primary: local,
        second: Some(global),
    }
}

/// Simulation-time probe cadence of `probe-overhead`. Deliberately coarse:
/// a handful of ticks per replication against ~10⁴ events, so the armed
/// run isolates the per-event probe branch — the cost the disabled path
/// pays — instead of the per-tick sampling work, whose price scales with
/// the cadence the user chose.
const PROBE_OVERHEAD_DT: f64 = 50.0;

/// `probe-overhead`: `cascading-churn` with probes off against a coarse
/// probe armed. The armed run does strictly more than the disabled probe
/// branch, so its overhead bounds what that branch costs; the two modes
/// must sample bit-identical trajectories (the probe draws no random
/// numbers).
fn probe_overhead(s: &Settings, mirrored: bool) -> Outcome {
    let config = cascading_churn_config();
    let reps = pick(s, CASCADING_CHURN_REPS);
    let policy = PolicySpec::UponFailureOnly;
    let armed = SimOptions {
        probe_dt: Some(PROBE_OVERHEAD_DT),
        ..SimOptions::default()
    };
    let ((off, off_wall), (armed, armed_wall)) = in_order(
        mirrored,
        || replications(s, &config, &policy, reps, SimOptions::default()),
        || replications(s, &config, &policy, reps, armed),
    );
    assert_eq!(
        off.completion_times, armed.completion_times,
        "probe-overhead: arming the probe changed the sampled trajectories"
    );
    assert_eq!(
        off.total_events, armed.total_events,
        "probe-overhead: arming the probe changed the event count"
    );
    assert!(
        armed.probes.iter().any(|r| !r.samples.is_empty()),
        "probe-overhead: armed mode emitted no ticks"
    );
    same_paths(
        reps,
        &off.completion_times,
        off.total_events,
        (off_wall, armed_wall),
    )
}

/// `channel-overhead`: `cascading-churn` under the reliable channel
/// against an armed-but-zero-loss lossy channel. Zero loss draws one
/// uniform per transfer arrival but never retries or dead-letters, so the
/// ratio isolates the per-arrival channel branch. The two modes must
/// sample bit-identical trajectories: the channel draws from its own
/// stream, so arming it perturbs no other.
fn channel_overhead(s: &Settings, mirrored: bool) -> Outcome {
    let reliable = cascading_churn_config();
    let lossy = reliable.clone().with_channel_model(ChannelModel::Lossy {
        loss_probability: 0.0,
        on_down: DownPolicy::Enqueue,
        max_retries: 0,
        retry_backoff: 0.1,
    });
    let reps = pick(s, CASCADING_CHURN_REPS);
    let policy = PolicySpec::UponFailureOnly;
    let options = SimOptions::default();
    let ((reliable, reliable_wall), (lossy, lossy_wall)) = in_order(
        mirrored,
        || replications(s, &reliable, &policy, reps, options),
        || replications(s, &lossy, &policy, reps, options),
    );
    assert_eq!(
        reliable.completion_times, lossy.completion_times,
        "channel-overhead: arming a zero-loss channel changed the sampled trajectories"
    );
    assert_eq!(
        reliable.total_events, lossy.total_events,
        "channel-overhead: arming a zero-loss channel changed the event count"
    );
    assert!(
        lossy.mean_tasks_lost == 0.0 && lossy.mean_retries == 0.0,
        "zero-loss lossy mode must lose and retry nothing"
    );
    same_paths(
        reps,
        &reliable.completion_times,
        reliable.total_events,
        (reliable_wall, lossy_wall),
    )
}

/// Worker threads of both `campaign-cache` runs: the invariant under test
/// is what runs (no replication when warm), not scheduling, so a small
/// fixed pool keeps the walls comparable across machines.
const CAMPAIGN_CACHE_THREADS: usize = 4;

/// The `campaign-cache` spec: paper-fig5 swept over a failure-rate axis
/// with a 2-policy set under tight sequential stopping, so the cold run
/// caps out and the cell count is stable.
fn campaign_cache_spec(quick: bool, seed: u64) -> String {
    let (r0, max_reps) = if quick { (8, 64) } else { (16, 256) };
    format!(
        "scenarios = [\"paper-fig5\"]\n\
         policies = [\"lbp1-optimal\", \"none\"]\n\
         axis = [\"failure-scale=1,1.25,1.5,1.75,2\"]\n\
         seed = {seed}\n\
         \n\
         [stopping]\n\
         tolerance = 0.05\n\
         r0 = {r0}\n\
         max_reps = {max_reps}\n\
         \n\
         [fields]\n\
         workload = \"campaign-cache\"\n"
    )
}

/// `campaign-cache`: a campaign re-run warm on its content-addressed cache
/// — which must simulate zero replications — against the cold run from a
/// fresh directory. Both modes digest the final CSV bytes and count the
/// campaign's cells as their events; the replications reported are the
/// cold run's.
fn campaign_cache(s: &Settings, _: bool) -> Outcome {
    use churnbal_lab::campaign::{Campaign, CampaignRunOptions};

    let dir = std::env::temp_dir().join(format!(
        "churnbal-campaign-cache-{}-{}",
        pick(s, ("quick", "full")),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create campaign dir");
    std::fs::write(
        dir.join("campaign-cache.toml"),
        campaign_cache_spec(s.quick, s.seed),
    )
    .expect("write spec");
    let opts = CampaignRunOptions {
        threads: CAMPAIGN_CACHE_THREADS,
        chunk: 0,
        max_cells: None,
    };
    let run = || {
        let (report, wall_seconds) = timed(|| {
            let mut campaign = Campaign::load(&dir).expect("campaign loads");
            campaign.run(&opts).expect("campaign run")
        });
        assert_eq!(report.cells_done, report.cells_total, "campaign finishes");
        let csv = std::fs::read(dir.join("out").join("campaign-cache.csv")).expect("campaign csv");
        let mode = Mode {
            wall_seconds,
            events: report.cells_total as u64,
            digest: fnv1a_bytes(&csv),
        };
        (mode, report.reps_run)
    };
    let (cold, cold_reps) = run();
    let (warm, warm_reps) = run();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(cold_reps > 0, "the cold run must simulate replications");
    assert_eq!(warm_reps, 0, "warm re-run must simulate zero replications");
    Outcome {
        reps: cold_reps,
        primary: warm,
        second: Some(cold),
    }
}

/// Times one call of an analytic kernel; `values` reads the output whose
/// digest is pinned.
fn kernel<T>(run: impl FnOnce() -> T, values: impl FnOnce(&T) -> Vec<f64>) -> Outcome {
    let (out, wall_seconds) = timed(run);
    Outcome {
        reps: 1,
        primary: Mode {
            wall_seconds,
            events: 1,
            digest: digest_f64s(&values(&out)),
        },
        second: None,
    }
}

/// `eq4-hat-table`: the Eq. 4 no-transit lattice `µ̂` over every work
/// state and every `m ≤ (n, n)`.
fn eq4_hat_table(s: &Settings, _: bool) -> Outcome {
    let params = TwoNodeParams::paper();
    let n = pick(s, (50, 200));
    kernel(
        || HatTable::build(black_box(&params), [n, n]),
        |hat| {
            let cells = (0..=n).flat_map(|m1| (0..=n).map(move |m2| [m1, m2]));
            cells
                .flat_map(|m| hat.space().states().iter().map(move |&st| hat.get(st, m)))
                .collect()
        },
    )
}

/// `lbp1-optimize`: the LBP-1 optimisation of Table 1 — the gain that
/// minimises the Eq. 4 mean over both transfer directions.
fn lbp1_optimize(s: &Settings, _: bool) -> Outcome {
    let params = TwoNodeParams::paper();
    let m = pick(s, ([50, 30], [100, 60]));
    kernel(
        || optimize_lbp1(black_box(&params), m, WorkState::BOTH_UP),
        |o| {
            vec![
                o.sender as f64,
                o.receiver as f64,
                f64::from(o.tasks),
                o.gain,
                o.mean,
            ]
        },
    )
}

/// `eq5-cdf`: the Eq. 5 completion-time CDF of an LBP-1 transfer.
fn eq5_cdf(s: &Settings, _: bool) -> Outcome {
    let params = TwoNodeParams::paper();
    // The quick size ships the sender's whole queue: tasks left behind
    // force a much finer integration step (≈ 200 ms even at (12, 7)).
    let (m, l) = pick(s, (([12, 7], 12), ([25, 15], 8)));
    let times: Vec<f64> = (0..=60).map(|i| f64::from(i) * 2.0).collect();
    kernel(
        || lbp1_cdf(black_box(&params), m, 0, l, WorkState::BOTH_UP, &times),
        |cdf| cdf.values.clone(),
    )
}

/// `ctmc-mean`: the exact mean of an LBP-1 transfer from the explicit
/// CTMC, the cross-check of the Eq. 4 recursion.
fn ctmc_mean(s: &Settings, _: bool) -> Outcome {
    let params = TwoNodeParams::paper();
    let (m, l) = pick(s, (([12, 7], 4), ([25, 15], 8)));
    kernel(
        || exact::lbp1_mean_exact(black_box(&params), m, 0, l, WorkState::BOTH_UP),
        |&mean| vec![mean],
    )
}

/// `ctmc-uniformization`: the absorption-time CDF of the explicit LBP-1
/// CTMC with a batch in flight, by uniformization (the chain is built
/// outside the timed call).
fn uniformization(s: &Settings, _: bool) -> Outcome {
    let params = TwoNodeParams::paper();
    let (m0, l) = pick(s, (([13, 6], 3), ([25, 12], 5)));
    let (chain, start) =
        exact::two_node_chain(&params, m0, (0, l), [0, 0], WorkState::BOTH_UP, 1_000_000)
            .expect("a non-empty workload");
    let times: Vec<f64> = (0..=40).map(|i| f64::from(i) * 2.0).collect();
    kernel(
        || churnbal_ctmc::absorption_cdf(black_box(&chain), start, &times, 1e-10),
        Vec::clone,
    )
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    fn parse(args: &[&str]) -> Result<(Settings, Option<String>), String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn workload_table_is_self_consistent() {
        for (i, row) in ROWS.iter().enumerate() {
            assert!(
                ROWS[..i].iter().all(|r| r.name != row.name),
                "{}: duplicate row name",
                row.name
            );
            assert_ne!(row.pin.0, row.pin.1, "{}: quick and full pins", row.name);
            match row.gate {
                Some(Gate::Speedup(floor)) => assert!(floor > 1.0, "{}", row.name),
                Some(Gate::Overhead(ceiling)) => {
                    assert!(ceiling > 0.0 && ceiling < 1.0, "{}", row.name);
                }
                None => {}
            }
        }
        for (name, (quick, full)) in [
            ("paper-fig3", PAPER_FIG3_REPS),
            ("shock-storm", SHOCK_STORM_REPS),
            ("cascading-churn", CASCADING_CHURN_REPS),
        ] {
            assert!(quick < full, "{name}: quick must be cheaper");
        }
    }

    /// Runs `row` once at quick sizes and asserts its outputs
    /// match their pins. Only outputs are checked: debug builds distort
    /// every timing ratio, so no gate is judged.
    fn quick_pinned(row: &Row) -> Outcome {
        let s = Settings {
            quick: true,
            threads: 0,
            ..Settings::default()
        };
        let o = (row.run)(&s, false);
        assert_eq!(
            row.check(&o, &s),
            PinCheck::Ok,
            "{}: output drifted (digest {:#018x}, second {:?})",
            row.name,
            o.primary.digest,
            o.second.map(|m| format!("{:#018x}", m.digest))
        );
        assert!(o.primary.events > 0, "{}", row.name);
        assert!(o.second.is_none_or(|m| m.events > 0), "{}", row.name);
        if row.gate.is_some() {
            assert!(o.ratio().is_some_and(f64::is_finite), "{}", row.name);
        }
        o
    }

    /// The row named `name`, run once per test process through
    /// [`quick_pinned`] however many tests read it: the table-driven test
    /// pin-checks every row, and the per-row tests below add each row's
    /// own invariants on the same run.
    fn quick_pinned_row(name: &str) -> Outcome {
        static RUNS: [OnceLock<Outcome>; ROWS.len()] = [const { OnceLock::new() }; ROWS.len()];
        let i = ROWS
            .iter()
            .position(|r| r.name == name)
            .expect("a perf row");
        *RUNS[i].get_or_init(|| quick_pinned(&ROWS[i]))
    }

    #[test]
    fn quick_digests_match_their_pins() {
        for row in ROWS {
            quick_pinned_row(row.name);
        }
    }

    #[test]
    fn campaign_cache_digest_matches_its_pin() {
        // The row itself asserts the cold run simulated replications and
        // the warm run none; this pins the CSV bytes the cache reproduces.
        let o = quick_pinned_row("campaign-cache");
        let cold = o.second.expect("the cold run");
        assert_eq!((o.primary.events, cold.events), (10, 10), "cells");
        assert_eq!(o.primary.digest, cold.digest, "warm CSV == cold CSV");
        assert!(o.reps > 0, "cold replications");
    }

    #[test]
    fn compare_grid_digest_matches_its_pin() {
        // The row itself cross-checks the shared pass against K sequential
        // sweeps bit-exactly; this pins the sampled trajectories.
        let o = quick_pinned_row("compare-grid");
        assert_eq!(sweep_grid(true).0.len(), 32);
        assert_eq!(compare_grid_policies().len(), 3);
        assert_eq!(o.reps, 3 * 108);
    }

    #[test]
    fn sweep_grid_digest_matches_its_pin() {
        // The row itself cross-checks the scheduler against the
        // sequential-point baseline; this pins the sampled trajectories.
        let o = quick_pinned_row("sweep-grid");
        assert_eq!(sweep_grid(true).0.len(), 32);
        assert_eq!(o.reps, 108);
    }

    #[test]
    fn large_fleet_quick_digests_match_their_pins() {
        // Quick mode only (the 50×50 torus): both modes' trajectories,
        // the torus against its pin and the global baseline against its
        // second pin.
        let o = quick_pinned_row("large-fleet");
        assert_eq!(large_fleet_config(true).nodes.len(), 2500);
        assert_eq!(o.reps, 1);
        assert_ne!(o.second.map(|m| m.digest), Some(o.primary.digest));
    }

    #[test]
    fn probe_overhead_modes_sample_identical_pinned_paths() {
        // The no-RNG contract: probes off and armed sample the same
        // trajectories (the row asserts that, and that the armed mode
        // ticked), and they are `cascading-churn`'s pinned ones.
        let o = quick_pinned_row("probe-overhead");
        assert_eq!(o.primary.digest, CASCADING_CHURN_PIN.0);
        assert_eq!(o.second.map(|m| m.digest), Some(CASCADING_CHURN_PIN.0));
        assert!(o.ratio().is_some_and(|r| r > 0.0), "paired ratio unfilled");
    }

    #[test]
    fn channel_overhead_modes_sample_identical_pinned_paths() {
        // The dedicated-stream contract: a zero-loss lossy channel samples
        // `cascading-churn`'s exact pinned reliable trajectories.
        let o = quick_pinned_row("channel-overhead");
        assert_eq!(o.primary.digest, CASCADING_CHURN_PIN.0);
        assert_eq!(o.second.map(|m| m.digest), Some(CASCADING_CHURN_PIN.0));
        assert!(o.ratio().is_some_and(|r| r > 0.0), "paired ratio unfilled");
    }

    /// A hand-built measurement of `row`: rendering and verdicts are under
    /// test, not timing (the pin test above runs every row).
    fn hand_built(row: &Row, pin: PinCheck, verdict: Verdict) -> Measured<'_> {
        let mode = |wall_seconds| Mode {
            wall_seconds,
            events: 1000,
            digest: row.pin.0,
        };
        let reading = |gate| Reading {
            ratio: 2.0,
            rounds: 6,
            ci: matches!(gate, Gate::Overhead(_)).then_some((1.5, 2.5)),
            verdict,
        };
        let outcome = Outcome {
            reps: 10,
            primary: mode(0.5),
            second: row.gate.map(|_| mode(1.0)),
        };
        let reading = row.gate.map(reading);
        Measured {
            row,
            outcome,
            pin,
            reading,
        }
    }

    #[test]
    fn json_report_has_every_workload() {
        let measured: Vec<Measured<'_>> = ROWS
            .iter()
            .map(|row| hand_built(row, PinCheck::Ok, Verdict::Pass))
            .collect();
        let s = Settings {
            quick: true,
            ..Settings::default()
        };
        let json = to_json(&measured, &s);
        for row in ROWS {
            let name = format!("\"name\": \"{}\"", row.name);
            assert!(json.contains(&name), "{json}");
        }
        assert_eq!(json.matches("\"name\"").count(), ROWS.len(), "{json}");
        for needle in [
            &format!("\"schema\": \"{SCHEMA}\""),
            "\"mode\": \"quick\"",
            "\"repeat\": 3",
            "\"events_per_sec\": 2000",
            "\"ratio\": 2.0000",
            "\"kind\": \"speedup\", \"bound\": 5.0",
            "\"kind\": \"overhead\", \"bound\": 0.02",
            "\"ci\": [1.5000, 2.5000]",
        ] {
            assert!(json.contains(needle), "{needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn failures_tell_drift_regression_and_noise_apart() {
        let probe = ROWS.iter().find(|r| r.name == "probe-overhead");
        let probe = probe.expect("the probe row");
        let failure = |pin, verdict| hand_built(probe, pin, verdict).failure();
        assert_eq!(failure(PinCheck::Ok, Verdict::Pass), None);
        let drift = failure(PinCheck::Drift, Verdict::Pass).expect("drift fails");
        assert!(drift.contains("drifted from their pins"), "{drift}");
        let fail = failure(PinCheck::Ok, Verdict::Fail).expect("a broken gate fails");
        assert!(
            fail.contains("+100.00% [+50.00%, +150.00%] in 6 rounds breaks"),
            "{fail}"
        );
        let noisy = failure(PinCheck::Unpinned, Verdict::Noisy).expect("noise fails");
        assert!(noisy.contains("too noisy to decide"), "{noisy}");
    }

    #[test]
    fn paired_overhead_decides_or_reports_noise_at_the_cap() {
        // ±3% noise around a true ratio, alternating like mirrored rounds.
        let wobble = |center: f64| move |i: usize| center + [0.03, -0.03][i % 2];
        let below = paired_overhead(0.02, 6, wobble(0.98));
        assert_eq!((below.verdict, below.rounds), (Verdict::Pass, 6));
        assert!((below.ratio - 0.98).abs() < 1e-12);
        let above = paired_overhead(0.02, 6, wobble(1.06));
        assert_eq!((above.verdict, above.rounds), (Verdict::Fail, 6));

        // A median right at the ceiling: the interval never leaves it, so
        // the rule spends every round and reports noise, not a regression.
        let mut seen = Vec::new();
        let straddling = paired_overhead(0.02, 2, |i| {
            seen.push(i);
            wobble(1.02)(i)
        });
        assert_eq!(straddling.verdict, Verdict::Noisy);
        assert_eq!(straddling.rounds, MAX_PAIRED_ROUNDS);
        assert_eq!(seen, (0..MAX_PAIRED_ROUNDS).collect::<Vec<_>>());

        // A minimum past the cap is held to the cap, so the order
        // statistics stay those of at most `MAX_PAIRED_ROUNDS` rounds.
        let capped = paired_overhead(0.02, 10 * MAX_PAIRED_ROUNDS, wobble(0.98));
        assert_eq!(
            (capped.verdict, capped.rounds),
            (Verdict::Pass, MAX_PAIRED_ROUNDS)
        );
        let capped = paired_overhead(0.02, usize::MAX, wobble(1.02));
        assert_eq!(
            (capped.verdict, capped.rounds),
            (Verdict::Noisy, MAX_PAIRED_ROUNDS)
        );

        // Below six rounds there is no 95% interval; past that, noisy
        // rounds accrue until the interval clears the ceiling.
        assert_eq!(paired_overhead(0.02, 2, |_| 1.0).rounds, 6);
        let spread = |i: usize| 1.0 + 0.08 * ((i * 37 % 101) as f64 / 100.0 - 0.5);
        let slow = paired_overhead(0.02, 2, spread);
        assert_eq!(slow.verdict, Verdict::Pass);
        assert!(
            slow.rounds > 6 && slow.rounds < MAX_PAIRED_ROUNDS,
            "{slow:?}"
        );
    }

    #[test]
    fn median_ci95_matches_the_binomial_order_statistics() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(median_ci95(&xs[..5]), None);
        assert_eq!(median_ci95(&xs[..6]), Some((0.0, 5.0)));
        // n = 100: the textbook interval is the 40th to the 61st value.
        assert_eq!(median_ci95(&xs), Some((39.0, 60.0)));
    }

    #[test]
    fn parse_args_returns_errors_instead_of_panicking() {
        assert_eq!(parse(&[]), Ok((Settings::default(), None)));
        let (s, out) = parse(&[
            "--quick",
            "--threads",
            "2",
            "--repeat",
            "5",
            "--seed",
            "7",
            "--out",
            "r.json",
        ])
        .expect("valid flags");
        assert_eq!(
            s,
            Settings {
                quick: true,
                threads: 2,
                seed: 7,
                repeat: 5
            }
        );
        assert_eq!(out.as_deref(), Some("r.json"));
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown flag `--bogus`");
        assert_eq!(
            parse(&["--no-write"]).unwrap_err(),
            "unknown flag `--no-write`"
        );
        assert_eq!(
            parse(&["--threads"]).unwrap_err(),
            "--threads needs a value"
        );
        assert_eq!(
            parse(&["--seed", "x"]).unwrap_err(),
            "--seed must be an integer, got `x`"
        );
        assert_eq!(
            parse(&["--repeat", "0"]).unwrap_err(),
            "--repeat must be at least 1"
        );
        assert_eq!(parse(&["--out"]).unwrap_err(), "--out needs a path");
    }

    #[test]
    fn large_fleet_configs_share_everything_but_the_topology() {
        let local = large_fleet_config(true);
        let global = large_fleet_global_config(true);
        assert!(local.topology().is_some());
        assert!(global.topology().is_none());
        assert_eq!(local.nodes, global.nodes);
        let (rows, cols) = large_fleet_dims(false);
        assert_eq!(rows * cols, 10_000, "full mode must reach 10^4 nodes");
    }

    #[test]
    fn sweep_grid_has_mixed_rep_counts() {
        let (configs, reps) = sweep_grid(false);
        assert_eq!(configs.len(), 96);
        assert_eq!(configs.len(), reps.len());
        assert!(reps.contains(&1) && reps.contains(&8), "{reps:?}");
        // The fine-grained shape the scheduler exists for: half the
        // points have fewer replications than the comparison's workers.
        let small = reps
            .iter()
            .filter(|&&r| r < SWEEP_GRID_THREADS as u64)
            .count();
        assert!(small * 2 >= reps.len(), "{reps:?}");
    }
}
