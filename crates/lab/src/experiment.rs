//! The first-class experiment API: one concept for runs, sweeps and
//! multi-policy comparisons.
//!
//! An [`ExperimentSpec`] is `scenario × axes × policy set × options`. Its
//! [`Experiment`] lays the whole thing out as `(grid point, policy)` cells
//! and runs them in **one pass** through the lab's cell runner (the
//! crate-private `cells` module owns planning, cache replay, scheduling
//! and storing cells for experiments and campaigns alike): one scheduler
//! job per cell, and every cell of a grid point on the point's seed, so
//! replication `r` of *every* policy at a point runs on the streams
//! derived from `(seed, r)` — common random numbers across policies by
//! construction. That makes the per-replication differences between two
//! policies paired samples, and [`ExperimentRow::delta`] reports their
//! mean with a t-based 95% confidence interval
//! ([`churnbal_stochastic::paired_comparison`]).
//!
//! Output is decoupled from execution through [`RowSink`]: a
//! [`LineSink`] writes CSV or JSON lines, a [`CollectSink`] collects (for
//! tables/tests), and rows stream to the sink in `(grid point, policy)`
//! order as cells complete. Both line formats render from one column
//! table per row. Where a grid point is a two-node closed system, the Eq. 4
//! theory mean joins each row ([`ExperimentSpec::theory`],
//! [`crate::theory`]).
//!
//! With [`ExperimentSpec::cache`] set, every completed cell is stored in
//! the content-addressed cell cache of [`crate::cache`] before any sink
//! sees it, and cells already there are replayed instead of simulated —
//! so an interrupted run resumes to byte-identical output.

use std::io::Write;
use std::path::PathBuf;

use churnbal_cluster::exec::ExecReport;
use churnbal_cluster::mc::McEstimate;
use churnbal_cluster::{ProbeReport, SimOptions};
use churnbal_core::PolicySpec;
use churnbal_stochastic::{paired_comparison, LogHistogram, PairedComparison};

use crate::campaign::StoppingRule;
use crate::cells::{self, Plan};
use crate::scenario::{Scenario, ScenarioError, ScenarioErrorKind};
use crate::sweep::{Axis, AxisParam, RunOptions};
use crate::theory::TheoryCache;

/// One labelled policy of a comparison: the display/CSV label (usually the
/// CLI token it was parsed from, e.g. `none` or `lbp2@0.5`) and the spec.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyEntry {
    /// Label printed in the `policy` column.
    pub label: String,
    /// The policy itself.
    pub spec: PolicySpec,
    /// When true, a `gain` axis does **not** rewrite this entry's gain:
    /// the policy rides along the axis at its own fixed gain, like a
    /// gainless policy. Set by the CLI for explicit `@gain` suffixes —
    /// `lbp2@0.2` must stay at 0.2 even when the grid sweeps gains.
    pub pinned_gain: bool,
}

impl PolicyEntry {
    /// Labels the entry with the spec's stable kind identifier; the gain
    /// (if any) follows a `gain` axis.
    #[must_use]
    pub fn from_spec(spec: PolicySpec) -> Self {
        Self {
            label: spec.kind().to_string(),
            spec,
            pinned_gain: false,
        }
    }

    /// An entry with an explicit label; the gain follows a `gain` axis.
    #[must_use]
    pub fn named(label: impl Into<String>, spec: PolicySpec) -> Self {
        Self {
            label: label.into(),
            spec,
            pinned_gain: false,
        }
    }
}

/// A complete experiment description: scenario × axes × policy set ×
/// execution options.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// The base scenario (its baked-in axes are part of the grid).
    pub scenario: Scenario,
    /// Extra sweep axes on top of the scenario's baked-in ones.
    pub axes: Vec<Axis>,
    /// The policy set evaluated at every grid point. Empty = the
    /// scenario's own policy (a plain run/sweep); two or more entries
    /// make this a comparison: every row carries CRN-paired deltas
    /// against the [`ExperimentSpec::baseline`] entry.
    pub policies: Vec<PolicyEntry>,
    /// Index into [`ExperimentSpec::policies`] of the delta baseline.
    /// Defaults to 0 (the first policy); with a non-zero baseline each
    /// grid point's cells are buffered until the baseline cell arrives,
    /// so rows still stream in `(point, policy)` order.
    pub baseline: usize,
    /// Replications, seed, threads, chunking.
    pub options: RunOptions,
    /// Join the Eq. 4 theory mean (and `mc − theory`) where the model
    /// covers the point and policy; out-of-domain rows render empty
    /// cells.
    pub theory: bool,
    /// Cell-cache directory (`--cache DIR`): each completed
    /// `(point, policy)` cell is stored there and cells already present
    /// are replayed instead of simulated — see [`crate::cache`]. Cells
    /// are keyed like campaign cells with the fixed rule
    /// [`StoppingRule::fixed`], so a campaign's `cache/` directory is the
    /// same store. Not available with probing.
    pub cache: Option<PathBuf>,
}

impl ExperimentSpec {
    /// A plain run/sweep of the scenario under its own policy.
    #[must_use]
    pub fn sweep(scenario: Scenario, axes: Vec<Axis>, options: RunOptions) -> Self {
        Self {
            scenario,
            axes,
            policies: Vec::new(),
            baseline: 0,
            options,
            theory: false,
            cache: None,
        }
    }

    /// A multi-policy comparison (first entry as baseline), theory
    /// columns on. Reassign [`ExperimentSpec::baseline`] to delta against
    /// a different entry.
    #[must_use]
    pub fn compare(
        scenario: Scenario,
        axes: Vec<Axis>,
        policies: Vec<PolicyEntry>,
        options: RunOptions,
    ) -> Self {
        Self {
            scenario,
            axes,
            policies,
            baseline: 0,
            options,
            theory: true,
            cache: None,
        }
    }
}

/// What a streaming consumer knows before the first row: the column
/// layout and the grid size.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSchema {
    /// Scenario name.
    pub scenario: String,
    /// Axis parameters, in column order.
    pub axes: Vec<AxisParam>,
    /// Grid points (each yields one row per policy).
    pub points: usize,
    /// Policy labels, in evaluation order.
    pub policies: Vec<String>,
    /// Index into [`ExperimentSchema::policies`] of the delta baseline.
    pub baseline: usize,
    /// Whether rows carry `theory_mean` / `mc_minus_theory` columns.
    pub theory: bool,
    /// Whether rows carry paired-delta columns (≥ 2 policies).
    pub paired: bool,
    /// Whether rows carry the extended telemetry columns
    /// (`--metrics full`).
    pub metrics_full: bool,
    /// Whether simulation-time probing is armed for this experiment —
    /// rows then carry per-replication [`ProbeReport`]s through
    /// [`RowSink::probes`], and `--metrics full` additionally renders the
    /// merged histogram quantile columns.
    pub probe: bool,
}

impl ExperimentSchema {
    /// Total rows the experiment will emit.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.points * self.policies.len()
    }
}

/// CRN-paired delta of one policy against the baseline policy of the
/// same grid point: the per-replication difference statistics of
/// [`churnbal_stochastic::paired_comparison`] (`policy − baseline`;
/// identically zero for the baseline row itself).
pub type PairedDelta = PairedComparison;

/// One result row: a `(grid point, policy)` cell.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// Grid-point index.
    pub index: usize,
    /// Axis coordinates, in axis order.
    pub coords: Vec<(AxisParam, f64)>,
    /// Index into [`ExperimentSchema::policies`].
    pub policy_index: usize,
    /// Policy label.
    pub policy: String,
    /// Replications run.
    pub reps: u64,
    /// Master seed used.
    pub seed: u64,
    /// Mean overall completion time (s).
    pub mean_completion: f64,
    /// 95% confidence half-width of the mean (normal approximation).
    pub ci95: f64,
    /// Sample standard deviation of the completion time.
    pub sd_completion: f64,
    /// Mean failures per replication.
    pub mean_failures: f64,
    /// Sample standard deviation of failures per replication.
    pub sd_failures: f64,
    /// Mean tasks shipped per replication.
    pub mean_tasks_shipped: f64,
    /// Sample standard deviation of tasks shipped per replication.
    pub sd_tasks_shipped: f64,
    /// Replications that hit the deadline without completing.
    pub incomplete: u64,
    /// Replications quarantined (panicked or timed out) and excluded
    /// from every statistic of this row; [`ExperimentRow::reps`] already
    /// counts only the survivors. Nonzero marks the row as degraded.
    pub quarantined: u64,
    /// Eq. 4 theory mean, when the model covers this point and policy.
    pub theory_mean: Option<f64>,
    /// `mean_completion − theory_mean`, when theory is available.
    pub mc_minus_theory: Option<f64>,
    /// Paired delta vs the point's baseline policy (`None` on plain
    /// sweeps).
    pub delta: Option<PairedDelta>,
    /// Mean node recoveries per replication.
    pub mean_recoveries: f64,
    /// Mean transfer batches per replication.
    pub mean_transfers: f64,
    /// Mean clamped transfer orders per replication (tasks a policy
    /// ordered that the source queue could not supply) — satellite of the
    /// observability PR.
    pub mean_tasks_clamped: f64,
    /// Mean in-transit task·seconds per replication.
    pub mean_transit_task_seconds: f64,
    /// Mean tasks permanently lost by the transfer channel per
    /// replication (0 under a reliable channel).
    pub mean_tasks_lost: f64,
    /// Mean channel redelivery attempts per replication.
    pub mean_retries: f64,
    /// Mean bounced batches per replication.
    pub mean_bounces: f64,
    /// Probe telemetry merged across this cell's replications (empty
    /// histograms when probing is off). Quantiles come from
    /// [`churnbal_stochastic::LogHistogram::quantile`].
    pub telemetry: ProbeReport,
}

impl ExperimentRow {
    /// A per-replication statistic of this row, or `None` when no
    /// replication survived: a mean, spread or quantile of an empty sample
    /// is not a number. Every renderer shows it as absent (an empty CSV
    /// field, a JSON `null`, `-` in tables).
    pub(crate) fn stat<T>(&self, x: T) -> Option<T> {
        (self.reps > 0).then_some(x)
    }

    /// The column table: calls `col(name, cell)` for every output column
    /// of `row` under `schema`, in output order. Each column's name,
    /// position and presence rule is written once, here and in the column
    /// groups below; the CSV header, the CSV line and the JSON-lines
    /// object all render from it. Without a row (the CSV header) only the
    /// names count and every cell is [`Cell::Absent`].
    fn columns<'a>(
        schema: &'a ExperimentSchema,
        row: Option<&'a Self>,
        mut col: impl FnMut(&'static str, Cell<'a>),
    ) {
        col("scenario", Cell::Text(&schema.scenario));
        col(
            "point",
            row.map_or(Cell::Absent, |r| Cell::Int(r.index as u64)),
        );
        for (i, axis) in schema.axes.iter().enumerate() {
            col(
                axis.key(),
                row.map_or(Cell::Absent, |r| Cell::Num(r.coords[i].1)),
            );
        }
        let groups: [(bool, &[Column]); 5] = [
            (true, &BASE_COLUMNS),
            (schema.theory, &THEORY_COLUMNS),
            (schema.paired, &PAIRED_COLUMNS),
            (schema.metrics_full, &COUNTER_COLUMNS),
            (schema.metrics_full && schema.probe, &QUANTILE_COLUMNS),
        ];
        for (_, group) in groups.into_iter().filter(|&(present, _)| present) {
            for &(name, get) in group {
                col(name, row.map_or(Cell::Absent, get));
            }
        }
    }

    /// The `q`-quantile of one of the row's merged probe histograms.
    fn quantile(&self, hist: &LogHistogram, q: f64) -> Cell<'static> {
        self.stat(hist.quantile(q)).into()
    }
}

/// A column after the axis coordinates: its name and how a row fills it.
type Column = (&'static str, for<'a> fn(&'a ExperimentRow) -> Cell<'a>);

/// What every row carries.
const BASE_COLUMNS: [Column; 11] = [
    ("policy", |r| Cell::Text(&r.policy)),
    ("reps", |r| Cell::Int(r.reps)),
    ("seed", |r| Cell::Int(r.seed)),
    ("mean_completion", |r| r.stat(r.mean_completion).into()),
    ("ci95", |r| r.stat(r.ci95).into()),
    ("sd_completion", |r| r.stat(r.sd_completion).into()),
    ("mean_failures", |r| r.stat(r.mean_failures).into()),
    ("sd_failures", |r| r.stat(r.sd_failures).into()),
    ("mean_tasks_shipped", |r| {
        r.stat(r.mean_tasks_shipped).into()
    }),
    ("sd_tasks_shipped", |r| r.stat(r.sd_tasks_shipped).into()),
    ("incomplete", |r| Cell::Int(r.incomplete)),
];

/// With the Eq. 4 theory joined; empty where the model does not cover the
/// point and policy.
const THEORY_COLUMNS: [Column; 2] = [
    ("theory_mean", |r| r.theory_mean.into()),
    ("mc_minus_theory", |r| {
        r.mc_minus_theory.and_then(|d| r.stat(d)).into()
    }),
];

/// With two or more policies. Quarantine can leave no replication
/// surviving on both sides of a pair; such a row has no delta.
const PAIRED_COLUMNS: [Column; 3] = [
    ("delta_mean", |r| r.delta.map(|d| d.mean_delta).into()),
    ("delta_sd", |r| r.delta.map(|d| d.sd_delta).into()),
    ("delta_ci95", |r| r.delta.map(|d| d.ci95_half_width).into()),
];

/// With `--metrics full`: the run counters, as means per replication.
const COUNTER_COLUMNS: [Column; 7] = [
    ("mean_recoveries", |r| r.stat(r.mean_recoveries).into()),
    ("mean_transfers", |r| r.stat(r.mean_transfers).into()),
    ("mean_tasks_clamped", |r| {
        r.stat(r.mean_tasks_clamped).into()
    }),
    ("mean_transit_task_seconds", |r| {
        r.stat(r.mean_transit_task_seconds).into()
    }),
    ("mean_tasks_lost", |r| r.stat(r.mean_tasks_lost).into()),
    ("mean_retries", |r| r.stat(r.mean_retries).into()),
    ("mean_bounces", |r| r.stat(r.mean_bounces).into()),
];

/// With `--metrics full` and probing: the merged histogram quantiles.
const QUANTILE_COLUMNS: [Column; 8] = [
    ("queue_p50", |r| r.quantile(&r.telemetry.queue_hist, 0.5)),
    ("queue_p99", |r| r.quantile(&r.telemetry.queue_hist, 0.99)),
    ("transfer_us_p50", |r| {
        r.quantile(&r.telemetry.transfer_delay_us, 0.5)
    }),
    ("transfer_us_p99", |r| {
        r.quantile(&r.telemetry.transfer_delay_us, 0.99)
    }),
    ("downtime_us_p50", |r| {
        r.quantile(&r.telemetry.downtime_us, 0.5)
    }),
    ("downtime_us_p99", |r| {
        r.quantile(&r.telemetry.downtime_us, 0.99)
    }),
    ("retry_us_p50", |r| {
        r.quantile(&r.telemetry.retry_delay_us, 0.5)
    }),
    ("retry_us_p99", |r| {
        r.quantile(&r.telemetry.retry_delay_us, 0.99)
    }),
];

/// A consumer of experiment rows. Rows arrive in `(grid point, policy)`
/// order as cells complete; `begin` always precedes the first row and
/// `finish` follows the last (when the run succeeds).
pub trait RowSink {
    /// Announces the schema before any row.
    ///
    /// # Errors
    /// An error aborts the experiment before it starts executing.
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        let _ = schema;
        Ok(())
    }

    /// Consumes one row.
    ///
    /// # Errors
    /// An error aborts the remaining grid (workers stop claiming tasks).
    fn row(&mut self, row: &ExperimentRow) -> Result<(), String>;

    /// Receives the per-replication probe reports of a row (replication
    /// order, immediately after [`RowSink::row`] for the same row). Only
    /// called when probing is armed; the default implementation ignores
    /// them, so probe-oblivious sinks keep their exact bytes.
    ///
    /// # Errors
    /// An error aborts the remaining grid, like a `row` error.
    fn probes(&mut self, row: &ExperimentRow, reports: &[ProbeReport]) -> Result<(), String> {
        let _ = (row, reports);
        Ok(())
    }

    /// Flushes after the last row.
    ///
    /// # Errors
    /// Propagated to the experiment's caller.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

// ---- renderers ---------------------------------------------------------

/// One typed cell of an output row.
#[derive(Clone, Copy)]
enum Cell<'a> {
    /// User text: RFC 4180-quoted in CSV, an escaped string in JSON.
    Text(&'a str),
    /// An exact count.
    Int(u64),
    /// A float, in [`fnum`]'s shortest round-trip form.
    Num(f64),
    /// No value: an empty CSV field, a JSON `null`.
    Absent,
}

impl From<Option<f64>> for Cell<'_> {
    fn from(x: Option<f64>) -> Self {
        x.map_or(Self::Absent, Self::Num)
    }
}

impl From<Option<u64>> for Cell<'_> {
    fn from(x: Option<u64>) -> Self {
        x.map_or(Self::Absent, Self::Int)
    }
}

impl Cell<'_> {
    fn push_csv(self, out: &mut String) {
        match self {
            Self::Text(s) => out.push_str(&csv_field(s)),
            Self::Int(n) => out.push_str(&n.to_string()),
            Self::Num(x) => out.push_str(&fnum(x)),
            Self::Absent => {}
        }
    }

    fn push_json(self, out: &mut String) {
        match self {
            Self::Text(s) => out.push_str(&json_string(s)),
            Self::Absent => out.push_str("null"),
            number => number.push_csv(out),
        }
    }
}

/// A machine-readable row format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// A header line, then one comma-separated line per row.
    Csv,
    /// One JSON object per row, no header.
    Jsonl,
}

impl OutputFormat {
    fn name(self) -> &'static str {
        match self {
            Self::Csv => "CSV",
            Self::Jsonl => "JSONL",
        }
    }

    /// Appends what precedes the first row: the CSV header line (column
    /// names only, no row needed); nothing for JSON lines.
    fn push_header(self, out: &mut String, schema: &ExperimentSchema) {
        if self == Self::Jsonl {
            return;
        }
        let mut sep = "";
        ExperimentRow::columns(schema, None, |name, _| {
            out.push_str(sep);
            out.push_str(name);
            sep = ",";
        });
        out.push('\n');
    }

    /// Appends one line (with trailing newline) for `row` under `schema`.
    fn push_row(self, out: &mut String, schema: &ExperimentSchema, row: &ExperimentRow) {
        let mut sep = "";
        match self {
            Self::Csv => {
                ExperimentRow::columns(schema, Some(row), |_, cell| {
                    out.push_str(sep);
                    cell.push_csv(out);
                    sep = ",";
                });
                out.push('\n');
            }
            Self::Jsonl => {
                out.push('{');
                ExperimentRow::columns(schema, Some(row), |name, cell| {
                    out.push_str(sep);
                    out.push('"');
                    out.push_str(name);
                    out.push_str("\":");
                    cell.push_json(out);
                    sep = ",";
                });
                // Degraded rows carry an explicit marker; clean rows keep
                // their pre-quarantine bytes exactly.
                if row.quarantined > 0 {
                    out.push_str(&format!(",\"quarantined\":{}", row.quarantined));
                }
                out.push_str("}\n");
            }
        }
    }
}

/// Formats a float for machine-readable output: Rust's shortest
/// round-trip representation, so equal numbers always yield equal bytes.
pub(crate) fn fnum(x: f64) -> String {
    format!("{x:?}")
}

/// RFC 4180 field quoting: wraps fields containing separators, quotes or
/// line breaks, doubling embedded quotes. Scenario names are user data.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// JSON string escaping for user data (quotes, backslashes, controls).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One probe-tick JSON line (with trailing newline) for `--probe-out`:
/// the fleet aggregates of one tick of one replication, keyed by
/// `(scenario, point, policy, rep, time)`. Emitted in
/// `(grid point, policy, replication, tick)` order, so the file is a pure
/// function of the experiment spec — bit-identical for any thread count.
#[must_use]
pub fn probe_jsonl_row(
    scenario: &str,
    point: usize,
    policy: &str,
    rep: usize,
    s: &churnbal_cluster::ProbeSample,
) -> String {
    let mut out = format!(
        "{{\"scenario\":{},\"point\":{point},\"policy\":{},\"rep\":{rep},\
         \"time\":{:?},\"up\":{},\"queue_total\":{},\"queue_max\":{},\
         \"queue_p50\":{},\"queue_p99\":{},\"in_transit\":{},\
         \"failures\":{},\"transfers\":{}",
        json_string(scenario),
        json_string(policy),
        s.time,
        s.up_nodes,
        s.queue_total,
        s.queue_max,
        s.queue_p50,
        s.queue_p99,
        s.in_transit,
        s.failures,
        s.transfers,
    );
    // Only lossy channels can dead-letter; a reliable run's telemetry
    // stream keeps its pre-channel bytes exactly (absent means 0).
    if s.tasks_lost > 0 {
        out.push_str(&format!(",\"tasks_lost\":{}", s.tasks_lost));
    }
    out.push_str("}\n");
    out
}

// ---- sinks -------------------------------------------------------------

/// Streams rows to any writer in one [`OutputFormat`]: the CSV header at
/// `begin`, then each row's line written and flushed as its cell
/// completes, so a long grid's finished rows are on disk while later
/// points still run.
pub struct LineSink<W: Write> {
    out: W,
    format: OutputFormat,
    schema: Option<ExperimentSchema>,
    /// The line being rendered, reused across rows.
    line: String,
}

impl<W: Write> LineSink<W> {
    /// Wraps a writer.
    pub fn new(out: W, format: OutputFormat) -> Self {
        Self {
            out,
            format,
            schema: None,
            line: String::new(),
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RowSink for LineSink<W> {
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        self.line.clear();
        self.format.push_header(&mut self.line, schema);
        self.out
            .write_all(self.line.as_bytes())
            .map_err(|e| format!("cannot write {} header: {e}", self.format.name()))?;
        self.schema = Some(schema.clone());
        Ok(())
    }

    fn row(&mut self, row: &ExperimentRow) -> Result<(), String> {
        let schema = self.schema.as_ref().expect("begin precedes rows");
        self.line.clear();
        self.format.push_row(&mut self.line, schema, row);
        self.out
            .write_all(self.line.as_bytes())
            .and_then(|()| self.out.flush())
            .map_err(|e| format!("cannot write {} row: {e}", self.format.name()))
    }

    fn finish(&mut self) -> Result<(), String> {
        self.out
            .flush()
            .map_err(|e| format!("cannot flush {} output: {e}", self.format.name()))
    }
}

/// Buffers every row in memory — what table renderers and tests want.
#[derive(Default)]
pub struct CollectSink {
    /// The announced schema.
    pub schema: Option<ExperimentSchema>,
    /// All rows, in `(point, policy)` order.
    pub rows: Vec<ExperimentRow>,
}

impl CollectSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl RowSink for CollectSink {
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        self.schema = Some(schema.clone());
        Ok(())
    }

    fn row(&mut self, row: &ExperimentRow) -> Result<(), String> {
        self.rows.push(row.clone());
        Ok(())
    }
}

/// A fully collected experiment: schema plus every row.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Column layout.
    pub schema: ExperimentSchema,
    /// All rows, in `(point, policy)` order.
    pub rows: Vec<ExperimentRow>,
}

impl ExperimentResult {
    /// Renders the whole result as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.render(OutputFormat::Csv)
    }

    /// Renders the whole result as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.render(OutputFormat::Jsonl)
    }

    fn render(&self, format: OutputFormat) -> String {
        let mut out = String::new();
        format.push_header(&mut out, &self.schema);
        for row in &self.rows {
            format.push_row(&mut out, &self.schema, row);
        }
        out
    }
}

/// CRN pairing of two cells' slot-stable completion-time vectors, honest
/// under quarantine: replication `r` contributes only when it survived on
/// **both** sides (a quarantined slot holds a placeholder zero, and
/// pairing it would corrupt the delta). Returns `None` when no
/// replication survived on both sides — renderers show empty cells /
/// `null`s / `-` for such rows. With no quarantine anywhere (the normal
/// case) this is exactly the full-vector pairing, byte for byte.
fn paired_delta(
    times: &[f64],
    quarantined: &[u64],
    base_times: &[f64],
    base_quarantined: &[u64],
) -> Option<PairedDelta> {
    if quarantined.is_empty() && base_quarantined.is_empty() {
        return Some(paired_comparison(times, base_times));
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in 0..times.len().min(base_times.len()) {
        let r64 = r as u64;
        if !quarantined.contains(&r64) && !base_quarantined.contains(&r64) {
            xs.push(times[r]);
            ys.push(base_times[r]);
        }
    }
    (!xs.is_empty()).then(|| paired_comparison(&xs, &ys))
}

/// Sample standard deviation (n − 1 denominator; 0 for n < 2).
fn sample_sd(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = xs.clone().count();
    if n < 2 {
        return 0.0;
    }
    let mean = xs.clone().sum::<f64>() / n as f64;
    let ss: f64 = xs.map(|x| (x - mean) * (x - mean)).sum();
    (ss / (n - 1) as f64).sqrt()
}

// ---- execution ---------------------------------------------------------

/// A validated, runnable experiment.
#[derive(Clone, Debug)]
pub struct Experiment {
    spec: ExperimentSpec,
}

impl Experiment {
    /// Wraps a spec (validation happens in [`Experiment::run`], where the
    /// grid is expanded and every point's policies are checked up front).
    #[must_use]
    pub fn new(spec: ExperimentSpec) -> Self {
        Self { spec }
    }

    /// The spec this experiment runs.
    #[must_use]
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Collects the whole experiment in memory — the buffered convenience
    /// form of [`Experiment::run`].
    ///
    /// # Errors
    /// Same conditions as [`Experiment::run`].
    pub fn collect(&self) -> Result<ExperimentResult, String> {
        let mut sink = CollectSink::new();
        let schema = self.run(&mut sink)?;
        Ok(ExperimentResult {
            schema,
            rows: sink.rows,
        })
    }

    /// Runs the **base point** of the spec's scenario (axes ignored)
    /// under its first policy — or the scenario's own policy when the set
    /// is empty — and returns the raw Monte-Carlo estimate with every
    /// per-replication vector. Rendered output goes through
    /// [`Experiment::run`] instead.
    ///
    /// # Errors
    /// Propagates scenario/policy validation failures.
    pub fn estimate(&self) -> Result<McEstimate, String> {
        let spec = &self.spec;
        let mut base = spec.scenario.clone();
        base.axes.clear();
        let mut plan = self.plan(&base, &[], &spec.policies[..spec.policies.len().min(1)])?;
        let (threads, chunk) = (spec.options.threads, spec.options.chunk);
        cells::run(plan.runs(), None, threads, chunk, |_, _, _| Ok(()))?;
        Ok(McEstimate::from_point_stats(std::mem::take(
            &mut plan.cells[0].stats,
        )))
    }

    /// The cells of `scenario` over `axes` × `policies` under this
    /// experiment's options: each point runs a fixed number of
    /// replications.
    fn plan(
        &self,
        scenario: &Scenario,
        axes: &[Axis],
        policies: &[PolicyEntry],
    ) -> Result<Plan, String> {
        let options = self.spec.options;
        Plan::new(scenario, axes, policies, options.seed, |point| {
            (
                StoppingRule::fixed(options.effective_reps(point).max(1)),
                SimOptions {
                    deadline: point.deadline,
                    backend: options.backend,
                    probe_dt: options.effective_probe_dt(point),
                    task_timeout: options.task_timeout,
                    audit: options.audit,
                    ..SimOptions::default()
                },
            )
        })
    }

    /// Executes the experiment, streaming rows to `sink` in
    /// `(grid point, policy)` order as cells complete. One scheduler pass
    /// covers the entire `grid × policy set × replication` space; output
    /// bytes are bit-identical for any `threads` / `chunk` value.
    ///
    /// # Errors
    /// Propagates grid-expansion and validation failures, and anything
    /// the sink returns.
    pub fn run(&self, sink: &mut dyn RowSink) -> Result<ExperimentSchema, String> {
        self.run_with_report(sink).map(|(schema, _)| schema)
    }

    /// [`Experiment::run`] plus the scheduler's runtime instrumentation:
    /// per-worker task/chunk/event counts and wall-clock throughput
    /// ([`ExecReport`]; a quarantine's `point` is its cell's index,
    /// point-major). The report is observational — wall times depend on
    /// the machine — while the rows stay bit-deterministic.
    ///
    /// # Errors
    /// Same conditions as [`Experiment::run`].
    pub fn run_with_report(
        &self,
        sink: &mut dyn RowSink,
    ) -> Result<(ExperimentSchema, ExecReport), String> {
        let spec = &self.spec;
        let mut plan = self.plan(&spec.scenario, &spec.axes, &spec.policies)?;

        // Join the Eq. 4 theory means (cheap: one lattice per distinct
        // two-node system, memoised), one per cell.
        let theory: Vec<Option<f64>> = if spec.theory {
            let mut cache = TheoryCache::new();
            plan.cells
                .iter()
                .map(|cell| {
                    let point = &plan.points[cell.point];
                    cache.eq4_mean(&point.scenario, &point.config, &cell.spec)
                })
                .collect()
        } else {
            vec![None; plan.cells.len()]
        };
        let probe = plan.points.iter().any(|p| p.options.probe_dt.is_some());

        let k = plan.labels.len();
        if spec.baseline >= k {
            return Err(format!(
                "baseline index {} out of range for {k} policies",
                spec.baseline
            ));
        }
        let schema = ExperimentSchema {
            scenario: spec.scenario.name.clone(),
            axes: plan
                .points
                .first()
                .map(|p| p.coords.iter().map(|&(a, _)| a).collect())
                .unwrap_or_default(),
            points: plan.points.len(),
            policies: plan.labels.clone(),
            baseline: spec.baseline,
            theory: spec.theory,
            paired: k > 1,
            metrics_full: spec.options.metrics_full,
            probe,
        };
        if let Some(dir) = &spec.cache {
            if probe {
                return Err(ScenarioError {
                    scenario: spec.scenario.name.clone(),
                    kind: ScenarioErrorKind::CacheWithProbing,
                }
                .into());
            }
            cells::replay([&mut plan], dir)?;
        }
        sink.begin(&schema)?;

        let emit = |sink: &mut dyn RowSink,
                    row: &ExperimentRow,
                    probes: &[ProbeReport]|
         -> Result<(), String> {
            sink.row(row)?;
            if probe {
                sink.probes(row, probes)?;
            }
            Ok(())
        };
        let b = spec.baseline;
        // The current point's baseline cell, as pairing inputs: its
        // *slot-stable* per-replication times (placeholder zeros
        // included) and quarantined slots, captured before
        // `McEstimate::from_point_stats` drops them. CRN pairing must
        // align replication r with replication r, so slots — not the
        // compacted vectors — are what gets paired.
        let mut baseline: (Vec<f64>, Vec<u64>) = (Vec::new(), Vec::new());
        // Cells arrive in policy order; rows of the current point that
        // precede its baseline cell wait here for it.
        let mut held = Vec::new();
        let report = cells::run(
            plan.runs(),
            spec.cache.as_deref(),
            spec.options.threads,
            spec.options.chunk,
            |j, point, cell| {
                let stats = std::mem::take(&mut cell.stats);
                let slots = schema.paired.then(|| {
                    (
                        stats.completion_times.clone(),
                        stats.quarantined_reps.clone(),
                    )
                });
                let est = McEstimate::from_point_stats(stats);
                // Cross-replication histogram aggregation: exact integer
                // bucket adds, so the merge order cannot matter.
                let mut telemetry = ProbeReport::default();
                for report in &est.probes {
                    telemetry.merge_telemetry(report);
                }
                let v = cell.policy;
                let theory_mean = theory[j];
                let row = ExperimentRow {
                    index: point.index,
                    coords: point.coords.clone(),
                    policy_index: v,
                    policy: schema.policies[v].clone(),
                    // Quarantined replications are excluded from every
                    // statistic, so the row honestly reports the surviving
                    // sample size (and flags the loss in `quarantined`).
                    reps: est.completion_times.len() as u64,
                    seed: cell.seed,
                    mean_completion: est.mean(),
                    ci95: est.ci95(),
                    sd_completion: sample_sd(est.completion_times.iter().copied()),
                    mean_failures: est.mean_failures,
                    sd_failures: sample_sd(est.failures_per_rep.iter().map(|&x| x as f64)),
                    mean_tasks_shipped: est.mean_tasks_shipped,
                    sd_tasks_shipped: sample_sd(
                        est.tasks_shipped_per_rep.iter().map(|&x| x as f64),
                    ),
                    incomplete: est.incomplete,
                    quarantined: est.quarantined,
                    theory_mean,
                    mc_minus_theory: theory_mean.map(|t| est.mean() - t),
                    delta: None,
                    mean_recoveries: est.mean_recoveries,
                    mean_transfers: est.mean_transfers,
                    mean_tasks_clamped: est.mean_tasks_clamped,
                    mean_transit_task_seconds: est.mean_transit_task_seconds,
                    mean_tasks_lost: est.mean_tasks_lost,
                    mean_retries: est.mean_retries,
                    mean_bounces: est.mean_bounces,
                    telemetry,
                };
                let Some(slots) = slots else {
                    return emit(sink, &row, &est.probes);
                };
                if v == b {
                    baseline.clone_from(&slots);
                }
                held.push((row, est.probes, slots));
                if v < b {
                    return Ok(());
                }
                for (mut row, probes, (times, quarantined)) in held.drain(..) {
                    row.delta = paired_delta(&times, &quarantined, &baseline.0, &baseline.1);
                    emit(sink, &row, &probes)?;
                }
                Ok(())
            },
        )?;
        sink.finish()?;
        Ok((schema, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn quick(reps: u64, threads: usize) -> RunOptions {
        RunOptions {
            reps: Some(reps),
            threads,
            ..RunOptions::default()
        }
    }

    fn compare_fig3(reps: u64, threads: usize) -> ExperimentResult {
        let scenario = registry::get("paper-fig3").expect("preset");
        let policies = ["lbp1", "lbp2", "none"]
            .iter()
            .map(|name| {
                PolicyEntry::named(
                    (*name).to_string(),
                    PolicySpec::parse(name, &scenario.policy).expect("parses"),
                )
            })
            .collect();
        Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            policies,
            quick(reps, threads),
        ))
        .collect()
        .expect("compare runs")
    }

    #[test]
    fn compare_shares_random_numbers_across_policies() {
        // `none` vs `none`: identical trajectories, so every delta is 0
        // with a zero-width CI — CRN pairing at work.
        let scenario = registry::get("cascading-failures").expect("preset");
        let policies = vec![
            PolicyEntry::named("a", PolicySpec::NoBalancing),
            PolicyEntry::named("b", PolicySpec::NoBalancing),
        ];
        let result = Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            policies,
            quick(6, 3),
        ))
        .collect()
        .expect("runs");
        assert_eq!(result.rows.len(), 2);
        let (a, b) = (&result.rows[0], &result.rows[1]);
        assert_eq!(a.mean_completion, b.mean_completion);
        let d = b.delta.expect("paired");
        assert_eq!(d.mean_delta, 0.0);
        assert_eq!(d.sd_delta, 0.0);
        assert_eq!(d.ci95_half_width, 0.0);
    }

    #[test]
    fn compare_fig3_emits_theory_and_paired_deltas() {
        let result = compare_fig3(4, 2);
        // 21 gain values × 3 policies.
        assert_eq!(result.rows.len(), 63);
        assert_eq!(
            result.schema.policies,
            vec!["lbp1".to_string(), "lbp2".into(), "none".into()]
        );
        for rows in result.rows.chunks(3) {
            let (lbp1, lbp2, none) = (&rows[0], &rows[1], &rows[2]);
            assert_eq!(lbp1.policy_index, 0);
            // The baseline delta is identically zero; the others are
            // genuine paired stats.
            let d0 = lbp1.delta.expect("paired");
            assert_eq!(
                (d0.mean_delta, d0.sd_delta, d0.ci95_half_width),
                (0.0, 0.0, 0.0)
            );
            let dn = none.delta.expect("paired");
            assert!(
                (dn.mean_delta - (none.mean_completion - lbp1.mean_completion)).abs() < 1e-9,
                "delta mean must equal the difference of means"
            );
            // Theory: Eq. 4 covers lbp1 and none, not LBP-2's
            // failure-compensated dynamics.
            assert!(lbp1.theory_mean.is_some());
            assert!(none.theory_mean.is_some());
            assert!(lbp2.theory_mean.is_none());
            let t = lbp1.theory_mean.expect("some");
            let gap = lbp1.mc_minus_theory.expect("some");
            assert!((gap - (lbp1.mean_completion - t)).abs() < 1e-12);
            // `none` ignores the gain axis: identical trajectories at
            // every gain (checked below against the first chunk).
        }
        // The gainless baseline is flat across the gain axis.
        let none_means: Vec<f64> = result
            .rows
            .iter()
            .filter(|r| r.policy == "none")
            .map(|r| r.mean_completion)
            .collect();
        assert!(none_means.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn compare_output_is_thread_and_chunk_invariant() {
        let reference = compare_fig3(3, 1).to_csv();
        assert_eq!(reference, compare_fig3(3, 4).to_csv());
        assert_eq!(reference, compare_fig3(3, 7).to_csv());
    }

    #[test]
    fn compare_rows_match_independent_single_policy_sweeps() {
        // The CRN contract: policy k's rows in a comparison are
        // bit-identical to a single-policy experiment of the same
        // scenario with that policy swapped in.
        let scenario = registry::get("paper-delay-crossover").expect("preset");
        let names = ["lbp2", "upon-failure-only", "none"];
        let policies: Vec<PolicyEntry> = names
            .iter()
            .map(|n| {
                PolicyEntry::named(
                    (*n).to_string(),
                    PolicySpec::parse(n, &scenario.policy).expect("parses"),
                )
            })
            .collect();
        let combined = Experiment::new(ExperimentSpec::compare(
            scenario.clone(),
            Vec::new(),
            policies.clone(),
            quick(5, 3),
        ))
        .collect()
        .expect("compare runs");
        for (v, entry) in policies.iter().enumerate() {
            let mut solo_scenario = scenario.clone();
            solo_scenario.policy = entry.spec.clone();
            let solo = Experiment::new(ExperimentSpec::sweep(
                solo_scenario,
                Vec::new(),
                quick(5, 1),
            ))
            .collect()
            .expect("solo runs");
            let compare_rows: Vec<&ExperimentRow> = combined
                .rows
                .iter()
                .filter(|r| r.policy_index == v)
                .collect();
            assert_eq!(compare_rows.len(), solo.rows.len());
            for (c, s) in compare_rows.iter().zip(&solo.rows) {
                assert_eq!(c.index, s.index);
                assert_eq!(c.mean_completion, s.mean_completion, "{}", entry.label);
                assert_eq!(c.sd_completion, s.sd_completion);
                assert_eq!(c.mean_failures, s.mean_failures);
                assert_eq!(c.incomplete, s.incomplete);
            }
        }
    }

    #[test]
    fn csv_and_jsonl_carry_the_extra_columns() {
        let result = compare_fig3(2, 2);
        let csv = result.to_csv();
        let header = csv.lines().next().expect("header");
        assert!(
            header
                .ends_with("incomplete,theory_mean,mc_minus_theory,delta_mean,delta_sd,delta_ci95"),
            "{header}"
        );
        // An out-of-domain theory cell is empty, not 0.
        let lbp2_line = csv.lines().nth(2).expect("lbp2 row");
        assert!(lbp2_line.contains(",lbp2,"), "{lbp2_line}");
        let jsonl = result.to_jsonl();
        let lbp2_json = jsonl.lines().nth(1).expect("lbp2 row");
        assert!(lbp2_json.contains("\"theory_mean\":null"), "{lbp2_json}");
        assert!(lbp2_json.contains("\"delta_mean\":"), "{lbp2_json}");
        let lbp1_json = jsonl.lines().next().expect("lbp1 row");
        assert!(!lbp1_json.contains("null"), "{lbp1_json}");
    }

    #[test]
    fn sink_errors_abort_the_run() {
        struct Failing(usize);
        impl RowSink for Failing {
            fn row(&mut self, _row: &ExperimentRow) -> Result<(), String> {
                self.0 += 1;
                if self.0 == 2 {
                    Err("disk full".into())
                } else {
                    Ok(())
                }
            }
        }
        let scenario = registry::get("paper-fig5").expect("preset");
        let policies = vec![
            PolicyEntry::from_spec(PolicySpec::NoBalancing),
            PolicyEntry::from_spec(PolicySpec::UponFailureOnly),
            PolicyEntry::from_spec(PolicySpec::Lbp2 { gain: 1.0 }),
        ];
        let mut sink = Failing(0);
        let err = Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            policies,
            quick(2, 1),
        ))
        .run(&mut sink)
        .unwrap_err();
        assert_eq!(err, "disk full");
        assert_eq!(sink.0, 2, "the run must stop at the failing row");
    }

    #[test]
    fn gain_axis_on_an_all_gainless_comparison_still_errors_usefully() {
        // The *scenario's* policy carries the axis through expansion, so a
        // gain axis on a gainless scenario policy errors exactly as the
        // legacy sweep did.
        let mut scenario = registry::get("paper-fig3").expect("preset");
        scenario.policy = PolicySpec::NoBalancing;
        let err = Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            vec![PolicyEntry::from_spec(PolicySpec::NoBalancing)],
            quick(2, 1),
        ))
        .collect()
        .unwrap_err();
        assert!(err.contains("no gain parameter"), "{err}");
    }

    #[test]
    fn sample_sd_matches_hand_computation() {
        assert_eq!(sample_sd([].iter().copied()), 0.0);
        assert_eq!(sample_sd([4.0].iter().copied()), 0.0);
        let sd = sample_sd([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied());
        assert!((sd - 2.138_089_935_299_395).abs() < 1e-12, "{sd}");
    }
}
