//! The campaign engine: a directory of experiment specs executed as one
//! unit, with adaptive sequential stopping and a content-addressed
//! per-cell result cache.
//!
//! A *campaign* mirrors the `experiments/001/var-*` layout of larger
//! simulation studies: a directory holds one TOML spec per figure or
//! table, each spec names one or more scenarios plus a policy set and
//! sweep axes, and the whole directory runs as a single
//! `churnbal-lab campaign run <dir>` invocation. Three properties make
//! campaigns cheap to iterate on:
//!
//! * **Content-addressed cells.** The unit of work is a *cell* — one
//!   `(resolved grid point, policy)` pair. Every cell is keyed by an
//!   FNV-1a digest of its fully-resolved inputs (the point scenario's
//!   TOML, grid coordinates, policy, seed and stopping rule), and its
//!   accumulated replications live in `<dir>/cache/<digest>.cell.jsonl`
//!   (see [`crate::cache`] — the same store `run --cache` uses). Cells
//!   are planned, replayed, run and stored by the lab's one cell runner,
//!   the path `run` / `sweep` / `compare` take too; this module keeps
//!   spec parsing, the rounds, the verdicts, the CSV and the report.
//!   Re-running a campaign recomputes only cells whose inputs changed;
//!   an interrupted run resumes for free, and a fully warm re-run
//!   performs **zero** simulations yet emits byte-identical CSV.
//! * **Adaptive sequential stopping.** Replications run in deterministic
//!   rounds — a first batch of `r0`, then doubling (`n` more when `n`
//!   are done) — until the t-based 95% confidence half-width of the
//!   mean completion time falls under the spec's `tolerance`, or
//!   `max_reps` caps the cell. Stopping is evaluated only at round
//!   barriers on the merged per-replication vector, so every cell's
//!   final replication count is **bit-identical across `--threads` and
//!   `--chunk`**.
//! * **Antithetic pairing (opt-in).** With `antithetic = true` in
//!   `[stopping]`, global replication `2k+1` runs on the mirrored
//!   streams of replication `2k` (every uniform maps `u ↦ ≈ 1 − u`; see
//!   [`churnbal_cluster::exec::PointJob::antithetic`]) — classic variance
//!   reduction that typically reaches tolerance in fewer replications on
//!   monotone metrics.
//!
//! Campaign spec files sit **directly** in the campaign directory (every
//! `*.toml` there is a spec); scenario files they reference live in
//! subdirectories (or the registry) so the two never collide:
//!
//! ```toml
//! # experiments/001/var-gain.toml
//! scenarios = ["paper-fig5", "scenarios/two-node-slow.toml"]
//! policies = ["lbp1-optimal", "none"]
//! axis = ["gain=0.1:0.9:0.4"]
//!
//! [stopping]
//! tolerance = 0.5
//! r0 = 8
//! max_reps = 512
//!
//! [fields]
//! figure = "5"
//! ```
//!
//! `campaign run` writes `<dir>/out/<spec>.csv` once every cell of a
//! spec has finished; `campaign status` summarises progress; `report`
//! renders the finished campaign as markdown tables.

use std::fs;
use std::path::{Path, PathBuf};

use churnbal_cluster::SimOptions;
use churnbal_stochastic::OnlineStats;

use crate::cache::write_atomic;
use crate::cells::{self, Cell, Plan};
use crate::cli::{load_scenario, parse_axis, parse_policies};
use crate::experiment::{csv_field, fnum};
use crate::registry;
use crate::scenario::Scenario;
use crate::sweep::Axis;
use crate::toml::{Doc, Value};

/// Default first-round batch.
const DEFAULT_R0: u64 = 4;
/// Default replication cap.
const DEFAULT_MAX_REPS: u64 = 1024;

/// The sequential-stopping rule of one campaign spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoppingRule {
    /// Target 95% confidence half-width of the mean completion time.
    pub tolerance: f64,
    /// First-round batch size (replications before the first check).
    pub r0: u64,
    /// Hard replication cap; a cell that reaches it without meeting
    /// `tolerance` finishes *capped* (`converged = 0` in the CSV).
    pub max_reps: u64,
    /// Antithetic replication pairing (see the module docs). Requires
    /// even `r0` and `max_reps` so rounds never split a mirror pair.
    pub antithetic: bool,
}

/// What a cell's accumulated replications say at a round barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellVerdict {
    /// Needs more replications.
    Pending,
    /// Half-width is within tolerance.
    Converged,
    /// Hit `max_reps` without meeting tolerance.
    Capped,
}

impl StoppingRule {
    /// The fixed-replication rule `r0 = max_reps = reps`: one round of
    /// exactly `reps` replications. It keys the cells of `run` / `sweep`
    /// / `compare --cache`, which therefore share the campaign cache.
    #[must_use]
    pub(crate) fn fixed(reps: u64) -> Self {
        Self {
            tolerance: f64::INFINITY,
            r0: reps,
            max_reps: reps,
            antithetic: false,
        }
    }

    /// The verdict for a cell with `n` accumulated replications whose
    /// metric half-width is `halfwidth`.
    #[must_use]
    pub fn verdict(&self, n: u64, halfwidth: f64) -> CellVerdict {
        if n >= self.r0 && halfwidth <= self.tolerance {
            CellVerdict::Converged
        } else if n >= self.max_reps {
            CellVerdict::Capped
        } else {
            CellVerdict::Pending
        }
    }

    /// The next round's batch for a cell with `n` replications done:
    /// `r0` first, then doubling, clamped to the cap.
    #[must_use]
    pub fn next_batch(&self, n: u64) -> u64 {
        if n == 0 {
            self.r0.min(self.max_reps)
        } else {
            n.min(self.max_reps.saturating_sub(n))
        }
    }
}

/// One parsed campaign spec file.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Spec name: the `name` key, defaulting to the file stem. Names the
    /// output CSV, so it is restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    /// Resolved scenarios, in file order.
    pub scenarios: Vec<Scenario>,
    /// Raw `--policies`-style tokens (resolved against each scenario's
    /// own policy template). Empty = each scenario's own policy.
    pub policy_tokens: Vec<String>,
    /// Extra sweep axes on top of each scenario's baked-in ones.
    pub axes: Vec<Axis>,
    /// The stopping rule shared by every cell of the spec.
    pub stopping: StoppingRule,
    /// Extra constant CSV columns from `[fields]`, sorted by key.
    pub fields: Vec<(String, String)>,
    /// Master-seed override (like `--seed`); `None` = scenario seeds.
    pub seed: Option<u64>,
}

/// The base CSV columns every campaign row carries (extra `[fields]`
/// keys must not collide with these).
const BASE_COLUMNS: [&str; 11] = [
    "spec",
    "scenario",
    "point",
    "coords",
    "policy",
    "reps",
    "mean",
    "sd",
    "ci95",
    "incomplete",
    "converged",
];

impl CampaignSpec {
    /// Parses one spec file. `stem` is the file name without `.toml`
    /// (the default spec name); `dir` anchors relative scenario paths.
    ///
    /// # Errors
    /// Unknown keys, missing/invalid `[stopping]`, unresolvable
    /// scenarios, malformed policy/axis tokens — all prefixed with the
    /// spec name.
    pub fn parse(text: &str, stem: &str, dir: &Path) -> Result<Self, String> {
        let doc = Doc::parse(text).map_err(|e| format!("spec `{stem}`: {e}"))?;
        let fail = |msg: String| format!("spec `{stem}`: {msg}");
        for (key, _) in doc.root.iter() {
            if !matches!(key, "name" | "scenarios" | "policies" | "axis" | "seed") {
                return Err(fail(format!(
                    "unknown key `{key}` (expected name, scenarios, policies, axis, seed)"
                )));
            }
        }
        for (table, _) in &doc.tables {
            if !matches!(table.as_str(), "stopping" | "fields") {
                return Err(fail(format!(
                    "unknown table `[{table}]` (expected [stopping], [fields])"
                )));
            }
        }
        if let Some((name, _)) = doc.arrays.first() {
            return Err(fail(format!("array tables are not allowed (`[[{name}]]`)")));
        }

        let name = match doc.root.get("name") {
            None => stem.to_string(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| fail("`name` must be a string".into()))?
                .to_string(),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(fail(format!(
                "`{name}` is not a valid spec name (use [A-Za-z0-9._-]; it names the output CSV)"
            )));
        }

        let str_list = |key: &str| -> Result<Vec<String>, String> {
            match doc.root.get(key) {
                None => Ok(Vec::new()),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| fail(format!("`{key}` must be an array of strings")))?
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| fail(format!("`{key}` must be an array of strings")))
                    })
                    .collect(),
            }
        };

        let scenario_names = str_list("scenarios")?;
        if scenario_names.is_empty() {
            return Err(fail(
                "`scenarios` must name at least one registry scenario or scenario file".into(),
            ));
        }
        let mut scenarios = Vec::with_capacity(scenario_names.len());
        for sname in &scenario_names {
            scenarios.push(resolve_scenario(sname, dir).map_err(&fail)?);
        }

        let policy_tokens = str_list("policies")?;
        let axes = str_list("axis")?
            .iter()
            .map(|token| parse_axis(token).map_err(&fail))
            .collect::<Result<Vec<Axis>, String>>()?;

        let seed = match doc.root.get("seed") {
            None => None,
            Some(v) => {
                let i = v
                    .as_int()
                    .ok_or_else(|| fail("`seed` must be an integer".into()))?;
                Some(u64::try_from(i).map_err(|_| fail("`seed` must be >= 0".into()))?)
            }
        };

        let stopping = parse_stopping(&doc, &fail)?;
        let fields = parse_fields(&doc, &fail)?;
        Ok(Self {
            name,
            scenarios,
            policy_tokens,
            axes,
            stopping,
            fields,
            seed,
        })
    }
}

/// Resolves a scenario reference: registry name first, then a file path
/// relative to the campaign directory.
fn resolve_scenario(name: &str, dir: &Path) -> Result<Scenario, String> {
    if registry::get(name).is_some() {
        return load_scenario(name);
    }
    let path = dir.join(name);
    if path.exists() {
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read scenario file `{}`: {e}", path.display()))?;
        let sc = Scenario::from_toml(&text).map_err(|e| format!("{name}: {e}"))?;
        sc.validate().map_err(|e| format!("{name}: {e}"))?;
        return Ok(sc);
    }
    Err(format!(
        "unknown scenario `{name}`: not a registry name, and `{}` does not exist",
        path.display()
    ))
}

fn parse_stopping(doc: &Doc, fail: &dyn Fn(String) -> String) -> Result<StoppingRule, String> {
    let Some(t) = doc.table("stopping") else {
        return Err(fail(
            "missing [stopping] table (at minimum: tolerance = ...)".into(),
        ));
    };
    for key in t.keys() {
        if !matches!(
            key,
            "metric" | "tolerance" | "r0" | "max_reps" | "antithetic"
        ) {
            return Err(fail(format!(
                "[stopping]: unknown key `{key}` (expected metric, tolerance, r0, max_reps, \
                 antithetic)"
            )));
        }
    }
    if let Some(v) = t.get("metric") {
        let m = v
            .as_str()
            .ok_or_else(|| fail("[stopping]: `metric` must be a string".into()))?;
        if m != "time" {
            return Err(fail(format!(
                "[stopping]: unknown metric `{m}` (only `time` — mean completion time — is \
                 supported)"
            )));
        }
    }
    let tolerance = t
        .get("tolerance")
        .ok_or_else(|| fail("[stopping]: `tolerance` is required".into()))?
        .as_f64()
        .ok_or_else(|| fail("[stopping]: `tolerance` must be a number".into()))?;
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(fail(
            "[stopping]: `tolerance` must be finite and > 0".into(),
        ));
    }
    let opt_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match t.get(key) {
            None => Ok(default),
            Some(v) => {
                let i = v
                    .as_int()
                    .ok_or_else(|| fail(format!("[stopping]: `{key}` must be an integer")))?;
                u64::try_from(i).map_err(|_| fail(format!("[stopping]: `{key}` must be >= 0")))
            }
        }
    };
    let r0 = opt_u64("r0", DEFAULT_R0)?;
    let max_reps = opt_u64("max_reps", DEFAULT_MAX_REPS)?;
    if r0 < 2 {
        return Err(fail(
            "[stopping]: `r0` must be >= 2 (a confidence interval needs two samples)".into(),
        ));
    }
    if max_reps < r0 {
        return Err(fail("[stopping]: `max_reps` must be >= r0".into()));
    }
    let antithetic = match t.get("antithetic") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| fail("[stopping]: `antithetic` must be a boolean".into()))?,
    };
    if antithetic && (r0 % 2 != 0 || max_reps % 2 != 0) {
        return Err(fail(
            "[stopping]: antithetic pairing needs even `r0` and `max_reps` (replications run \
             in mirrored pairs)"
                .into(),
        ));
    }
    Ok(StoppingRule {
        tolerance,
        r0,
        max_reps,
        antithetic,
    })
}

fn parse_fields(
    doc: &Doc,
    fail: &dyn Fn(String) -> String,
) -> Result<Vec<(String, String)>, String> {
    let Some(t) = doc.table("fields") else {
        return Ok(Vec::new());
    };
    let mut fields = Vec::with_capacity(t.len());
    for (key, value) in t.iter() {
        if BASE_COLUMNS.contains(&key) {
            return Err(fail(format!(
                "[fields]: `{key}` collides with a base CSV column"
            )));
        }
        let rendered = match value {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => fnum(*x),
            Value::Bool(b) => b.to_string(),
            Value::Array(_) => {
                return Err(fail(format!("[fields]: `{key}` must be a scalar")));
            }
        };
        fields.push((key.to_string(), rendered));
    }
    fields.sort();
    Ok(fields)
}

/// A cell's values for the columns of `BASE_COLUMNS` after `spec`, in
/// order: the one place that computes a row's coords, mean, sd,
/// half-width and verdict, for the CSV and the report alike.
fn row(
    plan: &Plan,
    cell: &Cell,
    rule: &StoppingRule,
    spelling: &Spelling,
) -> [String; BASE_COLUMNS.len() - 1] {
    let point = &plan.points[cell.point];
    let stats = OnlineStats::from_slice(&cell.stats.completion_times);
    let coords: Vec<String> = point
        .coords
        .iter()
        .map(|(param, value)| format!("{}={}", param.key(), fnum(*value)))
        .collect();
    let coords = if coords.is_empty() {
        spelling.no_coords.to_string()
    } else {
        coords.join(spelling.coords_sep)
    };
    let converged = cell.verdict(rule) == CellVerdict::Converged;
    [
        point.scenario.name.clone(),
        point.index.to_string(),
        coords,
        plan.labels[cell.policy].clone(),
        cell.n().to_string(),
        fnum(stats.mean()),
        fnum(stats.std_dev()),
        fnum(cell.halfwidth()),
        cell.stats.incomplete.to_string(),
        spelling.converged[usize::from(converged)].to_string(),
    ]
}

/// How a renderer spells the two campaign columns whose text differs
/// between the CSV and the report.
struct Spelling {
    /// Joins a cell's `key=value` coords.
    coords_sep: &'static str,
    /// The `coords` of a point without any.
    no_coords: &'static str,
    /// The `converged` column of a capped and of a converged cell.
    converged: [&'static str; 2],
}

const CSV_SPELLING: Spelling = Spelling {
    coords_sep: ";",
    no_coords: "",
    converged: ["0", "1"],
};

const REPORT_SPELLING: Spelling = Spelling {
    coords_sep: "; ",
    no_coords: "—",
    converged: ["capped", "yes"],
};

/// Execution knobs for [`Campaign::run`]. Result bytes and replication
/// counts do not depend on `threads` or `chunk`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignRunOptions {
    /// Worker threads per round (0 = auto).
    pub threads: usize,
    /// Scheduler chunk size (0 = auto).
    pub chunk: usize,
    /// Stop the invocation once this many cells finish *in it* (checked
    /// at round barriers, so interruption points are deterministic). The
    /// CI smoke test uses this to interrupt a campaign reproducibly.
    pub max_cells: Option<u64>,
}

/// What one [`Campaign::run`] invocation did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignRunReport {
    /// Round barriers executed (0 on a fully warm cache).
    pub rounds: u64,
    /// Replications actually simulated (0 on a fully warm cache).
    pub reps_run: u64,
    /// Total cells across all specs.
    pub cells_total: usize,
    /// Cells finished (converged or capped) as of return.
    pub cells_done: usize,
    /// Cells that finished during this invocation.
    pub cells_finished_now: usize,
    /// CSV files written (specs whose cells all finished).
    pub csv_paths: Vec<PathBuf>,
}

/// A loaded campaign: parsed specs, enumerated cells, cache state.
pub struct Campaign {
    dir: PathBuf,
    specs: Vec<CampaignSpec>,
    /// One plan per (spec, scenario), in spec then scenario order, with
    /// its spec's index: the cells of a spec in CSV row order (scenario,
    /// point, policy).
    plans: Vec<(usize, Plan)>,
}

impl Campaign {
    /// Loads a campaign directory: parses every `*.toml` spec (sorted by
    /// file name), enumerates cells, and warms each cell from its cache
    /// file when one exists.
    ///
    /// # Errors
    /// No specs, malformed specs, invalid policies/axes for a scenario,
    /// duplicate spec names, unreadable cache files.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut spec_files: Vec<PathBuf> = fs::read_dir(dir)
            .map_err(|e| format!("cannot read campaign dir `{}`: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "toml"))
            .collect();
        spec_files.sort();
        if spec_files.is_empty() {
            return Err(format!(
                "no campaign specs in `{}` (specs are *.toml files directly in the campaign \
                 directory)",
                dir.display()
            ));
        }
        let mut specs = Vec::with_capacity(spec_files.len());
        for path in &spec_files {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("spec")
                .to_string();
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            specs.push(CampaignSpec::parse(&text, &stem, dir)?);
        }
        for (i, spec) in specs.iter().enumerate() {
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(format!(
                    "duplicate spec name `{}` (spec names key the output CSVs)",
                    spec.name
                ));
            }
        }

        let mut plans = Vec::new();
        for (spec_idx, spec) in specs.iter().enumerate() {
            let fail = |e: String| format!("spec `{}`: {e}", spec.name);
            for scenario in &spec.scenarios {
                let entries = parse_policies(&spec.policy_tokens, scenario).map_err(fail)?;
                let plan = Plan::new(scenario, &spec.axes, &entries, spec.seed, |point| {
                    let options = SimOptions {
                        deadline: point.deadline,
                        ..SimOptions::default()
                    };
                    (spec.stopping, options)
                })
                .map_err(fail)?;
                plans.push((spec_idx, plan));
            }
        }
        cells::replay(plans.iter_mut().map(|(_, plan)| plan), &dir.join("cache"))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            specs,
            plans,
        })
    }

    fn csv_path(&self, spec: &CampaignSpec) -> PathBuf {
        self.dir.join("out").join(format!("{}.csv", spec.name))
    }

    /// The cells of spec `spec_idx` with their plans, in CSV row order.
    fn spec_cells(&self, spec_idx: usize) -> impl Iterator<Item = (&Plan, &Cell)> {
        self.plans
            .iter()
            .filter(move |(s, _)| *s == spec_idx)
            .flat_map(|(_, plan)| plan.cells.iter().map(move |cell| (plan, cell)))
    }

    /// How many cells of spec `spec_idx` are still pending.
    fn pending(&self, spec_idx: usize) -> usize {
        let rule = &self.specs[spec_idx].stopping;
        self.spec_cells(spec_idx)
            .filter(|(_, cell)| cell.verdict(rule) == CellVerdict::Pending)
            .count()
    }

    /// Runs the campaign to completion (or to `--max-cells`): rounds of
    /// replications over every pending cell, stopping checks at each
    /// round barrier, cache rewrite per cell per round, and a CSV per
    /// spec once all of its cells finish.
    ///
    /// # Errors
    /// Scheduler failures, quarantined replications (campaign cells must
    /// run clean — a panicking replication poisons the accumulated
    /// vectors, so the campaign must be loaded again), cache/CSV write
    /// failures.
    pub fn run(&mut self, opts: &CampaignRunOptions) -> Result<CampaignRunReport, String> {
        let cache_dir = self.dir.join("cache");
        let mut report = CampaignRunReport {
            cells_total: self.cell_count(),
            ..CampaignRunReport::default()
        };
        loop {
            // One round: every pending cell runs its next batch on one
            // scheduler pass.
            let mut pending = Vec::new();
            for (spec_idx, plan) in &mut self.plans {
                let rule = &self.specs[*spec_idx].stopping;
                let runs = plan.runs().into_iter();
                pending.extend(runs.filter(|(_, cell)| cell.verdict(rule) == CellVerdict::Pending));
            }
            if pending.is_empty() {
                break;
            }
            if let Some(max) = opts.max_cells {
                if report.cells_finished_now as u64 >= max {
                    break;
                }
            }
            report.rounds += 1;
            let mut finished = 0;
            let exec = cells::run(
                pending,
                Some(&cache_dir),
                opts.threads,
                opts.chunk,
                |_, point, cell| {
                    finished += usize::from(cell.verdict(&point.rule) != CellVerdict::Pending);
                    Ok(())
                },
            )?;
            for (spec_idx, plan) in &self.plans {
                let mut lost = plan
                    .cells
                    .iter()
                    .filter(|c| !c.stats.quarantined_reps.is_empty());
                if let Some(cell) = lost.next() {
                    return Err(format!(
                        "spec `{}`: scenario {}: policy {}: replication(s) {:?} quarantined — \
                         campaign cells must run clean; fix the scenario before resuming",
                        self.specs[*spec_idx].name,
                        plan.points[cell.point].scenario.name,
                        plan.labels[cell.policy],
                        cell.stats.quarantined_reps,
                    ));
                }
            }
            report.reps_run += exec.totals().tasks;
            report.cells_finished_now += finished;
        }

        report.cells_done = report.cells_total
            - (0..self.specs.len())
                .map(|s| self.pending(s))
                .sum::<usize>();
        report.csv_paths = self.write_finished_csvs()?;
        Ok(report)
    }

    /// Writes `<dir>/out/<spec>.csv` for every spec whose cells have all
    /// finished; returns the paths written. Byte-identical however the
    /// campaign got here (interruptions, thread counts, warm cache).
    fn write_finished_csvs(&self) -> Result<Vec<PathBuf>, String> {
        let mut paths = Vec::new();
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            if self.pending(spec_idx) > 0 {
                continue;
            }
            fs::create_dir_all(self.dir.join("out"))
                .map_err(|e| format!("cannot create out dir: {e}"))?;
            let path = self.csv_path(spec);
            write_atomic(&path, &self.spec_csv(spec_idx))?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Renders one spec's CSV from cached cell states.
    fn spec_csv(&self, spec_idx: usize) -> String {
        let spec = &self.specs[spec_idx];
        let mut out = BASE_COLUMNS.join(",");
        for (key, _) in &spec.fields {
            out.push(',');
            out.push_str(&csv_field(key));
        }
        out.push('\n');
        for (plan, cell) in self.spec_cells(spec_idx) {
            out.push_str(&csv_field(&spec.name));
            let row = row(plan, cell, &spec.stopping, &CSV_SPELLING);
            for value in row.iter().chain(spec.fields.iter().map(|(_, value)| value)) {
                out.push(',');
                out.push_str(&csv_field(value));
            }
            out.push('\n');
        }
        out
    }

    /// A human-readable progress summary for `campaign status`.
    #[must_use]
    pub fn status(&self) -> String {
        let mut out = format!(
            "campaign {}: {} spec(s), {} cell(s)\n",
            self.dir.display(),
            self.specs.len(),
            self.cell_count()
        );
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            // Cells per verdict (pending, converged, capped) and reps held.
            let (mut counts, mut reps) = ([0usize; 3], 0u64);
            for (_, cell) in self.spec_cells(spec_idx) {
                counts[cell.verdict(&spec.stopping) as usize] += 1;
                reps += cell.n();
            }
            let [pending, converged, capped] = counts;
            let (done, cells) = (converged + capped, pending + converged + capped);
            let csv = self.csv_path(spec);
            let csv_note = if csv.exists() {
                format!("csv: {}", csv.display())
            } else {
                "csv: not yet written".to_string()
            };
            out.push_str(&format!(
                "  {}: {}/{} cells done ({} converged, {} capped), {} replication(s) cached; {}\n",
                spec.name, done, cells, converged, capped, reps, csv_note
            ));
        }
        out
    }

    /// Renders the finished campaign as markdown tables (one per spec).
    ///
    /// # Errors
    /// Names the unfinished spec — and the `campaign run` command that
    /// finishes it — when any cell is still pending.
    pub fn report(&self) -> Result<String, String> {
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            let pending = self.pending(spec_idx);
            if pending > 0 {
                return Err(format!(
                    "spec `{}`: {pending} cell(s) still pending — finish the campaign with \
                     `churnbal-lab campaign run {}`",
                    spec.name,
                    self.dir.display()
                ));
            }
        }
        let mut out = String::new();
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            out.push_str(&format!("## {}\n\n", spec.name));
            if !spec.fields.is_empty() {
                let rendered: Vec<String> = spec
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k} = {v}"))
                    .collect();
                out.push_str(&format!("_{}_\n\n", rendered.join(", ")));
            }
            // The report's columns are the CSV's, less `spec`: each
            // table is one spec already.
            let columns = &BASE_COLUMNS[1..];
            out.push_str(&format!("| {} |\n", columns.join(" | ")));
            out.push_str(&"|---".repeat(columns.len()));
            out.push_str("|\n");
            for (plan, cell) in self.spec_cells(spec_idx) {
                let row = row(plan, cell, &spec.stopping, &REPORT_SPELLING);
                out.push_str(&format!("| {} |\n", row.join(" | ")));
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// The parsed specs, in file order.
    #[must_use]
    pub fn specs(&self) -> &[CampaignSpec] {
        &self.specs
    }

    /// Total cell count across all specs.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.plans.iter().map(|(_, plan)| plan.cells.len()).sum()
    }

    /// Per-cell `(spec, scenario, point, policy, cached reps)` rows, in
    /// CSV order — a stable probe for tests and tooling.
    #[must_use]
    pub fn cell_summaries(&self) -> Vec<(String, String, usize, String, u64)> {
        (0..self.specs.len())
            .flat_map(|spec_idx| {
                self.spec_cells(spec_idx).map(move |(plan, cell)| {
                    let point = &plan.points[cell.point];
                    (
                        self.specs[spec_idx].name.clone(),
                        point.scenario.name.clone(),
                        point.index,
                        plan.labels[cell.policy].clone(),
                        cell.n(),
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache;
    use crate::sweep::AxisParam;
    use churnbal_cluster::{Counters, PointStats};

    fn rule() -> StoppingRule {
        StoppingRule {
            tolerance: 0.5,
            r0: 4,
            max_reps: 64,
            antithetic: false,
        }
    }

    #[test]
    fn batch_schedule_doubles_and_caps() {
        let r = rule();
        assert_eq!(r.next_batch(0), 4);
        assert_eq!(r.next_batch(4), 4);
        assert_eq!(r.next_batch(8), 8);
        assert_eq!(r.next_batch(16), 16);
        assert_eq!(r.next_batch(32), 32);
        // 48 done: doubling wants 48 more but the cap allows 16.
        assert_eq!(r.next_batch(48), 16);
        assert_eq!(r.next_batch(64), 0);
    }

    #[test]
    fn verdict_progression() {
        let r = rule();
        assert_eq!(r.verdict(0, f64::INFINITY), CellVerdict::Pending);
        // Tolerance met before r0: still pending (too few samples).
        assert_eq!(r.verdict(2, 0.1), CellVerdict::Pending);
        assert_eq!(r.verdict(4, 0.1), CellVerdict::Converged);
        assert_eq!(r.verdict(4, 0.9), CellVerdict::Pending);
        assert_eq!(r.verdict(64, 0.9), CellVerdict::Capped);
    }

    #[test]
    fn cell_file_round_trips_bit_exactly() {
        // Two rounds absorbed into one cell, stored and reloaded: every
        // replication and every total comes back bit for bit.
        let round = |t: &[f64], transit: f64| PointStats {
            completion_times: t.to_vec(),
            failures_per_rep: (0..t.len() as u64).collect(),
            tasks_shipped_per_rep: (10..10 + t.len() as u64).collect(),
            incomplete: 1,
            counters: Counters {
                events: 100,
                failures: (0..t.len() as u64).sum(),
                tasks_shipped: (10..10 + t.len() as u64).sum(),
                retries: 2,
                ..Counters::default()
            },
            transit_task_seconds: transit,
            ..PointStats::default()
        };
        let mut acc = PointStats::default();
        acc.append(round(&[1.5, 2.25], 0.1));
        acc.append(round(&[f64::MIN_POSITIVE, 1e300], 0.2));
        assert_eq!(
            acc.completion_times,
            vec![1.5, 2.25, f64::MIN_POSITIVE, 1e300]
        );
        assert_eq!(acc.failures_per_rep, vec![0, 1, 0, 1]);
        assert_eq!(
            (acc.incomplete, acc.counters.events, acc.counters.retries),
            (2, 200, 4)
        );

        let dir =
            std::env::temp_dir().join(format!("churnbal-campaign-cell-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tmp dir");
        let digest = 0xdead_beef_cafe_f00d;
        cache::store(&dir, digest, &acc).expect("stores");
        let back = cache::load(&dir, digest).expect("parses").expect("hit");
        for (a, b) in back.completion_times.iter().zip(&acc.completion_times) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.tasks_shipped_per_rep, acc.tasks_shipped_per_rep);
        assert_eq!(
            back.transit_task_seconds.to_bits(),
            acc.transit_task_seconds.to_bits()
        );
        assert_eq!(back.incomplete, 2);
        assert_eq!(back.counters, acc.counters);
        // A different digest is a cache miss, not an error.
        assert!(cache::load(&dir, digest ^ 1).expect("no file").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_cache_is_cold_and_a_cache_file_is_an_error() {
        let dir =
            std::env::temp_dir().join(format!("churnbal-campaign-cold-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmp dir");
        fs::write(
            dir.join("a.toml"),
            "scenarios = [\"paper-fig5\"]\n[stopping]\ntolerance = 0.5\n",
        )
        .expect("spec");
        let campaign = Campaign::load(&dir).expect("loads without a cache dir");
        assert!(campaign.cell_summaries().iter().all(|c| c.4 == 0));
        fs::write(dir.join("cache"), "").expect("cache file");
        let Err(err) = Campaign::load(&dir) else {
            panic!("a `cache` file is not a directory");
        };
        assert!(err.starts_with("cannot read `"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_parse_defaults_and_errors() {
        let dir = Path::new(".");
        let spec = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\n[stopping]\ntolerance = 0.5\n",
            "var-a",
            dir,
        )
        .expect("minimal spec parses");
        assert_eq!(spec.name, "var-a");
        assert_eq!(spec.stopping.r0, DEFAULT_R0);
        assert_eq!(spec.stopping.max_reps, DEFAULT_MAX_REPS);
        assert!(!spec.stopping.antithetic);
        assert!(spec.fields.is_empty());

        let err = CampaignSpec::parse("scenarios = [\"paper-fig5\"]\n", "s", dir)
            .expect_err("missing stopping");
        assert!(err.contains("[stopping]"), "{err}");

        let err = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\n[stopping]\ntolerance = 0.5\nr0 = 3\nantithetic = true\n",
            "s",
            dir,
        )
        .expect_err("odd r0 with antithetic");
        assert!(err.contains("even"), "{err}");

        let err = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\nbogus = 1\n[stopping]\ntolerance = 0.5\n",
            "s",
            dir,
        )
        .expect_err("unknown key");
        assert!(err.contains("bogus"), "{err}");

        let err = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\n[stopping]\ntolerance = 0.5\n[fields]\nmean = \"x\"\n",
            "s",
            dir,
        )
        .expect_err("reserved field");
        assert!(err.contains("collides"), "{err}");
    }

    #[test]
    fn digest_tracks_every_input() {
        let sc = registry::get("paper-fig5").expect("registered");
        let policy = sc.policy.clone();
        let sc = sc.to_toml();
        let r = rule();
        let base = cache::cell_digest(&sc, &[], "p", &policy, 42, &r);
        assert_eq!(base, cache::cell_digest(&sc, &[], "p", &policy, 42, &r));
        assert_ne!(base, cache::cell_digest(&sc, &[], "p", &policy, 43, &r));
        assert_ne!(
            base,
            cache::cell_digest(&sc, &[(AxisParam::Gain, 0.5)], "p", &policy, 42, &r)
        );
        assert_ne!(base, cache::cell_digest(&sc, &[], "q", &policy, 42, &r));
        let mut tighter = r;
        tighter.tolerance = 0.25;
        assert_ne!(
            base,
            cache::cell_digest(&sc, &[], "p", &policy, 42, &tighter)
        );
        let mut anti = r;
        anti.antithetic = true;
        assert_ne!(base, cache::cell_digest(&sc, &[], "p", &policy, 42, &anti));
    }
}
