//! The `(grid point, policy)` cells that experiments and campaigns are
//! made of, and the one path that plans, replays, runs and stores them.
//!
//! A [`Plan`] expands a scenario's grid once, builds one system per point
//! and resolves each cell's label, written policy (a `gain` axis rewrites
//! every entry with a gain that is not pinned), seed and validation.
//! [`replay`] keys the cells and loads those a cache directory holds.
//! [`run`] replays finished cells and schedules the rest on [`run_grid`],
//! one job per cell, each continuing at the replications the cell
//! already holds; it stores every clean cell that ran. Common random
//! numbers hold by construction: the cells of a point share its seed, so
//! their replication `r` runs on identical streams.

use std::fs;
use std::path::Path;

use churnbal_cluster::exec::{run_grid, ExecReport, PointJob, PointStats};
use churnbal_cluster::{SimOptions, SystemConfig};
use churnbal_core::PolicySpec;
use churnbal_stochastic::t_ci95_half_width;

use crate::cache;
use crate::campaign::{CellVerdict, StoppingRule};
use crate::experiment::PolicyEntry;
use crate::scenario::Scenario;
use crate::sweep::{expand_grid, Axis, AxisParam};

/// One grid point of a [`Plan`].
pub(crate) struct Point {
    /// Row-major index in the expanded grid.
    pub(crate) index: usize,
    /// Axis coordinates, in axis order.
    pub(crate) coords: Vec<(AxisParam, f64)>,
    /// The fully rewritten scenario.
    pub(crate) scenario: Scenario,
    /// The one system every cell of the point runs.
    pub(crate) config: SystemConfig,
    /// The replication rounds of the point's cells (part of their key).
    pub(crate) rule: StoppingRule,
    /// Engine options of every replication.
    pub(crate) options: SimOptions,
}

/// One `(grid point, policy)` cell of a [`Plan`].
pub(crate) struct Cell {
    /// Index into [`Plan::points`].
    pub(crate) point: usize,
    /// Index into [`Plan::labels`].
    pub(crate) policy: usize,
    /// The policy as written, gain axis applied: it keys the cell and
    /// joins the theory, while replications build its
    /// [`PolicySpec::resolve`]d form.
    pub(crate) spec: PolicySpec,
    /// Master seed, shared by every cell of the point.
    pub(crate) seed: u64,
    /// Cache key, set by [`replay`].
    key: u64,
    /// The replications held, in global-replication order.
    pub(crate) stats: PointStats,
}

impl Cell {
    pub(crate) fn n(&self) -> u64 {
        self.stats.completion_times.len() as u64
    }

    pub(crate) fn halfwidth(&self) -> f64 {
        t_ci95_half_width(&self.stats.completion_times)
    }

    pub(crate) fn verdict(&self, rule: &StoppingRule) -> CellVerdict {
        rule.verdict(self.n(), self.halfwidth())
    }
}

/// A scenario's grid × a policy set, cells point-major.
pub(crate) struct Plan {
    pub(crate) points: Vec<Point>,
    /// Policy labels, in evaluation order.
    pub(crate) labels: Vec<String>,
    pub(crate) cells: Vec<Cell>,
}

impl Plan {
    /// Expands `scenario` over its own axes plus `axes`, one cell per
    /// point and policy; empty `policies` is the scenario's own policy,
    /// labelled by its kind. `seed` overrides the scenario seed, and
    /// `schedule` gives a point scenario's rule and engine options.
    ///
    /// # Errors
    /// Grid, system and gain failures as they come; a policy that does
    /// not fit a point's system, prefixed with the scenario name.
    pub(crate) fn new(
        scenario: &Scenario,
        axes: &[Axis],
        policies: &[PolicyEntry],
        seed: Option<u64>,
        schedule: impl Fn(&Scenario) -> (StoppingRule, SimOptions),
    ) -> Result<Self, String> {
        let own;
        let entries = if policies.is_empty() {
            own = [PolicyEntry::from_spec(scenario.policy.clone())];
            &own
        } else {
            policies
        };
        let labels: Vec<String> = entries.iter().map(|e| e.label.clone()).collect();
        let grid = expand_grid(scenario, axes)?;
        let mut points = Vec::with_capacity(grid.len());
        let mut cells = Vec::with_capacity(grid.len() * labels.len());
        for (p, point) in grid.into_iter().enumerate() {
            let config = point.scenario.system_config()?;
            for (policy, entry) in entries.iter().enumerate() {
                let mut spec = entry.spec.clone();
                for &(param, value) in &point.coords {
                    // A pinned gain (`lbp2@0.2`) rides along the axis.
                    if param == AxisParam::Gain && spec.gain().is_some() && !entry.pinned_gain {
                        spec = spec.with_gain(value)?;
                    }
                }
                spec.validate_for(&config)
                    .map_err(|e| format!("scenario {}: {e}", point.scenario.name))?;
                cells.push(Cell {
                    point: p,
                    policy,
                    spec,
                    seed: seed.unwrap_or(point.scenario.seed),
                    key: 0,
                    stats: PointStats::default(),
                });
            }
            let (rule, options) = schedule(&point.scenario);
            points.push(Point {
                index: point.index,
                coords: point.coords,
                scenario: point.scenario,
                config,
                rule,
                options,
            });
        }
        Ok(Self {
            points,
            labels,
            cells,
        })
    }

    /// Every cell with its point, in plan order.
    pub(crate) fn runs(&mut self) -> Vec<(&Point, &mut Cell)> {
        let Self { points, cells, .. } = self;
        cells.iter_mut().map(|c| (&points[c.point], c)).collect()
    }
}

/// Keys every cell of `plans` for the cache in `dir` and replays the
/// cells it holds; a missing `dir` is a cold cache, and no file is opened.
///
/// # Errors
/// An unreadable or malformed cell file, or one holding a count of
/// replications its rounds never reach — each naming the path.
pub(crate) fn replay<'p>(
    plans: impl IntoIterator<Item = &'p mut Plan>,
    dir: &Path,
) -> Result<(), String> {
    let cold = matches!(dir.try_exists(), Ok(false));
    for plan in plans {
        let k = plan.labels.len();
        for (point, cells) in plan.points.iter().zip(plan.cells.chunks_mut(k)) {
            let toml = point.scenario.to_toml();
            for cell in cells {
                let label = &plan.labels[cell.policy];
                let rule = &point.rule;
                cell.key =
                    cache::cell_digest(&toml, &point.coords, label, &cell.spec, cell.seed, rule);
                if cold {
                    continue;
                }
                let Some(stats) = cache::load(dir, cell.key)? else {
                    continue;
                };
                // The first round boundary at or past the count held.
                let n = stats.completion_times.len() as u64;
                let mut expected = 0;
                while expected < n && expected < rule.max_reps {
                    expected += rule.next_batch(expected);
                }
                if n != expected {
                    return Err(format!(
                        "cell cache `{}`: holds {n} replications, expected {expected} \
                         (delete the file to recompute)",
                        cache::cell_path(dir, cell.key).display()
                    ));
                }
                cell.stats = stats;
            }
        }
    }
    Ok(())
}

/// Runs `cells` in one scheduler pass and hands each back, in order, to
/// `on_cell(i, point, cell)`, `i` being its index in `cells` and the
/// `point` of its quarantines. A finished cell replays what it holds, as
/// soon as the cells before it are back; the others run their rule's
/// next batch on top of it, one job each, building each replication's
/// policy from the cell's spec resolved once. With `cache` set, every
/// cell that ran and lost no replication is stored before `on_cell` sees
/// it, so the next run retries the others.
///
/// # Errors
/// Cache failures, and the first error of `on_cell`, which abandons the
/// remaining work.
pub(crate) fn run<'a>(
    mut cells: Vec<(&'a Point, &'a mut Cell)>,
    cache: Option<&Path>,
    threads: usize,
    chunk: usize,
    mut on_cell: impl FnMut(usize, &Point, &mut Cell) -> Result<(), String>,
) -> Result<ExecReport, String> {
    if let Some(dir) = cache {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
    }
    // The cells that run (by index), their jobs and resolved specs.
    let (mut order, mut jobs, mut specs) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (point, cell)) in cells.iter().enumerate() {
        let point: &'a Point = point;
        if cell.verdict(&point.rule) == CellVerdict::Pending {
            let n = cell.n();
            order.push(i);
            jobs.push(PointJob {
                config: &point.config,
                reps: point.rule.next_batch(n),
                seed: cell.seed,
                rep_base: n,
                antithetic: point.rule.antithetic,
                options: point.options,
            });
            specs.push(cell.spec.resolve(&point.config)?);
        }
    }
    // Cells go back in order: a replayed cell right after the cell
    // before it. `until(j)` is job `j`'s cell, or the end.
    let len = cells.len();
    let until = |j: usize| order.get(j).copied().unwrap_or(len);
    hand_back(&mut cells, 0..until(0), &mut on_cell)?;
    let mut report = run_grid(
        &jobs,
        // Replication-keyed policies see the global index.
        &|j, r| {
            let job = &jobs[j];
            specs[j]
                .build_for_rep(job.config, job.rep_base + r)
                .expect("resolved above")
        },
        threads,
        chunk,
        |j, stats| {
            let i = order[j];
            let cell = &mut cells[i].1;
            if cell.stats.completion_times.is_empty() {
                cell.stats = stats;
            } else {
                cell.stats.append(stats);
            }
            if let Some(dir) = cache.filter(|_| cell.stats.quarantined_reps.is_empty()) {
                cache::store(dir, cell.key, &cell.stats)?;
            }
            hand_back(&mut cells, i..until(j + 1), &mut on_cell)
        },
    )?;
    for q in &mut report.quarantines {
        q.point = order[q.point];
    }
    Ok(report)
}

/// Hands cells `range` back to `on_cell`.
fn hand_back(
    cells: &mut [(&Point, &mut Cell)],
    range: std::ops::Range<usize>,
    on_cell: &mut impl FnMut(usize, &Point, &mut Cell) -> Result<(), String>,
) -> Result<(), String> {
    for i in range {
        let (point, cell) = &mut cells[i];
        on_cell(i, point, cell)?;
    }
    Ok(())
}
