//! The `churnbal-lab` command-line interface.
//!
//! ```text
//! churnbal-lab list
//! churnbal-lab show <scenario>
//! churnbal-lab run     <scenario|file.toml> [--quick] [--reps N] [--seed S]
//!                      [--threads T] [--chunk C] [--format table|csv|jsonl] [--out PATH]
//! churnbal-lab sweep   <scenario|file.toml> [--axis param=v1,v2,... | param=lo:hi:step]...
//!                      [--theory] [--quick] [--reps N] [--seed S] [--threads T] [--chunk C]
//!                      [--format csv|jsonl|table] [--out PATH]
//! churnbal-lab compare <scenario|file.toml> --policies a,b,... [--baseline NAME]
//!                      [--axis ...] [--quick] [--reps N] [--seed S] [--threads T] [--chunk C]
//!                      [--format table|csv|jsonl] [--out PATH]
//! ```
//!
//! `--cache DIR` on `run` / `sweep` / `compare` stores every completed
//! `(point, policy)` cell in the content-addressed cell cache of
//! [`crate::cache`] and replays cells already there, so an interrupted
//! grid resumes to byte-identical output.
//!
//! `run` executes a scenario including its baked-in axes (so
//! `run paper-fig3` regenerates the whole Fig. 3 gain sweep); `sweep`
//! additionally grid-expands `--axis` specifications on top, and
//! `--theory` joins the Eq. 4 model mean wherever a grid point is a
//! two-node closed system. `compare` evaluates several policies on every
//! grid point **in one scheduler pass with common random numbers**: the
//! first policy is the baseline (`--baseline NAME` picks a different
//! one), and every row reports the CRN-paired per-replication delta
//! against it with a t-based 95% confidence interval, plus the theory
//! columns.
//!
//! Policy names are `PolicySpec` kinds (plus `none`), optionally with an
//! `@gain` suffix: `lbp1`, `lbp2@0.5`, `none`, `upon-failure-only`, ...
//! A name matching the scenario's own policy kind inherits its exact
//! parameters.
//!
//! All output is deterministic: bit-identical for any `--threads` and
//! `--chunk` value.

use std::io::Write;
use std::path::PathBuf;

use churnbal_cluster::ProbeReport;
use churnbal_core::PolicySpec;

use crate::campaign::{Campaign, CampaignRunOptions};
use crate::experiment::{
    probe_jsonl_row, survivors, CollectSink, Experiment, ExperimentResult, ExperimentRow,
    ExperimentSchema, ExperimentSpec, LineSink, OutputFormat, PolicyEntry, RowSink,
};
use crate::registry;
use crate::scenario::{Scenario, ScenarioError, ScenarioErrorKind};
use crate::sweep::{Axis, AxisParam, RunOptions};

const USAGE: &str = "usage: churnbal-lab <command>\n\
\n\
commands:\n\
  list                          list registered scenarios\n\
  show <scenario>               print a scenario as TOML\n\
  run <scenario|file.toml>      run a scenario (including its baked-in axes)\n\
  sweep <scenario|file.toml>    grid-expand and run; add axes with --axis\n\
  compare <scenario|file.toml>  run several policies on one grid with common\n\
                                random numbers (paired deltas vs the first)\n\
  stats <scenario|file.toml>    probe one scenario's base point and report\n\
                                counters, telemetry quantiles and the\n\
                                scheduler's runtime instrumentation\n\
  campaign run <dir>            execute every campaign spec (*.toml) in DIR\n\
                                with adaptive sequential stopping and a\n\
                                content-addressed per-cell cache; writes\n\
                                DIR/out/<spec>.csv as specs finish\n\
  campaign status <dir>         per-spec progress of a campaign directory\n\
  report <dir>                  render a finished campaign as markdown\n\
\n\
options (campaign run):\n\
  --threads T                worker threads per round (0 = auto)\n\
  --chunk C                  tasks claimed per scheduler grab (0 = auto)\n\
  --max-cells N              stop this invocation once N cells finish in it\n\
                             (deterministic interruption point for CI)\n\
\n\
options (run/sweep/compare/stats):\n\
  --axis param=v1,v2,...     sweep axis, explicit values (sweep/compare)\n\
  --axis param=lo:hi:step    sweep axis, inclusive range (sweep/compare)\n\
  --policies a,b,...         policy set (compare only; first = baseline);\n\
                             names are policy kinds or `none`, with an\n\
                             optional gain suffix like lbp2@0.5\n\
  --baseline NAME            delta baseline (compare only); one of the\n\
                             --policies names, default the first\n\
  --backend B                event-queue backend: auto (default; heap for\n\
                             small fleets, calendar for large) | heap |\n\
                             calendar — output bytes do not depend on it\n\
  --theory                   join Eq. 4 theory columns (sweep; compare\n\
                             always joins them)\n\
  --probe-dt D               sample fleet telemetry every D sim-seconds\n\
                             (overrides the scenario's [probe] table;\n\
                             stats defaults to 1.0)\n\
  --probe-out PATH           write one JSON line per probe tick to PATH\n\
                             (needs a probe cadence; bit-identical for\n\
                             any --threads)\n\
  --metrics M                basic (default) | full: append recoveries,\n\
                             transfers, clamped orders, transit task-\n\
                             seconds — and, when probing, histogram\n\
                             quantile columns — to csv/jsonl rows\n\
  --cache DIR                store each completed (point, policy) cell in\n\
                             DIR/<digest>.cell.jsonl and replay cells already\n\
                             there; output bytes equal an uninterrupted run.\n\
                             The same store as a campaign's cache/ (not with\n\
                             probing)\n\
  --task-timeout SECS        abort any single replication running longer\n\
                             than SECS wall-clock seconds and quarantine it\n\
                             instead of hanging the campaign\n\
  --fail-on-quarantine       exit nonzero when any replication was\n\
                             quarantined (panicked or timed out)\n\
  --audit                    run the engine's task-conservation auditor in\n\
                             release builds (always on in debug); a violation\n\
                             is a panic naming the leaked tasks\n\
  --quick                    a tenth of the replications (at least 10)\n\
  --reps N                   replication override\n\
  --seed S                   master-seed override\n\
  --threads T                worker threads for the whole grid (0 = auto)\n\
  --chunk C                  tasks claimed per scheduler grab (0 = auto)\n\
  --format F                 table (run/compare default) | csv (sweep\n\
                             default) | jsonl\n\
  --out PATH                 write the output to PATH instead of stdout\n";

/// Executes a full CLI invocation, returning what should go to stdout.
///
/// # Errors
/// Returns the message to print on stderr (exit code 2).
pub fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        // No subcommand is a request for help, not an error.
        None | Some("help" | "--help" | "-h") => Ok(USAGE.to_string()),
        Some("list") => cmd_list(),
        Some("show") => {
            let name = it
                .next()
                .ok_or("show: missing scenario name\n\ntry: churnbal-lab list")?;
            cmd_show(name)
        }
        Some("run") => {
            let (scenario, opts) = parse_common(&mut it, Grammar::Run)?;
            cmd_run(&scenario, &opts)
        }
        Some("sweep") => {
            let (scenario, opts) = parse_common(&mut it, Grammar::Sweep)?;
            cmd_sweep(&scenario, &opts)
        }
        Some("compare") => {
            let (scenario, opts) = parse_common(&mut it, Grammar::Compare)?;
            cmd_compare(&scenario, &opts)
        }
        Some("stats") => {
            let (scenario, opts) = parse_common(&mut it, Grammar::Stats)?;
            cmd_stats(&scenario, &opts)
        }
        Some("campaign") => cmd_campaign(&mut it),
        Some("report") => {
            let dir = it
                .next()
                .ok_or("report: missing campaign directory\n\ntry: churnbal-lab report <dir>")?;
            Campaign::load(std::path::Path::new(dir))?.report()
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// Which flags a subcommand accepts.
#[derive(Clone, Copy, PartialEq)]
enum Grammar {
    Run,
    Sweep,
    Compare,
    Stats,
}

#[derive(Clone, Debug, Default)]
struct CliOptions {
    axes: Vec<Axis>,
    run: RunOptions,
    format: Option<String>,
    out: Option<String>,
    probe_out: Option<String>,
    policies: Vec<String>,
    baseline: Option<String>,
    theory: bool,
    cache: Option<PathBuf>,
    fail_on_quarantine: bool,
}

fn parse_common<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    grammar: Grammar,
) -> Result<(Scenario, CliOptions), String> {
    let name = it
        .next()
        .ok_or("missing scenario name or file\n\ntry: churnbal-lab list")?;
    let scenario = load_scenario(name)?;
    let mut opts = CliOptions::default();
    let allow_axes = matches!(grammar, Grammar::Sweep | Grammar::Compare);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--axis" if allow_axes => {
                let spec = it.next().ok_or("--axis needs `param=values`")?;
                opts.axes.push(parse_axis(spec)?);
            }
            "--axis" => return Err("--axis is only valid for `sweep` and `compare`".into()),
            "--policies" if grammar == Grammar::Compare => {
                let spec = it
                    .next()
                    .ok_or("--policies needs a comma-separated list, e.g. `lbp1,lbp2,none`")?;
                opts.policies = spec
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--policies" => return Err("--policies is only valid for `compare`".into()),
            "--baseline" if grammar == Grammar::Compare => {
                let v = it.next().ok_or("--baseline needs a policy name")?;
                opts.baseline = Some(v.clone());
            }
            "--baseline" => return Err("--baseline is only valid for `compare`".into()),
            "--backend" => {
                let v = it.next().ok_or("--backend needs auto | heap | calendar")?;
                opts.run.backend = churnbal_cluster::QueueBackend::parse(v)
                    .map_err(|e| format!("--backend: {e}"))?;
            }
            "--theory" if grammar == Grammar::Sweep => opts.theory = true,
            "--theory" => {
                return Err(
                    "--theory is only valid for `sweep` (compare always joins theory)".into(),
                )
            }
            "--probe-dt" => {
                let v = it.next().ok_or("--probe-dt needs a value in seconds")?;
                let dt: f64 = v
                    .parse()
                    .map_err(|_| format!("--probe-dt: expected a number, got `{v}`"))?;
                if !(dt.is_finite() && dt > 0.0) {
                    return Err(format!("--probe-dt: must be positive, got {dt}"));
                }
                opts.run.probe_dt = Some(dt);
            }
            "--probe-out" => {
                let v = it.next().ok_or("--probe-out needs a path")?;
                opts.probe_out = Some(v.clone());
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs basic | full")?;
                match v.as_str() {
                    "basic" => opts.run.metrics_full = false,
                    "full" => opts.run.metrics_full = true,
                    other => {
                        return Err(format!("--metrics: expected basic | full, got `{other}`"))
                    }
                }
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a directory path")?;
                opts.cache = Some(PathBuf::from(v));
            }
            "--journal" | "--resume" => {
                return Err(ScenarioError {
                    scenario: scenario.name.clone(),
                    kind: ScenarioErrorKind::RemovedJournalOption {
                        option: flag.clone(),
                    },
                }
                .into())
            }
            "--task-timeout" => {
                let v = it.next().ok_or("--task-timeout needs a value in seconds")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--task-timeout: expected a number, got `{v}`"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--task-timeout: must be positive, got {secs}"));
                }
                opts.run.task_timeout = Some(secs);
            }
            "--fail-on-quarantine" => opts.fail_on_quarantine = true,
            "--audit" => opts.run.audit = true,
            "--quick" => opts.run.quick = true,
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                opts.run.reps = Some(
                    v.parse()
                        .map_err(|_| format!("--reps: expected an integer, got `{v}`"))?,
                );
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.run.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: expected an integer, got `{v}`"))?,
                );
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.run.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: expected an integer, got `{v}`"))?;
            }
            "--chunk" => {
                let v = it.next().ok_or("--chunk needs a value")?;
                opts.run.chunk = v
                    .parse()
                    .map_err(|_| format!("--chunk: expected an integer, got `{v}`"))?;
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                if !["table", "csv", "jsonl"].contains(&v.as_str()) {
                    return Err(format!("--format: expected table | csv | jsonl, got `{v}`"));
                }
                opts.format = Some(v.clone());
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                opts.out = Some(v.clone());
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if grammar == Grammar::Compare && opts.policies.len() < 2 {
        return Err(format!(
            "compare needs at least two --policies (got {}); \
             e.g. --policies lbp1,lbp2,none",
            opts.policies.len()
        ));
    }
    // `stats` arms a default cadence itself; everywhere else a probe file
    // without a cadence would silently come out empty.
    if grammar != Grammar::Stats
        && opts.probe_out.is_some()
        && opts.run.effective_probe_dt(&scenario).is_none()
    {
        return Err(
            "--probe-out needs a probe cadence: pass --probe-dt or add a [probe] \
             table to the scenario"
                .into(),
        );
    }
    Ok((scenario, opts))
}

/// Resolves a scenario by registry name first, then as a TOML file path.
pub(crate) fn load_scenario(name: &str) -> Result<Scenario, String> {
    if let Some(sc) = registry::get(name) {
        sc.validate().map_err(|e| e.to_string())?;
        return Ok(sc);
    }
    if std::path::Path::new(name).exists() {
        let text = std::fs::read_to_string(name)
            .map_err(|e| format!("cannot read scenario file `{name}`: {e}"))?;
        let sc = Scenario::from_toml(&text).map_err(|e| format!("{name}: {e}"))?;
        sc.validate().map_err(|e| format!("{name}: {e}"))?;
        return Ok(sc);
    }
    Err(format!(
        "unknown scenario `{name}` and no such file; registered scenarios:\n  {}",
        registry::names().join("\n  ")
    ))
}

/// Parses `param=v1,v2,...` or `param=lo:hi:step` (inclusive range).
pub(crate) fn parse_axis(spec: &str) -> Result<Axis, String> {
    let Some((key, values)) = spec.split_once('=') else {
        return Err(format!("--axis: expected `param=values`, got `{spec}`"));
    };
    // `AxisParam::parse` enumerates the valid keys in its error message.
    let param = AxisParam::parse(key.trim())?;
    let values = values.trim();
    let parse_f64 = |s: &str| -> Result<f64, String> {
        s.trim()
            .parse::<f64>()
            .map_err(|_| format!("--axis {key}: `{s}` is not a number"))
    };
    let vals: Vec<f64> = if values.contains(':') {
        let parts: Vec<&str> = values.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "--axis {key}: ranges are `lo:hi:step`, got `{values}`"
            ));
        }
        let (lo, hi, step) = (
            parse_f64(parts[0])?,
            parse_f64(parts[1])?,
            parse_f64(parts[2])?,
        );
        if !(step.is_finite() && step > 0.0) || hi < lo {
            return Err(format!(
                "--axis {key}: need lo <= hi and step > 0 in `{values}`"
            ));
        }
        // Multiply rather than accumulate so 0:1:0.05 hits 1.0 exactly.
        let n = ((hi - lo) / step + 1e-9).floor() as usize;
        (0..=n).map(|i| lo + i as f64 * step).collect()
    } else {
        values
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(parse_f64)
            .collect::<Result<_, _>>()?
    };
    let axis = Axis {
        param,
        values: vals,
    };
    axis.validate()?;
    Ok(axis)
}

/// Resolves the `--policies` tokens against the scenario's own policy.
/// An explicit `@gain` suffix pins the gain: a `gain` axis sweeps the
/// other gain-bearing policies but leaves pinned ones at their value.
pub(crate) fn parse_policies(
    tokens: &[String],
    scenario: &Scenario,
) -> Result<Vec<PolicyEntry>, String> {
    tokens
        .iter()
        .map(|token| {
            let mut entry = PolicyEntry::named(
                token.clone(),
                PolicySpec::parse(token, &scenario.policy)
                    .map_err(|e| format!("--policies: {e}"))?,
            );
            entry.pinned_gain = token.contains('@');
            Ok(entry)
        })
        .collect()
}

/// `campaign run <dir> [--threads T] [--chunk C] [--max-cells N]` and
/// `campaign status <dir>`.
fn cmd_campaign<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<String, String> {
    let sub = it
        .next()
        .ok_or("campaign: expected `run` or `status`\n\ntry: churnbal-lab campaign run <dir>")?;
    let dir = it
        .next()
        .ok_or_else(|| format!("campaign {sub}: missing campaign directory"))?;
    let dir = std::path::Path::new(dir);
    match sub.as_str() {
        "status" => {
            if let Some(extra) = it.next() {
                return Err(format!("campaign status: unexpected argument `{extra}`"));
            }
            Ok(Campaign::load(dir)?.status())
        }
        "run" => {
            let mut opts = CampaignRunOptions::default();
            while let Some(flag) = it.next() {
                let value = |it: &mut dyn Iterator<Item = &'a String>| {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match flag.as_str() {
                    "--threads" => {
                        opts.threads = value(it)?
                            .parse()
                            .map_err(|_| "--threads: not a number".to_string())?;
                    }
                    "--chunk" => {
                        opts.chunk = value(it)?
                            .parse()
                            .map_err(|_| "--chunk: not a number".to_string())?;
                    }
                    "--max-cells" => {
                        let n: u64 = value(it)?
                            .parse()
                            .map_err(|_| "--max-cells: not a number".to_string())?;
                        if n == 0 {
                            return Err("--max-cells must be >= 1".to_string());
                        }
                        opts.max_cells = Some(n);
                    }
                    other => {
                        return Err(format!("campaign run: unknown flag `{other}`"));
                    }
                }
            }
            let mut campaign = Campaign::load(dir)?;
            let report = campaign.run(&opts)?;
            let mut out = format!(
                "campaign {}: {} cell(s), {} done ({} finished this run)\n\
                 this run: {} round(s), {} replication(s) simulated\n",
                dir.display(),
                report.cells_total,
                report.cells_done,
                report.cells_finished_now,
                report.rounds,
                report.reps_run,
            );
            if report.csv_paths.is_empty() {
                out.push_str("csv: none complete yet\n");
            } else {
                for path in &report.csv_paths {
                    out.push_str(&format!("csv: {}\n", path.display()));
                }
            }
            Ok(out)
        }
        other => Err(format!(
            "campaign: unknown subcommand `{other}` (expected `run` or `status`)"
        )),
    }
}

fn cmd_list() -> Result<String, String> {
    let mut out = String::new();
    let scenarios = registry::all();
    let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for sc in scenarios {
        let axes = if sc.axes.is_empty() {
            String::new()
        } else {
            let keys: Vec<&str> = sc.axes.iter().map(|a| a.param.key()).collect();
            format!(" [axes: {}]", keys.join(", "))
        };
        out.push_str(&format!(
            "{:width$}  {}{}\n",
            sc.name,
            sc.description,
            axes,
            width = width
        ));
    }
    Ok(out)
}

fn cmd_show(name: &str) -> Result<String, String> {
    Ok(load_scenario(name)?.to_toml())
}

/// Pretty float for tables: up to 6 decimals, trailing zeros trimmed.
fn pretty(v: f64) -> String {
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// A per-replication statistic for display: `-` when the row has no
/// surviving replication (see [`ExperimentRow::stat`]).
fn shown(row: &ExperimentRow, text: String) -> String {
    row.stat(text).unwrap_or_else(|| "-".to_string())
}

fn render_table(result: &ExperimentResult) -> String {
    let schema = &result.schema;
    let mut header: Vec<String> = schema.axes.iter().map(|a| a.key().to_string()).collect();
    if schema.paired {
        header.push("policy".to_string());
    }
    header.extend(["mean (s)", "±95% CI", "sd"].map(str::to_string));
    if schema.theory {
        header.extend(["theory", "mc−theory"].map(str::to_string));
    }
    if schema.paired {
        header.extend(["Δ vs base", "±95% CI(Δ)"].map(str::to_string));
    }
    header.extend(["failures", "shipped", "incomplete"].map(str::to_string));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for r in &result.rows {
        // Display-only rounding: the machine formats keep exact values.
        let mut row: Vec<String> = r.coords.iter().map(|&(_, v)| pretty(v)).collect();
        if schema.paired {
            row.push(r.policy.clone());
        }
        row.extend([
            shown(r, format!("{:.2}", r.mean_completion)),
            shown(r, format!("{:.2}", r.ci95)),
            shown(r, format!("{:.2}", r.sd_completion)),
        ]);
        if schema.theory {
            row.push(r.theory_mean.map_or(String::new(), |t| format!("{t:.2}")));
            row.push(
                r.mc_minus_theory
                    .map_or(String::new(), |d| shown(r, format!("{d:+.2}"))),
            );
        }
        if schema.paired {
            if r.policy_index == schema.baseline {
                row.extend([String::from("baseline"), String::new()]);
            } else {
                // A quarantine-degraded pair can have no surviving
                // replications to difference: render `-`, don't panic.
                match r.delta {
                    Some(d) => row.extend([
                        format!("{:+.2}", d.mean_delta),
                        format!("{:.2}", d.ci95_half_width),
                    ]),
                    None => row.extend([String::from("-"), String::from("-")]),
                }
            }
        }
        let mean = |total: u64| r.per_rep(total as f64);
        row.extend([
            shown(
                r,
                format!("{:.2} ± {:.2}", mean(r.counters.failures), r.sd_failures),
            ),
            shown(
                r,
                format!(
                    "{:.1} ± {:.1}",
                    mean(r.counters.tasks_shipped),
                    r.sd_tasks_shipped
                ),
            ),
            r.incomplete.to_string(),
        ]);
        rows.push(row);
    }
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.chars().count();
    }
    for row in &rows {
        for (i, c) in row.iter().enumerate() {
            width[i] = width[i].max(c.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            // `{:>w$}` pads by char count, which is what the widths
            // above measure (the headers contain ± and Δ).
            line.push_str(&format!("{c:>w$}", w = width[i]));
        }
        line.push('\n');
        line
    };
    let mut out = fmt_row(&header);
    out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in &rows {
        out.push_str(&fmt_row(row));
    }
    out
}

/// One line per quarantined replication, naming the cell and the cause.
fn quarantine_summary(report: &churnbal_cluster::ExecReport, policies: &[String]) -> String {
    let mut out = format!(
        "warning: {} replication(s) were quarantined; affected rows aggregate \
         the surviving replications only\n",
        report.quarantines.len()
    );
    // An experiment runs one job per (point, policy) cell, point-major,
    // so a quarantine's job index is `point * k + policy`.
    let k = policies.len();
    for q in &report.quarantines {
        out.push_str(&format!(
            "  point {}, policy {}, rep {}: {}\n",
            q.point / k,
            policies[q.point % k],
            q.rep,
            q.message
        ));
    }
    out
}

/// Attaches the quarantine summary once the primary output is delivered:
/// appended to human-readable output, `eprint!`ed when machine rows go to
/// stdout (so CSV/JSONL bytes stay clean), and turned into a hard error
/// under `--fail-on-quarantine` — by then any `--out` file has already
/// been written, so the partial results survive the nonzero exit.
fn append_quarantines(
    text: String,
    report: &churnbal_cluster::ExecReport,
    policies: &[String],
    opts: &CliOptions,
    machine_stdout: bool,
) -> Result<String, String> {
    if report.quarantines.is_empty() {
        return Ok(text);
    }
    let summary = quarantine_summary(report, policies);
    if opts.fail_on_quarantine {
        return Err(format!("{summary}--fail-on-quarantine: exiting nonzero"));
    }
    if machine_stdout {
        eprint!("{summary}");
        Ok(text)
    } else {
        Ok(text + &summary)
    }
}

fn deliver(text: String, opts: &CliOptions, preamble: String) -> Result<String, String> {
    match &opts.out {
        None => Ok(format!("{preamble}{text}")),
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            Ok(format!(
                "{preamble}wrote {} lines to {path}\n",
                text.lines().count()
            ))
        }
    }
}

/// Tees probe telemetry to a `--probe-out` JSONL writer while delegating
/// everything else to the wrapped sink. One line per probe tick, in
/// `(grid point, policy, replication, tick)` order — the scheduler hands
/// rows over in `(point, policy)` order with their survivors' reports in
/// replication order, so the file is bit-identical for any `--threads` /
/// `--chunk` value. A quarantined replication has no report, and the
/// others keep their replication indices.
struct ProbeTee<'a, W: Write> {
    inner: &'a mut dyn RowSink,
    out: W,
    scenario: String,
}

impl<'a, W: Write> ProbeTee<'a, W> {
    fn new(inner: &'a mut dyn RowSink, out: W) -> Self {
        Self {
            inner,
            out,
            scenario: String::new(),
        }
    }
}

impl<W: Write> RowSink for ProbeTee<'_, W> {
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        self.scenario.clone_from(&schema.scenario);
        self.inner.begin(schema)
    }

    fn row(&mut self, row: &ExperimentRow) -> Result<(), String> {
        self.inner.row(row)
    }

    fn probes(&mut self, row: &ExperimentRow, reports: &[ProbeReport]) -> Result<(), String> {
        for (rep, report) in survivors(&row.quarantined).zip(reports) {
            let rep = usize::try_from(rep).expect("replication index fits usize");
            for sample in &report.samples {
                let line = probe_jsonl_row(&self.scenario, row.index, &row.policy, rep, sample);
                self.out
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("cannot write probe line: {e}"))?;
            }
        }
        self.inner.probes(row, reports)
    }

    fn finish(&mut self) -> Result<(), String> {
        self.out
            .flush()
            .map_err(|e| format!("cannot flush probe output: {e}"))?;
        self.inner.finish()
    }
}

/// Runs `experiment` into `sink`, teeing probe ticks to `--probe-out`
/// when requested. Returns the schema and the scheduler's runtime report.
fn run_with_probe_tee(
    experiment: &Experiment,
    sink: &mut dyn RowSink,
    opts: &CliOptions,
) -> Result<(ExperimentSchema, churnbal_cluster::ExecReport), String> {
    match &opts.probe_out {
        None => experiment.run_with_report(sink),
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            let mut tee = ProbeTee::new(sink, std::io::BufWriter::new(file));
            experiment.run_with_report(&mut tee)
        }
    }
}

/// Collects an experiment in memory (the table path), honouring
/// `--probe-out`.
fn collect_with_probe_tee(
    experiment: &Experiment,
    opts: &CliOptions,
) -> Result<(ExperimentResult, churnbal_cluster::ExecReport), String> {
    let mut sink = CollectSink::new();
    let (schema, report) = run_with_probe_tee(experiment, &mut sink, opts)?;
    Ok((
        ExperimentResult {
            schema,
            rows: sink.rows,
        },
        report,
    ))
}

/// Runs an experiment in machine format (`format` is `csv` or `jsonl`).
/// With `--out`, rows stream to the file as their `(grid point, policy)`
/// cells finish — a long grid's partial results are on disk while later
/// points still run — and the returned report names the line count.
/// Without it, rows stream into an in-memory buffer returned for stdout.
/// Both paths go through the same [`LineSink`] renderer as
/// [`ExperimentResult::to_csv`] / [`to_jsonl`](ExperimentResult::to_jsonl),
/// so the bytes are identical to the buffered path's.
fn run_machine_format(
    spec: ExperimentSpec,
    opts: &CliOptions,
    format: &str,
) -> Result<String, String> {
    let format = if format == "jsonl" {
        OutputFormat::Jsonl
    } else {
        OutputFormat::Csv
    };
    let experiment = Experiment::new(spec);
    let run_into = |out: &mut dyn Write| {
        run_with_probe_tee(&experiment, &mut LineSink::new(out, format), opts)
    };
    match &opts.out {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            let (schema, report) = run_into(&mut std::io::BufWriter::new(file))?;
            let lines = schema.rows() + usize::from(format == OutputFormat::Csv);
            let msg = format!("wrote {lines} lines to {path}\n");
            append_quarantines(msg, &report, &schema.policies, opts, false)
        }
        None => {
            let mut buf = Vec::new();
            let (schema, report) = run_into(&mut buf)?;
            let text = String::from_utf8(buf).map_err(|e| format!("output is not UTF-8: {e}"))?;
            append_quarantines(text, &report, &schema.policies, opts, true)
        }
    }
}

fn cmd_run(scenario: &Scenario, opts: &CliOptions) -> Result<String, String> {
    let mut spec = ExperimentSpec::sweep(scenario.clone(), opts.axes.clone(), opts.run);
    spec.cache.clone_from(&opts.cache);
    let format = opts.format.as_deref().unwrap_or("table");
    if format != "table" {
        return run_machine_format(spec, opts, format);
    }
    let (result, report) = collect_with_probe_tee(&Experiment::new(spec), opts)?;
    let reps = opts.run.effective_reps(scenario);
    let preamble = format!(
        "{}: {}\n{} point(s), {} replications each, seed {}\n\n",
        scenario.name,
        scenario.description,
        result.schema.points,
        reps,
        opts.run.seed.unwrap_or(scenario.seed),
    );
    let out = deliver(render_table(&result), opts, preamble)?;
    append_quarantines(out, &report, &result.schema.policies, opts, false)
}

fn cmd_sweep(scenario: &Scenario, opts: &CliOptions) -> Result<String, String> {
    let mut spec = ExperimentSpec::sweep(scenario.clone(), opts.axes.clone(), opts.run);
    spec.theory = opts.theory;
    spec.cache.clone_from(&opts.cache);
    let format = opts.format.as_deref().unwrap_or("csv");
    if format != "table" {
        return run_machine_format(spec, opts, format);
    }
    let (result, report) = collect_with_probe_tee(&Experiment::new(spec), opts)?;
    let out = deliver(render_table(&result), opts, String::new())?;
    append_quarantines(out, &report, &result.schema.policies, opts, false)
}

fn cmd_compare(scenario: &Scenario, opts: &CliOptions) -> Result<String, String> {
    let policies = parse_policies(&opts.policies, scenario)?;
    let baseline = match &opts.baseline {
        None => 0,
        Some(name) => policies
            .iter()
            .position(|e| e.label == *name)
            .ok_or_else(|| {
                format!(
                    "--baseline: `{name}` is not one of the compared policies \
                     (choose from: {})",
                    policies
                        .iter()
                        .map(|e| e.label.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?,
    };
    let mut spec = ExperimentSpec::compare(scenario.clone(), opts.axes.clone(), policies, opts.run);
    spec.baseline = baseline;
    spec.cache.clone_from(&opts.cache);
    let format = opts.format.as_deref().unwrap_or("table");
    if format != "table" {
        return run_machine_format(spec, opts, format);
    }
    let (result, report) = collect_with_probe_tee(&Experiment::new(spec), opts)?;
    let reps = opts.run.effective_reps(scenario);
    let preamble = format!(
        "{}: {}\n{} point(s) x {} policies (baseline {}), {} replications each, seed {}\n\
         deltas are CRN-paired per-replication differences vs the baseline\n\n",
        scenario.name,
        scenario.description,
        result.schema.points,
        result.schema.policies.len(),
        result.schema.policies[result.schema.baseline],
        reps,
        opts.run.seed.unwrap_or(scenario.seed),
    );
    let out = deliver(render_table(&result), opts, preamble)?;
    append_quarantines(out, &report, &result.schema.policies, opts, false)
}

/// `stats <scenario>`: one deep look at the scenario's base point.
/// Baked-in axes are dropped (one grid point), probing is armed at the
/// scenario's `[probe]` cadence / `--probe-dt` / 1.0 s in that order, and
/// the output reports counters, telemetry quantiles, and the scheduler's
/// runtime instrumentation.
fn cmd_stats(scenario: &Scenario, opts: &CliOptions) -> Result<String, String> {
    let mut base = scenario.clone();
    base.axes.clear();
    let mut run = opts.run;
    if run.effective_probe_dt(&base).is_none() {
        run.probe_dt = Some(1.0);
    }
    let dt = run.effective_probe_dt(&base).expect("armed above");
    let reps = run.effective_reps(&base);
    let seed = run.seed.unwrap_or(base.seed);
    let mut spec = ExperimentSpec::sweep(base.clone(), Vec::new(), run);
    spec.cache.clone_from(&opts.cache);
    let experiment = Experiment::new(spec);
    let mut sink = CollectSink::new();
    let (schema, report) = run_with_probe_tee(&experiment, &mut sink, opts)?;
    let row = sink
        .rows
        .first()
        .ok_or("stats: the experiment produced no rows")?;

    let mut out = format!(
        "{}: {}\n{} replications, seed {}, probe dt {} s\n",
        base.name,
        base.description,
        reps,
        seed,
        pretty(dt),
    );

    out.push_str("\ncounters (mean per replication)\n");
    let c = &row.counters;
    let mean = |total: u64| row.per_rep(total as f64);
    let counters = [
        (
            "completion time",
            format!(
                "{:.2} s ± {:.2} (95% CI), sd {:.2}",
                row.mean_completion, row.ci95, row.sd_completion
            ),
        ),
        (
            "failures",
            format!("{:.2} ± {:.2} sd", mean(c.failures), row.sd_failures),
        ),
        ("recoveries", format!("{:.2}", mean(c.recoveries))),
        ("transfer batches", format!("{:.2}", mean(c.transfers))),
        (
            "tasks shipped",
            format!(
                "{:.1} ± {:.1} sd",
                mean(c.tasks_shipped),
                row.sd_tasks_shipped
            ),
        ),
        ("clamped orders", format!("{:.2}", mean(c.tasks_clamped))),
        (
            "transit task-seconds",
            format!("{:.2}", row.per_rep(row.transit_task_seconds)),
        ),
        ("tasks lost", format!("{:.2}", mean(c.tasks_lost))),
        ("channel retries", format!("{:.2}", mean(c.retries))),
        ("channel bounces", format!("{:.2}", mean(c.bounces))),
    ];
    for (label, value) in counters {
        out.push_str(&format!("  {label:<22}{}\n", shown(row, value)));
    }
    let incomplete = format!("{} / {}", row.incomplete, row.reps);
    out.push_str(&format!("  {:<22}{incomplete}\n", "incomplete"));

    out.push_str("\ntelemetry (histograms merged across replications)\n");
    let t = &row.telemetry;
    let dist =
        |out: &mut String, label: &str, h: &churnbal_stochastic::LogHistogram, unit: &str| {
            if h.is_empty() {
                out.push_str(&format!("  {label:<16}(no observations)\n"));
            } else {
                out.push_str(&format!(
                    "  {label:<16}p50 {}{unit}, p99 {}{unit}, max {}{unit}  ({} obs)\n",
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max(),
                    h.total(),
                ));
            }
        };
    dist(&mut out, "queue length", &t.queue_hist, "");
    dist(&mut out, "transfer delay", &t.transfer_delay_us, " µs");
    dist(&mut out, "downtime", &t.downtime_us, " µs");
    dist(&mut out, "retry backoff", &t.retry_delay_us, " µs");

    // Wall-clock figures vary run to run; everything above is
    // bit-deterministic, this section is diagnostics only.
    let totals = report.totals();
    out.push_str("\nruntime (observational, not deterministic)\n");
    out.push_str(&format!(
        "  {} worker(s): {} task(s), {} chunk claim(s), {} idle poll(s), {} rebind(s)\n",
        report.workers.len(),
        totals.tasks,
        totals.chunks,
        totals.idle_claims,
        totals.rebinds,
    ));
    out.push_str(&format!(
        "  {} events in {:.3} s wall ({:.2e} events/s)\n",
        totals.events,
        report.wall_seconds,
        report.events_per_sec(),
    ));
    out.push_str(&format!(
        "  {} replication(s) quarantined\n",
        report.quarantines.len(),
    ));
    for (i, w) in report.workers.iter().enumerate() {
        out.push_str(&format!(
            "    worker {i}: {} task(s), {} events, {:.3} s busy ({:.2e} events/s)\n",
            w.tasks,
            w.events,
            w.busy_seconds,
            w.events_per_sec(),
        ));
    }
    let out = deliver(out, opts, String::new())?;
    append_quarantines(out, &report, &schema.policies, opts, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn list_names_every_preset() {
        let out = call(&["list"]).expect("list works");
        for name in registry::names() {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn show_round_trips_through_the_parser() {
        let out = call(&["show", "flash-crowd"]).expect("show works");
        let sc = Scenario::from_toml(&out).expect("show output parses");
        assert_eq!(sc, registry::get("flash-crowd").expect("preset"));
    }

    #[test]
    fn unknown_scenario_lists_the_registry() {
        let err = call(&["run", "nope"]).unwrap_err();
        assert!(err.contains("unknown scenario `nope`"), "{err}");
        assert!(err.contains("paper-fig3"), "{err}");
    }

    #[test]
    fn unknown_flags_and_commands_error_with_usage() {
        let err = call(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        let err = call(&["run", "paper-fig3", "--wat"]).unwrap_err();
        assert!(err.contains("unknown flag `--wat`"), "{err}");
        let err = call(&["run", "paper-fig3", "--axis", "gain=1"]).unwrap_err();
        assert!(
            err.contains("only valid for `sweep` and `compare`"),
            "{err}"
        );
        let err = call(&["sweep", "paper-fig3", "--policies", "lbp1,none"]).unwrap_err();
        assert!(err.contains("only valid for `compare`"), "{err}");
    }

    #[test]
    fn axis_specs_parse_lists_and_ranges() {
        let a = parse_axis("gain=0.1,0.5,0.9").expect("list");
        assert_eq!(a.param, AxisParam::Gain);
        assert_eq!(a.values, vec![0.1, 0.5, 0.9]);
        let a = parse_axis("failure-scale=0:1:0.25").expect("range");
        assert_eq!(a.values, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let err = parse_axis("gain").unwrap_err();
        assert!(err.contains("param=values"), "{err}");
        let err = parse_axis("gain=1:0:0.1").unwrap_err();
        assert!(err.contains("lo <= hi"), "{err}");
    }

    #[test]
    fn unknown_axis_keys_enumerate_every_valid_key() {
        // A typo must produce the full menu, not a bare string.
        let err = parse_axis("warp=1,2").unwrap_err();
        assert!(err.contains("unknown sweep parameter \"warp\""), "{err}");
        for param in AxisParam::ALL {
            assert!(
                err.contains(param.key()),
                "missing {} in: {err}",
                param.key()
            );
        }
    }

    #[test]
    fn run_renders_a_table_with_axis_columns() {
        let out = call(&["run", "paper-fig5", "--reps", "4", "--threads", "2"]).expect("run works");
        assert!(out.contains("paper-fig5"), "{out}");
        assert!(out.contains("mean (s)"), "{out}");
        assert!(out.contains("1 point(s), 4 replications"), "{out}");
    }

    #[test]
    fn sweep_emits_csv_by_default_and_jsonl_on_request() {
        let csv = call(&[
            "sweep",
            "paper-fig5",
            "--axis",
            "gain=0.2,0.8",
            "--reps",
            "3",
        ]);
        // paper-fig5 uses lbp1-optimal (gainless): the axis must be
        // rejected with a helpful message, not silently ignored.
        let err = csv.unwrap_err();
        assert!(err.contains("no gain parameter"), "{err}");

        let csv = call(&[
            "sweep",
            "paper-delay-crossover",
            "--axis",
            "failure-scale=0.5,1.0",
            "--reps",
            "3",
            "--threads",
            "2",
        ])
        .expect("sweep works");
        assert!(
            csv.starts_with("scenario,point,delay-per-task,failure-scale,"),
            "{csv}"
        );
        assert_eq!(csv.lines().count(), 11, "5x2 grid + header:\n{csv}");

        let jsonl =
            call(&["run", "paper-fig5", "--reps", "3", "--format", "jsonl"]).expect("jsonl works");
        assert!(jsonl.starts_with("{\"scenario\":\"paper-fig5\""), "{jsonl}");
    }

    #[test]
    fn sweep_theory_flag_appends_model_columns() {
        let csv = call(&[
            "sweep",
            "paper-fig3",
            "--theory",
            "--reps",
            "2",
            "--threads",
            "2",
        ])
        .expect("sweep --theory works");
        let header = csv.lines().next().expect("header");
        assert!(
            header.ends_with("incomplete,theory_mean,mc_minus_theory"),
            "{header}"
        );
        // Every fig3 row is in the Eq. 4 domain: no empty theory cells.
        for line in csv.lines().skip(1) {
            assert!(!line.ends_with(','), "{line}");
        }
        // Without the flag the header is the legacy one.
        let plain = call(&["sweep", "paper-fig3", "--reps", "2"]).expect("plain sweep");
        assert!(plain
            .lines()
            .next()
            .expect("header")
            .ends_with("incomplete"));
    }

    #[test]
    fn compare_reports_paired_deltas_and_theory() {
        let out = call(&[
            "compare",
            "paper-fig3",
            "--policies",
            "lbp1,lbp2,none",
            "--reps",
            "4",
            "--threads",
            "2",
        ])
        .expect("compare works");
        assert!(out.contains("3 policies (baseline lbp1)"), "{out}");
        assert!(out.contains("Δ vs base"), "{out}");
        assert!(out.contains("theory"), "{out}");
        assert!(out.contains("baseline"), "{out}");
        // 21 gain points x 3 policies + header + rule + preamble lines.
        assert!(out.lines().count() > 63, "{out}");

        let csv = call(&[
            "compare",
            "paper-fig3",
            "--policies",
            "lbp1,none",
            "--reps",
            "3",
            "--format",
            "csv",
        ])
        .expect("compare csv works");
        let header = csv.lines().next().expect("header");
        assert!(
            header.ends_with("theory_mean,mc_minus_theory,delta_mean,delta_sd,delta_ci95"),
            "{header}"
        );
        assert_eq!(csv.lines().count(), 1 + 21 * 2, "{csv}");
    }

    #[test]
    fn explicit_gain_suffixes_survive_a_gain_axis() {
        // paper-fig3 carries a baked-in 21-value gain axis. Policies the
        // user pinned with @gain must NOT be rewritten by it: the two
        // lbp2 variants stay at 0.2 and 0.8 and therefore genuinely
        // differ, while bare `lbp1` still follows the axis.
        let csv = call(&[
            "compare",
            "paper-fig3",
            "--policies",
            "lbp2@0.2,lbp2@0.8,lbp1",
            "--reps",
            "3",
            "--format",
            "csv",
        ])
        .expect("compare works");
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 21 * 3);
        // The two pinned variants must differ somewhere (they would be
        // bit-identical rows if the axis overwrote both gains).
        let a: Vec<&&str> = rows.iter().filter(|r| r.contains(",lbp2@0.2,")).collect();
        let b: Vec<&&str> = rows.iter().filter(|r| r.contains(",lbp2@0.8,")).collect();
        assert_eq!(a.len(), 21);
        let differing = a
            .iter()
            .zip(&b)
            .filter(|(ra, rb)| {
                let strip = |r: &str| r.replacen("lbp2@0.2", "X", 1).replacen("lbp2@0.8", "X", 1);
                strip(ra) != strip(rb)
            })
            .count();
        assert!(
            differing > 0,
            "pinned gains were overwritten by the axis:\n{csv}"
        );
        // And each pinned variant is flat only in its *policy*, not the
        // grid: its rows repeat identically across the gain axis.
        let strip_gain = |r: &str| {
            let mut parts: Vec<&str> = r.split(',').collect();
            parts.remove(2); // the gain coordinate column
            parts.remove(1); // the grid-point index column
            parts.join(",")
        };
        assert!(
            a.windows(2).all(|w| strip_gain(w[0]) == strip_gain(w[1])),
            "a pinned policy must ride the gain axis unchanged:\n{csv}"
        );
    }

    #[test]
    fn compare_baseline_picks_a_non_first_policy() {
        let out = call(&[
            "compare",
            "paper-fig3",
            "--policies",
            "lbp1,lbp2,none",
            "--baseline",
            "none",
            "--reps",
            "4",
            "--threads",
            "2",
        ])
        .expect("compare with baseline works");
        assert!(out.contains("3 policies (baseline none)"), "{out}");
        // The baseline marker sits on the `none` rows now.
        for line in out.lines().filter(|l| l.contains(" none ")) {
            assert!(line.contains("baseline"), "{line}");
        }
        // Per-policy statistics are baseline-invariant: only the delta
        // columns move. Compare the mean column against the default run.
        let default = call(&[
            "compare",
            "paper-fig3",
            "--policies",
            "lbp1,lbp2,none",
            "--reps",
            "4",
            "--threads",
            "2",
        ])
        .expect("default compare works");
        let means = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.contains("lbp2"))
                .map(|l| l.split_whitespace().take(4).collect::<Vec<_>>().join(" "))
                .collect()
        };
        assert_eq!(means(&out), means(&default));
    }

    #[test]
    fn compare_baseline_rejects_unknown_names() {
        let err = call(&[
            "compare",
            "paper-fig3",
            "--policies",
            "lbp1,lbp2",
            "--baseline",
            "warp9",
        ])
        .unwrap_err();
        assert!(
            err.contains("`warp9` is not one of the compared policies"),
            "{err}"
        );
        assert!(err.contains("lbp1, lbp2"), "lists the choices: {err}");
        let err = call(&["sweep", "paper-fig3", "--baseline", "lbp1"]).unwrap_err();
        assert!(err.contains("only valid for `compare`"), "{err}");
    }

    #[test]
    fn backend_flag_parses_and_leaves_output_bytes_unchanged() {
        let base = ["sweep", "paper-delay-crossover", "--reps", "3"];
        let auto = call(&base).expect("auto backend runs");
        for backend in ["heap", "calendar"] {
            let mut args = base.to_vec();
            args.extend(["--backend", backend]);
            let out = call(&args).expect("explicit backend runs");
            assert_eq!(out, auto, "--backend {backend} changed the output bytes");
        }
        let err = call(&["run", "paper-fig5", "--backend", "warp"]).unwrap_err();
        assert!(err.contains("unknown event-queue backend"), "{err}");
    }

    #[test]
    fn compare_requires_at_least_two_policies() {
        let err = call(&["compare", "paper-fig3"]).unwrap_err();
        assert!(err.contains("at least two --policies"), "{err}");
        let err = call(&["compare", "paper-fig3", "--policies", "lbp1"]).unwrap_err();
        assert!(err.contains("at least two --policies"), "{err}");
        let err = call(&["compare", "paper-fig3", "--policies", "lbp1,warp9"]).unwrap_err();
        assert!(err.contains("unknown policy `warp9`"), "{err}");
        assert!(err.contains("upon-failure-only"), "lists kinds: {err}");
    }

    #[test]
    fn streamed_out_file_matches_stdout_bytes() {
        // `--out` streams rows to the file as cells finish; the bytes must
        // equal the stdout rendering of the same grid, for CSV and JSONL,
        // for sweeps and comparisons.
        let dir = std::env::temp_dir().join("churnbal_lab_cli_stream_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        for format in ["csv", "jsonl"] {
            let path = dir.join(format!("sweep.{format}"));
            let path_str = path.to_str().expect("utf8");
            let base = [
                "sweep",
                "paper-delay-crossover",
                "--axis",
                "failure-scale=0.5,1.5",
                "--reps",
                "3",
                "--format",
                format,
            ];
            let stdout = call(&base).expect("stdout sweep runs");
            let mut with_out: Vec<&str> = base.to_vec();
            with_out.extend(["--out", path_str]);
            let report = call(&with_out).expect("file sweep runs");
            let written = std::fs::read_to_string(&path).expect("file written");
            assert_eq!(written, stdout, "{format}: file bytes differ from stdout");
            let lines = written.lines().count();
            assert!(
                report.contains(&format!("wrote {lines} lines to {path_str}")),
                "{report}"
            );

            let path = dir.join(format!("compare.{format}"));
            let path_str = path.to_str().expect("utf8");
            let base = [
                "compare",
                "paper-fig5",
                "--policies",
                "lbp1-optimal,none",
                "--reps",
                "3",
                "--format",
                format,
            ];
            let stdout = call(&base).expect("stdout compare runs");
            let mut with_out: Vec<&str> = base.to_vec();
            with_out.extend(["--out", path_str]);
            let report = call(&with_out).expect("file compare runs");
            let written = std::fs::read_to_string(&path).expect("file written");
            assert_eq!(written, stdout, "{format}: compare bytes differ");
            let lines = written.lines().count();
            assert!(
                report.contains(&format!("wrote {lines} lines to {path_str}")),
                "{report}"
            );
        }
    }

    #[test]
    fn file_scenarios_load_and_run() {
        let dir = std::env::temp_dir().join("churnbal_lab_cli_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("custom.toml");
        let mut sc = registry::get("hot-spare").expect("preset");
        sc.name = "custom-hot-spare".into();
        std::fs::write(&path, sc.to_toml()).expect("write");
        let out = call(&["run", path.to_str().expect("utf8"), "--reps", "2"])
            .expect("file scenario runs");
        assert!(out.contains("custom-hot-spare"), "{out}");

        std::fs::write(&path, "name = \"broken\"\n").expect("write");
        let err = call(&["run", path.to_str().expect("utf8")]).unwrap_err();
        assert!(err.contains("missing key `reps`"), "{err}");
    }

    #[test]
    fn stats_reports_counters_telemetry_and_runtime() {
        let out =
            call(&["stats", "paper-fig5", "--reps", "3", "--threads", "2"]).expect("stats works");
        assert!(out.contains("paper-fig5"), "{out}");
        assert!(out.contains("probe dt 1 s"), "{out}");
        assert!(out.contains("counters (mean per replication)"), "{out}");
        assert!(out.contains("completion time"), "{out}");
        assert!(out.contains("transit task-seconds"), "{out}");
        assert!(
            out.contains("telemetry (histograms merged across replications)"),
            "{out}"
        );
        assert!(out.contains("queue length"), "{out}");
        assert!(out.contains("transfer delay"), "{out}");
        assert!(out.contains("tasks lost"), "{out}");
        assert!(out.contains("channel retries"), "{out}");
        assert!(out.contains("retry backoff"), "{out}");
        assert!(out.contains("runtime (observational"), "{out}");
        assert!(out.contains("events/s"), "{out}");
        assert!(out.contains("replication(s) quarantined"), "{out}");
        // The cadence is overridable; the header reflects it.
        let out = call(&["stats", "paper-fig5", "--reps", "2", "--probe-dt", "2.5"])
            .expect("stats with cadence works");
        assert!(out.contains("probe dt 2.5 s"), "{out}");
    }

    #[test]
    fn audit_flag_parses_and_lossy_presets_run_thread_invariant() {
        let out = call(&[
            "run",
            "lossy-fabric",
            "--reps",
            "2",
            "--audit",
            "--threads",
            "2",
        ])
        .expect("audited lossy run works");
        assert!(out.contains("lossy-fabric"), "{out}");
        let a = call(&[
            "run",
            "churn-storm-lossy",
            "--reps",
            "3",
            "--threads",
            "1",
            "--format",
            "csv",
            "--metrics",
            "full",
        ])
        .expect("single-threaded lossy run");
        let b = call(&[
            "run",
            "churn-storm-lossy",
            "--reps",
            "3",
            "--threads",
            "4",
            "--format",
            "csv",
            "--metrics",
            "full",
        ])
        .expect("multi-threaded lossy run");
        assert_eq!(a, b, "lossy output must not depend on --threads");
    }

    #[test]
    fn metrics_full_appends_counter_and_quantile_columns() {
        let base = ["sweep", "paper-fig3", "--reps", "2", "--metrics", "full"];
        let csv = call(&base).expect("metrics full sweep works");
        let header = csv.lines().next().expect("header");
        assert!(
            header.ends_with(
                "incomplete,mean_recoveries,mean_transfers,\
                 mean_tasks_clamped,mean_transit_task_seconds,\
                 mean_tasks_lost,mean_retries,mean_bounces"
            ),
            "{header}"
        );
        // Arming probes adds the histogram quantile block.
        let mut args = base.to_vec();
        args.extend(["--probe-dt", "20"]);
        let csv = call(&args).expect("probed metrics full sweep works");
        let header = csv.lines().next().expect("header");
        assert!(
            header.ends_with(
                "queue_p50,queue_p99,\
                 transfer_us_p50,transfer_us_p99,downtime_us_p50,downtime_us_p99,\
                 retry_us_p50,retry_us_p99"
            ),
            "{header}"
        );
        // `--metrics basic` (the default) keeps the legacy bytes.
        let plain = call(&["sweep", "paper-fig3", "--reps", "2"]).expect("plain sweep");
        let basic = call(&["sweep", "paper-fig3", "--reps", "2", "--metrics", "basic"])
            .expect("basic sweep");
        assert_eq!(plain, basic);
        let err = call(&["sweep", "paper-fig3", "--metrics", "warp"]).unwrap_err();
        assert!(err.contains("expected basic | full"), "{err}");
    }

    #[test]
    fn probe_out_writes_thread_invariant_jsonl() {
        let dir = std::env::temp_dir().join("churnbal_lab_cli_probe_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let mut files = Vec::new();
        for threads in ["1", "4"] {
            let path = dir.join(format!("probes_t{threads}.jsonl"));
            let path_str = path.to_str().expect("utf8");
            call(&[
                "run",
                "paper-fig5",
                "--reps",
                "3",
                "--probe-dt",
                "50",
                "--probe-out",
                path_str,
                "--threads",
                threads,
            ])
            .expect("probed run works");
            files.push(std::fs::read_to_string(&path).expect("probe file written"));
        }
        assert_eq!(files[0], files[1], "probe JSONL depends on --threads");
        let first = files[0].lines().next().expect("at least one probe tick");
        assert!(first.starts_with("{\"scenario\":\"paper-fig5\""), "{first}");
        assert!(first.contains("\"queue_p99\":"), "{first}");
        // Every line is for rep 0..3 and carries a time that is a
        // multiple of the cadence.
        for line in files[0].lines() {
            assert!(line.contains("\"time\":"), "{line}");
        }

        // A probe file without any cadence is an arming error (stats
        // excepted: it defaults its own cadence).
        let err = call(&[
            "run",
            "paper-fig5",
            "--probe-out",
            dir.join("never.jsonl").to_str().expect("utf8"),
        ])
        .unwrap_err();
        assert!(err.contains("--probe-out needs a probe cadence"), "{err}");
        let err = call(&["run", "paper-fig5", "--probe-dt", "-1"]).unwrap_err();
        assert!(err.contains("must be positive"), "{err}");
    }

    #[test]
    fn crash_safety_flags_parse_and_validate() {
        let err = call(&["run", "paper-fig5", "--task-timeout", "-1"]).unwrap_err();
        assert!(err.contains("must be positive"), "{err}");
        let err = call(&["run", "paper-fig5", "--task-timeout", "soon"]).unwrap_err();
        assert!(err.contains("expected a number"), "{err}");
        let err = call(&["run", "paper-fig5", "--cache"]).unwrap_err();
        assert!(err.contains("--cache needs a directory path"), "{err}");

        // The removed journal options are one typed error naming --cache,
        // from the command line and from a scenario file alike.
        let removed = |option: &str| {
            ScenarioError {
                scenario: "paper-fig5".into(),
                kind: ScenarioErrorKind::RemovedJournalOption {
                    option: option.into(),
                },
            }
            .to_string()
        };
        let err = call(&["run", "paper-fig5", "--journal", "out"]).unwrap_err();
        assert_eq!(err, removed("--journal"));
        assert!(err.contains("--cache DIR"), "{err}");
        let err = call(&["sweep", "paper-fig5", "--resume"]).unwrap_err();
        assert_eq!(err, removed("--resume"));
        let dir = std::env::temp_dir().join("churnbal_lab_cli_cache_flags");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("journaled.toml");
        let text = registry::get("paper-fig5").expect("preset").to_toml();
        std::fs::write(&path, format!("{text}\n[journal]\ndir = \"out\"\n")).expect("write");
        let path_str = path.to_str().expect("utf8");
        let err = call(&["run", path_str]).unwrap_err();
        assert_eq!(err, format!("{path_str}: {}", removed("[journal]")));

        // The cache stores result rows only; probe ticks would be lost,
        // so the combination is an arming error, not silent data loss.
        let cache = dir.join("cache");
        let cache_str = cache.to_str().expect("utf8");
        let probing = ScenarioError {
            scenario: "paper-fig5".into(),
            kind: ScenarioErrorKind::CacheWithProbing,
        }
        .to_string();
        for args in [
            &[
                "run",
                "paper-fig5",
                "--reps",
                "2",
                "--probe-dt",
                "50",
                "--cache",
                cache_str,
            ][..],
            &["stats", "paper-fig5", "--reps", "2", "--cache", cache_str][..],
        ] {
            assert_eq!(call(args).unwrap_err(), probing, "{args:?}");
        }
    }

    #[test]
    fn cached_runs_resume_to_identical_bytes() {
        let dir = std::env::temp_dir().join("churnbal_lab_cli_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().expect("utf8");
        let base = [
            "sweep",
            "paper-delay-crossover",
            "--reps",
            "2",
            "--format",
            "csv",
            "--metrics",
            "full",
        ];
        let clean = call(&base).expect("clean sweep runs");
        let mut cached_args = base.to_vec();
        cached_args.extend(["--cache", dir_str]);
        let cached = call(&cached_args).expect("cached sweep runs");
        assert_eq!(cached, clean, "--cache changed the output bytes");
        // One file per (point, policy) cell of the 5-point grid.
        let cells = std::fs::read_dir(&dir).expect("cache dir").count();
        assert_eq!(cells, 5);
        // A second run replays every cell, run totals included, and must
        // reproduce the same bytes without recomputing anything.
        let replayed = call(&cached_args).expect("replayed sweep runs");
        assert_eq!(replayed, clean, "replay changed the output bytes");
    }

    #[test]
    fn chaos_panic_rows_are_quarantined_not_fatal() {
        let out = call(&[
            "compare",
            "paper-fig5",
            "--policies",
            "lbp1-optimal,chaos-panic@1",
            "--reps",
            "3",
            "--threads",
            "2",
        ])
        .expect("a panicking replication must not kill the run");
        assert!(
            out.contains("warning: 1 replication(s) were quarantined"),
            "{out}"
        );
        assert!(out.contains("policy chaos-panic@1, rep 1:"), "{out}");
        // The survivors still produce a full table row for every policy.
        assert!(out.contains("lbp1-optimal"), "{out}");
        let err = call(&[
            "compare",
            "paper-fig5",
            "--policies",
            "lbp1-optimal,chaos-panic@1",
            "--reps",
            "3",
            "--fail-on-quarantine",
        ])
        .unwrap_err();
        assert!(err.contains("--fail-on-quarantine"), "{err}");
    }

    #[test]
    fn quarantine_summary_names_each_cell_on_a_multi_point_grid() {
        let args = "compare paper-delay-crossover --policies lbp1,chaos-panic@1,none --reps 3 \
                    --threads 2";
        let out = call(&args.split_whitespace().collect::<Vec<_>>()).expect("degraded run");
        let summary: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("warning"))
            .collect();
        let mut expected = vec!["warning: 5 replication(s) were quarantined; affected rows \
                                 aggregate the surviving replications only"
            .to_string()];
        expected.extend((0..5).map(|p| {
            format!(
                "  point {p}, policy chaos-panic@1, rep 1: panicked: chaos-panic: injected \
                 worker panic"
            )
        }));
        assert_eq!(summary, expected, "{out}");
    }

    #[test]
    fn help_is_printed_without_arguments() {
        let out = call(&[]).expect("usage");
        assert!(out.contains("usage: churnbal-lab"), "{out}");
        assert!(out.contains("compare"), "{out}");
    }
}
