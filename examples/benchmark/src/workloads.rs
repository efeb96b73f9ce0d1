//! The workloads: the inputs each one generates from the seed, the
//! `churnbal-lab` invocation it times, the set-up it repeats in-process,
//! the checks its output must pass, and the cells its trace replays.

use std::fs;
use std::path::{Path, PathBuf};

use churnbal::cluster::exec::PointJob;
use churnbal::cluster::{SimOptions, Simulator, SystemConfig};
use churnbal::core::PolicySpec;
use churnbal::lab::{
    registry, Campaign, Experiment, ExperimentResult, ExperimentSpec, PolicyEntry, RunOptions,
    Scenario,
};
use churnbal::stochastic::fnv1a_bytes;

/// The seed the pinned digests and the baseline were taken at (the
/// paper's IPDPS date).
pub const DEFAULT_SEED: u64 = 20_060_425;

/// Largest tolerated `|mc − theory| / standard error` on a Fig. 3 theory
/// row. The simulator matches Eq. 4 exactly, so this only has to reject
/// sampling noise: 42 rows at 5σ give a false alarm about once in 40,000
/// runs, where 4σ would give one in 400.
pub const Z_MAX: f64 = 5.0;

const FIG3_POLICIES: [&str; 3] = ["lbp1", "lbp2", "none"];
const FIG3_REPS: u64 = 2000;
/// Grid points of the Fig. 3 gain axis (0 to 1 in steps of 0.05).
const FIG3_POINTS: usize = 21;
/// Fig. 3 rows with an Eq. 4 theory column: LBP-1 and no balancing.
const FIG3_THEORY_ROWS: usize = 42;
const CASCADING_REPS: u64 = 1500;
const FLEET_REPS: u64 = 150;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig3Compare,
    CascadingChurn,
    LossyFleet,
    CampaignCold,
    CampaignWarm,
}

impl Workload {
    pub const ALL: [Self; 5] = [
        Self::Fig3Compare,
        Self::CascadingChurn,
        Self::LossyFleet,
        Self::CampaignCold,
        Self::CampaignWarm,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Fig3Compare => "fig3-compare",
            Self::CascadingChurn => "cascading-churn",
            Self::LossyFleet => "lossy-fleet",
            Self::CampaignCold => "campaign-cold",
            Self::CampaignWarm => "campaign-warm",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn is_campaign(self) -> bool {
        matches!(self, Self::CampaignCold | Self::CampaignWarm)
    }
}

/// The seed of one input, derived from the run's seed and a label that
/// names the input, so workloads never share random streams. Masked to 63
/// bits because scenario and campaign files hold signed integers.
#[must_use]
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    fnv1a_bytes(format!("{label}/{seed}").as_bytes()) >> 1
}

/// One spec file of the generated campaign.
struct SpecPlan {
    name: &'static str,
    scenarios: &'static [&'static str],
    policies: &'static [&'static str],
    tolerance: f64,
    r0: u64,
    max_reps: u64,
    /// Replications every cell ends with: the tolerance lies far outside
    /// the confidence half-width of every cell at `r0` (all converge in
    /// the first round) or at `max_reps` (all are capped).
    reps: u64,
}

/// The generated campaign, in spec-file (and so CSV) order: the
/// unreliable-machine regimes (Aspnes–Yang–Yin's adversarial churn over a
/// lossy channel among them) converge in their first round, and the paper
/// regimes run to their cap in two. Either way every seed does the same
/// rounds and replications, so the seed moves the numbers, not the work.
const CAMPAIGN: [SpecPlan; 2] = [
    SpecPlan {
        name: "fabric",
        scenarios: &["lossy-fabric", "churn-storm-lossy", "rack-shocks"],
        policies: &["lbp2", "none"],
        tolerance: 100.0,
        r0: 1024,
        max_reps: 2048,
        reps: 1024,
    },
    SpecPlan {
        name: "paper",
        scenarios: &[
            "paper-fig5",
            "brownout",
            "hetero-speeds",
            "hot-spare",
            "volunteer-grid",
        ],
        policies: &["lbp2", "none"],
        tolerance: 0.05,
        r0: 4096,
        max_reps: 8192,
        reps: 8192,
    },
];

/// A campaign whose seven rounds (4 to 256 replications, capped) follow
/// each other within milliseconds: its wall time is almost all spent
/// replacing cache files the previous round has just written.
const REWRITE_PROBE: SpecPlan = SpecPlan {
    name: "probe",
    scenarios: &["paper-fig5"],
    policies: &["lbp2", "none"],
    tolerance: 0.01,
    r0: 4,
    max_reps: 256,
    reps: 256,
};

fn campaign_cells() -> usize {
    CAMPAIGN
        .iter()
        .map(|s| s.scenarios.len() * s.policies.len())
        .sum()
}

fn spec_seed(seed: u64, spec: &str) -> u64 {
    derive_seed(seed, &format!("campaign/{spec}"))
}

/// A replication cell the trace replays: one `(system, policy)` pair run
/// `reps` times on the streams the CLI used, and the CSV values the replay
/// must reproduce bit for bit.
pub struct Cell {
    pub scenario: Scenario,
    pub config: SystemConfig,
    pub policy: PolicySpec,
    pub seed: u64,
    pub reps: u64,
    pub expected: Expected,
}

/// CSV values of one cell; the campaign CSV carries only the mean.
pub struct Expected {
    pub mean: f64,
    pub failures: Option<f64>,
    pub shipped: Option<f64>,
}

impl Cell {
    #[must_use]
    pub fn job(&self) -> PointJob<'_> {
        PointJob {
            config: &self.config,
            reps: self.reps,
            seed: self.seed,
            rep_base: 0,
            antithetic: false,
            options: SimOptions {
                deadline: self.scenario.deadline,
                ..SimOptions::default()
            },
        }
    }
}

/// What rendering the workload's output costs, on a result of the same
/// shape.
pub enum Renderer {
    Experiment(ExperimentResult),
    Campaign(Campaign),
}

impl Renderer {
    /// Renders once; returns the rendered length.
    ///
    /// # Errors
    /// The campaign report fails.
    pub fn render(&self) -> Result<usize, String> {
        match self {
            Self::Experiment(result) => Ok(result.to_csv().len()),
            Self::Campaign(campaign) => campaign.report().map(|s| s.len()),
        }
    }
}

/// A scenario file loaded the way the CLI loads it: parsed, validated,
/// grid-expanded, one system per grid point, policies resolved per point.
pub struct Loaded {
    pub scenario: Scenario,
    pub configs: Vec<SystemConfig>,
    /// Per grid point, the policies in CSV row order.
    pub policies: Vec<Vec<PolicySpec>>,
}

/// A minimal CSV table: the outputs hold no quoted fields. Repeated
/// header lines (concatenated files) are skipped.
pub struct Csv {
    header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Csv {
    fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let first = lines.next().ok_or("empty CSV output")?;
        let header: Vec<String> = first.split(',').map(str::to_string).collect();
        let rows = lines
            .filter(|l| *l != first)
            .map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>())
            .collect::<Vec<_>>();
        if let Some(bad) = rows.iter().find(|r| r.len() != header.len()) {
            return Err(format!(
                "CSV row has {} fields, header {}",
                bad.len(),
                header.len()
            ));
        }
        Ok(Self { header, rows })
    }

    fn col(&self, name: &str) -> Result<usize, String> {
        self.header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("CSV has no `{name}` column"))
    }

    fn column<T: std::str::FromStr>(&self, name: &str) -> Result<Vec<T>, String> {
        let c = self.col(name)?;
        self.rows
            .iter()
            .map(|r| {
                r[c].parse()
                    .map_err(|_| format!("`{name}` = `{}` does not parse", r[c]))
            })
            .collect()
    }
}

/// The generated inputs of one workload at one seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    dir: PathBuf,
}

impl Inputs {
    /// Writes the workload's inputs under `dir` (created if missing).
    ///
    /// # Errors
    /// The directory or a file cannot be written.
    pub fn generate(workload: Workload, dir: &Path, seed: u64) -> Result<Self, String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        let inputs = Self::open(workload, dir, seed)?;
        let write = |path: PathBuf, text: String| {
            fs::write(&path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
        };
        let s = derive_seed(seed, workload.name());
        match workload {
            Workload::Fig3Compare => write(inputs.scenario_path(), fig3_toml(s))?,
            Workload::CascadingChurn => write(inputs.scenario_path(), cascading_toml(s))?,
            Workload::LossyFleet => write(inputs.scenario_path(), fleet_toml(s))?,
            Workload::CampaignCold | Workload::CampaignWarm => {
                write_campaign(&inputs.campaign_dir(), &CAMPAIGN, seed)?;
            }
        }
        Ok(inputs)
    }

    /// Writes the rewrite probe's campaign afresh beside the inputs and
    /// returns the `churnbal-lab` arguments of one cold, single-threaded
    /// run of it.
    ///
    /// # Errors
    /// The campaign directory cannot be written.
    pub fn rewrite_probe_args(&self) -> Result<Vec<String>, String> {
        let dir = self.dir.join("rewrite-probe");
        write_campaign(&dir, std::slice::from_ref(&REWRITE_PROBE), self.seed)?;
        let dir = dir.display().to_string();
        Ok(["campaign", "run", &dir, "--threads", "1"]
            .map(str::to_string)
            .to_vec())
    }

    /// Inputs already generated under `dir`, left as they are.
    ///
    /// # Errors
    /// `dir` does not exist.
    pub fn open(workload: Workload, dir: &Path, seed: u64) -> Result<Self, String> {
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("cannot resolve `{}`: {e}", dir.display()))?;
        Ok(Self {
            workload,
            seed,
            dir,
        })
    }

    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn scenario_path(&self) -> PathBuf {
        self.dir.join(format!("{}.toml", self.workload.name()))
    }

    fn campaign_dir(&self) -> PathBuf {
        self.dir.join("campaign")
    }

    /// The `churnbal-lab` arguments of one timed invocation.
    #[must_use]
    pub fn cli_args(&self, threads: usize) -> Vec<String> {
        let path = self.scenario_path().display().to_string();
        let threads = threads.to_string();
        let mut args: Vec<String> = match self.workload {
            Workload::Fig3Compare => vec![
                "compare".into(),
                path,
                "--policies".into(),
                FIG3_POLICIES.join(","),
                "--reps".into(),
                FIG3_REPS.to_string(),
            ],
            Workload::CascadingChurn | Workload::LossyFleet => vec![
                "run".into(),
                path,
                "--reps".into(),
                self.run_reps().to_string(),
                "--metrics".into(),
                "full".into(),
            ],
            Workload::CampaignCold | Workload::CampaignWarm => {
                let dir = self.campaign_dir().display().to_string();
                return vec![
                    "campaign".into(),
                    "run".into(),
                    dir,
                    "--threads".into(),
                    threads,
                ];
            }
        };
        for arg in [
            "--format",
            "csv",
            "--threads",
            &threads,
            "--fail-on-quarantine",
        ] {
            args.push(arg.to_string());
        }
        args
    }

    /// Replications of a `run` workload's single cell.
    fn run_reps(&self) -> u64 {
        if self.workload == Workload::LossyFleet {
            FLEET_REPS
        } else {
            CASCADING_REPS
        }
    }

    /// Restores the state a timed invocation starts from: a cold campaign
    /// loses its cache and outputs, a warm one its outputs only. (On ext4,
    /// replacing an output file waits on a disk flush that swung warm runs
    /// between 95 and 150 ms from one minute to the next; the cold
    /// campaign's cache rounds still pay that cost.)
    ///
    /// # Errors
    /// The cache or output directory cannot be removed.
    pub fn reset(&self) -> Result<(), String> {
        match self.workload {
            Workload::CampaignCold => self.wipe_campaign(&["cache", "out"]),
            Workload::CampaignWarm => self.wipe_campaign(&["out"]),
            _ => Ok(()),
        }
    }

    fn wipe_campaign(&self, subdirs: &[&str]) -> Result<(), String> {
        for sub in subdirs {
            let path = self.campaign_dir().join(sub);
            if path.exists() {
                fs::remove_dir_all(&path)
                    .map_err(|e| format!("cannot remove `{}`: {e}", path.display()))?;
            }
        }
        Ok(())
    }

    /// The output an invocation produced: its stdout, or for a campaign
    /// the CSV files it wrote (in file-name order).
    ///
    /// # Errors
    /// A campaign CSV is missing.
    pub fn output(&self, stdout: &[u8]) -> Result<Vec<u8>, String> {
        if !self.workload.is_campaign() {
            return Ok(stdout.to_vec());
        }
        let mut out = Vec::new();
        for spec in &CAMPAIGN {
            let path = self
                .campaign_dir()
                .join("out")
                .join(format!("{}.csv", spec.name));
            out.extend(
                fs::read(&path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?,
            );
        }
        Ok(out)
    }

    /// Checks one invocation's stdout and output; returns the replications
    /// the output covers. `cold` says whether a campaign run started
    /// without a cache.
    ///
    /// # Errors
    /// Any check that fails, with the reason.
    pub fn check(&self, stdout: &str, output: &[u8], cold: bool) -> Result<u64, String> {
        let text = std::str::from_utf8(output).map_err(|_| "output is not UTF-8".to_string())?;
        let csv = Csv::parse(text)?;
        let reps = csv.column::<u64>("reps")?;
        let total: u64 = reps.iter().sum();
        match self.workload {
            Workload::Fig3Compare => {
                let want = FIG3_POINTS * FIG3_POLICIES.len();
                expect(csv.rows.len() == want, || {
                    format!("{} rows, expected {want}", csv.rows.len())
                })?;
                expect(reps.iter().all(|&r| r == FIG3_REPS), || {
                    "a row lost replications".into()
                })?;
                expect(
                    csv.column::<u64>("incomplete")?.iter().all(|&n| n == 0),
                    || "a replication did not complete".into(),
                )?;
                check_theory(&csv)?;
            }
            Workload::CascadingChurn | Workload::LossyFleet => {
                let want = self.run_reps();
                expect(reps == [want], || {
                    format!("reps {reps:?}, expected [{want}]")
                })?;
                let mean = csv.column::<f64>("mean_completion")?[0];
                expect(mean.is_finite() && mean > 0.0, || {
                    format!("mean completion {mean}")
                })?;
            }
            Workload::CampaignCold | Workload::CampaignWarm => {
                let cells = campaign_cells();
                expect(csv.rows.len() == cells, || {
                    format!("{} campaign rows, expected {cells}", csv.rows.len())
                })?;
                let specs = csv.col("spec")?;
                for (row, &n) in csv.rows.iter().zip(&reps) {
                    let want = CAMPAIGN
                        .iter()
                        .find(|p| p.name == row[specs])
                        .map(|p| p.reps);
                    expect(want == Some(n), || {
                        format!(
                            "spec `{}` cell ran {n} replications, expected {want:?}",
                            row[specs]
                        )
                    })?;
                }
                let done = format!("{cells} cell(s), {cells} done");
                expect(stdout.contains(&done), || {
                    format!("campaign did not finish: {stdout}")
                })?;
                let simulated = simulated_reps(stdout)?;
                let want = if cold { total } else { 0 };
                expect(simulated == want, || {
                    format!("campaign simulated {simulated} replication(s), expected {want}")
                })?;
                expect(
                    csv.column::<f64>("mean")?.iter().all(|m| m.is_finite()),
                    || "a campaign mean is not finite".into(),
                )?;
            }
        }
        Ok(total)
    }

    /// Loads the scenario file the way the CLI does.
    ///
    /// # Errors
    /// The file does not parse or validate.
    pub fn load(&self) -> Result<Loaded, String> {
        let path = self.scenario_path();
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let scenario = Scenario::from_toml(&text)?;
        scenario.validate().map_err(|e| e.to_string())?;
        let tokens: &[&str] = if self.workload == Workload::Fig3Compare {
            &FIG3_POLICIES
        } else {
            &[]
        };
        let base: Vec<PolicySpec> = if tokens.is_empty() {
            vec![scenario.policy.clone()]
        } else {
            tokens
                .iter()
                .map(|t| PolicySpec::parse(t, &scenario.policy))
                .collect::<Result<_, _>>()?
        };
        // The only generated axis is Fig. 3's gain axis: it re-gains every
        // gain-bearing policy of a point.
        let gains: Vec<Option<f64>> = scenario.axes.first().map_or(vec![None], |axis| {
            axis.values.iter().copied().map(Some).collect()
        });
        let mut configs = Vec::with_capacity(gains.len());
        let mut policies = Vec::with_capacity(gains.len());
        for gain in gains {
            let config = scenario.system_config()?;
            let set = base
                .iter()
                .map(|p| match gain {
                    Some(g) if p.gain().is_some() => p.with_gain(g),
                    _ => Ok(p.clone()),
                })
                .collect::<Result<Vec<_>, _>>()?;
            for p in &set {
                p.validate_for(&config)?;
            }
            configs.push(config);
            policies.push(set);
        }
        Ok(Loaded {
            scenario,
            configs,
            policies,
        })
    }

    /// One in-process pass of the set-up that precedes the first
    /// replication: loading and validating the inputs and building the
    /// first simulator; for a campaign, `Campaign::load`.
    ///
    /// # Errors
    /// The inputs do not load.
    pub fn setup(&self) -> Result<(), String> {
        if self.workload.is_campaign() {
            std::hint::black_box(Campaign::load(&self.campaign_dir())?);
            return Ok(());
        }
        let loaded = self.load()?;
        let job = PointJob {
            config: &loaded.configs[0],
            reps: 1,
            seed: loaded.scenario.seed,
            rep_base: 0,
            antithetic: false,
            options: SimOptions {
                deadline: loaded.scenario.deadline,
                ..SimOptions::default()
            },
        };
        std::hint::black_box(Simulator::new(
            job.config,
            &job.streams_for_rep(0),
            job.options,
        ));
        Ok(())
    }

    /// The replication cells behind `output`, in row order.
    ///
    /// # Errors
    /// The output does not match the inputs.
    pub fn cells(&self, output: &[u8]) -> Result<Vec<Cell>, String> {
        let text = std::str::from_utf8(output).map_err(|_| "output is not UTF-8".to_string())?;
        let csv = Csv::parse(text)?;
        let reps = csv.column::<u64>("reps")?;
        if self.workload.is_campaign() {
            let names = csv.col("scenario")?;
            let labels = csv.col("policy")?;
            let specs = csv.col("spec")?;
            let means = csv.column::<f64>("mean")?;
            return csv
                .rows
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let scenario = registry::get(&row[names])
                        .ok_or_else(|| format!("unknown scenario `{}`", row[names]))?;
                    Ok(Cell {
                        config: scenario.system_config()?,
                        policy: PolicySpec::parse(&row[labels], &scenario.policy)?,
                        scenario,
                        seed: spec_seed(self.seed, &row[specs]),
                        reps: reps[i],
                        expected: Expected {
                            mean: means[i],
                            failures: None,
                            shipped: None,
                        },
                    })
                })
                .collect();
        }
        let loaded = self.load()?;
        let means = csv.column::<f64>("mean_completion")?;
        let failures = csv.column::<f64>("mean_failures")?;
        let shipped = csv.column::<f64>("mean_tasks_shipped")?;
        let mut cells = Vec::new();
        for (config, set) in loaded.configs.iter().zip(&loaded.policies) {
            for policy in set {
                let i = cells.len();
                if i >= csv.rows.len() {
                    return Err("CSV has fewer rows than the grid".into());
                }
                cells.push(Cell {
                    scenario: loaded.scenario.clone(),
                    config: config.clone(),
                    policy: policy.clone(),
                    seed: loaded.scenario.seed,
                    reps: reps[i],
                    expected: Expected {
                        mean: means[i],
                        failures: Some(failures[i]),
                        shipped: Some(shipped[i]),
                    },
                });
            }
        }
        if cells.len() != csv.rows.len() {
            return Err("CSV has more rows than the grid".into());
        }
        Ok(cells)
    }

    /// The experiments the exec layer runs for this workload, at
    /// `threads`. A campaign runs each of its scenarios as one comparison
    /// with the replications its most-sampled cell needed.
    ///
    /// # Errors
    /// The inputs do not load.
    pub fn experiments(
        &self,
        cells: &[Cell],
        threads: usize,
    ) -> Result<Vec<ExperimentSpec>, String> {
        let options = |reps: u64, seed: Option<u64>| RunOptions {
            reps: Some(reps),
            seed,
            threads,
            metrics_full: true,
            ..RunOptions::default()
        };
        let entries = |tokens: &[&str], scenario: &Scenario| -> Result<Vec<PolicyEntry>, String> {
            tokens
                .iter()
                .map(|t| {
                    Ok(PolicyEntry::named(
                        *t,
                        PolicySpec::parse(t, &scenario.policy)?,
                    ))
                })
                .collect()
        };
        match self.workload {
            Workload::Fig3Compare => {
                let scenario = self.load()?.scenario;
                let policies = entries(&FIG3_POLICIES, &scenario)?;
                Ok(vec![ExperimentSpec::compare(
                    scenario,
                    Vec::new(),
                    policies,
                    options(FIG3_REPS, None),
                )])
            }
            Workload::CascadingChurn | Workload::LossyFleet => {
                let scenario = self.load()?.scenario;
                Ok(vec![ExperimentSpec::sweep(
                    scenario,
                    Vec::new(),
                    options(self.run_reps(), None),
                )])
            }
            Workload::CampaignCold | Workload::CampaignWarm => {
                let mut specs = Vec::new();
                for plan in &CAMPAIGN {
                    let seed = spec_seed(self.seed, plan.name);
                    for name in plan.scenarios {
                        let reps = cells
                            .iter()
                            .filter(|c| c.seed == seed && c.scenario.name == *name)
                            .map(|c| c.reps)
                            .max()
                            .ok_or_else(|| format!("no campaign cell for `{name}`"))?;
                        let scenario = registry::get(name)
                            .ok_or_else(|| format!("unknown scenario `{name}`"))?;
                        let policies = entries(plan.policies, &scenario)?;
                        specs.push(ExperimentSpec::compare(
                            scenario,
                            Vec::new(),
                            policies,
                            options(reps, Some(seed)),
                        ));
                    }
                }
                Ok(specs)
            }
        }
    }

    /// A result of the shape this workload renders: the experiment
    /// itself at two replications per cell, or the finished campaign.
    ///
    /// # Errors
    /// The inputs do not load or the experiment fails.
    pub fn renderer(&self, cells: &[Cell]) -> Result<Renderer, String> {
        if self.workload.is_campaign() {
            return Ok(Renderer::Campaign(Campaign::load(&self.campaign_dir())?));
        }
        let mut spec = self
            .experiments(cells, 1)?
            .pop()
            .ok_or("no experiment to render")?;
        spec.options.reps = Some(2);
        Ok(Renderer::Experiment(Experiment::new(spec).collect()?))
    }

    /// Runs `report` on the finished campaign.
    ///
    /// # Errors
    /// The report fails.
    pub fn campaign_report(&self) -> Result<String, String> {
        Campaign::load(&self.campaign_dir())?.report()
    }
}

fn expect(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// `|mc − theory|` in standard errors (`ci95 / 1.96`).
#[must_use]
pub fn z_score(mc_minus_theory: f64, ci95: f64) -> f64 {
    mc_minus_theory.abs() / (ci95 / 1.96)
}

/// Every Fig. 3 row with an Eq. 4 theory mean must agree with it within
/// [`Z_MAX`] standard errors.
fn check_theory(csv: &Csv) -> Result<(), String> {
    let gap = csv.col("mc_minus_theory")?;
    let ci = csv.col("ci95")?;
    let mut rows = 0;
    for row in &csv.rows {
        if row[gap].is_empty() {
            continue;
        }
        rows += 1;
        let parse = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("`{s}` is not a number"))
        };
        let z = z_score(parse(&row[gap])?, parse(&row[ci])?);
        expect(z <= Z_MAX, || {
            format!("a theory row is {z:.2} standard errors off Eq. 4")
        })?;
    }
    expect(rows == FIG3_THEORY_ROWS, || {
        format!("{rows} theory rows, expected {FIG3_THEORY_ROWS}")
    })
}

/// The `M` of the campaign summary line `this run: N round(s), M
/// replication(s) simulated`.
fn simulated_reps(stdout: &str) -> Result<u64, String> {
    stdout
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix("this run: ")?;
            let (_, reps) = rest.split_once(", ")?;
            reps.strip_suffix(" replication(s) simulated")?.parse().ok()
        })
        .ok_or_else(|| format!("no replication count in campaign output: {stdout}"))
}

fn fig3_toml(seed: u64) -> String {
    let gains: Vec<String> = (0..=20)
        .map(|i| format!("{:?}", f64::from(i) * 0.05))
        .collect();
    format!(
        r#"name = "fig3-compare"
description = "Fig. 3: LBP-1, LBP-2 and no balancing on workload (100, 60) over the gain grid"
reps = 500
seed = {seed}

[network]
fixed = 0.0
per_task = 0.02
law = "exponential-batch"

[policy]
kind = "lbp1"
sender = 0
receiver = 1
gain = 0.35

[churn]
kind = "independent"

[arrivals]
kind = "none"

[[node]]
service_rate = 1.08
failure_rate = 0.05
recovery_rate = 0.1
initial_tasks = 100
count = 1

[[node]]
service_rate = 1.86
failure_rate = 0.05
recovery_rate = 0.05
initial_tasks = 60
count = 1

[[axis]]
param = "gain"
values = [{}]
"#,
        gains.join(", ")
    )
}

fn cascading_toml(seed: u64) -> String {
    format!(
        r#"name = "cascading-churn"
description = "24 nodes under cascading failures (amplification 3): 4 hot nodes x 200 tasks, 20 x 8; global LBP-2"
reps = 500
seed = {seed}

[network]
fixed = 0.0
per_task = 0.02
law = "exponential-batch"

[policy]
kind = "lbp2"
gain = 1.0

[churn]
kind = "cascading"
amplification = 3.0

[arrivals]
kind = "none"

[[node]]
service_rate = 1.2
failure_rate = 0.025
recovery_rate = 0.1
initial_tasks = 200
count = 4

[[node]]
service_rate = 1.2
failure_rate = 0.025
recovery_rate = 0.1
initial_tasks = 8
count = 20
"#
    )
}

fn fleet_toml(seed: u64) -> String {
    format!(
        r#"name = "lossy-fleet"
description = "4096-node 64x64 torus to t = 25: row shocks, a bouncing lossy channel, neighbor-local LBP-2"
reps = 20
seed = {seed}
deadline = 25.0

[network]
fixed = 0.0
per_task = 0.02
law = "exponential-batch"

[policy]
kind = "lbp2"
gain = 1.0

[churn]
kind = "rack-shocks"
shock_rate = 2.0
group_size = 64
hit_probabilities = [0.1, 0.4, 0.2, 0.6]

[channel]
kind = "lossy"
loss_probability = 0.02
on_down = "bounce"
max_retries = 4
retry_backoff = 0.05

[topology]
kind = "torus"
rows = 64
cols = 64

[arrivals]
kind = "none"

[[node]]
service_rate = 1.2
failure_rate = 0.025
recovery_rate = 0.1
initial_tasks = 400
count = 64

[[node]]
service_rate = 1.2
failure_rate = 0.025
recovery_rate = 0.1
initial_tasks = 4
count = 4032
"#
    )
}

/// Replaces `dir` with a campaign of `specs`.
fn write_campaign(dir: &Path, specs: &[SpecPlan], seed: u64) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("cannot clear `{}`: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    for spec in specs {
        let path = dir.join(format!("{}.toml", spec.name));
        fs::write(&path, spec_toml(spec, spec_seed(seed, spec.name)))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    Ok(())
}

fn spec_toml(spec: &SpecPlan, seed: u64) -> String {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "scenarios = [{}]\npolicies = [{}]\nseed = {seed}\n\n[stopping]\ntolerance = {:?}\nr0 = {}\nmax_reps = {}\n",
        list(spec.scenarios),
        list(spec.policies),
        spec.tolerance,
        spec.r0,
        spec.max_reps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_distinct_and_fit_a_toml_integer() {
        let a = derive_seed(DEFAULT_SEED, "fig3-compare");
        assert_eq!(a, derive_seed(DEFAULT_SEED, "fig3-compare"));
        assert_ne!(a, derive_seed(DEFAULT_SEED, "lossy-fleet"));
        assert_ne!(a, derive_seed(DEFAULT_SEED + 1, "fig3-compare"));
        for seed in [0, 1, u64::MAX] {
            assert!(i64::try_from(derive_seed(seed, "x")).is_ok());
        }
    }

    #[test]
    fn z_score_is_the_gap_in_standard_errors() {
        assert!((z_score(-1.0, 1.96) - 1.0).abs() < 1e-12);
        assert!((z_score(2.0, 0.98) - 4.0).abs() < 1e-12);
        let csv = |gap: &str| {
            let mut text = String::from("ci95,mc_minus_theory\n");
            for _ in 0..FIG3_THEORY_ROWS {
                text.push_str(&format!("1.96,{gap}\n"));
            }
            text.push_str("1.96,\n");
            Csv::parse(&text).expect("valid CSV")
        };
        assert!(check_theory(&csv("-4.9")).is_ok());
        assert!(check_theory(&csv("5.1"))
            .unwrap_err()
            .contains("standard errors"));
    }

    #[test]
    fn campaign_summary_lines_parse() {
        let out = "campaign d: 16 cell(s), 16 done (16 finished this run)\n\
                   this run: 5 round(s), 9152 replication(s) simulated\ncsv: d/out/a.csv\n";
        assert_eq!(simulated_reps(out), Ok(9152));
        assert!(simulated_reps("nothing").is_err());
    }

    #[test]
    fn generated_inputs_parse() {
        for toml in [fig3_toml(7), cascading_toml(7), fleet_toml(7)] {
            let scenario = Scenario::from_toml(&toml).expect("generated scenario parses");
            assert_eq!(scenario.seed, 7);
            scenario.validate().expect("generated scenario validates");
        }
        assert_eq!(campaign_cells(), 16);
        for spec in CAMPAIGN.iter().chain([&REWRITE_PROBE]) {
            let dir = Path::new(".");
            churnbal::lab::CampaignSpec::parse(&spec_toml(spec, 7), spec.name, dir)
                .expect("generated spec parses");
        }
    }
}
