//! End-to-end measurement: time real `churnbal-lab` processes, closed
//! loop, one at a time, and check every output.

use std::fs::{self, File};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use churnbal::stochastic::fnv1a_bytes;

use crate::baseline;
use crate::stats::{median, quartiles};
use crate::sys;
use crate::workloads::{Inputs, Workload, DEFAULT_SEED};

/// Fewest timed invocations per run, however long each takes.
const MIN_INVOCATIONS: usize = 3;
/// Fewest repetitions of an in-process call timed by [`repeat`].
const MIN_REPEATS: usize = 11;
/// Time spent repeating an in-process call before taking its median.
const REPEAT_BUDGET: Duration = Duration::from_millis(500);
/// Shortest time one sample of a repeated call covers.
const BATCH_TARGET: Duration = Duration::from_micros(20);

/// One finished `churnbal-lab` process.
pub struct Invocation {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Highest `VmHWM` sampled while it ran.
    pub peak_rss: u64,
    pub stdout: String,
    /// Set when it exited nonzero, with its stderr.
    pub error: Option<String>,
}

/// Runs `bin args` with stdout and stderr sent to files in `dir`, timing
/// spawn to exit while a second thread samples the child's peak resident
/// set: continuously for the first 20 ms, so that short processes are
/// caught near their peak, then every 10 ms.
///
/// # Errors
/// The process cannot be spawned or its output read.
pub fn invoke(bin: &Path, args: &[String], dir: &Path) -> Result<Invocation, String> {
    let out_path = dir.join("stdout.txt");
    let err_path = dir.join("stderr.txt");
    // Replaced, not truncated: ext4 flushes a truncated file's new data
    // when it is closed, which would put a disk wait into the child's exit.
    let file = |p: &Path| {
        let _ = fs::remove_file(p);
        File::create(p).map_err(|e| format!("cannot create `{}`: {e}", p.display()))
    };
    let (out, err) = (file(&out_path)?, file(&err_path)?);
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot run `{}`: {e}", bin.display()))?;
    let pid = child.id().to_string();
    let done = AtomicBool::new(false);
    let (status, wall_s, peak_rss) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                if let Some(hwm) = sys::status_bytes(&pid, "VmHWM") {
                    peak = peak.max(hwm);
                }
                if start.elapsed() < Duration::from_millis(20) {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            peak
        });
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        (
            status,
            wall_s,
            sampler.join().expect("the sampler does not panic"),
        )
    });
    let status = status.map_err(|e| format!("cannot wait for `{}`: {e}", bin.display()))?;
    let read =
        |p: &Path| fs::read_to_string(p).map_err(|e| format!("cannot read `{}`: {e}", p.display()));
    let stdout = read(&out_path)?;
    let error = (!status.success()).then(|| {
        let stderr = read(&err_path).unwrap_or_default();
        format!(
            "churnbal-lab {} exited with {status}: {}",
            args.join(" "),
            stderr.trim()
        )
    });
    Ok(Invocation {
        wall_s,
        peak_rss,
        stdout,
        error,
    })
}

/// One metric with every sample behind it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of its samples.
    #[must_use]
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            unit,
            value: median(&samples),
            samples,
        }
    }

    /// A metric measured once (or derived).
    #[must_use]
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples: vec![value],
        }
    }

    /// The detailed form: value, median, quartiles and sample count.
    #[must_use]
    pub fn detail_json(&self) -> String {
        let (q1, q3) = quartiles(&self.samples);
        crate::json::object(&[
            ("value", crate::json::number(self.value)),
            ("unit", crate::json::string(self.unit)),
            ("median", crate::json::number(median(&self.samples))),
            ("q1", crate::json::number(q1)),
            ("q3", crate::json::number(q3)),
            ("n", self.samples.len().to_string()),
        ])
    }
}

/// The tally of a run: replications attempted and failed, and why.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts an invocation that covered `reps` replications; a problem
    /// fails all of them.
    pub fn add(&mut self, reps: u64, problem: Option<String>) {
        self.attempted += reps;
        if let Some(p) = problem {
            self.failed += reps;
            self.problems.push(p);
        }
    }

    /// A problem that fails everything attempted so far.
    pub fn fail_all(&mut self, problem: String) {
        self.failed = self.attempted.max(1);
        self.attempted = self.attempted.max(1);
        self.problems.push(problem);
    }
}

/// Checks invocations against the first good output and the pinned
/// digest.
pub struct Checker<'a> {
    inputs: &'a Inputs,
    reference: Option<Vec<u8>>,
    reps: u64,
}

impl<'a> Checker<'a> {
    #[must_use]
    pub fn new(inputs: &'a Inputs) -> Self {
        Self {
            inputs,
            reference: None,
            reps: 1,
        }
    }

    /// The output every later invocation must reproduce.
    #[must_use]
    pub fn reference(&self) -> Option<&[u8]> {
        self.reference.as_deref()
    }

    /// Checks one invocation and records it in `tally`; `cold` says
    /// whether a campaign started without a cache.
    pub fn record(&mut self, inv: &Invocation, cold: bool, tally: &mut Tally) {
        let checked = match &inv.error {
            Some(e) => Err(e.clone()),
            None => self.check(inv, cold),
        };
        match checked {
            Ok(reps) => {
                self.reps = reps;
                tally.add(reps, None);
            }
            Err(problem) => tally.add(self.reps, Some(problem)),
        }
    }

    fn check(&mut self, inv: &Invocation, cold: bool) -> Result<u64, String> {
        let output = self.inputs.output(inv.stdout.as_bytes())?;
        let reps = self.inputs.check(&inv.stdout, &output, cold)?;
        match &self.reference {
            Some(reference) if *reference != output => {
                return Err(format!(
                    "output differs between invocations (digest {:016x} vs {:016x})",
                    fnv1a_bytes(&output),
                    fnv1a_bytes(reference)
                ));
            }
            Some(_) => {}
            None => {
                pinned_check(self.inputs, &output)?;
                self.reference = Some(output);
            }
        }
        Ok(reps)
    }
}

/// At the default seed the output must hash to its pinned digest.
fn pinned_check(inputs: &Inputs, output: &[u8]) -> Result<(), String> {
    if inputs.seed != DEFAULT_SEED {
        return Ok(());
    }
    let (digest, pinned) = (
        fnv1a_bytes(output),
        baseline::pinned_digest(inputs.workload),
    );
    if digest == pinned {
        Ok(())
    } else {
        Err(format!(
            "output digest {digest:016x} differs from the pinned {pinned:016x}"
        ))
    }
}

/// Runs and checks the cold campaign a warm workload starts from.
///
/// # Errors
/// The campaign cannot be run.
pub fn prime(
    inputs: &Inputs,
    bin: &Path,
    threads: usize,
    checker: &mut Checker<'_>,
    tally: &mut Tally,
) -> Result<(), String> {
    if inputs.workload == Workload::CampaignWarm {
        let inv = invoke(bin, &inputs.cli_args(threads), inputs.dir())?;
        checker.record(&inv, true, tally);
    }
    Ok(())
}

/// A finished campaign must render its `report`.
pub fn check_report(inputs: &Inputs, tally: &mut Tally) {
    if inputs.workload.is_campaign() {
        if let Err(e) = inputs.campaign_report() {
            tally.fail_all(format!("campaign report failed: {e}"));
        }
    }
}

/// The metrics of one workload's run, and what its checks found.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Timed `churnbal-lab` invocations.
    pub invocations: usize,
}

/// Measures `inputs` for `seconds`: the in-process set-up median, then
/// one warm-up invocation, then timed invocations until the time is up.
///
/// # Errors
/// A process cannot be spawned or `/proc` cannot be read.
pub fn end_to_end(
    inputs: &Inputs,
    bin: &Path,
    threads: usize,
    seconds: u64,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut checker = Checker::new(inputs);
    prime(inputs, bin, threads, &mut checker, &mut tally)?;
    let setups = repeat(|| inputs.setup())?;

    let cold = inputs.workload != Workload::CampaignWarm;
    let args = inputs.cli_args(threads);
    inputs.reset()?;
    let warm_up = invoke(bin, &args, inputs.dir())?;
    checker.record(&warm_up, cold, &mut tally);

    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut ticks = 0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while walls.len() < MIN_INVOCATIONS || Instant::now() < deadline {
        inputs.reset()?;
        let before = sys::children_ticks()?;
        let inv = invoke(bin, &args, inputs.dir())?;
        ticks += sys::children_ticks()? - before;
        checker.record(&inv, cold, &mut tally);
        walls.push(inv.wall_s);
        peaks.push(inv.peak_rss as f64 / (1024.0 * 1024.0));
    }
    check_report(inputs, &mut tally);

    let n = walls.len();
    let reps = checker.reps as f64;
    let reps_per_s: Vec<f64> = walls.iter().map(|w| reps / w).collect();
    let wall = Metric::median_of("wall_s", "s", walls);
    // Child CPU time comes in 10 ms ticks, too coarse for one short
    // process, so it is totalled over the run and shared out.
    let cpu_s = ticks as f64 / sys::TICKS_PER_SECOND / n as f64;
    let metrics = vec![
        Metric::median_of("setup_s", "s", setups),
        Metric {
            value: reps / wall.value,
            ..Metric::median_of("reps_per_s", "1/s", reps_per_s)
        },
        wall,
        Metric::single("cpu_s", "s", cpu_s),
        Metric::median_of("peak_rss_mb", "MB", peaks),
    ];
    Ok(Outcome {
        metrics,
        tally,
        invocations: n,
    })
}

/// Times `f` repeatedly for about [`REPEAT_BUDGET`], at least
/// [`MIN_REPEATS`] times; returns seconds per call. Calls shorter than
/// [`BATCH_TARGET`] are timed in batches, so that the clock's resolution
/// does not round every sample to the same value.
///
/// # Errors
/// The first error `f` returns.
pub fn repeat<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<f64>, String> {
    let t = Instant::now();
    std::hint::black_box(f()?);
    let once = t.elapsed().as_nanos().max(1);
    let batch = u32::try_from(BATCH_TARGET.as_nanos() / once).map_or(u32::MAX, |b| b.max(1));
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPEATS || start.elapsed() < REPEAT_BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f()?);
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(batch));
    }
    Ok(samples)
}
