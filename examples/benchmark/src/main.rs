//! The churnbal benchmark: end-to-end metrics from real `churnbal-lab`
//! processes and per-layer metrics from a traced in-process replay of the
//! same work. See README.md for the workloads, metrics and bounds.

mod baseline;
mod json;
mod measure;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use measure::{Outcome, Tally};
use workloads::{Inputs, Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage: benchmark [run | trace | check] [--workload NAME] [--seed S] [--seconds N]
       benchmark --workload NAME --seed S --seconds N --trace 0|1

commands:
  run      time each workload's churnbal-lab invocations and print its
           end-to-end metrics (the default)
  trace    replay each workload in-process with spans and print its
           per-layer metrics
  check    run each workload once and check its output; fig3-compare and
           lossy-fleet must also give the same bytes on 1 and 2 threads

options:
  --workload NAME  fig3-compare | cascading-churn | lossy-fleet |
                   campaign-cold | campaign-warm (default: all of them)
  --seed S         seed the inputs are generated from (default 20060425)
  --seconds N      measuring time per workload, 1 to 600 (default 10)
  --trace 0|1      without a command: 0 runs `run`, 1 runs `trace`

Each result ends with one JSON line: correct, attempted, failed, metrics.
";

/// Worker threads of the timed invocations, before the `nproc` cap.
const THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Run,
    Trace,
    Check,
    /// Internal: the fresh process behind the `cluster.exec` metrics.
    ExecProbe,
}

struct Args {
    mode: Mode,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    /// Exec probe only: thread count and input directory.
    threads: Option<usize>,
    dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter().peekable();
    let command = match it.peek().map(|s| s.as_str()) {
        Some("run") => Some(Mode::Run),
        Some("trace") => Some(Mode::Trace),
        Some("check") => Some(Mode::Check),
        Some("exec-probe") => Some(Mode::ExecProbe),
        Some(other) if !other.starts_with("--") => {
            return Err(format!("unknown command `{other}`"))
        }
        _ => None,
    };
    if command.is_some() {
        it.next();
    }
    let mut parsed = Args {
        mode: command.unwrap_or(Mode::Run),
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10,
        threads: None,
        dir: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds: `{v}` is not a whole number from 1 to 600")
                    })?;
            }
            "--trace" if command.is_none() => match value()?.as_str() {
                "0" => parsed.mode = Mode::Run,
                "1" => parsed.mode = Mode::Trace,
                v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
            },
            "--threads" if command == Some(Mode::ExecProbe) => {
                let v = value()?;
                parsed.threads = Some(
                    v.parse()
                        .map_err(|_| format!("--threads: `{v}` is not a count"))?,
                );
            }
            "--dir" if command == Some(Mode::ExecProbe) => {
                parsed.dir = Some(PathBuf::from(value()?))
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("-h" | "--help" | "help")
    ) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprint!("benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The repository this benchmark was built from.
fn repo_root() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize()
        .map_err(|e| format!("cannot find the repository at `{}`: {e}", root.display()))
}

/// Cargo's target directory for the repository: `CARGO_TARGET_DIR`
/// (relative to the working directory, as Cargo reads it) or
/// `<root>/target`.
fn target_dir(root: &Path) -> Result<PathBuf, String> {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
            Ok(cwd.join(dir))
        }
        None => Ok(root.join("target")),
    }
}

/// Builds `churnbal-lab` from this checkout (a no-op when it is up to
/// date) and returns its path.
fn build_cli(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "churnbal_lab", "--bin", "churnbal-lab"])
        .current_dir(root)
        .status()
        .is_ok_and(|s| s.success());
    let bin = target.join("release").join("churnbal-lab");
    if !built || !bin.is_file() {
        return Err(format!(
            "no up-to-date churnbal-lab at `{}`: building it failed; \
             run `cargo build --release` in `{}`",
            bin.display(),
            root.display()
        ));
    }
    Ok(bin)
}

/// `min(THREADS, nproc)`, and a note when `nproc` lowered it.
fn threads() -> (usize, Option<String>) {
    let nproc = sys::nproc();
    if nproc < THREADS {
        (
            nproc,
            Some(format!(
                "lowered from {THREADS} to {nproc} (nproc = {nproc})"
            )),
        )
    } else {
        (THREADS, None)
    }
}

/// Runs the requested mode; `Ok(false)` when any check failed.
fn run(args: &Args) -> Result<bool, String> {
    if args.mode == Mode::ExecProbe {
        let dir = args.dir.as_deref().ok_or("exec-probe needs --dir")?;
        let inputs = Inputs::open(args.workloads[0], dir, args.seed)?;
        trace::exec_probe(&inputs, args.threads.unwrap_or(1))?;
        return Ok(true);
    }
    let root = repo_root()?;
    let target = target_dir(&root)?;
    let bench_dir = target.join("benchmark");
    std::fs::create_dir_all(&bench_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", bench_dir.display()))?;
    let bin = build_cli(&root, &target)?;
    let (threads, lowered) = threads();
    let fingerprint = sys::Fingerprint::gather(&root, &bench_dir);
    let mut all_ok = true;
    for &workload in &args.workloads {
        let inputs = Inputs::generate(workload, &bench_dir.join(workload.name()), args.seed)?;
        let outcome = match args.mode {
            Mode::Run => measure::end_to_end(&inputs, &bin, threads, args.seconds)?,
            Mode::Trace => trace::trace(&inputs, &bin, threads)?,
            Mode::Check => {
                let tally = check(&inputs, &bin, threads)?;
                let ok = tally.problems.is_empty();
                println!("{} {}", if ok { "ok  " } else { "FAIL" }, workload.name());
                for p in &tally.problems {
                    println!("     {p}");
                }
                all_ok &= ok;
                continue;
            }
            Mode::ExecProbe => unreachable!("handled above"),
        };
        let correct = outcome.tally.failed == 0 && outcome.tally.problems.is_empty();
        all_ok &= correct;
        let detail = detail_json(
            &inputs,
            args,
            &outcome,
            threads,
            lowered.as_deref(),
            &fingerprint,
        );
        std::fs::write(inputs.dir().join("result.json"), format!("{detail}\n"))
            .map_err(|e| format!("cannot write result.json: {e}"))?;
        println!("{detail}");
        println!("{}", result_json(correct, &outcome));
    }
    Ok(all_ok)
}

/// `check`: one invocation per workload with every output check, and for
/// fig3-compare and lossy-fleet a second invocation on one thread that
/// must reproduce the bytes.
fn check(inputs: &Inputs, bin: &Path, threads: usize) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut checker = measure::Checker::new(inputs);
    measure::prime(inputs, bin, threads, &mut checker, &mut tally)?;
    inputs.reset()?;
    let cold = inputs.workload != Workload::CampaignWarm;
    let inv = measure::invoke(bin, &inputs.cli_args(threads), inputs.dir())?;
    checker.record(&inv, cold, &mut tally);
    if matches!(
        inputs.workload,
        Workload::Fig3Compare | Workload::LossyFleet
    ) {
        let inv = measure::invoke(bin, &inputs.cli_args(1), inputs.dir())?;
        checker.record(&inv, cold, &mut tally);
    }
    measure::check_report(inputs, &mut tally);
    Ok(tally)
}

/// Everything about one result: every metric's median, quartiles and
/// sample count, the problems found and the provenance.
fn detail_json(
    inputs: &Inputs,
    args: &Args,
    outcome: &Outcome,
    threads: usize,
    lowered: Option<&str>,
    fingerprint: &sys::Fingerprint,
) -> String {
    let metrics: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.detail_json()))
        .collect();
    let strings = |items: &[String]| {
        format!(
            "[{}]",
            items
                .iter()
                .map(|s| json::string(s))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    let fp: Vec<(&str, String)> = fingerprint
        .fields()
        .into_iter()
        .map(|(k, v)| (k, json::string(&v)))
        .collect();
    json::object(&[
        ("workload", json::string(inputs.workload.name())),
        (
            "mode",
            json::string(if args.mode == Mode::Trace {
                "trace"
            } else {
                "run"
            }),
        ),
        ("seed", inputs.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("threads", threads.to_string()),
        ("threads_note", lowered.map_or("null".into(), json::string)),
        ("invocations", outcome.invocations.to_string()),
        ("metrics", json::object(&metrics)),
        ("problems", strings(&outcome.tally.problems)),
        ("fingerprint", json::object(&fp)),
        (
            "fingerprint_mismatch",
            strings(&baseline::mismatches(fingerprint)),
        ),
    ])
}

/// The last line of every result.
fn result_json(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = json::object(&[
                ("value", json::number(m.value)),
                ("unit", json::string(m.unit)),
            ]);
            (m.name.as_str(), value)
        })
        .collect();
    json::object(&[
        ("correct", correct.to_string()),
        ("attempted", outcome.tally.attempted.max(1).to_string()),
        ("failed", outcome.tally.failed.to_string()),
        ("metrics", json::object(&metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_only_invocations_select_run_or_trace() {
        let a = parse(&[
            "--workload",
            "lossy-fleet",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert!(a.mode == Mode::Trace);
        assert_eq!(a.workloads, [Workload::LossyFleet]);
        assert_eq!((a.seed, a.seconds), (7, 12));
        assert!(parse(&["--trace", "0"]).expect("valid").mode == Mode::Run);
        let a = parse(&["check"]).expect("valid");
        assert!(a.mode == Mode::Check);
        assert_eq!(a.workloads.len(), Workload::ALL.len());
        assert_eq!(a.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            &["--workload", "nope"][..],
            &["--frobnicate"],
            &["--seed", "-3"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["bench"],
            &["run", "--trace", "1"],
            &["run", "--threads", "2"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
