//! Integration: crash safety end to end. A grid interrupted mid-run
//! resumes from the content-addressed cell cache (`--cache DIR`) to
//! byte-identical output — across thread counts — a torn cell file is
//! refused by path, and a panicking replication is quarantined without
//! taking down, perturbing, or being cached alongside any other cell.

use std::fs;
use std::path::{Path, PathBuf};

use churnbal::core::PolicySpec;
use churnbal::lab::{cli, registry, Experiment, ExperimentSpec, PolicyEntry, RunOptions};

fn call(args: &[&str]) -> Result<String, String> {
    cli::run(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The cell files a run left in `dir`, sorted.
fn cell_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("cache dir readable")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".cell.jsonl"))
        .collect();
    files.sort();
    files
}

/// A 5-point x 2-policy compare grid: big enough that a half-deleted
/// cache leaves genuinely unfinished cells, small enough to run in
/// seconds.
fn grid_args<'a>(policies: &'a str, cache: Option<&'a str>, threads: &'a str) -> Vec<&'a str> {
    let mut args = vec![
        "compare",
        "paper-delay-crossover",
        "--policies",
        policies,
        "--reps",
        "3",
        "--format",
        "csv",
        "--threads",
        threads,
    ];
    if let Some(dir) = cache {
        args.extend(["--cache", dir]);
    }
    args
}

/// A compare of `scenario` through the library at `reps` replications,
/// returning the tasks simulated.
fn tasks_run(scenario: &str, policies: &[&str], reps: u64, cache: &Path) -> u64 {
    let scenario = registry::get(scenario).expect("preset");
    let entries = policies
        .iter()
        .map(|name| {
            let spec = PolicySpec::parse(name, &scenario.policy).expect("known policy");
            PolicyEntry::named(*name, spec)
        })
        .collect();
    let mut spec = ExperimentSpec::compare(
        scenario,
        Vec::new(),
        entries,
        RunOptions {
            reps: Some(reps),
            threads: 2,
            ..RunOptions::default()
        },
    );
    spec.cache = Some(cache.to_path_buf());
    let (_, report) = Experiment::new(spec)
        .run_with_report(&mut churnbal::lab::CollectSink::new())
        .expect("cached grid runs");
    report.totals().tasks
}

#[test]
fn kill_and_resume_reproduces_identical_bytes_across_threads() {
    let dir = fresh_dir("churnbal_crash_safety_resume");
    let dir_str = dir.to_str().expect("utf8");

    // The ground truth: the same grid with no cache involved at all.
    let reference = call(&grid_args("lbp1,none", None, "1")).expect("clean run");

    // Caching must not change the output bytes.
    let cached = call(&grid_args("lbp1,none", Some(dir_str), "1")).expect("cached run");
    assert_eq!(cached, reference, "--cache changed the output bytes");
    let files = cell_files(&dir);
    assert_eq!(files.len(), 10, "one file per (point, policy) cell");

    // Simulate a crash mid-grid: 6 of the 10 cells never made it to
    // disk, and a temporary file of an interrupted write lies around.
    for path in files.iter().step_by(2).chain(files.iter().skip(1).take(1)) {
        fs::remove_file(path).expect("delete cell");
    }
    assert_eq!(cell_files(&dir).len(), 4);
    fs::write(dir.join("0123456789abcdef.cell.tmp"), "{\"kind\":").expect("stray tmp");

    // Resume on a different thread count than the original run: cached
    // cells replay, the rest recompute, and CRN plus stable replication
    // slots make the bytes identical anyway.
    let resumed = call(&grid_args("lbp1,none", Some(dir_str), "4")).expect("resumed run");
    assert_eq!(
        resumed, reference,
        "resume on --threads 4 changed the bytes"
    );
    assert_eq!(cell_files(&dir), files, "the cache is whole again");

    // A fully warm rerun simulates nothing.
    assert_eq!(
        tasks_run("paper-delay-crossover", &["lbp1", "none"], 3, &dir),
        0
    );
}

/// `compare paper-fig5 --policies lbp2,none --reps 8`, cached in `cache`
/// when given.
fn fig5_compare(cache: Option<&Path>) -> String {
    let mut args = "compare paper-fig5 --policies lbp2,none --reps 8 --format csv --threads 2"
        .split(' ')
        .collect::<Vec<_>>();
    if let Some(dir) = cache {
        args.extend(["--cache", dir.to_str().expect("utf8")]);
    }
    call(&args).expect("compare runs")
}

/// Runs a fresh campaign of those cells — `paper-fig5 × {lbp2, none}` at
/// a fixed 8 replications — in `dir` after `warm_up` and returns its
/// report and CSV.
fn fig5_campaign(name: &str, warm_up: impl FnOnce(&Path)) -> (String, String, PathBuf) {
    let dir = fresh_dir(name);
    fs::create_dir_all(&dir).expect("campaign dir");
    let spec = "scenarios = [\"paper-fig5\"]\npolicies = [\"lbp2\", \"none\"]\n\
                [stopping]\ntolerance = 0.5\nr0 = 8\nmax_reps = 8\n";
    fs::write(dir.join("fig5.toml"), spec).expect("campaign spec");
    warm_up(&dir.join("cache"));
    let report = call(&["campaign", "run", dir.to_str().expect("utf8")]).expect("campaign runs");
    let csv = fs::read_to_string(dir.join("out").join("fig5.csv")).expect("csv");
    (report, csv, dir)
}

#[test]
fn compare_and_campaign_share_cells_both_ways() {
    let plain = fig5_compare(None);
    // A compare warms a campaign's cache: the campaign then simulates
    // nothing and writes a cold campaign's bytes.
    let (warm, warm_csv, _) = fig5_campaign("churnbal_shared_cells_warm", |cache| {
        assert_eq!(fig5_compare(Some(cache)), plain);
    });
    assert!(
        warm.contains("0 round(s), 0 replication(s) simulated"),
        "{warm}"
    );
    let (cold, cold_csv, dir) = fig5_campaign("churnbal_shared_cells_cold", |_| {});
    assert!(
        cold.contains("1 round(s), 16 replication(s) simulated"),
        "{cold}"
    );
    assert_eq!(warm_csv, cold_csv);
    // A cold campaign's cache serves the compare: same bytes, nothing
    // simulated.
    let cache = dir.join("cache");
    assert_eq!(fig5_compare(Some(&cache)), plain);
    assert_eq!(tasks_run("paper-fig5", &["lbp2", "none"], 8, &cache), 0);
}

#[test]
fn truncated_cell_file_is_rejected_naming_its_path() {
    let dir = fresh_dir("churnbal_crash_safety_torn");
    let dir_str = dir.to_str().expect("utf8");
    call(&grid_args("lbp1,none", Some(dir_str), "1")).expect("cached run");

    // Cut one cell file short, as a crash inside a non-atomic copy would.
    let path = cell_files(&dir).swap_remove(3);
    let full = fs::read_to_string(&path).expect("cell readable");
    fs::write(&path, &full[..full.len() / 2]).expect("truncate cell");

    let err = call(&grid_args("lbp1,none", Some(dir_str), "1")).unwrap_err();
    assert!(err.contains(path.to_str().expect("utf8")), "{err}");
    assert!(err.contains("delete the file to recompute"), "{err}");
}

#[test]
fn quarantined_cells_are_never_cached_and_rerun() {
    let dir = fresh_dir("churnbal_crash_safety_chaos");
    let dir_str = dir.to_str().expect("utf8");
    let first = call(&grid_args("lbp1,chaos-panic@1", Some(dir_str), "2"))
        .expect("a panicking policy must not kill the run");
    // Only the 5 clean lbp1 cells are stored; every chaos cell lost a
    // replication and is withheld.
    assert_eq!(cell_files(&dir).len(), 5);
    // The next run replays the clean cells and retries the chaos ones
    // (5 cells x 3 replications), with the same bytes.
    assert_eq!(
        tasks_run("paper-delay-crossover", &["lbp1", "chaos-panic@1"], 3, &dir),
        15
    );
    let again = call(&grid_args("lbp1,chaos-panic@1", Some(dir_str), "1")).expect("rerun");
    assert_eq!(again, first);
    assert_eq!(cell_files(&dir).len(), 5);
}

#[test]
fn panic_injection_quarantines_one_cell_and_leaves_the_rest_bit_exact() {
    // A clean two-policy run, then the same grid with a chaos policy
    // wedged in between that panics on replication 1 of every point.
    let clean = call(&grid_args("lbp1,none", None, "2")).expect("clean compare");
    let chaotic = call(&grid_args("lbp1,chaos-panic@1,none", None, "2"))
        .expect("a panicking policy must not kill the campaign");

    // Every non-chaos row survives byte-for-byte: same CRN streams, same
    // baseline, same deltas. Only the policy roster differs.
    let rows = |text: &str, label: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.contains(&format!(",{label},")))
            .map(str::to_string)
            .collect()
    };
    for label in ["lbp1", "none"] {
        assert_eq!(
            rows(&clean, label),
            rows(&chaotic, label),
            "quarantine perturbed the {label} rows"
        );
    }
    // The chaos policy still emits a row per grid point, aggregated over
    // its two surviving replications.
    assert_eq!(rows(&chaotic, "chaos-panic@1").len(), 5, "{chaotic}");
}
