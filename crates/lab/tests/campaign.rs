//! Integration tests for the campaign engine: sequential stopping must
//! be invariant across `threads`/`chunk`, the content-addressed cache
//! must make warm re-runs free, and interrupted campaigns must finish
//! with byte-identical CSV.

use std::fs;
use std::path::{Path, PathBuf};

use churnbal_lab::campaign::{Campaign, CampaignRunOptions};
use proptest::prelude::*;

/// A small two-node closed system (a shrunken paper-fig5) so every
/// replication finishes in microseconds.
const MINI_SCENARIO: &str = r#"name = "mini"
description = "campaign test scenario"
reps = 8
seed = 7

[network]
fixed = 0.0
per_task = 0.02
law = "exponential-batch"

[policy]
kind = "lbp1-optimal"

[churn]
kind = "independent"

[arrivals]
kind = "none"

[[node]]
service_rate = 1.08
failure_rate = 0.05
recovery_rate = 0.1
initial_tasks = 12
count = 1

[[node]]
service_rate = 1.86
failure_rate = 0.05
recovery_rate = 0.05
initial_tasks = 0
count = 1
"#;

/// A fresh campaign directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("churnbal-campaign-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("scenarios")).expect("create temp dir");
    dir
}

/// Writes the one-spec campaign: two policies on the mini scenario.
fn write_campaign(dir: &Path, tolerance: f64, antithetic: bool) {
    fs::write(dir.join("scenarios").join("mini.toml"), MINI_SCENARIO).expect("scenario file");
    fs::write(
        dir.join("var-a.toml"),
        format!(
            "scenarios = [\"scenarios/mini.toml\"]\n\
             policies = [\"lbp1-optimal\", \"none\"]\n\
             \n\
             [stopping]\n\
             tolerance = {tolerance}\n\
             r0 = 4\n\
             max_reps = 32\n\
             antithetic = {antithetic}\n\
             \n\
             [fields]\n\
             figure = \"t\"\n"
        ),
    )
    .expect("spec file");
}

fn run_to_completion(dir: &Path, threads: usize, chunk: usize) -> String {
    let mut campaign = Campaign::load(dir).expect("campaign loads");
    let report = campaign
        .run(&CampaignRunOptions {
            threads,
            chunk,
            max_cells: None,
        })
        .expect("campaign runs");
    assert_eq!(report.cells_done, report.cells_total, "all cells finish");
    fs::read_to_string(dir.join("out").join("var-a.csv")).expect("csv written")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// The satellite property: final replication counts and CSV bytes do
    /// not depend on the worker thread count or the scheduler chunk
    /// size, with and without antithetic pairing.
    #[test]
    fn stopping_is_invariant_across_threads_and_chunks(
        tolerance in prop_oneof![Just(2.0f64), Just(4.0), Just(8.0)],
        chunk in 1usize..5,
        antithetic in proptest::bool::ANY,
    ) {
        let d1 = temp_dir("inv-t1");
        let d4 = temp_dir("inv-t4");
        write_campaign(&d1, tolerance, antithetic);
        write_campaign(&d4, tolerance, antithetic);
        let csv1 = run_to_completion(&d1, 1, 1);
        let csv4 = run_to_completion(&d4, 4, chunk);
        prop_assert_eq!(&csv1, &csv4);
        let reps1 = Campaign::load(&d1).expect("reload").cell_summaries();
        let reps4 = Campaign::load(&d4).expect("reload").cell_summaries();
        prop_assert_eq!(reps1, reps4);
        let _ = fs::remove_dir_all(&d1);
        let _ = fs::remove_dir_all(&d4);
    }
}

/// The satellite property: a warm-cache re-run of an unchanged campaign
/// performs zero simulations yet emits byte-identical CSV.
#[test]
fn warm_rerun_is_zero_simulation_and_byte_identical() {
    let dir = temp_dir("warm");
    write_campaign(&dir, 4.0, false);
    let cold_csv = run_to_completion(&dir, 2, 0);

    let mut campaign = Campaign::load(&dir).expect("warm load");
    let report = campaign
        .run(&CampaignRunOptions::default())
        .expect("warm run");
    assert_eq!(report.rounds, 0, "warm cache runs no rounds");
    assert_eq!(report.reps_run, 0, "warm cache simulates nothing");
    assert_eq!(report.cells_done, report.cells_total);
    let warm_csv = fs::read_to_string(dir.join("out").join("var-a.csv")).expect("csv");
    assert_eq!(cold_csv, warm_csv);
    let _ = fs::remove_dir_all(&dir);
}

/// Changing a stopping input changes the cell digests, so nothing stale
/// is reused: the re-run starts cold.
#[test]
fn changed_spec_invalidates_the_cache() {
    let dir = temp_dir("invalidate");
    write_campaign(&dir, 4.0, false);
    run_to_completion(&dir, 2, 0);
    // Tighten the tolerance: every cell re-keys and recomputes.
    write_campaign(&dir, 2.0, false);
    let mut campaign = Campaign::load(&dir).expect("reload");
    let report = campaign
        .run(&CampaignRunOptions::default())
        .expect("re-run");
    assert!(report.reps_run > 0, "changed spec must recompute");
    let _ = fs::remove_dir_all(&dir);
}

/// An interrupted campaign (stopped at deterministic `--max-cells`
/// barriers) finishes with CSV byte-identical to an uninterrupted run.
#[test]
fn interrupted_run_resumes_to_byte_identical_csv() {
    let straight = temp_dir("int-straight");
    write_campaign(&straight, 4.0, false);
    let want = run_to_completion(&straight, 2, 0);

    let interrupted = temp_dir("int-stopgo");
    write_campaign(&interrupted, 4.0, false);
    let mut invocations = 0;
    loop {
        invocations += 1;
        assert!(invocations <= 16, "campaign must converge");
        let mut campaign = Campaign::load(&interrupted).expect("load");
        let report = campaign
            .run(&CampaignRunOptions {
                threads: 3,
                chunk: 2,
                max_cells: Some(1),
            })
            .expect("partial run");
        if report.cells_done == report.cells_total {
            break;
        }
    }
    let got = fs::read_to_string(interrupted.join("out").join("var-a.csv")).expect("csv");
    assert_eq!(want, got);
    let _ = fs::remove_dir_all(&straight);
    let _ = fs::remove_dir_all(&interrupted);
}

/// `report` refuses an unfinished campaign (naming `campaign run`) and
/// renders markdown tables once it is finished; the CLI front end wires
/// both up.
#[test]
fn report_and_cli_cover_the_campaign_lifecycle() {
    let dir = temp_dir("report");
    write_campaign(&dir, 4.0, false);
    let err = Campaign::load(&dir)
        .expect("load")
        .report()
        .expect_err("unfinished campaign");
    assert!(err.contains("campaign run"), "{err}");

    let args: Vec<String> = ["campaign", "run", dir.to_str().expect("utf8 path")]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let out = churnbal_lab::cli::run(&args).expect("cli campaign run");
    assert!(out.contains("replication(s) simulated"), "{out}");

    let args: Vec<String> = ["campaign", "status", dir.to_str().expect("utf8 path")]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let status = churnbal_lab::cli::run(&args).expect("cli campaign status");
    assert!(status.contains("var-a"), "{status}");
    assert!(status.contains("cells done"), "{status}");

    let args: Vec<String> = ["report", dir.to_str().expect("utf8 path")]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let md = churnbal_lab::cli::run(&args).expect("cli report");
    assert!(md.contains("## var-a"), "{md}");
    assert!(md.contains("| scenario |"), "{md}");
    assert!(md.contains("figure = t"), "{md}");
    let _ = fs::remove_dir_all(&dir);
}

/// Antithetic pairing runs on genuinely different streams than the
/// independent map, never splits a mirror pair across rounds (every cell
/// accumulates an even replication count), and stays deterministic.
#[test]
fn antithetic_pairs_stay_whole_and_deterministic() {
    let plain = temp_dir("anti-plain");
    let anti = temp_dir("anti-anti");
    let anti2 = temp_dir("anti-anti2");
    write_campaign(&plain, 4.0, false);
    write_campaign(&anti, 4.0, true);
    write_campaign(&anti2, 4.0, true);
    let plain_csv = run_to_completion(&plain, 2, 0);
    let anti_csv = run_to_completion(&anti, 2, 0);
    let anti_csv2 = run_to_completion(&anti2, 4, 3);
    assert_ne!(
        plain_csv, anti_csv,
        "mirrored streams must change the samples"
    );
    assert_eq!(anti_csv, anti_csv2, "antithetic runs are deterministic");
    for (spec, scenario, point, policy, reps) in
        Campaign::load(&anti).expect("reload").cell_summaries()
    {
        assert!(
            reps % 2 == 0,
            "{spec}/{scenario}/{point}/{policy}: odd rep count {reps} splits a mirror pair"
        );
    }
    let _ = fs::remove_dir_all(&plain);
    let _ = fs::remove_dir_all(&anti);
    let _ = fs::remove_dir_all(&anti2);
}

/// The CI campaign smoke's two specs, plus one whose cells converge, whose
/// points have two coordinates and whose `[fields]` value needs CSV
/// quoting: every spelling the CSV and the report differ in.
const PINNED_SPECS: [(&str, &str); 3] = [
    (
        "var-base",
        "scenarios = [\"paper-fig5\"]\n\
         policies = [\"lbp1-optimal\", \"none\"]\n\
         \n\
         [stopping]\n\
         tolerance = 4.0\n\
         r0 = 4\n\
         max_reps = 32\n",
    ),
    (
        "var-fail",
        "scenarios = [\"paper-fig5\"]\n\
         axis = [\"failure-scale=1,2\"]\n\
         \n\
         [stopping]\n\
         tolerance = 4.0\n\
         r0 = 8\n\
         max_reps = 64\n\
         antithetic = true\n\
         \n\
         [fields]\n\
         figure = \"5\"\n",
    ),
    (
        "var-wide",
        "scenarios = [\"paper-fig5\"]\n\
         policies = [\"lbp2\", \"none\"]\n\
         axis = [\"recovery-scale=2\", \"failure-scale=1,2\"]\n\
         \n\
         [stopping]\n\
         tolerance = 40.0\n\
         r0 = 4\n\
         max_reps = 16\n\
         \n\
         [fields]\n\
         note = \"a, b\"\n",
    ),
];

/// Each spec's `out/<spec>.csv`, as the campaign at one thread wrote it.
const PINNED_CSVS: [(&str, &str); 3] = [
    (
        "var-base",
        r#"spec,scenario,point,coords,policy,reps,mean,sd,ci95,incomplete,converged
var-base,paper-fig5,0,,lbp1-optimal,32,39.14464817464441,20.936573762808255,7.548433323763756,0,0
var-base,paper-fig5,0,,none,32,68.09517365235791,21.68973602491046,7.819977043469832,0,0
"#,
    ),
    (
        "var-fail",
        r#"spec,scenario,point,coords,policy,reps,mean,sd,ci95,incomplete,converged,figure
var-fail,paper-fig5,0,failure-scale=1.0,lbp1-optimal,64,39.24156727468389,21.81692538549536,5.4497055366553875,0,0,5
var-fail,paper-fig5,1,failure-scale=2.0,lbp1-optimal,64,56.85649152113794,32.43969174599156,8.103193488164845,0,0,5
"#,
    ),
    (
        "var-wide",
        r#"spec,scenario,point,coords,policy,reps,mean,sd,ci95,incomplete,converged,note
var-wide,paper-fig5,0,recovery-scale=2.0;failure-scale=1.0,lbp2,4,23.165444413096317,10.065207027391395,16.01599048185391,0,1,"a, b"
var-wide,paper-fig5,0,recovery-scale=2.0;failure-scale=1.0,none,4,55.3584595749124,14.52847649176,23.118048200561677,0,1,"a, b"
var-wide,paper-fig5,1,recovery-scale=2.0;failure-scale=2.0,lbp2,4,25.98219734800159,13.242532978513735,21.07182510626217,0,1,"a, b"
var-wide,paper-fig5,1,recovery-scale=2.0;failure-scale=2.0,none,4,62.8166770323547,19.268370686961003,30.660277596215604,0,1,"a, b"
"#,
    ),
];

/// `report` of the same finished campaign.
const PINNED_REPORT: &str = r#"## var-base

| scenario | point | coords | policy | reps | mean | sd | ci95 | incomplete | converged |
|---|---|---|---|---|---|---|---|---|---|
| paper-fig5 | 0 | — | lbp1-optimal | 32 | 39.14464817464441 | 20.936573762808255 | 7.548433323763756 | 0 | capped |
| paper-fig5 | 0 | — | none | 32 | 68.09517365235791 | 21.68973602491046 | 7.819977043469832 | 0 | capped |

## var-fail

_figure = 5_

| scenario | point | coords | policy | reps | mean | sd | ci95 | incomplete | converged |
|---|---|---|---|---|---|---|---|---|---|
| paper-fig5 | 0 | failure-scale=1.0 | lbp1-optimal | 64 | 39.24156727468389 | 21.81692538549536 | 5.4497055366553875 | 0 | capped |
| paper-fig5 | 1 | failure-scale=2.0 | lbp1-optimal | 64 | 56.85649152113794 | 32.43969174599156 | 8.103193488164845 | 0 | capped |

## var-wide

_note = a, b_

| scenario | point | coords | policy | reps | mean | sd | ci95 | incomplete | converged |
|---|---|---|---|---|---|---|---|---|---|
| paper-fig5 | 0 | recovery-scale=2.0; failure-scale=1.0 | lbp2 | 4 | 23.165444413096317 | 10.065207027391395 | 16.01599048185391 | 0 | yes |
| paper-fig5 | 0 | recovery-scale=2.0; failure-scale=1.0 | none | 4 | 55.3584595749124 | 14.52847649176 | 23.118048200561677 | 0 | yes |
| paper-fig5 | 1 | recovery-scale=2.0; failure-scale=2.0 | lbp2 | 4 | 25.98219734800159 | 13.242532978513735 | 21.07182510626217 | 0 | yes |
| paper-fig5 | 1 | recovery-scale=2.0; failure-scale=2.0 | none | 4 | 62.8166770323547 | 19.268370686961003 | 30.660277596215604 | 0 | yes |

"#;

/// The bytes of a small finished campaign's CSVs and its report are
/// pinned, so the two renderers cannot drift apart or move.
#[test]
fn finished_campaign_csvs_and_report_are_pinned() {
    let dir = temp_dir("pinned");
    for (name, spec) in PINNED_SPECS {
        fs::write(dir.join(format!("{name}.toml")), spec).expect("spec file");
    }
    let mut campaign = Campaign::load(&dir).expect("campaign loads");
    let report = campaign
        .run(&CampaignRunOptions {
            threads: 1,
            chunk: 0,
            max_cells: None,
        })
        .expect("campaign runs");
    assert_eq!(report.cells_done, report.cells_total, "all cells finish");
    for (name, want) in PINNED_CSVS {
        let got = fs::read_to_string(dir.join("out").join(format!("{name}.csv"))).expect("csv");
        assert_eq!(got, want, "{name}.csv moved");
    }
    assert_eq!(campaign.report().expect("finished"), PINNED_REPORT);
    let _ = fs::remove_dir_all(&dir);
}
