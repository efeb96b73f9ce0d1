//! A cell whose replications were all quarantined has no sample to
//! describe: every per-replication statistic of its row renders absent
//! (an empty CSV field, a JSON `null`, `-` in tables and `stats`), never
//! as a made-up `0.0` or a `NaN`. `reps`, `seed`, `incomplete`,
//! `theory_mean` and the JSONL `quarantined` marker still render, and a
//! row with survivors keeps its bytes.

use churnbal_lab::cli;

/// Runs the CLI and checks its output has no `NaN` or `inf` token.
fn call(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
    let out = cli::run(&args).expect("quarantine is not fatal");
    let mut tokens = out.split(|c: char| !c.is_ascii_alphanumeric());
    assert!(!tokens.any(|t| t == "NaN" || t == "inf"), "{out}");
    out
}

/// `chaos-panic@0` panics on its only replication; `lbp1-optimal` survives.
fn chaos_at_0(extra: &[&str]) -> String {
    let mut args = vec![
        "compare",
        "paper-fig5",
        "--policies",
        "lbp1-optimal,chaos-panic@0",
        "--reps",
        "1",
    ];
    args.extend_from_slice(extra);
    call(&args)
}

/// The 1 ns watchdog quarantines every replication of every cell.
fn timed_out(command: &str, extra: &[&str]) -> String {
    let mut args = vec![command, "paper-fig3"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--reps", "2", "--task-timeout", "0.000000001"]);
    call(&args)
}

#[test]
fn a_panicked_cell_renders_absent_beside_an_unchanged_survivor() {
    let csv = chaos_at_0(&["--format", "csv"]);
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(
        rows,
        [
            // The survivor's bytes as they were before absent statistics.
            "paper-fig5,0,lbp1-optimal,1,20060425,20.70021619035486,0.0,0.0,1.0,0.0,30.0,0.0,\
             0,40.86594943470237,-20.165733244347514,0.0,0.0,0.0",
            "paper-fig5,0,chaos-panic@0,0,20060425,,,,,,,,0,,,,,",
        ]
    );

    let jsonl = chaos_at_0(&["--format", "jsonl"]);
    let rows: Vec<&str> = jsonl.lines().collect();
    assert_eq!(
        rows,
        [
            "{\"scenario\":\"paper-fig5\",\"point\":0,\"policy\":\"lbp1-optimal\",\"reps\":1,\
             \"seed\":20060425,\"mean_completion\":20.70021619035486,\"ci95\":0.0,\
             \"sd_completion\":0.0,\"mean_failures\":1.0,\"sd_failures\":0.0,\
             \"mean_tasks_shipped\":30.0,\"sd_tasks_shipped\":0.0,\"incomplete\":0,\
             \"theory_mean\":40.86594943470237,\"mc_minus_theory\":-20.165733244347514,\
             \"delta_mean\":0.0,\"delta_sd\":0.0,\"delta_ci95\":0.0}",
            "{\"scenario\":\"paper-fig5\",\"point\":0,\"policy\":\"chaos-panic@0\",\"reps\":0,\
             \"seed\":20060425,\"mean_completion\":null,\"ci95\":null,\"sd_completion\":null,\
             \"mean_failures\":null,\"sd_failures\":null,\"mean_tasks_shipped\":null,\
             \"sd_tasks_shipped\":null,\"incomplete\":0,\"theory_mean\":null,\
             \"mc_minus_theory\":null,\"delta_mean\":null,\"delta_sd\":null,\
             \"delta_ci95\":null,\"quarantined\":1}",
        ]
    );

    // `--metrics full` with probing: the seven counter means and the
    // eight quantiles are absent too.
    let full = chaos_at_0(&["--format", "csv", "--metrics", "full", "--probe-dt", "1.0"]);
    assert_eq!(
        full.lines().nth(2),
        Some(
            format!(
                "paper-fig5,0,chaos-panic@0,0,20060425,,,,,,,,0{}",
                ",".repeat(20)
            )
            .as_str()
        )
    );

    let table = chaos_at_0(&[]);
    let degraded = table
        .lines()
        .find(|l| l.trim_start().starts_with("chaos-panic@0"))
        .expect("a table row per policy");
    let cells: Vec<&str> = degraded.split_whitespace().skip(1).collect();
    assert_eq!(cells, ["-", "-", "-", "-", "-", "-", "-", "0"], "{table}");
}

#[test]
fn a_timed_out_grid_keeps_its_theory_but_not_the_gap_to_it() {
    let csv = timed_out("compare", &["--policies", "lbp1,lbp2", "--format", "csv"]);
    assert_eq!(
        csv.lines().nth(1),
        Some("paper-fig3,0,0.0,lbp1,0,20060425,,,,,,,,0,141.2156488766971,,,,")
    );

    let jsonl = timed_out(
        "compare",
        &[
            "--policies",
            "lbp1,lbp2",
            "--format",
            "jsonl",
            "--metrics",
            "full",
        ],
    );
    let first = jsonl.lines().next().expect("rows");
    assert!(
        first.contains("\"theory_mean\":141.2156488766971,\"mc_minus_theory\":null,")
            && first.contains("\"mean_bounces\":null,\"quarantined\":2}"),
        "{first}"
    );

    let stats = timed_out("stats", &[]);
    assert!(stats.contains("  completion time       -\n"), "{stats}");
    assert!(stats.contains("  channel bounces       -\n"), "{stats}");
    assert!(stats.contains("  incomplete            0 / 0\n"), "{stats}");
}
