//! A quarantined replication leaves no slot in its cell's result, and
//! everything keyed by replication still reads the right one: the
//! `--probe-out` lines of the replications after it keep their indices,
//! and paired deltas match two cells' survivors by replication index.
//! Both checks run no-balancing cells on common random numbers, where a
//! replication read under the wrong index shows as a difference.

use churnbal_lab::cli;

fn call(args: &str, extra: &[&str]) -> String {
    let mut args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
    args.extend(extra.iter().map(|s| (*s).to_string()));
    cli::run(&args).expect("quarantine is not fatal")
}

/// The `rep` field of one probe line.
fn rep(line: &str) -> &str {
    let tail = &line[line.find("\"rep\":").expect("rep field") + 6..];
    &tail[..tail.find(',').expect("field end")]
}

#[test]
fn probe_lines_keep_replication_indices_after_a_quarantine() {
    let path = std::env::temp_dir().join(format!(
        "churnbal_lab_probe_quarantine_{}.jsonl",
        std::process::id()
    ));
    let args = "compare paper-fig5 --policies none,chaos-panic@1 --reps 3 --probe-dt 1 \
                --format csv --probe-out";
    call(args, &[path.to_str().expect("utf8")]);
    let text = std::fs::read_to_string(&path).expect("probe file");
    let _ = std::fs::remove_file(&path);
    // An unarmed chaos-panic is no-balancing on the same streams, so each
    // tick of a surviving replication equals `none`'s tick of the same
    // replication, policy aside.
    let (none, chaos): (Vec<&str>, Vec<&str>) = text
        .lines()
        .partition(|l| l.contains("\"policy\":\"none\""));
    let mut reps: Vec<&str> = chaos.iter().map(|l| rep(l)).collect();
    reps.dedup();
    assert_eq!(reps, ["0", "2"], "{text}");
    let survivors: Vec<&str> = none.into_iter().filter(|l| rep(l) != "1").collect();
    let renamed: Vec<String> = chaos
        .iter()
        .map(|l| l.replace("\"policy\":\"chaos-panic@1\"", "\"policy\":\"none\""))
        .collect();
    assert_eq!(renamed, survivors);
}

#[test]
fn pairs_match_survivors_by_replication_across_quarantines() {
    // Quarantined at replications 1 and 2 beside an unquarantined cell: a
    // pair matched to the wrong replication shows a nonzero delta.
    let args = "compare paper-fig5 --policies chaos-panic@1,chaos-panic@2,none --reps 4";
    let out = call(args, &["--format", "csv"]);
    let mut lines = out.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    let reps: Vec<&str> = rows.iter().map(|r| r[col("reps")]).collect();
    assert_eq!(reps, ["3", "3", "4"], "{out}");
    for row in &rows {
        for name in ["delta_mean", "delta_sd", "delta_ci95"] {
            assert_eq!(row[col(name)], "0.0", "{name}: {out}");
        }
    }
}
