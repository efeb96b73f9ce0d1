//! Deterministic wall-clock perf harness: every row of the perf table
//! (`churnbal_bench::perf::ROWS`) timed, its output digests checked
//! against their pins, its gate judged, and the JSON report printed.
//!
//! ```text
//! cargo run -p churnbal_bench --release --bin perfreport -- --out BENCH_N.json  # full
//! cargo run -p churnbal_bench --release --bin perfreport -- --quick             # CI smoke
//! ```
//!
//! Flags: `--quick` (CI sizes), `--threads T` (workers of the
//! replication-runner rows, 0 = auto; default 1 for stable numbers),
//! `--repeat N` (runs per row, fastest kept; default 3), `--seed S`
//! (non-default seeds skip the pin check), `--out PATH` (write the report
//! there; without it the report is only printed). A bad flag prints the
//! usage line and exits 2.
//!
//! A drifted digest or a failed gate exits 1, and the report is then not
//! written: a sampling regression must never overwrite the reference the
//! pins protect, one `git add` away from being re-pinned.

use churnbal_bench::perf::{measure, parse_args, to_json, Measured, ROWS, USAGE};

fn main() {
    let (settings, out) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    });
    println!(
        "perfreport ({} mode, {} threads, seed {}, {} runs per row)",
        if settings.quick { "quick" } else { "full" },
        if settings.threads == 0 {
            "auto".to_string()
        } else {
            settings.threads.to_string()
        },
        settings.seed,
        settings.repeat
    );
    println!(
        "{:<20} {:>6} {:>12} {:>10} {:>14}  digest",
        "row", "reps", "events", "wall (s)", "events/sec"
    );
    let measured: Vec<Measured<'_>> = ROWS
        .iter()
        .map(|row| {
            let m = measure(row, &settings);
            println!("{m}");
            m
        })
        .collect();
    let json = to_json(&measured, &settings);
    println!("\n{json}");

    let failures: Vec<String> = measured.iter().filter_map(Measured::failure).collect();
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("error: {failure}");
        }
        eprintln!("the report was not written");
        std::process::exit(1);
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
