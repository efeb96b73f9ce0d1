//! Smoke-runs every experiment with quick settings and prints a one-line
//! verdict per artefact. Useful as a fast end-to-end check that all
//! regeneration paths work:
//!
//! ```text
//! cargo run -p churnbal_bench --release --bin all
//! ```
//!
//! For the real numbers, run the individual binaries (fig1 … table3).

use std::process::Command;

fn main() {
    let bins = [
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "table1",
        "table2",
        "table3",
        "ablation_gain",
        "ablation_eq8",
        "ablation_sender",
        "extension_multinode",
        "extension_variance",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for bin in bins {
        let path = dir.join(bin);
        let status = Command::new(&path)
            .arg("--quick")
            .stdout(std::process::Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => println!("{bin:<16} OK"),
            Ok(s) => {
                println!("{bin:<16} FAILED ({s})");
                failures.push(bin);
            }
            Err(e) => {
                println!("{bin:<16} could not run: {e} (build with --release first)");
                failures.push(bin);
            }
        }
    }
    assert!(failures.is_empty(), "failed experiments: {failures:?}");
    println!("\nall experiment binaries regenerate successfully");
}
