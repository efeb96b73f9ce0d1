//! Scheduling-invariance gate for the sweep scheduler: the observable
//! output — every sampled statistic and every rendered byte — must be a
//! pure function of the job list, never of how the work was placed.
//!
//! Three layers, from the scheduler core outwards:
//!
//! * raw [`run_grid`] point stats over grids with **wildly
//!   unequal replication counts**, across thread counts {1, 3, 8} and
//!   several chunk sizes (property-based);
//! * the lab's buffered CSV/JSONL renderings of a real multi-axis sweep;
//! * the CLI's `--out` **file streaming** path, whose bytes must equal
//!   the buffered stdout bytes for every thread/chunk combination.

use churnbal::cluster::{
    run_grid, NetworkConfig, NodeConfig, PointJob, PointStats, SimOptions, SystemConfig,
};
use churnbal::core::Lbp2;
use churnbal::lab::{registry, Axis, AxisParam, Experiment, ExperimentSpec, RunOptions};
use proptest::prelude::*;

/// Runs a grid and returns per-point stats, in grid order.
fn grid_stats(
    configs: &[SystemConfig],
    reps: &[u64],
    threads: usize,
    chunk: usize,
) -> Vec<PointStats> {
    let jobs: Vec<PointJob<'_>> = configs
        .iter()
        .zip(reps)
        .map(|(config, &reps)| PointJob {
            config,
            reps,
            seed: 7,
            rep_base: 0,
            antithetic: false,
            options: SimOptions::default(),
        })
        .collect();
    let mut out = Vec::new();
    run_grid(&jobs, &|_, _| Lbp2::new(1.0), threads, chunk, |p, stats| {
        assert_eq!(p, out.len(), "points must drain in grid order");
        out.push(stats);
        Ok(())
    })
    .expect("grid runs");
    out
}

/// A deterministic byte rendering of the full result set: every sampled
/// value bit-exactly (`{:?}` of an f64 is its shortest round-trip form).
/// Any two schedules that produce the same stats produce the same bytes.
fn render(stats: &[PointStats]) -> String {
    let mut out = String::new();
    for (p, s) in stats.iter().enumerate() {
        out.push_str(&format!(
            "{p};{:?};{:?};{:?};{};{}\n",
            s.completion_times,
            s.failures_per_rep,
            s.tasks_shipped_per_rep,
            s.incomplete,
            s.total_events
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Wildly unequal rep counts across points; every thread count and
    /// chunk size yields byte-identical results.
    #[test]
    fn grid_output_is_invariant_under_scheduling(
        point_tasks in prop::collection::vec((1u32..25, 1u32..15), 2..6),
        rep_pattern in prop::collection::vec(1u64..30, 2..6),
    ) {
        let configs: Vec<SystemConfig> = point_tasks
            .iter()
            .map(|&(a, b)| {
                SystemConfig::new(
                    vec![
                        NodeConfig::new(1.08, 0.05, 0.1, a),
                        NodeConfig::new(1.86, 0.05, 0.05, b),
                    ],
                    NetworkConfig::exponential(0.02),
                )
            })
            .collect();
        // Make the imbalance wild: one singleton, one heavy point.
        let mut reps: Vec<u64> = (0..configs.len())
            .map(|i| rep_pattern[i % rep_pattern.len()])
            .collect();
        reps[0] = 1;
        let last = reps.len() - 1;
        reps[last] = 40;

        let reference = render(&grid_stats(&configs, &reps, 1, 0));
        for threads in [3usize, 8] {
            for chunk in [0usize, 1, 5, 64] {
                let got = render(&grid_stats(&configs, &reps, threads, chunk));
                prop_assert_eq!(
                    &reference,
                    &got,
                    "threads={} chunk={} changed the output bytes",
                    threads,
                    chunk
                );
            }
        }
    }
}

/// The real renderers: a two-axis sweep's CSV and JSONL bytes are
/// identical for every thread/chunk combination.
#[test]
fn sweep_csv_and_jsonl_bytes_are_scheduling_invariant() {
    let sc = registry::get("mmpp-bursty").expect("preset");
    let axes = vec![
        Axis {
            param: AxisParam::Gain,
            values: vec![0.25, 0.75],
        },
        Axis {
            param: AxisParam::FailureScale,
            values: vec![0.5, 1.5],
        },
    ];
    let run = |threads: usize, chunk: usize| {
        let result = Experiment::new(ExperimentSpec::sweep(
            sc.clone(),
            axes.clone(),
            RunOptions {
                reps: Some(5),
                threads,
                chunk,
                ..RunOptions::default()
            },
        ))
        .collect()
        .expect("sweep runs");
        (result.to_csv(), result.to_jsonl())
    };
    let (csv_ref, jsonl_ref) = run(1, 0);
    for threads in [3usize, 8] {
        for chunk in [0usize, 1, 2, 16] {
            let (csv, jsonl) = run(threads, chunk);
            assert_eq!(csv, csv_ref, "threads={threads} chunk={chunk} CSV drifted");
            assert_eq!(
                jsonl, jsonl_ref,
                "threads={threads} chunk={chunk} JSONL drifted"
            );
        }
    }
}

/// The CLI `--out` streaming path: rows are written to the file as grid
/// points finish; the resulting bytes must equal the buffered stdout
/// bytes for thread counts {1, 3, 8} and several chunk sizes, in both
/// formats.
#[test]
fn streamed_out_files_are_scheduling_invariant() {
    let dir = std::env::temp_dir().join("churnbal_sweep_scheduler_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let call = |args: &[&str]| -> String {
        churnbal::lab::cli::run(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
            .expect("cli runs")
    };
    for format in ["csv", "jsonl"] {
        let base = [
            "sweep",
            "paper-delay-crossover",
            "--axis",
            "failure-scale=0.5,1.0,2.0",
            "--reps",
            "4",
            "--format",
            format,
        ];
        let reference = {
            let mut args = base.to_vec();
            args.extend(["--threads", "1"]);
            call(&args)
        };
        for threads in ["3", "8"] {
            for chunk in ["1", "4"] {
                let path = dir.join(format!("sweep_{format}_{threads}_{chunk}"));
                let path_str = path.to_str().expect("utf8");
                let mut args = base.to_vec();
                args.extend(["--threads", threads, "--chunk", chunk, "--out", path_str]);
                call(&args);
                let written = std::fs::read_to_string(&path).expect("file written");
                assert_eq!(
                    written, reference,
                    "{format}: threads={threads} chunk={chunk} file bytes \
                     differ from single-threaded stdout"
                );
            }
        }
    }
}
