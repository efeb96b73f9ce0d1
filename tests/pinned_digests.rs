//! Regression gate: pinned completion-time digests for named scenarios.
//!
//! The engine's determinism contract says a scenario's Monte-Carlo output
//! is a pure function of `(scenario, reps, seed)` — these tests pin that
//! function's value for three presets spanning the engine's regimes
//! (two-node paper baseline, cascading failures, a heterogeneous
//! volunteer grid). Any refactor that drifts a sampled trajectory — a
//! reordered RNG draw, a changed event pop order, a float reassociation —
//! fails here deliberately instead of silently invalidating every pinned
//! experiment. If a drift is *intended*, re-pin the digests in the same PR
//! and say why.

use churnbal::cluster::{McEstimate, QueueBackend};
use churnbal::lab::{
    registry, Axis, AxisParam, Experiment, ExperimentResult, ExperimentSpec, PolicyEntry,
    RunOptions, Scenario,
};
use churnbal::prelude::PolicySpec;
use churnbal::stochastic::{digest_f64s, fnv1a_bytes};

/// Small but non-trivial replication count: enough to cover churn,
/// transfers and multi-node paths, cheap enough for every `cargo test`.
const REPS: u64 = 24;

/// The raw Monte-Carlo estimate of a scenario's base point (baked-in axes
/// ignored) at `REPS` replications.
fn estimate(scenario: &Scenario, threads: usize) -> McEstimate {
    Experiment::new(ExperimentSpec::sweep(
        scenario.clone(),
        Vec::new(),
        RunOptions {
            reps: Some(REPS),
            threads,
            ..RunOptions::default()
        },
    ))
    .estimate()
    .unwrap_or_else(|e| panic!("{}: {e}", scenario.name))
}

fn scenario_digest(name: &str) -> u64 {
    let scenario = registry::get(name).unwrap_or_else(|| panic!("preset {name} missing"));
    digest_f64s(&estimate(&scenario, 3).completion_times)
}

#[test]
fn paper_fig3_sample_paths_are_pinned() {
    assert_eq!(
        scenario_digest("paper-fig3"),
        0x0f2c_1e54_e4b4_11e8,
        "paper-fig3 trajectories drifted"
    );
}

#[test]
fn cascading_failures_sample_paths_are_pinned() {
    assert_eq!(
        scenario_digest("cascading-failures"),
        0x91fd_73a9_e9db_6dff,
        "cascading-failures trajectories drifted"
    );
}

#[test]
fn volunteer_grid_sample_paths_are_pinned() {
    assert_eq!(
        scenario_digest("volunteer-grid"),
        0xf267_bfbb_f4ef_2654,
        "volunteer-grid trajectories drifted"
    );
}

/// Digest of the **full sweep CSV bytes** of a preset — header, axis
/// columns, every statistics column of every row. Stricter than the
/// completion-time digests above: it additionally pins the grid
/// expansion, the row ordering of the sweep scheduler's reorder buffer,
/// the derived statistics arithmetic and the exact rendering.
fn sweep_csv_digest(name: &str, extra: &[Axis], threads: usize) -> u64 {
    let scenario = registry::get(name).unwrap_or_else(|| panic!("preset {name} missing"));
    let result = Experiment::new(ExperimentSpec::sweep(
        scenario,
        extra.to_vec(),
        RunOptions {
            reps: Some(6),
            threads,
            ..RunOptions::default()
        },
    ))
    .collect()
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    fnv1a_bytes(result.to_csv().as_bytes())
}

#[test]
fn paper_fig3_sweep_csv_bytes_are_pinned() {
    // The preset's baked-in 21-value gain axis: one full Fig. 3 sweep.
    assert_eq!(
        sweep_csv_digest("paper-fig3", &[], 3),
        0xd850_21ea_fc0e_8e22,
        "paper-fig3 sweep CSV bytes drifted"
    );
}

#[test]
fn mmpp_bursty_sweep_csv_bytes_are_pinned() {
    // A 2x2 grid over gain x failure-scale on the MMPP arrival preset —
    // covers the stochastic-arrival path and multi-axis expansion.
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
    assert_eq!(
        sweep_csv_digest("mmpp-bursty", &axes, 3),
        0x317d_3565_86d5_582d,
        "mmpp-bursty sweep CSV bytes drifted"
    );
}

/// The flagship comparison: `paper-fig3 × {lbp1, lbp2, none}` through one
/// scheduler pass with common random numbers. Its rows carry the
/// per-policy statistics, the CRN-paired delta columns (mean / sd /
/// t-based CI) and the Eq. 4 theory columns — the `compare` regression
/// gate the CI perf-smoke step also asserts via `perfreport`'s
/// compare-grid workload.
fn compare_fig3(threads: usize) -> ExperimentResult {
    let scenario = registry::get("paper-fig3").expect("preset");
    let policies = ["lbp1", "lbp2", "none"]
        .iter()
        .map(|name| {
            PolicyEntry::named(
                (*name).to_string(),
                PolicySpec::parse(name, &scenario.policy).expect("known policy"),
            )
        })
        .collect();
    Experiment::new(ExperimentSpec::compare(
        scenario,
        Vec::new(),
        policies,
        RunOptions {
            reps: Some(6),
            threads,
            ..RunOptions::default()
        },
    ))
    .collect()
    .expect("compare runs")
}

/// Digest of the **full compare CSV bytes** of [`compare_fig3`].
fn compare_csv_digest(threads: usize) -> u64 {
    fnv1a_bytes(compare_fig3(threads).to_csv().as_bytes())
}

#[test]
fn paper_fig3_compare_csv_bytes_are_pinned() {
    assert_eq!(
        compare_csv_digest(3),
        PINNED_COMPARE_FIG3_DIGEST,
        "paper-fig3 compare CSV bytes drifted"
    );
}

/// The pinned digest of `compare_csv_digest`, shared with the test that
/// proves thread invariance below.
const PINNED_COMPARE_FIG3_DIGEST: u64 = 0xcceb_2a86_ba60_bcd8;

/// The compare digest must not depend on scheduling either.
#[test]
fn compare_csv_digest_is_thread_invariant() {
    assert_eq!(compare_csv_digest(1), compare_csv_digest(8));
}

/// Asserts that `render` digests to `pinned` at 1 and at 4 worker threads.
fn assert_pinned_at_1_and_4_threads(what: &str, pinned: u64, render: impl Fn(usize) -> String) {
    for threads in [1, 4] {
        let digest = fnv1a_bytes(render(threads).as_bytes());
        assert_eq!(
            digest, pinned,
            "{what} bytes drifted at {threads} thread(s) (digest {digest:#018x})"
        );
    }
}

/// The JSONL rendering of the same comparison: theory `null`s for LBP-2,
/// which Eq. 4 does not cover, and the paired-delta keys on every row.
#[test]
fn paper_fig3_compare_jsonl_bytes_are_pinned() {
    assert_pinned_at_1_and_4_threads(
        "paper-fig3 compare JSONL",
        0x2df0_ea90_e428_a55e,
        |threads| compare_fig3(threads).to_jsonl(),
    );
}

/// `churn-storm-lossy` swept over two failure scales with `--metrics full`
/// and a 1 s probe: an axis column, all seven counter means (the lossy
/// channel makes lost tasks, retries and bounces nonzero) and all eight
/// histogram quantiles.
fn lossy_full_metrics(threads: usize) -> ExperimentResult {
    let scenario = registry::get("churn-storm-lossy").expect("preset");
    let axes = vec![Axis {
        param: AxisParam::FailureScale,
        values: vec![0.5, 1.0],
    }];
    let result = Experiment::new(ExperimentSpec::sweep(
        scenario,
        axes,
        RunOptions {
            reps: Some(4),
            threads,
            metrics_full: true,
            probe_dt: Some(1.0),
            ..RunOptions::default()
        },
    ))
    .collect()
    .expect("lossy sweep runs");
    for row in &result.rows {
        assert!(
            row.mean_tasks_lost > 0.0 && row.mean_retries > 0.0 && row.mean_bounces > 0.0,
            "the channel counters must be exercised: {row:?}"
        );
    }
    result
}

#[test]
fn lossy_full_metrics_csv_bytes_are_pinned() {
    assert_pinned_at_1_and_4_threads(
        "churn-storm-lossy --metrics full CSV",
        0xacc4_5cbb_9a62_aa20,
        |threads| lossy_full_metrics(threads).to_csv(),
    );
}

#[test]
fn lossy_full_metrics_jsonl_bytes_are_pinned() {
    assert_pinned_at_1_and_4_threads(
        "churn-storm-lossy --metrics full JSONL",
        0xaece_ab91_9d5b_9857,
        |threads| lossy_full_metrics(threads).to_jsonl(),
    );
}

/// `paper-fig5 × {lbp1-optimal, chaos-panic@1}` at 3 replications: the
/// chaos policy panics on replication 1, so its row is degraded (two
/// survivors, a delta over the pairs that survived on both sides) and
/// carries the JSONL `"quarantined":1` marker.
#[test]
fn quarantined_compare_jsonl_bytes_are_pinned() {
    let render = |threads: usize| {
        let scenario = registry::get("paper-fig5").expect("preset");
        let policies = ["lbp1-optimal", "chaos-panic@1"]
            .iter()
            .map(|name| {
                PolicyEntry::named(
                    (*name).to_string(),
                    PolicySpec::parse(name, &scenario.policy).expect("known policy"),
                )
            })
            .collect();
        let jsonl = Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            policies,
            RunOptions {
                reps: Some(3),
                threads,
                ..RunOptions::default()
            },
        ))
        .collect()
        .expect("a panicking replication is quarantined, not fatal")
        .to_jsonl();
        assert!(jsonl.contains("\"quarantined\":1"), "{jsonl}");
        jsonl
    };
    assert_pinned_at_1_and_4_threads("quarantined compare JSONL", 0x767b_f755_413f_445e, render);
}

/// The sweep-CSV digests must not depend on scheduling either.
#[test]
fn sweep_csv_digests_are_thread_invariant() {
    assert_eq!(
        sweep_csv_digest("paper-fig3", &[], 1),
        sweep_csv_digest("paper-fig3", &[], 8)
    );
}

/// The event-queue backends must be bit-interchangeable: the calendar
/// queue and the indexed heap pop in identical `(time, seq)` order, so a
/// topology preset driven through either backend — or through `Auto` —
/// samples the same trajectories. Pinned, so neither backend can drift
/// away from the other (or from history) unnoticed.
#[test]
fn torus_digests_are_backend_invariant_and_pinned() {
    let scenario = registry::get("torus").expect("preset torus missing");
    let run = |backend: QueueBackend| {
        Experiment::new(ExperimentSpec::sweep(
            scenario.clone(),
            Vec::new(),
            RunOptions {
                reps: Some(12),
                threads: 3,
                backend,
                ..RunOptions::default()
            },
        ))
        .estimate()
        .expect("torus runs")
        .completion_times
    };
    let heap = run(QueueBackend::Heap);
    let calendar = run(QueueBackend::Calendar);
    let auto = run(QueueBackend::Auto);
    assert_eq!(heap, calendar, "heap and calendar backends diverged");
    assert_eq!(heap, auto, "auto backend diverged from its resolution");
    assert_eq!(
        digest_f64s(&heap),
        PINNED_TORUS_BACKEND_DIGEST,
        "torus trajectories drifted (digest {:#018x})",
        digest_f64s(&heap)
    );
}

/// The pinned digest of `torus_digests_are_backend_invariant_and_pinned`.
const PINNED_TORUS_BACKEND_DIGEST: u64 = 0xdae3_e3d1_7201_8320;

/// Digest of the **probe JSONL bytes** of a probed run: every telemetry
/// tick of every `(grid point, policy, replication)` of the
/// cascading-failures preset at a 20 s cadence, rendered through the same
/// [`probe_jsonl_row`] the CLI's `--probe-out` uses. Pins the probe
/// subsystem end to end — tick placement, fleet aggregates, histogram
/// quantiles, rendering — and, run at two thread counts below, proves the
/// telemetry stream itself is scheduling-invariant.
fn probe_jsonl_digest(threads: usize) -> u64 {
    use churnbal::cluster::ProbeReport;
    use churnbal::lab::{probe_jsonl_row, ExperimentRow, ExperimentSchema, RowSink};

    #[derive(Default)]
    struct ProbeLines {
        scenario: String,
        buf: String,
    }
    impl RowSink for ProbeLines {
        fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
            self.scenario.clone_from(&schema.scenario);
            Ok(())
        }
        fn row(&mut self, _row: &ExperimentRow) -> Result<(), String> {
            Ok(())
        }
        fn probes(&mut self, row: &ExperimentRow, reports: &[ProbeReport]) -> Result<(), String> {
            for (rep, report) in reports.iter().enumerate() {
                for sample in &report.samples {
                    self.buf.push_str(&probe_jsonl_row(
                        &self.scenario,
                        row.index,
                        &row.policy,
                        rep,
                        sample,
                    ));
                }
            }
            Ok(())
        }
    }

    let scenario = registry::get("cascading-failures").expect("preset");
    let mut sink = ProbeLines::default();
    Experiment::new(ExperimentSpec::sweep(
        scenario,
        Vec::new(),
        RunOptions {
            reps: Some(8),
            threads,
            probe_dt: Some(20.0),
            ..RunOptions::default()
        },
    ))
    .run(&mut sink)
    .expect("probed run works");
    assert!(!sink.buf.is_empty(), "probing armed but no ticks emitted");
    fnv1a_bytes(sink.buf.as_bytes())
}

#[test]
fn probe_jsonl_bytes_are_pinned_and_thread_invariant() {
    let single = probe_jsonl_digest(1);
    assert_eq!(
        single, PINNED_PROBE_JSONL_DIGEST,
        "probe telemetry bytes drifted (digest {single:#018x})"
    );
    assert_eq!(
        probe_jsonl_digest(4),
        single,
        "probe telemetry depends on the thread count"
    );
}

/// The pinned digest of `probe_jsonl_digest`.
const PINNED_PROBE_JSONL_DIGEST: u64 = 0x4c4e_4e48_2a11_549a;

/// The lossy-channel regression gate: the `lossy-fabric` preset (per-edge
/// loss scaling over a torus, enqueue-on-down, retry/backoff redelivery)
/// pinned the same way the reliable presets are. Channel randomness rides
/// replication-scoped streams like every other noise source, so the lossy
/// trajectory is a pure function of `(scenario, reps, seed)` too — and the
/// thread-invariance assertion below pins that the retry machinery leaks
/// no scheduling dependence into the sampled paths.
#[test]
fn lossy_fabric_sample_paths_are_pinned_and_thread_invariant() {
    let digest = scenario_digest("lossy-fabric");
    assert_eq!(
        digest, PINNED_LOSSY_FABRIC_DIGEST,
        "lossy-fabric trajectories drifted (digest {digest:#018x})"
    );
    let scenario = registry::get("lossy-fabric").expect("preset");
    let run = |threads: usize| estimate(&scenario, threads).completion_times;
    assert_eq!(
        digest_f64s(&run(1)),
        digest_f64s(&run(7)),
        "lossy-fabric trajectories depend on the thread count"
    );
}

/// The pinned digest of `lossy_fabric_sample_paths_are_pinned_and_thread_invariant`.
const PINNED_LOSSY_FABRIC_DIGEST: u64 = 0x1f95_93b6_f075_8478;

/// The digests above must not depend on the worker-thread count — pin the
/// invariance itself so the gate cannot be weakened by a scheduling leak.
#[test]
fn pinned_digests_are_thread_invariant() {
    let scenario = registry::get("cascading-failures").expect("preset");
    let run = |threads: usize| estimate(&scenario, threads).completion_times;
    assert_eq!(digest_f64s(&run(1)), digest_f64s(&run(7)));
}
