//! The common-random-numbers invariant of the policy axis, property-based:
//! a `compare` over K policies must be **bit-identical** to K independent
//! single-policy sweeps with the same seeds.
//!
//! This is the contract that makes paired deltas meaningful — policy k's
//! replication `r` sees exactly the trajectory it would have seen in its
//! own solo sweep, so the difference between two policies' replication-`r`
//! outcomes isolates the policy, never the noise. The property is checked
//! at the *rendered byte* level (each policy's compare rows rendered as CSV
//! under the solo sweep's schema, which has exactly the base columns, vs
//! the solo sweep's CSV), over random scenario choices, policy sets,
//! replication counts and scheduler placements.

use churnbal::lab::{
    registry, Experiment, ExperimentResult, ExperimentRow, ExperimentSpec, PolicyEntry, RunOptions,
};
use churnbal::prelude::PolicySpec;
use proptest::prelude::*;

/// Presets cheap enough for a property loop, spanning churn regimes and
/// node counts (two-node paper pair, 4-node cascading, 3-node hot spare).
const SCENARIOS: [&str; 3] = ["paper-fig5", "cascading-failures", "hot-spare"];

/// n-node-safe policy names the comparison can draw from.
const POLICY_POOL: [&str; 5] = [
    "none",
    "lbp2",
    "upon-failure-only",
    "initial-only@0.8",
    "episodic-lbp2@0.6",
];

fn scenario_index() -> BoxedStrategy<usize> {
    (0..SCENARIOS.len()).boxed()
}

/// A subset of the pool, as a bitmask over POLICY_POOL (admissibility —
/// at least two set bits — is enforced with `prop_assume!` in the body).
fn policy_mask() -> BoxedStrategy<u32> {
    (0u32..(1 << POLICY_POOL.len())).boxed()
}

/// `rows` rendered as CSV under the schema of a solo sweep: exactly the
/// base columns, so a compare row's theory and delta columns drop out.
fn under_schema_of(solo: &ExperimentResult, rows: Vec<ExperimentRow>) -> String {
    ExperimentResult {
        schema: solo.schema.clone(),
        rows,
    }
    .to_csv()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compare_is_bit_identical_to_independent_sweeps(
        scenario_idx in scenario_index(),
        mask in policy_mask(),
        reps in 2u64..5,
        threads in prop_oneof![Just(1usize), Just(3), Just(8)],
        chunk in prop_oneof![Just(0usize), Just(1), Just(3)],
    ) {
        prop_assume!(mask.count_ones() >= 2);
        let mut scenario = registry::get(SCENARIOS[scenario_idx]).expect("preset");
        scenario.axes.clear();
        let names: Vec<&str> = POLICY_POOL
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        let entries: Vec<PolicyEntry> = names
            .iter()
            .map(|n| {
                let spec = PolicySpec::parse(n, &scenario.policy).expect("pool parses");
                // Label with the kind, so the solo sweep (whose label is
                // always the kind) renders identical bytes.
                PolicyEntry::from_spec(spec)
            })
            .collect();
        let options = RunOptions {
            reps: Some(reps),
            threads,
            chunk,
            ..RunOptions::default()
        };
        let combined = Experiment::new(ExperimentSpec::compare(
            scenario.clone(),
            Vec::new(),
            entries.clone(),
            options,
        ))
        .collect()
        .expect("compare runs");
        prop_assert_eq!(combined.rows.len(), entries.len());

        for (v, entry) in entries.iter().enumerate() {
            let mut solo_scenario = scenario.clone();
            solo_scenario.policy = entry.spec.clone();
            let solo = Experiment::new(ExperimentSpec::sweep(
                solo_scenario,
                Vec::new(),
                RunOptions {
                    reps: Some(reps),
                    threads: 1, // the solo reference schedule
                    ..RunOptions::default()
                },
            ))
            .collect()
            .expect("solo sweep runs");
            prop_assert_eq!(solo.rows.len(), 1);
            let compare_row = combined
                .rows
                .iter()
                .find(|r| r.policy_index == v)
                .expect("row per policy");
            // Byte-level equality of the shared statistics columns.
            prop_assert_eq!(
                under_schema_of(&solo, vec![compare_row.clone()]),
                solo.to_csv(),
                "policy {} diverged from its solo sweep",
                entry.label
            );
        }
    }
}

/// The same invariant on a *grid*: compare over the paper's delay axis,
/// every policy against its own solo sweep of the full grid.
#[test]
fn gridded_compare_matches_solo_sweeps() {
    let scenario = registry::get("paper-delay-crossover").expect("preset");
    let names = ["lbp2", "none"];
    let entries: Vec<PolicyEntry> = names
        .iter()
        .map(|n| PolicyEntry::from_spec(PolicySpec::parse(n, &scenario.policy).expect("ok")))
        .collect();
    let options = RunOptions {
        reps: Some(4),
        threads: 3,
        ..RunOptions::default()
    };
    let combined = Experiment::new(ExperimentSpec::compare(
        scenario.clone(),
        Vec::new(),
        entries.clone(),
        options,
    ))
    .collect()
    .expect("compare runs");
    assert_eq!(combined.rows.len(), 5 * 2, "5 delay points x 2 policies");
    for (v, entry) in entries.iter().enumerate() {
        let mut solo_scenario = scenario.clone();
        solo_scenario.policy = entry.spec.clone();
        let solo = Experiment::new(ExperimentSpec::sweep(solo_scenario, Vec::new(), options))
            .collect()
            .expect("solo runs");
        let compare_rows: Vec<ExperimentRow> = combined
            .rows
            .iter()
            .filter(|r| r.policy_index == v)
            .cloned()
            .collect();
        assert_eq!(
            under_schema_of(&solo, compare_rows),
            solo.to_csv(),
            "{} grid diverged",
            entry.label
        );
    }
}
