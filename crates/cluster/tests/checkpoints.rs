//! Boundary semantics of the event loop's checkpoint: what happens to an
//! event that lands exactly on the deadline or on a probe tick.
//!
//! The pinned digests fix whole trajectories, but exponential draws
//! almost never tie with the deadline or a tick, so they leave these
//! cases open. A fixed external arrival at t = 5.0 makes the ties exact:
//! - an event at exactly the deadline still executes;
//! - the tick at the deadline is emitted and none after it;
//! - a tick at an event's instant samples the state before that event.

use churnbal_cluster::{
    simulate, ExternalArrival, NetworkConfig, NoBalancing, NodeConfig, ProbeSample, SimOptions,
    SimOutcome, SystemConfig,
};

/// The arrival's instant, which the tests below put a deadline or a
/// probe tick on.
const ARRIVAL_AT: f64 = 5.0;

/// A reliable pair, 10,000 tasks on node 0 and none on node 1; with
/// `arrival`, 4 more tasks land on node 1 at exactly [`ARRIVAL_AT`].
fn pair(arrival: bool) -> SystemConfig {
    let cfg = SystemConfig::new(
        vec![
            NodeConfig::reliable(1.08, 10_000),
            NodeConfig::reliable(1.86, 0),
        ],
        NetworkConfig::exponential(0.02),
    );
    if arrival {
        cfg.with_external_arrivals(vec![ExternalArrival {
            time: ARRIVAL_AT,
            node: 1,
            tasks: 4,
        }])
    } else {
        cfg
    }
}

fn run(arrival: bool, options: SimOptions) -> SimOutcome {
    simulate(&pair(arrival), &mut NoBalancing, 7, options)
}

fn probed_to_six(arrival: bool) -> Vec<ProbeSample> {
    let out = run(
        arrival,
        SimOptions {
            probe_dt: Some(1.0),
            deadline: Some(6.0),
            ..SimOptions::default()
        },
    );
    assert!(!out.completed);
    out.probe.expect("probe requested").samples
}

#[test]
fn an_event_at_exactly_the_deadline_still_runs() {
    let out = run(
        true,
        SimOptions {
            deadline: Some(ARRIVAL_AT),
            record_trace: true,
            ..SimOptions::default()
        },
    );
    assert!(!out.completed);
    assert_eq!(out.completion_time, ARRIVAL_AT);
    let trace = out.trace.expect("trace requested");
    assert_eq!(trace.queue_at(1, ARRIVAL_AT), 4, "the arrival landed");
}

#[test]
fn the_tick_at_the_deadline_is_emitted_and_none_after_it() {
    let times: Vec<f64> = probed_to_six(true).iter().map(|s| s.time).collect();
    assert_eq!(times, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
}

#[test]
fn a_tick_at_an_event_samples_the_state_before_it() {
    let with = probed_to_six(true);
    let without = probed_to_six(false);
    assert_eq!(with[4].time, ARRIVAL_AT);
    assert_eq!(with[4], without[4], "the tick precedes the arrival");
    assert_ne!(with[5], without[5], "the arrival shows a tick later");
}
