//! Property-based tests of the simulation substrate: conservation laws and
//! determinism must hold for arbitrary configurations and policies.

use churnbal_cluster::{
    simulate, ChannelModel, DelayLaw, DownPolicy, NetworkConfig, NodeConfig, Policy, SimOptions,
    SystemConfig, SystemView, TransferOrder,
};
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeConfig> {
    (
        0.2f64..4.0,
        prop::bool::ANY,
        0.02f64..0.3,
        0.02f64..0.3,
        0u32..40,
    )
        .prop_map(|(rate, churns, f, r, tasks)| {
            if churns {
                NodeConfig::new(rate, f, r, tasks)
            } else {
                NodeConfig::reliable(rate, tasks)
            }
        })
}

fn arb_config() -> impl Strategy<Value = SystemConfig> {
    (
        prop::collection::vec(arb_node(), 2..5),
        0.001f64..0.5,
        prop_oneof![
            Just(DelayLaw::ExponentialBatch),
            Just(DelayLaw::ErlangPerTask),
            Just(DelayLaw::DeterministicBatch)
        ],
    )
        .prop_map(|(nodes, per_task, law)| {
            SystemConfig::new(nodes, NetworkConfig::new(0.001, per_task, law))
        })
}

/// A pseudo-random policy that emits arbitrary (possibly over-sized)
/// transfer orders at every hook — a fuzzer for the engine's invariants.
struct ChaosPolicy {
    seed: u64,
    calls: u64,
}

impl ChaosPolicy {
    fn orders(&mut self, view: &SystemView<'_>, sink: &mut Vec<TransferOrder>) {
        self.calls += 1;
        let n = view.len();
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.calls);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let count = (next() % 3) as usize;
        for _ in 0..count {
            let from = (next() % n as u64) as usize;
            let mut to = (next() % n as u64) as usize;
            if to == from {
                to = (to + 1) % n;
            }
            sink.push(TransferOrder {
                from,
                to,
                tasks: (next() % 50) as u32,
            });
        }
    }
}

impl Policy for ChaosPolicy {
    fn name(&self) -> &str {
        "chaos"
    }
    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.orders(view, orders);
    }
    fn on_failure(&mut self, _node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.orders(view, orders);
    }
    fn on_recovery(
        &mut self,
        _node: usize,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.orders(view, orders);
    }
    fn on_transfer_arrival(
        &mut self,
        _n: usize,
        _t: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.orders(view, orders);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every task is processed exactly once, whatever the topology, delay
    /// law and policy chaos.
    #[test]
    fn task_conservation(config in arb_config(), seed in any::<u64>()) {
        let total = config.total_tasks();
        let mut policy = ChaosPolicy { seed, calls: 0 };
        let out = simulate(&config, &mut policy, seed, SimOptions::default());
        prop_assert!(out.completed);
        prop_assert_eq!(out.metrics.total_processed(), total);
    }

    /// Same seed -> identical outcome, even under policy chaos.
    #[test]
    fn chaos_determinism(config in arb_config(), seed in any::<u64>()) {
        let a = simulate(&config, &mut ChaosPolicy { seed, calls: 0 }, seed, SimOptions::default());
        let b = simulate(&config, &mut ChaosPolicy { seed, calls: 0 }, seed, SimOptions::default());
        prop_assert_eq!(a.completion_time, b.completion_time);
        prop_assert_eq!(a.metrics, b.metrics);
    }

    /// Clamping accounting: shipped + clamped == requested in total, and
    /// shipped never exceeds what existed.
    #[test]
    fn clamp_accounting(config in arb_config(), seed in any::<u64>()) {
        let mut policy = ChaosPolicy { seed, calls: 0 };
        let out = simulate(&config, &mut policy, seed, SimOptions::default());
        prop_assert!(out.metrics.counters.tasks_shipped <= config.total_tasks() * (out.metrics.counters.transfers + 1));
        // every shipped task is eventually processed (conservation above),
        // and downtime is non-negative
        for &d in &out.metrics.downtime_per_node {
            prop_assert!(d >= 0.0);
        }
    }

    /// Completion time bounds: at least the perfect-parallel lower bound
    /// could be violated only by randomness in service times, but the
    /// *expected*-work lower bound `total / Σλd` divided by 20 is safe for
    /// any realisation sanity (catch wildly wrong clocks), and the run is
    /// always finite.
    #[test]
    fn completion_time_is_sane(config in arb_config(), seed in any::<u64>()) {
        let mut policy = ChaosPolicy { seed, calls: 0 };
        let out = simulate(&config, &mut policy, seed, SimOptions::default());
        prop_assert!(out.completion_time.is_finite());
        if config.total_tasks() == 0 {
            prop_assert_eq!(out.completion_time, 0.0);
        } else {
            prop_assert!(out.completion_time > 0.0);
        }
    }

    /// Arming the channel subsystem in its zero-effect shapes — an explicit
    /// [`ChannelModel::Reliable`], or a lossy model with zero loss
    /// probability — is bit-identical to the default engine for arbitrary
    /// configurations and policy chaos: channel randomness lives on a
    /// dedicated stream, so a model that never fires perturbs nothing.
    #[test]
    fn reliable_channel_is_bit_identical_to_default(config in arb_config(), seed in any::<u64>()) {
        let base = simulate(&config, &mut ChaosPolicy { seed, calls: 0 }, seed, SimOptions::default());
        let explicit = config.clone().with_channel_model(ChannelModel::Reliable);
        let a = simulate(&explicit, &mut ChaosPolicy { seed, calls: 0 }, seed, SimOptions::default());
        prop_assert_eq!(a.completion_time, base.completion_time);
        prop_assert_eq!(&a.metrics, &base.metrics);
        let zero_loss = config.clone().with_channel_model(ChannelModel::Lossy {
            loss_probability: 0.0,
            on_down: DownPolicy::Enqueue,
            max_retries: 0,
            retry_backoff: 0.1,
        });
        let b = simulate(&zero_loss, &mut ChaosPolicy { seed, calls: 0 }, seed, SimOptions::default());
        prop_assert_eq!(b.completion_time, base.completion_time);
        prop_assert_eq!(&b.metrics, &base.metrics);
    }

    /// Under an actually lossy channel the ledger still closes: every task
    /// is processed or on the dead-letter books, with the conservation
    /// auditor armed at every event and for every down-node policy.
    #[test]
    fn lossy_channel_conserves_tasks(
        config in arb_config(),
        seed in any::<u64>(),
        loss in 0.0f64..0.9,
        down_idx in 0usize..3,
        max_retries in 0u32..4,
    ) {
        let on_down = [DownPolicy::Enqueue, DownPolicy::Drop, DownPolicy::Bounce][down_idx];
        let lossy = config.clone().with_channel_model(ChannelModel::Lossy {
            loss_probability: loss,
            on_down,
            max_retries,
            retry_backoff: 0.05,
        });
        let mut policy = ChaosPolicy { seed, calls: 0 };
        let out = simulate(
            &lossy,
            &mut policy,
            seed,
            SimOptions { audit: true, ..SimOptions::default() },
        );
        prop_assert!(out.completed);
        prop_assert_eq!(
            out.metrics.total_processed() + out.metrics.counters.tasks_lost,
            config.total_tasks()
        );
    }

    /// Queue traces start at the configured workloads and end at zero.
    #[test]
    fn traces_are_consistent(config in arb_config(), seed in any::<u64>()) {
        let mut policy = ChaosPolicy { seed, calls: 0 };
        let out = simulate(
            &config,
            &mut policy,
            seed,
            SimOptions { record_trace: true, ..SimOptions::default() },
        );
        let tr = out.trace.expect("requested");
        for (i, n) in config.nodes.iter().enumerate() {
            // The first breakpoint is the configured workload (a policy may
            // transfer at exactly t = 0, appending further t = 0 entries).
            prop_assert_eq!(tr.queue_series(i)[0], (0.0, n.initial_tasks));
            prop_assert_eq!(tr.queue_at(i, out.completion_time + 1.0), 0);
        }
    }
}
