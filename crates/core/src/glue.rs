//! Conversions between the simulator's configuration and the analytical
//! model's parameter set.

use churnbal_cluster::SystemConfig;
use churnbal_model::{DelayModel, TwoNodeParams};

/// Extracts the two-node analytical parameters from a simulator
/// configuration.
///
/// The analytical model always treats the batch transfer delay as a single
/// exponential with mean `fixed + per_task·L` (the paper's §2 assumption);
/// the simulator's [`DelayLaw`](churnbal_cluster::DelayLaw) shape is
/// irrelevant here — which is precisely the approximation the paper makes
/// when it fits the test-bed's measured delays with an exponential (§4).
///
/// # Panics
/// Panics if the system does not have exactly two nodes.
#[must_use]
pub fn model_params(config: &SystemConfig) -> TwoNodeParams {
    assert_eq!(
        config.num_nodes(),
        2,
        "the closed-form model covers two nodes; use multinode_mean_exact for small n > 2"
    );
    TwoNodeParams::new(
        [config.nodes[0].service_rate, config.nodes[1].service_rate],
        [config.nodes[0].failure_rate, config.nodes[1].failure_rate],
        [config.nodes[0].recovery_rate, config.nodes[1].recovery_rate],
        DelayModel::new(config.network.fixed, config.network.per_task),
    )
}

/// Initial workload vector of a two-node configuration.
///
/// # Panics
/// Panics if the system does not have exactly two nodes.
#[must_use]
pub fn initial_workload(config: &SystemConfig) -> [u32; 2] {
    assert_eq!(config.num_nodes(), 2, "two-node helper");
    [config.nodes[0].initial_tasks, config.nodes[1].initial_tasks]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_roundtrips() {
        let cfg = SystemConfig::paper([100, 60]);
        let p = model_params(&cfg);
        assert_eq!(p, TwoNodeParams::paper());
        assert_eq!(initial_workload(&cfg), [100, 60]);
    }

    #[test]
    fn testbed_shift_is_carried_into_the_model() {
        let cfg = churnbal_cluster::testbed::testbed_config([10, 10]);
        let p = model_params(&cfg);
        assert!((p.delay.mean(10) - (0.005 + 0.2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn three_node_config_rejected() {
        use churnbal_cluster::{NetworkConfig, NodeConfig};
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::reliable(1.0, 1),
                NodeConfig::reliable(1.0, 1),
                NodeConfig::reliable(1.0, 1),
            ],
            NetworkConfig::exponential(0.02),
        );
        let _ = model_params(&cfg);
    }
}
