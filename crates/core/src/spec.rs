//! Declarative policy construction.
//!
//! [`PolicySpec`] is a plain-data description of any policy the suite
//! implements; [`PolicySpec::build`] turns it into a runnable boxed
//! [`AnyPolicy`] against a concrete [`SystemConfig`]. The scenario lab
//! (`churnbal_lab`) serializes these specs to its TOML subset, and sweep
//! axes rewrite them (e.g. the gain) without touching policy code.

use churnbal_cluster::{NoBalancing, Policy, SystemConfig, SystemView, TransferOrder};

use crate::baseline::{InitialBalanceOnly, UponFailureOnly};
use crate::dynamic::{DynamicLbp1, EpisodicLbp2};
use crate::lbp1::Lbp1;
use crate::lbp2::Lbp2;

/// A type-erased, heap-allocated policy — what [`PolicySpec::build`]
/// returns, so heterogeneous policies can flow through one code path.
pub struct AnyPolicy {
    inner: Box<dyn Policy>,
}

impl std::fmt::Debug for AnyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyPolicy")
            .field("name", &self.inner.name())
            .finish()
    }
}

impl AnyPolicy {
    /// Wraps a concrete policy.
    #[must_use]
    pub fn new(policy: impl Policy + 'static) -> Self {
        Self {
            inner: Box::new(policy),
        }
    }
}

impl Policy for AnyPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.inner.on_start(view, orders);
    }

    fn on_failure(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.inner.on_failure(node, view, orders);
    }

    fn on_recovery(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.inner.on_recovery(node, view, orders);
    }

    fn on_transfer_arrival(
        &mut self,
        node: usize,
        tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.inner.on_transfer_arrival(node, tasks, view, orders);
    }

    fn on_external_arrival(
        &mut self,
        node: usize,
        tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.inner.on_external_arrival(node, tasks, view, orders);
    }
}

/// Plain-data description of a policy, buildable against any
/// [`SystemConfig`].
#[derive(Clone, Debug, PartialEq)]
pub enum PolicySpec {
    /// The do-nothing baseline.
    NoBalancing,
    /// Fixed-orientation LBP-1: ship `round(gain · m_sender)` at `t = 0`.
    Lbp1 {
        /// Sending node index.
        sender: usize,
        /// Receiving node index.
        receiver: usize,
        /// Gain `K ∈ [0, 1]` applied to the sender's initial queue.
        gain: f64,
    },
    /// Model-optimal LBP-1 (two-node configurations only).
    Lbp1Optimal,
    /// LBP-2 with the given initial gain and full Eq. 8 compensation.
    Lbp2 {
        /// Initial-balancing gain `K ∈ [0, 1]`.
        gain: f64,
    },
    /// LBP-2 with the no-failure-model optimal initial gain (two nodes).
    Lbp2Optimal,
    /// LBP-2 re-running its balancing episode at every external arrival.
    EpisodicLbp2 {
        /// Episode gain `K ∈ [0, 1]`.
        gain: f64,
    },
    /// LBP-1 re-optimised at every external arrival (two nodes).
    DynamicLbp1,
    /// Initial balancing only, no failure compensation.
    InitialBalanceOnly {
        /// Initial-balancing gain `K ∈ [0, 1]`.
        gain: f64,
    },
    /// Eq. 8 failure compensation only, no initial balancing.
    UponFailureOnly,
    /// Fault-injection fixture: behaves as [`PolicySpec::NoBalancing`]
    /// except that replication `rep` panics at its first policy callback.
    /// Exists to exercise the executor's panic quarantine end-to-end
    /// (crash-safety tests, CI smoke); never a real balancing policy.
    ChaosPanic {
        /// Replication index whose worker panics.
        rep: u64,
    },
}

impl PolicySpec {
    /// Stable kebab-case identifier, as used by the scenario lab's TOML.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::NoBalancing => "no-balancing",
            Self::Lbp1 { .. } => "lbp1",
            Self::Lbp1Optimal => "lbp1-optimal",
            Self::Lbp2 { .. } => "lbp2",
            Self::Lbp2Optimal => "lbp2-optimal",
            Self::EpisodicLbp2 { .. } => "episodic-lbp2",
            Self::DynamicLbp1 => "dynamic-lbp1",
            Self::InitialBalanceOnly { .. } => "initial-only",
            Self::UponFailureOnly => "upon-failure-only",
            Self::ChaosPanic { .. } => "chaos-panic",
        }
    }

    /// The spec's gain parameter, when it has one.
    #[must_use]
    pub fn gain(&self) -> Option<f64> {
        match self {
            Self::Lbp1 { gain, .. }
            | Self::Lbp2 { gain }
            | Self::EpisodicLbp2 { gain }
            | Self::InitialBalanceOnly { gain } => Some(*gain),
            _ => None,
        }
    }

    /// Returns a copy with the gain replaced — how a sweep's `gain` axis
    /// rewrites the policy.
    ///
    /// # Errors
    /// Fails when the policy has no gain parameter or the value is outside
    /// `[0, 1]`.
    pub fn with_gain(&self, gain: f64) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&gain) {
            return Err(format!(
                "policy {}: gain must be in [0, 1], got {gain}",
                self.kind()
            ));
        }
        match self {
            Self::Lbp1 {
                sender, receiver, ..
            } => Ok(Self::Lbp1 {
                sender: *sender,
                receiver: *receiver,
                gain,
            }),
            Self::Lbp2 { .. } => Ok(Self::Lbp2 { gain }),
            Self::EpisodicLbp2 { .. } => Ok(Self::EpisodicLbp2 { gain }),
            Self::InitialBalanceOnly { .. } => Ok(Self::InitialBalanceOnly { gain }),
            other => Err(format!(
                "policy {} has no gain parameter to sweep",
                other.kind()
            )),
        }
    }

    /// All stable kind identifiers, for help text and error messages.
    pub const KINDS: [&'static str; 10] = [
        "no-balancing",
        "lbp1",
        "lbp1-optimal",
        "lbp2",
        "lbp2-optimal",
        "episodic-lbp2",
        "dynamic-lbp1",
        "initial-only",
        "upon-failure-only",
        "chaos-panic",
    ];

    /// Parses a compact policy name — a [`PolicySpec::kind`] identifier
    /// (plus the shorthand `none`), optionally with an `@gain` suffix,
    /// e.g. `lbp2`, `none`, `lbp1@0.5`.
    ///
    /// `template` supplies structural parameters the name alone cannot: a
    /// name matching the template's kind inherits the template spec
    /// verbatim (so `lbp1` against a Fig. 3 scenario keeps its
    /// sender/receiver/gain); otherwise gains default to 1 and LBP-1
    /// ships node 0 → node 1. This is how `churnbal-lab compare
    /// --policies a,b,...` resolves its policy set against a scenario.
    ///
    /// # Errors
    /// Names the valid identifiers on an unknown name; propagates
    /// [`PolicySpec::with_gain`] failures for an `@gain` suffix on a
    /// gainless policy or an out-of-range value.
    pub fn parse(name: &str, template: &Self) -> Result<Self, String> {
        let name = name.trim();
        // chaos-panic's `@` suffix is a replication *index*, not a gain —
        // intercept it before the generic `kind@gain` split would force
        // the value through the [0, 1] gain check.
        if name == "chaos-panic" {
            return Ok(match template {
                Self::ChaosPanic { .. } => template.clone(),
                _ => Self::ChaosPanic { rep: 0 },
            });
        }
        if let Some(r) = name.strip_prefix("chaos-panic@") {
            let rep: u64 = r.trim().parse().map_err(|_| {
                format!(
                    "policy `{name}`: `{}` is not a replication index (expected \
                     `chaos-panic@rep`)",
                    r.trim()
                )
            })?;
            return Ok(Self::ChaosPanic { rep });
        }
        let (kind, gain) = match name.split_once('@') {
            None => (name, None),
            Some((kind, g)) => {
                let g: f64 = g.trim().parse().map_err(|_| {
                    format!("policy `{name}`: `{g}` is not a number (expected `kind@gain`)")
                })?;
                (kind.trim(), Some(g))
            }
        };
        let base = match kind {
            "none" | "no-balancing" => Self::NoBalancing,
            "lbp1" => match template {
                Self::Lbp1 { .. } => template.clone(),
                _ => Self::Lbp1 {
                    sender: 0,
                    receiver: 1,
                    gain: 1.0,
                },
            },
            "lbp1-optimal" => Self::Lbp1Optimal,
            "lbp2" => match template {
                Self::Lbp2 { .. } => template.clone(),
                _ => Self::Lbp2 { gain: 1.0 },
            },
            "lbp2-optimal" => Self::Lbp2Optimal,
            "episodic-lbp2" => match template {
                Self::EpisodicLbp2 { .. } => template.clone(),
                _ => Self::EpisodicLbp2 { gain: 1.0 },
            },
            "dynamic-lbp1" => Self::DynamicLbp1,
            "initial-only" => match template {
                Self::InitialBalanceOnly { .. } => template.clone(),
                _ => Self::InitialBalanceOnly { gain: 1.0 },
            },
            "upon-failure-only" => Self::UponFailureOnly,
            other => {
                return Err(format!(
                    "unknown policy `{other}` (known: none | {})",
                    Self::KINDS.join(" | ")
                ))
            }
        };
        match gain {
            None => Ok(base),
            Some(g) => base.with_gain(g),
        }
    }

    /// Checks the spec against a configuration without building.
    ///
    /// # Errors
    /// Fails with a precise message on out-of-range parameters or a policy
    /// that does not support the configuration's node count.
    pub fn validate_for(&self, config: &SystemConfig) -> Result<(), String> {
        let n = config.num_nodes();
        if let Some(g) = self.gain() {
            if !(0.0..=1.0).contains(&g) {
                return Err(format!(
                    "policy {}: gain must be in [0, 1], got {g}",
                    self.kind()
                ));
            }
        }
        match self {
            Self::Lbp1 {
                sender, receiver, ..
            } => {
                if *sender >= n || *receiver >= n {
                    return Err(format!(
                        "policy lbp1: node indices ({sender}, {receiver}) out of range for \
                         {n} nodes"
                    ));
                }
                if sender == receiver {
                    return Err("policy lbp1: sender and receiver must differ".into());
                }
                if let Some(topo) = config.topology() {
                    if !topo.contains_edge(*sender, *receiver) {
                        return Err(format!(
                            "policy lbp1: ({sender} -> {receiver}) is not an edge of the \
                             topology, so the transfer cannot be routed"
                        ));
                    }
                }
                Ok(())
            }
            Self::Lbp1Optimal | Self::Lbp2Optimal | Self::DynamicLbp1 => {
                if n == 2 {
                    Ok(())
                } else {
                    Err(format!(
                        "policy {}: the closed-form model covers exactly two nodes (got {n})",
                        self.kind()
                    ))
                }
            }
            _ => Ok(()),
        }
    }

    /// The spec each replication should build, solved once for `config`:
    /// `lbp1-optimal` becomes the `lbp1 { sender, receiver, gain }` its
    /// Eq. 4 optimisation picks and `lbp2-optimal` the `lbp2 { gain }` of
    /// its no-failure optimum; every other kind comes back as written. The
    /// resolved spec builds a policy that issues exactly the written one's
    /// orders, without re-solving the model per build.
    ///
    /// # Errors
    /// Same conditions as [`PolicySpec::validate_for`].
    pub fn resolve(&self, config: &SystemConfig) -> Result<Self, String> {
        self.validate_for(config)?;
        Ok(match self {
            Self::Lbp1Optimal => {
                let lbp1 = Lbp1::optimal(config);
                Self::Lbp1 {
                    sender: lbp1.sender(),
                    receiver: lbp1.receiver(),
                    gain: lbp1.gain(),
                }
            }
            Self::Lbp2Optimal => Self::Lbp2 {
                gain: Lbp2::optimal_initial_gain(config),
            },
            other => other.clone(),
        })
    }

    /// Builds a runnable policy for `config`.
    ///
    /// # Errors
    /// Same conditions as [`PolicySpec::validate_for`].
    pub fn build(&self, config: &SystemConfig) -> Result<AnyPolicy, String> {
        self.validate_for(config)?;
        Ok(match self {
            Self::NoBalancing => AnyPolicy::new(NoBalancing),
            Self::Lbp1 {
                sender,
                receiver,
                gain,
            } => AnyPolicy::new(Lbp1::with_gain(
                *sender,
                *receiver,
                config.nodes[*sender].initial_tasks,
                *gain,
            )),
            Self::Lbp1Optimal => AnyPolicy::new(Lbp1::optimal(config)),
            Self::Lbp2 { gain } => AnyPolicy::new(Lbp2::new(*gain)),
            Self::Lbp2Optimal => AnyPolicy::new(Lbp2::optimal(config)),
            Self::EpisodicLbp2 { gain } => AnyPolicy::new(EpisodicLbp2::new(*gain)),
            Self::DynamicLbp1 => AnyPolicy::new(DynamicLbp1::new(config)),
            Self::InitialBalanceOnly { gain } => AnyPolicy::new(InitialBalanceOnly::new(*gain)),
            Self::UponFailureOnly => AnyPolicy::new(UponFailureOnly::new()),
            // `build` has no replication index, so the fixture comes out
            // unarmed; [`PolicySpec::build_for_rep`] arms it.
            Self::ChaosPanic { .. } => AnyPolicy::new(ChaosPanicPolicy { armed: false }),
        })
    }

    /// Builds a runnable policy for `config` and replication `rep`.
    ///
    /// Identical to [`PolicySpec::build`] for every real policy — the
    /// replication index only matters to the [`PolicySpec::ChaosPanic`]
    /// fault-injection fixture, which arms its panic when `rep` matches
    /// the spec's target. Executors that know the replication index
    /// should prefer this entry point so chaos specs work end-to-end.
    ///
    /// # Errors
    /// Same conditions as [`PolicySpec::validate_for`].
    pub fn build_for_rep(&self, config: &SystemConfig, rep: u64) -> Result<AnyPolicy, String> {
        match self {
            Self::ChaosPanic { rep: target } => {
                self.validate_for(config)?;
                Ok(AnyPolicy::new(ChaosPanicPolicy {
                    armed: rep == *target,
                }))
            }
            _ => self.build(config),
        }
    }
}

/// Runtime form of [`PolicySpec::ChaosPanic`]: a do-nothing policy whose
/// armed replication panics at `on_start`, before any order is issued.
struct ChaosPanicPolicy {
    armed: bool,
}

impl Policy for ChaosPanicPolicy {
    fn name(&self) -> &str {
        "chaos-panic"
    }

    fn on_start(&mut self, _view: &SystemView<'_>, _orders: &mut Vec<TransferOrder>) {
        assert!(!self.armed, "chaos-panic: injected worker panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnbal_cluster::{simulate, NetworkConfig, NodeConfig, SimOptions};

    fn three_node() -> SystemConfig {
        SystemConfig::new(
            vec![
                NodeConfig::reliable(1.0, 30),
                NodeConfig::reliable(1.5, 0),
                NodeConfig::reliable(2.0, 0),
            ],
            NetworkConfig::exponential(0.02),
        )
    }

    #[test]
    fn built_policy_matches_direct_construction() {
        let cfg = SystemConfig::paper([100, 60]);
        let spec = PolicySpec::Lbp1 {
            sender: 0,
            receiver: 1,
            gain: 0.35,
        };
        let mut built = spec.build(&cfg).expect("valid");
        let mut direct = Lbp1::with_gain(0, 1, 100, 0.35);
        let a = simulate(&cfg, &mut built, 5, SimOptions::default());
        let b = simulate(&cfg, &mut direct, 5, SimOptions::default());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(built.name(), "LBP-1");
    }

    #[test]
    fn every_kind_builds_on_a_two_node_config() {
        let cfg = SystemConfig::paper([50, 30]);
        let specs = [
            PolicySpec::NoBalancing,
            PolicySpec::Lbp1 {
                sender: 0,
                receiver: 1,
                gain: 0.4,
            },
            PolicySpec::Lbp1Optimal,
            PolicySpec::Lbp2 { gain: 1.0 },
            PolicySpec::Lbp2Optimal,
            PolicySpec::EpisodicLbp2 { gain: 1.0 },
            PolicySpec::DynamicLbp1,
            PolicySpec::InitialBalanceOnly { gain: 1.0 },
            PolicySpec::UponFailureOnly,
        ];
        for spec in specs {
            let mut p = spec
                .build(&cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.kind()));
            let out = simulate(&cfg, &mut p, 9, SimOptions::default());
            assert!(out.completed, "{} did not complete", spec.kind());
        }
    }

    #[test]
    fn two_node_only_policies_reject_larger_systems() {
        let cfg = three_node();
        for spec in [
            PolicySpec::Lbp1Optimal,
            PolicySpec::Lbp2Optimal,
            PolicySpec::DynamicLbp1,
        ] {
            let err = spec.build(&cfg).unwrap_err();
            assert!(err.contains("two nodes"), "{err}");
        }
        // n-node-capable specs are fine.
        assert!(PolicySpec::Lbp2 { gain: 1.0 }.build(&cfg).is_ok());
    }

    #[test]
    fn bad_parameters_are_rejected_with_messages() {
        let cfg = SystemConfig::paper([10, 10]);
        let err = PolicySpec::Lbp1 {
            sender: 0,
            receiver: 5,
            gain: 0.5,
        }
        .build(&cfg)
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = PolicySpec::Lbp1 {
            sender: 1,
            receiver: 1,
            gain: 0.5,
        }
        .build(&cfg)
        .unwrap_err();
        assert!(err.contains("must differ"), "{err}");
        let err = PolicySpec::Lbp2 { gain: 1.5 }.build(&cfg).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn gain_rewrite_works_and_rejects_gainless_policies() {
        let spec = PolicySpec::Lbp2 { gain: 0.3 };
        assert_eq!(
            spec.with_gain(0.9).expect("ok"),
            PolicySpec::Lbp2 { gain: 0.9 }
        );
        let err = PolicySpec::NoBalancing.with_gain(0.5).unwrap_err();
        assert!(err.contains("no gain parameter"), "{err}");
        let err = PolicySpec::Lbp2 { gain: 0.3 }.with_gain(2.0).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn parse_resolves_names_against_a_template() {
        let fig3 = PolicySpec::Lbp1 {
            sender: 0,
            receiver: 1,
            gain: 0.35,
        };
        // Matching kind inherits the template verbatim.
        assert_eq!(PolicySpec::parse("lbp1", &fig3).expect("ok"), fig3);
        // Other kinds fall back to their defaults.
        assert_eq!(
            PolicySpec::parse("lbp2", &fig3).expect("ok"),
            PolicySpec::Lbp2 { gain: 1.0 }
        );
        assert_eq!(
            PolicySpec::parse("none", &fig3).expect("ok"),
            PolicySpec::NoBalancing
        );
        assert_eq!(
            PolicySpec::parse("no-balancing", &fig3).expect("ok"),
            PolicySpec::NoBalancing
        );
        // @gain overrides, keeping the template's structure.
        assert_eq!(
            PolicySpec::parse("lbp1@0.5", &fig3).expect("ok"),
            PolicySpec::Lbp1 {
                sender: 0,
                receiver: 1,
                gain: 0.5
            }
        );
        // Every stable kind parses against any template.
        for kind in PolicySpec::KINDS {
            let spec = PolicySpec::parse(kind, &fig3).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(spec.kind(), kind);
        }
    }

    #[test]
    fn parse_rejects_bad_names_and_gains() {
        let t = PolicySpec::NoBalancing;
        let err = PolicySpec::parse("lbp3", &t).unwrap_err();
        assert!(err.contains("unknown policy `lbp3`"), "{err}");
        assert!(err.contains("lbp2-optimal"), "lists the kinds: {err}");
        let err = PolicySpec::parse("none@0.5", &t).unwrap_err();
        assert!(err.contains("no gain parameter"), "{err}");
        let err = PolicySpec::parse("lbp2@1.5", &t).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
        let err = PolicySpec::parse("lbp2@x", &t).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn lbp1_must_ride_a_topology_edge() {
        use churnbal_cluster::Topology;
        let cfg = SystemConfig::new(
            vec![
                NodeConfig::reliable(1.0, 40),
                NodeConfig::reliable(1.0, 0),
                NodeConfig::reliable(1.0, 0),
                NodeConfig::reliable(1.0, 0),
            ],
            NetworkConfig::exponential(0.02),
        )
        .with_topology(Topology::ring(4).expect("valid ring"));
        let on_edge = PolicySpec::Lbp1 {
            sender: 0,
            receiver: 1,
            gain: 0.5,
        };
        assert!(on_edge.validate_for(&cfg).is_ok());
        let off_edge = PolicySpec::Lbp1 {
            sender: 0,
            receiver: 2,
            gain: 0.5,
        };
        let err = off_edge.validate_for(&cfg).unwrap_err();
        assert!(err.contains("not an edge"), "{err}");
    }

    #[test]
    fn chaos_panic_parses_reps_and_arms_only_its_target() {
        let t = PolicySpec::NoBalancing;
        assert_eq!(
            PolicySpec::parse("chaos-panic", &t).expect("ok"),
            PolicySpec::ChaosPanic { rep: 0 }
        );
        assert_eq!(
            PolicySpec::parse("chaos-panic@7", &t).expect("ok"),
            PolicySpec::ChaosPanic { rep: 7 }
        );
        let err = PolicySpec::parse("chaos-panic@x", &t).unwrap_err();
        assert!(err.contains("not a replication index"), "{err}");
        // A matching template is inherited, like every other kind.
        let armed = PolicySpec::ChaosPanic { rep: 3 };
        assert_eq!(PolicySpec::parse("chaos-panic", &armed).expect("ok"), armed);

        let cfg = SystemConfig::paper([20, 12]);
        // Unarmed replications run to completion like no-balancing.
        let mut p = armed.build_for_rep(&cfg, 2).expect("valid");
        let out = simulate(&cfg, &mut p, 11, SimOptions::default());
        assert!(out.completed);
        // The armed replication panics at its first callback.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p = armed.build_for_rep(&cfg, 3).expect("valid");
            let _ = simulate(&cfg, &mut p, 11, SimOptions::default());
        }));
        assert!(panicked.is_err());
        // `build` (no replication index) never arms.
        let mut p = armed.build(&cfg).expect("valid");
        let out = simulate(&cfg, &mut p, 11, SimOptions::default());
        assert!(out.completed);
    }

    #[test]
    fn build_for_rep_matches_build_for_real_policies() {
        let cfg = SystemConfig::paper([50, 30]);
        let spec = PolicySpec::Lbp2 { gain: 0.8 };
        let mut a = spec.build(&cfg).expect("valid");
        let mut b = spec.build_for_rep(&cfg, 5).expect("valid");
        let oa = simulate(&cfg, &mut a, 3, SimOptions::default());
        let ob = simulate(&cfg, &mut b, 3, SimOptions::default());
        assert_eq!(oa.completion_time, ob.completion_time);
        assert_eq!(oa.metrics, ob.metrics);
    }

    /// The `t = 0` orders `spec`'s policy issues on `config`.
    fn start_orders(spec: &PolicySpec, config: &SystemConfig) -> Vec<TransferOrder> {
        use churnbal_cluster::{NodeView, SystemSnapshot};
        let nodes: Vec<NodeView> = config
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| NodeView {
                id,
                queue_len: n.initial_tasks,
                up: true,
                service_rate: n.service_rate,
                failure_rate: n.failure_rate,
                recovery_rate: n.recovery_rate,
            })
            .collect();
        let mut orders = Vec::new();
        let mut policy = spec.build(config).expect("valid");
        policy.on_start(&SystemSnapshot::from_nodes(&nodes).view(), &mut orders);
        orders
    }

    #[test]
    fn optimal_specs_resolve_to_the_policy_they_solve_to() {
        for queues in [[100, 60], [60, 100], [12, 0], [0, 12], [30, 30]] {
            let cfg = SystemConfig::paper(queues);
            let lbp1 = PolicySpec::Lbp1Optimal.resolve(&cfg).expect("two nodes");
            assert!(matches!(lbp1, PolicySpec::Lbp1 { .. }), "{lbp1:?}");
            assert_eq!(
                start_orders(&lbp1, &cfg),
                start_orders(&PolicySpec::Lbp1Optimal, &cfg),
                "{queues:?}"
            );
            let lbp2 = PolicySpec::Lbp2Optimal.resolve(&cfg).expect("two nodes");
            let gain = Lbp2::optimal(&cfg).gain();
            assert_eq!(lbp2, PolicySpec::Lbp2 { gain });
            assert_eq!(
                start_orders(&lbp2, &cfg),
                start_orders(&PolicySpec::Lbp2Optimal, &cfg),
                "{queues:?}"
            );
        }
        let cfg = SystemConfig::paper([50, 30]);
        for kind in PolicySpec::KINDS
            .iter()
            .filter(|k| !k.ends_with("-optimal"))
        {
            let spec = PolicySpec::parse(kind, &PolicySpec::Lbp2 { gain: 0.7 }).expect("known");
            assert_eq!(spec.resolve(&cfg).expect("valid"), spec);
        }
        let err = PolicySpec::Lbp1Optimal.resolve(&three_node()).unwrap_err();
        assert!(err.contains("two nodes"), "{err}");
    }

    #[test]
    fn kinds_are_stable_identifiers() {
        assert_eq!(PolicySpec::Lbp1Optimal.kind(), "lbp1-optimal");
        assert_eq!(PolicySpec::UponFailureOnly.kind(), "upon-failure-only");
        assert_eq!(
            PolicySpec::EpisodicLbp2 { gain: 1.0 }.kind(),
            "episodic-lbp2"
        );
    }
}
