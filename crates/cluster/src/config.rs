//! System configuration: nodes, network, external workload.

/// Static description of one computational element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeConfig {
    /// Service rate `λ_d` — tasks per second (1.08 / 1.86 in the paper).
    pub service_rate: f64,
    /// Failure rate `λ_f` (1/s); 0 disables churn for this node.
    pub failure_rate: f64,
    /// Recovery rate `λ_r` (1/s); must be positive when `failure_rate` is.
    pub recovery_rate: f64,
    /// Tasks queued at `t = 0`.
    pub initial_tasks: u32,
}

impl NodeConfig {
    /// Validates and constructs a node description.
    ///
    /// # Panics
    /// Panics on non-positive service rate, negative churn rates, or a
    /// node that fails but never recovers.
    #[must_use]
    pub fn new(
        service_rate: f64,
        failure_rate: f64,
        recovery_rate: f64,
        initial_tasks: u32,
    ) -> Self {
        assert!(
            service_rate > 0.0 && service_rate.is_finite(),
            "service rate must be positive"
        );
        assert!(
            failure_rate >= 0.0 && failure_rate.is_finite(),
            "failure rate must be >= 0"
        );
        assert!(
            recovery_rate >= 0.0 && recovery_rate.is_finite(),
            "recovery rate must be >= 0"
        );
        assert!(
            failure_rate == 0.0 || recovery_rate > 0.0,
            "a node that fails but never recovers has unbounded completion time"
        );
        Self {
            service_rate,
            failure_rate,
            recovery_rate,
            initial_tasks,
        }
    }

    /// Node that never fails.
    #[must_use]
    pub fn reliable(service_rate: f64, initial_tasks: u32) -> Self {
        Self::new(service_rate, 0.0, 0.0, initial_tasks)
    }

    /// Long-run availability `λ_r / (λ_f + λ_r)` (1 for reliable nodes).
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.failure_rate == 0.0 {
            1.0
        } else {
            self.recovery_rate / (self.failure_rate + self.recovery_rate)
        }
    }
}

/// How the batch-transfer delay is drawn, given its mean
/// `fixed + per_task · L`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayLaw {
    /// One exponential for the whole batch — the paper's *modelling*
    /// assumption (§2), used by the model-faithful Monte-Carlo engine.
    ExponentialBatch,
    /// Fixed part plus an Erlang-`L` of per-task exponentials — what a
    /// TCP-like stream of `L` randomly sized tasks actually looks like;
    /// used by the test-bed simulator (same mean, smaller variance, with
    /// the "slight shift" of Fig. 2).
    ErlangPerTask,
    /// Deterministic delay at the mean — the assumption of the prior work
    /// the paper argues against; kept for ablations.
    DeterministicBatch,
}

/// Network parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Load-independent mean-delay component (seconds).
    pub fixed: f64,
    /// Mean seconds per transferred task (0.02 in the paper's §4).
    pub per_task: f64,
    /// Distributional shape of the delay.
    pub law: DelayLaw,
}

impl NetworkConfig {
    /// Validates and constructs network parameters.
    ///
    /// # Panics
    /// Panics on negative components or an identically zero mean.
    #[must_use]
    pub fn new(fixed: f64, per_task: f64, law: DelayLaw) -> Self {
        assert!(
            fixed >= 0.0 && fixed.is_finite(),
            "fixed delay must be >= 0"
        );
        assert!(
            per_task >= 0.0 && per_task.is_finite(),
            "per-task delay must be >= 0"
        );
        assert!(fixed + per_task > 0.0, "delay cannot be identically zero");
        Self {
            fixed,
            per_task,
            law,
        }
    }

    /// The paper's analytical delay model: `Exp(mean = per_task · L)`.
    #[must_use]
    pub fn exponential(per_task: f64) -> Self {
        Self::new(0.0, per_task, DelayLaw::ExponentialBatch)
    }

    /// Mean delay for a batch of `l` tasks.
    #[must_use]
    pub fn mean_delay(&self, l: u32) -> f64 {
        self.fixed + self.per_task * f64::from(l)
    }
}

/// The instantaneous-rate shape of a stochastic external-arrival process.
///
/// All kinds are sampled lazily by the engine from a dedicated RNG stream,
/// so adding an arrival process never perturbs the service/churn/transfer
/// streams of a configuration that does not use one.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson arrivals at `rate` batches per second.
    Poisson {
        /// Batch arrivals per second.
        rate: f64,
    },
    /// Markov-modulated Poisson process: the arrival rate is `rates[i]`
    /// while a background chain sits in phase `i`; the chain leaves phase
    /// `i` at rate `switch_rates[i]`, cycling `i → i+1 (mod phases)`.
    /// Two phases with a low and a high rate give the classic bursty
    /// on/off workload.
    Mmpp {
        /// Arrival rate per phase (at least one must be positive).
        rates: Vec<f64>,
        /// Rate of leaving each phase (all positive).
        switch_rates: Vec<f64>,
    },
    /// Non-homogeneous Poisson with the diurnal rate profile
    /// `λ(t) = base_rate · (1 + amplitude · sin(2πt/period))`,
    /// sampled by thinning.
    Diurnal {
        /// Mean arrival rate (batches per second).
        base_rate: f64,
        /// Relative swing in `[0, 1]` (1 = rate touches zero at the dip).
        amplitude: f64,
        /// Period of the cycle (seconds).
        period: f64,
    },
    /// Piecewise-constant "flash crowd": `base_rate` everywhere except a
    /// spike window `[spike_start, spike_start + spike_duration)` where the
    /// rate is `base_rate · spike_factor`.
    FlashCrowd {
        /// Off-spike arrival rate (batches per second).
        base_rate: f64,
        /// Spike onset (seconds).
        spike_start: f64,
        /// Spike length (seconds).
        spike_duration: f64,
        /// Rate multiplier during the spike (≥ 1).
        spike_factor: f64,
    },
}

/// A stochastic external-arrival process: batches of tasks land on
/// uniformly random nodes until a finite `horizon`, with batch sizes
/// uniform in `[batch_min, batch_max]`.
///
/// This generalizes the fixed [`ExternalArrival`] list to the *ongoing*
/// open-system workloads of the related literature (Ganesh et al.): the
/// run then completes when the horizon has passed **and** every spawned
/// task has been processed.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalProcess {
    /// The rate shape.
    pub kind: ArrivalKind,
    /// Smallest batch size (≥ 1).
    pub batch_min: u32,
    /// Largest batch size (≥ `batch_min`).
    pub batch_max: u32,
    /// No arrivals are generated after this time (finite, ≥ 0).
    pub horizon: f64,
}

impl ArrivalProcess {
    /// Homogeneous Poisson arrivals of single tasks until `horizon`.
    #[must_use]
    pub fn poisson(rate: f64, horizon: f64) -> Self {
        Self {
            kind: ArrivalKind::Poisson { rate },
            batch_min: 1,
            batch_max: 1,
            horizon,
        }
    }

    /// Sets the uniform batch-size range.
    #[must_use]
    pub fn with_batch(mut self, batch_min: u32, batch_max: u32) -> Self {
        self.batch_min = batch_min;
        self.batch_max = batch_max;
        self
    }

    /// Validates all parameters, returning a precise message on failure.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "arrival process: {name} must be finite and >= 0, got {v}"
                ))
            }
        };
        let finite_pos = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("arrival process: {name} must be positive, got {v}"))
            }
        };
        if self.batch_min == 0 {
            return Err("arrival process: batch_min must be >= 1".into());
        }
        if self.batch_max < self.batch_min {
            return Err(format!(
                "arrival process: batch_max ({}) must be >= batch_min ({})",
                self.batch_max, self.batch_min
            ));
        }
        finite_nonneg("horizon", self.horizon)?;
        match &self.kind {
            ArrivalKind::Poisson { rate } => finite_pos("rate", *rate),
            ArrivalKind::Mmpp {
                rates,
                switch_rates,
            } => {
                if rates.is_empty() || rates.len() != switch_rates.len() {
                    return Err(format!(
                        "arrival process: mmpp needs equally many rates and switch_rates \
                         (got {} and {})",
                        rates.len(),
                        switch_rates.len()
                    ));
                }
                for &r in rates {
                    finite_nonneg("mmpp rate", r)?;
                }
                if rates.iter().all(|&r| r == 0.0) {
                    return Err("arrival process: at least one mmpp rate must be positive".into());
                }
                for &q in switch_rates {
                    finite_pos("mmpp switch rate", q)?;
                }
                Ok(())
            }
            ArrivalKind::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                finite_pos("base_rate", *base_rate)?;
                if !(0.0..=1.0).contains(amplitude) {
                    return Err(format!(
                        "arrival process: diurnal amplitude must be in [0, 1], got {amplitude}"
                    ));
                }
                finite_pos("period", *period)
            }
            ArrivalKind::FlashCrowd {
                base_rate,
                spike_start,
                spike_duration,
                spike_factor,
            } => {
                finite_pos("base_rate", *base_rate)?;
                finite_nonneg("spike_start", *spike_start)?;
                finite_nonneg("spike_duration", *spike_duration)?;
                if !spike_factor.is_finite() || *spike_factor < 1.0 {
                    return Err(format!(
                        "arrival process: spike_factor must be >= 1, got {spike_factor}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// How node failures are coupled across the system.
///
/// The paper's model (and the default here) is fully independent per-node
/// churn; the extensions model the *adversarial/heterogeneous* failure
/// regimes of the related literature (Aspnes–Yang–Yin): environmental
/// shocks that take out many nodes at once, and overload cascades where
/// the failure rate grows with the number of nodes already down.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum ChurnModel {
    /// Independent exponential failure/recovery per node (the paper's §2).
    #[default]
    Independent,
    /// Independent churn *plus* a Poisson stream of environmental shocks:
    /// each shock instantaneously fails every up, failure-prone node with
    /// probability `hit_probability` (correlated mass failures).
    CorrelatedShocks {
        /// Shock arrivals per second (positive).
        shock_rate: f64,
        /// Per-node probability of being taken down by a shock, in (0, 1].
        hit_probability: f64,
    },
    /// Cascading failures: a node's effective failure rate is
    /// `λ_f · (1 + amplification · d)` where `d` is the number of nodes
    /// currently down — recoveries relax the pressure again.
    Cascading {
        /// Extra failure-rate multiplier per down node (≥ 0).
        amplification: f64,
    },
    /// Adversarial targeted churn (Aspnes–Yang–Yin's adversary): on top of
    /// the independent per-node churn, a Poisson stream of strikes each
    /// instantly fails the currently **most-loaded** up, failure-prone
    /// node (largest queue; ties break toward the lowest index). The
    /// worst-case counterpart of [`ChurnModel::CorrelatedShocks`]: instead
    /// of hitting nodes at random, the adversary always removes the node
    /// holding the most work.
    Adversarial {
        /// Adversary strikes per second (positive).
        strike_rate: f64,
    },
    /// Rack-correlated shocks: independent per-node churn *plus* a Poisson
    /// stream of shocks that strike whole **groups** of nodes at once.
    /// Nodes are grouped into consecutive index blocks of `group_size`
    /// (the rack layout of [`crate::Topology::hierarchical`]); each shock
    /// draws one uniform per group, in ascending group order, and a hit
    /// group loses *every* up, failure-prone member simultaneously —
    /// the power-feed / top-of-rack-switch failure mode. Per-group hit
    /// probabilities come from `hit_probabilities`, cycled when there are
    /// more groups than entries (one entry = the same probability for all
    /// racks).
    RackShocks {
        /// Shock arrivals per second (positive).
        shock_rate: f64,
        /// Nodes per group (≥ 1); the last group may be smaller.
        group_size: u32,
        /// Per-group hit probability in [0, 1], cycled across groups;
        /// at least one entry must be positive.
        hit_probabilities: Vec<f64>,
    },
}

impl ChurnModel {
    /// The rate of the model's shock clock: shocks per second for
    /// [`ChurnModel::CorrelatedShocks`] and [`ChurnModel::RackShocks`],
    /// strikes per second for [`ChurnModel::Adversarial`]; `None` for the
    /// models without one.
    #[must_use]
    pub fn shock_rate(&self) -> Option<f64> {
        match self {
            Self::CorrelatedShocks { shock_rate, .. } | Self::RackShocks { shock_rate, .. } => {
                Some(*shock_rate)
            }
            Self::Adversarial { strike_rate } => Some(*strike_rate),
            Self::Independent | Self::Cascading { .. } => None,
        }
    }

    /// Validates all parameters, returning a precise message on failure.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Independent => Ok(()),
            Self::CorrelatedShocks {
                shock_rate,
                hit_probability,
            } => {
                if !shock_rate.is_finite() || *shock_rate <= 0.0 {
                    return Err(format!(
                        "churn model: shock_rate must be positive, got {shock_rate}"
                    ));
                }
                if !hit_probability.is_finite() || *hit_probability <= 0.0 || *hit_probability > 1.0
                {
                    return Err(format!(
                        "churn model: hit_probability must be in (0, 1], got {hit_probability}"
                    ));
                }
                Ok(())
            }
            Self::Cascading { amplification } => {
                if !amplification.is_finite() || *amplification < 0.0 {
                    return Err(format!(
                        "churn model: amplification must be finite and >= 0, got {amplification}"
                    ));
                }
                Ok(())
            }
            Self::Adversarial { strike_rate } => {
                if !strike_rate.is_finite() || *strike_rate <= 0.0 {
                    return Err(format!(
                        "churn model: strike_rate must be positive, got {strike_rate}"
                    ));
                }
                Ok(())
            }
            Self::RackShocks {
                shock_rate,
                group_size,
                hit_probabilities,
            } => {
                if !shock_rate.is_finite() || *shock_rate <= 0.0 {
                    return Err(format!(
                        "churn model: shock_rate must be positive, got {shock_rate}"
                    ));
                }
                if *group_size == 0 {
                    return Err("churn model: group_size must be >= 1".into());
                }
                if hit_probabilities.is_empty() {
                    return Err("churn model: hit_probabilities must not be empty".into());
                }
                for &p in hit_probabilities {
                    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                        return Err(format!(
                            "churn model: hit probability must be in [0, 1], got {p}"
                        ));
                    }
                }
                if hit_probabilities.iter().all(|&p| p == 0.0) {
                    return Err("churn model: at least one hit probability must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// What happens to a transfer batch that arrives at a **down** node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DownPolicy {
    /// Enqueue onto the down node's queue anyway — the paper's implicit
    /// semantic (the tasks wait out the downtime). The default.
    #[default]
    Enqueue,
    /// The batch is discarded on the spot and dead-lettered immediately
    /// (no retries): the receiving host lost its buffer with the crash.
    Drop,
    /// The batch bounces back to the sender and re-enters the retry
    /// protocol with exponential backoff, like a lost batch.
    Bounce,
}

impl DownPolicy {
    /// Stable lowercase name, used by the lab's TOML codec.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Enqueue => "enqueue",
            Self::Drop => "drop",
            Self::Bounce => "bounce",
        }
    }
}

/// Reliability model of the transfer channel.
///
/// The paper's model (and the default here) is a perfectly reliable
/// channel: every shipped batch arrives after its delay, even onto a
/// down destination. [`ChannelModel::Lossy`] makes in-flight faults a
/// first-class scenario axis: each arrival is lost with a per-transfer
/// probability (scaled per edge over the CSR [`crate::Topology`] — a
/// slow link is a lossy link), a batch landing on a down node follows
/// the configured [`DownPolicy`], and lost or bounced batches are
/// redelivered after an exponential backoff up to `max_retries`, after
/// which they are dead-lettered and counted as permanently lost.
///
/// All channel randomness draws from dedicated RNG streams, so arming a
/// lossy model never perturbs the service/churn/transfer/arrival
/// trajectories of a reliable run.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum ChannelModel {
    /// Every transfer arrives exactly once (the paper's §2). Default.
    #[default]
    Reliable,
    /// Transfers are lost in flight with `loss_probability`, re-sent with
    /// exponential backoff, and dead-lettered after `max_retries`.
    Lossy {
        /// Per-transfer loss probability in `[0, 1)`; scaled per edge by
        /// [`crate::Topology::edge_loss_scale`] when a topology is
        /// installed (clamped to 1).
        loss_probability: f64,
        /// What a batch does when it arrives at a down node.
        on_down: DownPolicy,
        /// Redelivery attempts before a batch is dead-lettered.
        max_retries: u32,
        /// Mean of the first retry's exponential backoff (seconds,
        /// positive); attempt `k` backs off with mean
        /// `retry_backoff · 2^k`.
        retry_backoff: f64,
    },
}

impl ChannelModel {
    /// Validates all parameters, returning a precise message on failure.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Reliable => Ok(()),
            Self::Lossy {
                loss_probability,
                retry_backoff,
                ..
            } => {
                if !loss_probability.is_finite() || !(0.0..1.0).contains(loss_probability) {
                    return Err(format!(
                        "channel model: loss_probability must be in [0, 1), got {loss_probability}"
                    ));
                }
                if !retry_backoff.is_finite() || *retry_backoff <= 0.0 {
                    return Err(format!(
                        "channel model: retry_backoff must be positive, got {retry_backoff}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A batch of tasks arriving from outside the system at a given time —
/// the dynamic-workload extension sketched in the paper's conclusion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExternalArrival {
    /// Arrival time (seconds).
    pub time: f64,
    /// Node that receives the batch.
    pub node: usize,
    /// Number of tasks.
    pub tasks: u32,
}

/// Complete system description.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// The computational elements.
    pub nodes: Vec<NodeConfig>,
    /// The network between them.
    pub network: NetworkConfig,
    /// Externally arriving workload (empty for the paper's experiments).
    pub external_arrivals: Vec<ExternalArrival>,
    /// Ongoing stochastic arrivals (`None` for the paper's closed system).
    pub arrival_process: Option<ArrivalProcess>,
    /// Failure-coupling model (independent per-node churn by default).
    pub churn: ChurnModel,
    /// Transfer-channel reliability model (perfectly reliable by default).
    pub channel: ChannelModel,
    /// Optional interconnect graph. `None` — the paper's implicit
    /// complete graph over one homogeneous network, with the legacy
    /// global policy scans. `Some` — transfers may only route along
    /// edges (off-edge orders panic), edge delay scales multiply the
    /// transfer-delay law, and policies see the graph through
    /// [`crate::SystemView::topology`] for O(degree) neighbor-local
    /// scans.
    topology: Option<crate::topology::Topology>,
}

impl SystemConfig {
    /// Validates and constructs a system of at least two nodes.
    ///
    /// # Panics
    /// Panics with fewer than two nodes or an out-of-range external
    /// arrival target.
    #[must_use]
    pub fn new(nodes: Vec<NodeConfig>, network: NetworkConfig) -> Self {
        assert!(
            nodes.len() >= 2,
            "a distributed system needs at least two nodes"
        );
        Self {
            nodes,
            network,
            external_arrivals: Vec::new(),
            arrival_process: None,
            churn: ChurnModel::Independent,
            channel: ChannelModel::Reliable,
            topology: None,
        }
    }

    /// Installs an interconnect topology (see the `topology` field docs).
    ///
    /// # Panics
    /// Panics if the topology's node count differs from the system's.
    #[must_use]
    pub fn with_topology(mut self, topology: crate::topology::Topology) -> Self {
        assert_eq!(
            topology.num_nodes(),
            self.nodes.len(),
            "topology has {} nodes but the system has {}",
            topology.num_nodes(),
            self.nodes.len()
        );
        self.topology = Some(topology);
        self
    }

    /// The interconnect topology, if one is installed.
    #[must_use]
    pub fn topology(&self) -> Option<&crate::topology::Topology> {
        self.topology.as_ref()
    }

    /// Installs a stochastic external-arrival process.
    ///
    /// # Panics
    /// Panics if the process parameters are invalid (see
    /// [`ArrivalProcess::validate`]).
    #[must_use]
    pub fn with_arrival_process(mut self, process: ArrivalProcess) -> Self {
        if let Err(e) = process.validate() {
            panic!("{e}");
        }
        self.arrival_process = Some(process);
        self
    }

    /// Installs a failure-coupling model.
    ///
    /// # Panics
    /// Panics if the model parameters are invalid (see
    /// [`ChurnModel::validate`]).
    #[must_use]
    pub fn with_churn_model(mut self, churn: ChurnModel) -> Self {
        if let Err(e) = churn.validate() {
            panic!("{e}");
        }
        self.churn = churn;
        self
    }

    /// Installs a transfer-channel reliability model.
    ///
    /// # Panics
    /// Panics if the model parameters are invalid (see
    /// [`ChannelModel::validate`]).
    #[must_use]
    pub fn with_channel_model(mut self, channel: ChannelModel) -> Self {
        if let Err(e) = channel.validate() {
            panic!("{e}");
        }
        self.channel = channel;
        self
    }

    /// Adds external arrivals (sorted by time internally).
    #[must_use]
    pub fn with_external_arrivals(mut self, mut arrivals: Vec<ExternalArrival>) -> Self {
        for a in &arrivals {
            assert!(
                a.node < self.nodes.len(),
                "external arrival to unknown node {}",
                a.node
            );
            assert!(
                a.time >= 0.0 && a.time.is_finite(),
                "arrival time must be finite and >= 0"
            );
        }
        arrivals.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        self.external_arrivals = arrivals;
        self
    }

    /// The two-node system of the paper's §4 with the given initial
    /// workload: `λ_d = (1.08, 1.86)`, mean failure time 20 s, mean
    /// recovery (10 s, 20 s), exponential batch delay 0.02 s/task.
    #[must_use]
    pub fn paper(m0: [u32; 2]) -> Self {
        Self::new(
            vec![
                NodeConfig::new(1.08, 1.0 / 20.0, 1.0 / 10.0, m0[0]),
                NodeConfig::new(1.86, 1.0 / 20.0, 1.0 / 20.0, m0[1]),
            ],
            NetworkConfig::exponential(0.02),
        )
    }

    /// The paper system with churn disabled (the "no failure" reference).
    #[must_use]
    pub fn paper_no_failure(m0: [u32; 2]) -> Self {
        let mut c = Self::paper(m0);
        for n in &mut c.nodes {
            n.failure_rate = 0.0;
            n.recovery_rate = 0.0;
        }
        c
    }

    /// Total tasks present at `t = 0` (excluding external arrivals).
    #[must_use]
    pub fn initial_total_tasks(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.initial_tasks)).sum()
    }

    /// Total tasks known ahead of the run (initial + fixed external
    /// arrivals). A stochastic [`ArrivalProcess`] spawns further tasks on
    /// top of this during the run.
    #[must_use]
    pub fn total_tasks(&self) -> u64 {
        self.initial_total_tasks()
            + self
                .external_arrivals
                .iter()
                .map(|a| u64::from(a.tasks))
                .sum::<u64>()
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section4() {
        let c = SystemConfig::paper([100, 60]);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.nodes[0].service_rate, 1.08);
        assert_eq!(c.nodes[1].service_rate, 1.86);
        assert!((c.nodes[0].availability() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.nodes[1].availability() - 0.5).abs() < 1e-12);
        assert_eq!(c.initial_total_tasks(), 160);
        assert!((c.network.mean_delay(100) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_failure_config_disables_churn() {
        let c = SystemConfig::paper_no_failure([10, 10]);
        assert!(c.nodes.iter().all(|n| n.failure_rate == 0.0));
        assert!(c
            .nodes
            .iter()
            .all(|n| (n.availability() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn external_arrivals_are_sorted_and_counted() {
        let c = SystemConfig::paper([5, 5]).with_external_arrivals(vec![
            ExternalArrival {
                time: 10.0,
                node: 1,
                tasks: 3,
            },
            ExternalArrival {
                time: 2.0,
                node: 0,
                tasks: 4,
            },
        ]);
        assert_eq!(c.external_arrivals[0].time, 2.0);
        assert_eq!(c.total_tasks(), 17);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn arrival_to_unknown_node_rejected() {
        let _ = SystemConfig::paper([5, 5]).with_external_arrivals(vec![ExternalArrival {
            time: 1.0,
            node: 9,
            tasks: 1,
        }]);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_rejected() {
        let _ = SystemConfig::new(
            vec![NodeConfig::reliable(1.0, 5)],
            NetworkConfig::exponential(0.02),
        );
    }

    #[test]
    #[should_panic(expected = "never recovers")]
    fn failing_node_without_recovery_rejected() {
        let _ = NodeConfig::new(1.0, 0.1, 0.0, 5);
    }

    #[test]
    fn availability_of_reliable_node_is_one() {
        assert_eq!(NodeConfig::reliable(2.0, 0).availability(), 1.0);
    }

    #[test]
    fn arrival_process_validation_messages_are_precise() {
        let bad_batch = ArrivalProcess::poisson(1.0, 10.0).with_batch(5, 2);
        assert!(bad_batch.validate().unwrap_err().contains("batch_max"));
        let bad_rate = ArrivalProcess::poisson(0.0, 10.0);
        assert!(bad_rate.validate().unwrap_err().contains("rate"));
        let bad_mmpp = ArrivalProcess {
            kind: ArrivalKind::Mmpp {
                rates: vec![1.0, 2.0],
                switch_rates: vec![0.1],
            },
            batch_min: 1,
            batch_max: 1,
            horizon: 10.0,
        };
        assert!(bad_mmpp.validate().unwrap_err().contains("equally many"));
        let bad_amp = ArrivalProcess {
            kind: ArrivalKind::Diurnal {
                base_rate: 1.0,
                amplitude: 1.5,
                period: 60.0,
            },
            batch_min: 1,
            batch_max: 1,
            horizon: 10.0,
        };
        assert!(bad_amp.validate().unwrap_err().contains("amplitude"));
    }

    #[test]
    fn churn_model_validation_messages_are_precise() {
        assert!(ChurnModel::Independent.validate().is_ok());
        let bad = ChurnModel::CorrelatedShocks {
            shock_rate: 0.1,
            hit_probability: 1.5,
        };
        assert!(bad.validate().unwrap_err().contains("hit_probability"));
        let bad = ChurnModel::Cascading {
            amplification: -1.0,
        };
        assert!(bad.validate().unwrap_err().contains("amplification"));
        let bad = ChurnModel::RackShocks {
            shock_rate: 0.1,
            group_size: 0,
            hit_probabilities: vec![0.5],
        };
        assert!(bad.validate().unwrap_err().contains("group_size"));
        let bad = ChurnModel::RackShocks {
            shock_rate: 0.1,
            group_size: 4,
            hit_probabilities: vec![0.0, 0.0],
        };
        assert!(bad.validate().unwrap_err().contains("positive"));
        let good = ChurnModel::RackShocks {
            shock_rate: 0.1,
            group_size: 4,
            hit_probabilities: vec![0.8, 0.1],
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn topology_builder_checks_node_counts() {
        let topo = crate::topology::Topology::ring(2).expect("valid");
        let c = SystemConfig::paper([5, 5]).with_topology(topo);
        assert_eq!(c.topology().expect("installed").num_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "topology has 3 nodes")]
    fn mismatched_topology_rejected() {
        let topo = crate::topology::Topology::ring(3).expect("valid");
        let _ = SystemConfig::paper([5, 5]).with_topology(topo);
    }

    #[test]
    #[should_panic(expected = "batch_min")]
    fn invalid_arrival_process_rejected_by_builder() {
        let _ = SystemConfig::paper([5, 5])
            .with_arrival_process(ArrivalProcess::poisson(1.0, 10.0).with_batch(0, 3));
    }

    #[test]
    fn channel_model_validation_messages_are_precise() {
        assert!(ChannelModel::Reliable.validate().is_ok());
        let bad = ChannelModel::Lossy {
            loss_probability: 1.0,
            on_down: DownPolicy::Enqueue,
            max_retries: 3,
            retry_backoff: 0.5,
        };
        assert!(bad.validate().unwrap_err().contains("loss_probability"));
        let bad = ChannelModel::Lossy {
            loss_probability: 0.1,
            on_down: DownPolicy::Bounce,
            max_retries: 3,
            retry_backoff: 0.0,
        };
        assert!(bad.validate().unwrap_err().contains("retry_backoff"));
        let good = ChannelModel::Lossy {
            loss_probability: 0.0,
            on_down: DownPolicy::Drop,
            max_retries: 0,
            retry_backoff: 1.0,
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "loss_probability")]
    fn invalid_channel_model_rejected_by_builder() {
        let _ = SystemConfig::paper([5, 5]).with_channel_model(ChannelModel::Lossy {
            loss_probability: -0.5,
            on_down: DownPolicy::Enqueue,
            max_retries: 1,
            retry_backoff: 1.0,
        });
    }

    #[test]
    fn channel_model_defaults_to_reliable() {
        let c = SystemConfig::paper([5, 5]);
        assert_eq!(c.channel, ChannelModel::Reliable);
        let c = c.with_channel_model(ChannelModel::Lossy {
            loss_probability: 0.25,
            on_down: DownPolicy::Bounce,
            max_retries: 4,
            retry_backoff: 0.2,
        });
        assert!(matches!(c.channel, ChannelModel::Lossy { .. }));
        assert_eq!(DownPolicy::Bounce.name(), "bounce");
    }

    #[test]
    fn builders_install_process_and_churn() {
        let c = SystemConfig::paper([5, 5])
            .with_arrival_process(ArrivalProcess::poisson(0.5, 30.0).with_batch(2, 4))
            .with_churn_model(ChurnModel::Cascading { amplification: 2.0 });
        assert!(c.arrival_process.is_some());
        assert_eq!(c.churn, ChurnModel::Cascading { amplification: 2.0 });
        // Stochastic arrivals are not part of the ahead-of-run total.
        assert_eq!(c.total_tasks(), 10);
    }
}
