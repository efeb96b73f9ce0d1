//! The named-scenario registry.
//!
//! Presets cover the paper's §4 baselines plus the new regimes the
//! ROADMAP and related work call for: heterogeneous node speeds,
//! hot-spare recovery, correlated and cascading failures, bursty MMPP,
//! diurnal and flash-crowd arrivals, and volunteer churn. Every preset is
//! a plain [`Scenario`] — `churnbal-lab show <name>` prints its TOML, and
//! any of them can be dumped, edited and re-run from a file.
//!
//! The paper-system constructors ([`paper_mc`], [`paper_experiment`],
//! [`paper_mc_with_delay`]) build their `SystemConfig` *through* the
//! scenario path, so the bench binaries and the lab provably share one
//! code path for the configurations they compare.

use churnbal_cluster::{
    ArrivalKind, ArrivalProcess, ChannelModel, ChurnModel, DelayLaw, DownPolicy, ExternalArrival,
    SystemConfig,
};
use churnbal_core::PolicySpec;
use churnbal_stochastic::Xoshiro256pp;

use crate::scenario::{ArrivalsSpec, NetworkSpec, NodeSpec, Scenario, TopologySpec};
use crate::sweep::{Axis, AxisParam};

/// The paper's master seed convention (2006-04-25, the IPDPS date).
pub const PAPER_SEED: u64 = 20_060_425;

/// All registered scenario names, in display order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    PRESETS.iter().map(|(n, _)| *n).collect()
}

/// Looks a preset up by name.
#[must_use]
pub fn get(name: &str) -> Option<Scenario> {
    PRESETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

/// All presets, in display order.
#[must_use]
pub fn all() -> Vec<Scenario> {
    PRESETS.iter().map(|(_, build)| build()).collect()
}

type Preset = (&'static str, fn() -> Scenario);

const PRESETS: [Preset; 21] = [
    ("paper-fig3", paper_fig3),
    ("paper-fig5", paper_fig5),
    ("paper-delay-crossover", paper_delay_crossover),
    ("hetero-speeds", hetero_speeds),
    ("hot-spare", hot_spare),
    ("correlated-failures", correlated_failures),
    ("cascading-failures", cascading_failures),
    ("adversarial-churn", adversarial_churn),
    ("brownout", brownout),
    ("mmpp-bursty", mmpp_bursty),
    ("diurnal", diurnal),
    ("flash-crowd", flash_crowd),
    ("volunteer-grid", volunteer_grid),
    ("dynamic-arrivals", dynamic_arrivals),
    ("open-system", open_system),
    ("ring", ring),
    ("torus", torus),
    ("rack-hierarchy", rack_hierarchy),
    ("rack-shocks", rack_shocks),
    ("lossy-fabric", lossy_fabric),
    ("churn-storm-lossy", churn_storm_lossy),
];

/// The paper's §4 node pair: `λ_d = (1.08, 1.86)`, mean failure time
/// 20 s, mean recovery (10 s, 20 s).
fn paper_nodes(m0: [u32; 2]) -> Vec<NodeSpec> {
    vec![
        NodeSpec::new(1.08, 1.0 / 20.0, 1.0 / 10.0, m0[0]),
        NodeSpec::new(1.86, 1.0 / 20.0, 1.0 / 20.0, m0[1]),
    ]
}

fn paper_network() -> NetworkSpec {
    NetworkSpec {
        fixed: 0.0,
        per_task: 0.02,
        law: DelayLaw::ExponentialBatch,
    }
}

fn base(name: &str, description: &str, m0: [u32; 2], policy: PolicySpec) -> Scenario {
    Scenario {
        name: name.into(),
        description: description.into(),
        reps: 500,
        seed: PAPER_SEED,
        deadline: None,
        probe_dt: None,
        nodes: paper_nodes(m0),
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy,
        axes: Vec::new(),
    }
}

// ---- paper baselines --------------------------------------------------

/// Fig. 3: LBP-1 mean completion time vs gain `K` on workload (100, 60).
fn paper_fig3() -> Scenario {
    let mut sc = base(
        "paper-fig3",
        "Fig. 3 baseline: LBP-1 on workload (100, 60), gain swept 0..1 in steps of 0.05; \
         the optimum under churn sits left of the no-failure optimum",
        [100, 60],
        PolicySpec::Lbp1 {
            sender: 0,
            receiver: 1,
            gain: 0.35,
        },
    );
    sc.axes = vec![Axis {
        param: AxisParam::Gain,
        values: (0..=20).map(|i| f64::from(i) * 0.05).collect(),
    }];
    sc
}

/// Fig. 5: the model-optimal LBP-1 plan on the one-sided workload (50, 0).
fn paper_fig5() -> Scenario {
    base(
        "paper-fig5",
        "Fig. 5 baseline: model-optimal LBP-1 on the one-sided workload (50, 0)",
        [50, 0],
        PolicySpec::Lbp1Optimal,
    )
}

/// Table 3: the LBP-1/LBP-2 crossover in the mean per-task delay.
fn paper_delay_crossover() -> Scenario {
    let mut sc = base(
        "paper-delay-crossover",
        "Table 3 baseline: LBP-2 on workload (100, 60) with the mean per-task delay swept \
         through the paper's crossover range",
        [100, 60],
        PolicySpec::Lbp2 { gain: 1.0 },
    );
    sc.axes = vec![Axis {
        param: AxisParam::DelayPerTask,
        values: vec![0.01, 0.5, 1.0, 2.0, 3.0],
    }];
    sc
}

// ---- new regimes ------------------------------------------------------

/// Heterogeneous speeds: an 8x spread with all work born on the slowest.
fn hetero_speeds() -> Scenario {
    Scenario {
        name: "hetero-speeds".into(),
        description: "Heterogeneous node speeds (0.5..4 tasks/s, an 8x spread) under uniform \
                      churn; all 240 tasks start on the slowest node"
            .into(),
        reps: 400,
        seed: 7,
        deadline: None,
        probe_dt: None,
        nodes: vec![
            NodeSpec::new(0.5, 1.0 / 30.0, 1.0 / 10.0, 240),
            NodeSpec::new(1.0, 1.0 / 30.0, 1.0 / 10.0, 0),
            NodeSpec::new(2.0, 1.0 / 30.0, 1.0 / 10.0, 0),
            NodeSpec::new(4.0, 1.0 / 30.0, 1.0 / 10.0, 0),
        ],
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Hot-spare recovery: churny workers plus an idle, reliable spare.
fn hot_spare() -> Scenario {
    Scenario {
        name: "hot-spare".into(),
        description: "Hot-spare recovery: two churny workers hold the workload, one fast \
                      reliable spare starts idle and absorbs Eq. 8 compensation at every \
                      failure"
            .into(),
        reps: 400,
        seed: 8,
        deadline: None,
        probe_dt: None,
        nodes: vec![
            NodeSpec::new(1.5, 1.0 / 12.0, 1.0 / 8.0, 200),
            NodeSpec::new(1.5, 1.0 / 12.0, 1.0 / 8.0, 200),
            NodeSpec::new(3.0, 0.0, 0.0, 0),
        ],
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Correlated mass failures from environmental shocks.
fn correlated_failures() -> Scenario {
    Scenario {
        name: "correlated-failures".into(),
        description: "Correlated failures: a Poisson shock stream (mean every 20 s) knocks \
                      out each up node with probability 0.75 on top of light independent \
                      churn"
            .into(),
        reps: 400,
        seed: 9,
        deadline: None,
        probe_dt: None,
        nodes: vec![NodeSpec::new(1.2, 1.0 / 60.0, 1.0 / 8.0, 80).times(4)],
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::CorrelatedShocks {
            shock_rate: 0.05,
            hit_probability: 0.75,
        },
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Cascading failures: down nodes raise the survivors' failure rates.
fn cascading_failures() -> Scenario {
    Scenario {
        name: "cascading-failures".into(),
        description: "Cascading failures: each down node doubles the survivors' effective \
                      failure rate (amplification 2), modelling overload-induced churn"
            .into(),
        reps: 400,
        seed: 10,
        deadline: None,
        probe_dt: None,
        nodes: vec![NodeSpec::new(1.2, 1.0 / 40.0, 1.0 / 10.0, 80).times(4)],
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Cascading { amplification: 2.0 },
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Adversarial targeted churn: strikes always hit the most-loaded node.
///
/// The Aspnes–Yang–Yin framing: the policy plays against an adversary
/// that removes whichever node currently holds the most work — the
/// worst case for balancing, since every transfer *creates* the next
/// target. Made for the policy axis:
/// `churnbal-lab compare adversarial-churn --policies lbp2,upon-failure-only,none`.
fn adversarial_churn() -> Scenario {
    Scenario {
        name: "adversarial-churn".into(),
        description: "Adversarial churn (Aspnes-Yang-Yin): a strike every ~15 s downs the \
                      currently most-loaded node on top of light independent churn"
            .into(),
        reps: 400,
        seed: 12,
        deadline: None,
        probe_dt: None,
        nodes: vec![NodeSpec::new(1.2, 1.0 / 60.0, 1.0 / 8.0, 80).times(4)],
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Adversarial {
            strike_rate: 1.0 / 15.0,
        },
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Brownout: the paper pair with repair crews an order of magnitude
/// slower, so downtime dominates the completion time.
fn brownout() -> Scenario {
    let mut sc = base(
        "brownout",
        "Brownout regime: paper workload (100, 60) with recovery rates depressed 8x \
         (mean repair 80 s / 160 s), so nodes spend long stretches down",
        [100, 60],
        PolicySpec::Lbp2 { gain: 1.0 },
    );
    sc.seed = 13;
    sc.reps = 400;
    for n in &mut sc.nodes {
        n.recovery_rate /= 8.0;
    }
    sc
}

/// Bursty MMPP arrivals on the paper pair.
fn mmpp_bursty() -> Scenario {
    Scenario {
        name: "mmpp-bursty".into(),
        description: "Bursty open system: two-phase MMPP arrivals (quiet 0.2/s, burst 3/s) \
                      on the paper pair, episodic LBP-2 re-balancing at every batch"
            .into(),
        reps: 300,
        seed: 42,
        deadline: None,
        probe_dt: None,
        nodes: paper_nodes([20, 20]),
        network: paper_network(),
        arrivals: ArrivalsSpec::Process(ArrivalProcess {
            kind: ArrivalKind::Mmpp {
                rates: vec![0.2, 3.0],
                switch_rates: vec![0.05, 0.5],
            },
            batch_min: 1,
            batch_max: 10,
            horizon: 60.0,
        }),
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::EpisodicLbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Diurnal (sinusoidal-rate) arrivals over three cycles.
fn diurnal() -> Scenario {
    Scenario {
        name: "diurnal".into(),
        description: "Diurnal open system: sinusoidal arrival rate (base 0.8/s, amplitude \
                      0.9, period 40 s) over three cycles, episodic LBP-2"
            .into(),
        reps: 300,
        seed: 43,
        deadline: None,
        probe_dt: None,
        nodes: paper_nodes([10, 10]),
        network: paper_network(),
        arrivals: ArrivalsSpec::Process(ArrivalProcess {
            kind: ArrivalKind::Diurnal {
                base_rate: 0.8,
                amplitude: 0.9,
                period: 40.0,
            },
            batch_min: 1,
            batch_max: 5,
            horizon: 120.0,
        }),
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::EpisodicLbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// A flash crowd: an 8x arrival spike 20 s into the run.
fn flash_crowd() -> Scenario {
    Scenario {
        name: "flash-crowd".into(),
        description: "Flash crowd: background arrivals at 0.4/s spike 8x for 10 s starting \
                      at t = 20 s, episodic LBP-2 against the paper pair's churn"
            .into(),
        reps: 300,
        seed: 44,
        deadline: None,
        probe_dt: None,
        nodes: paper_nodes([10, 10]),
        network: paper_network(),
        arrivals: ArrivalsSpec::Process(ArrivalProcess {
            kind: ArrivalKind::FlashCrowd {
                base_rate: 0.4,
                spike_start: 20.0,
                spike_duration: 10.0,
                spike_factor: 8.0,
            },
            batch_min: 1,
            batch_max: 8,
            horizon: 60.0,
        }),
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::EpisodicLbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// The volunteer-computing grid of `examples/volunteer_grid.rs`.
fn volunteer_grid() -> Scenario {
    Scenario {
        name: "volunteer-grid".into(),
        description: "Volunteer computing: two dedicated servers hold 550 tasks, four \
                      aggressively churning volunteer desktops are only worth using \
                      with failure-aware balancing"
            .into(),
        reps: 300,
        seed: 11,
        deadline: None,
        probe_dt: None,
        nodes: vec![
            NodeSpec::new(2.0, 0.0, 0.0, 300),
            NodeSpec::new(1.5, 0.0, 0.0, 250),
            NodeSpec::new(1.2, 1.0 / 15.0, 1.0 / 10.0, 0).times(2),
            NodeSpec::new(1.0, 1.0 / 10.0, 1.0 / 10.0, 0).times(2),
        ],
        network: NetworkSpec {
            fixed: 0.0,
            per_task: 0.05,
            law: DelayLaw::ExponentialBatch,
        },
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// The bursty fixed-arrival pattern of `examples/dynamic_arrivals.rs`:
/// 8 batches, alternating targets, sizes 40–120, roughly every 15 s,
/// reproducibly generated from seed 404.
#[must_use]
pub fn dynamic_arrival_bursts() -> Vec<ExternalArrival> {
    let mut rng = Xoshiro256pp::seed_from_u64(404);
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    for i in 0..8 {
        t += 5.0 + rng.exp(1.0 / 10.0);
        arrivals.push(ExternalArrival {
            time: t,
            node: i % 2,
            tasks: 40 + (rng.next_below(81) as u32),
        });
    }
    arrivals
}

/// Dynamic workloads: the paper-conclusion extension as a scenario.
fn dynamic_arrivals() -> Scenario {
    Scenario {
        name: "dynamic-arrivals".into(),
        description: "Dynamic workloads (paper conclusion): 8 bursty fixed batches land on \
                      alternating nodes; episodic LBP-2 re-balances at each arrival"
            .into(),
        reps: 300,
        seed: 17,
        deadline: None,
        probe_dt: None,
        nodes: paper_nodes([30, 30]),
        network: paper_network(),
        arrivals: ArrivalsSpec::Fixed(dynamic_arrival_bursts()),
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::EpisodicLbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// A plain open system: steady Poisson arrivals, no initial workload.
fn open_system() -> Scenario {
    Scenario {
        name: "open-system".into(),
        description: "Open system (Ganesh et al. regime): no initial workload, steady \
                      Poisson batch arrivals for 90 s on the churning paper pair"
            .into(),
        reps: 300,
        seed: 45,
        deadline: None,
        probe_dt: None,
        nodes: paper_nodes([0, 0]),
        network: paper_network(),
        arrivals: ArrivalsSpec::Process(ArrivalProcess::poisson(0.8, 90.0).with_batch(1, 4)),
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::EpisodicLbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

// ---- topology-constrained fleets --------------------------------------

/// Uniform churny nodes for the topology presets.
fn fleet_nodes(hot_tasks: u32, cold: u32) -> Vec<NodeSpec> {
    vec![
        NodeSpec::new(1.2, 1.0 / 40.0, 1.0 / 10.0, hot_tasks),
        NodeSpec::new(1.2, 1.0 / 40.0, 1.0 / 10.0, 0).times(cold),
    ]
}

/// Diffusive balancing on a 16-node ring.
fn ring() -> Scenario {
    Scenario {
        name: "ring".into(),
        description: "Ring interconnect: 16 uniform churny nodes, all 96 tasks born on node \
                      0; LBP-2 works neighbor-locally, so load diffuses around the cycle"
            .into(),
        reps: 300,
        seed: 51,
        deadline: None,
        probe_dt: None,
        nodes: fleet_nodes(96, 15),
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: Some(TopologySpec::Ring),
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// A hot corner on a 4x6 torus.
fn torus() -> Scenario {
    Scenario {
        name: "torus".into(),
        description: "Torus interconnect: a 4x6 wrap-around grid with a 120-task hot corner; \
                      each node balances with its four grid neighbors only"
            .into(),
        reps: 300,
        seed: 52,
        deadline: None,
        probe_dt: None,
        nodes: fleet_nodes(120, 23),
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: Some(TopologySpec::Torus { rows: 4, cols: 6 }),
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// A rack/row/datacenter hierarchy with slow uplinks.
fn rack_hierarchy() -> Scenario {
    Scenario {
        name: "rack-hierarchy".into(),
        description: "Rack hierarchy: 2 rows x 2 racks x 4 nodes; rack meshes are fast, \
                      row uplinks 4x and datacenter uplinks 10x slower; the loaded rack \
                      must drain through its leader"
            .into(),
        reps: 300,
        seed: 53,
        deadline: None,
        probe_dt: None,
        nodes: fleet_nodes(128, 15),
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: Some(TopologySpec::Hierarchical {
            rack_size: 4,
            racks_per_row: 2,
            rows: 2,
            row_scale: 4.0,
            dc_scale: 10.0,
        }),
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Rack-correlated shocks on the hierarchy: whole racks fail together.
fn rack_shocks() -> Scenario {
    Scenario {
        name: "rack-shocks".into(),
        description: "Rack-correlated shocks: the 16-node hierarchy under a shock stream \
                      (mean every 25 s) that downs whole racks with per-rack hit \
                      probabilities (0.6, 0.2, 0.2, 0.05) — the loaded rack is the \
                      most exposed"
            .into(),
        reps: 300,
        seed: 54,
        deadline: None,
        probe_dt: None,
        nodes: fleet_nodes(128, 15),
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::RackShocks {
            shock_rate: 0.04,
            group_size: 4,
            hit_probabilities: vec![0.6, 0.2, 0.2, 0.05],
        },
        channel: ChannelModel::Reliable,
        topology: Some(TopologySpec::Hierarchical {
            rack_size: 4,
            racks_per_row: 2,
            rows: 2,
            row_scale: 4.0,
            dc_scale: 10.0,
        }),
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

// ---- unreliable transfer channels -------------------------------------

/// The torus fleet over a lossy fabric: transfers are dropped in flight
/// with a base probability scaled per edge by the topology's delay
/// weights ("the slow link is the lossy link"), re-sent with exponential
/// backoff, and dead-lettered after three retries.
fn lossy_fabric() -> Scenario {
    Scenario {
        name: "lossy-fabric".into(),
        description: "Lossy fabric: the 4x6 torus hot corner with 2% in-flight batch loss \
                      (scaled per edge over the topology), exponential-backoff redelivery \
                      and dead-lettering after 3 retries"
            .into(),
        reps: 300,
        seed: 61,
        deadline: None,
        probe_dt: None,
        nodes: fleet_nodes(120, 23),
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Lossy {
            loss_probability: 0.02,
            on_down: DownPolicy::Enqueue,
            max_retries: 3,
            retry_backoff: 0.05,
        },
        topology: Some(TopologySpec::Torus { rows: 4, cols: 6 }),
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

/// Adversarial churn compounded by a bouncing lossy channel: strikes
/// chase the most-loaded node while its inbound batches bounce off the
/// crashed destination and re-enter the retry protocol.
fn churn_storm_lossy() -> Scenario {
    Scenario {
        name: "churn-storm-lossy".into(),
        description: "Churn storm over a lossy channel: adversarial strikes (~15 s) down the \
                      most-loaded node while 5% of batches are lost in flight and batches \
                      landing on a down node bounce back into retry (4 attempts max)"
            .into(),
        reps: 300,
        seed: 62,
        deadline: None,
        probe_dt: None,
        nodes: vec![NodeSpec::new(1.2, 1.0 / 60.0, 1.0 / 8.0, 80).times(4)],
        network: paper_network(),
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Adversarial {
            strike_rate: 1.0 / 15.0,
        },
        channel: ChannelModel::Lossy {
            loss_probability: 0.05,
            on_down: DownPolicy::Bounce,
            max_retries: 4,
            retry_backoff: 0.1,
        },
        topology: None,
        policy: PolicySpec::Lbp2 { gain: 1.0 },
        axes: Vec::new(),
    }
}

// ---- paper-system constructors shared with the bench harness ----------

fn paper_system(name: &str, m0: [u32; 2], network: NetworkSpec) -> SystemConfig {
    Scenario {
        name: name.into(),
        description: String::new(),
        reps: 1,
        seed: PAPER_SEED,
        deadline: None,
        probe_dt: None,
        nodes: paper_nodes(m0),
        network,
        arrivals: ArrivalsSpec::None,
        churn: ChurnModel::Independent,
        channel: ChannelModel::Reliable,
        topology: None,
        policy: PolicySpec::NoBalancing,
        axes: Vec::new(),
    }
    .system_config()
    .expect("the paper system is always valid")
}

/// Model-faithful §4 system (exponential batch delay) — the "MC
/// simulation" column of the paper, built through the scenario path.
#[must_use]
pub fn paper_mc(m0: [u32; 2]) -> SystemConfig {
    paper_system("paper-mc", m0, paper_network())
}

/// Test-bed stand-in (Erlang per-task delay with the measured fixed
/// shift) — the "experiment" column, built through the scenario path.
#[must_use]
pub fn paper_experiment(m0: [u32; 2]) -> SystemConfig {
    paper_system(
        "paper-experiment",
        m0,
        NetworkSpec {
            fixed: churnbal_cluster::testbed::TESTBED_DELAY_SHIFT,
            per_task: 0.02,
            law: DelayLaw::ErlangPerTask,
        },
    )
}

/// Model-faithful system with a different mean per-task delay (Table 3).
#[must_use]
pub fn paper_mc_with_delay(m0: [u32; 2], per_task: f64) -> SystemConfig {
    paper_system(
        "paper-mc-delay",
        m0,
        NetworkSpec {
            fixed: 0.0,
            per_task,
            law: DelayLaw::ExponentialBatch,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentSpec};
    use crate::sweep::RunOptions;

    #[test]
    fn every_preset_validates_and_lists() {
        assert_eq!(names().len(), PRESETS.len());
        for sc in all() {
            sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert!(
                !sc.description.is_empty(),
                "{} needs a description",
                sc.name
            );
            assert!(names().contains(&sc.name.as_str()));
        }
    }

    #[test]
    fn every_preset_runs_a_tiny_replication_set() {
        for sc in all() {
            let mut point = sc.clone();
            point.axes.clear(); // run the base point, not the whole grid
            let est = Experiment::new(ExperimentSpec::sweep(
                point,
                Vec::new(),
                RunOptions {
                    reps: Some(2),
                    threads: 2,
                    ..RunOptions::default()
                },
            ))
            .estimate()
            .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert_eq!(est.completion_times.len(), 2, "{}", sc.name);
            assert!(
                est.completion_times.iter().all(|t| t.is_finite()),
                "{}",
                sc.name
            );
        }
    }

    #[test]
    fn paper_constructors_match_the_legacy_builders() {
        for m0 in [[200, 200], [100, 60], [50, 0]] {
            assert_eq!(paper_mc(m0), SystemConfig::paper(m0));
            assert_eq!(
                paper_experiment(m0),
                churnbal_cluster::testbed::testbed_config(m0)
            );
        }
        let c = paper_mc_with_delay([10, 10], 2.0);
        assert!((c.network.mean_delay(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn new_regime_presets_are_listed_and_shaped_right() {
        let adv = get("adversarial-churn").expect("registered");
        assert!(matches!(
            adv.churn,
            ChurnModel::Adversarial { strike_rate } if (strike_rate - 1.0 / 15.0).abs() < 1e-12
        ));
        let brown = get("brownout").expect("registered");
        // Same failure rates as the paper pair, repairs 8x slower.
        assert_eq!(brown.nodes[0].failure_rate, 1.0 / 20.0);
        assert_eq!(brown.nodes[0].recovery_rate, 1.0 / 80.0);
        assert_eq!(brown.nodes[1].recovery_rate, 1.0 / 160.0);
        // Both must appear in `churnbal-lab list` via the names table.
        assert!(names().contains(&"adversarial-churn"));
        assert!(names().contains(&"brownout"));
    }

    #[test]
    fn lossy_presets_are_listed_and_shaped_right() {
        let fabric = get("lossy-fabric").expect("registered");
        assert!(matches!(
            fabric.channel,
            ChannelModel::Lossy {
                loss_probability,
                on_down: DownPolicy::Enqueue,
                max_retries: 3,
                ..
            } if (loss_probability - 0.02).abs() < 1e-12
        ));
        assert!(matches!(
            fabric.topology,
            Some(TopologySpec::Torus { rows: 4, cols: 6 })
        ));
        let storm = get("churn-storm-lossy").expect("registered");
        assert!(matches!(
            storm.channel,
            ChannelModel::Lossy {
                on_down: DownPolicy::Bounce,
                max_retries: 4,
                ..
            }
        ));
        assert!(matches!(storm.churn, ChurnModel::Adversarial { .. }));
        assert!(names().contains(&"lossy-fabric"));
        assert!(names().contains(&"churn-storm-lossy"));
    }

    #[test]
    fn unknown_names_return_none() {
        assert!(get("nope").is_none());
        assert!(get("paper-fig3").is_some());
    }

    #[test]
    fn dynamic_arrival_bursts_match_the_original_example() {
        let a = dynamic_arrival_bursts();
        assert_eq!(a.len(), 8);
        // Alternating targets, sizes in 40..=120, increasing times.
        for (i, x) in a.iter().enumerate() {
            assert_eq!(x.node, i % 2);
            assert!((40..=120).contains(&x.tasks));
        }
        assert!(a.windows(2).all(|w| w[0].time < w[1].time));
        // Reproducible: the generator is seeded, not time-dependent.
        assert_eq!(a, dynamic_arrival_bursts());
    }

    #[test]
    fn fig3_preset_mirrors_the_bench_binary_formula() {
        let sc = get("paper-fig3").expect("preset");
        assert_eq!(sc.seed, PAPER_SEED);
        assert_eq!(sc.reps, 500);
        assert_eq!(sc.axes.len(), 1);
        assert_eq!(sc.axes[0].values.len(), 21);
        assert_eq!(
            sc.policy,
            PolicySpec::Lbp1 {
                sender: 0,
                receiver: 1,
                gain: 0.35
            }
        );
        assert_eq!(
            sc.system_config().expect("valid"),
            SystemConfig::paper([100, 60])
        );
    }
}
