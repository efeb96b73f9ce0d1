//! # churnbal-cluster
//!
//! The distributed-computing-system substrate of the reproduction: `n`
//! computational elements (nodes) that execute tasks, randomly fail and
//! recover, and exchange load over a network with random, load-dependent
//! transfer delays — §2–§3 of Dhakal et al. (IPDPS 2006).
//!
//! * [`config`] — node/network/system parameter sets.
//! * [`policy`] — the hook interface load-balancing policies implement
//!   (`at start`, `at failure`, `at recovery`, `at arrival`): borrowed
//!   [`SystemView`]s over engine scratch plus a reusable order sink, so a
//!   policy callback allocates nothing. The policies themselves (LBP-1,
//!   LBP-2, baselines) live in `churnbal-core`.
//! * [`engine`] — the event-driven simulator built on `churnbal-desim`:
//!   exponential service, churn processes, delayed batch transfers,
//!   external arrivals, queue traces, hard determinism from a seed;
//!   resettable in place for allocation-free replication loops.
//! * [`mc`] — the replication runner: parallel Monte-Carlo estimation with
//!   per-replication random streams, bit-identical for any thread count;
//!   each worker reuses one simulator's scratch across its replications.
//! * [`testbed`] — the stand-in for the paper's physical WLAN test-bed
//!   (see DESIGN.md "Substitutions"): the same dynamics with the empirically
//!   shaped transfer-delay law (fixed shift + per-task jitter) and the
//!   matrix-multiplication application model used for Figs. 1–2.
//! * [`trace`] / [`metrics`] — queue step-functions (Fig. 4) and the
//!   per-run [`Counters`] and integrals.
//! * [`probe`] — the deterministic observability layer: simulation-time
//!   fleet probes ([`SimOptions::probe_dt`]) producing per-tick aggregate
//!   samples and log-bucketed distribution histograms, zero-cost when off
//!   and bit-identical across thread counts when on.
//!
//! The engine exploits the memorylessness of the exponential laws: a
//! service in progress when a node fails is simply rescheduled on recovery,
//! which is distribution-identical to suspending and resuming it — the
//! checkpoint/backup semantics of §3.

pub mod config;
pub mod engine;
pub mod exec;
pub mod mc;
pub mod metrics;
pub mod policy;
pub mod probe;
pub mod testbed;
pub mod topology;
pub mod trace;

pub use churnbal_desim::QueueBackend;
pub use config::{
    ArrivalKind, ArrivalProcess, ChannelModel, ChurnModel, DelayLaw, DownPolicy, ExternalArrival,
    NetworkConfig, NodeConfig, SystemConfig,
};
pub use engine::{simulate, RunSummary, SimOptions, SimOutcome, Simulator};
pub use exec::{run_grid, ExecReport, PointJob, PointStats, QuarantineReport, WorkerReport};
pub use mc::run_replications;
pub use metrics::Counters;
pub use policy::{
    Neighbors, NoBalancing, NodeView, Policy, SystemSnapshot, SystemView, TransferOrder,
};
pub use probe::{micros, ProbeReport, ProbeSample};
pub use topology::Topology;
pub use trace::QueueTrace;
