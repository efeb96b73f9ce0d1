//! # churnbal-core
//!
//! The load-balancing policies of Dhakal et al., *"Load Balancing in the
//! Presence of Random Node Failure and Recovery"* (IPDPS 2006), implemented
//! against the [`churnbal_cluster::Policy`] hook interface:
//!
//! * [`Lbp1`] — the **preemptive** policy (§2.1): one one-way transfer of
//!   `L = K·m_sender` tasks at `t = 0` (Eq. 1), with gain, sender and
//!   receiver chosen from the regeneration-theory model that *knows the
//!   failure/recovery statistics*. No further action is ever taken.
//! * [`Lbp2`] — the **reactive** policy (§2.2): a churn-agnostic initial
//!   balancing built on the speed-weighted excess-load partition
//!   (Eqs. 6–7, gain optimised under the no-failure model of the authors'
//!   earlier work), plus a fixed-size compensating transfer (Eq. 8) fired
//!   by the failing node's backup system at every failure instant.
//! * [`baseline`] — reference policies (do nothing; initial balancing
//!   only; failure response only) for the ablation studies.
//! * [`glue`] — conversions between the simulator's [`SystemConfig`] and
//!   the analytical model's parameter set.
//! * [`dynamic`] — the dynamic-workload extension sketched in the paper's
//!   conclusion: re-running balancing episodes at external arrivals.
//! * [`spec`] — declarative policy construction: [`PolicySpec`] describes
//!   any policy as plain data (the scenario lab's currency), and builds it
//!   into a boxed [`AnyPolicy`].
//!
//! [`SystemConfig`]: churnbal_cluster::SystemConfig

pub mod baseline;
pub mod dynamic;
pub mod excess;
pub mod glue;
pub mod lbp1;
pub mod lbp2;
pub mod multi;
pub mod spec;

pub use baseline::{InitialBalanceOnly, UponFailureOnly};
pub use dynamic::{DynamicLbp1, EpisodicLbp2};
pub use excess::{excess_loads, partition_fractions};
pub use glue::model_params;
pub use lbp1::Lbp1;
pub use lbp2::Lbp2;
pub use multi::Lbp1Multi;
pub use spec::{AnyPolicy, PolicySpec};
