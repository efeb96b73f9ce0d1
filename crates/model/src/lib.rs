//! # churnbal-model
//!
//! Regeneration-theory analytics for the two-node distributed system of
//! Dhakal et al. (IPDPS 2006), plus exact CTMC cross-checks.
//!
//! The paper characterises the *overall completion time* `T` of a workload
//! split over two nodes that randomly fail and recover, with a one-time
//! load transfer `L` subject to a random, load-dependent delay:
//!
//! * [`mean`] solves the difference equations of §2.1.1 (Eq. 4): for every
//!   lattice cell `(M1, M2)` the four work-state unknowns
//!   `µ^{k1,k2}_{M1,M2}` satisfy a linear system whose right-hand side
//!   involves already-computed cells — `µ = A⁻¹ b`, swept over the lattice.
//! * [`cdf`] integrates the ODE system of §2.1.2 (Eq. 5),
//!   `ṗ = A₁ p + B₁ u`, which is the backward Kolmogorov equation of the
//!   absorbing CTMC; we assemble the full sparse system and use classical
//!   RK4 steps.
//! * [`optimize`] finds the optimal LBP-1 gain `K` (equivalently the
//!   integer transfer size `L`) and the sender/receiver orientation, and
//!   the no-failure optimum used by LBP-2's initial balancing.
//! * [`exact`] builds the *same* stochastic dynamics as one explicit
//!   [`churnbal_ctmc::Chain`] for any node count, so every number the
//!   recursions produce can be cross-validated against an independent
//!   solver (Gauss–Seidel / uniformization). The same builder gives the
//!   exact two-node LBP-2 chain and the n-node chain used to validate the
//!   simulator beyond the two-node setting.
//!
//! Work states follow the paper's convention: bit `i` set means node `i` is
//! up ("1"), clear means failed/recovering ("0").

pub mod cdf;
pub mod cdf_lattice;
pub mod exact;
pub mod linalg;
pub mod mean;
pub mod optimize;
pub mod rates;
pub mod state;
pub mod variance;

pub use cdf::{lbp1_cdf, mean_from_cdf, CompletionCdf};
pub use cdf_lattice::lbp1_cdf_lattice;
pub use exact::multinode_mean_exact;
pub use mean::{HatTable, Lbp1Evaluator};
pub use optimize::{optimize_lbp1, optimize_lbp1_deadline, DeadlineOptimum, Lbp1Optimum};
pub use rates::{DelayModel, MultiNodeParams, TwoNodeParams};
pub use state::{StateSpace, WorkState};
pub use variance::{lbp1_moments, lbp2_moments, CompletionMoments};

// The unit tests of `exact` keep the module paths of the two-node
// (`bridge`) and n-node (`multinode`) chains it replaced, so each test
// keeps its name in test reports.
#[cfg(test)]
mod bridge {
    mod tests;
}
#[cfg(test)]
mod multinode {
    mod tests;
}
