//! The exact absorbing CTMC of the system, for any node count.
//!
//! The regenerative-process equations of §2.1 (Eqs. 4 and 5) are
//! first-step equations of one absorbing continuous-time Markov chain over
//! `(queue sizes, work state, loads in transit)`, and §1 notes that the
//! model extends to n nodes "in a straightforward way". One builder makes
//! that chain with [`churnbal_ctmc`] for any node count, giving:
//!
//! * an independent numerical answer for every quantity Eqs. (4)–(5)
//!   produce (used heavily in tests);
//! * an *exact* model of LBP-2's failure-triggered transfers, which the
//!   paper itself only evaluates by Monte-Carlo and experiment;
//! * an exact small-`n` model validating the simulator beyond two nodes.
//!
//! The dynamics: exponential service at every up node, exponential failure
//! and recovery per node, each batch in flight delivered after an
//! exponential delay of rate `λ(L)`, and a per-node failure response (the
//! n-node Eq. 8). State-space growth limits the chain to small workloads,
//! which is what validating the simulator and policies needs; the
//! large-workload numbers come from the recursions and Monte-Carlo.

use std::rc::Rc;

use churnbal_ctmc::{expected_absorption_times, explore, Chain, StateIndex};

use crate::rates::{MultiNodeParams, TwoNodeParams};
use crate::state::{StateSpace, WorkState};

/// One state of the chain: the queues, the up-mask (bit `i` set ⇔ node `i`
/// is up) and the batches in flight as sorted `(receiver, size)` pairs,
/// which a successor shares unless it changes them.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State<const N: usize> {
    m: [u32; N],
    up: u16,
    flights: Rc<[(u8, u32)]>,
}

/// Builds the absorbing chain of an `N`-node system: `queues`, `flights`
/// and `on_failure` are as in [`multinode_mean_exact`], and the search
/// starts from the distinct up-masks `seeds`, in order, each with those
/// queues and flights, so seed `k` is row `k` and one chain answers for
/// every seed.
///
/// Returns the chain and the row of the seed `start`, or `None` for an
/// empty workload: a zero-task system never absorbs (the work states cycle
/// forever), but its completion time is identically zero.
///
/// # Panics
/// As [`multinode_mean_exact`], and if `start` is not a seed.
pub(crate) fn chain<const N: usize>(
    params: &MultiNodeParams<N>,
    queues: [u32; N],
    flights: &[(usize, u32)],
    on_failure: impl Fn(usize) -> Vec<(usize, u32)>,
    seeds: &[u16],
    start: u16,
    max_states: usize,
) -> Option<(Chain, StateIndex)> {
    let p = *params;
    let mut flights: Vec<(u8, u32)> = flights
        .iter()
        .map(|&(r, l)| {
            assert!(r < N && l > 0, "invalid initial flight");
            (r as u8, l)
        })
        .collect();
    flights.sort_unstable();
    let response: [Vec<(usize, u32)>; N] = std::array::from_fn(|j| {
        let response = if p.churns(j) {
            on_failure(j)
        } else {
            Vec::new()
        };
        for &(recv, _) in &response {
            assert!(recv < N && recv != j, "bad failure response target");
        }
        response
    });
    let tasks = queues.iter().sum::<u32>() + flights.iter().map(|&(_, l)| l).sum::<u32>();
    if tasks == 0 {
        return None;
    }
    let flights: Rc<[(u8, u32)]> = flights.into();
    // Landing the last batch in flight shares one empty set rather than
    // allocating a new one per state.
    let landed: Rc<[(u8, u32)]> = Rc::new([]);
    let initial: Vec<State<N>> = seeds
        .iter()
        .map(|&up| State {
            m: queues,
            up,
            flights: Rc::clone(&flights),
        })
        .collect();
    let explored = explore(
        &initial,
        move |s: &State<N>| {
            let mut out = Vec::with_capacity(2 * N + s.flights.len());
            let tasks_left =
                s.m.iter().sum::<u32>() + s.flights.iter().map(|&(_, l)| l).sum::<u32>();
            let with = |m: [u32; N], up: u16| State {
                m,
                up,
                flights: Rc::clone(&s.flights),
            };
            for i in 0..N {
                if s.up & (1 << i) == 0 {
                    out.push((p.recovery[i], Some(with(s.m, s.up | (1 << i)))));
                    continue;
                }
                if s.m[i] > 0 {
                    let mut m = s.m;
                    m[i] -= 1;
                    out.push((p.service[i], (tasks_left > 1).then(|| with(m, s.up))));
                }
                if p.churns(i) {
                    let mut next = with(s.m, s.up & !(1 << i));
                    let mut shipped = Vec::new();
                    for &(recv, want) in &response[i] {
                        let granted = want.min(next.m[i]);
                        if granted > 0 {
                            next.m[i] -= granted;
                            shipped.push((recv as u8, granted));
                        }
                    }
                    if !shipped.is_empty() {
                        shipped.extend_from_slice(&s.flights);
                        shipped.sort_unstable();
                        next.flights = shipped.into();
                    }
                    out.push((p.failure[i], Some(next)));
                }
            }
            for (fi, &(recv, size)) in s.flights.iter().enumerate() {
                let mut m = s.m;
                m[recv as usize] += size;
                let flights = if s.flights.len() == 1 {
                    Rc::clone(&landed)
                } else {
                    let rest = s.flights[..fi].iter().chain(&s.flights[fi + 1..]);
                    rest.copied().collect()
                };
                out.push((
                    p.delay.rate(size),
                    Some(State {
                        m,
                        up: s.up,
                        flights,
                    }),
                ));
            }
            out
        },
        max_states,
    );
    let row = seeds.iter().position(|&up| up == start);
    Some((explored.chain, row.expect("initial state is in the chain")))
}

/// The two-node chain: `sender` ships `l` of its `m0[sender]` tasks to the
/// other node at `t = 0` (nothing for `l = 0`), and node `j` ships
/// `lf_on_failure[j]` tasks (Eq. 8, clamped to its queue) to the other node
/// at each of its failures.
///
/// The search starts from every reachable work state, in [`StateSpace`]
/// order, so one chain answers for any initial work state; the returned
/// row is `initial`'s, and an empty workload builds no chain (`None`).
///
/// # Panics
/// Panics on an invalid transfer spec or when the state space exceeds
/// `max_states`.
#[must_use]
pub fn two_node_chain(
    params: &TwoNodeParams,
    m0: [u32; 2],
    (sender, l): (usize, u32),
    lf_on_failure: [u32; 2],
    initial: WorkState,
    max_states: usize,
) -> Option<(Chain, StateIndex)> {
    assert!(sender < 2 && l <= m0[sender], "invalid transfer spec");
    let mut queues = m0;
    queues[sender] -= l;
    let flight = [(1 - sender, l)];
    let seeds: Vec<u16> = StateSpace::new(params)
        .states()
        .iter()
        .map(|s| u16::from(s.mask()))
        .collect();
    chain(
        params,
        queues,
        if l > 0 { &flight } else { &[] },
        |j| vec![(1 - j, lf_on_failure[j])],
        &seeds,
        u16::from(initial.mask()),
        max_states,
    )
}

/// LBP-2's `t = 0` balancing transfer as [`two_node_chain`]'s
/// `(sender, l)`; panics on an empty one or one the sender cannot cover.
pub(crate) fn lbp2_transfer(m0: [u32; 2], initial_transfer: Option<(usize, u32)>) -> (usize, u32) {
    initial_transfer.map_or((0, 0), |(sender, l)| {
        assert!(
            sender < 2 && l <= m0[sender] && l > 0,
            "invalid initial transfer"
        );
        (sender, l)
    })
}

/// The mean absorption time at the start row; 0 for an empty workload.
fn mean_at(built: Option<(Chain, StateIndex)>) -> f64 {
    built.map_or(0.0, |(chain, start)| {
        expected_absorption_times(&chain)[start]
    })
}

/// Exact mean completion time of the LBP-1 dynamics via absorption
/// analysis — the independent check on [`crate::mean`].
///
/// `sender` ships `l` tasks out of the initial workload `m0`; the system
/// starts in `initial`.
#[must_use]
pub fn lbp1_mean_exact(
    params: &TwoNodeParams,
    m0: [u32; 2],
    sender: usize,
    l: u32,
    initial: WorkState,
) -> f64 {
    let built = two_node_chain(params, m0, (sender, l), [0, 0], initial, 4_000_000);
    mean_at(built)
}

/// Exact mean completion time of the two-node LBP-2 dynamics via
/// absorption analysis (the paper only has MC/experiment for this —
/// the exact value is an *extension*).
///
/// `lf_on_failure[j]` is the Eq. 8 amount node `j` ships at each failure;
/// `initial_transfer` is the `t = 0` balancing transfer `(sender, l)`.
#[must_use]
pub fn lbp2_mean_exact(
    params: &TwoNodeParams,
    m0: [u32; 2],
    lf_on_failure: [u32; 2],
    initial_transfer: Option<(usize, u32)>,
    initial: WorkState,
    max_states: usize,
) -> f64 {
    let transfer = lbp2_transfer(m0, initial_transfer);
    let built = two_node_chain(params, m0, transfer, lf_on_failure, initial, max_states);
    mean_at(built)
}

/// Exact mean completion time of the n-node dynamics from the all-up
/// initial state.
///
/// * `m0` — queue vector *after* the initial transfers have left their
///   sources;
/// * `initial_flights` — the `t = 0` transfers still in the air,
///   `(receiver, size)`;
/// * `on_failure(j)` — the policy's failure response: `(receiver, amount)`
///   pairs shipped by node `j`'s backup at each of its failures (amounts
///   are clamped to the queue, in the returned order).
///
/// # Panics
/// Panics on an invalid flight or failure response, or if exploration
/// exceeds `max_states`.
#[must_use]
pub fn multinode_mean_exact<const N: usize, F>(
    params: &MultiNodeParams<N>,
    m0: [u32; N],
    initial_flights: &[(usize, u32)],
    on_failure: F,
    max_states: usize,
) -> f64
where
    F: Fn(usize) -> Vec<(usize, u32)>,
{
    let all_up = u16::MAX >> (16 - N);
    let seeds = [all_up];
    mean_at(chain(
        params,
        m0,
        initial_flights,
        on_failure,
        &seeds,
        all_up,
        max_states,
    ))
}
