//! State-space exploration.
//!
//! Builds a [`Chain`] by breadth-first search from a set of initial states,
//! given a successor function that returns the outgoing transitions of a
//! state. `None` as a target means "the workload completes here" (the
//! absorbing state).

use std::collections::HashMap;
use std::hash::Hash;

use crate::chain::{Chain, StateIndex, ABSORBING};

/// Result of exploration: the chain plus the mapping between user states
/// and chain indices.
#[derive(Clone, Debug)]
pub struct Explored<S> {
    /// The assembled CTMC.
    pub chain: Chain,
    /// `index_of[s]` is the chain row of state `s`.
    pub index_of: HashMap<S, StateIndex>,
    /// `states[i]` is the user state of chain row `i`.
    pub states: Vec<S>,
}

impl<S: Eq + Hash + Clone> Explored<S> {
    /// Chain index of a state, if it was reachable.
    #[must_use]
    pub fn index(&self, s: &S) -> Option<StateIndex> {
        self.index_of.get(s).copied()
    }
}

/// Explores the reachable state space from `initial` states.
///
/// `successors(s)` must return every outgoing transition of `s` as
/// `(rate, Some(target))` pairs, or `(rate, None)` for transitions straight
/// into absorption.
///
/// # Panics
/// Panics if exploration exceeds `max_states` (guard against accidentally
/// unbounded spaces) or if a successor rate is invalid.
pub fn explore<S, F>(initial: &[S], mut successors: F, max_states: usize) -> Explored<S>
where
    S: Eq + Hash + Clone,
    F: FnMut(&S) -> Vec<(f64, Option<S>)>,
{
    let mut index_of: HashMap<S, StateIndex> = HashMap::new();
    let mut states: Vec<S> = Vec::new();
    let mut rows: Vec<Vec<(StateIndex, f64)>> = Vec::new();

    let intern = |s: S, states: &mut Vec<S>, index_of: &mut HashMap<S, StateIndex>| {
        if let Some(&i) = index_of.get(&s) {
            return i;
        }
        let i = states.len();
        assert!(
            i < max_states,
            "state space exceeded max_states = {max_states}"
        );
        states.push(s.clone());
        index_of.insert(s, i);
        i
    };

    for s in initial {
        intern(s.clone(), &mut states, &mut index_of);
    }
    // Breadth-first in insertion order: row `i` expands `states[i]`.
    while rows.len() < states.len() {
        let succ = successors(&states[rows.len()]);
        let mut row = Vec::with_capacity(succ.len());
        for (rate, target) in succ {
            let idx = match target {
                Some(t) => intern(t, &mut states, &mut index_of),
                None => ABSORBING,
            };
            row.push((idx, rate));
        }
        rows.push(row);
    }

    Explored {
        chain: Chain::from_rows(rows),
        index_of,
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pure-death chain: state k steps to k-1 at rate λ, 0 is completion.
    fn death_chain(n: u32, lambda: f64) -> Explored<u32> {
        explore(
            &[n],
            |&k| {
                if k == 1 {
                    vec![(lambda, None)]
                } else {
                    vec![(lambda, Some(k - 1))]
                }
            },
            1000,
        )
    }

    #[test]
    fn death_chain_enumerates_all_states() {
        let e = death_chain(10, 2.0);
        assert_eq!(e.chain.num_states(), 10);
        assert_eq!(e.index(&10), Some(0));
        assert!(e.index(&0).is_none(), "absorbing state is implicit");
        for k in 1..=10 {
            assert!(e.index(&k).is_some(), "state {k} missing");
        }
    }

    #[test]
    fn states_and_indices_are_inverse() {
        let e = death_chain(5, 1.0);
        for (i, s) in e.states.iter().enumerate() {
            assert_eq!(e.index(s), Some(i));
        }
    }

    #[test]
    fn branching_space_is_fully_explored() {
        // Random walk on {0..=3}^2 with absorption from (0,0).
        let e = explore(
            &[(3u32, 3u32)],
            |&(a, b)| {
                let mut out = Vec::new();
                if a > 0 {
                    out.push((1.0, Some((a - 1, b))));
                }
                if b > 0 {
                    out.push((1.0, Some((a, b - 1))));
                }
                if a == 0 && b == 0 {
                    out.push((1.0, None));
                }
                out
            },
            1000,
        );
        assert_eq!(e.chain.num_states(), 16);
        assert!(e.chain.absorption_is_reachable_from_all());
    }

    #[test]
    #[should_panic(expected = "max_states")]
    fn unbounded_space_is_caught() {
        let _ = explore(&[0u64], |&k| vec![(1.0, Some(k + 1))], 100);
    }

    #[test]
    fn multiple_initial_states_are_seeded() {
        let e = death_chain(3, 1.0);
        assert_eq!(e.chain.num_states(), 3);
        let e2 = explore(
            &[3u32, 7u32],
            |&k| {
                if k == 1 {
                    vec![(1.0, None)]
                } else {
                    vec![(1.0, Some(k - 1))]
                }
            },
            1000,
        );
        assert_eq!(e2.chain.num_states(), 7);
    }
}
