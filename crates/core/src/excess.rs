//! Excess-load computation and partitioning — Eqs. (6)–(7) of §2.2.
//!
//! LBP-2's initial balancing divides the total workload in proportion to
//! processing speed: node `j`'s *excess* is what it holds above its
//! fair share,
//!
//! ```text
//! L_excess_j = ( m_j − (λ_dj / Σ_k λ_dk) · Σ_l m_l )⁺ ,
//! ```
//!
//! and the excess of node `j` is split over the other nodes with fractions
//! (Eq. 6)
//!
//! ```text
//! p_ij = 1/(n−2) · (1 − (m_i/λ_di) / Σ_{l≠j} (m_l/λ_dl)),   n ≥ 3
//! p_ij = 1,                                                  n = 2
//! ```
//!
//! (`p_jj = 0`; the fractions sum to one), so nodes with smaller *relative*
//! load `m/λ_d` receive more. The amount actually shipped is attenuated by
//! the gain: `L_ij = K · p_ij · L_excess_j` (Eq. 7).

use churnbal_cluster::{SystemView, TransferOrder};

/// Streams the Eq. (6)–(7) balancing orders of every sender of `view`
/// into `sink`, in sender order: each sender's excess over its
/// weight-proportional share of its closed neighborhood, partitioned over
/// its neighbors (see [`local_balancing_orders_into`]). Without a
/// topology every closed neighborhood is the whole system, so its totals
/// are summed once per call, in the `0..n` order of the per-sender walk:
/// the scan costs O(n) plus O(n) per sender with an excess, and every
/// order is bit-identical to the per-sender form's.
///
/// # Panics
/// Panics if any weight is non-positive.
pub(crate) fn balancing_orders_into(
    view: &SystemView<'_>,
    weight: impl Fn(usize) -> f64,
    gain: f64,
    sink: &mut Vec<TransferOrder>,
) {
    let n = view.len();
    let queue = |i: usize| view.queue_len[i];
    let mut complete = None;
    for j in 0..n {
        let hood = match view.topology {
            Some(_) => Neighborhood::closed(j, view.neighbors(j), queue, &weight),
            None => *complete.get_or_insert_with(|| Neighborhood::closed(0, 1..n, queue, &weight)),
        };
        partition_excess(j, view.neighbors(j), hood, queue, &weight, gain, sink);
    }
}

/// Streams the Eq. (6)–(7) balancing orders of one sender `j` into `sink`
/// without allocating: `j`'s excess over its weight-proportional share of
/// its *closed neighborhood* (`j` plus `receivers`), attenuated by `gain`
/// and partitioned over `receivers`, one order per positive rounded
/// amount, at O(degree) cost. `receivers` must yield node indices in
/// ascending order without `j` — what `SystemView::neighbors` yields, all
/// other nodes when there is no topology. On that complete graph the
/// arithmetic is the exact operation sequence of [`excess_loads`] +
/// [`partition_fractions`], so the orders are bit-identical to theirs.
///
/// `queue(i)` / `weight(i)` describe the system (the weight is the service
/// rate for LBP-2, or an availability-discounted rate for the multi-node
/// preemptive policy). A node with no receivers keeps its load.
///
/// # Panics
/// Panics if any weight in the closed neighborhood is non-positive.
pub fn local_balancing_orders_into(
    j: usize,
    receivers: impl Iterator<Item = usize> + Clone,
    queue: impl Fn(usize) -> u32,
    weight: impl Fn(usize) -> f64,
    gain: f64,
    sink: &mut Vec<TransferOrder>,
) {
    let hood = Neighborhood::closed(j, receivers.clone(), &queue, &weight);
    partition_excess(j, receivers, hood, queue, weight, gain, sink);
}

/// The totals of a sender's closed neighborhood.
#[derive(Clone, Copy)]
struct Neighborhood {
    /// Σ weight.
    rate: f64,
    /// Σ queue.
    load: f64,
    /// Receivers (the sender excluded).
    degree: usize,
}

impl Neighborhood {
    /// Sums `j` and `receivers` ascending — merging `j` into the sorted
    /// receiver walk keeps the `0..n` accumulation order of the reference
    /// on complete graphs.
    fn closed(
        j: usize,
        receivers: impl Iterator<Item = usize>,
        queue: impl Fn(usize) -> u32,
        weight: impl Fn(usize) -> f64,
    ) -> Self {
        let mut hood = Self {
            rate: 0.0,
            load: 0.0,
            degree: 0,
        };
        let mut merged = false;
        let mut absorb = |l: usize| {
            let w = weight(l);
            assert!(w > 0.0, "service rates must be positive");
            hood.rate += w;
            hood.load += f64::from(queue(l));
        };
        for l in receivers {
            debug_assert_ne!(l, j, "receivers must not contain the sender");
            if !merged && l > j {
                absorb(j);
                merged = true;
            }
            absorb(l);
            hood.degree += 1;
        }
        if !merged {
            absorb(j);
        }
        hood
    }
}

/// Sender `j`'s orders given its closed neighborhood's totals.
fn partition_excess(
    j: usize,
    receivers: impl Iterator<Item = usize> + Clone,
    hood: Neighborhood,
    queue: impl Fn(usize) -> u32,
    weight: impl Fn(usize) -> f64,
    gain: f64,
    sink: &mut Vec<TransferOrder>,
) {
    if hood.degree == 0 {
        return;
    }
    let n_local = hood.degree + 1;
    let ex = (f64::from(queue(j)) - weight(j) / hood.rate * hood.load).max(0.0);
    if ex <= 0.0 {
        return;
    }
    if n_local == 2 {
        // Single receiver: the partition is trivially p = 1.
        let to = receivers.clone().next().expect("degree checked above");
        let amount = (gain * 1.0 * ex).round() as u32;
        if amount > 0 {
            sink.push(TransferOrder {
                from: j,
                to,
                tasks: amount,
            });
        }
        return;
    }
    // Σ_{l≠j} m_l/λ_l over the receivers, ascending like the reference's
    // per-`l` vector sum.
    let mut w_total = 0.0;
    for l in receivers.clone() {
        w_total += f64::from(queue(l)) / weight(l);
    }
    for i in receivers {
        let frac = if w_total > 0.0 {
            (1.0 - (f64::from(queue(i)) / weight(i)) / w_total) / (n_local as f64 - 2.0)
        } else {
            1.0 / (n_local as f64 - 1.0)
        };
        let amount = (gain * frac * ex).round() as u32;
        if amount > 0 {
            sink.push(TransferOrder {
                from: j,
                to: i,
                tasks: amount,
            });
        }
    }
}

/// Excess load of every node (Eq. 6's `L_excess_j`), as real numbers
/// (rounding happens when orders are cut).
///
/// # Panics
/// Panics if the slices differ in length, are shorter than 2, or any rate
/// is non-positive.
#[must_use]
pub fn excess_loads(queues: &[u32], service_rates: &[f64]) -> Vec<f64> {
    assert_eq!(queues.len(), service_rates.len(), "length mismatch");
    assert!(queues.len() >= 2, "need at least two nodes");
    assert!(
        service_rates.iter().all(|&r| r > 0.0),
        "service rates must be positive"
    );
    let total_rate: f64 = service_rates.iter().sum();
    let total_load: f64 = queues.iter().map(|&q| f64::from(q)).sum();
    queues
        .iter()
        .zip(service_rates)
        .map(|(&m, &rate)| (f64::from(m) - rate / total_rate * total_load).max(0.0))
        .collect()
}

/// Partition fractions `p_ij` of Eq. (6) for a fixed overloaded node `j`:
/// entry `i` is the share of node `j`'s excess that goes to node `i`
/// (`p_jj = 0`).
///
/// When every other node is empty the paper's expression degenerates to
/// `0/0`; we then split uniformly over the `n−1` receivers, which is the
/// limit of the expression as the loads vanish together.
///
/// # Panics
/// Panics on length mismatch, fewer than 2 nodes, `j` out of range, or
/// non-positive rates.
#[must_use]
pub fn partition_fractions(queues: &[u32], service_rates: &[f64], j: usize) -> Vec<f64> {
    let n = queues.len();
    assert_eq!(n, service_rates.len(), "length mismatch");
    assert!(n >= 2, "need at least two nodes");
    assert!(j < n, "node {j} out of range");
    assert!(
        service_rates.iter().all(|&r| r > 0.0),
        "service rates must be positive"
    );
    let mut p = vec![0.0; n];
    if n == 2 {
        p[1 - j] = 1.0;
        return p;
    }
    // Relative loads m/λ_d of the receivers.
    let w: Vec<f64> = queues
        .iter()
        .zip(service_rates)
        .map(|(&m, &rate)| f64::from(m) / rate)
        .collect();
    let w_total: f64 = (0..n).filter(|&l| l != j).map(|l| w[l]).sum();
    for i in 0..n {
        if i == j {
            continue;
        }
        p[i] = if w_total > 0.0 {
            (1.0 - w[i] / w_total) / (n as f64 - 2.0)
        } else {
            1.0 / (n as f64 - 1.0)
        };
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_100_60() {
        // §4 numbers: shares are 160·1.08/2.94 = 58.78 and 160·1.86/2.94 =
        // 101.22, so node 1 has ≈ 41.2 excess and node 2 none.
        let e = excess_loads(&[100, 60], &[1.08, 1.86]);
        assert!((e[0] - (100.0 - 160.0 * 1.08 / 2.94)).abs() < 1e-9);
        assert!((e[0] - 41.2244897959).abs() < 1e-6);
        assert_eq!(e[1], 0.0);
    }

    #[test]
    fn balanced_system_has_no_excess() {
        // Loads exactly proportional to speeds.
        let e = excess_loads(&[108, 186], &[1.08, 1.86]);
        assert!(e.iter().all(|&x| x.abs() < 1e-9), "{e:?}");
    }

    #[test]
    fn slower_node_has_larger_excess() {
        // §2.2: with equal loads, the slower node's share is smaller, so
        // its excess is larger.
        let e = excess_loads(&[100, 100], &[1.0, 3.0]);
        assert!(e[0] > 0.0);
        assert_eq!(e[1], 0.0);
        let e2 = excess_loads(&[100, 100], &[1.0, 1.5]);
        assert!(e2[0] > 0.0 && e2[0] < e[0], "closer speeds, smaller excess");
    }

    #[test]
    fn two_node_partition_is_trivial() {
        let p = partition_fractions(&[100, 60], &[1.08, 1.86], 0);
        assert_eq!(p, vec![0.0, 1.0]);
        let p = partition_fractions(&[100, 60], &[1.08, 1.86], 1);
        assert_eq!(p, vec![1.0, 0.0]);
    }

    #[test]
    fn fractions_sum_to_one_for_n_nodes() {
        for n in 3..7usize {
            let queues: Vec<u32> = (0..n).map(|i| 10 + 7 * i as u32).collect();
            let rates: Vec<f64> = (0..n).map(|i| 1.0 + 0.3 * i as f64).collect();
            for j in 0..n {
                let p = partition_fractions(&queues, &rates, j);
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12, "j={j}: {p:?}");
                assert_eq!(p[j], 0.0);
            }
        }
    }

    #[test]
    fn lighter_receivers_get_more() {
        // Node 0 overloaded; node 1 idle, node 2 busy -> node 1 gets more.
        let p = partition_fractions(&[90, 0, 30], &[1.0, 1.0, 1.0], 0);
        assert!(p[1] > p[2], "{p:?}");
    }

    #[test]
    fn speed_matters_in_relative_load() {
        // Same queues, but node 2 is much faster: its relative load is
        // lower, so it receives more.
        let p = partition_fractions(&[90, 30, 30], &[1.0, 1.0, 10.0], 0);
        assert!(p[2] > p[1], "{p:?}");
    }

    #[test]
    fn empty_receivers_split_uniformly() {
        let p = partition_fractions(&[50, 0, 0], &[1.0, 2.0, 3.0], 0);
        assert!((p[1] - 0.5).abs() < 1e-12);
        assert!((p[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_j_rejected() {
        let _ = partition_fractions(&[1, 2], &[1.0, 1.0], 5);
    }

    /// On the complete graph the streaming scan must replicate the
    /// collect-then-partition reference bit-for-bit — order amounts come
    /// from the same float ops, the contract the engine's pinned digests
    /// rest on.
    #[test]
    fn balancing_orders_into_matches_the_slice_reference() {
        let cases: &[(&[u32], &[f64])] = &[
            (&[100, 60], &[1.08, 1.86]),
            (&[108, 186], &[1.08, 1.86]),
            (&[90, 0, 30], &[1.0, 1.0, 1.0]),
            (&[90, 30, 30, 7], &[1.0, 1.0, 10.0, 0.3]),
            (&[50, 0, 0], &[1.0, 2.0, 3.0]),
            (&[0, 0, 0], &[1.0, 2.0, 3.0]),
            (&[13, 5, 80, 2, 44], &[0.7, 1.1, 2.3, 0.4, 1.9]),
        ];
        for &(queues, rates) in cases {
            for gain in [0.0, 0.33, 0.5, 1.0] {
                let mut reference = Vec::new();
                let excess = excess_loads(queues, rates);
                for (j, &ex) in excess.iter().enumerate() {
                    if ex <= 0.0 {
                        continue;
                    }
                    let p = partition_fractions(queues, rates, j);
                    for (i, &frac) in p.iter().enumerate() {
                        let amount = (gain * frac * ex).round() as u32;
                        if amount > 0 {
                            reference.push(TransferOrder {
                                from: j,
                                to: i,
                                tasks: amount,
                            });
                        }
                    }
                }
                let n = queues.len();
                let mut streamed = Vec::new();
                for j in 0..n {
                    local_balancing_orders_into(
                        j,
                        (0..n).filter(|&l| l != j),
                        |i| queues[i],
                        |i| rates[i],
                        gain,
                        &mut streamed,
                    );
                }
                assert_eq!(streamed, reference, "queues {queues:?} gain {gain}");
                // The whole-view scan sums the complete graph's totals once.
                let (up, zero) = (vec![true; n], vec![0.0; n]);
                let view = SystemView {
                    time: 0.0,
                    queue_len: queues,
                    up: &up,
                    service_rate: rates,
                    failure_rate: &zero,
                    recovery_rate: &zero,
                    delay_per_task: 0.0,
                    in_transit: 0,
                    tasks_lost: 0,
                    topology: None,
                };
                let mut scanned = Vec::new();
                balancing_orders_into(&view, |i| rates[i], gain, &mut scanned);
                assert_eq!(scanned, reference, "queues {queues:?} gain {gain}");
            }
        }
    }

    /// On a sparse graph every order stays inside the sender's
    /// neighborhood and single-neighbor senders ship their whole excess
    /// along their only edge.
    #[test]
    fn local_orders_stay_within_the_neighborhood() {
        // Line graph 0 - 1 - 2 - 3; all the load sits on node 0.
        let adjacency: [&[usize]; 4] = [&[1], &[0, 2], &[1, 3], &[2]];
        let queues = [80u32, 0, 0, 0];
        let rates = [1.0f64; 4];
        let mut orders = Vec::new();
        for (j, neighbors) in adjacency.iter().enumerate() {
            local_balancing_orders_into(
                j,
                neighbors.iter().copied(),
                |i| queues[i],
                |i| rates[i],
                1.0,
                &mut orders,
            );
        }
        assert!(!orders.is_empty());
        for o in &orders {
            assert!(
                adjacency[o.from].contains(&o.to),
                "{o:?} leaves the neighborhood"
            );
        }
        // Node 0 sees only {0, 1}: its fair share is half, so it ships
        // the other half to its single neighbor.
        assert_eq!(
            orders[0],
            TransferOrder {
                from: 0,
                to: 1,
                tasks: 40
            }
        );
    }

    #[test]
    fn isolated_sender_keeps_its_load() {
        let mut orders = Vec::new();
        local_balancing_orders_into(0, std::iter::empty(), |_| 100, |_| 1.0, 1.0, &mut orders);
        assert!(orders.is_empty());
    }
}
