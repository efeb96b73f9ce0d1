//! Deterministic simulation-time probes and fleet telemetry.
//!
//! The engine's [`crate::metrics::Metrics`] describe a run *after the
//! fact*; the paper's claims are about *dynamics* — queue trajectories,
//! in-transit volume, degradation under churn (§1, Fig. 4). At the fleet
//! scales the sweep scheduler unlocked, the per-node
//! [`crate::trace::QueueTrace`] is O(nodes × changes) and unusable, so
//! this module provides the scalable alternative: fleet-level aggregates
//! sampled on a deterministic *simulation-time* cadence, plus log-bucketed
//! distribution telemetry.
//!
//! Determinism contract:
//!
//! * Probe ticks fire at `t = dt, 2·dt, 3·dt, …` (`tick · dt` in exact
//!   f64 arithmetic — no accumulation drift). Each tick samples the state
//!   the system held *at that instant*: the engine flushes pending ticks
//!   at the checkpoint of the first event at or past them, before
//!   applying it, and the state is piecewise-constant between events. A
//!   tick at an event's instant sees the state before that event; a tick
//!   at the deadline is emitted, and none after it or after completion.
//! * Probing draws no randomness and schedules no events, so a run's
//!   trajectory — and every pinned digest — is identical with probes on
//!   or off, and the report itself is a pure function of
//!   `(config, seed, dt)`: thread-count and backend invariant.
//! * Distribution telemetry uses [`LogHistogram`]s (integer power-of-two
//!   bucket math); times are quantized to integer microseconds. Merging
//!   per-replication histograms is exact in any order.
//!
//! The next tick is one of the two thresholds of the event loop's one
//! checkpoint test (with the deadline and the watchdog), so between ticks
//! an armed probe costs the same single per-event test as no probe.
//! `tests/alloc_free.rs` holds the probes-off path allocation-free, and
//! the perfreport overhead gate bounds the armed cost.

use churnbal_stochastic::LogHistogram;

/// One fleet-aggregate sample at a probe tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeSample {
    /// Simulation time of the tick (`tick · dt`).
    pub time: f64,
    /// Nodes currently up.
    pub up_nodes: u32,
    /// Total queued tasks across the fleet.
    pub queue_total: u64,
    /// Longest per-node queue.
    pub queue_max: u32,
    /// Median per-node queue length (log-bucket quantile, see
    /// [`LogHistogram::quantile`]).
    pub queue_p50: u64,
    /// 99th-percentile per-node queue length (log-bucket quantile).
    pub queue_p99: u64,
    /// Tasks in transit between nodes.
    pub in_transit: u32,
    /// Cumulative node failures up to the tick.
    pub failures: u64,
    /// Cumulative transfer batches initiated up to the tick.
    pub transfers: u64,
    /// Cumulative tasks dead-lettered by the transfer channel up to the
    /// tick (always 0 under [`crate::ChannelModel::Reliable`]).
    pub tasks_lost: u64,
}

/// Telemetry of one replication: the per-tick time series plus
/// distribution histograms accumulated over the whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProbeReport {
    /// Fleet aggregates, one entry per probe tick, in tick order.
    pub samples: Vec<ProbeSample>,
    /// Per-node queue lengths observed at every tick (`ticks × nodes`
    /// observations).
    pub queue_hist: LogHistogram,
    /// Sampled transfer delays, in integer microseconds.
    pub transfer_delay_us: LogHistogram,
    /// Completed down-time spells (plus the residual spell of any node
    /// still down at the end of the run), in integer microseconds.
    pub downtime_us: LogHistogram,
    /// Channel-redelivery backoff delays, in integer microseconds (empty
    /// under [`crate::ChannelModel::Reliable`]).
    pub retry_delay_us: LogHistogram,
}

impl ProbeReport {
    /// Folds `other`'s distribution telemetry into `self` (exact,
    /// order-invariant bucket adds). Time series stay per-replication and
    /// are *not* concatenated — merge is for cross-replication histogram
    /// aggregation.
    pub fn merge_telemetry(&mut self, other: &Self) {
        self.queue_hist.merge(&other.queue_hist);
        self.transfer_delay_us.merge(&other.transfer_delay_us);
        self.downtime_us.merge(&other.downtime_us);
        self.retry_delay_us.merge(&other.retry_delay_us);
    }

    /// Empties the report in place, keeping the sample buffer's
    /// allocation — the reset path of a reused simulator.
    pub(crate) fn clear(&mut self) {
        self.samples.clear();
        self.queue_hist.clear();
        self.transfer_delay_us.clear();
        self.downtime_us.clear();
        self.retry_delay_us.clear();
    }
}

/// Seconds → integer microseconds, the quantization unit of all time
/// histograms (saturating at 0 below and `u64::MAX` above).
#[must_use]
#[inline]
#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
pub fn micros(seconds: f64) -> u64 {
    (seconds * 1e6).round() as u64
}

/// The engine-side probe driver: tick cursor, scratch histogram for
/// per-tick quantiles, and the report under construction. Unarmed until
/// [`ProbeState::rearm`] sets its cadence.
#[derive(Default)]
pub(crate) struct ProbeState {
    dt: f64,
    /// Next tick to emit; tick `k` fires at `k · dt`, starting at 1 (the
    /// `t = 0` state is the configured initial condition, not a sample).
    next_tick: u64,
    /// Reused per-tick histogram of node queue lengths.
    scratch: LogHistogram,
    pub(crate) report: ProbeReport,
}

impl ProbeState {
    /// Arms for a fresh run at cadence `dt`, keeping allocations.
    pub(crate) fn rearm(&mut self, dt: f64) {
        assert!(
            dt.is_finite() && dt > 0.0,
            "probe_dt must be a positive finite number of seconds, got {dt}"
        );
        self.dt = dt;
        self.next_tick = 1;
        self.scratch.clear();
        self.report.clear();
    }

    /// Simulation time of the next pending tick.
    #[inline]
    pub(crate) fn next_time(&self) -> f64 {
        self.next_tick as f64 * self.dt
    }

    /// Emits the next tick against the given fleet state and advances
    /// the cursor.
    pub(crate) fn sample(
        &mut self,
        up: &[bool],
        queues: &[u32],
        in_transit: u32,
        failures: u64,
        transfers: u64,
        tasks_lost: u64,
    ) {
        self.scratch.clear();
        let mut queue_total = 0u64;
        let mut queue_max = 0u32;
        let mut up_nodes = 0u32;
        for (&q, &is_up) in queues.iter().zip(up) {
            queue_total += u64::from(q);
            queue_max = queue_max.max(q);
            up_nodes += u32::from(is_up);
            self.scratch.record(u64::from(q));
        }
        self.report.samples.push(ProbeSample {
            time: self.next_time(),
            up_nodes,
            queue_total,
            queue_max,
            queue_p50: self.scratch.quantile(0.5),
            queue_p99: self.scratch.quantile(0.99),
            in_transit,
            failures,
            transfers,
            tasks_lost,
        });
        self.report.queue_hist.merge(&self.scratch);
        self.next_tick += 1;
    }

    pub(crate) fn record_transfer_delay(&mut self, seconds: f64) {
        self.report.transfer_delay_us.record(micros(seconds));
    }

    pub(crate) fn record_downtime(&mut self, seconds: f64) {
        self.report.downtime_us.record(micros(seconds));
    }

    pub(crate) fn record_retry_delay(&mut self, seconds: f64) {
        self.report.retry_delay_us.record(micros(seconds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_quantizes_and_saturates() {
        assert_eq!(micros(0.0), 0);
        assert_eq!(micros(1.0), 1_000_000);
        assert_eq!(micros(2.5e-7), 0, "below half a µs rounds down");
        assert_eq!(micros(7.5e-7), 1);
        assert_eq!(micros(-3.0), 0, "negative saturates to zero");
    }

    #[test]
    fn ticks_advance_on_an_exact_grid() {
        let mut ps = ProbeState::default();
        ps.rearm(0.25);
        assert_eq!(ps.next_time(), 0.25);
        ps.sample(&[true, false], &[3, 0], 1, 2, 3, 4);
        assert_eq!(ps.next_time(), 0.5);
        let s = ps.report.samples[0];
        assert_eq!(s.time, 0.25);
        assert_eq!(s.up_nodes, 1);
        assert_eq!(s.queue_total, 3);
        assert_eq!(s.queue_max, 3);
        assert_eq!(s.in_transit, 1);
        assert_eq!(s.failures, 2);
        assert_eq!(s.transfers, 3);
        assert_eq!(s.tasks_lost, 4);
        assert_eq!(ps.report.queue_hist.total(), 2, "one entry per node");
    }

    #[test]
    fn rearm_clears_everything_but_keeps_the_cadence_contract() {
        let mut ps = ProbeState::default();
        ps.rearm(1.0);
        ps.sample(&[true], &[5], 0, 0, 0, 0);
        ps.record_transfer_delay(0.5);
        ps.record_downtime(2.0);
        ps.record_retry_delay(0.125);
        ps.rearm(2.0);
        assert_eq!(ps.next_time(), 2.0);
        assert!(ps.report.samples.is_empty());
        assert!(ps.report.queue_hist.is_empty());
        assert!(ps.report.transfer_delay_us.is_empty());
        assert!(ps.report.downtime_us.is_empty());
        assert!(ps.report.retry_delay_us.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn zero_dt_is_rejected() {
        ProbeState::default().rearm(0.0);
    }

    #[test]
    fn merge_telemetry_folds_histograms_only() {
        let mut a = ProbeReport::default();
        let mut b = ProbeReport::default();
        a.queue_hist.record(4);
        b.queue_hist.record(9);
        b.retry_delay_us.record(150);
        b.samples.push(ProbeSample {
            time: 1.0,
            up_nodes: 1,
            queue_total: 9,
            queue_max: 9,
            queue_p50: 9,
            queue_p99: 9,
            in_transit: 0,
            failures: 0,
            transfers: 0,
            tasks_lost: 0,
        });
        a.merge_telemetry(&b);
        assert_eq!(a.queue_hist.total(), 2);
        assert_eq!(a.retry_delay_us.total(), 1);
        assert!(a.samples.is_empty(), "series are per-replication");
    }
}
