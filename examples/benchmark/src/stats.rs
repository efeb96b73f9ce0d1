//! Order statistics, the bit-exact mean the CLI reports, and a log
//! histogram for span durations.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so the
/// spreads this program reports match the ones Python computes.
/// Fewer than two values give that value (or 0) for both.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The streaming mean the CLI's rows carry (Welford's update, in
/// replication order). Reproducing its exact operation order is what lets
/// the trace replay compare means with the CLI's CSV bit for bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningMean {
    n: u64,
    mean: f64,
}

impl RunningMean {
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
    }

    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Values below this get a bucket each.
const EXACT: u64 = 8;

/// Durations in nanoseconds, bucketed by power of two with four linear
/// sub-buckets each (≤ 25% relative error on a quantile).
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::bucket(u64::MAX) + 1],
            total: 0,
        }
    }
}

impl LogHistogram {
    fn bucket(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - 2)) & 3;
        EXACT as usize + (exp as usize - 3) * 4 + sub as usize
    }

    /// Lower edge of bucket `b`.
    fn lower(b: usize) -> u64 {
        if b < EXACT as usize {
            return b as u64;
        }
        let exp = 3 + (b - EXACT as usize) / 4;
        let sub = ((b - EXACT as usize) % 4) as u64;
        (4 + sub) << (exp - 2)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// The `q`-quantile (0 < q ≤ 1) as the lower edge of its bucket; 0
    /// when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(b);
            }
        }
        Self::lower(self.counts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn running_mean_is_welford() {
        let xs = [0.1, 0.2, 0.3, 1e9, -4.5];
        let mut m = RunningMean::default();
        let (mut n, mut mean) = (0u64, 0.0f64);
        for x in xs {
            m.push(x);
            n += 1;
            mean += (x - mean) / n as f64;
        }
        assert_eq!(m.mean().to_bits(), mean.to_bits());
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let mut h = LogHistogram::default();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        let p50 = h.quantile(0.5);
        assert!((384..=500).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!((768..=990).contains(&p99), "{p99}");
        assert_eq!(LogHistogram::default().quantile(0.5), 0);
        for ns in [0, 1, 3, 4, 5, 7, 8, 1000, 1 << 40] {
            let b = LogHistogram::bucket(ns);
            assert!(LogHistogram::lower(b) <= ns, "{ns}");
            assert!(LogHistogram::lower(b + 1) > ns, "{ns}");
        }
    }
}
