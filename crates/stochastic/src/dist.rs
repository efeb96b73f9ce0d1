//! Probability distributions used by the model and the test-bed simulator.
//!
//! The paper assumes exponential service, failure, recovery and transfer
//! times (§2). The test-bed chapter (§3–4) additionally motivates a
//! *shifted* exponential (the observed transfer-delay pdf "has a slight
//! shift"), and the application layer draws task sizes from an exponential
//! law.

use crate::rng::Xoshiro256pp;

/// A sampleable, real-valued distribution with known first two moments.
pub trait Sample {
    /// Draws one realisation.
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64;

    /// Exact mean of the distribution.
    fn mean(&self) -> f64;

    /// Exact variance of the distribution.
    fn variance(&self) -> f64;
}

/// Exponential distribution with the given *rate* (inverse mean), the
/// paper's universal modelling assumption.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an `Exp(rate)` distribution.
    ///
    /// # Panics
    /// Panics unless `rate` is strictly positive and finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        Self { rate }
    }

    /// Creates the exponential with the given mean (`rate = 1/mean`).
    #[must_use]
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "mean must be positive, got {mean}"
        );
        Self { rate: 1.0 / mean }
    }

    /// The rate parameter λ.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Evaluates the density `λ e^{-λx}` (0 for negative `x`).
    #[must_use]
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    /// Evaluates the CDF `1 - e^{-λx}`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        rng.exp(self.rate)
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

/// Exponential shifted right by a constant: `shift + Exp(rate)`.
///
/// Matches the empirically observed transfer-delay pdf of Fig. 2, which is
/// exponential-shaped but does not start at zero (propagation + protocol
/// overhead put a floor under every transfer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShiftedExponential {
    shift: f64,
    exp: Exponential,
}

impl ShiftedExponential {
    /// Creates `shift + Exp(rate)`.
    ///
    /// # Panics
    /// Panics if `shift` is negative or `rate` non-positive.
    #[must_use]
    pub fn new(shift: f64, rate: f64) -> Self {
        assert!(
            shift >= 0.0 && shift.is_finite(),
            "shift must be non-negative"
        );
        Self {
            shift,
            exp: Exponential::new(rate),
        }
    }

    /// The additive shift.
    #[must_use]
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The exponential rate of the tail.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.exp.rate()
    }
}

impl Sample for ShiftedExponential {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.shift + self.exp.sample(rng)
    }

    fn mean(&self) -> f64 {
        self.shift + self.exp.mean()
    }

    fn variance(&self) -> f64 {
        self.exp.variance()
    }
}

/// A point mass: always returns `value`. Used for the "deterministic delay"
/// ablations (the assumption most prior work makes and the paper argues
/// against).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value` (must be finite and non-negative).
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value >= 0.0 && value.is_finite(),
            "value must be finite and >= 0"
        );
        Self { value }
    }
}

impl Sample for Deterministic {
    fn sample(&self, _rng: &mut Xoshiro256pp) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates `U[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both are finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "need lo < hi");
        Self { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
}

/// Erlang-`k` distribution: sum of `k` i.i.d. `Exp(rate)` variables.
///
/// Less variable than the exponential with the same mean (`CV² = 1/k`);
/// used for "what if service times were less random than assumed"
/// sensitivity runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Erlang {
    k: u32,
    stage: Exponential,
}

impl Erlang {
    /// Creates an Erlang with `k` stages of rate `rate` each
    /// (mean = `k/rate`).
    ///
    /// # Panics
    /// Panics if `k == 0` or `rate <= 0`.
    #[must_use]
    pub fn new(k: u32, rate: f64) -> Self {
        assert!(k > 0, "Erlang needs at least one stage");
        Self {
            k,
            stage: Exponential::new(rate),
        }
    }

    /// Creates the Erlang-`k` with the given overall mean.
    #[must_use]
    pub fn with_mean(k: u32, mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Self::new(k, f64::from(k) / mean)
    }
}

impl Sample for Erlang {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        (0..self.k).map(|_| self.stage.sample(rng)).sum()
    }

    fn mean(&self) -> f64 {
        f64::from(self.k) * self.stage.mean()
    }

    fn variance(&self) -> f64 {
        f64::from(self.k) * self.stage.variance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn sample_mean<D: Sample>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn sample_var<D: Sample>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::new(1.08);
        assert!((sample_mean(&d, 200_000, 1) - d.mean()).abs() < 0.01);
        assert!((sample_var(&d, 200_000, 2) - d.variance()).abs() < 0.03);
    }

    #[test]
    fn exponential_with_mean_roundtrip() {
        let d = Exponential::with_mean(20.0);
        assert!((d.rate() - 0.05).abs() < 1e-12);
        assert!((d.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_pdf_cdf_consistency() {
        let d = Exponential::new(2.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert!((d.cdf(f64::ln(2.0) / 2.0) - 0.5).abs() < 1e-12);
        // numeric derivative of the CDF ≈ pdf
        let x = 0.7;
        let h = 1e-6;
        let num = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
        assert!((num - d.pdf(x)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_bad_rate() {
        let _ = Exponential::new(-1.0);
    }

    #[test]
    fn shifted_exponential_moments() {
        let d = ShiftedExponential::new(0.005, 50.0);
        assert!((d.mean() - 0.025).abs() < 1e-12);
        assert!((sample_mean(&d, 200_000, 3) - d.mean()).abs() < 1e-3);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.005);
        }
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(3.5);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn uniform_moments_and_support() {
        let d = Uniform::new(1.0, 3.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.variance() - 4.0 / 12.0).abs() < 1e-12);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1.0..3.0).contains(&x));
        }
        assert!((sample_mean(&d, 100_000, 7) - 2.0).abs() < 0.01);
    }

    #[test]
    fn erlang_moments() {
        let d = Erlang::with_mean(4, 2.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        // CV^2 must be 1/k
        let cv2 = d.variance() / (d.mean() * d.mean());
        assert!((cv2 - 0.25).abs() < 1e-12);
        assert!((sample_mean(&d, 100_000, 8) - 2.0).abs() < 0.02);
    }
}
