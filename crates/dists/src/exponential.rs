//! The memoryless exponential failure distribution.
//!
//! `F(t) = 1 − e^{−λt}` with `λ = 1/MTTF`.  This is the classical model used for EC2 spot
//! instance preemptions and hardware failures, and the baseline the paper argues is
//! inadequate for temporally constrained preemptions (Observation 2).

use crate::LifetimeDistribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Exponential lifetime distribution with rate `λ` (per hour).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given failure rate `λ > 0` (per hour).
    pub fn new(rate: f64) -> Result<Self> {
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(NumericsError::invalid(format!(
                "exponential rate must be positive, got {rate}"
            )));
        }
        Ok(Exponential { rate })
    }

    /// The failure rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl LifetimeDistribution for Exponential {
    fn name(&self) -> &'static str {
        "exponential"
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * t).exp()
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * t).exp()
        }
    }

    fn hazard(&self, _t: f64) -> f64 {
        // memoryless: constant hazard
        self.rate
    }

    fn upper_bound(&self) -> f64 {
        // beyond ~40 mean lifetimes the residual mass is < 1e-17
        40.0 / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn partial_expectation(&self, a: f64, b: f64) -> f64 {
        // ∫ t λ e^{-λt} dt = -(t + 1/λ) e^{-λt}
        let a = a.max(0.0);
        if b <= a {
            return 0.0;
        }
        let anti = |t: f64| -(t + 1.0 / self.rate) * (-self.rate * t).exp();
        anti(b) - anti(a)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        // inverse transform: t = -ln(1-u)/λ ; use ln(u) symmetry to avoid ln(0)
        -(1.0 - u).max(f64::MIN_POSITIVE).ln() / self.rate
    }

    fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0 - 1e-16);
        -(1.0 - u).ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_numerics::stats::Ecdf;

    #[test]
    fn construction_validation() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        let d = Exponential::new(0.25).unwrap();
        assert!((d.rate() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn cdf_pdf_known_values() {
        let d = Exponential::new(1.0).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-15);
        assert!((d.pdf(0.0) - 1.0).abs() < 1e-15);
        assert_eq!(d.pdf(-1.0), 0.0);
    }

    #[test]
    fn hazard_is_constant() {
        let d = Exponential::new(0.7).unwrap();
        for &t in &[0.0, 1.0, 5.0, 23.0] {
            assert!((d.hazard(t) - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_and_partial_expectation() {
        let d = Exponential::new(0.5).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        // partial expectation over the whole support equals the mean
        let pe = d.partial_expectation(0.0, d.upper_bound());
        assert!((pe - 2.0).abs() < 1e-6);
        // closed form matches numeric default on a sub-interval
        let numeric =
            tcp_numerics::integrate::adaptive_simpson(&|t: f64| t * d.pdf(t), 1.0, 5.0, 1e-12, 40)
                .unwrap();
        assert!((d.partial_expectation(1.0, 5.0) - numeric).abs() < 1e-9);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Exponential::new(0.3).unwrap();
        for &u in &[0.05, 0.25, 0.5, 0.9, 0.999] {
            let t = d.quantile(u);
            assert!((d.cdf(t) - u).abs() < 1e-10);
        }
    }

    #[test]
    fn sampling_matches_cdf() {
        let d = Exponential::new(1.0 / 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let samples = d.sample_n(&mut rng, 4000);
        let ecdf = Ecdf::new(&samples).unwrap();
        let ks = ecdf.ks_statistic(|t| d.cdf(t));
        assert!(ks < 0.03, "ks = {ks}");
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 3.0).abs() < 0.2);
    }
}
