//! The Weibull failure distribution.
//!
//! `F(t) = 1 − e^{−(λt)^k}`.  With shape `k > 1` the hazard rises over time, which is the
//! classical way to model ageing, but — as the paper shows in Figure 1 — the rise is far
//! too gentle to capture the near-deadline preemption spike of constrained VMs.

use crate::LifetimeDistribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Weibull lifetime distribution with scale-rate `λ` (per hour) and shape `k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    rate: f64,
    shape: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with rate `λ > 0` and shape `k > 0`.
    pub fn new(rate: f64, shape: f64) -> Result<Self> {
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(NumericsError::invalid(format!(
                "weibull rate must be positive, got {rate}"
            )));
        }
        if !(shape > 0.0) || !shape.is_finite() {
            return Err(NumericsError::invalid(format!(
                "weibull shape must be positive, got {shape}"
            )));
        }
        Ok(Weibull { rate, shape })
    }

    /// Ln-gamma via the Lanczos approximation (needed for the closed-form mean).
    fn ln_gamma(x: f64) -> f64 {
        // Lanczos coefficients (g = 7, n = 9)
        const COEFFS: [f64; 9] = [
            0.999_999_999_999_809_9,
            676.520_368_121_885_1,
            -1_259.139_216_722_402_8,
            771.323_428_777_653_1,
            -176.615_029_162_140_6,
            12.507_343_278_686_905,
            -0.138_571_095_265_720_12,
            9.984_369_578_019_572e-6,
            1.505_632_735_149_311_6e-7,
        ];
        if x < 0.5 {
            // reflection formula
            let pi = std::f64::consts::PI;
            return (pi / (pi * x).sin()).ln() - Self::ln_gamma(1.0 - x);
        }
        let x = x - 1.0;
        let mut a = COEFFS[0];
        let t = x + 7.5;
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }

    /// Gamma function.
    pub fn gamma(x: f64) -> f64 {
        Self::ln_gamma(x).exp()
    }
}

impl LifetimeDistribution for Weibull {
    fn name(&self) -> &'static str {
        "weibull"
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-(self.rate * t).powf(self.shape)).exp()
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return if self.shape < 1.0 {
                f64::INFINITY
            } else if self.shape == 1.0 {
                self.rate
            } else {
                0.0
            };
        }
        let z = self.rate * t;
        self.shape * self.rate * z.powf(self.shape - 1.0) * (-z.powf(self.shape)).exp()
    }

    fn cdf_pdf(&self, t: f64) -> (f64, f64) {
        if t <= 0.0 {
            return (0.0, self.pdf(t));
        }
        let z = self.rate * t;
        // `exp(−z^k)`, shared by both sides.
        let tail = (-z.powf(self.shape)).exp();
        (
            1.0 - tail,
            self.shape * self.rate * z.powf(self.shape - 1.0) * tail,
        )
    }

    fn hazard(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.pdf(0.0);
        }
        self.shape * self.rate * (self.rate * t).powf(self.shape - 1.0)
    }

    fn upper_bound(&self) -> f64 {
        // quantile at 1 - 1e-12
        self.quantile(1.0 - 1e-12)
    }

    fn mean(&self) -> f64 {
        // E[T] = Γ(1 + 1/k) / λ
        Self::gamma(1.0 + 1.0 / self.shape) / self.rate
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0 - 1e-16);
        (-(1.0 - u).ln()).powf(1.0 / self.shape) / self.rate
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
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
        assert!(Weibull::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn shape_one_reduces_to_exponential() {
        let w = Weibull::new(0.5, 1.0).unwrap();
        let e = crate::Exponential::new(0.5).unwrap();
        for &t in &[0.1, 1.0, 3.0, 10.0] {
            assert!((w.cdf(t) - e.cdf(t)).abs() < 1e-12);
            assert!((w.pdf(t) - e.pdf(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_function_known_values() {
        assert!((Weibull::gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((Weibull::gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((Weibull::gamma(5.0) - 24.0).abs() < 1e-7);
        assert!((Weibull::gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn mean_matches_numeric_integration() {
        let w = Weibull::new(0.2, 2.5).unwrap();
        let closed = w.mean();
        let numeric = tcp_numerics::integrate::adaptive_simpson(
            &|t: f64| t * w.pdf(t),
            0.0,
            w.upper_bound(),
            1e-10,
            48,
        )
        .unwrap();
        assert!(
            (closed - numeric).abs() / closed < 1e-6,
            "closed {closed} numeric {numeric}"
        );
    }

    #[test]
    fn increasing_hazard_for_shape_above_one() {
        let w = Weibull::new(0.1, 2.0).unwrap();
        assert!(w.hazard(10.0) > w.hazard(1.0));
        let w_dec = Weibull::new(0.1, 0.5).unwrap();
        assert!(w_dec.hazard(10.0) < w_dec.hazard(1.0));
    }

    #[test]
    fn quantile_round_trip() {
        let w = Weibull::new(0.3, 1.7).unwrap();
        for &u in &[0.1, 0.4, 0.8, 0.99] {
            assert!((w.cdf(w.quantile(u)) - u).abs() < 1e-10);
        }
    }

    #[test]
    fn sampling_matches_cdf() {
        let w = Weibull::new(0.15, 1.8).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let samples = w.sample_n(&mut rng, 4000);
        let ecdf = Ecdf::new(&samples).unwrap();
        let ks = ecdf.ks_statistic(|t| w.cdf(t));
        assert!(ks < 0.03, "ks = {ks}");
    }
}
