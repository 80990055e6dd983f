//! Log-normal lifetime distribution.
//!
//! Not part of the paper's comparison set, but widely used for job-duration and failure
//! modelling; it is included so the fitting harness can demonstrate that even flexible
//! unimodal-hazard families cannot track the deadline spike, and the workload generator
//! uses it for realistic job-length variation inside a bag of jobs.

use crate::LifetimeDistribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Log-normal distribution: `ln(T) ~ Normal(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution with log-mean `mu` and log-std `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(NumericsError::non_finite("lognormal mu"));
        }
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(NumericsError::invalid(format!(
                "sigma must be positive, got {sigma}"
            )));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Log-scale mean.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-scale standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The standard normal CDF via `erf`.
    fn phi(z: f64) -> f64 {
        0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
    }

    /// Inverse standard normal CDF (Acklam's rational approximation, |error| < 1.15e-9).
    fn phi_inv(p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p));
        if p <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        const A: [f64; 6] = [
            -3.969683028665376e+01,
            2.209460984245205e+02,
            -2.759285104469687e+02,
            1.383_577_518_672_69e2,
            -3.066479806614716e+01,
            2.506628277459239e+00,
        ];
        const B: [f64; 5] = [
            -5.447609879822406e+01,
            1.615858368580409e+02,
            -1.556989798598866e+02,
            6.680131188771972e+01,
            -1.328068155288572e+01,
        ];
        const C: [f64; 6] = [
            -7.784894002430293e-03,
            -3.223964580411365e-01,
            -2.400758277161838e+00,
            -2.549732539343734e+00,
            4.374664141464968e+00,
            2.938163982698783e+00,
        ];
        const D: [f64; 4] = [
            7.784695709041462e-03,
            3.224671290700398e-01,
            2.445134137142996e+00,
            3.754408661907416e+00,
        ];
        const P_LOW: f64 = 0.02425;
        if p < P_LOW {
            let q = (-2.0 * p.ln()).sqrt();
            (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        } else if p <= 1.0 - P_LOW {
            let q = p - 0.5;
            let r = q * q;
            (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
                / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
        } else {
            let q = (-2.0 * (1.0 - p).ln()).sqrt();
            -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        }
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, |error| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

impl LifetimeDistribution for LogNormal {
    fn name(&self) -> &'static str {
        "lognormal"
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            Self::phi((t.ln() - self.mu) / self.sigma)
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let z = (t.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (t * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn upper_bound(&self) -> f64 {
        (self.mu + 8.0 * self.sigma).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(1e-16, 1.0 - 1e-16);
        (self.mu + self.sigma * Self::phi_inv(u)).exp()
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
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        let d = LogNormal::new(4.0f64.ln(), 1.5f64.ln()).unwrap();
        assert!((d.mu() - 4.0f64.ln()).abs() < 1e-12);
        assert!((d.sigma() - 1.5f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn erf_known_values() {
        // the A&S 7.1.26 approximation is accurate to ~1.5e-7
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-5);
    }

    #[test]
    fn cdf_median_is_half() {
        let d = LogNormal::new(1.2, 0.4).unwrap();
        let median = 1.2f64.exp();
        assert!((d.cdf(median) - 0.5).abs() < 1e-6);
        assert_eq!(d.cdf(0.0), 0.0);
    }

    #[test]
    fn mean_matches_numeric() {
        let d = LogNormal::new(0.5, 0.6).unwrap();
        let numeric = tcp_numerics::integrate::adaptive_simpson(
            &|t: f64| t * d.pdf(t),
            0.0,
            d.upper_bound(),
            1e-9,
            48,
        )
        .unwrap();
        assert!((d.mean() - numeric).abs() / d.mean() < 1e-4);
    }

    #[test]
    fn quantile_round_trip() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        for &u in &[0.05, 0.3, 0.5, 0.7, 0.95] {
            assert!((d.cdf(d.quantile(u)) - u).abs() < 1e-5);
        }
    }

    #[test]
    fn sampling_matches_cdf() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let samples = d.sample_n(&mut rng, 4000);
        let ecdf = Ecdf::new(&samples).unwrap();
        let ks = ecdf.ks_statistic(|t| d.cdf(t));
        assert!(ks < 0.03, "ks = {ks}");
    }
}
