//! The Gompertz–Makeham failure distribution.
//!
//! `F(t) = 1 − exp(−λt − (α/β)(e^{βt} − 1))`.  The Makeham term `λ` is an age-independent
//! background hazard and the Gompertz term `α e^{βt}` is an exponentially accelerating
//! ageing process — the classical actuarial bathtub tail.  The paper fits it in Figure 1 and
//! finds that even exponential ageing cannot match the sharpness of the 24-hour deadline.

use crate::LifetimeDistribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Gompertz–Makeham lifetime distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GompertzMakeham {
    /// Age-independent (Makeham) hazard component, per hour.
    lambda: f64,
    /// Scale of the Gompertz (ageing) hazard component.
    alpha: f64,
    /// Exponential ageing rate of the Gompertz component, per hour.
    beta: f64,
}

impl GompertzMakeham {
    /// Creates a Gompertz–Makeham distribution.
    ///
    /// Requires `lambda >= 0`, `alpha > 0`, `beta > 0` and at least one positive hazard
    /// contribution.
    pub fn new(lambda: f64, alpha: f64, beta: f64) -> Result<Self> {
        if !(lambda >= 0.0) || !lambda.is_finite() {
            return Err(NumericsError::invalid(format!(
                "lambda must be non-negative, got {lambda}"
            )));
        }
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(NumericsError::invalid(format!(
                "alpha must be positive, got {alpha}"
            )));
        }
        if !(beta > 0.0) || !beta.is_finite() {
            return Err(NumericsError::invalid(format!(
                "beta must be positive, got {beta}"
            )));
        }
        Ok(GompertzMakeham {
            lambda,
            alpha,
            beta,
        })
    }

    /// The cumulative hazard `Λ(t) = λt + (α/β)(e^{βt} − 1)`.
    pub fn cumulative_hazard(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        self.lambda * t + self.alpha / self.beta * ((self.beta * t).exp() - 1.0)
    }
}

impl LifetimeDistribution for GompertzMakeham {
    fn name(&self) -> &'static str {
        "gompertz-makeham"
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-self.cumulative_hazard(t)).exp()
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        self.hazard(t) * (-self.cumulative_hazard(t)).exp()
    }

    fn hazard(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        self.lambda + self.alpha * (self.beta * t).exp()
    }

    fn upper_bound(&self) -> f64 {
        // Find t with cumulative hazard ~ 40 (survival < 1e-17) by doubling.
        let mut t = 1.0;
        while self.cumulative_hazard(t) < 40.0 && t < 1e6 {
            t *= 2.0;
        }
        t
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> f64 {
        // Solve Λ(t) = -ln(1-u) with Brent (Λ is strictly increasing).
        let u = u.clamp(0.0, 1.0 - 1e-16);
        let target = -(1.0 - u).ln();
        let f = |t: f64| self.cumulative_hazard(t) - target;
        let hi = self.upper_bound();
        tcp_numerics::roots::brent(f, 0.0, hi, tcp_numerics::roots::RootConfig::default())
            .unwrap_or(hi)
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
        assert!(GompertzMakeham::new(-0.1, 1.0, 1.0).is_err());
        assert!(GompertzMakeham::new(0.1, 0.0, 1.0).is_err());
        assert!(GompertzMakeham::new(0.1, 1.0, 0.0).is_err());
        assert!(GompertzMakeham::new(0.1, 1.0, f64::NAN).is_err());
        assert!(GompertzMakeham::new(0.0, 0.01, 0.2).is_ok());
    }

    #[test]
    fn hazard_is_increasing() {
        let d = GompertzMakeham::new(0.05, 0.001, 0.3).unwrap();
        assert!(d.hazard(20.0) > d.hazard(10.0));
        assert!(d.hazard(10.0) > d.hazard(0.0));
        // at t=0 the hazard is lambda + alpha
        assert!((d.hazard(0.0) - 0.051).abs() < 1e-12);
    }

    #[test]
    fn cdf_limits() {
        let d = GompertzMakeham::new(0.05, 0.001, 0.3).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert!(d.cdf(d.upper_bound()) > 1.0 - 1e-10);
        crate::validate_cdf(&d, 500).unwrap();
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = GompertzMakeham::new(0.08, 0.002, 0.25).unwrap();
        let total = tcp_numerics::integrate::adaptive_simpson(
            &|t: f64| d.pdf(t),
            0.0,
            d.upper_bound(),
            1e-10,
            48,
        )
        .unwrap();
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
    }

    #[test]
    fn quantile_round_trip() {
        let d = GompertzMakeham::new(0.05, 0.005, 0.2).unwrap();
        for &u in &[0.1, 0.5, 0.9, 0.99] {
            let t = d.quantile(u);
            assert!((d.cdf(t) - u).abs() < 1e-8, "u = {u}");
        }
    }

    #[test]
    fn sampling_matches_cdf() {
        let d = GompertzMakeham::new(0.1, 0.01, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let samples = d.sample_n(&mut rng, 2500);
        let ecdf = Ecdf::new(&samples).unwrap();
        let ks = ecdf.ks_statistic(|t| d.cdf(t));
        assert!(ks < 0.04, "ks = {ks}");
    }

    #[test]
    fn reduces_towards_exponential_when_ageing_negligible() {
        // tiny alpha, slow beta: behaves like Exponential(lambda) over moderate horizons
        let d = GompertzMakeham::new(0.5, 1e-9, 0.01).unwrap();
        let e = crate::Exponential::new(0.5).unwrap();
        for &t in &[0.5, 1.0, 5.0, 10.0] {
            assert!((d.cdf(t) - e.cdf(t)).abs() < 1e-6);
        }
    }
}
