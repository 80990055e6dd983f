//! Distribution backed directly by observed lifetimes.
//!
//! The paper's methodology is empirical: collect preemption timestamps, build the
//! empirical CDF, then fit analytic models to it.  `EmpiricalLifetime` wraps a sample of
//! observed lifetimes as a [`LifetimeDistribution`], using the linearly interpolated ECDF
//! as its CDF.  It is what the policies fall back to when no analytic fit is available, and
//! it is the reference against which fitted models are scored.

use crate::LifetimeDistribution;
use rand::RngCore;
use tcp_numerics::interp::LinearInterp;
use tcp_numerics::stats::Ecdf;
use tcp_numerics::{NumericsError, Result};

/// An empirical lifetime distribution built from observed time-to-preemption samples.
#[derive(Debug, Clone)]
pub struct EmpiricalLifetime {
    ecdf: Ecdf,
    interp: LinearInterp,
    horizon: Option<f64>,
}

impl EmpiricalLifetime {
    /// Builds an empirical distribution from observed lifetimes (hours).
    ///
    /// `horizon` is the temporal constraint, if known (e.g. 24 h for Google Preemptible
    /// VMs); samples beyond the horizon are rejected.
    pub fn new(samples: &[f64], horizon: Option<f64>) -> Result<Self> {
        if samples.is_empty() {
            return Err(NumericsError::invalid(
                "empirical distribution requires samples",
            ));
        }
        if samples.iter().any(|&t| t < 0.0 || !t.is_finite()) {
            return Err(NumericsError::invalid(
                "lifetimes must be finite and non-negative",
            ));
        }
        if let Some(h) = horizon {
            if !(h > 0.0) {
                return Err(NumericsError::invalid("horizon must be positive"));
            }
            if samples.iter().any(|&t| t > h + 1e-9) {
                return Err(NumericsError::invalid(
                    "observed lifetime exceeds the stated horizon",
                ));
            }
        }
        let ecdf = Ecdf::new(samples)?;
        let interp = ecdf.to_interp()?;
        Ok(EmpiricalLifetime {
            ecdf,
            interp,
            horizon,
        })
    }

    /// The underlying step-function ECDF.
    pub fn ecdf(&self) -> &Ecdf {
        &self.ecdf
    }

    /// Empirical CDF evaluated on a uniform grid — the representation used for model fitting.
    pub fn grid(&self, points: usize) -> Result<(Vec<f64>, Vec<f64>)> {
        let hi = self.upper_bound();
        self.ecdf.on_grid(0.0, hi, points)
    }

    /// The empirical mean lifetime (average of the observations).
    pub fn sample_mean(&self) -> f64 {
        self.ecdf.mean()
    }
}

impl LifetimeDistribution for EmpiricalLifetime {
    fn name(&self) -> &'static str {
        "empirical"
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        // Use the continuous (interpolated) ECDF so quantile/sampling are well behaved.
        self.interp.eval(t).clamp(0.0, 1.0)
    }

    fn upper_bound(&self) -> f64 {
        self.horizon
            .unwrap_or_else(|| *self.ecdf.sorted_values().last().unwrap())
            .max(*self.ecdf.sorted_values().last().unwrap())
    }

    fn mean(&self) -> f64 {
        self.sample_mean()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Resample from the interpolated ECDF (a smoothed bootstrap).
        let u: f64 = rand::Rng::gen::<f64>(rng);
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        self.interp
            .inverse(u)
            .unwrap_or_else(|_| self.upper_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn samples() -> Vec<f64> {
        vec![0.5, 1.0, 2.0, 2.5, 3.0, 8.0, 15.0, 22.0, 23.5, 24.0]
    }

    #[test]
    fn construction_validation() {
        assert!(EmpiricalLifetime::new(&[], Some(24.0)).is_err());
        assert!(EmpiricalLifetime::new(&[-1.0], Some(24.0)).is_err());
        assert!(EmpiricalLifetime::new(&[25.0], Some(24.0)).is_err());
        assert!(EmpiricalLifetime::new(&[1.0], Some(0.0)).is_err());
        assert!(EmpiricalLifetime::new(&[f64::NAN], None).is_err());
        let d = EmpiricalLifetime::new(&samples(), Some(24.0)).unwrap();
        assert_eq!(d.ecdf.len(), 10);
        assert_eq!(d.upper_bound(), 24.0);
    }

    #[test]
    fn cdf_matches_ecdf_at_observations() {
        let d = EmpiricalLifetime::new(&samples(), Some(24.0)).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(24.0) - 1.0).abs() < 1e-9);
        // interpolated CDF is within one step of the step ECDF everywhere
        for i in 0..100 {
            let t = i as f64 * 0.24;
            let diff = (d.cdf(t) - d.ecdf().eval(t)).abs();
            assert!(diff <= 0.1 + 1e-9, "diff {diff} at t={t}");
        }
    }

    #[test]
    fn mean_is_sample_mean() {
        let s = samples();
        let d = EmpiricalLifetime::new(&s, Some(24.0)).unwrap();
        let expect: f64 = s.iter().sum::<f64>() / s.len() as f64;
        assert!((d.mean() - expect).abs() < 1e-12);
    }

    #[test]
    fn grid_is_monotone() {
        let d = EmpiricalLifetime::new(&samples(), Some(24.0)).unwrap();
        let (xs, fs) = d.grid(64).unwrap();
        assert_eq!(xs.len(), 64);
        assert!(fs.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn sampling_stays_in_observed_range() {
        let d = EmpiricalLifetime::new(&samples(), Some(24.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let t = d.sample(&mut rng);
            assert!((0.0..=24.0).contains(&t));
        }
    }

    #[test]
    fn quantile_monotone() {
        let d = EmpiricalLifetime::new(&samples(), Some(24.0)).unwrap();
        let mut prev = -1.0;
        for i in 0..=20 {
            let q = d.quantile(i as f64 / 20.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn works_without_horizon() {
        let d = EmpiricalLifetime::new(&[1.0, 2.0, 3.0], None).unwrap();
        assert_eq!(d.horizon, None);
        assert_eq!(d.upper_bound(), 3.0);
    }
}
