//! Uniformly distributed preemptions over the constrained lifetime.
//!
//! Section 6.1 of the paper compares bathtub preemptions against a strawman in which
//! preemptions are uniformly distributed over the `[0, 24]`-hour window: `F(t) = t / L`.
//! Under this distribution the expected wasted work for a job of length `J` is `J/2` and
//! the expected increase in running time is `J²/(2L)` (= `J²/48` for `L = 24`).

use crate::LifetimeDistribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Uniform lifetime distribution on `[0, horizon]` hours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformLifetime {
    horizon: f64,
}

impl UniformLifetime {
    /// Creates a uniform lifetime distribution over `[0, horizon]` with `horizon > 0`.
    pub fn new(horizon: f64) -> Result<Self> {
        if !(horizon > 0.0) || !horizon.is_finite() {
            return Err(NumericsError::invalid(format!(
                "horizon must be positive, got {horizon}"
            )));
        }
        Ok(UniformLifetime { horizon })
    }

    /// The 24-hour Google Preemptible VM horizon.
    pub fn google_default() -> Self {
        UniformLifetime {
            horizon: crate::DEFAULT_HORIZON_HOURS,
        }
    }
}

impl LifetimeDistribution for UniformLifetime {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn cdf(&self, t: f64) -> f64 {
        (t / self.horizon).clamp(0.0, 1.0)
    }

    fn pdf(&self, t: f64) -> f64 {
        if (0.0..=self.horizon).contains(&t) {
            1.0 / self.horizon
        } else {
            0.0
        }
    }

    fn hazard(&self, t: f64) -> f64 {
        if t >= self.horizon {
            f64::INFINITY
        } else if t < 0.0 {
            0.0
        } else {
            1.0 / (self.horizon - t)
        }
    }

    fn upper_bound(&self) -> f64 {
        self.horizon
    }

    fn mean(&self) -> f64 {
        0.5 * self.horizon
    }

    fn partial_expectation(&self, a: f64, b: f64) -> f64 {
        let a = a.clamp(0.0, self.horizon);
        let b = b.clamp(0.0, self.horizon);
        if b <= a {
            return 0.0;
        }
        (b * b - a * a) / (2.0 * self.horizon)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        rand::Rng::gen::<f64>(rng) * self.horizon
    }

    fn quantile(&self, u: f64) -> f64 {
        u.clamp(0.0, 1.0) * self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(UniformLifetime::new(0.0).is_err());
        assert!(UniformLifetime::new(-5.0).is_err());
        assert!(UniformLifetime::new(f64::NAN).is_err());
        assert_eq!(UniformLifetime::google_default().upper_bound(), 24.0);
    }

    #[test]
    fn cdf_is_linear() {
        let d = UniformLifetime::new(24.0).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(12.0), 0.5);
        assert_eq!(d.cdf(24.0), 1.0);
        assert_eq!(d.cdf(30.0), 1.0);
        assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn wasted_work_is_half_job_length() {
        // the paper's analytic result: uniform failures waste J/2 on average given one failure
        let d = UniformLifetime::new(24.0).unwrap();
        let j = 10.0;
        // E[W1] = (1/F(J)) ∫0^J t f(t) dt = (24/J) * J²/48 = J/2
        let e_w1 = d.partial_expectation(0.0, j) / d.cdf(j);
        assert!((e_w1 - j / 2.0).abs() < 1e-12);
    }

    #[test]
    fn hazard_blows_up_at_horizon() {
        let d = UniformLifetime::new(24.0).unwrap();
        assert!(d.hazard(23.99) > d.hazard(1.0));
        assert!(d.hazard(24.0).is_infinite());
    }

    #[test]
    fn mean_and_partial_expectation() {
        let d = UniformLifetime::new(24.0).unwrap();
        assert_eq!(d.mean(), 12.0);
        assert!((d.partial_expectation(0.0, 24.0) - 12.0).abs() < 1e-12);
        assert!((d.partial_expectation(6.0, 12.0) - (144.0 - 36.0) / 48.0).abs() < 1e-12);
        assert_eq!(d.partial_expectation(10.0, 5.0), 0.0);
    }

    #[test]
    fn sampling_in_range_with_uniform_coverage() {
        let d = UniformLifetime::new(24.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let samples = d.sample_n(&mut rng, 2000);
        assert!(samples.iter().all(|&t| (0.0..=24.0).contains(&t)));
        let below_half =
            samples.iter().filter(|&&t| t < 12.0).count() as f64 / samples.len() as f64;
        assert!((below_half - 0.5).abs() < 0.05);
    }

    #[test]
    fn quantile_is_linear() {
        let d = UniformLifetime::new(24.0).unwrap();
        assert_eq!(d.quantile(0.25), 6.0);
        assert_eq!(d.quantile(1.5), 24.0);
    }
}
