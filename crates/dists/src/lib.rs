//! Lifetime (time-to-preemption) distributions for transient cloud VMs.
//!
//! The paper compares its constrained-preemption ("bathtub") model against the classical
//! failure distributions used in prior transient-computing work:
//!
//! * memoryless [`exponential::Exponential`] — the default assumption behind
//!   Young–Daly checkpointing and spot-instance MTTF modelling;
//! * [`weibull::Weibull`] — the classic ageing distribution;
//! * [`gompertz_makeham::GompertzMakeham`] — exponential-ageing (actuarial)
//!   bathtub model;
//! * [`uniform::UniformLifetime`] — the "uniformly distributed over
//!   `[0, 24]` hours" strawman used in Section 6.1;
//! * [`bathtub::ConstrainedBathtub`] — the paper's model, Equation (1);
//! * [`phased::PhasedHazard`] — an explicit three-phase hazard process used as
//!   the synthetic ground truth for trace generation (and as the "phase-wise model"
//!   sketched in Section 8);
//! * [`empirical::EmpiricalLifetime`] — a distribution backed directly by
//!   observed lifetimes.
//!
//! All of them implement the [`LifetimeDistribution`] trait, which exposes the CDF, PDF,
//! hazard rate, truncated expectations, and inverse-transform sampling needed by the model
//! analysis, the policies, and the cloud simulator.
//!
//! [`LifetimeDistribution::cdf_pdf`] evaluates the CDF and PDF at one point together.
//! Its result is bit for bit `(cdf(t), pdf(t))` for every family and every `t`; the
//! bathtub, Weibull, exponential and phased families override it only to share the
//! `exp`/`powf` terms the two functions have in common.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod bathtub;
pub mod empirical;
pub mod exponential;
pub mod fit;
pub mod gompertz_makeham;
pub mod lognormal;
pub mod phased;
pub mod uniform;
pub mod weibull;

pub use bathtub::ConstrainedBathtub;
pub use empirical::EmpiricalLifetime;
pub use exponential::Exponential;
pub use fit::{fit_distribution, DistributionFamily, FittedDistribution};
pub use gompertz_makeham::GompertzMakeham;
pub use lognormal::LogNormal;
pub use phased::PhasedHazard;
pub use uniform::UniformLifetime;
pub use weibull::Weibull;

use rand::RngCore;
use tcp_numerics::integrate::adaptive_simpson;
use tcp_numerics::sampling::invert_cdf;
use tcp_numerics::Result;

/// The 24-hour maximum lifetime of Google Preemptible VMs, in hours.
pub const DEFAULT_HORIZON_HOURS: f64 = 24.0;

/// A probability distribution over VM lifetimes (time to preemption), measured in hours.
///
/// Implementations must provide a CDF; every other quantity has a numerically computed
/// default so that new distributions only need to override what they can do in closed form.
pub trait LifetimeDistribution: Send + Sync {
    /// Human-readable name of the distribution family (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Cumulative distribution function `P(lifetime <= t)`.
    ///
    /// Must be non-decreasing, `0` at `t <= 0`, and reach `1` at (or before) the horizon if
    /// the distribution is temporally constrained.
    fn cdf(&self, t: f64) -> f64;

    /// Probability density function.  Default: centred finite difference of the CDF.
    fn pdf(&self, t: f64) -> f64 {
        let h = 1e-5 * self.upper_bound().max(1.0);
        let lo = (t - h).max(0.0);
        let hi = t + h;
        ((self.cdf(hi) - self.cdf(lo)) / (hi - lo)).max(0.0)
    }

    /// The CDF and the PDF at one point, `(cdf(t), pdf(t))`.
    ///
    /// Contract: the pair is bit for bit what the two separate calls return, at every
    /// `t` (edge branches included).  Families whose CDF and PDF share terms override
    /// it to compute those terms once; callers that need both at many points (the
    /// calibration scoring pass) use it to halve the work.
    fn cdf_pdf(&self, t: f64) -> (f64, f64) {
        (self.cdf(t), self.pdf(t))
    }

    /// Survival function `P(lifetime > t)`.
    fn survival(&self, t: f64) -> f64 {
        (1.0 - self.cdf(t)).clamp(0.0, 1.0)
    }

    /// Hazard (instantaneous failure) rate `f(t) / (1 - F(t))`.
    fn hazard(&self, t: f64) -> f64 {
        let s = self.survival(t);
        if s <= 1e-12 {
            f64::INFINITY
        } else {
            self.pdf(t) / s
        }
    }

    /// An upper bound of the support used for numeric integration and sampling.
    ///
    /// Constrained distributions override this with their horizon; for unconstrained ones
    /// it is a point beyond which the remaining probability mass is negligible.
    fn upper_bound(&self) -> f64 {
        1e4
    }

    /// Mean lifetime `E[T] = ∫ t f(t) dt` over the support.  Default: adaptive quadrature.
    fn mean(&self) -> f64 {
        self.partial_expectation(0.0, self.upper_bound())
    }

    /// Truncated expectation `∫_a^b t f(t) dt`.
    ///
    /// This is the integral at the heart of the paper's wasted-work analysis (Equations 3,
    /// 5, 8 and 13).  Default: adaptive Simpson quadrature over the PDF.
    fn partial_expectation(&self, a: f64, b: f64) -> f64 {
        let a = a.max(0.0);
        let b = b.min(self.upper_bound());
        if b <= a {
            return 0.0;
        }
        adaptive_simpson(&|t: f64| t * self.pdf(t), a, b, 1e-10, 48).unwrap_or(0.0)
    }

    /// Probability of a preemption in the interval `(a, b]`.
    fn interval_probability(&self, a: f64, b: f64) -> f64 {
        (self.cdf(b) - self.cdf(a)).clamp(0.0, 1.0)
    }

    /// Draws a lifetime via inverse-transform sampling.
    ///
    /// The default numerically inverts the CDF on `[0, upper_bound]`; closed-form
    /// implementations should override this for speed.
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = rand::Rng::gen::<f64>(rng);
        self.quantile(u)
    }

    /// Quantile function (inverse CDF), clamped to the support.
    fn quantile(&self, u: f64) -> f64 {
        let hi = self.upper_bound();
        // normalise for truncated distributions whose CDF may not reach exactly 1 at `hi`
        let total = self.cdf(hi).max(1e-12);
        invert_cdf(&|t: f64| self.cdf(t) / total, 0.0, hi, u).unwrap_or(hi)
    }

    /// Draws `n` lifetimes.
    fn sample_n(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Validates basic CDF sanity for any distribution; shared helper for tests and fitters.
// lint:allow(dead-api) CDF sanity fixture for every tcp-dists family test and tcp-trace catalog tests
pub fn validate_cdf(dist: &dyn LifetimeDistribution, points: usize) -> Result<()> {
    use tcp_numerics::NumericsError;
    let hi = dist.upper_bound();
    let grid = tcp_numerics::interp::linspace(0.0, hi, points.max(2));
    let mut prev = -1e-12;
    for &t in &grid {
        let f = dist.cdf(t);
        if !f.is_finite() {
            return Err(NumericsError::non_finite(format!(
                "{} cdf at t={t}",
                dist.name()
            )));
        }
        if !(-1e-9..=1.0 + 1e-9).contains(&f) {
            return Err(NumericsError::invalid(format!(
                "{} cdf out of [0,1] at t={t}: {f}",
                dist.name()
            )));
        }
        if f + 1e-9 < prev {
            return Err(NumericsError::invalid(format!(
                "{} cdf not monotone at t={t}",
                dist.name()
            )));
        }
        prev = f;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_trait_methods_consistent_for_exponential() {
        let d = Exponential::new(0.5).unwrap();
        // survival + cdf = 1
        for &t in &[0.0, 0.5, 2.0, 10.0] {
            assert!((d.cdf(t) + d.survival(t) - 1.0).abs() < 1e-12);
        }
        // interval probability additivity
        let p = d.interval_probability(0.0, 5.0);
        let p2 = d.interval_probability(0.0, 2.0) + d.interval_probability(2.0, 5.0);
        assert!((p - p2).abs() < 1e-12);
    }

    #[test]
    fn default_mean_matches_closed_form() {
        let d = Exponential::new(0.25).unwrap();
        // E[T] for rate 0.25 is 4.0; default integration truncates at upper_bound so allow slack
        let m = d.partial_expectation(0.0, d.upper_bound());
        assert!((m - 4.0).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn default_sampling_within_support() {
        let d = UniformLifetime::new(24.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!((0.0..=24.0).contains(&s));
        }
    }

    #[test]
    fn validate_cdf_accepts_good_distributions() {
        let dists: Vec<Box<dyn LifetimeDistribution>> = vec![
            Box::new(Exponential::new(0.3).unwrap()),
            Box::new(UniformLifetime::new(24.0).unwrap()),
            Box::new(Weibull::new(0.1, 1.5).unwrap()),
        ];
        for d in &dists {
            validate_cdf(d.as_ref(), 200).unwrap();
        }
    }
}
