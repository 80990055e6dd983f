//! Inverse-transform sampling helpers.
//!
//! Fitted preemption models only expose a CDF; to drive Monte-Carlo simulation we need to
//! draw lifetimes from them.  This module inverts arbitrary monotone CDFs numerically
//! (Brent's method on `F(t) − u`), with an optional tabulated fast path for hot loops.

use crate::interp::{linspace, LinearInterp};
use crate::roots::{brent, RootConfig};
use crate::{NumericsError, Result};
use rand::Rng;

/// Inverts a monotone CDF at probability `u` over the support `[lo, hi]`.
///
/// `cdf` must be non-decreasing; values of `u` outside the attainable range
/// `[cdf(lo), cdf(hi)]` are clamped to the support endpoints, which is the behaviour
/// wanted for truncated lifetime distributions (every VM dies by the deadline).
pub fn invert_cdf<F>(cdf: &F, lo: f64, hi: f64, u: f64) -> Result<f64>
where
    F: Fn(f64) -> f64,
{
    if !(hi > lo) {
        return Err(NumericsError::invalid("invert_cdf requires hi > lo"));
    }
    if !u.is_finite() {
        return Err(NumericsError::non_finite("probability"));
    }
    let u = u.clamp(0.0, 1.0);
    let flo = cdf(lo);
    let fhi = cdf(hi);
    if u <= flo {
        return Ok(lo);
    }
    if u >= fhi {
        return Ok(hi);
    }
    let g = |t: f64| cdf(t) - u;
    brent(
        g,
        lo,
        hi,
        RootConfig {
            x_tol: 1e-10,
            f_tol: 1e-12,
            max_iter: 200,
        },
    )
}

/// A tabulated inverse-CDF sampler: pre-computes the CDF on a grid once and then samples in
/// O(log n) per draw.  Accuracy is bounded by the grid resolution, which is ample for the
/// simulation experiments (lifetimes resolved to well under a second on a 24-hour horizon
/// with the default 4096 points).
#[derive(Debug, Clone)]
pub struct TabulatedSampler {
    inverse: LinearInterp,
    support: (f64, f64),
}

impl TabulatedSampler {
    /// Builds a sampler for a CDF supported on `[lo, hi]` using `points` tabulation points.
    pub fn new<F: Fn(f64) -> f64>(cdf: F, lo: f64, hi: f64, points: usize) -> Result<Self> {
        if points < 8 {
            return Err(NumericsError::invalid(
                "TabulatedSampler requires at least 8 points",
            ));
        }
        if !(hi > lo) {
            return Err(NumericsError::invalid("TabulatedSampler requires hi > lo"));
        }
        let xs = linspace(lo, hi, points);
        let mut us: Vec<f64> = xs.iter().map(|&x| cdf(x)).collect();
        // Normalise so the table spans [0, 1]; enforce monotonicity against tiny numerical
        // wobbles so that the (u -> x) interpolant is well-defined.
        let f_lo = us[0];
        let f_hi = *us.last().unwrap();
        if !(f_hi > f_lo) {
            return Err(NumericsError::invalid(
                "CDF is flat on the requested support",
            ));
        }
        for u in us.iter_mut() {
            *u = (*u - f_lo) / (f_hi - f_lo);
        }
        for i in 1..us.len() {
            if us[i] < us[i - 1] {
                us[i] = us[i - 1];
            }
        }
        // Build the inverse map u -> x.  Duplicate u values (flat CDF regions) are nudged by
        // a tiny epsilon to keep knots strictly increasing.
        let mut u_knots = Vec::with_capacity(points);
        let mut x_knots = Vec::with_capacity(points);
        let mut prev = f64::NEG_INFINITY;
        for (u, x) in us.iter().zip(&xs) {
            let mut u = *u;
            if u <= prev {
                u = prev + 1e-12;
            }
            prev = u;
            u_knots.push(u);
            x_knots.push(*x);
        }
        let inverse = LinearInterp::new(u_knots, x_knots)?;
        Ok(TabulatedSampler {
            inverse,
            support: (lo, hi),
        })
    }

    /// Maps a probability `u ∈ [0, 1]` to the corresponding quantile.
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        self.inverse.eval(u).clamp(self.support.0, self.support.1)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen::<f64>())
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::stats::Ecdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exp_cdf(lambda: f64) -> impl Fn(f64) -> f64 {
        move |t: f64| 1.0 - (-lambda * t).exp()
    }

    #[test]
    fn invert_cdf_round_trip() {
        let cdf = exp_cdf(0.5);
        for &u in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            let t = invert_cdf(&cdf, 0.0, 100.0, u).unwrap();
            assert!(approx_eq(cdf(t), u, 1e-8, 1e-8));
        }
    }

    #[test]
    fn invert_cdf_clamps_extremes() {
        let cdf = exp_cdf(1.0);
        assert_eq!(invert_cdf(&cdf, 0.0, 10.0, 0.0).unwrap(), 0.0);
        assert_eq!(invert_cdf(&cdf, 0.0, 10.0, 1.0).unwrap(), 10.0);
    }

    #[test]
    fn invert_cdf_validates() {
        let cdf = exp_cdf(1.0);
        assert!(invert_cdf(&cdf, 1.0, 1.0, 0.5).is_err());
        assert!(invert_cdf(&cdf, 0.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn sample_inverse_cdf_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(7);
        let cdf = exp_cdf(1.0);
        let samples: Vec<f64> = (0..2000)
            .map(|_| invert_cdf(&cdf, 0.0, 50.0, rng.gen()).unwrap())
            .collect();
        let ecdf = Ecdf::new(&samples).unwrap();
        let d = ecdf.ks_statistic(&cdf);
        assert!(d < 0.05, "KS statistic too large: {d}");
    }

    #[test]
    fn tabulated_sampler_quantiles() {
        let cdf = exp_cdf(2.0);
        let sampler = TabulatedSampler::new(&cdf, 0.0, 20.0, 2048).unwrap();
        for &u in &[0.1f64, 0.25, 0.5, 0.75, 0.9] {
            let exact = -(1.0 - u).ln() / 2.0;
            assert!(approx_eq(sampler.quantile(u), exact, 1e-3, 1e-2));
        }
        assert_eq!(sampler.support, (0.0, 20.0));
    }

    #[test]
    fn tabulated_sampler_agrees_with_exact_inversion() {
        let cdf = exp_cdf(0.7);
        let sampler = TabulatedSampler::new(&cdf, 0.0, 30.0, 4096).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let samples = sampler.sample_n(&mut rng, 3000);
        let ecdf = Ecdf::new(&samples).unwrap();
        // compare against the truncated analytic CDF on [0, 30]
        let norm = cdf(30.0);
        let d = ecdf.ks_statistic(|t| cdf(t) / norm);
        assert!(d < 0.05, "KS statistic too large: {d}");
    }

    #[test]
    fn tabulated_sampler_validation() {
        let cdf = exp_cdf(1.0);
        assert!(TabulatedSampler::new(&cdf, 0.0, 10.0, 4).is_err());
        assert!(TabulatedSampler::new(&cdf, 10.0, 0.0, 64).is_err());
        assert!(TabulatedSampler::new(|_| 0.3, 0.0, 1.0, 64).is_err());
    }

    #[test]
    fn tabulated_sampler_handles_flat_regions() {
        // CDF flat in the middle (no mass between 1 and 2)
        let cdf = |t: f64| {
            if t < 1.0 {
                0.5 * t
            } else if t < 2.0 {
                0.5
            } else {
                (0.5 + 0.5 * (t - 2.0)).min(1.0)
            }
        };
        let sampler = TabulatedSampler::new(cdf, 0.0, 3.0, 512).unwrap();
        let q_low = sampler.quantile(0.25);
        let q_high = sampler.quantile(0.75);
        assert!(q_low < 1.0 + 1e-6);
        assert!(q_high > 2.0 - 1e-2);
    }
}
