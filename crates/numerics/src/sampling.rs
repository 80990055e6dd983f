//! Inverse-transform sampling helpers.
//!
//! Fitted preemption models only expose a CDF; to drive Monte-Carlo simulation we need to
//! draw lifetimes from them.  This module inverts arbitrary monotone CDFs numerically
//! (Brent's method on `F(t) − u`).

use crate::roots::{brent, RootConfig};
use crate::{NumericsError, Result};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::stats::Ecdf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
}
