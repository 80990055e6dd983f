//! Numerical substrate for the constrained-preemption model.
//!
//! The paper relies on scipy's `optimize.curve_fit` (dogbox trust region), numerical
//! integration, and simple statistics.  The Rust ecosystem for bounded nonlinear least
//! squares is thin, so this crate implements the required numerics from scratch:
//!
//! * [`optimize`] — bounded Levenberg–Marquardt ("dogbox"-style projection onto box
//!   constraints) and Nelder–Mead simplex for curve fitting.
//! * [`integrate`] — adaptive Simpson and Gauss–Legendre quadrature.
//! * [`roots`] — Brent's method and bisection.
//! * [`stats`] — empirical CDFs, goodness of fit (R², RMSE, Kolmogorov–Smirnov),
//!   histograms and summary statistics.
//! * [`interp`] — piecewise-linear and monotone interpolation.
//! * [`linalg`] — the small dense-matrix kernels needed by the optimizers.
//! * [`sampling`] — inverse-transform sampling from arbitrary CDFs.
//!
//! Everything operates on `f64` and is deterministic given a seeded RNG.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod error;
pub mod integrate;
pub mod interp;
pub mod linalg;
pub mod optimize;
pub mod roots;
pub mod sampling;
pub mod stats;

pub use error::NumericsError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;

/// Returns `true` when two floats agree to within `abs_tol` or `rel_tol` (whichever is looser).
#[inline]
// lint:allow(dead-api) float comparison fixture for the tcp-numerics tests
pub fn approx_eq(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= abs_tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= rel_tol * scale
}

/// Clamps `x` into the inclusive interval `[lo, hi]`.
///
/// Unlike `f64::clamp` this tolerates `lo > hi` by returning the midpoint, which is the
/// behaviour we want when box constraints collapse during fitting.
#[inline]
pub fn clamp_interval(x: f64, lo: f64, hi: f64) -> f64 {
    if lo > hi {
        return 0.5 * (lo + hi);
    }
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(1.0, 1.1, 1e-9, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 0.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 0.0, 1e-9));
    }

    #[test]
    fn clamp_interval_basic() {
        assert_eq!(clamp_interval(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp_interval(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp_interval(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn clamp_interval_degenerate() {
        // lo > hi collapses to the midpoint rather than panicking.
        assert_eq!(clamp_interval(3.0, 2.0, 1.0), 1.5);
    }
}
