//! Numerical quadrature.
//!
//! The constrained-preemption analysis needs many integrals of the form
//! `∫ t f(t) dt` (expected wasted work, expected lost work per checkpoint interval) over
//! sub-intervals of the 24-hour horizon.  [`adaptive_simpson`] is the one integrator: it
//! handles the smooth-but-steep integrands that arise near the deadline.

use crate::{NumericsError, Result};

/// Adaptive Simpson quadrature with an absolute error tolerance.
///
/// This is the work-horse integrator for all expectation integrals in the workspace.  The
/// recursion depth is capped at `max_depth`; when the cap is reached the best local estimate
/// is used rather than failing, because the integrands we care about (bathtub PDFs) are
/// bounded on the closed interval.
pub fn adaptive_simpson<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    tol: f64,
    max_depth: usize,
) -> Result<f64> {
    if !a.is_finite() || !b.is_finite() {
        return Err(NumericsError::non_finite("adaptive_simpson bounds"));
    }
    if tol <= 0.0 {
        return Err(NumericsError::invalid("tolerance must be positive"));
    }
    if a == b {
        return Ok(0.0);
    }
    if b < a {
        return Ok(-adaptive_simpson(f, b, a, tol, max_depth)?);
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson_segment(a, b, fa, fm, fb);
    let value = adaptive_inner(f, a, b, fa, fm, fb, whole, tol, max_depth);
    if value.is_finite() {
        Ok(value)
    } else {
        Err(NumericsError::non_finite("adaptive_simpson result"))
    }
}

fn simpson_segment(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn adaptive_inner<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: usize,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson_segment(a, m, fa, flm, fm);
    let right = simpson_segment(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        adaptive_inner(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + adaptive_inner(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn adaptive_simpson_exponential() {
        // ∫0^1 e^x dx = e - 1
        let v = adaptive_simpson(&|x: f64| x.exp(), 0.0, 1.0, 1e-12, 40).unwrap();
        assert!(approx_eq(v, std::f64::consts::E - 1.0, 1e-10, 0.0));
    }

    #[test]
    fn adaptive_simpson_reversed_bounds() {
        let forward = adaptive_simpson(&|x: f64| x.sin(), 0.0, 2.0, 1e-10, 40).unwrap();
        let backward = adaptive_simpson(&|x: f64| x.sin(), 2.0, 0.0, 1e-10, 40).unwrap();
        assert!(approx_eq(forward, -backward, 1e-12, 0.0));
    }

    #[test]
    fn adaptive_simpson_sharp_peak() {
        // Steep exponential boundary layer similar to the near-deadline preemption spike.
        let f = |x: f64| ((x - 24.0) / 0.8).exp() / 0.8;
        let v = adaptive_simpson(&f, 0.0, 24.0, 1e-10, 50).unwrap();
        // analytic: 1 - e^{-30}
        assert!(approx_eq(v, 1.0 - (-30.0f64).exp(), 1e-8, 1e-8));
    }

    #[test]
    fn adaptive_simpson_zero_width() {
        assert_eq!(
            adaptive_simpson(&|x: f64| x, 1.0, 1.0, 1e-8, 10).unwrap(),
            0.0
        );
    }

    #[test]
    fn adaptive_rejects_bad_tolerance() {
        assert!(adaptive_simpson(&|x: f64| x, 0.0, 1.0, 0.0, 10).is_err());
    }
}
