//! Numerical quadrature.
//!
//! The constrained-preemption analysis needs many integrals of the form
//! `∫ t f(t) dt` (expected wasted work, expected lost work per checkpoint interval) over
//! sub-intervals of the 24-hour horizon.  Adaptive Simpson handles the smooth-but-steep
//! integrands that arise near the deadline, and fixed-order Gauss–Legendre is used where a
//! cheap, non-adaptive rule is preferred (inner loops of the dynamic program).

use crate::{NumericsError, Result};

/// Integration of `f` over `[a, b]` with the composite trapezoid rule using `n` panels.
// lint:allow(dead-api) no caller outside integrate::tests (trapezoid_*); delete with them
pub fn trapezoid<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> Result<f64> {
    if n == 0 {
        return Err(NumericsError::invalid(
            "trapezoid requires at least 1 panel",
        ));
    }
    if !a.is_finite() || !b.is_finite() {
        return Err(NumericsError::non_finite("trapezoid bounds"));
    }
    if a == b {
        return Ok(0.0);
    }
    let h = (b - a) / n as f64;
    let mut acc = 0.5 * (f(a) + f(b));
    for i in 1..n {
        acc += f(a + i as f64 * h);
    }
    Ok(acc * h)
}

/// Composite Simpson rule with `n` panels (`n` is rounded up to an even number).
// lint:allow(dead-api) no caller outside integrate::tests (simpson_*); delete with them
pub fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> Result<f64> {
    if n == 0 {
        return Err(NumericsError::invalid("simpson requires at least 1 panel"));
    }
    if !a.is_finite() || !b.is_finite() {
        return Err(NumericsError::non_finite("simpson bounds"));
    }
    if a == b {
        return Ok(0.0);
    }
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut acc = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        acc += if i % 2 == 1 { 4.0 * f(x) } else { 2.0 * f(x) };
    }
    Ok(acc * h / 3.0)
}

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

/// Nodes and weights for Gauss–Legendre quadrature on `[-1, 1]`.
///
/// Supported orders: 2–8, 16, 32.  Higher orders fall back to 32.
fn gauss_legendre_nodes(order: usize) -> (&'static [f64], &'static [f64]) {
    // Node/weight tables for the standard interval [-1, 1].
    const N2: [f64; 2] = [-0.5773502691896257, 0.5773502691896257];
    const W2: [f64; 2] = [1.0, 1.0];
    const N3: [f64; 3] = [-0.7745966692414834, 0.0, 0.7745966692414834];
    const W3: [f64; 3] = [0.5555555555555556, 0.8888888888888888, 0.5555555555555556];
    const N4: [f64; 4] = [
        -0.8611363115940526,
        -0.3399810435848563,
        0.3399810435848563,
        0.8611363115940526,
    ];
    const W4: [f64; 4] = [
        0.3478548451374538,
        0.6521451548625461,
        0.6521451548625461,
        0.3478548451374538,
    ];
    const N5: [f64; 5] = [
        -0.906_179_845_938_664,
        -0.5384693101056831,
        0.0,
        0.5384693101056831,
        0.906_179_845_938_664,
    ];
    const W5: [f64; 5] = [
        0.2369268850561891,
        0.4786286704993665,
        0.5688888888888889,
        0.4786286704993665,
        0.2369268850561891,
    ];
    const N8: [f64; 8] = [
        -0.9602898564975363,
        -0.7966664774136267,
        -0.525_532_409_916_329,
        -0.1834346424956498,
        0.1834346424956498,
        0.525_532_409_916_329,
        0.7966664774136267,
        0.9602898564975363,
    ];
    const W8: [f64; 8] = [
        0.1012285362903763,
        0.2223810344533745,
        0.3137066458778873,
        0.362_683_783_378_362,
        0.362_683_783_378_362,
        0.3137066458778873,
        0.2223810344533745,
        0.1012285362903763,
    ];
    const N16: [f64; 16] = [
        -0.9894009349916499,
        -0.9445750230732326,
        -0.8656312023878318,
        -0.755_404_408_355_003,
        -0.6178762444026438,
        -0.4580167776572274,
        -0.2816035507792589,
        -0.0950125098376374,
        0.0950125098376374,
        0.2816035507792589,
        0.4580167776572274,
        0.6178762444026438,
        0.755_404_408_355_003,
        0.8656312023878318,
        0.9445750230732326,
        0.9894009349916499,
    ];
    const W16: [f64; 16] = [
        0.0271524594117541,
        0.0622535239386479,
        0.0951585116824928,
        0.1246289712555339,
        0.1495959888165767,
        0.1691565193950025,
        0.1826034150449236,
        0.1894506104550685,
        0.1894506104550685,
        0.1826034150449236,
        0.1691565193950025,
        0.1495959888165767,
        0.1246289712555339,
        0.0951585116824928,
        0.0622535239386479,
        0.0271524594117541,
    ];
    match order {
        0..=2 => (&N2, &W2),
        3 => (&N3, &W3),
        4 => (&N4, &W4),
        5 => (&N5, &W5),
        6..=8 => (&N8, &W8),
        _ => (&N16, &W16),
    }
}

/// Gauss–Legendre quadrature of `f` over `[a, b]` with the given order (2–16).
// lint:allow(dead-api) no caller outside integrate::tests (gauss_legendre_*); delete with them
pub fn gauss_legendre<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, order: usize) -> Result<f64> {
    if !a.is_finite() || !b.is_finite() {
        return Err(NumericsError::non_finite("gauss_legendre bounds"));
    }
    if a == b {
        return Ok(0.0);
    }
    let (nodes, weights) = gauss_legendre_nodes(order);
    let half = 0.5 * (b - a);
    let mid = 0.5 * (a + b);
    let mut acc = 0.0;
    for (x, w) in nodes.iter().zip(weights) {
        acc += w * f(mid + half * x);
    }
    Ok(acc * half)
}

/// Cumulative integral of `f` evaluated on a uniform grid: returns `(grid, F)` where
/// `F[i] = ∫_a^{grid[i]} f`.  Uses the composite trapezoid rule between grid points, which
/// keeps the result exactly consistent with the grid used elsewhere (e.g. for DP tables).
// lint:allow(dead-api) no caller outside integrate::tests (cumulative_integral_*); delete with them
pub fn cumulative_integral<F: Fn(f64) -> f64>(
    f: F,
    a: f64,
    b: f64,
    points: usize,
) -> Result<(Vec<f64>, Vec<f64>)> {
    if points < 2 {
        return Err(NumericsError::invalid(
            "cumulative_integral requires at least 2 points",
        ));
    }
    if b <= a {
        return Err(NumericsError::invalid("cumulative_integral requires b > a"));
    }
    let h = (b - a) / (points - 1) as f64;
    let mut grid = Vec::with_capacity(points);
    let mut values = Vec::with_capacity(points);
    let mut acc = 0.0;
    let mut prev = f(a);
    grid.push(a);
    values.push(0.0);
    for i in 1..points {
        let x = a + i as f64 * h;
        let cur = f(x);
        acc += 0.5 * (prev + cur) * h;
        grid.push(x);
        values.push(acc);
        prev = cur;
    }
    Ok((grid, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn trapezoid_linear_exact() {
        // ∫0^1 (2x + 1) dx = 2
        let v = trapezoid(|x| 2.0 * x + 1.0, 0.0, 1.0, 4).unwrap();
        assert!(approx_eq(v, 2.0, 1e-12, 0.0));
    }

    #[test]
    fn simpson_cubic_exact() {
        // Simpson is exact for cubics: ∫0^2 x^3 dx = 4
        let v = simpson(|x| x.powi(3), 0.0, 2.0, 2).unwrap();
        assert!(approx_eq(v, 4.0, 1e-12, 0.0));
    }

    #[test]
    fn simpson_odd_panels_rounded_up() {
        let v = simpson(|x| x.powi(3), 0.0, 2.0, 3).unwrap();
        assert!(approx_eq(v, 4.0, 1e-12, 0.0));
    }

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

    #[test]
    fn gauss_legendre_polynomial_exactness() {
        // order-n GL is exact for polynomials of degree 2n-1
        let v = gauss_legendre(|x| x.powi(5) + x.powi(2), -1.0, 1.0, 4).unwrap();
        assert!(approx_eq(v, 2.0 / 3.0, 1e-12, 0.0));
        let v8 = gauss_legendre(|x| x.powi(7), 0.0, 1.0, 8).unwrap();
        assert!(approx_eq(v8, 0.125, 1e-12, 0.0));
    }

    #[test]
    fn gauss_legendre_matches_adaptive_on_smooth() {
        let f = |x: f64| (-x / 1.5).exp();
        let gl = gauss_legendre(f, 0.0, 10.0, 16).unwrap();
        let asimp = adaptive_simpson(&f, 0.0, 10.0, 1e-12, 40).unwrap();
        assert!(approx_eq(gl, asimp, 1e-9, 1e-9));
    }

    #[test]
    fn cumulative_integral_monotone_for_positive_integrand() {
        let (grid, cum) = cumulative_integral(|x| x.exp(), 0.0, 2.0, 64).unwrap();
        assert_eq!(grid.len(), cum.len());
        for w in cum.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(approx_eq(
            *cum.last().unwrap(),
            2.0f64.exp() - 1.0,
            1e-2,
            1e-2
        ));
    }

    #[test]
    fn cumulative_integral_argument_validation() {
        assert!(cumulative_integral(|x| x, 0.0, 1.0, 1).is_err());
        assert!(cumulative_integral(|x| x, 1.0, 0.0, 16).is_err());
    }

    #[test]
    fn trapezoid_and_simpson_validate_args() {
        assert!(trapezoid(|x| x, 0.0, 1.0, 0).is_err());
        assert!(simpson(|x| x, 0.0, 1.0, 0).is_err());
        assert!(trapezoid(|x| x, f64::NAN, 1.0, 4).is_err());
    }
}
