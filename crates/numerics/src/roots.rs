//! Scalar root finding.
//!
//! Root finding is used for inverse-transform sampling from fitted CDFs (find `t` such that
//! `F(t) = u`), for locating the job-length crossover point between the bathtub and uniform
//! preemption regimes (Figure 4b), and for the reuse-threshold age `s*` of the scheduling
//! policy.

use crate::{NumericsError, Result};

/// Configuration for the bracketing root finders.
#[derive(Debug, Clone, Copy)]
pub struct RootConfig {
    /// Absolute tolerance on the root location.
    pub x_tol: f64,
    /// Absolute tolerance on the function value.
    pub f_tol: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
}

impl Default for RootConfig {
    fn default() -> Self {
        RootConfig {
            x_tol: 1e-12,
            f_tol: 1e-12,
            max_iter: 200,
        }
    }
}

/// Finds a root of `f` on `[a, b]` by bisection.  Requires a sign change on the interval.
// lint:allow(dead-api) reference root finder for roots::tests::brent_matches_bisect
pub fn bisect<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, cfg: RootConfig) -> Result<f64> {
    let (mut lo, mut hi) = (a.min(b), a.max(b));
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo * fhi > 0.0 {
        return Err(NumericsError::RootNotBracketed {
            a: lo,
            b: hi,
            fa: flo,
            fb: fhi,
        });
    }
    for _ in 0..cfg.max_iter {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid.abs() <= cfg.f_tol || (hi - lo) <= cfg.x_tol {
            return Ok(mid);
        }
        if flo * fmid < 0.0 {
            hi = mid;
        } else {
            lo = mid;
            flo = fmid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Brent's method: inverse-quadratic interpolation with a bisection fallback.
///
/// This mirrors the classic Brent–Dekker algorithm and converges superlinearly for the
/// smooth CDFs used throughout the workspace.
pub fn brent<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, cfg: RootConfig) -> Result<f64> {
    let mut a = a;
    let mut b = b;
    let mut fa = f(a);
    let mut fb = f(b);

    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(NumericsError::RootNotBracketed { a, b, fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }

    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..cfg.max_iter {
        if fb.abs() <= cfg.f_tol || (b - a).abs() <= cfg.x_tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // inverse quadratic interpolation
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // secant
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let hi = b;
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let cond1 = s < lo || s > hi;
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < cfg.x_tol;
        let cond5 = !mflag && (c - d).abs() < cfg.x_tol;

        if cond1 || cond2 || cond3 || cond4 || cond5 {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }

        let fs = f(s);
        d = c;
        c = b;
        fc = fb;

        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, RootConfig::default()).unwrap();
        assert!(approx_eq(r, std::f64::consts::SQRT_2, 1e-9, 0.0));
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, RootConfig::default()).unwrap(), 0.0);
        assert_eq!(
            bisect(|x| x - 1.0, 0.0, 1.0, RootConfig::default()).unwrap(),
            1.0
        );
    }

    #[test]
    fn bisect_requires_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, RootConfig::default()),
            Err(NumericsError::RootNotBracketed { .. })
        ));
    }

    #[test]
    fn brent_finds_cos_root() {
        let r = brent(|x| x.cos(), 0.0, 3.0, RootConfig::default()).unwrap();
        assert!(approx_eq(r, std::f64::consts::FRAC_PI_2, 1e-10, 0.0));
    }

    #[test]
    fn brent_cdf_style_inversion() {
        // invert a steep CDF-like function: F(t) = 1 - exp(-(t/0.8)) shifted near 24
        let target = 0.5;
        let f = |t: f64| 1.0 - (-(t / 3.0)).exp() - target;
        let r = brent(f, 0.0, 24.0, RootConfig::default()).unwrap();
        assert!(approx_eq(1.0 - (-(r / 3.0)).exp(), target, 1e-10, 0.0));
    }

    #[test]
    fn brent_requires_bracket() {
        assert!(brent(|x| x * x + 1.0, -1.0, 1.0, RootConfig::default()).is_err());
    }

    #[test]
    fn brent_matches_bisect() {
        let f = |x: f64| x.exp() - 3.0;
        let cfg = RootConfig::default();
        let r1 = brent(f, 0.0, 2.0, cfg).unwrap();
        let r2 = bisect(f, 0.0, 2.0, cfg).unwrap();
        assert!(approx_eq(r1, r2, 1e-8, 0.0));
        assert!(approx_eq(r1, 3.0f64.ln(), 1e-10, 0.0));
    }
}
