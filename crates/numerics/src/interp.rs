//! Piecewise-linear interpolation over tabulated functions.
//!
//! Interpolators are used to evaluate empirical CDFs at arbitrary points, to invert
//! tabulated CDFs during sampling, and to look up precomputed DP value tables inside the
//! checkpointing policy without re-running the dynamic program.

use crate::{NumericsError, Result};

/// A piecewise-linear interpolant over strictly increasing knots.
#[derive(Debug, Clone)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Builds an interpolant from knot positions `xs` (strictly increasing) and values `ys`.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self> {
        if xs.len() != ys.len() {
            return Err(NumericsError::invalid("xs and ys must have equal length"));
        }
        if xs.len() < 2 {
            return Err(NumericsError::invalid("need at least two knots"));
        }
        for w in xs.windows(2) {
            if !(w[1] > w[0]) {
                return Err(NumericsError::invalid("knots must be strictly increasing"));
            }
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(NumericsError::non_finite("interpolation knots"));
        }
        Ok(LinearInterp { xs, ys })
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns true when the interpolant has no knots (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Evaluates the interpolant at `x`, clamping to the end values outside the domain.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let idx = match self.xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => return self.ys[i],
            Err(i) => i,
        };
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        let w = (x - x0) / (x1 - x0);
        y0 + w * (y1 - y0)
    }

    /// Inverts a monotone non-decreasing interpolant: finds `x` with `eval(x) = y`.
    ///
    /// Values outside the range are clamped to the domain endpoints.  Returns an error if the
    /// tabulated values are not monotone non-decreasing.
    pub fn inverse(&self, y: f64) -> Result<f64> {
        for w in self.ys.windows(2) {
            if w[1] < w[0] - 1e-12 {
                return Err(NumericsError::invalid(
                    "inverse interpolation requires non-decreasing values",
                ));
            }
        }
        let n = self.ys.len();
        if y <= self.ys[0] {
            return Ok(self.xs[0]);
        }
        if y >= self.ys[n - 1] {
            return Ok(self.xs[n - 1]);
        }
        // binary search for the containing segment
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.ys[mid] <= y {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (y0, y1) = (self.ys[lo], self.ys[hi]);
        let (x0, x1) = (self.xs[lo], self.xs[hi]);
        if (y1 - y0).abs() < 1e-300 {
            return Ok(x0);
        }
        Ok(x0 + (y - y0) / (y1 - y0) * (x1 - x0))
    }
}

/// Builds a uniform grid of `points` values covering `[a, b]` inclusive.
pub fn linspace(a: f64, b: f64, points: usize) -> Vec<f64> {
    if points == 0 {
        return Vec::new();
    }
    if points == 1 {
        return vec![a];
    }
    let h = (b - a) / (points - 1) as f64;
    (0..points).map(|i| a + i as f64 * h).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn interp() -> LinearInterp {
        LinearInterp::new(vec![0.0, 1.0, 2.0, 4.0], vec![0.0, 2.0, 3.0, 3.5]).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(LinearInterp::new(vec![0.0], vec![0.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, f64::NAN], vec![0.0, 1.0]).is_err());
    }

    #[test]
    fn eval_at_knots_and_between() {
        let it = interp();
        assert_eq!(it.eval(1.0), 2.0);
        assert!(approx_eq(it.eval(0.5), 1.0, 1e-12, 0.0));
        assert!(approx_eq(it.eval(3.0), 3.25, 1e-12, 0.0));
    }

    #[test]
    fn eval_clamps_outside_domain() {
        let it = interp();
        assert_eq!(it.eval(-10.0), 0.0);
        assert_eq!(it.eval(10.0), 3.5);
    }

    #[test]
    fn inverse_round_trip() {
        let it = interp();
        for &x in &[0.0, 0.3, 1.0, 1.7, 3.9] {
            let y = it.eval(x);
            let back = it.inverse(y).unwrap();
            assert!(approx_eq(it.eval(back), y, 1e-10, 0.0));
        }
    }

    #[test]
    fn inverse_clamps() {
        let it = interp();
        assert_eq!(it.inverse(-1.0).unwrap(), 0.0);
        assert_eq!(it.inverse(100.0).unwrap(), 4.0);
    }

    #[test]
    fn inverse_rejects_decreasing() {
        let it = LinearInterp::new(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 1.0]).unwrap();
        assert!(it.inverse(0.5).is_err());
    }

    #[test]
    fn linspace_endpoints() {
        let g = linspace(0.0, 24.0, 25);
        assert_eq!(g.len(), 25);
        assert_eq!(g[0], 0.0);
        assert!(approx_eq(g[24], 24.0, 1e-12, 0.0));
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(5.0, 9.0, 1), vec![5.0]);
    }

    #[test]
    fn domain_and_accessors() {
        let it = interp();
        assert_eq!(it.len(), 4);
        assert!(!it.is_empty());
        assert_eq!(it.xs.len(), it.ys.len());
    }
}
