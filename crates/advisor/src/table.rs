//! Dense interpolation tables backing the query engine.
//!
//! One-dimensional curves (survival vs age) are served by
//! [`tcp_numerics::interp::LinearInterp`]; this module adds [`Table2D`], a bilinear
//! interpolant over an `age × job-length` grid with the same clamping semantics.
//! Bilinear interpolation is *monotone-safe*: it never overshoots the grid values, so a
//! table built from a function that is monotone along an axis stays monotone along that
//! axis — the property the advisor's correctness tests rely on.

use crate::error::{AdvisorError, Result};

/// A bilinear interpolant over a rectangular grid.
///
/// Values are stored row-major: `values[i * ys.len() + j]` is the sample at
/// `(xs[i], ys[j])`.  Evaluation clamps to the grid boundary, mirroring
/// [`LinearInterp::eval`](tcp_numerics::interp::LinearInterp::eval).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2D {
    xs: Vec<f64>,
    ys: Vec<f64>,
    values: Vec<f64>,
}

/// Locates `x` within the knot vector: returns the left index `i` and the interpolation
/// weight `w ∈ [0, 1]` toward knot `i + 1`, clamped at the ends.
fn bracket(knots: &[f64], x: f64) -> (usize, f64) {
    let n = knots.len();
    // lint:allow(panic-policy) private helper: Table2D::new guarantees ≥2 finite, strictly increasing knots
    if x <= knots[0] {
        return (0, 0.0);
    }
    if x >= knots[n - 1] {
        return (n - 2, 1.0);
    }
    let idx = match knots.binary_search_by(|v| v.total_cmp(&x)) {
        Ok(i) => return (i.min(n - 2), if i == n - 1 { 1.0 } else { 0.0 }),
        Err(i) => i,
    };
    let (x0, x1) = (knots[idx - 1], knots[idx]);
    (idx - 1, (x - x0) / (x1 - x0))
}

impl Table2D {
    /// Builds a table from strictly increasing knot vectors and a row-major value grid.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        if xs.len() < 2 || ys.len() < 2 {
            return Err(AdvisorError::Pack(
                "Table2D needs at least two knots per axis".to_string(),
            ));
        }
        if values.len() != xs.len() * ys.len() {
            return Err(AdvisorError::Pack(format!(
                "Table2D value grid has {} entries, expected {} x {}",
                values.len(),
                xs.len(),
                ys.len()
            )));
        }
        for knots in [&xs, &ys] {
            for w in knots.windows(2) {
                if let [a, b] = w {
                    if !(b > a) {
                        return Err(AdvisorError::Pack(
                            "Table2D knots must be strictly increasing".to_string(),
                        ));
                    }
                }
            }
        }
        if xs
            .iter()
            .chain(ys.iter())
            .chain(values.iter())
            .any(|v| !v.is_finite())
        {
            return Err(AdvisorError::Pack(
                "Table2D knots and values must be finite".to_string(),
            ));
        }
        Ok(Table2D { xs, ys, values })
    }

    /// Second-axis knots.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The sample stored at grid point `(i, j)`.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.ys.len() + j]
    }

    /// Evaluates the table at `(x, y)` with bilinear interpolation, clamping outside the
    /// grid.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let (i, wx) = bracket(&self.xs, x);
        let (j, wy) = bracket(&self.ys, y);
        let v00 = self.at(i, j);
        let v01 = self.at(i, j + 1);
        let v10 = self.at(i + 1, j);
        let v11 = self.at(i + 1, j + 1);
        let lo = v00 + wy * (v01 - v00);
        let hi = v10 + wy * (v11 - v10);
        lo + wx * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_numerics::interp::linspace;

    fn plane() -> Table2D {
        // f(x, y) = 2x + 3y sampled on [0,4] x [0,2]; bilinear interp is exact on planes.
        let (xs, ys) = (linspace(0.0, 4.0, 5), linspace(0.0, 2.0, 5));
        let values = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| 2.0 * x + 3.0 * y))
            .collect();
        Table2D::new(xs, ys, values).unwrap()
    }

    #[test]
    fn exact_on_planes() {
        let t = plane();
        for &(x, y) in &[(0.0, 0.0), (1.3, 0.7), (3.99, 1.01), (4.0, 2.0)] {
            assert!(
                (t.eval(x, y) - (2.0 * x + 3.0 * y)).abs() < 1e-12,
                "({x}, {y})"
            );
        }
    }

    #[test]
    fn clamps_outside_the_grid() {
        let t = plane();
        assert_eq!(t.eval(-5.0, -5.0), 0.0);
        assert_eq!(t.eval(100.0, 100.0), 2.0 * 4.0 + 3.0 * 2.0);
        assert_eq!(t.eval(-1.0, 1.0), 3.0);
    }

    #[test]
    fn eval_hits_grid_points_exactly() {
        let t = plane();
        for (i, &x) in t.xs.iter().enumerate() {
            for (j, &y) in t.ys().iter().enumerate() {
                assert_eq!(t.eval(x, y), t.at(i, j));
            }
        }
    }

    #[test]
    fn never_overshoots_grid_values() {
        // Monotone-safety: interpolated values stay within the cell's corner range.
        let (xs, ys) = (linspace(0.0, 1.0, 4), linspace(0.0, 1.0, 4));
        let values = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| (8.0 * x).sin() + (5.0 * y).cos()))
            .collect();
        let t = Table2D::new(xs, ys, values).unwrap();
        let (lo, hi) = t
            .values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        for i in 0..=20 {
            for j in 0..=20 {
                let v = t.eval(i as f64 / 20.0, j as f64 / 20.0);
                assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            }
        }
    }

    #[test]
    fn construction_validation() {
        assert!(Table2D::new(vec![0.0], vec![0.0, 1.0], vec![0.0, 1.0]).is_err());
        assert!(Table2D::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(Table2D::new(vec![0.0, 0.0], vec![0.0, 1.0], vec![0.0; 4]).is_err());
        assert!(Table2D::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![0.0, 1.0, 2.0, f64::NAN]
        )
        .is_err());
    }
}
