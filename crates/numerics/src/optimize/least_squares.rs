//! Bounded nonlinear least squares via damped Gauss–Newton (Levenberg–Marquardt) with
//! projection onto box constraints.
//!
//! This is the fitting engine behind every distribution fit in the workspace.  It follows
//! the classic Levenberg–Marquardt recipe:
//!
//! 1. build a finite-difference Jacobian of the residual vector,
//! 2. solve the damped normal equations `(JᵀJ + λ diag(JᵀJ)) δ = −Jᵀr`,
//! 3. project the trial point onto the box constraints (the "dogbox" flavour used by the
//!    paper clips steps at the feasible region boundary; projection achieves the same
//!    feasibility guarantee for the well-conditioned 2–4 parameter fits we perform),
//! 4. accept/reject the step and adapt the damping parameter λ.

use crate::linalg::{norm2, solve, Matrix};
use crate::{clamp_interval, NumericsError, Result};

/// Box constraints on the parameter vector.
#[derive(Debug, Clone)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Bounds {
    /// Creates bounds from lower/upper vectors.  Each lower bound must not exceed the
    /// corresponding upper bound.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Result<Self> {
        if lower.len() != upper.len() {
            return Err(NumericsError::invalid("bounds must have equal length"));
        }
        for (lo, hi) in lower.iter().zip(&upper) {
            if lo > hi {
                return Err(NumericsError::invalid(format!(
                    "lower bound {lo} exceeds upper bound {hi}"
                )));
            }
        }
        Ok(Bounds { lower, upper })
    }

    /// Unbounded box of dimension `n` (±∞ on every coordinate).
    // lint:allow(dead-api) bounds fixture for the optimize tests and tcp-calibrate fit tests
    pub fn unbounded(n: usize) -> Self {
        Bounds {
            lower: vec![f64::NEG_INFINITY; n],
            upper: vec![f64::INFINITY; n],
        }
    }

    /// Number of parameters the bounds constrain.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Projects a parameter vector onto the box.
    pub fn project(&self, theta: &mut [f64]) {
        for (i, t) in theta.iter_mut().enumerate() {
            *t = clamp_interval(*t, self.lower[i], self.upper[i]);
        }
    }

    /// Returns true when `theta` lies inside the box (inclusive).
    pub fn contains(&self, theta: &[f64]) -> bool {
        theta
            .iter()
            .enumerate()
            .all(|(i, &t)| t >= self.lower[i] && t <= self.upper[i])
    }
}

/// Options controlling the Levenberg–Marquardt iteration.
#[derive(Debug, Clone)]
pub struct LeastSquaresOptions {
    /// Maximum number of outer iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the relative reduction of the residual sum of squares.
    pub rss_tol: f64,
    /// Convergence tolerance on the step norm (relative to the parameter norm).
    pub step_tol: f64,
    /// Convergence tolerance on the gradient infinity-norm.
    pub gradient_tol: f64,
    /// Initial damping parameter λ.
    pub initial_lambda: f64,
    /// Multiplicative factor applied to λ on step rejection (and divided on acceptance).
    pub lambda_factor: f64,
    /// Relative step used by the finite-difference Jacobian.
    pub fd_rel_step: f64,
}

impl Default for LeastSquaresOptions {
    fn default() -> Self {
        LeastSquaresOptions {
            max_iterations: 200,
            rss_tol: 1e-12,
            step_tol: 1e-12,
            gradient_tol: 1e-10,
            initial_lambda: 1e-3,
            lambda_factor: 3.0,
            fd_rel_step: 1e-6,
        }
    }
}

/// Diagnostics returned by [`least_squares`].
#[derive(Debug, Clone)]
pub struct LeastSquaresReport {
    /// Best parameter vector found.
    pub params: Vec<f64>,
    /// Residual sum of squares at `params`.
    pub rss: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether a convergence criterion was met (vs. exhausting the iteration budget).
    pub converged: bool,
    /// Infinity norm of the gradient at the solution.
    pub gradient_norm: f64,
}

fn compute_residuals<F>(residual_fn: &F, theta: &[f64], buf: &mut Vec<f64>) -> Result<f64>
where
    F: Fn(&[f64], &mut Vec<f64>),
{
    residual_fn(theta, buf);
    if buf.is_empty() {
        return Err(NumericsError::invalid(
            "residual function returned no residuals",
        ));
    }
    let mut rss = 0.0;
    for r in buf.iter() {
        if !r.is_finite() {
            return Err(NumericsError::non_finite("residual"));
        }
        rss += r * r;
    }
    Ok(rss)
}

fn finite_difference_jacobian<F>(
    residual_fn: &F,
    theta: &[f64],
    base_residuals: &[f64],
    bounds: &Bounds,
    rel_step: f64,
) -> Result<Matrix>
where
    F: Fn(&[f64], &mut Vec<f64>),
{
    let m = base_residuals.len();
    let n = theta.len();
    let mut jac = Matrix::zeros(m, n);
    let mut perturbed = theta.to_vec();
    let mut buf = Vec::with_capacity(m);

    for j in 0..n {
        let step = rel_step * theta[j].abs().max(1e-4);
        // Forward difference, switching to backward at the upper bound so evaluations stay
        // feasible (important for parameters like A that must stay within [0, 1]).
        let upper = bounds.upper()[j];
        let lower = bounds.lower()[j];
        let (eval_point, sign) = if theta[j] + step <= upper {
            (theta[j] + step, 1.0)
        } else if theta[j] - step >= lower {
            (theta[j] - step, -1.0)
        } else {
            (theta[j] + step, 1.0)
        };
        perturbed[j] = eval_point;
        compute_residuals(residual_fn, &perturbed, &mut buf)?;
        let denom = sign * (eval_point - theta[j]);
        if denom == 0.0 {
            return Err(NumericsError::invalid(
                "finite-difference step collapsed to zero",
            ));
        }
        for i in 0..m {
            jac[(i, j)] = sign * (buf[i] - base_residuals[i]) / denom;
        }
        perturbed[j] = theta[j];
    }
    Ok(jac)
}

/// Minimises `‖r(θ)‖²` subject to box constraints.
///
/// `residual_fn(θ, out)` must fill `out` with the residual vector at `θ`.  The residual
/// count must stay constant across calls.
pub fn least_squares<F>(
    residual_fn: &F,
    initial: &[f64],
    bounds: &Bounds,
    options: &LeastSquaresOptions,
) -> Result<LeastSquaresReport>
where
    F: Fn(&[f64], &mut Vec<f64>),
{
    if initial.is_empty() {
        return Err(NumericsError::invalid(
            "least_squares requires at least one parameter",
        ));
    }
    if bounds.dim() != initial.len() {
        return Err(NumericsError::invalid(
            "bounds dimension does not match parameter count",
        ));
    }

    let mut theta = initial.to_vec();
    bounds.project(&mut theta);

    let mut residuals = Vec::new();
    let mut rss = compute_residuals(residual_fn, &theta, &mut residuals)?;

    let mut lambda = options.initial_lambda;
    let mut converged = false;
    let mut gradient_norm = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..options.max_iterations {
        iterations = iter + 1;
        let jac = finite_difference_jacobian(
            residual_fn,
            &theta,
            &residuals,
            bounds,
            options.fd_rel_step,
        )?;
        let jtj = jac.gram();
        let jtr = jac.gram_rhs(&residuals)?;

        gradient_norm = jtr.iter().fold(0.0f64, |acc, g| acc.max(g.abs()));
        if gradient_norm <= options.gradient_tol {
            converged = true;
            break;
        }

        // Try steps with increasing damping until one reduces the RSS.
        let mut accepted = false;
        for _ in 0..30 {
            let mut damped = jtj.clone();
            // Marquardt scaling: damp relative to the diagonal so badly scaled parameters
            // (τ in hours vs A in [0,1]) are treated uniformly.
            for d in 0..damped.rows() {
                let diag = jtj[(d, d)].max(1e-12);
                damped[(d, d)] = diag + lambda * diag;
            }
            let neg_grad: Vec<f64> = jtr.iter().map(|g| -g).collect();
            let step = match solve(&damped, &neg_grad) {
                Ok(s) => s,
                Err(_) => {
                    lambda *= options.lambda_factor;
                    continue;
                }
            };

            let mut trial: Vec<f64> = theta.iter().zip(&step).map(|(t, s)| t + s).collect();
            bounds.project(&mut trial);

            let mut trial_residuals = Vec::with_capacity(residuals.len());
            let trial_rss = match compute_residuals(residual_fn, &trial, &mut trial_residuals) {
                Ok(v) => v,
                Err(_) => {
                    lambda *= options.lambda_factor;
                    continue;
                }
            };

            if trial_rss < rss {
                // Accept.
                let step_norm = norm2(
                    &trial
                        .iter()
                        .zip(&theta)
                        .map(|(a, b)| a - b)
                        .collect::<Vec<f64>>(),
                );
                let rel_reduction = (rss - trial_rss) / rss.max(1e-300);
                theta = trial;
                residuals = trial_residuals;
                rss = trial_rss;
                lambda = (lambda / options.lambda_factor).max(1e-12);
                accepted = true;

                let theta_norm = norm2(&theta).max(1e-12);
                if rel_reduction < options.rss_tol || step_norm < options.step_tol * theta_norm {
                    converged = true;
                }
                break;
            } else {
                lambda *= options.lambda_factor;
            }
        }

        if converged {
            break;
        }
        if !accepted {
            // Could not find a descent step even with heavy damping: treat as converged to a
            // (possibly constrained) stationary point.
            converged = gradient_norm < 1e-3;
            break;
        }
    }

    Ok(LeastSquaresReport {
        params: theta,
        rss,
        iterations,
        converged,
        gradient_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rosenbrock_residuals(theta: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.push(10.0 * (theta[1] - theta[0] * theta[0]));
        out.push(1.0 - theta[0]);
    }

    #[test]
    fn bounds_construction_and_projection() {
        let b = Bounds::new(vec![0.0, -1.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(b.dim(), 2);
        let mut theta = vec![2.0, -5.0];
        b.project(&mut theta);
        assert_eq!(theta, vec![1.0, -1.0]);
        assert!(b.contains(&[0.5, 0.0]));
        assert!(!b.contains(&[1.5, 0.0]));
        assert!(Bounds::new(vec![1.0], vec![0.0]).is_err());
        assert!(Bounds::new(vec![0.0, 1.0], vec![1.0]).is_err());
    }

    #[test]
    fn solves_rosenbrock_unbounded() {
        let report = least_squares(
            &rosenbrock_residuals,
            &[-1.2, 1.0],
            &Bounds::unbounded(2),
            &LeastSquaresOptions::default(),
        )
        .unwrap();
        assert!((report.params[0] - 1.0).abs() < 1e-5, "{:?}", report.params);
        assert!((report.params[1] - 1.0).abs() < 1e-5);
        assert!(report.rss < 1e-10);
    }

    #[test]
    fn respects_active_bound() {
        // minimum of (x-3)^2 restricted to x <= 1 is at x = 1
        let resid = |theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.push(theta[0] - 3.0);
        };
        let bounds = Bounds::new(vec![-10.0], vec![1.0]).unwrap();
        let report =
            least_squares(&resid, &[0.0], &bounds, &LeastSquaresOptions::default()).unwrap();
        assert!((report.params[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn multi_parameter_exponential_fit() {
        // residuals of y = a * exp(-x / tau) against synthetic data
        let a_true = 0.45;
        let tau_true = 1.2;
        let xs: Vec<f64> = (0..80).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a_true * (-x / tau_true).exp()).collect();
        let resid = move |theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
            for (&x, &y) in xs.iter().zip(&ys) {
                out.push(theta[0] * (-x / theta[1]).exp() - y);
            }
        };
        let bounds = Bounds::new(vec![0.0, 1e-3], vec![1.0, 100.0]).unwrap();
        let report = least_squares(
            &resid,
            &[0.1, 5.0],
            &bounds,
            &LeastSquaresOptions::default(),
        )
        .unwrap();
        assert!((report.params[0] - a_true).abs() < 1e-5);
        assert!((report.params[1] - tau_true).abs() < 1e-4);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let resid = |theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.push(theta[0]);
        };
        let bounds = Bounds::unbounded(2);
        assert!(least_squares(&resid, &[0.0], &bounds, &LeastSquaresOptions::default()).is_err());
        assert!(least_squares(
            &resid,
            &[],
            &Bounds::unbounded(0),
            &LeastSquaresOptions::default()
        )
        .is_err());
    }

    #[test]
    fn rejects_empty_residuals() {
        let resid = |_theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
        };
        assert!(least_squares(
            &resid,
            &[1.0],
            &Bounds::unbounded(1),
            &LeastSquaresOptions::default()
        )
        .is_err());
    }

    #[test]
    fn rejects_non_finite_residuals() {
        let resid = |_theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.push(f64::NAN);
        };
        assert!(least_squares(
            &resid,
            &[1.0],
            &Bounds::unbounded(1),
            &LeastSquaresOptions::default()
        )
        .is_err());
    }

    #[test]
    fn starting_point_outside_bounds_is_projected() {
        let resid = |theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.push(theta[0] - 0.5);
        };
        let bounds = Bounds::new(vec![0.0], vec![1.0]).unwrap();
        let report =
            least_squares(&resid, &[100.0], &bounds, &LeastSquaresOptions::default()).unwrap();
        assert!((report.params[0] - 0.5).abs() < 1e-8);
    }
}
