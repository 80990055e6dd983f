//! Least-squares fitting of lifetime distributions to empirical CDF data.
//!
//! This mirrors the paper's methodology (Section 3.2): evaluate the empirical CDF of
//! observed lifetimes on a grid, then fit each candidate family by minimising the squared
//! CDF error with a bounded least-squares solver (scipy `curve_fit` + dogbox in the paper,
//! [`tcp_numerics::optimize::curve_fit`] here).  Figure 1 is exactly this comparison.

use crate::bathtub::BathtubParams;
use crate::{
    ConstrainedBathtub, Exponential, GompertzMakeham, LifetimeDistribution, UniformLifetime,
    Weibull,
};
use tcp_numerics::optimize::{curve_fit, Bounds, LeastSquaresOptions};
use tcp_numerics::{NumericsError, Result};

/// The distribution families the fitting harness knows how to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionFamily {
    /// Memoryless exponential (`λ`).
    Exponential,
    /// Weibull (`λ`, `k`).
    Weibull,
    /// Gompertz–Makeham (`λ`, `α`, `β`).
    GompertzMakeham,
    /// The paper's constrained bathtub (`A`, `τ1`, `τ2`, `b`).
    ConstrainedBathtub,
    /// Uniform over `[0, L]` (no free parameters besides the horizon).
    Uniform,
}

impl DistributionFamily {
    /// All families, in the order they appear in Figure 1.
    pub fn all() -> [DistributionFamily; 5] {
        [
            DistributionFamily::ConstrainedBathtub,
            DistributionFamily::Exponential,
            DistributionFamily::Weibull,
            DistributionFamily::GompertzMakeham,
            DistributionFamily::Uniform,
        ]
    }

    /// Human-readable name matching the figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            DistributionFamily::Exponential => "Classical Exponential",
            DistributionFamily::Weibull => "Classic Weibull",
            DistributionFamily::GompertzMakeham => "Gompertz-Makeham",
            DistributionFamily::ConstrainedBathtub => "Our Model",
            DistributionFamily::Uniform => "Uniform",
        }
    }
}

/// A fitted distribution together with goodness-of-fit diagnostics.
pub struct FittedDistribution {
    /// Which family was fitted.
    pub family: DistributionFamily,
    /// Fitted parameter vector (family-specific ordering).
    pub params: Vec<f64>,
    /// The fitted distribution, ready to be used by policies and simulators.
    pub dist: Box<dyn LifetimeDistribution>,
    /// Coefficient of determination of the CDF fit.
    pub r_squared: f64,
    /// Root-mean-square CDF error.
    pub rmse: f64,
    /// Whether the underlying optimizer converged.
    pub converged: bool,
}

impl std::fmt::Debug for FittedDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedDistribution")
            .field("family", &self.family)
            .field("params", &self.params)
            .field("r_squared", &self.r_squared)
            .field("rmse", &self.rmse)
            .field("converged", &self.converged)
            .finish()
    }
}

fn validate_data(xs: &[f64], ys: &[f64]) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(NumericsError::invalid("xs and ys must have equal length"));
    }
    if xs.len() < 4 {
        return Err(NumericsError::invalid("need at least 4 CDF points to fit"));
    }
    if ys.iter().any(|&y| !(0.0..=1.0 + 1e-9).contains(&y)) {
        return Err(NumericsError::invalid("CDF values must lie in [0, 1]"));
    }
    if xs.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(NumericsError::invalid(
            "lifetimes must be finite and non-negative",
        ));
    }
    Ok(())
}

/// Fits one distribution family to empirical CDF data `(xs, ys)`.
///
/// `horizon` is the temporal constraint (24 h for Google Preemptible VMs); it bounds the
/// activation parameter `b` of the bathtub fit and parameterises the uniform strawman.
pub fn fit_distribution(
    family: DistributionFamily,
    xs: &[f64],
    ys: &[f64],
    horizon: f64,
) -> Result<FittedDistribution> {
    validate_data(xs, ys)?;
    if !(horizon > 0.0) || !horizon.is_finite() {
        return Err(NumericsError::invalid("horizon must be positive"));
    }
    let opts = LeastSquaresOptions::default();

    match family {
        DistributionFamily::Exponential => {
            let model = |x: f64, p: &[f64]| 1.0 - (-p[0] * x).exp();
            let mean_estimate = estimate_mean(xs, ys, horizon);
            let init = [1.0 / mean_estimate.max(1e-3)];
            let bounds = Bounds::new(vec![1e-6], vec![1e3])?;
            let report = curve_fit(model, xs, ys, &init, &bounds, &opts)?;
            let dist = Exponential::new(report.params[0])?;
            Ok(FittedDistribution {
                family,
                params: report.params.clone(),
                dist: Box::new(dist),
                r_squared: report.r_squared,
                rmse: report.rmse,
                converged: report.converged,
            })
        }
        DistributionFamily::Weibull => {
            let model = |x: f64, p: &[f64]| {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-(p[0] * x).powf(p[1])).exp()
                }
            };
            let mean_estimate = estimate_mean(xs, ys, horizon);
            let init = [1.0 / mean_estimate.max(1e-3), 1.0];
            let bounds = Bounds::new(vec![1e-6, 0.05], vec![1e3, 20.0])?;
            let report = curve_fit(model, xs, ys, &init, &bounds, &opts)?;
            let dist = Weibull::new(report.params[0], report.params[1])?;
            Ok(FittedDistribution {
                family,
                params: report.params.clone(),
                dist: Box::new(dist),
                r_squared: report.r_squared,
                rmse: report.rmse,
                converged: report.converged,
            })
        }
        DistributionFamily::GompertzMakeham => {
            let model = |x: f64, p: &[f64]| {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-(p[0] * x + p[1] / p[2] * ((p[2] * x).exp() - 1.0))).exp()
                }
            };
            let mean_estimate = estimate_mean(xs, ys, horizon);
            let bounds = Bounds::new(vec![0.0, 1e-18, 1e-3], vec![1e3, 10.0, 8.0])?;
            // Multi-start over the ageing rate: the Gompertz term creates well-separated
            // local minima (slow ageing vs deadline-like ageing), so try several seeds and
            // keep the best fit.
            let mut best: Option<tcp_numerics::optimize::CurveFitReport> = None;
            let lambda0 = 1.0 / mean_estimate.max(1e-3);
            let mut inits: Vec<[f64; 3]> = vec![[lambda0, 1e-3, 0.2], [lambda0, 1e-2, 0.1]];
            // Deadline-aware seeds: choose alpha so the ageing term's cumulative hazard is
            // O(1) at the horizon for a range of ageing rates, which lets the optimizer
            // discover late-spike solutions it cannot reach from a flat start.
            for beta0 in [0.3, 0.6, 1.0, 1.5, 2.5] {
                let alpha0 = (beta0 * (-beta0 * horizon).exp()).max(1e-18);
                inits.push([0.5 * lambda0, alpha0, beta0]);
                inits.push([2.0 * lambda0, alpha0, beta0]);
            }
            for init in inits {
                if let Ok(report) = curve_fit(model, xs, ys, &init, &bounds, &opts) {
                    if best.as_ref().map(|b| report.rss < b.rss).unwrap_or(true) {
                        best = Some(report);
                    }
                }
            }
            let report = best.ok_or_else(|| {
                NumericsError::invalid("all Gompertz-Makeham fit attempts failed")
            })?;
            let dist = GompertzMakeham::new(report.params[0], report.params[1], report.params[2])?;
            Ok(FittedDistribution {
                family,
                params: report.params.clone(),
                dist: Box::new(dist),
                r_squared: report.r_squared,
                rmse: report.rmse,
                converged: report.converged,
            })
        }
        DistributionFamily::ConstrainedBathtub => {
            // parameters: [A, tau1, tau2, b]
            let model = |x: f64, p: &[f64]| {
                let raw = p[0] * (1.0 - (-x / p[1]).exp() + ((x - p[3]) / p[2]).exp());
                raw.clamp(0.0, 1.0)
            };
            let init = [0.45, 1.0, 0.8, horizon];
            let bounds = Bounds::new(
                vec![0.05, 0.05, 0.05, 0.5 * horizon],
                vec![1.0, 20.0, 10.0, 1.2 * horizon],
            )?;
            let report = curve_fit(model, xs, ys, &init, &bounds, &opts)?;
            let params = BathtubParams {
                a: report.params[0],
                tau1: report.params[1],
                tau2: report.params[2],
                b: report.params[3],
                horizon,
            };
            let dist = ConstrainedBathtub::new(params)?;
            Ok(FittedDistribution {
                family,
                params: report.params.clone(),
                dist: Box::new(dist),
                r_squared: report.r_squared,
                rmse: report.rmse,
                converged: report.converged,
            })
        }
        DistributionFamily::Uniform => {
            let dist = UniformLifetime::new(horizon)?;
            let predictions: Vec<f64> = xs.iter().map(|&x| dist.cdf(x)).collect();
            let r2 = tcp_numerics::stats::r_squared(ys, &predictions)?;
            let rmse = tcp_numerics::stats::rmse(ys, &predictions)?;
            Ok(FittedDistribution {
                family,
                params: vec![horizon],
                dist: Box::new(dist),
                r_squared: r2,
                rmse,
                converged: true,
            })
        }
    }
}

/// Rough estimate of the mean lifetime from CDF data (used only to seed the optimizers).
fn estimate_mean(xs: &[f64], ys: &[f64], horizon: f64) -> f64 {
    // E[T] ≈ ∫ (1 - F) dt via trapezoid over the tabulated CDF.
    let mut acc = 0.0;
    for i in 1..xs.len() {
        let dt = xs[i] - xs[i - 1];
        let s = 1.0 - 0.5 * (ys[i] + ys[i - 1]);
        acc += s.max(0.0) * dt;
    }
    acc.clamp(0.05, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhasedHazard;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_numerics::stats::Ecdf;

    /// Empirical CDF grid drawn from the three-phase ground truth.
    fn synthetic_cdf_grid() -> (Vec<f64>, Vec<f64>) {
        let truth = PhasedHazard::representative();
        let mut rng = StdRng::seed_from_u64(2020);
        let samples = truth.sample_n(&mut rng, 800);
        let ecdf = Ecdf::new(&samples).unwrap();
        ecdf.on_grid(0.0, 24.0, 200).unwrap()
    }

    #[test]
    fn bathtub_fits_synthetic_data_best() {
        let (xs, ys) = synthetic_cdf_grid();
        let mut fits: Vec<FittedDistribution> = DistributionFamily::all()
            .into_iter()
            .map(|family| fit_distribution(family, &xs, &ys, 24.0).unwrap())
            .collect();
        fits.sort_by(|a, b| b.r_squared.partial_cmp(&a.r_squared).unwrap());
        // Figure 1: the constrained-bathtub model fits better than every classical family.
        assert_eq!(
            fits[0].family,
            DistributionFamily::ConstrainedBathtub,
            "{fits:?}"
        );
        // The exact r² depends on the sampled ECDF (and thus the RNG stream); anything
        // above 0.97 on 800 samples matches the paper's "excellent fit" qualitatively.
        assert!(fits[0].r_squared > 0.97, "r² = {}", fits[0].r_squared);
        // and the classical exponential is clearly worse
        let expo = fits
            .iter()
            .find(|f| f.family == DistributionFamily::Exponential)
            .unwrap();
        assert!(fits[0].r_squared > expo.r_squared + 0.01);
    }

    #[test]
    fn bathtub_fit_parameters_in_paper_range() {
        let (xs, ys) = synthetic_cdf_grid();
        let fit = fit_distribution(DistributionFamily::ConstrainedBathtub, &xs, &ys, 24.0).unwrap();
        let a = fit.params[0];
        let tau1 = fit.params[1];
        let tau2 = fit.params[2];
        let b = fit.params[3];
        assert!(a > 0.2 && a <= 1.0, "A = {a}");
        assert!(tau1 > 0.1 && tau1 < 6.0, "tau1 = {tau1}");
        assert!(tau2 > 0.05 && tau2 < 5.0, "tau2 = {tau2}");
        assert!(b > 18.0 && b < 28.0, "b = {b}");
    }

    #[test]
    fn exponential_fit_recovers_exact_exponential_data() {
        let true_rate = 0.35;
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.24).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 - (-true_rate * x).exp()).collect();
        let fit = fit_distribution(DistributionFamily::Exponential, &xs, &ys, 24.0).unwrap();
        assert!((fit.params[0] - true_rate).abs() < 1e-4);
        assert!(fit.r_squared > 0.99999);
    }

    #[test]
    fn weibull_fit_recovers_exact_weibull_data() {
        let w = Weibull::new(0.08, 1.9).unwrap();
        let xs: Vec<f64> = (1..100).map(|i| i as f64 * 0.24).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| w.cdf(x)).collect();
        let fit = fit_distribution(DistributionFamily::Weibull, &xs, &ys, 24.0).unwrap();
        assert!(
            (fit.params[0] - 0.08).abs() < 5e-3,
            "rate = {}",
            fit.params[0]
        );
        assert!(
            (fit.params[1] - 1.9).abs() < 0.1,
            "shape = {}",
            fit.params[1]
        );
    }

    #[test]
    fn uniform_fit_has_no_free_parameters() {
        let (xs, ys) = synthetic_cdf_grid();
        let fit = fit_distribution(DistributionFamily::Uniform, &xs, &ys, 24.0).unwrap();
        assert_eq!(fit.params, vec![24.0]);
        assert!(fit.converged);
    }

    #[test]
    fn validation_rejects_bad_data() {
        let xs = vec![0.0, 1.0, 2.0, 3.0];
        let bad_len = vec![0.0, 0.5];
        assert!(fit_distribution(DistributionFamily::Exponential, &xs, &bad_len, 24.0).is_err());
        let bad_range = vec![0.0, 0.5, 1.5, 1.0];
        assert!(fit_distribution(DistributionFamily::Exponential, &xs, &bad_range, 24.0).is_err());
        let too_few = vec![0.0, 1.0];
        assert!(
            fit_distribution(DistributionFamily::Exponential, &too_few, &[0.0, 0.5], 24.0).is_err()
        );
        let ok = vec![0.0, 0.2, 0.5, 0.9];
        assert!(fit_distribution(DistributionFamily::Exponential, &xs, &ok, 0.0).is_err());
    }

    #[test]
    fn family_metadata() {
        assert_eq!(DistributionFamily::all().len(), 5);
        assert_eq!(DistributionFamily::ConstrainedBathtub.label(), "Our Model");
    }

    #[test]
    fn gompertz_makeham_fit_runs_on_synthetic_data() {
        let (xs, ys) = synthetic_cdf_grid();
        let gm = fit_distribution(DistributionFamily::GompertzMakeham, &xs, &ys, 24.0).unwrap();
        let expo = fit_distribution(DistributionFamily::Exponential, &xs, &ys, 24.0).unwrap();
        // Gompertz-Makeham nests the exponential, so its fit must be at least as good — but
        // (the paper's point) it still cannot capture the constrained-preemption shape, so
        // it stays far below the bathtub fit quality.
        assert!(
            gm.r_squared >= expo.r_squared - 1e-9,
            "gm {} < exp {}",
            gm.r_squared,
            expo.r_squared
        );
        assert!(gm.r_squared < 0.9);
        assert_eq!(gm.params.len(), 3);
    }
}
