//! Fitting the constrained-preemption model (and baselines) to observed lifetimes.
//!
//! This is the Figure 1 pipeline: observed lifetimes → empirical CDF on a grid → bounded
//! least-squares fit of each candidate family → goodness-of-fit comparison.

use serde::{Deserialize, Serialize};
use tcp_dists::bathtub::ConstrainedBathtub;
use tcp_dists::fit::{fit_distribution, DistributionFamily, FittedDistribution};
use tcp_dists::EmpiricalLifetime;
use tcp_numerics::{NumericsError, Result};

/// Default number of grid points used when evaluating the empirical CDF for fitting.
pub const DEFAULT_FIT_GRID_POINTS: usize = 200;

/// The result of fitting the bathtub model to observed lifetimes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelFit {
    /// The fitted model.
    pub model: ConstrainedBathtub,
    /// Coefficient of determination of the CDF fit.
    pub r_squared: f64,
    /// Root-mean-square CDF error.
    pub rmse: f64,
    /// Number of observed lifetimes used.
    pub sample_count: usize,
    /// Whether the optimizer converged.
    pub converged: bool,
}

/// Goodness-of-fit entry for one family in the Figure 1 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyFitSummary {
    /// Family label as used in the figure legend.
    pub label: String,
    /// Fitted parameters (family-specific ordering).
    pub params: Vec<f64>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Root-mean-square CDF error.
    pub rmse: f64,
}

/// The full Figure 1 comparison: the bathtub fit plus every classical baseline.
pub struct ModelComparison {
    /// The bathtub model fit.
    pub bathtub: ModelFit,
    /// Per-family summaries, sorted by descending R².
    pub families: Vec<FamilyFitSummary>,
    /// The fitted distributions themselves (same order as `families`).
    pub fitted: Vec<FittedDistribution>,
    /// The empirical distribution the fits were scored against.
    pub empirical: EmpiricalLifetime,
}

impl std::fmt::Debug for ModelComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelComparison")
            .field("bathtub", &self.bathtub)
            .field("families", &self.families)
            .finish()
    }
}

fn empirical_grid(lifetimes: &[f64], horizon: f64, points: usize) -> Result<(Vec<f64>, Vec<f64>)> {
    if lifetimes.len() < 10 {
        return Err(NumericsError::invalid(format!(
            "need at least 10 observed lifetimes to fit a model, got {}",
            lifetimes.len()
        )));
    }
    let empirical = EmpiricalLifetime::new(lifetimes, Some(horizon))?;
    empirical.grid(points)
}

/// Fits the constrained-bathtub model to observed lifetimes.
pub fn fit_bathtub_model(lifetimes: &[f64], horizon: f64) -> Result<ModelFit> {
    let (xs, ys) = empirical_grid(lifetimes, horizon, DEFAULT_FIT_GRID_POINTS)?;
    let fitted = fit_distribution(DistributionFamily::ConstrainedBathtub, &xs, &ys, horizon)?;
    let dist = ConstrainedBathtub::from_parts(
        fitted.params[0],
        fitted.params[1],
        fitted.params[2],
        fitted.params[3],
    )?;
    Ok(ModelFit {
        model: dist,
        r_squared: fitted.r_squared,
        rmse: fitted.rmse,
        sample_count: lifetimes.len(),
        converged: fitted.converged,
    })
}

/// Fits every family (Figure 1) and returns the comparison.
pub fn fit_model_comparison(lifetimes: &[f64], horizon: f64) -> Result<ModelComparison> {
    let (xs, ys) = empirical_grid(lifetimes, horizon, DEFAULT_FIT_GRID_POINTS)?;
    let empirical = EmpiricalLifetime::new(lifetimes, Some(horizon))?;

    let mut fitted = Vec::new();
    for family in DistributionFamily::all() {
        fitted.push(fit_distribution(family, &xs, &ys, horizon)?);
    }
    fitted.sort_by(|a, b| b.r_squared.partial_cmp(&a.r_squared).unwrap());

    let families: Vec<FamilyFitSummary> = fitted
        .iter()
        .map(|f| FamilyFitSummary {
            label: f.family.label().to_string(),
            params: f.params.clone(),
            r_squared: f.r_squared,
            rmse: f.rmse,
        })
        .collect();

    let bathtub_fit = fitted
        .iter()
        .find(|f| f.family == DistributionFamily::ConstrainedBathtub)
        .expect("bathtub family always fitted");
    let dist = ConstrainedBathtub::from_parts(
        bathtub_fit.params[0],
        bathtub_fit.params[1],
        bathtub_fit.params[2],
        bathtub_fit.params[3],
    )?;
    let bathtub = ModelFit {
        model: dist,
        r_squared: bathtub_fit.r_squared,
        rmse: bathtub_fit.rmse,
        sample_count: lifetimes.len(),
        converged: bathtub_fit.converged,
    };

    Ok(ModelComparison {
        bathtub,
        families,
        fitted,
        empirical,
    })
}

impl ModelComparison {
    /// Evaluates every fitted CDF (plus the empirical CDF) on a grid — the data series of
    /// Figure 1.  Returns `(ts, per-series (label, values))`.
    pub fn cdf_series(&self, points: usize) -> (Vec<f64>, Vec<(String, Vec<f64>)>) {
        let horizon = self.bathtub.model.params().horizon;
        let ts = tcp_numerics::interp::linspace(0.0, horizon, points.max(2));
        let mut series = Vec::new();
        let emp: Vec<f64> = ts.iter().map(|&t| self.empirical.ecdf().eval(t)).collect();
        series.push(("Empirical Data".to_string(), emp));
        for f in &self.fitted {
            let vals: Vec<f64> = ts.iter().map(|&t| f.dist.cdf(t)).collect();
            series.push((f.family.label().to_string(), vals));
        }
        (ts, series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_dists::{LifetimeDistribution, PhasedHazard};

    fn synthetic_lifetimes(n: usize, seed: u64) -> Vec<f64> {
        let truth = PhasedHazard::representative();
        let mut rng = StdRng::seed_from_u64(seed);
        truth.sample_n(&mut rng, n)
    }

    #[test]
    fn bathtub_fit_quality_on_synthetic_study() {
        let lifetimes = synthetic_lifetimes(800, 1);
        let fit = fit_bathtub_model(&lifetimes, 24.0).unwrap();
        assert!(fit.r_squared > 0.97, "r² = {}", fit.r_squared);
        assert_eq!(fit.sample_count, 800);
        let p = fit.model.params();
        assert!(p.b > 18.0 && p.b < 28.8, "b = {}", p.b);
        assert!(p.a > 0.2 && p.a <= 1.0);
    }

    #[test]
    fn fit_requires_enough_samples() {
        assert!(fit_bathtub_model(&[1.0, 2.0, 3.0], 24.0).is_err());
    }

    #[test]
    fn comparison_ranks_bathtub_first() {
        let lifetimes = synthetic_lifetimes(600, 2);
        let cmp = fit_model_comparison(&lifetimes, 24.0).unwrap();
        assert_eq!(cmp.families[0].label, "Our Model");
        assert_eq!(cmp.families.len(), 5);
        // r² sorted descending
        for w in cmp.families.windows(2) {
            assert!(w[0].r_squared >= w[1].r_squared);
        }
        // bathtub clearly ahead of the memoryless exponential
        let expo = cmp
            .families
            .iter()
            .find(|f| f.label == "Classical Exponential")
            .unwrap();
        assert!(cmp.bathtub.r_squared > expo.r_squared + 0.05);
    }

    #[test]
    fn cdf_series_has_all_curves() {
        let lifetimes = synthetic_lifetimes(400, 3);
        let cmp = fit_model_comparison(&lifetimes, 24.0).unwrap();
        let (ts, series) = cmp.cdf_series(50);
        assert_eq!(ts.len(), 50);
        assert_eq!(series.len(), 6); // empirical + 5 families
        for (label, vals) in &series {
            assert_eq!(vals.len(), 50, "{label}");
            assert!(
                vals.iter().all(|v| (-1e-9..=1.0 + 1e-9).contains(v)),
                "{label}"
            );
        }
    }

    #[test]
    fn fit_works_with_small_but_sufficient_sample() {
        // the paper bootstrapped its model from a small number of points
        let lifetimes = synthetic_lifetimes(40, 4);
        let fit = fit_bathtub_model(&lifetimes, 24.0).unwrap();
        assert!(fit.r_squared > 0.9, "r² = {}", fit.r_squared);
    }
}
