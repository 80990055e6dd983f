//! Per-cell candidate fitting and model selection.
//!
//! This is the paper's Section 3.2 methodology applied per cell instead of once: the
//! observed lifetimes of a cell are fit by every candidate family, each candidate is
//! scored by the Kolmogorov–Smirnov statistic against the cell's empirical CDF (with
//! censoring-aware log-likelihood and AIC reported alongside), and the winner becomes
//! the cell's calibrated model.  Cells that are too small to fit — or where no
//! parametric family reaches an acceptable K-S distance — fall back to the raw
//! empirical distribution, which is always available because the catalog stores each
//! cell's observed lifetimes.
//!
//! Candidate families:
//!
//! * `bathtub` — the paper's constrained-preemption model (Equation 1), fitted by the
//!   same bounded least-squares pipeline as Figure 1;
//! * `weibull`, `exponential` — the classical baselines of Figure 1;
//! * `phased` — the piecewise three-phase hazard of Section 8, fitted by closed-form
//!   per-phase exposure MLE (phase boundaries and the deadline acceleration are held at
//!   their representative values; the three phase rates are free);
//! * `empirical` — the fallback: the observed lifetimes themselves.
//!
//! Scoring reads each record once per candidate: one pass over the sorted lifetimes
//! evaluates the candidate's CDF and PDF together ([`LifetimeDistribution::cdf_pdf`])
//! and accumulates both the K-S statistic and the log-likelihood.  The pass takes the
//! same `max` chain as [`Ecdf::ks_statistic`] and adds the same log-likelihood terms in
//! the same order as a separate sum would, so the scores are bit for bit those of two
//! separate passes.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tcp_core::{LifetimeModel, TabulatedLifetime};
use tcp_dists::bathtub::BathtubParams;
use tcp_dists::fit::{fit_distribution, DistributionFamily};
use tcp_dists::phased::PhasedHazardParams;
use tcp_dists::{
    ConstrainedBathtub, EmpiricalLifetime, Exponential, LifetimeDistribution, PhasedHazard, Weibull,
};
use tcp_numerics::stats::{r_squared, rmse, Ecdf};
use tcp_numerics::{NumericsError, Result};

/// Fewest observations any parametric fit will be attempted on (the least-squares
/// pipeline needs a meaningful empirical CDF grid).
pub const MIN_PARAMETRIC_RECORDS: usize = 10;

/// Floor applied to MLE hazard rates so phases with zero observed events still produce
/// a valid (just extremely quiet) phase.
const RATE_FLOOR: f64 = 1e-6;

/// Knobs of the per-cell fitting and selection step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitOptions {
    /// Temporal constraint `L` in hours (24 for GCP Preemptible VMs).
    pub horizon_hours: f64,
    /// Cells with fewer records than this keep the empirical fallback even when the
    /// parametric candidates fit (small-sample parametric fits are noise).
    pub min_records: usize,
    /// A parametric winner whose K-S statistic exceeds this keeps the empirical
    /// fallback instead.
    pub ks_threshold: f64,
    /// Grid resolution of the empirical CDF the least-squares fits run against.
    pub grid_points: usize,
    /// Launch-hour cell width in hours (`calibrate fit --tod-hours N`): `None` keeps
    /// the paper's day/night split; `Some(n)` partitions the day into `24/n` launch-hour
    /// buckets (`h00-06`, `h06-12`, …) instead, which requires records carrying a
    /// `launch_hour`.  Must divide 24.
    pub tod_hours: Option<u32>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            horizon_hours: 24.0,
            min_records: 15,
            ks_threshold: 0.15,
            grid_points: 200,
            tod_hours: None,
        }
    }
}

impl FitOptions {
    /// Validates the knobs.
    pub fn validate(&self) -> Result<()> {
        if !(self.horizon_hours > 0.0) || !self.horizon_hours.is_finite() {
            return Err(NumericsError::invalid("horizon_hours must be positive"));
        }
        if !(self.ks_threshold > 0.0) || !self.ks_threshold.is_finite() {
            return Err(NumericsError::invalid("ks_threshold must be positive"));
        }
        if self.grid_points < 20 {
            return Err(NumericsError::invalid("grid_points must be at least 20"));
        }
        if let Some(n) = self.tod_hours {
            if n == 0 || n >= 24 || 24 % n != 0 {
                return Err(NumericsError::invalid(format!(
                    "tod_hours must divide 24 and lie in [1, 23], got {n}"
                )));
            }
        }
        Ok(())
    }
}

/// One fitted candidate family with its goodness-of-fit scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateFit {
    /// Family name (`bathtub`, `weibull`, `exponential`, `phased`).
    pub family: String,
    /// Fitted parameter vector (family-specific ordering; `phased` stores the full
    /// seven-value [`PhasedHazardParams`] field order).
    pub params: Vec<f64>,
    /// Kolmogorov–Smirnov statistic against the cell's empirical CDF (lower is better).
    pub ks_statistic: f64,
    /// Censoring-aware log-likelihood: density for preempted records, surviving
    /// probability mass for records reclaimed at the deadline.
    pub log_likelihood: f64,
    /// Akaike information criterion `2k − 2·LL` (lower is better).
    pub aic: f64,
    /// Coefficient of determination of the CDF fit.
    pub r_squared: f64,
    /// Root-mean-square CDF error.
    pub rmse: f64,
}

/// The selected model of one cell — self-contained: the observed (sorted) lifetimes ride
/// along so the empirical fallback, refits and downstream samplers never need the CSV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibratedModel {
    /// Winning family (`bathtub`, `weibull`, `exponential`, `phased` or `empirical`).
    pub family: String,
    /// Parameters of the winning family (empty for `empirical`).
    pub params: Vec<f64>,
    /// The cell's observed lifetimes, sorted ascending.
    pub lifetimes: Vec<f64>,
}

impl CalibratedModel {
    /// Materialises the calibrated distribution.
    pub fn to_distribution(&self, horizon: f64) -> Result<Arc<dyn LifetimeDistribution>> {
        let need = |n: usize| -> Result<()> {
            if self.params.len() != n {
                return Err(NumericsError::invalid(format!(
                    "calibrated `{}` model needs {n} parameters, found {}",
                    self.family,
                    self.params.len()
                )));
            }
            Ok(())
        };
        let p = &self.params;
        Ok(match self.family.as_str() {
            "bathtub" => {
                need(4)?;
                Arc::new(ConstrainedBathtub::new(BathtubParams {
                    a: p[0],
                    tau1: p[1],
                    tau2: p[2],
                    b: p[3],
                    horizon,
                })?)
            }
            "exponential" => {
                need(1)?;
                Arc::new(Exponential::new(p[0])?)
            }
            "weibull" => {
                need(2)?;
                Arc::new(Weibull::new(p[0], p[1])?)
            }
            "phased" => {
                need(7)?;
                Arc::new(PhasedHazard::new(phased_params_from_vec(p)?)?)
            }
            "empirical" => Arc::new(EmpiricalLifetime::new(&self.lifetimes, Some(horizon))?),
            other => {
                return Err(NumericsError::invalid(format!(
                    "unknown calibrated model family `{other}`"
                )))
            }
        })
    }

    /// Materialises the calibrated winner as a policy-ready [`LifetimeModel`]: the
    /// bathtub family keeps its closed forms (the DP fast path), every other family —
    /// Weibull, exponential, phased, empirical — is tabulated by quadrature on a dense
    /// `points`-knot age grid ([`TabulatedLifetime`]), so the generic-hazard DP and
    /// Equation 8 run at table speed regardless of which family won the cell.
    pub fn to_lifetime_model(&self, horizon: f64, points: usize) -> Result<Arc<dyn LifetimeModel>> {
        if let Some(model) = self.bathtub() {
            return Ok(Arc::new(model));
        }
        let dist = self.to_distribution(horizon)?;
        Ok(Arc::new(TabulatedLifetime::from_distribution(
            self.family.clone(),
            dist.as_ref(),
            horizon,
            points,
        )?))
    }

    /// The winning model as a [`ConstrainedBathtub`], when the winner is the bathtub family.
    pub fn bathtub(&self) -> Option<ConstrainedBathtub> {
        if self.family != "bathtub" {
            return None;
        }
        bathtub_from_params(&self.params)
    }
}

/// The Equation 1 model behind a fitted bathtub parameter vector `[A, τ1, τ2, b]`, or
/// `None` when the vector is malformed or the parameters are invalid.
pub(crate) fn bathtub_from_params(params: &[f64]) -> Option<ConstrainedBathtub> {
    match *params {
        [a, tau1, tau2, b] => ConstrainedBathtub::from_parts(a, tau1, tau2, b).ok(),
        _ => None,
    }
}

/// The full outcome of fitting one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitOutcome {
    /// Every parametric candidate that fitted, sorted by ascending K-S statistic.
    pub candidates: Vec<CandidateFit>,
    /// The selected model.
    pub model: CalibratedModel,
    /// Human-readable selection rationale (which rule picked the winner).
    pub selection: String,
}

fn phased_params_from_vec(p: &[f64]) -> Result<PhasedHazardParams> {
    if p.len() != 7 {
        return Err(NumericsError::invalid(
            "phased parameter vector must have 7 entries",
        ));
    }
    Ok(PhasedHazardParams {
        early_rate: p[0],
        early_end: p[1],
        stable_rate: p[2],
        deadline_start: p[3],
        deadline_base_rate: p[4],
        deadline_acceleration: p[5],
        horizon: p[6],
    })
}

/// Scores `dist` against a cell's sorted lifetimes in one pass, returning the
/// Kolmogorov–Smirnov statistic against the empirical CDF and the censoring-aware
/// log-likelihood.  Records preempted strictly before the horizon contribute `ln f(t)`
/// to the log-likelihood; records reclaimed at the deadline contribute the surviving
/// probability mass `ln S(L⁻)`.
fn score_sorted(dist: &dyn LifetimeDistribution, sorted: &[f64], horizon: f64) -> (f64, f64) {
    let n = sorted.len() as f64;
    let censor_edge = horizon - 1e-9;
    let survive = (1.0 - dist.cdf(horizon - 1e-6)).max(1e-300).ln();
    let mut ks: f64 = 0.0;
    // `Iterator::sum` over `f64` folds from `-0.0`; starting there keeps the total's bits.
    let mut log_likelihood = -0.0;
    for (i, &t) in sorted.iter().enumerate() {
        let (fx, term) = if t < censor_edge {
            let (fx, density) = dist.cdf_pdf(t);
            (fx, density.max(1e-300).ln())
        } else {
            (dist.cdf(t), survive)
        };
        let upper = ((i + 1) as f64 / n - fx).abs();
        let lower = (fx - i as f64 / n).abs();
        ks = ks.max(upper).max(lower);
        log_likelihood += term;
    }
    (ks, log_likelihood)
}

/// Closed-form exposure MLE for the three-phase hazard: each phase's rate is its event
/// count divided by the total time at risk spent inside the phase.  The phase
/// boundaries and the deadline acceleration are held at their representative values
/// (scaled to the horizon), so the candidate has three free parameters.
fn fit_phased(lifetimes: &[f64], horizon: f64) -> Result<(Vec<f64>, PhasedHazard)> {
    let early_end = horizon * (3.0 / 24.0);
    let deadline_start = horizon * (22.0 / 24.0);
    let acceleration = 2.2;
    let censor_edge = horizon - 1e-9;

    let mut events = [0usize; 3];
    let mut exposure = [0.0f64; 3];
    for &t in lifetimes {
        exposure[0] += t.min(early_end);
        exposure[1] += (t.min(deadline_start) - early_end).max(0.0);
        // The deadline phase's hazard is base·exp(acc·(u − start)); the MLE denominator
        // is the integral of the acceleration profile over the time at risk.
        // A record that never reaches the deadline phase adds exactly `+0.0`: skip it.
        let span = (t.min(horizon) - deadline_start).max(0.0);
        if span > 0.0 {
            exposure[2] += ((acceleration * span).exp() - 1.0) / acceleration;
        }
        if t < censor_edge {
            if t <= early_end {
                events[0] += 1;
            } else if t <= deadline_start {
                events[1] += 1;
            } else {
                events[2] += 1;
            }
        }
    }
    let rate = |i: usize| -> f64 {
        if exposure[i] <= 0.0 {
            RATE_FLOOR
        } else {
            (events[i] as f64 / exposure[i]).max(RATE_FLOOR)
        }
    };
    let params = PhasedHazardParams {
        early_rate: rate(0),
        early_end,
        stable_rate: rate(1),
        deadline_start,
        deadline_base_rate: rate(2),
        deadline_acceleration: acceleration,
        horizon,
    };
    let dist = PhasedHazard::new(params)?;
    Ok((
        vec![
            params.early_rate,
            params.early_end,
            params.stable_rate,
            params.deadline_start,
            params.deadline_base_rate,
            params.deadline_acceleration,
            params.horizon,
        ],
        dist,
    ))
}

/// Fits and scores every parametric candidate on a cell's ECDF, sorted by ascending K-S
/// statistic (ties: fewer parameters, then family name).  A family whose fit fails is
/// left out.
fn fit_candidates(ecdf: &Ecdf, options: &FitOptions) -> Result<Vec<CandidateFit>> {
    let horizon = options.horizon_hours;
    let sorted = ecdf.sorted_values();
    // The step ECDF on `[0, max(horizon, last)]`: exactly what `EmpiricalLifetime::grid`
    // returns, without the second sorted copy and the interpolant it never reads.  On
    // lifetimes `fit_cell` has validated, `EmpiricalLifetime::new` cannot fail (a single
    // distinct value is widened and the knots are distinct), so no error is lost.
    let last = sorted[sorted.len() - 1];
    let (xs, ys) = ecdf.on_grid(0.0, horizon.max(last), options.grid_points)?;

    let score = |family: &str,
                 params: Vec<f64>,
                 free_params: usize,
                 dist: &dyn LifetimeDistribution,
                 r2: f64,
                 rms: f64|
     -> CandidateFit {
        let (ks, ll) = score_sorted(dist, sorted, horizon);
        CandidateFit {
            family: family.to_string(),
            params,
            ks_statistic: ks,
            log_likelihood: ll,
            aic: 2.0 * free_params as f64 - 2.0 * ll,
            r_squared: r2,
            rmse: rms,
        }
    };

    let mut candidates = Vec::new();
    for (family, name, free) in [
        (DistributionFamily::ConstrainedBathtub, "bathtub", 4usize),
        (DistributionFamily::Weibull, "weibull", 2),
        (DistributionFamily::Exponential, "exponential", 1),
    ] {
        if let Ok(fitted) = fit_distribution(family, &xs, &ys, horizon) {
            candidates.push(score(
                name,
                fitted.params.clone(),
                free,
                fitted.dist.as_ref(),
                fitted.r_squared,
                fitted.rmse,
            ));
        }
    }
    if let Ok((params, dist)) = fit_phased(sorted, horizon) {
        let predictions: Vec<f64> = xs.iter().map(|&x| dist.cdf(x)).collect();
        let r2 = r_squared(&ys, &predictions)?;
        let rms = rmse(&ys, &predictions)?;
        candidates.push(score("phased", params, 3, &dist, r2, rms));
    }
    candidates.sort_by(|a, b| {
        a.ks_statistic
            .partial_cmp(&b.ks_statistic)
            .expect("finite K-S")
            .then_with(|| a.params.len().cmp(&b.params.len()))
            .then_with(|| a.family.cmp(&b.family))
    });
    Ok(candidates)
}

/// Fits every candidate family to one cell's lifetimes and selects the winner.
///
/// Deterministic: no randomness anywhere in the fitting path, so the same lifetimes and
/// options always produce the identical outcome.  Each call increments the winning
/// family's `calibrate.fit.winner.*` registry counter and times the selection step into
/// the `calibrate.stage.winner_selection` histogram — out-of-band bookkeeping that
/// never affects the outcome.
pub fn fit_cell(lifetimes: &[f64], options: &FitOptions) -> Result<FitOutcome> {
    options.validate()?;
    if lifetimes.is_empty() {
        return Err(NumericsError::invalid("cannot calibrate an empty cell"));
    }
    let horizon = options.horizon_hours;
    if lifetimes
        .iter()
        .any(|&t| !t.is_finite() || t < 0.0 || t > horizon + 1e-9)
    {
        return Err(NumericsError::invalid(
            "lifetimes must be finite and inside [0, horizon]",
        ));
    }
    // Validated above, so the ECDF cannot fail; it owns the one sorted copy of the cell.
    let ecdf = Ecdf::from_vec(lifetimes.to_vec())?;
    let candidates = if ecdf.len() >= MIN_PARAMETRIC_RECORDS {
        fit_candidates(&ecdf, options)?
    } else {
        Vec::new()
    };
    let sorted = ecdf.into_sorted();

    let empirical_model = |lifetimes: Vec<f64>| CalibratedModel {
        family: "empirical".to_string(),
        params: Vec::new(),
        lifetimes,
    };
    let _selection_span = tcp_obs::time!("calibrate.stage.winner_selection");
    let (model, selection) = match candidates.first() {
        None => (
            empirical_model(sorted),
            format!(
                "empirical fallback: {} records are too few for parametric fits",
                lifetimes.len()
            ),
        ),
        Some(best) if lifetimes.len() < options.min_records => (
            empirical_model(sorted),
            format!(
                "empirical fallback: {} records < min_records {} (best parametric: {} at K-S {:.4})",
                lifetimes.len(),
                options.min_records,
                best.family,
                best.ks_statistic
            ),
        ),
        Some(best) if best.ks_statistic > options.ks_threshold => (
            empirical_model(sorted),
            format!(
                "empirical fallback: best parametric {} has K-S {:.4} > threshold {:.4}",
                best.family, best.ks_statistic, options.ks_threshold
            ),
        ),
        Some(best) => (
            CalibratedModel {
                family: best.family.clone(),
                params: best.params.clone(),
                lifetimes: sorted,
            },
            format!("{} wins on K-S {:.4}", best.family, best.ks_statistic),
        ),
    };
    tcp_obs::counter(winner_counter(&model.family)).incr();
    Ok(FitOutcome {
        candidates,
        model,
        selection,
    })
}

/// The registry counter tracking how often `family` wins a cell.  Static names keep the
/// per-cell hot path free of allocation; an unknown family (impossible today) folds
/// into `other` rather than minting unbounded metric names.
fn winner_counter(family: &str) -> &'static str {
    match family {
        "bathtub" => "calibrate.fit.winner.bathtub",
        "weibull" => "calibrate.fit.winner.weibull",
        "exponential" => "calibrate.fit.winner.exponential",
        "phased" => "calibrate.fit.winner.phased",
        "empirical" => "calibrate.fit.winner.empirical",
        _ => "calibrate.fit.winner.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn representative_lifetimes(n: usize, seed: u64) -> Vec<f64> {
        let truth = PhasedHazard::representative();
        let mut rng = StdRng::seed_from_u64(seed);
        truth
            .sample_n(&mut rng, n)
            .into_iter()
            .map(|t| t.clamp(0.0, 24.0))
            .collect()
    }

    #[test]
    fn bathtub_wins_on_bathtub_shaped_data() {
        let lifetimes = representative_lifetimes(600, 1);
        let outcome = fit_cell(&lifetimes, &FitOptions::default()).unwrap();
        assert!(outcome.candidates.len() >= 3, "{:?}", outcome.candidates);
        // K-S ascending.
        for w in outcome.candidates.windows(2) {
            assert!(w[0].ks_statistic <= w[1].ks_statistic);
        }
        // The constrained shape beats the memoryless baseline decisively.
        let ks = |family: &str| {
            outcome
                .candidates
                .iter()
                .find(|c| c.family == family)
                .map(|c| c.ks_statistic)
        };
        let bathtub = ks("bathtub").unwrap();
        let expo = ks("exponential").unwrap();
        assert!(bathtub < expo, "bathtub {bathtub} vs exponential {expo}");
        assert!(
            outcome.model.family == "bathtub" || outcome.model.family == "phased",
            "winner {} ({})",
            outcome.model.family,
            outcome.selection
        );
        assert!(outcome.model.bathtub().is_some() || outcome.model.family != "bathtub");
        // Lifetimes ride along, sorted.
        assert_eq!(outcome.model.lifetimes.len(), 600);
        assert!(outcome.model.lifetimes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tiny_cells_fall_back_to_empirical() {
        let lifetimes = vec![1.0, 2.5, 7.0];
        let outcome = fit_cell(&lifetimes, &FitOptions::default()).unwrap();
        assert_eq!(outcome.model.family, "empirical");
        assert!(outcome.candidates.is_empty());
        assert!(
            outcome.selection.contains("too few"),
            "{}",
            outcome.selection
        );
        let dist = outcome.model.to_distribution(24.0).unwrap();
        assert!(dist.cdf(24.0) > 0.999);
    }

    #[test]
    fn min_records_keeps_empirical_even_when_fits_exist() {
        let lifetimes = representative_lifetimes(12, 3);
        let options = FitOptions {
            min_records: 50,
            ..FitOptions::default()
        };
        let outcome = fit_cell(&lifetimes, &options).unwrap();
        assert_eq!(outcome.model.family, "empirical");
        assert!(!outcome.candidates.is_empty(), "fits are still reported");
        assert!(
            outcome.selection.contains("min_records"),
            "{}",
            outcome.selection
        );
    }

    #[test]
    fn log_likelihood_handles_censored_records() {
        // Half the records survive to the deadline: the LL must stay finite and the
        // candidates must still be scored.
        let mut lifetimes = vec![24.0; 30];
        lifetimes.extend(representative_lifetimes(30, 5).into_iter().map(|t| t / 2.0));
        let outcome = fit_cell(&lifetimes, &FitOptions::default()).unwrap();
        for c in &outcome.candidates {
            assert!(c.log_likelihood.is_finite(), "{c:?}");
            assert!(c.aic.is_finite(), "{c:?}");
        }
    }

    #[test]
    fn every_winner_materialises() {
        for (family, params, lifetimes) in [
            ("bathtub", vec![0.4, 1.0, 0.8, 24.0], vec![1.0, 2.0]),
            ("exponential", vec![0.2], vec![1.0]),
            ("weibull", vec![0.1, 1.5], vec![1.0]),
            (
                "phased",
                vec![0.17, 3.0, 0.015, 22.0, 0.2, 2.2, 24.0],
                vec![1.0],
            ),
            ("empirical", vec![], vec![1.0, 3.0, 24.0]),
        ] {
            let model = CalibratedModel {
                family: family.to_string(),
                params,
                lifetimes,
            };
            let dist = model.to_distribution(24.0).unwrap();
            assert!(dist.cdf(12.0) >= 0.0);
        }
        let bogus = CalibratedModel {
            family: "psychic".into(),
            params: vec![],
            lifetimes: vec![1.0],
        };
        assert!(bogus.to_distribution(24.0).is_err());
        let short = CalibratedModel {
            family: "weibull".into(),
            params: vec![0.1],
            lifetimes: vec![1.0],
        };
        assert!(short.to_distribution(24.0).is_err());
    }

    #[test]
    fn every_winner_materialises_as_a_lifetime_model() {
        // The bathtub winner keeps its closed forms; every other family tabulates.
        for (family, params, lifetimes, expect_bathtub) in [
            ("bathtub", vec![0.4, 1.0, 0.8, 24.0], vec![1.0, 2.0], true),
            ("exponential", vec![0.2], vec![1.0], false),
            ("weibull", vec![0.1, 1.5], vec![1.0], false),
            (
                "phased",
                vec![0.17, 3.0, 0.015, 22.0, 0.2, 2.2, 24.0],
                vec![1.0],
                false,
            ),
            ("empirical", vec![], vec![1.0, 3.0, 24.0], false),
        ] {
            let model = CalibratedModel {
                family: family.to_string(),
                params,
                lifetimes,
            };
            let lifetime = model.to_lifetime_model(24.0, 241).unwrap();
            assert_eq!(lifetime.family(), family);
            assert_eq!(lifetime.horizon(), 24.0);
            assert_eq!(lifetime.as_bathtub().is_some(), expect_bathtub, "{family}");
            // Survival is a proper constrained curve for every family.
            assert!((lifetime.survival(0.0) - 1.0).abs() < 0.05, "{family}");
            assert_eq!(lifetime.survival(24.0), 0.0, "{family}");
            let w = lifetime.first_moment(24.0);
            assert!(w > 0.0 && w <= 24.0, "{family}: W(L) = {w}");
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let options = FitOptions::default();
        assert!(fit_cell(&[], &options).is_err());
        assert!(fit_cell(&[f64::NAN], &options).is_err());
        assert!(fit_cell(&[-1.0], &options).is_err());
        assert!(fit_cell(&[25.0], &options).is_err());
        let bad = FitOptions {
            ks_threshold: f64::NAN,
            ..FitOptions::default()
        };
        assert!(fit_cell(&[1.0], &bad).is_err());
    }

    /// The two-pass scoring `fit_cell` used before the one-pass `score_sorted`:
    /// `Ecdf::ks_statistic` over `cdf`, then a separate log-likelihood sum over `pdf`.
    fn two_pass_oracle(
        dist: &dyn LifetimeDistribution,
        sorted: &[f64],
        horizon: f64,
    ) -> (f64, f64) {
        let ks = Ecdf::new(sorted).unwrap().ks_statistic(|t| dist.cdf(t));
        let censor_edge = horizon - 1e-9;
        let survive = (1.0 - dist.cdf(horizon - 1e-6)).max(1e-300).ln();
        let ll = sorted
            .iter()
            .map(|&t| {
                if t < censor_edge {
                    dist.pdf(t).max(1e-300).ln()
                } else {
                    survive
                }
            })
            .sum();
        (ks, ll)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn one_pass_scoring_matches_the_two_pass_oracle(
            seed in 0u64..1_000_000,
            n in 1usize..400,
            censored in 0.0f64..0.5,
        ) {
            // A random sorted sample with a random share of deadline records (at the
            // horizon and just either side of the censoring edge), scored by every
            // candidate family at random parameters.
            use rand::Rng;
            let horizon = 24.0;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sorted: Vec<f64> = (0..n)
                .map(|_| match rng.gen::<f64>() {
                    u if u < censored => [horizon, horizon - 1e-9, horizon - 1e-6][rng.gen_range(0..3)],
                    u if u < censored + 0.02 => 0.0,
                    _ => rng.gen_range(0.0..horizon),
                })
                .collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let dists: Vec<Box<dyn LifetimeDistribution>> = vec![
                Box::new(
                    ConstrainedBathtub::from_parts(
                        rng.gen_range(0.05..1.0),
                        rng.gen_range(0.1..5.0),
                        rng.gen_range(0.1..3.0),
                        rng.gen_range(10.0..30.0),
                    )
                    .unwrap(),
                ),
                Box::new(Weibull::new(rng.gen_range(0.01..1.0), rng.gen_range(0.3..3.0)).unwrap()),
                Box::new(Exponential::new(rng.gen_range(0.01..2.0)).unwrap()),
                Box::new(fit_phased(&sorted, horizon).unwrap().1),
                Box::new(EmpiricalLifetime::new(&sorted, Some(horizon)).unwrap()),
            ];
            for dist in &dists {
                let (ks, ll) = score_sorted(dist.as_ref(), &sorted, horizon);
                let (ks_oracle, ll_oracle) = two_pass_oracle(dist.as_ref(), &sorted, horizon);
                assert_eq!(ks.to_bits(), ks_oracle.to_bits(), "{} K-S", dist.name());
                assert_eq!(ll.to_bits(), ll_oracle.to_bits(), "{} LL", dist.name());
            }
        }
    }

    #[test]
    fn grid_is_the_empirical_lifetime_grid() {
        for lifetimes in [
            representative_lifetimes(300, 4),
            vec![5.5; 12],
            vec![0.0; 12],
            vec![24.0; 12],
        ] {
            let ecdf = Ecdf::new(&lifetimes).unwrap();
            let last = *ecdf.sorted_values().last().unwrap();
            let ours = ecdf.on_grid(0.0, 24.0f64.max(last), 200).unwrap();
            let theirs = EmpiricalLifetime::new(&lifetimes, Some(24.0))
                .unwrap()
                .grid(200)
                .unwrap();
            assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn fitting_is_deterministic() {
        let lifetimes = representative_lifetimes(200, 9);
        let a = fit_cell(&lifetimes, &FitOptions::default()).unwrap();
        let b = fit_cell(&lifetimes, &FitOptions::default()).unwrap();
        assert_eq!(a, b);
    }
}
