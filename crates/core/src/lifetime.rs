//! The model-generic lifetime API: [`LifetimeModel`], [`AgeCurves`] and
//! [`TabulatedLifetime`].
//!
//! The paper's checkpointing DP (Equations 9–13) and policy selection are defined over
//! an *arbitrary* lifetime distribution under the 24 h constraint; only the bathtub fit
//! (Equation 1) happens to have closed forms.  One hierarchy describes a lifetime:
//!
//! * [`tcp_dists::LifetimeDistribution`] — any lifetime law: survival,
//!   CDF, density, hazard, truncated expectations, quantile and sampling;
//! * [`LifetimeModel`] — its subtrait for a *constrained* lifetime, the type every
//!   policy consumes.  It adds the horizon `L`, the first-moment curve
//!   `W(t) = ∫_0^t u f(u) du` (deadline reclamation atom included once `t` reaches `L`)
//!   and the atom itself, Equation 8's age-dependent makespan, the conditional
//!   job-failure probability, phase boundaries and a tabulation hook
//!   ([`LifetimeModel::tabulate`]).
//!
//! Two types implement `LifetimeModel`.  [`ConstrainedBathtub`] does so with its closed
//! forms — the fast path.  [`TabulatedLifetime`] adapts any other distribution (Weibull,
//! exponential, phased, empirical) or weighted mixture to the constrained setting by
//! quadrature: survival and `W` are precomputed once on the [`age_grid`] as
//! [`AgeCurves`] — the one table type the advisor serves from too — and every
//! subsequent query is an interpolated lookup, so the generic-hazard DP runs at table
//! speed for every family.  Unconstrained families never implement `LifetimeModel`
//! themselves, so by type they reach the DP only with their deadline atom added.

use std::sync::Arc;
use tcp_dists::{ConstrainedBathtub, LifetimeDistribution};
use tcp_numerics::interp::{linspace, LinearInterp};
use tcp_numerics::{NumericsError, Result};

/// Default number of knots on an [`age_grid`] (one-minute spacing over a 24 h horizon).
pub const DEFAULT_TABLE_POINTS: usize = 1441;

/// The age grid of every tabulated lifetime: `points` (at least 8) knots on `[0, horizon]`.
pub fn age_grid(horizon: f64, points: usize) -> Vec<f64> {
    linspace(0.0, horizon, points.max(8))
}

/// `survival` at `t` under the temporal constraint: zero at and past the horizon,
/// clamped to `[0, 1]` below it.
fn constrained_survival(t: f64, horizon: f64, survival: impl FnOnce(f64) -> f64) -> f64 {
    if t >= horizon {
        0.0
    } else {
        survival(t).clamp(0.0, 1.0)
    }
}

/// A lifetime (time-to-preemption) model under a temporal constraint `L`: a
/// [`LifetimeDistribution`] plus the quantities only a *constrained* lifetime has, which
/// the paper's policies are built on.
///
/// Survival, CDF, hazard, truncated expectations, quantiles and sampling come from the
/// supertrait.  Implementations must provide the family, horizon, first moment,
/// deadline atom and conditional failure probability; everything else has a default.
/// Unconstrained families (exponential, Weibull, …) do not implement this trait: they
/// reach the policies only through [`TabulatedLifetime`], which adds their deadline atom.
pub trait LifetimeModel: LifetimeDistribution {
    /// Family name (`bathtub`, `weibull`, `exponential`, `phased`, `empirical`,
    /// `mixture`, …) — recorded in packs and reports.
    fn family(&self) -> &str;

    /// The temporal constraint `L` in hours (24 for GCP Preemptible VMs).
    fn horizon(&self) -> f64;

    /// First-moment curve `W(t) = ∫_0^t u f(u) du`, *including* the deadline
    /// reclamation atom once `t` reaches the horizon — so `W(L)` is the full expected
    /// lifetime and Equation 8's makespan decomposes as
    /// `E[T_s] = T + W(min(s+T, L)) − W(s)`.
    fn first_moment(&self, t: f64) -> f64;

    /// Probability mass reclaimed exactly at the deadline (survivors killed at `L`).
    fn deadline_atom(&self) -> f64;

    /// Equation 8: expected makespan of a job of length `job_len` starting at VM age
    /// `vm_age`, `E[T_s] = T + W(min(s+T, L)) − W(s)` (single-preemption form).
    fn makespan_from_age(&self, vm_age: f64, job_len: f64) -> f64 {
        let s = vm_age.max(0.0);
        job_len + self.partial_expectation(s, s + job_len.max(0.0))
    }

    /// Probability that a job of length `job_len` starting at VM age `start` is
    /// preempted before finishing, conditioned on the VM being alive at `start`.  Jobs
    /// that would cross the deadline fail with certainty.
    fn conditional_failure_probability(&self, start: f64, job_len: f64) -> f64;

    /// Approximate phase boundaries `(early_end, deadline_start)` — the "walls of the
    /// bathtub".  Default: scan the hazard curve for where it first drops to (and last
    /// rises from) twice its mid-life minimum.  Families with fitted phase structure
    /// override with their closed form.
    fn phase_boundaries(&self) -> (f64, f64) {
        let horizon = self.horizon();
        let steps = 480usize;
        let hazards: Vec<f64> = (0..=steps)
            .map(|i| {
                let t = i as f64 * horizon / steps as f64;
                self.hazard(t.min(horizon - 1e-9).max(0.0))
            })
            .collect();
        // Mid-life floor: the minimum finite hazard over the middle 80 % of life.
        let lo = steps / 10;
        let hi = steps - steps / 10;
        let floor = hazards[lo..=hi]
            .iter()
            .copied()
            .filter(|h| h.is_finite())
            .fold(f64::INFINITY, f64::min);
        let threshold = if floor.is_finite() {
            (2.0 * floor).max(1e-9)
        } else {
            return (0.125 * horizon, 11.0 / 12.0 * horizon);
        };
        let mut early_end = 0.0;
        for (i, &h) in hazards[..=hi].iter().enumerate() {
            if h.is_finite() && h <= threshold {
                early_end = i as f64 * horizon / steps as f64;
                break;
            }
        }
        let mut deadline_start = horizon;
        for (i, &h) in hazards.iter().enumerate().rev() {
            if h.is_finite() && h <= threshold {
                deadline_start = i as f64 * horizon / steps as f64;
                break;
            }
        }
        let early_end = early_end.clamp(0.0, 0.5 * horizon);
        let deadline_start = deadline_start.clamp(early_end, horizon);
        (early_end, deadline_start)
    }

    /// The closed-form bathtub fit behind this model, when that is what the model is —
    /// lets pack builders record the Equation 1 parameters next to generic tables
    /// without downcasting.  `None` for every other family.
    fn as_bathtub(&self) -> Option<&ConstrainedBathtub> {
        None
    }

    /// Tabulates survival and `W` on an age grid — the serving-layer hook.
    ///
    /// Survival is forced to zero at (and past) the horizon; `W` carries the deadline
    /// atom once the grid reaches it (both already hold for any correct
    /// [`survival`](LifetimeDistribution::survival)/[`first_moment`](LifetimeModel::first_moment)
    /// pair — the clamp makes the contract explicit at the table boundary).
    fn tabulate(&self, ages: &[f64]) -> LifetimeCurves {
        LifetimeCurves {
            survival: ages
                .iter()
                .map(|&t| constrained_survival(t, self.horizon(), |t| self.survival(t)))
                .collect(),
            first_moment: ages
                .iter()
                .map(|&t| self.first_moment(t).max(0.0))
                .collect(),
        }
    }
}

/// Dense survival and first-moment curves on an age grid, as produced by
/// [`LifetimeModel::tabulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeCurves {
    /// `S(age)` per grid knot.
    pub survival: Vec<f64>,
    /// `W(age)` per grid knot.
    pub first_moment: Vec<f64>,
}

/// Survival `S` and first moment `W` of one constrained lifetime on an age grid, as
/// interpolants: Equation 8 and the conditional failure probability over tables.
#[derive(Debug, Clone)]
pub struct AgeCurves {
    horizon: f64,
    survival: LinearInterp,
    first_moment: LinearInterp,
}

impl AgeCurves {
    /// Interpolants over `S` and `W` sampled on `ages` (strictly increasing, `[0, L]`).
    pub fn new(ages: Vec<f64>, s: Vec<f64>, w: Vec<f64>, horizon: f64) -> Result<Self> {
        Ok(AgeCurves {
            horizon,
            survival: LinearInterp::new(ages.clone(), s)?,
            first_moment: LinearInterp::new(ages, w)?,
        })
    }

    /// The temporal constraint `L` in hours.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// `S(t)`, clamped to `[0, 1]`; zero at and past the horizon.
    #[inline]
    pub fn survival(&self, t: f64) -> f64 {
        constrained_survival(t, self.horizon, |t| self.survival.eval(t.max(0.0)))
    }

    /// `W(t)`, non-negative, with `t` clamped to `[0, L]`.
    #[inline]
    fn first_moment(&self, t: f64) -> f64 {
        self.first_moment.eval(t.clamp(0.0, self.horizon)).max(0.0)
    }

    /// Equation 8, `E[T_s] = T + W(min(s+T, L)) − W(s)`, evaluated as
    /// `(T + W(u)) − W(s)` with `s = min(age, L)` and `u = min(age + T, L)`.  The `min`
    /// does not resolve the deadline kink exactly (ROADMAP item 16): the truth jumps at
    /// `s + T = L`, while the tables ramp the atom in over the last knot interval below
    /// `L`, reading up to `L·S(L⁻)` high there (+2.36 h on the `paper` regime).
    #[inline]
    pub fn makespan(&self, age: f64, job_len: f64) -> f64 {
        let s = age.min(self.horizon);
        let u = (age + job_len).min(self.horizon);
        job_len + self.first_moment(u) - self.first_moment(s)
    }

    /// Conditional job-failure probability `1 − S(s+T)/S(s)`, certain once `age + T ≥ L`.
    /// On a grid storing `S(L) = 0` it reads up to 0.18 high for `age + T` in the last
    /// knot interval below `L` (ROADMAP item 16).
    #[inline]
    pub fn failure_probability(&self, age: f64, job_len: f64) -> f64 {
        if age + job_len >= self.horizon {
            return 1.0;
        }
        let alive = self.survival(age);
        if alive <= 1e-12 {
            return 1.0;
        }
        ((alive - self.survival(age + job_len)) / alive).clamp(0.0, 1.0)
    }
}

/// A lifetime model materialised as quadrature tables on a dense age grid.
///
/// This is how every non-bathtub family enters the policy stack: the source
/// distribution's survival and first moment are tabulated once under the temporal
/// constraint (survival drops to zero at the horizon; any mass an *unconstrained*
/// family leaves past the horizon becomes a reclamation atom at the deadline), and all
/// [`LifetimeModel`] queries are [`AgeCurves`] lookups from then on.
pub struct TabulatedLifetime {
    family: String,
    atom: f64,
    curves: AgeCurves,
}

impl std::fmt::Debug for TabulatedLifetime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabulatedLifetime")
            .field("family", &self.family)
            .field("horizon", &self.curves.horizon)
            .field("atom", &self.atom)
            .field("knots", &self.curves.survival.len())
            .finish()
    }
}

/// The probability mass sitting at the deadline once `dist` is constrained to
/// `horizon`: everything not preempted strictly before `L`.
fn deadline_mass(dist: &dyn LifetimeDistribution, horizon: f64) -> f64 {
    (1.0 - dist.cdf(horizon - 1e-9)).clamp(0.0, 1.0)
}

impl TabulatedLifetime {
    /// Tabulates `dist` under the temporal constraint `horizon` on a uniform grid of
    /// `points` knots, recording `family` as the model's family name.
    pub fn from_distribution(
        family: impl Into<String>,
        dist: &dyn LifetimeDistribution,
        horizon: f64,
        points: usize,
    ) -> Result<Self> {
        Self::from_weighted(family, [(1.0, dist)], horizon, points)
    }

    /// Tabulates a weighted mixture of distributions (the pooled-fallback model);
    /// weights must be non-negative and sum to one.  Survival and `W` are both linear
    /// in the mixture, so the tables are exactly the weighted sums of the per-component
    /// tabulations.
    pub fn from_mixture(
        components: &[(f64, Arc<dyn LifetimeDistribution>)],
        horizon: f64,
        points: usize,
    ) -> Result<Self> {
        if components.is_empty() {
            return Err(NumericsError::invalid(
                "mixture needs at least one component",
            ));
        }
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        if components.iter().any(|(w, _)| !(*w >= 0.0)) || (total - 1.0).abs() > 1e-6 {
            return Err(NumericsError::invalid(format!(
                "mixture weights must be non-negative and sum to one (sum = {total})"
            )));
        }
        let components = components.iter().map(|(w, d)| (*w, d.as_ref()));
        Self::from_weighted("mixture", components, horizon, points)
    }

    /// Tabulates `S` and `W(t) = ∫_0^t u f(u) du` of `Σ weight · component` on the
    /// [`age_grid`]; one distribution is the one-component sum, bit for bit its own.
    fn from_weighted<'a>(
        family: impl Into<String>,
        components: impl IntoIterator<Item = (f64, &'a dyn LifetimeDistribution)>,
        horizon: f64,
        points: usize,
    ) -> Result<Self> {
        if !(horizon > 0.0) || !horizon.is_finite() {
            return Err(NumericsError::invalid("horizon must be positive"));
        }
        let ages = age_grid(horizon, points);
        let last = ages.len() - 1;
        let mut survival = vec![0.0; ages.len()];
        let mut first_moment = vec![0.0; ages.len()];
        let mut atom = 0.0;
        for (weight, dist) in components {
            // W is additive over segments, so it accumulates in O(grid).  The last
            // segment stops just short of `L` (the only knot the `min` moves), so no
            // family's own deadline handling sneaks its atom in; all mass not preempted
            // strictly before `L` is then reclaimed *at* `L`, once, so Equation 8
            // penalises deadline-crossing jobs for every family alike.
            let mass = deadline_mass(dist, horizon);
            let mut acc = 0.0;
            for (i, &t) in ages.iter().enumerate() {
                survival[i] += weight * constrained_survival(t, horizon, |t| dist.survival(t));
                if i > 0 {
                    acc += dist
                        .partial_expectation(ages[i - 1], t.min(horizon - 1e-9))
                        .max(0.0);
                }
                first_moment[i] += weight * if i == last { acc + mass * horizon } else { acc };
            }
            atom += weight * mass;
        }
        // The table stores the continuous limit S(L⁻) at the horizon knot, so lookups
        // just below the deadline see the atom, not a ramp to zero across the last cell:
        // that keeps the generic-hazard DP near the closed form on deadline-crossing
        // windows.  `survival()` and the `tabulate`d served curves still read 0 at `L`.
        survival[last] = atom;
        Self::from_curves(family, &ages, survival, first_moment, horizon, atom)
    }

    /// Builds a tabulated model from the constructors' curves.  The age grid must be
    /// strictly increasing and reach the horizon, and `W` must be non-decreasing.  The
    /// survival curve's last knot holds the continuous limit `S(L⁻)` — the deadline atom
    /// — not zero; [`survival`](LifetimeDistribution::survival) still reads zero at the
    /// horizon.
    fn from_curves(
        family: impl Into<String>,
        ages: &[f64],
        survival: Vec<f64>,
        first_moment: Vec<f64>,
        horizon: f64,
        deadline_atom: f64,
    ) -> Result<Self> {
        let family = family.into();
        if family.is_empty() {
            return Err(NumericsError::invalid("family name must not be empty"));
        }
        if !(0.0..=1.0 + 1e-9).contains(&deadline_atom) {
            return Err(NumericsError::invalid("deadline atom must lie in [0, 1]"));
        }
        if first_moment.windows(2).any(|w| w[1] < w[0] - 1e-9) {
            return Err(NumericsError::invalid(
                "first-moment curve must be non-decreasing",
            ));
        }
        Ok(TabulatedLifetime {
            family,
            atom: deadline_atom.clamp(0.0, 1.0),
            curves: AgeCurves::new(ages.to_vec(), survival, first_moment, horizon)?,
        })
    }
}

/// The constrained law the tables describe: survival is the table lookup, and the CDF,
/// truncated expectations and hazard derive from the survival and `W` tables.  Quantile,
/// sampling and mean come from the trait defaults, which is what makes every tabulated
/// family (and mixture) samplable.
impl LifetimeDistribution for TabulatedLifetime {
    fn name(&self) -> &'static str {
        "tabulated"
    }

    fn cdf(&self, t: f64) -> f64 {
        (1.0 - self.survival(t)).clamp(0.0, 1.0)
    }

    fn survival(&self, t: f64) -> f64 {
        self.curves.survival(t)
    }

    /// A centred finite difference of the survival table.
    fn hazard(&self, t: f64) -> f64 {
        let s = self.survival(t);
        if s <= 1e-12 {
            return f64::INFINITY;
        }
        let h = 1e-4 * self.curves.horizon.max(1.0);
        let lo = (t - h).max(0.0);
        let hi = (t + h).min(self.curves.horizon);
        if hi <= lo {
            return f64::INFINITY;
        }
        let density = ((self.survival(lo) - self.survival(hi)) / (hi - lo)).max(0.0);
        density / s
    }

    fn upper_bound(&self) -> f64 {
        self.curves.horizon
    }

    /// A difference of [`first_moment`](LifetimeModel::first_moment) lookups (atom
    /// included when `b` reaches the horizon).
    fn partial_expectation(&self, a: f64, b: f64) -> f64 {
        let a = a.max(0.0).min(self.curves.horizon);
        let b = b.max(0.0).min(self.curves.horizon);
        if b <= a {
            return 0.0;
        }
        (self.first_moment(b) - self.first_moment(a)).max(0.0)
    }
}

impl LifetimeModel for TabulatedLifetime {
    fn family(&self) -> &str {
        &self.family
    }

    fn horizon(&self) -> f64 {
        self.curves.horizon
    }

    fn first_moment(&self, t: f64) -> f64 {
        self.curves.first_moment(t)
    }

    fn deadline_atom(&self) -> f64 {
        self.atom
    }

    fn makespan_from_age(&self, vm_age: f64, job_len: f64) -> f64 {
        self.curves.makespan(vm_age, job_len)
    }

    fn conditional_failure_probability(&self, start: f64, job_len: f64) -> f64 {
        self.curves.failure_probability(start, job_len)
    }
}

/// The closed-form fast path: every quantity evaluates through Equation 1's
/// antiderivatives, so the generic-hazard DP and Equation 8 run on the bathtub's exact
/// arithmetic.
impl LifetimeModel for ConstrainedBathtub {
    fn family(&self) -> &str {
        "bathtub"
    }

    fn horizon(&self) -> f64 {
        self.params().horizon
    }

    fn first_moment(&self, t: f64) -> f64 {
        self.partial_expectation(0.0, t)
    }

    fn deadline_atom(&self) -> f64 {
        ConstrainedBathtub::deadline_atom(self)
    }

    /// The interval probability `F(s+T) − F(s)` over the survival `S(s)`.
    fn conditional_failure_probability(&self, start: f64, job_len: f64) -> f64 {
        let alive = self.survival(start);
        if alive <= 1e-12 {
            return 1.0;
        }
        let fail_mass = self.interval_probability(start, (start + job_len).min(self.horizon()));
        // jobs that would run past the deadline always fail
        if start + job_len >= self.horizon() {
            return 1.0;
        }
        (fail_mass / alive).clamp(0.0, 1.0)
    }

    /// The early phase ends once the initial process has decayed (3·τ1, capped at half
    /// the horizon), and the deadline phase starts where the deadline term's preemption
    /// rate climbs back to the rate observed at the end of the early phase — the
    /// symmetric "walls of the bathtub" criterion.
    fn phase_boundaries(&self) -> (f64, f64) {
        let p = self.params();
        let early_end = (3.0 * p.tau1).min(0.5 * p.horizon);
        // Rate at the end of the early phase, from the initial (decaying) process.
        let reference_rate = (p.a / p.tau1) * (-early_end / p.tau1).exp();
        // Deadline term alone: (A/τ2) e^{(t−b)/τ2} = reference_rate  ⇒  closed form for t.
        let deadline_start = if reference_rate > 0.0 {
            p.b + p.tau2 * (reference_rate * p.tau2 / p.a).ln()
        } else {
            0.9 * p.horizon
        };
        let deadline_start = deadline_start.clamp(early_end, p.horizon);
        (early_end, deadline_start)
    }

    fn as_bathtub(&self) -> Option<&ConstrainedBathtub> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_dists::{Exponential, PhasedHazard, Weibull};

    #[test]
    fn bathtub_closed_forms_drive_the_trait() {
        let m = ConstrainedBathtub::paper_representative();
        let model: &dyn LifetimeModel = &m;
        assert_eq!(model.family(), "bathtub");
        assert_eq!(model.horizon(), 24.0);
        assert_eq!(model.as_bathtub(), Some(&m));
        // The upcast distribution is the same closed form, and W is its first moment.
        let dist: &dyn LifetimeDistribution = model;
        for &t in &[0.0, 1.0, 8.0, 20.0, 23.9, 24.0] {
            assert_eq!(dist.survival(t), m.survival(t));
            assert_eq!(model.first_moment(t), m.partial_expectation(0.0, t));
        }
        assert_eq!(model.deadline_atom(), m.deadline_atom());
        assert_eq!(model.first_moment(24.0), m.mean());
        assert!(m.mean() > 5.0 && m.mean() < 20.0, "mean = {}", m.mean());
        // Equation 8: E[T_s] = T + ∫_s^{s+T} t f(t) dt.
        assert_eq!(
            model.makespan_from_age(3.0, 5.0),
            5.0 + m.partial_expectation(3.0, 8.0)
        );
    }

    #[test]
    fn bathtub_conditional_failure_probability_behaviour() {
        let m = ConstrainedBathtub::paper_representative();
        // jobs crossing the deadline always fail
        assert_eq!(m.conditional_failure_probability(20.0, 6.0), 1.0);
        assert_eq!(m.conditional_failure_probability(23.9, 0.5), 1.0);
        // a job on a brand-new VM has a substantial failure probability (early phase)
        let fresh = m.conditional_failure_probability(0.0, 6.0);
        assert!(fresh > 0.2 && fresh < 0.9, "fresh = {fresh}");
        // the same job on a VM that survived the early phase is much safer
        let aged = m.conditional_failure_probability(6.0, 6.0);
        assert!(aged < fresh, "aged {aged} fresh {fresh}");
        // probabilities are in [0, 1]
        for s in 0..24 {
            for len in 1..12 {
                let p = m.conditional_failure_probability(s as f64, len as f64);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn bathtub_interval_probability_additive() {
        let m = ConstrainedBathtub::paper_representative();
        let whole = m.interval_probability(0.0, 24.0);
        let split = m.interval_probability(0.0, 8.0)
            + m.interval_probability(8.0, 16.0)
            + m.interval_probability(16.0, 24.0);
        assert!((whole - split).abs() < 1e-9);
        assert!((whole - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bathtub_phase_boundaries_ordering() {
        let m = ConstrainedBathtub::paper_representative();
        let (early_end, deadline_start) = m.phase_boundaries();
        assert!(
            early_end > 0.5 && early_end < 6.0,
            "early_end = {early_end}"
        );
        assert!(
            deadline_start > 15.0 && deadline_start < 24.0,
            "deadline_start = {deadline_start}"
        );
        assert!(early_end < deadline_start);
        // hazard at the boundaries reflects the bathtub: middle lower than both ends
        let mid = 0.5 * (early_end + deadline_start);
        assert!(m.hazard(mid) < m.hazard(0.1));
        assert!(m.hazard(mid) < m.hazard(23.8));
    }

    #[test]
    fn bathtub_representative_model_quantities() {
        let m = ConstrainedBathtub::paper_representative();
        let model: &dyn LifetimeModel = &m;
        assert_eq!(model.horizon(), tcp_dists::DEFAULT_HORIZON_HOURS);
        assert_eq!(m.cdf(0.0), 0.0);
        assert_eq!(m.cdf(24.0), 1.0);
        assert!(m.mean() > 5.0 && m.mean() < 20.0);
        assert!(m.expected_lifetime_eq3() <= m.mean());
    }

    #[test]
    fn bathtub_from_parts_and_params_round_trip() {
        let m = ConstrainedBathtub::from_parts(0.45, 1.2, 0.8, 23.5).unwrap();
        let p = m.params();
        assert_eq!(p.a, 0.45);
        assert_eq!(p.tau1, 1.2);
        assert_eq!(p.horizon, 24.0);
        assert!(ConstrainedBathtub::from_parts(2.0, 1.0, 0.8, 24.0).is_err());
        let model: &dyn LifetimeModel = &m;
        assert_eq!(model.as_bathtub().map(|b| b.params()), Some(p));
    }

    #[test]
    fn bathtub_sampling_within_horizon() {
        let m = ConstrainedBathtub::paper_representative();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let t = m.sample(&mut rng);
            assert!((0.0..=24.0).contains(&t));
        }
    }

    /// Draws lifetimes through [`LifetimeDistribution::sample`] and checks them against
    /// the tables: the support, the deadline atom's share, and the K-S distance to `cdf`.
    fn check_tabulated_sampling(tab: &TabulatedLifetime, seed: u64) {
        let n = 4000;
        let n_f = n as f64;
        let horizon = tab.horizon();
        let dist: &dyn LifetimeDistribution = tab;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        assert!(xs.iter().all(|t| (0.0..=horizon).contains(t)));
        // Inverting the CDF's jump at L lands within the root tolerance of L.
        for x in &mut xs {
            if *x > horizon - 1e-6 {
                *x = horizon;
            }
        }
        let atom = tab.deadline_atom();
        let share = xs.iter().filter(|&&t| t == horizon).count() as f64 / n_f;
        let sigma = (atom * (1.0 - atom) / n_f).sqrt();
        assert!(
            (share - atom).abs() <= 4.0 * sigma,
            "{}: share at L {share} vs atom {atom}",
            tab.family()
        );
        // One-sided K-S statistics; at the atom the left limit F(L⁻) is the reference.
        xs.sort_by(f64::total_cmp);
        let mut ks: f64 = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            let left = if x >= horizon {
                tab.cdf(horizon - 1e-9)
            } else {
                tab.cdf(x)
            };
            ks = ks
                .max((i + 1) as f64 / n_f - tab.cdf(x))
                .max(left - i as f64 / n_f);
        }
        let critical = 1.628 / n_f.sqrt();
        assert!(ks < critical, "{}: K-S {ks} >= {critical}", tab.family());
    }

    #[test]
    fn tabulated_families_sample_through_the_distribution_trait() {
        let exp = Exponential::new(1.0 / 8.0).unwrap();
        let tab = TabulatedLifetime::from_distribution("exponential", &exp, 24.0, 1441).unwrap();
        assert!(tab.deadline_atom() > 0.04);
        check_tabulated_sampling(&tab, 11);

        let a: Arc<dyn LifetimeDistribution> = Arc::new(Exponential::new(1.0 / 8.0).unwrap());
        let b: Arc<dyn LifetimeDistribution> = Arc::new(Weibull::new(0.1, 1.5).unwrap());
        let mix = TabulatedLifetime::from_mixture(&[(0.3, a), (0.7, b)], 24.0, 1441).unwrap();
        assert!(mix.deadline_atom() > 0.0);
        check_tabulated_sampling(&mix, 12);
    }

    #[test]
    fn tabulated_bathtub_tracks_the_closed_form() {
        let m = ConstrainedBathtub::paper_representative();
        let tab = TabulatedLifetime::from_distribution("bathtub", &m, 24.0, 1441).unwrap();
        for i in 0..=96 {
            let t = i as f64 * 0.25;
            assert!(
                (tab.survival(t) - m.survival(t.min(23.999))).abs() < 2e-3 || t >= 24.0 - 0.25,
                "S({t}) {} vs {}",
                tab.survival(t),
                m.survival(t)
            );
            assert!(
                (tab.first_moment(t) - m.partial_expectation(0.0, t)).abs() < 5e-3,
                "W({t})"
            );
        }
        assert!((tab.deadline_atom() - m.deadline_atom()).abs() < 1e-6);
        assert!((tab.mean() - m.mean()).abs() < 5e-3);
    }

    #[test]
    fn unconstrained_families_gain_a_deadline_atom() {
        let exp = Exponential::new(1.0 / 8.0).unwrap();
        let tab = TabulatedLifetime::from_distribution("exponential", &exp, 24.0, 241).unwrap();
        assert_eq!(tab.survival(24.0), 0.0);
        assert_eq!(tab.survival(30.0), 0.0);
        // The atom is the mass the exponential leaves past 24 h.
        assert!((tab.deadline_atom() - exp.survival(24.0)).abs() < 1e-6);
        // W(L) = E[min(T, L)] for the constrained version.
        let expected = exp.partial_expectation(0.0, 24.0) + exp.survival(24.0) * 24.0;
        assert!((tab.first_moment(24.0) - expected).abs() < 1e-6);
        // Deadline-crossing jobs fail with certainty.
        assert_eq!(tab.conditional_failure_probability(20.0, 6.0), 1.0);
    }

    #[test]
    fn tabulate_hook_round_trips() {
        let w = Weibull::new(0.1, 1.5).unwrap();
        let tab = TabulatedLifetime::from_distribution("weibull", &w, 24.0, 481).unwrap();
        let ages = linspace(0.0, 24.0, 49);
        let curves = tab.tabulate(&ages);
        assert_eq!(curves.survival.len(), 49);
        assert_eq!(*curves.survival.last().unwrap(), 0.0);
        assert!(curves.first_moment.windows(2).all(|p| p[1] >= p[0] - 1e-9));
        // Resampled tables agree with direct lookups.
        for (i, &age) in ages.iter().enumerate() {
            assert!((curves.survival[i] - tab.survival(age)).abs() < 1e-12);
            assert!((curves.first_moment[i] - tab.first_moment(age)).abs() < 1e-12);
        }
    }

    #[test]
    fn mixture_is_the_weighted_sum() {
        let a: Arc<dyn LifetimeDistribution> = Arc::new(Exponential::new(0.2).unwrap());
        let b: Arc<dyn LifetimeDistribution> = Arc::new(PhasedHazard::representative());
        let mix =
            TabulatedLifetime::from_mixture(&[(0.25, a.clone()), (0.75, b.clone())], 24.0, 241)
                .unwrap();
        assert_eq!(mix.family(), "mixture");
        for &t in &[0.5, 4.0, 12.0, 20.0] {
            let expected = 0.25 * a.survival(t) + 0.75 * b.survival(t);
            assert!((mix.survival(t) - expected).abs() < 1e-9, "S({t})");
        }
        // Bad weights are rejected.
        assert!(TabulatedLifetime::from_mixture(&[(0.5, a.clone())], 24.0, 64).is_err());
        assert!(TabulatedLifetime::from_mixture(&[], 24.0, 64).is_err());
    }

    #[test]
    fn phased_phase_boundaries_recovered_from_hazard() {
        let tab = TabulatedLifetime::from_distribution(
            "phased",
            &PhasedHazard::representative(),
            24.0,
            1441,
        )
        .unwrap();
        let (early_end, deadline_start) = tab.phase_boundaries();
        // Ground truth: early phase ends at 3 h, deadline phase starts at 22 h.
        assert!(
            early_end > 1.0 && early_end < 6.0,
            "early_end = {early_end}"
        );
        assert!(
            deadline_start > 18.0 && deadline_start <= 24.0,
            "deadline_start = {deadline_start}"
        );
        assert!(early_end < deadline_start);
    }

    #[test]
    fn from_curves_validation() {
        let ages = [0.0, 12.0, 24.0];
        let ok = TabulatedLifetime::from_curves(
            "empirical",
            &ages,
            vec![1.0, 0.5, 0.0],
            vec![0.0, 3.0, 8.0],
            24.0,
            0.1,
        );
        assert!(ok.is_ok());
        // Mismatched grids, empty family, decreasing W, bad atom.
        assert!(TabulatedLifetime::from_curves(
            "x",
            &ages,
            vec![1.0, 0.0],
            vec![0.0, 1.0, 2.0],
            24.0,
            0.0
        )
        .is_err());
        assert!(TabulatedLifetime::from_curves(
            "",
            &ages,
            vec![1.0, 0.5, 0.0],
            vec![0.0, 1.0, 2.0],
            24.0,
            0.0
        )
        .is_err());
        assert!(TabulatedLifetime::from_curves(
            "x",
            &ages,
            vec![1.0, 0.5, 0.0],
            vec![0.0, 2.0, 1.0],
            24.0,
            0.0
        )
        .is_err());
        assert!(TabulatedLifetime::from_curves(
            "x",
            &ages,
            vec![1.0, 0.5, 0.0],
            vec![0.0, 1.0, 2.0],
            24.0,
            1.5
        )
        .is_err());
    }

    #[test]
    fn default_hazard_matches_closed_form_roughly() {
        let m = ConstrainedBathtub::paper_representative();
        let tab = TabulatedLifetime::from_distribution("bathtub", &m, 24.0, 2881).unwrap();
        for &t in &[0.5, 4.0, 12.0, 20.0] {
            let approx = tab.hazard(t);
            let exact = m.hazard(t);
            assert!(
                (approx - exact).abs() < 0.15 * exact.max(0.05),
                "h({t}): {approx} vs {exact}"
            );
        }
    }
}
