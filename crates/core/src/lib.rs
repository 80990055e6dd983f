//! The paper's primary contribution: the constrained-preemption probability model and the
//! analyses built on top of it.
//!
//! * [`model`] — [`model::BathtubModel`]: the fitted Equation (1) model with
//!   its CDF/PDF, expected lifetime (Equation 3) and phase structure.
//! * [`fit`] — fitting the model (and the classical baselines) to observed lifetimes, as in
//!   Figure 1; returns goodness-of-fit diagnostics for every family.
//! * [`analysis`] — the running-time impact analysis of Section 4.1/6.1: expected wasted
//!   work `E[W1(T)]` (Equation 5), expected makespan `E[T]` (Equation 7), age-dependent
//!   makespan `E[T_s]` (Equation 8), and the comparison against uniformly distributed
//!   preemptions (Figure 4).
//! * [`phases`] — empirical phase detection and model-drift change-point detection
//!   (Section 8, "What if preemption characteristics change?").
//! * [`lifetime`] — the model-generic API: the [`lifetime::LifetimeModel`]
//!   trait that carries *every* lifetime family (bathtub, Weibull, exponential, phased,
//!   empirical, mixtures) through the policy stack, and
//!   [`lifetime::TabulatedLifetime`], the quadrature-table adapter
//!   behind the generic-hazard DP.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod analysis;
pub mod fit;
pub mod lifetime;
pub mod model;
pub mod phases;

pub use analysis::{
    expected_increase_in_running_time, expected_makespan, expected_makespan_from_age,
    expected_wasted_work, uniform_expected_increase, uniform_expected_wasted_work,
    RunningTimeAnalysis,
};
pub use fit::{fit_bathtub_model, fit_model_comparison, ModelComparison, ModelFit};
pub use lifetime::{LifetimeCurves, LifetimeModel, SharedLifetimeModel, TabulatedLifetime};
pub use model::BathtubModel;
pub use phases::{detect_phases, ChangePointDetector, PhaseBreakdown};
