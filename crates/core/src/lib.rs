//! The paper's primary contribution: the constrained-preemption probability model and the
//! analyses built on top of it.
//!
//! * [`lifetime`] — the lifetime hierarchy every policy consumes: the
//!   [`lifetime::LifetimeModel`] subtrait of [`tcp_dists::LifetimeDistribution`], which
//!   adds what a lifetime under the temporal constraint has — the horizon, the
//!   deadline atom, the first-moment curve, Equation 8's makespan and the phase
//!   boundaries.  The fitted Equation (1) model, [`tcp_dists::ConstrainedBathtub`],
//!   implements it with its closed forms; [`lifetime::TabulatedLifetime`] implements it
//!   by quadrature tables for every other family (Weibull, exponential, phased,
//!   empirical, mixtures) behind the generic-hazard DP.
//! * [`fit`] — fitting the model (and the classical baselines) to observed lifetimes, as in
//!   Figure 1; returns goodness-of-fit diagnostics for every family.
//! * [`analysis`] — the running-time impact analysis of Section 4.1/6.1: expected wasted
//!   work `E[W1(T)]` (Equation 5), expected makespan `E[T]` (Equation 7), and the
//!   comparison against uniformly distributed preemptions (Figure 4).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod analysis;
pub mod fit;
pub mod lifetime;

pub use analysis::{
    expected_increase_in_running_time, expected_makespan, expected_wasted_work,
    uniform_expected_increase, uniform_expected_wasted_work, RunningTimeAnalysis,
};
pub use fit::{fit_bathtub_model, fit_model_comparison, ModelComparison, ModelFit};
pub use lifetime::{AgeCurves, LifetimeCurves, LifetimeModel, TabulatedLifetime};
