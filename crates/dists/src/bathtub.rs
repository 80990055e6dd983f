//! The paper's constrained-preemption ("bathtub") distribution — Equation (1).
//!
//! ```text
//! F(t) = A ( 1 − e^{−t/τ1} + e^{(t−b)/τ2} ),   0 ≤ t ≤ L
//! f(t) = A ( (1/τ1) e^{−t/τ1} + (1/τ2) e^{(t−b)/τ2} )
//! ```
//!
//! The model superposes two failure processes: an early, memoryless reclamation process
//! with rate `1/τ1` that dominates right after launch, and a deadline-driven reclamation
//! process with rate `1/τ2` that "activates" around `t = b ≈ L = 24` hours.  Typical fitted
//! values reported in the paper are `τ1 ∈ [0.5, 1.5]`, `τ2 ≈ 0.8`, `b ≈ 24`, `A ∈ [0.4, 0.5]`.
//!
//! Equation (1) is not automatically a proper CDF: the raw expression may not reach exactly
//! one at the horizon `L`.  Because every constrained VM *is* preempted by `L`, we interpret
//! any residual mass `1 − F(L⁻)` as an atom at the deadline itself (the provider reclaims
//! all survivors at 24 h).  The [`LifetimeDistribution`] implementation accounts for this
//! atom in `cdf`, `mean` and sampling, while [`ConstrainedBathtub::raw_cdf`] and
//! [`ConstrainedBathtub::expected_lifetime_eq3`] expose the paper's exact expressions.

use crate::LifetimeDistribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Parameters of the constrained-bathtub distribution (Equation 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BathtubParams {
    /// Scaling constant `A`.
    pub a: f64,
    /// Initial-phase mean time between preemptions `τ1` (hours).
    pub tau1: f64,
    /// Deadline-phase time constant `τ2` (hours).
    pub tau2: f64,
    /// Activation point of the deadline process `b` (hours), typically ≈ 24.
    pub b: f64,
    /// Temporal constraint (maximum lifetime) `L` in hours, typically 24.
    pub horizon: f64,
}

impl BathtubParams {
    /// Representative parameters for an `n1-highcpu-16` VM in `us-east1-b`, matching the
    /// qualitative fit values reported in Section 3.2.2.
    pub fn paper_representative() -> Self {
        BathtubParams {
            a: 0.45,
            tau1: 1.0,
            tau2: 0.8,
            b: 24.0,
            horizon: 24.0,
        }
    }
}

/// The constrained-preemption bathtub distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstrainedBathtub {
    params: BathtubParams,
    /// Time at which the raw CDF saturates at one (≤ horizon).
    saturation: f64,
}

impl ConstrainedBathtub {
    /// Creates a constrained-bathtub distribution from its parameters.
    ///
    /// Requirements: `0 < a <= 1`, `tau1 > 0`, `tau2 > 0`, `b > 0`, `horizon > 0`.
    pub fn new(params: BathtubParams) -> Result<Self> {
        let BathtubParams {
            a,
            tau1,
            tau2,
            b,
            horizon,
        } = params;
        for (name, v) in [
            ("a", a),
            ("tau1", tau1),
            ("tau2", tau2),
            ("b", b),
            ("horizon", horizon),
        ] {
            if !v.is_finite() {
                return Err(NumericsError::non_finite(format!(
                    "bathtub parameter {name}"
                )));
            }
        }
        if !(a > 0.0 && a <= 1.0) {
            return Err(NumericsError::invalid(format!(
                "A must lie in (0, 1], got {a}"
            )));
        }
        if tau1 <= 0.0 || tau2 <= 0.0 {
            return Err(NumericsError::invalid("tau1 and tau2 must be positive"));
        }
        if b <= 0.0 || horizon <= 0.0 {
            return Err(NumericsError::invalid("b and horizon must be positive"));
        }
        let mut dist = ConstrainedBathtub {
            params,
            saturation: horizon,
        };
        dist.saturation = dist.compute_saturation();
        Ok(dist)
    }

    /// Convenience constructor from the individual parameters with the default 24 h horizon.
    pub fn from_parts(a: f64, tau1: f64, tau2: f64, b: f64) -> Result<Self> {
        ConstrainedBathtub::new(BathtubParams {
            a,
            tau1,
            tau2,
            b,
            horizon: crate::DEFAULT_HORIZON_HOURS,
        })
    }

    /// The representative fit quoted in Section 3.2.2 (`A=0.45, τ1=1, τ2=0.8, b=24`).
    pub fn paper_representative() -> Self {
        ConstrainedBathtub::new(BathtubParams::paper_representative()).expect("valid params")
    }

    /// The distribution parameters.
    pub fn params(&self) -> BathtubParams {
        self.params
    }

    /// The paper's raw CDF expression (Equation 1), not clamped to `[0, 1]`.
    pub fn raw_cdf(&self, t: f64) -> f64 {
        let p = &self.params;
        p.a * (1.0 - (-t / p.tau1).exp() + ((t - p.b) / p.tau2).exp())
    }

    /// The paper's PDF expression (Equation 2).
    pub fn raw_pdf(&self, t: f64) -> f64 {
        let p = &self.params;
        p.a * ((-t / p.tau1).exp() / p.tau1 + ((t - p.b) / p.tau2).exp() / p.tau2)
    }

    /// Offset of the raw CDF at `t = 0`; well-fitted parameter sets keep this near zero
    /// (the `F(0) ≈ 0` boundary condition described in the paper).
    pub fn f0_offset(&self) -> f64 {
        self.raw_cdf(0.0)
    }

    /// Probability mass concentrated exactly at the deadline (survivors reclaimed at `L`).
    pub fn deadline_atom(&self) -> f64 {
        if self.saturation < self.params.horizon {
            0.0
        } else {
            (1.0 - self.raw_cdf(self.params.horizon)).max(0.0)
        }
    }

    /// Closed-form antiderivative of `t f(t)` (the bracketed expression in Equation 3).
    fn partial_expectation_antiderivative(&self, t: f64) -> f64 {
        let p = &self.params;
        p.a * (-(t + p.tau1) * (-t / p.tau1).exp() + (t - p.tau2) * ((t - p.b) / p.tau2).exp())
    }

    /// The paper's expected-lifetime expression (Equation 3): `∫_0^L t f(t) dt` using the
    /// raw (unclamped) density.  This ignores any residual deadline atom, exactly as in the
    /// paper.
    // lint:allow(dead-api) Eq. 3 reference for bathtub tests and tcp-core lifetime tests
    pub fn expected_lifetime_eq3(&self) -> f64 {
        self.partial_expectation_antiderivative(self.params.horizon)
            - self.partial_expectation_antiderivative(0.0)
    }

    fn compute_saturation(&self) -> f64 {
        let horizon = self.params.horizon;
        if self.raw_cdf(horizon) <= 1.0 {
            return horizon;
        }
        // raw CDF crosses 1 before the horizon: find the crossing point.
        let f = |t: f64| self.raw_cdf(t) - 1.0;
        tcp_numerics::roots::brent(f, 0.0, horizon, tcp_numerics::roots::RootConfig::default())
            .unwrap_or(horizon)
    }
}

impl LifetimeDistribution for ConstrainedBathtub {
    fn name(&self) -> &'static str {
        "constrained-bathtub"
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        if t >= self.params.horizon {
            return 1.0;
        }
        if t >= self.saturation {
            return 1.0;
        }
        // Subtract the (small) t=0 offset so F(0) = 0 exactly, then clamp.
        let raw = self.raw_cdf(t) - self.f0_offset();
        raw.clamp(0.0, 1.0)
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 || t > self.params.horizon || t > self.saturation {
            return 0.0;
        }
        self.raw_pdf(t)
    }

    fn upper_bound(&self) -> f64 {
        self.params.horizon
    }

    fn mean(&self) -> f64 {
        // partial_expectation over the full support already includes the deadline atom
        self.partial_expectation(0.0, self.params.horizon)
    }

    fn partial_expectation(&self, a: f64, b: f64) -> f64 {
        // E[T · 1{a < T ≤ b}] for the mixed distribution: the continuous (Equation 2)
        // density up to the saturation point, plus the reclamation atom at the horizon when
        // the interval reaches it.  Including the atom here is what makes Equation 8's
        // makespan expression correctly penalise jobs that would cross the deadline.
        let a = a.max(0.0);
        let b_cont = b.min(self.saturation).min(self.params.horizon);
        let mut value = if b_cont > a {
            self.partial_expectation_antiderivative(b_cont)
                - self.partial_expectation_antiderivative(a)
        } else {
            0.0
        };
        if b >= self.params.horizon && a < self.params.horizon {
            value += self.deadline_atom() * self.params.horizon;
        }
        value
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let raw_end = (self.raw_cdf(self.saturation) - self.f0_offset()).min(1.0);
        if u >= raw_end {
            // lands in the deadline atom (or exactly at saturation)
            return if self.saturation < self.params.horizon {
                self.saturation
            } else {
                self.params.horizon
            };
        }
        let f = |t: f64| (self.raw_cdf(t) - self.f0_offset()) - u;
        tcp_numerics::roots::brent(
            f,
            0.0,
            self.saturation,
            tcp_numerics::roots::RootConfig::default(),
        )
        .unwrap_or(self.saturation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_numerics::stats::Ecdf;

    fn paper_dist() -> ConstrainedBathtub {
        ConstrainedBathtub::new(BathtubParams::paper_representative()).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(ConstrainedBathtub::from_parts(0.0, 1.0, 0.8, 24.0).is_err());
        assert!(ConstrainedBathtub::from_parts(1.5, 1.0, 0.8, 24.0).is_err());
        assert!(ConstrainedBathtub::from_parts(0.45, 0.0, 0.8, 24.0).is_err());
        assert!(ConstrainedBathtub::from_parts(0.45, 1.0, -0.8, 24.0).is_err());
        assert!(ConstrainedBathtub::from_parts(0.45, 1.0, 0.8, 0.0).is_err());
        assert!(ConstrainedBathtub::from_parts(0.45, f64::NAN, 0.8, 24.0).is_err());
        assert!(paper_dist().params().a > 0.0);
        let p = ConstrainedBathtub::from_parts(0.45, 1.2, 0.8, 23.5)
            .unwrap()
            .params();
        assert_eq!((p.a, p.tau1, p.b, p.horizon), (0.45, 1.2, 23.5, 24.0));
    }

    #[test]
    fn boundary_conditions() {
        let d = paper_dist();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.cdf(24.0), 1.0);
        assert_eq!(d.cdf(30.0), 1.0);
        // F(0) offset is tiny for the representative parameters: A * e^{-24/0.8} ~ 4e-14
        assert!(d.f0_offset() < 1e-10);
        crate::validate_cdf(&d, 500).unwrap();
    }

    #[test]
    fn bathtub_shape_of_failure_rate() {
        // The PDF should be high early, low in the middle, and high near the deadline.
        let d = paper_dist();
        let early = d.pdf(0.25);
        let middle = d.pdf(12.0);
        let late = d.pdf(23.5);
        assert!(early > 3.0 * middle, "early {early} middle {middle}");
        assert!(late > 3.0 * middle, "late {late} middle {middle}");
    }

    #[test]
    fn three_phases_in_cdf() {
        // Observation 1: steep rise in [0,3], slow rise in the middle, steep rise near 24.
        let d = paper_dist();
        let rise_early = d.cdf(3.0) - d.cdf(0.0);
        let rise_middle = d.cdf(15.0) - d.cdf(12.0);
        let rise_late = d.cdf(24.0) - d.cdf(21.0);
        assert!(rise_early > 5.0 * rise_middle);
        assert!(rise_late > 5.0 * rise_middle);
    }

    #[test]
    fn expected_lifetime_eq3_matches_numeric() {
        let d = paper_dist();
        let eq3 = d.expected_lifetime_eq3();
        let numeric = tcp_numerics::integrate::adaptive_simpson(
            &|t: f64| t * d.raw_pdf(t),
            0.0,
            24.0,
            1e-10,
            48,
        )
        .unwrap();
        assert!((eq3 - numeric).abs() < 1e-6, "eq3 {eq3} numeric {numeric}");
    }

    #[test]
    fn mean_includes_deadline_atom() {
        let d = paper_dist();
        let atom = d.deadline_atom();
        assert!(atom > 0.0 && atom < 0.2, "atom = {atom}");
        assert!((d.mean() - (d.expected_lifetime_eq3() + atom * 24.0)).abs() < 1e-9);
        // mean must be within the support
        assert!(d.mean() > 0.0 && d.mean() < 24.0);
    }

    #[test]
    fn partial_expectation_closed_form_matches_quadrature() {
        let d = paper_dist();
        // intervals strictly below the horizon: pure continuous part
        for &(a, b) in &[(0.0, 5.0), (5.0, 18.0), (18.0, 23.9)] {
            let closed = d.partial_expectation(a, b);
            let numeric =
                tcp_numerics::integrate::adaptive_simpson(&|t: f64| t * d.pdf(t), a, b, 1e-11, 48)
                    .unwrap();
            assert!(
                (closed - numeric).abs() < 1e-6,
                "[{a},{b}] closed {closed} numeric {numeric}"
            );
        }
        // intervals reaching the horizon additionally pick up the reclamation atom
        let full = d.partial_expectation(0.0, 24.0);
        let continuous =
            tcp_numerics::integrate::adaptive_simpson(&|t: f64| t * d.pdf(t), 0.0, 24.0, 1e-11, 48)
                .unwrap();
        assert!((full - (continuous + d.deadline_atom() * 24.0)).abs() < 1e-6);
        assert_eq!(d.partial_expectation(10.0, 3.0), 0.0);
    }

    #[test]
    fn quantile_round_trip() {
        let d = paper_dist();
        for &u in &[0.05, 0.2, 0.4, 0.6, 0.8] {
            let t = d.quantile(u);
            assert!((d.cdf(t) - u).abs() < 1e-7, "u = {u}, t = {t}");
        }
        // deep in the atom region the quantile is the horizon
        assert_eq!(d.quantile(0.999), 24.0);
    }

    #[test]
    fn sampling_matches_cdf() {
        let d = paper_dist();
        let mut rng = StdRng::seed_from_u64(99);
        let samples = d.sample_n(&mut rng, 4000);
        assert!(samples.iter().all(|&t| (0.0..=24.0).contains(&t)));
        // The distribution has an atom at the 24 h deadline; check it separately and run the
        // KS comparison on the continuous part conditioned on T < 24.
        let atom_freq =
            samples.iter().filter(|&&t| t >= 24.0).count() as f64 / samples.len() as f64;
        assert!(
            (atom_freq - d.deadline_atom()).abs() < 0.03,
            "atom freq {atom_freq}"
        );
        let continuous: Vec<f64> = samples.iter().copied().filter(|&t| t < 24.0).collect();
        let cont_mass = 1.0 - d.deadline_atom();
        let ecdf = Ecdf::new(&continuous).unwrap();
        let ks = ecdf.ks_statistic(|t| d.cdf(t.min(23.999_999)) / cont_mass);
        assert!(ks < 0.035, "ks = {ks}");
    }

    #[test]
    fn saturating_parameters_handled() {
        // Large A forces the raw CDF past 1 before the horizon.
        let d = ConstrainedBathtub::from_parts(0.9, 0.5, 0.8, 20.0).unwrap();
        assert!(d.saturation < 24.0);
        assert_eq!(d.cdf(d.saturation + 0.1), 1.0);
        assert_eq!(d.deadline_atom(), 0.0);
        crate::validate_cdf(&d, 500).unwrap();
        // mean still within support
        assert!(d.mean() > 0.0 && d.mean() <= 24.0);
    }

    #[test]
    fn larger_tau1_means_fewer_early_preemptions() {
        let fast = ConstrainedBathtub::from_parts(0.45, 0.5, 0.8, 24.0).unwrap();
        let slow = ConstrainedBathtub::from_parts(0.45, 1.5, 0.8, 24.0).unwrap();
        assert!(fast.cdf(2.0) > slow.cdf(2.0));
        assert!(fast.mean() < slow.mean());
    }
}
