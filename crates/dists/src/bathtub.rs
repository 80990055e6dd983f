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
///
/// Serialises as `{"params": …, "saturation": …}`; equality and `Debug` see those two
/// fields only, since the rest is derived from them.
#[derive(Clone, Copy)]
pub struct ConstrainedBathtub {
    params: BathtubParams,
    /// Time at which the raw CDF saturates at one (≤ horizon).
    saturation: f64,
    /// `raw_cdf(0)`, subtracted from the raw CDF so that `F(0) = 0`; well-fitted
    /// parameter sets keep it near zero (the paper's `F(0) ≈ 0` boundary condition).
    f0: f64,
    /// The antiderivative of `t f(t)` at 0, the lower end of `W(t)`.
    w0: f64,
    /// Probability mass at the deadline (survivors reclaimed at `L`).
    atom: f64,
    /// `F(saturation)` of the continuous part, `raw_cdf(saturation) - f0` capped at one:
    /// a quantile at or above it lands on the saturation point or the deadline.
    raw_end: f64,
}

/// The serialised form of [`ConstrainedBathtub`]: its defining fields, under the same
/// type name so that derived error messages read as they always have.
mod repr {
    use super::BathtubParams;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub(super) struct ConstrainedBathtub {
        pub(super) params: BathtubParams,
        pub(super) saturation: f64,
    }

    impl ConstrainedBathtub {
        /// The distribution with the stored saturation, kept as read (never re-solved),
        /// so a document round-trips.
        pub(super) fn into_dist(self) -> super::ConstrainedBathtub {
            super::ConstrainedBathtub::with_saturation(self.params, self.saturation)
        }
    }
}

impl Serialize for ConstrainedBathtub {
    fn serialize<S: serde::Serializer>(&self, out: &mut S) {
        repr::ConstrainedBathtub {
            params: self.params,
            saturation: self.saturation,
        }
        .serialize(out);
    }
}

impl<'de> Deserialize<'de> for ConstrainedBathtub {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        repr::ConstrainedBathtub::deserialize(value).map(repr::ConstrainedBathtub::into_dist)
    }

    fn deserialize_from<S: serde::Source<'de>>(
        src: &mut S,
    ) -> std::result::Result<Self, serde::Error> {
        repr::ConstrainedBathtub::deserialize_from(src).map(repr::ConstrainedBathtub::into_dist)
    }
}

impl PartialEq for ConstrainedBathtub {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.saturation == other.saturation
    }
}

impl std::fmt::Debug for ConstrainedBathtub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConstrainedBathtub")
            .field("params", &self.params)
            .field("saturation", &self.saturation)
            .finish()
    }
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
        let saturation = ConstrainedBathtub::with_saturation(params, horizon).compute_saturation();
        Ok(ConstrainedBathtub::with_saturation(params, saturation))
    }

    /// The distribution with a known saturation point, its constants (`F(0)`, `W(0)`,
    /// the deadline atom, the continuous part's mass) computed once here.
    fn with_saturation(params: BathtubParams, saturation: f64) -> Self {
        let mut dist = ConstrainedBathtub {
            params,
            saturation,
            f0: 0.0,
            w0: 0.0,
            atom: 0.0,
            raw_end: 0.0,
        };
        dist.f0 = dist.raw_cdf(0.0);
        dist.w0 = dist.partial_expectation_antiderivative(0.0);
        dist.atom = if saturation < params.horizon {
            0.0
        } else {
            (1.0 - dist.raw_cdf(params.horizon)).max(0.0)
        };
        dist.raw_end = (dist.raw_cdf(saturation) - dist.f0).min(1.0);
        dist
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

    /// Probability mass concentrated exactly at the deadline (survivors reclaimed at `L`).
    pub fn deadline_atom(&self) -> f64 {
        self.atom
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
        self.partial_expectation_antiderivative(self.params.horizon) - self.w0
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
        let raw = self.raw_cdf(t) - self.f0;
        raw.clamp(0.0, 1.0)
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 || t > self.params.horizon || t > self.saturation {
            return 0.0;
        }
        self.raw_pdf(t)
    }

    fn cdf_pdf(&self, t: f64) -> (f64, f64) {
        let p = &self.params;
        if t < 0.0 || t > p.horizon || t > self.saturation {
            return (self.cdf(t), 0.0);
        }
        // The two exponentials of Equations 1 and 2, shared by both sides.
        let early = (-t / p.tau1).exp();
        let late = ((t - p.b) / p.tau2).exp();
        let pdf = p.a * (early / p.tau1 + late / p.tau2);
        let cdf = if t <= 0.0 || t >= p.horizon || t >= self.saturation {
            self.cdf(t)
        } else {
            (p.a * (1.0 - early + late) - self.f0).clamp(0.0, 1.0)
        };
        (cdf, pdf)
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
            // ±0 give the same antiderivative, so `W(0)` serves both.
            let lower = if a == 0.0 {
                self.w0
            } else {
                self.partial_expectation_antiderivative(a)
            };
            self.partial_expectation_antiderivative(b_cont) - lower
        } else {
            0.0
        };
        if b >= self.params.horizon && a < self.params.horizon {
            value += self.atom * self.params.horizon;
        }
        value
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if u >= self.raw_end {
            // lands in the deadline atom (or exactly at saturation)
            return if self.saturation < self.params.horizon {
                self.saturation
            } else {
                self.params.horizon
            };
        }
        let f = |t: f64| (self.raw_cdf(t) - self.f0) - u;
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
        assert!(d.f0 < 1e-10);
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

    const PAPER_JSON: &str =
        r#"{"params":{"a":0.45,"tau1":1.0,"tau2":0.8,"b":24.0,"horizon":24.0},"saturation":24.0}"#;
    const SATURATING_JSON: &str = r#"{"params":{"a":0.9,"tau1":0.5,"tau2":0.8,"b":20.0,"horizon":24.0},"saturation":18.242220338131027}"#;

    /// The constants `with_saturation` caches, recomputed from their definitions.
    fn assert_constants_match_their_definitions(d: &ConstrainedBathtub) {
        let atom = if d.saturation < d.params.horizon {
            0.0
        } else {
            (1.0 - d.raw_cdf(d.params.horizon)).max(0.0)
        };
        assert_eq!(d.f0.to_bits(), d.raw_cdf(0.0).to_bits(), "{d:?}");
        assert_eq!(
            d.w0.to_bits(),
            d.partial_expectation_antiderivative(0.0).to_bits(),
            "{d:?}"
        );
        assert_eq!(d.atom.to_bits(), atom.to_bits(), "{d:?}");
        let raw_end = (d.raw_cdf(d.saturation) - d.f0).min(1.0);
        assert_eq!(d.raw_end.to_bits(), raw_end.to_bits(), "{d:?}");
    }

    /// `quantile` as it was before `raw_end` was cached: the continuous part's mass
    /// recomputed, two `exp`s, on every call.
    fn quantile_recomputing_raw_end(d: &ConstrainedBathtub, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let raw_end = (d.raw_cdf(d.saturation) - d.f0).min(1.0);
        if u >= raw_end {
            return if d.saturation < d.params.horizon {
                d.saturation
            } else {
                d.params.horizon
            };
        }
        let f = |t: f64| (d.raw_cdf(t) - d.f0) - u;
        tcp_numerics::roots::brent(
            f,
            0.0,
            d.saturation,
            tcp_numerics::roots::RootConfig::default(),
        )
        .unwrap_or(d.saturation)
    }

    #[test]
    fn draws_match_the_recomputing_quantile_bit_for_bit() {
        let stored: ConstrainedBathtub = serde_json::from_str(
            r#"{"params":{"a":0.45,"tau1":1.0,"tau2":0.8,"b":24.0,"horizon":24.0},"saturation":20.0}"#,
        )
        .unwrap();
        // 100k draws over four shapes: the paper's fit, an early activation, a raw CDF
        // saturating before the deadline, and a stored saturation kept as read.
        for (seed, d) in [
            (1, paper_dist()),
            (
                2,
                ConstrainedBathtub::from_parts(0.45, 1.5, 0.8, 23.5).unwrap(),
            ),
            (
                3,
                ConstrainedBathtub::from_parts(0.9, 0.5, 0.8, 20.0).unwrap(),
            ),
            (4, stored),
        ] {
            assert_constants_match_their_definitions(&d);
            let (mut draws, mut uniforms) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..25_000 {
                let want = quantile_recomputing_raw_end(&d, rand::Rng::gen(&mut uniforms));
                assert_eq!(d.sample(&mut draws).to_bits(), want.to_bits(), "{d:?}");
            }
            let below_end = f64::from_bits(d.raw_end.to_bits() - 1);
            for u in [0.0, 1.0, -0.5, 1.5, d.raw_end, below_end] {
                let want = quantile_recomputing_raw_end(&d, u);
                assert_eq!(d.quantile(u).to_bits(), want.to_bits(), "{d:?} u={u}");
            }
        }
    }

    #[test]
    fn serialised_form_is_params_and_saturation() {
        let saturating = ConstrainedBathtub::from_parts(0.9, 0.5, 0.8, 20.0).unwrap();
        assert!(saturating.saturation < 24.0);
        assert_eq!(saturating.deadline_atom(), 0.0);
        for (d, json) in [(paper_dist(), PAPER_JSON), (saturating, SATURATING_JSON)] {
            assert_eq!(serde_json::to_string(&d).unwrap(), json);
            let read: ConstrainedBathtub = serde_json::from_str(json).unwrap();
            assert_eq!(read, d);
            assert_eq!(serde_json::to_string(&read).unwrap(), json);
            let value = serde_json::parse_value(json).unwrap();
            assert_eq!(ConstrainedBathtub::deserialize(&value).unwrap(), d);
            assert_constants_match_their_definitions(&d);
            assert_constants_match_their_definitions(&read);
        }
    }

    #[test]
    fn deserialisation_keeps_the_stored_saturation() {
        let json = r#"{"params":{"a":0.45,"tau1":1.0,"tau2":0.8,"b":24.0,"horizon":24.0},"saturation":20.0}"#;
        let d: ConstrainedBathtub = serde_json::from_str(json).unwrap();
        assert_eq!(d.saturation, 20.0);
        assert_eq!(d.deadline_atom(), 0.0);
        assert_eq!(serde_json::to_string(&d).unwrap(), json);
        assert_constants_match_their_definitions(&d);
    }

    #[test]
    fn deserialisation_errors_name_the_type() {
        let missing = r#"{"params":{"a":0.45,"tau1":1.0,"tau2":0.8,"b":24.0,"horizon":24.0}}"#;
        let want = "missing field `saturation` in ConstrainedBathtub";
        let err = serde_json::from_str::<ConstrainedBathtub>(missing).unwrap_err();
        assert_eq!(err.to_string(), want);
        let err = serde_json::from_str_streaming::<ConstrainedBathtub>(missing).unwrap_err();
        assert_eq!(err.to_string(), want);
        let value = serde_json::parse_value(missing).unwrap();
        let err = ConstrainedBathtub::deserialize(&value).unwrap_err();
        assert_eq!(err.to_string(), want);
        let unknown = format!("{},\"x\":1}}", &PAPER_JSON[..PAPER_JSON.len() - 1]);
        let err = serde_json::from_str::<ConstrainedBathtub>(&unknown).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown field `x` in ConstrainedBathtub (expected one of: params, saturation)"
        );
        let err = serde_json::from_str::<ConstrainedBathtub>("[1]").unwrap_err();
        assert_eq!(
            err.to_string(),
            "expected a map while deserializing ConstrainedBathtub, found sequence"
        );
    }

    #[test]
    fn debug_shows_params_and_saturation() {
        assert_eq!(
            format!("{:?}", paper_dist()),
            "ConstrainedBathtub { params: BathtubParams { a: 0.45, tau1: 1.0, tau2: 0.8, \
             b: 24.0, horizon: 24.0 }, saturation: 24.0 }"
        );
        let saturating = ConstrainedBathtub::from_parts(0.9, 0.5, 0.8, 20.0).unwrap();
        assert_eq!(
            format!("{saturating:#?}"),
            "ConstrainedBathtub {\n    params: BathtubParams {\n        a: 0.9,\n        \
             tau1: 0.5,\n        tau2: 0.8,\n        b: 20.0,\n        horizon: 24.0,\n    \
             },\n    saturation: 18.242220338131027,\n}"
        );
    }

    #[test]
    fn larger_tau1_means_fewer_early_preemptions() {
        let fast = ConstrainedBathtub::from_parts(0.45, 0.5, 0.8, 24.0).unwrap();
        let slow = ConstrainedBathtub::from_parts(0.45, 1.5, 0.8, 24.0).unwrap();
        assert!(fast.cdf(2.0) > slow.cdf(2.0));
        assert!(fast.mean() < slow.mean());
    }
}
