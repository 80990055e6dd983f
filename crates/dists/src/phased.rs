//! Explicit three-phase hazard process.
//!
//! Observation 1 of the paper: constrained preemptions show three distinct phases — a high
//! early preemption rate (roughly the first 3 hours), a long stable middle with a low rate,
//! and a sharp rise as the 24-hour deadline approaches.  This type models that behaviour
//! *directly* as a piecewise hazard with an accelerating deadline term and a hard kill at
//! the horizon.
//!
//! Two roles in the workspace:
//!
//! 1. **Synthetic ground truth.**  The trace generator draws "empirical" lifetimes from a
//!    `PhasedHazard`, deliberately *not* from the paper's own functional form, so that
//!    fitting the [`ConstrainedBathtub`](crate::ConstrainedBathtub) model to the synthetic
//!    data is a genuine modelling exercise rather than a tautology.
//! 2. **Phase-wise model.**  Section 8 of the paper sketches a piecewise alternative to the
//!    closed-form model; this is that alternative.

use crate::LifetimeDistribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Parameters of the three-phase hazard process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhasedHazardParams {
    /// Hazard rate during the initial (infant-mortality) phase, per hour.
    pub early_rate: f64,
    /// End of the initial phase, hours (paper: ≈ 3 h).
    pub early_end: f64,
    /// Hazard rate during the stable middle phase, per hour.
    pub stable_rate: f64,
    /// Start of the deadline phase, hours (paper: ≈ 21–23 h).
    pub deadline_start: f64,
    /// Hazard rate at the start of the deadline phase, per hour.
    pub deadline_base_rate: f64,
    /// Exponential acceleration of the deadline hazard, per hour.
    pub deadline_acceleration: f64,
    /// Maximum lifetime, hours.
    pub horizon: f64,
}

impl PhasedHazardParams {
    /// A representative parameter set producing CDFs similar to the `n1-highcpu-16`
    /// empirical curve in Figure 1 (≈35–40 % preempted in the first 3 hours, a shallow
    /// middle, and a sharp rise after ~22 h).
    pub fn representative() -> Self {
        PhasedHazardParams {
            early_rate: 0.17,
            early_end: 3.0,
            stable_rate: 0.015,
            deadline_start: 22.0,
            deadline_base_rate: 0.2,
            deadline_acceleration: 2.2,
            horizon: 24.0,
        }
    }
}

/// Three-phase hazard lifetime distribution with a hard deadline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhasedHazard {
    params: PhasedHazardParams,
}

impl PhasedHazard {
    /// Creates a phased-hazard distribution, validating the phase boundaries and rates.
    pub fn new(params: PhasedHazardParams) -> Result<Self> {
        let p = &params;
        let all = [
            ("early_rate", p.early_rate),
            ("early_end", p.early_end),
            ("stable_rate", p.stable_rate),
            ("deadline_start", p.deadline_start),
            ("deadline_base_rate", p.deadline_base_rate),
            ("deadline_acceleration", p.deadline_acceleration),
            ("horizon", p.horizon),
        ];
        for (name, v) in all {
            if !v.is_finite() {
                return Err(NumericsError::non_finite(format!(
                    "phased parameter {name}"
                )));
            }
        }
        if p.early_rate <= 0.0 || p.stable_rate <= 0.0 || p.deadline_base_rate <= 0.0 {
            return Err(NumericsError::invalid("hazard rates must be positive"));
        }
        if p.deadline_acceleration < 0.0 {
            return Err(NumericsError::invalid(
                "deadline acceleration must be non-negative",
            ));
        }
        if !(0.0 < p.early_end && p.early_end < p.deadline_start && p.deadline_start < p.horizon) {
            return Err(NumericsError::invalid(
                "phase boundaries must satisfy 0 < early_end < deadline_start < horizon",
            ));
        }
        Ok(PhasedHazard { params })
    }

    /// Convenience constructor using the representative parameters.
    pub fn representative() -> Self {
        PhasedHazard {
            params: PhasedHazardParams::representative(),
        }
    }

    /// The parameter set.
    pub fn params(&self) -> PhasedHazardParams {
        self.params
    }

    /// Cumulative hazard `Λ(t) = ∫_0^t h(u) du` (piecewise closed form).
    pub fn cumulative_hazard(&self, t: f64) -> f64 {
        let p = &self.params;
        let t = t.clamp(0.0, p.horizon);
        let mut acc = 0.0;
        // early phase
        let early_span = t.min(p.early_end);
        acc += p.early_rate * early_span;
        if t <= p.early_end {
            return acc;
        }
        // stable phase
        let stable_span = t.min(p.deadline_start) - p.early_end;
        acc += p.stable_rate * stable_span;
        if t <= p.deadline_start {
            return acc;
        }
        // deadline phase: h(u) = base * exp(accel * (u - start))
        let dt = t - p.deadline_start;
        if p.deadline_acceleration == 0.0 {
            acc += p.deadline_base_rate * dt;
        } else {
            acc += p.deadline_base_rate / p.deadline_acceleration
                * ((p.deadline_acceleration * dt).exp() - 1.0);
        }
        acc
    }

    /// Multiplies every hazard rate by `factor` — used by the trace catalog to scale
    /// preemption pressure with VM size, time of day, and workload (Observations 4 & 5).
    pub fn scale_rates(&self, factor: f64) -> Result<Self> {
        if !(factor > 0.0) || !factor.is_finite() {
            return Err(NumericsError::invalid("scale factor must be positive"));
        }
        let mut p = self.params;
        p.early_rate *= factor;
        p.stable_rate *= factor;
        p.deadline_base_rate *= factor;
        PhasedHazard::new(p)
    }
}

impl LifetimeDistribution for PhasedHazard {
    fn name(&self) -> &'static str {
        "phased-hazard"
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        if t >= self.params.horizon {
            return 1.0;
        }
        1.0 - (-self.cumulative_hazard(t)).exp()
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 || t >= self.params.horizon {
            return 0.0;
        }
        self.hazard(t) * (-self.cumulative_hazard(t)).exp()
    }

    fn cdf_pdf(&self, t: f64) -> (f64, f64) {
        if t <= 0.0 || t >= self.params.horizon {
            return (self.cdf(t), self.pdf(t));
        }
        // The survival `exp(−Λ(t))`, shared by both sides.
        let survival = (-self.cumulative_hazard(t)).exp();
        (1.0 - survival, self.hazard(t) * survival)
    }

    fn hazard(&self, t: f64) -> f64 {
        let p = &self.params;
        if t < 0.0 || t >= p.horizon {
            return 0.0;
        }
        if t < p.early_end {
            p.early_rate
        } else if t < p.deadline_start {
            p.stable_rate
        } else {
            p.deadline_base_rate * (p.deadline_acceleration * (t - p.deadline_start)).exp()
        }
    }

    fn upper_bound(&self) -> f64 {
        self.params.horizon
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Inverse transform on the cumulative hazard: survivors at the horizon are
        // preempted exactly at the horizon (hard deadline).
        let u: f64 = rand::Rng::gen::<f64>(rng);
        let target = -(1.0 - u).max(f64::MIN_POSITIVE).ln();
        let horizon = self.params.horizon;
        // `Λ(horizon)` is `Λ(deadline_start)` plus a non-negative deadline-phase term, so
        // a target below the exp-free `Λ(deadline_start)` is below `Λ(horizon)` too: the
        // first test spares most draws the deadline phase's `exp` and decides nothing.
        if target >= self.cumulative_hazard(self.params.deadline_start)
            && target >= self.cumulative_hazard(horizon)
        {
            return horizon;
        }
        let f = |t: f64| self.cumulative_hazard(t) - target;
        tcp_numerics::roots::brent(f, 0.0, horizon, tcp_numerics::roots::RootConfig::default())
            .unwrap_or(horizon)
    }

    fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let horizon = self.params.horizon;
        if u >= self.cdf(horizon - 1e-12) {
            return horizon;
        }
        let target = -(1.0 - u).max(f64::MIN_POSITIVE).ln();
        let f = |t: f64| self.cumulative_hazard(t) - target;
        tcp_numerics::roots::brent(f, 0.0, horizon, tcp_numerics::roots::RootConfig::default())
            .unwrap_or(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_numerics::stats::Ecdf;

    #[test]
    fn construction_validation() {
        let mut p = PhasedHazardParams::representative();
        assert!(PhasedHazard::new(p).is_ok());
        p.early_rate = 0.0;
        assert!(PhasedHazard::new(p).is_err());
        let mut p = PhasedHazardParams::representative();
        p.deadline_start = 2.0; // before early_end
        assert!(PhasedHazard::new(p).is_err());
        let mut p = PhasedHazardParams::representative();
        p.horizon = 20.0; // before deadline_start... 22 > 20
        assert!(PhasedHazard::new(p).is_err());
        let mut p = PhasedHazardParams::representative();
        p.deadline_acceleration = -1.0;
        assert!(PhasedHazard::new(p).is_err());
    }

    #[test]
    fn hazard_has_bathtub_shape() {
        let d = PhasedHazard::representative();
        assert!(d.hazard(1.0) > d.hazard(10.0));
        assert!(d.hazard(23.5) > d.hazard(10.0));
        assert!(d.hazard(23.5) > d.hazard(1.0));
    }

    #[test]
    fn cumulative_hazard_continuous_at_boundaries() {
        let d = PhasedHazard::representative();
        let p = d.params();
        for &b in &[p.early_end, p.deadline_start] {
            let below = d.cumulative_hazard(b - 1e-9);
            let above = d.cumulative_hazard(b + 1e-9);
            assert!((above - below).abs() < 1e-6);
        }
        // monotone
        let mut prev = 0.0;
        for i in 0..200 {
            let t = i as f64 * 24.0 / 200.0;
            let h = d.cumulative_hazard(t);
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn cdf_valid_and_reaches_one_at_horizon() {
        let d = PhasedHazard::representative();
        crate::validate_cdf(&d, 500).unwrap();
        assert_eq!(d.cdf(24.0), 1.0);
        assert!(d.cdf(23.999) < 1.0);
    }

    #[test]
    fn representative_matches_paper_shape() {
        // ≈30–45% preempted within the first 3 hours; stable middle; steep final rise.
        let d = PhasedHazard::representative();
        let early = d.cdf(3.0);
        assert!(early > 0.3 && early < 0.5, "early fraction = {early}");
        let middle_rise = d.cdf(20.0) - d.cdf(3.0);
        assert!(middle_rise < 0.3, "middle rise = {middle_rise}");
        let late_rise = d.cdf(24.0) - d.cdf(22.0);
        assert!(late_rise > 0.25, "late rise = {late_rise}");
    }

    #[test]
    fn sampling_matches_cdf() {
        let d = PhasedHazard::representative();
        let mut rng = StdRng::seed_from_u64(1234);
        let samples = d.sample_n(&mut rng, 5000);
        assert!(samples.iter().all(|&t| (0.0..=24.0).contains(&t)));
        let ecdf = Ecdf::new(&samples).unwrap();
        let ks = ecdf.ks_statistic(|t| d.cdf(t));
        assert!(ks < 0.03, "ks = {ks}");
    }

    /// `sample` as it was before it tested `Λ(deadline_start)` first.  Kept only as the
    /// oracle the draws must match bit for bit.
    fn reference_sample(d: &PhasedHazard, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::gen::<f64>(rng);
        let target = -(1.0 - u).max(f64::MIN_POSITIVE).ln();
        let horizon = d.params.horizon;
        if target >= d.cumulative_hazard(horizon) {
            return horizon;
        }
        let f = |t: f64| d.cumulative_hazard(t) - target;
        tcp_numerics::roots::brent(f, 0.0, horizon, tcp_numerics::roots::RootConfig::default())
            .unwrap_or(horizon)
    }

    #[test]
    fn sample_draws_like_the_reference_bit_for_bit() {
        let scaled = PhasedHazard::representative().scale_rates(1.7).unwrap();
        let flat_deadline = PhasedHazard::new(PhasedHazardParams {
            deadline_acceleration: 0.0,
            ..PhasedHazardParams::representative()
        })
        .unwrap();
        let mut at_horizon = 0;
        for (seed, d) in [
            (11, PhasedHazard::representative()),
            (12, scaled),
            (13, flat_deadline),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let mut late = 0;
            for draw in 0..100_000 {
                let got = d.sample(&mut rng);
                let want = reference_sample(&d, &mut reference_rng);
                assert_eq!(got.to_bits(), want.to_bits(), "{:?}, draw {draw}", d.params);
                late += usize::from(got >= d.params.deadline_start);
                at_horizon += usize::from(got == d.params.horizon);
            }
            // Many draws pass the exp-free test and reach the `Λ(horizon)` one.
            assert!(
                late > 10_000,
                "{:?}: {late} draws in the deadline phase",
                d.params
            );
        }
        assert!(at_horizon > 10_000, "{at_horizon} draws at the horizon");
    }

    #[test]
    fn quantile_round_trip() {
        let d = PhasedHazard::representative();
        for &u in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let t = d.quantile(u);
            if t < 24.0 {
                assert!((d.cdf(t) - u).abs() < 1e-7, "u = {u}");
            }
        }
    }

    #[test]
    fn scale_rates_increases_preemption_pressure() {
        let base = PhasedHazard::representative();
        let bigger_vm = base.scale_rates(1.8).unwrap();
        // Observation 4: larger VMs are more likely to be preempted at every age.
        for &t in &[1.0, 5.0, 12.0, 20.0, 23.0] {
            assert!(bigger_vm.cdf(t) >= base.cdf(t));
        }
        assert!(base.scale_rates(0.0).is_err());
        assert!(base.scale_rates(f64::NAN).is_err());
    }
}
