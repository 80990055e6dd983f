//! `LifetimeDistribution::cdf_pdf` is bit for bit `(cdf(t), pdf(t))`.
//!
//! Every family that overrides it (bathtub, Weibull, exponential, phased) is checked at
//! random parameters and at the edge points of its branches: negative, signed zero,
//! subnormal, the censoring edge `horizon − 1e-9`, the horizon itself and beyond.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcp_dists::bathtub::BathtubParams;
use tcp_dists::phased::PhasedHazardParams;
use tcp_dists::{ConstrainedBathtub, Exponential, LifetimeDistribution, PhasedHazard, Weibull};

/// Edge points for a distribution with horizon `horizon`, each `extra` family-specific
/// breakpoint with its two neighbouring floats, and 200 uniform draws over `[0, horizon]`.
fn points(rng: &mut StdRng, horizon: f64, extra: &[f64]) -> Vec<f64> {
    let mut ts = vec![
        -1.0,
        -0.0,
        0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        1e-300,
        horizon - 1e-6,
        horizon - 1e-9,
        horizon,
        horizon + 1e-9,
        horizon + 1.0,
        1e3,
    ];
    for &x in extra {
        ts.extend([x, x.next_down(), x.next_up()]);
    }
    ts.extend((0..200).map(|_| rng.gen_range(0.0..horizon)));
    ts
}

fn assert_bit_identical(dist: &dyn LifetimeDistribution, ts: &[f64], what: &str) {
    for &t in ts {
        let (cdf, pdf) = dist.cdf_pdf(t);
        assert_eq!(
            (cdf.to_bits(), pdf.to_bits()),
            (dist.cdf(t).to_bits(), dist.pdf(t).to_bits()),
            "{what} at t = {t:e}: cdf_pdf gives ({cdf:e}, {pdf:e}), separately ({:e}, {:e})",
            dist.cdf(t),
            dist.pdf(t)
        );
    }
}

#[test]
fn bathtub_cdf_pdf_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut saturated = 0;
    for _ in 0..300 {
        let horizon = [24.0, rng.gen_range(2.0..48.0)][rng.gen_range(0..2)];
        let params = BathtubParams {
            a: rng.gen_range(0.05..1.0),
            tau1: rng.gen_range(0.05..5.0),
            tau2: rng.gen_range(0.05..3.0),
            b: rng.gen_range(0.2..1.3) * horizon,
            horizon,
        };
        let dist = ConstrainedBathtub::new(params).unwrap();
        // The raw CDF crosses one before the horizon: the CDF saturates early and the
        // PDF is cut to zero past that point.
        if dist.raw_cdf(horizon) > 1.0 {
            saturated += 1;
        }
        let ts = points(&mut rng, horizon, &[params.b]);
        assert_bit_identical(&dist, &ts, &format!("bathtub {params:?}"));
    }
    assert!(
        saturated > 20,
        "only {saturated} parameter sets saturate early"
    );
    let paper = ConstrainedBathtub::paper_representative();
    assert_bit_identical(&paper, &points(&mut rng, 24.0, &[24.0]), "paper bathtub");
}

#[test]
fn weibull_cdf_pdf_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..300 {
        let shape = match i % 3 {
            0 => rng.gen_range(0.2..1.0),
            1 => 1.0,
            _ => rng.gen_range(1.0..5.0),
        };
        let dist = Weibull::new(rng.gen_range(0.005..2.0), shape).unwrap();
        let ts = points(&mut rng, 24.0, &[]);
        assert_bit_identical(&dist, &ts, &format!("weibull {dist:?}"));
    }
}

#[test]
fn exponential_cdf_pdf_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..300 {
        let dist = Exponential::new(rng.gen_range(0.001..5.0)).unwrap();
        let ts = points(&mut rng, 24.0, &[]);
        assert_bit_identical(&dist, &ts, &format!("exponential {dist:?}"));
    }
}

#[test]
fn phased_cdf_pdf_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(4);
    for i in 0..300 {
        let horizon = [24.0, rng.gen_range(2.0..48.0)][rng.gen_range(0..2)];
        let early_end = rng.gen_range(0.02..0.3) * horizon;
        let deadline_start = rng.gen_range(0.5..0.98) * horizon;
        let params = PhasedHazardParams {
            early_rate: rng.gen_range(1e-6..1.0),
            early_end,
            stable_rate: rng.gen_range(1e-6..0.2),
            deadline_start,
            deadline_base_rate: rng.gen_range(1e-6..1.0),
            deadline_acceleration: if i % 4 == 0 {
                0.0
            } else {
                rng.gen_range(0.0..4.0)
            },
            horizon,
        };
        let dist = PhasedHazard::new(params).unwrap();
        let ts = points(&mut rng, horizon, &[early_end, deadline_start]);
        assert_bit_identical(&dist, &ts, &format!("phased {params:?}"));
    }
}
