//! Descriptive statistics, empirical CDFs and goodness-of-fit measures.
//!
//! The empirical study in Section 3 of the paper is entirely expressed in terms of
//! empirical CDFs of VM lifetimes and how well candidate failure distributions fit them
//! (least-squares error, and implicitly R²).  This module provides those primitives plus
//! the Kolmogorov–Smirnov statistic used by the test-suite to check that samplers agree
//! with their analytic CDFs.

use crate::interp::LinearInterp;
use crate::{NumericsError, Result};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (n-1 denominator); zero for a single observation.
    pub variance: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (linear interpolation between order statistics).
    pub median: f64,
}

/// Computes summary statistics for a non-empty sample.
pub fn summarize(data: &[f64]) -> Result<Summary> {
    if data.is_empty() {
        return Err(NumericsError::invalid("cannot summarize an empty sample"));
    }
    if data.iter().any(|v| !v.is_finite()) {
        return Err(NumericsError::non_finite("sample contains NaN or infinity"));
    }
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let variance = if data.len() > 1 {
        data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = sorted[0];
    let max = *sorted.last().unwrap();
    let median = quantile_sorted(&sorted, 0.5);
    Ok(Summary {
        count: data.len(),
        mean,
        variance,
        std_dev: variance.sqrt(),
        min,
        max,
        median,
    })
}

/// Quantile of an already-sorted sample using linear interpolation (type-7, the numpy default).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Quantile of an unsorted sample.
pub fn quantile(data: &[f64], q: f64) -> Result<f64> {
    if data.is_empty() {
        return Err(NumericsError::invalid("quantile of empty sample"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Ok(quantile_sorted(&sorted, q))
}

/// An empirical cumulative distribution function built from observed lifetimes.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a non-empty sample (any order; values are copied and sorted).
    pub fn new(sample: &[f64]) -> Result<Self> {
        if sample.is_empty() {
            return Err(NumericsError::invalid(
                "ECDF requires at least one observation",
            ));
        }
        if sample.iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::non_finite("ECDF sample"));
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ok(Ecdf { sorted })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no observations (cannot happen for a constructed ECDF).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted underlying observations.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates `P(X <= x)` — the right-continuous step function.
    pub fn eval(&self, x: f64) -> f64 {
        // number of observations <= x
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Returns the step points of the ECDF as `(x, F(x))` pairs (one per distinct value).
    pub fn step_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = f,
                _ => out.push((x, f)),
            }
        }
        out
    }

    /// Returns `(xs, Fs)` evaluated on a uniform grid of `points` samples over `[lo, hi]`.
    ///
    /// This is the representation handed to the least-squares fitters: the paper fits model
    /// CDFs to the empirical CDF evaluated on a grid of lifetimes.
    pub fn on_grid(&self, lo: f64, hi: f64, points: usize) -> Result<(Vec<f64>, Vec<f64>)> {
        if points < 2 {
            return Err(NumericsError::invalid("grid requires at least 2 points"));
        }
        if !(hi > lo) {
            return Err(NumericsError::invalid("grid requires hi > lo"));
        }
        let xs = crate::interp::linspace(lo, hi, points);
        let fs = xs.iter().map(|&x| self.eval(x)).collect();
        Ok((xs, fs))
    }

    /// Converts the ECDF into a continuous piecewise-linear interpolant through its step
    /// points (prepending `(0, 0)` when all observations are positive) — convenient for
    /// inverse-transform resampling of the empirical distribution.
    pub fn to_interp(&self) -> Result<LinearInterp> {
        let mut pts = self.step_points();
        if pts.first().map(|p| p.0 > 0.0).unwrap_or(false) {
            pts.insert(0, (0.0, 0.0));
        }
        if pts.len() < 2 {
            // single distinct value: widen by a hair so the interpolant is valid
            let (x, f) = pts[0];
            pts = vec![(x - 1e-9, 0.0), (x, f)];
        }
        let (xs, ys): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
        LinearInterp::new(xs, ys)
    }

    /// Empirical mean of the underlying observations.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Kolmogorov–Smirnov statistic against a reference CDF.
    pub fn ks_statistic<F: Fn(f64) -> f64>(&self, cdf: F) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let fx = cdf(x);
            let upper = ((i + 1) as f64 / n - fx).abs();
            let lower = (fx - i as f64 / n).abs();
            d = d.max(upper).max(lower);
        }
        d
    }
}

/// Two-sample Kolmogorov–Smirnov statistic `sup_t |F_a(t) − F_b(t)|` between the
/// empirical CDFs of two samples.
///
/// This is the drift statistic behind `calibrate compare`: two catalogs' recorded
/// lifetimes for the same cell are compared distribution-to-distribution, not just by
/// summary moments.  The inputs need not be sorted; ties within and across samples are
/// handled by advancing both walkers past every observation at the current value before
/// the difference is measured.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(NumericsError::invalid(
            "ks_two_sample requires two non-empty samples",
        ));
    }
    if a.iter().chain(b).any(|v| !v.is_finite()) {
        return Err(NumericsError::non_finite("ks_two_sample input"));
    }
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by(|x, y| x.partial_cmp(y).expect("finite samples"));
    b.sort_by(|x, y| x.partial_cmp(y).expect("finite samples"));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < a.len() || j < b.len() {
        let t = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => unreachable!("loop condition"),
        };
        while i < a.len() && a[i] <= t {
            i += 1;
        }
        while j < b.len() && b[j] <= t {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    Ok(d)
}

/// The two-sample K-S rejection threshold at significance `alpha`:
/// `c(α) · sqrt((n + m) / (n · m))` with `c(α) = sqrt(−ln(α/2) / 2)` (the asymptotic
/// Kolmogorov critical value; `c(0.05) ≈ 1.358`).
pub fn ks_two_sample_threshold(alpha: f64, n: usize, m: usize) -> Result<f64> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(NumericsError::invalid("alpha must be inside (0, 1)"));
    }
    if n == 0 || m == 0 {
        return Err(NumericsError::invalid(
            "ks_two_sample_threshold requires non-empty samples",
        ));
    }
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    Ok(c * ((n + m) as f64 / (n as f64 * m as f64)).sqrt())
}

/// Coefficient of determination R² between observations `y` and model predictions `y_hat`.
pub fn r_squared(y: &[f64], y_hat: &[f64]) -> Result<f64> {
    if y.len() != y_hat.len() || y.is_empty() {
        return Err(NumericsError::invalid(
            "r_squared requires equal-length, non-empty inputs",
        ));
    }
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
    let ss_res: f64 = y.iter().zip(y_hat).map(|(v, w)| (v - w).powi(2)).sum();
    if ss_tot == 0.0 {
        // all observations identical: define R² = 1 when residuals vanish, else 0
        return Ok(if ss_res == 0.0 { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Root-mean-square error between observations and predictions.
pub fn rmse(y: &[f64], y_hat: &[f64]) -> Result<f64> {
    if y.len() != y_hat.len() || y.is_empty() {
        return Err(NumericsError::invalid(
            "rmse requires equal-length, non-empty inputs",
        ));
    }
    let ss: f64 = y.iter().zip(y_hat).map(|(v, w)| (v - w).powi(2)).sum();
    Ok((ss / y.len() as f64).sqrt())
}

/// A fixed-width histogram over `[lo, hi)` with values outside the range clamped into the
/// first/last bin.  Used for the PDF inset of Figure 1 and for trace summaries.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if !(hi > lo) {
            return Err(NumericsError::invalid("histogram requires hi > lo"));
        }
        if bins == 0 {
            return Err(NumericsError::invalid(
                "histogram requires at least one bin",
            ));
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Adds an observation (values outside the range land in the first/last bin).
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = if x <= self.lo {
            0
        } else if x >= self.hi {
            bins - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Density estimate (counts normalised so the histogram integrates to one).
    pub fn density(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let norm = self.total as f64 * self.bin_width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }
}

/// Online mean/variance accumulator (Welford).  Used by the simulator for streaming
/// statistics over millions of Monte-Carlo trials without storing samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean (zero when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased variance (zero for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!(approx_eq(s.mean, 3.0, 1e-12, 0.0));
        assert!(approx_eq(s.variance, 2.5, 1e-12, 0.0));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_validation() {
        assert!(summarize(&[]).is_err());
        assert!(summarize(&[1.0, f64::NAN]).is_err());
        let s = summarize(&[7.0]).unwrap();
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn quantiles() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!(approx_eq(quantile(&data, 0.5).unwrap(), 2.5, 1e-12, 0.0));
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 4.0);
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn ecdf_step_behaviour() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 0.75);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_step_points_deduplicate() {
        let e = Ecdf::new(&[2.0, 1.0, 2.0]).unwrap();
        let pts = e.step_points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[1], (2.0, 1.0));
    }

    #[test]
    fn ecdf_grid_and_interp() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0]).unwrap();
        let (xs, fs) = e.on_grid(0.0, 4.0, 9).unwrap();
        assert_eq!(xs.len(), 9);
        assert!(fs.windows(2).all(|w| w[1] >= w[0]));
        let it = e.to_interp().unwrap();
        assert!(it.eval(3.0) >= 0.99);
        assert!(it.eval(0.0) <= 1e-12);
    }

    #[test]
    fn ecdf_validation() {
        assert!(Ecdf::new(&[]).is_err());
        assert!(Ecdf::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn ks_statistic_perfect_fit_small() {
        let e = Ecdf::new(&(1..=1000).map(|i| i as f64 / 1000.0).collect::<Vec<_>>()).unwrap();
        // uniform CDF on [0,1]
        let d = e.ks_statistic(|x| x.clamp(0.0, 1.0));
        assert!(d < 0.01, "d = {d}");
    }

    #[test]
    fn ks_statistic_detects_mismatch() {
        let e = Ecdf::new(&[0.9, 0.91, 0.92, 0.95, 0.99]).unwrap();
        let d = e.ks_statistic(|x| x.clamp(0.0, 1.0));
        assert!(d > 0.5);
    }

    #[test]
    fn two_sample_ks_basics() {
        let a: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        // Identical samples: zero distance.
        assert_eq!(ks_two_sample(&a, &a).unwrap(), 0.0);
        // Disjoint supports: maximal distance.
        let b: Vec<f64> = a.iter().map(|v| v + 10.0).collect();
        assert_eq!(ks_two_sample(&a, &b).unwrap(), 1.0);
        // Symmetric in its arguments.
        let c: Vec<f64> = (1..=80).map(|i| (i as f64 / 80.0).powi(2)).collect();
        let d1 = ks_two_sample(&a, &c).unwrap();
        let d2 = ks_two_sample(&c, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-15);
        assert!(d1 > 0.0 && d1 < 1.0);
        // Unsorted input is accepted.
        let mut shuffled = a.clone();
        shuffled.reverse();
        assert_eq!(ks_two_sample(&shuffled, &c).unwrap(), d1);
        // Ties across samples do not inflate the statistic.
        assert_eq!(
            ks_two_sample(&[1.0, 1.0, 2.0], &[1.0, 2.0, 2.0]).unwrap(),
            1.0 / 3.0
        );
        // Invalid input.
        assert!(ks_two_sample(&[], &a).is_err());
        assert!(ks_two_sample(&[f64::NAN], &a).is_err());
    }

    #[test]
    fn two_sample_ks_detects_a_shift_at_the_right_scale() {
        // Uniform[0,1] vs Uniform[0.2, 1.2]: the true sup-distance is 0.2.
        let a: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let b: Vec<f64> = a.iter().map(|v| v + 0.2).collect();
        let d = ks_two_sample(&a, &b).unwrap();
        assert!((d - 0.2).abs() < 0.01, "d = {d}");
        // And the alpha=0.05 threshold for these sizes is well below that shift.
        let threshold = ks_two_sample_threshold(0.05, a.len(), b.len()).unwrap();
        assert!(threshold < d, "threshold {threshold} vs d {d}");
        assert!(
            (ks_two_sample_threshold(0.05, 100, 100).unwrap() - 1.3581 * (0.02f64).sqrt()).abs()
                < 1e-3
        );
        assert!(ks_two_sample_threshold(0.0, 10, 10).is_err());
        assert!(ks_two_sample_threshold(0.05, 0, 10).is_err());
    }

    #[test]
    fn r_squared_perfect_and_poor() {
        let y = [1.0, 2.0, 3.0];
        assert!(approx_eq(r_squared(&y, &y).unwrap(), 1.0, 1e-12, 0.0));
        let r = r_squared(&y, &[2.0, 2.0, 2.0]).unwrap();
        assert!(r < 1.0);
        assert!(r_squared(&[], &[]).is_err());
        // constant observations
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 2.0]).unwrap(), 1.0);
        assert_eq!(r_squared(&[2.0, 2.0], &[1.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn rmse_and_mae() {
        let y = [1.0, 2.0, 3.0];
        let y_hat = [1.0, 2.0, 5.0];
        assert!(approx_eq(
            rmse(&y, &y_hat).unwrap(),
            (4.0f64 / 3.0).sqrt(),
            1e-12,
            0.0
        ));
        assert!(rmse(&y, &[1.0]).is_err());
    }

    #[test]
    fn histogram_counts_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for x in [0.5, 1.5, 1.6, 9.9, 10.5, -3.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 2); // 0.5 and the clamped -3.0
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 2); // 9.9 and the clamped 10.5
        let d = h.density();
        let integral: f64 = d.iter().map(|v| v * h.bin_width()).sum();
        assert!(approx_eq(integral, 1.0, 1e-12, 0.0));
    }

    #[test]
    fn histogram_validation() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn welford_matches_batch() {
        let data: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 3.0)
            .collect();
        let mut w = Welford::new();
        for &x in &data {
            w.add(x);
        }
        let s = summarize(&data).unwrap();
        assert!(approx_eq(w.mean(), s.mean, 1e-10, 1e-10));
        assert!(approx_eq(w.variance(), s.variance, 1e-10, 1e-10));
        assert!(w.std_error() > 0.0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let data: Vec<f64> = (0..200).map(|i| (i as f64).sqrt()).collect();
        let mut all = Welford::new();
        for &x in &data {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &data[..77] {
            a.add(x);
        }
        for &x in &data[77..] {
            b.add(x);
        }
        a.merge(&b);
        assert!(approx_eq(a.mean(), all.mean(), 1e-10, 1e-10));
        assert!(approx_eq(a.variance(), all.variance(), 1e-10, 1e-10));
        assert_eq!(a.count(), all.count());

        // merging an empty accumulator is a no-op in both directions
        let mut empty = Welford::new();
        empty.merge(&all);
        assert_eq!(empty.count(), all.count());
        let mut all2 = all;
        all2.merge(&Welford::new());
        assert_eq!(all2.count(), all.count());
    }
}
