//! The host-speed reference kernel and the timing adjustment built on it.
//!
//! Wall times on a shared host drift by tens of percent in phases that last seconds.
//! Before and after every timed round the benchmark runs a fixed kernel — float
//! formatting and parsing plus small allocations, standard library only, no
//! repository code — and scales the round's time by
//! `(NOMINAL_KERNEL_S / measured kernel time) ^ ELASTICITY` (the kernel time is the
//! mean of the readings on either side of the round).  No change to the repository
//! can move the kernel, so the adjustment only removes host drift.  The raw figures stay visible as the
//! `host.*` per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per timed sample.
const ITERS: u32 = 2_000;

/// Samples per kernel reading (the reading is their median).
const SAMPLES: usize = 3;

/// The kernel's time on the reference host (seconds per sample); adjusted times are
/// expressed in that host's speed.
const NOMINAL_KERNEL_S: f64 = 0.0008;

/// How much more than the kernel the workloads slow down in a slow host phase:
/// a round's time is scaled by `(nominal / measured)` to this power.  On the
/// reference host, blocks of consecutive rounds agree best at 1.3 (mean spread of
/// block medians 3.6% across in-process serving, loopback serving and sweep runs, against 7.0%
/// at 1.0), because the workloads' larger working sets feel a slow phase more.
const ELASTICITY: f64 = 1.3;

/// One timed pass of the kernel, seconds.
fn kernel_sample() -> f64 {
    let started = Instant::now();
    let mut x = 0.123_456_789_f64;
    let mut acc = 0u64;
    for i in 0..ITERS {
        let text = format!("{x:.9}");
        let parsed: f64 = text.parse().unwrap_or(0.0);
        let block = vec![u64::from(i); 4 + (i % 13) as usize];
        acc = acc.wrapping_add(parsed.to_bits() ^ block[block.len() - 1]);
        x = (x * 1.618_033_988_749 + 0.577_215_664_901).fract() + 0.001;
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// One kernel reading: the median of [`SAMPLES`] passes, seconds.  Allocation
/// counting stays on, as it is for the workloads, so the kernel's allocations pay
/// the same counter updates theirs do; they fall outside every counted window.
fn reading() -> f64 {
    let mut samples = [0.0f64; SAMPLES];
    for s in &mut samples {
        *s = kernel_sample();
    }
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

/// A sequence of kernel readings bracketing timed intervals.
pub struct HostClock {
    last: f64,
    readings: Vec<f64>,
}

impl HostClock {
    /// Takes the first reading; call before the first timed interval.
    pub fn start() -> HostClock {
        let first = reading();
        HostClock {
            last: first,
            readings: vec![first],
        }
    }

    /// Closes the timed interval since the previous reading: takes a new reading and
    /// returns the interval's adjustment factor (multiply raw times by it).
    pub fn factor(&mut self) -> f64 {
        let now = reading();
        let factor = (NOMINAL_KERNEL_S / (0.5 * (self.last + now))).powf(ELASTICITY);
        self.last = now;
        self.readings.push(now);
        factor
    }

    /// Describes the readings so far (for the log).
    pub fn describe(&self) -> String {
        format!(
            "host.ref_ops_per_s {:.1} (readings {:.3}..{:.3} ms)",
            self.ref_ops_per_s(),
            crate::metrics::quantile(&self.readings, 0.0) * 1e3,
            crate::metrics::quantile(&self.readings, 1.0) * 1e3
        )
    }

    /// Kernel iterations per second over every reading so far (median).
    pub fn ref_ops_per_s(&self) -> f64 {
        f64::from(ITERS) / crate::metrics::median(&self.readings)
    }
}
