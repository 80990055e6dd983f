//! Metric names and units, summary statistics, and the result line.

use crate::check::Checks;
use crate::host::HostClock;
use crate::spans::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
    ("peak_mem_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.  A workload that
/// makes no call into a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.parse_ns", "ns"),
    ("wire.parse_allocs", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.encode_allocs", "count"),
    ("wire.response_bytes", "B"),
    ("advisor.advise_ns.should-reuse", "ns"),
    ("advisor.advise_ns.checkpoint-plan", "ns"),
    ("advisor.advise_ns.expected-cost-makespan", "ns"),
    ("advisor.advise_ns.best-policy", "ns"),
    ("advisor.advise_allocs", "count"),
    ("serve.respond_ns", "ns"),
    ("serve.glue_ns", "ns"),
    ("serve.session_ns", "ns"),
    ("serve.error_lines", "count"),
    ("serve.attributed_pct", "%"),
    ("tcp.io_ns", "ns"),
    ("tcp.bytes_in", "B"),
    ("tcp.bytes_out", "B"),
    ("pack.build_s", "s"),
    ("pack.encode_s", "s"),
    ("pack.load_s", "s"),
    ("pack.bytes", "B"),
    ("trace.csv_parse_s", "s"),
    ("trace.csv_allocs", "count"),
    ("trace.csv_roundtrip_failures", "count"),
    ("calibrate.partition_s", "s"),
    ("calibrate.fit_s", "s"),
    ("calibrate.fit_cell_ms.p50", "ms"),
    ("calibrate.fit_cell_ms.max", "ms"),
    ("calibrate.fit_speedup_2t", "x"),
    ("calibrate.parametric_share", "ratio"),
    ("calibrate.catalog_encode_s", "s"),
    ("calibrate.catalog_bytes", "B"),
    ("pack.build_cells_s", "s"),
    ("pack.build_speedup_2t", "x"),
    ("scenarios.expand_s", "s"),
    ("sweep.scenario_ms.none", "ms"),
    ("sweep.scenario_ms.model-driven", "ms"),
    ("sweep.scenario_ms.young-daly", "ms"),
    ("sweep.report_encode_s", "s"),
    ("host.ref_ops_per_s", "1/s"),
    ("host.raw_throughput_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operation and digest accounting.
    pub checks: Checks,
    /// End-to-end metric values (untraced run).
    pub e2e: Values,
    /// Per-layer metric values (traced run).
    pub layers: Values,
    /// The span recorder of a traced run.
    pub tracer: Option<Tracer>,
}

/// Renders the final result line: the declared metrics in declaration order, each
/// with its unit.  Missing per-layer metrics read 0 (the workload never entered the
/// layer); a missing end-to-end metric or a non-finite value is an error.
pub fn result_line(checks: &Checks, values: &Values, traced: bool) -> Result<String, String> {
    let declared = if traced { PER_LAYER } else { END_TO_END };
    if let Some(unknown) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("undeclared metric `{unknown}`"));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = match values.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        fields.join(", ")
    ))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak live heap so far, in MB (10^6 bytes), from the counting allocator.
pub fn peak_mem_mb() -> f64 {
    tcp_obs::profile::alloc_totals().peak_bytes as f64 / 1e6
}

/// Allocation calls and bytes between two allocator readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls.
    pub calls: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Allocs {
    /// Reads the process-wide allocation totals.
    pub fn now() -> Allocs {
        let t = tcp_obs::profile::alloc_totals();
        Allocs {
            calls: t.allocs,
            bytes: t.bytes,
        }
    }

    /// Allocations made since `earlier`.
    pub fn since(earlier: Allocs) -> Allocs {
        let now = Allocs::now();
        Allocs {
            calls: now.calls - earlier.calls,
            bytes: now.bytes - earlier.bytes,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Allocs) {
        self.calls += other.calls;
        self.bytes += other.bytes;
    }
}

/// Latency samples per block of the blocked p99 (≥ 10 samples beyond each p99).
const P99_BLOCK: usize = 1_000;

/// Host-adjusted timed rounds of a workload: per-round operation counts and times
/// plus the per-operation latency samples, from which the end-to-end timing metrics
/// are derived.
#[derive(Default)]
pub struct Rounds {
    /// Raw (unadjusted) throughput of each round, operations per second.
    pub raw_rates: Vec<f64>,
    /// Host-adjusted throughput of each round, operations per second.
    pub rates: Vec<f64>,
    /// Host-adjusted latency samples, seconds.
    pub latencies: Vec<f64>,
    /// Host adjustment factor of each round.
    pub factors: Vec<f64>,
}

/// One timed round as a workload reports it.
pub struct Round {
    /// Timed operations in the round.
    pub ops: u64,
    /// Operations run and checked, timed or not.
    pub attempted: u64,
    /// Raw latency samples, seconds; they sum to the round's busy time.
    pub samples: Vec<f64>,
    /// Operations whose output was missing or wrong.
    pub failed: u64,
}

impl Rounds {
    /// Runs `round(n)` for `n = 0, 1, …` until `budget` has passed and at least
    /// `min_rounds` have run, reading the host kernel before the first round and
    /// after each one, and counting every round's operations into `checks`.
    pub fn run(
        budget: Duration,
        min_rounds: usize,
        clock: &mut HostClock,
        checks: &mut Checks,
        mut round: impl FnMut(usize) -> Result<Round, String>,
    ) -> Result<Rounds, String> {
        let mut rounds = Rounds::default();
        let started = Instant::now();
        clock.factor();
        let mut n = 0;
        while started.elapsed() < budget || n < min_rounds {
            let r = round(n)?;
            let factor = clock.factor();
            checks.ops(r.attempted, r.failed);
            rounds.push(r.ops, &r.samples, factor);
            n += 1;
        }
        Ok(rounds)
    }

    /// Records one round of `ops` operations whose latency samples (raw seconds) sum
    /// to the round's busy time; `factor` is the round's host adjustment.
    fn push(&mut self, ops: u64, raw_samples: &[f64], factor: f64) {
        let busy: f64 = raw_samples.iter().sum();
        if busy <= 0.0 {
            return;
        }
        self.factors.push(factor);
        self.raw_rates.push(ops as f64 / busy);
        self.rates.push(ops as f64 / (busy * factor));
        self.latencies
            .extend(raw_samples.iter().map(|s| s * factor));
    }

    /// Busy time per operation of the median round, host-adjusted, seconds.
    pub fn seconds_per_op(&self) -> f64 {
        1.0 / median(&self.rates)
    }

    /// The p99 latency, seconds: with at least two blocks of [`P99_BLOCK`] samples,
    /// the median of the blocks' p99s (so one slow host phase moves one block, not
    /// the figure); otherwise the p99 of every sample.
    fn p99(&self) -> f64 {
        let blocks = self.latencies.len() / P99_BLOCK;
        if blocks < 2 {
            return quantile(&self.latencies, 0.99);
        }
        let size = self.latencies.len() / blocks;
        let p99s: Vec<f64> = self
            .latencies
            .chunks_exact(size)
            .map(|block| quantile(block, 0.99))
            .collect();
        median(&p99s)
    }

    /// Writes `throughput_per_s` and the latency metrics into `e2e`.
    pub fn report(&self, e2e: &mut Values) {
        e2e.insert("throughput_per_s", median(&self.rates));
        e2e.insert("latency_p50_ms", median(&self.latencies) * 1e3);
        e2e.insert("latency_p99_ms", self.p99() * 1e3);
    }

    /// Describes the samples behind the metrics and the unadjusted rate (for the
    /// log, so host drift is visible on every run).
    pub fn describe(&self) -> String {
        format!(
            "{} rounds, {} latency samples; raw_throughput_per_s {:.1}, adjusted {:.1}",
            self.rates.len(),
            self.latencies.len(),
            median(&self.raw_rates),
            median(&self.rates)
        )
    }
}

/// The host and tracing-overhead metrics every traced run reports.
pub fn finish_traced(layers: &mut Values, clock: &HostClock, untraced: &Rounds, traced: &Rounds) {
    layers.insert("host.ref_ops_per_s", clock.ref_ops_per_s());
    layers.insert("host.raw_throughput_per_s", median(&untraced.raw_rates));
    layers.insert(
        "trace.overhead_pct",
        (traced.seconds_per_op() / untraced.seconds_per_op() - 1.0) * 100.0,
    );
}
