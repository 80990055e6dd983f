//! Golden outcomes of `fit_cell` on edge-case cells.
//!
//! `golden/fit-cells.txt` holds one line per cell: its name, then either the
//! `FitOutcome` as JSON with every float written as its 16 hex digits of `to_bits` (so
//! equal text means equal bits, NaN included) or the exact error message.  The cells cover the
//! selection rules' boundaries (too few records, `min_records`), fully censored and
//! all-zero cells, a single distinct value, lifetimes straddling the censoring edge
//! `horizon − 1e-9`, a generated 2,000-record cell, and the three input errors.
//!
//! On a mismatch the actual text is written to `fit-cells.actual.txt` in the system
//! temp directory for diffing.

use std::path::Path;
use tcp_calibrate::fit::FitOutcome;
use tcp_calibrate::{fit_cell, CandidateFit, FitOptions};
use tcp_trace::{ConfigKey, TimeOfDay, TraceGenerator, VmType, WorkloadKind, Zone};

/// `n` lifetimes spread over the horizon by a fixed low-discrepancy rule.
fn spread(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.618_033_988_749_894_9).fract() * 23.5 + 0.05)
        .collect()
}

fn generated_cell() -> Vec<f64> {
    let key = ConfigKey {
        vm_type: VmType::N1HighCpu16,
        zone: Zone::UsEast1B,
        time_of_day: TimeOfDay::Day,
        workload: WorkloadKind::NonIdle,
    };
    TraceGenerator::new(24)
        .generate_for(key, 2_000)
        .unwrap()
        .iter()
        .map(|r| r.lifetime_hours)
        .collect()
}

fn cells() -> Vec<(&'static str, Vec<f64>)> {
    let mut edge = spread(20);
    edge.extend([24.0 - 1e-9; 5]);
    edge.extend([24.0 - 1e-6; 5]);
    vec![
        ("nine-records", spread(9)),
        ("ten-records", spread(10)),
        ("fourteen-records", spread(14)),
        ("all-censored", vec![24.0; 20]),
        ("all-zero", vec![0.0; 20]),
        ("one-distinct-value", vec![5.5; 20]),
        ("censoring-edge", edge),
        ("generated-2000", generated_cell()),
        ("empty", vec![]),
        ("nan", vec![1.0, f64::NAN, 3.0]),
        ("out-of-horizon", vec![1.0, 24.5, 3.0]),
    ]
}

fn bits(x: f64) -> String {
    format!("\"{:016x}\"", x.to_bits())
}

fn bits_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| bits(x)).collect();
    format!("[{}]", items.join(","))
}

fn candidate_json(c: &CandidateFit) -> String {
    format!(
        "{{\"family\":{:?},\"params\":{},\"ks_statistic\":{},\"log_likelihood\":{},\"aic\":{},\"r_squared\":{},\"rmse\":{}}}",
        c.family,
        bits_list(&c.params),
        bits(c.ks_statistic),
        bits(c.log_likelihood),
        bits(c.aic),
        bits(c.r_squared),
        bits(c.rmse)
    )
}

fn outcome_json(outcome: &FitOutcome) -> String {
    let candidates: Vec<String> = outcome.candidates.iter().map(candidate_json).collect();
    format!(
        "{{\"candidates\":[{}],\"model\":{{\"family\":{:?},\"params\":{},\"lifetimes\":{}}},\"selection\":{:?}}}",
        candidates.join(","),
        outcome.model.family,
        bits_list(&outcome.model.params),
        bits_list(&outcome.model.lifetimes),
        outcome.selection
    )
}

fn render() -> String {
    let options = FitOptions::default();
    let mut out = String::new();
    for (name, lifetimes) in cells() {
        let line = match fit_cell(&lifetimes, &options) {
            Ok(outcome) => outcome_json(&outcome),
            Err(e) => format!("error: {e}"),
        };
        out.push_str(&format!("{name} {line}\n"));
    }
    out
}

#[test]
fn fit_cell_reproduces_the_golden_outcomes() {
    let actual = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fit-cells.txt");
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let dump = std::env::temp_dir().join("fit-cells.actual.txt");
        std::fs::write(&dump, &actual).unwrap();
        for (a, e) in actual.lines().zip(expected.lines()) {
            assert_eq!(a, e, "actual text written to {}", dump.display());
        }
        panic!(
            "line counts differ ({} vs {}); actual text written to {}",
            actual.lines().count(),
            expected.lines().count(),
            dump.display()
        );
    }
}
