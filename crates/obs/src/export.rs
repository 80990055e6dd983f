//! Exposition formats: a one-line JSON snapshot and a Prometheus text dump.
//!
//! Both formats are rendered from an owned [`RegistrySnapshot`] so the output is a
//! consistent point-in-time view, and both iterate the snapshot's `BTreeMap`, so
//! output ordering is deterministic (sorted by metric name).  Every JSON string
//! the crate writes goes through `serde_json::append`.
//! [`RegistrySnapshot::from_prometheus`] reads the Prometheus text back.

use crate::hist::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's value inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Monotone counter total.
    Counter(u64),
    /// Instantaneous gauge reading.
    Gauge(f64),
    /// Folded histogram.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of a whole registry, keyed by metric name (sorted).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Metric name → value, in sorted order.
    pub values: BTreeMap<String, SnapshotValue>,
}

/// Renders an `f64` as a JSON number (`null` for non-finite values, integers
/// without a trailing `.0` so counters read naturally).  Shared with the event
/// log and health report renderers.
pub(crate) fn json_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Sanitizes a dotted metric name into a Prometheus metric name:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`, and a leading
/// digit gains a `_` prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    out
}

/// Renders an `f64` for the Prometheus text format (`NaN`, `+Inf`, `-Inf` spelled
/// out; everything else via the shortest round-trip `Display`).
fn prometheus_number(v: f64, out: &mut String) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        let _ = write!(out, "{v}");
    }
}

impl RegistrySnapshot {
    /// Renders the snapshot as a single line of JSON: an object keyed by metric
    /// name, sorted.  Counters become integers, gauges numbers (non-finite → `null`),
    /// histograms objects `{"count":..,"sum":..,"mean":..,"p50":..,"p90":..,
    /// "p99":..,"p999":..,"max":..}` with bucket detail omitted (quantiles are
    /// pre-computed so downstream log pipelines need no histogram math; p999 is
    /// included because tail latency is what overload shedding is judged on).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + 48 * self.values.len());
        out.push('{');
        let mut first = true;
        for (name, value) in &self.values {
            if !first {
                out.push(',');
            }
            first = false;
            serde_json::append(name, &mut out);
            out.push(':');
            match value {
                SnapshotValue::Counter(n) => {
                    let _ = write!(out, "{n}");
                }
                SnapshotValue::Gauge(v) => json_number(*v, &mut out),
                SnapshotValue::Histogram(h) => {
                    out.push_str("{\"count\":");
                    let _ = write!(out, "{}", h.count);
                    out.push_str(",\"sum\":");
                    let _ = write!(out, "{}", h.sum);
                    out.push_str(",\"mean\":");
                    json_number(h.mean(), &mut out);
                    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
                        let _ = write!(out, ",\"{label}\":");
                        json_number(h.quantile(q), &mut out);
                    }
                    out.push_str(",\"max\":");
                    let _ = write!(out, "{}", h.max);
                    out.push('}');
                }
            }
        }
        out.push('}');
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format (version 0.0.4).
    ///
    /// Counters render as `# TYPE <name> counter` plus one sample; gauges likewise as
    /// `gauge`; histograms as the conventional `_bucket{le="..."}` cumulative series
    /// (only non-empty buckets, plus the mandatory `+Inf`), `_sum`, and `_count`.
    /// Dots in metric names become underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(128 + 96 * self.values.len());
        for (name, value) in &self.values {
            let pname = prometheus_name(name);
            match value {
                SnapshotValue::Counter(n) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname} {n}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = write!(out, "{pname} ");
                    prometheus_number(*v, &mut out);
                    out.push('\n');
                }
                SnapshotValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    for (upper, cumulative) in h.cumulative_buckets() {
                        let _ = writeln!(out, "{pname}_bucket{{le=\"{upper}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{pname}_sum {}", h.sum);
                    let _ = writeln!(out, "{pname}_count {}", h.count);
                }
            }
        }
        out
    }

    /// Reads a Prometheus text exposition back into a snapshot, keyed by the
    /// exposition's (sanitized) names: the inverse of
    /// [`RegistrySnapshot::to_prometheus`].  Each family's `# TYPE` line says how
    /// to read its samples; a histogram is rebuilt by
    /// [`HistogramSnapshot::from_cumulative_buckets`], whose `max` is a bound, as
    /// the text has none.  Everything else comes back exactly, and renders to the
    /// same text.
    pub fn from_prometheus(text: &str) -> Result<RegistrySnapshot, String> {
        let mut values = BTreeMap::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            let (name, kind) = line
                .strip_prefix("# TYPE ")
                .and_then(|rest| rest.split_once(' '))
                .ok_or_else(|| format!("expected a `# TYPE` line, found `{line}`"))?;
            let mut sample = |suffix: &str| {
                let line = lines.next().unwrap_or_default();
                line.strip_prefix(name)
                    .and_then(|rest| rest.strip_prefix(suffix))
                    .ok_or_else(|| format!("expected a `{name}{suffix}` sample, found `{line}`"))
            };
            let value = match kind {
                "counter" => SnapshotValue::Counter(parse(sample(" ")?)?),
                "gauge" => SnapshotValue::Gauge(parse(sample(" ")?)?),
                "histogram" => {
                    let mut cumulative = Vec::new();
                    loop {
                        let rest = sample("_bucket{le=\"")?;
                        let (upper, count) = rest
                            .split_once("\"} ")
                            .ok_or_else(|| format!("bad bucket sample `{rest}` in `{name}`"))?;
                        if upper == "+Inf" {
                            break;
                        }
                        cumulative.push((parse(upper)?, parse(count)?));
                    }
                    let sum = parse(sample("_sum ")?)?;
                    SnapshotValue::Histogram(HistogramSnapshot::from_cumulative_buckets(
                        &cumulative,
                        sum,
                        parse(sample("_count ")?)?,
                    ))
                }
                other => return Err(format!("unknown metric type `{other}` for `{name}`")),
            };
            values.insert(name.to_string(), value);
        }
        Ok(RegistrySnapshot { values })
    }

    /// Sum of the named counters (missing or non-counter names read 0).
    pub fn counter_sum<S: AsRef<str>>(&self, names: &[S]) -> u64 {
        names
            .iter()
            .filter_map(|name| match self.values.get(name.as_ref()) {
                Some(SnapshotValue::Counter(n)) => Some(*n),
                _ => None,
            })
            .sum()
    }

    /// The named gauge's reading (missing or non-gauge names read 0).
    pub fn gauge_value(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(SnapshotValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// The named histograms, merged (missing or non-histogram names contribute
    /// nothing).
    pub fn merged_histogram<S: AsRef<str>>(&self, names: &[S]) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for name in names {
            if let Some(SnapshotValue::Histogram(h)) = self.values.get(name.as_ref()) {
                merged.merge(h);
            }
        }
        merged
    }
}

/// Parses one sample value: `f64` parsing reads [`prometheus_number`]'s `NaN`,
/// `+Inf` and `-Inf` too.
fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("bad sample value `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use proptest::prelude::*;

    /// The escaper the crate carried before its strings went through
    /// `serde_json::append`, kept as the oracle that both escape alike.
    fn json_escape(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Draws below 160 are ASCII and C1 characters (every control character,
        // `"` and `\` among them); the rest spread over all of Unicode, two- to
        // four-byte UTF-8 included.
        #[test]
        fn serde_json_escapes_every_string_like_the_old_escaper(
            draws in proptest::collection::vec(0u64..1024, 0..48),
        ) {
            let text: String = draws
                .iter()
                .map(|&d| {
                    let code = if d < 160 { d } else { d * 0x10ff % 0x11_0000 };
                    char::from_u32(code as u32).unwrap_or('\u{fffd}')
                })
                .collect();
            let (mut old, mut new) = (String::new(), String::new());
            json_escape(&text, &mut old);
            serde_json::append(&text, &mut new);
            prop_assert_eq!(new, old);
        }
    }

    fn sample_snapshot() -> RegistrySnapshot {
        let h = Histogram::new();
        for v in [5u64, 100, 100, 2_000] {
            h.record(v);
        }
        let mut values = BTreeMap::new();
        values.insert(
            "serve.requests.served".to_string(),
            SnapshotValue::Counter(7),
        );
        values.insert("serve.queue.depth".to_string(), SnapshotValue::Gauge(2.0));
        values.insert(
            "advisor.latency.best_policy".to_string(),
            SnapshotValue::Histogram(h.snapshot()),
        );
        RegistrySnapshot { values }
    }

    #[test]
    fn json_line_is_one_sorted_line() {
        let json = sample_snapshot().to_json_line();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"advisor.latency.best_policy\":{\"count\":4,"));
        let served = json.find("serve.requests.served").unwrap();
        let depth = json.find("serve.queue.depth").unwrap();
        assert!(depth < served, "keys must be sorted");
        assert!(json.contains("\"serve.requests.served\":7"));
        assert!(json.contains("\"serve.queue.depth\":2"));
        assert!(json.contains("\"max\":2000"));
    }

    #[test]
    fn json_escapes_and_nulls() {
        let mut values = BTreeMap::new();
        values.insert("odd\"name".to_string(), SnapshotValue::Gauge(f64::NAN));
        let json = RegistrySnapshot { values }.to_json_line();
        assert_eq!(json, "{\"odd\\\"name\":null}");
    }

    #[test]
    fn prometheus_dump_has_expected_families() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_requests_served counter\nserve_requests_served 7\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 2\n"));
        assert!(text.contains("# TYPE advisor_latency_best_policy histogram"));
        assert!(text.contains("advisor_latency_best_policy_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("advisor_latency_best_policy_count 4"));
        assert!(text.contains("advisor_latency_best_policy_sum 2205"));
        // Cumulative bucket counts end at the total.
        let last_le = text
            .lines()
            .rfind(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_le.ends_with(" 4"));
    }

    #[test]
    fn prometheus_name_sanitization() {
        assert_eq!(prometheus_name("a.b-c.d"), "a_b_c_d");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:sub"), "ok_name:sub");
    }
}
