//! Rolling-window SLO evaluation: burn-rate rules over registry snapshots.
//!
//! PR 6/7 gave the serving stack raw telemetry; this module *consumes* it.  An
//! [`Evaluator`] holds a bounded ring of timestamped [`RegistrySnapshot`]s and, on
//! every tick, derives **windowed** signals from snapshot deltas — shed ratios,
//! counter rates, histogram quantiles, gauge extrema, gauge ages — and checks them
//! against declarative [`SloRule`]s.
//!
//! Rules follow the multi-window burn-rate pattern: a rule **fires** only when the
//! signal breaches its threshold over *both* a short and a long window (a long
//! window alone is slow to fire; a short window alone pages on blips), and
//! **resolves** with hysteresis when the short-window value falls back to the
//! rule's `resolve_threshold`.  Each transition is a typed [`Alert`] carrying the
//! offending window values.
//!
//! The evaluation core is deliberately clock-free: [`Evaluator::tick_with`] takes
//! the timestamp and the snapshot as arguments, so tests drive synthetic clocks
//! and synthetic registries deterministically.  The production loop
//! ([`spawn_evaluator`]) feeds it the global registry on a wall-clock tick,
//! publishes a [`HealthReport`] for `!health` probes, appends alert transitions
//! to an optional JSON-lines log, and mirrors them into the structured event log.
//!
//! Specs are declarative TOML or JSON (see [`SloSpec::from_str`]):
//!
//! ```toml
//! tick_secs = 2.0
//!
//! [[rule]]
//! name = "shed-ratio"
//! kind = "ratio"
//! numerator = ["serve.requests.shed"]
//! denominator = ["serve.requests.served", "serve.requests.shed"]
//! threshold = 0.05
//! resolve_threshold = 0.01
//! short_window_secs = 30.0
//! long_window_secs = 300.0
//! severity = "critical"
//! ```

use crate::export::{json_escape, json_number, RegistrySnapshot, SnapshotValue};
use crate::hist::HistogramSnapshot;
use crate::log::now_monotonic_secs;
use crate::Periodic;
use serde::Deserialize;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Alert severity: `warn` firing makes the verdict Degraded, `critical` firing
/// makes it Unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Degrades the verdict.
    Warn,
    /// Makes the verdict Unhealthy.
    Critical,
}

impl Severity {
    /// The lowercase name used in rendered reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// The windowed signal a rule evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// `Δ(sum of numerator counters) / Δ(sum of denominator counters)` over the
    /// window; `0` when the denominator delta is zero.
    Ratio {
        /// Counter names summed into the numerator.
        numerator: Vec<String>,
        /// Counter names summed into the denominator.
        denominator: Vec<String>,
    },
    /// `Δcounter / Δseconds` over the window.
    Rate {
        /// Counter name.
        counter: String,
    },
    /// `quantile(q)` of the histogram samples recorded inside the window
    /// (bucket-wise snapshot delta, histograms merged).
    Quantile {
        /// Histogram names merged before the quantile.
        histograms: Vec<String>,
        /// Quantile in `[0, 1]`.
        q: f64,
    },
    /// Maximum gauge reading over the ticks inside the window (a spike between
    /// two ticks is invisible — the tick is the sampling rate).
    Gauge {
        /// Gauge name.
        gauge: String,
    },
    /// `now - gauge` in seconds: for gauges storing a monotonic timestamp
    /// ([`crate::log::now_monotonic_secs`]), e.g. pack staleness off
    /// `advisor.pack.loaded_at_secs`.
    Age {
        /// Gauge name holding a monotonic timestamp in seconds.
        gauge: String,
    },
}

/// One declarative SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Rule name (unique within a spec).
    pub name: String,
    /// The windowed signal evaluated.
    pub signal: Signal,
    /// Firing threshold: the rule fires when the signal exceeds this over both
    /// windows.
    pub threshold: f64,
    /// Resolution threshold (hysteresis): a firing rule resolves when the
    /// short-window signal falls to or below this.  Defaults to `threshold`.
    pub resolve_threshold: f64,
    /// Short (fast-burn) window, seconds.  Defaults to 60.
    pub short_window_secs: f64,
    /// Long (slow-burn) window, seconds.  Defaults to 300.
    pub long_window_secs: f64,
    /// What a firing rule does to the verdict.  Defaults to warn.
    pub severity: Severity,
}

/// A parsed SLO spec: evaluator tick plus the rule list.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Seconds between evaluator ticks (default 5).
    pub tick_secs: f64,
    /// The rules evaluated every tick.
    pub rules: Vec<SloRule>,
}

/// Raw deserialization shape for one rule (validated into [`SloRule`]).
#[derive(Debug, Deserialize)]
struct RawRule {
    name: String,
    kind: String,
    numerator: Option<Vec<String>>,
    denominator: Option<Vec<String>>,
    counter: Option<String>,
    histograms: Option<Vec<String>>,
    gauge: Option<String>,
    q: Option<f64>,
    threshold: f64,
    resolve_threshold: Option<f64>,
    short_window_secs: Option<f64>,
    long_window_secs: Option<f64>,
    severity: Option<String>,
}

/// Raw deserialization shape for a spec: TOML uses `[[rule]]`, JSON documents
/// may use `"rules"`; both are accepted.
#[derive(Debug, Deserialize)]
struct RawSpec {
    tick_secs: Option<f64>,
    rule: Option<Vec<RawRule>>,
    rules: Option<Vec<RawRule>>,
}

fn positive(value: f64, what: &str, rule: &str) -> Result<f64, String> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!(
            "rule `{rule}`: {what} must be positive, got {value}"
        ))
    }
}

impl RawRule {
    fn validate(self) -> Result<SloRule, String> {
        let name = self.name;
        if name.trim().is_empty() {
            return Err("rule names must be non-empty".to_string());
        }
        let signal = match self.kind.as_str() {
            "ratio" => {
                let numerator = self
                    .numerator
                    .ok_or_else(|| format!("rule `{name}`: kind=ratio needs `numerator`"))?;
                let denominator = self
                    .denominator
                    .ok_or_else(|| format!("rule `{name}`: kind=ratio needs `denominator`"))?;
                if numerator.is_empty() || denominator.is_empty() {
                    return Err(format!(
                        "rule `{name}`: numerator/denominator must name at least one counter"
                    ));
                }
                Signal::Ratio {
                    numerator,
                    denominator,
                }
            }
            "rate" => Signal::Rate {
                counter: self
                    .counter
                    .ok_or_else(|| format!("rule `{name}`: kind=rate needs `counter`"))?,
            },
            "quantile" => {
                let histograms = self
                    .histograms
                    .ok_or_else(|| format!("rule `{name}`: kind=quantile needs `histograms`"))?;
                if histograms.is_empty() {
                    return Err(format!(
                        "rule `{name}`: `histograms` must name at least one histogram"
                    ));
                }
                let q = self
                    .q
                    .ok_or_else(|| format!("rule `{name}`: kind=quantile needs `q`"))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(format!("rule `{name}`: q must be in [0, 1], got {q}"));
                }
                Signal::Quantile { histograms, q }
            }
            "gauge" => Signal::Gauge {
                gauge: self
                    .gauge
                    .ok_or_else(|| format!("rule `{name}`: kind=gauge needs `gauge`"))?,
            },
            "age" => Signal::Age {
                gauge: self
                    .gauge
                    .ok_or_else(|| format!("rule `{name}`: kind=age needs `gauge`"))?,
            },
            other => {
                return Err(format!(
                    "rule `{name}`: unknown kind `{other}` (expected ratio, rate, \
                     quantile, gauge, or age)"
                ))
            }
        };
        let threshold = self.threshold;
        if !threshold.is_finite() {
            return Err(format!("rule `{name}`: threshold must be finite"));
        }
        let resolve_threshold = self.resolve_threshold.unwrap_or(threshold);
        if !resolve_threshold.is_finite() || resolve_threshold > threshold {
            return Err(format!(
                "rule `{name}`: resolve_threshold must be finite and <= threshold"
            ));
        }
        let short_window_secs = positive(
            self.short_window_secs.unwrap_or(60.0),
            "short_window_secs",
            &name,
        )?;
        let long_window_secs = positive(
            self.long_window_secs.unwrap_or(300.0),
            "long_window_secs",
            &name,
        )?;
        if long_window_secs < short_window_secs {
            return Err(format!(
                "rule `{name}`: long_window_secs must be >= short_window_secs"
            ));
        }
        let severity = match self.severity.as_deref() {
            None | Some("warn") => Severity::Warn,
            Some("critical") => Severity::Critical,
            Some(other) => {
                return Err(format!(
                    "rule `{name}`: unknown severity `{other}` (expected warn or critical)"
                ))
            }
        };
        Ok(SloRule {
            name,
            signal,
            threshold,
            resolve_threshold,
            short_window_secs,
            long_window_secs,
            severity,
        })
    }
}

impl SloSpec {
    /// Parses a spec from TOML or JSON text (tried in that order; JSON documents
    /// start with `{`, so the dispatch is unambiguous in practice).
    // Not the `FromStr` trait: a trait impl would hide the TOML-or-JSON contract
    // behind `.parse()` and break the `SloSpec::from_str` doc links.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<SloSpec, String> {
        let raw: RawSpec = if text.trim_start().starts_with('{') {
            serde_json::from_str(text).map_err(|e| format!("invalid SLO spec JSON: {e}"))?
        } else {
            toml::from_str(text).map_err(|e| format!("invalid SLO spec TOML: {e}"))?
        };
        let tick_secs = raw.tick_secs.unwrap_or(5.0);
        crate::cli::positive_secs("tick_secs", tick_secs)?;
        let raw_rules = match (raw.rule, raw.rules) {
            (Some(r), None) | (None, Some(r)) => r,
            (Some(mut a), Some(b)) => {
                a.extend(b);
                a
            }
            (None, None) => Vec::new(),
        };
        let rules = raw_rules
            .into_iter()
            .map(RawRule::validate)
            .collect::<Result<Vec<_>, _>>()?;
        let mut names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err("rule names must be unique".to_string());
        }
        Ok(SloSpec { tick_secs, rules })
    }

    /// Loads a spec from a TOML or JSON file.
    pub fn load(path: &std::path::Path) -> Result<SloSpec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SloSpec::from_str(&text)
    }
}

/// An alert transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The rule started firing (both windows breached).
    Firing,
    /// The rule stopped firing (short window back under `resolve_threshold`).
    Resolved,
}

impl Transition {
    /// The lowercase name used in rendered alerts.
    pub fn as_str(self) -> &'static str {
        match self {
            Transition::Firing => "firing",
            Transition::Resolved => "resolved",
        }
    }
}

/// One typed alert transition, with the offending window values attached.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that transitioned.
    pub rule: String,
    /// The rule's severity.
    pub severity: Severity,
    /// Firing or resolved.
    pub transition: Transition,
    /// Evaluator time of the transition, seconds.
    pub t_secs: f64,
    /// Short-window signal value at the transition.
    pub short_value: f64,
    /// Long-window signal value at the transition.
    pub long_value: f64,
    /// The rule's firing threshold.
    pub threshold: f64,
}

impl Alert {
    /// Renders the alert as one line of sorted-key JSON (the `--alert-log`
    /// record shape).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"long_value\":");
        json_number(self.long_value, &mut out);
        out.push_str(",\"rule\":");
        json_escape(&self.rule, &mut out);
        out.push_str(",\"severity\":");
        json_escape(self.severity.as_str(), &mut out);
        out.push_str(",\"short_value\":");
        json_number(self.short_value, &mut out);
        out.push_str(",\"t_secs\":");
        json_number(self.t_secs, &mut out);
        out.push_str(",\"threshold\":");
        json_number(self.threshold, &mut out);
        out.push_str(",\"transition\":");
        json_escape(self.transition.as_str(), &mut out);
        out.push('}');
        out
    }
}

/// The overall verdict a [`HealthReport`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No rule is firing.
    Healthy,
    /// At least one warn-severity rule is firing.
    Degraded,
    /// At least one critical-severity rule is firing.
    Unhealthy,
}

impl Verdict {
    /// The lowercase name used in rendered reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded => "degraded",
            Verdict::Unhealthy => "unhealthy",
        }
    }
}

/// One rule's state inside a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuleReport {
    /// Rule name.
    pub name: String,
    /// Rule severity.
    pub severity: Severity,
    /// Whether the rule is currently firing.
    pub firing: bool,
    /// Latest short-window signal value.
    pub short_value: f64,
    /// Latest long-window signal value.
    pub long_value: f64,
    /// The rule's firing threshold.
    pub threshold: f64,
}

impl RuleReport {
    fn render(&self, out: &mut String) {
        out.push_str("{\"firing\":");
        out.push_str(if self.firing { "true" } else { "false" });
        out.push_str(",\"long_value\":");
        json_number(self.long_value, out);
        out.push_str(",\"name\":");
        json_escape(&self.name, out);
        out.push_str(",\"severity\":");
        json_escape(self.severity.as_str(), out);
        out.push_str(",\"short_value\":");
        json_number(self.short_value, out);
        out.push_str(",\"threshold\":");
        json_number(self.threshold, out);
        out.push('}');
    }
}

/// A point-in-time health verdict with per-rule detail, published by the
/// evaluator and read by `!health` probes.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The overall verdict.
    pub verdict: Verdict,
    /// Evaluator time of this report, seconds.
    pub t_secs: f64,
    /// Per-rule states, in spec order.
    pub rules: Vec<RuleReport>,
}

impl HealthReport {
    /// Renders the per-rule states as a JSON array (sorted keys inside each
    /// rule object, spec order across rules).
    pub fn rules_json(&self) -> String {
        let mut out = String::with_capacity(16 + 128 * self.rules.len());
        out.push('[');
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            rule.render(&mut out);
        }
        out.push(']');
        out
    }
}

/// The rolling-window rule engine.  Clock-free: the caller supplies the tick
/// time and the snapshot, which is what makes burn-rate transitions unit-testable
/// with synthetic clocks (and the production loop a thin timer around it).
pub struct Evaluator {
    spec: SloSpec,
    /// `(t_secs, snapshot)`, oldest first; bounded by the longest rule window.
    ring: VecDeque<(f64, RegistrySnapshot)>,
    /// Whether each rule (spec order) is currently firing.
    firing: Vec<bool>,
    /// Latest per-rule window values, refreshed every tick.
    latest: Vec<(f64, f64)>,
    /// Ring retention horizon: the longest window plus one tick of slack.
    horizon_secs: f64,
}

/// Sum of the named counters in a snapshot (missing or non-counter names read 0).
fn counter_sum(snapshot: &RegistrySnapshot, names: &[String]) -> u64 {
    names
        .iter()
        .filter_map(|name| match snapshot.values.get(name) {
            Some(SnapshotValue::Counter(n)) => Some(*n),
            _ => None,
        })
        .sum()
}

/// The named gauge's reading in a snapshot (missing reads 0).
fn gauge_value(snapshot: &RegistrySnapshot, name: &str) -> f64 {
    match snapshot.values.get(name) {
        Some(SnapshotValue::Gauge(v)) => *v,
        _ => 0.0,
    }
}

/// The named histograms in a snapshot, merged (missing names contribute nothing).
fn merged_histogram(snapshot: &RegistrySnapshot, names: &[String]) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::empty();
    for name in names {
        if let Some(SnapshotValue::Histogram(h)) = snapshot.values.get(name) {
            merged.merge(h);
        }
    }
    merged
}

impl Evaluator {
    /// Creates an evaluator for `spec` with an empty history.
    pub fn new(spec: SloSpec) -> Evaluator {
        let longest = spec
            .rules
            .iter()
            .map(|r| r.long_window_secs)
            .fold(0.0f64, f64::max);
        let rule_count = spec.rules.len();
        Evaluator {
            horizon_secs: longest + spec.tick_secs,
            ring: VecDeque::new(),
            firing: vec![false; rule_count],
            latest: vec![(0.0, 0.0); rule_count],
            spec,
        }
    }

    /// The spec this evaluator runs.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// The window boundary entry for a window ending at `now`: the newest ring
    /// entry at or before `now - window` — or the oldest entry when history is
    /// still shorter than the window, so partial windows evaluate immediately
    /// (a fresh process alerts on its first minutes instead of staying blind
    /// for a full long window).
    fn window_start(&self, now: f64, window_secs: f64) -> Option<&(f64, RegistrySnapshot)> {
        let target = now - window_secs;
        self.ring
            .iter()
            .rev()
            .find(|(t, _)| *t <= target)
            .or_else(|| self.ring.front())
    }

    /// Evaluates one signal over the window ending at `now` against `snapshot`.
    fn window_value(
        &self,
        signal: &Signal,
        now: f64,
        window_secs: f64,
        snapshot: &RegistrySnapshot,
    ) -> f64 {
        let start = self.window_start(now, window_secs);
        match signal {
            Signal::Ratio {
                numerator,
                denominator,
            } => {
                let (num0, den0) = match start {
                    Some((_, earlier)) => (
                        counter_sum(earlier, numerator),
                        counter_sum(earlier, denominator),
                    ),
                    None => (0, 0),
                };
                let dn = counter_sum(snapshot, numerator).saturating_sub(num0);
                let dd = counter_sum(snapshot, denominator).saturating_sub(den0);
                if dd == 0 {
                    0.0
                } else {
                    dn as f64 / dd as f64
                }
            }
            Signal::Rate { counter } => {
                let (t0, c0) = match start {
                    Some((t, earlier)) => (*t, counter_sum(earlier, std::slice::from_ref(counter))),
                    None => (now, 0),
                };
                let delta = counter_sum(snapshot, std::slice::from_ref(counter)).saturating_sub(c0);
                crate::rate_per_sec(delta, now - t0)
            }
            Signal::Quantile { histograms, q } => {
                let current = merged_histogram(snapshot, histograms);
                let delta = match start {
                    Some((_, earlier)) => {
                        current.delta_since(&merged_histogram(earlier, histograms))
                    }
                    None => current,
                };
                delta.quantile(*q)
            }
            Signal::Gauge { gauge } => {
                let target = now - window_secs;
                let mut max = gauge_value(snapshot, gauge);
                for (t, earlier) in self.ring.iter().rev() {
                    if *t < target {
                        break;
                    }
                    max = max.max(gauge_value(earlier, gauge));
                }
                max
            }
            Signal::Age { gauge } => (now - gauge_value(snapshot, gauge)).max(0.0),
        }
    }

    /// Advances the evaluator to `t_secs` with a fresh registry `snapshot`,
    /// returning the alert transitions this tick produced.
    ///
    /// Every rule's short and long windows are evaluated against the snapshot
    /// ring; a non-firing rule fires when **both** windows breach `threshold`,
    /// and a firing rule resolves when the short window falls to or below
    /// `resolve_threshold` (hysteresis — the long window may still be burning
    /// from the incident's tail).
    pub fn tick_with(&mut self, t_secs: f64, snapshot: RegistrySnapshot) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (index, rule) in self.spec.rules.iter().enumerate() {
            let short = self.window_value(&rule.signal, t_secs, rule.short_window_secs, &snapshot);
            let long = self.window_value(&rule.signal, t_secs, rule.long_window_secs, &snapshot);
            self.latest[index] = (short, long);
            let was_firing = self.firing[index];
            let transition = if !was_firing && short > rule.threshold && long > rule.threshold {
                self.firing[index] = true;
                Some(Transition::Firing)
            } else if was_firing && short <= rule.resolve_threshold {
                self.firing[index] = false;
                Some(Transition::Resolved)
            } else {
                None
            };
            if let Some(transition) = transition {
                alerts.push(Alert {
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    transition,
                    t_secs,
                    short_value: short,
                    long_value: long,
                    threshold: rule.threshold,
                });
            }
        }
        // Retain the window the longest rule can still reach, plus the entry
        // straddling the boundary (window_start looks for `t <= target`).
        self.ring.push_back((t_secs, snapshot));
        let cutoff = t_secs - self.horizon_secs;
        while self
            .ring
            .iter()
            .take(2)
            .nth(1)
            .is_some_and(|(t, _)| *t < cutoff)
        {
            self.ring.pop_front();
        }
        alerts
    }

    /// The current health report: verdict plus per-rule state from the latest
    /// tick.
    pub fn report(&self, t_secs: f64) -> HealthReport {
        let rules: Vec<RuleReport> = self
            .spec
            .rules
            .iter()
            .enumerate()
            .map(|(i, rule)| RuleReport {
                name: rule.name.clone(),
                severity: rule.severity,
                firing: self.firing[i],
                short_value: self.latest[i].0,
                long_value: self.latest[i].1,
                threshold: rule.threshold,
            })
            .collect();
        let verdict = if rules
            .iter()
            .any(|r| r.firing && r.severity == Severity::Critical)
        {
            Verdict::Unhealthy
        } else if rules.iter().any(|r| r.firing) {
            Verdict::Degraded
        } else {
            Verdict::Healthy
        };
        HealthReport {
            verdict,
            t_secs,
            rules,
        }
    }
}

/// The most recently published report (None until an evaluator publishes one).
fn current_slot() -> &'static Mutex<Option<Arc<HealthReport>>> {
    static CURRENT: OnceLock<Mutex<Option<Arc<HealthReport>>>> = OnceLock::new();
    CURRENT.get_or_init(|| Mutex::new(None))
}

/// Publishes `report` as the process-wide current health report (what `!health`
/// probes read via [`current`]).
pub fn publish(report: HealthReport) {
    *current_slot().lock().expect("health slot poisoned") = Some(Arc::new(report));
}

/// The most recently published health report, if any evaluator has run.
pub fn current() -> Option<Arc<HealthReport>> {
    current_slot().lock().expect("health slot poisoned").clone()
}

/// Clears the published report (test isolation; the slot is process-global).
// lint:allow(dead-api) tcp-serve tests/health.rs and tcp-advisor serve tests isolate the slot
pub fn clear_current() {
    *current_slot().lock().expect("health slot poisoned") = None;
}

/// Starts the production evaluator loop on a [`Periodic`]: every
/// `spec.tick_secs` it snapshots the global registry at [`now_monotonic_secs`],
/// runs [`Evaluator::tick_with`], publishes the [`HealthReport`], appends each
/// alert transition as one JSON line to `alert_log` (append-only; creates the
/// file), and mirrors transitions into the structured event log (`slo.alert`,
/// warn for warn-severity rules and firing=false transitions, error for
/// critical firings).
///
/// The baseline tick (the first window start) and its report are taken and
/// published on the calling thread before this returns.  Dropping the returned
/// handle stops the loop at once, without waiting out the current tick period.
///
/// The loop is strictly out-of-band of the serving path: it only ever *reads*
/// registry snapshots, so served response bytes are byte-identical with the
/// evaluator armed or not.
pub fn spawn_evaluator(spec: SloSpec, alert_log: Option<PathBuf>) -> Periodic {
    let tick = Duration::from_secs_f64(spec.tick_secs);
    let mut evaluator = Evaluator::new(spec);
    // Baseline entry so the first real tick has a window start.
    let t0 = now_monotonic_secs();
    let _ = evaluator.tick_with(t0, crate::Registry::global().snapshot());
    publish(evaluator.report(t0));
    Periodic::spawn("tcp-obs-slo", tick, move || {
        let t = now_monotonic_secs();
        let alerts = evaluator.tick_with(t, crate::Registry::global().snapshot());
        publish(evaluator.report(t));
        for alert in &alerts {
            if let Some(path) = &alert_log {
                if let Ok(mut file) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    let _ = writeln!(file, "{}", alert.to_json_line());
                }
            }
            let firing = alert.transition == Transition::Firing;
            if firing && alert.severity == Severity::Critical {
                crate::event!(
                    error,
                    "slo.alert",
                    rule = alert.rule.as_str(),
                    transition = alert.transition.as_str(),
                    short_value = alert.short_value,
                    long_value = alert.long_value,
                    threshold = alert.threshold,
                );
            } else {
                crate::event!(
                    warn,
                    "slo.alert",
                    rule = alert.rule.as_str(),
                    transition = alert.transition.as_str(),
                    short_value = alert.short_value,
                    long_value = alert.long_value,
                    threshold = alert.threshold,
                );
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    const SPEC: &str = r#"
tick_secs = 1.0

[[rule]]
name = "shed-ratio"
kind = "ratio"
numerator = ["t.shed"]
denominator = ["t.served", "t.shed"]
threshold = 0.1
resolve_threshold = 0.02
short_window_secs = 10.0
long_window_secs = 30.0
severity = "critical"

[[rule]]
name = "p99-latency"
kind = "quantile"
histograms = ["t.latency"]
q = 0.99
threshold = 1000000.0
short_window_secs = 10.0
long_window_secs = 30.0
"#;

    /// A registry snapshot with the given counter totals and latency samples.
    fn snap(registry: &Registry) -> RegistrySnapshot {
        registry.snapshot()
    }

    #[test]
    fn spec_parses_from_toml_with_defaults() {
        let spec = SloSpec::from_str(SPEC).unwrap();
        assert_eq!(spec.tick_secs, 1.0);
        assert_eq!(spec.rules.len(), 2);
        let shed = &spec.rules[0];
        assert_eq!(shed.name, "shed-ratio");
        assert_eq!(shed.severity, Severity::Critical);
        assert_eq!(shed.resolve_threshold, 0.02);
        let p99 = &spec.rules[1];
        assert_eq!(p99.severity, Severity::Warn);
        assert_eq!(p99.resolve_threshold, p99.threshold);
        match &p99.signal {
            Signal::Quantile { histograms, q } => {
                assert_eq!(histograms, &["t.latency".to_string()]);
                assert_eq!(*q, 0.99);
            }
            other => panic!("unexpected signal {other:?}"),
        }
    }

    #[test]
    fn spec_parses_from_json_and_rejects_nonsense() {
        let json = r#"{"tick_secs": 2.0, "rules": [
            {"name": "reload-failures", "kind": "rate",
             "counter": "advisor.reload.failed", "threshold": 0.5}]}"#;
        let spec = SloSpec::from_str(json).unwrap();
        assert_eq!(spec.tick_secs, 2.0);
        assert_eq!(spec.rules.len(), 1);
        assert_eq!(spec.rules[0].short_window_secs, 60.0);
        assert_eq!(spec.rules[0].long_window_secs, 300.0);

        for bad in [
            r#"{"rules": [{"name": "x", "kind": "nope", "threshold": 1.0}]}"#,
            r#"{"rules": [{"name": "x", "kind": "rate", "threshold": 1.0}]}"#,
            r#"{"rules": [{"name": "x", "kind": "quantile", "histograms": ["h"],
                "q": 1.5, "threshold": 1.0}]}"#,
            r#"{"rules": [{"name": "x", "kind": "rate", "counter": "c",
                "threshold": 1.0, "resolve_threshold": 2.0}]}"#,
            r#"{"rules": [{"name": "x", "kind": "rate", "counter": "c",
                "threshold": 1.0, "short_window_secs": 60.0, "long_window_secs": 30.0}]}"#,
            r#"{"rules": [
                {"name": "x", "kind": "rate", "counter": "c", "threshold": 1.0},
                {"name": "x", "kind": "rate", "counter": "c", "threshold": 2.0}]}"#,
            r#"{"tick_secs": 0.0, "rules": []}"#,
            // Finite and positive, but no `Duration` holds it.
            r#"{"tick_secs": 1e300, "rules": []}"#,
        ] {
            assert!(SloSpec::from_str(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn burn_rate_requires_both_windows_and_resolves_with_hysteresis() {
        let spec = SloSpec::from_str(SPEC).unwrap();
        let registry = Registry::new();
        let served = registry.counter("t.served");
        let shed = registry.counter("t.shed");
        registry.histogram("t.latency"); // registered, stays quiet
        let mut ev = Evaluator::new(spec);

        // t=0: clean baseline.
        served.add(100);
        assert!(ev.tick_with(0.0, snap(&registry)).is_empty());

        // t=5..30: a shed burst inside the short window.  Short breaches at t=5;
        // the long window (clamped to the full history) breaches too, so the rule
        // fires exactly once — and does not re-fire while it stays firing.
        served.add(50);
        shed.add(50);
        let alerts = ev.tick_with(5.0, snap(&registry));
        assert_eq!(alerts.len(), 1);
        let firing = &alerts[0];
        assert_eq!(firing.rule, "shed-ratio");
        assert_eq!(firing.transition, Transition::Firing);
        assert_eq!(firing.severity, Severity::Critical);
        assert!(firing.short_value > 0.1, "{}", firing.short_value);
        assert!(firing.long_value > 0.1, "{}", firing.long_value);
        assert_eq!(ev.report(5.0).verdict, Verdict::Unhealthy);
        assert!(ev.tick_with(8.0, snap(&registry)).is_empty(), "no re-fire");

        // Clean traffic resumes.  At t=12 the short window still reaches back to
        // the t=0 entry (no snapshot sits at or before t=2), so the burst stays
        // in the delta and the ratio (~0.083) holds above resolve_threshold: the
        // rule keeps firing.  At t=16 the short window starts at the t=5 entry —
        // taken after the burst — so the short ratio falls to 0: resolved, even
        // though the long window still sees the burst (hysteresis is
        // short-window-only).
        served.add(500);
        assert!(ev.tick_with(12.0, snap(&registry)).is_empty());
        assert_eq!(ev.report(12.0).verdict, Verdict::Unhealthy);
        served.add(500);
        let alerts = ev.tick_with(16.0, snap(&registry));
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].transition, Transition::Resolved);
        assert!(alerts[0].long_value > 0.02, "long window still burning");
        assert_eq!(ev.report(16.0).verdict, Verdict::Healthy);
    }

    #[test]
    fn short_window_breach_alone_does_not_fire() {
        // A long-window rule over a long clean history: a short blip moves the
        // short window over threshold but the long window stays under — no alert.
        let spec = SloSpec::from_str(
            r#"{"rules": [{"name": "shed", "kind": "ratio",
                "numerator": ["t.shed"], "denominator": ["t.served", "t.shed"],
                "threshold": 0.1, "short_window_secs": 10.0,
                "long_window_secs": 1000.0}]}"#,
        )
        .unwrap();
        let registry = Registry::new();
        let served = registry.counter("t.served");
        let shed = registry.counter("t.shed");
        let mut ev = Evaluator::new(spec);
        served.add(10_000);
        assert!(ev.tick_with(0.0, snap(&registry)).is_empty());
        for t in 1..=50 {
            served.add(100);
            assert!(ev.tick_with(t as f64 * 10.0, snap(&registry)).is_empty());
        }
        // Blip: 50% shed over the last short window, a drop in the long one.
        served.add(20);
        shed.add(20);
        let alerts = ev.tick_with(510.0, snap(&registry));
        assert!(
            alerts.is_empty(),
            "short-only breach must not fire: {alerts:?}"
        );
        let report = ev.report(510.0);
        assert!(report.rules[0].short_value > 0.1);
        assert!(report.rules[0].long_value < 0.1);
        assert_eq!(report.verdict, Verdict::Healthy);
    }

    #[test]
    fn quantile_rule_windows_over_histogram_deltas() {
        let spec = SloSpec::from_str(SPEC).unwrap();
        let registry = Registry::new();
        registry.counter("t.served").add(1);
        registry.counter("t.shed");
        let latency = registry.histogram("t.latency");
        let mut ev = Evaluator::new(spec);

        // History: fast samples.
        for _ in 0..100 {
            latency.record(1_000);
        }
        assert!(ev.tick_with(0.0, snap(&registry)).is_empty());

        // The last 10 seconds are slow: p99 over the *delta* breaches even though
        // the all-time p99 would be dominated by the fast history.
        for _ in 0..50 {
            latency.record(50_000_000);
        }
        let alerts = ev.tick_with(10.0, snap(&registry));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "p99-latency");
        assert!(alerts[0].short_value > 1e6);
        assert_eq!(ev.report(10.0).verdict, Verdict::Degraded);
    }

    #[test]
    fn gauge_and_age_signals() {
        let spec = SloSpec::from_str(
            r#"{"rules": [
                {"name": "queue-depth", "kind": "gauge", "gauge": "t.depth",
                 "threshold": 100.0, "short_window_secs": 20.0,
                 "long_window_secs": 20.0},
                {"name": "pack-stale", "kind": "age", "gauge": "t.loaded_at",
                 "threshold": 60.0, "resolve_threshold": 30.0,
                 "short_window_secs": 10.0, "long_window_secs": 10.0}]}"#,
        )
        .unwrap();
        let registry = Registry::new();
        let depth = registry.gauge("t.depth");
        let loaded_at = registry.gauge("t.loaded_at");
        let mut ev = Evaluator::new(spec);

        depth.set(5.0);
        loaded_at.set(0.0);
        assert!(ev.tick_with(0.0, snap(&registry)).is_empty());

        // Depth spikes over threshold; age of the pack is 50s — under threshold.
        depth.set(500.0);
        let alerts = ev.tick_with(50.0, snap(&registry));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "queue-depth");

        // The spike decays but the window max still sees the t=50 entry at t=61;
        // by t=80 the window has slid past it and the rule resolves.  Meanwhile
        // the pack age crosses 60s (strictly — age == threshold does not
        // breach): pack-stale fires.
        depth.set(1.0);
        let alerts = ev.tick_with(61.0, snap(&registry));
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "pack-stale");
        assert_eq!(alerts[0].transition, Transition::Firing);
        let alerts = ev.tick_with(80.0, snap(&registry));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "queue-depth");
        assert_eq!(alerts[0].transition, Transition::Resolved);

        // A reload refreshes the timestamp: the age falls under the resolve
        // threshold and pack-stale resolves (hysteresis honoured: 30 < 60).
        loaded_at.set(75.0);
        let alerts = ev.tick_with(90.0, snap(&registry));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "pack-stale");
        assert_eq!(alerts[0].transition, Transition::Resolved);
    }

    #[test]
    fn rate_rule_uses_counter_deltas_per_second() {
        let spec = SloSpec::from_str(
            r#"{"rules": [{"name": "reload-failures", "kind": "rate",
                "counter": "t.failed", "threshold": 0.5,
                "short_window_secs": 10.0, "long_window_secs": 10.0}]}"#,
        )
        .unwrap();
        let registry = Registry::new();
        let failed = registry.counter("t.failed");
        let mut ev = Evaluator::new(spec);
        assert!(ev.tick_with(0.0, snap(&registry)).is_empty());
        failed.add(2);
        assert!(
            ev.tick_with(10.0, snap(&registry)).is_empty(),
            "0.2/s is fine"
        );
        failed.add(20);
        let alerts = ev.tick_with(20.0, snap(&registry));
        assert_eq!(alerts.len(), 1, "2/s over the window fires");
        assert!(alerts[0].short_value > 0.5);
    }

    #[test]
    fn ring_stays_bounded() {
        let spec = SloSpec::from_str(
            r#"{"tick_secs": 1.0, "rules": [{"name": "x", "kind": "rate",
                "counter": "t.c", "threshold": 1e18,
                "short_window_secs": 5.0, "long_window_secs": 10.0}]}"#,
        )
        .unwrap();
        let registry = Registry::new();
        registry.counter("t.c");
        let mut ev = Evaluator::new(spec);
        for t in 0..1000 {
            ev.tick_with(t as f64, snap(&registry));
        }
        // Horizon is long window + tick = 11s; at 1s ticks the ring holds ~12
        // entries, never the whole history.
        assert!(ev.ring.len() <= 14, "ring grew to {}", ev.ring.len());
    }

    #[test]
    fn alert_and_report_render_sorted_json() {
        let alert = Alert {
            rule: "shed-ratio".to_string(),
            severity: Severity::Critical,
            transition: Transition::Firing,
            t_secs: 12.5,
            short_value: 0.5,
            long_value: 0.25,
            threshold: 0.1,
        };
        assert_eq!(
            alert.to_json_line(),
            "{\"long_value\":0.25,\"rule\":\"shed-ratio\",\"severity\":\"critical\",\
             \"short_value\":0.5,\"t_secs\":12.5,\"threshold\":0.1,\
             \"transition\":\"firing\"}"
        );
        let report = HealthReport {
            verdict: Verdict::Degraded,
            t_secs: 1.0,
            rules: vec![RuleReport {
                name: "r".to_string(),
                severity: Severity::Warn,
                firing: true,
                short_value: 2.0,
                long_value: 3.0,
                threshold: 1.0,
            }],
        };
        assert_eq!(
            report.rules_json(),
            "[{\"firing\":true,\"long_value\":3,\"name\":\"r\",\"severity\":\"warn\",\
             \"short_value\":2,\"threshold\":1}]"
        );
    }

    #[test]
    fn publish_and_current_round_trip() {
        let report = HealthReport {
            verdict: Verdict::Healthy,
            t_secs: 0.5,
            rules: Vec::new(),
        };
        publish(report.clone());
        let seen = current().expect("published");
        assert_eq!(*seen, report);
        clear_current();
    }
}
