//! `advise top` — a live terminal dashboard over a running `advise listen` server.
//!
//! Connects to the server like any other client and polls `!metrics prom` +
//! `!health` + `!profile` over one short connection per refresh, so the dashboard
//! exercises the exact surfaces an operator's tooling would.  From two consecutive
//! polls it derives **windowed** figures — qps, shed %, p50/p99 advisor latency
//! over the refresh interval — rather than process-lifetime aggregates, then
//! repaints the terminal with plain ANSI escapes (no TTY crates).
//!
//! Latency quantiles are the server's own: each exposition is read back by
//! [`RegistrySnapshot::from_prometheus`], and the interval's p50/p99 are the
//! quantiles of the merged `advisor_latency_*` histograms' delta between polls,
//! the bucket midpoint (≤ 6.25 % off) the `quantile` SLO rule reads too.  Only
//! where the rule clamps to the exact max, which the text lacks, `top` reads
//! the midpoint above it.
//!
//! `--once` mode takes exactly two samples one interval apart and emits a single
//! sorted-key JSON line ([`snapshot_json`]) for scripts and CI instead of drawing.

use crate::client::run_client;
use std::fmt::Write as _;
use std::time::Instant;
use tcp_obs::health::{RuleReport, Severity};
use tcp_obs::RegistrySnapshot;

/// The per-request-kind advisor latency histograms, as the exposition names them.
const LATENCY: [&str; 4] = [
    "advisor_latency_best_policy",
    "advisor_latency_checkpoint_plan",
    "advisor_latency_expected_cost_makespan",
    "advisor_latency_should_reuse",
];

/// Options for [`run_top`].
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Seconds between polls (also the quantile/rate window).
    pub interval_secs: f64,
    /// Take two samples, print one JSON snapshot line, exit.
    pub once: bool,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            addr: String::new(),
            interval_secs: 2.0,
            once: false,
        }
    }
}

/// One polled sample: the registry snapshot and health state the dashboard
/// windows between two of these.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopSample {
    /// The server's registry, read back from its `!metrics prom` exposition
    /// (keyed by exposition names: `serve_requests_served`, ...).
    pub metrics: RegistrySnapshot,
    /// `!health` verdict (`healthy` / `degraded` / `unhealthy`).
    pub verdict: String,
    /// Per-rule states from `!health`.
    pub rules: Vec<RuleReport>,
    /// Served pack name.
    pub pack_name: String,
    /// Seconds since the pack was swapped in.
    pub pack_age_secs: f64,
    /// Served pack format version.
    pub pack_format_version: u64,
    /// Seconds since the server's observability epoch.
    pub uptime_secs: f64,
    /// Recent warn/error event records, rendered one-line each (site + level).
    pub recent_errors: Vec<String>,
    /// Total wall-clock profiler samples from `!profile` (0 when the server's
    /// profiler is disarmed or the control line isn't answered).
    pub wall_samples: u64,
    /// Hot sites ranked by self samples, from the profiler's collapsed stacks.
    pub hot_sites: Vec<tcp_obs::profile::HotSite>,
}

impl TopSample {
    /// Rules currently firing.
    pub fn alerts_firing(&self) -> usize {
        self.rules.iter().filter(|r| r.firing).count()
    }
}

/// Parses one `!metrics prom` response line and one `!health` response line into
/// a [`TopSample`].
pub fn parse_sample(metrics_line: &str, health_line: &str) -> Result<TopSample, String> {
    let metrics = serde_json::parse_value(metrics_line.trim())
        .map_err(|e| format!("bad !metrics prom line: {e}"))?;
    let text = metrics
        .get("text")
        .and_then(|v| v.as_str())
        .ok_or("!metrics prom reply has no `text`")?;
    let metrics = RegistrySnapshot::from_prometheus(text)?;

    let health_value = serde_json::parse_value(health_line.trim())
        .map_err(|e| format!("bad !health line: {e}"))?;
    let health = health_value
        .get("health")
        .ok_or("!health reply has no `health`")?;
    let str_of = |v: Option<&serde::Value>| v.and_then(|v| v.as_str()).unwrap_or("").to_string();
    let f64_of = |v: Option<&serde::Value>| v.and_then(|v| v.as_f64()).unwrap_or(0.0);
    let pack = health.get("pack");
    let rules = health
        .get("rules")
        .and_then(|v| v.as_seq())
        .unwrap_or(&[])
        .iter()
        .map(|rule| RuleReport {
            name: str_of(rule.get("name")),
            severity: match str_of(rule.get("severity")).as_str() {
                "critical" => Severity::Critical,
                _ => Severity::Warn,
            },
            firing: rule
                .get("firing")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
            short_value: f64_of(rule.get("short_value")),
            long_value: f64_of(rule.get("long_value")),
            threshold: f64_of(rule.get("threshold")),
        })
        .collect();
    let recent_errors = health
        .get("recent_errors")
        .and_then(|v| v.as_seq())
        .unwrap_or(&[])
        .iter()
        .map(|event| {
            format!(
                "[{}] {} args={}",
                str_of(event.get("level")),
                str_of(event.get("site")),
                event
                    .get("args")
                    .and_then(|v| v.as_map())
                    .map(|m| m.len())
                    .unwrap_or(0),
            )
        })
        .collect();

    Ok(TopSample {
        metrics,
        verdict: str_of(health.get("verdict")),
        rules,
        pack_name: str_of(pack.and_then(|p| p.get("name"))),
        pack_age_secs: f64_of(pack.and_then(|p| p.get("age_secs"))),
        pack_format_version: f64_of(pack.and_then(|p| p.get("format_version"))) as u64,
        uptime_secs: f64_of(health.get("uptime_secs")),
        recent_errors,
        wall_samples: 0,
        hot_sites: Vec::new(),
    })
}

/// Parses one `!profile` response line into the wall-sample total and the
/// hot-sites ranking.
///
/// The `wall.stacks` map's keys are `;`-joined collapsed paths; splitting them
/// back recovers the stacks, and [`tcp_obs::profile::hot_sites`] ranks them the
/// same way the server-side exporters do.  Errors (an older server answering
/// the control line with an error record, say) are the caller's to swallow —
/// the panel is additive, not load-bearing.
pub fn parse_profile(profile_line: &str) -> Result<(u64, Vec<tcp_obs::profile::HotSite>), String> {
    let value = serde_json::parse_value(profile_line.trim())
        .map_err(|e| format!("bad !profile line: {e}"))?;
    let wall = value
        .get("profile")
        .and_then(|p| p.get("wall"))
        .ok_or("!profile reply has no `profile.wall`")?;
    let samples = wall.get("samples").and_then(|v| v.as_u64()).unwrap_or(0);
    let stacks: Vec<(Vec<String>, u64)> = wall
        .get("stacks")
        .and_then(|v| v.as_map())
        .unwrap_or(&[])
        .iter()
        .filter_map(|(path, count)| {
            count.as_u64().map(|count| {
                (
                    path.split(';').map(str::to_string).collect::<Vec<_>>(),
                    count,
                )
            })
        })
        .collect();
    Ok((samples, tcp_obs::profile::hot_sites(&stacks)))
}

/// The windowed figures between two samples taken `elapsed_secs` apart.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Requests served per second over the window.
    pub qps: f64,
    /// Percentage of requests shed over the window.
    pub shed_pct: f64,
    /// Windowed advisor-latency p50, microseconds.
    pub p50_us: f64,
    /// Windowed advisor-latency p99, microseconds.
    pub p99_us: f64,
}

/// Derives the windowed qps/shed%/latency figures between two samples.
pub fn window_between(prev: &TopSample, curr: &TopSample, elapsed_secs: f64) -> Window {
    let delta = |name: &str| {
        let count = |sample: &TopSample| sample.metrics.counter_sum(&[name]);
        count(curr).saturating_sub(count(prev))
    };
    let served = delta("serve_requests_served");
    let shed = delta("serve_requests_shed");
    let answered = served + shed;
    let latency = curr
        .metrics
        .merged_histogram(&LATENCY)
        .delta_since(&prev.metrics.merged_histogram(&LATENCY));
    Window {
        qps: tcp_obs::rate_per_sec(served, elapsed_secs),
        shed_pct: if answered == 0 {
            0.0
        } else {
            100.0 * shed as f64 / answered as f64
        },
        p50_us: latency.quantile(0.50) / 1e3,
        p99_us: latency.quantile(0.99) / 1e3,
    }
}

/// The `--once` machine-readable snapshot: one line of sorted-key JSON with the
/// windowed figures and the current verdict.
pub fn snapshot_json(curr: &TopSample, window: &Window) -> String {
    format!(
        "{{\"alerts_firing\":{},\"p50_us\":{:.3},\"p99_us\":{:.3},\"pack\":{},\
         \"profile_samples\":{},\"qps\":{:.1},\"shed_pct\":{:.2},\"verdict\":\"{}\"}}",
        curr.alerts_firing(),
        window.p50_us,
        window.p99_us,
        serde_json::to_string(&curr.pack_name).expect("strings serialize"),
        curr.wall_samples,
        window.qps,
        window.shed_pct,
        curr.verdict,
    )
}

const RESET: &str = "\x1b[0m";
const BOLD: &str = "\x1b[1m";
const DIM: &str = "\x1b[2m";
const GREEN: &str = "\x1b[32m";
const YELLOW: &str = "\x1b[33m";
const RED: &str = "\x1b[31m";

fn verdict_color(verdict: &str) -> &'static str {
    match verdict {
        "healthy" => GREEN,
        "degraded" => YELLOW,
        _ => RED,
    }
}

/// Renders one full dashboard frame (ANSI clear + repaint) as a string.
pub fn render_frame(addr: &str, curr: &TopSample, window: &Window) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("\x1b[2J\x1b[H"); // clear screen, home cursor
    let _ = writeln!(
        out,
        "{BOLD}advise top{RESET} — {addr}   pack {BOLD}{}{RESET} v{} {DIM}(age {:.0}s, uptime {:.0}s){RESET}",
        curr.pack_name, curr.pack_format_version, curr.pack_age_secs, curr.uptime_secs,
    );
    let color = verdict_color(&curr.verdict);
    let _ = writeln!(
        out,
        "verdict {color}{BOLD}{}{RESET}   alerts firing: {}",
        curr.verdict.to_uppercase(),
        curr.alerts_firing(),
    );
    let _ = writeln!(
        out,
        "window  qps {BOLD}{:.0}{RESET}  p50 {:.1}us  p99 {:.1}us  shed {:.2}%  queue {:.0}  inflight {:.0}",
        window.qps,
        window.p50_us,
        window.p99_us,
        window.shed_pct,
        curr.metrics.gauge_value("serve_queue_depth"),
        curr.metrics.gauge_value("serve_inflight"),
    );
    if !curr.rules.is_empty() {
        let _ = writeln!(out, "{DIM}rules{RESET}");
        for rule in &curr.rules {
            let (mark, color) = match (rule.firing, rule.severity) {
                (false, _) => ("ok", GREEN),
                (true, Severity::Critical) => ("!!", RED),
                (true, Severity::Warn) => ("!!", YELLOW),
            };
            let _ = writeln!(
                out,
                "  {color}[{mark}]{RESET} {:<24} short {:>12.4}  long {:>12.4}  thr {:.4} ({})",
                rule.name,
                rule.short_value,
                rule.long_value,
                rule.threshold,
                rule.severity.as_str(),
            );
        }
    }
    if !curr.hot_sites.is_empty() && curr.wall_samples > 0 {
        let _ = writeln!(
            out,
            "{DIM}hot sites{RESET} ({} wall samples)",
            curr.wall_samples
        );
        for site in curr.hot_sites.iter().take(5) {
            let pct = |n: u64| 100.0 * n as f64 / curr.wall_samples as f64;
            let _ = writeln!(
                out,
                "  {:<28} self {:>5.1}%  total {:>5.1}%",
                site.name,
                pct(site.self_samples),
                pct(site.total_samples),
            );
        }
    }
    if !curr.recent_errors.is_empty() {
        let _ = writeln!(out, "{DIM}recent warn/error events{RESET}");
        for line in curr.recent_errors.iter().rev().take(5) {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

/// Polls the server once: sends `!metrics prom` + `!health` + `!profile` over
/// one connection and parses the response lines.
///
/// The `!profile` reply is best-effort: a server that predates the control line
/// answers with an error record, and the dashboard simply draws no hot-sites
/// panel rather than failing the poll.
fn poll(addr: &str) -> Result<TopSample, String> {
    let reply = run_client(addr, "!metrics prom\n!health\n!profile\n")
        .map_err(|e| format!("cannot poll {addr}: {e}"))?;
    let mut lines = reply.lines();
    let metrics = lines.next().ok_or("server sent no !metrics reply")?;
    let health = lines.next().ok_or("server sent no !health reply")?;
    let mut sample = parse_sample(metrics, health)?;
    if let Some(Ok((samples, hot))) = lines.next().map(parse_profile) {
        sample.wall_samples = samples;
        sample.hot_sites = hot;
    }
    Ok(sample)
}

/// Runs the dashboard: polls every `interval_secs`, repainting the terminal —
/// or, with `once`, emits a single [`snapshot_json`] line after one interval.
///
/// The live loop ends when the server stops answering (Err; a drained server is
/// how `advise top` normally exits).
pub fn run_top(options: &TopOptions) -> Result<(), String> {
    let interval = tcp_obs::cli::positive_secs("interval_secs", options.interval_secs.max(0.05))?;
    let mut prev = poll(&options.addr)?;
    let mut prev_at = Instant::now();
    loop {
        std::thread::sleep(interval);
        let curr = poll(&options.addr)?;
        let window = window_between(&prev, &curr, prev_at.elapsed().as_secs_f64());
        prev_at = Instant::now();
        if options.once {
            println!("{}", snapshot_json(&curr, &window));
            return Ok(());
        }
        print!("{}", render_frame(&options.addr, &curr, &window));
        let _ = std::io::Write::flush(&mut std::io::stdout());
        prev = curr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROM: &str = "\
# TYPE advisor_latency_best_policy histogram
advisor_latency_best_policy_bucket{le=\"1024\"} 10
advisor_latency_best_policy_bucket{le=\"2048\"} 30
advisor_latency_best_policy_bucket{le=\"+Inf\"} 30
advisor_latency_best_policy_sum 45000
advisor_latency_best_policy_count 30
# TYPE advisor_latency_should_reuse histogram
advisor_latency_should_reuse_bucket{le=\"2048\"} 5
advisor_latency_should_reuse_bucket{le=\"+Inf\"} 5
advisor_latency_should_reuse_sum 9000
advisor_latency_should_reuse_count 5
# TYPE serve_inflight gauge
serve_inflight 2
# TYPE serve_queue_depth gauge
serve_queue_depth 3
# TYPE serve_requests_served counter
serve_requests_served 1000
# TYPE serve_requests_shed counter
serve_requests_shed 50
";

    /// A `!metrics prom` reply line carrying `text`.
    fn metrics_line(text: &str) -> String {
        format!(
            "{{\"control\":\"metrics\",\"encoding\":\"prometheus-0.0.4\",\"text\":{}}}",
            serde_json::to_string(text).unwrap()
        )
    }

    const HEALTHY: &str = "{\"control\":\"health\",\"health\":{\"verdict\":\"healthy\"}}";

    #[test]
    fn parse_sample_reads_the_exposition_into_a_snapshot() {
        let sample = parse_sample(&metrics_line(PROM), HEALTHY).unwrap();
        let metrics = &sample.metrics;
        assert_eq!(metrics.counter_sum(&["serve_requests_served"]), 1000);
        assert_eq!(metrics.counter_sum(&["serve_requests_shed"]), 50);
        assert_eq!(metrics.gauge_value("serve_queue_depth"), 3.0);
        assert_eq!(metrics.gauge_value("serve_inflight"), 2.0);
        // best_policy: 10 in [960, 1024), 20 in [1920, 2048); should_reuse adds
        // 5 more to the second.  The `+Inf` lines add no bucket.
        let merged = metrics.merged_histogram(&LATENCY);
        assert_eq!(merged.count, 35);
        assert_eq!(merged.sum, 54_000);
        assert_eq!(merged.cumulative_buckets(), [(1024, 10), (2048, 35)]);
        // The snapshot renders back to the exposition it was read from.
        assert_eq!(metrics.to_prometheus(), PROM);
        assert!(parse_sample(&metrics_line("serve_requests_served 1\n"), HEALTHY).is_err());
    }

    /// A sample polled from a registry holding these counters and
    /// `advisor.latency.best_policy` samples, read through its exposition.
    fn sample(served: u64, shed: u64, latencies_ns: &[u64]) -> TopSample {
        let registry = tcp_obs::Registry::new();
        registry.counter("serve.requests.served").add(served);
        registry.counter("serve.requests.shed").add(shed);
        let latency = registry.histogram("advisor.latency.best_policy");
        for &ns in latencies_ns {
            latency.record(ns);
        }
        TopSample {
            metrics: RegistrySnapshot::from_prometheus(&registry.snapshot().to_prometheus())
                .unwrap(),
            verdict: "healthy".to_string(),
            pack_name: "tiny-pack".to_string(),
            ..TopSample::default()
        }
    }

    #[test]
    fn windows_are_deltas_not_lifetime_aggregates() {
        let prev = sample(1000, 0, &[1000; 1000]);
        let curr = sample(1500, 500, &[[1000; 1000].as_slice(), &[8000; 100]].concat());
        let window = window_between(&prev, &curr, 10.0);
        assert_eq!(window.qps, 50.0);
        assert_eq!(window.shed_pct, 50.0);
        // All interval samples sit in the [7680, 8192) bucket, read at its
        // midpoint: the old 1000ns mass cancels out of the delta entirely.
        assert_eq!(window.p50_us, 7.936);
        assert_eq!(window.p99_us, 7.936);
    }

    /// Records `history`, snapshots, records `window`, snapshots again, all
    /// spread over the four `advisor.latency.*` histograms.  Returns top's
    /// windowed (p50, p99) read from the two snapshots' exposition text, and
    /// a two-rule (q = 0.5, 0.99) SLO evaluator's short-window values over the
    /// same two snapshots, both in microseconds.
    fn top_and_rule_quantiles(history: &[u64], window: &[u64]) -> ([f64; 2], [f64; 2]) {
        const NAMES: [&str; 4] = [
            "advisor.latency.should_reuse",
            "advisor.latency.checkpoint_plan",
            "advisor.latency.expected_cost_makespan",
            "advisor.latency.best_policy",
        ];
        let rule = |name: &str, q: f64| {
            format!(
                "[[rule]]\nname = \"{name}\"\nkind = \"quantile\"\nhistograms = {NAMES:?}\n\
                 q = {q}\nthreshold = 1e12\nshort_window_secs = 10.0\nlong_window_secs = 30.0\n"
            )
        };
        let spec = format!("{}{}", rule("p50", 0.5), rule("p99", 0.99));
        let mut evaluator =
            tcp_obs::health::Evaluator::new(tcp_obs::health::SloSpec::from_str(&spec).unwrap());
        let registry = tcp_obs::Registry::new();
        let record = |samples: &[u64]| {
            for (i, &ns) in samples.iter().enumerate() {
                registry.histogram(NAMES[i % NAMES.len()]).record(ns);
            }
        };
        let mut poll = |t_secs: f64| {
            let snapshot = registry.snapshot();
            let line = metrics_line(&snapshot.to_prometheus());
            evaluator.tick_with(t_secs, snapshot);
            parse_sample(&line, HEALTHY).unwrap()
        };
        record(history);
        let prev = poll(0.0);
        record(window);
        let curr = poll(10.0);
        let top = window_between(&prev, &curr, 10.0);
        let rules = evaluator.report(10.0).rules;
        (
            [top.p50_us, top.p99_us],
            [rules[0].short_value / 1e3, rules[1].short_value / 1e3],
        )
    }

    #[test]
    fn window_quantiles_agree_with_the_slo_quantile_rule() {
        // A 1,000 ns sample is read at its bucket's midpoint, 992 ns, by both.
        let (top, rule) = top_and_rule_quantiles(&[50_000; 10], &[1_000; 100]);
        assert_eq!(top, [0.992, 0.992]);
        assert_eq!(rule, top);

        // Random latencies, log-uniform over 100 ns .. 10 ms, before and inside
        // the window.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(33);
        let mut draw = |n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| 10f64.powf(rand::Rng::gen_range(&mut rng, 2.0..7.0)) as u64)
                .collect()
        };
        const CASES: usize = 100;
        let mut clamped = 0;
        for case in 0..CASES {
            let history = draw(case % 7 * 40);
            let window = draw(1 + case % 11 * 30);
            let largest = history.iter().chain(&window).copied().max().unwrap();
            let (top, rule) = top_and_rule_quantiles(&history, &window);
            for (top, rule) in top.into_iter().zip(rule) {
                if top == rule {
                    continue;
                }
                // The rule clamps an estimate to the registry's exact max; the
                // exposition has none, so top reads the bucket midpoint, less
                // than half a (≤ 1/8-wide) bucket above it.
                clamped += 1;
                assert_eq!(rule, largest as f64 / 1e3, "case {case}");
                assert!(rule < top && top < rule * (1.0 + 1.0 / 16.0), "case {case}");
            }
        }
        // The clamp needs the holding bucket to be the one with the largest
        // sample, in its lower half: most quantiles agree exactly.
        assert!(clamped * 4 < 2 * CASES, "{clamped} of {} differ", 2 * CASES);
    }

    #[test]
    fn snapshot_json_is_one_sorted_stable_line() {
        let curr = sample(10, 0, &[]);
        let window = Window {
            qps: 123.456,
            shed_pct: 1.2345,
            p50_us: 10.5,
            p99_us: 99.125,
        };
        let line = snapshot_json(&curr, &window);
        assert_eq!(
            line,
            "{\"alerts_firing\":0,\"p50_us\":10.500,\"p99_us\":99.125,\
             \"pack\":\"tiny-pack\",\"profile_samples\":0,\"qps\":123.5,\
             \"shed_pct\":1.23,\"verdict\":\"healthy\"}"
        );
        let value = serde_json::parse_value(&line).unwrap();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn parse_sample_reads_metrics_and_health_lines() {
        let health_line = "{\"control\":\"health\",\"health\":{\"pack\":{\"age_secs\":12.5,\
             \"cells\":2,\"format_version\":3,\"name\":\"prod-pack\"},\"recent_errors\":[],\
             \"rules\":[{\"firing\":true,\"long_value\":0.2,\"name\":\"shed-ratio\",\
             \"severity\":\"critical\",\"short_value\":0.5,\"threshold\":0.05}],\
             \"uptime_secs\":100,\"verdict\":\"unhealthy\"}}";
        let sample = parse_sample(&metrics_line(PROM), health_line).unwrap();
        assert_eq!(sample.verdict, "unhealthy");
        assert_eq!(sample.pack_name, "prod-pack");
        assert_eq!(sample.pack_format_version, 3);
        assert_eq!(sample.pack_age_secs, 12.5);
        assert_eq!(sample.alerts_firing(), 1);
        assert_eq!(sample.rules[0].name, "shed-ratio");
        assert_eq!(sample.rules[0].threshold, 0.05);
        // A frame renders without panicking and carries the verdict color.
        let frame = render_frame(
            "127.0.0.1:1",
            &sample,
            &window_between(&sample, &sample, 1.0),
        );
        assert!(frame.contains("UNHEALTHY"));
        assert!(frame.contains("shed-ratio"));
        assert!(frame.contains("queue 3  inflight 2"));
    }

    #[test]
    fn parse_profile_ranks_hot_sites_from_collapsed_stacks() {
        let line = "{\"control\":\"profile\",\"profile\":{\"alloc\":{\"allocs\":1,\
             \"bytes\":64,\"frees\":0,\"freed_bytes\":0,\"live_bytes\":64,\
             \"peak_bytes\":64,\"sites\":{}},\"wall\":{\"armed\":true,\"hz\":997,\
             \"samples\":10,\"stacks\":{\"serve.request\":2,\
             \"serve.request;advisor.lookup\":7,\"serve.request;advisor.route\":1},\
             \"ticks\":10,\"torn\":0}}}";
        let (samples, hot) = parse_profile(line).unwrap();
        assert_eq!(samples, 10);
        // advisor.lookup leads on self samples; serve.request spans every stack
        // so its total is 10 even though only 2 samples end there.
        assert_eq!(hot[0].name, "advisor.lookup");
        assert_eq!(hot[0].self_samples, 7);
        let serve = hot.iter().find(|s| s.name == "serve.request").unwrap();
        assert_eq!(serve.self_samples, 2);
        assert_eq!(serve.total_samples, 10);

        // The hot-sites panel renders with self/total percentages.
        let mut sample = sample(10, 0, &[]);
        sample.wall_samples = samples;
        sample.hot_sites = hot;
        let frame = render_frame(
            "127.0.0.1:1",
            &sample,
            &window_between(&sample, &sample, 1.0),
        );
        assert!(frame.contains("hot sites"));
        assert!(frame.contains("advisor.lookup"));
        assert!(frame.contains("70.0%"));

        // An error reply (older server) is an Err, not a panic — the poll loop
        // swallows it and draws no panel.
        assert!(parse_profile("{\"error\":\"unknown control\"}").is_err());
    }
}
