//! `advise top` — a live terminal dashboard over a running `advise listen` server.
//!
//! Connects to the server like any other client and polls `!metrics prom` +
//! `!health` + `!profile` over one short connection per refresh, so the dashboard
//! exercises the exact surfaces an operator's tooling would.  From two consecutive
//! polls it derives **windowed** figures — qps, shed %, p50/p99 advisor latency
//! over the refresh interval — rather than process-lifetime aggregates, then
//! repaints the terminal with plain ANSI escapes (no TTY crates).
//!
//! Latency quantiles are rebuilt client-side from the Prometheus exposition: each
//! `advisor_latency_*` family's cumulative `_bucket{le="..."}` series is
//! de-cumulated, merged across the four request-kind families, and differenced
//! between polls; a nearest-rank walk over the merged delta buckets yields the
//! interval's quantiles (reported at the bucket's `le` upper bound, so the figure
//! is conservative).
//!
//! `--once` mode takes exactly two samples one interval apart and emits a single
//! sorted-key JSON line ([`snapshot_json`]) for scripts and CI instead of drawing.

use crate::client::run_client;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Options for [`run_top`].
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Seconds between polls (also the quantile/rate window).
    pub interval_secs: f64,
    /// Take two samples, print one JSON snapshot line, exit.
    pub once: bool,
    /// Stop after this many repaints (`None` = until the server goes away).
    /// Mostly for tests; `--once` ignores it.
    pub max_frames: Option<u64>,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            addr: String::new(),
            interval_secs: 2.0,
            once: false,
            max_frames: None,
        }
    }
}

/// One rule's state as reported by `!health`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleRow {
    /// Rule name.
    pub name: String,
    /// `warn` or `critical`.
    pub severity: String,
    /// Whether the rule is firing.
    pub firing: bool,
    /// Latest short-window signal value.
    pub short_value: f64,
    /// Latest long-window signal value.
    pub long_value: f64,
    /// The rule's firing threshold.
    pub threshold: f64,
}

/// One polled sample: the scalar metrics, merged latency buckets, and health
/// state the dashboard windows between two of these.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopSample {
    /// `serve_requests_served` counter total.
    pub served: u64,
    /// `serve_requests_shed` counter total.
    pub shed: u64,
    /// `serve_queue_depth` gauge.
    pub queue_depth: f64,
    /// `serve_inflight` gauge.
    pub inflight: f64,
    /// Non-cumulative bucket counts (`le` upper bound → samples), merged across
    /// the four `advisor_latency_*` families.
    pub latency_buckets: BTreeMap<u64, u64>,
    /// `!health` verdict (`healthy` / `degraded` / `unhealthy`).
    pub verdict: String,
    /// Per-rule states from `!health`.
    pub rules: Vec<RuleRow>,
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

/// Extracts scalars and merged non-cumulative latency buckets from a Prometheus
/// text exposition.
///
/// Scalar samples (`name value`) land in the returned map as-is.  For every
/// `advisor_latency_*` histogram family, the cumulative `_bucket{le="..."}`
/// series is de-cumulated (families are contiguous in the exposition and their
/// buckets ascend, so a running per-family subtraction recovers per-bucket
/// counts) and merged into one `le → count` map across families.
pub fn parse_prometheus(text: &str) -> (BTreeMap<String, f64>, BTreeMap<u64, u64>) {
    let mut scalars = BTreeMap::new();
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    let mut family = "";
    let mut last_cumulative = 0u64;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name_and_label, value)) = line.rsplit_once(' ') {
            if let Some((name, label)) = name_and_label.split_once("_bucket{le=\"") {
                if name != family {
                    family = name;
                    last_cumulative = 0;
                }
                if !name.starts_with("advisor_latency_") {
                    continue;
                }
                let le = label.trim_end_matches("\"}");
                let (Ok(cumulative), Ok(le)) = (value.parse::<u64>(), le.parse::<u64>()) else {
                    continue; // the +Inf bucket; the last finite bucket covered it
                };
                *buckets.entry(le).or_insert(0) += cumulative.saturating_sub(last_cumulative);
                last_cumulative = cumulative;
            } else if let Ok(v) = value.parse::<f64>() {
                scalars.insert(name_and_label.to_string(), v);
            }
        }
    }
    (scalars, buckets)
}

/// Per-bucket difference `current - earlier` (saturating; keys union'd).
pub fn bucket_delta(
    current: &BTreeMap<u64, u64>,
    earlier: &BTreeMap<u64, u64>,
) -> BTreeMap<u64, u64> {
    let mut delta = BTreeMap::new();
    for (&le, &count) in current {
        let before = earlier.get(&le).copied().unwrap_or(0);
        let d = count.saturating_sub(before);
        if d > 0 {
            delta.insert(le, d);
        }
    }
    delta
}

/// Nearest-rank quantile over non-cumulative `le → count` buckets, reported at
/// the holding bucket's `le` upper bound (0 when empty).
pub fn quantile_from_buckets(buckets: &BTreeMap<u64, u64>, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (&le, &count) in buckets {
        cumulative += count;
        if cumulative >= target {
            return le as f64;
        }
    }
    0.0
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
    let (scalars, latency_buckets) = parse_prometheus(text);
    let scalar = |name: &str| scalars.get(name).copied().unwrap_or(0.0);

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
        .map(|rule| RuleRow {
            name: str_of(rule.get("name")),
            severity: str_of(rule.get("severity")),
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
        served: scalar("serve_requests_served") as u64,
        shed: scalar("serve_requests_shed") as u64,
        queue_depth: scalar("serve_queue_depth"),
        inflight: scalar("serve_inflight"),
        latency_buckets,
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
    let served = curr.served.saturating_sub(prev.served);
    let shed = curr.shed.saturating_sub(prev.shed);
    let answered = served + shed;
    let delta = bucket_delta(&curr.latency_buckets, &prev.latency_buckets);
    Window {
        qps: tcp_obs::rate_per_sec(served, elapsed_secs),
        shed_pct: if answered == 0 {
            0.0
        } else {
            100.0 * shed as f64 / answered as f64
        },
        p50_us: quantile_from_buckets(&delta, 0.50) / 1e3,
        p99_us: quantile_from_buckets(&delta, 0.99) / 1e3,
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
        window.qps, window.p50_us, window.p99_us, window.shed_pct, curr.queue_depth, curr.inflight,
    );
    if !curr.rules.is_empty() {
        let _ = writeln!(out, "{DIM}rules{RESET}");
        for rule in &curr.rules {
            let (mark, color) = if rule.firing {
                (
                    "!!",
                    if rule.severity == "critical" {
                        RED
                    } else {
                        YELLOW
                    },
                )
            } else {
                ("ok", GREEN)
            };
            let _ = writeln!(
                out,
                "  {color}[{mark}]{RESET} {:<24} short {:>12.4}  long {:>12.4}  thr {:.4} ({})",
                rule.name, rule.short_value, rule.long_value, rule.threshold, rule.severity,
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
/// The live loop ends when `max_frames` is reached (Ok) or the server stops
/// answering (Err; a drained server is how `advise top` normally exits).
pub fn run_top(options: &TopOptions) -> Result<(), String> {
    let interval = tcp_obs::cli::positive_secs("interval_secs", options.interval_secs.max(0.05))?;
    let mut prev = poll(&options.addr)?;
    let mut prev_at = Instant::now();
    if options.once {
        std::thread::sleep(interval);
        let curr = poll(&options.addr)?;
        let window = window_between(&prev, &curr, prev_at.elapsed().as_secs_f64());
        println!("{}", snapshot_json(&curr, &window));
        return Ok(());
    }
    let mut frames = 0u64;
    loop {
        std::thread::sleep(interval);
        let curr = poll(&options.addr)?;
        let elapsed = prev_at.elapsed().as_secs_f64();
        prev_at = Instant::now();
        let window = window_between(&prev, &curr, elapsed);
        print!("{}", render_frame(&options.addr, &curr, &window));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = curr;
        frames += 1;
        if options.max_frames.is_some_and(|max| frames >= max) {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROM: &str = "\
# TYPE serve_requests_served counter
serve_requests_served 1000
# TYPE serve_requests_shed counter
serve_requests_shed 50
# TYPE serve_queue_depth gauge
serve_queue_depth 3
# TYPE serve_inflight gauge
serve_inflight 2
# TYPE advisor_latency_best_policy histogram
advisor_latency_best_policy_bucket{le=\"1000\"} 10
advisor_latency_best_policy_bucket{le=\"2000\"} 30
advisor_latency_best_policy_bucket{le=\"+Inf\"} 30
advisor_latency_best_policy_sum 45000
advisor_latency_best_policy_count 30
# TYPE advisor_latency_should_reuse histogram
advisor_latency_should_reuse_bucket{le=\"2000\"} 5
advisor_latency_should_reuse_bucket{le=\"+Inf\"} 5
advisor_latency_should_reuse_sum 9000
advisor_latency_should_reuse_count 5
";

    #[test]
    fn parses_scalars_and_decumulates_merged_buckets() {
        let (scalars, buckets) = parse_prometheus(PROM);
        assert_eq!(scalars.get("serve_requests_served"), Some(&1000.0));
        assert_eq!(scalars.get("serve_requests_shed"), Some(&50.0));
        assert_eq!(scalars.get("serve_queue_depth"), Some(&3.0));
        // best_policy: 10 at le=1000, 20 at le=2000 (de-cumulated); should_reuse
        // adds 5 more at le=2000.  The `+Inf` lines don't add phantom buckets.
        assert_eq!(buckets.get(&1000), Some(&10));
        assert_eq!(buckets.get(&2000), Some(&25));
        assert_eq!(buckets.len(), 2);
        // _sum/_count scalars still parse as scalars.
        assert_eq!(
            scalars.get("advisor_latency_best_policy_count"),
            Some(&30.0)
        );
    }

    #[test]
    fn quantile_walk_reports_bucket_upper_bounds() {
        let buckets: BTreeMap<u64, u64> = [(1000, 10), (2000, 25)].into_iter().collect();
        assert_eq!(quantile_from_buckets(&buckets, 0.01), 1000.0);
        // rank ceil(0.5*35)=18 > 10 → second bucket.
        assert_eq!(quantile_from_buckets(&buckets, 0.50), 2000.0);
        assert_eq!(quantile_from_buckets(&buckets, 1.0), 2000.0);
        assert_eq!(quantile_from_buckets(&BTreeMap::new(), 0.5), 0.0);
    }

    fn sample(served: u64, shed: u64, buckets: &[(u64, u64)]) -> TopSample {
        TopSample {
            served,
            shed,
            latency_buckets: buckets.iter().copied().collect(),
            verdict: "healthy".to_string(),
            pack_name: "tiny-pack".to_string(),
            ..TopSample::default()
        }
    }

    #[test]
    fn windows_are_deltas_not_lifetime_aggregates() {
        let prev = sample(1000, 0, &[(1000, 1000)]);
        let curr = sample(1500, 500, &[(1000, 1000), (8000, 100)]);
        let window = window_between(&prev, &curr, 10.0);
        assert_eq!(window.qps, 50.0);
        assert_eq!(window.shed_pct, 50.0);
        // All interval samples sit in the 8000ns bucket: the old 1000ns mass
        // cancels out of the delta entirely.
        assert_eq!(window.p50_us, 8.0);
        assert_eq!(window.p99_us, 8.0);
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
        let metrics_line = format!(
            "{{\"control\":\"metrics\",\"encoding\":\"prometheus-0.0.4\",\"text\":{}}}",
            serde_json::to_string(&PROM.to_string()).unwrap()
        );
        let health_line = "{\"control\":\"health\",\"health\":{\"pack\":{\"age_secs\":12.5,\
             \"cells\":2,\"format_version\":3,\"name\":\"prod-pack\"},\"recent_errors\":[],\
             \"rules\":[{\"firing\":true,\"long_value\":0.2,\"name\":\"shed-ratio\",\
             \"severity\":\"critical\",\"short_value\":0.5,\"threshold\":0.05}],\
             \"uptime_secs\":100,\"verdict\":\"unhealthy\"}}";
        let sample = parse_sample(&metrics_line, health_line).unwrap();
        assert_eq!(sample.served, 1000);
        assert_eq!(sample.shed, 50);
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
