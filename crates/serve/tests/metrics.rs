//! The observability determinism contract, asserted over a real socket: served bytes
//! must be identical whether metrics are enabled or disabled, `!metrics` control lines
//! must parse and report the serve-layer instrumentation, and the Prometheus exposition
//! must carry the expected metric families — all without a single instrumentation byte
//! leaking into the response stream.
//!
//! Everything lives in one `#[test]` because it toggles the process-global
//! `tcp_obs::set_enabled` switch: a sibling test recording histograms concurrently
//! would race with the disabled window.

use tcp_advisor::{
    generate_requests, requests_to_ndjson, serve_session, AdvisorHandle, MultiAdvisor, PackBuilder,
};
use tcp_scenarios::SweepSpec;
use tcp_serve::{run_client, ServeOptions, Server};

/// Builds a small single-regime pack as JSON (the loopback-test pack).
fn tiny_pack_json() -> String {
    let spec = SweepSpec::from_toml(
        r#"
[sweep]
name = "metrics"

[[regime]]
name = "exp8"
kind = "exponential"
mean_hours = 8.0

[workload]
dp_step_minutes = 30.0
"#,
    )
    .unwrap();
    let builder = PackBuilder {
        age_points: 121,
        checkpoint_age_points: 3,
        checkpoint_job_points: 4,
        max_checkpoint_job_hours: 4.0,
        ..Default::default()
    };
    builder.build_from_spec(&spec).unwrap().to_json().unwrap()
}

fn advisor(json: &str) -> MultiAdvisor {
    MultiAdvisor::from_json(json).unwrap()
}

/// `count` requests of the standard mix against the pack in `json`, as NDJSON.
fn request_corpus(json: &str, count: usize, seed: u64) -> String {
    let pack = tcp_advisor::ModelPack::from_json(json).unwrap();
    requests_to_ndjson(&generate_requests(&pack, count, seed))
}

#[test]
fn metrics_stay_out_of_the_response_stream() {
    let json = tiny_pack_json();
    let corpus = request_corpus(&json, 400, 17);
    let expected = serve_session(&AdvisorHandle::new(advisor(&json)), &corpus, 1);

    // --- Metrics enabled (the default): responses match batch mode byte for byte,
    // and an admin `!metrics` probe reports the serve-layer counters.
    assert!(tcp_obs::enabled());
    let server = Server::start(advisor(&json), ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let enabled_out = run_client(&addr, &corpus).unwrap();
    let metrics_out = run_client(&addr, "!metrics\n").unwrap();
    server.shutdown();
    server.join();
    assert_eq!(enabled_out, expected, "instrumented bytes must match batch");

    let value = serde_json::parse_value(metrics_out.trim()).unwrap();
    assert_eq!(
        value.get("control").and_then(|v| v.as_str()),
        Some("metrics")
    );
    let metrics = value.get("metrics").expect("metrics object");
    let counter = |name: &str| {
        metrics
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    // 400 request lines were served on the first connection, none shed; both admin
    // and request connections were accepted.  The registry is process-global, so
    // assert floors, not exact values.
    assert!(counter("serve.requests.served") >= 400);
    assert_eq!(counter("serve.requests.shed"), 0);
    assert!(counter("serve.connections.accepted") >= 2);
    // The advisor's per-family latency histograms recorded the served queries.
    let families = [
        "advisor.latency.should_reuse",
        "advisor.latency.checkpoint_plan",
        "advisor.latency.expected_cost_makespan",
        "advisor.latency.best_policy",
    ];
    let total: u64 = families
        .iter()
        .map(|name| {
            let hist = metrics.get(name).expect("latency family present");
            for key in ["count", "sum", "mean", "p50", "p90", "p99", "p999", "max"] {
                assert!(hist.get(key).is_some(), "{name} missing {key}");
            }
            hist.get("count").and_then(|v| v.as_u64()).unwrap()
        })
        .sum();
    assert!(
        total >= 400,
        "latency histograms must cover the served corpus"
    );

    // --- Metrics disabled: a fresh server over the same corpus produces the exact
    // same response bytes — instrumentation is strictly out-of-band.
    tcp_obs::set_enabled(false);
    let server = Server::start(advisor(&json), ServeOptions::default()).unwrap();
    let disabled_out = run_client(&server.local_addr().to_string(), &corpus).unwrap();
    server.shutdown();
    server.join();
    tcp_obs::set_enabled(true);
    assert_eq!(
        disabled_out, expected,
        "disabling metrics must not change bytes"
    );

    // --- The Prometheus exposition of the same registry carries the serve and
    // advisor families a scraper expects.
    let text = tcp_obs::Registry::global().snapshot().to_prometheus();
    for needle in [
        "# TYPE serve_requests_served counter",
        "# TYPE serve_connections_active gauge",
        "# TYPE advisor_latency_best_policy histogram",
        "advisor_latency_best_policy_bucket{le=",
        "advisor_latency_best_policy_count",
    ] {
        assert!(
            text.contains(needle),
            "exposition missing `{needle}`:\n{text}"
        );
    }
}
