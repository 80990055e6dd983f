//! Loopback health tests: the SLO evaluator and the `!health` probe must observe a
//! real serving workload without perturbing it — served bytes stay identical to
//! batch mode with the health machinery armed, and forced shedding deterministically
//! drives the published verdict Healthy → Degraded → Healthy.
//!
//! Both phases live in ONE test: the published health report and the metrics
//! registry are process-global, so a single test owns them for its whole run
//! (parallel test threads would otherwise race on `!health`'s answer).

mod common;

use common::{advisor, request_corpus, tiny_pack_json};
use tcp_advisor::{serve_session, AdvisorHandle};
use tcp_obs::health::{Evaluator, SloSpec, Transition};
use tcp_serve::{run_client, ServeOptions, Server};

/// The shed-ratio burn-rate rule both phases evaluate: shed / (served + shed),
/// firing above 1%, resolving below 0.5%, over a 10s short / 60s long window.
fn shed_ratio_spec() -> SloSpec {
    SloSpec::from_str(
        r#"
tick_secs = 5.0

[[rule]]
name = "shed-ratio"
kind = "ratio"
numerator = ["serve.requests.shed"]
denominator = ["serve.requests.served", "serve.requests.shed"]
threshold = 0.01
resolve_threshold = 0.005
short_window_secs = 10.0
long_window_secs = 60.0
severity = "warn"
"#,
    )
    .unwrap()
}

fn snapshot() -> tcp_obs::RegistrySnapshot {
    tcp_obs::Registry::global().snapshot()
}

fn probe_health(addr: &str) -> String {
    run_client(addr, "!health\n").unwrap().trim().to_string()
}

#[test]
fn shipped_example_slo_spec_parses_and_covers_the_serving_signals() {
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/serve/slo.toml"
    ));
    let spec = SloSpec::load(path).unwrap();
    assert_eq!(spec.tick_secs, 5.0);
    let names: Vec<&str> = spec.rules.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "shed-ratio",
            "advisor-p99-latency",
            "reload-failures",
            "queue-depth",
            "pack-stale"
        ]
    );
}

#[test]
fn health_machinery_is_out_of_band_and_tracks_forced_shedding() {
    tcp_obs::health::clear_current();

    // ---- Phase 1: byte identity with the evaluator armed -------------------
    // A default (non-shedding) server, an evaluator ticking over real registry
    // snapshots, and a published report: request bytes must still match batch
    // mode exactly, and `!health` must answer healthy with the rule present.
    let json = tiny_pack_json("health-pack", "exp8", 8.0);
    let corpus = request_corpus(&json, 400, 42);
    let expected = serve_session(&AdvisorHandle::new(advisor(&json)), &corpus, 1);

    let mut evaluator = Evaluator::new(shed_ratio_spec());
    assert!(
        evaluator.tick_with(0.0, snapshot()).is_empty(),
        "baseline tick never alerts"
    );

    let server = Server::start(advisor(&json), ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();

    // Before any report is published, `!health` still answers: healthy, no rules.
    let unarmed = probe_health(&addr);
    assert!(unarmed.contains("\"verdict\":\"healthy\""), "{unarmed}");
    assert!(unarmed.contains("\"rules\":[]"), "{unarmed}");

    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let corpus = corpus.clone();
                scope.spawn(move || run_client(&addr, &corpus).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for output in &outputs {
        assert_eq!(
            output, &expected,
            "bytes must match batch mode with health armed"
        );
    }

    // No shedding happened, so the rule evaluates clean and the verdict stays
    // healthy — now with the rule listed.
    assert!(evaluator.tick_with(10.0, snapshot()).is_empty());
    tcp_obs::health::publish(evaluator.report(10.0));
    let healthy = probe_health(&addr);
    assert!(healthy.contains("\"verdict\":\"healthy\""), "{healthy}");
    assert!(healthy.contains("\"name\":\"shed-ratio\""), "{healthy}");
    assert!(healthy.contains("\"firing\":false"), "{healthy}");

    server.shutdown();
    server.join();

    // ---- Phase 2: forced shedding drives Degraded, quiet drives Healthy ----
    // One in-flight permit + a 3000-line single-connection burst guarantees
    // typed overload lines, i.e. a shed ratio far above 1% in the tick window.
    let mut evaluator = Evaluator::new(shed_ratio_spec());
    assert!(evaluator.tick_with(0.0, snapshot()).is_empty());

    let server = Server::start(
        advisor(&json),
        ServeOptions {
            workers: 2,
            max_inflight: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let burst = request_corpus(&json, 3000, 7);
    let output = run_client(&addr, &burst).unwrap();
    assert_eq!(output.lines().count(), 3000, "no response may be dropped");
    let overloads = output
        .lines()
        .filter(|l| l.contains("\"code\":503"))
        .count();
    assert!(
        overloads > 0,
        "budget of 1 must shed under a 3000-line burst"
    );

    // Tick after the burst: the [0, 10] window holds the shed spike on both the
    // short (fallback-to-oldest) and long window, so the rule fires exactly once.
    let alerts = evaluator.tick_with(10.0, snapshot());
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].rule, "shed-ratio");
    assert_eq!(alerts[0].transition, Transition::Firing);
    assert!(alerts[0].short_value > 0.01, "{}", alerts[0].short_value);
    tcp_obs::health::publish(evaluator.report(10.0));
    let degraded = probe_health(&addr);
    assert!(degraded.contains("\"verdict\":\"degraded\""), "{degraded}");
    assert!(degraded.contains("\"firing\":true"), "{degraded}");

    // A quiet interval: the [10, 20] short window sees no traffic at all, so the
    // ratio drops to 0 ≤ resolve_threshold and the rule resolves (the long
    // window may still carry the spike — resolution is short-window hysteresis).
    let alerts = evaluator.tick_with(20.0, snapshot());
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].transition, Transition::Resolved);
    tcp_obs::health::publish(evaluator.report(20.0));
    let recovered = probe_health(&addr);
    assert!(recovered.contains("\"verdict\":\"healthy\""), "{recovered}");
    assert!(recovered.contains("\"firing\":false"), "{recovered}");

    server.shutdown();
    server.join();
    tcp_obs::health::clear_current();
}
