//! The tracing determinism contract, asserted over a real socket: served bytes must
//! be identical whether tracing is off, sampling everything, or slow-logging only,
//! and across batch-thread counts — while the flight recorder captures the expected
//! request-scoped span tree (connection → queue wait → batch flush → request →
//! advisor lookup) and the `!trace` control line returns it as JSON.
//!
//! Everything lives in one `#[test]` because `tcp_obs::trace::configure` is
//! process-global: a sibling test serving traffic concurrently would race with the
//! sampling-mode windows this test steps through.

mod common;

use common::{advisor, request_corpus, tiny_pack_json};
use tcp_advisor::{serve_session, AdvisorHandle};
use tcp_serve::{run_client, ServeOptions, Server};

fn serve_corpus(json: &str, corpus: &str, workers: usize, batch_threads: usize) -> String {
    let options = ServeOptions {
        workers,
        batch_threads,
        ..ServeOptions::default()
    };
    let server = Server::start(advisor(json), options).unwrap();
    let out = run_client(&server.local_addr().to_string(), corpus).unwrap();
    server.shutdown();
    server.join();
    out
}

#[test]
fn tracing_stays_out_of_the_response_stream() {
    let json = tiny_pack_json("trace", "exp8", 8.0);
    let corpus = request_corpus(&json, 400, 17);
    let expected = serve_session(&AdvisorHandle::new(advisor(&json)), &corpus, 1);

    // --- Tracing unconfigured (the default): the span macros are inert and the
    // served bytes match batch mode exactly.
    assert!(!tcp_obs::trace::tracing_configured());
    let baseline = serve_corpus(&json, &corpus, 4, 1);
    assert_eq!(baseline, expected, "untraced bytes must match batch");
    assert!(
        tcp_obs::trace::recent_spans().is_empty(),
        "unconfigured tracing must record nothing"
    );

    // --- Sample everything: same bytes, across batch-thread counts, while the
    // flight recorder fills with the end-to-end span tree.
    tcp_obs::trace::configure(1, 0);
    for batch_threads in [1, 4] {
        tcp_obs::trace::clear();
        let traced = serve_corpus(&json, &corpus, 4, batch_threads);
        assert_eq!(
            traced, expected,
            "traced bytes must match batch (batch_threads {batch_threads})"
        );
        let spans = tcp_obs::trace::recent_spans();
        let site_names: std::collections::BTreeSet<String> = spans
            .iter()
            .map(|record| tcp_obs::trace::site_name(record.site))
            .collect();
        for needle in [
            "serve.connection",
            "serve.queue.wait",
            "serve.batch.flush",
            "serve.request",
        ] {
            assert!(
                site_names.contains(needle),
                "missing span site `{needle}` (batch_threads {batch_threads}): {site_names:?}"
            );
        }
        assert!(
            site_names
                .iter()
                .any(|name| name.starts_with("advisor.lookup.")),
            "missing advisor lookup spans: {site_names:?}"
        );
        // Every request span must belong to a trace and carry a real duration span id.
        let requests = spans
            .iter()
            .filter(|record| tcp_obs::trace::site_name(record.site) == "serve.request")
            .count();
        assert!(requests >= 1, "at least one request span retained");
        assert!(spans.iter().all(|record| record.trace_id != 0));

        // The Chrome export of the same records is valid JSON with complete events.
        let chrome = tcp_obs::trace::chrome_trace_json(&spans);
        let value = serde_json::parse_value(&chrome).unwrap();
        let events = value.get("traceEvents").expect("traceEvents array");
        let events = events.as_seq().expect("traceEvents is an array");
        assert_eq!(events.len(), spans.len());
        for event in events {
            assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert!(event.get("name").and_then(|v| v.as_str()).is_some());
            assert!(event.get("dur").is_some() && event.get("ts").is_some());
        }
    }

    // --- The `!trace` control line returns the ring contents over the socket.
    let server = Server::start(advisor(&json), ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let _ = run_client(&addr, &corpus).unwrap();
    let trace_out = run_client(&addr, "!trace\n").unwrap();
    server.shutdown();
    server.join();
    let value = serde_json::parse_value(trace_out.trim()).unwrap();
    assert_eq!(value.get("control").and_then(|v| v.as_str()), Some("trace"));
    let spans = value.get("spans").and_then(|v| v.as_seq()).unwrap();
    assert!(!spans.is_empty(), "!trace must return retained spans");
    let over_the_wire: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter_map(|span| span.get("site").and_then(|v| v.as_str()))
        .collect();
    assert!(over_the_wire.contains("serve.request"), "{over_the_wire:?}");

    // --- Slow log only (sampling off, threshold 1ns): every root exceeds the
    // threshold, so spans are force-retained — and the bytes still match.
    tcp_obs::trace::configure(0, 1);
    tcp_obs::trace::clear();
    let slow_logged = serve_corpus(&json, &corpus, 4, 1);
    assert_eq!(slow_logged, expected, "slow-logged bytes must match batch");
    let spans = tcp_obs::trace::recent_spans();
    assert!(
        spans
            .iter()
            .any(|record| tcp_obs::trace::site_name(record.site) == "serve.request"),
        "slow log must retain request spans regardless of sampling"
    );

    // --- Sampling off entirely: nothing new is recorded, bytes still match.
    tcp_obs::trace::configure(0, 0);
    tcp_obs::trace::clear();
    let untraced = serve_corpus(&json, &corpus, 4, 1);
    assert_eq!(untraced, expected, "re-disabled bytes must match batch");
    assert!(tcp_obs::trace::recent_spans().is_empty());
}
