//! Request-scoped tracing: arm the flight recorder, answer a batch of advisory
//! queries under per-request root spans, and export the result as Chrome trace-event
//! JSON (loadable in `chrome://tracing` or Perfetto) plus a per-site summary.
//!
//! The same recorder runs inside `advise listen` (`--trace-file` / `--trace-sample` /
//! `--trace-slow-us`), where traces are seeded by request ordinals so sampling is
//! deterministic: the same corpus always retains the same traces.
//!
//! Run with: `cargo run --release --example request_tracing`

use constrained_preemption::advisor::{
    generate_requests, requests_to_ndjson, respond_line, AdvisorHandle,
};
use constrained_preemption::advisor::{MultiAdvisor, PackBuilder};
use constrained_preemption::obs::trace;
use constrained_preemption::scenarios::SweepSpec;

fn main() {
    let spec = SweepSpec::from_toml(
        r#"
[sweep]
name = "tracing-demo"

[[regime]]
name = "exp8"
kind = "exponential"
mean_hours = 8.0

[workload]
dp_step_minutes = 30.0
"#,
    )
    .expect("sweep spec");
    let pack = PackBuilder {
        age_points: 121,
        checkpoint_age_points: 3,
        checkpoint_job_points: 4,
        max_checkpoint_job_hours: 4.0,
        ..Default::default()
    }
    .build_from_spec(&spec)
    .expect("pack");
    let corpus = requests_to_ndjson(&generate_requests(&pack, 64, 7));
    let advisor = MultiAdvisor::from_pack(pack).expect("advisor");
    let requests: Vec<&str> = corpus.lines().collect();
    let handle = AdvisorHandle::new(advisor);

    // Sample 1 in 4 requests deterministically (hash of the request ordinal), and
    // force-retain anything slower than 200us regardless of sampling.
    trace::configure(4, 200_000);
    for (ordinal, request) in requests.iter().enumerate() {
        let _root = constrained_preemption::obs::root_span!(
            "example.request",
            ordinal as u64,
            ordinal as u64
        );
        let _response = respond_line(&handle.current(), request);
    }

    let spans = trace::recent_spans();
    println!(
        "retained {} spans from {} requests:",
        spans.len(),
        requests.len()
    );
    let roots = spans.iter().filter(|s| s.parent_id == 0).count();
    println!("  {} root spans (sampled 1/4 + slow-log)", roots);

    // Per-site rollup: count, total time, self time (total minus child time).
    // (`advise listen`'s `!trace` line serves the raw spans, `trace::spans_json`.)
    println!("\nper-site summary (also in the `advise listen --trace-file` dump):");
    println!("{}", trace::summary_json(&spans));

    // The Chrome export: write this string to a file and load it in chrome://tracing.
    let chrome = trace::chrome_trace_json(&spans);
    println!(
        "\nchrome trace export: {} bytes, {} events (load in chrome://tracing)",
        chrome.len(),
        spans.len()
    );
}
