//! Continuous profiling: arm the wall-clock sampler and the allocation
//! profiler, answer a batch of advisory queries under spans, and export the
//! folded stacks as inferno-style collapsed text plus a standalone flamegraph
//! SVG — no external tooling needed to look at either.
//!
//! The same profiler runs inside `advise listen` (`--profile-file` /
//! `--profile-hz`), `calibrate fit --profile-file`, and `sweep --profile-file`;
//! a running server also answers the `!profile` control line with the same
//! snapshot as sorted-key JSON.
//!
//! Run with: `cargo run --release --example continuous_profiling`

use constrained_preemption::advisor::{
    generate_requests, requests_to_ndjson, respond_line, AdvisorHandle,
};
use constrained_preemption::advisor::{MultiAdvisor, PackBuilder};
use constrained_preemption::obs::profile;
use constrained_preemption::scenarios::SweepSpec;

/// Attribute allocations to the innermost active span site; counting is off
/// (one relaxed load per alloc) until `set_counting(true)` below.
#[global_allocator]
static ALLOC: profile::CountingAlloc = profile::CountingAlloc::new();

fn main() {
    let spec = SweepSpec::from_toml(
        r#"
[sweep]
name = "profiling-demo"

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
    let corpus = requests_to_ndjson(&generate_requests(&pack, 20_000, 7));
    let advisor = MultiAdvisor::from_pack(pack).expect("advisor");
    let handle = AdvisorHandle::new(advisor);

    // Arm both halves: a 997 Hz wall-clock sampler over every thread's span
    // stack, and per-site allocation counting in the global allocator.
    profile::set_counting(true);
    profile::arm(997);
    for (ordinal, request) in corpus.lines().enumerate() {
        let _root = constrained_preemption::obs::root_span!("example.request", ordinal as u64);
        let _span = constrained_preemption::obs::span!("example.respond");
        let _response = respond_line(&handle.current(), request);
    }
    profile::disarm();

    let snapshot = profile::snapshot();
    println!(
        "sampled {} ticks -> {} stack samples ({} torn), {} distinct stacks",
        snapshot.ticks,
        snapshot.samples,
        snapshot.torn,
        snapshot.stacks.len()
    );
    println!(
        "allocation: {} allocs / {} bytes total, peak live {} bytes",
        snapshot.alloc.allocs, snapshot.alloc.bytes, snapshot.alloc.peak_bytes
    );

    // Hot sites: self samples (innermost frame) vs total (anywhere on stack).
    println!("\nhot sites (what `advise top` shows as its hot-sites panel):");
    for site in profile::hot_sites(&snapshot.stacks).iter().take(5) {
        println!(
            "  {:<24} self {:>4}  total {:>4}",
            site.name, site.self_samples, site.total_samples
        );
    }

    // Collapsed text is the `folded` format flamegraph tooling consumes; the
    // SVG is self-rendered and opens in any browser.
    let collapsed = profile::collapsed(&snapshot);
    let svg = profile::flamegraph_svg(&snapshot);
    println!(
        "\nexports: {} bytes collapsed, {} bytes standalone SVG",
        collapsed.len(),
        svg.len()
    );
    println!("!profile JSON:\n{}", profile::profile_json(&snapshot));
}
