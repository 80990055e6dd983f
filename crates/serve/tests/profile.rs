//! Continuous-profiler integration: arming the wall-clock sampler and the
//! counting allocator must not change a single served byte — instrumentation
//! alters what a run *reports*, never what it *produces* — and the `!profile`
//! control line must answer with the live envelope.

mod common;

use common::{advisor, request_corpus, tiny_pack_json};
use tcp_advisor::{serve_session, AdvisorHandle};
use tcp_serve::{run_client, ServeOptions, Server};

/// The counting allocator under test, installed for this whole test binary;
/// counting stays off until the test arms it, so the baseline run measures the
/// wrapper's pass-through path too.
#[global_allocator]
static ALLOC: tcp_obs::profile::CountingAlloc = tcp_obs::profile::CountingAlloc::new();

#[test]
fn armed_profiler_serves_byte_identical_responses_and_answers_probe() {
    let json = tiny_pack_json("profiled", "exp8", 8.0);
    let corpus = request_corpus(&json, 2000, 41);
    let expected = serve_session(&AdvisorHandle::new(advisor(&json)), &corpus, 1);

    // Baseline: profiler fully off (allocator wrapper installed but inert).
    let server = Server::start(advisor(&json), ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let baseline = run_client(&addr, &corpus).unwrap();
    assert_eq!(
        baseline, expected,
        "profiler-off bytes must match batch mode"
    );
    server.shutdown();
    server.join();

    // Armed: 997 Hz wall sampler + allocation counting, same corpus.
    tcp_obs::profile::reset();
    tcp_obs::profile::set_counting(true);
    assert!(tcp_obs::profile::arm(997));
    let server = Server::start(advisor(&json), ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let armed = run_client(&addr, &corpus).unwrap();
    assert_eq!(
        armed, expected,
        "997 Hz sampling + alloc counting must not change served bytes"
    );

    // Give the sampler a couple of periods, then probe the control line on the
    // still-armed server.
    std::thread::sleep(std::time::Duration::from_millis(25));
    let reply = run_client(&addr, "!profile\n").unwrap();
    let value = serde_json::parse_value(reply.trim()).unwrap();
    assert_eq!(
        value.get("control").and_then(|v| v.as_str()),
        Some("profile")
    );
    let profile = value.get("profile").expect("envelope carries the profile");
    let wall = profile.get("wall").expect("wall section");
    assert_eq!(wall.get("armed").and_then(|v| v.as_bool()), Some(true));
    assert!(
        wall.get("ticks").and_then(|v| v.as_u64()).unwrap() > 0,
        "sampler thread must have ticked while armed"
    );
    let alloc = profile.get("alloc").expect("alloc section");
    assert!(
        alloc.get("allocs").and_then(|v| v.as_u64()).unwrap() > 0,
        "serving 2000 requests with counting on must record allocations"
    );

    server.shutdown();
    server.join();
    tcp_obs::profile::disarm();
    tcp_obs::profile::set_counting(false);
}
