//! Helpers the loopback integration tests share: a small single-regime pack and
//! a request corpus over it.

use tcp_advisor::{generate_requests, requests_to_ndjson, MultiAdvisor, PackBuilder};
use tcp_scenarios::SweepSpec;

/// Builds a small single-regime pack as JSON.
pub fn tiny_pack_json(name: &str, regime: &str, mean_hours: f64) -> String {
    let spec = SweepSpec::from_toml(&format!(
        r#"
[sweep]
name = "{name}"

[[regime]]
name = "{regime}"
kind = "exponential"
mean_hours = {mean_hours}

[workload]
dp_step_minutes = 30.0
"#
    ))
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

pub fn advisor(json: &str) -> MultiAdvisor {
    MultiAdvisor::from_json(json).unwrap()
}

/// `count` requests of the standard mix against the pack in `json`, as NDJSON.
pub fn request_corpus(json: &str, count: usize, seed: u64) -> String {
    let pack = tcp_advisor::ModelPack::from_json(json).unwrap();
    requests_to_ndjson(&generate_requests(&pack, count, seed))
}
