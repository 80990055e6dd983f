//! Loopback integration tests: the TCP front end must speak the exact advisory
//! protocol of batch mode — byte-identical responses per connection, typed errors for
//! malformed input, typed overload responses under admission control, consistent
//! snapshots across hot reloads, and a graceful drain on shutdown.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use tcp_advisor::{
    generate_requests, requests_to_ndjson, serve_session, AdvisorHandle, MultiAdvisor, PackBuilder,
};
use tcp_scenarios::SweepSpec;
use tcp_serve::{run_client, ServeOptions, Server};

/// Builds a small single-regime pack as JSON.
fn tiny_pack_json(name: &str, regime: &str, mean_hours: f64) -> String {
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

fn advisor(json: &str) -> MultiAdvisor {
    MultiAdvisor::from_json(json).unwrap()
}

/// `count` requests of the standard mix against the pack in `json`, as NDJSON.
fn request_corpus(json: &str, count: usize, seed: u64) -> String {
    let pack = tcp_advisor::ModelPack::from_json(json).unwrap();
    requests_to_ndjson(&generate_requests(&pack, count, seed))
}

fn start(json: &str, options: ServeOptions) -> Server {
    Server::start(advisor(json), options).unwrap()
}

#[test]
fn concurrent_clients_get_byte_identical_responses() {
    let json = tiny_pack_json("loopback", "exp8", 8.0);
    // A corpus that exercises the full protocol surface: valid requests of every
    // kind, an unknown cell, an unknown regime, and lines that are not JSON at all.
    let mut corpus = request_corpus(&json, 500, 99);
    corpus.push_str(
        "{\"kind\":\"best-policy\",\"regime\":\"exp8\",\"cell\":\"no/such/cell\",\"id\":9001}\n\
         {\"kind\":\"best-policy\",\"regime\":\"mars-east1\",\"id\":9002}\n\
         not json at all\n\
         {\"kind\":\"should-reuse\",\"regime\":\"exp8\",\"vm_age\":-3.0,\"job_len\":2.0,\"id\":9003}\n\
         {\"kind\":\"best-pol",
    );
    // The last line is truncated mid-JSON and unterminated: its parse-error byte
    // offset must still match batch mode exactly.
    let expected = serve_session(&AdvisorHandle::new(advisor(&json)), &corpus, 1);
    assert_eq!(expected.lines().count(), 505);

    // Every request is answered whether the four connections share one worker, two,
    // or the default pool.
    for workers in [1, 2, ServeOptions::default().workers] {
        let server = start(
            &json,
            ServeOptions {
                workers,
                ..ServeOptions::default()
            },
        );
        let addr = server.local_addr().to_string();
        let outputs: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
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
                "socket bytes must match batch mode (workers {workers})"
            );
        }
        server.shutdown();
        let report = server.join();
        assert_eq!(report.connections, 4);
        assert_eq!(report.requests, 4 * 505);
        assert_eq!(report.overload_responses, 0);
    }
}

#[test]
fn exhausted_inflight_budget_sheds_with_typed_overload_lines() {
    let json = tiny_pack_json("overload", "exp8", 8.0);
    let corpus = request_corpus(&json, 3000, 7);
    // One in-flight permit: within every multi-line batch only the first request gets
    // a permit (permits are held until the batch's responses are written), so a fast
    // single-connection writer must see typed overload lines — and exactly one output
    // line per input line, never a silent drop.
    let server = start(
        &json,
        ServeOptions {
            workers: 2,
            max_inflight: 1,
            ..ServeOptions::default()
        },
    );
    let addr = server.local_addr().to_string();
    let output = run_client(&addr, &corpus).unwrap();
    assert_eq!(output.lines().count(), 3000, "no response may be dropped");
    let overloads = output
        .lines()
        .filter(|l| l.contains("\"code\":503"))
        .count();
    assert!(
        overloads > 0,
        "budget of 1 must shed under a 3000-line burst"
    );
    for line in output.lines().filter(|l| l.contains("\"code\":503")) {
        let parsed: tcp_serve::OverloadLine = serde_json::from_str(line).unwrap();
        assert_eq!(parsed.code, 503);
        assert!(
            parsed.error.contains("in-flight budget"),
            "{}",
            parsed.error
        );
    }
    // Served lines and overload lines partition the output.
    let served = output
        .lines()
        .filter(|l| !l.contains("\"code\":503"))
        .count();
    assert_eq!(served + overloads, 3000);
    server.shutdown();
    let report = server.join();
    assert_eq!(report.requests as usize, served);
    assert_eq!(report.overload_responses as usize, overloads);
}

#[test]
fn hot_reload_under_load_keeps_per_connection_output_consistent() {
    let json_a = tiny_pack_json("pack-a", "exp8", 8.0);
    let json_b = tiny_pack_json("pack-b", "exp6", 6.0);
    let dir = std::env::temp_dir().join("tcp_serve_reload_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path_b = dir.join("pack-b.json");
    std::fs::write(&path_b, &json_b).unwrap();

    let server = start(&json_a, ServeOptions::default());
    let addr = server.local_addr().to_string();

    // A long-lived connection sends a first half, *reads its responses* (so the
    // server has fully flushed them), then an admin connection hot-swaps the pack,
    // then the same connection sends a second half.
    let query = "{\"kind\":\"best-policy\",\"regime\":\"exp8\"}\n";
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    let read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let first_half: Vec<String> = (0..20)
        .map(|_| {
            writer.write_all(query.as_bytes()).unwrap();
            writer.flush().unwrap();
            read_line(&mut reader)
        })
        .collect();

    // Admin connection: reload to pack-b; the ack must confirm the swap.
    let ack = run_client(&addr, &format!("!reload {}\n", path_b.display())).unwrap();
    assert!(
        ack.contains("\"control\":\"reload\"") && ack.contains("pack-b"),
        "{ack}"
    );

    let second_half: Vec<String> = (0..20)
        .map(|_| {
            writer.write_all(query.as_bytes()).unwrap();
            writer.flush().unwrap();
            read_line(&mut reader)
        })
        .collect();
    writer.get_ref().shutdown(Shutdown::Write).unwrap();

    // Every pre-reload response came from pack A; every post-reload response is pack
    // B's answer for the same line — exp8 no longer exists, a typed unknown-regime
    // error, identical to what batch mode on pack B produces.
    let expected_a = serve_session(&AdvisorHandle::new(advisor(&json_a)), query, 1);
    let expected_b = serve_session(&AdvisorHandle::new(advisor(&json_b)), query, 1);
    for line in &first_half {
        assert_eq!(line, &expected_a);
    }
    for line in &second_half {
        assert_eq!(line, &expected_b);
        assert!(line.contains("unknown regime"), "{line}");
    }

    server.shutdown();
    server.join();
}

#[test]
fn stats_control_line_answers_health_probes() {
    let json = tiny_pack_json("health", "exp8", 8.0);
    let server = start(&json, ServeOptions::default());
    let addr = server.local_addr().to_string();
    let query = "{\"kind\":\"best-policy\",\"regime\":\"exp8\"}\n";
    let out = run_client(&addr, &format!("{query}{query}!stats\n")).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3);
    let stats: tcp_advisor::StatsLine = serde_json::from_str(lines[2]).unwrap();
    assert_eq!(stats.control, "stats");
    assert_eq!(stats.pack, "health");
    assert_eq!(stats.served.best_policy, 2);
    // A fresh admin connection probes the *server-wide* counters through the shared
    // pack.
    let probe = run_client(&addr, "!stats\n").unwrap();
    let probed: tcp_advisor::StatsLine = serde_json::from_str(probe.trim()).unwrap();
    assert_eq!(probed.current.best_policy, 2);
    assert_eq!(probed.served.total(), 0);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_control_line_drains_and_exits() {
    let json = tiny_pack_json("drain", "exp8", 8.0);
    let corpus = request_corpus(&json, 200, 3);
    let server = start(&json, ServeOptions::default());
    let addr = server.local_addr().to_string();
    // The same connection carries requests and then the shutdown: everything before
    // the control line is answered, the ack arrives, and the server drains.
    let out = run_client(&addr, &format!("{corpus}!shutdown\n")).unwrap();
    assert_eq!(out.lines().count(), 201);
    let last = out.lines().last().unwrap();
    let ack: tcp_serve::ShutdownLine = serde_json::from_str(last).unwrap();
    assert_eq!(ack.control, "shutdown");
    let report = server.join();
    assert_eq!(report.requests, 200);
    // The listener is gone: new connections are refused by the OS.
    assert!(TcpStream::connect(&addr).is_err());
}

#[test]
fn shutdown_drains_even_with_an_active_streaming_connection() {
    let json = tiny_pack_json("busy-drain", "exp8", 8.0);
    let server = start(&json, ServeOptions::default());
    let addr = server.local_addr().to_string();
    let query = "{\"kind\":\"best-policy\",\"regime\":\"exp8\"}\n";

    // Connection A is mid-stream: it has sent and been answered, and stays open.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    writer.write_all(query.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.contains("best-policy"), "{first}");

    // Connection B requests the drain; join() must complete even though A never
    // closed — A's worker answers what it has read and then hangs up.
    let ack = run_client(&addr, "!shutdown\n").unwrap();
    assert!(ack.contains("\"control\":\"shutdown\""), "{ack}");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = server.join();
        let _ = done_tx.send(report);
    });
    let report = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("join must not hang on an open streaming connection");
    assert!(report.requests >= 1);
    // A sees EOF (or an error) rather than hanging forever.
    let mut rest = String::new();
    use std::io::Read;
    let _ = reader.read_to_string(&mut rest);
}

#[test]
fn over_long_lines_are_answered_in_place_and_the_connection_resyncs() {
    let json = tiny_pack_json("long-line", "exp8", 8.0);
    let query = "{\"kind\":\"best-policy\",\"regime\":\"exp8\",\"id\":7}\n";
    let expected = serve_session(&AdvisorHandle::new(advisor(&json)), query, 1);
    let rejected = tcp_obs::counter("serve.rejected.line_too_long");
    let before = rejected.get();
    let server = start(&json, ServeOptions::default());
    let addr = server.local_addr().to_string();

    // 2 MiB with no newline, then the newline, then a valid request.
    let long = "x".repeat(2 * tcp_serve::MAX_LINE_BYTES);
    let out = run_client(&addr, &format!("{long}\n{query}")).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out:.200}");
    let error: tcp_advisor::ErrorLine = serde_json::from_str(lines[0]).unwrap();
    assert!(error.error.starts_with("line too long"), "{}", error.error);
    assert_eq!(error.id, None);
    assert_eq!(format!("{}\n", lines[1]), expected);
    assert!(rejected.get() > before);

    // A line just under the cap is served as usual, and an unterminated over-long
    // tail at EOF is still one answered line.
    let at_cap = " ".repeat(tcp_serve::MAX_LINE_BYTES - query.len()) + query;
    let out = run_client(&addr, &format!("{at_cap}{long}")).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out:.200}");
    assert_eq!(format!("{}\n", lines[0]), expected);
    assert!(lines[1].contains("line too long"), "{}", lines[1]);
    server.shutdown();
    server.join();
}
