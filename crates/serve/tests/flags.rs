//! `advise` flag handling: float-seconds flags that fit no `Duration` (`inf`, `1e300`)
//! are rejected through the bad-flag path (exit 1, `error: ...`) instead of panicking,
//! and `listen`'s port, metrics and trace files report the writes that fail.

// Only the pack builder of the shared helpers is used here.
#[allow(dead_code)]
mod common;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn seconds_flags_that_fit_no_duration_are_flag_errors() {
    for (args, flag) in [
        (
            &["top", "--addr", "127.0.0.1:1", "--interval"][..],
            "--interval",
        ),
        (&["listen", "--metrics-interval"][..], "--metrics-interval"),
    ] {
        for bad in ["inf", "1e300"] {
            let output = Command::new(env!("CARGO_BIN_EXE_advise"))
                .args(args)
                .arg(bad)
                .output()
                .expect("run advise");
            assert_eq!(output.status.code(), Some(1), "advise {args:?} {bad}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains(&format!("error: {flag} must be a positive")),
                "{stderr}"
            );
        }
    }
}

/// A port file left by an earlier run is removed before the pack loads, so a
/// readiness loop polling it never reads a dead server's address.
#[test]
fn listen_removes_a_stale_port_file_before_it_can_fail() {
    let dir = std::env::temp_dir().join(format!("advise-port-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let port_file = dir.join("addr.txt");
    std::fs::write(&port_file, "127.0.0.1:1\n").expect("write stale port file");
    let output = Command::new(env!("CARGO_BIN_EXE_advise"))
        .args(["listen", "--pack", "/nonexistent/pack.json", "--port-file"])
        .arg(&port_file)
        .output()
        .expect("run advise");
    assert_eq!(output.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("cannot read /nonexistent/pack.json"),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!port_file.exists(), "the stale port file survived");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `advise` with `args` and returns its exit code and stderr, or fails the test
/// if it is still running after `deadline` (it is killed first).
fn advise_within(args: &[&std::ffi::OsStr], deadline: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_advise"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run advise");
    let started = Instant::now();
    while child.try_wait().expect("poll advise").is_none() {
        if started.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("advise {args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect advise output");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A metrics file that cannot be written fails `listen` before it serves, and names
/// the path, instead of serving with no exposition at all.
#[test]
fn listen_fails_when_the_first_metrics_write_fails() {
    let dir = std::env::temp_dir().join(format!("advise-metrics-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let pack = dir.join("pack.json");
    std::fs::write(&pack, common::tiny_pack_json("flags", "exp", 8.0)).expect("write pack");
    let port_file = dir.join("addr.txt");
    let metrics = dir.join("missing").join("m.prom");
    let args = [
        "listen".as_ref(),
        "--addr".as_ref(),
        "127.0.0.1:0".as_ref(),
        "--pack".as_ref(),
        pack.as_os_str(),
        "--port-file".as_ref(),
        port_file.as_os_str(),
        "--metrics-file".as_ref(),
        metrics.as_os_str(),
    ];
    let (code, stderr) = advise_within(&args, Duration::from_secs(30));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("error: cannot write {}:", metrics.display())),
        "{stderr}"
    );
    assert!(!port_file.exists(), "a failed run published its address");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace dump that cannot be written logs one `warn` event with the path and the
/// error; the drained server still exits 0.
#[test]
fn listen_warns_when_the_trace_dump_fails() {
    let dir = std::env::temp_dir().join(format!("advise-trace-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let pack = dir.join("pack.json");
    std::fs::write(&pack, common::tiny_pack_json("flags", "exp", 8.0)).expect("write pack");
    let port_file = dir.join("addr.txt");
    let trace = dir.join("missing").join("t.json");
    let advise = {
        let (pack, port_file, trace) = (pack.clone(), port_file.clone(), trace.clone());
        std::thread::spawn(move || {
            let args = [
                "listen".as_ref(),
                "--addr".as_ref(),
                "127.0.0.1:0".as_ref(),
                "--pack".as_ref(),
                pack.as_os_str(),
                "--port-file".as_ref(),
                port_file.as_os_str(),
                "--trace-file".as_ref(),
                trace.as_os_str(),
            ];
            advise_within(&args, Duration::from_secs(30))
        })
    };
    let started = Instant::now();
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if addr.ends_with('\n') {
                break addr.trim().to_string();
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(30) && !advise.is_finished(),
            "advise listen never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    tcp_serve::run_client(&addr, "!shutdown\n").expect("send !shutdown");
    let (code, stderr) = advise.join().expect("advise thread");
    assert_eq!(code, Some(0), "{stderr}");
    let warning = stderr
        .lines()
        .find(|line| line.contains("serve.trace.dump_failed"))
        .unwrap_or_else(|| panic!("no dump_failed event: {stderr}"));
    assert!(warning.contains("warn"), "{warning}");
    assert!(warning.contains(&trace.display().to_string()), "{warning}");
    let _ = std::fs::remove_dir_all(&dir);
}
