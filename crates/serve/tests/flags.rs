//! Float-seconds flags that fit no `Duration` (`inf`, `1e300`) are rejected through
//! `advise`'s bad-flag path (exit 1, `error: ...`) instead of panicking.

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
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_advise"))
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
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_advise"))
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
