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
