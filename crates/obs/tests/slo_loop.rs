//! The production SLO loop end to end: `spawn_evaluator` ticking the global
//! registry, publishing reports and appending alert transitions.  Kept in its
//! own test binary because the published report slot is process-global.

use std::time::{Duration, Instant};
use tcp_obs::health::{self, SloSpec};

const SPEC: &str = r#"
tick_secs = 0.05

[[rule]]
name = "slo-loop-shed"
kind = "ratio"
numerator = ["slo_loop.test.shed"]
denominator = ["slo_loop.test.served", "slo_loop.test.shed"]
threshold = 0.5
short_window_secs = 0.2
long_window_secs = 1.0
"#;

fn firing_lines(path: &std::path::Path) -> usize {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|line| line.contains("\"transition\":\"firing\""))
        .count()
}

#[test]
fn evaluator_loop_fires_logs_and_stops_at_once() {
    let log = std::env::temp_dir().join(format!("tcp_obs_slo_loop_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let spec = SloSpec::from_str(SPEC).unwrap();
    let evaluator = health::spawn_evaluator(spec, Some(log.clone()));
    // The baseline report is published before `spawn_evaluator` returns.
    let baseline = health::current().expect("baseline report published");
    assert!(!baseline.rules[0].firing);

    // Every request after the baseline is shed: the ratio is 1 over both windows.
    tcp_obs::counter("slo_loop.test.shed").add(10);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let report = health::current().expect("report published");
        if report.rules[0].firing && firing_lines(&log) == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "rule never fired: {report:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(evaluator);
    assert_eq!(firing_lines(&log), 1);
    let _ = std::fs::remove_file(&log);

    let spec = SloSpec::from_str(&SPEC.replace("tick_secs = 0.05", "tick_secs = 3600.0")).unwrap();
    let idle = health::spawn_evaluator(spec, None);
    // Give the loop time to reach its wait, so the drop has to wake it.
    std::thread::sleep(Duration::from_millis(50));
    // Drop on a helper thread, so a drop that blocks fails the test instead of
    // hanging it.
    let (sent, dropped) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(idle);
        let _ = sent.send(());
    });
    assert_eq!(dropped.recv_timeout(Duration::from_secs(1)), Ok(()));
    dropper.join().unwrap();
}
