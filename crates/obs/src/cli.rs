//! The shared CLI exit-code convention.
//!
//! Every workspace binary (`sweep`, `calibrate`, `trace`, `advise`, `figures`,
//! `lint`) renders its outcome through the helpers below instead of ad-hoc
//! `std::process::exit` calls, so the exit-code contract is written down once:
//!
//! * `0` — success;
//! * `1` — the command ran and failed (`error: <message>` on stderr);
//! * `2` — usage error (bad flags, unknown subcommand; usage text on stderr).
//!
//! Returning [`std::process::ExitCode`] from `main` (rather than calling
//! `process::exit` mid-flight) matters here: destructors still run, so metric
//! writers, trace dumps, and profile dumps flush on the error path too.  The
//! `process-exit` lint rule enforces the "no `process::exit` outside `main`"
//! half of this contract statically.

use std::fmt::Display;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The exit code for usage errors (bad flags, unknown subcommands).
pub const EXIT_USAGE: u8 = 2;

/// Renders a command outcome as the process exit code: `Ok` exits `0`; `Err`
/// prints `error: <message>` to stderr and exits `1`.
pub fn exit_outcome(outcome: Result<(), String>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Reports a usage error: prints `message` (typically the usage text) to stderr
/// and returns exit code [`EXIT_USAGE`].
pub fn usage_error(message: impl Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(EXIT_USAGE)
}

/// Converts a float-seconds flag or spec value into a [`Duration`], rejecting zero,
/// negative, NaN, infinite and out-of-range values (`1e300` seconds fits no
/// `Duration`, and a deadline that far out overflows an [`Instant`]) with an
/// error naming `name`, so the caller reports it through its bad-flag path.
pub fn positive_secs(name: &str, secs: f64) -> Result<Duration, String> {
    match Duration::try_from_secs_f64(secs) {
        Ok(d) if !d.is_zero() && Instant::now().checked_add(d).is_some() => Ok(d),
        _ => {
            // `{:?}` prints `1e300` where `{}` prints all 301 digits.
            let got = format!("{secs:?}"); // lint:allow(json-stability) CLI error text, never JSON
            Err(format!(
                "{name} must be a positive number of seconds, got {got}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_secs_rejects_what_no_deadline_can_hold() {
        assert_eq!(positive_secs("--x", 0.25), Ok(Duration::from_millis(250)));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300, 1e-12] {
            let err = positive_secs("--x", bad).unwrap_err();
            assert!(err.starts_with("--x must be a positive number"), "{err}");
        }
    }

    #[test]
    fn outcome_maps_to_standard_codes() {
        assert_eq!(exit_outcome(Ok(())), ExitCode::SUCCESS);
        assert_eq!(exit_outcome(Err("boom".to_string())), ExitCode::FAILURE);
        assert_eq!(usage_error("usage: x"), ExitCode::from(2));
    }
}
