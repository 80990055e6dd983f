//! `tcp-lint` — the workspace invariant checker.
//!
//! The reproduction's load-bearing contract — Eq.1/Eq.8 results and served NDJSON
//! bytes are bit-identical for any `--threads`/`--workers` — was previously
//! enforced only dynamically, by diffing request corpora in CI smokes.  This crate
//! adds the *static* gate: a zero-dependency analysis pass over the workspace's own
//! Rust sources, built from a hand-rolled lexer (no `syn`, no crates.io — the same
//! discipline as `vendor/`), a token-level rule engine, path-scoped configuration,
//! an inline suppression syntax that requires a written reason, and a committed
//! baseline for grandfathered findings.
//!
//! # Rule families
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism` | no `HashMap`/`HashSet`, `Instant::now`, `SystemTime`, `ThreadId`, or env reads in result-producing paths |
//! | `panic-policy` | no `unwrap`/`expect`/`panic!`/indexing-by-literal in serve/advisor request hot paths |
//! | `unsafe-audit` | `unsafe` only at sanctioned `SAFETY:`-commented sites; crate roots declare `forbid(unsafe_code)` |
//! | `json-stability` | wire JSON never formats values via `{:?}`; maps are `BTreeMap` |
//! | `ordering-audit` | `Ordering::Relaxed` only in the reviewed obs shards/rings |
//! | `process-exit` | `process::exit` only inside `fn main` |
//! | `dead-api` | every `pub` item in `crates/*/src` (bins excluded) is named by non-test code of the workspace, `examples/` or `perfbench/src/` |
//! | `suppression` | every `lint:allow` names a known rule and carries a reason |
//!
//! # Suppressions
//!
//! ```text
//! let started = Instant::now(); // lint:allow(determinism) latency metrics only
//! // lint:allow-file(json-stability) rate-limiter state, never serialized
//! ```
//!
//! A line suppression covers its own line and the next; the reason after the
//! closing parenthesis is mandatory — a reason-less suppression is itself a
//! finding and does not silence anything.  A `dead-api` suppression names the
//! test (or the crate whose tests) the otherwise unreferenced item exists for:
//!
//! ```text
//! // lint:allow(dead-api) reference root finder for roots::tests::brent_matches_bisect
//! pub fn bisect<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, cfg: RootConfig) -> Result<f64> {
//! ```
//!
//! # The workspace pass
//!
//! Every rule but `dead-api` looks at one file at a time.  `dead-api` indexes the
//! `pub` items of all library sources, then collects the identifiers named by the
//! non-test code of every scanned file plus the read-only reference roots
//! `examples/` and `perfbench/src/` (read, never linted).  Test code is the
//! `#[cfg(test)]`/`#[test]` regions and every file under a `tests/` directory; a
//! `pub use` re-export is skipped, and an inline format argument such as
//! `"{MIN_PACK_FORMAT_VERSION}"` counts.  A `pub fn` declared inside an `impl`
//! block (a method or associated function) counts only a call (`.name(`,
//! `.name::<`) or a path (`::name`), so a field `self.rate`, a struct-literal key
//! or a local of the same name does not keep the method `rate` alive; free
//! functions and every other item kind count any identifier.  Matching is still by
//! name, without types: a dead method or type that shares its name with a live
//! one on another type (a dead `Foo::values` beside a live `BTreeMap::values`) is not
//! caught.
//!
//! # Running
//!
//! ```text
//! lint check [--json] [--baseline lint-baseline.json] [--config lint.toml]
//! lint rules
//! ```
//!
//! `lint check` exits nonzero when any error-severity finding survives the
//! suppressions and the baseline.  The JSON report is byte-identical across
//! repeated runs and directory orderings (findings sorted, keys sorted, nothing
//! wall-clock dependent), so CI can `cmp` it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use baseline::Baseline;
pub use config::{LintConfig, Severity};
pub use engine::{collect_files, run, RunReport};
pub use rules::{Finding, CATALOG};
