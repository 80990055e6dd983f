//! Experiment harness: regenerates every table and figure of the paper's evaluation.
//!
//! The [`figures`] module computes the data series behind each figure; the `figures` binary
//! prints them as CSV to stdout (one block per figure).  Timing lives in `perfbench/`,
//! the repository's one benchmark harness.
//!
//! ```text
//! cargo run --release -p tcp-bench --bin figures -- all
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod figures;
