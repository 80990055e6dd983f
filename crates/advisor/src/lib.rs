//! `tcp-advisor` — the online preemption-advisory query engine.
//!
//! The paper's bathtub model yields actionable answers — "reuse this aged VM or launch
//! fresh?" (Equation 8), "what checkpoint schedule?" (Section 4.3), "what will this job
//! cost?" — but computing them from scratch means quadrature and dynamic programming per
//! query.  This crate moves that work offline:
//!
//! * [`builder`] — precomputes dense grids of survival probability, Equation 8 expected
//!   makespan, conditional job-failure probability, expected cost, and the DP checkpoint
//!   value function for every regime of a sweep spec, packaged as a versioned JSON
//!   [`ModelPack`] (or, from a `calibrate fit` regime catalog, a per-cell [`MultiPack`]);
//! * [`engine`] — the request/response vocabulary and the per-regime lookup tables,
//!   monotone-safe linear interpolation
//!   ([`tcp_numerics::interp::LinearInterp`] + bilinear [`table::Table2D`]) that
//!   answers typed requests in microseconds;
//! * [`router`] — [`MultiAdvisor`], the lock-free query engine: every regime of a pack
//!   set in one table, routed by the request's `cell` (requests without one go to the
//!   pooled pack), with one set of serving counters; and [`AdvisorHandle`], the
//!   hot-reload slot behind the `!reload` control line;
//! * [`serve`] — the NDJSON [`Session`] behind the `advise` binary's `serve` and
//!   `listen` front ends, with a deterministic load generator (`advise gen`).
//!
//! Offline sweeps (`tcp-scenarios`) and online advice share one vocabulary: a pack is
//! built *from a sweep spec*, so the regimes you swept yesterday are the regimes you can
//! query today.
//!
//! ```text
//! spec.toml ──sweep──▶ Monte-Carlo reports        (offline, minutes)
//!     │
//!     └───advise build──▶ pack.json ──advise serve──▶ answers (online, microseconds)
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod builder;
pub mod engine;
pub mod error;
pub mod pack;
pub mod router;
pub mod serve;
pub mod table;

pub use builder::PackBuilder;
pub use engine::{
    AdviceRequest, AdviceResponse, AdvisorStats, Decision, FamilyStats, RequestKind, VmPhase,
};
pub use error::{AdvisorError, Result};
pub use pack::{
    BathtubReference, CellPackEntry, CheckpointCell, ModelPack, MultiPack, PackSchedule,
    PolicyCard, RegimePack,
};
pub use router::{AdvisorHandle, MultiAdvisor};
pub use serve::{
    generate_multi_requests, generate_requests, render_line, requests_to_ndjson, respond_into,
    respond_line, serve_session, ControlLine, ErrorLine, Session, StatsLine,
};
pub use table::Table2D;
