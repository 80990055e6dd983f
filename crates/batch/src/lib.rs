//! Batch computing service for preemptible VMs (Section 5 of the paper).
//!
//! The service is a centralised controller that accepts bags of jobs, maintains a cluster
//! of (simulated) preemptible VMs, and applies the model-driven policies:
//!
//! * **VM reuse / job scheduling** — before placing a job on an idle VM it evaluates
//!   `E[T_s] ≤ E[T_0]` (Section 4.2) and launches a fresh VM when reuse is not worthwhile;
//! * **hot spares** — idle VMs that survived the early-failure phase are "stable" and kept
//!   around for up to an hour instead of being terminated;
//! * **checkpointing** — optionally plans non-uniform checkpoints with the DP policy of
//!   Section 4.3 and restarts failed jobs from their last checkpoint;
//! * **cost accounting** — bills VM usage at preemptible or on-demand rates, producing the
//!   Figure 9 comparisons.
//!
//! One simplification relative to the real deployment: the paper runs each MPI job across
//! a small cluster of VMs, whereas the simulated service maps each job onto one VM-slot of
//! equivalent capacity.  The policies only depend on job lengths and VM lifetimes, so this
//! preserves the behaviour being evaluated (preemption counts, restart work, VM reuse and
//! cost) while keeping the controller logic transparent; DESIGN.md discusses the
//! substitution.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod config;
pub mod report;
pub mod service;

pub use config::{CheckpointingMode, SchedulingMode, ServiceConfig};
pub use report::RunReport;
pub use service::{BatchService, PreparedBag};
