//! Model-driven resource-management policies for temporally constrained preemptions.
//!
//! Section 4 of the paper derives two policies from the bathtub preemption model:
//!
//! * [`scheduling`] — the job-scheduling / VM-reuse policy (Section 4.2): run a job of
//!   length `T` on an existing VM of age `s` only if `E[T_s] ≤ E[T_0]`, otherwise launch a
//!   fresh VM.  The memoryless baseline (always reuse, as in SpotOn-style systems) is also
//!   implemented for the Figure 5–7 comparisons.
//! * [`checkpoint`] — the dynamic-programming checkpointing policy (Section 4.3), which
//!   chooses non-uniform, failure-rate-dependent checkpoint intervals, plus the classical
//!   Young–Daly periodic baseline and a Monte-Carlo evaluator of checkpointed execution
//!   (Figures 8a and 8b).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod checkpoint;
pub mod scheduling;

pub use checkpoint::dp::{CheckpointConfig, CheckpointSchedule, DpCheckpointPolicy};
pub use checkpoint::simulate::{
    simulate_checkpointed_job, CheckpointExecutionStats, CheckpointPlanner, NoCheckpointPlanner,
};
pub use checkpoint::young_daly::YoungDalyPolicy;
pub use checkpoint::PlannedRun;
pub use scheduling::{
    average_failure_probability, job_failure_probability, MemorylessScheduler,
    ModelDrivenScheduler, SchedulerPolicy, SchedulingDecision,
};
