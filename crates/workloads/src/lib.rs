//! The paper's application job profiles and the bag-of-jobs abstraction.
//!
//! The paper's evaluation (Section 6.3) runs three scientific applications on its batch
//! service: **Nanoconfinement** (molecular dynamics of ions in nanoscale confinement),
//! **Shapes** (MD-based shape optimisation of charged nanoparticles), and **LULESH**
//! (Livermore unstructured Lagrangian explicit shock hydrodynamics).  They enter the
//! evaluation only through their running times and cluster shapes, so this crate holds
//! those declarative profiles plus the bags of jobs the service schedules.
//!
//! * [`bag`] — bags of jobs: parameter sweeps with near-homogeneous running times, as the
//!   service assumes.
//! * [`profiles`] — the paper's per-application job profiles (running time on the paper's
//!   cluster shapes) used by the cost evaluation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod bag;
pub mod profiles;

pub use bag::{BagOfJobs, JobSpec};
pub use profiles::{ApplicationProfile, PAPER_APPLICATIONS};
