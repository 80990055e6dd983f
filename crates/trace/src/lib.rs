//! Preemption traces for Google-style Preemptible VMs.
//!
//! The paper's empirical study launched 870 Preemptible VMs over two months and recorded
//! their time to preemption, broken down by VM type, geographical zone, time of day and
//! workload (Figures 1 and 2).  That dataset (and the cloud that produced it) is not
//! available here, so this crate provides the closest synthetic equivalent:
//!
//! * [`record`] — the dataset schema ([`record::PreemptionRecord`]) and the
//!   categorical dimensions of the study ([`record::VmType`], [`record::Zone`],
//!   [`record::TimeOfDay`], [`record::WorkloadKind`]).
//! * [`catalog`] — the ground-truth preemption processes: a three-phase hazard per
//!   configuration, scaled according to the paper's Observations 4 and 5 (larger VMs and
//!   busier hours preempt more; idle VMs and nights preempt less).
//! * [`generator`] — draws synthetic datasets from the catalog.
//! * [`csv`] — plain-text CSV persistence compatible with the published dataset layout
//!   (one row per VM: configuration + observed lifetime).
//! * [`stats`] — per-group empirical CDFs and summaries used by the figures.
//!
//! The substitution is behaviour-preserving for everything downstream: the model-fitting,
//! policy and simulation code consumes only observed lifetimes, never the generator's
//! internals, and the generator's hazard family (piecewise three-phase) is deliberately
//! different from the model the paper fits (Equation 1), so goodness-of-fit results remain
//! meaningful.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod catalog;
pub mod csv;
pub mod generator;
pub mod record;
pub mod stats;

pub use catalog::{ConfigKey, TraceCatalog};
pub use csv::{load_records_csv, records_from_csv_str, records_to_csv_string, save_records_csv};
pub use generator::TraceGenerator;
pub use record::{PreemptionRecord, TimeOfDay, VmType, WorkloadKind, Zone};
pub use stats::{DatasetSummary, GroupIndex};
