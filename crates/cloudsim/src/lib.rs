//! Discrete-event cloud simulator with preemptible VMs.
//!
//! The paper evaluates its policies against the real Google Cloud Platform; this crate is
//! the stand-in substrate: a discrete-event simulation of an IaaS provider that offers
//! both on-demand (never preempted) and preemptible VMs whose time-to-preemption is drawn
//! from any [`LifetimeDistribution`](tcp_dists::LifetimeDistribution) — in the experiments,
//! the same three-phase ground truth that generated the synthetic empirical dataset.
//!
//! * [`events`] — a generic time-ordered event queue.
//! * [`vm`] — VM instances, their lifecycle states, and provisioning metadata.
//! * [`pricing`] — GCP-style on-demand vs preemptible pricing (the ~5× discount that
//!   drives Figure 9a).
//! * [`provider`] — the cloud provider: launch/terminate/preempt VMs, track accounting.
//! * [`montecarlo`] — parallel experiment drivers built on `std::thread::scope` (each
//!   trial runs an independent simulation with its own RNG stream; results are reduced
//!   in task order so aggregates are bit-identical for every thread count).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` style comparisons are used deliberately throughout: unlike `x <= 0.0`
// they are false for NaN, which is exactly the validation we want for config values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod events;
pub mod montecarlo;
pub mod pricing;
pub mod provider;
pub mod vm;

pub use events::EventQueue;
pub use montecarlo::{resolve_threads, run_tasks, MonteCarloSummary};
pub use pricing::PricingModel;
pub use provider::{CloudProvider, ProviderConfig, ProviderTemplate, UsageReport};
pub use vm::{BillingClass, VmId, VmInstance, VmState};
