//! The request and response vocabulary, and the per-regime lookup tables behind it.
//!
//! A `RegimeEngine` holds one regime's grids as interpolants, taken over from its
//! [`RegimePack`] at load time, and answers the four request kinds from them.  The
//! query engine, [`crate::router::MultiAdvisor`], keeps every regime of a pack set in
//! one table of these and one `AdvisorCounters` set: sharded [`tcp_obs::Counter`]s
//! behind `!stats`, plus the global `advisor.latency.*` histograms in the
//! [`tcp_obs::Registry`], so `!stats` and `!metrics` read the same recording
//! machinery.  The read path is lock-free: a query touches only immutable tables and
//! the sharded counters, so any number of threads can serve concurrently.

use crate::error::{require, validate_non_negative, validate_positive, AdvisorError, Result};
use crate::pack::{PackSchedule, PolicyCard, RegimePack};
use crate::table::Table2D;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tcp_numerics::interp::LinearInterp;
use tcp_obs::{Counter, Histogram};

/// The kinds of questions the advisor answers.
///
/// Serializes to the kebab-case wire names (`should-reuse`, `checkpoint-plan`,
/// `expected-cost-makespan`, `best-policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// "Reuse this aged VM or launch fresh?" (Equation 8, Section 4.2.)
    ShouldReuse,
    /// "What checkpoint schedule should this job use?" (Section 4.3.)
    CheckpointPlan,
    /// "What will this job cost and how long will it take?"
    ExpectedCostMakespan,
    /// "Which policies win in this regime?"
    BestPolicy,
}

impl RequestKind {
    fn index(self) -> usize {
        match self {
            RequestKind::ShouldReuse => 0,
            RequestKind::CheckpointPlan => 1,
            RequestKind::ExpectedCostMakespan => 2,
            RequestKind::BestPolicy => 3,
        }
    }
}

/// Implements kebab-case string (de)serialization for a fieldless enum, so the NDJSON
/// wire format reads `"decision": "launch-fresh"` rather than Rust variant names.  The
/// single variant↔name list also feeds `as_str` and `Display`, so the wire names live
/// in exactly one place per type.
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// The wire name of this value.
            pub fn as_str(self) -> &'static str {
                match self { $($ty::$variant => $name),+ }
            }

            /// The value a wire name names; both deserialization paths match here.
            fn from_wire(name: &str) -> std::result::Result<Self, serde::Error> {
                match name {
                    $($name => Ok($ty::$variant),)+
                    other => Err(serde::Error::custom(format!(
                        concat!("unknown ", stringify!($ty), " `{}` (expected one of: {})"),
                        other,
                        [$($name),+].join(", ")
                    ))),
                }
            }
        }
        impl serde::Serialize for $ty {
            fn serialize<S: serde::Serializer>(&self, out: &mut S) {
                out.str(self.as_str());
            }
        }
        impl serde::Deserialize for $ty {
            fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
                let s = value
                    .as_str()
                    .ok_or_else(|| serde::Error::expected("a string", stringify!($ty), value))?;
                Self::from_wire(s)
            }
            fn deserialize_from<S: serde::Source>(src: &mut S) -> std::result::Result<Self, serde::Error> {
                Self::from_wire(src.str()?)
            }
        }
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

wire_enum!(RequestKind {
    ShouldReuse => "should-reuse",
    CheckpointPlan => "checkpoint-plan",
    ExpectedCostMakespan => "expected-cost-makespan",
    BestPolicy => "best-policy",
});

/// One advisory request (one NDJSON line of `advise serve`).
///
/// `kind` selects the question; the remaining fields parameterise it.  Unused fields are
/// ignored, missing required fields produce
/// [`crate::AdvisorError::MissingInput`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdviceRequest {
    /// The question being asked.
    pub kind: RequestKind,
    /// Opaque correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Regime to answer under; defaults to the pack's first regime.
    pub regime: Option<String>,
    /// Calibration cell to route to (`vm-type/zone/time-of-day`).  The query engine
    /// ([`crate::router::MultiAdvisor`]) sends a request carrying a cell to that cell's
    /// pack and one without to the pooled pack.  A router over a single pack has no
    /// cells, so it answers any cell with the "no per-cell packs are loaded" error.
    pub cell: Option<String>,
    /// Age of the candidate VM, hours.
    pub vm_age: Option<f64>,
    /// Uninterrupted job length, hours.
    pub job_len: Option<f64>,
    /// Checkpoint overhead, minutes (selects the closest checkpoint cell).
    pub overhead_minutes: Option<f64>,
}

impl AdviceRequest {
    fn bare(kind: RequestKind) -> Self {
        AdviceRequest {
            kind,
            id: None,
            regime: None,
            cell: None,
            vm_age: None,
            job_len: None,
            overhead_minutes: None,
        }
    }

    /// Tags the request with a calibration cell for multi-pack routing.
    // lint:allow(dead-api) router::tests build cell-routed requests with it
    pub fn with_cell(mut self, cell: impl Into<String>) -> Self {
        self.cell = Some(cell.into());
        self
    }

    /// A reuse-or-launch-fresh question.
    pub fn should_reuse(regime: impl Into<String>, vm_age: f64, job_len: f64) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            vm_age: Some(vm_age),
            job_len: Some(job_len),
            ..Self::bare(RequestKind::ShouldReuse)
        }
    }

    /// A checkpoint-schedule question for a job of length `job_len` starting at `vm_age`.
    pub fn checkpoint_plan(regime: impl Into<String>, vm_age: f64, job_len: f64) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            vm_age: Some(vm_age),
            job_len: Some(job_len),
            ..Self::bare(RequestKind::CheckpointPlan)
        }
    }

    /// A cost/makespan estimate question.
    pub fn expected_cost_makespan(regime: impl Into<String>, vm_age: f64, job_len: f64) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            vm_age: Some(vm_age),
            job_len: Some(job_len),
            ..Self::bare(RequestKind::ExpectedCostMakespan)
        }
    }

    /// A best-policy question.
    pub fn best_policy(regime: impl Into<String>) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            ..Self::bare(RequestKind::BestPolicy)
        }
    }
}

/// The VM life phase an age falls into (Section 3.2's bathtub walls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmPhase {
    /// High early hazard.
    Early,
    /// The stable middle of the bathtub.
    Stable,
    /// Approaching the 24 h reclamation deadline.
    Deadline,
}

wire_enum!(VmPhase {
    Early => "early",
    Stable => "stable",
    Deadline => "deadline",
});

/// A reuse-or-launch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run the job on the existing VM.
    Reuse,
    /// Relinquish the VM and launch a fresh one.
    LaunchFresh,
}

wire_enum!(Decision {
    Reuse => "reuse",
    LaunchFresh => "launch-fresh",
});

/// One advisory response (one NDJSON line of `advise serve`).
///
/// Flat by design: `kind` says which fields are populated, everything else is `null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdviceResponse {
    /// Mirrors the request kind.
    pub kind: RequestKind,
    /// Echoed correlation id.
    pub id: Option<u64>,
    /// The regime that answered.
    pub regime: String,
    /// The calibration cell that answered (multi-pack routing only; `null` for answers
    /// from the pooled pack or a single-pack advisor).
    pub cell: Option<String>,
    /// `should-reuse`: the decision.
    pub decision: Option<Decision>,
    /// `should-reuse`: which bathtub phase the queried age falls into.
    pub vm_phase: Option<VmPhase>,
    /// `should-reuse`: expected makespan on the aged VM (absent past the deadline).
    pub reuse_makespan_hours: Option<f64>,
    /// `should-reuse`: expected makespan on a fresh VM.
    pub fresh_makespan_hours: Option<f64>,
    /// `checkpoint-plan` / `expected-cost-makespan`: expected makespan at the query point.
    pub expected_makespan_hours: Option<f64>,
    /// `expected-cost-makespan`: probability the job is interrupted before finishing.
    pub failure_probability: Option<f64>,
    /// `expected-cost-makespan`: VM survival probability at the queried age.
    pub survival_probability: Option<f64>,
    /// `expected-cost-makespan`: expected preemptible cost of the job, USD.
    pub expected_cost_usd: Option<f64>,
    /// `expected-cost-makespan`: on-demand comparison cost (no preemptions), USD.
    pub on_demand_cost_usd: Option<f64>,
    /// `checkpoint-plan`: checkpoint cost of the cell that answered, minutes.
    pub checkpoint_cost_minutes: Option<f64>,
    /// `checkpoint-plan`: work before each checkpoint, hours (fresh-VM schedule of the
    /// nearest tabulated job length).
    pub intervals_hours: Option<Vec<f64>>,
    /// `checkpoint-plan`: number of checkpoints in the schedule.
    pub checkpoint_count: Option<usize>,
    /// `best-policy`: recommended scheduling policy.
    pub scheduling: Option<String>,
    /// `best-policy`: recommended checkpointing policy.
    pub checkpointing: Option<String>,
    /// `best-policy`: the full precomputed ranking card, shared with the pack.
    pub card: Option<Arc<PolicyCard>>,
}

impl AdviceResponse {
    fn bare(kind: RequestKind, id: Option<u64>, regime: &str) -> Self {
        AdviceResponse {
            kind,
            id,
            regime: regime.to_string(),
            cell: None,
            decision: None,
            vm_phase: None,
            reuse_makespan_hours: None,
            fresh_makespan_hours: None,
            expected_makespan_hours: None,
            failure_probability: None,
            survival_probability: None,
            expected_cost_usd: None,
            on_demand_cost_usd: None,
            checkpoint_cost_minutes: None,
            intervals_hours: None,
            checkpoint_count: None,
            scheduling: None,
            checkpointing: None,
            card: None,
        }
    }
}

/// One regime's lookup tables, moved out of its [`RegimePack`] at load time: the
/// scalars an answer needs, the two age curves as interpolants, the checkpoint tables
/// and the shared policy card.
pub(crate) struct RegimeEngine {
    /// Regime name (the `regime` request field selects it within its pack).
    pub(crate) name: String,
    /// `(served_family, dp_family)` counter slots, resolved at load time so the
    /// nanosecond record path indexes fixed arrays instead of hashing strings.
    families: (usize, usize),
    horizon: f64,
    phase_early_end: f64,
    phase_deadline_start: f64,
    vcpus: f64,
    on_demand_per_vcpu_hour: f64,
    preemptible_per_vcpu_hour: f64,
    survival: LinearInterp,
    first_moment: LinearInterp,
    checkpoints: Vec<CheckpointEngine>,
    policy_card: Arc<PolicyCard>,
}

struct CheckpointEngine {
    cost_minutes: f64,
    /// DP expected makespan over `ages × job lengths`; its second axis is the job
    /// grid the schedules are tabulated on.
    expected: Table2D,
    schedules: Vec<PackSchedule>,
}

impl RegimeEngine {
    /// Builds the engine from a regime of a validated pack, taking its grids over.
    pub(crate) fn new(regime: RegimePack) -> Result<Self> {
        let pack_error = |e: tcp_numerics::NumericsError| {
            AdvisorError::Pack(format!("regime `{}`: {e}", regime.name))
        };
        let survival =
            LinearInterp::new(regime.ages.clone(), regime.survival).map_err(pack_error)?;
        let first_moment =
            LinearInterp::new(regime.ages, regime.first_moment).map_err(pack_error)?;
        let checkpoints = regime
            .checkpoint_cells
            .into_iter()
            .map(|cell| {
                Ok(CheckpointEngine {
                    cost_minutes: cell.checkpoint_cost_minutes,
                    expected: Table2D::new(cell.ages, cell.job_lens, cell.expected_makespan)?,
                    schedules: cell.schedules,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(RegimeEngine {
            families: (
                family_index(&regime.served_family),
                family_index(&regime.dp_family),
            ),
            name: regime.name,
            horizon: regime.horizon_hours,
            phase_early_end: regime.phase_early_end_hours,
            phase_deadline_start: regime.phase_deadline_start_hours,
            vcpus: regime.vcpus as f64,
            on_demand_per_vcpu_hour: regime.on_demand_per_vcpu_hour,
            preemptible_per_vcpu_hour: regime.preemptible_per_vcpu_hour,
            survival,
            first_moment,
            checkpoints,
            policy_card: regime.policy_card,
        })
    }

    /// Answers one request from this regime's tables.
    pub(crate) fn answer(&self, request: &AdviceRequest) -> Result<AdviceResponse> {
        match request.kind {
            RequestKind::ShouldReuse => self.should_reuse(request),
            RequestKind::CheckpointPlan => self.checkpoint_plan(request),
            RequestKind::ExpectedCostMakespan => self.cost_makespan(request),
            RequestKind::BestPolicy => Ok(self.best_policy(request)),
        }
    }

    /// Equation 8 from the tabulated first moment:
    /// `E[T_s] = T + W(min(s+T, L)) − W(s)`.
    ///
    /// The `min` resolves the deadline kink exactly — jobs that would cross the horizon
    /// pay the full remaining preemption mass and then grow linearly in `T`, which is
    /// what the closed form does too.
    fn makespan(&self, vm_age: f64, job_len: f64) -> f64 {
        let s = vm_age.min(self.horizon);
        let u = (vm_age + job_len).min(self.horizon);
        job_len + self.first_moment.eval(u) - self.first_moment.eval(s)
    }

    /// Conditional job-failure probability from the tabulated survival curve:
    /// `1 − S(s+T)/S(s)`, with jobs crossing the deadline failing with certainty.
    fn failure_probability(&self, vm_age: f64, job_len: f64) -> f64 {
        if vm_age + job_len >= self.horizon {
            return 1.0;
        }
        let alive = self.survival.eval(vm_age);
        if alive <= 1e-12 {
            return 1.0;
        }
        ((alive - self.survival.eval(vm_age + job_len)) / alive).clamp(0.0, 1.0)
    }

    fn phase_of(&self, age: f64) -> VmPhase {
        if age < self.phase_early_end {
            VmPhase::Early
        } else if age < self.phase_deadline_start {
            VmPhase::Stable
        } else {
            VmPhase::Deadline
        }
    }

    fn should_reuse(&self, request: &AdviceRequest) -> Result<AdviceResponse> {
        let vm_age = validate_non_negative("vm_age", require("vm_age", request.vm_age)?)?;
        let job_len = validate_positive("job_len", require("job_len", request.job_len)?)?;
        let mut response = AdviceResponse::bare(request.kind, request.id, &self.name);
        let fresh = self.makespan(0.0, job_len);
        response.fresh_makespan_hours = Some(fresh);
        response.vm_phase = Some(self.phase_of(vm_age));
        if vm_age >= self.horizon {
            // A VM at (or past) the reclamation deadline cannot run anything.
            response.decision = Some(Decision::LaunchFresh);
            return Ok(response);
        }
        let reuse = self.makespan(vm_age, job_len);
        response.reuse_makespan_hours = Some(reuse);
        response.decision = Some(if reuse <= fresh {
            Decision::Reuse
        } else {
            Decision::LaunchFresh
        });
        Ok(response)
    }

    fn checkpoint_plan(&self, request: &AdviceRequest) -> Result<AdviceResponse> {
        let job_len = validate_positive("job_len", require("job_len", request.job_len)?)?;
        let vm_age = match request.vm_age {
            Some(age) => validate_non_negative("vm_age", age)?,
            None => 0.0,
        };
        let cell = match request.overhead_minutes {
            Some(overhead) => {
                let overhead = validate_positive("overhead_minutes", overhead)?;
                self.checkpoints
                    .iter()
                    .min_by(|a, b| {
                        let da = (a.cost_minutes - overhead).abs();
                        let db = (b.cost_minutes - overhead).abs();
                        da.total_cmp(&db)
                            .then(a.cost_minutes.total_cmp(&b.cost_minutes))
                    })
                    .ok_or_else(|| {
                        AdvisorError::Pack("pack regime carries no checkpoint cells".to_string())
                    })?
            }
            None => self.checkpoints.first().ok_or_else(|| {
                AdvisorError::Pack("pack regime carries no checkpoint cells".to_string())
            })?,
        };
        // Nearest tabulated job length carries the concrete fresh-VM schedule; ties
        // resolve toward the shorter job for determinism.
        let nearest = cell
            .expected
            .ys()
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = (*a - job_len).abs();
                let db = (*b - job_len).abs();
                da.total_cmp(&db).then(a.total_cmp(b))
            })
            .map(|(i, _)| i)
            .ok_or_else(|| {
                AdvisorError::Pack("checkpoint cell carries an empty job grid".to_string())
            })?;
        let intervals = &cell.schedules[nearest].intervals_hours;
        let mut response = AdviceResponse::bare(request.kind, request.id, &self.name);
        response.checkpoint_cost_minutes = Some(cell.cost_minutes);
        response.expected_makespan_hours = Some(cell.expected.eval(vm_age, job_len));
        response.intervals_hours = Some(intervals.clone());
        response.checkpoint_count = Some(intervals.len());
        Ok(response)
    }

    fn cost_makespan(&self, request: &AdviceRequest) -> Result<AdviceResponse> {
        let vm_age = validate_non_negative("vm_age", require("vm_age", request.vm_age)?)?;
        let job_len = validate_positive("job_len", require("job_len", request.job_len)?)?;
        let mut response = AdviceResponse::bare(request.kind, request.id, &self.name);
        response.failure_probability = Some(self.failure_probability(vm_age, job_len));
        response.survival_probability = Some(self.survival.eval(vm_age));
        response.on_demand_cost_usd = Some(self.on_demand_per_vcpu_hour * self.vcpus * job_len);
        // A VM at (or past) the reclamation deadline cannot run anything: no finite
        // makespan or preemptible cost exists, matching should_reuse's treatment.
        if vm_age < self.horizon {
            let makespan = self.makespan(vm_age, job_len);
            response.expected_makespan_hours = Some(makespan);
            response.expected_cost_usd =
                Some(self.preemptible_per_vcpu_hour * self.vcpus * makespan);
        }
        Ok(response)
    }

    fn best_policy(&self, request: &AdviceRequest) -> AdviceResponse {
        let mut response = AdviceResponse::bare(request.kind, request.id, &self.name);
        response.scheduling = Some(self.policy_card.recommended_scheduling.clone());
        response.checkpointing = Some(self.policy_card.recommended_checkpointing.clone());
        response.card = Some(Arc::clone(&self.policy_card));
        response
    }
}

/// The model families tracked by the per-family serving counters; anything new lands
/// in the trailing `other` bucket until it gets a slot of its own.
const FAMILIES: [&str; 7] = [
    "bathtub",
    "weibull",
    "exponential",
    "phased",
    "empirical",
    "mixture",
    "other",
];

fn family_index(family: &str) -> usize {
    FAMILIES
        .iter()
        .position(|f| *f == family)
        .unwrap_or(FAMILIES.len() - 1)
}

/// The query engine's instruments: one sharded [`Counter`] per request kind and per
/// family, plus the handles of the per-kind latency histograms and trace sites.
///
/// The counters belong to the loaded pack set (a `!reload` starts a fresh set), while
/// the `advisor.latency.*` histograms live in the global [`tcp_obs::Registry`]
/// (process lifetime): the two surfaces share the same sharded recording machinery
/// from `tcp-obs`, so `!stats` and `!metrics` cannot drift apart.
pub(crate) struct AdvisorCounters {
    kinds: [Counter; 4],
    /// Queries answered per served curve family (`served_family` of the regime).
    served: [Counter; FAMILIES.len()],
    /// Queries answered per DP-table family (`dp_family` of the regime).
    dp: [Counter; FAMILIES.len()],
    /// Global per-kind latency histograms (`advisor.latency.*`), resolved from the
    /// registry once at load time.
    latency: [&'static Histogram; 4],
    /// Per-kind trace sites (`advisor.lookup.*`), interned once at load time so the
    /// per-query span carries no string hashing — these are the *warm* table-lookup
    /// spans, in contrast to the builder's cold `advisor.build.dp` spans.
    trace_sites: [u32; 4],
}

impl AdvisorCounters {
    pub(crate) fn new() -> Self {
        AdvisorCounters {
            kinds: std::array::from_fn(|_| Counter::new()),
            served: std::array::from_fn(|_| Counter::new()),
            dp: std::array::from_fn(|_| Counter::new()),
            latency: [
                tcp_obs::histogram("advisor.latency.should_reuse"),
                tcp_obs::histogram("advisor.latency.checkpoint_plan"),
                tcp_obs::histogram("advisor.latency.expected_cost_makespan"),
                tcp_obs::histogram("advisor.latency.best_policy"),
            ],
            trace_sites: [
                tcp_obs::trace::site_id("advisor.lookup.should_reuse"),
                tcp_obs::trace::site_id("advisor.lookup.checkpoint_plan"),
                tcp_obs::trace::site_id("advisor.lookup.expected_cost_makespan"),
                tcp_obs::trace::site_id("advisor.lookup.best_policy"),
            ],
        }
    }

    /// Opens the warm-lookup span of `kind` (inert unless this thread is tracing a
    /// request); the site id is pre-interned, so this is pointer work only.
    pub(crate) fn lookup_span(&self, kind: RequestKind) -> tcp_obs::trace::Span {
        tcp_obs::trace::Span::enter(self.trace_sites[kind.index()], 0)
    }

    /// Counts a query `regime` answered and records its latency since `started`.
    pub(crate) fn record(&self, kind: RequestKind, regime: &RegimeEngine, started: Instant) {
        // Counters scatter across cache-line-padded shards inside `tcp_obs::Counter`
        // (the shard is a pure per-thread function) — record() sits on the nanosecond
        // path and must never contend.
        self.kinds[kind.index()].incr();
        let (served, dp) = regime.families;
        self.served[served].incr();
        self.dp[dp].incr();
        // Latency lands in the global registry, subject to the process-wide
        // `tcp_obs::set_enabled` gate.
        self.latency[kind.index()].record_duration(started.elapsed());
    }

    /// Query counters summed over the statistics shards.
    pub(crate) fn stats(&self) -> AdvisorStats {
        let count = |kind: RequestKind| self.kinds[kind.index()].get();
        AdvisorStats {
            best_policy: count(RequestKind::BestPolicy),
            checkpoint_plan: count(RequestKind::CheckpointPlan),
            expected_cost_makespan: count(RequestKind::ExpectedCostMakespan),
            should_reuse: count(RequestKind::ShouldReuse),
        }
    }

    /// Per-family query counters summed over the statistics shards (non-zero entries
    /// only).
    pub(crate) fn family_stats(&self) -> FamilyStats {
        let mut out = FamilyStats::default();
        for (i, family) in FAMILIES.iter().enumerate() {
            let served = self.served[i].get();
            let dp = self.dp[i].get();
            if served > 0 {
                out.served.insert(family.to_string(), served);
            }
            if dp > 0 {
                out.dp.insert(family.to_string(), dp);
            }
        }
        out
    }
}

/// Aggregated serving statistics.
///
/// Field order is alphabetical on purpose: derived serialization emits fields in
/// declaration order, and the `!stats` wire contract promises deterministically
/// sorted JSON keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdvisorStats {
    /// `best-policy` queries answered.
    pub best_policy: u64,
    /// `checkpoint-plan` queries answered.
    pub checkpoint_plan: u64,
    /// `expected-cost-makespan` queries answered.
    pub expected_cost_makespan: u64,
    /// `should-reuse` queries answered.
    pub should_reuse: u64,
}

impl AdvisorStats {
    /// Total queries answered.
    pub fn total(&self) -> u64 {
        self.should_reuse + self.checkpoint_plan + self.expected_cost_makespan + self.best_policy
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &AdvisorStats) {
        self.best_policy += other.best_policy;
        self.checkpoint_plan += other.checkpoint_plan;
        self.expected_cost_makespan += other.expected_cost_makespan;
        self.should_reuse += other.should_reuse;
    }
}

/// Per-family serving counters: how many queries each model family actually answered,
/// keyed by the answering regime's `served_family` (the Equation 8 curves) and
/// `dp_family` (the checkpoint tables / policy card).  Only families with non-zero
/// counts appear, in sorted order — the `!stats` histogram operators read to see which
/// models a pack is really serving.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FamilyStats {
    /// Queries per DP-table family.  (Fields are declared alphabetically so derived
    /// serialization emits sorted keys, matching the `!stats` contract.)
    pub dp: BTreeMap<String, u64>,
    /// Queries per served curve family.
    pub served: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{tiny_builder, tiny_spec};
    use crate::router::MultiAdvisor;
    use tcp_cloudsim::run_tasks;

    fn advisor() -> MultiAdvisor {
        MultiAdvisor::from_pack(tiny_builder().build_from_spec(&tiny_spec()).unwrap()).unwrap()
    }

    #[test]
    fn should_reuse_matches_the_scheduling_policy() {
        let a = advisor();
        // Stable mid-life VM: reuse (Figure 5's story).
        let r = a
            .advise(&AdviceRequest::should_reuse("gcp-day", 8.0, 6.0))
            .unwrap();
        assert_eq!(r.decision, Some(Decision::Reuse));
        assert_eq!(r.vm_phase, Some(VmPhase::Stable));
        assert!(r.reuse_makespan_hours.unwrap() <= r.fresh_makespan_hours.unwrap());
        // Near the deadline: launch fresh.
        let r = a
            .advise(&AdviceRequest::should_reuse("gcp-day", 21.0, 6.0))
            .unwrap();
        assert_eq!(r.decision, Some(Decision::LaunchFresh));
        // Past the deadline: launch fresh with no reuse estimate.
        let r = a
            .advise(&AdviceRequest::should_reuse("gcp-day", 30.0, 6.0))
            .unwrap();
        assert_eq!(r.decision, Some(Decision::LaunchFresh));
        assert_eq!(r.reuse_makespan_hours, None);
    }

    #[test]
    fn invalid_inputs_are_rejected_not_clamped() {
        let a = advisor();
        for request in [
            AdviceRequest::should_reuse("gcp-day", f64::NAN, 6.0),
            AdviceRequest::should_reuse("gcp-day", -1.0, 6.0),
            AdviceRequest::should_reuse("gcp-day", 3.0, -6.0),
            AdviceRequest::should_reuse("gcp-day", 3.0, f64::INFINITY),
            AdviceRequest::checkpoint_plan("gcp-day", 0.0, f64::NAN),
            AdviceRequest::expected_cost_makespan("gcp-day", 3.0, 0.0),
        ] {
            let err = a.advise(&request).unwrap_err();
            assert!(
                matches!(err, AdvisorError::InvalidInput { .. }),
                "{request:?} -> {err}"
            );
        }
        let mut bad_overhead = AdviceRequest::checkpoint_plan("gcp-day", 0.0, 4.0);
        bad_overhead.overhead_minutes = Some(-2.0);
        assert!(matches!(
            a.advise(&bad_overhead).unwrap_err(),
            AdvisorError::InvalidInput {
                field: "overhead_minutes",
                ..
            }
        ));
        // Rejected queries are not counted as served.
        assert_eq!(a.stats().total(), 0);
    }

    #[test]
    fn missing_required_fields_are_typed_errors() {
        let a = advisor();
        let req = AdviceRequest::bare(RequestKind::ShouldReuse);
        assert!(matches!(
            a.advise(&req).unwrap_err(),
            AdvisorError::MissingInput { field: "vm_age" }
        ));
    }

    #[test]
    fn unknown_regime_lists_available() {
        let a = advisor();
        let err = a
            .advise(&AdviceRequest::best_policy("mars-east1"))
            .unwrap_err();
        match err {
            AdvisorError::UnknownRegime { regime, available } => {
                assert_eq!(regime, "mars-east1");
                assert_eq!(available, vec!["gcp-day", "exp8"]);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn default_regime_is_the_packs_first() {
        let a = advisor();
        let mut req = AdviceRequest::bare(RequestKind::BestPolicy);
        req.regime = None;
        let r = a.advise(&req).unwrap();
        assert_eq!(r.regime, "gcp-day");
    }

    #[test]
    fn checkpoint_plan_selects_the_nearest_overhead_cell() {
        let a = advisor();
        let mut req = AdviceRequest::checkpoint_plan("gcp-day", 0.0, 4.0);
        req.overhead_minutes = Some(4.2);
        let r = a.advise(&req).unwrap();
        assert_eq!(r.checkpoint_cost_minutes, Some(5.0));
        req.overhead_minutes = Some(1.4);
        let r = a.advise(&req).unwrap();
        assert_eq!(r.checkpoint_cost_minutes, Some(1.0));
        assert!(r.checkpoint_count.unwrap() >= 1);
        let total: f64 = r.intervals_hours.unwrap().iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn cost_makespan_reports_the_five_x_story() {
        let a = advisor();
        let r = a
            .advise(&AdviceRequest::expected_cost_makespan("gcp-day", 8.0, 4.0))
            .unwrap();
        let expected = r.expected_cost_usd.unwrap();
        let on_demand = r.on_demand_cost_usd.unwrap();
        // Preemptible at ~5x discount beats on-demand even with preemption overhead.
        assert!(expected < on_demand, "{expected} vs {on_demand}");
        let p = r.failure_probability.unwrap();
        assert!((0.0..=1.0).contains(&p));
        let s = r.survival_probability.unwrap();
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn batch_is_order_preserving_and_thread_invariant() {
        let a = advisor();
        let requests: Vec<AdviceRequest> = (0..200)
            .map(|i| {
                let age = (i % 24) as f64;
                let job = 1.0 + (i % 8) as f64;
                let regime = if i % 2 == 0 { "gcp-day" } else { "exp8" };
                let mut req = match i % 4 {
                    0 => AdviceRequest::should_reuse(regime, age, job),
                    1 => AdviceRequest::checkpoint_plan(regime, age, job),
                    2 => AdviceRequest::expected_cost_makespan(regime, age, job),
                    _ => AdviceRequest::best_policy(regime),
                };
                req.id = Some(i as u64);
                req
            })
            .collect();
        let batch = |threads| run_tasks(requests.len(), threads, |i| a.advise(&requests[i]));
        let one = batch(1);
        let many = batch(4);
        assert_eq!(one, many);
        for (i, r) in one.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().id, Some(i as u64));
        }
    }

    #[test]
    fn stats_count_served_queries_across_threads() {
        let a = advisor();
        assert_eq!(a.stats().total(), 0);
        let requests: Vec<AdviceRequest> = (0..64)
            .map(|_| AdviceRequest::should_reuse("gcp-day", 5.0, 4.0))
            .collect();
        run_tasks(requests.len(), 4, |i| a.advise(&requests[i]));
        let stats = a.stats();
        assert_eq!(stats.should_reuse, 64);
        assert_eq!(stats.total(), 64);
    }
}
