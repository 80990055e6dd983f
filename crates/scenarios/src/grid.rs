//! Grid expansion: from per-axis value lists to concrete scenarios.
//!
//! The sweep grid is the cross product of every axis in the spec.  Expansion order is
//! fixed and documented: axes vary **odometer style**, the *last* axis fastest —
//!
//! ```text
//! regime → application → jobs → checkpoint-cost → cluster-size → vm-type → zone
//!        → hot-spare → billing → scheduling → checkpointing   (fastest)
//! ```
//!
//! so scenario `id` is a mixed-radix number over the axis lengths.  The ordering is part
//! of the output contract: scenario ids, report rows, and seeds all derive from it.

use crate::spec::{RegimeSpec, SweepSpec};
use serde::{Deserialize, Serialize};
use tcp_batch::{CheckpointingMode, SchedulingMode, ServiceConfig};
use tcp_numerics::{NumericsError, Result};
use tcp_policy::CheckpointConfig;
use tcp_trace::{VmType, Zone};
use tcp_workloads::profiles::profile_by_name;

/// Enumerates the cross product of axes with the given `lengths`, last axis fastest.
///
/// Returns one index tuple per grid point, in stable (odometer) order.  An empty axis
/// yields an empty grid; no axes yield the single empty tuple.
pub fn cross_product(lengths: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = lengths.iter().product();
    if lengths.contains(&0) {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(total);
    let mut counter = vec![0usize; lengths.len()];
    for _ in 0..total {
        out.push(counter.clone());
        for axis in (0..lengths.len()).rev() {
            counter[axis] += 1;
            if counter[axis] < lengths[axis] {
                break;
            }
            counter[axis] = 0;
        }
    }
    out
}

/// The resolved, serializable identity of one scenario (one grid point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMeta {
    /// Position in the expanded grid (also the seed-derivation index).
    pub id: usize,
    /// Compact human-readable label, e.g.
    /// `exp8/nanoconfinement x60/cs8/n1-highcpu-16/us-east1-b/hs1/preemptible/model-driven/none`.
    pub label: String,
    /// Regime name.
    pub regime: String,
    /// Application profile name.
    pub application: String,
    /// Jobs per bag.
    pub jobs: usize,
    /// Checkpoint cost, minutes.
    pub checkpoint_cost_minutes: f64,
    /// Cluster size (concurrent VM slots).
    pub cluster_size: usize,
    /// VM type (GCP name).
    pub vm_type: String,
    /// Zone (GCP name).
    pub zone: String,
    /// Hot-spare retention, hours.
    pub hot_spare_hours: f64,
    /// Preemptible (`true`) or on-demand (`false`) billing.
    pub use_preemptible: bool,
    /// Scheduling mode.
    pub scheduling: String,
    /// Checkpointing mode.
    pub checkpointing: String,
}

/// One fully expanded scenario: the serializable identity plus the runtime pieces the
/// runner needs (service config, regime index into the spec's regime list).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Serializable identity.
    pub meta: ScenarioMeta,
    /// Index into the expanded regime list.
    pub regime_index: usize,
    /// Index tuple that produced this scenario (axis order as documented).
    pub indices: Vec<usize>,
    /// The service configuration (seed is a placeholder; the runner derives per-trial
    /// seeds).
    pub config: ServiceConfig,
}

/// The expanded grid plus the axes that produced it.
#[derive(Debug, Clone)]
pub struct ExpandedGrid {
    /// Regimes in spec order (defaulted when the spec lists none).
    pub regimes: Vec<RegimeSpec>,
    /// Axis names with their cardinalities, in expansion order.
    pub axis_lengths: Vec<(&'static str, usize)>,
    /// The scenarios, in grid order.
    pub scenarios: Vec<Scenario>,
    /// Per-bag runtime jitter fraction (scalar; shared by every scenario).
    pub runtime_jitter: f64,
}

/// Expands a spec's axes into the full scenario grid.
pub fn expand(spec: &SweepSpec) -> Result<ExpandedGrid> {
    // Calibrated regimes without a pinned cell expand into one regime per catalog cell
    // here, so the regime axis the cross product sees is already flat.
    let regimes: Vec<RegimeSpec> = crate::spec::resolve_regimes(spec)?;
    {
        let mut names: Vec<&str> = regimes.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != regimes.len() {
            return Err(NumericsError::invalid("regime names must be unique"));
        }
    }

    let workload = spec.workload.clone().unwrap_or(crate::spec::WorkloadAxes {
        application: None,
        jobs: None,
        checkpoint_cost_minutes: None,
        runtime_jitter: None,
        dp_step_minutes: None,
    });
    let applications = workload
        .application
        .unwrap_or_else(|| vec!["nanoconfinement".to_string()]);
    for app in &applications {
        if profile_by_name(app).is_none() {
            return Err(NumericsError::invalid(format!(
                "unknown application `{app}` (expected one of: nanoconfinement, shapes, lulesh)"
            )));
        }
    }
    let jobs_axis = workload.jobs.unwrap_or_else(|| vec![40]);
    let ckpt_cost_axis = workload
        .checkpoint_cost_minutes
        .unwrap_or_else(|| vec![CheckpointConfig::DEFAULT_CHECKPOINT_COST_MINUTES]);
    let dp_step_minutes = workload
        .dp_step_minutes
        .unwrap_or(CheckpointConfig::DEFAULT_DP_STEP_MINUTES);
    if !(dp_step_minutes > 0.0) || !dp_step_minutes.is_finite() {
        return Err(NumericsError::invalid(
            "workload.dp_step_minutes must be positive",
        ));
    }
    // Same bound as BagOfJobs::homogeneous, so a bad value fails here (and in
    // `sweep --dry-run`) instead of deep inside the first real run.
    let runtime_jitter = workload.runtime_jitter.unwrap_or(0.05);
    if !(0.0..0.5).contains(&runtime_jitter) {
        return Err(NumericsError::invalid(
            "workload.runtime_jitter must lie in [0, 0.5)",
        ));
    }

    let cluster = spec.cluster.clone().unwrap_or(crate::spec::ClusterAxes {
        size: None,
        vm_type: None,
        zone: None,
        hot_spare_hours: None,
        use_preemptible: None,
    });
    let sizes = cluster.size.unwrap_or_else(|| vec![8]);
    let vm_types: Vec<VmType> = cluster
        .vm_type
        .unwrap_or_else(|| vec!["n1-highcpu-16".to_string()])
        .iter()
        .map(|s| s.parse::<VmType>().map_err(NumericsError::invalid))
        .collect::<Result<_>>()?;
    let zones: Vec<Zone> = cluster
        .zone
        .unwrap_or_else(|| vec!["us-east1-b".to_string()])
        .iter()
        .map(|s| s.parse::<Zone>().map_err(NumericsError::invalid))
        .collect::<Result<_>>()?;
    let hot_spares = cluster.hot_spare_hours.unwrap_or_else(|| vec![1.0]);
    let billings = cluster.use_preemptible.unwrap_or_else(|| vec![true]);

    let policy = spec.policy.clone().unwrap_or(crate::spec::PolicyAxes {
        scheduling: None,
        checkpointing: None,
    });
    let schedulings: Vec<SchedulingMode> = policy
        .scheduling
        .unwrap_or_else(|| vec!["model-driven".to_string()])
        .iter()
        .map(|s| s.parse::<SchedulingMode>().map_err(NumericsError::invalid))
        .collect::<Result<_>>()?;
    let checkpointings: Vec<CheckpointingMode> = policy
        .checkpointing
        .unwrap_or_else(|| vec!["none".to_string()])
        .iter()
        .map(|s| {
            s.parse::<CheckpointingMode>()
                .map_err(NumericsError::invalid)
        })
        .collect::<Result<_>>()?;

    let axis_lengths: Vec<(&'static str, usize)> = vec![
        ("regime", regimes.len()),
        ("application", applications.len()),
        ("jobs", jobs_axis.len()),
        ("checkpoint-cost", ckpt_cost_axis.len()),
        ("cluster-size", sizes.len()),
        ("vm-type", vm_types.len()),
        ("zone", zones.len()),
        ("hot-spare", hot_spares.len()),
        ("billing", billings.len()),
        ("scheduling", schedulings.len()),
        ("checkpointing", checkpointings.len()),
    ];
    let lengths: Vec<usize> = axis_lengths.iter().map(|&(_, l)| l).collect();

    let mut scenarios = Vec::new();
    for (id, idx) in cross_product(&lengths).into_iter().enumerate() {
        let [ri, ai, ji, ci, si, vi, zi, hi, bi, pi, ki] = idx[..] else {
            return Err(NumericsError::invalid("internal: axis count mismatch"));
        };
        let regime = &regimes[ri];
        let application = applications[ai].clone();
        let jobs = jobs_axis[ji];
        if jobs == 0 {
            return Err(NumericsError::invalid(
                "workload.jobs values must be positive",
            ));
        }
        let checkpoint_cost_minutes = ckpt_cost_axis[ci];
        if !(checkpoint_cost_minutes > 0.0) || !checkpoint_cost_minutes.is_finite() {
            return Err(NumericsError::invalid(
                "workload.checkpoint_cost_minutes values must be positive",
            ));
        }
        let config = ServiceConfig {
            vm_type: vm_types[vi],
            zone: zones[zi],
            cluster_size: sizes[si],
            use_preemptible: billings[bi],
            scheduling: schedulings[pi],
            checkpointing: checkpointings[ki],
            checkpoint_config: CheckpointConfig::from_minutes(
                checkpoint_cost_minutes,
                dp_step_minutes,
            ),
            hot_spare_hours: hot_spares[hi],
            seed: 0, // per-trial seeds are derived by the runner
        };
        config.validate()?;
        let meta = ScenarioMeta {
            id,
            label: format!(
                "{}/{} x{}/ck{}m/cs{}/{}/{}/hs{}/{}/{}/{}",
                regime.name,
                application,
                jobs,
                checkpoint_cost_minutes,
                sizes[si],
                vm_types[vi],
                zones[zi],
                hot_spares[hi],
                if billings[bi] {
                    "preemptible"
                } else {
                    "on-demand"
                },
                schedulings[pi],
                checkpointings[ki],
            ),
            regime: regime.name.clone(),
            application,
            jobs,
            checkpoint_cost_minutes,
            cluster_size: sizes[si],
            vm_type: vm_types[vi].to_string(),
            zone: zones[zi].to_string(),
            hot_spare_hours: hot_spares[hi],
            use_preemptible: billings[bi],
            scheduling: schedulings[pi].to_string(),
            checkpointing: checkpointings[ki].to_string(),
        };
        scenarios.push(Scenario {
            meta,
            regime_index: ri,
            indices: idx,
            config,
        });
    }

    Ok(ExpandedGrid {
        regimes,
        axis_lengths,
        scenarios,
        runtime_jitter,
    })
}

impl ExpandedGrid {
    /// Number of scenarios in the grid.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when the grid is empty (some axis had no values).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Number of axes with more than one value.
    pub fn varying_axes(&self) -> usize {
        self.axis_lengths.iter().filter(|&&(_, l)| l > 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    #[test]
    fn cross_product_is_exact_and_odometer_ordered() {
        let grid = cross_product(&[2, 3]);
        assert_eq!(
            grid,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
        assert_eq!(cross_product(&[]), vec![Vec::<usize>::new()]);
        assert_eq!(cross_product(&[4]).len(), 4);
        assert!(cross_product(&[2, 0, 3]).is_empty());
        assert_eq!(cross_product(&[2, 2, 2, 2]).len(), 16);
    }

    fn three_axis_spec() -> SweepSpec {
        SweepSpec::from_toml(
            r#"
[sweep]
name = "grid-test"
trials = 1

[[regime]]
name = "cat"
kind = "catalog"

[[regime]]
name = "exp8"
kind = "exponential"
mean_hours = 8.0

[workload]
application = ["nanoconfinement", "lulesh"]
jobs = [10]

[policy]
scheduling = ["model-driven", "memoryless"]
checkpointing = ["none", "young-daly", "model-driven"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_the_exact_cross_product_in_stable_order() {
        let grid = expand(&three_axis_spec()).unwrap();
        assert_eq!(grid.len(), 2 * 2 * 2 * 3);
        assert_eq!(grid.varying_axes(), 4);
        // Last axis (checkpointing) varies fastest.
        assert_eq!(grid.scenarios[0].meta.checkpointing, "none");
        assert_eq!(grid.scenarios[1].meta.checkpointing, "young-daly");
        assert_eq!(grid.scenarios[2].meta.checkpointing, "model-driven");
        assert_eq!(grid.scenarios[0].meta.scheduling, "model-driven");
        assert_eq!(grid.scenarios[3].meta.scheduling, "memoryless");
        // First axis (regime) varies slowest.
        assert!(grid.scenarios[..12].iter().all(|s| s.meta.regime == "cat"));
        assert!(grid.scenarios[12..].iter().all(|s| s.meta.regime == "exp8"));
        // Ids are positional and labels unique.
        for (i, s) in grid.scenarios.iter().enumerate() {
            assert_eq!(s.meta.id, i);
        }
        let mut labels: Vec<&str> = grid
            .scenarios
            .iter()
            .map(|s| s.meta.label.as_str())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), grid.len());
    }

    #[test]
    fn defaults_fill_unlisted_axes() {
        let spec = SweepSpec::from_toml("[sweep]\nname = \"d\"\n").unwrap();
        let grid = expand(&spec).unwrap();
        assert_eq!(grid.len(), 1);
        let s = &grid.scenarios[0];
        assert_eq!(s.meta.regime, "gcp-catalog");
        assert_eq!(s.meta.application, "nanoconfinement");
        assert_eq!(s.meta.cluster_size, 8);
        assert!(s.meta.use_preemptible);
    }

    #[test]
    fn invalid_axis_values_are_rejected() {
        let bad_vm = r#"
[sweep]
name = "x"
[cluster]
vm_type = ["n2-mega-96"]
"#;
        assert!(expand(&SweepSpec::from_toml(bad_vm).unwrap()).is_err());
        let bad_app = r#"
[sweep]
name = "x"
[workload]
application = ["fortnite"]
"#;
        assert!(expand(&SweepSpec::from_toml(bad_app).unwrap()).is_err());
        let dup = r#"
[sweep]
name = "x"
[[regime]]
name = "same"
kind = "catalog"
[[regime]]
name = "same"
kind = "uniform"
"#;
        assert!(expand(&SweepSpec::from_toml(dup).unwrap()).is_err());
    }
}
