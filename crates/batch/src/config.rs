//! Service configuration.

use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};
use tcp_policy::CheckpointConfig;
use tcp_trace::{VmType, Zone};

/// Which checkpointing policy (if any) the service applies to jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointingMode {
    /// Jobs are never checkpointed; a preemption loses all progress (Section 6.3 runs the
    /// cost experiment in this mode because the applications lacked checkpoint support).
    None,
    /// Model-driven dynamic-programming checkpointing (Section 4.3).
    ModelDriven,
    /// Young–Daly periodic checkpointing with the MTTF inferred from the initial failure
    /// rate (the baseline of Figure 8).
    YoungDaly,
}

/// Scheduling policy used when an idle VM is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulingMode {
    /// The paper's model-driven VM-reuse policy.
    ModelDriven,
    /// Memoryless baseline: always reuse the available VM.
    Memoryless,
}

impl std::fmt::Display for CheckpointingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CheckpointingMode::None => "none",
            CheckpointingMode::ModelDriven => "model-driven",
            CheckpointingMode::YoungDaly => "young-daly",
        })
    }
}

impl std::str::FromStr for CheckpointingMode {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Ok(CheckpointingMode::None),
            "model-driven" | "modeldriven" | "dp" => Ok(CheckpointingMode::ModelDriven),
            "young-daly" | "youngdaly" => Ok(CheckpointingMode::YoungDaly),
            other => Err(format!(
                "unknown checkpointing mode: {other} (expected none, model-driven or young-daly)"
            )),
        }
    }
}

impl std::fmt::Display for SchedulingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedulingMode::ModelDriven => "model-driven",
            SchedulingMode::Memoryless => "memoryless",
        })
    }
}

impl std::str::FromStr for SchedulingMode {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "model-driven" | "modeldriven" => Ok(SchedulingMode::ModelDriven),
            "memoryless" | "always-reuse" => Ok(SchedulingMode::Memoryless),
            other => Err(format!(
                "unknown scheduling mode: {other} (expected model-driven or memoryless)"
            )),
        }
    }
}

/// Full configuration of one service run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Machine type used for worker VMs.
    pub vm_type: VmType,
    /// Zone the cluster runs in.
    pub zone: Zone,
    /// Maximum number of VMs running concurrently (the cluster size).
    pub cluster_size: usize,
    /// Use preemptible VMs (`true`, the paper's service) or on-demand VMs (`false`, the
    /// cost comparator of Figure 9a).
    pub use_preemptible: bool,
    /// Scheduling policy for idle-VM reuse.
    pub scheduling: SchedulingMode,
    /// Checkpointing policy applied to jobs.
    pub checkpointing: CheckpointingMode,
    /// Checkpointing parameters (cost, step, restart overhead).
    pub checkpoint_config: CheckpointConfig,
    /// How long an idle, stable VM is kept as a hot spare before termination, hours.
    pub hot_spare_hours: f64,
    /// RNG seed for the simulated provider.
    pub seed: u64,
}

impl ServiceConfig {
    /// The configuration used for the paper's cost experiment (Figure 9a): 32 VMs of type
    /// `n1-highcpu-32`, model-driven scheduling, no checkpointing, preemptible billing.
    pub fn paper_cost_experiment(seed: u64) -> Self {
        ServiceConfig {
            vm_type: VmType::N1HighCpu32,
            zone: Zone::UsCentral1C,
            cluster_size: 32,
            use_preemptible: true,
            scheduling: SchedulingMode::ModelDriven,
            checkpointing: CheckpointingMode::None,
            checkpoint_config: CheckpointConfig::paper_defaults(),
            hot_spare_hours: 1.0,
            seed,
        }
    }

    /// The on-demand comparator of Figure 9a (same cluster, conventional VMs).
    pub fn on_demand_comparator(seed: u64) -> Self {
        ServiceConfig {
            use_preemptible: false,
            ..ServiceConfig::paper_cost_experiment(seed)
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.cluster_size == 0 {
            return Err(NumericsError::invalid("cluster size must be positive"));
        }
        if !(self.hot_spare_hours >= 0.0) || !self.hot_spare_hours.is_finite() {
            return Err(NumericsError::invalid(
                "hot spare duration must be non-negative",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let c = ServiceConfig::paper_cost_experiment(1);
        c.validate().unwrap();
        assert_eq!(c.cluster_size, 32);
        assert_eq!(c.vm_type, VmType::N1HighCpu32);
        assert!(c.use_preemptible);
        let od = ServiceConfig::on_demand_comparator(1);
        assert!(!od.use_preemptible);
        assert_eq!(od.cluster_size, c.cluster_size);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ServiceConfig::paper_cost_experiment(1);
        c.cluster_size = 0;
        assert!(c.validate().is_err());
        let mut c = ServiceConfig::paper_cost_experiment(1);
        c.hot_spare_hours = f64::NAN;
        assert!(c.validate().is_err());
    }
}
