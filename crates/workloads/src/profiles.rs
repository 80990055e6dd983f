//! Application profiles used in the paper's evaluation (Section 6.3).
//!
//! The cost experiments only need each application's running time and cluster shape, not
//! its physics: Nanoconfinement runs for 14 minutes on 4 × `n1-highcpu-16`, Shapes for
//! 9 minutes on the same cluster, and LULESH for 12.5 minutes on 8 × `n1-highcpu-8`.
//! These profiles drive the Figure 9 experiments and the bag-of-jobs generators.

use crate::bag::BagOfJobs;
use serde::{Deserialize, Serialize};
use tcp_numerics::Result;
use tcp_trace::VmType;

/// Cluster shape and running time of one application from the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationProfile {
    /// Application name.
    pub name: &'static str,
    /// Uninterrupted running time of one job, hours.
    pub runtime_hours: f64,
    /// Machine type of the cluster nodes.
    pub vm_type: VmType,
    /// Number of VMs in the cluster.
    pub cluster_vms: u32,
}

impl ApplicationProfile {
    /// Total vCPUs across the job's cluster.
    pub fn total_vcpus(&self) -> u32 {
        self.cluster_vms * self.vm_type.vcpus()
    }

    /// Builds a homogeneous bag of `count` jobs of this application with ±5 % runtime
    /// jitter (the variation the paper reports within a bag is small).
    pub fn bag(&self, count: usize, seed: u64) -> Result<BagOfJobs> {
        BagOfJobs::homogeneous(
            format!("{}-sweep", self.name),
            self.name,
            count,
            self.runtime_hours,
            self.total_vcpus(),
            0.05,
            seed,
        )
    }
}

/// The three applications evaluated in the paper.
pub static PAPER_APPLICATIONS: [ApplicationProfile; 3] = [
    ApplicationProfile {
        name: "nanoconfinement",
        runtime_hours: 14.0 / 60.0,
        vm_type: VmType::N1HighCpu16,
        cluster_vms: 4,
    },
    ApplicationProfile {
        name: "shapes",
        runtime_hours: 9.0 / 60.0,
        vm_type: VmType::N1HighCpu16,
        cluster_vms: 4,
    },
    ApplicationProfile {
        name: "lulesh",
        runtime_hours: 12.5 / 60.0,
        vm_type: VmType::N1HighCpu8,
        cluster_vms: 8,
    },
];

/// Looks up a paper application profile by name.
pub fn profile_by_name(name: &str) -> Option<&'static ApplicationProfile> {
    PAPER_APPLICATIONS
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profiles_match_section6() {
        assert_eq!(PAPER_APPLICATIONS.len(), 3);
        let nano = profile_by_name("nanoconfinement").unwrap();
        assert!((nano.runtime_hours * 60.0 - 14.0).abs() < 1e-9);
        assert_eq!(nano.total_vcpus(), 64);
        let shapes = profile_by_name("Shapes").unwrap();
        assert!((shapes.runtime_hours * 60.0 - 9.0).abs() < 1e-9);
        assert_eq!(shapes.total_vcpus(), 64);
        let lulesh = profile_by_name("lulesh").unwrap();
        assert!((lulesh.runtime_hours * 60.0 - 12.5).abs() < 1e-9);
        assert_eq!(lulesh.total_vcpus(), 64);
        assert!(profile_by_name("does-not-exist").is_none());
    }

    #[test]
    fn bags_from_profiles() {
        let nano = profile_by_name("nanoconfinement").unwrap();
        let bag = nano.bag(100, 3).unwrap();
        assert_eq!(bag.len(), 100);
        let mean = bag.total_work_hours() / bag.len() as f64;
        assert!((mean - nano.runtime_hours).abs() < 0.05 * nano.runtime_hours);
        assert!(bag.jobs.iter().all(|j| j.vcpus == 64));
    }
}
