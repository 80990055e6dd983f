//! The bag-of-jobs abstraction (Section 5).
//!
//! Scientific simulation campaigns explore a parameter space by running the same
//! application many times with different parameters; the paper exploits the fact that jobs
//! within a bag have near-identical running times to estimate job lengths and to keep
//! "stable" VMs busy.  A [`BagOfJobs`] is simply an ordered collection of [`JobSpec`]s
//! with helpers for generating homogeneous parameter sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};

/// Declarative description of one job inside a bag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Identifier unique within the bag.
    pub id: u64,
    /// Application name (matches the profile name).
    pub application: String,
    /// Estimated uninterrupted running time, hours.
    pub estimated_runtime_hours: f64,
    /// Number of vCPUs the job occupies while running.
    pub vcpus: u32,
    /// Opaque parameter-point label (e.g. "confinement=3nm,salt=0.5M").
    pub parameters: String,
}

impl JobSpec {
    /// Creates a job spec, validating the runtime and resource demands.
    pub fn new(
        id: u64,
        application: impl Into<String>,
        estimated_runtime_hours: f64,
        vcpus: u32,
        parameters: impl Into<String>,
    ) -> Result<Self> {
        if !(estimated_runtime_hours > 0.0) || !estimated_runtime_hours.is_finite() {
            return Err(NumericsError::invalid("estimated runtime must be positive"));
        }
        if vcpus == 0 {
            return Err(NumericsError::invalid("jobs need at least one vCPU"));
        }
        Ok(JobSpec {
            id,
            application: application.into(),
            estimated_runtime_hours,
            vcpus,
            parameters: parameters.into(),
        })
    }
}

/// An ordered bag of jobs exploring a parameter space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BagOfJobs {
    /// Name of the bag (e.g. the campaign name).
    pub name: String,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl BagOfJobs {
    /// Creates a bag from explicit jobs.
    pub fn new(name: impl Into<String>, jobs: Vec<JobSpec>) -> Result<Self> {
        if jobs.is_empty() {
            return Err(NumericsError::invalid(
                "a bag must contain at least one job",
            ));
        }
        Ok(BagOfJobs {
            name: name.into(),
            jobs,
        })
    }

    /// Generates a homogeneous bag: `count` jobs of the same application whose running
    /// times vary by at most `runtime_jitter_fraction` around `base_runtime_hours`
    /// (the paper: "within a bag, jobs show little variation in their running time").
    pub fn homogeneous(
        name: impl Into<String>,
        application: impl Into<String>,
        count: usize,
        base_runtime_hours: f64,
        vcpus: u32,
        runtime_jitter_fraction: f64,
        seed: u64,
    ) -> Result<Self> {
        if count == 0 {
            return Err(NumericsError::invalid(
                "a bag must contain at least one job",
            ));
        }
        if !(0.0..0.5).contains(&runtime_jitter_fraction) {
            return Err(NumericsError::invalid(
                "jitter fraction must lie in [0, 0.5)",
            ));
        }
        let application = application.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut jobs = Vec::with_capacity(count);
        for id in 0..count {
            let jitter = if runtime_jitter_fraction > 0.0 {
                1.0 + rng.gen_range(-runtime_jitter_fraction..runtime_jitter_fraction)
            } else {
                1.0
            };
            jobs.push(JobSpec::new(
                id as u64,
                application.clone(),
                base_runtime_hours * jitter,
                vcpus,
                format!("point-{id}"),
            )?);
        }
        BagOfJobs::new(name, jobs)
    }

    /// Number of jobs in the bag.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the bag has no jobs (cannot happen for a constructed bag).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total sequential work in the bag, hours.
    pub fn total_work_hours(&self) -> f64 {
        self.jobs.iter().map(|j| j.estimated_runtime_hours).sum()
    }

    /// Mean job running time, hours — the estimate the service uses for scheduling and
    /// checkpoint planning of subsequent jobs in the bag.
    pub fn mean_runtime_hours(&self) -> f64 {
        self.total_work_hours() / self.jobs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_validation() {
        assert!(JobSpec::new(0, "nano", 0.0, 16, "p").is_err());
        assert!(JobSpec::new(0, "nano", f64::NAN, 16, "p").is_err());
        assert!(JobSpec::new(0, "nano", 1.0, 0, "p").is_err());
        let j = JobSpec::new(3, "nano", 0.25, 64, "x=1").unwrap();
        assert_eq!(j.id, 3);
        assert_eq!(j.vcpus, 64);
    }

    #[test]
    fn bag_construction_and_stats() {
        let jobs = vec![
            JobSpec::new(0, "nano", 1.0, 16, "a").unwrap(),
            JobSpec::new(1, "nano", 2.0, 16, "b").unwrap(),
        ];
        let bag = BagOfJobs::new("campaign", jobs).unwrap();
        assert_eq!(bag.len(), 2);
        assert!(!bag.is_empty());
        assert_eq!(bag.total_work_hours(), 3.0);
        assert_eq!(bag.mean_runtime_hours(), 1.5);
        assert!(BagOfJobs::new("empty", vec![]).is_err());
    }

    #[test]
    fn homogeneous_bag_has_little_runtime_variation() {
        let bag = BagOfJobs::homogeneous("nano-sweep", "nanoconfinement", 100, 0.25, 64, 0.05, 7)
            .unwrap();
        assert_eq!(bag.len(), 100);
        let mean = bag.mean_runtime_hours();
        assert!((mean - 0.25).abs() < 0.02);
        for j in &bag.jobs {
            assert!((j.estimated_runtime_hours - 0.25).abs() / 0.25 < 0.05 + 1e-9);
            assert_eq!(j.application, "nanoconfinement");
        }
        // deterministic given the seed
        let again = BagOfJobs::homogeneous("nano-sweep", "nanoconfinement", 100, 0.25, 64, 0.05, 7)
            .unwrap();
        assert_eq!(bag, again);
    }

    #[test]
    fn homogeneous_bag_validation() {
        assert!(BagOfJobs::homogeneous("x", "a", 0, 1.0, 1, 0.0, 1).is_err());
        assert!(BagOfJobs::homogeneous("x", "a", 10, 1.0, 1, 0.9, 1).is_err());
        let no_jitter = BagOfJobs::homogeneous("x", "a", 5, 1.0, 1, 0.0, 1).unwrap();
        assert!(no_jitter
            .jobs
            .iter()
            .all(|j| j.estimated_runtime_hours == 1.0));
    }
}
