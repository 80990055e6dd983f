//! Dataset schema for the empirical preemption study.
//!
//! One [`PreemptionRecord`] corresponds to one launched Preemptible VM and its observed
//! time to preemption.  The categorical dimensions mirror the breakdowns in Figure 2 of the
//! paper: VM type (number of vCPUs), geographical zone, time of day at launch, and whether
//! the VM was running a workload.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Google `n1-highcpu-*` machine types used in the study (Figure 2a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum VmType {
    /// `n1-highcpu-2` — 2 vCPUs.
    N1HighCpu2,
    /// `n1-highcpu-4` — 4 vCPUs.
    N1HighCpu4,
    /// `n1-highcpu-8` — 8 vCPUs.
    N1HighCpu8,
    /// `n1-highcpu-16` — 16 vCPUs.
    N1HighCpu16,
    /// `n1-highcpu-32` — 32 vCPUs.
    N1HighCpu32,
}

impl VmType {
    /// All machine types in ascending vCPU order.
    pub fn all() -> [VmType; 5] {
        [
            VmType::N1HighCpu2,
            VmType::N1HighCpu4,
            VmType::N1HighCpu8,
            VmType::N1HighCpu16,
            VmType::N1HighCpu32,
        ]
    }

    /// Number of vCPUs in this machine type.
    pub fn vcpus(&self) -> u32 {
        match self {
            VmType::N1HighCpu2 => 2,
            VmType::N1HighCpu4 => 4,
            VmType::N1HighCpu8 => 8,
            VmType::N1HighCpu16 => 16,
            VmType::N1HighCpu32 => 32,
        }
    }

    /// Memory in GB for the `n1-highcpu` family (0.9 GB per vCPU).
    pub fn memory_gb(&self) -> f64 {
        self.vcpus() as f64 * 0.9
    }

    /// The GCP machine-type name, e.g. `n1-highcpu-16`.
    pub fn gcp_name(&self) -> &'static str {
        match self {
            VmType::N1HighCpu2 => "n1-highcpu-2",
            VmType::N1HighCpu4 => "n1-highcpu-4",
            VmType::N1HighCpu8 => "n1-highcpu-8",
            VmType::N1HighCpu16 => "n1-highcpu-16",
            VmType::N1HighCpu32 => "n1-highcpu-32",
        }
    }
}

impl fmt::Display for VmType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.gcp_name())
    }
}

impl FromStr for VmType {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "n1-highcpu-2" => Ok(VmType::N1HighCpu2),
            "n1-highcpu-4" => Ok(VmType::N1HighCpu4),
            "n1-highcpu-8" => Ok(VmType::N1HighCpu8),
            "n1-highcpu-16" => Ok(VmType::N1HighCpu16),
            "n1-highcpu-32" => Ok(VmType::N1HighCpu32),
            other => Err(format!("unknown VM type: {other}")),
        }
    }
}

/// Geographical zones used in the study (Figure 2c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Zone {
    /// `us-central1-c`.
    UsCentral1C,
    /// `us-central1-f`.
    UsCentral1F,
    /// `us-west1-a`.
    UsWest1A,
    /// `us-east1-b`.
    UsEast1B,
}

impl Zone {
    /// All zones used in the study.
    pub fn all() -> [Zone; 4] {
        [
            Zone::UsCentral1C,
            Zone::UsCentral1F,
            Zone::UsWest1A,
            Zone::UsEast1B,
        ]
    }

    /// The GCP zone name.
    pub fn gcp_name(&self) -> &'static str {
        match self {
            Zone::UsCentral1C => "us-central1-c",
            Zone::UsCentral1F => "us-central1-f",
            Zone::UsWest1A => "us-west1-a",
            Zone::UsEast1B => "us-east1-b",
        }
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.gcp_name())
    }
}

impl FromStr for Zone {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "us-central1-c" => Ok(Zone::UsCentral1C),
            "us-central1-f" => Ok(Zone::UsCentral1F),
            "us-west1-a" => Ok(Zone::UsWest1A),
            "us-east1-b" => Ok(Zone::UsEast1B),
            other => Err(format!("unknown zone: {other}")),
        }
    }
}

/// Time-of-day bucket at VM launch (Figure 2b): day is 8 AM – 8 PM local, night otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TimeOfDay {
    /// Launched between 8 AM and 8 PM local time.
    Day,
    /// Launched between 8 PM and 8 AM local time.
    Night,
}

impl TimeOfDay {
    /// Both buckets.
    pub fn all() -> [TimeOfDay; 2] {
        [TimeOfDay::Day, TimeOfDay::Night]
    }

    /// Classifies a local hour-of-day (0–23) into a bucket.
    pub fn from_hour(hour: u32) -> TimeOfDay {
        if (8..20).contains(&hour) {
            TimeOfDay::Day
        } else {
            TimeOfDay::Night
        }
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeOfDay::Day => f.write_str("day"),
            TimeOfDay::Night => f.write_str("night"),
        }
    }
}

impl FromStr for TimeOfDay {
    type Err = String;
    /// Case-insensitive; the error names the input lowercased.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("day") {
            Ok(TimeOfDay::Day)
        } else if s.eq_ignore_ascii_case("night") {
            Ok(TimeOfDay::Night)
        } else {
            Err(format!("unknown time of day: {}", s.to_ascii_lowercase()))
        }
    }
}

/// Whether the VM was running a workload during its lifetime (Figure 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// VM left completely idle.
    Idle,
    /// VM running a (scientific) workload.
    NonIdle,
}

impl WorkloadKind {
    /// Both kinds.
    pub fn all() -> [WorkloadKind; 2] {
        [WorkloadKind::Idle, WorkloadKind::NonIdle]
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadKind::Idle => f.write_str("idle"),
            WorkloadKind::NonIdle => f.write_str("non-idle"),
        }
    }
}

impl FromStr for WorkloadKind {
    type Err = String;
    /// Case-insensitive (`non-idle`, `nonidle` and `busy` all mean
    /// [`WorkloadKind::NonIdle`]); the error names the input lowercased.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("idle") {
            Ok(WorkloadKind::Idle)
        } else if ["non-idle", "nonidle", "busy"]
            .iter()
            .any(|name| s.eq_ignore_ascii_case(name))
        {
            Ok(WorkloadKind::NonIdle)
        } else {
            Err(format!("unknown workload kind: {}", s.to_ascii_lowercase()))
        }
    }
}

/// One observed VM lifetime: the unit of the empirical study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptionRecord {
    /// Machine type of the VM.
    pub vm_type: VmType,
    /// Zone the VM was launched in.
    pub zone: Zone,
    /// Time of day at launch.
    pub time_of_day: TimeOfDay,
    /// Whether the VM was running a workload.
    pub workload: WorkloadKind,
    /// Observed lifetime (time to preemption) in hours, in `[0, 24]`.
    pub lifetime_hours: f64,
    /// `true` when the VM was preempted by the provider before the 24 h deadline;
    /// `false` when it survived to the deadline and was reclaimed by the maximum-lifetime
    /// constraint itself.
    pub preempted_before_deadline: bool,
    /// Local hour-of-day at launch (0–23), when the dataset records it.  Must be
    /// consistent with [`PreemptionRecord::time_of_day`]; enables launch-hour
    /// calibration cells finer than the day/night split.
    pub launch_hour: Option<u32>,
}

impl PreemptionRecord {
    /// Creates a record, validating the lifetime against the 24-hour constraint.
    pub fn new(
        vm_type: VmType,
        zone: Zone,
        time_of_day: TimeOfDay,
        workload: WorkloadKind,
        lifetime_hours: f64,
    ) -> Result<Self, String> {
        if !lifetime_hours.is_finite() || lifetime_hours < 0.0 {
            return Err(format!(
                "lifetime must be finite and non-negative, got {lifetime_hours}"
            ));
        }
        if lifetime_hours > 24.0 + 1e-9 {
            return Err(format!(
                "lifetime {lifetime_hours} exceeds the 24 h constraint"
            ));
        }
        Ok(PreemptionRecord {
            vm_type,
            zone,
            time_of_day,
            workload,
            lifetime_hours: lifetime_hours.min(24.0),
            preempted_before_deadline: lifetime_hours < 24.0 - 1e-9,
            launch_hour: None,
        })
    }

    /// Attaches the local launch hour (0–23), validating it against the record's
    /// day/night bucket.
    pub fn with_launch_hour(mut self, hour: u32) -> Result<Self, String> {
        if hour >= 24 {
            return Err(format!("launch hour must lie in 0..24, got {hour}"));
        }
        if TimeOfDay::from_hour(hour) != self.time_of_day {
            return Err(format!(
                "launch hour {hour} is inconsistent with time of day `{}`",
                self.time_of_day
            ));
        }
        self.launch_hour = Some(hour);
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_type_metadata() {
        assert_eq!(VmType::all().len(), 5);
        assert_eq!(VmType::N1HighCpu16.vcpus(), 16);
        assert!((VmType::N1HighCpu8.memory_gb() - 7.2).abs() < 1e-12);
        assert_eq!(VmType::N1HighCpu32.to_string(), "n1-highcpu-32");
        assert_eq!(
            "n1-highcpu-4".parse::<VmType>().unwrap(),
            VmType::N1HighCpu4
        );
        assert!("n2-standard-4".parse::<VmType>().is_err());
    }

    #[test]
    fn zone_round_trip() {
        for z in Zone::all() {
            assert_eq!(z.gcp_name().parse::<Zone>().unwrap(), z);
        }
        assert!("europe-west1-b".parse::<Zone>().is_err());
    }

    #[test]
    fn time_of_day_classification() {
        assert_eq!(TimeOfDay::from_hour(9), TimeOfDay::Day);
        assert_eq!(TimeOfDay::from_hour(19), TimeOfDay::Day);
        assert_eq!(TimeOfDay::from_hour(20), TimeOfDay::Night);
        assert_eq!(TimeOfDay::from_hour(3), TimeOfDay::Night);
        assert_eq!("day".parse::<TimeOfDay>().unwrap(), TimeOfDay::Day);
        assert_eq!("NIGHT".parse::<TimeOfDay>().unwrap(), TimeOfDay::Night);
        assert!("dusk".parse::<TimeOfDay>().is_err());
    }

    #[test]
    fn workload_kind_parsing() {
        assert_eq!("idle".parse::<WorkloadKind>().unwrap(), WorkloadKind::Idle);
        assert_eq!(
            "non-idle".parse::<WorkloadKind>().unwrap(),
            WorkloadKind::NonIdle
        );
        assert_eq!(
            "busy".parse::<WorkloadKind>().unwrap(),
            WorkloadKind::NonIdle
        );
        assert!("sleeping".parse::<WorkloadKind>().is_err());
    }

    #[test]
    fn record_validation() {
        let ok = PreemptionRecord::new(
            VmType::N1HighCpu16,
            Zone::UsEast1B,
            TimeOfDay::Day,
            WorkloadKind::NonIdle,
            5.5,
        )
        .unwrap();
        assert!(ok.preempted_before_deadline);

        let at_deadline = PreemptionRecord::new(
            VmType::N1HighCpu2,
            Zone::UsWest1A,
            TimeOfDay::Night,
            WorkloadKind::Idle,
            24.0,
        )
        .unwrap();
        assert!(!at_deadline.preempted_before_deadline);

        assert!(PreemptionRecord::new(
            VmType::N1HighCpu2,
            Zone::UsWest1A,
            TimeOfDay::Night,
            WorkloadKind::Idle,
            25.0
        )
        .is_err());
        assert!(PreemptionRecord::new(
            VmType::N1HighCpu2,
            Zone::UsWest1A,
            TimeOfDay::Night,
            WorkloadKind::Idle,
            -1.0
        )
        .is_err());
    }
}
