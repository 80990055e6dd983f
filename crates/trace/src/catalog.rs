//! Ground-truth preemption processes per configuration.
//!
//! The catalog assigns every `(VM type, zone, time of day, workload)` configuration a
//! three-phase hazard whose overall preemption pressure is scaled to reproduce the
//! qualitative findings of the paper's empirical study:
//!
//! * **Observation 4** — larger VMs are preempted more often (Figure 2a): the hazard scale
//!   grows with the vCPU count.
//! * **Observation 5** — preemptions show diurnal variation and depend on the workload
//!   (Figure 2b): daytime launches and non-idle VMs see a higher hazard.
//! * **Figure 2c** — zones differ moderately in preemption pressure.
//!
//! The base process and the scale factors are the calibration knobs of the synthetic
//! substitute for the real dataset; see DESIGN.md for the substitution rationale.

use crate::record::{TimeOfDay, VmType, WorkloadKind, Zone};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use tcp_dists::phased::{PhasedHazard, PhasedHazardParams};
use tcp_numerics::Result;

/// A fully specified measurement configuration, one cell of the empirical study.
///
/// Renders as (and parses from) `vm-type/zone/time-of-day/workload` using the GCP
/// names; the workload segment may be omitted when parsing, defaulting to `non-idle`
/// (the paper's service-experiment conditions) — so CLIs can name cells like
/// `n1-highcpu-4/us-east1-b/night`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConfigKey {
    /// Machine type.
    pub vm_type: VmType,
    /// Zone.
    pub zone: Zone,
    /// Time of day at launch.
    pub time_of_day: TimeOfDay,
    /// Workload kind.
    pub workload: WorkloadKind,
}

impl ConfigKey {
    /// The configuration highlighted in Figure 1: `n1-highcpu-16` in `us-east1-b`,
    /// launched during the day and running a workload.
    pub fn figure1() -> Self {
        ConfigKey {
            vm_type: VmType::N1HighCpu16,
            zone: Zone::UsEast1B,
            time_of_day: TimeOfDay::Day,
            workload: WorkloadKind::NonIdle,
        }
    }

    /// Every configuration cell in the study (5 types × 4 zones × 2 times × 2 workloads).
    pub fn all() -> Vec<ConfigKey> {
        let mut out = Vec::with_capacity(5 * 4 * 2 * 2);
        for vm_type in VmType::all() {
            for zone in Zone::all() {
                for time_of_day in TimeOfDay::all() {
                    for workload in WorkloadKind::all() {
                        out.push(ConfigKey {
                            vm_type,
                            zone,
                            time_of_day,
                            workload,
                        });
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for ConfigKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.vm_type, self.zone, self.time_of_day, self.workload
        )
    }
}

impl FromStr for ConfigKey {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let parts: Vec<&str> = s.trim().split('/').collect();
        let (vm, zone, tod, workload) = match parts[..] {
            [vm, zone, tod] => (vm, zone, tod, None),
            [vm, zone, tod, workload] => (vm, zone, tod, Some(workload)),
            _ => {
                return Err(format!(
                    "config key `{s}` must have the form vm-type/zone/time-of-day[/workload] \
                     (e.g. n1-highcpu-16/us-east1-b/day/non-idle)"
                ))
            }
        };
        Ok(ConfigKey {
            vm_type: vm.parse()?,
            zone: zone.parse()?,
            time_of_day: tod.parse()?,
            workload: match workload {
                Some(w) => w.parse()?,
                None => WorkloadKind::NonIdle,
            },
        })
    }
}

/// The catalog of ground-truth preemption processes: the representative three-phase
/// hazard (calibrated so the Figure 1 configuration, `n1-highcpu-16` in `us-east1-b`,
/// reproduces the paper's qualitative CDF) scaled per configuration.
#[derive(Debug)]
pub struct TraceCatalog;

impl TraceCatalog {
    /// Hazard scale factor attributable to the machine type (Observation 4).
    ///
    /// Calibrated so the 32-vCPU type is roughly twice as preemption-prone as the 2-vCPU
    /// type, with `n1-highcpu-16` close to the Figure 1 baseline.
    pub fn vm_type_factor(vm_type: VmType) -> f64 {
        match vm_type {
            VmType::N1HighCpu2 => 0.55,
            VmType::N1HighCpu4 => 0.70,
            VmType::N1HighCpu8 => 0.85,
            VmType::N1HighCpu16 => 1.00,
            VmType::N1HighCpu32 => 1.30,
        }
    }

    /// Hazard scale factor attributable to the zone (Figure 2c shows moderate spread).
    pub fn zone_factor(zone: Zone) -> f64 {
        match zone {
            Zone::UsCentral1C => 0.90,
            Zone::UsCentral1F => 1.05,
            Zone::UsWest1A => 0.80,
            Zone::UsEast1B => 1.00,
        }
    }

    /// Hazard scale factor attributable to the launch time of day (Observation 5: nights
    /// are quieter).
    pub fn time_of_day_factor(time_of_day: TimeOfDay) -> f64 {
        match time_of_day {
            TimeOfDay::Day => 1.0,
            TimeOfDay::Night => 0.80,
        }
    }

    /// Hazard scale factor attributable to the VM's workload (Observation 5: idle VMs live
    /// longer).
    pub fn workload_factor(workload: WorkloadKind) -> f64 {
        match workload {
            WorkloadKind::Idle => 0.78,
            WorkloadKind::NonIdle => 1.0,
        }
    }

    /// Combined hazard scale factor for a configuration.
    pub fn scale_factor(key: &ConfigKey) -> f64 {
        Self::vm_type_factor(key.vm_type)
            * Self::zone_factor(key.zone)
            * Self::time_of_day_factor(key.time_of_day)
            * Self::workload_factor(key.workload)
    }

    /// The ground-truth preemption process for a configuration.
    pub fn ground_truth(key: &ConfigKey) -> Result<PhasedHazard> {
        PhasedHazard::new(PhasedHazardParams::representative())?
            .scale_rates(Self::scale_factor(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_dists::LifetimeDistribution;

    #[test]
    fn all_configurations_enumerated() {
        let all = ConfigKey::all();
        assert_eq!(all.len(), 5 * 4 * 2 * 2);
        // all distinct
        let mut set = std::collections::HashSet::new();
        for k in &all {
            assert!(set.insert(*k));
        }
    }

    #[test]
    fn figure1_config_is_hc16_us_east() {
        let k = ConfigKey::figure1();
        assert_eq!(k.vm_type, VmType::N1HighCpu16);
        assert_eq!(k.zone, Zone::UsEast1B);
    }

    #[test]
    fn config_key_display_round_trips() {
        for key in ConfigKey::all() {
            assert_eq!(key.to_string().parse::<ConfigKey>().unwrap(), key);
        }
        assert_eq!(
            ConfigKey::figure1().to_string(),
            "n1-highcpu-16/us-east1-b/day/non-idle"
        );
    }

    #[test]
    fn config_key_workload_segment_is_optional() {
        let k: ConfigKey = "n1-highcpu-4/us-east1-b/night".parse().unwrap();
        assert_eq!(k.vm_type, VmType::N1HighCpu4);
        assert_eq!(k.time_of_day, TimeOfDay::Night);
        assert_eq!(k.workload, WorkloadKind::NonIdle);
        let idle: ConfigKey = "n1-highcpu-4/us-east1-b/night/idle".parse().unwrap();
        assert_eq!(idle.workload, WorkloadKind::Idle);
    }

    #[test]
    fn config_key_rejects_malformed_strings() {
        assert!("n1-highcpu-4/us-east1-b".parse::<ConfigKey>().is_err());
        assert!("n1-highcpu-4/us-east1-b/dusk".parse::<ConfigKey>().is_err());
        assert!("n1-highcpu-4/us-east1-b/day/idle/extra"
            .parse::<ConfigKey>()
            .is_err());
        assert!("n9-mega-64/us-east1-b/day".parse::<ConfigKey>().is_err());
    }

    #[test]
    fn larger_vms_have_higher_preemption_probability() {
        // Observation 4 / Figure 2a: CDF ordering by VM size at every age.
        let mk = |vm_type| {
            TraceCatalog::ground_truth(&ConfigKey {
                vm_type,
                zone: Zone::UsCentral1C,
                time_of_day: TimeOfDay::Day,
                workload: WorkloadKind::NonIdle,
            })
            .unwrap()
        };
        let small = mk(VmType::N1HighCpu2);
        let medium = mk(VmType::N1HighCpu8);
        let large = mk(VmType::N1HighCpu32);
        for &t in &[2.0, 6.0, 12.0, 20.0, 23.0] {
            assert!(small.cdf(t) <= medium.cdf(t));
            assert!(medium.cdf(t) <= large.cdf(t));
        }
    }

    #[test]
    fn nights_and_idle_vms_live_longer() {
        // Observation 5 / Figure 2b.
        let day_busy = TraceCatalog::ground_truth(&ConfigKey::figure1()).unwrap();
        let night_busy = TraceCatalog::ground_truth(&ConfigKey {
            time_of_day: TimeOfDay::Night,
            ..ConfigKey::figure1()
        })
        .unwrap();
        let day_idle = TraceCatalog::ground_truth(&ConfigKey {
            workload: WorkloadKind::Idle,
            ..ConfigKey::figure1()
        })
        .unwrap();
        assert!(night_busy.mean() > day_busy.mean());
        assert!(day_idle.mean() > day_busy.mean());
        for &t in &[3.0, 12.0, 22.0] {
            assert!(night_busy.cdf(t) <= day_busy.cdf(t));
            assert!(day_idle.cdf(t) <= day_busy.cdf(t));
        }
    }

    #[test]
    fn zones_differ_moderately() {
        let mk = |zone| {
            TraceCatalog::ground_truth(&ConfigKey {
                zone,
                ..ConfigKey::figure1()
            })
            .unwrap()
        };
        let means: Vec<f64> = Zone::all().iter().map(|&z| mk(z).mean()).collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi > lo, "zones should differ");
        assert!(
            hi / lo < 1.5,
            "zone spread should be moderate, got {lo}..{hi}"
        );
    }

    #[test]
    fn scale_factors_are_positive_and_bounded() {
        for key in ConfigKey::all() {
            let f = TraceCatalog::scale_factor(&key);
            assert!(f > 0.2 && f < 2.5, "factor {f} for {key:?}");
        }
    }

    #[test]
    fn ground_truth_all_configs_valid() {
        for key in ConfigKey::all() {
            let d = TraceCatalog::ground_truth(&key).unwrap();
            tcp_dists::validate_cdf(&d, 100).unwrap();
            assert_eq!(d.upper_bound(), 24.0);
        }
    }

    #[test]
    fn figure1_ground_truth_shape() {
        // The Figure 1 configuration should keep the paper's qualitative shape:
        // ~35-45% preempted within 3 h, > 85% lifetime mass inside [0, 24].
        let d = TraceCatalog::ground_truth(&ConfigKey::figure1()).unwrap();
        let early = d.cdf(3.0);
        assert!(early > 0.3 && early < 0.5, "early = {early}");
        assert!(d.mean() > 5.0 && d.mean() < 18.0, "mean = {}", d.mean());
    }
}
