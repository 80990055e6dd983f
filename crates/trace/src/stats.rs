//! Per-group statistics over preemption datasets.
//!
//! The figures in Section 3 are all "empirical CDF per group" plots; this module provides
//! the grouping and summary machinery that the figure harness and the model registry use.

use crate::catalog::ConfigKey;
use crate::record::{PreemptionRecord, TimeOfDay, VmType, WorkloadKind, Zone};
use std::collections::BTreeMap;
use tcp_numerics::stats::{summarize, Summary};
use tcp_numerics::{NumericsError, Result};

/// The grouping dimensions supported when splitting a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// Group by machine type (Figure 2a).
    VmType,
    /// Group by zone (Figure 2c).
    Zone,
    /// Group by time of day (Figure 2b).
    TimeOfDay,
    /// Group by workload kind (Figure 2b).
    Workload,
}

fn config_label(key: &ConfigKey, by: GroupBy) -> String {
    match by {
        GroupBy::VmType => key.vm_type.to_string(),
        GroupBy::Zone => key.zone.to_string(),
        GroupBy::TimeOfDay => key.time_of_day.to_string(),
        GroupBy::Workload => key.workload.to_string(),
    }
}

/// A one-pass group index over a dataset.
///
/// Every grouping and filtering query used by the figure harness previously re-scanned
/// the full record list per group (`O(n · groups)`); the index buckets lifetimes by full
/// configuration cell in a single pass, after which any group, partial filter or
/// per-cell query only touches the (few) matching cells.
#[derive(Debug, Clone, Default)]
pub struct GroupIndex {
    cells: BTreeMap<ConfigKey, Vec<f64>>,
}

impl GroupIndex {
    /// Builds the index in one pass over the records; each cell's lifetimes end up
    /// sorted ascending.
    pub fn build(records: &[PreemptionRecord]) -> Self {
        let mut cells: BTreeMap<ConfigKey, Vec<f64>> = BTreeMap::new();
        for r in records {
            let key = ConfigKey {
                vm_type: r.vm_type,
                zone: r.zone,
                time_of_day: r.time_of_day,
                workload: r.workload,
            };
            cells.entry(key).or_default().push(r.lifetime_hours);
        }
        for v in cells.values_mut() {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }
        GroupIndex { cells }
    }

    /// Sorted lifetimes matching a partial filter (any `None` dimension matches
    /// everything).  Only the matching cells are touched.
    pub fn matching(
        &self,
        vm_type: Option<VmType>,
        zone: Option<Zone>,
        time_of_day: Option<TimeOfDay>,
        workload: Option<WorkloadKind>,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        for (key, lifetimes) in &self.cells {
            if vm_type.is_none_or(|v| key.vm_type == v)
                && zone.is_none_or(|z| key.zone == z)
                && time_of_day.is_none_or(|t| key.time_of_day == t)
                && workload.is_none_or(|w| key.workload == w)
            {
                out.extend_from_slice(lifetimes);
            }
        }
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    /// Groups lifetimes along one dimension, returning `label -> sorted lifetimes`.
    pub fn group(&self, by: GroupBy) -> BTreeMap<String, Vec<f64>> {
        let mut map: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (key, lifetimes) in &self.cells {
            map.entry(config_label(key, by))
                .or_default()
                .extend_from_slice(lifetimes);
        }
        for v in map.values_mut() {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }
        map
    }
}

/// Dataset-level summary used by reports and the README quickstart.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// Number of records.
    pub count: usize,
    /// Summary statistics of all lifetimes.
    pub lifetime: Summary,
    /// Fraction of VMs preempted before the 24 h deadline (vs reclaimed at the deadline).
    pub preempted_before_deadline_fraction: f64,
    /// Fraction preempted within the first 3 hours (the "early phase" of Observation 1).
    pub early_phase_fraction: f64,
    /// Per-VM-type mean lifetimes.
    pub mean_lifetime_by_vm_type: BTreeMap<String, f64>,
}

impl DatasetSummary {
    /// Computes a summary over a non-empty dataset.
    pub fn compute(records: &[PreemptionRecord]) -> Result<Self> {
        if records.is_empty() {
            return Err(NumericsError::invalid("cannot summarize an empty dataset"));
        }
        let lifetimes: Vec<f64> = records.iter().map(|r| r.lifetime_hours).collect();
        let lifetime = summarize(&lifetimes)?;
        let preempted = records
            .iter()
            .filter(|r| r.preempted_before_deadline)
            .count();
        let early = records.iter().filter(|r| r.lifetime_hours <= 3.0).count();
        let mut by_type: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for r in records {
            let e = by_type.entry(r.vm_type.to_string()).or_insert((0.0, 0));
            e.0 += r.lifetime_hours;
            e.1 += 1;
        }
        let mean_lifetime_by_vm_type = by_type
            .into_iter()
            .map(|(k, (sum, n))| (k, sum / n as f64))
            .collect();
        Ok(DatasetSummary {
            count: records.len(),
            lifetime,
            preempted_before_deadline_fraction: preempted as f64 / records.len() as f64,
            early_phase_fraction: early as f64 / records.len() as f64,
            mean_lifetime_by_vm_type,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use tcp_numerics::stats::Ecdf;

    /// The sorted lifetimes of one full configuration cell.
    fn cell(index: &GroupIndex, key: &ConfigKey) -> Vec<f64> {
        index.matching(
            Some(key.vm_type),
            Some(key.zone),
            Some(key.time_of_day),
            Some(key.workload),
        )
    }

    fn study() -> Vec<PreemptionRecord> {
        TraceGenerator::new(11).generate_study(600, 100).unwrap()
    }

    #[test]
    fn grouping_covers_all_records() {
        let records = study();
        for by in [
            GroupBy::VmType,
            GroupBy::Zone,
            GroupBy::TimeOfDay,
            GroupBy::Workload,
        ] {
            let groups = GroupIndex::build(&records).group(by);
            let total: usize = groups.values().map(|v| v.len()).sum();
            assert_eq!(total, records.len());
            for v in groups.values() {
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "lifetimes sorted");
            }
        }
    }

    #[test]
    fn config_filter_matches_manual_count() {
        let records = study();
        let key = ConfigKey::figure1();
        let filtered = cell(&GroupIndex::build(&records), &key);
        let manual = records
            .iter()
            .filter(|r| {
                r.vm_type == key.vm_type
                    && r.zone == key.zone
                    && r.time_of_day == key.time_of_day
                    && r.workload == key.workload
            })
            .count();
        assert_eq!(filtered.len(), manual);
        assert!(filtered.len() >= 100);
    }

    #[test]
    fn partial_filter_is_superset_of_full_filter() {
        let records = study();
        let key = ConfigKey::figure1();
        let index = GroupIndex::build(&records);
        let full = cell(&index, &key);
        let partial = index.matching(Some(key.vm_type), Some(key.zone), None, None);
        assert!(partial.len() >= full.len());
        let all = index.matching(None, None, None, None);
        assert_eq!(all.len(), records.len());
    }

    #[test]
    fn dataset_summary_sane() {
        let records = study();
        let summary = DatasetSummary::compute(&records).unwrap();
        assert_eq!(summary.count, records.len());
        assert!(summary.lifetime.mean > 0.0 && summary.lifetime.mean < 24.0);
        assert!(summary.preempted_before_deadline_fraction > 0.5);
        assert!(summary.early_phase_fraction > 0.15 && summary.early_phase_fraction < 0.6);
        assert!(!summary.mean_lifetime_by_vm_type.is_empty());
        assert!(DatasetSummary::compute(&[]).is_err());
    }

    #[test]
    fn index_agrees_with_direct_scans() {
        let records = study();
        let index = GroupIndex::build(&records);
        assert_eq!(index.matching(None, None, None, None).len(), records.len());
        // Full-cell query agrees with a manual scan.
        let key = ConfigKey::figure1();
        let mut manual: Vec<f64> = records
            .iter()
            .filter(|r| {
                r.vm_type == key.vm_type
                    && r.zone == key.zone
                    && r.time_of_day == key.time_of_day
                    && r.workload == key.workload
            })
            .map(|r| r.lifetime_hours)
            .collect();
        manual.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(cell(&index, &key), manual);
        // Partial filters cover exactly the records a scan would keep.
        for vm in VmType::all() {
            let got = index.matching(Some(vm), None, None, None);
            let want = records.iter().filter(|r| r.vm_type == vm).count();
            assert_eq!(got.len(), want);
            assert!(got.windows(2).all(|w| w[0] <= w[1]));
        }
        // An empty index answers with no lifetimes, not a panic.
        let empty = GroupIndex::build(&[]);
        assert!(empty.matching(None, None, None, None).is_empty());
    }

    #[test]
    fn group_ecdf_valid() {
        let records = study();
        let groups = GroupIndex::build(&records).group(GroupBy::VmType);
        for (_, lifetimes) in groups {
            let ecdf = Ecdf::new(&lifetimes).unwrap();
            assert_eq!(ecdf.len(), lifetimes.len());
            assert!(ecdf.eval(24.0) >= 1.0 - 1e-12);
        }
        assert!(Ecdf::new(&[]).is_err());
    }
}
