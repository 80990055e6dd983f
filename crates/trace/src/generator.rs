//! Synthetic preemption-trace generation.
//!
//! Draws datasets of [`PreemptionRecord`]s from the ground-truth processes in the
//! [`TraceCatalog`], standing in for the paper's two-month measurement campaign.  The
//! default study layout mirrors the paper: roughly 870 VMs spread over the VM-type, zone,
//! time-of-day and workload cells, with the Figure 1 configuration over-sampled (the paper
//! shows >100 preemption events for it).

use crate::catalog::{ConfigKey, TraceCatalog};
use crate::record::{PreemptionRecord, TimeOfDay, VmType, WorkloadKind, Zone};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcp_dists::LifetimeDistribution;
use tcp_numerics::{NumericsError, Result};

/// Synthetic dataset generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    catalog: TraceCatalog,
    rng: StdRng,
    launch_hours: bool,
}

impl TraceGenerator {
    /// Creates a generator with the default catalog and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        TraceGenerator {
            catalog: TraceCatalog::new(),
            rng: StdRng::seed_from_u64(seed),
            launch_hours: false,
        }
    }

    /// Makes generated records carry a local launch hour sampled uniformly inside
    /// their day/night bucket, enabling launch-hour calibration cells.  Off by default
    /// so hour-free datasets (and their RNG streams) are byte-identical to earlier
    /// releases.
    pub fn with_launch_hours(mut self, enabled: bool) -> Self {
        self.launch_hours = enabled;
        self
    }

    /// The catalog backing this generator.
    pub fn catalog(&self) -> &TraceCatalog {
        &self.catalog
    }

    /// A launch hour uniform over the bucket: day is 8 AM – 8 PM, night wraps around
    /// midnight (8 PM – 8 AM).
    fn sample_launch_hour(&mut self, time_of_day: TimeOfDay) -> u32 {
        let offset = self.rng.gen_range(0..12u32);
        match time_of_day {
            TimeOfDay::Day => 8 + offset,
            TimeOfDay::Night => (20 + offset) % 24,
        }
    }

    /// Generates `count` records for a single configuration cell.
    pub fn generate_for(&mut self, key: ConfigKey, count: usize) -> Result<Vec<PreemptionRecord>> {
        if count == 0 {
            return Err(NumericsError::invalid("count must be positive"));
        }
        let truth = self.catalog.ground_truth(&key)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let lifetime = truth.sample(&mut self.rng).clamp(0.0, 24.0);
            let mut record = PreemptionRecord::new(
                key.vm_type,
                key.zone,
                key.time_of_day,
                key.workload,
                lifetime,
            )
            .map_err(NumericsError::invalid)?;
            if self.launch_hours {
                let hour = self.sample_launch_hour(key.time_of_day);
                record = record
                    .with_launch_hour(hour)
                    .map_err(NumericsError::invalid)?;
            }
            out.push(record);
        }
        Ok(out)
    }

    /// Generates a dataset whose calibration-cell winners deliberately span the model
    /// families: one cell per ground-truth family (exponential, Weibull, phased,
    /// bathtub) with `per_cell` records each, plus a five-record runt cell that falls
    /// back to the empirical model.  Used by the CI smoke that exercises the
    /// generic-hazard DP on every family.
    pub fn generate_family_showcase(&mut self, per_cell: usize) -> Result<Vec<PreemptionRecord>> {
        use tcp_dists::phased::PhasedHazardParams;
        use tcp_dists::{ConstrainedBathtub, Exponential, PhasedHazard, Weibull};
        if per_cell < 10 {
            return Err(NumericsError::invalid(
                "family showcase needs at least 10 records per cell",
            ));
        }
        // A hazard with a hard drop at 3 h that the smooth bathtub form cannot track —
        // the phased candidate (which assumes exactly these boundaries) wins its cell
        // decisively instead of by luck.
        let sharp_phased = PhasedHazard::new(PhasedHazardParams {
            early_rate: 0.6,
            early_end: 3.0,
            stable_rate: 0.004,
            deadline_start: 22.0,
            deadline_base_rate: 0.6,
            deadline_acceleration: 2.2,
            horizon: 24.0,
        })?;
        let cells: Vec<(
            VmType,
            Zone,
            Box<dyn tcp_dists::LifetimeDistribution>,
            usize,
        )> = vec![
            (
                VmType::N1HighCpu2,
                Zone::UsCentral1C,
                Box::new(Exponential::new(1.0 / 6.0)?),
                per_cell,
            ),
            (
                VmType::N1HighCpu4,
                Zone::UsCentral1F,
                Box::new(Weibull::new(0.08, 1.7)?),
                per_cell,
            ),
            (
                VmType::N1HighCpu8,
                Zone::UsWest1A,
                Box::new(sharp_phased),
                per_cell,
            ),
            (
                VmType::N1HighCpu16,
                Zone::UsEast1B,
                Box::new(ConstrainedBathtub::from_parts(0.45, 1.0, 0.8, 24.0)?),
                per_cell,
            ),
            // Runt cell: too small for parametric fits, keeps the empirical fallback.
            (
                VmType::N1HighCpu32,
                Zone::UsEast1B,
                Box::new(PhasedHazard::representative()),
                5,
            ),
        ];
        let mut out = Vec::with_capacity(cells.iter().map(|c| c.3).sum());
        for (vm_type, zone, truth, count) in cells {
            for _ in 0..count {
                let lifetime = truth.sample(&mut self.rng).clamp(0.0, 24.0);
                let mut record = PreemptionRecord::new(
                    vm_type,
                    zone,
                    TimeOfDay::Day,
                    WorkloadKind::NonIdle,
                    lifetime,
                )
                .map_err(NumericsError::invalid)?;
                if self.launch_hours {
                    let hour = self.sample_launch_hour(TimeOfDay::Day);
                    record = record
                        .with_launch_hour(hour)
                        .map_err(NumericsError::invalid)?;
                }
                out.push(record);
            }
        }
        Ok(out)
    }

    /// Generates a full study resembling the paper's: `total` VMs (default 870) spread over
    /// all configuration cells, with the Figure 1 cell over-sampled so it has at least
    /// `figure1_minimum` observations.
    pub fn generate_study(
        &mut self,
        total: usize,
        figure1_minimum: usize,
    ) -> Result<Vec<PreemptionRecord>> {
        if total < figure1_minimum || figure1_minimum == 0 {
            return Err(NumericsError::invalid(
                "total must be at least figure1_minimum and both must be positive",
            ));
        }
        let mut records = Vec::with_capacity(total);
        records.extend(self.generate_for(ConfigKey::figure1(), figure1_minimum)?);

        let cells = ConfigKey::all();
        let remaining = total - figure1_minimum;
        for i in 0..remaining {
            // Round-robin over the cells with a random jitter so cell counts are uneven,
            // like a real measurement campaign.
            let idx = (i + self.rng.gen_range(0..cells.len())) % cells.len();
            records.extend(self.generate_for(cells[idx], 1)?);
        }
        Ok(records)
    }

    /// Generates records for a sweep over VM types in a fixed zone (Figure 2a layout).
    pub fn generate_vm_type_sweep(
        &mut self,
        zone: Zone,
        per_type: usize,
    ) -> Result<Vec<PreemptionRecord>> {
        let mut out = Vec::new();
        for vm_type in VmType::all() {
            let key = ConfigKey {
                vm_type,
                zone,
                time_of_day: TimeOfDay::Day,
                workload: WorkloadKind::NonIdle,
            };
            out.extend(self.generate_for(key, per_type)?);
        }
        Ok(out)
    }

    /// Generates records for a sweep over zones for a fixed VM type (Figure 2c layout).
    pub fn generate_zone_sweep(
        &mut self,
        vm_type: VmType,
        per_zone: usize,
    ) -> Result<Vec<PreemptionRecord>> {
        let mut out = Vec::new();
        for zone in Zone::all() {
            let key = ConfigKey {
                vm_type,
                zone,
                time_of_day: TimeOfDay::Day,
                workload: WorkloadKind::NonIdle,
            };
            out.extend(self.generate_for(key, per_zone)?);
        }
        Ok(out)
    }

    /// Generates records for the day/night × idle/non-idle sweep (Figure 2b layout).
    pub fn generate_diurnal_sweep(
        &mut self,
        vm_type: VmType,
        zone: Zone,
        per_cell: usize,
    ) -> Result<Vec<PreemptionRecord>> {
        let mut out = Vec::new();
        for time_of_day in TimeOfDay::all() {
            for workload in WorkloadKind::all() {
                let key = ConfigKey {
                    vm_type,
                    zone,
                    time_of_day,
                    workload,
                };
                out.extend(self.generate_for(key, per_cell)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_for_respects_count_and_constraint() {
        let mut gen = TraceGenerator::new(1);
        let recs = gen.generate_for(ConfigKey::figure1(), 200).unwrap();
        assert_eq!(recs.len(), 200);
        assert!(recs
            .iter()
            .all(|r| (0.0..=24.0).contains(&r.lifetime_hours)));
        assert!(recs.iter().all(|r| r.vm_type == VmType::N1HighCpu16));
        assert!(gen.generate_for(ConfigKey::figure1(), 0).is_err());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = TraceGenerator::new(7);
        let mut b = TraceGenerator::new(7);
        let ra = a.generate_for(ConfigKey::figure1(), 50).unwrap();
        let rb = b.generate_for(ConfigKey::figure1(), 50).unwrap();
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.lifetime_hours, y.lifetime_hours);
        }
        let mut c = TraceGenerator::new(8);
        let rc = c.generate_for(ConfigKey::figure1(), 50).unwrap();
        assert!(ra
            .iter()
            .zip(&rc)
            .any(|(x, y)| x.lifetime_hours != y.lifetime_hours));
    }

    #[test]
    fn paper_study_size_and_composition() {
        let mut gen = TraceGenerator::new(2020);
        // The paper-sized study: 870 VMs, at least 120 in the Figure 1 cell.
        let recs = gen.generate_study(870, 120).unwrap();
        assert_eq!(recs.len(), 870);
        let fig1 = recs
            .iter()
            .filter(|r| {
                r.vm_type == VmType::N1HighCpu16
                    && r.zone == Zone::UsEast1B
                    && r.time_of_day == TimeOfDay::Day
                    && r.workload == WorkloadKind::NonIdle
            })
            .count();
        assert!(fig1 >= 120, "figure-1 cell has {fig1} records");
        // every VM type appears
        for vm_type in VmType::all() {
            assert!(
                recs.iter().any(|r| r.vm_type == vm_type),
                "{vm_type} missing"
            );
        }
    }

    #[test]
    fn launch_hours_are_opt_in_and_consistent() {
        // Default: no hours, and the RNG stream matches earlier releases exactly.
        let mut plain = TraceGenerator::new(77);
        let without = plain.generate_for(ConfigKey::figure1(), 40).unwrap();
        assert!(without.iter().all(|r| r.launch_hour.is_none()));
        // Opt-in: every record carries an hour consistent with its day/night bucket.
        let mut hours = TraceGenerator::new(77).with_launch_hours(true);
        let with = hours.generate_for(ConfigKey::figure1(), 40).unwrap();
        for r in &with {
            let hour = r.launch_hour.expect("hour requested");
            assert_eq!(crate::TimeOfDay::from_hour(hour), r.time_of_day);
        }
        let mut night = TraceGenerator::new(3).with_launch_hours(true);
        let night_key = ConfigKey {
            time_of_day: TimeOfDay::Night,
            ..ConfigKey::figure1()
        };
        for r in night.generate_for(night_key, 40).unwrap() {
            let hour = r.launch_hour.unwrap();
            assert!(!(8..20).contains(&hour), "night hour {hour}");
        }
    }

    #[test]
    fn family_showcase_layout() {
        let mut gen = TraceGenerator::new(5);
        let records = gen.generate_family_showcase(80).unwrap();
        assert_eq!(records.len(), 4 * 80 + 5);
        // Four well-sampled cells plus the five-record runt.
        let count = |vm: VmType| records.iter().filter(|r| r.vm_type == vm).count();
        assert_eq!(count(VmType::N1HighCpu2), 80);
        assert_eq!(count(VmType::N1HighCpu32), 5);
        assert!(records
            .iter()
            .all(|r| (0.0..=24.0).contains(&r.lifetime_hours)));
        assert!(gen.generate_family_showcase(5).is_err());
    }

    #[test]
    fn study_argument_validation() {
        let mut gen = TraceGenerator::new(3);
        assert!(gen.generate_study(10, 20).is_err());
        assert!(gen.generate_study(10, 0).is_err());
    }

    #[test]
    fn vm_type_sweep_reproduces_size_ordering() {
        // Figure 2a: larger VMs should show shorter average lifetimes in the sampled data.
        let mut gen = TraceGenerator::new(42);
        let recs = gen.generate_vm_type_sweep(Zone::UsCentral1C, 400).unwrap();
        let mean_of = |vm: VmType| {
            let v: Vec<f64> = recs
                .iter()
                .filter(|r| r.vm_type == vm)
                .map(|r| r.lifetime_hours)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let small = mean_of(VmType::N1HighCpu2);
        let large = mean_of(VmType::N1HighCpu32);
        assert!(small > large, "small {small} should outlive large {large}");
    }

    #[test]
    fn diurnal_sweep_covers_all_cells() {
        let mut gen = TraceGenerator::new(5);
        let recs = gen
            .generate_diurnal_sweep(VmType::N1HighCpu16, Zone::UsEast1B, 30)
            .unwrap();
        assert_eq!(recs.len(), 4 * 30);
        for tod in TimeOfDay::all() {
            for wk in WorkloadKind::all() {
                assert!(recs
                    .iter()
                    .any(|r| r.time_of_day == tod && r.workload == wk));
            }
        }
    }

    #[test]
    fn zone_sweep_covers_all_zones() {
        let mut gen = TraceGenerator::new(6);
        let recs = gen.generate_zone_sweep(VmType::N1HighCpu16, 25).unwrap();
        assert_eq!(recs.len(), 4 * 25);
        for zone in Zone::all() {
            assert_eq!(recs.iter().filter(|r| r.zone == zone).count(), 25);
        }
    }
}
