//! The streaming calibration pipeline.
//!
//! [`CellPartition`] ingests records one at a time (or from any iterator) and buckets
//! their lifetimes into calibration cells in a single pass — no per-group re-scan of the
//! dataset.  [`Calibrator`] then fans the per-cell fitting out over the workspace's
//! work-stealing driver ([`tcp_cloudsim::run_tasks`]): the task list is `pooled` plus
//! the cells in canonical (sorted) order, results are collected in task order, and the
//! fitting itself is randomness-free — so the emitted catalog is byte-identical for
//! every thread count.
//!
//! Both stages are timed into the process-global [`tcp_obs`] registry
//! (`calibrate.stage.bucketing`, `calibrate.stage.fitting`; winner selection is timed
//! per cell inside [`fit_cell`]).  Instrumentation is strictly out-of-band: the catalog
//! bytes never depend on whether metrics are enabled.

use crate::catalog::{CellFit, RegimeCatalog, CATALOG_FORMAT_VERSION, POOLED_CELL};
use crate::cell::{CellKey, TodSlot, MISSING_LAUNCH_HOUR};
use crate::fit::{fit_cell, FitOptions, FitOutcome};
use tcp_cloudsim::run_tasks;
use tcp_numerics::{NumericsError, Result};
use tcp_trace::{PreemptionRecord, TimeOfDay, VmType, Zone};

/// Zones per VM type in the slot layout (`Zone::all().len()`).
const ZONES: usize = 4;

/// One-pass partition of a record stream into calibration cells.
///
/// Cells live in dense slots, one per possible cell, indexed
/// `(vm_type · 4 + zone) · S + tod_slot` where `S` is the number of time-of-day slots
/// (2 for day/night, `24 / width` for launch-hour cells).  Both enums index in their
/// declaration order, which is also their derived order, so slot order is
/// [`CellKey`] order.
#[derive(Debug, Clone)]
pub struct CellPartition {
    /// Lifetimes per slot, insertion order.
    cells: Vec<Vec<f64>>,
    /// Deadline survivals per slot.
    censored: Vec<usize>,
    total: usize,
    /// Launch-hour cell width (`None` = the paper's day/night split).
    tod_hours: Option<u32>,
}

impl Default for CellPartition {
    fn default() -> Self {
        Self::with_slots(None)
    }
}

impl CellPartition {
    /// Creates an empty partition over the day/night split.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty partition over launch-hour cells of `width` hours
    /// (`calibrate fit --tod-hours N`); `width` must divide 24.
    pub fn with_tod_hours(width: u32) -> Result<Self> {
        if width == 0 || width >= 24 || 24 % width != 0 {
            return Err(NumericsError::invalid(format!(
                "tod_hours must divide 24 and lie in [1, 23], got {width}"
            )));
        }
        Ok(Self::with_slots(Some(width)))
    }

    fn with_slots(tod_hours: Option<u32>) -> Self {
        let slots = VmType::all().len() * ZONES * Self::tod_slots(tod_hours);
        CellPartition {
            cells: vec![Vec::new(); slots],
            censored: vec![0; slots],
            total: 0,
            tod_hours,
        }
    }

    /// Time-of-day slots per (VM type, zone).
    fn tod_slots(tod_hours: Option<u32>) -> usize {
        match tod_hours {
            None => TimeOfDay::all().len(),
            Some(width) => (24 / width) as usize,
        }
    }

    /// The slot of a (VM type, zone) pair and time-of-day slot index.
    fn slot(&self, vm_type: VmType, zone: Zone, tod: usize) -> usize {
        (vm_type as usize * ZONES + zone as usize) * Self::tod_slots(self.tod_hours) + tod
    }

    /// The slot of a cell key; `None` for a key this partition's split cannot hold.
    fn slot_of(&self, key: &CellKey) -> Option<usize> {
        let tod = match (key.time_of_day, self.tod_hours) {
            (TodSlot::Named(tod), None) => tod as usize,
            (TodSlot::Hours { start, width }, Some(w))
                if width == w && start % w == 0 && start < 24 =>
            {
                (start / w) as usize
            }
            _ => return None,
        };
        Some(self.slot(key.vm_type, key.zone, tod))
    }

    /// The cell key of a slot.
    fn key_of(&self, slot: usize) -> CellKey {
        let tod_slots = Self::tod_slots(self.tod_hours);
        let (pair, tod) = (slot / tod_slots, slot % tod_slots);
        CellKey {
            vm_type: VmType::all()[pair / ZONES],
            zone: Zone::all()[pair % ZONES],
            time_of_day: match self.tod_hours {
                None => TodSlot::Named(TimeOfDay::all()[tod]),
                Some(width) => TodSlot::hour_bucket(tod as u32 * width, width),
            },
        }
    }

    /// The slot of the cell a record falls into.  Fails only in launch-hour mode, when
    /// the record carries no launch hour.
    fn record_slot(&self, record: &PreemptionRecord) -> Result<usize> {
        let tod = match self.tod_hours {
            None => record.time_of_day as usize,
            Some(width) => {
                let hour = record
                    .launch_hour
                    .ok_or_else(|| NumericsError::invalid(MISSING_LAUNCH_HOUR))?;
                ((hour % 24) / width) as usize
            }
        };
        Ok(self.slot(record.vm_type, record.zone, tod))
    }

    /// Ingests one record.  Fails only in launch-hour mode, when a record carries no
    /// launch hour.
    pub fn push(&mut self, record: &PreemptionRecord) -> Result<()> {
        let slot = self.record_slot(record)?;
        self.cells[slot].push(record.lifetime_hours);
        if !record.preempted_before_deadline {
            self.censored[slot] += 1;
        }
        self.total += 1;
        Ok(())
    }

    /// Builds a partition honouring an optional launch-hour split.  The records are
    /// counted per cell first, so each cell is allocated once at its exact size.
    pub fn from_records_with(records: &[PreemptionRecord], tod_hours: Option<u32>) -> Result<Self> {
        let mut partition = match tod_hours {
            None => Self::new(),
            Some(width) => Self::with_tod_hours(width)?,
        };
        let mut counts = vec![0; partition.cells.len()];
        for record in records {
            counts[partition.record_slot(record)?] += 1;
        }
        for (cell, count) in partition.cells.iter_mut().zip(counts) {
            cell.reserve_exact(count);
        }
        for record in records {
            partition.push(record)?;
        }
        Ok(partition)
    }

    /// Total records ingested.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The non-empty cells in canonical (sorted) order.
    pub fn keys(&self) -> Vec<CellKey> {
        (0..self.cells.len())
            .filter(|&slot| !self.cells[slot].is_empty())
            .map(|slot| self.key_of(slot))
            .collect()
    }

    /// The lifetimes of one cell (insertion order).
    pub fn lifetimes(&self, key: &CellKey) -> &[f64] {
        self.slot_of(key).map_or(&[], |slot| &self.cells[slot])
    }

    /// The deadline survivals of one cell.
    fn censored(&self, key: &CellKey) -> usize {
        self.slot_of(key).map_or(0, |slot| self.censored[slot])
    }
}

/// The calibration driver: partition + parallel per-cell fitting + catalog assembly.
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// Catalog name.
    pub name: String,
    /// Fitting and selection knobs.
    pub options: FitOptions,
}

impl Calibrator {
    /// Creates a calibrator with default options.
    pub fn new(name: impl Into<String>) -> Self {
        Calibrator {
            name: name.into(),
            options: FitOptions::default(),
        }
    }

    fn cell_fit(
        &self,
        name: String,
        key: Option<CellKey>,
        lifetimes: &[f64],
        censored: usize,
        outcome: FitOutcome,
    ) -> CellFit {
        CellFit {
            cell: name,
            vm_type: key.map(|k| k.vm_type),
            zone: key.map(|k| k.zone),
            time_of_day: key.map(|k| k.time_of_day),
            records: lifetimes.len(),
            deadline_survivals: censored,
            mean_lifetime_hours: lifetimes.iter().sum::<f64>() / lifetimes.len() as f64,
            candidates: outcome.candidates,
            selection: outcome.selection,
            model: outcome.model,
        }
    }

    /// Calibrates a partitioned dataset on `threads` worker threads (`0` = all CPUs).
    ///
    /// `source` describes where the records came from (CSV path, generator seed) and is
    /// recorded verbatim in the catalog header.
    pub fn calibrate_partition(
        &self,
        partition: &CellPartition,
        source: &str,
        threads: usize,
    ) -> Result<RegimeCatalog> {
        self.options.validate()?;
        if partition.total() == 0 {
            return Err(NumericsError::invalid("cannot calibrate an empty dataset"));
        }
        let keys = partition.keys();
        let mut pooled = Vec::with_capacity(partition.total());
        for key in &keys {
            pooled.extend_from_slice(partition.lifetimes(key));
        }
        let pooled_censored: usize = partition.censored.iter().sum();

        // Task 0 fits the pooled distribution; tasks 1.. fit the cells in sorted order.
        // Collection is in task order, and fitting is deterministic, so the catalog
        // bytes do not depend on the thread count.
        let outcomes: Vec<Result<FitOutcome>> = {
            let _fitting = tcp_obs::time!("calibrate.stage.fitting");
            run_tasks(keys.len() + 1, threads, |task| {
                // One trace per cell fit, rooted inside the worker closure so it
                // lands on whichever thread runs the task; the seed is the task
                // index, so sampling is deterministic for a given partition.  Inert
                // unless tracing is configured.
                let _cell_trace = tcp_obs::root_span!("calibrate.cell", task as u64, task as u64);
                match task {
                    0 => fit_cell(&pooled, &self.options),
                    i => fit_cell(partition.lifetimes(&keys[i - 1]), &self.options),
                }
            })
        };
        let mut outcomes = outcomes.into_iter();
        let pooled_outcome = outcomes
            .next()
            .expect("pooled task always present")
            .map_err(|e| NumericsError::invalid(format!("pooled fit failed: {e}")))?;
        let pooled_fit = self.cell_fit(
            POOLED_CELL.to_string(),
            None,
            &pooled,
            pooled_censored,
            pooled_outcome,
        );

        let mut cells = Vec::with_capacity(keys.len());
        for (key, outcome) in keys.iter().zip(outcomes) {
            let outcome = outcome
                .map_err(|e| NumericsError::invalid(format!("cell `{key}` fit failed: {e}")))?;
            cells.push(self.cell_fit(
                key.to_string(),
                Some(*key),
                partition.lifetimes(key),
                partition.censored(key),
                outcome,
            ));
        }

        let catalog = RegimeCatalog {
            format_version: CATALOG_FORMAT_VERSION,
            name: self.name.clone(),
            source: source.to_string(),
            horizon_hours: self.options.horizon_hours,
            total_records: partition.total(),
            options: self.options,
            pooled: pooled_fit,
            cells,
        };
        catalog.validate()?;
        Ok(catalog)
    }

    /// Calibrates a dataset of records (partitioning in one pass first), honouring the
    /// options' launch-hour split.
    pub fn calibrate(
        &self,
        records: &[PreemptionRecord],
        source: &str,
        threads: usize,
    ) -> Result<RegimeCatalog> {
        let partition = {
            let _bucketing = tcp_obs::time!("calibrate.stage.bucketing");
            let _span = tcp_obs::span!("calibrate.bucket");
            CellPartition::from_records_with(records, self.options.tod_hours)?
        };
        self.calibrate_partition(&partition, source, threads)
    }

    /// Calibrates a preemption CSV (the [`tcp_trace`] schema).
    ///
    /// The catalog's `source` records `path` exactly as given (`path.display()`, not
    /// canonicalised), so one CSV fitted through two spellings of its path gives two
    /// catalogs that differ in that field.  A byte-identity check on catalogs must fit
    /// from a fixed path, e.g. the same repo-relative path from the same directory.
    pub fn calibrate_csv(&self, path: &std::path::Path, threads: usize) -> Result<RegimeCatalog> {
        let records = {
            let _span = tcp_obs::span!("calibrate.csv");
            tcp_trace::load_records_csv(path)?
        };
        self.calibrate(&records, &path.display().to_string(), threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tcp_trace::TraceGenerator;

    fn study(total: usize, seed: u64) -> Vec<PreemptionRecord> {
        TraceGenerator::new(seed).generate_study(total, 60).unwrap()
    }

    #[test]
    fn partition_covers_every_record_in_one_pass() {
        let records = study(500, 1);
        let partition = CellPartition::from_records_with(&records, None).unwrap();
        assert_eq!(partition.total(), 500);
        let sum: usize = partition
            .keys()
            .iter()
            .map(|k| partition.lifetimes(k).len())
            .sum();
        assert_eq!(sum, 500);
        // Keys come out sorted.
        let keys = partition.keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    /// The `BTreeMap` partition the dense slots replaced, keyed by `CellKey::of_with`:
    /// lifetimes and deadline survivals per cell.
    fn btree_partition(
        records: &[PreemptionRecord],
        tod_hours: Option<u32>,
    ) -> (BTreeMap<CellKey, Vec<f64>>, BTreeMap<CellKey, usize>) {
        let mut cells: BTreeMap<CellKey, Vec<f64>> = BTreeMap::new();
        let mut censored: BTreeMap<CellKey, usize> = BTreeMap::new();
        for record in records {
            let key = CellKey::of_with(record, tod_hours).unwrap();
            cells.entry(key).or_default().push(record.lifetime_hours);
            if !record.preempted_before_deadline {
                *censored.entry(key).or_default() += 1;
            }
        }
        (cells, censored)
    }

    #[test]
    fn dense_slots_match_a_btreemap_partition() {
        let mut generator = TraceGenerator::new(13).with_launch_hours(true);
        for total in [40, 3000] {
            let records = generator.generate_study(total, 20).unwrap();
            for tod_hours in [
                None,
                Some(1),
                Some(2),
                Some(3),
                Some(4),
                Some(6),
                Some(8),
                Some(12),
            ] {
                let dense = CellPartition::from_records_with(&records, tod_hours).unwrap();
                let (cells, censored) = btree_partition(&records, tod_hours);
                let keys: Vec<CellKey> = cells.keys().copied().collect();
                assert_eq!(dense.keys(), keys, "{tod_hours:?}");
                assert_eq!(dense.total(), total);
                for (key, lifetimes) in &cells {
                    assert_eq!(dense.lifetimes(key), &lifetimes[..], "{key}");
                    assert_eq!(dense.censored(key), censored.get(key).copied().unwrap_or(0));
                }
                assert_eq!(
                    dense.censored.iter().sum::<usize>(),
                    censored.values().sum::<usize>()
                );
                // Each cell was allocated once, at its exact size.
                assert!(dense.cells.iter().all(|cell| cell.capacity() == cell.len()));
                // Keys of every split: a key the BTreeMap lacks has no lifetimes.
                let probes = CellKey::all().into_iter().flat_map(|key| {
                    [1, 2, 3, 4, 5, 6, 8, 12]
                        .into_iter()
                        .flat_map(move |width| {
                            (0..30).map(move |start| CellKey {
                                time_of_day: TodSlot::Hours { start, width },
                                ..key
                            })
                        })
                });
                for key in CellKey::all().into_iter().chain(probes) {
                    let want = cells.get(&key).map_or(&[][..], Vec::as_slice);
                    assert_eq!(dense.lifetimes(&key), want, "{key}");
                    assert_eq!(
                        dense.censored(&key),
                        censored.get(&key).copied().unwrap_or(0)
                    );
                }
            }
        }
    }

    #[test]
    fn launch_hour_cells_partition_finer_than_day_night() {
        let records: Vec<_> = TraceGenerator::new(9)
            .with_launch_hours(true)
            .generate_study(600, 60)
            .unwrap();
        // Day/night keys are untouched by the finer mode existing.
        let coarse = CellPartition::from_records_with(&records, None).unwrap();
        assert!(coarse
            .keys()
            .iter()
            .all(|k| matches!(k.time_of_day, crate::TodSlot::Named(_))));
        // Hour cells: every key is an aligned 6-hour bucket, totals preserved.
        let fine = CellPartition::from_records_with(&records, Some(6)).unwrap();
        assert_eq!(fine.total(), coarse.total());
        for key in fine.keys() {
            let crate::TodSlot::Hours { start, width } = key.time_of_day else {
                panic!("expected hour cells, got {key}");
            };
            assert_eq!(width, 6);
            assert_eq!(start % 6, 0);
        }
        assert!(fine.keys().len() >= coarse.keys().len());
        // Hour mode on an hour-free dataset is a descriptive error.
        let plain = TraceGenerator::new(9).generate_study(50, 10).unwrap();
        let err = CellPartition::from_records_with(&plain, Some(6)).unwrap_err();
        assert!(err.to_string().contains("launch_hour"), "{err}");
        // Invalid widths are rejected.
        assert!(CellPartition::with_tod_hours(0).is_err());
        assert!(CellPartition::with_tod_hours(5).is_err());
        assert!(CellPartition::with_tod_hours(24).is_err());
    }

    #[test]
    fn launch_hour_catalog_calibrates_end_to_end() {
        let records: Vec<_> = TraceGenerator::new(21)
            .with_launch_hours(true)
            .generate_study(900, 80)
            .unwrap();
        let mut calibrator = Calibrator::new("hours");
        calibrator.options.tod_hours = Some(8);
        let catalog = calibrator.calibrate(&records, "synthetic", 0).unwrap();
        assert_eq!(catalog.total_records, 900);
        assert!(catalog
            .cells
            .iter()
            .all(|c| c.cell.contains("/h") && c.cell.len() > 3));
        // Round-trips through JSON (hour slots serialize as h08-16 style strings).
        let json = catalog.to_json().unwrap();
        let reparsed = crate::RegimeCatalog::from_json(&json).unwrap();
        assert_eq!(reparsed, catalog);
        // Thread-count invariance holds for hour cells too.
        let four = calibrator.calibrate(&records, "synthetic", 4).unwrap();
        assert_eq!(four.to_json().unwrap(), json);
    }

    #[test]
    fn calibration_produces_a_valid_catalog() {
        let records = study(700, 2);
        let catalog = Calibrator::new("test")
            .calibrate(&records, "synthetic seed 2", 0)
            .unwrap();
        assert_eq!(catalog.total_records, 700);
        assert_eq!(catalog.pooled.records, 700);
        assert!(!catalog.cells.is_empty());
        assert!(catalog.validate().is_ok());
        // The pooled fit has plenty of data, so parametric candidates exist and the
        // bathtub policy model is available.
        assert!(!catalog.pooled.candidates.is_empty());
        assert!(catalog.pooled.bathtub_model().is_some());
        // Figure-1 cell is oversampled, so it gets a parametric fit too.
        let fig1 = catalog.find("n1-highcpu-16/us-east1-b/day").unwrap();
        assert!(fig1.records >= 60);
        assert!(!fig1.candidates.is_empty());
    }

    #[test]
    fn catalogs_are_thread_count_invariant() {
        let records = study(600, 3);
        let calibrator = Calibrator::new("det");
        let one = calibrator.calibrate(&records, "s", 1).unwrap();
        let four = calibrator.calibrate(&records, "s", 4).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.to_json().unwrap(), four.to_json().unwrap());
    }

    #[test]
    fn calibration_times_stages_and_counts_winners_in_the_registry() {
        fn stage_count(name: &str) -> u64 {
            tcp_obs::Registry::global()
                .histogram_snapshot(name)
                .map(|s| s.count)
                .unwrap_or(0)
        }
        fn winner_total() -> u64 {
            ["bathtub", "weibull", "exponential", "phased", "empirical"]
                .iter()
                .map(|f| tcp_obs::counter(&format!("calibrate.fit.winner.{f}")).get())
                .sum()
        }
        let records = study(500, 8);
        let bucketing = stage_count("calibrate.stage.bucketing");
        let fitting = stage_count("calibrate.stage.fitting");
        let selection = stage_count("calibrate.stage.winner_selection");
        let winners = winner_total();
        let catalog = Calibrator::new("obs").calibrate(&records, "s", 0).unwrap();
        // Registry state is process-global and other tests calibrate concurrently, so
        // assert this run's minimum contribution, not exact totals.
        let fits = catalog.cells.len() as u64 + 1;
        assert!(stage_count("calibrate.stage.bucketing") > bucketing);
        assert!(stage_count("calibrate.stage.fitting") > fitting);
        assert!(stage_count("calibrate.stage.winner_selection") >= selection + fits);
        assert!(winner_total() >= winners + fits);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        assert!(Calibrator::new("x").calibrate(&[], "s", 1).is_err());
    }

    #[test]
    fn catalog_json_round_trips_exactly() {
        let records = study(400, 4);
        let catalog = Calibrator::new("rt").calibrate(&records, "s", 2).unwrap();
        let json = catalog.to_json().unwrap();
        let parsed = RegimeCatalog::from_json(&json).unwrap();
        assert_eq!(parsed, catalog);
        assert_eq!(parsed.to_json().unwrap(), json);
    }
}
