//! The offline table builder: sweep spec in, [`ModelPack`] out.
//!
//! Reuses the scenario-sweep vocabulary end to end: the pack's regimes are the spec's
//! `[[regime]]` tables (distribution family, pricing, provisioning), its checkpoint
//! cells follow the spec's `workload.checkpoint_cost_minutes` axis, and fitted models
//! come from the same seeded pipeline as the sweep runner
//! ([`tcp_scenarios::regime_model`]) — so an `advise build` pack and a `sweep` run over
//! the same spec answer from byte-identical models.

use crate::error::{AdvisorError, Result};
use crate::pack::{
    BathtubReference, CellPackEntry, CheckpointCell, ModelPack, MultiPack, PackSchedule,
    PolicyCard, PolicyScore, RegimePack, MULTI_PACK_FORMAT_VERSION, PACK_FORMAT_VERSION,
};
use std::sync::Arc;
use tcp_calibrate::RegimeCatalog;
use tcp_cloudsim::{run_tasks, PricingModel};
use tcp_core::lifetime::{age_grid, LifetimeModel, TabulatedLifetime, DEFAULT_TABLE_POINTS};
use tcp_dists::LifetimeDistribution;
use tcp_numerics::interp::linspace;
use tcp_policy::{
    average_failure_probability, CheckpointConfig, DpCheckpointPolicy, MemorylessScheduler,
    ModelDrivenScheduler, YoungDalyPolicy,
};
use tcp_scenarios::spec::RegimeSpec;
use tcp_scenarios::{regime_model, resolve_regimes, SweepSpec};
use tcp_trace::VmType;

/// Resolution and scope knobs for pack construction.
///
/// The defaults give one-minute age resolution on the 1-D curves (a few hundred KB of
/// JSON per regime, interpolation error well below a tenth of a percent); shrink the
/// point counts for faster builds and smaller packs at reduced accuracy.
#[derive(Debug, Clone)]
pub struct PackBuilder {
    /// Knots on the dense age grid behind the survival and first-moment curves
    /// (default 1441 — one-minute spacing over a 24 h horizon).
    pub age_points: usize,
    /// Knots on the start-age axis of the DP checkpoint tables (coarser: the DP value
    /// function varies slowly in age).
    pub checkpoint_age_points: usize,
    /// Knots on the job-length axis of the DP checkpoint tables.
    pub checkpoint_job_points: usize,
    /// Largest job length in the DP checkpoint tables, hours.
    pub max_checkpoint_job_hours: f64,
    /// VM type the cost tables assume.
    pub vm_type: VmType,
    /// Job length (hours) at which the best-policy card compares policies.
    pub reference_job_len: f64,
}

impl Default for PackBuilder {
    fn default() -> Self {
        PackBuilder {
            age_points: DEFAULT_TABLE_POINTS,
            checkpoint_age_points: 9,
            checkpoint_job_points: 10,
            max_checkpoint_job_hours: 8.0,
            vm_type: VmType::N1HighCpu16,
            reference_job_len: 6.0,
        }
    }
}

impl PackBuilder {
    fn validate(&self) -> Result<()> {
        if self.age_points < 8 {
            return Err(AdvisorError::Pack(
                "age_points must be at least 8".to_string(),
            ));
        }
        if self.checkpoint_age_points < 2 || self.checkpoint_job_points < 2 {
            return Err(AdvisorError::Pack(
                "checkpoint grids need at least 2 points per axis".to_string(),
            ));
        }
        if !(self.max_checkpoint_job_hours > 0.0) || !self.max_checkpoint_job_hours.is_finite() {
            return Err(AdvisorError::Pack(
                "max_checkpoint_job_hours must be positive".to_string(),
            ));
        }
        if !(self.reference_job_len > 0.0) || !self.reference_job_len.is_finite() {
            return Err(AdvisorError::Pack(
                "reference_job_len must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// Builds a pack from a sweep spec: one [`RegimePack`] per `[[regime]]` table (the
    /// paper's default catalog regime when the spec lists none), with checkpoint cells
    /// following the spec's checkpoint-cost axis.
    pub fn build_from_spec(&self, spec: &SweepSpec) -> Result<ModelPack> {
        self.validate()?;
        spec.validate()?;
        // Resolved exactly like the sweep grid, so calibrated regimes without a pinned
        // cell become one regime pack per catalog cell here too.
        let regime_specs: Vec<RegimeSpec> = resolve_regimes(spec)?;
        let checkpoint_costs: Vec<f64> = spec
            .workload
            .as_ref()
            .and_then(|w| w.checkpoint_cost_minutes.clone())
            .unwrap_or_else(|| vec![CheckpointConfig::DEFAULT_CHECKPOINT_COST_MINUTES]);
        let dp_step_minutes = spec
            .workload
            .as_ref()
            .and_then(|w| w.dp_step_minutes)
            .unwrap_or(CheckpointConfig::DEFAULT_DP_STEP_MINUTES);

        let mut regimes = Vec::with_capacity(regime_specs.len());
        for (i, regime_spec) in regime_specs.iter().enumerate() {
            let model = regime_model(spec, regime_spec, i)?;
            regimes.push(self.build_regime(
                regime_spec,
                &model,
                &checkpoint_costs,
                dp_step_minutes,
            )?);
        }
        let pack = ModelPack {
            format_version: PACK_FORMAT_VERSION,
            name: spec.sweep.name.clone(),
            base_seed: spec.base_seed(),
            model_mode: spec
                .sweep
                .model
                .clone()
                .unwrap_or_else(|| "paper-representative".to_string()),
            regimes,
        };
        pack.validate()?;
        Ok(pack)
    }

    /// Builds a per-cell pack set from a calibrated regime catalog: the pooled
    /// record-weighted winner mixture becomes the fallback pack, and *every* catalog
    /// cell becomes its own single-regime pack (named after the cell), with cost
    /// tables priced for the cell's actual VM type.
    ///
    /// Each cell pack is built end to end from the cell's goodness-of-fit winner
    /// (empirical, phased, Weibull, exponential or bathtub): the survival and `W(t)`
    /// curves, the DP checkpoint tables *and* the policy card all come from the same
    /// [`LifetimeModel`], so `dp_family == served_family` for every cell — the
    /// generic-hazard DP removed the old bathtub-only restriction, and cells too small
    /// for parametric fits now ship packs driven by their empirical fallback.  The
    /// pooled pack is driven by the record-count-weighted mixture of every cell's
    /// winner.
    ///
    /// Table construction fans out over `threads` worker threads (`0` = all CPUs);
    /// assembly is in catalog order, so the pack set is byte-identical for every thread
    /// count.
    pub fn build_from_catalog(
        &self,
        catalog: &RegimeCatalog,
        checkpoint_costs: &[f64],
        dp_step_minutes: f64,
        threads: usize,
    ) -> Result<MultiPack> {
        self.validate()?;
        if checkpoint_costs.is_empty() {
            return Err(AdvisorError::Pack(
                "at least one checkpoint cost is required".to_string(),
            ));
        }
        if !(dp_step_minutes > 0.0) || !dp_step_minutes.is_finite() {
            return Err(AdvisorError::Pack(
                "dp_step_minutes must be positive".to_string(),
            ));
        }
        let horizon = catalog.horizon_hours;
        struct CellPlan {
            name: String,
            model: Arc<dyn LifetimeModel>,
            /// The cell's bathtub candidate fit, recorded in the pack for audits.
            reference: Option<tcp_dists::ConstrainedBathtub>,
            vm_type: VmType,
        }
        let mut cells: Vec<CellPlan> = Vec::new();
        for cell in &catalog.cells {
            let Some(vm_type) = cell.vm_type else {
                continue; // only the pooled pseudo-cell lacks dimensions
            };
            cells.push(CellPlan {
                name: cell.cell.clone(),
                model: cell
                    .model
                    .to_lifetime_model(horizon, self.age_points)
                    .map_err(|e| AdvisorError::Pack(format!("cell `{}`: {e}", cell.cell)))?,
                reference: cell.bathtub_model(),
                vm_type,
            });
        }
        if cells.is_empty() {
            return Err(AdvisorError::Pack(
                "the catalog has no per-cell fits to build packs from".to_string(),
            ));
        }
        // The pooled fallback: every catalog cell's winner (including cells too small
        // for parametric fits), weighted by its share of the records.
        let mut components: Vec<(f64, Arc<dyn LifetimeDistribution>)> =
            Vec::with_capacity(catalog.cells.len());
        for cell in &catalog.cells {
            let weight = cell.records as f64 / catalog.total_records as f64;
            components.push((weight, cell.model.to_distribution(horizon)?));
        }
        let pooled_model: Arc<dyn LifetimeModel> = Arc::new(TabulatedLifetime::from_mixture(
            &components,
            horizon,
            self.age_points,
        )?);
        let pooled_bathtub = catalog.pooled.bathtub_model();
        // Per-vCPU GCP pricing; each pack's absolute costs follow its cell's VM type.
        let pricing = PricingModel::gcp_n1_highcpu();

        // Task 0 builds the pooled pack's tables; tasks 1.. the cells in catalog order.
        let outcomes: Vec<Result<RegimePack>> =
            run_tasks(cells.len() + 1, threads, |task| match task {
                0 => self.build_regime_tables(
                    "pooled",
                    &pooled_model,
                    pooled_bathtub,
                    pricing,
                    self.vm_type,
                    checkpoint_costs,
                    dp_step_minutes,
                ),
                i => {
                    let cell = &cells[i - 1];
                    self.build_regime_tables(
                        &cell.name,
                        &cell.model,
                        cell.reference,
                        pricing,
                        cell.vm_type,
                        checkpoint_costs,
                        dp_step_minutes,
                    )
                }
            });
        let mut outcomes = outcomes.into_iter();
        let wrap = |name: &str, regime: RegimePack| ModelPack {
            format_version: PACK_FORMAT_VERSION,
            name: name.to_string(),
            base_seed: 0,
            model_mode: "calibrated".to_string(),
            regimes: vec![regime],
        };
        let pooled = wrap("pooled", outcomes.next().expect("pooled task")?);
        let mut entries = Vec::with_capacity(cells.len());
        for (cell, outcome) in cells.iter().zip(outcomes) {
            entries.push(CellPackEntry {
                cell: cell.name.clone(),
                pack: wrap(&cell.name, outcome?),
            });
        }
        // The catalog orders cells by typed key; the router binary-searches by *name*,
        // so the serialized entries are name-sorted (still deterministic).
        entries.sort_by(|a, b| a.cell.cmp(&b.cell));
        let multi = MultiPack {
            format_version: MULTI_PACK_FORMAT_VERSION,
            name: catalog.name.clone(),
            catalog: catalog.name.clone(),
            pooled,
            cells: entries,
        };
        multi.validate()?;
        Ok(multi)
    }

    fn build_regime(
        &self,
        regime_spec: &RegimeSpec,
        model: &Arc<dyn LifetimeModel>,
        checkpoint_costs: &[f64],
        dp_step_minutes: f64,
    ) -> Result<RegimePack> {
        let pricing = regime_spec.build_template()?.config.pricing;
        // Calibrated regimes pinned to a cell are priced for the cell's actual VM
        // type, matching `build_from_catalog` answers for the same cell; every other
        // regime (and the `pooled` pseudo-cell) uses the builder's VM type.
        let vm_type = regime_spec
            .cell
            .as_deref()
            .filter(|_| regime_spec.kind == "calibrated")
            .and_then(|cell| cell.parse::<tcp_calibrate::CellKey>().ok())
            .map(|key| key.vm_type)
            .unwrap_or(self.vm_type);
        let reference = model.as_bathtub().copied();
        self.build_regime_tables(
            &regime_spec.name,
            model,
            reference,
            pricing,
            vm_type,
            checkpoint_costs,
            dp_step_minutes,
        )
    }

    /// The table-construction core shared by the spec path and the catalog path: every
    /// grid in a [`RegimePack`] — the Equation 8 curves, the DP checkpoint tables and
    /// the policy card — derives from one [`LifetimeModel`], the pricing and the VM
    /// type.  `reference` is the bathtub candidate fit recorded for audits (the model
    /// itself when the winner *is* the bathtub family).
    #[allow(clippy::too_many_arguments)]
    fn build_regime_tables(
        &self,
        name: &str,
        model: &Arc<dyn LifetimeModel>,
        reference: Option<tcp_dists::ConstrainedBathtub>,
        pricing: PricingModel,
        vm_type: VmType,
        checkpoint_costs: &[f64],
        dp_step_minutes: f64,
    ) -> Result<RegimePack> {
        // The cold-DP counterpart of the advisor's warm `advisor.lookup.*` spans:
        // when a build runs under an active trace, the per-regime table
        // construction shows up as one span per regime.
        let _span = tcp_obs::span!("advisor.build.dp", checkpoint_costs.len() as u64);
        let horizon = model.horizon();
        let (early_end, deadline_start) = model.phase_boundaries();

        // S and W on the age grid: every Equation 8 answer is two W lookups (AgeCurves).
        let ages = age_grid(horizon, self.age_points);
        let curves = model.tabulate(&ages);
        let family = model.family().to_string();

        // One DP policy per checkpoint cost, solved once.  The policy card scores the
        // reference job with the first cost's policy, so that one is solved for the
        // longer of the grid's largest job and the reference job: row `j` of the DP
        // depends only on the rows below it, so the cell and the card read the same
        // bits a solve of their own would produce.
        let mut checkpoint_cells = Vec::with_capacity(checkpoint_costs.len());
        let mut card_policy = None;
        for &cost_minutes in checkpoint_costs {
            let config = CheckpointConfig::from_minutes(cost_minutes, dp_step_minutes);
            let policy = DpCheckpointPolicy::from_model(model.clone(), config)?;
            let mut longest_job = self.max_checkpoint_job_hours;
            if card_policy.is_none() {
                longest_job = longest_job.max(self.reference_job_len);
            }
            policy.expected_makespan(longest_job, 0.0)?;
            checkpoint_cells.push(self.build_checkpoint_cell(
                &policy,
                cost_minutes,
                dp_step_minutes,
            )?);
            card_policy.get_or_insert(policy);
        }
        let card_policy = card_policy.ok_or_else(|| {
            AdvisorError::Pack("at least one checkpoint cost is required".to_string())
        })?;

        let policy_card = self.build_policy_card(model, &card_policy)?;

        Ok(RegimePack {
            name: name.to_string(),
            model: reference.map(|dist| BathtubReference { dist }),
            served_family: family.clone(),
            dp_family: family,
            horizon_hours: horizon,
            phase_early_end_hours: early_end,
            phase_deadline_start_hours: deadline_start,
            vm_type: vm_type.to_string(),
            vcpus: vm_type.vcpus(),
            on_demand_per_vcpu_hour: pricing.on_demand_per_vcpu_hour,
            preemptible_per_vcpu_hour: pricing.preemptible_per_vcpu_hour,
            ages,
            survival: curves.survival,
            first_moment: curves.first_moment,
            checkpoint_cells,
            policy_card,
        })
    }

    /// Tabulates one checkpoint cell from `policy`, whose DP is already solved for the
    /// grid's largest job: every grid point reads the cached tables.
    fn build_checkpoint_cell(
        &self,
        policy: &DpCheckpointPolicy,
        cost_minutes: f64,
        dp_step_minutes: f64,
    ) -> Result<CheckpointCell> {
        let config = policy.config();
        let horizon = policy.model().horizon();
        // `DpCheckpointPolicy::schedule` requires start ages strictly inside the horizon;
        // queries past the last knot clamp to it, which is the right answer there anyway.
        let ages = linspace(0.0, 0.9 * horizon, self.checkpoint_age_points);
        let min_job = (2.0 * config.step_hours).min(self.max_checkpoint_job_hours * 0.5);
        let job_lens = linspace(
            min_job,
            self.max_checkpoint_job_hours,
            self.checkpoint_job_points,
        );

        let mut expected = Vec::with_capacity(ages.len() * job_lens.len());
        for &age in &ages {
            for &job in &job_lens {
                expected.push(policy.expected_makespan(job, age)?);
            }
        }
        let mut schedules = Vec::with_capacity(job_lens.len());
        for &job in &job_lens {
            let sched = policy.schedule(job, 0.0)?;
            schedules.push(PackSchedule {
                job_len_hours: sched.job_len,
                intervals_hours: sched.intervals_hours,
                expected_makespan_hours: sched.expected_makespan,
            });
        }
        Ok(CheckpointCell {
            checkpoint_cost_minutes: cost_minutes,
            dp_step_minutes,
            restart_overhead_minutes: config.restart_overhead_hours * 60.0,
            ages,
            job_lens,
            expected_makespan: expected,
            schedules,
        })
    }

    /// Precomputes the best-policy ranking: scheduling policies by average job-failure
    /// probability over uniformly distributed start ages (the Figure 6 metric), and
    /// checkpointing policies by expected makespan of the reference job on a fresh VM
    /// (`dp` is the first checkpoint cost's solved policy).
    fn build_policy_card(
        &self,
        model: &Arc<dyn LifetimeModel>,
        dp: &DpCheckpointPolicy,
    ) -> Result<PolicyCard> {
        let job = self.reference_job_len;
        let model_driven = ModelDrivenScheduler::from_model(model.clone());
        let memoryless = MemorylessScheduler;
        let mut scheduling = vec![
            PolicyScore {
                name: "model-driven".to_string(),
                score: average_failure_probability(&model_driven, model.as_ref(), job, 96)?,
            },
            PolicyScore {
                name: "memoryless".to_string(),
                score: average_failure_probability(&memoryless, model.as_ref(), job, 96)?,
            },
        ];

        let config = dp.config();
        let young_daly = YoungDalyPolicy::from_initial_failure_rate(
            model.as_ref(),
            config.checkpoint_cost_hours,
        )?;
        let mut checkpointing = vec![
            PolicyScore {
                name: "model-driven".to_string(),
                score: dp.expected_makespan(job, 0.0)?,
            },
            PolicyScore {
                name: "young-daly".to_string(),
                score: young_daly.schedule(job, 0.0)?.expected_makespan,
            },
            PolicyScore {
                // Without checkpointing, the single-preemption makespan of Equation 7 is
                // the (optimistic) comparison point the paper's Figure 8 uses.
                name: "none".to_string(),
                score: model.makespan_from_age(0.0, job),
            },
        ];

        let sort = |scores: &mut Vec<PolicyScore>| {
            scores.sort_by(|a, b| {
                a.score
                    .partial_cmp(&b.score)
                    .expect("scores are finite")
                    .then_with(|| a.name.cmp(&b.name))
            });
        };
        sort(&mut scheduling);
        sort(&mut checkpointing);
        Ok(PolicyCard {
            reference_job_len_hours: job,
            recommended_scheduling: scheduling[0].name.clone(),
            recommended_checkpointing: checkpointing[0].name.clone(),
            scheduling,
            checkpointing,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fast-building spec: coarse DP step, short job range.
    pub(crate) fn tiny_spec() -> SweepSpec {
        SweepSpec::from_toml(
            r#"
[sweep]
name = "tiny-pack"
base_seed = 42

[[regime]]
name = "gcp-day"
kind = "catalog"

[[regime]]
name = "exp8"
kind = "exponential"
mean_hours = 8.0
preemptible_discount = 4.0

[workload]
checkpoint_cost_minutes = [1.0, 5.0]
dp_step_minutes = 15.0
"#,
        )
        .unwrap()
    }

    pub(crate) fn tiny_builder() -> PackBuilder {
        PackBuilder {
            age_points: 241,
            ..PackBuilder::default()
        }
    }

    #[test]
    fn builds_a_pack_with_one_regime_per_spec_regime() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        assert_eq!(pack.regimes.len(), 2);
        let names: Vec<&str> = pack.regimes.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["gcp-day", "exp8"]);
        assert_eq!(pack.format_version, PACK_FORMAT_VERSION);
        for regime in &pack.regimes {
            assert_eq!(regime.checkpoint_cells.len(), 2);
            assert_eq!(regime.survival.len(), regime.ages.len());
            assert_eq!(regime.first_moment.len(), regime.ages.len());
            // W is a CDF-like accumulator: non-decreasing from zero.
            assert_eq!(regime.first_moment[0], 0.0);
            assert!(regime.first_moment.windows(2).all(|w| w[1] >= w[0] - 1e-12));
            // Pricing knobs flowed through from the regime spec.
            assert!(regime.on_demand_per_vcpu_hour > regime.preemptible_per_vcpu_hour);
        }
        // The exp8 regime carried its custom 4x discount.
        let exp8 = &pack.regimes[1];
        let discount = exp8.on_demand_per_vcpu_hour / exp8.preemptible_per_vcpu_hour;
        assert!((discount - 4.0).abs() < 1e-9, "discount = {discount}");
    }

    #[test]
    fn policy_card_prefers_the_model_driven_policies() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let card = &pack.regimes[0].policy_card;
        // Under a bathtub regime the paper's policies win their comparisons.
        assert_eq!(card.recommended_scheduling, "model-driven");
        assert!(card.scheduling[0].score <= card.scheduling[1].score);
        assert!(!card.checkpointing.is_empty());
    }

    #[test]
    fn spec_packs_serve_the_bathtub_curves() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        for regime in &pack.regimes {
            assert_eq!(regime.served_family, "bathtub");
            assert_eq!(regime.dp_family, "bathtub");
            // Spec packs keep the bathtub reference fit for audits.
            assert!(regime.model.is_some());
        }
    }

    fn winner_test_catalog(min_records: usize) -> tcp_calibrate::RegimeCatalog {
        let records = tcp_trace::TraceGenerator::new(11)
            .generate_study(600, 90)
            .unwrap();
        let mut calibrator = tcp_calibrate::Calibrator::new("winner-test");
        calibrator.options.min_records = min_records;
        calibrator.calibrate(&records, "synthetic", 0).unwrap()
    }

    fn small_catalog_builder() -> PackBuilder {
        PackBuilder {
            age_points: 121,
            checkpoint_age_points: 3,
            checkpoint_job_points: 4,
            max_checkpoint_job_hours: 4.0,
            ..Default::default()
        }
    }

    #[test]
    fn catalog_cells_serve_their_winner_family_curves() {
        // A sky-high min_records forces every cell's winner to the empirical fallback
        // (parametric candidates still exist, so the cells keep their bathtub policy
        // models): the packs must now *serve* the empirical curves, not the bathtub fit.
        let catalog = winner_test_catalog(10_000);
        let multi = small_catalog_builder()
            .build_from_catalog(&catalog, &[5.0], 30.0, 0)
            .unwrap();
        assert!(!multi.cells.is_empty());
        let horizon = catalog.horizon_hours;
        for entry in &multi.cells {
            let regime = &entry.pack.regimes[0];
            let fit = catalog.find(&entry.cell).unwrap();
            assert_eq!(fit.model.family, "empirical");
            assert_eq!(regime.served_family, "empirical");
            // Winner-family policies end to end: the DP tables follow the winner too.
            assert_eq!(regime.dp_family, "empirical");
            let dist = fit.model.to_distribution(horizon).unwrap();
            // The tabulated survival is the winner's, not the bathtub candidate's.
            for (i, &age) in regime.ages.iter().enumerate() {
                let expected = if age >= horizon {
                    0.0
                } else {
                    dist.survival(age)
                };
                assert!(
                    (regime.survival[i] - expected).abs() < 1e-9,
                    "cell {} survival at {age}: {} vs {expected}",
                    entry.cell,
                    regime.survival[i]
                );
            }
            // W accumulates monotonically and its tail equals E[T], which for a
            // non-negative constrained lifetime is ∫_0^L S(t) dt — evaluated by
            // trapezoid on the pack's own (dense) survival grid.
            assert!(regime.first_moment.windows(2).all(|w| w[1] >= w[0] - 1e-12));
            let expected_mean: f64 = regime
                .ages
                .windows(2)
                .zip(regime.survival.windows(2))
                .map(|(a, s)| 0.5 * (s[0] + s[1]) * (a[1] - a[0]))
                .sum();
            let got = *regime.first_moment.last().unwrap();
            assert!(
                (got - expected_mean).abs() < 0.05,
                "cell {} W(L) {got} vs ∫S {expected_mean}",
                entry.cell
            );
            // The DP tables exist and were computed from the winner family.
            assert!(!regime.checkpoint_cells.is_empty());
        }
    }

    #[test]
    fn pooled_fallback_is_the_record_weighted_mixture() {
        let catalog = winner_test_catalog(15);
        let multi = small_catalog_builder()
            .build_from_catalog(&catalog, &[5.0], 30.0, 0)
            .unwrap();
        let pooled = &multi.pooled.regimes[0];
        assert_eq!(pooled.served_family, "mixture");
        let horizon = catalog.horizon_hours;
        // The pooled survival curve equals the per-cell record-share weighted sum of
        // every catalog cell's winner survival — heavily sampled cells dominate.
        let dists: Vec<(f64, std::sync::Arc<dyn LifetimeDistribution>)> = catalog
            .cells
            .iter()
            .map(|cell| {
                (
                    cell.records as f64 / catalog.total_records as f64,
                    cell.model.to_distribution(horizon).unwrap(),
                )
            })
            .collect();
        for &i in &[0usize, 13, pooled.ages.len() / 2, pooled.ages.len() - 1] {
            let age = pooled.ages[i];
            let expected: f64 = if age >= horizon {
                0.0
            } else {
                dists.iter().map(|(w, d)| w * d.survival(age)).sum()
            };
            assert!(
                (pooled.survival[i] - expected).abs() < 1e-9,
                "pooled survival at {age}: {} vs {expected}",
                pooled.survival[i]
            );
        }
        // Weights sum to one, so the curve starts at certainty.
        assert!((pooled.survival[0] - 1.0).abs() < 1e-9);
        assert!(pooled.first_moment.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    #[test]
    fn showcase_catalog_builds_winner_driven_packs_for_every_cell() {
        // The family-showcase layout gives each cell a different ground-truth family
        // plus a five-record runt cell; the builder must ship a pack for *every* cell
        // (the runt included — it has no bathtub candidate at all) with the DP tables
        // and policy card computed from the cell's own winner.
        // Seed 8 is a verified full-spread draw: all four parametric families win
        // their cell and the runt keeps the empirical fallback (fitting is
        // deterministic, so this is stable, not flaky).
        let records = tcp_trace::TraceGenerator::new(8)
            .generate_family_showcase(300)
            .unwrap();
        let catalog = tcp_calibrate::Calibrator::new("showcase")
            .calibrate(&records, "showcase", 0)
            .unwrap();
        let multi = small_catalog_builder()
            .build_from_catalog(&catalog, &[5.0], 30.0, 0)
            .unwrap();
        assert_eq!(multi.cells.len(), catalog.cells.len());
        let mut families = std::collections::BTreeSet::new();
        for entry in &multi.cells {
            let regime = &entry.pack.regimes[0];
            let fit = catalog.find(&entry.cell).unwrap();
            assert_eq!(regime.served_family, fit.model.family);
            assert_eq!(regime.dp_family, regime.served_family, "{}", entry.cell);
            assert!(!regime.checkpoint_cells.is_empty());
            families.insert(regime.served_family.clone());
            if fit.candidates.is_empty() {
                // The runt cell: no parametric candidates, so no bathtub reference —
                // and still a full pack, driven by the empirical fallback.
                assert_eq!(regime.served_family, "empirical");
                assert!(regime.model.is_none());
            }
        }
        // The winners genuinely span every family (the layout's whole point): all four
        // parametric families plus the empirical fallback.
        for family in ["bathtub", "weibull", "exponential", "phased", "empirical"] {
            assert!(families.contains(family), "missing {family}: {families:?}");
        }
        // The pooled fallback is the winner mixture, with the pooled bathtub fit
        // recorded as the reference.
        let pooled = &multi.pooled.regimes[0];
        assert_eq!(pooled.served_family, "mixture");
        assert_eq!(pooled.dp_family, "mixture");
    }

    #[test]
    fn cells_and_card_match_fresh_policies_bit_for_bit() {
        // Each regime solves one DP per checkpoint cost; the card's model-driven score
        // and every cell entry must equal what a fresh, separately solved policy gives,
        // whether the reference job lies beyond the grid's largest job or inside it.
        let model: Arc<dyn LifetimeModel> =
            Arc::new(tcp_dists::ConstrainedBathtub::paper_representative());
        let costs = [1.0, 5.0];
        // The grid's largest job is 4 h: one reference job beyond it, one inside it.
        for reference_job_len in [6.0, 2.5] {
            let builder = PackBuilder {
                reference_job_len,
                ..small_catalog_builder()
            };
            let regime = builder
                .build_regime_tables(
                    "probe",
                    &model,
                    None,
                    PricingModel::gcp_n1_highcpu(),
                    VmType::N1HighCpu16,
                    &costs,
                    15.0,
                )
                .unwrap();
            let fresh = |cost: f64| {
                DpCheckpointPolicy::from_model(
                    model.clone(),
                    CheckpointConfig::from_minutes(cost, 15.0),
                )
                .unwrap()
            };
            let card_score = regime
                .policy_card
                .checkpointing
                .iter()
                .find(|score| score.name == "model-driven")
                .unwrap()
                .score;
            let want = fresh(costs[0])
                .expected_makespan(reference_job_len, 0.0)
                .unwrap();
            assert_eq!(
                card_score.to_bits(),
                want.to_bits(),
                "reference job {reference_job_len} h: card {card_score} vs fresh {want}"
            );
            for (cell, &cost) in regime.checkpoint_cells.iter().zip(&costs) {
                let policy = fresh(cost);
                let mut want = Vec::new();
                for &age in &cell.ages {
                    for &job in &cell.job_lens {
                        want.push(policy.expected_makespan(job, age).unwrap().to_bits());
                    }
                }
                let got: Vec<u64> = cell.expected_makespan.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "cost {cost} min");
            }
        }
    }

    #[test]
    fn builder_knob_validation() {
        let spec = tiny_spec();
        let mut b = tiny_builder();
        b.age_points = 2;
        assert!(b.build_from_spec(&spec).is_err());
        let mut b = tiny_builder();
        b.max_checkpoint_job_hours = f64::NAN;
        assert!(b.build_from_spec(&spec).is_err());
    }
}
