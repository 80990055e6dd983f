//! The batch-service controller.
//!
//! An event-driven simulation of the centralised controller described in Section 5: it
//! drains a bag of jobs through a bounded cluster of simulated VMs, reacting to job
//! completions, VM preemptions and hot-spare expiries, and applying the model-driven
//! scheduling and checkpointing policies.
//!
//! One capacity rule bounds the cluster: dispatch starts a job only while fewer than
//! `cluster_size` VMs are busy.  Busy plus idle VMs never exceed `cluster_size`, so that
//! test alone keeps the cluster in bounds.  Reusing an idle spare moves a VM from idle
//! to busy.  A fresh launch happens either with no spare at all, when the loop test gave
//! busy < `cluster_size`, or after the first spare was dropped (dead, or rejected by the
//! scheduler), which freed its place.  A finished job moves its VM from busy to idle, or
//! drops it if it is dead; preemptions and spare expiries only remove VMs.
//!
//! An assignment replays one [`PlannedRun`], by the rule the Figure 8 replay also follows:
//! it finishes `run.duration()` after it starts, and a preemption keeps
//! `run.progress_at(elapsed)` of its work, or finishes the job at the run's end.
//!
//! Each trial runs in buffers (provider, event queue, job and assignment tables) borrowed
//! from a per-thread scratch that carries only capacity between trials, never values:
//! every buffer is cleared or rebuilt before use, so a report never depends on what the
//! thread ran before.

use crate::config::{CheckpointingMode, SchedulingMode, ServiceConfig};
use crate::report::RunReport;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use tcp_cloudsim::{BillingClass, CloudProvider, EventQueue, ProviderTemplate, VmId};
use tcp_core::LifetimeModel;
use tcp_numerics::{NumericsError, Result};
use tcp_policy::{
    CheckpointPlanner, DpCheckpointPolicy, MemorylessScheduler, ModelDrivenScheduler,
    NoCheckpointPlanner, PlannedRun, SchedulerPolicy, SchedulingDecision, YoungDalyPolicy,
};
use tcp_workloads::BagOfJobs;

/// Events the controller reacts to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A job assignment finished successfully (stale if the VM was preempted first).
    JobFinished { vm: VmId },
    /// The provider preempted a VM.
    VmPreempted { vm: VmId },
    /// An idle hot spare reached its retention limit (stale if the VM was reused since).
    HotSpareExpired { vm: VmId, idle_since: u64 },
}

/// State of a job currently assigned to a VM.
#[derive(Debug, Clone)]
struct Assignment {
    job_index: usize,
    started_at: f64,
    /// Work (hours) already safely checkpointed before this assignment started.
    base_progress: f64,
    /// Planned checkpoint intervals for the remaining work of this assignment.
    intervals: Vec<f64>,
}

/// The running assignments, at index `vm.0`: a trial's provider hands out VM ids densely
/// from 0, so a slot table replaces a map keyed by `VmId`.
#[derive(Debug, Default)]
struct Assignments {
    slots: Vec<Option<Assignment>>,
    /// Number of occupied slots.
    busy: usize,
}

impl Assignments {
    fn len(&self) -> usize {
        self.busy
    }

    fn insert(&mut self, vm: VmId, assignment: Assignment) {
        let index = vm.0 as usize;
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        if self.slots[index].replace(assignment).is_none() {
            self.busy += 1;
        }
    }

    fn remove(&mut self, vm: VmId) -> Option<Assignment> {
        let removed = self.slots.get_mut(vm.0 as usize)?.take();
        if removed.is_some() {
            self.busy -= 1;
        }
        removed
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.busy = 0;
    }
}

/// Idle hot spares with the generation they went idle in, sorted by VM id so dispatch
/// always offers the lowest-id spare first.  A cluster holds few of them, so a sorted
/// `Vec` beats a tree map.
#[derive(Debug, Default)]
struct IdleVms(Vec<(VmId, u64)>);

impl IdleVms {
    fn first(&self) -> Option<VmId> {
        self.0.first().map(|&(vm, _)| vm)
    }

    fn generation(&self, vm: VmId) -> Option<u64> {
        let index = self.0.binary_search_by_key(&vm, |&(id, _)| id).ok()?;
        Some(self.0[index].1)
    }

    fn insert(&mut self, vm: VmId, generation: u64) {
        match self.0.binary_search_by_key(&vm, |&(id, _)| id) {
            Ok(index) => self.0[index].1 = generation,
            Err(index) => self.0.insert(index, (vm, generation)),
        }
    }

    fn remove(&mut self, vm: VmId) {
        if let Ok(index) = self.0.binary_search_by_key(&vm, |&(id, _)| id) {
            self.0.remove(index);
        }
    }

    fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.0.iter().map(|&(vm, _)| vm)
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// The working buffers of one trial, reused across the trials a thread runs.
#[derive(Default)]
struct Scratch {
    provider: Option<CloudProvider>,
    queue: EventQueue<Event>,
    /// Work (hours) each job still has to do, by job index.
    remaining: Vec<f64>,
    pending: VecDeque<usize>,
    assignments: Assignments,
    idle_vms: IdleVms,
    /// Interval buffers of finished or interrupted assignments, for the next dispatches.
    interval_pool: Vec<Vec<f64>>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// The batch computing service.
pub struct BatchService {
    config: ServiceConfig,
    model: Arc<dyn LifetimeModel>,
    scheduler: Box<dyn SchedulerPolicy>,
    planner: Box<dyn CheckpointPlanner>,
}

impl BatchService {
    /// Creates a service driven by a fitted preemption model — any lifetime family
    /// carried by the model-generic [`LifetimeModel`] surface (the bathtub fit is the
    /// closed-form fast path, tabulated winners plan identically through the same
    /// trait).
    pub fn new(config: ServiceConfig, model: Arc<dyn LifetimeModel>) -> Result<Self> {
        config.validate()?;
        let scheduler: Box<dyn SchedulerPolicy> = match config.scheduling {
            SchedulingMode::ModelDriven => {
                Box::new(ModelDrivenScheduler::from_model(model.clone()))
            }
            SchedulingMode::Memoryless => Box::new(MemorylessScheduler),
        };
        let planner: Box<dyn CheckpointPlanner> = match config.checkpointing {
            CheckpointingMode::None => Box::new(NoCheckpointPlanner),
            CheckpointingMode::ModelDriven => Box::new(DpCheckpointPolicy::from_model(
                model.clone(),
                config.checkpoint_config,
            )?),
            CheckpointingMode::YoungDaly => Box::new(YoungDalyPolicy::from_initial_failure_rate(
                model.as_ref(),
                config.checkpoint_config.checkpoint_cost_hours,
            )?),
        };
        Ok(BatchService {
            config,
            model,
            scheduler,
            planner,
        })
    }

    /// The run of `assignment`'s planned intervals, under this service's checkpoint cost.
    fn run<'a>(&self, assignment: &'a Assignment) -> PlannedRun<'a> {
        PlannedRun {
            intervals: &assignment.intervals,
            checkpoint_cost: self.planner.checkpoint_cost(),
        }
    }

    /// Runs a bag of jobs to completion and reports cost/performance metrics, using the
    /// default provider (trace-catalog preemptions, default pricing).
    pub fn run_bag(&self, bag: &BagOfJobs) -> Result<RunReport> {
        self.run_bag_with(
            &self.prepare_bag(bag.clone()),
            &ProviderTemplate::default(),
            self.config.seed,
        )
    }

    /// Computes, once, what every report on `bag` takes from the bag alone (see
    /// [`PreparedBag`]), for this service's cluster size.
    pub fn prepare_bag(&self, bag: BagOfJobs) -> PreparedBag {
        let slots = self.config.cluster_size;
        PreparedBag {
            total_work_hours: bag.total_work_hours(),
            ideal_makespan_hours: ideal_makespan(&bag, slots),
            slots,
            bag,
        }
    }

    /// Runs a prepared bag of jobs against a provider built from `template` with an
    /// explicit provider seed — the entry point scenario sweeps use to vary the
    /// preemption regime and pricing across many deterministic trials while reusing one
    /// service (and its precomputed checkpoint planner) and one prepared bag.
    pub fn run_bag_with(
        &self,
        bag: &PreparedBag,
        template: &ProviderTemplate,
        seed: u64,
    ) -> Result<RunReport> {
        if bag.slots != self.config.cluster_size {
            return Err(NumericsError::invalid(format!(
                "bag prepared for {} slots run on a cluster of {}",
                bag.slots, self.config.cluster_size
            )));
        }
        let mut scratch = SCRATCH.take();
        let mut provider = match scratch.provider.take() {
            Some(mut provider) => {
                template.build_into(&mut provider, seed);
                provider
            }
            None => template.build(seed),
        };
        let report = self.run_trial(bag, &mut provider, &mut scratch);
        scratch.provider = Some(provider);
        SCRATCH.set(scratch);
        report
    }

    /// One trial of [`BatchService::run_bag_with`] on `provider`, in the buffers of `s`.
    fn run_trial(
        &self,
        prepared: &PreparedBag,
        provider: &mut CloudProvider,
        s: &mut Scratch,
    ) -> Result<RunReport> {
        let bag = &prepared.bag;
        if bag.is_empty() {
            return Err(NumericsError::invalid("bag must contain at least one job"));
        }
        s.queue.clear();
        s.remaining.clear();
        s.remaining
            .extend(bag.jobs.iter().map(|j| j.estimated_runtime_hours));
        s.pending.clear();
        s.pending.extend(0..bag.len());
        s.assignments.clear();
        s.idle_vms.clear();
        let mut idle_generation: u64 = 0;
        let mut preemptions_hitting_jobs = 0usize;
        let mut completed_jobs = 0usize;
        let mut last_completion_time = 0.0f64;

        self.dispatch(0.0, bag, provider, s)?;

        let mut safety_counter = 0usize;
        let safety_limit = 200_000 + bag.len() * 1_000;
        while completed_jobs < bag.len() {
            safety_counter += 1;
            if safety_counter > safety_limit {
                return Err(NumericsError::DidNotConverge {
                    what: "batch service simulation".into(),
                    iterations: safety_counter,
                    residual: (bag.len() - completed_jobs) as f64,
                });
            }
            let Some((now, event)) = s.queue.pop() else {
                // No pending events but jobs remain: dispatch more work (e.g. after all VMs
                // died simultaneously).
                self.dispatch(last_completion_time, bag, provider, s)?;
                if s.queue.is_empty() {
                    return Err(NumericsError::invalid(
                        "service deadlocked with pending jobs",
                    ));
                }
                continue;
            };

            match event {
                Event::JobFinished { vm } => {
                    // A stale completion belongs to a preempted VM, whose slot stays
                    // empty: dispatch never reassigns a dead VM.
                    let Some(a) = s.assignments.remove(vm) else {
                        continue;
                    };
                    completed_jobs += 1;
                    last_completion_time = now;
                    s.interval_pool.push(a.intervals);

                    // The VM becomes a hot spare (only meaningful for preemptible VMs that
                    // are still alive).
                    if provider.is_running(vm, now) {
                        idle_generation += 1;
                        s.idle_vms.insert(vm, idle_generation);
                        s.queue.schedule_after(
                            self.config.hot_spare_hours,
                            Event::HotSpareExpired {
                                vm,
                                idle_since: idle_generation,
                            },
                        );
                    }
                    self.dispatch(now, bag, provider, s)?;
                }
                Event::VmPreempted { vm } => {
                    let was_running = provider.preempt(vm, now);
                    if !was_running {
                        continue;
                    }
                    s.idle_vms.remove(vm);
                    if let Some(a) = s.assignments.remove(vm) {
                        let run = self.run(&a);
                        let elapsed = (now - a.started_at).max(0.0);
                        if run.is_done_at(elapsed) {
                            // The preemption came as the run ended (it ties the run's
                            // `JobFinished`, which is now stale): the job finished.
                            completed_jobs += 1;
                            last_completion_time = now;
                        } else {
                            // the preemption interrupted a running job
                            preemptions_hitting_jobs += 1;
                            let done = a.base_progress + run.progress_at(elapsed);
                            s.remaining[a.job_index] =
                                (bag.jobs[a.job_index].estimated_runtime_hours - done).max(1e-6);
                            s.pending.push_back(a.job_index);
                        }
                        s.interval_pool.push(a.intervals);
                    }
                    self.dispatch(now, bag, provider, s)?;
                }
                Event::HotSpareExpired { vm, idle_since } => {
                    if s.idle_vms.generation(vm) == Some(idle_since) {
                        s.idle_vms.remove(vm);
                        provider.terminate(vm, now);
                    }
                }
            }
        }

        // Terminate the idle spares so billing stops at the makespan.  No VM is busy:
        // each job left its assignment when it finished.
        debug_assert_eq!(s.assignments.len(), 0);
        let end = last_completion_time;
        for vm in s.idle_vms.vms() {
            provider.terminate(vm, end);
        }
        let usage = provider.usage_report(end);

        Ok(RunReport {
            jobs: bag.len(),
            makespan_hours: end,
            ideal_makespan_hours: prepared.ideal_makespan_hours,
            preemptions: preemptions_hitting_jobs,
            // Every job-hitting preemption restarts its job.
            job_restarts: preemptions_hitting_jobs,
            vms_launched: usage.vms_launched,
            total_cost: usage.total_cost,
            total_work_hours: prepared.total_work_hours,
            vm_hours: usage.preemptible_vm_hours + usage.on_demand_vm_hours,
        })
    }

    /// Starts pending jobs, in queue order, while fewer than `cluster_size` VMs are busy.
    /// A job takes the lowest-id idle spare if that spare is alive and, on preemptible
    /// billing, the scheduler approves reusing it; otherwise the spare is dropped (and
    /// terminated if alive) and the job runs on a freshly launched VM.
    fn dispatch(
        &self,
        now: f64,
        bag: &BagOfJobs,
        provider: &mut CloudProvider,
        s: &mut Scratch,
    ) -> Result<()> {
        let billing = if self.config.use_preemptible {
            BillingClass::Preemptible
        } else {
            BillingClass::OnDemand
        };
        while s.assignments.len() < self.config.cluster_size {
            let Some(&job_index) = s.pending.front() else {
                break;
            };
            let job_len = s.remaining[job_index];

            let mut chosen = None;
            if let Some(spare) = s.idle_vms.first() {
                s.idle_vms.remove(spare);
                if !provider.is_running(spare, now) {
                    // Preempted while idle; its `VmPreempted` event is still queued.
                } else if !self.config.use_preemptible
                    || self.scheduler.decide(vm_age(provider, spare, now), job_len)
                        == SchedulingDecision::ReuseExisting
                {
                    chosen = Some(spare);
                } else {
                    provider.terminate(spare, now);
                }
            }
            let vm = match chosen {
                Some(vm) => vm,
                None => {
                    let vm =
                        provider.launch(self.config.vm_type, self.config.zone, billing, now)?;
                    if let Some(p) = vm.preemption_time {
                        s.queue.schedule_at(p, Event::VmPreempted { vm: vm.id });
                    }
                    vm.id
                }
            };
            s.pending.pop_front();

            let mut intervals = s.interval_pool.pop().unwrap_or_default();
            let age = vm_age(provider, vm, now).min(self.model.horizon() - 1e-6);
            self.planner.plan_into(job_len, age, &mut intervals)?;
            let assignment = Assignment {
                job_index,
                started_at: now,
                base_progress: bag.jobs[job_index].estimated_runtime_hours - job_len,
                intervals,
            };
            s.queue.schedule_at(
                now + self.run(&assignment).duration(),
                Event::JobFinished { vm },
            );
            s.assignments.insert(vm, assignment);
        }
        debug_assert!(
            s.assignments.len() + s.idle_vms.0.len() <= self.config.cluster_size,
            "busy plus idle VMs exceed the cluster size"
        );
        Ok(())
    }
}

/// Age of `vm` at `now`, in hours (0 for an unknown id).
fn vm_age(provider: &CloudProvider, vm: VmId, now: f64) -> f64 {
    provider.get(vm).map_or(0.0, |vm| vm.age_at(now))
}

/// A bag of jobs with the figures of it that no trial changes: its total work and its
/// preemption-free makespan on the cluster of the service that prepared it
/// ([`BatchService::prepare_bag`]).  A sweep prepares each scenario's bag once and runs
/// every trial of the scenario on it.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedBag {
    bag: BagOfJobs,
    /// Cluster size the ideal makespan was computed for.
    slots: usize,
    total_work_hours: f64,
    ideal_makespan_hours: f64,
}

/// The preemption-free, zero-overhead makespan of a bag on `slots` parallel slots
/// (longest-processing-time list scheduling — exact for the homogeneous bags used here).
pub fn ideal_makespan(bag: &BagOfJobs, slots: usize) -> f64 {
    let slots = slots.max(1);
    let mut finish = vec![0.0f64; slots];
    let mut lengths: Vec<f64> = bag.jobs.iter().map(|j| j.estimated_runtime_hours).collect();
    lengths.sort_by(|a, b| b.partial_cmp(a).unwrap());
    for len in lengths {
        // place on the least-loaded slot
        let (idx, _) = finish
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("non-empty slots");
        finish[idx] += len;
    }
    finish.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_workloads::profiles::profile_by_name;

    fn model() -> Arc<dyn LifetimeModel> {
        Arc::new(tcp_dists::ConstrainedBathtub::paper_representative())
    }

    fn small_bag(count: usize) -> BagOfJobs {
        profile_by_name("nanoconfinement")
            .unwrap()
            .bag(count, 11)
            .unwrap()
    }

    fn base_config(seed: u64) -> ServiceConfig {
        ServiceConfig {
            cluster_size: 8,
            ..ServiceConfig::paper_cost_experiment(seed)
        }
    }

    #[test]
    fn completes_every_job() {
        let service = BatchService::new(base_config(1), model()).unwrap();
        let bag = small_bag(40);
        let report = service.run_bag(&bag).unwrap();
        assert_eq!(report.jobs, 40);
        assert!(report.makespan_hours > 0.0);
        assert!(report.makespan_hours >= report.ideal_makespan_hours * 0.99);
        assert!(report.total_cost > 0.0);
        assert!(report.vms_launched >= 1);
        assert!(report.utilisation() > 0.0);
    }

    #[test]
    fn empty_bag_rejected_and_config_validated() {
        let service = BatchService::new(base_config(1), model()).unwrap();
        let bag = BagOfJobs::new(
            "x",
            vec![tcp_workloads::JobSpec::new(0, "a", 0.1, 1, "p").unwrap()],
        )
        .unwrap();
        assert!(service.run_bag(&bag).is_ok());
        let mut bad = base_config(1);
        bad.cluster_size = 0;
        assert!(BatchService::new(bad, model()).is_err());
    }

    #[test]
    fn preemptible_is_much_cheaper_than_on_demand() {
        // Figure 9a: ~5× cost reduction.
        let bag = small_bag(60);
        let preemptible = BatchService::new(base_config(7), model())
            .unwrap()
            .run_bag(&bag)
            .unwrap();
        let on_demand = BatchService::new(
            ServiceConfig {
                cluster_size: 8,
                ..ServiceConfig::on_demand_comparator(7)
            },
            model(),
        )
        .unwrap()
        .run_bag(&bag)
        .unwrap();
        let ratio = on_demand.cost_per_job() / preemptible.cost_per_job();
        assert!(ratio > 3.0, "cost ratio = {ratio}");
        assert_eq!(
            on_demand.preemptions, 0,
            "on-demand VMs are never preempted"
        );
    }

    #[test]
    fn preemptions_increase_running_time_moderately() {
        // Figure 9b: each preemption costs a few percent of running time.
        let bag = small_bag(80);
        let report = BatchService::new(base_config(3), model())
            .unwrap()
            .run_bag(&bag)
            .unwrap();
        let increase = report.percent_increase_in_running_time();
        assert!(increase >= 0.0);
        assert!(increase < 120.0, "increase = {increase}%");
        if report.preemptions == 0 {
            assert!(increase < 25.0);
        }
    }

    #[test]
    fn checkpointing_mode_runs() {
        let mut cfg = base_config(5);
        cfg.checkpointing = CheckpointingMode::ModelDriven;
        let bag = small_bag(12);
        let report = BatchService::new(cfg, model())
            .unwrap()
            .run_bag(&bag)
            .unwrap();
        assert_eq!(report.jobs, 12);
        let mut yd = base_config(5);
        yd.checkpointing = CheckpointingMode::YoungDaly;
        let report_yd = BatchService::new(yd, model())
            .unwrap()
            .run_bag(&bag)
            .unwrap();
        assert_eq!(report_yd.jobs, 12);
    }

    #[test]
    fn memoryless_scheduling_mode_runs() {
        let mut cfg = base_config(9);
        cfg.scheduling = SchedulingMode::Memoryless;
        let report = BatchService::new(cfg, model())
            .unwrap()
            .run_bag(&small_bag(20))
            .unwrap();
        assert_eq!(report.jobs, 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let bag = small_bag(30);
        let a = BatchService::new(base_config(42), model())
            .unwrap()
            .run_bag(&bag)
            .unwrap();
        let b = BatchService::new(base_config(42), model())
            .unwrap()
            .run_bag(&bag)
            .unwrap();
        // structural determinism is exact; float aggregates may differ by rounding only
        assert!((a.makespan_hours - b.makespan_hours).abs() < 1e-9);
        assert!((a.total_cost - b.total_cost).abs() < 1e-9);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.vms_launched, b.vms_launched);
    }

    /// Every field of a report, floats as their bit patterns.
    fn report_bits(r: &RunReport) -> [u64; 9] {
        [
            r.jobs as u64,
            r.makespan_hours.to_bits(),
            r.ideal_makespan_hours.to_bits(),
            r.preemptions as u64,
            r.job_restarts as u64,
            r.vms_launched as u64,
            r.total_cost.to_bits(),
            r.total_work_hours.to_bits(),
            r.vm_hours.to_bits(),
        ]
    }

    #[test]
    fn reused_scratch_reproduces_a_fresh_thread_bit_for_bit() {
        let catalog = ProviderTemplate {
            catalog_scale: 2.0,
            ..ProviderTemplate::default()
        };
        let exponential = ProviderTemplate::from_distribution(Arc::new(
            tcp_dists::Exponential::new(1.0 / 3.0).unwrap(),
        ));
        let modes = [
            CheckpointingMode::None,
            CheckpointingMode::ModelDriven,
            CheckpointingMode::YoungDaly,
        ];
        for (k, mode) in modes.into_iter().enumerate() {
            // A: catalog preemptions; B: a larger exponential-regime run under the next
            // mode, leaving every scratch buffer bigger and full of other values.
            let a_service = BatchService::new(
                ServiceConfig {
                    checkpointing: mode,
                    ..base_config(21)
                },
                model(),
            )
            .unwrap();
            let b_service = BatchService::new(
                ServiceConfig {
                    cluster_size: 24,
                    checkpointing: modes[(k + 1) % modes.len()],
                    scheduling: SchedulingMode::Memoryless,
                    ..ServiceConfig::paper_cost_experiment(5)
                },
                model(),
            )
            .unwrap();
            let a_bag = small_bag(30);
            let b_bag = small_bag(90);
            let a_bag = a_service.prepare_bag(a_bag);
            let b_bag = b_service.prepare_bag(b_bag);
            let a = |seed| a_service.run_bag_with(&a_bag, &catalog, seed).unwrap();
            let first = a(7);
            let b = b_service.run_bag_with(&b_bag, &exponential, 8).unwrap();
            let again = a(7);
            let fresh = std::thread::scope(|scope| scope.spawn(|| a(7)).join().unwrap());
            assert!(first.preemptions > 0 && b.preemptions > 0, "{mode:?}");
            assert_eq!(report_bits(&again), report_bits(&first), "{mode:?}");
            assert_eq!(report_bits(&fresh), report_bits(&first), "{mode:?}");
        }
    }

    /// A VM lifetime of exactly `self.0` hours.
    struct Fixed(f64);

    impl tcp_dists::LifetimeDistribution for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn cdf(&self, t: f64) -> f64 {
            if t >= self.0 {
                1.0
            } else {
                0.0
            }
        }

        fn quantile(&self, _u: f64) -> f64 {
            self.0
        }
    }

    #[test]
    fn a_preemption_at_the_run_end_finishes_the_job() {
        // One 2 h job on a VM that is preempted exactly when its run ends: the
        // `VmPreempted` event was queued at launch, so it pops before the tying
        // `JobFinished`.
        let bag = BagOfJobs::new(
            "t",
            vec![tcp_workloads::JobSpec::new(0, "a", 2.0, 1, "").unwrap()],
        )
        .unwrap();
        for mode in [CheckpointingMode::None, CheckpointingMode::YoungDaly] {
            let service = BatchService::new(
                ServiceConfig {
                    cluster_size: 1,
                    checkpointing: mode,
                    ..base_config(1)
                },
                model(),
            )
            .unwrap();
            let mut intervals = Vec::new();
            service.planner.plan_into(2.0, 0.0, &mut intervals).unwrap();
            let end = PlannedRun {
                intervals: &intervals,
                checkpoint_cost: service.planner.checkpoint_cost(),
            }
            .duration();
            let mut template = ProviderTemplate::from_distribution(Arc::new(Fixed(end)));
            template.config.provisioning_delay_hours = 0.0;
            let report = service
                .run_bag_with(&service.prepare_bag(bag.clone()), &template, 3)
                .unwrap();
            assert_eq!(report.preemptions, 0, "{mode:?}");
            assert_eq!(report.job_restarts, 0, "{mode:?}");
            assert_eq!(report.vms_launched, 1, "{mode:?}");
            assert_eq!(report.makespan_hours, end, "{mode:?}");
        }
    }

    #[test]
    fn ideal_makespan_list_scheduling() {
        let bag = BagOfJobs::new(
            "t",
            vec![
                tcp_workloads::JobSpec::new(0, "a", 2.0, 1, "").unwrap(),
                tcp_workloads::JobSpec::new(1, "a", 1.0, 1, "").unwrap(),
                tcp_workloads::JobSpec::new(2, "a", 1.0, 1, "").unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(ideal_makespan(&bag, 2), 2.0);
        assert_eq!(ideal_makespan(&bag, 1), 4.0);
        assert_eq!(ideal_makespan(&bag, 10), 2.0);
    }
}
