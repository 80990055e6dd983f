//! The batch-service controller.
//!
//! An event-driven simulation of the centralised controller described in Section 5: it
//! drains a bag of jobs through a bounded cluster of simulated VMs, reacting to job
//! completions, VM preemptions and hot-spare expiries, and applying the model-driven
//! scheduling and checkpointing policies.
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
    NoCheckpointPlanner, SchedulerPolicy, SchedulingDecision, YoungDalyPolicy,
};
use tcp_workloads::BagOfJobs;

/// Events the controller reacts to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A job assignment finished successfully (stale if the assignment id is outdated).
    JobFinished { vm: VmId, assignment: u64 },
    /// The provider preempted a VM.
    VmPreempted { vm: VmId },
    /// An idle hot spare reached its retention limit (stale if the VM was reused since).
    HotSpareExpired { vm: VmId, idle_since: u64 },
}

/// State of a job currently assigned to a VM.
#[derive(Debug, Clone)]
struct Assignment {
    assignment_id: u64,
    job_index: usize,
    started_at: f64,
    /// Work (hours) already safely checkpointed before this assignment started.
    base_progress: f64,
    /// Planned checkpoint intervals for the remaining work of this assignment.
    intervals: Vec<f64>,
    /// Checkpoint cost per checkpoint, hours.
    checkpoint_cost: f64,
}

impl Assignment {
    /// Total wall time this assignment needs if it is not preempted (the final segment
    /// carries no trailing checkpoint).
    fn planned_duration(&self) -> f64 {
        let work: f64 = self.intervals.iter().sum();
        let checkpoints = self.intervals.len().saturating_sub(1) as f64;
        work + checkpoints * self.checkpoint_cost
    }

    /// Work safely persisted after `elapsed` hours of this assignment (completed
    /// checkpoint intervals only).
    fn checkpointed_progress(&self, elapsed: f64) -> f64 {
        let mut done = 0.0;
        let mut t = 0.0;
        let last = self.intervals.len().saturating_sub(1);
        for (idx, &work) in self.intervals.iter().enumerate() {
            let segment = if idx == last {
                work
            } else {
                work + self.checkpoint_cost
            };
            if t + segment <= elapsed + 1e-12 {
                done += work;
                t += segment;
            } else {
                break;
            }
        }
        done
    }
}

/// Per-job bookkeeping.
#[derive(Debug, Clone)]
struct JobState {
    remaining_work: f64,
    restarts: usize,
    completed: bool,
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

    fn get(&self, vm: VmId) -> Option<&Assignment> {
        self.slots.get(vm.0 as usize)?.as_ref()
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

    fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        (0u64..)
            .zip(&self.slots)
            .filter(|(_, slot)| slot.is_some())
            .map(|(id, _)| VmId(id))
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
    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

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
    jobs: Vec<JobState>,
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

    /// Plans `remaining` hours of work on a VM of age `vm_age` into `intervals` and
    /// returns the cost of one checkpoint.
    fn plan_intervals(&self, remaining: f64, vm_age: f64, intervals: &mut Vec<f64>) -> Result<f64> {
        let age = vm_age.min(self.model.horizon() - 1e-6);
        self.planner.plan_into(remaining, age, intervals)?;
        Ok(self.planner.checkpoint_cost())
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
            total_work_hours: bag.jobs.iter().map(|j| j.estimated_runtime_hours).sum(),
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
        let report = self.run_trial(bag, template, seed, &mut scratch);
        SCRATCH.set(scratch);
        report
    }

    /// One trial of [`BatchService::run_bag_with`] in the buffers of `scratch`.
    fn run_trial(
        &self,
        prepared: &PreparedBag,
        template: &ProviderTemplate,
        seed: u64,
        scratch: &mut Scratch,
    ) -> Result<RunReport> {
        let bag = &prepared.bag;
        if bag.is_empty() {
            return Err(NumericsError::invalid("bag must contain at least one job"));
        }
        let billing = if self.config.use_preemptible {
            BillingClass::Preemptible
        } else {
            BillingClass::OnDemand
        };
        let Scratch {
            provider,
            queue,
            jobs,
            pending,
            assignments,
            idle_vms,
            interval_pool,
        } = scratch;
        let provider = match provider {
            Some(provider) => {
                template.build_into(provider, seed);
                provider
            }
            None => provider.insert(template.build(seed)),
        };
        queue.clear();
        jobs.clear();
        jobs.extend(bag.jobs.iter().map(|j| JobState {
            remaining_work: j.estimated_runtime_hours,
            restarts: 0,
            completed: false,
        }));
        pending.clear();
        pending.extend(0..jobs.len());

        // VM bookkeeping.
        assignments.clear();
        idle_vms.clear();
        let mut live_vms: usize = 0;
        let mut next_assignment_id: u64 = 0;
        let mut idle_generation: u64 = 0;
        let mut preemptions_hitting_jobs = 0usize;
        let mut total_restarts = 0usize;
        let mut completed_jobs = 0usize;
        let mut last_completion_time = 0.0f64;

        // Helper closures are impractical with so much shared mutable state; use a small
        // macro-like inline routine instead via a function-local loop.

        // Seed: dispatch as many jobs as the cluster allows.
        // The main dispatch routine is invoked whenever capacity or work changes.
        macro_rules! dispatch {
            ($now:expr) => {{
                let now: f64 = $now;
                while !pending.is_empty()
                    && live_vms.max(assignments.len()) < self.config.cluster_size + idle_vms.len()
                {
                    // ensure we do not exceed the cluster size counting idle + busy VMs
                    if assignments.len() + idle_vms.len() >= self.config.cluster_size
                        && idle_vms.is_empty()
                    {
                        break;
                    }
                    let job_index = *pending.front().expect("non-empty");
                    let job_len = jobs[job_index].remaining_work;

                    // Choose a VM: prefer an idle hot spare if the policy approves reuse.
                    let mut chosen: Option<VmId> = None;
                    let mut launch_fresh = false;
                    if let Some(vm_id) = idle_vms.first() {
                        let age = provider.get(vm_id).map(|vm| vm.age_at(now)).unwrap_or(0.0);
                        let alive = provider.is_running(vm_id, now);
                        if alive && self.config.use_preemptible {
                            match self.scheduler.decide(age, job_len) {
                                SchedulingDecision::ReuseExisting => chosen = Some(vm_id),
                                SchedulingDecision::LaunchFresh => {
                                    // relinquish the stale VM and fall through to a fresh launch
                                    provider.terminate(vm_id, now);
                                    idle_vms.remove(vm_id);
                                    live_vms = live_vms.saturating_sub(1);
                                    launch_fresh = true;
                                }
                            }
                        } else if alive {
                            chosen = Some(vm_id);
                        } else {
                            idle_vms.remove(vm_id);
                            live_vms = live_vms.saturating_sub(1);
                        }
                    }

                    if chosen.is_none() {
                        if assignments.len() + idle_vms.len() >= self.config.cluster_size
                            && !launch_fresh
                        {
                            break;
                        }
                        let vm =
                            provider.launch(self.config.vm_type, self.config.zone, billing, now)?;
                        live_vms += 1;
                        if let Some(p) = vm.preemption_time {
                            queue.schedule_at(p, Event::VmPreempted { vm: vm.id });
                        }
                        chosen = Some(vm.id);
                    }

                    let vm_id = chosen.expect("vm chosen or launched");
                    idle_vms.remove(vm_id);
                    pending.pop_front();

                    let vm_age = provider.get(vm_id).map(|vm| vm.age_at(now)).unwrap_or(0.0);
                    let mut intervals = interval_pool.pop().unwrap_or_default();
                    let checkpoint_cost = self.plan_intervals(job_len, vm_age, &mut intervals)?;
                    let assignment = Assignment {
                        assignment_id: next_assignment_id,
                        job_index,
                        started_at: now,
                        base_progress: bag.jobs[job_index].estimated_runtime_hours - job_len,
                        intervals,
                        checkpoint_cost,
                    };
                    next_assignment_id += 1;
                    let finish_at = now + assignment.planned_duration();
                    queue.schedule_at(
                        finish_at,
                        Event::JobFinished {
                            vm: vm_id,
                            assignment: assignment.assignment_id,
                        },
                    );
                    assignments.insert(vm_id, assignment);
                }
            }};
        }

        dispatch!(0.0);

        let mut safety_counter = 0usize;
        let safety_limit = 200_000 + bag.len() * 1_000;
        while completed_jobs < jobs.len() {
            safety_counter += 1;
            if safety_counter > safety_limit {
                return Err(NumericsError::DidNotConverge {
                    what: "batch service simulation".into(),
                    iterations: safety_counter,
                    residual: (jobs.len() - completed_jobs) as f64,
                });
            }
            let Some((now, event)) = queue.pop() else {
                // No pending events but jobs remain: dispatch more work (e.g. after all VMs
                // died simultaneously).
                dispatch!(last_completion_time);
                if queue.is_empty() {
                    return Err(NumericsError::invalid(
                        "service deadlocked with pending jobs",
                    ));
                }
                continue;
            };

            match event {
                Event::JobFinished { vm, assignment } => {
                    let matches = assignments
                        .get(vm)
                        .is_some_and(|a| a.assignment_id == assignment);
                    if !matches {
                        continue; // stale completion from a preempted assignment
                    }
                    let a = assignments.remove(vm).expect("checked above");
                    let job = &mut jobs[a.job_index];
                    job.remaining_work = 0.0;
                    job.completed = true;
                    completed_jobs += 1;
                    last_completion_time = now;
                    interval_pool.push(a.intervals);

                    // The VM becomes a hot spare (only meaningful for preemptible VMs that
                    // are still alive).
                    if provider.is_running(vm, now) {
                        idle_generation += 1;
                        idle_vms.insert(vm, idle_generation);
                        queue.schedule_after(
                            self.config.hot_spare_hours,
                            Event::HotSpareExpired {
                                vm,
                                idle_since: idle_generation,
                            },
                        );
                    } else {
                        live_vms = live_vms.saturating_sub(1);
                    }
                    dispatch!(now);
                }
                Event::VmPreempted { vm } => {
                    let was_running = provider.preempt(vm, now);
                    if !was_running {
                        continue;
                    }
                    live_vms = live_vms.saturating_sub(1);
                    idle_vms.remove(vm);
                    if let Some(a) = assignments.remove(vm) {
                        // the preemption interrupted a running job
                        preemptions_hitting_jobs += 1;
                        let elapsed = (now - a.started_at).max(0.0);
                        let persisted = a.checkpointed_progress(elapsed);
                        let job = &mut jobs[a.job_index];
                        let done = a.base_progress + persisted;
                        job.remaining_work =
                            (bag.jobs[a.job_index].estimated_runtime_hours - done).max(1e-6);
                        job.restarts += 1;
                        total_restarts += 1;
                        pending.push_back(a.job_index);
                        interval_pool.push(a.intervals);
                    }
                    dispatch!(now);
                }
                Event::HotSpareExpired { vm, idle_since } => {
                    if idle_vms.generation(vm) == Some(idle_since) {
                        idle_vms.remove(vm);
                        provider.terminate(vm, now);
                        live_vms = live_vms.saturating_sub(1);
                    }
                }
            }
        }

        // Terminate any remaining VMs so billing stops at the makespan.
        let end = last_completion_time;
        for vm in idle_vms.vms() {
            provider.terminate(vm, end);
        }
        for vm in assignments.vms() {
            provider.terminate(vm, end);
        }
        let usage = provider.usage_report(end);

        Ok(RunReport {
            jobs: bag.len(),
            makespan_hours: end,
            ideal_makespan_hours: prepared.ideal_makespan_hours,
            preemptions: preemptions_hitting_jobs,
            job_restarts: total_restarts,
            vms_launched: usage.vms_launched,
            total_cost: usage.total_cost,
            total_work_hours: prepared.total_work_hours,
            vm_hours: usage.preemptible_vm_hours + usage.on_demand_vm_hours,
        })
    }
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
