//! The simulated cloud provider.
//!
//! The provider owns every VM instance in a simulation: it assigns hidden preemption times
//! to preemptible VMs (drawn from the ground-truth process of the VM's configuration),
//! processes user launch/terminate requests, answers "is this VM still alive at time t?"
//! queries, and keeps the usage ledger from which costs are computed.

use crate::pricing::PricingModel;
use crate::vm::{BillingClass, VmId, VmInstance, VmState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tcp_dists::LifetimeDistribution;
use tcp_numerics::{NumericsError, Result};
use tcp_trace::{ConfigKey, TimeOfDay, TraceCatalog, VmType, WorkloadKind, Zone};

/// Provider configuration.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// Pricing used for the usage ledger.
    pub pricing: PricingModel,
    /// Time (hours) between a launch request and the VM becoming usable.
    pub provisioning_delay_hours: f64,
    /// Maximum lifetime of preemptible VMs, hours (the temporal constraint).
    pub max_preemptible_lifetime_hours: f64,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        ProviderConfig {
            pricing: PricingModel::default(),
            provisioning_delay_hours: 1.0 / 60.0,
            max_preemptible_lifetime_hours: 24.0,
        }
    }
}

/// Aggregate usage and cost report for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UsageReport {
    /// Total VM-hours billed on preemptible capacity.
    pub preemptible_vm_hours: f64,
    /// Total VM-hours billed on on-demand capacity.
    pub on_demand_vm_hours: f64,
    /// Total cost in USD.
    pub total_cost: f64,
    /// Number of VMs launched.
    pub vms_launched: usize,
    /// Number of preemptions that actually hit running VMs.
    pub preemptions: usize,
}

/// A reusable recipe for building identically configured providers that differ only in
/// their RNG seed — the building block scenario sweeps use to run one provider
/// configuration across many deterministic trials.
#[derive(Clone)]
pub struct ProviderTemplate {
    /// Provider configuration (pricing, provisioning delay, lifetime cap).
    pub config: ProviderConfig,
    /// Preemption process override: when set, every preemptible VM draws its lifetime
    /// from this distribution instead of the trace catalog.
    pub ground_truth: Option<Arc<dyn LifetimeDistribution>>,
    /// Ambient conditions selecting the catalog's ground-truth process (ignored when
    /// `ground_truth` is set).
    pub time_of_day: TimeOfDay,
    /// Ambient workload kind (ignored when `ground_truth` is set).
    pub workload: WorkloadKind,
    /// Extra multiplicative hazard scale applied to catalog-drawn processes, preserving
    /// the catalog's per-(VM type, zone) structure (ignored when `ground_truth` is set).
    pub catalog_scale: f64,
}

impl Default for ProviderTemplate {
    fn default() -> Self {
        ProviderTemplate {
            config: ProviderConfig::default(),
            ground_truth: None,
            time_of_day: TimeOfDay::Day,
            workload: WorkloadKind::NonIdle,
            catalog_scale: 1.0,
        }
    }
}

impl ProviderTemplate {
    /// A template drawing preemptions from an explicit lifetime distribution.
    pub fn from_distribution(dist: Arc<dyn LifetimeDistribution>) -> Self {
        ProviderTemplate {
            ground_truth: Some(dist),
            ..ProviderTemplate::default()
        }
    }

    /// A template drawing preemptions from the default catalog under the given ambient
    /// conditions.
    pub fn from_conditions(time_of_day: TimeOfDay, workload: WorkloadKind) -> Self {
        ProviderTemplate {
            time_of_day,
            workload,
            ..ProviderTemplate::default()
        }
    }

    /// Instantiates a provider with this template's configuration and the given seed.
    pub fn build(&self, seed: u64) -> CloudProvider {
        let mut provider = CloudProvider::new(self.config.clone(), seed);
        provider.set_conditions(self.time_of_day, self.workload);
        provider.override_truth = self.ground_truth.clone();
        provider.catalog_scale = self.catalog_scale;
        provider
    }

    /// Rebuilds `provider` in place into exactly what [`ProviderTemplate::build`] returns
    /// for `seed`.  Only the allocation of its VM table carries over, never a value, so a
    /// simulation loop can reuse one provider across trials without allocating.
    pub fn build_into(&self, provider: &mut CloudProvider, seed: u64) {
        let mut vms = std::mem::take(&mut provider.vms);
        vms.clear();
        *provider = self.build(seed);
        provider.vms = vms;
    }
}

impl std::fmt::Debug for ProviderTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProviderTemplate")
            .field("config", &self.config)
            .field(
                "ground_truth",
                &self.ground_truth.as_ref().map(|d| d.name()),
            )
            .field("time_of_day", &self.time_of_day)
            .field("workload", &self.workload)
            .field("catalog_scale", &self.catalog_scale)
            .finish()
    }
}

/// The simulated IaaS provider.
pub struct CloudProvider {
    config: ProviderConfig,
    catalog: TraceCatalog,
    override_truth: Option<Arc<dyn LifetimeDistribution>>,
    catalog_scale: f64,
    rng: StdRng,
    // Every VM ever launched, at index `id.0`: `launch` hands out ids densely from 0 and
    // nothing is ever removed.  `usage_report` sums costs while iterating, so the
    // iteration order is part of the output: it must stay ascending id order (what a
    // `BTreeMap<VmId, _>` gave), or the float sums differ in the last ulp and sweep
    // reports stop being byte-identical.
    vms: Vec<VmInstance>,
    workload_kind: WorkloadKind,
    time_of_day: TimeOfDay,
}

impl CloudProvider {
    /// Creates a provider with the default trace catalog as its hidden preemption process.
    pub fn new(config: ProviderConfig, seed: u64) -> Self {
        CloudProvider {
            config,
            catalog: TraceCatalog::new(),
            override_truth: None,
            catalog_scale: 1.0,
            rng: StdRng::seed_from_u64(seed),
            vms: Vec::new(),
            workload_kind: WorkloadKind::NonIdle,
            time_of_day: TimeOfDay::Day,
        }
    }

    /// Sets the ambient conditions (time of day, workload) used to select the ground-truth
    /// preemption process for newly launched VMs.
    pub fn set_conditions(&mut self, time_of_day: TimeOfDay, workload: WorkloadKind) {
        self.time_of_day = time_of_day;
        self.workload_kind = workload;
    }

    /// Launches a VM at simulation time `now`.  Returns the new instance.
    ///
    /// For preemptible VMs a hidden preemption time is drawn from the ground-truth process
    /// of the `(type, zone, time-of-day, workload)` configuration, truncated to the
    /// 24-hour constraint.
    pub fn launch(
        &mut self,
        vm_type: VmType,
        zone: Zone,
        billing: BillingClass,
        now: f64,
    ) -> Result<VmInstance> {
        if !now.is_finite() || now < 0.0 {
            return Err(NumericsError::invalid(
                "launch time must be finite and non-negative",
            ));
        }
        let id = VmId(self.vms.len() as u64);
        let launch_time = now + self.config.provisioning_delay_hours;
        let preemption_time = match billing {
            BillingClass::OnDemand => None,
            BillingClass::Preemptible => {
                let lifetime = match &self.override_truth {
                    Some(truth) => truth.sample(&mut self.rng),
                    None => {
                        let key = ConfigKey {
                            vm_type,
                            zone,
                            time_of_day: self.time_of_day,
                            workload: self.workload_kind,
                        };
                        let truth = self.catalog.ground_truth(&key)?;
                        let truth = if self.catalog_scale == 1.0 {
                            truth
                        } else {
                            truth.scale_rates(self.catalog_scale)?
                        };
                        truth.sample(&mut self.rng)
                    }
                };
                Some(launch_time + lifetime.clamp(0.0, self.config.max_preemptible_lifetime_hours))
            }
        };
        let vm = VmInstance {
            id,
            vm_type,
            zone,
            billing,
            launch_time,
            preemption_time,
            state: VmState::Running,
            stop_time: None,
        };
        self.vms.push(vm);
        Ok(vm)
    }

    /// Looks up a VM by id.
    pub fn get(&self, id: VmId) -> Option<&VmInstance> {
        self.vms.get(usize::try_from(id.0).ok()?)
    }

    fn get_mut(&mut self, id: VmId) -> Option<&mut VmInstance> {
        self.vms.get_mut(usize::try_from(id.0).ok()?)
    }

    /// The hidden preemption time of a VM (used by simulation drivers to schedule the
    /// preemption event; a real controller would only receive the advance warning).
    pub fn preemption_time(&self, id: VmId) -> Option<f64> {
        self.get(id).and_then(|vm| vm.preemption_time)
    }

    /// Marks a VM as preempted at time `now` (no-op if it is not running).
    /// Returns true when the VM transitioned from running to preempted.
    pub fn preempt(&mut self, id: VmId, now: f64) -> bool {
        if let Some(vm) = self.get_mut(id) {
            if vm.state == VmState::Running {
                vm.state = VmState::Preempted;
                vm.stop_time = Some(now.max(vm.launch_time));
                return true;
            }
        }
        false
    }

    /// Terminates a VM at the user's request.
    /// Returns true when the VM transitioned from running to terminated.
    pub fn terminate(&mut self, id: VmId, now: f64) -> bool {
        if let Some(vm) = self.get_mut(id) {
            if vm.state == VmState::Running {
                vm.state = VmState::Terminated;
                vm.stop_time = Some(now.max(vm.launch_time));
                return true;
            }
        }
        false
    }

    /// Whether the VM is running (not yet preempted/terminated) at time `now`.
    pub fn is_running(&self, id: VmId, now: f64) -> bool {
        self.get(id).is_some_and(|vm| vm.running_at(now))
    }

    /// Builds the usage/cost report as of time `now` (running VMs are billed up to `now`).
    pub fn usage_report(&self, now: f64) -> UsageReport {
        let mut report = UsageReport {
            vms_launched: self.vms.len(),
            ..UsageReport::default()
        };
        for vm in &self.vms {
            let hours = vm.billed_hours_at(now);
            let cost = self.config.pricing.cost(vm.vm_type, vm.billing, hours);
            report.total_cost += cost;
            match vm.billing {
                BillingClass::Preemptible => report.preemptible_vm_hours += hours,
                BillingClass::OnDemand => report.on_demand_vm_hours += hours,
            }
            if vm.state == VmState::Preempted {
                report.preemptions += 1;
            }
        }
        report
    }
}

impl std::fmt::Debug for CloudProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudProvider")
            .field("vm_count", &self.vms.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider(seed: u64) -> CloudProvider {
        CloudProvider::new(ProviderConfig::default(), seed)
    }

    #[test]
    fn launch_assigns_preemption_times_within_constraint() {
        let mut p = provider(1);
        for i in 0..50 {
            let vm = p
                .launch(
                    VmType::N1HighCpu16,
                    Zone::UsEast1B,
                    BillingClass::Preemptible,
                    i as f64 * 0.1,
                )
                .unwrap();
            let lifetime = vm.preemption_time.unwrap() - vm.launch_time;
            assert!(
                (0.0..=24.0 + 1e-9).contains(&lifetime),
                "lifetime = {lifetime}"
            );
        }
        assert_eq!(p.vms.len(), 50);
    }

    #[test]
    fn on_demand_vms_never_preempt() {
        let mut p = provider(2);
        let vm = p
            .launch(
                VmType::N1HighCpu8,
                Zone::UsWest1A,
                BillingClass::OnDemand,
                0.0,
            )
            .unwrap();
        assert!(vm.preemption_time.is_none());
        assert!(p.is_running(vm.id, 1e5));
    }

    #[test]
    fn launch_validation_and_lookup() {
        let mut p = provider(3);
        assert!(p
            .launch(
                VmType::N1HighCpu2,
                Zone::UsWest1A,
                BillingClass::Preemptible,
                f64::NAN
            )
            .is_err());
        assert!(p
            .launch(
                VmType::N1HighCpu2,
                Zone::UsWest1A,
                BillingClass::Preemptible,
                -1.0
            )
            .is_err());
        let vm = p
            .launch(
                VmType::N1HighCpu2,
                Zone::UsWest1A,
                BillingClass::Preemptible,
                0.0,
            )
            .unwrap();
        assert!(p.get(vm.id).is_some());
        assert!(p.get(VmId(999)).is_none());
        assert_eq!(p.preemption_time(vm.id), vm.preemption_time);
    }

    #[test]
    fn preempt_and_terminate_transitions() {
        let mut p = provider(4);
        let vm = p
            .launch(
                VmType::N1HighCpu4,
                Zone::UsCentral1C,
                BillingClass::Preemptible,
                0.0,
            )
            .unwrap();
        assert!(p.is_running(vm.id, 0.5));
        assert!(p.preempt(vm.id, 2.0));
        assert!(!p.preempt(vm.id, 2.5), "double preemption is a no-op");
        assert!(!p.is_running(vm.id, 3.0));

        let vm2 = p
            .launch(
                VmType::N1HighCpu4,
                Zone::UsCentral1C,
                BillingClass::Preemptible,
                0.0,
            )
            .unwrap();
        assert!(p.terminate(vm2.id, 1.0));
        assert!(!p.terminate(vm2.id, 1.5));
        assert!(!p.preempt(VmId(12345), 0.0));
    }

    #[test]
    fn usage_report_accumulates_cost_and_preemptions() {
        let mut p = provider(5);
        let vm1 = p
            .launch(
                VmType::N1HighCpu16,
                Zone::UsEast1B,
                BillingClass::Preemptible,
                0.0,
            )
            .unwrap();
        let vm2 = p
            .launch(
                VmType::N1HighCpu16,
                Zone::UsEast1B,
                BillingClass::OnDemand,
                0.0,
            )
            .unwrap();
        p.preempt(vm1.id, 2.0);
        p.terminate(vm2.id, 4.0);
        let report = p.usage_report(5.0);
        assert_eq!(report.vms_launched, 2);
        assert_eq!(report.preemptions, 1);
        assert!(report.preemptible_vm_hours > 1.9 && report.preemptible_vm_hours < 2.1);
        assert!(report.on_demand_vm_hours > 3.9 && report.on_demand_vm_hours < 4.1);
        let expected_cost = PricingModel::default().cost(
            VmType::N1HighCpu16,
            BillingClass::Preemptible,
            report.preemptible_vm_hours,
        ) + PricingModel::default().cost(
            VmType::N1HighCpu16,
            BillingClass::OnDemand,
            report.on_demand_vm_hours,
        );
        assert!((report.total_cost - expected_cost).abs() < 1e-9);
    }

    #[test]
    fn conditions_affect_sampled_lifetimes_statistically() {
        // Idle/night VMs should live longer on average than busy/day VMs.
        let mut day = provider(6);
        day.set_conditions(TimeOfDay::Day, WorkloadKind::NonIdle);
        let mut night = provider(6);
        night.set_conditions(TimeOfDay::Night, WorkloadKind::Idle);
        let mean_lifetime = |p: &mut CloudProvider| {
            let mut total = 0.0;
            for _ in 0..300 {
                let vm = p
                    .launch(
                        VmType::N1HighCpu16,
                        Zone::UsEast1B,
                        BillingClass::Preemptible,
                        0.0,
                    )
                    .unwrap();
                total += vm.preemption_time.unwrap() - vm.launch_time;
            }
            total / 300.0
        };
        let day_mean = mean_lifetime(&mut day);
        let night_mean = mean_lifetime(&mut night);
        assert!(night_mean > day_mean, "night {night_mean} day {day_mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = provider(42);
        let mut b = provider(42);
        for _ in 0..10 {
            let va = a
                .launch(
                    VmType::N1HighCpu8,
                    Zone::UsEast1B,
                    BillingClass::Preemptible,
                    0.0,
                )
                .unwrap();
            let vb = b
                .launch(
                    VmType::N1HighCpu8,
                    Zone::UsEast1B,
                    BillingClass::Preemptible,
                    0.0,
                )
                .unwrap();
            assert_eq!(va.preemption_time, vb.preemption_time);
        }
    }

    #[test]
    fn build_into_matches_a_fresh_build() {
        let run = |p: &mut CloudProvider| {
            let vms: Vec<VmInstance> = (0..20)
                .map(|i| {
                    p.launch(
                        VmType::N1HighCpu16,
                        Zone::UsEast1B,
                        BillingClass::Preemptible,
                        i as f64 * 0.25,
                    )
                    .unwrap()
                })
                .collect();
            p.preempt(vms[3].id, 4.0);
            p.terminate(vms[5].id, 2.0);
            (vms, p.usage_report(6.0))
        };
        let template = ProviderTemplate {
            catalog_scale: 1.5,
            ..ProviderTemplate::default()
        };
        let mut reused = ProviderTemplate::default().build(3);
        run(&mut reused);
        for seed in [11, 12] {
            template.build_into(&mut reused, seed);
            assert_eq!(reused.vms.len(), 0);
            assert!(reused.get(VmId(0)).is_none());
            assert_eq!(run(&mut reused), run(&mut template.build(seed)));
        }
    }

    #[test]
    fn catalog_scale_shortens_lifetimes_but_preserves_vm_type_structure() {
        let mean_lifetime = |scale: f64, vm_type: VmType| {
            let template = ProviderTemplate {
                catalog_scale: scale,
                ..ProviderTemplate::default()
            };
            let mut p = template.build(9);
            let mut total = 0.0;
            for _ in 0..200 {
                let vm = p
                    .launch(vm_type, Zone::UsEast1B, BillingClass::Preemptible, 0.0)
                    .unwrap();
                total += vm.preemption_time.unwrap() - vm.launch_time;
            }
            total / 200.0
        };
        // A higher hazard scale shortens lifetimes...
        assert!(mean_lifetime(3.0, VmType::N1HighCpu16) < mean_lifetime(1.0, VmType::N1HighCpu16));
        // ...while the catalog's per-VM-type structure (Observation 4) still applies.
        assert!(mean_lifetime(2.0, VmType::N1HighCpu32) < mean_lifetime(2.0, VmType::N1HighCpu2));
    }
}
