//! Virtual machine instances and their lifecycle.

use serde::{Deserialize, Serialize};
use tcp_trace::{VmType, Zone};

/// Unique identifier of a VM instance within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VmId(pub u64);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// Lifecycle state of a VM instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VmState {
    /// The VM is running and usable.
    Running,
    /// The VM was preempted by the provider.
    Preempted,
    /// The VM was terminated by the user.
    Terminated,
}

/// Whether a VM is billed as preemptible or on-demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BillingClass {
    /// Preemptible (transient) VM: cheap, may be reclaimed at any time, 24 h max lifetime.
    Preemptible,
    /// Conventional on-demand VM: never preempted by the provider.
    OnDemand,
}

/// A VM instance inside the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmInstance {
    /// Instance identifier.
    pub id: VmId,
    /// Machine type.
    pub vm_type: VmType,
    /// Zone the VM runs in.
    pub zone: Zone,
    /// Billing class (preemptible vs on-demand).
    pub billing: BillingClass,
    /// Simulation time at which the VM became usable.
    pub launch_time: f64,
    /// Scheduled preemption time (absolute simulation time); `None` for on-demand VMs.
    /// The user of the simulator cannot observe this — it models the provider's hidden
    /// reclamation decision.
    pub preemption_time: Option<f64>,
    /// Current lifecycle state.
    pub state: VmState,
    /// Time at which the VM stopped running (preempted or terminated), if it has.
    pub stop_time: Option<f64>,
}

impl VmInstance {
    /// VM age (hours) at simulation time `now` (zero before launch).
    pub fn age_at(&self, now: f64) -> f64 {
        (now - self.launch_time).max(0.0)
    }

    /// Whether the VM is still running at time `now` (based on its hidden preemption time
    /// and recorded stop time).
    pub fn running_at(&self, now: f64) -> bool {
        if self.state != VmState::Running {
            return self.stop_time.map(|t| now < t).unwrap_or(false);
        }
        match self.preemption_time {
            Some(p) => now < p,
            None => true,
        }
    }

    /// Wall-clock hours the VM was (or has been) running as of `now`.
    pub fn billed_hours_at(&self, now: f64) -> f64 {
        let end = self.stop_time.unwrap_or(now).min(now);
        (end - self.launch_time).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> VmInstance {
        VmInstance {
            id: VmId(7),
            vm_type: VmType::N1HighCpu16,
            zone: Zone::UsEast1B,
            billing: BillingClass::Preemptible,
            launch_time: 2.0,
            preemption_time: Some(10.0),
            state: VmState::Running,
            stop_time: None,
        }
    }

    #[test]
    fn display_and_age() {
        let vm = instance();
        assert_eq!(vm.id.to_string(), "vm-7");
        assert_eq!(vm.age_at(5.0), 3.0);
        assert_eq!(vm.age_at(1.0), 0.0);
    }

    #[test]
    fn running_state_uses_hidden_preemption_time() {
        let vm = instance();
        assert!(vm.running_at(5.0));
        assert!(!vm.running_at(10.0));
        assert!(!vm.running_at(12.0));
        let mut ondemand = instance();
        ondemand.billing = BillingClass::OnDemand;
        ondemand.preemption_time = None;
        assert!(ondemand.running_at(1e6));
    }

    #[test]
    fn stopped_vm_not_running() {
        let mut vm = instance();
        vm.state = VmState::Terminated;
        vm.stop_time = Some(6.0);
        assert!(vm.running_at(5.0));
        assert!(!vm.running_at(6.5));
        assert_eq!(vm.billed_hours_at(8.0), 4.0);
    }

    #[test]
    fn billed_hours_for_running_vm_accrue() {
        let vm = instance();
        assert_eq!(vm.billed_hours_at(2.0), 0.0);
        assert_eq!(vm.billed_hours_at(4.5), 2.5);
    }
}
