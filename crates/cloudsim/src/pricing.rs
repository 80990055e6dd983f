//! Cloud pricing model.
//!
//! Figure 9a of the paper compares the cost of running bags of jobs on preemptible VMs
//! (through the batch service) against conventional on-demand VMs and reports a ~5×
//! saving.  The default prices below follow the published GCP `n1-highcpu` list prices at
//! the time of the study: preemptible capacity is billed at roughly one fifth of the
//! on-demand rate.

use serde::{Deserialize, Serialize};
use tcp_numerics::{NumericsError, Result};
use tcp_trace::VmType;

use crate::vm::BillingClass;

/// Per-vCPU-hour pricing for on-demand and preemptible capacity (USD).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingModel {
    /// On-demand price per vCPU-hour.
    pub on_demand_per_vcpu_hour: f64,
    /// Preemptible price per vCPU-hour.
    pub preemptible_per_vcpu_hour: f64,
}

impl PricingModel {
    /// GCP-like default prices for the `n1-highcpu` family (USD/vCPU-hour):
    /// $0.0354 on-demand vs $0.0071 preemptible, a 5.0× discount.
    pub fn gcp_n1_highcpu() -> Self {
        PricingModel {
            on_demand_per_vcpu_hour: 0.035_42,
            preemptible_per_vcpu_hour: 0.007_08,
        }
    }

    /// Creates a custom pricing model.
    pub fn new(on_demand_per_vcpu_hour: f64, preemptible_per_vcpu_hour: f64) -> Result<Self> {
        if !(on_demand_per_vcpu_hour > 0.0) || !(preemptible_per_vcpu_hour > 0.0) {
            return Err(NumericsError::invalid("prices must be positive"));
        }
        if preemptible_per_vcpu_hour > on_demand_per_vcpu_hour {
            return Err(NumericsError::invalid(
                "preemptible price must not exceed the on-demand price",
            ));
        }
        Ok(PricingModel {
            on_demand_per_vcpu_hour,
            preemptible_per_vcpu_hour,
        })
    }

    /// Hourly price of one VM of the given type under the given billing class.
    pub fn hourly_rate(&self, vm_type: VmType, billing: BillingClass) -> f64 {
        let per_vcpu = match billing {
            BillingClass::OnDemand => self.on_demand_per_vcpu_hour,
            BillingClass::Preemptible => self.preemptible_per_vcpu_hour,
        };
        per_vcpu * vm_type.vcpus() as f64
    }

    /// Cost of running one VM of the given type for `hours`.
    pub fn cost(&self, vm_type: VmType, billing: BillingClass, hours: f64) -> f64 {
        self.hourly_rate(vm_type, billing) * hours.max(0.0)
    }
}

impl Default for PricingModel {
    fn default() -> Self {
        PricingModel::gcp_n1_highcpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_discount_close_to_five_x() {
        let p = PricingModel::default();
        let d = p.on_demand_per_vcpu_hour / p.preemptible_per_vcpu_hour;
        assert!(d > 4.5 && d < 5.5, "discount = {d}");
    }

    #[test]
    fn validation() {
        assert!(PricingModel::new(0.0, 0.01).is_err());
        assert!(PricingModel::new(0.03, 0.0).is_err());
        assert!(PricingModel::new(0.01, 0.02).is_err());
        assert!(PricingModel::new(0.03, 0.01).is_ok());
    }

    #[test]
    fn rates_scale_with_vcpus() {
        let p = PricingModel::gcp_n1_highcpu();
        let small = p.hourly_rate(VmType::N1HighCpu2, BillingClass::Preemptible);
        let large = p.hourly_rate(VmType::N1HighCpu32, BillingClass::Preemptible);
        assert!((large / small - 16.0).abs() < 1e-9);
        assert!(
            p.hourly_rate(VmType::N1HighCpu16, BillingClass::OnDemand)
                > p.hourly_rate(VmType::N1HighCpu16, BillingClass::Preemptible)
        );
    }

    #[test]
    fn cost_is_linear_in_hours_and_clamps_negative() {
        let p = PricingModel::gcp_n1_highcpu();
        let one = p.cost(VmType::N1HighCpu8, BillingClass::OnDemand, 1.0);
        let three = p.cost(VmType::N1HighCpu8, BillingClass::OnDemand, 3.0);
        assert!((three - 3.0 * one).abs() < 1e-12);
        assert_eq!(
            p.cost(VmType::N1HighCpu8, BillingClass::OnDemand, -1.0),
            0.0
        );
    }

    #[test]
    fn paper_cluster_cost_sanity() {
        // 32 × n1-highcpu-32 for one hour: preemptible should cost ≈ $7.3, on-demand ≈ $36.
        let p = PricingModel::gcp_n1_highcpu();
        let preemptible: f64 = 32.0 * p.hourly_rate(VmType::N1HighCpu32, BillingClass::Preemptible);
        let on_demand: f64 = 32.0 * p.hourly_rate(VmType::N1HighCpu32, BillingClass::OnDemand);
        assert!(
            preemptible > 5.0 && preemptible < 10.0,
            "preemptible = {preemptible}"
        );
        assert!(
            on_demand > 30.0 && on_demand < 40.0,
            "on_demand = {on_demand}"
        );
    }
}
