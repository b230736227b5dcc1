//! Virtual machine types offered by the (simulated) IaaS provider.
//!
//! A VM type has a fixed start-up fee `f_s` paid once per provisioned
//! instance and a running cost `f_r` per unit of time (§3, Eq. 1). The
//! paper folds provisioning time into the start-up fee, so a VM type has
//! no start-up delay.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::money::Money;
use crate::time::Millis;

/// Index of a VM type within a [`crate::spec::WorkloadSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct VmTypeId(pub u32);

impl VmTypeId {
    /// The index as a `usize`, for slice addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VmTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VM-type{}", self.0)
    }
}

/// A rentable VM configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmType {
    /// Human-readable name (e.g. `"t2.medium"`).
    pub name: String,
    /// One-off fee `f_s` paid when the instance is provisioned.
    pub startup_cost: Money,
    /// Running cost `f_r`, expressed per hour of rented time.
    pub rate_per_hour: Money,
}

impl VmType {
    /// The paper's reference instance: AWS `t2.medium` at $0.052/hour with a
    /// measured start-up fee of $0.0008 (§7.1).
    pub fn t2_medium() -> Self {
        VmType {
            name: "t2.medium".into(),
            startup_cost: Money::from_dollars(0.0008),
            rate_per_hour: Money::from_dollars(0.052),
        }
    }

    /// The cheaper instance used in the multi-VM-type experiments (§7.2):
    /// AWS `t2.small` at half the `t2.medium` price.
    pub fn t2_small() -> Self {
        VmType {
            name: "t2.small".into(),
            startup_cost: Money::from_dollars(0.0008),
            rate_per_hour: Money::from_dollars(0.026),
        }
    }

    /// The rental cost of running this VM for `duration`.
    pub fn runtime_cost(&self, duration: Millis) -> Money {
        self.rate_per_hour * duration.as_hours_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prices() {
        let m = VmType::t2_medium();
        assert!(m
            .runtime_cost(Millis::HOUR)
            .approx_eq(Money::from_dollars(0.052), 1e-12));
        // A 4-minute query (the paper's average) costs 0.052 * 4/60 dollars.
        assert!(m
            .runtime_cost(Millis::from_mins(4))
            .approx_eq(Money::from_dollars(0.052 * 4.0 / 60.0), 1e-12));
    }

    #[test]
    fn small_is_half_price() {
        let m = VmType::t2_medium();
        let s = VmType::t2_small();
        assert!(s.rate_per_hour.as_dollars() == m.rate_per_hour.as_dollars() / 2.0);
    }

    #[test]
    fn zero_duration_costs_nothing() {
        assert_eq!(VmType::t2_medium().runtime_cost(Millis::ZERO), Money::ZERO);
    }
}
