//! Cost accounting for serving-time routing policies.
//!
//! The paper's deployment objective (Eq. 7) can be read as a *budgeted*
//! problem: maximize accuracy subject to a bound on the system cost. A
//! [`CostBudget`] expresses such a bound in any subset of the three cost
//! units of [`InferenceCost`], and a [`CostMeter`] accumulates what a
//! running system has actually spent. Together they let a routing policy
//! (e.g. `appealnet_core::serve::BudgetPolicy`) decide per input whether
//! one more offload still fits the budget.

use crate::cost::InferenceCost;

/// An upper bound on accumulated inference cost. Unset components are
/// unconstrained; a budget with no component set admits everything.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBudget {
    /// Maximum accumulated FLOPs, if bounded.
    pub max_flops: Option<u64>,
    /// Maximum accumulated energy in millijoules, if bounded.
    pub max_energy_mj: Option<f64>,
    /// Maximum accumulated latency in milliseconds, if bounded.
    pub max_latency_ms: Option<f64>,
}

impl CostBudget {
    /// A budget with no bounds: everything is admitted.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget bounding only accumulated energy (the battery view).
    pub fn energy_mj(max: f64) -> Self {
        Self {
            max_energy_mj: Some(max),
            ..Self::default()
        }
    }

    /// A budget bounding only accumulated FLOPs (the paper's Table I unit).
    pub fn flops(max: u64) -> Self {
        Self {
            max_flops: Some(max),
            ..Self::default()
        }
    }

    /// A budget bounding only accumulated latency.
    pub fn latency_ms(max: f64) -> Self {
        Self {
            max_latency_ms: Some(max),
            ..Self::default()
        }
    }

    /// Returns `true` if charging `next` on top of `spent` stays within
    /// every bounded component.
    pub fn admits(&self, spent: &InferenceCost, next: &InferenceCost) -> bool {
        let flops_ok = self
            .max_flops
            .is_none_or(|max| spent.flops.saturating_add(next.flops) <= max);
        let energy_ok = self
            .max_energy_mj
            .is_none_or(|max| spent.energy_mj + next.energy_mj <= max);
        let latency_ok = self
            .max_latency_ms
            .is_none_or(|max| spent.latency_ms + next.latency_ms <= max);
        flops_ok && energy_ok && latency_ok
    }

    /// Returns `true` if no component is bounded.
    pub fn is_unlimited(&self) -> bool {
        self.max_flops.is_none() && self.max_energy_mj.is_none() && self.max_latency_ms.is_none()
    }
}

/// Accumulates the cost a running system has charged so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostMeter {
    spent: InferenceCost,
    charges: u64,
}

impl CostMeter {
    /// A meter with nothing spent.
    pub fn new() -> Self {
        Self {
            spent: InferenceCost::zero(),
            charges: 0,
        }
    }

    /// Adds one cost to the running total. Accumulation saturates (see
    /// [`InferenceCost::add`]) so a meter that runs for the lifetime of a
    /// deployment pins at `u64::MAX` FLOPs instead of wrapping back under
    /// its budget.
    pub fn charge(&mut self, cost: &InferenceCost) {
        self.spent = self.spent.add(cost);
        self.charges = self.charges.saturating_add(1);
    }

    /// Total cost charged so far.
    pub fn spent(&self) -> InferenceCost {
        self.spent
    }

    /// Number of individual charges recorded.
    pub fn charges(&self) -> u64 {
        self.charges
    }

    /// Resets the meter to zero.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

impl Default for CostMeter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(flops: u64, energy: f64, latency: f64) -> InferenceCost {
        InferenceCost {
            flops,
            energy_mj: energy,
            latency_ms: latency,
        }
    }

    #[test]
    fn unlimited_budget_admits_everything() {
        let b = CostBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.admits(&cost(u64::MAX, 1e30, 1e30), &cost(u64::MAX, 1e30, 1e30)));
    }

    #[test]
    fn energy_budget_rejects_once_exceeded() {
        let b = CostBudget::energy_mj(10.0);
        let spent = cost(0, 8.0, 0.0);
        assert!(b.admits(&spent, &cost(0, 2.0, 0.0)));
        assert!(!b.admits(&spent, &cost(0, 2.1, 0.0)));
        // Other components are unconstrained.
        assert!(b.admits(&spent, &cost(u64::MAX, 1.0, 1e12)));
    }

    #[test]
    fn flops_budget_saturates_instead_of_overflowing() {
        let b = CostBudget::flops(100);
        assert!(!b.admits(&cost(u64::MAX, 0.0, 0.0), &cost(u64::MAX, 0.0, 0.0)));
    }

    #[test]
    fn multi_component_budget_requires_all_components() {
        let b = CostBudget {
            max_flops: Some(100),
            max_energy_mj: Some(10.0),
            max_latency_ms: None,
        };
        assert!(b.admits(&cost(50, 5.0, 0.0), &cost(50, 5.0, 99.0)));
        assert!(!b.admits(&cost(50, 5.0, 0.0), &cost(51, 1.0, 0.0)));
        assert!(!b.admits(&cost(50, 5.0, 0.0), &cost(1, 5.1, 0.0)));
    }

    #[test]
    fn meter_charge_saturates_instead_of_overflowing() {
        // A lifetime meter must pin at the ceiling, not wrap to a small
        // number that a budget would happily admit again.
        let mut m = CostMeter::new();
        m.charge(&cost(u64::MAX - 5, 0.0, 0.0));
        m.charge(&cost(100, 0.0, 0.0));
        assert_eq!(m.spent().flops, u64::MAX);
        // A saturated meter keeps rejecting under any bounded flops budget.
        let b = CostBudget::flops(u64::MAX - 1);
        assert!(!b.admits(&m.spent(), &cost(0, 0.0, 0.0)));
    }

    #[test]
    fn meter_accumulates_and_resets() {
        let mut m = CostMeter::new();
        assert_eq!(m.charges(), 0);
        m.charge(&cost(10, 1.0, 2.0));
        m.charge(&cost(5, 0.5, 1.0));
        assert_eq!(m.spent().flops, 15);
        assert!((m.spent().energy_mj - 1.5).abs() < 1e-12);
        assert_eq!(m.charges(), 2);
        m.reset();
        assert_eq!(m.spent().flops, 0);
        assert_eq!(m.charges(), 0);
    }
}
