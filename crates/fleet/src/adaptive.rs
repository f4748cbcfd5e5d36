//! The adaptive offload budget: a per-node feedback controller that tightens
//! a windowed [`CostBudget`] as the observed appeal latency degrades.
//!
//! The paper's routing rule (Eq. 1) is oblivious to *link health*: if the
//! uplink degrades, every appeal still goes out and simply takes longer. The
//! [`AdaptiveBudget`] closes that loop — an experiment the paper never runs.
//! Each node meters the offload cost it charges per fixed-size request
//! window (reusing [`appeal_hw::CostBudget`]/[`CostMeter`], the same
//! machinery behind `appealnet_core`'s `BudgetPolicy`) and, at every window
//! boundary, compares the *measured* mean appeal round-trip against a target:
//! if appeals are running slow the per-window latency budget halves (AIMD
//! style, floored), forcing difficult inputs back onto the edge; if they run
//! healthy the budget doubles back up toward its configured maximum.

use crate::error::{is_positive, FleetError, FleetResult};
use appeal_hw::{CostBudget, CostMeter, InferenceCost};

/// Parameters of the per-node adaptive offload budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Requests per control window; the budget is re-evaluated and the spend
    /// meter reset at every window boundary.
    pub window: u64,
    /// Initial (and maximum) per-window offload latency budget, in
    /// milliseconds of accumulated estimated appeal latency.
    pub budget_ms: f64,
    /// Observed mean appeal round-trip above which the budget tightens, in
    /// milliseconds.
    pub target_ms: f64,
    /// Lowest the per-window budget may fall, in milliseconds.
    pub floor_ms: f64,
}

/// The feedback controller itself: one per edge node.
#[derive(Debug, Clone)]
pub struct AdaptiveBudget {
    config: AdaptiveConfig,
    current_ms: f64,
    meter: CostMeter,
    in_window: u64,
    observed_sum_ms: f64,
    observed_count: u64,
    tightenings: u64,
}

impl AdaptiveBudget {
    /// Creates a controller starting at the full budget.
    ///
    /// Returns [`FleetError::InvalidConfig`] if the window is zero, any
    /// latency parameter is not positive, or the floor exceeds the budget.
    pub fn new(config: AdaptiveConfig) -> FleetResult<Self> {
        if config.window == 0 {
            return Err(FleetError::InvalidConfig {
                what: "adaptive window must be positive",
            });
        }
        if !is_positive(config.budget_ms) {
            return Err(FleetError::InvalidConfig {
                what: "adaptive budget_ms must be positive",
            });
        }
        if !is_positive(config.target_ms) {
            return Err(FleetError::InvalidConfig {
                what: "adaptive target_ms must be positive",
            });
        }
        if !is_positive(config.floor_ms) || config.floor_ms > config.budget_ms {
            return Err(FleetError::InvalidConfig {
                what: "adaptive floor_ms must be positive and at most budget_ms",
            });
        }
        Ok(Self {
            config,
            current_ms: config.budget_ms,
            meter: CostMeter::new(),
            in_window: 0,
            observed_sum_ms: 0.0,
            observed_count: 0,
            tightenings: 0,
        })
    }

    /// Registers one request seen by the node, rolling the control window
    /// when it fills.
    pub fn on_request(&mut self) {
        self.in_window += 1;
        if self.in_window >= self.config.window {
            self.roll_window();
        }
    }

    /// Whether one more appeal at the estimated `offload` cost fits the
    /// current window's budget.
    pub fn admits(&self, offload: &InferenceCost) -> bool {
        CostBudget::latency_ms(self.current_ms).admits(&self.meter.spent(), offload)
    }

    /// Charges an admitted appeal against the window's budget.
    pub fn charge(&mut self, offload: &InferenceCost) {
        self.meter.charge(offload);
    }

    /// Feeds back one measured appeal round-trip, in milliseconds.
    pub fn observe(&mut self, round_trip_ms: f64) {
        self.observed_sum_ms += round_trip_ms;
        self.observed_count += 1;
    }

    /// The current per-window latency budget, in milliseconds.
    pub fn current_budget_ms(&self) -> f64 {
        self.current_ms
    }

    /// How many times the controller has tightened the budget.
    pub fn tightenings(&self) -> u64 {
        self.tightenings
    }

    fn roll_window(&mut self) {
        let degraded = self.observed_count > 0
            && self.observed_sum_ms / self.observed_count as f64 > self.config.target_ms;
        if degraded {
            self.current_ms = (self.current_ms / 2.0).max(self.config.floor_ms);
            self.tightenings += 1;
        } else {
            self.current_ms = (self.current_ms * 2.0).min(self.config.budget_ms);
        }
        self.meter.reset();
        self.in_window = 0;
        self.observed_sum_ms = 0.0;
        self.observed_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            window: 4,
            budget_ms: 100.0,
            target_ms: 50.0,
            floor_ms: 10.0,
        }
    }

    fn offload(ms: f64) -> InferenceCost {
        InferenceCost {
            flops: 1000,
            energy_mj: 1.0,
            latency_ms: ms,
        }
    }

    #[test]
    fn admits_until_window_budget_is_spent() {
        let mut a = AdaptiveBudget::new(config()).unwrap();
        let c = offload(40.0);
        assert!(a.admits(&c));
        a.charge(&c);
        assert!(a.admits(&c));
        a.charge(&c);
        // 80 ms spent; a third 40 ms appeal exceeds the 100 ms window.
        assert!(!a.admits(&c));
    }

    #[test]
    fn slow_appeals_tighten_toward_the_floor() {
        let mut a = AdaptiveBudget::new(config()).unwrap();
        for round in 0..8 {
            a.observe(120.0); // far above the 50 ms target
            for _ in 0..4 {
                a.on_request();
            }
            assert!(
                a.current_budget_ms() < 100.0,
                "round {round} must have tightened"
            );
        }
        assert!(
            (a.current_budget_ms() - 10.0).abs() < 1e-9,
            "pinned at floor"
        );
        assert!(a.tightenings() >= 4);
    }

    #[test]
    fn healthy_appeals_recover_the_budget() {
        let mut a = AdaptiveBudget::new(config()).unwrap();
        a.observe(120.0);
        for _ in 0..4 {
            a.on_request();
        }
        assert!((a.current_budget_ms() - 50.0).abs() < 1e-9);
        // A healthy window doubles back up (capped at the configured max).
        a.observe(5.0);
        for _ in 0..4 {
            a.on_request();
        }
        assert!((a.current_budget_ms() - 100.0).abs() < 1e-9);
        // Windows with no observations also recover.
        for _ in 0..4 {
            a.on_request();
        }
        assert!((a.current_budget_ms() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn window_boundary_resets_the_meter() {
        let mut a = AdaptiveBudget::new(config()).unwrap();
        let c = offload(90.0);
        a.charge(&c);
        assert!(!a.admits(&c));
        for _ in 0..4 {
            a.on_request();
        }
        assert!(a.admits(&c), "fresh window admits again");
    }

    #[test]
    fn rejects_invalid_configs() {
        for (bad, what) in [
            (
                AdaptiveConfig {
                    window: 0,
                    ..config()
                },
                "window",
            ),
            (
                AdaptiveConfig {
                    budget_ms: 0.0,
                    ..config()
                },
                "budget_ms",
            ),
            (
                AdaptiveConfig {
                    target_ms: -1.0,
                    ..config()
                },
                "target_ms",
            ),
            (
                AdaptiveConfig {
                    floor_ms: 200.0,
                    ..config()
                },
                "floor_ms",
            ),
        ] {
            match AdaptiveBudget::new(bad) {
                Err(FleetError::InvalidConfig { what: msg }) => {
                    assert!(msg.contains(what), "{msg} should mention {what}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
