//! Pluggable routing policies: who answers each request, edge or cloud.
//!
//! The paper deploys exactly one rule (Eq. 1): keep the input on the edge
//! when `q(1|x) ≥ δ`. A serving system needs that rule as *one policy among
//! several* — a fixed threshold ([`ThresholdPolicy`]), a threshold guarded by
//! a running cost budget ([`BudgetPolicy`], the budgeted reading of Eq. 7),
//! and a threshold calibrated offline from evaluation artifacts to hit a
//! target skipping rate or accuracy ([`CalibratedPolicy`], the Table I / II
//! tuning queries promoted to a deployable object).
//!
//! Policies are *stateful* and are consulted **in input order**, so decisions
//! that depend on history (a draining budget) remain deterministic even when
//! score computation is sharded across worker threads.

use crate::artifacts::EvaluationArtifacts;
use crate::error::{CoreError, CoreResult};
use crate::scores::ScoreKind;
use crate::tuning;
use appeal_hw::{CostBudget, CostMeter, InferenceCost};

/// Where one request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The little network's answer was trusted; the request stayed on the edge.
    Edge,
    /// The request was appealed to the big cloud network.
    Cloud,
}

impl Route {
    /// Returns `true` if the request was appealed to the cloud.
    pub fn is_cloud(&self) -> bool {
        matches!(self, Route::Cloud)
    }
}

/// Per-batch cost context a policy can consult when deciding.
#[derive(Debug, Clone, Copy)]
pub struct RoutingContext {
    /// Cost `c1` of answering on the edge (Eq. 5).
    pub edge_cost: InferenceCost,
    /// Cost `c0` of appealing to the cloud (edge pass + uplink + cloud pass).
    pub offload_cost: InferenceCost,
}

/// Decides, per scored input, whether it stays on the edge.
///
/// `decide` is called once per request in input order; implementations may
/// keep state (budgets, counters) across calls.
pub trait RoutingPolicy: Send {
    /// Short policy name for logs and stats.
    fn name(&self) -> &'static str;

    /// Routes one input given its edge score and the batch's cost context.
    fn decide(&mut self, score: f32, ctx: &RoutingContext) -> Route;
}

/// The paper's Eq. 1: keep the input on the edge iff `score ≥ δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    delta: f64,
}

impl ThresholdPolicy {
    /// Creates the fixed-threshold policy.
    ///
    /// Returns [`CoreError::InvalidThreshold`] if `delta` is outside `[0, 1]`
    /// (predictor scores are probabilities) or NaN.
    pub fn new(delta: f64) -> CoreResult<Self> {
        if !(0.0..=1.0).contains(&delta) {
            return Err(CoreError::InvalidThreshold(delta));
        }
        Ok(Self { delta })
    }

    /// The routing threshold δ.
    pub fn threshold(&self) -> f64 {
        self.delta
    }
}

impl RoutingPolicy for ThresholdPolicy {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn decide(&mut self, score: f32, _ctx: &RoutingContext) -> Route {
        if (score as f64) >= self.delta {
            Route::Edge
        } else {
            Route::Cloud
        }
    }
}

/// Eq. 1 guarded by a running offload budget: difficult inputs are appealed
/// to the cloud *until the budget is exhausted*, after which everything stays
/// on the edge (graceful degradation instead of unbounded cloud spend).
///
/// Each appeal charges the full offload cost `c0` against the budget via an
/// [`appeal_hw::CostMeter`], so the budget can be expressed in FLOPs, energy
/// or latency — whatever the deployment actually pays for.
pub struct BudgetPolicy {
    delta: f64,
    budget: CostBudget,
    meter: CostMeter,
}

impl BudgetPolicy {
    /// Creates a budget policy with threshold `delta` and an offload budget.
    ///
    /// Returns [`CoreError::InvalidThreshold`] if `delta` is outside `[0, 1]`.
    pub fn new(delta: f64, budget: CostBudget) -> CoreResult<Self> {
        if !(0.0..=1.0).contains(&delta) {
            return Err(CoreError::InvalidThreshold(delta));
        }
        Ok(Self {
            delta,
            budget,
            meter: CostMeter::new(),
        })
    }

    /// The routing threshold δ.
    pub fn threshold(&self) -> f64 {
        self.delta
    }

    /// Offload cost charged so far.
    pub fn spent(&self) -> InferenceCost {
        self.meter.spent()
    }

    /// Number of requests appealed so far.
    pub fn appeals(&self) -> u64 {
        self.meter.charges()
    }

    /// Returns `true` if one more offload at `offload_cost` would exceed the
    /// budget.
    pub fn exhausted_for(&self, offload_cost: &InferenceCost) -> bool {
        !self.budget.admits(&self.meter.spent(), offload_cost)
    }

    /// Resets the spent meter (e.g. at the start of a new billing window).
    pub fn reset(&mut self) {
        self.meter.reset();
    }
}

impl RoutingPolicy for BudgetPolicy {
    fn name(&self) -> &'static str {
        "budget"
    }

    fn decide(&mut self, score: f32, ctx: &RoutingContext) -> Route {
        let wants_cloud = (score as f64) < self.delta;
        if wants_cloud && self.budget.admits(&self.meter.spent(), &ctx.offload_cost) {
            self.meter.charge(&ctx.offload_cost);
            Route::Cloud
        } else {
            Route::Edge
        }
    }
}

/// A threshold calibrated offline from [`EvaluationArtifacts`] to hit a
/// target operating point — the Table I / Table II tuning queries (Eq. 11–15
/// metrics) packaged as a deployable policy.
///
/// Unlike [`ThresholdPolicy`], the calibrated δ may legitimately sit outside
/// `[0, 1]` (e.g. "offload everything" is a threshold above the maximum
/// observed score), so no range restriction applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedPolicy {
    delta: f64,
    calibrated_from: ScoreKind,
}

impl CalibratedPolicy {
    /// Calibrates a threshold that keeps (approximately) a `target_sr`
    /// fraction of inputs on the edge — the quantile query behind Fig. 5.
    pub fn for_skipping_rate(artifacts: &EvaluationArtifacts, target_sr: f64) -> CoreResult<Self> {
        Ok(Self {
            delta: artifacts.threshold_for_skipping_rate(target_sr)?,
            calibrated_from: artifacts.score_kind,
        })
    }

    /// Calibrates the cheapest threshold whose overall accuracy (Eq. 13) is
    /// at least `target_accuracy` — the Table I query.
    ///
    /// Returns [`CoreError::UnreachableTarget`] if no threshold reaches the
    /// target on the calibration set.
    pub fn for_accuracy(artifacts: &EvaluationArtifacts, target_accuracy: f64) -> CoreResult<Self> {
        if !(0.0..=1.0).contains(&target_accuracy) {
            return Err(CoreError::InvalidRate(target_accuracy));
        }
        let choice = tuning::min_cost_for_accuracy(artifacts, target_accuracy)?.ok_or(
            CoreError::UnreachableTarget {
                target: target_accuracy,
            },
        )?;
        Ok(Self {
            delta: choice.threshold,
            calibrated_from: artifacts.score_kind,
        })
    }

    /// The calibrated threshold δ.
    pub fn threshold(&self) -> f64 {
        self.delta
    }

    /// The score kind of the artifacts this policy was calibrated from.
    pub fn calibrated_from(&self) -> ScoreKind {
        self.calibrated_from
    }
}

impl RoutingPolicy for CalibratedPolicy {
    fn name(&self) -> &'static str {
        "calibrated"
    }

    fn decide(&mut self, score: f32, _ctx: &RoutingContext) -> Route {
        if (score as f64) >= self.delta {
            Route::Edge
        } else {
            Route::Cloud
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RoutingContext {
        RoutingContext {
            edge_cost: InferenceCost {
                flops: 100,
                energy_mj: 1.0,
                latency_ms: 1.0,
            },
            offload_cost: InferenceCost {
                flops: 1100,
                energy_mj: 10.0,
                latency_ms: 20.0,
            },
        }
    }

    fn artifacts() -> EvaluationArtifacts {
        EvaluationArtifacts {
            scores: (0..10).map(|i| i as f32 / 10.0).collect(),
            little_correct: (0..10).map(|i| i >= 4).collect(),
            big_correct: vec![true; 10],
            hard_flags: vec![false; 10],
            little_flops: 100,
            big_flops: 1000,
            score_kind: ScoreKind::AppealNetQ,
        }
    }

    #[test]
    fn threshold_policy_implements_eq1_boundary() {
        let mut p = ThresholdPolicy::new(0.5).unwrap();
        assert_eq!(
            p.decide(0.5, &ctx()),
            Route::Edge,
            "score == δ stays on edge"
        );
        assert_eq!(p.decide(0.49, &ctx()), Route::Cloud);
        assert!(p.decide(0.51, &ctx()) == Route::Edge);
        assert_eq!(p.threshold(), 0.5);
        assert_eq!(p.name(), "threshold");
    }

    #[test]
    fn threshold_policy_rejects_out_of_range() {
        assert_eq!(
            ThresholdPolicy::new(1.5).unwrap_err(),
            CoreError::InvalidThreshold(1.5)
        );
        assert!(ThresholdPolicy::new(f64::NAN).is_err());
        assert!(ThresholdPolicy::new(-0.1).is_err());
    }

    #[test]
    fn budget_policy_stops_offloading_when_exhausted() {
        // Budget pays for exactly two offloads at 10 mJ each.
        let mut p = BudgetPolicy::new(0.9, CostBudget::energy_mj(25.0)).unwrap();
        let c = ctx();
        assert_eq!(p.decide(0.1, &c), Route::Cloud);
        assert_eq!(p.decide(0.1, &c), Route::Cloud);
        assert!(p.exhausted_for(&c.offload_cost));
        // Third difficult input is forced onto the edge.
        assert_eq!(p.decide(0.1, &c), Route::Edge);
        assert_eq!(p.appeals(), 2);
        assert!((p.spent().energy_mj - 20.0).abs() < 1e-12);
        // Easy inputs never touch the budget.
        assert_eq!(p.decide(0.95, &c), Route::Edge);
        assert_eq!(p.appeals(), 2);
        p.reset();
        assert_eq!(p.decide(0.1, &c), Route::Cloud);
    }

    #[test]
    fn budget_policy_with_unlimited_budget_matches_threshold_policy() {
        let mut b = BudgetPolicy::new(0.6, CostBudget::unlimited()).unwrap();
        let mut t = ThresholdPolicy::new(0.6).unwrap();
        let c = ctx();
        for s in [0.0f32, 0.3, 0.59, 0.6, 0.61, 1.0] {
            assert_eq!(b.decide(s, &c), t.decide(s, &c), "score {s}");
        }
    }

    #[test]
    fn budget_policy_rejects_bad_threshold() {
        assert!(BudgetPolicy::new(2.0, CostBudget::unlimited()).is_err());
    }

    #[test]
    fn calibrated_policy_sr_extremes() {
        let art = artifacts();
        let c = ctx();
        // SR = 1: everything stays on the edge.
        let mut all_edge = CalibratedPolicy::for_skipping_rate(&art, 1.0).unwrap();
        assert!(art
            .scores
            .iter()
            .all(|&s| all_edge.decide(s, &c) == Route::Edge));
        // SR = 0: everything is appealed (δ above the maximum score).
        let mut all_cloud = CalibratedPolicy::for_skipping_rate(&art, 0.0).unwrap();
        assert!(all_cloud.threshold() > 0.9);
        assert!(art
            .scores
            .iter()
            .all(|&s| all_cloud.decide(s, &c) == Route::Cloud));
        assert_eq!(all_cloud.calibrated_from(), ScoreKind::AppealNetQ);
    }

    #[test]
    fn calibrated_policy_rejects_invalid_rate_and_nan_scores() {
        let art = artifacts();
        assert_eq!(
            CalibratedPolicy::for_skipping_rate(&art, 1.2).unwrap_err(),
            CoreError::InvalidRate(1.2)
        );
        let mut bad = artifacts();
        bad.scores[3] = f32::NAN;
        assert_eq!(
            CalibratedPolicy::for_skipping_rate(&bad, 0.5).unwrap_err(),
            CoreError::InvalidScore { index: 3 }
        );
    }

    #[test]
    fn calibrated_policy_for_accuracy() {
        let art = artifacts();
        // Offloading the four lowest-score samples reaches accuracy 1.0.
        let p = CalibratedPolicy::for_accuracy(&art, 1.0).unwrap();
        let m = art.at_threshold(p.threshold()).unwrap();
        assert_eq!(m.overall_accuracy, 1.0);
        // An impossible target is reported as unreachable, not panicked on.
        let mut oracle_free = artifacts();
        oracle_free.big_correct = vec![false; 10];
        oracle_free.little_correct = vec![false; 10];
        assert_eq!(
            CalibratedPolicy::for_accuracy(&oracle_free, 0.9).unwrap_err(),
            CoreError::UnreachableTarget { target: 0.9 }
        );
        assert!(CalibratedPolicy::for_accuracy(&art, 1.5).is_err());
    }
}
