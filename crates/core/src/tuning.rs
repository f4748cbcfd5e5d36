//! Threshold selection.
//!
//! Table I and Table II of the paper fix an accuracy-improvement target
//! (AccI ∈ {50%, 75%, 90%, 95%}) and then tune the routing threshold δ to the
//! cheapest operating point that still meets the target. This module
//! implements that search over precomputed [`EvaluationArtifacts`].
//!
//! All searches validate their inputs up front ([`CoreError::EmptyArtifacts`]
//! on empty artifacts, [`CoreError::InvalidScore`] on NaN scores) and report
//! an unreachable target as `Ok(None)` rather than an error.

use crate::artifacts::EvaluationArtifacts;
use crate::error::{CoreError, CoreResult};
use crate::metrics::RoutedMetrics;

/// Evaluates the metrics of every candidate threshold, in candidate order —
/// the O(n²) scan behind Table I / Table II tuning. The caller has already
/// validated the artifacts, so the per-candidate scans are infallible.
fn candidate_metrics(artifacts: &EvaluationArtifacts) -> CoreResult<Vec<(f64, RoutedMetrics)>> {
    Ok(artifacts
        .candidate_thresholds()?
        .into_iter()
        .map(|t| (t, artifacts.metrics_at(t)))
        .collect())
}

/// A chosen threshold and the metrics it achieves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdChoice {
    /// The selected threshold δ.
    pub threshold: f64,
    /// Metrics of the collaborative system at that threshold.
    pub metrics: RoutedMetrics,
}

/// Finds the cheapest threshold (highest skipping rate) whose relative
/// accuracy improvement (Eq. 14) is at least `target_acci`.
///
/// Returns `Ok(None)` if no threshold reaches the target, or if the
/// little/big accuracy gap vanishes so AccI is undefined; errors on empty
/// artifacts or NaN scores.
pub fn min_cost_for_acci(
    artifacts: &EvaluationArtifacts,
    target_acci: f64,
) -> CoreResult<Option<ThresholdChoice>> {
    artifacts.validate()?;
    // AccI (Eq. 14) is undefined exactly when the little/big accuracy gap
    // vanishes, which is threshold-independent — check it once up front
    // instead of after the full O(n²) candidate scan.
    let n = artifacts.len() as f64;
    let little_acc = artifacts.little_correct.iter().filter(|&&c| c).count() as f64 / n;
    let big_acc = artifacts.big_correct.iter().filter(|&&c| c).count() as f64 / n;
    if (big_acc - little_acc).abs() < 1e-9 {
        return Ok(None);
    }
    let mut best: Option<ThresholdChoice> = None;
    for (t, metrics) in candidate_metrics(artifacts)? {
        let acci = match metrics.accuracy_improvement() {
            Some(acci) => acci,
            None => return Ok(None),
        };
        if acci + 1e-9 >= target_acci {
            let better = match &best {
                None => true,
                Some(b) => metrics.overall_flops < b.metrics.overall_flops,
            };
            if better {
                best = Some(ThresholdChoice {
                    threshold: t,
                    metrics,
                });
            }
        }
    }
    Ok(best)
}

/// Finds the threshold whose overall accuracy is at least `target_accuracy`
/// at minimum cost. Returns `Ok(None)` if the target is unreachable; errors
/// on empty artifacts or NaN scores.
pub fn min_cost_for_accuracy(
    artifacts: &EvaluationArtifacts,
    target_accuracy: f64,
) -> CoreResult<Option<ThresholdChoice>> {
    artifacts.validate()?;
    let mut best: Option<ThresholdChoice> = None;
    for (t, metrics) in candidate_metrics(artifacts)? {
        if metrics.overall_accuracy + 1e-9 >= target_accuracy {
            let better = match &best {
                None => true,
                Some(b) => metrics.overall_flops < b.metrics.overall_flops,
            };
            if better {
                best = Some(ThresholdChoice {
                    threshold: t,
                    metrics,
                });
            }
        }
    }
    Ok(best)
}

/// Finds the most accurate threshold whose skipping rate is at least
/// `min_sr` (i.e. whose cost does not exceed the corresponding budget),
/// mirroring the budgeted formulation of the paper's Eq. 7.
///
/// Errors on empty artifacts, NaN scores, or `min_sr` outside `[0, 1]`.
pub fn max_accuracy_for_skipping_rate(
    artifacts: &EvaluationArtifacts,
    min_sr: f64,
) -> CoreResult<ThresholdChoice> {
    artifacts.validate()?;
    if !(0.0..=1.0).contains(&min_sr) {
        return Err(CoreError::InvalidRate(min_sr));
    }
    let mut best: Option<ThresholdChoice> = None;
    for (t, metrics) in candidate_metrics(artifacts)? {
        if metrics.skipping_rate + 1e-9 >= min_sr {
            let better = match &best {
                None => true,
                Some(b) => metrics.overall_accuracy > b.metrics.overall_accuracy,
            };
            if better {
                best = Some(ThresholdChoice {
                    threshold: t,
                    metrics,
                });
            }
        }
    }
    Ok(best.expect("threshold 0 always satisfies any skipping-rate floor"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scores::ScoreKind;

    /// Ten samples with scores 0.0..0.9; the little model is correct exactly
    /// on the six highest-scoring samples, the big model is always correct.
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
    fn full_acci_requires_offloading_all_little_mistakes() {
        let choice = min_cost_for_acci(&artifacts(), 1.0)
            .unwrap()
            .expect("reachable");
        // Little accuracy 0.6, big 1.0; AccI = 1 needs overall accuracy 1.0,
        // achieved by offloading the four lowest-score samples (SR = 0.6).
        assert!((choice.metrics.skipping_rate - 0.6).abs() < 1e-9);
        assert_eq!(choice.metrics.overall_accuracy, 1.0);
    }

    #[test]
    fn partial_acci_is_cheaper_than_full() {
        let full = min_cost_for_acci(&artifacts(), 1.0).unwrap().unwrap();
        let half = min_cost_for_acci(&artifacts(), 0.5).unwrap().unwrap();
        assert!(half.metrics.overall_flops < full.metrics.overall_flops);
        assert!(half.metrics.accuracy_improvement().unwrap() >= 0.5);
    }

    #[test]
    fn zero_acci_target_keeps_everything_on_edge() {
        let choice = min_cost_for_acci(&artifacts(), 0.0).unwrap().unwrap();
        assert!((choice.metrics.skipping_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_acci_returns_none() {
        let mut a = artifacts();
        // Make the big model as bad as the little one on the mistaken inputs,
        // so AccI = 1.2 is impossible.
        a.big_correct = a.little_correct.clone();
        assert!(min_cost_for_acci(&a, 1.2).unwrap().is_none());
    }

    #[test]
    fn accuracy_target_search() {
        let choice = min_cost_for_accuracy(&artifacts(), 0.8).unwrap().unwrap();
        assert!(choice.metrics.overall_accuracy >= 0.8);
        // 0.8 accuracy needs only half of the little model's mistakes fixed.
        assert!(choice.metrics.skipping_rate >= 0.6);
        assert!(min_cost_for_accuracy(&artifacts(), 1.01).unwrap().is_none());
    }

    #[test]
    fn budgeted_search_trades_accuracy_for_cost() {
        let tight = max_accuracy_for_skipping_rate(&artifacts(), 0.9).unwrap();
        let loose = max_accuracy_for_skipping_rate(&artifacts(), 0.5).unwrap();
        assert!(tight.metrics.skipping_rate >= 0.9);
        assert!(loose.metrics.overall_accuracy >= tight.metrics.overall_accuracy);
    }

    #[test]
    fn acci_undefined_returns_none() {
        let mut a = artifacts();
        a.big_correct = a.little_correct.clone();
        // Gap is zero -> AccI undefined -> None even for an easy target.
        assert!(min_cost_for_acci(&a, 0.5).unwrap().is_none());
    }

    #[test]
    fn invalid_inputs_are_reported_not_panicked() {
        let mut empty = artifacts();
        empty.scores.clear();
        empty.little_correct.clear();
        empty.big_correct.clear();
        assert_eq!(
            min_cost_for_acci(&empty, 0.5).unwrap_err(),
            CoreError::EmptyArtifacts
        );
        let mut nan = artifacts();
        nan.scores[0] = f32::NAN;
        assert_eq!(
            min_cost_for_accuracy(&nan, 0.5).unwrap_err(),
            CoreError::InvalidScore { index: 0 }
        );
        assert_eq!(
            max_accuracy_for_skipping_rate(&artifacts(), 1.5).unwrap_err(),
            CoreError::InvalidRate(1.5)
        );
    }
}
