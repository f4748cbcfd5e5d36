//! Skipping-rate sweeps across routing methods (the shape of the paper's Fig. 5).

use crate::artifacts::EvaluationArtifacts;
use crate::error::{CoreError, CoreResult};
use crate::metrics::RoutedMetrics;
use crate::scores::ScoreKind;

/// The accuracy-vs-skipping-rate curve of one routing method.
#[derive(Debug, Clone)]
pub struct MethodSeries {
    /// Routing score used by this method.
    pub score: ScoreKind,
    /// One metrics point per requested skipping rate.
    pub points: Vec<RoutedMetrics>,
}

impl MethodSeries {
    /// The overall accuracies of the series, in sweep order.
    pub fn accuracies(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.overall_accuracy).collect()
    }
}

/// Result of sweeping several methods over a skipping-rate grid.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The requested skipping rates (fractions in `[0, 1]`).
    pub skipping_rates: Vec<f64>,
    /// One curve per method.
    pub series: Vec<MethodSeries>,
    /// Stand-alone accuracy of the big network (the dashed reference line in Fig. 5).
    pub big_accuracy: f64,
    /// Stand-alone accuracy of the little network.
    pub little_accuracy: f64,
}

impl SweepResult {
    /// The series for a particular score kind, if present.
    pub fn series_for(&self, score: ScoreKind) -> Option<&MethodSeries> {
        self.series.iter().find(|s| s.score == score)
    }

    /// Number of sweep points where `a` achieves an overall accuracy at least
    /// as high as `b` (used to verify "AppealNet is above the baselines in
    /// most cases").
    pub fn wins(&self, a: ScoreKind, b: ScoreKind) -> usize {
        match (self.series_for(a), self.series_for(b)) {
            (Some(sa), Some(sb)) => sa
                .points
                .iter()
                .zip(sb.points.iter())
                .filter(|(pa, pb)| pa.overall_accuracy + 1e-12 >= pb.overall_accuracy)
                .count(),
            _ => 0,
        }
    }
}

/// The skipping-rate grid used throughout the paper's Fig. 5: 70% to 100% in 5% steps.
pub fn paper_sr_grid() -> Vec<f64> {
    (0..=6).map(|i| 0.70 + 0.05 * i as f64).collect()
}

/// Evaluates each method's artifacts at every requested skipping rate.
///
/// Each method sorts its scores once for the whole grid instead of once per
/// rate; series come back in `methods` order.
///
/// Errors with [`CoreError::EmptyMethods`] if `methods` is empty, and
/// propagates [`CoreError::EmptyArtifacts`] / [`CoreError::InvalidScore`] /
/// [`CoreError::InvalidRate`] from any method's artifacts before the sweep
/// starts.
pub fn sweep_methods(
    methods: &[(ScoreKind, &EvaluationArtifacts)],
    skipping_rates: &[f64],
) -> CoreResult<SweepResult> {
    if methods.is_empty() {
        return Err(CoreError::EmptyMethods);
    }
    // Validate everything up front so the sweep below is infallible.
    for (_, artifacts) in methods {
        artifacts.validate()?;
    }
    if let Some(&bad) = skipping_rates.iter().find(|sr| !(0.0..=1.0).contains(*sr)) {
        return Err(CoreError::InvalidRate(bad));
    }
    let series: Vec<MethodSeries> = methods
        .iter()
        .map(|(score, artifacts)| MethodSeries {
            score: *score,
            points: artifacts
                .thresholds_for_skipping_rates(skipping_rates)
                .expect("methods validated before the sweep")
                .into_iter()
                .map(|t| artifacts.metrics_at(t))
                .collect(),
        })
        .collect();
    let reference = methods[0].1;
    let all_little =
        reference.little_correct.iter().filter(|&&c| c).count() as f64 / reference.len() as f64;
    let all_big =
        reference.big_correct.iter().filter(|&&c| c).count() as f64 / reference.len() as f64;
    Ok(SweepResult {
        skipping_rates: skipping_rates.to_vec(),
        series,
        big_accuracy: all_big,
        little_accuracy: all_little,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts(scores: Vec<f32>, little: Vec<bool>) -> EvaluationArtifacts {
        let n = scores.len();
        EvaluationArtifacts {
            scores,
            little_correct: little,
            big_correct: vec![true; n],
            hard_flags: vec![false; n],
            little_flops: 10,
            big_flops: 100,
            score_kind: ScoreKind::AppealNetQ,
        }
    }

    #[test]
    fn grid_matches_paper_range() {
        let grid = paper_sr_grid();
        assert_eq!(grid.len(), 7);
        assert!((grid[0] - 0.70).abs() < 1e-12);
        assert!((grid[6] - 1.00).abs() < 1e-12);
    }

    #[test]
    fn sweep_produces_one_point_per_rate_per_method() {
        let n = 20;
        let good = artifacts(
            (0..n).map(|i| i as f32 / n as f32).collect(),
            (0..n).map(|i| i >= 5).collect(),
        );
        let result = sweep_methods(&[(ScoreKind::AppealNetQ, &good)], &paper_sr_grid()).unwrap();
        assert_eq!(result.series.len(), 1);
        assert_eq!(result.series[0].points.len(), 7);
        assert!(result.big_accuracy > result.little_accuracy);
    }

    #[test]
    fn oracle_scores_beat_random_scores() {
        let n = 40;
        // Oracle: score tracks correctness (with small unique offsets so every
        // skipping rate is achievable); random: score unrelated.
        let little: Vec<bool> = (0..n).map(|i| i % 4 != 0).collect();
        let oracle = artifacts(
            little
                .iter()
                .enumerate()
                .map(|(i, &c)| if c { 0.9 } else { 0.1 } + i as f32 * 1e-4)
                .collect(),
            little.clone(),
        );
        let random = artifacts((0..n).map(|i| (i % 7) as f32 / 7.0).collect(), little);
        let result = sweep_methods(
            &[(ScoreKind::AppealNetQ, &oracle), (ScoreKind::Msp, &random)],
            &paper_sr_grid(),
        )
        .unwrap();
        let wins = result.wins(ScoreKind::AppealNetQ, ScoreKind::Msp);
        assert!(wins >= 6, "oracle should dominate, won {wins}/7");
    }

    #[test]
    fn accuracy_declines_as_skipping_rate_grows_for_imperfect_little_model() {
        let n = 50;
        let little: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let a = artifacts(
            little.iter().map(|&c| if c { 0.8 } else { 0.2 }).collect(),
            little,
        );
        let result = sweep_methods(&[(ScoreKind::AppealNetQ, &a)], &[0.0, 0.5, 1.0]).unwrap();
        let accs = result.series[0].accuracies();
        assert!(accs[0] >= accs[2]);
    }

    #[test]
    fn invalid_sweeps_are_reported_not_panicked() {
        assert_eq!(
            sweep_methods(&[], &[0.5]).unwrap_err(),
            CoreError::EmptyMethods
        );
        let mut nan = artifacts(vec![0.1, 0.9], vec![false, true]);
        nan.scores[1] = f32::NAN;
        assert_eq!(
            sweep_methods(&[(ScoreKind::Msp, &nan)], &[0.5]).unwrap_err(),
            CoreError::InvalidScore { index: 1 }
        );
        let ok = artifacts(vec![0.1, 0.9], vec![false, true]);
        assert_eq!(
            sweep_methods(&[(ScoreKind::Msp, &ok)], &[0.5, 1.5]).unwrap_err(),
            CoreError::InvalidRate(1.5)
        );
    }

    #[test]
    fn series_lookup() {
        let a = artifacts(vec![0.1, 0.9], vec![false, true]);
        let result = sweep_methods(&[(ScoreKind::Msp, &a)], &[1.0]).unwrap();
        assert!(result.series_for(ScoreKind::Msp).is_some());
        assert!(result.series_for(ScoreKind::Entropy).is_none());
    }
}
