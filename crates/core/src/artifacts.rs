//! Precomputed evaluation artifacts.
//!
//! For experiments it is wasteful to re-run both networks for every candidate
//! threshold δ, so [`EvaluationArtifacts`] stores per-sample routing scores
//! and correctness flags once; every threshold or skipping-rate query is then
//! a cheap scan. The runtime counterpart — routing live inputs per Eq. 1 — is
//! [`crate::serve::Engine`].

use crate::error::{CoreError, CoreResult};
use crate::metrics::{routed_metrics, RoutedMetrics};
use crate::parallel::{self, ChunkPolicy};
use crate::scores::{confidence_scores, ScoreKind};
use crate::two_head::TwoHeadNet;
use appeal_models::ClassifierParts;
use appeal_tensor::loss::SoftmaxCrossEntropy;
use appeal_tensor::Tensor;

/// Per-sample artifacts of evaluating a little/big model pair on a dataset.
#[derive(Debug, Clone)]
pub struct EvaluationArtifacts {
    /// Routing score per input (higher = keep on the edge).
    pub scores: Vec<f32>,
    /// Whether the little network classifies each input correctly.
    pub little_correct: Vec<bool>,
    /// Whether the big network classifies each input correctly.
    pub big_correct: Vec<bool>,
    /// Ground-truth difficulty flags from the dataset synthesizer (analysis only).
    pub hard_flags: Vec<bool>,
    /// Per-inference FLOPs of the little network (including the predictor head).
    pub little_flops: u64,
    /// Per-inference FLOPs of the big network.
    pub big_flops: u64,
    /// Which score produced `scores`.
    pub score_kind: ScoreKind,
}

impl EvaluationArtifacts {
    /// Number of evaluated samples.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Returns `true` if no samples were evaluated.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Validates that the artifacts support routing queries: non-empty, no
    /// NaN score, and per-sample correctness vectors as long as `scores`
    /// (hand-built artifacts can violate any of these).
    pub fn validate(&self) -> CoreResult<()> {
        if self.is_empty() {
            return Err(CoreError::EmptyArtifacts);
        }
        let n = self.scores.len();
        for (field, len) in [
            ("little_correct", self.little_correct.len()),
            ("big_correct", self.big_correct.len()),
        ] {
            if len != n {
                return Err(CoreError::LengthMismatch {
                    field,
                    expected: n,
                    got: len,
                });
            }
        }
        if let Some(index) = self.scores.iter().position(|s| s.is_nan()) {
            return Err(CoreError::InvalidScore { index });
        }
        Ok(())
    }

    /// Metrics when inputs with score `≥ δ` stay on the edge (Eq. 1).
    ///
    /// `delta` may lie outside `[0, 1]` (e.g. a candidate threshold above the
    /// maximum score routes everything to the cloud) but must not be NaN.
    pub fn at_threshold(&self, delta: f64) -> CoreResult<RoutedMetrics> {
        self.validate()?;
        if delta.is_nan() {
            return Err(CoreError::InvalidThreshold(delta));
        }
        Ok(self.metrics_at(delta))
    }

    /// Infallible core of [`Self::at_threshold`] for pre-validated callers.
    pub(crate) fn metrics_at(&self, delta: f64) -> RoutedMetrics {
        let keep: Vec<bool> = self.scores.iter().map(|&s| (s as f64) >= delta).collect();
        routed_metrics(
            &keep,
            &self.little_correct,
            &self.big_correct,
            self.little_flops,
            self.big_flops,
            delta,
        )
    }

    /// The threshold δ that keeps (approximately) a `target_sr` fraction of
    /// inputs on the edge: the `(1 − target_sr)` quantile of the scores.
    pub fn threshold_for_skipping_rate(&self, target_sr: f64) -> CoreResult<f64> {
        Ok(self.thresholds_for_skipping_rates(std::slice::from_ref(&target_sr))?[0])
    }

    /// Metrics at (approximately) the requested skipping rate.
    pub fn at_skipping_rate(&self, target_sr: f64) -> CoreResult<RoutedMetrics> {
        Ok(self.metrics_at(self.threshold_for_skipping_rate(target_sr)?))
    }

    /// Thresholds for several target skipping rates at once, sorting the
    /// scores a single time (the sweep hot path evaluates whole grids).
    ///
    /// Errors with [`CoreError::EmptyArtifacts`] on empty artifacts,
    /// [`CoreError::InvalidScore`] if any score is NaN, and
    /// [`CoreError::InvalidRate`] if any rate is outside `[0, 1]`.
    pub fn thresholds_for_skipping_rates(&self, target_srs: &[f64]) -> CoreResult<Vec<f64>> {
        self.validate()?;
        if let Some(&bad) = target_srs.iter().find(|sr| !(0.0..=1.0).contains(*sr)) {
            return Err(CoreError::InvalidRate(bad));
        }
        let mut sorted: Vec<f32> = self.scores.clone();
        // validate() rejected NaN, so the comparison is total.
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN scores rejected by validate"));
        let n = sorted.len();
        Ok(target_srs
            .iter()
            .map(|&sr| {
                // Keep the top `sr` fraction on the edge.
                let k = ((1.0 - sr) * n as f64).round() as usize;
                if k >= n {
                    // Nothing stays on the edge: a threshold above the maximum.
                    sorted[n - 1] as f64 + 1.0
                } else {
                    sorted[k] as f64
                }
            })
            .collect())
    }

    /// Candidate thresholds: every distinct score value (plus one above the
    /// maximum), which is sufficient to enumerate every possible routing.
    ///
    /// Errors with [`CoreError::EmptyArtifacts`] on empty artifacts and
    /// [`CoreError::InvalidScore`] if any score is NaN.
    pub fn candidate_thresholds(&self) -> CoreResult<Vec<f64>> {
        self.validate()?;
        let mut t: Vec<f64> = self.scores.iter().map(|&s| s as f64).collect();
        t.sort_by(|a, b| a.partial_cmp(b).expect("NaN scores rejected by validate"));
        t.dedup();
        if let Some(&max) = t.last() {
            t.push(max + 1.0);
        }
        Ok(t)
    }

    /// Largest absolute per-sample score difference against `other`.
    ///
    /// Errors if either side fails [`Self::validate`] or the sample counts
    /// differ. This is the observable divergence between an f32 and a
    /// quantized evaluation of the same model on the same inputs.
    pub fn max_score_divergence(&self, other: &Self) -> CoreResult<f64> {
        self.validate()?;
        other.validate()?;
        if self.len() != other.len() {
            return Err(CoreError::LengthMismatch {
                field: "scores",
                expected: self.len(),
                got: other.len(),
            });
        }
        Ok(self
            .scores
            .iter()
            .zip(&other.scores)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
            .fold(0.0, f64::max))
    }

    /// Compares the routing these artifacts and `other` induce at threshold
    /// `delta`, attributing every disagreement to scores within `tol` of δ.
    ///
    /// If the two score sets really differ by at most `tol` per sample
    /// (e.g. f32 vs Q8_0 under the quantized-tolerance contract), a routing
    /// flip can only happen where a score *straddles* the threshold —
    /// [`RoutingDivergence::unexplained`] must come back 0.
    ///
    /// Errors if either side fails [`Self::validate`], the sample counts
    /// differ, or `delta`/`tol` is NaN (or `tol` negative).
    pub fn routing_divergence(
        &self,
        other: &Self,
        delta: f64,
        tol: f64,
    ) -> CoreResult<RoutingDivergence> {
        self.validate()?;
        other.validate()?;
        if self.len() != other.len() {
            return Err(CoreError::LengthMismatch {
                field: "scores",
                expected: self.len(),
                got: other.len(),
            });
        }
        if delta.is_nan() {
            return Err(CoreError::InvalidThreshold(delta));
        }
        if tol.is_nan() || tol < 0.0 {
            return Err(CoreError::InvalidThreshold(tol));
        }
        let mut div = RoutingDivergence {
            total: self.len(),
            differing: 0,
            straddling: 0,
            unexplained: 0,
        };
        for (&a, &b) in self.scores.iter().zip(&other.scores) {
            let (a, b) = (f64::from(a), f64::from(b));
            let differs = (a >= delta) != (b >= delta);
            let straddles = (a - delta).abs() <= tol || (b - delta).abs() <= tol;
            if differs {
                div.differing += 1;
            }
            if straddles {
                div.straddling += 1;
            }
            if differs && !straddles {
                div.unexplained += 1;
            }
        }
        Ok(div)
    }

    /// Builds artifacts for an AppealNet two-head model: the routing score is
    /// the predictor output `q(1|x)`.
    pub fn from_two_head(
        net: &mut TwoHeadNet,
        big: &mut ClassifierParts,
        images: &Tensor,
        labels: &[usize],
        hard_flags: &[bool],
        batch_size: usize,
    ) -> Self {
        let out = net.evaluate(images, batch_size);
        let little_correct: Vec<bool> = out
            .predictions()
            .iter()
            .zip(labels.iter())
            .map(|(p, y)| p == y)
            .collect();
        let big_correct = classifier_correctness(big, images, labels, batch_size);
        Self {
            scores: out.q,
            little_correct,
            big_correct,
            hard_flags: hard_flags.to_vec(),
            little_flops: net.flops(),
            big_flops: big.total_flops(),
            score_kind: ScoreKind::AppealNetQ,
        }
    }

    /// Assembles baseline artifacts for one confidence score from a
    /// precomputed probability matrix and correctness flags. This is the
    /// single assembly path shared by [`Self::from_confidence_baseline`] and
    /// the multi-kind pipeline in [`crate::experiments::PreparedExperiment`],
    /// which computes the probabilities/correctness passes once and reuses
    /// them for every kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`ScoreKind::AppealNetQ`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_probabilities(
        probs: &Tensor,
        little_correct: Vec<bool>,
        big_correct: Vec<bool>,
        hard_flags: &[bool],
        little_flops: u64,
        big_flops: u64,
        kind: ScoreKind,
    ) -> Self {
        assert!(
            kind.is_confidence_baseline(),
            "use from_two_head for the AppealNet score"
        );
        Self {
            scores: confidence_scores(probs, kind),
            little_correct,
            big_correct,
            hard_flags: hard_flags.to_vec(),
            little_flops,
            big_flops,
            score_kind: kind,
        }
    }

    /// Builds artifacts for a plain little classifier using one of the
    /// confidence-score baselines (MSP, SM, Entropy), running both models.
    ///
    /// Evaluating several kinds (or the AppealNet score alongside them)?
    /// Use [`crate::experiments::PreparedExperiment`], which runs each model
    /// once and shares the passes across kinds via
    /// [`Self::from_probabilities`].
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`ScoreKind::AppealNetQ`].
    pub fn from_confidence_baseline(
        little: &mut ClassifierParts,
        big: &mut ClassifierParts,
        images: &Tensor,
        labels: &[usize],
        hard_flags: &[bool],
        kind: ScoreKind,
        batch_size: usize,
    ) -> Self {
        let logits = classifier_logits(little, images, batch_size);
        let probs = SoftmaxCrossEntropy::new().probabilities(&logits);
        let little_correct: Vec<bool> = logits
            .argmax_rows()
            .iter()
            .zip(labels.iter())
            .map(|(p, y)| p == y)
            .collect();
        let big_correct = classifier_correctness(big, images, labels, batch_size);
        Self::from_probabilities(
            &probs,
            little_correct,
            big_correct,
            hard_flags,
            little.total_flops(),
            big.total_flops(),
            kind,
        )
    }
}

/// Runs a classifier over a dataset in batches and returns the stacked
/// logits, sharding the pass across worker threads when the workload is
/// large enough for the runtime [`ChunkPolicy`].
fn classifier_logits(model: &mut ClassifierParts, images: &Tensor, batch_size: usize) -> Tensor {
    parallel::classifier_logits(model, images, batch_size, &ChunkPolicy::runtime())
}

fn classifier_correctness(
    model: &mut ClassifierParts,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Vec<bool> {
    parallel::classifier_correctness(model, images, labels, batch_size, &ChunkPolicy::runtime())
}

/// How the routing induced by two score sets compares at one threshold δ
/// (see [`EvaluationArtifacts::routing_divergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingDivergence {
    /// Samples compared.
    pub total: usize,
    /// Samples the two score sets route differently at δ.
    pub differing: usize,
    /// Samples whose score (in either set) lies within the tolerance of δ.
    pub straddling: usize,
    /// Samples routed differently although *neither* score is within the
    /// tolerance of δ. Zero whenever the score sets genuinely differ by at
    /// most the tolerance per sample.
    pub unexplained: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_models::{ModelFamily, ModelSpec};
    use appeal_tensor::SeededRng;

    fn synthetic_artifacts() -> EvaluationArtifacts {
        // Scores 0.0..1.0 over 10 samples; little correct on high-score ones.
        EvaluationArtifacts {
            scores: (0..10).map(|i| i as f32 / 10.0).collect(),
            little_correct: (0..10).map(|i| i >= 4).collect(),
            big_correct: vec![true; 10],
            hard_flags: (0..10).map(|i| i < 4).collect(),
            little_flops: 100,
            big_flops: 1000,
            score_kind: ScoreKind::AppealNetQ,
        }
    }

    #[test]
    fn threshold_zero_keeps_everything_on_edge() {
        let a = synthetic_artifacts();
        let m = a.at_threshold(0.0).unwrap();
        assert_eq!(m.skipping_rate, 1.0);
        assert_eq!(m.overall_accuracy, 0.6);
    }

    #[test]
    fn high_threshold_offloads_everything() {
        let a = synthetic_artifacts();
        let m = a.at_threshold(2.0).unwrap();
        assert_eq!(m.skipping_rate, 0.0);
        assert_eq!(m.overall_accuracy, 1.0);
        assert_eq!(m.overall_flops, 1100.0);
    }

    #[test]
    fn perfect_scores_give_perfect_accuracy_at_intermediate_sr() {
        // Keeping the 60% of inputs the little model gets right and
        // offloading the rest yields 100% accuracy here.
        let a = synthetic_artifacts();
        let m = a.at_skipping_rate(0.6).unwrap();
        assert!((m.skipping_rate - 0.6).abs() < 1e-9);
        assert_eq!(m.overall_accuracy, 1.0);
    }

    #[test]
    fn threshold_for_sr_hits_requested_rate() {
        let a = synthetic_artifacts();
        for target in [0.0, 0.3, 0.5, 0.8, 1.0] {
            let m = a.at_skipping_rate(target).unwrap();
            assert!(
                (m.skipping_rate - target).abs() <= 0.1 + 1e-9,
                "target {target} got {}",
                m.skipping_rate
            );
        }
    }

    #[test]
    fn candidate_thresholds_cover_all_routings() {
        let a = synthetic_artifacts();
        let thresholds = a.candidate_thresholds().unwrap();
        assert_eq!(thresholds.len(), 11);
        let srs: Vec<f64> = thresholds
            .iter()
            .map(|&t| a.at_threshold(t).unwrap().skipping_rate)
            .collect();
        assert!(srs.contains(&1.0));
        assert!(srs.contains(&0.0));
    }

    #[test]
    fn routing_divergence_attributes_every_flip_to_straddling_scores() {
        let a = synthetic_artifacts();
        let mut b = a.clone();
        // Shift every score by less than the tolerance: any routing flip at
        // δ must then involve a score within tol of δ.
        for s in &mut b.scores {
            *s += 0.04;
        }
        assert!(a.max_score_divergence(&b).unwrap() <= 0.05);
        let div = a.routing_divergence(&b, 0.43, 0.05).unwrap();
        assert_eq!(div.total, 10);
        assert!(div.differing > 0, "the shift must flip at least one route");
        assert_eq!(div.unexplained, 0);
        // Identical scores: no flips at all, even at zero tolerance.
        let same = a.routing_divergence(&a, 0.43, 0.0).unwrap();
        assert_eq!(same.differing, 0);
        assert_eq!(same.unexplained, 0);
        assert_eq!(a.max_score_divergence(&a).unwrap(), 0.0);
    }

    #[test]
    fn routing_divergence_flags_unexplained_flips() {
        let a = synthetic_artifacts();
        let mut b = a.clone();
        // Sample 9 (score 0.9) drops below δ although it is far from δ in
        // both sets: an unexplained flip the tolerance cannot absorb.
        b.scores[9] = 0.1;
        let div = a.routing_divergence(&b, 0.43, 0.05).unwrap();
        assert_eq!(div.differing, 1);
        assert_eq!(div.unexplained, 1);
    }

    #[test]
    fn routing_divergence_rejects_mismatched_or_invalid_inputs() {
        let a = synthetic_artifacts();
        let mut short = a.clone();
        short.scores.pop();
        short.little_correct.pop();
        short.big_correct.pop();
        assert!(matches!(
            a.routing_divergence(&short, 0.5, 0.01).unwrap_err(),
            CoreError::LengthMismatch {
                field: "scores",
                ..
            }
        ));
        assert!(matches!(
            a.max_score_divergence(&short).unwrap_err(),
            CoreError::LengthMismatch {
                field: "scores",
                ..
            }
        ));
        assert!(matches!(
            a.routing_divergence(&a, f64::NAN, 0.01).unwrap_err(),
            CoreError::InvalidThreshold(_)
        ));
        assert!(a.routing_divergence(&a, 0.5, -0.01).is_err());
    }

    #[test]
    fn empty_artifacts_are_reported_not_panicked() {
        let mut a = synthetic_artifacts();
        a.scores.clear();
        a.little_correct.clear();
        a.big_correct.clear();
        assert_eq!(a.at_threshold(0.5).unwrap_err(), CoreError::EmptyArtifacts);
        assert_eq!(
            a.threshold_for_skipping_rate(0.5).unwrap_err(),
            CoreError::EmptyArtifacts
        );
        assert_eq!(
            a.candidate_thresholds().unwrap_err(),
            CoreError::EmptyArtifacts
        );
    }

    #[test]
    fn length_mismatched_artifacts_are_reported_not_panicked() {
        let mut a = synthetic_artifacts();
        a.little_correct.pop();
        assert_eq!(
            a.at_threshold(0.5).unwrap_err(),
            CoreError::LengthMismatch {
                field: "little_correct",
                expected: 10,
                got: 9,
            }
        );
        let mut b = synthetic_artifacts();
        b.big_correct.push(true);
        assert_eq!(
            b.at_skipping_rate(0.5).unwrap_err(),
            CoreError::LengthMismatch {
                field: "big_correct",
                expected: 10,
                got: 11,
            }
        );
    }

    #[test]
    fn nan_scores_are_reported_not_panicked() {
        let mut a = synthetic_artifacts();
        a.scores[7] = f32::NAN;
        assert_eq!(
            a.thresholds_for_skipping_rates(&[0.5]).unwrap_err(),
            CoreError::InvalidScore { index: 7 }
        );
        assert_eq!(
            a.candidate_thresholds().unwrap_err(),
            CoreError::InvalidScore { index: 7 }
        );
        assert_eq!(
            a.at_skipping_rate(0.5).unwrap_err(),
            CoreError::InvalidScore { index: 7 }
        );
    }

    #[test]
    fn invalid_rates_and_thresholds_are_reported() {
        let a = synthetic_artifacts();
        assert_eq!(
            a.thresholds_for_skipping_rates(&[0.5, 1.2]).unwrap_err(),
            CoreError::InvalidRate(1.2)
        );
        assert_eq!(
            a.at_skipping_rate(-0.1).unwrap_err(),
            CoreError::InvalidRate(-0.1)
        );
        assert!(matches!(
            a.at_threshold(f64::NAN).unwrap_err(),
            CoreError::InvalidThreshold(_)
        ));
    }

    fn tiny_models(classes: usize) -> (TwoHeadNet, ClassifierParts) {
        let mut rng = SeededRng::new(3);
        let little =
            ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], classes).build(&mut rng);
        let big = ModelSpec::big([3, 12, 12], classes).build(&mut rng);
        (TwoHeadNet::from_parts(little, &mut rng), big)
    }

    #[test]
    fn artifacts_from_models_have_consistent_lengths() {
        let (mut net, mut big) = tiny_models(4);
        let mut rng = SeededRng::new(4);
        let images = Tensor::randn(&[12, 3, 12, 12], &mut rng);
        let labels: Vec<usize> = (0..12).map(|i| i % 4).collect();
        let hard = vec![false; 12];
        let art =
            EvaluationArtifacts::from_two_head(&mut net, &mut big, &images, &labels, &hard, 5);
        assert_eq!(art.len(), 12);
        assert!(!art.is_empty());
        assert!(art.little_flops < art.big_flops);
        assert_eq!(art.score_kind, ScoreKind::AppealNetQ);
    }

    #[test]
    fn baseline_artifacts_use_requested_score() {
        let mut rng = SeededRng::new(5);
        let mut little =
            ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
        let mut big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        let images = Tensor::randn(&[8, 3, 12, 12], &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let hard = vec![false; 8];
        let art = EvaluationArtifacts::from_confidence_baseline(
            &mut little,
            &mut big,
            &images,
            &labels,
            &hard,
            ScoreKind::ScoreMargin,
            4,
        );
        assert_eq!(art.score_kind, ScoreKind::ScoreMargin);
        assert!(art.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn batch_thresholds_match_single_rate_queries() {
        let a = synthetic_artifacts();
        let rates = [0.0, 0.25, 0.5, 0.75, 1.0];
        let batch = a.thresholds_for_skipping_rates(&rates).unwrap();
        for (t, &sr) in batch.iter().zip(rates.iter()) {
            assert_eq!(*t, a.threshold_for_skipping_rate(sr).unwrap());
        }
    }
}
