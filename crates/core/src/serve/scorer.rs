//! The [`Scorer`] trait: one interface over every way of producing a
//! per-input routing score on the edge.
//!
//! AppealNet's learned predictor (`q(1|x)`, paper Eq. 1) and the
//! confidence-score baselines (MSP / score margin / entropy, Section VI-A)
//! differ in *model* — a two-head network vs. a plain classifier — but both
//! reduce to the same contract: run the edge model over a batch and return a
//! predicted label plus a "higher = keep on the edge" score per sample. The
//! serving [`Engine`](crate::serve::Engine) routes against that contract
//! only, so policies compose with either family of scorers.

use crate::error::{CoreError, CoreResult};
use crate::scores::{confidence_scores, ScoreKind};
use crate::two_head::TwoHeadNet;
use appeal_models::ClassifierParts;
use appeal_tensor::loss::SoftmaxCrossEntropy;
use appeal_tensor::Tensor;

/// Per-sample result of one edge pass over a batch.
#[derive(Debug, Clone)]
pub struct EdgePass {
    /// Predicted class label per sample.
    pub labels: Vec<usize>,
    /// Routing score per sample (higher = keep on the edge).
    pub scores: Vec<f32>,
}

/// An edge model that yields a predicted label and a routing score per input.
///
/// Implementations run one forward pass over the whole supplied batch (the
/// engine decides the batch granularity), and must be *per-sample pure* in
/// eval mode: a sample's label and score do not depend on which batch or
/// worker evaluated it. That property is what lets the engine shard batches
/// across [`fork`](Scorer::fork)ed replicas while staying bit-identical to a
/// sequential pass.
pub trait Scorer: Send {
    /// Which routing score this scorer produces.
    fn kind(&self) -> ScoreKind;

    /// Per-inference FLOPs of the edge model (the `cost(f1, q)` of Eq. 5).
    fn flops(&self) -> u64;

    /// Input shape of one sample, `[channels, height, width]`.
    fn input_shape(&self) -> [usize; 3];

    /// Runs the edge model over a `[n, c, h, w]` batch in one forward pass.
    fn evaluate(&mut self, images: &Tensor) -> EdgePass;

    /// Clones this scorer for a worker thread, dropping activation caches.
    fn fork(&self) -> Box<dyn Scorer>;

    /// `true` when the edge model runs on the quantized (Q8_0) weight tier,
    /// in which case its outputs follow the "quantized-tolerance" numeric
    /// contract instead of the f32 kernels' bit-identical one.
    fn is_quantized(&self) -> bool {
        false
    }
}

/// [`Scorer`] over the jointly trained two-head network: the routing score is
/// the predictor head's output `q(1|x)`.
pub struct QScorer {
    net: TwoHeadNet,
}

impl QScorer {
    /// Wraps a (trained) two-head network.
    pub fn new(net: TwoHeadNet) -> Self {
        Self { net }
    }

    /// The wrapped network.
    pub fn network(&self) -> &TwoHeadNet {
        &self.net
    }
}

impl Scorer for QScorer {
    fn kind(&self) -> ScoreKind {
        ScoreKind::AppealNetQ
    }

    fn flops(&self) -> u64 {
        self.net.flops()
    }

    fn input_shape(&self) -> [usize; 3] {
        self.net.spec().input_shape
    }

    fn evaluate(&mut self, images: &Tensor) -> EdgePass {
        let out = self.net.forward(images, false);
        EdgePass {
            labels: out.predictions(),
            scores: out.q,
        }
    }

    fn fork(&self) -> Box<dyn Scorer> {
        use crate::parallel::Replica;
        Box::new(Self {
            net: self.net.replica(),
        })
    }

    fn is_quantized(&self) -> bool {
        self.net.is_quantized()
    }
}

/// [`Scorer`] over a plain little classifier using one of the confidence
/// baselines (MSP, score margin, entropy) derived from its softmax output.
pub struct ConfidenceScorer {
    model: ClassifierParts,
    kind: ScoreKind,
}

impl std::fmt::Debug for ConfidenceScorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConfidenceScorer({}, {:?})", self.kind, self.model)
    }
}

impl ConfidenceScorer {
    /// Wraps a classifier with a confidence-score baseline.
    ///
    /// Returns [`CoreError::InvalidScoreKind`] for [`ScoreKind::AppealNetQ`],
    /// which is produced by a predictor head, not derived from probabilities.
    pub fn new(model: ClassifierParts, kind: ScoreKind) -> CoreResult<Self> {
        if !kind.is_confidence_baseline() {
            return Err(CoreError::InvalidScoreKind(kind));
        }
        Ok(Self { model, kind })
    }
}

impl Scorer for ConfidenceScorer {
    fn kind(&self) -> ScoreKind {
        self.kind
    }

    fn flops(&self) -> u64 {
        self.model.total_flops()
    }

    fn input_shape(&self) -> [usize; 3] {
        self.model.spec.input_shape
    }

    fn evaluate(&mut self, images: &Tensor) -> EdgePass {
        let logits = self.model.forward(images, false);
        let probs = SoftmaxCrossEntropy::new().probabilities(&logits);
        EdgePass {
            labels: logits.argmax_rows(),
            scores: confidence_scores(&probs, self.kind),
        }
    }

    fn fork(&self) -> Box<dyn Scorer> {
        use crate::parallel::Replica;
        Box::new(Self {
            model: self.model.replica(),
            kind: self.kind,
        })
    }

    fn is_quantized(&self) -> bool {
        self.model.is_quantized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_models::{ModelFamily, ModelSpec};
    use appeal_tensor::SeededRng;

    fn little(classes: usize, rng: &mut SeededRng) -> ClassifierParts {
        ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], classes).build(rng)
    }

    #[test]
    fn q_scorer_matches_two_head_forward() {
        let mut rng = SeededRng::new(11);
        let net = TwoHeadNet::from_parts(little(4, &mut rng), &mut rng);
        let images = Tensor::randn(&[5, 3, 12, 12], &mut rng);
        let mut reference = net.clone();
        let expected = reference.forward(&images, false);
        let mut scorer = QScorer::new(net);
        assert_eq!(scorer.kind(), ScoreKind::AppealNetQ);
        assert_eq!(scorer.input_shape(), [3, 12, 12]);
        let pass = scorer.evaluate(&images);
        assert_eq!(pass.labels, expected.predictions());
        for (a, b) in pass.scores.iter().zip(expected.q.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn confidence_scorer_rejects_appealnet_kind() {
        let mut rng = SeededRng::new(12);
        let err = ConfidenceScorer::new(little(4, &mut rng), ScoreKind::AppealNetQ).unwrap_err();
        assert_eq!(err, CoreError::InvalidScoreKind(ScoreKind::AppealNetQ));
    }

    #[test]
    fn confidence_scorer_produces_requested_baseline() {
        let mut rng = SeededRng::new(13);
        let model = little(4, &mut rng);
        let flops = model.total_flops();
        let mut scorer = ConfidenceScorer::new(model, ScoreKind::Msp).unwrap();
        assert_eq!(scorer.kind(), ScoreKind::Msp);
        assert_eq!(scorer.flops(), flops);
        let images = Tensor::randn(&[6, 3, 12, 12], &mut rng);
        let pass = scorer.evaluate(&images);
        assert_eq!(pass.labels.len(), 6);
        // MSP scores are softmax maxima: probabilities in (0, 1].
        assert!(pass.scores.iter().all(|&s| s > 0.0 && s <= 1.0));
    }

    #[test]
    fn forked_scorer_is_bit_identical() {
        let mut rng = SeededRng::new(14);
        let net = TwoHeadNet::from_parts(little(3, &mut rng), &mut rng);
        let mut scorer = QScorer::new(net);
        let images = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        let mut forked = scorer.fork();
        let a = scorer.evaluate(&images);
        let b = forked.evaluate(&images);
        assert_eq!(a.labels, b.labels);
        for (x, y) in a.scores.iter().zip(b.scores.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
