//! The two-head little network (paper Fig. 2).
//!
//! A shared backbone (feature extractor) feeds an *approximator head* that
//! produces class logits and a *predictor head* — a single fully-connected
//! layer followed by a sigmoid — that produces `q(1|x)`, the probability that
//! the little network's answer is trustworthy for this input.

use appeal_models::{ClassifierParts, ModelSpec};
use appeal_tensor::layers::{Dense, Sequential, Sigmoid};
use appeal_tensor::loss::SoftmaxCrossEntropy;
use appeal_tensor::{Layer, Param, SeededRng, Tensor};

/// Output of one forward pass through the two-head network.
#[derive(Debug, Clone)]
pub struct TwoHeadOutput {
    /// Class logits from the approximator head, `[n, num_classes]`.
    pub logits: Tensor,
    /// Predictor outputs `q(1|x) ∈ [0, 1]`, one per sample.
    pub q: Vec<f32>,
}

impl TwoHeadOutput {
    /// Softmax class probabilities of the approximator head.
    pub fn probabilities(&self) -> Tensor {
        SoftmaxCrossEntropy::new().probabilities(&self.logits)
    }

    /// Predicted class per sample.
    pub fn predictions(&self) -> Vec<usize> {
        self.logits.argmax_rows()
    }
}

/// The AppealNet two-head little network.
///
/// Built from a [`ClassifierParts`] little model by re-using its backbone and
/// classifier head as feature extractor / approximator head and inserting a
/// freshly initialized predictor head — exactly the "initialize from the
/// pre-trained little network, then insert the predictor head" step of the
/// paper's Algorithm 1.
///
/// Cloning replicates the full network; the parallel evaluation engine uses
/// this to give each worker thread its own replica.
#[derive(Clone)]
pub struct TwoHeadNet {
    backbone: Sequential,
    approximator_head: Sequential,
    predictor_head: Sequential,
    feature_dim: usize,
    spec: ModelSpec,
}

impl std::fmt::Debug for TwoHeadNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TwoHeadNet(spec={}, feature_dim={})",
            self.spec, self.feature_dim
        )
    }
}

impl TwoHeadNet {
    /// Creates a two-head network from a (possibly pre-trained) little model,
    /// inserting a new predictor head.
    pub fn from_parts(parts: ClassifierParts, rng: &mut SeededRng) -> Self {
        let ClassifierParts {
            backbone,
            head,
            feature_dim,
            spec,
        } = parts;
        let predictor_head = Sequential::new(vec![
            Box::new(Dense::new(feature_dim, 1, rng)),
            Box::new(Sigmoid::new()),
        ]);
        Self {
            backbone,
            approximator_head: head,
            predictor_head,
            feature_dim,
            spec,
        }
    }

    /// The model specification of the underlying little network.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Dimensionality of the shared feature vector.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of classes produced by the approximator head.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    /// Runs the network on a batch of images.
    pub fn forward(&mut self, images: &Tensor, train: bool) -> TwoHeadOutput {
        let features = self.backbone.forward(images, train);
        let logits = self.approximator_head.forward(&features, train);
        let q_tensor = self.predictor_head.forward(&features, train);
        let q = q_tensor.data().to_vec();
        TwoHeadOutput { logits, q }
    }

    /// Backpropagates gradients from both heads.
    ///
    /// `grad_logits` is the gradient of the loss with respect to the
    /// approximator logits; `grad_q` is the gradient with respect to the
    /// predictor output `q` (after the sigmoid), shaped `[n, 1]`.
    /// The two head gradients are merged at the shared feature vector and
    /// propagated through the backbone, mirroring the joint optimization of
    /// `(f1, q)` in the paper.
    ///
    /// # Panics
    ///
    /// Panics if called before [`TwoHeadNet::forward`].
    pub fn backward(&mut self, grad_logits: &Tensor, grad_q: &Tensor) {
        let grad_from_approx = self.approximator_head.backward(grad_logits);
        let grad_from_pred = self.predictor_head.backward(grad_q);
        let merged = grad_from_approx.add(&grad_from_pred);
        let _ = self.backbone.backward(&merged);
    }

    /// All trainable parameters (backbone + both heads).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.backbone.params_mut();
        params.extend(self.approximator_head.params_mut());
        params.extend(self.predictor_head.params_mut());
        params
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Drops all forward-pass activation caches (see [`Layer::clear_cache`]).
    pub fn clear_cache(&mut self) {
        self.backbone.clear_cache();
        self.approximator_head.clear_cache();
        self.predictor_head.clear_cache();
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// FLOPs of one inference for a single sample (backbone + both heads).
    ///
    /// This is the edge cost `cost(f1, q)` of the paper's Eq. 5: the predictor
    /// head rides along with the little network at negligible extra cost.
    pub fn flops(&self) -> u64 {
        let input_shape = self.spec.input_shape.to_vec();
        let backbone = self.backbone.flops(&input_shape);
        let feature_shape = self.backbone.output_shape(&input_shape);
        backbone
            + self.approximator_head.flops(&feature_shape)
            + self.predictor_head.flops(&feature_shape)
    }

    /// FLOPs of the predictor head alone (to quantify its overhead).
    pub fn predictor_head_flops(&self) -> u64 {
        let input_shape = self.spec.input_shape.to_vec();
        let feature_shape = self.backbone.output_shape(&input_shape);
        self.predictor_head.flops(&feature_shape)
    }

    /// Switches the little network to the quantized (Q8_0) weight tier.
    ///
    /// Quantizes every dense and convolution weight in the backbone and both
    /// heads, returning the per-layer round-trip reports (aggregate them with
    /// [`appeal_tensor::quant::QuantReportSummary::from_reports`]). Subsequent
    /// eval-mode forwards run the Q8_0 tier — integer-valued operands on the
    /// `f32` tiles — under the "quantized-tolerance" numeric contract;
    /// training forwards keep using the f32 weights.
    pub fn quantize_weights(&mut self) -> Vec<appeal_tensor::quant::QuantLayerReport> {
        let mut reports = self.backbone.quantize_weights();
        reports.extend(self.approximator_head.quantize_weights());
        reports.extend(self.predictor_head.quantize_weights());
        reports
    }

    /// `true` once [`TwoHeadNet::quantize_weights`] has installed the Q8_0 tier.
    pub fn is_quantized(&self) -> bool {
        self.backbone.is_quantized()
            || self.approximator_head.is_quantized()
            || self.predictor_head.is_quantized()
    }

    /// Calibrates static activation scales for the quantized tier from a
    /// representative input set.
    ///
    /// Runs sequential eval forwards over `images` in batches while each
    /// quantized layer observes the absolute maximum of its inputs, then
    /// freezes every observation into a static power-of-two activation scale.
    /// The observed maximum is order-independent, so the frozen scales (and
    /// all subsequent outputs) do not depend on `batch_size`.
    ///
    /// Calibration must run on this instance directly (not through the
    /// replica-based parallel evaluator) because observation mutates layer
    /// state. A no-op unless [`TwoHeadNet::quantize_weights`] ran first.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn calibrate_activation_scales(&mut self, images: &Tensor, batch_size: usize) {
        assert!(batch_size > 0, "batch_size must be positive");
        self.backbone.begin_calibration();
        self.approximator_head.begin_calibration();
        self.predictor_head.begin_calibration();
        let n = images.shape()[0];
        let mut start = 0;
        while start < n {
            let end = (start + batch_size).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let batch = images.select_rows(&idx);
            let _ = self.forward(&batch, false);
            start = end;
        }
        self.backbone.end_calibration();
        self.approximator_head.end_calibration();
        self.predictor_head.end_calibration();
    }

    /// Runs inference over a dataset in batches and concatenates the outputs.
    ///
    /// Large workloads are sharded across worker threads per the runtime
    /// [`crate::parallel::ChunkPolicy`]; the output is identical to (and in
    /// the same order as) a sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn evaluate(&mut self, images: &Tensor, batch_size: usize) -> TwoHeadOutput {
        self.evaluate_with_policy(images, batch_size, &crate::parallel::ChunkPolicy::runtime())
    }

    /// Like [`TwoHeadNet::evaluate`] with an explicit chunking policy.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn evaluate_with_policy(
        &mut self,
        images: &Tensor,
        batch_size: usize,
        policy: &crate::parallel::ChunkPolicy,
    ) -> TwoHeadOutput {
        crate::parallel::two_head_output(self, images, batch_size, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_models::{ModelFamily, ModelSpec};

    fn small_two_head(classes: usize) -> TwoHeadNet {
        let mut rng = SeededRng::new(1);
        let parts =
            ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], classes).build(&mut rng);
        TwoHeadNet::from_parts(parts, &mut rng)
    }

    #[test]
    fn forward_produces_logits_and_q_in_range() {
        let mut net = small_two_head(10);
        let mut rng = SeededRng::new(2);
        let x = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        let out = net.forward(&x, true);
        assert_eq!(out.logits.shape(), &[4, 10]);
        assert_eq!(out.q.len(), 4);
        assert!(out.q.iter().all(|&q| (0.0..=1.0).contains(&q)));
        assert_eq!(out.predictions().len(), 4);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut net = small_two_head(5);
        let mut rng = SeededRng::new(3);
        let x = Tensor::randn(&[3, 3, 12, 12], &mut rng);
        let out = net.forward(&x, false);
        let probs = out.probabilities();
        for i in 0..3 {
            assert!((probs.row(i).sum() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn predictor_head_overhead_is_tiny() {
        let net = small_two_head(10);
        let overhead = net.predictor_head_flops() as f64 / net.flops() as f64;
        assert!(
            overhead < 0.02,
            "predictor head should add <2% FLOPs, added {:.3}%",
            overhead * 100.0
        );
    }

    #[test]
    fn param_count_exceeds_plain_little_model() {
        let mut rng = SeededRng::new(4);
        let mut plain =
            ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        let plain_params = plain.param_count();
        let mut net = small_two_head(10);
        // The two-head net adds exactly feature_dim + 1 parameters (Dense(feature_dim, 1)).
        assert_eq!(net.param_count(), plain_params + net.feature_dim() + 1);
    }

    #[test]
    fn backward_accumulates_gradients_in_all_parts() {
        let mut net = small_two_head(4);
        let mut rng = SeededRng::new(5);
        let x = Tensor::randn(&[2, 3, 12, 12], &mut rng);
        let out = net.forward(&x, true);
        let grad_logits = Tensor::ones(out.logits.shape());
        let grad_q = Tensor::ones(&[2, 1]);
        net.backward(&grad_logits, &grad_q);
        let any_nonzero = net
            .params_mut()
            .iter()
            .filter(|p| p.grad.norm_sq() > 0.0)
            .count();
        assert!(any_nonzero >= 3, "gradients should reach most parameters");
        net.zero_grad();
        assert!(net.params_mut().iter().all(|p| p.grad.norm_sq() == 0.0));
    }

    #[test]
    fn evaluate_matches_single_batch_forward() {
        let mut net = small_two_head(6);
        let mut rng = SeededRng::new(6);
        let x = Tensor::randn(&[7, 3, 12, 12], &mut rng);
        let full = net.forward(&x, false);
        let batched = net.evaluate(&x, 3);
        assert!(full.logits.max_abs_diff(&batched.logits) < 1e-4);
        for (a, b) in full.q.iter().zip(batched.q.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn quantized_net_tracks_f32_within_reported_bounds() {
        let mut net = small_two_head(6);
        let mut rng = SeededRng::new(8);
        let x = Tensor::randn(&[6, 3, 12, 12], &mut rng);
        let f32_out = net.forward(&x, false);
        assert!(!net.is_quantized());
        let reports = net.quantize_weights();
        assert!(net.is_quantized());
        assert!(
            reports.len() >= 3,
            "backbone + both heads should contribute reports, got {}",
            reports.len()
        );
        assert!(reports.iter().all(|r| r.within_bound()));
        let summary = appeal_tensor::quant::QuantReportSummary::from_reports(&reports);
        assert!(summary.within_bound());
        assert!(
            summary.compression() > 1.5,
            "Q8_0 should compress weights well, got {:.2}x",
            summary.compression()
        );
        let q_out = net.forward(&x, false);
        assert_eq!(q_out.logits.shape(), f32_out.logits.shape());
        assert!(q_out.q.iter().all(|&q| (0.0..=1.0).contains(&q)));
        for (a, b) in q_out.logits.data().iter().zip(f32_out.logits.data()) {
            assert!(
                (a - b).abs() < 0.5,
                "quantized logit {a} too far from f32 {b}"
            );
        }
    }

    #[test]
    fn quantized_evaluate_matches_direct_forward() {
        let mut net = small_two_head(5);
        let mut rng = SeededRng::new(9);
        let x = Tensor::randn(&[7, 3, 12, 12], &mut rng);
        net.quantize_weights();
        let full = net.forward(&x, false);
        let batched = net.evaluate(&x, 3);
        // Quantized activations are scaled per sample (per GEMM row /
        // receptive field), so batching cannot change any row's scale and the
        // batched pass reproduces the single-batch pass bit for bit.
        for (a, b) in full.logits.data().iter().zip(batched.logits.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in full.q.iter().zip(batched.q.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Calibration freezes the same scales whatever the batch size: below
    /// the lane-group threshold, and across it — batches of 16 and 40 run
    /// their quantized backbone in lane groups (`appeal_tensor::LANE_GROUP`),
    /// a batch of 1 sample by sample.
    #[test]
    fn calibration_is_batch_size_invariant() {
        let mut rng = SeededRng::new(10);
        for (seed, n, batch_sizes) in [(4, 9, &[2, 9][..]), (6, 40, &[1, 16, 40])] {
            let mut net = small_two_head(seed);
            let x = Tensor::randn(&[n, 3, 12, 12], &mut rng);
            net.quantize_weights();
            let outputs: Vec<_> = batch_sizes
                .iter()
                .map(|&batch_size| {
                    let mut net = net.clone();
                    net.calibrate_activation_scales(&x, batch_size);
                    net.forward(&x, false)
                })
                .collect();
            for (other, batch_size) in outputs.iter().zip(batch_sizes).skip(1) {
                let a = &outputs[0];
                let tag = format!("n={n}: batch size {batch_size} vs {}", batch_sizes[0]);
                for (p, q) in a.logits.data().iter().zip(other.logits.data()) {
                    assert_eq!(p.to_bits(), q.to_bits(), "{tag}");
                }
                for (p, q) in a.q.iter().zip(other.q.iter()) {
                    assert_eq!(p.to_bits(), q.to_bits(), "{tag}");
                }
            }
        }
    }

    #[test]
    fn training_forward_unaffected_by_quantization() {
        let mut net = small_two_head(3);
        let mut rng = SeededRng::new(11);
        let x = Tensor::randn(&[2, 3, 12, 12], &mut rng);
        let before = net.forward(&x, true);
        net.quantize_weights();
        let after = net.forward(&x, true);
        for (a, b) in before.logits.data().iter().zip(after.logits.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn flops_close_to_plain_little_model() {
        let mut rng = SeededRng::new(7);
        let plain = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        let plain_flops = plain.total_flops();
        let net = small_two_head(10);
        let ratio = net.flops() as f64 / plain_flops as f64;
        assert!(
            ratio < 1.02,
            "two-head FLOPs should be within 2% of the plain model"
        );
    }
}
