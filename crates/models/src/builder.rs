//! Model construction: backbones and classifier heads.

use crate::cost::ModelCost;
use crate::zoo::{ModelFamily, ModelSpec};
use appeal_tensor::layers::{
    BatchNorm2d, ChannelShuffle, Conv2d, Dense, DepthwiseConv2d, GlobalAvgPool2d, Relu, Residual,
    Sequential,
};
use appeal_tensor::{Layer, SeededRng, Tensor};

/// A classifier split into a feature-extracting backbone and a classifier head.
///
/// AppealNet shares the backbone between its approximator head and its
/// predictor head, which is why the split is part of the zoo's public API.
///
/// Cloning replicates the full model (parameters, running statistics and
/// caches); the parallel evaluation engine uses this to give each worker
/// thread its own replica.
#[derive(Clone)]
pub struct ClassifierParts {
    /// Feature extractor: images `[n, c, h, w]` → features `[n, feature_dim]`.
    pub backbone: Sequential,
    /// Classifier head: features `[n, feature_dim]` → logits `[n, num_classes]`.
    pub head: Sequential,
    /// Dimensionality of the backbone output.
    pub feature_dim: usize,
    /// The specification this model was built from.
    pub spec: ModelSpec,
}

impl std::fmt::Debug for ClassifierParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ClassifierParts(spec={}, feature_dim={})",
            self.spec, self.feature_dim
        )
    }
}

impl ClassifierParts {
    /// Runs the full classifier (backbone then head) on a batch of images.
    pub fn forward(&mut self, images: &Tensor, train: bool) -> Tensor {
        let features = self.backbone.forward(images, train);
        self.head.forward(&features, train)
    }

    /// FLOPs of one inference through backbone + head for a single sample.
    pub fn total_flops(&self) -> u64 {
        let input_shape = self.spec.input_shape.to_vec();
        let backbone_flops = self.backbone.flops(&input_shape);
        let feature_shape = self.backbone.output_shape(&input_shape);
        backbone_flops + self.head.flops(&feature_shape)
    }

    /// FLOPs of the backbone alone for a single sample.
    pub fn backbone_flops(&self) -> u64 {
        self.backbone.flops(self.spec.input_shape.as_ref())
    }

    /// Total number of trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.backbone.param_count() + self.head.param_count()
    }

    /// Cost summary (FLOPs and parameters) for this model.
    pub fn cost(&mut self) -> ModelCost {
        ModelCost {
            flops: self.total_flops(),
            params: self.param_count() as u64,
            family: self.spec.family,
        }
    }

    /// Zeroes all parameter gradients in backbone and head.
    pub fn zero_grad(&mut self) {
        self.backbone.zero_grad();
        self.head.zero_grad();
    }

    /// Drops all forward-pass activation caches (see [`Layer::clear_cache`]).
    pub fn clear_cache(&mut self) {
        self.backbone.clear_cache();
        self.head.clear_cache();
    }

    /// Switches the classifier to the quantized (Q8_0) weight tier.
    ///
    /// Quantizes every dense and convolution weight in backbone and head
    /// (see [`appeal_tensor::quant`]), returning per-layer round-trip
    /// reports. Eval-mode forwards then run the Q8_0 tier — integer-valued
    /// operands on the `f32` tiles — under the "quantized-tolerance" numeric
    /// contract; training stays f32.
    pub fn quantize_weights(&mut self) -> Vec<appeal_tensor::quant::QuantLayerReport> {
        let mut reports = self.backbone.quantize_weights();
        reports.extend(self.head.quantize_weights());
        reports
    }

    /// `true` once [`ClassifierParts::quantize_weights`] has installed the
    /// Q8_0 tier.
    pub fn is_quantized(&self) -> bool {
        self.backbone.is_quantized() || self.head.is_quantized()
    }
}

/// Rounds a scaled channel count to at least 2 channels.
fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(2)
}

/// Builds the backbone + head for a model specification.
///
/// The conv/dense layers these backbones are assembled from run on the
/// kernel layer (`appeal_tensor::kernels`): every standard convolution —
/// the pointwise (1x1) ones that are the bulk of the MobileNet/ShuffleNet-
/// style blocks included — runs one kernel with output channels on the
/// vector lanes, its weights packed once per layer and its input read
/// through a per-layer window table with no im2col matrix in between (on
/// integer-valued operands once quantized, on the same tiles); depthwise
/// convolutions are
/// direct stencils over the same padded input; dense layers are GEMMs on
/// the convolutions' tile kernel; eval batch-norm, ReLU and residual adds
/// work in place. Layers own no scratch: buffers come from the calling
/// thread's arena (`kernels::with_thread_scratch`), so repeated inference
/// allocates nothing and a cloned model warms up whichever thread runs it.
///
/// # Panics
///
/// Panics if the input shape is too small for the family's downsampling
/// schedule (minimum 8×8).
pub fn build_parts(spec: &ModelSpec, rng: &mut SeededRng) -> ClassifierParts {
    let [c, h, w] = spec.input_shape;
    assert!(h >= 8 && w >= 8, "input spatial size must be at least 8x8");
    let (backbone, feature_dim) = match spec.family {
        ModelFamily::MobileNetLike => mobilenet_backbone(c, spec.width, rng),
        ModelFamily::EfficientNetLike => efficientnet_backbone(c, spec.width, rng),
        ModelFamily::ShuffleNetLike => shufflenet_backbone(c, spec.width, rng),
        ModelFamily::ResNetLike => resnet_backbone(c, spec.width, rng),
    };
    let head = Sequential::new(vec![Box::new(Dense::new(
        feature_dim,
        spec.num_classes,
        rng,
    ))]);
    ClassifierParts {
        backbone,
        head,
        feature_dim,
        spec: spec.clone(),
    }
}

/// MobileNet-style backbone: standard stem + depthwise-separable blocks.
fn mobilenet_backbone(in_c: usize, width: f32, rng: &mut SeededRng) -> (Sequential, usize) {
    let c1 = scaled(8, width);
    let c2 = scaled(16, width);
    let c3 = scaled(24, width);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_c, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        // Depthwise separable block 1 (stride 2).
        Box::new(DepthwiseConv2d::new(c1, 3, 2, 1, rng)),
        Box::new(Conv2d::new(c1, c2, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(Relu::new()),
        // Depthwise separable block 2 (stride 1).
        Box::new(DepthwiseConv2d::new(c2, 3, 1, 1, rng)),
        Box::new(Conv2d::new(c2, c2, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(Relu::new()),
        // Depthwise separable block 3 (stride 2).
        Box::new(DepthwiseConv2d::new(c2, 3, 2, 1, rng)),
        Box::new(Conv2d::new(c2, c3, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(c3)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool2d::new()),
    ];
    (Sequential::new(layers), c3)
}

/// EfficientNet-style backbone: wider standard convolutions plus a residual stage.
fn efficientnet_backbone(in_c: usize, width: f32, rng: &mut SeededRng) -> (Sequential, usize) {
    let c1 = scaled(8, width);
    let c2 = scaled(14, width);
    let c3 = scaled(20, width);
    let res_body = Sequential::new(vec![
        Box::new(Conv2d::new(c2, c2, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(Relu::new()),
    ]);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_c, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(c1, c2, 3, 2, 1, rng)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(Relu::new()),
        Box::new(Residual::new(res_body)),
        Box::new(Conv2d::new(c2, c3, 3, 2, 1, rng)),
        Box::new(BatchNorm2d::new(c3)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool2d::new()),
    ];
    (Sequential::new(layers), c3)
}

/// ShuffleNet-style backbone: depthwise + pointwise convolutions with channel shuffles.
fn shufflenet_backbone(in_c: usize, width: f32, rng: &mut SeededRng) -> (Sequential, usize) {
    let c1 = scaled(8, width);
    let c2 = scaled(16, width);
    let c3 = scaled(24, width);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_c, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        Box::new(DepthwiseConv2d::new(c1, 3, 2, 1, rng)),
        Box::new(Conv2d::new(c1, c2, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(Relu::new()),
        Box::new(ChannelShuffle::new(2)),
        Box::new(DepthwiseConv2d::new(c2, 3, 2, 1, rng)),
        Box::new(Conv2d::new(c2, c3, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(c3)),
        Box::new(Relu::new()),
        Box::new(ChannelShuffle::new(2)),
        Box::new(GlobalAvgPool2d::new()),
    ];
    (Sequential::new(layers), c3)
}

/// ResNet-style big backbone: deep residual CNN with ~20-30x the little nets' FLOPs.
fn resnet_backbone(in_c: usize, width: f32, rng: &mut SeededRng) -> (Sequential, usize) {
    let c1 = scaled(12, width);
    let c2 = scaled(24, width);
    let c3 = scaled(40, width);

    let basic_block = |channels: usize, rng: &mut SeededRng| -> Box<dyn Layer> {
        let body = Sequential::new(vec![
            Box::new(Conv2d::new(channels, channels, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(channels)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(channels, channels, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(channels)),
        ]);
        Box::new(Residual::new(body))
    };
    let down_block = |cin: usize, cout: usize, rng: &mut SeededRng| -> Box<dyn Layer> {
        let body = Sequential::new(vec![
            Box::new(Conv2d::new(cin, cout, 3, 2, 1, rng)),
            Box::new(BatchNorm2d::new(cout)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(cout, cout, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(cout)),
        ]);
        let shortcut = Sequential::new(vec![Box::new(Conv2d::new(cin, cout, 1, 2, 0, rng))]);
        Box::new(Residual::with_shortcut(body, shortcut))
    };

    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_c, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        basic_block(c1, rng),
        down_block(c1, c2, rng),
        basic_block(c2, rng),
        down_block(c2, c3, rng),
        basic_block(c3, rng),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool2d::new()),
    ];
    (Sequential::new(layers), c3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_family(family: ModelFamily, classes: usize) -> ClassifierParts {
        let mut rng = SeededRng::new(1);
        let spec = if family.is_little() {
            ModelSpec::little(family, [3, 12, 12], classes)
        } else {
            ModelSpec::big([3, 12, 12], classes)
        };
        let mut model = spec.build(&mut rng);
        let x = Tensor::randn(&[2, 3, 12, 12], &mut rng);
        let logits = model.forward(&x, true);
        assert_eq!(logits.shape(), &[2, classes]);
        assert!(logits.all_finite());
        model
    }

    #[test]
    fn mobilenet_builds_and_runs() {
        let mut m = check_family(ModelFamily::MobileNetLike, 10);
        assert!(m.param_count() > 0);
    }

    #[test]
    fn efficientnet_builds_and_runs() {
        check_family(ModelFamily::EfficientNetLike, 43);
    }

    #[test]
    fn shufflenet_builds_and_runs() {
        check_family(ModelFamily::ShuffleNetLike, 10);
    }

    #[test]
    fn resnet_builds_and_runs() {
        check_family(ModelFamily::ResNetLike, 100);
    }

    #[test]
    fn big_model_is_much_more_expensive_than_little_models() {
        let mut rng = SeededRng::new(2);
        let big = ModelSpec::big([3, 12, 12], 10).build(&mut rng);
        for family in ModelFamily::little_families() {
            let little = ModelSpec::little(family, [3, 12, 12], 10).build(&mut rng);
            let ratio = big.total_flops() as f64 / little.total_flops() as f64;
            assert!(
                ratio > 8.0,
                "{family}: big/little FLOP ratio only {ratio:.1}"
            );
        }
    }

    #[test]
    fn width_multiplier_scales_cost() {
        let mut rng = SeededRng::new(3);
        let base = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        let wide = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10)
            .with_width(2.0)
            .build(&mut rng);
        assert!(wide.total_flops() > base.total_flops() * 2);
    }

    #[test]
    fn backbone_output_matches_feature_dim() {
        let mut rng = SeededRng::new(4);
        for family in ModelFamily::little_families() {
            let spec = ModelSpec::little(family, [3, 12, 12], 10);
            let mut model = spec.build(&mut rng);
            let x = Tensor::randn(&[3, 3, 12, 12], &mut rng);
            let features = model.backbone.forward(&x, false);
            assert_eq!(features.shape(), &[3, model.feature_dim]);
        }
    }

    /// `forward_owned` (the in-place eval BN/ReLU, the residual add into the
    /// body's output) against a chain of borrowed top-level forwards, bit for
    /// bit, on every zoo backbone — f32, then quantized.
    #[test]
    fn forward_owned_matches_borrowed_forwards_on_every_zoo_net() {
        let mut rng = SeededRng::new(12);
        let specs = ModelFamily::little_families()
            .into_iter()
            .map(|family| ModelSpec::little(family, [3, 12, 12], 10))
            .chain([ModelSpec::big([3, 12, 12], 10)]);
        for spec in specs {
            let mut model = spec.build(&mut rng);
            let x = Tensor::randn(&[3, 3, 12, 12], &mut rng);
            // One train pass moves the batch-norm statistics off (0, 1).
            let _ = model.forward(&x, true);
            for quantized in [false, true] {
                if quantized {
                    model.quantize_weights();
                }
                let mut want = x.clone();
                for layer in model.backbone.iter() {
                    want = layer.clone_box().forward(&want, false);
                }
                let borrowed = model.backbone.forward(&x, false);
                let owned = model.backbone.forward_owned(x.clone(), false);
                for got in [borrowed, owned] {
                    assert_eq!(got.shape(), want.shape());
                    let mut pairs = got.data().iter().zip(want.data());
                    assert!(
                        pairs.all(|(g, w)| g.to_bits() == w.to_bits()),
                        "{spec}: in-place forward differs (quantized: {quantized})"
                    );
                }
            }
        }
    }

    /// Serializes this crate's tests that override the ISA.
    static ISA_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Eval forwards of sixteen samples and more run in lane groups
    /// (`appeal_tensor::LANE_GROUP`): the samples on the vector lanes from the
    /// stem to the pooling, a remainder of `n % 16` sample by sample. Against
    /// the per-sample forward, bit for bit, on every zoo family —
    /// ShuffleNet's channel shuffles and EfficientNet's shortcut-free
    /// residual block included — and on the big net: whole groups, groups
    /// with a remainder of one and of fifteen, eight groups; every backend,
    /// each pass from a padding arena dirtied with NaN.
    #[test]
    fn lane_batch_forwards_match_per_sample_on_every_zoo_net() {
        use appeal_tensor::kernels::{self, force_isa, supported_isas};
        let _lock = ISA_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let dirty = || kernels::with_thread_scratch(|s| s.xpad.take(1 << 16).fill(f32::NAN));
        let mut rng = SeededRng::new(13);
        let specs = ModelFamily::little_families()
            .into_iter()
            .map(|family| ModelSpec::little(family, [3, 12, 12], 10))
            .chain([ModelSpec::big([3, 12, 12], 10)]);
        for spec in specs {
            let mut model = spec.build(&mut rng);
            // The whole backbone runs in lane groups, ended by its pooling.
            assert_eq!(model.backbone.lane_form(), appeal_tensor::LaneForm::Ends);
            // One train pass moves the batch-norm statistics off (0, 1).
            let _ = model.forward(&Tensor::randn(&[4, 3, 12, 12], &mut rng), true);
            for n in [16usize, 17, 31, 32, 33, 128] {
                let x = Tensor::randn(&[n, 3, 12, 12], &mut rng);
                for isa in supported_isas() {
                    let prev = force_isa(Some(isa));
                    let want: Vec<f32> = (0..n)
                        .flat_map(|i| model.forward(&x.select_rows(&[i]), false).into_vec())
                        .collect();
                    dirty();
                    let got = model.forward(&x, false);
                    force_isa(prev);
                    assert_eq!(got.shape(), &[n, 10]);
                    let mut pairs = got.data().iter().zip(&want);
                    assert!(
                        pairs.all(|(g, w)| g.to_bits() == w.to_bits()),
                        "{spec}: n={n} {isa}: the lane groups differ from the per-sample forward"
                    );
                }
            }
        }
    }

    /// The quantized backbones run in lane groups too: a quantized `Conv2d`
    /// computes its Q8 tier on the lane tile, block by block. Against the
    /// per-sample forward, bit for bit, on all four backbones — ResNet-like's
    /// 108/216/360-tap convolutions span several Q8 blocks, the last partial
    /// — under dynamic per-field scales and under calibrated ones: whole
    /// groups, remainders of one and fifteen, eight groups; every backend,
    /// each pass from a NaN-dirtied arena.
    #[test]
    fn lane_batch_q8_forwards_match_per_sample_on_every_zoo_net() {
        use appeal_tensor::kernels::{self, force_isa, supported_isas};
        let _lock = ISA_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let dirty = || {
            kernels::with_thread_scratch(|s| {
                s.xpad.take(1 << 16).fill(f32::NAN);
                s.quant.quantized.take(1 << 16).fill(f32::NAN);
            })
        };
        let mut rng = SeededRng::new(14);
        let specs = ModelFamily::little_families()
            .into_iter()
            .map(|family| ModelSpec::little(family, [3, 12, 12], 10))
            .chain([ModelSpec::big([3, 12, 12], 10)]);
        for spec in specs {
            let mut model = spec.build(&mut rng);
            // One train pass moves the batch-norm statistics off (0, 1).
            let _ = model.forward(&Tensor::randn(&[4, 3, 12, 12], &mut rng), true);
            model.quantize_weights();
            assert!(model.backbone.is_quantized());
            assert_eq!(model.backbone.lane_form(), appeal_tensor::LaneForm::Ends);
            for calibrated in [false, true] {
                if calibrated {
                    model.backbone.begin_calibration();
                    model.head.begin_calibration();
                    let _ = model.forward(&Tensor::randn(&[20, 3, 12, 12], &mut rng), false);
                    model.backbone.end_calibration();
                    model.head.end_calibration();
                }
                for n in [16usize, 17, 31, 32, 33, 128] {
                    let x = Tensor::randn(&[n, 3, 12, 12], &mut rng);
                    for isa in supported_isas() {
                        let prev = force_isa(Some(isa));
                        let want: Vec<f32> = (0..n)
                            .flat_map(|i| model.forward(&x.select_rows(&[i]), false).into_vec())
                            .collect();
                        dirty();
                        let got = model.forward(&x, false);
                        force_isa(prev);
                        assert_eq!(got.shape(), &[n, 10]);
                        let mut pairs = got.data().iter().zip(&want);
                        assert!(
                            pairs.all(|(g, w)| g.to_bits() == w.to_bits()),
                            "{spec}: n={n} {isa} calibrated={calibrated}: \
                             the lane groups differ from the per-sample forward"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flops_split_is_consistent() {
        let mut rng = SeededRng::new(5);
        let model = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        assert!(model.backbone_flops() < model.total_flops());
        assert!(model.backbone_flops() > model.total_flops() / 2);
    }

    #[test]
    fn deterministic_build_given_seed() {
        let mut a = SeededRng::new(9);
        let mut b = SeededRng::new(9);
        let spec = ModelSpec::little(ModelFamily::ShuffleNetLike, [3, 12, 12], 5);
        let mut ma = spec.build(&mut a);
        let mut mb = spec.build(&mut b);
        let x = Tensor::randn(&[1, 3, 12, 12], &mut SeededRng::new(10));
        assert_eq!(ma.forward(&x, false).data(), mb.forward(&x, false).data());
    }

    #[test]
    fn cost_summary_reports_family() {
        let mut rng = SeededRng::new(6);
        let mut model = ModelSpec::big([3, 12, 12], 10).build(&mut rng);
        let cost = model.cost();
        assert_eq!(cost.family, ModelFamily::ResNetLike);
        assert!(cost.flops > 0 && cost.params > 0);
    }

    #[test]
    fn every_family_quantizes_within_bound() {
        let mut rng = SeededRng::new(8);
        for family in ModelFamily::little_families() {
            let spec = ModelSpec::little(family, [3, 12, 12], 10);
            let mut model = spec.build(&mut rng);
            let x = Tensor::randn(&[2, 3, 12, 12], &mut rng);
            let f32_logits = model.forward(&x, false);
            assert!(!model.is_quantized());
            let reports = model.quantize_weights();
            assert!(model.is_quantized());
            assert!(
                reports.iter().all(|r| r.within_bound()),
                "{family}: quantization round-trip broke the error bound"
            );
            let q_logits = model.forward(&x, false);
            assert_eq!(q_logits.shape(), f32_logits.shape());
            assert!(q_logits.all_finite());
            assert!(
                q_logits.max_abs_diff(&f32_logits) < 1.0,
                "{family}: quantized logits drifted too far"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 8x8")]
    fn rejects_tiny_inputs() {
        let mut rng = SeededRng::new(7);
        let _ = ModelSpec::big([3, 4, 4], 10).build(&mut rng);
    }
}
