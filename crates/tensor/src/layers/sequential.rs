//! The [`Sequential`] container.
//!
//! An eval forward of at least [`LANE_GROUP`] samples through a container
//! whose layers keep a lane group up to one that ends it — every zoo
//! backbone, from its stem to its `GlobalAvgPool2d` — runs each group of
//! sixteen samples with the samples on the vector lanes: the group is
//! interleaved once on entry (`[c][h][w][16]`), stays in that layout through
//! every layer, and leaves it once, as the pooling layer's `[16, c]` rows in
//! sample order — quantized backbones too, whose convolutions run their Q8
//! tier on the lane tile. The last `n % 16` samples, a smaller batch, a
//! train forward and a container holding a layer without a lane form (a
//! `Dense` before the pooling) run sample by sample. Per sample both paths
//! compute the same bytes.

use crate::layer::{lane_group, LaneForm, Layer, Param, LANE_GROUP};
use crate::tensor::Tensor;

/// A container that applies layers in order.
///
/// `Sequential` is itself a [`Layer`], so containers can be nested (which is
/// how residual-block bodies and the AppealNet heads are built).
///
/// # Example
///
/// ```
/// use appeal_tensor::prelude::*;
///
/// let mut rng = SeededRng::new(0);
/// let mut net = Sequential::new(vec![
///     Box::new(Dense::new(10, 32, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(32, 2, &mut rng)),
/// ]);
/// let x = Tensor::randn(&[4, 10], &mut rng);
/// assert_eq!(net.forward(&x, true).shape(), &[4, 2]);
/// ```
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from a list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Creates an empty container.
    pub fn empty() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the contained layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Box<dyn Layer>> {
        self.layers.iter()
    }

    /// Zeroes the gradients of every parameter in the container.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Produces a human-readable per-layer summary (name, output shape, FLOPs)
    /// for an input of the given (batch-less) shape.
    pub fn summary(&self, input_shape: &[usize]) -> String {
        let mut shape = input_shape.to_vec();
        let mut lines = vec![format!(
            "{:<18} {:<18} {:>12}",
            "layer", "output shape", "flops"
        )];
        let mut total = 0u64;
        for layer in &self.layers {
            let flops = layer.flops(&shape);
            shape = layer.output_shape(&shape);
            total += flops;
            lines.push(format!(
                "{:<18} {:<18} {:>12}",
                layer.name(),
                format!("{shape:?}"),
                flops
            ));
        }
        lines.push(format!("{:<18} {:<18} {:>12}", "TOTAL", "", total));
        lines.join("\n")
    }
}

impl Sequential {
    /// The index of the layer that ends a lane group, when every layer
    /// before it keeps one.
    fn lane_group_end(&self) -> Option<usize> {
        let end = self
            .layers
            .iter()
            .position(|l| !l.lane_form().keeps_lanes())?;
        (self.layers[end].lane_form() == LaneForm::Ends).then_some(end)
    }

    /// The eval forward of `input` when it can run in lane groups: layers
    /// `..=end` group by group (the remainder sample by sample), then the
    /// rest on the stacked rows.
    fn forward_in_lane_groups(&mut self, input: &Tensor) -> Option<Tensor> {
        let shape = input.shape();
        let sample: usize = shape.iter().skip(1).product();
        if shape.len() != 4 || shape[0] < LANE_GROUP || sample == 0 {
            return None;
        }
        let end = self.lane_group_end()?;
        let (n, [c, h, w]) = (shape[0], [shape[1], shape[2], shape[3]]);
        let (grouped, tail) = self.layers.split_at_mut(end + 1);
        let full = n / LANE_GROUP * LANE_GROUP;
        let mut rows = Vec::new();
        let mut row_shape = Vec::new();
        for samples in input.data()[..full * sample].chunks_exact(LANE_GROUP * sample) {
            let group = lane_group(samples, (c, h, w));
            let ended = grouped
                .iter_mut()
                .fold(group, |x, l| l.forward_lanes_owned(x));
            if rows.is_empty() {
                rows.reserve_exact(n * ended.len() / LANE_GROUP);
            }
            rows.extend_from_slice(ended.data());
            row_shape = ended.shape()[1..].to_vec();
        }
        if full < n {
            let rest =
                Tensor::from_vec(input.data()[full * sample..].to_vec(), &[n - full, c, h, w])
                    .expect("the remainder keeps its shape");
            let ended = grouped
                .iter_mut()
                .fold(rest, |x, l| l.forward_owned(x, false));
            rows.extend_from_slice(ended.data());
            row_shape = ended.shape()[1..].to_vec();
        }
        row_shape.insert(0, n);
        let x = Tensor::from_vec(rows, &row_shape).expect("one row per sample");
        Some(tail.iter_mut().fold(x, |x, l| l.forward_owned(x, false)))
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers: ", self.layers.len())?;
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "{})", names.join(" -> "))
    }
}

impl Layer for Sequential {
    fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            if let Some(out) = self.forward_in_lane_groups(input) {
                return out;
            }
        }
        // Feed the borrowed input straight to the first layer instead of
        // cloning it up front; only an empty container clones. Every later
        // layer owns its predecessor's output.
        match self.layers.split_first_mut() {
            Some((first, rest)) => {
                let x = first.forward(input, train);
                rest.iter_mut()
                    .fold(x, |x, layer| layer.forward_owned(x, train))
            }
            None => input.clone(),
        }
    }

    fn forward_owned(&mut self, input: Tensor, train: bool) -> Tensor {
        if !train {
            if let Some(out) = self.forward_in_lane_groups(&input) {
                return out;
            }
        }
        self.layers
            .iter_mut()
            .fold(input, |x, layer| layer.forward_owned(x, train))
    }

    /// `Lanes` when every layer keeps a lane group, `Ends` when every layer
    /// but the last keeps it and the last ends it.
    fn lane_form(&self) -> LaneForm {
        match self.lane_group_end() {
            None if self.layers.iter().all(|l| l.lane_form().keeps_lanes()) => LaneForm::Lanes,
            Some(end) if end + 1 == self.layers.len() => LaneForm::Ends,
            _ => LaneForm::None,
        }
    }

    fn forward_lanes(&mut self, group: &Tensor) -> Tensor {
        match self.layers.split_first_mut() {
            Some((first, rest)) => {
                let x = first.forward_lanes(group);
                rest.iter_mut()
                    .fold(x, |x, layer| layer.forward_lanes_owned(x))
            }
            None => group.clone(),
        }
    }

    fn forward_lanes_owned(&mut self, group: Tensor) -> Tensor {
        self.layers
            .iter_mut()
            .fold(group, |x, layer| layer.forward_lanes_owned(x))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        let mut shape = input_shape.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.flops(&shape);
            shape = layer.output_shape(&shape);
        }
        total
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn quantize_weights(&mut self) -> Vec<crate::quant::QuantLayerReport> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.quantize_weights())
            .collect()
    }

    fn is_quantized(&self) -> bool {
        self.layers.iter().any(|l| l.is_quantized())
    }

    fn begin_calibration(&mut self) {
        for layer in &mut self.layers {
            layer.begin_calibration();
        }
    }

    fn end_calibration(&mut self) {
        for layer in &mut self.layers {
            layer.end_calibration();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::{Dense, Relu};
    use crate::rng::SeededRng;

    fn small_mlp(rng: &mut SeededRng) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(4, 8, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, rng)),
        ])
    }

    #[test]
    fn forward_chains_layers() {
        let mut rng = SeededRng::new(0);
        let mut net = small_mlp(&mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        assert_eq!(net.forward(&x, true).shape(), &[5, 3]);
        assert_eq!(net.output_shape(&[4]), vec![3]);
    }

    #[test]
    fn flops_sum_over_layers() {
        let mut rng = SeededRng::new(1);
        let net = small_mlp(&mut rng);
        let expected = (2 * 4 * 8 + 8) + 8 + (2 * 8 * 3 + 3);
        assert_eq!(net.flops(&[4]), expected as u64);
    }

    #[test]
    fn params_collects_all_children() {
        let mut rng = SeededRng::new(2);
        let mut net = small_mlp(&mut rng);
        assert_eq!(net.params_mut().len(), 4);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut rng = SeededRng::new(3);
        let mut net = small_mlp(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        assert!(net.params_mut().iter().any(|p| p.grad.norm_sq() > 0.0));
        net.zero_grad();
        assert!(net.params_mut().iter().all(|p| p.grad.norm_sq() == 0.0));
    }

    #[test]
    fn gradcheck_composed() {
        // Use a smooth activation so finite differences do not cross a ReLU
        // kink at the hidden layer.
        use crate::layers::Sigmoid;
        let mut rng = SeededRng::new(4);
        let net = Sequential::new(vec![
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Sigmoid::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        check_layer_gradients(Box::new(net), &[3, 4], 2e-2, &mut rng);
    }

    #[test]
    fn summary_mentions_every_layer() {
        let mut rng = SeededRng::new(5);
        let net = small_mlp(&mut rng);
        let s = net.summary(&[4]);
        assert!(s.contains("Dense"));
        assert!(s.contains("Relu"));
        assert!(s.contains("TOTAL"));
    }

    /// `forward_owned` and `forward` against a chain of borrowed forwards
    /// over replicas of the same layers — the pass as it ran before any layer
    /// computed in place — bit for bit, on a stack with every layer that
    /// overrides `forward_owned` or adds in place: `BatchNorm2d`, `Relu`
    /// (fed `-0.0` and negatives), a `Residual` with and one without a
    /// projection shortcut. Eval and train; after a train pass the caches
    /// serve the same backward.
    #[test]
    fn forward_owned_matches_the_borrowed_chain_bit_for_bit() {
        use crate::kernels::tolerance::assert_bits_eq;
        use crate::layers::{BatchNorm2d, Conv2d, GlobalAvgPool2d, Residual};
        let mut rng = SeededRng::new(0x0B0E);
        let body = |rng: &mut SeededRng| {
            Sequential::new(vec![
                Box::new(Conv2d::new(4, 4, 3, 1, 1, rng)),
                Box::new(BatchNorm2d::new(4)),
                Box::new(Relu::new()),
            ])
        };
        let shortcut = Sequential::new(vec![Box::new(Conv2d::new(4, 4, 1, 1, 0, &mut rng))]);
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Relu::new()),
            Box::new(Residual::with_shortcut(body(&mut rng), shortcut)),
            Box::new(Residual::new(body(&mut rng))),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool2d::new()),
            Box::new(Dense::new(4, 3, &mut rng)),
        ]);
        let mut x = Tensor::randn(&[3, 3, 6, 6], &mut rng);
        x.data_mut()[..3].copy_from_slice(&[-0.0, 0.0, -1.5]);
        for train in [false, true] {
            let mut chain: Vec<Box<dyn Layer>> = net.iter().map(|l| l.clone_box()).collect();
            let mut want = x.clone();
            for layer in &mut chain {
                want = layer.forward(&want, train);
            }
            let (mut borrowed, mut owned) = (net.clone(), net.clone());
            let got = borrowed.forward(&x, train);
            assert_bits_eq(got.data(), want.data(), &format!("forward, train={train}"));
            let got = owned.forward_owned(x.clone(), train);
            assert_bits_eq(
                got.data(),
                want.data(),
                &format!("forward_owned, train={train}"),
            );
            if train {
                let go = Tensor::randn(want.shape(), &mut rng);
                let mut grad = go.clone();
                for layer in chain.iter_mut().rev() {
                    grad = layer.backward(&grad);
                }
                assert_bits_eq(owned.backward(&go).data(), grad.data(), "backward");
            }
        }
    }

    /// A backbone with a layer of every kind a lane group passes through:
    /// a padded stem, an identity and a projection residual block, a
    /// stride-2 depthwise and a pointwise convolution whose channel counts
    /// fill no whole vector of lanes, a channel shuffle — then the pooling
    /// that ends the group and a dense head behind it.
    fn lane_test_net(rng: &mut SeededRng) -> Sequential {
        use crate::layers::{
            BatchNorm2d, ChannelShuffle, Conv2d, DepthwiseConv2d, GlobalAvgPool2d, Residual,
        };
        let body = |rng: &mut SeededRng| {
            Sequential::new(vec![
                Box::new(Conv2d::new(6, 6, 3, 1, 1, rng)),
                Box::new(BatchNorm2d::new(6)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(6, 6, 3, 1, 1, rng)),
            ])
        };
        let down = Sequential::new(vec![
            Box::new(Conv2d::new(6, 10, 3, 2, 1, rng)),
            Box::new(BatchNorm2d::new(10)),
        ]);
        let shortcut = Sequential::new(vec![Box::new(Conv2d::new(6, 10, 1, 2, 0, rng))]);
        Sequential::new(vec![
            Box::new(Conv2d::new(3, 6, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(6)),
            Box::new(Relu::new()),
            Box::new(Residual::new(body(rng))),
            Box::new(Residual::with_shortcut(down, shortcut)),
            Box::new(DepthwiseConv2d::new(10, 3, 2, 1, rng)),
            Box::new(Conv2d::new(10, 18, 1, 1, 0, rng)),
            Box::new(ChannelShuffle::new(2)),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool2d::new()),
            Box::new(Dense::new(18, 5, rng)),
        ])
    }

    /// Fills every buffer of this thread's arena a lane group draws from
    /// with NaN.
    fn dirty_thread_scratch() {
        crate::kernels::with_thread_scratch(|scratch| {
            scratch.xpad.take(1 << 16).fill(f32::NAN);
            scratch.grid.take(1 << 12).fill(f32::NAN);
        });
    }

    /// `n` samples one at a time, sample by sample.
    fn per_sample(net: &Sequential, x: &Tensor) -> Vec<f32> {
        let mut net = net.clone();
        (0..x.shape()[0])
            .flat_map(|i| net.forward(&x.select_rows(&[i]), false).into_vec())
            .collect()
    }

    /// The lane-group eval forward against the per-sample one, bit for bit,
    /// on every backend, from NaN-dirtied scratch: a whole group, groups with
    /// a remainder of one and fifteen samples, and eight groups; borrowed and
    /// owned entry; with `±0.0`, `±inf` and NaN in the input.
    #[test]
    fn lane_batch_forward_matches_per_sample_on_every_isa() {
        use crate::kernels::simd;
        use crate::kernels::tolerance::assert_bits_eq;
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0x1A_7E);
        let mut net = lane_test_net(&mut rng);
        // One train pass moves the batch-norm statistics off (0, 1).
        let _ = net.forward(&Tensor::randn(&[4, 3, 9, 9], &mut rng), true);
        assert_eq!(net.lane_group_end(), Some(9));
        for n in [16usize, 17, 31, 32, 33, 128] {
            let mut x = Tensor::randn(&[n, 3, 9, 9], &mut rng);
            let specials = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            for (i, v) in specials.into_iter().enumerate() {
                x.data_mut()[(i * 97 + 5) % (n * 243)] = v;
            }
            for isa in simd::supported_isas() {
                let prev = simd::force_isa(Some(isa));
                let want = per_sample(&net, &x);
                dirty_thread_scratch();
                let borrowed = net.forward(&x, false);
                dirty_thread_scratch();
                let owned = net.clone().forward_owned(x.clone(), false);
                simd::force_isa(prev);
                assert_eq!(borrowed.shape(), &[n, 5]);
                assert_bits_eq(borrowed.data(), &want, &format!("n={n} {isa}"));
                assert_bits_eq(owned.data(), &want, &format!("n={n} {isa} owned"));
            }
        }
    }

    /// A NaN weight times a NaN activation — where which NaN survives
    /// depends on which operand comes first — yields the per-sample path's
    /// bits on the lane path: a pointwise convolution's NaN weight meets a
    /// NaN activation in its only product, and the sum after it carries that
    /// product's NaN unchanged; the depthwise stencil meets one at its centre
    /// tap. The explicit-SIMD backends pin the weight as the multiply's first
    /// operand in both tile roles; the scalar backend is plain Rust, whose
    /// compiler chooses the operand order (Rust leaves the payload of a
    /// NaN-by-NaN product unspecified), so there only the positions of the
    /// NaNs must agree — every other element bit for bit.
    #[test]
    fn lane_batch_nan_weight_times_nan_activation_keeps_the_per_sample_bits() {
        use crate::kernels::simd::{self, Isa};
        use crate::layers::{Conv2d, DepthwiseConv2d};
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0x0AA7);
        let (weight_nan, input_nan) = (f32::from_bits(0x7FC0_0A11), f32::from_bits(0xFFC0_0B22));
        let mut conv = Conv2d::new(2, 3, 1, 1, 0, &mut rng);
        conv.params_mut()[0].value.data_mut()[0] = weight_nan;
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        dw.params_mut()[0].value.data_mut()[4] = weight_nan;
        let mut x = Tensor::randn(&[16, 2, 4, 4], &mut rng);
        for sample in x.data_mut().chunks_exact_mut(32) {
            sample[5] = input_nan;
        }
        let group = lane_group(x.data(), (2, 4, 4));
        for mut layer in [Box::new(conv) as Box<dyn Layer>, Box::new(dw)] {
            let name = layer.name();
            for isa in simd::supported_isas() {
                let prev = simd::force_isa(Some(isa));
                let want = layer.forward(&x, false).into_vec();
                let lanes = layer.forward_lanes(&group);
                simd::force_isa(prev);
                // `[c][h][w][16]` back to `[16][c][h][w]`.
                let per_lane = lanes.len() / LANE_GROUP;
                let got = (0..want.len())
                    .map(|i| lanes.data()[(i % per_lane) * LANE_GROUP + i / per_lane]);
                let both_nan = want
                    .iter()
                    .zip(got.clone())
                    .filter(|(w, g)| w.is_nan() && g.is_nan());
                assert!(both_nan.count() >= 16, "{name} {isa}: no NaN met");
                for (i, (g, w)) in got.zip(&want).enumerate() {
                    if isa == Isa::Scalar && g.is_nan() && w.is_nan() {
                        continue;
                    }
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name} {isa} element {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_sequential_works() {
        let mut rng = SeededRng::new(6);
        let inner = small_mlp(&mut rng);
        let mut outer = Sequential::new(vec![Box::new(inner), Box::new(Relu::new())]);
        let x = Tensor::randn(&[2, 4], &mut rng);
        assert_eq!(outer.forward(&x, true).shape(), &[2, 3]);
    }
}
