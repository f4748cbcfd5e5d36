//! 2-D convolution layers (standard and depthwise), NCHW layout.
//!
//! Both layers read their input through a **window table**
//! (`kernels/window.rs`), built on the first forward and rebuilt only when
//! the input shape changes: `im2col(x)[p][s] == xpad[tapoff[p] + off[s]]`
//! over a zero-padded copy of the sample, so neither forward materialises
//! the im2col matrix.
//!
//! [`Conv2d`]'s forward — eval and train, pointwise included — is one
//! kernel with **output channels on the vector lanes**: the weights are
//! packed once as `[16-channel block][tap][16]` panels, and per block and
//! tile of output positions `acc[r][oc] = bias[oc]; for taps ascending:
//! acc[r][oc] += w[tap][oc] * xpad[tapoff[tap] + off[s0 + r]]` — the weight
//! row one vector load, the activation a scalar broadcast through the table.
//! After `quantize_weights()` its eval forward runs the same tiles on int8:
//! the Q8_0 filters packed once as tap-pair panels, a tile's activation rows
//! gathered through the table — from the padded image quantized once under a
//! calibrated scale, or field by field under dynamic ones — and exact integer
//! block dots combined in `f32` the way the quantized GEMM combines them, so
//! the bytes are those of `im2col` + transpose + `quant_gemm_into` without
//! any of the three. Its backward runs on the forward's tile kernel too, and
//! reads the input through the same table: the weight gradient `grad_out x
//! im2col(x)^T` with the table's roles swapped (`grad_out`'s channels on the
//! lanes, the reduction over positions, the rows over taps), the input
//! gradient as `weight^T x grad_out` columns scattered tap-major through the
//! table — in the order of the GEMM lowering and column-to-image scatter it
//! replaced, with no im2col matrix and no transposes.
//! [`DepthwiseConv2d`] issues no GEMM: forward and backward are direct
//! stencils, the forward over the stride-1 grid of window origins so that
//! every tap is a contiguous load. Either way taps are visited in the
//! original 7-deep loop's `ic -> ky -> kx` order, so forward outputs and
//! weight/bias gradients are bit-identical to the naive kernels (pinned by
//! the equivalence tests below against [`crate::kernels::naive`]); the input
//! gradient is summed in a different order than the naive loop — pinned bit
//! for bit against the lowering whose order it keeps, and against naive by
//! tolerance and gradcheck.
//!
//! Both layers draw the padded image (and the backward its panels and
//! columns) from the current thread's [`kernels::with_thread_scratch`] arena,
//! so steady-state inference reuses warmed high-water buffers instead of
//! allocating — on the calling thread and on the persistent batch-shard
//! workers alike (model replicas carry no scratch of their own). The input
//! is only cached for backward when `train == true`.
//!
//! [`Conv2d`] keeps its weight panels once an eval forward has built them,
//! so inference packs the constant operand once instead of once per call.
//! The panels are derived from the weights and dropped wherever those can
//! change or stop being used: `params_mut()`, `forward(train = true)` (which
//! packs for that one call, once for the whole batch) and
//! `quantize_weights()` — which packs the Q8 panels in their place, once, for
//! as long as the layer stays quantized. Neither layout depends on the ISA.

use crate::init::Init;
use crate::kernels;
use crate::kernels::naive::conv_out;
use crate::kernels::window::{transposed_lane_panels, ConvWindow, OcPanels, Q8Panels};
use crate::layer::{Layer, Param};
use crate::quant::{QuantLayerReport, QuantMatrix, QuantWeights};
use crate::rng::SeededRng;
use crate::tensor::Tensor;

/// The layer's window table for a `[c, h, w]` input, rebuilt when the shape
/// it was built for is not this one.
fn window_for(
    slot: &mut Option<ConvWindow>,
    (c, h, w): (usize, usize, usize),
    kernel: usize,
    stride: usize,
    padding: usize,
) -> &ConvWindow {
    match slot {
        Some(window) if window.input_shape() == (c, h, w) => {}
        _ => *slot = Some(ConvWindow::new(c, h, w, kernel, stride, padding)),
    }
    slot.as_ref().expect("window table was just ensured")
}

/// Standard 2-D convolution over NCHW tensors.
///
/// Weights have shape `[out_channels, in_channels, k, k]`; biases `[out_channels]`.
///
/// # Example
///
/// ```
/// use appeal_tensor::prelude::*;
///
/// let mut rng = SeededRng::new(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
/// let y = conv.forward(&x, true);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
    /// Q8_0 tier: the filters — one reduction row of length `in_c*k*k` per
    /// output channel, exactly the f32 weight layout — quantized and packed
    /// as output-channel-lane panels by `quantize_weights()`.
    /// [`DepthwiseConv2d`] deliberately has none: its per-channel `k*k`
    /// reductions are too short for int8 blocking to pay off.
    quant: Option<QuantWeights<Q8Panels>>,
    /// `weight` as output-channel-lane panels, built by the first f32 eval
    /// forward. Only ever `Some` while `weight` is unchanged since they were
    /// packed.
    oc_panels: Option<OcPanels>,
    /// Window table of the last input shape seen.
    window: Option<ConvWindow>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Init::KaimingNormal.build(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            fan_out,
            rng,
        );
        Self {
            weight: Param::new("conv.weight", weight),
            bias: Param::new("conv.bias", Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
            quant: None,
            oc_panels: None,
            window: None,
        }
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.rank(), 4, "Conv2d expects NCHW input");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "Conv2d channel mismatch"
        );
    }
}

impl Layer for Conv2d {
    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.check_input(input);
        if train {
            self.cached_input = Some(input.clone());
        } else {
            self.cached_input = None;
        }
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.kernel;
        let (oh, ow) = conv_out(h, w, k, self.stride, self.padding);
        let (s, ckk) = (oh * ow, c * k * k);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let oc = self.out_channels;
        let wgt = self.weight.value.data();
        let bias = self.bias.value.data();
        let window = window_for(&mut self.window, (c, h, w), k, self.stride, self.padding);
        // `max(1)`: an empty image or output is no sample, not a zero chunk.
        let samples = input
            .data()
            .chunks_exact((c * h * w).max(1))
            .zip(out.data_mut().chunks_exact_mut((oc * s).max(1)));
        if let (false, Some(q)) = (train, self.quant.as_mut()) {
            q.observe(input.data());
            let (panels, act_scale) = (&q.weight, q.act_scale);
            kernels::with_thread_scratch(|scratch| {
                for (xb, ob) in samples {
                    let xpad = window.pad(xb, &mut scratch.xpad);
                    window.q8_conv_forward(xpad, act_scale, panels, bias, ob, &mut scratch.quant);
                }
            });
            return out;
        }
        let packed_for_this_call;
        let panels = if train {
            // Training is about to change the weights: pack for this call
            // only, once for the whole batch.
            self.oc_panels = None;
            packed_for_this_call = OcPanels::pack(oc, ckk, wgt);
            &packed_for_this_call
        } else {
            &*self
                .oc_panels
                .get_or_insert_with(|| OcPanels::pack(oc, ckk, wgt))
        };
        kernels::with_thread_scratch(|scratch| {
            for (xb, ob) in samples {
                let xpad = window.pad(xb, &mut scratch.xpad);
                window.conv_forward(xpad, panels, bias, ob);
            }
        });
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.kernel;
        let oc = self.out_channels;
        let (oh, ow) = conv_out(h, w, k, self.stride, self.padding);
        assert_eq!(
            grad_output.shape(),
            &[n, oc, oh, ow],
            "Conv2d backward shape mismatch"
        );
        let (s, ckk) = (oh * ow, c * k * k);
        let mut grad_input = Tensor::zeros(input.shape());
        let x = input.data();
        let wgt = self.weight.value.data();
        let go = grad_output.data();
        let gw = self.weight.grad.data_mut();
        let gb = self.bias.grad.data_mut();
        let gi = grad_input.data_mut();
        let window = window_for(&mut self.window, (c, h, w), k, self.stride, self.padding);
        kernels::with_thread_scratch(|scratch| {
            // W^T as lane panels, shared by every sample's input gradient.
            let wt = transposed_lane_panels(oc, ckk, wgt, &mut scratch.weight_t);
            for b in 0..n {
                let xb = &x[b * c * h * w..(b + 1) * c * h * w];
                let gob = &go[b * oc * s..(b + 1) * oc * s];
                let gib = &mut gi[b * c * h * w..(b + 1) * c * h * w];
                // Bias gradient: per output channel, sum over spatial positions
                // (batch-major accumulation, same order as the naive loop).
                for (o, gbo) in gb.iter_mut().enumerate() {
                    let mut acc = *gbo;
                    for &g in &gob[o * s..(o + 1) * s] {
                        acc += g;
                    }
                    *gbo = acc;
                }
                let xpad = window.pad(xb, &mut scratch.xpad);
                window.weight_grad(xpad, gob, gw, &mut scratch.packs.a);
                window.input_grad(
                    wt,
                    gob,
                    gib,
                    &mut scratch.packs.table,
                    &mut scratch.grad_cols,
                    &mut scratch.grad_pad,
                );
            }
        });
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // The caller may write the weights through the returned borrow.
        self.oc_panels = None;
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (h, w) = (input_shape[1], input_shape[2]);
        let (oh, ow) = conv_out(h, w, self.kernel, self.stride, self.padding);
        vec![self.out_channels, oh, ow]
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        let (h, w) = (input_shape[1], input_shape[2]);
        let (oh, ow) = conv_out(h, w, self.kernel, self.stride, self.padding);
        // 2 FLOPs per MAC, over out_c * oh * ow output positions each summing
        // in_c * k * k products, plus the bias add.
        let macs = self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel;
        (2 * macs + self.out_channels * oh * ow) as u64
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn quantize_weights(&mut self) -> Vec<QuantLayerReport> {
        // The f32 weight [oc, c, k, k] is already row-major [oc, c*k*k]:
        // one reduction row per filter.
        let w = self.weight.value.data();
        let ckk = self.in_channels * self.kernel * self.kernel;
        let qm = QuantMatrix::from_rows(w, self.out_channels, ckk);
        let report = qm.report_against_rows(self.name(), w);
        // Eval forwards run the Q8 kernel from here on.
        self.oc_panels = None;
        self.quant = Some(QuantWeights::new(Q8Panels::pack(&qm)));
        vec![report]
    }

    fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    fn begin_calibration(&mut self) {
        if let Some(q) = self.quant.as_mut() {
            q.begin_calibration();
        }
    }

    fn end_calibration(&mut self) {
        if let Some(q) = self.quant.as_mut() {
            q.end_calibration();
        }
    }
}

/// Depthwise 2-D convolution: each input channel is convolved with its own
/// single-channel kernel (the building block of MobileNet-style models).
/// Has no quantized tier (see [`Layer::quantize_weights`]): its per-channel
/// `k*k` reductions are shorter than one Q8_0 block, so it stays f32 even in
/// a quantized model — the containers' reports simply skip it.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    weight: Param,
    bias: Param,
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
    /// Window table of the last input shape seen.
    window: Option<ConvWindow>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        let fan_in = kernel * kernel;
        let weight = Init::KaimingNormal.build(&[channels, kernel, kernel], fan_in, fan_in, rng);
        Self {
            weight: Param::new("dwconv.weight", weight),
            bias: Param::new("dwconv.bias", Tensor::zeros(&[channels])),
            channels,
            kernel,
            stride,
            padding,
            cached_input: None,
            window: None,
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "DepthwiseConv2d expects NCHW input");
        assert_eq!(input.shape()[1], self.channels, "channel mismatch");
        if train {
            self.cached_input = Some(input.clone());
        } else {
            self.cached_input = None;
        }
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = conv_out(h, w, self.kernel, self.stride, self.padding);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let wgt = self.weight.value.data();
        let bias = self.bias.value.data();
        let window = window_for(
            &mut self.window,
            (c, h, w),
            self.kernel,
            self.stride,
            self.padding,
        );
        kernels::with_thread_scratch(|scratch| {
            for (xb, ob) in input
                .data()
                .chunks_exact(c * h * w)
                .zip(out.data_mut().chunks_exact_mut(c * oh * ow))
            {
                let xpad = window.pad(xb, &mut scratch.xpad);
                window.depthwise_forward(xpad, wgt, bias, ob, &mut scratch.grid);
            }
        });
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = conv_out(h, w, self.kernel, self.stride, self.padding);
        assert_eq!(
            grad_output.shape(),
            &[n, c, oh, ow],
            "DepthwiseConv2d backward shape mismatch"
        );
        let mut grad_input = Tensor::zeros(input.shape());
        let wgt = self.weight.value.data();
        let gw = self.weight.grad.data_mut();
        let gb = self.bias.grad.data_mut();
        let window = window_for(
            &mut self.window,
            (c, h, w),
            self.kernel,
            self.stride,
            self.padding,
        );
        kernels::with_thread_scratch(|scratch| {
            // Batch-major, like the naive loop.
            for ((xb, gob), gib) in input
                .data()
                .chunks_exact(c * h * w)
                .zip(grad_output.data().chunks_exact(c * oh * ow))
                .zip(grad_input.data_mut().chunks_exact_mut(c * h * w))
            {
                let xpad = window.pad(xb, &mut scratch.xpad);
                window.depthwise_backward(xpad, wgt, gob, gw, gb, gib, &mut scratch.grad_pad);
            }
        });
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (h, w) = (input_shape[1], input_shape[2]);
        let (oh, ow) = conv_out(h, w, self.kernel, self.stride, self.padding);
        vec![self.channels, oh, ow]
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        let (h, w) = (input_shape[1], input_shape[2]);
        let (oh, ow) = conv_out(h, w, self.kernel, self.stride, self.padding);
        let macs = self.channels * oh * ow * self.kernel * self.kernel;
        (2 * macs + self.channels * oh * ow) as u64
    }

    fn name(&self) -> &'static str {
        "DepthwiseConv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::quant::q8_block_scale;

    #[test]
    fn output_hw_formula() {
        assert_eq!(conv_out(8, 8, 3, 1, 1), (8, 8));
        assert_eq!(conv_out(8, 8, 3, 2, 1), (4, 4));
        assert_eq!(conv_out(7, 7, 3, 1, 0), (5, 5));
    }

    // A 5x5 kernel on an unpadded 3x3 input, where `h + 2p - k` would wrap:
    // every entry point that derives an output size refuses it.

    #[test]
    #[should_panic(expected = "5x5 kernel does not fit a 3x3 input with padding 0")]
    fn conv_output_shape_rejects_a_kernel_larger_than_the_input() {
        let conv = Conv2d::new(1, 1, 5, 1, 0, &mut SeededRng::new(0));
        let _ = conv.output_shape(&[1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "5x5 kernel does not fit a 3x3 input with padding 0")]
    fn conv_flops_rejects_a_kernel_larger_than_the_input() {
        let conv = Conv2d::new(1, 1, 5, 1, 0, &mut SeededRng::new(0));
        let _ = conv.flops(&[1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "5x5 kernel does not fit a 3x3 input with padding 0")]
    fn conv_forward_rejects_a_kernel_larger_than_the_input() {
        let mut conv = Conv2d::new(1, 1, 5, 1, 0, &mut SeededRng::new(0));
        let _ = conv.forward(&Tensor::zeros(&[1, 1, 3, 3]), false);
    }

    #[test]
    #[should_panic(expected = "5x5 kernel does not fit a 3x3 input with padding 0")]
    fn depthwise_output_shape_rejects_a_kernel_larger_than_the_input() {
        let dw = DepthwiseConv2d::new(1, 5, 1, 0, &mut SeededRng::new(0));
        let _ = dw.output_shape(&[1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "5x5 kernel does not fit a 3x3 input with padding 0")]
    fn depthwise_flops_rejects_a_kernel_larger_than_the_input() {
        let dw = DepthwiseConv2d::new(1, 5, 1, 0, &mut SeededRng::new(0));
        let _ = dw.flops(&[1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "5x5 kernel does not fit a 3x3 input with padding 0")]
    fn depthwise_forward_rejects_a_kernel_larger_than_the_input() {
        let mut dw = DepthwiseConv2d::new(1, 5, 1, 0, &mut SeededRng::new(0));
        let _ = dw.forward(&Tensor::zeros(&[1, 1, 3, 3]), false);
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::ones(&[1, 1, 1, 1]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        let y = conv.forward(&x, true);
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn conv_known_values() {
        // 2x2 input, 2x2 kernel of ones, no padding: output = sum of inputs.
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        conv.weight.value = Tensor::ones(&[1, 1, 2, 2]);
        conv.bias.value = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 10.5);
    }

    #[test]
    fn conv_stride_and_padding_shapes() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(3, 6, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 6, 8, 8]);
        assert_eq!(conv.output_shape(&[3, 16, 16]), vec![6, 8, 8]);
    }

    #[test]
    fn conv_gradcheck() {
        let mut rng = SeededRng::new(2);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        check_layer_gradients(Box::new(conv), &[2, 2, 5, 5], 2e-2, &mut rng);
    }

    #[test]
    fn conv_gradcheck_strided() {
        let mut rng = SeededRng::new(3);
        let conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        check_layer_gradients(Box::new(conv), &[1, 2, 6, 6], 2e-2, &mut rng);
    }

    #[test]
    fn conv_gradcheck_pointwise() {
        // A pointwise layer's input-gradient columns are the gradient itself,
        // with no scatter; check it too.
        let mut rng = SeededRng::new(21);
        let conv = Conv2d::new(3, 2, 1, 1, 0, &mut rng);
        check_layer_gradients(Box::new(conv), &[2, 3, 4, 4], 2e-2, &mut rng);
    }

    #[test]
    fn depthwise_preserves_channels() {
        let mut rng = SeededRng::new(4);
        let mut dw = DepthwiseConv2d::new(5, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 5, 8, 8], &mut rng);
        let y = dw.forward(&x, true);
        assert_eq!(y.shape(), &[2, 5, 8, 8]);
    }

    #[test]
    fn depthwise_gradcheck() {
        let mut rng = SeededRng::new(5);
        let dw = DepthwiseConv2d::new(3, 3, 1, 1, &mut rng);
        check_layer_gradients(Box::new(dw), &[2, 3, 5, 5], 2e-2, &mut rng);
    }

    #[test]
    fn depthwise_gradcheck_strided() {
        let mut rng = SeededRng::new(15);
        let dw = DepthwiseConv2d::new(2, 3, 2, 1, &mut rng);
        check_layer_gradients(Box::new(dw), &[1, 2, 6, 6], 2e-2, &mut rng);
    }

    #[test]
    fn depthwise_flops_less_than_full_conv() {
        let mut rng = SeededRng::new(6);
        let conv = Conv2d::new(16, 16, 3, 1, 1, &mut rng);
        let dw = DepthwiseConv2d::new(16, 3, 1, 1, &mut rng);
        assert!(dw.flops(&[16, 8, 8]) < conv.flops(&[16, 8, 8]) / 8);
    }

    #[test]
    fn quantized_conv_eval_matches_direct_kernel_and_tracks_f32() {
        let mut rng = SeededRng::new(0x0A11);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        conv.bias.value = Tensor::randn(&[8], &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let f32_out = conv.forward(&x, false);
        let reports = conv.quantize_weights();
        assert!(conv.is_quantized());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].layer, "Conv2d");
        assert!(reports[0].within_bound());
        let q_out = conv.forward(&x, false);
        assert_eq!(q_out.shape(), f32_out.shape());
        // The layer computes the bytes of im2col -> transpose -> quantized
        // GEMM -> transpose, with none of the four.
        let (s, ckk) = (64usize, 27usize);
        let qm = QuantMatrix::from_rows(conv.weight.value.data(), 8, ckk);
        let mut cols = vec![0.0f32; ckk * s];
        let mut cols_t = vec![0.0f32; s * ckk];
        let mut out_t = vec![0.0f32; s * 8];
        let mut expect = vec![0.0f32; 2 * 8 * s];
        let mut scratch = kernels::QuantScratch::new();
        for b in 0..2 {
            let xb = &x.data()[b * 3 * 64..(b + 1) * 3 * 64];
            kernels::im2col(xb, 3, 8, 8, 3, 1, 1, 8, 8, &mut cols);
            kernels::transpose_into(&cols, ckk, s, &mut cols_t);
            kernels::quant_gemm_into(
                s,
                ckk,
                8,
                &cols_t,
                &qm,
                Some(conv.bias.value.data()),
                None,
                &mut out_t,
                &mut scratch,
            );
            kernels::transpose_into(&out_t, s, 8, &mut expect[b * 8 * s..(b + 1) * 8 * s]);
        }
        for (a, b) in q_out.data().iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Close to the f32 output on unit-scale data.
        for (a, b) in q_out.data().iter().zip(f32_out.data()) {
            assert!((a - b).abs() < 0.3, "quantized {a} too far from f32 {b}");
        }
        // Training forwards ignore quantization, bit for bit.
        let trained = conv.forward(&x, true);
        for (a, b) in trained.data().iter().zip(f32_out.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quantized_pointwise_conv_runs_without_im2col() {
        let mut rng = SeededRng::new(0x0A12);
        let mut conv = Conv2d::new(4, 6, 1, 1, 0, &mut rng);
        let x = Tensor::randn(&[1, 4, 5, 5], &mut rng);
        let f32_out = conv.forward(&x, false);
        conv.quantize_weights();
        let q_out = conv.forward(&x, false);
        assert_eq!(q_out.shape(), f32_out.shape());
        for (a, b) in q_out.data().iter().zip(f32_out.data()) {
            assert!((a - b).abs() < 0.3);
        }
    }

    #[test]
    fn conv_calibration_freezes_input_scale() {
        let mut rng = SeededRng::new(0x0A13);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        conv.quantize_weights();
        conv.begin_calibration();
        let _ = conv.forward(&x, false);
        conv.end_calibration();
        let absmax = x.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert_eq!(
            conv.quant.as_ref().unwrap().act_scale,
            Some(q8_block_scale(absmax))
        );
    }

    #[test]
    fn packed_weight_follows_the_weights_it_was_built_from() {
        let mut rng = SeededRng::new(0x9AC5);
        let mut conv = Conv2d::new(8, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 8, 8, 8], &mut rng);
        assert!(conv.oc_panels.is_none());
        let trained = conv.forward(&x, true);
        assert!(conv.oc_panels.is_none(), "train forwards keep no panels");
        let eval = conv.forward(&x, false);
        assert!(conv.oc_panels.is_some(), "first eval forward packs");
        assert_eq!(trained.data(), eval.data());
        // A replica carries the panels; a weight edit through `params_mut`
        // drops them and the next eval forward sees the new weights.
        assert!(conv.clone().oc_panels.is_some());
        for v in conv.params_mut()[0].value.data_mut() {
            *v = -*v;
        }
        assert!(conv.oc_panels.is_none(), "params_mut invalidates");
        let flipped = conv.forward(&x, false);
        let expect = conv.forward(&x, true);
        assert!(conv.oc_panels.is_none(), "forward(train) invalidates");
        assert_eq!(flipped.data(), expect.data());
        assert_ne!(flipped.data(), eval.data());
        let _ = conv.forward(&x, false);
        conv.quantize_weights();
        assert!(conv.oc_panels.is_none(), "quantizing invalidates");
        let _ = conv.forward(&x, false);
        assert!(conv.oc_panels.is_none(), "quantized eval never packs");
    }

    #[test]
    fn depthwise_has_no_quantized_tier() {
        let mut rng = SeededRng::new(0x0A14);
        let mut dw = DepthwiseConv2d::new(4, 3, 1, 1, &mut rng);
        assert!(dw.quantize_weights().is_empty());
        assert!(!dw.is_quantized());
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_wrong_channels() {
        let mut rng = SeededRng::new(7);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 2, 8, 8]);
        let _ = conv.forward(&x, true);
    }

    #[test]
    #[should_panic(expected = "backward shape mismatch")]
    fn conv_backward_rejects_a_misshaped_gradient() {
        let mut rng = SeededRng::new(9);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let _ = conv.forward(&Tensor::randn(&[1, 2, 5, 5], &mut rng), true);
        let _ = conv.backward(&Tensor::ones(&[1, 3, 5, 4]));
    }

    #[test]
    #[should_panic(expected = "backward shape mismatch")]
    fn depthwise_backward_rejects_a_misshaped_gradient() {
        // Same element count as the true [1, 2, 3, 3] gradient, so nothing
        // downstream of the assert would have caught it.
        let mut rng = SeededRng::new(10);
        let mut dw = DepthwiseConv2d::new(2, 3, 2, 1, &mut rng);
        let _ = dw.forward(&Tensor::randn(&[1, 2, 5, 5], &mut rng), true);
        let _ = dw.backward(&Tensor::ones(&[1, 3, 3, 2]));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn eval_forward_does_not_cache_input() {
        // Inference must not pay for the training-only input cache; backward
        // after an eval-mode forward is a caller bug and panics.
        let mut rng = SeededRng::new(8);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let y = conv.forward(&x, false);
        let _ = conv.backward(&Tensor::ones(y.shape()));
    }
}

#[cfg(test)]
mod equivalence {
    //! Property suite: the layers against the retained naive reference
    //! kernels and against the im2col lowering, over seeded random shapes /
    //! stride / padding combinations (the proptest-as-loops idiom used across
    //! this crate).
    //!
    //! Forward outputs and weight/bias gradients are checked bit for bit
    //! against naive, the input gradient bit for bit against the lowering.

    use super::*;
    use crate::kernels::tolerance::assert_bits_eq;
    use crate::kernels::{naive, simd, GemmInit, PackScratch};

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// (kernel, stride, padding) combinations exercised by every suite. The
    /// 7x7/padding-2 entry makes the kernel span the whole padded width of
    /// the smallest test images, where some taps have an empty valid column
    /// range (im2col underflow regression).
    const GEOMETRIES: [(usize, usize, usize); 6] = [
        (1, 1, 0),
        (3, 1, 1),
        (3, 2, 1),
        (2, 2, 0),
        (3, 1, 0),
        (7, 1, 2),
    ];

    #[test]
    fn conv_forward_matches_naive_under_build_contract() {
        let mut rng = SeededRng::new(0xC0DE);
        for &(k, stride, padding) in &GEOMETRIES {
            // The (1, 8, 8, 16) shape gives the kernel several full tiles
            // of positions per lane block.
            for &(n, c, oc, hw) in &[
                (1usize, 1usize, 1usize, 6usize),
                (2, 3, 5, 8),
                (3, 4, 2, 7),
                (1, 8, 8, 16),
            ] {
                let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng);
                let x = Tensor::randn(&[n, c, hw, hw], &mut rng);
                // Give the bias nonzero values so seeding order matters.
                conv.bias.value = Tensor::randn(&[oc], &mut rng);
                let y = conv.forward(&x, false);
                let expect = naive::conv2d_forward_naive(
                    x.data(),
                    n,
                    c,
                    hw,
                    hw,
                    conv.weight.value.data(),
                    conv.bias.value.data(),
                    oc,
                    k,
                    stride,
                    padding,
                );
                assert_bits_eq(
                    y.data(),
                    &expect,
                    &format!("conv fwd k={k} s={stride} p={padding} n={n} c={c} oc={oc}"),
                );
            }
        }
    }

    #[test]
    fn conv_backward_matches_naive() {
        // Weight and bias gradients accumulate in the same order as the naive
        // loop and must be bit-identical; the input gradient reassociates the
        // output-channel sum (GEMM before scatter) and is compared with a
        // tight numeric tolerance here, bit for bit against the lowering in
        // `conv_backward_matches_the_gemm_lowering_bit_for_bit`.
        let mut rng = SeededRng::new(0xBACC);
        for &(k, stride, padding) in &GEOMETRIES {
            let (n, c, oc, hw) = (2usize, 3usize, 4usize, 7usize);
            let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng);
            let x = Tensor::randn(&[n, c, hw, hw], &mut rng);
            let y = conv.forward(&x, true);
            let go = Tensor::randn(y.shape(), &mut rng);
            let gi = conv.backward(&go);
            let (gi_ref, gw_ref, gb_ref) = naive::conv2d_backward_naive(
                x.data(),
                n,
                c,
                hw,
                hw,
                conv.weight.value.data(),
                go.data(),
                oc,
                k,
                stride,
                padding,
            );
            let tag = format!("conv bwd k={k} s={stride} p={padding}");
            assert_bits_eq(conv.weight.grad.data(), &gw_ref, &format!("{tag} gw"));
            assert_bits_eq(conv.bias.grad.data(), &gb_ref, &format!("{tag} gb"));
            assert!(
                max_abs_diff(gi.data(), &gi_ref) < 1e-4,
                "{tag} gi deviates beyond reassociation noise"
            );
        }
    }

    #[test]
    fn depthwise_forward_matches_naive_under_build_contract() {
        let mut rng = SeededRng::new(0xDEE7);
        for &(k, stride, padding) in &GEOMETRIES {
            for &(n, c, hw) in &[(1usize, 1usize, 6usize), (2, 5, 8), (3, 3, 7)] {
                let mut dw = DepthwiseConv2d::new(c, k, stride, padding, &mut rng);
                dw.bias.value = Tensor::randn(&[c], &mut rng);
                let x = Tensor::randn(&[n, c, hw, hw], &mut rng);
                let y = dw.forward(&x, false);
                let expect = naive::depthwise_forward_naive(
                    x.data(),
                    n,
                    c,
                    hw,
                    hw,
                    dw.weight.value.data(),
                    dw.bias.value.data(),
                    k,
                    stride,
                    padding,
                );
                assert_bits_eq(
                    y.data(),
                    &expect,
                    &format!("dw fwd k={k} s={stride} p={padding} n={n} c={c}"),
                );
            }
        }
    }

    #[test]
    fn depthwise_backward_matches_naive() {
        let mut rng = SeededRng::new(0xDBAC);
        for &(k, stride, padding) in &GEOMETRIES {
            let (n, c, hw) = (2usize, 3usize, 7usize);
            let mut dw = DepthwiseConv2d::new(c, k, stride, padding, &mut rng);
            let x = Tensor::randn(&[n, c, hw, hw], &mut rng);
            let y = dw.forward(&x, true);
            let go = Tensor::randn(y.shape(), &mut rng);
            let gi = dw.backward(&go);
            let (gi_ref, gw_ref, gb_ref) = naive::depthwise_backward_naive(
                x.data(),
                n,
                c,
                hw,
                hw,
                dw.weight.value.data(),
                go.data(),
                k,
                stride,
                padding,
            );
            let tag = format!("dw bwd k={k} s={stride} p={padding}");
            assert_bits_eq(dw.weight.grad.data(), &gw_ref, &format!("{tag} gw"));
            assert_bits_eq(dw.bias.grad.data(), &gb_ref, &format!("{tag} gb"));
            // The scatter runs tap-major rather than by output pixel, so the
            // input gradient is compared numerically.
            assert!(
                max_abs_diff(gi.data(), &gi_ref) < 1e-5,
                "{tag} gi deviates beyond reassociation noise"
            );
        }
    }

    #[test]
    fn kernel_spanning_full_padded_width_matches_naive() {
        // w + 2p == k: the 1x1-output geometry where some im2col taps have an
        // empty valid column range (underflow regression in the stride-1
        // fast path).
        let mut rng = SeededRng::new(0x0F_F5);
        let mut conv = Conv2d::new(2, 3, 7, 1, 2, &mut rng);
        conv.bias.value = Tensor::randn(&[3], &mut rng);
        let x = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 3, 1, 1]);
        let expect = naive::conv2d_forward_naive(
            x.data(),
            2,
            2,
            3,
            3,
            conv.weight.value.data(),
            conv.bias.value.data(),
            3,
            7,
            1,
            2,
        );
        assert_bits_eq(y.data(), &expect, "full-padded-width conv");
        // Backward through the same geometry (the scatter side).
        let go = Tensor::randn(y.shape(), &mut rng);
        let gi = conv.backward(&go);
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn forward_is_identical_across_train_and_eval() {
        // Dropping the input cache in eval mode — and, for `Conv2d`, packing
        // the weights for one call instead of keeping the panels — must not
        // change outputs.
        let mut rng = SeededRng::new(0x7E57);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let mut pointwise = Conv2d::new(3, 17, 1, 1, 0, &mut rng);
        let mut dw = DepthwiseConv2d::new(3, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let layers: [&mut dyn Layer; 3] = [&mut conv, &mut pointwise, &mut dw];
        for layer in layers {
            let train = layer.forward(&x, true);
            let eval = layer.forward(&x, false);
            let tag = format!("{} train vs eval forward", layer.name());
            assert_bits_eq(train.data(), eval.data(), &tag);
        }
    }

    /// `±0.0`, `±inf` and `NaN` on the image border and one step inside it —
    /// where a padding tap's `w * 0.0` meets them — plus one channel of
    /// nothing but `-0.0`, whose outputs are exact zeros of either sign.
    fn plant_specials(x: &mut Tensor) {
        let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
        for sample in x.data_mut().chunks_exact_mut(c * h * w) {
            sample[0] = -0.0;
            sample[w - 1] = f32::INFINITY;
            sample[(h - 1) * w] = f32::NEG_INFINITY;
            sample[w + 1] = f32::NAN;
            sample[(h - 2) * w + w - 2] = f32::INFINITY;
            sample[h * w - 1] = -0.0;
            sample[(c - 1) * h * w..].fill(-0.0);
        }
    }

    /// Bit equality, except that any NaN matches any NaN (payloads are not
    /// part of the contract).
    fn assert_bits_eq_modulo_nan(got: &[f32], want: &[f32], tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{tag}: mismatch at {i}: {g} vs {w}"
            );
        }
    }

    /// Fills every buffer of this thread's scratch arena that a backward
    /// draws from with NaN (the GEMM table with `u32::MAX`), so a read of
    /// stale scratch shows in the gradients.
    fn dirty_thread_scratch() {
        kernels::with_thread_scratch(|scratch| {
            for buf in [
                &mut scratch.xpad,
                &mut scratch.grad_pad,
                &mut scratch.grad_cols,
                &mut scratch.weight_t,
                &mut scratch.packs.a,
            ] {
                buf.take(4096).fill(f32::NAN);
            }
            scratch.packs.table.take(4096).fill(u32::MAX);
        });
    }

    /// `Conv2d::backward` against the GEMM lowering it replaced, rebuilt here
    /// from `im2col`, `naive::matmul_naive` and a tap-major scatter loop —
    /// the lowering's column-to-image order — bit for bit in all three
    /// gradients: on every
    /// backend; over two backward calls without `zero_grad`, so the second
    /// seeds every weight-gradient tile, ragged ones included, from the
    /// first; on inputs with specials planted on and next to the border;
    /// from NaN-dirtied scratch arenas; for 1, 8 and 17 output channels over
    /// a pointwise, a 1x1 stride-2 and a 3x3 stride-2 layer and a kernel
    /// spanning the whole padded width. The weight gradient is accumulated
    /// from its current value in `s` order, as the lowering's `Accumulate`
    /// GEMM did.
    #[test]
    fn conv_backward_matches_the_gemm_lowering_bit_for_bit() {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0xBA_C2);
        let (n, c) = (2usize, 3usize);
        for (k, stride, padding, hw) in [(1, 1, 0, 6), (1, 2, 0, 7), (3, 2, 1, 7), (7, 1, 2, 3)] {
            let (oh, ow) = conv_out(hw, hw, k, stride, padding);
            let (s, ckk, image) = (oh * ow, c * k * k, c * hw * hw);
            for oc in [1usize, 8, 17] {
                let mut x = Tensor::randn(&[n, c, hw, hw], &mut rng);
                plant_specials(&mut x);
                let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng);
                let y = conv.forward(&x, true);
                let gos = [
                    Tensor::randn(y.shape(), &mut rng),
                    Tensor::randn(y.shape(), &mut rng),
                ];

                let mut wt = vec![0.0f32; ckk * oc];
                kernels::transpose_into(conv.weight.value.data(), oc, ckk, &mut wt);
                let (mut gw, mut gb) = (vec![0.0f32; oc * ckk], vec![0.0f32; oc]);
                let mut cols = vec![0.0f32; ckk * s];
                let mut want = Vec::new();
                for go in &gos {
                    let mut gi = vec![0.0f32; n * image];
                    for (b, gob) in go.data().chunks_exact(oc * s).enumerate() {
                        let xb = &x.data()[b * image..(b + 1) * image];
                        kernels::im2col(xb, c, hw, hw, k, stride, padding, oh, ow, &mut cols);
                        for (o, goc) in gob.chunks_exact(s).enumerate() {
                            for (j, &g) in goc.iter().enumerate() {
                                gb[o] += g;
                                for (p, gwv) in gw[o * ckk..(o + 1) * ckk].iter_mut().enumerate() {
                                    *gwv += g * cols[p * s + j];
                                }
                            }
                        }
                        let gcols = naive::matmul_naive(ckk, oc, s, &wt, gob);
                        let gib = &mut gi[b * image..(b + 1) * image];
                        for (p, row) in gcols.chunks_exact(s).enumerate() {
                            let (ic, ky, kx) = (p / (k * k), p / k % k, p % k);
                            for (j, &v) in row.iter().enumerate() {
                                let iy = (j / ow * stride + ky) as isize - padding as isize;
                                let ix = (j % ow * stride + kx) as isize - padding as isize;
                                let inside = 0..hw as isize;
                                if inside.contains(&iy) && inside.contains(&ix) {
                                    gib[(ic * hw + iy as usize) * hw + ix as usize] += v;
                                }
                            }
                        }
                    }
                    want.push((gi, gw.clone(), gb.clone()));
                }

                for isa in simd::supported_isas() {
                    let prev = simd::force_isa(Some(isa));
                    let mut layer = conv.clone();
                    for (call, (go, (gi, gw, gb))) in gos.iter().zip(&want).enumerate() {
                        dirty_thread_scratch();
                        let got = layer.backward(go);
                        let tag = format!("k={k} s={stride} p={padding} oc={oc} call {call} {isa}");
                        assert_bits_eq_modulo_nan(got.data(), gi, &format!("{tag} gi"));
                        let gw_got = layer.weight.grad.data();
                        assert_bits_eq_modulo_nan(gw_got, gw, &format!("{tag} gw"));
                        let gb_got = layer.bias.grad.data();
                        assert_bits_eq_modulo_nan(gb_got, gb, &format!("{tag} gb"));
                    }
                    simd::force_isa(prev);
                }
            }
        }
    }

    /// Both forwards against the lowering they replaced — `im2col` then
    /// `gemm_into`, per sample (per channel for depthwise), built here from
    /// the public kernels — on inputs full of specials, for every geometry,
    /// on every ISA. The window paths promise the same bits as that
    /// lowering, signed zeros included.
    #[test]
    fn window_forwards_match_the_im2col_lowering_on_special_values() {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0x51_EC);
        let mut packs = PackScratch::new();
        for &(k, stride, padding) in &GEOMETRIES {
            // Half a lane block; one lane (against the `i-k-j` GEMM); a full
            // block and one lane of the next.
            for &(n, c, oc, hw) in &[
                (2usize, 3usize, 8usize, 8usize),
                (1, 2, 1, 7),
                (1, 2, 17, 7),
            ] {
                let (oh, ow) = conv_out(hw, hw, k, stride, padding);
                let (s, kk) = (oh * ow, k * k);
                let mut x = Tensor::randn(&[n, c, hw, hw], &mut rng);
                plant_specials(&mut x);
                let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng);
                conv.bias.value = Tensor::randn(&[oc], &mut rng);
                let mut dw = DepthwiseConv2d::new(c, k, stride, padding, &mut rng);
                dw.bias.value = Tensor::randn(&[c], &mut rng);
                dw.bias.value.data_mut()[c - 1] = -0.0;
                for isa in simd::supported_isas() {
                    let prev = simd::force_isa(Some(isa));
                    let tag = format!("k={k} s={stride} p={padding} n={n} c={c} on {isa}");

                    let mut cols = vec![0.0f32; c * kk * s];
                    let mut want = vec![0.0f32; n * oc * s];
                    for (xb, ob) in x
                        .data()
                        .chunks_exact(c * hw * hw)
                        .zip(want.chunks_exact_mut(oc * s))
                    {
                        kernels::im2col(xb, c, hw, hw, k, stride, padding, oh, ow, &mut cols);
                        kernels::gemm_into(
                            oc,
                            c * kk,
                            s,
                            conv.weight.value.data(),
                            &cols,
                            GemmInit::RowBias(conv.bias.value.data()),
                            ob,
                            &mut packs,
                        );
                    }
                    for train in [false, true] {
                        let got = conv.forward(&x, train);
                        assert_bits_eq_modulo_nan(got.data(), &want, &format!("conv {tag}"));
                    }

                    let mut want = vec![0.0f32; n * c * s];
                    for (i, (xc, oc)) in x
                        .data()
                        .chunks_exact(hw * hw)
                        .zip(want.chunks_exact_mut(s))
                        .enumerate()
                    {
                        let ch = i % c;
                        let cols = &mut cols[..kk * s];
                        kernels::im2col(xc, 1, hw, hw, k, stride, padding, oh, ow, cols);
                        kernels::gemm_into(
                            1,
                            kk,
                            s,
                            &dw.weight.value.data()[ch * kk..(ch + 1) * kk],
                            cols,
                            GemmInit::RowBias(&dw.bias.value.data()[ch..ch + 1]),
                            oc,
                            &mut packs,
                        );
                    }
                    let got = dw.forward(&x, false);
                    assert_bits_eq_modulo_nan(got.data(), &want, &format!("dw {tag}"));
                    simd::force_isa(prev);
                }
            }
        }
    }

    /// The window table follows the input shape and the weight panels follow
    /// nothing but the weights: one layer instance fed two shapes alternately
    /// (one of them non-square), then a `clone_box()` replica that inherits
    /// the table built for the other shape, then the same instance under
    /// every backend in turn — the panels packed before the flip serve them
    /// all — match naive.
    #[test]
    fn window_table_follows_alternating_input_shapes_and_replicas() {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0xA17E);
        let (c, oc, k, stride, padding) = (3usize, 5usize, 3usize, 2usize, 1usize);
        let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng);
        conv.bias.value = Tensor::randn(&[oc], &mut rng);
        let mut dw = DepthwiseConv2d::new(c, k, stride, padding, &mut rng);
        dw.bias.value = Tensor::randn(&[c], &mut rng);
        let inputs = [
            Tensor::randn(&[2, c, 5, 7], &mut rng),
            Tensor::randn(&[1, c, 8, 8], &mut rng),
        ];
        let (conv_w, conv_b) = (conv.weight.value.clone(), conv.bias.value.clone());
        let (dw_w, dw_b) = (dw.weight.value.clone(), dw.bias.value.clone());
        let check = |conv: &mut dyn Layer, dw: &mut dyn Layer, x: &Tensor, tag: &str| {
            let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
            let want = naive::conv2d_forward_naive(
                x.data(),
                n,
                c,
                h,
                w,
                conv_w.data(),
                conv_b.data(),
                oc,
                k,
                stride,
                padding,
            );
            assert_bits_eq(conv.forward(x, false).data(), &want, &format!("conv {tag}"));
            let want = naive::depthwise_forward_naive(
                x.data(),
                n,
                c,
                h,
                w,
                dw_w.data(),
                dw_b.data(),
                k,
                stride,
                padding,
            );
            assert_bits_eq(dw.forward(x, false).data(), &want, &format!("dw {tag}"));
        };
        for round in 0..4 {
            let x = &inputs[round % 2];
            check(&mut conv, &mut dw, x, &format!("round {round}"));
        }
        // The originals last saw the 8x8 shape; the replicas start on 5x7.
        let (mut conv2, mut dw2) = (conv.clone_box(), dw.clone_box());
        for (round, x) in inputs.iter().enumerate() {
            check(&mut *conv2, &mut *dw2, x, &format!("replica round {round}"));
        }
        for isa in simd::supported_isas() {
            let prev = simd::force_isa(Some(isa));
            check(&mut conv, &mut dw, &inputs[0], &format!("forced {isa}"));
            simd::force_isa(prev);
            assert!(conv.oc_panels.is_some(), "an ISA flip keeps the panels");
        }
    }
}
