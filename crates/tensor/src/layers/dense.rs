//! Fully-connected (dense) layer.
//!
//! After `quantize_weights()` its eval forward runs the quantized GEMM
//! (`kernels/quant_gemm.rs`) on the `f32` tile every quantized convolution
//! runs on: the output features' integer weights are packed once as panels,
//! like a convolution's filters, each input row is quantized to
//! integer-valued `f32` with its own scale or the calibrated one, and each
//! Q8 block is one exact tile pass.

use crate::init::Init;
use crate::kernels::quant_gemm::quant_gemm_panels;
use crate::kernels::with_thread_scratch;
use crate::layer::{Layer, Param};
use crate::quant::{QuantLayerReport, QuantMatrix, QuantWeights};
use crate::rng::SeededRng;
use crate::tensor::Tensor;

/// A fully-connected layer: `y = x W + b` with `W: [in, out]`, `b: [out]`.
///
/// # Example
///
/// ```
/// use appeal_tensor::prelude::*;
///
/// let mut rng = SeededRng::new(0);
/// let mut layer = Dense::new(8, 4, &mut rng);
/// let x = Tensor::randn(&[2, 8], &mut rng);
/// let y = layer.forward(&x, true);
/// assert_eq!(y.shape(), &[2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    quant: Option<QuantWeights>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        Self::with_init(in_features, out_features, Init::KaimingNormal, rng)
    }

    /// Creates a dense layer with a specific weight initializer.
    pub fn with_init(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut SeededRng,
    ) -> Self {
        let weight = init.build(&[in_features, out_features], in_features, out_features, rng);
        Self {
            weight: Param::new("dense.weight", weight),
            bias: Param::new("dense.bias", Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
            quant: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter (for inspection in tests).
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Layer for Dense {
    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.rank(), 2, "Dense expects [batch, features] input");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Dense input feature mismatch"
        );
        if train {
            self.cached_input = Some(input.clone());
        } else {
            self.cached_input = None;
            if let Some(q) = self.quant.as_mut() {
                q.observe(input.data());
                let m = input.shape()[0];
                let mut out = Tensor::zeros(&[m, self.out_features]);
                with_thread_scratch(|s| {
                    quant_gemm_panels(
                        m,
                        self.in_features,
                        self.out_features,
                        input.data(),
                        q.weight.blocks(),
                        Some(&q.bias),
                        q.act_scale,
                        out.data_mut(),
                        &mut s.quant,
                    );
                });
                return out;
            }
        }
        // Fused GEMM + bias: bit-identical to matmul + add_row_broadcast
        // (the bias joins after each element's full K accumulation) without
        // the intermediate tensor.
        input.matmul_bias(&self.weight.value, &self.bias.value)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW = x^T · dy, db = sum over batch of dy, dx = dy · W^T
        let grad_w = input.transpose().matmul(grad_output);
        let grad_b = grad_output.sum_rows();
        self.weight.grad.add_scaled_inplace(&grad_w, 1.0);
        self.bias.grad.add_scaled_inplace(&grad_b, 1.0);
        grad_output.matmul(&self.weight.value.transpose())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.out_features]
    }

    fn flops(&self, _input_shape: &[usize]) -> u64 {
        // One MAC = 2 FLOPs, plus the bias add.
        (2 * self.in_features * self.out_features + self.out_features) as u64
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn quantize_weights(&mut self) -> Vec<QuantLayerReport> {
        let w = self.weight.value.data();
        let (k, n) = (self.in_features, self.out_features);
        // Gather columns into the from_rows layout so the round-trip report
        // can compare against the exact blocks that were quantized.
        let mut gathered = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                gathered[j * k + p] = w[p * n + j];
            }
        }
        let qm = QuantMatrix::from_rows(&gathered, n, k);
        let report = qm.report_against_rows(self.name(), &gathered);
        self.quant = Some(QuantWeights::new(&qm, self.bias.value.data()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::kernels::naive::quant_matmul_naive;
    use crate::kernels::tolerance::assert_bits_eq;
    use crate::quant::q8_block_scale;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::with_init(3, 2, Init::Zeros, &mut rng);
        layer.bias.value = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let x = Tensor::ones(&[4, 3]);
        let y = layer.forward(&x, true);
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.row(0).data(), &[1.0, -1.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dense::new(5, 7, &mut rng);
        assert_eq!(layer.param_count(), 5 * 7 + 7);
    }

    #[test]
    fn flops_formula() {
        let mut rng = SeededRng::new(3);
        let layer = Dense::new(10, 4, &mut rng);
        assert_eq!(layer.flops(&[10]), 2 * 10 * 4 + 4);
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = SeededRng::new(4);
        let layer = Dense::new(4, 3, &mut rng);
        check_layer_gradients(Box::new(layer), &[2, 4], 1e-2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn eval_forward_does_not_cache_input() {
        let mut rng = SeededRng::new(6);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let _ = layer.forward(&x, false);
        let _ = layer.backward(&Tensor::ones(&[2, 3]));
    }

    #[test]
    fn quantized_eval_forward_matches_the_row_loop_and_tracks_f32() {
        let mut rng = SeededRng::new(7);
        let mut layer = Dense::new(64, 16, &mut rng);
        let x = Tensor::randn(&[8, 64], &mut rng);
        let f32_out = layer.forward(&x, false);
        let reports = layer.quantize_weights();
        assert!(layer.is_quantized());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].layer, "Dense");
        assert_eq!(reports[0].params, 64 * 16);
        assert!(reports[0].within_bound(), "weight round-trip broke bound");
        let q_out = layer.forward(&x, false);
        assert_eq!(q_out.shape(), f32_out.shape());
        // Plumbing is exact: the layer's quantized forward is the row loop
        // on QuantMatrix::from_b of its weights, bit for bit.
        let qm = QuantMatrix::from_b(layer.weight.value.data(), 64, 16);
        let bias = Some(layer.bias.value.data());
        let want = quant_matmul_naive(8, 64, 16, x.data(), &qm, bias, None);
        assert_bits_eq(q_out.data(), &want, "dynamic scales");
        // And close to the f32 output on unit-scale data.
        for (a, b) in q_out.data().iter().zip(f32_out.data()) {
            assert!((a - b).abs() < 0.2, "quantized {a} too far from f32 {b}");
        }
    }

    #[test]
    fn calibration_freezes_a_static_scale() {
        let mut rng = SeededRng::new(8);
        let mut layer = Dense::new(32, 4, &mut rng);
        let x = Tensor::randn(&[4, 32], &mut rng);
        layer.quantize_weights();
        layer.begin_calibration();
        let _ = layer.forward(&x, false);
        layer.end_calibration();
        let absmax = x.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let s = q8_block_scale(absmax);
        assert_eq!(layer.quant.as_ref().unwrap().act_scale, Some(s));
        // The calibrated forward is the row loop with that static scale.
        let calibrated = layer.forward(&x, false);
        let qm = QuantMatrix::from_b(layer.weight.value.data(), 32, 4);
        let bias = Some(layer.bias.value.data());
        let want = quant_matmul_naive(4, 32, 4, x.data(), &qm, bias, Some(s));
        assert_bits_eq(calibrated.data(), &want, "static scale");
    }

    #[test]
    fn training_forward_ignores_quantization() {
        let mut rng = SeededRng::new(9);
        let mut layer = Dense::new(16, 8, &mut rng);
        let x = Tensor::randn(&[2, 16], &mut rng);
        let before = layer.forward(&x, true);
        layer.quantize_weights();
        let after = layer.forward(&x, true);
        for (a, b) in before.data().iter().zip(after.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn rejects_wrong_input_width() {
        let mut rng = SeededRng::new(5);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::zeros(&[2, 5]);
        let _ = layer.forward(&x, true);
    }
}
