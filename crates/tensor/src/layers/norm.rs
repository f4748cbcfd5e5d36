//! Batch normalization over the channel dimension of NCHW tensors.

use crate::layer::{LaneForm, Layer, Param};
use crate::tensor::Tensor;

/// Batch normalization for convolutional feature maps.
///
/// Normalizes each channel over the batch and spatial dimensions, then
/// applies a learnable per-channel scale (`gamma`) and shift (`beta`).
/// Running statistics are tracked with exponential moving averages and used
/// when `train == false`.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    std_inv: Vec<f32>,
    input_shape: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new("bn.gamma", Tensor::ones(&[channels])),
            beta: Param::new("bn.beta", Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channels this layer normalizes.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.rank(), 4, "BatchNorm2d expects NCHW input");
        assert_eq!(
            input.shape()[1],
            self.channels,
            "BatchNorm2d channel mismatch"
        );
    }
}

impl Layer for BatchNorm2d {
    fn clear_cache(&mut self) {
        self.cache = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_owned(input.clone(), false);
        }
        self.check_input(input);
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let per_channel = (n * h * w) as f32;
        let x = input.data();
        let mut out = Tensor::zeros(input.shape());
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();

        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for b in 0..n {
            for (ch, m) in mean.iter_mut().enumerate() {
                let base = (b * c + ch) * h * w;
                for i in 0..h * w {
                    *m += x[base + i];
                }
            }
        }
        for m in &mut mean {
            *m /= per_channel;
        }
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                for i in 0..h * w {
                    let d = x[base + i] - mean[ch];
                    var[ch] += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= per_channel;
        }
        for ch in 0..c {
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
        }

        let std_inv: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut x_hat = Tensor::zeros(input.shape());
        {
            let xh = x_hat.data_mut();
            let o = out.data_mut();
            for b in 0..n {
                for ch in 0..c {
                    let base = (b * c + ch) * h * w;
                    for i in 0..h * w {
                        let normed = (x[base + i] - mean[ch]) * std_inv[ch];
                        xh[base + i] = normed;
                        o[base + i] = gamma[ch] * normed + beta[ch];
                    }
                }
            }
        }
        self.cache = Some(BnCache {
            x_hat,
            std_inv,
            input_shape: input.shape().to_vec(),
        });
        out
    }

    fn forward_owned(&mut self, mut input: Tensor, train: bool) -> Tensor {
        if train {
            return self.forward(&input, true);
        }
        self.check_input(&input);
        let (c, plane) = (self.channels, input.shape()[2] * input.shape()[3]);
        // Eval path: normalize against the running statistics in the buffer
        // we were handed, with no batch-statistic, x_hat, cache or output
        // allocations — this is the serving hot path. Drop any stale
        // training cache so a backward after an eval forward panics (like
        // every other layer) instead of silently using a previous batch's
        // statistics.
        self.cache = None;
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        // Whole channels walked as slices, the four per-channel scalars
        // hoisted: no index arithmetic or bounds check per element.
        let channels = input.data_mut().chunks_exact_mut(plane.max(1));
        for (i, xc) in channels.enumerate() {
            let ch = i % c;
            let mean = self.running_mean[ch];
            let std_inv = 1.0 / (self.running_var[ch] + self.eps).sqrt();
            let (g, b) = (gamma[ch], beta[ch]);
            for v in xc {
                *v = g * ((*v - mean) * std_inv) + b;
            }
        }
        input
    }

    fn lane_form(&self) -> LaneForm {
        LaneForm::Plane
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward(train)");
        let shape = &cache.input_shape;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let m = (n * h * w) as f32;
        let go = grad_output.data();
        let xh = cache.x_hat.data();
        let gamma = self.gamma.value.data();

        // Per-channel reductions needed by the batch-norm backward formula.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                for i in 0..h * w {
                    sum_dy[ch] += go[base + i];
                    sum_dy_xhat[ch] += go[base + i] * xh[base + i];
                }
            }
        }
        // Parameter gradients.
        {
            let g_gamma = self.gamma.grad.data_mut();
            let g_beta = self.beta.grad.data_mut();
            for ch in 0..c {
                g_gamma[ch] += sum_dy_xhat[ch];
                g_beta[ch] += sum_dy[ch];
            }
        }
        // Input gradient:
        // dx = gamma * std_inv / m * (m*dy - sum(dy) - x_hat * sum(dy*x_hat))
        let mut grad_input = Tensor::zeros(shape);
        let gi = grad_input.data_mut();
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                let k = gamma[ch] * cache.std_inv[ch] / m;
                for i in 0..h * w {
                    gi[base + i] =
                        k * (m * go[base + i] - sum_dy[ch] - xh[base + i] * sum_dy_xhat[ch]);
                }
            }
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        4 * input_shape.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::kernels::simd;
    use crate::kernels::tolerance::assert_bits_eq;
    use crate::rng::SeededRng;

    #[test]
    fn normalizes_to_zero_mean_unit_var_in_train_mode() {
        let mut rng = SeededRng::new(1);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[8, 3, 4, 4], &mut rng)
            .scale(5.0)
            .map(|v| v + 10.0);
        let y = bn.forward(&x, true);
        // Per channel statistics of the output should be ~N(0,1) (gamma=1, beta=0).
        let (n, c, h, w) = (8, 3, 4, 4);
        for ch in 0..c {
            let mut vals = Vec::new();
            for b in 0..n {
                let base = (b * c + ch) * h * w;
                vals.extend_from_slice(&y.data()[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = SeededRng::new(2);
        let mut bn = BatchNorm2d::new(2);
        // Run several training batches so running stats adapt.
        for _ in 0..50 {
            let x = Tensor::randn(&[16, 2, 2, 2], &mut rng).map(|v| v * 2.0 + 3.0);
            bn.forward(&x, true);
        }
        let x = Tensor::randn(&[16, 2, 2, 2], &mut rng).map(|v| v * 2.0 + 3.0);
        let y = bn.forward(&x, false);
        // Output in eval mode should be roughly standardized too.
        assert!((y.mean()).abs() < 0.3);
    }

    #[test]
    fn eval_forward_is_bit_identical_to_the_indexed_formula_on_every_isa() {
        // The eval loop walks channel slices with hoisted scalars; the bits
        // must be those of the per-element indexed expression it replaced,
        // `gamma[ch] * ((x - mean[ch]) * std_inv[ch]) + beta[ch]`, whatever
        // the kernels dispatch to.
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0xB17);
        let (n, c, h, w) = (3usize, 5usize, 6usize, 7usize);
        let mut bn = BatchNorm2d::new(c);
        bn.gamma.value = Tensor::randn(&[c], &mut rng);
        bn.beta.value = Tensor::randn(&[c], &mut rng);
        bn.running_mean = (0..c).map(|_| rng.uniform(-1.0, 1.0)).collect();
        bn.running_var = (0..c).map(|_| rng.uniform(0.1, 3.0)).collect();
        let mut x = Tensor::randn(&[n, c, h, w], &mut rng);
        x.data_mut()[..4].copy_from_slice(&[-0.0, f32::INFINITY, f32::NAN, 1e-40]);
        let (gamma, beta) = (bn.gamma.value.data(), bn.beta.value.data());
        let mut expect = vec![0.0f32; x.len()];
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                let std_inv = 1.0 / (bn.running_var[ch] + bn.eps).sqrt();
                for i in 0..h * w {
                    let normed = (x.data()[base + i] - bn.running_mean[ch]) * std_inv;
                    expect[base + i] = gamma[ch] * normed + beta[ch];
                }
            }
        }
        for isa in simd::supported_isas() {
            let prev = simd::force_isa(Some(isa));
            let y = bn.forward(&x, false);
            simd::force_isa(prev);
            assert_bits_eq(y.data(), &expect, &format!("bn eval on {isa}"));
        }
        // A zero-area map is a no-op, as before.
        assert!(bn.forward(&Tensor::zeros(&[2, c, 0, 4]), false).is_empty());
    }

    #[test]
    fn gradcheck() {
        let mut rng = SeededRng::new(3);
        let bn = BatchNorm2d::new(2);
        check_layer_gradients(Box::new(bn), &[4, 2, 3, 3], 3e-2, &mut rng);
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let mut bn = BatchNorm2d::new(7);
        assert_eq!(bn.param_count(), 14);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn eval_forward_clears_training_cache() {
        let mut rng = SeededRng::new(4);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], &mut rng);
        bn.forward(&x, true);
        bn.forward(&x, false);
        let _ = bn.backward(&Tensor::ones(&[4, 2, 3, 3]));
    }
}
