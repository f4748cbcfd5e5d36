//! Global average pooling, NCHW layout.
//!
//! The pooling is where a lane group ends ([`crate::LANE_GROUP`]): sixteen
//! samples that ran the backbone interleaved `[c][h][w][16]` leave it here as
//! `[16, c]` rows in sample order, each channel's positions summed ascending
//! into one vector of sixteen lanes — per sample the eval forward's
//! sequence — so a batched eval pass converts its layout exactly twice.

use crate::layer::{lane_group_shape, LaneForm, Layer, LANE_GROUP};
use crate::tensor::Tensor;

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
///
/// The standard final spatial reduction in efficient CNN architectures.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool2d {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for GlobalAvgPool2d {
    fn clear_cache(&mut self) {
        self.input_shape = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "GlobalAvgPool2d expects NCHW input");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        self.input_shape = train.then(|| input.shape().to_vec());
        let mut out = Tensor::zeros(&[n, c]);
        let x = input.data();
        let norm = 1.0 / (h * w) as f32;
        let odata = out.data_mut();
        for b in 0..n {
            for ch in 0..c {
                let mut acc = 0.0;
                let base = (b * c + ch) * h * w;
                for i in 0..h * w {
                    acc += x[base + i];
                }
                odata[b * c + ch] = acc * norm;
            }
        }
        out
    }

    fn lane_form(&self) -> LaneForm {
        LaneForm::Ends
    }

    /// Ends a lane group: per channel, the sixteen samples' positions summed
    /// ascending into one vector from `0.0`, times `norm` — each sample's
    /// [`Layer::forward`] sequence — as `[16, c]` in sample order.
    fn forward_lanes(&mut self, group: &Tensor) -> Tensor {
        const L: usize = LANE_GROUP;
        let (c, h, w) = lane_group_shape(group);
        self.input_shape = None;
        let norm = 1.0 / (h * w) as f32;
        let mut out = Tensor::zeros(&[L, c]);
        let odata = out.data_mut();
        for (ch, plane) in group.data().chunks_exact((h * w * L).max(1)).enumerate() {
            let mut acc = [0.0f32; L];
            for pixel in plane.chunks_exact(L) {
                for (a, &v) in acc.iter_mut().zip(pixel) {
                    *a += v;
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                odata[l * c + ch] = a * norm;
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.as_ref().expect("backward before forward");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let norm = 1.0 / (h * w) as f32;
        let mut grad_input = Tensor::zeros(shape);
        let gi = grad_input.data_mut();
        for b in 0..n {
            for ch in 0..c {
                let g = grad_output.data()[b * c + ch] * norm;
                let base = (b * c + ch) * h * w;
                for i in 0..h * w {
                    gi[base + i] = g;
                }
            }
        }
        grad_input
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0]]
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        input_shape.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::rng::SeededRng;

    #[test]
    fn global_avg_pool_shape_and_values() {
        let mut pool = GlobalAvgPool2d::new();
        let x =
            Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[4.0, 2.0]);
    }

    #[test]
    fn global_avgpool_gradcheck() {
        let mut rng = SeededRng::new(12);
        check_layer_gradients(
            Box::new(GlobalAvgPool2d::new()),
            &[2, 3, 4, 4],
            2e-2,
            &mut rng,
        );
    }
}
