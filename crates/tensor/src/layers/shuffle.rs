//! Channel shuffle (the ShuffleNet building block).

use crate::layer::{LaneForm, Layer};
use crate::tensor::Tensor;

/// Channel shuffle: splits channels into `groups`, transposes the group and
/// per-group-channel axes, and flattens back. Enables information flow
/// between channel groups in grouped/depthwise architectures.
#[derive(Debug, Clone)]
pub struct ChannelShuffle {
    groups: usize,
    input_shape: Option<Vec<usize>>,
}

impl ChannelShuffle {
    /// Creates a channel-shuffle layer with the given number of groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0`.
    pub fn new(groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        Self {
            groups,
            input_shape: None,
        }
    }

    fn permute(&self, input: &Tensor, inverse: bool) -> Tensor {
        let shape = input.shape();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(
            c % self.groups,
            0,
            "channels ({c}) must be divisible by groups ({})",
            self.groups
        );
        let per_group = c / self.groups;
        let mut out = Tensor::zeros(shape);
        let x = input.data();
        let o = out.data_mut();
        let plane = h * w;
        for b in 0..n {
            for g in 0..self.groups {
                for j in 0..per_group {
                    // Forward: channel g*per_group + j  ->  j*groups + g.
                    let (src, dst) = if !inverse {
                        (g * per_group + j, j * self.groups + g)
                    } else {
                        (j * self.groups + g, g * per_group + j)
                    };
                    let src_base = (b * c + src) * plane;
                    let dst_base = (b * c + dst) * plane;
                    o[dst_base..dst_base + plane].copy_from_slice(&x[src_base..src_base + plane]);
                }
            }
        }
        out
    }
}

impl Layer for ChannelShuffle {
    fn clear_cache(&mut self) {
        self.input_shape = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "ChannelShuffle expects NCHW input");
        self.input_shape = train.then(|| input.shape().to_vec());
        self.permute(input, false)
    }

    fn lane_form(&self) -> LaneForm {
        LaneForm::Plane
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.permute(grad_output, true)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn flops(&self, _input_shape: &[usize]) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "ChannelShuffle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn shuffle_then_inverse_is_identity() {
        let mut rng = SeededRng::new(0);
        let mut shuffle = ChannelShuffle::new(2);
        let x = Tensor::randn(&[2, 6, 3, 3], &mut rng);
        let y = shuffle.forward(&x, true);
        let back = shuffle.backward(&y);
        assert!(back.max_abs_diff(&x) < 1e-7);
    }

    #[test]
    fn shuffle_moves_channels() {
        // Channels labelled by constant value; groups=2 over 4 channels:
        // [0,1,2,3] -> [0,2,1,3]
        let mut shuffle = ChannelShuffle::new(2);
        let mut data = Vec::new();
        for ch in 0..4 {
            data.extend(std::iter::repeat_n(ch as f32, 4));
        }
        let x = Tensor::from_vec(data, &[1, 4, 2, 2]).unwrap();
        let y = shuffle.forward(&x, true);
        let channel_value = |t: &Tensor, ch: usize| t.data()[ch * 4];
        assert_eq!(channel_value(&y, 0), 0.0);
        assert_eq!(channel_value(&y, 1), 2.0);
        assert_eq!(channel_value(&y, 2), 1.0);
        assert_eq!(channel_value(&y, 3), 3.0);
    }

    #[test]
    #[should_panic(expected = "divisible by groups")]
    fn rejects_indivisible_channels() {
        let mut shuffle = ChannelShuffle::new(3);
        let x = Tensor::zeros(&[1, 4, 2, 2]);
        let _ = shuffle.forward(&x, true);
    }
}
