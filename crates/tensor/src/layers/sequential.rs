//! The [`Sequential`] container.

use crate::layer::{Layer, Param};
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
        self.layers
            .iter_mut()
            .fold(input, |x, layer| layer.forward_owned(x, train))
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

    #[test]
    fn nested_sequential_works() {
        let mut rng = SeededRng::new(6);
        let inner = small_mlp(&mut rng);
        let mut outer = Sequential::new(vec![Box::new(inner), Box::new(Relu::new())]);
        let x = Tensor::randn(&[2, 4], &mut rng);
        assert_eq!(outer.forward(&x, true).shape(), &[2, 3]);
    }
}
