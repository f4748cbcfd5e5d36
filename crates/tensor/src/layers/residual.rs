//! Residual block: `y = body(x) + shortcut(x)`.

use crate::layer::{LaneForm, Layer, Param};
use crate::layers::Sequential;
use crate::tensor::Tensor;

/// A residual block with an optional projection shortcut.
///
/// When the body changes the tensor shape (channel count or spatial stride),
/// supply a `shortcut` that performs the matching projection (typically a
/// 1×1 strided convolution); otherwise the identity shortcut is used.
#[derive(Clone)]
pub struct Residual {
    body: Sequential,
    shortcut: Option<Sequential>,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn new(body: Sequential) -> Self {
        Self {
            body,
            shortcut: None,
        }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_shortcut(body: Sequential, shortcut: Sequential) -> Self {
        Self {
            body,
            shortcut: Some(shortcut),
        }
    }
}

impl Residual {
    /// `run(body, input) + skip`, the skip `run(shortcut, input)` or — for the
    /// identity shortcut — the borrowed input itself, added into the body's
    /// output rather than into a third tensor: `main + 1.0 * skip`, and `1.0 *
    /// x` is `x` exactly.
    fn add_paths(
        &mut self,
        input: &Tensor,
        mut run: impl FnMut(&mut Sequential, &Tensor) -> Tensor,
    ) -> Tensor {
        let mut main = run(&mut self.body, input);
        let projected = self.shortcut.as_mut().map(|s| run(s, input));
        let skip = projected.as_ref().unwrap_or(input);
        assert_eq!(
            main.shape(),
            skip.shape(),
            "residual body and shortcut must produce equal shapes"
        );
        main.add_scaled_inplace(skip, 1.0);
        main
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Residual(body={:?}, shortcut={})",
            self.body,
            if self.shortcut.is_some() {
                "projection"
            } else {
                "identity"
            }
        )
    }
}

impl Layer for Residual {
    fn clear_cache(&mut self) {
        self.body.clear_cache();
        if let Some(s) = &mut self.shortcut {
            s.clear_cache();
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.add_paths(input, |path, x| path.forward(x, train))
    }

    /// A block whose body and shortcut keep a lane group keeps it too.
    fn lane_form(&self) -> LaneForm {
        let keeps = |path: &Sequential| path.lane_form() == LaneForm::Lanes;
        if keeps(&self.body) && self.shortcut.as_ref().is_none_or(keeps) {
            LaneForm::Lanes
        } else {
            LaneForm::None
        }
    }

    /// Both paths in lane form, the skip added in the body's output group.
    fn forward_lanes(&mut self, group: &Tensor) -> Tensor {
        self.add_paths(group, |path, x| path.forward_lanes(x))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let grad_main = self.body.backward(grad_output);
        let projected = self.shortcut.as_mut().map(|s| s.backward(grad_output));
        grad_main.add(projected.as_ref().unwrap_or(grad_output))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.body.params_mut();
        if let Some(s) = &mut self.shortcut {
            params.extend(s.params_mut());
        }
        params
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        self.body.output_shape(input_shape)
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        let body = self.body.flops(input_shape);
        let skip = self
            .shortcut
            .as_ref()
            .map(|s| s.flops(input_shape))
            .unwrap_or(0);
        let add = self
            .body
            .output_shape(input_shape)
            .iter()
            .product::<usize>() as u64;
        body + skip + add
    }

    fn name(&self) -> &'static str {
        "Residual"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn quantize_weights(&mut self) -> Vec<crate::quant::QuantLayerReport> {
        let mut reports = self.body.quantize_weights();
        if let Some(s) = &mut self.shortcut {
            reports.extend(s.quantize_weights());
        }
        reports
    }

    fn is_quantized(&self) -> bool {
        self.body.is_quantized() || self.shortcut.as_ref().is_some_and(|s| s.is_quantized())
    }

    fn begin_calibration(&mut self) {
        self.body.begin_calibration();
        if let Some(s) = &mut self.shortcut {
            s.begin_calibration();
        }
    }

    fn end_calibration(&mut self) {
        self.body.end_calibration();
        if let Some(s) = &mut self.shortcut {
            s.end_calibration();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::{BatchNorm2d, Conv2d, Dense, Relu};
    use crate::rng::SeededRng;

    #[test]
    fn identity_shortcut_adds_input() {
        let mut rng = SeededRng::new(0);
        // Body that outputs all zeros: conv with zero weights and bias.
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        for p in conv.params_mut() {
            p.value.fill(0.0);
        }
        let mut block = Residual::new(Sequential::new(vec![Box::new(conv)]));
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = block.forward(&x, true);
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn projection_shortcut_matches_changed_shape() {
        let mut rng = SeededRng::new(1);
        let body = Sequential::new(vec![
            Box::new(Conv2d::new(2, 4, 3, 2, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Relu::new()),
        ]);
        let shortcut = Sequential::new(vec![Box::new(Conv2d::new(2, 4, 1, 2, 0, &mut rng))]);
        let mut block = Residual::with_shortcut(body, shortcut);
        let x = Tensor::randn(&[2, 2, 8, 8], &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
        assert_eq!(block.output_shape(&[2, 8, 8]), vec![4, 4, 4]);
    }

    #[test]
    fn gradcheck_identity_residual_mlp() {
        let mut rng = SeededRng::new(2);
        let body = Sequential::new(vec![
            Box::new(Dense::new(6, 6, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(6, 6, &mut rng)),
        ]);
        let block = Residual::new(body);
        check_layer_gradients(Box::new(block), &[3, 6], 2e-2, &mut rng);
    }

    #[test]
    fn gradcheck_projection_residual_conv() {
        let mut rng = SeededRng::new(3);
        let body = Sequential::new(vec![Box::new(Conv2d::new(2, 3, 3, 1, 1, &mut rng))]);
        let shortcut = Sequential::new(vec![Box::new(Conv2d::new(2, 3, 1, 1, 0, &mut rng))]);
        let block = Residual::with_shortcut(body, shortcut);
        check_layer_gradients(Box::new(block), &[1, 2, 4, 4], 2e-2, &mut rng);
    }

    #[test]
    fn flops_include_both_paths_and_add() {
        let mut rng = SeededRng::new(4);
        let body = Sequential::new(vec![Box::new(Conv2d::new(2, 2, 3, 1, 1, &mut rng))]);
        let shortcut = Sequential::new(vec![Box::new(Conv2d::new(2, 2, 1, 1, 0, &mut rng))]);
        let block = Residual::with_shortcut(body, shortcut);
        let body_only = Residual::new(Sequential::new(vec![Box::new(Conv2d::new(
            2, 2, 3, 1, 1, &mut rng,
        ))]));
        assert!(block.flops(&[2, 4, 4]) > body_only.flops(&[2, 4, 4]));
    }
}
