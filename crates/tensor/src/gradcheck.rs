//! Numerical gradient checking.
//!
//! Each layer's analytic backward pass is verified against central finite
//! differences of a scalar probe loss `L = sum(r ⊙ forward(x))` with fixed
//! random coefficients `r`. This is how the test suite establishes that the
//! hand-written backward passes are correct before they are trusted by the
//! AppealNet joint-training loop.

use crate::layer::Layer;
use crate::rng::SeededRng;
use crate::tensor::Tensor;

/// Relative/absolute tolerance comparison used by the gradient checker.
fn close(analytic: f32, numeric: f32, tol: f32) -> bool {
    let denom = analytic.abs().max(numeric.abs()).max(1.0);
    (analytic - numeric).abs() / denom <= tol
}

/// Checks the gradients of `layer` at a random input of shape `input_shape`
/// (the first dimension is the batch size).
///
/// Verifies both the input gradient and a sample of each parameter's
/// gradient against central finite differences.
///
/// # Panics
///
/// Panics (failing the enclosing test) if any checked gradient deviates from
/// the numerical estimate by more than `tol` in relative terms.
pub fn check_layer_gradients(
    mut layer: Box<dyn Layer>,
    input_shape: &[usize],
    tol: f32,
    rng: &mut SeededRng,
) {
    // Keep inputs away from kinks (ReLU at 0) so the numeric
    // derivative is well defined.
    let mut input = Tensor::randn(input_shape, rng);
    input.map_inplace(|x| {
        if x.abs() < 0.05 {
            if x >= 0.0 {
                x + 0.2
            } else {
                x - 0.2
            }
        } else {
            x
        }
    });

    let out = layer.forward(&input, true);
    let probe = Tensor::rand_uniform(out.shape(), 0.1, 1.0, rng);

    // Analytic gradients.
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let out = layer.forward(&input, true);
    let analytic_input_grad = layer.backward(&probe);
    let _ = out;

    let eps = 1e-2f32;
    let loss_with = |layer: &mut Box<dyn Layer>, x: &Tensor, probe: &Tensor| -> f32 {
        layer.forward(x, true).mul(probe).sum()
    };

    // --- input gradient ---
    let n_input_checks = input.len().min(24);
    let stride = (input.len() / n_input_checks.max(1)).max(1);
    for idx in (0..input.len()).step_by(stride) {
        let orig = input.data()[idx];
        let mut plus = input.clone();
        plus.data_mut()[idx] = orig + eps;
        let mut minus = input.clone();
        minus.data_mut()[idx] = orig - eps;
        let numeric = (loss_with(&mut layer, &plus, &probe)
            - loss_with(&mut layer, &minus, &probe))
            / (2.0 * eps);
        let analytic = analytic_input_grad.data()[idx];
        assert!(
            close(analytic, numeric, tol),
            "input grad mismatch at {idx}: analytic={analytic} numeric={numeric}"
        );
    }

    // --- parameter gradients ---
    // Re-run forward/backward so cached activations correspond to `input`
    // (the finite-difference probes above overwrote them).
    for p in layer.params_mut() {
        p.zero_grad();
    }
    layer.forward(&input, true);
    layer.backward(&probe);
    let param_count = layer.params_mut().len();
    for pi in 0..param_count {
        let len = layer.params_mut()[pi].len();
        let n_checks = len.min(12);
        let stride = (len / n_checks.max(1)).max(1);
        for idx in (0..len).step_by(stride) {
            let analytic = layer.params_mut()[pi].grad.data()[idx];
            let orig = layer.params_mut()[pi].value.data()[idx];
            layer.params_mut()[pi].value.data_mut()[idx] = orig + eps;
            let plus = loss_with(&mut layer, &input, &probe);
            layer.params_mut()[pi].value.data_mut()[idx] = orig - eps;
            let minus = loss_with(&mut layer, &input, &probe);
            layer.params_mut()[pi].value.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                close(analytic, numeric, tol),
                "param {pi} grad mismatch at {idx}: analytic={analytic} numeric={numeric}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Param;

    #[test]
    fn close_accepts_equal_and_rejects_far() {
        assert!(close(1.0, 1.0, 1e-3));
        assert!(close(100.0, 100.5, 1e-2));
        assert!(!close(1.0, 2.0, 1e-2));
    }

    /// A deliberately wrong layer: forward computes `2x`, backward claims the
    /// gradient is `3 * dy`. The checker must catch it.
    #[derive(Clone)]
    struct WrongLayer;

    impl Layer for WrongLayer {
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            input.scale(2.0)
        }
        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            grad_output.scale(3.0)
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            Vec::new()
        }
        fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
            input_shape.to_vec()
        }
        fn flops(&self, _input_shape: &[usize]) -> u64 {
            0
        }
        fn name(&self) -> &'static str {
            "WrongLayer"
        }
    }

    #[test]
    #[should_panic(expected = "input grad mismatch")]
    fn detects_incorrect_backward() {
        let mut rng = SeededRng::new(0);
        check_layer_gradients(Box::new(WrongLayer), &[2, 3], 1e-2, &mut rng);
    }
}
