//! Elementwise activation layers, on plain loops the compiler vectorizes.

use crate::kernels::elementwise;
use crate::layer::{LaneForm, Layer};
use crate::tensor::Tensor;

/// Rectified linear unit: `y = x > 0 ? x : 0`.
///
/// Forward and backward run on the elementwise kernels
/// ([`crate::kernels::elementwise`]); the backward mask is stored as
/// all-ones/all-zeros words so the gradient select is a single bitwise AND.
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Option<Vec<u32>>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Self { mask: None }
    }
}

impl Layer for Relu {
    fn clear_cache(&mut self) {
        self.mask = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_owned(input.clone(), false);
        }
        // The sign mask exists only for backward; eval passes skip it.
        let mut out = vec![0.0f32; input.len()];
        let mut mask = vec![0u32; input.len()];
        elementwise::relu_fwd_mask(input.data(), &mut out, &mut mask);
        self.mask = Some(mask);
        Tensor::from_vec(out, input.shape()).expect("shape preserved")
    }

    fn forward_owned(&mut self, mut input: Tensor, train: bool) -> Tensor {
        if train {
            return self.forward(&input, true);
        }
        self.mask = None;
        elementwise::relu_inplace(input.data_mut());
        input
    }

    fn lane_form(&self) -> LaneForm {
        LaneForm::Plane
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward");
        assert_eq!(mask.len(), grad_output.len(), "ReLU grad shape mismatch");
        let mut data = vec![0.0f32; grad_output.len()];
        elementwise::relu_bwd(grad_output.data(), mask, &mut data);
        Tensor::from_vec(data, grad_output.shape()).expect("shape preserved")
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        input_shape.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Logistic sigmoid: `y = 1 / (1 + exp(-x))`.
#[derive(Debug, Default, Clone)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation layer.
    pub fn new() -> Self {
        Self { output: None }
    }

    /// The sigmoid function applied to a scalar.
    pub fn apply(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }
}

impl Layer for Sigmoid {
    fn clear_cache(&mut self) {
        self.output = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(Sigmoid::apply);
        self.output = if train { Some(out.clone()) } else { None };
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self.output.as_ref().expect("backward before forward");
        grad_output.zip(out, |g, y| g * y * (1.0 - y))
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        4 * input_shape.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::rng::SeededRng;

    #[test]
    fn relu_clamps_negative() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap();
        relu.forward(&x, true);
        let g = relu.backward(&Tensor::ones(&[2]));
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-50.0, 0.0, 50.0], &[3]).unwrap();
        let y = s.forward(&x, true);
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn sigmoid_is_numerically_stable_for_large_negative() {
        assert!(Sigmoid::apply(-1000.0).is_finite());
        assert!(Sigmoid::apply(1000.0).is_finite());
    }

    #[test]
    fn relu_gradcheck() {
        let mut rng = SeededRng::new(7);
        check_layer_gradients(Box::new(Relu::new()), &[3, 5], 1e-2, &mut rng);
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut rng = SeededRng::new(8);
        check_layer_gradients(Box::new(Sigmoid::new()), &[3, 5], 1e-2, &mut rng);
    }
}
