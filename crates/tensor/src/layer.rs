//! The [`Layer`] abstraction and trainable [`Param`]eters.
//!
//! Rather than a tape-based autograd engine, this library uses explicit
//! layer-local backward passes (the classic "caffe-style" design): each layer
//! caches whatever it needs during `forward` and produces the gradient with
//! respect to its input during `backward`, accumulating gradients of its own
//! parameters along the way. This is simpler, easy to verify with numerical
//! gradient checks (see [`crate::gradcheck`]) and entirely sufficient for the
//! feed-forward architectures used by AppealNet.

use crate::tensor::Tensor;

/// Samples in a lane group: one vector of `f32` lanes.
///
/// An eval forward of at least this many samples through a container whose
/// layers all have a lane form ([`LaneForm`]) runs each group of
/// `LANE_GROUP` samples with the samples on the vector lanes: the group is
/// one `[1, c, h, LANE_GROUP * w]` tensor, sample `l`'s element `(ch, y, x)`
/// at `[0][ch][y][LANE_GROUP * x + l]` — `[c][h][w][16]` — from the
/// container's entry to the layer that ends the group
/// ([`GlobalAvgPool2d`](crate::layers::GlobalAvgPool2d)). A batch's last
/// `n % LANE_GROUP` samples run sample by sample. Per sample the bytes are
/// those of the per-sample forward.
pub const LANE_GROUP: usize = 16;

/// How a layer takes part in a lane group (see [`LANE_GROUP`]). A layer's
/// form does not depend on its tier: a quantized convolution keeps its lane
/// form and runs its Q8 tier on the lane tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneForm {
    /// No lane form (a `Dense` layer): a container holding this layer before
    /// its group ends runs sample by sample.
    None,
    /// The eval forward is the lane form: the layer works per channel plane
    /// or per element, so a lane group is one sample with wider planes.
    Plane,
    /// [`Layer::forward_lanes`] keeps the group in lane form.
    Lanes,
    /// [`Layer::forward_lanes`] ends the group: `[LANE_GROUP, ..]`, one row
    /// per sample in order.
    Ends,
}

impl LaneForm {
    /// `true` for a layer a group passes through in lane form.
    pub fn keeps_lanes(self) -> bool {
        matches!(self, LaneForm::Plane | LaneForm::Lanes)
    }
}

/// The lane group of [`LANE_GROUP`] consecutive `[c, h, w]` samples:
/// sample `l`'s element `i` at `i * 16 + l` of one `[1, c, h, 16 * w]`
/// tensor.
///
/// # Panics
///
/// Panics if `samples` is not sixteen samples of `c * h * w`.
pub(crate) fn lane_group(samples: &[f32], (c, h, w): (usize, usize, usize)) -> Tensor {
    assert_eq!(
        samples.len(),
        LANE_GROUP * c * h * w,
        "a lane group is 16 samples"
    );
    let mut group = Tensor::zeros(&[1, c, h, LANE_GROUP * w]);
    for (l, x) in samples.chunks_exact((c * h * w).max(1)).enumerate() {
        let lane = group.data_mut().iter_mut().skip(l).step_by(LANE_GROUP);
        for (dst, &v) in lane.zip(x) {
            *dst = v;
        }
    }
    group
}

/// The per-sample `(c, h, w)` of a lane group.
///
/// # Panics
///
/// Panics if `group` is not a `[1, c, h, 16 * w]` tensor.
pub(crate) fn lane_group_shape(group: &Tensor) -> (usize, usize, usize) {
    let shape = group.shape();
    assert!(
        shape.len() == 4 && shape[0] == 1 && shape[3].is_multiple_of(LANE_GROUP),
        "a lane group is one [1, c, h, 16 * w] tensor, not {shape:?}"
    );
    (shape[1], shape[2], shape[3] / LANE_GROUP)
}

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value of the parameter.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
    /// Human-readable name, used in debugging output.
    pub name: String,
}

impl Param {
    /// Creates a parameter with a zeroed gradient of the same shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            value,
            grad,
            name: name.into(),
        }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar values in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A neural-network layer with explicit forward and backward passes.
///
/// Layers are stateful: `forward` caches activations needed by `backward`,
/// and `backward` must be called with the gradient of the loss with respect
/// to the most recent `forward` output.
///
/// Layers are `Send + Sync` (they hold plain data, no interior mutability)
/// and cloneable via [`Layer::clone_box`], which is what lets the parallel
/// batch-evaluation engine replicate a trained model across worker threads.
pub trait Layer: Send + Sync {
    /// Runs the layer on a batch.
    ///
    /// `train` toggles training-time behaviour (activation caches for
    /// backward, batch-norm batch statistics vs. running statistics).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// [`Layer::forward`] on an input the caller gives up. The result is the
    /// same, bit for bit; a layer whose output has its input's shape and
    /// depends on it element by element (eval-mode `Relu` and `BatchNorm2d`)
    /// overrides this to compute in the buffer it was handed instead of a
    /// fresh one. Containers pass every intermediate activation this way.
    fn forward_owned(&mut self, input: Tensor, train: bool) -> Tensor {
        self.forward(&input, train)
    }

    /// How this layer runs in a lane group ([`LANE_GROUP`]). The default has
    /// no lane form.
    fn lane_form(&self) -> LaneForm {
        LaneForm::None
    }

    /// Eval forward of one lane group: sixteen samples as one
    /// `[1, c, h, 16 * w]` tensor ([`LANE_GROUP`]). Returns the output group, or — for a
    /// layer whose [`Layer::lane_form`] is [`LaneForm::Ends`] — one row per
    /// sample. Per sample the bytes are those of [`Layer::forward`] in eval
    /// mode. The default is that eval forward, for a [`LaneForm::Plane`]
    /// layer; layers whose form is `Lanes` or `Ends` override it.
    ///
    /// # Panics
    ///
    /// Panics if the layer has no lane form.
    fn forward_lanes(&mut self, group: &Tensor) -> Tensor {
        assert_eq!(
            self.lane_form(),
            LaneForm::Plane,
            "{} has no lane form of its own",
            self.name()
        );
        self.forward(group, false)
    }

    /// [`Layer::forward_lanes`] on a group the caller gives up: a
    /// [`LaneForm::Plane`] layer runs its eval forward in the buffer it is
    /// handed ([`Layer::forward_owned`]).
    fn forward_lanes_owned(&mut self, group: Tensor) -> Tensor {
        match self.lane_form() {
            LaneForm::Plane => self.forward_owned(group, false),
            _ => self.forward_lanes(&group),
        }
    }

    /// Backpropagates `grad_output` (gradient w.r.t. the last forward output)
    /// and returns the gradient w.r.t. the last forward input. Parameter
    /// gradients are accumulated into the layer's [`Param`]s.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to this layer's parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shape produced by `forward` for a given input shape (excluding the batch dimension).
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Number of multiply-accumulate-equivalent floating point operations for
    /// one input sample of the given (batch-less) shape.
    fn flops(&self, input_shape: &[usize]) -> u64;

    /// Short layer name used in summaries.
    fn name(&self) -> &'static str;

    /// Total number of trainable scalars in this layer.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Clones this layer (parameters, running statistics and caches) into a
    /// fresh box. Used to replicate models across evaluation worker threads.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Drops activations cached by `forward` for `backward`. Long-lived
    /// evaluation replicas call this after cloning so they do not retain
    /// copies of the source model's cached training activations.
    fn clear_cache(&mut self) {}

    /// Switches this layer's inference path to the quantized (Q8_0) weight
    /// tier, returning one [`crate::quant::QuantLayerReport`] per quantized
    /// parameter tensor. Layers without a quantized path (the default)
    /// return an empty vector and keep computing in f32; containers
    /// aggregate their children's reports. Quantization affects **eval**
    /// forwards only — training always runs the f32 path.
    fn quantize_weights(&mut self) -> Vec<crate::quant::QuantLayerReport> {
        Vec::new()
    }

    /// Whether this layer (or, for containers, any child) currently serves
    /// eval forwards from quantized weights.
    fn is_quantized(&self) -> bool {
        false
    }

    /// Starts activation-scale calibration: during subsequent eval forwards
    /// a quantized layer observes the absolute maximum of its inputs
    /// instead of committing to a static scale. No-op for f32 layers.
    fn begin_calibration(&mut self) {}

    /// Freezes the observed activation statistics into static power-of-two
    /// input scales (see `crate::quant::q8_block_scale`) and leaves
    /// calibration mode. No-op for f32 layers or if nothing was observed.
    fn end_calibration(&mut self) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new("w", Tensor::ones(&[2, 2]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.name, "w");
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new("b", Tensor::ones(&[3]));
        p.grad = Tensor::full(&[3], 5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
