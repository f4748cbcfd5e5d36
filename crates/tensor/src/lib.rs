//! # appeal-tensor
//!
//! A from-scratch, dependency-light tensor and neural-network layer library.
//!
//! This crate is the training/inference substrate for the AppealNet
//! reproduction: the original paper trains its models with PyTorch, which is
//! not available in this environment, so the pieces the joint-training
//! algorithm actually needs are implemented here directly:
//!
//! * [`Tensor`] — a contiguous `f32` n-dimensional array with the small set
//!   of operations needed by the layers (elementwise math, matrix multiply,
//!   reductions).
//! * [`kernels`] — the compute-kernel layer underneath: one register-tiled
//!   f32 kernel behind the GEMM and every convolution pass, explicit SIMD
//!   with runtime ISA dispatch, per-layer window tables in place of an
//!   im2col matrix, and reusable scratch arenas. Every f32 kernel is
//!   bit-identical to the naive reference loops it replaced (see
//!   [`kernels::numeric_contract`] and `docs/DETERMINISM.md`).
//! * [`Layer`] — the layer abstraction with explicit `forward` / `backward`
//!   passes and per-layer FLOP accounting.
//! * [`layers`] — dense, convolution (standard / depthwise / grouped),
//!   batch-norm, activations, global pooling, residual blocks and the
//!   [`layers::Sequential`] container.
//! * [`loss`] — per-sample softmax cross-entropy and binary cross-entropy,
//!   including the per-sample weighting required by AppealNet's joint loss
//!   (Eq. 9 / Eq. 10 of the paper).
//! * [`optim`] — SGD and SGD with momentum, with gradient clipping and
//!   learning-rate schedules.
//!
//! # Example
//!
//! ```
//! use appeal_tensor::prelude::*;
//!
//! # fn main() -> Result<(), appeal_tensor::TensorError> {
//! let mut rng = SeededRng::new(42);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(4, 16, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(16, 3, &mut rng)),
//! ]);
//! let x = Tensor::randn(&[8, 4], &mut rng);
//! let logits = net.forward(&x, true);
//! assert_eq!(logits.shape(), &[8, 3]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the tile kernels (`kernels::simd`) opt back
// in with a scoped `allow` — the only place in the workspace permitted to
// use `unsafe` (std::arch intrinsics behind runtime CPU-feature detection;
// CI's lint job fails if another module allows it).
#![deny(unsafe_code)]

pub mod error;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod quant;
pub mod rng;
pub mod tensor;

pub use error::TensorError;
pub use layer::{LaneForm, Layer, Param, LANE_GROUP};
pub use rng::SeededRng;
pub use tensor::Tensor;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::layer::{Layer, Param};
    pub use crate::layers::{
        BatchNorm2d, ChannelShuffle, Conv2d, Dense, DepthwiseConv2d, GlobalAvgPool2d, Relu,
        Residual, Sequential, Sigmoid,
    };
    pub use crate::loss::{BinaryCrossEntropy, SoftmaxCrossEntropy};
    pub use crate::optim::{GradClip, LrSchedule, Optimizer, Sgd};
    pub use crate::rng::SeededRng;
    pub use crate::tensor::Tensor;
    pub use crate::TensorError;
}
