//! Layer implementations.
//!
//! Every layer implements [`crate::Layer`] with an explicit backward pass and
//! per-sample FLOP accounting. The set covers what the AppealNet model zoo
//! needs: dense layers, standard / depthwise convolutions, batch
//! normalization, ReLU/sigmoid activations, global-average pooling,
//! residual blocks, channel shuffle and a [`Sequential`] container.

mod activations;
mod conv;
mod dense;
mod norm;
mod pool;
mod residual;
mod sequential;
mod shuffle;

pub use activations::{Relu, Sigmoid};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use dense::Dense;
pub use norm::BatchNorm2d;
pub use pool::GlobalAvgPool2d;
pub use residual::Residual;
pub use sequential::Sequential;
pub use shuffle::ChannelShuffle;
