//! # appealnet-core
//!
//! A Rust reproduction of **AppealNet** (Li et al., DAC 2021): an edge/cloud
//! collaborative architecture for DNN inference that explicitly models
//! inference difficulty with a two-head little network and jointly optimizes
//! the approximator and the offloading predictor.
//!
//! ## The idea
//!
//! A little network runs on the edge device. Its backbone feeds two heads:
//!
//! * the **approximator head** produces the class distribution `p(y|x)`;
//! * the **predictor head** (one fully-connected layer + sigmoid) produces
//!   `q(1|x)`, the probability that the little network's answer can be
//!   trusted for this input.
//!
//! At deployment (the paper's Eq. 1) the input is handled on the edge when
//! `q(1|x) ≥ δ` and *appealed* to the big cloud network otherwise. Training
//! minimizes the joint objective of Eq. 9 (white-box cloud model) or Eq. 10
//! (black-box / oracle cloud model):
//!
//! ```text
//! L = q·ℓ(f1(x), y) + (1 − q)·ℓ(f0(x), y) + β·(−log q)
//! ```
//!
//! ## Serving
//!
//! The documented runtime entry point is the [`serve`] subsystem: an
//! [`Engine`] built via [`Engine::builder`] from an edge
//! [`Scorer`] (the two-head network, or a confidence
//! baseline), the big cloud model, a pluggable
//! [`RoutingPolicy`] ([`ThresholdPolicy`] for Eq. 1,
//! [`BudgetPolicy`] for bounded cloud spend, [`CalibratedPolicy`] for a
//! target skipping rate or accuracy) and a hardware cost model. The engine
//! serves single [`InferenceRequest`]s by
//! transparently micro-batching them through the sharded parallel path, and
//! reports live [`EngineStats`]. Invalid inputs surface
//! as typed [`CoreError`]s, never as panics.
//!
//! ## Crate layout
//!
//! * [`serve`] — the policy-driven serving engine (the runtime surface).
//! * [`error`] — the [`CoreError`] type all public APIs report through.
//! * [`two_head`] — the two-head little network.
//! * [`loss`] — the joint training objective.
//! * [`training`] — Algorithm 1 (joint training) and plain classifier training.
//! * [`scores`] — AppealNet's `q` score and the confidence baselines
//!   (MSP, score margin, entropy).
//! * [`artifacts`] — per-sample routing scores and correctness flags computed
//!   once, so every threshold or skipping-rate query is a cheap scan.
//! * [`metrics`] — SR / AR / overall accuracy / AccI / overall cost (Eq. 11–15).
//! * [`tuning`] — threshold selection for target skipping rates or accuracy.
//! * [`sweep`] — skipping-rate sweeps across routing methods.
//! * [`experiments`] — ready-made harnesses for every figure and table in the
//!   paper's evaluation section.
//!
//! # Example
//!
//! Train a system, then serve it:
//!
//! ```no_run
//! use appealnet_core::prelude::*;
//! use appeal_dataset::prelude::*;
//! use appeal_models::prelude::*;
//!
//! # fn main() -> Result<(), CoreError> {
//! let ctx = ExperimentContext::new(Fidelity::Smoke, 42);
//! let prepared = PreparedExperiment::prepare(
//!     DatasetPreset::Cifar10Like,
//!     ModelFamily::MobileNetLike,
//!     CloudMode::WhiteBox,
//!     &ctx,
//! );
//! // Offline: inspect the accuracy/cost trade-off on the test split.
//! let artifacts = prepared.artifacts(ScoreKind::AppealNetQ);
//! let metrics = artifacts.at_skipping_rate(0.9)?;
//! println!("overall accuracy at SR=90%: {:.2}%", 100.0 * metrics.overall_accuracy);
//! // Online: deploy the trained models behind a calibrated policy.
//! let policy = CalibratedPolicy::for_skipping_rate(artifacts, 0.9)?;
//! let mut engine = Engine::builder()
//!     .appealnet(prepared.models.appealnet)
//!     .big(prepared.models.big)
//!     .policy(policy)
//!     .build()?;
//! # let frame = appeal_tensor::Tensor::zeros(&[3, 12, 12]);
//! engine.submit(InferenceRequest::new(0, frame))?;
//! let answers = engine.flush()?;
//! println!("served {} requests at {:.0} req/s",
//!     engine.stats().requests, engine.stats().throughput_rps());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;
pub mod error;
pub mod experiments;
pub mod loss;
pub mod metrics;
pub mod parallel;
pub mod scores;
pub mod serve;
pub mod server;
pub mod sweep;
pub mod training;
pub mod tuning;
pub mod two_head;

pub use artifacts::{EvaluationArtifacts, RoutingDivergence};
pub use error::{CoreError, CoreResult};
pub use loss::{AppealLoss, CloudMode};
pub use metrics::RoutedMetrics;
pub use parallel::ChunkPolicy;
pub use scores::ScoreKind;
pub use serve::{
    BudgetPolicy, CalibratedPolicy, Engine, EngineBuilder, EngineStats, InferenceRequest,
    InferenceResponse, Route, RoutingPolicy, Scorer, ThresholdPolicy,
};
pub use server::{MicroBatcher, Server, ServerConfig, ServerHandle, ServerStats, ShedConfig};
pub use training::{TrainerConfig, TrainingReport};
pub use two_head::{TwoHeadNet, TwoHeadOutput};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::artifacts::{EvaluationArtifacts, RoutingDivergence};
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::experiments::{CloudModeExt, ExperimentContext, PreparedExperiment};
    pub use crate::loss::{AppealLoss, CloudMode};
    pub use crate::metrics::RoutedMetrics;
    pub use crate::parallel::ChunkPolicy;
    pub use crate::scores::ScoreKind;
    pub use crate::serve::{
        BudgetPolicy, CalibratedPolicy, ConfidenceScorer, Engine, EngineBuilder, EngineStats,
        InferenceRequest, InferenceResponse, QScorer, Route, RoutingContext, RoutingPolicy, Scorer,
        ThresholdPolicy,
    };
    pub use crate::server::{
        MicroBatcher, ServedResponse, Server, ServerConfig, ServerHandle, ServerStats, ShedConfig,
        Ticket,
    };
    pub use crate::sweep::{MethodSeries, SweepResult};
    pub use crate::training::{TrainerConfig, TrainingReport};
    pub use crate::tuning::ThresholdChoice;
    pub use crate::two_head::{TwoHeadNet, TwoHeadOutput};
}
