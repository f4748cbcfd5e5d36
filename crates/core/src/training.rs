//! Training loops: plain classifier training (for the big network and the
//! baseline little networks) and AppealNet joint training (Algorithm 1).
//!
//! The SGD mini-batch loops are inherently sequential, but every full-dataset
//! evaluation pass ([`evaluate_classifier`], [`big_model_losses`], the final
//! train-accuracy measurement) routes through the parallel batch-evaluation
//! engine in [`crate::parallel`], which shards large datasets across worker
//! threads with deterministic, order-preserving results.

use crate::loss::{AppealLoss, CloudMode};
use crate::parallel::{self, ChunkPolicy};
use crate::two_head::TwoHeadNet;
use appeal_dataset::Dataset;
use appeal_models::ClassifierParts;
use appeal_tensor::loss::SoftmaxCrossEntropy;
use appeal_tensor::optim::{GradClip, LrSchedule, Optimizer, Sgd};
use appeal_tensor::{Layer, SeededRng};

/// Hyper-parameters shared by both trainers.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Learning-rate schedule applied per epoch.
    pub schedule: LrSchedule,
    /// Optional global gradient-norm clip.
    pub grad_clip: Option<f32>,
    /// Seed for batch shuffling.
    pub seed: u64,
    /// Chunking policy for the trainer's evaluation passes. Callers running
    /// several trainers concurrently should split the worker budget (see
    /// [`ChunkPolicy::split_across`]) so combined thread counts stay at the
    /// machine's budget.
    pub eval_policy: ChunkPolicy,
}

impl TrainerConfig {
    /// A reasonable default configuration for the scaled-down models.
    pub fn new(epochs: usize, batch_size: usize, learning_rate: f32) -> Self {
        Self {
            epochs,
            batch_size,
            learning_rate,
            momentum: 0.9,
            weight_decay: 1e-4,
            schedule: LrSchedule::Cosine {
                total_epochs: epochs.max(1),
                min_lr: learning_rate * 0.05,
            },
            grad_clip: Some(5.0),
            seed: 17,
            eval_policy: ChunkPolicy::runtime(),
        }
    }

    /// Tiny configuration used by fast tests.
    pub fn smoke() -> Self {
        Self::new(2, 32, 0.05)
    }

    fn validate(&self) {
        assert!(self.epochs > 0, "epochs must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self::new(10, 32, 0.05)
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on (a subset of) the training set after the final epoch.
    pub final_train_accuracy: f64,
}

impl TrainingReport {
    /// Loss after the final epoch.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().unwrap_or(&f32::NAN)
    }

    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Trains a plain classifier with softmax cross-entropy (used for the big
/// cloud network and the stand-alone little baselines).
pub fn train_classifier(
    model: &mut ClassifierParts,
    data: &Dataset,
    config: &TrainerConfig,
) -> TrainingReport {
    config.validate();
    let mut rng = SeededRng::new(config.seed);
    let mut optimizer =
        Sgd::with_momentum(config.learning_rate, config.momentum, config.weight_decay);
    let clip = config.grad_clip.map(GradClip::new);
    let ce = SoftmaxCrossEntropy::new();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        optimizer.set_lr(config.schedule.lr_at(config.learning_rate, epoch));
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for batch in data.batches(config.batch_size, true, &mut rng) {
            let features = model.backbone.forward(&batch.images, true);
            let logits = model.head.forward(&features, true);
            loss_sum += ce.mean(&logits, &batch.labels) as f64;
            batches += 1;

            let grad_logits = ce.grad(&logits, &batch.labels);
            let grad_features = model.head.backward(&grad_logits);
            let _ = model.backbone.backward(&grad_features);

            let mut params = model.backbone.params_mut();
            params.extend(model.head.params_mut());
            if let Some(clip) = &clip {
                clip.apply(&mut params);
            }
            optimizer.step(&mut params);
        }
        epoch_losses.push((loss_sum / batches.max(1) as f64) as f32);
    }

    TrainingReport {
        epoch_losses,
        final_train_accuracy: evaluate_classifier_with_policy(
            model,
            data,
            config.batch_size.max(64),
            &config.eval_policy,
        ),
    }
}

/// Accuracy of a plain classifier on a dataset.
pub fn evaluate_classifier(model: &mut ClassifierParts, data: &Dataset, batch_size: usize) -> f64 {
    evaluate_classifier_with_policy(model, data, batch_size, &ChunkPolicy::runtime())
}

/// Like [`evaluate_classifier`] with an explicit chunking policy (callers
/// evaluating several models concurrently split the worker budget).
pub fn evaluate_classifier_with_policy(
    model: &mut ClassifierParts,
    data: &Dataset,
    batch_size: usize,
    policy: &ChunkPolicy,
) -> f64 {
    let correct =
        parallel::classifier_correctness(model, data.images(), data.labels(), batch_size, policy)
            .into_iter()
            .filter(|&c| c)
            .count();
    correct as f64 / data.len().max(1) as f64
}

/// Per-sample cross-entropy losses of the big network over a dataset,
/// aligned with the dataset's sample order. These are the `ℓ(f0(x), y)`
/// terms required by the white-box joint objective (Eq. 9).
pub fn big_model_losses(big: &mut ClassifierParts, data: &Dataset, batch_size: usize) -> Vec<f32> {
    big_model_losses_with_policy(big, data, batch_size, &ChunkPolicy::runtime())
}

/// Like [`big_model_losses`] with an explicit chunking policy.
pub fn big_model_losses_with_policy(
    big: &mut ClassifierParts,
    data: &Dataset,
    batch_size: usize,
    policy: &ChunkPolicy,
) -> Vec<f32> {
    let logits = parallel::classifier_logits(big, data.images(), batch_size, policy);
    SoftmaxCrossEntropy::new().per_sample(&logits, data.labels())
}

/// Trains an AppealNet two-head network with the joint objective
/// (Algorithm 1 of the paper).
///
/// `big_losses` must be aligned with `data`'s sample order and is required in
/// white-box mode; pass an empty slice in black-box mode.
///
/// # Panics
///
/// Panics if white-box mode is requested but `big_losses.len() != data.len()`.
pub fn train_appealnet(
    net: &mut TwoHeadNet,
    data: &Dataset,
    loss: &AppealLoss,
    big_losses: &[f32],
    config: &TrainerConfig,
) -> TrainingReport {
    config.validate();
    if loss.mode() == CloudMode::WhiteBox {
        assert_eq!(
            big_losses.len(),
            data.len(),
            "white-box training requires one big-model loss per training sample"
        );
    }
    let mut rng = SeededRng::new(config.seed);
    let mut optimizer =
        Sgd::with_momentum(config.learning_rate, config.momentum, config.weight_decay);
    let clip = config.grad_clip.map(GradClip::new);
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        optimizer.set_lr(config.schedule.lr_at(config.learning_rate, epoch));
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for batch in data.batches(config.batch_size, true, &mut rng) {
            let batch_big: Vec<f32> = match loss.mode() {
                CloudMode::WhiteBox => batch.indices.iter().map(|&i| big_losses[i]).collect(),
                CloudMode::BlackBox => Vec::new(),
            };
            let out = net.forward(&batch.images, true);
            let loss_out = loss.compute(&out.logits, &out.q, &batch.labels, &batch_big);
            loss_sum += loss_out.loss as f64;
            batches += 1;

            net.backward(&loss_out.grad_logits, &loss_out.grad_q);
            let mut params = net.params_mut();
            if let Some(clip) = &clip {
                clip.apply(&mut params);
            }
            optimizer.step(&mut params);
        }
        epoch_losses.push((loss_sum / batches.max(1) as f64) as f32);
    }

    let out = net.evaluate_with_policy(
        data.images(),
        config.batch_size.max(64),
        &config.eval_policy,
    );
    let correct = out
        .predictions()
        .iter()
        .zip(data.labels().iter())
        .filter(|(p, y)| p == y)
        .count();
    TrainingReport {
        epoch_losses,
        final_train_accuracy: correct as f64 / data.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_dataset::{DatasetPreset, Fidelity};
    use appeal_models::{ModelFamily, ModelSpec};

    fn smoke_data() -> appeal_dataset::DatasetPair {
        DatasetPreset::Cifar10Like.spec(Fidelity::Smoke).generate()
    }

    #[test]
    fn classifier_training_reduces_loss() {
        let pair = smoke_data();
        let mut rng = SeededRng::new(1);
        let mut model =
            ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        let config = TrainerConfig::new(3, 16, 0.08);
        let report = train_classifier(&mut model, &pair.train, &config);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn classifier_beats_chance_after_training() {
        let pair = smoke_data();
        let mut rng = SeededRng::new(2);
        let mut model =
            ModelSpec::little(ModelFamily::EfficientNetLike, [3, 12, 12], 10).build(&mut rng);
        let config = TrainerConfig::new(6, 16, 0.08);
        train_classifier(&mut model, &pair.train, &config);
        let acc = evaluate_classifier(&mut model, &pair.test, 64);
        assert!(acc > 0.2, "test accuracy only {acc}");
    }

    #[test]
    fn big_model_losses_align_with_dataset() {
        let pair = smoke_data();
        let mut rng = SeededRng::new(3);
        let mut big = ModelSpec::big([3, 12, 12], 10).build(&mut rng);
        let losses = big_model_losses(&mut big, &pair.train, 64);
        assert_eq!(losses.len(), pair.train.len());
        assert!(losses.iter().all(|l| l.is_finite() && *l >= 0.0));
    }

    #[test]
    fn appealnet_joint_training_reduces_loss_whitebox() {
        let pair = smoke_data();
        let mut rng = SeededRng::new(4);
        let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        let mut big = ModelSpec::big([3, 12, 12], 10).build(&mut rng);
        let big_losses = big_model_losses(&mut big, &pair.train, 64);
        let mut net = TwoHeadNet::from_parts(little, &mut rng);
        let loss = AppealLoss::new(0.1, CloudMode::WhiteBox);
        let config = TrainerConfig::new(3, 16, 0.05);
        let report = train_appealnet(&mut net, &pair.train, &loss, &big_losses, &config);
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
    }

    #[test]
    fn appealnet_joint_training_blackbox_runs_without_big_losses() {
        let pair = smoke_data();
        let mut rng = SeededRng::new(5);
        let little =
            ModelSpec::little(ModelFamily::ShuffleNetLike, [3, 12, 12], 10).build(&mut rng);
        let mut net = TwoHeadNet::from_parts(little, &mut rng);
        let loss = AppealLoss::new(0.05, CloudMode::BlackBox);
        let config = TrainerConfig::new(2, 16, 0.05);
        let report = train_appealnet(&mut net, &pair.train, &loss, &[], &config);
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(report.final_loss().is_finite());
    }

    #[test]
    #[should_panic(expected = "one big-model loss per training sample")]
    fn whitebox_requires_big_losses() {
        let pair = smoke_data();
        let mut rng = SeededRng::new(6);
        let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        let mut net = TwoHeadNet::from_parts(little, &mut rng);
        let loss = AppealLoss::new(0.1, CloudMode::WhiteBox);
        let _ = train_appealnet(&mut net, &pair.train, &loss, &[], &TrainerConfig::smoke());
    }

    #[test]
    fn config_validation() {
        let mut config = TrainerConfig::smoke();
        config.epochs = 0;
        let pair = smoke_data();
        let mut rng = SeededRng::new(7);
        let mut model =
            ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_classifier(&mut model, &pair.train, &config)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let pair = smoke_data();
        let config = TrainerConfig::new(1, 16, 0.05);
        let run = || {
            let mut rng = SeededRng::new(8);
            let mut model =
                ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
            train_classifier(&mut model, &pair.train, &config).final_loss()
        };
        assert_eq!(run(), run());
    }
}
