//! Ready-made experiment pipelines for every figure and table in the paper's
//! evaluation section (Section VI).
//!
//! The heavy lifting — generating a dataset, training the big network, the
//! baseline little network and the AppealNet two-head network, and
//! precomputing per-sample routing artifacts — is done once by
//! [`PreparedExperiment::prepare`]; each figure/table module then reads the
//! cheap precomputed artifacts.

pub mod ablations;
pub mod energy;
pub mod fig4;
pub mod fig5;
pub mod table1;
pub mod table2;

use crate::artifacts::EvaluationArtifacts;
use crate::loss::{AppealLoss, CloudMode};
use crate::parallel::{self, ChunkPolicy};
use crate::scores::ScoreKind;
use crate::training::{
    big_model_losses_with_policy, evaluate_classifier_with_policy, train_appealnet,
    train_classifier, TrainerConfig,
};
use crate::two_head::TwoHeadNet;
use appeal_dataset::{DatasetPair, DatasetPreset, Fidelity};
use appeal_models::{ClassifierParts, ModelFamily, ModelSpec};
use appeal_tensor::loss::SoftmaxCrossEntropy;
use appeal_tensor::{Layer, SeededRng};

/// Extension helpers on [`CloudMode`] used by the experiment harnesses.
pub trait CloudModeExt {
    /// Short name used in report file names.
    fn short_name(&self) -> &'static str;
}

impl CloudModeExt for CloudMode {
    fn short_name(&self) -> &'static str {
        match self {
            CloudMode::WhiteBox => "whitebox",
            CloudMode::BlackBox => "blackbox",
        }
    }
}

/// Shared configuration of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentContext {
    /// Dataset / training scale.
    pub fidelity: Fidelity,
    /// Master seed; every component derives its own stream from it.
    pub seed: u64,
    /// Trade-off weight β of the joint objective (Eq. 9 / Eq. 10).
    pub beta: f32,
}

impl ExperimentContext {
    /// Creates a context with the default β used throughout the evaluation.
    pub fn new(fidelity: Fidelity, seed: u64) -> Self {
        Self {
            fidelity,
            seed,
            beta: 0.15,
        }
    }

    /// Returns a copy with a different β (used by the β ablation).
    pub fn with_beta(mut self, beta: f32) -> Self {
        self.beta = beta;
        self
    }

    /// Trainer configuration for the big cloud network.
    ///
    /// Configs carry the full fidelity-appropriate worker budget;
    /// [`PreparedExperiment::prepare_with_data`] splits it across whichever
    /// trainers it actually runs concurrently for the chosen [`CloudMode`].
    pub fn big_config(&self) -> TrainerConfig {
        let mut config = match self.fidelity {
            Fidelity::Smoke => TrainerConfig::new(2, 32, 0.08),
            Fidelity::Paper => TrainerConfig::new(6, 48, 0.08),
        };
        config.seed = self.seed ^ 0xB16;
        config.eval_policy = ChunkPolicy::for_fidelity(self.fidelity);
        config
    }

    /// Trainer configuration for the stand-alone little network.
    pub fn little_config(&self) -> TrainerConfig {
        let mut config = match self.fidelity {
            Fidelity::Smoke => TrainerConfig::new(2, 32, 0.08),
            Fidelity::Paper => TrainerConfig::new(8, 48, 0.08),
        };
        config.seed = self.seed ^ 0x117;
        config.eval_policy = ChunkPolicy::for_fidelity(self.fidelity);
        config
    }

    /// Trainer configuration for AppealNet joint training (Algorithm 1).
    pub fn joint_config(&self) -> TrainerConfig {
        let mut config = match self.fidelity {
            Fidelity::Smoke => TrainerConfig::new(2, 32, 0.04),
            Fidelity::Paper => TrainerConfig::new(6, 48, 0.04),
        };
        config.seed = self.seed ^ 0x107;
        config.eval_policy = ChunkPolicy::for_fidelity(self.fidelity);
        config
    }

    /// Batch size used for evaluation passes.
    pub fn eval_batch(&self) -> usize {
        128
    }
}

/// Copies parameter values from `src` into `dst`.
///
/// Both models must have been built from the same [`ModelSpec`] so their
/// parameter lists line up. Used to implement Algorithm 1's "initialize with
/// the pre-trained little model" without retraining.
fn copy_params(src: &mut ClassifierParts, dst: &mut ClassifierParts) {
    let mut src_params = src.backbone.params_mut();
    src_params.extend(src.head.params_mut());
    let mut dst_params = dst.backbone.params_mut();
    dst_params.extend(dst.head.params_mut());
    assert_eq!(
        src_params.len(),
        dst_params.len(),
        "models must share an architecture to copy parameters"
    );
    for (s, d) in src_params.iter().zip(dst_params.iter_mut()) {
        assert_eq!(s.value.shape(), d.value.shape(), "parameter shape mismatch");
        d.value = s.value.clone();
    }
}

/// The trained models retained by a [`PreparedExperiment`] so that ablations
/// and deployment examples can reuse them without retraining.
pub struct TrainedModels {
    /// The big cloud network (untrained in black-box mode).
    pub big: ClassifierParts,
    /// The stand-alone baseline little network.
    pub baseline: ClassifierParts,
    /// The jointly trained AppealNet two-head network.
    pub appealnet: TwoHeadNet,
}

/// A fully trained little/big model pair with precomputed routing artifacts
/// for every score kind, ready to answer any Fig. 5 / Table I / Table II query.
pub struct PreparedExperiment {
    /// Dataset preset this experiment ran on.
    pub preset: DatasetPreset,
    /// Little-network family.
    pub family: ModelFamily,
    /// White-box or black-box cloud model.
    pub mode: CloudMode,
    /// Test accuracy of the stand-alone baseline little network.
    pub little_accuracy: f64,
    /// Test accuracy of the AppealNet two-head network's approximator head.
    pub appealnet_accuracy: f64,
    /// Test accuracy of the big network (1.0 in black-box / oracle mode).
    pub big_accuracy: f64,
    /// Per-inference FLOPs of the little network (with predictor head).
    pub little_flops: u64,
    /// Per-inference FLOPs of the big network.
    pub big_flops: u64,
    /// Bytes uploaded per offloaded input (raw f32 image).
    pub input_bytes: u64,
    /// Training reports (big, little, joint) for diagnostics.
    pub training_losses: Vec<(String, Vec<f32>)>,
    /// The trained models themselves (for ablations and deployment examples).
    pub models: TrainedModels,
    artifacts: Vec<(ScoreKind, EvaluationArtifacts)>,
}

impl std::fmt::Debug for PreparedExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PreparedExperiment({}, {}, {}, little={:.3}, appeal={:.3}, big={:.3})",
            self.preset,
            self.family,
            self.mode,
            self.little_accuracy,
            self.appealnet_accuracy,
            self.big_accuracy
        )
    }
}

impl PreparedExperiment {
    /// Runs the full preparation pipeline:
    ///
    /// 1. generate the dataset preset;
    /// 2. train the big network (white-box mode only);
    /// 3. train the stand-alone little network (the confidence baselines);
    /// 4. initialize AppealNet from the trained little network, insert the
    ///    predictor head and jointly train it (Algorithm 1);
    /// 5. evaluate everything on the test split and precompute routing
    ///    artifacts for every score kind.
    pub fn prepare(
        preset: DatasetPreset,
        family: ModelFamily,
        mode: CloudMode,
        ctx: &ExperimentContext,
    ) -> Self {
        let spec = preset.spec(ctx.fidelity);
        let pair = spec.generate();
        Self::prepare_with_data(preset, &pair, family, mode, ctx)
    }

    /// Like [`PreparedExperiment::prepare`] but with a caller-provided dataset
    /// pair (lets several experiments share one generated dataset).
    ///
    /// Training of the big network and the stand-alone little baseline run on
    /// separate worker threads (they are independent given their derived RNG
    /// streams), and the three evaluation passes over the test split — the
    /// two-head network, the big network and the little baseline — also run
    /// concurrently, with each pass internally sharded per the fidelity's
    /// [`ChunkPolicy`]. Results are bit-identical to a sequential run.
    pub fn prepare_with_data(
        preset: DatasetPreset,
        pair: &DatasetPair,
        family: ModelFamily,
        mode: CloudMode,
        ctx: &ExperimentContext,
    ) -> Self {
        let spec = preset.spec(ctx.fidelity);
        let input_shape = [spec.channels, spec.height, spec.width];
        let num_classes = spec.num_classes;
        let mut rng = SeededRng::new(ctx.seed ^ preset.spec(ctx.fidelity).seed);
        let mut big_rng = rng.split();
        let mut little_rng = rng.split();
        let eval_batch = ctx.eval_batch();
        let policy = ChunkPolicy::for_fidelity(ctx.fidelity);
        let mut training_losses = Vec::new();

        // --- Big (cloud) network and stand-alone little baseline ---
        // Their RNG streams are derived up front, so the two training runs
        // are independent and can proceed in parallel.
        let little_spec = ModelSpec::little(family, input_shape, num_classes);
        let mut init_rng = little_rng.split();
        // In black-box mode the big branch does no work, so the little
        // trainer keeps the full worker budget.
        let train_branches = match mode {
            CloudMode::WhiteBox => 2,
            CloudMode::BlackBox => 1,
        };
        let (
            (mut big, big_accuracy, big_train_losses, big_report),
            (mut baseline, little_accuracy, little_report),
        ) = rayon::join(
            || {
                let mut big = ModelSpec::big(input_shape, num_classes).build(&mut big_rng);
                match mode {
                    CloudMode::WhiteBox => {
                        let mut config = ctx.big_config();
                        config.eval_policy = config.eval_policy.split_across(train_branches);
                        let report = train_classifier(&mut big, &pair.train, &config);
                        let acc = evaluate_classifier_with_policy(
                            &mut big,
                            &pair.test,
                            eval_batch,
                            &config.eval_policy,
                        );
                        let losses = big_model_losses_with_policy(
                            &mut big,
                            &pair.train,
                            eval_batch,
                            &config.eval_policy,
                        );
                        (big, acc, losses, Some(report))
                    }
                    CloudMode::BlackBox => (big, 1.0, Vec::new(), None),
                }
            },
            || {
                let mut baseline = little_spec.build(&mut init_rng);
                let mut config = ctx.little_config();
                config.eval_policy = config.eval_policy.split_across(train_branches);
                let report = train_classifier(&mut baseline, &pair.train, &config);
                let acc = evaluate_classifier_with_policy(
                    &mut baseline,
                    &pair.test,
                    eval_batch,
                    &config.eval_policy,
                );
                (baseline, acc, report)
            },
        );
        if let Some(report) = big_report {
            training_losses.push(("big".to_string(), report.epoch_losses));
        }
        training_losses.push(("little".to_string(), little_report.epoch_losses));

        // --- AppealNet two-head network, initialized from the trained little net ---
        let mut appeal_init_rng = little_rng.split();
        let mut appeal_little = little_spec.build(&mut appeal_init_rng);
        copy_params(&mut baseline, &mut appeal_little);
        let mut appealnet = TwoHeadNet::from_parts(appeal_little, &mut little_rng);
        let loss = AppealLoss::new(ctx.beta, mode);
        let report = train_appealnet(
            &mut appealnet,
            &pair.train,
            &loss,
            &big_train_losses,
            &ctx.joint_config(),
        );
        training_losses.push(("joint".to_string(), report.epoch_losses.clone()));

        // --- Evaluation artifacts on the test split ---
        // Three independent model passes (two-head, big, baseline) run
        // concurrently; the big network is evaluated once and its correctness
        // flags shared by all four score kinds (it used to be re-run per
        // kind), and the baseline's probabilities feed all three confidence
        // baselines from a single logits pass.
        let test = &pair.test;
        let hard = test.hard_flags();
        // The concurrent branches split the worker budget so their combined
        // thread count stays at the policy's budget; the black-box
        // big-correctness branch is a constant, so it does not count.
        let eval_branches = match mode {
            CloudMode::WhiteBox => 3,
            CloudMode::BlackBox => 2,
        };
        let policy = policy.split_across(eval_branches);
        let (appeal_out, (big_correct, (baseline_probs, baseline_correct))) = rayon::join(
            || appealnet.evaluate_with_policy(test.images(), eval_batch, &policy),
            || {
                rayon::join(
                    || match mode {
                        CloudMode::WhiteBox => parallel::classifier_correctness(
                            &mut big,
                            test.images(),
                            test.labels(),
                            eval_batch,
                            &policy,
                        ),
                        // Oracle cloud: always correct, no need to run it.
                        CloudMode::BlackBox => vec![true; test.len()],
                    },
                    || {
                        let logits = parallel::classifier_logits(
                            &mut baseline,
                            test.images(),
                            eval_batch,
                            &policy,
                        );
                        let correct: Vec<bool> = logits
                            .argmax_rows()
                            .iter()
                            .zip(test.labels().iter())
                            .map(|(p, y)| p == y)
                            .collect();
                        (SoftmaxCrossEntropy::new().probabilities(&logits), correct)
                    },
                )
            },
        );

        let little_flops = appealnet.flops();
        let big_flops = big.total_flops();
        let appeal_little_correct: Vec<bool> = appeal_out
            .predictions()
            .iter()
            .zip(test.labels().iter())
            .map(|(p, y)| p == y)
            .collect();
        let appealnet_accuracy =
            appeal_little_correct.iter().filter(|&&c| c).count() as f64 / test.len() as f64;
        let mut artifacts = Vec::new();
        artifacts.push((
            ScoreKind::AppealNetQ,
            EvaluationArtifacts {
                scores: appeal_out.q,
                little_correct: appeal_little_correct,
                big_correct: big_correct.clone(),
                hard_flags: hard.to_vec(),
                little_flops,
                big_flops,
                score_kind: ScoreKind::AppealNetQ,
            },
        ));
        for kind in ScoreKind::baselines() {
            artifacts.push((
                kind,
                EvaluationArtifacts::from_probabilities(
                    &baseline_probs,
                    baseline_correct.clone(),
                    big_correct.clone(),
                    hard,
                    baseline.total_flops(),
                    big_flops,
                    kind,
                ),
            ));
        }
        Self {
            preset,
            family,
            mode,
            little_accuracy,
            appealnet_accuracy,
            big_accuracy,
            little_flops,
            big_flops,
            input_bytes: (input_shape.iter().product::<usize>() * 4) as u64,
            training_losses,
            models: TrainedModels {
                big,
                baseline,
                appealnet,
            },
            artifacts,
        }
    }

    /// Routing artifacts for a particular score kind.
    ///
    /// # Panics
    ///
    /// Panics if the score kind was not prepared (never happens for the four
    /// standard kinds).
    pub fn artifacts(&self, kind: ScoreKind) -> &EvaluationArtifacts {
        self.artifacts
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, a)| a)
            .unwrap_or_else(|| panic!("no artifacts prepared for {kind}"))
    }

    /// All prepared score kinds.
    pub fn score_kinds(&self) -> Vec<ScoreKind> {
        self.artifacts.iter().map(|(k, _)| *k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExperimentContext {
        ExperimentContext::new(Fidelity::Smoke, 7)
    }

    #[test]
    fn context_configs_scale_with_fidelity() {
        let smoke = ExperimentContext::new(Fidelity::Smoke, 1);
        let paper = ExperimentContext::new(Fidelity::Paper, 1);
        assert!(smoke.big_config().epochs < paper.big_config().epochs);
        assert!(smoke.joint_config().epochs <= paper.joint_config().epochs);
        assert_eq!(smoke.with_beta(0.5).beta, 0.5);
        assert_eq!(CloudMode::WhiteBox.short_name(), "whitebox");
    }

    #[test]
    fn prepare_whitebox_smoke_produces_all_artifacts() {
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx(),
        );
        assert_eq!(prepared.score_kinds().len(), 4);
        for kind in ScoreKind::all() {
            let art = prepared.artifacts(kind);
            assert_eq!(art.len(), 30);
            assert!(art.scores.iter().all(|s| s.is_finite()));
        }
        assert!(prepared.little_flops < prepared.big_flops);
        assert!(prepared.big_accuracy > 0.0 && prepared.big_accuracy <= 1.0);
        assert_eq!(prepared.training_losses.len(), 3);
        assert!(!format!("{prepared:?}").is_empty());
    }

    #[test]
    fn prepare_blackbox_treats_cloud_as_oracle() {
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::ShuffleNetLike,
            CloudMode::BlackBox,
            &ctx(),
        );
        assert_eq!(prepared.big_accuracy, 1.0);
        let art = prepared.artifacts(ScoreKind::AppealNetQ);
        assert!(art.big_correct.iter().all(|&c| c));
        // Only big + little + joint training entries minus the untrained big.
        assert_eq!(prepared.training_losses.len(), 2);
    }

    #[test]
    fn copy_params_transfers_trained_weights() {
        let mut rng = SeededRng::new(3);
        let spec = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10);
        let mut a = spec.build(&mut rng);
        let mut b = spec.build(&mut SeededRng::new(99));
        // Make them differ, then copy.
        let x = appeal_tensor::Tensor::randn(&[2, 3, 12, 12], &mut rng);
        assert!(a.forward(&x, false).max_abs_diff(&b.forward(&x, false)) > 1e-6);
        copy_params(&mut a, &mut b);
        assert!(a.forward(&x, false).max_abs_diff(&b.forward(&x, false)) < 1e-6);
    }
}
