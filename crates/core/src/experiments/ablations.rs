//! Ablation studies on the design choices the paper calls out:
//!
//! * the β trade-off weight in the joint objective (Eq. 9);
//! * joint training of the predictor vs. a post-hoc predictor trained on a
//!   frozen little network (the key architectural claim of the paper).

use crate::artifacts::EvaluationArtifacts;
use crate::experiments::fig4::auroc;
use crate::experiments::{ExperimentContext, PreparedExperiment};
use crate::loss::CloudMode;
use crate::scores::ScoreKind;
use appeal_dataset::DatasetPreset;
use appeal_models::ModelFamily;
use appeal_tensor::layers::{Dense, Sequential, Sigmoid};
use appeal_tensor::loss::BinaryCrossEntropy;
use appeal_tensor::optim::{Optimizer, Sgd};
use appeal_tensor::{Layer, SeededRng, Tensor};

/// Result of training AppealNet with one β value.
#[derive(Debug, Clone)]
pub struct BetaAblationRow {
    /// The β used for joint training.
    pub beta: f32,
    /// Approximator-head test accuracy.
    pub appealnet_accuracy: f64,
    /// Mean predictor output `q` over the test set.
    pub mean_q: f64,
    /// Overall system accuracy at a 90% skipping rate.
    pub accuracy_at_sr90: f64,
    /// AUROC of `q` predicting little-network correctness.
    pub q_auroc: f64,
}

/// Runs the β ablation: trains one AppealNet per β value and reports how the
/// predictor behaviour changes.
pub fn beta_sweep(
    preset: DatasetPreset,
    family: ModelFamily,
    betas: &[f32],
    ctx: &ExperimentContext,
) -> Vec<BetaAblationRow> {
    let pair = preset.spec(ctx.fidelity).generate();
    betas
        .iter()
        .map(|&beta| {
            let prepared = PreparedExperiment::prepare_with_data(
                preset,
                &pair,
                family,
                CloudMode::WhiteBox,
                &ctx.with_beta(beta),
            );
            let art = prepared.artifacts(ScoreKind::AppealNetQ);
            BetaAblationRow {
                beta,
                appealnet_accuracy: prepared.appealnet_accuracy,
                mean_q: art.scores.iter().map(|&s| s as f64).sum::<f64>() / art.len() as f64,
                accuracy_at_sr90: art
                    .at_skipping_rate(0.9)
                    .expect("prepared artifacts are non-empty with finite scores")
                    .overall_accuracy,
                q_auroc: auroc(&art.scores, &art.little_correct),
            }
        })
        .collect()
}

/// Renders a β-ablation table as text.
pub fn render_beta_table(rows: &[BetaAblationRow]) -> String {
    let mut out = String::from("beta      appeal acc    mean q    acc @ SR=90%    AUROC(q)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10.3}{:<14.4}{:<10.4}{:<16.4}{:.4}\n",
            r.beta, r.appealnet_accuracy, r.mean_q, r.accuracy_at_sr90, r.q_auroc
        ));
    }
    out
}

/// Comparison of the jointly trained predictor against a post-hoc predictor
/// trained on the frozen baseline little network.
#[derive(Debug, Clone)]
pub struct JointVsPostHoc {
    /// AUROC of the jointly trained predictor head.
    pub joint_auroc: f64,
    /// AUROC of the post-hoc predictor head.
    pub posthoc_auroc: f64,
    /// Overall accuracy at SR = 90% using the joint predictor.
    pub joint_accuracy_at_sr90: f64,
    /// Overall accuracy at SR = 90% using the post-hoc predictor.
    pub posthoc_accuracy_at_sr90: f64,
}

impl JointVsPostHoc {
    /// Renders the comparison as text.
    pub fn render_text(&self) -> String {
        format!(
            "joint predictor:    AUROC = {:.4}, overall acc @ SR=90% = {:.4}\n\
             post-hoc predictor: AUROC = {:.4}, overall acc @ SR=90% = {:.4}\n",
            self.joint_auroc,
            self.joint_accuracy_at_sr90,
            self.posthoc_auroc,
            self.posthoc_accuracy_at_sr90
        )
    }
}

/// Trains a post-hoc predictor head (Dense + sigmoid on frozen backbone
/// features, binary target = "little network is correct") and compares it
/// against the jointly trained AppealNet predictor from `prepared`.
///
/// `pair` must be the same dataset pair the experiment was prepared with.
pub fn joint_vs_posthoc(
    prepared: &mut PreparedExperiment,
    pair: &appeal_dataset::DatasetPair,
    ctx: &ExperimentContext,
) -> JointVsPostHoc {
    let eval_batch = ctx.eval_batch();
    let joint_art = prepared.artifacts(ScoreKind::AppealNetQ).clone();

    // --- Train the post-hoc predictor on frozen baseline features ---
    let baseline = &mut prepared.models.baseline;
    let train_features = collect_features(baseline, pair.train.images(), eval_batch);
    let train_logits = {
        let mut rows = Vec::new();
        let n = train_features.shape()[0];
        let mut start = 0;
        while start < n {
            let end = (start + eval_batch).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let f = train_features.select_rows(&idx);
            let logits = baseline.head.forward(&f, false);
            for i in 0..(end - start) {
                rows.push(logits.row(i));
            }
            start = end;
        }
        Tensor::stack_rows(&rows)
    };
    let targets: Vec<f32> = train_logits
        .argmax_rows()
        .iter()
        .zip(pair.train.labels().iter())
        .map(|(p, y)| if p == y { 1.0 } else { 0.0 })
        .collect();

    let feature_dim = train_features.shape()[1];
    let mut rng = SeededRng::new(ctx.seed ^ 0xF0F);
    let mut head = Sequential::new(vec![Box::new(Dense::new(feature_dim, 1, &mut rng))]);
    let bce = BinaryCrossEntropy::new();
    let mut optimizer = Sgd::with_momentum(0.1, 0.9, 1e-4);
    let epochs = ctx.joint_config().epochs.max(3);
    let batch_size = ctx.joint_config().batch_size;
    for _ in 0..epochs {
        let order = rng.permutation(train_features.shape()[0]);
        for chunk in order.chunks(batch_size) {
            let f = train_features.select_rows(chunk);
            let t: Vec<f32> = chunk.iter().map(|&i| targets[i]).collect();
            let scores = head.forward(&f, true);
            let grad = bce.grad(&scores, &t);
            head.backward(&grad);
            let mut params = head.params_mut();
            optimizer.step(&mut params);
        }
    }

    // --- Evaluate the post-hoc predictor on the test set ---
    let test_features = collect_features(baseline, pair.test.images(), eval_batch);
    let raw = head.forward(&test_features, false);
    let mut sigmoid = Sigmoid::new();
    let posthoc_scores = sigmoid.forward(&raw, false).data().to_vec();
    let posthoc_art = EvaluationArtifacts {
        scores: posthoc_scores,
        little_correct: prepared.artifacts(ScoreKind::Msp).little_correct.clone(),
        big_correct: prepared.artifacts(ScoreKind::Msp).big_correct.clone(),
        hard_flags: pair.test.hard_flags().to_vec(),
        little_flops: prepared.little_flops,
        big_flops: prepared.big_flops,
        score_kind: ScoreKind::AppealNetQ,
    };

    JointVsPostHoc {
        joint_auroc: auroc(&joint_art.scores, &joint_art.little_correct),
        posthoc_auroc: auroc(&posthoc_art.scores, &posthoc_art.little_correct),
        joint_accuracy_at_sr90: joint_art
            .at_skipping_rate(0.9)
            .expect("prepared artifacts are non-empty with finite scores")
            .overall_accuracy,
        posthoc_accuracy_at_sr90: posthoc_art
            .at_skipping_rate(0.9)
            .expect("prepared artifacts are non-empty with finite scores")
            .overall_accuracy,
    }
}

fn collect_features(
    model: &mut appeal_models::ClassifierParts,
    images: &Tensor,
    batch_size: usize,
) -> Tensor {
    let n = images.shape()[0];
    let mut rows = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let batch = images.select_rows(&idx);
        let features = model.backbone.forward(&batch, false);
        for i in 0..(end - start) {
            rows.push(features.row(i));
        }
        start = end;
    }
    Tensor::stack_rows(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_dataset::Fidelity;

    #[test]
    fn beta_sweep_smoke_produces_one_row_per_beta() {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 41);
        let rows = beta_sweep(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            &[0.05, 0.5],
            &ctx,
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.mean_q));
            assert!((0.0..=1.0).contains(&r.appealnet_accuracy));
            assert!((0.0..=1.0).contains(&r.q_auroc));
        }
        let text = render_beta_table(&rows);
        assert!(text.contains("beta"));
    }

    #[test]
    fn larger_beta_gives_larger_mean_q() {
        // The cost term −β·log q pushes q towards 1, so a (much) larger β
        // must produce a larger average q.
        let ctx = ExperimentContext::new(Fidelity::Smoke, 42);
        let rows = beta_sweep(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            &[0.01, 1.0],
            &ctx,
        );
        assert!(
            rows[1].mean_q > rows[0].mean_q,
            "beta=1.0 mean_q {} should exceed beta=0.01 mean_q {}",
            rows[1].mean_q,
            rows[0].mean_q
        );
    }

    #[test]
    fn joint_vs_posthoc_smoke_runs() {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 43);
        let pair = DatasetPreset::Cifar10Like.spec(Fidelity::Smoke).generate();
        let mut prepared = PreparedExperiment::prepare_with_data(
            DatasetPreset::Cifar10Like,
            &pair,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        let result = joint_vs_posthoc(&mut prepared, &pair, &ctx);
        assert!((0.0..=1.0).contains(&result.joint_auroc));
        assert!((0.0..=1.0).contains(&result.posthoc_auroc));
        assert!(result.render_text().contains("post-hoc"));
    }
}
