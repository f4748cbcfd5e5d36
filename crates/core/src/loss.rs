//! The AppealNet joint training objective (paper Eq. 9 and Eq. 10).
//!
//! For a batch of samples with little-network logits, predictor outputs
//! `q ∈ (0, 1)`, ground-truth labels and (in the white-box case) the big
//! network's per-sample cross-entropy losses, the objective is
//!
//! ```text
//! L = (1/M) Σ_i [ q_i·ℓ(f1(x_i), y_i) + (1 − q_i)·ℓ(f0(x_i), y_i) + β·(−log q_i) ]
//! ```
//!
//! In the black-box (oracle) setting `ℓ(f0(x), y) = 0`, which recovers Eq. 10.

use appeal_tensor::loss::SoftmaxCrossEntropy;
use appeal_tensor::Tensor;

/// How the big cloud network is treated during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloudMode {
    /// The big network's per-sample losses are available (paper Section IV-A).
    WhiteBox,
    /// The big network is an oracle: its loss term is zero (paper Section IV-B).
    BlackBox,
}

impl std::fmt::Display for CloudMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudMode::WhiteBox => write!(f, "white-box"),
            CloudMode::BlackBox => write!(f, "black-box"),
        }
    }
}

/// Value and gradients of the joint objective for one batch.
#[derive(Debug, Clone)]
pub struct AppealLossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Mean of the prediction term `q·ℓ1 + (1−q)·ℓ0`.
    pub prediction_term: f32,
    /// Mean of the cost term `−log q` (before scaling by β).
    pub cost_term: f32,
    /// Gradient with respect to the approximator logits, `[n, k]`.
    pub grad_logits: Tensor,
    /// Gradient with respect to the predictor output `q`, `[n, 1]`.
    pub grad_q: Tensor,
}

/// The AppealNet joint loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppealLoss {
    beta: f32,
    mode: CloudMode,
}

impl AppealLoss {
    /// Creates the loss with trade-off weight `beta` (the paper's β).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative.
    pub fn new(beta: f32, mode: CloudMode) -> Self {
        assert!(beta >= 0.0, "beta must be non-negative");
        Self { beta, mode }
    }

    /// The configured β.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// The configured cloud mode.
    pub fn mode(&self) -> CloudMode {
        self.mode
    }

    /// Computes the loss and its gradients for one batch.
    ///
    /// `big_losses` must hold the big network's per-sample cross-entropy for
    /// each sample in the batch when the mode is [`CloudMode::WhiteBox`]; it
    /// is ignored (and may be empty) in [`CloudMode::BlackBox`].
    ///
    /// # Panics
    ///
    /// Panics if the batch sizes of `logits`, `q`, `labels` (and `big_losses`
    /// in white-box mode) disagree.
    pub fn compute(
        &self,
        logits: &Tensor,
        q: &[f32],
        labels: &[usize],
        big_losses: &[f32],
    ) -> AppealLossOutput {
        let n = labels.len();
        assert_eq!(logits.shape()[0], n, "logit batch size mismatch");
        assert_eq!(q.len(), n, "q batch size mismatch");
        if self.mode == CloudMode::WhiteBox {
            assert_eq!(big_losses.len(), n, "big-loss batch size mismatch");
        }

        let ce = SoftmaxCrossEntropy::new();
        let little_losses = ce.per_sample(logits, labels);

        // Clamp q away from 0/1 so log q and 1/q stay finite.
        let q_safe: Vec<f32> = q.iter().map(|&v| v.clamp(1e-6, 1.0 - 1e-6)).collect();

        let mut prediction_term = 0.0f32;
        let mut cost_term = 0.0f32;
        let mut grad_q = Tensor::zeros(&[n, 1]);
        for i in 0..n {
            let l1 = little_losses[i];
            let l0 = match self.mode {
                CloudMode::WhiteBox => big_losses[i],
                CloudMode::BlackBox => 0.0,
            };
            let qi = q_safe[i];
            prediction_term += qi * l1 + (1.0 - qi) * l0;
            cost_term += -qi.ln();
            // dL/dq_i = (ℓ1 − ℓ0 − β / q_i) / n
            grad_q.data_mut()[i] = (l1 - l0 - self.beta / qi) / n as f32;
        }
        prediction_term /= n as f32;
        cost_term /= n as f32;

        // dL/dlogits_i = q_i · dCE_i/dlogits_i / n  (grad_weighted already divides by n).
        let grad_logits = ce.grad_weighted(logits, labels, &q_safe);

        AppealLossOutput {
            loss: prediction_term + self.beta * cost_term,
            prediction_term,
            cost_term,
            grad_logits,
            grad_q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_tensor::SeededRng;

    fn batch(n: usize, k: usize, seed: u64) -> (Tensor, Vec<usize>, Vec<f32>, Vec<f32>) {
        let mut rng = SeededRng::new(seed);
        let logits = Tensor::randn(&[n, k], &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        let q: Vec<f32> = (0..n).map(|_| rng.uniform(0.05, 0.95)).collect();
        let big: Vec<f32> = (0..n).map(|_| rng.uniform(0.0, 0.5)).collect();
        (logits, labels, q, big)
    }

    #[test]
    fn blackbox_ignores_big_losses() {
        let (logits, labels, q, big) = batch(6, 4, 1);
        let loss_bb = AppealLoss::new(0.1, CloudMode::BlackBox).compute(&logits, &q, &labels, &[]);
        let loss_bb2 =
            AppealLoss::new(0.1, CloudMode::BlackBox).compute(&logits, &q, &labels, &big);
        assert!((loss_bb.loss - loss_bb2.loss).abs() < 1e-7);
    }

    #[test]
    fn whitebox_loss_decreases_when_big_model_is_better() {
        let (logits, labels, q, _) = batch(6, 4, 2);
        let loss_good_cloud =
            AppealLoss::new(0.1, CloudMode::WhiteBox).compute(&logits, &q, &labels, &[0.0; 6]);
        let loss_bad_cloud =
            AppealLoss::new(0.1, CloudMode::WhiteBox).compute(&logits, &q, &labels, &[5.0; 6]);
        assert!(loss_good_cloud.loss < loss_bad_cloud.loss);
    }

    #[test]
    fn beta_zero_removes_cost_term_from_loss() {
        let (logits, labels, q, big) = batch(5, 3, 3);
        let out = AppealLoss::new(0.0, CloudMode::WhiteBox).compute(&logits, &q, &labels, &big);
        assert!((out.loss - out.prediction_term).abs() < 1e-6);
    }

    #[test]
    fn larger_beta_pushes_q_upwards() {
        // The gradient on q should become more negative (push q up) as beta grows.
        let (logits, labels, q, big) = batch(5, 3, 4);
        let small = AppealLoss::new(0.01, CloudMode::WhiteBox).compute(&logits, &q, &labels, &big);
        let large = AppealLoss::new(1.0, CloudMode::WhiteBox).compute(&logits, &q, &labels, &big);
        for i in 0..5 {
            assert!(large.grad_q.data()[i] < small.grad_q.data()[i]);
        }
    }

    #[test]
    fn grad_q_matches_finite_difference() {
        let (logits, labels, mut q, big) = batch(4, 3, 5);
        let loss_fn = AppealLoss::new(0.2, CloudMode::WhiteBox);
        let out = loss_fn.compute(&logits, &q, &labels, &big);
        let eps = 1e-3;
        for i in 0..q.len() {
            let orig = q[i];
            q[i] = orig + eps;
            let plus = loss_fn.compute(&logits, &q, &labels, &big).loss;
            q[i] = orig - eps;
            let minus = loss_fn.compute(&logits, &q, &labels, &big).loss;
            q[i] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (out.grad_q.data()[i] - numeric).abs() < 1e-3,
                "sample {i}: analytic {} numeric {numeric}",
                out.grad_q.data()[i]
            );
        }
    }

    #[test]
    fn grad_logits_matches_finite_difference() {
        let (mut logits, labels, q, big) = batch(3, 4, 6);
        let loss_fn = AppealLoss::new(0.2, CloudMode::WhiteBox);
        let out = loss_fn.compute(&logits, &q, &labels, &big);
        let eps = 1e-2;
        for idx in 0..logits.len() {
            let orig = logits.data()[idx];
            logits.data_mut()[idx] = orig + eps;
            let plus = loss_fn.compute(&logits, &q, &labels, &big).loss;
            logits.data_mut()[idx] = orig - eps;
            let minus = loss_fn.compute(&logits, &q, &labels, &big).loss;
            logits.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (out.grad_logits.data()[idx] - numeric).abs() < 2e-3,
                "idx {idx}: analytic {} numeric {numeric}",
                out.grad_logits.data()[idx]
            );
        }
    }

    #[test]
    fn extreme_q_values_stay_finite() {
        let (logits, labels, _, big) = batch(4, 3, 7);
        let q = vec![0.0, 1.0, 1e-9, 1.0 - 1e-9];
        let out = AppealLoss::new(0.5, CloudMode::WhiteBox).compute(&logits, &q, &labels, &big);
        assert!(out.loss.is_finite());
        assert!(out.grad_q.all_finite());
    }

    #[test]
    #[should_panic(expected = "beta must be non-negative")]
    fn rejects_negative_beta() {
        let _ = AppealLoss::new(-0.1, CloudMode::WhiteBox);
    }

    #[test]
    fn accessors() {
        let l = AppealLoss::new(0.3, CloudMode::BlackBox);
        assert_eq!(l.beta(), 0.3);
        assert_eq!(l.mode(), CloudMode::BlackBox);
        assert_eq!(CloudMode::WhiteBox.to_string(), "white-box");
    }
}
