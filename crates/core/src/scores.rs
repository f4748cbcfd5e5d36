//! Routing scores: AppealNet's `q(1|x)` and the confidence-based baselines.
//!
//! All scores follow the convention "higher = keep on the edge". The three
//! baselines are the ones the paper compares against (Section VI-A):
//!
//! * **MSP** — maximum softmax probability (Hendrycks & Gimpel).
//! * **Score margin (SM)** — difference between the largest and
//!   second-largest softmax probabilities (Park et al., the Big/Little paper).
//! * **Entropy** — `Σ_j p_j log p_j` (negative entropy, so that higher is
//!   more confident), as used by BranchyNet.
//!
//! At serving time these scores are produced behind the
//! [`crate::serve::Scorer`] trait: [`crate::serve::QScorer`] for the learned
//! `q(1|x)` and [`crate::serve::ConfidenceScorer`] for the baselines here.

use appeal_tensor::Tensor;
use std::fmt;

/// Which per-input routing score to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreKind {
    /// AppealNet's learned predictor output `q(1|x)`.
    AppealNetQ,
    /// Maximum softmax probability.
    Msp,
    /// Softmax score margin (top-1 minus top-2).
    ScoreMargin,
    /// Negative entropy of the softmax distribution.
    Entropy,
}

impl ScoreKind {
    /// All score kinds, AppealNet first (the order used in Fig. 5 legends).
    pub fn all() -> [ScoreKind; 4] {
        [
            ScoreKind::AppealNetQ,
            ScoreKind::Msp,
            ScoreKind::ScoreMargin,
            ScoreKind::Entropy,
        ]
    }

    /// The confidence-score baselines (everything except AppealNet).
    pub fn baselines() -> [ScoreKind; 3] {
        [ScoreKind::Msp, ScoreKind::ScoreMargin, ScoreKind::Entropy]
    }

    /// Short name used in tables and plots.
    pub fn name(&self) -> &'static str {
        match self {
            ScoreKind::AppealNetQ => "AppealNet",
            ScoreKind::Msp => "MSP",
            ScoreKind::ScoreMargin => "SM",
            ScoreKind::Entropy => "Entropy",
        }
    }

    /// Returns `true` for the baselines that only need softmax probabilities.
    pub fn is_confidence_baseline(&self) -> bool {
        !matches!(self, ScoreKind::AppealNetQ)
    }
}

impl fmt::Display for ScoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Computes a confidence score per row of a `[n, k]` softmax-probability tensor.
///
/// # Panics
///
/// Panics if `probs` is not rank 2, or `kind` is [`ScoreKind::AppealNetQ`]
/// (that score comes from the predictor head, not from probabilities).
pub fn confidence_scores(probs: &Tensor, kind: ScoreKind) -> Vec<f32> {
    assert_eq!(probs.rank(), 2, "probabilities must be [batch, classes]");
    assert!(
        kind.is_confidence_baseline(),
        "AppealNetQ is produced by the predictor head, not derived from probabilities"
    );
    let (n, k) = (probs.shape()[0], probs.shape()[1]);
    (0..n)
        .map(|i| {
            let row = &probs.data()[i * k..(i + 1) * k];
            match kind {
                ScoreKind::Msp => row.iter().copied().fold(f32::NEG_INFINITY, f32::max),
                ScoreKind::ScoreMargin => {
                    let mut top1 = f32::NEG_INFINITY;
                    let mut top2 = f32::NEG_INFINITY;
                    for &p in row {
                        if p > top1 {
                            top2 = top1;
                            top1 = p;
                        } else if p > top2 {
                            top2 = p;
                        }
                    }
                    if k == 1 {
                        top1
                    } else {
                        top1 - top2
                    }
                }
                ScoreKind::Entropy => row
                    .iter()
                    .map(|&p| if p > 0.0 { p * p.ln() } else { 0.0 })
                    .sum(),
                ScoreKind::AppealNetQ => unreachable!("rejected above"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probs() -> Tensor {
        // Row 0: confident; row 1: uncertain.
        Tensor::from_vec(vec![0.9, 0.05, 0.05, 0.4, 0.35, 0.25], &[2, 3]).unwrap()
    }

    #[test]
    fn msp_is_max_probability() {
        let s = confidence_scores(&probs(), ScoreKind::Msp);
        assert!((s[0] - 0.9).abs() < 1e-6);
        assert!((s[1] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn score_margin_is_top1_minus_top2() {
        let s = confidence_scores(&probs(), ScoreKind::ScoreMargin);
        assert!((s[0] - 0.85).abs() < 1e-6);
        assert!((s[1] - 0.05).abs() < 1e-6);
    }

    #[test]
    fn entropy_score_ranks_confident_higher() {
        let s = confidence_scores(&probs(), ScoreKind::Entropy);
        assert!(
            s[0] > s[1],
            "confident row must have higher (less negative) score"
        );
    }

    #[test]
    fn all_baselines_rank_confident_above_uncertain() {
        for kind in ScoreKind::baselines() {
            let s = confidence_scores(&probs(), kind);
            assert!(
                s[0] > s[1],
                "{kind} failed to rank the confident row higher"
            );
        }
    }

    #[test]
    fn uniform_distribution_scores_lowest() {
        let uniform = Tensor::from_vec(vec![0.25; 4], &[1, 4]).unwrap();
        let peaked = Tensor::from_vec(vec![0.97, 0.01, 0.01, 0.01], &[1, 4]).unwrap();
        for kind in ScoreKind::baselines() {
            let u = confidence_scores(&uniform, kind)[0];
            let p = confidence_scores(&peaked, kind)[0];
            assert!(p > u, "{kind}: peaked {p} should beat uniform {u}");
        }
    }

    #[test]
    #[should_panic(expected = "predictor head")]
    fn appealnet_q_cannot_be_derived_from_probabilities() {
        let _ = confidence_scores(&probs(), ScoreKind::AppealNetQ);
    }

    #[test]
    fn names_and_ordering() {
        assert_eq!(ScoreKind::all()[0], ScoreKind::AppealNetQ);
        assert_eq!(ScoreKind::Msp.to_string(), "MSP");
        assert_eq!(ScoreKind::ScoreMargin.name(), "SM");
        assert!(ScoreKind::Msp.is_confidence_baseline());
        assert!(!ScoreKind::AppealNetQ.is_confidence_baseline());
    }

    #[test]
    fn single_class_edge_case() {
        let p = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        for kind in ScoreKind::baselines() {
            let s = confidence_scores(&p, kind);
            assert!(s[0].is_finite());
        }
    }
}
