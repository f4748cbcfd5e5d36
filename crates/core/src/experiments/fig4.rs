//! Figure 4: score histograms for inputs the little network classifies
//! correctly vs. incorrectly, comparing the MSP baseline with AppealNet's
//! `q(z|x)` score.
//!
//! The paper's point is visual: AppealNet's score separates the two
//! populations cleanly while MSP overlaps heavily. To make the comparison
//! quantitative (and testable) this module also reports the area under the
//! ROC curve (AUROC) of "score predicts little-network correctness".

use crate::artifacts::EvaluationArtifacts;
use crate::experiments::PreparedExperiment;
use crate::scores::ScoreKind;

/// Histogram of one score, split by little-network correctness.
#[derive(Debug, Clone)]
pub struct ScoreHistogram {
    /// The score being histogrammed.
    pub kind: ScoreKind,
    /// Bin edges (length `bins + 1`), spanning the observed score range.
    pub bin_edges: Vec<f64>,
    /// Number of correctly classified inputs per bin.
    pub correct_counts: Vec<usize>,
    /// Number of misclassified inputs per bin.
    pub incorrect_counts: Vec<usize>,
    /// AUROC of "higher score ⇒ little network is correct".
    pub auroc: f64,
}

/// The full Figure 4 result: one histogram per compared score.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Dataset the histograms were computed on.
    pub dataset: String,
    /// Little-network family.
    pub family: String,
    /// Histograms, AppealNet first.
    pub histograms: Vec<ScoreHistogram>,
}

impl Fig4Result {
    /// The histogram for a given score kind, if present.
    pub fn histogram(&self, kind: ScoreKind) -> Option<&ScoreHistogram> {
        self.histograms.iter().find(|h| h.kind == kind)
    }

    /// Renders the result as the text the benchmark harness prints.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Fig. 4 — score separation on {} ({} little network)\n",
            self.dataset, self.family
        );
        for h in &self.histograms {
            out.push_str(&format!(
                "  {:<10} AUROC(correct vs incorrect) = {:.4}\n",
                h.kind.name(),
                h.auroc
            ));
            out.push_str(&format!("  {:<10} correct:   {:?}\n", "", h.correct_counts));
            out.push_str(&format!(
                "  {:<10} incorrect: {:?}\n",
                "", h.incorrect_counts
            ));
        }
        out
    }
}

/// Area under the ROC curve of `scores` predicting `positive` (rank-based,
/// ties handled by midranks).
///
/// Returns 0.5 when either class is empty.
pub fn auroc(scores: &[f32], positive: &[bool]) -> f64 {
    assert_eq!(scores.len(), positive.len(), "length mismatch");
    let n_pos = positive.iter().filter(|&&p| p).count();
    let n_neg = positive.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank the scores (average ranks for ties).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .expect("scores must not be NaN")
    });
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(positive.iter())
        .filter(|(_, &p)| p)
        .map(|(&r, _)| r)
        .sum();
    (rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// Builds a histogram of `artifacts.scores` split by little-network correctness.
///
/// # Panics
///
/// Panics if `bins == 0` or the artifacts are empty.
pub fn score_histogram(artifacts: &EvaluationArtifacts, bins: usize) -> ScoreHistogram {
    assert!(bins > 0, "bins must be positive");
    assert!(!artifacts.is_empty(), "no artifacts");
    let min = artifacts
        .scores
        .iter()
        .copied()
        .fold(f32::INFINITY, f32::min) as f64;
    let max = artifacts
        .scores
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max) as f64;
    let span = (max - min).max(1e-9);
    let bin_edges: Vec<f64> = (0..=bins)
        .map(|i| min + span * i as f64 / bins as f64)
        .collect();
    let mut correct_counts = vec![0usize; bins];
    let mut incorrect_counts = vec![0usize; bins];
    for (&s, &c) in artifacts.scores.iter().zip(artifacts.little_correct.iter()) {
        let mut bin = (((s as f64 - min) / span) * bins as f64).floor() as usize;
        if bin >= bins {
            bin = bins - 1;
        }
        if c {
            correct_counts[bin] += 1;
        } else {
            incorrect_counts[bin] += 1;
        }
    }
    ScoreHistogram {
        kind: artifacts.score_kind,
        bin_edges,
        correct_counts,
        incorrect_counts,
        auroc: auroc(&artifacts.scores, &artifacts.little_correct),
    }
}

/// Runs the Figure 4 experiment on a prepared system, comparing AppealNet's
/// score with the MSP baseline (the two panels of the figure).
pub fn run(prepared: &PreparedExperiment, bins: usize) -> Fig4Result {
    let histograms = vec![
        score_histogram(prepared.artifacts(ScoreKind::AppealNetQ), bins),
        score_histogram(prepared.artifacts(ScoreKind::Msp), bins),
    ];
    Fig4Result {
        dataset: prepared.preset.paper_name().to_string(),
        family: prepared.family.paper_name().to_string(),
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auroc_perfect_separation() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let correct = vec![true, true, false, false];
        assert!((auroc(&scores, &correct) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auroc_inverted_separation() {
        let scores = vec![0.1, 0.2, 0.8, 0.9];
        let correct = vec![true, true, false, false];
        assert!(auroc(&scores, &correct) < 0.01);
    }

    #[test]
    fn auroc_random_is_half() {
        let scores = vec![0.5; 10];
        let correct: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        assert!((auroc(&scores, &correct) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn auroc_degenerate_classes() {
        assert_eq!(auroc(&[0.1, 0.2], &[true, true]), 0.5);
        assert_eq!(auroc(&[0.1, 0.2], &[false, false]), 0.5);
    }

    #[test]
    fn histogram_counts_every_sample_once() {
        let artifacts = EvaluationArtifacts {
            scores: vec![0.1, 0.2, 0.5, 0.9, 0.95],
            little_correct: vec![false, false, true, true, true],
            big_correct: vec![true; 5],
            hard_flags: vec![false; 5],
            little_flops: 1,
            big_flops: 2,
            score_kind: ScoreKind::AppealNetQ,
        };
        let h = score_histogram(&artifacts, 4);
        let total: usize =
            h.correct_counts.iter().sum::<usize>() + h.incorrect_counts.iter().sum::<usize>();
        assert_eq!(total, 5);
        assert_eq!(h.bin_edges.len(), 5);
        assert!(h.auroc > 0.9);
    }

    #[test]
    fn constant_scores_do_not_panic() {
        let artifacts = EvaluationArtifacts {
            scores: vec![0.5; 4],
            little_correct: vec![true, false, true, false],
            big_correct: vec![true; 4],
            hard_flags: vec![false; 4],
            little_flops: 1,
            big_flops: 2,
            score_kind: ScoreKind::Msp,
        };
        let h = score_histogram(&artifacts, 3);
        assert_eq!(
            h.correct_counts.iter().sum::<usize>() + h.incorrect_counts.iter().sum::<usize>(),
            4
        );
    }
}
