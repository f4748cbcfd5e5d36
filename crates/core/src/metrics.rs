//! Evaluation metrics of the edge/cloud collaborative system
//! (the paper's Eq. 11 — Eq. 15).

/// Metrics of the collaborative system at a particular routing threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedMetrics {
    /// Skipping rate SR (Eq. 11): fraction of inputs handled on the edge.
    pub skipping_rate: f64,
    /// Appealing rate AR (Eq. 12): fraction of inputs offloaded to the cloud.
    pub appealing_rate: f64,
    /// Overall accuracy of the collaborative system (Eq. 13).
    pub overall_accuracy: f64,
    /// Stand-alone accuracy of the little network on the same evaluation set.
    pub little_accuracy: f64,
    /// Stand-alone accuracy of the big network on the same evaluation set.
    pub big_accuracy: f64,
    /// Expected per-input computational cost in FLOPs (Eq. 15).
    pub overall_flops: f64,
    /// The threshold δ that produced this routing.
    pub threshold: f64,
}

impl RoutedMetrics {
    /// Relative accuracy improvement AccI (Eq. 14): how much of the
    /// little-to-big accuracy gap the collaborative system recovers.
    ///
    /// Returns `None` when the big and little networks have identical
    /// accuracy (the denominator of Eq. 14 vanishes).
    pub fn accuracy_improvement(&self) -> Option<f64> {
        let gap = self.big_accuracy - self.little_accuracy;
        if gap.abs() < 1e-9 {
            None
        } else {
            Some((self.overall_accuracy - self.little_accuracy) / gap)
        }
    }

    /// Overall cost in MFLOPs (the unit of the paper's Table I).
    pub fn overall_mflops(&self) -> f64 {
        self.overall_flops / 1e6
    }
}

/// Computes Eq. 11 — Eq. 15 from per-sample routing decisions.
///
/// `keep_on_edge[i]` is the predictor decision (`q(1|x_i) ≥ δ`),
/// `little_correct[i]` / `big_correct[i]` record whether each network
/// classifies sample `i` correctly, and `little_flops` / `big_flops` are the
/// per-inference costs `cost(f1, q)` and `cost(f0, q)` of Eq. 5.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn routed_metrics(
    keep_on_edge: &[bool],
    little_correct: &[bool],
    big_correct: &[bool],
    little_flops: u64,
    big_flops: u64,
    threshold: f64,
) -> RoutedMetrics {
    let n = keep_on_edge.len();
    assert!(n > 0, "cannot compute metrics over an empty evaluation set");
    assert_eq!(little_correct.len(), n, "little_correct length mismatch");
    assert_eq!(big_correct.len(), n, "big_correct length mismatch");

    let kept = keep_on_edge.iter().filter(|&&k| k).count();
    let sr = kept as f64 / n as f64;
    let correct = keep_on_edge
        .iter()
        .zip(little_correct.iter().zip(big_correct.iter()))
        .filter(|(&k, (&lc, &bc))| if k { lc } else { bc })
        .count();
    let little_acc = little_correct.iter().filter(|&&c| c).count() as f64 / n as f64;
    let big_acc = big_correct.iter().filter(|&&c| c).count() as f64 / n as f64;
    // Eq. 15: SR·cost(f1,q) + (1 − SR)·cost(f0,q), where the offload cost
    // includes having already run the little network on the edge.
    let overall_flops = sr * little_flops as f64 + (1.0 - sr) * (little_flops + big_flops) as f64;
    RoutedMetrics {
        skipping_rate: sr,
        appealing_rate: 1.0 - sr,
        overall_accuracy: correct as f64 / n as f64,
        little_accuracy: little_acc,
        big_accuracy: big_acc,
        overall_flops,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_edge_routing_matches_little_accuracy() {
        let keep = vec![true; 4];
        let little = vec![true, false, true, true];
        let big = vec![true, true, true, true];
        let m = routed_metrics(&keep, &little, &big, 100, 1000, 0.5);
        assert_eq!(m.skipping_rate, 1.0);
        assert_eq!(m.appealing_rate, 0.0);
        assert_eq!(m.overall_accuracy, 0.75);
        assert_eq!(m.overall_flops, 100.0);
    }

    #[test]
    fn all_cloud_routing_matches_big_accuracy_and_cost() {
        let keep = vec![false; 4];
        let little = vec![false, false, false, false];
        let big = vec![true, true, false, true];
        let m = routed_metrics(&keep, &little, &big, 100, 1000, 0.9);
        assert_eq!(m.skipping_rate, 0.0);
        assert_eq!(m.overall_accuracy, 0.75);
        // Offloaded inputs still paid for the little network on the edge.
        assert_eq!(m.overall_flops, 1100.0);
    }

    #[test]
    fn mixed_routing_uses_the_right_model_per_sample() {
        // Sample 0 kept (little wrong), sample 1 offloaded (big right).
        let keep = vec![true, false];
        let little = vec![false, false];
        let big = vec![false, true];
        let m = routed_metrics(&keep, &little, &big, 10, 100, 0.5);
        assert_eq!(m.overall_accuracy, 0.5);
        assert_eq!(m.skipping_rate, 0.5);
        assert_eq!(m.overall_flops, 0.5 * 10.0 + 0.5 * 110.0);
    }

    #[test]
    fn acci_recovers_fraction_of_gap() {
        let m = RoutedMetrics {
            skipping_rate: 0.9,
            appealing_rate: 0.1,
            overall_accuracy: 0.95,
            little_accuracy: 0.90,
            big_accuracy: 1.00,
            overall_flops: 0.0,
            threshold: 0.5,
        };
        assert!((m.accuracy_improvement().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn acci_can_exceed_one_when_system_beats_big_model() {
        // The paper observes "accuracy boosting": the collaborative system can
        // beat the stand-alone big network.
        let m = RoutedMetrics {
            skipping_rate: 0.9,
            appealing_rate: 0.1,
            overall_accuracy: 0.99,
            little_accuracy: 0.90,
            big_accuracy: 0.95,
            overall_flops: 0.0,
            threshold: 0.5,
        };
        assert!(m.accuracy_improvement().unwrap() > 1.0);
    }

    #[test]
    fn acci_none_when_gap_vanishes() {
        let m = RoutedMetrics {
            skipping_rate: 1.0,
            appealing_rate: 0.0,
            overall_accuracy: 0.9,
            little_accuracy: 0.9,
            big_accuracy: 0.9,
            overall_flops: 0.0,
            threshold: 0.5,
        };
        assert!(m.accuracy_improvement().is_none());
    }

    #[test]
    fn mflops_conversion() {
        let m = RoutedMetrics {
            skipping_rate: 1.0,
            appealing_rate: 0.0,
            overall_accuracy: 1.0,
            little_accuracy: 1.0,
            big_accuracy: 1.0,
            overall_flops: 2_500_000.0,
            threshold: 0.5,
        };
        assert!((m.overall_mflops() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sr_plus_ar_is_one() {
        let keep = vec![true, false, true];
        let ok = vec![true, true, true];
        let m = routed_metrics(&keep, &ok, &ok, 1, 2, 0.3);
        assert!((m.skipping_rate + m.appealing_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty evaluation set")]
    fn rejects_empty_input() {
        let _ = routed_metrics(&[], &[], &[], 1, 2, 0.5);
    }

    /// Hand-computed 4-sample fixture exercising Eq. 11 — Eq. 15 end to end,
    /// including the δ-threshold boundary of Eq. 1 (`q(1|x) ≥ δ` stays on the
    /// edge, so a score exactly equal to δ is *not* offloaded).
    mod hand_computed_fixture {
        use super::super::*;
        use crate::artifacts::EvaluationArtifacts;
        use crate::scores::ScoreKind;

        /// scores [0.9, 0.6, 0.4, 0.1], little correct on samples {0, 3},
        /// big correct on samples {0, 1, 2}; little costs 100, big 1000.
        fn fixture() -> EvaluationArtifacts {
            EvaluationArtifacts {
                scores: vec![0.9, 0.6, 0.4, 0.1],
                little_correct: vec![true, false, false, true],
                big_correct: vec![true, true, true, false],
                hard_flags: vec![false, false, true, true],
                little_flops: 100,
                big_flops: 1000,
                score_kind: ScoreKind::AppealNetQ,
            }
        }

        #[test]
        fn eq1_score_equal_to_delta_stays_on_edge() {
            // δ = 0.6: samples 0 (0.9) and 1 (0.6, the boundary) stay on the
            // edge; samples 2 and 3 are appealed.
            let m = fixture().at_threshold(0.6).unwrap();
            // Eq. 11: SR = 2/4.
            assert_eq!(m.skipping_rate, 0.5);
            // Eq. 12: AR = 1 − SR = 2/4.
            assert_eq!(m.appealing_rate, 0.5);
            // Eq. 13: kept {0: little right, 1: little wrong},
            //         appealed {2: big right, 3: big wrong} → 2/4.
            assert_eq!(m.overall_accuracy, 0.5);
            // Eq. 15: 0.5·100 + 0.5·(100 + 1000) = 600 FLOPs per input.
            assert_eq!(m.overall_flops, 600.0);
            // Eq. 14: overall equals little accuracy → AccI = 0.
            assert_eq!(m.little_accuracy, 0.5);
            assert_eq!(m.big_accuracy, 0.75);
            assert_eq!(m.accuracy_improvement(), Some(0.0));
        }

        #[test]
        fn eq1_delta_zero_keeps_all_scores_on_edge() {
            // Every score is ≥ 0, so δ = 0 keeps all four on the edge.
            let m = fixture().at_threshold(0.0).unwrap();
            assert_eq!(m.skipping_rate, 1.0);
            assert_eq!(m.overall_accuracy, 0.5); // little accuracy
            assert_eq!(m.overall_flops, 100.0); // Eq. 15 collapses to cost(f1)
        }

        #[test]
        fn eq1_delta_above_max_appeals_everything() {
            let m = fixture()
                .at_threshold(0.9 + f32::EPSILON as f64 * 2.0)
                .unwrap();
            assert_eq!(m.skipping_rate, 0.0);
            assert_eq!(m.overall_accuracy, 0.75); // big accuracy
            assert_eq!(m.overall_flops, 1100.0); // edge + cloud on every input
                                                 // Eq. 14: full gap recovered.
            assert_eq!(m.accuracy_improvement(), Some(1.0));
        }

        #[test]
        fn eq14_partial_gap_recovery() {
            // δ = 0.5 keeps {0, 1} on the edge (same routing as δ = 0.6 — no
            // score lies in (0.5, 0.6)), but verify AccI via routed_metrics
            // with a routing that recovers half the gap: keep {0, 1, 3}.
            let keep = vec![true, true, false, true];
            let m = routed_metrics(
                &keep,
                &[true, false, false, true],
                &[true, true, true, false],
                100,
                1000,
                0.2,
            );
            // kept: 0 right, 1 wrong, 3 right; appealed: 2 big right → 3/4.
            assert_eq!(m.overall_accuracy, 0.75);
            // AccI = (0.75 − 0.5) / (0.75 − 0.5) = 1.0.
            assert_eq!(m.accuracy_improvement(), Some(1.0));
            // Eq. 15 with SR = 3/4: 0.75·100 + 0.25·1100 = 350.
            assert_eq!(m.skipping_rate, 0.75);
            assert_eq!(m.overall_flops, 350.0);
        }

        #[test]
        fn eq11_eq12_sum_to_one_on_fixture() {
            for delta in [0.0, 0.1, 0.4, 0.6, 0.9, 1.0] {
                let m = fixture().at_threshold(delta).unwrap();
                assert!((m.skipping_rate + m.appealing_rate - 1.0).abs() < 1e-12);
            }
        }
    }
}
