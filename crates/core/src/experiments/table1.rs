//! Table I: overall computational cost (MFLOPs) of the edge/cloud system at
//! target relative accuracy improvements, score-margin baseline vs AppealNet.

use crate::experiments::PreparedExperiment;
use crate::scores::ScoreKind;
use crate::tuning::min_cost_for_acci;

/// The AccI targets used by the paper (50%, 75%, 90%, 95%).
pub const ACCI_TARGETS: [f64; 4] = [0.50, 0.75, 0.90, 0.95];

/// One (dataset, AccI target) cell of Table I.
#[derive(Debug, Clone, Copy)]
pub struct Table1Entry {
    /// Relative accuracy-improvement target (Eq. 14).
    pub acci_target: f64,
    /// Minimum system cost achieving the target with the score-margin baseline.
    pub sm_cost_mflops: Option<f64>,
    /// Minimum system cost achieving the target with AppealNet.
    pub appealnet_cost_mflops: Option<f64>,
    /// Skipping rate of the baseline operating point.
    pub sm_skipping_rate: Option<f64>,
    /// Skipping rate of the AppealNet operating point.
    pub appealnet_skipping_rate: Option<f64>,
}

impl Table1Entry {
    /// Relative cost saving of AppealNet over the baseline
    /// (`(SM − AppealNet) / SM`), when both reached the target.
    pub fn relative_saving(&self) -> Option<f64> {
        match (self.sm_cost_mflops, self.appealnet_cost_mflops) {
            (Some(sm), Some(an)) if sm > 0.0 => Some((sm - an) / sm),
            _ => None,
        }
    }
}

/// One dataset row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset name (paper naming).
    pub dataset: String,
    /// Big / little / AppealNet stand-alone accuracies (the left part of the table).
    pub big_accuracy: f64,
    /// Stand-alone little-network accuracy.
    pub little_accuracy: f64,
    /// AppealNet approximator-head accuracy.
    pub appealnet_accuracy: f64,
    /// Per-inference cost of the big network in MFLOPs.
    pub big_mflops: f64,
    /// Per-inference cost of the little network in MFLOPs.
    pub little_mflops: f64,
    /// One entry per AccI target.
    pub entries: Vec<Table1Entry>,
}

impl Table1Row {
    /// Renders the row in the same layout as the paper's Table I.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{:<14} acc(big/little/appeal) = {:.2}/{:.2}/{:.2}%  cost(big/little) = {:.3}/{:.3} MFLOPs\n",
            self.dataset,
            self.big_accuracy * 100.0,
            self.little_accuracy * 100.0,
            self.appealnet_accuracy * 100.0,
            self.big_mflops,
            self.little_mflops,
        );
        for e in &self.entries {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.3}"),
                None => "unreached".to_string(),
            };
            out.push_str(&format!(
                "    AccI ≥ {:>4.1}%:  SM = {:>10} MFLOPs   AppealNet = {:>10} MFLOPs   saving = {}\n",
                e.acci_target * 100.0,
                fmt(e.sm_cost_mflops),
                fmt(e.appealnet_cost_mflops),
                match e.relative_saving() {
                    Some(s) => format!("{:.2}%", s * 100.0),
                    None => "n/a".to_string(),
                }
            ));
        }
        out
    }
}

/// Computes the Table I row for one prepared (white-box) experiment.
pub fn run(prepared: &PreparedExperiment) -> Table1Row {
    run_with_targets(prepared, &ACCI_TARGETS)
}

/// Computes a Table I row with custom AccI targets.
pub fn run_with_targets(prepared: &PreparedExperiment, targets: &[f64]) -> Table1Row {
    let sm = prepared.artifacts(ScoreKind::ScoreMargin);
    let appeal = prepared.artifacts(ScoreKind::AppealNetQ);
    let entries = targets
        .iter()
        .map(|&target| {
            let sm_choice = min_cost_for_acci(sm, target)
                .expect("prepared artifacts are non-empty with finite scores");
            let appeal_choice = min_cost_for_acci(appeal, target)
                .expect("prepared artifacts are non-empty with finite scores");
            Table1Entry {
                acci_target: target,
                sm_cost_mflops: sm_choice.map(|c| c.metrics.overall_mflops()),
                appealnet_cost_mflops: appeal_choice.map(|c| c.metrics.overall_mflops()),
                sm_skipping_rate: sm_choice.map(|c| c.metrics.skipping_rate),
                appealnet_skipping_rate: appeal_choice.map(|c| c.metrics.skipping_rate),
            }
        })
        .collect();
    Table1Row {
        dataset: prepared.preset.paper_name().to_string(),
        big_accuracy: prepared.big_accuracy,
        little_accuracy: prepared.little_accuracy,
        appealnet_accuracy: prepared.appealnet_accuracy,
        big_mflops: prepared.big_flops as f64 / 1e6,
        little_mflops: prepared.little_flops as f64 / 1e6,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentContext;
    use crate::loss::CloudMode;
    use appeal_dataset::{DatasetPreset, Fidelity};
    use appeal_models::ModelFamily;

    #[test]
    fn entry_saving_computation() {
        let e = Table1Entry {
            acci_target: 0.5,
            sm_cost_mflops: Some(2.0),
            appealnet_cost_mflops: Some(1.0),
            sm_skipping_rate: Some(0.8),
            appealnet_skipping_rate: Some(0.9),
        };
        assert!((e.relative_saving().unwrap() - 0.5).abs() < 1e-12);
        let unreached = Table1Entry {
            acci_target: 0.95,
            sm_cost_mflops: None,
            appealnet_cost_mflops: Some(1.0),
            sm_skipping_rate: None,
            appealnet_skipping_rate: Some(0.9),
        };
        assert!(unreached.relative_saving().is_none());
    }

    #[test]
    fn table1_smoke_row_has_all_targets() {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 11);
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        let row = run(&prepared);
        assert_eq!(row.entries.len(), 4);
        assert!(row.big_mflops > row.little_mflops);
        let text = row.render_text();
        assert!(text.contains("CIFAR-10"));
        assert!(text.contains("AccI"));
        // Costs, when reached, are bounded by the all-cloud cost.
        let all_cloud = row.big_mflops + row.little_mflops;
        for e in &row.entries {
            if let Some(c) = e.appealnet_cost_mflops {
                assert!(c <= all_cloud + 1e-9);
                assert!(c >= row.little_mflops - 1e-9);
            }
        }
    }
}
