//! Table II: appealing rate of black-box (oracle cloud) AppealNet vs. the
//! score-margin baseline at target accuracy improvements, on CIFAR-10, for
//! the three efficient little-network families.

use crate::experiments::PreparedExperiment;
use crate::loss::CloudMode;
use crate::scores::ScoreKind;
use crate::tuning::min_cost_for_acci;

/// The AccI targets used by the paper's Table II.
pub const ACCI_TARGETS: [f64; 4] = [0.50, 0.75, 0.90, 0.95];

/// One (family, AccI target) cell of Table II.
#[derive(Debug, Clone, Copy)]
pub struct Table2Entry {
    /// Relative accuracy-improvement target.
    pub acci_target: f64,
    /// Minimum appealing rate reaching the target with the score-margin baseline.
    pub sm_appealing_rate: Option<f64>,
    /// Minimum appealing rate reaching the target with AppealNet.
    pub appealnet_appealing_rate: Option<f64>,
}

impl Table2Entry {
    /// Relative saving in appealing rate (`(SM − AppealNet) / SM`).
    pub fn relative_saving(&self) -> Option<f64> {
        match (self.sm_appealing_rate, self.appealnet_appealing_rate) {
            (Some(sm), Some(an)) if sm > 0.0 => Some((sm - an) / sm),
            _ => None,
        }
    }
}

/// One little-network-family row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Little-network family (paper naming).
    pub family: String,
    /// Stand-alone accuracy of the baseline little network.
    pub original_accuracy: f64,
    /// Accuracy of the AppealNet approximator head.
    pub appealnet_accuracy: f64,
    /// One entry per AccI target.
    pub entries: Vec<Table2Entry>,
}

impl Table2Row {
    /// Renders the row in the layout of the paper's Table II.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{:<14} original acc = {:.2}%   AppealNet acc = {:.2}%\n",
            self.family,
            self.original_accuracy * 100.0,
            self.appealnet_accuracy * 100.0,
        );
        for e in &self.entries {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{:.2}%", x * 100.0),
                None => "unreached".to_string(),
            };
            out.push_str(&format!(
                "    AccI ≥ {:>4.1}%:  AR(SM) = {:>9}   AR(AppealNet) = {:>9}   saving = {}\n",
                e.acci_target * 100.0,
                fmt(e.sm_appealing_rate),
                fmt(e.appealnet_appealing_rate),
                match e.relative_saving() {
                    Some(s) => format!("{:.2}%", s * 100.0),
                    None => "n/a".to_string(),
                }
            ));
        }
        out
    }
}

/// Computes the Table II row for a prepared black-box experiment.
///
/// # Panics
///
/// Panics if the experiment was prepared in white-box mode (Table II is the
/// black-box evaluation).
pub fn run(prepared: &PreparedExperiment) -> Table2Row {
    run_with_targets(prepared, &ACCI_TARGETS)
}

/// Computes a Table II row with custom AccI targets.
///
/// # Panics
///
/// Panics if the experiment was prepared in white-box mode.
pub fn run_with_targets(prepared: &PreparedExperiment, targets: &[f64]) -> Table2Row {
    assert_eq!(
        prepared.mode,
        CloudMode::BlackBox,
        "Table II is the black-box evaluation; prepare with CloudMode::BlackBox"
    );
    let sm = prepared.artifacts(ScoreKind::ScoreMargin);
    let appeal = prepared.artifacts(ScoreKind::AppealNetQ);
    let entries = targets
        .iter()
        .map(|&target| Table2Entry {
            acci_target: target,
            sm_appealing_rate: min_cost_for_acci(sm, target)
                .expect("prepared artifacts are non-empty with finite scores")
                .map(|c| c.metrics.appealing_rate),
            appealnet_appealing_rate: min_cost_for_acci(appeal, target)
                .expect("prepared artifacts are non-empty with finite scores")
                .map(|c| c.metrics.appealing_rate),
        })
        .collect();
    Table2Row {
        family: prepared.family.paper_name().to_string(),
        original_accuracy: prepared.little_accuracy,
        appealnet_accuracy: prepared.appealnet_accuracy,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentContext;
    use appeal_dataset::{DatasetPreset, Fidelity};
    use appeal_models::ModelFamily;

    #[test]
    fn entry_saving() {
        let e = Table2Entry {
            acci_target: 0.5,
            sm_appealing_rate: Some(0.2),
            appealnet_appealing_rate: Some(0.1),
        };
        assert!((e.relative_saving().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table2_smoke_row() {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 21);
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::EfficientNetLike,
            CloudMode::BlackBox,
            &ctx,
        );
        let row = run(&prepared);
        assert_eq!(row.entries.len(), 4);
        let text = row.render_text();
        assert!(text.contains("EfficientNet"));
        // In black-box mode the oracle is always right, so every target is
        // reachable by appealing everything (AR = 1).
        for e in &row.entries {
            assert!(e.appealnet_appealing_rate.is_some());
            assert!(e.sm_appealing_rate.is_some());
        }
        // Higher targets require appealing at least as much.
        let ars: Vec<f64> = row
            .entries
            .iter()
            .map(|e| e.appealnet_appealing_rate.unwrap())
            .collect();
        for w in ars.windows(2) {
            assert!(w[1] + 1e-9 >= w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "black-box evaluation")]
    fn rejects_whitebox_experiment() {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 22);
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        let _ = run(&prepared);
    }
}
