//! Energy report: translates the Table I operating points into Joules using
//! the `appeal-hw` system model, backing the paper's headline claim of
//! "up to more than 40% energy savings ... without sacrificing accuracy".

use crate::experiments::table1::ACCI_TARGETS;
use crate::experiments::PreparedExperiment;
use crate::scores::ScoreKind;
use crate::tuning::min_cost_for_acci;
use appeal_hw::SystemModel;

/// Energy comparison at one AccI target.
#[derive(Debug, Clone, Copy)]
pub struct EnergyEntry {
    /// Relative accuracy-improvement target.
    pub acci_target: f64,
    /// Expected per-input energy with the score-margin baseline, in millijoules.
    pub sm_energy_mj: Option<f64>,
    /// Expected per-input energy with AppealNet, in millijoules.
    pub appealnet_energy_mj: Option<f64>,
    /// Expected per-input energy if every input were sent to the cloud.
    pub cloud_only_energy_mj: f64,
}

impl EnergyEntry {
    /// Relative energy saving of AppealNet over the baseline.
    pub fn relative_saving(&self) -> Option<f64> {
        match (self.sm_energy_mj, self.appealnet_energy_mj) {
            (Some(sm), Some(an)) if sm > 0.0 => Some((sm - an) / sm),
            _ => None,
        }
    }
}

/// Energy report for one dataset.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Dataset name (paper naming).
    pub dataset: String,
    /// Hardware configuration description.
    pub hardware: String,
    /// One entry per AccI target.
    pub entries: Vec<EnergyEntry>,
}

impl EnergyReport {
    /// Renders the report as text.
    pub fn render_text(&self) -> String {
        let mut out = format!("Energy report — {} on {}\n", self.dataset, self.hardware);
        for e in &self.entries {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4} mJ"),
                None => "unreached".to_string(),
            };
            out.push_str(&format!(
                "    AccI ≥ {:>4.1}%:  SM = {:>12}   AppealNet = {:>12}   cloud-only = {:.4} mJ   saving = {}\n",
                e.acci_target * 100.0,
                fmt(e.sm_energy_mj),
                fmt(e.appealnet_energy_mj),
                e.cloud_only_energy_mj,
                match e.relative_saving() {
                    Some(s) => format!("{:.2}%", s * 100.0),
                    None => "n/a".to_string(),
                }
            ));
        }
        out
    }
}

/// Computes the energy report for a prepared (white-box) experiment under a
/// given hardware model.
pub fn run(prepared: &PreparedExperiment, hardware: &SystemModel) -> EnergyReport {
    run_with_targets(prepared, hardware, &ACCI_TARGETS)
}

/// Computes the energy report with custom AccI targets.
pub fn run_with_targets(
    prepared: &PreparedExperiment,
    hardware: &SystemModel,
    targets: &[f64],
) -> EnergyReport {
    let sm = prepared.artifacts(ScoreKind::ScoreMargin);
    let appeal = prepared.artifacts(ScoreKind::AppealNetQ);
    let energy_at = |sr: f64| {
        hardware
            .expected_cost(
                sr,
                prepared.little_flops,
                prepared.big_flops,
                prepared.input_bytes,
            )
            .energy_mj
    };
    let cloud_only = hardware
        .cloud_only_cost(prepared.big_flops, prepared.input_bytes)
        .energy_mj;
    let entries = targets
        .iter()
        .map(|&target| EnergyEntry {
            acci_target: target,
            sm_energy_mj: min_cost_for_acci(sm, target)
                .expect("prepared artifacts are non-empty with finite scores")
                .map(|c| energy_at(c.metrics.skipping_rate)),
            appealnet_energy_mj: min_cost_for_acci(appeal, target)
                .expect("prepared artifacts are non-empty with finite scores")
                .map(|c| energy_at(c.metrics.skipping_rate)),
            cloud_only_energy_mj: cloud_only,
        })
        .collect();
    EnergyReport {
        dataset: prepared.preset.paper_name().to_string(),
        hardware: format!(
            "{} + {} via {}",
            hardware.edge.name, hardware.cloud.name, hardware.link.name
        ),
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
    fn energy_entry_saving() {
        let e = EnergyEntry {
            acci_target: 0.9,
            sm_energy_mj: Some(10.0),
            appealnet_energy_mj: Some(6.0),
            cloud_only_energy_mj: 20.0,
        };
        assert!((e.relative_saving().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn energy_report_smoke() {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 31);
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        let report = run(&prepared, &SystemModel::typical());
        assert_eq!(report.entries.len(), 4);
        for e in &report.entries {
            if let Some(v) = e.appealnet_energy_mj {
                assert!(v > 0.0);
                assert!(v <= e.cloud_only_energy_mj * 1.5);
            }
        }
        assert!(report.render_text().contains("mJ"));
    }
}
