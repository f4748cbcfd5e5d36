//! Figure 5: overall accuracy vs. skipping rate for MSP / SM / Entropy /
//! AppealNet, with the stand-alone big network as the reference line.

use crate::experiments::PreparedExperiment;
use crate::scores::ScoreKind;
use crate::sweep::{paper_sr_grid, sweep_methods, SweepResult};

/// The Figure 5 panel for one dataset.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Dataset name (paper naming).
    pub dataset: String,
    /// Little-network family (paper naming).
    pub family: String,
    /// The accuracy-vs-skipping-rate sweep for all four methods.
    pub sweep: SweepResult,
}

impl Fig5Result {
    /// Renders the panel as the text series the harness prints
    /// (one row per method, one column per skipping rate).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Fig. 5 — overall accuracy vs skipping rate on {} ({} little network)\n",
            self.dataset, self.family
        );
        out.push_str("  SR%:        ");
        for sr in &self.sweep.skipping_rates {
            out.push_str(&format!("{:>8.0}", sr * 100.0));
        }
        out.push('\n');
        for series in &self.sweep.series {
            out.push_str(&format!("  {:<12}", series.score.name()));
            for p in &series.points {
                out.push_str(&format!("{:>8.2}", p.overall_accuracy * 100.0));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  {:<12}{:>8.2} (stand-alone reference)\n",
            "Big net",
            self.sweep.big_accuracy * 100.0
        ));
        out.push_str(&format!(
            "  {:<12}{:>8.2} (stand-alone little)\n",
            "Little net",
            self.sweep.little_accuracy * 100.0
        ));
        out
    }

    /// Number of sweep points (out of the grid length) where AppealNet's
    /// accuracy is at least that of every baseline.
    pub fn appealnet_win_count(&self) -> usize {
        ScoreKind::baselines()
            .iter()
            .map(|&b| self.sweep.wins(ScoreKind::AppealNetQ, b))
            .min()
            .unwrap_or(0)
    }
}

/// Runs the Figure 5 sweep on a prepared experiment using the paper's
/// 70–100% skipping-rate grid.
pub fn run(prepared: &PreparedExperiment) -> Fig5Result {
    run_with_grid(prepared, &paper_sr_grid())
}

/// Runs the Figure 5 sweep with a custom skipping-rate grid.
pub fn run_with_grid(prepared: &PreparedExperiment, grid: &[f64]) -> Fig5Result {
    let methods: Vec<_> = ScoreKind::all()
        .iter()
        .map(|&k| (k, prepared.artifacts(k)))
        .collect();
    Fig5Result {
        dataset: prepared.preset.paper_name().to_string(),
        family: prepared.family.paper_name().to_string(),
        sweep: sweep_methods(&methods, grid)
            .expect("prepared artifacts are non-empty with finite scores"),
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
    fn fig5_smoke_runs_end_to_end() {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 3);
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        let result = run(&prepared);
        assert_eq!(result.sweep.series.len(), 4);
        assert_eq!(result.sweep.skipping_rates.len(), 7);
        let text = result.render_text();
        assert!(text.contains("AppealNet"));
        assert!(text.contains("MSP"));
        assert!(text.contains("CIFAR-10"));
        // Every accuracy must be a valid probability.
        for series in &result.sweep.series {
            for p in &series.points {
                assert!((0.0..=1.0).contains(&p.overall_accuracy));
            }
        }
        let _ = result.appealnet_win_count();
    }
}
