//! Regenerates the paper's figures and tables, one report file per section.
//!
//! ```text
//! cargo run --release -p appeal-bench --bin paper_suite               # the paper's evaluation
//! cargo run --release -p appeal-bench --bin paper_suite -- table1     # one section
//! APPEALNET_FIDELITY=smoke cargo run --release -p appeal-bench --bin paper_suite
//! ```
//!
//! With no argument every figure and table of the paper is regenerated in
//! one pass (`fig4 fig5 table1 energy table2`), sharing the trained white-box
//! systems between Fig. 5, Table I and the energy report so each dataset's
//! models are trained exactly once. Named sections run alone (several may be
//! named); the two ablations run only when named.

use appeal_bench::{elapsed_secs, harness_context, write_report};
use appeal_dataset::DatasetPreset;
use appeal_hw::SystemModel;
use appeal_models::ModelFamily;
use appealnet_core::experiments::{
    ablations, energy, fig4, fig5, table1, table2, ExperimentContext, PreparedExperiment,
};
use appealnet_core::loss::CloudMode;
use appealnet_core::scores::ScoreKind;
use std::time::Instant;

/// Section names, in the order a full run executes them.
const PAPER_SECTIONS: [&str; 5] = ["fig5", "table1", "energy", "fig4", "table2"];
const ABLATIONS: [&str; 2] = ["ablation-beta", "ablation-joint"];

fn main() {
    let mut wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|s| !PAPER_SECTIONS.contains(&s.as_str()) && !ABLATIONS.contains(&s.as_str()))
    {
        eprintln!(
            "unknown section `{unknown}`; usage: paper_suite [{}|{}]...",
            PAPER_SECTIONS.join("|"),
            ABLATIONS.join("|")
        );
        std::process::exit(2);
    }
    if wanted.is_empty() {
        wanted = PAPER_SECTIONS.map(String::from).to_vec();
    }
    let wants = |section: &str| wanted.iter().any(|s| s == section);
    let ctx = harness_context();
    let start = Instant::now();
    eprintln!("[paper_suite] fidelity = {}", ctx.fidelity);

    if wants("fig5") || wants("table1") || wants("energy") {
        whitebox_sections(&ctx, &wants, start);
    }
    if wants("fig4") {
        // EfficientNet little network on CIFAR-10 (white-box), as in the paper.
        progress(start, "preparing Fig. 4 (EfficientNet, CIFAR-10) ...");
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::EfficientNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        write_report("fig4_histogram", &fig4::run(&prepared, 10).render_text());
    }
    if wants("table2") {
        // Black-box (oracle cloud) on CIFAR-10 for all three families.
        let mut text =
            String::from("Table II — appealing rate of black-box AppealNet on CIFAR-10\n\n");
        for family in ModelFamily::little_families() {
            progress(start, &format!("preparing black-box {} ...", family.name()));
            let prepared = PreparedExperiment::prepare(
                DatasetPreset::Cifar10Like,
                family,
                CloudMode::BlackBox,
                &ctx,
            );
            text.push_str(&table2::run(&prepared).render_text());
            text.push('\n');
        }
        write_report("table2_blackbox", &text);
    }
    if wants("ablation-beta") {
        ablation_beta(&ctx);
    }
    if wants("ablation-joint") {
        ablation_joint(&ctx);
    }
    progress(start, "done");
}

fn progress(start: Instant, message: &str) {
    eprintln!("[paper_suite] {message} ({})", elapsed_secs(start));
}

/// Fig. 5, Table I and the energy report: MobileNet little + ResNet-like big
/// on all four datasets, each system trained once for whichever of the three
/// is wanted.
fn whitebox_sections(ctx: &ExperimentContext, wants: &dyn Fn(&str) -> bool, start: Instant) {
    let mut fig5_text = String::new();
    let mut table1_text =
        String::from("Table I — overall computational cost under accuracy-improvement targets\n\n");
    let mut energy_text = String::from("Energy report — derived from Table I operating points\n\n");
    let hardware = SystemModel::typical();

    for preset in DatasetPreset::all() {
        progress(start, &format!("preparing white-box {} ...", preset.name()));
        let prepared = PreparedExperiment::prepare(
            preset,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            ctx,
        );
        progress(
            start,
            &format!(
                "  little={:.2}% appeal={:.2}% big={:.2}%",
                prepared.little_accuracy * 100.0,
                prepared.appealnet_accuracy * 100.0,
                prepared.big_accuracy * 100.0
            ),
        );
        fig5_text.push_str(&fig5::run(&prepared).render_text());
        fig5_text.push('\n');
        table1_text.push_str(&table1::run(&prepared).render_text());
        table1_text.push('\n');
        energy_text.push_str(&energy::run(&prepared, &hardware).render_text());
        energy_text.push('\n');

        // The paper's Fig. 4 uses an EfficientNet little network, prepared
        // separately; a run that has both also records the MobileNet
        // histogram for completeness.
        if preset == DatasetPreset::Cifar10Like && wants("fig4") {
            let result = fig4::run(&prepared, 10);
            write_report("fig4_cifar10_mobilenet", &result.render_text());
        }
    }
    for (section, report, text) in [
        ("fig5", "fig5_accuracy_vs_sr", fig5_text),
        ("table1", "table1_cost", table1_text),
        ("energy", "energy_savings", energy_text),
    ] {
        if wants(section) {
            write_report(report, &text);
        }
    }
}

/// β ablation: how the trade-off weight of the joint objective (Eq. 9/10)
/// moves the predictor's operating point. Black-box mode, so no big-network
/// training is needed per β value.
fn ablation_beta(ctx: &ExperimentContext) {
    let preset = DatasetPreset::Cifar10Like;
    let pair = preset.spec(ctx.fidelity).generate();
    let rows: Vec<_> = [0.02f32, 0.05, 0.15, 0.5, 1.0]
        .into_iter()
        .map(|beta| {
            let prepared = PreparedExperiment::prepare_with_data(
                preset,
                &pair,
                ModelFamily::MobileNetLike,
                CloudMode::BlackBox,
                &ctx.with_beta(beta),
            );
            let art = prepared.artifacts(ScoreKind::AppealNetQ);
            ablations::BetaAblationRow {
                beta,
                appealnet_accuracy: prepared.appealnet_accuracy,
                mean_q: art.scores.iter().map(|&s| s as f64).sum::<f64>() / art.len() as f64,
                accuracy_at_sr90: art
                    .at_skipping_rate(0.9)
                    .expect("prepared artifacts are non-empty with finite scores")
                    .overall_accuracy,
                q_auroc: fig4::auroc(&art.scores, &art.little_correct),
            }
        })
        .collect();
    let text = format!(
        "Beta ablation (black-box, CIFAR-10-like, MobileNet-like little network)\n\n{}",
        ablations::render_beta_table(&rows)
    );
    write_report("ablation_beta", &text);
}

/// Jointly trained predictor head vs. a post-hoc predictor trained on the
/// frozen little network — the central architectural claim of the paper.
fn ablation_joint(ctx: &ExperimentContext) {
    let preset = DatasetPreset::Cifar10Like;
    let pair = preset.spec(ctx.fidelity).generate();
    let mut prepared = PreparedExperiment::prepare_with_data(
        preset,
        &pair,
        ModelFamily::MobileNetLike,
        CloudMode::WhiteBox,
        ctx,
    );
    let result = ablations::joint_vs_posthoc(&mut prepared, &pair, ctx);
    let text = format!(
        "Joint training vs post-hoc predictor (CIFAR-10-like, MobileNet-like little network)\n\n{}",
        result.render_text()
    );
    write_report("ablation_joint", &text);
}
