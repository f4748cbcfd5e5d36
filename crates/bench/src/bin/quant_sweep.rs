//! Accuracy-vs-skipping-rate curves for the f32 and quantized (Q8_0) little
//! network at matched thresholds δ.
//!
//! Trains one AppealNet experiment, quantizes a clone of the two-head little
//! network (dynamic and calibrated activation scales), evaluates all three
//! variants on the same test split, and sweeps an SR grid with thresholds
//! derived from the *f32* artifacts — so every row compares the tiers at the
//! same δ. Each tier is charged on the edge device it runs on
//! (`SystemModel::with_quantized_edge` for the Q8_0 net).
//!
//! The binary is its own regression harness and exits non-zero when:
//!
//! * a layer's weight round-trip breaks its Q8_0 error bound;
//! * a routing flip at matched δ cannot be attributed to a score within the
//!   observed quantization tolerance of δ (`RoutingDivergence::unexplained`);
//! * the quantized system fails to recover accuracy through appeals (its
//!   full-offload row must match f32 exactly — same big network);
//! * the whole quantize → evaluate → render pipeline is not byte-identical
//!   across two independent runs.

use appeal_bench::{elapsed_secs, harness_context, write_report};
use appeal_dataset::DatasetPreset;
use appeal_hw::SystemModel;
use appeal_models::ModelFamily;
use appeal_tensor::quant::QuantReportSummary;
use appealnet_core::experiments::PreparedExperiment;
use appealnet_core::loss::CloudMode;
use appealnet_core::{EvaluationArtifacts, ScoreKind, TwoHeadNet};

/// SR grid of the sweep, matching the paper's Fig. 5 sampling.
const SR_GRID: [f64; 8] = [1.0, 0.95, 0.9, 0.8, 0.7, 0.5, 0.3, 0.0];

fn main() {
    let start = std::time::Instant::now();
    let ctx = harness_context();
    let preset = DatasetPreset::Cifar10Like;
    let pair = preset.spec(ctx.fidelity).generate();
    let prepared = PreparedExperiment::prepare_with_data(
        preset,
        &pair,
        ModelFamily::MobileNetLike,
        CloudMode::WhiteBox,
        &ctx,
    );
    eprintln!("[prepared {preset} in {}]", elapsed_secs(start));

    let first = run_once(&prepared, &pair, &ctx);
    let second = run_once(&prepared, &pair, &ctx);
    if first != second {
        eprintln!("quant_sweep: report is not byte-identical across two runs");
        std::process::exit(1);
    }
    write_report("quant_sweep", &first);
    eprintln!("[quant_sweep done in {}]", elapsed_secs(start));
}

/// The typical deployment with `net` on the edge: a quantized net runs on
/// (and is charged as) the quantized edge device.
fn hardware_for(net: &TwoHeadNet) -> SystemModel {
    let hardware = SystemModel::typical();
    if net.is_quantized() {
        hardware.with_quantized_edge()
    } else {
        hardware
    }
}

/// Quantizes fresh clones of the trained two-head net, evaluates them and
/// renders the full report. Called twice; the outputs must be byte-identical.
fn run_once(
    prepared: &PreparedExperiment,
    pair: &appeal_dataset::DatasetPair,
    ctx: &appealnet_core::experiments::ExperimentContext,
) -> String {
    let f32_art = prepared.artifacts(ScoreKind::AppealNetQ);
    let eval_batch = 32;

    // Quantized tier with dynamic per-row activation scales.
    let mut qnet = prepared.models.appealnet.clone();
    let reports = qnet.quantize_weights();
    let summary = QuantReportSummary::from_reports(&reports);
    if !summary.within_bound() {
        eprintln!("quant_sweep: weight round-trip broke the Q8_0 error bound");
        std::process::exit(1);
    }
    let q_art = quantized_artifacts(&mut qnet, f32_art, pair, eval_batch);

    // Quantized tier with activation scales calibrated on the test inputs.
    let mut cal_net = qnet.clone();
    cal_net.calibrate_activation_scales(pair.test.images(), eval_batch);
    let cal_art = quantized_artifacts(&mut cal_net, f32_art, pair, eval_batch);

    let tol = f32_art
        .max_score_divergence(&q_art)
        .expect("artifact sets share the test split");
    let cal_tol = f32_art
        .max_score_divergence(&cal_art)
        .expect("artifact sets share the test split");

    let mut text = String::new();
    text.push_str(&format!(
        "Quantized little-net sweep — {} / {} ({} samples)\n",
        prepared.preset,
        ModelFamily::MobileNetLike,
        f32_art.len()
    ));
    text.push_str(&format!(
        "fidelity {:?} | seed {} | Q8_0 little net vs f32 at matched delta\n",
        ctx.fidelity, ctx.seed
    ));
    text.push_str(&format!(
        "weight tier: Q8_0, {} params, {:.2}x compression, max round-trip err {:.3e} (bound {:.3e})\n",
        summary.params, summary.compression(), summary.max_error, summary.error_bound
    ));
    text.push_str(&format!(
        "score divergence vs f32: dynamic {tol:.3e}, calibrated {cal_tol:.3e}\n\n"
    ));
    text.push_str(
        "target_sr  delta      f32_acc  q8_acc   q8cal_acc  flips  straddle  f32_mJ    q8_mJ\n",
    );

    let thresholds = f32_art
        .thresholds_for_skipping_rates(&SR_GRID)
        .expect("f32 artifacts validated");
    let (hardware, q_hardware) = (
        hardware_for(&prepared.models.appealnet),
        hardware_for(&qnet),
    );
    let mut violations = 0usize;
    for (&sr, &delta) in SR_GRID.iter().zip(&thresholds) {
        let f = f32_art.at_threshold(delta).expect("validated");
        let q = q_art.at_threshold(delta).expect("validated");
        let c = cal_art.at_threshold(delta).expect("validated");
        let div = f32_art
            .routing_divergence(&q_art, delta, tol)
            .expect("matched artifact sets");
        violations += div.unexplained;
        let f32_cost = hardware.expected_cost(
            f.skipping_rate,
            prepared.little_flops,
            prepared.big_flops,
            prepared.input_bytes,
        );
        let q_cost = q_hardware.expected_cost(
            q.skipping_rate,
            prepared.little_flops,
            prepared.big_flops,
            prepared.input_bytes,
        );
        text.push_str(&format!(
            "{sr:>9.2}  {delta:>9.4}  {:>7.4}  {:>7.4}  {:>9.4}  {:>5}  {:>8}  {:>8.3}  {:>7.3}\n",
            f.overall_accuracy,
            q.overall_accuracy,
            c.overall_accuracy,
            div.differing,
            div.straddling,
            f32_cost.energy_mj,
            q_cost.energy_mj,
        ));
    }

    if violations > 0 {
        eprintln!(
            "quant_sweep: {violations} routing flips not attributable to \
             quantization tolerance around delta"
        );
        std::process::exit(1);
    }

    // Appeal-based recovery: with everything offloaded the quantized system
    // must land exactly on the f32 system (same big network answers).
    let full_offload_delta = *thresholds.last().expect("non-empty grid");
    let f_rec = f32_art
        .at_threshold(full_offload_delta)
        .expect("validated")
        .overall_accuracy;
    let q_rec = q_art
        .at_threshold(full_offload_delta)
        .expect("validated")
        .overall_accuracy;
    if (f_rec - q_rec).abs() > f64::EPSILON {
        eprintln!(
            "quant_sweep: full-offload accuracy diverged (f32 {f_rec} vs q8 {q_rec}); \
             appeals failed to recover the quantized tier"
        );
        std::process::exit(1);
    }
    text.push_str(&format!(
        "\nfull-offload recovery: f32 {f_rec:.4} == q8 {q_rec:.4} (appeals absorb quantization)\n"
    ));
    text
}

/// Evaluates a (quantized) two-head net on the shared test split, reusing the
/// f32 artifacts' big-network correctness so only the edge tier differs.
fn quantized_artifacts(
    net: &mut TwoHeadNet,
    f32_art: &EvaluationArtifacts,
    pair: &appeal_dataset::DatasetPair,
    eval_batch: usize,
) -> EvaluationArtifacts {
    let test = &pair.test;
    let out = net.evaluate(test.images(), eval_batch);
    let little_correct: Vec<bool> = out
        .predictions()
        .iter()
        .zip(test.labels().iter())
        .map(|(p, y)| p == y)
        .collect();
    EvaluationArtifacts {
        scores: out.q,
        little_correct,
        big_correct: f32_art.big_correct.clone(),
        hard_flags: f32_art.hard_flags.clone(),
        little_flops: net.flops(),
        big_flops: f32_art.big_flops,
        score_kind: ScoreKind::AppealNetQ,
    }
}
