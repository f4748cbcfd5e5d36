//! Integration tests of the black-box (oracle cloud) pipeline and of the
//! runtime deployment path (a serving engine with a fixed threshold).

use appeal_dataset::{DatasetPreset, Fidelity};
use appeal_hw::{InferenceCost, SystemModel};
use appeal_models::ModelFamily;
use appealnet_core::experiments::{table2, ExperimentContext, PreparedExperiment};
use appealnet_core::loss::CloudMode;
use appealnet_core::scores::ScoreKind;
use appealnet_core::serve::{Engine, InferenceResponse, ThresholdPolicy};

#[test]
fn blackbox_pipeline_and_table2_row() {
    let ctx = ExperimentContext::new(Fidelity::Smoke, 555);
    let prepared = PreparedExperiment::prepare(
        DatasetPreset::Cifar10Like,
        ModelFamily::ShuffleNetLike,
        CloudMode::BlackBox,
        &ctx,
    );
    // Oracle cloud: the big network is always correct and AccI is always defined.
    assert_eq!(prepared.big_accuracy, 1.0);
    let art = prepared.artifacts(ScoreKind::AppealNetQ);
    assert!(art.big_correct.iter().all(|&c| c));

    let row = table2::run(&prepared);
    // The appealing rate needed must be monotone in the AccI target and the
    // oracle makes every target reachable.
    let ars: Vec<f64> = row
        .entries
        .iter()
        .map(|e| {
            e.appealnet_appealing_rate
                .expect("reachable with an oracle")
        })
        .collect();
    for w in ars.windows(2) {
        assert!(w[1] + 1e-9 >= w[0]);
    }
}

#[test]
fn deployed_system_routes_consistently_with_threshold() {
    let ctx = ExperimentContext::new(Fidelity::Smoke, 777);
    let preset = DatasetPreset::GtsrbLike;
    let pair = preset.spec(ctx.fidelity).generate();
    let prepared = PreparedExperiment::prepare_with_data(
        preset,
        &pair,
        ModelFamily::MobileNetLike,
        CloudMode::WhiteBox,
        &ctx,
    );
    let models = prepared.models;
    let mut engine = Engine::builder()
        .appealnet(models.appealnet)
        .big(models.big)
        .policy(ThresholdPolicy::new(0.5).expect("0.5 is a valid threshold"))
        .hardware(SystemModel::typical())
        .build()
        .expect("scorer and big model are set");
    let total_cost = |responses: &[InferenceResponse]| {
        responses
            .iter()
            .fold(InferenceCost::zero(), |acc, r| acc.add(&r.cost))
    };

    let outcomes = engine
        .classify_batch(pair.test.images())
        .expect("test images match the input shape");
    assert_eq!(outcomes.len(), pair.test.len());
    for o in &outcomes {
        assert!(o.label < preset.num_classes());
        assert_eq!(o.route.is_cloud(), (o.score as f64) < 0.5);
    }

    // Raising the threshold can only increase (or keep) the number of
    // offloaded inputs, and with it the total energy.
    let low = total_cost(&outcomes);
    engine.set_policy(Box::new(
        ThresholdPolicy::new(0.95).expect("0.95 is a valid threshold"),
    ));
    let outcomes_high = engine
        .classify_batch(pair.test.images())
        .expect("test images match the input shape");
    let high = total_cost(&outcomes_high);
    let offloaded_low = outcomes.iter().filter(|o| o.route.is_cloud()).count();
    let offloaded_high = outcomes_high.iter().filter(|o| o.route.is_cloud()).count();
    assert!(offloaded_high >= offloaded_low);
    assert!(high.energy_mj + 1e-9 >= low.energy_mj);
}

#[test]
fn whitebox_and_blackbox_share_dataset_but_differ_in_objective() {
    let ctx = ExperimentContext::new(Fidelity::Smoke, 999);
    let preset = DatasetPreset::Cifar10Like;
    let pair = preset.spec(ctx.fidelity).generate();
    let white = PreparedExperiment::prepare_with_data(
        preset,
        &pair,
        ModelFamily::MobileNetLike,
        CloudMode::WhiteBox,
        &ctx,
    );
    let black = PreparedExperiment::prepare_with_data(
        preset,
        &pair,
        ModelFamily::MobileNetLike,
        CloudMode::BlackBox,
        &ctx,
    );
    // Same little baseline (same seed, same data), so its accuracy agrees.
    assert!((white.little_accuracy - black.little_accuracy).abs() < 1e-9);
    // The big reference differs: trained model vs oracle.
    assert!(white.big_accuracy <= 1.0);
    assert_eq!(black.big_accuracy, 1.0);
}
