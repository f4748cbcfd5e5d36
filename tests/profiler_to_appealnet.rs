//! Integration test of the full Fig. 3 workflow: hardware profiling selects a
//! little architecture, AppealNet augments it with a predictor head and
//! trains it jointly, and the result deploys on the profiled device.

use appeal_dataset::{DatasetPreset, Fidelity};
use appeal_hw::{DeviceSpec, HardwareProfiler, LinkSpec, SystemModel};
use appeal_models::{ModelFamily, ModelSpec};
use appeal_tensor::SeededRng;
use appealnet_core::experiments::ExperimentContext;
use appealnet_core::loss::{AppealLoss, CloudMode};
use appealnet_core::serve::{Engine, ThresholdPolicy};
use appealnet_core::training::{train_appealnet, train_classifier};
use appealnet_core::two_head::TwoHeadNet;

#[test]
fn fig3_workflow_profiler_to_deployed_system() {
    // 1. Hardware profiler: pick the most capable little model that fits a
    //    mobile SoC with a 5 ms latency budget.
    let device = DeviceSpec::mobile_soc();
    let profiler = HardwareProfiler::new(device.clone(), 5.0).expect("budget is positive");
    let preset = DatasetPreset::Cifar10Like;
    let input_shape = {
        let spec = preset.spec(Fidelity::Smoke);
        [spec.channels, spec.height, spec.width]
    };
    let pool: Vec<ModelSpec> = ModelFamily::little_families()
        .iter()
        .map(|&f| ModelSpec::little(f, input_shape, preset.num_classes()))
        .collect();
    let decision = profiler.select(&pool).expect("a little model must fit");
    assert!(decision.deployable());

    // 2. Train the selected architecture as an AppealNet two-head network
    //    (black-box cloud, smoke scale).
    let ctx = ExperimentContext::new(Fidelity::Smoke, 31);
    let pair = preset.spec(Fidelity::Smoke).generate();
    let mut rng = SeededRng::new(ctx.seed);
    let mut little = decision.spec.build(&mut rng);
    train_classifier(&mut little, &pair.train, &ctx.little_config());
    let mut net = TwoHeadNet::from_parts(little, &mut rng);
    let loss = AppealLoss::new(ctx.beta, CloudMode::BlackBox);
    let report = train_appealnet(&mut net, &pair.train, &loss, &[], &ctx.joint_config());
    assert!(report.final_loss().is_finite());

    // 3. The jointly trained little network still fits the profiled device
    //    (the predictor head overhead is negligible).
    assert!(device.fits(net.param_count() as u64));
    assert!(device.latency_ms(net.flops()) <= 5.0);

    // 4. Deploy it next to a big cloud model and route a batch.
    let big = ModelSpec::big(input_shape, preset.num_classes()).build(&mut rng);
    let hardware = SystemModel::new(device, DeviceSpec::cloud_gpu(), LinkSpec::lte());
    let mut engine = Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(ThresholdPolicy::new(0.5).expect("0.5 is a valid threshold"))
        .hardware(hardware)
        .build()
        .expect("scorer and big model are set");
    let outcomes = engine
        .classify_batch(pair.test.images())
        .expect("test images match the input shape");
    assert_eq!(outcomes.len(), pair.test.len());
    assert!(
        outcomes.iter().any(|o| !o.route.is_cloud()) || outcomes.iter().any(|o| o.route.is_cloud())
    );
}
