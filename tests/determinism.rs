//! Determinism guards for the parallel batch-evaluation engine.
//!
//! The rayon-backed engine shards evaluation passes across worker threads;
//! these tests pin down that (a) two identical `prepare` runs produce
//! bit-identical `EvaluationArtifacts`, and (b) a sharded evaluation is
//! bit-identical to a sequential one on the same model, so no
//! nondeterministic reduction order can creep into results.

use appeal_bench::fixtures::model_pair;
use appeal_dataset::{DatasetPreset, Fidelity};
use appeal_hw::SystemModel;
use appeal_models::{ClassifierParts, ModelFamily, ModelSpec};
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::experiments::{ExperimentContext, PreparedExperiment};
use appealnet_core::loss::CloudMode;
use appealnet_core::parallel::ChunkPolicy;
use appealnet_core::serve::{Engine, InferenceRequest, InferenceResponse, ThresholdPolicy};
use appealnet_core::two_head::TwoHeadNet;

#[test]
fn prepare_produces_byte_identical_artifacts_across_runs() {
    let run = || {
        let ctx = ExperimentContext::new(Fidelity::Smoke, 2468);
        PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        )
    };
    let (first, second) = (run(), run());
    let kinds = first.score_kinds();
    assert_eq!(kinds.len(), 4, "one artifact set per score kind");
    assert_eq!(second.score_kinds(), kinds);
    let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for kind in kinds {
        let (a, b) = (first.artifacts(kind), second.artifacts(kind));
        assert_eq!(a.score_kind, b.score_kind);
        assert_eq!(bits(&a.scores), bits(&b.scores), "{kind:?}: scores");
        assert_eq!(a.little_correct, b.little_correct, "{kind:?}: little");
        assert_eq!(a.big_correct, b.big_correct, "{kind:?}: big_correct");
        assert_eq!(a.hard_flags, b.hard_flags, "{kind:?}: hard_flags");
        assert_eq!(a.little_flops, b.little_flops, "{kind:?}: little_flops");
        assert_eq!(a.big_flops, b.big_flops, "{kind:?}: big_flops");
    }
}

#[test]
fn sharded_evaluation_is_bit_identical_to_sequential() {
    // Evaluation determinism does not depend on training: a freshly
    // initialized two-head network suffices and keeps the test fast.
    let mut rng = SeededRng::new(97);
    let parts = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
    let mut net = TwoHeadNet::from_parts(parts, &mut rng);
    let images = appeal_tensor::Tensor::randn(&[40, 3, 12, 12], &mut rng);

    let sequential = net.evaluate_with_policy(&images, 8, &ChunkPolicy::sequential());
    let sharded = net.evaluate_with_policy(
        &images,
        8,
        &ChunkPolicy {
            min_shard: 4,
            max_shards: 8,
        },
    );
    assert_eq!(sequential.q.len(), sharded.q.len());
    for (a, b) in sequential.q.iter().zip(sharded.q.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "q scores must be bit-identical");
    }
    assert_eq!(sequential.logits.shape(), sharded.logits.shape());
    for (a, b) in sequential
        .logits
        .data()
        .iter()
        .zip(sharded.logits.data().iter())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "logits must be bit-identical");
    }
}

// ---------------------------------------------------------------------------
// Engine equivalence across chunk policies, batch sizes and micro-batching
// ---------------------------------------------------------------------------

/// Builds an identically seeded (two-head, big) model pair.
fn seeded_models() -> (TwoHeadNet, ClassifierParts) {
    model_pair(4242, 6)
}

fn assert_equivalent(outcomes: &[InferenceResponse], responses: &[InferenceResponse], tag: &str) {
    assert_eq!(outcomes.len(), responses.len(), "{tag}: length mismatch");
    for (i, (o, r)) in outcomes.iter().zip(responses.iter()).enumerate() {
        assert_eq!(o.label, r.label, "{tag}: label diverges at sample {i}");
        assert_eq!(o.route, r.route, "{tag}: decision diverges at sample {i}");
        assert_eq!(
            o.score.to_bits(),
            r.score.to_bits(),
            "{tag}: score is not bit-identical at sample {i}"
        );
        assert_eq!(o.cost, r.cost, "{tag}: cost diverges at sample {i}");
    }
}

/// An identically seeded fixed-threshold (Eq. 1) engine on `chunk`.
fn threshold_engine(chunk: ChunkPolicy) -> Engine {
    let (net, big) = seeded_models();
    Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(ThresholdPolicy::new(0.5).unwrap())
        .hardware(SystemModel::typical())
        .chunk_policy(chunk)
        .build()
        .unwrap()
}

#[test]
fn engine_routing_is_bit_identical_across_chunk_policies_and_batch_sizes() {
    // Every chunk policy (i.e. thread count) must produce byte-identical
    // labels, routing decisions, scores and costs at every batch size.
    let chunk_policies = [
        ChunkPolicy::sequential(),
        ChunkPolicy {
            min_shard: 8,
            max_shards: 2,
        },
        ChunkPolicy {
            min_shard: 4,
            max_shards: 8,
        },
    ];
    let mut rng = SeededRng::new(99);
    let batches: Vec<Tensor> = [5usize, 17, 48]
        .iter()
        .map(|&n| Tensor::randn(&[n, 3, 12, 12], &mut rng))
        .collect();
    // Reference: the engine on the sequential path.
    let mut reference = threshold_engine(ChunkPolicy::sequential());
    let reference_outcomes: Vec<Vec<InferenceResponse>> = batches
        .iter()
        .map(|b| reference.classify_batch(b).unwrap())
        .collect();
    for chunk in chunk_policies {
        let mut engine = threshold_engine(chunk);
        for (batch, expected) in batches.iter().zip(reference_outcomes.iter()) {
            let responses = engine.classify_batch(batch).unwrap();
            assert_equivalent(
                expected,
                &responses,
                &format!("chunk {chunk:?}, batch {}", batch.shape()[0]),
            );
        }
    }
}

#[test]
fn micro_batched_submission_matches_whole_batch_classification() {
    // Feeding single requests through the micro-batch queue must reproduce
    // the whole-batch path bit-for-bit, for every micro-batch capacity.
    let mut rng = SeededRng::new(77);
    let images = Tensor::randn(&[23, 3, 12, 12], &mut rng);
    let (net, big) = seeded_models();
    let mut whole = Engine::builder().appealnet(net).big(big).build().unwrap();
    let expected = whole.classify_batch(&images).unwrap();
    for max_batch in [1usize, 4, 7, 23, 64] {
        let (net, big) = seeded_models();
        let mut engine = Engine::builder()
            .appealnet(net)
            .big(big)
            .max_batch(max_batch)
            .build()
            .unwrap();
        let mut responses = Vec::new();
        for i in 0..images.shape()[0] {
            if let Some(batch) = engine
                .submit(InferenceRequest::new(i as u64, images.select_rows(&[i])))
                .unwrap()
            {
                responses.extend(batch);
            }
        }
        responses.extend(engine.flush().unwrap());
        assert_eq!(responses.len(), expected.len());
        for (i, (a, b)) in expected.iter().zip(responses.iter()).enumerate() {
            assert_eq!(b.id, i as u64, "max_batch {max_batch}: id order");
            assert_eq!(a.label, b.label, "max_batch {max_batch}, sample {i}");
            assert_eq!(a.route, b.route, "max_batch {max_batch}, sample {i}");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "max_batch {max_batch}, sample {i}"
            );
            assert_eq!(a.cost, b.cost, "max_batch {max_batch}, sample {i}");
        }
        assert_eq!(engine.stats().requests, images.shape()[0] as u64);
    }
}
