//! End-to-end guards for the quantized (Q8_0) little-net tier.
//!
//! Four things are pinned here. First, serving: an engine built
//! on a quantized two-head net must route every request exactly like its f32
//! twin except where the routing score sits within the observed quantization
//! tolerance of δ — a flip away from the threshold band is a bug, not noise.
//! Second, determinism: the quantized evaluate path must stay bitwise stable
//! across batch sizes, chunk policies and the pinned worker-thread count,
//! exactly like the f32 path (`tests/determinism.rs`). Third, the fleet:
//! `degraded_agreement` accounting must keep reconciling when the edge tier
//! that answers degraded requests is quantized. Fourth, pricing: a fleet
//! and an engine built from the same quantized net charge the same costs,
//! and the fleet schedules the net on the quantized edge device.

use appeal_bench::fixtures::{blackout, model_pair, wifi_fleet, CLASSES, SEED};
use appeal_hw::{FaultPlan, SystemModel, QUANT_EDGE_SPEEDUP};
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::parallel::ChunkPolicy;
use appealnet_core::{Engine, InferenceResponse, Route, ThresholdPolicy, TwoHeadNet};
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{FleetConfig, FleetMetrics, FleetSim, RecoveryConfig, RetryConfig};

const MS: u64 = 1_000_000;
const DELTA: f64 = 0.5;

/// Fixes the pool size before rayon spawns it (the first test to run wins),
/// so the suite runs the same number of batch shards on every host.
fn pin_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

fn engine_from(net: TwoHeadNet, big: appeal_models::ClassifierParts, chunk: ChunkPolicy) -> Engine {
    Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(ThresholdPolicy::new(DELTA).unwrap())
        .chunk_policy(chunk)
        .max_batch(64)
        .build()
        .unwrap()
}

fn batch(n: usize, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    Tensor::randn(&[n, 3, 12, 12], &mut rng)
}

fn assert_bit_identical(a: &[InferenceResponse], b: &[InferenceResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}");
        assert_eq!(x.label, y.label, "{what}: request {}", x.id);
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: request {}",
            x.id
        );
        assert_eq!(x.route, y.route, "{what}: request {}", x.id);
    }
}

/// Quantizing the edge scorer may flip a route only where the f32 score (or
/// the quantized score) sits within the observed score divergence of δ; every
/// other request must route identically, and requests both tiers offload must
/// get the same answer from the shared f32 big network.
#[test]
fn quantized_engine_routes_diverge_only_inside_the_tolerance_band() {
    pin_threads();
    let (net, big) = model_pair(5, CLASSES);
    let mut qnet = net.clone();
    let reports = qnet.quantize_weights();
    assert!(reports.iter().all(|r| r.within_bound()), "{reports:?}");

    let mut f32_engine = engine_from(net, big.clone(), ChunkPolicy::runtime());
    let mut q_engine = engine_from(qnet, big, ChunkPolicy::runtime());
    assert!(!f32_engine.stats().edge_quantized);
    assert!(q_engine.stats().edge_quantized);
    assert!(
        format!("{q_engine:?}").contains("quantized-tolerance"),
        "the quantized engine must advertise the third numeric contract"
    );

    let images = batch(96, 41);
    let f32_responses = f32_engine.classify_batch(&images).unwrap();
    let q_responses = q_engine.classify_batch(&images).unwrap();
    assert_eq!(f32_responses.len(), 96);
    assert_eq!(q_responses.len(), 96);

    let tol = f32_responses
        .iter()
        .zip(&q_responses)
        .map(|(f, q)| (f64::from(f.score) - f64::from(q.score)).abs())
        .fold(0.0_f64, f64::max);
    assert!(
        tol < 0.05,
        "Q8_0 should perturb routing scores only slightly, got {tol}"
    );

    let mut flips = 0usize;
    for (f, q) in f32_responses.iter().zip(&q_responses) {
        if f.route != q.route {
            flips += 1;
            let f_dist = (f64::from(f.score) - DELTA).abs();
            let q_dist = (f64::from(q.score) - DELTA).abs();
            assert!(
                f_dist <= tol || q_dist <= tol,
                "request {} flipped {:?} -> {:?} with scores {} / {} at delta {DELTA}: \
                 outside the tolerance band {tol}",
                f.id,
                f.route,
                q.route,
                f.score,
                q.score
            );
        } else if f.route == Route::Cloud {
            // Both offloaded: the big network is the same f32 model and its
            // per-sample outputs are batch-composition invariant, so the
            // answers must agree exactly.
            assert_eq!(
                f.label, q.label,
                "request {} offloaded by both tiers must get the same cloud answer",
                f.id
            );
        }
    }
    // The tolerance attribution above is vacuous if quantization never flips
    // anything *and* never could; make sure the band test had teeth by
    // checking the engines actually disagreed on scores somewhere.
    assert!(tol > 0.0, "quantization must move at least one score");
    let offloaded = f32_responses
        .iter()
        .filter(|r| r.route == Route::Cloud)
        .count();
    assert!(
        offloaded > 0 && offloaded < 96,
        "delta {DELTA} must split the batch for the flip test to mean anything"
    );
    let _ = flips; // zero flips is legal: every score may sit far from delta
}

/// The quantized evaluate path inherits the f32 determinism contract:
/// bitwise-identical q scores across batch sizes and chunk policies, and
/// bitwise-identical engine responses across serial and banded execution,
/// all under the pinned worker-thread count.
#[test]
fn quantized_evaluate_is_bitwise_stable_across_batching_and_sharding() {
    pin_threads();
    let (net, big) = model_pair(5, CLASSES);
    let mut qnet = net.clone();
    qnet.quantize_weights();
    let images = batch(48, 17);

    let reference = qnet.evaluate_with_policy(&images, 48, &ChunkPolicy::sequential());
    for (batch_size, chunk) in [
        (4, ChunkPolicy::sequential()),
        (48, ChunkPolicy::runtime()),
        (
            8,
            ChunkPolicy {
                min_shard: 4,
                max_shards: 8,
            },
        ),
    ] {
        let out = qnet.evaluate_with_policy(&images, batch_size, &chunk);
        assert_eq!(reference.q.len(), out.q.len());
        for (i, (a, b)) in reference.q.iter().zip(&out.q).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sample {i} diverged at batch {batch_size}, chunk {chunk:?}"
            );
        }
        assert_eq!(reference.predictions(), out.predictions());
    }

    // Same guarantee one layer up: a banded engine and a serial engine built
    // from the same quantized weights must answer byte-identically.
    let mut serial = engine_from(qnet.clone(), big.clone(), ChunkPolicy::sequential());
    let mut banded = engine_from(
        qnet,
        big,
        ChunkPolicy {
            min_shard: 4,
            max_shards: 8,
        },
    );
    let serial_responses = serial.classify_batch(&images).unwrap();
    let banded_responses = banded.classify_batch(&images).unwrap();
    assert_bit_identical(&serial_responses, &banded_responses, "serial vs banded");
}

fn run_quantized_fleet(config: FleetConfig, trace: &TraceSpec) -> FleetMetrics {
    let (mut little, big) = model_pair(SEED, CLASSES);
    let reports = little.quantize_weights();
    assert!(reports.iter().all(|r| r.within_bound()), "{reports:?}");
    FleetSim::new(little, big, config)
        .expect("valid config")
        .run(trace)
}

/// A permanent cloud blackout forces every appeal through the retry budget
/// and down to `DegradedLocal`, where the *quantized* little net answers.
/// The counterfactual `degraded_agreement` ledger must still reconcile: it is
/// present exactly when degraded requests exist, stays a valid fraction, and
/// the whole faulted run replays byte-for-byte.
#[test]
fn fleet_degraded_agreement_reconciles_with_a_quantized_edge_tier() {
    pin_threads();
    let trace = TraceSpec {
        shape: TraceShape::Uniform,
        requests: 192,
        mean_gap_nanos: 2 * MS,
        clients: 16,
        seed: 2021,
    };
    let outage = blackout(0, u64::MAX);
    let recovery = RecoveryConfig {
        appeal_deadline_ms: 20.0,
        retry: RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 2.0,
            max_backoff_ms: 10.0,
        },
        breaker: None,
    };

    let m = run_quantized_fleet(wifi_fleet(0.9, outage.clone(), Some(recovery)), &trace);
    assert!(m.check().is_empty(), "{:?}", m.check());
    assert_eq!(m.completed, 192, "no request may strand");
    assert!(m.degraded_local > 0, "the blackout must force degradation");
    let agreement = m
        .degraded_agreement
        .expect("degraded requests exist, so the counterfactual ledger must too");
    assert!(
        (0.0..=1.0).contains(&agreement),
        "degraded_agreement must be a fraction, got {agreement}"
    );

    let again = run_quantized_fleet(wifi_fleet(0.9, outage, Some(recovery)), &trace);
    assert_eq!(
        m.render(),
        again.render(),
        "a faulted quantized-edge run must stay byte-reproducible"
    );

    // Healthy control: with no faults nothing degrades, so the ledger must
    // be absent — `degraded_agreement.is_some()` iff `degraded_local > 0`.
    let healthy = run_quantized_fleet(wifi_fleet(0.9, FaultPlan::none(), Some(recovery)), &trace);
    assert!(healthy.check().is_empty(), "{:?}", healthy.check());
    assert_eq!(healthy.degraded_local, 0);
    assert!(healthy.degraded_agreement.is_none());
}

/// `FleetSim::new` and `Engine::build` read the tier off the same
/// `is_quantized()` and must reach the same price list; the node's clock
/// runs on that device too, so a quantized edge pass is `QUANT_EDGE_SPEEDUP`
/// times shorter than the f32 pass of the same net.
#[test]
fn fleet_prices_and_schedules_a_quantized_little_net_on_the_quantized_edge() {
    pin_threads();
    let config = wifi_fleet(0.9, FaultPlan::none(), None);
    let hardware = SystemModel::new(
        config.edge_device.clone(),
        config.cloud.device.clone(),
        config.link.spec.clone(),
    );
    let (net, big) = model_pair(SEED, CLASSES);
    let mut qnet = net.clone();
    qnet.quantize_weights();
    let engine = Engine::builder()
        .appealnet(qnet.clone())
        .big(big.clone())
        .hardware(hardware)
        .build()
        .unwrap();
    let mut q_fleet = FleetSim::new(qnet, big.clone(), config.clone()).expect("valid config");
    let ctx = *q_fleet.routing_context();
    assert_eq!(
        (ctx.edge_cost, ctx.offload_cost),
        (engine.edge_cost(), engine.offload_cost()),
        "a fleet and an engine must price the same quantized net identically"
    );

    let trace = TraceSpec {
        shape: TraceShape::Uniform,
        requests: 64,
        mean_gap_nanos: 2 * MS,
        clients: 16,
        seed: 2021,
    };
    let service_nanos = |m: &FleetMetrics| {
        assert!(m.check().is_empty(), "{:?}", m.check());
        m.nodes[0].busy_ms * 1e6 / m.nodes[0].requests as f64
    };
    let q_service = service_nanos(&q_fleet.run(&trace));
    let f32_service = service_nanos(
        &FleetSim::new(net, big, config)
            .expect("valid config")
            .run(&trace),
    );
    // Each service time is rounded to a whole nanosecond.
    assert!(
        (f32_service - QUANT_EDGE_SPEEDUP * q_service).abs() <= 0.5 * (1.0 + QUANT_EDGE_SPEEDUP),
        "f32 {f32_service} ns vs quantized {q_service} ns per request"
    );
}
