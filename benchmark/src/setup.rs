//! Input generation and the shared set-up.
//!
//! Two stages, both driven by the seed:
//!
//! * [`Fixture::build`] makes the *inputs* of the systems under test: the
//!   synthetic CIFAR-10-like dataset and the three trained networks, through
//!   the repository's own `PreparedExperiment` pipeline. It runs once per
//!   invocation and is reported as `training.prepare_s`.
//! * [`Ready::set_up`] is what a deployment pays before its first answer:
//!   policy calibration, engine construction (f32 and Q8), the reference
//!   pre-pass, warm-up passes and a server start/stop. It is identical for
//!   every workload, runs [`SETUP_REPEATS`] times and its median is `setup_s`.

use crate::stats;
use appeal_dataset::{DatasetPair, DatasetPreset, Fidelity};
use appeal_models::ModelFamily;
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::experiments::{ExperimentContext, PreparedExperiment};
use appealnet_core::serve::{QScorer, Scorer};
use appealnet_core::server::{Server, ServerConfig};
use appealnet_core::training::big_model_losses_with_policy;
use appealnet_core::{
    CalibratedPolicy, ChunkPolicy, CloudMode, CoreError, Engine, InferenceRequest,
    InferenceResponse, ScoreKind, ThresholdPolicy,
};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Images in the request pool (the whole test split). Every request count is
/// a multiple of it, so skipping rate, accuracy and energy repeat exactly.
pub const POOL: usize = 800;
/// Training samples. The paper preset has 1600; 800 at the smoke trainer
/// settings keeps input generation near 4 s and the nets near 0.96 accuracy.
pub const TRAIN_SIZE: usize = 800;
/// Samples per training round of the `train` workload.
pub const ROUND_SAMPLES: usize = 400;
/// Micro-batch capacity of the serving engines (the `loadgen` setting).
pub const MAX_BATCH: usize = 8;
/// Batch size of the offline workloads (the experiments' evaluation batch).
pub const OFFLINE_BATCH: usize = 128;
/// Target skipping rate of the calibrated policy (the paper's operating point).
pub const TARGET_SR: f64 = 0.90;
/// Frames scored to place the fleet simulator's threshold at the median.
pub const FLEET_CALIBRATION_FRAMES: usize = 512;
/// How often the shared set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// Tickets the closed-loop generator keeps outstanding.
pub const OUTSTANDING: usize = 64;

/// The serving front-end configuration of every serve workload: the
/// `loadgen` binary's 1 ms coalescing deadline, but a deeper admission queue
/// than its 256. This host stalls for hundreds of milliseconds now and then;
/// an open loop then sends everything that fell due at once, and the queue
/// must hold one second of the fastest schedule so that the stall shows as
/// tail latency instead of as refused requests.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 2048,
        deadline: Duration::from_millis(1),
        ..ServerConfig::default()
    }
}

/// Seed-generated inputs: dataset and trained models.
pub struct Fixture {
    pub seed: u64,
    pub pair: DatasetPair,
    pub prepared: PreparedExperiment,
    pub generate_s: f64,
    pub prepare_s: f64,
}

impl Fixture {
    pub fn build(seed: u64) -> Fixture {
        let started = Instant::now();
        let mut spec = DatasetPreset::Cifar10Like.spec(Fidelity::Paper);
        spec.train_size = TRAIN_SIZE;
        spec.test_size = POOL;
        // The preset's seed is fixed; fold the run's seed in so the dataset
        // is an input made from `--seed` like everything else.
        spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let pair = spec.generate();
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let ctx = ExperimentContext::new(Fidelity::Smoke, seed);
        let prepared = PreparedExperiment::prepare_with_data(
            DatasetPreset::Cifar10Like,
            &pair,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        Fixture {
            seed,
            pair,
            prepared,
            generate_s,
            prepare_s: started.elapsed().as_secs_f64(),
        }
    }

    pub fn labels(&self) -> &[usize] {
        self.pair.test.labels()
    }

    /// An engine over clones of the trained nets with the δ₉₀ policy.
    fn engine(&self, policy: CalibratedPolicy, max_batch: usize) -> Engine {
        Engine::builder()
            .appealnet(self.prepared.models.appealnet.clone())
            .big(self.prepared.models.big.clone())
            .policy(policy)
            .chunk_policy(ChunkPolicy::runtime())
            .max_batch(max_batch)
            .build()
            .expect("engine parts are complete")
    }
}

/// What the reference pre-pass recorded for one pool image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub label: usize,
    pub cloud: bool,
    pub score_bits: u32,
    pub energy_mj: f64,
}

impl Expected {
    pub fn of(response: &InferenceResponse) -> Expected {
        Expected {
            label: response.label,
            cloud: response.route.is_cloud(),
            score_bits: response.score.to_bits(),
            energy_mj: response.cost.energy_mj,
        }
    }

    /// Label, route and score bits equal; the cost follows from the route.
    pub fn matches(&self, response: &InferenceResponse) -> bool {
        self.label == response.label
            && self.cloud == response.route.is_cloud()
            && self.score_bits == response.score.to_bits()
    }
}

/// FNV-1a over 64-bit words; the digest `check` compares across runs.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

pub fn digest_expected(expected: &[Expected]) -> u64 {
    fnv1a(expected.iter().flat_map(|e| {
        [
            e.label as u64,
            u64::from(e.cloud),
            u64::from(e.score_bits),
            e.energy_mj.to_bits(),
        ]
    }))
}

/// Everything one set-up produces. Engines are handed to the workload that
/// needs them (`Option::take`); the rest is shared read-only.
pub struct Ready {
    /// The policy calibrated to keep [`TARGET_SR`] of the pool on the edge.
    pub policy90: CalibratedPolicy,
    pub fleet_delta: f64,
    /// Share of the calibration frames the fleet's δ keeps on the edge.
    pub fleet_planned_sr: f64,
    /// The pool as single-image tensors, ready to clone into requests.
    pub requests: Vec<Tensor>,
    /// The pool pre-cut into offline batches, with the pool range of each.
    pub batches: Vec<(Tensor, Range<usize>)>,
    pub serve: Option<Engine>,
    pub appeal: Option<Engine>,
    pub offline: Option<Engine>,
    pub q8: Option<Engine>,
    pub expected90: Vec<Expected>,
    pub expected_appeal: Vec<Expected>,
    pub expected_q8: Vec<Expected>,
    /// Big-network loss per training sample (the white-box joint objective).
    pub big_losses: Vec<f32>,
    pub server_start_ms: f64,
    pub server_shutdown_ms: f64,
    pub quantize_ms: f64,
    pub violations: Vec<String>,
}

impl Ready {
    /// Runs the set-up [`SETUP_REPEATS`] times; returns the last product and
    /// each repeat's time in seconds. The repeats must agree bit for bit.
    pub fn set_up_repeated(fixture: &Fixture) -> (Ready, Vec<f64>) {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut digests = Vec::with_capacity(SETUP_REPEATS);
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            let ready = Ready::set_up(fixture);
            times.push(started.elapsed().as_secs_f64());
            digests.push(ready.digest());
            last = Some(ready);
        }
        let mut ready = last.expect("SETUP_REPEATS is positive");
        if digests.iter().any(|d| *d != digests[0]) {
            ready
                .violations
                .push(format!("set-up repeats disagree: digests {digests:x?}"));
        }
        (ready, times)
    }

    pub fn digest(&self) -> u64 {
        fnv1a(
            [
                self.policy90.threshold().to_bits(),
                self.fleet_delta.to_bits(),
                digest_expected(&self.expected90),
                digest_expected(&self.expected_appeal),
                digest_expected(&self.expected_q8),
            ]
            .into_iter()
            .chain(self.big_losses.iter().map(|l| u64::from(l.to_bits()))),
        )
    }

    fn set_up(fixture: &Fixture) -> Ready {
        let mut violations = Vec::new();
        let artifacts = fixture.prepared.artifacts(ScoreKind::AppealNetQ);
        let policy = CalibratedPolicy::for_skipping_rate(artifacts, TARGET_SR)
            .expect("artifacts of a prepared experiment are valid");

        let images = fixture.pair.test.images();
        let requests: Vec<Tensor> = (0..POOL)
            .map(|i| {
                images
                    .select_rows(&[i])
                    .reshape(&images.shape()[1..])
                    .expect("one row has the per-sample shape")
            })
            .collect();
        let batches: Vec<(Tensor, Range<usize>)> = (0..POOL)
            .step_by(OFFLINE_BATCH)
            .map(|start| {
                let range = start..(start + OFFLINE_BATCH).min(POOL);
                let rows: Vec<usize> = range.clone().collect();
                (images.select_rows(&rows), range)
            })
            .collect();

        let mut serve = fixture.engine(policy, MAX_BATCH);
        let mut offline = fixture.engine(policy, OFFLINE_BATCH);
        let mut appeal = fixture.engine(policy, MAX_BATCH);
        // δ = 1.0: every score below 1 appeals (a saturated sigmoid may keep
        // a handful on the edge; the reference pre-pass records which).
        appeal.set_policy(Box::new(
            ThresholdPolicy::new(1.0).expect("1.0 is a valid threshold"),
        ));

        let started = Instant::now();
        let mut qnet = fixture.prepared.models.appealnet.clone();
        qnet.quantize_weights();
        qnet.calibrate_activation_scales(images, OFFLINE_BATCH);
        let quantize_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut q8 = Engine::builder()
            .appealnet(qnet)
            .big(fixture.prepared.models.big.clone())
            .policy(ThresholdPolicy::new(0.0).expect("0.0 is a valid threshold"))
            .chunk_policy(ChunkPolicy::runtime())
            .max_batch(OFFLINE_BATCH)
            .build()
            .expect("engine parts are complete");

        // The reference pre-pass and one more pass over the pool per engine:
        // two passes that fill the scratch arenas and start the worker pool.
        let expected90 = reference_pass(&mut offline, &batches);
        let expected_appeal = reference_pass(&mut appeal, &batches);
        let expected_q8 = reference_pass(&mut q8, &batches);
        for engine in [&mut serve, &mut offline, &mut appeal, &mut q8] {
            reference_pass(engine, &batches);
        }
        // The calibrated policy must route exactly as the precomputed
        // artifacts say it does (an independent path through the models).
        let routed = artifacts
            .at_threshold(policy.threshold())
            .expect("artifacts validated above");
        let edge = expected90.iter().filter(|e| !e.cloud).count();
        if edge as f64 / POOL as f64 != routed.skipping_rate {
            violations.push(format!(
                "engine keeps {edge}/{POOL} on the edge, artifacts say SR {}",
                routed.skipping_rate
            ));
        }
        let accuracy = accuracy_of(&expected90, fixture.labels());
        if accuracy != routed.overall_accuracy {
            violations.push(format!(
                "engine accuracy {accuracy} differs from the artifacts' Eq. 13 value {}",
                routed.overall_accuracy
            ));
        }

        // One pass through the threaded front-end: times start and shutdown,
        // and proves the serve path answers as the reference did.
        let started = Instant::now();
        let server = Server::start(serve, server_config()).expect("valid server config");
        let server_start_ms = started.elapsed().as_secs_f64() * 1e3;
        let handle = server.handle();
        let mut in_flight = VecDeque::with_capacity(OUTSTANDING);
        // A refused submit leaves no ticket, which counts as a mismatch too.
        let mut answered_as_expected = 0usize;
        let mut settle = |(index, ticket): (usize, appealnet_core::server::Ticket)| {
            if ticket
                .wait()
                .is_ok_and(|served| expected90[index].matches(&served.response))
            {
                answered_as_expected += 1;
            }
        };
        for (index, image) in requests.iter().enumerate() {
            if in_flight.len() == OUTSTANDING {
                settle(in_flight.pop_front().expect("queue is full"));
            }
            let request = InferenceRequest::new(index as u64, image.clone());
            if let Ok(ticket) = handle.submit(0, request) {
                in_flight.push_back((index, ticket));
            }
        }
        in_flight.into_iter().for_each(&mut settle);
        if answered_as_expected != POOL {
            violations.push(format!(
                "{} warm-up requests through the server differ from the reference",
                POOL - answered_as_expected
            ));
        }
        let started = Instant::now();
        let (mut serve, _) = server
            .shutdown()
            .unwrap_or_else(|e: CoreError| panic!("warm-up server failed: {e}"));
        let server_shutdown_ms = started.elapsed().as_secs_f64() * 1e3;

        for engine in [&mut serve, &mut offline, &mut appeal, &mut q8] {
            engine.reset_stats();
        }

        let big_losses = big_model_losses_with_policy(
            &mut fixture.prepared.models.big.clone(),
            &fixture.pair.train,
            OFFLINE_BATCH,
            &ChunkPolicy::runtime(),
        );

        // The simulator feeds its nodes seeded noise frames; put δ at the
        // median score of such frames so about half of them appeal.
        let mut rng = SeededRng::new(fixture.seed ^ 0xF1EE7);
        let shape = [
            FLEET_CALIBRATION_FRAMES,
            images.shape()[1],
            images.shape()[2],
            images.shape()[3],
        ];
        let frames = Tensor::randn(&shape, &mut rng);
        let scores = QScorer::new(fixture.prepared.models.appealnet.clone())
            .evaluate(&frames)
            .scores;
        let scores: Vec<f64> = scores.into_iter().map(f64::from).collect();
        let fleet_delta = stats::median(&scores).clamp(0.0, 1.0);
        let fleet_planned_sr =
            scores.iter().filter(|s| **s >= fleet_delta).count() as f64 / scores.len() as f64;

        Ready {
            policy90: policy,
            fleet_delta,
            fleet_planned_sr,
            requests,
            batches,
            serve: Some(serve),
            appeal: Some(appeal),
            offline: Some(offline),
            q8: Some(q8),
            expected90,
            expected_appeal,
            expected_q8,
            big_losses,
            server_start_ms,
            server_shutdown_ms,
            quantize_ms,
            violations,
        }
    }
}

fn reference_pass(engine: &mut Engine, batches: &[(Tensor, Range<usize>)]) -> Vec<Expected> {
    batches
        .iter()
        .flat_map(|(images, _)| {
            engine
                .classify_batch(images)
                .expect("pool batches have the engine's input shape")
        })
        .map(|r| Expected::of(&r))
        .collect()
}

/// Eq. 13 over the pool: share of expected answers equal to the true label.
pub fn accuracy_of(expected: &[Expected], labels: &[usize]) -> f64 {
    let correct = expected
        .iter()
        .zip(labels)
        .filter(|(e, y)| e.label == **y)
        .count();
    correct as f64 / expected.len() as f64
}
