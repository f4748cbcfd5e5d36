//! Per-layer probes: each public entry point of a layer timed alone, on the
//! trained models and the pool images, from outside the program. They run
//! only with tracing on and do not depend on the workload.
//!
//! Every probe reports the median of repeated calls. Byte counts behind the
//! `gbps` rows are computed from shapes, not observed.

use crate::setup::{Fixture, Ready, MAX_BATCH, OFFLINE_BATCH, POOL, ROUND_SAMPLES};
use crate::stats;
use crate::trace::LayerStack;
use appeal_hw::{StochasticLink, SystemModel};
use appeal_tensor::kernels::{self, naive, GemmInit, PackScratch, QuantScratch};
use appeal_tensor::quant::QuantMatrix;
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::parallel::{self, ChunkPolicy};
use appealnet_core::serve::{QScorer, RoutingContext, RoutingPolicy, Scorer};
use appealnet_core::training::{evaluate_classifier_with_policy, train_classifier, TrainerConfig};
use appealnet_core::InferenceRequest;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(M, K, N)` of the four highest-FLOP GEMMs each network issues per sample
/// (`appeal_models::builder` at width 1.0 on 12×12 inputs: a convolution is
/// `out_c × in_c·k·k × oh·ow`), plus the conventional cube.
pub const LITTLE_GEMMS: [(usize, usize, usize); 4] =
    [(8, 27, 144), (16, 16, 36), (16, 8, 36), (24, 16, 9)];
pub const BIG_GEMMS: [(usize, usize, usize); 4] =
    [(12, 108, 144), (24, 216, 36), (40, 360, 9), (24, 108, 36)];
pub const CUBE: (usize, usize, usize) = (128, 128, 128);
/// The little network's GEMMs as the Q8 path runs them: transposed,
/// `oh·ow × in_c·k·k × out_c`.
pub const LITTLE_QUANT_GEMMS: [(usize, usize, usize); 4] =
    [(144, 27, 8), (36, 16, 16), (36, 8, 16), (9, 16, 24)];

pub fn gemm_metric((m, k, n): (usize, usize, usize)) -> String {
    format!("kernels.gemm.{m}x{k}x{n}.gflops")
}

pub fn quant_gemm_metric((m, k, n): (usize, usize, usize)) -> String {
    format!("kernels.quant_gemm.{m}x{k}x{n}.gops")
}

/// Median seconds per call of `f`, over at least `min_calls` calls and about
/// `budget` of wall time.
fn per_call(min_calls: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and scratch arenas
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_calls || started.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

const SHORT: Duration = Duration::from_millis(15);
const LONG: Duration = Duration::from_millis(60);

fn random(len: usize, rng: &mut SeededRng) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// The pool as tensors of `size` rows each (whole batches only).
fn pool_batches(images: &Tensor, size: usize, limit: usize) -> Vec<Tensor> {
    (0..POOL / size)
        .take(limit)
        .map(|b| images.select_rows(&(b * size..(b + 1) * size).collect::<Vec<_>>()))
        .collect()
}

/// Mean µs per call of `f` over one cycle through `inputs`, median of cycles.
fn cycle_us<T>(inputs: &[T], budget: Duration, mut f: impl FnMut(&T)) -> f64 {
    per_call(3, budget, || inputs.iter().for_each(&mut f)) * 1e6 / inputs.len() as f64
}

/// Runs every workload-independent probe.
pub fn run(fixture: &Fixture, ready: &mut Ready) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let images = fixture.pair.test.images();
    let models = &fixture.prepared.models;
    let singles = pool_batches(images, 1, POOL);
    let eights = pool_batches(images, MAX_BATCH, POOL / MAX_BATCH);
    let fulls = pool_batches(images, OFFLINE_BATCH, POOL / OFFLINE_BATCH);

    // engine: submit (queue only), classify at three batch sizes.
    let engine = ready.serve.as_mut().expect("the set-up built this engine");
    let mut submits = Vec::new();
    for (i, image) in ready.requests.iter().enumerate() {
        let request = InferenceRequest::new(i as u64, image.clone());
        let t = Instant::now();
        let flushed = engine.submit(request).expect("pool images fit the engine");
        if flushed.is_none() {
            submits.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    put("engine.submit_us", stats::median(&submits));
    let classify = |engine: &mut appealnet_core::Engine, batch: &Tensor| {
        black_box(
            engine
                .classify_batch(batch)
                .expect("pool batches fit the engine"),
        );
    };
    let b1 = cycle_us(&singles, LONG, |b| classify(engine, b));
    let b8 = cycle_us(&eights, LONG, |b| classify(engine, b));
    put("engine.classify_b1_us", b1);
    put("engine.classify_b8_us", b8);
    put(
        "engine.classify_b128_us",
        cycle_us(&fulls, LONG, |b| classify(engine, b)),
    );
    put("engine.batch_scaling", b8 / (MAX_BATCH as f64 * b1));
    engine.reset_stats();

    // scorer, policy, parallel: the engine's stages called directly.
    let mut scorer = QScorer::new(models.appealnet.clone());
    let scorer_b8 = cycle_us(&eights, LONG, |b| {
        black_box(scorer.evaluate(b));
    });
    put(
        "scorer.eval_b1_us",
        cycle_us(&singles, LONG, |b| {
            black_box(scorer.evaluate(b));
        }),
    );
    put("scorer.eval_b8_us", scorer_b8);
    put(
        "scorer.eval_b128_us",
        cycle_us(&fulls, LONG, |b| {
            black_box(scorer.evaluate(b));
        }),
    );

    let mut policy = ready.policy90;
    let ctx = RoutingContext {
        edge_cost: engine.edge_cost(),
        offload_cost: engine.offload_cost(),
    };
    let scores: Vec<f32> = ready
        .expected90
        .iter()
        .map(|e| f32::from_bits(e.score_bits))
        .collect();
    let decide_all = per_call(50, SHORT, || {
        for &s in &scores {
            black_box(policy.decide(black_box(s), &ctx));
        }
    });
    put("policy.decide_ns", decide_all * 1e9 / scores.len() as f64);

    let chunk = ChunkPolicy::runtime();
    let mut big = models.big.clone();
    let mut big_us = |batches: &[Tensor], budget| {
        cycle_us(batches, budget, |b| {
            black_box(parallel::classifier_logits(
                &mut big,
                b,
                b.shape()[0],
                &chunk,
            ));
        })
    };
    put("parallel.big_b1_us", big_us(&singles[..64], LONG));
    put("parallel.big_b8_us", big_us(&eights[..16], LONG));
    put("parallel.big_b128_us", big_us(&fulls[..2], LONG));
    put(
        "parallel.shards_b128",
        chunk.shard_count(OFFLINE_BATCH) as f64,
    );

    // engine self time at batch 8: the engine's call minus its stages run
    // by hand on the same rows (the routes come from the reference).
    let mut stages_us = Vec::new();
    let mut whole_us = Vec::new();
    for (b, batch) in eights.iter().enumerate() {
        let rows: Vec<usize> = (0..MAX_BATCH)
            .filter(|i| ready.expected90[b * MAX_BATCH + i].cloud)
            .collect();
        let t = Instant::now();
        black_box(scorer.evaluate(batch));
        for i in 0..MAX_BATCH {
            black_box(policy.decide(scores[b * MAX_BATCH + i], &ctx));
        }
        if !rows.is_empty() {
            let selected = batch.select_rows(&rows);
            black_box(parallel::classifier_logits(
                &mut big,
                &selected,
                rows.len(),
                &chunk,
            ));
        }
        stages_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        classify(engine, batch);
        whole_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    engine.reset_stats();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    put("engine.self_us_b8", mean(&whole_us) - mean(&stages_us));

    // layers: every top-level layer alone at batch 8, fed its predecessor's
    // output.
    let stacks = [
        LayerStack::little(&models.baseline, fixture.seed, false),
        LayerStack::big(&models.big),
    ];
    for mut stack in stacks {
        for (name, us) in layer_times(&mut stack, &eights[0]) {
            put(&name, us);
        }
    }

    // kernels.
    let mut rng = SeededRng::new(fixture.seed ^ 0x6e44);
    let mut packs = PackScratch::new();
    let mut gemm_seconds = |(m, k, n): (usize, usize, usize), rng: &mut SeededRng| {
        let (a, b) = (random(m * k, rng), random(k * n, rng));
        let mut c = vec![0.0f32; m * n];
        per_call(200, SHORT, || {
            kernels::gemm_into(
                m,
                k,
                n,
                black_box(&a),
                black_box(&b),
                GemmInit::Zero,
                &mut c,
                &mut packs,
            );
            black_box(&c);
        })
    };
    for shape in LITTLE_GEMMS.into_iter().chain(BIG_GEMMS).chain([CUBE]) {
        let seconds = gemm_seconds(shape, &mut rng);
        put(
            &gemm_metric(shape),
            2.0 * (shape.0 * shape.1 * shape.2) as f64 / seconds / 1e9,
        );
    }
    let (m, k, n) = CUBE;
    let (a, b) = (random(m * k, &mut rng), random(k * n, &mut rng));
    let naive_seconds = per_call(20, SHORT, || {
        black_box(naive::matmul_naive(m, k, n, black_box(&a), black_box(&b)));
    });
    put(
        "kernels.gemm.vs_naive",
        naive_seconds / gemm_seconds(CUBE, &mut rng),
    );

    let mut quant = QuantScratch::new();
    for shape in LITTLE_QUANT_GEMMS {
        let (m, k, n) = shape;
        let a = random(m * k, &mut rng);
        let w = QuantMatrix::from_rows(&random(n * k, &mut rng), n, k);
        let mut c = vec![0.0f32; m * n];
        let seconds = per_call(200, SHORT, || {
            kernels::quant_gemm_into(m, k, n, black_box(&a), &w, None, None, &mut c, &mut quant);
            black_box(&c);
        });
        put(
            &quant_gemm_metric(shape),
            2.0 * (m * k * n) as f64 / seconds / 1e9,
        );
    }

    // im2col of the big network's dominant convolution (12 channels, 12×12,
    // 3×3, stride 1, padding 1); bytes are input read + columns written.
    let (c, h, w, kk) = (12usize, 12usize, 12usize, 3usize);
    let x = random(c * h * w, &mut rng);
    let mut cols = vec![0.0f32; c * kk * kk * h * w];
    let seconds = per_call(200, SHORT, || {
        kernels::im2col(black_box(&x), c, h, w, kk, 1, 1, h, w, &mut cols);
        black_box(&cols);
    });
    put(
        "kernels.im2col.gbps",
        ((x.len() + cols.len()) * 4) as f64 / seconds / 1e9,
    );
    let src = random(1 << 16, &mut rng);
    let mut dst = vec![0.0f32; src.len()];
    let seconds = per_call(200, SHORT, || {
        kernels::elementwise::relu_fwd(black_box(&src), &mut dst);
        black_box(&dst);
    });
    put(
        "kernels.relu.gbps",
        (2 * src.len() * 4) as f64 / seconds / 1e9,
    );

    // quant: the Q8 little network against the f32 one, within this run.
    let mut qnet = models.appealnet.clone();
    qnet.quantize_weights();
    qnet.calibrate_activation_scales(images, OFFLINE_BATCH);
    let mut qscorer = QScorer::new(qnet);
    let q8 = cycle_us(&eights, LONG, |b| {
        black_box(qscorer.evaluate(b));
    });
    put("quant.eval_b8_us", q8);
    put("quant.q8_over_f32", q8 / scorer_b8);
    put("quant.quantize_ms", ready.quantize_ms);

    // hw: the cost model and the link sampler the fleet simulator calls.
    let system = SystemModel::typical();
    let prepared = &fixture.prepared;
    let calls = 1000;
    let seconds = per_call(50, SHORT, || {
        for _ in 0..calls {
            black_box(system.offload_cost(
                black_box(prepared.little_flops),
                prepared.big_flops,
                prepared.input_bytes,
            ));
        }
    });
    put("hw.cost_ns", seconds * 1e9 / calls as f64);
    let link = StochasticLink::lte();
    let seconds = per_call(50, SHORT, || {
        for _ in 0..calls {
            black_box(link.sample_transmit_ms(prepared.input_bytes, 1.0, &mut rng));
        }
    });
    put("hw.link_sample_ns", seconds * 1e9 / calls as f64);
    out
}

/// µs per top-level layer of `stack` on `batch`, median over repeats.
fn layer_times(stack: &mut LayerStack, batch: &Tensor) -> Vec<(String, f64)> {
    const REPEATS: usize = 40;
    let names: Vec<String> = stack
        .layer_names()
        .iter()
        .map(|n| format!("layers.{}.{n}.us", stack.net))
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(REPEATS); names.len()];
    for _ in 0..=REPEATS {
        let mut slot = 0;
        let mut chain = |layers: &mut [crate::trace::NamedLayer], input: &Tensor| {
            let mut current: Option<Tensor> = None;
            for named in layers.iter_mut() {
                let x = current.as_ref().unwrap_or(input);
                let t = Instant::now();
                let y = named.layer.forward(black_box(x), false);
                samples[slot].push(t.elapsed().as_secs_f64() * 1e6);
                slot += 1;
                current = Some(y);
            }
            current.expect("every container has at least one layer")
        };
        let features = chain(&mut stack.backbone, batch);
        chain(&mut stack.head, &features);
        if !stack.predictor.is_empty() {
            chain(&mut stack.predictor, &features);
        }
    }
    // The first repeat warmed the scratch arenas.
    names
        .into_iter()
        .zip(samples)
        .map(|(name, s)| (name, stats::median(&s[1..])))
        .collect()
}

/// Probes that only the `train` workload has on its path: one epoch of the
/// little baseline and one evaluation pass over the test split.
pub fn training(fixture: &Fixture) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let (data, _) = fixture.pair.train.split_at(ROUND_SAMPLES);
    let mut config = TrainerConfig::new(1, 48, 0.08);
    config.seed = fixture.seed ^ 0x117;
    let mut little = fixture.prepared.models.baseline.clone();
    let t = Instant::now();
    black_box(train_classifier(&mut little, &data, &config));
    out.insert(
        "training.little_epoch_s".to_string(),
        t.elapsed().as_secs_f64(),
    );
    let mut big = fixture.prepared.models.big.clone();
    let seconds = per_call(3, LONG, || {
        black_box(evaluate_classifier_with_policy(
            &mut big,
            &fixture.pair.test,
            OFFLINE_BATCH,
            &ChunkPolicy::runtime(),
        ));
    });
    out.insert("training.eval_pass_s".to_string(), seconds);
    out
}

/// Every metric name [`run`] and [`training`] can emit, without running
/// them; `BENCHMARK.json` must list exactly these (see the tests).
pub fn names(little: &[String], big: &[String]) -> Vec<String> {
    let fixed = [
        "engine.submit_us",
        "engine.classify_b1_us",
        "engine.classify_b8_us",
        "engine.classify_b128_us",
        "engine.batch_scaling",
        "engine.self_us_b8",
        "scorer.eval_b1_us",
        "scorer.eval_b8_us",
        "scorer.eval_b128_us",
        "policy.decide_ns",
        "parallel.big_b1_us",
        "parallel.big_b8_us",
        "parallel.big_b128_us",
        "parallel.shards_b128",
        "kernels.gemm.vs_naive",
        "kernels.im2col.gbps",
        "kernels.relu.gbps",
        "quant.eval_b8_us",
        "quant.q8_over_f32",
        "quant.quantize_ms",
        "hw.cost_ns",
        "hw.link_sample_ns",
        "training.little_epoch_s",
        "training.eval_pass_s",
    ];
    fixed
        .iter()
        .map(|s| s.to_string())
        .chain(
            LITTLE_GEMMS
                .into_iter()
                .chain(BIG_GEMMS)
                .chain([CUBE])
                .map(gemm_metric),
        )
        .chain(LITTLE_QUANT_GEMMS.into_iter().map(quant_gemm_metric))
        .chain(little.iter().map(|n| format!("layers.little.{n}.us")))
        .chain(big.iter().map(|n| format!("layers.big.{n}.us")))
        .collect()
}
