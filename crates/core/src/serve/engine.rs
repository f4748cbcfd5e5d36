//! The request/response serving engine.
//!
//! [`Engine`] owns an edge [`Scorer`], the big cloud model, a
//! [`RoutingPolicy`] and a hardware [`SystemModel`], and serves
//! [`InferenceRequest`]s: single requests are queued and transparently
//! micro-batched through the sharded parallel evaluation path, whole batches
//! go straight through it. Every answer is a structured
//! [`InferenceResponse`] (label, score, route, cost), and the engine keeps
//! cumulative [`EngineStats`] — throughput, skipping rate (Eq. 11), cost
//! totals (Eq. 15) — for the lifetime of the deployment.

use crate::error::{CoreError, CoreResult};
use crate::parallel::{self, ChunkPolicy};
use crate::scores::ScoreKind;
use crate::serve::policy::{Route, RoutingContext, RoutingPolicy, ThresholdPolicy};
use crate::serve::scorer::{ConfidenceScorer, QScorer, Scorer};
use crate::two_head::TwoHeadNet;
use appeal_hw::{InferenceCost, SystemModel};
use appeal_models::ClassifierParts;
use appeal_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One classification request: an id chosen by the caller and a single image
/// of shape `[c, h, w]` (or `[1, c, h, w]`).
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The input image.
    pub image: Tensor,
}

impl InferenceRequest {
    /// Creates a request.
    pub fn new(id: u64, image: Tensor) -> Self {
        Self { id, image }
    }
}

/// The engine's answer to one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResponse {
    /// The id of the request this answers.
    pub id: u64,
    /// Predicted class label.
    pub label: usize,
    /// The edge scorer's routing score for this input.
    pub score: f32,
    /// Where the request was answered.
    pub route: Route,
    /// Cost charged for this request (Eq. 5: `c1` on the edge, `c0` offloaded).
    pub cost: InferenceCost,
}

/// Cumulative serving statistics.
///
/// The `Debug` representation additionally reports the kernel ISA the
/// process dispatched to (`appeal_tensor::kernels::active_isa`) and the
/// numeric contract the edge scorer's outputs follow
/// (`appeal_tensor::kernels::numeric_contract`, or `quantized_contract` for a
/// Q8_0 edge tier), so logged throughput numbers are always attributable to a
/// compute backend *and* a numeric guarantee.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests answered.
    pub requests: u64,
    /// Batches executed (micro-batches and direct batches alike).
    pub batches: u64,
    /// Requests answered on the edge.
    pub edge_handled: u64,
    /// Requests appealed to the cloud.
    pub offloaded: u64,
    /// Total cost charged across all requests.
    pub total_cost: InferenceCost,
    /// Wall-clock seconds spent inside batch execution.
    pub busy_seconds: f64,
    /// `true` when the edge scorer runs on the quantized (Q8_0) weight tier,
    /// so its outputs follow the "quantized-tolerance" numeric contract.
    pub edge_quantized: bool,
}

impl std::fmt::Debug for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineStats")
            .field("requests", &self.requests)
            .field("batches", &self.batches)
            .field("edge_handled", &self.edge_handled)
            .field("offloaded", &self.offloaded)
            .field("total_cost", &self.total_cost)
            .field("busy_seconds", &self.busy_seconds)
            .field("kernel_isa", &appeal_tensor::kernels::active_isa().name())
            .field(
                "numeric_contract",
                &numeric_contract_label(self.edge_quantized),
            )
            .finish()
    }
}

/// The numeric contract for debug output. A quantized edge scorer reports
/// the "quantized-tolerance" contract instead of the f32 one: its GEMMs run
/// the int8 path, which is bit-identical on every ISA, so scores differ from
/// an f32 edge pass only by bounded quantization error.
fn numeric_contract_label(quantized: bool) -> &'static str {
    if quantized {
        appeal_tensor::kernels::quantized_contract().name()
    } else {
        appeal_tensor::kernels::numeric_contract().name()
    }
}

impl EngineStats {
    fn zero() -> Self {
        Self {
            requests: 0,
            batches: 0,
            edge_handled: 0,
            offloaded: 0,
            total_cost: InferenceCost::zero(),
            busy_seconds: 0.0,
            edge_quantized: false,
        }
    }

    /// Observed skipping rate SR (Eq. 11); 0 before any request.
    pub fn skipping_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.edge_handled as f64 / self.requests as f64
        }
    }

    /// Observed appealing rate AR (Eq. 12); 0 before any request.
    pub fn appealing_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.offloaded as f64 / self.requests as f64
        }
    }

    /// Requests per second of busy time; 0 before any work was timed.
    ///
    /// Never returns NaN or infinity: a deserialized or hand-built stats
    /// value with zero, negative or non-finite `busy_seconds` reports 0
    /// instead of poisoning downstream aggregates.
    pub fn throughput_rps(&self) -> f64 {
        if self.busy_seconds.is_finite() && self.busy_seconds > 0.0 {
            self.requests as f64 / self.busy_seconds
        } else {
            0.0
        }
    }

    /// Mean number of requests per executed batch; 0 before any batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Checks that `shape` is `[c, h, w]` (or `[1, c, h, w]`) for the expected
/// per-sample input shape. Shared by [`Engine::validate_request`] and the
/// serving front-end's client-side admission check.
pub(crate) fn check_sample_shape(shape: &[usize], expected: &[usize; 3]) -> CoreResult<()> {
    let per_sample: &[usize] = match shape.len() {
        3 => shape,
        4 if shape[0] == 1 => &shape[1..],
        _ => {
            return Err(CoreError::ShapeMismatch {
                expected: expected.to_vec(),
                got: shape.to_vec(),
            })
        }
    };
    if per_sample != expected {
        return Err(CoreError::ShapeMismatch {
            expected: expected.to_vec(),
            got: shape.to_vec(),
        });
    }
    Ok(())
}

enum PendingScorer {
    Built(Box<dyn Scorer>),
    Confidence(Box<ClassifierParts>, ScoreKind),
}

/// Assembles an [`Engine`] from its parts.
///
/// Required: an edge scorer ([`appealnet`](EngineBuilder::appealnet),
/// [`confidence`](EngineBuilder::confidence) or a custom
/// [`scorer`](EngineBuilder::scorer)) and the [`big`](EngineBuilder::big)
/// cloud model. Everything else has serving-grade defaults: Eq. 1 with
/// δ = 0.5, [`SystemModel::typical`], the runtime [`ChunkPolicy`] and a
/// micro-batch capacity of 32.
pub struct EngineBuilder {
    scorer: Option<PendingScorer>,
    big: Option<ClassifierParts>,
    policy: Option<Box<dyn RoutingPolicy>>,
    hardware: SystemModel,
    chunk: ChunkPolicy,
    max_batch: usize,
}

impl EngineBuilder {
    /// Starts a builder with the defaults described on the type.
    pub fn new() -> Self {
        Self {
            scorer: None,
            big: None,
            policy: None,
            hardware: SystemModel::typical(),
            chunk: ChunkPolicy::runtime(),
            max_batch: 32,
        }
    }

    /// Uses the jointly trained two-head network as the edge model (the
    /// routing score is the predictor output `q(1|x)`).
    pub fn appealnet(mut self, net: TwoHeadNet) -> Self {
        self.scorer = Some(PendingScorer::Built(Box::new(QScorer::new(net))));
        self
    }

    /// Uses a plain little classifier with a confidence-score baseline
    /// (MSP / score margin / entropy) as the edge model.
    pub fn confidence(mut self, model: ClassifierParts, kind: ScoreKind) -> Self {
        self.scorer = Some(PendingScorer::Confidence(Box::new(model), kind));
        self
    }

    /// Uses a custom [`Scorer`] implementation as the edge model.
    pub fn scorer(mut self, scorer: impl Scorer + 'static) -> Self {
        self.scorer = Some(PendingScorer::Built(Box::new(scorer)));
        self
    }

    /// Sets the big cloud model.
    pub fn big(mut self, big: ClassifierParts) -> Self {
        self.big = Some(big);
        self
    }

    /// Sets the routing policy (default: Eq. 1 with δ = 0.5).
    pub fn policy(mut self, policy: impl RoutingPolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Sets the hardware cost model (default: [`SystemModel::typical`]).
    /// Describe the f32 deployment: a quantized scorer is priced on
    /// [`SystemModel::with_quantized_edge`] of it by [`Self::build`].
    pub fn hardware(mut self, hardware: SystemModel) -> Self {
        self.hardware = hardware;
        self
    }

    /// Sets the batch-sharding policy (default: [`ChunkPolicy::runtime`];
    /// use [`ChunkPolicy::sequential`] to force single-threaded execution).
    pub fn chunk_policy(mut self, chunk: ChunkPolicy) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets how many queued requests trigger an automatic flush (default 32).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Builds the engine.
    ///
    /// Errors with [`CoreError::MissingComponent`] if the scorer or big model
    /// is unset, [`CoreError::InvalidScoreKind`] for a confidence scorer over
    /// [`ScoreKind::AppealNetQ`], and [`CoreError::InvalidMaxBatch`] for a
    /// zero micro-batch capacity.
    pub fn build(self) -> CoreResult<Engine> {
        if self.max_batch == 0 {
            return Err(CoreError::InvalidMaxBatch);
        }
        let scorer = match self.scorer.ok_or(CoreError::MissingComponent("scorer"))? {
            PendingScorer::Built(s) => s,
            PendingScorer::Confidence(model, kind) => {
                Box::new(ConfidenceScorer::new(*model, kind)?) as Box<dyn Scorer>
            }
        };
        let big = self.big.ok_or(CoreError::MissingComponent("big model"))?;
        let policy = match self.policy {
            Some(p) => p,
            None => Box::new(ThresholdPolicy::new(0.5)?),
        };
        let input_shape = scorer.input_shape();
        let scorer_quantized = scorer.is_quantized();
        let input_bytes = (input_shape.iter().product::<usize>() * 4) as u64;
        // A quantized edge scorer runs on the int8 tier's faster, thriftier
        // edge device; FLOP counts are identical, so Eq. 5/15 comparisons
        // stay in the paper's unit either way.
        let hardware = if scorer_quantized {
            self.hardware.with_quantized_edge()
        } else {
            self.hardware
        };
        let edge_cost = hardware.edge_only_cost(scorer.flops());
        let offload_cost = hardware.offload_cost(scorer.flops(), big.total_flops(), input_bytes);
        Ok(Engine {
            scorer,
            workers: Vec::new(),
            big,
            policy,
            hardware,
            chunk: self.chunk,
            max_batch: self.max_batch,
            input_shape,
            edge_cost,
            offload_cost,
            pending_ids: Vec::new(),
            pending_data: Vec::new(),
            next_id: 0,
            stats: EngineStats {
                edge_quantized: scorer_quantized,
                ..EngineStats::zero()
            },
        })
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A policy-driven edge/cloud serving engine.
///
/// Single requests are queued by [`submit`](Engine::submit) and flushed as
/// one micro-batch once `max_batch` of them accumulate (or explicitly via
/// [`flush`](Engine::flush)); whole tensors go through
/// [`classify_batch`](Engine::classify_batch). Either way the batch takes the
/// same two-stage path: the edge scorer runs over every input — sharded
/// across per-worker scorer replicas per the [`ChunkPolicy`] — then the
/// policy decides each input **in input order** (so stateful policies stay
/// deterministic), and the big network runs one internally sharded pass over
/// the offloaded subset. Per-sample results are bit-identical across chunk
/// policies, batch sizes and thread counts.
///
/// # Hot-path allocations
///
/// Every forward pass the engine issues runs in eval mode, so the layers
/// under `appeal_tensor` skip their training-only activation caches. Scratch
/// is per *thread*, not per layer or model: each kernel draws what it needs
/// from the calling thread's arena
/// (`appeal_tensor::kernels::with_thread_scratch`) — a convolution its
/// zero-padded image (no im2col matrix, f32 or Q8), a dense layer its GEMM
/// packing panels — and the
/// submitting thread and every persistent batch-shard worker keep their
/// arenas' high-water buffers between requests. What a convolution does own
/// is derived state, not scratch: its window table and its packed weight
/// panels, built on the first eval forward and kept. After warm-up,
/// steady-state `submit` traffic performs zero scratch allocations, packs no
/// weights and builds no table — pinned by the counter guard in
/// `tests/hot_path_allocations.rs` against
/// `appeal_tensor::kernels::scratch_stats`.
pub struct Engine {
    scorer: Box<dyn Scorer>,
    /// Lazily forked scorer replicas, one per worker thread. Only the edge
    /// scorer is retained per worker: the big network is >10× its size and
    /// shards its pass with transient replicas instead.
    workers: Vec<Box<dyn Scorer>>,
    big: ClassifierParts,
    policy: Box<dyn RoutingPolicy>,
    hardware: SystemModel,
    chunk: ChunkPolicy,
    max_batch: usize,
    input_shape: [usize; 3],
    edge_cost: InferenceCost,
    offload_cost: InferenceCost,
    pending_ids: Vec<u64>,
    pending_data: Vec<f32>,
    next_id: u64,
    stats: EngineStats,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine(scorer={}, policy={}, pending={}, requests={}, kernel_isa={}, contract={})",
            self.scorer.kind(),
            self.policy.name(),
            self.pending_ids.len(),
            self.stats.requests,
            appeal_tensor::kernels::active_isa(),
            numeric_contract_label(self.scorer.is_quantized())
        )
    }
}

impl Engine {
    /// Starts an [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Queues one request; returns the answered micro-batch once `max_batch`
    /// requests have accumulated, `None` while the queue is still filling.
    ///
    /// Errors with [`CoreError::ShapeMismatch`] if the request image is not
    /// `[c, h, w]` (or `[1, c, h, w]`) for the scorer's input shape.
    pub fn submit(
        &mut self,
        request: InferenceRequest,
    ) -> CoreResult<Option<Vec<InferenceResponse>>> {
        // Validate *before* touching either pending buffer: a rejected
        // request must leave the queue exactly as it was, or the next flush
        // would assemble a batch tensor from desynchronized ids and data.
        self.validate_request(&request)?;
        // Grow the data buffer first, then the id list: the id push is the
        // single point after which the request counts as queued, so a panic
        // unwinding between the two lines leaves orphan floats that the
        // flush-time consistency check below detects and drops.
        self.pending_data.extend_from_slice(request.image.data());
        self.pending_ids.push(request.id);
        if self.pending_ids.len() >= self.max_batch {
            return Ok(Some(self.flush()?));
        }
        Ok(None)
    }

    /// Checks one request against the scorer's input shape without mutating
    /// any engine state.
    ///
    /// Errors with [`CoreError::ShapeMismatch`] if the image is not
    /// `[c, h, w]` (or `[1, c, h, w]`). The serving front-end
    /// ([`crate::server`]) calls this on the client thread so malformed
    /// requests are rejected before they ever occupy queue capacity.
    pub fn validate_request(&self, request: &InferenceRequest) -> CoreResult<()> {
        check_sample_shape(request.image.shape(), &self.input_shape)
    }

    /// Answers every queued request as one micro-batch (empty queue → empty
    /// vec). Responses come back in submission order.
    ///
    /// The flush is transactional: the queue's id/data buffers are checked
    /// for consistency *before* either is taken, so an error cannot leave
    /// one emptied and the other populated. If they have desynchronized
    /// (possible only if a panic unwound mid-enqueue, since `submit`
    /// validates shapes up front), both buffers are dropped atomically and
    /// [`CoreError::CorruptQueue`] reports how many requests were lost —
    /// the engine is immediately serviceable again, and no later batch is
    /// silently built with the wrong `n`.
    pub fn flush(&mut self) -> CoreResult<Vec<InferenceResponse>> {
        if self.pending_ids.is_empty() {
            // Orphan data without ids is equally corrupt: drop it rather
            // than letting it prepend garbage samples to the next batch.
            if !self.pending_data.is_empty() {
                let got = self.pending_data.len();
                self.pending_data.clear();
                return Err(CoreError::CorruptQueue {
                    pending: 0,
                    expected: 0,
                    got,
                });
            }
            return Ok(Vec::new());
        }
        let n = self.pending_ids.len();
        let [c, h, w] = self.input_shape;
        let expected = n * c * h * w;
        if self.pending_data.len() != expected {
            let got = self.pending_data.len();
            self.pending_ids.clear();
            self.pending_data.clear();
            return Err(CoreError::CorruptQueue {
                pending: n,
                expected,
                got,
            });
        }
        let images = Tensor::from_vec(std::mem::take(&mut self.pending_data), &[n, c, h, w])
            .expect("pending_data length was checked against the batch shape");
        let ids = std::mem::take(&mut self.pending_ids);
        let result = self.run_batch(&images, &ids);
        // Hand both buffers back, emptied, so the next micro-batch fills the
        // capacity this one grew instead of regrowing it from zero.
        self.pending_data = images.into_vec();
        self.pending_data.clear();
        self.pending_ids = ids;
        self.pending_ids.clear();
        result
    }

    /// Classifies a whole `[n, c, h, w]` batch, assigning consecutive
    /// engine-generated request ids.
    ///
    /// Errors with [`CoreError::ShapeMismatch`] if the tensor is not rank 4
    /// with the scorer's per-sample input shape.
    pub fn classify_batch(&mut self, images: &Tensor) -> CoreResult<Vec<InferenceResponse>> {
        let shape = images.shape();
        if shape.len() != 4 || shape[1..] != self.input_shape {
            return Err(CoreError::ShapeMismatch {
                expected: self.input_shape.to_vec(),
                got: shape.to_vec(),
            });
        }
        let n = shape[0];
        let ids: Vec<u64> = (self.next_id..self.next_id + n as u64).collect();
        self.next_id += n as u64;
        self.run_batch(images, &ids)
    }

    /// The two-stage batch path shared by `flush` and `classify_batch`.
    fn run_batch(&mut self, images: &Tensor, ids: &[u64]) -> CoreResult<Vec<InferenceResponse>> {
        let started = Instant::now();
        let n = images.shape()[0];
        if n == 0 {
            return Ok(Vec::new());
        }
        // Stage 1: edge scorer over every input, sharded across retained
        // worker replicas when the chunk policy splits the batch.
        let (labels, scores) = self.edge_pass(images);
        // Policy decisions strictly in input order (stateful policies).
        let ctx = RoutingContext {
            edge_cost: self.edge_cost,
            offload_cost: self.offload_cost,
        };
        let routes: Vec<Route> = scores
            .iter()
            .map(|&s| self.policy.decide(s, &ctx))
            .collect();
        // Stage 2: one big-network pass over the offloaded subset, itself
        // sharded per the chunk policy (with transient replicas).
        let offload_idx: Vec<usize> = (0..n).filter(|&i| routes[i].is_cloud()).collect();
        let big_preds: Vec<usize> = if offload_idx.is_empty() {
            Vec::new()
        } else {
            // When every row appeals, the subset is the batch itself.
            let subset;
            let big_batch = if offload_idx.len() == n {
                images
            } else {
                subset = images.select_rows(&offload_idx);
                &subset
            };
            parallel::classifier_logits(&mut self.big, big_batch, offload_idx.len(), &self.chunk)
                .argmax_rows()
        };
        let mut big_iter = big_preds.into_iter();
        let responses: Vec<InferenceResponse> = (0..n)
            .map(|i| {
                let offloaded = routes[i].is_cloud();
                InferenceResponse {
                    id: ids[i],
                    label: if offloaded {
                        big_iter
                            .next()
                            .expect("one big prediction per offloaded input")
                    } else {
                        labels[i]
                    },
                    score: scores[i],
                    route: routes[i],
                    cost: if offloaded {
                        self.offload_cost
                    } else {
                        self.edge_cost
                    },
                }
            })
            .collect();
        self.stats.requests += n as u64;
        self.stats.batches += 1;
        for r in &responses {
            if r.route.is_cloud() {
                self.stats.offloaded += 1;
            } else {
                self.stats.edge_handled += 1;
            }
            self.stats.total_cost = self.stats.total_cost.add(&r.cost);
        }
        self.stats.busy_seconds += started.elapsed().as_secs_f64();
        Ok(responses)
    }

    /// Edge pass over the whole batch: labels and scores in input order.
    fn edge_pass(&mut self, images: &Tensor) -> (Vec<usize>, Vec<f32>) {
        let n = images.shape()[0];
        let shards = self.chunk.shards(n);
        if shards.len() <= 1 {
            let pass = self.scorer.evaluate(images);
            return (pass.labels, pass.scores);
        }
        while self.workers.len() < shards.len() {
            self.workers.push(self.scorer.fork());
        }
        let mut slots: Vec<(Vec<usize>, Vec<f32>)> = Vec::new();
        slots.resize_with(shards.len(), Default::default);
        rayon::scope(|s| {
            for ((worker, shard), slot) in self.workers.iter_mut().zip(shards).zip(slots.iter_mut())
            {
                s.spawn(move |_| {
                    let idx: Vec<usize> = shard.collect();
                    let pass = worker.evaluate(&images.select_rows(&idx));
                    *slot = (pass.labels, pass.scores);
                });
            }
        });
        let mut labels = Vec::with_capacity(n);
        let mut scores = Vec::with_capacity(n);
        for (shard_labels, shard_scores) in slots {
            labels.extend(shard_labels);
            scores.extend(shard_scores);
        }
        (labels, scores)
    }

    /// Number of requests waiting in the micro-batch queue.
    pub fn pending(&self) -> usize {
        self.pending_ids.len()
    }

    /// Number of queued requests that trigger an automatic flush.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The per-sample input shape `[c, h, w]` the edge scorer expects.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// Cumulative serving statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Resets the cumulative statistics (queued requests are kept).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats {
            edge_quantized: self.scorer.is_quantized(),
            ..EngineStats::zero()
        };
    }

    /// Replaces the routing policy; queued requests and stats are kept.
    pub fn set_policy(&mut self, policy: Box<dyn RoutingPolicy>) {
        self.policy = policy;
    }

    /// Name of the active routing policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The routing score the edge scorer produces.
    pub fn score_kind(&self) -> ScoreKind {
        self.scorer.kind()
    }

    /// Cost `c1` of answering one request on the edge.
    pub fn edge_cost(&self) -> InferenceCost {
        self.edge_cost
    }

    /// Cost `c0` of appealing one request to the cloud.
    pub fn offload_cost(&self) -> InferenceCost {
        self.offload_cost
    }

    /// The hardware cost model the engine charges against.
    pub fn hardware(&self) -> &SystemModel {
        &self.hardware
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::policy::BudgetPolicy;
    use appeal_hw::CostBudget;
    use appeal_models::{ModelFamily, ModelSpec};
    use appeal_tensor::SeededRng;

    fn tiny_models(classes: usize) -> (TwoHeadNet, ClassifierParts) {
        let mut rng = SeededRng::new(3);
        let little =
            ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], classes).build(&mut rng);
        let big = ModelSpec::big([3, 12, 12], classes).build(&mut rng);
        (TwoHeadNet::from_parts(little, &mut rng), big)
    }

    fn engine(max_batch: usize) -> Engine {
        engine_at(max_batch, 0.5)
    }

    fn engine_at(max_batch: usize, delta: f64) -> Engine {
        let (net, big) = tiny_models(4);
        Engine::builder()
            .appealnet(net)
            .big(big)
            .policy(ThresholdPolicy::new(delta).unwrap())
            .max_batch(max_batch)
            .build()
            .unwrap()
    }

    #[test]
    fn stats_debug_reports_kernel_isa_and_numeric_contract() {
        // Perf numbers logged from EngineStats must always be attributable
        // to a kernel dispatch path and a numeric tier.
        let engine = engine(1);
        let debug = format!("{:?}", engine.stats());
        assert!(
            debug.contains("kernel_isa"),
            "EngineStats debug output must name the kernel ISA: {debug}"
        );
        let isa = appeal_tensor::kernels::active_isa().name();
        assert!(debug.contains(isa), "expected {isa} in {debug}");
        let contract = appeal_tensor::kernels::numeric_contract().name();
        assert!(
            debug.contains("numeric_contract") && debug.contains(contract),
            "EngineStats debug output must name the numeric contract: {debug}"
        );
        assert!(!debug.contains("+fma"), "no fused marker expected: {debug}");
        let engine_debug = format!("{engine:?}");
        assert!(engine_debug.contains("kernel_isa"), "{engine_debug}");
        assert!(
            engine_debug.contains("contract=") && engine_debug.contains(contract),
            "{engine_debug}"
        );
    }

    #[test]
    fn quantized_scorer_reports_quantized_contract() {
        let (mut net, big) = tiny_models(4);
        net.quantize_weights();
        let mut engine = Engine::builder()
            .appealnet(net)
            .big(big)
            .policy(ThresholdPolicy::new(0.5).unwrap())
            .max_batch(2)
            .build()
            .unwrap();
        assert!(engine.stats().edge_quantized);
        let debug = format!("{:?}", engine.stats());
        assert!(
            debug.contains("quantized-tolerance"),
            "quantized edge must surface the quantized contract: {debug}"
        );
        let engine_debug = format!("{engine:?}");
        assert!(
            engine_debug.contains("quantized-tolerance"),
            "{engine_debug}"
        );
        // The quantized tier is charged the discounted edge cost (same
        // FLOPs, cheaper energy and latency).
        let f32_engine = super::tests::engine(2);
        assert_eq!(engine.edge_cost().flops, f32_engine.edge_cost().flops);
        assert!(engine.edge_cost().energy_mj < f32_engine.edge_cost().energy_mj);
        assert!(engine.offload_cost().latency_ms < f32_engine.offload_cost().latency_ms);
        // The flag survives a stats reset and the engine still serves.
        engine.reset_stats();
        assert!(engine.stats().edge_quantized);
        let mut rng = SeededRng::new(21);
        let images = Tensor::randn(&[3, 3, 12, 12], &mut rng);
        let responses = engine.classify_batch(&images).unwrap();
        assert_eq!(responses.len(), 3);
        assert!(responses.iter().all(|r| (0.0..=1.0).contains(&r.score)));
    }

    #[test]
    fn builder_requires_scorer_and_big_model() {
        let (net, big) = tiny_models(2);
        assert_eq!(
            Engine::builder().big(big.clone()).build().unwrap_err(),
            CoreError::MissingComponent("scorer")
        );
        assert_eq!(
            Engine::builder()
                .appealnet(net.clone())
                .build()
                .unwrap_err(),
            CoreError::MissingComponent("big model")
        );
        assert_eq!(
            Engine::builder()
                .appealnet(net.clone())
                .big(big.clone())
                .max_batch(0)
                .build()
                .unwrap_err(),
            CoreError::InvalidMaxBatch
        );
        assert_eq!(
            Engine::builder()
                .confidence(big.clone(), ScoreKind::AppealNetQ)
                .big(big)
                .build()
                .unwrap_err(),
            CoreError::InvalidScoreKind(ScoreKind::AppealNetQ)
        );
    }

    #[test]
    fn submit_micro_batches_at_capacity() {
        let mut engine = engine(3);
        let mut rng = SeededRng::new(8);
        let mut answered = Vec::new();
        for id in 0..7u64 {
            let image = Tensor::randn(&[3, 12, 12], &mut rng);
            if let Some(batch) = engine.submit(InferenceRequest::new(id, image)).unwrap() {
                answered.push(batch);
            }
        }
        // 7 requests at capacity 3: two automatic flushes, one leftover.
        assert_eq!(answered.len(), 2);
        assert_eq!(engine.pending(), 1);
        let tail = engine.flush().unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].id, 6);
        let stats = engine.stats();
        assert_eq!(stats.requests, 7);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.edge_handled + stats.offloaded, 7);
        assert!((stats.mean_batch_size() - 7.0 / 3.0).abs() < 1e-12);
        assert!(stats.total_cost.flops > 0);
        // Ids echo in submission order.
        assert_eq!(
            answered[0].iter().map(|r| r.id).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn flush_hands_its_batch_buffers_back_for_the_next_micro_batch() {
        let mut queued = engine(8);
        let mut whole = engine(8);
        let mut rng = SeededRng::new(24);
        let mut capacities = Vec::new();
        for round in 0..4u64 {
            let images = Tensor::randn(&[8, 3, 12, 12], &mut rng);
            let mut answered = None;
            for i in 0..8 {
                let request = InferenceRequest::new(round * 8 + i as u64, images.select_rows(&[i]));
                answered = queued.submit(request).unwrap();
            }
            let answered = answered.expect("the eighth submit flushes");
            assert_eq!(queued.pending(), 0);
            assert!(queued.pending_data.is_empty());
            capacities.push((
                queued.pending_data.capacity(),
                queued.pending_ids.capacity(),
            ));
            let reference = whole.classify_batch(&images).unwrap();
            assert_eq!(answered, reference, "round {round}");
            for (a, r) in answered.iter().zip(&reference) {
                assert_eq!(a.score.to_bits(), r.score.to_bits());
            }
        }
        let (data_cap, ids_cap) = capacities[0];
        assert!(data_cap >= 8 * 3 * 12 * 12 && ids_cap >= 8);
        assert!(
            capacities.iter().all(|&c| c == (data_cap, ids_cap)),
            "warm flushes must reuse the batch buffers: {capacities:?}"
        );
    }

    #[test]
    fn submit_rejects_wrong_shapes() {
        let mut engine = engine(4);
        let mut rng = SeededRng::new(9);
        let bad = Tensor::randn(&[3, 10, 12], &mut rng);
        assert!(matches!(
            engine.submit(InferenceRequest::new(0, bad)).unwrap_err(),
            CoreError::ShapeMismatch { .. }
        ));
        let batch_of_two = Tensor::randn(&[2, 3, 12, 12], &mut rng);
        assert!(engine
            .submit(InferenceRequest::new(0, batch_of_two))
            .is_err());
        // [1, c, h, w] is accepted.
        let singleton = Tensor::randn(&[1, 3, 12, 12], &mut rng);
        assert!(engine
            .submit(InferenceRequest::new(0, singleton))
            .unwrap()
            .is_none());
        // Batch path validates too.
        let bad_batch = Tensor::randn(&[4, 1, 12, 12], &mut rng);
        assert!(engine.classify_batch(&bad_batch).is_err());
    }

    #[test]
    fn classify_batch_matches_submit_path_bit_identically() {
        // These untrained scores lie in 0.81..0.96: δ = 0.5 keeps every row on
        // the edge, 0.9 offloads a subset (copied out of the batch) and 1.0
        // every row (the big network reads the batch itself).
        for (delta, offload_range) in [(0.5, 0..=0), (0.9, 1..=12), (1.0, 13..=13)] {
            let mut batch_engine = engine_at(64, delta);
            let mut submit_engine = engine_at(5, delta);
            let mut rng = SeededRng::new(10);
            let images = Tensor::randn(&[13, 3, 12, 12], &mut rng);
            let batch = batch_engine.classify_batch(&images).unwrap();
            let mut single = Vec::new();
            for i in 0..13 {
                let row = images.select_rows(&[i]);
                if let Some(answers) = submit_engine
                    .submit(InferenceRequest::new(i as u64, row))
                    .unwrap()
                {
                    single.extend(answers);
                }
            }
            single.extend(submit_engine.flush().unwrap());
            assert_eq!(batch.len(), single.len());
            let offloaded = batch.iter().filter(|r| r.route.is_cloud()).count();
            assert!(
                offload_range.contains(&offloaded),
                "δ = {delta}: {offloaded}"
            );
            for (a, b) in batch.iter().zip(single.iter()) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.route, b.route);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.cost, b.cost);
            }
        }
    }

    #[test]
    fn budget_policy_drains_deterministically_through_the_engine() {
        let (net, big) = tiny_models(4);
        let offload_cost = SystemModel::typical().offload_cost(
            net.flops(),
            big.total_flops(),
            (3 * 12 * 12 * 4) as u64,
        );
        // Budget for exactly two appeals: every later difficult input must
        // stay on the edge.
        let budget = CostBudget::energy_mj(offload_cost.energy_mj * 2.5);
        let mut engine = Engine::builder()
            .appealnet(net)
            .big(big)
            .policy(BudgetPolicy::new(1.0, budget).unwrap())
            .build()
            .unwrap();
        let mut rng = SeededRng::new(12);
        let images = Tensor::randn(&[9, 3, 12, 12], &mut rng);
        // δ = 1.0 wants to offload everything, so the first two go to the
        // cloud and the rest are forced onto the edge.
        let responses = engine.classify_batch(&images).unwrap();
        let cloud: Vec<bool> = responses.iter().map(|r| r.route.is_cloud()).collect();
        assert_eq!(cloud.iter().filter(|&&c| c).count(), 2);
        assert!(cloud[0] && cloud[1]);
        assert_eq!(engine.stats().offloaded, 2);
        assert_eq!(engine.policy_name(), "budget");
    }

    #[test]
    fn stats_rates_and_throughput() {
        let mut engine = engine(8);
        assert_eq!(engine.stats().skipping_rate(), 0.0);
        assert_eq!(engine.stats().throughput_rps(), 0.0);
        let mut rng = SeededRng::new(13);
        let images = Tensor::randn(&[6, 3, 12, 12], &mut rng);
        engine.classify_batch(&images).unwrap();
        let stats = *engine.stats();
        assert!((stats.skipping_rate() + stats.appealing_rate() - 1.0).abs() < 1e-12);
        assert!(stats.busy_seconds > 0.0);
        assert!(stats.throughput_rps() > 0.0);
        engine.reset_stats();
        assert_eq!(engine.stats().requests, 0);
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let mut engine = engine(4);
        assert!(engine.flush().unwrap().is_empty());
        assert_eq!(engine.stats().batches, 0);
    }

    /// Regression test for the flush error path: the pre-fix code
    /// `mem::take`'d `pending_data` *before* the fallible tensor build, so a
    /// desynchronized queue panicked (or, for a caller recovering from the
    /// unwind, left `pending_ids` populated against an emptied data buffer —
    /// every later flush then assembled a batch with the wrong `n` and
    /// silently mis-answered requests). Post-fix, flush validates before
    /// taking, drops both buffers atomically, reports a typed error, and the
    /// engine keeps serving correctly. On pre-fix code this test dies at the
    /// `from_vec(...).expect(...)` panic.
    #[test]
    fn flush_error_path_cannot_desynchronize_the_queue() {
        let mut engine = engine(8);
        let mut rng = SeededRng::new(21);
        let probe = Tensor::randn(&[1, 3, 12, 12], &mut rng);
        for id in 0..3u64 {
            let image = Tensor::randn(&[3, 12, 12], &mut rng);
            assert!(engine
                .submit(InferenceRequest::new(id, image))
                .unwrap()
                .is_none());
        }
        // Simulate the desync (ids present, data short) that a panic
        // unwinding mid-enqueue leaves behind.
        engine.pending_data.truncate(10);
        let err = engine.flush().unwrap_err();
        assert_eq!(
            err,
            CoreError::CorruptQueue {
                pending: 3,
                expected: 3 * 3 * 12 * 12,
                got: 10,
            }
        );
        // Both buffers were dropped together: the engine is consistent.
        assert_eq!(engine.pending(), 0);
        assert!(engine.pending_data.is_empty());
        assert!(engine.flush().unwrap().is_empty());
        assert_eq!(engine.stats().batches, 0, "no corrupt batch was executed");
        // And it still answers new traffic with the right batch size.
        let responses = engine.classify_batch(&probe).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(engine.stats().requests, 1);
    }

    #[test]
    fn flush_drops_orphan_data_without_ids() {
        let mut engine = engine(8);
        engine.pending_data.extend_from_slice(&[1.0; 7]);
        let err = engine.flush().unwrap_err();
        assert_eq!(
            err,
            CoreError::CorruptQueue {
                pending: 0,
                expected: 0,
                got: 7,
            }
        );
        assert!(engine.pending_data.is_empty());
        assert!(engine.flush().unwrap().is_empty());
    }

    #[test]
    fn rejected_submit_leaves_the_queue_untouched() {
        // A bad request must not poison the next micro-batch: validation
        // happens before either pending buffer is mutated.
        let mut engine = engine(8);
        let mut rng = SeededRng::new(22);
        let good = Tensor::randn(&[3, 12, 12], &mut rng);
        engine.submit(InferenceRequest::new(0, good)).unwrap();
        let data_len = engine.pending_data.len();
        let bad = Tensor::randn(&[3, 10, 12], &mut rng);
        assert!(engine.submit(InferenceRequest::new(1, bad)).is_err());
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.pending_data.len(), data_len);
        // The queued good request still flushes cleanly.
        let responses = engine.flush().unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].id, 0);
    }

    #[test]
    fn validate_request_matches_submit_acceptance() {
        let engine = engine(4);
        let mut rng = SeededRng::new(23);
        let ok3 = InferenceRequest::new(0, Tensor::randn(&[3, 12, 12], &mut rng));
        let ok4 = InferenceRequest::new(0, Tensor::randn(&[1, 3, 12, 12], &mut rng));
        let bad = InferenceRequest::new(0, Tensor::randn(&[2, 3, 12, 12], &mut rng));
        assert!(engine.validate_request(&ok3).is_ok());
        assert!(engine.validate_request(&ok4).is_ok());
        assert!(matches!(
            engine.validate_request(&bad).unwrap_err(),
            CoreError::ShapeMismatch { .. }
        ));
        assert_eq!(engine.input_shape(), [3, 12, 12]);
        assert_eq!(engine.max_batch(), 4);
    }

    #[test]
    fn throughput_is_finite_for_degenerate_busy_seconds() {
        let mut stats = EngineStats::zero();
        stats.requests = 10;
        assert_eq!(stats.throughput_rps(), 0.0, "zero busy time");
        stats.busy_seconds = f64::NAN;
        assert_eq!(stats.throughput_rps(), 0.0, "NaN busy time");
        stats.busy_seconds = f64::INFINITY;
        assert_eq!(stats.throughput_rps(), 0.0, "infinite busy time");
        stats.busy_seconds = -1.0;
        assert_eq!(stats.throughput_rps(), 0.0, "negative busy time");
        stats.busy_seconds = 2.0;
        assert_eq!(stats.throughput_rps(), 5.0);
    }
}
