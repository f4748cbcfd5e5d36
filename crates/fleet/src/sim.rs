//! The deterministic discrete-event simulator: N edge nodes and one cloud
//! tier advancing a shared virtual clock.
//!
//! Every source of time is virtual and every source of randomness is a
//! [`SeededRng`], so a run is a pure function of `(models, config, trace)`:
//! the event heap breaks timestamp ties by insertion sequence, link weather
//! is sampled in event order from one seeded stream, and request images are
//! pregenerated from the seed and addressed by request index (so the *same*
//! inputs flow through the system regardless of fleet size). Two runs with
//! the same seed are byte-identical; see `tests/fleet_determinism.rs`.
//!
//! One request's life:
//!
//! 1. **Arrival** — the trace event lands on its node (`client % nodes`) and
//!    queues behind the node's single-server compute FIFO.
//! 2. **Edge pass** — the little net + predictor head score the input; the
//!    routing policy (Eq. 1) decides edge vs. cloud. Edge answers complete
//!    immediately.
//! 3. **Appeal** — the adaptive budget (if any) may deny the offload; an
//!    admitted appeal samples a stochastic uplink transfer and enters the
//!    node's bounded radio queue. A full queue sheds the appeal back to the
//!    edge answer (link fallback).
//! 4. **Cloud** — the appeal joins the cloud's size-or-deadline batching
//!    queue; the flushed batch runs the big network on the GPU clock, and
//!    each answer rides the (unqueued) downlink back, completing the request
//!    and feeding the measured round-trip into the node's adaptive budget.

use crate::adaptive::AdaptiveBudget;
use crate::breaker::{Admission, CircuitBreaker};
use crate::cloud::{CloudPush, CloudSignal, CloudTier, PendingAppeal};
use crate::error::{is_positive, FleetError, FleetResult};
use crate::gossip::{GossipConfig, GossipPlane};
use crate::health::{FleetHealthView, HealthDigest, NodeHealth};
use crate::metrics::{percentile, FleetMetrics, NodeSummary, PhaseMetrics};
use crate::node::EdgeNode;
use crate::recovery::{CooperativeConfig, RecoveryConfig};
use crate::{adaptive::AdaptiveConfig, cloud::CloudConfig, ms_to_nanos};
use appeal_hw::{DeviceSpec, FaultEvent, FaultPlan, LinkQueue, StochasticLink, SystemModel};
use appeal_models::ClassifierParts;
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::serve::{QScorer, RoutingContext, Scorer, ThresholdPolicy};
use appealnet_core::server::trace::TraceSpec;
use appealnet_core::{ChunkPolicy, TwoHeadNet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bytes of one cloud answer (class id + confidence), matching the constant
/// inside [`SystemModel::offload_cost`].
const RESULT_BYTES: u64 = 16;

/// A mid-trace link degradation: from `after_nanos` on, transfers stretch
/// and loss multiplies by `severity`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Virtual time the degradation sets in, in nanoseconds.
    pub after_nanos: u64,
    /// Severity multiplier (1.0 = nominal link; larger = worse).
    pub severity: f64,
}

/// Everything a fleet run is parameterized by.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated edge nodes.
    pub nodes: usize,
    /// Routing threshold δ of Eq. 1 (score ≥ δ stays on the edge).
    pub delta: f64,
    /// Device model of every edge node.
    pub edge_device: DeviceSpec,
    /// Cloud-tier parameters (device, batching).
    pub cloud: CloudConfig,
    /// The stochastic uplink every node shares the *model* of (each node
    /// gets its own bounded radio queue of the model's capacity).
    pub link: StochasticLink,
    /// Optional per-node link heterogeneity: one [`StochasticLink`] per node
    /// (length must equal `nodes`), e.g. a mixed wifi/lte fleet. `None`
    /// keeps the homogeneous `link` for everyone — byte-identical to the
    /// pre-heterogeneity simulator. The routing cost model (Eq. 5) still
    /// prices offloads from the shared `link`, so heterogeneity shows up in
    /// *measured* behavior (transfers, loss, health views), not in the
    /// policy's prior.
    pub node_links: Option<Vec<StochasticLink>>,
    /// Optional mid-trace link degradation.
    pub degrade: Option<Degradation>,
    /// Optional per-node adaptive offload budget.
    pub adaptive: Option<AdaptiveConfig>,
    /// Optional appeal recovery policy (per-attempt deadline, bounded
    /// retries, per-node circuit breaker). Required whenever `faults`
    /// scripts cloud-facing events, or those events would strand requests.
    pub recovery: Option<RecoveryConfig>,
    /// Scripted fault plan ([`FaultPlan::none`] for a healthy run).
    pub faults: FaultPlan,
    /// The fleet health gossip plane ([`GossipConfig::disabled()`] replays
    /// the pre-gossip simulator byte-for-byte).
    pub gossip: GossipConfig,
    /// Optional cooperative policy over the gossiped health views. Requires
    /// gossip enabled and a recovery policy with a breaker.
    pub cooperative: Option<CooperativeConfig>,
    /// End-to-end latency SLO to count violations against, in milliseconds.
    pub slo_ms: f64,
    /// Sharding policy for the cloud's big-network forward passes.
    pub chunk: ChunkPolicy,
    /// Seed for request images and link weather.
    pub seed: u64,
}

impl FleetConfig {
    /// The stock fleet: `nodes` [`DeviceSpec::mobile_soc`] edges routing at
    /// `delta` over `link` into [`CloudConfig::baseline`], a 100 ms SLO,
    /// sequential cloud passes, and every optional mechanism off (no
    /// per-node links, degradation, adaptive budget, recovery, gossip,
    /// cooperative policy or faults). Scenarios switch mechanisms on with
    /// struct-update syntax, so a config literal shows only what it changes.
    pub fn baseline(nodes: usize, delta: f64, link: StochasticLink, seed: u64) -> Self {
        Self {
            nodes,
            delta,
            edge_device: DeviceSpec::mobile_soc(),
            cloud: CloudConfig::baseline(),
            link,
            node_links: None,
            degrade: None,
            adaptive: None,
            recovery: None,
            faults: FaultPlan::none(),
            gossip: GossipConfig::disabled(),
            cooperative: None,
            slo_ms: 100.0,
            chunk: ChunkPolicy::sequential(),
            seed,
        }
    }
}

/// How one request was ultimately answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutcomeRoute {
    /// Score ≥ δ: the little network's answer was trusted.
    Edge,
    /// Wanted the cloud but the adaptive budget denied the offload.
    BudgetDenied,
    /// Wanted the cloud but the uplink queue was full.
    LinkFallback,
    /// Appealed and answered by the big network.
    Cloud,
    /// Wanted the cloud but gracefully degraded to the little net's answer
    /// (breaker open or retry budget exhausted).
    DegradedLocal,
}

#[derive(Debug, Clone, Copy)]
struct Outcome {
    completed_nanos: u64,
    route: OutcomeRoute,
    /// The answering network's label (little for edge routes, big for cloud).
    label: usize,
}

#[derive(Debug, Clone)]
enum EventKind {
    Arrival {
        request: usize,
        node: usize,
    },
    EdgeDone {
        request: usize,
        node: usize,
    },
    CloudArrival {
        request: usize,
        node: usize,
        decided_nanos: u64,
        attempt: u32,
    },
    CloudDeadline,
    CloudCompletion {
        request: usize,
        node: usize,
        decided_nanos: u64,
        attempt: u32,
        label: usize,
        signal: CloudSignal,
    },
    /// A failed attempt's backoff expired: try the appeal again.
    AppealRetry {
        request: usize,
        node: usize,
    },
    /// An in-flight attempt's per-attempt deadline: if the request is still
    /// unresolved on that attempt, the attempt failed.
    AppealDeadline {
        request: usize,
        node: usize,
        attempt: u32,
    },
    /// One fleet-wide gossip round: every node digests its health and pushes
    /// to its round's peer set. Exists only while gossip is enabled.
    GossipRound,
}

/// Per-request retry state while an appeal is unresolved (recovery runs
/// only).
#[derive(Debug, Clone, Copy)]
struct AppealCtx {
    edge_label: usize,
    decided_nanos: u64,
    attempt: u32,
    prev_backoff_ms: f64,
    /// The half-open generation that admitted the *current* attempt as a
    /// breaker probe, if one did; echoed back so probe outcomes ledger
    /// exactly once.
    probe: Option<u64>,
}

struct Event {
    at_nanos: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at_nanos == other.at_nanos && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ties break by insertion sequence, which pins the event order (and
        // therefore RNG consumption) independent of heap internals.
        (self.at_nanos, self.seq).cmp(&(other.at_nanos, other.seq))
    }
}

/// Min-heap of events with deterministic tie-breaking.
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl EventQueue {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at_nanos: u64, kind: EventKind) {
        self.heap.push(Reverse(Event {
            at_nanos,
            seq: self.seq,
            kind,
        }));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

fn severity_at(degrade: Option<Degradation>, t_nanos: u64) -> f64 {
    match degrade {
        Some(d) if t_nanos >= d.after_nanos => d.severity,
        _ => 1.0,
    }
}

/// Flushes the cloud's batching queue and schedules each answer's downlink
/// completion. The downlink samples transfer weather but does not queue:
/// the cloud's egress is not the modeled bottleneck. Scripted response
/// drops eat the answer here — the edge only learns via its appeal
/// deadline.
#[allow(clippy::too_many_arguments)]
fn flush_cloud(
    cloud: &mut CloudTier,
    nodes: &mut [EdgeNode],
    now_nanos: u64,
    images: &Tensor,
    links: &[StochasticLink],
    degrade: Option<Degradation>,
    faults: &FaultPlan,
    link_rng: &mut SeededRng,
    q: &mut EventQueue,
) {
    if let Some(batch) = cloud.flush(now_nanos, images) {
        for resp in &batch.responses {
            if faults.drops_response(batch.done_nanos, resp.request, resp.attempt) {
                nodes[resp.node].stats.response_drops += 1;
                continue;
            }
            let sev =
                severity_at(degrade, batch.done_nanos) * faults.link_severity(batch.done_nanos);
            let link = &links[resp.node];
            let down = link.sample_transmit_ms(RESULT_BYTES, sev, link_rng);
            let prop = link.sample_propagation_ms(sev, link_rng);
            let at = batch
                .done_nanos
                .saturating_add(ms_to_nanos(down.service_ms + prop));
            q.push(
                at,
                EventKind::CloudCompletion {
                    request: resp.request,
                    node: resp.node,
                    decided_nanos: resp.decided_nanos,
                    attempt: resp.attempt,
                    label: resp.label,
                    signal: resp.signal,
                },
            );
        }
    }
}

/// Schedules one appeal transmission attempt for `request` on node `n`,
/// following the recovery path: a fallible uplink sample
/// ([`StochasticLink::try_transmit_ms`]), the bounded radio queue, and a
/// per-attempt deadline. Failures feed the breaker and fall through to
/// [`retry_or_degrade`].
#[allow(clippy::too_many_arguments)]
fn send_appeal(
    n: &mut EdgeNode,
    request: usize,
    node: usize,
    ctx: &mut AppealCtx,
    now: u64,
    sev: f64,
    input_bytes: u64,
    link: &StochasticLink,
    recovery: &RecoveryConfig,
    link_rng: &mut SeededRng,
    q: &mut EventQueue,
    outcomes: &mut [Option<Outcome>],
) {
    match link.try_transmit_ms(input_bytes, sev, link_rng) {
        Err(_) => {
            n.stats.link_down += 1;
            n.record_appeal_failure(now, ctx.probe);
            retry_or_degrade(n, request, node, ctx, now, recovery, link_rng, q, outcomes);
        }
        Ok(up) => {
            let service = ms_to_nanos(up.service_ms).max(1);
            match n.uplink.offer(now, service) {
                None if ctx.attempt == 1 => {
                    // First-attempt sheds keep the legacy link-fallback
                    // route: local congestion, not path failure.
                    n.stats.link_fallbacks += 1;
                    outcomes[request] = Some(Outcome {
                        completed_nanos: now,
                        route: OutcomeRoute::LinkFallback,
                        label: ctx.edge_label,
                    });
                }
                None => {
                    n.stats.appeal_queue_full += 1;
                    n.record_appeal_failure(now, ctx.probe);
                    retry_or_degrade(n, request, node, ctx, now, recovery, link_rng, q, outcomes);
                }
                Some(departure) => {
                    let prop = link.sample_propagation_ms(sev, link_rng);
                    q.push(
                        departure.saturating_add(ms_to_nanos(prop)),
                        EventKind::CloudArrival {
                            request,
                            node,
                            decided_nanos: ctx.decided_nanos,
                            attempt: ctx.attempt,
                        },
                    );
                    q.push(
                        now.saturating_add(ms_to_nanos(recovery.appeal_deadline_ms)),
                        EventKind::AppealDeadline {
                            request,
                            node,
                            attempt: ctx.attempt,
                        },
                    );
                }
            }
        }
    }
}

/// The degradation ladder's decision point after a failed attempt: schedule
/// a decorrelated-jitter retry while the budget lasts, else accept the
/// little net's answer as `DegradedLocal`.
#[allow(clippy::too_many_arguments)]
fn retry_or_degrade(
    n: &mut EdgeNode,
    request: usize,
    node: usize,
    ctx: &mut AppealCtx,
    now: u64,
    recovery: &RecoveryConfig,
    link_rng: &mut SeededRng,
    q: &mut EventQueue,
    outcomes: &mut [Option<Outcome>],
) {
    if ctx.attempt < recovery.retry.max_attempts {
        ctx.attempt += 1;
        let backoff = recovery.retry.backoff_ms(ctx.prev_backoff_ms, link_rng);
        ctx.prev_backoff_ms = backoff;
        n.stats.retries += 1;
        q.push(
            now.saturating_add(ms_to_nanos(backoff).max(1)),
            EventKind::AppealRetry { request, node },
        );
    } else {
        n.stats.degraded_local += 1;
        outcomes[request] = Some(Outcome {
            completed_nanos: now,
            route: OutcomeRoute::DegradedLocal,
            label: ctx.edge_label,
        });
    }
}

/// The assembled fleet: run traces through it with [`FleetSim::run`].
pub struct FleetSim {
    config: FleetConfig,
    nodes: Vec<EdgeNode>,
    cloud: CloudTier,
    ctx: RoutingContext,
    input_shape: [usize; 3],
    input_bytes: u64,
}

impl FleetSim {
    /// Splits the system along the appeal boundary: forks the little
    /// two-head network onto `config.nodes` edge nodes and puts the big
    /// network behind the cloud tier's batching queue.
    pub fn new(little: TwoHeadNet, big: ClassifierParts, config: FleetConfig) -> FleetResult<Self> {
        if config.nodes == 0 {
            return Err(FleetError::NoNodes);
        }
        if !is_positive(config.slo_ms) {
            return Err(FleetError::InvalidConfig {
                what: "slo_ms must be positive",
            });
        }
        if let Some(d) = config.degrade {
            if !is_positive(d.severity) {
                return Err(FleetError::InvalidConfig {
                    what: "degradation severity must be positive",
                });
            }
        }
        if let Some(recovery) = &config.recovery {
            recovery.validate()?;
        }
        if config.faults.needs_recovery() && config.recovery.is_none() {
            // Blackouts and response drops/corruption strand appeals; with
            // no retry/degrade ladder those requests would never complete.
            return Err(FleetError::InvalidConfig {
                what: "fault plan scripts cloud-facing faults but no recovery policy is configured",
            });
        }
        if config.cloud.shed_backlog_ms.is_some() && config.recovery.is_none() {
            // A shed appeal vanishes exactly like a blackout drop; only the
            // appeal deadline can rescue the request.
            return Err(FleetError::InvalidConfig {
                what: "cloud shed_backlog_ms requires a recovery policy",
            });
        }
        config.gossip.validate()?;
        if let Some(coop) = &config.cooperative {
            coop.validate()?;
            if !config.gossip.enabled {
                return Err(FleetError::InvalidConfig {
                    what: "cooperative policy requires gossip to be enabled",
                });
            }
            if config.recovery.and_then(|r| r.breaker).is_none() {
                return Err(FleetError::InvalidConfig {
                    what: "cooperative policy requires a recovery policy with a breaker",
                });
            }
        }
        if let Some(node_links) = &config.node_links {
            if node_links.len() != config.nodes {
                return Err(FleetError::InvalidConfig {
                    what: "node_links length must equal the node count",
                });
            }
        }
        for event in config.faults.events() {
            if let FaultEvent::NodeCrash { node, .. } = *event {
                if node >= config.nodes {
                    return Err(FleetError::InvalidConfig {
                        what: "fault plan crashes a node outside the fleet",
                    });
                }
            }
        }
        let input_shape = little.spec().input_shape;
        let input_bytes = (input_shape.iter().product::<usize>() * 4) as u64;
        let little_flops = little.flops();
        let big_flops = big.total_flops();
        let mut system = SystemModel::new(
            config.edge_device.clone(),
            config.cloud.device.clone(),
            config.link.spec.clone(),
        );
        if little.is_quantized() {
            // Priced and scheduled on the int8 tier's edge device, exactly
            // as `Engine::build` prices the same net.
            system = system.with_quantized_edge();
        }
        let ctx = RoutingContext {
            edge_cost: system.edge_only_cost(little_flops),
            offload_cost: system.offload_cost(little_flops, big_flops, input_bytes),
        };
        let policy = ThresholdPolicy::new(config.delta)?;
        let base = QScorer::new(little);
        let mut nodes = Vec::with_capacity(config.nodes);
        for id in 0..config.nodes {
            let adaptive = config.adaptive.map(AdaptiveBudget::new).transpose()?;
            let node_link = config
                .node_links
                .as_ref()
                .map_or(&config.link, |links| &links[id]);
            let uplink = LinkQueue::new(node_link.queue_capacity)?;
            let mut node = EdgeNode::new(
                id,
                base.fork(),
                Box::new(policy),
                adaptive,
                &system.edge,
                uplink,
            );
            if let Some(breaker) = config.recovery.and_then(|r| r.breaker) {
                node = node.with_breaker(CircuitBreaker::new(breaker)?);
            }
            if config.gossip.enabled {
                node = node.with_health(
                    NodeHealth::new(config.nodes),
                    config.cooperative,
                    config.gossip.stale_nanos(),
                );
            }
            nodes.push(node);
        }
        let cloud = CloudTier::new(big, config.chunk, config.cloud.clone())?;
        Ok(Self {
            config,
            nodes,
            cloud,
            ctx,
            input_shape,
            input_bytes,
        })
    }

    /// The per-request cost context (Eq. 5 `c1`/`c0`) the nodes route
    /// against.
    pub fn routing_context(&self) -> &RoutingContext {
        &self.ctx
    }

    /// Replays one trace through the fleet in virtual time and returns its
    /// metrics. Running consumes node/cloud state; use a fresh `FleetSim`
    /// per measured run.
    pub fn run(&mut self, trace: &TraceSpec) -> FleetMetrics {
        let arrivals = trace.events();
        let total = arrivals.len();
        let [c, h, w] = self.input_shape;
        let mut image_rng = SeededRng::new(self.config.seed);
        let images = Tensor::randn(&[total.max(1), c, h, w], &mut image_rng);
        let mut link_rng = SeededRng::new(self.config.seed ^ 0x9E37_79B9_7F4A_7C15);
        let links: Vec<StochasticLink> = match &self.config.node_links {
            Some(per_node) => per_node.clone(),
            None => vec![self.config.link.clone(); self.nodes.len()],
        };
        let mut gossip_plane = self
            .config
            .gossip
            .enabled
            .then(|| GossipPlane::new(self.config.gossip, self.config.seed));
        let ctx = self.ctx;
        let degrade = self.config.degrade;
        let recovery = self.config.recovery;
        let faults = self.config.faults.clone();
        let input_bytes = self.input_bytes;

        let mut q = EventQueue::new();
        let mut arrival_nanos = vec![0u64; total];
        let mut outcomes: Vec<Option<Outcome>> = vec![None; total];
        let mut appeal_state: Vec<Option<AppealCtx>> = vec![None; total];
        for (i, ev) in arrivals.iter().enumerate() {
            arrival_nanos[i] = ev.at_nanos;
            let node = ev.client as usize % self.nodes.len();
            q.push(ev.at_nanos, EventKind::Arrival { request: i, node });
        }
        if let Some(plane) = gossip_plane.as_mut() {
            if total > 0 {
                q.push(plane.next_round_nanos(0), EventKind::GossipRound);
            }
        }

        while let Some(event) = q.pop() {
            let now = event.at_nanos;
            match event.kind {
                EventKind::Arrival { request, node } => {
                    let mut effective = now;
                    if let Some(restart) = faults.node_restart_at(node, now) {
                        // The node's compute is down: the request waits out
                        // the crash, then queues behind the restart backlog.
                        self.nodes[node].stats.crash_stalls += 1;
                        effective = restart;
                    }
                    let done = self.nodes[node].schedule(effective);
                    q.push(done, EventKind::EdgeDone { request, node });
                }
                EventKind::EdgeDone { request, node } => {
                    let image = images.select_rows(&[request]);
                    let n = &mut self.nodes[node];
                    let pass = n.scorer.evaluate(&image);
                    let score = pass.scores[0];
                    let edge_label = pass.labels[0];
                    if let Some(a) = n.adaptive.as_mut() {
                        a.on_request();
                    }
                    let route = n.policy.decide(score, &ctx);
                    if !route.is_cloud() {
                        n.stats.edge_answered += 1;
                        outcomes[request] = Some(Outcome {
                            completed_nanos: now,
                            route: OutcomeRoute::Edge,
                            label: edge_label,
                        });
                        continue;
                    }
                    let admitted = n
                        .adaptive
                        .as_ref()
                        .is_none_or(|a| a.admits(&ctx.offload_cost));
                    if !admitted {
                        n.stats.budget_denied += 1;
                        outcomes[request] = Some(Outcome {
                            completed_nanos: now,
                            route: OutcomeRoute::BudgetDenied,
                            label: edge_label,
                        });
                        continue;
                    }
                    let sev = severity_at(degrade, now) * faults.link_severity(now);
                    match recovery {
                        Some(rec) => {
                            // The cooperative stress check runs before the
                            // breaker admission so a shed request can never
                            // leak a half-open probe slot.
                            let n = &mut self.nodes[node];
                            if n.stress_sheds(f64::from(score), self.config.delta) {
                                n.stats.stress_shed += 1;
                                n.stats.degraded_local += 1;
                                outcomes[request] = Some(Outcome {
                                    completed_nanos: now,
                                    route: OutcomeRoute::DegradedLocal,
                                    label: edge_label,
                                });
                                continue;
                            }
                            // Breaker check precedes charging: a refused
                            // appeal never leaves the node, so it must not
                            // spend offload budget.
                            let admission = self.nodes[node]
                                .breaker
                                .as_mut()
                                .map_or(Admission::Allowed, |b| b.admit(now));
                            let n = &mut self.nodes[node];
                            if admission == Admission::Denied {
                                n.stats.breaker_denied += 1;
                                n.stats.degraded_local += 1;
                                outcomes[request] = Some(Outcome {
                                    completed_nanos: now,
                                    route: OutcomeRoute::DegradedLocal,
                                    label: edge_label,
                                });
                                continue;
                            }
                            if let Some(a) = n.adaptive.as_mut() {
                                a.charge(&ctx.offload_cost);
                            }
                            appeal_state[request] = Some(AppealCtx {
                                edge_label,
                                decided_nanos: now,
                                attempt: 1,
                                prev_backoff_ms: 0.0,
                                probe: admission.probe_generation(),
                            });
                            let state = appeal_state[request].as_mut().expect("just set");
                            send_appeal(
                                n,
                                request,
                                node,
                                state,
                                now,
                                sev,
                                input_bytes,
                                &links[node],
                                &rec,
                                &mut link_rng,
                                &mut q,
                                &mut outcomes,
                            );
                        }
                        None => {
                            let n = &mut self.nodes[node];
                            if let Some(a) = n.adaptive.as_mut() {
                                a.charge(&ctx.offload_cost);
                            }
                            let up =
                                links[node].sample_transmit_ms(input_bytes, sev, &mut link_rng);
                            let service = ms_to_nanos(up.service_ms).max(1);
                            match n.uplink.offer(now, service) {
                                None => {
                                    n.stats.link_fallbacks += 1;
                                    outcomes[request] = Some(Outcome {
                                        completed_nanos: now,
                                        route: OutcomeRoute::LinkFallback,
                                        label: edge_label,
                                    });
                                }
                                Some(departure) => {
                                    let prop =
                                        links[node].sample_propagation_ms(sev, &mut link_rng);
                                    q.push(
                                        departure.saturating_add(ms_to_nanos(prop)),
                                        EventKind::CloudArrival {
                                            request,
                                            node,
                                            decided_nanos: now,
                                            attempt: 1,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                EventKind::CloudArrival {
                    request,
                    node,
                    decided_nanos,
                    attempt,
                } => {
                    if faults.cloud_down(now) {
                        // The appeal reached a blacked-out cloud and
                        // vanished; the edge learns via its attempt
                        // deadline.
                        self.nodes[node].stats.blackout_drops += 1;
                        continue;
                    }
                    let appeal = PendingAppeal {
                        request,
                        node,
                        decided_nanos,
                        arrived_nanos: now,
                        attempt,
                    };
                    match self.cloud.push(now, appeal) {
                        CloudPush::FlushNow => flush_cloud(
                            &mut self.cloud,
                            &mut self.nodes,
                            now,
                            &images,
                            &links,
                            degrade,
                            &faults,
                            &mut link_rng,
                            &mut q,
                        ),
                        CloudPush::ScheduleDeadline(at) => q.push(at, EventKind::CloudDeadline),
                        CloudPush::Queued => {}
                        CloudPush::Shed => {
                            // The backlog gate dropped the appeal at ingress;
                            // like a blackout drop, the edge only learns via
                            // its attempt deadline.
                            self.nodes[node].stats.cloud_shed += 1;
                        }
                    }
                }
                EventKind::CloudDeadline => {
                    if self.cloud.deadline_due(now) {
                        flush_cloud(
                            &mut self.cloud,
                            &mut self.nodes,
                            now,
                            &images,
                            &links,
                            degrade,
                            &faults,
                            &mut link_rng,
                            &mut q,
                        );
                    }
                }
                EventKind::CloudCompletion {
                    request,
                    node,
                    decided_nanos,
                    attempt,
                    label,
                    signal,
                } => {
                    let n = &mut self.nodes[node];
                    if outcomes[request].is_some() {
                        // The request already resolved (degraded, or an
                        // earlier attempt's answer landed): the ledger
                        // remembers, the request doesn't.
                        n.stats.late_responses += 1;
                        continue;
                    }
                    // An answer for a superseded attempt is a straggler: it
                    // resolves the request, but must not settle the probe
                    // slot held by the *current* attempt.
                    let probe = appeal_state[request]
                        .filter(|s| s.attempt == attempt)
                        .and_then(|s| s.probe);
                    if faults.corrupts_response(now, request, attempt) {
                        n.stats.response_corrupt += 1;
                        n.record_appeal_failure(now, probe);
                        let rec = recovery.expect("corrupting faults require a recovery policy");
                        let state = appeal_state[request]
                            .as_mut()
                            .expect("corrupt response for a tracked appeal");
                        retry_or_degrade(
                            n,
                            request,
                            node,
                            state,
                            now,
                            &rec,
                            &mut link_rng,
                            &mut q,
                            &mut outcomes,
                        );
                        continue;
                    }
                    n.stats.cloud_answered += 1;
                    let round_trip_ms = (now.saturating_sub(decided_nanos)) as f64 / 1e6;
                    if let Some(a) = n.adaptive.as_mut() {
                        a.observe(round_trip_ms);
                    }
                    n.record_appeal_success(now, round_trip_ms, probe);
                    n.observe_cloud_signal(now, &signal);
                    outcomes[request] = Some(Outcome {
                        completed_nanos: now,
                        route: OutcomeRoute::Cloud,
                        label,
                    });
                }
                EventKind::AppealRetry { request, node } => {
                    if outcomes[request].is_some() {
                        // A straggler answer resolved the request during the
                        // backoff; nothing left to retry.
                        continue;
                    }
                    let rec = recovery.expect("retries only exist under a recovery policy");
                    let admission = self.nodes[node]
                        .breaker
                        .as_mut()
                        .map_or(Admission::Allowed, |b| b.admit(now));
                    let n = &mut self.nodes[node];
                    let state = appeal_state[request]
                        .as_mut()
                        .expect("retry for a tracked appeal");
                    if admission == Admission::Denied {
                        n.stats.breaker_denied += 1;
                        n.stats.degraded_local += 1;
                        outcomes[request] = Some(Outcome {
                            completed_nanos: now,
                            route: OutcomeRoute::DegradedLocal,
                            label: state.edge_label,
                        });
                        continue;
                    }
                    // A retry admitted at the open-timer boundary *is* the
                    // half-open probe: tag the attempt so it ledgers once,
                    // as a probe, not twice.
                    state.probe = admission.probe_generation();
                    let sev = severity_at(degrade, now) * faults.link_severity(now);
                    send_appeal(
                        n,
                        request,
                        node,
                        state,
                        now,
                        sev,
                        input_bytes,
                        &links[node],
                        &rec,
                        &mut link_rng,
                        &mut q,
                        &mut outcomes,
                    );
                }
                EventKind::AppealDeadline {
                    request,
                    node,
                    attempt,
                } => {
                    if outcomes[request].is_some() {
                        continue;
                    }
                    let rec = recovery.expect("deadlines only exist under a recovery policy");
                    let state = appeal_state[request]
                        .as_mut()
                        .expect("deadline for a tracked appeal");
                    if state.attempt != attempt {
                        // Stale deadline of an abandoned attempt; the
                        // current attempt has its own.
                        continue;
                    }
                    let n = &mut self.nodes[node];
                    n.stats.appeal_timeouts += 1;
                    let probe = state.probe;
                    n.record_appeal_failure(now, probe);
                    retry_or_degrade(
                        n,
                        request,
                        node,
                        state,
                        now,
                        &rec,
                        &mut link_rng,
                        &mut q,
                        &mut outcomes,
                    );
                }
                EventKind::GossipRound => {
                    let plane = gossip_plane.as_mut().expect("gossip rounds imply a plane");
                    let stale = plane.config().stale_nanos();
                    let node_count = self.nodes.len();
                    // Phase 1: every node digests its last round (resetting
                    // the per-round counters) before anything is exchanged,
                    // so all messages this round carry same-round snapshots.
                    let digests: Vec<HealthDigest> = (0..node_count)
                        .map(|i| {
                            let open = self.nodes[i].breaker_open_for_digest(now);
                            self.nodes[i]
                                .health
                                .as_mut()
                                .expect("gossip requires health state")
                                .take_digest(i, now, open)
                        })
                        .collect();
                    // Phase 2: push in node order. A message to peer `p`
                    // carries the sender's own digest plus every still-fresh
                    // entry of its view except those about `p` itself — so
                    // no node ever holds hearsay about itself.
                    for (i, &own) in digests.iter().enumerate() {
                        let peers = plane.select_peers(i, node_count);
                        if peers.is_empty() {
                            continue;
                        }
                        let fresh: Vec<HealthDigest> = self.nodes[i]
                            .health
                            .as_ref()
                            .expect("gossip requires health state")
                            .view
                            .entries()
                            .filter(|d| {
                                FleetHealthView::staleness_weight(d.at_nanos, now, stale) > 0.0
                            })
                            .copied()
                            .collect();
                        for &p in &peers {
                            let payload: Vec<HealthDigest> = std::iter::once(own)
                                .chain(fresh.iter().copied().filter(|d| d.origin != p))
                                .collect();
                            self.nodes[i].stats.gossip_sent += 1;
                            self.nodes[i].stats.gossip_entries += payload.len() as u64;
                            let receiver = &mut self.nodes[p];
                            let (mut applied, mut stale_dropped) = (0u64, 0u64);
                            {
                                let view = &mut receiver
                                    .health
                                    .as_mut()
                                    .expect("gossip requires health state")
                                    .view;
                                for digest in payload {
                                    if view.merge(digest) {
                                        applied += 1;
                                    } else {
                                        stale_dropped += 1;
                                    }
                                }
                            }
                            receiver.stats.gossip_received += 1;
                            receiver.stats.gossip_applied += applied;
                            receiver.stats.gossip_stale += stale_dropped;
                        }
                    }
                    // Phase 3: fold the merged views into policy — refresh
                    // each node's stress and run the pre-emptive-open check.
                    for i in 0..node_count {
                        self.nodes[i].update_stress(now);
                        self.nodes[i].preemptive_check(now);
                    }
                    // Rounds stop once the trace is fully resolved, so the
                    // simulation terminates.
                    if outcomes.iter().any(|o| o.is_none()) {
                        q.push(plane.next_round_nanos(now), EventKind::GossipRound);
                    }
                }
            }
        }

        self.collect_metrics(&images, &arrival_nanos, &outcomes)
    }

    fn collect_metrics(
        &mut self,
        images: &Tensor,
        arrival_nanos: &[u64],
        outcomes: &[Option<Outcome>],
    ) -> FleetMetrics {
        let requests = outcomes.len() as u64;
        let mut completed = 0u64;
        let (mut edge, mut cloud, mut fallback, mut denied, mut degraded) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut degraded_rows: Vec<usize> = Vec::new();
        let mut latencies = Vec::with_capacity(outcomes.len());
        let mut slo_violations = 0u64;
        let mut last_completion = 0u64;
        let degrade_at = self.config.degrade.map(|d| d.after_nanos);
        let mut pre = (0u64, 0u64, Vec::new()); // requests, cloud, latencies
        let mut post = (0u64, 0u64, Vec::new());
        let mut labels_digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for (i, slot) in outcomes.iter().enumerate() {
            let Some(o) = slot else { continue };
            completed += 1;
            for byte in (o.label as u64).to_le_bytes() {
                labels_digest ^= u64::from(byte);
                labels_digest = labels_digest.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let lat_ms = o.completed_nanos.saturating_sub(arrival_nanos[i]) as f64 / 1e6;
            latencies.push(lat_ms);
            if lat_ms > self.config.slo_ms {
                slo_violations += 1;
            }
            last_completion = last_completion.max(o.completed_nanos);
            let is_cloud = o.route == OutcomeRoute::Cloud;
            match o.route {
                OutcomeRoute::Edge => edge += 1,
                OutcomeRoute::Cloud => cloud += 1,
                OutcomeRoute::LinkFallback => fallback += 1,
                OutcomeRoute::BudgetDenied => denied += 1,
                OutcomeRoute::DegradedLocal => {
                    degraded += 1;
                    degraded_rows.push(i);
                }
            }
            if let Some(at) = degrade_at {
                let phase = if arrival_nanos[i] < at {
                    &mut pre
                } else {
                    &mut post
                };
                phase.0 += 1;
                phase.1 += u64::from(is_cloud);
                phase.2.push(lat_ms);
            }
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mean_ms = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let span_ms = last_completion as f64 / 1e6;
        let cloud_busy_ms = self.cloud.busy_nanos() as f64 / 1e6;
        // What would the big net have said where we settled for the little
        // net? Pure accounting: no clock or counter moves.
        let degraded_agreement = if degraded_rows.is_empty() {
            None
        } else {
            let big_labels = self.cloud.counterfactual_labels(images, &degraded_rows);
            let agree = degraded_rows
                .iter()
                .zip(&big_labels)
                .filter(|&(&row, big)| outcomes[row].map(|o| o.label) == Some(*big))
                .count();
            Some(agree as f64 / degraded_rows.len() as f64)
        };
        let nodes: Vec<NodeSummary> = self
            .nodes
            .iter()
            .map(|n| NodeSummary {
                id: n.id(),
                requests: n.stats().requests,
                edge_answered: n.stats().edge_answered,
                cloud_answered: n.stats().cloud_answered,
                link_fallbacks: n.stats().link_fallbacks,
                budget_denied: n.stats().budget_denied,
                degraded_local: n.stats().degraded_local,
                breaker_denied: n.stats().breaker_denied,
                retries: n.stats().retries,
                stress_shed: n.stats().stress_shed,
                preemptive_opens: n.stats().preemptive_opens,
                busy_ms: n.stats().busy_nanos as f64 / 1e6,
                final_budget_ms: n.adaptive().map(AdaptiveBudget::current_budget_ms),
                tightenings: n.adaptive().map_or(0, AdaptiveBudget::tightenings),
            })
            .collect();
        let stat_sum = |f: fn(&crate::node::NodeStats) -> u64| -> u64 {
            self.nodes.iter().map(|n| f(n.stats())).sum()
        };
        let breaker_sum = |f: fn(&CircuitBreaker) -> u64| -> u64 {
            self.nodes.iter().filter_map(EdgeNode::breaker).map(f).sum()
        };
        let phase_metrics = |(reqs, cloud_n, mut lats): (u64, u64, Vec<f64>)| {
            lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            PhaseMetrics {
                requests: reqs,
                cloud_answered: cloud_n,
                appeal_rate: cloud_n as f64 / reqs.max(1) as f64,
                p50_ms: percentile(&lats, 0.50),
                p99_ms: percentile(&lats, 0.99),
            }
        };
        FleetMetrics {
            requests,
            completed,
            edge_answered: edge,
            cloud_answered: cloud,
            link_fallbacks: fallback,
            budget_denied: denied,
            degraded_local: degraded,
            breaker_denied: stat_sum(|s| s.breaker_denied),
            retries: stat_sum(|s| s.retries),
            stress_shed: stat_sum(|s| s.stress_shed),
            appeal_timeouts: stat_sum(|s| s.appeal_timeouts),
            link_down: stat_sum(|s| s.link_down),
            appeal_queue_full: stat_sum(|s| s.appeal_queue_full),
            blackout_drops: stat_sum(|s| s.blackout_drops),
            response_drops: stat_sum(|s| s.response_drops),
            response_corrupt: stat_sum(|s| s.response_corrupt),
            late_responses: stat_sum(|s| s.late_responses),
            crash_stalls: stat_sum(|s| s.crash_stalls),
            breaker_opened: breaker_sum(CircuitBreaker::opened),
            breaker_half_opened: breaker_sum(CircuitBreaker::half_opened),
            breaker_closed: breaker_sum(CircuitBreaker::closed),
            preemptive_opens: stat_sum(|s| s.preemptive_opens),
            probe_elections: stat_sum(|s| s.probe_elections),
            probe_attempts: breaker_sum(CircuitBreaker::probe_attempts),
            probe_ok: breaker_sum(CircuitBreaker::probe_ok),
            probe_failed: breaker_sum(CircuitBreaker::probe_failed),
            probe_orphaned: breaker_sum(CircuitBreaker::probe_orphaned),
            probe_unresolved: breaker_sum(CircuitBreaker::probes_in_flight),
            cloud_shed: stat_sum(|s| s.cloud_shed),
            cloud_signals: stat_sum(|s| s.cloud_signals),
            gossip_sent: stat_sum(|s| s.gossip_sent),
            gossip_received: stat_sum(|s| s.gossip_received),
            gossip_entries: stat_sum(|s| s.gossip_entries),
            gossip_applied: stat_sum(|s| s.gossip_applied),
            gossip_stale: stat_sum(|s| s.gossip_stale),
            degraded_agreement,
            recovery_enabled: self.config.recovery.is_some(),
            faults_scripted: !self.config.faults.is_empty(),
            gossip_enabled: self.config.gossip.enabled,
            cooperative_enabled: self.config.cooperative.is_some(),
            cloud_shed_enabled: self.config.cloud.shed_backlog_ms.is_some(),
            uplink_accepted: self.nodes.iter().map(EdgeNode::uplink_accepted).sum(),
            uplink_rejected: self.nodes.iter().map(EdgeNode::uplink_rejected).sum(),
            p50_ms: percentile(&latencies, 0.50),
            p99_ms: percentile(&latencies, 0.99),
            max_ms: percentile(&latencies, 1.0),
            mean_ms,
            slo_ms: self.config.slo_ms,
            slo_violations,
            skipping_rate: (edge + fallback + denied + degraded) as f64 / completed.max(1) as f64,
            appeal_rate: cloud as f64 / completed.max(1) as f64,
            span_ms,
            cloud_busy_ms,
            cloud_load: if span_ms > 0.0 {
                cloud_busy_ms / span_ms
            } else {
                0.0
            },
            cloud_batches: self.cloud.batches(),
            mean_batch: self.cloud.served() as f64 / self.cloud.batches().max(1) as f64,
            labels_digest,
            nodes,
            pre_degrade: degrade_at.map(|_| phase_metrics(pre)),
            post_degrade: degrade_at.map(|_| phase_metrics(post)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_models::{ModelFamily, ModelSpec};
    use appealnet_core::server::trace::TraceShape;

    fn models() -> (TwoHeadNet, ClassifierParts) {
        let mut rng = SeededRng::new(2021);
        let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
        let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        (TwoHeadNet::from_parts(little, &mut rng), big)
    }

    fn build(config: FleetConfig) -> FleetSim {
        let (net, big) = models();
        FleetSim::new(net, big, config).unwrap()
    }

    fn config(nodes: usize, delta: f64) -> FleetConfig {
        FleetConfig::baseline(nodes, delta, StochasticLink::wifi(), 7)
    }

    fn trace(requests: usize) -> TraceSpec {
        TraceSpec {
            shape: TraceShape::Uniform,
            requests,
            mean_gap_nanos: 2_000_000,
            clients: 16,
            seed: 2021,
        }
    }

    #[test]
    fn every_request_completes_and_ledgers_reconcile() {
        let mut sim = build(config(4, 0.5));
        let metrics = sim.run(&trace(96));
        assert_eq!(metrics.completed, 96);
        let violations = metrics.check();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn delta_extremes_route_everything_one_way() {
        // δ = 0: every score ≥ 0 stays on the edge.
        let mut all_edge = build(config(4, 0.0));
        let m = all_edge.run(&trace(48));
        assert_eq!(m.edge_answered, 48);
        assert_eq!(m.cloud_answered, 0);
        assert!((m.skipping_rate - 1.0).abs() < 1e-12);
        // δ = 1: (untrained q scores sit below 1) everything appeals.
        let mut all_cloud = build(config(4, 1.0));
        let m = all_cloud.run(&trace(48));
        assert_eq!(m.edge_answered, 0);
        assert!(m.cloud_answered + m.link_fallbacks == 48);
        assert!(m.cloud_answered > 0, "some appeals must get through");
        assert!(m.check().is_empty());
    }

    #[test]
    fn cloud_latency_exceeds_edge_latency() {
        let mut sim = build(config(4, 1.0));
        let cloudy = sim.run(&trace(48));
        let mut edge_sim = build(config(4, 0.0));
        let edgy = edge_sim.run(&trace(48));
        assert!(
            cloudy.p50_ms > edgy.p50_ms * 5.0,
            "appeals pay the link: {} vs {}",
            cloudy.p50_ms,
            edgy.p50_ms
        );
    }

    #[test]
    fn rejects_empty_fleet_and_bad_slo() {
        let mut c = config(0, 0.5);
        let (net, big) = models();
        assert!(matches!(
            FleetSim::new(net.clone(), big.clone(), c.clone()),
            Err(FleetError::NoNodes)
        ));
        c.nodes = 2;
        c.slo_ms = 0.0;
        assert!(matches!(
            FleetSim::new(net, big, c),
            Err(FleetError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn cloud_facing_faults_require_a_recovery_policy() {
        let mut c = config(2, 1.0);
        c.faults = FaultPlan::new(
            1,
            vec![FaultEvent::CloudBlackout {
                from_nanos: 0,
                until_nanos: 1_000_000,
            }],
        )
        .unwrap();
        let (net, big) = models();
        assert!(matches!(
            FleetSim::new(net.clone(), big.clone(), c.clone()),
            Err(FleetError::InvalidConfig { .. })
        ));
        // Crashing a node the fleet doesn't have is also rejected.
        c.faults = FaultPlan::new(
            1,
            vec![FaultEvent::NodeCrash {
                node: 2,
                at_nanos: 0,
                down_nanos: 1,
            }],
        )
        .unwrap();
        assert!(matches!(
            FleetSim::new(net, big, c),
            Err(FleetError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn total_blackout_degrades_every_appeal_and_ledgers_reconcile() {
        let mut c = config(2, 1.0); // δ = 1: everything wants the cloud
        c.recovery = Some(crate::RecoveryConfig::default_for_appeals());
        c.faults = FaultPlan::new(
            5,
            vec![FaultEvent::CloudBlackout {
                from_nanos: 0,
                until_nanos: u64::MAX,
            }],
        )
        .unwrap();
        let mut sim = build(c);
        let m = sim.run(&trace(48));
        assert_eq!(m.completed, 48, "no request may strand in an outage");
        assert_eq!(m.cloud_answered, 0);
        assert!(m.degraded_local > 0, "appeals must degrade locally");
        assert!(m.appeal_timeouts > 0, "the edge learns via its deadline");
        assert!(m.breaker_opened > 0, "a dead cloud must trip the breaker");
        assert!(m.degraded_agreement.is_some());
        let violations = m.check();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn degradation_slows_the_post_phase() {
        let mut c = config(4, 1.0);
        c.link = StochasticLink::lte();
        c.degrade = Some(Degradation {
            after_nanos: 48 * 1_000_000, // mid-trace
            severity: 4.0,
        });
        let mut sim = build(c);
        let m = sim.run(&trace(96));
        let pre = m.pre_degrade.as_ref().expect("pre phase");
        let post = m.post_degrade.as_ref().expect("post phase");
        assert!(pre.requests > 0 && post.requests > 0);
        assert!(
            post.p50_ms > pre.p50_ms,
            "degraded link must slow appeals: {} vs {}",
            post.p50_ms,
            pre.p50_ms
        );
        assert!(m.check().is_empty());
    }
}
