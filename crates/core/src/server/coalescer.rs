//! Deadline-based micro-batching over the [`Engine`], in virtual time.
//!
//! The engine's own queue flushes at a fixed `max_batch`; under light load a
//! request could wait forever for the queue to fill. The [`MicroBatcher`]
//! adds the serving-grade rule: coalesce requests until **either** the batch
//! is full (size trigger — the engine's `max_batch`, unchanged semantics)
//! **or** the *oldest* queued request has waited the configured deadline
//! (deadline trigger). It also owns the overload [`ShedPolicy`] and the
//! per-client fairness accounting that [`ServerStats`] reports.
//!
//! Time is a caller-supplied monotonic nanosecond counter, not [`std::time`]:
//! the threaded [`Server`](crate::server::Server) feeds it real elapsed
//! nanoseconds, while tests and simulations feed it a virtual clock — which
//! makes every coalescing, deadline and shedding decision exactly
//! reproducible under a fixed trace.
//!
//! The coalescer is *mechanism*: it flushes when told the time
//! ([`poll`](MicroBatcher::poll)), when a batch fills
//! ([`offer`](MicroBatcher::offer)), or when told to
//! ([`drain`](MicroBatcher::drain)). *When* to tell it is the driver's
//! policy. A virtual-time replay polls at the deadline, so a partial batch
//! waits it out; the threaded server drains as soon as its inbound queue is
//! empty, so there the deadline only bounds a batch that keeps gathering
//! under a backlog (see the [server module docs](crate::server)).

use crate::error::{CoreError, CoreResult};
use crate::serve::{Engine, EngineStats, InferenceRequest, InferenceResponse};
use appeal_hw::{CostBudget, CostMeter, InferenceCost};
use std::collections::BTreeMap;
use std::time::Duration;

/// Why a micro-batch was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The queue reached the engine's `max_batch`.
    Size,
    /// The oldest queued request hit the latency deadline.
    Deadline,
    /// Nothing else was waiting: the threaded server's batcher went idle,
    /// or the batcher was drained explicitly or at shutdown.
    Drain,
}

/// Configuration of the cost-budget overload shedding policy.
///
/// Admission is measured against an [`appeal_hw::CostBudget`] over a rolling
/// accounting window of `window` offered requests: whenever the cost already
/// charged in the current window (plus one worst-case offload) would exceed
/// the budget, further requests are shed until the window rolls over. The
/// meter charges each answered request's *actual* cost, so a traffic mix the
/// edge absorbs cheaply sheds far less than one that appeals everything —
/// the shed signal is the paper's edge/cloud cost split, live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// Cost budget per accounting window.
    pub budget: CostBudget,
    /// Window length in offered requests (must be positive).
    pub window: u64,
}

/// Internal state of the shedding policy.
struct ShedPolicy {
    config: ShedConfig,
    meter: CostMeter,
    arrivals_in_window: u64,
}

impl ShedPolicy {
    fn new(config: ShedConfig) -> CoreResult<Self> {
        if config.window == 0 {
            return Err(CoreError::InvalidShedWindow);
        }
        Ok(Self {
            config,
            meter: CostMeter::new(),
            arrivals_in_window: 0,
        })
    }

    /// Rolls the accounting window forward by one offered request.
    fn on_arrival(&mut self) {
        self.arrivals_in_window += 1;
        if self.arrivals_in_window >= self.config.window {
            self.arrivals_in_window = 0;
            self.meter.reset();
        }
    }

    /// Returns `true` if one more worst-case request still fits the window's
    /// budget.
    fn admits(&self, worst_case: &InferenceCost) -> bool {
        self.config.budget.admits(&self.meter.spent(), worst_case)
    }

    fn charge(&mut self, actual: &InferenceCost) {
        self.meter.charge(actual);
    }
}

/// What happened to one offered request.
#[derive(Debug)]
pub enum Admission {
    /// Queued; the batch is still coalescing.
    Queued,
    /// This request filled the batch: a size-triggered flush ran and these
    /// are its answers (the offered request included, in submission order).
    Flushed(Vec<ClientResponse>),
    /// The overload policy shed the request; it was never queued.
    Shed,
}

/// One answered request, attributed to its client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse {
    /// The client that submitted the request.
    pub client: u32,
    /// Nanoseconds the request waited from arrival to flush.
    pub waited_nanos: u64,
    /// The engine's answer.
    pub response: InferenceResponse,
}

/// Per-client serving counters (the fairness ledger).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClientStats {
    /// Client id.
    pub client: u32,
    /// Requests this client offered (admitted + shed).
    pub offered: u64,
    /// Requests admitted into a micro-batch.
    pub admitted: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests shed by the overload policy.
    pub shed: u64,
    /// Answers served on the edge.
    pub edge: u64,
    /// Answers appealed to the cloud.
    pub cloud: u64,
}

/// Cumulative serving-layer statistics: the engine's [`EngineStats`] plus
/// the front-end's admission/shedding/flush counters and the per-client
/// fairness ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// The wrapped engine's cumulative stats.
    pub engine: EngineStats,
    /// Requests offered to the batcher (valid shape; admitted + shed).
    pub offered: u64,
    /// Requests admitted into micro-batches.
    pub admitted: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests shed by the overload policy.
    pub shed: u64,
    /// Requests rejected at the admission queue (threaded server only).
    pub rejected: u64,
    /// Requests failed with a typed error by the batcher — corrupt-queue
    /// recovery or the panic fence (threaded server only).
    pub failed: u64,
    /// Tickets whose per-request deadline elapsed before the answer arrived
    /// (threaded server only). The requests themselves still ran to
    /// completion; only their callers stopped waiting.
    pub deadline_expired: u64,
    /// Micro-batches flushed because they reached `max_batch`.
    pub size_flushes: u64,
    /// Micro-batches flushed because the oldest request hit the deadline.
    pub deadline_flushes: u64,
    /// Micro-batches flushed because nothing else was waiting: an idle
    /// batcher (the threaded server's common case at low load), an explicit
    /// drain, or shutdown.
    pub drain_flushes: u64,
    /// Per-client counters, ascending by client id.
    pub clients: Vec<ClientStats>,
}

impl ServerStats {
    /// Fraction of offered requests that were shed; 0 before any request.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Fraction of submission attempts rejected for backpressure, out of
    /// everything the front door saw (offered + rejected); 0 before any.
    pub fn rejection_rate(&self) -> f64 {
        let seen = self.offered + self.rejected;
        if seen == 0 {
            0.0
        } else {
            self.rejected as f64 / seen as f64
        }
    }

    /// Jain's fairness index over per-client answered counts: 1.0 when every
    /// client got the same share, approaching `1/n` under total capture by
    /// one client; 1.0 when no client has been answered yet.
    pub fn fairness_index(&self) -> f64 {
        let shares: Vec<f64> = self
            .clients
            .iter()
            .filter(|c| c.offered > 0)
            .map(|c| c.answered as f64)
            .collect();
        let n = shares.len() as f64;
        let sum: f64 = shares.iter().sum();
        let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
        if sum_sq <= 0.0 {
            1.0
        } else {
            (sum * sum) / (n * sum_sq)
        }
    }
}

/// The deadline coalescer: owns an [`Engine`] and flushes its micro-batch
/// queue on size *or* deadline, with optional cost-budget shedding.
///
/// All methods take an explicit `now_nanos` monotonic timestamp; see the
/// module docs for why. Drive it with [`offer`](MicroBatcher::offer) per
/// request, [`poll`](MicroBatcher::poll) whenever time passes, and
/// [`drain`](MicroBatcher::drain) when no more company is coming (the
/// threaded server drains whenever its inbound queue is empty and polls
/// otherwise).
pub struct MicroBatcher {
    engine: Engine,
    deadline_nanos: u64,
    shed: Option<ShedPolicy>,
    /// `(client, arrival_nanos)` per request in the engine's pending queue,
    /// kept strictly parallel to it.
    pending_meta: Vec<(u32, u64)>,
    offered: u64,
    admitted: u64,
    answered: u64,
    shed_count: u64,
    size_flushes: u64,
    deadline_flushes: u64,
    drain_flushes: u64,
    clients: BTreeMap<u32, ClientStats>,
}

impl std::fmt::Debug for MicroBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MicroBatcher(pending={}, deadline={:?}, offered={}, shed={})",
            self.pending_meta.len(),
            Duration::from_nanos(self.deadline_nanos),
            self.offered,
            self.shed_count
        )
    }
}

impl MicroBatcher {
    /// Wraps an engine with a flush deadline and an optional shed policy.
    ///
    /// The size trigger is the engine's existing `max_batch`; `deadline` caps
    /// how long the *oldest* queued request waits before a partial batch is
    /// flushed anyway. Errors with [`CoreError::InvalidShedWindow`] if the
    /// shed config has a zero-length window.
    pub fn new(engine: Engine, deadline: Duration, shed: Option<ShedConfig>) -> CoreResult<Self> {
        let shed = match shed {
            Some(config) => Some(ShedPolicy::new(config)?),
            None => None,
        };
        Ok(Self {
            engine,
            deadline_nanos: deadline.as_nanos().min(u64::MAX as u128) as u64,
            shed,
            pending_meta: Vec::new(),
            offered: 0,
            admitted: 0,
            answered: 0,
            shed_count: 0,
            size_flushes: 0,
            deadline_flushes: 0,
            drain_flushes: 0,
            clients: BTreeMap::new(),
        })
    }

    /// Offers one request at `now_nanos` on behalf of `client`.
    ///
    /// Shape validation happens before any state changes
    /// ([`CoreError::ShapeMismatch`]); a validated request is then either
    /// shed by the overload policy, queued, or — if it fills the batch —
    /// answered together with the rest of a size-triggered flush.
    pub fn offer(
        &mut self,
        now_nanos: u64,
        client: u32,
        request: InferenceRequest,
    ) -> CoreResult<Admission> {
        self.engine.validate_request(&request)?;
        self.offered += 1;
        self.client_entry(client).offered += 1;
        if let Some(shed) = self.shed.as_mut() {
            shed.on_arrival();
            let worst_case = self.engine.offload_cost();
            if !shed.admits(&worst_case) {
                self.shed_count += 1;
                self.client_entry(client).shed += 1;
                return Ok(Admission::Shed);
            }
        }
        self.admitted += 1;
        self.client_entry(client).admitted += 1;
        self.pending_meta.push((client, now_nanos));
        match self.engine.submit(request) {
            Ok(Some(responses)) => {
                let out = self.complete(now_nanos, FlushTrigger::Size, responses)?;
                Ok(Admission::Flushed(out))
            }
            Ok(None) => Ok(Admission::Queued),
            Err(err) => {
                // The only fallible path past validation is a corrupt-queue
                // flush, which drops the engine's buffers — mirror that here
                // so client metadata never outlives the requests it labels.
                self.pending_meta.clear();
                Err(err)
            }
        }
    }

    /// Flushes the pending micro-batch if the oldest queued request has
    /// reached its deadline at `now_nanos`; `None` while the deadline holds
    /// or the queue is empty.
    pub fn poll(
        &mut self,
        now_nanos: u64,
    ) -> CoreResult<Option<(FlushTrigger, Vec<ClientResponse>)>> {
        match self.next_deadline_nanos() {
            Some(deadline) if now_nanos >= deadline => {
                let responses = self.flush_engine()?;
                let out = self.complete(now_nanos, FlushTrigger::Deadline, responses)?;
                Ok(Some((FlushTrigger::Deadline, out)))
            }
            _ => Ok(None),
        }
    }

    /// Flushes whatever is queued regardless of deadline: the caller knows
    /// nothing else is waiting (idle server, end of a replay, shutdown).
    pub fn drain(&mut self, now_nanos: u64) -> CoreResult<Vec<ClientResponse>> {
        if self.pending_meta.is_empty() {
            return Ok(Vec::new());
        }
        let responses = self.flush_engine()?;
        self.complete(now_nanos, FlushTrigger::Drain, responses)
    }

    /// The virtual-time instant at which the pending batch must flush, if a
    /// batch is coalescing.
    pub fn next_deadline_nanos(&self) -> Option<u64> {
        self.pending_meta
            .first()
            .map(|&(_, arrival)| arrival.saturating_add(self.deadline_nanos))
    }

    /// Requests currently coalescing.
    pub fn pending(&self) -> usize {
        self.pending_meta.len()
    }

    /// Cumulative serving statistics (the `rejected` counter is owned by the
    /// threaded server and reads 0 here).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            engine: *self.engine.stats(),
            offered: self.offered,
            admitted: self.admitted,
            answered: self.answered,
            shed: self.shed_count,
            rejected: 0,
            failed: 0,
            deadline_expired: 0,
            size_flushes: self.size_flushes,
            deadline_flushes: self.deadline_flushes,
            drain_flushes: self.drain_flushes,
            clients: self.clients.values().copied().collect(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Unwraps into the engine and a final stats snapshot.
    pub fn into_parts(self) -> (Engine, ServerStats) {
        let stats = self.stats();
        (self.engine, stats)
    }

    fn client_entry(&mut self, client: u32) -> &mut ClientStats {
        self.clients.entry(client).or_insert_with(|| ClientStats {
            client,
            ..ClientStats::default()
        })
    }

    /// `Engine::flush`, keeping `pending_meta` synchronized with the
    /// engine's own transactional error path.
    fn flush_engine(&mut self) -> CoreResult<Vec<InferenceResponse>> {
        match self.engine.flush() {
            Ok(responses) => Ok(responses),
            Err(err) => {
                self.pending_meta.clear();
                Err(err)
            }
        }
    }

    /// Attributes one flush's responses to their clients and updates every
    /// ledger (fairness counters, shed meter, flush triggers).
    fn complete(
        &mut self,
        now_nanos: u64,
        trigger: FlushTrigger,
        responses: Vec<InferenceResponse>,
    ) -> CoreResult<Vec<ClientResponse>> {
        let meta = std::mem::take(&mut self.pending_meta);
        assert_eq!(
            meta.len(),
            responses.len(),
            "engine flush must answer exactly the queued requests"
        );
        let mut out = Vec::with_capacity(responses.len());
        for ((client, arrival), response) in meta.into_iter().zip(responses) {
            if let Some(shed) = self.shed.as_mut() {
                shed.charge(&response.cost);
            }
            let entry = self.client_entry(client);
            entry.answered += 1;
            if response.route.is_cloud() {
                entry.cloud += 1;
            } else {
                entry.edge += 1;
            }
            self.answered += 1;
            out.push(ClientResponse {
                client,
                waited_nanos: now_nanos.saturating_sub(arrival),
                response,
            });
        }
        match trigger {
            FlushTrigger::Size => self.size_flushes += 1,
            FlushTrigger::Deadline => self.deadline_flushes += 1,
            FlushTrigger::Drain => self.drain_flushes += 1,
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ThresholdPolicy;
    use crate::two_head::TwoHeadNet;
    use appeal_models::{ModelFamily, ModelSpec};
    use appeal_tensor::{SeededRng, Tensor};

    const MS: u64 = 1_000_000;

    fn engine(max_batch: usize) -> Engine {
        let mut rng = SeededRng::new(3);
        let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
        let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        let net = TwoHeadNet::from_parts(little, &mut rng);
        Engine::builder()
            .appealnet(net)
            .big(big)
            .policy(ThresholdPolicy::new(0.5).unwrap())
            .max_batch(max_batch)
            .build()
            .unwrap()
    }

    fn request(rng: &mut SeededRng, id: u64) -> InferenceRequest {
        InferenceRequest::new(id, Tensor::randn(&[3, 12, 12], rng))
    }

    #[test]
    fn deadline_flush_fires_only_after_the_deadline() {
        let mut mb = MicroBatcher::new(engine(64), Duration::from_millis(5), None).unwrap();
        let mut rng = SeededRng::new(7);
        assert!(matches!(
            mb.offer(0, 1, request(&mut rng, 0)).unwrap(),
            Admission::Queued
        ));
        assert!(matches!(
            mb.offer(2 * MS, 2, request(&mut rng, 1)).unwrap(),
            Admission::Queued
        ));
        // Deadline counts from the OLDEST request (t=0), not the newest.
        assert_eq!(mb.next_deadline_nanos(), Some(5 * MS));
        assert!(mb.poll(4 * MS).unwrap().is_none());
        let (trigger, answers) = mb.poll(5 * MS).unwrap().unwrap();
        assert_eq!(trigger, FlushTrigger::Deadline);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].client, 1);
        assert_eq!(answers[0].waited_nanos, 5 * MS);
        assert_eq!(answers[1].waited_nanos, 3 * MS);
        assert_eq!(mb.pending(), 0);
        assert!(mb.poll(9 * MS).unwrap().is_none(), "queue is empty again");
        let stats = mb.stats();
        assert_eq!(stats.deadline_flushes, 1);
        assert_eq!(stats.size_flushes, 0);
        assert_eq!(stats.answered, 2);
    }

    #[test]
    fn size_flush_preempts_the_deadline() {
        let mut mb = MicroBatcher::new(engine(2), Duration::from_secs(600), None).unwrap();
        let mut rng = SeededRng::new(8);
        assert!(matches!(
            mb.offer(0, 1, request(&mut rng, 0)).unwrap(),
            Admission::Queued
        ));
        match mb.offer(MS, 1, request(&mut rng, 1)).unwrap() {
            Admission::Flushed(answers) => {
                assert_eq!(answers.len(), 2);
                assert_eq!(answers[0].response.id, 0);
                assert_eq!(answers[1].response.id, 1);
            }
            other => panic!("expected a size flush, got {other:?}"),
        }
        let stats = mb.stats();
        assert_eq!(stats.size_flushes, 1);
        assert_eq!(stats.deadline_flushes, 0);
    }

    #[test]
    fn shed_policy_windows_are_deterministic() {
        // Budget pays for ~1 offload per 4-request window; with δ = 1.0
        // every request wants the cloud, so each window admits exactly as
        // many requests as fit the budget and sheds the rest — identically
        // on every run.
        let offload = engine(1).offload_cost();
        let mut mb = MicroBatcher::new(
            {
                let mut rng = SeededRng::new(3);
                let little =
                    ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
                let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
                Engine::builder()
                    .appealnet(TwoHeadNet::from_parts(little, &mut rng))
                    .big(big)
                    .policy(ThresholdPolicy::new(1.0).unwrap())
                    .max_batch(1)
                    .build()
                    .unwrap()
            },
            Duration::from_millis(1),
            Some(ShedConfig {
                budget: CostBudget::energy_mj(offload.energy_mj * 1.5),
                window: 4,
            }),
        )
        .unwrap();
        let mut rng = SeededRng::new(9);
        let mut pattern = Vec::new();
        for id in 0..12u64 {
            match mb
                .offer(id * MS, (id % 3) as u32, request(&mut rng, id))
                .unwrap()
            {
                Admission::Shed => pattern.push(true),
                Admission::Flushed(_) => pattern.push(false),
                Admission::Queued => unreachable!("max_batch == 1 always flushes"),
            }
        }
        // One admitted offload exhausts the 1.5x budget, and the meter
        // resets at every 4th arrival — so the admitted slots are exactly
        // ids 0, 3, 7, 11, on every run.
        assert_eq!(
            pattern,
            vec![false, true, true, false, true, true, true, false, true, true, true, false]
        );
        let stats = mb.stats();
        assert_eq!(stats.shed, 8);
        assert_eq!(stats.answered, 4);
        assert!((stats.shed_rate() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_ledger_attributes_per_client() {
        let mut mb = MicroBatcher::new(engine(4), Duration::from_millis(1), None).unwrap();
        let mut rng = SeededRng::new(10);
        for id in 0..8u64 {
            let client = if id < 6 { 0 } else { 1 };
            mb.offer(0, client, request(&mut rng, id)).unwrap();
        }
        let stats = mb.stats();
        assert_eq!(stats.clients.len(), 2);
        assert_eq!(stats.clients[0].client, 0);
        assert_eq!(stats.clients[0].answered, 6);
        assert_eq!(stats.clients[1].answered, 2);
        assert_eq!(
            stats.clients[0].edge + stats.clients[0].cloud,
            stats.clients[0].answered
        );
        // Jain's index for shares (6, 2): 64 / (2 * 40) = 0.8.
        assert!((stats.fairness_index() - 0.8).abs() < 1e-12);
        assert_eq!(stats.answered, 8);
        assert_eq!(stats.engine.requests, 8);
    }

    #[test]
    fn invalid_shed_window_is_rejected() {
        let err = MicroBatcher::new(
            engine(2),
            Duration::from_millis(1),
            Some(ShedConfig {
                budget: CostBudget::unlimited(),
                window: 0,
            }),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, CoreError::InvalidShedWindow);
    }

    #[test]
    fn bad_shape_is_rejected_without_entering_any_ledger() {
        let mut mb = MicroBatcher::new(engine(4), Duration::from_millis(1), None).unwrap();
        let mut rng = SeededRng::new(11);
        let bad = InferenceRequest::new(0, Tensor::randn(&[3, 9, 12], &mut rng));
        assert!(matches!(
            mb.offer(0, 5, bad).unwrap_err(),
            CoreError::ShapeMismatch { .. }
        ));
        let stats = mb.stats();
        assert_eq!(stats.offered, 0);
        assert!(stats.clients.is_empty());
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn empty_fairness_index_is_one() {
        let mb = MicroBatcher::new(engine(2), Duration::from_millis(1), None).unwrap();
        assert_eq!(mb.stats().fairness_index(), 1.0);
        assert_eq!(mb.stats().shed_rate(), 0.0);
        assert_eq!(mb.stats().rejection_rate(), 0.0);
    }
}
