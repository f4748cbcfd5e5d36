//! The serving front-end: a threaded request loop with work-conserving
//! micro-batching, bounded admission, and cost-budget overload shedding over
//! the [`Engine`].
//!
//! # Dataflow
//!
//! ```text
//! clients                 batcher thread                    compute
//! ───────                 ──────────────                    ───────
//! ServerHandle::submit ─▶ bounded queue ─▶ MicroBatcher ─▶ Engine ─▶ persistent
//!   │ shape check          (Mutex+Condvar,   (flush when     │        worker pool
//!   │ admission count       backpressure;     full or when   │        (vendored
//!   │                       fills while a     nothing else   │         rayon)
//!   ▼                       flush runs)       is queued,     │
//! Ticket ◀── mpsc channel ◀── shed / answer ◀─ fairness) ◀──┘
//! ```
//!
//! * **Admission** happens on the *client* thread: malformed shapes are
//!   rejected immediately ([`CoreError::ShapeMismatch`]) and a full queue —
//!   counting every in-flight request from enqueue to answer — rejects with
//!   typed backpressure ([`CoreError::Overloaded`]) instead of buffering
//!   without bound.
//! * **Coalescing** happens on the single batcher thread, and is
//!   *work-conserving*: the thread takes everything that queued, offers it
//!   to the [`MicroBatcher`] in arrival order, and then — being the engine's
//!   only driver, so knowing the engine is idle — flushes the partial batch
//!   at once if nothing else is waiting. Requests therefore gather company
//!   only while a flush is in flight: they pile up in the inbound queue and
//!   are taken together on the next iteration. A batch still leaves as soon
//!   as it reaches the engine's `max_batch` (under saturation the queue is
//!   never empty, so batches fill by size), and
//!   [`ServerConfig::deadline`] is the *upper bound* on how long a partial
//!   batch may keep gathering while more work is queued behind it — never a
//!   floor a lone request has to sit out. Compute itself fans out on the
//!   persistent worker pool inside the engine, so one loop thread saturates
//!   the cores.
//! * **Shedding**: an optional [`ShedConfig`] meters the *actual* cost of
//!   answered requests against an [`appeal_hw::CostBudget`] per accounting
//!   window and sheds excess requests with a fast typed answer
//!   ([`CoreError::Shed`]) instead of letting tail latency collapse.
//! * **Fairness**: every answer is attributed to its submitting client;
//!   [`ServerStats`] carries the per-client ledger and a Jain fairness
//!   index next to the engine's own [`EngineStats`](crate::serve::EngineStats).
//!
//! Determinism: given the same arrival order, the [`MicroBatcher`] makes
//! identical coalescing and shedding decisions in *virtual time*; the
//! threaded loop decides *when* to call it from the real clock and the
//! state of its queue. Batch *composition* under real time therefore depends
//! on timing, but per-request answers do not: the engine is per-sample pure,
//! so a request's label, score and route are byte-identical whatever batch
//! it lands in.
//!
//! # Example
//!
//! ```no_run
//! use appealnet_core::prelude::*;
//! use appealnet_core::server::{Server, ServerConfig};
//! use appeal_dataset::prelude::*;
//! use appeal_models::prelude::*;
//! use std::time::Duration;
//! # fn main() -> Result<(), CoreError> {
//! let ctx = ExperimentContext::new(Fidelity::Smoke, 42);
//! let prepared = PreparedExperiment::prepare(
//!     DatasetPreset::Cifar10Like,
//!     ModelFamily::MobileNetLike,
//!     CloudMode::WhiteBox,
//!     &ctx,
//! );
//! let engine = Engine::builder()
//!     .appealnet(prepared.models.appealnet)
//!     .big(prepared.models.big)
//!     .build()?;
//! let server = Server::start(
//!     engine,
//!     ServerConfig {
//!         queue_capacity: 256,
//!         deadline: Duration::from_millis(2),
//!         request_deadline: Some(Duration::from_millis(250)),
//!         ..ServerConfig::default()
//!     },
//! )?;
//! let handle = server.handle();
//! # let frame = appeal_tensor::Tensor::zeros(&[3, 12, 12]);
//! let ticket = handle.submit(0, InferenceRequest::new(0, frame))?;
//! let served = ticket.wait()?;
//! println!("label {} after {:?} in queue", served.response.label, served.waited);
//! let (_engine, stats) = server.shutdown()?;
//! println!("shed rate {:.1}%", 100.0 * stats.shed_rate());
//! # Ok(())
//! # }
//! ```

mod coalescer;
pub mod trace;

pub use coalescer::{
    Admission, ClientResponse, ClientStats, FlushTrigger, MicroBatcher, ServerStats, ShedConfig,
};

use crate::error::{CoreError, CoreResult};
use crate::serve::check_sample_shape;
use crate::serve::{Engine, InferenceRequest, InferenceResponse};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the batcher sleeps between liveness re-checks while it waits
/// for work. Bounds every condvar wait so a missed notification (or a
/// spurious-wakeup-free platform) can delay shutdown or new work by at most
/// one tick, never forever.
const WATCHDOG_TICK: Duration = Duration::from_millis(50);

/// Configuration of the threaded serving front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Maximum in-flight requests (queued + coalescing), counted from
    /// admission to answer. Submissions beyond it are rejected with
    /// [`CoreError::Overloaded`]. Must be positive.
    pub queue_capacity: usize,
    /// Upper bound on how long the oldest coalescing request may wait while
    /// more work keeps arriving behind it. An idle batcher does not wait for
    /// it: with nothing else queued, a partial micro-batch is flushed at
    /// once.
    pub deadline: Duration,
    /// Optional cost-budget overload shedding (see [`ShedConfig`]).
    pub shed: Option<ShedConfig>,
    /// Optional per-request answer deadline: [`Ticket::wait`] returns
    /// [`CoreError::DeadlineExceeded`] if no answer arrives within this
    /// budget. The request itself keeps running (and its admission slot is
    /// released when the batcher settles it); only the caller stops waiting.
    pub request_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    /// 256 in-flight requests, partial batches gather for at most 2 ms
    /// under a backlog, no shedding, no per-request deadline.
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            deadline: Duration::from_millis(2),
            shed: None,
            request_deadline: None,
        }
    }
}

/// One request answered by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedResponse {
    /// The engine's answer.
    pub response: InferenceResponse,
    /// Time the request spent from admission to flush dispatch.
    pub waited: Duration,
}

/// An envelope traveling from a client thread to the batcher.
struct Envelope {
    client: u32,
    arrival_nanos: u64,
    request: InferenceRequest,
    tx: Sender<CoreResult<ServedResponse>>,
}

struct QueueState {
    queue: VecDeque<Envelope>,
    shutdown: bool,
}

/// State shared between client handles and the batcher thread.
struct Shared {
    state: Mutex<QueueState>,
    work: Condvar,
    capacity: usize,
    /// Requests admitted but not yet answered/shed/failed.
    outstanding: AtomicUsize,
    /// Submissions rejected at the front door for backpressure.
    rejected: AtomicU64,
    /// Requests failed with typed errors (corrupt-queue recovery, panic
    /// fence). Merged into [`ServerStats::failed`] at shutdown.
    failed: AtomicU64,
    /// Tickets abandoned by their per-request deadline. Merged into
    /// [`ServerStats::deadline_expired`] at shutdown.
    deadline_expired: AtomicU64,
    /// Set by the panic fence: the batcher died unwinding and the server
    /// answers everything with [`CoreError::BatcherPanicked`] from now on.
    panicked: AtomicBool,
    start: Instant,
    input_shape: [usize; 3],
}

impl Shared {
    fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Marks `n` in-flight requests as settled (answered, shed, or failed).
    fn settle(&self, n: usize) {
        self.outstanding.fetch_sub(n, Ordering::AcqRel);
    }

    /// Locks the queue, recovering from poisoning: a panicking batcher must
    /// not wedge client threads — by the time they can observe the poison,
    /// the panic fence has already failed the queued work, so the state
    /// behind the lock is consistent.
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The typed "server went away" verdict: [`CoreError::BatcherPanicked`]
    /// after a batcher panic, [`CoreError::ServerStopped`] after an orderly
    /// shutdown.
    ///
    /// A waiter's channel can only disconnect because the batcher exited
    /// orderly (the shutdown flag was set before it broke out of its loop)
    /// or because it is unwinding (the fence sets `panicked` as part of the
    /// same unwind). Between a sender dropping and the fence flagging there
    /// is a small window; spin it out so the verdict is deterministic
    /// instead of racing the unwinder.
    fn stopped_error(&self) -> CoreError {
        loop {
            if self.panicked.load(Ordering::Acquire) {
                return CoreError::BatcherPanicked;
            }
            if self.lock_state().shutdown {
                // The fence stores `panicked` before it sets `shutdown`, so
                // one recheck after observing the flag settles the verdict.
                if self.panicked.load(Ordering::Acquire) {
                    return CoreError::BatcherPanicked;
                }
                return CoreError::ServerStopped;
            }
            std::thread::yield_now();
        }
    }
}

/// A cloneable client handle: submit requests, receive [`Ticket`]s.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// The configured per-request deadline, stamped onto every ticket.
    deadline: Option<Duration>,
}

impl ServerHandle {
    /// Submits one request on behalf of `client`.
    ///
    /// Runs entirely on the caller's thread: the image shape is validated
    /// eagerly ([`CoreError::ShapeMismatch`]), the bounded admission count
    /// is taken ([`CoreError::Overloaded`] when full), and the envelope is
    /// queued for the batcher. The returned [`Ticket`] resolves once the
    /// request's micro-batch flushes (or the request is shed).
    pub fn submit(&self, client: u32, request: InferenceRequest) -> CoreResult<Ticket> {
        check_sample_shape(request.image.shape(), &self.shared.input_shape)?;
        // Reserve an admission slot before touching the queue so capacity
        // bounds *everything* in flight, not just what sits in the VecDeque.
        let mut slots = self.shared.outstanding.load(Ordering::Acquire);
        loop {
            if slots >= self.shared.capacity {
                self.shared.rejected.fetch_add(1, Ordering::AcqRel);
                return Err(CoreError::Overloaded {
                    capacity: self.shared.capacity,
                });
            }
            match self.shared.outstanding.compare_exchange_weak(
                slots,
                slots + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => slots = actual,
            }
        }
        let (tx, rx) = mpsc::channel();
        let envelope = Envelope {
            client,
            arrival_nanos: self.shared.now_nanos(),
            request,
            tx,
        };
        {
            let mut st = self.shared.lock_state();
            if st.shutdown {
                drop(st);
                self.shared.settle(1);
                return Err(self.shared.stopped_error());
            }
            st.queue.push_back(envelope);
        }
        self.shared.work.notify_one();
        Ok(Ticket {
            rx,
            deadline: self.deadline,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Requests currently in flight (admitted, not yet settled).
    pub fn in_flight(&self) -> usize {
        self.shared.outstanding.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServerHandle(in_flight={}, capacity={})",
            self.in_flight(),
            self.shared.capacity
        )
    }
}

/// The pending answer to one submitted request.
pub struct Ticket {
    rx: Receiver<CoreResult<ServedResponse>>,
    /// The server-wide per-request deadline, if one is configured.
    deadline: Option<Duration>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ticket(deadline={:?})", self.deadline)
    }
}

impl Ticket {
    /// Blocks until the request is answered — or, when the server has a
    /// `request_deadline`, until that deadline elapses.
    ///
    /// Errors with the batcher's typed verdict ([`CoreError::Shed`],
    /// [`CoreError::CorruptQueue`], …), [`CoreError::DeadlineExceeded`] on
    /// deadline expiry, [`CoreError::BatcherPanicked`] if the batcher died,
    /// or [`CoreError::ServerStopped`] if the server shut down without
    /// answering.
    pub fn wait(self) -> CoreResult<ServedResponse> {
        match self.deadline {
            Some(deadline) => self.wait_deadline(deadline),
            None => match self.rx.recv() {
                Ok(result) => result,
                Err(_) => Err(self.shared.stopped_error()),
            },
        }
    }

    /// Blocks until the request is answered or `deadline` elapses, whichever
    /// comes first (overriding any server-wide `request_deadline`).
    ///
    /// On expiry the answer is abandoned with
    /// [`CoreError::DeadlineExceeded`]; the request itself keeps running and
    /// its admission slot frees when the batcher settles it.
    pub fn wait_deadline(self, deadline: Duration) -> CoreResult<ServedResponse> {
        match self.rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.shared.deadline_expired.fetch_add(1, Ordering::AcqRel);
                Err(CoreError::DeadlineExceeded { deadline })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.shared.stopped_error()),
        }
    }
}

/// The threaded serving front-end. See the [module docs](self) for the
/// dataflow; construct with [`Server::start`], stop with
/// [`Server::shutdown`] to recover the engine and final [`ServerStats`].
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<(Engine, ServerStats)>>,
    request_deadline: Option<Duration>,
}

impl Server {
    /// Spawns the batcher thread around `engine`.
    ///
    /// Errors with [`CoreError::InvalidQueueCapacity`] for a zero
    /// `queue_capacity` and [`CoreError::InvalidShedWindow`] for a
    /// zero-length shed window.
    pub fn start(engine: Engine, config: ServerConfig) -> CoreResult<Self> {
        if config.queue_capacity == 0 {
            return Err(CoreError::InvalidQueueCapacity);
        }
        let input_shape = engine.input_shape();
        let batcher = MicroBatcher::new(engine, config.deadline, config.shed)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            capacity: config.queue_capacity,
            outstanding: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            start: Instant::now(),
            input_shape,
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("appealnet-batcher".into())
            .spawn(move || batcher_loop(thread_shared, batcher))
            .expect("failed to spawn the batcher thread");
        Ok(Self {
            shared,
            batcher: Some(handle),
            request_deadline: config.request_deadline,
        })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            deadline: self.request_deadline,
        }
    }

    /// Stops accepting requests, drains everything already admitted, joins
    /// the batcher, and returns the engine plus final stats (with the
    /// front-door rejection / failure / deadline ledgers merged in).
    ///
    /// Errors with [`CoreError::BatcherPanicked`] if the batcher thread died
    /// unwinding: the engine went down with it, and every in-flight request
    /// was already failed with that same typed error by the panic fence.
    pub fn shutdown(mut self) -> CoreResult<(Engine, ServerStats)> {
        let joined = self.stop_batcher().expect("batcher already taken");
        let (engine, mut stats) = joined.map_err(|_| CoreError::BatcherPanicked)?;
        stats.rejected = self.shared.rejected.load(Ordering::Acquire);
        stats.failed = self.shared.failed.load(Ordering::Acquire);
        stats.deadline_expired = self.shared.deadline_expired.load(Ordering::Acquire);
        Ok((engine, stats))
    }

    fn stop_batcher(&mut self) -> Option<std::thread::Result<(Engine, ServerStats)>> {
        let handle = self.batcher.take()?;
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        Some(handle.join())
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Server(in_flight={}, capacity={}, rejected={})",
            self.shared.outstanding.load(Ordering::Acquire),
            self.shared.capacity,
            self.shared.rejected.load(Ordering::Acquire)
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server still drains admitted work before the engine is
        // discarded, so tickets resolve instead of hanging.
        let _ = self.stop_batcher();
    }
}

/// Sends one flush's responses to their waiting tickets, in order.
fn dispatch(
    fence: &mut PanicFence,
    waiters: &mut Vec<Sender<CoreResult<ServedResponse>>>,
    responses: Vec<ClientResponse>,
) {
    assert_eq!(
        waiters.len(),
        responses.len(),
        "one waiting ticket per flushed request"
    );
    for (tx, cr) in waiters.drain(..).zip(responses) {
        // Free the admission slot before delivering: a client that sees its
        // answer must also see the slot released.
        fence.settle(1);
        // A client that dropped its ticket just forfeits the answer.
        let _ = tx.send(Ok(ServedResponse {
            response: cr.response,
            waited: Duration::from_nanos(cr.waited_nanos),
        }));
    }
}

/// Fails every waiting ticket with `err` (corrupt-queue recovery path).
fn fail_all(
    fence: &mut PanicFence,
    waiters: &mut Vec<Sender<CoreResult<ServedResponse>>>,
    err: &CoreError,
) {
    for tx in waiters.drain(..) {
        fence.settle(1);
        fence.shared.failed.fetch_add(1, Ordering::AcqRel);
        let _ = tx.send(Err(err.clone()));
    }
}

/// Arms the batcher thread against its own panics. If `batcher_loop` unwinds
/// with the fence still armed, the fence (dropping *before* the loop's
/// locals, so the `panicked` flag is visible by the time any waiter's
/// channel disconnects) marks the server dead, fails every queued envelope
/// with [`CoreError::BatcherPanicked`], and wakes everyone. Coalescing
/// waiters resolve right after, when their senders drop with the loop's
/// stack frame and their tickets read the flag.
struct PanicFence {
    shared: Arc<Shared>,
    armed: bool,
    /// Requests the loop took off the shared queue and has not settled yet.
    /// They die with it, so the fence releases their admission slots: a dead
    /// server holds nothing in flight, and a queue that was full when the
    /// batcher died still answers `BatcherPanicked`, not `Overloaded`.
    owed: usize,
}

impl PanicFence {
    /// Settles `n` requests the loop had taken off the shared queue.
    fn settle(&mut self, n: usize) {
        self.owed -= n;
        self.shared.settle(n);
    }
}

impl Drop for PanicFence {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Before the flag: a ticket that reads the verdict must also see its
        // slot released.
        self.shared.settle(self.owed);
        self.shared.panicked.store(true, Ordering::Release);
        let stranded: Vec<Envelope> = {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            st.queue.drain(..).collect()
        };
        for env in stranded {
            self.shared.settle(1);
            self.shared.failed.fetch_add(1, Ordering::AcqRel);
            let _ = env.tx.send(Err(CoreError::BatcherPanicked));
        }
        self.shared.work.notify_all();
    }
}

/// The batcher thread: take everything that queued, offer it in arrival
/// order, flush — at once when nothing else is waiting — and answer tickets.
fn batcher_loop(shared: Arc<Shared>, mut batcher: MicroBatcher) -> (Engine, ServerStats) {
    // Senders for requests currently coalescing, parallel to the batcher's
    // pending queue. Declared BEFORE the fence so an unwind drops the fence
    // first (reverse declaration order): the `panicked` flag is set before
    // these senders disconnect their tickets.
    let mut waiters: Vec<Sender<CoreResult<ServedResponse>>> = Vec::new();
    let mut fence = PanicFence {
        shared: Arc::clone(&shared),
        armed: true,
        owed: 0,
    };
    // Swapped with the shared queue on every wake-up, so taking the inbound
    // envelopes allocates nothing once both deques have grown.
    let mut inbound: VecDeque<Envelope> = VecDeque::new();
    loop {
        // Phase 1: wait for work or shutdown. A partial batch never survives
        // to this point with the queue empty (Phase 3 flushes it), so there
        // is no coalescing deadline to sleep towards: every wait is one
        // watchdog tick, and the condition is re-checked on each wakeup, so
        // spurious wakeups and missed notifications both degrade to at most
        // one extra iteration.
        let shutdown = {
            let mut st = shared.lock_state();
            while st.queue.is_empty() && !st.shutdown {
                let (guard, _timeout) = shared
                    .work
                    .wait_timeout(st, WATCHDOG_TICK)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            std::mem::swap(&mut st.queue, &mut inbound);
            st.shutdown
        };
        fence.owed += inbound.len();

        // Phase 2: offer the taken envelopes in arrival order. Whatever
        // arrived while the previous flush was computing is here together,
        // which is the only coalescing the loop does; full batches leave on
        // the size trigger inside `offer`.
        for env in inbound.drain(..) {
            match batcher.offer(env.arrival_nanos, env.client, env.request) {
                Ok(Admission::Queued) => waiters.push(env.tx),
                Ok(Admission::Flushed(responses)) => {
                    waiters.push(env.tx);
                    dispatch(&mut fence, &mut waiters, responses);
                }
                Ok(Admission::Shed) => {
                    fence.settle(1);
                    let _ = env.tx.send(Err(CoreError::Shed));
                }
                Err(err) => {
                    // The batcher dropped its pending queue (corrupt-queue
                    // recovery): fail those tickets and this request's too.
                    fail_all(&mut fence, &mut waiters, &err);
                    fence.settle(1);
                    shared.failed.fetch_add(1, Ordering::AcqRel);
                    let _ = env.tx.send(Err(err));
                }
            }
        }

        // Phase 3: flush the partial batch. This thread is the engine's only
        // driver, so the engine is idle exactly now; if nothing else queued
        // meanwhile (checked under the lock) holding the batch back buys no
        // company, and it leaves at once, ledgered as a drain. Otherwise it
        // keeps gathering from the queue, and the deadline is the upper
        // bound on how long it may.
        let idle = shared.lock_state().queue.is_empty();
        let now = shared.now_nanos();
        let flushed = if idle {
            batcher.drain(now)
        } else {
            batcher
                .poll(now)
                .map(|due| due.map_or_else(Vec::new, |(_trigger, responses)| responses))
        };
        match flushed {
            Ok(responses) if responses.is_empty() => {}
            Ok(responses) => dispatch(&mut fence, &mut waiters, responses),
            Err(err) => fail_all(&mut fence, &mut waiters, &err),
        }

        // Phase 4: shutdown once everything admitted has been flushed.
        // `submit` refuses under the same lock that sets the flag, so an
        // observed shutdown means the queue stays empty from here on.
        if shutdown && idle {
            break;
        }
    }
    fence.armed = false;
    batcher.into_parts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ThresholdPolicy;
    use crate::two_head::TwoHeadNet;
    use appeal_models::{ModelFamily, ModelSpec};
    use appeal_tensor::{SeededRng, Tensor};

    fn engine(max_batch: usize) -> Engine {
        let mut rng = SeededRng::new(3);
        let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
        let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        Engine::builder()
            .appealnet(TwoHeadNet::from_parts(little, &mut rng))
            .big(big)
            .policy(ThresholdPolicy::new(0.5).unwrap())
            .max_batch(max_batch)
            .build()
            .unwrap()
    }

    #[test]
    fn answers_requests_and_reports_stats() {
        let server = Server::start(
            engine(4),
            ServerConfig {
                queue_capacity: 64,
                deadline: Duration::from_millis(5),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        let mut rng = SeededRng::new(31);
        let tickets: Vec<Ticket> = (0..6u64)
            .map(|id| {
                let image = Tensor::randn(&[3, 12, 12], &mut rng);
                handle
                    .submit((id % 2) as u32, InferenceRequest::new(id, image))
                    .unwrap()
            })
            .collect();
        for (id, ticket) in tickets.into_iter().enumerate() {
            let served = ticket.wait().unwrap();
            assert_eq!(served.response.id, id as u64);
        }
        assert_eq!(handle.in_flight(), 0);
        let (returned_engine, stats) = server.shutdown().unwrap();
        assert_eq!(stats.answered, 6);
        assert_eq!(stats.engine.requests, 6);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.clients.len(), 2);
        assert!((stats.fairness_index() - 1.0).abs() < 1e-12);
        assert_eq!(returned_engine.pending(), 0);
    }

    #[test]
    fn zero_queue_capacity_and_zero_max_batch_are_distinct_typed_errors() {
        let config = ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        };
        assert_eq!(
            Server::start(engine(4), config).err(),
            Some(CoreError::InvalidQueueCapacity)
        );
        let mut rng = SeededRng::new(3);
        let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        let zero_batch = Engine::builder()
            .confidence(big.clone(), crate::scores::ScoreKind::Msp)
            .big(big)
            .max_batch(0)
            .build();
        assert_eq!(zero_batch.err(), Some(CoreError::InvalidMaxBatch));
    }

    #[test]
    fn rejects_malformed_shapes_on_the_client_thread() {
        let server = Server::start(engine(4), ServerConfig::default()).unwrap();
        let handle = server.handle();
        let mut rng = SeededRng::new(32);
        let bad = Tensor::randn(&[3, 11, 12], &mut rng);
        assert!(matches!(
            handle.submit(0, InferenceRequest::new(0, bad)).unwrap_err(),
            CoreError::ShapeMismatch { .. }
        ));
        assert_eq!(handle.in_flight(), 0, "rejected requests hold no slot");
        let (_, stats) = server.shutdown().unwrap();
        assert_eq!(stats.offered, 0);
    }

    #[test]
    fn submit_after_shutdown_is_server_stopped() {
        let server = Server::start(engine(4), ServerConfig::default()).unwrap();
        let handle = server.handle();
        let (_, _) = server.shutdown().unwrap();
        let mut rng = SeededRng::new(33);
        let image = Tensor::randn(&[3, 12, 12], &mut rng);
        assert_eq!(
            handle
                .submit(0, InferenceRequest::new(0, image))
                .unwrap_err(),
            CoreError::ServerStopped
        );
        assert_eq!(handle.in_flight(), 0);
    }
}
