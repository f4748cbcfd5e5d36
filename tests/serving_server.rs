//! Serving front-end guarantees: deadline-coalesced micro-batching must be
//! byte-identical to direct `Engine` batching at equal batch composition,
//! overload shedding must be deterministic under a fixed trace, the bounded
//! admission queue must reject with typed backpressure, and the threaded
//! batcher flushes a partial batch as soon as nothing else is waiting —
//! gathering company only while a flush is in flight.
//!
//! The threaded tests never lean on timing: where a request has to stay
//! outstanding, a [`GatePolicy`] parks the batcher inside the flush until
//! the test has arranged what queues behind it.

use appeal_bench::fixtures::{model_pair, CLASSES};
use appeal_hw::CostBudget;
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::serve::RoutingContext;
use appealnet_core::server::trace::{TraceShape, TraceSpec};
use appealnet_core::server::{
    Admission, MicroBatcher, Server, ServerConfig, ServerHandle, ServerStats, ShedConfig, Ticket,
};
use appealnet_core::{
    CoreError, Engine, InferenceRequest, InferenceResponse, Route, RoutingPolicy, ThresholdPolicy,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const MS: u64 = 1_000_000;

/// Identically-seeded engines: same weights, chosen policy and max_batch.
fn engine_with(max_batch: usize, policy: impl RoutingPolicy + 'static) -> Engine {
    let (net, big) = model_pair(5, CLASSES);
    Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(policy)
        .max_batch(max_batch)
        .build()
        .unwrap()
}

fn engine(max_batch: usize, delta: f64) -> Engine {
    engine_with(max_batch, ThresholdPolicy::new(delta).unwrap())
}

/// The test's side of a [`GatePolicy`]: hands out passes and observes the
/// batcher parking.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Routing decisions still allowed through.
    passes: u64,
    /// How many times a decision found no pass and parked.
    parked: u64,
    /// Set by [`Gate::poison`]: the next decision panics.
    poisoned: bool,
}

impl Gate {
    /// Blocks until the batcher has parked for the `n`-th time, i.e. it is
    /// inside an engine flush and will stay there until passes arrive.
    fn wait_parked(&self, n: u64) {
        let mut st = self.state.lock().unwrap();
        while st.parked < n {
            let (guard, timeout) = self
                .changed
                .wait_timeout(st, Duration::from_secs(30))
                .unwrap();
            assert!(!timeout.timed_out(), "the batcher never reached the gate");
            st = guard;
        }
    }

    /// Lets `n` more routing decisions (one per request) through.
    fn pass(&self, n: u64) {
        self.state.lock().unwrap().passes += n;
        self.changed.notify_all();
    }

    /// Opens the gate for good.
    fn open(&self) {
        self.pass(u64::MAX / 2);
    }

    /// Makes the next routing decision — the parked one, if any — panic,
    /// killing the batcher from inside its flush.
    fn poison(&self) {
        self.state.lock().unwrap().poisoned = true;
        self.changed.notify_all();
    }
}

/// Eq. 1 routing behind a [`Gate`]: each decision takes one pass and parks
/// the calling thread — the batcher, mid-flush — while there is none. An
/// idle batcher flushes at once, so this is how a test keeps a request
/// outstanding, or queues others behind a flush in flight, without a clock.
struct GatePolicy {
    inner: ThresholdPolicy,
    gate: Arc<Gate>,
}

impl RoutingPolicy for GatePolicy {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn decide(&mut self, score: f32, ctx: &RoutingContext) -> Route {
        let mut st = self.gate.state.lock().unwrap();
        if st.passes == 0 {
            st.parked += 1;
            self.gate.changed.notify_all();
            while st.passes == 0 && !st.poisoned {
                st = self.gate.changed.wait(st).unwrap();
            }
        }
        if st.poisoned {
            // Released first: the test keeps using the gate's mutex.
            drop(st);
            panic!("poisoned gate: killing the batcher mid-flush");
        }
        st.passes -= 1;
        drop(st);
        self.inner.decide(score, ctx)
    }
}

/// A threaded server (δ = 0.5) whose batcher parks at a closed [`Gate`].
fn gated_server(max_batch: usize, config: ServerConfig) -> (Server, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let policy = GatePolicy {
        inner: ThresholdPolicy::new(0.5).unwrap(),
        gate: Arc::clone(&gate),
    };
    let server = Server::start(engine_with(max_batch, policy), config).unwrap();
    (server, gate)
}

fn images(n: usize) -> Vec<Tensor> {
    let mut rng = SeededRng::new(41);
    (0..n)
        .map(|_| Tensor::randn(&[3, 12, 12], &mut rng))
        .collect()
}

/// What a max_batch-1 engine answers for each input, one request at a time.
fn single_request_reference(inputs: &[Tensor]) -> Vec<InferenceResponse> {
    let mut reference = engine(1, 0.5);
    inputs
        .iter()
        .enumerate()
        .map(|(i, image)| {
            reference
                .submit(InferenceRequest::new(i as u64, image.clone()))
                .unwrap()
                .expect("max_batch 1 answers immediately")
                .remove(0)
        })
        .collect()
}

/// Submits `inputs[ids]` on behalf of client 7, ids as request ids.
fn submit_all(
    handle: &ServerHandle,
    inputs: &[Tensor],
    ids: std::ops::Range<usize>,
) -> Vec<Ticket> {
    ids.map(|i| {
        handle
            .submit(7, InferenceRequest::new(i as u64, inputs[i].clone()))
            .unwrap()
    })
    .collect()
}

/// Every engine batch is ledgered under exactly one flush trigger.
fn assert_triggers_sum_to_batches(stats: &ServerStats) {
    assert_eq!(
        stats.size_flushes + stats.deadline_flushes + stats.drain_flushes,
        stats.engine.batches,
        "flush triggers must sum to the engine's batches"
    );
}

fn assert_flush_ledger(stats: &ServerStats, size: u64, deadline: u64, drain: u64) {
    assert_eq!(
        (
            stats.size_flushes,
            stats.deadline_flushes,
            stats.drain_flushes
        ),
        (size, deadline, drain),
        "(size, deadline, drain) flushes"
    );
    assert_triggers_sum_to_batches(stats);
}

fn assert_bit_identical(a: &InferenceResponse, b: &InferenceResponse) {
    assert_eq!(a.id, b.id);
    assert_eq!(a.label, b.label);
    assert_eq!(a.score.to_bits(), b.score.to_bits(), "request {}", a.id);
    assert_eq!(a.route, b.route);
    assert_eq!(a.cost, b.cost);
}

/// Deadline-triggered flushes and size-triggered flushes must produce
/// byte-identical responses to direct `Engine` micro-batching when the batch
/// composition is equal ([4, 4, 4] here).
#[test]
fn deadline_and_size_flushes_match_direct_engine_byte_identically() {
    let inputs = images(12);

    // Path A — direct Engine batching: submit 4, flush, repeat.
    let mut direct = engine(64, 0.5);
    let mut direct_responses = Vec::new();
    for (i, image) in inputs.iter().enumerate() {
        direct
            .submit(InferenceRequest::new(i as u64, image.clone()))
            .unwrap();
        if (i + 1) % 4 == 0 {
            direct_responses.extend(direct.flush().unwrap());
        }
    }

    // Path B — size-triggered: max_batch 4 flushes automatically.
    let mut by_size = MicroBatcher::new(engine(4, 0.5), Duration::from_secs(600), None).unwrap();
    let mut size_responses = Vec::new();
    for (i, image) in inputs.iter().enumerate() {
        match by_size
            .offer(0, 0, InferenceRequest::new(i as u64, image.clone()))
            .unwrap()
        {
            Admission::Flushed(batch) => {
                size_responses.extend(batch.into_iter().map(|cr| cr.response))
            }
            Admission::Queued => {}
            Admission::Shed => unreachable!("no shed policy configured"),
        }
    }

    // Path C — deadline-triggered: max_batch 64 never fills; every group of
    // 4 is flushed by the 1 ms deadline in virtual time.
    let mut by_deadline =
        MicroBatcher::new(engine(64, 0.5), Duration::from_millis(1), None).unwrap();
    let mut deadline_responses = Vec::new();
    for (group, chunk) in inputs.chunks(4).enumerate() {
        let t0 = group as u64 * 10 * MS;
        for (j, image) in chunk.iter().enumerate() {
            let id = (group * 4 + j) as u64;
            assert!(matches!(
                by_deadline
                    .offer(t0 + j as u64, 0, InferenceRequest::new(id, image.clone()))
                    .unwrap(),
                Admission::Queued
            ));
        }
        assert!(by_deadline.poll(t0 + MS - 1).unwrap().is_none());
        let (trigger, batch) = by_deadline.poll(t0 + MS).unwrap().unwrap();
        assert_eq!(
            trigger,
            appealnet_core::server::FlushTrigger::Deadline,
            "group {group} must flush on deadline, not size"
        );
        deadline_responses.extend(batch.into_iter().map(|cr| cr.response));
    }

    assert_eq!(direct_responses.len(), 12);
    assert_eq!(size_responses.len(), 12);
    assert_eq!(deadline_responses.len(), 12);
    for i in 0..12 {
        assert_bit_identical(&direct_responses[i], &size_responses[i]);
        assert_bit_identical(&direct_responses[i], &deadline_responses[i]);
    }
    // The stats agree too: 3 batches of 4 everywhere.
    assert_eq!(by_size.stats().size_flushes, 3);
    assert_eq!(by_deadline.stats().deadline_flushes, 3);
    assert_eq!(by_size.stats().engine.batches, 3);
    assert_eq!(by_deadline.stats().engine.batches, 3);
}

/// Replaying one fixed bursty trace through identically-seeded batchers
/// must shed exactly the same requests with exactly the same answers.
#[test]
fn overload_shedding_is_deterministic_under_a_fixed_trace() {
    let spec = TraceSpec {
        shape: TraceShape::Bursty { burst: 8 },
        requests: 64,
        mean_gap_nanos: MS / 4,
        clients: 3,
        seed: 99,
    };

    let run = || {
        // δ = 1.0 forces every answered request to appeal. The 16-request
        // window is deliberately misaligned with the 8-request bursts, so
        // each burst's flush charges the meter mid-window and the ≈2.5
        // offloads of budget must shed the tail of every window.
        let offload = engine(8, 1.0).offload_cost();
        let mut mb = MicroBatcher::new(
            engine(8, 1.0),
            Duration::from_millis(1),
            Some(ShedConfig {
                budget: CostBudget::energy_mj(offload.energy_mj * 2.5),
                window: 16,
            }),
        )
        .unwrap();
        let inputs = images(64);
        let mut shed_ids = Vec::new();
        let mut answers = Vec::new();
        for (i, event) in spec.events().into_iter().enumerate() {
            // Deadlines that came due before this arrival fire first, as
            // they would in real time.
            if let Some((_, batch)) = mb.poll(event.at_nanos).unwrap() {
                answers.extend(batch.into_iter().map(|cr| cr.response));
            }
            let request = InferenceRequest::new(i as u64, inputs[i].clone());
            match mb.offer(event.at_nanos, event.client, request).unwrap() {
                Admission::Shed => shed_ids.push(i as u64),
                Admission::Flushed(batch) => {
                    answers.extend(batch.into_iter().map(|cr| cr.response))
                }
                Admission::Queued => {}
            }
        }
        answers.extend(
            mb.drain(spec.span_nanos() + MS)
                .unwrap()
                .into_iter()
                .map(|cr| cr.response),
        );
        (shed_ids, answers, mb.stats())
    };

    let (shed_a, answers_a, stats_a) = run();
    let (shed_b, answers_b, stats_b) = run();
    assert_eq!(shed_a, shed_b, "shed pattern must replay identically");
    assert_eq!(answers_a.len(), answers_b.len());
    for (a, b) in answers_a.iter().zip(answers_b.iter()) {
        assert_bit_identical(a, b);
    }
    // `engine.busy_seconds` is wall-clock, so compare the deterministic
    // counters rather than whole-struct equality.
    assert_eq!(
        (
            stats_a.offered,
            stats_a.admitted,
            stats_a.answered,
            stats_a.shed
        ),
        (
            stats_b.offered,
            stats_b.admitted,
            stats_b.answered,
            stats_b.shed
        ),
    );
    assert_eq!(
        (
            stats_a.size_flushes,
            stats_a.deadline_flushes,
            stats_a.drain_flushes
        ),
        (
            stats_b.size_flushes,
            stats_b.deadline_flushes,
            stats_b.drain_flushes
        ),
    );
    assert_eq!(stats_a.clients, stats_b.clients);
    assert!(
        !shed_a.is_empty() && shed_a.len() < 64,
        "the trace must actually overload the budget without starving it: {} shed",
        shed_a.len()
    );
    assert_eq!(stats_a.answered + stats_a.shed, 64);
    assert_eq!(stats_a.engine.requests, stats_a.answered);
    assert_eq!(
        stats_a.engine.offloaded, stats_a.answered,
        "δ = 1.0 must appeal every answered request"
    );
}

/// The bounded admission queue rejects with typed backpressure once
/// capacity in-flight requests are outstanding.
#[test]
fn full_admission_queue_rejects_with_typed_overload() {
    let (server, gate) = gated_server(
        64,
        ServerConfig {
            queue_capacity: 3,
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();
    let inputs = images(4);
    // The first request's flush parks at the gate, so its slot and the two
    // queued behind it stay taken for as long as the test likes.
    let mut tickets = submit_all(&handle, &inputs, 0..1);
    gate.wait_parked(1);
    tickets.extend(submit_all(&handle, &inputs, 1..3));
    assert_eq!(handle.in_flight(), 3);
    assert_eq!(
        handle
            .submit(7, InferenceRequest::new(3, inputs[3].clone()))
            .unwrap_err(),
        CoreError::Overloaded { capacity: 3 }
    );
    gate.open();
    // Shutdown drains the admitted three; their tickets resolve.
    let (engine_back, stats) = server.shutdown().unwrap();
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.wait().unwrap().response.id, i as u64);
    }
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.answered, 3);
    assert_flush_ledger(&stats, 0, 0, 2);
    assert!(stats.rejection_rate() > 0.0);
    assert_eq!(engine_back.pending(), 0, "no state left behind");
}

/// A ticket whose answer is held past the per-request deadline resolves
/// with the typed timeout; the request itself still runs to completion.
#[test]
fn per_request_deadline_is_a_typed_timeout() {
    let (server, gate) = gated_server(
        64,
        ServerConfig {
            queue_capacity: 8,
            request_deadline: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();
    let ticket = submit_all(&handle, &images(1), 0..1).remove(0);
    // The flush is parked at the gate: the answer cannot arrive before the
    // 1 ms request deadline does.
    gate.wait_parked(1);
    assert_eq!(
        ticket.wait().unwrap_err(),
        CoreError::DeadlineExceeded {
            deadline: Duration::from_millis(1)
        }
    );
    gate.open();
    // The abandoned request still settles.
    let (_, stats) = server.shutdown().unwrap();
    assert_eq!(stats.answered, 1);
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.failed, 0);
    assert_flush_ledger(&stats, 0, 0, 1);
}

/// Dropping the server (no explicit shutdown) while requests sit queued
/// behind a flush in flight must still answer them, not strand the tickets.
#[test]
fn drop_drains_admitted_requests() {
    let (server, gate) = gated_server(
        64,
        ServerConfig {
            queue_capacity: 4096,
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();
    let inputs = images(3);
    let mut tickets = submit_all(&handle, &inputs, 0..1);
    gate.wait_parked(1);
    tickets.extend(submit_all(&handle, &inputs, 1..3));
    // Drop on another thread (it joins the parked batcher), and only open
    // the gate once the stop flag is observably set: two requests are then
    // certainly still queued when the server is told to go away.
    let dropper = std::thread::spawn(move || drop(server));
    let mut admitted_before_the_flag = Vec::new();
    loop {
        match handle.submit(7, InferenceRequest::new(99, inputs[0].clone())) {
            Ok(ticket) => admitted_before_the_flag.push(ticket),
            Err(err) => {
                assert_eq!(err, CoreError::ServerStopped);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    gate.open();
    dropper.join().unwrap();
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.wait().unwrap().response.id, i as u64);
    }
    for ticket in admitted_before_the_flag {
        assert_eq!(ticket.wait().unwrap().response.id, 99);
    }
    assert_eq!(handle.in_flight(), 0);
}

/// A lone request does not wait for company: with nothing else queued the
/// batcher flushes it at once, however long the coalescing deadline, and
/// ledgers the batch under the drain trigger.
#[test]
fn lone_request_is_flushed_without_waiting_for_the_deadline() {
    let server = Server::start(
        engine(64, 0.5),
        ServerConfig {
            deadline: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let inputs = images(1);
    let ticket = submit_all(&server.handle(), &inputs, 0..1).remove(0);
    let served = ticket.wait_deadline(Duration::from_secs(30)).unwrap();
    assert_bit_identical(&served.response, &single_request_reference(&inputs)[0]);
    let (_, stats) = server.shutdown().unwrap();
    assert_eq!(stats.answered, 1);
    assert_eq!(stats.deadline_expired, 0);
    assert_flush_ledger(&stats, 0, 0, 1);
}

/// Requests coalesce only while a flush is in flight: whatever queued
/// behind it leaves together on the next iteration — in full size-triggered
/// batches plus one remainder, so a saturated server still fills batches.
#[test]
fn requests_queued_behind_a_flush_leave_together() {
    const MAX_BATCH: usize = 4;
    // (queued behind the first flush, expected size flushes, drain flushes)
    for (k, size, drain) in [(3, 0, 2), (4, 1, 1), (10, 2, 2)] {
        let (server, gate) = gated_server(
            MAX_BATCH,
            ServerConfig {
                deadline: Duration::from_secs(600),
                ..ServerConfig::default()
            },
        );
        let handle = server.handle();
        let inputs = images(1 + k);
        let expected = single_request_reference(&inputs);
        let mut tickets = submit_all(&handle, &inputs, 0..1);
        gate.wait_parked(1);
        tickets.extend(submit_all(&handle, &inputs, 1..1 + k));
        gate.open();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let served = ticket.wait_deadline(Duration::from_secs(30)).unwrap();
            assert_bit_identical(&served.response, want);
        }
        let (_, stats) = server.shutdown().unwrap();
        // Batch sizes follow from the ledger: [1], then ⌊k/4⌋ full batches,
        // then the remainder if any.
        assert_eq!(stats.answered, 1 + k as u64, "k = {k}");
        assert_flush_ledger(&stats, size, 0, drain);
    }
}

/// The coalescing deadline is an upper bound, not a floor: a partial batch
/// with more work queued behind it keeps gathering until the deadline, and
/// is flushed by it once past.
#[test]
fn deadline_bounds_a_partial_batch_only_while_more_work_is_queued() {
    // (deadline, expected (size, deadline, drain) flushes)
    for (deadline, (size, by_deadline, drain)) in [
        (Duration::from_secs(600), (2, 0, 1)),
        (Duration::ZERO, (1, 1, 2)),
    ] {
        let (server, gate) = gated_server(
            2,
            ServerConfig {
                deadline,
                ..ServerConfig::default()
            },
        );
        let handle = server.handle();
        let inputs = images(5);
        let expected = single_request_reference(&inputs);
        // [0] flushes alone and parks; 1, 2, 3 queue behind it.
        let mut tickets = submit_all(&handle, &inputs, 0..1);
        gate.wait_parked(1);
        tickets.extend(submit_all(&handle, &inputs, 1..4));
        // [1, 2] fills the batch and parks; 4 queues behind it, so when 3 is
        // offered next the batcher is not idle.
        gate.pass(1);
        gate.wait_parked(2);
        tickets.extend(submit_all(&handle, &inputs, 4..5));
        gate.pass(2);
        // 600 s: 3 keeps gathering and leaves with 4 as a full batch [3, 4].
        // 0 s: 3 is already past its deadline and leaves alone, then [4].
        gate.wait_parked(3);
        gate.open();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let served = ticket.wait_deadline(Duration::from_secs(30)).unwrap();
            assert_bit_identical(&served.response, want);
        }
        let (_, stats) = server.shutdown().unwrap();
        assert_eq!(stats.answered, 5, "deadline {deadline:?}");
        assert_flush_ledger(&stats, size, by_deadline, drain);
    }
}

/// The engine is per-sample pure, so whatever micro-batch composition the
/// threaded server's real-time coalescing produces, each answer must be
/// bit-identical to a single-request reference evaluation.
#[test]
fn threaded_server_answers_match_single_request_reference() {
    let inputs = images(10);
    let expected = single_request_reference(&inputs);

    let server = Server::start(
        engine(4, 0.5),
        ServerConfig {
            queue_capacity: 32,
            deadline: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let tickets: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, image)| {
            handle
                .submit(
                    (i % 3) as u32,
                    InferenceRequest::new(i as u64, image.clone()),
                )
                .unwrap()
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let served = ticket.wait().unwrap();
        assert_bit_identical(&served.response, &expected[i]);
    }
    let (_, stats) = server.shutdown().unwrap();
    assert_eq!(stats.answered, 10);
    assert_eq!(stats.shed + stats.rejected, 0);
    assert_triggers_sum_to_batches(&stats);
    assert_eq!(stats.clients.len(), 3);
    let ledger_total: u64 = stats.clients.iter().map(|c| c.answered).sum();
    assert_eq!(ledger_total, 10, "every answer is attributed to a client");
}

/// A batcher that dies unwinding owes nobody a hang: the panic fence turns
/// every outstanding ticket into the typed verdict wherever its request was
/// at the time — coalescing (sender in the loop's `waiters`), being offered
/// or still in the loop's inbound deque (senders that disconnect *before*
/// the fence flags the panic, the window `Ticket`s spin out), or in the
/// shared queue (drained by the fence itself).
#[test]
fn panicked_batcher_fails_tickets_with_a_typed_error() {
    let (server, gate) = gated_server(
        2,
        ServerConfig {
            deadline: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();
    let inputs = images(8);
    // [0] flushes alone and parks; 1..=4 queue behind it.
    let mut tickets = submit_all(&handle, &inputs, 0..1);
    gate.wait_parked(1);
    tickets.extend(submit_all(&handle, &inputs, 1..5));
    // [0] is answered. The batcher takes 1..=4 together: 1 coalesces, 2 fills
    // the batch and its size-triggered flush parks with 3 and 4 not yet
    // offered.
    gate.pass(1);
    gate.wait_parked(2);
    // 5 and 6 land in the shared queue behind the parked flush.
    tickets.extend(submit_all(&handle, &inputs, 5..7));
    gate.poison();

    let mut tickets = tickets.into_iter();
    let answered = tickets.next().unwrap();
    assert_eq!(answered.wait().unwrap().response.id, 0);
    // The fence must resolve every other ticket well within this bound — a
    // hang here is the regression being guarded.
    for ticket in tickets {
        assert_eq!(
            ticket.wait_deadline(Duration::from_secs(30)).unwrap_err(),
            CoreError::BatcherPanicked
        );
    }
    // Later submissions see the dead batcher, not a silent queue.
    assert_eq!(
        handle
            .submit(7, InferenceRequest::new(7, inputs[7].clone()))
            .unwrap_err(),
        CoreError::BatcherPanicked
    );
    assert_eq!(handle.in_flight(), 0, "a dead server holds no slots");
    assert_eq!(server.shutdown().unwrap_err(), CoreError::BatcherPanicked);
}

/// The threaded shed arm: behind a max_batch-1, δ = 1.0 engine every admitted
/// request flushes (and charges the meter) at once, so a budget of 1.5
/// offloads per 4-request window admits exactly the requests
/// `coalescer::tests::shed_policy_windows_are_deterministic` pins in virtual
/// time, and the rest resolve with the typed shed verdict.
#[test]
fn threaded_server_sheds_with_a_typed_answer_and_frees_the_slot() {
    let offload = engine(1, 1.0).offload_cost();
    let server = Server::start(
        engine(1, 1.0),
        ServerConfig {
            shed: Some(ShedConfig {
                budget: CostBudget::energy_mj(offload.energy_mj * 1.5),
                window: 4,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let inputs = images(12);
    let mut answered = Vec::new();
    for i in 0..12 {
        let ticket = submit_all(&handle, &inputs, i..i + 1).remove(0);
        match ticket.wait_deadline(Duration::from_secs(30)) {
            Ok(served) => answered.push(served.response.id),
            Err(err) => assert_eq!(err, CoreError::Shed, "request {i}"),
        }
    }
    assert_eq!(answered, [0, 3, 7, 11], "everything else must be shed");
    assert_eq!(handle.in_flight(), 0, "a shed request holds no slot");
    let (_, stats) = server.shutdown().unwrap();
    assert_eq!((stats.answered, stats.shed), (4, 8));
    assert_eq!(stats.offered, stats.answered + stats.shed);
    assert_eq!(stats.failed + stats.rejected, 0);
}

/// Replays `spec` through a real [`Server`], pacing submissions by the
/// trace's arrival times, and checks every accounting identity between what
/// the clients saw and what the server ledgered. Nothing here depends on how
/// long anything took. Returns the final stats.
fn replay_and_reconcile(spec: &TraceSpec, delta: f64, shed: Option<ShedConfig>) -> ServerStats {
    let server = Server::start(
        engine(8, delta),
        ServerConfig {
            deadline: Duration::from_millis(1),
            shed,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let events = spec.events();
    let offered = events.len() as u64;
    let inputs = images(events.len());
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    let start = std::time::Instant::now();
    for (i, event) in events.iter().enumerate() {
        if let Some(gap) = Duration::from_nanos(event.at_nanos).checked_sub(start.elapsed()) {
            std::thread::sleep(gap);
        }
        match handle.submit(
            event.client,
            InferenceRequest::new(i as u64, inputs[i].clone()),
        ) {
            Ok(ticket) => tickets.push(ticket),
            Err(CoreError::Overloaded { .. }) => rejected += 1,
            Err(err) => panic!("unexpected submit error: {err}"),
        }
    }
    let (mut answered, mut shed_seen) = (0u64, 0u64);
    for ticket in tickets {
        match ticket.wait_deadline(Duration::from_secs(30)) {
            Ok(_) => answered += 1,
            Err(CoreError::Shed) => shed_seen += 1,
            Err(err) => panic!("unexpected serving error: {err}"),
        }
    }
    let (engine_back, stats) = server.shutdown().unwrap();
    assert_eq!(engine_back.pending(), 0, "no state left behind");
    assert_eq!(
        (answered, shed_seen, rejected),
        (stats.answered, stats.shed, stats.rejected),
        "clients and server must agree on (answered, shed, rejected)"
    );
    assert_eq!(offered, stats.answered + stats.shed + stats.rejected);
    assert!(stats.answered > 0, "no request was answered");
    assert_eq!(stats.engine.requests, stats.answered);
    assert_triggers_sum_to_batches(&stats);
    let ledger: u64 = stats.clients.iter().map(|c| c.answered).sum();
    assert_eq!(ledger, stats.answered, "per-client ledger");
    stats
}

/// A bursty trace at δ = 1.0 behind an energy budget of 16 offloads per
/// 32-request window overruns the budget, so the threaded server sheds part
/// of every burst; a diurnal trace at δ = 0.5 exercises the flush-when-idle
/// path through its troughs. Both must reconcile.
#[test]
fn bursty_and_diurnal_replays_reconcile_with_the_server_ledgers() {
    let trace = |shape| TraceSpec {
        shape,
        requests: 96,
        mean_gap_nanos: MS / 2,
        clients: 4,
        seed: 2021,
    };
    let offload = engine(8, 1.0).offload_cost();
    let bursty = replay_and_reconcile(
        &trace(TraceShape::Bursty { burst: 8 }),
        1.0,
        Some(ShedConfig {
            budget: CostBudget::energy_mj(offload.energy_mj * 16.0),
            window: 32,
        }),
    );
    assert!(
        0 < bursty.shed && bursty.shed < 96,
        "the bursts must overrun the budget without starving it: {} shed",
        bursty.shed
    );
    let diurnal = replay_and_reconcile(
        &trace(TraceShape::Diurnal {
            periods: 2.0,
            amplitude: 0.9,
        }),
        0.5,
        None,
    );
    assert_eq!(diurnal.shed, 0, "no shed policy configured");
}
