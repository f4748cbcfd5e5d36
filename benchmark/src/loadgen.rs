//! The load generator for the threaded `Server`: an open loop that sends on a
//! schedule whatever the server does, and a closed loop that keeps a fixed
//! number of tickets outstanding. Both check every answer against the
//! reference pre-pass and keep a sent / answered / shed / rejected / failed
//! ledger that is reconciled with the server's own counters.
//!
//! Threads: the open loop uses two (this one paces, a scoped collector waits
//! on tickets); the closed loop uses one. The server's batcher thread and the
//! engine's worker pool belong to the program under test.

use crate::setup::{server_config, Expected, OUTSTANDING};
use appeal_tensor::Tensor;
use appealnet_core::server::trace::TraceEvent;
use appealnet_core::server::{Server, ServerStats, Ticket};
use appealnet_core::{CoreError, Engine, InferenceRequest};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A ticket that has not resolved after this long counts as failed; it keeps
/// a wedged server from hanging the benchmark.
const TICKET_TIMEOUT: Duration = Duration::from_secs(20);

/// One answered request, timed on the generator's clock (ns since the run
/// started).
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Pool index of the image sent.
    pub index: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    /// Time spent inside `ServerHandle::submit`.
    pub admit_ns: u64,
    /// When the answer reached the client.
    pub done_ns: u64,
    /// `ServedResponse::waited`: admission to flush dispatch.
    pub waited_ns: u64,
    pub label: usize,
    pub cloud: bool,
    pub energy_mj: f64,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Per-phase request accounting. `offered = answered + shed + rejected +
/// failed`; `mismatched` counts answers that differ from the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub offered: u64,
    pub answered: u64,
    pub shed: u64,
    pub rejected: u64,
    pub failed: u64,
    pub mismatched: u64,
}

impl Ledger {
    /// Operations that did not produce a correct answer.
    pub fn failures(&self) -> u64 {
        self.shed + self.rejected + self.failed + self.mismatched
    }

    /// Adds another phase's counts to this one's.
    pub fn absorb(&mut self, other: &Ledger) {
        self.offered += other.offered;
        self.answered += other.answered;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    pub fn fail_share(&self) -> f64 {
        self.failures() as f64 / self.offered.max(1) as f64
    }

    pub fn render(&self) -> String {
        format!(
            "sent {} | answered {} | shed {} | rejected {} | failed {} | wrong {}",
            self.offered, self.answered, self.shed, self.rejected, self.failed, self.mismatched
        )
    }
}

/// The result of one replay through a fresh server.
pub struct ServeRun {
    /// Answered requests in completion order.
    pub records: Vec<Record>,
    pub ledger: Ledger,
    /// Open loop only: how late each send started, in ms.
    pub late_ms: Vec<f64>,
    pub stats: ServerStats,
    /// First send to last answer.
    pub wall_s: f64,
    pub start_ms: f64,
    pub shutdown_ms: f64,
    pub violations: Vec<String>,
}

struct Collected {
    records: Vec<Record>,
    ledger: Ledger,
}

impl Collected {
    fn new() -> Self {
        Collected {
            records: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    /// Waits for one ticket and files the outcome.
    fn settle(
        &mut self,
        index: usize,
        due_ns: u64,
        admit_ns: u64,
        ticket: Ticket,
        started: Instant,
        expected: &[Expected],
    ) {
        match ticket.wait_deadline(TICKET_TIMEOUT) {
            Ok(served) => {
                let done_ns = started.elapsed().as_nanos() as u64;
                self.ledger.answered += 1;
                if !expected[index].matches(&served.response) {
                    self.ledger.mismatched += 1;
                }
                self.records.push(Record {
                    index,
                    due_ns,
                    admit_ns,
                    done_ns,
                    waited_ns: served.waited.as_nanos() as u64,
                    label: served.response.label,
                    cloud: served.response.route.is_cloud(),
                    energy_mj: served.response.cost.energy_mj,
                });
            }
            Err(CoreError::Shed) => self.ledger.shed += 1,
            Err(_) => self.ledger.failed += 1,
        }
    }
}

/// Open loop: sends request `i` (pool image `order[i]`) when `events[i]` is
/// due, however far behind the server is. Latency is later taken from the
/// *due* time, so a generator or server stall is charged to the requests it
/// delayed.
pub fn open_loop(
    engine: Engine,
    events: &[TraceEvent],
    order: &[usize],
    requests: &[Tensor],
    expected: &[Expected],
) -> (Engine, ServeRun) {
    assert_eq!(events.len(), order.len(), "one pool index per event");
    let boot = Instant::now();
    let server = Server::start(engine, server_config()).expect("valid server config");
    let start_ms = boot.elapsed().as_secs_f64() * 1e3;
    let handle = server.handle();

    let mut late_ms = Vec::with_capacity(events.len());
    let mut rejected = 0u64;
    let mut send_failed = 0u64;
    let (tx, rx) = mpsc::channel::<(usize, u64, u64, Ticket)>();
    let started = Instant::now();
    let mut collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut collected = Collected::new();
            while let Ok((index, due_ns, admit_ns, ticket)) = rx.recv() {
                collected.settle(index, due_ns, admit_ns, ticket, started, expected);
            }
            collected
        });
        for (event, &index) in events.iter().zip(order) {
            let due = Duration::from_nanos(event.at_nanos);
            if let Some(gap) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(gap);
            }
            let request = InferenceRequest::new(index as u64, requests[index].clone());
            let sent = started.elapsed();
            late_ms.push(sent.saturating_sub(due).as_secs_f64() * 1e3);
            let outcome = handle.submit(event.client, request);
            let admit_ns = (started.elapsed() - sent).as_nanos() as u64;
            match outcome {
                Ok(ticket) => tx
                    .send((index, event.at_nanos, admit_ns, ticket))
                    .expect("the collector outlives the pacer"),
                Err(CoreError::Overloaded { .. }) => rejected += 1,
                Err(_) => send_failed += 1,
            }
        }
        drop(tx);
        collector.join().expect("the collector does not panic")
    });
    let wall_s = started.elapsed().as_secs_f64();
    collected.ledger.offered = events.len() as u64;
    collected.ledger.rejected = rejected;
    collected.ledger.failed += send_failed;
    finish(server, collected, late_ms, wall_s, start_ms)
}

/// Closed loop: one generator keeps [`OUTSTANDING`] tickets in flight (wait
/// for the oldest, send the next) through whole passes over the pool until
/// `seconds` have elapsed. The server is never idle and never overloaded, so
/// answered / wall is its capacity.
pub fn closed_loop(
    engine: Engine,
    seconds: f64,
    offset: usize,
    requests: &[Tensor],
    expected: &[Expected],
) -> (Engine, ServeRun) {
    let boot = Instant::now();
    let server = Server::start(engine, server_config()).expect("valid server config");
    let start_ms = boot.elapsed().as_secs_f64() * 1e3;
    let handle = server.handle();

    let mut collected = Collected::new();
    let mut in_flight: VecDeque<(usize, u64, u64, Ticket)> = VecDeque::with_capacity(OUTSTANDING);
    let started = Instant::now();
    let mut sent = 0usize;
    loop {
        // Stop only on a pass boundary so every image is sent equally often.
        if sent > 0
            && sent.is_multiple_of(requests.len())
            && started.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
        if in_flight.len() == OUTSTANDING {
            let (index, due_ns, admit_ns, ticket) = in_flight.pop_front().expect("queue is full");
            collected.settle(index, due_ns, admit_ns, ticket, started, expected);
        }
        let index = (offset + sent) % requests.len();
        let request = InferenceRequest::new(sent as u64, requests[index].clone());
        let before = started.elapsed();
        let outcome = handle.submit((sent % 4) as u32, request);
        let admit_ns = (started.elapsed() - before).as_nanos() as u64;
        sent += 1;
        match outcome {
            Ok(ticket) => in_flight.push_back((index, before.as_nanos() as u64, admit_ns, ticket)),
            Err(CoreError::Overloaded { .. }) => collected.ledger.rejected += 1,
            Err(_) => collected.ledger.failed += 1,
        }
    }
    for (index, due_ns, admit_ns, ticket) in in_flight {
        collected.settle(index, due_ns, admit_ns, ticket, started, expected);
    }
    let wall_s = started.elapsed().as_secs_f64();
    collected.ledger.offered = sent as u64;
    finish(server, collected, Vec::new(), wall_s, start_ms)
}

/// Shuts the server down and reconciles the generator's ledger with the
/// server's and the engine's counters.
fn finish(
    server: Server,
    collected: Collected,
    late_ms: Vec<f64>,
    wall_s: f64,
    start_ms: f64,
) -> (Engine, ServeRun) {
    let stopping = Instant::now();
    let (engine, stats) = server
        .shutdown()
        .unwrap_or_else(|e| panic!("the batcher died during the run: {e}"));
    let shutdown_ms = stopping.elapsed().as_secs_f64() * 1e3;

    let Collected { records, ledger } = collected;
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    check(
        ledger.offered == ledger.answered + ledger.shed + ledger.rejected + ledger.failed,
        format!("ledger does not add up: {}", ledger.render()),
    );
    check(
        ledger.answered == stats.answered,
        format!(
            "client saw {} answers, server counted {}",
            ledger.answered, stats.answered
        ),
    );
    check(
        ledger.shed == stats.shed,
        format!(
            "client saw {} sheds, server counted {}",
            ledger.shed, stats.shed
        ),
    );
    check(
        ledger.rejected == stats.rejected,
        format!(
            "client saw {} rejections, server counted {}",
            ledger.rejected, stats.rejected
        ),
    );
    check(
        ledger.failed == stats.failed + stats.deadline_expired,
        format!(
            "client saw {} failures, server counted {} failed + {} expired",
            ledger.failed, stats.failed, stats.deadline_expired
        ),
    );
    check(
        stats.offered == stats.admitted + stats.shed
            && stats.offered + stats.rejected <= ledger.offered,
        format!(
            "server ledger: offered {} admitted {} shed {} rejected {} of {} sent",
            stats.offered, stats.admitted, stats.shed, stats.rejected, ledger.offered
        ),
    );
    check(
        stats.engine.requests == stats.answered,
        format!(
            "engine served {}, server answered {}",
            stats.engine.requests, stats.answered
        ),
    );
    check(
        stats.engine.edge_handled + stats.engine.offloaded == stats.engine.requests,
        "engine edge + offloaded != requests".to_string(),
    );
    let per_client: u64 = stats.clients.iter().map(|c| c.answered).sum();
    check(
        per_client == stats.answered,
        format!(
            "per-client ledger sums to {per_client}, not {}",
            stats.answered
        ),
    );
    check(
        stats.size_flushes + stats.deadline_flushes + stats.drain_flushes == stats.engine.batches,
        "flush triggers do not sum to the engine's batch count".to_string(),
    );
    check(
        engine.pending() == 0,
        format!("engine handed back {} queued requests", engine.pending()),
    );
    check(ledger.answered > 0, "no request was answered".to_string());
    (
        engine,
        ServeRun {
            records,
            ledger,
            late_ms,
            stats,
            wall_s,
            start_ms,
            shutdown_ms,
            violations,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_models::{ModelFamily, ModelSpec};
    use appeal_tensor::SeededRng;
    use appealnet_core::{ThresholdPolicy, TwoHeadNet};

    /// A small untrained stack, its requests and their reference answers.
    fn stack(images: usize) -> (Engine, Vec<Tensor>, Vec<Expected>) {
        let mut rng = SeededRng::new(5);
        let input = [3, 12, 12];
        let little = ModelSpec::little(ModelFamily::MobileNetLike, input, 4).build(&mut rng);
        let big = ModelSpec::big(input, 4).build(&mut rng);
        let mut engine = Engine::builder()
            .appealnet(TwoHeadNet::from_parts(little, &mut rng))
            .big(big)
            .policy(ThresholdPolicy::new(0.5).unwrap())
            .max_batch(8)
            .build()
            .unwrap();
        let requests: Vec<Tensor> = (0..images)
            .map(|_| Tensor::randn(&input, &mut rng))
            .collect();
        let expected = requests
            .iter()
            .map(|image| {
                let batch = image.reshape(&[1, 3, 12, 12]).unwrap();
                Expected::of(&engine.classify_batch(&batch).unwrap()[0])
            })
            .collect();
        engine.reset_stats();
        (engine, requests, expected)
    }

    #[test]
    fn open_loop_times_from_the_due_instant_and_reports_lateness() {
        let (engine, requests, expected) = stack(40);
        // Thirty-nine requests due at once, then one due 30 ms later. The
        // pacer cannot send the crowd at its due instant: it runs late, and
        // says so; the straggler is not sent early.
        let mut events: Vec<TraceEvent> = (0..39)
            .map(|i| TraceEvent {
                at_nanos: 0,
                client: i % 4,
            })
            .collect();
        events.push(TraceEvent {
            at_nanos: 30_000_000,
            client: 0,
        });
        let order: Vec<usize> = (0..40).collect();
        let (engine, run) = open_loop(engine, &events, &order, &requests, &expected);

        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(
            run.ledger,
            Ledger {
                offered: 40,
                answered: 40,
                ..Ledger::default()
            }
        );
        assert_eq!(engine.pending(), 0);
        assert_eq!(run.late_ms.len(), 40);
        // Lateness grows through the crowd: each send waits for the ones before.
        assert!(run.late_ms[38] > run.late_ms[0]);
        for r in &run.records {
            assert_eq!(
                r.due_ns, events[r.index].at_nanos,
                "latency starts at the due time"
            );
            // Latency from the due instant includes however late the send was.
            assert!(
                r.latency_ms() >= run.late_ms[r.index],
                "request {}",
                r.index
            );
        }
        let straggler = run.records.iter().find(|r| r.index == 39).unwrap();
        assert!(straggler.done_ns >= 30_000_000, "sent before it was due");
        assert!(run.late_ms[39] < 25.0, "an idle pacer is not this late");
    }

    #[test]
    fn closed_loop_sends_whole_passes_and_reconciles() {
        let (engine, requests, expected) = stack(16);
        let (_, run) = closed_loop(engine, 0.05, 3, &requests, &expected);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.ledger.offered % 16, 0);
        assert_eq!(run.ledger.answered, run.ledger.offered);
        assert_eq!(run.ledger.failures(), 0);
        // The first request is the pool offset; passes cover every image.
        let mut seen = [0u64; 16];
        run.records.iter().for_each(|r| seen[r.index] += 1);
        assert!(seen.iter().all(|&n| n == run.ledger.offered / 16));
    }

    #[test]
    fn a_wrong_reference_is_counted() {
        let (engine, requests, mut expected) = stack(8);
        expected[2].label += 1;
        let events: Vec<TraceEvent> = (0..8)
            .map(|i| TraceEvent {
                at_nanos: i * 1000,
                client: 0,
            })
            .collect();
        let order: Vec<usize> = (0..8).collect();
        let (_, run) = open_loop(engine, &events, &order, &requests, &expected);
        assert_eq!(run.ledger.mismatched, 1);
        assert_eq!(run.ledger.failures(), 1);
    }
}
