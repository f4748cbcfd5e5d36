//! Load generator for the serving front-end: replays bursty and diurnal
//! synthetic traces through [`appealnet_core::server::Server`] and reports
//! latency percentiles, throughput, skipping rate and shed rate.
//!
//! ```text
//! cargo run --release -p appeal-bench --bin loadgen
//! APPEALNET_FIDELITY=smoke cargo run --release -p appeal-bench --bin loadgen
//! ```
//!
//! The binary self-checks the server's accounting invariants (every offered
//! request is answered, shed or rejected; the engine hands back an empty
//! queue; throughput is non-zero) and exits non-zero on any violation, so it
//! doubles as a CI smoke test of the threaded serving path.

use appeal_bench::{fidelity_from_env, write_report};
use appeal_dataset::Fidelity;
use appeal_hw::CostBudget;
use appeal_models::{ModelFamily, ModelSpec};
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::server::trace::{TraceShape, TraceSpec};
use appealnet_core::server::{Server, ServerConfig, ServerStats, ShedConfig};
use appealnet_core::{CoreError, Engine, InferenceRequest, ThresholdPolicy, TwoHeadNet};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const INPUT: [usize; 3] = [3, 12, 12];
const CLASSES: usize = 4;

/// A deterministic, untrained serving stack: loadgen measures the server's
/// coalescing/shedding behaviour, not model quality, so tiny random weights
/// keep the replay fast while exercising the full routed pipeline.
fn build_engine(max_batch: usize, delta: f64) -> Engine {
    let mut rng = SeededRng::new(2021);
    let little = ModelSpec::little(ModelFamily::MobileNetLike, INPUT, CLASSES).build(&mut rng);
    let big = ModelSpec::big(INPUT, CLASSES).build(&mut rng);
    Engine::builder()
        .appealnet(TwoHeadNet::from_parts(little, &mut rng))
        .big(big)
        .policy(ThresholdPolicy::new(delta).expect("valid threshold"))
        .max_batch(max_batch)
        .build()
        .expect("engine builds")
}

struct TraceOutcome {
    name: &'static str,
    offered: usize,
    rejected: usize,
    latencies_ms: Vec<f64>,
    shed_seen: usize,
    wall: Duration,
    stats: ServerStats,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// Replays one trace against a fresh server, pacing submissions by the
/// trace's virtual arrival times and collecting end-to-end latencies on a
/// dedicated collector thread.
fn replay(name: &'static str, spec: &TraceSpec, delta: f64, config: ServerConfig) -> TraceOutcome {
    let server = Server::start(build_engine(8, delta), config).expect("server starts");
    let handle = server.handle();

    let (tx, rx) = mpsc::channel();
    let collector = thread::spawn(move || {
        let mut latencies_ms = Vec::new();
        let mut shed = 0usize;
        while let Ok((sent_at, ticket)) = rx.recv() {
            let (sent_at, ticket): (Instant, appealnet_core::server::Ticket) = (sent_at, ticket);
            match ticket.wait() {
                Ok(_served) => latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3),
                Err(CoreError::Shed) => shed += 1,
                Err(err) => panic!("unexpected serving error: {err}"),
            }
        }
        (latencies_ms, shed)
    });

    let mut rng = SeededRng::new(spec.seed ^ 0x5eed);
    let events = spec.events();
    let offered = events.len();
    let mut rejected = 0usize;
    let start = Instant::now();
    for (i, event) in events.into_iter().enumerate() {
        let due = Duration::from_nanos(event.at_nanos);
        if let Some(gap) = due.checked_sub(start.elapsed()) {
            thread::sleep(gap);
        }
        let image = Tensor::randn(&INPUT, &mut rng);
        let request = InferenceRequest::new(i as u64, image);
        let sent_at = Instant::now();
        match handle.submit(event.client, request) {
            Ok(ticket) => tx.send((sent_at, ticket)).expect("collector alive"),
            Err(CoreError::Overloaded { .. }) => rejected += 1,
            Err(err) => panic!("unexpected submit error: {err}"),
        }
    }
    drop(tx);
    let (latencies_ms, shed_seen) = collector.join().expect("collector thread");
    let wall = start.elapsed();
    let (engine, stats) = server.shutdown().expect("batcher exits cleanly");
    assert_eq!(engine.pending(), 0, "engine must hand back an empty queue");

    let mut sorted = latencies_ms;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    TraceOutcome {
        name,
        offered,
        rejected,
        latencies_ms: sorted,
        shed_seen,
        wall,
        stats,
    }
}

/// Accounting invariants that must hold after any replay; violations are
/// serving bugs, not workload properties.
fn check_invariants(o: &TraceOutcome, violations: &mut Vec<String>) {
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(format!("[{}] {what}", o.name));
        }
    };
    let answered = o.latencies_ms.len() as u64;
    check(
        answered == o.stats.answered,
        format!(
            "client saw {answered} answers but server counted {}",
            o.stats.answered
        ),
    );
    check(
        o.shed_seen as u64 == o.stats.shed,
        format!(
            "client saw {} sheds but server counted {}",
            o.shed_seen, o.stats.shed
        ),
    );
    check(
        o.rejected as u64 == o.stats.rejected,
        format!(
            "client saw {} rejections but server counted {}",
            o.rejected, o.stats.rejected
        ),
    );
    check(
        o.offered as u64 == o.stats.answered + o.stats.shed + o.stats.rejected,
        format!(
            "{} offered != {} answered + {} shed + {} rejected",
            o.offered, o.stats.answered, o.stats.shed, o.stats.rejected
        ),
    );
    check(o.stats.answered > 0, "no request was answered".to_string());
    check(
        o.stats.engine.requests == o.stats.answered,
        format!(
            "engine served {} requests but ledger answered {}",
            o.stats.engine.requests, o.stats.answered
        ),
    );
    let flushes = o.stats.size_flushes + o.stats.deadline_flushes + o.stats.drain_flushes;
    check(
        flushes == o.stats.engine.batches,
        format!(
            "{flushes} flushes ledgered by trigger but the engine ran {} batches",
            o.stats.engine.batches
        ),
    );
    let ledger: u64 = o.stats.clients.iter().map(|c| c.answered).sum();
    check(
        ledger == o.stats.answered,
        format!(
            "per-client ledger sums to {ledger}, not {}",
            o.stats.answered
        ),
    );
    check(
        o.stats.answered as f64 / o.wall.as_secs_f64() > 0.0,
        "throughput must be non-zero".to_string(),
    );
}

fn render(o: &TraceOutcome) -> String {
    let answered = o.stats.answered;
    let throughput = answered as f64 / o.wall.as_secs_f64();
    let mut s = String::new();
    s.push_str(&format!("--- trace: {} ---\n", o.name));
    s.push_str(&format!(
        "offered {} | answered {} | shed {} | rejected {}\n",
        o.offered, answered, o.stats.shed, o.stats.rejected
    ));
    s.push_str(&format!(
        "latency p50 {:.3} ms | p99 {:.3} ms | max {:.3} ms\n",
        percentile(&o.latencies_ms, 0.50),
        percentile(&o.latencies_ms, 0.99),
        percentile(&o.latencies_ms, 1.0),
    ));
    s.push_str(&format!(
        "throughput {:.0} req/s over {:.3} s wall\n",
        throughput,
        o.wall.as_secs_f64()
    ));
    s.push_str(&format!(
        "skipping rate {:.1}% | shed rate {:.1}% | rejection rate {:.1}%\n",
        100.0 * o.stats.engine.skipping_rate(),
        100.0 * o.stats.shed_rate(),
        100.0 * o.stats.rejection_rate(),
    ));
    s.push_str(&format!(
        "flushes: {} size, {} deadline, {} idle/drain | fairness index {:.3} over {} clients\n",
        o.stats.size_flushes,
        o.stats.deadline_flushes,
        o.stats.drain_flushes,
        o.stats.fairness_index(),
        o.stats.clients.len(),
    ));
    s
}

fn main() {
    let fidelity = fidelity_from_env();
    let requests = match fidelity {
        Fidelity::Smoke => 96,
        Fidelity::Paper => 512,
    };
    let mean_gap_nanos = 500_000; // 0.5 ms between arrivals on average

    let deadline = Duration::from_millis(1);
    let budget_engine = build_engine(8, 1.0);
    let offload = budget_engine.offload_cost();
    drop(budget_engine);

    // The bursty trace runs at δ = 1.0 (everything appeals to the cloud)
    // behind an energy budget of ~16 offloads per 32-request window, so
    // bursts overrun the budget and exercise the shedding path. The diurnal
    // trace runs at δ = 0.5 (edge-heavy) and exercises the flush-when-idle
    // path: at its troughs nearly every request leaves alone.
    let traces = [
        (
            "bursty",
            1.0,
            TraceSpec {
                shape: TraceShape::Bursty { burst: 8 },
                requests,
                mean_gap_nanos,
                clients: 4,
                seed: 2021,
            },
            ServerConfig {
                queue_capacity: 256,
                deadline,
                shed: Some(ShedConfig {
                    budget: CostBudget::energy_mj(offload.energy_mj * 16.0),
                    window: 32,
                }),
                ..ServerConfig::default()
            },
        ),
        (
            "diurnal",
            0.5,
            TraceSpec {
                shape: TraceShape::Diurnal {
                    periods: 2.0,
                    amplitude: 0.9,
                },
                requests,
                mean_gap_nanos,
                clients: 4,
                seed: 2021,
            },
            ServerConfig {
                queue_capacity: 256,
                deadline,
                ..ServerConfig::default()
            },
        ),
    ];

    let mut text = format!(
        "Serving load generation: work-conserving micro-batching under synthetic traces\n\
         fidelity {fidelity:?} | {requests} requests/trace | deadline cap {deadline:?} | max_batch 8\n\n"
    );
    let mut violations = Vec::new();
    for (name, delta, spec, config) in traces {
        let outcome = replay(name, &spec, delta, config);
        check_invariants(&outcome, &mut violations);
        text.push_str(&render(&outcome));
        text.push('\n');
    }

    if violations.is_empty() {
        text.push_str("invariants: all accounting checks passed\n");
    } else {
        text.push_str("invariants: VIOLATED\n");
        for v in &violations {
            text.push_str(&format!("  {v}\n"));
        }
    }
    write_report("serving_loadgen", &text);
    if !violations.is_empty() {
        eprintln!(
            "loadgen detected {} invariant violation(s)",
            violations.len()
        );
        std::process::exit(1);
    }
}
