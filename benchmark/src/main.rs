//! `bench`: the AppealNet benchmark. See `README.md` beside this package.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! bench run   [--seed <n>] [--seconds <s>]    all workloads, end-to-end metrics, out/results.json
//! bench trace [--seed <n>] [--seconds <s>]    all workloads, per-layer metrics, out/trace.json
//! bench check [--seed <n>] [--seconds <s>]    `run` twice on one seed and once on another, compared
//! bench names                                 the per-layer metric names the code emits
//! ```

mod json;
mod loadgen;
mod probes;
mod report;
mod setup;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::Row;
use setup::{server_config, Fixture, Ready, POOL};
use spec::Contract;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use trace::{LayerStack, Replayer, Tracer};
use workloads::{plan, Outcome};

/// Where result files go, relative to the directory the command runs in
/// (the root of the checkout).
const OUT_DIR: &str = "benchmark/out";
/// Batches re-executed layer by layer in a traced run.
const REPLAY_BATCHES: usize = 300;
/// Request spans kept in `trace.json`.
const REQUEST_SPANS: usize = 4000;
/// Length of each demoted workload's phase of a traced run.
const DEMOTED_SECONDS: f64 = 2.0;

struct Args {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let mode = match argv.peek() {
        Some(first) if !first.starts_with("--") => argv.next().expect("peeked"),
        _ => "driver".to_string(),
    };
    let mut args = Args {
        mode,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One compute thread unless the caller says otherwise. The registered
/// workloads never shard (batches of 8 stay on the batcher thread), and what
/// does shard — the set-up's passes in batches of 128, the demoted phases —
/// ran no faster over this host's two virtual CPUs than over one and spread
/// three times as far from run to run: a second busy thread is a second
/// chance of sharing a core with a neighbour, and every batch waits for the
/// slower of the two.
fn pin_compute_threads() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        // Nothing else runs yet: no thread can be reading the environment.
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
}

fn main() -> ExitCode {
    pin_compute_threads();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench: {message}");
            return ExitCode::from(2);
        }
    };
    let contract = Contract::embedded();
    let ok = match args.mode.as_str() {
        "driver" => driver(&contract, &args),
        "run" => run_all(&contract, &args, false).iter().all(Row::correct),
        "trace" => run_all(&contract, &args, true).iter().all(Row::correct),
        "check" => check(&contract, &args),
        "names" => {
            emitted_layer_names().iter().for_each(|n| println!("{n}"));
            true
        }
        other => {
            eprintln!("bench: unknown command {other:?}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Generates the inputs and runs the shared set-up; `setup_s` is the median
/// set-up time.
fn prepare(seed: u64) -> (Fixture, Ready, f64) {
    let fixture = Fixture::build(seed);
    let (ready, setup_times) = Ready::set_up_repeated(&fixture);
    let setup_s = stats::median(&setup_times);
    let p = &fixture.prepared;
    println!(
        "inputs: seed {seed}, dataset in {:.3} s, training in {:.3} s (accuracy little {:.3} / appealnet {:.3} / big {:.3}); set-up {:.3} s (median of {:.3?})",
        fixture.generate_s,
        fixture.prepare_s,
        p.little_accuracy,
        p.appealnet_accuracy,
        p.big_accuracy,
        setup_s,
        setup_times
    );
    println!("host: {}", report::host_facts().render());
    (fixture, ready, setup_s)
}

/// One workload with tracing off: the end-to-end metrics.
fn untraced_row(
    fixture: &Fixture,
    ready: &mut Ready,
    setup_s: f64,
    workload: &str,
    seconds: f64,
) -> Row {
    let outcome = workloads::run(workload, fixture, ready, seconds);
    let mut metrics = outcome.e2e.clone();
    metrics.insert("setup_s".to_string(), setup_s);
    let mut violations = ready.violations.clone();
    violations.extend(outcome.violations);
    Row {
        workload: workload.to_string(),
        ledger: outcome.ledger,
        metrics,
        violations,
        digest: outcome.digest,
        notes: outcome.notes,
    }
}

/// One workload with tracing on: an untraced and a traced half run (their
/// gap is the tracing overhead), the outside-in attribution, the probes.
fn traced_row(
    contract: &Contract,
    fixture: &Fixture,
    ready: &mut Ready,
    workload: &str,
    seconds: f64,
    tracer: &mut Tracer,
) -> Row {
    let half = seconds / 2.0;
    let plain = workloads::run(workload, fixture, ready, half);
    let origin_ns = tracer.now_ns();
    let traced = workloads::run(workload, fixture, ready, half);
    root_spans(&traced, origin_ns, tracer);

    let mut layer = traced.layer.clone();
    layer.insert(
        "trace.overhead_share".into(),
        (traced.primary_cost() - plain.primary_cost()) / plain.primary_cost(),
    );
    layer.insert("training.prepare_s".into(), fixture.prepare_s);
    layer.insert("dataset.generate_s".into(), fixture.generate_s);
    layer
        .entry("server.start_ms".into())
        .or_insert(ready.server_start_ms);
    layer
        .entry("server.shutdown_ms".into())
        .or_insert(ready.server_shutdown_ms);

    attribute(fixture, ready, workload, half, tracer, &mut layer);
    layer.extend(probes::run(fixture, ready));
    layer.extend(probes::training(fixture));
    let demoted_violations = demoted_phases(contract, fixture, ready, &mut layer);
    if let Some(&edge_evals) = layer.get("_fleet.edge_evals") {
        // Computed, not observed: the forwards one simulator run needs,
        // priced at the batch-1 probe times, against the run's wall time.
        let model_us = edge_evals * layer["scorer.eval_b1_us"]
            + layer["_fleet.big_evals"] * layer["parallel.big_b1_us"];
        let run_us = layer["fleet.run_s"] * 1e6;
        layer.insert("fleet.model_share".into(), model_us / run_us);
        layer.insert(
            "fleet.sim_self_us_per_req".into(),
            (run_us - model_us) / edge_evals,
        );
    }
    layer.insert("trace.coverage_share".into(), tracer.coverage_share());
    layer.insert("trace.spans".into(), tracer.spans.len() as f64);

    let mut notes = traced.notes;
    let mut own: Vec<(String, (u64, u64))> = tracer.self_times().into_iter().collect();
    own.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    let top: Vec<String> = own
        .iter()
        .filter(|(name, _)| name != "request")
        .take(6)
        .map(|(name, (ns, calls))| format!("{name} {:.1} ms / {calls}", *ns as f64 / 1e6))
        .collect();
    notes.push(format!("largest self times: {}", top.join(", ")));

    let mut violations = ready.violations.clone();
    violations.extend(plain.violations);
    violations.extend(traced.violations);
    violations.extend(demoted_violations);
    violations.extend(tracer.check_nesting().into_iter().take(5));
    // A value under a name BENCHMARK.json does not list would be dropped
    // silently; `_` marks the harness's own intermediate values.
    violations.extend(
        layer
            .keys()
            .filter(|name| {
                !name.starts_with('_') && !contract.per_layer.iter().any(|m| m.name == **name)
            })
            .map(|name| format!("per-layer metric {name} is not registered")),
    );
    let mut ledger = traced.ledger;
    ledger.absorb(&plain.ledger);
    Row {
        workload: workload.to_string(),
        ledger,
        metrics: layer,
        violations,
        digest: traced.digest,
        notes,
    }
}

/// The workloads `BENCHMARK.json` does not register, each run for
/// [`DEMOTED_SECONDS`]: its own end-to-end number becomes the per-layer
/// metric [`spec::demoted_metric`] names, and the per-layer values only it
/// can read (`fleet.*`, `training.*`) join the row. They are CPU-bound, so
/// they follow the host's speed of the minute; compare them between two
/// builds in alternating pairs, not against a stored number.
fn demoted_phases(
    contract: &Contract,
    fixture: &Fixture,
    ready: &mut Ready,
    layer: &mut BTreeMap<String, f64>,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, reported_by) in spec::DEMOTABLE {
        if contract.has_workload(name) {
            continue;
        }
        let outcome = workloads::run(name, fixture, ready, DEMOTED_SECONDS);
        layer.insert(spec::demoted_metric(name), outcome.e2e[reported_by]);
        layer.extend(outcome.layer.into_iter().filter(|(key, _)| {
            ["fleet.", "_fleet.", "training."]
                .iter()
                .any(|own| key.starts_with(own))
        }));
        violations.extend(
            outcome
                .violations
                .into_iter()
                .map(|v| format!("demoted phase {name}: {v}")),
        );
    }
    violations
}

/// Root spans of the measured run: one per answered request (serve) or per
/// timed operation (the rest), from timestamps the run records anyway.
fn root_spans(outcome: &Outcome, origin_ns: u64, tracer: &mut Tracer) {
    for (i, r) in outcome.records.iter().take(REQUEST_SPANS).enumerate() {
        tracer.record(
            "request",
            i as u64,
            None,
            origin_ns + r.due_ns,
            origin_ns + r.done_ns,
            &[
                ("pool_index", r.index as u64),
                ("waited_ns", r.waited_ns),
                ("admit_ns", r.admit_ns),
                ("cloud", u64::from(r.cloud)),
            ],
        );
    }
    // A round of `train` or `fleet-chaos` is several operations back to
    // back; the others have one operation per root.
    let per_root = match outcome.workload {
        spec::TRAIN => 2,
        spec::FLEET_CHAOS => 4,
        _ => 1,
    };
    for (i, ops) in outcome
        .operations
        .chunks(per_root)
        .take(REQUEST_SPANS)
        .enumerate()
    {
        let group = 2_000_000 + i as u64;
        let (start, end) = (ops[0].0, ops[ops.len() - 1].1);
        if per_root == 1 {
            tracer.record(
                ops[0].2,
                group,
                None,
                origin_ns + start,
                origin_ns + end,
                &[],
            );
            continue;
        }
        let root = tracer.record(
            "round",
            group,
            None,
            origin_ns + start,
            origin_ns + end,
            &[],
        );
        for (from, to, name) in ops {
            tracer.record(
                name,
                group,
                Some(root),
                origin_ns + from,
                origin_ns + to,
                &[],
            );
        }
    }
}

/// The outside-in attribution: for the serve workloads the schedule is
/// replayed through `MicroBatcher` in virtual time to learn the batch
/// compositions; those (or the offline batches) are then re-executed layer
/// by layer on this thread with a span around every call.
fn attribute(
    fixture: &Fixture,
    ready: &mut Ready,
    workload: &str,
    seconds: f64,
    tracer: &mut Tracer,
    layer: &mut BTreeMap<String, f64>,
) {
    let quantized = workload == spec::OFFLINE_Q8;
    let (expected, slot) = match workload {
        spec::SERVE_STEADY | spec::SERVE_SATURATE => (&ready.expected90, &mut ready.serve),
        spec::SERVE_APPEAL | spec::SERVE_BURST_APPEAL => {
            (&ready.expected_appeal, &mut ready.appeal)
        }
        spec::OFFLINE_EVAL => (&ready.expected90, &mut ready.offline),
        spec::OFFLINE_Q8 => (&ready.expected_q8, &mut ready.q8),
        _ => return,
    };
    let engine = slot.take().expect("the set-up built this engine");
    let ctx = appealnet_core::serve::RoutingContext {
        edge_cost: engine.edge_cost(),
        offload_cost: engine.offload_cost(),
    };
    let threshold = |delta: f64| -> Box<dyn appealnet_core::RoutingPolicy> {
        Box::new(appealnet_core::ThresholdPolicy::new(delta).expect("valid threshold"))
    };
    let policy: Box<dyn appealnet_core::RoutingPolicy> = match workload {
        spec::SERVE_APPEAL | spec::SERVE_BURST_APPEAL => threshold(1.0),
        spec::OFFLINE_Q8 => threshold(0.0),
        _ => Box::new(ready.policy90),
    };

    let (engine, batches) = if workload.starts_with("serve-") {
        let events = match workload {
            // The closed loop has no schedule: with 64 tickets outstanding
            // requests arrive faster than batches drain, so every flush is
            // size-triggered. Model that as back-to-back arrivals.
            spec::SERVE_SATURATE => (0..4 * POOL)
                .map(|i| appealnet_core::server::trace::TraceEvent {
                    at_nanos: i as u64 * 1000,
                    client: (i % 4) as u32,
                })
                .collect(),
            _ => plan::serve_events(workload, fixture.seed, seconds),
        };
        let order = plan::order(fixture.seed, events.len());
        let (engine, replay) = trace::replay_coalescer(
            engine,
            server_config().deadline,
            &events,
            &order,
            &ready.requests,
        );
        layer.insert(
            "coalescer.offer_us_p50".into(),
            stats::median(&replay.offer_us),
        );
        layer.insert(
            "coalescer.flush_us_p50".into(),
            stats::median(&replay.flush_us),
        );
        layer.insert(
            "coalescer.virtual_wait_ms_p50".into(),
            stats::median(&replay.virtual_wait_ms),
        );
        layer.insert("coalescer.batches".into(), replay.batches.len() as f64);
        layer.insert(
            "coalescer.mean_batch".into(),
            events.len() as f64 / replay.batches.len().max(1) as f64,
        );
        (engine, replay.batches)
    } else {
        let rows = ready
            .batches
            .iter()
            .map(|(_, range)| range.clone().collect());
        (engine, rows.collect())
    };
    let mut engine = engine;
    engine.reset_stats();
    *slot = Some(engine);

    let models = &fixture.prepared.models;
    let mut replayer = Replayer {
        little: LayerStack::little(&models.baseline, fixture.seed, quantized),
        big: LayerStack::big(&models.big),
        policy,
        ctx,
        images: fixture.pair.test.images(),
        expected,
    };
    for (i, rows) in batches.iter().take(REPLAY_BATCHES).enumerate() {
        replayer.batch(rows, tracer, 1_000_000 + i as u64);
    }
}

/// The per-layer names the code can emit (private `_` helpers excluded);
/// `BENCHMARK.json` lists exactly these.
fn emitted_layer_names() -> Vec<String> {
    use appeal_models::{ModelFamily, ModelSpec};
    let mut rng = appeal_tensor::SeededRng::new(0);
    let input = [3, 12, 12];
    let little = ModelSpec::little(ModelFamily::MobileNetLike, input, 10).build(&mut rng);
    let big = ModelSpec::big(input, 10).build(&mut rng);
    let from_runs = [
        "lat_p99_ms",
        "fail_share",
        "loadgen.late_p99_ms",
        "loadgen.late_max_ms",
        "loadgen.offered",
        "loadgen.answered",
        "loadgen.shed",
        "loadgen.rejected",
        "loadgen.failed",
        "server.admit_us_p50",
        "server.queue_wait_ms_p50",
        "server.queue_wait_ms_p99",
        "server.post_dispatch_ms_p50",
        "server.post_dispatch_ms_p99",
        "server.flush_size",
        "server.flush_deadline",
        "server.flush_drain",
        "server.mean_batch",
        "server.fairness_index",
        "server.start_ms",
        "server.shutdown_ms",
        "coalescer.offer_us_p50",
        "coalescer.flush_us_p50",
        "coalescer.virtual_wait_ms_p50",
        "coalescer.batches",
        "coalescer.mean_batch",
        "engine.busy_share",
        "training.prepare_s",
        "training.joint_epoch_s",
        "training.big_epoch_s",
        "dataset.generate_s",
        "fleet.new_ms",
        "fleet.run_s",
        "fleet.check_ms",
        "fleet.render_ms",
        "fleet.model_share",
        "fleet.sim_self_us_per_req",
        "fleet.sim_p50_ms",
        "fleet.sim_p99_ms",
        "fleet.agreement_share",
        "fleet.energy_mj_per_req",
        "fleet.cloud_batches",
        "fleet.retries",
        "fleet.breaker_opened",
        "fleet.degraded_local",
        "fleet.gossip_sent",
        "trace.overhead_share",
        "trace.coverage_share",
        "trace.spans",
    ];
    from_runs
        .iter()
        .map(|s| s.to_string())
        .chain(spec::DEMOTABLE.map(|(name, _)| spec::demoted_metric(name)))
        .chain(probes::names(
            &LayerStack::little(&little, 0, false).layer_names(),
            &LayerStack::big(&big).layer_names(),
        ))
        .collect()
}

fn write_out(name: &str, doc: &json::Value) {
    let dir = Path::new(OUT_DIR);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), doc.pretty()));
    match written {
        Ok(()) => println!("wrote {OUT_DIR}/{name}"),
        // Result files are a convenience; the printed metrics are the output.
        Err(e) => eprintln!("bench: could not write {OUT_DIR}/{name}: {e}"),
    }
}

/// The contract's entry point: one workload, one result line last.
fn driver(contract: &Contract, args: &Args) -> bool {
    let Some(workload) = args
        .workload
        .as_deref()
        .filter(|w| spec::ALL_WORKLOADS.contains(w))
    else {
        eprintln!("bench: --workload must be one of {:?}", spec::ALL_WORKLOADS);
        return false;
    };
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let (fixture, mut ready, setup_s) = prepare(args.seed);
    let (row, specs) = if args.trace {
        let mut tracer = Tracer::new();
        let row = traced_row(
            contract,
            &fixture,
            &mut ready,
            workload,
            seconds,
            &mut tracer,
        );
        write_out("trace.json", &tracer.to_json(workload, args.seed));
        (row, &contract.per_layer)
    } else {
        (
            untraced_row(&fixture, &mut ready, setup_s, workload, seconds),
            &contract.end_to_end,
        )
    };
    report::print_row(&row, specs);
    println!("{}", report::result_line(&row, specs));
    row.correct()
}

/// `run` and `trace`: every workload after one shared set-up.
fn run_all(contract: &Contract, args: &Args, traced: bool) -> Vec<Row> {
    let seconds = args
        .seconds
        .unwrap_or(if traced { 4.0 } else { contract.run_seconds });
    let (fixture, mut ready, setup_s) = prepare(args.seed);
    let specs = if traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut rows = Vec::new();
    let mut spans = Vec::new();
    // A traced row carries the unregistered workloads as demoted phases; the
    // untraced table runs them in full beside the registered ones.
    let names = spec::ALL_WORKLOADS
        .into_iter()
        .filter(|w| !traced || contract.has_workload(w));
    for workload in names {
        let row = if traced {
            let mut tracer = Tracer::new();
            let row = traced_row(
                contract,
                &fixture,
                &mut ready,
                workload,
                seconds,
                &mut tracer,
            );
            spans.push(tracer.to_json(workload, args.seed));
            row
        } else {
            untraced_row(&fixture, &mut ready, setup_s, workload, seconds)
        };
        report::print_row(&row, specs);
        rows.push(row);
    }
    let results = report::results_json(args.seed, seconds, &rows, specs);
    if traced {
        write_out("trace.json", &json::Value::Arr(spans));
        write_out("layers.json", &results);
    } else {
        write_out("results.json", &results);
    }
    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| !r.correct())
        .map(|r| r.workload.as_str())
        .collect();
    if failed.is_empty() {
        println!("self-checks: all passed");
    } else {
        println!("self-checks: FAILED on {failed:?}");
    }
    rows
}

/// `check`: two runs on one seed must agree within the bounds (exactly, for
/// the exact metrics and digests); a run on a second seed must be correct.
fn check(contract: &Contract, args: &Args) -> bool {
    let first = run_all(contract, args, false);
    let second = run_all(contract, args, false);
    let other = Args {
        seed: args.seed.wrapping_add(1),
        mode: args.mode.clone(),
        workload: None,
        ..*args
    };
    let third = run_all(contract, &other, false);
    let (gaps, problems) = report::compare(contract, &first, &second);
    println!("\nsame seed, run 1 against run 2:");
    report::print_gaps(&gaps);
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let correct = [&first, &second, &third]
        .iter()
        .all(|rows| rows.iter().all(Row::correct));
    let agree = problems.is_empty() && gaps.iter().all(|g| g.ok);
    println!(
        "check: self-checks {}, run-to-run agreement {}",
        if correct { "passed" } else { "FAILED" },
        if agree {
            "within bounds"
        } else {
            "OUT OF BOUNDS"
        }
    );
    correct && agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_per_layer_metrics() {
        let contract = Contract::embedded();
        let mut listed: Vec<String> = contract.per_layer.iter().map(|m| m.name.clone()).collect();
        let mut emitted = emitted_layer_names();
        listed.sort();
        emitted.sort();
        assert_eq!(listed, emitted);
    }

    #[test]
    fn workload_inputs_are_a_pure_function_of_the_seed() {
        for workload in [
            spec::SERVE_STEADY,
            spec::SERVE_APPEAL,
            spec::SERVE_BURST_APPEAL,
        ] {
            let a = plan::serve_events(workload, 11, 6.0);
            assert_eq!(a, plan::serve_events(workload, 11, 6.0));
            assert_ne!(a, plan::serve_events(workload, 12, 6.0));
            assert_eq!(a.len() % POOL, 0, "whole passes over the pool");
            // Stretched to the nominal span whatever the seed drew.
            let trace = plan::serve_trace(workload, 11, 6.0);
            let nominal = trace.requests as u64 * trace.mean_gap_nanos;
            assert!(a.last().unwrap().at_nanos.abs_diff(nominal) < 1000);
            assert!(a.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
        }
        assert_eq!(plan::order(11, 1600), plan::order(11, 1600));
        assert_ne!(plan::order(11, 1600), plan::order(12, 1600));
        // Any whole number of passes sends every image equally often.
        let mut seen = vec![0usize; POOL];
        plan::order(11, 2 * POOL)
            .into_iter()
            .for_each(|i| seen[i] += 1);
        assert!(seen.iter().all(|&n| n == 2));

        assert_eq!(plan::fleet_trace(5).events(), plan::fleet_trace(5).events());
        assert_ne!(plan::fleet_trace(5).events(), plan::fleet_trace(6).events());
        let (a, b) = (plan::fleet_config(5, 0.5), plan::fleet_config(5, 0.5));
        assert_eq!(a.faults.events(), b.faults.events());
        assert_ne!(
            a.faults.events(),
            plan::fleet_config(6, 0.5).faults.events()
        );
        assert_eq!(plan::request_count(2000.0, 6.0), 12_000);
        assert_eq!(plan::request_count(200.0, 36.0), 7_200);
        assert_eq!(plan::request_count(1.0, 0.1), POOL);
    }
}
