//! Harness-side tracing: spans recorded from the benchmark's own files around
//! public calls into each layer. Nothing in the program under test is
//! instrumented (in-program spans are a later change), so the attribution
//! works outside-in: the workload's batches are re-executed on this thread,
//! layer by layer, with a span around each call.
//!
//! Spans live in memory and are written to `trace.json` when the run ends.

use crate::json::Value;
use crate::setup::Expected;
use appeal_models::ClassifierParts;
use appeal_tensor::layers::{Dense, Sigmoid};
use appeal_tensor::{Layer, SeededRng, Tensor};
use appealnet_core::serve::{Route, RoutingContext, RoutingPolicy};
use appealnet_core::server::trace::TraceEvent;
use appealnet_core::server::{Admission, ClientResponse, MicroBatcher};
use appealnet_core::{Engine, InferenceRequest};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Root span of a batch re-executed on the harness thread.
pub const REPLAY_BATCH: &str = "replay.batch";

/// One timed interval. `group` is the request or batch the span belongs to;
/// spans of one tree share it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub group: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, group: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group,
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        // Read the clock last so bookkeeping is charged to the parent.
        self.spans[id].start_ns = self.now_ns();
        id
    }

    pub fn exit(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counts.extend_from_slice(counts);
    }

    /// Files an interval measured elsewhere (the load generator's clock).
    pub fn record(
        &mut self,
        name: &str,
        group: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        counts: &[(&'static str, u64)],
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            group,
            name: name.to_string(),
            start_ns,
            end_ns,
            counts: counts.to_vec(),
        });
        id
    }

    /// Total self time and call count per span name. Self time is a span's
    /// duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered[span.id]);
            let entry = totals.entry(span.name.clone()).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        totals
    }

    /// Structural checks: every span ends after it starts, every child lies
    /// inside its parent and shares its group, and each group has one root.
    pub fn check_nesting(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
        for span in &self.spans {
            if span.end_ns < span.start_ns {
                problems.push(format!(
                    "span {} ({}) ends before it starts",
                    span.id, span.name
                ));
            }
            match span.parent {
                None => *roots.entry(span.group).or_default() += 1,
                Some(parent) => {
                    let p = &self.spans[parent];
                    if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
                        problems.push(format!(
                            "span {} ({}) leaves its parent {} ({})",
                            span.id, span.name, p.id, p.name
                        ));
                    }
                    if span.group != p.group {
                        problems.push(format!("span {} changes group under {}", span.id, p.id));
                    }
                }
            }
        }
        for (group, count) in roots {
            if count != 1 {
                problems.push(format!("group {group} has {count} roots"));
            }
        }
        problems
    }

    /// Share of the re-executed batches' time that layer spans account for;
    /// the rest is harness work between spans.
    pub fn coverage_share(&self) -> f64 {
        let mut batch_ns = 0u64;
        let mut layer_ns = 0u64;
        for span in &self.spans {
            let ns = span.end_ns - span.start_ns;
            if span.name == REPLAY_BATCH {
                batch_ns += ns;
            } else if span.name.starts_with("layer.")
                || matches!(span.name.as_str(), "policy.decide" | "select_rows")
            {
                layer_ns += ns;
            }
        }
        if batch_ns == 0 {
            0.0
        } else {
            layer_ns as f64 / batch_ns as f64
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("id", Value::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("request_or_batch_id", Value::Num(s.group as f64)),
                    ("name", Value::str(&s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "counts",
                        Value::Obj(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::str(workload)),
            ("seed", Value::Num(seed as f64)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// One top-level layer of a network, cloned out so it can be driven alone.
pub struct NamedLayer {
    /// `NN_name`, e.g. `04_conv2d`: position in the whole stack, then kind.
    pub name: String,
    pub layer: Box<dyn Layer>,
}

/// A network as a flat list of its top-level layers: backbone, classifier
/// head and (little net only) predictor head, the heads both fed the
/// backbone's features.
pub struct LayerStack {
    /// `little` or `big`.
    pub net: &'static str,
    pub backbone: Vec<NamedLayer>,
    pub head: Vec<NamedLayer>,
    pub predictor: Vec<NamedLayer>,
}

impl LayerStack {
    /// The big network's layers, cloned from the model.
    pub fn big(big: &ClassifierParts) -> LayerStack {
        Self::build("big", big.backbone.iter(), big.head.iter(), Vec::new())
    }

    /// The little network's layers. `TwoHeadNet` keeps its containers
    /// private, so the backbone and classifier head come from a plain little
    /// classifier of the same `ModelSpec` (the trained baseline) — the same
    /// layer shapes, hence the same cost — and the predictor head is rebuilt
    /// to shape.
    pub fn little(baseline: &ClassifierParts, seed: u64, quantized: bool) -> LayerStack {
        let mut little = baseline.clone();
        let mut rng = SeededRng::new(seed);
        let mut predictor: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(little.feature_dim, 1, &mut rng)),
            Box::new(Sigmoid::new()),
        ];
        if quantized {
            little.quantize_weights();
            predictor[0].quantize_weights();
        }
        Self::build(
            "little",
            little.backbone.iter(),
            little.head.iter(),
            predictor,
        )
    }

    /// `NN_kind` of every layer, in stack order.
    pub fn layer_names(&self) -> Vec<String> {
        self.backbone
            .iter()
            .chain(&self.head)
            .chain(&self.predictor)
            .map(|l| l.name.clone())
            .collect()
    }

    fn build<'a>(
        net: &'static str,
        backbone: impl Iterator<Item = &'a Box<dyn Layer>>,
        head: impl Iterator<Item = &'a Box<dyn Layer>>,
        predictor: Vec<Box<dyn Layer>>,
    ) -> LayerStack {
        let mut position = 0usize;
        let mut named = |layer: Box<dyn Layer>| {
            let name = format!("{position:02}_{}", layer.name().to_lowercase());
            position += 1;
            let mut layer = layer;
            layer.clear_cache();
            NamedLayer { name, layer }
        };
        LayerStack {
            net,
            backbone: backbone.map(|l| named(l.clone_box())).collect(),
            head: head.map(|l| named(l.clone_box())).collect(),
            predictor: predictor.into_iter().map(&mut named).collect(),
        }
    }

    /// Eval-mode forward with a span around every layer. Returns the
    /// classifier logits (the predictor output is computed and dropped).
    pub fn forward_traced(&mut self, images: &Tensor, tracer: &mut Tracer, group: u64) -> Tensor {
        let net = self.net;
        let run = |layers: &mut [NamedLayer], input: &Tensor, tracer: &mut Tracer| {
            let mut current: Option<Tensor> = None;
            for named in layers.iter_mut() {
                let x = current.as_ref().unwrap_or(input);
                let samples = x.shape()[0] as u64;
                let flops = named.layer.flops(&x.shape()[1..]) * samples;
                let in_bytes = (x.len() * 4) as u64;
                let id = tracer.enter(&format!("layer.{net}.{}", named.name), group);
                let y = named.layer.forward(x, false);
                // Bytes are computed from tensor shapes, not observed.
                tracer.exit(
                    id,
                    &[
                        ("flops", flops),
                        ("in_bytes", in_bytes),
                        ("out_bytes", (y.len() * 4) as u64),
                    ],
                );
                current = Some(y);
            }
            current.expect("every container has at least one layer")
        };
        let features = run(&mut self.backbone, images, tracer);
        let logits = run(&mut self.head, &features, tracer);
        if !self.predictor.is_empty() {
            run(&mut self.predictor, &features, tracer);
        }
        logits
    }
}

/// What a batch re-execution needs besides the layers.
pub struct Replayer<'a> {
    pub little: LayerStack,
    pub big: LayerStack,
    pub policy: Box<dyn RoutingPolicy>,
    pub ctx: RoutingContext,
    pub images: &'a Tensor,
    pub expected: &'a [Expected],
}

impl Replayer<'_> {
    /// Re-executes one batch (pool indices `rows`) on this thread as the
    /// engine would: edge pass, policy decisions, row selection, big pass.
    /// Routes come from the reference pre-pass, so the big network sees the
    /// rows it saw in the real run.
    pub fn batch(&mut self, rows: &[usize], tracer: &mut Tracer, group: u64) {
        let batch = tracer.enter(REPLAY_BATCH, group);
        let images = self.images.select_rows(rows);

        let edge = tracer.enter("scorer.evaluate", group);
        let logits = self.little.forward_traced(&images, tracer, group);
        std::hint::black_box(logits.argmax_rows());
        tracer.exit(edge, &[("samples", rows.len() as u64)]);

        let decide = tracer.enter("policy.decide", group);
        let mut appeals = 0u64;
        for &row in rows {
            let score = f32::from_bits(self.expected[row].score_bits);
            if std::hint::black_box(self.policy.decide(score, &self.ctx)) == Route::Cloud {
                appeals += 1;
            }
        }
        tracer.exit(
            decide,
            &[("decisions", rows.len() as u64), ("appeals", appeals)],
        );

        let offloaded: Vec<usize> = (0..rows.len())
            .filter(|&i| self.expected[rows[i]].cloud)
            .collect();
        if !offloaded.is_empty() {
            let select = tracer.enter("select_rows", group);
            let big_batch = images.select_rows(&offloaded);
            tracer.exit(select, &[("rows", offloaded.len() as u64)]);

            let cloud = tracer.enter("classifier_logits", group);
            let logits = self.big.forward_traced(&big_batch, tracer, group);
            std::hint::black_box(logits.argmax_rows());
            tracer.exit(cloud, &[("samples", offloaded.len() as u64)]);
        }
        tracer.exit(
            batch,
            &[
                ("samples", rows.len() as u64),
                ("offloaded", offloaded.len() as u64),
            ],
        );
    }
}

/// Result of replaying an arrival schedule through `MicroBatcher` in virtual
/// time on this thread.
pub struct CoalescerReplay {
    /// Pool indices of each flushed batch, in flush order.
    pub batches: Vec<Vec<usize>>,
    /// Real time of each `offer` that only queued, in µs.
    pub offer_us: Vec<f64>,
    /// Real time of each call that flushed (engine compute included), in µs.
    pub flush_us: Vec<f64>,
    /// Virtual wait of each request from arrival to flush, in ms.
    pub virtual_wait_ms: Vec<f64>,
}

/// Replays `events` through a `MicroBatcher` around `engine`, polling at each
/// deadline instant so deadline flushes happen exactly on time. Counts and
/// virtual waits are exact functions of the schedule; the call times are
/// measured.
pub fn replay_coalescer(
    engine: Engine,
    deadline: Duration,
    events: &[TraceEvent],
    order: &[usize],
    requests: &[Tensor],
) -> (Engine, CoalescerReplay) {
    let mut batcher = MicroBatcher::new(engine, deadline, None).expect("no shed window to reject");
    let mut replay = CoalescerReplay {
        batches: Vec::new(),
        offer_us: Vec::new(),
        flush_us: Vec::new(),
        virtual_wait_ms: Vec::new(),
    };
    let flushed = |replay: &mut CoalescerReplay, responses: Vec<ClientResponse>, took: Duration| {
        replay.flush_us.push(took.as_secs_f64() * 1e6);
        replay
            .virtual_wait_ms
            .extend(responses.iter().map(|r| r.waited_nanos as f64 / 1e6));
        replay.batches.push(
            responses
                .iter()
                .map(|r| order[r.response.id as usize])
                .collect(),
        );
    };
    for (i, event) in events.iter().enumerate() {
        while let Some(due) = batcher
            .next_deadline_nanos()
            .filter(|d| *d <= event.at_nanos)
        {
            let started = Instant::now();
            let polled = batcher
                .poll(due)
                .expect("the replay queue stays consistent");
            let took = started.elapsed();
            if let Some((_, responses)) = polled {
                flushed(&mut replay, responses, took);
            }
        }
        let request = InferenceRequest::new(i as u64, requests[order[i]].clone());
        let started = Instant::now();
        let admission = batcher
            .offer(event.at_nanos, event.client, request)
            .expect("pool images have the engine's input shape");
        let took = started.elapsed();
        match admission {
            Admission::Queued => replay.offer_us.push(took.as_secs_f64() * 1e6),
            Admission::Flushed(responses) => flushed(&mut replay, responses, took),
            Admission::Shed => unreachable!("no shed policy is configured"),
        }
    }
    if let Some(due) = batcher.next_deadline_nanos() {
        let started = Instant::now();
        let responses = batcher
            .drain(due)
            .expect("the replay queue stays consistent");
        flushed(&mut replay, responses, started.elapsed());
    }
    let (engine, _) = batcher.into_parts();
    (engine, replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.record("batch", 7, None, 0, 100, &[]);
        let child = t.record("scorer.evaluate", 7, Some(root), 10, 70, &[]);
        t.record(
            "layer.little.00_conv2d",
            7,
            Some(child),
            20,
            50,
            &[("flops", 9)],
        );
        t.record("policy.decide", 7, Some(root), 70, 80, &[]);
        let own = t.self_times();
        assert_eq!(own["batch"], (100 - 60 - 10, 1));
        assert_eq!(own["scorer.evaluate"], (30, 1));
        assert_eq!(own["layer.little.00_conv2d"], (30, 1));
        assert!(t.check_nesting().is_empty());
        // Self times of a tree add up to its root.
        assert_eq!(own.values().map(|(ns, _)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn nesting_check_catches_escapes_and_double_roots() {
        let mut t = Tracer::new();
        let root = t.record("batch", 1, None, 10, 20, &[]);
        t.record("late", 1, Some(root), 15, 25, &[]);
        t.record("batch", 1, None, 30, 40, &[]);
        let problems = t.check_nesting();
        assert!(problems.iter().any(|p| p.contains("leaves its parent")));
        assert!(problems.iter().any(|p| p.contains("2 roots")));
    }

    #[test]
    fn live_spans_nest_in_call_order() {
        let mut t = Tracer::new();
        let outer = t.enter("batch", 3);
        let inner = t.enter("policy.decide", 3);
        t.exit(inner, &[("decisions", 8)]);
        t.exit(outer, &[]);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!(t.check_nesting().is_empty());
        let doc = t.to_json("w", 1);
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
