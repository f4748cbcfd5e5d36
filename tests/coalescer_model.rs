//! `MicroBatcher` against a trivially-correct reference model.
//!
//! Seeded random `offer` / `poll` / `drain` schedules run in virtual time,
//! with and without a shed policy, through the real coalescer and through
//! [`Model`] — a few dozen lines of queue, counters and integer budget
//! arithmetic with no engine inside. After every step the two must agree on
//! what happened (queued, shed, or which requests flushed under which
//! trigger after waiting how long), on `next_deadline_nanos`, and on every
//! ledger. This pins the coalescer's virtual-time behaviour independently of
//! how the threaded server chooses to drive it.

use appeal_bench::fixtures::{model_pair, CLASSES};
use appeal_hw::CostBudget;
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::server::{
    Admission, ClientResponse, ClientStats, FlushTrigger, MicroBatcher, ShedConfig,
};
use appealnet_core::{Engine, InferenceRequest, InferenceResponse, ThresholdPolicy};
use std::collections::BTreeMap;
use std::time::Duration;

const DEADLINE: u64 = 1_000_000;
const CLIENTS: usize = 3;
const POOL: usize = 24;

fn engine(max_batch: usize, delta: f64) -> Engine {
    let (net, big) = model_pair(5, CLASSES);
    Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(ThresholdPolicy::new(delta).unwrap())
        .max_batch(max_batch)
        .build()
        .unwrap()
}

/// One engine answer per pool image, one request at a time (the engine is
/// per-sample pure, so this is what any batch must answer too).
fn single_request_reference(pool: &[Tensor], delta: f64) -> Vec<InferenceResponse> {
    let mut reference = engine(1, delta);
    pool.iter()
        .map(|image| {
            reference
                .submit(InferenceRequest::new(0, image.clone()))
                .unwrap()
                .expect("max_batch 1 answers immediately")
                .remove(0)
        })
        .collect()
}

/// What one step did.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Queued, or nothing was due.
    Nothing,
    /// The offered request was shed.
    Shed,
    /// A flush: its trigger and `(client, waited_nanos, request id)` per
    /// answered request, in order.
    Flushed(FlushTrigger, Vec<(u32, u64, u64)>),
}

/// The reference: size-or-deadline coalescing, a FLOPs budget per window of
/// arrivals, and the ledgers — nothing else.
struct Model {
    max_batch: usize,
    /// `(max_flops, window)` when a shed policy is configured.
    shed: Option<(u64, u64)>,
    offload_flops: u64,
    /// Per request id: `(flops charged when answered, appealed to the cloud)`.
    cost_of: Vec<(u64, bool)>,
    spent_flops: u64,
    arrivals_in_window: u64,
    /// `(client, arrival_nanos, id)` in arrival order.
    pending: Vec<(u32, u64, u64)>,
    flushes: [u64; 3],
    clients: BTreeMap<u32, ClientStats>,
}

impl Model {
    fn client(&mut self, client: u32) -> &mut ClientStats {
        self.clients.entry(client).or_insert(ClientStats {
            client,
            ..ClientStats::default()
        })
    }

    fn offer(&mut self, now: u64, client: u32, id: u64) -> Outcome {
        self.client(client).offered += 1;
        if let Some((max_flops, window)) = self.shed {
            self.arrivals_in_window += 1;
            if self.arrivals_in_window >= window {
                self.arrivals_in_window = 0;
                self.spent_flops = 0;
            }
            if self.spent_flops + self.offload_flops > max_flops {
                self.client(client).shed += 1;
                return Outcome::Shed;
            }
        }
        self.client(client).admitted += 1;
        self.pending.push((client, now, id));
        if self.pending.len() < self.max_batch {
            return Outcome::Nothing;
        }
        self.flush(now, FlushTrigger::Size)
    }

    fn poll(&mut self, now: u64) -> Outcome {
        match self.next_deadline() {
            Some(deadline) if now >= deadline => self.flush(now, FlushTrigger::Deadline),
            _ => Outcome::Nothing,
        }
    }

    fn drain(&mut self, now: u64) -> Outcome {
        if self.pending.is_empty() {
            return Outcome::Nothing;
        }
        self.flush(now, FlushTrigger::Drain)
    }

    fn next_deadline(&self) -> Option<u64> {
        self.pending
            .first()
            .map(|&(_, arrival, _)| arrival + DEADLINE)
    }

    fn flush(&mut self, now: u64, trigger: FlushTrigger) -> Outcome {
        self.flushes[trigger as usize] += 1;
        let mut out = Vec::new();
        for (client, arrival, id) in std::mem::take(&mut self.pending) {
            let (flops, cloud) = self.cost_of[id as usize];
            self.spent_flops += flops;
            let entry = self.client(client);
            entry.answered += 1;
            entry.cloud += cloud as u64;
            entry.edge += !cloud as u64;
            out.push((client, now - arrival, id));
        }
        Outcome::Flushed(trigger, out)
    }
}

/// Checks one real flush against the pool reference and reduces it to the
/// model's vocabulary.
fn observed(
    trigger: FlushTrigger,
    batch: Vec<ClientResponse>,
    image_of: &[usize],
    reference: &[InferenceResponse],
) -> Outcome {
    let rows = batch
        .into_iter()
        .map(|cr| {
            let want = &reference[image_of[cr.response.id as usize]];
            assert_eq!(cr.response.label, want.label);
            assert_eq!(cr.response.score.to_bits(), want.score.to_bits());
            assert_eq!(cr.response.route, want.route);
            assert_eq!(cr.response.cost, want.cost);
            (cr.client, cr.waited_nanos, cr.response.id)
        })
        .collect();
    Outcome::Flushed(trigger, rows)
}

fn run_schedule(seed: u64, max_batch: usize, shed_offloads: Option<f64>) {
    let mut rng = SeededRng::new(seed);
    let pool: Vec<Tensor> = (0..POOL)
        .map(|_| Tensor::randn(&[3, 12, 12], &mut rng))
        .collect();
    // δ at the pool's median score, so answers split between edge and cloud
    // and the shed meter sees both prices.
    let mut scores: Vec<f32> = single_request_reference(&pool, 0.5)
        .iter()
        .map(|r| r.score)
        .collect();
    scores.sort_by(f32::total_cmp);
    let delta = scores[POOL / 2] as f64;
    let reference = single_request_reference(&pool, delta);
    let cloud = reference.iter().filter(|r| r.route.is_cloud()).count();
    assert!(
        0 < cloud && cloud < POOL,
        "δ must split the pool: {cloud} cloud"
    );

    let offload_flops = engine(1, delta).offload_cost().flops;
    let shed = shed_offloads.map(|n| ((offload_flops as f64 * n) as u64, 7));
    let mut real = MicroBatcher::new(
        engine(max_batch, delta),
        Duration::from_nanos(DEADLINE),
        shed.map(|(max_flops, window)| ShedConfig {
            budget: CostBudget::flops(max_flops),
            window,
        }),
    )
    .unwrap();
    let mut model = Model {
        max_batch,
        shed,
        offload_flops,
        cost_of: Vec::new(),
        spent_flops: 0,
        arrivals_in_window: 0,
        pending: Vec::new(),
        flushes: [0; 3],
        clients: BTreeMap::new(),
    };

    let mut image_of: Vec<usize> = Vec::new();
    let mut now = 0u64;
    let (mut offered, mut shed_count) = (0u64, 0u64);
    for step in 0..160 {
        // Virtual time: ties, short gaps that let a batch gather, and gaps
        // that carry the oldest request past its deadline.
        now += match rng.below(4) {
            0 => 0,
            1 | 2 => rng.below(DEADLINE as usize / 3) as u64,
            _ => DEADLINE - 1 + rng.below(3) as u64,
        };
        let (got, want) = match rng.below(10) {
            0..=5 => {
                let id = image_of.len() as u64;
                let image = rng.below(POOL);
                let client = rng.below(CLIENTS) as u32;
                image_of.push(image);
                model.cost_of.push((
                    reference[image].cost.flops,
                    reference[image].route.is_cloud(),
                ));
                offered += 1;
                let request = InferenceRequest::new(id, pool[image].clone());
                let got = match real.offer(now, client, request).unwrap() {
                    Admission::Queued => Outcome::Nothing,
                    Admission::Shed => {
                        shed_count += 1;
                        Outcome::Shed
                    }
                    Admission::Flushed(batch) => {
                        observed(FlushTrigger::Size, batch, &image_of, &reference)
                    }
                };
                (got, model.offer(now, client, id))
            }
            6..=8 => {
                let got = match real.poll(now).unwrap() {
                    None => Outcome::Nothing,
                    Some((trigger, batch)) => {
                        assert_eq!(trigger, FlushTrigger::Deadline);
                        observed(trigger, batch, &image_of, &reference)
                    }
                };
                (got, model.poll(now))
            }
            _ => {
                let batch = real.drain(now).unwrap();
                let got = if batch.is_empty() {
                    Outcome::Nothing
                } else {
                    observed(FlushTrigger::Drain, batch, &image_of, &reference)
                };
                (got, model.drain(now))
            }
        };
        let at = format!("seed {seed} max_batch {max_batch} shed {shed:?} step {step} t={now}");
        assert_eq!(got, want, "{at}");
        assert_eq!(real.next_deadline_nanos(), model.next_deadline(), "{at}");
        assert_eq!(real.pending(), model.pending.len(), "{at}");

        let stats = real.stats();
        let model_clients: Vec<ClientStats> = model.clients.values().copied().collect();
        assert_eq!(stats.clients, model_clients, "{at}");
        assert_eq!(
            [
                stats.size_flushes,
                stats.deadline_flushes,
                stats.drain_flushes
            ],
            model.flushes,
            "{at}"
        );
        let answered: u64 = model_clients.iter().map(|c| c.answered).sum();
        assert_eq!(
            (stats.offered, stats.shed, stats.answered),
            (offered, shed_count, answered),
            "{at}"
        );
        assert_eq!(stats.offered, stats.admitted + stats.shed, "{at}");
        assert_eq!(
            stats.admitted,
            stats.answered + real.pending() as u64,
            "{at}"
        );
        assert_eq!(stats.engine.requests, stats.answered, "{at}");
        assert_eq!(
            stats.engine.batches,
            model.flushes.iter().sum::<u64>(),
            "{at}"
        );
        for c in &stats.clients {
            assert_eq!(c.offered, c.admitted + c.shed, "{at}");
            assert_eq!(c.answered, c.edge + c.cloud, "{at}");
        }
    }
    assert!(
        model.flushes.iter().sum::<u64>() > 0,
        "seed {seed} never flushed"
    );
    if shed.is_some() {
        assert!(
            0 < shed_count && shed_count < offered,
            "seed {seed}: the budget must bite without starving ({shed_count}/{offered} shed)"
        );
    }
}

#[test]
fn random_schedules_match_the_reference_model() {
    for seed in 0..6u64 {
        let max_batch = [1, 2, 3, 5, 8, 64][seed as usize];
        run_schedule(100 + seed, max_batch, None);
    }
}

#[test]
fn random_schedules_with_shedding_match_the_reference_model() {
    for seed in 0..6u64 {
        let max_batch = [1, 2, 3, 5, 8, 64][seed as usize];
        run_schedule(200 + seed, max_batch, Some(2.5));
    }
}
