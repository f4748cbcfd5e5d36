//! The cloud tier: the big network behind a size-or-deadline batching queue
//! on a shared GPU clock.
//!
//! This mirrors `appealnet_core::server::MicroBatcher`'s flush discipline —
//! flush when `max_batch` appeals are pending or when the *oldest* pending
//! appeal reaches its coalescing deadline — recast for virtual time: the
//! simulator drives it from discrete events instead of a polling thread.
//! Labels come from a real forward pass of the big network (via
//! `parallel::classifier_logits`, whose argmax rows are bit-identical across
//! [`ChunkPolicy`] shardings), so the simulated cloud answers with the same
//! model the serving engine would use.

use crate::error::{is_non_negative, is_positive, FleetError, FleetResult};
use crate::ms_to_nanos;
use appeal_hw::DeviceSpec;
use appeal_models::ClassifierParts;
use appeal_tensor::Tensor;
use appealnet_core::{parallel, ChunkPolicy};

/// Cloud-tier parameters.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// The GPU-class device the big network runs on.
    pub device: DeviceSpec,
    /// Flush as soon as this many appeals are pending.
    pub max_batch: usize,
    /// Flush when the oldest pending appeal has waited this long, in
    /// milliseconds.
    pub deadline_ms: f64,
    /// Fixed per-batch overhead (kernel launch, scheduling), in milliseconds.
    pub batch_overhead_ms: f64,
    /// Ingress backpressure: shed an arriving appeal outright when the GPU
    /// backlog already exceeds this, in milliseconds. `None` (the default
    /// baseline) never sheds. A shed appeal vanishes like a blackout drop —
    /// the edge learns via its appeal deadline — so configuring this
    /// requires a recovery policy.
    pub shed_backlog_ms: Option<f64>,
}

impl CloudConfig {
    /// The stock cloud tier every experiment and golden row starts from:
    /// [`DeviceSpec::cloud_gpu`] flushing batches of 8 after at most 2 ms,
    /// 1 ms of per-batch overhead, no ingress shedding.
    pub fn baseline() -> Self {
        Self {
            device: DeviceSpec::cloud_gpu(),
            max_batch: 8,
            deadline_ms: 2.0,
            batch_overhead_ms: 1.0,
            shed_backlog_ms: None,
        }
    }
}

/// One appeal waiting in the cloud's batching queue.
#[derive(Debug, Clone, Copy)]
pub struct PendingAppeal {
    /// Fleet-wide request index (addresses the pregenerated image tensor).
    pub request: usize,
    /// Edge node that appealed.
    pub node: usize,
    /// Virtual time the node committed to offloading (for round-trip
    /// feedback to the node's adaptive budget).
    pub decided_nanos: u64,
    /// Virtual time the appeal reached the cloud.
    pub arrived_nanos: u64,
    /// Transmission attempt this appeal rode in on (1 = first send); echoed
    /// back so the edge can match answers against its retry state.
    pub attempt: u32,
}

/// What the simulator should do after offering an appeal to the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudPush {
    /// The queue reached `max_batch`: flush immediately.
    FlushNow,
    /// First pending appeal: schedule a deadline check at this virtual time.
    ScheduleDeadline(u64),
    /// Queued behind earlier appeals; a deadline check is already scheduled.
    Queued,
    /// Shed at ingress: the GPU backlog exceeded `shed_backlog_ms`. The
    /// appeal was *not* queued and will never be answered; the edge's appeal
    /// deadline discovers the loss.
    Shed,
}

/// The backpressure signal the cloud piggybacks on every appeal response,
/// folded into each node's [`FleetHealthView`](crate::health::FleetHealthView)
/// at zero message cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudSignal {
    /// Appeals in the flushed batch (the batching-queue depth at flush).
    pub queue_depth: u32,
    /// How far the GPU clock was behind the flush instant, in milliseconds —
    /// the same backlog the shed gate reads.
    pub backlog_ms: f64,
    /// Cumulative fraction of offered appeals shed at ingress so far.
    pub shed_rate: f64,
}

/// One cloud answer on its way back down.
#[derive(Debug, Clone, Copy)]
pub struct CloudResponse {
    /// Fleet-wide request index.
    pub request: usize,
    /// Edge node awaiting the answer.
    pub node: usize,
    /// When the node committed to offloading.
    pub decided_nanos: u64,
    /// Transmission attempt the appeal rode in on.
    pub attempt: u32,
    /// The big network's label.
    pub label: usize,
    /// The cloud's backpressure signal at the answering flush.
    pub signal: CloudSignal,
}

/// A flushed batch: its answers and when the GPU finished computing them.
#[derive(Debug, Clone)]
pub struct CloudBatch {
    /// Virtual time the batch's forward pass completes.
    pub done_nanos: u64,
    /// Per-appeal answers, in queue order.
    pub responses: Vec<CloudResponse>,
}

/// The cloud tier itself.
pub struct CloudTier {
    big: ClassifierParts,
    chunk: ChunkPolicy,
    config: CloudConfig,
    deadline_nanos: u64,
    flops_per_sample: u64,
    pending: Vec<PendingAppeal>,
    gpu_free_nanos: u64,
    busy_nanos: u64,
    batches: u64,
    served: u64,
    offered: u64,
    shed: u64,
}

impl CloudTier {
    /// Creates the cloud tier.
    ///
    /// Returns [`FleetError::InvalidConfig`] if `max_batch` is zero or a
    /// latency parameter is negative/NaN.
    pub fn new(big: ClassifierParts, chunk: ChunkPolicy, config: CloudConfig) -> FleetResult<Self> {
        if config.max_batch == 0 {
            return Err(FleetError::InvalidConfig {
                what: "cloud max_batch must be positive",
            });
        }
        if !is_non_negative(config.deadline_ms) {
            return Err(FleetError::InvalidConfig {
                what: "cloud deadline_ms must be non-negative",
            });
        }
        if !is_non_negative(config.batch_overhead_ms) {
            return Err(FleetError::InvalidConfig {
                what: "cloud batch_overhead_ms must be non-negative",
            });
        }
        if let Some(limit) = config.shed_backlog_ms {
            if !is_positive(limit) {
                return Err(FleetError::InvalidConfig {
                    what: "cloud shed_backlog_ms must be positive",
                });
            }
        }
        let deadline_nanos = ms_to_nanos(config.deadline_ms);
        let flops_per_sample = big.total_flops();
        Ok(Self {
            big,
            chunk,
            config,
            deadline_nanos,
            flops_per_sample,
            pending: Vec::new(),
            gpu_free_nanos: 0,
            busy_nanos: 0,
            batches: 0,
            served: 0,
            offered: 0,
            shed: 0,
        })
    }

    /// Offers one appeal to the batching queue at virtual time `now_nanos`.
    /// With `shed_backlog_ms` configured, an appeal arriving while the GPU
    /// backlog exceeds the limit is shed at ingress instead of queued.
    pub fn push(&mut self, now_nanos: u64, appeal: PendingAppeal) -> CloudPush {
        self.offered += 1;
        if let Some(limit) = self.config.shed_backlog_ms {
            if self.backlog_nanos(now_nanos) > ms_to_nanos(limit) {
                self.shed += 1;
                return CloudPush::Shed;
            }
        }
        let was_empty = self.pending.is_empty();
        self.pending.push(appeal);
        if self.pending.len() >= self.config.max_batch {
            CloudPush::FlushNow
        } else if was_empty {
            CloudPush::ScheduleDeadline(now_nanos.saturating_add(self.deadline_nanos))
        } else {
            CloudPush::Queued
        }
    }

    /// How far the GPU clock is behind `now_nanos` — the backlog both the
    /// shed gate and the piggybacked signal report.
    fn backlog_nanos(&self, now_nanos: u64) -> u64 {
        self.gpu_free_nanos.saturating_sub(now_nanos)
    }

    /// The cumulative fraction of offered appeals shed at ingress.
    fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Whether a deadline check firing at `now_nanos` should flush: true iff
    /// the oldest pending appeal has exhausted its coalescing deadline.
    /// Stale checks (their batch already flushed by size) report false.
    pub fn deadline_due(&self, now_nanos: u64) -> bool {
        self.pending.first().is_some_and(|oldest| {
            oldest.arrived_nanos.saturating_add(self.deadline_nanos) <= now_nanos
        })
    }

    /// Flushes every pending appeal as one batch: runs the big network over
    /// the selected rows of `images` and schedules the batch on the GPU
    /// clock (`start = max(now, gpu_free)`). Returns `None` if nothing is
    /// pending.
    pub fn flush(&mut self, now_nanos: u64, images: &Tensor) -> Option<CloudBatch> {
        if self.pending.is_empty() {
            return None;
        }
        let appeals = std::mem::take(&mut self.pending);
        let rows: Vec<usize> = appeals.iter().map(|a| a.request).collect();
        let batch = images.select_rows(&rows);
        let labels = parallel::classifier_logits(&mut self.big, &batch, rows.len(), &self.chunk)
            .argmax_rows();
        let n = appeals.len() as u64;
        // The backpressure signal reads the GPU clock *before* this batch is
        // scheduled onto it: the backlog an appeal arriving right now would
        // queue behind.
        let signal = CloudSignal {
            queue_depth: appeals.len() as u32,
            backlog_ms: self.backlog_nanos(now_nanos) as f64 / 1e6,
            shed_rate: self.shed_rate(),
        };
        let service_ms = self.config.batch_overhead_ms
            + self
                .config
                .device
                .latency_ms(self.flops_per_sample.saturating_mul(n));
        let start = now_nanos.max(self.gpu_free_nanos);
        let done = start.saturating_add(ms_to_nanos(service_ms));
        self.gpu_free_nanos = done;
        self.busy_nanos += done - start;
        self.batches += 1;
        self.served += n;
        let responses = appeals
            .iter()
            .zip(labels)
            .map(|(a, label)| CloudResponse {
                request: a.request,
                node: a.node,
                decided_nanos: a.decided_nanos,
                attempt: a.attempt,
                label,
                signal,
            })
            .collect();
        Some(CloudBatch {
            done_nanos: done,
            responses,
        })
    }

    /// Virtual nanoseconds the GPU spent computing.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos
    }

    /// Batches flushed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Appeals answered so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Appeals currently waiting for a flush.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Appeals shed at ingress by the backlog gate.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// What the big network *would* have answered for the given request
    /// rows — the counterfactual behind the degraded-answer accuracy ledger.
    /// Pure accounting: touches no clock, queue, or counter, so calling it
    /// cannot perturb a run's timing or its byte-reproducibility.
    pub fn counterfactual_labels(&mut self, images: &Tensor, rows: &[usize]) -> Vec<usize> {
        if rows.is_empty() {
            return Vec::new();
        }
        let batch = images.select_rows(rows);
        parallel::classifier_logits(&mut self.big, &batch, rows.len(), &self.chunk).argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_models::ModelSpec;
    use appeal_tensor::SeededRng;

    fn tier(max_batch: usize, deadline_ms: f64) -> CloudTier {
        let mut rng = SeededRng::new(9);
        let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        CloudTier::new(
            big,
            ChunkPolicy::sequential(),
            CloudConfig {
                max_batch,
                deadline_ms,
                ..CloudConfig::baseline()
            },
        )
        .unwrap()
    }

    fn appeal(request: usize, arrived: u64) -> PendingAppeal {
        PendingAppeal {
            request,
            node: 0,
            decided_nanos: arrived,
            arrived_nanos: arrived,
            attempt: 1,
        }
    }

    #[test]
    fn size_trigger_fires_at_max_batch() {
        let mut t = tier(3, 5.0);
        assert_eq!(
            t.push(0, appeal(0, 0)),
            CloudPush::ScheduleDeadline(5_000_000)
        );
        assert_eq!(t.push(10, appeal(1, 10)), CloudPush::Queued);
        assert_eq!(t.push(20, appeal(2, 20)), CloudPush::FlushNow);
    }

    #[test]
    fn stale_deadline_checks_are_ignored() {
        let mut t = tier(2, 5.0);
        t.push(0, appeal(0, 0));
        t.push(1, appeal(1, 1)); // size flush will consume both
        let mut rng = SeededRng::new(3);
        let images = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        let batch = t.flush(2, &images).unwrap();
        assert_eq!(batch.responses.len(), 2);
        // The deadline scheduled for request 0 fires into an empty queue.
        assert!(!t.deadline_due(5_000_000));
        // A fresh appeal's deadline is due only once it has waited out.
        t.push(6_000_000, appeal(2, 6_000_000));
        assert!(!t.deadline_due(6_000_001));
        assert!(t.deadline_due(11_000_000));
    }

    #[test]
    fn gpu_clock_serializes_batches() {
        let mut t = tier(1, 5.0);
        let mut rng = SeededRng::new(3);
        let images = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        t.push(0, appeal(0, 0));
        let first = t.flush(0, &images).unwrap();
        let service = first.done_nanos;
        assert!(service >= ms_to_nanos(1.0), "at least the batch overhead");
        // A second batch arriving while the GPU is busy starts after it.
        t.push(1, appeal(1, 1));
        let second = t.flush(1, &images).unwrap();
        assert_eq!(second.done_nanos, service + service);
        assert_eq!(t.busy_nanos(), 2 * service);
        assert_eq!(t.batches(), 2);
        assert_eq!(t.served(), 2);
    }

    #[test]
    fn labels_match_a_direct_big_pass() {
        let mut rng = SeededRng::new(9);
        let mut big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        let mut t = tier(4, 5.0);
        let mut img_rng = SeededRng::new(3);
        let images = Tensor::randn(&[4, 3, 12, 12], &mut img_rng);
        for i in 0..4 {
            t.push(i as u64, appeal(i, i as u64));
        }
        let batch = t.flush(4, &images).unwrap();
        let direct = big.forward(&images, false).argmax_rows();
        let got: Vec<usize> = batch.responses.iter().map(|r| r.label).collect();
        assert_eq!(got, direct);
    }

    #[test]
    fn rejects_invalid_config() {
        let mut rng = SeededRng::new(9);
        let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        let bad = CloudTier::new(
            big,
            ChunkPolicy::sequential(),
            CloudConfig {
                max_batch: 0,
                ..CloudConfig::baseline()
            },
        );
        assert!(matches!(bad, Err(FleetError::InvalidConfig { .. })));
        let mut rng = SeededRng::new(9);
        let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
        let bad_shed = CloudTier::new(
            big,
            ChunkPolicy::sequential(),
            CloudConfig {
                shed_backlog_ms: Some(0.0),
                ..CloudConfig::baseline()
            },
        );
        assert!(matches!(bad_shed, Err(FleetError::InvalidConfig { .. })));
    }

    #[test]
    fn responses_carry_the_backpressure_signal() {
        let mut t = tier(2, 5.0);
        let mut rng = SeededRng::new(3);
        let images = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        t.push(0, appeal(0, 0));
        t.push(0, appeal(1, 0));
        let first = t.flush(0, &images).unwrap();
        for r in &first.responses {
            assert_eq!(r.signal.queue_depth, 2);
            assert_eq!(r.signal.backlog_ms, 0.0, "idle GPU, no backlog");
            assert_eq!(r.signal.shed_rate, 0.0);
        }
        // A batch flushed while the GPU is still busy reports the backlog an
        // arriving appeal would queue behind.
        t.push(1, appeal(2, 1));
        let second = t.flush(1, &images).unwrap();
        let expected_ms = (first.done_nanos - 1) as f64 / 1e6;
        let got = second.responses[0].signal.backlog_ms;
        assert!((got - expected_ms).abs() < 1e-9, "{got} vs {expected_ms}");
    }

    #[test]
    fn backlog_gate_sheds_at_ingress_and_reports_the_rate() {
        let mut t = tier(1, 5.0);
        // The gate must sit under the 1 ms batch overhead so one in-flight
        // batch is enough backlog to trip it.
        t.config.shed_backlog_ms = Some(0.5);
        let mut rng = SeededRng::new(3);
        let images = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        assert_eq!(t.push(0, appeal(0, 0)), CloudPush::FlushNow);
        let batch = t.flush(0, &images).unwrap();
        assert!(batch.done_nanos > ms_to_nanos(0.5), "backlog now over gate");
        // While the GPU backlog exceeds the gate, pushes shed...
        assert_eq!(t.push(1, appeal(1, 1)), CloudPush::Shed);
        assert_eq!(t.shed(), 1);
        assert_eq!(t.pending_len(), 0, "shed appeals are never queued");
        // ...and once it drains, pushes queue again.
        assert_eq!(
            t.push(batch.done_nanos, appeal(2, batch.done_nanos)),
            CloudPush::FlushNow
        );
        let second = t.flush(batch.done_nanos, &images).unwrap();
        let rate = second.responses[0].signal.shed_rate;
        assert!(
            (rate - 1.0 / 3.0).abs() < 1e-12,
            "1 of 3 offers shed: {rate}"
        );
    }
}
