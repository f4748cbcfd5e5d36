//! A seeded stochastic link model plus a bounded virtual-time link queue.
//!
//! [`LinkSpec`] is a *deterministic* cost model: every transfer of the same
//! size costs the same milliseconds. Real uplinks do not behave that way —
//! throughput jitters, packets drop and are retransmitted, and a saturated
//! radio queues (or sheds) frames. [`StochasticLink`] layers those effects on
//! top of a `LinkSpec` using a caller-supplied [`SeededRng`], so a fleet
//! simulation samples realistic per-transfer latencies while remaining
//! byte-reproducible: no wall clock, no global RNG, just virtual time and a
//! seed.
//!
//! [`LinkQueue`] models the congestion half: a bounded FIFO in front of a
//! single serial transmitter. Offers beyond capacity are rejected, which the
//! fleet simulator turns into edge-side fallbacks (the node answers locally
//! rather than waiting on a saturated uplink).

use crate::error::{
    require_non_negative, require_probability, require_probability_inclusive, HwError, HwResult,
};
use crate::link::LinkSpec;
use appeal_tensor::SeededRng;

/// Maximum retransmissions charged to a single transfer — the per-transfer
/// retransmit budget. [`StochasticLink::try_transmit_ms`] gives up with
/// [`HwError::LinkDown`] once the budget is spent; the legacy
/// [`StochasticLink::sample_transmit_ms`] instead treats the capped sample as
/// delivered. Either way an unbounded geometric tail can never stall a
/// simulation.
pub const MAX_RETRANSMITS: u32 = 8;

/// One sampled transfer over a [`StochasticLink`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSample {
    /// Serialization time the transmitter is busy for, in milliseconds
    /// (jittered base transmit plus retransmission penalties).
    pub service_ms: f64,
    /// How many retransmissions the loss process charged.
    pub retransmits: u32,
}

/// A [`LinkSpec`] extended with seeded jitter, loss and retransmission
/// behaviour.
///
/// All sampling draws from a caller-supplied [`SeededRng`] so the model has
/// no hidden state: a fixed seed plus a fixed sequence of calls reproduces
/// the same link weather bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticLink {
    /// The nominal link this model perturbs.
    pub spec: LinkSpec,
    /// Relative jitter amplitude in `[0, 1)`: each transfer's serialization
    /// and propagation times are scaled by `1 + jitter * U(-1, 1)`.
    pub jitter: f64,
    /// Per-transfer loss probability in `[0, 1)`; each loss costs one
    /// retransmission timeout.
    pub loss: f64,
    /// Retransmission timeout charged per lost transfer, in milliseconds.
    pub rto_ms: f64,
    /// Depth of the bounded uplink queue (see [`LinkQueue`]).
    pub queue_capacity: usize,
}

impl StochasticLink {
    /// Creates a stochastic link model over `spec`.
    ///
    /// Returns [`HwError`] if `jitter` is outside `[0, 1)`, `loss` is outside
    /// `[0, 1]` (`loss = 1.0` is a well-defined total blackout — every
    /// [`try_transmit_ms`](Self::try_transmit_ms) fails with
    /// [`HwError::LinkDown`]), `rto_ms` is negative, or `queue_capacity` is
    /// zero.
    pub fn new(
        spec: LinkSpec,
        jitter: f64,
        loss: f64,
        rto_ms: f64,
        queue_capacity: usize,
    ) -> HwResult<Self> {
        require_probability("jitter", jitter)?;
        require_probability_inclusive("loss", loss)?;
        require_non_negative("rto_ms", rto_ms)?;
        if queue_capacity == 0 {
            return Err(HwError::ZeroCapacity {
                field: "queue_capacity",
            });
        }
        Ok(Self {
            spec,
            jitter,
            loss,
            rto_ms,
            queue_capacity,
        })
    }

    /// A degenerate stochastic link with no jitter, no loss and a deep
    /// queue: samples reproduce the deterministic [`LinkSpec`] numbers.
    pub fn ideal(spec: LinkSpec) -> Self {
        Self {
            spec,
            jitter: 0.0,
            loss: 0.0,
            rto_ms: 0.0,
            queue_capacity: usize::MAX,
        }
    }

    /// A jittery but mostly reliable Wi-Fi uplink.
    pub fn wifi() -> Self {
        Self {
            spec: LinkSpec::wifi(),
            jitter: 0.3,
            loss: 0.01,
            rto_ms: 20.0,
            queue_capacity: 32,
        }
    }

    /// A lossier cellular LTE uplink with a shallower radio queue.
    pub fn lte() -> Self {
        Self {
            spec: LinkSpec::lte(),
            jitter: 0.5,
            loss: 0.03,
            rto_ms: 100.0,
            queue_capacity: 16,
        }
    }

    /// Samples the serialization (transmitter-busy) time for `bytes`.
    ///
    /// `severity >= 1.0` models link degradation: it stretches the base
    /// transmit time and multiplies the loss probability, which is how the
    /// fleet simulator's degraded-link phase is expressed. `severity = 1.0`
    /// is the nominal link.
    pub fn sample_transmit_ms(
        &self,
        bytes: u64,
        severity: f64,
        rng: &mut SeededRng,
    ) -> TransferSample {
        let base = self.spec.transmit_ms(bytes) * severity;
        let factor = 1.0 + self.jitter * f64::from(rng.uniform(-1.0, 1.0));
        let loss = (self.loss * severity).min(0.95);
        let mut retransmits = 0u32;
        while retransmits < MAX_RETRANSMITS && rng.bernoulli(loss as f32) {
            retransmits += 1;
        }
        TransferSample {
            service_ms: base * factor + f64::from(retransmits) * self.rto_ms,
            retransmits,
        }
    }

    /// Fallible variant of [`sample_transmit_ms`](Self::sample_transmit_ms)
    /// with a hard per-transfer retransmit budget: the transfer either
    /// delivers within [`MAX_RETRANSMITS`] retransmissions or fails with
    /// [`HwError::LinkDown`] so the caller can run a typed recovery path.
    ///
    /// Two differences from the legacy sampler, both deliberate:
    ///
    /// * the effective loss probability saturates at **1.0** (not 0.95), so
    ///   `loss × severity ≥ 1` is a well-defined total blackout that fails
    ///   deterministically without consuming loss draws;
    /// * exhausting the retransmit budget is an *error*, not a delivery —
    ///   under a near-blackout the old sampler silently pretended the bytes
    ///   arrived, which is exactly the hazard a recovery layer must see.
    pub fn try_transmit_ms(
        &self,
        bytes: u64,
        severity: f64,
        rng: &mut SeededRng,
    ) -> HwResult<TransferSample> {
        let base = self.spec.transmit_ms(bytes) * severity;
        let factor = 1.0 + self.jitter * f64::from(rng.uniform(-1.0, 1.0));
        let loss = (self.loss * severity).min(1.0);
        if loss >= 1.0 {
            return Err(HwError::LinkDown { retransmits: 0 });
        }
        let mut retransmits = 0u32;
        while rng.bernoulli(loss as f32) {
            retransmits += 1;
            if retransmits > MAX_RETRANSMITS {
                return Err(HwError::LinkDown { retransmits });
            }
        }
        Ok(TransferSample {
            service_ms: base * factor + f64::from(retransmits) * self.rto_ms,
            retransmits,
        })
    }

    /// Samples the one-way propagation delay (half the RTT, jittered and
    /// stretched by `severity`), in milliseconds.
    pub fn sample_propagation_ms(&self, severity: f64, rng: &mut SeededRng) -> f64 {
        let factor = 1.0 + self.jitter * f64::from(rng.uniform(-1.0, 1.0));
        (self.spec.rtt_ms / 2.0) * severity * factor
    }
}

/// A bounded FIFO queue in front of a single serial transmitter, in virtual
/// time.
///
/// The queue tracks the departure time of every transfer still in flight.
/// [`LinkQueue::offer`] first expires departures at or before `now`, then
/// either rejects the transfer (queue full — congestion) or schedules it
/// behind the current backlog and returns its departure time.
#[derive(Debug, Clone)]
pub struct LinkQueue {
    capacity: usize,
    /// Departure nanoseconds of in-flight transfers, oldest first.
    departures: std::collections::VecDeque<u64>,
    accepted: u64,
    rejected: u64,
}

impl LinkQueue {
    /// Creates a queue with the given depth.
    ///
    /// Returns [`HwError::ZeroCapacity`] if `capacity` is zero.
    pub fn new(capacity: usize) -> HwResult<Self> {
        if capacity == 0 {
            return Err(HwError::ZeroCapacity { field: "capacity" });
        }
        Ok(Self {
            capacity,
            departures: std::collections::VecDeque::new(),
            accepted: 0,
            rejected: 0,
        })
    }

    /// Offers a transfer needing `service_nanos` of transmitter time at
    /// virtual time `now_nanos`.
    ///
    /// Returns the transfer's departure time, or `None` if the queue is at
    /// capacity (the transfer is shed).
    pub fn offer(&mut self, now_nanos: u64, service_nanos: u64) -> Option<u64> {
        self.expire(now_nanos);
        if self.departures.len() >= self.capacity {
            self.rejected += 1;
            return None;
        }
        let start = self.departures.back().copied().unwrap_or(0).max(now_nanos);
        let departure = start.saturating_add(service_nanos);
        self.departures.push_back(departure);
        self.accepted += 1;
        Some(departure)
    }

    /// Transfers still queued or transmitting at `now_nanos`.
    pub fn in_flight(&mut self, now_nanos: u64) -> usize {
        self.expire(now_nanos);
        self.departures.len()
    }

    /// Total transfers accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total transfers rejected (queue full) so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn expire(&mut self, now_nanos: u64) {
        while self.departures.front().is_some_and(|&dep| dep <= now_nanos) {
            self.departures.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_reproduces_the_deterministic_spec() {
        let link = StochasticLink::ideal(LinkSpec::wifi());
        let mut rng = SeededRng::new(7);
        let sample = link.sample_transmit_ms(4096, 1.0, &mut rng);
        assert!((sample.service_ms - link.spec.transmit_ms(4096)).abs() < 1e-12);
        assert_eq!(sample.retransmits, 0);
        let prop = link.sample_propagation_ms(1.0, &mut rng);
        assert!((prop - link.spec.rtt_ms / 2.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let link = StochasticLink::lte();
        let run = |seed: u64| {
            let mut rng = SeededRng::new(seed);
            (0..64)
                .map(|i| link.sample_transmit_ms(1024 * (i + 1), 1.0, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn jitter_stays_within_the_configured_band() {
        let link = StochasticLink::wifi();
        let base = link.spec.transmit_ms(1 << 20);
        let mut rng = SeededRng::new(3);
        for _ in 0..256 {
            let s = link.sample_transmit_ms(1 << 20, 1.0, &mut rng);
            let jitter_only = s.service_ms - f64::from(s.retransmits) * link.rto_ms;
            assert!(jitter_only >= base * (1.0 - link.jitter) - 1e-9);
            assert!(jitter_only <= base * (1.0 + link.jitter) + 1e-9);
        }
    }

    #[test]
    fn severity_stretches_transfers_and_raises_loss() {
        let link = StochasticLink::lte();
        let trials = 512;
        let totals = |severity: f64| {
            let mut rng = SeededRng::new(5);
            let mut ms = 0.0;
            let mut retx = 0u64;
            for _ in 0..trials {
                let s = link.sample_transmit_ms(1 << 16, severity, &mut rng);
                ms += s.service_ms;
                retx += u64::from(s.retransmits);
            }
            (ms, retx)
        };
        let (nominal_ms, nominal_retx) = totals(1.0);
        let (degraded_ms, degraded_retx) = totals(4.0);
        assert!(degraded_ms > nominal_ms * 2.0);
        assert!(degraded_retx > nominal_retx);
    }

    #[test]
    fn retransmissions_are_capped() {
        // loss close to 1 (via severity) still terminates.
        let link = StochasticLink::new(LinkSpec::lte(), 0.0, 0.5, 10.0, 4).unwrap();
        let mut rng = SeededRng::new(1);
        for _ in 0..128 {
            let s = link.sample_transmit_ms(1024, 1.9, &mut rng);
            assert!(s.retransmits <= MAX_RETRANSMITS);
        }
    }

    #[test]
    fn try_transmit_total_blackout_is_typed_and_deterministic() {
        // loss = 1.0 is constructible and always LinkDown, never a loop.
        let link = StochasticLink::new(LinkSpec::wifi(), 0.0, 1.0, 10.0, 4).unwrap();
        let mut rng = SeededRng::new(2);
        for _ in 0..32 {
            assert!(matches!(
                link.try_transmit_ms(1024, 1.0, &mut rng),
                Err(HwError::LinkDown { retransmits: 0 })
            ));
        }
        // Severity can also push a lossy link into blackout.
        let lossy = StochasticLink::new(LinkSpec::lte(), 0.0, 0.5, 10.0, 4).unwrap();
        assert!(matches!(
            lossy.try_transmit_ms(1024, 2.0, &mut rng),
            Err(HwError::LinkDown { .. })
        ));
    }

    #[test]
    fn try_transmit_exhausted_retransmit_budget_is_link_down() {
        // At 90% loss, runs of MAX_RETRANSMITS + 1 losses are common; the
        // budget must convert them into typed failures, and delivered
        // samples must respect the cap.
        let link = StochasticLink::new(LinkSpec::lte(), 0.0, 0.9, 10.0, 4).unwrap();
        let mut rng = SeededRng::new(3);
        let mut failures = 0;
        for _ in 0..256 {
            match link.try_transmit_ms(1024, 1.0, &mut rng) {
                Ok(sample) => assert!(sample.retransmits <= MAX_RETRANSMITS),
                Err(HwError::LinkDown { retransmits }) => {
                    assert_eq!(retransmits, MAX_RETRANSMITS + 1);
                    failures += 1;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(failures > 0, "0.9^9 runs must occur in 256 trials");
    }

    #[test]
    fn try_transmit_matches_legacy_sampler_when_reliable() {
        // Below the cap the two samplers consume the same draws and agree.
        let link = StochasticLink::wifi();
        let mut a = SeededRng::new(17);
        let mut b = SeededRng::new(17);
        for i in 0..128u64 {
            let legacy = link.sample_transmit_ms(1024 * (i + 1), 1.0, &mut a);
            let tried = link.try_transmit_ms(1024 * (i + 1), 1.0, &mut b).unwrap();
            assert_eq!(legacy, tried);
        }
    }

    #[test]
    fn constructor_validates_fields() {
        let spec = LinkSpec::wifi;
        assert!(matches!(
            StochasticLink::new(spec(), 1.0, 0.0, 0.0, 4),
            Err(HwError::InvalidProbability {
                field: "jitter",
                ..
            })
        ));
        assert!(matches!(
            StochasticLink::new(spec(), 0.0, -0.1, 0.0, 4),
            Err(HwError::InvalidProbability { field: "loss", .. })
        ));
        assert!(matches!(
            StochasticLink::new(spec(), 0.0, 0.0, -1.0, 4),
            Err(HwError::Negative {
                field: "rto_ms",
                ..
            })
        ));
        assert!(matches!(
            StochasticLink::new(spec(), 0.0, 0.0, 0.0, 0),
            Err(HwError::ZeroCapacity { .. })
        ));
        assert!(StochasticLink::new(spec(), 0.0, 0.0, 0.0, 1).is_ok());
    }

    #[test]
    fn queue_schedules_fifo_behind_backlog() {
        let mut q = LinkQueue::new(8).unwrap();
        let a = q.offer(100, 50).unwrap();
        assert_eq!(a, 150);
        // Second transfer queues behind the first even though it arrives
        // before the first departs.
        let b = q.offer(120, 50).unwrap();
        assert_eq!(b, 200);
        // After both depart, service starts at the arrival time again.
        let c = q.offer(1_000, 50).unwrap();
        assert_eq!(c, 1_050);
        assert_eq!(q.accepted(), 3);
        assert_eq!(q.rejected(), 0);
    }

    #[test]
    fn queue_rejects_beyond_capacity_and_drains() {
        let mut q = LinkQueue::new(2).unwrap();
        assert!(q.offer(0, 100).is_some());
        assert!(q.offer(0, 100).is_some());
        assert!(q.offer(0, 100).is_none());
        assert_eq!(q.rejected(), 1);
        assert_eq!(q.in_flight(0), 2);
        // First departs at 100, second at 200; at t=150 one slot is free.
        assert_eq!(q.in_flight(150), 1);
        assert!(q.offer(150, 100).is_some());
        assert_eq!(q.accepted(), 3);
    }

    #[test]
    fn zero_capacity_queue_is_rejected() {
        assert!(matches!(
            LinkQueue::new(0),
            Err(HwError::ZeroCapacity { field: "capacity" })
        ));
    }
}
