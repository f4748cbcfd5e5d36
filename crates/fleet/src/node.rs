//! One simulated edge device: little net + scorer + routing policy, a
//! single-server FIFO compute queue on its own [`DeviceSpec`] clock, an
//! optional [`AdaptiveBudget`], and a bounded uplink queue.

use crate::adaptive::AdaptiveBudget;
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::health::NodeHealth;
use crate::ms_to_nanos;
use crate::recovery::CooperativeConfig;
use appeal_hw::{DeviceSpec, LinkQueue};
use appealnet_core::serve::{RoutingPolicy, Scorer};

/// Per-node accounting, reconciled against the fleet totals by
/// [`crate::FleetMetrics::check`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests routed to this node.
    pub requests: u64,
    /// Requests the little network answered (score ≥ δ).
    pub edge_answered: u64,
    /// Requests appealed to and answered by the cloud.
    pub cloud_answered: u64,
    /// Appeals shed because the uplink queue was full; answered on the edge.
    pub link_fallbacks: u64,
    /// Appeals denied by the adaptive budget; answered on the edge.
    pub budget_denied: u64,
    /// Requests that wanted the cloud but degraded to the little net's
    /// answer (breaker open or retry budget exhausted).
    pub degraded_local: u64,
    /// Appeal sends refused by an open (or probe-saturated) breaker.
    pub breaker_denied: u64,
    /// Appeal retransmissions scheduled after a failed attempt.
    pub retries: u64,
    /// Appeal attempts whose answer missed the per-attempt deadline.
    pub appeal_timeouts: u64,
    /// Appeal attempts refused by the link itself (loss 1.0 or retransmit
    /// budget exhausted → `HwError::LinkDown`).
    pub link_down: u64,
    /// *Retry* attempts shed by a full uplink queue (first-attempt sheds
    /// stay `link_fallbacks`).
    pub appeal_queue_full: u64,
    /// Appeals that reached a blacked-out cloud and vanished.
    pub blackout_drops: u64,
    /// Cloud answers dropped on the way back by a scripted fault.
    pub response_drops: u64,
    /// Cloud answers delivered corrupted by a scripted fault.
    pub response_corrupt: u64,
    /// Cloud answers that arrived after their request had already resolved
    /// (timed out and degraded, or answered by another attempt).
    pub late_responses: u64,
    /// Arrivals stalled because the node was crashed at the time.
    pub crash_stalls: u64,
    /// Virtual nanoseconds this node's compute was busy.
    pub busy_nanos: u64,
    /// Cloud-bound requests degraded locally by the cooperative stress
    /// policy before any send was attempted.
    pub stress_shed: u64,
    /// Breaker trips forced by fleet evidence (quorum of unhealthy
    /// neighbours) rather than local outcomes.
    pub preemptive_opens: u64,
    /// Staggered-probe elections held when this node's breaker tripped
    /// under the cooperative policy.
    pub probe_elections: u64,
    /// Appeals shed at the cloud's ingress backlog gate.
    pub cloud_shed: u64,
    /// Gossip messages this node pushed to peers.
    pub gossip_sent: u64,
    /// Gossip messages this node received.
    pub gossip_received: u64,
    /// Health-digest entries this node sent inside its gossip messages.
    pub gossip_entries: u64,
    /// Received digest entries that were fresher than known and applied.
    pub gossip_applied: u64,
    /// Received digest entries dropped as stale (no fresher than known).
    pub gossip_stale: u64,
    /// Cloud backpressure signals folded into this node's health view.
    pub cloud_signals: u64,
}

/// One edge node of the simulated fleet.
///
/// The node's little-net forward pass is modeled as a single-server FIFO:
/// a request arriving while the device is busy waits for every earlier
/// request to finish (`start = max(arrival, busy_until)`), which is what
/// gives each node its own `DeviceSpec` clock.
pub struct EdgeNode {
    id: usize,
    pub(crate) scorer: Box<dyn Scorer>,
    pub(crate) policy: Box<dyn RoutingPolicy>,
    pub(crate) adaptive: Option<AdaptiveBudget>,
    pub(crate) breaker: Option<CircuitBreaker>,
    pub(crate) uplink: LinkQueue,
    pub(crate) stats: NodeStats,
    pub(crate) health: Option<NodeHealth>,
    pub(crate) cooperative: Option<CooperativeConfig>,
    /// Gossip staleness horizon in nanoseconds; 0 while gossip is disabled.
    pub(crate) stale_nanos: u64,
    service_nanos: u64,
    busy_until_nanos: u64,
}

impl EdgeNode {
    /// Assembles a node. The per-request service time is the device-model
    /// latency of one little-net forward pass (floored at 1 ns so queueing
    /// stays well-ordered even for absurdly fast devices).
    pub fn new(
        id: usize,
        scorer: Box<dyn Scorer>,
        policy: Box<dyn RoutingPolicy>,
        adaptive: Option<AdaptiveBudget>,
        device: &DeviceSpec,
        uplink: LinkQueue,
    ) -> Self {
        let service_nanos = ms_to_nanos(device.latency_ms(scorer.flops())).max(1);
        Self {
            id,
            scorer,
            policy,
            adaptive,
            breaker: None,
            uplink,
            stats: NodeStats::default(),
            health: None,
            cooperative: None,
            stale_nanos: 0,
            service_nanos,
            busy_until_nanos: 0,
        }
    }

    /// Installs a circuit breaker on this node's appeal path.
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Installs the gossip health plane (and optionally the cooperative
    /// policy driving on it) on this node.
    pub fn with_health(
        mut self,
        health: NodeHealth,
        cooperative: Option<CooperativeConfig>,
        stale_nanos: u64,
    ) -> Self {
        self.health = Some(health);
        self.cooperative = cooperative;
        self.stale_nanos = stale_nanos;
        self
    }

    /// The appeal circuit breaker, if one is installed.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// This node's index in the fleet.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This node's accounting so far.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The adaptive budget controller, if one is configured.
    pub fn adaptive(&self) -> Option<&AdaptiveBudget> {
        self.adaptive.as_ref()
    }

    /// Transfers accepted by this node's uplink queue.
    pub fn uplink_accepted(&self) -> u64 {
        self.uplink.accepted()
    }

    /// Transfers rejected (queue full) by this node's uplink queue.
    pub fn uplink_rejected(&self) -> u64 {
        self.uplink.rejected()
    }

    /// The health plane state, if gossip is enabled.
    pub fn health(&self) -> Option<&NodeHealth> {
        self.health.as_ref()
    }

    /// Enqueues one request's edge pass at `arrival_nanos`; returns when the
    /// pass completes on this node's clock.
    pub(crate) fn schedule(&mut self, arrival_nanos: u64) -> u64 {
        let start = arrival_nanos.max(self.busy_until_nanos);
        let done = start.saturating_add(self.service_nanos);
        self.busy_until_nanos = done;
        self.stats.requests += 1;
        self.stats.busy_nanos += self.service_nanos;
        done
    }

    /// Records one failed appeal attempt into both controllers — the breaker
    /// (probe-tagged) and the health plane. A trip triggered here runs the
    /// staggered-probe election.
    pub(crate) fn record_appeal_failure(&mut self, now_nanos: u64, probe: Option<u64>) {
        if let Some(h) = self.health.as_mut() {
            h.record_failure();
        }
        let tripped = if let Some(b) = self.breaker.as_mut() {
            let before = b.opened();
            match probe {
                Some(generation) => b.on_probe_failure(now_nanos, generation),
                None => b.on_failure(now_nanos),
            }
            b.opened() > before
        } else {
            false
        };
        if tripped {
            self.stagger_probe(now_nanos);
        }
    }

    /// Records one successful appeal round-trip into both controllers. A
    /// slow success can still trip the breaker, which also runs the
    /// election.
    pub(crate) fn record_appeal_success(
        &mut self,
        now_nanos: u64,
        round_trip_ms: f64,
        probe: Option<u64>,
    ) {
        let mut slow = false;
        let mut tripped = false;
        if let Some(b) = self.breaker.as_mut() {
            slow = b.is_slow(round_trip_ms);
            let before = b.opened();
            match probe {
                Some(generation) => b.on_probe_success(now_nanos, round_trip_ms, generation),
                None => b.on_success(now_nanos, round_trip_ms),
            }
            tripped = b.opened() > before;
        }
        if let Some(h) = self.health.as_mut() {
            h.record_success(round_trip_ms, slow);
        }
        if tripped {
            self.stagger_probe(now_nanos);
        }
    }

    /// The staggered-probe election, run whenever this node's breaker trips
    /// under the cooperative policy: defer the half-open probe by one
    /// stagger per lower-indexed neighbour whose breaker is freshly known
    /// open, so a recovering cloud meets a trickle of probes, not a herd.
    fn stagger_probe(&mut self, now_nanos: u64) {
        let Some(coop) = self.cooperative else { return };
        let Some(h) = self.health.as_ref() else {
            return;
        };
        let rank = h
            .view
            .open_neighbours_below(self.id, now_nanos, self.stale_nanos);
        self.stats.probe_elections += 1;
        if rank > 0 && coop.probe_stagger_ms > 0.0 {
            if let Some(b) = self.breaker.as_mut() {
                b.defer_probe(ms_to_nanos(coop.probe_stagger_ms).saturating_mul(rank as u64));
            }
        }
    }

    /// Pre-emptive open check, run each gossip round: trips this node's
    /// breaker on fleet evidence when the staleness-weighted
    /// unhealthy-neighbour mass reaches quorum — unless the node's own
    /// recent appeals succeeded (fresh local evidence beats fleet hearsay).
    pub(crate) fn preemptive_check(&mut self, now_nanos: u64) {
        let Some(coop) = self.cooperative else { return };
        let Some(h) = self.health.as_ref() else {
            return;
        };
        if h.recent_successes() > 0 {
            return;
        }
        let mass = h
            .view
            .unhealthy_mass(now_nanos, self.stale_nanos, coop.unhealthy_failure_rate);
        if mass < coop.quorum {
            return;
        }
        let Some(b) = self.breaker.as_mut() else {
            return;
        };
        if b.preemptive_open(now_nanos) {
            self.stats.preemptive_opens += 1;
            self.stagger_probe(now_nanos);
        }
    }

    /// Recomputes the cached fleet-stress scalar from the current view.
    pub(crate) fn update_stress(&mut self, now_nanos: u64) {
        let Some(coop) = self.cooperative else { return };
        if let Some(h) = self.health.as_mut() {
            h.update_stress(
                now_nanos,
                self.stale_nanos,
                coop.unhealthy_failure_rate,
                coop.quorum,
                coop.cloud_backlog_target_ms,
            );
        }
    }

    /// Whether the cooperative stress policy degrades this cloud-bound
    /// request locally: under fleet stress the local-answer band widens by
    /// `delta_relief · stress`, catching borderline scores before they join
    /// a queue the fleet already knows is drowning.
    pub(crate) fn stress_sheds(&self, score: f64, delta: f64) -> bool {
        let Some(coop) = self.cooperative else {
            return false;
        };
        let Some(h) = self.health.as_ref() else {
            return false;
        };
        let relief = coop.delta_relief * h.stress();
        relief > 0.0 && score >= delta - relief
    }

    /// Folds a piggybacked cloud backpressure signal into the health view
    /// and refreshes the cached stress.
    pub(crate) fn observe_cloud_signal(
        &mut self,
        now_nanos: u64,
        signal: &crate::cloud::CloudSignal,
    ) {
        if let Some(h) = self.health.as_mut() {
            h.view.observe_cloud(signal);
            self.stats.cloud_signals += 1;
        }
        self.update_stress(now_nanos);
    }

    /// The current breaker state as a health-digest bit (non-mutating), plus
    /// whether any breaker exists at all.
    pub(crate) fn breaker_open_for_digest(&self, now_nanos: u64) -> bool {
        self.breaker
            .as_ref()
            .is_some_and(|b| b.peek_state(now_nanos) != BreakerState::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_hw::LinkQueue;
    use appeal_models::{ModelFamily, ModelSpec};
    use appeal_tensor::SeededRng;
    use appealnet_core::serve::{QScorer, ThresholdPolicy};
    use appealnet_core::TwoHeadNet;

    fn node() -> EdgeNode {
        let mut rng = SeededRng::new(5);
        let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
        let scorer = QScorer::new(TwoHeadNet::from_parts(little, &mut rng));
        EdgeNode::new(
            0,
            Box::new(scorer),
            Box::new(ThresholdPolicy::new(0.5).unwrap()),
            None,
            &DeviceSpec::mobile_soc(),
            LinkQueue::new(8).unwrap(),
        )
    }

    #[test]
    fn back_to_back_arrivals_queue_fifo() {
        let mut n = node();
        let first = n.schedule(1_000);
        assert!(first > 1_000);
        let service = first - 1_000;
        // Arrives while busy: waits for the first pass.
        let second = n.schedule(1_000);
        assert_eq!(second, first + service);
        // Arrives long after the queue drained: starts at its arrival.
        let third = n.schedule(second + 1_000_000);
        assert_eq!(third, second + 1_000_000 + service);
        assert_eq!(n.stats().requests, 3);
        assert_eq!(n.stats().busy_nanos, 3 * service);
    }
}
