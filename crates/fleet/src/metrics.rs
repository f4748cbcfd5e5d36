//! Fleet-level metrics: latency percentiles, skipping/appeal rates, cloud
//! load in GPU-equivalents, SLO violations, and self-checkable accounting
//! invariants.
//!
//! [`FleetMetrics::render`] produces a stable, fully deterministic text
//! block — the unit of the byte-reproducibility guarantee: two simulations
//! with the same seed must render identical bytes.

use std::fmt::Write as _;

/// Per-node roll-up included in [`FleetMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// Node index.
    pub id: usize,
    /// Requests routed to the node.
    pub requests: u64,
    /// Requests answered by the little network.
    pub edge_answered: u64,
    /// Requests answered by the cloud.
    pub cloud_answered: u64,
    /// Appeals shed by a full uplink queue.
    pub link_fallbacks: u64,
    /// Appeals denied by the adaptive budget.
    pub budget_denied: u64,
    /// Requests degraded to the little net's answer (breaker open or retry
    /// budget exhausted).
    pub degraded_local: u64,
    /// Appeal sends refused by the node's breaker.
    pub breaker_denied: u64,
    /// Appeal retransmissions scheduled.
    pub retries: u64,
    /// Appeals shed locally because fleet stress raised the effective δ.
    pub stress_shed: u64,
    /// Breaker trips forced pre-emptively by a quorum of unhealthy peers.
    pub preemptive_opens: u64,
    /// Node compute busy time, in milliseconds.
    pub busy_ms: f64,
    /// Final adaptive per-window budget, if the node ran one.
    pub final_budget_ms: Option<f64>,
    /// Times the adaptive controller tightened.
    pub tightenings: u64,
}

/// Metrics over one phase of the trace (pre- or post-degradation), split by
/// request *arrival* time.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// Requests arriving in the phase.
    pub requests: u64,
    /// Of those, answered by the cloud.
    pub cloud_answered: u64,
    /// Cloud-answered fraction of the phase's requests.
    pub appeal_rate: f64,
    /// Median end-to-end latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, in milliseconds.
    pub p99_ms: f64,
}

/// Everything one simulation run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests that completed (must equal `requests`).
    pub completed: u64,
    /// Answered by the little network (score ≥ δ).
    pub edge_answered: u64,
    /// Answered by the cloud.
    pub cloud_answered: u64,
    /// Appeals shed by full uplink queues; answered on the edge.
    pub link_fallbacks: u64,
    /// Appeals denied by adaptive budgets; answered on the edge.
    pub budget_denied: u64,
    /// Requests that wanted the cloud but accepted the little net's answer
    /// after the recovery ladder ran out (breaker open or retries spent).
    pub degraded_local: u64,
    /// Appeal sends refused by open (or probe-saturated) breakers.
    pub breaker_denied: u64,
    /// Appeal retransmissions scheduled after failed attempts.
    pub retries: u64,
    /// Appeals shed locally because fleet stress raised the effective δ.
    pub stress_shed: u64,
    /// Appeal attempts whose answer missed the per-attempt deadline.
    pub appeal_timeouts: u64,
    /// Appeal attempts refused by the link itself (`HwError::LinkDown`).
    pub link_down: u64,
    /// Retry attempts shed by full uplink queues (first-attempt sheds count
    /// as `link_fallbacks`).
    pub appeal_queue_full: u64,
    /// Appeals that reached a blacked-out cloud and vanished.
    pub blackout_drops: u64,
    /// Cloud answers dropped on the way back by scripted faults.
    pub response_drops: u64,
    /// Cloud answers delivered corrupted by scripted faults.
    pub response_corrupt: u64,
    /// Cloud answers that arrived after their request had already resolved.
    pub late_responses: u64,
    /// Arrivals stalled on a crashed node.
    pub crash_stalls: u64,
    /// Times any node's breaker tripped open.
    pub breaker_opened: u64,
    /// Times any node's breaker entered half-open probing.
    pub breaker_half_opened: u64,
    /// Times any node's breaker closed again after probing.
    pub breaker_closed: u64,
    /// Breaker trips forced pre-emptively by a quorum of unhealthy peers.
    pub preemptive_opens: u64,
    /// Staggered half-open probe elections run after breaker trips.
    pub probe_elections: u64,
    /// Half-open probe attempts admitted across all breakers.
    pub probe_attempts: u64,
    /// Probes that resolved successfully.
    pub probe_ok: u64,
    /// Probes that resolved as failures (re-tripping the breaker).
    pub probe_failed: u64,
    /// Probes orphaned by a state change while still in flight.
    pub probe_orphaned: u64,
    /// Probes still unresolved when the run ended.
    pub probe_unresolved: u64,
    /// Appeals shed at cloud ingress by the backlog gate.
    pub cloud_shed: u64,
    /// Cloud backpressure signals folded into node health views.
    pub cloud_signals: u64,
    /// Gossip messages pushed (each lands on exactly one peer).
    pub gossip_sent: u64,
    /// Gossip messages received.
    pub gossip_received: u64,
    /// Health digests carried inside gossip messages.
    pub gossip_entries: u64,
    /// Digests merged into a receiver's view (strictly fresher).
    pub gossip_applied: u64,
    /// Digests dropped as stale or already known.
    pub gossip_stale: u64,
    /// Of the degraded answers, the fraction where the little net agreed
    /// with what the big net *would* have answered (the counterfactual
    /// accuracy of graceful degradation). `None` when nothing degraded.
    pub degraded_agreement: Option<f64>,
    /// Whether the run had a recovery policy installed (controls the
    /// recovery/fault render lines so legacy runs render byte-identically).
    pub recovery_enabled: bool,
    /// Whether the run scripted any fault plan.
    pub faults_scripted: bool,
    /// Whether the run exchanged gossip (controls the gossip render line so
    /// disabled-gossip runs render byte-identically to their ancestors).
    pub gossip_enabled: bool,
    /// Whether the cooperative degradation policy was installed.
    pub cooperative_enabled: bool,
    /// Whether the cloud ran a backlog shed gate.
    pub cloud_shed_enabled: bool,
    /// Transfers accepted across all uplink queues.
    pub uplink_accepted: u64,
    /// Transfers rejected across all uplink queues.
    pub uplink_rejected: u64,
    /// Median end-to-end latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, in milliseconds.
    pub p99_ms: f64,
    /// Maximum end-to-end latency, in milliseconds.
    pub max_ms: f64,
    /// Mean end-to-end latency, in milliseconds.
    pub mean_ms: f64,
    /// The latency SLO the run was checked against, in milliseconds.
    pub slo_ms: f64,
    /// Completions whose latency exceeded the SLO.
    pub slo_violations: u64,
    /// Fraction of requests answered on the edge (the paper's Eq. 11 SR at
    /// fleet level; budget denials and link fallbacks count as edge).
    pub skipping_rate: f64,
    /// Fraction of requests answered by the cloud.
    pub appeal_rate: f64,
    /// Virtual span from first arrival to last completion, in milliseconds.
    pub span_ms: f64,
    /// Cloud GPU busy time, in milliseconds.
    pub cloud_busy_ms: f64,
    /// Cloud busy time over span: how many GPU-equivalents this fleet keeps
    /// busy.
    pub cloud_load: f64,
    /// Batches the cloud flushed.
    pub cloud_batches: u64,
    /// Mean appeals per flushed batch.
    pub mean_batch: f64,
    /// FNV-1a digest of every answered label in request order: ties the
    /// byte-reproducibility guarantee to the models' actual answers, not
    /// just the timing.
    pub labels_digest: u64,
    /// Per-node roll-ups, in node order.
    pub nodes: Vec<NodeSummary>,
    /// Metrics for arrivals before the degradation point, if one was set.
    pub pre_degrade: Option<PhaseMetrics>,
    /// Metrics for arrivals at or after the degradation point.
    pub post_degrade: Option<PhaseMetrics>,
}

/// Percentile over a sorted slice: nearest rank by rounding
/// `(len - 1) * p`.
pub fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

impl FleetMetrics {
    /// Renders the run as a stable text block (the byte-reproducibility
    /// unit).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "requests {} | completed {} | edge {} | cloud {} | fallback {} | denied {}",
            self.requests,
            self.completed,
            self.edge_answered,
            self.cloud_answered,
            self.link_fallbacks,
            self.budget_denied
        );
        if self.recovery_enabled {
            let agreement = match self.degraded_agreement {
                Some(a) => format!("{:.1}%", 100.0 * a),
                None => "n/a".to_string(),
            };
            let _ = writeln!(
                s,
                "recovery: degraded {} (breaker denied {}, retries {}) | degraded agreement {}",
                self.degraded_local, self.breaker_denied, self.retries, agreement
            );
            let _ = writeln!(
                s,
                "breaker: opened {} | half-open {} | closed {}",
                self.breaker_opened, self.breaker_half_opened, self.breaker_closed
            );
        }
        if self.gossip_enabled {
            let _ = writeln!(
                s,
                "gossip: sent {} | received {} | entries {} (applied {}, stale {}) | cloud signals {}",
                self.gossip_sent,
                self.gossip_received,
                self.gossip_entries,
                self.gossip_applied,
                self.gossip_stale,
                self.cloud_signals
            );
        }
        if self.cooperative_enabled {
            let _ = writeln!(
                s,
                "cooperative: stress shed {} | preemptive opens {} | probe elections {} | probes {} (ok {}, failed {}, orphaned {})",
                self.stress_shed,
                self.preemptive_opens,
                self.probe_elections,
                self.probe_attempts,
                self.probe_ok,
                self.probe_failed,
                self.probe_orphaned
            );
        }
        if self.cloud_shed_enabled {
            let _ = writeln!(s, "backpressure: cloud shed {}", self.cloud_shed);
        }
        if self.faults_scripted {
            let _ = writeln!(
                s,
                "faults: timeouts {} | link down {} | queue full {} | blackout drops {} | response drops {} | corrupt {} | late {} | crash stalls {}",
                self.appeal_timeouts,
                self.link_down,
                self.appeal_queue_full,
                self.blackout_drops,
                self.response_drops,
                self.response_corrupt,
                self.late_responses,
                self.crash_stalls
            );
        }
        let _ = writeln!(
            s,
            "latency p50 {:.3} ms | p99 {:.3} ms | max {:.3} ms | mean {:.3} ms",
            self.p50_ms, self.p99_ms, self.max_ms, self.mean_ms
        );
        let _ = writeln!(
            s,
            "skipping rate {:.1}% | appeal rate {:.1}% | slo {:.1} ms | violations {} ({:.1}%)",
            100.0 * self.skipping_rate,
            100.0 * self.appeal_rate,
            self.slo_ms,
            self.slo_violations,
            100.0 * self.slo_violations as f64 / self.completed.max(1) as f64
        );
        let _ = writeln!(
            s,
            "cloud busy {:.3} ms over {:.3} ms span | load {:.4} GPU-equiv | {} batches | mean batch {:.2}",
            self.cloud_busy_ms, self.span_ms, self.cloud_load, self.cloud_batches, self.mean_batch
        );
        let _ = writeln!(
            s,
            "uplink accepted {} | rejected {} | labels digest {:016x}",
            self.uplink_accepted, self.uplink_rejected, self.labels_digest
        );
        if self.nodes.iter().any(|n| n.final_budget_ms.is_some()) {
            let tightenings: u64 = self.nodes.iter().map(|n| n.tightenings).sum();
            let budgets: Vec<String> = self
                .nodes
                .iter()
                .filter_map(|n| n.final_budget_ms.map(|b| format!("{b:.1}")))
                .collect();
            let _ = writeln!(
                s,
                "adaptive: {} tightenings | final window budgets [{}] ms",
                tightenings,
                budgets.join(", ")
            );
        }
        for (name, phase) in [
            ("pre-degrade", &self.pre_degrade),
            ("post-degrade", &self.post_degrade),
        ] {
            if let Some(p) = phase {
                let _ = writeln!(
                    s,
                    "{name}: {} requests | cloud {} | appeal rate {:.1}% | p50 {:.3} ms | p99 {:.3} ms",
                    p.requests,
                    p.cloud_answered,
                    100.0 * p.appeal_rate,
                    p.p50_ms,
                    p.p99_ms
                );
            }
        }
        s
    }

    /// Accounting invariants that must hold after any run; violations are
    /// simulator bugs, not workload properties. Returns human-readable
    /// descriptions of every violated invariant (empty = all good).
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                violations.push(what);
            }
        };
        check(
            self.completed == self.requests,
            format!("{} of {} requests completed", self.completed, self.requests),
        );
        let routed = self.edge_answered
            + self.cloud_answered
            + self.link_fallbacks
            + self.budget_denied
            + self.degraded_local;
        check(
            routed == self.completed,
            format!("route counts sum to {routed}, not {}", self.completed),
        );
        let node_stress: u64 = self.nodes.iter().map(|n| n.stress_shed).sum();
        check(
            node_stress == self.stress_shed,
            format!(
                "per-node stress sheds sum to {node_stress}, not {}",
                self.stress_shed
            ),
        );
        let node_preemptive: u64 = self.nodes.iter().map(|n| n.preemptive_opens).sum();
        check(
            node_preemptive == self.preemptive_opens,
            format!(
                "per-node preemptive opens sum to {node_preemptive}, not {}",
                self.preemptive_opens
            ),
        );
        let node_requests: u64 = self.nodes.iter().map(|n| n.requests).sum();
        check(
            node_requests == self.requests,
            format!(
                "per-node requests sum to {node_requests}, not {}",
                self.requests
            ),
        );
        for n in &self.nodes {
            let node_routed = n.edge_answered
                + n.cloud_answered
                + n.link_fallbacks
                + n.budget_denied
                + n.degraded_local;
            check(
                node_routed == n.requests,
                format!(
                    "node {} route counts sum to {node_routed}, not {}",
                    n.id, n.requests
                ),
            );
        }
        // Every accepted uplink transfer ends exactly one way: answered,
        // eaten by a scripted cloud-side fault, shed at cloud ingress, or
        // delivered too late.
        let accepted_accounted = self.cloud_answered
            + self.blackout_drops
            + self.cloud_shed
            + self.response_drops
            + self.response_corrupt
            + self.late_responses;
        check(
            self.uplink_accepted == accepted_accounted,
            format!(
                "uplink accepted {} transfers but {accepted_accounted} accounted for",
                self.uplink_accepted
            ),
        );
        check(
            self.uplink_rejected == self.link_fallbacks + self.appeal_queue_full,
            format!(
                "uplink rejected {} transfers but {} fallbacks + {} retry sheds recorded",
                self.uplink_rejected, self.link_fallbacks, self.appeal_queue_full
            ),
        );
        // Degradation ladder: every edge-observed attempt failure either
        // bought a retry or degraded the request, and every breaker denial
        // degraded it outright.
        let attempt_failures =
            self.appeal_timeouts + self.link_down + self.appeal_queue_full + self.response_corrupt;
        check(
            self.degraded_local
                == self.breaker_denied + self.stress_shed + attempt_failures
                    - self.retries.min(attempt_failures)
                && self.retries <= attempt_failures,
            format!(
                "degraded {} != breaker denied {} + stress shed {} + failures {attempt_failures} - retries {}",
                self.degraded_local, self.breaker_denied, self.stress_shed, self.retries
            ),
        );
        check(
            self.breaker_closed <= self.breaker_half_opened
                && self.breaker_half_opened <= self.breaker_opened,
            format!(
                "breaker transitions out of order: opened {} half-open {} closed {}",
                self.breaker_opened, self.breaker_half_opened, self.breaker_closed
            ),
        );
        check(
            self.degraded_agreement.is_some() == (self.degraded_local > 0),
            "degraded agreement must be present iff something degraded".to_string(),
        );
        // Half-open probe ledger: every admitted probe resolves exactly one
        // way — success, failure, orphaned by a state change, or still in
        // flight when the run ended.
        let probes_accounted =
            self.probe_ok + self.probe_failed + self.probe_orphaned + self.probe_unresolved;
        check(
            self.probe_attempts == probes_accounted,
            format!(
                "{} probes admitted but {probes_accounted} accounted for (ok {} failed {} orphaned {} unresolved {})",
                self.probe_attempts,
                self.probe_ok,
                self.probe_failed,
                self.probe_orphaned,
                self.probe_unresolved
            ),
        );
        // Gossip ledger: every pushed message lands on exactly one peer, and
        // every carried digest is either applied or dropped as stale.
        check(
            self.gossip_sent == self.gossip_received,
            format!(
                "gossip sent {} != received {}",
                self.gossip_sent, self.gossip_received
            ),
        );
        check(
            self.gossip_entries == self.gossip_applied + self.gossip_stale,
            format!(
                "gossip entries {} != applied {} + stale {}",
                self.gossip_entries, self.gossip_applied, self.gossip_stale
            ),
        );
        check(
            self.preemptive_opens <= self.breaker_opened,
            format!(
                "{} preemptive opens exceed {} breaker trips",
                self.preemptive_opens, self.breaker_opened
            ),
        );
        if !self.gossip_enabled {
            check(
                self.gossip_sent == 0
                    && self.gossip_received == 0
                    && self.gossip_entries == 0
                    && self.gossip_applied == 0
                    && self.gossip_stale == 0
                    && self.cloud_signals == 0,
                "gossip counters must be zero when gossip is disabled".to_string(),
            );
        }
        if !self.cooperative_enabled {
            check(
                self.stress_shed == 0 && self.preemptive_opens == 0 && self.probe_elections == 0,
                "cooperative counters must be zero without the policy".to_string(),
            );
        }
        if !self.cloud_shed_enabled {
            check(
                self.cloud_shed == 0,
                "cloud shed must be zero without a backlog gate".to_string(),
            );
        }
        check(
            (self.skipping_rate + self.appeal_rate - 1.0).abs() < 1e-9 || self.completed == 0,
            format!(
                "skipping rate {} + appeal rate {} != 1",
                self.skipping_rate, self.appeal_rate
            ),
        );
        check(
            self.requests == 0 || self.span_ms > 0.0,
            "span must be positive".to_string(),
        );
        check(
            self.p99_ms >= self.p50_ms && self.max_ms >= self.p99_ms,
            format!(
                "latency percentiles out of order: p50 {} p99 {} max {}",
                self.p50_ms, self.p99_ms, self.max_ms
            ),
        );
        check(
            self.slo_violations <= self.completed,
            format!(
                "{} SLO violations exceed {} completions",
                self.slo_violations, self.completed
            ),
        );
        check(
            self.cloud_load >= 0.0 && self.cloud_busy_ms >= 0.0,
            "cloud load must be non-negative".to_string(),
        );
        if let (Some(pre), Some(post)) = (&self.pre_degrade, &self.post_degrade) {
            check(
                pre.requests + post.requests == self.requests,
                format!(
                    "phase requests {} + {} != {}",
                    pre.requests, post.requests, self.requests
                ),
            );
            check(
                pre.cloud_answered + post.cloud_answered == self.cloud_answered,
                format!(
                    "phase cloud counts {} + {} != {}",
                    pre.cloud_answered, post.cloud_answered, self.cloud_answered
                ),
            );
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_by_rounding() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    fn consistent() -> FleetMetrics {
        FleetMetrics {
            requests: 10,
            completed: 10,
            edge_answered: 6,
            cloud_answered: 2,
            link_fallbacks: 1,
            budget_denied: 1,
            degraded_local: 0,
            breaker_denied: 0,
            retries: 0,
            stress_shed: 0,
            appeal_timeouts: 0,
            link_down: 0,
            appeal_queue_full: 0,
            blackout_drops: 0,
            response_drops: 0,
            response_corrupt: 0,
            late_responses: 0,
            crash_stalls: 0,
            breaker_opened: 0,
            breaker_half_opened: 0,
            breaker_closed: 0,
            preemptive_opens: 0,
            probe_elections: 0,
            probe_attempts: 0,
            probe_ok: 0,
            probe_failed: 0,
            probe_orphaned: 0,
            probe_unresolved: 0,
            cloud_shed: 0,
            cloud_signals: 0,
            gossip_sent: 0,
            gossip_received: 0,
            gossip_entries: 0,
            gossip_applied: 0,
            gossip_stale: 0,
            degraded_agreement: None,
            recovery_enabled: false,
            faults_scripted: false,
            gossip_enabled: false,
            cooperative_enabled: false,
            cloud_shed_enabled: false,
            uplink_accepted: 2,
            uplink_rejected: 1,
            p50_ms: 1.0,
            p99_ms: 5.0,
            max_ms: 6.0,
            mean_ms: 2.0,
            slo_ms: 10.0,
            slo_violations: 0,
            skipping_rate: 0.8,
            appeal_rate: 0.2,
            span_ms: 100.0,
            cloud_busy_ms: 4.0,
            cloud_load: 0.04,
            cloud_batches: 1,
            mean_batch: 2.0,
            labels_digest: 0xdead_beef,
            nodes: vec![NodeSummary {
                id: 0,
                requests: 10,
                edge_answered: 6,
                cloud_answered: 2,
                link_fallbacks: 1,
                budget_denied: 1,
                degraded_local: 0,
                breaker_denied: 0,
                retries: 0,
                stress_shed: 0,
                preemptive_opens: 0,
                busy_ms: 1.0,
                final_budget_ms: None,
                tightenings: 0,
            }],
            pre_degrade: None,
            post_degrade: None,
        }
    }

    #[test]
    fn consistent_metrics_pass_all_checks() {
        assert!(consistent().check().is_empty());
    }

    #[test]
    fn broken_ledgers_are_reported() {
        let mut m = consistent();
        m.cloud_answered = 3; // breaks route sum, node ledger and uplink match
        let violations = m.check();
        assert!(violations.len() >= 2, "{violations:?}");

        let mut m = consistent();
        m.completed = 9;
        assert!(!m.check().is_empty());

        let mut m = consistent();
        m.uplink_rejected = 5;
        assert!(m.check().iter().any(|v| v.contains("rejected")));
    }

    #[test]
    fn probe_ledger_must_reconcile() {
        let mut m = consistent();
        m.probe_attempts = 3;
        m.probe_ok = 1;
        m.probe_failed = 1;
        assert!(m.check().iter().any(|v| v.contains("probes admitted")));
        m.probe_orphaned = 1;
        assert!(m.check().is_empty(), "{:?}", m.check());
    }

    #[test]
    fn gossip_and_cooperative_counters_need_their_flags() {
        let mut m = consistent();
        m.gossip_sent = 2;
        m.gossip_received = 2;
        m.gossip_entries = 4;
        m.gossip_applied = 3;
        m.gossip_stale = 1;
        assert!(m.check().iter().any(|v| v.contains("gossip counters")));
        m.gossip_enabled = true;
        assert!(m.check().is_empty(), "{:?}", m.check());

        m.gossip_received = 1;
        assert!(m.check().iter().any(|v| v.contains("gossip sent")));
        m.gossip_received = 2;
        m.gossip_stale = 0;
        assert!(m.check().iter().any(|v| v.contains("gossip entries")));

        let mut m = consistent();
        m.stress_shed = 1;
        assert!(m.check().iter().any(|v| v.contains("cooperative counters")));
        let mut m = consistent();
        m.cloud_shed = 1;
        assert!(m.check().iter().any(|v| v.contains("cloud shed")));
        let mut m = consistent();
        m.preemptive_opens = 1;
        m.cooperative_enabled = true;
        assert!(m.check().iter().any(|v| v.contains("preemptive opens")));
    }

    #[test]
    fn new_render_lines_are_gated_on_their_flags() {
        let m = consistent();
        let plain = m.render();
        assert!(!plain.contains("gossip:"));
        assert!(!plain.contains("cooperative:"));
        assert!(!plain.contains("backpressure:"));

        let mut on = consistent();
        on.gossip_enabled = true;
        on.cooperative_enabled = true;
        on.cloud_shed_enabled = true;
        let rendered = on.render();
        assert!(rendered.contains("gossip: sent 0"));
        assert!(rendered.contains("cooperative: stress shed 0"));
        assert!(rendered.contains("backpressure: cloud shed 0"));
    }

    #[test]
    fn render_is_deterministic_and_mentions_key_metrics() {
        let m = consistent();
        let a = m.render();
        assert_eq!(a, m.render());
        assert!(a.contains("skipping rate 80.0%"));
        assert!(a.contains("GPU-equiv"));
        assert!(a.contains("labels digest 00000000deadbeef"));
        assert!(!a.contains("adaptive:"), "no adaptive line without budgets");
        let mut with_budget = m;
        with_budget.nodes[0].final_budget_ms = Some(42.0);
        assert!(with_budget.render().contains("adaptive:"));
    }
}
