//! Fault-injection and recovery guards for the fleet simulator.
//!
//! These pin the degradation ladder end to end: a full uplink queue falls
//! back to the edge, an exhausted retry budget degrades to the little net's
//! answer, a transient cloud outage walks the breaker through
//! open → half-open → closed, a dead link surfaces as typed `LinkDown`
//! failures, and a fully faulted run still replays byte-for-byte from its
//! seed. Every run must keep `FleetMetrics::check` empty — the ledgers are
//! the contract.

use appeal_bench::fixtures::{blackout, cooperative, fleet, tight_recovery, wifi_fleet};
use appeal_hw::{FaultEvent, FaultPlan, StochasticLink};
use appeal_models::{ModelFamily, ModelSpec};
use appeal_tensor::SeededRng;
use appealnet_core::two_head::TwoHeadNet;
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{
    BreakerConfig, FleetConfig, FleetMetrics, FleetSim, GossipConfig, RecoveryConfig, RetryConfig,
};

const MS: u64 = 1_000_000;

fn trace(requests: usize, mean_gap_nanos: u64) -> TraceSpec {
    TraceSpec {
        shape: TraceShape::Uniform,
        requests,
        mean_gap_nanos,
        clients: 16,
        seed: 2021,
    }
}

fn run(config: FleetConfig, trace: &TraceSpec) -> FleetMetrics {
    fleet(config).run(trace)
}

fn checked(metrics: &FleetMetrics) {
    let violations = metrics.check();
    assert!(violations.is_empty(), "{violations:?}");
}

/// A bounded uplink queue sheds first-attempt appeals as edge fallbacks, and
/// the uplink ledger reconciles exactly against them.
#[test]
fn full_uplink_queue_falls_back_to_the_edge() {
    let mut c = wifi_fleet(
        1.0,
        FaultPlan::none(),
        Some(RecoveryConfig::default_for_appeals()),
    );
    c.link.queue_capacity = 1;
    let spec = TraceSpec {
        shape: TraceShape::Bursty { burst: 8 },
        requests: 96,
        mean_gap_nanos: MS, // 1 ms bursts against multi-ms transfers
        clients: 16,
        seed: 2021,
    };
    let m = run(c, &spec);
    checked(&m);
    assert!(
        m.link_fallbacks > 0,
        "a capacity-1 uplink under bursts must shed appeals"
    );
    assert_eq!(
        m.uplink_rejected,
        m.link_fallbacks + m.appeal_queue_full,
        "every uplink rejection is a fallback or a failed retry"
    );
    assert_eq!(m.completed, 96, "shed appeals still answer on the edge");
}

/// Under a permanent blackout with no breaker, the retry budget is the only
/// defense: every cloud-bound request burns its attempts and then degrades
/// to the little net's answer.
#[test]
fn retry_budget_exhaustion_degrades_to_the_little_net() {
    let plan = blackout(0, u64::MAX);
    let recovery = RecoveryConfig {
        appeal_deadline_ms: 20.0,
        retry: RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 2.0,
            max_backoff_ms: 10.0,
        },
        breaker: None,
    };
    let m = run(wifi_fleet(0.9, plan, Some(recovery)), &trace(192, 2 * MS));
    checked(&m);
    assert_eq!(m.cloud_answered, 0, "a blacked-out cloud answers nothing");
    assert_eq!(m.completed, 192, "no request may strand");
    assert!(m.degraded_local > 0, "exhausted retries must degrade");
    assert_eq!(m.breaker_denied, 0, "no breaker is configured");
    assert!(
        m.retries >= m.degraded_local,
        "every degraded request retried at least once: {} retries, {} degraded",
        m.retries,
        m.degraded_local
    );
    assert!(m.appeal_timeouts > 0);
    assert!(
        m.degraded_agreement.is_some(),
        "degraded answers must report their counterfactual accuracy"
    );
}

/// A transient outage walks the breaker through its whole state machine:
/// failures trip it open, the open timer admits half-open probes, and probe
/// successes against the recovered cloud close it again.
#[test]
fn breaker_cycles_open_half_open_closed_under_a_transient_outage() {
    let plan = blackout(10 * MS, 80 * MS);
    let recovery = RecoveryConfig {
        appeal_deadline_ms: 20.0,
        retry: RetryConfig {
            max_attempts: 2,
            base_backoff_ms: 2.0,
            max_backoff_ms: 10.0,
        },
        breaker: Some(BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            slow_ms: 10_000.0, // only real failures count here
            open_ms: 40.0,
            probes: 2,
        }),
    };
    let m = run(wifi_fleet(0.9, plan, Some(recovery)), &trace(384, 2 * MS));
    checked(&m);
    assert!(m.breaker_opened > 0, "the outage must trip the breaker");
    assert!(
        m.breaker_half_opened > 0,
        "the open timer must admit probes"
    );
    assert!(
        m.breaker_closed > 0,
        "probes against the recovered cloud must close the breaker"
    );
    assert!(
        m.cloud_answered > 0,
        "service must resume once the breaker closes"
    );
}

/// A dead link (loss = 1.0) is a typed, accounted failure — not a hang: the
/// recovery path sees `HwError::LinkDown`, spends its retry budget, and
/// degrades.
#[test]
fn dead_link_surfaces_typed_link_down_failures() {
    let mut c = wifi_fleet(
        0.9,
        FaultPlan::none(),
        Some(RecoveryConfig::default_for_appeals()),
    );
    c.link.loss = 1.0;
    let m = run(c, &trace(96, 2 * MS));
    checked(&m);
    assert_eq!(m.cloud_answered, 0, "nothing crosses a fully lossy link");
    assert!(m.link_down > 0, "attempts must fail as LinkDown, not hang");
    assert!(m.degraded_local > 0);
    assert_eq!(m.completed, 96);
}

/// A run scripted with every fault type at once still replays byte-for-byte
/// from its seed — fault injection must not leak nondeterminism.
#[test]
fn faulted_runs_replay_byte_identically() {
    let plan = || {
        FaultPlan::new(
            2021,
            vec![
                FaultEvent::CloudBlackout {
                    from_nanos: 30 * MS,
                    until_nanos: 60 * MS,
                },
                FaultEvent::LinkBrownout {
                    from_nanos: 20 * MS,
                    until_nanos: 120 * MS,
                    severity: 3.0,
                },
                FaultEvent::ResponseDrop {
                    from_nanos: 0,
                    until_nanos: u64::MAX,
                    probability: 0.25,
                },
                FaultEvent::ResponseCorrupt {
                    from_nanos: 0,
                    until_nanos: u64::MAX,
                    probability: 0.2,
                },
                FaultEvent::NodeCrash {
                    node: 0,
                    at_nanos: 20 * MS,
                    down_nanos: 50 * MS,
                },
            ],
        )
        .unwrap()
    };
    let spec = trace(192, 2 * MS);
    let recovery = Some(RecoveryConfig::default_for_appeals());
    let first = run(wifi_fleet(0.9, plan(), recovery), &spec);
    let second = run(wifi_fleet(0.9, plan(), recovery), &spec);
    checked(&first);
    assert!(first.faults_scripted && first.recovery_enabled);
    assert!(
        first.crash_stalls > 0,
        "the crashed node must stall arrivals"
    );
    assert_eq!(
        first.render(),
        second.render(),
        "scripted faults must stay byte-reproducible"
    );
}

fn full_blackout() -> FaultPlan {
    blackout(10 * MS, u64::MAX)
}

fn cooperative_config(faults: FaultPlan) -> FleetConfig {
    cooperative(wifi_fleet(0.9, faults, Some(tight_recovery())))
}

/// The cooperative policy must actually fire under a full blackout — gossip
/// digests flow, a quorum of unhealthy neighbours pre-emptively opens
/// breakers, fleet stress sheds appeals locally — and every new ledger must
/// reconcile exactly.
#[test]
fn cooperative_policy_fires_and_ledgers_reconcile_under_blackout() {
    let m = run(cooperative_config(full_blackout()), &trace(96, 2 * MS));
    checked(&m);
    assert!(m.gossip_sent > 0, "gossip rounds must exchange digests");
    assert_eq!(m.gossip_sent, m.gossip_received);
    assert!(m.gossip_applied > 0, "fresh digests must merge into views");
    assert!(
        m.preemptive_opens > 0,
        "a quorum of unhealthy neighbours must pre-open breakers"
    );
    assert!(
        m.stress_shed > 0,
        "fleet stress must shed appeals before they reach the breaker"
    );
    assert!(
        m.probe_elections >= m.preemptive_opens,
        "every cooperative trip runs a probe election"
    );
    assert_eq!(m.completed, 96, "no request may strand");
}

/// A cooperative fleet must beat the same fleet with gossip disabled on both
/// headline outcomes of a full blackout: SLO violations and wasted uplink
/// (accepted transfers that never produced a cloud answer).
#[test]
fn cooperative_fleet_beats_independent_under_full_blackout() {
    let spec = trace(96, 2 * MS);
    let indep = run(
        wifi_fleet(0.9, full_blackout(), Some(tight_recovery())),
        &spec,
    );
    let coop = run(cooperative_config(full_blackout()), &spec);
    checked(&indep);
    checked(&coop);
    assert!(
        coop.slo_violations < indep.slo_violations,
        "cooperative SLO violations {} must beat independent {}",
        coop.slo_violations,
        indep.slo_violations
    );
    let wasted = |m: &FleetMetrics| m.uplink_accepted - m.cloud_answered;
    assert!(
        wasted(&coop) < wasted(&indep),
        "cooperative wasted uplink {} must beat independent {}",
        wasted(&coop),
        wasted(&indep)
    );
}

/// Cooperative runs are as byte-reproducible as everything else: the gossip
/// plane draws from its own salted RNG streams, so two identical configs
/// replay identical bytes.
#[test]
fn cooperative_runs_replay_byte_identically() {
    let spec = trace(96, 2 * MS);
    let first = run(cooperative_config(full_blackout()), &spec);
    let second = run(cooperative_config(full_blackout()), &spec);
    assert_eq!(
        first.render(),
        second.render(),
        "gossip must stay byte-reproducible"
    );
}

/// Gossip without the cooperative policy observes but never acts: digests
/// flow and ledgers reconcile, while every cooperative counter stays zero.
#[test]
fn gossip_without_policy_observes_but_never_acts() {
    let mut c = wifi_fleet(0.9, full_blackout(), Some(tight_recovery()));
    c.gossip = GossipConfig::default_for_fleet();
    let m = run(c, &trace(96, 2 * MS));
    checked(&m);
    assert!(m.gossip_sent > 0);
    assert_eq!(m.stress_shed, 0);
    assert_eq!(m.preemptive_opens, 0);
    assert_eq!(m.probe_elections, 0);
}

/// Satellite regression: a retry admitted exactly at the breaker's
/// open-timer deadline *is* the half-open probe. The attempt must ledger
/// once — as a probe — and the probe ledger must reconcile; the old code
/// double-counted it as a retry plus a synthetic probe.
#[test]
fn retry_admitted_at_the_open_timer_boundary_ledgers_one_probe() {
    // open_ms == base_backoff == max_backoff: a failure that trips the
    // breaker schedules its retry for the same virtual nanosecond the open
    // timer expires, forcing the Open -> HalfOpen admission tie.
    let recovery = RecoveryConfig {
        appeal_deadline_ms: 20.0,
        retry: RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 40.0,
            max_backoff_ms: 40.0,
        },
        breaker: Some(BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            slow_ms: 10_000.0,
            open_ms: 40.0,
            probes: 1,
        }),
    };
    let plan = blackout(10 * MS, 150 * MS);
    let m = run(wifi_fleet(0.9, plan, Some(recovery)), &trace(192, 2 * MS));
    checked(&m);
    assert!(
        m.breaker_half_opened > 0,
        "the open timer must admit half-open traffic"
    );
    assert!(m.probe_attempts > 0, "probes must be admitted");
    assert!(m.retries > 0, "the retry ladder must run");
    assert_eq!(
        m.probe_attempts,
        m.probe_ok + m.probe_failed + m.probe_orphaned + m.probe_unresolved,
        "every admitted probe resolves exactly once"
    );
}

/// The chaos scenario: sixteen LTE nodes, two cloud blackouts over 20–40 %
/// and 60–70 % of the trace, the stock retry + breaker ladder (three
/// half-open probes), gossip and the cooperative policy.
fn chaos_config(seed: u64, spec: &TraceSpec) -> FleetConfig {
    let at = |share: f64| (spec.span_nanos() as f64 * share) as u64;
    let blackout = |from: f64, until: f64| FaultEvent::CloudBlackout {
        from_nanos: at(from),
        until_nanos: at(until),
    };
    let faults = FaultPlan::new(seed, vec![blackout(0.20, 0.40), blackout(0.60, 0.70)]).unwrap();
    FleetConfig {
        nodes: 16,
        link: StochasticLink::lte(),
        recovery: Some(RecoveryConfig::default_for_appeals()),
        slo_ms: 250.0,
        seed,
        ..cooperative_config(faults)
    }
}

/// Runs the chaos scenario once per seed; every run must reconcile.
fn chaos_ledgers_reconcile(seeds: impl Iterator<Item = u64>) {
    // The ledgers do not depend on what the networks compute, so these are
    // the smallest the zoo builds.
    let mut rng = SeededRng::new(2021);
    let little = ModelSpec::little(ModelFamily::MobileNetLike, [1, 8, 8], 4)
        .with_width(0.25)
        .build(&mut rng);
    let big = ModelSpec::big([1, 8, 8], 4)
        .with_width(0.25)
        .build(&mut rng);
    let net = TwoHeadNet::from_parts(little, &mut rng);
    let mut probes = 0;
    for seed in seeds {
        let spec = TraceSpec {
            seed,
            ..trace(16 * 100, 2 * MS)
        };
        let m = FleetSim::new(net.clone(), big.clone(), chaos_config(seed, &spec))
            .expect("valid config")
            .run(&spec);
        let violations = m.check();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert_eq!(m.completed, 1600, "seed {seed}: no request may strand");
        probes += m.probe_attempts;
    }
    assert!(probes > 0, "the scenario must exercise half-open probing");
}

/// Regression: a probe orphaned by a re-trip was ledgered at the trip, and
/// counted again when its answer arrived in a *later* half-open window ("N
/// probes admitted but N+1 accounted for"). These are seeds on which the
/// chaos scenario with the stock three probes did exactly that.
#[test]
fn chaos_ledgers_reconcile_on_seeds_that_double_counted_an_orphan() {
    chaos_ledgers_reconcile([5, 23, 37, 42].into_iter());
}

/// The same over 200 seeds (nine of which failed before the fix). A debug
/// build takes minutes over this; CI runs it with `--release`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "200 seeds x 1600 requests; run with --release"
)]
fn chaos_ledgers_reconcile_with_the_stock_breaker_over_200_seeds() {
    chaos_ledgers_reconcile(1..=200);
}
