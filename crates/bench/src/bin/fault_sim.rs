//! Fault-injection driver: replays scripted outages through the
//! deterministic fleet simulator and reports how the recovery machinery
//! (circuit breaker, bounded retries, graceful degradation) holds the SLO
//! and what degraded answers cost in accuracy.
//!
//! ```text
//! cargo run --release -p appeal-bench --bin fault_sim
//! APPEALNET_FIDELITY=smoke cargo run --release -p appeal-bench --bin fault_sim
//! ```
//!
//! Three experiment sections:
//!
//! - **A** — cloud outage duration × breaker on/off: every appeal sent into
//!   a blackout times out; the breaker-on fleet must trip to fail-local fast
//!   and end the run with strictly fewer SLO violations than the retry-only
//!   fleet under a full-trace outage.
//! - **B** — transient outage recovery: a mid-trace blackout ends and the
//!   fleet must resume answering from the cloud (retries bridge the gap).
//! - **C** — chaos mix: link brownout + response drop/corrupt + node crash
//!   in one run; every ledger must still reconcile exactly.
//! - **D** — cooperative vs independent degradation: the same outages with
//!   the gossip plane + fleet-stress policy on versus off. Under a full
//!   blackout the cooperative fleet must end with strictly fewer SLO
//!   violations *and* less wasted uplink (accepted transfers that never
//!   produced a cloud answer) than the independent fleet.
//!
//! Every configuration is simulated twice and the rendered metrics compared
//! byte-for-byte; any mismatch, accounting violation (`FleetMetrics::check`)
//! or missing breaker win makes the binary exit non-zero, so it doubles as a
//! CI chaos smoke test.

use appeal_bench::fidelity_from_env;
use appeal_bench::fixtures::{
    blackout, chaos_plan, cooperative, entry, finish, section, simulate, tight_recovery,
    uniform_trace as trace, wifi_fleet, NODES, SEED,
};
use appeal_dataset::Fidelity;
use appeal_hw::{FaultEvent, FaultPlan, StochasticLink};
use appealnet_fleet::{FleetConfig, FleetMetrics};

const MS: u64 = 1_000_000;

/// The fleet under test: the stock wifi fleet at δ = 0.9 with the tight
/// 40 ms / 3-attempt recovery ladder (failure detection stays inside even
/// the short outage windows), with or without the stock breaker.
fn config(faults: FaultPlan, with_breaker: bool) -> FleetConfig {
    let mut recovery = tight_recovery();
    if !with_breaker {
        recovery.breaker = None;
    }
    wifi_fleet(0.9, faults, Some(recovery))
}

/// The cooperative variant of [`config`]: same recovery ladder plus the
/// gossip plane and the fleet-stress degradation policy.
fn cooperative_config(faults: FaultPlan) -> FleetConfig {
    cooperative(config(faults, true))
}

fn main() {
    let fidelity = fidelity_from_env();
    let per_node = match fidelity {
        Fidelity::Smoke => 24,
        Fidelity::Paper => 96,
    };
    let requests = NODES * per_node;
    let mut violations = Vec::new();
    let mut text = format!(
        "AppealNet fault injection: scripted outages vs the appeal-path recovery machinery\n\
         fidelity {fidelity:?} | seed {SEED} | {NODES} nodes x {per_node} requests | \
         delta 0.90 | wifi | appeal deadline 40 ms | 3 attempts | SLO 100 ms\n\n"
    );

    // A: outage duration × breaker on/off. The blackout starts at t = 10 ms;
    // "full" outlives the entire run. Failure detection costs one 40 ms
    // appeal deadline per attempt, so the retry-only fleet burns >= 100 ms
    // per degraded request while the breaker-on fleet trips after one
    // failure window and fails local in edge time.
    section(&mut text, "A: SLO violations vs outage duration x breaker");
    let mut full_outage = Vec::new();
    for (dur_name, until_nanos) in [
        ("60ms", 10 * MS + 60 * MS),
        ("150ms", 10 * MS + 150 * MS),
        ("full", u64::MAX),
    ] {
        for breaker_on in [false, true] {
            let plan = blackout(10 * MS, until_nanos);
            let name = format!(
                "outage={dur_name} breaker={}",
                if breaker_on { "on" } else { "off" }
            );
            let cfg = config(plan, breaker_on);
            let (m, rendered) = simulate(&name, &cfg, &trace(requests), &mut violations);
            entry(&mut text, &name, &rendered);
            if dur_name == "full" {
                full_outage.push(m);
            }
        }
    }
    let (off, on) = (&full_outage[0], &full_outage[1]);
    text.push_str(&format!(
        "comparison (full outage): SLO violations {} retry-only -> {} breaker | \
         degraded {} -> {} | breaker opened {}\n\n",
        off.slo_violations,
        on.slo_violations,
        off.degraded_local,
        on.degraded_local,
        on.breaker_opened,
    ));
    if on.breaker_opened == 0 {
        violations.push("[full outage] breaker never opened".into());
    }
    if on.slo_violations >= off.slo_violations {
        violations.push(format!(
            "[full outage] breaker-on SLO violations {} did not beat retry-only {}",
            on.slo_violations, off.slo_violations
        ));
    }
    if off.degraded_local == 0 || on.degraded_local == 0 {
        violations.push("[full outage] no graceful degradation recorded".into());
    }

    // B: transient outage recovery. The blackout ends mid-trace; retries
    // scheduled during it land after it, so the cloud must answer again and
    // the run must record real retry traffic.
    section(
        &mut text,
        "B: recovery after a transient outage (60 ms, breaker on)",
    );
    let (m, rendered) = simulate(
        "transient outage",
        &config(blackout(10 * MS, 70 * MS), true),
        &trace(requests),
        &mut violations,
    );
    entry(&mut text, "transient outage", &rendered);
    if m.cloud_answered == 0 {
        violations.push("[transient] cloud never resumed answering".into());
    }
    if m.retries == 0 {
        violations.push("[transient] no retries were attempted across the outage".into());
    }
    text.push('\n');

    // C: chaos mix — a brownout stretching transfers 3x, lossy and
    // corrupting return paths over the whole run, and node 0 crashed for
    // 50 ms. The point is the ledger: simulate() reconciles every counter
    // via FleetMetrics::check and byte-compares the replay.
    section(
        &mut text,
        "C: chaos mix (brownout + drops + corruption + crash)",
    );
    let (m, rendered) = simulate(
        "chaos",
        &config(chaos_plan(), true),
        &trace(requests),
        &mut violations,
    );
    entry(&mut text, "chaos", &rendered);
    if m.crash_stalls == 0 {
        violations.push("[chaos] the crashed node stalled no arrivals".into());
    }
    if m.response_drops + m.response_corrupt == 0 {
        violations.push("[chaos] no response-path fault ever fired".into());
    }
    text.push('\n');

    // D: cooperative vs independent degradation. Same outage scripts, same
    // recovery ladder; the cooperative fleet adds the gossip plane and the
    // fleet-stress policy. "Wasted uplink" = accepted transfers that never
    // became a cloud answer — exactly the traffic a pre-emptive open or a
    // stress shed would have kept off the link.
    section(
        &mut text,
        "D: cooperative vs independent degradation (gossip + fleet stress)",
    );
    let blackout_full = || blackout(10 * MS, u64::MAX);
    let brownout = || {
        FaultPlan::new(
            SEED,
            vec![FaultEvent::LinkBrownout {
                from_nanos: 10 * MS,
                until_nanos: u64::MAX,
                severity: 4.0,
            }],
        )
        .expect("valid plan")
    };
    let flapping = || {
        FaultPlan::new(
            SEED,
            (0..4)
                .map(|i| FaultEvent::CloudBlackout {
                    from_nanos: (10 + 50 * i) * MS,
                    until_nanos: (40 + 50 * i) * MS,
                })
                .collect(),
        )
        .expect("valid plan")
    };
    let wasted = |m: &FleetMetrics| m.uplink_accepted - m.cloud_answered;
    let mut blackout_pair = Vec::new();
    for (scenario, plan) in [
        ("blackout", blackout_full as fn() -> FaultPlan),
        ("brownout", brownout),
        ("flapping", flapping),
    ] {
        for cooperative in [false, true] {
            let name = format!(
                "{scenario} policy={}",
                if cooperative {
                    "cooperative"
                } else {
                    "independent"
                }
            );
            let cfg = if cooperative {
                cooperative_config(plan())
            } else {
                config(plan(), true)
            };
            let (m, rendered) = simulate(&name, &cfg, &trace(requests), &mut violations);
            entry(&mut text, &name, &rendered);
            if scenario == "blackout" {
                blackout_pair.push(m);
            }
        }
    }
    let (indep, coop) = (&blackout_pair[0], &blackout_pair[1]);
    text.push_str(&format!(
        "comparison (full blackout): SLO violations {} independent -> {} cooperative | \
         wasted uplink {} -> {} | preemptive opens {} | stress shed {}\n",
        indep.slo_violations,
        coop.slo_violations,
        wasted(indep),
        wasted(coop),
        coop.preemptive_opens,
        coop.stress_shed,
    ));
    if coop.slo_violations >= indep.slo_violations {
        violations.push(format!(
            "[cooperative blackout] SLO violations {} did not beat independent {}",
            coop.slo_violations, indep.slo_violations
        ));
    }
    if wasted(coop) >= wasted(indep) {
        violations.push(format!(
            "[cooperative blackout] wasted uplink {} did not beat independent {}",
            wasted(coop),
            wasted(indep)
        ));
    }
    if coop.gossip_sent == 0 || coop.gossip_applied == 0 {
        violations.push("[cooperative blackout] gossip never exchanged a digest".into());
    }
    // Mixed per-node links: half the fleet on wifi, half on lte, cooperative
    // policy on. Exercises link heterogeneity end to end; the ledger checks
    // in simulate() are the assertion.
    let mixed = FleetConfig {
        node_links: Some(
            (0..NODES)
                .map(|i| {
                    if i % 2 == 0 {
                        StochasticLink::wifi()
                    } else {
                        StochasticLink::lte()
                    }
                })
                .collect(),
        ),
        ..cooperative_config(blackout_full())
    };
    let (_, rendered) = simulate(
        "blackout mixed-links cooperative",
        &mixed,
        &trace(requests),
        &mut violations,
    );
    entry(&mut text, "blackout mixed-links cooperative", &rendered);
    text.push('\n');

    finish(
        "fault_sim",
        text,
        "accounting, determinism and recovery",
        &violations,
    );
}
