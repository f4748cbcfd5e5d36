//! Fleet simulation driver: replays synthetic traces through the
//! deterministic two-tier simulator (`appealnet_fleet`) and reports the
//! fleet-level curves the single-device experiments cannot see.
//!
//! ```text
//! cargo run --release -p appeal-bench --bin fleet_sim
//! APPEALNET_FIDELITY=smoke cargo run --release -p appeal-bench --bin fleet_sim
//! ```
//!
//! Four experiment sections:
//!
//! - **A** — end-to-end p50/p99 latency versus the skipping rate (Eq. 11),
//!   sweeping the routing threshold δ over two link presets (wifi, lte).
//! - **B** — cloud GPU load (GPU-equivalents) versus fleet size: how many
//!   edge nodes one batching cloud absorbs on each link.
//! - **C** — SLO violation rate under bursty spikes on the slow link.
//! - **D** — adaptive per-node offload budget versus a static fleet when the
//!   link degrades mid-trace: the controller should tighten and pull the
//!   post-degradation appeal rate down.
//!
//! Every configuration is simulated twice and the rendered metrics compared
//! byte-for-byte; any mismatch, accounting-invariant violation
//! (`FleetMetrics::check`) or missing adaptive win makes the binary exit
//! non-zero, so it doubles as a CI smoke test of the simulator.

use appeal_bench::fidelity_from_env;
use appeal_bench::fixtures::{
    entry, finish, fleet, section, simulate, uniform_trace, MEAN_GAP_NANOS, SEED,
};
use appeal_dataset::Fidelity;
use appeal_hw::StochasticLink;
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{AdaptiveConfig, Degradation, FleetConfig};

fn main() {
    let fidelity = fidelity_from_env();
    let per_node = match fidelity {
        Fidelity::Smoke => 24,
        Fidelity::Paper => 96,
    };
    let mut violations = Vec::new();
    let mut text = format!(
        "AppealNet fleet simulation: deterministic two-tier edge/cloud over a stochastic link\n\
         fidelity {fidelity:?} | seed {SEED} | {per_node} requests/node | edge mobile_soc | \
         cloud cloud_gpu | max_batch 8 | deadline 2.0 ms\n\n"
    );

    // A: latency vs skipping rate. δ sweeps the appeal boundary (Eq. 1);
    // the link preset sets what each appeal costs end-to-end. The untrained
    // predictor's scores cluster high, so the sweep sits in [0.7, 0.95] to
    // actually move the skipping rate.
    section(&mut text, "A: latency vs skipping rate (8 nodes, uniform)");
    let trace8 = uniform_trace(8 * per_node);
    for (link_name, link) in [
        ("wifi", StochasticLink::wifi()),
        ("lte", StochasticLink::lte()),
    ] {
        for delta in [0.7, 0.85, 0.95] {
            let name = format!("{link_name} delta={delta:.2}");
            let config = FleetConfig::baseline(8, delta, link.clone(), SEED);
            let (_, rendered) = simulate(&name, &config, &trace8, &mut violations);
            entry(&mut text, &name, &rendered);
        }
    }
    text.push('\n');

    // B: cloud load vs fleet size at a fixed δ: per-node traffic is held
    // constant, so doubling the fleet doubles offered appeals.
    section(&mut text, "B: cloud GPU load vs fleet size (delta=0.9)");
    for (link_name, link) in [
        ("wifi", StochasticLink::wifi()),
        ("lte", StochasticLink::lte()),
    ] {
        for nodes in [4usize, 16] {
            let name = format!("{link_name} nodes={nodes}");
            let config = FleetConfig::baseline(nodes, 0.9, link.clone(), SEED);
            let trace = uniform_trace(nodes * per_node);
            let (_, rendered) = simulate(&name, &config, &trace, &mut violations);
            entry(&mut text, &name, &rendered);
        }
    }
    text.push('\n');

    // C: SLO violations under bursty spikes on the slow link. Bursts pile
    // onto the per-node compute FIFOs and the uplink queues at once.
    section(
        &mut text,
        "C: SLO under bursty spikes (lte, 8 nodes, delta=0.9)",
    );
    let spike_config = FleetConfig {
        slo_ms: 75.0,
        ..FleetConfig::baseline(8, 0.9, StochasticLink::lte(), SEED)
    };
    let spike_trace = TraceSpec {
        shape: TraceShape::Bursty { burst: 8 },
        ..uniform_trace(8 * per_node)
    };
    let (_, rendered) = simulate("bursty lte", &spike_config, &spike_trace, &mut violations);
    entry(&mut text, "bursty lte", &rendered);
    text.push('\n');

    // D: adaptive offload budget vs a static fleet through a mid-trace link
    // degradation. δ = 1.0 so every request wants the cloud; the adaptive
    // controller must notice the degraded round-trips and force appeals
    // back onto the edge.
    section(
        &mut text,
        "D: adaptive offload budget under link degradation (lte, 4 nodes, delta=1.0)",
    );
    // The controller only reacts when completions are *observed* between
    // window rolls, so this section runs a longer trace at a gentler arrival
    // rate: node inter-arrival ~32 ms against degraded round-trips of a few
    // hundred ms leaves plenty of trace for the feedback loop to bite.
    let requests = 16 * per_node;
    let degrade_gap_nanos = 4 * MEAN_GAP_NANOS;
    let degrade = Degradation {
        // A third of the way through the trace's expected span.
        after_nanos: requests as u64 * degrade_gap_nanos / 3,
        severity: 4.0,
    };
    let static_config = FleetConfig {
        degrade: Some(degrade),
        ..FleetConfig::baseline(4, 1.0, StochasticLink::lte(), SEED)
    };
    // Scale the controller off the *estimated* appeal cost (Eq. 5 c0) so the
    // experiment tracks the link preset instead of hard-coding milliseconds.
    let est_ms = fleet(static_config.clone())
        .routing_context()
        .offload_cost
        .latency_ms;
    let adaptive_config = FleetConfig {
        adaptive: Some(AdaptiveConfig {
            window: 8,
            budget_ms: est_ms * 10.0, // admits the whole window when healthy
            target_ms: est_ms * 1.75, // nominal round-trips sit under this
            floor_ms: est_ms * 2.0,   // a tightened window admits ~2 appeals
        }),
        ..static_config.clone()
    };
    let trace4 = TraceSpec {
        mean_gap_nanos: degrade_gap_nanos,
        ..uniform_trace(requests)
    };
    let (static_m, rendered) = simulate("static", &static_config, &trace4, &mut violations);
    entry(&mut text, "static", &rendered);
    let (adaptive_m, rendered) = simulate("adaptive", &adaptive_config, &trace4, &mut violations);
    entry(&mut text, "adaptive", &rendered);
    let (static_post, adaptive_post) = (
        static_m.post_degrade.as_ref().expect("degrade set"),
        adaptive_m.post_degrade.as_ref().expect("degrade set"),
    );
    text.push_str(&format!(
        "comparison: post-degrade appeal rate {:.1}% static -> {:.1}% adaptive | \
         post-degrade p99 {:.3} ms static -> {:.3} ms adaptive\n",
        100.0 * static_post.appeal_rate,
        100.0 * adaptive_post.appeal_rate,
        static_post.p99_ms,
        adaptive_post.p99_ms,
    ));
    if adaptive_post.appeal_rate >= static_post.appeal_rate {
        violations.push(format!(
            "[adaptive] post-degrade appeal rate {:.3} did not drop below static {:.3}",
            adaptive_post.appeal_rate, static_post.appeal_rate
        ));
    }
    text.push('\n');

    finish("fleet_sim", text, "accounting and determinism", &violations);
}
