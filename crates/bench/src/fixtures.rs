//! The one fixture set behind the experiment binaries (`fleet_sim`,
//! `fault_sim`) and the root package's integration tests: the untrained
//! MobileNet-like little + big pair at `[3, 12, 12]`, the stock fleet built
//! around it, the uniform trace, tight recovery ladder and fault plans the
//! fault experiments share, and the simulate-twice-and-compare report
//! helpers.
//!
//! Fleet configs themselves start from
//! [`FleetConfig::baseline`](appealnet_fleet::FleetConfig::baseline); this
//! module only holds what needs models, traces or report text on top of it.
//! Everything is a pure function of its arguments, so the golden snapshot
//! and the committed reports pin these bytes.

use appeal_hw::{FaultEvent, FaultPlan, StochasticLink};
use appeal_models::{ClassifierParts, ModelFamily, ModelSpec};
use appeal_tensor::SeededRng;
use appealnet_core::TwoHeadNet;
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{
    BreakerConfig, CooperativeConfig, FleetConfig, FleetMetrics, FleetSim, GossipConfig,
    RecoveryConfig, RetryConfig,
};

/// Input shape of every fixture model.
pub const INPUT: [usize; 3] = [3, 12, 12];
/// Class count of the fleet fixtures.
pub const CLASSES: usize = 4;
/// Seed of the fleet fixtures' models, traces and fault plans.
pub const SEED: u64 = 2021;
/// Nodes of [`wifi_fleet`].
pub const NODES: usize = 4;
/// Mean gap between [`uniform_trace`] arrivals: 2 ms.
pub const MEAN_GAP_NANOS: u64 = 2_000_000;

/// An untrained MobileNet-like two-head little net and its big net over
/// [`INPUT`], all drawn from one stream seeded with `seed`: equal arguments
/// give bit-identical weights. Serving, routing and fleet tests measure
/// queueing, ledgers and determinism, not accuracy, so tiny random weights
/// keep them fast while exercising the full routed pipeline.
pub fn model_pair(seed: u64, classes: usize) -> (TwoHeadNet, ClassifierParts) {
    let mut rng = SeededRng::new(seed);
    let little = ModelSpec::little(ModelFamily::MobileNetLike, INPUT, classes).build(&mut rng);
    let big = ModelSpec::big(INPUT, classes).build(&mut rng);
    (TwoHeadNet::from_parts(little, &mut rng), big)
}

/// A fresh fleet over `model_pair(SEED, CLASSES)`. Fresh builds per run keep
/// every simulation independent and reproducible.
///
/// # Panics
///
/// Panics if `config` does not validate.
pub fn fleet(config: FleetConfig) -> FleetSim {
    let (little, big) = model_pair(SEED, CLASSES);
    FleetSim::new(little, big, config).expect("valid config")
}

/// The fleet the fault experiments run: [`NODES`] wifi nodes routing at
/// `delta`, stock otherwise ([`FleetConfig::baseline`]), with `faults`
/// scripted and `recovery` armed.
pub fn wifi_fleet(delta: f64, faults: FaultPlan, recovery: Option<RecoveryConfig>) -> FleetConfig {
    FleetConfig {
        recovery,
        faults,
        ..FleetConfig::baseline(NODES, delta, StochasticLink::wifi(), SEED)
    }
}

/// `config` with the gossip plane and the cooperative fleet-stress policy
/// switched on at their fleet defaults (requires a breaker-armed recovery).
pub fn cooperative(config: FleetConfig) -> FleetConfig {
    FleetConfig {
        gossip: GossipConfig::default_for_fleet(),
        cooperative: Some(CooperativeConfig::default_for_fleet()),
        ..config
    }
}

/// `requests` uniform arrivals 2 ms apart on average from 64 clients.
pub fn uniform_trace(requests: usize) -> TraceSpec {
    TraceSpec {
        shape: TraceShape::Uniform,
        requests,
        mean_gap_nanos: MEAN_GAP_NANOS,
        clients: 64,
        seed: SEED,
    }
}

/// A recovery ladder tight enough to detect failures inside short traces:
/// a 40 ms per-attempt deadline (the stock 250 ms outlives them entirely),
/// three attempts backing off 5-40 ms, the stock appeal-path breaker.
pub fn tight_recovery() -> RecoveryConfig {
    RecoveryConfig {
        appeal_deadline_ms: 40.0,
        retry: RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 5.0,
            max_backoff_ms: 40.0,
        },
        breaker: Some(BreakerConfig::default_for_appeals()),
    }
}

/// A fault plan blacking the cloud out from `from_nanos` until `until_nanos`
/// (`u64::MAX` outlives any run).
pub fn blackout(from_nanos: u64, until_nanos: u64) -> FaultPlan {
    FaultPlan::new(
        SEED,
        vec![FaultEvent::CloudBlackout {
            from_nanos,
            until_nanos,
        }],
    )
    .expect("valid plan")
}

/// The chaos mix: a brownout stretching transfers 3x over 20-120 ms, lossy
/// (25 %) and corrupting (20 %) return paths over the whole run, and node 0
/// crashed for 50 ms at 20 ms.
pub fn chaos_plan() -> FaultPlan {
    const MS: u64 = 1_000_000;
    FaultPlan::new(
        SEED,
        vec![
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
    .expect("valid plan")
}

/// Runs one configuration twice on fresh [`fleet`]s and byte-compares the
/// rendered metrics; any drift or accounting violation
/// ([`FleetMetrics::check`]) lands in `violations`.
pub fn simulate(
    name: &str,
    config: &FleetConfig,
    trace: &TraceSpec,
    violations: &mut Vec<String>,
) -> (FleetMetrics, String) {
    let metrics = fleet(config.clone()).run(trace);
    let rendered = metrics.render();
    let second = fleet(config.clone()).run(trace).render();
    if rendered != second {
        violations.push(format!(
            "[{name}] two same-seed runs rendered different bytes"
        ));
    }
    for v in metrics.check() {
        violations.push(format!("[{name}] {v}"));
    }
    (metrics, rendered)
}

/// Appends a report section header.
pub fn section(text: &mut String, title: &str) {
    text.push_str(&format!("--- {title} ---\n"));
}

/// Appends one named, indented metrics render.
pub fn entry(text: &mut String, name: &str, rendered: &str) {
    text.push_str(&format!("[{name}]\n"));
    for line in rendered.lines() {
        text.push_str(&format!("  {line}\n"));
    }
}

/// Appends the invariants footer (`checks` names what passed), writes
/// `reports/<name>.txt` and exits with status 1 if any violation was
/// recorded.
pub fn finish(name: &str, mut text: String, checks: &str, violations: &[String]) {
    if violations.is_empty() {
        text.push_str(&format!("invariants: all {checks} checks passed\n"));
    } else {
        text.push_str("invariants: VIOLATED\n");
        for v in violations {
            text.push_str(&format!("  {v}\n"));
        }
    }
    crate::write_report(name, &text);
    if !violations.is_empty() {
        eprintln!("{name} detected {} violation(s)", violations.len());
        std::process::exit(1);
    }
}
