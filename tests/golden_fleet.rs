//! Golden snapshot of fleet-simulator renders: one table row = a name, a
//! `FleetConfig`, a trace and the little net's weight tier; the rendered
//! metrics of every row are compared byte-for-byte against
//! `tests/snapshots/pr8_fleet_baseline.txt`.
//!
//! The first four rows predate the gossip plane and the quantized tier and
//! must never move: with `GossipConfig::disabled()` (and no cooperative
//! policy) the simulator consumes the same RNG draws, schedules the same
//! events and renders the same bytes as the code that had neither — full
//! blackout with breaker, transient blackout (half-open probe traffic), the
//! chaos mix, and a plain adaptive run. The later rows pin the gossip +
//! cooperative policy under the chaos plan and a fleet whose quantized little
//! net is priced and scheduled on the quantized edge device.
//!
//! Regenerate the snapshot (only when a deliberate behavior change is being
//! made) with:
//!
//! ```text
//! APPEALNET_BLESS=1 cargo test --release --test golden_fleet
//! ```
//!
//! The snapshot is captured under the default `bit-identical-to-seed`
//! kernel contract; the `fast-kernels` FMA tier produces different (equally
//! deterministic) floats, so this suite only runs on the default tier.
#![cfg(not(feature = "fast-kernels"))]

use appeal_hw::{DeviceSpec, FaultEvent, FaultPlan, StochasticLink};
use appeal_models::{ModelFamily, ModelSpec};
use appeal_tensor::SeededRng;
use appealnet_core::parallel::ChunkPolicy;
use appealnet_core::two_head::TwoHeadNet;
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{
    AdaptiveConfig, BreakerConfig, CloudConfig, CooperativeConfig, FleetConfig, FleetSim,
    GossipConfig, RecoveryConfig, RetryConfig,
};

const MS: u64 = 1_000_000;
const SNAPSHOT: &str = "tests/snapshots/pr8_fleet_baseline.txt";

fn recovery() -> RecoveryConfig {
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

fn config(delta: f64, faults: FaultPlan, rec: Option<RecoveryConfig>) -> FleetConfig {
    FleetConfig {
        nodes: 4,
        delta,
        edge_device: DeviceSpec::mobile_soc(),
        cloud: CloudConfig {
            device: DeviceSpec::cloud_gpu(),
            max_batch: 8,
            deadline_ms: 2.0,
            batch_overhead_ms: 1.0,
            shed_backlog_ms: None,
        },
        link: StochasticLink::wifi(),
        node_links: None,
        degrade: None,
        adaptive: None,
        recovery: rec,
        gossip: GossipConfig::disabled(),
        cooperative: None,
        faults,
        slo_ms: 100.0,
        chunk: ChunkPolicy::sequential(),
        seed: 2021,
    }
}

fn trace(requests: usize) -> TraceSpec {
    TraceSpec {
        shape: TraceShape::Uniform,
        requests,
        mean_gap_nanos: 2 * MS,
        clients: 64,
        seed: 2021,
    }
}

/// One golden scenario. `quantized_edge` puts the little net on the Q8_0
/// weight tier before the fleet forks it onto the nodes.
struct Row {
    name: &'static str,
    config: FleetConfig,
    trace: TraceSpec,
    quantized_edge: bool,
}

fn run(row: Row) -> String {
    let mut rng = SeededRng::new(2021);
    let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
    let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
    let mut little = TwoHeadNet::from_parts(little, &mut rng);
    if row.quantized_edge {
        little.quantize_weights();
    }
    FleetSim::new(little, big, row.config)
        .expect("valid config")
        .run(&row.trace)
        .render()
}

fn blackout(from: u64, until: u64) -> FaultPlan {
    FaultPlan::new(
        2021,
        vec![FaultEvent::CloudBlackout {
            from_nanos: from,
            until_nanos: until,
        }],
    )
    .unwrap()
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(
        2021,
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
    .unwrap()
}

/// The table. Append rows; never reorder or rename the existing ones.
fn rows() -> Vec<Row> {
    let row = |name, config, quantized_edge| Row {
        name,
        config,
        trace: trace(96),
        quantized_edge,
    };
    let breaker_on = |faults| config(0.9, faults, Some(recovery()));
    let mut adaptive = config(1.0, FaultPlan::none(), None);
    adaptive.link = StochasticLink::lte();
    adaptive.adaptive = Some(AdaptiveConfig {
        window: 8,
        budget_ms: 510.0,
        target_ms: 89.25,
        floor_ms: 102.0,
    });
    let mut cooperative = breaker_on(chaos_plan());
    cooperative.gossip = GossipConfig::default_for_fleet();
    cooperative.cooperative = Some(CooperativeConfig::default_for_fleet());
    vec![
        row(
            "full-blackout breaker-on",
            breaker_on(blackout(10 * MS, u64::MAX)),
            false,
        ),
        row(
            "transient-blackout breaker-on",
            breaker_on(blackout(10 * MS, 70 * MS)),
            false,
        ),
        row("chaos-mix breaker-on", breaker_on(chaos_plan()), false),
        row("pr7 adaptive lte no-recovery", adaptive, false),
        row("chaos-mix gossip cooperative", cooperative, false),
        row(
            "chaos-mix breaker-on quantized-edge",
            breaker_on(chaos_plan()),
            true,
        ),
    ]
}

#[test]
fn fleet_renders_match_the_golden_snapshot() {
    let mut got = String::new();
    for row in rows() {
        let name = row.name;
        got.push_str(&format!("=== {name} ===\n{}", run(row)));
    }
    if std::env::var("APPEALNET_BLESS").is_ok() {
        std::fs::create_dir_all("tests/snapshots").unwrap();
        std::fs::write(SNAPSHOT, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot missing: run with APPEALNET_BLESS=1 to regenerate");
    assert_eq!(
        got, want,
        "fleet renders moved: an f32 fleet without gossip must replay byte-for-byte"
    );
}
