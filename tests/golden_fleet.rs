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

use appeal_bench::fixtures::{
    blackout, chaos_plan, cooperative, model_pair, tight_recovery, uniform_trace, wifi_fleet,
    CLASSES, SEED,
};
use appeal_hw::StochasticLink;
use appealnet_fleet::trace::TraceSpec;
use appealnet_fleet::{AdaptiveConfig, FleetConfig, FleetSim};

const MS: u64 = 1_000_000;
const SNAPSHOT: &str = "tests/snapshots/pr8_fleet_baseline.txt";

/// One golden scenario. `quantized_edge` puts the little net on the Q8_0
/// weight tier before the fleet forks it onto the nodes.
struct Row {
    name: &'static str,
    config: FleetConfig,
    trace: TraceSpec,
    quantized_edge: bool,
}

fn run(row: Row) -> String {
    let (mut little, big) = model_pair(SEED, CLASSES);
    if row.quantized_edge {
        little.quantize_weights();
    }
    FleetSim::new(little, big, row.config)
        .expect("valid config")
        .run(&row.trace)
        .render()
}

/// The table. Append rows; never reorder or rename the existing ones.
fn rows() -> Vec<Row> {
    let row = |name, config, quantized_edge| Row {
        name,
        config,
        trace: uniform_trace(96),
        quantized_edge,
    };
    let breaker_on = |faults| wifi_fleet(0.9, faults, Some(tight_recovery()));
    let adaptive = FleetConfig {
        adaptive: Some(AdaptiveConfig {
            window: 8,
            budget_ms: 510.0,
            target_ms: 89.25,
            floor_ms: 102.0,
        }),
        ..FleetConfig::baseline(4, 1.0, StochasticLink::lte(), SEED)
    };
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
        row(
            "chaos-mix gossip cooperative",
            cooperative(breaker_on(chaos_plan())),
            false,
        ),
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
