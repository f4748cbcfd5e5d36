//! Determinism guards for the fleet simulator.
//!
//! The simulator's contract is byte-reproducibility: identical seeds must
//! render identical metrics regardless of how many times the simulation
//! runs or how the cloud's forward passes are sharded (`ChunkPolicy` is the
//! in-process stand-in for varying worker-thread counts, per
//! `tests/determinism.rs`). These tests also pin the adaptive-budget
//! experiment's headline result: under a degraded link the controller
//! offloads less than a static fleet.

use appeal_bench::fixtures::fleet;
use appeal_hw::StochasticLink;
use appealnet_core::parallel::ChunkPolicy;
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{AdaptiveConfig, Degradation, FleetConfig, FleetMetrics};

fn config(seed: u64, chunk: ChunkPolicy) -> FleetConfig {
    FleetConfig {
        chunk,
        ..FleetConfig::baseline(4, 0.9, StochasticLink::lte(), seed)
    }
}

fn trace(requests: usize, mean_gap_nanos: u64) -> TraceSpec {
    TraceSpec {
        shape: TraceShape::Bursty { burst: 4 },
        requests,
        mean_gap_nanos,
        clients: 16,
        seed: 2021,
    }
}

fn run(config: FleetConfig, trace: &TraceSpec) -> FleetMetrics {
    fleet(config).run(trace)
}

#[test]
fn same_seed_runs_render_identical_bytes() {
    let spec = trace(96, 2_000_000);
    let first = run(config(7, ChunkPolicy::sequential()), &spec);
    let second = run(config(7, ChunkPolicy::sequential()), &spec);
    assert!(first.check().is_empty(), "{:?}", first.check());
    assert_eq!(
        first.render(),
        second.render(),
        "same seed must render byte-identical metrics"
    );
}

#[test]
fn sharded_cloud_passes_do_not_change_the_metrics() {
    // The cloud labels come from `parallel::classifier_logits`, whose argmax
    // rows are bit-identical across shardings; the fleet metrics must
    // inherit that.
    let spec = trace(96, 2_000_000);
    let sequential = run(config(7, ChunkPolicy::sequential()), &spec);
    for chunk in [
        ChunkPolicy {
            min_shard: 8,
            max_shards: 2,
        },
        ChunkPolicy {
            min_shard: 4,
            max_shards: 8,
        },
    ] {
        let sharded = run(config(7, chunk), &spec);
        assert_eq!(
            sequential.render(),
            sharded.render(),
            "chunk {chunk:?} must not change rendered metrics"
        );
    }
}

#[test]
fn different_seeds_change_the_link_weather() {
    let spec = trace(96, 2_000_000);
    let a = run(config(7, ChunkPolicy::sequential()), &spec);
    let b = run(config(8, ChunkPolicy::sequential()), &spec);
    // Different seeds resample images and link jitter; some observable
    // metric must move (latency percentiles are the most sensitive).
    assert_ne!(
        a.render(),
        b.render(),
        "different seeds should not collide byte-for-byte"
    );
}

#[test]
fn adaptive_budget_offloads_less_than_static_when_the_link_degrades() {
    // Mirror of the fleet_sim binary's section D, scaled down for a test:
    // everything wants the cloud (δ = 1), the link degrades a third of the
    // way in, and the adaptive fleet must appeal less than the static one
    // afterwards while keeping the metrics internally consistent.
    let requests = 256;
    let mean_gap_nanos = 8_000_000;
    let spec = TraceSpec {
        shape: TraceShape::Uniform,
        requests,
        mean_gap_nanos,
        clients: 16,
        seed: 2021,
    };
    let degrade = Some(Degradation {
        after_nanos: requests as u64 * mean_gap_nanos / 3,
        severity: 4.0,
    });
    let mut static_config = config(7, ChunkPolicy::sequential());
    static_config.delta = 1.0;
    static_config.degrade = degrade;
    let mut adaptive_config = static_config.clone();
    let est_ms = 51.0; // ~one lte appeal round-trip (see appeal_hw presets)
    adaptive_config.adaptive = Some(AdaptiveConfig {
        window: 8,
        budget_ms: est_ms * 10.0,
        target_ms: est_ms * 1.75,
        floor_ms: est_ms * 2.0,
    });
    let static_m = run(static_config, &spec);
    let adaptive_m = run(adaptive_config, &spec);
    assert!(static_m.check().is_empty(), "{:?}", static_m.check());
    assert!(adaptive_m.check().is_empty(), "{:?}", adaptive_m.check());
    let static_post = static_m.post_degrade.expect("degrade configured");
    let adaptive_post = adaptive_m.post_degrade.expect("degrade configured");
    assert!(
        adaptive_post.appeal_rate < static_post.appeal_rate,
        "adaptive fleet must offload less after degradation: {} vs {}",
        adaptive_post.appeal_rate,
        static_post.appeal_rate
    );
    assert!(
        adaptive_m.budget_denied > 0,
        "the tightened budget must actually deny appeals"
    );
}

#[test]
fn homogeneous_node_links_replay_the_shared_link_bytes() {
    // `node_links` with every slot equal to the shared preset must be
    // indistinguishable from `None`: `StochasticLink` sampling is stateless,
    // so per-node clones draw the same sequence as a shared clone.
    let spec = trace(96, 2_000_000);
    let shared = run(config(7, ChunkPolicy::sequential()), &spec);
    let mut per_node = config(7, ChunkPolicy::sequential());
    per_node.node_links = Some(vec![StochasticLink::lte(); 4]);
    let explicit = run(per_node, &spec);
    assert_eq!(
        shared.render(),
        explicit.render(),
        "homogeneous per-node links must replay the shared-link bytes"
    );
}

#[test]
fn mixed_node_links_change_the_weather_and_still_reconcile() {
    let spec = trace(96, 2_000_000);
    let shared = run(config(7, ChunkPolicy::sequential()), &spec);
    let mut mixed_config = config(7, ChunkPolicy::sequential());
    mixed_config.node_links = Some(vec![
        StochasticLink::lte(),
        StochasticLink::wifi(),
        StochasticLink::lte(),
        StochasticLink::wifi(),
    ]);
    let mixed = run(mixed_config.clone(), &spec);
    assert!(mixed.check().is_empty(), "{:?}", mixed.check());
    assert_ne!(
        shared.render(),
        mixed.render(),
        "a wifi/lte mix must actually change observable behaviour"
    );
    let again = run(mixed_config, &spec);
    assert_eq!(
        mixed.render(),
        again.render(),
        "mixed links must stay byte-reproducible"
    );
}
