//! Integration guards for the `fast-kernels` (deterministic-per-build)
//! numeric contract — compiled only when the feature is enabled, and run by
//! the dedicated CI matrix job.
//!
//! The per-kernel guarantees (fused-vs-seed tolerance, forced-off bit
//! identity, AVX2/AVX-512 fused agreement) live in `appeal_tensor`'s unit
//! suites; this file pins the *system-level* half of the contract:
//!
//! 1. The row-banded parallel GEMM is bit-identical to the serial blocked
//!    kernel under the fused tier — band splitting never changes a single
//!    element's operation sequence, so results do not depend on
//!    `RAYON_NUM_THREADS` (pinned to 4 here, the same convention as
//!    `tests/hot_path_allocations.rs`).
//! 2. Two identically seeded serving runs produce bit-identical scores —
//!    "deterministic per build" means repeatable, not merely close.
//! 3. The engine's debug surfaces report the relaxed contract, so serving
//!    logs from a `fast-kernels` binary are never mistaken for
//!    seed-identical numbers.
#![cfg(feature = "fast-kernels")]

use appeal_bench::fixtures::model_pair;
use appeal_tensor::kernels::tolerance::assert_bits_eq;
use appeal_tensor::kernels::{
    self, enter_worker_region, gemm_into, GemmInit, NumericContract, PackScratch,
};
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::serve::{Engine, ThresholdPolicy};
use appealnet_core::two_head::TwoHeadNet;

/// Pins `RAYON_NUM_THREADS=4` before the first parallel operation can
/// initialize the worker pool (thread count is read once per process).
fn pin_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

fn random_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

#[test]
fn build_reports_deterministic_per_build_contract() {
    pin_threads();
    assert_eq!(
        kernels::numeric_contract(),
        NumericContract::DeterministicPerBuild,
        "a fast-kernels build must not claim seed bit-identity"
    );
}

/// The cross-thread-count half of the contract: a GEMM large enough for the
/// row-banded parallel path must be bit-identical to the serial blocked
/// kernel with the fused tier engaged. Bands are contiguous row ranges and
/// each element's fma sequence is untouched by the split, so any
/// `RAYON_NUM_THREADS` value computes the same bytes.
#[test]
fn banded_fused_gemm_is_bit_identical_to_serial() {
    pin_threads();
    let (m, k, n) = (160usize, 200usize, 160usize); // >= 2^21 MACs: banded path
    let mut rng = SeededRng::new(0xFA_B4);
    let a = random_vec(&mut rng, m * k);
    let b = random_vec(&mut rng, k * n);

    let mut packs = PackScratch::new();
    let mut banded = vec![f32::NAN; m * n];
    gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut banded, &mut packs);

    // The worker-region guard forces the serial blocked kernel — the same
    // code path a 1-thread run takes.
    let mut serial = vec![f32::NAN; m * n];
    {
        let _guard = enter_worker_region();
        gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut serial, &mut packs);
    }
    assert_bits_eq(&banded, &serial, "banded vs serial fused GEMM");

    // Same property under GemmInit::Accumulate (the gradient path).
    let seed = random_vec(&mut rng, m * n);
    let mut banded_acc = seed.clone();
    gemm_into(
        m,
        k,
        n,
        &a,
        &b,
        GemmInit::Accumulate,
        &mut banded_acc,
        &mut packs,
    );
    let mut serial_acc = seed;
    {
        let _guard = enter_worker_region();
        gemm_into(
            m,
            k,
            n,
            &a,
            &b,
            GemmInit::Accumulate,
            &mut serial_acc,
            &mut packs,
        );
    }
    assert_bits_eq(&banded_acc, &serial_acc, "banded vs serial accumulate");
}

/// Builds an identically seeded (two-head, big) model pair — the
/// `tests/determinism.rs` fixture at this file's scale.
fn seeded_models() -> (TwoHeadNet, appeal_models::ClassifierParts) {
    model_pair(0x5EED, 6)
}

/// "Deterministic per build" must mean *repeatable*: two identically seeded
/// serving runs on this binary produce bit-identical scores and identical
/// routing, even though neither matches a default build bit-for-bit. (Both
/// runs share this process, so this pins within-process repeatability;
/// cross-invocation repeatability — nothing address- or env-derived feeds a
/// kernel — is exercised by diffing experiment reports across separate
/// binary runs, per docs/DETERMINISM.md.)
#[test]
fn repeated_serving_runs_are_bit_identical() {
    pin_threads();
    let mut rng = SeededRng::new(0xD0_5E);
    let images = Tensor::randn(&[19, 3, 12, 12], &mut rng);
    let run = || {
        let (net, big) = seeded_models();
        let mut engine = Engine::builder()
            .appealnet(net)
            .big(big)
            .policy(ThresholdPolicy::new(0.5).unwrap())
            .build()
            .unwrap();
        engine.classify_batch(&images).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
        assert_eq!(a.label, b.label, "label diverges at sample {i}");
        assert_eq!(a.route, b.route, "route diverges at sample {i}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "score not bit-identical at sample {i}"
        );
    }
}

#[test]
fn engine_debug_surfaces_relaxed_contract() {
    pin_threads();
    let (net, big) = seeded_models();
    let engine = Engine::builder().appealnet(net).big(big).build().unwrap();
    let stats = format!("{:?}", engine.stats());
    assert!(
        stats.contains("deterministic-per-build"),
        "fast-kernels EngineStats must report the relaxed contract: {stats}"
    );
    if kernels::fused_active() {
        assert!(
            stats.contains("+fma"),
            "dispatched fused tier must be marked: {stats}"
        );
    }
}
