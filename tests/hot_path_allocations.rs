//! Allocation guard for the serving hot path.
//!
//! The kernel layer (`appeal_tensor::kernels`) draws padded images and
//! GEMM packing panels from high-water scratch arenas retained per thread,
//! and counts every buffer growth / reuse in process-wide atomics. This test
//! pins down the PR-level guarantees: once the engine has warmed up,
//! steady-state `Engine::submit` traffic performs **zero** scratch
//! allocations — every padded-image and packing buffer is a reuse — eval-mode
//! forward passes do not clone their inputs into training caches, and
//! steady-state large `matmul`s grow nothing in the caller's thread arena.
//! Convolution weights are packed into output-channel-lane panels by the
//! warm-up and never again in steady state — until `params_mut()` hands the
//! weights out, which must drop the panels; a train forward packs them for
//! that call, once however many samples it carries. Convolution window
//! tables are built by the warm-up too, and again only when a layer meets a
//! new input shape. A batch-128 eval pass, which runs in lane groups of
//! sixteen samples, grows nothing after one warm-up and packs no weights at
//! all, quantized or not. A quantized convolution's or dense layer's Q8
//! panels are packed by `quantize_weights()` and by nothing else, and its Q8
//! tier serves the weights and bias it was quantized from. A quantized edge
//! scorer's steady-state `submit` grows, packs and builds nothing either. And what scratch reuse
//! cannot see — the tensors between layers — is pinned as the exact number
//! of heap allocations one steady-state `submit` makes, counted by this
//! binary's own global allocator.
//!
//! Kept as the only test in this file so no concurrently running test can
//! perturb the process-wide counters.

use appeal_bench::fixtures::model_pair;
use appeal_tensor::kernels;
use appeal_tensor::prelude::{Conv2d, Dense};
use appeal_tensor::{Layer, SeededRng, Tensor};
use appealnet_core::serve::{Engine, InferenceRequest, ThresholdPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every block it hands out or moves.
struct CountingAlloc;

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations of one steady-state `submit` at `max_batch` 1 and δ = 1:
/// the edge pass through the two-head little network, the routing decision,
/// an appeal through the big network and the response. Eval `BatchNorm2d` and
/// `Relu` layers and the residual adds work in the buffer they are handed
/// (`Layer::forward_owned`), so what is left is one tensor per convolution,
/// pooling and dense layer, the engine's request and response plumbing, and
/// nothing that grows with traffic. Before the elementwise layers went in
/// place this was 135; it was 73 until the big pass stopped copying its
/// one-request mini-batch — the index list and the `select_rows` copy (data
/// and shape) — and stopped splitting the logits into one tensor per row
/// (data and shape) gathered in a list and stacked again (data and shape):
/// eight allocations, for the one shape of the tensor built on the logits
/// buffer instead.
const HEAP_ALLOCS_PER_SUBMIT: u64 = 66;

/// Heap allocations of one steady-state `submit` when the edge scorer is a
/// calibrated quantized AppealNet, at `max_batch` 1 and δ = 1: the same
/// tensors and plumbing as [`HEAP_ALLOCS_PER_SUBMIT`] — the Q8_0 tier draws
/// its quantized activations, scales, tables and block dots from the thread's
/// scratch arena, and its weights were packed by `quantize_weights()`.
const HEAP_ALLOCS_PER_Q8_SUBMIT: u64 = 66;

#[test]
fn steady_state_submit_reuses_scratch_without_allocating() {
    let (net, big) = model_pair(31_337, 6);
    let mut rng = SeededRng::new(31_337);
    let big_replica = big.clone();
    // max_batch 1: every submit answers immediately, the worst case for
    // per-request overhead. δ = 1.0 forces every request through both the
    // edge scorer and the big network, exercising every conv/dense scratch.
    let mut engine = Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(ThresholdPolicy::new(1.0).unwrap())
        .max_batch(1)
        .build()
        .unwrap();

    // Warm-up: the first requests grow each layer's scratch to its
    // high-water mark.
    for id in 0..3u64 {
        let image = Tensor::randn(&[3, 12, 12], &mut rng);
        let out = engine.submit(InferenceRequest::new(id, image)).unwrap();
        assert!(out.is_some(), "max_batch 1 answers every submit");
    }

    // Steady state: more single-request traffic must not allocate scratch,
    // and every submit makes the same, pinned number of heap allocations.
    let before = kernels::scratch_stats();
    let steady_requests = 16u64;
    for id in 0..steady_requests {
        let request = InferenceRequest::new(100 + id, Tensor::randn(&[3, 12, 12], &mut rng));
        let heap_before = HEAP_ALLOCS.load(Ordering::Relaxed);
        let out = engine.submit(request).unwrap();
        let heap_allocs = HEAP_ALLOCS.load(Ordering::Relaxed) - heap_before;
        assert!(out.is_some());
        assert_eq!(
            heap_allocs, HEAP_ALLOCS_PER_SUBMIT,
            "steady-state submit {id} made {heap_allocs} heap allocations"
        );
    }
    let after = kernels::scratch_stats();

    assert_eq!(
        after.allocs, before.allocs,
        "steady-state submits must not grow any scratch buffer \
         (allocs {} -> {})",
        before.allocs, after.allocs
    );
    let reuses = after.reuses - before.reuses;
    assert!(
        reuses >= steady_requests,
        "steady-state submits must reuse warmed scratch buffers \
         (saw {reuses} reuses over {steady_requests} requests)"
    );
    assert!(
        before.weight_floats_packed > 0,
        "the warm-up packs the convolution weights"
    );
    assert_eq!(
        after.weight_floats_packed, before.weight_floats_packed,
        "steady-state submits must not re-pack any weights"
    );
    assert!(
        before.window_tables_built > 0,
        "the warm-up builds the convolution window tables"
    );
    assert_eq!(
        after.window_tables_built, before.window_tables_built,
        "steady-state submits must not rebuild any window table"
    );
    assert_eq!(engine.stats().requests, 3 + steady_requests);

    steady_state_q8_submit_reuses_scratch_without_allocating(&mut rng);
    lane_batch_eval_reuses_scratch_and_packs_nothing(big_replica.clone(), &mut rng);
    lane_batch_q8_eval_reuses_scratch_and_packs_nothing(big_replica.clone(), &mut rng);
    input_shape_change_rebuilds_window_tables(big_replica.clone(), &mut rng);
    params_mut_invalidates_packed_weights(big_replica, &mut rng);
    train_forward_packs_once_per_call(&mut rng);
    q8_panels_follow_the_weights(&mut rng);
    large_matmul_reuses_the_callers_thread_arena(&mut rng);
}

/// The Q8 twin of `steady_state_submit_reuses_scratch_without_allocating`:
/// the edge scorer is the same little network quantized and calibrated, so
/// every `submit`'s edge pass — one sample — runs the per-sample Q8_0 tier.
/// After the warm-up no submit grows a scratch buffer, packs a weight or
/// builds a window table, and each makes the pinned number of heap
/// allocations.
fn steady_state_q8_submit_reuses_scratch_without_allocating(rng: &mut SeededRng) {
    let (mut net, big) = model_pair(31_337, 6);
    net.quantize_weights();
    net.calibrate_activation_scales(&Tensor::randn(&[20, 3, 12, 12], rng), 8);
    let mut engine = Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(ThresholdPolicy::new(1.0).unwrap())
        .max_batch(1)
        .build()
        .unwrap();
    assert!(engine.stats().edge_quantized);
    for id in 0..3u64 {
        let image = Tensor::randn(&[3, 12, 12], rng);
        assert!(engine
            .submit(InferenceRequest::new(id, image))
            .unwrap()
            .is_some());
    }
    let before = kernels::scratch_stats();
    let steady_requests = 16u64;
    for id in 0..steady_requests {
        let request = InferenceRequest::new(100 + id, Tensor::randn(&[3, 12, 12], rng));
        let heap_before = HEAP_ALLOCS.load(Ordering::Relaxed);
        let out = engine.submit(request).unwrap();
        let heap_allocs = HEAP_ALLOCS.load(Ordering::Relaxed) - heap_before;
        assert!(out.is_some());
        assert_eq!(
            heap_allocs, HEAP_ALLOCS_PER_Q8_SUBMIT,
            "steady-state quantized submit {id} made {heap_allocs} heap allocations"
        );
    }
    let after = kernels::scratch_stats();
    assert_eq!(
        after.allocs, before.allocs,
        "steady-state quantized submits must not grow any scratch buffer"
    );
    assert!(
        after.reuses - before.reuses >= steady_requests,
        "steady-state quantized submits must reuse warmed scratch buffers"
    );
    assert_eq!(
        after.weight_floats_packed, before.weight_floats_packed,
        "steady-state quantized submits must not pack any weights"
    );
    assert_eq!(
        after.window_tables_built, before.window_tables_built,
        "steady-state quantized submits must not rebuild any window table"
    );
}

/// A batch-128 eval pass runs in lane groups of sixteen samples: after one
/// warm-up pass it grows no scratch buffer and builds no window table, and
/// no pass — the warm-up included, on a replica that never packed — packs a
/// weight, because the lane tile reads each convolution's `[oc][c*k*k]`
/// weights as they are. The bytes repeat.
fn lane_batch_eval_reuses_scratch_and_packs_nothing(
    mut big: appeal_models::ClassifierParts,
    rng: &mut SeededRng,
) {
    let batch = Tensor::randn(&[128, 3, 12, 12], rng);
    let packed = kernels::scratch_stats().weight_floats_packed;
    let warm = big.forward(&batch, false);
    let before = kernels::scratch_stats();
    for _ in 0..3 {
        assert_eq!(big.forward(&batch, false).data(), warm.data());
    }
    let after = kernels::scratch_stats();
    assert_eq!(
        after.allocs, before.allocs,
        "steady-state batch-128 passes must not grow any scratch buffer"
    );
    assert!(
        after.reuses > before.reuses,
        "batch-128 passes must reuse the warmed scratch"
    );
    assert_eq!(
        after.window_tables_built, before.window_tables_built,
        "steady-state batch-128 passes must not rebuild any window table"
    );
    assert_eq!(
        after.weight_floats_packed, packed,
        "lane-group passes read the convolution weights unpacked"
    );
}

/// The Q8 twin of `lane_batch_eval_reuses_scratch_and_packs_nothing`: a
/// quantized net's batch-128 eval passes run in lane groups too, its
/// convolutions' Q8 tier on the lane tile. After one warm-up pass — under
/// dynamic scales, then under calibrated ones — no pass grows a scratch
/// buffer, builds a window table or packs a weight: the lane tile reads the
/// integer weights `quantize_weights()` derived. The bytes repeat.
fn lane_batch_q8_eval_reuses_scratch_and_packs_nothing(
    mut big: appeal_models::ClassifierParts,
    rng: &mut SeededRng,
) {
    let batch = Tensor::randn(&[128, 3, 12, 12], rng);
    big.quantize_weights();
    for calibrated in [false, true] {
        if calibrated {
            big.backbone.begin_calibration();
            big.head.begin_calibration();
            let _ = big.forward(&batch, false);
            big.backbone.end_calibration();
            big.head.end_calibration();
        }
        let warm = big.forward(&batch, false);
        let before = kernels::scratch_stats();
        for _ in 0..3 {
            assert_eq!(big.forward(&batch, false).data(), warm.data());
        }
        let after = kernels::scratch_stats();
        assert_eq!(
            after.allocs, before.allocs,
            "steady-state quantized batch-128 passes must not grow any scratch buffer \
             (calibrated: {calibrated})"
        );
        assert!(
            after.reuses > before.reuses,
            "quantized batch-128 passes must reuse the warmed scratch"
        );
        assert_eq!(
            after.window_tables_built, before.window_tables_built,
            "steady-state quantized batch-128 passes must not rebuild any window table"
        );
        assert_eq!(
            after.weight_floats_packed, before.weight_floats_packed,
            "quantized lane-group passes pack no weight"
        );
    }
}

/// A window table is only valid for the input shape it was built for: the
/// same shape again builds nothing, a new shape rebuilds every table on its
/// first forward and none on its second — and the output stays that of a
/// replica that never saw the other shape.
fn input_shape_change_rebuilds_window_tables(
    mut big: appeal_models::ClassifierParts,
    rng: &mut SeededRng,
) {
    let mut fresh = big.clone();
    let small = Tensor::randn(&[1, 3, 12, 12], rng);
    let large = Tensor::randn(&[1, 3, 16, 16], rng);
    let _ = big.forward(&small, false);
    let built = kernels::scratch_stats().window_tables_built;
    let _ = big.forward(&small, false);
    assert_eq!(
        kernels::scratch_stats().window_tables_built,
        built,
        "an unchanged input shape must not rebuild window tables"
    );
    let first = big.forward(&large, false);
    let rebuilt = kernels::scratch_stats().window_tables_built;
    assert!(
        rebuilt > built,
        "a new input shape must rebuild the window tables"
    );
    let again = big.forward(&large, false);
    assert_eq!(kernels::scratch_stats().window_tables_built, rebuilt);
    assert_eq!(first.data(), again.data());
    assert_eq!(first.data(), fresh.forward(&large, false).data());
}

/// The packed panels are only valid for the weights they were built from:
/// eval forwards on unchanged weights pack nothing, and handing the
/// parameters out mutably makes the next eval forward pack again.
fn params_mut_invalidates_packed_weights(
    mut big: appeal_models::ClassifierParts,
    rng: &mut SeededRng,
) {
    let image = Tensor::randn(&[1, 3, 12, 12], rng);
    let first = big.forward(&image, false);
    let packed = kernels::scratch_stats().weight_floats_packed;
    let again = big.forward(&image, false);
    assert_eq!(
        kernels::scratch_stats().weight_floats_packed,
        packed,
        "unchanged weights must not be re-packed"
    );
    assert_eq!(first.data(), again.data());

    for p in big.backbone.params_mut() {
        for v in p.value.data_mut() {
            *v *= 0.5;
        }
    }
    let halved = big.forward(&image, false);
    assert!(
        kernels::scratch_stats().weight_floats_packed > packed,
        "a params_mut() touch must drop the packed weights"
    );
    assert_ne!(
        first.data(),
        halved.data(),
        "the eval forward after a weight edit must see the new weights"
    );
}

/// A train forward keeps no panels, so it packs the weights for that call —
/// `oc * k` floats (16 channels fill their lane block exactly), once for the
/// whole batch, not once per sample; the eval forward after it packs again
/// and the one after that does not.
fn train_forward_packs_once_per_call(rng: &mut SeededRng) {
    let (c, oc, k) = (8usize, 16usize, 3usize);
    let mut conv = Conv2d::new(c, oc, k, 1, 1, rng);
    let batch = Tensor::randn(&[3, c, 6, 6], rng);
    let packed = || kernels::scratch_stats().weight_floats_packed;
    let panel_floats = (oc * c * k * k) as u64;

    let before = packed();
    let trained = conv.forward(&batch, true);
    assert_eq!(
        packed() - before,
        panel_floats,
        "a train forward over three samples must pack the weights once"
    );
    let evaluated = conv.forward(&batch, false);
    assert_eq!(packed() - before, 2 * panel_floats);
    let _ = conv.forward(&batch, false);
    assert_eq!(packed() - before, 2 * panel_floats);
    assert_eq!(trained.data(), evaluated.data());
}

/// A quantized convolution's Q8 panels are packed by `quantize_weights()` —
/// its integer weights as `f32` lanes, `[Q8 block][16-oc block][taps in the
/// block][16]`, here 2 channel blocks of one 27-tap Q8 block — and by
/// nothing after it: not the eval forwards, dynamic or calibrated, not a
/// replica (which carries them) and not a train forward (which packs the f32
/// weights it runs on, and leaves the Q8 panels be). An edit of the weights
/// and the (nonzero) bias through `params_mut` leaves the Q8 tier serving the
/// snapshot it was quantized from; quantizing again packs again, and the
/// output follows the new parameters. A quantized `Dense` packs its panels in
/// `quantize_weights()` too, its eval forwards and replicas pack nothing, and
/// it serves its snapshot in the same way.
fn q8_panels_follow_the_weights(rng: &mut SeededRng) {
    let (c, oc, k) = (3usize, 17usize, 3usize);
    let mut conv = Conv2d::new(c, oc, k, 1, 1, rng);
    // A nonzero bias, so that an edit to it shows.
    conv.params_mut()[1].value = Tensor::randn(&[oc], rng);
    let batch = Tensor::randn(&[2, c, 6, 6], rng);
    let packed = || kernels::scratch_stats().weight_floats_packed;
    let q8_lanes = (oc.div_ceil(16) * c * k * k * 16) as u64;

    let before = packed();
    conv.quantize_weights();
    assert_eq!(
        packed() - before,
        q8_lanes,
        "quantizing packs the Q8 panels"
    );
    let dynamic = conv.forward(&batch, false);
    conv.begin_calibration();
    let _ = conv.forward(&batch, false);
    conv.end_calibration();
    let calibrated = conv.forward(&batch, false);
    let mut replica = conv.clone();
    assert_eq!(replica.forward(&batch, false).data(), calibrated.data());
    assert_eq!(
        packed() - before,
        q8_lanes,
        "quantized eval forwards and replicas must pack nothing"
    );
    assert_ne!(dynamic.data(), calibrated.data());

    let trained = conv.forward(&batch, true);
    let f32_lanes = (oc.div_ceil(16) * 16 * c * k * k) as u64;
    assert_eq!(packed() - before, q8_lanes + f32_lanes);
    assert_eq!(conv.forward(&batch, false).data(), calibrated.data());
    assert_eq!(packed() - before, q8_lanes + f32_lanes);
    assert_ne!(trained.data(), calibrated.data());

    for p in conv.params_mut() {
        for v in p.value.data_mut() {
            *v = -*v;
        }
    }
    assert_eq!(
        conv.forward(&batch, false).data(),
        calibrated.data(),
        "the Q8 tier serves the weights and bias it was quantized from"
    );
    conv.quantize_weights();
    assert_eq!(packed() - before, 2 * q8_lanes + f32_lanes);
    assert_ne!(conv.forward(&batch, false).data(), calibrated.data());

    // A quantized dense layer runs the same tile on the same panels, its
    // output features on the lanes: here 2 feature blocks of 40 inputs.
    let (inputs, outputs) = (40usize, 17usize);
    let mut dense = Dense::new(inputs, outputs, rng);
    dense.params_mut()[1].value = Tensor::randn(&[outputs], rng);
    let x = Tensor::randn(&[3, inputs], rng);
    let dense_lanes = (outputs.div_ceil(16) * inputs * 16) as u64;
    let before = packed();
    dense.quantize_weights();
    assert_eq!(
        packed() - before,
        dense_lanes,
        "quantizing a dense layer packs its Q8 panels"
    );
    let _ = dense.forward(&x, false);
    dense.begin_calibration();
    let _ = dense.forward(&x, false);
    dense.end_calibration();
    let calibrated = dense.forward(&x, false);
    let mut replica = dense.clone();
    assert_eq!(replica.forward(&x, false).data(), calibrated.data());
    assert_eq!(
        packed() - before,
        dense_lanes,
        "quantized dense eval forwards and replicas must pack nothing"
    );
    for p in dense.params_mut() {
        for v in p.value.data_mut() {
            *v = -*v;
        }
    }
    assert_eq!(
        dense.forward(&x, false).data(),
        calibrated.data(),
        "the dense Q8 tier serves the weights and bias it was quantized from"
    );
    dense.quantize_weights();
    assert_ne!(dense.forward(&x, false).data(), calibrated.data());
}

/// Steady-state large GEMMs through the scratch-less `Tensor::matmul` entry
/// point grow nothing in the caller's thread arena and repeat bit-for-bit.
fn large_matmul_reuses_the_callers_thread_arena(rng: &mut SeededRng) {
    // 256^3 = 16.7M MACs: sixteen lane blocks of A, each run over every tile
    // of B's 256 columns, far above anything the nets issue.
    let a = Tensor::randn(&[256, 256], rng);
    let b = Tensor::randn(&[256, 256], rng);

    // Warm-up: grows the caller's panels and window table to their
    // high-water marks.
    let warm = a.matmul(&b);

    let before = kernels::scratch_stats();
    let steady_rounds = 6u64;
    let mut last = warm.clone();
    for _ in 0..steady_rounds {
        last = a.matmul(&b);
    }
    let after = kernels::scratch_stats();

    assert_eq!(
        after.allocs, before.allocs,
        "steady-state large GEMMs must not grow any packing buffer \
         (allocs {} -> {})",
        before.allocs, after.allocs
    );
    assert!(
        after.reuses - before.reuses >= steady_rounds,
        "large GEMMs must reuse the caller's thread arena"
    );
    for (x, y) in warm.data().iter().zip(last.data().iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "GEMM must be deterministic");
    }
}
