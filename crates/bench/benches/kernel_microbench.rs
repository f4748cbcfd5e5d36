//! Criterion microbenches for the compute-kernel layer: the blocked GEMM and
//! the GEMM-lowered convolutions against the retained naive reference
//! kernels from `appeal_tensor::kernels::naive`.
//!
//! Groups:
//!
//! * `matmul_shapes` — naive vs. dispatched-SIMD blocked matmuls, plus a
//!   forced-scalar entry per shape so the explicit-SIMD speedup (and the
//!   scalar fallback's parity with the PR 3 autovectorized kernel) is
//!   directly visible. On `fast-kernels` builds running on FMA hardware a
//!   `forced_muladd` entry per shape additionally pins the unfused kernel,
//!   so the FMA-vs-mul-then-add microkernel speedup is measured
//!   like-for-like in one process (the `simd_` entry is the fused tier
//!   there — fused dispatch is the default). The active ISA and the build's
//!   numeric contract are printed once at startup.
//! * `small_problem_threshold` — GEMMs under `SMALL_PROBLEM_MACS` through the
//!   `i-k-j` loop, the blocked kernel packing A per call, and the blocked
//!   kernel on pre-packed A (what a `Conv2d` eval forward runs): the
//!   measurement behind the rule that sends a small problem to the blocked
//!   kernel only when it has `MR` rows and `MR` steps of depth.
//! * `elementwise` — ReLU forward / bias broadcast / axpy on the dispatched
//!   SIMD backend vs. forced scalar vs. the seed closure idioms; under
//!   `fast-kernels` + FMA an `axpy_forced_muladd` entry pins the unfused
//!   axpy the same way.
//! * `conv_forward` — the seed 7-deep loop vs. the im2col + GEMM `Conv2d`
//!   forward (bar: >= 5x on a 3x3 convolution), plus the depthwise pair.
//! * `conv_backward` — seed loop vs. GEMM-lowered backward.
//!
//! Set `APPEALNET_BENCH_QUICK=1` (as CI does) for a seconds-scale smoke run
//! on reduced shapes and sample counts. Thread count follows the vendored
//! rayon shim's `RAYON_NUM_THREADS`; run once with `RAYON_NUM_THREADS=1` and
//! once without to compare serial vs. row-parallel GEMM on multicore hosts
//! (on a single-core container both paths are the serial kernel).

use appeal_tensor::kernels::{
    self, elementwise, naive, GemmInit, GemmPath, Isa, PackScratch, PackedA,
};
use appeal_tensor::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var("APPEALNET_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn randn_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
}

fn bench_matmul_shapes(c: &mut Criterion) {
    // Perf numbers are only meaningful relative to a dispatch path and a
    // numeric tier; print both once so recorded runs
    // (reports/kernel_speedup.txt) are attributable.
    eprintln!(
        "kernel_microbench: active ISA = {}, contract = {}{}",
        kernels::active_isa(),
        kernels::numeric_contract(),
        if kernels::fused_active() {
            " (+fma)"
        } else {
            ""
        }
    );
    let mut group = c.benchmark_group("matmul_shapes");
    group.sample_size(if quick() { 5 } else { 20 });
    let sizes: &[usize] = if quick() {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    let mut rng = SeededRng::new(0xBE_7C);
    for &s in sizes {
        let a = Tensor::randn(&[s, s], &mut rng);
        let b = Tensor::randn(&[s, s], &mut rng);
        group.bench_function(format!("naive_{s}x{s}x{s}"), |bch| {
            bch.iter(|| naive::matmul_naive(s, s, s, black_box(a.data()), black_box(b.data())))
        });
        // The dispatched explicit-SIMD kernel (whatever active_isa() picked).
        group.bench_function(format!("simd_{s}x{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
        // The scalar (autovectorized) microkernel — i.e. the PR 3 kernel —
        // for a like-for-like scalar-vs-SIMD comparison in one run.
        let prev = kernels::force_isa(Some(Isa::Scalar));
        group.bench_function(format!("forced_scalar_{s}x{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
        kernels::force_isa(prev);
        // fast-kernels on FMA hardware: pin the unfused (mul-then-add)
        // kernel so the fused-vs-unfused microkernel speedup is visible in
        // one run. (`simd_` above is the fused tier there, as in serving.)
        // Gated on fused_active(), not fma_supported(): under a forced
        // sub-AVX2 dispatch (e.g. APPEALNET_FORCE_SCALAR) both entries
        // would measure the same unfused kernel and the comparison would
        // be meaningless.
        if kernels::fused_active() {
            let prev = kernels::force_fused(Some(false));
            group.bench_function(format!("forced_muladd_{s}x{s}x{s}"), |bch| {
                bch.iter(|| black_box(&a).matmul(black_box(&b)))
            });
            kernels::force_fused(prev);
        }
    }
    group.finish();
}

/// Both kernels at problems under `SMALL_PROBLEM_MACS`, bias-seeded like a
/// conv: the little net's pointwise convolutions (`[out_c] x [in_c] x
/// [oh*ow]`, which the blocked kernel wins), then shapes on the other side
/// of the rule — a depthwise forward (`m = 1`), its input-gradient outer
/// product (`k = 1`), three rows — and two at its edge (`m = MR`; a dense
/// layer at batch 8).
fn bench_small_problem_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("small_problem_threshold");
    group.sample_size(if quick() { 5 } else { 40 });
    let mut rng = SeededRng::new(0x5A_A1);
    let mut packs = PackScratch::new();
    for (m, k, n) in [
        (24usize, 16usize, 9usize),
        (16, 16, 36),
        (16, 8, 36),
        (24, 12, 36),
        (40, 24, 9),
        (1, 9, 144),
        (9, 1, 144),
        (3, 9, 144),
        (4, 27, 144),
        (8, 24, 10),
    ] {
        let a = randn_vec(&mut rng, m * k);
        let b = randn_vec(&mut rng, k * n);
        let bias = randn_vec(&mut rng, m);
        let packed = PackedA::pack(m, k, &a);
        let mut out = vec![0.0f32; m * n];
        for (name, path, packed) in [
            ("ikj", GemmPath::Ikj, None),
            ("blocked", GemmPath::Blocked, None),
            ("blocked_prepacked", GemmPath::Blocked, Some(&packed)),
        ] {
            group.bench_function(format!("{name}_{m}x{k}x{n}"), |bch| {
                bch.iter(|| {
                    kernels::gemm_into_on(
                        path,
                        m,
                        k,
                        n,
                        black_box(&a),
                        packed,
                        black_box(&b),
                        GemmInit::RowBias(&bias),
                        &mut out,
                        &mut packs,
                    );
                    black_box(&out);
                })
            });
        }
    }
    group.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("elementwise");
    group.sample_size(if quick() { 5 } else { 20 });
    let n: usize = if quick() { 1 << 12 } else { 1 << 16 };
    let (rows, cols) = if quick() {
        (16usize, 64usize)
    } else {
        (64, 256)
    };
    let mut rng = SeededRng::new(0xE1_E3);
    let src: Vec<f32> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
    let other: Vec<f32> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
    let bias: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
    let matrix: Vec<f32> = (0..rows * cols).map(|_| rng.normal(0.0, 1.0)).collect();
    let mut dst = vec![0.0f32; n];

    // ReLU forward: seed closure idiom vs dispatched kernel vs forced scalar.
    group.bench_function("relu_naive_map", |bch| {
        bch.iter(|| {
            black_box(&src)
                .iter()
                .map(|&x| x.max(0.0))
                .collect::<Vec<f32>>()
        })
    });
    group.bench_function("relu_simd", |bch| {
        bch.iter(|| elementwise::relu_fwd(black_box(&src), black_box(&mut dst)))
    });
    let prev = kernels::force_isa(Some(Isa::Scalar));
    group.bench_function("relu_forced_scalar", |bch| {
        bch.iter(|| elementwise::relu_fwd(black_box(&src), black_box(&mut dst)))
    });
    kernels::force_isa(prev);

    // Column-broadcast bias add.
    group.bench_function("bias_naive_loop", |bch| {
        bch.iter(|| {
            let mut data = black_box(&matrix).clone();
            for row in data.chunks_exact_mut(cols) {
                for (o, &bv) in row.iter_mut().zip(bias.iter()) {
                    *o += bv;
                }
            }
            data
        })
    });
    group.bench_function("bias_simd", |bch| {
        bch.iter(|| {
            let mut data = black_box(&matrix).clone();
            elementwise::bias_add_rows(&mut data, black_box(&bias));
            data
        })
    });

    // axpy (the SGD / gradient-accumulation primitive).
    group.bench_function("axpy_naive_loop", |bch| {
        bch.iter(|| {
            let mut y = black_box(&src).clone();
            for (a, &b) in y.iter_mut().zip(other.iter()) {
                *a += 0.5 * b;
            }
            y
        })
    });
    group.bench_function("axpy_simd", |bch| {
        bch.iter(|| {
            let mut y = black_box(&src).clone();
            elementwise::axpy(0.5, black_box(&other), &mut y);
            y
        })
    });
    // fast-kernels on FMA hardware: the unfused axpy for a fused-vs-unfused
    // comparison (axpy_simd above is the fused tier there; same
    // fused_active() gate as the GEMM entries).
    if kernels::fused_active() {
        let prev = kernels::force_fused(Some(false));
        group.bench_function("axpy_forced_muladd", |bch| {
            bch.iter(|| {
                let mut y = black_box(&src).clone();
                elementwise::axpy(0.5, black_box(&other), &mut y);
                y
            })
        });
        kernels::force_fused(prev);
    }
    group.finish();
}

/// The MobileNet-ish hot shape: 3x3 convolution over a mid-network feature
/// map (quick mode shrinks the spatial extent).
fn conv_shape() -> (usize, usize, usize, usize) {
    // (batch, channels_in, channels_out, spatial)
    if quick() {
        (1, 8, 16, 8)
    } else {
        (4, 16, 32, 16)
    }
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_forward");
    group.sample_size(if quick() { 5 } else { 20 });
    let (n, ci, co, hw) = conv_shape();
    let mut rng = SeededRng::new(0xC0_4F);
    let x = Tensor::randn(&[n, ci, hw, hw], &mut rng);
    let mut conv = Conv2d::new(ci, co, 3, 1, 1, &mut rng);
    let weight = randn_vec(&mut rng, co * ci * 3 * 3);
    let bias = randn_vec(&mut rng, co);
    group.bench_function("naive_3x3", |bch| {
        bch.iter(|| {
            naive::conv2d_forward_naive(
                black_box(x.data()),
                n,
                ci,
                hw,
                hw,
                &weight,
                &bias,
                co,
                3,
                1,
                1,
            )
        })
    });
    group.bench_function("gemm_3x3", |bch| {
        bch.iter(|| conv.forward(black_box(&x), false))
    });

    let mut dw = DepthwiseConv2d::new(ci, 3, 1, 1, &mut rng);
    let dw_weight = randn_vec(&mut rng, ci * 3 * 3);
    let dw_bias = randn_vec(&mut rng, ci);
    group.bench_function("naive_depthwise_3x3", |bch| {
        bch.iter(|| {
            naive::depthwise_forward_naive(
                black_box(x.data()),
                n,
                ci,
                hw,
                hw,
                &dw_weight,
                &dw_bias,
                3,
                1,
                1,
            )
        })
    });
    group.bench_function("gemm_depthwise_3x3", |bch| {
        bch.iter(|| dw.forward(black_box(&x), false))
    });
    group.finish();
}

fn bench_conv_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_backward");
    group.sample_size(if quick() { 5 } else { 20 });
    let (n, ci, co, hw) = conv_shape();
    let mut rng = SeededRng::new(0xBA_C4);
    let x = Tensor::randn(&[n, ci, hw, hw], &mut rng);
    let mut conv = Conv2d::new(ci, co, 3, 1, 1, &mut rng);
    let y = conv.forward(&x, true);
    let go = Tensor::randn(y.shape(), &mut rng);
    let weight = randn_vec(&mut rng, co * ci * 3 * 3);
    group.bench_function("naive_3x3", |bch| {
        bch.iter(|| {
            naive::conv2d_backward_naive(
                black_box(x.data()),
                n,
                ci,
                hw,
                hw,
                &weight,
                black_box(go.data()),
                co,
                3,
                1,
                1,
            )
        })
    });
    group.bench_function("gemm_3x3", |bch| bch.iter(|| conv.backward(black_box(&go))));
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul_shapes,
    bench_small_problem_threshold,
    bench_elementwise,
    bench_conv_forward,
    bench_conv_backward
);
criterion_main!(benches);
