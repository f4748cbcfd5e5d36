//! The compute-kernel layer: one f32 tile kernel, explicit SIMD, window
//! tables and scratch reuse.
//!
//! Everything expensive in this crate — dense layers, standard and depthwise
//! convolutions, their backward passes — bottoms out in the handful of
//! kernels defined here:
//!
//! * [`simd`] — the explicit-SIMD backend and the crate's only `unsafe`
//!   code: the one f32 tile kernel every multiply-accumulate of the crate
//!   runs on (sixteen output lanes per vector row, activations broadcast
//!   through a window table), the Q8_0 tier's included, on AVX2 and AVX-512
//!   beside a safe scalar reference, and cached
//!   runtime CPU-feature dispatch ([`active_isa`] reports the choice,
//!   [`force_isa`] / `APPEALNET_FORCE_SCALAR` pin it).
//! * [`gemm_into`] / [`gemm_bias_cols`] — the matrix multiply: A's rows
//!   packed as lane panels, B read through the table `taps[p] = p * n`,
//!   `offs[j] = j`, on the tile kernel; a plain `i-k-j` loop for products
//!   too thin to pack. Like every kernel here it runs on the calling thread;
//!   parallelism lives one level up, across batch shards.
//! * [`elementwise`] — order-safe elementwise kernels (ReLU
//!   forward/backward/in place, bias broadcast, axpy/scale, residual add)
//!   used by the hot layers and `Tensor` operations: plain per-element
//!   loops the compiler vectorizes for the build's `target-cpu`.
//! * `window` (crate-internal) — per-layer window tables over a zero-padded
//!   input, so no convolution materialises an im2col matrix: the standard
//!   convolution keeps its weights as output-channel-lane panels and
//!   broadcasts activations through the table, in f32 and — once quantized,
//!   on integer-valued operands, one exact tile pass per Q8 block — in the
//!   Q8_0 tier; its
//!   backward runs the same tile kernel with the table's roles swapped for
//!   the weight gradient, and scatters the input gradient's columns
//!   tap-major through the table; the depthwise convolution is a direct
//!   stencil over the padded input's grid of window origins.
//! * [`im2col`](fn@im2col) — the materialised convolution-to-GEMM lowering,
//!   whose row order is the naive loop's `ic -> ky -> kx` tap order — the
//!   order the window tables reproduce. No layer runs it; the lowering
//!   suites build their references from it.
//! * [`KernelScratch`] / [`GrowBuf`] — high-water-mark scratch buffers so
//!   steady-state inference performs **zero** heap allocations for padded
//!   images and GEMM packing panels (observable via [`scratch_stats`]).
//!   Arenas live per *thread* (see [`with_thread_scratch`]), so the
//!   persistent batch-shard workers retain every high-water buffer across
//!   calls.
//!
//! * [`quant_gemm_into`] — the GEMM of the quantized (Q8_0) little-net tier,
//!   on the `f32` tile the quantized convolutions run on: pre-quantized
//!   weights' integer values packed as panels (once by a quantized dense
//!   layer, per call here), A's rows behind the table `taps[p] = p`,
//!   `offs[i] = i * k`, quantized on the fly to integer-valued `f32`, one
//!   exact tile pass per Q8 block.
//!
//! # Determinism
//!
//! The crate ships **two numeric contracts**, reported at runtime by
//! [`numeric_contract`] and [`quantized_contract`] (the full specification
//! lives in `docs/DETERMINISM.md`):
//!
//! * **f32 kernels —
//!   [`BitIdenticalToSeed`](NumericContract::BitIdenticalToSeed).** Every
//!   optimized kernel accumulates each output element's products in the
//!   same order as the seed implementation it replaced (ascending inner
//!   dimension; convolution bias seeded first), and multiplication and
//!   addition stay separate roundings — no kernel fuses them, whatever the
//!   host offers. Forward passes are therefore bit-identical to the
//!   original naive loops — across tile shapes, problem sizes, thread
//!   counts and ISA backends — which the equivalence suites in this module
//!   and `layers::conv` pin down against the retained [`naive`] references.
//!   The one documented exception is the convolution *input* gradient,
//!   which sums over output channels before scattering (the naive loop
//!   interleaved them); it is pinned bit for bit against the GEMM lowering
//!   whose order it keeps, and to a tolerance against the naive loop.
//! * **Quantized path —
//!   [`QuantizedTolerance`](NumericContract::QuantizedTolerance).** The
//!   Q8_0 tier is bit-identical everywhere — on every ISA and thread count, and
//!   to the row loop [`naive::quant_matmul_naive`] — but the network differs
//!   from the f32 one by the quantization error itself, bounded per weight
//!   by [`crate::quant::q8_error_bound`].

pub mod elementwise;
pub mod gemm;
pub mod im2col;
pub mod naive;
pub mod quant_gemm;
pub mod scratch;
pub mod simd;
pub mod tolerance;
pub(crate) mod window;

pub use gemm::{gemm_bias_cols, gemm_into, transpose_into, GemmInit};
pub use im2col::im2col;
pub use quant_gemm::quant_gemm_into;
pub use scratch::{
    stats as scratch_stats, with_thread_scratch, GrowBuf, KernelScratch, PackScratch, QuantScratch,
    ScratchStats,
};
pub use simd::{active_isa, force_isa, supported_isas, Isa};

/// A numeric guarantee of this kernel layer — one of the two contracts
/// specified in `docs/DETERMINISM.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericContract {
    /// The f32 kernels: every result is bit-identical to the seed (naive
    /// reference) implementation on every ISA, thread count and tile shape.
    BitIdenticalToSeed,
    /// The quantized (Q8_0) inference path: results are bit-identical
    /// across runs, thread counts and ISAs, but differ from the f32
    /// reference by the quantization error itself, bounded per weight by
    /// half a block-scale step ([`crate::quant::q8_error_bound`]).
    QuantizedTolerance,
}

impl NumericContract {
    /// Short stable name, for reports and debug output
    /// (`"bit-identical-to-seed"` / `"quantized-tolerance"`).
    pub fn name(self) -> &'static str {
        match self {
            NumericContract::BitIdenticalToSeed => "bit-identical-to-seed",
            NumericContract::QuantizedTolerance => "quantized-tolerance",
        }
    }
}

impl std::fmt::Display for NumericContract {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The contract governing the f32 kernels: bit-identical-to-seed, on every
/// build and host.
pub fn numeric_contract() -> NumericContract {
    NumericContract::BitIdenticalToSeed
}

/// The contract governing the quantized (Q8_0) inference path: a quantized
/// little net computes bit-identical results on every ISA and thread count —
/// it simply is not the f32 network, and its divergence from f32 is what the
/// [`QuantizedTolerance`](NumericContract::QuantizedTolerance) bound
/// describes (see `docs/DETERMINISM.md`).
pub fn quantized_contract() -> NumericContract {
    NumericContract::QuantizedTolerance
}

#[cfg(test)]
mod tests {
    use super::tolerance::assert_bits_eq;
    use super::*;
    use crate::rng::SeededRng;

    fn random_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
    }

    /// Property suite: the GEMM is bit-identical to the seed `i-k-j` loop
    /// across odd shapes, including ones that exercise every edge path
    /// (partial lane blocks, partial tiles of columns, several lane blocks,
    /// the small-problem fallback).
    #[test]
    fn gemm_is_bit_identical_to_naive_across_shapes() {
        let dims = [1usize, 3, 17, 64];
        let mut rng = SeededRng::new(0x6E_44);
        let mut packs = PackScratch::new();
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    let a = random_vec(&mut rng, m * k);
                    let b = random_vec(&mut rng, k * n);
                    let expect = naive::matmul_naive(m, k, n, &a, &b);
                    let mut out = vec![f32::NAN; m * n];
                    gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
                    assert_bits_eq(&out, &expect, &format!("gemm {m}x{k}x{n}"));
                }
            }
        }
    }

    /// Regression for the removed `a == 0.0` sparsity branch: on data with
    /// exact zeros sprinkled in (as ReLU activations produce), accumulating
    /// the zero products is bit-identical to skipping them.
    #[test]
    fn zero_skip_removal_preserves_results_on_sparse_and_dense_data() {
        let mut rng = SeededRng::new(0x5A_22);
        let mut packs = PackScratch::new();
        for &(m, k, n) in &[(7usize, 33usize, 19usize), (64, 64, 64), (96, 96, 96)] {
            let mut a = random_vec(&mut rng, m * k);
            for v in a.iter_mut() {
                if rng.bernoulli(0.4) {
                    *v = 0.0;
                }
            }
            let b = random_vec(&mut rng, k * n);
            let expect = naive::matmul_naive(m, k, n, &a, &b);
            let mut out = vec![f32::NAN; m * n];
            gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
            assert_bits_eq(&out, &expect, &format!("sparse gemm {m}x{k}x{n}"));
        }
    }

    /// The tile kernel is bit-identical to the naive loop on every
    /// dispatchable ISA (scalar, AVX2, AVX-512 where supported) and on
    /// the dispatched default, over remainder-heavy shapes that exercise
    /// partial tiles on every edge.
    #[test]
    fn simd_gemm_bit_identical_across_isas_on_remainder_shapes() {
        let _lock = simd::isa_override_test_lock();
        let dims = [1usize, 5, 7, 9, 31, 33];
        let mut rng = SeededRng::new(0x51_4D);
        let mut packs = PackScratch::new();
        let mut isa_modes: Vec<Option<Isa>> = supported_isas().into_iter().map(Some).collect();
        isa_modes.push(None); // the dispatched default
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    let a = random_vec(&mut rng, m * k);
                    let b = random_vec(&mut rng, k * n);
                    let expect = naive::matmul_naive(m, k, n, &a, &b);
                    for &mode in &isa_modes {
                        let prev = force_isa(mode);
                        let mut out = vec![f32::NAN; m * n];
                        gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
                        force_isa(prev);
                        assert_bits_eq(&out, &expect, &format!("gemm {m}x{k}x{n} isa={mode:?}"));
                    }
                }
            }
        }
    }

    /// Runs every shape under every supported ISA and every [`GemmInit`]
    /// mode against the naive `i-k-j` accumulation, bit for bit: `Zero`
    /// into a NaN-filled output, `Accumulate` extending an existing one in
    /// `p` order (the gradient convention), `RowBias` seeding each row before
    /// the products (the convolution-forward one).
    fn check_shapes_across_isas_and_inits(shapes: &[(usize, usize, usize)], rng_seed: u64) {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(rng_seed);
        let mut packs = PackScratch::new();
        for &(m, k, n) in shapes {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, m);
            let seed_out = random_vec(&mut rng, m * n);
            for isa in supported_isas() {
                let prev = force_isa(Some(isa));
                for mode in 0..3 {
                    let (init, mut out) = match mode {
                        0 => (GemmInit::Zero, vec![f32::NAN; m * n]),
                        1 => (GemmInit::Accumulate, seed_out.clone()),
                        _ => (GemmInit::RowBias(&bias), vec![f32::NAN; m * n]),
                    };
                    let mut expect = match mode {
                        0 => vec![0.0f32; m * n],
                        1 => seed_out.clone(),
                        _ => {
                            let mut e = vec![0.0f32; m * n];
                            for i in 0..m {
                                e[i * n..(i + 1) * n].fill(bias[i]);
                            }
                            e
                        }
                    };
                    for i in 0..m {
                        for p in 0..k {
                            let av = a[i * k + p];
                            for j in 0..n {
                                expect[i * n + j] += av * b[p * n + j];
                            }
                        }
                    }
                    gemm_into(m, k, n, &a, &b, init, &mut out, &mut packs);
                    assert_bits_eq(&out, &expect, &format!("{m}x{k}x{n} mode={mode} {isa}"));
                }
                force_isa(prev);
            }
        }
    }

    /// Deep shapes (hundreds of steps per tile, several lane blocks, ragged
    /// tiles on both edges) and small ones on either side of the `i-k-j`
    /// rule stay bit-identical to the naive loop on every ISA, for every
    /// [`GemmInit`] mode.
    #[test]
    fn gemm_deep_shapes_bit_identical_across_isas() {
        check_shapes_across_isas_and_inits(
            &[
                (96, 160, 96),
                (130, 200, 70),
                (37, 300, 33),
                (65, 300, 9),
                (80, 140, 33),
                (70, 150, 40),
                (5, 9, 11),
                (3, 17, 5),
            ],
            0x51_4E,
        );
    }

    /// Every backend's rows per tile (12, 6 and 4 columns of the output)
    /// and a lane block (16 rows) both ragged, under all three [`GemmInit`]
    /// modes: `m` one short of, equal to and one past a lane block, and past
    /// two; `n` one short of, equal to and one past the AVX-512 tile.
    #[test]
    fn gemm_ragged_tiles_match_reference_under_every_init() {
        let mut shapes = Vec::new();
        for m in [15, 16, 17, 33] {
            for n in [11, 12, 13] {
                shapes.extend([(m, 5, n), (m, 40, n)]);
            }
        }
        check_shapes_across_isas_and_inits(&shapes, 0x51_50);
    }

    /// The tile kernel's edge tiles at the shapes that reach them: every
    /// convolution GEMM the big and little nets' im2col lowerings issued
    /// (`n = 9`: a ragged last tile on every backend; `m = 40, 24, 12, 8`:
    /// partial lane blocks), then `m % 16 != 0` against `n` in `{1,
    /// 9, 15, 17, 36}` with hundreds of steps, then the little net's
    /// pointwise convolutions, small problems that still pack.
    #[test]
    fn gemm_edge_tiles_match_reference_on_every_isa() {
        check_shapes_across_isas_and_inits(
            &[
                (40, 360, 9),
                (40, 216, 9),
                (24, 216, 36),
                (24, 108, 36),
                (12, 108, 144),
                (12, 27, 144),
                (8, 27, 144),
                (70, 500, 1),
                (13, 300, 9),
                (10, 300, 15),
                (7, 300, 17),
                (5, 200, 36),
                (24, 16, 9),
                (16, 16, 36),
                (16, 8, 36),
                (24, 12, 36),
                (40, 24, 9),
            ],
            0x51_4F,
        );
    }

    /// `±inf` and `NaN` inside the valid region of edge tiles: the padded
    /// lanes of those tiles compute `inf * 0 = NaN`, and none of it may
    /// reach an output element whose own row of A and column of B are
    /// finite.
    #[test]
    fn gemm_edge_padding_never_leaks_into_stored_output() {
        let _lock = simd::isa_override_test_lock();
        // Rows 8 (the last of a partial lane block) and 2, columns 20 (the
        // last, in every backend's ragged last tile) and 3 carry the
        // specials.
        let (m, k, n) = (9usize, 200usize, 21usize);
        let mut rng = SeededRng::new(0x1EA4);
        let mut a = random_vec(&mut rng, m * k);
        let mut b = random_vec(&mut rng, k * n);
        a[8 * k + 150] = f32::INFINITY;
        a[2 * k + 7] = f32::NAN;
        b[130 * n + 20] = f32::NEG_INFINITY;
        b[40 * n + 3] = f32::NAN;
        let expect = naive::matmul_naive(m, k, n, &a, &b);
        let mut packs = PackScratch::new();
        for isa in supported_isas() {
            let prev = force_isa(Some(isa));
            let mut out = vec![0.0f32; m * n];
            gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
            force_isa(prev);
            for i in 0..m {
                for j in 0..n {
                    let (got, want) = (out[i * n + j], expect[i * n + j]);
                    let tag = format!("({i}, {j}) on {isa}: {got} vs {want}");
                    if [2, 8].contains(&i) || [3, 20].contains(&j) {
                        // NaN payloads are not part of the contract.
                        assert!(
                            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                            "special element {tag}"
                        );
                    } else {
                        assert!(got.is_finite(), "padding leaked into {tag}");
                        assert_bits_eq(&[got], &[want], &tag);
                    }
                }
            }
        }
    }

    /// The fused column-bias GEMM matches `matmul` followed by
    /// `add_row_broadcast` bit-for-bit.
    #[test]
    fn fused_col_bias_matches_unfused_pair() {
        let mut rng = SeededRng::new(0xF0_5E);
        let mut packs = PackScratch::new();
        for &(m, k, n) in &[(4usize, 6usize, 3usize), (33, 120, 65)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, n);
            let mut expect = naive::matmul_naive(m, k, n, &a, &b);
            for row in expect.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias.iter()) {
                    *o += bv;
                }
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_bias_cols(m, k, n, &a, &b, &bias, &mut out, &mut packs);
            assert_bits_eq(&out, &expect, &format!("fused bias {m}x{k}x{n}"));
        }
    }

    #[test]
    fn k_zero_applies_only_the_initialization() {
        let mut packs = PackScratch::new();
        let mut out = vec![3.0f32; 6];
        gemm_into(2, 0, 3, &[], &[], GemmInit::Zero, &mut out, &mut packs);
        assert_eq!(out, vec![0.0; 6]);
        let bias = [1.0f32, 2.0];
        gemm_into(
            2,
            0,
            3,
            &[],
            &[],
            GemmInit::RowBias(&bias),
            &mut out,
            &mut packs,
        );
        assert_eq!(out, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    /// "A concurrently flipped override can change speed, never results": a
    /// second thread cycles [`force_isa`] over every backend while this one
    /// runs a tiled GEMM and a convolution layer, each compared bit for bit
    /// with its naive reference. Every round waits for
    /// a flip it has not seen, so the rounds cover every backend even where
    /// the two threads share a core.
    #[test]
    fn concurrent_isa_flips_never_change_results() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0xF1_1B);

        let (m, k, n) = (24usize, 216usize, 36usize);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let gemm_want = naive::matmul_naive(m, k, n, &a, &b);

        let (c, hw, kernel, oc) = (12usize, 6usize, 3usize, 24usize);
        let x = random_vec(&mut rng, c * hw * hw);
        let weight = random_vec(&mut rng, oc * c * kernel * kernel);
        let bias = random_vec(&mut rng, oc);
        let conv_want =
            naive::conv2d_forward_naive(&x, 1, c, hw, hw, &weight, &bias, oc, kernel, 1, 1);
        let win = window::ConvWindow::new(c, hw, hw, kernel, 1, 1);
        let panels = window::OcPanels::pack(oc, win.taps(), &weight);

        let prev = force_isa(None);
        let (stop, flips) = (AtomicBool::new(false), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for isa in supported_isas().into_iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    force_isa(Some(isa));
                    flips.fetch_add(1, Ordering::Relaxed);
                }
            });
            // Stops the flipper on every exit, a failed assertion included —
            // the scope would otherwise wait for it forever.
            struct Stop<'a>(&'a AtomicBool);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _stop = Stop(&stop);
            let mut packs = PackScratch::new();
            let mut pad = GrowBuf::new();
            for round in 0..300 {
                let seen = flips.load(Ordering::Relaxed);
                while flips.load(Ordering::Relaxed) == seen {
                    std::thread::yield_now();
                }
                let mut out = vec![f32::NAN; m * n];
                gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
                assert_bits_eq(&out, &gemm_want, &format!("round {round} gemm"));
                let mut out = vec![f32::NAN; conv_want.len()];
                win.conv_forward(win.pad(&x, 1, &mut pad), &panels, &bias, &mut out);
                assert_bits_eq(&out, &conv_want, &format!("round {round} conv"));
            }
        });
        force_isa(prev);
    }

    /// There is one build, so one f32 contract to report.
    #[test]
    fn numeric_contract_reflects_build() {
        assert_eq!(numeric_contract(), NumericContract::BitIdenticalToSeed);
        assert!(
            !numeric_contract().name().is_empty()
                && numeric_contract().to_string() == numeric_contract().name()
        );
    }

    #[test]
    fn transpose_into_round_trips() {
        let mut rng = SeededRng::new(0x7A_01);
        let src = random_vec(&mut rng, 5 * 7);
        let mut t = vec![0.0f32; 35];
        transpose_into(&src, 5, 7, &mut t);
        let mut back = vec![0.0f32; 35];
        transpose_into(&t, 7, 5, &mut back);
        assert_eq!(src, back);
        assert_eq!(t[0], src[0]);
        assert_eq!(t[5], src[1]); // (0,1) -> (1,0)
    }
}
