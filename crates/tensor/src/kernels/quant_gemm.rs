//! The quantized GEMM, on the `f32` tile every quantized convolution runs
//! on.
//!
//! Computes `out[m x n] = A[m x k] · Wᵀ` where `W` is a pre-quantized
//! [`QuantMatrix`] (each of its `n` rows holds one output feature's
//! reduction column as Q8_0 blocks) and the `f32` activations `A` are
//! quantized **on the fly**, one row-wide power-of-two scale per activation
//! row (per-row absmax by default, or a calibrated static scale).
//!
//! [`quant_gemm_into`] is to the Q8_0 tier what [`super::gemm_into`] is to
//! the `f32` one: `W`'s integer weights go on the vector lanes as panels (the
//! layout of a quantized convolution's filters), A is quantized to
//! integer-valued `f32`, and its rows are read through the window table
//! `taps[p] = p`, `offs[i] = i * k` — a row of A is to the GEMM what a
//! receptive field is to a convolution — one tile pass per Q8 block. The
//! tile writes `[n][m]`, which is transposed into the `[m][n]` output (for
//! `m == 1` or `n == 1` the two are the same bytes and the tile writes `out`
//! itself).
//!
//! # Numeric structure (why this path has one contract)
//!
//! Per output element the computation is
//!
//! ```text
//! out[i][j] = a_scale[i] * Σ_b  w_scale[j][b] * dot(qa[i][b], qw[j][b])
//! ```
//!
//! Every term is exact except the cross-block `f32` accumulation: the block
//! dot is a sum of integer products (`<= 32·127² < 2^24`), so the `f32` tile
//! computes it exactly, in any order and on any backend; both scales are
//! powers of two (exact multiplies), and blocks are summed in ascending order
//! with separate `mul` + `add`. So every backend is **bit-identical** to the
//! scalar tile and to the row loop it replaced
//! ([`super::naive::quant_matmul_naive`]). What is *not* exact is
//! quantization itself; that error is governed by the `quantized-tolerance`
//! contract ([`super::NumericContract`]).
//!
//! # Scratch
//!
//! Like the f32 GEMM, the kernel runs on the calling thread and draws
//! everything it makes from the caller's [`QuantScratch`] arena: the panels
//! of `W` (every call), the quantized A and its scales, the window table,
//! the block dots and the `[n][m]` product. A quantized `Dense` packs its
//! panels once, in `quantize_weights()`, and calls `quant_gemm_panels`.

use super::gemm::transpose_into;
use super::scratch::QuantScratch;
use super::window::{pack_q8_blocks, q8_tiles, row_table, Q8Blocks};
use crate::quant::{quantize_row_into, QuantMatrix};

/// `out[m x n] <- A[m x k] · W + bias`, with `W` the quantized `B` operand.
///
/// `bias` (length `n`, optional) is added after each element's full
/// accumulation — matching the f32 `matmul_bias` convention of one final
/// rounding. `act_scale` selects static activation quantization (a
/// calibrated power-of-two scale applied to every row, saturating at ±127)
/// instead of the default per-row absmax.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`/`k`/`n`, or if the
/// [`QuantMatrix`] shape is not `n` rows of depth `k`.
#[allow(clippy::too_many_arguments)]
pub fn quant_gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    w: &QuantMatrix,
    bias: Option<&[f32]>,
    act_scale: Option<f32>,
    out: &mut [f32],
    quant: &mut QuantScratch,
) {
    assert_eq!(a.len(), m * k, "quant_gemm: A must be m*k");
    assert_eq!(out.len(), m * n, "quant_gemm: out must be m*n");
    assert_eq!(w.cols(), k, "quant_gemm: weight depth must be k");
    assert_eq!(w.rows(), n, "quant_gemm: weight rows must be n");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "quant_gemm: bias must have n entries");
    }
    if m == 0 || n == 0 {
        return;
    }
    // The arena's panel buffer, lent to this call's packing.
    let mut packed = std::mem::take(&mut quant.panels);
    let weights = pack_q8_blocks(w, &mut packed);
    quant_gemm_panels(m, k, n, a, weights, bias, act_scale, out, quant);
    quant.panels = packed;
}

/// [`quant_gemm_into`] with `W` already packed (`window::Q8Weights`' panels
/// and block scales, `n` output features of depth `k`), for a caller that
/// keeps them — a quantized `Dense`.
///
/// # Panics
///
/// Panics if a slice length or the panels disagree with `m`/`k`/`n`, or if
/// `A` has more than `u32::MAX` elements.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quant_gemm_panels(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    weights: Q8Blocks<'_>,
    bias: Option<&[f32]>,
    act_scale: Option<f32>,
    out: &mut [f32],
    quant: &mut QuantScratch,
) {
    assert_eq!(a.len(), m * k, "quant_gemm: A must be m*k");
    assert_eq!(out.len(), m * n, "quant_gemm: out must be m*n");
    assert_eq!(
        (weights.oc, weights.taps),
        (n, k),
        "quant_gemm: panels must be n features of depth k"
    );
    let QuantScratch {
        quantized,
        scales,
        table,
        dots,
        product,
        ..
    } = quant;
    let (q, a_scales) = (quantized.take(a.len()), scales.take(m));
    match act_scale {
        Some(scale) => a_scales.fill(quantize_row_into(a, q, Some(scale))),
        None => {
            for (i, a_scale) in a_scales.iter_mut().enumerate() {
                let row = i * k..(i + 1) * k;
                *a_scale = quantize_row_into(&a[row.clone()], &mut q[row], None);
            }
        }
    }
    let table = row_table(table, k, m);
    if m == 1 || n == 1 {
        q8_tiles(weights, table, q, a_scales, bias, out, dots);
    } else {
        let product = product.take(n * m);
        q8_tiles(weights, table, q, a_scales, bias, product, dots);
        transpose_into(product, n, m, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::naive::quant_matmul_naive;
    use crate::kernels::simd::{force_isa, isa_override_test_lock, supported_isas};
    use crate::kernels::tolerance::{self, assert_bits_eq};
    use crate::quant::{q8_block_scale, QK8_0};
    use crate::rng::SeededRng;

    fn random_problem(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.5, 1.5)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.uniform(-0.5, 0.5)).collect();
        (a, b, bias)
    }

    fn run_quant(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        w: &QuantMatrix,
        bias: Option<&[f32]>,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        let mut q = QuantScratch::new();
        quant_gemm_into(m, k, n, a, w, bias, None, &mut out, &mut q);
        out
    }

    /// The f64 reference on the *quantized* operands: same quantization
    /// decisions, exact integer dots, f64 combine. The only thing the kernel
    /// adds on top is the cross-block f32 accumulation, so the kernel must
    /// match this within the tolerance harness's accumulation bound.
    fn reference_f64(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        w: &QuantMatrix,
        bias: Option<&[f32]>,
    ) -> (Vec<f64>, Vec<f64>) {
        let padded = w.blocks_per_row() * QK8_0;
        let mut qa = vec![0i8; padded];
        let mut out = vec![0.0f64; m * n];
        let mut mags = vec![0.0f64; m * n];
        for i in 0..m {
            qa.fill(0);
            let a_scale = quantize_row_into(&a[i * k..(i + 1) * k], &mut qa[..k], None);
            for j in 0..n {
                let mut acc = 0.0f64;
                let mut mag = 0.0f64;
                for (b, block) in w.row(j).iter().enumerate() {
                    let mut dot = 0i64;
                    for t in 0..QK8_0 {
                        dot += i64::from(qa[b * QK8_0 + t]) * i64::from(block.qs[t]);
                    }
                    let term = f64::from(block.scale) * dot as f64;
                    acc += term;
                    mag = mag.max(term.abs());
                }
                let v = f64::from(a_scale) * acc;
                out[i * n + j] = v + bias.map_or(0.0, |b| f64::from(b[j]));
                mags[i * n + j] = f64::from(a_scale) * mag;
            }
        }
        (out, mags)
    }

    #[test]
    fn matches_f64_reference_within_accumulation_bound() {
        for &(m, k, n) in &[(3usize, 33usize, 5usize), (8, 70, 9), (16, 128, 16)] {
            let (a, b, bias) = random_problem(m, k, n, 31 + (m * k * n) as u64);
            let w = QuantMatrix::from_b(&b, k, n);
            let got = run_quant(m, k, n, &a, &w, Some(&bias));
            let (want, mags) = reference_f64(m, k, n, &a, &w, Some(&bias));
            let steps = w.blocks_per_row() + 1; // block sum + bias add
            for idx in 0..m * n {
                let bound = tolerance::accumulation_bound(steps, mags[idx].max(want[idx].abs()));
                let err = (f64::from(got[idx]) - want[idx]).abs();
                assert!(
                    err <= bound,
                    "[{m}x{k}x{n}] elem {idx}: err {err:e} > bound {bound:e}"
                );
            }
        }
    }

    #[test]
    fn k_zero_and_empty_edges() {
        let w = QuantMatrix::from_b(&[], 0, 4);
        let mut out = vec![7.0f32; 2 * 4];
        let mut q = QuantScratch::new();
        let bias = [1.0f32, 2.0, 3.0, 4.0];
        quant_gemm_into(2, 0, 4, &[], &w, Some(&bias), None, &mut out, &mut q);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
        // m == 0 and n == 0 are no-ops.
        quant_gemm_into(0, 0, 4, &[], &w, Some(&bias), None, &mut [], &mut q);
        let w0 = QuantMatrix::from_b(&[], 3, 0);
        quant_gemm_into(2, 3, 0, &[0.0; 6], &w0, None, None, &mut [], &mut q);
    }

    #[test]
    fn zero_activations_yield_bias() {
        let (_, b, bias) = random_problem(1, 40, 6, 99);
        let w = QuantMatrix::from_b(&b, 40, 6);
        let a = vec![0.0f32; 3 * 40];
        let got = run_quant(3, 40, 6, &a, &w, Some(&bias));
        for i in 0..3 {
            assert_eq!(&got[i * 6..(i + 1) * 6], &bias[..]);
        }
    }

    #[test]
    fn static_scale_matches_dynamic_when_equal() {
        // A static scale equal to the dynamic per-row scale must reproduce
        // the dynamic path bit-for-bit (single-row input).
        let (a, b, _) = random_problem(1, 64, 5, 7);
        let w = QuantMatrix::from_b(&b, 64, 5);
        let absmax = a.iter().fold(0.0f32, |acc, x| acc.max(x.abs()));
        let s = q8_block_scale(absmax);
        let dynamic = run_quant(1, 64, 5, &a, &w, None);
        let mut fixed = vec![0.0f32; 5];
        let mut q = QuantScratch::new();
        quant_gemm_into(1, 64, 5, &a, &w, None, Some(s), &mut fixed, &mut q);
        for (x, y) in dynamic.iter().zip(&fixed) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn static_scale_saturates_outliers() {
        // One huge outlier with a tiny static scale must clamp to ±127
        // instead of wrapping.
        let k = QK8_0;
        let mut a = vec![0.0f32; k];
        a[0] = 1.0e6;
        a[1] = -1.0e6;
        let ones = vec![1.0f32; k]; // single output feature of all-ones
        let w = QuantMatrix::from_rows(&ones, 1, k);
        let mut out = vec![0.0f32; 1];
        let mut q = QuantScratch::new();
        let s = q8_block_scale(1.0);
        quant_gemm_into(1, k, 1, &a, &w, None, Some(s), &mut out, &mut q);
        // Weights quantize to exactly 127 * scale each; the clamped
        // activations are +127 and -127 and cancel.
        assert_eq!(out[0], 0.0);
    }

    /// Cross-ISA bit-identity with the row loop on a grid of odd shapes plus
    /// blocked ones, every supported ISA plus the dispatched default.
    #[test]
    fn cross_isa_bit_identity_grid() {
        let _lock = isa_override_test_lock();
        let dims = [1usize, 5, 7, 9, 31, 33];
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    shapes.push((m, k, n));
                }
            }
        }
        // Deeper shapes: several Q8 blocks per row, the last one partial.
        shapes.push((64, 160, 48));
        shapes.push((33, 257, 17));
        for (m, k, n) in shapes {
            let (a, b, bias) = random_problem(m, k, n, (m * 1000 + k * 10 + n) as u64);
            let w = QuantMatrix::from_b(&b, k, n);
            let want = quant_matmul_naive(m, k, n, &a, &w, Some(&bias), None);
            let mut modes: Vec<Option<crate::kernels::Isa>> =
                supported_isas().into_iter().map(Some).collect();
            modes.push(None); // the dispatched default
            for mode in modes {
                let prev = force_isa(mode);
                let got = run_quant(m, k, n, &a, &w, Some(&bias));
                force_isa(prev);
                assert_bits_eq(&got, &want, &format!("[{m}x{k}x{n}] {mode:?}"));
            }
        }
    }

    /// The tile against the row loop it replaced, bit for bit, on every
    /// backend, from one arena dirtied up front and reused dirty: `m` across
    /// every backend's rows per tile (and `m = 1`, which skips the
    /// transpose), `n` across a lane block, `k` across Q8 blocks and an odd
    /// last tap; dynamic and static scales, with a bias and without. On
    /// subnormal operands `a_scale * acc` underflows, to `-0.0` wherever the
    /// dot is negative: with no bias that sign must survive, which a `+0.0`
    /// seed would flip.
    #[test]
    fn quant_gemm_matches_the_row_loop_on_every_isa() {
        let _lock = isa_override_test_lock();
        let mut rng = SeededRng::new(0x0E_08);
        let mut q = QuantScratch::new();
        q.quantized.take(13 * 70 + 64).fill(f32::NAN);
        q.scales.take(64).fill(f32::NAN);
        q.table.take(128).fill(u32::MAX);
        q.dots.take(13 * 17 + 64).fill(f32::NAN);
        q.product.take(13 * 17 + 64).fill(f32::NAN);
        q.panels.take(3 * 70 * 32 + 64).fill(f32::NAN);
        let subnormal = |rng: &mut SeededRng| {
            let v = f32::from_bits((rng.next_u64() % (1 << 23)) as u32);
            if rng.bernoulli(0.5) {
                v
            } else {
                -v
            }
        };
        let mut negative_zeros = 0;
        for m in [1usize, 5, 6, 7, 13] {
            for n in [1usize, 10, 16, 17] {
                for k in [1usize, 27, 32, 33, 70] {
                    let (a, b, bias) = random_problem(m, k, n, rng.next_u64());
                    let tiny_a: Vec<f32> = (0..m * k).map(|_| subnormal(&mut rng)).collect();
                    let tiny_b: Vec<f32> = (0..k * n).map(|_| subnormal(&mut rng)).collect();
                    for (a, b) in [(&a, &b), (&tiny_a, &tiny_b)] {
                        let w = QuantMatrix::from_b(b, k, n);
                        let absmax = a.iter().fold(0.0f32, |acc, x| acc.max(x.abs()));
                        for act_scale in [None, Some(q8_block_scale(absmax))] {
                            for bias in [Some(&bias[..]), None] {
                                let want = quant_matmul_naive(m, k, n, a, &w, bias, act_scale);
                                negative_zeros +=
                                    want.iter().filter(|v| v.to_bits() == 1 << 31).count();
                                for isa in supported_isas() {
                                    let prev = force_isa(Some(isa));
                                    let mut got = vec![f32::NAN; m * n];
                                    quant_gemm_into(
                                        m, k, n, a, &w, bias, act_scale, &mut got, &mut q,
                                    );
                                    force_isa(prev);
                                    let tag = format!(
                                        "[{m}x{k}x{n}] scale={act_scale:?} bias={} {isa}",
                                        bias.is_some()
                                    );
                                    assert_bits_eq(&got, &want, &tag);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            negative_zeros > 100,
            "only {negative_zeros} results underflowed to -0.0"
        );
    }
}
