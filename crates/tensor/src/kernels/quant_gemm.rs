//! The quantized (int8 × int8 → i32) GEMM driver.
//!
//! Computes `out[m x n] = A[m x k] · Wᵀ` where `W` is a pre-quantized
//! [`QuantMatrix`] (each of its `n` rows holds one output feature's
//! reduction column as Q8_0 blocks) and the `f32` activations `A` are
//! quantized **on the fly**, one row-wide power-of-two scale per activation
//! row (per-row absmax by default, or a calibrated static scale).
//!
//! # Numeric structure (why this path has one contract)
//!
//! Per output element the computation is
//!
//! ```text
//! out[i][j] = a_scale[i] * Σ_b  w_scale[j][b] * dot_i32(qa[i][b], qw[j][b])
//! ```
//!
//! Every term is exact except the cross-block `f32` accumulation: the block
//! dot is integer arithmetic (`<= 32·127² < 2^24`, so the i32→f32 convert is
//! exact), both scales are powers of two (exact multiplies), and blocks are
//! summed in ascending order with separate `mul` + `add` on every backend.
//! The SIMD paths only vectorize the *integer* part, which is
//! order-insensitive — so the scalar, SSE2 and AVX2 kernels are
//! **bit-identical on every ISA**. What is
//! *not* exact is quantization itself; that error is governed by the
//! `quantized-tolerance` contract ([`super::NumericContract`], bounds in
//! [`super::tolerance`]).
//!
//! # Scratch
//!
//! Like the f32 driver, the kernel runs on the calling thread: each
//! activation row is quantized into the caller's [`QuantScratch`] arena and
//! reduced against every weight row before the next one overwrites it.
//!
//! Dense layers run this kernel. A quantized convolution computes the same
//! bytes — `im2col`, transposed, through here, transposed back — without
//! materialising any of it (`kernels/window.rs`, the Q8 tile in
//! [`super::simd`]).

use super::scratch::QuantScratch;
use super::simd;
use crate::quant::{quantize_row_into, QuantMatrix, QK8_0};

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
    // Resolve the backend once per call.
    let isa = simd::active_isa();
    let padded = w.blocks_per_row() * QK8_0;
    let qa = quant.qa.take(padded);
    // The arena is dirty by contract; the padding tail beyond `k` is never
    // rewritten by the row loop, so zero it once here.
    qa[k..].fill(0);
    for i in 0..m {
        let row = &a[i * k..(i + 1) * k];
        let a_scale = quantize_row_into(row, &mut qa[..k], act_scale);
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let dot = simd::quant_row_dot(isa, qa, w.row(j));
            let v = a_scale * dot;
            *o = match bias {
                Some(b) => v + b[j],
                None => v,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::simd::{force_isa, isa_override_test_lock, supported_isas};
    use crate::kernels::tolerance;
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
        let s = crate::quant::q8_block_scale(absmax);
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
        let s = crate::quant::q8_block_scale(1.0);
        quant_gemm_into(1, k, 1, &a, &w, None, Some(s), &mut out, &mut q);
        // Weights quantize to exactly 127 * scale each; the clamped
        // activations are +127 and -127 and cancel.
        assert_eq!(out[0], 0.0);
    }

    /// Satellite: cross-ISA bit-identity on the PR 4 shape grid plus blocked
    /// shapes, every supported ISA plus the dispatched default.
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
        // Blocked shapes: multiple KC slabs / several blocks per row.
        shapes.push((64, 160, 48));
        shapes.push((33, 257, 17));
        for (m, k, n) in shapes {
            let (a, b, bias) = random_problem(m, k, n, (m * 1000 + k * 10 + n) as u64);
            let w = QuantMatrix::from_b(&b, k, n);
            let prev = force_isa(Some(crate::kernels::Isa::Scalar));
            let want = run_quant(m, k, n, &a, &w, Some(&bias));
            force_isa(prev);
            let mut modes: Vec<Option<crate::kernels::Isa>> =
                supported_isas().into_iter().map(Some).collect();
            modes.push(None); // the dispatched default
            for mode in modes {
                let prev = force_isa(mode);
                let got = run_quant(m, k, n, &a, &w, Some(&bias));
                force_isa(prev);
                for (idx, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "[{m}x{k}x{n}] {mode:?} diverges at {idx}: {x:e} vs {y:e}"
                    );
                }
            }
        }
    }
}
