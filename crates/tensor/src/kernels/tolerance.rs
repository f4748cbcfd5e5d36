//! The comparison harness behind the numeric contracts.
//!
//! The f32 equivalence suites assert **bit** equality against the retained
//! [`super::naive`] references ([`assert_bits_eq`]). The quantized (Q8_0)
//! path is only *close* to the f32 network — and "close" needs a principled
//! definition or its suites degenerate into rubber stamps. This module
//! provides it:
//!
//! * [`ulp_distance`] — order-exact distance between two floats in units in
//!   the last place, for asserting that two paths differ (or not) at
//!   last-ulp resolution.
//! * [`accumulation_bound`] — the worst-case absolute divergence between
//!   any two rounding schedules of the same `steps`-step `f32` dot-product
//!   accumulation, derived from the standard `γ_k = k·ε/(1 − k·ε)` forward
//!   error model: each schedule errs at most `γ_k · Σ|aₚ·bₚ|` from the exact
//!   value, so two sit within twice that of each other. The bound scales
//!   with the data (`Σ|aₚ·bₚ|`, computed in `f64`), not with a hand-tuned
//!   epsilon. The quantized GEMM's `f64`-reference suite leans on it.
//! * [`quantization_bound`] / [`check_quantized`] — the per-value half-step
//!   bound behind the **quantized-tolerance** contract: Q8_0 block scales
//!   are powers of two, so rounding to the int8 grid is the only error
//!   source and half a scale step is a tight bound, not an estimate.
//! * [`check_within`] — the non-panicking checker underneath (tests of the
//!   harness itself assert `Err` without `catch_unwind`).
//!
//! The harness's own tests pin its *tightness*: seeded single-step cases
//! where a fused and a mul-then-add step provably differ in the last ulp
//! must be detected by [`ulp_distance`], sit within the one-step bound, and
//! fail a zero bound — a harness that silently passes everything cannot
//! survive them.

/// Asserts two `f32` slices are identical **bit for bit**, reporting the
/// first diverging element with `tag`. The single shared implementation of
/// the bit-equality check every equivalence and determinism suite uses.
///
/// # Panics
///
/// Panics with `tag` on a length mismatch or any bit-level difference.
pub fn assert_bits_eq(a: &[f32], b: &[f32], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{tag}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Maps a finite `f32` onto a signed integer line where consecutive
/// representable values differ by exactly 1 (two's-complement trick; both
/// zeros map to 0).
fn ordered_key(x: f32) -> i64 {
    let bits = x.to_bits();
    if bits & 0x8000_0000 != 0 {
        -((bits & 0x7FFF_FFFF) as i64)
    } else {
        bits as i64
    }
}

/// Distance between two floats in units in the last place, counted across
/// the representable values between them (0 when bit-identical or `±0.0`
/// vs `∓0.0`; 1 for adjacent representables, crossing zero included).
///
/// Returns `u64::MAX` if either input is NaN — NaNs have no meaningful
/// neighborhood, and saturating keeps a corrupted kernel from slipping
/// through a finite bound.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    ordered_key(a).abs_diff(ordered_key(b))
}

/// Worst-case absolute divergence between any two rounding schedules (e.g.
/// fused vs mul-then-add) of one `steps`-step `f32` accumulation whose
/// per-step product magnitudes sum to `scale` (= `Σ|aₚ·bₚ| + |seed|`,
/// computed in `f64`).
///
/// Standard forward error analysis bounds each schedule within
/// `γ_k · scale` of the exact sum, `γ_k = k·ε/(1 − k·ε)`, so two schedules
/// sit within `2·γ_k · scale` of each other. One `f32::MIN_POSITIVE` of
/// absolute slack absorbs subnormal rounding at scales near zero.
pub fn accumulation_bound(steps: usize, scale: f64) -> f64 {
    let k = steps as f64;
    let eps = f64::from(f32::EPSILON);
    let gamma = (k * eps) / (1.0 - k * eps);
    2.0 * gamma * scale + f64::from(f32::MIN_POSITIVE)
}

/// Checks `|got[i] − want[i]| ≤ bounds[i]` elementwise, reporting the first
/// violation (index, values, bound) instead of panicking. NaN or infinite
/// `got` values fail unless `want` is bit-identical.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn check_within(got: &[f32], want: &[f32], bounds: &[f64]) -> Result<(), String> {
    assert_eq!(got.len(), want.len(), "tolerance check: length mismatch");
    assert_eq!(got.len(), bounds.len(), "tolerance check: bounds mismatch");
    for (i, ((&g, &w), &bound)) in got.iter().zip(want.iter()).zip(bounds.iter()).enumerate() {
        if g.to_bits() == w.to_bits() {
            continue;
        }
        let diff = (f64::from(g) - f64::from(w)).abs();
        if !diff.is_finite() || diff > bound {
            return Err(format!(
                "element {i}: got {g} vs reference {w} \
                 (|diff| = {diff:.3e} > bound {bound:.3e}, ulp distance {})",
                ulp_distance(g, w)
            ));
        }
    }
    Ok(())
}

/// Worst-case absolute reconstruction error of one value quantized to Q8_0
/// with block scale `scale`: half a quantization step. Because every block
/// scale is a power of two ([`crate::quant::q8_block_scale`]), `x / scale`
/// is exact and rounding to the int8 grid is the *only* error source — the
/// half-ulp bound is tight, not an estimate. One `f32::MIN_POSITIVE` of
/// slack absorbs subnormal rounding when the scale clamp engages.
///
/// This is the per-value term of the `quantized-tolerance` contract
/// ([`super::NumericContract::QuantizedTolerance`]); reductions over
/// quantized values additionally accrue [`accumulation_bound`] across their
/// block sums.
pub fn quantization_bound(scale: f32) -> f64 {
    debug_assert!(scale >= 0.0);
    0.5 * f64::from(scale) + f64::from(f32::MIN_POSITIVE)
}

/// [`check_within`] for quantized reconstructions: `got` (the dequantized
/// values) must sit within [`quantization_bound`]`(scales[i])` of `want`
/// (the f32 originals), with one scale per element (broadcast a block's
/// scale across its 32 values).
pub fn check_quantized(got: &[f32], want: &[f32], scales: &[f32]) -> Result<(), String> {
    let bounds: Vec<f64> = scales.iter().map(|&s| quantization_bound(s)).collect();
    check_within(got, want, &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn ulp_distance_counts_representable_steps() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        // Crossing zero counts the representables in between.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(tiny, -tiny), 2);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
    }

    /// The harness must *detect* last-ulp FMA divergence: seeded single-step
    /// cases where `fma(a, b, c)` and `a*b + c` provably differ must report
    /// a nonzero ulp distance, sit inside the one-step accumulation bound,
    /// and **fail** a zero bound. A harness that silently passes everything
    /// dies here.
    #[test]
    fn single_step_fma_divergence_is_detected_and_tightly_bounded() {
        let mut rng = SeededRng::new(0xFA_57);
        let mut diverging = 0usize;
        for _ in 0..4000 {
            let a = rng.uniform(-2.0, 2.0);
            let b = rng.uniform(-2.0, 2.0);
            let c = rng.uniform(-2.0, 2.0);
            let fused = a.mul_add(b, c);
            let unfused = a * b + c;
            let scale = f64::from(a).abs() * f64::from(b).abs() + f64::from(c).abs();
            // Both schedules always sit within the one-step bound...
            check_within(&[fused], &[unfused], &[accumulation_bound(1, scale)])
                .expect("one fused step must stay within the 1-step bound");
            if fused.to_bits() != unfused.to_bits() {
                diverging += 1;
                // ...and genuinely differing cases are seen by the harness:
                // nonzero ulp distance, and a zero bound rejects them.
                assert!(ulp_distance(fused, unfused) >= 1);
                assert!(
                    check_within(&[fused], &[unfused], &[0.0]).is_err(),
                    "a zero bound must fail on {a} * {b} + {c}"
                );
                // Away from cancellation the divergence is at most a couple
                // of ulps — the bound is doing real work, not hiding slack.
                if f64::from(fused).abs() > 0.25 * scale {
                    assert!(
                        ulp_distance(fused, unfused) <= 4,
                        "non-cancelling fma divergence should be last-ulp: \
                         {a} * {b} + {c} -> {fused} vs {unfused}"
                    );
                }
            }
        }
        assert!(
            diverging > 100,
            "seeded sweep must hit many genuinely diverging cases, got {diverging}"
        );
    }

    /// The quantized-tolerance harness must *detect* genuine quantization
    /// error, exactly as the fma teeth test above detects fused rounding:
    /// seeded adversarial blocks — all-max ties, tiny-scale (subnormal)
    /// blocks, sign-flip patterns — reconstruct within the half-step
    /// [`quantization_bound`], genuinely diverging values report a nonzero
    /// ulp distance, and a **zero** bound must fail on them. A harness that
    /// rubber-stamps everything dies here.
    #[test]
    fn quantization_divergence_is_detected_and_tightly_bounded() {
        use crate::quant::{dequantize, quantize_block, QK8_0};

        fn exercise(src: &[f32; QK8_0], diverging: &mut usize, tag: &str) {
            let block = quantize_block(src);
            let mut out = [0.0f32; QK8_0];
            dequantize(&[block], &mut out);
            let scales = [block.scale; QK8_0];
            check_quantized(&out, src, &scales)
                .unwrap_or_else(|e| panic!("{tag}: reconstruction broke the half-step bound: {e}"));
            for (&g, &w) in out.iter().zip(src.iter()) {
                if (f64::from(g) - f64::from(w)).abs() > 0.0 {
                    *diverging += 1;
                    assert!(ulp_distance(g, w) >= 1);
                    assert!(
                        check_within(&[g], &[w], &[0.0]).is_err(),
                        "{tag}: a zero bound must fail on {w} -> {g}"
                    );
                }
            }
        }

        let mut rng = SeededRng::new(0x08_00);
        let mut diverging = 0usize;
        for _ in 0..200 {
            // All-max ties: every entry is ±absmax, so every entry carries
            // the identical (usually nonzero) rounding error.
            let absmax = rng.uniform(0.5, 2.0);
            let mut ties = [0.0f32; QK8_0];
            for v in ties.iter_mut() {
                *v = if rng.bernoulli(0.5) { absmax } else { -absmax };
            }
            exercise(&ties, &mut diverging, "all-max ties");

            // Tiny-scale blocks: subnormal magnitudes engage the 2^-126
            // scale clamp, the regime the MIN_POSITIVE slack exists for.
            let mut tiny = [0.0f32; QK8_0];
            for v in tiny.iter_mut() {
                let sub = f32::from_bits((rng.next_u64() % (1u64 << 23)) as u32);
                *v = if rng.bernoulli(0.5) { sub } else { -sub };
            }
            exercise(&tiny, &mut diverging, "tiny-scale");

            // Sign flips: alternating signs with varied magnitudes, rounding
            // in both directions within one block.
            let mut flips = [0.0f32; QK8_0];
            for (i, v) in flips.iter_mut().enumerate() {
                let mag = rng.uniform(0.01, 1.0);
                *v = if i % 2 == 0 { mag } else { -mag };
            }
            exercise(&flips, &mut diverging, "sign flips");
        }
        assert!(
            diverging > 1000,
            "seeded sweep must hit many genuinely diverging values, got {diverging}"
        );
    }

    /// [`check_quantized`] rejects values beyond the half-step bound —
    /// the quantized contract has teeth against a broken kernel, not just
    /// against rounding.
    #[test]
    fn check_quantized_rejects_beyond_half_step_values() {
        let want = [1.0f32, -0.5, 0.25];
        let scales = [0.015625f32; 3]; // 2^-6
        let mut got = want;
        got[1] += 0.0079; // just beyond scale/2 = 0.0078125
        assert!(check_quantized(&got, &want, &scales).is_err());
        let mut close = want;
        close[2] += 0.0078; // just inside
        assert!(check_quantized(&close, &want, &scales).is_ok());
        // NaN never passes.
        let bad = [f32::NAN, -0.5, 0.25];
        assert!(check_quantized(&bad, &want, &scales).is_err());
        // Zero scale admits only exact (or subnormal-slack) reconstruction.
        assert!(check_quantized(&[0.5], &[1.0], &[0.0]).is_err());
        assert!(check_quantized(&[1.0], &[1.0], &[0.0]).is_ok());
    }
}
