//! The comparison harness behind the numeric contracts.
//!
//! * [`assert_bits_eq`] — the **bit**-equality check every equivalence suite
//!   asserts against its reference: the f32 kernels against the retained
//!   [`super::naive`] loops, the Q8_0 tier against the quantized GEMM's row
//!   loop ([`super::naive::quant_matmul_naive`]).
//! * [`accumulation_bound`] — the worst-case absolute divergence between
//!   any two rounding schedules of the same `steps`-step `f32` dot-product
//!   accumulation, derived from the standard `γ_k = k·ε/(1 − k·ε)` forward
//!   error model: each schedule errs at most `γ_k · Σ|aₚ·bₚ|` from the exact
//!   value, so two sit within twice that of each other. The bound scales
//!   with the data (`Σ|aₚ·bₚ|`, computed in `f64`), not with a hand-tuned
//!   epsilon. The quantized GEMM's `f64`-reference suite leans on it.
//!
//! What the quantized tier may differ from the f32 network by is bounded per
//! weight by [`crate::quant::q8_error_bound`].

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

/// Worst-case absolute divergence between any two rounding schedules of one
/// `steps`-step `f32` accumulation whose per-step product magnitudes sum to
/// `scale` (= `Σ|aₚ·bₚ| + |seed|`, computed in `f64`).
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
