//! Order-safe elementwise kernels.
//!
//! The hot layers spend their non-GEMM time in a handful of elementwise
//! loops: ReLU forward/backward, bias broadcasts, `y += alpha * x` parameter
//! updates, scalar scaling and residual adds. Each kernel here is one plain
//! per-element loop, vectorized by the compiler for the build's `target-cpu`
//! (`.cargo/config.toml`): every loop reads one or two streams, writes one
//! and carries no accumulator, so the vectorizer needs no help, and the
//! crate's explicit SIMD stays in the tiles of [`super::simd`].
//!
//! # Determinism
//!
//! Every element is one IEEE add or multiply, one multiply then one add, or a
//! bitwise select, so a vector lane computes exactly what the scalar loop
//! does and no non-NaN result depends on the vector width — pinned by the
//! semantics suite below, which checks each kernel against its per-element
//! formula on special values. [`axpy`], the only kernel here with an
//! `a * x + y` chain, keeps the multiply and the add as two roundings (see
//! "Kernels never fuse" in `docs/DETERMINISM.md`). Which payload a sum or
//! product of two NaNs carries is the compiler's choice.
//!
//! ReLU is defined as the branchless select `x > 0.0 ? x : 0.0`: identical to
//! `x.max(0.0)` for every input except that a `-0.0` input deterministically
//! produces `+0.0` (IEEE `maxNum` leaves the zero's sign unspecified), and a
//! NaN input produces `+0.0`. The backward mask is stored as
//! all-ones/all-zeros `u32` words so the gradient select is a single AND.

/// One ReLU forward element: the `x > 0.0` select (see module docs).
#[inline(always)]
fn relu_one(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// `dst[i] = src[i] > 0.0 ? src[i] : 0.0`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn relu_fwd(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "relu_fwd length mismatch");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = relu_one(x);
    }
}

/// [`relu_fwd`] over a buffer the caller owns: `data[i] = data[i] > 0.0 ?
/// data[i] : 0.0`, the same select, so `-0.0` and NaN become `+0.0` here too.
pub fn relu_inplace(data: &mut [f32]) {
    for v in data {
        *v = relu_one(*v);
    }
}

/// ReLU forward that also records the backward mask: `mask[i]` is all-ones
/// where `src[i] > 0.0`, zero elsewhere.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn relu_fwd_mask(src: &[f32], dst: &mut [f32], mask: &mut [u32]) {
    assert_eq!(src.len(), dst.len(), "relu_fwd_mask length mismatch");
    assert_eq!(src.len(), mask.len(), "relu_fwd_mask mask length mismatch");
    for ((d, m), &x) in dst.iter_mut().zip(mask.iter_mut()).zip(src) {
        *m = if x > 0.0 { u32::MAX } else { 0 };
        *d = relu_one(x);
    }
}

/// `dst[i] = mask[i] all-ones ? grad[i] : 0.0` (bitwise AND select).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn relu_bwd(grad: &[f32], mask: &[u32], dst: &mut [f32]) {
    assert_eq!(grad.len(), dst.len(), "relu_bwd length mismatch");
    assert_eq!(grad.len(), mask.len(), "relu_bwd mask length mismatch");
    for ((d, &g), &m) in dst.iter_mut().zip(grad).zip(mask) {
        *d = f32::from_bits(g.to_bits() & m);
    }
}

/// `dst[i] = a[i] + b[i]` — the residual-add primitive.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add(a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    assert_eq!(a.len(), dst.len(), "add output length mismatch");
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x + y;
    }
}

/// `y[i] += alpha * x[i]` (one multiply, one add per element, each rounded —
/// the gradient-accumulation / SGD-update primitive).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `dst[i] = src[i] * alpha`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn scale(src: &[f32], alpha: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "scale length mismatch");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = x * alpha;
    }
}

/// Adds `bias` to every `bias.len()`-wide row of `data` in place — the
/// column-broadcast bias pass of the fused GEMM+bias kernel. Rows of width
/// zero (an empty `bias` over empty `data`) leave nothing to add.
///
/// # Panics
///
/// Panics if `data` is not a whole number of rows: its length is not a
/// multiple of `bias.len()` (only empty `data` is a multiple of zero).
pub fn bias_add_rows(data: &mut [f32], bias: &[f32]) {
    assert!(
        data.len().is_multiple_of(bias.len()),
        "bias_add_rows: data not a whole number of rows"
    );
    if bias.is_empty() {
        return;
    }
    for row in data.chunks_exact_mut(bias.len()) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tolerance::assert_bits_eq;
    use super::*;
    use crate::rng::SeededRng;

    /// Signed zeros, infinities, NaN, the smallest and the largest
    /// subnormal of both signs, the smallest normal and two ordinary values.
    const SPECIALS: [f32; 12] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        -f32::from_bits(0x007F_FFFF),
        f32::MIN_POSITIVE,
        1.5,
        -2.25,
    ];

    /// `len` values, every other one drawn from [`SPECIALS`] starting at
    /// `shift`, the rest random: an operand of 24 elements or more carries
    /// every special value, and two operands of different `shift` pair them
    /// differently.
    fn operand(rng: &mut SeededRng, len: usize, shift: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if i % 2 == 0 {
                    SPECIALS[(i / 2 + shift) % SPECIALS.len()]
                } else {
                    rng.uniform(-3.0, 3.0)
                }
            })
            .collect()
    }

    /// Equal bits, or both NaN: which payload a NaN result carries is not
    /// part of the contract.
    fn assert_same_values(got: &[f32], want: &[f32], tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{tag}: element {i} is {g} ({:#010x}), want {w} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Every public kernel computes its per-element formula on lengths 0-67
    /// (every vector tail of every width), with signed zeros, infinities,
    /// NaN and subnormals in every operand, `alpha` included.
    #[test]
    fn elementwise_kernels_follow_their_per_element_formulas() {
        let mut rng = SeededRng::new(0x51_3D);
        let alphas = [0.75, -0.0, f32::INFINITY, f32::NAN, -f32::from_bits(3)];
        for n in 0..=67 {
            let a = operand(&mut rng, n, 0);
            let b = operand(&mut rng, n, 5);
            let tag = |kernel: &str| format!("{kernel} n={n}");

            let relu_want: Vec<f32> = a.iter().map(|&x| if x > 0.0 { x } else { 0.0 }).collect();
            let mask_want: Vec<u32> = a
                .iter()
                .map(|&x| if x > 0.0 { u32::MAX } else { 0 })
                .collect();
            let mut out = vec![f32::NAN; n];
            relu_fwd(&a, &mut out);
            assert_bits_eq(&out, &relu_want, &tag("relu_fwd"));
            let mut owned = a.clone();
            relu_inplace(&mut owned);
            assert_bits_eq(&owned, &relu_want, &tag("relu_inplace"));
            let (mut out, mut mask) = (vec![f32::NAN; n], vec![7u32; n]);
            relu_fwd_mask(&a, &mut out, &mut mask);
            assert_bits_eq(&out, &relu_want, &tag("relu_fwd_mask out"));
            assert_eq!(mask, mask_want, "{}", tag("relu_fwd_mask mask"));

            let bwd_want: Vec<f32> = b
                .iter()
                .zip(&mask_want)
                .map(|(&g, &m)| if m == u32::MAX { g } else { 0.0 })
                .collect();
            let mut out = vec![f32::NAN; n];
            relu_bwd(&b, &mask_want, &mut out);
            assert_bits_eq(&out, &bwd_want, &tag("relu_bwd"));

            let add_want: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
            let mut out = vec![f32::NAN; n];
            add(&a, &b, &mut out);
            assert_same_values(&out, &add_want, &tag("add"));

            for alpha in alphas {
                let tag = |kernel: &str| format!("{kernel} n={n} alpha={alpha}");
                let axpy_want: Vec<f32> = b.iter().zip(&a).map(|(&y, &x)| y + alpha * x).collect();
                let mut y = b.clone();
                axpy(alpha, &a, &mut y);
                assert_same_values(&y, &axpy_want, &tag("axpy"));
                let scale_want: Vec<f32> = a.iter().map(|&x| x * alpha).collect();
                let mut out = vec![f32::NAN; n];
                scale(&a, alpha, &mut out);
                assert_same_values(&out, &scale_want, &tag("scale"));
            }

            // Three rows of width `n`, `b` the bias (`n = 0`: zero-width rows).
            let data = operand(&mut rng, 3 * n, 3);
            let bias_want: Vec<f32> = data
                .chunks(n.max(1))
                .flat_map(|row| row.iter().zip(&b).map(|(&o, &c)| o + c))
                .collect();
            let mut got = data.clone();
            bias_add_rows(&mut got, &b);
            assert_same_values(&got, &bias_want, &tag("bias_add_rows"));
        }
    }

    /// `axpy` rounds the product before the sum. With `alpha = x = 1 + 2^-12`
    /// the exact product `1 + 2^-11 + 2^-24` rounds (ties to even) to
    /// `1 + 2^-11`, which `y = -(1 + 2^-11)` cancels to `+0.0`; a fused
    /// multiply-add would keep the `2^-24`.
    #[test]
    fn axpy_rounds_the_product_before_the_sum() {
        let alpha = 1.0 + 2f32.powi(-12);
        let y0 = -(1.0 + 2f32.powi(-11));
        // The fused result, exact in `f64`: a product of two `f32` fits its
        // mantissa, and so does this sum.
        let fused = (f64::from(alpha) * f64::from(alpha) + f64::from(y0)) as f32;
        assert_eq!(fused, 2f32.powi(-24));
        for n in [1, 8, 16, 67] {
            let mut y = vec![y0; n];
            axpy(alpha, &vec![alpha; n], &mut y);
            assert_bits_eq(&y, &vec![0.0; n], &format!("axpy n={n}"));
        }
    }

    #[test]
    #[should_panic(expected = "not a whole number of rows")]
    fn bias_add_rows_rejects_data_without_rows() {
        bias_add_rows(&mut [1.0], &[]);
    }

    #[test]
    #[should_panic(expected = "not a whole number of rows")]
    fn bias_add_rows_rejects_a_partial_row() {
        bias_add_rows(&mut [1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    fn relu_semantics_on_special_values() {
        let src = [f32::NAN, -0.0, 0.0, -1.5, 2.5, f32::NEG_INFINITY];
        let mut out = [f32::NAN; 6];
        relu_fwd(&src, &mut out);
        assert_eq!(out[0].to_bits(), 0.0f32.to_bits(), "NaN clamps to +0.0");
        assert_eq!(out[1].to_bits(), 0.0f32.to_bits(), "-0.0 clamps to +0.0");
        assert_eq!(out[2].to_bits(), 0.0f32.to_bits());
        assert_eq!(out[3], 0.0);
        assert_eq!(out[4], 2.5);
        assert_eq!(out[5], 0.0);
        let mut owned = src;
        relu_inplace(&mut owned);
        assert_bits_eq(&owned, &out, "relu_inplace on special values");
    }

    #[test]
    fn relu_bwd_masks_negative_gradients_to_positive_zero() {
        // The masked-out lanes must be +0.0 even for negative gradients
        // (a multiply-by-mask implementation would yield -0.0).
        let grad = [-3.0f32, -4.0, 5.0];
        let mask = [0u32, u32::MAX, 0];
        let mut out = [f32::NAN; 3];
        relu_bwd(&grad, &mask, &mut out);
        assert_eq!(out[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(out[1], -4.0);
        assert_eq!(out[2].to_bits(), 0.0f32.to_bits());
    }
}
