//! Order-safe vectorized elementwise kernels.
//!
//! The hot layers spend their non-GEMM time in a handful of elementwise
//! loops: ReLU forward/backward, bias broadcasts, `y += alpha * x` parameter
//! updates, scalar scaling and residual adds. Each kernel here has one
//! scalar reference implementation and SIMD instantiations over the
//! portable `F32x8` abstraction in [`super::simd`], selected per call by
//! [`super::simd::active_isa`].
//!
//! # Determinism
//!
//! Lanes are independent elements and every lane performs exactly the scalar
//! reference's operation sequence (a single IEEE add/mul, or a bitwise
//! select), so all backends are **bit-identical** — pinned by the
//! equivalence tests below across every [`super::simd::supported_isas`]
//! entry. [`axpy`], the only kernel here with an `a * x + y` chain, keeps the
//! multiply and the add as two roundings on every backend (see "Kernels never
//! fuse" in `docs/DETERMINISM.md`).
//!
//! ReLU is defined as the branchless select `x > 0.0 ? x : 0.0` (compare +
//! bitwise AND): identical to the previous `x.max(0.0)` for every input
//! except that a `-0.0` input now deterministically produces `+0.0` on all
//! backends (IEEE `maxNum` leaves the zero's sign unspecified), and a NaN
//! input produces `+0.0` on every backend. The backward mask is stored as
//! all-ones/all-zeros `u32` words so the gradient select is a single AND on
//! every backend.
#![allow(unsafe_code)] // SIMD instantiations; see `simd.rs` for the policy.

use super::simd::{active_isa, F32x8, Isa};

/// One ReLU forward element: branchless `x > 0.0` select (see module docs).
#[inline(always)]
fn relu_one(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// One ReLU mask word: all-ones where the input was strictly positive.
#[inline(always)]
fn relu_mask_one(x: f32) -> u32 {
    if x > 0.0 {
        u32::MAX
    } else {
        0
    }
}

/// One ReLU backward element: gradient bits AND mask word.
#[inline(always)]
fn relu_bwd_one(g: f32, m: u32) -> f32 {
    f32::from_bits(g.to_bits() & m)
}

// ---------------------------------------------------------------------------
// Generic vector bodies (instantiated per ISA below).
// ---------------------------------------------------------------------------

/// # Safety
///
/// `V`'s CPU feature must be active; `src.len() == dst.len()`.
#[inline(always)]
unsafe fn relu_fwd_v<V: F32x8>(src: &[f32], dst: &mut [f32]) {
    let n = src.len();
    let mut i = 0;
    while i + 8 <= n {
        let x = V::load(src.as_ptr().add(i));
        x.and(x.gt_zero_mask()).store(dst.as_mut_ptr().add(i));
        i += 8;
    }
    for j in i..n {
        dst[j] = relu_one(src[j]);
    }
}

/// # Safety
///
/// `V`'s CPU feature must be active.
#[inline(always)]
unsafe fn relu_inplace_v<V: F32x8>(data: &mut [f32]) {
    let n = data.len();
    let mut i = 0;
    while i + 8 <= n {
        let p = data.as_mut_ptr().add(i);
        let x = V::load(p);
        x.and(x.gt_zero_mask()).store(p);
        i += 8;
    }
    for v in &mut data[i..] {
        *v = relu_one(*v);
    }
}

/// # Safety
///
/// `V`'s CPU feature must be active; all three slices have equal length.
#[inline(always)]
unsafe fn relu_fwd_mask_v<V: F32x8>(src: &[f32], dst: &mut [f32], mask: &mut [u32]) {
    let n = src.len();
    let mut i = 0;
    while i + 8 <= n {
        let x = V::load(src.as_ptr().add(i));
        let m = x.gt_zero_mask();
        m.store(mask.as_mut_ptr().add(i).cast::<f32>());
        x.and(m).store(dst.as_mut_ptr().add(i));
        i += 8;
    }
    for j in i..n {
        mask[j] = relu_mask_one(src[j]);
        dst[j] = relu_one(src[j]);
    }
}

/// # Safety
///
/// `V`'s CPU feature must be active; all three slices have equal length.
#[inline(always)]
unsafe fn relu_bwd_v<V: F32x8>(grad: &[f32], mask: &[u32], dst: &mut [f32]) {
    let n = grad.len();
    let mut i = 0;
    while i + 8 <= n {
        let g = V::load(grad.as_ptr().add(i));
        let m = V::load(mask.as_ptr().add(i).cast::<f32>());
        g.and(m).store(dst.as_mut_ptr().add(i));
        i += 8;
    }
    for j in i..n {
        dst[j] = relu_bwd_one(grad[j], mask[j]);
    }
}

/// # Safety
///
/// `V`'s CPU feature must be active; `a`, `b` and `dst` have equal length.
#[inline(always)]
unsafe fn add_v<V: F32x8>(a: &[f32], b: &[f32], dst: &mut [f32]) {
    let n = a.len();
    let mut i = 0;
    while i + 8 <= n {
        let x = V::load(a.as_ptr().add(i));
        let y = V::load(b.as_ptr().add(i));
        x.add(y).store(dst.as_mut_ptr().add(i));
        i += 8;
    }
    for j in i..n {
        dst[j] = a[j] + b[j];
    }
}

/// # Safety
///
/// `V`'s CPU feature must be active; `x` and `y` have equal length.
#[inline(always)]
unsafe fn axpy_v<V: F32x8>(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let av = V::splat(alpha);
    let mut i = 0;
    while i + 8 <= n {
        let xv = V::load(x.as_ptr().add(i));
        let yv = V::load(y.as_ptr().add(i));
        yv.add(av.mul(xv)).store(y.as_mut_ptr().add(i));
        i += 8;
    }
    for j in i..n {
        y[j] += alpha * x[j];
    }
}

/// # Safety
///
/// `V`'s CPU feature must be active; `src` and `dst` have equal length.
#[inline(always)]
unsafe fn scale_v<V: F32x8>(src: &[f32], alpha: f32, dst: &mut [f32]) {
    let n = src.len();
    let av = V::splat(alpha);
    let mut i = 0;
    while i + 8 <= n {
        V::load(src.as_ptr().add(i))
            .mul(av)
            .store(dst.as_mut_ptr().add(i));
        i += 8;
    }
    for j in i..n {
        dst[j] = src[j] * alpha;
    }
}

/// # Safety
///
/// `V`'s CPU feature must be active; `data.len()` is a multiple of
/// `bias.len()`.
#[inline(always)]
unsafe fn bias_add_rows_v<V: F32x8>(data: &mut [f32], bias: &[f32]) {
    let c = bias.len();
    for row in data.chunks_exact_mut(c) {
        let mut i = 0;
        while i + 8 <= c {
            let b = V::load(bias.as_ptr().add(i));
            let o = V::load(row.as_ptr().add(i));
            o.add(b).store(row.as_mut_ptr().add(i));
            i += 8;
        }
        for j in i..c {
            row[j] += bias[j];
        }
    }
}

// ---------------------------------------------------------------------------
// Per-ISA instantiations + scalar reference loops.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
macro_rules! isa_instantiations {
    ($mod_name:ident, $vec:ty, $feature:literal) => {
        mod $mod_name {
            use super::super::simd::*;

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn relu_fwd(src: &[f32], dst: &mut [f32]) {
                super::relu_fwd_v::<$vec>(src, dst);
            }

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn relu_inplace(data: &mut [f32]) {
                super::relu_inplace_v::<$vec>(data);
            }

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn relu_fwd_mask(src: &[f32], dst: &mut [f32], mask: &mut [u32]) {
                super::relu_fwd_mask_v::<$vec>(src, dst, mask);
            }

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn relu_bwd(grad: &[f32], mask: &[u32], dst: &mut [f32]) {
                super::relu_bwd_v::<$vec>(grad, mask, dst);
            }

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn add(a: &[f32], b: &[f32], dst: &mut [f32]) {
                super::add_v::<$vec>(a, b, dst);
            }

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
                super::axpy_v::<$vec>(alpha, x, y);
            }

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn scale(src: &[f32], alpha: f32, dst: &mut [f32]) {
                super::scale_v::<$vec>(src, alpha, dst);
            }

            /// # Safety: caller must have verified the CPU feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn bias_add_rows(data: &mut [f32], bias: &[f32]) {
                super::bias_add_rows_v::<$vec>(data, bias);
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
isa_instantiations!(sse2, Sse2V, "sse2");
#[cfg(target_arch = "x86_64")]
isa_instantiations!(avx2, Avx2V, "avx2");

mod scalar {
    //! Scalar reference loops — the semantics every vector backend must
    //! reproduce bit-for-bit.

    pub(super) fn relu_fwd(src: &[f32], dst: &mut [f32]) {
        for (d, &x) in dst.iter_mut().zip(src.iter()) {
            *d = super::relu_one(x);
        }
    }

    pub(super) fn relu_inplace(data: &mut [f32]) {
        for v in data {
            *v = super::relu_one(*v);
        }
    }

    pub(super) fn relu_fwd_mask(src: &[f32], dst: &mut [f32], mask: &mut [u32]) {
        for ((d, m), &x) in dst.iter_mut().zip(mask.iter_mut()).zip(src.iter()) {
            *m = super::relu_mask_one(x);
            *d = super::relu_one(x);
        }
    }

    pub(super) fn relu_bwd(grad: &[f32], mask: &[u32], dst: &mut [f32]) {
        for ((d, &g), &m) in dst.iter_mut().zip(grad.iter()).zip(mask.iter()) {
            *d = super::relu_bwd_one(g, m);
        }
    }

    pub(super) fn add(a: &[f32], b: &[f32], dst: &mut [f32]) {
        for ((d, &x), &y) in dst.iter_mut().zip(a.iter()).zip(b.iter()) {
            *d = x + y;
        }
    }

    pub(super) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yv, &xv) in y.iter_mut().zip(x.iter()) {
            *yv += alpha * xv;
        }
    }

    pub(super) fn scale(src: &[f32], alpha: f32, dst: &mut [f32]) {
        for (d, &x) in dst.iter_mut().zip(src.iter()) {
            *d = x * alpha;
        }
    }

    pub(super) fn bias_add_rows(data: &mut [f32], bias: &[f32]) {
        for row in data.chunks_exact_mut(bias.len()) {
            for (o, &b) in row.iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
    }
}

/// Dispatches one elementwise kernel on the active ISA. The AVX-512 backend
/// reuses the AVX2 instantiation: these loops are memory-bound, so wider
/// vectors buy nothing, and 256-bit ops avoid license-based downclocking.
macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {
        match active_isa() {
            Isa::Scalar => scalar::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active_isa` only reports features the host has.
            Isa::Sse2 => unsafe { sse2::$name($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; AVX-512 hosts always have AVX2.
            Isa::Avx2 | Isa::Avx512 => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::$name($($arg),*),
        }
    };
}

/// `dst[i] = src[i] > 0.0 ? src[i] : 0.0`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn relu_fwd(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "relu_fwd length mismatch");
    dispatch!(relu_fwd(src, dst));
}

/// [`relu_fwd`] over a buffer the caller owns: `data[i] = data[i] > 0.0 ?
/// data[i] : 0.0`, the same select, so `-0.0` and NaN become `+0.0` here too.
pub fn relu_inplace(data: &mut [f32]) {
    dispatch!(relu_inplace(data));
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
    dispatch!(relu_fwd_mask(src, dst, mask));
}

/// `dst[i] = mask[i] all-ones ? grad[i] : 0.0` (bitwise AND select).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn relu_bwd(grad: &[f32], mask: &[u32], dst: &mut [f32]) {
    assert_eq!(grad.len(), dst.len(), "relu_bwd length mismatch");
    assert_eq!(grad.len(), mask.len(), "relu_bwd mask length mismatch");
    dispatch!(relu_bwd(grad, mask, dst));
}

/// `dst[i] = a[i] + b[i]` — the residual-add primitive.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add(a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    assert_eq!(a.len(), dst.len(), "add output length mismatch");
    dispatch!(add(a, b, dst));
}

/// `y[i] += alpha * x[i]` (one multiply, one add per element, each rounded —
/// the gradient-accumulation / SGD-update primitive).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    dispatch!(axpy(alpha, x, y));
}

/// `dst[i] = src[i] * alpha`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn scale(src: &[f32], alpha: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "scale length mismatch");
    dispatch!(scale(src, alpha, dst));
}

/// Adds `bias` to every `bias.len()`-wide row of `data` in place — the
/// column-broadcast bias pass of the fused GEMM+bias kernel.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `bias.len()` or `bias` is
/// empty.
pub fn bias_add_rows(data: &mut [f32], bias: &[f32]) {
    assert!(!bias.is_empty(), "bias_add_rows: empty bias");
    assert_eq!(
        data.len() % bias.len(),
        0,
        "bias_add_rows: data not a whole number of rows"
    );
    dispatch!(bias_add_rows(data, bias));
}

#[cfg(test)]
mod tests {
    use super::super::simd::{force_isa, isa_override_test_lock, supported_isas};
    use super::super::tolerance::assert_bits_eq;
    use super::*;
    use crate::rng::SeededRng;

    fn random_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| {
                // Sprinkle exact zeros and negatives so the select/mask
                // paths are exercised, not just the generic arithmetic.
                if rng.bernoulli(0.15) {
                    0.0
                } else {
                    rng.uniform(-3.0, 3.0)
                }
            })
            .collect()
    }

    /// Remainder-heavy lengths: everything from empty through several full
    /// vectors plus every possible tail.
    const LENS: [usize; 12] = [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 31, 67];

    /// Every elementwise kernel is bit-identical across every supported ISA
    /// (and the dispatched default), on remainder-heavy lengths.
    #[test]
    fn elementwise_kernels_bit_identical_across_isas() {
        let _lock = isa_override_test_lock();
        let mut rng = SeededRng::new(0x51_3D);
        for &n in &LENS {
            let src = random_vec(&mut rng, n);
            let other = random_vec(&mut rng, n);
            let alpha = rng.uniform(-2.0, 2.0);

            // Scalar reference results, via the scalar module directly so no
            // dispatch state can influence what the suite compares against.
            let mut fwd_ref = vec![f32::NAN; n];
            let mut mask_ref = vec![7u32; n];
            let mut fwd2_ref = vec![f32::NAN; n];
            scalar::relu_fwd(&src, &mut fwd_ref);
            scalar::relu_fwd_mask(&src, &mut fwd2_ref, &mut mask_ref);
            let mut bwd_ref = vec![f32::NAN; n];
            scalar::relu_bwd(&other, &mask_ref, &mut bwd_ref);
            let mut add_ref = vec![f32::NAN; n];
            scalar::add(&src, &other, &mut add_ref);
            let mut axpy_ref = src.clone();
            scalar::axpy(alpha, &other, &mut axpy_ref);
            let mut scale_ref = vec![f32::NAN; n];
            scalar::scale(&src, alpha, &mut scale_ref);

            let mut isa_modes: Vec<Option<crate::kernels::Isa>> =
                supported_isas().into_iter().map(Some).collect();
            isa_modes.push(None); // the dispatched default
            for mode in isa_modes {
                let prev = force_isa(mode);
                let tag = format!("n={n} isa={mode:?}");
                let mut out = vec![f32::NAN; n];
                relu_fwd(&src, &mut out);
                assert_bits_eq(&out, &fwd_ref, &format!("{tag} relu_fwd"));
                let mut owned = src.clone();
                relu_inplace(&mut owned);
                assert_bits_eq(&owned, &fwd_ref, &format!("{tag} relu_inplace"));
                let mut mask = vec![7u32; n];
                let mut out2 = vec![f32::NAN; n];
                relu_fwd_mask(&src, &mut out2, &mut mask);
                assert_bits_eq(&out2, &fwd_ref, &format!("{tag} relu_fwd_mask out"));
                assert_eq!(mask, mask_ref, "{tag} relu mask");
                let mut bwd = vec![f32::NAN; n];
                relu_bwd(&other, &mask, &mut bwd);
                assert_bits_eq(&bwd, &bwd_ref, &format!("{tag} relu_bwd"));
                let mut sum = vec![f32::NAN; n];
                add(&src, &other, &mut sum);
                assert_bits_eq(&sum, &add_ref, &format!("{tag} add"));
                let mut y = src.clone();
                axpy(alpha, &other, &mut y);
                assert_bits_eq(&y, &axpy_ref, &format!("{tag} axpy"));
                let mut sc = vec![f32::NAN; n];
                scale(&src, alpha, &mut sc);
                assert_bits_eq(&sc, &scale_ref, &format!("{tag} scale"));
                force_isa(prev);
            }
        }
    }

    /// The bias broadcast is bit-identical across ISAs for narrow and wide
    /// rows (tails within each row).
    #[test]
    fn bias_add_rows_bit_identical_across_isas() {
        let _lock = isa_override_test_lock();
        let mut rng = SeededRng::new(0xB1_A5);
        for &(rows, cols) in &[(1usize, 1usize), (3, 5), (4, 8), (5, 13), (2, 33)] {
            let base = random_vec(&mut rng, rows * cols);
            let bias = random_vec(&mut rng, cols);
            let mut expect = base.clone();
            scalar::bias_add_rows(&mut expect, &bias);
            for isa in supported_isas() {
                let prev = force_isa(Some(isa));
                let mut got = base.clone();
                bias_add_rows(&mut got, &bias);
                assert_bits_eq(&got, &expect, &format!("bias {rows}x{cols} {isa}"));
                force_isa(prev);
            }
        }
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
