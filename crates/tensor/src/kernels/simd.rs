//! Explicit-SIMD backend: runtime ISA detection, the vectorized GEMM
//! microkernels and the convolution tile kernel.
//!
//! The autovectorized microkernel from the blocked-GEMM layer is at the mercy
//! of the compiler's loop vectorizer (and of whatever `-C target-cpu` the
//! binary was built with). This module takes that out of the compiler's
//! hands: a small portable `f32x8` abstraction (the `F32x8` trait) with SSE2 and AVX2
//! implementations, an AVX-512 widened microkernel, and a cached runtime
//! CPU-feature dispatch ([`active_isa`]) that picks the widest instruction
//! set the host actually supports — independent of how the binary was
//! compiled. The standard convolution's forward (`conv_forward`) is here
//! too: one inner loop (`conv_tile`) over sixteen output channels per vector
//! row, instantiated per backend with as many output positions per tile as
//! its register file holds. Its Q8_0 twin (`q8_conv_forward`) runs the same
//! tiles with exact integer block dots (`q8_tile`) and hands them to the same
//! tile store.
//!
//! # Determinism contract
//!
//! The f32 kernel layer has one numeric contract, bit-identical-to-seed (see
//! `docs/DETERMINISM.md` and [`super::numeric_contract`]): every vector path
//! performs, per output element, **exactly the same sequence of IEEE-754
//! operations** as the scalar reference. Lanes are independent output
//! elements, products are accumulated in ascending inner-dimension order, and
//! multiplication and addition stay separate instructions (`mulps` + `addps`,
//! never a fused multiply-add — whether the host has one must not change the
//! bytes). SIMD results are therefore bit-identical to the scalar kernels on
//! every ISA — pinned by the equivalence suites, which re-run the kernels
//! under every [`supported_isas`] entry.
//!
//! # Forcing a backend
//!
//! * `APPEALNET_FORCE_SCALAR=1` (environment, read once) pins detection to
//!   [`Isa::Scalar`] for the whole process — the CI fallback job uses this.
//! * [`force_isa`] installs a process-wide override at runtime (clamped to
//!   what the host supports); tests and benches use it to compare backends
//!   inside one process. All backends are bit-identical, so flipping the
//!   override concurrently with other work can only change speed, never
//!   results.
#![allow(unsafe_code)] // The one module allowed to use std::arch intrinsics.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use super::gemm::{MR, NR};
use super::scratch::GrowBuf;
use crate::quant::{quantize_row_into, QK8_0};

/// An instruction-set backend for the compute kernels, ordered from
/// narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Plain Rust loops (whatever the compiler autovectorizes them to).
    Scalar,
    /// 128-bit SSE2 vectors (baseline on every `x86_64`).
    Sse2,
    /// 256-bit AVX2 vectors.
    Avx2,
    /// 512-bit AVX-512F vectors (widened `8 x 16` GEMM microkernel).
    Avx512,
}

impl Isa {
    /// Short lowercase name, for reports and debug output.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    fn from_index(i: u8) -> Isa {
        match i {
            0 => Isa::Scalar,
            1 => Isa::Sse2,
            2 => Isa::Avx2,
            _ => Isa::Avx512,
        }
    }

    fn index(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Sse2 => 1,
            Isa::Avx2 => 2,
            Isa::Avx512 => 3,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `ISA_OVERRIDE` encoding: 0 = no override, otherwise `Isa::index() + 1`.
static ISA_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Widest ISA the host supports (respecting `APPEALNET_FORCE_SCALAR`),
/// detected once per process.
fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let forced_scalar =
            std::env::var("APPEALNET_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
        if forced_scalar {
            return Isa::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return Isa::Sse2;
            }
        }
        Isa::Scalar
    })
}

/// The ISA the kernels currently dispatch to: the [`force_isa`] override if
/// one is installed, otherwise the detected host maximum.
pub fn active_isa() -> Isa {
    match ISA_OVERRIDE.load(Ordering::Relaxed) {
        0 => detected_isa(),
        n => Isa::from_index(n - 1),
    }
}

/// Installs (or clears, with `None`) a process-wide ISA override and returns
/// the override that was previously in place.
///
/// The request is clamped to the detected host maximum — forcing AVX2 on a
/// host without it silently degrades to the widest supported backend, so the
/// kernels can never execute instructions the CPU lacks. Intended for tests
/// and benches. Every backend is bit-identical, so a concurrently flipped
/// override can change performance but never results.
pub fn force_isa(isa: Option<Isa>) -> Option<Isa> {
    let encoded = match isa {
        None => 0,
        Some(req) => req.min(detected_isa()).index() + 1,
    };
    match ISA_OVERRIDE.swap(encoded, Ordering::Relaxed) {
        0 => None,
        n => Some(Isa::from_index(n - 1)),
    }
}

/// Every backend this host can run, narrowest first (always starts with
/// [`Isa::Scalar`]). Equivalence suites iterate this to pin bit-identity on
/// each dispatchable path.
pub fn supported_isas() -> Vec<Isa> {
    let max = detected_isa();
    [Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|isa| *isa <= max)
        .collect()
}

/// `true` when the active ISA has the widened `2*MR x NR` paired-strip GEMM
/// microkernel (AVX-512: eight 16-lane accumulator chains saturate both
/// 512-bit vector ports, which the `MR x NR` tile alone cannot).
pub(crate) fn has_paired_microkernel(isa: Isa) -> bool {
    cfg!(target_arch = "x86_64") && isa == Isa::Avx512
}

// ---------------------------------------------------------------------------
// The portable 8-lane vector abstraction.
// ---------------------------------------------------------------------------

/// Eight `f32` lanes with the handful of operations the kernels need.
///
/// Implementations must be **lanewise IEEE-754 exact**: `add`/`mul` are the
/// plain (unfused) operations, `gt_zero_mask` yields all-ones/all-zeros lane
/// bit-masks from an ordered quiet `>` compare, and `load`/`store` preserve
/// bit patterns (including NaN payloads — masks travel through these
/// registers).
///
/// # Safety
///
/// `load`/`store` dereference raw pointers (8 lanes' worth), and every
/// method of a SIMD implementation must only be executed on hosts where the
/// corresponding CPU feature is available; [`active_isa`] guarantees this
/// for all dispatched calls.
pub(crate) trait F32x8: Copy {
    /// Loads 8 consecutive lanes from `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr..ptr+8` must be readable; the impl's CPU feature must be active.
    unsafe fn load(ptr: *const f32) -> Self;
    /// Stores 8 consecutive lanes to `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr..ptr+8` must be writable; the impl's CPU feature must be active.
    unsafe fn store(self, ptr: *mut f32);
    /// Broadcasts one value to all lanes.
    fn splat(v: f32) -> Self;
    /// Lanewise `self + other` (single IEEE addition per lane).
    fn add(self, other: Self) -> Self;
    /// Lanewise `self * other` (single IEEE multiplication per lane).
    fn mul(self, other: Self) -> Self;
    /// Lanewise `self > 0.0` as an all-ones/all-zeros bit mask
    /// (ordered, quiet: NaN lanes compare false).
    fn gt_zero_mask(self) -> Self;
    /// Lanewise bitwise AND.
    fn and(self, other: Self) -> Self;
}

/// Lanes of one output-channel block of the convolution kernel, and the
/// width of a weight-panel row (`kernels/window.rs`). A property of the panel
/// layout, not of the backend: every ISA reads the same panels.
pub(crate) const OC_LANES: usize = 16;

/// Output positions per convolution tile — what each backend's register file
/// holds as `OC_LANES`-wide accumulators next to one weight row: twelve of
/// 32 `zmm`, six pairs of 16 `ymm`, two quads of 16 `xmm`.
#[cfg(target_arch = "x86_64")]
const CONV_ROWS_AVX512: usize = 12;
#[cfg(target_arch = "x86_64")]
const CONV_ROWS_AVX2: usize = 6;
#[cfg(target_arch = "x86_64")]
const CONV_ROWS_SSE2: usize = 2;
/// The scalar tile's rows, those of the scalar GEMM microkernel.
const CONV_ROWS_SCALAR: usize = MR;

/// [`OC_LANES`] `f32` lanes — one accumulator row of the convolution tile —
/// with the one arithmetic step its inner loop takes.
///
/// # Safety
///
/// As for [`F32x8`]: `load`/`store` dereference raw pointers ([`OC_LANES`]
/// lanes' worth), and an implementation may only execute on hosts with its
/// CPU feature.
#[cfg(target_arch = "x86_64")]
pub(crate) trait Lanes16: Copy {
    /// Loads [`OC_LANES`] consecutive lanes from `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr..ptr+OC_LANES` must be readable; the impl's CPU feature must be
    /// active.
    unsafe fn load(ptr: *const f32) -> Self;
    /// Stores [`OC_LANES`] consecutive lanes to `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr..ptr+OC_LANES` must be writable; the impl's CPU feature must be
    /// active.
    unsafe fn store(self, ptr: *mut f32);
    /// Lanewise `self + w * x`, the product rounded before the sum (two IEEE
    /// roundings per lane).
    fn mul_acc(self, w: Self, x: f32) -> Self;
}

/// The convolution tile's one inner loop, for every vector backend: `R`
/// output positions by [`OC_LANES`] output channels,
/// `acc[r][lane] = seed[lane]; for p ascending: acc[r][lane] += w[p][lane] *
/// x[taps[p] + offs[r]]` — the weight row one vector load, the activation a
/// scalar broadcast addressed through the window table. Lanes and rows are
/// independent output elements, so per element this is the scalar
/// reference's operation sequence.
///
/// # Safety
///
/// Caller must guarantee `V`'s CPU feature is active, `w.len() >=
/// taps.len() * OC_LANES`, and `taps[p] + offs[r] < x.len()` for every `p`
/// and `r`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn conv_tile<V: Lanes16, const R: usize>(
    w: &[f32],
    seed: &[f32; OC_LANES],
    taps: &[u32],
    offs: &[usize; R],
    x: &[f32],
    acc: &mut [[f32; OC_LANES]; R],
) {
    debug_assert!(w.len() >= taps.len() * OC_LANES);
    let mut c = [V::load(seed.as_ptr()); R];
    let mut wp = w.as_ptr();
    for &tap in taps {
        let wv = V::load(wp);
        let xt = x.as_ptr().add(tap as usize);
        for (cr, &o) in c.iter_mut().zip(offs) {
            *cr = cr.mul_acc(wv, *xt.add(o));
        }
        wp = wp.add(OC_LANES);
    }
    for (cr, row) in c.iter().zip(acc.iter_mut()) {
        cr.store(row.as_mut_ptr());
    }
}

/// [`OC_LANES`] `i32` lanes — one Q8 block's dots of one output position
/// against sixteen filters — and the two `f32` steps that follow them. The
/// dots are integer arithmetic on values bounded by `32 * 127²`: exact, in
/// any order. The `f32` steps are lanewise, a multiply and then an add.
///
/// # Safety
///
/// As for [`Lanes16`]: the pointer methods dereference [`OC_LANES`] lanes'
/// worth (`load_pairs` twice that many `i16`), and an implementation may only
/// execute on hosts with its CPU feature.
#[cfg(target_arch = "x86_64")]
pub(crate) trait DotLanes16: Copy {
    /// All lanes zero.
    fn zero() -> Self;
    /// Loads one tap pair of sixteen filters: `2 * OC_LANES` consecutive
    /// `i16`, `[lane][2]` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr..ptr + 2 * OC_LANES` must be readable; the impl's CPU feature
    /// must be active.
    unsafe fn load_pairs(ptr: *const i16) -> Self;
    /// Lanewise `self + w[lane][0] * x0 + w[lane][1] * x1`, with `pair` the
    /// two activations as one word ([`pair_word`]): `pmaddwd` on the
    /// broadcast pair, then `paddd`.
    fn madd(self, w: Self, pair: i32) -> Self;
    /// `acc[lane] += scale[lane] * self[lane] as f32`.
    ///
    /// # Safety
    ///
    /// `scale..scale + OC_LANES` must be readable and `acc..acc + OC_LANES`
    /// readable and writable; the impl's CPU feature must be active.
    unsafe fn scale_into(self, scale: *const f32, acc: *mut f32);
    /// `acc[lane] = a * acc[lane] + seed[lane]`.
    ///
    /// # Safety
    ///
    /// As for [`DotLanes16::scale_into`], with `seed` in place of `scale`.
    unsafe fn finish(acc: *mut f32, a: f32, seed: *const f32);
}

/// The Q8 convolution tile's one inner loop, for every vector backend: `R`
/// output positions by [`OC_LANES`] output channels. Per Q8 block `b`,
/// ascending: `dot[r][lane] = Σ_q w[q][lane][0] * x0(r, q) + w[q][lane][1] *
/// x1(r, q)` over the block's tap pairs — the weight pair row one vector
/// load, the activation pair one word `x[r * row_pairs + q]` ([`pair_word`])
/// broadcast to every lane — then `acc[r][lane] += scales[b][lane] *
/// dot[r][lane] as f32`; last, `acc[r][lane] = a_scale[r] * acc[r][lane] +
/// seed[lane]`. Per element that is [`quant_row_dot_scalar`]'s operation
/// sequence and the quantized GEMM's epilogue.
///
/// # Safety
///
/// Caller must guarantee `V`'s CPU feature is active, `w.len()` is a
/// multiple of `2 * OC_LANES`, `x.len() >= (R - 1) * row_pairs + w.len() / (2
/// * OC_LANES)` and `scales.len() >= OC_LANES` per started [`QK8_0`] taps of
/// `w`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn q8_tile<V: DotLanes16, const R: usize>(
    w: &[i16],
    scales: &[f32],
    x: &[i32],
    row_pairs: usize,
    a_scale: &[f32; R],
    seed: &[f32; OC_LANES],
    acc: &mut [[f32; OC_LANES]; R],
) {
    debug_assert!(w.len().is_multiple_of(2 * OC_LANES));
    debug_assert!(w.is_empty() || x.len() >= (R - 1) * row_pairs + w.len() / (2 * OC_LANES));
    debug_assert!(scales.len() >= w.len().div_ceil(QK8_0 * OC_LANES) * OC_LANES);
    *acc = [[0.0; OC_LANES]; R];
    let mut xq = x.as_ptr();
    for (wb, ws) in w
        .chunks(QK8_0 * OC_LANES)
        .zip(scales.chunks_exact(OC_LANES))
    {
        let mut d = [V::zero(); R];
        for wq in wb.chunks_exact(2 * OC_LANES) {
            let wv = V::load_pairs(wq.as_ptr());
            for (r, dr) in d.iter_mut().enumerate() {
                *dr = dr.madd(wv, *xq.add(r * row_pairs));
            }
            xq = xq.add(1);
        }
        for (dr, row) in d.iter().zip(acc.iter_mut()) {
            dr.scale_into(ws.as_ptr(), row.as_mut_ptr());
        }
    }
    for (row, &a) in acc.iter_mut().zip(a_scale) {
        V::finish(row.as_mut_ptr(), a, seed.as_ptr());
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        conv_tile, q8_tile, DotLanes16, F32x8, Lanes16, CONV_ROWS_AVX2, CONV_ROWS_AVX512,
        CONV_ROWS_SSE2, MR, NR, OC_LANES,
    };
    use crate::quant::{BlockQ8_0, QK8_0};
    use std::arch::x86_64::*;

    /// SSE2 Q8_0 row dot: per block, widen the int8 lanes to int16 with a
    /// sign-mask unpack (`pmovsxbw` is SSE4.1, which the SSE2 baseline lacks),
    /// `pmaddwd` the halves into i32 lanes, horizontally sum, then combine in
    /// f32 exactly like the scalar reference. All integer arithmetic is exact
    /// (block dot `<= 32 * 127 * 127 < 2^24`), so lane order is irrelevant
    /// and the result is bit-identical to [`super::quant_row_dot_scalar`].
    ///
    /// # Safety
    ///
    /// Host must support SSE2 (always true on `x86_64`);
    /// `qa.len() >= blocks.len() * QK8_0`.
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn quant_row_dot_sse2(qa: &[i8], blocks: &[BlockQ8_0]) -> f32 {
        debug_assert!(qa.len() >= blocks.len() * QK8_0);
        let zero = _mm_setzero_si128();
        let mut acc = 0.0f32;
        for (b, block) in blocks.iter().enumerate() {
            let a_ptr = qa.as_ptr().add(b * QK8_0);
            let w_ptr = block.qs.as_ptr();
            let mut sum = _mm_setzero_si128();
            for half in 0..2 {
                let av = _mm_loadu_si128(a_ptr.add(half * 16) as *const __m128i);
                let wv = _mm_loadu_si128(w_ptr.add(half * 16) as *const __m128i);
                let a_sign = _mm_cmpgt_epi8(zero, av);
                let w_sign = _mm_cmpgt_epi8(zero, wv);
                let a_lo = _mm_unpacklo_epi8(av, a_sign);
                let a_hi = _mm_unpackhi_epi8(av, a_sign);
                let w_lo = _mm_unpacklo_epi8(wv, w_sign);
                let w_hi = _mm_unpackhi_epi8(wv, w_sign);
                sum = _mm_add_epi32(sum, _mm_madd_epi16(a_lo, w_lo));
                sum = _mm_add_epi32(sum, _mm_madd_epi16(a_hi, w_hi));
            }
            acc += block.scale * hsum_epi32_sse2(sum) as f32;
        }
        acc
    }

    /// Horizontal sum of four i32 lanes (exact).
    ///
    /// # Safety
    ///
    /// Host must support SSE2.
    #[inline(always)]
    unsafe fn hsum_epi32_sse2(v: __m128i) -> i32 {
        let hi64 = _mm_unpackhi_epi64(v, v);
        let s2 = _mm_add_epi32(v, hi64);
        let hi32 = _mm_shuffle_epi32::<0b01>(s2);
        _mm_cvtsi128_si32(_mm_add_epi32(s2, hi32))
    }

    /// AVX2 Q8_0 row dot: `vpmovsxbw` widens 16 int8 lanes at a time,
    /// `vpmaddwd` produces i32 pair sums, one horizontal reduction per block.
    /// Bit-identical to the scalar reference for the same reason as the SSE2
    /// path (exact integer arithmetic inside each block).
    ///
    /// # Safety
    ///
    /// Host must support AVX2; `qa.len() >= blocks.len() * QK8_0`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn quant_row_dot_avx2(qa: &[i8], blocks: &[BlockQ8_0]) -> f32 {
        debug_assert!(qa.len() >= blocks.len() * QK8_0);
        let mut acc = 0.0f32;
        for (b, block) in blocks.iter().enumerate() {
            let a_ptr = qa.as_ptr().add(b * QK8_0);
            let w_ptr = block.qs.as_ptr();
            let mut sum = _mm256_setzero_si256();
            for half in 0..2 {
                let av =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(a_ptr.add(half * 16) as *const __m128i));
                let wv =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(w_ptr.add(half * 16) as *const __m128i));
                sum = _mm256_add_epi32(sum, _mm256_madd_epi16(av, wv));
            }
            let lo = _mm256_castsi256_si128(sum);
            let hi = _mm256_extracti128_si256::<1>(sum);
            acc += block.scale * hsum_epi32_sse2(_mm_add_epi32(lo, hi)) as f32;
        }
        acc
    }

    /// Two SSE2 `__m128` halves acting as one 8-lane vector.
    #[derive(Clone, Copy)]
    pub(crate) struct Sse2V(__m128, __m128);

    impl F32x8 for Sse2V {
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            Sse2V(_mm_loadu_ps(ptr), _mm_loadu_ps(ptr.add(4)))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm_storeu_ps(ptr, self.0);
            _mm_storeu_ps(ptr.add(4), self.1);
        }

        #[inline(always)]
        fn splat(v: f32) -> Self {
            unsafe { Sse2V(_mm_set1_ps(v), _mm_set1_ps(v)) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            unsafe { Sse2V(_mm_add_ps(self.0, other.0), _mm_add_ps(self.1, other.1)) }
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            unsafe { Sse2V(_mm_mul_ps(self.0, other.0), _mm_mul_ps(self.1, other.1)) }
        }

        #[inline(always)]
        fn gt_zero_mask(self) -> Self {
            unsafe {
                let z = _mm_setzero_ps();
                Sse2V(_mm_cmpgt_ps(self.0, z), _mm_cmpgt_ps(self.1, z))
            }
        }

        #[inline(always)]
        fn and(self, other: Self) -> Self {
            unsafe { Sse2V(_mm_and_ps(self.0, other.0), _mm_and_ps(self.1, other.1)) }
        }
    }

    /// One AVX2 `__m256`.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2V(__m256);

    impl F32x8 for Avx2V {
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            Avx2V(_mm256_loadu_ps(ptr))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm256_storeu_ps(ptr, self.0);
        }

        #[inline(always)]
        fn splat(v: f32) -> Self {
            unsafe { Avx2V(_mm256_set1_ps(v)) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            unsafe { Avx2V(_mm256_add_ps(self.0, other.0)) }
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            unsafe { Avx2V(_mm256_mul_ps(self.0, other.0)) }
        }

        #[inline(always)]
        fn gt_zero_mask(self) -> Self {
            unsafe { Avx2V(_mm256_cmp_ps::<_CMP_GT_OQ>(self.0, _mm256_setzero_ps())) }
        }

        #[inline(always)]
        fn and(self, other: Self) -> Self {
            unsafe { Avx2V(_mm256_and_ps(self.0, other.0)) }
        }
    }

    /// The generic `MR x NR` microkernel inner loop over a packed A strip and
    /// B strip: `acc[r][c] += a[p][r] * b[p][c]` for every `p` in ascending
    /// order, with the whole accumulator tile held in `MR * NR / 8` vector
    /// registers. Lanes are independent output elements, so this is
    /// bit-identical to the scalar loop.
    ///
    /// # Safety
    ///
    /// Caller must guarantee `V`'s CPU feature is active and the slice
    /// layout invariants of the packed panels (`a_tile.len() >= kc * MR`,
    /// `b_tile.len() >= kc * NR`).
    #[inline(always)]
    unsafe fn microkernel_4x16<V: F32x8>(
        kc: usize,
        a_tile: &[f32],
        b_tile: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        debug_assert!(a_tile.len() >= kc * MR && b_tile.len() >= kc * NR);
        let mut c: [[V; 2]; MR] = [[V::splat(0.0); 2]; MR];
        for (r, row) in acc.iter().enumerate() {
            c[r][0] = V::load(row.as_ptr());
            c[r][1] = V::load(row.as_ptr().add(8));
        }
        let a = a_tile.as_ptr();
        let b = b_tile.as_ptr();
        for p in 0..kc {
            let b0 = V::load(b.add(p * NR));
            let b1 = V::load(b.add(p * NR + 8));
            for (r, cr) in c.iter_mut().enumerate() {
                let av = V::splat(*a.add(p * MR + r));
                cr[0] = cr[0].add(av.mul(b0));
                cr[1] = cr[1].add(av.mul(b1));
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            c[r][0].store(row.as_mut_ptr());
            c[r][1].store(row.as_mut_ptr().add(8));
        }
    }

    /// SSE2 instantiation of the `MR x NR` microkernel loop.
    ///
    /// # Safety
    ///
    /// Host must support SSE2 (always true on `x86_64`); packed-panel layout
    /// invariants as in [`microkernel_4x16`].
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn microkernel_4x16_sse2(
        kc: usize,
        a_tile: &[f32],
        b_tile: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        microkernel_4x16::<Sse2V>(kc, a_tile, b_tile, acc);
    }

    /// AVX2 instantiation of the `MR x NR` microkernel loop.
    ///
    /// # Safety
    ///
    /// Host must support AVX2; packed-panel layout invariants as in
    /// [`microkernel_4x16`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn microkernel_4x16_avx2(
        kc: usize,
        a_tile: &[f32],
        b_tile: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        microkernel_4x16::<Avx2V>(kc, a_tile, b_tile, acc);
    }

    /// AVX-512 paired-strip microkernel: two vertically adjacent `MR`-row A
    /// strips against one `NR`-column B strip, i.e. a `2*MR x NR` tile with
    /// one 16-lane `zmm` accumulator per row. Eight independent
    /// multiply-then-add chains keep both 512-bit vector ports busy despite
    /// the 4-cycle add latency the ordered accumulation imposes.
    ///
    /// Per element this is still `acc += a[p] * b[p]` in ascending `p` order
    /// — bit-identical to the scalar kernel.
    ///
    /// # Safety
    ///
    /// Host must support AVX-512F; `a_lo`/`a_hi` must each hold `kc * MR`
    /// packed values and `b_tile` must hold `kc * NR`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::needless_range_loop)] // indices mirror the zmm register layout
    pub(crate) unsafe fn microkernel_8x16_avx512(
        kc: usize,
        a_lo: &[f32],
        a_hi: &[f32],
        b_tile: &[f32],
        acc: &mut [[f32; NR]; 2 * MR],
    ) {
        debug_assert!(a_lo.len() >= kc * MR && a_hi.len() >= kc * MR);
        debug_assert!(b_tile.len() >= kc * NR);
        let mut c: [__m512; 2 * MR] = [_mm512_setzero_ps(); 2 * MR];
        for (r, row) in acc.iter().enumerate() {
            c[r] = _mm512_loadu_ps(row.as_ptr());
        }
        let alo = a_lo.as_ptr();
        let ahi = a_hi.as_ptr();
        let b = b_tile.as_ptr();
        for p in 0..kc {
            let bv = _mm512_loadu_ps(b.add(p * NR));
            for r in 0..MR {
                let av = _mm512_set1_ps(*alo.add(p * MR + r));
                c[r] = _mm512_add_ps(c[r], _mm512_mul_ps(av, bv));
            }
            for r in 0..MR {
                let av = _mm512_set1_ps(*ahi.add(p * MR + r));
                c[MR + r] = _mm512_add_ps(c[MR + r], _mm512_mul_ps(av, bv));
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            _mm512_storeu_ps(row.as_mut_ptr(), c[r]);
        }
    }

    /// Two 8-lane vectors as one output-channel block: the SSE2 and AVX2
    /// backends of the convolution kernel.
    #[derive(Clone, Copy)]
    pub(crate) struct Pair<V>(V, V);

    impl<V: F32x8> Lanes16 for Pair<V> {
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            Pair(V::load(ptr), V::load(ptr.add(8)))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            self.0.store(ptr);
            self.1.store(ptr.add(8));
        }

        #[inline(always)]
        fn mul_acc(self, w: Self, x: f32) -> Self {
            let xv = V::splat(x);
            Pair(self.0.add(w.0.mul(xv)), self.1.add(w.1.mul(xv)))
        }
    }

    /// One AVX-512 `__m512`.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512V(__m512);

    impl Lanes16 for Avx512V {
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            Avx512V(_mm512_loadu_ps(ptr))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm512_storeu_ps(ptr, self.0);
        }

        #[inline(always)]
        fn mul_acc(self, w: Self, x: f32) -> Self {
            unsafe { Avx512V(_mm512_add_ps(self.0, _mm512_mul_ps(w.0, _mm512_set1_ps(x)))) }
        }
    }

    /// SSE2 instantiation of the convolution tile ([`conv_tile`]).
    ///
    /// # Safety
    ///
    /// Host must support SSE2 (always true on `x86_64`); table and panel
    /// invariants as in [`conv_tile`].
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn conv_tile_sse2(
        w: &[f32],
        seed: &[f32; OC_LANES],
        taps: &[u32],
        offs: &[usize; CONV_ROWS_SSE2],
        x: &[f32],
        acc: &mut [[f32; OC_LANES]; CONV_ROWS_SSE2],
    ) {
        conv_tile::<Pair<Sse2V>, CONV_ROWS_SSE2>(w, seed, taps, offs, x, acc);
    }

    /// AVX2 instantiation of the convolution tile ([`conv_tile`]).
    ///
    /// # Safety
    ///
    /// Host must support AVX2; table and panel invariants as in
    /// [`conv_tile`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn conv_tile_avx2(
        w: &[f32],
        seed: &[f32; OC_LANES],
        taps: &[u32],
        offs: &[usize; CONV_ROWS_AVX2],
        x: &[f32],
        acc: &mut [[f32; OC_LANES]; CONV_ROWS_AVX2],
    ) {
        conv_tile::<Pair<Avx2V>, CONV_ROWS_AVX2>(w, seed, taps, offs, x, acc);
    }

    /// AVX-512 instantiation of the convolution tile ([`conv_tile`]): one
    /// `zmm` accumulator per output position, the activation folded into the
    /// multiply as an embedded broadcast.
    ///
    /// # Safety
    ///
    /// Host must support AVX-512F; table and panel invariants as in
    /// [`conv_tile`].
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn conv_tile_avx512(
        w: &[f32],
        seed: &[f32; OC_LANES],
        taps: &[u32],
        offs: &[usize; CONV_ROWS_AVX512],
        x: &[f32],
        acc: &mut [[f32; OC_LANES]; CONV_ROWS_AVX512],
    ) {
        conv_tile::<Avx512V, CONV_ROWS_AVX512>(w, seed, taps, offs, x, acc);
    }

    /// Four SSE2 `__m128i` as one block of sixteen `i32` dots.
    #[derive(Clone, Copy)]
    pub(crate) struct Sse2I(__m128i, __m128i, __m128i, __m128i);

    impl DotLanes16 for Sse2I {
        #[inline(always)]
        fn zero() -> Self {
            let z = unsafe { _mm_setzero_si128() };
            Sse2I(z, z, z, z)
        }

        #[inline(always)]
        unsafe fn load_pairs(ptr: *const i16) -> Self {
            let p = ptr.cast::<__m128i>();
            Sse2I(
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            )
        }

        #[inline(always)]
        fn madd(self, w: Self, pair: i32) -> Self {
            unsafe {
                let x = _mm_set1_epi32(pair);
                Sse2I(
                    _mm_add_epi32(self.0, _mm_madd_epi16(w.0, x)),
                    _mm_add_epi32(self.1, _mm_madd_epi16(w.1, x)),
                    _mm_add_epi32(self.2, _mm_madd_epi16(w.2, x)),
                    _mm_add_epi32(self.3, _mm_madd_epi16(w.3, x)),
                )
            }
        }

        #[inline(always)]
        unsafe fn scale_into(self, scale: *const f32, acc: *mut f32) {
            for (i, d) in [self.0, self.1, self.2, self.3].into_iter().enumerate() {
                let term = _mm_mul_ps(_mm_loadu_ps(scale.add(4 * i)), _mm_cvtepi32_ps(d));
                let sum = _mm_add_ps(_mm_loadu_ps(acc.add(4 * i)), term);
                _mm_storeu_ps(acc.add(4 * i), sum);
            }
        }

        #[inline(always)]
        unsafe fn finish(acc: *mut f32, a: f32, seed: *const f32) {
            let av = _mm_set1_ps(a);
            for i in 0..4 {
                let scaled = _mm_mul_ps(av, _mm_loadu_ps(acc.add(4 * i)));
                _mm_storeu_ps(
                    acc.add(4 * i),
                    _mm_add_ps(scaled, _mm_loadu_ps(seed.add(4 * i))),
                );
            }
        }
    }

    /// Two AVX2 `__m256i` as one block of sixteen `i32` dots.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2I(__m256i, __m256i);

    impl DotLanes16 for Avx2I {
        #[inline(always)]
        fn zero() -> Self {
            let z = unsafe { _mm256_setzero_si256() };
            Avx2I(z, z)
        }

        #[inline(always)]
        unsafe fn load_pairs(ptr: *const i16) -> Self {
            let p = ptr.cast::<__m256i>();
            Avx2I(_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1)))
        }

        #[inline(always)]
        fn madd(self, w: Self, pair: i32) -> Self {
            unsafe {
                let x = _mm256_set1_epi32(pair);
                Avx2I(
                    _mm256_add_epi32(self.0, _mm256_madd_epi16(w.0, x)),
                    _mm256_add_epi32(self.1, _mm256_madd_epi16(w.1, x)),
                )
            }
        }

        #[inline(always)]
        unsafe fn scale_into(self, scale: *const f32, acc: *mut f32) {
            for (i, d) in [self.0, self.1].into_iter().enumerate() {
                let term = _mm256_mul_ps(_mm256_loadu_ps(scale.add(8 * i)), _mm256_cvtepi32_ps(d));
                let sum = _mm256_add_ps(_mm256_loadu_ps(acc.add(8 * i)), term);
                _mm256_storeu_ps(acc.add(8 * i), sum);
            }
        }

        #[inline(always)]
        unsafe fn finish(acc: *mut f32, a: f32, seed: *const f32) {
            let av = _mm256_set1_ps(a);
            for i in 0..2 {
                let scaled = _mm256_mul_ps(av, _mm256_loadu_ps(acc.add(8 * i)));
                _mm256_storeu_ps(
                    acc.add(8 * i),
                    _mm256_add_ps(scaled, _mm256_loadu_ps(seed.add(8 * i))),
                );
            }
        }
    }

    /// SSE2 instantiation of the Q8 convolution tile ([`q8_tile`]).
    ///
    /// # Safety
    ///
    /// Host must support SSE2 (always true on `x86_64`); panel and row
    /// invariants as in [`q8_tile`].
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn q8_tile_sse2(
        w: &[i16],
        scales: &[f32],
        x: &[i32],
        row_pairs: usize,
        a_scale: &[f32; CONV_ROWS_SSE2],
        seed: &[f32; OC_LANES],
        acc: &mut [[f32; OC_LANES]; CONV_ROWS_SSE2],
    ) {
        q8_tile::<Sse2I, CONV_ROWS_SSE2>(w, scales, x, row_pairs, a_scale, seed, acc);
    }

    /// AVX2 instantiation of the Q8 convolution tile ([`q8_tile`]).
    ///
    /// # Safety
    ///
    /// Host must support AVX2; panel and row invariants as in [`q8_tile`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn q8_tile_avx2(
        w: &[i16],
        scales: &[f32],
        x: &[i32],
        row_pairs: usize,
        a_scale: &[f32; CONV_ROWS_AVX2],
        seed: &[f32; OC_LANES],
        acc: &mut [[f32; OC_LANES]; CONV_ROWS_AVX2],
    ) {
        q8_tile::<Avx2I, CONV_ROWS_AVX2>(w, scales, x, row_pairs, a_scale, seed, acc);
    }

    /// `dst[i][j] = src[j][i]`: a 4x4 transposition in four `xmm` registers
    /// (`unpcklps`/`unpckhps`, then `movlhps`/`movhlps`).
    ///
    /// # Safety
    ///
    /// Host must support SSE2 (always true on `x86_64`).
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn transpose4_sse2(src: [&[f32; 4]; 4], dst: [&mut [f32; 4]; 4]) {
        let [r0, r1, r2, r3] = src.map(|row| _mm_loadu_ps(row.as_ptr()));
        let (t0, t1) = (_mm_unpacklo_ps(r0, r1), _mm_unpackhi_ps(r0, r1));
        let (t2, t3) = (_mm_unpacklo_ps(r2, r3), _mm_unpackhi_ps(r2, r3));
        let cols = [
            _mm_movelh_ps(t0, t2),
            _mm_movehl_ps(t2, t0),
            _mm_movelh_ps(t1, t3),
            _mm_movehl_ps(t3, t1),
        ];
        for (col, out) in cols.into_iter().zip(dst) {
            _mm_storeu_ps(out.as_mut_ptr(), col);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{Avx2V, Sse2V};

// ---------------------------------------------------------------------------
// Scalar microkernel (the reference) and the safe dispatchers the blocked
// GEMM driver calls.
// ---------------------------------------------------------------------------

/// The scalar (autovectorized) `MR x NR` microkernel loop — the
/// `Isa::Scalar` backend and the reference every SIMD backend must match
/// bit-for-bit. Kept as its own compilation unit (`inline(never)`) so the
/// loop vectorizer reliably promotes the whole accumulator tile into SIMD
/// registers; one call per tile per slab is amortized over `kc * MR * NR`
/// multiply-accumulates.
#[inline(never)]
fn microkernel_4x16_scalar(kc: usize, a_tile: &[f32], b_tile: &[f32], acc: &mut [[f32; NR]; MR]) {
    let mut tile = *acc;
    // Eight `p` steps per iteration to amortize loop overhead; the steps stay
    // strictly sequential per accumulator, preserving accumulation order.
    const U: usize = 8;
    let quads = kc / U;
    for (ap, bp) in a_tile[..quads * U * MR]
        .chunks_exact(U * MR)
        .zip(b_tile[..quads * U * NR].chunks_exact(U * NR))
    {
        for u in 0..U {
            scalar_micro_step(
                &mut tile,
                &ap[u * MR..(u + 1) * MR],
                &bp[u * NR..(u + 1) * NR],
            );
        }
    }
    for p in quads * U..kc {
        scalar_micro_step(
            &mut tile,
            &a_tile[p * MR..(p + 1) * MR],
            &b_tile[p * NR..(p + 1) * NR],
        );
    }
    *acc = tile;
}

/// One `p` step of the scalar microkernel: `tile[r][c] += a[r] * b[c]`.
#[inline(always)]
fn scalar_micro_step(tile: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32]) {
    let ap: &[f32; MR] = ap.try_into().expect("MR-sized A strip");
    let bp: &[f32; NR] = bp.try_into().expect("NR-sized B strip");
    for (r, acc_row) in tile.iter_mut().enumerate() {
        let av = ap[r];
        for c in 0..NR {
            acc_row[c] += av * bp[c];
        }
    }
}

/// Runs the `MR x NR` microkernel inner loop on the backend for `isa`:
/// `acc[r][c] += a_tile[p*MR+r] * b_tile[p*NR+c]` for every `p` ascending.
/// All backends are bit-identical.
///
/// # Panics
///
/// Debug-asserts that the packed panels hold at least `kc` steps.
pub(crate) fn microkernel_4x16(
    isa: Isa,
    kc: usize,
    a_tile: &[f32],
    b_tile: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(a_tile.len() >= kc * MR && b_tile.len() >= kc * NR);
    match isa {
        Isa::Scalar => microkernel_4x16_scalar(kc, a_tile, b_tile, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` comes from `active_isa`, which only reports CPU
        // features the host has, and the panel sizes are asserted above.
        Isa::Sse2 => unsafe { x86::microkernel_4x16_sse2(kc, a_tile, b_tile, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; AVX-512 hosts always have AVX2 (odd strips on
        // the paired path land here).
        Isa::Avx2 | Isa::Avx512 => unsafe { x86::microkernel_4x16_avx2(kc, a_tile, b_tile, acc) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => microkernel_4x16_scalar(kc, a_tile, b_tile, acc),
    }
}

/// Runs the widened `2*MR x NR` paired-strip microkernel. Only callable on
/// ISAs for which [`has_paired_microkernel`] is true (AVX-512).
///
/// # Panics
///
/// Panics (via `unreachable!`) if no paired backend exists on this target.
pub(crate) fn microkernel_8x16(
    kc: usize,
    a_lo: &[f32],
    a_hi: &[f32],
    b_tile: &[f32],
    acc: &mut [[f32; NR]; 2 * MR],
) {
    debug_assert!(a_lo.len() >= kc * MR && a_hi.len() >= kc * MR);
    debug_assert!(b_tile.len() >= kc * NR);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the blocked driver only takes this path when `active_isa`
    // reported AVX-512; panel sizes are asserted above.
    unsafe {
        x86::microkernel_8x16_avx512(kc, a_lo, a_hi, b_tile, acc)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("paired microkernel is x86_64-only");
}

// ---------------------------------------------------------------------------
// The convolution kernel: output channels on the lanes, activations broadcast
// through the window table.
// ---------------------------------------------------------------------------

/// One convolution tile on some backend: `acc[r][lane] = seed[lane] +
/// Σ_p w[p * OC_LANES + lane] * x[taps[p] + offs[r]]`, `p` ascending.
type ConvTileFn<const R: usize> = unsafe fn(
    w: &[f32],
    seed: &[f32; OC_LANES],
    taps: &[u32],
    offs: &[usize; R],
    x: &[f32],
    acc: &mut [[f32; OC_LANES]; R],
);

/// The scalar (autovectorized) convolution tile — the `Isa::Scalar` backend
/// and the reference every vector backend must match bit for bit. Plain
/// indexing: a table entry outside the image panics instead of reading.
fn conv_tile_scalar(
    w: &[f32],
    seed: &[f32; OC_LANES],
    taps: &[u32],
    offs: &[usize; CONV_ROWS_SCALAR],
    x: &[f32],
    acc: &mut [[f32; OC_LANES]; CONV_ROWS_SCALAR],
) {
    let mut tile = [*seed; CONV_ROWS_SCALAR];
    for (wv, &tap) in w.chunks_exact(OC_LANES).zip(taps) {
        let xt = &x[tap as usize..];
        for (row, &o) in tile.iter_mut().zip(offs) {
            let xv = xt[o];
            for (a, &wl) in row.iter_mut().zip(wv) {
                *a += wl * xv;
            }
        }
    }
    *acc = tile;
}

/// One sample's convolution as the kernel sees it: `out[oc][s] = bias[oc] +
/// Σ_p weight[oc][p] * xpad[taps[p] + offs[s]]` for `bias.len()` channels and
/// `offs.len()` output positions.
pub(crate) struct ConvOperands<'a> {
    /// The weights as `[oc block][p][OC_LANES]` rows, lanes past the last
    /// channel zero (`kernels/window.rs` packs them).
    pub(crate) panels: &'a [f32],
    /// One accumulator seed per output channel.
    pub(crate) bias: &'a [f32],
    /// Window table: the offset of tap `p` from a receptive field's origin.
    pub(crate) taps: &'a [u32],
    /// Window table: the origin of output position `s` in the padded image.
    pub(crate) offs: &'a [u32],
    /// The zero-padded image both tables index.
    pub(crate) xpad: &'a [f32],
    /// `[oc, s]` row-major.
    pub(crate) out: &'a mut [f32],
}

/// One sample's convolution forward with output channels on the vector
/// lanes, taps accumulated in ascending order from the bias.
///
/// Each block of [`OC_LANES`] channels is computed a tile of positions at a
/// time — as many as the backend for `isa` keeps in registers — with padded
/// lanes and padded positions computed and never stored. All backends are
/// bit-identical.
///
/// # Panics
///
/// Panics if `panels` or `out` does not match `bias.len()`, `taps.len()` and
/// `offs.len()`, or if the table addresses an element outside `xpad`.
pub(crate) fn conv_forward(isa: Isa, ops: ConvOperands<'_>) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` comes from `active_isa`, which only reports CPU
        // features the host has.
        Isa::Avx512 => unsafe { conv_drive(x86::conv_tile_avx512, ops) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { conv_drive(x86::conv_tile_avx2, ops) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above (SSE2 is the `x86_64` baseline).
        Isa::Sse2 => unsafe { conv_drive(x86::conv_tile_sse2, ops) },
        // SAFETY: the scalar tile is safe code and needs no CPU feature.
        _ => unsafe { conv_drive(conv_tile_scalar, ops) },
    }
}

/// [`conv_forward`] on one backend: walks the channel blocks and, inside
/// each, the position tiles of `R` rows, and transposes every tile's valid
/// corner into the NCHW output ([`store_tile`]).
///
/// # Safety
///
/// `tile` must be runnable on this host (its CPU feature available). Its
/// other preconditions are established here: the panel length once per call,
/// the table against the padded image once per tile.
unsafe fn conv_drive<const R: usize>(tile: ConvTileFn<R>, ops: ConvOperands<'_>) {
    let ConvOperands {
        panels,
        bias,
        taps,
        offs,
        xpad,
        out,
    } = ops;
    let (oc, s) = (bias.len(), offs.len());
    let block_len = taps.len() * OC_LANES;
    assert_eq!(
        panels.len(),
        oc.div_ceil(OC_LANES) * block_len,
        "conv: weight panels must be [oc blocks][taps][OC_LANES]"
    );
    assert_eq!(out.len(), oc * s, "conv: out must be oc*s");
    if s == 0 {
        return;
    }
    let max_tap = taps.iter().max().map_or(0, |&t| t as usize);
    let mut acc = [[0.0f32; OC_LANES]; R];
    for (block, (ochans, bchans)) in out
        .chunks_mut(OC_LANES * s)
        .zip(bias.chunks(OC_LANES))
        .enumerate()
    {
        let w = &panels[block * block_len..(block + 1) * block_len];
        let mut seed = [0.0f32; OC_LANES];
        seed[..bchans.len()].copy_from_slice(bchans);
        for (t, group) in offs.chunks(R).enumerate() {
            // Rows past the last position re-read the tile's first window.
            let mut rows = [group[0] as usize; R];
            for (row, &o) in rows.iter_mut().zip(group) {
                *row = o as usize;
            }
            let max_off = rows.iter().fold(0, |m, &o| m.max(o));
            assert!(
                taps.is_empty() || max_tap + max_off < xpad.len(),
                "conv: window table reaches outside the padded image"
            );
            // SAFETY: `w` holds `taps.len()` rows of `OC_LANES` weights
            // (sliced above) and every `taps[p] + rows[r]` is at most
            // `max_tap + max_off`, inside `xpad` by the assert; the caller
            // vouches for the CPU feature.
            unsafe { tile(w, &seed, taps, &rows, xpad, &mut acc) };
            store_tile(&acc, group.len(), ochans, s, t * R);
        }
    }
}

/// Copies the valid corner of a `[position][channel]` accumulator tile —
/// `rows` positions from `s0`, as many channels as `ochans` holds rows of `s`
/// — into the `[channel][position]` output: four by four through register
/// shuffles where both extents allow (a last group of fewer than four
/// positions starts early and rewrites the ones it overlaps), element by
/// element at the edges.
fn store_tile<const R: usize>(
    acc: &[[f32; OC_LANES]; R],
    rows: usize,
    ochans: &mut [f32],
    s: usize,
    s0: usize,
) {
    for (q, quad) in ochans.chunks_mut(4 * s).enumerate() {
        let l0 = 4 * q;
        for r0 in (0..rows).step_by(4) {
            let r0 = r0.min(rows.saturating_sub(4));
            #[cfg(target_arch = "x86_64")]
            if quad.len() == 4 * s && r0 + 4 <= rows {
                let src: [&[f32; 4]; 4] = std::array::from_fn(|j| {
                    acc[r0 + j][l0..l0 + 4].try_into().expect("four lanes")
                });
                let mut chans = quad.chunks_exact_mut(s);
                let dst: [&mut [f32; 4]; 4] = std::array::from_fn(|_| {
                    let chan = chans.next().expect("four channels");
                    (&mut chan[s0 + r0..s0 + r0 + 4])
                        .try_into()
                        .expect("four positions")
                });
                // SAFETY: SSE2 is the `x86_64` baseline.
                unsafe { x86::transpose4_sse2(src, dst) };
                continue;
            }
            for (i, chan) in quad.chunks_exact_mut(s).enumerate() {
                for r in r0..rows.min(r0 + 4) {
                    chan[s0 + r] = acc[r][l0 + i];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The Q8_0 convolution kernel: the same tiles, exact integer block dots.
// ---------------------------------------------------------------------------

/// Two quantized activations as the word the tile kernels broadcast: `x0` in
/// the low half, `x1` in the high half — the `[2]` order of a weight pair in
/// memory on this (little-endian) target.
#[inline(always)]
fn pair_word(x0: i8, x1: i8) -> i32 {
    i32::from(i16::from(x0) as u16) | i32::from(x1) << 16
}

/// One Q8 convolution tile on some backend: `acc[r][lane] = a_scale[r] *
/// (Σ_b scales[b][lane] * dot_b(r, lane)) + seed[lane]`, `dot_b` the exact
/// integer dot of Q8 block `b` of `w` (`[tap pair][lane][2]`) with the pair
/// words `x[r * row_pairs..]`.
type Q8TileFn<const R: usize> = unsafe fn(
    w: &[i16],
    scales: &[f32],
    x: &[i32],
    row_pairs: usize,
    a_scale: &[f32; R],
    seed: &[f32; OC_LANES],
    acc: &mut [[f32; OC_LANES]; R],
);

/// The scalar Q8 convolution tile — the `Isa::Scalar` backend and the
/// reference every vector backend must match bit for bit: per lane, the
/// block dots, combine and epilogue of [`quant_row_dot_scalar`] and the
/// quantized GEMM. Plain indexing: a short row panics instead of reading.
fn q8_tile_scalar(
    w: &[i16],
    scales: &[f32],
    x: &[i32],
    row_pairs: usize,
    a_scale: &[f32; CONV_ROWS_SCALAR],
    seed: &[f32; OC_LANES],
    acc: &mut [[f32; OC_LANES]; CONV_ROWS_SCALAR],
) {
    let mut tile = [[0.0f32; OC_LANES]; CONV_ROWS_SCALAR];
    let blocks = w
        .chunks(QK8_0 * OC_LANES)
        .zip(scales.chunks_exact(OC_LANES));
    for (b, (wb, ws)) in blocks.enumerate() {
        for (r, row) in tile.iter_mut().enumerate() {
            let mut dots = [0i32; OC_LANES];
            let xb = &x[r * row_pairs + b * QK8_0 / 2..];
            for (wq, &pair) in wb.chunks_exact(2 * OC_LANES).zip(xb) {
                let (x0, x1) = (i32::from(pair as i16), pair >> 16);
                for (d, wl) in dots.iter_mut().zip(wq.chunks_exact(2)) {
                    *d += i32::from(wl[0]) * x0 + i32::from(wl[1]) * x1;
                }
            }
            for ((a, &d), &scale) in row.iter_mut().zip(&dots).zip(ws) {
                *a += scale * d as f32;
            }
        }
    }
    for (row, &a) in tile.iter_mut().zip(a_scale) {
        for (v, &bias) in row.iter_mut().zip(seed) {
            *v = a * *v + bias;
        }
    }
    *acc = tile;
}

/// Where a Q8 convolution's int8 activations come from.
pub(crate) enum Q8Input<'a> {
    /// One calibrated scale for every element: the padded image, quantized
    /// once by the caller. A tile's rows are int8 gathers through the table.
    Static { qpad: &'a [i8], scale: f32 },
    /// One scale per receptive field: each is gathered in `f32` from the
    /// padded image into `field` and goes through
    /// [`crate::quant::quantize_row_into`] (into `q8`) for its own scale.
    /// Both buffers hold one field, `taps.len()` elements.
    Dynamic {
        xpad: &'a [f32],
        field: &'a mut [f32],
        q8: &'a mut [i8],
    },
}

/// One sample's Q8_0 convolution as the kernel sees it: `out[oc][s] =
/// a_scale[s] * (Σ_b scales[oc][b] * dot_b(oc, s)) + bias[oc]`, `dot_b` the
/// exact int8 dot of Q8 block `b` of filter `oc` with the quantized receptive
/// field `q[s][p] = quantize(xpad[taps[p] + offs[s]])`.
pub(crate) struct Q8ConvOperands<'a> {
    /// The Q8 filters as `[oc block][tap pair][OC_LANES][2]`, widened to
    /// `i16`, lanes past the last channel and the odd last tap zero.
    pub(crate) panels: &'a [i16],
    /// Their block scales as `[oc block][Q8 block][OC_LANES]`.
    pub(crate) scales: &'a [f32],
    /// One final addend per output channel.
    pub(crate) bias: &'a [f32],
    /// Window table: the offset of tap `p` from a receptive field's origin.
    pub(crate) taps: &'a [u32],
    /// Window table: the origin of output position `s` in the padded image.
    pub(crate) offs: &'a [u32],
    /// The padded image both tables index, quantized or about to be.
    pub(crate) input: Q8Input<'a>,
    /// Arena for a tile's quantized rows, as pair words.
    pub(crate) qrows: &'a mut GrowBuf<i32>,
    /// `[oc, s]` row-major.
    pub(crate) out: &'a mut [f32],
}

/// One sample's Q8_0 convolution forward with output channels on the vector
/// lanes. Per tile of positions the quantized receptive fields are laid out
/// as rows once ([`Q8Input`]); every lane block then takes exact `i32` block
/// dots against them, combines them in `f32` — `acc += scale_b * dot_b as
/// f32` for blocks ascending (a multiply, then an add), then `a_scale * acc +
/// bias` — and stores the tile like [`conv_forward`]. The integer part is all
/// a backend computes, so all backends are bit-identical, to each other and
/// to the row dots of [`quant_row_dot`]. AVX-512 hosts take the AVX2 tile, as
/// there.
///
/// # Panics
///
/// Panics if `panels`, `scales` or `out` does not match `bias.len()`,
/// `taps.len()` and `offs.len()`, or if the table addresses an element
/// outside the padded image.
pub(crate) fn q8_conv_forward(isa: Isa, ops: Q8ConvOperands<'_>) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` comes from `active_isa`, which only reports CPU
        // features the host has; AVX-512 hosts always have AVX2.
        Isa::Avx2 | Isa::Avx512 => unsafe { q8_conv_drive(x86::q8_tile_avx2, ops) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above (SSE2 is the `x86_64` baseline).
        Isa::Sse2 => unsafe { q8_conv_drive(x86::q8_tile_sse2, ops) },
        // SAFETY: the scalar tile is safe code and needs no CPU feature.
        _ => unsafe { q8_conv_drive(q8_tile_scalar, ops) },
    }
}

/// `rows[r][q] = pair_word(qpad[taps[2q] + offs[r]], qpad[taps[2q + 1] +
/// offs[r]])` (`0` for the partner of an odd last tap): `R` int8 receptive
/// fields read through the window table, pair by pair so that the table
/// entries and the `R` origins stay in registers, each pair stored as the one
/// word the tile kernel loads back.
///
/// # Panics
///
/// Panics if the table reaches outside `qpad` or the rows outside `rows`.
fn gather_pairs<const R: usize>(
    qpad: &[i8],
    taps: &[u32],
    offs: &[usize; R],
    rows: &mut [i32],
    row_pairs: usize,
) {
    let max_tap = taps.iter().fold(0, |m, &t| m.max(t as usize));
    let max_off = offs.iter().fold(0, |m, &o| m.max(o));
    assert!(
        taps.is_empty() || max_tap + max_off < qpad.len(),
        "q8 conv: window table reaches outside the padded image"
    );
    assert!(
        taps.len().div_ceil(2) <= row_pairs && R * row_pairs <= rows.len(),
        "q8 conv: receptive fields do not fit their rows"
    );
    for (q, pair) in taps.chunks(2).enumerate() {
        for (r, &o) in offs.iter().enumerate() {
            // SAFETY: every `tap + o <= max_tap + max_off < qpad.len()` and
            // `r * row_pairs + q < R * row_pairs <= rows.len()`, both by the
            // asserts above the loop.
            unsafe {
                let x0 = *qpad.get_unchecked(pair[0] as usize + o);
                let x1 = match pair.get(1) {
                    Some(&tap) => *qpad.get_unchecked(tap as usize + o),
                    None => 0,
                };
                *rows.get_unchecked_mut(r * row_pairs + q) = pair_word(x0, x1);
            }
        }
    }
}

/// [`q8_conv_forward`] on one backend: walks the position tiles of `R` rows
/// and, inside each — its rows quantized once — the channel blocks.
///
/// # Safety
///
/// `tile` must be runnable on this host (its CPU feature available). Its
/// other preconditions are established here.
unsafe fn q8_conv_drive<const R: usize>(tile: Q8TileFn<R>, ops: Q8ConvOperands<'_>) {
    let Q8ConvOperands {
        panels,
        scales,
        bias,
        taps,
        offs,
        mut input,
        qrows,
        out,
    } = ops;
    let (oc, s) = (bias.len(), offs.len());
    let row_pairs = taps.len().div_ceil(2);
    let block_len = row_pairs * 2 * OC_LANES;
    let q8_blocks = taps.len().div_ceil(QK8_0);
    assert_eq!(
        panels.len(),
        oc.div_ceil(OC_LANES) * block_len,
        "q8 conv: weight panels must be [oc blocks][tap pairs][OC_LANES][2]"
    );
    assert_eq!(
        scales.len(),
        oc.div_ceil(OC_LANES) * q8_blocks * OC_LANES,
        "q8 conv: scales must be [oc blocks][Q8 blocks][OC_LANES]"
    );
    assert_eq!(out.len(), oc * s, "q8 conv: out must be oc*s");
    let qrows = qrows.take(R * row_pairs);
    let mut a_scale = [0.0f32; R];
    let mut acc = [[0.0f32; OC_LANES]; R];
    for (t, group) in offs.chunks(R).enumerate() {
        match &mut input {
            Q8Input::Static { qpad, scale } => {
                // Rows past the last position re-read the tile's first window.
                let mut origins = [group[0] as usize; R];
                for (origin, &o) in origins.iter_mut().zip(group) {
                    *origin = o as usize;
                }
                gather_pairs(qpad, taps, &origins, qrows, row_pairs);
                a_scale = [*scale; R];
            }
            Q8Input::Dynamic { xpad, field, q8 } => {
                // Rows past the last position keep the previous tile's.
                let rows = qrows.chunks_exact_mut(row_pairs).zip(&mut a_scale);
                for ((qrow, a), &o) in rows.zip(group) {
                    let src = &xpad[o as usize..];
                    for (x, &tap) in field.iter_mut().zip(taps) {
                        *x = src[tap as usize];
                    }
                    *a = quantize_row_into(field, q8, None);
                    for (word, pair) in qrow.iter_mut().zip(q8.chunks(2)) {
                        *word = pair_word(pair[0], pair.get(1).copied().unwrap_or(0));
                    }
                }
            }
        }
        for (block, (ochans, bchans)) in out
            .chunks_mut(OC_LANES * s)
            .zip(bias.chunks(OC_LANES))
            .enumerate()
        {
            let w = &panels[block * block_len..(block + 1) * block_len];
            let ws = &scales[block * q8_blocks * OC_LANES..(block + 1) * q8_blocks * OC_LANES];
            let mut seed = [0.0f32; OC_LANES];
            seed[..bchans.len()].copy_from_slice(bchans);
            // SAFETY: `w` is `row_pairs` pair rows of `2 * OC_LANES`, `ws` one
            // row of `OC_LANES` scales per started `QK8_0` taps of them, and
            // each of the `R` rows of `qrows` holds `row_pairs` words; the
            // caller vouches for the CPU feature.
            unsafe { tile(w, ws, qrows, row_pairs, &a_scale, &seed, &mut acc) };
            store_tile(&acc, group.len(), ochans, s, t * R);
        }
    }
}

// ---------------------------------------------------------------------------
// Q8_0 int8 row-dot kernels (the quantized GEMM's inner loop).
// ---------------------------------------------------------------------------

/// The scalar Q8_0 row dot — the reference every SIMD path must match
/// bit-for-bit: per block, an exact int8×int8→i32 dot product (bounded by
/// `32 * 127² < 2^24`, so the i32→f32 conversion is exact), combined as
/// `acc += scale * dot` in ascending block order. The combine stays a
/// separate `mul` + `add` in every backend, like the f32 kernels'.
fn quant_row_dot_scalar(qa: &[i8], blocks: &[crate::quant::BlockQ8_0]) -> f32 {
    use crate::quant::QK8_0;
    let mut acc = 0.0f32;
    for (b, block) in blocks.iter().enumerate() {
        let a = &qa[b * QK8_0..(b + 1) * QK8_0];
        let mut dot = 0i32;
        for (x, w) in a.iter().zip(block.qs.iter()) {
            dot += i32::from(*x) * i32::from(*w);
        }
        acc += block.scale * dot as f32;
    }
    acc
}

/// Dot product of a quantized activation row against one reduction row of a
/// [`crate::quant::QuantMatrix`], dispatched on `isa` (resolved once per
/// GEMM by the caller). AVX-512 hosts use the AVX2 path — with 32-element
/// blocks the reduction is latency-bound, not width-bound, mirroring the f32
/// kernel's 4x16 fallback for odd strips.
///
/// # Panics
///
/// Panics if `qa` is shorter than `blocks.len() * QK8_0`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unreachable_patterns))]
pub(crate) fn quant_row_dot(isa: Isa, qa: &[i8], blocks: &[crate::quant::BlockQ8_0]) -> f32 {
    assert!(
        qa.len() >= blocks.len() * crate::quant::QK8_0,
        "quantized activation row shorter than the weight row"
    );
    match isa {
        Isa::Scalar => quant_row_dot_scalar(qa, blocks),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` comes from `active_isa` (host-clamped) and the row
        // length is asserted above.
        Isa::Sse2 => unsafe { x86::quant_row_dot_sse2(qa, blocks) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; AVX-512 hosts always support AVX2.
        Isa::Avx2 | Isa::Avx512 => unsafe { x86::quant_row_dot_avx2(qa, blocks) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => quant_row_dot_scalar(qa, blocks),
    }
}

/// Serializes tests that assert on [`active_isa`] or on what [`force_isa`]
/// returns, or that sweep the backends and mean each pass to run on the one
/// it named. The override is process-global: every backend is bit-identical,
/// so a concurrent flip can never corrupt a result — a test that only
/// compares kernel outputs needs no lock — but a test that reads the
/// override back would see another test's value.
/// Recovers from poisoning: a panicked ISA test must not cascade.
#[cfg(test)]
pub(crate) fn isa_override_test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::Mutex;
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_ordering_and_names() {
        assert!(Isa::Scalar < Isa::Sse2);
        assert!(Isa::Sse2 < Isa::Avx2);
        assert!(Isa::Avx2 < Isa::Avx512);
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(format!("{}", Isa::Scalar), "scalar");
    }

    #[test]
    fn supported_isas_starts_with_scalar_and_is_sorted() {
        let _lock = isa_override_test_lock();
        let isas = supported_isas();
        assert_eq!(isas[0], Isa::Scalar);
        assert!(isas.windows(2).all(|w| w[0] < w[1]));
        // The override is always clamped to a supported ISA, so the active
        // ISA is supported whether or not one is installed.
        assert!(isas.contains(&active_isa()));
    }

    #[test]
    fn quant_row_dot_is_bit_identical_on_every_isa() {
        use crate::quant::{quantize_f32, QK8_0};
        use crate::rng::SeededRng;
        let mut rng = SeededRng::new(88);
        for blocks_n in [1usize, 2, 5] {
            let w: Vec<f32> = (0..blocks_n * QK8_0)
                .map(|_| rng.uniform(-2.0, 2.0))
                .collect();
            let blocks = quantize_f32(&w);
            let qa: Vec<i8> = (0..blocks_n * QK8_0)
                .map(|_| (rng.below(255) as i32 - 127) as i8)
                .collect();
            let want = quant_row_dot_scalar(&qa, &blocks);
            for isa in supported_isas() {
                let got = quant_row_dot(isa, &qa, &blocks);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "quant dot diverges on {isa} ({got:e} vs {want:e})"
                );
            }
        }
    }

    #[test]
    fn force_isa_round_trips_and_clamps() {
        let _lock = isa_override_test_lock();
        let prev = force_isa(Some(Isa::Scalar));
        assert_eq!(active_isa(), Isa::Scalar);
        let back = force_isa(prev);
        assert_eq!(back, Some(Isa::Scalar));
        // A forced ISA never exceeds what the host supports.
        let widest = *supported_isas().last().unwrap();
        let prev = force_isa(Some(Isa::Avx512));
        assert!(active_isa() <= widest);
        force_isa(prev);
    }
}
