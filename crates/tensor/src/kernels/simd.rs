//! Explicit-SIMD backend: runtime ISA detection and the tile kernels — the
//! crate's only explicit SIMD and its only `unsafe` code.
//!
//! An autovectorized kernel is at the mercy of the compiler's loop vectorizer
//! (and of whatever `-C target-cpu` the binary was built with), and a
//! plain-Rust tile loses to it: LLVM spills the accumulators or gathers
//! across taps. This module takes the tiles out of the compiler's hands: one
//! sixteen-lane accumulator row (the `Lanes16` trait) as two AVX2 `ymm` or
//! one AVX-512 `zmm`, and a cached runtime CPU-feature dispatch
//! ([`active_isa`]) that picks the widest instruction set the host actually
//! supports — independent of how the binary was compiled. A host without AVX2 runs the safe scalar reference
//! tiles. Everything else — the elementwise kernels, the depthwise stencil,
//! eval batch norm, the pooling — is plain Rust for the loop vectorizer.
//!
//! Every f32 multiply-accumulate of the crate runs on one inner loop
//! (`conv_tile`): sixteen output lanes per vector row, as many rows per tile
//! as the backend's register file holds, the weight row one vector load and
//! the activation a scalar broadcast addressed through a window table
//! (`conv_tiles`). A convolution forward, a GEMM (`kernels/gemm.rs`) and both
//! halves of the convolution backward (`kernels/window.rs`) differ only in
//! the panels, the table and the seed they hand it. A lane group's
//! convolution — sixteen samples of an eval batch interleaved
//! `[c][h][w][16]` (`crate::LANE_GROUP`) — runs the same loop with the
//! operands' roles swapped (`lane_tiles`): the samples on the lanes, the
//! activations the vector load through the table, the weight the broadcast
//! read straight from the layer's `[oc][taps]` weights, the rows output
//! channels. This module holds no Q8_0 code: every quantized product — a
//! quantized convolution's forward, per sample or in lane groups, and every
//! quantized GEMM (`kernels/quant_gemm.rs`) — hands these `f32` tiles
//! integer-valued operands, one pass per Q8 block (`kernels/window.rs`), and
//! gets the exact integer block dots back because every partial sum stays
//! below `2^24`.
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
//! bytes), the weight the first operand of every multiply in both tile
//! roles. SIMD results are therefore bit-identical to the scalar kernels on
//! every ISA — pinned by the equivalence suites, which re-run the kernels
//! under every [`supported_isas`] entry. One thing no Rust code pins is
//! which payload a product or sum of two NaNs carries: the compiler may swap
//! the operands of `*` and `+`. The lane tile's multiply, whose weight is the
//! broadcast, is therefore written in assembly (`vmulps_first_256`,
//! `vmulps_first_512`), so that a NaN weight times a NaN activation carries
//! the weight's payload on the explicit-SIMD backends, as in the per-sample
//! tile.
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

use super::gemm::GemmInit;

/// An instruction-set backend for the tile kernels, ordered from narrowest
/// to widest. Only the `f32` tiles dispatch on it — the Q8_0 tier runs on
/// them too; every other kernel of the crate is a plain loop compiled for the
/// build's `target-cpu`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The safe scalar reference tiles (whatever the compiler autovectorizes
    /// them to): what a host without AVX2 runs.
    Scalar,
    /// 256-bit AVX2 vectors (a six-row tile of two `ymm` per row).
    Avx2,
    /// 512-bit AVX-512F vectors (a twelve-row tile of one `zmm` per row).
    Avx512,
}

impl Isa {
    /// Short lowercase name, for reports and debug output.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    fn from_index(i: u8) -> Isa {
        match i {
            0 => Isa::Scalar,
            1 => Isa::Avx2,
            _ => Isa::Avx512,
        }
    }

    fn index(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
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
    [Isa::Scalar, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|isa| *isa <= max)
        .collect()
}

/// Lanes of one output-channel block of the convolution kernel, and the
/// width of a weight-panel row (`kernels/window.rs`). A property of the panel
/// layout, not of the backend: every ISA reads the same panels.
pub(crate) const OC_LANES: usize = 16;

/// Output positions per convolution tile — what each backend's register file
/// holds as `OC_LANES`-wide accumulators next to one weight row: twelve of
/// 32 `zmm`, six pairs of 16 `ymm`.
#[cfg(target_arch = "x86_64")]
const CONV_ROWS_AVX512: usize = 12;
#[cfg(target_arch = "x86_64")]
const CONV_ROWS_AVX2: usize = 6;
/// The scalar tile's rows: few enough that the autovectorizer keeps the
/// `4 x 16` accumulators in registers.
const CONV_ROWS_SCALAR: usize = 4;

/// [`OC_LANES`] `f32` lanes — one accumulator row of the convolution tile —
/// with the one arithmetic step its inner loop takes.
///
/// Implementations must be lanewise IEEE-754 exact: the multiply and the add
/// are the plain (unfused) operations, and `load`/`store` preserve bit
/// patterns.
///
/// # Safety
///
/// `load`/`store` dereference raw pointers ([`OC_LANES`] lanes' worth), and
/// an implementation may only execute on hosts with its CPU feature;
/// [`active_isa`] guarantees this for all dispatched calls.
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
    /// Lanewise `self + w * x`, the weight the first source operand of the
    /// multiply and the product rounded before the sum (two IEEE roundings
    /// per lane). The weight is the vector `v` and `x` the broadcast `s`, or
    /// — with `SAMPLE_LANES` — the weight is the broadcast `s` and `x` the
    /// vector. Which operand comes first decides the payload of a product of
    /// two NaNs, and the compiler may swap the operands of a multiply, so the
    /// `SAMPLE_LANES` product is written in assembly (`vmulps_first_*`):
    /// the operand order the other role gets from code generation — the
    /// weight vector in a register, the broadcast folded into the multiply
    /// as its second operand.
    fn mul_acc<const SAMPLE_LANES: bool>(self, v: Self, s: f32) -> Self;
}

/// The tile's one inner loop, for every vector backend: `R` rows by
/// [`OC_LANES`] lanes, `acc[r][lane] = seeds[r][lane]; for p ascending:
/// acc[r][lane] += w * x`, one operand a vector row of `lanes`, the other a
/// scalar of `bcast` broadcast to every lane. The window table addresses one
/// of the two, and which one is the only difference between the tile's two
/// instantiations:
///
/// * output channels on the lanes (`SAMPLE_LANES == false`, every product
///   but a lane group's): the weight row `lanes[p * OC_LANES..]` is the
///   vector, the activation `bcast[taps[p] + offs[r]]` the broadcast, and the
///   rows are output positions;
/// * samples on the lanes (`SAMPLE_LANES == true`, a lane group's
///   convolution): the sixteen samples' activations `lanes[taps[p] *
///   OC_LANES..]` are the vector, the weight `bcast[p + offs[r]]` the
///   broadcast, and the rows are output channels.
///
/// Lanes and rows are independent output elements and the weight is the
/// first operand of every multiply ([`Lanes16::mul_acc`]), so per element
/// this is the scalar reference's operation sequence either way.
///
/// # Safety
///
/// Caller must guarantee `V`'s CPU feature is active and, for every `p` and
/// `r`, that the vector row `lanes[i * OC_LANES..(i + 1) * OC_LANES]` and the
/// scalar `bcast[j + offs[r]]` are in bounds, `(i, j)` being `(taps[p], p)`
/// with `SAMPLE_LANES` and `(p, taps[p])` without.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn conv_tile<V: Lanes16, const R: usize, const SAMPLE_LANES: bool>(
    lanes: &[f32],
    taps: &[u32],
    offs: &[usize; R],
    bcast: &[f32],
    seeds: &[[f32; OC_LANES]; R],
    acc: &mut [[f32; OC_LANES]; R],
) {
    let mut c = [V::load(seeds[0].as_ptr()); R];
    for (cr, row) in c.iter_mut().zip(seeds) {
        *cr = V::load(row.as_ptr());
    }
    for (p, &tap) in taps.iter().enumerate() {
        let (vector, scalar) = if SAMPLE_LANES {
            (tap as usize, p)
        } else {
            (p, tap as usize)
        };
        let v = V::load(lanes.as_ptr().add(vector * OC_LANES));
        let st = bcast.as_ptr().add(scalar);
        for (cr, &o) in c.iter_mut().zip(offs) {
            *cr = cr.mul_acc::<SAMPLE_LANES>(v, *st.add(o));
        }
    }
    for (cr, row) in c.iter().zip(acc.iter_mut()) {
        cr.store(row.as_mut_ptr());
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{conv_tile, Lanes16, OC_LANES};
    use std::arch::asm;
    use std::arch::x86_64::*;

    /// Two AVX2 `__m256` as one output-channel block.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2V(__m256, __m256);

    impl Lanes16 for Avx2V {
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            Avx2V(_mm256_loadu_ps(ptr), _mm256_loadu_ps(ptr.add(8)))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm256_storeu_ps(ptr, self.0);
            _mm256_storeu_ps(ptr.add(8), self.1);
        }

        #[inline(always)]
        fn mul_acc<const SAMPLE_LANES: bool>(self, v: Self, s: f32) -> Self {
            // SAFETY: `Avx2V` only runs on AVX2 hosts (the trait's contract).
            unsafe {
                let sv = _mm256_set1_ps(s);
                let (p0, p1) = if SAMPLE_LANES {
                    (vmulps_first_256(sv, v.0), vmulps_first_256(sv, v.1))
                } else {
                    (_mm256_mul_ps(v.0, sv), _mm256_mul_ps(v.1, sv))
                };
                Avx2V(_mm256_add_ps(self.0, p0), _mm256_add_ps(self.1, p1))
            }
        }
    }

    /// `vmulps` on two `ymm` registers, `a` the first source operand.
    ///
    /// # Safety
    ///
    /// Host must support AVX.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn vmulps_first_256(a: __m256, b: __m256) -> __m256 {
        let product;
        asm!("vmulps {p}, {a}, {b}", p = lateout(ymm_reg) product, a = in(ymm_reg) a,
             b = in(ymm_reg) b, options(pure, nomem, nostack, preserves_flags));
        product
    }

    /// `vmulps` on two `zmm` registers, `a` the first source operand.
    ///
    /// # Safety
    ///
    /// Host must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn vmulps_first_512(a: __m512, b: __m512) -> __m512 {
        let product;
        asm!("vmulps {p}, {a}, {b}", p = lateout(zmm_reg) product, a = in(zmm_reg) a,
             b = in(zmm_reg) b, options(pure, nomem, nostack, preserves_flags));
        product
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
        fn mul_acc<const SAMPLE_LANES: bool>(self, v: Self, s: f32) -> Self {
            unsafe {
                let sv = _mm512_set1_ps(s);
                let product = if SAMPLE_LANES {
                    vmulps_first_512(sv, v.0)
                } else {
                    _mm512_mul_ps(v.0, sv)
                };
                Avx512V(_mm512_add_ps(self.0, product))
            }
        }
    }

    /// AVX2 instantiation of the convolution tile ([`conv_tile`]).
    ///
    /// # Safety
    ///
    /// Host must support AVX2; table and panel invariants as in
    /// [`conv_tile`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn conv_tile_avx2<const R: usize, const SAMPLE_LANES: bool>(
        lanes: &[f32],
        taps: &[u32],
        offs: &[usize; R],
        bcast: &[f32],
        seeds: &[[f32; OC_LANES]; R],
        acc: &mut [[f32; OC_LANES]; R],
    ) {
        conv_tile::<Avx2V, R, SAMPLE_LANES>(lanes, taps, offs, bcast, seeds, acc);
    }

    /// AVX-512 instantiation of the convolution tile ([`conv_tile`]): one
    /// `zmm` accumulator per row.
    ///
    /// # Safety
    ///
    /// Host must support AVX-512F; table and panel invariants as in
    /// [`conv_tile`].
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn conv_tile_avx512<const R: usize, const SAMPLE_LANES: bool>(
        lanes: &[f32],
        taps: &[u32],
        offs: &[usize; R],
        bcast: &[f32],
        seeds: &[[f32; OC_LANES]; R],
        acc: &mut [[f32; OC_LANES]; R],
    ) {
        conv_tile::<Avx512V, R, SAMPLE_LANES>(lanes, taps, offs, bcast, seeds, acc);
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

// ---------------------------------------------------------------------------
// The tile kernel: output lanes on the vector lanes, activations broadcast
// through a window table.
// ---------------------------------------------------------------------------

/// One tile on some backend ([`conv_tile`]): `acc[r][lane] = seeds[r][lane]
/// + Σ_p w * x`, `p` ascending, one operand a vector row of `lanes` and the
/// other a scalar of `bcast`.
type ConvTileFn<const R: usize> = unsafe fn(
    lanes: &[f32],
    taps: &[u32],
    offs: &[usize; R],
    bcast: &[f32],
    seeds: &[[f32; OC_LANES]; R],
    acc: &mut [[f32; OC_LANES]; R],
);

/// The scalar (autovectorized) tile — the `Isa::Scalar` backend and the
/// reference every vector backend must match bit for bit, in both roles
/// ([`conv_tile`]). Plain indexing: a table entry outside the operands panics
/// instead of reading.
fn conv_tile_scalar<const R: usize, const SAMPLE_LANES: bool>(
    lanes: &[f32],
    taps: &[u32],
    offs: &[usize; R],
    bcast: &[f32],
    seeds: &[[f32; OC_LANES]; R],
    acc: &mut [[f32; OC_LANES]; R],
) {
    let mut tile = *seeds;
    for (p, &tap) in taps.iter().enumerate() {
        let (vector, scalar) = if SAMPLE_LANES {
            (tap as usize, p)
        } else {
            (p, tap as usize)
        };
        let v = &lanes[vector * OC_LANES..(vector + 1) * OC_LANES];
        let st = &bcast[scalar..];
        for (row, &o) in tile.iter_mut().zip(offs) {
            let s = st[o];
            for (a, &vl) in row.iter_mut().zip(v) {
                let (w, x) = if SAMPLE_LANES { (s, vl) } else { (vl, s) };
                *a += w * x;
            }
        }
    }
    *acc = tile;
}

/// One product as the tile kernel sees it: `out[lane][s] = init[lane][s] +
/// Σ_p w[lane][p] * x[taps[p] + offs[s]]` for `lanes` output rows and
/// `offs.len()` output positions, `p` ascending. A convolution forward has
/// its filters on the lanes and the padded image behind the window table; a
/// GEMM ([`super::gemm_into`]) has A's rows on the lanes and B behind the
/// table `taps[p] = p * n`, `offs[j] = j`; the convolution's weight gradient
/// swaps the window table's roles (`kernels/window.rs`).
pub(crate) struct ConvOperands<'a> {
    /// `w` as `[lane block][p][OC_LANES]` rows, lanes past the last one zero
    /// (`kernels/window.rs` packs them).
    pub(crate) panels: &'a [f32],
    /// Output rows, one per lane.
    pub(crate) lanes: usize,
    /// Where each output element starts: `RowBias` holds one seed per lane.
    pub(crate) init: GemmInit<'a>,
    /// Window table: the offset of tap `p` from a receptive field's origin.
    pub(crate) taps: &'a [u32],
    /// Window table: the origin of output position `s` in `x`.
    pub(crate) offs: &'a [u32],
    /// What both tables index.
    pub(crate) x: &'a [f32],
    /// `[lanes, offs.len()]` row-major.
    pub(crate) out: &'a mut [f32],
}

/// One product with its output rows on the vector lanes, taps accumulated in
/// ascending order from the [`GemmInit`] seed.
///
/// Each block of [`OC_LANES`] lanes is computed a tile of positions at a
/// time — as many as the backend for `isa` keeps in registers — with padded
/// lanes and padded positions computed and never stored. All backends are
/// bit-identical.
///
/// # Panics
///
/// Panics if `panels`, `out` or a `RowBias` seed does not match `lanes`,
/// `taps.len()` and `offs.len()`, or if the table addresses an element outside
/// `x`.
pub(crate) fn conv_tiles(isa: Isa, ops: ConvOperands<'_>) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` comes from `active_isa`, which only reports CPU
        // features the host has.
        Isa::Avx512 => unsafe { conv_drive(x86::conv_tile_avx512::<CONV_ROWS_AVX512, false>, ops) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { conv_drive(x86::conv_tile_avx2::<CONV_ROWS_AVX2, false>, ops) },
        // SAFETY: the scalar tile is safe code and needs no CPU feature.
        _ => unsafe { conv_drive(conv_tile_scalar::<CONV_ROWS_SCALAR, false>, ops) },
    }
}

/// [`conv_tiles`] on one backend: walks the lane blocks and, inside each, the
/// position tiles of `R` rows; seeds every tile from its [`GemmInit`] — zero
/// or the block's row biases, set once per block, or the tile's valid corner
/// of `out` itself ([`load_tile`]) — and transposes its valid corner back
/// into the `[lane][position]` output ([`store_tile`]).
///
/// # Safety
///
/// `tile` must be runnable on this host (its CPU feature available). Its
/// other preconditions are established here: the panel length once per call,
/// the table against `x` once per tile.
unsafe fn conv_drive<const R: usize>(tile: ConvTileFn<R>, ops: ConvOperands<'_>) {
    let ConvOperands {
        panels,
        lanes,
        init,
        taps,
        offs,
        x,
        out,
    } = ops;
    let s = offs.len();
    let block_len = taps.len() * OC_LANES;
    assert_eq!(
        panels.len(),
        lanes.div_ceil(OC_LANES) * block_len,
        "conv: weight panels must be [lane blocks][taps][OC_LANES]"
    );
    assert_eq!(out.len(), lanes * s, "conv: out must be lanes*s");
    if let GemmInit::RowBias(bias) = init {
        assert_eq!(bias.len(), lanes, "conv: one seed per lane");
    }
    if s == 0 {
        return;
    }
    let max_tap = taps.iter().max().map_or(0, |&t| t as usize);
    let mut seeds = [[0.0f32; OC_LANES]; R];
    let mut acc = [[0.0f32; OC_LANES]; R];
    for (block, ochans) in out.chunks_mut(OC_LANES * s).enumerate() {
        let w = &panels[block * block_len..(block + 1) * block_len];
        if let GemmInit::RowBias(bias) = init {
            let bchans = &bias[block * OC_LANES..lanes.min((block + 1) * OC_LANES)];
            let mut seed = [0.0f32; OC_LANES];
            seed[..bchans.len()].copy_from_slice(bchans);
            seeds = [seed; R];
        }
        for (t, group) in offs.chunks(R).enumerate() {
            // Rows past the last position re-read the tile's first window.
            let mut rows = [group[0] as usize; R];
            for (row, &o) in rows.iter_mut().zip(group) {
                *row = o as usize;
            }
            let max_off = rows.iter().fold(0, |m, &o| m.max(o));
            assert!(
                taps.is_empty() || max_tap + max_off < x.len(),
                "conv: window table reaches outside the padded image"
            );
            if let GemmInit::Accumulate = init {
                load_tile(&mut seeds, group.len(), ochans, s, t * R);
            }
            // SAFETY: `w` holds `taps.len()` rows of `OC_LANES` weights
            // (sliced above) and every `taps[p] + rows[r]` is at most
            // `max_tap + max_off`, inside `x` by the assert; the caller
            // vouches for the CPU feature.
            unsafe { tile(w, taps, &rows, x, &seeds, &mut acc) };
            store_tile(&acc, group.len(), ochans, s, t * R);
        }
    }
}

/// The mirror of [`store_tile`]: reads the valid corner of a
/// `[position][lane]` tile from the `[lane][position]` output. Lanes and rows
/// outside it keep whatever the previous tile left there — computed, never
/// stored.
fn load_tile<const R: usize>(
    acc: &mut [[f32; OC_LANES]; R],
    rows: usize,
    ochans: &[f32],
    s: usize,
    s0: usize,
) {
    for (q, quad) in ochans.chunks(4 * s).enumerate() {
        let l0 = 4 * q;
        for r0 in (0..rows).step_by(4) {
            let r0 = r0.min(rows.saturating_sub(4));
            #[cfg(target_arch = "x86_64")]
            if quad.len() == 4 * s && r0 + 4 <= rows {
                let mut chans = quad.chunks_exact(s);
                let src: [&[f32; 4]; 4] = std::array::from_fn(|_| {
                    let chan = chans.next().expect("four channels");
                    chan[s0 + r0..s0 + r0 + 4]
                        .try_into()
                        .expect("four positions")
                });
                let mut tile_rows = acc[r0..r0 + 4].iter_mut();
                let dst: [&mut [f32; 4]; 4] = std::array::from_fn(|_| {
                    let row = tile_rows.next().expect("four rows");
                    (&mut row[l0..l0 + 4]).try_into().expect("four lanes")
                });
                // SAFETY: SSE2 is the `x86_64` baseline.
                unsafe { x86::transpose4_sse2(src, dst) };
                continue;
            }
            for (i, chan) in quad.chunks_exact(s).enumerate() {
                for r in r0..rows.min(r0 + 4) {
                    acc[r][l0 + i] = chan[s0 + r];
                }
            }
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
// The same tile with the samples of a lane group on the vector lanes.
// ---------------------------------------------------------------------------

/// A convolution over a lane group — [`OC_LANES`] samples, each element one
/// vector of their values — as the tile kernel sees it: `out[oc][s][lane] =
/// bias[oc] + Σ_p weight[oc][p] * x[(taps[p] + offs[s]) * OC_LANES + lane]`,
/// `p` ascending. The window table is the one a single sample's convolution
/// uses, its entries counting vectors instead of elements.
pub(crate) struct LaneOperands<'a> {
    /// `[oc][taps.len()]` row-major: the layer's weights as they are.
    pub(crate) weight: &'a [f32],
    /// One seed per output channel.
    pub(crate) bias: &'a [f32],
    /// Window table: the offset of tap `p` from a receptive field's origin.
    pub(crate) taps: &'a [u32],
    /// Window table: the origin of output position `s`.
    pub(crate) offs: &'a [u32],
    /// The padded lane image both tables index, `[..][OC_LANES]`.
    pub(crate) x: &'a [f32],
    /// `[oc][offs.len()][OC_LANES]`.
    pub(crate) out: &'a mut [f32],
}

/// Output channels per tile of a lane-group convolution: each backend's
/// convolution tile (`CONV_ROWS_*`) and a narrower one, so that a channel
/// count splits into tiles with few rows to spare ([`lane_split`]).
#[cfg(target_arch = "x86_64")]
const LANE_ROWS_AVX512: (usize, usize) = (CONV_ROWS_AVX512, 8);
#[cfg(target_arch = "x86_64")]
const LANE_ROWS_AVX2: (usize, usize) = (CONV_ROWS_AVX2, 4);
const LANE_ROWS_SCALAR: (usize, usize) = (CONV_ROWS_SCALAR, 2);

/// One lane-group convolution with the samples on the vector lanes
/// ([`conv_tile`] with `SAMPLE_LANES`): per output position, tiles of output
/// channels, each tap one vector load of the sixteen samples' activations and
/// one broadcast weight per channel, read straight from the `[oc][taps]`
/// weights. Channels past the last one re-read the tile's first and are never
/// stored; every tile row is a contiguous store. All backends are
/// bit-identical, to each other and — per sample — to [`conv_tiles`] on the
/// same operands.
///
/// # Panics
///
/// Panics if `weight`, `bias` or `out` do not match each other, `taps.len()`
/// and `offs.len()`, or if the table addresses a vector outside `x`.
pub(crate) fn lane_tiles(isa: Isa, ops: LaneOperands<'_>) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` comes from `active_isa`, which only reports CPU
        // features the host has.
        Isa::Avx512 => unsafe {
            lane_drive(
                x86::conv_tile_avx512::<{ LANE_ROWS_AVX512.0 }, true>,
                x86::conv_tile_avx512::<{ LANE_ROWS_AVX512.1 }, true>,
                ops,
            )
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe {
            lane_drive(
                x86::conv_tile_avx2::<{ LANE_ROWS_AVX2.0 }, true>,
                x86::conv_tile_avx2::<{ LANE_ROWS_AVX2.1 }, true>,
                ops,
            )
        },
        // SAFETY: the scalar tile is safe code and needs no CPU feature.
        _ => unsafe {
            lane_drive(
                conv_tile_scalar::<{ LANE_ROWS_SCALAR.0 }, true>,
                conv_tile_scalar::<{ LANE_ROWS_SCALAR.1 }, true>,
                ops,
            )
        },
    }
}

/// How many of `oc` channels a lane-group convolution runs in tiles of `r`
/// rows, the rest going to tiles of `s` rows: the split that computes the
/// fewest rows, and of those the one with the most wide tiles. On AVX-512
/// (12 and 8 rows) the zoo's 8, 12, 16, 20, 24 and 40 channels waste no row
/// and 14 wastes two; one width alone would waste 4-10.
fn lane_split(oc: usize, r: usize, s: usize) -> usize {
    (0..=oc.div_ceil(r))
        .map(|wide| {
            let narrow = oc.saturating_sub(wide * r).div_ceil(s);
            (wide * r + narrow * s, std::cmp::Reverse(wide))
        })
        .min()
        .map_or(0, |(_, std::cmp::Reverse(wide))| (wide * r).min(oc))
}

/// [`lane_tiles`] on one backend: splits the output channels between the
/// backend's wide tile `full` and its narrow one `part` ([`lane_split`]).
///
/// # Safety
///
/// Both tiles must be runnable on this host (their CPU feature available).
/// Their other preconditions are established here, once per call.
unsafe fn lane_drive<const R: usize, const S: usize>(
    full: ConvTileFn<R>,
    part: ConvTileFn<S>,
    ops: LaneOperands<'_>,
) {
    let oc = ops.bias.len();
    let (depth, s) = (ops.taps.len(), ops.offs.len());
    assert_eq!(
        ops.weight.len(),
        oc * depth,
        "lane conv: weight must be oc*taps"
    );
    assert_eq!(
        ops.out.len(),
        oc * s * OC_LANES,
        "lane conv: out must be oc*s*16"
    );
    let max_tap = ops.taps.iter().fold(0, |m, &t| m.max(t as usize));
    let max_off = ops.offs.iter().fold(0, |m, &o| m.max(o as usize));
    assert!(
        depth == 0 || s == 0 || (max_tap + max_off + 1) * OC_LANES <= ops.x.len(),
        "lane conv: window table reaches outside the padded image"
    );
    let wide = lane_split(oc, R, S);
    let mut ops = ops;
    // SAFETY: the asserts above are `lane_pass`'s preconditions; the caller
    // vouches for the CPU feature.
    unsafe {
        lane_pass(full, 0..wide, &mut ops);
        lane_pass(part, wide..oc, &mut ops);
    }
}

/// Output channels `chans` of a lane-group convolution in tiles of `R`: per
/// tile, every row seeded from its channel's bias, then the output positions
/// one tile call each, the valid rows stored.
///
/// # Safety
///
/// `tile` must be runnable on this host; `ops.weight` must hold `taps.len()`
/// weights per channel of `ops.bias`, and every `(taps[p] + offs[s] + 1) *
/// OC_LANES` must be at most `ops.x.len()`.
unsafe fn lane_pass<const R: usize>(
    tile: ConvTileFn<R>,
    chans: std::ops::Range<usize>,
    ops: &mut LaneOperands<'_>,
) {
    let (weight, bias, taps, offs, x) = (ops.weight, ops.bias, ops.taps, ops.offs, ops.x);
    let out = &mut *ops.out;
    let (depth, s) = (taps.len(), offs.len());
    let mut seeds = [[0.0f32; OC_LANES]; R];
    let mut acc = [[0.0f32; OC_LANES]; R];
    for c0 in chans.clone().step_by(R) {
        let valid = R.min(chans.end - c0);
        // Rows past the last channel re-read the tile's first.
        let mut rows = [c0 * depth; R];
        for (r, (row, seed)) in rows.iter_mut().zip(&mut seeds).take(valid).enumerate() {
            *row = (c0 + r) * depth;
            *seed = [bias[c0 + r]; OC_LANES];
        }
        for (pos, &o) in offs.iter().enumerate() {
            let xs = &x[o as usize * OC_LANES..];
            // SAFETY: every vector row the tile loads, `(taps[p] + o) *
            // OC_LANES..+OC_LANES`, is inside `x` and every weight it
            // broadcasts, `rows[r] + p`, inside `weight` (the caller's
            // preconditions); the caller vouches for the CPU feature.
            unsafe { tile(xs, taps, &rows, weight, &seeds, &mut acc) };
            for (r, row) in acc.iter().take(valid).enumerate() {
                let at = ((c0 + r) * s + pos) * OC_LANES;
                out[at..at + OC_LANES].copy_from_slice(row);
            }
        }
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
        let isas = [Isa::Scalar, Isa::Avx2, Isa::Avx512];
        assert!(isas.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(isas.map(Isa::name), ["scalar", "avx2", "avx512"]);
        for isa in isas {
            assert_eq!(Isa::from_index(isa.index()), isa);
        }
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
