//! Cache-blocked, register-tiled GEMM.
//!
//! The kernel follows the classic GotoBLAS/BLIS decomposition: the output is
//! computed in `MC x NC` macro-tiles, the `K` dimension is consumed in `KC`
//! slabs whose operands are packed into contiguous panels (`MR`-row strips of
//! A, `NR`-column strips of B), and an `MR x NR` register-tiled microkernel
//! performs the innermost multiply-accumulate with all `MR * NR` partial sums
//! held in registers.
//!
//! The microkernel dispatches onto the explicit-SIMD backend in
//! [`super::simd`]: SSE2 and AVX2 instantiations of the `MR x NR` tile, and
//! on AVX-512 hosts a widened `2*MR x NR` paired-strip kernel (eight 16-lane
//! accumulator chains, enough independent adds to saturate both 512-bit
//! vector ports). [`super::simd::active_isa`] picks the backend at runtime;
//! the scalar microkernel remains the `Isa::Scalar` fallback and the
//! reference all backends must match bit-for-bit.
//!
//! # Determinism contract
//!
//! Every path in this module accumulates each output element's products in
//! strictly increasing `p` (inner-dimension) order, starting from the
//! element's initial value ([`GemmInit`]): the `KC` slabs are processed in
//! ascending order and the microkernel reloads/stores the output tile at slab
//! boundaries rather than reassociating partial sums. Since Rust never
//! contracts `a * b + c` into a fused multiply-add on its own, the blocked
//! kernel and the plain `i-k-j` loop are both **bit-identical** to the naive
//! `i-k-j` triple loop (see [`super::naive::matmul_naive`]) — which is what
//! keeps serving results byte-stable across kernel choices. Every kernel
//! here runs on the calling thread: a GEMM is a function of its arguments,
//! and [`super::simd::active_isa`] changes only how fast it is computed.
//!
//! # Which kernel a problem runs on
//!
//! Above `SMALL_PROBLEM_MACS` always the blocked one. A small problem runs
//! on it too if it has at least `MR` rows and `MR` steps of depth — a full
//! register strip to fill and enough work per packed element to pay for the
//! packing — and on the plain `i-k-j` loop otherwise: with one to three rows
//! (a dense layer at batch 1) most of the tile would be padding, and at
//! `k = 1` or `2` (an outer product) packing costs more than the multiply.
//! The choice never shows in the output bits. (No convolution forward is a
//! GEMM customer: the standard one runs the output-channel-lane kernel, the
//! depthwise one a direct stencil — see `kernels/window.rs`.)
//!
//! # Edge tiles
//!
//! A tile at the bottom or right edge covers only `mrows x ncols` valid
//! elements, but both packers zero-pad their strips to `MR` rows / `NR`
//! columns, so it runs the **same** dispatched microkernel as a full tile:
//! the valid corner of a full accumulator block is seeded, the whole block is
//! computed, and only the valid corner is stored.
//! Lanes are independent output elements, so whatever the padded lanes
//! compute — including `NaN` from `inf * 0` — never reaches the output, and
//! per valid element the operation sequence is the identical ascending-`p`
//! mul-then-add.

use super::scratch::PackScratch;
use super::simd::{self, Isa};

/// Rows of the register microkernel tile. With [`NR`]` = 16` the `MR x NR`
/// accumulator block is 8 `ymm` registers (16 on the paired AVX-512 path's
/// `2*MR x NR` tile, one `zmm` per row) — small enough to leave registers
/// for the A broadcasts and B loads on every backend down to SSE2.
pub const MR: usize = 4;
/// Columns of the register microkernel tile: two 8-lane vectors per row
/// (one 16-lane vector on AVX-512), matching the widest `f32x8`/`f32x16`
/// strips the SIMD backends load per step.
pub const NR: usize = 16;
/// Rows of A packed per macro-block (multiple of [`MR`]). An
/// `MC x KC` A panel is 32 KiB — half a typical L1d — so the strip the
/// microkernel streams stays L1-resident against the L2-resident B panel.
pub const MC: usize = 64;
/// Depth consumed per packed slab (the `p`-extent of both panels). Chosen
/// so panel height amortizes the pack cost while `KC * NR` B strips
/// (8 KiB) stay comfortably cached; slabs also bound how long the
/// microkernel holds a tile before the determinism contract's
/// reload/store at slab boundaries.
pub const KC: usize = 128;
/// Columns of B packed per macro-block (multiple of [`NR`]). A `KC x NC`
/// B panel is 128 KiB — sized for L2 so every A strip of the macro-block
/// reuses it without refetching from L3/memory.
pub const NC: usize = 256;

/// A GEMM of at most this many multiply-accumulates skips packing for the
/// plain `i-k-j` loop unless it fills a register strip (see "Which kernel a
/// problem runs on" in the module docs).
const SMALL_PROBLEM_MACS: usize = 32 * 1024;

/// How an output element starts before the `A x B` products are accumulated.
#[derive(Clone, Copy)]
pub enum GemmInit<'a> {
    /// `out = A x B`: elements start at `0.0`.
    Zero,
    /// `out += A x B`: elements keep their current value (gradient
    /// accumulation).
    Accumulate,
    /// `out[i][j]` starts at `bias[i]` — the convolution-forward convention,
    /// where the naive kernel seeds its accumulator with the output-channel
    /// bias *before* the taps.
    RowBias(&'a [f32]),
}

/// `out[m x n] <- init ⊕ a[m x k] x b[k x n]`, all row-major slices.
///
/// Dispatches between the `i-k-j` loop and the blocked kernel (see the
/// module docs); both produce bit-identical results. `packs` supplies the
/// blocked kernel's packing panels.
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
    packs: &mut PackScratch,
) {
    assert_eq!(a.len(), m * k, "gemm: A must be m*k");
    assert_eq!(b.len(), k * n, "gemm: B must be k*n");
    assert_eq!(out.len(), m * n, "gemm: out must be m*n");
    if let GemmInit::RowBias(bias) = init {
        assert_eq!(bias.len(), m, "gemm: row bias must have m entries");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        init_only(m, n, init, out);
        return;
    }
    let small = m * k * n <= SMALL_PROBLEM_MACS;
    if small && (m < MR || k < MR) {
        gemm_ikj(m, k, n, a, b, init, out);
        return;
    }
    // Resolve the SIMD backend once per call: `pair` and the tile kernels
    // must agree on it even if an override flips mid-call.
    gemm_blocked(simd::active_isa(), m, k, n, a, b, init, out, packs);
}

/// Degenerate `k == 0` case: the "product" contributes nothing, only the
/// initialization is applied.
fn init_only(_m: usize, n: usize, init: GemmInit<'_>, out: &mut [f32]) {
    match init {
        GemmInit::Zero => out.fill(0.0),
        GemmInit::Accumulate => {}
        GemmInit::RowBias(bias) => {
            for (row, &bv) in out.chunks_exact_mut(n).zip(bias.iter()) {
                row.fill(bv);
            }
        }
    }
}

/// Plain `i-k-j` loop: walks B rows and the output row contiguously. This is
/// the seed kernel minus its `a == 0.0` sparsity branch (which pessimized
/// dense data and is bit-equivalent to just accumulating for finite inputs).
fn gemm_ikj(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        match init {
            GemmInit::Zero => out_row.fill(0.0),
            GemmInit::Accumulate => {}
            GemmInit::RowBias(bias) => out_row.fill(bias[i]),
        }
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// The blocked kernel: `NC`-column macro-blocks, `KC`-deep packed slabs,
/// `MC`-row packed A panels, `MR x NR` register microkernel.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
    packs: &mut PackScratch,
) {
    // The backend comes resolved from `gemm_into`; the microkernel
    // dispatches branch-predictably per tile.
    let pair = simd::has_paired_microkernel(isa);
    let a_panel_len = MC.div_ceil(MR) * MR * KC;
    let b_panel_len = NC.div_ceil(NR) * NR * KC;
    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        let j_tiles = ncb.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            let first_slab = pc == 0;
            let b_pack = packs.b.take(b_panel_len);
            pack_b(b, n, pc, kcb, jc, ncb, b_pack);
            let mut ic = 0;
            while ic < m {
                let mcb = MC.min(m - ic);
                let i_tiles = mcb.div_ceil(MR);
                let a_pack = packs.a.take(a_panel_len);
                pack_a(a, k, ic, mcb, pc, kcb, a_pack);
                for jt in 0..j_tiles {
                    let j0 = jc + jt * NR;
                    let ncols = NR.min(n - j0);
                    let b_tile = &b_pack[jt * kcb * NR..(jt + 1) * kcb * NR];
                    let mut it = 0;
                    while it < i_tiles {
                        let i0 = ic + it * MR;
                        let mrows = MR.min(m - i0);
                        let a_tile = &a_pack[it * kcb * MR..(it + 1) * kcb * MR];
                        let full = mrows == MR && ncols == NR;
                        if pair && full && it + 1 < i_tiles && m - (i0 + MR) >= MR {
                            // Two vertically adjacent full strips: the
                            // widened 2*MR x NR AVX-512 kernel.
                            let a_hi = &a_pack[(it + 1) * kcb * MR..(it + 2) * kcb * MR];
                            run_tile(
                                2 * MR,
                                NR,
                                init,
                                first_slab,
                                i0,
                                j0,
                                n,
                                out,
                                |acc: &mut [[f32; NR]; 2 * MR]| {
                                    simd::microkernel_8x16(kcb, a_tile, a_hi, b_tile, acc)
                                },
                            );
                            it += 2;
                            continue;
                        }
                        run_tile(
                            mrows,
                            ncols,
                            init,
                            first_slab,
                            i0,
                            j0,
                            n,
                            out,
                            |acc: &mut [[f32; NR]; MR]| {
                                simd::microkernel_4x16(isa, kcb, a_tile, b_tile, acc)
                            },
                        );
                        it += 1;
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// The one tile routine, for an `ROWS x NR` accumulator block of which the
/// top-left `mrows x ncols` corner is valid output at `(i0, j0)`: seed the
/// corner (the [`GemmInit`] seed on the first `KC` slab, the current output
/// afterwards or for `Accumulate`), run `kernel` over the whole block —
/// `acc[r][c] += a[p][r] * b[p][c]` for every `p` ascending, on zero-padded
/// panels — and store the corner back. Full, paired and edge tiles differ
/// only in `ROWS`, the valid extents and the microkernel passed in, so the
/// seeding rules cannot diverge between them.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_tile<const ROWS: usize>(
    mrows: usize,
    ncols: usize,
    init: GemmInit<'_>,
    first_slab: bool,
    i0: usize,
    j0: usize,
    ldc: usize,
    out: &mut [f32],
    kernel: impl FnOnce(&mut [[f32; NR]; ROWS]),
) {
    let mut acc = [[0.0f32; NR]; ROWS];
    if !first_slab || matches!(init, GemmInit::Accumulate) {
        for (r, acc_row) in acc[..mrows].iter_mut().enumerate() {
            let row = (i0 + r) * ldc + j0;
            copy_tile_row(acc_row, &out[row..row + ncols]);
        }
    } else if let GemmInit::RowBias(bias) = init {
        for (acc_row, &bv) in acc.iter_mut().zip(&bias[i0..i0 + mrows]) {
            *acc_row = [bv; NR];
        }
    }
    kernel(&mut acc);
    for (r, acc_row) in acc[..mrows].iter().enumerate() {
        let row = (i0 + r) * ldc + j0;
        copy_tile_row(&mut out[row..row + ncols], acc_row);
    }
}

/// `dst[..n] = src[..n]` for `n = min(dst.len(), src.len()) <= NR`. The
/// full-width case is spelled out with a constant length so it stays a pair
/// of vector moves rather than a `memcpy` call.
#[inline(always)]
fn copy_tile_row(dst: &mut [f32], src: &[f32]) {
    let n = dst.len().min(src.len());
    if n == NR {
        dst[..NR].copy_from_slice(&src[..NR]);
    } else {
        dst[..n].copy_from_slice(&src[..n]);
    }
}

/// Packs `a[ic..ic+mcb, pc..pc+kcb]` into `MR`-row strips: strip `it` holds
/// `kcb` groups of `MR` consecutive-row values (rows past `m` are zero).
fn pack_a(a: &[f32], lda: usize, ic: usize, mcb: usize, pc: usize, kcb: usize, pack: &mut [f32]) {
    let i_tiles = mcb.div_ceil(MR);
    for it in 0..i_tiles {
        let strip = &mut pack[it * kcb * MR..(it + 1) * kcb * MR];
        let rows = MR.min(mcb - it * MR);
        if rows < MR {
            strip.fill(0.0);
        }
        // Read each source row contiguously, scatter into the (L1-resident)
        // strip with stride MR.
        for r in 0..rows {
            let src_row = (ic + it * MR + r) * lda + pc;
            let src = &a[src_row..src_row + kcb];
            for (p, &v) in src.iter().enumerate() {
                strip[p * MR + r] = v;
            }
        }
    }
}

/// Packs `b[pc..pc+kcb, jc..jc+ncb]` into `NR`-column strips: strip `jt`
/// holds `kcb` groups of `NR` consecutive-column values (columns past `n` are
/// zero).
fn pack_b(b: &[f32], ldb: usize, pc: usize, kcb: usize, jc: usize, ncb: usize, pack: &mut [f32]) {
    let j_tiles = ncb.div_ceil(NR);
    for jt in 0..j_tiles {
        let strip = &mut pack[jt * kcb * NR..(jt + 1) * kcb * NR];
        let cols = NR.min(ncb - jt * NR);
        for p in 0..kcb {
            let src_row = (pc + p) * ldb + jc + jt * NR;
            let dst = &mut strip[p * NR..(p + 1) * NR];
            if cols == NR {
                dst.copy_from_slice(&b[src_row..src_row + NR]);
            } else {
                dst[..cols].copy_from_slice(&b[src_row..src_row + cols]);
                dst[cols..].fill(0.0);
            }
        }
    }
}

/// `out = A x B` followed by an in-place per-column bias pass —
/// bit-identical to `matmul` + `add_row_broadcast` (the bias joins *after*
/// each element's full `K` accumulation, exactly like the unfused pair)
/// while allocating no intermediate tensor.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_cols(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    packs: &mut PackScratch,
) {
    assert_eq!(bias.len(), n, "gemm_bias_cols: bias must have n entries");
    gemm_into(m, k, n, a, b, GemmInit::Zero, out, packs);
    super::elementwise::bias_add_rows(out, bias);
}

/// Transposes the row-major `rows x cols` matrix `src` into `dst`
/// (`cols x rows`).
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose: src must be rows*cols");
    assert_eq!(dst.len(), rows * cols, "transpose: dst must be rows*cols");
    for r in 0..rows {
        let src_row = &src[r * cols..(r + 1) * cols];
        for (c, &v) in src_row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}
