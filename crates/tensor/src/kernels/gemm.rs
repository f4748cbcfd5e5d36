//! The f32 GEMM, on the tile kernel every convolution runs on.
//!
//! [`gemm_into`] puts the rows of A on the vector lanes: A is packed as
//! `[16-row block][k][16]` panels — the layout of a convolution's weight
//! panels — and B is read through the window table `taps[p] = p * n`,
//! `offs[j] = j`, so a tile of B's columns is to the GEMM what a tile of
//! output positions is to a convolution. Per step `p` the kernel takes one
//! vector load of sixteen rows of A and one broadcast element of B per
//! column ([`super::simd`]'s `conv_tile`).
//!
//! # Determinism contract
//!
//! Every path in this module accumulates each output element's products in
//! strictly increasing `p` (inner-dimension) order, starting from the
//! element's initial value ([`GemmInit`]), each product rounded before it is
//! added. Since Rust never contracts `a * b + c` into a fused multiply-add on
//! its own and the vector backends keep the multiply and the add apart, the
//! tile kernel and the plain `i-k-j` loop are both **bit-identical** to the
//! naive `i-k-j` triple loop (see [`super::naive::matmul_naive`]) — which is
//! what keeps serving results byte-stable across kernel choices. Every kernel
//! here runs on the calling thread: a GEMM is a function of its arguments,
//! and [`super::simd::active_isa`] changes only how fast it is computed.
//!
//! # Which kernel a problem runs on
//!
//! Above `SMALL_PROBLEM_MACS` always the tile kernel. A small problem runs
//! on it too if it has at least `MIN_TILED` rows and `MIN_TILED` steps of
//! depth — enough work per packed element to pay for the packing — and on
//! the plain `i-k-j` loop otherwise: with one to three rows (a dense layer at
//! batch 1) most of a lane block would be padding, and at `k < 4` packing
//! costs more than the multiply. The choice never shows in the output bits.
//!
//! # Edge tiles
//!
//! A tile at the bottom or right edge of the output covers fewer than sixteen
//! rows or fewer columns than the backend's tile holds. It runs the **same**
//! kernel as a full tile: rows of A past `m` are zero lanes of the panel,
//! columns past `n` re-read the tile's first column, the valid corner is
//! seeded and only the valid corner is stored. Lanes and rows are independent
//! output elements, so whatever the padding computes — including `NaN` from
//! `inf * 0` — never reaches the output, and per valid element the operation
//! sequence is the identical ascending-`p` multiply-then-add.

use super::scratch::{GrowBuf, PackScratch};
use super::simd::{self, ConvOperands};
use super::window::lane_panels;

/// A GEMM of at most this many multiply-accumulates runs on the plain
/// `i-k-j` loop when it has fewer than [`MIN_TILED`] rows or steps of depth
/// (see "Which kernel a problem runs on" in the module docs).
const SMALL_PROBLEM_MACS: usize = 32 * 1024;

/// Rows and depth a small GEMM needs to be worth packing for the tile kernel.
const MIN_TILED: usize = 4;

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
/// Dispatches between the `i-k-j` loop and the tile kernel (see the module
/// docs); both produce bit-identical results. `packs` supplies the tile
/// kernel's panels of `a` and its window table.
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` dimensions, or if
/// a problem for the tile kernel has more than `u32::MAX` elements in `b`.
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
    let small = m * k * n <= SMALL_PROBLEM_MACS;
    if small && (m < MIN_TILED || k < MIN_TILED) {
        gemm_ikj(m, k, n, a, b, init, out);
        return;
    }
    let PackScratch { a: a_panels, table } = packs;
    let panels = lane_panels(m, k, a, a_panels);
    gemm_panels(m, k, n, panels, b, init, out, table);
}

/// [`gemm_into`]'s tile-kernel path with `a` already packed as lane panels
/// ([`lane_panels`] or `window::transposed_lane_panels`), for a caller that
/// multiplies one `a` into several `b`. `table` holds the window table.
///
/// # Panics
///
/// Panics if `b` is not `k * n` elements or more than `u32::MAX` of them, or
/// if `panels` or `out` does not match `m`, `k` and `n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_panels(
    m: usize,
    k: usize,
    n: usize,
    panels: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
    table: &mut GrowBuf<u32>,
) {
    assert_eq!(b.len(), k * n, "gemm: B must be k*n");
    assert!(
        u32::try_from(k * n).is_ok(),
        "gemm: B too large for a window table"
    );
    let (taps, offs) = table.take(k + n).split_at_mut(k);
    for (p, tap) in taps.iter_mut().enumerate() {
        *tap = (p * n) as u32;
    }
    for (j, off) in offs.iter_mut().enumerate() {
        *off = j as u32;
    }
    simd::conv_tiles(
        simd::active_isa(),
        ConvOperands {
            panels,
            lanes: m,
            init,
            taps,
            offs,
            x: b,
            out,
        },
    );
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
