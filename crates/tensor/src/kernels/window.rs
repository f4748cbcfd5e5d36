//! Window tables: convolution without a materialised im2col matrix.
//!
//! For one layer geometry and input shape, the im2col matrix is a pure
//! re-indexing of the zero-padded image `xpad` (`[c, h + 2p, w + 2p]`):
//!
//! ```text
//! im2col(x)[p][s] == xpad[tapoff[p] + off[s]]
//! ```
//!
//! where `off[s]` is the origin of output position `s`'s receptive field
//! inside a padded channel and `tapoff[p]` the offset of tap
//! `p = (ic, ky, kx)` from that origin. Padding taps land on the zero border,
//! so no reader branches on the image edge. A [`ConvWindow`] holds the two
//! tables (after Dukhan, *The Indirect Convolution Algorithm*,
//! arXiv:1907.02129); it is derived layer state — built once per input shape,
//! cloned with the layer — and has four readers:
//!
//! * the standard convolution puts **output channels on the vector lanes**
//!   ([`ConvWindow::conv_forward`]): the layer's weights are packed once as
//!   `[16-channel block][tap][16]` rows ([`OcPanels`]), and per block and tile
//!   of output positions every tap is one vector load of weights times one
//!   activation broadcast from `xpad` through the table. The indirection
//!   serves the broadcast operand, so nothing is gathered, copied into
//!   panels or padded to a column count, and a layer with 9 or 36 output
//!   positions wastes no lanes on them;
//! * its Q8_0 tier ([`ConvWindow::q8_conv_forward`]) runs the same tiles on
//!   int8: the Q8 filters are packed once as tap-pair panels with channels on
//!   the lanes ([`Q8Panels`]), a tile's quantized activation rows are
//!   gathered through the table — from the padded image quantized **once**
//!   when the layer has a calibrated scale, from `xpad` and then through
//!   [`quantize_row_into`] when every receptive field takes its own — and the
//!   block dots are exact integers, combined in `f32` exactly as the
//!   quantized GEMM combines them;
//! * the depthwise convolution runs as a direct stencil
//!   ([`ConvWindow::depthwise_forward`] / [`ConvWindow::depthwise_backward`])
//!   with positions on the lanes (its channels are `hp * wp` apart in NCHW).
//!   The forward takes only the table's extent and its tap offsets: it
//!   accumulates over the *stride-1 grid of window origins* `0..=off[s - 1]`,
//!   sixteen or thirty-two contiguous origins at a time, so every tap is a
//!   contiguous load instead of a lookup per lane, and keeps the origins that
//!   are outputs (`out[s] = grid[off[s]]`). The backward walks positions
//!   through `off`;
//! * the standard convolution's backward runs on the forward's tile kernel
//!   too. The weight gradient swaps the table's roles
//!   ([`ConvWindow::weight_grad`]): the output gradient's channels on the
//!   lanes, the reduction over `off`, the rows over `tapoff`. The input
//!   gradient ([`ConvWindow::input_grad`]) is a GEMM on the filters'
//!   transpose whose columns are scattered tap-major through the table, in
//!   the order of the lowering's column-to-image scatter.
//!
//! All of them accumulate taps in ascending order — the f32 ones from the
//! bias (the gradients from their current value, or zero), multiply then
//! add: the operation sequence of a row-accumulate GEMM over the im2col
//! matrix. A border tap contributes `w * 0.0` — not nothing —
//! just as im2col's explicit zero entries do (see docs/DETERMINISM.md,
//! "Padding taps"); quantized, it is an exact integer zero.
//!
//! The stencil is plain Rust, which never contracts `a * b + c`, so it does
//! not depend on [`super::simd::active_isa`]. The standard convolution
//! dispatches on it, f32 and Q8: its backends are bit-identical to each other
//! and to the scalar reference.

use super::gemm::{self, GemmInit};
use super::naive;
use super::scratch::{self, GrowBuf, QuantScratch};
use super::simd::{self, ConvOperands, Q8ConvOperands, Q8Input, OC_LANES};
use crate::quant::{quantize_row_into, QuantMatrix, QK8_0};

/// Window origins the depthwise forward accumulates at a time: one `zmm`, two
/// `ymm` or four `xmm` of accumulators next to a broadcast weight.
const GRID_LANES: usize = 16;

/// One depthwise channel as the grid accumulation sees it.
struct Stencil<'a> {
    /// The channel's padded plane.
    plane: &'a [f32],
    /// Tap offsets from a window origin, ascending `(ky, kx)`.
    taps: &'a [u32],
    weight: &'a [f32],
    bias: f32,
}

impl Stencil<'_> {
    /// `grid[o] = bias + Σ_tap weight[tap] * plane[taps[tap] + o]` for the `N`
    /// origins `o` from `origin`, the accumulators a fixed-size array so they
    /// stay in vector registers across the taps.
    #[inline(always)]
    fn run<const N: usize>(&self, origin: usize, grid: &mut [f32]) {
        let mut acc = [self.bias; N];
        for (&wv, &tap) in self.weight.iter().zip(self.taps) {
            let src: &[f32; N] = self.plane[tap as usize + origin..][..N]
                .try_into()
                .expect("N origins");
            for (a, &x) in acc.iter_mut().zip(src) {
                *a += wv * x;
            }
        }
        grid[origin..origin + N].copy_from_slice(&acc);
    }

    /// [`Stencil::run`] over a whole grid shorter than [`GRID_LANES`].
    fn run_short(&self, grid: &mut [f32]) {
        grid.fill(self.bias);
        for (&wv, &tap) in self.weight.iter().zip(self.taps) {
            let src = &self.plane[tap as usize..][..grid.len()];
            for (a, &x) in grid.iter_mut().zip(src) {
                *a += wv * x;
            }
        }
    }
}

/// The window table of one convolution geometry on one `[c, h, w]` input.
#[derive(Debug, Clone)]
pub(crate) struct ConvWindow {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    /// Padded channel extent, `h + 2p` by `w + 2p`.
    hp: usize,
    wp: usize,
    /// Output positions, `oh * ow`, in rows of `ow`.
    s: usize,
    ow: usize,
    /// `off[s]` for every output position, row-major.
    off: Vec<u32>,
    /// `tapoff[p]` for every `(ic, ky, kx)`, in im2col row order.
    tapoff: Vec<u32>,
}

impl ConvWindow {
    /// Builds the table. Counted in
    /// [`scratch::ScratchStats::window_tables_built`] so tests can pin that
    /// steady-state inference never rebuilds one.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded image
    /// ([`naive::conv_out`]) or the padded image has more than `u32::MAX`
    /// elements.
    pub(crate) fn new(
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            k > 0 && stride > 0,
            "ConvWindow: kernel and stride must be positive"
        );
        let (oh, ow) = naive::conv_out(h, w, k, stride, padding);
        let (hp, wp) = (h + 2 * padding, w + 2 * padding);
        assert!(
            u32::try_from(c * hp * wp).is_ok(),
            "ConvWindow: padded image too large"
        );
        let s = oh * ow;
        let off = (0..s)
            .map(|pos| ((pos / ow * stride) * wp + pos % ow * stride) as u32)
            .collect();
        let mut tapoff = Vec::with_capacity(c * k * k);
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    tapoff.push(((ic * hp + ky) * wp + kx) as u32);
                }
            }
        }
        scratch::count_window_table_built();
        Self {
            c,
            h,
            w,
            k,
            stride,
            padding,
            hp,
            wp,
            s,
            ow,
            off,
            tapoff,
        }
    }

    /// The `(c, h, w)` input shape this table was built for.
    pub(crate) fn input_shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// Rows of the im2col matrix this table stands for, `c * k * k`.
    pub(crate) fn taps(&self) -> usize {
        self.tapoff.len()
    }

    /// Elements of the padded image, `c * (h + 2p) * (w + 2p)`.
    pub(crate) fn padded_len(&self) -> usize {
        self.c * self.hp * self.wp
    }

    /// The zero-padded copy of the `[c, h, w]` image `x` that the table
    /// indexes, drawn from `buf` (dirty by contract, so the border is
    /// re-zeroed on every call) — or `x` itself when there is no padding.
    pub(crate) fn pad<'a>(&self, x: &'a [f32], buf: &'a mut GrowBuf) -> &'a [f32] {
        assert_eq!(
            x.len(),
            self.c * self.h * self.w,
            "ConvWindow: image must be c*h*w"
        );
        if self.padding == 0 {
            return x;
        }
        let xpad = buf.take(self.padded_len());
        xpad.fill(0.0);
        for (channel, xc) in xpad
            .chunks_exact_mut(self.hp * self.wp)
            .zip(x.chunks_exact(self.h * self.w))
        {
            let interior = channel[self.padding * self.wp..]
                .chunks_exact_mut(self.wp)
                .zip(xc.chunks_exact(self.w));
            for (dst, src) in interior {
                dst[self.padding..self.padding + self.w].copy_from_slice(src);
            }
        }
        xpad
    }

    /// Adjoint of [`ConvWindow::pad`]'s copy: writes the interior of the
    /// padded gradient image `gpad` to the `[c, h, w]` image `g`.
    fn unpad(&self, gpad: &[f32], g: &mut [f32]) {
        for (channel, rows) in gpad
            .chunks_exact(self.hp * self.wp)
            .zip(g.chunks_exact_mut(self.h * self.w))
        {
            let interior = channel[self.padding * self.wp..]
                .chunks_exact(self.wp)
                .zip(rows.chunks_exact_mut(self.w));
            for (src, dst) in interior {
                dst.copy_from_slice(&src[self.padding..self.padding + self.w]);
            }
        }
    }

    /// Standard-convolution forward of one sample: `out[oc][s] = bias[oc] +
    /// Σ_p weight[oc][p] * xpad[tapoff[p] + off[s]]`, taps ascending, on the
    /// dispatched backend of the output-channel-lane kernel
    /// ([`simd::conv_forward`]).
    ///
    /// # Panics
    ///
    /// Panics if `panels` was packed for a different tap count, or `xpad`,
    /// `bias` or `out` does not match the table and the panels.
    pub(crate) fn conv_forward(
        &self,
        xpad: &[f32],
        panels: &OcPanels,
        bias: &[f32],
        out: &mut [f32],
    ) {
        assert_eq!(
            panels.taps,
            self.taps(),
            "conv: weight panels were packed for a different tap count"
        );
        assert_eq!(bias.len(), panels.oc, "conv: bias must have oc entries");
        assert_eq!(
            xpad.len(),
            self.padded_len(),
            "conv: padded image does not match its window"
        );
        simd::conv_tiles(
            simd::active_isa(),
            ConvOperands {
                panels: &panels.panels,
                lanes: panels.oc,
                init: GemmInit::RowBias(bias),
                taps: &self.tapoff,
                offs: &self.off,
                x: xpad,
                out,
            },
        );
    }

    /// Standard-convolution weight gradient of one sample, in the
    /// accumulation order of the GEMM lowering it replaced: `gw[oc][p] +=
    /// Σ_s go[oc][s] * xpad[tapoff[p] + off[s]]`, `s` ascending. This is the
    /// forward's tile kernel with the table's roles swapped: `go`'s channels
    /// on the lanes (packed into `panels`), the reduction over `off`, the
    /// rows over `tapoff`, every tile seeded from `gw` itself.
    ///
    /// # Panics
    ///
    /// Panics if `xpad`, `go` or `gw` does not match the table.
    pub(crate) fn weight_grad(
        &self,
        xpad: &[f32],
        go: &[f32],
        gw: &mut [f32],
        panels: &mut GrowBuf,
    ) {
        assert_eq!(
            xpad.len(),
            self.padded_len(),
            "conv backward: padded image does not match its window"
        );
        let oc = go.len() / self.s;
        simd::conv_tiles(
            simd::active_isa(),
            ConvOperands {
                panels: lane_panels(oc, self.s, go, panels),
                lanes: oc,
                init: GemmInit::Accumulate,
                taps: &self.off,
                offs: &self.tapoff,
                x: xpad,
                out: gw,
            },
        );
    }

    /// Standard-convolution input gradient of one sample, in the
    /// accumulation order of the GEMM lowering and column-to-image scatter it
    /// replaced: the column gradients `cols[p][s] = Σ_oc weight[oc][p] *
    /// go[oc][s]`, `oc` ascending from zero — a GEMM on the filters'
    /// transpose, packed once per call as `wt` ([`transposed_lane_panels`])
    /// — scattered tap-major through the table, `gpad[tapoff[p] + off[s]] +=
    /// cols[p][s]` for `p`, then `s`, ascending, into a zeroed padded image
    /// whose border collects (and drops) what falls on the padding. A
    /// pointwise layer's columns are `gi` itself. `table` holds the GEMM's
    /// window table. `gi` must arrive zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `wt`, `go` or `gi` does not match the table.
    pub(crate) fn input_grad(
        &self,
        wt: &[f32],
        go: &[f32],
        gi: &mut [f32],
        table: &mut GrowBuf<u32>,
        cols: &mut GrowBuf,
        gpad: &mut GrowBuf,
    ) {
        let (taps, oc) = (self.taps(), go.len() / self.s);
        if self.k == 1 && self.stride == 1 && self.padding == 0 {
            gemm::gemm_panels(taps, oc, self.s, wt, go, GemmInit::Zero, gi, table);
            return;
        }
        let cols = cols.take(taps * self.s);
        gemm::gemm_panels(taps, oc, self.s, wt, go, GemmInit::Zero, cols, table);
        if self.padding == 0 {
            self.scatter(cols, gi);
        } else {
            let gpad = gpad.take(self.padded_len());
            gpad.fill(0.0);
            self.scatter(cols, gpad);
            self.unpad(gpad, gi);
        }
    }

    /// `gpad[tapoff[p] + off[s]] += cols[p][s]`, `p` then `s` ascending.
    fn scatter(&self, cols: &[f32], gpad: &mut [f32]) {
        for (row, &tap) in cols.chunks_exact(self.s).zip(&self.tapoff) {
            let dst = &mut gpad[tap as usize..];
            for (&v, &o) in row.iter().zip(&self.off) {
                dst[o as usize] += v;
            }
        }
    }

    /// Q8_0 standard-convolution forward of one sample: `out[oc][s] =
    /// a_scale[s] * (Σ_b w_scale[oc][b] * dot_b) + bias[oc]` over the int8
    /// receptive fields `q[s][p] = quantize(xpad[tapoff[p] + off[s]])`, on the
    /// dispatched backend of the Q8 tile kernel ([`simd::q8_conv_forward`]).
    ///
    /// With a calibrated `act_scale` every element has the same scale, so the
    /// padded image is quantized once and a tile's rows are int8 gathers
    /// through the table; without one, each receptive field is gathered in
    /// `f32` and takes its own scale from [`quantize_row_into`]. Either way
    /// the bytes are those of `im2col`, a transpose and
    /// [`super::quant_gemm_into`] on the same operands.
    ///
    /// # Panics
    ///
    /// Panics if `panels` was packed for a different tap count, or `xpad`,
    /// `bias` or `out` does not match the table and the panels.
    pub(crate) fn q8_conv_forward(
        &self,
        xpad: &[f32],
        act_scale: Option<f32>,
        panels: &Q8Panels,
        bias: &[f32],
        out: &mut [f32],
        scratch: &mut QuantScratch,
    ) {
        let taps = self.taps();
        assert_eq!(
            panels.taps, taps,
            "q8 conv: weight panels were packed for a different tap count"
        );
        assert_eq!(bias.len(), panels.oc, "q8 conv: bias must have oc entries");
        assert_eq!(
            xpad.len(),
            self.padded_len(),
            "q8 conv: padded image does not match its window"
        );
        let QuantScratch { qa, row, qrows } = scratch;
        let input = match act_scale {
            Some(scale) => {
                let qpad = qa.take(xpad.len());
                let scale = quantize_row_into(xpad, qpad, Some(scale));
                Q8Input::Static { qpad, scale }
            }
            None => Q8Input::Dynamic {
                xpad,
                field: row.take(taps),
                q8: qa.take(taps),
            },
        };
        simd::q8_conv_forward(
            simd::active_isa(),
            Q8ConvOperands {
                panels: &panels.panels,
                scales: &panels.scales,
                bias,
                taps: &self.tapoff,
                offs: &self.off,
                input,
                qrows,
                out,
            },
        );
    }

    /// Depthwise forward of one sample: `out[ch][s] = bias[ch] + Σ_tap
    /// weight[ch][tap] * xpad[..]`, taps ascending, multiply then add.
    ///
    /// Per channel the sum is taken at every origin of the stride-1 grid
    /// `0..=off[s - 1]` of the padded plane, a run of contiguous origins at a
    /// time (`acc[i] += w[tap] * plane[tapoff + i]` is one contiguous load per
    /// tap), into `grid`; the origins that are output positions are then
    /// copied out. The others — between two strided windows, or wrapped over a
    /// row end — are computed on whatever they cover and never stored. No
    /// origin reads past its own window, so no run reads past the plane: the
    /// last run of a grid that is no multiple of [`GRID_LANES`] starts early
    /// and recomputes what it overlaps.
    pub(crate) fn depthwise_forward(
        &self,
        xpad: &[f32],
        weight: &[f32],
        bias: &[f32],
        out: &mut [f32],
        grid: &mut GrowBuf,
    ) {
        if self.s == 0 {
            return;
        }
        let kk = self.k * self.k;
        // Channel 0's taps are the offsets inside any one padded plane.
        let taps = &self.tapoff[..kk];
        let origins = self.off[self.s - 1] as usize + 1;
        let grid = grid.take(origins);
        let planes = xpad.chunks_exact(self.hp * self.wp);
        for (ch, (plane, ochan)) in planes.zip(out.chunks_exact_mut(self.s)).enumerate() {
            let stencil = Stencil {
                plane,
                taps,
                weight: &weight[ch * kk..(ch + 1) * kk],
                bias: bias[ch],
            };
            let mut origin = 0;
            while origin + 2 * GRID_LANES <= origins {
                stencil.run::<{ 2 * GRID_LANES }>(origin, grid);
                origin += 2 * GRID_LANES;
            }
            if origin + GRID_LANES <= origins {
                stencil.run::<GRID_LANES>(origin, grid);
                origin += GRID_LANES;
            }
            if origin < origins {
                match origins.checked_sub(GRID_LANES) {
                    Some(last) => stencil.run::<GRID_LANES>(last, grid),
                    None => stencil.run_short(grid),
                }
            }
            let rows = ochan
                .chunks_exact_mut(self.ow)
                .zip(grid.chunks(self.stride * self.wp));
            for (dst, src) in rows {
                for (o, &v) in dst.iter_mut().zip(src.iter().step_by(self.stride)) {
                    *o = v;
                }
            }
        }
    }

    /// Depthwise backward of one sample, in the accumulation orders of the
    /// lowering it replaces: `gb[ch]` sums `go` over positions; `gw[ch][tap]
    /// += go[s] * xpad[..]` for `s` ascending; `gi` scatters `weight[tap] *
    /// go[s]` tap-major, through a padded image drawn from `buf` whose border
    /// collects (and drops) what falls on the padding. `gi` must arrive
    /// zeroed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn depthwise_backward(
        &self,
        xpad: &[f32],
        weight: &[f32],
        go: &[f32],
        gw: &mut [f32],
        gb: &mut [f32],
        gi: &mut [f32],
        buf: &mut GrowBuf,
    ) {
        if self.padding == 0 {
            self.depthwise_backward_padded(xpad, weight, go, gw, gb, gi);
        } else {
            let gpad = buf.take(self.padded_len());
            gpad.fill(0.0);
            self.depthwise_backward_padded(xpad, weight, go, gw, gb, gpad);
            self.unpad(gpad, gi);
        }
    }

    /// [`ConvWindow::depthwise_backward`] with the input gradient
    /// accumulated into the zeroed padded image `gpad`.
    fn depthwise_backward_padded(
        &self,
        xpad: &[f32],
        weight: &[f32],
        go: &[f32],
        gw: &mut [f32],
        gb: &mut [f32],
        gpad: &mut [f32],
    ) {
        let kk = self.k * self.k;
        let off = &self.off;
        for (ch, goc) in go.chunks_exact(self.s).enumerate() {
            let taps = &self.tapoff[ch * kk..(ch + 1) * kk];
            let wch = &weight[ch * kk..(ch + 1) * kk];
            let gwc = &mut gw[ch * kk..(ch + 1) * kk];
            let mut acc = gb[ch];
            for &g in goc {
                acc += g;
            }
            gb[ch] = acc;
            for (&g, &o) in goc.iter().zip(off) {
                let src = &xpad[o as usize..];
                for (gwv, &tap) in gwc.iter_mut().zip(taps) {
                    *gwv += g * src[tap as usize];
                }
            }
            // The lowering added `0.0 + w * g`; the `0.0 +` only turns a
            // `-0.0` product into `+0.0`, which no sum that starts from
            // `+0.0` can tell apart.
            for (&wv, &tap) in wch.iter().zip(taps) {
                let dst = &mut gpad[tap as usize..];
                for (&g, &o) in goc.iter().zip(off) {
                    dst[o as usize] += wv * g;
                }
            }
        }
    }
}

/// A convolution's weights with output channels on the vector lanes: one
/// block per [`OC_LANES`] channels, each `[tap p = (ic, ky, kx)][OC_LANES]`
/// (lanes past the last channel zero), so the kernel reads one tap of sixteen
/// filters as one aligned-width vector load. The layout is the same on every
/// ISA. Derived layer state, like the window table.
#[derive(Debug, Clone)]
pub(crate) struct OcPanels {
    oc: usize,
    taps: usize,
    panels: Vec<f32>,
}

impl OcPanels {
    /// Packs the row-major `[oc, taps]` weight matrix. Counted in
    /// [`scratch::ScratchStats::weight_floats_packed`] so tests can pin that
    /// steady-state inference never re-packs.
    ///
    /// # Panics
    ///
    /// Panics if `weight.len() != oc * taps`.
    pub(crate) fn pack(oc: usize, taps: usize, weight: &[f32]) -> Self {
        let mut panels = vec![0.0f32; oc.div_ceil(OC_LANES) * taps * OC_LANES];
        pack_lanes(oc, taps, weight, &mut panels);
        scratch::count_weight_floats_packed(panels.len());
        Self { oc, taps, panels }
    }
}

/// The row-major `[rows, depth]` matrix `src` as the tile kernel's
/// `[16-row block][depth][16]` lane panels (the [`OcPanels`] layout), drawn
/// from the scratch buffer `buf`: a GEMM's A operand, or a sample's output
/// gradient for the weight gradient. Not counted as packed weights.
///
/// # Panics
///
/// Panics if `src.len() != rows * depth`.
pub(crate) fn lane_panels<'a>(
    rows: usize,
    depth: usize,
    src: &[f32],
    buf: &'a mut GrowBuf,
) -> &'a [f32] {
    let panels = buf.take(rows.div_ceil(OC_LANES) * depth * OC_LANES);
    pack_lanes(rows, depth, src, panels);
    panels
}

/// `dst[block][p][lane] = src[16 * block + lane][p]`, lanes past the last row
/// zero (`dst` may be dirty).
fn pack_lanes(rows: usize, depth: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(
        src.len(),
        rows * depth,
        "lane panels: src must be rows*depth"
    );
    if depth == 0 {
        return;
    }
    for (panel, block) in dst
        .chunks_exact_mut(depth * OC_LANES)
        .zip(src.chunks(OC_LANES * depth))
    {
        if block.len() < OC_LANES * depth {
            panel.fill(0.0);
        }
        for (lane, row) in block.chunks_exact(depth).enumerate() {
            for (p, &v) in row.iter().enumerate() {
                panel[p * OC_LANES + lane] = v;
            }
        }
    }
}

/// The transpose of the row-major `[depth, rows]` matrix `src` as lane
/// panels, like [`lane_panels`] on the transposed matrix: `dst[block][p]
/// [lane] = src[p][16 * block + lane]`, so every panel row is one contiguous
/// run of `src` and no transposed copy is made. A convolution's filters
/// `[oc, taps]` become the `[taps, oc]` operand of its input gradient.
///
/// # Panics
///
/// Panics if `src.len() != depth * rows`.
pub(crate) fn transposed_lane_panels<'a>(
    depth: usize,
    rows: usize,
    src: &[f32],
    buf: &'a mut GrowBuf,
) -> &'a [f32] {
    assert_eq!(
        src.len(),
        depth * rows,
        "lane panels: src must be depth*rows"
    );
    let panels = buf.take(rows.div_ceil(OC_LANES) * depth * OC_LANES);
    if depth == 0 {
        return panels;
    }
    for (block, panel) in panels.chunks_exact_mut(depth * OC_LANES).enumerate() {
        let r0 = block * OC_LANES;
        let width = OC_LANES.min(rows - r0);
        for (dst, src_row) in panel.chunks_exact_mut(OC_LANES).zip(src.chunks_exact(rows)) {
            dst[..width].copy_from_slice(&src_row[r0..r0 + width]);
            dst[width..].fill(0.0);
        }
    }
    panels
}

/// A convolution's Q8_0 weights with output channels on the vector lanes: one
/// block per [`OC_LANES`] channels, each `[tap pair q][OC_LANES][2]` — taps
/// `2q` and `2q + 1` of sixteen filters, widened to `i16` so one `pmaddwd`
/// against a broadcast activation pair yields sixteen partial dots — next to
/// the filters' block scales as `[Q8 block][OC_LANES]`. Lanes past the last
/// channel, and the pair partner of an odd last tap, are zero. Q8 blocks are
/// an even [`QK8_0`] taps, so no pair straddles two. The layout is the same on
/// every ISA. Derived layer state, like [`OcPanels`]: built by
/// `quantize_weights()`, cloned with the layer.
#[derive(Debug, Clone)]
pub(crate) struct Q8Panels {
    oc: usize,
    taps: usize,
    panels: Vec<i16>,
    scales: Vec<f32>,
}

impl Q8Panels {
    /// Packs a quantized `[oc, taps]` weight matrix. Counted in
    /// [`scratch::ScratchStats::weight_floats_packed`] (one per `i16` lane
    /// written), so tests can pin that eval forwards never re-pack.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no columns.
    pub(crate) fn pack(weight: &QuantMatrix) -> Self {
        let (oc, taps, q8_blocks) = (weight.rows(), weight.cols(), weight.blocks_per_row());
        assert!(taps > 0, "Q8Panels: a convolution has at least one tap");
        let pairs = taps.div_ceil(2);
        let oc_blocks = oc.div_ceil(OC_LANES);
        let mut panels = vec![0i16; oc_blocks * pairs * OC_LANES * 2];
        let mut scales = vec![0.0f32; oc_blocks * q8_blocks * OC_LANES];
        for o in 0..oc {
            let (block, lane) = (o / OC_LANES, o % OC_LANES);
            for (b, q8) in weight.row(o).iter().enumerate() {
                scales[(block * q8_blocks + b) * OC_LANES + lane] = q8.scale;
                let taps_here = q8.qs.iter().take(taps - b * QK8_0);
                for (p, &q) in (b * QK8_0..).zip(taps_here) {
                    panels[((block * pairs + p / 2) * OC_LANES + lane) * 2 + p % 2] = i16::from(q);
                }
            }
        }
        scratch::count_weight_floats_packed(panels.len());
        Self {
            oc,
            taps,
            panels,
            scales,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::im2col::TEST_GEOMETRIES;
    use super::super::tolerance::assert_bits_eq;
    use super::*;
    use crate::rng::SeededRng;

    /// One sample through the table and the panels, on whatever backend is
    /// active, from a NaN-dirtied arena buffer.
    fn conv_via_window(
        geometry: (usize, usize, usize, usize, usize, usize),
        oc: usize,
        x: &[f32],
        weight: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        let (c, h, w, k, stride, padding) = geometry;
        let window = ConvWindow::new(c, h, w, k, stride, padding);
        let panels = OcPanels::pack(oc, window.taps(), weight);
        let mut buf = GrowBuf::new();
        buf.take(window.padded_len()).fill(f32::NAN);
        let xpad = window.pad(x, &mut buf);
        let mut out = vec![f32::NAN; oc * window.s];
        window.conv_forward(xpad, &panels, bias, &mut out);
        out
    }

    /// The output-channel-lane kernel against the naive 7-deep loop, on every
    /// backend: partial and multiple lane blocks (`oc` 1, 12, 16, 17, 40),
    /// position counts that are a multiple of no backend's rows per tile
    /// (`3x3`, `5x7`, and whatever the shared geometries give), one tap
    /// (pointwise, one channel) and up to 360 of them, non-square
    /// images, stride 3, kernels spanning the whole padded width. Every
    /// backend reproduces naive bit for bit.
    #[test]
    fn oc_lane_kernel_matches_naive_on_every_isa() {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0x0C_1A);
        let extra = [
            (1, 3, 3, 1, 1, 0),  // one tap, 3x3 positions
            (2, 5, 7, 1, 1, 0),  // pointwise, 5x7 positions
            (16, 3, 3, 3, 1, 1), // 144 taps, 3x3 positions
            (40, 3, 3, 3, 1, 1), // the big net's last stage: 360 taps
            (12, 12, 12, 3, 2, 1),
        ];
        for &(c, h, w, k, stride, padding) in TEST_GEOMETRIES.iter().chain(&extra) {
            for oc in [1usize, 12, 16, 17, 40] {
                let geometry = (c, h, w, k, stride, padding);
                let taps = c * k * k;
                let x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-2.0, 2.0)).collect();
                let weight: Vec<f32> = (0..oc * taps).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let bias: Vec<f32> = (0..oc).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let want = naive::conv2d_forward_naive(
                    &x, 1, c, h, w, &weight, &bias, oc, k, stride, padding,
                );
                for isa in simd::supported_isas() {
                    let prev = simd::force_isa(Some(isa));
                    let got = conv_via_window(geometry, oc, &x, &weight, &bias);
                    simd::force_isa(prev);
                    let tag =
                        format!("c={c} h={h} w={w} k={k} s={stride} p={padding} oc={oc} {isa}");
                    assert_bits_eq(&got, &want, &tag);
                }
            }
        }
    }

    /// Padded lanes and padded positions are computed and never stored:
    /// `±inf` and `NaN` in one channel's weights and one position's window
    /// reach exactly the outputs whose own taps see them.
    #[test]
    fn oc_lane_padding_never_leaks_into_stored_output() {
        let _lock = simd::isa_override_test_lock();
        let (c, h, w, k, oc) = (2usize, 3usize, 3usize, 1usize, 17usize);
        let mut rng = SeededRng::new(0x1EA5);
        let mut x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let mut weight: Vec<f32> = (0..oc * c).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let bias: Vec<f32> = (0..oc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        // A tile's padded rows re-read its first position — 0, 6 or 8 of
        // these nine, depending on the backend's rows per tile; channel 16 is
        // alone in the second lane block.
        x[0] = f32::INFINITY;
        x[6] = f32::NEG_INFINITY;
        x[8] = f32::NAN;
        weight[16 * c] = f32::NAN;
        let want = naive::conv2d_forward_naive(&x, 1, c, h, w, &weight, &bias, oc, k, 1, 0);
        for isa in simd::supported_isas() {
            let prev = simd::force_isa(Some(isa));
            let got = conv_via_window((c, h, w, k, 1, 0), oc, &x, &weight, &bias);
            simd::force_isa(prev);
            for (i, (g, wv)) in got.iter().zip(&want).enumerate() {
                let special = i / (h * w) == 16 || [0, 6, 8].contains(&(i % (h * w)));
                assert!(
                    g.to_bits() == wv.to_bits() || (special && g.is_nan() && wv.is_nan()),
                    "element {i} on {isa}: {g} vs {wv}"
                );
                assert!(special || g.is_finite(), "padding leaked into {i} on {isa}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed for a different tap count")]
    fn oc_lane_kernel_rejects_panels_of_another_geometry() {
        let window = ConvWindow::new(2, 4, 4, 3, 1, 1);
        let panels = OcPanels::pack(3, 2, &[0.0; 6]);
        let xpad = vec![0.0f32; window.padded_len()];
        window.conv_forward(&xpad, &panels, &[0.0; 3], &mut [0.0; 3 * 16]);
    }

    /// The Q8 forward against the lowering it replaced, rebuilt here from the
    /// public kernels — `im2col`, `transpose_into`, `quant_gemm_into`,
    /// `transpose_into` — bit for bit, with dynamic per-row scales and with a
    /// static one, on every backend, from a dirtied arena: partial, whole and
    /// multiple Q8 blocks (8, 16, 27, 32, 33 and 70 taps), partial and
    /// multiple lane blocks, strides 1-3, pointwise, inputs far beyond the
    /// static scale's int8 grid (saturating) and one all-zero receptive field
    /// (dynamic scale 0).
    #[test]
    fn q8_conv_matches_the_gemm_lowering_on_every_isa() {
        use super::super::{im2col, quant_gemm_into, transpose_into};
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0x0C_08);
        let geometries = [
            (8, 6, 6, 1, 1, 0),   // 8 taps, pointwise
            (4, 7, 5, 2, 2, 0),   // 16 taps, stride 2, non-square
            (3, 12, 12, 3, 1, 1), // 27 taps: the little net's stem
            (3, 9, 9, 3, 3, 1),   // 27 taps, stride 3
            (2, 5, 5, 4, 1, 2),   // 32 taps: exactly one Q8 block
            (33, 3, 3, 1, 1, 0),  // 33 taps: one block and one tap
            (70, 4, 4, 1, 2, 0),  // 70 taps: three blocks, the last partial
        ];
        for (c, h, w, k, stride, padding) in geometries {
            let (oh, ow) = naive::conv_out(h, w, k, stride, padding);
            let (s, taps) = (oh * ow, c * k * k);
            let window = ConvWindow::new(c, h, w, k, stride, padding);
            let mut x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-2.0, 2.0)).collect();
            for channel in x.chunks_exact_mut(h * w) {
                // The first receptive field is all zeros; two elements
                // outside it dwarf the rest.
                for row in channel.chunks_exact_mut(w).take(k - padding.min(k)) {
                    row[..k - padding.min(k)].fill(0.0);
                }
                channel[h * w - 1] = 9.0e3;
                channel[h * w - 2] = -4.0e4;
            }
            for oc in [1usize, 8, 16, 17, 24] {
                let weight: Vec<f32> = (0..oc * taps).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let bias: Vec<f32> = (0..oc).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let qm = QuantMatrix::from_rows(&weight, oc, taps);
                let panels = Q8Panels::pack(&qm);
                for act_scale in [None, Some(crate::quant::q8_block_scale(2.0))] {
                    let mut cols = vec![0.0f32; taps * s];
                    let mut cols_t = vec![0.0f32; s * taps];
                    let mut out_t = vec![0.0f32; s * oc];
                    let mut want = vec![0.0f32; oc * s];
                    im2col(&x, c, h, w, k, stride, padding, oh, ow, &mut cols);
                    transpose_into(&cols, taps, s, &mut cols_t);
                    quant_gemm_into(
                        s,
                        taps,
                        oc,
                        &cols_t,
                        &qm,
                        Some(&bias),
                        act_scale,
                        &mut out_t,
                        &mut QuantScratch::new(),
                    );
                    transpose_into(&out_t, s, oc, &mut want);
                    if act_scale.is_none() {
                        assert_bits_eq(&want[..1], &bias[..1], "an all-zero field yields the bias");
                    }
                    for isa in simd::supported_isas() {
                        let prev = simd::force_isa(Some(isa));
                        let mut pad_buf = GrowBuf::new();
                        pad_buf.take(window.padded_len()).fill(f32::NAN);
                        let mut scratch = QuantScratch::new();
                        scratch.qa.take(window.padded_len() + 64).fill(0x55);
                        scratch.row.take(taps + 64).fill(f32::NAN);
                        scratch.qrows.take(16 * (taps + 2)).fill(i32::MAX);
                        let xpad = window.pad(&x, &mut pad_buf);
                        let mut got = vec![f32::NAN; oc * s];
                        window.q8_conv_forward(
                            xpad,
                            act_scale,
                            &panels,
                            &bias,
                            &mut got,
                            &mut scratch,
                        );
                        simd::force_isa(prev);
                        let tag = format!(
                            "c={c} h={h} w={w} k={k} s={stride} p={padding} oc={oc} \
                             scale={act_scale:?} {isa}"
                        );
                        assert_bits_eq(&got, &want, &tag);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed for a different tap count")]
    fn q8_conv_rejects_panels_of_another_geometry() {
        let window = ConvWindow::new(2, 4, 4, 3, 1, 1);
        let panels = Q8Panels::pack(&QuantMatrix::from_rows(&[0.0; 6], 3, 2));
        let xpad = vec![0.0f32; window.padded_len()];
        let mut scratch = QuantScratch::new();
        window.q8_conv_forward(
            &xpad,
            None,
            &panels,
            &[0.0; 3],
            &mut [0.0; 48],
            &mut scratch,
        );
    }

    /// Every element of the padded image that some output position's window
    /// covers.
    fn read_by_outputs(window: &ConvWindow) -> Vec<bool> {
        let mut read = vec![false; window.padded_len()];
        for &o in &window.off {
            for &tap in &window.tapoff {
                read[(tap + o) as usize] = true;
            }
        }
        read
    }

    /// The depthwise forward over the grid of window origins against the
    /// naive loop, bit for bit: the shared geometries plus no padding at
    /// stride 3, a grid that is no multiple of the chunk, one far larger than
    /// a chunk at each stride, and a one-origin plane — with `inf` and NaN
    /// planted in every element of the padded image that only origins which
    /// are no output read (between two strided windows, past the last one,
    /// wrapped over a row end), none of which may reach an output.
    #[test]
    fn depthwise_grid_matches_naive_and_never_stores_a_junk_origin() {
        let mut rng = SeededRng::new(0xD6_1D);
        let extra = [
            (2, 8, 8, 3, 3, 0),   // no padding: `pad` borrows the image
            (3, 5, 6, 2, 1, 0),   // grid of 4 * 6 + 5 = 29 origins
            (2, 40, 40, 3, 1, 1), // 1678 origins at stride 1
            (2, 41, 37, 3, 2, 1), // and at stride 2, non-square
            (1, 3, 3, 3, 1, 0),   // one origin, one output
            (8, 12, 12, 3, 2, 1), // the little net's first depthwise layer
        ];
        for &(c, h, w, k, stride, padding) in TEST_GEOMETRIES.iter().chain(&extra) {
            let window = ConvWindow::new(c, h, w, k, stride, padding);
            let x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let weight: Vec<f32> = (0..c * k * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let bias: Vec<f32> = (0..c).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let want =
                naive::depthwise_forward_naive(&x, 1, c, h, w, &weight, &bias, k, stride, padding);
            let mut buf = GrowBuf::new();
            let mut xpad = window.pad(&x, &mut buf).to_vec();
            let read = read_by_outputs(&window);
            for (i, v) in xpad.iter_mut().enumerate().filter(|(i, _)| !read[*i]) {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
            }
            let mut grid = GrowBuf::new();
            grid.take(4 * window.padded_len()).fill(f32::NAN);
            let mut got = vec![f32::NAN; want.len()];
            window.depthwise_forward(&xpad, &weight, &bias, &mut got, &mut grid);
            let tag = format!("c={c} h={h} w={w} k={k} s={stride} p={padding}");
            assert_bits_eq(&got, &want, &tag);
        }
    }

    #[test]
    fn pad_without_padding_borrows_the_image() {
        let window = ConvWindow::new(2, 4, 4, 2, 2, 0);
        let x = vec![1.0f32; 2 * 4 * 4];
        let mut buf = GrowBuf::new();
        let xpad = window.pad(&x, &mut buf);
        assert!(std::ptr::eq(xpad, x.as_slice()));
        assert_eq!(buf.capacity(), 0);
    }
}
