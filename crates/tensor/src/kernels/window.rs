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
//! cloned with the layer — and has five readers:
//!
//! * the standard convolution puts **output channels on the vector lanes**
//!   ([`ConvWindow::conv_forward`]): the layer's weights are packed once as
//!   `[16-channel block][tap][16]` rows ([`OcPanels`]), and per block and tile
//!   of output positions every tap is one vector load of weights times one
//!   activation broadcast from `xpad` through the table. The indirection
//!   serves the broadcast operand, so nothing is gathered, copied into
//!   panels or padded to a column count, and a layer with 9 or 36 output
//!   positions wastes no lanes on them;
//! * its Q8_0 tier ([`ConvWindow::q8_conv_forward`]) runs the same tile on
//!   integer-valued `f32` operands: the activations quantized to the int8
//!   grid — the padded image **once** when the layer has a calibrated scale,
//!   read through the table; every receptive field under its own scale
//!   otherwise, laid out one after another — and one tile pass per Q8 block
//!   of taps on the block's integer weights, packed once as panels
//!   ([`Q8Weights`]). Every partial sum is an integer below `2^24`, so each
//!   pass is the exact block dot, and the blocks are combined in `f32` as the
//!   quantized GEMM's row loop combines them ([`q8_combine`]). The quantized
//!   GEMM ([`super::quant_gemm_into`]) runs the same passes with A's rows
//!   behind the table `taps[p] = p`, `offs[i] = i * k` ([`row_table`]), on
//!   panels packed per call ([`pack_q8_blocks`]) or once by a quantized
//!   `Dense`;
//! * a **lane group** — sixteen samples of an eval batch interleaved
//!   `[c][h][w][16]` ([`crate::LANE_GROUP`]) — reads the same table with
//!   every entry counting vectors of sixteen instead of elements: its padded
//!   copy ([`ConvWindow::pad`] with `lanes = 16`) has contiguous rows of
//!   `16 * wp`, the standard convolution ([`ConvWindow::lane_conv_forward`])
//!   puts the **samples on the vector lanes** — per output position a tile
//!   of output channels, each tap one vector of the sixteen activations
//!   times one weight broadcast straight from the `[oc][c*k*k]` weights, no
//!   panels — and the depthwise one ([`ConvWindow::depthwise_lanes`]) takes
//!   per channel the weight broadcast and one vector per output position.
//!   The quantized convolution ([`ConvWindow::q8_lane_conv_forward`]) runs
//!   the Q8 tier as one sample does, on this tile: one pass per Q8 block on
//!   the block's integer weights as `[oc][taps in the block]` rows, the same
//!   combine;
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
//! "Padding taps"); quantized, it is an exact integer zero too.
//!
//! The stencil is plain Rust, which never contracts `a * b + c`, so it does
//! not depend on [`super::simd::active_isa`]. The standard convolution
//! dispatches on it, f32 and Q8 alike: its backends are bit-identical to
//! each other and to the scalar reference.

use super::gemm::{self, GemmInit};
use super::naive;
use super::scratch::{self, GrowBuf, QuantScratch};
use super::simd::{self, ConvOperands, LaneOperands, OC_LANES};
use crate::layer::LANE_GROUP;
use crate::quant::{quantize_lanes_in_place, quantize_row_into, QuantMatrix, QK8_0};

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

/// Output positions the lane-group depthwise stencil accumulates at a time:
/// one vector of sixteen samples each, next to a broadcast weight.
const LANE_STENCIL_ROWS: usize = 8;

/// One depthwise channel of a lane group as its stencil sees it.
struct LaneStencil<'a> {
    /// The channel's padded plane, one vector of [`LANE_GROUP`] samples per
    /// element.
    plane: &'a [f32],
    /// Tap offsets from a window origin, ascending `(ky, kx)`.
    taps: &'a [u32],
    weight: &'a [f32],
    bias: f32,
}

impl LaneStencil<'_> {
    /// `dst[r][lane] = bias + Σ_tap weight[tap] * plane[16 * (taps[tap] +
    /// offs[r]) + lane]` for the `N` output positions whose origins are
    /// `offs`, the accumulators a fixed-size array so they stay in vector
    /// registers across the taps.
    #[inline(always)]
    fn run<const N: usize>(&self, offs: &[u32], dst: &mut [f32]) {
        const L: usize = LANE_GROUP;
        let mut acc = [[self.bias; L]; N];
        for (&wv, &tap) in self.weight.iter().zip(self.taps) {
            for (a, &o) in acc.iter_mut().zip(offs) {
                let at = (tap + o) as usize * L;
                let src: &[f32; L] = self.plane[at..at + L].try_into().expect("one vector");
                for (al, &x) in a.iter_mut().zip(src) {
                    *al += wv * x;
                }
            }
        }
        for (d, a) in dst.chunks_exact_mut(L).zip(&acc) {
            d.copy_from_slice(a);
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
    /// indexes — or, with `lanes == LANE_GROUP`, of a lane group's `[c, h,
    /// w][16]`, every element one vector of sixteen samples' values and every
    /// row `16 * w` contiguous floats — drawn from `buf` (dirty by contract,
    /// so the border is re-zeroed on every call); `x` itself when there is no
    /// padding.
    pub(crate) fn pad<'a>(&self, x: &'a [f32], lanes: usize, buf: &'a mut GrowBuf) -> &'a [f32] {
        let (w, wp) = (self.w * lanes, self.wp * lanes);
        assert_eq!(
            x.len(),
            self.c * self.h * w,
            "ConvWindow: image must be c*h*w"
        );
        if self.padding == 0 {
            return x;
        }
        let (left, plane) = (self.padding * lanes, self.hp * wp);
        let xpad = buf.take(self.padded_len() * lanes);
        xpad.fill(0.0);
        // `max(1)`: an image without rows or columns is all padding.
        let channels = x.chunks_exact((self.h * w).max(1));
        for (channel, xc) in xpad.chunks_exact_mut(plane).zip(channels) {
            let interior = channel[self.padding * wp..]
                .chunks_exact_mut(wp)
                .zip(xc.chunks_exact(w));
            for (dst, src) in interior {
                dst[left..left + w].copy_from_slice(src);
            }
        }
        xpad
    }

    /// Adjoint of [`ConvWindow::pad`]'s copy: writes the interior of the
    /// padded gradient image `gpad` to the `[c, h, w]` image `g`.
    fn unpad(&self, gpad: &[f32], g: &mut [f32]) {
        for (channel, rows) in gpad
            .chunks_exact(self.hp * self.wp)
            .zip(g.chunks_exact_mut((self.h * self.w).max(1)))
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

    /// Standard-convolution forward of a lane group — [`LANE_GROUP`]
    /// samples, `xpad` their padded lane image ([`ConvWindow::pad`]):
    /// `out[oc][s][lane] = bias[oc] + Σ_p weight[oc][p] * xpad[(tapoff[p] +
    /// off[s]) * 16 + lane]`, taps ascending, on the dispatched backend of
    /// the tile with the samples on the lanes ([`simd::lane_tiles`]). Per
    /// sample these are [`ConvWindow::conv_forward`]'s bytes, from the
    /// layer's `[oc][c*k*k]` weights as they are.
    ///
    /// # Panics
    ///
    /// Panics if `xpad`, `weight`, `bias` or `out` does not match the table.
    pub(crate) fn lane_conv_forward(
        &self,
        xpad: &[f32],
        weight: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        assert_eq!(
            xpad.len(),
            self.padded_len() * LANE_GROUP,
            "lane conv: padded image does not match its window"
        );
        simd::lane_tiles(
            simd::active_isa(),
            LaneOperands {
                weight,
                bias,
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
    /// a_scale[s] * (Σ_b w_scale[b][oc] * dot_b) + bias[oc]` over the
    /// quantized receptive fields `q[s][p] = quantize(xpad[tapoff[p] +
    /// off[s]])`, on the dispatched backend of the output-channel-lane tile
    /// ([`q8_tiles`]).
    ///
    /// The activations are quantized to integer-valued `f32`: with a
    /// calibrated `act_scale` every element has the same scale, so the padded
    /// image is quantized once and read through the layer's table; without
    /// one, each receptive field is gathered and takes its own scale from
    /// [`quantize_row_into`], the fields laid out `[s][taps]` behind the
    /// table `taps[p] = p`, `offs[s] = s * taps`. Either way the bytes are
    /// those of `im2col`, a transpose and [`super::quant_gemm_into`] on the
    /// same operands.
    ///
    /// # Panics
    ///
    /// Panics if `weights` was built for a different tap count, or `xpad`,
    /// `bias` or `out` does not match the table and the weights.
    pub(crate) fn q8_conv_forward(
        &self,
        xpad: &[f32],
        act_scale: Option<f32>,
        weights: &Q8Weights,
        bias: &[f32],
        out: &mut [f32],
        scratch: &mut QuantScratch,
    ) {
        let (taps, s) = (self.taps(), self.s);
        assert_eq!(
            weights.taps, taps,
            "q8 conv: weight panels were packed for a different tap count"
        );
        assert_eq!(bias.len(), weights.oc, "q8 conv: bias must have oc entries");
        assert_eq!(
            xpad.len(),
            self.padded_len(),
            "q8 conv: padded image does not match its window"
        );
        let QuantScratch {
            quantized,
            row,
            scales,
            table,
            dots,
            ..
        } = scratch;
        let a_scales = scales.take(s);
        let (q, tables): (&[f32], (&[u32], &[u32])) = match act_scale {
            Some(scale) => {
                let q = quantized.take(xpad.len());
                a_scales.fill(quantize_row_into(xpad, q, Some(scale)));
                (q, (&self.tapoff, &self.off))
            }
            None => {
                let (q, field) = (quantized.take(s * taps), row.take(taps));
                for (i, (a, &o)) in a_scales.iter_mut().zip(&self.off).enumerate() {
                    for (x, &tap) in field.iter_mut().zip(&self.tapoff) {
                        *x = xpad[o as usize + tap as usize];
                    }
                    *a = quantize_row_into(field, &mut q[i * taps..(i + 1) * taps], None);
                }
                (q, row_table(table, taps, s))
            }
        };
        q8_tiles(weights.blocks(), tables, q, a_scales, Some(bias), out, dots);
    }

    /// Q8_0 standard-convolution forward of a lane group, `xpad` its padded
    /// lane image: per sample the bytes of [`ConvWindow::q8_conv_forward`],
    /// on the `f32` tile with the samples on the lanes ([`simd::lane_tiles`]).
    ///
    /// The group is quantized to integer-valued `f32`: with a calibrated
    /// `act_scale` the padded image once, read through the layer's table;
    /// without one each output position's receptive field per lane, under
    /// that lane's own scale ([`quantize_lanes_in_place`]), laid out
    /// `[s][taps][16]` and read through the table `taps[p] = p`,
    /// `offs[s] = s * taps`. Each Q8 block of taps, ascending, is then one
    /// tile pass seeded with `+0.0` on the block's integer weights as
    /// `[oc][taps in the block]` rows ([`Q8Weights`]), and the blocks are
    /// combined as one sample's are ([`q8_combine`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights` was built for a different tap count, or `xpad`,
    /// `bias` or `out` does not match the table and the weights.
    pub(crate) fn q8_lane_conv_forward(
        &self,
        xpad: &[f32],
        act_scale: Option<f32>,
        weights: &Q8Weights,
        bias: &[f32],
        out: &mut [f32],
        scratch: &mut QuantScratch,
    ) {
        const L: usize = LANE_GROUP;
        let (taps, s, oc) = (self.taps(), self.s, weights.oc);
        assert_eq!(
            weights.taps, taps,
            "q8 lane conv: weights were built for a different tap count"
        );
        assert_eq!(bias.len(), oc, "q8 lane conv: bias must have oc entries");
        assert_eq!(
            xpad.len(),
            self.padded_len() * L,
            "q8 lane conv: padded image does not match its window"
        );
        assert_eq!(out.len(), oc * s * L, "q8 lane conv: out must be oc*s*16");
        let QuantScratch {
            quantized,
            scales,
            table,
            dots,
            ..
        } = scratch;
        let (zeros, a_scales) = scales.take(oc + s * L).split_at_mut(oc);
        zeros.fill(0.0);
        let zeros: &[f32] = zeros;
        let (q, tap_table, off_table): (&[f32], &[u32], &[u32]) = match act_scale {
            Some(scale) => {
                let q = quantized.take(xpad.len());
                a_scales.fill(quantize_row_into(xpad, q, Some(scale)));
                (q, &self.tapoff, &self.off)
            }
            None => {
                let q = quantized.take(s * taps * L);
                let fields = q
                    .chunks_exact_mut(taps * L)
                    .zip(a_scales.chunks_exact_mut(L));
                for ((field, a), &o) in fields.zip(&self.off) {
                    for (dst, &tap) in field.chunks_exact_mut(L).zip(&self.tapoff) {
                        let at = (tap + o) as usize * L;
                        dst.copy_from_slice(&xpad[at..at + L]);
                    }
                    quantize_lanes_in_place(field, a.try_into().expect("one vector"));
                }
                let (tap_table, off_table) = row_table(table, taps, s);
                (q, tap_table, off_table)
            }
        };
        let isa = simd::active_isa();
        q8_combine(
            &weights.scales,
            a_scales,
            Some(bias),
            out,
            dots,
            |b, dst| {
                simd::lane_tiles(
                    isa,
                    LaneOperands {
                        weight: &weights.rows[q8_block(oc, taps, b)],
                        bias: zeros,
                        taps: &tap_table[q8_block(1, taps, b)],
                        offs: off_table,
                        x: q,
                        out: dst,
                    },
                );
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

    /// Depthwise forward of a lane group, `xpad` its padded lane image:
    /// `out[ch][s][lane] = bias[ch] + Σ_tap weight[ch][tap] * xpad[..]`, taps
    /// ascending, multiply then add — per channel the weight broadcast and,
    /// per output position, one vector of the sixteen samples' activations
    /// through the table, a few positions at a time. No origin that is no
    /// output is computed. Per sample these are
    /// [`ConvWindow::depthwise_forward`]'s bytes.
    ///
    /// # Panics
    ///
    /// Panics if `xpad`, `weight`, `bias` or `out` does not match the table.
    pub(crate) fn depthwise_lanes(
        &self,
        xpad: &[f32],
        weight: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        const L: usize = LANE_GROUP;
        let kk = self.k * self.k;
        assert_eq!(
            xpad.len(),
            self.padded_len() * L,
            "lane depthwise: padded image does not match its window"
        );
        assert_eq!(
            out.len(),
            self.c * self.s * L,
            "lane depthwise: out must be c*s*16"
        );
        // Channel 0's taps are the offsets inside any one padded plane.
        let taps = &self.tapoff[..kk];
        let planes = xpad.chunks_exact(self.hp * self.wp * L);
        let outs = out.chunks_exact_mut(self.s * L);
        for (ch, (plane, ochan)) in planes.zip(outs).enumerate() {
            let stencil = LaneStencil {
                plane,
                taps,
                weight: &weight[ch * kk..(ch + 1) * kk],
                bias: bias[ch],
            };
            let mut groups = self.off.chunks_exact(LANE_STENCIL_ROWS);
            let mut dst = ochan.chunks_exact_mut(LANE_STENCIL_ROWS * L);
            for (offs, dst) in (&mut groups).zip(&mut dst) {
                stencil.run::<LANE_STENCIL_ROWS>(offs, dst);
            }
            for (&o, dst) in groups
                .remainder()
                .iter()
                .zip(dst.into_remainder().chunks_exact_mut(L))
            {
                stencil.run::<1>(&[o], dst);
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

/// A layer's Q8_0 weights as the `f32` tiles read them: per Q8 block `b`,
/// ascending, the block's integer weights — in `[-127, 127]`, exact as `f32`
/// — as output-channel-lane panels, the [`OcPanels`] layout of the block
/// (`[16-oc block][taps in block b][16]`, lanes past the last channel zero),
/// which one sample's Q8 tier reads ([`q8_tiles`]); the same weights as
/// `[oc][taps in block b]` rows, which a lane group reads
/// ([`ConvWindow::q8_lane_conv_forward`]); and the block scales as `[Q8
/// block][oc]`. The layout is the same on every ISA. This is derived `f32`
/// execution state, like [`OcPanels`] and the window table, not the Q8_0
/// storage (`QuantMatrix::bytes`, about 4x smaller than the `f32` weights):
/// built by `quantize_weights()` — a quantized `Conv2d`'s filters, a
/// quantized `Dense`'s output features — and cloned with the layer.
#[derive(Debug, Clone)]
pub(crate) struct Q8Weights {
    oc: usize,
    taps: usize,
    rows: Vec<f32>,
    panels: Vec<f32>,
    scales: Vec<f32>,
}

impl Q8Weights {
    /// Both forms of a quantized `[oc, taps]` weight matrix. The panels are
    /// counted in [`scratch::ScratchStats::weight_floats_packed`] (one per
    /// `f32` lane written), so tests can pin that eval forwards never
    /// re-pack.
    pub(crate) fn new(weight: &QuantMatrix) -> Self {
        let (oc, taps) = (weight.rows(), weight.cols());
        let mut rows = vec![0.0f32; oc * taps];
        let mut panels = vec![0.0f32; oc.div_ceil(OC_LANES) * taps * OC_LANES];
        let mut scales = vec![0.0f32; taps.div_ceil(QK8_0) * oc];
        q8_rows_into(weight, &mut rows, &mut scales);
        q8_panels_into(oc, taps, &rows, &mut panels);
        scratch::count_weight_floats_packed(panels.len());
        Self {
            oc,
            taps,
            rows,
            panels,
            scales,
        }
    }

    /// The panels and scales one sample's Q8 tier reads.
    pub(crate) fn blocks(&self) -> Q8Blocks<'_> {
        Q8Blocks {
            oc: self.oc,
            taps: self.taps,
            panels: &self.panels,
            scales: &self.scales,
        }
    }
}

/// The [`Q8Weights`] panels and block scales of an `[oc, taps]` weight
/// matrix, borrowed from a layer or from the quantized GEMM's scratch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Q8Blocks<'a> {
    pub(crate) oc: usize,
    pub(crate) taps: usize,
    panels: &'a [f32],
    scales: &'a [f32],
}

/// The [`Q8Blocks`] of `weight`, packed into the scratch buffer `buf`: the
/// quantized GEMM's per-call packing. Not counted as packed weights.
pub(crate) fn pack_q8_blocks<'a>(weight: &QuantMatrix, buf: &'a mut GrowBuf) -> Q8Blocks<'a> {
    let (oc, taps) = (weight.rows(), weight.cols());
    let (rows_len, panels_len) = (oc * taps, oc.div_ceil(OC_LANES) * taps * OC_LANES);
    let scales_len = taps.div_ceil(QK8_0) * oc;
    let (rows, rest) = buf
        .take(rows_len + panels_len + scales_len)
        .split_at_mut(rows_len);
    let (panels, scales) = rest.split_at_mut(panels_len);
    q8_rows_into(weight, rows, scales);
    q8_panels_into(oc, taps, rows, panels);
    Q8Blocks {
        oc,
        taps,
        panels,
        scales,
    }
}

/// Where Q8 block `b` sits in a block-major array with `width` values per
/// tap: taps `32b` up to `32(b + 1)` or `taps`, whichever comes first.
fn q8_block(width: usize, taps: usize, b: usize) -> std::ops::Range<usize> {
    b * QK8_0 * width..taps.min((b + 1) * QK8_0) * width
}

/// `weight`'s integer weights into `rows` as `f32`, block by block — per Q8
/// block, ascending, `[oc][taps in the block]` — and its block scales into
/// `scales` as `[Q8 block][oc]` (both possibly dirty, every element
/// written).
fn q8_rows_into(weight: &QuantMatrix, rows: &mut [f32], scales: &mut [f32]) {
    let (oc, taps) = (weight.rows(), weight.cols());
    for b in 0..taps.div_ceil(QK8_0) {
        let len = QK8_0.min(taps - b * QK8_0);
        let block = rows[q8_block(oc, taps, b)].chunks_exact_mut(len);
        for (o, (row, scale)) in block.zip(&mut scales[b * oc..(b + 1) * oc]).enumerate() {
            let q8 = &weight.row(o)[b];
            for (r, &q) in row.iter_mut().zip(&q8.qs) {
                *r = f32::from(q);
            }
            *scale = q8.scale;
        }
    }
}

/// The [`q8_rows_into`] rows of an `[oc, taps]` matrix as output-channel-lane
/// panels, block by block: per Q8 block, the [`OcPanels`] layout of its rows.
fn q8_panels_into(oc: usize, taps: usize, rows: &[f32], panels: &mut [f32]) {
    let width = oc.div_ceil(OC_LANES) * OC_LANES;
    for b in 0..taps.div_ceil(QK8_0) {
        let len = QK8_0.min(taps - b * QK8_0);
        let (src, dst) = (
            &rows[q8_block(oc, taps, b)],
            &mut panels[q8_block(width, taps, b)],
        );
        pack_lanes(oc, len, src, dst);
    }
}

/// The window table of `rows` contiguous rows of `len` elements, drawn from
/// `buf`: `taps[p] = p`, then `offs[i] = i * len`. A quantized GEMM reads A's
/// rows through it, and a Q8 convolution under dynamic scales its receptive
/// fields, laid out one after another.
///
/// # Panics
///
/// Panics if the rows hold more than `u32::MAX` elements.
pub(crate) fn row_table(buf: &mut GrowBuf<u32>, len: usize, rows: usize) -> (&[u32], &[u32]) {
    assert!(
        u32::try_from(len * rows).is_ok(),
        "q8: rows too large for a window table"
    );
    let (taps, offs) = buf.take(len + rows).split_at_mut(len);
    for (p, tap) in taps.iter_mut().enumerate() {
        *tap = p as u32;
    }
    for (i, off) in offs.iter_mut().enumerate() {
        *off = (i * len) as u32;
    }
    (taps, offs)
}

/// One Q8_0 product on the output-channel-lane tile ([`simd::conv_tiles`],
/// dispatched backend): `out[oc][i] = a_scales[i] * Σ_b scale_b[oc] *
/// dot_b(oc, i) + bias[oc]`, `dot_b` the dot of Q8 block `b` of filter `oc`
/// with the integer-valued activations `q[taps[p] + offs[i]]`. Each block is
/// one tile pass over its taps, seeded with `+0.0` ([`GemmInit::Zero`]) on
/// the block's panels. Every product and partial sum is an integer of
/// magnitude at most `32 * 127² < 2^24`, so every backend computes the
/// exact `i32` dot, `+0.0` where it is zero, and [`q8_combine`] folds the
/// blocks in.
///
/// # Panics
///
/// Panics if the panels, `a_scales`, `bias` or `out` do not match each other
/// and the table, or if the table addresses an element outside `q`.
pub(crate) fn q8_tiles(
    weights: Q8Blocks<'_>,
    (taps, offs): (&[u32], &[u32]),
    q: &[f32],
    a_scales: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    dots: &mut GrowBuf,
) {
    let Q8Blocks {
        oc,
        taps: depth,
        panels,
        scales,
    } = weights;
    assert_eq!(taps.len(), depth, "q8: table and panels disagree on taps");
    assert_eq!(
        a_scales.len(),
        offs.len(),
        "q8: one activation scale per row"
    );
    let (isa, width) = (simd::active_isa(), oc.div_ceil(OC_LANES) * OC_LANES);
    q8_combine(scales, a_scales, bias, out, dots, |b, dst| {
        simd::conv_tiles(
            isa,
            ConvOperands {
                panels: &panels[q8_block(width, depth, b)],
                lanes: oc,
                init: GemmInit::Zero,
                taps: &taps[q8_block(1, depth, b)],
                offs,
                x: q,
                out: dst,
            },
        );
    });
}

/// The combine and epilogue of every Q8_0 product, on `[oc][positions]`
/// accumulators `out`: for each Q8 block `b`, ascending, `block_dots(b,
/// dst)` writes the block's exact integer dots into `dst` — `out` itself for
/// the first block, `dots` after it — and they are folded in as the
/// quantized GEMM's row loop does ([`naive::quant_matmul_naive`]): `acc =
/// 0.0 + scale_0 * dot_0`, then `acc += scale_b * dot_b`, a multiply and then
/// an add. Last, `out = a_scale * acc + bias`, with `-0.0` where there is no
/// bias: the exact additive identity, so an `a_scale * acc` that underflowed
/// to `-0.0` keeps its sign. No taps at all leave every `acc` the empty sum,
/// `+0.0`.
///
/// # Panics
///
/// Panics if `out` is no whole number of rows of `a_scales.len()`, or
/// `scales` (`[Q8 block][oc]`) or `bias` does not match its rows.
fn q8_combine(
    scales: &[f32],
    a_scales: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    dots: &mut GrowBuf,
    mut block_dots: impl FnMut(usize, &mut [f32]),
) {
    let positions = a_scales.len();
    if out.is_empty() || positions == 0 {
        return;
    }
    let oc = out.len() / positions;
    assert_eq!(out.len(), oc * positions, "q8: out must be oc*positions");
    assert!(
        scales.len().is_multiple_of(oc),
        "q8: one block scale per output channel"
    );
    if let Some(bias) = bias {
        assert_eq!(bias.len(), oc, "q8: bias must have oc entries");
    }
    let blocks = scales.len() / oc;
    if blocks == 0 {
        out.fill(0.0);
    }
    let dots = dots.take(if blocks > 1 { out.len() } else { 0 });
    for (b, scale_b) in scales.chunks_exact(oc).enumerate() {
        if b == 0 {
            block_dots(0, out);
            for (ochan, &scale) in out.chunks_exact_mut(positions).zip(scale_b) {
                for v in ochan {
                    *v = 0.0 + scale * *v;
                }
            }
        } else {
            block_dots(b, dots);
            let chans = out
                .chunks_exact_mut(positions)
                .zip(dots.chunks_exact(positions));
            for ((ochan, dchan), &scale) in chans.zip(scale_b) {
                for (v, &dot) in ochan.iter_mut().zip(dchan) {
                    *v += scale * dot;
                }
            }
        }
    }
    for (o, ochan) in out.chunks_exact_mut(positions).enumerate() {
        let seed = bias.map_or(-0.0, |bias| bias[o]);
        for (v, &a) in ochan.iter_mut().zip(a_scales) {
            *v = a * *v + seed;
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
        let xpad = window.pad(x, 1, &mut buf);
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

    /// A convolution geometry: `(c, h, w, k, stride, padding)`.
    type Geometry = (usize, usize, usize, usize, usize, usize);

    /// One sample's Q8 convolution as the quantized GEMM's lowering computes
    /// it, rebuilt from `im2col`, `transpose_into`, the row loop
    /// ([`naive::quant_matmul_naive`]) and `transpose_into` — an independent
    /// loop, not another tile: the GEMM operand `[s][taps]`, the row loop's
    /// `[s][oc]` and the convolution's `[oc][s]`.
    fn q8_lowering(
        (c, h, w, k, stride, padding): Geometry,
        x: &[f32],
        qm: &QuantMatrix,
        bias: &[f32],
        act_scale: Option<f32>,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        use super::super::{im2col, transpose_into};
        let (oh, ow) = naive::conv_out(h, w, k, stride, padding);
        let (s, taps, oc) = (oh * ow, c * k * k, qm.rows());
        let mut cols = vec![0.0f32; taps * s];
        let mut cols_t = vec![0.0f32; s * taps];
        let mut want = vec![0.0f32; oc * s];
        im2col(x, c, h, w, k, stride, padding, oh, ow, &mut cols);
        transpose_into(&cols, taps, s, &mut cols_t);
        let out_t = naive::quant_matmul_naive(s, taps, oc, &cols_t, qm, Some(bias), act_scale);
        transpose_into(&out_t, s, oc, &mut want);
        (cols_t, out_t, want)
    }

    /// A Q8 arena whose buffers are all dirtied: NaN, and `u32::MAX` in the
    /// table.
    fn dirty_quant_scratch() -> QuantScratch {
        let mut scratch = QuantScratch::new();
        scratch.quantized.take(1 << 16).fill(f32::NAN);
        scratch.row.take(1 << 12).fill(f32::NAN);
        scratch.scales.take(1 << 12).fill(f32::NAN);
        scratch.table.take(1 << 12).fill(u32::MAX);
        scratch.dots.take(1 << 16).fill(f32::NAN);
        scratch.product.take(1 << 12).fill(f32::NAN);
        scratch.panels.take(1 << 16).fill(f32::NAN);
        scratch
    }

    /// One sample through the per-sample Q8 forward on the active backend,
    /// from dirtied arenas.
    fn q8_per_sample(
        (c, h, w, k, stride, padding): Geometry,
        x: &[f32],
        weights: &Q8Weights,
        bias: &[f32],
        act_scale: Option<f32>,
    ) -> Vec<f32> {
        let window = ConvWindow::new(c, h, w, k, stride, padding);
        let mut pad = GrowBuf::new();
        pad.take(window.padded_len()).fill(f32::NAN);
        let xpad = window.pad(x, 1, &mut pad);
        let mut out = vec![f32::NAN; bias.len() * window.s];
        let mut scratch = dirty_quant_scratch();
        window.q8_conv_forward(xpad, act_scale, weights, bias, &mut out, &mut scratch);
        out
    }

    /// One sample `x` through the per-sample Q8 forward, and its lowered
    /// operand through [`super::super::quant_gemm_into`], on every backend
    /// from dirtied arenas: each against the row loop, bit for bit. Returns
    /// the convolution's output.
    fn q8_against_the_row_loop(
        geometry: Geometry,
        x: &[f32],
        qm: &QuantMatrix,
        bias: &[f32],
        act_scale: Option<f32>,
        tag: &str,
    ) -> Vec<f32> {
        let (cols_t, want_t, want) = q8_lowering(geometry, x, qm, bias, act_scale);
        let weights = Q8Weights::new(qm);
        let (oc, taps) = (qm.rows(), qm.cols());
        let s = want.len() / oc;
        for isa in simd::supported_isas() {
            let prev = simd::force_isa(Some(isa));
            let got = q8_per_sample(geometry, x, &weights, bias, act_scale);
            let mut got_t = vec![f32::NAN; s * oc];
            let mut scratch = dirty_quant_scratch();
            super::super::quant_gemm_into(
                s,
                taps,
                oc,
                &cols_t,
                qm,
                Some(bias),
                act_scale,
                &mut got_t,
                &mut scratch,
            );
            simd::force_isa(prev);
            assert_bits_eq(
                &got,
                &want,
                &format!("{tag} conv scale={act_scale:?} {isa}"),
            );
            assert_bits_eq(
                &got_t,
                &want_t,
                &format!("{tag} gemm scale={act_scale:?} {isa}"),
            );
        }
        want
    }

    /// The Q8 forward against the lowering it replaced ([`q8_lowering`]),
    /// bit for bit, with dynamic per-row scales and with a static one, on
    /// every backend, from dirtied arenas: partial, whole and multiple Q8
    /// blocks (8, 16, 27, 32, 33 and 70 taps), partial and multiple lane
    /// blocks, strides 1-3, pointwise, inputs far beyond the static scale's
    /// int8 grid (saturating) and one all-zero receptive field (dynamic
    /// scale 0).
    #[test]
    fn q8_conv_matches_the_gemm_lowering_on_every_isa() {
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
            let geometry = (c, h, w, k, stride, padding);
            let taps = c * k * k;
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
                let weights = Q8Weights::new(&qm);
                for act_scale in [None, Some(crate::quant::q8_block_scale(2.0))] {
                    let (_, _, want) = q8_lowering(geometry, &x, &qm, &bias, act_scale);
                    if act_scale.is_none() {
                        assert_bits_eq(&want[..1], &bias[..1], "an all-zero field yields the bias");
                    }
                    for isa in simd::supported_isas() {
                        let prev = simd::force_isa(Some(isa));
                        let got = q8_per_sample(geometry, &x, &weights, &bias, act_scale);
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
        let weights = Q8Weights::new(&QuantMatrix::from_rows(&[0.0; 6], 3, 2));
        let xpad = vec![0.0f32; window.padded_len()];
        let mut scratch = QuantScratch::new();
        window.q8_conv_forward(
            &xpad,
            None,
            &weights,
            &[0.0; 3],
            &mut [0.0; 48],
            &mut scratch,
        );
    }

    /// Sixteen samples `xs` (`[16][c][h][w]`) through the lane-group Q8
    /// forward and each one through the per-sample Q8 forward, on every
    /// backend, each from dirtied arenas; asserts the two bit for bit and
    /// returns the lane output back in `[16][oc][s]` order.
    fn q8_lanes_against_per_sample(
        geometry: Geometry,
        xs: &[f32],
        qm: &QuantMatrix,
        bias: &[f32],
        act_scale: Option<f32>,
        tag: &str,
    ) -> Vec<f32> {
        const L: usize = LANE_GROUP;
        let (c, h, w, k, stride, padding) = geometry;
        let window = ConvWindow::new(c, h, w, k, stride, padding);
        let weights = Q8Weights::new(qm);
        let (oc, s, image) = (qm.rows(), window.s, c * h * w);
        let group = crate::layer::lane_group(xs, (c, h, w));
        let mut result = Vec::new();
        for isa in simd::supported_isas() {
            let prev = simd::force_isa(Some(isa));
            let want: Vec<f32> = xs
                .chunks_exact(image)
                .flat_map(|x| q8_per_sample(geometry, x, &weights, bias, act_scale))
                .collect();
            let mut pad = GrowBuf::new();
            pad.take(1 << 16).fill(f32::NAN);
            let xpad = window.pad(group.data(), L, &mut pad);
            let mut got = vec![f32::NAN; oc * s * L];
            let mut scratch = dirty_quant_scratch();
            window.q8_lane_conv_forward(xpad, act_scale, &weights, bias, &mut got, &mut scratch);
            simd::force_isa(prev);
            // `[oc][s][16]` back to `[16][oc][s]`.
            let per_lane = oc * s;
            result = (0..L * per_lane)
                .map(|i| got[(i % per_lane) * L + i / per_lane])
                .collect();
            assert_bits_eq(&result, &want, &format!("{tag} scale={act_scale:?} {isa}"));
        }
        result
    }

    /// The lane-group Q8 convolution against the per-sample one, bit for bit,
    /// with dynamic per-field scales and a calibrated one, on every backend:
    /// partial, whole and multiple Q8 blocks (8 to 360 taps, the partial last
    /// block of 27, 33, 70, 108 and 360, the big net's 12/24/40 channels),
    /// partial and multiple lane tiles of output channels, strides 1-3,
    /// pointwise and padded, non-square images, inputs far beyond the static
    /// scale's int8 grid and an all-zero first receptive field in every lane.
    #[test]
    fn lane_batch_q8_conv_matches_per_sample_on_every_isa() {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0x0C_18);
        let geometries = [
            (8, 6, 6, 1, 1, 0),   // 8 taps, pointwise
            (4, 7, 5, 2, 2, 0),   // 16 taps, stride 2, non-square
            (3, 12, 12, 3, 1, 1), // 27 taps: the little net's stem
            (3, 9, 9, 3, 3, 1),   // 27 taps, stride 3
            (2, 5, 5, 4, 1, 2),   // 32 taps: exactly one Q8 block
            (33, 3, 3, 1, 1, 0),  // 33 taps: one block and one tap
            (70, 4, 4, 1, 2, 0),  // 70 taps: three blocks, the last partial
            (12, 6, 6, 3, 1, 1),  // 108 taps
            (24, 3, 3, 3, 1, 1),  // 216 taps
            (40, 3, 3, 3, 1, 1),  // 360 taps: the big net's last stage
        ];
        for (c, h, w, k, stride, padding) in geometries {
            let taps = c * k * k;
            let mut xs: Vec<f32> = (0..LANE_GROUP * c * h * w)
                .map(|_| rng.uniform(-2.0, 2.0))
                .collect();
            for channel in xs.chunks_exact_mut(h * w) {
                for row in channel.chunks_exact_mut(w).take(k - padding.min(k)) {
                    row[..k - padding.min(k)].fill(0.0);
                }
                channel[h * w - 1] = 9.0e3;
                channel[h * w - 2] = -4.0e4;
            }
            for oc in [1usize, 8, 12, 17, 24, 40] {
                let weight: Vec<f32> = (0..oc * taps).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let bias: Vec<f32> = (0..oc).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let qm = QuantMatrix::from_rows(&weight, oc, taps);
                for act_scale in [None, Some(crate::quant::q8_block_scale(2.0))] {
                    let tag = format!("c={c} h={h} w={w} k={k} s={stride} p={padding} oc={oc}");
                    let geometry = (c, h, w, k, stride, padding);
                    let got =
                        q8_lanes_against_per_sample(geometry, &xs, &qm, &bias, act_scale, &tag);
                    if act_scale.is_none() {
                        let s = got.len() / (LANE_GROUP * oc);
                        for (lane, sample) in got.chunks_exact(oc * s).enumerate() {
                            let first = sample.iter().step_by(s).copied().collect::<Vec<_>>();
                            assert_bits_eq(&first, &bias, &format!("{tag} lane {lane} zero field"));
                        }
                    }
                }
            }
        }
    }

    /// The block dots at their bounds, on every path a Q8 product takes: one
    /// sample's convolution and [`super::super::quant_gemm_into`] against the
    /// row loop ([`naive::quant_matmul_naive`]), and the lane group against
    /// one sample, bit for bit on every backend. Every weight and every
    /// activation at `±127` on the int8 grid, with every product of one sign,
    /// puts a Q8 block's dot at `±32 * 127² = ±516,128`, the largest any
    /// block can reach, still below `2^24`: one, two and three whole blocks
    /// of 32 taps and three and a partial one of 6 (102 taps), pointwise and
    /// 2x2, under dynamic and static scales. Each block's weights are half
    /// the previous block's, so every block has its own scale (`2^(-7-b)`)
    /// and a pass that ran across two blocks would show; the result is exact.
    /// Static inputs `2^10` times past the scale saturate to `±127` on every
    /// path. All-zero inputs yield the bias, under the dynamic scale 0 and
    /// under a static one.
    #[test]
    fn lane_batch_q8_block_dots_stay_exact_at_the_bounds() {
        let _lock = simd::isa_override_test_lock();
        let top = 127.0f32 / 128.0;
        let static_scale = Some(1.0f32 / 128.0);
        let geometries = [
            (32, 2, 3, 1, 1, 0),
            (8, 3, 3, 2, 1, 0),
            (64, 2, 2, 1, 1, 0),
            (102, 2, 2, 1, 1, 0),
        ];
        for geometry in geometries {
            let (c, h, w, k, _, _) = geometry;
            let (taps, image) = (c * k * k, c * h * w);
            let block_len = |b: usize| QK8_0.min(taps - b * QK8_0);
            for (oc, wsign, xsign) in [(3usize, 1.0f32, 1.0f32), (17, -1.0, -1.0), (5, 1.0, -1.0)] {
                let weight: Vec<f32> = (0..oc * taps)
                    .map(|i| wsign * top / (1u32 << (i % taps / QK8_0)) as f32)
                    .collect();
                let qm = QuantMatrix::from_rows(&weight, oc, taps);
                for (b, block) in qm.row(0).iter().enumerate() {
                    assert_eq!(block.scale, 1.0 / (128u32 << b) as f32);
                    let qs = &block.qs[..block_len(b)];
                    assert!(qs.iter().all(|&q| q == wsign as i8 * 127));
                }
                // a_scale 2^-7 times Σ_b 2^(-7-b) * len_b * 127².
                let want = (wsign * xsign) as f64
                    * (0..taps.div_ceil(QK8_0))
                        .map(|b| (block_len(b) * 127 * 127) as f64 / (16_384u64 << b) as f64)
                        .sum::<f64>();
                let tag = format!("c={c} k={k} oc={oc} signs {wsign}/{xsign}");
                let zeros = vec![0.0f32; oc];
                let bias: Vec<f32> = (0..oc).map(|o| o as f32 - 2.5).collect();
                let cases = [
                    (xsign * top, None, &zeros, Some(want)),
                    (xsign * top, static_scale, &zeros, Some(want)),
                    // Saturation: 2^10 times past the static scale's grid.
                    (xsign * 1024.0, static_scale, &zeros, Some(want)),
                    // All zero: every output the bias.
                    (0.0, None, &bias, None),
                    (0.0, static_scale, &bias, None),
                ];
                for (x, act_scale, bias, want) in cases {
                    let xs = vec![x; LANE_GROUP * image];
                    let one =
                        q8_against_the_row_loop(geometry, &xs[..image], &qm, bias, act_scale, &tag);
                    let got =
                        q8_lanes_against_per_sample(geometry, &xs, &qm, bias, act_scale, &tag);
                    let s = one.len() / oc;
                    for (i, &v) in got.iter().chain(&one).enumerate() {
                        match want {
                            Some(want) => assert_eq!(f64::from(v), want, "{tag} x={x}"),
                            None => assert_eq!(v.to_bits(), bias[i / s % oc].to_bits(), "{tag}"),
                        }
                    }
                }
            }
        }
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
            let mut xpad = window.pad(&x, 1, &mut buf).to_vec();
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
        let xpad = window.pad(&x, 1, &mut buf);
        assert!(std::ptr::eq(xpad, x.as_slice()));
        assert_eq!(buf.capacity(), 0);
    }
}
