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
//! cloned with the layer — and has two readers:
//!
//! * the standard convolution puts **output channels on the vector lanes**
//!   ([`ConvWindow::conv_forward`]): the layer's weights are packed once as
//!   `[16-channel block][tap][16]` rows ([`OcPanels`]), and per block and tile
//!   of output positions every tap is one vector load of weights times one
//!   activation broadcast from `xpad` through the table. The indirection
//!   serves the broadcast operand, so nothing is gathered, copied into
//!   panels or padded to a column count, and a layer with 9 or 36 output
//!   positions wastes no lanes on them;
//! * the depthwise convolution runs as a direct stencil over the same table
//!   ([`ConvWindow::depthwise_forward`] / [`ConvWindow::depthwise_backward`]),
//!   with output positions on the lanes (its channels are `hp * wp` apart in
//!   NCHW).
//!
//! Both accumulate taps in ascending order from the bias, multiply then add —
//! the operation sequence of a row-accumulate GEMM over the im2col matrix. A
//! border tap contributes `w * 0.0` — not nothing — just as im2col's
//! explicit zero entries do (see docs/DETERMINISM.md, "Padding taps").
//!
//! The stencil is plain Rust, which never contracts `a * b + c`, so it does
//! not depend on [`super::simd::active_isa`]. The standard convolution
//! dispatches on it: its backends are bit-identical to each other and to the
//! scalar reference.

use super::gemm::NR;
use super::naive;
use super::scratch::{self, GrowBuf};
use super::simd::{self, ConvOperands, OC_LANES};

/// The window table of one convolution geometry on one `[c, h, w]` input.
#[derive(Debug, Clone)]
pub(crate) struct ConvWindow {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    padding: usize,
    /// Padded channel extent, `h + 2p` by `w + 2p`.
    hp: usize,
    wp: usize,
    /// Output positions, `oh * ow`.
    s: usize,
    /// `off[s]`, zero-extended to a multiple of `NR` so a reader takes whole
    /// `[u32; NR]` groups (the extra lanes read a valid element and are
    /// dropped or zeroed by the reader).
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
        let mut off = vec![0u32; s.div_ceil(NR) * NR];
        for (pos, o) in off[..s].iter_mut().enumerate() {
            *o = ((pos / ow * stride) * wp + pos % ow * stride) as u32;
        }
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
            padding,
            hp,
            wp,
            s,
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

    /// One `NR`-wide group of `off`, starting at output position `s0` (a
    /// multiple of `NR`).
    #[inline(always)]
    fn off_group(&self, s0: usize) -> &[u32; NR] {
        self.off[s0..s0 + NR]
            .try_into()
            .expect("off is padded to a multiple of NR")
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
        simd::conv_forward(
            simd::active_isa(),
            ConvOperands {
                panels: &panels.panels,
                bias,
                taps: &self.tapoff,
                offs: &self.off[..self.s],
                xpad,
                out,
            },
        );
    }

    /// Depthwise forward of one sample: `out[ch][s] = bias[ch] + Σ_tap
    /// weight[ch][tap] * xpad[..]`, taps ascending, multiply then add, `NR`
    /// outputs at a time.
    pub(crate) fn depthwise_forward(
        &self,
        xpad: &[f32],
        weight: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let kk = self.k * self.k;
        for (ch, ochan) in out.chunks_exact_mut(self.s).enumerate() {
            let taps = &self.tapoff[ch * kk..(ch + 1) * kk];
            let wch = &weight[ch * kk..(ch + 1) * kk];
            for (jt, group) in ochan.chunks_mut(NR).enumerate() {
                let off = self.off_group(jt * NR);
                let mut acc = [bias[ch]; NR];
                for (&wv, &tap) in wch.iter().zip(taps) {
                    let src = &xpad[tap as usize..];
                    for (a, &o) in acc.iter_mut().zip(off) {
                        *a += wv * src[o as usize];
                    }
                }
                group.copy_from_slice(&acc[..group.len()]);
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
        let off = &self.off[..self.s];
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
        assert_eq!(weight.len(), oc * taps, "OcPanels: weight must be oc*taps");
        let mut panels = vec![0.0f32; oc.div_ceil(OC_LANES) * taps * OC_LANES];
        for o in 0..oc {
            let block = &mut panels[o / OC_LANES * taps * OC_LANES..];
            for (p, &v) in weight[o * taps..(o + 1) * taps].iter().enumerate() {
                block[p * OC_LANES + o % OC_LANES] = v;
            }
        }
        scratch::count_weight_floats_packed(panels.len());
        Self { oc, taps, panels }
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
    /// (pointwise, one channel) and more than `KC` of them, non-square
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
