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
//! arXiv:1907.02129); it is derived layer state like
//! [`PackedA`](super::gemm::PackedA) — built once per input shape, cloned
//! with the layer — and has two readers:
//!
//! * the blocked GEMM fills its `NR`-column B panels straight from `xpad`
//!   ([`ConvWindow::fill_panels`]), byte-equal to packing the im2col matrix,
//!   so a standard convolution never writes that `k*k`-times larger matrix
//!   out;
//! * the depthwise convolution runs as a direct stencil over the same table
//!   ([`ConvWindow::depthwise_forward`] / [`ConvWindow::depthwise_backward`]),
//!   accumulating taps in ascending order, multiply then add — the operation
//!   sequence of a `1 x k*k` row-accumulate GEMM over the im2col matrix.
//!
//! Nothing here depends on [`super::simd::active_isa`] or the build tier: the
//! loops are plain Rust, which never contracts `a * b + c`, so the stencil
//! reproduces the seed on the default and the `fast-kernels` build alike.
//! A border tap contributes `w * 0.0` — not nothing — just as im2col's
//! explicit zero entries do (see docs/DETERMINISM.md, "Padding taps").

use super::gemm::NR;
use super::naive;
use super::scratch::{self, GrowBuf};

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
    /// Panics if the kernel does not fit the padded image or the padded image
    /// has more than `u32::MAX` elements.
    pub(crate) fn new(
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let (hp, wp) = (h + 2 * padding, w + 2 * padding);
        assert!(
            k > 0 && stride > 0 && k <= hp && k <= wp,
            "ConvWindow: kernel must fit the padded image"
        );
        assert!(
            u32::try_from(c * hp * wp).is_ok(),
            "ConvWindow: padded image too large"
        );
        let (oh, ow) = naive::conv_out(h, w, k, stride, padding);
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

    /// Columns of the im2col matrix this table stands for, `oh * ow`.
    pub(crate) fn positions(&self) -> usize {
        self.s
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

    /// Writes rows `pc..pc + kcb`, columns `jc..jc + ncb` of the im2col
    /// matrix into `NR`-column strips (`[jt][p][NR]`, columns past the matrix
    /// edge zero) — the bytes `pack_b` writes from the materialised matrix.
    /// `jc` must be a multiple of `NR`.
    pub(crate) fn fill_panels(
        &self,
        xpad: &[f32],
        pc: usize,
        kcb: usize,
        jc: usize,
        ncb: usize,
        pack: &mut [f32],
    ) {
        let taps = &self.tapoff[pc..pc + kcb];
        for (jt, strip) in pack[..ncb.div_ceil(NR) * kcb * NR]
            .chunks_exact_mut(kcb * NR)
            .enumerate()
        {
            let off = self.off_group(jc + jt * NR);
            let cols = NR.min(ncb - jt * NR);
            for (dst, &tap) in strip.chunks_exact_mut(NR).zip(taps) {
                let src = &xpad[tap as usize..];
                for (d, &o) in dst.iter_mut().zip(off) {
                    *d = src[o as usize];
                }
                dst[cols..].fill(0.0);
            }
        }
    }

    /// Materialises the whole im2col matrix (`[c*k*k, oh*ow]`, row-major)
    /// from `xpad`, for the `i-k-j` small-problem kernel.
    pub(crate) fn unroll(&self, xpad: &[f32], cols: &mut [f32]) {
        for (row, &tap) in cols.chunks_exact_mut(self.s).zip(&self.tapoff) {
            let src = &xpad[tap as usize..];
            for (d, &o) in row.iter_mut().zip(&self.off) {
                *d = src[o as usize];
            }
        }
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

#[cfg(test)]
mod tests {
    use super::super::gemm::{pack_b, KC, NC};
    use super::super::im2col::{im2col, TEST_GEOMETRIES};
    use super::super::tolerance::assert_bits_eq;
    use super::naive::conv_out;
    use super::*;
    use crate::rng::SeededRng;

    /// The tentpole's by-construction argument, pinned: for every slab and
    /// macro-block the blocked driver would ask for, the window writes the
    /// bytes `pack_b` writes from the materialised im2col matrix — over
    /// non-square images, stride 3, kernels spanning the whole padded width
    /// (taps that only ever see padding), `k > KC` (several slabs) and
    /// `oh * ow > NC` (several macro-blocks, a ragged last strip).
    #[test]
    fn window_panels_are_byte_equal_to_packed_im2col() {
        let mut rng = SeededRng::new(0x71_AB);
        let multi_slab = (16, 6, 6, 3, 1, 1);
        let multi_block = (2, 18, 18, 3, 1, 1);
        assert!(multi_slab.0 * 9 > KC && 18 * 18 > NC);
        for &(c, h, w, k, stride, padding) in
            TEST_GEOMETRIES.iter().chain(&[multi_slab, multi_block])
        {
            let tag = format!("c={c} h={h} w={w} k={k} s={stride} p={padding}");
            let (oh, ow) = conv_out(h, w, k, stride, padding);
            let (rows, s) = (c * k * k, oh * ow);
            let mut x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-2.0, 2.0)).collect();
            x[0] = -0.0;
            x[w - 1] = f32::INFINITY;
            let mut cols = vec![f32::NAN; rows * s];
            im2col(&x, c, h, w, k, stride, padding, oh, ow, &mut cols);

            let window = ConvWindow::new(c, h, w, k, stride, padding);
            assert_eq!((window.taps(), window.positions()), (rows, s), "{tag}");
            let mut buf = GrowBuf::new();
            // A dirty buffer: the border must be re-zeroed, not assumed.
            buf.take(window.padded_len()).fill(f32::NAN);
            let xpad = window.pad(&x, &mut buf);

            let mut unrolled = vec![f32::NAN; rows * s];
            window.unroll(xpad, &mut unrolled);
            assert_bits_eq(&unrolled, &cols, &format!("{tag} unroll"));

            for jc in (0..s).step_by(NC) {
                let ncb = NC.min(s - jc);
                for pc in (0..rows).step_by(KC) {
                    let kcb = KC.min(rows - pc);
                    let len = ncb.div_ceil(NR) * kcb * NR;
                    let (mut want, mut got) = (vec![f32::NAN; len], vec![f32::NAN; len]);
                    pack_b(&cols, s, pc, kcb, jc, ncb, &mut want);
                    window.fill_panels(xpad, pc, kcb, jc, ncb, &mut got);
                    assert_bits_eq(&got, &want, &format!("{tag} panels jc={jc} pc={pc}"));
                }
            }
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
