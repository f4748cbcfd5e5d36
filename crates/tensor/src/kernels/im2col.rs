//! im2col / col2im: lowering convolution onto GEMM.
//!
//! A `[c, h, w]` image is unrolled into a `[c*k*k, oh*ow]` column matrix
//! whose row index runs in `(ic, ky, kx)` order — exactly the tap order of
//! the naive convolution loops — so `weight[oc, c*k*k] x cols` accumulates
//! each output element's products in the same sequence as the 7-deep loop
//! and stays bit-identical to it. Out-of-bounds (padding) taps become `0.0`
//! entries, which add nothing.
//!
//! `col2im` is the adjoint scatter used by the input-gradient path.

/// Unrolls one `[c, h, w]` image into `cols` (`[c*k*k, oh*ow]`, fully
/// overwritten).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    assert_eq!(x.len(), c * h * w, "im2col: image must be c*h*w");
    assert_eq!(
        cols.len(),
        c * k * k * oh * ow,
        "im2col: cols must be c*k*k*oh*ow"
    );
    let s = oh * ow;
    let mut row = 0usize;
    for ic in 0..c {
        let xc = &x[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let dst = &mut cols[row * s..(row + 1) * s];
                unroll_tap(xc, h, w, kx, ky, stride, padding, oh, ow, dst);
                row += 1;
            }
        }
    }
}

/// Writes one `(ky, kx)` tap's row of the column matrix: `dst[oy*ow + ox] =
/// x[oy*stride + ky - p][ox*stride + kx - p]` (or `0.0` out of bounds).
#[allow(clippy::too_many_arguments)]
fn unroll_tap(
    xc: &[f32],
    h: usize,
    w: usize,
    kx: usize,
    ky: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    dst: &mut [f32],
) {
    // Valid output-column range: 0 <= ox*stride + kx - padding < w. The
    // clamp to `ow` can make the range empty (a tap whose every column falls
    // in the padding, e.g. a kernel spanning the whole padded width); the
    // copy below must be skipped then — `ox_lo + kx - padding` is only
    // non-negative when the range is non-empty.
    let ox_lo = padding.saturating_sub(kx).div_ceil(stride).min(ow);
    let ox_hi = if w + padding > kx {
        ((w + padding - kx - 1) / stride + 1).min(ow)
    } else {
        0
    };
    for oy in 0..oh {
        let drow = &mut dst[oy * ow..(oy + 1) * ow];
        let iy = (oy * stride + ky) as isize - padding as isize;
        if iy < 0 || iy >= h as isize {
            drow.fill(0.0);
            continue;
        }
        drow[..ox_lo.min(ow)].fill(0.0);
        drow[ox_hi..].fill(0.0);
        if ox_lo >= ox_hi {
            continue;
        }
        let xrow = &xc[iy as usize * w..(iy as usize + 1) * w];
        if stride == 1 {
            // Contiguous span: ix = ox + kx - padding.
            let ix0 = ox_lo + kx - padding;
            drow[ox_lo..ox_hi].copy_from_slice(&xrow[ix0..ix0 + (ox_hi - ox_lo)]);
        } else {
            for (ox, d) in drow[ox_lo..ox_hi].iter_mut().enumerate() {
                let ix = (ox_lo + ox) * stride + kx - padding;
                *d = xrow[ix];
            }
        }
    }
}

/// Scatter-adds a `[c*k*k, oh*ow]` column-space gradient back onto the
/// `[c, h, w]` input-gradient image (`gi += col2im(cols)`).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    gi: &mut [f32],
) {
    assert_eq!(gi.len(), c * h * w, "col2im: grad image must be c*h*w");
    assert_eq!(
        cols.len(),
        c * k * k * oh * ow,
        "col2im: cols must be c*k*k*oh*ow"
    );
    let s = oh * ow;
    let mut row = 0usize;
    for ic in 0..c {
        let gc = &mut gi[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let src = &cols[row * s..(row + 1) * s];
                let ox_lo = padding.saturating_sub(kx).div_ceil(stride).min(ow);
                let ox_hi = if w + padding > kx {
                    ((w + padding - kx - 1) / stride + 1).min(ow)
                } else {
                    0
                };
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let grow = &mut gc[iy as usize * w..(iy as usize + 1) * w];
                    let srow = &src[oy * ow..(oy + 1) * ow];
                    for (ox, &v) in srow[ox_lo..ox_hi].iter().enumerate() {
                        let ix = (ox_lo + ox) * stride + kx - padding;
                        grow[ix] += v;
                    }
                }
                row += 1;
            }
        }
    }
}

/// `(c, h, w, k, stride, padding)` geometries shared by the lowering suites
/// here and in `kernels::window`.
#[cfg(test)]
pub(super) const TEST_GEOMETRIES: [(usize, usize, usize, usize, usize, usize); 8] = [
    (1, 4, 4, 3, 1, 1),
    (2, 5, 7, 3, 2, 1),
    (3, 8, 8, 1, 1, 0),
    (2, 6, 6, 2, 2, 0),
    (1, 7, 5, 3, 1, 2),
    (4, 9, 9, 5, 3, 2),
    // Kernel spans the entire padded width (w + 2p == k): some taps have an
    // empty valid column range — regression for a usize underflow in the
    // stride-1 fast path.
    (1, 3, 3, 7, 1, 2),
    (2, 4, 4, 6, 1, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// Reference im2col written as the obvious quadruple loop.
    #[allow(clippy::too_many_arguments)]
    fn im2col_reference(
        x: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        padding: usize,
        oh: usize,
        ow: usize,
    ) -> Vec<f32> {
        let s = oh * ow;
        let mut cols = vec![0.0f32; c * k * k * s];
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ic * k + ky) * k + kx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                cols[row * s + oy * ow + ox] =
                                    x[(ic * h + iy as usize) * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    #[test]
    fn im2col_matches_reference_across_shapes() {
        let mut rng = SeededRng::new(0xC0_15);
        for &(c, h, w, k, stride, padding) in &TEST_GEOMETRIES {
            let (oh, ow) = super::super::naive::conv_out(h, w, k, stride, padding);
            let x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let mut cols = vec![f32::NAN; c * k * k * oh * ow];
            im2col(&x, c, h, w, k, stride, padding, oh, ow, &mut cols);
            let expect = im2col_reference(&x, c, h, w, k, stride, padding, oh, ow);
            assert_eq!(
                cols, expect,
                "im2col mismatch for c={c} h={h} w={w} k={k} s={stride} p={padding}"
            );
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint pair used by the backward pass.
        let mut rng = SeededRng::new(0xAD_30);
        for &(c, h, w, k, stride, padding) in &[
            (2usize, 5usize, 5usize, 3usize, 1usize, 1usize),
            (1, 6, 4, 2, 2, 0),
            (3, 7, 7, 3, 2, 1),
        ] {
            let (oh, ow) = super::super::naive::conv_out(h, w, k, stride, padding);
            let s = oh * ow;
            let x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let y: Vec<f32> = (0..c * k * k * s).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut cols = vec![0.0f32; c * k * k * s];
            im2col(&x, c, h, w, k, stride, padding, oh, ow, &mut cols);
            let lhs: f64 = cols
                .iter()
                .zip(y.iter())
                .map(|(&a, &b)| (a * b) as f64)
                .sum();
            let mut gi = vec![0.0f32; c * h * w];
            col2im(&y, c, h, w, k, stride, padding, oh, ow, &mut gi);
            let rhs: f64 = x.iter().zip(gi.iter()).map(|(&a, &b)| (a * b) as f64).sum();
            assert!(
                (lhs - rhs).abs() < 1e-3,
                "adjoint mismatch: {lhs} vs {rhs} for c={c} h={h} w={w} k={k} s={stride} p={padding}"
            );
        }
    }
}
