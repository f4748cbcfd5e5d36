//! Retained naive reference kernels.
//!
//! These are verbatim ports of the seed implementations that the tiled GEMM,
//! the window-table convolutions and the Q8_0 tier's tile passes replaced.
//! They are kept (and exported) for two reasons:
//!
//! 1. **Equivalence testing.** The optimized kernels promise bit-identical
//!    results (see [`super::numeric_contract`]); the property suites in
//!    `kernels::tests` and `layers::conv` compare against these references
//!    over many seeded shapes, and the quantized suites against
//!    [`quant_matmul_naive`].
//! 2. **Benchmark baselines.** The repository benchmark's
//!    `kernels.gemm.vs_naive` metric (`benchmark/src/probes.rs`) times the
//!    GEMM against [`matmul_naive`] so the speedup claim stays
//!    verifiable on any machine.
//!
//! Nothing on a hot path runs a kernel from this module; [`conv_out`], the
//! output-size formula, is the one item the layers share with it.

use crate::quant::{quantize_row_into, QuantMatrix, QK8_0};

/// The seed `Tensor::matmul` loop, including its `a == 0.0` sparsity branch.
///
/// `i-k-j` order: for each output element, products are accumulated in
/// ascending inner-dimension order. For finite inputs the sparsity skip is
/// bit-equivalent to accumulating the zero product, which is why the tiled
/// kernel can drop it.
pub fn matmul_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul_naive: A must be m*k");
    assert_eq!(b.len(), k * n, "matmul_naive: B must be k*n");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The quantized GEMM's seed row loop: `out[m x n] = A[m x k] · W + bias`,
/// `W` one reduction row of Q8_0 blocks per output feature. Each row of A is
/// quantized with one row-wide scale ([`quantize_row_into`]: the row's
/// absmax, or the static `act_scale`); per output feature the blocks give
/// exact `i32` dots, combined as `acc += scale * dot as f32` for blocks
/// ascending from `0.0`, and the element is `a_scale * acc` plus the bias
/// (nothing added without one). The Q8_0 tier's tile passes reproduce it
/// bit for bit.
///
/// # Panics
///
/// Panics if `a` is not `m * k` elements or `w` is not `n` rows of depth `k`.
pub fn quant_matmul_naive(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    w: &QuantMatrix,
    bias: Option<&[f32]>,
    act_scale: Option<f32>,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "quant_matmul_naive: A must be m*k");
    assert_eq!(
        (w.rows(), w.cols()),
        (n, k),
        "quant_matmul_naive: W must be n x k"
    );
    // Zero-padded to whole blocks; the tail is never rewritten.
    let mut qa = vec![0i8; w.blocks_per_row() * QK8_0];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_scale = quantize_row_into(&a[i * k..(i + 1) * k], &mut qa, act_scale);
        for j in 0..n {
            let mut acc = 0.0f32;
            for (block, qs) in w.row(j).iter().zip(qa.chunks_exact(QK8_0)) {
                let mut dot = 0i32;
                for (&x, &q) in qs.iter().zip(&block.qs) {
                    dot += i32::from(x) * i32::from(q);
                }
                acc += block.scale * dot as f32;
            }
            let v = a_scale * acc;
            out[i * n + j] = match bias {
                Some(b) => v + b[j],
                None => v,
            };
        }
    }
    out
}

/// Output spatial size of a convolution — the one formula the layers, the
/// window tables and these references share.
///
/// # Panics
///
/// Panics if the kernel does not fit the padded input (the subtraction below
/// would wrap) or `stride` is zero.
pub fn conv_out(
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let (hp, wp) = (h + 2 * padding, w + 2 * padding);
    assert!(
        kernel <= hp && kernel <= wp,
        "conv: a {kernel}x{kernel} kernel does not fit a {h}x{w} input with padding {padding}"
    );
    ((hp - kernel) / stride + 1, (wp - kernel) / stride + 1)
}

/// The seed `Conv2d::forward` 7-deep loop over an NCHW batch.
///
/// `x` is `[n, c, h, w]`, `weight` is `[oc, c, k, k]`, `bias` is `[oc]`;
/// returns `[n, oc, oh, ow]`. The accumulator is seeded with the bias and
/// taps are accumulated in `ic -> ky -> kx` order.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_naive(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    oc: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> Vec<f32> {
    let (oh, ow) = conv_out(h, w, k, stride, padding);
    let mut out = vec![0.0f32; n * oc * oh * ow];
    for b in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[o];
                    for ic in 0..c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((o * c + ic) * k + ky) * k + kx;
                                acc += x[xi] * weight[wi];
                            }
                        }
                    }
                    out[((b * oc + o) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// The seed `Conv2d::backward` loop. Returns `(grad_input, grad_weight,
/// grad_bias)` for a batch, with gradients accumulated from zero.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_naive(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    grad_output: &[f32],
    oc: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow) = conv_out(h, w, k, stride, padding);
    let mut gi = vec![0.0f32; n * c * h * w];
    let mut gw = vec![0.0f32; oc * c * k * k];
    let mut gb = vec![0.0f32; oc];
    for b in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_output[((b * oc + o) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    gb[o] += g;
                    for ic in 0..c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((o * c + ic) * k + ky) * k + kx;
                                gw[wi] += g * x[xi];
                                gi[xi] += g * weight[wi];
                            }
                        }
                    }
                }
            }
        }
    }
    (gi, gw, gb)
}

/// The seed `DepthwiseConv2d::forward` loop. `weight` is `[c, k, k]`.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_forward_naive(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    k: usize,
    stride: usize,
    padding: usize,
) -> Vec<f32> {
    let (oh, ow) = conv_out(h, w, k, stride, padding);
    let mut out = vec![0.0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[ch];
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xi = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                            let wi = (ch * k + ky) * k + kx;
                            acc += x[xi] * weight[wi];
                        }
                    }
                    out[((b * c + ch) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// The seed `DepthwiseConv2d::backward` loop. Returns `(grad_input,
/// grad_weight, grad_bias)` accumulated from zero.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_backward_naive(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    grad_output: &[f32],
    k: usize,
    stride: usize,
    padding: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow) = conv_out(h, w, k, stride, padding);
    let mut gi = vec![0.0f32; n * c * h * w];
    let mut gw = vec![0.0f32; c * k * k];
    let mut gb = vec![0.0f32; c];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_output[((b * c + ch) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    gb[ch] += g;
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xi = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                            let wi = (ch * k + ky) * k + kx;
                            gw[wi] += g * x[xi];
                            gi[xi] += g * weight[wi];
                        }
                    }
                }
            }
        }
    }
    (gi, gw, gb)
}
