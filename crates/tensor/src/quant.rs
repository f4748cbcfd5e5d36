//! Q8_0 block quantization for the little-net inference tier.
//!
//! Weights are stored in ggml-style `Q8_0` blocks: [`QK8_0`] = 32 consecutive
//! `f32` values become 32 signed bytes plus one per-block `f32` scale. Unlike
//! ggml, the scale is constrained to a **power of two** — the smallest power
//! of two `d` such that `round(absmax / d) <= 127`. That costs at most one
//! bit of precision versus the classic `absmax / 127` scale, and buys exact
//! arithmetic everywhere it matters:
//!
//! * `x / d` is an exponent shift, so `q = round(x / d)` sees the true
//!   quotient — the per-element round-trip error is *exactly* bounded by
//!   `d / 2` (plus one subnormal of slack at the bottom of the exponent
//!   range, see [`q8_error_bound`]).
//! * `q * d` (dequantization) is exact, so quantize ∘ dequantize ∘ quantize
//!   is bitwise idempotent: re-quantizing a dequantized block reproduces the
//!   identical scale and bytes. With an `absmax / 127` scale this fails in
//!   f32 because `fl(fl(127 * d) / 127)` double-rounds.
//! * In the Q8_0 tier — every quantized convolution and GEMM
//!   ([`crate::kernels::quant_gemm`]), run on the `f32` tiles over
//!   integer-valued operands — every partial sum of a per-block dot product
//!   is an integer below `32 * 127 * 127 < 2^24`, so the tile computes the
//!   dot exactly, and the power-of-two scale multiplies it exactly, leaving
//!   the cross-block f32 accumulation as the only rounding site — which is
//!   why the quantized path has a *single* numeric contract across every ISA
//!   (`quantized-tolerance`, see `docs/DETERMINISM.md`).
//!
//! Scales are clamped to at least `2^-126` (the smallest normal `f32`) so
//! the idempotence argument survives denormal inputs.

use crate::kernels::window::Q8Weights;
use crate::layer::LANE_GROUP;

/// Number of elements per quantization block.
pub const QK8_0: usize = 32;

/// One Q8_0 block: 32 signed bytes and a power-of-two `f32` scale.
///
/// The represented values are `qs[i] as f32 * scale`. An all-zero source
/// block stores `scale == 0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockQ8_0 {
    /// Power-of-two scale (or `0.0` for an all-zero block).
    pub scale: f32,
    /// Quantized values, each in `[-127, 127]`.
    pub qs: [i8; QK8_0],
}

impl BlockQ8_0 {
    /// The all-zero block.
    pub fn zero() -> Self {
        Self {
            scale: 0.0,
            qs: [0; QK8_0],
        }
    }
}

/// `2^k` for `k` in `[-126, 127]`, constructed exactly from the exponent bits.
fn exp2i(k: i32) -> f32 {
    debug_assert!((-126..=127).contains(&k));
    f32::from_bits(((k + 127) as u32) << 23)
}

/// The largest input magnitude the quantizer accepts: `127 · 2^120`
/// (≈ 1.69e38). Beyond this no power-of-two block scale can place the value
/// on the int8 grid without `q · scale` overflowing `f32` (at `f32::MAX`
/// the minimal scale is `2^122` and the rounded `q = 64` gives `2^128`).
/// The domain is *closed* under quantize∘dequantize: any absmax `<= 127 ·
/// 2^120` yields a minimal exponent `e <= 120`, so every reconstructed
/// value is itself `<= 127 · 2^120` — which is what keeps the idempotence
/// guarantee airtight. Network weights and activations sit thirty-plus
/// orders of magnitude below this; the bound exists so the adversarial
/// suites can state it, not because real models approach it.
pub const MAX_QUANT_INPUT: f32 = f32::from_bits((253 << 23) | (63 << 17));

/// `ceil(log2(x))` for finite positive `x`, via the bit pattern (no libm).
fn ilog2_ceil(x: f32) -> i32 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let mantissa = bits & 0x007F_FFFF;
    let biased = (bits >> 23) as i32;
    if biased == 0 {
        // Subnormal: x = mantissa * 2^-149.
        let top = 31 - mantissa.leading_zeros() as i32;
        let exact = mantissa == (1u32 << top);
        top - 149 + i32::from(!exact)
    } else {
        let e = biased - 127;
        if mantissa == 0 {
            e
        } else {
            e + 1
        }
    }
}

fn round_q(absmax: f32, e: i32) -> f32 {
    (absmax / exp2i(e)).round()
}

/// The block scale for a given absolute maximum: the smallest power of two
/// `d` with `round(absmax / d) <= 127`, clamped to the normal range
/// (`>= f32::MIN_POSITIVE`). Returns `0.0` for `absmax == 0.0`.
///
/// Minimality guarantees `round(absmax / d) >= 64` whenever the clamp is not
/// engaged, which is what makes re-quantization reproduce the same scale
/// (see the module docs).
pub fn q8_block_scale(absmax: f32) -> f32 {
    debug_assert!(absmax >= 0.0 && absmax.is_finite());
    if absmax == 0.0 {
        return 0.0;
    }
    // 2^e0 >= absmax / 128, so at most one upward correction is needed.
    let mut e = (ilog2_ceil(absmax) - 7).max(-126);
    while round_q(absmax, e) > 127.0 {
        e += 1;
    }
    while e > -126 && round_q(absmax, e - 1) <= 127.0 {
        e -= 1;
    }
    exp2i(e)
}

/// The quantizer's input domain, checked in debug builds on every path that
/// turns `f32` into int8 — dynamic or static scale alike: a NaN would
/// otherwise quantize silently to 0.
fn debug_assert_quantizable(src: &[f32]) {
    if cfg!(debug_assertions) {
        for &x in src {
            assert!(
                x.is_finite() && x.abs() <= MAX_QUANT_INPUT,
                "quantize requires finite inputs within MAX_QUANT_INPUT, got {x:e}"
            );
        }
    }
}

/// `max |x|` over `src` (`0.0` when empty).
fn absmax_of(src: &[f32]) -> f32 {
    src.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Quantizes up to [`QK8_0`] values into one block, zero-padding the tail.
///
/// # Panics
///
/// Panics (debug) on non-finite input or magnitudes beyond
/// [`MAX_QUANT_INPUT`]; `src.len()` must be `<= QK8_0`.
pub fn quantize_block(src: &[f32]) -> BlockQ8_0 {
    assert!(src.len() <= QK8_0, "block source longer than QK8_0");
    debug_assert_quantizable(src);
    let scale = q8_block_scale(absmax_of(src));
    let mut qs = [0i8; QK8_0];
    if scale > 0.0 {
        // Exact: `scale` is a power of two in the normal range, so the
        // quotient is an exponent shift (subnormal quotients round to 0
        // with error < scale * 2^-126, far inside the d/2 bound).
        for (q, &x) in qs.iter_mut().zip(src) {
            let t = x / scale;
            debug_assert!(t.abs() < 127.5);
            *q = round_to_i8(t);
        }
    }
    BlockQ8_0 { scale, qs }
}

/// Quantizes a slice into Q8_0 blocks; the final block is zero-padded.
pub fn quantize_f32(src: &[f32]) -> Vec<BlockQ8_0> {
    src.chunks(QK8_0).map(quantize_block).collect()
}

/// Quantizes one activation row into `qs[..src.len()]` with a **single**
/// row-wide scale, returning that scale.
///
/// With `static_scale == None` the scale is the row's absmax snapped to a
/// power of two ([`q8_block_scale`]) — the on-the-fly path the quantized
/// GEMM uses by default. With a calibrated static scale, outliers beyond
/// the int8 grid are saturated to ±127 (the standard static-calibration
/// trade-off; the scale itself must be a [`q8_block_scale`] output).
///
/// `qs` may be longer than `src`; the tail is left untouched. Each element is
/// a function of `(x, scale)` alone, so a row may as well be a whole image:
/// when the scale is static the Q8 convolution quantizes its padded input,
/// and the quantized GEMM its whole `A`, in one call. The int8 values land
/// in `qs` as `i8`, or as any type that holds them exactly: the Q8_0 tier
/// keeps them as integer-valued `f32` for the `f32` tiles.
///
/// # Panics
///
/// Panics if `qs` is shorter than `src`, and (debug) on non-finite input or
/// magnitudes beyond [`MAX_QUANT_INPUT`], whichever scale is in force.
pub fn quantize_row_into<T: Copy + From<i8>>(
    src: &[f32],
    qs: &mut [T],
    static_scale: Option<f32>,
) -> f32 {
    assert!(qs.len() >= src.len(), "quantized row buffer too short");
    debug_assert_quantizable(src);
    let scale = match static_scale {
        Some(s) => {
            debug_assert!(s >= 0.0 && s.is_finite());
            s
        }
        None => q8_block_scale(absmax_of(src)),
    };
    if scale <= 0.0 {
        qs[..src.len()].fill(T::from(0));
        return 0.0;
    }
    for (q, &x) in qs.iter_mut().zip(src) {
        *q = T::from(round_to_i8(x / scale));
    }
    scale
}

/// [`quantize_row_into`] with dynamic scales on [`LANE_GROUP`] interleaved
/// rows, in place: `field` is `[element][16]`, lane `l` one row, and each
/// lane takes the scale of its own absmax ([`q8_block_scale`]), written to
/// `scales[l]`; every element becomes its int8 value as an integer-valued
/// `f32`. Per lane these are `quantize_row_into`'s values and scale.
///
/// # Panics
///
/// Panics if `field` is not whole vectors of sixteen, and (debug) on
/// non-finite input or magnitudes beyond [`MAX_QUANT_INPUT`].
pub(crate) fn quantize_lanes_in_place(field: &mut [f32], scales: &mut [f32; LANE_GROUP]) {
    assert!(
        field.len().is_multiple_of(LANE_GROUP),
        "a lane field is whole vectors of sixteen"
    );
    debug_assert_quantizable(field);
    let mut absmax = [0.0f32; LANE_GROUP];
    for v in field.chunks_exact(LANE_GROUP) {
        for (m, &x) in absmax.iter_mut().zip(v) {
            *m = m.max(x.abs());
        }
    }
    for (scale, &m) in scales.iter_mut().zip(&absmax) {
        *scale = q8_block_scale(m);
    }
    for v in field.chunks_exact_mut(LANE_GROUP) {
        for (x, &scale) in v.iter_mut().zip(scales.iter()) {
            *x = if scale > 0.0 {
                f32::from(round_to_i8(*x / scale))
            } else {
                0.0
            };
        }
    }
}

/// `t.round().clamp(-127.0, 127.0) as i8` — round half away from zero,
/// saturate, NaN to 0 — for every `f32` bit pattern, spelled without
/// `f32::round` (a libm call per element on x86) or a float-to-int `as` cast
/// (whose saturation LLVM scalarises), so that a loop over it vectorises on
/// any backend: this is the per-element cost of quantizing activations, and
/// the one rounding routine of every Q8_0 quantizer, weights included.
///
/// Adding `1.5 * 2^23` to `a = min(|t|, 127)` lands in the binade whose ulp
/// is 1: the sum is `a` rounded to an integer, ties to even, and that integer
/// sits in the low mantissa bits. Both subtractions are exact, so the one tie
/// the hardware rounds the wrong way (down to an even neighbour) shows as a
/// difference of exactly one half.
#[inline(always)]
fn round_to_i8(t: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0;
    let t = if t.is_nan() { 0.0 } else { t };
    let a = t.abs().min(127.0);
    let m = a + MAGIC;
    let tie_went_down = a - (m - MAGIC) == 0.5;
    let n = (m.to_bits() - MAGIC.to_bits()) as i32 + i32::from(tie_went_down);
    (if t < 0.0 { -n } else { n }) as i8
}

/// Dequantizes blocks into `out` (`out.len() <= blocks.len() * QK8_0`).
/// Every product `q * scale` is exact, so this is the unique f32 value set
/// the quantized representation denotes.
pub fn dequantize(blocks: &[BlockQ8_0], out: &mut [f32]) {
    assert!(
        out.len() <= blocks.len() * QK8_0,
        "dequantize output longer than quantized data"
    );
    for (i, o) in out.iter_mut().enumerate() {
        let b = &blocks[i / QK8_0];
        *o = f32::from(b.qs[i % QK8_0]) * b.scale;
    }
}

/// The per-element round-trip error bound for a block with the given scale:
/// `scale / 2` plus one smallest-normal of slack for the subnormal corner
/// (values whose exact quotient underflows quantize to 0 with error below
/// `scale * 2^-126`).
///
/// [`QuantLayerReport::within_bound`] holds every quantized layer's weights
/// to it, and the `roundtrip_bound_*` suites every block.
pub fn q8_error_bound(scale: f32) -> f64 {
    f64::from(scale) * 0.5 + f64::from(f32::MIN_POSITIVE)
}

/// Quantized GEMM weights: the `B` operand of `out[m,n] = A[m,k] · B[k,n]`,
/// stored transposed so each output feature's reduction column is a
/// contiguous run of blocks.
///
/// Row `j` holds `ceil(k / 32)` blocks covering column `j` of `B` (length
/// `k`, zero-padded in the final block — padding contributes exactly 0 to
/// every dot product).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    blocks_per_row: usize,
    blocks: Vec<BlockQ8_0>,
}

impl QuantMatrix {
    /// Quantizes a matrix already laid out as `rows` reduction rows of
    /// length `cols` (e.g. conv weights `[out_c, in_c*k*k]`).
    pub fn from_rows(data: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "QuantMatrix shape mismatch");
        let blocks_per_row = cols.div_ceil(QK8_0).max(1);
        let mut blocks = Vec::with_capacity(rows * blocks_per_row);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            for c in (0..blocks_per_row * QK8_0).step_by(QK8_0) {
                let end = cols.min(c + QK8_0);
                blocks.push(if c < cols {
                    quantize_block(&row[c..end])
                } else {
                    BlockQ8_0::zero()
                });
            }
        }
        Self {
            rows,
            cols,
            blocks_per_row,
            blocks,
        }
    }

    /// Quantizes a row-major `[k, n]` matrix (a [`crate::Tensor`]-layout GEMM `B`
    /// operand, e.g. a dense weight `[in, out]`) by gathering its columns.
    pub fn from_b(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "QuantMatrix shape mismatch");
        let mut col = vec![0.0f32; k];
        let mut gathered = Vec::with_capacity(k * n);
        for j in 0..n {
            for (p, c) in col.iter_mut().enumerate() {
                *c = b[p * n + j];
            }
            gathered.extend_from_slice(&col);
        }
        Self::from_rows(&gathered, n, k)
    }

    /// Number of reduction rows (the GEMM `n` dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction depth (the GEMM `k` dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Blocks per reduction row (`ceil(cols / 32)`, at least 1).
    pub fn blocks_per_row(&self) -> usize {
        self.blocks_per_row
    }

    /// The blocks of reduction row `j`.
    pub fn row(&self, j: usize) -> &[BlockQ8_0] {
        &self.blocks[j * self.blocks_per_row..(j + 1) * self.blocks_per_row]
    }

    /// Storage footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.blocks.len() * (QK8_0 + std::mem::size_of::<f32>())
    }

    /// The largest block scale in the matrix (`0.0` for an all-zero matrix).
    pub fn max_scale(&self) -> f32 {
        self.blocks.iter().map(|b| b.scale).fold(0.0f32, f32::max)
    }

    /// Maximum per-element round-trip error and its contract bound against
    /// the row-major `rows x cols` source this matrix was quantized from
    /// (the [`QuantMatrix::from_rows`] layout).
    pub fn max_roundtrip_error_rows(&self, data: &[f32]) -> (f64, f64) {
        assert_eq!(data.len(), self.rows * self.cols, "report shape mismatch");
        let mut max_err = 0.0f64;
        let mut bound = f64::from(f32::MIN_POSITIVE);
        for r in 0..self.rows {
            let row = &data[r * self.cols..(r + 1) * self.cols];
            for (b, block) in self.row(r).iter().enumerate() {
                let start = b * QK8_0;
                if start >= self.cols {
                    break;
                }
                bound = bound.max(q8_error_bound(block.scale));
                let end = self.cols.min(start + QK8_0);
                for (t, &x) in row[start..end].iter().enumerate() {
                    let y = f64::from(block.qs[t]) * f64::from(block.scale);
                    max_err = max_err.max((f64::from(x) - y).abs());
                }
            }
        }
        (max_err, bound)
    }

    /// Builds the per-layer quantization report for this matrix against its
    /// row-major [`QuantMatrix::from_rows`] source.
    pub fn report_against_rows(&self, layer: &'static str, data: &[f32]) -> QuantLayerReport {
        let (max_error, error_bound) = self.max_roundtrip_error_rows(data);
        QuantLayerReport {
            layer,
            params: data.len(),
            max_error,
            error_bound,
            quant_bytes: self.bytes(),
            f32_bytes: std::mem::size_of_val(data),
        }
    }
}

/// Quantized-tier state of a layer with a Q8_0 path (`Dense`, `Conv2d`): the
/// quantized weights as the `f32` tiles read them, the bias they were
/// quantized with, plus activation-scale calibration state. Present only
/// after [`crate::Layer::quantize_weights`]; eval forwards then run the Q8
/// tier — integer-valued operands on the `f32` tiles — while training keeps
/// using the f32 parameters. Like the weights,
/// the bias is a snapshot: an edit through `params_mut` reaches the Q8 tier
/// only by quantizing again.
#[derive(Debug, Clone)]
pub(crate) struct QuantWeights {
    /// The quantized weights' integer values and block scales
    /// ([`Q8Weights`]): output-channel-lane panels for one sample's tier — a
    /// convolution's filters or a dense layer's output features on the lanes
    /// — and `[oc][taps]` rows for a convolution's lane groups.
    pub(crate) weight: Q8Weights,
    /// The layer's bias when it was quantized.
    pub(crate) bias: Vec<f32>,
    /// Static power-of-two activation scale frozen by calibration; `None`
    /// selects dynamic per-row absmax quantization.
    pub(crate) act_scale: Option<f32>,
    observed_absmax: f32,
    observing: bool,
}

impl QuantWeights {
    /// The Q8 tier of a layer with the quantized weights `weight` and the
    /// bias `bias`, its panels packed here.
    pub(crate) fn new(weight: &QuantMatrix, bias: &[f32]) -> Self {
        Self {
            weight: Q8Weights::new(weight),
            bias: bias.to_vec(),
            act_scale: None,
            observed_absmax: 0.0,
            observing: false,
        }
    }

    /// Folds an eval forward's input into the running absmax while a
    /// calibration pass is open; a no-op otherwise.
    pub(crate) fn observe(&mut self, input: &[f32]) {
        if self.observing {
            self.observed_absmax = self.observed_absmax.max(absmax_of(input));
        }
    }

    /// Opens a calibration pass, dropping any previously frozen scale.
    pub(crate) fn begin_calibration(&mut self) {
        self.observing = true;
        self.observed_absmax = 0.0;
        self.act_scale = None;
    }

    /// Closes the calibration pass and freezes the static activation scale
    /// (dynamic quantization stays in force if nothing non-zero was seen).
    /// For a convolution the *input* absmax is the right statistic: padding
    /// contributes only zeros to the receptive fields, so no field's absmax
    /// exceeds it. A forward in lane groups observes the same values as one
    /// sample by sample, so it freezes the same scale.
    pub(crate) fn end_calibration(&mut self) {
        if self.observing && self.observed_absmax > 0.0 {
            self.act_scale = Some(q8_block_scale(self.observed_absmax));
        }
        self.observing = false;
    }
}

/// Per-layer result of a [`crate::Layer::quantize_weights`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLayerReport {
    /// Layer name (as reported by [`crate::Layer::name`]).
    pub layer: &'static str,
    /// Number of scalars quantized.
    pub params: usize,
    /// Maximum per-element round-trip error over the layer's weights.
    pub max_error: f64,
    /// The quantized-tolerance bound those errors must respect.
    pub error_bound: f64,
    /// Quantized storage bytes.
    pub quant_bytes: usize,
    /// Original f32 storage bytes.
    pub f32_bytes: usize,
}

impl QuantLayerReport {
    /// Whether the layer's round-trip error respects the contract bound.
    pub fn within_bound(&self) -> bool {
        self.max_error <= self.error_bound
    }
}

/// Aggregate view over the per-layer reports of a quantized model.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantReportSummary {
    /// Number of quantized layers.
    pub layers: usize,
    /// Total scalars quantized.
    pub params: usize,
    /// Worst per-element round-trip error across layers.
    pub max_error: f64,
    /// Largest per-layer bound (the contract the worst error is held to).
    pub error_bound: f64,
    /// Total quantized bytes.
    pub quant_bytes: usize,
    /// Total f32 bytes.
    pub f32_bytes: usize,
}

impl QuantReportSummary {
    /// Summarizes a set of per-layer reports.
    pub fn from_reports(reports: &[QuantLayerReport]) -> Self {
        Self {
            layers: reports.len(),
            params: reports.iter().map(|r| r.params).sum(),
            max_error: reports.iter().map(|r| r.max_error).fold(0.0, f64::max),
            error_bound: reports.iter().map(|r| r.error_bound).fold(0.0, f64::max),
            quant_bytes: reports.iter().map(|r| r.quant_bytes).sum(),
            f32_bytes: reports.iter().map(|r| r.f32_bytes).sum(),
        }
    }

    /// Whether every layer respected its round-trip bound.
    pub fn within_bound(&self) -> bool {
        self.max_error <= self.error_bound
    }

    /// f32 bytes divided by quantized bytes (≈ 3.6x for Q8_0).
    pub fn compression(&self) -> f64 {
        if self.quant_bytes == 0 {
            1.0
        } else {
            self.f32_bytes as f64 / self.quant_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn assert_block_bound(src: &[f32]) {
        let blocks = quantize_f32(src);
        let mut deq = vec![0.0f32; src.len()];
        dequantize(&blocks, &mut deq);
        for (i, (&x, &y)) in src.iter().zip(&deq).enumerate() {
            let scale = blocks[i / QK8_0].scale;
            let err = (f64::from(x) - f64::from(y)).abs();
            assert!(
                err <= q8_error_bound(scale),
                "elem {i}: x={x:e} deq={y:e} err={err:e} scale={scale:e}"
            );
        }
    }

    fn assert_idempotent(src: &[f32]) {
        let once = quantize_f32(src);
        let mut deq = vec![0.0f32; src.len()];
        dequantize(&once, &mut deq);
        let twice = quantize_f32(&deq);
        assert_eq!(once.len(), twice.len());
        for (a, b) in once.iter().zip(&twice) {
            assert_eq!(
                a.scale.to_bits(),
                b.scale.to_bits(),
                "requantized scale changed: {:e} -> {:e}",
                a.scale,
                b.scale
            );
            assert_eq!(a.qs, b.qs, "requantized bytes changed");
        }
    }

    #[test]
    fn scale_is_power_of_two_and_minimal() {
        let mut rng = SeededRng::new(11);
        for _ in 0..2000 {
            // Log-uniform absmax across the full finite range.
            let e = rng.below(250) as i32 - 140;
            let m = rng.uniform(1.0, 2.0);
            let absmax = (f64::from(m) * 2.0f64.powi(e)) as f32;
            if absmax == 0.0 || !absmax.is_finite() {
                continue;
            }
            let d = q8_block_scale(absmax);
            assert!(d >= f32::MIN_POSITIVE);
            // Power of two: single mantissa bit.
            assert_eq!(d.to_bits() & 0x007F_FFFF, 0, "scale not a power of two");
            let q = (absmax / d).round();
            assert!(q <= 127.0, "q={q} for absmax={absmax:e} d={d:e}");
            // Minimal (unless clamped to the smallest normal).
            if d > f32::MIN_POSITIVE {
                assert!((absmax / (d / 2.0)).round() > 127.0, "scale not minimal");
            }
        }
    }

    #[test]
    fn roundtrip_bound_random_blocks() {
        let mut rng = SeededRng::new(2021);
        for _ in 0..200 {
            let n = 1 + rng.below(100);
            let scale = 2.0f32.powi(rng.below(60) as i32 - 30);
            let src: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0) * scale).collect();
            assert_block_bound(&src);
            assert_idempotent(&src);
        }
    }

    #[test]
    fn roundtrip_bound_denormals() {
        let mut rng = SeededRng::new(7);
        let src: Vec<f32> = (0..QK8_0 * 3)
            .map(|_| {
                // Subnormal magnitudes: mantissa-only bit patterns, mixed sign.
                let m = (rng.next_u64() % (1 << 23)) as u32;
                let v = f32::from_bits(m);
                debug_assert!(v == 0.0 || v.is_subnormal());
                if rng.next_u64().is_multiple_of(2) {
                    v
                } else {
                    -v
                }
            })
            .collect();
        assert_block_bound(&src);
        assert_idempotent(&src);
    }

    #[test]
    fn roundtrip_bound_signed_zeros_and_ties() {
        // ±0 must quantize to 0 with zero error; repeated absmax ties and
        // exact-half quotients exercise the rounding edge.
        let mut src = vec![0.0f32, -0.0, 1.0, -1.0, 1.0, -1.0];
        // Values exactly halfway between quantization points.
        let d = q8_block_scale(1.0);
        src.push(1.5 * d);
        src.push(-2.5 * d);
        src.resize(QK8_0, 1.0);
        assert_block_bound(&src);
        assert_idempotent(&src);
        let b = quantize_block(&src);
        assert_eq!(b.qs[0], 0);
        assert_eq!(b.qs[1], 0);
        assert_eq!(b.qs[2], -b.qs[3]);
    }

    #[test]
    fn constant_blocks_quantize_exactly() {
        for v in [0.0f32, 1.0, -3.5, 1e-30, 6.25e4] {
            let src = [v; QK8_0];
            let blocks = quantize_f32(&src);
            let mut deq = [0.0f32; QK8_0];
            dequantize(&blocks, &mut deq);
            // A constant power-of-two-friendly block may not round-trip
            // exactly, but must respect the bound and be idempotent.
            assert_block_bound(&src);
            assert_idempotent(&src);
            // All elements map to the same byte.
            assert!(blocks[0].qs.iter().all(|&q| q == blocks[0].qs[0]));
        }
    }

    /// `round_to_i8` against the expression it stands for, on every tie and
    /// near-tie the int8 grid has, the specials, and a stride through all
    /// `f32` bit patterns (all 2^32 were compared once, in release: equal).
    #[test]
    fn round_to_i8_is_round_clamp_cast_bit_for_bit() {
        let reference = |t: f32| t.round().clamp(-127.0, 127.0) as i8;
        let mut cases = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFF80_00FF),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1.0e-45,
            8_388_608.5,
            12_582_912.0,
        ];
        for k in -130..=130 {
            let tie = k as f32 + 0.5;
            for bits in tie.to_bits() - 2..=tie.to_bits() + 2 {
                cases.push(f32::from_bits(bits));
            }
            cases.push(k as f32);
        }
        cases.extend((0..=u32::MAX).step_by(40_507).map(f32::from_bits));
        for t in cases {
            assert_eq!(
                round_to_i8(t),
                reference(t),
                "t = {t:e} ({:#x})",
                t.to_bits()
            );
        }
    }

    // A NaN activation used to panic (debug) under a dynamic scale only and
    // quantize silently to 0 under a static one.

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the domain check is a debug assertion"
    )]
    #[should_panic(expected = "quantize requires finite inputs")]
    fn quantize_row_rejects_nan_under_a_dynamic_scale() {
        quantize_row_into(&[1.0, f32::NAN], &mut [0i8; 2], None);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the domain check is a debug assertion"
    )]
    #[should_panic(expected = "quantize requires finite inputs")]
    fn quantize_row_rejects_nan_under_a_static_scale() {
        quantize_row_into(&[1.0, f32::NAN], &mut [0i8; 2], Some(0.25));
    }

    #[test]
    fn all_zero_block_has_zero_scale() {
        let b = quantize_block(&[0.0; QK8_0]);
        assert_eq!(b.scale, 0.0);
        assert_eq!(b.qs, [0; QK8_0]);
        let mut out = [1.0f32; QK8_0];
        dequantize(&[b], &mut out);
        assert_eq!(out, [0.0; QK8_0]);
    }

    #[test]
    fn domain_boundary_roundtrips_exactly() {
        // The documented domain edge: absmax = 127 * 2^120 takes scale
        // 2^120 with q = 127 and reconstructs exactly — the domain is
        // closed, so idempotence holds right at the edge.
        let src = [MAX_QUANT_INPUT; QK8_0];
        let b = quantize_block(&src);
        assert_eq!(b.scale, 2.0f32.powi(120));
        assert!(b.qs.iter().all(|&q| q == 127));
        assert_block_bound(&src);
        assert_idempotent(&src);
    }

    #[test]
    fn idempotence_adversarial_sweep() {
        // The PR's exact-idempotence satellite: seeded adversarial
        // distributions, including near-boundary absmax values where an
        // absmax/127 scale double-rounds.
        let mut rng = SeededRng::new(4242);
        for round in 0..500 {
            let n = QK8_0 * (1 + round % 3);
            let src: Vec<f32> = (0..n)
                .map(|_| {
                    let raw = (rng.next_u64() & 0x7FFF_FFFF) as u32;
                    let mut v = f32::from_bits(raw);
                    if !v.is_finite() {
                        // Demote NaN/inf patterns to subnormals, keeping the
                        // mantissa bits adversarial.
                        v = f32::from_bits(raw & 0x007F_FFFF);
                    }
                    if v > MAX_QUANT_INPUT {
                        // Exact power-of-two downscale into the supported
                        // domain (mantissa preserved, no rounding).
                        v *= 0.00390625; // 2^-8
                    }
                    if rng.next_u64().is_multiple_of(2) {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            assert_block_bound(&src);
            assert_idempotent(&src);
        }
    }

    #[test]
    fn quant_matrix_layouts_agree() {
        let mut rng = SeededRng::new(6);
        let (k, n) = (70, 9);
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let qm = QuantMatrix::from_b(&b, k, n);
        assert_eq!(qm.rows(), n);
        assert_eq!(qm.cols(), k);
        assert_eq!(qm.blocks_per_row(), k.div_ceil(QK8_0));
        // Row j must be the quantization of column j of B.
        for j in 0..n {
            let col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
            let expect = quantize_f32(&col);
            let row = qm.row(j);
            for (bi, eb) in expect.iter().enumerate() {
                assert_eq!(row[bi], *eb);
            }
            // Padding blocks (if any) are exactly zero.
            for pad_block in &row[expect.len()..qm.blocks_per_row()] {
                assert_eq!(*pad_block, BlockQ8_0::zero());
            }
        }
        assert!(qm.max_scale() > 0.0);
        assert!(qm.bytes() > 0);
    }

    #[test]
    fn report_summary_aggregates() {
        let reports = vec![
            QuantLayerReport {
                layer: "Dense",
                params: 10,
                max_error: 1e-3,
                error_bound: 2e-3,
                quant_bytes: 36,
                f32_bytes: 128,
            },
            QuantLayerReport {
                layer: "Conv2d",
                params: 20,
                max_error: 5e-4,
                error_bound: 1e-3,
                quant_bytes: 72,
                f32_bytes: 256,
            },
        ];
        assert!(reports.iter().all(|r| r.within_bound()));
        let s = QuantReportSummary::from_reports(&reports);
        assert_eq!(s.layers, 2);
        assert_eq!(s.params, 30);
        assert!((s.max_error - 1e-3).abs() < 1e-12);
        assert!(s.within_bound());
        assert!(s.compression() > 3.0);
    }
}
