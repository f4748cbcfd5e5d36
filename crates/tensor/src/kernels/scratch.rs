//! Reusable scratch buffers for the compute kernels.
//!
//! Every GEMM call needs packing panels and every convolution needs a
//! zero-padded copy of its input (and, on the backward path, its gradient's
//! panels and columns). Allocating those per call would put a heap
//! allocation on the serving engine's per-request hot path, so kernels draw
//! them from a [`KernelScratch`] arena instead: each buffer grows to its
//! high-water mark once and is reused (dirty) afterwards. Callers are
//! responsible for fully overwriting the slice they request — every kernel
//! in this module does.
//!
//! Arenas live per thread ([`with_thread_scratch`]): kernels run on the
//! thread that calls them, and long-lived threads — the serving engine's
//! caller, the training loop, every persistent batch-shard worker — retain
//! their arenas for the life of the process, so high-water buffers survive
//! across calls.
//!
//! # Ownership rules
//!
//! The rules that keep this sound and allocation-free, in one place:
//!
//! 1. **Layers and models own no scratch.** [`GrowBuf`]'s `Clone` yields a
//!    fresh empty buffer, so replicating a model onto a pool worker never
//!    copies (or aliases) high-water storage — the replica warms up the
//!    *worker's* arena instead.
//! 2. **A borrowed slice never outlives its closure.** [`GrowBuf::take`]
//!    hands out a `&mut` slice tied to the arena borrow inside
//!    [`with_thread_scratch`]; nothing can stash it.
//! 3. **Buffers are dirty by contract.** `take` returns whatever the
//!    previous user wrote; every kernel fully overwrites the region it
//!    reads. (This is why there is no `clear` — zeroing would put a
//!    memset on the hot path for no semantic gain.)
//! 4. **Packed weights and window tables are not scratch.** A convolution's
//!    output-channel-lane weight panels (of its `f32` weights, or of its
//!    integer Q8 weights once quantized), a quantized dense layer's Q8
//!    panels and a convolution's window table (all in `kernels/window.rs`)
//!    are derived state owned by the layer, not an arena: they are cloned
//!    with it, the f32 panels rebuilt only after the layer's parameters were
//!    handed out mutably (a train forward packs for its own call and keeps
//!    nothing), the Q8 panels only by `quantize_weights()`, the table only
//!    when the input shape changes. What the table *indexes* — the padded
//!    image, and its quantized twin — is scratch ([`KernelScratch::xpad`],
//!    [`QuantScratch::quantized`]), and so is everything a bare GEMM packs
//!    per call: lane panels of its A, and the Q8 panels
//!    [`crate::kernels::quant_gemm_into`] makes of its `QuantMatrix`.
//!
//! Growth and reuse events — and floats packed into weight panels, and
//! window tables built — are counted in process-wide atomics (see [`stats`])
//! so tests can assert that a steady-state serving loop performs zero
//! scratch allocations, packs no weights and builds no table
//! (`tests/hot_path_allocations.rs`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Times any scratch buffer had to allocate or grow its backing storage.
static SCRATCH_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Times a scratch buffer was handed out without touching the allocator.
static SCRATCH_REUSES: AtomicU64 = AtomicU64::new(0);
/// Lanes written into packed weight panels (`kernels/window.rs`).
static WEIGHT_FLOATS_PACKED: AtomicU64 = AtomicU64::new(0);
/// Convolution window tables built (`kernels/window.rs`).
static WINDOW_TABLES_BUILT: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process-wide scratch counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Cumulative buffer allocations / growths since process start.
    pub allocs: u64,
    /// Cumulative allocation-free buffer reuses since process start.
    pub reuses: u64,
    /// Cumulative `f32` lanes written into layers' weight panels
    /// (`kernels/window.rs`: a convolution's panels of its `f32` weights, a
    /// quantized convolution's or dense layer's panels of its integer Q8
    /// weights; padding lanes included) since process start. Layers pack on
    /// their first eval forward and again only after their parameters were
    /// handed out mutably — the Q8 panels in `quantize_weights()` and
    /// nowhere else — so a steady-state serving loop must not increase this;
    /// a train forward packs once per call. Panels a bare GEMM packs into
    /// scratch are not counted.
    pub weight_floats_packed: u64,
    /// Cumulative convolution window tables built since process start. A
    /// conv layer builds one on its first forward and again only when its
    /// input shape changes, so a steady-state serving loop must not increase
    /// this either.
    pub window_tables_built: u64,
}

/// Reads the process-wide scratch counters.
///
/// Subtract two snapshots to measure a region of interest: a steady-state
/// serving loop must increase `reuses` without increasing `allocs`.
pub fn stats() -> ScratchStats {
    ScratchStats {
        allocs: SCRATCH_ALLOCS.load(Ordering::Relaxed),
        reuses: SCRATCH_REUSES.load(Ordering::Relaxed),
        weight_floats_packed: WEIGHT_FLOATS_PACKED.load(Ordering::Relaxed),
        window_tables_built: WINDOW_TABLES_BUILT.load(Ordering::Relaxed),
    }
}

/// Records `floats` values packed into a weight panel.
pub(crate) fn count_weight_floats_packed(floats: usize) {
    WEIGHT_FLOATS_PACKED.fetch_add(floats as u64, Ordering::Relaxed);
}

/// Records one convolution window table built.
pub(crate) fn count_window_table_built() {
    WINDOW_TABLES_BUILT.fetch_add(1, Ordering::Relaxed);
}

/// A grow-only buffer with high-water-mark reuse: `f32` by default, `u32`
/// for a GEMM's window table. Every element type bumps the same process-wide
/// counters.
///
/// [`GrowBuf::take`] returns a slice of the requested length, growing the
/// backing storage only when the request exceeds everything seen before.
/// The returned slice is *dirty* (it holds whatever the previous user wrote);
/// callers must overwrite every element they read.
pub struct GrowBuf<T = f32> {
    buf: Vec<T>,
}

impl<T> GrowBuf<T> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Current capacity (high-water mark) in elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }
}

impl<T: Copy + Default> GrowBuf<T> {
    /// Returns a dirty `&mut [T]` of exactly `len` elements, growing the
    /// backing storage if needed and bumping the process-wide counters.
    pub fn take(&mut self, len: usize) -> &mut [T] {
        if self.buf.len() < len {
            SCRATCH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            self.buf.resize(len, T::default());
        } else {
            SCRATCH_REUSES.fetch_add(1, Ordering::Relaxed);
        }
        &mut self.buf[..len]
    }
}

impl<T> Default for GrowBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for GrowBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GrowBuf(capacity={})", self.buf.len())
    }
}

/// Cloning a scratch buffer yields a fresh empty one: scratch contents are
/// transient per call, so replicating a layer onto a worker thread must not
/// copy (or share) its high-water buffers.
impl<T> Clone for GrowBuf<T> {
    fn clone(&self) -> Self {
        Self::new()
    }
}

/// Arenas of the Q8_0 tier — every quantized convolution, per sample or in
/// lane groups, and every quantized GEMM ([`crate::kernels::quant_gemm`]).
/// The tier runs on the `f32` tiles, so every buffer is `f32` but the
/// table: the activations quantized to integer-valued `f32`, their scales,
/// one Q8 block's dots, and for [`crate::kernels::quant_gemm_into`] its
/// weights packed per call and its transposed product.
#[derive(Debug, Default, Clone)]
pub struct QuantScratch {
    /// Activations quantized to integer-valued `f32`: a padded image
    /// `[c, h + 2p, w + 2p]` or GEMM operand `[m, k]` under one calibrated
    /// scale; every receptive field `[oh * ow][c*k*k]` or GEMM row `[m][k]`
    /// under its own. In a lane group the same with every element a vector
    /// of sixteen samples.
    pub quantized: GrowBuf,
    /// One receptive field gathered through the window table, on its way to
    /// its own dynamic scale.
    pub(crate) row: GrowBuf,
    /// The activation scales, one per output position or GEMM row. In a
    /// lane group: `oc` zero seeds, then the scales `[oh * ow][16]`.
    pub(crate) scales: GrowBuf,
    /// The window table of rows laid out one after another: `taps[p] = p`,
    /// then `offs[i] = i * k` (a GEMM) or `offs[s] = s * c*k*k` (receptive
    /// fields under dynamic scales).
    pub(crate) table: GrowBuf<u32>,
    /// One Q8 block's dots past the first, `[oc][oh * ow]` (`[oc][oh *
    /// ow][16]` in a lane group, `[n][m]` in a GEMM).
    pub(crate) dots: GrowBuf,
    /// A quantized GEMM's `[n, m]` result, on its way to the `[m, n]`
    /// output.
    pub(crate) product: GrowBuf,
    /// A quantized GEMM's weights packed per call: their integer weights,
    /// panels and block scales (`kernels/window.rs`, `Q8Weights`' layout).
    pub(crate) panels: GrowBuf,
}

impl QuantScratch {
    /// Creates an empty quantized-path scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What the tile kernel needs beside its operands (see
/// [`crate::kernels::gemm`]).
#[derive(Debug, Default, Clone)]
pub struct PackScratch {
    /// A GEMM's A operand (or a convolution's output gradient) as lane
    /// panels, `[16-row block][k][16]`.
    pub a: GrowBuf,
    /// A GEMM's window table over B: `taps[p] = p * n`, then `offs[j] = j`.
    pub(crate) table: GrowBuf<u32>,
}

impl PackScratch {
    /// Creates an empty packing scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The full scratch arena a kernel-lowered pass draws from between calls.
///
/// Conv layers use `xpad` for the zero-padded input their window table
/// indexes (and `grad_pad` for its gradient twin in the backward passes);
/// the depthwise forward accumulates over `grid`, the Q8 forwards (conv and
/// dense) quantize into `quant`. `grad_cols` (the column-space input gradient) and
/// `weight_t` (the filters' transpose as lane panels) serve
/// `Conv2d::backward` alone; `packs` serves it and every GEMM. Arenas are
/// retained per thread (see [`with_thread_scratch`]) — layers and model
/// replicas carry no scratch of their own, so replicating a model onto a
/// persistent pool worker automatically shares that worker's warmed-up
/// buffers.
#[derive(Debug, Default, Clone)]
pub struct KernelScratch {
    /// Zero-padded input image, `[c, h + 2p, w + 2p]`.
    pub xpad: GrowBuf,
    /// Zero-padded input-gradient image, `[c, h + 2p, w + 2p]`.
    pub grad_pad: GrowBuf,
    /// One depthwise channel's accumulators over the stride-1 grid of window
    /// origins, `[(oh - 1) * stride * (w + 2p) + (ow - 1) * stride + 1]`.
    pub(crate) grid: GrowBuf,
    /// Column-space gradient, `[c*k*k, oh*ow]`.
    pub grad_cols: GrowBuf,
    /// The filters' transpose as lane panels, `[16-tap block][out_c][16]`,
    /// packed once per `Conv2d::backward` call.
    pub weight_t: GrowBuf,
    /// The tile kernel's panels and GEMM window table.
    pub packs: PackScratch,
    /// Q8_0 arenas (quantized activations and their scales, block dots, a
    /// quantized GEMM's panels, table and product).
    pub quant: QuantScratch,
}

impl KernelScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// A stack of arenas per thread: `with_thread_scratch` pops one (or
    /// creates the first), runs, and pushes it back. The stack depth is the
    /// maximum nesting ever seen on the thread (1 unless a caller nests).
    static THREAD_SCRATCH: RefCell<Vec<KernelScratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a [`KernelScratch`] arena retained by the current thread.
///
/// Used by scratch-less entry points ([`crate::Tensor::matmul`] and
/// friends) and by the conv layers, so repeated calls on one thread reuse
/// buffers. Batch-shard workers are **persistent** pool threads, so sharded
/// evaluation reuses each worker's arenas across calls too.
///
/// Reentrant: a nested call gets a second arena from the thread's stack
/// rather than panicking on a `RefCell` double borrow.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    let mut arena = THREAD_SCRATCH
        .with(|s| s.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut arena);
    THREAD_SCRATCH.with(|s| s.borrow_mut().push(arena));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_buf_reuses_after_high_water() {
        fn check<T: Copy + Default>() {
            let before = stats();
            let mut buf = GrowBuf::<T>::new();
            assert_eq!(buf.take(64).len(), 64);
            let _ = buf.take(16);
            let _ = buf.take(64);
            let after = stats();
            // Other tests bump the same process-wide counters in parallel,
            // so they bound from below; "only the first take allocates" is
            // the buffer's own capacity never moving past the first request.
            assert!(after.allocs > before.allocs);
            assert!(after.reuses >= before.reuses + 2);
            assert_eq!(buf.capacity(), 64);
            assert_eq!(buf.clone().capacity(), 0, "clone must be fresh");
        }
        check::<f32>();
        check::<i8>();
    }

    #[test]
    fn clone_is_fresh_and_empty() {
        let mut buf: GrowBuf = GrowBuf::new();
        let _ = buf.take(128);
        let clone = buf.clone();
        assert_eq!(clone.capacity(), 0);
    }

    #[test]
    fn thread_scratch_is_reentrant_across_calls() {
        let cap = with_thread_scratch(|s| {
            let _ = s.grad_cols.take(32);
            s.grad_cols.capacity()
        });
        assert!(cap >= 32);
        let cap2 = with_thread_scratch(|s| s.grad_cols.capacity());
        assert!(cap2 >= 32, "thread scratch persists between calls");
    }

    #[test]
    fn thread_scratch_supports_nested_use() {
        // A nested call gets a second arena rather than panicking on a
        // RefCell double borrow.
        with_thread_scratch(|outer| {
            let _ = outer.grad_cols.take(16);
            with_thread_scratch(|inner| {
                let _ = inner.grad_cols.take(16);
            });
        });
    }
}
