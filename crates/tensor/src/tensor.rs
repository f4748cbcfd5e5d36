//! The [`Tensor`] type: a contiguous, row-major `f32` n-dimensional array.
//!
//! The operation set is intentionally small — exactly what the layers in
//! [`crate::layers`] and the AppealNet training loop need — but each
//! operation is implemented carefully and tested (including property tests).

use crate::error::TensorError;
use crate::rng::SeededRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// # Example
///
/// ```
/// use appeal_tensor::Tensor;
///
/// # fn main() -> Result<(), appeal_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor of standard-normal samples.
    pub fn randn(shape: &[usize], rng: &mut SeededRng) -> Self {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| rng.normal(0.0, 1.0)).collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor of uniform samples on `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn rand_uniform(shape: &[usize], low: f32, high: f32, rng: &mut SeededRng) -> Self {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| rng.uniform(low, high)).collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Returns a view of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the underlying data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a 2-D index `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.rank(), 2, "at2 requires a rank-2 tensor");
        self.data[row * self.shape[1] + col]
    }

    /// Sets the element at a 2-D index `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    pub fn set2(&mut self, row: usize, col: usize, value: f32) {
        assert_eq!(self.rank(), 2, "set2 requires a rank-2 tensor");
        let cols = self.shape[1];
        self.data[row * cols + col] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Returns the transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Returns the `i`-th row of a rank-2 tensor as a new rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Self {
        assert_eq!(self.rank(), 2, "row requires a rank-2 tensor");
        let c = self.shape[1];
        Self {
            shape: vec![c],
            data: self.data[i * c..(i + 1) * c].to_vec(),
        }
    }

    /// Stacks rank-1 tensors of equal length into a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn stack_rows(rows: &[Tensor]) -> Self {
        assert!(!rows.is_empty(), "stack_rows requires at least one row");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * c);
        for r in rows {
            assert_eq!(r.len(), c, "all rows must have equal length");
            data.extend_from_slice(r.data());
        }
        Self {
            shape: vec![rows.len(), c],
            data,
        }
    }

    /// Selects a subset of rows of a rank-2 (or higher, treated as `[n, rest]`) tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or the tensor is rank 0.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        assert!(self.rank() >= 1, "select_rows requires rank >= 1");
        let n = self.shape[0];
        let row_len: usize = self.shape[1..].iter().product::<usize>().max(1);
        let mut data = Vec::with_capacity(indices.len() * row_len);
        for &i in indices {
            assert!(i < n, "row index {i} out of bounds for {n} rows");
            data.extend_from_slice(&self.data[i * row_len..(i + 1) * row_len]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Self { shape, data }
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise addition (the residual-add primitive), on the vectorized
    /// elementwise kernel.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op requires equal shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
        let mut data = vec![0.0f32; self.data.len()];
        crate::kernels::elementwise::add(&self.data, &other.data, &mut data);
        Self {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise combination with an arbitrary function.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op requires equal shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
        Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `other * alpha` into `self` in place (vectorized axpy; one
    /// multiply and one add per element, like the scalar loop it replaced).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_inplace shape mismatch");
        crate::kernels::elementwise::axpy(alpha, &other.data, &mut self.data);
    }

    /// Multiplies every element by a scalar, returning a new tensor
    /// (vectorized).
    pub fn scale(&self, alpha: f32) -> Self {
        let mut data = vec![0.0f32; self.data.len()];
        crate::kernels::elementwise::scale(&self.data, alpha, &mut data);
        Self {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Fills the tensor with a constant value.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element of a rank-1 tensor (ties broken by first occurrence).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Per-row argmax of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a rank-2 tensor");
        (0..self.shape[0]).map(|i| self.row(i).argmax()).collect()
    }

    /// Squared L2 norm of the tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Sum over rows of a rank-2 tensor, producing a rank-1 tensor of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Self {
        assert_eq!(self.rank(), 2, "sum_rows requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; c];
        for i in 0..r {
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.data[i * c + j];
            }
        }
        Self {
            shape: vec![c],
            data: out,
        }
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Runs on [`crate::kernels::gemm_into`] (the register-tiled kernel every
    /// convolution runs on, over packed panels of `self`), on the calling
    /// thread.
    /// Results are bit-identical to the original naive `i-k-j` loop: every
    /// output element accumulates its products in ascending inner-dimension
    /// order regardless of blocking.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Self {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        crate::kernels::with_thread_scratch(|scratch| {
            crate::kernels::gemm_into(
                m,
                k,
                n,
                &self.data,
                &other.data,
                crate::kernels::GemmInit::Zero,
                &mut out,
                &mut scratch.packs,
            );
        });
        Self {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Fused `self x other + bias` (bias broadcast over rows): bit-identical
    /// to [`Tensor::matmul`] followed by [`Tensor::add_row_broadcast`], but
    /// allocates no intermediate tensor (the bias pass runs in place over
    /// the GEMM output). This is the dense-layer forward primitive.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches (same contract as the unfused pair).
    pub fn matmul_bias(&self, other: &Tensor, bias: &Tensor) -> Self {
        assert_eq!(self.rank(), 2, "matmul_bias lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_bias rhs must be rank 2");
        assert_eq!(bias.rank(), 1, "matmul_bias bias must be rank 1");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_bias inner dimensions differ: {k} vs {k2}");
        assert_eq!(bias.len(), n, "bias length must equal number of columns");
        let mut out = vec![0.0f32; m * n];
        crate::kernels::with_thread_scratch(|scratch| {
            crate::kernels::gemm_bias_cols(
                m,
                k,
                n,
                &self.data,
                &other.data,
                &bias.data,
                &mut out,
                &mut scratch.packs,
            );
        });
        Self {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Adds a rank-1 bias of length `cols` to every row of a rank-2 tensor
    /// (vectorized column broadcast).
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Self {
        assert_eq!(self.rank(), 2, "add_row_broadcast requires rank-2 input");
        assert_eq!(bias.rank(), 1, "bias must be rank 1");
        let c = self.shape[1];
        assert_eq!(bias.len(), c, "bias length must equal number of columns");
        let mut out = self.clone();
        if c > 0 {
            crate::kernels::elementwise::bias_add_rows(&mut out.data, &bias.data);
        }
        out
    }

    // ------------------------------------------------------------------
    // Numerics helpers
    // ------------------------------------------------------------------

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference between two tensors of equal shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ..., {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_shapes() {
        assert_eq!(Tensor::zeros(&[2, 3]).len(), 6);
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2, 2], 3.0).mean(), 3.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
    }

    #[test]
    fn from_vec_rejects_bad_lengths() {
        let err = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeDataMismatch { .. }));
    }

    #[test]
    fn reshape_preserves_data_and_rejects_mismatch() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn matmul_against_hand_computed_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[5, 5], &mut rng);
        let i = Tensor::eye(5);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_panics_on_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_bias_matches_unfused_pair_bitwise() {
        let mut rng = SeededRng::new(11);
        for &(m, k, n) in &[(1usize, 3usize, 4usize), (5, 17, 9), (33, 64, 65)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let bias = Tensor::randn(&[n], &mut rng);
            let fused = a.matmul_bias(&b, &bias);
            let unfused = a.matmul(&b).add_row_broadcast(&bias);
            assert_eq!(fused.shape(), unfused.shape());
            for (x, y) in fused.data().iter().zip(unfused.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut rng = SeededRng::new(4);
        let a = Tensor::randn(&[3, 7], &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_scaled_inplace_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.add_scaled_inplace(&b, 0.5);
        a.add_scaled_inplace(&b, 0.5);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[2, 2]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.argmax_rows(), vec![0, 0]);
        assert_eq!(t.sum_rows().data(), &[4.0, -2.0]);
        assert_eq!(t.norm_sq(), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn rows_and_selection() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]).unwrap();
        assert_eq!(t.row(2).data(), &[6.0, 7.0, 8.0]);
        let sel = t.select_rows(&[3, 0]);
        assert_eq!(sel.shape(), &[2, 3]);
        assert_eq!(sel.data(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn stack_rows_roundtrip() {
        let rows = vec![
            Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(),
            Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap(),
        ];
        let m = Tensor::stack_rows(&rows);
        assert_eq!(m.shape(), &[2, 2]);
        assert_eq!(m.row(1).data(), &[3.0, 4.0]);
    }

    #[test]
    fn add_row_broadcast() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.row(0).data(), &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(1).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn finiteness_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.5, 1.0], &[2]).unwrap();
        assert!(a.all_finite());
        assert_eq!(a.max_abs_diff(&b), 1.0);
        let nan = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(!nan.all_finite());
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let small = Tensor::zeros(&[2]);
        let large = Tensor::zeros(&[100]);
        assert!(!format!("{small:?}").is_empty());
        assert!(format!("{large:?}").contains("100 elems"));
    }

    #[test]
    fn tensor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}

#[cfg(test)]
mod proptests {
    //! Property tests over seeded random inputs.
    //!
    //! Originally written with `proptest`; rewritten as deterministic
    //! seeded-case loops because this build environment is offline. Each test
    //! checks the same algebraic property over many random shapes/values.

    use super::*;

    /// Yields `cases` random small matrices as `(rows, cols, data)`.
    fn small_matrices(cases: usize) -> impl Iterator<Item = (usize, usize, Vec<f32>)> {
        let mut rng = SeededRng::new(0x5eed_cafe);
        (0..cases).map(move |_| {
            let r = 1 + rng.below(5);
            let c = 1 + rng.below(5);
            let data: Vec<f32> = (0..r * c).map(|_| rng.uniform(-10.0, 10.0)).collect();
            (r, c, data)
        })
    }

    #[test]
    fn transpose_is_involution() {
        for (r, c, data) in small_matrices(64) {
            let t = Tensor::from_vec(data, &[r, c]).unwrap();
            assert_eq!(t.transpose().transpose(), t);
        }
    }

    #[test]
    fn matmul_identity_right() {
        for (r, c, data) in small_matrices(64) {
            let t = Tensor::from_vec(data, &[r, c]).unwrap();
            let prod = t.matmul(&Tensor::eye(c));
            assert!(prod.max_abs_diff(&t) < 1e-5);
        }
    }

    #[test]
    fn add_commutes() {
        let mut rng = SeededRng::new(42);
        for (r, c, data) in small_matrices(64) {
            let a = Tensor::from_vec(data, &[r, c]).unwrap();
            let b = Tensor::randn(&[r, c], &mut rng);
            assert!(a.add(&b).max_abs_diff(&b.add(&a)) < 1e-6);
        }
    }

    #[test]
    fn scale_distributes_over_add() {
        let mut rng = SeededRng::new(43);
        for (r, c, data) in small_matrices(64) {
            let alpha = rng.uniform(-3.0, 3.0);
            let a = Tensor::from_vec(data.clone(), &[r, c]).unwrap();
            let b = Tensor::from_vec(data.iter().map(|x| x * 0.5).collect(), &[r, c]).unwrap();
            let lhs = a.add(&b).scale(alpha);
            let rhs = a.scale(alpha).add(&b.scale(alpha));
            assert!(lhs.max_abs_diff(&rhs) < 1e-4);
        }
    }

    #[test]
    fn sum_rows_matches_total() {
        for (r, c, data) in small_matrices(64) {
            let t = Tensor::from_vec(data, &[r, c]).unwrap();
            let by_rows = t.sum_rows().sum();
            assert!((by_rows - t.sum()).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_is_associative_on_small_squares() {
        for seed in 0u64..32 {
            let mut rng = SeededRng::new(seed);
            let n = 1 + rng.below(3);
            let a = Tensor::randn(&[n, n], &mut rng);
            let b = Tensor::randn(&[n, n], &mut rng);
            let c = Tensor::randn(&[n, n], &mut rng);
            let lhs = a.matmul(&b).matmul(&c);
            let rhs = a.matmul(&b.matmul(&c));
            assert!(lhs.max_abs_diff(&rhs) < 1e-3);
        }
    }
}
