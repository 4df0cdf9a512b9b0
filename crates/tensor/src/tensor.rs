//! Dense, row-major `f32` matrices.
//!
//! The whole reproduction operates on rank-2 tensors `[rows, cols]`; sequences
//! and batches are handled by the layers above (e.g. an LSTM steps over a
//! `Vec<Tensor>`). Keeping the substrate to rank 2 keeps every kernel simple,
//! cache-friendly, and easy to verify, which matters more here than
//! generality: all of the paper's modules (MLP extractors, LSTM encoders,
//! attention pooling, energy heads) are expressible as matrix programs.
//!
//! # Storage
//!
//! A tensor's buffer is either *owned* (a plain `Vec<f32>`, drawn from the
//! per-thread [`crate::pool`] so hot-path results reuse retired capacity) or
//! *shared* (an `Arc<Vec<f32>>`). Shared storage is how parameter leaves
//! avoid the full-tensor clone per forward pass: the `ParamStore` keeps its
//! values shared, so bringing a parameter onto a tape is one refcount bump.
//! Mutation is copy-on-write — `data_mut` on an aliased shared buffer
//! copies first — which preserves the old snapshot-at-`param()` semantics
//! exactly: nodes already on a tape never observe later optimizer updates.

use crate::kernels::{self, Kernel};
use crate::pool;
use crate::rng::Rng;
use std::fmt;
use std::sync::Arc;

#[derive(Debug)]
enum Storage {
    Owned(Vec<f32>),
    Shared(Arc<Vec<f32>>),
}

impl Storage {
    #[inline]
    fn as_slice(&self) -> &[f32] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(a) => a,
        }
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        match self {
            // Deep copy through the pool so hot-path clones reuse retired
            // buffers instead of hitting the allocator.
            Storage::Owned(v) => Storage::Owned(pool::alloc_copy(v)),
            // Refcount bump — this is the allocation-free parameter-leaf
            // path.
            Storage::Shared(a) => Storage::Shared(Arc::clone(a)),
        }
    }
}

/// A dense row-major matrix of `f32` values.
#[derive(Clone)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.data.as_slice() == other.data.as_slice()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data.as_slice())?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor from raw row-major data. Panics if the element count
    /// does not match `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, pool::alloc_zeroed(rows * cols))
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let n = rows * cols;
        let mut data = pool::alloc_empty(n);
        data.resize(n, value);
        Self::from_vec(rows, cols, data)
    }

    /// I.i.d. normal entries.
    pub fn randn(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut Rng) -> Self {
        Self::from_vec(rows, cols, rng.normal_vec(rows * cols, mean, std))
    }

    /// A `1 x n` row vector.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// A `n x 1` column vector.
    pub fn col(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// A scalar wrapped as a `1 x 1` tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the buffer. Copy-on-write: an aliased shared buffer
    /// is copied first, so mutation never leaks into other holders.
    pub fn data_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared(a) => Arc::make_mut(a).as_mut_slice(),
        }
    }

    pub fn into_vec(self) -> Vec<f32> {
        match self.data {
            Storage::Owned(v) => v,
            Storage::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| a.as_ref().clone()),
        }
    }

    /// Converts the buffer to shared (`Arc`-backed) storage, making
    /// subsequent clones refcount bumps. The `ParamStore` keeps every value
    /// in this form so parameter leaves are borrowed, not copied.
    pub fn into_shared(self) -> Self {
        match self.data {
            Storage::Owned(v) => Self {
                rows: self.rows,
                cols: self.cols,
                data: Storage::Shared(Arc::new(v)),
            },
            Storage::Shared(_) => self,
        }
    }

    /// True when the buffer is `Arc`-shared (cheap to clone).
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared(_))
    }

    /// Retires this tensor's buffer into the calling thread's
    /// [`pool`] so the next kernel allocation can reuse it. Shared buffers
    /// with other live holders are simply released.
    pub fn recycle(self) {
        match self.data {
            Storage::Owned(v) => pool::recycle_vec(v),
            Storage::Shared(a) => {
                if let Ok(v) = Arc::try_unwrap(a) {
                    pool::recycle_vec(v);
                }
            }
        }
    }

    /// Element access with bounds checks in debug builds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data.as_slice()[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.cols + c;
        self.data_mut()[idx] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let (start, end) = (r * self.cols, (r + 1) * self.cols);
        &mut self.data_mut()[start..end]
    }

    /// The single value of a `1 x 1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar {self:?}");
        self.data.as_slice()[0]
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let src = self.data.as_slice();
        let mut out = pool::alloc_empty(src.len());
        out.extend(src.iter().map(|&x| f(x)));
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// Elementwise zip-map against another same-shape tensor.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other, "zip_map");
        let a = self.data.as_slice();
        let b = other.data.as_slice();
        let mut out = pool::alloc_empty(a.len());
        out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)));
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// In-place scaled accumulate: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        let b = other.data.as_slice();
        for (a, &b) in self.data_mut().iter_mut().zip(b) {
            *a += alpha * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| alpha * x)
    }

    /// Matrix product `self[n,k] * other[k,m] -> [n,m]`.
    ///
    /// Dispatches to the active GEMM microkernel (see [`crate::kernels`]):
    /// explicit AVX2 when available, the classic autovectorized ikj loop
    /// otherwise. Every kernel honors the same contract: each output
    /// element accumulates its k-terms in ascending order, skipping terms
    /// whose `self` factor is exactly zero, with separate mul and add
    /// roundings — shared with [`Tensor::matmul_nt`] /
    /// [`Tensor::matmul_tn`] and pinned by the golden-regression gate.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with(other, kernels::active_kernel())
    }

    /// As [`Tensor::matmul`] but forcing a specific kernel family,
    /// bypassing the process-wide dispatch (kernel-equivalence tests and
    /// the micro-bench).
    pub fn matmul_with(&self, other: &Tensor, kernel: Kernel) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dims {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = pool::alloc_zeroed(n * m);
        kernels::gemm_nn(
            kernel,
            self.data.as_slice(),
            other.data.as_slice(),
            &mut out,
            n,
            k,
            m,
        );
        Tensor::from_vec(n, m, out)
    }

    /// Product with a transposed right operand:
    /// `self[n,k] * other[m,k]ᵀ -> [n,m]`, bit-identical to
    /// `self.matmul(&other.transpose())` without recording a transpose on
    /// the tape or allocating a transposed tensor.
    ///
    /// The kernel packs `other`ᵀ into a pooled scratch buffer and then
    /// runs the same NN microkernel as [`Tensor::matmul`]. The dot-product
    /// formulation (row of `self` · row of `other`) avoids the pack but
    /// serializes the f32 reduction — the accumulation-order contract
    /// forbids reassociating it, so it cannot vectorize; re-measured on
    /// the PR-8 batched shapes it runs ~4-6x slower than the pack+NN
    /// path on the gate-projection shapes at batch 8, ~7-10x at batch
    /// 64, and ~1.2x on the skinny rollout shape where packing buys
    /// little (`results/KERNELS_1.txt`, `nt_dot` rows). Packing costs O(k·m)
    /// against the O(n·k·m) product and the scratch comes from (and
    /// returns to) the thread pool, so the hot path stays allocation-free.
    /// Per output element the k-terms accumulate ascending with the same
    /// zero-skip on the `self` factor as [`Tensor::matmul`], matching the
    /// naive composition flop for flop.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.matmul_nt_with(other, kernels::active_kernel())
    }

    /// As [`Tensor::matmul_nt`] but forcing a specific kernel family.
    pub fn matmul_nt_with(&self, other: &Tensor, kernel: Kernel) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: inner dims {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let a_data = self.data.as_slice();
        let b_data = other.data.as_slice();
        let mut out = pool::alloc_zeroed(n * m);
        if k > 0 && m > 0 {
            let mut bt = pool::alloc_zeroed(k * m);
            for (j, b_row) in b_data.chunks_exact(k).enumerate() {
                for (p, &v) in b_row.iter().enumerate() {
                    bt[p * m + j] = v;
                }
            }
            kernels::gemm_nn(kernel, a_data, &bt, &mut out, n, k, m);
            pool::recycle_vec(bt);
        }
        Tensor::from_vec(n, m, out)
    }

    /// Transpose-free product with a transposed left operand:
    /// `self[k,n]ᵀ * other[k,m] -> [n,m]`, bit-identical to
    /// `self.transpose().matmul(other)` without materializing the
    /// transpose.
    ///
    /// The scalar kernel streams the shared dimension in the outer loop
    /// (row `p` of `self` and `other` both read contiguously, each output
    /// row accumulating an axpy); the SIMD kernel register-blocks output
    /// rows and reads `self` down its columns. Either way the per-element
    /// k-order is ascending with the zero-skip on the `self` factor —
    /// identical to the naive composition, term for term.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.matmul_tn_with(other, kernels::active_kernel())
    }

    /// As [`Tensor::matmul_tn`] but forcing a specific kernel family.
    pub fn matmul_tn_with(&self, other: &Tensor, kernel: Kernel) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: inner dims ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = pool::alloc_zeroed(n * m);
        kernels::gemm_tn(
            kernel,
            self.data.as_slice(),
            other.data.as_slice(),
            &mut out,
            k,
            n,
            m,
        );
        Tensor::from_vec(n, m, out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let src = self.data.as_slice();
        let mut out = pool::alloc_zeroed(src.len());
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = src[r * self.cols + c];
            }
        }
        Tensor::from_vec(self.cols, self.rows, out)
    }

    /// Adds a `1 x cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "broadcast source must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let bias = row.data.as_slice();
        let mut out = pool::alloc_copy(self.data.as_slice());
        for chunk in out.chunks_mut(self.cols.max(1)) {
            for (o, &b) in chunk.iter_mut().zip(bias) {
                *o += b;
            }
        }
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.as_slice().iter().sum()
    }

    /// Mean of all elements. Zero for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise mean: `[n, m] -> [1, m]`.
    pub fn mean_rows(&self) -> Tensor {
        assert!(self.rows > 0, "mean_rows on empty tensor");
        let mut out = pool::alloc_zeroed(self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row_slice(r)) {
                *o += x;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for o in &mut out {
            *o *= inv;
        }
        Tensor::from_vec(1, self.cols, out)
    }

    /// Column-wise sum: `[n, m] -> [1, m]`.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = pool::alloc_zeroed(self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row_slice(r)) {
                *o += x;
            }
        }
        Tensor::from_vec(1, self.cols, out)
    }

    /// Squared Frobenius norm.
    pub fn frob_sq(&self) -> f32 {
        self.data.as_slice().iter().map(|&x| x * x).sum()
    }

    /// Horizontal concatenation of column blocks with equal row counts.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "concat_cols: row mismatch"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = pool::alloc_empty(rows * cols);
        for r in 0..rows {
            for p in parts {
                out.extend_from_slice(p.row_slice(r));
            }
        }
        Tensor::from_vec(rows, cols, out)
    }

    /// Vertical concatenation of row blocks with equal column counts.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "concat_rows: col mismatch"
        );
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut out = pool::alloc_empty(rows * cols);
        for p in parts {
            out.extend_from_slice(p.data.as_slice());
        }
        Tensor::from_vec(rows, cols, out)
    }

    /// Column slice `[.., start..end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let w = end - start;
        let mut out = pool::alloc_empty(self.rows * w);
        for r in 0..self.rows {
            out.extend_from_slice(&self.row_slice(r)[start..end]);
        }
        Tensor::from_vec(self.rows, w, out)
    }

    /// Row gather: `out[i] = self[indices[i]]`.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = pool::alloc_empty(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "gather_rows index {i} >= {}", self.rows);
            out.extend_from_slice(self.row_slice(i));
        }
        Tensor::from_vec(indices.len(), self.cols, out)
    }

    /// Repeats a `1 x m` row `n` times.
    pub fn broadcast_rows(&self, n: usize) -> Tensor {
        assert_eq!(self.rows, 1, "broadcast_rows needs a row vector");
        let mut out = pool::alloc_empty(n * self.cols);
        for _ in 0..n {
            out.extend_from_slice(self.data.as_slice());
        }
        Tensor::from_vec(n, self.cols, out)
    }

    /// Reinterprets the row-major buffer under a new shape with the same
    /// element count — a view-style copy, no data movement beyond the copy.
    pub fn reshape(&self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(
            rows * cols,
            self.len(),
            "reshape {rows}x{cols} must conserve {} elements",
            self.len()
        );
        Tensor::from_vec(rows, cols, pool::alloc_copy(self.data.as_slice()))
    }

    /// Sums each consecutive group of `k` rows: `[g*k, m] -> [g, m]`.
    /// Rows within a group accumulate in row order, matching what a
    /// per-group `sum_rows` would produce.
    pub fn sum_row_groups(&self, k: usize) -> Tensor {
        assert!(k > 0, "sum_row_groups needs k > 0");
        assert_eq!(
            self.rows % k,
            0,
            "sum_row_groups: {} rows not divisible by group size {k}",
            self.rows
        );
        let groups = self.rows / k;
        let mut out = pool::alloc_zeroed(groups * self.cols);
        for g in 0..groups {
            let orow = &mut out[g * self.cols..(g + 1) * self.cols];
            for r in g * k..(g + 1) * k {
                for (o, &x) in orow.iter_mut().zip(self.row_slice(r)) {
                    *o += x;
                }
            }
        }
        Tensor::from_vec(groups, self.cols, out)
    }

    /// Repeats every row `k` times consecutively: `[g, m] -> [g*k, m]` —
    /// the adjoint data movement of [`Tensor::sum_row_groups`].
    pub fn repeat_rows_each(&self, k: usize) -> Tensor {
        assert!(k > 0, "repeat_rows_each needs k > 0");
        let mut out = pool::alloc_empty(self.rows * k * self.cols);
        for r in 0..self.rows {
            for _ in 0..k {
                out.extend_from_slice(self.row_slice(r));
            }
        }
        Tensor::from_vec(self.rows * k, self.cols, out)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = pool::alloc_copy(self.data.as_slice());
        for row in out.chunks_mut(self.cols.max(1)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// Largest absolute entry (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.as_slice().iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn reshape_preserves_row_major_order() {
        let x = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = x.reshape(3, 2);
        assert_eq!(y.shape(), (3, 2));
        assert_eq!(y.data(), x.data());
        assert_eq!(y.at(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn reshape_rejects_element_count_change() {
        t(2, 3, &[0.0; 6]).reshape(2, 2);
    }

    #[test]
    fn sum_row_groups_sums_consecutive_rows() {
        let x = t(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let y = x.sum_row_groups(2);
        assert_eq!(y.shape(), (2, 2));
        assert_eq!(y.data(), &[4.0, 6.0, 12.0, 14.0]);
        // k == rows degenerates to sum_rows.
        assert_eq!(x.sum_row_groups(4).data(), x.sum_rows().data());
    }

    #[test]
    fn repeat_rows_each_is_sum_row_groups_adjoint_movement() {
        let x = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let y = x.repeat_rows_each(3);
        assert_eq!(y.shape(), (6, 2));
        assert_eq!(y.row_slice(0), y.row_slice(2));
        assert_eq!(y.row_slice(3), &[3.0, 4.0]);
    }

    #[test]
    fn constructors_and_shape() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);
        assert_eq!(Tensor::ones(2, 2).sum(), 4.0);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
        assert_eq!(Tensor::row(&[1.0, 2.0]).shape(), (1, 2));
        assert_eq!(Tensor::col(&[1.0, 2.0]).shape(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.add(&b).data(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).data(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).data(), &[5.0, 12.0, 21.0, 32.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = t(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_nt_matches_transpose_compose_bitwise() {
        let mut rng = Rng::seed_from(11);
        for &(n, k, m) in &[(1, 1, 1), (2, 3, 4), (7, 5, 9), (4, 130, 70), (3, 8, 150)] {
            let mut a = Tensor::randn(n, k, 0.0, 1.0, &mut rng);
            let b = Tensor::randn(m, k, 0.0, 1.0, &mut rng);
            // Plant exact zeros so the zero-skip path is exercised.
            a.data_mut()[0] = 0.0;
            let fused = a.matmul_nt(&b);
            let naive = a.matmul(&b.transpose());
            assert_eq!(fused.shape(), (n, m));
            let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&naive), "shape ({n},{k},{m})");
        }
    }

    #[test]
    fn matmul_tn_matches_transpose_compose_bitwise() {
        let mut rng = Rng::seed_from(12);
        for &(k, n, m) in &[(1, 1, 1), (3, 2, 4), (5, 7, 9), (130, 4, 70), (8, 3, 150)] {
            let mut a = Tensor::randn(k, n, 0.0, 1.0, &mut rng);
            let b = Tensor::randn(k, m, 0.0, 1.0, &mut rng);
            a.data_mut()[0] = 0.0;
            let fused = a.matmul_tn(&b);
            let naive = a.transpose().matmul(&b);
            assert_eq!(fused.shape(), (n, m));
            let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&naive), "shape ({k},{n},{m})");
        }
    }

    #[test]
    fn matmul_nt_tn_empty_shapes() {
        assert_eq!(
            Tensor::zeros(0, 3).matmul_nt(&Tensor::zeros(4, 3)).shape(),
            (0, 4)
        );
        assert_eq!(
            Tensor::zeros(3, 0).matmul_tn(&Tensor::zeros(3, 4)).shape(),
            (0, 4)
        );
        assert_eq!(
            Tensor::zeros(2, 0).matmul_nt(&Tensor::zeros(5, 0)).shape(),
            (2, 5)
        );
    }

    #[test]
    fn shared_storage_clones_are_refcount_bumps() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]).into_shared();
        assert!(a.is_shared());
        let b = a.clone();
        assert!(b.is_shared());
        // Same underlying buffer.
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn shared_storage_mutation_is_copy_on_write() {
        let a = t(1, 3, &[1.0, 2.0, 3.0]).into_shared();
        let mut b = a.clone();
        b.data_mut()[0] = 99.0;
        assert_eq!(a.data(), &[1.0, 2.0, 3.0], "CoW leaked into the alias");
        assert_eq!(b.data(), &[99.0, 2.0, 3.0]);
    }

    #[test]
    fn shared_and_owned_tensors_compare_by_value() {
        let owned = t(2, 1, &[5.0, 6.0]);
        let shared = owned.clone().into_shared();
        assert_eq!(owned, shared);
        assert_eq!(shared.into_vec(), vec![5.0, 6.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at.at(0, 1), 4.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn broadcast_bias() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::row(&[10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.mean_rows().data(), &[2.0, 3.0]);
        assert_eq!(a.sum_rows().data(), &[4.0, 6.0]);
        assert_eq!(a.frob_sq(), 30.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn concat_and_slice() {
        let a = t(2, 1, &[1.0, 2.0]);
        let b = t(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
        assert_eq!(c.slice_cols(0, 1), a);
        assert_eq!(c.slice_cols(1, 3), b);

        let d = Tensor::concat_rows(&[&a, &a]);
        assert_eq!(d.shape(), (4, 1));
        assert_eq!(d.data(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn gather_and_broadcast_rows() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let r = Tensor::row(&[7.0, 8.0]).broadcast_rows(3);
        assert_eq!(r.shape(), (3, 2));
        assert_eq!(r.row_slice(2), &[7.0, 8.0]);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large-value row must not overflow to NaN.
        assert!(s.all_finite());
        assert!((s.at(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(1, 3, &[1.0, 1.0, 1.0]);
        let b = t(1, 3, &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn one_by_one_matmul_is_scalar_product() {
        let a = Tensor::scalar(3.0);
        let b = Tensor::scalar(-2.0);
        assert_eq!(a.matmul(&b).item(), -6.0);
    }

    #[test]
    fn empty_slice_cols_is_zero_width() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.slice_cols(1, 1);
        assert_eq!(s.shape(), (2, 0));
        assert!(s.is_empty());
    }

    #[test]
    fn gather_rows_empty_index_list() {
        let a = t(3, 2, &[1.0; 6]);
        let g = a.gather_rows(&[]);
        assert_eq!(g.shape(), (0, 2));
    }

    #[test]
    fn concat_single_part_is_identity() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(Tensor::concat_cols(&[&a]), a);
        assert_eq!(Tensor::concat_rows(&[&a]), a);
    }

    #[test]
    fn mean_of_empty_is_zero_and_max_abs_zero() {
        let e = Tensor::zeros(0, 3);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max_abs(), 0.0);
        assert!(e.all_finite());
    }

    #[test]
    fn matmul_with_zero_rows() {
        let a = Tensor::zeros(0, 3);
        let b = Tensor::zeros(3, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
    }

    #[test]
    fn recycled_buffers_are_reused_by_kernels() {
        // Warm the thread pool with a retired buffer, then check a kernel
        // allocation reports a reuse hit (thread-local stats, so this test
        // is isolated from the rest of the suite).
        let before = pool::thread_stats();
        Tensor::zeros(8, 8).recycle();
        let z = Tensor::zeros(8, 8);
        assert_eq!(z.sum(), 0.0);
        let after = pool::thread_stats();
        assert!(
            after.reuse_hits > before.reuse_hits,
            "kernel did not reuse the retired buffer"
        );
    }

    #[test]
    fn randn_is_seed_deterministic() {
        let mut r1 = Rng::seed_from(4);
        let mut r2 = Rng::seed_from(4);
        assert_eq!(
            Tensor::randn(3, 3, 0.0, 1.0, &mut r1),
            Tensor::randn(3, 3, 0.0, 1.0, &mut r2)
        );
    }
}
