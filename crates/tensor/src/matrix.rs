//! Row-major dense `f32` matrix with the kernels required by recurrent
//! neural networks.
//!
//! The matrix is deliberately minimal: a shape plus a `Vec<f32>`. All hot
//! kernels (matmul, element-wise zips) operate on slices with explicit
//! indexing so the compiler can vectorise them.
//!
//! Every product has exactly one kernel, and every kernel is serial and
//! writes into a caller-owned buffer: [`matmul_rows_into`] (`A·B`, with
//! [`Matrix::matmul_into`] its `Matrix` face),
//! [`Matrix::matmul_transpose_into`] (`A·Bᵀ`) and
//! [`Matrix::transpose_matmul_into`] (`Aᵀ·B`). Parallelism lives a level
//! up, across batches, buckets and directions (see [`crate::parallel`]
//! and the "Threading model" section in `DESIGN.md`), never inside a
//! kernel. The unit tests check each against a naive triple-loop oracle.

use crate::simd;
use serde::{Deserialize, Serialize};
use std::fmt;
use t2vec_obs as obs;

/// Output columns per cache block: the active `KC×NC` B-panel
/// (`256·1024·4 B = 1 MiB`) stays resident in a typical L2.
const NC: usize = 1024;

/// Inner-dimension depth per cache block.
const KC: usize = 256;

/// Output rows per tile in the dot-product kernel; an `MC×KC` A-tile is
/// 64 KiB, so each B-row fetched serves 64 output rows.
const MC: usize = 64;

/// Counts one `m×k · k×n` product's call and multiply-add volume
/// (`tensor.matmul.{calls,macs}`) and the SIMD backend it ran on. Values
/// only ever flow to obs sinks — see the determinism invariant in
/// `t2vec-obs`.
fn record_matmul(m: usize, k: usize, n: usize) {
    obs::counter!("tensor.matmul.calls").incr();
    obs::counter!("tensor.matmul.macs").add((m as u64) * (k as u64) * (n as u64));
    simd::record_dispatch();
}

/// Dot product through the [`crate::simd`] layer: the fixed
/// 32-accumulator reduction tree, bitwise-identical on every backend
/// (and to the scalar reference when `T2VEC_SIMD=off`).
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter slice governs.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    simd::dot_f32(a, b)
}

/// `out[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]` — four fused
/// `axpy` updates in one pass, quartering the read/write traffic on
/// `out` versus four separate rank-1 updates. Dispatches through
/// [`crate::simd`]; element-wise, so every backend reproduces the scalar
/// left-to-right sum bitwise.
#[inline]
fn axpy4(out: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    simd::axpy4_f32(out, a, b0, b1, b2, b3);
}

/// `out[j] += a · b[j]` — remainder step for depths not divisible by 4.
#[inline]
fn axpy1(out: &mut [f32], a: f32, b: &[f32]) {
    simd::axpy_f32(out, a, b);
}

/// One depth-block microkernel pass for a single output row: `kw` steps
/// of `a_row` applied to `out_row` in ascending-`k` quads, against the
/// `jw`-wide B column block at `(pc, jc)`.
#[inline]
fn row_pass(
    a_row: &[f32],
    out_row: &mut [f32],
    b: &[f32],
    pc: usize,
    jc: usize,
    jw: usize,
    n: usize,
) {
    let kw = a_row.len();
    let mut kk = 0;
    while kk + 4 <= kw {
        let bb = (pc + kk) * n + jc;
        axpy4(
            out_row,
            [a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]],
            &b[bb..bb + jw],
            &b[bb + n..bb + n + jw],
            &b[bb + 2 * n..bb + 2 * n + jw],
            &b[bb + 3 * n..bb + 3 * n + jw],
        );
        kk += 4;
    }
    while kk < kw {
        let bb = (pc + kk) * n + jc;
        axpy1(out_row, a_row[kk], &b[bb..bb + jw]);
        kk += 1;
    }
}

/// [`row_pass`] over two output rows at once, sharing every B fetch
/// through [`simd::axpy4x2_f32`] (register-blocking over output rows —
/// halves the B traffic that bounds the single-row kernel). Each row's
/// per-element accumulation order is exactly [`row_pass`]'s, so pairing
/// never changes a bit of either row.
#[inline]
#[allow(clippy::too_many_arguments)]
fn row_pair_pass(
    a_row0: &[f32],
    a_row1: &[f32],
    out_row0: &mut [f32],
    out_row1: &mut [f32],
    b: &[f32],
    pc: usize,
    jc: usize,
    jw: usize,
    n: usize,
) {
    let kw = a_row0.len();
    let mut kk = 0;
    while kk + 4 <= kw {
        let bb = (pc + kk) * n + jc;
        simd::axpy4x2_f32(
            out_row0,
            out_row1,
            [a_row0[kk], a_row0[kk + 1], a_row0[kk + 2], a_row0[kk + 3]],
            [a_row1[kk], a_row1[kk + 1], a_row1[kk + 2], a_row1[kk + 3]],
            &b[bb..bb + jw],
            &b[bb + n..bb + n + jw],
            &b[bb + 2 * n..bb + 2 * n + jw],
            &b[bb + 3 * n..bb + 3 * n + jw],
        );
        kk += 4;
    }
    while kk < kw {
        let bb = (pc + kk) * n + jc;
        axpy1(out_row0, a_row0[kk], &b[bb..bb + jw]);
        axpy1(out_row1, a_row1[kk], &b[bb..bb + jw]);
        kk += 1;
    }
}

/// [`row_pair_pass`] over four output rows: each B fetch feeds four
/// accumulations and each out row is touched once per quad pass (see
/// [`simd::axpy4x4_f32`]). Bitwise-identical to four [`row_pass`]es for
/// the same reason pairing is: per-row operation order never changes.
#[inline]
#[allow(clippy::too_many_arguments)]
fn row_quad_pass(
    a_rows: [&[f32]; 4],
    out0: &mut [f32],
    out1: &mut [f32],
    out2: &mut [f32],
    out3: &mut [f32],
    b: &[f32],
    pc: usize,
    jc: usize,
    jw: usize,
    n: usize,
) {
    let kw = a_rows[0].len();
    let mut kk = 0;
    while kk + 4 <= kw {
        let bb = (pc + kk) * n + jc;
        let coeff = |r: usize| {
            [
                a_rows[r][kk],
                a_rows[r][kk + 1],
                a_rows[r][kk + 2],
                a_rows[r][kk + 3],
            ]
        };
        simd::axpy4x4_f32(
            out0,
            out1,
            out2,
            out3,
            [coeff(0), coeff(1), coeff(2), coeff(3)],
            &b[bb..bb + jw],
            &b[bb + n..bb + n + jw],
            &b[bb + 2 * n..bb + 2 * n + jw],
            &b[bb + 3 * n..bb + 3 * n + jw],
        );
        kk += 4;
    }
    while kk < kw {
        let bb = (pc + kk) * n + jc;
        axpy1(out0, a_rows[0][kk], &b[bb..bb + jw]);
        axpy1(out1, a_rows[1][kk], &b[bb..bb + jw]);
        axpy1(out2, a_rows[2][kk], &b[bb..bb + jw]);
        axpy1(out3, a_rows[3][kk], &b[bb..bb + jw]);
        kk += 1;
    }
}

/// `a (m×k) · b (k×n) -> out (m×n)` over row-major slices, `m` being
/// however many `k`-wide rows `a` holds — so a caller can multiply any
/// row range of a larger buffer without copying it into a [`Matrix`].
///
/// Loop nest: `KC`-deep depth blocks, `NC`-wide column blocks so the
/// active B-panel stays in L2, and a fused-`axpy` microkernel over the
/// output rows, which go in register-blocked quads so each B fetch feeds
/// four accumulations (leftovers take the pair then single-row passes).
/// Every output element accumulates `pc` ascending then `kk` ascending,
/// and a row's sequence does not depend on which rows ride along (quad,
/// pair and single-row passes apply the same per-row sequence), so
/// multiplying many rows in one call gives each row the bytes it would
/// get alone: the property the layer-major inference engine, the fused
/// trainer, the beam decoder and the GOLDEN regression gate rely on.
///
/// Serial and allocation-free: callers parallelise across batches,
/// buckets and directions, and spawning workers here would allocate
/// (breaking the steady-state zero-alloc guarantee).
///
/// # Panics
/// Panics if `a` is not a whole number of `b.rows()`-wide rows or `out`
/// does not hold exactly `m × b.cols()` elements.
pub fn matmul_rows_into(a: &[f32], b: &Matrix, out: &mut [f32]) {
    let (k, n) = (b.rows, b.cols);
    // With no inner dimension the product is all zeros and only `out`
    // says how many rows of them.
    let m = a
        .len()
        .checked_div(k)
        .unwrap_or_else(|| out.len() / n.max(1));
    assert_eq!(a.len(), m * k, "matmul_rows_into: A is not m×{k}");
    assert_eq!(out.len(), m * n, "matmul_rows_into: output must be {m}x{n}");
    record_matmul(m, k, n);
    out.fill(0.0);
    let b = &b.data;
    for pc in (0..k).step_by(KC) {
        let kw = KC.min(k - pc);
        for jc in (0..n).step_by(NC) {
            let jw = NC.min(n - jc);
            let mut i = 0;
            while i + 4 <= m {
                let quad = &mut out[i * n..(i + 4) * n];
                let (s0, rest) = quad.split_at_mut(n);
                let (s1, rest) = rest.split_at_mut(n);
                let (s2, s3) = rest.split_at_mut(n);
                row_quad_pass(
                    [
                        &a[i * k + pc..i * k + pc + kw],
                        &a[(i + 1) * k + pc..(i + 1) * k + pc + kw],
                        &a[(i + 2) * k + pc..(i + 2) * k + pc + kw],
                        &a[(i + 3) * k + pc..(i + 3) * k + pc + kw],
                    ],
                    &mut s0[jc..jc + jw],
                    &mut s1[jc..jc + jw],
                    &mut s2[jc..jc + jw],
                    &mut s3[jc..jc + jw],
                    b,
                    pc,
                    jc,
                    jw,
                    n,
                );
                i += 4;
            }
            while i + 2 <= m {
                let (head, tail) = out.split_at_mut((i + 1) * n);
                row_pair_pass(
                    &a[i * k + pc..i * k + pc + kw],
                    &a[(i + 1) * k + pc..(i + 1) * k + pc + kw],
                    &mut head[i * n + jc..i * n + jc + jw],
                    &mut tail[jc..jc + jw],
                    b,
                    pc,
                    jc,
                    jw,
                    n,
                );
                i += 2;
            }
            if i < m {
                let a_row = &a[i * k + pc..i * k + pc + kw];
                let out_row = &mut out[i * n + jc..i * n + jc + jw];
                row_pass(a_row, out_row, b, pc, jc, jw, n);
            }
        }
    }
}

/// A dense row-major `f32` matrix.
///
/// Shapes are `(rows, cols)`. A row vector is `(1, n)`, a column vector is
/// `(n, 1)`, and a scalar result (e.g. a loss) is `(1, 1)`. The default
/// is the empty `0 × 0` matrix.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{})", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `(1, n)` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// A `(1, 1)` scalar matrix.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// The scalar value of a `(1, 1)` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1x1`.
    pub fn item(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "item() requires a 1x1 matrix"
        );
        self.data[0]
    }

    /// `self (m×k) · other (k×n) -> (m×n)` written into `out`: the
    /// `Matrix` face of [`matmul_rows_into`], which it wraps.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `(m×n)`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_into shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n) = (self.rows, other.cols);
        assert_eq!(out.shape(), (m, n), "matmul_into output must be {m}x{n}");
        matmul_rows_into(&self.data, other, &mut out.data);
    }

    /// `self (m×k) · otherᵀ (n×k) -> (m×n)` written into `out`, without
    /// materialising the transpose (the vocabulary logits `h·W_outᵀ` of
    /// the fused trainer and the decoders).
    ///
    /// Each output element is one dot product of two contiguous rows
    /// (fixed 32-accumulator reduction tree in [`dot`]), so it never
    /// depends on which rows ride along; A-rows are tiled in `MC`-high
    /// blocks so each B-row loads once per tile rather than once per
    /// output row. Serial, zero-allocation.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `(m×n)`.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_into shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!(
            out.shape(),
            (m, n),
            "matmul_transpose_into output must be {m}x{n}"
        );
        record_matmul(m, k, n);
        let (a, b) = (&self.data, &other.data);
        for ic in (0..m).step_by(MC) {
            let ie = (ic + MC).min(m);
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                for i in ic..ie {
                    out.data[i * n + j] = dot(&a[i * k..(i + 1) * k], b_row);
                }
            }
        }
    }

    /// `selfᵀ (k×m) · other (k×n) -> (m×n)` written into `out`, without
    /// materialising the transpose (weight gradients `xᵀ·dy`, e.g. the
    /// fused trainer's per-step dense-loss `dZᵀ·h`).
    ///
    /// `NC`-wide column blocks keep the active output tile and B-slab
    /// cache-resident; within a block, `MC`-high row tiles consume the
    /// depth in ascending-`kk` quads through the fused-`axpy`
    /// microkernel, so each element's reduction order is fixed by the
    /// loop nest alone. Serial, zero-allocation.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `(m×n)`.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul_into shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        assert_eq!(
            out.shape(),
            (m, n),
            "transpose_matmul_into output must be {m}x{n}"
        );
        record_matmul(m, k, n);
        out.data.fill(0.0);
        let (a, b) = (&self.data, &other.data);
        for jc in (0..n).step_by(NC) {
            let jw = NC.min(n - jc);
            for ic in (0..m).step_by(MC) {
                let ie = (ic + MC).min(m);
                let mut kk = 0;
                while kk + 4 <= k {
                    for i in ic..ie {
                        let aq = [
                            a[kk * m + i],
                            a[(kk + 1) * m + i],
                            a[(kk + 2) * m + i],
                            a[(kk + 3) * m + i],
                        ];
                        axpy4(
                            &mut out.data[i * n + jc..i * n + jc + jw],
                            aq,
                            &b[kk * n + jc..kk * n + jc + jw],
                            &b[(kk + 1) * n + jc..(kk + 1) * n + jc + jw],
                            &b[(kk + 2) * n + jc..(kk + 2) * n + jc + jw],
                            &b[(kk + 3) * n + jc..(kk + 3) * n + jc + jw],
                        );
                    }
                    kk += 4;
                }
                while kk < k {
                    for i in ic..ie {
                        let out_row = &mut out.data[i * n + jc..i * n + jc + jw];
                        axpy1(out_row, a[kk * m + i], &b[kk * n + jc..kk * n + jc + jw]);
                    }
                    kk += 1;
                }
            }
        }
    }

    /// Sum over rows into `out`, a `(1, cols)` row vector, accumulating
    /// row by row.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "sum_rows_into output must be 1x{}",
            self.cols
        );
        out.data.fill(0.0);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
    }

    /// Row-wise softmax into `out` (same shape), numerically stabilised
    /// by max subtraction; the `exp` is [`simd::exp_f32`].
    pub fn softmax_rows_into(&self, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "softmax_rows_into shape");
        out.data.copy_from_slice(&self.data);
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for v in row.iter_mut() {
                *v -= max;
            }
            simd::exp_f32(row);
            let mut sum = 0.0;
            for &v in row.iter() {
                sum += v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Row-wise log-softmax into `out` (same shape); the `exp` is
    /// [`simd::exp_f32`], run on `out`'s row before it is overwritten.
    pub fn log_softmax_rows_into(&self, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "log_softmax_rows_into shape");
        for r in 0..out.rows {
            let (src, row) = (self.row(r), out.row_mut(r));
            let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for (o, &v) in row.iter_mut().zip(src) {
                *o = v - max;
            }
            simd::exp_f32(row);
            let log_sum = row.iter().copied().sum::<f32>().ln() + max;
            for (o, &v) in row.iter_mut().zip(src) {
                *o = v - log_sum;
            }
        }
    }

    /// Re-shapes the buffer to `(rows, cols)` **without zeroing** —
    /// element contents are unspecified (a mix of stale values and
    /// zero-fill). Backs [`crate::workspace::Workspace::take_scratch`]
    /// for buffers that are fully overwritten before being read.
    pub fn reshape_scratch(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.data.len() > n {
            self.data.truncate(n);
        } else {
            self.data.resize(n, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// The backing buffer's capacity in elements (for arena accounting).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum; shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference; shapes must match.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Adds the `(1, cols)` row vector `bias` to every row.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise zip into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += s * other` (axpy; shapes must match).
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Stacks the given rows of `self` (an embedding gather).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "gather index {idx} out of range {}",
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Horizontally concatenates `self` and `other` (same row count).
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertically stacks matrices (all with identical column counts).
    ///
    /// # Panics
    /// Panics if `mats` is empty or the column counts differ.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack of nothing");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack col mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Maximum absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape() && a.max_abs_diff(b) <= tol
    }

    /// `a · b` through [`Matrix::matmul_into`] into a NaN-filled output
    /// (stale contents must not leak).
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::full(a.rows, b.cols, f32::NAN);
        a.matmul_into(b, &mut out);
        out
    }

    /// `a · bᵀ` through [`Matrix::matmul_transpose_into`]; see [`matmul`].
    fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::full(a.rows, b.rows, f32::NAN);
        a.matmul_transpose_into(b, &mut out);
        out
    }

    /// `aᵀ · b` through [`Matrix::transpose_matmul_into`]; see [`matmul`].
    fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::full(a.cols, b.cols, f32::NAN);
        a.transpose_matmul_into(b, &mut out);
        out
    }

    fn softmax_rows(a: &Matrix) -> Matrix {
        let mut out = Matrix::full(a.rows, a.cols, f32::NAN);
        a.softmax_rows_into(&mut out);
        out
    }

    fn log_softmax_rows(a: &Matrix) -> Matrix {
        let mut out = Matrix::full(a.rows, a.cols, f32::NAN);
        a.log_softmax_rows_into(&mut out);
        out
    }

    /// Reference `a · b` — the unblocked triple loop the blocked
    /// [`matmul_rows_into`] is validated against.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "matmul shape mismatch");
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &a.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &x) in a_row.iter().enumerate() {
                let b_row = &b.data[kk * n..(kk + 1) * n];
                for (o, &y) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// Reference `a · bᵀ`; see [`matmul_naive`].
    fn matmul_transpose_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols, "matmul_transpose shape mismatch");
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &a.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Reference `aᵀ · b`; see [`matmul_naive`].
    fn transpose_matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows, "transpose_matmul shape mismatch");
        let (k, m, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let a_row = &a.data[kk * m..(kk + 1) * m];
            let b_row = &b.data[kk * n..(kk + 1) * n];
            for (i, &x) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &y) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += x * y;
                }
            }
        }
        out
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.25 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.1).sin()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
    }

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::full(2, 2, 7.0);
        assert_eq!(f.sum(), 28.0);
    }

    #[test]
    fn matmul_small_example() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 3.5], &[0.0, 4.0, -1.0]]);
        let i = Matrix::identity(3);
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    #[should_panic(expected = "matmul_into shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_bias() {
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y, Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]));
    }

    #[test]
    fn gather_rows_stacks_rows() {
        let table = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let g = table.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[1.0, 0.0]);
        assert_eq!(g.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // monotone: larger logit -> larger probability
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let x = Matrix::from_rows(&[&[0.3, -1.2, 2.0, 0.0]]);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for c in 0..4 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_extreme_values_stay_finite() {
        let x = Matrix::from_rows(&[&[1e30, -1e30, 0.0]]);
        let s = softmax_rows(&x);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((s.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concat_cols_places_blocks_side_by_side() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c, Matrix::from_rows(&[&[1.0, 2.0, 5.0], &[3.0, 4.0, 6.0]]));
    }

    #[test]
    fn vstack_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn sum_rows_and_mean() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut s = Matrix::full(1, 2, f32::NAN);
        a.sum_rows_into(&mut s);
        assert_eq!(s, Matrix::row_vector(&[4.0, 6.0]));
        assert!((a.mean() - 2.5).abs() < 1e-7);
    }

    #[test]
    fn norm_of_unit_vectors() {
        let a = Matrix::row_vector(&[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert_eq!(Matrix::zeros(3, 3).norm(), 0.0);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Matrix::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic(expected = "item() requires")]
    fn item_on_non_scalar_panics() {
        let _ = Matrix::zeros(2, 2).item();
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[&[1.5, -2.25], &[0.0, 3.0]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    /// The blocked kernels must reproduce the naive reference on a shape
    /// that crosses every block boundary: `m > MC`, `k > KC`, `n > NC`.
    #[test]
    fn blocked_kernels_match_naive_across_block_boundaries() {
        let mut rng = crate::rng::det_rng(42);
        let (m, k, n) = (MC + 3, KC + 3, NC + 3);
        let a = crate::init::uniform(m, k, 1.0, &mut rng);
        let b = crate::init::uniform(k, n, 1.0, &mut rng);
        assert!(approx_eq(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-4));
        let bt = b.transpose();
        assert!(approx_eq(
            &matmul_transpose(&a, &bt),
            &matmul_transpose_naive(&a, &bt),
            1e-4
        ));
        let at = a.transpose();
        assert!(approx_eq(
            &transpose_matmul(&at, &b),
            &transpose_matmul_naive(&at, &b),
            1e-4
        ));
    }

    proptest! {
        /// What the inference engine, the fused trainer and the beam
        /// decoder all rely on: through [`matmul_rows_into`], every row of
        /// an m-row product is bitwise the row multiplied alone — for m in
        /// 1..=9 (quads, pairs and the single tail), with `k` around `KC`
        /// and `n` around `NC`, into a NaN-filled output.
        #[test]
        fn matmul_rows_into_rows_are_bitwise_the_row_alone(
            m in 1usize..=9, dk in 0usize..9, dn in 0usize..9,
            seed in 0u64..1000
        ) {
            let (k, n) = (KC - 4 + dk, NC - 4 + dn);
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let b = crate::init::uniform(k, n, 1.0, &mut rng);
            let mut all = vec![f32::NAN; m * n];
            matmul_rows_into(a.as_slice(), &b, &mut all);
            let mut alone = vec![f32::NAN; n];
            for i in 0..m {
                matmul_rows_into(a.row(i), &b, &mut alone);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&all[i * n..(i + 1) * n]), bits(&alone), "row {}", i);
            }
        }

        #[test]
        fn blocked_matmul_matches_naive(
            m in 1usize..20, k in 1usize..40, n in 1usize..40,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let b = crate::init::uniform(k, n, 1.0, &mut rng);
            prop_assert!(approx_eq(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-4));
        }

        #[test]
        fn blocked_matmul_transpose_matches_naive(
            m in 1usize..20, k in 1usize..40, n in 1usize..40,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let b = crate::init::uniform(n, k, 1.0, &mut rng);
            prop_assert!(approx_eq(
                &matmul_transpose(&a, &b),
                &matmul_transpose_naive(&a, &b),
                1e-4
            ));
        }

        #[test]
        fn blocked_transpose_matmul_matches_naive(
            m in 1usize..20, k in 1usize..40, n in 1usize..40,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(k, m, 1.0, &mut rng);
            let b = crate::init::uniform(k, n, 1.0, &mut rng);
            prop_assert!(approx_eq(
                &transpose_matmul(&a, &b),
                &transpose_matmul_naive(&a, &b),
                1e-4
            ));
        }

        #[test]
        fn matmul_transpose_agrees_with_explicit(
            m in 1usize..6, k in 1usize..6, n in 1usize..6,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let b = crate::init::uniform(n, k, 1.0, &mut rng);
            let fused = matmul_transpose(&a, &b);
            let explicit = matmul(&a, &b.transpose());
            prop_assert!(approx_eq(&fused, &explicit, 1e-4));
        }

        #[test]
        fn transpose_matmul_agrees_with_explicit(
            m in 1usize..6, k in 1usize..6, n in 1usize..6,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(k, m, 1.0, &mut rng);
            let b = crate::init::uniform(k, n, 1.0, &mut rng);
            let fused = transpose_matmul(&a, &b);
            let explicit = matmul(&a.transpose(), &b);
            prop_assert!(approx_eq(&fused, &explicit, 1e-4));
        }

        #[test]
        fn matmul_distributes_over_add(
            m in 1usize..5, k in 1usize..5, n in 1usize..5,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let b = crate::init::uniform(k, n, 1.0, &mut rng);
            let c = crate::init::uniform(k, n, 1.0, &mut rng);
            let lhs = matmul(&a, &b.add(&c));
            let rhs = matmul(&a, &b).add(&matmul(&a, &c));
            prop_assert!(approx_eq(&lhs, &rhs, 1e-4));
        }

        #[test]
        fn add_commutes(seed in 0u64..1000, m in 1usize..6, n in 1usize..6) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, n, 1.0, &mut rng);
            let b = crate::init::uniform(m, n, 1.0, &mut rng);
            prop_assert!(approx_eq(&a.add(&b), &b.add(&a), 0.0));
        }
    }
}
