//! Row-major dense `f32` matrix with the kernels required by recurrent
//! neural networks.
//!
//! The matrix is deliberately minimal: a shape plus a `Vec<f32>`. All hot
//! kernels (matmul, element-wise zips) operate on slices with explicit
//! indexing so the compiler can vectorise them.
//!
//! The three matmul variants are cache-blocked and, above a size
//! threshold, parallel over output row-panels (see [`crate::parallel`]
//! and the "Threading model" section in `DESIGN.md`). The unit tests
//! check each against a naive triple-loop oracle.

use crate::parallel;
use crate::simd;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::time::Instant;
use t2vec_obs as obs;

/// Output columns per cache block: the active `KC×NC` B-panel
/// (`256·1024·4 B = 1 MiB`) stays resident in a typical L2.
const NC: usize = 1024;

/// Inner-dimension depth per cache block / packed A-panel.
const KC: usize = 256;

/// Output rows per tile in the dot-product kernel; an `MC×KC` A-tile is
/// 64 KiB, so each B-row fetched serves 64 output rows.
const MC: usize = 64;

/// Minimum multiply-add count (`m·k·n`) before a kernel fans out across
/// worker threads; below this, thread-spawn overhead dominates. At the
/// paper shape a direction's hidden size is 128, so a lone query's GRU
/// matmuls (`1×256 · 256×384` and `1×128 · 128×384`, under 0.1 M) stay
/// serial, while a training batch's layer-0 projection
/// (`32×256 · 256×384` ≈ 3.1 M) and its vocabulary projection
/// parallelise.
const PAR_THRESHOLD: usize = 1 << 21;

/// Throughput instrumentation for the three blocked matmul kernels:
/// counts every call's multiply-add volume, and times only the
/// parallel-eligible calls (≥ [`PAR_THRESHOLD`] MACs, hundreds of
/// microseconds each) so the per-token GRU-step multiplies don't pay
/// two clock reads per call. MACs/s for the large kernels is
/// `tensor.matmul.large_macs / (tensor.matmul.large_ns sum)`. Values
/// only ever flow to obs sinks — see the determinism invariant in
/// `t2vec-obs`.
struct MacsTimer {
    macs: u64,
    start: Option<Instant>,
}

impl MacsTimer {
    fn start(m: usize, k: usize, n: usize) -> MacsTimer {
        let macs = (m as u64) * (k as u64) * (n as u64);
        obs::counter!("tensor.matmul.calls").incr();
        obs::counter!("tensor.matmul.macs").add(macs);
        simd::record_dispatch();
        let start = (macs >= PAR_THRESHOLD as u64).then(Instant::now);
        MacsTimer { macs, start }
    }
}

impl Drop for MacsTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            obs::histogram!("tensor.matmul.large_ns").record_duration(t0.elapsed());
            obs::counter!("tensor.matmul.large_macs").add(self.macs);
        }
    }
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

/// Blocked `A·B` over the output rows in `rows`, writing into `panel`
/// (the row-major sub-buffer for exactly those rows).
///
/// Loop nest: pack the `rows×KC` A-slab once per depth block, then for
/// each `NC`-wide column block run the fused-`axpy` microkernel. For
/// every output element the accumulation order is `pc` ascending then
/// `kk` ascending — independent of how `rows` was partitioned across
/// workers, which is what makes the parallel kernel bit-deterministic.
fn matmul_panel(a: &[f32], b: &[f32], k: usize, n: usize, rows: Range<usize>, panel: &mut [f32]) {
    let height = rows.len();
    let mut a_pack = vec![0.0f32; height * KC.min(k.max(1))];
    for pc in (0..k).step_by(KC) {
        let kw = KC.min(k - pc);
        for (ri, i) in rows.clone().enumerate() {
            a_pack[ri * kw..(ri + 1) * kw].copy_from_slice(&a[i * k + pc..i * k + pc + kw]);
        }
        for jc in (0..n).step_by(NC) {
            let jw = NC.min(n - jc);
            // Output rows go in register-blocked quads so each B fetch
            // feeds four accumulations (see `row_quad_pass`); leftovers
            // take the pair then single-row kernels. Bitwise-equal
            // whichever path a row lands on.
            let mut ri = 0;
            while ri + 4 <= height {
                let quad = &mut panel[ri * n..(ri + 4) * n];
                let (s0, rest) = quad.split_at_mut(n);
                let (s1, rest) = rest.split_at_mut(n);
                let (s2, s3) = rest.split_at_mut(n);
                row_quad_pass(
                    [
                        &a_pack[ri * kw..(ri + 1) * kw],
                        &a_pack[(ri + 1) * kw..(ri + 2) * kw],
                        &a_pack[(ri + 2) * kw..(ri + 3) * kw],
                        &a_pack[(ri + 3) * kw..(ri + 4) * kw],
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
                ri += 4;
            }
            while ri + 2 <= height {
                let (head, tail) = panel.split_at_mut((ri + 1) * n);
                row_pair_pass(
                    &a_pack[ri * kw..(ri + 1) * kw],
                    &a_pack[(ri + 1) * kw..(ri + 2) * kw],
                    &mut head[ri * n + jc..ri * n + jc + jw],
                    &mut tail[jc..jc + jw],
                    b,
                    pc,
                    jc,
                    jw,
                    n,
                );
                ri += 2;
            }
            if ri < height {
                let a_row = &a_pack[ri * kw..(ri + 1) * kw];
                let out_row = &mut panel[ri * n + jc..ri * n + jc + jw];
                row_pass(a_row, out_row, b, pc, jc, jw, n);
            }
        }
    }
}

/// `a (m×k) · b (k×n) -> out (m×n)` over row-major slices, `m` being
/// however many `k`-wide rows `a` holds — so a caller can multiply any
/// row range of a larger buffer without copying it into a [`Matrix`].
///
/// Runs the same `KC`-deep / `NC`-wide fused-`axpy` loop nest as
/// [`Matrix::matmul`], reading A rows in place instead of packing a
/// slab — the operand values and per-element reduction order are
/// unchanged, so the result is **bitwise identical** to `matmul`. A
/// row's accumulation order also does not depend on which rows ride
/// along (quad, pair and single-row passes apply the same per-row
/// sequence), so multiplying many rows in one call gives each row the
/// bytes it would get alone: the property the layer-major inference
/// engine and the GOLDEN regression gate rely on.
///
/// Always serial: the batched-inference caller parallelises across
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
    let _obs = MacsTimer::start(m, k, n);
    out.fill(0.0);
    let b = &b.data;
    for pc in (0..k).step_by(KC) {
        let kw = KC.min(k - pc);
        for jc in (0..n).step_by(NC) {
            let jw = NC.min(n - jc);
            // Row quads/pairs share B fetches exactly as in
            // `matmul_panel`.
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

/// Blocked `A·Bᵀ` over the output rows in `rows` (`b` is `n×k`
/// row-major, i.e. already transposed). Output rows are tiled `MC` high
/// so each contiguous B-row is fetched once per tile instead of once
/// per output row; each element is a single [`dot`] reduction, so the
/// result never depends on tiling or partitioning.
fn matmul_transpose_panel(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    panel: &mut [f32],
) {
    let r0 = rows.start;
    for ic in rows.clone().step_by(MC) {
        let ie = (ic + MC).min(rows.end);
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            for i in ic..ie {
                panel[(i - r0) * n + j] = dot(&a[i * k..(i + 1) * k], b_row);
            }
        }
    }
}

/// Blocked `Aᵀ·B` over the output rows in `rows` (`a` is `k×m`
/// row-major). Column blocks of `NC` keep the active output tile and
/// B-slab cache-resident; within a block the depth is consumed in
/// ascending `kk` quads via the fused-`axpy` microkernel, so each
/// element's reduction order is fixed regardless of partitioning.
fn transpose_matmul_panel(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    rows: Range<usize>,
    panel: &mut [f32],
) {
    let r0 = rows.start;
    for jc in (0..n).step_by(NC) {
        let jw = NC.min(n - jc);
        for ic in rows.clone().step_by(MC) {
            let ie = (ic + MC).min(rows.end);
            let mut kk = 0;
            while kk + 4 <= k {
                for i in ic..ie {
                    let aq = [
                        a[kk * m + i],
                        a[(kk + 1) * m + i],
                        a[(kk + 2) * m + i],
                        a[(kk + 3) * m + i],
                    ];
                    let out_row = &mut panel[(i - r0) * n + jc..(i - r0) * n + jc + jw];
                    axpy4(
                        out_row,
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
                    let out_row = &mut panel[(i - r0) * n + jc..(i - r0) * n + jc + jw];
                    axpy1(out_row, a[kk * m + i], &b[kk * n + jc..kk * n + jc + jw]);
                }
                kk += 1;
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

    /// Matrix multiplication `self (m×k) · other (k×n) -> (m×n)`.
    ///
    /// Cache-blocked: A-panels are packed per `KC`-deep slab, output
    /// columns are tiled in `NC`-wide blocks so the active B-panel stays
    /// in L2, and the inner microkernel fuses four `axpy` updates per
    /// pass over the output row. Above `PAR_THRESHOLD` multiply-adds
    /// the output rows fan out across [`crate::parallel`] workers;
    /// results are bit-identical for any worker count because each
    /// element's reduction order is fixed by the blocking alone.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let _obs = MacsTimer::start(m, k, n);
        let mut out = Matrix::zeros(m, n);
        let (a, b) = (&self.data, &other.data);
        let kernel = |rows: Range<usize>, panel: &mut [f32]| matmul_panel(a, b, k, n, rows, panel);
        if m * k * n >= PAR_THRESHOLD {
            parallel::par_row_panels(&mut out.data, m, n, kernel);
        } else {
            kernel(0..m, &mut out.data);
        }
        out
    }

    /// `self (m×k) · otherᵀ (n×k) -> (m×n)` without materialising the
    /// transpose.
    ///
    /// Each output element is one dot product of two contiguous rows
    /// (fixed 32-accumulator reduction tree in [`dot`]); A-rows are tiled in
    /// `MC`-high blocks so each B-row loads once per tile rather than
    /// once per output row. Parallelises over output row-panels above
    /// `PAR_THRESHOLD` multiply-adds.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let _obs = MacsTimer::start(m, k, n);
        let mut out = Matrix::zeros(m, n);
        let (a, b) = (&self.data, &other.data);
        let kernel =
            |rows: Range<usize>, panel: &mut [f32]| matmul_transpose_panel(a, b, k, n, rows, panel);
        if m * k * n >= PAR_THRESHOLD {
            parallel::par_row_panels(&mut out.data, m, n, kernel);
        } else {
            kernel(0..m, &mut out.data);
        }
        out
    }

    /// `selfᵀ (k×m) · other (k×n) -> (m×n)` without materialising the
    /// transpose (used for weight gradients: `xᵀ · dy`).
    ///
    /// Blocked like [`Matrix::matmul`] (NC-wide column tiles, MC-high
    /// output row tiles, four fused `axpy` updates per pass) and
    /// parallelised over output row-panels above `PAR_THRESHOLD`
    /// multiply-adds. Deterministic for any worker count.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let _obs = MacsTimer::start(m, k, n);
        let mut out = Matrix::zeros(m, n);
        let (a, b) = (&self.data, &other.data);
        let kernel = |rows: Range<usize>, panel: &mut [f32]| {
            transpose_matmul_panel(a, b, k, m, n, rows, panel)
        };
        if m * k * n >= PAR_THRESHOLD {
            parallel::par_row_panels(&mut out.data, m, n, kernel);
        } else {
            kernel(0..m, &mut out.data);
        }
        out
    }

    /// `self (m×k) · other (k×n) -> (m×n)` written into `out` — the
    /// zero-allocation kernel behind the prepacked inference path; see
    /// [`matmul_rows_into`], which it wraps.
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

    /// `self (m×k) · otherᵀ (n×k) -> (m×n)` written into `out`, with the
    /// **same per-element reduction as [`Matrix::matmul_transpose`]**:
    /// one 32-lane tree [`dot`] per element, `MC`-high row tiles.
    ///
    /// The allocating kernel's per-element order is independent of how
    /// rows were partitioned across workers, so this serial into-variant
    /// is **bitwise identical** to it at any thread count — what lets the
    /// fused trainer's dense-loss logits `h·W_outᵀ` reproduce the tape's.
    /// Always serial, zero-allocation.
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
        let _obs = MacsTimer::start(m, k, n);
        matmul_transpose_panel(&self.data, &other.data, k, n, 0..m, &mut out.data);
    }

    /// `selfᵀ (k×m) · other (k×n) -> (m×n)` written into `out` — the
    /// zero-allocation twin of [`Matrix::transpose_matmul`] (the fused
    /// trainer's per-step dense-loss `dZᵀ·h`).
    ///
    /// Runs the **same blocked axpy loop nest** (`NC`-wide column tiles,
    /// `MC`-high row tiles, ascending-`kk` quads) as the allocating
    /// kernel; since that nest fixes each element's reduction order
    /// independently of row partitioning, this serial variant is
    /// **bitwise identical** to `transpose_matmul` at any worker count.
    /// Always serial, zero-allocation.
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
        let _obs = MacsTimer::start(m, k, n);
        out.data.fill(0.0);
        transpose_matmul_panel(&self.data, &other.data, k, m, n, 0..m, &mut out.data);
    }

    /// [`Matrix::sum_rows`] written into `out` (a `(1, cols)` row
    /// vector). Same row-then-column accumulation order, so bitwise
    /// identical to the allocating version.
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

    /// [`Matrix::softmax_rows`] written into `out` (same shape). The
    /// allocating version clones and mutates in place; this copies into
    /// `out` and runs the identical per-row passes, so the result is
    /// bitwise the same.
    pub fn softmax_rows_into(&self, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "softmax_rows_into shape");
        out.data.copy_from_slice(&self.data);
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// [`Matrix::log_softmax_rows`] written into `out` (same shape);
    /// bitwise identical to the allocating version for the same reason
    /// as [`Matrix::softmax_rows_into`].
    pub fn log_softmax_rows_into(&self, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "log_softmax_rows_into shape");
        out.data.copy_from_slice(&self.data);
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
            for v in row.iter_mut() {
                *v -= log_sum;
            }
        }
    }

    /// `out = self + other` without allocating (shapes must all match).
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_into shape mismatch");
        assert_eq!(self.shape(), out.shape(), "add_into output shape mismatch");
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(other.data.iter())
        {
            *o = a + b;
        }
    }

    /// Re-shapes the buffer to `(rows, cols)` and zeroes every element,
    /// reusing the existing capacity when it suffices (the
    /// [`crate::workspace::Workspace`] arena's recycling primitive).
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
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

    /// Sum over rows producing a `(1, cols)` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Squared Euclidean distance between flattened matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sq_distance(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "sq_distance shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| {
                let d = a - b;
                d * d
            })
            .sum()
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

    /// Row-wise softmax (numerically stabilised by max subtraction).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
            for v in row.iter_mut() {
                *v -= log_sum;
            }
        }
        out
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
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

    /// Reference `a · b` — the unblocked, single-threaded triple loop
    /// the optimised [`Matrix::matmul`] is validated against.
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
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 3.5], &[0.0, 4.0, -1.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
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
        let s = x.softmax_rows();
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
        let ls = x.log_softmax_rows();
        let s = x.softmax_rows();
        for c in 0..4 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_extreme_values_stay_finite() {
        let x = Matrix::from_rows(&[&[1e30, -1e30, 0.0]]);
        let s = x.softmax_rows();
        assert!(!s.has_non_finite());
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
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
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

    /// Blocked/parallel kernels must reproduce the naive reference on
    /// sizes that cross block boundaries (`KC`, `NC`, `MC`) and the
    /// parallel threshold. 128³ multiply-adds is exactly
    /// `PAR_THRESHOLD`, so the parallel path is exercised.
    #[test]
    fn blocked_kernels_match_naive_above_parallel_threshold() {
        crate::parallel::set_threads(4);
        let mut rng = crate::rng::det_rng(42);
        let (m, k, n) = (128, 128, 128);
        assert!(m * k * n >= super::PAR_THRESHOLD);
        let a = crate::init::uniform(m, k, 1.0, &mut rng);
        let b = crate::init::uniform(k, n, 1.0, &mut rng);
        assert!(approx_eq(&a.matmul(&b), &matmul_naive(&a, &b), 1e-4));
        let bt = b.transpose();
        assert!(approx_eq(
            &a.matmul_transpose(&bt),
            &matmul_transpose_naive(&a, &bt),
            1e-4
        ));
        let at = a.transpose();
        assert!(approx_eq(
            &at.transpose_matmul(&b),
            &transpose_matmul_naive(&at, &b),
            1e-4
        ));
    }

    /// Row-panel partitioning keeps each element's reduction order
    /// fixed, so 1-thread and 4-thread runs must agree *bitwise*, not
    /// just within tolerance. This is what the data-parallel training
    /// equivalence test in `t2vec-core` relies on.
    #[test]
    fn kernels_bitwise_identical_across_thread_counts() {
        let mut rng = crate::rng::det_rng(7);
        let (m, k, n) = (160, 161, 96);
        assert!(m * k * n >= super::PAR_THRESHOLD);
        let a = crate::init::uniform(m, k, 1.0, &mut rng);
        let b = crate::init::uniform(k, n, 1.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        crate::parallel::set_threads(1);
        let serial = (
            a.matmul(&b),
            a.matmul_transpose(&bt),
            at.transpose_matmul(&b),
        );
        crate::parallel::set_threads(4);
        let parallel = (
            a.matmul(&b),
            a.matmul_transpose(&bt),
            at.transpose_matmul(&b),
        );
        assert_eq!(serial.0.as_slice(), parallel.0.as_slice());
        assert_eq!(serial.1.as_slice(), parallel.1.as_slice());
        assert_eq!(serial.2.as_slice(), parallel.2.as_slice());
    }

    /// Same bitwise contract for the in-place fused-axpy kernel the GRU
    /// step actually uses: identical to `matmul` across KC/NC/MC block
    /// boundaries, with stale output contents fully overwritten.
    #[test]
    fn matmul_into_bitwise_matches_matmul_across_blocks() {
        let mut rng = crate::rng::det_rng(13);
        for (m, k, n) in [(1, 513, 7), (70, 300, 9), (3, 256, 768), (2, 1, 1)] {
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let w = crate::init::uniform(k, n, 1.0, &mut rng);
            let mut out = Matrix::full(m, n, f32::NAN); // stale contents must not leak
            a.matmul_into(&w, &mut out);
            assert_eq!(out.as_slice(), a.matmul(&w).as_slice());
        }
    }

    /// The serial into-variants must be bitwise-equal to the allocating
    /// tape kernels, across KC/NC/MC block boundaries AND across thread
    /// counts (the tape kernels may fan out above the parallel
    /// threshold; the into-variants never do — equality at 4 threads is
    /// the partition-independence the fused trainer's dense-loss logits
    /// rely on to match the tape's loss).
    #[test]
    fn backward_into_kernels_bitwise_match_tape_kernels() {
        let mut rng = crate::rng::det_rng(17);
        for (m, k, n) in [(1, 513, 7), (70, 300, 9), (64, 768, 256), (160, 161, 96)] {
            let g = crate::init::uniform(m, k, 1.0, &mut rng);
            let w = crate::init::uniform(n, k, 1.0, &mut rng);
            let x = crate::init::uniform(k, m, 1.0, &mut rng);
            let y = crate::init::uniform(k, n, 1.0, &mut rng);
            let mut da = Matrix::full(m, n, f32::NAN); // stale contents must not leak
            let mut dw = Matrix::full(m, n, f32::NAN);
            g.matmul_transpose_into(&w, &mut da);
            x.transpose_matmul_into(&y, &mut dw);
            for threads in [1, 4] {
                crate::parallel::set_threads(threads);
                assert_eq!(da.as_slice(), g.matmul_transpose(&w).as_slice());
                assert_eq!(dw.as_slice(), x.transpose_matmul(&y).as_slice());
            }
        }
    }

    #[test]
    fn rowwise_into_kernels_bitwise_match_allocating_twins() {
        let mut rng = crate::rng::det_rng(19);
        let a = crate::init::uniform(9, 13, 3.0, &mut rng);
        let mut s = Matrix::full(1, 13, f32::NAN);
        a.sum_rows_into(&mut s);
        assert_eq!(s.as_slice(), a.sum_rows().as_slice());
        let mut p = Matrix::full(9, 13, f32::NAN);
        a.softmax_rows_into(&mut p);
        assert_eq!(p.as_slice(), a.softmax_rows().as_slice());
        let mut l = Matrix::full(9, 13, f32::NAN);
        a.log_softmax_rows_into(&mut l);
        assert_eq!(l.as_slice(), a.log_softmax_rows().as_slice());
    }

    #[test]
    fn add_into_matches_allocating_twin() {
        let mut rng = crate::rng::det_rng(12);
        let a = crate::init::uniform(5, 7, 1.0, &mut rng);
        let b = crate::init::uniform(5, 7, 1.0, &mut rng);
        let mut out = Matrix::zeros(5, 7);
        a.add_into(&b, &mut out);
        assert_eq!(out.as_slice(), a.add(&b).as_slice());
    }

    #[test]
    fn reset_shape_zeroes_and_keeps_capacity() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let cap = m.capacity();
        m.reset_shape(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.capacity(), cap);
    }

    proptest! {
        /// Bitwise agreement between the in-place fused-axpy kernel and
        /// `matmul` — same loop nest, same reduction order.
        #[test]
        fn matmul_into_bitwise_matches_matmul(
            m in 1usize..12, k in 1usize..80, n in 1usize..24,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let w = crate::init::uniform(k, n, 1.0, &mut rng);
            let mut out = Matrix::zeros(m, n);
            a.matmul_into(&w, &mut out);
            prop_assert_eq!(out.as_slice(), a.matmul(&w).as_slice());
        }

        #[test]
        fn blocked_matmul_matches_naive(
            m in 1usize..20, k in 1usize..40, n in 1usize..40,
            seed in 0u64..1000
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, k, 1.0, &mut rng);
            let b = crate::init::uniform(k, n, 1.0, &mut rng);
            prop_assert!(approx_eq(&a.matmul(&b), &matmul_naive(&a, &b), 1e-4));
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
                &a.matmul_transpose(&b),
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
                &a.transpose_matmul(&b),
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
            let fused = a.matmul_transpose(&b);
            let explicit = a.matmul(&b.transpose());
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
            let fused = a.transpose_matmul(&b);
            let explicit = a.transpose().matmul(&b);
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
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            prop_assert!(approx_eq(&lhs, &rhs, 1e-4));
        }

        #[test]
        fn add_commutes(seed in 0u64..1000, m in 1usize..6, n in 1usize..6) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, n, 1.0, &mut rng);
            let b = crate::init::uniform(m, n, 1.0, &mut rng);
            prop_assert!(approx_eq(&a.add(&b), &b.add(&a), 0.0));
        }

        #[test]
        fn sq_distance_is_symmetric_and_zero_on_self(
            seed in 0u64..1000, m in 1usize..6, n in 1usize..6
        ) {
            let mut rng = crate::rng::det_rng(seed);
            let a = crate::init::uniform(m, n, 1.0, &mut rng);
            let b = crate::init::uniform(m, n, 1.0, &mut rng);
            prop_assert!((a.sq_distance(&b) - b.sq_distance(&a)).abs() < 1e-4);
            prop_assert_eq!(a.sq_distance(&a), 0.0);
        }
    }
}
