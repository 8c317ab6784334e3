//! Bitwise SIMD == scalar equivalence for every kernel in
//! `t2vec_tensor::simd`, on every backend this CPU supports.
//!
//! These tests use the `*_on` kernel variants (explicit backend) rather
//! than the global dispatch, so they are safe under the parallel test
//! runner and exercise each ISA regardless of `T2VEC_SIMD`.
//!
//! Shapes deliberately cover the awkward cases: empty, length 1, one
//! below/at/above each lane width (4, 8) and the 32-element reduction
//! chunk, plus unaligned slices (the kernels use unaligned loads, so an
//! offset view of a buffer must produce identical bits).

use proptest::prelude::*;
use t2vec_tensor::rng::det_rng;
use t2vec_tensor::simd::{self, Backend};

/// Every backend the host can execute, scalar first.
fn backends() -> Vec<Backend> {
    [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
        Backend::Neon,
    ]
    .into_iter()
    .filter(|b| b.supported())
    .collect()
}

/// Lengths around every lane/chunk boundary the kernels care about.
const AWKWARD: &[usize] = &[
    0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 97,
];

fn f32_data(seed: u64, n: usize) -> Vec<f32> {
    use rand::RngExt;
    let mut rng = det_rng(seed);
    (0..n).map(|_| rng.random_range(-4.0f32..4.0)).collect()
}

fn i8_data(seed: u64, n: usize) -> Vec<i8> {
    use rand::RngExt;
    let mut rng = det_rng(seed);
    (0..n)
        .map(|_| rng.random_range(-128i32..128) as i8)
        .collect()
}

/// Asserts every backend reproduces the scalar reference bitwise for one
/// `(length, offset)` input shape. `off > 0` exercises unaligned slices.
fn check_shape(seed: u64, n: usize, off: usize) {
    let a_buf = f32_data(seed, n + off);
    let b_buf = f32_data(seed ^ 0x9e37, n + off);
    let (a, b) = (&a_buf[off..], &b_buf[off..]);

    let dot_ref = simd::dot_f32_on(Backend::Scalar, a, b);
    let sq_ref = simd::sq_dist_f32_on(Backend::Scalar, a, b);
    let mut axpy_ref = a.to_vec();
    simd::axpy_f32_on(Backend::Scalar, &mut axpy_ref, 1.25, b);
    let mut axpy4_ref = a.to_vec();
    simd::axpy4_f32_on(
        Backend::Scalar,
        &mut axpy4_ref,
        [1.5, -0.25, 2.0, 0.75],
        b,
        a,
        b,
        a,
    );
    // The fused two-row kernel's contract: bitwise equal to two separate
    // scalar axpy4 calls over the same b-rows.
    let (x2a0, x2a1) = ([1.5f32, -0.25, 2.0, 0.75], [-0.5f32, 3.0, 0.125, -1.0]);
    let mut x2_ref0 = a.to_vec();
    let mut x2_ref1 = b.to_vec();
    simd::axpy4_f32_on(Backend::Scalar, &mut x2_ref0, x2a0, b, a, b, a);
    simd::axpy4_f32_on(Backend::Scalar, &mut x2_ref1, x2a1, b, a, b, a);
    // ... and the four-row kernel: bitwise equal to four scalar axpy4s.
    let x4a = [
        x2a0,
        x2a1,
        [0.5f32, -2.0, 1.0, 0.25],
        [4.0f32, 0.0, -0.75, 1.5],
    ];
    let mut x4_ref = [a.to_vec(), b.to_vec(), a.to_vec(), b.to_vec()];
    for (row, coeff) in x4_ref.iter_mut().zip(x4a) {
        simd::axpy4_f32_on(Backend::Scalar, row, coeff, b, a, b, a);
    }
    // ADC kernel inputs: full-precision query vs i8 codes with a
    // per-dimension affine decode (scale strictly positive, bias mixed).
    let codes_buf = i8_data(seed ^ 5, n + off);
    let codes = &codes_buf[off..];
    let q8_scale: Vec<f32> = f32_data(seed ^ 6, n)
        .into_iter()
        .map(|x| x.abs() / 127.0 + 1e-4)
        .collect();
    let q8_bias = f32_data(seed ^ 7, n);
    let q8_ref = simd::sq_dist_q8_f32_on(Backend::Scalar, a, codes, &q8_scale, &q8_bias);

    for be in backends() {
        let ctx = format!("backend={} n={n} off={off} seed={seed}", be.name());
        assert_eq!(
            simd::dot_f32_on(be, a, b).to_bits(),
            dot_ref.to_bits(),
            "dot {ctx}"
        );
        assert_eq!(
            simd::sq_dist_f32_on(be, a, b).to_bits(),
            sq_ref.to_bits(),
            "sq_dist {ctx}"
        );
        let mut out = a.to_vec();
        simd::axpy_f32_on(be, &mut out, 1.25, b);
        assert!(bits_eq_f32(&out, &axpy_ref), "axpy {ctx}");
        let mut out4 = a.to_vec();
        simd::axpy4_f32_on(be, &mut out4, [1.5, -0.25, 2.0, 0.75], b, a, b, a);
        assert!(bits_eq_f32(&out4, &axpy4_ref), "axpy4 {ctx}");
        let mut o0 = a.to_vec();
        let mut o1 = b.to_vec();
        simd::axpy4x2_f32_on(be, &mut o0, &mut o1, x2a0, x2a1, b, a, b, a);
        assert!(bits_eq_f32(&o0, &x2_ref0), "axpy4x2 row0 {ctx}");
        assert!(bits_eq_f32(&o1, &x2_ref1), "axpy4x2 row1 {ctx}");
        let mut q0 = a.to_vec();
        let mut q1 = b.to_vec();
        let mut q2 = a.to_vec();
        let mut q3 = b.to_vec();
        simd::axpy4x4_f32_on(be, &mut q0, &mut q1, &mut q2, &mut q3, x4a, b, a, b, a);
        for (r, got) in [&q0, &q1, &q2, &q3].into_iter().enumerate() {
            assert!(bits_eq_f32(got, &x4_ref[r]), "axpy4x4 row{r} {ctx}");
        }
        assert_eq!(
            simd::sq_dist_q8_f32_on(be, a, codes, &q8_scale, &q8_bias).to_bits(),
            q8_ref.to_bits(),
            "sq_dist_q8 {ctx}"
        );
    }
}

/// `Σ q[j]·row[j]` per row, in `i64`: the exact value, with no room to
/// wrap.
fn dot_i64(q: &[i16], codes: &[i8], rows: usize) -> Vec<i64> {
    let d = q.len();
    (0..rows)
        .map(|r| {
            q.iter()
                .zip(&codes[r * d..(r + 1) * d])
                .map(|(&a, &c)| i64::from(a) * i64::from(c))
                .sum()
        })
        .collect()
}

/// The integer ADC kernel on every backend against the scalar tier and
/// the `i64` reference, for `rows` rows of `q`, with both operands
/// viewed at offset `off` of their buffers.
fn check_dot_i16_i8(q_buf: &[i16], codes_buf: &[i8], off: usize, rows: usize) {
    let (q, codes) = (&q_buf[off..], &codes_buf[off..]);
    let want = dot_i64(q, codes, rows);
    let mut scalar = vec![0i32; rows];
    simd::dot_i16_i8_rows_on(Backend::Scalar, q, codes, &mut scalar);
    for be in backends() {
        let ctx = format!("backend={} d={} off={off} rows={rows}", be.name(), q.len());
        let mut got = vec![i32::MIN; rows]; // stale contents must be overwritten
        simd::dot_i16_i8_rows_on(be, q, codes, &mut got);
        assert_eq!(got, scalar, "dot_i16_i8 vs scalar {ctx}");
        let widened: Vec<i64> = got.iter().map(|&x| i64::from(x)).collect();
        assert_eq!(widened, want, "dot_i16_i8 vs i64 {ctx}");
    }
}

/// Random operands within the exactness bound: `|q| ≤ U(d)`, any code.
fn random_dot_operands(seed: u64, d: usize, off: usize, rows: usize) -> (Vec<i16>, Vec<i8>) {
    use rand::RngExt;
    let limit = simd::dot_i16_i8_limit(d);
    let mut rng = det_rng(seed);
    let q = (0..d + off)
        .map(|_| rng.random_range(-limit..=limit))
        .collect();
    (q, i8_data(seed ^ 0x51, rows * d + off))
}

#[test]
fn dot_i16_i8_rows_is_exact_on_every_backend() {
    for n in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 255, 256, 257] {
        for off in [0usize, 1, 2, 3] {
            let (q, codes) = random_dot_operands(2000 + n as u64, n, off, 3);
            check_dot_i16_i8(&q, &codes, off, 3);
        }
    }
}

/// The bound is tight: at the largest `d` that admits `U = 32767`, and at
/// a wider row with its own smaller `U`, the extreme operands (`±U`
/// against `−128` / `127`) sum to within `i32` and stay exact.
#[test]
fn dot_i16_i8_rows_is_exact_at_the_bound() {
    assert_eq!(simd::dot_i16_i8_limit(512), i16::MAX);
    assert!(simd::dot_i16_i8_limit(513) < i16::MAX);
    assert_eq!(simd::dot_i16_i8_limit(0), i16::MAX);
    for d in [512usize, 4099] {
        let limit = simd::dot_i16_i8_limit(d);
        assert!(128 * d as i64 * i64::from(limit) <= i64::from(i32::MAX));
        let patterns: [(i16, i8); 4] = [(limit, -128), (-limit, -128), (limit, 127), (-limit, 127)];
        for off in [0usize, 1] {
            for (qv, cv) in patterns {
                let q = vec![qv; d + off];
                check_dot_i16_i8(&q, &vec![cv; 2 * d + off], off, 2);
            }
            // Alternating signs, so the SIMD lanes see both extremes.
            let q: Vec<i16> = (0..d + off)
                .map(|j| if j % 3 == 0 { -limit } else { limit })
                .collect();
            let codes: Vec<i8> = (0..2 * d + off)
                .map(|j| if j % 2 == 0 { -128 } else { 127 })
                .collect();
            check_dot_i16_i8(&q, &codes, off, 2);
        }
    }
}

fn bits_eq_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn all_kernels_bitwise_equal_on_awkward_lengths() {
    for &n in AWKWARD {
        for off in [0usize, 1, 2, 3] {
            check_shape(1000 + n as u64, n, off);
        }
    }
}

proptest! {
    /// Random lengths/offsets/data: every backend bitwise-equals scalar.
    #[test]
    fn all_kernels_bitwise_equal_randomised(
        seed in 0u64..300,
        n in 0usize..140,
        off in 0usize..4,
    ) {
        check_shape(seed, n, off);
    }

    /// Random widths, offsets and row counts for the integer kernel.
    #[test]
    fn dot_i16_i8_rows_exact_randomised(
        seed in 0u64..300,
        d in 0usize..300,
        off in 0usize..4,
        rows in 0usize..5,
    ) {
        let (q, codes) = random_dot_operands(seed, d, off, rows);
        check_dot_i16_i8(&q, &codes, off, rows);
    }

    /// The `dot` used by matmul must equal an exact (f64-free of f32
    /// rounding? no — same-order f32) walk of the documented reduction
    /// definition: 32 strided f32 accumulators, fixed tree, serial tail.
    #[test]
    fn dot_matches_documented_reduction_definition(seed in 0u64..300, n in 0usize..140) {
        let a = f32_data(seed, n);
        let b = f32_data(seed ^ 77, n);
        let chunks = n / 32;
        let mut acc = [0.0f32; 32];
        for c in 0..chunks {
            for l in 0..32 {
                acc[l] += a[c * 32 + l] * b[c * 32 + l];
            }
        }
        let mut t = [0.0f32; 16];
        for k in 0..16 { t[k] = acc[k] + acc[k + 16]; }
        let mut u = [0.0f32; 8];
        for k in 0..8 { u[k] = t[k] + t[k + 8]; }
        let mut v = [0.0f32; 4];
        for k in 0..4 { v[k] = u[k] + u[k + 4]; }
        let mut expect = (v[0] + v[2]) + (v[1] + v[3]);
        for i in chunks * 32..n {
            expect += a[i] * b[i];
        }
        for be in backends() {
            prop_assert_eq!(
                simd::dot_f32_on(be, &a, &b).to_bits(),
                expect.to_bits(),
                "backend {}", be.name()
            );
        }
    }
}
