//! Explicit SIMD kernel layer with a scalar reference implementation.
//!
//! The workspace's f32/integer hot loops — the fused-`axpy` matmul
//! microkernel, the squared-L2 and quantized scans behind exact and IVF
//! kNN, and the GRU gates' `exp`/`tanh` — dispatch through this module.
//! Five backends exist:
//!
//! * **scalar** — pure Rust, the *reference implementation*. Every other
//!   backend must produce bitwise-identical results (enforced by the
//!   proptests in `tests/simd_kernels.rs`).
//! * **sse2** — stable `core::arch::x86_64` 128-bit kernels (SSE2 is part
//!   of the x86_64 baseline, so this backend is always available there).
//! * **avx2** — 256-bit kernels behind runtime feature detection.
//! * **avx512** — 512-bit kernels behind runtime feature detection
//!   (requires AVX-512 F + DQ; the canonical 32-lane reduction collapses
//!   to two zmm accumulators, so the tree's first level is a single
//!   vector add).
//! * **neon** — `core::arch::aarch64` 128-bit kernels (baseline on
//!   aarch64).
//!
//! # Determinism: the fixed reduction tree
//!
//! Element-wise kernels (`axpy*`) are trivially
//! lane-order-invariant: lane *j* computes exactly the scalar expression
//! for element *j*, in the same operation order, so SIMD width cannot
//! change a single bit. No f32 kernel uses FMA — fusing `a*b + c` into
//! one rounding would diverge from the scalar `mul` + `add`.
//!
//! [`exp_f32`] and [`tanh_f32`] are ports of glibc's `expf` and `tanhf`:
//! the scalar tier is the definition (including the five exactly
//! rounded f64 FMAs of `expf`, as `f64::mul_add`), and the vector tiers
//! run each element's own case of it, checked over all 2³² inputs by
//! `tests/simd_libm.rs`.
//!
//! Integer kernels ([`dot_i16_i8_rows`]) need no fixed shape at all:
//! wrapping `i32` addition is associative, so every lane order gives the
//! same integer.
//!
//! Horizontal reductions ([`dot_f32`], [`sq_dist_f32`]) are where naive
//! SIMD breaks determinism, so the reduction shape is **fixed by
//! definition** and the scalar reference implements the same shape:
//!
//! 1. 32 strided accumulators: `acc[l] = Σ x[32·i + l] · y[32·i + l]`,
//!    accumulated in ascending `i`. Lane `l` of every backend holds
//!    exactly `acc[l]` (SSE2/NEON use eight 4-lane registers, AVX2 four
//!    8-lane registers, AVX-512 two 16-lane registers — the *values* are
//!    identical, only the register packing differs).
//! 2. A fixed five-level combine tree:
//!    `t[k] = acc[k] + acc[k+16]`, `u[k] = t[k] + t[k+8]`,
//!    `v[k] = u[k] + u[k+4]`, and finally
//!    `(v[0] + v[2]) + (v[1] + v[3])`. Each level maps onto one vector
//!    add (or a 128-bit extract + add) on every backend.
//! 3. The `len % 32` tail is added serially, in ascending index order,
//!    *after* the tree.
//!
//! Because each accumulator is an exact FP sequence and the combine tree
//! is a fixed dataflow DAG, the result is a pure function of the input —
//! independent of backend, thread count, or build profile. See
//! `DESIGN.md` §12 for the policy on a possible future non-deterministic
//! "fast-math" tier (none exists today — every shipped kernel is
//! bitwise-reproducible).
//!
//! # Dispatch
//!
//! The active backend is resolved once, from the `T2VEC_SIMD` env var
//! (`off`/`scalar`, `sse`, `avx2`, `avx512`, `neon`) or by CPU feature
//! detection,
//! and cached in an atomic. A forced backend the CPU cannot run falls
//! back to `scalar` with a warning — forcing is a determinism/debugging
//! tool, so the fallback is the reference tier, not "next best". Benches
//! and tests may switch the backend at runtime via [`set_backend`], or
//! bypass the global entirely with the `*_on` kernel variants.

use std::sync::atomic::{AtomicU8, Ordering};
use t2vec_obs as obs;

mod libm;

/// A SIMD dispatch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Pure-Rust reference kernels (also the `T2VEC_SIMD=off` tier).
    Scalar = 0,
    /// 128-bit `core::arch::x86_64` kernels (x86_64 baseline).
    Sse2 = 1,
    /// 256-bit `core::arch::x86_64` kernels (runtime-detected).
    Avx2 = 2,
    /// 128-bit `core::arch::aarch64` kernels (aarch64 baseline).
    Neon = 3,
    /// 512-bit `core::arch::x86_64` kernels (runtime-detected; needs
    /// AVX-512 F and DQ).
    Avx512 = 4,
}

impl Backend {
    /// Stable lower-case name (used in metrics and bench reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parses a `T2VEC_SIMD` value. `off` and `scalar` are synonyms.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "scalar" => Some(Backend::Scalar),
            "sse" | "sse2" => Some(Backend::Sse2),
            "avx2" => Some(Backend::Avx2),
            "avx512" | "avx512f" => Some(Backend::Avx512),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// `true` when this CPU can execute the backend's kernels.
    pub fn supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true, // part of the x86_64 baseline
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true, // part of the aarch64 baseline
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
        }
    }

    fn from_u8(v: u8) -> Backend {
        match v {
            1 => Backend::Sse2,
            2 => Backend::Avx2,
            3 => Backend::Neon,
            4 => Backend::Avx512,
            _ => Backend::Scalar,
        }
    }
}

/// The widest backend this CPU supports (ignoring `T2VEC_SIMD`).
pub fn detected() -> Backend {
    if Backend::Avx512.supported() {
        Backend::Avx512
    } else if Backend::Avx2.supported() {
        Backend::Avx2
    } else if Backend::Neon.supported() {
        Backend::Neon
    } else if Backend::Sse2.supported() {
        Backend::Sse2
    } else {
        Backend::Scalar
    }
}

const UNRESOLVED: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn resolve() -> Backend {
    let chosen = match std::env::var("T2VEC_SIMD") {
        Ok(v) => match Backend::parse(&v) {
            Some(b) if b.supported() => b,
            Some(b) => {
                obs::warn!(target: "tensor.simd",
                    "T2VEC_SIMD={} not supported on this CPU; falling back to scalar",
                    b.name());
                Backend::Scalar
            }
            None => {
                obs::warn!(target: "tensor.simd",
                    "unrecognised T2VEC_SIMD value {v:?} (off|sse|avx2|avx512|neon); auto-detecting");
                detected()
            }
        },
        Err(_) => detected(),
    };
    ACTIVE.store(chosen as u8, Ordering::Relaxed);
    chosen
}

/// The active backend every dispatching kernel uses.
///
/// Resolved on first call from `T2VEC_SIMD` or CPU detection, then
/// cached; [`set_backend`] overrides it at runtime.
#[inline]
pub fn backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        UNRESOLVED => resolve(),
        v => Backend::from_u8(v),
    }
}

/// Forces the active backend (bench/test hook). Returns `false` — and
/// leaves the active backend unchanged — when the CPU cannot run `b`.
pub fn set_backend(b: Backend) -> bool {
    if !b.supported() {
        return false;
    }
    ACTIVE.store(b as u8, Ordering::Relaxed);
    true
}

/// Discards the cached backend and re-resolves from `T2VEC_SIMD` / CPU
/// detection (test/bench hook — normal code resolves once per process).
pub fn refresh_from_env() -> Backend {
    resolve()
}

/// Increments the per-backend dispatch counter
/// (`simd.dispatch.{scalar,sse2,avx2,avx512,neon}`). Called once per
/// coarse-grained kernel entry (a matmul, a kNN scan) — not
/// per row — so benches and tests can attest which backend actually ran
/// without putting an atomic increment in the hot loop.
#[inline]
pub fn record_dispatch() {
    match backend() {
        Backend::Scalar => obs::counter!("simd.dispatch.scalar").incr(),
        Backend::Sse2 => obs::counter!("simd.dispatch.sse2").incr(),
        Backend::Avx2 => obs::counter!("simd.dispatch.avx2").incr(),
        Backend::Neon => obs::counter!("simd.dispatch.neon").incr(),
        Backend::Avx512 => obs::counter!("simd.dispatch.avx512").incr(),
    }
}

// ---------------------------------------------------------------------
// Dispatching wrappers (global backend) and `_on` variants (explicit
// backend — the parallel-test-safe hook used by the bitwise proptests).
// ---------------------------------------------------------------------

/// Dot product with the fixed 32-accumulator reduction tree (see the
/// module docs). Bitwise-identical across backends.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter slice governs.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    dot_f32_on(backend(), a, b)
}

/// [`dot_f32`] on an explicit backend.
///
/// # Panics
/// Panics if `b` is not supported on this CPU.
pub fn dot_f32_on(be: Backend, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    match check(be) {
        Backend::Scalar => scalar::dot(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_sse2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::dot_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::dot_avx512(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot_neon(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot(a, b),
    }
}

/// Squared Euclidean distance with the fixed 32-accumulator reduction
/// tree. Bitwise-identical across backends.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter slice governs.
#[inline]
pub fn sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    sq_dist_f32_on(backend(), a, b)
}

/// [`sq_dist_f32`] on an explicit backend.
///
/// # Panics
/// Panics if `b` is not supported on this CPU.
pub fn sq_dist_f32_on(be: Backend, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    match check(be) {
        Backend::Scalar => scalar::sq_dist(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::sq_dist_sse2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::sq_dist_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::sq_dist_avx512(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::sq_dist_neon(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::sq_dist(a, b),
    }
}

/// Asymmetric i8 distance: squared Euclidean distance between an f32
/// query and a scalar-quantised i8 vector, decoding on the fly as
/// `decode_j(c) = bias[j] + scale[j]·c`. The reduction uses the same
/// fixed 32-accumulator tree as [`sq_dist_f32`]; per lane the operation
/// order is `convert → mul → add → sub → mul → accumulate` on every
/// backend (the i8→f32 conversion is exact, no FMA anywhere), so the
/// result is bitwise-identical across backends.
///
/// No query path runs it any more — the IVF+i8 tier scores through the
/// integer [`dot_i16_i8_rows`] — but `benchmark/`'s traced run still
/// prices it as `tensor.sq_dist_q8_gb_per_s`, so it stays until that
/// probe is re-pointed.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shortest slice governs.
#[inline]
pub fn sq_dist_q8_f32(q: &[f32], codes: &[i8], scale: &[f32], bias: &[f32]) -> f32 {
    sq_dist_q8_f32_on(backend(), q, codes, scale, bias)
}

/// [`sq_dist_q8_f32`] on an explicit backend.
///
/// # Panics
/// Panics if `be` is not supported on this CPU.
pub fn sq_dist_q8_f32_on(be: Backend, q: &[f32], codes: &[i8], scale: &[f32], bias: &[f32]) -> f32 {
    debug_assert_eq!(q.len(), codes.len(), "sq_dist_q8 length mismatch");
    debug_assert_eq!(q.len(), scale.len(), "sq_dist_q8 scale length mismatch");
    debug_assert_eq!(q.len(), bias.len(), "sq_dist_q8 bias length mismatch");
    let n = q.len().min(codes.len()).min(scale.len()).min(bias.len());
    let (q, codes, scale, bias) = (&q[..n], &codes[..n], &scale[..n], &bias[..n]);
    match check(be) {
        Backend::Scalar => scalar::sq_dist_q8(q, codes, scale, bias),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::sq_dist_q8_sse2(q, codes, scale, bias) },
        // Every AVX-512 F+DQ part also implements AVX2, and the AVX2
        // kernel already realises the canonical 32-lane reduction; a
        // dedicated 512-bit widening kernel would change packing only,
        // not values, so the AVX-512 tier shares the AVX2 body.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { x86::sq_dist_q8_avx2(q, codes, scale, bias) },
        // No NEON widening kernel yet: the scalar reference *is* the
        // canonical semantics, so falling back keeps aarch64 results
        // bitwise-identical to every other backend.
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => scalar::sq_dist_q8(q, codes, scale, bias),
        #[allow(unreachable_patterns)]
        _ => scalar::sq_dist_q8(q, codes, scale, bias),
    }
}

/// The largest query magnitude `U` for which [`dot_i16_i8_rows`] is
/// exact on `d`-wide rows: `min(32767, ⌊(2³¹ − 1) / (128·d)⌋)`. With
/// every `|q[j]| ≤ U` and codes in `[−128, 127]`, every partial sum of
/// `Σ q[j]·c[j]`, taken in any order, is at most `128·d·U ≤ i32::MAX`
/// in magnitude.
pub fn dot_i16_i8_limit(d: usize) -> i16 {
    let per_unit = 128usize.saturating_mul(d.max(1));
    (i32::MAX as usize / per_unit).min(i16::MAX as usize) as i16
}

/// Integer dot products of one `i16` query with each `q.len()`-wide
/// row of `codes`: `out[r] = Σⱼ q[j]·codes[r·d + j]` for every
/// `r < out.len()`.
///
/// Arithmetic is two's-complement and wrapping, which is associative,
/// so lane order cannot change a bit: every backend returns the same
/// integers by construction. Within [`dot_i16_i8_limit`] nothing wraps
/// and the result is the exact dot product.
///
/// This is the ADC inner loop of the IVF+i8 tier: one call scores a
/// whole posting list, so the backend is dispatched once per list, not
/// once per row.
///
/// # Panics
/// Panics if `codes` holds fewer than `out.len()` rows.
#[inline]
pub fn dot_i16_i8_rows(q: &[i16], codes: &[i8], out: &mut [i32]) {
    dot_i16_i8_rows_on(backend(), q, codes, out)
}

/// [`dot_i16_i8_rows`] on an explicit backend.
///
/// # Panics
/// Panics if `be` is not supported on this CPU, or if `codes` holds
/// fewer than `out.len()` rows.
pub fn dot_i16_i8_rows_on(be: Backend, q: &[i16], codes: &[i8], out: &mut [i32]) {
    let codes = &codes[..out.len() * q.len()];
    match check(be) {
        Backend::Scalar => scalar::dot_i16_i8_rows(q, codes, out),
        // SAFETY: SSE2 is part of the x86-64 baseline.
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_i16_i8_rows_sse2(q, codes, out) },
        // As for `sq_dist_q8`: every AVX-512 F+DQ part runs the AVX2
        // body, and an integer result cannot depend on register width.
        // SAFETY: `check` verified that this CPU runs `be`, and AVX-512
        // F implies AVX2.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { x86::dot_i16_i8_rows_avx2(q, codes, out) },
        // SAFETY: NEON is part of the aarch64 baseline.
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot_i16_i8_rows_neon(q, codes, out) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot_i16_i8_rows(q, codes, out),
    }
}

/// `out[j] += a · b[j]` — element-wise, bitwise-identical across
/// backends.
///
/// # Panics
/// Panics if `b` is shorter than `out`.
#[inline]
pub fn axpy_f32(out: &mut [f32], a: f32, b: &[f32]) {
    axpy_f32_on(backend(), out, a, b)
}

/// [`axpy_f32`] on an explicit backend.
///
/// # Panics
/// Panics if the backend is unsupported or `b` is shorter than `out`.
pub fn axpy_f32_on(be: Backend, out: &mut [f32], a: f32, b: &[f32]) {
    let n = out.len();
    let b = &b[..n];
    match check(be) {
        Backend::Scalar => scalar::axpy(out, a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::axpy_sse2(out, a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::axpy_avx2(out, a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::axpy_avx512(out, a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::axpy_neon(out, a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::axpy(out, a, b),
    }
}

/// `out[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]` — the fused
/// four-row `axpy` microkernel behind every blocked matmul. Per element
/// the operation order is the scalar left-to-right sum, so results are
/// bitwise-identical across backends (and to the pre-SIMD kernels).
///
/// # Panics
/// Panics if any `b*` is shorter than `out`.
#[inline]
pub fn axpy4_f32(out: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    axpy4_f32_on(backend(), out, a, b0, b1, b2, b3)
}

/// [`axpy4_f32`] on an explicit backend.
///
/// # Panics
/// Panics if the backend is unsupported or any `b*` is shorter than
/// `out`.
pub fn axpy4_f32_on(
    be: Backend,
    out: &mut [f32],
    a: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = out.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    match check(be) {
        Backend::Scalar => scalar::axpy4(out, a, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::axpy4_sse2(out, a, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::axpy4_avx2(out, a, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::axpy4_avx512(out, a, b0, b1, b2, b3) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::axpy4_neon(out, a, b0, b1, b2, b3) },
        #[allow(unreachable_patterns)]
        _ => scalar::axpy4(out, a, b0, b1, b2, b3),
    }
}

/// Two independent [`axpy4_f32`]s sharing one pass over the `b*` rows:
/// `out0[j] += a0·b*`, `out1[j] += a1·b*`. Each output row's per-element
/// operation order is exactly [`axpy4_f32`]'s, so results are bitwise
/// identical to two separate calls — the fusion only halves the `b*`
/// memory traffic (the blocked matmul's register-blocking over output
/// rows, which is what lifts it off the L2-bandwidth ceiling).
///
/// # Panics
/// Panics if `out1` or any `b*` is shorter than `out0`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn axpy4x2_f32(
    out0: &mut [f32],
    out1: &mut [f32],
    a0: [f32; 4],
    a1: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    axpy4x2_f32_on(backend(), out0, out1, a0, a1, b0, b1, b2, b3)
}

/// [`axpy4x2_f32`] on an explicit backend.
///
/// # Panics
/// Panics if the backend is unsupported or `out1`/any `b*` is shorter
/// than `out0`.
#[allow(clippy::too_many_arguments)]
pub fn axpy4x2_f32_on(
    be: Backend,
    out0: &mut [f32],
    out1: &mut [f32],
    a0: [f32; 4],
    a1: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = out0.len();
    let out1 = &mut out1[..n];
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    match check(be) {
        Backend::Scalar => scalar::axpy4x2(out0, out1, a0, a1, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::axpy4x2_sse2(out0, out1, a0, a1, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::axpy4x2_avx2(out0, out1, a0, a1, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::axpy4x2_avx512(out0, out1, a0, a1, b0, b1, b2, b3) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::axpy4x2_neon(out0, out1, a0, a1, b0, b1, b2, b3) },
        #[allow(unreachable_patterns)]
        _ => scalar::axpy4x2(out0, out1, a0, a1, b0, b1, b2, b3),
    }
}

/// Four independent [`axpy4_f32`]s sharing one pass over the `b*` rows:
/// `out_r[j] += a[r][0]·b0[j] + a[r][1]·b1[j] + a[r][2]·b2[j] +
/// a[r][3]·b3[j]` for `r = 0..4`. Each row's per-element operation order
/// is exactly [`axpy4_f32`]'s, so the result is bitwise-identical to
/// four separate calls (equivalently two [`axpy4x2_f32`]s) — the wider
/// fusion quarters the `b*` traffic and halves the `out` traffic of the
/// pair kernel. Backends without a fused four-row kernel run two pair
/// passes: same bits, just more B fetches.
///
/// # Panics
/// Panics if any `out*`/`b*` is shorter than `out0`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn axpy4x4_f32(
    out0: &mut [f32],
    out1: &mut [f32],
    out2: &mut [f32],
    out3: &mut [f32],
    a: [[f32; 4]; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    axpy4x4_f32_on(backend(), out0, out1, out2, out3, a, b0, b1, b2, b3)
}

/// [`axpy4x4_f32`] on an explicit backend.
///
/// # Panics
/// Panics if the backend is unsupported or any `out*`/`b*` is shorter
/// than `out0`.
#[allow(clippy::too_many_arguments)]
pub fn axpy4x4_f32_on(
    be: Backend,
    out0: &mut [f32],
    out1: &mut [f32],
    out2: &mut [f32],
    out3: &mut [f32],
    a: [[f32; 4]; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = out0.len();
    let (out1, out2, out3) = (&mut out1[..n], &mut out2[..n], &mut out3[..n]);
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    match check(be) {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe {
            x86::axpy4x4_avx512(out0, out1, out2, out3, a, b0, b1, b2, b3)
        },
        be => {
            // Two pair passes reproduce the fused kernel bit for bit:
            // each row's operation order is unchanged by the split.
            axpy4x2_f32_on(be, out0, out1, a[0], a[1], b0, b1, b2, b3);
            axpy4x2_f32_on(be, out2, out3, a[2], a[3], b0, b1, b2, b3);
        }
    }
}

/// `x[j] = exp(x[j])`, in place, equal bit for bit to glibc 2.36's
/// `expf` as x86-64 runs it with FMA (`__expf_fma`, the scalar
/// definition in `simd/libm.rs`) on every backend. AVX-512, AVX2 (each
/// with FMA) and NEON run a 16-lane body of the same per-element
/// sequence; SSE2 and scalar run the definition itself.
#[inline]
pub fn exp_f32(x: &mut [f32]) {
    exp_f32_on(backend(), x)
}

/// [`exp_f32`] on an explicit backend.
///
/// # Panics
/// Panics if the backend is unsupported.
pub fn exp_f32_on(be: Backend, x: &mut [f32]) {
    match check(be) {
        // SAFETY: `check` verified that this CPU runs `be`; the guard
        // adds the FMA the lane body is compiled with.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if has_fma() => unsafe { libm::x86::exp_avx512(x) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if has_fma() => unsafe { libm::x86::exp_avx2(x) },
        // FMA is part of the aarch64 baseline.
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => libm::exp_lanes(x),
        _ => libm::exp_scalar(x),
    }
}

/// `x[j] = tanh(x[j])`, in place, equal bit for bit to glibc 2.36's
/// `tanhf` (fdlibm's, over `expm1f`; the scalar definition in
/// `simd/libm.rs`) on every backend. The backends split as for
/// [`exp_f32`].
#[inline]
pub fn tanh_f32(x: &mut [f32]) {
    tanh_f32_on(backend(), x)
}

/// [`tanh_f32`] on an explicit backend.
///
/// # Panics
/// Panics if the backend is unsupported.
pub fn tanh_f32_on(be: Backend, x: &mut [f32]) {
    match check(be) {
        // SAFETY: as in `exp_f32_on`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if has_fma() => unsafe { libm::x86::tanh_avx512(x) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if has_fma() => unsafe { libm::x86::tanh_avx2(x) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => libm::tanh_lanes(x),
        _ => libm::tanh_scalar(x),
    }
}

/// Whether the CPU has FMA, which the x86 lane bodies of [`exp_f32`] and
/// [`tanh_f32`] are compiled with (std caches the detection).
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// Guards the `_on` hooks: an explicitly requested backend the CPU
/// cannot run is a programming error (the dispatching wrappers can never
/// produce one — [`set_backend`] and [`resolve`] only install supported
/// backends).
#[inline]
fn check(be: Backend) -> Backend {
    assert!(be.supported(), "backend {} not supported here", be.name());
    be
}

// ---------------------------------------------------------------------
// Scalar reference implementations — the canonical semantics.
// ---------------------------------------------------------------------

mod scalar {
    /// Number of strided accumulators in the canonical reduction.
    pub(super) const LANES: usize = 32;

    /// The fixed combine tree over the 32 accumulators (module docs §2).
    #[inline]
    pub(super) fn combine(acc: &[f32; LANES]) -> f32 {
        let mut t = [0.0f32; 16];
        for k in 0..16 {
            t[k] = acc[k] + acc[k + 16];
        }
        let mut u = [0.0f32; 8];
        for k in 0..8 {
            u[k] = t[k] + t[k + 8];
        }
        let mut v = [0.0f32; 4];
        for k in 0..4 {
            v[k] = u[k] + u[k + 4];
        }
        (v[0] + v[2]) + (v[1] + v[3])
    }

    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / LANES;
        let mut acc = [0.0f32; LANES];
        for c in 0..chunks {
            let x = &a[c * LANES..(c + 1) * LANES];
            let y = &b[c * LANES..(c + 1) * LANES];
            for l in 0..LANES {
                acc[l] += x[l] * y[l];
            }
        }
        let mut s = combine(&acc);
        for i in chunks * LANES..n {
            s += a[i] * b[i];
        }
        s
    }

    pub(super) fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / LANES;
        let mut acc = [0.0f32; LANES];
        for c in 0..chunks {
            let x = &a[c * LANES..(c + 1) * LANES];
            let y = &b[c * LANES..(c + 1) * LANES];
            for l in 0..LANES {
                let d = x[l] - y[l];
                acc[l] += d * d;
            }
        }
        let mut s = combine(&acc);
        for i in chunks * LANES..n {
            let d = a[i] - b[i];
            s += d * d;
        }
        s
    }

    pub(super) fn sq_dist_q8(q: &[f32], codes: &[i8], scale: &[f32], bias: &[f32]) -> f32 {
        let n = q.len();
        let chunks = n / LANES;
        let mut acc = [0.0f32; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            for (l, a) in acc.iter_mut().enumerate() {
                let j = base + l;
                let v = bias[j] + scale[j] * f32::from(codes[j]);
                let d = q[j] - v;
                *a += d * d;
            }
        }
        let mut s = combine(&acc);
        for j in chunks * LANES..n {
            let v = bias[j] + scale[j] * f32::from(codes[j]);
            let d = q[j] - v;
            s += d * d;
        }
        s
    }

    /// One row of `dot_i16_i8_rows`; also the SIMD bodies' tail. A
    /// product of an `i16` and an `i8` always fits an `i32`; only the
    /// sum can wrap.
    pub(super) fn dot_i16_i8(q: &[i16], codes: &[i8]) -> i32 {
        q.iter().zip(codes).fold(0i32, |s, (&a, &c)| {
            s.wrapping_add(i32::from(a) * i32::from(c))
        })
    }

    pub(super) fn dot_i16_i8_rows(q: &[i16], codes: &[i8], out: &mut [i32]) {
        let d = q.len();
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot_i16_i8(q, &codes[r * d..(r + 1) * d]);
        }
    }

    pub(super) fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
        for (o, &bv) in out.iter_mut().zip(b.iter()) {
            *o += a * bv;
        }
    }

    pub(super) fn axpy4(
        out: &mut [f32],
        a: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        for j in 0..out.len() {
            out[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn axpy4x2(
        out0: &mut [f32],
        out1: &mut [f32],
        a0: [f32; 4],
        a1: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        for j in 0..out0.len() {
            out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
            out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
        }
    }
}

// ---------------------------------------------------------------------
// x86_64 kernels: SSE2 (baseline) and AVX2 (runtime-detected).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    // ---- f32 reductions: 32 strided accumulators + fixed tree ----

    /// Final combine for SSE2/AVX2 once the tree is down to one xmm
    /// holding `v[0..4]`: `(v0 + v2) + (v1 + v3)`.
    #[inline]
    unsafe fn combine_v4(v: __m128) -> f32 {
        // (v0+v2, v1+v3, …)
        let hi = _mm_movehl_ps(v, v);
        let w = _mm_add_ps(v, hi);
        // lane1 of w
        let w1 = _mm_shuffle_ps(w, w, 0b01);
        _mm_cvtss_f32(_mm_add_ss(w, w1))
    }

    /// Shared tail + tree for the SSE2 reductions: `s0..s7` hold strides
    /// `4r..4r+4`.
    #[inline]
    unsafe fn tree_sse2(s: [__m128; 8]) -> __m128 {
        let d0 = _mm_add_ps(s[0], s[4]); // t[0..4]
        let d1 = _mm_add_ps(s[1], s[5]); // t[4..8]
        let d2 = _mm_add_ps(s[2], s[6]); // t[8..12]
        let d3 = _mm_add_ps(s[3], s[7]); // t[12..16]
        let e0 = _mm_add_ps(d0, d2); // u[0..4]
        let e1 = _mm_add_ps(d1, d3); // u[4..8]
        _mm_add_ps(e0, e1) // v[0..4]
    }

    /// Shared tree for the AVX2 reductions: `c0..c3` hold strides
    /// `8r..8r+8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tree_avx2(c: [__m256; 4]) -> __m128 {
        let d0 = _mm256_add_ps(c[0], c[2]); // t[0..8]
        let d1 = _mm256_add_ps(c[1], c[3]); // t[8..16]
        let e = _mm256_add_ps(d0, d1); // u[0..8]
                                       // v[0..4] = u[0..4] + u[4..8]
        _mm_add_ps(_mm256_castps256_ps128(e), _mm256_extractf128_ps::<1>(e))
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut s = [_mm_setzero_ps(); 8];
        for c in 0..chunks {
            let base = c * 32;
            for (r, acc) in s.iter_mut().enumerate() {
                let x = _mm_loadu_ps(pa.add(base + 4 * r));
                let y = _mm_loadu_ps(pb.add(base + 4 * r));
                *acc = _mm_add_ps(*acc, _mm_mul_ps(x, y));
            }
        }
        let mut total = combine_v4(tree_sse2(s));
        for i in chunks * 32..n {
            total += a[i] * b[i];
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 32;
            c0 = _mm256_add_ps(
                c0,
                _mm256_mul_ps(_mm256_loadu_ps(pa.add(base)), _mm256_loadu_ps(pb.add(base))),
            );
            c1 = _mm256_add_ps(
                c1,
                _mm256_mul_ps(
                    _mm256_loadu_ps(pa.add(base + 8)),
                    _mm256_loadu_ps(pb.add(base + 8)),
                ),
            );
            c2 = _mm256_add_ps(
                c2,
                _mm256_mul_ps(
                    _mm256_loadu_ps(pa.add(base + 16)),
                    _mm256_loadu_ps(pb.add(base + 16)),
                ),
            );
            c3 = _mm256_add_ps(
                c3,
                _mm256_mul_ps(
                    _mm256_loadu_ps(pa.add(base + 24)),
                    _mm256_loadu_ps(pb.add(base + 24)),
                ),
            );
        }
        let mut total = combine_v4(tree_avx2([c0, c1, c2, c3]));
        for i in chunks * 32..n {
            total += a[i] * b[i];
        }
        total
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sq_dist_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut s = [_mm_setzero_ps(); 8];
        for c in 0..chunks {
            let base = c * 32;
            for (r, acc) in s.iter_mut().enumerate() {
                let x = _mm_loadu_ps(pa.add(base + 4 * r));
                let y = _mm_loadu_ps(pb.add(base + 4 * r));
                let d = _mm_sub_ps(x, y);
                *acc = _mm_add_ps(*acc, _mm_mul_ps(d, d));
            }
        }
        let mut total = combine_v4(tree_sse2(s));
        for i in chunks * 32..n {
            let d = a[i] - b[i];
            total += d * d;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sq_dist_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 32;
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(base)), _mm256_loadu_ps(pb.add(base)));
            c0 = _mm256_add_ps(c0, _mm256_mul_ps(d0, d0));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(base + 8)),
                _mm256_loadu_ps(pb.add(base + 8)),
            );
            c1 = _mm256_add_ps(c1, _mm256_mul_ps(d1, d1));
            let d2 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(base + 16)),
                _mm256_loadu_ps(pb.add(base + 16)),
            );
            c2 = _mm256_add_ps(c2, _mm256_mul_ps(d2, d2));
            let d3 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(base + 24)),
                _mm256_loadu_ps(pb.add(base + 24)),
            );
            c3 = _mm256_add_ps(c3, _mm256_mul_ps(d3, d3));
        }
        let mut total = combine_v4(tree_avx2([c0, c1, c2, c3]));
        for i in chunks * 32..n {
            let d = a[i] - b[i];
            total += d * d;
        }
        total
    }

    // ---- i8 asymmetric distance (ADC) ----

    /// Scalar tail shared by the q8 kernels: continues accumulating on
    /// the combined tree total, term by term in ascending index order —
    /// the exact FP sequence of the scalar reference's tail loop.
    #[inline]
    fn q8_tail(
        total: f32,
        q: &[f32],
        codes: &[i8],
        scale: &[f32],
        bias: &[f32],
        from: usize,
    ) -> f32 {
        let mut s = total;
        for j in from..q.len() {
            let v = bias[j] + scale[j] * f32::from(codes[j]);
            let d = q[j] - v;
            s += d * d;
        }
        s
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sq_dist_q8_sse2(
        q: &[f32],
        codes: &[i8],
        scale: &[f32],
        bias: &[f32],
    ) -> f32 {
        let n = q.len();
        let chunks = n / 32;
        let (pq, ps, pb) = (q.as_ptr(), scale.as_ptr(), bias.as_ptr());
        let pc = codes.as_ptr();
        let zero = _mm_setzero_si128();
        let mut s = [_mm_setzero_ps(); 8];
        for c in 0..chunks {
            let base = c * 32;
            // Two 16-code loads per chunk, sign-extended i8→i16→i32 via
            // the SSE2 unpack-with-sign idiom, then converted exactly to
            // f32 — `_mm_cvtepi32_ps` on an exact integer matches the
            // scalar `f32::from(i8)` bit for bit.
            for half in 0..2 {
                let raw = _mm_loadu_si128(pc.add(base + 16 * half).cast());
                let sign8 = _mm_cmpgt_epi8(zero, raw);
                let lo16 = _mm_unpacklo_epi8(raw, sign8);
                let hi16 = _mm_unpackhi_epi8(raw, sign8);
                let sl = _mm_cmpgt_epi16(zero, lo16);
                let sh = _mm_cmpgt_epi16(zero, hi16);
                let quads = [
                    _mm_unpacklo_epi16(lo16, sl),
                    _mm_unpackhi_epi16(lo16, sl),
                    _mm_unpacklo_epi16(hi16, sh),
                    _mm_unpackhi_epi16(hi16, sh),
                ];
                for (g, &ints) in quads.iter().enumerate() {
                    let r = 4 * half + g;
                    let j = base + 4 * r;
                    let f = _mm_cvtepi32_ps(ints);
                    let v = _mm_add_ps(
                        _mm_loadu_ps(pb.add(j)),
                        _mm_mul_ps(_mm_loadu_ps(ps.add(j)), f),
                    );
                    let d = _mm_sub_ps(_mm_loadu_ps(pq.add(j)), v);
                    s[r] = _mm_add_ps(s[r], _mm_mul_ps(d, d));
                }
            }
        }
        q8_tail(combine_v4(tree_sse2(s)), q, codes, scale, bias, chunks * 32)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sq_dist_q8_avx2(
        q: &[f32],
        codes: &[i8],
        scale: &[f32],
        bias: &[f32],
    ) -> f32 {
        let n = q.len();
        let chunks = n / 32;
        let (pq, ps, pb) = (q.as_ptr(), scale.as_ptr(), bias.as_ptr());
        let pc = codes.as_ptr();
        let mut acc = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let base = c * 32;
            for (r, a) in acc.iter_mut().enumerate() {
                let j = base + 8 * r;
                // 8 codes, sign-extended in one instruction, converted
                // exactly to f32.
                let ints = _mm256_cvtepi8_epi32(_mm_loadl_epi64(pc.add(j).cast()));
                let f = _mm256_cvtepi32_ps(ints);
                let v = _mm256_add_ps(
                    _mm256_loadu_ps(pb.add(j)),
                    _mm256_mul_ps(_mm256_loadu_ps(ps.add(j)), f),
                );
                let d = _mm256_sub_ps(_mm256_loadu_ps(pq.add(j)), v);
                *a = _mm256_add_ps(*a, _mm256_mul_ps(d, d));
            }
        }
        q8_tail(
            combine_v4(tree_avx2(acc)),
            q,
            codes,
            scale,
            bias,
            chunks * 32,
        )
    }

    // ---- i16 · i8 integer dot (the ADC scan) ----

    /// Horizontal wrapping sum of four `i32` lanes.
    ///
    /// # Safety
    /// SSE2 only, which every x86-64 CPU has.
    #[inline]
    unsafe fn hsum_epi32(s: __m128i) -> i32 {
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b10_11_00_01>(s));
        _mm_cvtsi128_si32(s)
    }

    /// # Safety
    /// The CPU must support SSE2. Every vector load lies within the
    /// first `body ≤ d` elements of `q` and of a bounds-checked `row`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn dot_i16_i8_rows_sse2(q: &[i16], codes: &[i8], out: &mut [i32]) {
        let d = q.len();
        let body = d - d % 16;
        let pq = q.as_ptr();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &codes[r * d..(r + 1) * d];
            let pc = row.as_ptr();
            let mut acc0 = _mm_setzero_si128();
            let mut acc1 = _mm_setzero_si128();
            let mut j = 0;
            while j < body {
                // Sign extension without SSE4.1: each byte unpacked into
                // both halves of an i16 lane, then shifted back down
                // arithmetically.
                let raw = _mm_loadu_si128(pc.add(j).cast());
                let lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(raw, raw));
                let hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(raw, raw));
                let q0 = _mm_loadu_si128(pq.add(j).cast());
                let q1 = _mm_loadu_si128(pq.add(j + 8).cast());
                acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(lo, q0));
                acc1 = _mm_add_epi32(acc1, _mm_madd_epi16(hi, q1));
                j += 16;
            }
            let tail = super::scalar::dot_i16_i8(&q[body..], &row[body..]);
            *o = hsum_epi32(_mm_add_epi32(acc0, acc1)).wrapping_add(tail);
        }
    }

    /// # Safety
    /// The CPU must support AVX2. Every vector load lies within the
    /// first `body ≤ d` elements of `q` and of a bounds-checked `row`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i16_i8_rows_avx2(q: &[i16], codes: &[i8], out: &mut [i32]) {
        let d = q.len();
        let body = d - d % 16;
        let pq = q.as_ptr();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &codes[r * d..(r + 1) * d];
            let pc = row.as_ptr();
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut j = 0;
            while j + 32 <= body {
                let c0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pc.add(j).cast()));
                let c1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pc.add(j + 16).cast()));
                let q0 = _mm256_loadu_si256(pq.add(j).cast());
                let q1 = _mm256_loadu_si256(pq.add(j + 16).cast());
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(c0, q0));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(c1, q1));
                j += 32;
            }
            if j < body {
                let c0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pc.add(j).cast()));
                let q0 = _mm256_loadu_si256(pq.add(j).cast());
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(c0, q0));
            }
            let acc = _mm256_add_epi32(acc0, acc1);
            let half = _mm_add_epi32(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256::<1>(acc),
            );
            let tail = super::scalar::dot_i16_i8(&q[body..], &row[body..]);
            *o = hsum_epi32(half).wrapping_add(tail);
        }
    }

    // ---- f32 element-wise ----

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn axpy_sse2(out: &mut [f32], a: f32, b: &[f32]) {
        let n = out.len();
        let va = _mm_set1_ps(a);
        let (po, pb) = (out.as_mut_ptr(), b.as_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let o = _mm_loadu_ps(po.add(j));
            let t = _mm_mul_ps(va, _mm_loadu_ps(pb.add(j)));
            _mm_storeu_ps(po.add(j), _mm_add_ps(o, t));
            j += 4;
        }
        while j < n {
            out[j] += a * b[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(out: &mut [f32], a: f32, b: &[f32]) {
        let n = out.len();
        let va = _mm256_set1_ps(a);
        let (po, pb) = (out.as_mut_ptr(), b.as_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let o = _mm256_loadu_ps(po.add(j));
            let t = _mm256_mul_ps(va, _mm256_loadu_ps(pb.add(j)));
            _mm256_storeu_ps(po.add(j), _mm256_add_ps(o, t));
            j += 8;
        }
        while j < n {
            out[j] += a * b[j];
            j += 1;
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn axpy4_sse2(
        out: &mut [f32],
        a: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out.len();
        let va0 = _mm_set1_ps(a[0]);
        let va1 = _mm_set1_ps(a[1]);
        let va2 = _mm_set1_ps(a[2]);
        let va3 = _mm_set1_ps(a[3]);
        let po = out.as_mut_ptr();
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let mut t = _mm_mul_ps(va0, _mm_loadu_ps(p0.add(j)));
            t = _mm_add_ps(t, _mm_mul_ps(va1, _mm_loadu_ps(p1.add(j))));
            t = _mm_add_ps(t, _mm_mul_ps(va2, _mm_loadu_ps(p2.add(j))));
            t = _mm_add_ps(t, _mm_mul_ps(va3, _mm_loadu_ps(p3.add(j))));
            _mm_storeu_ps(po.add(j), _mm_add_ps(_mm_loadu_ps(po.add(j)), t));
            j += 4;
        }
        while j < n {
            out[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy4_avx2(
        out: &mut [f32],
        a: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out.len();
        let va0 = _mm256_set1_ps(a[0]);
        let va1 = _mm256_set1_ps(a[1]);
        let va2 = _mm256_set1_ps(a[2]);
        let va3 = _mm256_set1_ps(a[3]);
        let po = out.as_mut_ptr();
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        // Two independent 8-lane chains per iteration: each output lane
        // still sees exactly `out[j] + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)`,
        // the unroll only breaks the register dependency between
        // consecutive chunks so the multiplies pipeline.
        while j + 16 <= n {
            let mut t = _mm256_mul_ps(va0, _mm256_loadu_ps(p0.add(j)));
            let mut u = _mm256_mul_ps(va0, _mm256_loadu_ps(p0.add(j + 8)));
            t = _mm256_add_ps(t, _mm256_mul_ps(va1, _mm256_loadu_ps(p1.add(j))));
            u = _mm256_add_ps(u, _mm256_mul_ps(va1, _mm256_loadu_ps(p1.add(j + 8))));
            t = _mm256_add_ps(t, _mm256_mul_ps(va2, _mm256_loadu_ps(p2.add(j))));
            u = _mm256_add_ps(u, _mm256_mul_ps(va2, _mm256_loadu_ps(p2.add(j + 8))));
            t = _mm256_add_ps(t, _mm256_mul_ps(va3, _mm256_loadu_ps(p3.add(j))));
            u = _mm256_add_ps(u, _mm256_mul_ps(va3, _mm256_loadu_ps(p3.add(j + 8))));
            _mm256_storeu_ps(po.add(j), _mm256_add_ps(_mm256_loadu_ps(po.add(j)), t));
            _mm256_storeu_ps(
                po.add(j + 8),
                _mm256_add_ps(_mm256_loadu_ps(po.add(j + 8)), u),
            );
            j += 16;
        }
        while j + 8 <= n {
            let mut t = _mm256_mul_ps(va0, _mm256_loadu_ps(p0.add(j)));
            t = _mm256_add_ps(t, _mm256_mul_ps(va1, _mm256_loadu_ps(p1.add(j))));
            t = _mm256_add_ps(t, _mm256_mul_ps(va2, _mm256_loadu_ps(p2.add(j))));
            t = _mm256_add_ps(t, _mm256_mul_ps(va3, _mm256_loadu_ps(p3.add(j))));
            _mm256_storeu_ps(po.add(j), _mm256_add_ps(_mm256_loadu_ps(po.add(j)), t));
            j += 8;
        }
        while j < n {
            out[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
            j += 1;
        }
    }

    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn axpy4x2_sse2(
        out0: &mut [f32],
        out1: &mut [f32],
        a0: [f32; 4],
        a1: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out0.len();
        let va = [
            _mm_set1_ps(a0[0]),
            _mm_set1_ps(a0[1]),
            _mm_set1_ps(a0[2]),
            _mm_set1_ps(a0[3]),
            _mm_set1_ps(a1[0]),
            _mm_set1_ps(a1[1]),
            _mm_set1_ps(a1[2]),
            _mm_set1_ps(a1[3]),
        ];
        let (q0, q1) = (out0.as_mut_ptr(), out1.as_mut_ptr());
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let r0 = _mm_loadu_ps(p0.add(j));
            let r1 = _mm_loadu_ps(p1.add(j));
            let r2 = _mm_loadu_ps(p2.add(j));
            let r3 = _mm_loadu_ps(p3.add(j));
            let mut t = _mm_mul_ps(va[0], r0);
            let mut u = _mm_mul_ps(va[4], r0);
            t = _mm_add_ps(t, _mm_mul_ps(va[1], r1));
            u = _mm_add_ps(u, _mm_mul_ps(va[5], r1));
            t = _mm_add_ps(t, _mm_mul_ps(va[2], r2));
            u = _mm_add_ps(u, _mm_mul_ps(va[6], r2));
            t = _mm_add_ps(t, _mm_mul_ps(va[3], r3));
            u = _mm_add_ps(u, _mm_mul_ps(va[7], r3));
            _mm_storeu_ps(q0.add(j), _mm_add_ps(_mm_loadu_ps(q0.add(j)), t));
            _mm_storeu_ps(q1.add(j), _mm_add_ps(_mm_loadu_ps(q1.add(j)), u));
            j += 4;
        }
        while j < n {
            out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
            out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn axpy4x2_avx2(
        out0: &mut [f32],
        out1: &mut [f32],
        a0: [f32; 4],
        a1: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out0.len();
        let va = [
            _mm256_set1_ps(a0[0]),
            _mm256_set1_ps(a0[1]),
            _mm256_set1_ps(a0[2]),
            _mm256_set1_ps(a0[3]),
            _mm256_set1_ps(a1[0]),
            _mm256_set1_ps(a1[1]),
            _mm256_set1_ps(a1[2]),
            _mm256_set1_ps(a1[3]),
        ];
        let (q0, q1) = (out0.as_mut_ptr(), out1.as_mut_ptr());
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let r0 = _mm256_loadu_ps(p0.add(j));
            let r1 = _mm256_loadu_ps(p1.add(j));
            let r2 = _mm256_loadu_ps(p2.add(j));
            let r3 = _mm256_loadu_ps(p3.add(j));
            let mut t = _mm256_mul_ps(va[0], r0);
            let mut u = _mm256_mul_ps(va[4], r0);
            t = _mm256_add_ps(t, _mm256_mul_ps(va[1], r1));
            u = _mm256_add_ps(u, _mm256_mul_ps(va[5], r1));
            t = _mm256_add_ps(t, _mm256_mul_ps(va[2], r2));
            u = _mm256_add_ps(u, _mm256_mul_ps(va[6], r2));
            t = _mm256_add_ps(t, _mm256_mul_ps(va[3], r3));
            u = _mm256_add_ps(u, _mm256_mul_ps(va[7], r3));
            _mm256_storeu_ps(q0.add(j), _mm256_add_ps(_mm256_loadu_ps(q0.add(j)), t));
            _mm256_storeu_ps(q1.add(j), _mm256_add_ps(_mm256_loadu_ps(q1.add(j)), u));
            j += 8;
        }
        while j < n {
            out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
            out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
            j += 1;
        }
    }

    // ---- AVX-512 (F + DQ) kernels ----
    //
    // The canonical 32-lane reduction maps onto exactly two zmm
    // accumulators (`z0` = strides 0..16, `z1` = strides 16..32), so the
    // tree's `t` level is a single 16-lane add, `u` a 256-bit extract +
    // add, `v` a 128-bit extract + add, and the finish is the shared
    // [`combine_v4`]. Element-wise kernels are the scalar expression per
    // lane, as everywhere else. No FMA, as everywhere else.

    /// Fixed combine tree, AVX-512 packing: `z0` holds strides 0..16,
    /// `z1` strides 16..32.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn tree_avx512(z0: __m512, z1: __m512) -> __m128 {
        let t = _mm512_add_ps(z0, z1); // t[0..16]
                                       // u[0..8] = t[0..8] + t[8..16]
        let u = _mm256_add_ps(_mm512_castps512_ps256(t), _mm512_extractf32x8_ps::<1>(t));
        // v[0..4] = u[0..4] + u[4..8]
        _mm_add_ps(_mm256_castps256_ps128(u), _mm256_extractf128_ps::<1>(u))
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut z0 = _mm512_setzero_ps();
        let mut z1 = _mm512_setzero_ps();
        for c in 0..chunks {
            let base = c * 32;
            z0 = _mm512_add_ps(
                z0,
                _mm512_mul_ps(_mm512_loadu_ps(pa.add(base)), _mm512_loadu_ps(pb.add(base))),
            );
            z1 = _mm512_add_ps(
                z1,
                _mm512_mul_ps(
                    _mm512_loadu_ps(pa.add(base + 16)),
                    _mm512_loadu_ps(pb.add(base + 16)),
                ),
            );
        }
        let mut total = combine_v4(tree_avx512(z0, z1));
        for i in chunks * 32..n {
            total += a[i] * b[i];
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn sq_dist_avx512(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut z0 = _mm512_setzero_ps();
        let mut z1 = _mm512_setzero_ps();
        for c in 0..chunks {
            let base = c * 32;
            let d0 = _mm512_sub_ps(_mm512_loadu_ps(pa.add(base)), _mm512_loadu_ps(pb.add(base)));
            z0 = _mm512_add_ps(z0, _mm512_mul_ps(d0, d0));
            let d1 = _mm512_sub_ps(
                _mm512_loadu_ps(pa.add(base + 16)),
                _mm512_loadu_ps(pb.add(base + 16)),
            );
            z1 = _mm512_add_ps(z1, _mm512_mul_ps(d1, d1));
        }
        let mut total = combine_v4(tree_avx512(z0, z1));
        for i in chunks * 32..n {
            let d = a[i] - b[i];
            total += d * d;
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn axpy_avx512(out: &mut [f32], a: f32, b: &[f32]) {
        let n = out.len();
        let va = _mm512_set1_ps(a);
        let (po, pb) = (out.as_mut_ptr(), b.as_ptr());
        let mut j = 0;
        while j + 16 <= n {
            let o = _mm512_loadu_ps(po.add(j));
            let t = _mm512_mul_ps(va, _mm512_loadu_ps(pb.add(j)));
            _mm512_storeu_ps(po.add(j), _mm512_add_ps(o, t));
            j += 16;
        }
        while j < n {
            out[j] += a * b[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn axpy4_avx512(
        out: &mut [f32],
        a: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out.len();
        let va0 = _mm512_set1_ps(a[0]);
        let va1 = _mm512_set1_ps(a[1]);
        let va2 = _mm512_set1_ps(a[2]);
        let va3 = _mm512_set1_ps(a[3]);
        let po = out.as_mut_ptr();
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        // Two independent 16-lane chains per iteration (same per-element
        // operation order as everywhere else; the unroll only breaks the
        // register dependency between consecutive chunks).
        while j + 32 <= n {
            let mut t = _mm512_mul_ps(va0, _mm512_loadu_ps(p0.add(j)));
            let mut u = _mm512_mul_ps(va0, _mm512_loadu_ps(p0.add(j + 16)));
            t = _mm512_add_ps(t, _mm512_mul_ps(va1, _mm512_loadu_ps(p1.add(j))));
            u = _mm512_add_ps(u, _mm512_mul_ps(va1, _mm512_loadu_ps(p1.add(j + 16))));
            t = _mm512_add_ps(t, _mm512_mul_ps(va2, _mm512_loadu_ps(p2.add(j))));
            u = _mm512_add_ps(u, _mm512_mul_ps(va2, _mm512_loadu_ps(p2.add(j + 16))));
            t = _mm512_add_ps(t, _mm512_mul_ps(va3, _mm512_loadu_ps(p3.add(j))));
            u = _mm512_add_ps(u, _mm512_mul_ps(va3, _mm512_loadu_ps(p3.add(j + 16))));
            _mm512_storeu_ps(po.add(j), _mm512_add_ps(_mm512_loadu_ps(po.add(j)), t));
            _mm512_storeu_ps(
                po.add(j + 16),
                _mm512_add_ps(_mm512_loadu_ps(po.add(j + 16)), u),
            );
            j += 32;
        }
        while j + 16 <= n {
            let mut t = _mm512_mul_ps(va0, _mm512_loadu_ps(p0.add(j)));
            t = _mm512_add_ps(t, _mm512_mul_ps(va1, _mm512_loadu_ps(p1.add(j))));
            t = _mm512_add_ps(t, _mm512_mul_ps(va2, _mm512_loadu_ps(p2.add(j))));
            t = _mm512_add_ps(t, _mm512_mul_ps(va3, _mm512_loadu_ps(p3.add(j))));
            _mm512_storeu_ps(po.add(j), _mm512_add_ps(_mm512_loadu_ps(po.add(j)), t));
            j += 16;
        }
        while j < n {
            out[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn axpy4x2_avx512(
        out0: &mut [f32],
        out1: &mut [f32],
        a0: [f32; 4],
        a1: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out0.len();
        let va = [
            _mm512_set1_ps(a0[0]),
            _mm512_set1_ps(a0[1]),
            _mm512_set1_ps(a0[2]),
            _mm512_set1_ps(a0[3]),
            _mm512_set1_ps(a1[0]),
            _mm512_set1_ps(a1[1]),
            _mm512_set1_ps(a1[2]),
            _mm512_set1_ps(a1[3]),
        ];
        let (q0, q1) = (out0.as_mut_ptr(), out1.as_mut_ptr());
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        while j + 16 <= n {
            let r0 = _mm512_loadu_ps(p0.add(j));
            let r1 = _mm512_loadu_ps(p1.add(j));
            let r2 = _mm512_loadu_ps(p2.add(j));
            let r3 = _mm512_loadu_ps(p3.add(j));
            let mut t = _mm512_mul_ps(va[0], r0);
            let mut u = _mm512_mul_ps(va[4], r0);
            t = _mm512_add_ps(t, _mm512_mul_ps(va[1], r1));
            u = _mm512_add_ps(u, _mm512_mul_ps(va[5], r1));
            t = _mm512_add_ps(t, _mm512_mul_ps(va[2], r2));
            u = _mm512_add_ps(u, _mm512_mul_ps(va[6], r2));
            t = _mm512_add_ps(t, _mm512_mul_ps(va[3], r3));
            u = _mm512_add_ps(u, _mm512_mul_ps(va[7], r3));
            _mm512_storeu_ps(q0.add(j), _mm512_add_ps(_mm512_loadu_ps(q0.add(j)), t));
            _mm512_storeu_ps(q1.add(j), _mm512_add_ps(_mm512_loadu_ps(q1.add(j)), u));
            j += 16;
        }
        while j < n {
            out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
            out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
            j += 1;
        }
    }

    // Four rows per B fetch: 16 resident coefficient splats + 4 b loads
    // + 4 independent mul/add chains fit comfortably in 32 zmm
    // registers, so the widest blocking runs on this tier only.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn axpy4x4_avx512(
        out0: &mut [f32],
        out1: &mut [f32],
        out2: &mut [f32],
        out3: &mut [f32],
        a: [[f32; 4]; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out0.len();
        let mut va = [[_mm512_setzero_ps(); 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                va[r][c] = _mm512_set1_ps(a[r][c]);
            }
        }
        let qs = [
            out0.as_mut_ptr(),
            out1.as_mut_ptr(),
            out2.as_mut_ptr(),
            out3.as_mut_ptr(),
        ];
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        while j + 16 <= n {
            let r0 = _mm512_loadu_ps(p0.add(j));
            let r1 = _mm512_loadu_ps(p1.add(j));
            let r2 = _mm512_loadu_ps(p2.add(j));
            let r3 = _mm512_loadu_ps(p3.add(j));
            let mut t0 = _mm512_mul_ps(va[0][0], r0);
            let mut t1 = _mm512_mul_ps(va[1][0], r0);
            let mut t2 = _mm512_mul_ps(va[2][0], r0);
            let mut t3 = _mm512_mul_ps(va[3][0], r0);
            t0 = _mm512_add_ps(t0, _mm512_mul_ps(va[0][1], r1));
            t1 = _mm512_add_ps(t1, _mm512_mul_ps(va[1][1], r1));
            t2 = _mm512_add_ps(t2, _mm512_mul_ps(va[2][1], r1));
            t3 = _mm512_add_ps(t3, _mm512_mul_ps(va[3][1], r1));
            t0 = _mm512_add_ps(t0, _mm512_mul_ps(va[0][2], r2));
            t1 = _mm512_add_ps(t1, _mm512_mul_ps(va[1][2], r2));
            t2 = _mm512_add_ps(t2, _mm512_mul_ps(va[2][2], r2));
            t3 = _mm512_add_ps(t3, _mm512_mul_ps(va[3][2], r2));
            t0 = _mm512_add_ps(t0, _mm512_mul_ps(va[0][3], r3));
            t1 = _mm512_add_ps(t1, _mm512_mul_ps(va[1][3], r3));
            t2 = _mm512_add_ps(t2, _mm512_mul_ps(va[2][3], r3));
            t3 = _mm512_add_ps(t3, _mm512_mul_ps(va[3][3], r3));
            _mm512_storeu_ps(
                qs[0].add(j),
                _mm512_add_ps(_mm512_loadu_ps(qs[0].add(j)), t0),
            );
            _mm512_storeu_ps(
                qs[1].add(j),
                _mm512_add_ps(_mm512_loadu_ps(qs[1].add(j)), t1),
            );
            _mm512_storeu_ps(
                qs[2].add(j),
                _mm512_add_ps(_mm512_loadu_ps(qs[2].add(j)), t2),
            );
            _mm512_storeu_ps(
                qs[3].add(j),
                _mm512_add_ps(_mm512_loadu_ps(qs[3].add(j)), t3),
            );
            j += 16;
        }
        while j < n {
            out0[j] += a[0][0] * b0[j] + a[0][1] * b1[j] + a[0][2] * b2[j] + a[0][3] * b3[j];
            out1[j] += a[1][0] * b0[j] + a[1][1] * b1[j] + a[1][2] * b2[j] + a[1][3] * b3[j];
            out2[j] += a[2][0] * b0[j] + a[2][1] * b1[j] + a[2][2] * b2[j] + a[2][3] * b3[j];
            out3[j] += a[3][0] * b0[j] + a[3][1] * b1[j] + a[3][2] * b2[j] + a[3][3] * b3[j];
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------
// aarch64 NEON kernels (baseline on aarch64; compiled only there).
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// Fixed combine tree, NEON register packing: `s[r]` holds strides
    /// `4r..4r+4` (same packing as SSE2).
    #[inline]
    unsafe fn combine_tree(s: [float32x4_t; 8]) -> f32 {
        let d0 = vaddq_f32(s[0], s[4]);
        let d1 = vaddq_f32(s[1], s[5]);
        let d2 = vaddq_f32(s[2], s[6]);
        let d3 = vaddq_f32(s[3], s[7]);
        let e0 = vaddq_f32(d0, d2);
        let e1 = vaddq_f32(d1, d3);
        let v = vaddq_f32(e0, e1); // v[0..4]
        let v0 = vgetq_lane_f32::<0>(v);
        let v1 = vgetq_lane_f32::<1>(v);
        let v2 = vgetq_lane_f32::<2>(v);
        let v3 = vgetq_lane_f32::<3>(v);
        (v0 + v2) + (v1 + v3)
    }

    pub(super) unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut s = [vdupq_n_f32(0.0); 8];
        for c in 0..chunks {
            let base = c * 32;
            for (r, acc) in s.iter_mut().enumerate() {
                let x = vld1q_f32(pa.add(base + 4 * r));
                let y = vld1q_f32(pb.add(base + 4 * r));
                *acc = vaddq_f32(*acc, vmulq_f32(x, y));
            }
        }
        let mut total = combine_tree(s);
        for i in chunks * 32..n {
            total += a[i] * b[i];
        }
        total
    }

    pub(super) unsafe fn sq_dist_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 32;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut s = [vdupq_n_f32(0.0); 8];
        for c in 0..chunks {
            let base = c * 32;
            for (r, acc) in s.iter_mut().enumerate() {
                let x = vld1q_f32(pa.add(base + 4 * r));
                let y = vld1q_f32(pb.add(base + 4 * r));
                let d = vsubq_f32(x, y);
                *acc = vaddq_f32(*acc, vmulq_f32(d, d));
            }
        }
        let mut total = combine_tree(s);
        for i in chunks * 32..n {
            let d = a[i] - b[i];
            total += d * d;
        }
        total
    }

    /// # Safety
    /// NEON must be available (it is on every aarch64 target). Every
    /// vector load lies within the first `body ≤ d` elements of `q` and
    /// of a bounds-checked `row`.
    pub(super) unsafe fn dot_i16_i8_rows_neon(q: &[i16], codes: &[i8], out: &mut [i32]) {
        let d = q.len();
        let body = d - d % 16;
        let pq = q.as_ptr();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &codes[r * d..(r + 1) * d];
            let pc = row.as_ptr();
            let mut acc0 = vdupq_n_s32(0);
            let mut acc1 = vdupq_n_s32(0);
            let mut j = 0;
            while j < body {
                let raw = vld1q_s8(pc.add(j));
                let lo = vmovl_s8(vget_low_s8(raw));
                let hi = vmovl_high_s8(raw);
                let q0 = vld1q_s16(pq.add(j));
                let q1 = vld1q_s16(pq.add(j + 8));
                acc0 = vmlal_s16(acc0, vget_low_s16(lo), vget_low_s16(q0));
                acc1 = vmlal_high_s16(acc1, lo, q0);
                acc0 = vmlal_s16(acc0, vget_low_s16(hi), vget_low_s16(q1));
                acc1 = vmlal_high_s16(acc1, hi, q1);
                j += 16;
            }
            let tail = super::scalar::dot_i16_i8(&q[body..], &row[body..]);
            *o = vaddvq_s32(vaddq_s32(acc0, acc1)).wrapping_add(tail);
        }
    }

    pub(super) unsafe fn axpy_neon(out: &mut [f32], a: f32, b: &[f32]) {
        let n = out.len();
        let va = vdupq_n_f32(a);
        let (po, pb) = (out.as_mut_ptr(), b.as_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let o = vld1q_f32(po.add(j));
            let t = vmulq_f32(va, vld1q_f32(pb.add(j)));
            vst1q_f32(po.add(j), vaddq_f32(o, t));
            j += 4;
        }
        while j < n {
            out[j] += a * b[j];
            j += 1;
        }
    }

    pub(super) unsafe fn axpy4_neon(
        out: &mut [f32],
        a: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out.len();
        let va0 = vdupq_n_f32(a[0]);
        let va1 = vdupq_n_f32(a[1]);
        let va2 = vdupq_n_f32(a[2]);
        let va3 = vdupq_n_f32(a[3]);
        let po = out.as_mut_ptr();
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let mut t = vmulq_f32(va0, vld1q_f32(p0.add(j)));
            t = vaddq_f32(t, vmulq_f32(va1, vld1q_f32(p1.add(j))));
            t = vaddq_f32(t, vmulq_f32(va2, vld1q_f32(p2.add(j))));
            t = vaddq_f32(t, vmulq_f32(va3, vld1q_f32(p3.add(j))));
            vst1q_f32(po.add(j), vaddq_f32(vld1q_f32(po.add(j)), t));
            j += 4;
        }
        while j < n {
            out[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
            j += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn axpy4x2_neon(
        out0: &mut [f32],
        out1: &mut [f32],
        a0: [f32; 4],
        a1: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out0.len();
        let va = [
            vdupq_n_f32(a0[0]),
            vdupq_n_f32(a0[1]),
            vdupq_n_f32(a0[2]),
            vdupq_n_f32(a0[3]),
            vdupq_n_f32(a1[0]),
            vdupq_n_f32(a1[1]),
            vdupq_n_f32(a1[2]),
            vdupq_n_f32(a1[3]),
        ];
        let (q0, q1) = (out0.as_mut_ptr(), out1.as_mut_ptr());
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let r0 = vld1q_f32(p0.add(j));
            let r1 = vld1q_f32(p1.add(j));
            let r2 = vld1q_f32(p2.add(j));
            let r3 = vld1q_f32(p3.add(j));
            let mut t = vmulq_f32(va[0], r0);
            let mut u = vmulq_f32(va[4], r0);
            t = vaddq_f32(t, vmulq_f32(va[1], r1));
            u = vaddq_f32(u, vmulq_f32(va[5], r1));
            t = vaddq_f32(t, vmulq_f32(va[2], r2));
            u = vaddq_f32(u, vmulq_f32(va[6], r2));
            t = vaddq_f32(t, vmulq_f32(va[3], r3));
            u = vaddq_f32(u, vmulq_f32(va[7], r3));
            vst1q_f32(q0.add(j), vaddq_f32(vld1q_f32(q0.add(j)), t));
            vst1q_f32(q1.add(j), vaddq_f32(vld1q_f32(q1.add(j)), u));
            j += 4;
        }
        while j < n {
            out0[j] += a0[0] * b0[j] + a0[1] * b1[j] + a0[2] * b2[j] + a0[3] * b3[j];
            out1[j] += a1[0] * b0[j] + a1[1] * b1[j] + a1[2] * b2[j] + a1[3] * b3[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_values() {
        assert_eq!(Backend::parse("off"), Some(Backend::Scalar));
        assert_eq!(Backend::parse("scalar"), Some(Backend::Scalar));
        assert_eq!(Backend::parse("SSE"), Some(Backend::Sse2));
        assert_eq!(Backend::parse("sse2"), Some(Backend::Sse2));
        assert_eq!(Backend::parse("avx2"), Some(Backend::Avx2));
        assert_eq!(Backend::parse("avx512"), Some(Backend::Avx512));
        assert_eq!(Backend::parse("AVX512F"), Some(Backend::Avx512));
        assert_eq!(Backend::parse("neon"), Some(Backend::Neon));
        assert_eq!(Backend::parse("wat"), None);
    }

    #[test]
    fn detected_backend_is_supported_and_scalar_always_is() {
        assert!(detected().supported());
        assert!(Backend::Scalar.supported());
        #[cfg(target_arch = "x86_64")]
        assert!(Backend::Sse2.supported());
        #[cfg(target_arch = "x86_64")]
        assert!(!Backend::Neon.supported());
    }

    #[test]
    fn set_backend_rejects_unsupported() {
        #[cfg(target_arch = "x86_64")]
        assert!(!set_backend(Backend::Neon));
        #[cfg(target_arch = "aarch64")]
        assert!(!set_backend(Backend::Avx2));
        assert!(set_backend(detected()));
    }

    /// The combine tree is the documented dataflow: checked against a
    /// hand-evaluated instance where every accumulator is distinct.
    #[test]
    fn combine_tree_shape() {
        let mut acc = [0.0f32; 32];
        for (l, a) in acc.iter_mut().enumerate() {
            *a = (l + 1) as f32;
        }
        let t: Vec<f32> = (0..16).map(|k| acc[k] + acc[k + 16]).collect();
        let u: Vec<f32> = (0..8).map(|k| t[k] + t[k + 8]).collect();
        let v: Vec<f32> = (0..4).map(|k| u[k] + u[k + 4]).collect();
        let expect = (v[0] + v[2]) + (v[1] + v[3]);
        assert_eq!(scalar::combine(&acc), expect);
        assert_eq!(expect, 32.0 * 33.0 / 2.0); // Σ 1..=32
    }

    #[test]
    fn scalar_dot_short_lengths_are_plain_serial_sums() {
        // Below one 32-chunk the reduction is the ascending serial sum.
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert_eq!(dot_f32_on(Backend::Scalar, &a, &b), ((4.0 + 10.0) + 18.0));
        assert_eq!(dot_f32_on(Backend::Scalar, &[], &[]), 0.0);
    }
}
