//! Ports of the two libm functions the GRU gates call, `expf` and
//! `tanhf`, equal to glibc 2.36 on x86-64 bit for bit, plus a 16-lane
//! body of each for the vector backends.
//!
//! * [`expf`] is glibc's `e_expf.c` as compiled into its `__expf_fma`
//!   ifunc variant, the one `f32::exp` runs on a CPU with FMA. The
//!   compiler contracted five of its multiply-adds into FMAs; each is an
//!   `f64::mul_add` here, which is exactly rounded on every target. The
//!   32-entry table is copied out of the shipped `libm.so.6`.
//! * [`tanhf`] is fdlibm's `s_tanhf.c` over `s_expm1f.c` (glibc ships
//!   both without an ifunc), in plain `f32` with no FMA.
//!
//! These scalar functions *define* `simd::exp_f32` and `simd::tanh_f32`.
//! The lane bodies ([`exp_lanes`], [`tanh_lanes`]) run, for every element,
//! the operation sequence the scalar function runs for it: every case of
//! the reduction is computed and the element's own case is selected, so
//! there is no branch to vectorise away. A 16-element chunk with any
//! element outside the lane body's domain goes through the scalar
//! function instead. `tests/simd_libm.rs` sweeps every 32-bit pattern
//! through both (`#[ignore]`d, run in release).

/// Elements per lane-body chunk.
const LANES: usize = 16;

// ---- exp: glibc e_expf.c, __expf_fma ---------------------------------

/// `N / ln 2` with `N = 32`.
const INV_LN2_N: u64 = 0x4047_1547_652b_82fe;
/// `0x1.8p52`: adding it rounds a double to an integer in the low bits.
const SHIFT: u64 = 0x4338_0000_0000_0000;
/// The cubic for `2^(r/N)`: `C0·r³ + C1·r² + C2·r + 1`.
const C0: u64 = 0x3ebc_6af8_4b91_2394;
const C1: u64 = 0x3f2e_bfce_50fa_c4f3;
const C2: u64 = 0x3f96_2e42_ff0c_52d6;
/// `EXP_TAB[i] = bits(2^(i/32)) − (i << 47)`, `__exp2f_data.tab` as
/// stored in the shipped `libm.so.6`.
const EXP_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `expf(x)`, equal to glibc's `__expf_fma` on every input.
pub(super) fn expf(x: f32) -> f32 {
    let bits = x.to_bits();
    let abstop = (bits >> 20) & 0x7ff;
    if abstop > 0x42a {
        // |x| ≥ 88, or not finite.
        if bits == 0xff80_0000 {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY; // __math_oflowf: 0x1p97f · 0x1p97f
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0; // __math_uflowf: 0x1p-95f · 0x1p-95f
        }
        if x < f32::from_bits(0xc2ce_8ecf) {
            return f32::from_bits(1); // __math_may_uflowf: 0x1.4p-75f²
        }
    }
    exp_core(x)
}

/// The reduction and cubic of [`expf`], for `|x| < 88.73`.
#[inline(always)]
fn exp_core(x: f32) -> f32 {
    let (inv_ln2_n, shift) = (f64::from_bits(INV_LN2_N), f64::from_bits(SHIFT));
    let (c0, c1, c2) = (f64::from_bits(C0), f64::from_bits(C1), f64::from_bits(C2));
    let xd = f64::from(x);
    let kraw = inv_ln2_n.mul_add(xd, shift);
    let ki = kraw.to_bits();
    let kd = kraw - shift;
    let r = inv_ln2_n.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = c0.mul_add(r, c1).mul_add(r * r, c2.mul_add(r, 1.0));
    (y * s) as f32
}

/// [`expf`] over a slice, one element at a time.
pub(super) fn exp_scalar(x: &mut [f32]) {
    for v in x {
        *v = expf(*v);
    }
}

/// [`expf`] over a slice, 16 elements at a time. Inlined into each
/// backend's `#[target_feature]` wrapper, which must enable FMA.
#[inline(always)]
pub(super) fn exp_lanes(x: &mut [f32]) {
    map_lanes::<Exp>(x)
}

struct Exp;

impl LaneOp for Exp {
    const PAD: f32 = 0.0;

    /// |x| < 88 and not NaN: [`expf`]'s special cases start at 88.
    #[inline(always)]
    fn fast(c: &[f32; LANES]) -> bool {
        c.iter().fold(0, |m, v| m.max(v.to_bits() & 0x7fff_ffff)) < 0x42b0_0000
    }

    #[inline(always)]
    fn lane(x: f32) -> f32 {
        exp_core(x)
    }

    fn scalar(x: f32) -> f32 {
        expf(x)
    }
}

// ---- tanh: fdlibm s_tanhf.c over s_expm1f.c ---------------------------

const LN2_HI: u32 = 0x3f31_7180;
const LN2_LO: u32 = 0x3717_f7d1;
const INV_LN2: u32 = 0x3fb8_aa3b;
/// expm1's scaled rational coefficients.
const Q: [u32; 5] = [
    0xbd08_8889,
    0x3ad0_0d01,
    0xb8a6_70cd,
    0x3686_7e54,
    0xb457_edbb,
];
const TINY: u32 = 0x0da2_4260;

#[inline(always)]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// `expm1f(x)`, fdlibm's `s_expm1f.c`, for the arguments [`tanhf`]
/// passes it: `2⁻⁵⁴ ≤ |x| < 44`, and `x > −2` when negative. fdlibm's
/// filters for NaN, `|x| ≥ 88.72` and `x ≤ −27·ln2` cannot fire there
/// and are left out.
fn expm1f(x: f32) -> f32 {
    let one = 1.0f32;
    let xsb = x.is_sign_negative();
    let hx = x.to_bits() & 0x7fff_ffff;
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2
            if xsb {
                (x + f(LN2_HI), -f(LN2_LO), -1)
            } else {
                (x - f(LN2_HI), f(LN2_LO), 1)
            }
        } else {
            let k = (f(INV_LN2) * x + if xsb { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * f(LN2_HI), t * f(LN2_LO), k)
        };
        let xr = hi - lo;
        (xr, (hi - xr) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: fdlibm's `x - ((huge + x) - (huge + x))`, which is x.
        return x;
    } else {
        (x, 0.0, 0)
    };
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 =
        one + hxs * (f(Q[0]) + hxs * (f(Q[1]) + hxs * (f(Q[2]) + hxs * (f(Q[3]) + hxs * f(Q[4])))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            one + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        return scale(one - (e - x), k) - one;
    }
    if k < 23 {
        let t = f(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        scale(t - (e - x), k)
    } else {
        let t = f(((0x7f - k) as u32) << 23); // 2⁻ᵏ
        scale(x - (e + t) + one, k)
    }
}

/// Adds `k` to the exponent field of `y`.
#[inline(always)]
fn scale(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23))
}

/// `tanhf(x)`, fdlibm's `s_tanhf.c`, equal to glibc's on every input.
pub(super) fn tanhf(x: f32) -> f32 {
    let (one, two) = (1.0f32, 2.0f32);
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // ±∞ or NaN
        return if x.is_sign_negative() {
            one / x - one
        } else {
            one / x + one
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2⁻⁵⁵
            return x * (one + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| ≥ 1
            let t = expm1f(two * x.abs());
            one - two / (t + two)
        } else {
            let t = expm1f(-two * x.abs());
            -t / (t + two)
        }
    } else {
        one - f(TINY)
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// [`tanhf`] for `2⁻⁵⁵ ≤ |x| < 22`, with every branch of it and of
/// `expm1f` turned into a select. There `expm1f` sees `u = 2|x| ∈ [2, 44)`
/// or `u = −2|x| ∈ (−2, −2⁻⁵⁴]`, so its overflow and `−1` filters never
/// fire, and `k ∈ [−3, 63]`.
#[inline(always)]
fn tanh_core(x: f32) -> f32 {
    let a = x.abs();
    let big = a >= 1.0;
    let u = if big { 2.0 * a } else { -2.0 * a };

    // expm1f(u): its argument reduction, every case computed.
    let neg = u.is_sign_negative();
    let hu = u.to_bits() & 0x7fff_ffff;
    let reduce = hu > 0x3eb1_7218;
    let near = hu < 0x3f85_1592;
    // `(int)` of the C source, as a truncation and the 1.5·2²³ trick:
    // `as i32` saturates, which does not vectorise. |tk| < 2²².
    let tk = (f(INV_LN2) * u + if neg { -0.5 } else { 0.5 }).trunc();
    let kr = (tk + 12_582_912.0).to_bits() as i32 - 0x4b40_0000;
    let (hi_n, lo_n) = if neg {
        (u + f(LN2_HI), -f(LN2_LO))
    } else {
        (u - f(LN2_HI), f(LN2_LO))
    };
    let (hi, lo) = if near {
        (hi_n, lo_n)
    } else {
        (u - tk * f(LN2_HI), tk * f(LN2_LO))
    };
    let xr = hi - lo;
    let cr = (hi - xr) - lo;
    let k = if !reduce {
        0
    } else if near {
        if neg {
            -1
        } else {
            1
        }
    } else {
        kr
    };
    let (x1, c) = if reduce { (xr, cr) } else { (u, 0.0) };

    // The rest of expm1f, every case computed.
    let one = 1.0f32;
    let hfx = 0.5 * x1;
    let hxs = x1 * hfx;
    let r1 =
        one + hxs * (f(Q[0]) + hxs * (f(Q[1]) + hxs * (f(Q[2]) + hxs * (f(Q[3]) + hxs * f(Q[4])))));
    let t = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (6.0 - x1 * t));
    let y0 = x1 - (x1 * e0 - hxs);
    let e = x1 * (e0 - c) - c - hxs;
    let y_m1 = 0.5 * (x1 - e) - 0.5;
    let y_1 = if x1 < -0.25 {
        -2.0 * (e - (x1 + 0.5))
    } else {
        one + 2.0 * (x1 - e)
    };
    let y_far = scale(one - (e - x1), k) - one;
    let t_lt = f(0x3f80_0000 - (0x0100_0000 >> k.clamp(1, 22)));
    let y_lt = scale(t_lt - (e - x1), k);
    let t_ge = f(((0x7f - k.clamp(23, 56)) as u32) << 23);
    let y_ge = scale(x1 - (e + t_ge) + one, k);
    let em1 = if k == 0 {
        y0
    } else if k == -1 {
        y_m1
    } else if k == 1 {
        y_1
    } else if k <= -2 || k > 56 {
        y_far
    } else if k < 23 {
        y_lt
    } else {
        y_ge
    };
    // |u| < 2⁻²⁵: expm1f returns u itself.
    let t = if hu < 0x3300_0000 { u } else { em1 };

    // tanhf, with one division for both signs of the `|x| ≥ 1` test.
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { one - q } else { q };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// [`tanhf`] over a slice, one element at a time.
pub(super) fn tanh_scalar(x: &mut [f32]) {
    for v in x {
        *v = tanhf(*v);
    }
}

/// [`tanhf`] over a slice, 16 elements at a time. Inlined into each
/// backend's `#[target_feature]` wrapper.
#[inline(always)]
pub(super) fn tanh_lanes(x: &mut [f32]) {
    map_lanes::<Tanh>(x)
}

struct Tanh;

impl LaneOp for Tanh {
    const PAD: f32 = 0.5;

    /// 2⁻⁵⁵ ≤ |x| < 22 (so finite): one unsigned range test on the bits.
    #[inline(always)]
    fn fast(c: &[f32; LANES]) -> bool {
        c.iter().fold(0, |m, v| {
            m.max((v.to_bits() & 0x7fff_ffff).wrapping_sub(0x2400_0000))
        }) < 0x41b0_0000 - 0x2400_0000
    }

    #[inline(always)]
    fn lane(x: f32) -> f32 {
        tanh_core(x)
    }

    fn scalar(x: f32) -> f32 {
        tanhf(x)
    }
}

/// A function with a lane body for part of its domain. The methods are
/// static and `#[inline(always)]` (closures would be compiled apart
/// from the `#[target_feature]` wrapper, without its FMA).
trait LaneOp {
    /// A value in the lane body's domain, to pad a short tail.
    const PAD: f32;
    /// Whether every element of the chunk is in the lane body's domain.
    fn fast(c: &[f32; LANES]) -> bool;
    /// The lane body, on one element of a `fast` chunk.
    fn lane(x: f32) -> f32;
    /// The definition.
    fn scalar(x: f32) -> f32;
}

/// Runs `Op::lane` on each 16-element chunk of `x` whose elements are
/// all in its domain, and `Op::scalar` on every element of the other
/// chunks. A short tail is padded into one more chunk.
#[inline(always)]
fn map_lanes<Op: LaneOp>(x: &mut [f32]) {
    let mut chunks = x.chunks_exact_mut(LANES);
    for c in &mut chunks {
        run_chunk::<Op>(c.try_into().expect("a chunk of LANES elements"));
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut buf = [Op::PAD; LANES];
        buf[..tail.len()].copy_from_slice(tail);
        run_chunk::<Op>(&mut buf);
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

#[inline(always)]
fn run_chunk<Op: LaneOp>(c: &mut [f32; LANES]) {
    if Op::fast(c) {
        for v in c.iter_mut() {
            *v = Op::lane(*v);
        }
    } else {
        for v in c.iter_mut() {
            *v = Op::scalar(*v);
        }
    }
}

/// The lane bodies compiled for AVX-512 and AVX2, each with FMA so the
/// `mul_add`s are single instructions.
#[cfg(target_arch = "x86_64")]
pub(super) mod x86 {
    /// # Safety
    /// The CPU must support AVX-512 F and DQ, and FMA.
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    pub(in crate::simd) unsafe fn exp_avx512(x: &mut [f32]) {
        super::exp_lanes(x)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(in crate::simd) unsafe fn exp_avx2(x: &mut [f32]) {
        super::exp_lanes(x)
    }

    /// # Safety
    /// The CPU must support AVX-512 F and DQ, and FMA.
    #[target_feature(enable = "avx512f,avx512dq,fma")]
    pub(in crate::simd) unsafe fn tanh_avx512(x: &mut [f32]) {
        super::tanh_lanes(x)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(in crate::simd) unsafe fn tanh_avx2(x: &mut [f32]) {
        super::tanh_lanes(x)
    }
}
