//! Parity battery for the ported libm kernels, `simd::exp_f32` and
//! `simd::tanh_f32`.
//!
//! Their scalar tier is the definition: glibc 2.36's `expf` as x86-64
//! runs it with FMA, and fdlibm's `tanhf` over `expm1f`. The other
//! backends run a 16-lane body of the same per-element sequence, or the
//! definition itself, and must return the same bits on every input.
//!
//! The default tests check every backend this CPU supports against the
//! scalar tier on a strided sweep of the bit space, at every case
//! boundary of the two algorithms, and at awkward lengths and offsets.
//! The `#[ignore]`d sweeps check all 2³² inputs, in release:
//!
//! ```sh
//! cargo test -p t2vec-tensor --release --test simd_libm -- --ignored
//! ```
//!
//! Two of those sweeps compare the scalar tier with `f32::exp` and
//! `f32::tanh`, that is, with the *host's* libm. A libm with another
//! `expf` or `tanhf` (another glibc, musl, macOS) may differ; the sweep
//! then names the first input where it does. The repository's
//! definition is the ported one: the golden report and every stored
//! vector were written with it.

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

type Kernel = fn(Backend, &mut [f32]);

const KERNELS: [(&str, Kernel); 2] = [("exp", simd::exp_f32_on), ("tanh", simd::tanh_f32_on)];

/// Asserts that `kernel` on every supported backend returns the scalar
/// tier's bits for every element of `input`, and names the first
/// element where not.
fn assert_matches_scalar(name: &str, kernel: Kernel, input: &[f32]) {
    let mut want = input.to_vec();
    kernel(Backend::Scalar, &mut want);
    for be in backends().into_iter().skip(1) {
        let mut got = input.to_vec();
        kernel(be, &mut got);
        for ((x, w), g) in input.iter().zip(&want).zip(&got) {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{name} on {}: input {:#010x} ({x:e}) gave {g:e}, scalar {w:e}",
                be.name(),
                x.to_bits(),
            );
        }
    }
}

/// Bit patterns `b − n ..= b + n`, with both signs.
fn around(bits: u32, n: u32) -> impl Iterator<Item = f32> {
    (bits.saturating_sub(n)..=bits.saturating_add(n))
        .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
}

/// Inputs at and next to every case boundary of `expf`, `expm1f` and
/// `tanhf`, at both the boundary itself and half of it (`tanhf` calls
/// `expm1f` on `±2|x|`).
fn boundary_inputs() -> Vec<f32> {
    let mut edges: Vec<u32> = vec![
        0x0000_0000, // ±0
        0x0000_0001, // subnormals
        0x0040_0000,
        0x007f_ffff,
        0x0080_0000, // the least normal
        0x2400_0000, // 2⁻⁵⁵
        0x3300_0000, // 2⁻²⁵
        0x3eb1_7218, // 0.5·ln2
        0x3f85_1592, // 1.5·ln2
        0x3f80_0000, // 1
        0x41b0_0000, // 22
        0x4195_b844, // 27·ln2
        0x42b0_0000, // 88
        0x42b1_7180, // expm1f's overflow threshold
        0x42b1_7217, // expf's overflow threshold
        0x42b1_7218,
        0x7f7f_ffff, // the largest finite
        0xc2cf_f1b4, // expf's underflow threshold
        0xc2cf_f1b5,
        0xc2ce_8ecf, // expf's may-underflow threshold
    ];
    // expm1f's k = round(u / ln2) crossing 23 and 56, the edges of its
    // three rescaling cases (and 57 for the far side of 56).
    let ln2 = std::f32::consts::LN_2;
    edges.extend([22.5f32, 23.5, 55.5, 56.5, 57.5].map(|k| (k * ln2).to_bits()));
    let halves: Vec<u32> = edges
        .iter()
        .filter(|&&b| b >= 0x0100_0000)
        .map(|&b| b - 0x0080_0000)
        .collect();
    let mut out: Vec<f32> = edges
        .iter()
        .chain(&halves)
        .flat_map(|&b| around(b, 40))
        .collect();
    out.extend([f32::INFINITY, f32::NEG_INFINITY]);
    out.extend(
        [
            0x7fc0_0000u32,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7fff_ffff,
        ]
        .map(f32::from_bits),
    );
    out
}

#[test]
fn every_backend_equals_scalar_on_a_strided_sweep_of_the_bit_space() {
    let input: Vec<f32> = (0..=u32::MAX).step_by(65_521).map(f32::from_bits).collect();
    for (name, kernel) in KERNELS {
        assert_matches_scalar(name, kernel, &input);
    }
}

#[test]
fn every_backend_equals_scalar_at_the_case_boundaries() {
    let input = boundary_inputs();
    for (name, kernel) in KERNELS {
        assert_matches_scalar(name, kernel, &input);
        // One boundary value in an otherwise ordinary chunk: the chunk
        // falls back to the definition, lane for lane.
        for &x in input.iter().step_by(7) {
            let mut chunk = [0.375f32; 16];
            chunk[5] = x;
            assert_matches_scalar(name, kernel, &chunk);
        }
    }
}

#[test]
fn every_backend_equals_scalar_at_awkward_lengths_and_offsets() {
    // Gate-like values, with one out-of-domain element late in the buffer.
    let mut buf: Vec<f32> = (0..40).map(|i| (i as f32 - 19.5) * 0.37).collect();
    buf[37] = f32::NAN;
    for (name, kernel) in KERNELS {
        for n in [0, 1, 15, 16, 17, 33] {
            for off in [0, 1, 3] {
                assert_matches_scalar(name, kernel, &buf[off..off + n]);
            }
        }
    }
}

#[test]
fn the_definition_agrees_with_libm_on_ordinary_values() {
    // A host-independent sanity check: whatever the host's libm rounds,
    // the definition is within one ulp of it away from the edges.
    for i in -400..400 {
        let x = i as f32 * 0.0371;
        let (mut e, mut t) = ([x], [x]);
        simd::exp_f32_on(Backend::Scalar, &mut e);
        simd::tanh_f32_on(Backend::Scalar, &mut t);
        assert!(
            (e[0].to_bits() as i64 - x.exp().to_bits() as i64).abs() <= 1,
            "exp({x})"
        );
        assert!(
            (t[0].to_bits() as i64 - x.tanh().to_bits() as i64).abs() <= 1,
            "tanh({x})"
        );
    }
}

/// Runs `check` over all 2³² bit patterns, one 64 Ki-element block at a
/// time.
fn sweep_all(mut check: impl FnMut(&[f32])) {
    const BLOCK: u64 = 1 << 16;
    let mut block = Vec::with_capacity(BLOCK as usize);
    for start in (0..1u64 << 32).step_by(BLOCK as usize) {
        block.clear();
        block.extend((start..start + BLOCK).map(|b| f32::from_bits(b as u32)));
        check(&block);
    }
}

#[test]
#[ignore = "all 2³² inputs on every backend: run in release"]
fn exp_every_backend_equals_scalar_on_all_bit_patterns() {
    sweep_all(|block| assert_matches_scalar("exp", simd::exp_f32_on, block));
}

#[test]
#[ignore = "all 2³² inputs on every backend: run in release"]
fn tanh_every_backend_equals_scalar_on_all_bit_patterns() {
    sweep_all(|block| assert_matches_scalar("tanh", simd::tanh_f32_on, block));
}

/// Asserts the scalar tier equals the host's libm (`libm`) on `block`.
fn assert_matches_libm(name: &str, kernel: Kernel, libm: fn(f32) -> f32, block: &[f32]) {
    let mut got = block.to_vec();
    kernel(Backend::Scalar, &mut got);
    for (x, g) in block.iter().zip(&got) {
        let w = libm(*x);
        assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "{name}: input {:#010x} ({x:e}) gave {g:e}, the host libm {w:e}",
            x.to_bits(),
        );
    }
}

#[test]
#[ignore = "all 2³² inputs: run in release; checks the host's libm"]
fn exp_scalar_equals_host_libm_on_all_bit_patterns() {
    sweep_all(|block| assert_matches_libm("exp", simd::exp_f32_on, f32::exp, block));
}

#[test]
#[ignore = "all 2³² inputs: run in release; checks the host's libm"]
fn tanh_scalar_equals_host_libm_on_all_bit_patterns() {
    sweep_all(|block| assert_matches_libm("tanh", simd::tanh_f32_on, f32::tanh, block));
}
