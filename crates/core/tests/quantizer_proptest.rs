//! Property battery for the ANN tier's scalar i8 quantizer (ISSUE 8
//! satellite): the reconstruction error bound, idempotent re-encoding,
//! bitwise-identical codes across thread counts, bitwise-identical ADC
//! scores across every SIMD backend the host supports, and the
//! deterministic clamping of NaN / infinite inputs.
//!
//! Codes are computed in plain scalar arithmetic — one rounding
//! sequence per dimension, no reduction — so thread-count and backend
//! invariance must hold *exactly*, not approximately; every comparison
//! here is `==` on integers or `to_bits` on floats.

use proptest::prelude::*;
use t2vec_core::ann::ScalarQuantizer;
use t2vec_tensor::parallel;
use t2vec_tensor::simd::Backend;

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

/// Deterministic pseudo-random corpus: `rows` vectors of `dim` values
/// spread over `[-scale, scale]`, plus one constant dimension when
/// `dim > 2` (constant dimensions exercise the `scale == 0` path).
fn corpus(rows: usize, dim: usize, scale: f32, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..rows)
        .map(|_| {
            (0..dim)
                .map(|j| {
                    if dim > 2 && j == dim / 2 {
                        0.75 * scale // constant across the corpus
                    } else {
                        (next() * 2.0 - 1.0) * scale
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn encode_decode_error_within_half_step(
        rows in 2usize..40,
        dim in 1usize..24,
        scale_exp in -3i32..4,
        seed in 0u64..u64::MAX,
    ) {
        let scale = 10f32.powi(scale_exp);
        let vectors = corpus(rows, dim, scale, seed);
        let q = ScalarQuantizer::train(&vectors);
        for v in &vectors {
            let back = q.decode(&q.encode(v));
            for (j, (&x, &r)) in v.iter().zip(&back).enumerate() {
                // Half a quantization step plus float slack on the
                // affine arithmetic.
                let bound = 0.5 * q.scale()[j] + 2.0 * scale * f32::EPSILON + f32::MIN_POSITIVE;
                prop_assert!(
                    (x - r).abs() <= bound * 1.01,
                    "dim {}: |{} - {}| = {} > {}",
                    j, x, r, (x - r).abs(), bound
                );
            }
        }
    }

    #[test]
    fn reencoding_a_reconstruction_is_idempotent(
        rows in 2usize..30,
        dim in 1usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let vectors = corpus(rows, dim, 5.0, seed);
        let q = ScalarQuantizer::train(&vectors);
        for v in &vectors {
            let codes = q.encode(v);
            let again = q.encode(&q.decode(&codes));
            prop_assert_eq!(&again, &codes, "encode∘decode must fix codes");
        }
    }

    #[test]
    fn out_of_range_values_saturate_and_stay_fixed(
        dim in 1usize..12,
        seed in 0u64..u64::MAX,
        factor in 2f32..100.0,
    ) {
        let vectors = corpus(8, dim, 1.0, seed);
        let q = ScalarQuantizer::train(&vectors);
        // Far beyond the training range on both sides.
        let high: Vec<f32> = vec![factor * 10.0; dim];
        let low: Vec<f32> = vec![-factor * 10.0; dim];
        for (v, extreme_code) in [(&high, 127i8), (&low, -128i8)] {
            let codes = q.encode(v);
            for (j, &c) in codes.iter().enumerate() {
                if q.scale()[j] == 0.0 {
                    prop_assert_eq!(c, 0, "constant dim encodes to 0");
                } else {
                    prop_assert_eq!(c, extreme_code, "dim {} must saturate", j);
                }
            }
            prop_assert_eq!(q.encode(&q.decode(&codes)), codes);
        }
    }

    #[test]
    fn codes_are_bitwise_identical_across_thread_counts(
        rows in 1usize..60,
        dim in 1usize..20,
        seed in 0u64..u64::MAX,
    ) {
        let vectors = corpus(rows, dim, 2.0, seed);
        let q = ScalarQuantizer::train(&vectors);
        parallel::set_threads(1);
        let serial = q.encode_batch(&vectors);
        parallel::set_threads(4);
        let parallelised = q.encode_batch(&vectors);
        parallel::set_threads(1);
        prop_assert_eq!(serial, parallelised, "codes must not depend on threads");
    }

    #[test]
    fn adc_scores_are_bitwise_identical_across_backends(
        rows in 1usize..30,
        dim in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let vectors = corpus(rows + 1, dim, 3.0, seed);
        let q = ScalarQuantizer::train(&vectors);
        let (query, stored) = vectors.split_first().unwrap();
        let mut codes = Vec::new();
        let norms: Vec<f32> = stored.iter().map(|v| q.encode_into(v, &mut codes)).collect();
        let adc = q.adc_query(query);
        let mut dots = Vec::new();
        let scores = |be: Backend, dots: &mut Vec<i32>| -> Vec<u32> {
            adc.scan_on(be, &codes, &norms, dots).map(f32::to_bits).collect()
        };
        let reference = scores(Backend::Scalar, &mut dots);
        prop_assert_eq!(reference.len(), stored.len());
        for be in backends() {
            prop_assert_eq!(
                &scores(be, &mut dots), &reference,
                "ADC scores diverged on {}", be.name()
            );
        }
    }

    #[test]
    fn non_finite_inputs_clamp_deterministically(
        dim in 1usize..12,
        nan_at in 0usize..12,
        inf_at in 0usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let vectors = corpus(6, dim, 1.0, seed);
        let q = ScalarQuantizer::train(&vectors);
        let mut v = vectors[0].clone();
        // Infinity first so NaN wins when both land on the same index
        // (the NaN assertion below is unconditional).
        v[inf_at % dim] = if seed % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
        v[nan_at % dim] = f32::NAN;
        let first = q.encode(&v);
        let second = q.encode(&v);
        prop_assert_eq!(&first, &second, "clamping must be deterministic");
        prop_assert_eq!(first[nan_at % dim].min(0), first[nan_at % dim],
            "NaN maps to the lowest code, never a positive one");
        if nan_at % dim != inf_at % dim && q.scale()[inf_at % dim] != 0.0 {
            let expect = if seed % 2 == 0 { 127i8 } else { -128 };
            prop_assert_eq!(first[inf_at % dim], expect, "infinities saturate");
        }
    }
}
