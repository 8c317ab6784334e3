//! `T2VEC_SIMD` env-override behaviour and dispatch-counter attestation.
//!
//! A single `#[test]` function on purpose: the active backend and the
//! process environment are global, so these assertions must not
//! interleave with each other (this file is its own test binary, so no
//! other tests share the globals either).

use t2vec_tensor::simd::{self, Backend};
use t2vec_tensor::Matrix;

#[test]
fn env_override_forced_fallback_and_dispatch_counters() {
    // --- forced scalar fallback -------------------------------------
    std::env::set_var("T2VEC_SIMD", "off");
    assert_eq!(simd::refresh_from_env(), Backend::Scalar);
    assert_eq!(simd::backend(), Backend::Scalar);
    std::env::set_var("T2VEC_SIMD", "scalar");
    assert_eq!(simd::refresh_from_env(), Backend::Scalar);

    // --- explicit ISA requests --------------------------------------
    #[cfg(target_arch = "x86_64")]
    {
        std::env::set_var("T2VEC_SIMD", "sse");
        assert_eq!(simd::refresh_from_env(), Backend::Sse2);
        std::env::set_var("T2VEC_SIMD", "avx2");
        let got = simd::refresh_from_env();
        if Backend::Avx2.supported() {
            assert_eq!(got, Backend::Avx2);
        } else {
            // Unsupported forced backend falls back to the reference
            // tier (with a warning), never to "next best".
            assert_eq!(got, Backend::Scalar);
        }
        std::env::set_var("T2VEC_SIMD", "avx512");
        let got = simd::refresh_from_env();
        if Backend::Avx512.supported() {
            assert_eq!(got, Backend::Avx512);
        } else {
            assert_eq!(got, Backend::Scalar);
        }
        // NEON can never run here: must fall back to scalar.
        std::env::set_var("T2VEC_SIMD", "neon");
        assert_eq!(simd::refresh_from_env(), Backend::Scalar);
    }

    // --- unrecognised values auto-detect ----------------------------
    std::env::set_var("T2VEC_SIMD", "turbo9000");
    assert_eq!(simd::refresh_from_env(), simd::detected());
    std::env::remove_var("T2VEC_SIMD");
    assert_eq!(simd::refresh_from_env(), simd::detected());

    // --- forced-off results are bitwise-equal to full dispatch ------
    let a: Vec<f32> = (0..131).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..131).map(|i| (i as f32 * 0.11).cos()).collect();
    std::env::set_var("T2VEC_SIMD", "off");
    simd::refresh_from_env();
    let scalar_dot = simd::dot_f32(&a, &b);
    let scalar_sq = simd::sq_dist_f32(&a, &b);
    std::env::remove_var("T2VEC_SIMD");
    simd::refresh_from_env();
    assert_eq!(simd::dot_f32(&a, &b).to_bits(), scalar_dot.to_bits());
    assert_eq!(simd::sq_dist_f32(&a, &b).to_bits(), scalar_sq.to_bits());

    // --- per-backend dispatch counters attest the path taken --------
    let ma = Matrix::from_vec(4, 8, (0..32).map(|i| i as f32 * 0.5).collect());
    let mb = Matrix::from_vec(8, 3, (0..24).map(|i| 1.0 - i as f32 * 0.25).collect());

    assert!(simd::set_backend(Backend::Scalar));
    let scalar_before = t2vec_obs::counter!("simd.dispatch.scalar").get();
    let mut product = Matrix::zeros(4, 3);
    ma.matmul_into(&mb, &mut product);
    assert_eq!(
        t2vec_obs::counter!("simd.dispatch.scalar").get(),
        scalar_before + 1,
        "a scalar-backend matmul must record one scalar dispatch"
    );

    let fast = simd::detected();
    assert!(simd::set_backend(fast));
    let fast_name = fast.name();
    let fast_before = counter_for(fast_name).get();
    let mut product2 = Matrix::full(4, 3, f32::NAN);
    ma.matmul_into(&mb, &mut product2);
    assert_eq!(
        counter_for(fast_name).get(),
        fast_before + 1,
        "a {fast_name}-backend matmul must record one {fast_name} dispatch"
    );

    // And of course the two products are bitwise identical.
    assert_eq!(product.as_slice(), product2.as_slice());
}

fn counter_for(name: &str) -> &'static t2vec_obs::metrics::Counter {
    match name {
        "scalar" => t2vec_obs::counter!("simd.dispatch.scalar"),
        "sse2" => t2vec_obs::counter!("simd.dispatch.sse2"),
        "avx2" => t2vec_obs::counter!("simd.dispatch.avx2"),
        "avx512" => t2vec_obs::counter!("simd.dispatch.avx512"),
        "neon" => t2vec_obs::counter!("simd.dispatch.neon"),
        other => panic!("unknown backend name {other}"),
    }
}
