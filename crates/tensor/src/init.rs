//! Parameter initialisation schemes.

use crate::matrix::Matrix;
use rand::{Rng, RngExt};

/// Uniform initialisation in `[-scale, scale]`.
pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.random_range(-scale..=scale))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot uniform initialisation: `U(±sqrt(6 / (fan_in + fan_out)))`.
///
/// The standard choice for tanh/sigmoid recurrent layers such as the GRU.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let scale = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, scale, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::det_rng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = det_rng(1);
        let m = uniform(10, 10, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|&v| (-0.5..=0.5).contains(&v)));
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let mut rng = det_rng(2);
        let small = xavier_uniform(4, 4, &mut rng);
        let large = xavier_uniform(400, 400, &mut rng);
        let max_small = small.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let max_large = large.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        assert!(max_large < max_small);
    }
}
