//! Exact sparse fitness evaluation.
//!
//! Fitness (Section VI-A) is `1 − ‖X − X̃‖_F / ‖X‖_F`. For a sparse `X`
//! and a Kruskal `X̃` the residual norm expands as
//!
//! ```text
//! ‖X − X̃‖² = ‖X‖² − 2⟨X, X̃⟩ + ‖X̃‖²
//! ```
//!
//! where `‖X‖²` is maintained by the window, `⟨X, X̃⟩` costs `O(|X|·M·R)`,
//! and `‖X̃‖²` costs `O(M·R²)` via the Gram identity — no dense
//! reconstruction ever happens.

use crate::grams::compute_grams;
use crate::kruskal::KruskalTensor;
use crate::mttkrp::inner_with_kruskal;
use sns_linalg::Mat;
use sns_tensor::SparseTensor;

/// Fitness of `k` against `x`, recomputing Gram matrices from scratch.
pub fn fitness(x: &SparseTensor, k: &KruskalTensor) -> f64 {
    let grams = compute_grams(&k.factors);
    fitness_with_grams(x, k, &grams)
}

/// Fitness of `k` against `x`, reusing maintained Gram matrices.
///
/// Returns 1.0 for an empty window with a zero reconstruction and −∞-free
/// values otherwise (an empty window with a non-zero reconstruction gives
/// fitness −∞ in theory; we clamp the denominator instead and report the
/// conventional 0-denominator result of 1.0 only for exact matches).
/// Returns NaN when the residual is not finite (a NaN or infinite factor
/// entry), so a diverged model never reports a fit.
pub fn fitness_with_grams(x: &SparseTensor, k: &KruskalTensor, grams: &[Mat]) -> f64 {
    let x_sq = x.norm_sq();
    let inner = inner_with_kruskal(x, k);
    let k_sq = k.norm_sq_from_grams(grams);
    let resid_sq = x_sq - 2.0 * inner + k_sq;
    if !resid_sq.is_finite() {
        return f64::NAN;
    }
    // Clamp the cancellation error of the expansion, never a NaN.
    let resid_sq = resid_sq.max(0.0);
    if x_sq == 0.0 {
        return if resid_sq == 0.0 { 1.0 } else { f64::NEG_INFINITY };
    }
    1.0 - (resid_sq.sqrt() / x_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sns_tensor::{Coord, DenseTensor, Shape};

    #[test]
    fn perfect_reconstruction_has_fitness_one() {
        // Rank-1 tensor reconstructed by its own factorization.
        let mut k = KruskalTensor::zeros(&[2, 2], 1);
        k.factors[0][(0, 0)] = 1.0;
        k.factors[0][(1, 0)] = 2.0;
        k.factors[1][(0, 0)] = 3.0;
        k.factors[1][(1, 0)] = 4.0;
        let dense = k.reconstruct_dense();
        let x = dense.to_sparse();
        assert!((fitness(&x, &k) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_reconstruction_has_fitness_zero() {
        let mut x = SparseTensor::new(Shape::new(&[2, 2]));
        x.add(&Coord::new(&[0, 0]), 3.0);
        let k = KruskalTensor::zeros(&[2, 2], 2);
        // ‖X − 0‖/‖X‖ = 1 → fitness 0.
        assert!((fitness(&x, &k)).abs() < 1e-12);
    }

    #[test]
    fn non_finite_model_has_nan_fitness() {
        let mut k = KruskalTensor::zeros(&[2, 2], 1);
        k.factors[0][(0, 0)] = 1.0;
        k.factors[1][(0, 0)] = 1.0;
        let x = k.reconstruct_dense().to_sparse();
        k.factors[0][(1, 0)] = f64::NAN;
        assert!(fitness(&x, &k).is_nan());
    }

    #[test]
    fn matches_dense_bruteforce() {
        let mut rng = StdRng::seed_from_u64(11);
        let dims = [3usize, 4, 2];
        let mut x = SparseTensor::new(Shape::new(&dims));
        for _ in 0..10 {
            let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
            x.add(&Coord::new(&c), rng.gen_range(1..4) as f64);
        }
        let k = KruskalTensor::random(&mut rng, &dims, 3, 0.5);
        let dense_x = DenseTensor::from_sparse(&x);
        let dense_k = k.reconstruct_dense();
        let brute = 1.0 - dense_x.dist(&dense_k) / dense_x.norm();
        assert!((fitness(&x, &k) - brute).abs() < 1e-9);
    }

    #[test]
    fn empty_window_conventions() {
        let x = SparseTensor::new(Shape::new(&[2, 2]));
        let kz = KruskalTensor::zeros(&[2, 2], 1);
        assert_eq!(fitness(&x, &kz), 1.0);
        let mut rng = StdRng::seed_from_u64(12);
        let kr = KruskalTensor::random(&mut rng, &[2, 2], 1, 1.0);
        assert_eq!(fitness(&x, &kr), f64::NEG_INFINITY);
    }

    #[test]
    fn fitness_with_grams_consistent() {
        let mut rng = StdRng::seed_from_u64(13);
        let dims = [3usize, 3, 3];
        let mut x = SparseTensor::new(Shape::new(&dims));
        for _ in 0..8 {
            let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
            x.add(&Coord::new(&c), 1.0);
        }
        let k = KruskalTensor::random(&mut rng, &dims, 2, 1.0);
        let grams = compute_grams(&k.factors);
        assert!((fitness(&x, &k) - fitness_with_grams(&x, &k, &grams)).abs() < 1e-12);
    }
}
