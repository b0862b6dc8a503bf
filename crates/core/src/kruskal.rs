//! The Kruskal (CP) factorization object `X̃ = [[λ; A(1), …, A(M)]]`.

use rand::Rng;
use sns_linalg::Mat;
use sns_tensor::{Coord, DenseTensor, Shape};

/// A rank-`R` CP factorization: `M` factor matrices `A(m) ∈ R^{N_m×R}`
/// plus column weights `λ ∈ R^R`.
///
/// The streaming updaters other than SNS_MAT keep factors unnormalized and
/// `λ = 1`; SNS_MAT and batch ALS normalize columns and carry the scale in
/// `λ` (Algorithm 2, footnote 1).
#[derive(Debug, Clone)]
pub struct KruskalTensor {
    /// Factor matrices, one per mode (the time mode is last).
    pub factors: Vec<Mat>,
    /// Column weights.
    pub lambda: Vec<f64>,
}

impl KruskalTensor {
    /// Creates a factorization with uniform random non-negative entries in
    /// `[0, scale)` and unit weights.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], rank: usize, scale: f64) -> Self {
        let factors = dims.iter().map(|&n| Mat::random(rng, n, rank, scale)).collect();
        KruskalTensor { factors, lambda: vec![1.0; rank] }
    }

    /// Creates an all-zero factorization (useful as a placeholder).
    pub fn zeros(dims: &[usize], rank: usize) -> Self {
        let factors = dims.iter().map(|&n| Mat::zeros(n, rank)).collect();
        KruskalTensor { factors, lambda: vec![1.0; rank] }
    }

    /// CP rank `R`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.lambda.len()
    }

    /// Number of modes `M`.
    #[inline]
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Mode lengths.
    pub fn dims(&self) -> Vec<usize> {
        self.factors.iter().map(|f| f.rows()).collect()
    }

    /// Total number of parameters (`R · Σ N_m`), the quantity of Fig. 1d.
    pub fn num_parameters(&self) -> usize {
        self.factors.iter().map(|f| f.rows() * f.cols()).sum()
    }

    /// Evaluates the reconstruction `x̃_J = Σ_r λ_r Π_m a(m)_{j_m r}`.
    pub fn eval(&self, coord: &Coord) -> f64 {
        debug_assert_eq!(coord.order(), self.order());
        let r = self.rank();
        let mut acc = 0.0;
        for k in 0..r {
            let mut prod = self.lambda[k];
            if prod == 0.0 {
                continue;
            }
            for (m, f) in self.factors.iter().enumerate() {
                prod *= f.row(coord.get(m) as usize)[k];
                if prod == 0.0 {
                    break;
                }
            }
            acc += prod;
        }
        acc
    }

    /// Squared Frobenius norm of the reconstruction,
    /// `‖X̃‖² = Σ_{r,s} λ_r λ_s Π_m (A(m)ᵀA(m))_{rs}`, computed from the
    /// supplied Gram matrices in `O(M·R²)`.
    pub fn norm_sq_from_grams(&self, grams: &[Mat]) -> f64 {
        debug_assert_eq!(grams.len(), self.order());
        let r = self.rank();
        let mut acc = 0.0;
        for i in 0..r {
            for j in 0..r {
                let mut prod = self.lambda[i] * self.lambda[j];
                for g in grams {
                    prod *= g[(i, j)];
                    if prod == 0.0 {
                        break;
                    }
                }
                acc += prod;
            }
        }
        // Clamp cancellation below zero, but let a NaN through: `max`
        // would turn a non-finite model into a perfect-looking zero.
        if acc < 0.0 {
            0.0
        } else {
            acc
        }
    }

    /// Folds the weights `λ` into the factor matrices, distributing
    /// `λ_r^{1/M}` to each mode's column `r`, and resets `λ = 1`. The
    /// reconstruction is unchanged. The fast updaters require this form
    /// (they model `X̃ = [[A(1),…,A(M)]]` without weights).
    ///
    /// Negative weights keep their sign on the first mode.
    pub fn distribute_lambda(&mut self) {
        let m = self.order() as f64;
        for r in 0..self.rank() {
            let lam = self.lambda[r];
            if lam == 1.0 {
                continue;
            }
            let mag = lam.abs().powf(1.0 / m);
            for (mode, f) in self.factors.iter_mut().enumerate() {
                let scale = if mode == 0 { mag * lam.signum() } else { mag };
                for i in 0..f.rows() {
                    f[(i, r)] *= scale;
                }
            }
            self.lambda[r] = 1.0;
        }
    }

    /// Materializes the reconstruction densely (test oracle; exponential in
    /// order, use on small shapes only).
    pub fn reconstruct_dense(&self) -> DenseTensor {
        let shape = Shape::new(&self.dims());
        let mut out = DenseTensor::zeros(shape.clone());
        for c in shape.iter_coords() {
            *out.get_mut(&c) = self.eval(&c);
        }
        out
    }

    /// Validates that `grams` structurally matches this factorization —
    /// one `R×R` Gram per mode, every factor with `R` columns — and,
    /// when `require_unit_lambda`, that all weights are 1 (the form the
    /// fast updaters and incremental baselines require). The single
    /// shape check behind every state-restore path; returns a
    /// description of the first inconsistency.
    pub fn check_gram_shapes(
        &self,
        grams: &[Mat],
        require_unit_lambda: bool,
    ) -> Result<(), String> {
        let rank = self.rank();
        if self.order() == 0 {
            return Err("factorization has no modes".to_string());
        }
        if grams.len() != self.order() {
            return Err(format!("{} grams for {} modes", grams.len(), self.order()));
        }
        for (m, f) in self.factors.iter().enumerate() {
            if f.cols() != rank {
                return Err(format!("mode {m} factor has {} cols, rank is {rank}", f.cols()));
            }
            if grams[m].shape() != (rank, rank) {
                return Err(format!("mode {m} gram is {:?}, want {rank}x{rank}", grams[m].shape()));
            }
        }
        if require_unit_lambda && !self.lambda.iter().all(|&l| l == 1.0) {
            return Err("factors must carry unit weights".to_string());
        }
        Ok(())
    }

    /// True if every factor entry and weight is finite.
    pub fn is_finite(&self) -> bool {
        self.lambda.iter().all(|l| l.is_finite()) && self.factors.iter().all(|f| f.is_finite())
    }

    /// Largest absolute factor entry (diagnostic for the instability that
    /// clipping prevents — Observation 3).
    pub fn max_abs_entry(&self) -> f64 {
        self.factors.iter().map(|f| f.max_abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sns_linalg::ops::gram;

    fn sample() -> KruskalTensor {
        let mut rng = StdRng::seed_from_u64(7);
        KruskalTensor::random(&mut rng, &[3, 4, 2], 5, 1.0)
    }

    #[test]
    fn shape_metadata() {
        let k = sample();
        assert_eq!(k.rank(), 5);
        assert_eq!(k.order(), 3);
        assert_eq!(k.dims(), vec![3, 4, 2]);
        assert_eq!(k.num_parameters(), 5 * (3 + 4 + 2));
    }

    #[test]
    fn eval_matches_bruteforce() {
        let k = sample();
        let c = Coord::new(&[2, 1, 0]);
        let mut expect = 0.0;
        for r in 0..5 {
            expect +=
                k.lambda[r] * k.factors[0][(2, r)] * k.factors[1][(1, r)] * k.factors[2][(0, r)];
        }
        assert!((k.eval(&c) - expect).abs() < 1e-12);
    }

    #[test]
    fn norm_from_grams_matches_dense() {
        let k = sample();
        let grams: Vec<Mat> = k.factors.iter().map(gram).collect();
        let from_grams = k.norm_sq_from_grams(&grams);
        let dense = k.reconstruct_dense();
        let direct = dense.norm().powi(2);
        assert!((from_grams - direct).abs() < 1e-9 * (1.0 + direct), "{from_grams} vs {direct}");
    }

    #[test]
    fn finiteness_and_max_entry() {
        let mut k = sample();
        assert!(k.is_finite());
        assert!(k.max_abs_entry() <= 1.0);
        k.factors[0][(0, 0)] = f64::INFINITY;
        assert!(!k.is_finite());
    }

    #[test]
    fn random_is_seeded() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let k1 = KruskalTensor::random(&mut a, &[3, 3], 2, 0.5);
        let k2 = KruskalTensor::random(&mut b, &[3, 3], 2, 0.5);
        assert_eq!(k1.factors[0], k2.factors[0]);
    }
}
