//! Moore–Penrose pseudoinverse.
//!
//! The paper's update rules apply `H†` where `H = ∗_{n≠m} A(n)ᵀA(n)` is a
//! symmetric PSD `R × R` matrix that can be rank-deficient (e.g. when a
//! factor column collapses). [`pinv_sym`] computes `H†` through the Jacobi
//! eigendecomposition with a relative spectral cutoff; it is the only
//! pseudoinverse the streaming algorithms need.

use crate::eigen::eigen_sym;
use crate::{LinalgError, Mat, Result, EPS_FACTOR};

/// Pseudoinverse of a symmetric matrix via eigendecomposition.
///
/// Eigenvalues with `|λ| ≤ max|λ| · n · EPS_FACTOR` are treated as zero,
/// which makes the result stable under the tiny negative eigenvalues that
/// floating-point Gram computations produce.
pub fn pinv_sym(a: &Mat) -> Result<Mat> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { op: "pinv_sym", shape: a.shape() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Mat::zeros(0, 0));
    }
    let e = eigen_sym(a)?;
    let max_abs = e.values.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let cutoff = max_abs * n as f64 * EPS_FACTOR;
    // A† = V · diag(1/λ or 0) · Vᵀ
    let mut out = Mat::zeros(n, n);
    for k in 0..n {
        let lam = e.values[k];
        if lam.abs() <= cutoff {
            continue;
        }
        let inv = 1.0 / lam;
        // out += inv * v_k v_kᵀ  (rank-1 update, exploiting symmetry)
        for i in 0..n {
            let vik = e.vectors[(i, k)];
            if vik == 0.0 {
                continue;
            }
            let w = inv * vik;
            for j in 0..n {
                out[(i, j)] += w * e.vectors[(j, k)];
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gram, matmul};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: &Mat, b: &Mat, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// Checks the four Penrose conditions.
    fn penrose(a: &Mat, p: &Mat, tol: f64) {
        let apa = matmul(&matmul(a, p).unwrap(), a).unwrap();
        assert!(approx(&apa, a, tol), "A·A†·A = A failed");
        let pap = matmul(&matmul(p, a).unwrap(), p).unwrap();
        assert!(approx(&pap, p, tol), "A†·A·A† = A† failed");
        let ap = matmul(a, p).unwrap();
        assert!(approx(&ap, &ap.transpose(), tol), "A·A† symmetric failed");
        let pa = matmul(p, a).unwrap();
        assert!(approx(&pa, &pa.transpose(), tol), "A†·A symmetric failed");
    }

    #[test]
    fn pinv_sym_inverts_nonsingular() {
        let mut rng = StdRng::seed_from_u64(21);
        let b = Mat::random(&mut rng, 8, 5, 1.0);
        let mut g = gram(&b);
        for i in 0..5 {
            g[(i, i)] += 0.5;
        }
        let gi = pinv_sym(&g).unwrap();
        let prod = matmul(&g, &gi).unwrap();
        assert!(approx(&prod, &Mat::identity(5), 1e-9));
    }

    #[test]
    fn pinv_sym_rank_deficient() {
        // Rank-1: vvᵀ with v = [1,2]. Pseudoinverse is vvᵀ / ‖v‖⁴.
        let v = Mat::from_rows(&[&[1.0], &[2.0]]);
        let a = matmul(&v, &v.transpose()).unwrap();
        let p = pinv_sym(&a).unwrap();
        penrose(&a, &p, 1e-10);
        assert!((p[(0, 0)] - 1.0 / 25.0).abs() < 1e-12);
        assert!((p[(1, 1)] - 4.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn pinv_sym_zero_matrix_is_zero() {
        let p = pinv_sym(&Mat::zeros(4, 4)).unwrap();
        assert_eq!(p.frob_norm(), 0.0);
    }

    #[test]
    fn pinv_sym_rejects_non_square() {
        assert!(pinv_sym(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn pinv_empty_shapes() {
        let p = pinv_sym(&Mat::zeros(0, 0)).unwrap();
        assert_eq!(p.shape(), (0, 0));
    }

    #[test]
    fn pinv_sym_ignores_float_noise_negative_eigs() {
        // A PSD matrix perturbed by tiny asymmetric noise must still produce
        // a finite pseudoinverse.
        let mut rng = StdRng::seed_from_u64(23);
        let b = Mat::random(&mut rng, 6, 4, 1.0);
        let mut g = gram(&b);
        g[(0, 1)] += 1e-16;
        let p = pinv_sym(&g).unwrap();
        assert!(p.is_finite());
    }
}
