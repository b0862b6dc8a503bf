//! Small least-squares solves via normal equations.
//!
//! All LS problems in this workspace have at most a few dozen unknowns and
//! arrive already in normal-equation form: a symmetric PSD Gram-side
//! matrix `H` and right-hand sides `U`, solved as `X = U·H†`. That route
//! is accurate enough and far cheaper than QR for our shapes.

use crate::ops::matmul;
use crate::pinv::pinv_sym;
use crate::{LinalgError, Mat, Result};

/// Relative pivot threshold below which a Gram system is treated as
/// rank-deficient and solved by truncated pseudoinverse instead of an
/// exact Cholesky solve.
pub const GRAM_PIVOT_RTOL: f64 = 1e-10;

/// Fast path for the ubiquitous `x = u · H†` with symmetric PSD `H`:
/// a Cholesky solve (`H` is symmetric, so `u·H† = (H†·uᵀ)ᵀ`), falling
/// back to the eigendecomposition pseudoinverse only when `H` is
/// singular. ~20× cheaper than forming `H†` for the well-conditioned
/// Gram systems that dominate per-event updates.
///
/// # Errors
/// The pseudoinverse's error when `H` is not finite (the Cholesky
/// attempt rejects it first) or its eigendecomposition does not converge.
pub fn solve_row_sym(h: &Mat, u: &[f64], out: &mut [f64]) -> Result<()> {
    debug_assert_eq!(h.rows(), h.cols());
    debug_assert_eq!(u.len(), h.rows());
    debug_assert_eq!(out.len(), h.rows());
    match crate::chol::cholesky_with_tol(h, GRAM_PIVOT_RTOL) {
        Ok(l) => {
            out.copy_from_slice(u);
            crate::chol::solve_chol_in_place(&l, out);
        }
        Err(_) => {
            // Near-singular: truncated pseudoinverse (zeroes the tiny
            // eigendirections instead of amplifying through them).
            let h_pinv = pinv_sym(h)?;
            crate::ops::row_times_mat(u, &h_pinv, out);
        }
    }
    Ok(())
}

/// Solves `X · H = U` for symmetric PSD `H` (i.e. `X = U·H†`), row-block
/// form of [`solve_row_sym`] used by full-matrix refreshes (Eq. 4).
pub fn solve_xh_eq_u(h: &Mat, u: &Mat) -> Result<Mat> {
    if h.rows() != h.cols() {
        return Err(LinalgError::NotSquare { op: "solve_xh_eq_u", shape: h.shape() });
    }
    if u.cols() != h.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_xh_eq_u",
            lhs: u.shape(),
            rhs: h.shape(),
        });
    }
    match crate::chol::cholesky_with_tol(h, GRAM_PIVOT_RTOL) {
        Ok(l) => {
            let mut x = u.clone();
            let mut col = vec![0.0; h.rows()];
            for i in 0..x.rows() {
                col.copy_from_slice(x.row(i));
                crate::chol::solve_chol_in_place(&l, &mut col);
                x.set_row(i, &col);
            }
            Ok(x)
        }
        Err(_) => {
            let h_pinv = pinv_sym(h)?;
            matmul(u, &h_pinv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn solve_row_sym_matches_pinv_route() {
        use crate::ops::gram;
        let mut rng = StdRng::seed_from_u64(33);
        let a = Mat::random(&mut rng, 10, 4, 1.0);
        let mut h = gram(&a);
        for i in 0..4 {
            h[(i, i)] += 0.1;
        }
        let u = [1.0, -2.0, 0.5, 3.0];
        let mut fast = [0.0; 4];
        solve_row_sym(&h, &u, &mut fast).unwrap();
        let hp = pinv_sym(&h).unwrap();
        let mut slow = [0.0; 4];
        crate::ops::row_times_mat(&u, &hp, &mut slow);
        for k in 0..4 {
            assert!((fast[k] - slow[k]).abs() < 1e-8, "{} vs {}", fast[k], slow[k]);
        }
    }

    #[test]
    fn solve_row_sym_singular_falls_back() {
        // Rank-1 H: Cholesky fails; pinv path must give the min-norm fit.
        let v = Mat::from_rows(&[&[1.0], &[2.0]]);
        let h = crate::ops::matmul(&v, &v.transpose()).unwrap();
        let u = [1.0, 2.0]; // in the row space
        let mut out = [0.0; 2];
        solve_row_sym(&h, &u, &mut out).unwrap();
        // x·H should reproduce u.
        let mut back = [0.0; 2];
        crate::ops::row_times_mat(&out, &h, &mut back);
        assert!((back[0] - 1.0).abs() < 1e-9 && (back[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_xh_matches_explicit_pinv() {
        use crate::ops::gram;
        let mut rng = StdRng::seed_from_u64(34);
        let a = Mat::random(&mut rng, 8, 3, 1.0);
        let mut h = gram(&a);
        for i in 0..3 {
            h[(i, i)] += 0.2;
        }
        let u = Mat::random(&mut rng, 5, 3, 1.0);
        let fast = solve_xh_eq_u(&h, &u).unwrap();
        let slow = matmul(&u, &pinv_sym(&h).unwrap()).unwrap();
        for i in 0..5 {
            for j in 0..3 {
                assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-8);
            }
        }
        assert!(solve_xh_eq_u(&Mat::zeros(2, 3), &u).is_err());
        assert!(solve_xh_eq_u(&Mat::identity(4), &u).is_err());
    }
}
