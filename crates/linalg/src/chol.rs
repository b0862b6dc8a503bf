//! Cholesky factorization and triangular solves.
//!
//! The normal-equation matrices `H = ∗ AᵀA` arising in ALS are symmetric
//! positive semi-definite; when they are strictly positive definite a
//! Cholesky solve is the cheapest option. The solvers that fall back to
//! the `H†` used in the paper when the factorization fails live in
//! [`crate::lstsq`] ([`solve_row_sym`](crate::lstsq::solve_row_sym),
//! [`solve_xh_eq_u`](crate::lstsq::solve_xh_eq_u)) and
//! [`crate::cached`].

use crate::{LinalgError, Mat, Result};

/// Cholesky with a *relative* pivot threshold: factorization fails as
/// "not positive definite" if any pivot drops below
/// `rel_tol · max_diag(A)`. Solver callers use this to detect
/// near-singular Gram systems and divert them to the truncated
/// pseudoinverse — an exact solve through a tiny pivot amplifies noise by
/// `1/λ_min`, which is precisely the runaway the paper's clipped variants
/// guard against.
pub fn cholesky_with_tol(a: &Mat, rel_tol: f64) -> Result<Mat> {
    // cholesky_into resizes and zero-fills, so start from an empty Mat.
    let mut l = Mat::zeros(0, 0);
    cholesky_into(a, rel_tol, &mut l)?;
    Ok(l)
}

/// [`cholesky_with_tol`] writing into a caller-provided matrix: the
/// allocation-free form the per-event hot path uses (see
/// `sns_linalg::cached`). `l` is resized/zeroed internally, so any matrix
/// may be passed; on error its contents are unspecified.
///
/// The inner loops run over contiguous row slices (dot products), which
/// the compiler autovectorizes. The dot accumulates partial products
/// before subtracting (instead of subtracting one term at a time), a
/// reassociation that perturbs results only at machine-epsilon scale;
/// the parity proptests pin it to ≤ 1e-12 of the fresh reference solve.
pub fn cholesky_into(a: &Mat, rel_tol: f64, l: &mut Mat) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { op: "cholesky", shape: a.shape() });
    }
    let n = a.rows();
    let max_diag = (0..n).fold(0.0_f64, |m, i| m.max(a[(i, i)].abs()));
    let floor = rel_tol * max_diag;
    l.resize_to(n, n);
    l.fill_zero();
    let d = l.as_mut_slice();
    for i in 0..n {
        // Rows `< i` are finished; split so row `i` can be written while
        // earlier rows are read (the `L(i,k)·L(j,k)` dot products).
        let (prev, cur) = d.split_at_mut(i * n);
        let row_i = &mut cur[..n];
        for j in 0..i {
            let row_j = &prev[j * n..j * n + n];
            let sum = a[(i, j)] - crate::ops::dot(&row_i[..j], &row_j[..j]);
            row_i[j] = sum / row_j[j];
        }
        let sum = a[(i, i)] - crate::ops::dot(&row_i[..i], &row_i[..i]);
        if sum <= floor || sum <= 0.0 || !sum.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: i, value: sum });
        }
        row_i[i] = sum.sqrt();
    }
    Ok(())
}

/// [`cholesky_into`] that additionally returns the reciprocals of `L`'s
/// diagonal in `inv_diag`, and uses them internally: every `x / L(j,j)`
/// becomes `x · (1/L(j,j))`, turning ~`n²/2` hardware divisions (the
/// dominant cost of an `R = 20` factorization — division is an order of
/// magnitude slower than multiply and does not pipeline) into multiplies.
/// The substitution sweeps reuse `inv_diag` the same way.
///
/// `x·(1/d)` differs from `x/d` by ≤ 2 ulp, so results match
/// [`cholesky_into`] to machine precision, not bitwise — within the
/// 1e-12 envelope the parity proptests enforce.
pub fn cholesky_into_inv(
    a: &Mat,
    rel_tol: f64,
    l: &mut Mat,
    inv_diag: &mut Vec<f64>,
) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { op: "cholesky", shape: a.shape() });
    }
    let n = a.rows();
    let max_diag = (0..n).fold(0.0_f64, |m, i| m.max(a[(i, i)].abs()));
    let floor = rel_tol * max_diag;
    l.resize_to(n, n);
    inv_diag.resize(n, 0.0);
    // Only the lower triangle is written (and only it is ever read by the
    // substitution sweeps); the strict upper triangle keeps stale values,
    // saving the `n²` zero-fill of the boxed variant.
    let d = l.as_mut_slice();
    let ad = a.as_slice();
    for i in 0..n {
        let (prev, cur) = d.split_at_mut(i * n);
        let row_i = &mut cur[..n];
        let arow = &ad[i * n..(i + 1) * n];
        for j in 0..i {
            let row_j = &prev[j * n..j * n + n];
            let sum = arow[j] - crate::ops::dot(&row_i[..j], &row_j[..j]);
            row_i[j] = sum * inv_diag[j];
        }
        let sum = arow[i] - crate::ops::dot(&row_i[..i], &row_i[..i]);
        if sum <= floor || sum <= 0.0 || !sum.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: i, value: sum });
        }
        let diag = sum.sqrt();
        row_i[i] = diag;
        inv_diag[i] = 1.0 / diag;
    }
    Ok(())
}

/// Solves `L·y = b` for lower-triangular `L` (forward substitution), in place.
pub fn forward_sub(l: &Mat, b: &mut [f64]) {
    let n = l.rows();
    debug_assert_eq!(b.len(), n);
    for i in 0..n {
        let row = l.row(i);
        let (head, tail) = b.split_at_mut(i);
        tail[0] = (tail[0] - crate::ops::dot(&row[..i], head)) / row[i];
    }
}

/// Solves `Lᵀ·x = y` for lower-triangular `L` (backward substitution), in place.
///
/// Walks a *column* of `L` (stride `n`), which is cache-hostile; the
/// cached solver ([`crate::cached::SymSolveCache`]) materializes `Lᵀ`
/// row-major and substitutes over contiguous slices instead.
pub fn backward_sub_t(l: &Mat, y: &mut [f64]) {
    let n = l.rows();
    debug_assert_eq!(y.len(), n);
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
}

/// Solves `A·x = b` for symmetric positive-definite `A` via Cholesky,
/// overwriting `b` with the solution.
pub fn solve_chol_in_place(l: &Mat, b: &mut [f64]) {
    forward_sub(l, b);
    backward_sub_t(l, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gram, matmul};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spd(n: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(&mut rng, n + 2, n, 1.0);
        let mut g = gram(&a);
        for i in 0..n {
            g[(i, i)] += 0.1; // safely positive definite
        }
        g
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(6, 1);
        let l = cholesky_with_tol(&a, 0.0).unwrap();
        let rec = matmul(&l, &l.transpose()).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        // L is lower triangular.
        for i in 0..6 {
            for j in i + 1..6 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert!(matches!(
            cholesky_with_tol(&Mat::zeros(2, 3), 0.0),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[&[1., 2.], &[2., 1.]]); // eigenvalues 3, −1
        assert!(matches!(cholesky_with_tol(&a, 0.0), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn substitution_kernels() {
        let l = Mat::from_rows(&[&[2., 0.], &[1., 3.]]);
        let mut b = [4., 10.];
        forward_sub(&l, &mut b); // y = [2, 8/3]
        assert!((b[0] - 2.0).abs() < 1e-14);
        assert!((b[1] - 8.0 / 3.0).abs() < 1e-14);
        let mut y = [2., 3.];
        backward_sub_t(&l, &mut y); // solves Lᵀ x = y
        assert!((y[1] - 1.0).abs() < 1e-14);
        assert!((y[0] - 0.5).abs() < 1e-14);
    }
}
