//! Matrix and vector products used throughout CP decomposition.
//!
//! The naming follows the paper: `⊙` is the Khatri–Rao (column-wise
//! Kronecker) product, `∗` the Hadamard (element-wise) product, and
//! `AᵀA` the Gram matrix. The Khatri–Rao product is only ever materialized
//! for oracle tests — the streaming algorithms use row-wise shortcuts.

use crate::{LinalgError, Mat, Result};

/// `C = A · B`.
pub fn matmul(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut c = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (k, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = b.row(k);
            for (j, &bkj) in brow.iter().enumerate() {
                crow[j] += aik * bkj;
            }
        }
    }
    Ok(c)
}

/// `C = Aᵀ · B` without materializing the transpose.
pub fn matmul_transa(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_transa",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut c = Mat::zeros(a.cols(), b.cols());
    for k in 0..a.rows() {
        let arow = a.row(k);
        let brow = b.row(k);
        for (i, &aki) in arow.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let crow = c.row_mut(i);
            for (j, &bkj) in brow.iter().enumerate() {
                crow[j] += aki * bkj;
            }
        }
    }
    Ok(c)
}

/// Gram matrix `AᵀA` (symmetric, PSD), exploiting symmetry.
pub fn gram(a: &Mat) -> Mat {
    let n = a.cols();
    let mut g = Mat::zeros(n, n);
    for k in 0..a.rows() {
        let row = a.row(k);
        for i in 0..n {
            let ri = row[i];
            if ri == 0.0 {
                continue;
            }
            let grow = g.row_mut(i);
            for j in i..n {
                grow[j] += ri * row[j];
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..n {
        for j in 0..i {
            g[(i, j)] = g[(j, i)];
        }
    }
    g
}

/// Hadamard (element-wise) product `A ∗ B`.
pub fn hadamard(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.shape() != b.shape() {
        return Err(LinalgError::DimensionMismatch {
            op: "hadamard",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut c = a.clone();
    hadamard_assign(&mut c, b)?;
    Ok(c)
}

/// In-place Hadamard product `A ∗= B`.
pub fn hadamard_assign(a: &mut Mat, b: &Mat) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(LinalgError::DimensionMismatch {
            op: "hadamard_assign",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    a.as_mut_slice().iter_mut().zip(b.as_slice()).for_each(|(x, &y)| *x *= y);
    Ok(())
}

/// Khatri–Rao product `A ⊙ B` (column-wise Kronecker).
///
/// For `A ∈ R^{I×R}` and `B ∈ R^{J×R}` the result is `(I·J) × R` with
/// row `i·J + j` equal to `A(i,:) ∗ B(j,:)`. This row ordering matches the
/// Kolda–Bader matricization convention used by [`crate::ops`] consumers:
/// the *first* factor's index varies slowest.
pub fn khatri_rao(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "khatri_rao",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let r = a.cols();
    let mut out = Mat::zeros(a.rows() * b.rows(), r);
    for i in 0..a.rows() {
        let arow = a.row(i);
        for j in 0..b.rows() {
            let brow = b.row(j);
            let orow = out.row_mut(i * b.rows() + j);
            for k in 0..r {
                orow[k] = arow[k] * brow[k];
            }
        }
    }
    Ok(out)
}

/// Khatri–Rao product of a list of factors, folding left-to-right so that
/// the first factor's index varies slowest (`A1 ⊙ A2 ⊙ … ⊙ An`).
pub fn khatri_rao_all(mats: &[&Mat]) -> Result<Mat> {
    assert!(!mats.is_empty(), "khatri_rao_all: empty input");
    let mut acc = mats[0].clone();
    for m in &mats[1..] {
        acc = khatri_rao(&acc, m)?;
    }
    Ok(acc)
}

/// `C = A + B`.
pub fn add(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.shape() != b.shape() {
        return Err(LinalgError::DimensionMismatch { op: "add", lhs: a.shape(), rhs: b.shape() });
    }
    let mut c = a.clone();
    c.as_mut_slice().iter_mut().zip(b.as_slice()).for_each(|(x, &y)| *x += y);
    Ok(c)
}

/// `C = A − B`.
pub fn sub(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.shape() != b.shape() {
        return Err(LinalgError::DimensionMismatch { op: "sub", lhs: a.shape(), rhs: b.shape() });
    }
    let mut c = a.clone();
    c.as_mut_slice().iter_mut().zip(b.as_slice()).for_each(|(x, &y)| *x -= y);
    Ok(c)
}

/// Dot product of two equal-length slices.
///
/// Accumulates in four independent lanes (width-4 blocks plus a scalar
/// tail) so the reduction has no loop-carried dependency chain and
/// autovectorizes on stable Rust. The lane split reassociates the sum,
/// which moves results by at most the workspace-wide ≤1e-12
/// fp-reassociation bound relative to a strictly sequential sum; every
/// caller sees the *same* association on every run, so bitwise
/// run-to-run determinism is unaffected.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        s0 += xa[0] * xb[0];
        s1 += xa[1] * xb[1];
        s2 += xa[2] * xb[2];
        s3 += xa[3] * xb[3];
    }
    let mut tail = 0.0f64;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `y += alpha * x` over slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    y.iter_mut().zip(x).for_each(|(yi, &xi)| *yi += alpha * xi);
}

/// `out = row · M` for a row vector and matrix (`out[k] = Σ_r row[r]·M[r,k]`).
pub fn row_times_mat(row: &[f64], m: &Mat, out: &mut [f64]) {
    debug_assert_eq!(row.len(), m.rows());
    debug_assert_eq!(out.len(), m.cols());
    out.iter_mut().for_each(|x| *x = 0.0);
    for (r, &v) in row.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        axpy(v, m.row(r), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: &Mat, b: &Mat, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_small_known() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Mat::from_rows(&[&[5., 6.], &[7., 8.]]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[19., 22.], &[43., 50.]]));
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(matmul(&a, &b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mat::random(&mut rng, 4, 4, 1.0);
        let c = matmul(&a, &Mat::identity(4)).unwrap();
        assert!(approx(&a, &c, 1e-14));
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mat::random(&mut rng, 5, 3, 1.0);
        let b = Mat::random(&mut rng, 5, 4, 1.0);
        let c1 = matmul_transa(&a, &b).unwrap();
        let c2 = matmul(&a.transpose(), &b).unwrap();
        assert!(approx(&c1, &c2, 1e-12));
    }

    #[test]
    fn gram_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Mat::random(&mut rng, 6, 4, 1.0);
        let g1 = gram(&a);
        let g2 = matmul(&a.transpose(), &a).unwrap();
        assert!(approx(&g1, &g2, 1e-12));
        // Symmetry.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g1[(i, j)], g1[(j, i)]);
            }
        }
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Mat::from_rows(&[&[2., 0.5], &[1., 2.]]);
        let c = hadamard(&a, &b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[2., 1.], &[3., 8.]]));
        assert!(hadamard(&a, &Mat::zeros(1, 2)).is_err());
    }

    #[test]
    fn khatri_rao_shape_and_values() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Mat::from_rows(&[&[5., 6.], &[7., 8.], &[9., 10.]]);
        let k = khatri_rao(&a, &b).unwrap();
        assert_eq!(k.shape(), (6, 2));
        // Row (i=0, j=0) = [1*5, 2*6]
        assert_eq!(k.row(0), &[5., 12.]);
        // Row (i=1, j=2) lives at 1*3+2 = 5 = [3*9, 4*10]
        assert_eq!(k.row(5), &[27., 40.]);
    }

    #[test]
    fn khatri_rao_gram_identity() {
        // The key identity behind Eq. (8) of the paper:
        // (A ⊙ B)ᵀ (A ⊙ B) = AᵀA ∗ BᵀB.
        let mut rng = StdRng::seed_from_u64(4);
        let a = Mat::random(&mut rng, 5, 3, 1.0);
        let b = Mat::random(&mut rng, 4, 3, 1.0);
        let k = khatri_rao(&a, &b).unwrap();
        let lhs = gram(&k);
        let rhs = hadamard(&gram(&a), &gram(&b)).unwrap();
        assert!(approx(&lhs, &rhs, 1e-10));
    }

    #[test]
    fn khatri_rao_all_folds_left() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Mat::random(&mut rng, 2, 2, 1.0);
        let b = Mat::random(&mut rng, 3, 2, 1.0);
        let c = Mat::random(&mut rng, 4, 2, 1.0);
        let k1 = khatri_rao_all(&[&a, &b, &c]).unwrap();
        let k2 = khatri_rao(&khatri_rao(&a, &b).unwrap(), &c).unwrap();
        assert!(approx(&k1, &k2, 1e-14));
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Mat::random(&mut rng, 3, 3, 1.0);
        let b = Mat::random(&mut rng, 3, 3, 1.0);
        let c = sub(&add(&a, &b).unwrap(), &b).unwrap();
        assert!(approx(&a, &c, 1e-14));
        assert!(add(&a, &Mat::zeros(2, 3)).is_err());
        assert!(sub(&a, &Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn slice_kernels() {
        let a = [1., 2., 3.];
        let b = [4., 5., 6.];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = [1., 1., 1.];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3., 5., 7.]);
    }

    #[test]
    fn row_times_mat_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Mat::random(&mut rng, 3, 4, 1.0);
        let row = [1.0, -2.0, 0.5];
        let mut out = [0.0; 4];
        row_times_mat(&row, &m, &mut out);
        let rowmat = Mat::from_rows(&[&row]);
        let expect = matmul(&rowmat, &m).unwrap();
        for k in 0..4 {
            assert!((out[k] - expect[(0, k)]).abs() < 1e-14);
        }
    }
}
