//! Property-based tests for the dense linear-algebra substrate.
//!
//! These check the algebraic identities the streaming algorithms rely on,
//! over randomly generated matrices.

use proptest::prelude::*;
use sns_linalg::ops::{gram, hadamard, khatri_rao, matmul, matmul_transa};
use sns_linalg::pinv::pinv_sym;
use sns_linalg::Mat;

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Mat::from_vec(rows, cols, v))
}

fn approx(a: &Mat, b: &Mat, tol: f64) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (AB)C = A(BC) for compatible shapes.
    #[test]
    fn matmul_is_associative(a in mat_strategy(3, 4), b in mat_strategy(4, 5), c in mat_strategy(5, 2)) {
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        prop_assert!(approx(&left, &right, 1e-8));
    }

    /// AᵀB computed fused equals the explicit transpose product.
    #[test]
    fn transa_consistent(a in mat_strategy(6, 3), b in mat_strategy(6, 4)) {
        let fused = matmul_transa(&a, &b).unwrap();
        let explicit = matmul(&a.transpose(), &b).unwrap();
        prop_assert!(approx(&fused, &explicit, 1e-9));
    }

    /// Gram matrices are symmetric PSD (non-negative Rayleigh quotients on
    /// the canonical basis and random vectors).
    #[test]
    fn gram_is_psd(a in mat_strategy(7, 4), v in proptest::collection::vec(-1.0f64..1.0, 4)) {
        let g = gram(&a);
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
        // vᵀGv = ‖Av‖² ≥ 0
        let mut quad = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                quad += v[i] * g[(i, j)] * v[j];
            }
        }
        prop_assert!(quad >= -1e-8);
    }

    /// The Khatri–Rao Gram identity (A⊙B)ᵀ(A⊙B) = AᵀA ∗ BᵀB — Eq. (8)
    /// of the paper, the backbone of every fast update rule.
    #[test]
    fn khatri_rao_gram_identity(a in mat_strategy(5, 3), b in mat_strategy(6, 3)) {
        let k = khatri_rao(&a, &b).unwrap();
        let lhs = gram(&k);
        let rhs = hadamard(&gram(&a), &gram(&b)).unwrap();
        prop_assert!(approx(&lhs, &rhs, 1e-7));
    }

    /// Penrose condition 1 for the symmetric pseudoinverse: H·H†·H = H.
    #[test]
    fn pinv_sym_penrose1(a in mat_strategy(6, 4)) {
        let h = gram(&a);
        let p = pinv_sym(&h).unwrap();
        let hph = matmul(&matmul(&h, &p).unwrap(), &h).unwrap();
        let tol = 1e-6 * (1.0 + h.max_abs() * h.max_abs());
        prop_assert!(approx(&hph, &h, tol));
    }

    /// Cholesky solve agrees with pinv solve on well-conditioned SPD systems.
    /// `solve_xh_eq_u` solves `X·G = Bᵀ` by Cholesky here; `G` is
    /// symmetric, so `Xᵀ = G⁻¹·B`.
    #[test]
    fn chol_and_pinv_agree(a in mat_strategy(8, 4), b in mat_strategy(4, 2)) {
        let mut g = gram(&a);
        for i in 0..4 { g[(i, i)] += 1.0; } // well-conditioned
        let x1 = sns_linalg::lstsq::solve_xh_eq_u(&g, &b.transpose()).unwrap().transpose();
        let x2 = matmul(&pinv_sym(&g).unwrap(), &b).unwrap();
        prop_assert!(approx(&x1, &x2, 1e-6));
    }

    /// Eigendecomposition reconstructs the matrix and preserves the trace.
    #[test]
    fn eigen_reconstructs(a in mat_strategy(5, 5)) {
        // Symmetrize.
        let s = Mat::from_fn(5, 5, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = sns_linalg::eigen::eigen_sym(&s).unwrap();
        let d = Mat::from_fn(5, 5, |i, j| if i == j { e.values[i] } else { 0.0 });
        let rec = matmul(&matmul(&e.vectors, &d).unwrap(), &e.vectors.transpose()).unwrap();
        prop_assert!(approx(&rec, &s, 1e-7 * (1.0 + s.max_abs())));
        let tr: f64 = (0..5).map(|i| s[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((tr - sum).abs() < 1e-7 * (1.0 + tr.abs()));
    }
}
