//! # sns-linalg
//!
//! Dense linear-algebra substrate for the SliceNStitch reproduction.
//!
//! CP decomposition at rank `R` only ever needs *small* dense kernels:
//! `R × R` Gram matrices, their Hadamard products and pseudoinverses, and
//! `N × R` factor matrices accessed row-wise. This crate provides exactly
//! those kernels with zero external dependencies:
//!
//! - [`Mat`]: a row-major dense matrix with cheap row views,
//! - [`ops`]: products (matmul, Gram, Hadamard, Khatri–Rao), sums, norms,
//! - [`chol`]: Cholesky factorization and triangular solves,
//! - [`cached`]: reusable factorizations for repeated row solves,
//! - [`eigen`]: Jacobi eigendecomposition for symmetric matrices,
//! - [`pinv`]: Moore–Penrose pseudoinverse of symmetric PSD matrices,
//! - [`lstsq`]: `x = u·H†` solves against symmetric PSD Gram systems
//!   (Cholesky, with a pseudoinverse fallback).
//!
//! All kernels are written for matrices whose smaller dimension is ~10–100,
//! which is the regime of the paper (rank `R = 20`); none of them allocate
//! in per-row hot paths.

pub mod cached;
pub mod chol;
pub mod eigen;
pub mod error;
pub mod lstsq;
pub mod mat;
pub mod ops;
pub mod pinv;

pub use error::LinalgError;
pub use mat::Mat;

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Machine-epsilon-scaled factor used as the default rank cutoff in
/// pseudoinverse computations: eigenvalues below `max_eig * n * EPS_FACTOR`
/// are treated as zero.
pub const EPS_FACTOR: f64 = f64::EPSILON * 64.0;
