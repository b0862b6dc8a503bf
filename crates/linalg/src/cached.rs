//! Cached symmetric-PSD factorizations for repeated row solves.
//!
//! Every per-event update in SliceNStitch solves `x = u · H†` against a
//! Hadamard-of-Grams matrix `H(m)` (Eq. 12 / Eq. 4). Consecutive solves
//! frequently see the *same* `H` — two time-mode rows of one shift event,
//! or events whose row updates left a factor (and hence its Gram)
//! untouched — so refactorizing per solve wastes the `O(R³)` Cholesky.
//! [`SymSolveCache`] owns the factorization storage: callers refactor only
//! when the underlying matrix actually changed and solve as many
//! right-hand sides as they like, with zero allocation in steady state.

use crate::chol::cholesky_into_inv;
use crate::ops::{dot, row_times_mat};
use crate::pinv::pinv_sym;
use crate::Mat;

/// Forward substitution `L·y = b` using precomputed diagonal reciprocals.
#[inline]
fn forward_sub_inv(l: &Mat, inv_diag: &[f64], b: &mut [f64]) {
    let n = l.rows();
    debug_assert_eq!(b.len(), n);
    for i in 0..n {
        let row = l.row(i);
        let (head, tail) = b.split_at_mut(i);
        tail[0] = (tail[0] - dot(&row[..i], head)) * inv_diag[i];
    }
}

/// Backward substitution `Lᵀ·x = y` over the row-major transpose `Lᵀ`,
/// using precomputed diagonal reciprocals.
#[inline]
fn backward_sub_upper_inv(lt: &Mat, inv_diag: &[f64], y: &mut [f64]) {
    let n = lt.rows();
    debug_assert_eq!(y.len(), n);
    for i in (0..n).rev() {
        let row = lt.row(i);
        let (head, tail) = y.split_at_mut(i + 1);
        head[i] = (head[i] - dot(&row[i + 1..], tail)) * inv_diag[i];
    }
}

/// The factorization state held by a [`SymSolveCache`].
#[derive(Debug)]
enum SymFactor {
    /// No factorization yet ([`SymSolveCache::refactor`] not called).
    Empty,
    /// Cholesky `H = L·Lᵀ`, with `Lᵀ` materialized row-major so both
    /// substitution sweeps run over contiguous slices.
    Chol,
    /// `H` was numerically rank-deficient: truncated pseudoinverse `H†`
    /// (stored in `lt`), matching the fallback of
    /// [`solve_row_sym`](crate::lstsq::solve_row_sym).
    Pinv,
}

/// A reusable factorization of one symmetric PSD matrix.
///
/// `refactor` + `solve_row` reproduce
/// [`solve_row_sym`](crate::lstsq::solve_row_sym) exactly (same pivot
/// tolerance → same Cholesky-vs-pseudoinverse decision, same substitution
/// order), but split the factorization from the solve so it can be reused
/// across right-hand sides and cached across events.
#[derive(Debug)]
pub struct SymSolveCache {
    kind: SymFactor,
    /// Cholesky factor `L` (valid when `kind == Chol`).
    l: Mat,
    /// `Lᵀ` for `Chol`; `H†` for `Pinv`.
    lt: Mat,
    /// Reciprocals of `L`'s diagonal (valid when `kind == Chol`):
    /// substitution divides become multiplies.
    inv_diag: Vec<f64>,
}

impl Default for SymSolveCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SymSolveCache {
    /// An empty cache; call [`SymSolveCache::refactor`] before solving.
    pub fn new() -> Self {
        SymSolveCache {
            kind: SymFactor::Empty,
            l: Mat::zeros(0, 0),
            lt: Mat::zeros(0, 0),
            inv_diag: Vec::new(),
        }
    }

    /// Factorizes `h` (Cholesky with relative pivot tolerance `rel_tol`,
    /// truncated-pseudoinverse fallback for rank-deficient systems),
    /// reusing this cache's storage. Allocation-free after the first call
    /// at a given size, except on the cold pseudoinverse path.
    pub fn refactor(&mut self, h: &Mat, rel_tol: f64) {
        debug_assert_eq!(h.rows(), h.cols());
        match cholesky_into_inv(h, rel_tol, &mut self.l, &mut self.inv_diag) {
            Ok(()) => {
                // Backward substitution reads only `Lᵀ`'s strict upper
                // triangle (contiguous row tails) plus `inv_diag`, so only
                // that triangle is materialized.
                let n = self.l.rows();
                self.lt.resize_to(n, n);
                for i in 0..n {
                    for k in i + 1..n {
                        self.lt[(i, k)] = self.l[(k, i)];
                    }
                }
                self.kind = SymFactor::Chol;
            }
            Err(_) => {
                // Near-singular: zero the tiny eigendirections instead of
                // amplifying through them (same policy as solve_row_sym).
                self.lt = pinv_sym(h).expect("finite symmetric system");
                self.kind = SymFactor::Pinv;
            }
        }
    }

    /// Solves `out = u · H†` for the matrix last passed to `refactor`.
    ///
    /// # Panics
    /// Panics if `refactor` has not been called.
    pub fn solve_row(&self, u: &[f64], out: &mut [f64]) {
        match self.kind {
            SymFactor::Chol => {
                debug_assert_eq!(u.len(), self.l.rows());
                debug_assert_eq!(out.len(), self.l.rows());
                out.copy_from_slice(u);
                forward_sub_inv(&self.l, &self.inv_diag, out);
                backward_sub_upper_inv(&self.lt, &self.inv_diag, out);
            }
            SymFactor::Pinv => row_times_mat(u, &self.lt, out),
            SymFactor::Empty => panic!("SymSolveCache::solve_row before refactor"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::{solve_row_sym, GRAM_PIVOT_RTOL};
    use crate::ops::{gram, matmul};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_fresh_solve_well_conditioned() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mat::random(&mut rng, 12, 5, 1.0);
        let mut h = gram(&a);
        for i in 0..5 {
            h[(i, i)] += 0.1;
        }
        let mut cache = SymSolveCache::new();
        cache.refactor(&h, GRAM_PIVOT_RTOL);
        for _ in 0..4 {
            let u: Vec<f64> = (0..5).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let mut fast = vec![0.0; 5];
            let mut slow = vec![0.0; 5];
            cache.solve_row(&u, &mut fast);
            solve_row_sym(&h, &u, &mut slow).unwrap();
            for k in 0..5 {
                assert!((fast[k] - slow[k]).abs() < 1e-12, "{} vs {}", fast[k], slow[k]);
            }
        }
    }

    #[test]
    fn falls_back_to_pinv_on_singular() {
        let v = Mat::from_rows(&[&[1.0], &[2.0]]);
        let h = matmul(&v, &v.transpose()).unwrap(); // rank 1
        let mut cache = SymSolveCache::new();
        cache.refactor(&h, GRAM_PIVOT_RTOL);
        let u = [1.0, 2.0]; // in the row space
        let mut out = [0.0; 2];
        cache.solve_row(&u, &mut out);
        let mut back = [0.0; 2];
        row_times_mat(&out, &h, &mut back);
        assert!((back[0] - 1.0).abs() < 1e-9 && (back[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn refactor_reuses_storage_across_sizes_and_kinds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cache = SymSolveCache::new();
        for n in [3usize, 5, 3] {
            let a = Mat::random(&mut rng, n + 3, n, 1.0);
            let mut h = gram(&a);
            for i in 0..n {
                h[(i, i)] += 0.2;
            }
            cache.refactor(&h, GRAM_PIVOT_RTOL);
            let u: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let mut fast = vec![0.0; n];
            let mut slow = vec![0.0; n];
            cache.solve_row(&u, &mut fast);
            solve_row_sym(&h, &u, &mut slow).unwrap();
            for k in 0..n {
                assert!((fast[k] - slow[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "before refactor")]
    fn solving_empty_cache_panics() {
        let cache = SymSolveCache::new();
        let mut out = [0.0; 2];
        cache.solve_row(&[1.0, 2.0], &mut out);
    }
}
