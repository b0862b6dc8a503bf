//! Row-major dense matrix.
//!
//! [`Mat`] is the only matrix type in the workspace. It is deliberately
//! simple: a `Vec<f64>` in row-major order with a `(rows, cols)` shape.
//! Row views are plain slices, which makes the per-row updates at the heart
//! of SliceNStitch allocation-free.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Mat::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// Creates a matrix by evaluating `f(r, c)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[0, scale)`.
    ///
    /// Non-negative random initialization is the conventional starting point
    /// for CP factor matrices of count tensors.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, scale: f64) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen::<f64>() * scale).collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row {} out of bounds ({} rows)", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows, "row {} out of bounds ({} rows)", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {} out of bounds ({} cols)", c, self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Overwrites row `r` with `values`.
    ///
    /// # Panics
    /// Panics if `values.len() != cols`.
    pub fn set_row(&mut self, r: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "set_row: wrong length");
        self.row_mut(r).copy_from_slice(values);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sets every entry to `value`, keeping the allocation.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Reshapes to `rows × cols`, reusing the allocation when possible.
    /// Entry values are unspecified afterwards (callers overwrite).
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Frobenius norm `sqrt(Σ x²)`.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (∞-norm over entries); 0 for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Shifts all rows up by one and zero-fills the last row
    /// (`row[i] ← row[i+1]`, `row[last] ← 0`). Used when the tensor window
    /// slides by one period: the oldest time index disappears and a fresh
    /// one appears.
    pub fn shift_rows_up(&mut self) {
        if self.rows == 0 {
            return;
        }
        self.data.copy_within(self.cols.., 0);
        let start = (self.rows - 1) * self.cols;
        self.data[start..].iter_mut().for_each(|x| *x = 0.0);
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let m = Mat::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn from_rows_and_row_views() {
        let m = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        assert_eq!(m.row(0), &[1., 2.]);
        assert_eq!(m.row(1), &[3., 4.]);
        assert_eq!(m.col(1), vec![2., 4.]);
    }

    #[test]
    fn from_fn_evaluates_positions() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(0, 1)], 1.0);
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Mat::random(&mut rng, 4, 3, 1.0);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn set_row_and_row_mut() {
        let mut m = Mat::zeros(2, 2);
        m.set_row(1, &[5., 6.]);
        assert_eq!(m.row(1), &[5., 6.]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m[(0, 1)], 9.0);
    }

    #[test]
    fn shift_rows_up_slides_window() {
        let mut m = Mat::from_rows(&[&[1., 1.], &[2., 2.], &[3., 3.]]);
        m.shift_rows_up();
        assert_eq!(m.row(0), &[2., 2.]);
        assert_eq!(m.row(1), &[3., 3.]);
        assert_eq!(m.row(2), &[0., 0.]);
        // Degenerate case: empty matrix is a no-op.
        let mut e = Mat::zeros(0, 4);
        e.shift_rows_up();
        assert_eq!(e.rows(), 0);
    }

    #[test]
    fn norms_and_finiteness() {
        let m = Mat::from_rows(&[&[3., 0.], &[0., 4.]]);
        assert!((m.frob_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn scale_and_fill() {
        let mut m = Mat::filled(2, 2, 2.0);
        m.scale_in_place(3.0);
        assert_eq!(m[(1, 1)], 6.0);
        m.fill_zero();
        assert_eq!(m.frob_norm(), 0.0);
    }

    #[test]
    fn random_respects_scale_and_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let m1 = Mat::random(&mut a, 5, 5, 0.5);
        let m2 = Mat::random(&mut b, 5, 5, 0.5);
        assert_eq!(m1, m2);
        assert!(m1.as_slice().iter().all(|&x| (0.0..0.5).contains(&x)));
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Mat::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Mat 20x20"));
        assert!(s.contains('…'));
    }
}
