//! Property-based tests for the sparse tensor substrate.
//!
//! The central invariant: after an arbitrary sequence of point updates, the
//! fiber indexes, degree counts, and the incrementally-maintained norm all
//! agree with a brute-force recomputation.

use proptest::prelude::*;
use sns_tensor::matricize::{matricized_col, matricized_coord};
use sns_tensor::{Coord, DenseTensor, Shape, SparseTensor};

/// A random edit: coordinate within a fixed 4×5×3 shape plus an integer delta.
fn edit_strategy() -> impl Strategy<Value = (Coord, f64)> {
    (0u32..4, 0u32..5, 0u32..3, -3i32..=3)
        .prop_map(|(a, b, t, d)| (Coord::new(&[a, b, t]), d as f64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sparse tensor state matches a dense shadow after arbitrary edits,
    /// and all internal invariants hold.
    #[test]
    fn edits_match_dense_shadow(edits in proptest::collection::vec(edit_strategy(), 0..200)) {
        let shape = Shape::new(&[4, 5, 3]);
        let mut sparse = SparseTensor::new(shape.clone());
        let mut dense = DenseTensor::zeros(shape.clone());
        for (c, d) in &edits {
            sparse.add(c, *d);
            *dense.get_mut(c) += *d;
        }
        prop_assert!(sparse.check_invariants().is_ok(), "{:?}", sparse.check_invariants());
        for c in shape.iter_coords() {
            prop_assert_eq!(sparse.get(&c), dense.get(&c));
        }
        // nnz agrees with dense count.
        let dense_nnz = shape.iter_coords().filter(|c| dense.get(c) != 0.0).count();
        prop_assert_eq!(sparse.nnz(), dense_nnz);
        // Norm agrees.
        prop_assert!((sparse.norm() - dense.norm()).abs() < 1e-9);
        // Degrees agree with brute force for every (mode, index).
        for mode in 0..3 {
            for i in 0..shape.dim(mode) as u32 {
                let brute = shape
                    .iter_coords()
                    .filter(|c| c.get(mode) == i && dense.get(c) != 0.0)
                    .count();
                prop_assert_eq!(sparse.deg(mode, i), brute, "mode {} index {}", mode, i);
            }
        }
    }

    /// Fiber enumeration returns exactly the non-zeros with that index.
    #[test]
    fn fibers_enumerate_exactly(edits in proptest::collection::vec(edit_strategy(), 0..100)) {
        let shape = Shape::new(&[4, 5, 3]);
        let mut sparse = SparseTensor::new(shape.clone());
        for (c, d) in &edits {
            sparse.add(c, *d);
        }
        for mode in 0..3 {
            for i in 0..shape.dim(mode) as u32 {
                let mut got: Vec<Coord> = sparse.fiber_coords(mode, i).copied().collect();
                got.sort_by_key(|c| c.as_slice().to_vec());
                let mut expect: Vec<Coord> = sparse
                    .iter()
                    .filter(|(c, _)| c.get(mode) == i)
                    .map(|(c, _)| *c)
                    .collect();
                expect.sort_by_key(|c| c.as_slice().to_vec());
                prop_assert_eq!(got, expect);
            }
        }
    }

    /// Matricization maps are bijective for random shapes.
    #[test]
    fn matricize_bijection(d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5, d3 in 1usize..4) {
        let shape = Shape::new(&[d0, d1, d2, d3]);
        for mode in 0..4 {
            for coord in shape.iter_coords() {
                let col = matricized_col(&shape, &coord, mode);
                let back = matricized_coord(&shape, coord.get(mode) as usize, col, mode);
                prop_assert_eq!(back, coord);
            }
        }
    }

    /// Inner product is symmetric and matches the dense computation.
    #[test]
    fn inner_product_correct(e1 in proptest::collection::vec(edit_strategy(), 0..60),
                             e2 in proptest::collection::vec(edit_strategy(), 0..60)) {
        let shape = Shape::new(&[4, 5, 3]);
        let mut a = SparseTensor::new(shape.clone());
        let mut b = SparseTensor::new(shape.clone());
        for (c, d) in &e1 { a.add(c, *d); }
        for (c, d) in &e2 { b.add(c, *d); }
        let brute: f64 = shape.iter_coords().map(|c| a.get(&c) * b.get(&c)).sum();
        prop_assert!((a.inner(&b) - brute).abs() < 1e-9);
        prop_assert!((b.inner(&a) - brute).abs() < 1e-9);
    }
}
