//! Tensor shapes.

use crate::coord::{Coord, MAX_ORDER};
use std::fmt;

/// The shape (mode lengths) of a tensor of order ≤ [`MAX_ORDER`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from mode lengths.
    ///
    /// # Panics
    /// Panics if the order exceeds [`MAX_ORDER`] or any mode is empty.
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() <= MAX_ORDER, "order {} exceeds MAX_ORDER", dims.len());
        assert!(dims.iter().all(|&d| d > 0), "zero-length mode in shape {dims:?}");
        Shape { dims: dims.to_vec() }
    }

    /// Number of modes `M`.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Length `N_m` of mode `m`.
    #[inline]
    pub fn dim(&self, m: usize) -> usize {
        self.dims[m]
    }

    /// All mode lengths.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of positions `Π N_m`.
    pub fn num_entries(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total number of positions excluding mode `skip` (`Π_{m≠skip} N_m`).
    pub fn num_entries_excluding(&self, skip: usize) -> usize {
        self.dims.iter().enumerate().filter(|&(m, _)| m != skip).map(|(_, &d)| d).product()
    }

    /// True if `coord` has the right order and every index is in bounds.
    pub fn contains(&self, coord: &Coord) -> bool {
        coord.order() == self.order()
            && coord.as_slice().iter().zip(&self.dims).all(|(&i, &d)| (i as usize) < d)
    }

    /// Iterates over every coordinate of the (small!) dense index space, in
    /// row-major order (last mode fastest). Intended for test oracles only.
    pub fn iter_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let total = self.num_entries();
        let order = self.order();
        (0..total).map(move |mut lin| {
            let mut idx = [0u32; MAX_ORDER];
            for m in (0..order).rev() {
                idx[m] = (lin % self.dims[m]) as u32;
                lin /= self.dims[m];
            }
            Coord::new(&idx[..order])
        })
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(s.order(), 3);
        assert_eq!(s.dim(1), 4);
        assert_eq!(s.dims(), &[3, 4, 5]);
        assert_eq!(s.num_entries(), 60);
        assert_eq!(s.num_entries_excluding(1), 15);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn rejects_empty_mode() {
        let _ = Shape::new(&[3, 0]);
    }

    #[test]
    fn contains_checks_bounds_and_order() {
        let s = Shape::new(&[2, 3]);
        assert!(s.contains(&Coord::new(&[1, 2])));
        assert!(!s.contains(&Coord::new(&[2, 0])));
        assert!(!s.contains(&Coord::new(&[0, 3])));
        assert!(!s.contains(&Coord::new(&[0])));
        assert!(!s.contains(&Coord::new(&[0, 0, 0])));
    }

    #[test]
    fn iter_coords_covers_space_in_order() {
        let s = Shape::new(&[2, 3]);
        let coords: Vec<Coord> = s.iter_coords().collect();
        assert_eq!(coords.len(), 6);
        assert_eq!(coords[0], Coord::new(&[0, 0]));
        assert_eq!(coords[1], Coord::new(&[0, 1])); // last mode fastest
        assert_eq!(coords[5], Coord::new(&[1, 2]));
        // All distinct.
        let set: std::collections::HashSet<_> = coords.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn from_conversions() {
        let s: Shape = [1usize, 2].into();
        assert_eq!(s, Shape::new(&[1, 2]));
    }
}
