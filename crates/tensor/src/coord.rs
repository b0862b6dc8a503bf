//! Compact tensor coordinates.
//!
//! A [`Coord`] stores up to [`MAX_ORDER`] mode indices inline (no heap
//! allocation), is `Copy`, and hashes quickly with the Fx hasher. The
//! paper's tensors have 3–4 modes; 6 leaves headroom.

use std::fmt;

/// Maximum tensor order supported by the inline coordinate type.
pub const MAX_ORDER: usize = 6;

/// A coordinate (multi-index) into a tensor of order ≤ [`MAX_ORDER`].
///
/// Invariant: slots `idx[order..]` are always zero, so derived `Eq`/`Hash`
/// over the whole array are consistent with logical equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    order: u8,
    idx: [u32; MAX_ORDER],
}

impl Coord {
    /// Creates a coordinate from a slice of indices.
    ///
    /// # Panics
    /// Panics if `indices.len() > MAX_ORDER`.
    #[inline]
    pub fn new(indices: &[u32]) -> Self {
        assert!(
            indices.len() <= MAX_ORDER,
            "tensor order {} exceeds MAX_ORDER={}",
            indices.len(),
            MAX_ORDER
        );
        let mut idx = [0u32; MAX_ORDER];
        idx[..indices.len()].copy_from_slice(indices);
        Coord { order: indices.len() as u8, idx }
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.order as usize
    }

    /// Index along mode `m`.
    #[inline]
    pub fn get(&self, m: usize) -> u32 {
        debug_assert!(m < self.order());
        self.idx[m]
    }

    /// Sets the index along mode `m`.
    #[inline]
    pub fn set(&mut self, m: usize, value: u32) {
        debug_assert!(m < self.order());
        self.idx[m] = value;
    }

    /// The used indices as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.idx[..self.order()]
    }

    /// Returns a copy with mode `m` replaced by `value`.
    ///
    /// The window maintenance code uses this to move an entry between two
    /// adjacent time indices.
    #[inline]
    pub fn with(&self, m: usize, value: u32) -> Self {
        let mut c = *self;
        c.set(m, value);
        c
    }

    /// Returns a copy extended by one trailing mode set to `value`
    /// (e.g. non-time coordinates extended by a time index).
    ///
    /// # Panics
    /// Panics if the coordinate is already at [`MAX_ORDER`].
    pub fn extended(&self, value: u32) -> Self {
        assert!(self.order() < MAX_ORDER, "cannot extend beyond MAX_ORDER");
        let mut c = *self;
        c.idx[self.order()] = value;
        c.order += 1;
        c
    }

    /// Returns a copy with the trailing mode removed.
    ///
    /// # Panics
    /// Panics on a zero-order coordinate.
    pub fn truncated(&self) -> Self {
        assert!(self.order() > 0, "cannot truncate empty coordinate");
        let mut c = *self;
        c.order -= 1;
        c.idx[c.order as usize] = 0; // maintain the trailing-zero invariant
        c
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (k, v) in self.as_slice().iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<&[u32]> for Coord {
    fn from(s: &[u32]) -> Self {
        Coord::new(s)
    }
}

impl<const N: usize> From<[u32; N]> for Coord {
    fn from(s: [u32; N]) -> Self {
        Coord::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn construction_and_access() {
        let c = Coord::new(&[3, 1, 4]);
        assert_eq!(c.order(), 3);
        assert_eq!(c.get(0), 3);
        assert_eq!(c.get(2), 4);
        assert_eq!(c.as_slice(), &[3, 1, 4]);
    }

    #[test]
    fn from_arrays() {
        let d: Coord = [5u32, 6, 7].into();
        assert_eq!(d.as_slice(), &[5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "MAX_ORDER")]
    fn rejects_too_many_modes() {
        let _ = Coord::new(&[0; MAX_ORDER + 1]);
    }

    #[test]
    fn with_replaces_single_mode() {
        let c = Coord::new(&[1, 2, 3]);
        let d = c.with(1, 9);
        assert_eq!(d.as_slice(), &[1, 9, 3]);
        assert_eq!(c.as_slice(), &[1, 2, 3]); // original untouched
    }

    #[test]
    fn extend_and_truncate_roundtrip() {
        let c = Coord::new(&[1, 2]);
        let e = c.extended(7);
        assert_eq!(e.as_slice(), &[1, 2, 7]);
        assert_eq!(e.truncated(), c);
    }

    #[test]
    fn truncate_maintains_zero_invariant() {
        // Equality/Hash must not see stale data after truncation.
        let a = Coord::new(&[1, 2, 9]).truncated();
        let b = Coord::new(&[1, 2]);
        assert_eq!(a, b);
        let hash = |c: &Coord| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn different_order_not_equal() {
        assert_ne!(Coord::new(&[1, 0]), Coord::new(&[1]));
    }

    #[test]
    fn set_mutates() {
        let mut c = Coord::new(&[0, 0]);
        c.set(1, 5);
        assert_eq!(c.get(1), 5);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Coord::new(&[1, 2, 3])), "(1,2,3)");
        assert_eq!(format!("{:?}", Coord::new(&[])), "()");
    }

    #[test]
    fn coord_is_small() {
        // Keep the hot type compact: order byte + 6×u32 = 28 bytes.
        assert!(std::mem::size_of::<Coord>() <= 32);
    }
}
