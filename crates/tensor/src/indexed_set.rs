//! A set of coordinates (with cached entry values) supporting O(1)
//! insert, remove, and value update.
//!
//! Each `(mode, index)` fiber of the sparse tensor keeps one of these so
//! that the row update rules can enumerate a fiber in O(deg). The member values are
//! stored *inline* (denormalized from the tensor's entry map): fiber
//! enumeration — the inner loop of every row MTTKRP — walks two dense
//! vectors with zero hash lookups, at the price of one extra O(1) update
//! per value change (per-event writes touch 1–2 entries; reads touch
//! whole fibers, so the trade is heavily read-biased).

use crate::coord::Coord;
use crate::fxhash::FxHashMap;

/// A swap-remove indexed set: dense `Vec`s of members and their values
/// plus a position map.
#[derive(Clone, Default)]
pub struct IndexedCoordSet {
    members: Vec<Coord>,
    values: Vec<f64>,
    positions: FxHashMap<Coord, u32>,
}

impl IndexedCoordSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True if `coord` is a member.
    #[inline]
    pub fn contains(&self, coord: &Coord) -> bool {
        self.positions.contains_key(coord)
    }

    /// Inserts `coord` with `value`; returns `true` if it was newly added
    /// (an existing member keeps its old value — use
    /// [`IndexedCoordSet::set_value`] to change it).
    pub fn insert(&mut self, coord: Coord, value: f64) -> bool {
        if self.positions.contains_key(&coord) {
            return false;
        }
        self.positions.insert(coord, self.members.len() as u32);
        self.members.push(coord);
        self.values.push(value);
        true
    }

    /// Updates the cached value of an existing member; returns `true` if
    /// `coord` was present.
    pub fn set_value(&mut self, coord: &Coord, value: f64) -> bool {
        match self.positions.get(coord) {
            Some(&pos) => {
                self.values[pos as usize] = value;
                true
            }
            None => false,
        }
    }

    /// Value of a member, `None` if absent.
    #[inline]
    pub fn get(&self, coord: &Coord) -> Option<f64> {
        self.positions.get(coord).map(|&pos| self.values[pos as usize])
    }

    /// Position of a member in [`IndexedCoordSet::as_slice`], if present.
    #[inline]
    pub fn position(&self, coord: &Coord) -> Option<u32> {
        self.positions.get(coord).copied()
    }

    /// Value at a position previously returned by
    /// [`IndexedCoordSet::position`].
    #[inline]
    pub fn value_at(&self, pos: u32) -> f64 {
        self.values[pos as usize]
    }

    /// Overwrites the value at a position previously returned by
    /// [`IndexedCoordSet::position`].
    #[inline]
    pub fn set_value_at(&mut self, pos: u32, value: f64) {
        self.values[pos as usize] = value;
    }

    /// Adds `delta` to a member's value, inserting it first if absent.
    /// Returns the new value.
    pub fn add_value(&mut self, coord: Coord, delta: f64) -> f64 {
        match self.positions.get(&coord) {
            Some(&pos) => {
                let v = &mut self.values[pos as usize];
                *v += delta;
                *v
            }
            None => {
                self.positions.insert(coord, self.members.len() as u32);
                self.members.push(coord);
                self.values.push(delta);
                delta
            }
        }
    }

    /// Removes and returns every `(member, value)` pair **in member
    /// order** — the deterministic order [`IndexedCoordSet::as_slice`]
    /// exposes, which state capture relies on.
    pub fn take_entries(&mut self) -> Vec<(Coord, f64)> {
        self.positions.clear();
        let values = std::mem::take(&mut self.values);
        std::mem::take(&mut self.members).into_iter().zip(values).collect()
    }

    /// Rebuilds a set with an **exact** member order (state restore): the
    /// resulting set iterates and swap-removes identically to
    /// the one the order was captured from. Fails on duplicate members or
    /// a member/value length mismatch.
    pub fn from_ordered_entries(members: Vec<Coord>, values: Vec<f64>) -> Result<Self, String> {
        if members.len() != values.len() {
            return Err(format!("{} members but {} values", members.len(), values.len()));
        }
        let mut positions = FxHashMap::default();
        for (pos, c) in members.iter().enumerate() {
            if positions.insert(*c, pos as u32).is_some() {
                return Err(format!("duplicate member {c:?}"));
            }
        }
        Ok(IndexedCoordSet { members, values, positions })
    }

    /// Removes `coord` by swapping with the last member; returns `true` if
    /// it was present.
    pub fn remove(&mut self, coord: &Coord) -> bool {
        let Some(pos) = self.positions.remove(coord) else {
            return false;
        };
        let pos = pos as usize;
        let last = self.members.len() - 1;
        if pos != last {
            let moved = self.members[last];
            self.members[pos] = moved;
            self.values[pos] = self.values[last];
            self.positions.insert(moved, pos as u32);
        }
        self.members.pop();
        self.values.pop();
        true
    }

    /// Iterates over the members (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Coord> + '_ {
        self.members.iter()
    }

    /// Iterates over `(member, value)` pairs (arbitrary order) — two
    /// dense vectors, no hashing.
    pub fn entries(&self) -> impl Iterator<Item = (&Coord, f64)> + '_ {
        self.members.iter().zip(self.values.iter().copied())
    }

    /// Members as a slice (arbitrary order, stable between mutations).
    #[inline]
    pub fn as_slice(&self) -> &[Coord] {
        &self.members
    }

    /// Values as a slice, parallel to [`IndexedCoordSet::as_slice`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl std::fmt::Debug for IndexedCoordSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IndexedCoordSet({} members)", self.members.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> Coord {
        Coord::new(&[i, i + 1])
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = IndexedCoordSet::new();
        assert!(s.is_empty());
        assert!(s.insert(c(1), 1.5));
        assert!(!s.insert(c(1), 9.9)); // duplicate keeps the old value
        assert!(s.insert(c(2), 2.5));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&c(1)));
        assert_eq!(s.entries().find(|(m, _)| **m == c(1)).unwrap().1, 1.5);
        assert!(s.remove(&c(1)));
        assert!(!s.remove(&c(1))); // already gone
        assert!(!s.contains(&c(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn values_follow_members_through_swap_removes() {
        let mut s = IndexedCoordSet::new();
        for i in 0..50 {
            s.insert(c(i), i as f64);
        }
        for i in (0..50).step_by(3) {
            assert!(s.remove(&c(i)));
        }
        assert!(s.set_value(&c(1), 100.0));
        assert!(!s.set_value(&c(0), 7.0)); // removed
        for (m, v) in s.entries() {
            let i = m.get(0);
            let expect = if i == 1 { 100.0 } else { i as f64 };
            assert_eq!(v, expect, "member {i}");
        }
        assert_eq!(s.as_slice().len(), s.values().len());
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut s = IndexedCoordSet::new();
        for i in 0..100 {
            s.insert(c(i), 0.0);
        }
        // Remove from the middle repeatedly; membership must stay exact.
        for i in (0..100).step_by(3) {
            assert!(s.remove(&c(i)));
        }
        for i in 0..100 {
            assert_eq!(s.contains(&c(i)), i % 3 != 0, "i={i}");
        }
        // Each member is reachable through iteration exactly once.
        let seen: Vec<_> = s.iter().copied().collect();
        assert_eq!(seen.len(), s.len());
        let set: std::collections::HashSet<_> = seen.iter().collect();
        assert_eq!(set.len(), seen.len());
    }

    #[test]
    fn debug_is_compact() {
        let s = IndexedCoordSet::new();
        assert!(format!("{s:?}").contains("0 members"));
    }
}
