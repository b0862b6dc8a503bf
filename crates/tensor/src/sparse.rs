//! Fiber-indexed sparse tensor.
//!
//! [`SparseTensor`] is the tensor-window representation used by every
//! streaming algorithm in the workspace. Besides the entry map it maintains
//! one [`IndexedCoordSet`] per `(mode, index)` pair, so that
//!
//! - `deg(m, i)` — the paper's count of non-zeros with mode-`m` index `i` —
//!   is O(1),
//! - enumerating the non-zeros of a fiber is O(deg),
//! - sampling `θ` distinct non-zeros from a fiber is O(θ) expected,
//!
//! and it tracks `‖X‖²_F` incrementally so fitness evaluation never scans
//! the window.

use crate::coord::Coord;
use crate::fxhash::{fx_map, FxHashMap};
use crate::indexed_set::IndexedCoordSet;
use crate::shape::Shape;
use rand::Rng;

/// A sparse tensor with per-mode fiber indexes.
///
/// Entries are held in an **insertion-ordered** [`IndexedCoordSet`]
/// (dense member/value vectors + a position map), not a bare hash map:
/// [`SparseTensor::iter`] walks the dense vectors, so every float
/// summation over the non-zeros (MTTKRP, fitness inner products) runs in
/// a deterministic order that is a pure function of the tensor's
/// add/remove history — and that order is exactly what
/// [`SparseTensor::capture_state`] / [`SparseTensor::from_state`]
/// preserve, making a restored tensor *bitwise* indistinguishable from
/// the original in all downstream arithmetic.
#[derive(Clone)]
pub struct SparseTensor {
    shape: Shape,
    entries: IndexedCoordSet,
    /// `fibers[m][i]` = set of non-zero coordinates with mode-`m` index `i`.
    fibers: Vec<FxHashMap<u32, IndexedCoordSet>>,
    /// Incrementally maintained squared Frobenius norm.
    norm_sq: f64,
}

/// Captured raw state of a [`SparseTensor`]: entry and fiber member
/// orders are recorded exactly, so [`SparseTensor::from_state`] rebuilds
/// a tensor whose iteration, sampling, and swap-remove behaviour is
/// bitwise-identical to the captured one. Fiber members are stored as
/// positions into `coords` to keep snapshots compact.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensorState {
    /// Mode lengths.
    pub dims: Vec<usize>,
    /// Non-zero coordinates in entry-iteration order.
    pub coords: Vec<Coord>,
    /// Values parallel to `coords`.
    pub values: Vec<f64>,
    /// Per mode, sorted by fiber index: `(index, member positions into
    /// `coords` in fiber order)`.
    pub fibers: Vec<Vec<(u32, Vec<u32>)>>,
    /// The incrementally accumulated `‖X‖²_F` — preserved bitwise (it
    /// carries accumulated rounding that a recompute would not).
    pub norm_sq: f64,
}

impl SparseTensor {
    /// Creates an empty tensor of the given shape.
    pub fn new(shape: Shape) -> Self {
        let fibers = (0..shape.order()).map(|_| fx_map()).collect();
        SparseTensor { shape, entries: IndexedCoordSet::new(), fibers, norm_sq: 0.0 }
    }

    /// Captures the complete tensor state, including the exact entry and
    /// fiber iteration orders (see [`SparseTensorState`]).
    pub fn capture_state(&self) -> SparseTensorState {
        let fibers = self
            .fibers
            .iter()
            .map(|fiber| {
                let mut sets: Vec<(u32, Vec<u32>)> = fiber
                    .iter()
                    .map(|(&index, set)| {
                        let positions = set
                            .as_slice()
                            .iter()
                            .map(|c| self.entries.position(c).expect("fiber member is an entry"))
                            .collect();
                        (index, positions)
                    })
                    .collect();
                // The outer per-index map is never iterated by numeric
                // code; sort for a canonical byte encoding.
                sets.sort_unstable_by_key(|&(index, _)| index);
                sets
            })
            .collect();
        SparseTensorState {
            dims: self.shape.dims().to_vec(),
            coords: self.entries.as_slice().to_vec(),
            values: self.entries.values().to_vec(),
            fibers,
            norm_sq: self.norm_sq,
        }
    }

    /// Rebuilds a tensor from captured state, restoring entry and fiber
    /// orders exactly.
    ///
    /// # Errors
    /// Returns a description of the first internal inconsistency (length
    /// mismatches, out-of-bounds coordinates, fiber/entry disagreement) —
    /// decoded snapshots are validated rather than trusted.
    pub fn from_state(state: SparseTensorState) -> Result<Self, String> {
        let SparseTensorState { dims, coords, values, fibers, norm_sq } = state;
        if dims.is_empty() || dims.len() > crate::coord::MAX_ORDER || dims.contains(&0) {
            return Err(format!("invalid tensor dims {dims:?}"));
        }
        let shape = Shape::new(&dims);
        if coords.len() != values.len() {
            return Err(format!("{} coords but {} values", coords.len(), values.len()));
        }
        for (c, &v) in coords.iter().zip(&values) {
            if !shape.contains(c) {
                return Err(format!("coord {c:?} out of shape {dims:?}"));
            }
            if v == 0.0 {
                return Err(format!("stored zero at {c:?}"));
            }
        }
        if fibers.len() != shape.order() {
            return Err(format!("{} fiber modes for order {}", fibers.len(), shape.order()));
        }
        let entries = IndexedCoordSet::from_ordered_entries(coords, values)?;
        let mut built: Vec<FxHashMap<u32, IndexedCoordSet>> = Vec::with_capacity(fibers.len());
        for (m, sets) in fibers.into_iter().enumerate() {
            let mut fiber: FxHashMap<u32, IndexedCoordSet> = fx_map();
            let mut total = 0usize;
            for (index, positions) in sets {
                let mut members = Vec::with_capacity(positions.len());
                let mut vals = Vec::with_capacity(positions.len());
                for pos in positions {
                    let Some(&c) = entries.as_slice().get(pos as usize) else {
                        return Err(format!("fiber position {pos} out of range"));
                    };
                    if c.get(m) != index {
                        return Err(format!("coord {c:?} filed under mode {m} index {index}"));
                    }
                    members.push(c);
                    vals.push(entries.values()[pos as usize]);
                }
                if members.is_empty() {
                    return Err(format!("empty fiber set at mode {m} index {index}"));
                }
                total += members.len();
                let set = IndexedCoordSet::from_ordered_entries(members, vals)?;
                if fiber.insert(index, set).is_some() {
                    return Err(format!("duplicate fiber index {index} in mode {m}"));
                }
            }
            if total != entries.len() {
                return Err(format!("mode {m} indexes {total} of {} entries", entries.len()));
            }
            built.push(fiber);
        }
        Ok(SparseTensor { shape, entries, fibers: built, norm_sq })
    }

    /// Creates a tensor from `(coord, value)` pairs, summing duplicates.
    pub fn from_entries(shape: Shape, items: impl IntoIterator<Item = (Coord, f64)>) -> Self {
        let mut t = SparseTensor::new(shape);
        for (c, v) in items {
            t.add(&c, v);
        }
        t
    }

    /// Tensor shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Order `M`.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of non-zero entries `|X|`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of positions that are non-zero.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.shape.num_entries() as f64
    }

    /// Value at `coord` (zero when absent).
    #[inline]
    pub fn get(&self, coord: &Coord) -> f64 {
        debug_assert!(self.shape.contains(coord), "coord {coord:?} out of {:?}", self.shape);
        self.entries.get(coord).unwrap_or(0.0)
    }

    /// Adds `delta` to the entry at `coord`, returning the new value.
    /// Entries that reach exactly zero are removed from all indexes
    /// (stream values are counts, so cancellation is exact).
    pub fn add(&mut self, coord: &Coord, delta: f64) -> f64 {
        debug_assert!(self.shape.contains(coord), "coord {coord:?} out of {:?}", self.shape);
        if delta == 0.0 {
            return self.get(coord);
        }
        match self.entries.position(coord) {
            Some(pos) => {
                let old = self.entries.value_at(pos);
                let new = old + delta;
                self.norm_sq += new * new - old * old;
                if new == 0.0 {
                    self.entries.remove(coord);
                    self.unindex(coord);
                    0.0
                } else {
                    self.entries.set_value_at(pos, new);
                    // Keep the denormalized per-fiber values in sync.
                    for m in 0..self.order() {
                        if let Some(set) = self.fibers[m].get_mut(&coord.get(m)) {
                            set.set_value(coord, new);
                        }
                    }
                    new
                }
            }
            None => {
                self.entries.insert(*coord, delta);
                self.index(coord, delta);
                self.norm_sq += delta * delta;
                delta
            }
        }
    }

    /// Sets the entry at `coord` to `value` (removing it if zero).
    pub fn set(&mut self, coord: &Coord, value: f64) {
        let old = self.get(coord);
        self.add(coord, value - old);
    }

    fn index(&mut self, coord: &Coord, value: f64) {
        for m in 0..self.order() {
            self.fibers[m].entry(coord.get(m)).or_default().insert(*coord, value);
        }
    }

    fn unindex(&mut self, coord: &Coord) {
        for m in 0..self.order() {
            if let Some(set) = self.fibers[m].get_mut(&coord.get(m)) {
                set.remove(coord);
                if set.is_empty() {
                    self.fibers[m].remove(&coord.get(m));
                }
            }
        }
    }

    /// `deg(m, i)`: number of non-zeros whose mode-`m` index is `i`.
    #[inline]
    pub fn deg(&self, mode: usize, index: u32) -> usize {
        self.fibers[mode].get(&index).map_or(0, |s| s.len())
    }

    /// Iterates over the non-zero coordinates of the `(mode, index)` fiber.
    pub fn fiber_coords(&self, mode: usize, index: u32) -> impl Iterator<Item = &Coord> + '_ {
        self.fibers[mode].get(&index).map(|s| s.as_slice()).unwrap_or(&[]).iter()
    }

    /// Iterates over `(coord, value)` for the `(mode, index)` fiber —
    /// two dense vector walks, no per-entry hash lookup (the fiber sets
    /// cache entry values; see [`IndexedCoordSet::entries`]).
    pub fn fiber_entries(
        &self,
        mode: usize,
        index: u32,
    ) -> impl Iterator<Item = (&Coord, f64)> + '_ {
        self.fibers[mode].get(&index).into_iter().flat_map(|s| s.entries())
    }

    /// The `(mode, index)` fiber as parallel coordinate/value slices —
    /// the same entries, in the same deterministic order, as
    /// [`SparseTensor::fiber_entries`], exposed as slices so blocked
    /// kernels can walk entry *pairs* without iterator state. Both
    /// slices are empty when the fiber has no non-zeros.
    #[inline]
    pub fn fiber_slices(&self, mode: usize, index: u32) -> (&[Coord], &[f64]) {
        self.fibers[mode].get(&index).map_or((&[][..], &[][..]), |s| (s.as_slice(), s.values()))
    }

    /// Samples up to `k` distinct *positions* (coordinates of the full
    /// index space, zero entries included) from the `(mode, index)` fiber,
    /// uniformly without replacement. This is the sampling SNS_RND's
    /// Eq. (16) requires — "θ indices **of X** … while fixing the m-th
    /// mode index": correcting the model at arbitrary positions (most of
    /// which are zeros of a sparse tensor) keeps the sampled objective an
    /// unbiased estimate of the full one; sampling non-zeros only would
    /// make the row fit the non-zeros and ignore the zeros entirely.
    ///
    /// Coordinates in `exclude` are dropped after sampling (footnote 2:
    /// "we ignore the indices of non-zeros in ΔX even if they are
    /// sampled"), so fewer than `k` results may be returned.
    pub fn sample_fiber_positions<R: Rng + ?Sized>(
        &self,
        mode: usize,
        index: u32,
        k: usize,
        rng: &mut R,
        exclude: &[Coord],
        out: &mut Vec<Coord>,
    ) {
        let order = self.order();
        debug_assert!(mode < order);
        let start = out.len();
        let total = self.shape.num_entries_excluding(mode);
        if total <= k {
            // Tiny fiber space: enumerate every position.
            let zeros = [0u32; crate::coord::MAX_ORDER];
            let mut stack = Coord::new(&zeros[..order]);
            stack.set(mode, index);
            enumerate_fiber(&self.shape, mode, 0, &mut stack, out);
        } else if k <= 64 {
            // Typical `θ` regime: dedup by scanning the freshly drawn
            // coordinates — O(k²) inline compares beat a heap-allocated
            // hash set at these sizes, and the per-event sampling path
            // stays allocation-free. Draw order and RNG consumption match
            // the hash-set branch exactly.
            let mut drawn = 0usize;
            while drawn < k {
                let c = self.draw_fiber_position(mode, index, rng);
                if !out[start..].contains(&c) {
                    out.push(c);
                    drawn += 1;
                }
            }
        } else {
            let mut seen = crate::fxhash::fx_set();
            while seen.len() < k {
                let c = self.draw_fiber_position(mode, index, rng);
                if seen.insert(c) {
                    out.push(c);
                }
            }
        }
        if !exclude.is_empty() {
            out.truncate_retain(start, |c| !exclude.contains(c));
        }
    }

    /// Draws one uniform position of the `(mode, index)` fiber space.
    #[inline]
    fn draw_fiber_position<R: Rng + ?Sized>(&self, mode: usize, index: u32, rng: &mut R) -> Coord {
        let order = self.order();
        let mut idx = [0u32; crate::coord::MAX_ORDER];
        for (m, slot) in idx.iter_mut().enumerate().take(order) {
            *slot = if m == mode { index } else { rng.gen_range(0..self.shape.dim(m) as u32) };
        }
        Coord::new(&idx[..order])
    }

    /// Iterates over all `(coord, value)` entries, in the tensor's
    /// deterministic entry order (two dense vector walks; the order is a
    /// pure function of the add/remove history and survives state
    /// capture bitwise).
    pub fn iter(&self) -> impl Iterator<Item = (&Coord, f64)> + '_ {
        self.entries.entries()
    }

    /// Squared Frobenius norm `‖X‖²_F` (incrementally maintained).
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        // Guard against tiny negative drift from cancellation.
        self.norm_sq.max(0.0)
    }

    /// Frobenius norm `‖X‖_F`.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Removes every entry, keeping the shape.
    pub fn clear(&mut self) {
        self.entries = IndexedCoordSet::new();
        for f in &mut self.fibers {
            f.clear();
        }
        self.norm_sq = 0.0;
    }

    /// Inner product `⟨X, Y⟩` with another sparse tensor of the same shape,
    /// iterating over the smaller operand.
    pub fn inner(&self, other: &SparseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "inner: shape mismatch");
        let (small, big) = if self.nnz() <= other.nnz() { (self, other) } else { (other, self) };
        small.iter().map(|(c, v)| v * big.get(c)).sum()
    }

    /// Debug-only invariant check: every entry is indexed in every mode,
    /// every fiber member exists, and the norm accumulator is accurate.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (c, v) in self.entries.entries() {
            if v == 0.0 {
                return Err(format!("stored zero at {c:?}"));
            }
            if !self.shape.contains(c) {
                return Err(format!("out-of-bounds coord {c:?}"));
            }
            for m in 0..self.order() {
                let ok = self.fibers[m].get(&c.get(m)).is_some_and(|s| s.contains(c));
                if !ok {
                    return Err(format!("coord {c:?} missing from fiber index mode {m}"));
                }
            }
        }
        let mut count = 0usize;
        for (m, fiber) in self.fibers.iter().enumerate() {
            for (i, set) in fiber {
                if set.is_empty() {
                    return Err(format!("empty fiber set kept at mode {m} index {i}"));
                }
                for (c, v) in set.entries() {
                    match self.entries.get(c) {
                        None => return Err(format!("fiber ghost {c:?} at mode {m}")),
                        Some(ev) if ev.to_bits() != v.to_bits() => {
                            return Err(format!(
                                "fiber value {v} at {c:?} mode {m} diverged from entry {ev}"
                            ));
                        }
                        Some(_) => {}
                    }
                }
                count += set.len();
            }
        }
        if count != self.entries.len() * self.order() {
            return Err(format!(
                "fiber cardinality {} != nnz*order {}",
                count,
                self.entries.len() * self.order()
            ));
        }
        let fresh: f64 = self.entries.values().iter().map(|v| v * v).sum();
        if (fresh - self.norm_sq).abs() > 1e-6 * (1.0 + fresh) {
            return Err(format!("norm drift: stored {} vs fresh {}", self.norm_sq, fresh));
        }
        Ok(())
    }
}

impl std::fmt::Debug for SparseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SparseTensor{:?} nnz={} density={:.3e}",
            self.shape.dims(),
            self.nnz(),
            self.density()
        )
    }
}

/// Recursively enumerates every position of the `(mode, fixed)` fiber
/// (used only when the fiber space is smaller than the sample size).
fn enumerate_fiber(
    shape: &Shape,
    mode: usize,
    m: usize,
    current: &mut Coord,
    out: &mut Vec<Coord>,
) {
    if m == shape.order() {
        out.push(*current);
        return;
    }
    if m == mode {
        enumerate_fiber(shape, mode, m + 1, current, out);
        return;
    }
    for i in 0..shape.dim(m) as u32 {
        current.set(m, i);
        enumerate_fiber(shape, mode, m + 1, current, out);
    }
    current.set(m, 0);
}

/// Small extension trait: retain elements of the tail of a `Vec` starting
/// at `start` (used by fiber sampling exclusion).
trait TailRetain<T> {
    fn truncate_retain(&mut self, start: usize, keep: impl FnMut(&T) -> bool);
}

impl<T> TailRetain<T> for Vec<T> {
    fn truncate_retain(&mut self, start: usize, mut keep: impl FnMut(&T) -> bool) {
        let mut write = start;
        for read in start..self.len() {
            if keep(&self[read]) {
                self.swap(write, read);
                write += 1;
            }
        }
        self.truncate(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(a: u32, b: u32, t: u32) -> Coord {
        Coord::new(&[a, b, t])
    }

    fn small() -> SparseTensor {
        SparseTensor::new(Shape::new(&[4, 5, 3]))
    }

    #[test]
    fn empty_tensor() {
        let t = small();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.norm(), 0.0);
        assert_eq!(t.get(&c(0, 0, 0)), 0.0);
        assert_eq!(t.deg(0, 0), 0);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn add_get_set_roundtrip() {
        let mut t = small();
        assert_eq!(t.add(&c(1, 2, 0), 3.0), 3.0);
        assert_eq!(t.get(&c(1, 2, 0)), 3.0);
        assert_eq!(t.add(&c(1, 2, 0), -1.0), 2.0);
        t.set(&c(1, 2, 0), 7.0);
        assert_eq!(t.get(&c(1, 2, 0)), 7.0);
        assert_eq!(t.nnz(), 1);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn exact_cancellation_removes_entry() {
        let mut t = small();
        t.add(&c(1, 2, 0), 5.0);
        t.add(&c(1, 2, 0), -5.0);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.deg(0, 1), 0);
        assert_eq!(t.deg(1, 2), 0);
        assert_eq!(t.norm(), 0.0);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut t = small();
        t.add(&c(0, 0, 0), 0.0);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn degree_tracks_fibers() {
        let mut t = small();
        t.add(&c(1, 0, 0), 1.0);
        t.add(&c(1, 1, 0), 1.0);
        t.add(&c(1, 2, 1), 1.0);
        t.add(&c(2, 0, 1), 1.0);
        assert_eq!(t.deg(0, 1), 3);
        assert_eq!(t.deg(0, 2), 1);
        assert_eq!(t.deg(1, 0), 2);
        assert_eq!(t.deg(2, 0), 2);
        assert_eq!(t.deg(2, 1), 2);
        let fiber: Vec<_> = t.fiber_entries(0, 1).collect();
        assert_eq!(fiber.len(), 3);
        assert!(fiber.iter().all(|&(_, v)| v == 1.0));
    }

    #[test]
    fn norm_is_incremental_and_accurate() {
        let mut t = small();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let coord = c(
                rand::Rng::gen_range(&mut rng, 0..4),
                rand::Rng::gen_range(&mut rng, 0..5),
                rand::Rng::gen_range(&mut rng, 0..3),
            );
            let delta = if rand::Rng::gen_bool(&mut rng, 0.3) { -1.0 } else { 1.0 };
            t.add(&coord, delta);
        }
        let stored = t.norm_sq();
        let fresh: f64 = t.iter().map(|(_, v)| v * v).sum();
        assert!((stored - fresh).abs() < 1e-9);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn from_entries_sums_duplicates() {
        let t = SparseTensor::from_entries(
            Shape::new(&[2, 2]),
            vec![
                (Coord::new(&[0, 0]), 1.0),
                (Coord::new(&[0, 0]), 2.0),
                (Coord::new(&[1, 1]), -1.0),
            ],
        );
        assert_eq!(t.get(&Coord::new(&[0, 0])), 3.0);
        assert_eq!(t.get(&Coord::new(&[1, 1])), -1.0);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn position_sampling_covers_zero_entries() {
        let mut t = small(); // shape 4×5×3
        t.add(&c(2, 0, 0), 1.0); // single non-zero in the fiber
        let mut rng = StdRng::seed_from_u64(8);
        // Fiber (0, 2) has 5·3 = 15 positions; ask for 10 distinct ones.
        let mut out = Vec::new();
        t.sample_fiber_positions(0, 2, 10, &mut rng, &[], &mut out);
        assert_eq!(out.len(), 10);
        let uniq: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(uniq.len(), 10);
        assert!(out.iter().all(|cc| cc.get(0) == 2));
        // Most sampled positions are zeros of X — that is the point.
        let zeros = out.iter().filter(|cc| t.get(cc) == 0.0).count();
        assert!(zeros >= 9);
        // Requesting at least the whole space enumerates it exactly.
        let mut all = Vec::new();
        t.sample_fiber_positions(0, 2, 15, &mut rng, &[], &mut all);
        assert_eq!(all.len(), 15);
        let uniq: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(uniq.len(), 15);
        // Exclusion applies after sampling.
        let mut excl = Vec::new();
        t.sample_fiber_positions(0, 2, 15, &mut rng, &[c(2, 0, 0)], &mut excl);
        assert_eq!(excl.len(), 14);
        assert!(!excl.contains(&c(2, 0, 0)));
    }

    #[test]
    fn inner_product_matches_bruteforce() {
        let mut a = small();
        let mut b = small();
        a.add(&c(0, 0, 0), 2.0);
        a.add(&c(1, 1, 1), 3.0);
        a.add(&c(2, 2, 2), 4.0);
        b.add(&c(1, 1, 1), 5.0);
        b.add(&c(3, 3, 0), 7.0);
        assert_eq!(a.inner(&b), 15.0);
        assert_eq!(b.inner(&a), 15.0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = small();
        t.add(&c(0, 0, 0), 1.0);
        t.clear();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.norm(), 0.0);
        assert_eq!(t.deg(0, 0), 0);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn state_round_trip_preserves_orders_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut t = small();
        // A history with removals, so swap-remove scrambles both the
        // entry order and the fiber orders away from insertion order.
        for _ in 0..600 {
            let coord = c(
                rand::Rng::gen_range(&mut rng, 0..4),
                rand::Rng::gen_range(&mut rng, 0..5),
                rand::Rng::gen_range(&mut rng, 0..3),
            );
            let delta = if rand::Rng::gen_bool(&mut rng, 0.4) { -1.0 } else { 1.0 };
            t.add(&coord, delta);
        }
        let state = t.capture_state();
        let restored = SparseTensor::from_state(state.clone()).unwrap();
        restored.check_invariants().unwrap();
        // Entry iteration order is identical, not merely set-equal.
        let a: Vec<_> = t.iter().map(|(c, v)| (*c, v.to_bits())).collect();
        let b: Vec<_> = restored.iter().map(|(c, v)| (*c, v.to_bits())).collect();
        assert_eq!(a, b);
        // Fiber orders are identical (MTTKRP summation order).
        for m in 0..3 {
            for i in 0..t.shape().dim(m) as u32 {
                let fa: Vec<_> = t.fiber_entries(m, i).map(|(c, v)| (*c, v.to_bits())).collect();
                let fb: Vec<_> =
                    restored.fiber_entries(m, i).map(|(c, v)| (*c, v.to_bits())).collect();
                assert_eq!(fa, fb, "mode {m} index {i}");
            }
        }
        assert_eq!(t.norm_sq().to_bits(), restored.norm_sq().to_bits());
        // Re-capture is canonical: identical state both times.
        assert_eq!(state, restored.capture_state());
    }

    #[test]
    fn from_state_rejects_inconsistencies() {
        let mut t = small();
        t.add(&c(1, 2, 0), 3.0);
        t.add(&c(0, 1, 1), 2.0);
        let good = t.capture_state();

        let mut bad = good.clone();
        bad.values.pop();
        assert!(SparseTensor::from_state(bad).is_err(), "length mismatch accepted");

        let mut bad = good.clone();
        bad.coords[0] = c(9, 0, 0);
        assert!(SparseTensor::from_state(bad).is_err(), "out-of-shape coord accepted");

        let mut bad = good.clone();
        bad.fibers[0][0].1.push(99);
        assert!(SparseTensor::from_state(bad).is_err(), "dangling fiber position accepted");

        let mut bad = good.clone();
        bad.fibers.pop();
        assert!(SparseTensor::from_state(bad).is_err(), "missing fiber mode accepted");

        let mut bad = good;
        bad.values[0] = 0.0;
        assert!(SparseTensor::from_state(bad).is_err(), "stored zero accepted");
    }

    #[test]
    fn invariant_checker_catches_corruption() {
        let mut t = small();
        t.add(&c(0, 0, 0), 1.0);
        // Corrupt the norm accumulator.
        t.norm_sq = 99.0;
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn density_small_tensor() {
        let mut t = small(); // 60 positions
        t.add(&c(0, 0, 0), 1.0);
        t.add(&c(1, 1, 1), 1.0);
        t.add(&c(2, 2, 2), 1.0);
        assert!((t.density() - 0.05).abs() < 1e-12);
    }
}
