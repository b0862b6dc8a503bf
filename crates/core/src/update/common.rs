//! Shared state and row-update kernels for the fast updaters.

use crate::grams::{compute_grams, gram_row_update};
use crate::kruskal::KruskalTensor;
use crate::mttkrp::{khatri_rao_row, mttkrp_row};
use crate::workspace::KernelWorkspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sns_linalg::Mat;
use sns_stream::Delta;
use sns_tensor::{Coord, SparseTensor};

/// Factor matrices plus their maintained Gram matrices.
///
/// Every Gram carries a version counter that is bumped exactly when the
/// matrix changes; the [`KernelWorkspace`] keys its cached
/// Hadamard-of-Grams factorizations on those counters, so solves
/// refactorize only when the underlying Grams actually changed.
#[derive(Debug, Clone)]
pub struct FactorState {
    /// The factorization (`λ = 1` for all fast updaters).
    pub kruskal: KruskalTensor,
    /// `Q(m) = A(m)ᵀA(m)`, kept in lock-step with every row edit.
    pub grams: Vec<Mat>,
    /// Per-mode change counters for `grams` (monotone; row edits that
    /// leave the row bitwise unchanged do not bump).
    versions: Vec<u64>,
}

impl FactorState {
    /// Random non-negative initialization (the paper then overwrites this
    /// with batch ALS on the initial window).
    pub fn random(dims: &[usize], rank: usize, scale: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let kruskal = KruskalTensor::random(&mut rng, dims, rank, scale);
        let grams = compute_grams(&kruskal.factors);
        let versions = vec![1; kruskal.order()];
        FactorState { kruskal, grams, versions }
    }

    /// Rebuilds a factor state from captured factors and Grams (state
    /// restore). Version counters restart at 1 — they are only cache
    /// keys for a [`KernelWorkspace`], which a restored engine gets
    /// fresh, so their absolute values are unobservable.
    ///
    /// # Errors
    /// Returns a description of the first shape inconsistency.
    pub fn from_parts(kruskal: KruskalTensor, grams: Vec<Mat>) -> Result<Self, String> {
        kruskal.check_gram_shapes(&grams, true)?;
        let versions = vec![1; kruskal.order()];
        Ok(FactorState { kruskal, grams, versions })
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.kruskal.order()
    }

    /// CP rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.kruskal.rank()
    }

    /// The time mode index (always the last mode).
    #[inline]
    pub fn time_mode(&self) -> usize {
        self.order() - 1
    }

    /// The per-mode Gram version counters (cache keys for
    /// [`crate::workspace::GramSolves`]).
    #[inline]
    pub fn gram_versions(&self) -> &[u64] {
        &self.versions
    }

    /// Replaces the factorization (warm start).
    ///
    /// The fast updaters model `X̃ = [[A(1),…,A(M)]]` with unit weights, so
    /// a weighted factorization (e.g. fresh from ALS, whose columns are
    /// normalized with scales in `λ`) is converted by distributing `λ`
    /// into the factors and recomputing the Gram matrices.
    pub fn install(&mut self, mut kruskal: KruskalTensor, grams: Vec<Mat>) {
        debug_assert_eq!(kruskal.order(), grams.len());
        if kruskal.lambda.iter().any(|&l| l != 1.0) {
            kruskal.distribute_lambda();
            self.grams = compute_grams(&kruskal.factors);
        } else {
            self.grams = grams;
        }
        self.kruskal = kruskal;
        for v in &mut self.versions {
            *v += 1;
        }
    }

    /// Writes `new` into `A(mode)(index,:)`, saving the previous row into
    /// `old` and applying the Eq. (13) Gram update. Returns whether the
    /// row actually changed; a bitwise-identical row skips the Gram
    /// update and version bump entirely (the update would add exact
    /// zeros), which is what keeps downstream `H(m)` caches warm across
    /// no-op commits.
    pub fn commit_row(&mut self, mode: usize, index: u32, new: &[f64], old: &mut [f64]) -> bool {
        let i = index as usize;
        old.copy_from_slice(self.kruskal.factors[mode].row(i));
        self.kruskal.factors[mode].set_row(i, new);
        self.note_row_changed(mode, index, old)
    }

    /// Records a row edit that was already written into the factor matrix
    /// (coordinate descent mutates rows in place): applies the Eq. (13)
    /// Gram update and version bump unless the row is unchanged bitwise.
    /// `old` is the caller's copy of the row as it was before the
    /// in-place edit.
    pub fn note_row_changed(&mut self, mode: usize, index: u32, old: &[f64]) -> bool {
        let row = self.kruskal.factors[mode].row(index as usize);
        if row == old {
            return false;
        }
        gram_row_update(&mut self.grams[mode], old, row);
        self.versions[mode] += 1;
        true
    }
}

/// The ΔX entries of `delta` whose mode-`m` index equals `index`, i.e. the
/// non-zeros of `ΔX(m)(index, :)`. At most two.
pub fn delta_entries_for_row(delta: &Delta, mode: usize, index: u32) -> [(Coord, f64); 2] {
    let mut out = [(Coord::new(&[]), 0.0); 2];
    let mut n = 0;
    for &(c, v) in delta.changes.iter() {
        if c.get(mode) == index {
            out[n] = (c, v);
            n += 1;
        }
    }
    out
}

/// Eq. (12) + Eq. (13): exact row least squares for mode `m`, row `index`:
/// `A(m)(i,:) ← (X+ΔX)(m)(i,:)·K(m)·H(m)†`, then the Gram rank-1 update.
/// The old and new rows are left in `ws.bufs.old` / `ws.bufs.row`.
///
/// `window` must already contain `ΔX`. Cost `O(deg·M·R + R³)`, with the
/// `R³` factorization skipped whenever `ws` already holds it for the
/// current Grams.
pub fn update_row_exact(
    state: &mut FactorState,
    window: &SparseTensor,
    mode: usize,
    index: u32,
    ws: &mut KernelWorkspace,
) {
    // u = (X+ΔX)(m)(i,:)·K(m)
    mttkrp_row(window, &state.kruskal.factors, mode, index, &mut ws.bufs.acc, &mut ws.bufs.prod)
        .expect("workspace-sized buffers");
    // Row solve against H(m) (cached Cholesky, pinv fallback).
    ws.solves.solve(&state.grams, &state.versions, mode, &ws.bufs.acc, &mut ws.bufs.row);
    state.commit_row(mode, index, &ws.bufs.row, &mut ws.bufs.old);
}

/// Eq. (9) + Eq. (13): additive approximate update of a *time-mode* row:
/// `A(M)(j,:) += ΔX(M)(j,:)·K(M)·H(M)†`. Used by SNS_VEC only; the ΔX row
/// has at most one non-zero (the tuple's categorical coordinate), whose
/// signed value is `value`.
pub fn update_time_row_additive(
    state: &mut FactorState,
    delta: &Delta,
    index: u32,
    value: f64,
    ws: &mut KernelWorkspace,
) {
    let tm = state.time_mode();
    // ΔX(M)(j,:)·K(M): a single scaled Khatri–Rao row product. Build the
    // full window coordinate so `khatri_rao_row` can skip the time mode.
    let coord = delta.tuple.coords.extended(index);
    khatri_rao_row(&state.kruskal.factors, &coord, tm, &mut ws.bufs.prod);
    for p in ws.bufs.prod.iter_mut() {
        *p *= value;
    }
    ws.solves.solve(&state.grams, &state.versions, tm, &ws.bufs.prod, &mut ws.bufs.acc);
    let old = state.kruskal.factors[tm].row(index as usize);
    for (k, o) in old.iter().enumerate() {
        ws.bufs.row[k] = *o + ws.bufs.acc[k];
    }
    state.commit_row(tm, index, &ws.bufs.row, &mut ws.bufs.old);
}

/// Magnitude threshold past which an unclipped updater is declared
/// numerically diverged (Observation 3). Factor entries of count tensors
/// live in O(1)–O(10²); 10⁹ is unambiguously runaway while still far from
/// overflow, so the freeze happens before `inf`/`NaN` pollute the state.
pub const DIVERGENCE_LIMIT: f64 = 1e9;

/// Checks the rows an event touched (the only entries that can have
/// changed) for runaway magnitude — O(M·R), unlike a full factor scan.
pub fn touched_rows_blew_up(state: &FactorState, delta: &Delta) -> bool {
    let tm = state.time_mode();
    let over = |row: &[f64]| row.iter().any(|v| !v.is_finite() || v.abs() > DIVERGENCE_LIMIT);
    for (c, _) in delta.changes.iter() {
        if over(state.kruskal.factors[tm].row(c.get(tm) as usize)) {
            return true;
        }
    }
    for m in 0..tm {
        if over(state.kruskal.factors[m].row(delta.tuple.coords.get(m) as usize)) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::fitness_with_grams;
    use crate::grams::hadamard_except;
    use rand::Rng;
    use sns_linalg::ops::gram;
    use sns_stream::{ContinuousWindow, StreamTuple};
    use sns_tensor::Shape;

    fn approx_mat(a: &Mat, b: &Mat, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    fn random_window(seed: u64, nnz: usize) -> SparseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [4usize, 3, 5];
        let mut x = SparseTensor::new(Shape::new(&dims));
        for _ in 0..nnz {
            let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
            x.add(&Coord::new(&c), rng.gen_range(1..4) as f64);
        }
        x
    }

    #[test]
    fn factor_state_construction() {
        let s = FactorState::random(&[4, 3, 5], 3, 1.0, 7);
        assert_eq!(s.order(), 3);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.time_mode(), 2);
        assert_eq!(s.gram_versions().len(), 3);
        for (m, g) in s.grams.iter().enumerate() {
            assert!(approx_mat(g, &gram(&s.kruskal.factors[m]), 1e-12));
        }
    }

    #[test]
    fn commit_row_tracks_versions_and_skips_noops() {
        let mut s = FactorState::random(&[4, 3, 5], 3, 1.0, 8);
        let v0 = s.gram_versions().to_vec();
        let mut old = vec![0.0; 3];
        let new = vec![0.25, -1.0, 2.0];
        assert!(s.commit_row(0, 1, &new, &mut old));
        assert_eq!(s.gram_versions()[0], v0[0] + 1);
        assert_eq!(s.gram_versions()[1], v0[1]);
        assert!(approx_mat(&s.grams[0], &gram(&s.kruskal.factors[0]), 1e-10));
        // Re-committing the identical row is a no-op: no bump, no drift.
        let g_before = s.grams[0].clone();
        assert!(!s.commit_row(0, 1, &new, &mut old));
        assert_eq!(s.gram_versions()[0], v0[0] + 1);
        assert_eq!(s.grams[0], g_before);
        assert_eq!(old, new);
    }

    #[test]
    fn install_bumps_every_version() {
        let mut s = FactorState::random(&[4, 3, 5], 3, 1.0, 9);
        let v0 = s.gram_versions().to_vec();
        let k = KruskalTensor::random(&mut StdRng::seed_from_u64(1), &[4, 3, 5], 3, 1.0);
        let g = compute_grams(&k.factors);
        s.install(k, g);
        for (m, &v) in s.gram_versions().iter().enumerate() {
            assert_eq!(v, v0[m] + 1);
        }
    }

    #[test]
    fn exact_row_update_solves_the_row_ls() {
        // After Eq. (12), the updated row must be a least-squares optimum:
        // perturbing any entry must not reduce the full objective restricted
        // to that row's fiber... equivalently u = row · H must hold.
        let x = random_window(1, 30);
        let mut s = FactorState::random(&[4, 3, 5], 3, 1.0, 2);
        let mut ws = KernelWorkspace::new(3, 3);
        update_row_exact(&mut s, &x, 0, 2, &mut ws);
        // Check stationarity: (X)(0)(2,:)·K = row·H at the new row.
        let mut u = vec![0.0; 3];
        let mut tmp = vec![0.0; 3];
        mttkrp_row(&x, &s.kruskal.factors, 0, 2, &mut u, &mut tmp).unwrap();
        let h = hadamard_except(&s.grams, 0, 3);
        let row = s.kruskal.factors[0].row(2);
        let mut lhs = vec![0.0; 3];
        sns_linalg::ops::row_times_mat(row, &h, &mut lhs);
        for k in 0..3 {
            assert!((lhs[k] - u[k]).abs() < 1e-8, "stationarity violated at {k}");
        }
        // Grams stayed consistent.
        for (m, g) in s.grams.iter().enumerate() {
            assert!(approx_mat(g, &gram(&s.kruskal.factors[m]), 1e-9));
        }
    }

    #[test]
    fn exact_row_update_never_increases_objective() {
        // Row LS: the objective restricted to other variables fixed cannot
        // increase, hence fitness cannot decrease.
        let x = random_window(3, 40);
        let mut s = FactorState::random(&[4, 3, 5], 3, 0.5, 4);
        let mut ws = KernelWorkspace::new(3, 3);
        for mode in 0..2 {
            for i in 0..x.shape().dim(mode) as u32 {
                let before = fitness_with_grams(&x, &s.kruskal, &s.grams);
                update_row_exact(&mut s, &x, mode, i, &mut ws);
                let after = fitness_with_grams(&x, &s.kruskal, &s.grams);
                assert!(after >= before - 1e-9, "mode {mode} row {i}: {before} -> {after}");
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspace_bitwise() {
        // The same update sequence through one long-lived workspace and
        // through a fresh workspace per call must agree bit for bit —
        // cached H(m)/Cholesky reuse may only skip redundant work.
        let x = random_window(11, 35);
        let mut a = FactorState::random(&[4, 3, 5], 3, 0.6, 12);
        let mut b = a.clone();
        let mut shared = KernelWorkspace::new(3, 3);
        for step in 0..12u32 {
            let mode = (step % 2) as usize;
            let index = step % x.shape().dim(mode) as u32;
            update_row_exact(&mut a, &x, mode, index, &mut shared);
            let mut fresh = KernelWorkspace::new(3, 3);
            update_row_exact(&mut b, &x, mode, index, &mut fresh);
            for m in 0..3 {
                assert_eq!(a.kruskal.factors[m], b.kruskal.factors[m], "step {step} mode {m}");
                assert_eq!(a.grams[m], b.grams[m], "step {step} gram {m}");
            }
        }
    }

    #[test]
    fn empty_fiber_zeroes_the_row() {
        let x = random_window(5, 1); // at most one non-zero
        let mut s = FactorState::random(&[4, 3, 5], 3, 1.0, 6);
        let mut ws = KernelWorkspace::new(3, 3);
        // Find a row with an empty fiber.
        let empty = (0..4u32).find(|&i| x.deg(0, i) == 0).expect("an empty fiber exists");
        update_row_exact(&mut s, &x, 0, empty, &mut ws);
        assert!(s.kruskal.factors[0].row(empty as usize).iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn delta_entry_extraction() {
        let mut w = ContinuousWindow::new(&[3, 3], 4, 10);
        let mut out = Vec::new();
        w.ingest(StreamTuple::new([1u32, 2], 5.0, 0), &mut out).unwrap();
        out.clear();
        w.advance_to(10, &mut out); // Shift: −5 @ t-idx 3, +5 @ t-idx 2
        let d = &out[0];
        // Time mode (mode 2): each row sees exactly one entry.
        let top = delta_entries_for_row(d, 2, 3);
        assert_eq!(top[0].1, -5.0);
        assert_eq!(top[1].1, 0.0);
        let bot = delta_entries_for_row(d, 2, 2);
        assert_eq!(bot[0].1, 5.0);
        // Non-time mode 0: both entries share index 1.
        let both = delta_entries_for_row(d, 0, 1);
        assert_eq!(both[0].1, -5.0);
        assert_eq!(both[1].1, 5.0);
        // Mismatched index: nothing.
        let none = delta_entries_for_row(d, 0, 2);
        assert_eq!(none[0].1, 0.0);
    }

    #[test]
    fn additive_time_update_reduces_residual_on_fresh_arrival() {
        // Build a window whose factors fit it exactly, then inject an
        // arrival; Eq. (9) must move the affected time row toward the new
        // mass (fitness after ≥ fitness before is not guaranteed in
        // general, but the update must at least change only that row).
        let mut w = ContinuousWindow::new(&[4, 3], 5, 10);
        let mut rng = StdRng::seed_from_u64(8);
        let mut out = Vec::new();
        for t in 0..30u64 {
            let tu = StreamTuple::new([rng.gen_range(0..4u32), rng.gen_range(0..3u32)], 1.0, t);
            w.ingest(tu, &mut out).unwrap();
        }
        let mut s = FactorState::random(&[4, 3, 5], 3, 0.5, 9);
        let before = s.kruskal.factors[2].clone();
        out.clear();
        w.ingest(StreamTuple::new([2u32, 1], 4.0, 31), &mut out).unwrap();
        let d = out.last().unwrap();
        let mut ws = KernelWorkspace::new(3, 3);
        update_time_row_additive(&mut s, d, 4, 4.0, &mut ws);
        // Only row 4 changed.
        for r in 0..4 {
            assert_eq!(s.kruskal.factors[2].row(r), before.row(r), "row {r} must be untouched");
        }
        assert_ne!(s.kruskal.factors[2].row(4), before.row(4));
        // Gram consistent.
        assert!(approx_mat(&s.grams[2], &gram(&s.kruskal.factors[2]), 1e-9));
    }
}
