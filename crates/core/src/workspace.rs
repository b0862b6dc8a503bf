//! Reusable per-updater kernel workspace: scratch rows, coordinate
//! buffers, and cached Hadamard-of-Grams factorizations.
//!
//! The paper's headline claim is that one event is absorbed in
//! microseconds by touching only the factor rows it involves
//! (Eqs. 12–13, 16–17). The arithmetic is tiny — `R`-vectors and `R×R`
//! systems — so at that scale heap allocation and redundant
//! factorization dominate. [`KernelWorkspace`] makes the steady-state
//! per-event path allocation-free:
//!
//! - [`RowBufs`] owns every scratch vector the update rules need
//!   (Khatri–Rao row products, MTTKRP accumulators, old/new rows, sampled
//!   coordinates), sized once at construction;
//! - [`GramSolves`] caches, per mode, the Hadamard-of-Grams matrix
//!   `H(m) = ∗_{n≠m} Q(n)` (Eq. 4) *and* its Cholesky factorization
//!   ([`sns_linalg::cached::SymSolveCache`]), keyed on the Gram version
//!   counters maintained by [`FactorState`](crate::update::FactorState).
//!   A solve refactorizes only when a Gram it depends on actually
//!   changed; repeated solves against an unchanged `H(m)` — the two
//!   time-mode rows of a shift event, or consecutive events whose row
//!   updates left a factor untouched — reuse both the matrix and its
//!   factor outright, and even a stale rebuild reuses the storage.
//!
//! Every updater owns one workspace. It holds caches and scratch, not
//! state: engine snapshots leave it out, and a restored engine starts
//! from a fresh workspace and still continues bitwise-identically.

use sns_linalg::cached::SymSolveCache;
use sns_linalg::lstsq::GRAM_PIVOT_RTOL;
use sns_linalg::ops::hadamard_assign;
use sns_linalg::Mat;
use sns_tensor::Coord;

/// Scratch vectors for per-event row updates — no allocation in steady
/// state.
#[derive(Debug, Default)]
pub struct RowBufs {
    /// Khatri–Rao row product buffer (`R`).
    pub prod: Vec<f64>,
    /// MTTKRP accumulator (`R`).
    pub acc: Vec<f64>,
    /// New-row buffer (`R`).
    pub row: Vec<f64>,
    /// Old-row copy (`R`).
    pub old: Vec<f64>,
    /// Secondary accumulator (`R`) for the sampled corrections.
    pub extra: Vec<f64>,
    /// Sampled fiber coordinates (`θ`).
    pub samples: Vec<Coord>,
    /// Sampling-exclusion coordinates (the ≤ 2 entries of `ΔX`).
    pub exclude: Vec<Coord>,
}

impl RowBufs {
    /// Creates buffers sized for rank `r`.
    pub fn new(r: usize) -> Self {
        RowBufs {
            prod: vec![0.0; r],
            acc: vec![0.0; r],
            row: vec![0.0; r],
            old: vec![0.0; r],
            extra: vec![0.0; r],
            samples: Vec::new(),
            exclude: Vec::new(),
        }
    }
}

/// One mode's cached `H(m)` and factorization.
#[derive(Debug)]
struct HCache {
    /// `H(m) = ∗_{n≠m} Q(n)`, rebuilt in place when stale.
    h: Mat,
    /// Gram version counters `H` was built from (entry `m` is ignored).
    seen: Vec<u64>,
    /// False until the first build.
    h_valid: bool,
    /// Cholesky/pseudoinverse factorization of `h`.
    solver: SymSolveCache,
    /// True when `solver` factorizes the current `h` (factorization is
    /// lazy: the clipped updaters use `H` directly and never pay it).
    factored: bool,
}

/// Version-keyed cache of the per-mode Hadamard-of-Grams systems.
///
/// Callers pass the live Gram matrices together with their version
/// counters (see [`FactorState::gram_versions`]); the cache compares
/// counters — never matrix contents — so staleness checks are `O(M)`.
///
/// [`FactorState::gram_versions`]: crate::update::FactorState::gram_versions
#[derive(Debug)]
pub struct GramSolves {
    modes: Vec<HCache>,
}

impl GramSolves {
    /// Cache for `order` modes at rank `rank`.
    pub fn new(order: usize, rank: usize) -> Self {
        GramSolves {
            modes: (0..order)
                .map(|_| HCache {
                    h: Mat::zeros(rank, rank),
                    seen: vec![0; order],
                    h_valid: false,
                    solver: SymSolveCache::new(),
                    factored: false,
                })
                .collect(),
        }
    }

    /// Drops every cached matrix and factorization (next use rebuilds).
    /// Results are unaffected — rebuilding from the same Grams
    /// reproduces the same `H` bitwise; this exists for the parity tests.
    pub fn invalidate(&mut self) {
        for c in &mut self.modes {
            c.h_valid = false;
            c.factored = false;
        }
    }

    /// Ensures mode `skip`'s `H` matches the current Grams, rebuilding in
    /// place if any `Q(n)`, `n ≠ skip`, changed since the last build.
    fn refresh(&mut self, grams: &[Mat], versions: &[u64], skip: usize) -> &mut HCache {
        debug_assert_eq!(grams.len(), versions.len());
        let cache = &mut self.modes[skip];
        debug_assert_eq!(cache.seen.len(), versions.len());
        let stale = !cache.h_valid
            || versions.iter().enumerate().any(|(n, &v)| n != skip && cache.seen[n] != v);
        if stale {
            // Three-mode tensors rebuild H as one fused element-wise
            // multiply of the two participating Grams (starting from all
            // ones and folding each Gram in gives bitwise-identical
            // results, one extra pass at a time).
            let mut parts = grams.iter().enumerate().filter(|&(n, _)| n != skip).map(|(_, g)| g);
            match (grams.len(), parts.next(), parts.next()) {
                (3, Some(a), Some(b)) => {
                    debug_assert_eq!(a.shape(), cache.h.shape());
                    cache
                        .h
                        .as_mut_slice()
                        .iter_mut()
                        .zip(a.as_slice().iter().zip(b.as_slice()))
                        .for_each(|(o, (&x, &y))| *o = x * y);
                }
                _ => {
                    cache.h.fill(1.0);
                    for (n, g) in grams.iter().enumerate() {
                        if n == skip {
                            continue;
                        }
                        hadamard_assign(&mut cache.h, g).expect("gram shapes agree");
                    }
                }
            }
            cache.seen.copy_from_slice(versions);
            cache.h_valid = true;
            cache.factored = false;
        }
        cache
    }

    /// The current `H(skip)`, rebuilt only if stale. The returned
    /// reference borrows the cache, not `grams`.
    pub fn h(&mut self, grams: &[Mat], versions: &[u64], skip: usize) -> &Mat {
        &self.refresh(grams, versions, skip).h
    }

    /// Solves `out = u · H(skip)†` (Eq. 12's row solve), factorizing at
    /// most once per distinct `H` (Cholesky fast path, truncated
    /// pseudoinverse for near-singular systems — the same policy as
    /// [`sns_linalg::lstsq::solve_row_sym`]).
    pub fn solve(
        &mut self,
        grams: &[Mat],
        versions: &[u64],
        skip: usize,
        u: &[f64],
        out: &mut [f64],
    ) {
        let cache = self.refresh(grams, versions, skip);
        if !cache.factored {
            cache.solver.refactor(&cache.h, GRAM_PIVOT_RTOL);
            cache.factored = true;
        }
        cache.solver.solve_row(u, out);
    }
}

/// Everything a fast updater needs to process one event without heap
/// allocation: row scratch, sampling buffers, the cached `H(m)`
/// solves for both the live Grams and (for the sampling variants) the
/// event-start `A_prevᵀA` Grams.
#[derive(Debug)]
pub struct KernelWorkspace {
    /// Scratch vectors.
    pub bufs: RowBufs,
    /// Cached `H(m)` over the live Grams `Q(m) = A(m)ᵀA(m)`.
    pub solves: GramSolves,
    /// Cached `Ĥ(m)` over the event-start Grams `U(m) = A_prev(m)ᵀA(m)`
    /// (Eq. 17 / Eq. 26); unused by the non-sampling updaters.
    pub prev_solves: GramSolves,
}

impl KernelWorkspace {
    /// Workspace for `order` modes at rank `rank`.
    pub fn new(order: usize, rank: usize) -> Self {
        KernelWorkspace {
            bufs: RowBufs::new(rank),
            solves: GramSolves::new(order, rank),
            prev_solves: GramSolves::new(order, rank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grams::{compute_grams, hadamard_except};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sns_linalg::lstsq::solve_row_sym;

    fn setup(seed: u64) -> (Vec<Mat>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> =
            [5usize, 4, 6].iter().map(|&n| Mat::random(&mut rng, n, 3, 1.0)).collect();
        (compute_grams(&factors), vec![7, 7, 7])
    }

    #[test]
    fn cached_h_matches_hadamard_except() {
        let (grams, versions) = setup(1);
        let mut ws = GramSolves::new(3, 3);
        for m in 0..3 {
            let h = ws.h(&grams, &versions, m);
            let fresh = hadamard_except(&grams, m, 3);
            assert_eq!(h.as_slice(), fresh.as_slice(), "mode {m}");
        }
    }

    #[test]
    fn version_bump_triggers_rebuild_others_stay() {
        let (mut grams, mut versions) = setup(2);
        let mut ws = GramSolves::new(3, 3);
        let h0_before = ws.h(&grams, &versions, 0).clone();
        let _ = ws.h(&grams, &versions, 1);
        // Mutate Q(0): H(1), H(2) become stale, H(0) must NOT change.
        grams[0][(0, 0)] += 1.0;
        versions[0] += 1;
        assert_eq!(ws.h(&grams, &versions, 0).as_slice(), h0_before.as_slice());
        let h1 = ws.h(&grams, &versions, 1);
        let fresh1 = hadamard_except(&grams, 1, 3);
        assert_eq!(h1.as_slice(), fresh1.as_slice());
    }

    #[test]
    fn unchanged_versions_reuse_without_rebuild() {
        let (mut grams, versions) = setup(3);
        let mut ws = GramSolves::new(3, 3);
        let before = ws.h(&grams, &versions, 1).clone();
        // Stealth-mutate Q(0) without bumping: the cache must keep the
        // old H — proving it keys on versions, not contents.
        grams[0][(1, 1)] += 5.0;
        assert_eq!(ws.h(&grams, &versions, 1).as_slice(), before.as_slice());
    }

    #[test]
    fn cached_solve_matches_fresh() {
        let (grams, versions) = setup(4);
        let mut ws = GramSolves::new(3, 3);
        let u = [1.0, -0.5, 2.0];
        let mut fast = [0.0; 3];
        ws.solve(&grams, &versions, 2, &u, &mut fast);
        let h = hadamard_except(&grams, 2, 3);
        let mut slow = [0.0; 3];
        solve_row_sym(&h, &u, &mut slow).unwrap();
        for k in 0..3 {
            assert!((fast[k] - slow[k]).abs() < 1e-12);
        }
        // Second solve hits the cached factorization and agrees.
        let mut again = [0.0; 3];
        ws.solve(&grams, &versions, 2, &u, &mut again);
        assert_eq!(fast, again);
    }

    #[test]
    fn invalidate_forces_rebuild_with_same_result() {
        let (grams, versions) = setup(5);
        let mut ws = GramSolves::new(3, 3);
        let u = [0.3, 1.0, -2.0];
        let mut a = [0.0; 3];
        let mut b = [0.0; 3];
        ws.solve(&grams, &versions, 0, &u, &mut a);
        ws.invalidate();
        ws.solve(&grams, &versions, 0, &u, &mut b);
        assert_eq!(a, b);
    }
}
