//! SNS⁺_VEC and SNS⁺_RND — coordinate descent with clipping (Section V-D).
//!
//! The unclipped row solves of SNS_VEC / SNS_RND can blow factor entries
//! up (Observation 3). The stable variants update one entry at a time
//! (coordinate descent) and clip every result into `[−η, η]`, which never
//! increases the local objective (footnote 3: the objective restricted to
//! one entry is a convex parabola, so moving from the unconstrained
//! minimizer back toward a point still on the same side keeps it below
//! the starting value).
//!
//! For the entry `a(m)_{i_m k}`, with `G = ∗_{n≠m} Q(n)` and
//! `Ĝ = ∗_{n≠m} U(n)` (Eq. 20):
//!
//! - `c_k = G_kk`,
//! - `d_{ik} = Σ_{r≠k} a_{i r} G_{r k}` (uses the *current*, mutating row),
//! - `e_{ik} = Σ_r b_{i r} Ĝ_{r k}` with `b` the row at event start,
//!
//! and the updates are Eq. (21) (exact), Eq. (22) (time-mode model
//! approximation), Eq. (23) (sampled). Gram upkeep is Eqs. (24)–(26),
//! applied as the equivalent end-of-row rank-1 forms (the per-coordinate
//! entrywise updates telescope to exactly these — see `grams.rs`).

use crate::config::{AlgorithmKind, SnsConfig};
use crate::grams::prev_gram_row_update;
use crate::kruskal::KruskalTensor;
use crate::mttkrp::{mttkrp_row, mttkrp_row_sampled_residuals};
use crate::update::common::{delta_entries_for_row, FactorState};
use crate::update::ContinuousUpdater;
use crate::workspace::KernelWorkspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sns_linalg::Mat;
use sns_stream::Delta;
use sns_tensor::SparseTensor;

/// Coordinate-descent sweep over one factor row with clipping.
///
/// `base[k]` must hold the data-dependent part of the numerator (the
/// bracketed sums of Eqs. 21–23 *without* `−d_{ik}`); this function
/// subtracts `d_{ik}` with the live row and divides by `c_k`, clipping
/// each result to `[−η, η]`. Returns the updated row via the factor
/// matrix itself; the previous row must already be saved by the caller.
fn descend_row(factor: &mut Mat, index: u32, g: &Mat, base: &[f64], eta: f64) {
    let rank = g.rows();
    let row = factor.row_mut(index as usize);
    for k in 0..rank {
        // G is bitwise symmetric (a Hadamard product of Gram matrices),
        // so column k equals row k — read the contiguous row and let the
        // dot product vectorize instead of striding down the column.
        let gk = g.row(k);
        let c = gk[k];
        if c > 0.0 {
            // d_{ik} = row·G(:,k) − row[k]·G_kk (current row values).
            let d = sns_linalg::ops::dot(row, gk) - row[k] * c;
            row[k] = (base[k] - d) / c;
        }
        // Clipping (Algorithm 5 lines 5/15) applies in every case.
        if row[k] > eta {
            row[k] = eta;
        } else if row[k] < -eta {
            row[k] = -eta;
        }
    }
}

/// `e_{ik} = Σ_r b_{ir} Ĝ_{rk}` for the whole row (Eq. 20's `e` terms).
fn model_row(prev_row: &[f64], g_hat: &Mat, out: &mut [f64]) {
    sns_linalg::ops::row_times_mat(prev_row, g_hat, out);
}

/// The SNS⁺_VEC updater (Algorithm 5, `updateRowVec+`).
pub struct SnsPlusVec {
    state: FactorState,
    eta: f64,
    ws: KernelWorkspace,
}

impl SnsPlusVec {
    /// Creates an SNS⁺_VEC updater with random initial factors.
    pub fn new(dims: &[usize], config: &SnsConfig) -> Self {
        SnsPlusVec {
            state: FactorState::random(dims, config.rank, config.init_scale, config.seed),
            eta: config.eta,
            ws: KernelWorkspace::new(dims.len(), config.rank),
        }
    }

    /// Clipping bound `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Captures the updater's complete live state.
    pub fn capture_state(&self) -> crate::update::UpdaterState {
        crate::update::UpdaterState::PlusVec {
            factors: self.state.kruskal.clone(),
            grams: self.state.grams.clone(),
            eta: self.eta,
        }
    }

    /// Rebuilds an updater from captured state (bitwise continuation).
    pub(crate) fn from_state(
        factors: KruskalTensor,
        grams: Vec<Mat>,
        eta: f64,
    ) -> Result<Self, String> {
        let order = factors.order();
        let rank = factors.rank();
        let state = FactorState::from_parts(factors, grams)?;
        Ok(SnsPlusVec { state, eta, ws: KernelWorkspace::new(order, rank) })
    }

    fn update_row(&mut self, window: &SparseTensor, delta: &Delta, mode: usize, index: u32) {
        let tm = self.state.time_mode();
        self.ws.bufs.old.copy_from_slice(self.state.kruskal.factors[mode].row(index as usize));
        // Coordinate descent reads H(m) entrywise and never factorizes it,
        // so the cache only pays the Hadamard rebuild — and skips even
        // that when no Gram it depends on changed.
        let g = self.ws.solves.h(&self.state.grams, self.state.gram_versions(), mode);
        if mode == tm {
            // Eq. (22): e + Σ_ΔX Δx·Π a. The time mode is updated before
            // any other factor changes in this event, so U(n) = Q(n) for
            // all n ≠ M and Ĝ = G.
            model_row(&self.ws.bufs.old, g, &mut self.ws.bufs.acc);
            for (c, v) in delta_entries_for_row(delta, mode, index) {
                if v == 0.0 {
                    continue;
                }
                crate::mttkrp::khatri_rao_row(
                    &self.state.kruskal.factors,
                    &c,
                    mode,
                    &mut self.ws.bufs.prod,
                );
                sns_linalg::ops::axpy(v, &self.ws.bufs.prod, &mut self.ws.bufs.acc);
            }
        } else {
            // Eq. (21): exact fiber sum over X+ΔX (already in `window`).
            mttkrp_row(
                window,
                &self.state.kruskal.factors,
                mode,
                index,
                &mut self.ws.bufs.acc,
                &mut self.ws.bufs.prod,
            )
            .expect("workspace-sized buffers");
        }
        descend_row(&mut self.state.kruskal.factors[mode], index, g, &self.ws.bufs.acc, self.eta);
        self.state.note_row_changed(mode, index, &self.ws.bufs.old);
    }
}

impl ContinuousUpdater for SnsPlusVec {
    fn apply(&mut self, window: &SparseTensor, delta: &Delta) {
        let tm = self.state.time_mode();
        for index in delta.time_indices() {
            self.update_row(window, delta, tm, index);
        }
        for m in 0..tm {
            self.update_row(window, delta, m, delta.tuple.coords.get(m));
        }
    }

    fn kruskal(&self) -> &KruskalTensor {
        &self.state.kruskal
    }

    fn grams(&self) -> &[Mat] {
        &self.state.grams
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::PlusVec
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
        self.state.install(kruskal, grams);
    }
}

/// The SNS⁺_RND updater (Algorithm 5, `updateRowRan+`).
pub struct SnsPlusRnd {
    state: FactorState,
    prev_grams: Vec<Mat>,
    /// Change counters for `prev_grams` (cache keys for `ws.prev_solves`).
    prev_versions: Vec<u64>,
    theta: usize,
    eta: f64,
    rng: StdRng,
    ws: KernelWorkspace,
}

impl SnsPlusRnd {
    /// Creates an SNS⁺_RND updater with random initial factors.
    pub fn new(dims: &[usize], config: &SnsConfig) -> Self {
        let state = FactorState::random(dims, config.rank, config.init_scale, config.seed);
        let prev_grams = state.grams.clone();
        SnsPlusRnd {
            prev_grams,
            prev_versions: vec![1; dims.len()],
            theta: config.theta,
            eta: config.eta,
            rng: StdRng::seed_from_u64(config.seed ^ 0x517c_c1b7_2722_0a95),
            ws: KernelWorkspace::new(dims.len(), config.rank),
            state,
        }
    }

    /// Sampling threshold `θ`.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Clipping bound `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Captures the updater's complete live state. `A_prev` Grams are
    /// not captured: they are overwritten from the live Grams at the
    /// start of every event (Algorithm 3 line 1), so between events they
    /// are dead state.
    pub fn capture_state(&self) -> crate::update::UpdaterState {
        crate::update::UpdaterState::PlusRnd {
            factors: self.state.kruskal.clone(),
            grams: self.state.grams.clone(),
            theta: self.theta,
            eta: self.eta,
            rng: self.rng.state(),
        }
    }

    /// Rebuilds an updater from captured state (bitwise continuation).
    pub(crate) fn from_state(
        factors: KruskalTensor,
        grams: Vec<Mat>,
        theta: usize,
        eta: f64,
        rng: [u64; 4],
    ) -> Result<Self, String> {
        let order = factors.order();
        let rank = factors.rank();
        let state = FactorState::from_parts(factors, grams)?;
        Ok(SnsPlusRnd {
            prev_grams: state.grams.clone(),
            prev_versions: vec![1; order],
            theta,
            eta,
            rng: StdRng::from_state(rng),
            ws: KernelWorkspace::new(order, rank),
            state,
        })
    }

    fn update_row(&mut self, window: &SparseTensor, delta: &Delta, mode: usize, index: u32) {
        let deg = window.deg(mode, index);
        self.ws.bufs.old.copy_from_slice(self.state.kruskal.factors[mode].row(index as usize));
        if deg <= self.theta {
            // Eq. (21): exact fiber sum.
            mttkrp_row(
                window,
                &self.state.kruskal.factors,
                mode,
                index,
                &mut self.ws.bufs.acc,
                &mut self.ws.bufs.prod,
            )
            .expect("workspace-sized buffers");
        } else {
            // Eq. (23): e (model part via Ĝ) + sampled residuals + ΔX.
            let g_hat = self.ws.prev_solves.h(&self.prev_grams, &self.prev_versions, mode);
            model_row(&self.ws.bufs.old, g_hat, &mut self.ws.bufs.acc);
            self.ws.bufs.exclude.clear();
            self.ws.bufs.exclude.extend(delta.changes.coords());
            self.ws.bufs.samples.clear();
            window.sample_fiber_positions(
                mode,
                index,
                self.theta,
                &mut self.rng,
                &self.ws.bufs.exclude,
                &mut self.ws.bufs.samples,
            );
            // Sampled residuals accumulate separately (fused eval +
            // Khatri–Rao pass), then fold into the model part with the ΔX
            // terms — mirroring the Eq. (23) bracketing.
            mttkrp_row_sampled_residuals(
                window,
                &self.state.kruskal,
                mode,
                &self.ws.bufs.samples,
                &mut self.ws.bufs.extra,
                &mut self.ws.bufs.prod,
            )
            .expect("workspace-sized buffers");
            for (c, v) in delta_entries_for_row(delta, mode, index) {
                if v != 0.0 {
                    crate::mttkrp::khatri_rao_row(
                        &self.state.kruskal.factors,
                        &c,
                        mode,
                        &mut self.ws.bufs.prod,
                    );
                    sns_linalg::ops::axpy(v, &self.ws.bufs.prod, &mut self.ws.bufs.extra);
                }
            }
            sns_linalg::ops::axpy(1.0, &self.ws.bufs.extra, &mut self.ws.bufs.acc);
        }
        let g = self.ws.solves.h(&self.state.grams, self.state.gram_versions(), mode);
        descend_row(&mut self.state.kruskal.factors[mode], index, g, &self.ws.bufs.acc, self.eta);
        if self.state.note_row_changed(mode, index, &self.ws.bufs.old) {
            let row = self.state.kruskal.factors[mode].row(index as usize);
            prev_gram_row_update(&mut self.prev_grams[mode], &self.ws.bufs.old, row);
            self.prev_versions[mode] += 1;
        }
    }
}

impl ContinuousUpdater for SnsPlusRnd {
    fn apply(&mut self, window: &SparseTensor, delta: &Delta) {
        // Snapshot the Grams: A_prevᵀA ← AᵀA (Algorithm 3 line 1).
        for ((u, q), v) in
            self.prev_grams.iter_mut().zip(&self.state.grams).zip(&mut self.prev_versions)
        {
            u.as_mut_slice().copy_from_slice(q.as_slice());
            *v += 1;
        }
        let tm = self.state.time_mode();
        for index in delta.time_indices() {
            self.update_row(window, delta, tm, index);
        }
        for m in 0..tm {
            self.update_row(window, delta, m, delta.tuple.coords.get(m));
        }
    }

    fn kruskal(&self) -> &KruskalTensor {
        &self.state.kruskal
    }

    fn grams(&self) -> &[Mat] {
        &self.state.grams
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::PlusRnd
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
        self.prev_grams = grams.clone();
        self.state.install(kruskal, grams);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::{als, AlsOptions};
    use crate::fitness::fitness_with_grams;
    use rand::Rng;
    use sns_linalg::ops::gram;
    use sns_stream::{ContinuousWindow, StreamTuple};

    fn stream(seed: u64, n: usize) -> Vec<StreamTuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0u64;
        (0..n)
            .map(|_| {
                t += rng.gen_range(0..3);
                StreamTuple::new([rng.gen_range(0..5u32), rng.gen_range(0..4u32)], 1.0, t)
            })
            .collect()
    }

    fn drive<U: ContinuousUpdater>(alg: &mut U, tuples: &[StreamTuple]) -> ContinuousWindow {
        let mut w = ContinuousWindow::new(&[5, 4], 5, 10);
        let mut out = Vec::new();
        let half = tuples.len() / 2;
        for tu in &tuples[..half] {
            out.clear();
            w.ingest(*tu, &mut out).unwrap();
        }
        let warm = als(w.tensor(), 3, &AlsOptions { max_iters: 30, ..Default::default() });
        alg.install(warm.kruskal, warm.grams);
        for tu in &tuples[half..] {
            out.clear();
            w.ingest(*tu, &mut out).unwrap();
            for d in &out {
                alg.apply(w.tensor(), d);
            }
        }
        w
    }

    #[test]
    fn plus_vec_tracks_stream() {
        let tuples = stream(61, 200);
        let config = SnsConfig { rank: 3, eta: 1000.0, seed: 62, ..Default::default() };
        let mut alg = SnsPlusVec::new(&[5, 4, 5], &config);
        let w = drive(&mut alg, &tuples);
        let fit = fitness_with_grams(w.tensor(), alg.kruskal(), alg.grams());
        let reference = als(w.tensor(), 3, &AlsOptions { max_iters: 40, ..Default::default() });
        assert!(
            fit > 0.5 * reference.fitness,
            "SNS+_VEC fitness {fit} vs ALS {}",
            reference.fitness
        );
        assert!(alg.kruskal().is_finite());
    }

    #[test]
    fn plus_rnd_tracks_stream() {
        let tuples = stream(71, 200);
        // θ must cover a reasonable share of the fiber degrees (here ~30)
        // for the sampled rule to track an unstructured stream.
        let config = SnsConfig { rank: 3, theta: 12, eta: 1000.0, seed: 72, ..Default::default() };
        let mut alg = SnsPlusRnd::new(&[5, 4, 5], &config);
        let w = drive(&mut alg, &tuples);
        let fit = fitness_with_grams(w.tensor(), alg.kruskal(), alg.grams());
        let reference = als(w.tensor(), 3, &AlsOptions { max_iters: 40, ..Default::default() });
        assert!(
            fit > 0.4 * reference.fitness,
            "SNS+_RND fitness {fit} vs ALS {}",
            reference.fitness
        );
        assert!(alg.kruskal().is_finite());
    }

    #[test]
    fn clipping_bound_is_respected_always() {
        // Tiny η: every factor entry must stay within [−η, η] after any
        // number of events.
        let tuples = stream(81, 150);
        let eta = 2.0;
        let config = SnsConfig { rank: 3, theta: 4, eta, seed: 82, ..Default::default() };
        let mut alg = SnsPlusRnd::new(&[5, 4, 5], &config);
        // Note: install() replaces factors with ALS output that may exceed
        // η; the bound is enforced on every row the updater touches.
        let mut w = ContinuousWindow::new(&[5, 4], 5, 10);
        let mut out = Vec::new();
        for tu in &tuples {
            out.clear();
            w.ingest(*tu, &mut out).unwrap();
            for d in &out {
                alg.apply(w.tensor(), d);
            }
        }
        assert!(
            alg.kruskal().max_abs_entry() <= eta + 1e-12,
            "entry exceeded η: {}",
            alg.kruskal().max_abs_entry()
        );
    }

    #[test]
    fn exact_coordinate_descent_never_increases_objective() {
        // Footnote 3: the exact path (Eq. 21 + clipping) is a true
        // coordinate-descent step — the objective cannot increase. (The
        // time-mode Eq. 22 carries this guarantee only when X̃ ≈ X,
        // footnote 4, so we exercise *categorical* rows only.)
        let tuples = stream(91, 80);
        let config = SnsConfig { rank: 3, eta: 1e6, seed: 92, ..Default::default() };
        let mut alg = SnsPlusVec::new(&[5, 4, 5], &config);
        let mut w = ContinuousWindow::new(&[5, 4], 5, 10);
        let mut out = Vec::new();
        for tu in &tuples {
            out.clear();
            w.ingest(*tu, &mut out).unwrap();
        }
        let last_delta = out.last().copied().unwrap();
        let mut prev = fitness_with_grams(w.tensor(), alg.kruskal(), alg.grams());
        // Sweep every categorical row through the exact Eq. 21 update.
        for pass in 0..4 {
            for mode in 0..2usize {
                for i in 0..w.tensor().shape().dim(mode) as u32 {
                    alg.update_row(w.tensor(), &last_delta, mode, i);
                    let fit = fitness_with_grams(w.tensor(), alg.kruskal(), alg.grams());
                    assert!(
                        fit >= prev - 1e-9,
                        "pass {pass} mode {mode} row {i}: fitness decreased {prev} -> {fit}"
                    );
                    prev = fit;
                }
            }
        }
    }

    #[test]
    fn grams_follow_factors() {
        let tuples = stream(101, 150);
        let config = SnsConfig { rank: 3, theta: 5, seed: 102, ..Default::default() };
        let mut alg = SnsPlusRnd::new(&[5, 4, 5], &config);
        let _ = drive(&mut alg, &tuples);
        for (m, g) in alg.grams().iter().enumerate() {
            let fresh = gram(&alg.kruskal().factors[m]);
            let scale = 1.0 + fresh.max_abs();
            for i in 0..3 {
                for j in 0..3 {
                    assert!((g[(i, j)] - fresh[(i, j)]).abs() < 1e-6 * scale, "mode {m} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn large_theta_makes_plus_rnd_deterministic() {
        // With θ ≥ every fiber degree, SNS⁺_RND never samples, so two runs
        // with different RNG seeds must agree bit-for-bit.
        let tuples = stream(111, 120);
        let run = |seed: u64| {
            let config = SnsConfig {
                rank: 3,
                theta: 10_000,
                eta: 1000.0,
                seed: 112, // same factor init
                ..Default::default()
            };
            let mut alg = SnsPlusRnd::new(&[5, 4, 5], &config);
            alg.rng = StdRng::seed_from_u64(seed); // different sampling RNG
            let _ = drive(&mut alg, &tuples);
            alg
        };
        let a = run(1);
        let b = run(2);
        for m in 0..3 {
            assert_eq!(a.kruskal().factors[m], b.kruskal().factors[m], "mode {m}");
        }
    }

    #[test]
    fn metadata() {
        let config = SnsConfig { rank: 2, theta: 3, eta: 64.0, ..Default::default() };
        let v = SnsPlusVec::new(&[3, 3, 2], &config);
        assert_eq!(v.kind(), AlgorithmKind::PlusVec);
        assert_eq!(v.eta(), 64.0);
        let r = SnsPlusRnd::new(&[3, 3, 2], &config);
        assert_eq!(r.kind(), AlgorithmKind::PlusRnd);
        assert_eq!(r.theta(), 3);
        assert_eq!(r.eta(), 64.0);
        assert!(!v.diverged() && !r.diverged());
    }
}
