//! SNS_RND — sampled affected-row updates (Section V-C).
//!
//! Like SNS_VEC it updates only affected rows, but caps the number of
//! window entries read per row at the user threshold `θ`:
//!
//! - `deg(m, i_m) ≤ θ`: the exact row rule Eq. (12);
//! - `deg(m, i_m) > θ`: the sampled rule Eq. (16)
//!   `A(m)(i,:) ← A(m)(i,:)·H_prev·H† + (X̄+ΔX)(m)(i,:)·K·H†`, where `X̄`
//!   carries the residual `x_J − x̃_J` at `θ` fiber entries sampled
//!   uniformly without replacement (ΔX's own coordinates are excluded,
//!   footnote 2).
//!
//! Both branches maintain `Q(m) = A(m)ᵀA(m)` (Eq. 13) and
//! `U(m) = A_prev(m)ᵀA(m)` (Eq. 17), with `A_prev` snapshotted at event
//! start (Algorithm 3 line 1 — only the Grams are snapshotted, `O(MR²)`).
//! With `M, R, θ` constant the per-event cost is `O(1)` (Theorem 5).
//!
//! The residuals `x̃_J` are evaluated with the *current* factor matrices;
//! within one event at most `M+1` rows differ from `A_prev`, a
//! second-order discrepancy (the first-order staleness is exactly what
//! the maintained `U(m)` matrices account for).

use crate::config::{AlgorithmKind, SnsConfig};
use crate::grams::prev_gram_row_update;
use crate::kruskal::KruskalTensor;
use crate::mttkrp::{khatri_rao_row, mttkrp_row, mttkrp_row_sampled_residuals};
use crate::update::common::{delta_entries_for_row, touched_rows_blew_up, FactorState};
use crate::update::ContinuousUpdater;
use crate::workspace::KernelWorkspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sns_linalg::ops::{axpy, row_times_mat};
use sns_linalg::Mat;
use sns_stream::Delta;
use sns_tensor::SparseTensor;

/// The SNS_RND updater.
pub struct SnsRnd {
    state: FactorState,
    /// `U(m) = A_prev(m)ᵀ A(m)` — refreshed from `Q` at each event start.
    prev_grams: Vec<Mat>,
    /// Change counters for `prev_grams` (cache keys for `ws.prev_solves`).
    prev_versions: Vec<u64>,
    theta: usize,
    rng: StdRng,
    ws: KernelWorkspace,
    diverged: bool,
}

impl SnsRnd {
    /// Creates an SNS_RND updater with random initial factors.
    pub fn new(dims: &[usize], config: &SnsConfig) -> Self {
        let state = FactorState::random(dims, config.rank, config.init_scale, config.seed);
        let prev_grams = state.grams.clone();
        SnsRnd {
            prev_grams,
            prev_versions: vec![1; dims.len()],
            ws: KernelWorkspace::new(dims.len(), config.rank),
            theta: config.theta,
            rng: StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15),
            state,
            diverged: false,
        }
    }

    /// Sampling threshold `θ`.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Captures the updater's complete live state. `A_prev` Grams are
    /// not captured: they are overwritten from the live Grams at the
    /// start of every event (Algorithm 3 line 1), so between events they
    /// are dead state.
    pub fn capture_state(&self) -> crate::update::UpdaterState {
        crate::update::UpdaterState::Rnd {
            factors: self.state.kruskal.clone(),
            grams: self.state.grams.clone(),
            theta: self.theta,
            rng: self.rng.state(),
            diverged: self.diverged,
        }
    }

    /// Rebuilds an updater from captured state (bitwise continuation).
    pub(crate) fn from_state(
        factors: KruskalTensor,
        grams: Vec<Mat>,
        theta: usize,
        rng: [u64; 4],
        diverged: bool,
    ) -> Result<Self, String> {
        let order = factors.order();
        let rank = factors.rank();
        let state = FactorState::from_parts(factors, grams)?;
        Ok(SnsRnd {
            prev_grams: state.grams.clone(),
            prev_versions: vec![1; order],
            ws: KernelWorkspace::new(order, rank),
            theta,
            rng: StdRng::from_state(rng),
            state,
            diverged,
        })
    }

    /// One `updateRowRan` call (Algorithm 4, lines 7–17).
    fn update_row(&mut self, window: &SparseTensor, delta: &Delta, mode: usize, index: u32) {
        let deg = window.deg(mode, index);
        let versions = self.state.gram_versions();
        let h = self.ws.solves.h(&self.state.grams, versions, mode);
        if !h.is_finite() {
            self.diverged = true;
            return;
        }
        if deg <= self.theta {
            // Exact path: Eq. (12).
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
            // Sampled path: Eq. (16).
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
            // (X̄ + ΔX)(m)(i,:)·K(m): the sampled residuals (fused
            // eval + Khatri–Rao pass), then the ≤ 2 ΔX terms.
            mttkrp_row_sampled_residuals(
                window,
                &self.state.kruskal,
                mode,
                &self.ws.bufs.samples,
                &mut self.ws.bufs.acc,
                &mut self.ws.bufs.prod,
            )
            .expect("workspace-sized buffers");
            for (c, v) in delta_entries_for_row(delta, mode, index) {
                if v != 0.0 {
                    khatri_rao_row(&self.state.kruskal.factors, &c, mode, &mut self.ws.bufs.prod);
                    axpy(v, &self.ws.bufs.prod, &mut self.ws.bufs.acc);
                }
            }
            // + A(m)(i,:)·H_prev  (the X̃ part of the fiber)
            let h_prev = self.ws.prev_solves.h(&self.prev_grams, &self.prev_versions, mode);
            let row = self.state.kruskal.factors[mode].row(index as usize);
            row_times_mat(row, h_prev, &mut self.ws.bufs.prod);
            axpy(1.0, &self.ws.bufs.prod, &mut self.ws.bufs.acc);
        }
        // · H† (cached factorization; H itself was refreshed above).
        self.ws.solves.solve(
            &self.state.grams,
            self.state.gram_versions(),
            mode,
            &self.ws.bufs.acc,
            &mut self.ws.bufs.row,
        );
        // Commit + Eq. (13) + Eq. (17).
        if self.state.commit_row(mode, index, &self.ws.bufs.row, &mut self.ws.bufs.old) {
            prev_gram_row_update(&mut self.prev_grams[mode], &self.ws.bufs.old, &self.ws.bufs.row);
            self.prev_versions[mode] += 1;
        }
    }
}

impl ContinuousUpdater for SnsRnd {
    fn apply(&mut self, window: &SparseTensor, delta: &Delta) {
        if self.diverged {
            return;
        }
        // Algorithm 3 line 1: A_prevᵀA ← AᵀA at event start.
        for ((u, q), v) in
            self.prev_grams.iter_mut().zip(&self.state.grams).zip(&mut self.prev_versions)
        {
            u.as_mut_slice().copy_from_slice(q.as_slice());
            *v += 1;
        }
        let tm = self.state.time_mode();
        // Time-mode rows in the order the delta lists them.
        for index in delta.time_indices() {
            self.update_row(window, delta, tm, index);
        }
        // Categorical modes.
        for m in 0..tm {
            let index = delta.tuple.coords.get(m);
            self.update_row(window, delta, m, index);
        }
        if touched_rows_blew_up(&self.state, delta) {
            // Numerical runaway (Observation 3): freeze the factors. The
            // clipped SNS+ variants exist precisely to avoid this.
            self.diverged = true;
        }
    }

    fn kruskal(&self) -> &KruskalTensor {
        &self.state.kruskal
    }

    fn grams(&self) -> &[Mat] {
        &self.state.grams
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Rnd
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
        self.prev_grams = grams.clone();
        self.state.install(kruskal, grams);
        self.diverged = false;
    }

    fn diverged(&self) -> bool {
        self.diverged
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

    fn drive(theta: usize, seed: u64, n: usize) -> (ContinuousWindow, SnsRnd) {
        let mut w = ContinuousWindow::new(&[5, 4], 5, 10);
        let mut rng = StdRng::seed_from_u64(seed);
        let config =
            SnsConfig { rank: 3, theta, seed: seed + 1, init_scale: 0.3, ..Default::default() };
        let mut alg = SnsRnd::new(&[5, 4, 5], &config);
        let mut out = Vec::new();
        let mut t = 0u64;
        for _ in 0..n / 2 {
            t += rng.gen_range(0..3);
            out.clear();
            w.ingest(
                StreamTuple::new([rng.gen_range(0..5u32), rng.gen_range(0..4u32)], 1.0, t),
                &mut out,
            )
            .unwrap();
        }
        let warm = als(w.tensor(), 3, &AlsOptions { max_iters: 30, ..Default::default() });
        alg.install(warm.kruskal, warm.grams);
        for _ in 0..n / 2 {
            t += rng.gen_range(0..3);
            out.clear();
            w.ingest(
                StreamTuple::new([rng.gen_range(0..5u32), rng.gen_range(0..4u32)], 1.0, t),
                &mut out,
            )
            .unwrap();
            for d in &out {
                alg.apply(w.tensor(), d);
            }
        }
        (w, alg)
    }

    #[test]
    fn tracks_stream_with_reasonable_fitness() {
        let (w, alg) = drive(8, 21, 200);
        assert!(!alg.diverged());
        let fit = fitness_with_grams(w.tensor(), &alg.state.kruskal, &alg.state.grams);
        let reference = als(w.tensor(), 3, &AlsOptions { max_iters: 40, ..Default::default() });
        assert!(
            fit > 0.4 * reference.fitness,
            "SNS_RND fitness {fit} too far below ALS {}",
            reference.fitness
        );
    }

    #[test]
    fn large_theta_equals_exact_path() {
        // With θ ≥ any fiber degree, SNS_RND must behave exactly like the
        // Eq. (12) path on every row (no sampling branch taken), so two
        // runs with different RNG seeds must agree bit-for-bit.
        let (_, a) = drive(10_000, 31, 120);
        let (_, b) = drive(10_000, 31, 120);
        for m in 0..3 {
            assert_eq!(a.state.kruskal.factors[m], b.state.kruskal.factors[m]);
        }
    }

    #[test]
    fn grams_follow_factors() {
        let (_, alg) = drive(5, 41, 160);
        if alg.diverged() || alg.kruskal().max_abs_entry() > 1e3 {
            // The unclipped variant may legitimately run away (Observation
            // 3); incremental Gram bookkeeping loses relative precision in
            // that regime, which is exactly why SNS⁺ exists.
            return;
        }
        for (m, g) in alg.state.grams.iter().enumerate() {
            let fresh = gram(&alg.state.kruskal.factors[m]);
            let scale = 1.0 + fresh.max_abs();
            for i in 0..3 {
                for j in 0..3 {
                    assert!(
                        (g[(i, j)] - fresh[(i, j)]).abs() < 1e-6 * scale,
                        "mode {m} ({i},{j}): {} vs {}",
                        g[(i, j)],
                        fresh[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn sampled_path_is_taken_for_small_theta() {
        // θ = 1 with a dense-ish fiber forces sampling; two seeds diverge.
        let (_, a) = drive(1, 51, 160);
        let (_, b) = drive(1, 52, 160);
        let same = (0..3).all(|m| a.state.kruskal.factors[m] == b.state.kruskal.factors[m]);
        assert!(!same, "different sampling seeds should yield different factors");
    }

    #[test]
    fn metadata() {
        let config = SnsConfig { rank: 2, theta: 9, ..Default::default() };
        let alg = SnsRnd::new(&[3, 3, 2], &config);
        assert_eq!(alg.kind(), AlgorithmKind::Rnd);
        assert_eq!(alg.theta(), 9);
    }
}
