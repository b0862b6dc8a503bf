//! SNS_VEC — affected-row updates (Section V-B).
//!
//! Per event (Algorithm 3) it updates only the rows of the factor matrices
//! that approximate the changed entries: the one or two affected time-mode
//! rows via the additive rule Eq. (9), and the row `i_m` of every
//! categorical mode via the exact row least squares Eq. (12). Gram
//! matrices follow by Eq. (13). `O(MR·Σ deg + (MR)² + MR³)` per event
//! (Theorem 4). No normalization and no clipping — fast, but can diverge
//! (Observation 3).

use crate::config::{AlgorithmKind, SnsConfig};
use crate::kruskal::KruskalTensor;
use crate::update::common::{
    touched_rows_blew_up, update_row_exact, update_time_row_additive, FactorState,
};
use crate::update::ContinuousUpdater;
use crate::workspace::KernelWorkspace;
use sns_linalg::Mat;
use sns_stream::Delta;
use sns_tensor::SparseTensor;

/// The SNS_VEC updater.
pub struct SnsVec {
    state: FactorState,
    ws: KernelWorkspace,
    diverged: bool,
}

impl SnsVec {
    /// Creates an SNS_VEC updater with random initial factors.
    pub fn new(dims: &[usize], config: &SnsConfig) -> Self {
        let state = FactorState::random(dims, config.rank, config.init_scale, config.seed);
        let ws = KernelWorkspace::new(dims.len(), config.rank);
        SnsVec { state, ws, diverged: false }
    }

    /// Captures the updater's complete live state.
    pub fn capture_state(&self) -> crate::update::UpdaterState {
        crate::update::UpdaterState::Vec {
            factors: self.state.kruskal.clone(),
            grams: self.state.grams.clone(),
            diverged: self.diverged,
        }
    }

    /// Rebuilds an updater from captured state (bitwise continuation).
    pub(crate) fn from_state(
        factors: KruskalTensor,
        grams: Vec<Mat>,
        diverged: bool,
    ) -> Result<Self, String> {
        let order = factors.order();
        let rank = factors.rank();
        let state = FactorState::from_parts(factors, grams)?;
        Ok(SnsVec { state, ws: KernelWorkspace::new(order, rank), diverged })
    }
}

impl ContinuousUpdater for SnsVec {
    fn apply(&mut self, window: &SparseTensor, delta: &Delta) {
        if self.diverged {
            return;
        }
        let tm = self.state.time_mode();
        // Time-mode rows (Algorithm 3 lines 3–6): Eq. (9) per affected row.
        // `delta.changes` lists them in the paper's order (W−w then W−w−1,
        // 0-based) with their signed values.
        for &(coord, value) in delta.changes.iter() {
            let index = coord.get(tm);
            update_time_row_additive(&mut self.state, delta, index, value, &mut self.ws);
        }
        // Categorical modes (lines 7–8): Eq. (12).
        for m in 0..tm {
            let index = delta.tuple.coords.get(m);
            update_row_exact(&mut self.state, window, m, index, &mut self.ws);
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
        AlgorithmKind::Vec
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sns_linalg::ops::gram;
    use sns_stream::{ContinuousWindow, StreamTuple};

    fn drive(seed: u64, n_tuples: usize) -> (ContinuousWindow, SnsVec) {
        let mut w = ContinuousWindow::new(&[5, 4], 5, 10);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = SnsConfig { rank: 3, seed: seed + 1, init_scale: 0.3, ..Default::default() };
        let mut vec = SnsVec::new(&[5, 4, 5], &config);
        let mut out = Vec::new();
        // Pre-fill, then warm start from ALS like the paper does.
        let mut t = 0u64;
        for _ in 0..n_tuples / 2 {
            t += rng.gen_range(0..3);
            out.clear();
            w.ingest(
                StreamTuple::new([rng.gen_range(0..5u32), rng.gen_range(0..4u32)], 1.0, t),
                &mut out,
            )
            .unwrap();
        }
        let warm = als(w.tensor(), 3, &AlsOptions { max_iters: 30, ..Default::default() });
        vec.install(warm.kruskal, warm.grams);
        for _ in 0..n_tuples / 2 {
            t += rng.gen_range(0..3);
            out.clear();
            w.ingest(
                StreamTuple::new([rng.gen_range(0..5u32), rng.gen_range(0..4u32)], 1.0, t),
                &mut out,
            )
            .unwrap();
            for d in &out {
                vec.apply(w.tensor(), d);
            }
        }
        (w, vec)
    }

    #[test]
    fn tracks_stream_with_reasonable_fitness() {
        let (w, vec) = drive(11, 200);
        assert!(!vec.diverged());
        let fit = fitness_with_grams(w.tensor(), &vec.state.kruskal, &vec.state.grams);
        let reference = als(w.tensor(), 3, &AlsOptions { max_iters: 40, ..Default::default() });
        assert!(
            fit > 0.5 * reference.fitness,
            "SNS_VEC fitness {fit} too far below ALS {}",
            reference.fitness
        );
    }

    #[test]
    fn grams_stay_consistent() {
        let (_, vec) = drive(13, 150);
        for (m, g) in vec.state.grams.iter().enumerate() {
            let fresh = gram(&vec.state.kruskal.factors[m]);
            for i in 0..3 {
                for j in 0..3 {
                    assert!(
                        (g[(i, j)] - fresh[(i, j)]).abs() < 1e-6 * (1.0 + fresh[(i, j)].abs()),
                        "mode {m} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn only_affected_rows_change() {
        let mut w = ContinuousWindow::new(&[6, 6], 4, 100);
        let config = SnsConfig { rank: 2, seed: 3, init_scale: 0.3, ..Default::default() };
        let mut vec = SnsVec::new(&[6, 6, 4], &config);
        let mut out = Vec::new();
        w.ingest(StreamTuple::new([1u32, 1], 1.0, 1), &mut out).unwrap();
        for d in &out {
            vec.apply(w.tensor(), d);
        }
        let snapshot: Vec<Mat> = vec.state.kruskal.factors.clone();
        // New arrival touching coords (4, 5) and time row 3 only.
        out.clear();
        w.ingest(StreamTuple::new([4u32, 5], 2.0, 2), &mut out).unwrap();
        for d in &out {
            vec.apply(w.tensor(), d);
        }
        for (m, snap) in snapshot.iter().enumerate().take(2) {
            let touched = if m == 0 { 4 } else { 5 };
            for i in 0..6 {
                if i == touched {
                    continue;
                }
                assert_eq!(
                    vec.state.kruskal.factors[m].row(i),
                    snap.row(i),
                    "mode {m} row {i} must not change"
                );
            }
        }
        for t in 0..3 {
            assert_eq!(vec.state.kruskal.factors[2].row(t), snapshot[2].row(t));
        }
    }

    #[test]
    fn divergence_flag_stops_updates() {
        let config = SnsConfig { rank: 2, seed: 4, ..Default::default() };
        let mut vec = SnsVec::new(&[3, 3, 2], &config);
        // Poison the state.
        vec.state.kruskal.factors[0][(0, 0)] = f64::NAN;
        vec.diverged = true;
        let mut w = ContinuousWindow::new(&[3, 3], 2, 10);
        let mut out = Vec::new();
        w.ingest(StreamTuple::new([0u32, 0], 1.0, 0), &mut out).unwrap();
        vec.apply(w.tensor(), &out[0]); // must not panic
        assert!(vec.diverged());
    }
}
