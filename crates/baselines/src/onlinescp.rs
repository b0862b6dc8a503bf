//! OnlineSCP (Zhou, Erfani, Bailey — ICDM 2018), windowed adaptation.
//!
//! OnlineSCP incrementally maintains a CPD of a *growing* sparse tensor:
//! when a new time slice arrives it (1) solves the new time-factor row by
//! least squares against the fixed categorical factors, then (2) refreshes
//! each categorical factor with a single least-squares solve that reuses
//! the historical auxiliary products instead of iterating to convergence.
//!
//! Windowed adaptation (the paper's "modified … to decompose the tensor
//! window"): the time factor slides with the window, the new row is
//! solved from the new slice, and the single categorical refresh runs its
//! MTTKRP over the window's non-zeros (history = the window, since
//! evicted slices must stop contributing). Per-period cost is therefore
//! `O(|window| · M · R + M R³)` — one window sweep, no inner iterations —
//! which matches OnlineSCP's position in Fig. 5a (accurate but the
//! slowest online baseline).

use crate::periodic::{diverged, slide_time_factor, solve_new_time_row, PeriodicCpd};
use sns_core::grams::{compute_grams, hadamard_except};
use sns_core::kruskal::KruskalTensor;
use sns_core::mttkrp::mttkrp_full;
use sns_linalg::ops::gram;
use sns_linalg::Mat;
use sns_stream::{PeriodUpdate, SnsError};
use sns_tensor::SparseTensor;

/// Windowed OnlineSCP.
pub struct OnlineScp {
    kruskal: KruskalTensor,
    grams: Vec<Mat>,
}

impl OnlineScp {
    /// Creates the baseline with random factors; `dims` includes the time
    /// mode (length `W`) last.
    pub fn new(dims: &[usize], rank: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kruskal = KruskalTensor::random(&mut rng, dims, rank, 1.0);
        let grams = compute_grams(&kruskal.factors);
        OnlineScp { kruskal, grams }
    }

    /// Rebuilds the baseline from captured state (bitwise continuation).
    pub(crate) fn from_state(kruskal: KruskalTensor, grams: Vec<Mat>) -> Self {
        OnlineScp { kruskal, grams }
    }
}

impl PeriodicCpd for OnlineScp {
    fn on_period(&mut self, window: &SparseTensor, update: &PeriodUpdate) -> Result<(), SnsError> {
        let tm = self.kruskal.order() - 1;
        let rank = self.kruskal.rank();
        // 1. Slide the time factor with the window.
        slide_time_factor(&mut self.kruskal, &mut self.grams, tm);
        // 2. New time row from the new slice (historical rows fixed —
        //    OnlineSCP never revisits committed time rows).
        solve_new_time_row(&mut self.kruskal, &mut self.grams, update)
            .map_err(|e| diverged(self.name(), e))?;
        // 3. Single refresh of each categorical factor over the window.
        for m in 0..tm {
            let u = mttkrp_full(window, &self.kruskal.factors, m);
            let h = hadamard_except(&self.grams, m, rank);
            self.kruskal.factors[m] =
                sns_linalg::lstsq::solve_xh_eq_u(&h, &u).map_err(|e| diverged(self.name(), e))?;
            self.grams[m] = gram(&self.kruskal.factors[m]);
        }
        Ok(())
    }

    fn kruskal(&self) -> &KruskalTensor {
        &self.kruskal
    }

    fn grams(&self) -> &[Mat] {
        &self.grams
    }

    fn name(&self) -> String {
        "OnlineSCP".to_string()
    }

    fn install(&mut self, mut kruskal: KruskalTensor, grams: Vec<Mat>) {
        // The incremental solves assume unit weights: fold λ in.
        if kruskal.lambda.iter().any(|&l| l != 1.0) {
            kruskal.distribute_lambda();
            self.grams = compute_grams(&kruskal.factors);
        } else {
            self.grams = grams;
        }
        self.kruskal = kruskal;
    }

    fn capture(&self) -> crate::state::BaselineAlgoState {
        crate::state::BaselineAlgoState::OnlineScp {
            kruskal: self.kruskal.clone(),
            grams: self.grams.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_stream::{DiscreteWindow, StreamTuple};

    #[test]
    fn tracks_discrete_window() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let mut w = DiscreteWindow::new(&[6, 5], 4, 10);
        let mut alg = OnlineScp::new(&[6, 5, 4], 3, 16);
        let mut updates = Vec::new();
        for t in 0..500u64 {
            // Two-community structure so there is signal to track.
            let (a, b) = if rng.gen_bool(0.6) {
                (rng.gen_range(0..3u32), rng.gen_range(0..2u32))
            } else {
                (rng.gen_range(3..6u32), rng.gen_range(2..5u32))
            };
            updates.clear();
            w.ingest(StreamTuple::new([a, b], 1.0, t), &mut updates).unwrap();
            for u in &updates {
                alg.on_period(w.tensor(), u).unwrap();
            }
        }
        let fit = alg.fitness(w.tensor());
        assert!(fit > 0.2, "OnlineSCP fitness {fit}");
        assert!(alg.kruskal().is_finite());
    }

    #[test]
    fn new_time_row_fits_slice_mass() {
        // A slice with all mass at one categorical cell should produce a
        // time row whose reconstruction at that cell is positive.
        let mut alg = OnlineScp::new(&[4, 4, 3], 2, 17);
        let mut w = DiscreteWindow::new(&[4, 4], 3, 10);
        let mut updates = Vec::new();
        for t in [1u64, 3, 7] {
            w.ingest(StreamTuple::new([2u32, 2], 5.0, t), &mut updates).unwrap();
        }
        w.flush_to(10, &mut updates);
        assert_eq!(updates.len(), 1);
        alg.on_period(w.tensor(), &updates[0]).unwrap();
        let rec = alg.kruskal().eval(&sns_tensor::Coord::new(&[2, 2, 2]));
        assert!(rec > 0.0, "reconstruction at slice mass is {rec}");
    }
}
