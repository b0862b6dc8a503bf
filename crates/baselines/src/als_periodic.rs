//! Periodic batch ALS — the paper's "ALS" reference.
//!
//! Once per period, runs `sweeps` full ALS iterations on the current
//! window, warm-started from the previous factors (after the time-factor
//! slide). With enough sweeps this is the fitness gold standard the
//! paper's *relative fitness* is measured against; with `sweeps = 1` it
//! is the cheapest conventional online treatment.

use crate::periodic::{slide_time_factor, PeriodicCpd};
use sns_core::als::als_sweep;
use sns_core::grams::compute_grams;
use sns_core::kruskal::KruskalTensor;
use sns_linalg::Mat;
use sns_stream::{PeriodUpdate, SnsError};
use sns_tensor::SparseTensor;

/// Periodic warm-started batch ALS.
pub struct AlsPeriodic {
    kruskal: KruskalTensor,
    grams: Vec<Mat>,
    sweeps: usize,
}

impl AlsPeriodic {
    /// Creates the baseline with random factors; `dims` must include the
    /// time mode (length `W`) as the last mode.
    pub fn new(dims: &[usize], rank: usize, sweeps: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kruskal = KruskalTensor::random(&mut rng, dims, rank, 1.0);
        let grams = compute_grams(&kruskal.factors);
        AlsPeriodic { kruskal, grams, sweeps }
    }

    /// Number of ALS sweeps per period.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Rebuilds the baseline from captured state (bitwise continuation).
    pub(crate) fn from_state(kruskal: KruskalTensor, grams: Vec<Mat>, sweeps: usize) -> Self {
        AlsPeriodic { kruskal, grams, sweeps }
    }
}

impl PeriodicCpd for AlsPeriodic {
    fn on_period(&mut self, window: &SparseTensor, update: &PeriodUpdate) -> Result<(), SnsError> {
        let tm = self.kruskal.order() - 1;
        slide_time_factor(&mut self.kruskal, &mut self.grams, tm);
        // A zeroed newest time row annihilates the MTTKRP of the newest
        // unit (and with it the whole sweep on sparse windows): seed it by
        // least squares from the new slice first.
        crate::periodic::solve_new_time_row(&mut self.kruskal, &mut self.grams, update)
            .map_err(|e| crate::periodic::diverged(self.name(), e))?;
        for _ in 0..self.sweeps {
            als_sweep(window, &mut self.kruskal, &mut self.grams);
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
        format!("ALS({})", self.sweeps)
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
        self.kruskal = kruskal;
        self.grams = grams;
    }

    fn capture(&self) -> crate::state::BaselineAlgoState {
        crate::state::BaselineAlgoState::AlsPeriodic {
            kruskal: self.kruskal.clone(),
            grams: self.grams.clone(),
            sweeps: self.sweeps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_stream::{DiscreteWindow, StreamTuple};

    #[test]
    fn fits_the_window_per_period() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut w = DiscreteWindow::new(&[6, 5], 4, 10);
        let mut alg = AlsPeriodic::new(&[6, 5, 4], 3, 8, 6);
        let mut updates = Vec::new();
        for t in 0..400u64 {
            let tu = StreamTuple::new([rng.gen_range(0..6u32), rng.gen_range(0..5u32)], 1.0, t);
            updates.clear();
            w.ingest(tu, &mut updates).unwrap();
            for u in &updates {
                alg.on_period(w.tensor(), u).unwrap();
            }
        }
        let fit = alg.fitness(w.tensor());
        assert!(fit > 0.2, "periodic ALS fitness {fit}");
        assert!(alg.kruskal().is_finite());
        assert_eq!(alg.name(), "ALS(8)");
    }
}
