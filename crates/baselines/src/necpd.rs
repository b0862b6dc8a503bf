//! NeCPD(n) (Anaissi, Suleiman, Zandavi — arXiv 2020), windowed.
//!
//! NeCPD performs online CPD by stochastic gradient descent with
//! Nesterov's accelerated gradient: per period it makes `n` passes
//! (epochs) over the new slice's non-zeros, updating the factor rows that
//! each non-zero touches. The paper compares NeCPD(1) and NeCPD(10).
//!
//! Windowed adaptation: the time factor slides with the window; the new
//! time row starts from a least-squares fit of the slice (a cold random
//! row would need many epochs), after which SGD refines all touched rows.
//! Per-period cost: `O(n · |slice| · M · R)`.

use crate::periodic::{slide_time_factor, PeriodicCpd};
use sns_core::grams::{compute_grams, hadamard_except};
use sns_core::kruskal::KruskalTensor;
use sns_core::mttkrp::{khatri_rao_row, mttkrp_row_from_entries};
use sns_linalg::ops::gram;
use sns_linalg::Mat;
use sns_stream::{PeriodUpdate, SnsError};
use sns_tensor::{Coord, SparseTensor};

/// Windowed NeCPD with `epochs` SGD passes per period.
pub struct NeCpd {
    kruskal: KruskalTensor,
    grams: Vec<Mat>,
    epochs: usize,
    /// Base learning rate (decays as 1/√period).
    lr: f64,
    /// Nesterov momentum coefficient.
    momentum: f64,
    /// Momentum buffers, one per mode, same shape as the factors.
    velocity: Vec<Mat>,
    periods_seen: u64,
    rng: rand::rngs::StdRng,
}

impl NeCpd {
    /// Creates the baseline; `dims` includes the time mode last.
    /// The paper's variants are `epochs = 1` and `epochs = 10`.
    pub fn new(dims: &[usize], rank: usize, epochs: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kruskal = KruskalTensor::random(&mut rng, dims, rank, 1.0);
        let grams = compute_grams(&kruskal.factors);
        let velocity = dims.iter().map(|&n| Mat::zeros(n, rank)).collect();
        NeCpd {
            kruskal,
            grams,
            epochs: epochs.max(1),
            lr: 0.002,
            momentum: 0.5,
            velocity,
            periods_seen: 0,
            rng,
        }
    }

    /// Number of SGD epochs per period.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Rebuilds the baseline from captured state (bitwise continuation).
    /// Momentum buffers restore as zeros: `on_period` clears them before
    /// every use, so their between-period content is dead state.
    pub(crate) fn from_state(
        kruskal: KruskalTensor,
        grams: Vec<Mat>,
        epochs: usize,
        periods_seen: u64,
        rng: [u64; 4],
    ) -> Self {
        use rand::rngs::StdRng;
        let rank = kruskal.rank();
        let velocity = kruskal.dims().iter().map(|&n| Mat::zeros(n, rank)).collect();
        NeCpd {
            kruskal,
            grams,
            epochs: epochs.max(1),
            lr: 0.002,
            momentum: 0.5,
            velocity,
            periods_seen,
            rng: StdRng::from_state(rng),
        }
    }

    /// One Nesterov-SGD step on a single observed entry.
    fn sgd_step(&mut self, coord: &Coord, value: f64, lr: f64) {
        let rank = self.kruskal.rank();
        let order = self.kruskal.order();
        // Residual at the look-ahead point ≈ current (standard NAG
        // simplification for row-sparse updates).
        let pred = self.kruskal.eval(coord);
        let resid = value - pred;
        let mut prod = vec![0.0; rank];
        for m in 0..order {
            // ∂/∂A(m)(i_m,:) of ½(x − x̂)² = −resid · Π_{n≠m} A(n)(i_n,:)
            khatri_rao_row(&self.kruskal.factors, coord, m, &mut prod);
            let i = coord.get(m) as usize;
            for (k, &pk) in prod.iter().enumerate().take(rank) {
                let g = -resid * pk;
                // Clamp the step: per-entry SGD on count data is prone to
                // oscillation, and NeCPD's own evaluation in the paper
                // shows it is the weakest-but-stable baseline.
                let v = (self.momentum * self.velocity[m][(i, k)] - lr * g).clamp(-0.5, 0.5);
                self.velocity[m][(i, k)] = v;
                self.kruskal.factors[m][(i, k)] += v;
            }
        }
    }
}

impl PeriodicCpd for NeCpd {
    fn on_period(&mut self, _window: &SparseTensor, update: &PeriodUpdate) -> Result<(), SnsError> {
        use rand::seq::SliceRandom;
        let tm = self.kruskal.order() - 1;
        let rank = self.kruskal.rank();
        let newest = self.kruskal.factors[tm].rows() - 1;
        slide_time_factor(&mut self.kruskal, &mut self.grams, tm);
        self.velocity[tm].shift_rows_up();
        self.periods_seen += 1;

        // Fresh momentum each period: carrying velocity across period
        // boundaries lets epochs compound into oscillation.
        for v in &mut self.velocity {
            v.fill_zero();
        }
        let mut entries: Vec<(Coord, f64)> =
            update.slice.iter().map(|&(c, v)| (c.extended(newest as u32), v)).collect();
        if entries.is_empty() {
            // Nothing arrived this period; the new time row stays zero.
            return Ok(());
        }
        // Warm init of the new time row by least squares.
        let mut u = vec![0.0; rank];
        let mut prod = vec![0.0; rank];
        mttkrp_row_from_entries(&entries, &self.kruskal.factors, tm, &mut u, &mut prod)
            .expect("rank-sized buffers");
        let h = hadamard_except(&self.grams, tm, rank);
        let mut s = vec![0.0; rank];
        sns_linalg::lstsq::solve_row_sym(&h, &u, &mut s)
            .map_err(|e| crate::periodic::diverged(self.name(), e))?;
        self.kruskal.factors[tm].set_row(newest, &s);

        // SGD epochs over the slice, shuffled each pass.
        let lr = self.lr / (1.0 + (self.periods_seen as f64).sqrt());
        for _ in 0..self.epochs {
            entries.shuffle(&mut self.rng);
            let pass: Vec<(Coord, f64)> = entries.clone();
            for (c, v) in pass {
                self.sgd_step(&c, v, lr);
            }
        }
        // Refresh all Grams once per period (SGD touched many rows).
        for m in 0..self.kruskal.order() {
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
        format!("NeCPD({})", self.epochs)
    }

    fn install(&mut self, mut kruskal: KruskalTensor, grams: Vec<Mat>) {
        // NeCPD's gradients assume unit weights: fold λ into the factors.
        if kruskal.lambda.iter().any(|&l| l != 1.0) {
            kruskal.distribute_lambda();
            self.grams = compute_grams(&kruskal.factors);
        } else {
            self.grams = grams;
        }
        self.kruskal = kruskal;
        for v in &mut self.velocity {
            v.fill_zero();
        }
    }

    fn capture(&self) -> crate::state::BaselineAlgoState {
        crate::state::BaselineAlgoState::NeCpd {
            kruskal: self.kruskal.clone(),
            grams: self.grams.clone(),
            epochs: self.epochs,
            periods_seen: self.periods_seen,
            rng: self.rng.state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_stream::{DiscreteWindow, StreamTuple};

    fn drive(epochs: usize) -> (DiscreteWindow, NeCpd) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let mut w = DiscreteWindow::new(&[6, 5], 4, 10);
        let mut alg = NeCpd::new(&[6, 5, 4], 3, epochs, 36);
        let mut updates = Vec::new();
        let gen = |rng: &mut rand::rngs::StdRng| {
            if rng.gen_bool(0.7) {
                (rng.gen_range(0..3u32), rng.gen_range(0..2u32))
            } else {
                (rng.gen_range(3..6u32), rng.gen_range(2..5u32))
            }
        };
        // Prefill + ALS warm start, as the paper's protocol prescribes
        // (SGD-style baselines cannot escape a random initialization by
        // touching only slice rows).
        for t in 0..300u64 {
            let (a, b) = gen(&mut rng);
            updates.clear();
            w.ingest(StreamTuple::new([a, b], 1.0, t), &mut updates).unwrap();
        }
        let warm = sns_core::als::als(
            w.tensor(),
            3,
            &sns_core::als::AlsOptions { max_iters: 25, ..Default::default() },
        );
        alg.install(warm.kruskal, warm.grams);
        for t in 300..600u64 {
            let (a, b) = gen(&mut rng);
            updates.clear();
            w.ingest(StreamTuple::new([a, b], 1.0, t), &mut updates).unwrap();
            for u in &updates {
                alg.on_period(w.tensor(), u).unwrap();
            }
        }
        (w, alg)
    }

    #[test]
    fn remains_finite_and_reaches_positive_fitness() {
        let (w, alg) = drive(10);
        assert!(alg.kruskal().is_finite());
        let fit = alg.fitness(w.tensor());
        assert!(fit > 0.0, "NeCPD(10) fitness {fit}");
        assert_eq!(alg.name(), "NeCPD(10)");
    }

    #[test]
    fn more_epochs_do_not_hurt_much() {
        // NeCPD(10) should fit at least as well as NeCPD(1) up to noise
        // (Fig. 4 shows NeCPD(10) above NeCPD(1) everywhere).
        let (w1, a1) = drive(1);
        let (w10, a10) = drive(10);
        let f1 = a1.fitness(w1.tensor());
        let f10 = a10.fitness(w10.tensor());
        assert!(f10 > f1 - 0.1, "NeCPD(10)={f10} much worse than NeCPD(1)={f1}");
    }

    #[test]
    fn empty_period_is_harmless() {
        let mut alg = NeCpd::new(&[4, 4, 3], 2, 1, 5);
        let mut w = DiscreteWindow::new(&[4, 4], 3, 10);
        let mut updates = Vec::new();
        w.ingest(StreamTuple::new([0u32, 0], 1.0, 5), &mut updates).unwrap();
        // Jump far ahead: several empty periods complete.
        w.ingest(StreamTuple::new([1u32, 1], 1.0, 55), &mut updates).unwrap();
        for u in &updates {
            alg.on_period(w.tensor(), u).unwrap();
        }
        assert!(alg.kruskal().is_finite());
    }
}
