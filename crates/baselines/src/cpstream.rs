//! CP-stream (Smith, Huang, Sidiropoulos, Karypis — SDM 2018), windowed.
//!
//! CP-stream maintains factor matrices under a *forgetting factor* µ: at
//! each time step it alternates a few inner iterations between (1) the new
//! time vector `s_t` solved against the categorical factors and (2) each
//! categorical factor solved against µ-weighted historical accumulators
//! plus the new slice:
//!
//! ```text
//! A(m) ← (µ·P(m) + MTTKRP_m(Y_t, s_t)) · (µ·G(m) + H_t(m))†
//! P(m) ← µ·P(m) + MTTKRP_m(Y_t, s_t)
//! G(m) ← µ·G(m) + H_t(m)
//! ```
//!
//! where `H_t(m) = (∗_{n≠m, cat} A(n)ᵀA(n)) ∗ (s_tᵀ s_t)`. Only the new
//! slice is ever touched, so the per-period cost is
//! `O(inner · |slice| · M · R + M R³)` — cheaper than OnlineSCP's window
//! sweep, matching their ordering in Fig. 5a.
//!
//! Windowed adaptation: the time factor keeps the `W` most recent `s_t`
//! rows (sliding with the window) so fitness is measured on the same
//! window tensor as every other method.

use crate::periodic::{diverged, slide_time_factor, PeriodicCpd};
use sns_core::grams::compute_grams;
use sns_core::kruskal::KruskalTensor;
use sns_core::mttkrp::mttkrp_row_from_entries;
use sns_linalg::ops::{gram, hadamard, hadamard_assign, matmul};
use sns_linalg::Mat;
use sns_stream::{PeriodUpdate, SnsError};
use sns_tensor::{Coord, SparseTensor};

/// Windowed CP-stream with forgetting factor µ.
pub struct CpStream {
    kruskal: KruskalTensor,
    grams: Vec<Mat>,
    /// Historical MTTKRP accumulators, categorical modes only.
    p_hist: Vec<Mat>,
    /// Historical Gram accumulators, categorical modes only.
    g_hist: Vec<Mat>,
    /// Forgetting factor µ ∈ (0, 1].
    mu: f64,
    /// Inner alternations per period.
    inner_iters: usize,
}

impl CpStream {
    /// Creates the baseline; `dims` includes the time mode (length `W`)
    /// last. Paper-era defaults: `mu = 0.99`, `inner_iters = 3`.
    pub fn new(dims: &[usize], rank: usize, mu: f64, inner_iters: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        assert!((0.0..=1.0).contains(&mu) && mu > 0.0, "µ must be in (0, 1]");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kruskal = KruskalTensor::random(&mut rng, dims, rank, 1.0);
        let grams = compute_grams(&kruskal.factors);
        let cat_modes = dims.len() - 1;
        let p_hist = (0..cat_modes).map(|m| Mat::zeros(dims[m], rank)).collect();
        let g_hist = (0..cat_modes).map(|_| Mat::zeros(rank, rank)).collect();
        CpStream { kruskal, grams, p_hist, g_hist, mu, inner_iters }
    }

    /// Forgetting factor µ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Rebuilds the baseline from captured state (bitwise continuation).
    pub(crate) fn from_state(
        kruskal: KruskalTensor,
        grams: Vec<Mat>,
        p_hist: Vec<Mat>,
        g_hist: Vec<Mat>,
        mu: f64,
        inner_iters: usize,
    ) -> Result<Self, String> {
        let cat_modes = kruskal.order() - 1;
        let rank = kruskal.rank();
        if !((0.0..=1.0).contains(&mu) && mu > 0.0) {
            return Err(format!("forgetting factor µ={mu} outside (0, 1]"));
        }
        if p_hist.len() != cat_modes || g_hist.len() != cat_modes {
            return Err(format!(
                "{}/{} accumulators for {cat_modes} categorical modes",
                p_hist.len(),
                g_hist.len()
            ));
        }
        for m in 0..cat_modes {
            if p_hist[m].shape() != (kruskal.factors[m].rows(), rank)
                || g_hist[m].shape() != (rank, rank)
            {
                return Err(format!("mode {m} accumulator shape mismatch"));
            }
        }
        Ok(CpStream { kruskal, grams, p_hist, g_hist, mu, inner_iters })
    }

    /// `s_t` least squares against the categorical factors.
    fn solve_time_row(&self, entries: &[(Coord, f64)], out: &mut [f64]) -> Result<(), SnsError> {
        let tm = self.kruskal.order() - 1;
        let rank = self.kruskal.rank();
        let mut u = vec![0.0; rank];
        let mut prod = vec![0.0; rank];
        mttkrp_row_from_entries(entries, &self.kruskal.factors, tm, &mut u, &mut prod)
            .expect("rank-sized buffers");
        // H = ∗_cat A(n)ᵀA(n) (exclude the time factor entirely).
        let mut h = Mat::filled(rank, rank, 1.0);
        for m in 0..tm {
            hadamard_assign(&mut h, &self.grams[m]).expect("rank shapes agree");
        }
        sns_linalg::lstsq::solve_row_sym(&h, &u, out).map_err(|e| diverged(self.name(), e))
    }
}

impl PeriodicCpd for CpStream {
    fn on_period(&mut self, _window: &SparseTensor, update: &PeriodUpdate) -> Result<(), SnsError> {
        let tm = self.kruskal.order() - 1;
        let rank = self.kruskal.rank();
        let newest = self.kruskal.factors[tm].rows() - 1;
        slide_time_factor(&mut self.kruskal, &mut self.grams, tm);

        // Slice entries with the newest time index attached.
        let entries: Vec<(Coord, f64)> =
            update.slice.iter().map(|&(c, v)| (c.extended(newest as u32), v)).collect();

        let mut s = vec![0.0; rank];
        for _ in 0..self.inner_iters.max(1) {
            // (1) new time vector against current categorical factors.
            self.solve_time_row(&entries, &mut s)?;
            self.kruskal.factors[tm].set_row(newest, &s);
            self.grams[tm] = gram(&self.kruskal.factors[tm]);
            // (2) categorical factors against µ-weighted history + slice.
            let s_outer = {
                let mut m = Mat::zeros(rank, rank);
                for i in 0..rank {
                    for j in 0..rank {
                        m[(i, j)] = s[i] * s[j];
                    }
                }
                m
            };
            for m in 0..tm {
                // MTTKRP of the slice for mode m (includes the s_t row).
                let mut u = Mat::zeros(self.kruskal.factors[m].rows(), rank);
                let mut prod = vec![0.0; rank];
                for (c, v) in &entries {
                    sns_core::mttkrp::khatri_rao_row(&self.kruskal.factors, c, m, &mut prod);
                    let row = u.row_mut(c.get(m) as usize);
                    for k in 0..rank {
                        row[k] += v * prod[k];
                    }
                }
                // H_t(m) = (∗_{n≠m, cat} Gram) ∗ s sᵀ
                let mut h_t = s_outer.clone();
                for n in 0..tm {
                    if n != m {
                        hadamard_assign(&mut h_t, &self.grams[n]).expect("rank shapes");
                    }
                }
                // Solve against µ-weighted accumulators + current slice.
                let mut p = self.p_hist[m].clone();
                p.scale_in_place(self.mu);
                for (pp, uu) in p.as_mut_slice().iter_mut().zip(u.as_slice()) {
                    *pp += uu;
                }
                let mut g = self.g_hist[m].clone();
                g.scale_in_place(self.mu);
                for (gg, hh) in g.as_mut_slice().iter_mut().zip(h_t.as_slice()) {
                    *gg += hh;
                }
                self.kruskal.factors[m] = sns_linalg::lstsq::solve_xh_eq_u(&g, &p)
                    .map_err(|e| diverged(self.name(), e))?;
                self.grams[m] = gram(&self.kruskal.factors[m]);
            }
        }
        // Commit the accumulators once per period.
        let s_outer =
            hadamard(&Mat::from_fn(rank, rank, |i, j| s[i] * s[j]), &Mat::filled(rank, rank, 1.0))
                .expect("shape");
        for m in 0..tm {
            let mut u = Mat::zeros(self.kruskal.factors[m].rows(), rank);
            let mut prod = vec![0.0; rank];
            for (c, v) in &entries {
                sns_core::mttkrp::khatri_rao_row(&self.kruskal.factors, c, m, &mut prod);
                let row = u.row_mut(c.get(m) as usize);
                for k in 0..rank {
                    row[k] += v * prod[k];
                }
            }
            let mut h_t = s_outer.clone();
            for n in 0..tm {
                if n != m {
                    hadamard_assign(&mut h_t, &self.grams[n]).expect("rank shapes");
                }
            }
            self.p_hist[m].scale_in_place(self.mu);
            for (pp, uu) in self.p_hist[m].as_mut_slice().iter_mut().zip(u.as_slice()) {
                *pp += uu;
            }
            self.g_hist[m].scale_in_place(self.mu);
            for (gg, hh) in self.g_hist[m].as_mut_slice().iter_mut().zip(h_t.as_slice()) {
                *gg += hh;
            }
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
        "CP-stream".to_string()
    }

    fn install(&mut self, mut kruskal: KruskalTensor, grams: Vec<Mat>) {
        // The accumulator recursions assume unit weights: fold λ in.
        let grams = if kruskal.lambda.iter().any(|&l| l != 1.0) {
            kruskal.distribute_lambda();
            compute_grams(&kruskal.factors)
        } else {
            grams
        };
        // Seed the historical accumulators from the installed window
        // factors so the first periods are not dominated by the random
        // init: P(m) = MTTKRP of the reconstruction ≈ A(m)·H(m),
        // G(m) = ∗_{n≠m} Gram(n) (time mode folded in).
        let tm = kruskal.order() - 1;
        let rank = kruskal.rank();
        for m in 0..tm {
            let mut h = Mat::filled(rank, rank, 1.0);
            for (n, g) in grams.iter().enumerate() {
                if n != m {
                    hadamard_assign(&mut h, g).expect("rank shapes");
                }
            }
            self.p_hist[m] = matmul(&kruskal.factors[m], &h).expect("shapes");
            self.g_hist[m] = h;
        }
        self.kruskal = kruskal;
        self.grams = grams;
    }

    fn capture(&self) -> crate::state::BaselineAlgoState {
        crate::state::BaselineAlgoState::CpStream {
            kruskal: self.kruskal.clone(),
            grams: self.grams.clone(),
            p_hist: self.p_hist.clone(),
            g_hist: self.g_hist.clone(),
            mu: self.mu,
            inner_iters: self.inner_iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_stream::{DiscreteWindow, StreamTuple};

    #[test]
    fn tracks_structured_stream() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let mut w = DiscreteWindow::new(&[6, 5], 4, 10);
        let mut alg = CpStream::new(&[6, 5, 4], 3, 0.99, 3, 26);
        let mut updates = Vec::new();
        for t in 0..600u64 {
            let (a, b) = if rng.gen_bool(0.7) {
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
        assert!(fit > 0.1, "CP-stream fitness {fit}");
        assert!(alg.kruskal().is_finite());
        assert_eq!(alg.name(), "CP-stream");
        assert!((alg.mu() - 0.99).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "µ must be")]
    fn rejects_bad_mu() {
        let _ = CpStream::new(&[3, 3, 2], 2, 0.0, 1, 1);
    }
}
