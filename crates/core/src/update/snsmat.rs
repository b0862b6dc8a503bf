//! SNS_MAT — naive extension of ALS (Algorithm 2).
//!
//! Per event it runs one full ALS sweep over the whole window, with column
//! normalization into `λ`. Most accurate, slowest: `O(M²R|X| + …)` per
//! event (Theorem 3).

use crate::als::als_sweep;
use crate::config::{AlgorithmKind, SnsConfig};
use crate::grams::compute_grams;
use crate::kruskal::KruskalTensor;
use crate::update::ContinuousUpdater;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sns_linalg::Mat;
use sns_stream::Delta;
use sns_tensor::SparseTensor;

/// The SNS_MAT updater.
pub struct SnsMat {
    kruskal: KruskalTensor,
    grams: Vec<Mat>,
}

impl SnsMat {
    /// Creates an SNS_MAT updater with random initial factors.
    pub fn new(dims: &[usize], config: &SnsConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let kruskal = KruskalTensor::random(&mut rng, dims, config.rank, config.init_scale);
        let grams = compute_grams(&kruskal.factors);
        SnsMat { kruskal, grams }
    }

    /// Captures the updater's complete live state.
    pub fn capture_state(&self) -> crate::update::UpdaterState {
        crate::update::UpdaterState::Mat {
            factors: self.kruskal.clone(),
            grams: self.grams.clone(),
        }
    }

    /// Rebuilds an updater from captured state (bitwise continuation).
    pub(crate) fn from_state(factors: KruskalTensor, grams: Vec<Mat>) -> Result<Self, String> {
        // SNS_MAT carries scale in λ, so the unit-weight restriction of
        // `FactorState::from_parts` does not apply; check shapes only.
        factors.check_gram_shapes(&grams, false)?;
        Ok(SnsMat { kruskal: factors, grams })
    }
}

impl ContinuousUpdater for SnsMat {
    fn apply(&mut self, window: &SparseTensor, _delta: &Delta) {
        // One full ALS iteration per event; ΔX is already inside `window`.
        als_sweep(window, &mut self.kruskal, &mut self.grams);
    }

    fn kruskal(&self) -> &KruskalTensor {
        &self.kruskal
    }

    fn grams(&self) -> &[Mat] {
        &self.grams
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Mat
    }

    fn install(&mut self, kruskal: KruskalTensor, grams: Vec<Mat>) {
        self.kruskal = kruskal;
        self.grams = grams;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::fitness_with_grams;
    use rand::Rng;
    use sns_stream::{ContinuousWindow, StreamTuple};

    #[test]
    fn improves_fitness_event_by_event() {
        let mut w = ContinuousWindow::new(&[5, 4], 4, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let config = SnsConfig { rank: 3, seed: 2, ..Default::default() };
        let mut mat = SnsMat::new(&[5, 4, 4], &config);
        let mut out = Vec::new();
        let mut last_fit = f64::NEG_INFINITY;
        for t in 0..120u64 {
            let tu = StreamTuple::new([rng.gen_range(0..5u32), rng.gen_range(0..4u32)], 1.0, t);
            out.clear();
            w.ingest(tu, &mut out).unwrap();
            for d in &out {
                mat.apply(w.tensor(), d);
            }
            if t == 119 {
                last_fit = fitness_with_grams(w.tensor(), &mat.kruskal, &mat.grams);
            }
        }
        // A full sweep per event with warm factors tracks the window.
        // (Cold-started on a growing window, some columns can die early —
        // the paper avoids this by ALS-initializing; keep a loose floor.)
        assert!(last_fit > 0.2, "fitness {last_fit}");
        assert!(mat.kruskal.is_finite());
        // SNS_MAT keeps normalized columns (scale lives in λ).
        for f in &mat.kruskal.factors {
            for r in 0..3 {
                let n: f64 = (0..f.rows()).map(|i| f[(i, r)] * f[(i, r)]).sum::<f64>().sqrt();
                assert!((n - 1.0).abs() < 1e-8 || n == 0.0);
            }
        }
    }

    #[test]
    fn metadata() {
        let config = SnsConfig::with_rank(2);
        let mat = SnsMat::new(&[3, 3, 2], &config);
        assert_eq!(mat.kind(), AlgorithmKind::Mat);
        assert!(!mat.diverged());
        assert_eq!(mat.kruskal().rank(), 2);
        assert_eq!(mat.grams().len(), 3);
    }
}
