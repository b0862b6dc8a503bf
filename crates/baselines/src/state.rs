//! Captured baseline state: the carried-forward factor/accumulator
//! state of every conventional algorithm, as plain serializable data.
//!
//! Streaming-factorization systems treat the state carried between
//! windows — factors, historical accumulators, SGD bookkeeping — as the
//! first-class artifact: losing it means re-prefilling `W·T` periods and
//! desynchronizing every stochastic component. [`BaselineAlgoState`]
//! makes that state capturable for all four baselines, and
//! [`BaselineEngineState`] pairs it with the discrete window so a whole
//! [`BaselineEngine`] can be frozen and resumed
//! **bitwise-identically** — the same guarantee the continuous engine
//! has had since the session runtime landed.

use crate::{AlsPeriodic, BaselineEngine, CpStream, NeCpd, OnlineScp, PeriodicCpd};
use sns_core::kruskal::KruskalTensor;
use sns_linalg::Mat;
use sns_stream::DiscreteWindowState;

/// Captured algorithm-internal state of one conventional baseline.
///
/// Dead state is deliberately omitted: NeCPD's momentum buffers are
/// zeroed at the start of every period before use, so they restore as
/// zeros.
#[derive(Clone)]
pub enum BaselineAlgoState {
    /// Periodic warm-started batch ALS.
    AlsPeriodic {
        /// The factorization.
        kruskal: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
        /// ALS sweeps per period.
        sweeps: usize,
    },
    /// Windowed OnlineSCP.
    OnlineScp {
        /// The factorization.
        kruskal: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
    },
    /// Windowed CP-stream.
    CpStream {
        /// The factorization.
        kruskal: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
        /// Historical MTTKRP accumulators `P(m)`, categorical modes only.
        p_hist: Vec<Mat>,
        /// Historical Gram accumulators `G(m)`, categorical modes only.
        g_hist: Vec<Mat>,
        /// Forgetting factor `µ`.
        mu: f64,
        /// Inner alternations per period.
        inner_iters: usize,
    },
    /// Windowed NeCPD.
    NeCpd {
        /// The factorization.
        kruskal: KruskalTensor,
        /// Maintained Gram matrices.
        grams: Vec<Mat>,
        /// SGD epochs per period.
        epochs: usize,
        /// Periods seen (drives the learning-rate decay).
        periods_seen: u64,
        /// Shuffle RNG state, mid-stream.
        rng: [u64; 4],
    },
}

impl BaselineAlgoState {
    /// Display name of the captured algorithm.
    pub fn name(&self) -> String {
        match self {
            BaselineAlgoState::AlsPeriodic { sweeps, .. } => format!("ALS({sweeps})"),
            BaselineAlgoState::OnlineScp { .. } => "OnlineSCP".to_string(),
            BaselineAlgoState::CpStream { .. } => "CP-stream".to_string(),
            BaselineAlgoState::NeCpd { epochs, .. } => format!("NeCPD({epochs})"),
        }
    }

    /// The captured factorization.
    pub fn kruskal(&self) -> &KruskalTensor {
        match self {
            BaselineAlgoState::AlsPeriodic { kruskal, .. }
            | BaselineAlgoState::OnlineScp { kruskal, .. }
            | BaselineAlgoState::CpStream { kruskal, .. }
            | BaselineAlgoState::NeCpd { kruskal, .. } => kruskal,
        }
    }

    /// Rebuilds a live boxed baseline from the captured state; it
    /// continues bitwise-identically to the captured one.
    ///
    /// # Errors
    /// Returns a description of the first shape inconsistency (decoded
    /// snapshots are validated, not trusted).
    pub fn into_algo(self) -> Result<Box<dyn PeriodicCpd>, String> {
        // Baselines legitimately carry scale in λ mid-stream (periodic
        // ALS normalizes columns), so weights are not constrained here.
        self.kruskal().check_gram_shapes(self.grams(), false)?;
        Ok(match self {
            BaselineAlgoState::AlsPeriodic { kruskal, grams, sweeps } => {
                Box::new(AlsPeriodic::from_state(kruskal, grams, sweeps))
            }
            BaselineAlgoState::OnlineScp { kruskal, grams } => {
                Box::new(OnlineScp::from_state(kruskal, grams))
            }
            BaselineAlgoState::CpStream { kruskal, grams, p_hist, g_hist, mu, inner_iters } => {
                Box::new(CpStream::from_state(kruskal, grams, p_hist, g_hist, mu, inner_iters)?)
            }
            BaselineAlgoState::NeCpd { kruskal, grams, epochs, periods_seen, rng } => {
                Box::new(NeCpd::from_state(kruskal, grams, epochs, periods_seen, rng))
            }
        })
    }

    fn grams(&self) -> &[Mat] {
        match self {
            BaselineAlgoState::AlsPeriodic { grams, .. }
            | BaselineAlgoState::OnlineScp { grams, .. }
            | BaselineAlgoState::CpStream { grams, .. }
            | BaselineAlgoState::NeCpd { grams, .. } => grams,
        }
    }
}

impl std::fmt::Debug for BaselineAlgoState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BaselineAlgoState({}, dims={:?}, rank={})",
            self.name(),
            self.kruskal().dims(),
            self.kruskal().rank()
        )
    }
}

/// Captured state of a whole [`BaselineEngine`]: discrete window,
/// algorithm internals, and the period counter.
#[derive(Clone)]
pub struct BaselineEngineState {
    /// The discrete window (tensor, pending unit, boundary bookkeeping).
    pub window: DiscreteWindowState,
    /// The wrapped algorithm's carried-forward state.
    pub algo: BaselineAlgoState,
    /// Periods processed so far.
    pub periods: u64,
}

impl BaselineEngineState {
    /// Rebuilds a live engine; it continues bitwise-identically.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn into_engine(self) -> Result<BaselineEngine<Box<dyn PeriodicCpd>>, String> {
        let BaselineEngineState { window, algo, periods } = self;
        let window = sns_stream::DiscreteWindow::from_state(window)?;
        if algo.kruskal().dims() != window.tensor().shape().dims() {
            return Err(format!(
                "factor dims {:?} do not match window dims {:?}",
                algo.kruskal().dims(),
                window.tensor().shape().dims()
            ));
        }
        Ok(BaselineEngine::from_parts(window, algo.into_algo()?, periods))
    }
}

impl std::fmt::Debug for BaselineEngineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BaselineEngineState({}, dims={:?}, periods={})",
            self.algo.name(),
            self.algo.kruskal().dims(),
            self.periods
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_stream::StreamTuple;

    fn algos() -> Vec<Box<dyn PeriodicCpd>> {
        vec![
            Box::new(AlsPeriodic::new(&[5, 4, 3], 2, 2, 7)),
            Box::new(OnlineScp::new(&[5, 4, 3], 2, 8)),
            Box::new(CpStream::new(&[5, 4, 3], 2, 0.98, 2, 9)),
            Box::new(NeCpd::new(&[5, 4, 3], 2, 2, 10)),
        ]
    }

    fn tuples(n: u64) -> impl Iterator<Item = StreamTuple> {
        (0..n).map(|t| StreamTuple::new([(t % 5) as u32, ((t * 3) % 4) as u32], 1.0, t))
    }

    #[test]
    fn every_baseline_restores_bitwise_mid_stream() {
        for algo in algos() {
            let name = algo.name();
            let mut original = BaselineEngine::new(&[5, 4], 3, 10, algo);
            for tu in tuples(150) {
                original.ingest(tu).unwrap();
            }
            // Capture mid-stream — including a half-full pending unit.
            let state = original.capture_state();
            let mut restored = state.into_engine().unwrap();
            for tu in tuples(150) {
                let tu = StreamTuple { time: tu.time + 150, ..tu };
                original.ingest(tu).unwrap();
                restored.ingest(tu).unwrap();
            }
            original.flush_to(400).unwrap();
            restored.flush_to(400).unwrap();
            assert_eq!(original.periods(), restored.periods(), "{name}");
            assert_eq!(original.fitness().to_bits(), restored.fitness().to_bits(), "{name}");
            for m in 0..3 {
                assert_eq!(
                    original.algo().kruskal().factors[m],
                    restored.algo().kruskal().factors[m],
                    "{name} mode {m}"
                );
            }
        }
    }

    #[test]
    fn into_engine_rejects_mismatched_dims() {
        let algo: Box<dyn PeriodicCpd> = Box::new(OnlineScp::new(&[5, 4, 3], 2, 8));
        let engine = BaselineEngine::new(&[5, 4], 3, 10, algo);
        let mut state = engine.capture_state();
        // Swap in factors of the wrong shape.
        state.algo = BaselineAlgoState::OnlineScp {
            kruskal: OnlineScp::new(&[2, 2, 3], 2, 1).kruskal().clone(),
            grams: OnlineScp::new(&[2, 2, 3], 2, 1).grams().to_vec(),
        };
        assert!(state.into_engine().is_err());
    }

    #[test]
    fn debug_is_compact() {
        let algo: Box<dyn PeriodicCpd> = Box::new(CpStream::new(&[5, 4, 3], 2, 0.98, 2, 9));
        let engine = BaselineEngine::new(&[5, 4], 3, 10, algo);
        let dbg = format!("{:?}", engine.capture_state());
        assert!(dbg.contains("CP-stream") && dbg.len() < 120, "{dbg}");
    }
}
