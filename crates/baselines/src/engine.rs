//! Driver pairing a discrete window with a periodic baseline.

use crate::periodic::PeriodicCpd;
use crate::state::BaselineEngineState;
use sns_core::als::{warm_start_from, AlsOptions, AlsResult};
use sns_stream::{DiscreteWindow, PeriodUpdate, StreamTuple};
use sns_tensor::SparseTensor;

/// A conventional-model engine: tuples go into a [`DiscreteWindow`]; the
/// wrapped baseline is invoked once per completed period.
pub struct BaselineEngine<B: PeriodicCpd> {
    window: DiscreteWindow,
    algo: B,
    buf: Vec<PeriodUpdate>,
    periods: u64,
}

impl<B: PeriodicCpd> BaselineEngine<B> {
    /// Wraps `algo` over a fresh window.
    pub fn new(base_dims: &[usize], window: usize, period: u64, algo: B) -> Self {
        BaselineEngine {
            window: DiscreteWindow::new(base_dims, window, period),
            algo,
            buf: Vec::new(),
            periods: 0,
        }
    }

    /// Ingests a tuple; runs the baseline for each period that completed.
    /// Returns how many periods completed.
    ///
    /// # Errors
    /// The window's validation error, or
    /// [`SnsError::Diverged`](sns_stream::SnsError::Diverged) when a period
    /// update fails; periods before the failing one stay applied.
    pub fn ingest(&mut self, tuple: StreamTuple) -> sns_stream::Result<usize> {
        self.buf.clear();
        self.window.ingest(tuple, &mut self.buf)?;
        self.run_periods()
    }

    /// Flushes periods ending at or before `t`. Returns how many periods
    /// completed.
    ///
    /// # Errors
    /// [`SnsError::Diverged`](sns_stream::SnsError::Diverged) when a period
    /// update fails; periods before the failing one stay applied.
    pub fn flush_to(&mut self, t: u64) -> sns_stream::Result<usize> {
        self.buf.clear();
        self.window.flush_to(t, &mut self.buf);
        self.run_periods()
    }

    fn run_periods(&mut self) -> sns_stream::Result<usize> {
        for u in &self.buf {
            self.algo.on_period(self.window.tensor(), u)?;
            self.periods += 1;
        }
        Ok(self.buf.len())
    }

    /// Ingests a tuple into the window **without** running the baseline
    /// (prefill phase before ALS warm start).
    pub fn prefill(&mut self, tuple: StreamTuple) -> sns_stream::Result<()> {
        self.buf.clear();
        self.window.ingest(tuple, &mut self.buf)
    }

    /// Runs batch ALS on the current window and installs the result
    /// (the shared warm start of `sns_core::als::warm_start_from`; when
    /// the wrapped baseline's initial factors were drawn with
    /// `opts.seed`, this matches a fresh `als()` on the window bitwise).
    pub fn warm_start(&mut self, opts: &AlsOptions) -> AlsResult {
        let result = warm_start_from(self.window.tensor(), self.algo.kruskal(), opts);
        self.algo.install(result.kruskal.clone(), result.grams.clone());
        result
    }

    /// Current window tensor (completed units only).
    pub fn window(&self) -> &SparseTensor {
        self.window.tensor()
    }

    /// Accumulated value of the in-flight period at a categorical
    /// coordinate (see [`DiscreteWindow::pending_value`]).
    pub fn pending_value(&self, coords: &sns_tensor::Coord) -> f64 {
        self.window.pending_value(coords)
    }

    /// The wrapped baseline.
    pub fn algo(&self) -> &B {
        &self.algo
    }

    /// Fitness of the baseline on the current window.
    pub fn fitness(&self) -> f64 {
        self.algo.fitness(self.window.tensor())
    }

    /// Number of periods processed.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// Captures the engine's complete live state — window (with exact
    /// iteration orders), pending accumulation, algorithm internals —
    /// as plain serializable data. A
    /// [`BaselineEngineState::into_engine`] rebuild continues
    /// bitwise-identically.
    pub fn capture_state(&self) -> BaselineEngineState {
        BaselineEngineState {
            window: self.window.capture_state(),
            algo: self.algo.capture(),
            periods: self.periods,
        }
    }
}

impl BaselineEngine<Box<dyn PeriodicCpd>> {
    /// Reassembles an engine from restored parts (state restore — see
    /// [`BaselineEngineState::into_engine`]).
    pub(crate) fn from_parts(
        window: DiscreteWindow,
        algo: Box<dyn PeriodicCpd>,
        periods: u64,
    ) -> Self {
        BaselineEngine { window, algo, buf: Vec::new(), periods }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als_periodic::AlsPeriodic;
    use sns_stream::SnsError;

    #[test]
    fn engine_drives_baseline_per_period() {
        let alg = AlsPeriodic::new(&[4, 4, 3], 2, 4, 1);
        let mut e = BaselineEngine::new(&[4, 4], 3, 10, alg);
        let mut n = 0;
        for t in 0..100u64 {
            n +=
                e.ingest(StreamTuple::new([(t % 4) as u32, ((t / 4) % 4) as u32], 1.0, t)).unwrap();
        }
        n += e.flush_to(100).unwrap();
        assert_eq!(n as u64, e.periods());
        assert_eq!(e.periods(), 10);
        assert!(e.fitness().is_finite());
    }

    #[test]
    fn a_non_finite_factor_fails_the_period_with_a_typed_error() {
        let mut alg = crate::onlinescp::OnlineScp::new(&[4, 4, 3], 2, 3);
        let mut k = alg.kruskal().clone();
        k.factors[0][(0, 0)] = f64::NAN;
        let grams = sns_core::grams::compute_grams(&k.factors);
        alg.install(k, grams);
        let mut e = BaselineEngine::new(&[4, 4], 3, 10, alg);
        e.ingest(StreamTuple::new([1u32, 2], 1.0, 0)).unwrap();
        let err = e.ingest(StreamTuple::new([2u32, 1], 1.0, 11)).unwrap_err();
        assert!(matches!(err, SnsError::Diverged { ref engine, .. } if engine == "OnlineSCP"));
        assert!(matches!(e.flush_to(100), Err(SnsError::Diverged { .. })));
    }

    #[test]
    fn warm_start_installs() {
        let alg = AlsPeriodic::new(&[4, 4, 3], 2, 1, 2);
        let mut e = BaselineEngine::new(&[4, 4], 3, 10, alg);
        for t in 0..60u64 {
            e.prefill(StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).unwrap();
        }
        let r = e.warm_start(&AlsOptions { max_iters: 20, ..Default::default() });
        assert!((e.fitness() - r.fitness).abs() < 1e-9);
    }
}
