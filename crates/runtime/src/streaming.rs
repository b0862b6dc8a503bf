//! The [`StreamingCpd`] trait: one interface over the continuous
//! SliceNStitch engine and the once-per-period baseline engines.

use crate::anomaly::AnomalySummary;
use crate::snapshot::EngineState;
use sns_baselines::{BaselineEngine, PeriodicCpd};
use sns_core::als::{AlsOptions, AlsResult};
use sns_core::engine::SnsEngine;
use sns_core::kruskal::KruskalTensor;
use sns_stream::{SnsError, StreamTuple};
use sns_tensor::SparseTensor;

/// What a batched ingestion accomplished: how many tuples went in and
/// how many factor updates they triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Tuples accepted (the whole batch, on success).
    pub accepted: usize,
    /// Factor updates applied (events for continuous engines, periods
    /// for baselines).
    pub updates: u64,
}

/// A continuously maintained CP decomposition of one sparse tensor
/// stream, independent of *when* the model updates (per event for
/// SliceNStitch, per period for the conventional baselines).
///
/// The trait is dyn-compatible: drivers hold `Box<dyn StreamingCpd>` and
/// never know which update rule runs behind it. The protocol every
/// implementation shares (the paper's §VI-A):
///
/// 1. [`prefill`](StreamingCpd::prefill) the first full window without
///    touching factors,
/// 2. [`warm_start`](StreamingCpd::warm_start) with batch ALS on that
///    window,
/// 3. [`ingest`](StreamingCpd::ingest) the live stream (factor updates
///    fire at each engine's own cadence),
/// 4. read [`fitness`](StreamingCpd::fitness) /
///    [`kruskal`](StreamingCpd::kruskal) at any point.
pub trait StreamingCpd {
    /// Ingests a tuple into the window **without** updating factors
    /// (initialization phase).
    fn prefill(&mut self, tuple: StreamTuple) -> sns_stream::Result<()>;

    /// Runs batch ALS on the current window from the engine's current
    /// factors and installs the result (`sns_core::als::warm_start_from`).
    fn warm_start(&mut self, opts: &AlsOptions) -> AlsResult;

    /// Ingests one stream tuple, applying every factor update it
    /// triggers. Returns the number of updates applied.
    fn ingest(&mut self, tuple: StreamTuple) -> sns_stream::Result<usize>;

    /// Advances the clock without an arrival; due boundary work still
    /// fires. Returns the number of updates applied.
    fn advance_to(&mut self, t: u64) -> usize;

    /// The current window tensor fitness is measured on.
    fn window(&self) -> &SparseTensor;

    /// The current factorization.
    fn kruskal(&self) -> &KruskalTensor;

    /// Fitness of the current factorization against the current window.
    fn fitness(&self) -> f64;

    /// True if the model hit non-finite values.
    fn diverged(&self) -> bool;

    /// Total factor updates applied since construction (events for
    /// continuous engines, periods for baselines).
    fn updates_applied(&self) -> u64;

    /// Model parameter count (`R · Σ N_m`, Fig. 1d).
    fn num_parameters(&self) -> usize;

    /// Display name matching the paper's figures.
    fn name(&self) -> String;

    /// Prefills a whole slice of tuples. On success all `tuples.len()`
    /// tuples were accepted.
    ///
    /// # Errors
    /// Short-circuits at the first failing tuple with
    /// [`SnsError::BatchAborted`], whose `accepted` field is the number
    /// of tuples actually applied before the failure (= the failing
    /// tuple's index). Accepted tuples **stay** in the window; the
    /// engine remains usable.
    fn prefill_all(&mut self, tuples: &[StreamTuple]) -> sns_stream::Result<usize> {
        for (i, tu) in tuples.iter().enumerate() {
            self.prefill(*tu).map_err(|e| e.aborted_at(i, 0))?;
        }
        Ok(tuples.len())
    }

    /// Ingests a whole slice of chronological tuples, applying every
    /// factor update the batch triggers. Default-implemented as a
    /// per-tuple loop; engines with a cheaper batch path (e.g.
    /// [`SnsEngine`]) override it to amortize per-tuple dispatch.
    ///
    /// # Composition invariant
    /// `ingest_all(a)` then `ingest_all(b)` must be bitwise equivalent
    /// to `ingest_all(a ++ b)`: batching is a dispatch amortization,
    /// never a numeric transformation. The pool's worker-side batch
    /// coalescing (`EnginePool`) relies on this to fuse queued batches
    /// into one engine call. Implementations must therefore keep the
    /// per-tuple update sequence — and with it any RNG draw order (the
    /// `_RND` families sample per update) — independent of batch
    /// boundaries. In particular, tuples landing in the same window
    /// unit must **not** be pre-accumulated into one delta before the
    /// factor update: float addition is non-associative and the
    /// updaters read the window mid-batch, so any such fusion would
    /// break bitwise reproducibility.
    ///
    /// # Errors
    /// Short-circuits at the first failing tuple with
    /// [`SnsError::BatchAborted`] carrying the accepted-tuple count and
    /// the updates they applied; the accepted prefix stays applied.
    fn ingest_all(&mut self, tuples: &[StreamTuple]) -> Result<BatchOutcome, SnsError> {
        let mut updates = 0u64;
        for (i, tu) in tuples.iter().enumerate() {
            match self.ingest(*tu) {
                Ok(n) => updates += n as u64,
                Err(e) => return Err(e.aborted_at(i, updates)),
            }
        }
        Ok(BatchOutcome { accepted: tuples.len(), updates })
    }

    /// Captures the engine's complete live state (factors, Grams,
    /// window, clocks and the RND variants' sampling RNG) as plain data
    /// for rollback, migration and durable checkpointing.
    /// [`EngineState::into_engine`] rebuilds an engine that continues
    /// bitwise-identically. This is the one capture path: every engine
    /// must implement it, and a decorator returns the wrapped engine's
    /// error, if any, with `?`.
    fn snapshot(&self) -> Result<EngineState, SnsError>;

    /// Anomaly-scoring roll-up, if this engine scores its stream
    /// (see [`AnomalyCpd`](crate::anomaly::AnomalyCpd)). Plain engines
    /// report `None`; the pool copies the summary onto every
    /// [`StreamReport`](crate::pool::StreamReport).
    fn anomalies(&self) -> Option<AnomalySummary> {
        None
    }

    /// Reconstruction residual an arrival would produce against the
    /// engine's **current** model state — `|observed − predicted|`,
    /// where `observed` is the engine's current value at the cell the
    /// arrival lands in plus the arrival's value, and `predicted` is the
    /// current factorization's reconstruction of that cell. Read-only:
    /// scoring through this hook never perturbs the engine, which is
    /// what keeps [`AnomalyCpd`](crate::anomaly::AnomalyCpd) decoration
    /// bitwise-invisible.
    ///
    /// The default reads the newest time unit of
    /// [`window`](StreamingCpd::window) (where continuous-model arrivals
    /// land, S.1). Engines whose arrivals land elsewhere override it:
    /// the conventional model accumulates arrivals in a *pending* unit
    /// outside the window tensor, so [`BaselineEngine`] compares the
    /// pending accumulation against the reconstruction of the newest
    /// completed unit — the conventional model's freshest forecast of a
    /// period's total.
    ///
    /// The caller must pass a tuple that fits the window (coordinate
    /// order and bounds).
    fn arrival_residual(&self, tuple: &StreamTuple) -> f64 {
        let window = self.window();
        let newest = window.shape().dim(window.order() - 1) as u32 - 1;
        let coord = tuple.coords.extended(newest);
        (window.get(&coord) + tuple.value - self.kruskal().eval(&coord)).abs()
    }
}

impl StreamingCpd for SnsEngine {
    fn prefill(&mut self, tuple: StreamTuple) -> sns_stream::Result<()> {
        SnsEngine::prefill(self, tuple)
    }

    fn warm_start(&mut self, opts: &AlsOptions) -> AlsResult {
        SnsEngine::warm_start(self, opts)
    }

    fn ingest(&mut self, tuple: StreamTuple) -> sns_stream::Result<usize> {
        SnsEngine::ingest(self, tuple)
    }

    fn advance_to(&mut self, t: u64) -> usize {
        SnsEngine::advance_to(self, t)
    }

    fn window(&self) -> &SparseTensor {
        SnsEngine::window(self)
    }

    fn kruskal(&self) -> &KruskalTensor {
        SnsEngine::kruskal(self)
    }

    fn fitness(&self) -> f64 {
        SnsEngine::fitness(self)
    }

    fn diverged(&self) -> bool {
        SnsEngine::diverged(self)
    }

    fn updates_applied(&self) -> u64 {
        SnsEngine::updates_applied(self)
    }

    fn num_parameters(&self) -> usize {
        SnsEngine::num_parameters(self)
    }

    fn name(&self) -> String {
        self.kind().name().to_string()
    }

    fn ingest_all(&mut self, tuples: &[StreamTuple]) -> Result<BatchOutcome, SnsError> {
        SnsEngine::ingest_all(self, tuples)
            .map(|updates| BatchOutcome { accepted: tuples.len(), updates })
    }

    fn snapshot(&self) -> Result<EngineState, SnsError> {
        Ok(EngineState::Sns(Box::new(self.capture_state())))
    }
}

/// Periodic engines speak the same interface: an "update" is one
/// completed period, and `advance_to` flushes due periods.
impl<B: PeriodicCpd> StreamingCpd for BaselineEngine<B> {
    fn prefill(&mut self, tuple: StreamTuple) -> sns_stream::Result<()> {
        BaselineEngine::prefill(self, tuple)
    }

    fn warm_start(&mut self, opts: &AlsOptions) -> AlsResult {
        BaselineEngine::warm_start(self, opts)
    }

    fn ingest(&mut self, tuple: StreamTuple) -> sns_stream::Result<usize> {
        BaselineEngine::ingest(self, tuple)
    }

    fn advance_to(&mut self, t: u64) -> usize {
        // `advance_to` has no error channel: a failed period stops the
        // flush, `diverged()` reports the non-finite factors, and the
        // next `ingest` returns the typed error.
        let before = self.periods();
        self.flush_to(t).unwrap_or_else(|_| (self.periods() - before) as usize)
    }

    fn window(&self) -> &SparseTensor {
        BaselineEngine::window(self)
    }

    fn kruskal(&self) -> &KruskalTensor {
        self.algo().kruskal()
    }

    fn fitness(&self) -> f64 {
        BaselineEngine::fitness(self)
    }

    fn diverged(&self) -> bool {
        !self.algo().kruskal().is_finite()
    }

    fn updates_applied(&self) -> u64 {
        self.periods()
    }

    fn num_parameters(&self) -> usize {
        self.algo().kruskal().num_parameters()
    }

    fn name(&self) -> String {
        self.algo().name()
    }

    fn snapshot(&self) -> Result<EngineState, SnsError> {
        Ok(EngineState::Baseline(Box::new(self.capture_state())))
    }

    fn arrival_residual(&self, tuple: &StreamTuple) -> f64 {
        // Conventional model: the arrival accumulates in the pending
        // unit, which is not in the window tensor until its period
        // completes — compare the pending total against the
        // reconstruction of the newest (completed-unit) time row instead
        // of mixing last period's value with this period's delta.
        let window = BaselineEngine::window(self);
        let newest = window.shape().dim(window.order() - 1) as u32 - 1;
        let coord = tuple.coords.extended(newest);
        let observed = self.pending_value(&tuple.coords) + tuple.value;
        (observed - self.algo().kruskal().eval(&coord)).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_baselines::AlsPeriodic;
    use sns_core::config::{AlgorithmKind, SnsConfig};

    fn drive(engine: &mut dyn StreamingCpd) -> (f64, u64) {
        let tuples: Vec<StreamTuple> = (0..200u64)
            .map(|t| StreamTuple::new([(t % 5) as u32, (t % 4) as u32], 1.0, t))
            .collect();
        engine.prefill_all(&tuples[..100]).unwrap();
        engine.warm_start(&AlsOptions { max_iters: 15, ..Default::default() });
        for tu in &tuples[100..] {
            engine.ingest(*tu).unwrap();
        }
        engine.advance_to(400);
        (engine.fitness(), engine.updates_applied())
    }

    #[test]
    fn both_engine_families_speak_the_trait() {
        let config = SnsConfig { rank: 3, seed: 3, ..Default::default() };
        let mut sns: Box<dyn StreamingCpd> =
            Box::new(SnsEngine::new(&[5, 4], 4, 10, AlgorithmKind::PlusVec, &config));
        let (fit_c, updates_c) = drive(sns.as_mut());
        assert!(fit_c.is_finite());
        // Continuous: every tuple is at least one event.
        assert!(updates_c >= 100, "{updates_c} continuous updates");
        assert_eq!(sns.name(), "SNS+_VEC");
        assert_eq!(sns.num_parameters(), 3 * (5 + 4 + 4));

        let algo: Box<dyn PeriodicCpd> = Box::new(AlsPeriodic::new(&[5, 4, 4], 3, 2, 3));
        let mut base: Box<dyn StreamingCpd> = Box::new(BaselineEngine::new(&[5, 4], 4, 10, algo));
        let (fit_p, updates_p) = drive(base.as_mut());
        assert!(fit_p.is_finite());
        // Periodic: one update per completed period — far fewer.
        assert!(updates_p < updates_c, "{updates_p} vs {updates_c}");
        assert_eq!(base.name(), "ALS(2)");
        assert_eq!(base.num_parameters(), 3 * (5 + 4 + 4));
        assert!(!base.diverged());
    }

    #[test]
    fn out_of_order_errors_surface_through_the_trait() {
        let config = SnsConfig { rank: 2, seed: 4, ..Default::default() };
        let mut e: Box<dyn StreamingCpd> =
            Box::new(SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::Vec, &config));
        e.ingest(StreamTuple::new([0u32, 0], 1.0, 10)).unwrap();
        assert!(e.ingest(StreamTuple::new([0u32, 0], 1.0, 5)).is_err());
    }

    #[test]
    fn prefill_all_reports_how_far_it_got() {
        let config = SnsConfig { rank: 2, seed: 4, ..Default::default() };
        let mut e: Box<dyn StreamingCpd> =
            Box::new(SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::PlusVec, &config));
        let tuples = [
            StreamTuple::new([0u32, 0], 1.0, 1),
            StreamTuple::new([1u32, 1], 1.0, 2),
            StreamTuple::new([2u32, 2], 1.0, 3),
            StreamTuple::new([0u32, 1], 1.0, 1), // out of order
            StreamTuple::new([1u32, 2], 1.0, 9),
        ];
        let err = e.prefill_all(&tuples).unwrap_err();
        assert_eq!(err.accepted(), Some(3), "{err}");
        assert!(matches!(err.root_cause(), sns_stream::SnsError::OutOfOrder { .. }));
        // The accepted prefix stays in the window; prefill applies no
        // factor updates.
        assert_eq!(e.window().nnz(), 3);
        assert_eq!(e.updates_applied(), 0);
        // All-good batches still report the full count.
        assert_eq!(e.prefill_all(&[StreamTuple::new([1u32, 0], 1.0, 10)]).unwrap(), 1);
    }

    #[test]
    fn default_ingest_all_drives_baselines_and_reports_updates() {
        let algo: Box<dyn PeriodicCpd> = Box::new(AlsPeriodic::new(&[5, 4, 4], 3, 1, 3));
        let mut e: Box<dyn StreamingCpd> = Box::new(BaselineEngine::new(&[5, 4], 4, 10, algo));
        let tuples: Vec<StreamTuple> = (0..200u64)
            .map(|t| StreamTuple::new([(t % 5) as u32, (t % 4) as u32], 1.0, t))
            .collect();
        let outcome = e.ingest_all(&tuples).unwrap();
        assert_eq!(outcome.accepted, 200);
        assert_eq!(outcome.updates, e.updates_applied());
        assert!(outcome.updates > 0);
    }

    #[test]
    fn arrival_residual_reads_the_cell_an_arrival_lands_in() {
        // Continuous model: arrivals land in the newest window unit.
        let config = SnsConfig { rank: 2, seed: 6, ..Default::default() };
        let mut sns: Box<dyn StreamingCpd> =
            Box::new(SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::PlusVec, &config));
        sns.ingest(StreamTuple::new([1u32, 1], 2.0, 5)).unwrap();
        let coord = sns_tensor::Coord::new(&[1, 1, 2]);
        let expected = (sns.window().get(&coord) + 3.0 - sns.kruskal().eval(&coord)).abs();
        let got = sns.arrival_residual(&StreamTuple::new([1u32, 1], 3.0, 6));
        assert_eq!(got.to_bits(), expected.to_bits());

        // Conventional model: arrivals accumulate in the *pending* unit,
        // which is not in the window tensor — the residual must use the
        // pending value, not the newest completed unit's.
        let algo: Box<dyn PeriodicCpd> = Box::new(AlsPeriodic::new(&[3, 3, 3], 2, 1, 3));
        let mut base = BaselineEngine::new(&[3, 3], 3, 10, algo);
        base.ingest(StreamTuple::new([1u32, 1], 2.0, 5)).unwrap(); // pending, mid-period
        assert_eq!(StreamingCpd::window(&base).get(&coord), 0.0, "pending is not in the window");
        let predicted = base.algo().kruskal().eval(&coord);
        let got = StreamingCpd::arrival_residual(&base, &StreamTuple::new([1u32, 1], 3.0, 6));
        let expected = (2.0 + 3.0 - predicted).abs(); // pending 2.0 + arrival 3.0
        assert_eq!(got.to_bits(), expected.to_bits());
    }

    #[test]
    fn snapshot_is_supported_by_every_engine_family() {
        let config = SnsConfig { rank: 2, seed: 4, ..Default::default() };
        let sns: Box<dyn StreamingCpd> =
            Box::new(SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::PlusRnd, &config));
        assert!(matches!(sns.snapshot(), Ok(EngineState::Sns(_))));

        let algo: Box<dyn PeriodicCpd> = Box::new(AlsPeriodic::new(&[3, 3, 3], 2, 1, 3));
        let mut base: Box<dyn StreamingCpd> = Box::new(BaselineEngine::new(&[3, 3], 3, 10, algo));
        base.ingest(StreamTuple::new([1u32, 1], 2.0, 5)).unwrap();
        let state = base.snapshot().unwrap();
        assert!(matches!(state, EngineState::Baseline(_)));
        let restored = state.into_engine().unwrap();
        assert_eq!(restored.name(), "ALS(1)");
        // The pending (mid-period) accumulation came along.
        let tu = StreamTuple::new([1u32, 1], 1.0, 7);
        assert_eq!(restored.arrival_residual(&tu).to_bits(), base.arrival_residual(&tu).to_bits());
    }
}
