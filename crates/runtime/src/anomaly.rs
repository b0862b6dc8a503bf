//! [`AnomalyCpd`]: anomaly scoring as a [`StreamingCpd`] decorator.
//!
//! The paper's application experiment (Section VI-G) scores each arriving
//! change by the z-score of its reconstruction error — the continuous
//! model flags a spike *at its own arrival event* instead of waiting for
//! a period boundary. This module packages that behaviour as a decorator
//! around **any** engine: wrap a `Box<dyn StreamingCpd>` in [`AnomalyCpd`]
//! and every ingested tuple is scored through
//! [`sns_core::anomaly`]'s [`ZScoreTracker`]/[`AnomalyDetector`] *before*
//! it is delegated to the wrapped engine.
//!
//! ## Zero perturbation
//!
//! Scoring only *reads* the wrapped engine (window tensor + current
//! factors); the delegated calls are untouched. A decorated engine
//! therefore produces **bitwise-identical** factors, fitness, and update
//! counts to an undecorated one driven with the same inputs — enforced by
//! `tests/scenarios.rs`.
//!
//! ## Pooled use
//!
//! [`EngineSpec::with_anomaly`](crate::spec::EngineSpec::with_anomaly)
//! describes a decorated engine declaratively, so pool workers build the
//! decoration on their own thread, and the per-stream
//! [`StreamReport`](crate::pool::StreamReport) carries the
//! [`AnomalySummary`] back to the session.

use crate::snapshot::EngineState;
use crate::streaming::{BatchOutcome, StreamingCpd};
use sns_core::als::{AlsOptions, AlsResult};
use sns_core::anomaly::{AnomalyDetector, DetectorState, ScoredEvent, ZScoreTracker};
use sns_core::kruskal::KruskalTensor;
use sns_error::CodecFault;
use sns_stream::{validate_tuple, SnsError, StreamTuple};
use sns_tensor::SparseTensor;

/// Declarative configuration of an [`AnomalyCpd`] decorator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Z-score at or above which a scored event counts as flagged.
    pub threshold: f64,
    /// How many recent scored events the detector retains (the summary
    /// statistics stay exact regardless). Keeps decorated engines
    /// bounded-memory on indefinite streams.
    pub max_events: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig { threshold: 3.0, max_events: 1024 }
    }
}

/// Roll-up of a decorated stream's anomaly activity, cheap enough to ship
/// on every [`StreamReport`](crate::pool::StreamReport).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalySummary {
    /// Arrivals scored so far.
    pub scored: u64,
    /// Scored events with `z >= threshold`.
    pub flagged: u64,
    /// Largest z-score observed (0 until two events have been scored).
    pub max_z: f64,
    /// Mean reconstruction error across all scored events.
    pub mean_error: f64,
    /// The threshold `flagged` was counted against.
    pub threshold: f64,
}

/// Anomaly-scoring decorator around any [`StreamingCpd`] engine.
///
/// Each chronological arrival is scored before delegation via the
/// engine's read-only
/// [`arrival_residual`](StreamingCpd::arrival_residual) hook: the
/// arrival is compared against the model state it is *about to update* —
/// `observed` is the engine's current value at the cell the arrival
/// lands in plus the arrival's value, `predicted` is the current
/// factorization's reconstruction — and the residual is z-scored against
/// all previously scored arrivals. Both sides are read before the engine
/// processes the arrival (including any boundary work that arrival
/// triggers); that is what keeps decoration bitwise-invisible. The first
/// arrivals after a window boundary are therefore measured against the
/// not-yet-stitched window — consistent, since the factors were also
/// last updated before that boundary.
///
/// Tuples the wrapped engine would reject (stale timestamps, bad
/// coordinates) are not scored, so the detector sees exactly the
/// accepted stream and error behaviour is unchanged.
pub struct AnomalyCpd {
    inner: Box<dyn StreamingCpd>,
    detector: AnomalyDetector,
    config: AnomalyConfig,
    flagged: u64,
    max_z: f64,
    error_sum: f64,
    /// Largest *arrival* timestamp accepted so far — the same quantity
    /// the window models validate against — used to skip scoring of
    /// tuples the engine will reject as out of order.
    last_time: Option<u64>,
}

impl AnomalyCpd {
    /// Wraps `inner`, scoring every subsequent arrival.
    pub fn new(inner: Box<dyn StreamingCpd>, config: AnomalyConfig) -> Self {
        AnomalyCpd {
            inner,
            detector: AnomalyDetector::bounded(config.max_events.max(1)),
            config,
            flagged: 0,
            max_z: 0.0,
            error_sum: 0.0,
            last_time: None,
        }
    }

    /// The detector with the retained scored events (top-k ranking,
    /// precision scoring).
    pub fn detector(&self) -> &AnomalyDetector {
        &self.detector
    }

    /// The streaming mean/variance the scores are computed against.
    pub fn tracker(&self) -> &ZScoreTracker {
        self.detector.tracker()
    }

    /// The decoration's configuration.
    pub fn config(&self) -> &AnomalyConfig {
        &self.config
    }

    /// Current anomaly roll-up.
    pub fn summary(&self) -> AnomalySummary {
        let scored = self.detector.scored();
        AnomalySummary {
            scored,
            flagged: self.flagged,
            max_z: self.max_z,
            mean_error: if scored == 0 { 0.0 } else { self.error_sum / scored as f64 },
            threshold: self.config.threshold,
        }
    }

    /// Captures the decorator's complete live state: the wrapped
    /// engine's state plus the detector (streaming statistics, retained
    /// events) and the roll-up counters. A restored decorator scores and
    /// delegates bitwise-identically.
    ///
    /// # Errors
    /// Propagates the wrapped engine's
    /// [`snapshot`](StreamingCpd::snapshot) error.
    pub fn capture_state(&self) -> Result<AnomalyState, SnsError> {
        Ok(AnomalyState {
            inner: self.inner.snapshot()?,
            detector: self.detector.capture_state(),
            config: self.config,
            flagged: self.flagged,
            max_z: self.max_z,
            error_sum: self.error_sum,
            last_time: self.last_time,
        })
    }

    /// Rebuilds a decorator from captured state.
    ///
    /// # Errors
    /// [`SnsError::Codec`] if the state is internally inconsistent.
    pub fn from_state(state: AnomalyState) -> Result<Self, SnsError> {
        let AnomalyState { inner, detector, config, flagged, max_z, error_sum, last_time } = state;
        let detector = AnomalyDetector::from_state(detector).map_err(|detail| SnsError::Codec {
            fault: CodecFault::Invalid,
            offset: 0,
            detail,
        })?;
        Ok(AnomalyCpd {
            inner: inner.into_engine()?,
            detector,
            config,
            flagged,
            max_z,
            error_sum,
            last_time,
        })
    }

    /// Scores one arrival against the wrapped engine's *current* model
    /// state, returning the event (`None` when the tuple breaks
    /// [`validate_tuple`] and will be rejected by the engine anyway).
    fn score_arrival(&mut self, tuple: &StreamTuple) -> Option<ScoredEvent> {
        let shape = self.inner.window().shape();
        validate_tuple(tuple, shape, self.last_time).ok()?;
        let time_mode = shape.order() - 1;
        // Events are keyed by the newest-unit cell; the residual itself
        // is the engine family's own definition (continuous: newest
        // window unit; conventional: the pending unit's accumulation).
        let coord = tuple.coords.extended(shape.dim(time_mode) as u32 - 1);
        let error = self.inner.arrival_residual(tuple);
        let ev = self.detector.record(&coord, tuple.time, error);
        self.error_sum += error;
        if ev.z >= self.config.threshold {
            self.flagged += 1;
        }
        if ev.z > self.max_z {
            self.max_z = ev.z;
        }
        Some(ev)
    }
}

impl StreamingCpd for AnomalyCpd {
    fn prefill(&mut self, tuple: StreamTuple) -> sns_stream::Result<()> {
        // Initialization phase: no factors worth scoring against yet.
        self.inner.prefill(tuple)?;
        self.last_time = Some(self.last_time.map_or(tuple.time, |t| t.max(tuple.time)));
        Ok(())
    }

    fn warm_start(&mut self, opts: &AlsOptions) -> AlsResult {
        self.inner.warm_start(opts)
    }

    fn ingest(&mut self, tuple: StreamTuple) -> sns_stream::Result<usize> {
        self.score_arrival(&tuple);
        let n = self.inner.ingest(tuple)?;
        self.last_time = Some(self.last_time.map_or(tuple.time, |t| t.max(tuple.time)));
        Ok(n)
    }

    fn advance_to(&mut self, t: u64) -> usize {
        self.inner.advance_to(t)
    }

    fn window(&self) -> &SparseTensor {
        self.inner.window()
    }

    fn kruskal(&self) -> &KruskalTensor {
        self.inner.kruskal()
    }

    fn fitness(&self) -> f64 {
        self.inner.fitness()
    }

    fn diverged(&self) -> bool {
        self.inner.diverged()
    }

    fn updates_applied(&self) -> u64 {
        self.inner.updates_applied()
    }

    fn num_parameters(&self) -> usize {
        self.inner.num_parameters()
    }

    fn name(&self) -> String {
        format!("Anomaly({})", self.inner.name())
    }

    fn ingest_all(&mut self, tuples: &[StreamTuple]) -> Result<BatchOutcome, SnsError> {
        // Per-tuple loop on purpose: every arrival must be scored against
        // the factors *as of its own arrival*, so the wrapped engine's
        // amortized batch path cannot be used. Outcomes (accepted counts,
        // update totals, `BatchAborted` progress) are identical.
        let mut updates = 0u64;
        for (i, tu) in tuples.iter().enumerate() {
            match self.ingest(*tu) {
                Ok(n) => updates += n as u64,
                Err(e) => return Err(e.aborted_at(i, updates)),
            }
        }
        Ok(BatchOutcome { accepted: tuples.len(), updates })
    }

    fn snapshot(&self) -> Result<EngineState, SnsError> {
        Ok(EngineState::Anomaly(Box::new(self.capture_state()?)))
    }

    fn anomalies(&self) -> Option<AnomalySummary> {
        Some(self.summary())
    }

    fn arrival_residual(&self, tuple: &StreamTuple) -> f64 {
        // Nested decoration keeps the innermost engine's definition.
        self.inner.arrival_residual(tuple)
    }
}

/// Captured state of an [`AnomalyCpd`] decorator: the wrapped engine's
/// state plus the detector and roll-up counters (see
/// [`AnomalyCpd::capture_state`]).
#[derive(Clone)]
pub struct AnomalyState {
    /// The wrapped engine's captured state.
    pub inner: EngineState,
    /// The detector: streaming statistics + retained scored events.
    pub detector: DetectorState,
    /// Threshold and retention configuration.
    pub config: AnomalyConfig,
    /// Events flagged at or above the threshold.
    pub flagged: u64,
    /// Largest z-score observed.
    pub max_z: f64,
    /// Sum of all scored reconstruction errors.
    pub error_sum: f64,
    /// Largest accepted arrival timestamp.
    pub last_time: Option<u64>,
}

impl std::fmt::Debug for AnomalyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AnomalyState(scored={}, flagged={}, inner={:?})",
            self.detector.count, self.flagged, self.inner
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_core::engine::SnsEngine;

    fn engine() -> Box<dyn StreamingCpd> {
        let config = SnsConfig { rank: 2, theta: 4, seed: 11, ..Default::default() };
        Box::new(SnsEngine::new(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config))
    }

    fn tuples() -> Vec<StreamTuple> {
        (0..150u64).map(|t| StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).collect()
    }

    #[test]
    fn decoration_is_invisible_to_the_model() {
        let mut plain = engine();
        let mut wrapped = AnomalyCpd::new(engine(), AnomalyConfig::default());
        let stream = tuples();
        plain.prefill_all(&stream[..50]).unwrap();
        wrapped.prefill_all(&stream[..50]).unwrap();
        plain.warm_start(&AlsOptions::default());
        wrapped.warm_start(&AlsOptions::default());
        let a = plain.ingest_all(&stream[50..]).unwrap();
        let b = wrapped.ingest_all(&stream[50..]).unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.fitness().to_bits(), wrapped.fitness().to_bits());
        for m in 0..3 {
            assert_eq!(plain.kruskal().factors[m], wrapped.kruskal().factors[m], "mode {m}");
        }
        // …while the decorator actually scored the live phase.
        let s = wrapped.summary();
        assert_eq!(s.scored, 100);
        assert!(s.mean_error > 0.0);
        assert_eq!(wrapped.name(), "Anomaly(SNS+_RND)");
    }

    #[test]
    fn spike_is_flagged_with_a_high_zscore() {
        let mut wrapped = AnomalyCpd::new(engine(), AnomalyConfig::default());
        let stream = tuples();
        wrapped.prefill_all(&stream[..50]).unwrap();
        wrapped.warm_start(&AlsOptions::default());
        wrapped.ingest_all(&stream[50..120]).unwrap();
        let before = wrapped.summary();
        wrapped.ingest(StreamTuple::new([0u32, 0], 500.0, 121)).unwrap();
        let after = wrapped.summary();
        assert_eq!(after.scored, before.scored + 1);
        assert!(after.flagged > before.flagged, "spike not flagged: {after:?}");
        assert!(after.max_z > 3.0, "spike z = {}", after.max_z);
        let top = wrapped.detector().top_k(1);
        assert_eq!(top[0].time, 121);
    }

    #[test]
    fn rejected_tuples_are_not_scored() {
        let mut wrapped = AnomalyCpd::new(engine(), AnomalyConfig::default());
        wrapped.ingest(StreamTuple::new([0u32, 0], 1.0, 50)).unwrap();
        // Out of order: rejected by the engine, invisible to the detector.
        assert!(wrapped.ingest(StreamTuple::new([1u32, 1], 1.0, 10)).is_err());
        // Bad coordinates: likewise.
        assert!(wrapped.ingest(StreamTuple::new([9u32, 0], 1.0, 60)).is_err());
        assert!(wrapped.ingest(StreamTuple::new([0u32], 1.0, 60)).is_err());
        assert_eq!(wrapped.summary().scored, 1);
    }

    #[test]
    fn snapshot_restores_detector_and_engine_bitwise() {
        let mut original = AnomalyCpd::new(engine(), AnomalyConfig::default());
        let stream = tuples();
        original.prefill_all(&stream[..50]).unwrap();
        original.warm_start(&AlsOptions::default());
        original.ingest_all(&stream[50..100]).unwrap();
        original.ingest(StreamTuple::new([0u32, 0], 300.0, 100)).unwrap();

        let state = original.snapshot().unwrap();
        assert!(matches!(state, EngineState::Anomaly(_)));
        let mut restored = state.into_engine().unwrap();
        assert_eq!(restored.name(), "Anomaly(SNS+_RND)");
        assert_eq!(restored.anomalies(), original.anomalies());

        // Both continue identically: scores, flags, and model state.
        for tu in &stream[100..] {
            original.ingest(*tu).unwrap();
            restored.ingest(*tu).unwrap();
        }
        assert_eq!(restored.anomalies(), original.anomalies());
        assert_eq!(original.fitness().to_bits(), restored.fitness().to_bits());
        for m in 0..3 {
            assert_eq!(original.kruskal().factors[m], restored.kruskal().factors[m], "mode {m}");
        }
    }
}
