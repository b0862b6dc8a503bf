//! [`ChaosCpd`]: declarative fault injection as a [`StreamingCpd`]
//! decorator.
//!
//! Soak-testing the pool's quarantine and backpressure paths needs
//! *deterministic* faults: the same trace must panic the same engine at
//! the same tuple on every run, or the replay-byte-identity proof is
//! meaningless. Closures can't ride inside an
//! [`EngineSpec`](crate::spec::EngineSpec) (specs are plain comparable
//! data), so faults are declared as data instead:
//!
//! - a **poison sentinel** — a tuple whose value bit-equals
//!   [`ChaosConfig::poison_value`] panics the engine at the exact
//!   arrival that carries it, modelling a poison batch;
//! - a **per-tuple delay** — an optional busy-wait that slows the
//!   worker's apply path, modelling a slow engine so sessions
//!   deterministically hit queue-full backpressure.
//!
//! Benign tuples delegate untouched, so a chaos-wrapped engine is
//! bitwise-identical to the bare engine for any poison-free stream —
//! which is exactly what makes a repaired replay comparable against a
//! clean serial run.

use crate::snapshot::EngineState;
use crate::streaming::{BatchOutcome, StreamingCpd};
use sns_core::als::{AlsOptions, AlsResult};
use sns_core::kruskal::KruskalTensor;
use sns_error::SnsError;
use sns_stream::StreamTuple;
use sns_tensor::SparseTensor;

/// The default poison sentinel: an ordinary (non-NaN) magic value no
/// real trace produces, so equality is exact and bit-stable.
pub const POISON_VALUE: f64 = -123_456_789.0;

/// Declarative configuration of a [`ChaosCpd`] decorator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Tuples whose value bit-equals this panic the engine.
    pub poison_value: f64,
    /// Busy-wait (microseconds) per ingested tuple; 0 disables.
    pub delay_micros: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { poison_value: POISON_VALUE, delay_micros: 0 }
    }
}

impl ChaosConfig {
    fn is_poison(&self, value: f64) -> bool {
        value.to_bits() == self.poison_value.to_bits()
    }
}

/// Fault-injecting decorator around any [`StreamingCpd`] engine. See
/// the module docs for semantics; construct via
/// [`EngineSpec::with_chaos`](crate::spec::EngineSpec::with_chaos) for
/// pooled use.
pub struct ChaosCpd {
    inner: Box<dyn StreamingCpd>,
    config: ChaosConfig,
}

impl ChaosCpd {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Box<dyn StreamingCpd>, config: ChaosConfig) -> Self {
        ChaosCpd { inner, config }
    }

    /// The decorator's fault plan.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Captures the decorator's state (the wrapped engine's state plus
    /// the fault plan, so a rollback restores the *decorated* engine —
    /// stripping the wrapper mid-run would turn later poisons into real
    /// values and break replay determinism).
    pub fn capture_state(&self) -> Result<ChaosState, SnsError> {
        Ok(ChaosState { inner: self.inner.snapshot()?, config: self.config })
    }

    /// Rebuilds a decorator from captured state.
    pub fn from_state(state: ChaosState) -> Result<Self, SnsError> {
        Ok(ChaosCpd { inner: state.inner.into_engine()?, config: state.config })
    }

    fn trip(&self, tuple: &StreamTuple) {
        if self.config.is_poison(tuple.value) {
            panic!("chaos poison tuple at t={}", tuple.time);
        }
        if self.config.delay_micros > 0 {
            let until =
                sns_ops::clock::now() + std::time::Duration::from_micros(self.config.delay_micros);
            while sns_ops::clock::now() < until {
                std::hint::spin_loop();
            }
        }
    }
}

impl StreamingCpd for ChaosCpd {
    fn prefill(&mut self, tuple: StreamTuple) -> sns_stream::Result<()> {
        self.trip(&tuple);
        self.inner.prefill(tuple)
    }

    fn warm_start(&mut self, opts: &AlsOptions) -> AlsResult {
        self.inner.warm_start(opts)
    }

    fn ingest(&mut self, tuple: StreamTuple) -> sns_stream::Result<usize> {
        self.trip(&tuple);
        self.inner.ingest(tuple)
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
        format!("Chaos({})", self.inner.name())
    }

    fn prefill_all(&mut self, tuples: &[StreamTuple]) -> Result<usize, SnsError> {
        for tu in tuples {
            self.trip(tu);
        }
        self.inner.prefill_all(tuples)
    }

    fn ingest_all(&mut self, tuples: &[StreamTuple]) -> Result<BatchOutcome, SnsError> {
        // Per-tuple so a poison mid-batch fires exactly at its own
        // arrival, after the tuples before it were applied — the same
        // partial progress a real poison batch would leave behind.
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
        Ok(EngineState::Chaos(Box::new(self.capture_state()?)))
    }

    fn anomalies(&self) -> Option<crate::anomaly::AnomalySummary> {
        self.inner.anomalies()
    }

    fn arrival_residual(&self, tuple: &StreamTuple) -> f64 {
        self.inner.arrival_residual(tuple)
    }
}

/// Captured state of a [`ChaosCpd`]: the wrapped engine's state plus
/// the fault plan.
#[derive(Clone)]
pub struct ChaosState {
    /// The wrapped engine's captured state.
    pub inner: EngineState,
    /// The fault plan (poison sentinel, delay).
    pub config: ChaosConfig,
}

impl std::fmt::Debug for ChaosState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChaosState(delay={}us, inner={:?})", self.config.delay_micros, self.inner)
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
        (0..120u64).map(|t| StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).collect()
    }

    #[test]
    fn benign_stream_is_bitwise_transparent() {
        let mut plain = engine();
        let mut wrapped = ChaosCpd::new(engine(), ChaosConfig::default());
        let stream = tuples();
        plain.prefill_all(&stream[..40]).unwrap();
        wrapped.prefill_all(&stream[..40]).unwrap();
        plain.warm_start(&AlsOptions::default());
        wrapped.warm_start(&AlsOptions::default());
        let a = plain.ingest_all(&stream[40..]).unwrap();
        let b = wrapped.ingest_all(&stream[40..]).unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.fitness().to_bits(), wrapped.fitness().to_bits());
        for m in 0..3 {
            assert_eq!(plain.kruskal().factors[m], wrapped.kruskal().factors[m], "mode {m}");
        }
        assert_eq!(wrapped.name(), "Chaos(SNS+_RND)");
    }

    #[test]
    fn poison_tuple_panics_at_its_own_arrival() {
        let mut wrapped = ChaosCpd::new(engine(), ChaosConfig::default());
        let stream = tuples();
        wrapped.prefill_all(&stream[..40]).unwrap();
        wrapped.ingest_all(&stream[40..50]).unwrap();
        let mut batch = stream[50..60].to_vec();
        batch[4].value = POISON_VALUE;
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wrapped.ingest_all(&batch)));
        assert!(result.is_err(), "poison must panic");
    }

    #[test]
    fn capture_keeps_the_wrapper() {
        let mut wrapped = ChaosCpd::new(engine(), ChaosConfig::default());
        let stream = tuples();
        wrapped.prefill_all(&stream[..40]).unwrap();
        wrapped.ingest_all(&stream[40..80]).unwrap();
        let state = wrapped.snapshot().unwrap();
        assert!(matches!(state, EngineState::Chaos(_)));
        let mut restored = state.into_engine().unwrap();
        assert_eq!(restored.name(), "Chaos(SNS+_RND)");
        // The restored wrapper still trips on poison …
        let poison = StreamTuple::new([0u32, 0], POISON_VALUE, 90);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| restored.ingest(poison)));
        assert!(result.is_err(), "restored chaos wrapper must still trip");
        // … and a benign continuation stays bitwise-aligned.
        let mut again = wrapped.snapshot().unwrap().into_engine().unwrap();
        for tu in &stream[80..] {
            wrapped.ingest(*tu).unwrap();
            again.ingest(*tu).unwrap();
        }
        assert_eq!(wrapped.fitness().to_bits(), again.fitness().to_bits());
    }

    #[test]
    fn delay_slows_the_apply_path() {
        let mut wrapped =
            ChaosCpd::new(engine(), ChaosConfig { delay_micros: 200, ..Default::default() });
        let stream = tuples();
        let start = std::time::Instant::now();
        wrapped.prefill_all(&stream[..20]).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(4));
    }
}
