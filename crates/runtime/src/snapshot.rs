//! Universal engine state capture.
//!
//! A captured [`EngineState`] is **plain data** — window tensor (with
//! exact iteration orders), pending events, factor matrices, Gram
//! matrices, accumulators, sampling RNG states, and clocks — so a
//! restored engine continues **bitwise-identically** to the original.
//! This is stronger than "factors + window": replaying tuples into a
//! freshly built engine would desynchronize the sampling RNGs of the RND
//! variants, the FIFO tie-breaking of the event queue, and the float
//! summation orders of the fiber indexes.
//!
//! Every engine family in the workspace captures itself through
//! [`StreamingCpd::snapshot`]: the continuous [`SnsEngine`], all four
//! conventional baselines behind
//! [`BaselineEngine`](sns_baselines::BaselineEngine), and the
//! [`AnomalyCpd`](crate::anomaly::AnomalyCpd) and
//! [`ChaosCpd`](crate::chaos::ChaosCpd) decorators (detector and fault
//! plan included). The inverse is [`EngineState::into_engine`]; the
//! round trip is bitwise-faithful. Because the state is structural
//! rather than a live object, it can leave the process: `sns-codec`
//! serializes an [`EngineSnapshot`] to a self-describing versioned
//! binary and back, which is what pool-wide checkpointing and crash
//! recovery are built on.

use crate::spec::EngineSpec;
use crate::streaming::StreamingCpd;
use sns_baselines::BaselineEngineState;
use sns_core::engine::{SnsEngine, SnsEngineState};
use sns_error::{CodecFault, SnsError};

pub use crate::anomaly::AnomalyState;
pub use crate::chaos::ChaosState;

/// Captured engine state, by engine family. Plain `Send + Clone` data;
/// see the module docs for the fidelity contract.
#[derive(Clone)]
pub enum EngineState {
    /// A continuous SliceNStitch engine.
    Sns(Box<SnsEngineState>),
    /// A conventional once-per-period baseline engine.
    Baseline(Box<BaselineEngineState>),
    /// An anomaly-scoring decorator around another captured engine.
    Anomaly(Box<AnomalyState>),
    /// A fault-injecting chaos decorator around another captured
    /// engine. Captured with its wrapper so a quarantine rollback
    /// restores the *decorated* engine (the fault plan survives).
    Chaos(Box<ChaosState>),
}

fn invalid(detail: String) -> SnsError {
    SnsError::Codec { fault: CodecFault::Invalid, offset: 0, detail }
}

impl EngineState {
    /// Turns the captured state back into a live engine, which continues
    /// bitwise-identically to the captured one.
    ///
    /// # Errors
    /// [`SnsError::Codec`] with [`CodecFault::Invalid`] if the state is
    /// internally inconsistent (states decoded from bytes are validated,
    /// not trusted).
    pub fn into_engine(self) -> Result<Box<dyn StreamingCpd>, SnsError> {
        match self {
            EngineState::Sns(state) => {
                SnsEngine::from_state(*state).map(|e| Box::new(e) as _).map_err(invalid)
            }
            EngineState::Baseline(state) => {
                state.into_engine().map(|e| Box::new(e) as _).map_err(invalid)
            }
            EngineState::Anomaly(state) => {
                crate::anomaly::AnomalyCpd::from_state(*state).map(|e| Box::new(e) as _)
            }
            EngineState::Chaos(state) => {
                crate::chaos::ChaosCpd::from_state(*state).map(|e| Box::new(e) as _)
            }
        }
    }

    /// Display name of the captured engine (matches
    /// [`StreamingCpd::name`]).
    pub fn name(&self) -> String {
        match self {
            EngineState::Sns(s) => s.kind().name().to_string(),
            EngineState::Baseline(s) => s.algo.name(),
            EngineState::Anomaly(s) => format!("Anomaly({})", s.inner.name()),
            EngineState::Chaos(s) => format!("Chaos({})", s.inner.name()),
        }
    }

    /// Factor updates the captured engine had applied.
    pub fn updates_applied(&self) -> u64 {
        match self {
            EngineState::Sns(s) => s.updates_applied,
            EngineState::Baseline(s) => s.periods,
            EngineState::Anomaly(s) => s.inner.updates_applied(),
            EngineState::Chaos(s) => s.inner.updates_applied(),
        }
    }

    /// The captured engine's clock (largest time it has observed —
    /// advanced to for continuous engines, last arrival for baselines).
    pub fn clock(&self) -> u64 {
        match self {
            EngineState::Sns(s) => s.clock(),
            EngineState::Baseline(s) => s.window.last_arrival.unwrap_or(0),
            EngineState::Anomaly(s) => s.inner.clock(),
            EngineState::Chaos(s) => s.inner.clock(),
        }
    }

    /// Mode lengths of the captured model.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            EngineState::Sns(s) => s.updater.factors().dims(),
            EngineState::Baseline(s) => s.algo.kruskal().dims(),
            EngineState::Anomaly(s) => s.inner.dims(),
            EngineState::Chaos(s) => s.inner.dims(),
        }
    }
}

/// Compact by design: pool error logs print snapshots, and dumping
/// entire factor matrices and windows there made them unreadable.
impl std::fmt::Debug for EngineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EngineState({}, dims={:?}, clock={}, updates={})",
            self.name(),
            self.dims(),
            self.clock(),
            self.updates_applied()
        )
    }
}

/// A migratable, serializable snapshot of one pooled stream: the
/// captured engine state plus the spec and seed the engine was
/// originally built from, so the receiving side can verify or rebuild
/// from scratch.
#[derive(Clone)]
#[must_use = "a snapshot exists to be restored, serialized, or verified"]
pub struct EngineSnapshot {
    /// The stream the snapshot was taken from.
    pub stream_id: u64,
    /// The spec the engine was built from.
    pub spec: EngineSpec,
    /// The seed the engine was built with (already derived/pinned).
    pub seed: u64,
    /// The stream's WAL sequence at capture time: cumulative journaled
    /// units (see [`crate::journal`]). Always `0` on pools without a
    /// configured [`BatchJournal`](crate::BatchJournal); when a journal
    /// is attached, recovery restores the snapshot and replays journal
    /// records with `seq > wal_seq`.
    pub wal_seq: u64,
    /// The captured state.
    pub state: EngineState,
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EngineSnapshot(stream={}, seed={:#x}, wal_seq={}, {:?})",
            self.stream_id, self.seed, self.wal_seq, self.state
        )
    }
}

// Snapshots must be able to cross worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EngineSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_stream::StreamTuple;

    #[test]
    fn state_round_trips_through_into_engine() {
        let config = SnsConfig { rank: 2, theta: 2, seed: 5, ..Default::default() };
        let mut e = SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::PlusRnd, &config);
        for t in 0..50u64 {
            e.ingest(StreamTuple::new([(t % 3) as u32, ((t * 2) % 3) as u32], 1.0, t)).unwrap();
        }
        let state = e.snapshot().unwrap();
        assert_eq!(state.updates_applied(), e.updates_applied());
        assert_eq!(state.clock(), e.now());
        let mut restored = state.into_engine().unwrap();
        let tu = StreamTuple::new([1u32, 1], 1.0, 60);
        let a = SnsEngine::ingest(&mut e, tu).unwrap();
        let b = restored.ingest(tu).unwrap();
        assert_eq!(a, b);
        assert_eq!(e.fitness().to_bits(), restored.fitness().to_bits());
    }

    #[test]
    fn debug_stays_compact_for_large_engines() {
        let config = SnsConfig { rank: 20, seed: 5, ..Default::default() };
        let mut e = SnsEngine::new(&[40, 30], 10, 10, AlgorithmKind::PlusVec, &config);
        for t in 0..400u64 {
            e.ingest(StreamTuple::new([(t % 40) as u32, (t % 30) as u32], 1.0, t)).unwrap();
        }
        let state = e.snapshot().unwrap();
        let dbg = format!("{state:?}");
        assert!(dbg.len() < 160, "EngineState debug must not dump factors: {dbg}");
        let snapshot = EngineSnapshot {
            stream_id: 7,
            spec: EngineSpec::sns(&[40, 30], 10, 10, AlgorithmKind::PlusVec, &config),
            seed: 0xbeef,
            wal_seq: 0,
            state,
        };
        let dbg = format!("{snapshot:?}");
        assert!(dbg.contains("stream=7") && dbg.len() < 240, "{dbg}");
    }
}
