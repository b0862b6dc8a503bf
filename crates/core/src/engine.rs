//! The SliceNStitch engine: a continuous tensor window wired to a
//! per-event factor updater.
//!
//! This is the object a downstream user instantiates: feed it the raw
//! multi-aspect data stream, read back an always-current CP decomposition.

use crate::als::{warm_start_from, AlsOptions, AlsResult};
use crate::config::{AlgorithmKind, SnsConfig};
use crate::fitness::fitness_with_grams;
use crate::kruskal::KruskalTensor;
use crate::update::{ContinuousUpdater, Updater, UpdaterState};
use sns_stream::{ContinuousWindow, ContinuousWindowState, Delta, StreamTuple};
use sns_tensor::SparseTensor;

/// A continuously maintained CP decomposition of a sparse tensor stream.
///
/// [`SnsEngine::capture_state`] freezes the complete engine state —
/// window tensor, pending boundary events, factors, Gram matrices,
/// sampling RNG, and clock — as plain data, and
/// [`SnsEngine::from_state`] rebuilds an engine that continues
/// bitwise-identically. The runtime's snapshots (rollback, shard
/// migration, checkpoints) are built on this.
pub struct SnsEngine {
    window: ContinuousWindow,
    updater: Updater,
    buf: Vec<Delta>,
    updates_applied: u64,
}

impl SnsEngine {
    /// Creates an engine over categorical mode lengths `base_dims` with a
    /// window of `window` periods of `period` ticks, running the chosen
    /// algorithm. Factors start random; call [`SnsEngine::prefill`] +
    /// [`SnsEngine::warm_start`] to reproduce the paper's initialization.
    pub fn new(
        base_dims: &[usize],
        window: usize,
        period: u64,
        kind: AlgorithmKind,
        config: &SnsConfig,
    ) -> Self {
        let mut dims = base_dims.to_vec();
        dims.push(window);
        SnsEngine {
            window: ContinuousWindow::new(base_dims, window, period),
            updater: Updater::new(kind, &dims, config),
            buf: Vec::with_capacity(8),
            updates_applied: 0,
        }
    }

    /// Ingests a tuple into the window **without** updating factors.
    /// Use to build the initial window that ALS is warm-started on.
    pub fn prefill(&mut self, tuple: StreamTuple) -> sns_stream::Result<()> {
        self.buf.clear();
        self.window.ingest(tuple, &mut self.buf)
    }

    /// Runs batch ALS on the current window and installs the result,
    /// mirroring the paper's "initialized factor matrices using ALS on
    /// the initial tensor window".
    pub fn warm_start(&mut self, opts: &AlsOptions) -> AlsResult {
        let result = warm_start_from(self.window.tensor(), self.updater.kruskal(), opts);
        self.updater.install(result.kruskal.clone(), result.grams.clone());
        result
    }

    /// Applies the factor update for every delta in `self.buf`, returning
    /// how many were processed. The single drain point behind `ingest`,
    /// `ingest_all`, and `advance_to`; `self.buf` doubles as the reusable
    /// delta arena (deltas are `Copy`, so steady-state ingestion performs
    /// no per-event allocation anywhere on this path).
    fn drain_events(&mut self) -> usize {
        // The window applies each delta before reporting it, so by the
        // time we iterate here the tensor already includes ΔX for *all*
        // deltas in the batch. For same-timestamp batches this makes later
        // deltas see slightly fresher state than a strict serial replay —
        // harmless, since every update rule reads the window as X+ΔX.
        for d in &self.buf {
            self.updater.apply(self.window.tensor(), d);
        }
        self.updates_applied += self.buf.len() as u64;
        self.buf.len()
    }

    /// Ingests one stream tuple, applying the factor update for every
    /// window event it causes (the arrival plus any boundary crossings
    /// that became due). Returns the number of events processed.
    pub fn ingest(&mut self, tuple: StreamTuple) -> sns_stream::Result<usize> {
        self.buf.clear();
        self.window.ingest(tuple, &mut self.buf)?;
        Ok(self.drain_events())
    }

    /// Ingests a whole slice of chronological tuples, applying every
    /// factor update the batch triggers. Returns the total number of
    /// events processed.
    ///
    /// Bitwise-identical to calling [`SnsEngine::ingest`] per tuple; the
    /// batch entry point lets `dyn StreamingCpd` drivers pay one virtual
    /// call per batch instead of one per tuple. Consecutive calls
    /// compose: `ingest_all(a); ingest_all(b)` ≡ `ingest_all(a ++ b)`
    /// bitwise (pinned by `ingest_all_matches_per_tuple_ingest_bitwise`)
    /// — the invariant the pooled runtime's batch coalescing builds on.
    ///
    /// # Errors
    /// Short-circuits at the first failing tuple with
    /// [`SnsError::BatchAborted`](sns_stream::SnsError::BatchAborted):
    /// tuples before it **were** applied and stay applied; the window is
    /// untouched by the failing tuple itself.
    pub fn ingest_all(&mut self, tuples: &[StreamTuple]) -> sns_stream::Result<u64> {
        let mut updates = 0u64;
        for (i, tu) in tuples.iter().enumerate() {
            match self.ingest(*tu) {
                Ok(n) => updates += n as u64,
                Err(e) => return Err(e.aborted_at(i, updates)),
            }
        }
        Ok(updates)
    }

    /// Advances the clock without an arrival (boundary events still fire
    /// and update factors). Returns the number of events processed.
    pub fn advance_to(&mut self, t: u64) -> usize {
        self.buf.clear();
        self.window.advance_to(t, &mut self.buf);
        self.drain_events()
    }

    /// Current window tensor.
    pub fn window(&self) -> &SparseTensor {
        self.window.tensor()
    }

    /// Current factorization.
    pub fn kruskal(&self) -> &KruskalTensor {
        self.updater.kruskal()
    }

    /// Current fitness against the live window.
    pub fn fitness(&self) -> f64 {
        fitness_with_grams(self.window.tensor(), self.updater.kruskal(), self.updater.grams())
    }

    /// Which algorithm is running.
    pub fn kind(&self) -> AlgorithmKind {
        self.updater.kind()
    }

    /// True if an unclipped variant hit non-finite values and froze.
    pub fn diverged(&self) -> bool {
        self.updater.diverged()
    }

    /// Total factor updates applied (events, not tuples).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Clock of the underlying window.
    pub fn now(&self) -> u64 {
        self.window.now()
    }

    /// Number of model parameters (Fig. 1d's y-axis).
    pub fn num_parameters(&self) -> usize {
        self.updater.kruskal().num_parameters()
    }

    /// Direct access to the updater (ablations, tests).
    pub fn updater(&self) -> &Updater {
        &self.updater
    }

    /// Captures the engine's complete live state — window (with exact
    /// iteration orders), pending boundary events, factors, Grams,
    /// sampling RNG, and counters — as plain serializable data. A
    /// [`SnsEngine::from_state`] rebuild continues bitwise-identically.
    pub fn capture_state(&self) -> SnsEngineState {
        SnsEngineState {
            window: self.window.capture_state(),
            updater: self.updater.capture_state(),
            updates_applied: self.updates_applied,
        }
    }

    /// Rebuilds an engine from captured state. Scratch (the delta arena
    /// and kernel workspace) is rebuilt cold — workspace reuse is
    /// bitwise-invisible, so the restored engine's outputs are identical
    /// to the captured engine's.
    ///
    /// # Errors
    /// Returns a description of the first internal inconsistency
    /// (decoded snapshots are validated, not trusted).
    pub fn from_state(state: SnsEngineState) -> Result<Self, String> {
        let SnsEngineState { window, updater, updates_applied } = state;
        let window = ContinuousWindow::from_state(window)?;
        let updater = Updater::from_state(updater)?;
        let expect: Vec<usize> = window.tensor().shape().dims().to_vec();
        if updater.kruskal().dims() != expect {
            return Err(format!(
                "factor dims {:?} do not match window dims {expect:?}",
                updater.kruskal().dims()
            ));
        }
        Ok(SnsEngine { window, updater, buf: Vec::with_capacity(8), updates_applied })
    }
}

/// Captured raw state of an [`SnsEngine`] (see
/// [`SnsEngine::capture_state`]).
#[derive(Clone)]
pub struct SnsEngineState {
    /// The continuous window: tensor, event queue, clock.
    pub window: ContinuousWindowState,
    /// The per-event updater: factors, Grams, RNG, hyperparameters.
    pub updater: UpdaterState,
    /// Factor updates applied so far.
    pub updates_applied: u64,
}

impl SnsEngineState {
    /// Which algorithm the captured engine was running.
    pub fn kind(&self) -> AlgorithmKind {
        self.updater.kind()
    }

    /// The captured clock (largest time advanced to).
    pub fn clock(&self) -> u64 {
        self.window.now
    }
}

impl std::fmt::Debug for SnsEngineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SnsEngineState({}, dims={:?}, clock={}, updates={})",
            self.kind(),
            self.updater.factors().dims(),
            self.window.now,
            self.updates_applied
        )
    }
}

impl std::fmt::Debug for SnsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SnsEngine({}, window nnz={}, events={})",
            self.kind(),
            self.window().nnz(),
            self.updates_applied
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stream(seed: u64, n: usize, dims: (u32, u32)) -> Vec<StreamTuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0u64;
        (0..n)
            .map(|_| {
                t += rng.gen_range(0..3);
                StreamTuple::new([rng.gen_range(0..dims.0), rng.gen_range(0..dims.1)], 1.0, t)
            })
            .collect()
    }

    fn run_engine(kind: AlgorithmKind, seed: u64) -> SnsEngine {
        let config = SnsConfig { rank: 3, theta: 12, seed, init_scale: 0.3, ..Default::default() };
        let mut e = SnsEngine::new(&[5, 4], 5, 10, kind, &config);
        let tuples = stream(seed, 160, (5, 4));
        let half = tuples.len() / 2;
        for tu in &tuples[..half] {
            e.prefill(*tu).unwrap();
        }
        e.warm_start(&AlsOptions { max_iters: 25, ..Default::default() });
        for tu in &tuples[half..] {
            e.ingest(*tu).unwrap();
        }
        e
    }

    #[test]
    fn every_algorithm_runs_end_to_end() {
        for kind in AlgorithmKind::ALL {
            let e = run_engine(kind, 7);
            assert_eq!(e.kind(), kind);
            assert!(e.updates_applied() > 0, "{kind}: no updates");
            if kind.is_stable() {
                assert!(!e.diverged(), "{kind} diverged");
                let fit = e.fitness();
                assert!(fit.is_finite() && fit > 0.0, "{kind}: fitness {fit}");
            }
        }
    }

    #[test]
    fn warm_start_produces_good_initial_fit() {
        let config = SnsConfig { rank: 3, seed: 9, ..Default::default() };
        let mut e = SnsEngine::new(&[5, 4], 5, 10, AlgorithmKind::PlusRnd, &config);
        for tu in stream(9, 80, (5, 4)) {
            e.prefill(tu).unwrap();
        }
        let result = e.warm_start(&AlsOptions { max_iters: 40, ..Default::default() });
        assert!(result.fitness > 0.2, "ALS warm start fitness {}", result.fitness);
        assert!((e.fitness() - result.fitness).abs() < 1e-9);
    }

    #[test]
    fn advance_to_processes_boundary_events() {
        let config = SnsConfig { rank: 2, seed: 10, ..Default::default() };
        let mut e = SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::PlusVec, &config);
        e.ingest(StreamTuple::new([0u32, 0], 1.0, 0)).unwrap();
        // 3 crossings pending: t = 10, 20, 30 (the last is the expiry).
        let n = e.advance_to(100);
        assert_eq!(n, 3);
        assert_eq!(e.window().nnz(), 0);
        assert_eq!(e.now(), 100);
    }

    #[test]
    fn parameters_are_window_sized_not_history_sized() {
        // The whole point of the continuous model (Fig. 1d): parameters
        // stay R·(ΣN_m + W) regardless of how long the stream runs.
        let config = SnsConfig { rank: 4, seed: 11, ..Default::default() };
        let mut e = SnsEngine::new(&[6, 5], 3, 5, AlgorithmKind::PlusRnd, &config);
        let expected = 4 * (6 + 5 + 3);
        assert_eq!(e.num_parameters(), expected);
        for tu in stream(11, 300, (6, 5)) {
            e.ingest(tu).unwrap();
        }
        assert_eq!(e.num_parameters(), expected);
    }

    #[test]
    fn ingest_all_matches_per_tuple_ingest_bitwise() {
        for kind in AlgorithmKind::ALL {
            let config =
                SnsConfig { rank: 3, theta: 2, seed: 17, init_scale: 0.3, ..Default::default() };
            let mut a = SnsEngine::new(&[5, 4], 4, 10, kind, &config);
            let mut b = SnsEngine::new(&[5, 4], 4, 10, kind, &config);
            let tuples = stream(23, 150, (5, 4));
            let mut per_tuple = 0u64;
            for tu in &tuples {
                per_tuple += a.ingest(*tu).unwrap() as u64;
            }
            let batched = b.ingest_all(&tuples).unwrap();
            assert_eq!(per_tuple, batched, "{kind}: update counts differ");
            assert_eq!(a.updates_applied(), b.updates_applied());
            for m in 0..3 {
                assert_eq!(
                    a.kruskal().factors[m],
                    b.kruskal().factors[m],
                    "{kind}: mode {m} factors differ"
                );
            }
        }
    }

    #[test]
    fn ingest_all_reports_partial_progress_on_error() {
        let config = SnsConfig { rank: 2, seed: 3, ..Default::default() };
        let mut e = SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::PlusVec, &config);
        let tuples = [
            StreamTuple::new([0u32, 0], 1.0, 5),
            StreamTuple::new([1u32, 1], 1.0, 8),
            StreamTuple::new([2u32, 2], 1.0, 4), // out of order
            StreamTuple::new([0u32, 1], 1.0, 9),
        ];
        let err = e.ingest_all(&tuples).unwrap_err();
        match err {
            sns_stream::SnsError::BatchAborted { accepted, applied, source } => {
                assert_eq!(accepted, 2);
                assert_eq!(applied, 2); // two arrivals, no boundary crossings
                assert!(matches!(*source, sns_stream::SnsError::OutOfOrder { .. }));
            }
            other => panic!("expected BatchAborted, got {other:?}"),
        }
        // The accepted prefix stays applied; the engine remains usable.
        assert_eq!(e.updates_applied(), 2);
        assert_eq!(e.window().nnz(), 2);
        e.ingest(StreamTuple::new([0u32, 2], 1.0, 12)).unwrap();
    }

    #[test]
    fn captured_state_restores_bitwise_for_every_algorithm() {
        // Capture mid-stream (live window, pending events, mid-state RNG),
        // rebuild from the plain-data state, and drive both engines
        // forward: they must agree bit for bit. The restored engine got
        // fresh scratch and a fresh workspace, so only the captured state
        // carries continuity.
        for kind in AlgorithmKind::ALL {
            let config =
                SnsConfig { rank: 3, theta: 2, seed: 41, init_scale: 0.3, ..Default::default() };
            let mut original = SnsEngine::new(&[5, 4], 4, 10, kind, &config);
            let tuples = stream(43, 120, (5, 4));
            let (half, rest) = tuples.split_at(60);
            for tu in half {
                original.ingest(*tu).unwrap();
            }
            let state = original.capture_state();
            let mut restored = SnsEngine::from_state(state).unwrap();
            assert_eq!(restored.now(), original.now(), "{kind}");
            for tu in rest {
                original.ingest(*tu).unwrap();
                restored.ingest(*tu).unwrap();
            }
            original.advance_to(600);
            restored.advance_to(600);
            assert_eq!(original.updates_applied(), restored.updates_applied(), "{kind}");
            assert_eq!(original.fitness().to_bits(), restored.fitness().to_bits(), "{kind}");
            for m in 0..3 {
                assert_eq!(
                    original.kruskal().factors[m],
                    restored.kruskal().factors[m],
                    "{kind} mode {m}"
                );
            }
        }
    }

    #[test]
    fn engine_state_debug_is_compact() {
        let config = SnsConfig { rank: 2, seed: 5, ..Default::default() };
        let mut e = SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::PlusRnd, &config);
        for t in 0..50u64 {
            e.ingest(StreamTuple::new([(t % 3) as u32, (t % 3) as u32], 1.0, t)).unwrap();
        }
        let dbg = format!("{:?}", e.capture_state());
        assert!(dbg.contains("SNS+_RND") && dbg.contains("clock="), "{dbg}");
        assert!(dbg.len() < 120, "state debug must stay compact: {dbg}");
    }

    #[test]
    fn out_of_order_is_propagated() {
        let config = SnsConfig::with_rank(2);
        let mut e = SnsEngine::new(&[3, 3], 3, 10, AlgorithmKind::Vec, &config);
        e.ingest(StreamTuple::new([0u32, 0], 1.0, 10)).unwrap();
        assert!(e.ingest(StreamTuple::new([0u32, 0], 1.0, 5)).is_err());
    }

    #[test]
    fn stable_variants_beat_noise_floor_on_structured_stream() {
        // Structured stream: two "communities" with disjoint coordinates.
        let mut tuples = Vec::new();
        let mut rng = StdRng::seed_from_u64(12);
        for t in 0..400u64 {
            let (a, b) = if rng.gen_bool(0.5) {
                (rng.gen_range(0..2u32), rng.gen_range(0..2u32))
            } else {
                (rng.gen_range(3..5u32), rng.gen_range(2..4u32))
            };
            tuples.push(StreamTuple::new([a, b], 1.0, t / 2));
        }
        let config = SnsConfig { rank: 2, theta: 10, seed: 13, ..Default::default() };
        let mut e = SnsEngine::new(&[5, 4], 5, 20, AlgorithmKind::PlusRnd, &config);
        for tu in &tuples[..200] {
            e.prefill(*tu).unwrap();
        }
        e.warm_start(&AlsOptions::default());
        for tu in &tuples[200..] {
            e.ingest(*tu).unwrap();
        }
        assert!(e.fitness() > 0.4, "fitness {}", e.fitness());
    }
}
