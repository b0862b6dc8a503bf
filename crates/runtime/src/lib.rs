//! # sns-runtime
//!
//! The unified drive layer of the SliceNStitch workspace: one interface
//! over every engine, and a sharded, session-based runtime that serves
//! many independent tensor streams from a single process.
//!
//! ## Why this crate exists
//!
//! The paper's central observation is that the continuous per-event loop
//! (SliceNStitch) and the conventional once-per-period loop differ only
//! in *when* factors update — yet the workspace used to implement that
//! drive loop separately for `SnsEngine`, `BaselineEngine`, and again
//! inside the benchmark runner. This crate collapses all of them behind
//! the [`StreamingCpd`] trait: feed tuples in, read an always-current CP
//! decomposition out, regardless of the update cadence behind it.
//!
//! ## Design principles
//!
//! - **One seam:** every consumer (benchmark runner, examples, the
//!   multi-stream pool, future ingestion services) drives engines only
//!   through `dyn StreamingCpd`. New update rules plug in by implementing
//!   the trait, not by teaching each driver a new loop.
//! - **Declarative construction:** engines are described by a plain-data
//!   [`EngineSpec`] (shape, window, algorithm, hyperparameters) and
//!   materialized with [`EngineSpec::build`]`(seed)` — inspectable,
//!   comparable, and rebuildable, unlike the opaque closures the pool
//!   used to take.
//! - **Deterministic by construction:** nothing in this crate draws
//!   randomness of its own. [`EnginePool`] derives per-stream seeds with
//!   [`pool::stream_seed`] and pins each stream to exactly one worker, so
//!   a pooled run is bitwise-identical to driving the same engines
//!   serially — batched or per-tuple.
//! - **Bounded by construction:** every shard queue is bounded
//!   ([`PoolConfig::queue_depth`]); producers either block
//!   ([`StreamSession::ingest_batch`]) or observe typed
//!   [`SnsError::Backpressure`] ([`StreamSession::try_ingest_batch`]).
//!   Memory never grows with producer speed.
//! - **Typed end to end:** every fallible operation reports the
//!   workspace-wide [`SnsError`]; batch failures carry exactly how far
//!   the batch got.
//! - **No external broker:** the pool is plain `std::thread` + bounded
//!   channels, in-process. The same command protocol can later be backed
//!   by a socket or queue without touching engine code.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`streaming`] | the [`StreamingCpd`] trait (single-tuple + batch methods) + impls for `SnsEngine` and `BaselineEngine` |
//! | [`spec`] | declarative [`EngineSpec`] / [`BaselineKind`] engine descriptions |
//! | [`pool`] | [`EnginePool`] + [`StreamSession`]: sharded, backpressured multi-stream runtime |
//! | [`snapshot`] | [`EngineSnapshot`] / [`EngineState`]: bitwise-faithful capture for shard migration |
//! | [`anomaly`] | [`AnomalyCpd`]: anomaly scoring as a transparent `StreamingCpd` decorator |
//! | [`chaos`] | [`ChaosCpd`]: deterministic fault injection (poison panics, apply-path delays) for soak tests |
//! | [`ops`] | [`PoolOps`]: the pool's operability surface — event bus, metrics registry, dead-letter queue |
//!
//! ## Quick tour: the session API
//!
//! ```
//! use sns_core::als::AlsOptions;
//! use sns_core::config::{AlgorithmKind, SnsConfig};
//! use sns_runtime::{EnginePool, EngineSpec, PoolConfig, SnsError};
//! use sns_stream::StreamTuple;
//!
//! let pool = EnginePool::new(PoolConfig { shards: 2, queue_depth: 64, ..Default::default() });
//!
//! // Declarative engine description; the engine is built on the
//! // stream's worker with a deterministic per-stream seed.
//! let config = SnsConfig { rank: 3, theta: 10, ..Default::default() };
//! let spec = EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config);
//! let mut session = pool.open(42, spec).expect("engine builds");
//!
//! // Initialization protocol, batched and acknowledged.
//! let prefill: Vec<StreamTuple> =
//!     (0..30u64).map(|t| StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).collect();
//! let receipt = session.prefill_batch(&prefill).expect("chronological");
//! assert_eq!(receipt.accepted, 30);
//! session.warm_start(&AlsOptions { max_iters: 10, ..Default::default() }).unwrap();
//!
//! // Live ingestion: blocking (flow control by waiting) …
//! let live: Vec<StreamTuple> =
//!     (31..60u64).map(|t| StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).collect();
//! let receipt = session.ingest_batch(&live).expect("chronological");
//! assert!(receipt.updates >= receipt.accepted as u64);
//!
//! // … or pipelined: non-blocking submit, typed backpressure, receipts
//! // collected asynchronously.
//! match session.try_ingest_batch(&[StreamTuple::new([0u32, 0], 1.0, 61)]) {
//!     Ok(_ticket) => {}
//!     Err(SnsError::Backpressure { .. }) => { /* shed load or retry */ }
//!     Err(e) => panic!("{e}"),
//! }
//! while let Some(receipt) = session.recv_receipt() {
//!     receipt.expect("chronological");
//! }
//!
//! // Model health, and a complete state capture for live migration.
//! let report = session.report().unwrap();
//! assert!(report.fitness.is_finite());
//! let snapshot = session.snapshot().unwrap();
//! session.close();
//! let mut migrated = pool.restore(snapshot, 1).expect("shard in range");
//! migrated.ingest_batch(&[StreamTuple::new([1u32, 1], 1.0, 70)]).unwrap();
//! # drop(migrated);
//! # pool.join();
//! ```

#![deny(missing_docs)]

pub mod anomaly;
pub mod chaos;
pub mod journal;
pub mod ops;
pub mod pool;
pub mod snapshot;
pub mod spec;
pub mod streaming;

pub use anomaly::{AnomalyConfig, AnomalyCpd, AnomalyState, AnomalySummary};
pub use chaos::{ChaosConfig, ChaosCpd, ChaosState, POISON_VALUE};
pub use journal::{BatchJournal, JournalEntry, JournalOp};
pub use ops::{PoolDeadLetter, PoolDlq, PoolEventBus, PoolOps, QuarantinePolicy};
pub use pool::{BatchReceipt, EnginePool, PoolConfig, StreamReport, StreamSession};
pub use snapshot::{EngineSnapshot, EngineState};
pub use sns_error::SnsError;
pub use sns_ops::{EvictReason, PoolEvent};
pub use spec::{BaselineKind, EngineSpec};
pub use streaming::{BatchOutcome, StreamingCpd};
