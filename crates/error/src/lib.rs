//! # sns-error
//!
//! The single error surface of the SliceNStitch workspace: every fallible
//! operation a client can reach — window-model validation, batched
//! ingestion, the pooled session runtime — reports one [`SnsError`], so
//! results stay typed end to end instead of degrading to strings at crate
//! boundaries.
//!
//! The enum has three families of variants:
//!
//! - **Stream-model errors** ([`SnsError::OutOfOrder`],
//!   [`SnsError::OrderMismatch`], [`SnsError::OutOfBounds`],
//!   [`SnsError::NonFiniteValue`]) — a tuple
//!   violated the continuous tensor model's input contract
//!   (Definition 1 of the paper).
//! - **Batch errors** ([`SnsError::BatchAborted`]) — a batched
//!   `prefill_all`/`ingest_all` short-circuited mid-slice; the variant
//!   carries how far it got so callers can resume or account precisely.
//! - **Session/runtime errors** ([`SnsError::Backpressure`],
//!   [`SnsError::StreamClosed`], …) — flow control and lifecycle of the
//!   sharded `EnginePool` runtime.
//!
//! The crate is dependency-free so every workspace member (including
//! `sns-stream`, at the bottom of the graph) can use it.

#![deny(missing_docs)]

use std::fmt;

/// Unified error type for stream ingestion, batched updates, and the
/// pooled session runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnsError {
    /// Tuples must arrive in chronological order (Definition 1).
    OutOfOrder {
        /// Timestamp of the latest previously ingested tuple.
        previous: u64,
        /// Timestamp of the offending tuple.
        got: u64,
    },
    /// A tuple's categorical coordinate order does not match the window.
    OrderMismatch {
        /// Expected number of categorical modes (`M − 1`).
        expected: usize,
        /// Received number of categorical modes.
        got: usize,
    },
    /// A tuple's categorical coordinate is outside the declared shape.
    OutOfBounds {
        /// Offending mode.
        mode: usize,
        /// Offending index.
        index: u32,
        /// Length of that mode.
        len: usize,
    },
    /// A tuple's value is NaN or infinite. It is rejected before the
    /// window is touched: one such value would poison every factor row
    /// its fibers reach.
    NonFiniteValue {
        /// Timestamp of the offending tuple.
        time: u64,
    },
    /// A batched operation stopped at its first failing tuple. Tuples
    /// before the failing one **were** applied and stay applied; `source`
    /// is the per-tuple error that stopped the batch.
    BatchAborted {
        /// Tuples accepted before the failure (= index of the bad tuple).
        accepted: usize,
        /// Factor updates applied by the accepted tuples.
        applied: u64,
        /// The error the failing tuple produced.
        source: Box<SnsError>,
    },
    /// A non-blocking submit found the stream's bounded command queue
    /// full. Nothing was enqueued; retry later or use the blocking call.
    Backpressure {
        /// The stream whose shard queue is full.
        stream_id: u64,
        /// The shard whose queue is full.
        shard: usize,
        /// Commands in flight on that shard when the submit failed.
        depth: usize,
        /// Configured queue capacity (commands) of the shard.
        capacity: usize,
    },
    /// The stream's worker is gone or the stream was closed/replaced;
    /// the session can no longer be used.
    StreamClosed {
        /// The stream the session was bound to.
        stream_id: u64,
    },
    /// The engine factory failed while building a stream's engine on its
    /// worker (e.g. a constructor panic from invalid dimensions).
    EngineBuildFailed {
        /// The stream whose engine could not be built.
        stream_id: u64,
        /// Panic payload or constructor error, as text.
        message: String,
    },
    /// The engine panicked while processing a command and has been
    /// quarantined; the stream keeps reporting this error.
    EnginePanicked {
        /// The stream whose engine panicked.
        stream_id: u64,
        /// Panic payload, as text.
        message: String,
    },
    /// The stream has quarantined batches pending replay; this batch
    /// was diverted to the dead-letter queue (in order) instead of
    /// being applied, so a later replay stays deterministic. Repair and
    /// replay the stream's dead letters to resume normal service.
    StreamQuarantined {
        /// The quarantined stream.
        stream_id: u64,
        /// Dead letters pending for the stream (including this one).
        pending: usize,
    },
    /// A shard index was out of range for the pool.
    ShardOutOfRange {
        /// Requested shard.
        shard: usize,
        /// Number of shards in the pool.
        shards: usize,
    },
    /// A serialized snapshot could not be decoded (or failed to encode).
    /// Truncation, corruption, and version skew all surface here as
    /// typed data instead of panics.
    Codec {
        /// What kind of failure was detected.
        fault: CodecFault,
        /// Byte offset at which the failure was detected.
        offset: usize,
        /// What was being decoded when it failed.
        detail: String,
    },
    /// A checkpoint-store filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, as text.
        message: String,
    },
    /// A protocol invariant the runtime relies on was violated — e.g. a
    /// worker replied to a ticket with a reply kind the protocol says it
    /// cannot produce. Formerly these sites were `unreachable!`; the
    /// typed variant lets one corrupted session fail without killing the
    /// shard worker and everything co-scheduled on it.
    Internal {
        /// Which invariant broke, as text (for the operator, not for
        /// matching).
        detail: String,
    },
    /// A compute-kernel entry point received a buffer whose length does
    /// not match the factor rank (the classic wrong-length-scratch bug).
    /// Kernels report this instead of panicking in release builds; the
    /// inner loops keep `debug_assert!`s only.
    KernelShape {
        /// Which buffer was mis-sized (e.g. `"mttkrp_row(out)"`).
        what: &'static str,
        /// The factor rank the buffer must match.
        expected: usize,
        /// The length actually received.
        got: usize,
    },
    /// A model update's least-squares solve failed (its Gram system was
    /// non-finite or did not converge): the engine's factors have
    /// diverged and later updates cannot repair them.
    Diverged {
        /// Display name of the engine.
        engine: String,
        /// The failed solve, as text.
        detail: String,
    },
}

/// Failure classes of the snapshot codec (see [`SnsError::Codec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecFault {
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// The leading magic bytes are not a SliceNStitch snapshot's.
    BadMagic,
    /// The snapshot's schema version is not supported by this build.
    UnsupportedVersion,
    /// The trailing checksum does not match the content.
    Checksum,
    /// The bytes parse but describe an inconsistent structure.
    Invalid,
}

impl fmt::Display for CodecFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CodecFault::Truncated => "truncated",
            CodecFault::BadMagic => "bad magic",
            CodecFault::UnsupportedVersion => "unsupported schema version",
            CodecFault::Checksum => "checksum mismatch",
            CodecFault::Invalid => "invalid structure",
        })
    }
}

impl SnsError {
    /// Wraps a per-tuple error into a [`SnsError::BatchAborted`] carrying
    /// the batch progress made before the failure.
    pub fn aborted_at(self, accepted: usize, applied: u64) -> SnsError {
        SnsError::BatchAborted { accepted, applied, source: Box::new(self) }
    }

    /// For batch errors, how many tuples were accepted before the
    /// failure; `None` for non-batch errors.
    pub fn accepted(&self) -> Option<usize> {
        match self {
            SnsError::BatchAborted { accepted, .. } => Some(*accepted),
            _ => None,
        }
    }

    /// The innermost non-batch error (itself, if not a batch error).
    pub fn root_cause(&self) -> &SnsError {
        match self {
            SnsError::BatchAborted { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for SnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnsError::OutOfOrder { previous, got } => {
                write!(f, "out-of-order tuple: time {got} after {previous}")
            }
            SnsError::OrderMismatch { expected, got } => {
                write!(f, "tuple has {got} categorical modes, window expects {expected}")
            }
            SnsError::OutOfBounds { mode, index, len } => {
                write!(f, "index {index} out of bounds for mode {mode} (length {len})")
            }
            SnsError::NonFiniteValue { time } => {
                write!(f, "tuple at time {time} has a non-finite value")
            }
            SnsError::BatchAborted { accepted, applied, source } => {
                write!(
                    f,
                    "batch aborted after {accepted} accepted tuples \
                     ({applied} updates applied): {source}"
                )
            }
            SnsError::Backpressure { stream_id, shard, depth, capacity } => {
                write!(
                    f,
                    "stream {stream_id}: shard {shard} queue full \
                     ({depth}/{capacity} commands in flight)"
                )
            }
            SnsError::StreamClosed { stream_id } => {
                write!(f, "stream {stream_id} is closed")
            }
            SnsError::EngineBuildFailed { stream_id, message } => {
                write!(f, "stream {stream_id}: engine build failed: {message}")
            }
            SnsError::EnginePanicked { stream_id, message } => {
                write!(f, "stream {stream_id}: engine panicked: {message}")
            }
            SnsError::StreamQuarantined { stream_id, pending } => {
                write!(
                    f,
                    "stream {stream_id}: quarantined ({pending} dead-letter \
                     batches pending replay)"
                )
            }
            SnsError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range (pool has {shards})")
            }
            SnsError::Codec { fault, offset, detail } => {
                write!(f, "snapshot codec: {fault} at byte {offset} ({detail})")
            }
            SnsError::Io { path, message } => {
                write!(f, "checkpoint io: {path}: {message}")
            }
            SnsError::Internal { detail } => {
                write!(f, "internal protocol invariant violated: {detail}")
            }
            SnsError::KernelShape { what, expected, got } => {
                write!(
                    f,
                    "kernel buffer {what}: length {got} must equal the factor rank {expected}"
                )
            }
            SnsError::Diverged { engine, detail } => {
                write!(f, "engine {engine} diverged: {detail}")
            }
        }
    }
}

impl std::error::Error for SnsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnsError::BatchAborted { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        assert!(SnsError::OutOfOrder { previous: 5, got: 3 }.to_string().contains('3'));
        assert!(SnsError::OrderMismatch { expected: 2, got: 3 }.to_string().contains('2'));
        assert!(SnsError::OutOfBounds { mode: 1, index: 9, len: 4 }.to_string().contains("mode 1"));
        assert!(SnsError::NonFiniteValue { time: 42 }.to_string().contains("42"));
        let batch = SnsError::OutOfOrder { previous: 7, got: 2 }.aborted_at(11, 30);
        assert!(batch.to_string().contains("11 accepted"));
        assert!(batch.to_string().contains("after 7"));
        let bp = SnsError::Backpressure { stream_id: 1, shard: 2, depth: 4, capacity: 4 };
        assert!(bp.to_string().contains("full"));
        assert!(bp.to_string().contains("shard 2"));
        assert!(bp.to_string().contains("4/4"));
        assert!(SnsError::StreamClosed { stream_id: 8 }.to_string().contains("closed"));
        assert!(SnsError::StreamQuarantined { stream_id: 5, pending: 3 }
            .to_string()
            .contains("3 dead-letter"));
        assert!(SnsError::EngineBuildFailed { stream_id: 1, message: "w=0".into() }
            .to_string()
            .contains("build failed"));
        assert!(SnsError::EnginePanicked { stream_id: 1, message: "boom".into() }
            .to_string()
            .contains("boom"));
        assert!(SnsError::ShardOutOfRange { shard: 7, shards: 4 }.to_string().contains('7'));
        assert!(SnsError::Diverged { engine: "OnlineSCP".into(), detail: "NaN".into() }
            .to_string()
            .contains("OnlineSCP diverged"));
        let codec =
            SnsError::Codec { fault: CodecFault::Truncated, offset: 12, detail: "spec".into() };
        assert!(codec.to_string().contains("truncated") && codec.to_string().contains("12"));
        assert!(SnsError::Io { path: "/tmp/x".into(), message: "denied".into() }
            .to_string()
            .contains("denied"));
        let shape = SnsError::KernelShape { what: "mttkrp_row(out)", expected: 20, got: 19 };
        assert!(shape.to_string().contains("mttkrp_row(out)"));
        assert!(shape.to_string().contains("19") && shape.to_string().contains("20"));
        let internal = SnsError::Internal { detail: "snapshot ticket got Batch reply".into() };
        assert!(internal.to_string().contains("invariant"));
        assert!(internal.to_string().contains("Batch reply"));
    }

    #[test]
    fn codec_faults_display() {
        for fault in [
            CodecFault::Truncated,
            CodecFault::BadMagic,
            CodecFault::UnsupportedVersion,
            CodecFault::Checksum,
            CodecFault::Invalid,
        ] {
            assert!(!fault.to_string().is_empty());
        }
    }

    #[test]
    fn batch_helpers() {
        let inner = SnsError::OutOfOrder { previous: 9, got: 1 };
        let e = inner.clone().aborted_at(3, 12);
        assert_eq!(e.accepted(), Some(3));
        assert_eq!(e.root_cause(), &inner);
        assert_eq!(inner.accepted(), None);
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let e = SnsError::OutOfOrder { previous: 2, got: 1 }.aborted_at(0, 0);
        assert!(e.source().is_some());
        assert!(SnsError::StreamClosed { stream_id: 0 }.source().is_none());
    }
}
