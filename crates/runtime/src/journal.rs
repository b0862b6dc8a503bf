//! The pool's write-ahead-log hook: a sink for accepted stream
//! operations.
//!
//! Durability in this workspace is layered: the runtime knows *what*
//! happened to each stream (which batches were accepted, in which
//! order), while `sns-codec` knows how to make that durable (WAL
//! segments, checkpoints). [`BatchJournal`] is the seam between the two
//! — a pool configured with a journal ([`PoolConfig::journal`]) calls
//! [`BatchJournal::record`] from the shard worker **after** every
//! acknowledged state-changing command, and the sink decides framing,
//! buffering, and fsync policy on its own.
//!
//! ## Contract
//!
//! - `record` is called on the shard worker thread, after the client's
//!   ack has been sent: the client-visible hot path never waits on the
//!   sink, but a slow sink does occupy the worker (pick the fsync
//!   policy accordingly). Calls for one stream arrive in exactly the
//!   order the engine applied the operations. The one exception is a
//!   restore that carries a journal tail: the worker replays the tail,
//!   records each replayed operation (under the restore's ticket, 0),
//!   and only then acknowledges the restore.
//! - `record` is infallible by signature. A sink that hits an I/O error
//!   must swallow it and surface it out of band (a sticky error the
//!   operator polls) — the alternative, failing live traffic because
//!   the *redundancy* layer is sick, is the wrong trade for this
//!   runtime.
//! - Only operations that reached the engine are journaled: batches
//!   diverted to the dead-letter queue, rejected while quarantined, or
//!   rolled back after a panic never call `record` (they did not change
//!   state). A batch that failed part-way with a typed error **is**
//!   journaled in full — the engine applied its accepted prefix, and
//!   deterministic replay of the same tuples reproduces exactly that
//!   prefix (and the same error).
//!
//! ## Sequencing
//!
//! Each journaled operation carries the stream's new **WAL sequence
//! number**: a cumulative count of journaled units (one per tuple for
//! prefill/ingest, one per clock/warm-start op). Counting units rather
//! than batches makes the sequence independent of batch geometry — two
//! runs that feed the same tuple stream through different batch splits
//! agree on every sequence number. Snapshots capture the counter
//! ([`EngineSnapshot::wal_seq`](crate::EngineSnapshot)), so recovery is
//! "restore snapshot, replay journal records with `seq >` the
//! snapshot's": [`EnginePool::recover_all`](crate::EnginePool::recover_all)
//! ships each stream's loader (snapshot and tail) inside its restore,
//! and the shard worker loads both, rebuilds the engine and replays the
//! tail through the same function that rolls a panicked batch group
//! back. Replayed operations are recorded again, so a sink must skip
//! sequence numbers it already holds (the codec's WAL does).
//!
//! [`PoolConfig::journal`]: crate::PoolConfig

use sns_core::als::AlsOptions;
use sns_stream::StreamTuple;

/// One stream operation: what a session submits, what the shard worker
/// applies, what the journal records and what recovery replays — one
/// type from the session to the WAL and back.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Tuples loaded into the window without factor updates.
    Prefill(Vec<StreamTuple>),
    /// Tuples ingested live (with factor updates).
    Ingest(Vec<StreamTuple>),
    /// The stream clock was advanced to this time.
    AdvanceTo(u64),
    /// A batch ALS warm start ran with these options.
    WarmStart(AlsOptions),
}

impl JournalOp {
    /// How many WAL sequence units this operation advances the stream
    /// by: one per tuple for batches, one for clock/warm-start ops.
    pub fn units(&self) -> u64 {
        match self {
            JournalOp::Prefill(tuples) | JournalOp::Ingest(tuples) => tuples.len() as u64,
            JournalOp::AdvanceTo(_) | JournalOp::WarmStart(_) => 1,
        }
    }

    /// Stable lowercase label of the operation kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalOp::Prefill(_) => "prefill",
            JournalOp::Ingest(_) => "ingest",
            JournalOp::AdvanceTo(_) => "advance_to",
            JournalOp::WarmStart(_) => "warm_start",
        }
    }
}

/// One record handed to a [`BatchJournal`]: which stream did what, with
/// its post-operation WAL sequence number and the session ticket that
/// acknowledged it.
#[derive(Debug, Clone, Copy)]
pub struct JournalEntry<'a> {
    /// The stream the operation was applied to.
    pub stream_id: u64,
    /// The stream's WAL sequence **after** this operation (cumulative
    /// journaled units; see the module docs).
    pub seq: u64,
    /// The session ticket the operation was acknowledged under
    /// (diagnostic — tickets restart per session, `seq` is the replay
    /// cursor).
    pub ticket: u64,
    /// The operation itself.
    pub op: &'a JournalOp,
}

/// A sink for accepted stream operations — the write-ahead-log hook the
/// pool's shard workers call after each ack. See the module docs for
/// the calling contract.
pub trait BatchJournal: Send + Sync {
    /// Records one accepted operation. Must not panic; must not fail
    /// (sticky-error internally instead).
    fn record(&self, entry: JournalEntry<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_count_tuples_for_batches_and_one_for_clock_ops() {
        let tuples = vec![
            StreamTuple::new([0u32, 0], 1.0, 0),
            StreamTuple::new([1u32, 1], 2.0, 1),
            StreamTuple::new([2u32, 2], 3.0, 2),
        ];
        assert_eq!(JournalOp::Prefill(tuples.clone()).units(), 3);
        assert_eq!(JournalOp::Ingest(tuples[..1].to_vec()).units(), 1);
        assert_eq!(JournalOp::AdvanceTo(99).units(), 1);
        assert_eq!(JournalOp::WarmStart(AlsOptions::default()).units(), 1);
    }

    #[test]
    fn kinds_are_distinct() {
        let ops = [
            JournalOp::Prefill(Vec::new()),
            JournalOp::Ingest(Vec::new()),
            JournalOp::AdvanceTo(0),
            JournalOp::WarmStart(AlsOptions::default()),
        ];
        let mut kinds: Vec<_> = ops.iter().map(|o| o.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 4);
    }
}
