//! A sharded multi-stream runtime: many independent tensor streams, one
//! process, `N` worker threads, session-based clients.
//!
//! ## Model
//!
//! Every stream (a tenant's sensor feed, one city's traffic matrix, …)
//! is an independent [`StreamingCpd`] engine identified by a `u64`
//! stream id. [`EnginePool::open`] pins the id to one worker thread
//! (`shard = hash(id) % workers`), builds its engine *on* that worker
//! from a declarative [`EngineSpec`], and hands back a [`StreamSession`]
//! — the only way to talk to the stream:
//!
//! - commands for one stream execute **in submission order** on one
//!   thread — no locks around engine state; different streams proceed
//!   **concurrently** across workers;
//! - every shard's command queue is **bounded**
//!   ([`PoolConfig::queue_depth`]): [`StreamSession::ingest_batch`]
//!   blocks when the shard is saturated, and
//!   [`StreamSession::try_ingest_batch`] surfaces
//!   [`SnsError::Backpressure`] instead;
//! - ingestion is **batched** and **acknowledged**: each batch yields a
//!   [`BatchReceipt`] reporting tuples accepted and factor updates
//!   applied, and failures are typed [`SnsError`]s carrying how far the
//!   batch got;
//! - every stream operation is one [`JournalOp`], from the session's
//!   command to the journal record; a shard worker applies consecutively
//!   queued batches of one stream as a group under one rollback capture,
//!   bitwise-identical to per-batch execution;
//! - a live stream can **migrate**: [`StreamSession::snapshot`] captures
//!   the complete engine state ([`EngineSnapshot`]) and
//!   [`EnginePool::restore`] resumes it on any shard (or another pool),
//!   bitwise-identically; [`EnginePool::recover_all`] loads each stream
//!   and replays its journal tail on the stream's own worker;
//! - failures stay **per-stream**: an engine error is returned on that
//!   batch's receipt and recorded in the stream's [`StreamReport`]; an
//!   engine that *panics* is quarantined while every other stream on the
//!   shard keeps running.
//!
//! ## Determinism contract
//!
//! A stream's engine is built from `spec.build(seed)` with
//! `seed = `[`stream_seed`]`(base_seed, id)` — a pure function,
//! independent of shard count and worker scheduling. A serial reference
//! run that builds its engines from the same specs and derived seeds
//! reproduces pooled results exactly, batched or not (see
//! `tests/engine_pool.rs`).

use crate::anomaly::AnomalySummary;
use crate::journal::{BatchJournal, JournalEntry, JournalOp};
use crate::ops::{PoolDeadLetter, PoolOps, QuarantinePolicy};
use crate::snapshot::{EngineSnapshot, EngineState};
use crate::spec::EngineSpec;
use crate::streaming::{BatchOutcome, StreamingCpd};
use sns_core::als::AlsOptions;
use sns_error::CodecFault;
use sns_ops::{EvictReason, PoolEvent, QuarantinedOp, StreamMetrics};
use sns_stream::{SnsError, StreamTuple};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::mpsc::{TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool sizing, seeding, and flow control.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker (shard) count. Streams are hashed across workers.
    pub shards: usize,
    /// Base seed that per-stream seeds are derived from.
    pub base_seed: u64,
    /// Bound of each shard's command queue, in commands. Sessions block
    /// ([`StreamSession::ingest_batch`]) or see
    /// [`SnsError::Backpressure`] ([`StreamSession::try_ingest_batch`])
    /// once their shard has this many commands in flight.
    pub queue_depth: usize,
    /// Ring capacity of the lifecycle event bus
    /// ([`EnginePool::ops`]`().bus()`), in events. Slow subscribers lag
    /// (drop-oldest) past this bound; publishers never block.
    pub bus_capacity: usize,
    /// What happens to a stream whose batch panics its engine — see
    /// [`QuarantinePolicy`].
    pub quarantine: QuarantinePolicy,
    /// Write-ahead-log sink: shard workers call [`BatchJournal::record`]
    /// after every acknowledged state-changing command and stamp snapshots
    /// with the stream's WAL sequence (see [`crate::journal`]). `None`
    /// (the default) costs nothing.
    pub journal: Option<Arc<dyn BatchJournal>>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
        PoolConfig {
            shards,
            base_seed: 0x5eed,
            queue_depth: 512,
            bus_capacity: 1024,
            quarantine: QuarantinePolicy::Rollback,
            journal: None,
        }
    }
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolConfig")
            .field("shards", &self.shards)
            .field("base_seed", &self.base_seed)
            .field("queue_depth", &self.queue_depth)
            .field("bus_capacity", &self.bus_capacity)
            .field("quarantine", &self.quarantine)
            .field("journal", &self.journal.as_ref().map(|_| "attached"))
            .finish()
    }
}

/// Deterministic per-stream seed: a SplitMix64 mix of the pool's base
/// seed and the stream id. Pure — independent of shard count, worker
/// scheduling, and stream open order.
pub fn stream_seed(base_seed: u64, stream_id: u64) -> u64 {
    let mut z = base_seed ^ stream_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a pool-level checkpoint yields: per stream id, either its
/// captured snapshot or the typed error that stream produced instead.
pub type CheckpointResults = Vec<(u64, Result<EngineSnapshot, SnsError>)>;

/// Acknowledgment for one session command: what the engine actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a receipt is the only acknowledgment a batch gets; check it"]
pub struct BatchReceipt {
    /// The stream the batch went to.
    pub stream_id: u64,
    /// The session-local ticket this receipt acknowledges (the value
    /// [`StreamSession::try_ingest_batch`] returned).
    pub ticket: u64,
    /// Tuples accepted by the engine.
    pub accepted: usize,
    /// Factor updates the batch triggered (events for continuous
    /// engines, periods for baselines).
    pub updates: u64,
    /// Enqueue→ack latency as observed by the session: from the moment
    /// the command entered the shard queue to the moment the session
    /// pulled this receipt. Stamped session-side; also recorded into the
    /// stream's latency histogram
    /// ([`EnginePool::ops`]`().metrics()`).
    pub latency: Duration,
}

/// Snapshot of one stream's model health, produced on its worker.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The stream id the report describes.
    pub stream_id: u64,
    /// Engine display name.
    pub name: String,
    /// Fitness against the stream's current window.
    pub fitness: f64,
    /// Factor updates applied so far.
    pub updates_applied: u64,
    /// Model parameter count.
    pub num_parameters: usize,
    /// Whether the model diverged.
    pub diverged: bool,
    /// Anomaly roll-up, when the stream's engine scores its input (an
    /// [`AnomalyCpd`](crate::anomaly::AnomalyCpd) decoration).
    pub anomalies: Option<AnomalySummary>,
    /// First command error observed on this stream, if any.
    pub error: Option<SnsError>,
}

/// The addressing every per-stream command carries: the stream, the
/// session epoch its slot must match (`token`), the session-local
/// ticket the reply answers, and the instant the session enqueued it.
/// The worker sends the head back on the reply, so each receipt is
/// stamped from its own reply.
#[derive(Clone, Copy)]
struct Head {
    id: u64,
    token: u64,
    ticket: u64,
    at: Instant,
}

enum Command {
    Open {
        head: Head,
        seed: u64,
        spec: EngineSpec,
        replies: Sender<SessionReply>,
    },
    /// Installs the snapshot `load` yields, first replaying the journal
    /// tail (possibly empty) it yields with it — see [`loaded`], [`rebuild`].
    Restore {
        head: Head,
        load: Loader,
        replies: Sender<SessionReply>,
    },
    /// One stream operation: a tuple batch (coalesced, see
    /// [`Worker::apply_group`]) or a control op ([`Worker::control`]).
    Apply {
        head: Head,
        op: JournalOp,
    },
    Report(Head),
    Snapshot(Head),
    Close(Head),
    /// Lifts a stream's quarantine and clears its sticky error; sent by
    /// [`StreamSession::replay_quarantined`] *before* the re-driven
    /// batches (FIFO). A dark slot (no engine) answers with its sticky
    /// error instead.
    Release(Head),
    /// Pool-wide checkpoint: snapshot every live slot on this shard (after
    /// the commands enqueued before it) and reply on a dedicated channel.
    CheckpointShard(Sender<CheckpointResults>),
    /// Unconditional slot removal (any token), sent by open/restore to the
    /// id's previous owner shard so the id lives on at most one shard. The
    /// per-stream ownership lock enqueues it after the install that made
    /// that shard the owner, so it never removes a newer slot.
    Evict(u64),
    Shutdown,
}

/// A batch acknowledgment as the session receives it.
type Receipt = Result<BatchReceipt, SnsError>;

enum ReplyBody {
    Receipt(Receipt),
    Report(Box<StreamReport>),
    Snapshot(Box<Result<EngineSnapshot, SnsError>>),
}

struct SessionReply {
    head: Head,
    body: ReplyBody,
}

fn mismatched_reply() -> SnsError {
    SnsError::Internal { detail: "a command was answered with the wrong reply kind".to_string() }
}

fn into_receipt(body: ReplyBody) -> Receipt {
    match body {
        ReplyBody::Receipt(r) => r,
        _ => Err(mismatched_reply()),
    }
}

/// The outcome of a command that applies no tuples.
const NOTHING: BatchOutcome = BatchOutcome { accepted: 0, updates: 0 };

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string())
}

/// Runs an engine constructor, a snapshot loader or a rebuild: a panic
/// becomes [`SnsError::EngineBuildFailed`] instead of killing the worker.
fn guarded<T>(stream_id: u64, f: impl FnOnce() -> Result<T, SnsError>) -> Result<T, SnsError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(SnsError::EngineBuildFailed { stream_id, message: panic_message(payload) })
    })
}

/// What a `Restore` installs: a stream's snapshot and journal tail,
/// loaded on the stream's worker so every shard decodes at once.
type Loader = Box<dyn FnOnce() -> Loaded + Send>;
type Loaded = Result<(EngineSnapshot, Vec<JournalOp>), SnsError>;

/// Runs a `Restore`'s loader under [`guarded`] and checks that it
/// yielded the stream it was sent for.
fn loaded(stream_id: u64, load: Loader) -> Loaded {
    let (snapshot, tail) = guarded(stream_id, load)?;
    if snapshot.stream_id != stream_id {
        let detail = format!("restore of stream {stream_id} loaded stream {}", snapshot.stream_id);
        return Err(SnsError::Codec { fault: CodecFault::Invalid, offset: 0, detail });
    }
    Ok((snapshot, tail))
}

/// Applies one operation to an engine: the only place the pool turns a
/// [`JournalOp`] into engine calls.
fn apply(engine: &mut dyn StreamingCpd, op: &JournalOp) -> Result<BatchOutcome, SnsError> {
    match op {
        JournalOp::Prefill(tuples) => {
            engine.prefill_all(tuples).map(|accepted| BatchOutcome { accepted, updates: 0 })
        }
        JournalOp::Ingest(tuples) => engine.ingest_all(tuples),
        JournalOp::AdvanceTo(t) => {
            Ok(BatchOutcome { accepted: 0, updates: engine.advance_to(*t) as u64 })
        }
        JournalOp::WarmStart(opts) => {
            engine.warm_start(opts);
            Ok(NOTHING)
        }
    }
}

/// Whether `op` is a tuple batch (coalesced, dead-lettered) rather than
/// a clock or warm-start op.
fn is_batch(op: &JournalOp) -> bool {
    matches!(op, JournalOp::Prefill(_) | JournalOp::Ingest(_))
}

/// One applied operation's outcome and the engine's flagged-anomaly
/// counter after it.
type Applied = (Result<BatchOutcome, SnsError>, Option<u64>);

/// The pool's one rebuild path: a captured `state` plus the operations
/// applied since it was captured, in order. Engines are deterministic,
/// so the result is bitwise the engine those operations left behind.
/// It rolls a panicked batch group back (the group's capture plus its
/// completed segments) and installs a `Restore` (a snapshot plus its
/// journal tail). A state that does not rebuild fails typed; a panic
/// anywhere fails with [`SnsError::EngineBuildFailed`].
fn rebuild<'a>(
    stream_id: u64,
    state: EngineState,
    ops: impl IntoIterator<Item = &'a JournalOp>,
) -> Result<(Box<dyn StreamingCpd>, Vec<Applied>), SnsError> {
    guarded(stream_id, || {
        let mut engine = state.into_engine()?;
        let mut outcomes = Vec::new();
        for op in ops {
            let outcome = apply(engine.as_mut(), op);
            outcomes.push((outcome, engine.anomalies().map(|a| a.flagged)));
        }
        Ok((engine, outcomes))
    })
}

struct StreamSlot {
    id: u64,
    name: String,
    /// Session epoch: commands from a replaced (stale) session carry an
    /// older token and are dropped instead of mutating the new engine.
    token: u64,
    spec: EngineSpec,
    seed: u64,
    /// `None` when the engine failed to build or a panic could not be
    /// rolled back ([`QuarantinePolicy::Disabled`], or no snapshot
    /// support); the slot is then *dark* and keeps reporting the error.
    engine: Option<Box<dyn StreamingCpd>>,
    error: Option<SnsError>,
    /// Set when a batch panicked and the engine was rolled back: batches
    /// divert to the dead-letter queue until a `Release` arrives.
    quarantined: bool,
    /// High-water mark of the engine's flagged-anomaly counter, for
    /// edge-triggered [`PoolEvent::AnomalyFlagged`] events.
    last_flagged: u64,
    /// Cumulative WAL sequence (journaled units — see [`crate::journal`]);
    /// journal-less pools snapshot `wal_seq == 0` everywhere.
    wal_seq: u64,
    metrics: Arc<StreamMetrics>,
    replies: Sender<SessionReply>,
}

impl StreamSlot {
    /// A slot for a built (`Open`) or restored (`Restore`) engine; an
    /// `Err` engine (a failed build) makes the slot dark from the start.
    fn new(
        w: &Worker,
        head: Head,
        spec: EngineSpec,
        seed: u64,
        engine: Result<Box<dyn StreamingCpd>, SnsError>,
        wal_seq: u64,
        replies: Sender<SessionReply>,
    ) -> Self {
        let metrics = w.ops.metrics().stream(head.id);
        metrics.shard.store(w.shard, Ordering::Relaxed);
        let (error, engine) = (engine.as_ref().err().cloned(), engine.ok());
        StreamSlot {
            id: head.id,
            name: engine.as_ref().map_or_else(String::new, |e| e.name()),
            token: head.token,
            spec,
            seed,
            engine,
            error,
            quarantined: false,
            last_flagged: 0,
            wal_seq,
            metrics,
            replies,
        }
    }

    /// Runs an engine command with panic isolation: an `Err` is recorded
    /// (the first) and passed through; a *panic* drops (quarantines) the
    /// engine and is recorded — the worker, its other streams and the
    /// calling session all survive.
    fn guard<T>(
        &mut self,
        f: impl FnOnce(&mut dyn StreamingCpd) -> Result<T, SnsError>,
    ) -> Result<T, SnsError> {
        let Some(engine) = self.engine.as_mut() else {
            return Err(self.dark_error());
        };
        match catch_unwind(AssertUnwindSafe(|| f(engine.as_mut()))) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => {
                self.error.get_or_insert(e.clone());
                Err(e)
            }
            Err(payload) => {
                let e = SnsError::EnginePanicked {
                    stream_id: self.id,
                    message: panic_message(payload),
                };
                self.error.get_or_insert(e.clone());
                self.engine = None;
                Err(e)
            }
        }
    }

    /// What a dark slot answers with: its sticky error, or
    /// `StreamClosed` if it never recorded one.
    fn dark_error(&self) -> SnsError {
        self.error.clone().unwrap_or(SnsError::StreamClosed { stream_id: self.id })
    }

    /// Sends a reply; the session may have hung up.
    fn reply(&self, head: Head, body: ReplyBody) {
        let _ = self.replies.send(SessionReply { head, body });
    }

    /// Sends a batch acknowledgment. Latency is stamped session-side
    /// when the receipt is pulled.
    fn acknowledge(&self, head: Head, outcome: Result<BatchOutcome, SnsError>) {
        let receipt = outcome.map(|o| BatchReceipt {
            stream_id: self.id,
            ticket: head.ticket,
            accepted: o.accepted,
            updates: o.updates,
            latency: Duration::ZERO,
        });
        self.reply(head, ReplyBody::Receipt(receipt));
    }

    fn report(&mut self) -> StreamReport {
        let health = |e: &mut dyn StreamingCpd| {
            Ok((e.fitness(), e.updates_applied(), e.num_parameters(), e.diverged(), e.anomalies()))
        };
        let (fitness, updates_applied, num_parameters, diverged, anomalies) =
            self.guard(health).unwrap_or((f64::NAN, 0, 0, false, None));
        StreamReport {
            stream_id: self.id,
            name: self.name.clone(),
            fitness,
            updates_applied,
            num_parameters,
            diverged,
            anomalies,
            error: self.error.clone(),
        }
    }

    /// Captures the slot for `Snapshot` and `CheckpointShard`.
    /// Deliberately not `guard`ed: a failed capture (a slot gone dark
    /// after a panic) must not be recorded as a second stream error.
    fn capture(&self) -> Result<EngineSnapshot, SnsError> {
        let engine = self.engine.as_ref().ok_or_else(|| self.dark_error())?;
        engine.snapshot().map(|state| EngineSnapshot {
            stream_id: self.id,
            spec: self.spec.clone(),
            seed: self.seed,
            wal_seq: self.wal_seq,
            state,
        })
    }
}

/// A shard worker's fixed context: everything its commands need besides
/// the stream slots.
struct Worker {
    shard: usize,
    ops: PoolOps,
    policy: QuarantinePolicy,
    journal: Option<Arc<dyn BatchJournal>>,
}

impl Worker {
    fn publish(&self, event: PoolEvent) {
        if self.ops.bus().has_subscribers() {
            self.ops.bus().publish(event);
        }
    }

    fn evicted(&self, id: u64, reason: EvictReason) {
        self.publish(PoolEvent::StreamEvicted { stream_id: id, shard: self.shard, reason });
    }

    /// Installs an `Open`/`Restore` slot: acknowledges it (with its build
    /// error, if it is dark), replaces any previous slot of the id, and
    /// publishes `event`.
    fn install(
        &self,
        slots: &mut HashMap<u64, StreamSlot>,
        head: Head,
        slot: StreamSlot,
        event: Option<PoolEvent>,
    ) {
        let id = slot.id;
        let ack = slot.engine.as_ref().map(|_| NOTHING).ok_or_else(|| slot.dark_error());
        slot.acknowledge(head, ack);
        if slots.insert(id, slot).is_some() {
            self.evicted(id, EvictReason::Replaced);
        }
        if let Some(event) = event {
            self.publish(event);
        }
    }

    /// Loads, rebuilds and replays a `Restore`d stream. Replayed outcomes
    /// are counted and journaled but not acknowledged (a typed error
    /// reproduces the one the first run acknowledged).
    fn restore(
        &self,
        head: Head,
        load: Loader,
        replies: &Sender<SessionReply>,
    ) -> Result<StreamSlot, SnsError> {
        let (EngineSnapshot { spec, seed, state, wal_seq, .. }, tail) = loaded(head.id, load)?;
        let (engine, replayed) = rebuild(head.id, state, &tail)?;
        let mut s = StreamSlot::new(self, head, spec, seed, Ok(engine), wal_seq, replies.clone());
        for (op, applied) in tail.iter().zip(&replayed) {
            if is_batch(op) {
                self.tally(&mut s, applied);
            }
            self.record(&mut s, head.ticket, op);
        }
        Ok(s)
    }

    /// Applies a coalesced group of tuple batches ("segments", prefill or
    /// ingest) for one stream — the pool's only batch path; a lone batch
    /// is a group of one. Segments run one after another through the
    /// engine's own `prefill_all`/`ingest_all`, so the per-tuple update
    /// order — and the RNG draw order the `_RND` families depend on — is
    /// untouched and results stay **bitwise** equal to per-batch (and
    /// serial) execution. Each segment is acknowledged and journaled as
    /// soon as it completes; grouping amortizes the slot lookup and the
    /// rollback capture, one per group.
    ///
    /// Segments the slot cannot apply (quarantined or dark) go to
    /// [`Worker::reject`]. A panic at segment `k` [`rebuild`]s the engine
    /// from the group's pre-state and the `k` completed segments (the
    /// state per-batch execution leaves), quarantines the stream, and
    /// diverts segment `k` to the DLQ; the remainder is refused like any
    /// batch arriving after the panic. Applied segments keep their
    /// buffers in `group` (a rollback may re-apply them).
    fn apply_group(&self, s: &mut StreamSlot, group: &mut [(Head, JournalOp)]) {
        let mut pre = match (&s.engine, self.policy) {
            (Some(engine), QuarantinePolicy::Rollback) if !s.quarantined => engine.snapshot().ok(),
            _ => None,
        };
        for k in 0..group.len() {
            let (head, op) = (group[k].0, &mut group[k].1);
            let Some(engine) = s.engine.as_mut().filter(|_| !s.quarantined) else {
                self.reject(s, head, op);
                continue;
            };
            // The anomaly counter is read after every segment so the
            // edge-triggered AnomalyFlagged events match per-batch runs.
            let applied = catch_unwind(AssertUnwindSafe(|| {
                let outcome = apply(engine.as_mut(), op);
                (outcome, engine.anomalies().map(|a| a.flagged))
            }));
            match applied {
                Ok(applied) => {
                    self.tally(s, &applied);
                    s.acknowledge(head, applied.0);
                    // A typed error is journaled in full too: the engine
                    // applied the accepted prefix, and deterministic
                    // replay of the same tuples reproduces exactly that
                    // prefix (and error).
                    self.record(s, head.ticket, op);
                }
                Err(payload) => {
                    self.ops.metrics().shard(self.shard).panics.fetch_add(1, Ordering::Relaxed);
                    s.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let e = SnsError::EnginePanicked {
                        stream_id: s.id,
                        message: panic_message(payload),
                    };
                    s.error.get_or_insert(e.clone());
                    self.divert(s, head.ticket, op, e.clone());
                    // The completed prefix's outcomes are already
                    // reported and not re-reported. Without a pre-group
                    // capture, or if the rebuild fails, the engine state
                    // is untrustworthy and the slot goes dark.
                    let prefix = group[..k].iter().map(|(_, op)| op);
                    let rolled_back = pre.take().map(|state| rebuild(s.id, state, prefix));
                    s.engine = rolled_back.and_then(Result::ok).map(|(engine, _)| engine);
                    s.quarantined = s.engine.is_some();
                    s.acknowledge(head, Err(e));
                }
            }
        }
    }

    /// Accounts one applied tuple batch: the stream's batch, tuple,
    /// update and error counters, its sticky error, and an
    /// edge-triggered [`PoolEvent::AnomalyFlagged`] when the engine's
    /// flagged counter rose.
    fn tally(&self, s: &mut StreamSlot, (outcome, flagged): &Applied) {
        let o = match outcome {
            Ok(o) => o,
            Err(e) => {
                s.metrics.errors.fetch_add(1, Ordering::Relaxed);
                s.error.get_or_insert(e.clone());
                return;
            }
        };
        s.metrics.batches.fetch_add(1, Ordering::Relaxed);
        s.metrics.tuples.fetch_add(o.accepted as u64, Ordering::Relaxed);
        s.metrics.updates.fetch_add(o.updates, Ordering::Relaxed);
        if let Some(flagged) = flagged.filter(|&f| f > s.last_flagged) {
            s.last_flagged = flagged;
            self.publish(PoolEvent::AnomalyFlagged { stream_id: s.id, shard: self.shard, flagged });
        }
    }

    /// Refuses a batch the slot cannot apply. A quarantined stream
    /// diverts it to the dead-letter queue behind the batch that
    /// panicked, keeping the stream's chronology for the replay; a dark
    /// slot drops the batch and acknowledges with the sticky error.
    fn reject(&self, s: &StreamSlot, head: Head, op: &mut JournalOp) {
        if s.quarantined {
            let pending = self.ops.dlq().pending(s.id) + 1;
            let err = SnsError::StreamQuarantined { stream_id: s.id, pending };
            self.divert(s, head.ticket, op, err.clone());
            s.acknowledge(head, Err(err));
        } else {
            s.acknowledge(head, Err(s.dark_error()));
        }
    }

    /// Moves a batch's tuples to the dead-letter queue and publishes the
    /// quarantine event.
    fn divert(&self, s: &StreamSlot, ticket: u64, op: &mut JournalOp, error: SnsError) {
        let (kind, tuples) = match op {
            JournalOp::Prefill(tuples) => (QuarantinedOp::Prefill, std::mem::take(tuples)),
            JournalOp::Ingest(tuples) => (QuarantinedOp::Ingest, std::mem::take(tuples)),
            // Only tuple batches are grouped, hence diverted.
            JournalOp::AdvanceTo(_) | JournalOp::WarmStart(_) => return,
        };
        let count = tuples.len();
        self.ops.dlq().quarantine(s.id, self.shard, ticket, kind, tuples, error, s.spec.clone());
        s.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
        self.publish(PoolEvent::TupleQuarantined {
            stream_id: s.id,
            shard: self.shard,
            ticket,
            tuples: count,
        });
    }

    /// Runs a control op (warm start, clock advance). It is refused
    /// while the stream is quarantined: a warm start would bake the
    /// missing batches into the factors, and a clock advance would
    /// desynchronize their replay chronology. Otherwise it is guarded,
    /// acknowledged, and journaled once applied.
    fn control(&self, s: &mut StreamSlot, head: Head, op: &JournalOp) {
        let outcome = if s.quarantined {
            let pending = self.ops.dlq().pending(s.id);
            Err(SnsError::StreamQuarantined { stream_id: s.id, pending })
        } else {
            s.guard(|e| apply(e, op))
        };
        if outcome.is_err() {
            s.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let applied = outcome.is_ok();
        s.acknowledge(head, outcome);
        if applied {
            self.record(s, head.ticket, op);
        }
    }

    /// Journals an operation that reached the engine (called **after** the
    /// ack) and publishes the matching [`PoolEvent::BatchApplied`] event.
    /// A no-op on journal-less pools and for empty batches (they change
    /// no state and carry no sequence).
    fn record(&self, s: &mut StreamSlot, ticket: u64, op: &JournalOp) {
        let Some(journal) = &self.journal else { return };
        let units = op.units();
        if units == 0 {
            return;
        }
        s.wal_seq += units;
        journal.record(JournalEntry { stream_id: s.id, seq: s.wal_seq, ticket, op });
        let (shard, seq) = (self.shard, s.wal_seq);
        self.publish(PoolEvent::BatchApplied { stream_id: s.id, shard, units, seq });
    }
}

/// Passes a send's result through, counting a command that entered
/// `shard`'s queue into its queue-depth gauge (the worker decrements on
/// receive, so the gauge reads commands in flight).
fn enqueued<E>(ops: &PoolOps, shard: usize, sent: Result<(), E>) -> Result<(), E> {
    if sent.is_ok() {
        ops.metrics().shard(shard).queue_depth.fetch_add(1, Ordering::Relaxed);
    }
    sent
}

fn worker_loop(w: Worker, rx: Receiver<Command>) {
    let mut slots: HashMap<u64, StreamSlot> = HashMap::new();
    // Commands from a replaced session (stale token) are dropped: the
    // stale session's reply channel is already disconnected, so its
    // blocked calls observe `StreamClosed` rather than hanging.
    fn live(slots: &mut HashMap<u64, StreamSlot>, head: Head) -> Option<&mut StreamSlot> {
        slots.get_mut(&head.id).filter(|s| s.token == head.token)
    }
    let shard_metrics = w.ops.metrics().shard(w.shard);
    // A command pulled while coalescing a batch group that belongs to a
    // different stream/kind; processed (already counted) next turn.
    let mut carry: Option<Command> = None;
    // Reusable scratch for coalesced batch groups.
    let mut group: Vec<(Head, JournalOp)> = Vec::new();
    loop {
        let cmd = match carry.take() {
            Some(cmd) => cmd,
            None => {
                let Ok(cmd) = rx.recv() else { break };
                shard_metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                shard_metrics.commands.fetch_add(1, Ordering::Relaxed);
                cmd
            }
        };
        match cmd {
            Command::Open { head, seed, spec, replies } => {
                let effective = spec.effective_seed(seed);
                let built = guarded(head.id, || Ok(spec.build(seed)));
                let slot = StreamSlot::new(&w, head, spec, effective, built, 0, replies);
                let opened = slot.engine.as_ref().map(|_| PoolEvent::StreamOpened {
                    stream_id: head.id,
                    shard: w.shard,
                    engine: slot.name.clone(),
                });
                w.install(&mut slots, head, slot, opened);
            }
            Command::Restore { head, load, replies } => match w.restore(head, load, &replies) {
                Ok(s) => {
                    let migrated = PoolEvent::StreamMigrated { stream_id: head.id, shard: w.shard };
                    w.install(&mut slots, head, s, Some(migrated));
                }
                // A load that fails, an inconsistent snapshot, or a tail
                // that panics installs nothing; the caller sees the error.
                Err(e) => {
                    drop(replies.send(SessionReply { head, body: ReplyBody::Receipt(Err(e)) }))
                }
            },
            Command::Apply { head, op } if !is_batch(&op) => {
                if let Some(s) = live(&mut slots, head) {
                    w.control(s, head, &op);
                }
            }
            Command::Apply { head, op } => {
                // Coalesce: drain every already-queued consecutive batch
                // of the same session in this one channel acquisition
                // run and apply them as a single group. The first other
                // command (another stream's, or a control op) is carried
                // into the next loop turn, preserving global submission
                // order.
                group.push((head, op));
                while carry.is_none() {
                    match rx.try_recv() {
                        Ok(Command::Apply { head: next, op })
                            if is_batch(&op) && next.id == head.id && next.token == head.token =>
                        {
                            group.push((next, op));
                        }
                        Ok(other) => carry = Some(other),
                        Err(_) => break,
                    }
                }
                let drained = (group.len() - 1 + usize::from(carry.is_some())) as u64;
                if drained > 0 {
                    shard_metrics.queue_depth.fetch_sub(drained as i64, Ordering::Relaxed);
                    shard_metrics.commands.fetch_add(drained, Ordering::Relaxed);
                }
                shard_metrics.ingest_groups.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = live(&mut slots, head) {
                    w.apply_group(s, &mut group);
                }
                // Drops the group's buffers, a stale session's included.
                group.clear();
            }
            Command::Release(head) => {
                if let Some(s) = live(&mut slots, head) {
                    let outcome = if s.engine.is_some() {
                        s.quarantined = false;
                        s.error = None;
                        Ok(NOTHING)
                    } else {
                        Err(s.dark_error())
                    };
                    s.acknowledge(head, outcome);
                }
            }
            Command::Report(head) => {
                if let Some(s) = live(&mut slots, head) {
                    let report = Box::new(s.report());
                    s.reply(head, ReplyBody::Report(report));
                }
            }
            Command::Snapshot(head) => {
                if let Some(s) = live(&mut slots, head) {
                    s.reply(head, ReplyBody::Snapshot(Box::new(s.capture())));
                }
            }
            Command::Close(head) => {
                if live(&mut slots, head).is_some() {
                    slots.remove(&head.id);
                    w.evicted(head.id, EvictReason::Closed);
                }
            }
            Command::CheckpointShard(replies) => {
                let out = slots.iter().map(|(&id, s)| (id, s.capture())).collect();
                shard_metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
                let _ = replies.send(out);
            }
            Command::Evict(id) => {
                if slots.remove(&id).is_some() {
                    w.evicted(id, EvictReason::Evicted);
                }
            }
            Command::Shutdown => break,
        }
    }
}

/// Shards many independent [`StreamingCpd`] streams across worker
/// threads behind bounded queues. See the module docs for the threading,
/// flow-control, and determinism model.
pub struct EnginePool {
    senders: Vec<SyncSender<Command>>,
    workers: Vec<JoinHandle<()>>,
    base_seed: u64,
    queue_depth: usize,
    next_token: AtomicU64,
    ops: PoolOps,
    /// Which shard owns each stream id, if any. The outer lock guards map
    /// shape only and is never held across a send; the per-stream cell
    /// serializes claim + evict + install (see [`EnginePool::enqueue_session`]).
    /// Entries outlive a close: an `Evict` to a shard without the slot is
    /// a no-op.
    owners: Mutex<HashMap<u64, Arc<Mutex<Option<usize>>>>>,
}

impl EnginePool {
    /// Spawns the worker threads.
    pub fn new(cfg: PoolConfig) -> Self {
        let shards = cfg.shards.max(1);
        let queue_depth = cfg.queue_depth.max(1);
        let ops = PoolOps::new(shards, queue_depth, cfg.bus_capacity.max(1));
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = sync_channel::<Command>(queue_depth);
            let worker = Worker {
                shard: i,
                ops: ops.clone(),
                policy: cfg.quarantine,
                journal: cfg.journal.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("sns-pool-{i}"))
                .spawn(move || worker_loop(worker, rx))
                .expect("spawn engine pool worker");
            senders.push(tx);
            workers.push(handle);
        }
        EnginePool {
            senders,
            workers,
            base_seed: cfg.base_seed,
            queue_depth,
            next_token: AtomicU64::new(0),
            ops,
            owners: Mutex::new(HashMap::new()),
        }
    }

    /// Number of worker threads.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The pool's operability surface: lifecycle event bus, metrics
    /// registry (per-stream counters + latency histograms, per-shard
    /// queue gauges), and the dead-letter queue of quarantined batches.
    pub fn ops(&self) -> &PoolOps {
        &self.ops
    }

    /// Enqueues `cmd` on `shard`, blocking for queue space; `false` if
    /// the worker is gone.
    fn send(&self, shard: usize, cmd: Command) -> bool {
        enqueued(&self.ops, shard, self.senders[shard].send(cmd)).is_ok()
    }

    /// Which worker serves a stream id (stable for the pool's lifetime).
    pub fn shard_of(&self, stream_id: u64) -> usize {
        // Re-mix so adjacent ids spread across shards.
        (stream_seed(0, stream_id) % self.senders.len() as u64) as usize
    }

    /// Opens a stream: the engine described by `spec` is built on the
    /// stream's worker with the deterministic seed
    /// [`stream_seed`]`(base_seed, id)` (unless the spec pins one) and a
    /// [`StreamSession`] for it is returned. Blocks until the engine is
    /// built; a constructor panic surfaces as
    /// [`SnsError::EngineBuildFailed`].
    ///
    /// Re-opening an id replaces the previous engine and invalidates the
    /// previous session (its calls return [`SnsError::StreamClosed`]).
    pub fn open(&self, stream_id: u64, spec: EngineSpec) -> Result<StreamSession, SnsError> {
        let shard = self.shard_of(stream_id);
        let seed = stream_seed(self.base_seed, stream_id);
        self.enqueue_session(stream_id, shard, |head, replies, _| {
            Ok(Command::Open { head, seed, spec, replies })
        })
        .and_then(Self::installed)
    }

    /// Resumes a snapshotted stream on an explicit shard — possibly of a
    /// different pool — continuing bitwise-identically from the captured
    /// state. Blocks until the stream is installed.
    ///
    /// Restoring over a still-open session of the same id replaces it,
    /// exactly like [`EnginePool::open`]. A snapshot that does not
    /// rebuild into an engine fails typed and leaves that session
    /// untouched.
    pub fn restore(
        &self,
        snapshot: EngineSnapshot,
        shard: usize,
    ) -> Result<StreamSession, SnsError> {
        if shard >= self.senders.len() {
            return Err(SnsError::ShardOutOfRange { shard, shards: self.senders.len() });
        }
        let id = snapshot.stream_id;
        self.enqueue_restore(id, shard, Box::new(move || Ok((snapshot, Vec::new()))))
            .and_then(Self::installed)
    }

    /// [`EnginePool::enqueue_session`] for a `Restore`. The `Evict` of a
    /// moving restore would destroy the engine on the old shard before the
    /// new one could refuse an invalid snapshot, so that one is loaded and
    /// checked here by a throwaway rebuild; elsewhere the worker does it.
    fn enqueue_restore(
        &self,
        stream_id: u64,
        shard: usize,
        load: Loader,
    ) -> Result<StreamSession, SnsError> {
        self.enqueue_session(stream_id, shard, |head, replies, moving| {
            let load = if moving {
                let (snapshot, tail) = loaded(stream_id, load)?;
                snapshot.state.clone().into_engine()?;
                Box::new(move || Ok((snapshot, tail)))
            } else {
                load
            };
            Ok(Command::Restore { head, load, replies })
        })
    }

    /// The first half of opening a session: claims `stream_id` for
    /// `shard`, evicts it from its previous owner, and enqueues the
    /// install command `make` builds (told whether the id moves; an error
    /// claims nothing). The session's first reply is the install's ack,
    /// which [`EnginePool::installed`] awaits.
    fn enqueue_session(
        &self,
        stream_id: u64,
        shard: usize,
        make: impl FnOnce(Head, Sender<SessionReply>, bool) -> Result<Command, SnsError>,
    ) -> Result<StreamSession, SnsError> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel();
        let head = Head { id: stream_id, token, ticket: 0, at: sns_ops::clock::now() };
        // A stream id lives on at most one shard: only its owning shard (a
        // `restore` may have moved the id off its hash shard), if other,
        // gets an `Evict`, so a saturated *unrelated* shard cannot stall
        // this open. The per-stream cell is held from the claim until the
        // install is enqueued, so concurrent `open`/`restore` of one id
        // serialize: the last claimant's install is the last command any
        // shard gets for the id (FIFO), hence exactly one slot survives.
        let cell = {
            let mut owners = self.owners.lock().expect("ownership map poisoned");
            Arc::clone(owners.entry(stream_id).or_default())
        };
        let mut owner = cell.lock().expect("ownership cell poisoned");
        let prev = owner.filter(|&p| p != shard);
        let install = make(head, reply_tx, prev.is_some())?;
        if let Some(prev) = prev {
            self.send(prev, Command::Evict(stream_id));
        }
        *owner = Some(shard);
        if !self.send(shard, install) {
            return Err(SnsError::StreamClosed { stream_id });
        }
        drop(owner);
        Ok(StreamSession {
            stream_id,
            shard,
            token,
            queue_depth: self.queue_depth,
            tx: self.senders[shard].clone(),
            rx: reply_rx,
            next_ticket: 1,
            buffered: VecDeque::new(),
            unclaimed: 0,
            closed: false,
            ops: self.ops.clone(),
            metrics: self.ops.metrics().stream(stream_id),
        })
    }

    /// The second half of opening a session: waits for the install's
    /// ack. It is not a batch receipt, so it is neither stamped nor
    /// recorded.
    fn installed(session: StreamSession) -> Result<StreamSession, SnsError> {
        let reply = session.rx.recv().map_err(|_| session.closed_err())?;
        let _ = into_receipt(reply.body)?;
        Ok(session)
    }

    /// Checkpoints **every** live stream in the pool: each worker drains
    /// its previously enqueued commands, then snapshots all of its slots
    /// in one step. The result is per-stream consistent (a stream's
    /// snapshot reflects exactly the commands acknowledged before it)
    /// and sorted by stream id; sessions stay open and unaffected.
    ///
    /// Streams whose engine cannot be captured (gone dark after a panic)
    /// report their typed error in place, so one bad stream never hides
    /// the rest of the fleet's checkpoint.
    ///
    /// For cross-stream consistency, quiesce the clients first (collect
    /// all outstanding receipts); in-flight batches submitted *after*
    /// this call may or may not be included.
    pub fn checkpoint_all(&self) -> CheckpointResults {
        self.checkpoint(0..self.senders.len()).0
    }

    /// Checkpoints the live streams of **one** shard — the amortized
    /// building block behind background checkpointing: a policy daemon
    /// walks shards round-robin, paying one shard's capture cost per
    /// step instead of stalling the whole pool at once (see
    /// `sns_codec::daemon`). Same per-stream consistency and error
    /// semantics as [`EnginePool::checkpoint_all`]; results are sorted
    /// by stream id.
    ///
    /// # Errors
    /// [`SnsError::ShardOutOfRange`] if `shard` does not name a worker;
    /// [`SnsError::StreamClosed`] (stream 0) if the pool is shutting
    /// down and the worker is gone.
    pub fn checkpoint_shard(&self, shard: usize) -> Result<CheckpointResults, SnsError> {
        if shard >= self.senders.len() {
            return Err(SnsError::ShardOutOfRange { shard, shards: self.senders.len() });
        }
        match self.checkpoint(shard..shard + 1) {
            (out, true) => Ok(out),
            (_, false) => Err(SnsError::StreamClosed { stream_id: 0 }),
        }
    }

    /// Sends `CheckpointShard` to every shard in `shards` before
    /// collecting any reply, so the shards capture concurrently. Returns
    /// the captures sorted by stream id and whether every shard answered
    /// (a worker that is gone loses its streams); only a complete
    /// checkpoint publishes [`PoolEvent::CheckpointCommitted`].
    fn checkpoint(&self, shards: Range<usize>) -> (CheckpointResults, bool) {
        let expected = shards.len();
        let (tx, rx) = channel();
        let request = || Command::CheckpointShard(tx.clone());
        let sent = shards.filter(|&i| self.send(i, request())).count();
        drop(tx);
        let replies: Vec<CheckpointResults> = rx.iter().take(sent).collect();
        let complete = replies.len() == expected;
        let mut all: CheckpointResults = replies.into_iter().flatten().collect();
        all.sort_by_key(|&(id, _)| id);
        if complete && self.ops.bus().has_subscribers() {
            self.ops.bus().publish(PoolEvent::CheckpointCommitted { streams: all.len() });
        }
        (all, complete)
    }

    /// Rebuilds every listed stream on its home shard and returns the live
    /// sessions in list order — the recovery half of
    /// [`EnginePool::checkpoint_all`]. The stream's worker runs its loader,
    /// then replays and journals again the journal tail (possibly empty)
    /// loaded with the snapshot before it acknowledges the restore, so
    /// restored streams continue bitwise-identically. Every restore is
    /// enqueued before any ack is awaited: the shards load and rebuild
    /// their streams concurrently.
    ///
    /// # Errors
    /// All-or-nothing: if a loader fails, panics or yields another stream,
    /// a snapshot does not rebuild, or a tail panics the engine, every
    /// session this call opened is closed and the first failure, in list
    /// order, is returned. A live session the call replaced stays gone:
    /// recover onto a fresh pool.
    pub fn recover_all(
        &self,
        streams: impl IntoIterator<Item = (u64, impl FnOnce() -> Loaded + Send + 'static)>,
    ) -> Result<Vec<StreamSession>, SnsError> {
        let pending: Vec<_> = streams
            .into_iter()
            .map(|(id, load)| self.enqueue_restore(id, self.shard_of(id), Box::new(load)))
            .collect();
        let installed: Vec<_> = pending.into_iter().map(|s| s.and_then(Self::installed)).collect();
        if let Some(e) = installed.iter().find_map(|r| r.as_ref().err().cloned()) {
            installed.into_iter().flatten().for_each(StreamSession::close);
            return Err(e);
        }
        Ok(installed.into_iter().flatten().collect())
    }

    /// Shuts the workers down and waits for them to finish. Sessions
    /// outliving the pool observe [`SnsError::StreamClosed`].
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        for i in 0..self.senders.len() {
            // Workers that already exited are fine to ignore.
            self.send(i, Command::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client handle to one pooled stream: batched, acknowledged,
/// flow-controlled ingestion plus state capture.
///
/// Obtained from [`EnginePool::open`] / [`EnginePool::restore`]. All
/// commands for the stream flow through its shard's **bounded** queue in
/// submission order. Two ingestion disciplines compose freely:
///
/// - **Synchronous**: [`StreamSession::ingest_batch`] submits and blocks
///   for the batch's [`BatchReceipt`] (waiting first for queue space if
///   the shard is saturated — flow control by blocking).
/// - **Pipelined**: [`StreamSession::try_ingest_batch`] submits without
///   blocking and returns a ticket, or [`SnsError::Backpressure`] when
///   the shard queue is full; receipts are collected later with
///   [`StreamSession::recv_receipt`] / [`StreamSession::try_recv_receipt`]
///   in submission order.
///
/// Dropping the session closes the stream (best-effort; [`StreamSession::close`]
/// is the reliable way).
#[must_use = "dropping a StreamSession closes its stream; bind it"]
pub struct StreamSession {
    stream_id: u64,
    shard: usize,
    token: u64,
    queue_depth: usize,
    tx: SyncSender<Command>,
    rx: Receiver<SessionReply>,
    next_ticket: u64,
    /// Receipts for pipelined batches that arrived while a blocking call
    /// was waiting for its own reply; handed out FIFO by `recv_receipt`.
    buffered: VecDeque<Receipt>,
    /// Pipelined batches whose receipts the caller has not collected.
    unclaimed: usize,
    closed: bool,
    ops: PoolOps,
    /// This stream's metrics handle (latency histogram, replay counter).
    metrics: Arc<StreamMetrics>,
}

impl StreamSession {
    /// The stream this session controls.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// The worker shard serving this stream.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Pipelined batches whose receipts have not been collected yet.
    pub fn in_flight(&self) -> usize {
        self.unclaimed
    }

    /// A command head for `ticket`, stamped with the enqueue instant.
    fn head(&self, ticket: u64) -> Head {
        Head { id: self.stream_id, token: self.token, ticket, at: sns_ops::clock::now() }
    }

    fn closed_err(&self) -> SnsError {
        SnsError::StreamClosed { stream_id: self.stream_id }
    }

    /// Blocking submit (waits for queue space — flow control). A submit
    /// that actually has to wait publishes edge-triggered
    /// [`PoolEvent::BackpressureOnset`] / [`PoolEvent::BackpressureRelief`]
    /// events around the stall.
    fn submit(&self, cmd: Command) -> Result<(), SnsError> {
        let cmd = match enqueued(&self.ops, self.shard, self.tx.try_send(cmd)) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(cmd)) => cmd,
            Err(TrySendError::Disconnected(_)) => return Err(self.closed_err()),
        };
        let observed = self.ops.bus().has_subscribers();
        if observed {
            self.ops.bus().publish(PoolEvent::BackpressureOnset {
                stream_id: self.stream_id,
                shard: self.shard,
                depth: self.ops.metrics().shard(self.shard).depth(),
                capacity: self.queue_depth,
            });
        }
        enqueued(&self.ops, self.shard, self.tx.send(cmd)).map_err(|_| self.closed_err())?;
        if observed {
            self.ops.bus().publish(PoolEvent::BackpressureRelief {
                stream_id: self.stream_id,
                shard: self.shard,
            });
        }
        Ok(())
    }

    /// Submits a command under the next ticket (blocking for queue
    /// space) and waits for its reply, buffering receipts of earlier
    /// pipelined batches for later [`StreamSession::recv_receipt`] calls.
    fn call(&mut self, make: impl FnOnce(Head) -> Command) -> Result<ReplyBody, SnsError> {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.submit(make(self.head(ticket)))?;
        loop {
            let SessionReply { head, body } = self.rx.recv().map_err(|_| self.closed_err())?;
            let body = match body {
                ReplyBody::Receipt(r) => ReplyBody::Receipt(self.stamp_receipt(head, r)),
                other => other,
            };
            if head.ticket == ticket {
                return Ok(body);
            }
            if let ReplyBody::Receipt(r) = body {
                self.buffered.push_back(r);
            }
        }
    }

    /// Submits one operation and blocks for its receipt.
    fn apply(&mut self, op: JournalOp) -> Receipt {
        self.call(|head| Command::Apply { head, op }).and_then(into_receipt)
    }

    /// Stamps a pulled receipt with its enqueue→pull latency (the
    /// enqueue instant rides back on the reply's head) and records it
    /// into the stream's histogram.
    fn stamp_receipt(&self, head: Head, r: Receipt) -> Receipt {
        r.map(|mut receipt| {
            receipt.latency = sns_ops::clock::elapsed(head.at);
            self.metrics.latency.record(receipt.latency);
            receipt
        })
    }

    /// Ingests a batch into the window **without** factor updates
    /// (initialization phase). Blocks for the receipt; on error, tuples
    /// before the failing one stay applied (see
    /// [`StreamingCpd::prefill_all`]).
    pub fn prefill_batch(&mut self, tuples: &[StreamTuple]) -> Result<BatchReceipt, SnsError> {
        self.apply(JournalOp::Prefill(tuples.to_vec()))
    }

    /// Runs batch ALS on the stream's current window from its current
    /// factors and installs the result. Blocks until done.
    pub fn warm_start(&mut self, opts: &AlsOptions) -> Result<BatchReceipt, SnsError> {
        self.apply(JournalOp::WarmStart(opts.clone()))
    }

    /// Ingests a batch of live tuples, blocking for its
    /// [`BatchReceipt`] (and first for queue space if the shard is
    /// saturated). On error the receipt is a typed [`SnsError`] carrying
    /// the accepted prefix (see [`StreamingCpd::ingest_all`]).
    pub fn ingest_batch(&mut self, tuples: &[StreamTuple]) -> Result<BatchReceipt, SnsError> {
        self.apply(JournalOp::Ingest(tuples.to_vec()))
    }

    /// Submits a batch without blocking. Returns its ticket on success;
    /// [`SnsError::Backpressure`] if the shard queue is full (nothing
    /// was enqueued — retry later or fall back to the blocking
    /// [`StreamSession::ingest_batch`]). Collect the receipt with
    /// [`StreamSession::recv_receipt`] / [`StreamSession::try_recv_receipt`].
    pub fn try_ingest_batch(&mut self, tuples: &[StreamTuple]) -> Result<u64, SnsError> {
        let ticket = self.next_ticket;
        let cmd =
            Command::Apply { head: self.head(ticket), op: JournalOp::Ingest(tuples.to_vec()) };
        match enqueued(&self.ops, self.shard, self.tx.try_send(cmd)) {
            Ok(()) => {
                self.next_ticket += 1;
                self.unclaimed += 1;
                Ok(ticket)
            }
            Err(TrySendError::Full(_)) => Err(SnsError::Backpressure {
                stream_id: self.stream_id,
                shard: self.shard,
                depth: self.ops.metrics().shard(self.shard).depth(),
                capacity: self.queue_depth,
            }),
            Err(TrySendError::Disconnected(_)) => Err(self.closed_err()),
        }
    }

    /// Receipt of the oldest uncollected pipelined batch, blocking until
    /// it arrives. `None` if no pipelined batches are outstanding.
    pub fn recv_receipt(&mut self) -> Option<Result<BatchReceipt, SnsError>> {
        self.next_receipt(true)
    }

    /// Non-blocking [`StreamSession::recv_receipt`]: `None` when no
    /// receipt is ready (or none outstanding).
    pub fn try_recv_receipt(&mut self) -> Option<Result<BatchReceipt, SnsError>> {
        self.next_receipt(false)
    }

    /// The receipt reader behind [`StreamSession::recv_receipt`]
    /// (`block`) and [`StreamSession::try_recv_receipt`].
    fn next_receipt(&mut self, block: bool) -> Option<Receipt> {
        if let Some(r) = self.buffered.pop_front() {
            self.unclaimed -= 1;
            return Some(r);
        }
        if self.unclaimed == 0 {
            return None;
        }
        loop {
            let reply = if block {
                self.rx.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                self.rx.try_recv()
            };
            match reply {
                Ok(SessionReply { head, body: ReplyBody::Receipt(r) }) => {
                    self.unclaimed -= 1;
                    return Some(self.stamp_receipt(head, r));
                }
                // Only pipelined receipts can be outstanding here.
                Ok(_) => continue,
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => {
                    self.unclaimed -= 1;
                    return Some(Err(self.closed_err()));
                }
            }
        }
    }

    /// Advances the stream clock without an arrival; due boundary work
    /// still fires. The receipt's `updates` counts the events processed.
    pub fn advance_to(&mut self, t: u64) -> Result<BatchReceipt, SnsError> {
        self.apply(JournalOp::AdvanceTo(t))
    }

    /// Blocks until the worker has drained every previously submitted
    /// command for this stream, then returns its model-health snapshot.
    pub fn report(&mut self) -> Result<StreamReport, SnsError> {
        match self.call(Command::Report)? {
            ReplyBody::Report(r) => Ok(*r),
            _ => Err(mismatched_reply()),
        }
    }

    /// Captures the stream's complete engine state for migration (after
    /// draining every previously submitted command). The stream keeps
    /// running; pair with [`StreamSession::close`] +
    /// [`EnginePool::restore`] to move it.
    pub fn snapshot(&mut self) -> Result<EngineSnapshot, SnsError> {
        match self.call(Command::Snapshot)? {
            ReplyBody::Snapshot(r) => *r,
            _ => Err(mismatched_reply()),
        }
    }

    /// Re-drives this stream's quarantined batches after repair.
    ///
    /// Takes every dead letter pending for the stream (oldest first),
    /// lets `repair` edit each in place (fix the poisoned tuples, tweak
    /// nothing, …), lifts the quarantine, and replays the letters in
    /// their original order through the normal prefill/ingest path.
    /// Replaying the exact per-tuple sequence the engine would have seen
    /// keeps the model bitwise-identical to a run that never faulted —
    /// provided the repaired tuples match what the healthy run ingested.
    ///
    /// Returns the number of letters fully replayed. If a replayed batch
    /// panics again, it (and the letters after it) land back in the DLQ
    /// in order and the first error is returned; a typed rejection
    /// instead requeues the unattempted letters verbatim at the front.
    /// `Ok(0)` means nothing was pending.
    pub fn replay_quarantined(
        &mut self,
        mut repair: impl FnMut(&mut PoolDeadLetter),
    ) -> Result<usize, SnsError> {
        let mut letters = self.ops.dlq().take(self.stream_id);
        if letters.is_empty() {
            return Ok(0);
        }
        for letter in &mut letters {
            repair(letter);
        }
        // Lift the quarantine first; per-stream FIFO ordering makes the
        // release visible to the worker before any batch replayed below.
        if let Err(e) = self.call(Command::Release).and_then(into_receipt) {
            self.ops.dlq().requeue_front(self.stream_id, letters);
            return Err(e);
        }
        let mut replayed = 0usize;
        let mut first_err: Option<SnsError> = None;
        for i in 0..letters.len() {
            let tuples = letters[i].tuples.clone();
            let op = match letters[i].op {
                QuarantinedOp::Prefill => JournalOp::Prefill(tuples),
                QuarantinedOp::Ingest => JournalOp::Ingest(tuples),
            };
            match self.apply(op) {
                Ok(_) => {
                    replayed += 1;
                    self.metrics.replayed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
                    if matches!(
                        e.root_cause(),
                        SnsError::EnginePanicked { .. } | SnsError::StreamQuarantined { .. }
                    ) =>
                {
                    // The panicking batch re-quarantined itself on the
                    // worker; keep pushing the remainder through so it
                    // lands back in the DLQ behind it, still in order.
                    first_err.get_or_insert(e);
                }
                Err(e) => {
                    // Typed rejection: nothing was re-quarantined. This
                    // letter and the unattempted remainder go back to
                    // the front, verbatim.
                    let rest = letters.split_off(i);
                    self.ops.dlq().requeue_front(self.stream_id, rest);
                    return Err(e);
                }
            }
        }
        first_err.map_or(Ok(replayed), Err)
    }

    /// Closes the stream: its engine is dropped once the worker drains
    /// the queued commands. Blocks only for queue space.
    pub fn close(mut self) {
        self.closed = true;
        let _ = enqueued(&self.ops, self.shard, self.tx.send(Command::Close(self.head(0))));
    }
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (stream, shard, in_flight) = (self.stream_id, self.shard, self.unclaimed);
        write!(f, "StreamSession(stream={stream}, shard={shard}, in_flight={in_flight})")
    }
}

impl Drop for StreamSession {
    fn drop(&mut self) {
        if !self.closed {
            // Best-effort: if the shard queue is full the slot lives
            // until the pool shuts down. `close(self)` is reliable.
            let _ = enqueued(&self.ops, self.shard, self.tx.try_send(Command::Close(self.head(0))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_stream::StreamTuple;

    fn spec() -> EngineSpec {
        let config = SnsConfig { rank: 2, theta: 8, ..Default::default() };
        EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config)
    }

    fn tuples_for(id: u64) -> Vec<StreamTuple> {
        (0..120u64)
            .map(|t| StreamTuple::new([((t + id) % 4) as u32, ((t * 3 + id) % 3) as u32], 1.0, t))
            .collect()
    }

    #[test]
    fn stream_seed_is_pure_and_spreads() {
        assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
        assert_ne!(stream_seed(1, 2), stream_seed(1, 3));
        assert_ne!(stream_seed(1, 2), stream_seed(2, 2));
    }

    #[test]
    fn pooled_batched_equals_serial() {
        let ids = [0u64, 1, 2, 3, 4, 5, 6, 7];
        let base_seed = 0xabcd;

        // Serial reference: per-tuple ingestion.
        let mut serial = Vec::new();
        for &id in &ids {
            let mut e = spec().build(stream_seed(base_seed, id));
            for tu in tuples_for(id) {
                e.ingest(tu).unwrap();
            }
            serial.push((e.fitness(), e.updates_applied()));
        }

        // Pooled run over 3 workers, batches interleaved across streams.
        let pool = EnginePool::new(PoolConfig { shards: 3, base_seed, ..Default::default() });
        let mut sessions: Vec<StreamSession> =
            ids.iter().map(|&id| pool.open(id, spec()).unwrap()).collect();
        for chunk_start in (0..120).step_by(30) {
            for (session, &id) in sessions.iter_mut().zip(&ids) {
                let batch = &tuples_for(id)[chunk_start..chunk_start + 30];
                let receipt = session.ingest_batch(batch).unwrap();
                assert_eq!(receipt.accepted, 30);
            }
        }
        for (session, (fit, updates)) in sessions.iter_mut().zip(&serial) {
            let r = session.report().unwrap();
            assert_eq!(r.error, None);
            assert_eq!(r.fitness.to_bits(), fit.to_bits(), "stream {} fitness", r.stream_id);
            assert_eq!(r.updates_applied, *updates, "stream {} updates", r.stream_id);
        }
        drop(sessions);
        pool.join();
    }

    #[test]
    fn batch_errors_are_typed_and_not_fatal() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 1, ..Default::default() });
        let mut session = pool.open(9, spec()).unwrap();
        let _ = session.ingest_batch(&[StreamTuple::new([0u32, 0], 1.0, 50)]).unwrap();
        let err = session
            .ingest_batch(&[
                StreamTuple::new([1u32, 1], 1.0, 55),
                StreamTuple::new([0u32, 0], 1.0, 10), // out of order
            ])
            .unwrap_err();
        assert_eq!(err.accepted(), Some(1), "{err}");
        assert!(matches!(err.root_cause(), SnsError::OutOfOrder { .. }));
        // The stream stays usable and the report records the first error.
        let receipt = session.ingest_batch(&[StreamTuple::new([1u32, 1], 1.0, 60)]).unwrap();
        assert!(receipt.accepted == 1);
        let r = session.report().unwrap();
        assert!(matches!(r.error, Some(SnsError::BatchAborted { .. })), "{:?}", r.error);
        assert!(r.fitness.is_nan() || r.fitness.is_finite());
    }

    #[test]
    fn engine_build_failure_is_typed_and_isolated() {
        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 0, ..Default::default() });
        // window = 0 makes the SnsEngine constructor panic on the worker.
        let bad = EngineSpec::sns(&[4, 3], 0, 10, AlgorithmKind::PlusVec, &SnsConfig::with_rank(2));
        match pool.open(1, bad) {
            Err(SnsError::EngineBuildFailed { stream_id: 1, message }) => {
                assert!(message.contains("window"), "{message}");
            }
            other => panic!("expected EngineBuildFailed, got {:?}", other.err()),
        }
        // The worker survives: a healthy stream opens on the same shard.
        let mut ok = pool.open(2, spec()).unwrap();
        let receipt = ok.ingest_batch(&tuples_for(2)[..10]).unwrap();
        assert_eq!(receipt.accepted, 10);
    }

    #[test]
    fn reopening_replaces_and_invalidates_the_old_session() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 3, ..Default::default() });
        let mut old = pool.open(5, spec()).unwrap();
        let _ = old.ingest_batch(&tuples_for(5)[..10]).unwrap();
        let mut new = pool.open(5, spec()).unwrap();
        // The old session's replies channel was dropped with its slot.
        assert!(matches!(
            old.ingest_batch(&tuples_for(5)[10..20]).unwrap_err(),
            SnsError::StreamClosed { stream_id: 5 }
        ));
        // The new session drives a fresh engine (10 fewer tuples seen).
        let receipt = new.ingest_batch(&tuples_for(5)[..10]).unwrap();
        assert_eq!(receipt.accepted, 10);
        assert_eq!(new.report().unwrap().updates_applied, receipt.updates);
    }

    #[test]
    fn pipelined_receipts_arrive_in_order() {
        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 0, ..Default::default() });
        let mut session = pool.open(3, spec()).unwrap();
        let tuples = tuples_for(3);
        let mut tickets = Vec::new();
        let mut sent = 0usize;
        for chunk in tuples.chunks(12) {
            match session.try_ingest_batch(chunk) {
                Ok(t) => {
                    tickets.push(t);
                    sent += chunk.len();
                }
                Err(SnsError::Backpressure { .. }) => {
                    // Saturated queue: fall back to the blocking path.
                    let r = session.ingest_batch(chunk).unwrap();
                    assert_eq!(r.accepted, chunk.len());
                    sent += chunk.len();
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        let mut acked = 0usize;
        let mut last_ticket = 0u64;
        while let Some(r) = session.recv_receipt() {
            let r = r.unwrap();
            assert!(r.ticket > last_ticket || acked == 0, "receipts out of order");
            last_ticket = r.ticket;
            acked += r.accepted;
        }
        assert_eq!(session.in_flight(), 0);
        // Everything submitted (pipelined or blocking) was accepted.
        let report = session.report().unwrap();
        assert_eq!(report.error, None);
        assert_eq!(sent, tuples.len());
        let _ = (tickets, acked);
    }

    #[test]
    fn shard_assignment_is_stable() {
        let pool = EnginePool::new(PoolConfig { shards: 4, base_seed: 0, ..Default::default() });
        for id in 0..50u64 {
            assert_eq!(pool.shard_of(id), pool.shard_of(id));
            assert!(pool.shard_of(id) < 4);
        }
    }

    #[test]
    fn restore_elsewhere_evicts_the_still_open_session() {
        let pool = EnginePool::new(PoolConfig { shards: 3, base_seed: 0, ..Default::default() });
        let mut old = pool.open(4, spec()).unwrap();
        let tuples = tuples_for(4);
        let _ = old.ingest_batch(&tuples[..20]).unwrap();
        let snapshot = old.snapshot().unwrap();
        // Restore onto a *different* shard without closing the old
        // session: the id must not end up served by two engines.
        let target = (old.shard() + 1) % pool.shards();
        let mut migrated = pool.restore(snapshot, target).unwrap();
        assert!(matches!(
            old.ingest_batch(&tuples[20..30]).unwrap_err(),
            SnsError::StreamClosed { stream_id: 4 }
        ));
        // The migrated session carries the stream forward alone.
        let receipt = migrated.ingest_batch(&tuples[20..]).unwrap();
        assert_eq!(receipt.accepted, 100);
        assert_eq!(migrated.report().unwrap().error, None);
    }

    #[test]
    fn checkpoint_all_then_recover_matches_uninterrupted_run() {
        let ids = [0u64, 1, 2, 3, 4];
        let base_seed = 0xfeed;
        let make_pool =
            || EnginePool::new(PoolConfig { shards: 3, base_seed, ..Default::default() });

        // Reference: uninterrupted pooled run over the whole stream.
        let reference = make_pool();
        let mut sessions: Vec<StreamSession> =
            ids.iter().map(|&id| reference.open(id, spec()).unwrap()).collect();
        for (session, &id) in sessions.iter_mut().zip(&ids) {
            let _ = session.ingest_batch(&tuples_for(id)).unwrap();
        }
        let expected: Vec<(u64, u64)> = sessions
            .iter_mut()
            .map(|s| {
                let r = s.report().unwrap();
                (r.fitness.to_bits(), r.updates_applied)
            })
            .collect();
        drop(sessions);
        reference.join();

        // Interrupted run: half the stream, checkpoint, "crash", recover
        // into a brand-new pool, finish the stream.
        let first = make_pool();
        let mut sessions: Vec<StreamSession> =
            ids.iter().map(|&id| first.open(id, spec()).unwrap()).collect();
        for (session, &id) in sessions.iter_mut().zip(&ids) {
            let _ = session.ingest_batch(&tuples_for(id)[..60]).unwrap();
        }
        // Quiesce (blocking batches are already acked), then checkpoint.
        let checkpoints = first.checkpoint_all();
        assert_eq!(checkpoints.len(), ids.len());
        let snapshots: Vec<EngineSnapshot> =
            checkpoints.into_iter().map(|(_, r)| r.unwrap()).collect();
        assert!(snapshots.windows(2).all(|w| w[0].stream_id < w[1].stream_id));
        drop(sessions);
        first.join(); // the crash

        let recovered_pool = make_pool();
        let streams = snapshots.into_iter().map(|s| (s.stream_id, move || Ok((s, Vec::new()))));
        let mut recovered = recovered_pool.recover_all(streams).unwrap();
        for (session, &id) in recovered.iter_mut().zip(&ids) {
            assert_eq!(session.stream_id(), id);
            let _ = session.ingest_batch(&tuples_for(id)[60..]).unwrap();
        }
        for (session, (fitness, updates)) in recovered.iter_mut().zip(&expected) {
            let r = session.report().unwrap();
            assert_eq!(r.error, None);
            assert_eq!(r.fitness.to_bits(), *fitness, "stream {}", r.stream_id);
            assert_eq!(r.updates_applied, *updates, "stream {}", r.stream_id);
        }
    }

    #[test]
    fn checkpoint_reports_quarantined_streams_in_place() {
        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 2, ..Default::default() });
        let mut healthy = pool.open(1, spec()).unwrap();
        let _ = healthy.ingest_batch(&tuples_for(1)[..10]).unwrap();
        // A closed slot stays out of the checkpoint; only live slots show.
        let gone = pool.open(2, spec()).unwrap();
        gone.close();
        let checkpoints = pool.checkpoint_all();
        assert!(checkpoints.iter().any(|(id, r)| *id == 1 && r.is_ok()));
        assert!(!checkpoints.iter().any(|(id, _)| *id == 2), "closed stream checkpointed");
    }

    /// Corrupts `snapshot`: window from its engine, factors from a
    /// differently-shaped one — exactly what a damaged store entry that
    /// slipped past framing checks would look like.
    fn corrupt(snapshot: &mut EngineSnapshot) {
        let crate::snapshot::EngineState::Sns(state) = &mut snapshot.state else {
            panic!("continuous snapshot expected");
        };
        let foreign = EngineSpec::sns(
            &[9, 9],
            3,
            10,
            sns_core::config::AlgorithmKind::PlusVec,
            &SnsConfig { rank: 2, ..Default::default() },
        )
        .build(1);
        let foreign_state = foreign.snapshot().unwrap();
        let crate::snapshot::EngineState::Sns(foreign_sns) = foreign_state else {
            panic!("continuous snapshot expected");
        };
        state.updater = foreign_sns.updater;
    }

    fn is_invalid(result: Result<StreamSession, SnsError>) -> bool {
        matches!(result, Err(SnsError::Codec { fault: sns_error::CodecFault::Invalid, .. }))
    }

    #[test]
    fn invalid_restore_leaves_the_live_session_untouched() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 4, ..Default::default() });
        let mut live = pool.open(8, spec()).unwrap();
        let _ = live.ingest_batch(&tuples_for(8)[..20]).unwrap();
        let mut snapshot = live.snapshot().unwrap();
        corrupt(&mut snapshot);

        // The restore fails typed — and must NOT evict the live session,
        // whether it targets the live shard (the worker refuses it) or
        // the other one (the caller refuses it before the evict).
        let home = live.shard();
        for (target, at) in [(home, 20), (1 - home, 30)] {
            assert!(is_invalid(pool.restore(snapshot.clone(), target)), "target shard {target}");
            let receipt = live.ingest_batch(&tuples_for(8)[at..at + 10]).unwrap();
            assert_eq!(receipt.accepted, 10, "healthy session must survive a failed restore");
            assert_eq!(live.report().unwrap().error, None);
        }
        let live_ids: Vec<u64> = pool.checkpoint_all().into_iter().map(|(id, _)| id).collect();
        assert_eq!(live_ids, vec![8]);
    }

    #[test]
    fn invalid_restore_on_a_fresh_pool_installs_nothing() {
        let mut snapshot = {
            let pool =
                EnginePool::new(PoolConfig { shards: 2, base_seed: 4, ..Default::default() });
            let mut session = pool.open(8, spec()).unwrap();
            let _ = session.ingest_batch(&tuples_for(8)[..20]).unwrap();
            session.snapshot().unwrap()
        };
        corrupt(&mut snapshot);
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 4, ..Default::default() });
        // Nothing owns the id, so no caller-side rebuild runs: the worker
        // refuses the snapshot on the install ack.
        assert!(is_invalid(pool.restore(snapshot, pool.shard_of(8))));
        assert!(pool.checkpoint_all().is_empty(), "a refused snapshot installed a slot");
        let mut opened = pool.open(8, spec()).unwrap();
        let receipt = opened.ingest_batch(&tuples_for(8)[..10]).unwrap();
        assert_eq!(receipt.accepted, 10);
        assert_eq!(opened.report().unwrap().error, None);
    }

    /// A tail is replayed, counted and journaled-in-order on the worker;
    /// a tail that panics the engine fails the restore typed and, with
    /// it, the whole `recover_all`.
    #[test]
    fn recover_all_replays_tails_and_fails_typed_on_a_panicking_one() {
        let chaotic = spec().with_chaos(crate::chaos::ChaosConfig::default());
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 5, ..Default::default() });
        let mut live: Vec<StreamSession> =
            [1u64, 2].iter().map(|&id| pool.open(id, chaotic.clone()).unwrap()).collect();
        let mut snapshots = Vec::new();
        for session in &mut live {
            let _ = session.ingest_batch(&tuples_for(session.stream_id())[..20]).unwrap();
            snapshots.push(session.snapshot().unwrap());
        }
        let tail = |id: u64| vec![JournalOp::Ingest(tuples_for(id)[20..40].to_vec())];
        let mut poisoned = tail(2);
        if let JournalOp::Ingest(tuples) = &mut poisoned[0] {
            tuples[5].value = crate::chaos::POISON_VALUE;
        }

        let fresh = EnginePool::new(PoolConfig { shards: 2, base_seed: 5, ..Default::default() });
        let load = |snapshot: &EngineSnapshot, tail: Vec<JournalOp>| -> (u64, Loader) {
            let snapshot = snapshot.clone();
            (snapshot.stream_id, Box::new(move || Ok((snapshot, tail))))
        };
        let streams = vec![load(&snapshots[0], tail(1)), load(&snapshots[1], poisoned)];
        match fresh.recover_all(streams) {
            Err(SnsError::EngineBuildFailed { stream_id: 2, .. }) => {}
            other => panic!("expected EngineBuildFailed, got {:?}", other.map(|s| s.len())),
        }
        assert!(fresh.checkpoint_all().is_empty(), "a failed recovery left live slots");

        let metrics = fresh.ops().metrics().stream(1);
        let counted = |m: &StreamMetrics| {
            (m.batches.load(Ordering::Relaxed), m.tuples.load(Ordering::Relaxed))
        };
        let before = counted(&metrics);
        let mut recovered = fresh.recover_all(vec![load(&snapshots[0], tail(1))]).unwrap();
        let _ = live[0].ingest_batch(&tuples_for(1)[20..40]).unwrap();
        let (want, got) = (live[0].report().unwrap(), recovered[0].report().unwrap());
        assert_eq!(got.fitness.to_bits(), want.fitness.to_bits());
        assert_eq!(got.updates_applied, want.updates_applied);
        let after = counted(&metrics);
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 20), "replayed batch counted");
    }

    /// A loader runs on the stream's worker under the build guard: one
    /// that panics fails typed instead of killing the worker, and one
    /// that yields another stream is refused; neither installs a slot.
    #[test]
    fn recover_all_refuses_a_panicking_or_foreign_loader() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 6, ..Default::default() });
        let mut session = pool.open(1, spec()).unwrap();
        let _ = session.ingest_batch(&tuples_for(1)[..20]).unwrap();
        let snapshot = session.snapshot().unwrap();
        session.close();
        let load = |snapshot: &EngineSnapshot| -> Loader {
            let snapshot = snapshot.clone();
            Box::new(move || Ok((snapshot, Vec::new())))
        };
        let panicking: Loader = Box::new(|| panic!("decoder bug"));
        match pool.recover_all(vec![(1, panicking)]) {
            Err(SnsError::EngineBuildFailed { stream_id: 1, message }) => {
                assert!(message.contains("decoder bug"), "{message}");
            }
            other => panic!("expected EngineBuildFailed, got {:?}", other.map(|s| s.len())),
        }
        assert!(is_invalid(pool.recover_all(vec![(2, load(&snapshot))]).map(|mut s| s.remove(0))));
        assert!(pool.checkpoint_all().is_empty(), "a refused loader installed a slot");
        let mut recovered = pool.recover_all(vec![(1, load(&snapshot))]).unwrap();
        let receipt = recovered[0].ingest_batch(&tuples_for(1)[20..30]).unwrap();
        assert_eq!(receipt.accepted, 10, "the worker survived the panicking loader");
    }

    #[test]
    fn restore_rejects_bad_shard() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 0, ..Default::default() });
        let mut session = pool.open(1, spec()).unwrap();
        let _ = session.ingest_batch(&tuples_for(1)[..20]).unwrap();
        let snapshot = session.snapshot().unwrap();
        assert!(matches!(
            pool.restore(snapshot, 9).unwrap_err(),
            SnsError::ShardOutOfRange { shard: 9, shards: 2 }
        ));
    }
}
