//! Background checkpoint daemon: turns "someone should checkpoint
//! periodically" into a policy-driven service thread.
//!
//! The [`Checkpointer`] subscribes to the pool's lifecycle bus and uses
//! [`BatchApplied`](sns_ops::PoolEvent::BatchApplied) events purely as
//! **wakeups** — the bus is drop-oldest, so the trigger decision is
//! re-derived from the exact [`MetricsRegistry`] counters on every
//! wakeup rather than by counting (possibly evicted) events. When a
//! shard has accumulated at least `min_batches` acknowledged batches
//! since its last commit, the daemon:
//!
//! 1. captures that shard's streams via
//!    [`EnginePool::checkpoint_shard`] (one shard at a time — the rest
//!    of the pool keeps ingesting),
//! 2. commits them with [`CheckpointStore::save_incremental`] (one new
//!    full file per stream; the other shards' rows carry over), and
//! 3. rotates each stream's WAL segment via [`WalSet::rotate`],
//!    pruning journal history the new checkpoint has made redundant.
//!
//! At most one shard commits per wakeup (amortized round-robin), so the
//! ingest pause a checkpoint induces is bounded by the busiest single
//! shard, never the whole fleet. Errors are **sticky** and surfaced via
//! [`Checkpointer::error`] — a durability daemon must degrade to "stop
//! making progress and say so", not take live traffic down with it.

use crate::store::CheckpointStore;
use crate::wal::WalSet;
use sns_error::SnsError;
use sns_ops::MetricsRegistry;
use sns_runtime::EnginePool;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// When the background daemon commits a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Acknowledged batches a shard must accumulate since its last
    /// commit before it is checkpointed again.
    pub min_batches: u64,
    /// Fallback wakeup interval: the daemon re-evaluates triggers at
    /// least this often even if no bus event arrives (the bus is
    /// drop-oldest, so events are a latency optimization, not the
    /// source of truth).
    pub poll: Duration,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { min_batches: 64, poll: Duration::from_millis(200) }
    }
}

/// Progress counters for a running (or stopped) [`Checkpointer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoint generations committed by the daemon.
    pub commits: u64,
    /// Stream snapshots written across all commits.
    pub streams: u64,
}

struct DaemonShared {
    stop: AtomicBool,
    commits: AtomicU64,
    streams: AtomicU64,
    error: Mutex<Option<SnsError>>,
}

/// Handle to the background checkpoint thread.
///
/// Dropping the handle without [`Checkpointer::stop`] detaches the
/// thread (it keeps checkpointing until the process exits); tests and
/// orderly shutdowns should call `stop`, which does **not** flush a
/// final commit — un-checkpointed work is exactly what the WAL tail is
/// for.
pub struct Checkpointer {
    shared: Arc<DaemonShared>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("stats", &self.stats())
            .field("error", &self.error())
            .finish()
    }
}

/// Sums acknowledged batches per shard from the live registry.
fn batches_by_shard(metrics: &MetricsRegistry) -> Vec<u64> {
    let mut sums = vec![0u64; metrics.shards()];
    for id in metrics.stream_ids() {
        let m = metrics.stream(id);
        let shard = m.shard.load(Ordering::Relaxed);
        if let Some(slot) = sums.get_mut(shard) {
            *slot += m.batches.load(Ordering::Relaxed);
        }
    }
    sums
}

impl Checkpointer {
    /// Spawns the daemon thread against `pool`, committing into `store`
    /// and rotating segments of `wal` (the same [`WalSet`] attached as
    /// the pool's journal) under `policy`.
    ///
    /// # Errors
    /// [`SnsError::Io`] if the OS refuses to spawn the daemon thread
    /// (resource exhaustion) — durability would silently stop if this
    /// were swallowed, so it surfaces to the caller.
    pub fn start(
        pool: Arc<EnginePool>,
        store: CheckpointStore,
        wal: Arc<WalSet>,
        policy: CheckpointPolicy,
    ) -> Result<Checkpointer, SnsError> {
        let shared = Arc::new(DaemonShared {
            stop: AtomicBool::new(false),
            commits: AtomicU64::new(0),
            streams: AtomicU64::new(0),
            error: Mutex::new(None),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sns-checkpointer".into())
            .spawn(move || run(pool, store, wal, policy, worker))
            .map_err(|e| SnsError::Io {
                path: "sns-checkpointer".to_string(),
                message: format!("cannot spawn checkpoint daemon thread: {e}"),
            })?;
        Ok(Checkpointer { shared, handle: Some(handle) })
    }

    /// Commit counters so far.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            commits: self.shared.commits.load(Ordering::Relaxed),
            streams: self.shared.streams.load(Ordering::Relaxed),
        }
    }

    /// First error the daemon hit, if any. A set error means the daemon
    /// has stopped committing — the operator's cue to intervene; live
    /// ingest was never touched.
    pub fn error(&self) -> Option<SnsError> {
        self.shared.error.lock().expect("daemon error lock poisoned").clone()
    }

    /// Signals the daemon and joins it. No final flush-commit: work
    /// past the last checkpoint stays recoverable from the WAL tail.
    pub fn stop(mut self) -> CheckpointStats {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        // Detach (see type docs); join would risk blocking an unwind.
        self.shared.stop.store(true, Ordering::Release);
    }
}

fn run(
    pool: Arc<EnginePool>,
    store: CheckpointStore,
    wal: Arc<WalSet>,
    policy: CheckpointPolicy,
    shared: Arc<DaemonShared>,
) {
    let mut sub = pool.ops().subscribe();
    let mut committed = vec![0u64; pool.shards()];
    let mut cursor = 0usize;
    while !shared.stop.load(Ordering::Acquire) {
        // Sleep until traffic (or the poll deadline) wakes us; the
        // event content is irrelevant, counters below are the truth.
        let _ = sub.next_timeout(policy.poll);
        let _ = sub.drain();
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let sums = batches_by_shard(pool.ops().metrics());
        let shards = sums.len();
        // Round-robin scan from the cursor; commit at most one shard
        // per wakeup so checkpoint pauses stay amortized.
        let eligible = (0..shards)
            .map(|i| (cursor + i) % shards)
            .find(|&s| sums[s].saturating_sub(committed[s]) >= policy.min_batches.max(1));
        let Some(shard) = eligible else { continue };
        cursor = (shard + 1) % shards;
        match commit_shard(&pool, &store, &wal, shard) {
            Ok(streams) => {
                committed[shard] = sums[shard];
                if streams > 0 {
                    shared.commits.fetch_add(1, Ordering::Relaxed);
                    shared.streams.fetch_add(streams, Ordering::Relaxed);
                }
            }
            Err(e) => {
                let mut slot = shared.error.lock().expect("daemon error lock poisoned");
                slot.get_or_insert(e);
                return; // sticky: stop committing, leave ingest alone
            }
        }
    }
}

/// Capture → incremental save → WAL rotation for one shard. Returns the
/// number of streams committed.
fn commit_shard(
    pool: &EnginePool,
    store: &CheckpointStore,
    wal: &WalSet,
    shard: usize,
) -> Result<u64, SnsError> {
    let mut snapshots = Vec::new();
    for (_, result) in pool.checkpoint_shard(shard)? {
        snapshots.push(result?);
    }
    if snapshots.is_empty() {
        return Ok(0);
    }
    let (generation, _) = store.save_incremental(&snapshots)?;
    for snapshot in &snapshots {
        wal.rotate(snapshot.stream_id, generation, snapshot.wal_seq)?;
    }
    Ok(snapshots.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::recover_pool_wal;
    use crate::{from_bytes, to_bytes};
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_runtime::{BatchJournal, EngineSpec, PoolConfig};
    use sns_stream::StreamTuple;
    use std::path::PathBuf;
    use std::time::Instant;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sns-daemon-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> EngineSpec {
        let config = SnsConfig { rank: 2, theta: 4, ..Default::default() };
        EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config)
    }

    fn tuples(id: u64, n: u64) -> Vec<StreamTuple> {
        (0..n)
            .map(|t| StreamTuple::new([((t + id) % 4) as u32, ((t * 3) % 3) as u32], 1.0, t))
            .collect()
    }

    #[test]
    fn daemon_commits_in_background_and_recovery_replays_only_the_tail() {
        let dir = temp_dir("commits");
        let wal = Arc::new(WalSet::create(dir.join("wal")).unwrap());
        let store = CheckpointStore::create(dir.join("ckpt")).unwrap();
        let journal: Arc<dyn BatchJournal> = Arc::clone(&wal) as _;
        let pool = Arc::new(EnginePool::new(PoolConfig {
            shards: 2,
            base_seed: 7,
            journal: Some(journal),
            ..Default::default()
        }));
        let mut a = pool.open(1, spec()).unwrap();
        let mut b = pool.open(2, spec()).unwrap();

        let policy = CheckpointPolicy { min_batches: 4, poll: Duration::from_millis(10) };
        let daemon =
            Checkpointer::start(Arc::clone(&pool), store.clone(), Arc::clone(&wal), policy)
                .unwrap();

        // Enough batches to trip the policy on both shards.
        for chunk in tuples(1, 60).chunks(5) {
            let _ = a.ingest_batch(chunk).unwrap();
        }
        for chunk in tuples(2, 60).chunks(5) {
            let _ = b.ingest_batch(chunk).unwrap();
        }
        // Wait for the daemon to cover both streams.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let covered = store
                .manifest()
                .map(|m| m.iter().map(|e| e.stream_id).collect::<Vec<_>>())
                .unwrap_or_default();
            if covered.contains(&1) && covered.contains(&2) {
                break;
            }
            assert!(Instant::now() < deadline, "daemon never covered both streams");
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = daemon.stop();
        assert!(stats.commits >= 1, "daemon committed nothing: {stats:?}");
        assert!(stats.streams >= 2);

        // Work past the last commit lives only in the WAL.
        let _ = a.ingest_batch(&tuples(1, 70)[60..]).unwrap();
        let _ = b.ingest_batch(&tuples(2, 70)[60..]).unwrap();
        let want_a = to_bytes(&a.snapshot().unwrap());
        let want_b = to_bytes(&b.snapshot().unwrap());
        let total_units_a = from_bytes(&want_a).unwrap().wal_seq;
        drop((a, b));
        match Arc::try_unwrap(pool) {
            Ok(p) => p.join(),
            Err(_) => panic!("daemon kept a pool handle after stop"),
        }

        let fresh = EnginePool::new(PoolConfig {
            shards: 2,
            base_seed: 7,
            journal: Some(Arc::clone(&wal) as _),
            ..Default::default()
        });
        let (mut sessions, replayed) = recover_pool_wal(&fresh, &store, &wal).unwrap();
        assert!(replayed > 0, "crash after the last checkpoint must leave a WAL tail");
        assert!(
            replayed < 2 * total_units_a,
            "replay must be bounded by the tail, not the whole history (replayed {replayed})"
        );
        sessions.sort_by_key(|s| s.stream_id());
        assert_eq!(to_bytes(&sessions[0].snapshot().unwrap()), want_a);
        assert_eq!(to_bytes(&sessions[1].snapshot().unwrap()), want_b);
        assert!(wal.error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
