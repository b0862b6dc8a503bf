use sns_codec::store::CheckpointStore;
use sns_codec::to_bytes;
use sns_codec::wal::{recover_pool_wal, WalSet};
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_runtime::{BatchJournal, EnginePool, EngineSpec, PoolConfig};
use sns_stream::StreamTuple;
use std::sync::Arc;

fn tuples(n: u64, from: u64) -> Vec<StreamTuple> {
    (from..from + n).map(|t| StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).collect()
}

#[test]
fn crash_right_after_rotation_then_recover_twice() {
    let dir = std::env::temp_dir().join(format!("sns-rotate-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Arc::new(WalSet::create(dir.join("wal")).unwrap());
    let store = CheckpointStore::create(dir.join("ckpt")).unwrap();
    let config = SnsConfig { rank: 2, theta: 2, ..Default::default() };
    let spec = EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config);
    let trace = tuples(60, 0);
    let journaled_pool = |wal: &Arc<WalSet>| {
        EnginePool::new(PoolConfig {
            shards: 1,
            base_seed: 7,
            journal: Some(Arc::clone(wal) as Arc<dyn BatchJournal>),
            ..Default::default()
        })
    };

    // Reference: an uninterrupted journaled run over the 50 tuples the
    // doomed run acknowledges (journaled too, so `wal_seq` matches).
    let reference = {
        let pool = journaled_pool(&Arc::new(WalSet::create(dir.join("ref-wal")).unwrap()));
        let mut s = pool.open(5, spec.clone()).unwrap();
        let _ = s.ingest_batch(&trace[..50]).unwrap();
        to_bytes(&s.snapshot().unwrap())
    };

    {
        let pool = journaled_pool(&wal);
        let mut s = pool.open(5, spec.clone()).unwrap();
        let _ = s.ingest_batch(&trace[..40]).unwrap();
        let snapshots: Vec<_> =
            pool.checkpoint_all().into_iter().map(|(_, r)| r.unwrap()).collect();
        assert_eq!(snapshots[0].wal_seq, 40);
        let (gen, _) = store.save_incremental(&snapshots).unwrap();
        // Records 41..=50 land in g0 *before* the rotation (daemon race:
        // ingest continues while save_incremental runs).
        let _ = s.ingest_batch(&trace[40..50]).unwrap();
        wal.rotate(5, gen, snapshots[0].wal_seq).unwrap();
        // Crash immediately after rotation: g1 holds only its header.
        drop(s);
        pool.join();
    }
    drop(wal);

    // First recovery on a reopened WalSet.
    let wal = Arc::new(WalSet::create(dir.join("wal")).unwrap());
    {
        let pool = journaled_pool(&wal);
        let (sessions, replayed) = recover_pool_wal(&pool, &store, &wal).unwrap();
        assert_eq!(replayed, 10);
        assert!(wal.error().is_none(), "wal error: {:?}", wal.error());
        drop(sessions);
        pool.join();
    }
    drop(wal);

    // Second crash + recovery: must also succeed, and end where the
    // uninterrupted run did.
    let wal = Arc::new(WalSet::create(dir.join("wal")).unwrap());
    let tail = wal.read_tail(5, 40);
    tail.expect("read_tail after rotate-crash-recover cycle must not report corruption");
    let pool = journaled_pool(&wal);
    let (mut sessions, replayed) = recover_pool_wal(&pool, &store, &wal).unwrap();
    assert_eq!(replayed, 10);
    assert!(wal.error().is_none(), "wal error: {:?}", wal.error());
    assert!(
        to_bytes(&sessions[0].snapshot().unwrap()) == reference,
        "the second recovery diverged from the uninterrupted run"
    );
    drop(sessions);
    pool.join();
    let _ = std::fs::remove_dir_all(&dir);
}
