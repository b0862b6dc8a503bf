//! End-to-end tests of the operability surface (`sns-ops` wired through
//! the pool): lifecycle events on the bus, per-stream metrics and
//! latency histograms, dead-letter quarantine with deterministic
//! replay, and the typed backpressure contract.

use slicenstitch::core::als::AlsOptions;
use slicenstitch::core::{AlgorithmKind, SnsConfig};
use slicenstitch::data::{generate, GeneratorConfig};
use slicenstitch::ops::{BusItem, QuarantinedOp};
use slicenstitch::runtime::pool::stream_seed;
use slicenstitch::runtime::{
    AnomalyConfig, BaselineKind, BatchJournal, ChaosConfig, EnginePool, EngineSnapshot, EngineSpec,
    JournalEntry, PoolConfig, PoolEvent, QuarantinePolicy, SnsError, POISON_VALUE,
};
use slicenstitch::stream::StreamTuple;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const DIMS: [usize; 2] = [4, 3];
const W: usize = 3;
const T: u64 = 5;
const BASE_SEED: u64 = 0x0b5;

fn sns(kind: AlgorithmKind) -> EngineSpec {
    EngineSpec::sns(&DIMS, W, T, kind, &SnsConfig { rank: 2, theta: 10, ..Default::default() })
}

fn sns_spec() -> EngineSpec {
    sns(AlgorithmKind::PlusRnd)
}

fn trace(seed: u64, events: usize) -> Vec<StreamTuple> {
    generate(&GeneratorConfig {
        base_dims: DIMS.to_vec(),
        n_components: 2,
        events,
        duration: 10 * W as u64 * T,
        zipf_exponent: 1.2,
        noise_fraction: 0.1,
        day_ticks: 50,
        seed,
        ..Default::default()
    })
}

fn cut(trace: &[StreamTuple]) -> usize {
    trace.partition_point(|t| t.time <= W as u64 * T)
}

fn als() -> AlsOptions {
    AlsOptions { max_iters: 4, tol: 1e-3, ..Default::default() }
}

/// Drives the full trace in batches, tolerating quarantine-class
/// rejections; returns how many batches were rejected.
fn drive(
    session: &mut slicenstitch::runtime::StreamSession,
    trace: &[StreamTuple],
) -> Result<usize, SnsError> {
    let c = cut(trace);
    for chunk in trace[..c].chunks(20) {
        let _ = session.prefill_batch(chunk)?;
    }
    let _ = session.warm_start(&als())?;
    let mut rejected = 0;
    for chunk in trace[c..].chunks(20) {
        match session.ingest_batch(chunk) {
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.root_cause(),
                    SnsError::EnginePanicked { .. } | SnsError::StreamQuarantined { .. }
                ) =>
            {
                rejected += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(rejected)
}

/// Undoes the poison: the repair applied to quarantined letters and to
/// the serial reference traces. Returns how many tuples it repaired.
fn repair(tuples: &mut [StreamTuple]) -> usize {
    let mut repaired = 0;
    for t in tuples.iter_mut().filter(|t| t.value.to_bits() == POISON_VALUE.to_bits()) {
        t.value = 1.0;
        repaired += 1;
    }
    repaired
}

/// A panicking batch quarantines the stream instead of killing it, the
/// healthy co-tenants (SNS⁺_RND, SNS⁺_VEC, OnlineSCP and an
/// anomaly-decorated SNS⁺_RND) never notice, a second poison tuple
/// behind the quarantine is diverted with the rest, the repaired letters
/// replay to a state byte-identical to a serial run over the repaired
/// trace, and the whole story is visible on the bus and in the metrics
/// dump.
#[test]
fn quarantine_replay_is_bitwise_and_observable() {
    let pool = EnginePool::new(PoolConfig {
        shards: 2,
        base_seed: BASE_SEED,
        queue_depth: 32,
        ..Default::default()
    });
    let mut sub = pool.ops().subscribe();

    let mut poisoned = trace(1, 300);
    let c = cut(&poisoned);
    let live = poisoned.len() - c;
    poisoned[c + live / 3].value = POISON_VALUE;
    poisoned[c + 2 * live / 3].value = POISON_VALUE;
    let tenants = [
        (1u64, sns_spec().with_chaos(ChaosConfig::default()), poisoned),
        (2, sns_spec(), trace(2, 300)),
        (3, sns(AlgorithmKind::PlusVec), trace(3, 300)),
        (4, EngineSpec::baseline(&DIMS, W, T, 2, BaselineKind::OnlineScp), trace(4, 300)),
        (5, sns_spec().with_anomaly(AnomalyConfig::default()), trace(5, 300)),
    ];
    let mut sessions: Vec<_> =
        tenants.iter().map(|(id, spec, _)| pool.open(*id, spec.clone()).unwrap()).collect();
    let rejected = drive(&mut sessions[0], &tenants[0].2).unwrap();
    assert!(rejected >= 2, "the poison batch and everything behind it must be rejected");
    for (session, (id, _, tr)) in sessions.iter_mut().zip(&tenants).skip(1) {
        assert_eq!(drive(session, tr).unwrap(), 0, "co-tenant {id} noticed the quarantine");
    }

    // The DLQ holds the poison batch plus everything diverted behind it.
    let letters_pending = pool.ops().dlq().pending(1);
    assert_eq!(letters_pending, rejected);
    for (id, _, _) in &tenants[1..] {
        assert_eq!(pool.ops().dlq().pending(*id), 0);
    }
    let chaos = &mut sessions[0];
    assert!(chaos.report().unwrap().error.is_some(), "sticky error until replay");

    // Repair (poison -> 1.0) and replay; letters carry full context.
    let mut repaired = 0;
    let replayed = chaos
        .replay_quarantined(|letter| {
            assert_eq!(letter.stream_id, 1);
            assert!(matches!(letter.op, QuarantinedOp::Ingest));
            assert!(!letter.tuples.is_empty());
            repaired += repair(&mut letter.tuples);
        })
        .unwrap();
    assert_eq!(replayed, letters_pending);
    assert_eq!(repaired, 2, "both poison tuples reach the dead-letter queue");
    assert_eq!(pool.ops().dlq().pending(1), 0);
    assert!(chaos.report().unwrap().error.is_none(), "replay clears the slot");

    // Byte-identity: pooled final state == serial run over the repaired
    // trace with the same derived seed, for every tenant.
    for (session, (id, spec, tr)) in sessions.iter_mut().zip(&tenants) {
        let mut repaired = tr.clone();
        repair(&mut repaired);
        let mut engine = spec.build(stream_seed(BASE_SEED, *id));
        let cc = cut(&repaired);
        engine.prefill_all(&repaired[..cc]).unwrap();
        engine.warm_start(&als());
        engine.ingest_all(&repaired[cc..]).unwrap();
        let serial = slicenstitch::codec::to_bytes(&EngineSnapshot {
            stream_id: *id,
            spec: spec.clone(),
            seed: spec.effective_seed(stream_seed(BASE_SEED, *id)),
            wal_seq: 0,
            state: engine.snapshot().unwrap(),
        });
        let pooled = slicenstitch::codec::to_bytes(&session.snapshot().unwrap());
        assert!(pooled == serial, "stream {id} diverged from its serial reference");
    }

    // Checkpoint for the CheckpointCommitted event, then close.
    for (_, snapshot) in pool.checkpoint_all() {
        let _ = snapshot.unwrap();
    }
    let dump = pool.ops().dump();
    let metrics = pool.ops().metrics();
    for (id, _, _) in &tenants {
        assert!(metrics.stream_ids().contains(id), "stream {id} missing from the registry");
        assert!(dump.contains(&format!("\"stream_id\":{id},")), "dump misses {id}: {dump}");
        let latency = metrics.stream(*id).latency.snapshot();
        assert!(latency.count > 0, "stream {id}: receipts must feed the histogram");
        assert!(latency.p99_us.is_finite());
    }
    let stream1 = metrics.stream(1);
    drop(sessions);
    pool.join();

    let (mut opened, mut evicted, mut quarantined, mut checkpoints) = (0, 0, 0, 0);
    for item in sub.drain() {
        if let BusItem::Event(e) = item {
            match *e {
                PoolEvent::StreamOpened { .. } => opened += 1,
                PoolEvent::StreamEvicted { .. } => evicted += 1,
                PoolEvent::TupleQuarantined { .. } => quarantined += 1,
                PoolEvent::CheckpointCommitted { streams } => {
                    checkpoints += 1;
                    assert_eq!(streams, tenants.len());
                }
                _ => {}
            }
        }
    }
    assert_eq!(opened, tenants.len());
    assert_eq!(evicted, tenants.len());
    assert_eq!(quarantined, rejected as u64);
    assert_eq!(checkpoints, 1);

    // Metrics dump sanity: quarantine counters and the dlq section.
    for key in ["\"dlq\"", "\"events\"", "\"p99_us\""] {
        assert!(dump.contains(key), "dump missing {key}: {dump}");
    }
    assert!(stream1.quarantined.load(Ordering::Relaxed) >= 1);
    assert!(stream1.replayed.load(Ordering::Relaxed) >= 1);
}

/// With `QuarantinePolicy::Disabled` there is no pre-batch capture: a
/// panic still leaves a letter for the post-mortem, but the slot goes
/// dark and keeps reporting the panic instead of serving.
#[test]
fn disabled_policy_goes_dark_but_records_the_letter() {
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: BASE_SEED,
        queue_depth: 16,
        quarantine: QuarantinePolicy::Disabled,
        ..Default::default()
    });
    let mut session = pool.open(7, sns_spec().with_chaos(ChaosConfig::default())).unwrap();
    let mut tr = trace(7, 200);
    let c = cut(&tr);
    tr[c + 5].value = POISON_VALUE;
    for chunk in tr[..c].chunks(20) {
        let _ = session.prefill_batch(chunk).unwrap();
    }
    let _ = session.warm_start(&als()).unwrap();
    let err = session.ingest_batch(&tr[c..c + 20]).unwrap_err();
    assert!(matches!(err, SnsError::EnginePanicked { stream_id: 7, .. }));
    // The slot is dark: even a clean batch now reports the panic.
    let err = session.ingest_batch(&tr[c + 20..c + 40]).unwrap_err();
    assert!(matches!(err.root_cause(), SnsError::EnginePanicked { .. }));
    assert_eq!(pool.ops().dlq().pending(7), 1, "the letter is still recorded");
    // Replay cannot resurrect a dark slot; the letter is requeued.
    let res = session.replay_quarantined(|_| {});
    assert!(matches!(res, Err(SnsError::EnginePanicked { stream_id: 7, .. })), "{res:?}");
    assert_eq!(pool.ops().dlq().pending(7), 1, "failed replay requeues the letter");
    // The refused release keeps the sticky error: the stream still reads dead.
    let error = session.report().unwrap().error;
    assert!(matches!(error, Some(SnsError::EnginePanicked { stream_id: 7, .. })), "{error:?}");
    drop(session);
    pool.join();
}

/// `SnsError::Backpressure` carries the shard, the live queue depth,
/// and the configured capacity; the blocking fallback publishes
/// onset/relief events when somebody listens.
#[test]
fn backpressure_carries_context_and_publishes_onset_relief() {
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: BASE_SEED,
        queue_depth: 2,
        ..Default::default()
    });
    let mut sub = pool.ops().subscribe();
    // A chaos delay makes the worker slow without ever poisoning.
    let spec = sns_spec().with_chaos(ChaosConfig { delay_micros: 500, ..Default::default() });
    let mut session = pool.open(3, spec).unwrap();
    let tr = trace(3, 250);
    let c = cut(&tr);
    let shard = session.shard();
    let mut typed = 0;
    for chunk in tr[c..].chunks(8) {
        match session.try_ingest_batch(chunk) {
            Ok(_) => {}
            Err(SnsError::Backpressure { stream_id, shard: s, depth, capacity }) => {
                assert_eq!(stream_id, 3);
                assert_eq!(s, shard);
                assert_eq!(capacity, 2);
                assert!(depth <= capacity);
                typed += 1;
                let _ = session.ingest_batch(chunk).unwrap();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    while let Some(receipt) = session.recv_receipt() {
        let receipt = receipt.unwrap();
        assert!(receipt.latency > Duration::ZERO, "receipts carry enqueue->ack latency");
    }
    assert!(typed > 0, "the tiny queue must reject at least once");
    let p99 = pool.ops().metrics().stream(3).latency.snapshot().p99_us;
    drop(session);
    pool.join();
    let (mut onsets, mut reliefs) = (0, 0);
    for item in sub.drain() {
        if let BusItem::Event(e) = item {
            match *e {
                PoolEvent::BackpressureOnset { stream_id: 3, capacity: 2, .. } => onsets += 1,
                PoolEvent::BackpressureRelief { stream_id: 3, .. } => reliefs += 1,
                _ => {}
            }
        }
    }
    assert!(onsets > 0 && reliefs > 0, "onset/relief must reach the bus");
    assert!(p99 > 0.0, "slow engine latency must show in the histogram");
}

/// A receipt's latency runs from enqueue to the moment the session pulls
/// it. Receipts that a blocking call (`report`) pulls on behalf of
/// earlier pipelined batches are stamped then and buffered: receipt `j`
/// waited behind batches `j..k`, which a slow engine runs one after
/// another after `j` was enqueued. Each buffered receipt is recorded into
/// the stream's latency histogram exactly once.
#[test]
fn buffered_receipts_carry_enqueue_to_pull_latency() {
    const ID: u64 = 21;
    const K: usize = 6; // pipelined batches
    const N: usize = 4; // tuples per batch
    const D: u64 = 300; // chaos delay per tuple, µs
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: BASE_SEED,
        queue_depth: 4 * K,
        ..Default::default()
    });
    let spec = sns_spec().with_chaos(ChaosConfig { delay_micros: D, ..Default::default() });
    let mut session = pool.open(ID, spec).unwrap();
    let metrics = pool.ops().metrics().stream(ID);
    let recorded_before = metrics.latency.snapshot().count;
    let tr = trace(ID, 300);
    let c = cut(&tr);
    let tickets: Vec<u64> = tr[c..c + K * N]
        .chunks(N)
        .map(|chunk| session.try_ingest_batch(chunk).expect("queue deep enough"))
        .collect();
    // Let the worker apply all K batches, so every receipt is already
    // waiting on the reply channel when `report` pulls it.
    while metrics.batches.load(Ordering::Relaxed) < K as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(session.report().unwrap().error, None);
    assert_eq!(session.in_flight(), K, "report buffers the receipts, it does not claim them");
    for (j, &ticket) in tickets.iter().enumerate() {
        let receipt = session.recv_receipt().expect("buffered receipt").unwrap();
        assert_eq!(receipt.ticket, ticket, "tickets arrive in order");
        assert_eq!(receipt.accepted, N);
        let floor = Duration::from_micros(((K - j) * N) as u64 * D);
        assert!(receipt.latency >= floor, "receipt {j}: {:?} < {floor:?}", receipt.latency);
    }
    assert!(session.recv_receipt().is_none());
    assert_eq!(metrics.latency.snapshot().count, recorded_before + K as u64);
    drop(session);
    pool.join();
}

/// A journal that remembers `(seq, ticket, kind)` per record of one stream.
struct RecordingJournal {
    stream_id: u64,
    records: Mutex<Vec<(u64, u64, &'static str)>>,
}

impl BatchJournal for RecordingJournal {
    fn record(&self, entry: JournalEntry<'_>) {
        if entry.stream_id == self.stream_id {
            self.records.lock().unwrap().push((entry.seq, entry.ticket, entry.op.kind()));
        }
    }
}

/// Everything observable about one run of [`group_panic_run`].
#[derive(Debug, PartialEq)]
struct GroupRun {
    receipts: Vec<Result<(u64, usize, u64), SnsError>>,
    letters: Vec<(u64, QuarantinedOp, SnsError)>,
    journal: Vec<(u64, u64, &'static str)>,
    replay: Result<usize, SnsError>,
    snapshot: Result<Vec<u8>, SnsError>,
}

/// Feeds 17 live batches, the third poisoned, to a chaos stream on a
/// one-shard pool whose worker a slow co-tenant keeps busy. Pipelined,
/// the batches queue up behind the co-tenant and the worker applies them
/// as one coalesced group; blocking, each batch is a group of one.
/// Returns the run's observables and the number of batch groups the
/// stream's batches formed.
fn group_panic_run(policy: QuarantinePolicy, pipelined: bool) -> (GroupRun, u64) {
    const ID: u64 = 11;
    let journal = Arc::new(RecordingJournal { stream_id: ID, records: Mutex::new(Vec::new()) });
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: BASE_SEED,
        queue_depth: 64,
        quarantine: policy,
        journal: Some(journal.clone()),
        ..Default::default()
    });
    let mut session = pool.open(ID, sns_spec().with_chaos(ChaosConfig::default())).unwrap();
    let mut tr = trace(ID, 400);
    let c = cut(&tr);
    tr[c + 2 * 20 + 5].value = POISON_VALUE;
    for chunk in tr[..c].chunks(20) {
        let _ = session.prefill_batch(chunk).unwrap();
    }
    let _ = session.warm_start(&als()).unwrap();
    let batches: Vec<&[StreamTuple]> = tr[c..].chunks(20).take(17).collect();
    assert_eq!(batches.len(), 17);

    let slow = sns_spec().with_chaos(ChaosConfig { delay_micros: 5_000, ..Default::default() });
    let mut busy = pool.open(12, slow).unwrap();
    let groups = || pool.ops().metrics().shard(0).ingest_groups.load(Ordering::Relaxed);
    let before = groups();
    let _ = busy.try_ingest_batch(&trace(12, 400)[..40]).unwrap();
    let receipts: Vec<_> = if pipelined {
        for batch in &batches {
            let _ = session.try_ingest_batch(batch).unwrap();
        }
        std::iter::from_fn(|| session.recv_receipt()).collect()
    } else {
        batches.iter().map(|batch| session.ingest_batch(batch)).collect()
    };
    assert!(busy.recv_receipt().unwrap().is_ok());
    // One of the groups is the co-tenant's.
    let stream_groups = groups() - before - 1;

    let mut letters = Vec::new();
    let replay = session.replay_quarantined(|letter| {
        letters.push((letter.ticket, letter.op, letter.error.clone()));
        repair(&mut letter.tuples);
    });
    let snapshot = session.snapshot().map(|s| slicenstitch::codec::to_bytes(&s));
    let journal = journal.records.lock().unwrap().clone();
    let receipts =
        receipts.into_iter().map(|r| r.map(|r| (r.ticket, r.accepted, r.updates))).collect();
    drop((session, busy));
    pool.join();
    (GroupRun { receipts, letters, journal, replay, snapshot }, stream_groups)
}

/// A panic in the middle of a coalesced group (rollback to the group's
/// pre-state, re-apply of the completed prefix, quarantine or darkening,
/// refusal of the remainder) is indistinguishable from per-batch
/// execution: same receipts, letters, journal records, and final bytes.
#[test]
fn panic_mid_coalesced_group_matches_per_batch_execution() {
    for policy in [QuarantinePolicy::Rollback, QuarantinePolicy::Disabled] {
        let (grouped, grouped_count) = group_panic_run(policy, true);
        let (serial, serial_count) = group_panic_run(policy, false);
        assert_eq!(grouped_count, 1, "{policy:?}: the 17 pipelined batches must coalesce");
        assert_eq!(serial_count, 17, "{policy:?}: blocking batches are groups of one");
        assert_eq!(grouped, serial, "{policy:?}");

        let errors: Vec<_> = grouped.receipts.iter().map(|r| r.as_ref().err()).collect();
        assert!(errors[..2].iter().all(Option::is_none), "{policy:?}: prefix applies");
        assert!(matches!(errors[2], Some(SnsError::EnginePanicked { .. })), "{policy:?}");
        assert!(errors[3..].iter().all(Option::is_some), "{policy:?}: remainder refused");
        match policy {
            QuarantinePolicy::Rollback => {
                assert_eq!(grouped.letters.len(), 15, "poison batch + 14 diverted behind it");
                assert_eq!(grouped.replay, Ok(15));
                assert!(grouped.snapshot.is_ok());
            }
            QuarantinePolicy::Disabled => {
                assert_eq!(grouped.letters.len(), 1, "only the poison batch is recorded");
                assert!(matches!(grouped.replay, Err(SnsError::EnginePanicked { .. })));
                assert!(matches!(grouped.snapshot, Err(SnsError::EnginePanicked { .. })));
            }
        }
    }
}

/// A poisoned *prefill* batch quarantines like a live one: its letter is
/// a prefill letter, the warm start is refused until replay, and the
/// repaired stream ends byte-identical to a serial run over the
/// repaired trace.
#[test]
fn poisoned_prefill_batch_quarantines_and_replays_bitwise() {
    let pool = EnginePool::new(PoolConfig {
        shards: 2,
        base_seed: BASE_SEED,
        queue_depth: 16,
        ..Default::default()
    });
    let spec = sns_spec().with_chaos(ChaosConfig::default());
    let mut session = pool.open(5, spec.clone()).unwrap();
    let mut tr = trace(5, 400);
    let c = cut(&tr);
    assert!(c > 16, "the prefill needs at least three batches");
    tr[10].value = POISON_VALUE;
    let results: Vec<_> = tr[..c].chunks(8).map(|chunk| session.prefill_batch(chunk)).collect();
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(SnsError::EnginePanicked { stream_id: 5, .. })));
    assert!(results[2..].iter().all(|r| matches!(r, Err(SnsError::StreamQuarantined { .. }))));
    assert!(matches!(session.warm_start(&als()), Err(SnsError::StreamQuarantined { .. })));

    let replayed = session
        .replay_quarantined(|letter| {
            assert_eq!(letter.op, QuarantinedOp::Prefill);
            repair(&mut letter.tuples);
        })
        .unwrap();
    assert_eq!(replayed, results.len() - 1);
    let _ = session.warm_start(&als()).unwrap();
    for chunk in tr[c..].chunks(20) {
        let _ = session.ingest_batch(chunk).unwrap();
    }

    tr[10].value = 1.0;
    let mut engine = spec.build(stream_seed(BASE_SEED, 5));
    engine.prefill_all(&tr[..c]).unwrap();
    engine.warm_start(&als());
    engine.ingest_all(&tr[c..]).unwrap();
    let serial = slicenstitch::codec::to_bytes(&EngineSnapshot {
        stream_id: 5,
        spec: spec.clone(),
        seed: spec.effective_seed(stream_seed(BASE_SEED, 5)),
        wal_seq: 0,
        state: engine.snapshot().unwrap(),
    });
    let pooled = slicenstitch::codec::to_bytes(&session.snapshot().unwrap());
    assert_eq!(pooled, serial, "repaired prefill diverged from its serial reference");
}

/// Quarantine rollback restores whatever engine the chaos wrapper holds,
/// not only SNS⁺_RND: SNS⁺_VEC, all four baselines and an
/// anomaly-decorated SNS⁺_RND each take one poison tuple mid-stream, are
/// rolled back to their pre-group capture, and replay their repaired
/// letters to a state byte-identical to a serial run over the repaired
/// trace.
#[test]
fn every_engine_family_rolls_back_and_replays_bitwise() {
    let pool = EnginePool::new(PoolConfig {
        shards: 2,
        base_seed: BASE_SEED,
        queue_depth: 16,
        ..Default::default()
    });
    let baseline = |algo| EngineSpec::baseline(&DIMS, W, T, 2, algo);
    let inner = [
        sns(AlgorithmKind::PlusVec),
        baseline(BaselineKind::AlsPeriodic { sweeps: 1 }),
        baseline(BaselineKind::OnlineScp),
        baseline(BaselineKind::CpStream { decay: 0.98, iters: 2 }),
        baseline(BaselineKind::NeCpd { epochs: 2 }),
        sns_spec().with_anomaly(AnomalyConfig::default()),
    ];
    for (i, spec) in inner.into_iter().enumerate() {
        let id = 40 + i as u64;
        let spec = spec.with_chaos(ChaosConfig::default());
        let mut tr = trace(id, 300);
        let c = cut(&tr);
        let poison = c + (tr.len() - c) / 2;
        tr[poison].value = POISON_VALUE;

        let mut session = pool.open(id, spec.clone()).unwrap();
        let rejected = drive(&mut session, &tr).unwrap();
        assert!(rejected >= 1, "stream {id}: the poison batch must be rejected");
        let mut repaired = 0;
        let replayed =
            session.replay_quarantined(|letter| repaired += repair(&mut letter.tuples)).unwrap();
        assert_eq!(replayed, rejected, "stream {id}");
        assert_eq!(repaired, 1, "stream {id}: the poison tuple reaches the dead-letter queue");

        repair(&mut tr);
        let mut engine = spec.build(stream_seed(BASE_SEED, id));
        engine.prefill_all(&tr[..c]).unwrap();
        engine.warm_start(&als());
        engine.ingest_all(&tr[c..]).unwrap();
        let serial = slicenstitch::codec::to_bytes(&EngineSnapshot {
            stream_id: id,
            spec: spec.clone(),
            seed: spec.effective_seed(stream_seed(BASE_SEED, id)),
            wal_seq: 0,
            state: engine.snapshot().unwrap(),
        });
        let pooled = slicenstitch::codec::to_bytes(&session.snapshot().unwrap());
        assert!(
            pooled == serial,
            "stream {id} ({}) diverged from its serial reference",
            engine.name()
        );
    }
    pool.join();
}
