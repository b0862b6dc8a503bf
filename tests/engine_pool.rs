//! Session-based `EnginePool` contract:
//!
//! - pooled **batched** ingestion is bitwise-identical to serial
//!   per-tuple ingestion of the same engine specs with the same derived
//!   seeds (property-tested over random streams and batch shapes);
//! - snapshot → restore → continue is bitwise-identical to a run that
//!   never migrated (within a pool, and across pools);
//! - bounded shard queues apply flow control without deadlocking when
//!   producers outrun a slow shard, and non-blocking submits surface
//!   typed backpressure;
//! - open/restore routing is per-stream: a saturated unrelated shard
//!   cannot stall an open, and racing `open`/`restore` of one id always
//!   leaves exactly one live session (regression tests for the PR-2
//!   blocking-`Evict`-broadcast hazards).

use proptest::prelude::*;
use slicenstitch::core::als::AlsOptions;
use slicenstitch::core::{AlgorithmKind, SnsConfig};
use slicenstitch::data::{generate, GeneratorConfig};
use slicenstitch::runtime::pool::stream_seed;
use slicenstitch::runtime::{
    BaselineKind, EnginePool, EngineSpec, PoolConfig, SnsError, StreamSession,
};
use slicenstitch::stream::StreamTuple;

const BASE_DIMS: [usize; 2] = [12, 10];
const W: usize = 4;
const T: u64 = 50;
const BASE_SEED: u64 = 0x900d;

/// Streams 0..N: even ids run a continuous SNS engine, odd ids a
/// periodic OnlineSCP baseline — the pool serves both families at once.
fn tenant_spec(id: u64) -> EngineSpec {
    if id % 2 == 0 {
        let config = SnsConfig { rank: 3, theta: 10, ..Default::default() };
        EngineSpec::sns(&BASE_DIMS, W, T, AlgorithmKind::PlusRnd, &config)
    } else {
        EngineSpec::baseline(&BASE_DIMS, W, T, 3, BaselineKind::OnlineScp)
    }
}

fn tuples_for(id: u64) -> Vec<StreamTuple> {
    generate(&GeneratorConfig {
        base_dims: BASE_DIMS.to_vec(),
        n_components: 3,
        events: 900,
        duration: 5 * W as u64 * T,
        day_ticks: 40,
        seed: 0xfeed + id,
        ..Default::default()
    })
}

fn als_opts() -> AlsOptions {
    AlsOptions { max_iters: 15, tol: 1e-4, ..Default::default() }
}

/// Serial reference: one engine per stream, full protocol, per-tuple
/// ingestion, same spec, same derived seed.
fn run_serial(id: u64) -> (String, f64, u64) {
    let mut engine = tenant_spec(id).build(stream_seed(BASE_SEED, id));
    let tuples = tuples_for(id);
    let cut = tuples.partition_point(|t| t.time <= W as u64 * T);
    engine.prefill_all(&tuples[..cut]).unwrap();
    engine.warm_start(&als_opts());
    for tu in &tuples[cut..] {
        engine.ingest(*tu).unwrap();
    }
    engine.advance_to(6 * W as u64 * T);
    (engine.name(), engine.fitness(), engine.updates_applied())
}

#[test]
fn pooled_batched_streams_match_serial_execution_bitwise() {
    let ids: Vec<u64> = (0..6).collect();
    let serial: Vec<(String, f64, u64)> = ids.iter().map(|&id| run_serial(id)).collect();

    let pool = EnginePool::new(PoolConfig {
        shards: 3,
        base_seed: BASE_SEED,
        queue_depth: 64,
        ..Default::default()
    });
    let mut sessions: Vec<StreamSession> =
        ids.iter().map(|&id| pool.open(id, tenant_spec(id)).unwrap()).collect();
    let streams: Vec<Vec<StreamTuple>> = ids.iter().map(|&id| tuples_for(id)).collect();
    let cuts: Vec<usize> =
        streams.iter().map(|s| s.partition_point(|t| t.time <= W as u64 * T)).collect();

    // Interleave batches across streams so shards genuinely run
    // concurrently rather than one stream at a time.
    let max_prefill = cuts.iter().copied().max().unwrap();
    for lo in (0..max_prefill).step_by(40) {
        for (session, (s, &cut)) in sessions.iter_mut().zip(streams.iter().zip(&cuts)) {
            if lo < cut {
                let receipt = session.prefill_batch(&s[lo..(lo + 40).min(cut)]).unwrap();
                assert_eq!(receipt.updates, 0, "prefill must not update factors");
            }
        }
    }
    for session in &mut sessions {
        let _ = session.warm_start(&als_opts()).unwrap();
    }
    let max_live = streams.iter().zip(&cuts).map(|(s, &c)| s.len() - c).max().unwrap();
    for off in (0..max_live).step_by(40) {
        for (session, (s, &cut)) in sessions.iter_mut().zip(streams.iter().zip(&cuts)) {
            let lo = cut + off;
            if lo < s.len() {
                let _ = session.ingest_batch(&s[lo..(lo + 40).min(s.len())]).unwrap();
            }
        }
    }
    for session in &mut sessions {
        let receipt = session.advance_to(6 * W as u64 * T).unwrap();
        assert_eq!(receipt.accepted, 0);
    }

    for (session, (name, fitness, updates)) in sessions.iter_mut().zip(&serial) {
        let report = session.report().unwrap();
        let id = report.stream_id;
        assert_eq!(report.error, None, "stream {id} errored");
        assert_eq!(&report.name, name, "stream {id} engine family");
        assert_eq!(
            report.fitness.to_bits(),
            fitness.to_bits(),
            "stream {id}: pooled fitness {} vs serial {fitness}",
            report.fitness
        );
        assert_eq!(report.updates_applied, *updates, "stream {id} update count");
        assert!(!report.diverged, "stream {id} diverged");
    }
    drop(sessions);
    pool.join();
}

#[test]
fn pool_serves_more_streams_than_shards() {
    let pool = EnginePool::new(PoolConfig {
        shards: 2,
        base_seed: 7,
        queue_depth: 32,
        ..Default::default()
    });
    let ids: Vec<u64> = (100..116).collect();
    let mut sessions: Vec<StreamSession> =
        ids.iter().map(|&id| pool.open(id, tenant_spec(id)).unwrap()).collect();
    for (session, &id) in sessions.iter_mut().zip(&ids) {
        // Spread arrivals across several periods so the periodic
        // engines (odd ids) complete window slides too.
        let tuples: Vec<StreamTuple> = (0..40u64)
            .map(|t| StreamTuple::new([(t % 12) as u32, ((t + id) % 10) as u32], 1.0, t * 10))
            .collect();
        let receipt = session.ingest_batch(&tuples).unwrap();
        assert_eq!(receipt.accepted, 40);
    }
    for session in &mut sessions {
        let r = session.report().unwrap();
        assert_eq!(r.error, None);
        assert!(r.updates_applied > 0, "stream {} applied no updates", r.stream_id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pooled batched ingestion ≡ serial per-tuple ingestion, bitwise at
    /// every checkpoint, for arbitrary streams, batch sizes, shard
    /// counts, and both engine families.
    #[test]
    fn pooled_batched_equals_serial_per_tuple(
        stream_seed_offset in 0u64..1_000,
        batch in 1usize..70,
        shards in 1usize..5,
        continuous in (0u8..2).prop_map(|v| v == 0),
    ) {
        let id = stream_seed_offset; // doubles as the stream id
        let spec = if continuous {
            tenant_spec(0) // even ⇒ SNS⁺_RND
        } else {
            tenant_spec(1) // odd ⇒ OnlineSCP
        };
        let tuples = generate(&GeneratorConfig {
            base_dims: BASE_DIMS.to_vec(),
            n_components: 2,
            events: 300,
            duration: 4 * W as u64 * T,
            day_ticks: 40,
            seed: 0xabc0 + stream_seed_offset,
            ..Default::default()
        });

        // Serial per-tuple reference with the pool's derived seed,
        // checkpointing after every `3 * batch` tuples.
        let mut engine = spec.clone().build(stream_seed(BASE_SEED, id));
        let mut serial_marks = Vec::new();
        for (i, tu) in tuples.iter().enumerate() {
            engine.ingest(*tu).unwrap();
            if (i + 1) % (3 * batch) == 0 {
                serial_marks.push((engine.fitness().to_bits(), engine.updates_applied()));
            }
        }
        serial_marks.push((engine.fitness().to_bits(), engine.updates_applied()));

        // Pooled batched run, same checkpoints via `report()`.
        let pool = EnginePool::new(PoolConfig { shards, base_seed: BASE_SEED, queue_depth: 16, ..Default::default() });
        let mut session = pool.open(id, spec).unwrap();
        let mut pooled_marks = Vec::new();
        let mut done = 0usize;
        for chunk in tuples.chunks(batch) {
            let _ = session.ingest_batch(chunk).unwrap();
            done += chunk.len();
            if done % (3 * batch) == 0 {
                let r = session.report().unwrap();
                pooled_marks.push((r.fitness.to_bits(), r.updates_applied));
            }
        }
        let r = session.report().unwrap();
        prop_assert_eq!(r.error, None);
        pooled_marks.push((r.fitness.to_bits(), r.updates_applied));

        prop_assert_eq!(serial_marks, pooled_marks);
        drop(session);
        pool.join();
    }

    /// Snapshot → restore → continue is bitwise-identical to a run that
    /// never migrated, for arbitrary migration points and target shards.
    #[test]
    fn snapshot_restore_round_trip_is_bitwise(
        case_seed in 0u64..1_000,
        cut_per_mille in 1usize..1_000,
        target_shard in 0usize..3,
        cross_pool in (0u8..2).prop_map(|v| v == 0),
    ) {
        let id = 0xb0b + case_seed;
        let spec = tenant_spec(0);
        let tuples = generate(&GeneratorConfig {
            base_dims: BASE_DIMS.to_vec(),
            n_components: 2,
            events: 240,
            duration: 4 * W as u64 * T,
            day_ticks: 40,
            seed: 0xdead + case_seed,
            ..Default::default()
        });
        let cut = (tuples.len() * cut_per_mille / 1_000).max(1).min(tuples.len() - 1);

        // Unmigrated reference.
        let mut reference = spec.clone().build(stream_seed(BASE_SEED, id));
        for tu in &tuples {
            reference.ingest(*tu).unwrap();
        }

        // Migrated run: ingest to `cut`, snapshot, close, restore on an
        // explicit shard (of this pool or a brand-new one), continue.
        let pool = EnginePool::new(PoolConfig { shards: 3, base_seed: BASE_SEED, queue_depth: 16, ..Default::default() });
        let mut session = pool.open(id, spec).unwrap();
        let _ = session.ingest_batch(&tuples[..cut]).unwrap();
        let snapshot = session.snapshot().unwrap();
        prop_assert_eq!(snapshot.stream_id, id);
        prop_assert_eq!(snapshot.seed, stream_seed(BASE_SEED, id));
        session.close();

        let other_pool;
        let restored_into = if cross_pool {
            other_pool = EnginePool::new(PoolConfig {
                shards: 3,
                base_seed: 0x0ddba11, // irrelevant: the state carries its own seed history
                queue_depth: 16,
                ..Default::default()
            });
            &other_pool
        } else {
            &pool
        };
        let mut migrated = restored_into.restore(snapshot, target_shard).unwrap();
        prop_assert_eq!(migrated.shard(), target_shard);
        let _ = migrated.ingest_batch(&tuples[cut..]).unwrap();
        let report = migrated.report().unwrap();
        prop_assert_eq!(report.error, None);
        prop_assert_eq!(report.fitness.to_bits(), reference.fitness().to_bits());
        prop_assert_eq!(report.updates_applied, reference.updates_applied());
    }
}

/// Smallest stream id served by the given shard.
fn id_on_shard(pool: &EnginePool, shard: usize) -> u64 {
    (0u64..).find(|&id| pool.shard_of(id) == shard).expect("some id hashes to every shard")
}

/// Regression (PR-2 hazard, fixed in PR-4): `open`/`restore` used to
/// broadcast a *blocking* `Evict` to every shard, so an open of a fresh
/// stream stalled behind any saturated shard. With the stream→shard
/// ownership map, an open only ever touches the target shard (and the
/// one shard that owns the id, if different) — a saturated unrelated
/// shard is irrelevant.
#[test]
fn open_is_not_stalled_by_a_saturated_unrelated_shard() {
    // SNS_MAT runs one full ALS sweep per event: deliberately slow.
    let slow_spec = EngineSpec::sns(
        &[32, 32],
        8,
        50,
        AlgorithmKind::Mat,
        &SnsConfig { rank: 16, ..Default::default() },
    );
    let pool = EnginePool::new(PoolConfig {
        shards: 2,
        base_seed: 1,
        queue_depth: 1,
        ..Default::default()
    });
    let slow_id = id_on_shard(&pool, 0);
    let mut slow = pool.open(slow_id, slow_spec).unwrap();
    let tuples: Vec<StreamTuple> = (0..1_800u64)
        .map(|t| StreamTuple::new([(t % 32) as u32, ((t * 7) % 32) as u32], 1.0, t / 4))
        .collect();

    // Calibrate how long shard 0 takes to chew one batch (blocking call).
    let start = std::time::Instant::now();
    let _ = slow.ingest_batch(&tuples[..600]).unwrap();
    let batch_time = start.elapsed();

    // Saturate shard 0: two pipelined batches (retrying past transient
    // backpressure) leave one batch *parked in the depth-1 queue* while
    // the worker chews the other — the queue stays full for about one
    // whole batch time from here.
    for chunk in tuples[600..].chunks(600) {
        loop {
            match slow.try_ingest_batch(chunk) {
                Ok(_) => break,
                Err(SnsError::Backpressure { .. }) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    // Shard 0 now has ≳ one full batch of queued work. Opening a stream
    // on shard 1 must not wait for any of it.
    let other_id = id_on_shard(&pool, 1);
    let start = std::time::Instant::now();
    let mut fresh = pool.open(other_id, tenant_spec(0)).unwrap();
    let open_time = start.elapsed();
    assert_eq!(fresh.shard(), 1);
    assert!(
        open_time < batch_time / 2,
        "open took {open_time:?} while an unrelated shard was saturated \
         (one slow batch takes {batch_time:?}) — evict broadcast stall?"
    );
    let _ = fresh.ingest_batch(&tuples_for(0)[..40]).unwrap();
    assert_eq!(fresh.report().unwrap().error, None);
    while let Some(receipt) = slow.recv_receipt() {
        let _ = receipt.unwrap();
    }
    drop((slow, fresh));
    pool.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Regression (PR-2 hazard, fixed in PR-4): racing `open` and
    /// `restore` of the same stream id used to interleave their evict
    /// broadcasts so the id could end up live on two shards at once.
    /// Ownership claims are now atomic per stream: whatever the
    /// interleaving, exactly one of the two sessions survives.
    #[test]
    fn racing_open_and_restore_leave_exactly_one_live_session(
        case_seed in 0u64..1_000,
        shard_offset in 1usize..3,
        stagger_us in 0u64..50,
    ) {
        let id = 0xace + case_seed;
        let pool = EnginePool::new(PoolConfig { shards: 3, base_seed: case_seed, queue_depth: 8, ..Default::default() });
        let tuples = tuples_for(id);

        // Seed a snapshot to restore from, then close the seeding session.
        let mut seeded = pool.open(id, tenant_spec(0)).unwrap();
        let _ = seeded.ingest_batch(&tuples[..40]).unwrap();
        let snapshot = seeded.snapshot().unwrap();
        seeded.close();
        // Restore deliberately targets a different shard than open's hash
        // shard — the cross-shard race the broadcast version lost.
        let target = (pool.shard_of(id) + shard_offset) % pool.shards();

        let barrier = std::sync::Barrier::new(2);
        let (opened, restored) = std::thread::scope(|scope| {
            let open_handle = scope.spawn(|| {
                barrier.wait();
                pool.open(id, tenant_spec(0))
            });
            let restore_handle = scope.spawn(|| {
                barrier.wait();
                std::thread::sleep(std::time::Duration::from_micros(stagger_us));
                pool.restore(snapshot, target)
            });
            (open_handle.join().unwrap(), restore_handle.join().unwrap())
        });

        let mut live = 0;
        for session in [opened, restored] {
            let mut session = session.unwrap();
            if let Ok(report) = session.report() {
                prop_assert_eq!(report.error, None);
                live += 1;
                // The survivor must still serve the stream.
                let _ = session.ingest_batch(&tuples[40..60]).unwrap();
            }
        }
        prop_assert_eq!(live, 1, "stream {} live on {} sessions", id, live);
        pool.join();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Worker-side batch coalescing (PR 10) must be invisible: a
    /// pipelined run keeps many batches queued ahead of the worker, so
    /// it drains and coalesces an arbitrary, scheduling-dependent
    /// number of them per group — and the result must stay bitwise
    /// identical to serial per-tuple ingestion for every engine
    /// family, including the RNG-draw-order-sensitive SNS_RND /
    /// SNS⁺_RND (coalescing must not reorder or fuse sampling draws).
    #[test]
    fn pipelined_coalesced_ingest_equals_serial_per_tuple(
        case_seed in 0u64..1_000,
        batch in 1usize..40,
        shards in 1usize..4,
        family in 0usize..6,
    ) {
        let id = case_seed;
        let config = SnsConfig { rank: 3, theta: 10, ..Default::default() };
        let spec = match family {
            0 => EngineSpec::sns(&BASE_DIMS, W, T, AlgorithmKind::Vec, &config),
            1 => EngineSpec::sns(&BASE_DIMS, W, T, AlgorithmKind::Rnd, &config),
            2 => EngineSpec::sns(&BASE_DIMS, W, T, AlgorithmKind::PlusVec, &config),
            3 => EngineSpec::sns(&BASE_DIMS, W, T, AlgorithmKind::PlusRnd, &config),
            4 => EngineSpec::sns(&BASE_DIMS, W, T, AlgorithmKind::Mat, &config),
            _ => EngineSpec::baseline(&BASE_DIMS, W, T, 3, BaselineKind::OnlineScp),
        };
        // SNS_MAT runs a full ALS sweep per event; keep its case short.
        let events = if family == 4 { 100 } else { 300 };
        let tuples = generate(&GeneratorConfig {
            base_dims: BASE_DIMS.to_vec(),
            n_components: 2,
            events,
            duration: 4 * W as u64 * T,
            day_ticks: 40,
            seed: 0x5eed0 + case_seed,
            ..Default::default()
        });

        // Serial per-tuple reference with the pool's derived seed.
        let mut engine = spec.clone().build(stream_seed(BASE_SEED, id));
        for tu in &tuples {
            engine.ingest(*tu).unwrap();
        }
        let expected = (engine.fitness().to_bits(), engine.updates_applied());

        // Pipelined pooled run: stack submissions ahead of the worker.
        let pool = EnginePool::new(PoolConfig {
            shards,
            base_seed: BASE_SEED,
            queue_depth: 32,
            ..Default::default()
        });
        let mut session = pool.open(id, spec).unwrap();
        for chunk in tuples.chunks(batch) {
            loop {
                match session.try_ingest_batch(chunk) {
                    Ok(_) => break,
                    Err(SnsError::Backpressure { .. }) => {
                        // Free one slot but keep the queue deep so the
                        // worker keeps finding batches to coalesce.
                        if let Some(r) = session.recv_receipt() {
                            let _ = r.unwrap();
                        }
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
        while let Some(r) = session.recv_receipt() {
            let _ = r.unwrap();
        }
        let report = session.report().unwrap();
        prop_assert_eq!(report.error, None);
        prop_assert_eq!(
            (report.fitness.to_bits(), report.updates_applied),
            expected,
            "family {} diverged from serial under coalescing",
            family
        );
        drop(session);
        pool.join();
    }

    /// Batch buffers must never leak tuples across streams: two streams
    /// of different engine families share one shard — hence one command
    /// queue and one coalescing worker — with interleaved pipelined
    /// batches of different sizes. Both must still match their serial
    /// references bitwise.
    #[test]
    fn recycled_buffers_never_leak_tuples_across_streams(
        case_seed in 0u64..1_000,
        batch_a in 1usize..30,
        batch_b in 1usize..30,
    ) {
        let ids = [2 * case_seed, 2 * case_seed + 1]; // SNS⁺_RND + OnlineSCP
        let streams: Vec<Vec<StreamTuple>> = ids
            .iter()
            .map(|&id| {
                generate(&GeneratorConfig {
                    base_dims: BASE_DIMS.to_vec(),
                    n_components: 2,
                    events: 300,
                    duration: 4 * W as u64 * T,
                    day_ticks: 40,
                    seed: 0x1ee7 + id,
                    ..Default::default()
                })
            })
            .collect();

        let serial: Vec<(u64, u64)> = ids
            .iter()
            .zip(&streams)
            .map(|(&id, tuples)| {
                let mut engine = tenant_spec(id).build(stream_seed(BASE_SEED, id));
                for tu in tuples {
                    engine.ingest(*tu).unwrap();
                }
                (engine.fitness().to_bits(), engine.updates_applied())
            })
            .collect();

        let pool = EnginePool::new(PoolConfig {
            shards: 1, // both streams on one worker: shared queue
            base_seed: BASE_SEED,
            queue_depth: 16,
            ..Default::default()
        });
        let mut sessions: Vec<StreamSession> =
            ids.iter().map(|&id| pool.open(id, tenant_spec(id)).unwrap()).collect();
        let batches = [batch_a, batch_b];
        let mut offs = [0usize, 0];
        while offs[0] < streams[0].len() || offs[1] < streams[1].len() {
            for k in 0..2 {
                if offs[k] >= streams[k].len() {
                    continue;
                }
                let hi = (offs[k] + batches[k]).min(streams[k].len());
                match sessions[k].try_ingest_batch(&streams[k][offs[k]..hi]) {
                    Ok(_) => offs[k] = hi,
                    Err(SnsError::Backpressure { .. }) => {
                        if let Some(r) = sessions[k].recv_receipt() {
                            let _ = r.unwrap();
                        }
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
        for (session, &(fitness, updates)) in sessions.iter_mut().zip(&serial) {
            while let Some(r) = session.recv_receipt() {
                let _ = r.unwrap();
            }
            let report = session.report().unwrap();
            prop_assert_eq!(report.error, None);
            prop_assert_eq!(
                report.fitness.to_bits(),
                fitness,
                "stream {} fitness corrupted by a recycled buffer",
                report.stream_id
            );
            prop_assert_eq!(report.updates_applied, updates);
        }
        drop(sessions);
        pool.join();
    }
}

/// A producer thread hammering a deliberately slow shard (SNS_MAT: one
/// full ALS sweep per event) through a depth-2 queue must neither
/// deadlock nor drop batches: blocking submits apply flow control,
/// non-blocking submits surface typed backpressure.
#[test]
fn bounded_queue_applies_flow_control_without_deadlock() {
    let slow_spec = EngineSpec::sns(
        &BASE_DIMS,
        W,
        T,
        AlgorithmKind::Mat, // full ALS sweep per event — slow on purpose
        &SnsConfig { rank: 3, ..Default::default() },
    );
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: 1,
        queue_depth: 2,
        ..Default::default()
    });
    let mut session = pool.open(0, slow_spec).unwrap();
    let tuples = tuples_for(0);

    let producer = std::thread::spawn(move || {
        let mut accepted = 0usize;
        let mut backpressured = 0usize;
        // Phase 1: pipelined submits — the tiny queue must push back.
        for chunk in tuples[..600].chunks(8) {
            match session.try_ingest_batch(chunk) {
                Ok(_) => {}
                Err(SnsError::Backpressure { capacity: 2, .. }) => {
                    backpressured += 1;
                    // Blocking path: waits for space instead of buffering.
                    accepted += session.ingest_batch(chunk).unwrap().accepted;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        while let Some(receipt) = session.recv_receipt() {
            accepted += receipt.unwrap().accepted;
        }
        // Phase 2: pure blocking submits outrunning the worker.
        for chunk in tuples[600..900].chunks(8) {
            accepted += session.ingest_batch(chunk).unwrap().accepted;
        }
        assert_eq!(session.in_flight(), 0);
        (session, accepted, backpressured)
    });

    let (mut session, accepted, backpressured) =
        producer.join().expect("producer must not deadlock or panic");
    assert_eq!(accepted, 900, "every submitted tuple must be acknowledged");
    assert!(
        backpressured > 0,
        "a depth-2 queue in front of SNS_MAT must reject some non-blocking submits"
    );
    let report = session.report().unwrap();
    assert_eq!(report.error, None);
    assert!(report.updates_applied >= 900);
    drop(session);
    pool.join();
}
