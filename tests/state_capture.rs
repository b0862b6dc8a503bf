//! Universal state capture contract, end to end:
//!
//! - every engine family (continuous SNS, all four conventional
//!   baselines, the anomaly decorator) snapshots mid-stream, round-trips
//!   through the versioned **binary** codec, and continues
//!   bitwise-identically to an engine that was never frozen
//!   (property-tested over random streams and capture points);
//! - `to_bytes ∘ from_bytes` is the identity on bytes (the encoding is
//!   canonical);
//! - truncating a snapshot at every section boundary and flipping
//!   checksum bytes yield typed `SnsError::Codec` values, never panics;
//! - a checked-in golden fixture decodes and re-encodes byte-identically,
//!   so any wire-format drift without a `SCHEMA_VERSION` bump fails CI;
//! - a pooled fleet of every family killed mid-trace, recovered from
//!   disk (checkpoint only, or checkpoint + WAL tail) and finished ends
//!   byte-identical to a fleet that never crashed;
//! - recovery is all-or-nothing, on a corrupt snapshot and on a bad
//!   snapshot file alike; a WAL tail of every record kind replays
//!   byte-identically; and a recovery re-journals the tail it replays.

use proptest::prelude::*;
use slicenstitch::codec::bytes::fnv1a;
use slicenstitch::codec::daemon::{CheckpointPolicy, Checkpointer};
use slicenstitch::codec::store::{checkpoint_pool, recover_pool, CheckpointStore};
use slicenstitch::codec::wal::{recover_pool_wal, WalSet};
use slicenstitch::codec::{from_bytes, to_bytes, SCHEMA_VERSION};
use slicenstitch::core::als::AlsOptions;
use slicenstitch::core::{AlgorithmKind, SnsConfig};
use slicenstitch::data::replay::{replay, ReplayPlan};
use slicenstitch::data::{generate, GeneratorConfig};
use slicenstitch::ops::BusItem;
use slicenstitch::runtime::{
    AnomalyConfig, BaselineKind, BatchJournal, EnginePool, EngineSnapshot, EngineSpec, EngineState,
    EvictReason, PoolConfig, PoolEvent, SnsError, StreamSession, StreamingCpd,
};
use slicenstitch::stream::StreamTuple;
use sns_error::CodecFault;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_DIMS: [usize; 2] = [8, 6];
const W: usize = 4;
const T: u64 = 25;

/// One spec per engine family (plus the decorator), indexed 0..=6.
fn family_spec(family: usize) -> EngineSpec {
    let sns = |kind| {
        let config = SnsConfig { rank: 3, theta: 3, seed: 0, ..Default::default() };
        EngineSpec::sns(&BASE_DIMS, W, T, kind, &config)
    };
    match family {
        0 => sns(AlgorithmKind::PlusRnd),
        1 => sns(AlgorithmKind::Rnd),
        2 => EngineSpec::baseline(&BASE_DIMS, W, T, 3, BaselineKind::AlsPeriodic { sweeps: 1 }),
        3 => EngineSpec::baseline(&BASE_DIMS, W, T, 3, BaselineKind::OnlineScp),
        4 => EngineSpec::baseline(
            &BASE_DIMS,
            W,
            T,
            3,
            BaselineKind::CpStream { decay: 0.98, iters: 2 },
        ),
        5 => EngineSpec::baseline(&BASE_DIMS, W, T, 3, BaselineKind::NeCpd { epochs: 2 }),
        6 => sns(AlgorithmKind::PlusRnd)
            .with_anomaly(AnomalyConfig { threshold: 2.5, max_events: 64 }),
        _ => unreachable!("7 families"),
    }
}

fn family_name(family: usize) -> &'static str {
    ["SNS+_RND", "SNS_RND", "ALS(1)", "OnlineSCP", "CP-stream", "NeCPD(2)", "Anomaly(SNS+_RND)"]
        [family]
}

fn stream(seed: u64, events: usize) -> Vec<StreamTuple> {
    generate(&GeneratorConfig {
        base_dims: BASE_DIMS.to_vec(),
        n_components: 2,
        events,
        duration: 6 * W as u64 * T,
        day_ticks: 40,
        seed,
        ..Default::default()
    })
}

fn drive_protocol(engine: &mut dyn StreamingCpd, tuples: &[StreamTuple]) {
    let cut = tuples.partition_point(|t| t.time <= W as u64 * T);
    engine.prefill_all(&tuples[..cut]).unwrap();
    engine.warm_start(&AlsOptions { max_iters: 8, ..Default::default() });
    engine.ingest_all(&tuples[cut..]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Freeze → bytes → disk-shaped round trip → thaw → continue, vs. an
    /// engine that never stopped: factors, fitness, receipts, and
    /// anomaly summaries must agree bit for bit, for every family.
    #[test]
    fn every_family_round_trips_through_bytes_bitwise(
        family in 0usize..7,
        seed in 0u64..1_000,
        capture_frac in 0.2f64..0.9,
    ) {
        let tuples = stream(0xc0de + seed, 500);
        let spec = family_spec(family);
        let mut original = spec.clone().build(seed);
        let mut cursor = spec.clone().build(seed);

        let cut = tuples.partition_point(|t| t.time <= W as u64 * T);
        let capture_at = cut + (((tuples.len() - cut) as f64) * capture_frac) as usize;
        drive_protocol(original.as_mut(), &tuples[..capture_at.max(cut + 1)]);
        drive_protocol(cursor.as_mut(), &tuples[..capture_at.max(cut + 1)]);

        // Through the full binary codec, as a cross-process restore would.
        let snapshot = EngineSnapshot {
            stream_id: family as u64,
            spec,
            seed,
            wal_seq: 0,
            state: original.snapshot().unwrap(),
        };
        let bytes = to_bytes(&snapshot);
        let decoded = from_bytes(&bytes).unwrap();
        prop_assert_eq!(to_bytes(&decoded), bytes, "encoding must be canonical");

        let mut restored = decoded.state.into_engine().unwrap();
        prop_assert_eq!(restored.name(), family_name(family).to_string());

        // Both continue over the tail; the never-frozen engine is the oracle.
        let tail = &tuples[capture_at.max(cut + 1)..];
        let a = cursor.ingest_all(tail).unwrap();
        let b = restored.ingest_all(tail).unwrap();
        prop_assert_eq!(a, b, "receipts diverged");
        prop_assert_eq!(cursor.advance_to(10_000), restored.advance_to(10_000));
        prop_assert_eq!(cursor.fitness().to_bits(), restored.fitness().to_bits());
        prop_assert_eq!(cursor.updates_applied(), restored.updates_applied());
        for m in 0..3 {
            prop_assert_eq!(
                &cursor.kruskal().factors[m],
                &restored.kruskal().factors[m],
                "mode {} factors diverged", m
            );
        }
        prop_assert_eq!(cursor.anomalies(), restored.anomalies());
    }

    /// Corrupting any single byte of a snapshot is detected as a typed
    /// codec error — never a panic, never a silently wrong engine.
    #[test]
    fn corruption_never_panics_and_is_typed(
        family in 0usize..7,
        flip in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let tuples = stream(0xbad, 200);
        let spec = family_spec(family);
        let mut engine = spec.clone().build(3);
        drive_protocol(engine.as_mut(), &tuples);
        let snapshot = EngineSnapshot {
            stream_id: 9,
            spec,
            seed: 3,
            wal_seq: 0,
            state: engine.snapshot().unwrap(),
        };
        let mut bytes = to_bytes(&snapshot);
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
        match from_bytes(&bytes) {
            Ok(_) => prop_assert!(false, "corrupted snapshot decoded cleanly"),
            Err(SnsError::Codec { .. }) => {}
            Err(other) => prop_assert!(false, "non-codec error: {other:?}"),
        }
    }
}

/// Section boundaries are where framing bugs live: truncate exactly at
/// the envelope header, at each section's tag/length/payload edges, and
/// inside the checksum, for every family.
#[test]
fn truncation_at_section_boundaries_is_typed_for_every_family() {
    let tuples = stream(0xfee1, 250);
    for family in 0..7 {
        let spec = family_spec(family);
        let mut engine = spec.clone().build(5);
        drive_protocol(engine.as_mut(), &tuples);
        let snapshot = EngineSnapshot {
            stream_id: 1,
            spec,
            seed: 5,
            wal_seq: 0,
            state: engine.snapshot().unwrap(),
        };
        let bytes = to_bytes(&snapshot);

        // Recompute the section frame offsets from the envelope layout:
        // magic(4) version(2) count(1), then per section tag(1) len(8).
        let mut boundaries = vec![0usize, 3, 4, 6, 7];
        let mut at = 7usize;
        for _ in 0..3 {
            boundaries.push(at); // before the tag
            boundaries.push(at + 1); // inside the length
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            boundaries.push(at + 9); // payload start
            boundaries.push(at + 9 + len / 2); // mid-payload
            at = at + 9 + len;
            boundaries.push(at); // payload end
        }
        boundaries.push(bytes.len() - 8); // before the checksum
        boundaries.push(bytes.len() - 1); // inside the checksum
        for &cut in &boundaries {
            match from_bytes(&bytes[..cut.min(bytes.len())]) {
                Err(SnsError::Codec { .. }) => {}
                Err(other) => {
                    panic!("family {family} cut {cut}: non-codec error {other:?}")
                }
                Ok(_) => panic!("family {family} cut {cut}: truncated snapshot decoded"),
            }
        }

        // Checksum byte flips are always caught.
        for delta in 1..=8usize {
            let mut bad = bytes.clone();
            let at = bad.len() - delta;
            bad[at] ^= 0x5a;
            assert!(
                matches!(from_bytes(&bad), Err(SnsError::Codec { .. })),
                "family {family}: checksum flip at -{delta} decoded"
            );
        }
    }
}

/// The checked-in golden fixtures: the **v2** fixture must decode and
/// re-encode byte-identically (wire-format pin), and the **v1** fixture
/// — frozen when `SCHEMA_VERSION` was 1 and never regenerated — must
/// still thaw, and upgrading it must yield the v2 fixture (the
/// reader-keeps-every-prior-version promise). If the v2 half fails, the
/// wire format changed — bump `SCHEMA_VERSION` and regenerate
/// (`GOLDEN_BLESS=1 cargo test -q --test state_capture golden`).
#[test]
fn golden_fixtures_pin_the_wire_format_and_v1_compat() {
    let v2_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_snapshot_v2.snsc");
    let snapshot = golden_snapshot();
    let bytes = to_bytes(&snapshot);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(v2_path, &bytes).unwrap();
    }
    let committed = std::fs::read(v2_path)
        .unwrap_or_else(|e| panic!("golden fixture missing ({e}); regenerate with GOLDEN_BLESS=1"));
    assert_eq!(SCHEMA_VERSION, 2, "schema bumped: regenerate the golden fixture");
    assert_eq!(
        committed, bytes,
        "wire format drifted without a SCHEMA_VERSION bump (or fixture is stale)"
    );
    let decoded = from_bytes(&committed).unwrap();
    assert_eq!(to_bytes(&decoded), committed);

    // The v1 fixture is immutable history: never re-blessed. Decoding it
    // must keep working.
    let v1_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_snapshot_v1.snsc");
    let v1_committed = std::fs::read(v1_path).expect("v1 golden fixture is checked in");
    let thawed = from_bytes(&v1_committed).unwrap();
    assert_eq!(thawed.wal_seq, 0, "v1 snapshots predate the WAL");
    assert_eq!(to_bytes(&thawed), committed, "upgrading the v1 fixture must yield the v2 fixture");
}

/// A deterministic snapshot built from prefill only — no factor updates,
/// no ALS — so the fixture bytes depend on the wire format and the
/// seeded initialization, not on float-kernel implementation details
/// that performance PRs legitimately reassociate.
fn golden_snapshot() -> EngineSnapshot {
    let config = SnsConfig { rank: 2, theta: 3, seed: 0x901d, ..Default::default() };
    let spec = EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config).with_seed(0x901d);
    let mut engine = spec.clone().build(0x901d);
    for t in 0..40u64 {
        engine
            .prefill(StreamTuple::new(
                [(t % 4) as u32, ((t * 2) % 3) as u32],
                1.0 + (t % 3) as f64,
                t,
            ))
            .unwrap();
    }
    EngineSnapshot {
        stream_id: 1,
        spec,
        seed: 0x901d,
        wal_seq: 0,
        state: engine.snapshot().unwrap(),
    }
}

/// The crash-recovery fleet: every [`family_spec`] engine plus SNS⁺_VEC,
/// one pooled stream each.
fn fleet() -> Vec<(u64, EngineSpec)> {
    let plus_vec = EngineSpec::sns(
        &BASE_DIMS,
        W,
        T,
        AlgorithmKind::PlusVec,
        &SnsConfig { rank: 3, theta: 3, seed: 0, ..Default::default() },
    );
    (0..7).map(|f| (f as u64, family_spec(f))).chain([(7, plus_vec)]).collect()
}

/// A two-shard pool, journaling to `journal` when one is given.
fn fleet_pool(journal: Option<Arc<dyn BatchJournal>>) -> EnginePool {
    EnginePool::new(PoolConfig {
        shards: 2,
        base_seed: 0xc4a5,
        queue_depth: 64,
        journal,
        ..Default::default()
    })
}

/// [`drive_protocol`] as a replay plan: prefill the first window, warm
/// start, then one batch per period, flushing the clock to the end of
/// the stream.
fn full_plan() -> ReplayPlan {
    ReplayPlan {
        prefill_until: Some(W as u64 * T),
        warm_start: Some(AlsOptions { max_iters: 8, ..Default::default() }),
        bucket_ticks: T,
        max_batch: 32,
        advance_to: Some(6 * W as u64 * T),
    }
}

/// Replays `tuples` through every session concurrently.
fn drive_fleet(sessions: &mut [StreamSession], tuples: &[StreamTuple], plan: &ReplayPlan) {
    std::thread::scope(|scope| {
        for session in sessions.iter_mut() {
            scope.spawn(move || replay(session, tuples, plan).unwrap());
        }
    });
}

/// Opens the fleet on `pool` and replays `tuples` through it.
fn open_fleet(pool: &EnginePool, tuples: &[StreamTuple], plan: &ReplayPlan) -> Vec<StreamSession> {
    let mut sessions: Vec<_> =
        fleet().into_iter().map(|(id, spec)| pool.open(id, spec).unwrap()).collect();
    drive_fleet(&mut sessions, tuples, plan);
    sessions
}

/// Final bytes of every session, in stream-id order.
fn fleet_bytes(sessions: &mut [StreamSession]) -> Vec<(u64, Vec<u8>)> {
    let mut bytes: Vec<_> =
        sessions.iter_mut().map(|s| (s.stream_id(), to_bytes(&s.snapshot().unwrap()))).collect();
    bytes.sort_by_key(|(id, _)| *id);
    bytes
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sns-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a WAL-mode crash measured.
struct WalCrash {
    replayed: u64,
    journaled: u64,
    daemon_commits: u64,
}

/// The WAL-mode doomed run: a live [`Checkpointer`] commits while
/// `chunk` replays, is stopped once every stream has a checkpoint, and
/// `journal_only` then lands only in the journal before the crash.
/// Recovery goes through the newest checkpoints plus the WAL tail.
fn crash_with_wal(
    dir: &Path,
    chunk: &[StreamTuple],
    journal_only: &[StreamTuple],
    tail_plan: &ReplayPlan,
) -> (EnginePool, Vec<StreamSession>, WalCrash) {
    let store = CheckpointStore::create(dir.join("store")).unwrap();
    let wal = Arc::new(WalSet::create(dir.join("wal")).unwrap());
    let doomed = Arc::new(fleet_pool(Some(wal.clone())));
    let policy = CheckpointPolicy { min_batches: 8, poll: Duration::from_millis(5) };
    let daemon = Checkpointer::start(doomed.clone(), store.clone(), wal.clone(), policy).unwrap();
    let mut sessions = open_fleet(&doomed, chunk, &ReplayPlan { advance_to: None, ..full_plan() });
    let deadline = Instant::now() + Duration::from_secs(60);
    while store.manifest().map_or(0, |m| m.len()) < sessions.len() {
        assert!(daemon.error().is_none(), "{:?}", daemon.error());
        assert!(Instant::now() < deadline, "the daemon never covered every stream");
        std::thread::sleep(Duration::from_millis(5));
    }
    let daemon_commits = daemon.stop().commits;
    drive_fleet(&mut sessions, journal_only, tail_plan);
    drop(sessions);
    // Dropping the last handle is the crash: no clean close.
    assert!(Arc::try_unwrap(doomed).is_ok(), "the stopped daemon still holds the pool");
    assert!(wal.error().is_none(), "{:?}", wal.error());

    let recovered = fleet_pool(Some(wal.clone()));
    let (sessions, replayed) = recover_pool_wal(&recovered, &store, &wal).unwrap();
    // Every stream journaled one unit per tuple plus its warm start.
    let journaled = fleet().len() as u64 * (chunk.len() + journal_only.len() + 1) as u64;
    (recovered, sessions, WalCrash { replayed, journaled, daemon_commits })
}

/// Kill → recover → finish, for every engine family on a two-shard
/// pool: the recovered fleet must end byte-identical (factors, Grams,
/// window orders, RNGs, detector state, journal cursor) to a fleet that
/// never crashed. Checkpoint-only mode recovers from one hand-placed
/// checkpoint; WAL mode from the daemon's newest checkpoints plus a
/// journal tail that must be replayed but bounded.
#[test]
fn killed_fleet_recovers_bitwise_from_checkpoint_and_wal() {
    let tuples = stream(0x5ca1e, 1_200);
    let crash_at = tuples.len() / 2;
    let chunk_end = crash_at * 4 / 5;
    assert!(tuples[chunk_end].time > W as u64 * T, "the journal-only chunk must be live");
    let tail_plan = ReplayPlan { prefill_until: None, warm_start: None, ..full_plan() };

    for wal_mode in [false, true] {
        let dir = fresh_dir(if wal_mode { "wal" } else { "checkpoint" });
        // The reference journals too in WAL mode, so its snapshots carry
        // the same `wal_seq` as the recovered fleet's.
        let reference_journal: Option<Arc<dyn BatchJournal>> =
            wal_mode.then(|| Arc::new(WalSet::create(dir.join("wal-reference")).unwrap()) as _);
        let reference = fleet_pool(reference_journal);
        let expected = fleet_bytes(&mut open_fleet(&reference, &tuples, &full_plan()));
        reference.join();

        let (recovered, mut sessions) = if wal_mode {
            let (pool, sessions, crash) = crash_with_wal(
                &dir,
                &tuples[..chunk_end],
                &tuples[chunk_end..crash_at],
                &ReplayPlan { advance_to: None, ..tail_plan.clone() },
            );
            assert!(crash.replayed > 0, "the journal-only chunk must be replayed");
            assert!(
                crash.replayed < crash.journaled,
                "replay must be bounded by the checkpoints: {} of {} units",
                crash.replayed,
                crash.journaled
            );
            assert!(crash.daemon_commits >= 1, "the daemon never committed");
            (pool, sessions)
        } else {
            let store = CheckpointStore::create(dir.join("store")).unwrap();
            let doomed = fleet_pool(None);
            let first_half = ReplayPlan { advance_to: None, ..full_plan() };
            let sessions = open_fleet(&doomed, &tuples[..crash_at], &first_half);
            checkpoint_pool(&doomed, &store).unwrap();
            drop(sessions);
            drop(doomed); // the crash: no clean close
            let recovered = fleet_pool(None);
            let sessions = recover_pool(&recovered, &store).unwrap();
            (recovered, sessions)
        };
        drive_fleet(&mut sessions, &tuples[crash_at..], &tail_plan);
        let actual = fleet_bytes(&mut sessions);
        assert_eq!(actual.len(), 8, "every family plus SNS+_VEC");
        let name = |id: u64| if id < 7 { family_name(id as usize) } else { "SNS+_VEC" };
        for ((id, got), (_, want)) in actual.iter().zip(&expected) {
            assert!(got == want, "wal={wal_mode}: stream {id} ({}) diverged", name(*id));
        }
        drop(sessions);
        recovered.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Three streams on two shards: the anomaly decorator, SNS⁺_RND and
/// SNS⁺_VEC.
fn trio() -> Vec<(u64, EngineSpec)> {
    let fleet = fleet();
    [6, 0, 7].iter().map(|&id| fleet[id].clone()).collect()
}

/// Corrupts a continuous snapshot: its window stays, its factors come
/// from a differently-shaped engine — a damaged store entry that slipped
/// past the framing checks.
fn corrupt(snapshot: &mut EngineSnapshot) {
    let foreign = EngineSpec::sns(&[9, 9], W, T, AlgorithmKind::PlusVec, &SnsConfig::with_rank(3));
    let (EngineState::Sns(state), EngineState::Sns(foreign)) =
        (&mut snapshot.state, foreign.build(1).snapshot().unwrap())
    else {
        panic!("continuous snapshots expected");
    };
    state.updater = foreign.updater;
}

/// `recover_all` is all-or-nothing: a corrupt snapshot in the middle
/// fails the call typed and closes the sessions it opened around it; a
/// retry without it recovers bitwise.
#[test]
fn recover_all_closes_every_session_on_a_corrupt_snapshot() {
    let tuples = stream(0xbad, 300);
    let first = fleet_pool(None);
    let ids: Vec<u64> = trio().iter().map(|(id, _)| *id).collect();
    let snapshots: Vec<EngineSnapshot> = trio()
        .into_iter()
        .map(|(id, spec)| {
            let mut session = first.open(id, spec).unwrap();
            let _ = session.ingest_batch(&tuples).unwrap();
            session.snapshot().unwrap()
        })
        .collect();
    let shards: std::collections::BTreeSet<_> = ids.iter().map(|&id| first.shard_of(id)).collect();
    assert_eq!(shards.len(), 2, "the trio must span both shards");
    first.join();
    let expected: Vec<Vec<u8>> = snapshots.iter().map(to_bytes).collect();

    let pool = fleet_pool(None);
    let mut events = pool.ops().subscribe();
    let mut bad = snapshots.clone();
    corrupt(&mut bad[1]);
    match pool.recover_all(bad.into_iter().map(|s| (s.stream_id, move || Ok((s, Vec::new()))))) {
        Err(SnsError::Codec { fault: CodecFault::Invalid, .. }) => {}
        other => panic!("expected Codec(Invalid), got {:?}", other.map(|s| s.len())),
    }
    // The checkpoint queues behind the closes on every shard.
    assert!(pool.checkpoint_all().is_empty(), "a failed recovery left live slots");
    let mut closed: Vec<u64> = events
        .drain()
        .into_iter()
        .filter_map(|item| match item {
            BusItem::Event(e) => match *e {
                PoolEvent::StreamEvicted { stream_id, reason: EvictReason::Closed, .. } => {
                    Some(stream_id)
                }
                _ => None,
            },
            BusItem::Lagged { .. } => None,
        })
        .collect();
    closed.sort_unstable();
    assert_eq!(closed, vec![ids[0], ids[2]], "the good streams must be closed");

    let good = vec![snapshots[0].clone(), snapshots[2].clone()];
    let mut recovered = pool
        .recover_all(good.into_iter().map(|s| (s.stream_id, move || Ok((s, Vec::new())))))
        .unwrap();
    for (session, want) in recovered.iter_mut().zip([&expected[0], &expected[2]]) {
        assert!(to_bytes(&session.snapshot().unwrap()) == *want, "stream {}", session.stream_id());
    }
}

/// Recovery loads, verifies and decodes each snapshot file on its
/// stream's shard worker, and a bad file still fails `recover_pool` typed
/// and all-or-nothing: a flipped payload or trailer byte (caught by the
/// manifest crc, or by the envelope checksum once the manifest row is
/// re-stamped over the damage), another stream's file in its place, and
/// a missing file each return the error the serial
/// `CheckpointStore::load` reports, leave no live slot, and close every
/// session the call opened. After the file is repaired, a retry on the
/// same pool recovers the checkpointed fleet byte for byte and finishes
/// byte-identical to a fleet that never crashed.
#[test]
fn a_bad_snapshot_file_fails_recovery_typed_and_all_or_nothing() {
    let tuples = stream(0xf11e, 600);
    let crash_at = tuples.len() / 2;
    let reference = fleet_pool(None);
    let expected = fleet_bytes(&mut open_fleet(&reference, &tuples, &full_plan()));
    reference.join();

    let dir = fresh_dir("badfile");
    let store = CheckpointStore::create(dir.join("store")).unwrap();
    let doomed = fleet_pool(None);
    let first_half = ReplayPlan { advance_to: None, ..full_plan() };
    let mut sessions = open_fleet(&doomed, &tuples[..crash_at], &first_half);
    checkpoint_pool(&doomed, &store).unwrap();
    let checkpointed = fleet_bytes(&mut sessions);
    drop(sessions);
    drop(doomed); // the crash

    let rows = store.manifest().unwrap();
    let file = |id: u64| store.dir().join(&rows.iter().find(|e| e.stream_id == id).unwrap().file);
    let victim = file(3);
    let good = std::fs::read(&victim).unwrap();
    let manifest = std::fs::read_to_string(store.manifest_path()).unwrap();
    // The victim's manifest row re-stamped with `bytes`' size and crc, so
    // only the envelope's own checks can catch the damage.
    let stamped = |bytes: &[u8]| {
        let row = format!("bytes {} crc {:016x}", good.len(), fnv1a(&good));
        assert!(manifest.contains(&row), "victim row not found");
        manifest.replace(&row, &format!("bytes {} crc {:016x}", bytes.len(), fnv1a(bytes)))
    };
    let flipped = |at: usize| {
        let mut bad = good.clone();
        bad[at] ^= 0x01;
        bad
    };
    let (payload, trailer) = (flipped(good.len() / 2), flipped(good.len() - 1));
    let foreign = std::fs::read(file(2)).unwrap();
    let io = |e: &SnsError| matches!(e, SnsError::Io { .. });
    let checksum = |e: &SnsError| matches!(e, SnsError::Codec { fault: CodecFault::Checksum, .. });
    type Case<'a> = (&'a str, Option<&'a [u8]>, String, &'a dyn Fn(&SnsError) -> bool);
    let cases: Vec<Case> = vec![
        ("flipped payload byte", Some(&payload), manifest.clone(), &io),
        ("flipped payload byte, row re-stamped", Some(&payload), stamped(&payload), &checksum),
        ("flipped trailer byte", Some(&trailer), manifest.clone(), &io),
        ("flipped trailer byte, row re-stamped", Some(&trailer), stamped(&trailer), &checksum),
        ("another stream's file, row re-stamped", Some(&foreign), stamped(&foreign), &io),
        ("missing file", None, manifest.clone(), &io),
    ];
    let mut retried = None;
    for (case, bytes, text, want) in cases {
        match bytes {
            Some(bytes) => std::fs::write(&victim, bytes).unwrap(),
            None => std::fs::remove_file(&victim).unwrap(),
        }
        std::fs::write(store.manifest_path(), text).unwrap();
        let serial = store.load().map(|s| s.len()).unwrap_err();

        let pool = fleet_pool(None);
        let mut events = pool.ops().subscribe();
        let err = recover_pool(&pool, &store).map(|s| s.len()).unwrap_err();
        assert!(want(&err), "{case}: unexpected {err:?}");
        assert_eq!(err, serial, "{case}: recovery must fail like the serial load");
        // The checkpoint queues behind the closes on every shard.
        assert!(pool.checkpoint_all().is_empty(), "{case}: a failed recovery left live slots");
        let (mut opened, mut closed) = (Vec::new(), Vec::new());
        for item in events.drain() {
            let BusItem::Event(event) = item else { continue };
            match *event {
                PoolEvent::StreamMigrated { stream_id, .. } => opened.push(stream_id),
                PoolEvent::StreamEvicted { stream_id, reason: EvictReason::Closed, .. } => {
                    closed.push(stream_id)
                }
                _ => {}
            }
        }
        opened.sort_unstable();
        closed.sort_unstable();
        assert!(!opened.contains(&3), "{case}: the bad stream was installed");
        assert_eq!(closed, opened, "{case}: every session the call opened must be closed");

        std::fs::write(&victim, &good).unwrap();
        std::fs::write(store.manifest_path(), &manifest).unwrap();
        let mut sessions = recover_pool(&pool, &store).unwrap();
        assert!(fleet_bytes(&mut sessions) == checkpointed, "{case}: retry differs");
        retried = Some((pool, sessions));
    }

    let (recovered, mut sessions) = retried.unwrap();
    let tail_plan = ReplayPlan { prefill_until: None, warm_start: None, ..full_plan() };
    drive_fleet(&mut sessions, &tuples[crash_at..], &tail_plan);
    let actual = fleet_bytes(&mut sessions);
    assert_eq!(actual.len(), fleet().len());
    for ((id, got), (_, want)) in actual.iter().zip(&expected) {
        assert!(got == want, "stream {id} diverged after the repaired retry");
    }
    drop(sessions);
    recovered.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL tail holding every record kind — prefill, warm start, ingest,
/// clock advance — replays on the workers byte-identical to the
/// uninterrupted run, replays exactly the journal, and leaves no receipt
/// uncollected (on queues two commands deep).
#[test]
fn every_record_kind_of_a_wal_tail_replays_bitwise() {
    let tuples = stream(0x7a11, 600);
    let cut = tuples.partition_point(|t| t.time <= W as u64 * T);
    let mid = cut + (tuples.len() - cut) / 2;
    let pool_with = |journal: Arc<WalSet>| {
        EnginePool::new(PoolConfig {
            shards: 2,
            base_seed: 0xc4a5,
            queue_depth: 2,
            journal: Some(journal as Arc<dyn BatchJournal>),
            ..Default::default()
        })
    };
    // Prefill, warm start, ingests, a clock advance, more ingests.
    let drive = |session: &mut StreamSession| {
        let _ = session.prefill_batch(&tuples[..cut]).unwrap();
        let _ = session.warm_start(&AlsOptions { max_iters: 8, ..Default::default() }).unwrap();
        for batch in tuples[cut..mid].chunks(8) {
            let _ = session.ingest_batch(batch).unwrap();
        }
        let _ = session.advance_to(tuples[mid].time).unwrap();
        for batch in tuples[mid..].chunks(8) {
            let _ = session.ingest_batch(batch).unwrap();
        }
    };
    let dir = fresh_dir("pipelined");
    let reference = pool_with(Arc::new(WalSet::create(dir.join("wal-reference")).unwrap()));
    let mut sessions: Vec<_> =
        trio().into_iter().map(|(id, spec)| reference.open(id, spec).unwrap()).collect();
    sessions.iter_mut().for_each(drive);
    let expected = fleet_bytes(&mut sessions);
    drop(sessions);
    reference.join();

    let store = CheckpointStore::create(dir.join("store")).unwrap();
    let wal = Arc::new(WalSet::create(dir.join("wal")).unwrap());
    let doomed = pool_with(wal.clone());
    let mut sessions: Vec<_> =
        trio().into_iter().map(|(id, spec)| doomed.open(id, spec).unwrap()).collect();
    checkpoint_pool(&doomed, &store).unwrap();
    sessions.iter_mut().for_each(drive);
    drop(sessions);
    drop(doomed); // the crash: everything since the open is journal-only

    let recovered = pool_with(wal.clone());
    let (mut sessions, replayed) = recover_pool_wal(&recovered, &store, &wal).unwrap();
    // Per stream: every tuple once, plus the warm start and the advance.
    assert_eq!(replayed, 3 * (tuples.len() as u64 + 2));
    assert!(sessions.iter().all(|s| s.in_flight() == 0), "uncollected replay receipts");
    let actual = fleet_bytes(&mut sessions);
    assert_eq!(actual.len(), 3);
    for ((id, got), (_, want)) in actual.iter().zip(&expected) {
        assert!(got == want, "stream {id} diverged after pipelined replay");
    }
    drop(sessions);
    recovered.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery journals the tail it replays: a fleet recovered onto a pool
/// whose journal is a *fresh* WAL, crashed again, and recovered from the
/// same checkpoint plus that fresh WAL ends byte-identical to the
/// uninterrupted run both times, replaying exactly the tail each time.
#[test]
fn recovery_into_a_fresh_journal_re_journals_the_replayed_tail() {
    let tuples = stream(0x4e70, 400);
    let cut = tuples.partition_point(|t| t.time <= W as u64 * T);
    let pool_with = |wal: &Arc<WalSet>| fleet_pool(Some(wal.clone() as Arc<dyn BatchJournal>));
    let drive = |session: &mut StreamSession| {
        let _ = session.prefill_batch(&tuples[..cut]).unwrap();
        let _ = session.warm_start(&AlsOptions { max_iters: 8, ..Default::default() }).unwrap();
        for batch in tuples[cut..].chunks(16) {
            let _ = session.ingest_batch(batch).unwrap();
        }
        let _ = session.advance_to(tuples[tuples.len() - 1].time + T).unwrap();
    };
    let dir = fresh_dir("rejournal");
    let wal_at = |name: &str| Arc::new(WalSet::create(dir.join(name)).unwrap());
    let reference = pool_with(&wal_at("wal-reference"));
    let mut sessions: Vec<_> =
        trio().into_iter().map(|(id, spec)| reference.open(id, spec).unwrap()).collect();
    sessions.iter_mut().for_each(drive);
    let expected = fleet_bytes(&mut sessions);
    drop(sessions);
    reference.join();

    // The doomed run checkpoints right after the open, so everything it
    // drives is tail: every tuple, the warm start and the advance.
    let store = CheckpointStore::create(dir.join("store")).unwrap();
    let first_wal = wal_at("wal-first");
    let doomed = pool_with(&first_wal);
    let mut sessions: Vec<_> =
        trio().into_iter().map(|(id, spec)| doomed.open(id, spec).unwrap()).collect();
    checkpoint_pool(&doomed, &store).unwrap();
    sessions.iter_mut().for_each(drive);
    drop(sessions);
    drop(doomed);
    let tail_units = 3 * (tuples.len() as u64 + 2);

    // Each recovery journals into `journal`; the second reads the WAL
    // the first one wrote.
    let fresh_wal = wal_at("wal-fresh");
    for (source, journal) in [(&first_wal, &fresh_wal), (&fresh_wal, &fresh_wal)] {
        let recovered = pool_with(journal);
        let (mut sessions, replayed) = recover_pool_wal(&recovered, &store, source).unwrap();
        assert_eq!(replayed, tail_units, "exactly the tail is replayed");
        assert!(journal.error().is_none(), "{:?}", journal.error());
        let actual = fleet_bytes(&mut sessions);
        assert_eq!(actual.len(), 3);
        for ((id, got), (_, want)) in actual.iter().zip(&expected) {
            assert!(got == want, "stream {id} diverged from the uninterrupted run");
        }
        drop(sessions);
        drop(recovered); // the crash
    }
    let _ = std::fs::remove_dir_all(&dir);
}
