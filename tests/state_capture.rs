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
//!   so any wire-format drift without a `SCHEMA_VERSION` bump fails CI.

use proptest::prelude::*;
use slicenstitch::codec::{from_bytes, to_bytes, SCHEMA_VERSION};
use slicenstitch::core::als::AlsOptions;
use slicenstitch::core::{AlgorithmKind, SnsConfig};
use slicenstitch::data::{generate, GeneratorConfig};
use slicenstitch::runtime::{
    AnomalyConfig, BaselineKind, EngineSnapshot, EngineSpec, SnsError, StreamingCpd,
};
use slicenstitch::stream::StreamTuple;

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
