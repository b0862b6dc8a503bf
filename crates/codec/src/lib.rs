//! # sns-codec
//!
//! Durable, portable engine state: a self-describing **versioned binary
//! format** for [`EngineSnapshot`]s, a file-backed
//! [`CheckpointStore`](store::CheckpointStore) of full snapshots, a
//! per-stream [write-ahead log](wal) of accepted operations, and a
//! [background checkpoint daemon](daemon) that ties the three together.
//!
//! The model state of a continuously maintained CP decomposition *is*
//! the product: losing it means re-prefilling `W·T` periods of stream
//! and desynchronizing the sampling RNGs that make the RND variants
//! reproducible. This crate turns the runtime's in-process
//! [`EngineState`](sns_runtime::EngineState) capture into bytes that can
//! cross processes, machines, and restarts — and back, **bitwise**: a
//! snapshot decoded from disk continues exactly the stream the captured
//! engine would have produced. The WAL closes the gap *between*
//! checkpoints: recovery is "restore the newest checkpoint, replay the
//! bounded journal tail" (see [`wal::recover_pool_wal`]).
//!
//! ## Envelope format (v2)
//!
//! Little-endian throughout; floats travel by bit pattern:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SNSC"
//! 4       2     schema version (u16, currently 2)
//! 6       1     section count (3)
//! 7       …     sections: tag u8 | length u64 | payload
//!               tag 1 META  : stream_id u64 | seed u64 | wal_seq u64
//!               tag 2 SPEC  : EngineSpec (see wire module)
//!               tag 3 STATE : EngineState (see wire module)
//! end−8   8     FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! Every snapshot is self-contained. Tag 4 is reserved: older builds
//! wrote delta snapshots with a tag-4 section in place of STATE, and
//! this build refuses them (no STATE section) with a typed error.
//! Version 1 — identical except that META has no `wal_seq` — is still
//! read by [`from_bytes`] (`wal_seq` decodes as 0) but no longer
//! written; re-encoding a decoded v1 snapshot upgrades it to v2. The
//! normative byte-level specification lives in `docs/DURABILITY.md`.
//!
//! Section lengths let a reader skip or validate sections without
//! understanding their contents; unknown *trailing* sections are
//! rejected (the section count is part of the schema). Decoding verifies
//! magic, version, section framing, and the checksum **before** parsing
//! any payload, and every failure is a typed
//! [`SnsError::Codec`] — truncation, corruption, and version
//! skew never panic.
//!
//! ## Schema-version policy
//!
//! Any change to the byte layout — a new field, a reordered field, a
//! different enum tag — must bump [`SCHEMA_VERSION`]. Readers keep
//! decoding **every** prior version (this build reads v1 and v2); a
//! version this build does not know fails with
//! [`CodecFault::UnsupportedVersion`](sns_error::CodecFault)
//! instead of misparsing. The checked-in golden fixtures
//! (`tests/fixtures/`) pin both the current and the v1 wire format, so
//! silent drift in either is a CI failure.
//!
//! No serde: the wire forms are hand-rolled like the rest of the
//! workspace's `vendor/` shims, keeping the dependency set closed.

#![deny(missing_docs)]

pub mod bytes;
pub mod daemon;
pub mod store;
pub mod wal;
pub mod wire;

use bytes::{fnv1a, Reader, Writer};
use sns_error::{CodecFault, SnsError};
use sns_runtime::EngineSnapshot;

/// Leading magic of every serialized snapshot.
pub const MAGIC: [u8; 4] = *b"SNSC";

/// Current schema version. Bump on **any** byte-layout change.
pub const SCHEMA_VERSION: u16 = 2;

const SECTION_META: u8 = 1;
const SECTION_SPEC: u8 = 2;
const SECTION_STATE: u8 = 3;

fn put_section(w: &mut Writer, tag: u8, body: impl FnOnce(&mut Writer)) {
    w.u8(tag);
    let len_at = w.len();
    w.u64(0); // patched below
    let start = w.len();
    body(w);
    let len = (w.len() - start) as u64;
    w.patch_u64(len_at, len);
}

/// Serializes a snapshot to the current (v2) format, self-contained.
pub fn to_bytes(snapshot: &EngineSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u16(SCHEMA_VERSION);
    w.u8(3);
    put_section(&mut w, SECTION_META, |w| {
        w.u64(snapshot.stream_id);
        w.u64(snapshot.seed);
        w.u64(snapshot.wal_seq);
    });
    put_section(&mut w, SECTION_SPEC, |w| wire::put_spec(w, &snapshot.spec));
    put_section(&mut w, SECTION_STATE, |w| wire::put_engine_state(w, &snapshot.state));
    let checksum = fnv1a(w.as_slice());
    w.u64(checksum);
    w.into_bytes()
}

/// A validated envelope: magic, version, section framing, and trailing
/// checksum already verified; payloads not yet parsed.
///
/// `parse` takes the FNV-1a of the body (every byte before the 8-byte
/// trailer) when the caller already hashed it in the same pass as the
/// whole file (see `bytes::fnv1a_split`), and hashes the body itself
/// otherwise, so no byte is hashed twice.
struct Envelope<'a> {
    version: u16,
    spans: Vec<(u8, usize, usize)>,
    bytes: &'a [u8],
}

impl<'a> Envelope<'a> {
    fn parse(bytes: &'a [u8], body_hash: Option<u64>) -> Result<Self, SnsError> {
        let mut r = Reader::new(bytes);
        let magic = r.bytes(4, "magic")?;
        if magic != MAGIC {
            return Err(SnsError::Codec {
                fault: CodecFault::BadMagic,
                offset: 0,
                detail: format!("got {magic:02x?}"),
            });
        }
        let version = r.u16("version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(SnsError::Codec {
                fault: CodecFault::UnsupportedVersion,
                offset: 4,
                detail: format!("snapshot v{version}, this build reads v1..=v{SCHEMA_VERSION}"),
            });
        }
        let sections = r.u8("section count")?;
        if sections != 3 {
            return Err(r.invalid(format!("expected 3 sections, header says {sections}")));
        }
        // Walk the section frames to find where the checksum must sit,
        // then verify it before parsing any payload.
        let mut spans: Vec<(u8, usize, usize)> = Vec::with_capacity(sections as usize);
        for _ in 0..sections {
            let tag = r.u8("section tag")?;
            let len = r.usize("section length")?;
            let start = r.pos();
            r.bytes(len, "section payload")?;
            spans.push((tag, start, len));
        }
        let body_end = r.pos();
        let stored = r.u64("checksum")?;
        r.expect_end("snapshot")?;
        // Framing ends 8 bytes before the end, so `body_hash` (if given)
        // covers exactly `bytes[..body_end]`.
        let computed = body_hash.unwrap_or_else(|| fnv1a(&bytes[..body_end]));
        if stored != computed {
            return Err(SnsError::Codec {
                fault: CodecFault::Checksum,
                offset: body_end,
                detail: format!("stored {stored:#018x}, computed {computed:#018x}"),
            });
        }
        Ok(Envelope { version, spans, bytes })
    }

    /// A section's payload; typed `Invalid` if the envelope has none
    /// (a legacy delta snapshot has no STATE section).
    fn section(&self, want: u8, name: &str) -> Result<Reader<'a>, SnsError> {
        self.spans
            .iter()
            .find(|&&(tag, _, _)| tag == want)
            .map(|&(_, start, len)| Reader::new(&self.bytes[start..start + len]))
            .ok_or_else(|| SnsError::Codec {
                fault: CodecFault::Invalid,
                offset: 0,
                detail: format!("missing {name} section"),
            })
    }

    /// META fields; `wal_seq` decodes as 0 from v1 envelopes.
    fn meta(&self) -> Result<(u64, u64, u64), SnsError> {
        let mut meta = self.section(SECTION_META, "META")?;
        let stream_id = meta.u64("stream_id")?;
        let seed = meta.u64("seed")?;
        let wal_seq = if self.version >= 2 { meta.u64("wal_seq")? } else { 0 };
        meta.expect_end("META")?;
        Ok((stream_id, seed, wal_seq))
    }

    fn spec(&self) -> Result<sns_runtime::EngineSpec, SnsError> {
        let mut spec_r = self.section(SECTION_SPEC, "SPEC")?;
        let spec = wire::get_spec(&mut spec_r)?;
        spec_r.expect_end("SPEC")?;
        Ok(spec)
    }

    fn state(&self) -> Result<sns_runtime::EngineState, SnsError> {
        let mut state_r = self.section(SECTION_STATE, "STATE")?;
        let state = wire::get_engine_state(&mut state_r)?;
        state_r.expect_end("STATE")?;
        Ok(state)
    }
}

/// Deserializes a (v1 or v2) snapshot, validating magic, version,
/// section framing, and checksum before touching any payload.
///
/// # Errors
/// [`SnsError::Codec`] with a precise [`CodecFault`]:
/// `Truncated` (bytes end early), `BadMagic`, `UnsupportedVersion`,
/// `Checksum` (content corrupted), or `Invalid` (well-framed bytes that
/// describe an inconsistent structure — including a legacy delta
/// snapshot, which has no STATE section).
pub fn from_bytes(bytes: &[u8]) -> Result<EngineSnapshot, SnsError> {
    decode(bytes, None)
}

/// The one snapshot decoder behind [`from_bytes`] and the checkpoint
/// store's loads: `body_hash` is the FNV-1a of `bytes` before the
/// trailer if the caller already has it.
pub(crate) fn decode(bytes: &[u8], body_hash: Option<u64>) -> Result<EngineSnapshot, SnsError> {
    let env = Envelope::parse(bytes, body_hash)?;
    let (stream_id, seed, wal_seq) = env.meta()?;
    let spec = env.spec()?;
    let state = env.state()?;
    Ok(EngineSnapshot { stream_id, spec, seed, wal_seq, state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_core::engine::SnsEngine;
    use sns_runtime::{EngineSpec, StreamingCpd};
    use sns_stream::StreamTuple;

    fn snapshot() -> EngineSnapshot {
        let config = SnsConfig { rank: 2, theta: 2, seed: 5, ..Default::default() };
        let mut e = SnsEngine::new(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config);
        for t in 0..60u64 {
            e.ingest(StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).unwrap();
        }
        EngineSnapshot {
            stream_id: 11,
            spec: EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config),
            seed: 0xabc,
            wal_seq: 0,
            state: e.snapshot().unwrap(),
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let bytes = to_bytes(&snapshot());
        let decoded = from_bytes(&bytes).unwrap();
        assert_eq!(decoded.stream_id, 11);
        assert_eq!(decoded.seed, 0xabc);
        assert_eq!(to_bytes(&decoded), bytes, "re-encode must be canonical");
    }

    #[test]
    fn wal_seq_survives_the_round_trip() {
        let mut snap = snapshot();
        snap.wal_seq = 1234;
        let decoded = from_bytes(&to_bytes(&snap)).unwrap();
        assert_eq!(decoded.wal_seq, 1234);
    }

    /// A legacy delta snapshot — META, SPEC and a tag-4 section in place
    /// of STATE, checksum intact — fails typed instead of decoding.
    #[test]
    fn a_legacy_delta_envelope_is_refused_typed() {
        let good = to_bytes(&snapshot());
        let mut w = Writer::new();
        w.bytes(&good[..7]); // magic + version + section count
        let mut r = Reader::new(&good[7..good.len() - 8]);
        for _ in 0..2 {
            let tag = r.u8("tag").unwrap();
            let len = r.usize("len").unwrap();
            let payload = r.bytes(len, "payload").unwrap();
            w.u8(tag);
            w.u64(len as u64);
            w.bytes(payload);
        }
        w.u8(4); // the retired SECTION_DELTA tag
        w.u64(24);
        w.bytes(&[0; 24]);
        let checksum = fnv1a(w.as_slice());
        w.u64(checksum);
        match from_bytes(&w.into_bytes()) {
            Err(SnsError::Codec { fault: CodecFault::Invalid, detail, .. }) => {
                assert!(detail.contains("STATE"), "{detail}");
            }
            other => panic!("expected Invalid, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn truncation_at_every_length_yields_typed_errors() {
        let bytes = to_bytes(&snapshot());
        for cut in 0..bytes.len() {
            match from_bytes(&bytes[..cut]) {
                Err(SnsError::Codec { .. }) => {}
                Err(other) => panic!("cut {cut}: non-codec error {other:?}"),
                Ok(_) => panic!("cut {cut}: truncated snapshot decoded"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_by_the_checksum() {
        let bytes = to_bytes(&snapshot());
        // Flip one bit somewhere in the body (past the header).
        for at in [7usize, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            match from_bytes(&bad) {
                Err(SnsError::Codec { fault, .. }) => {
                    assert!(
                        matches!(
                            fault,
                            sns_error::CodecFault::Checksum | sns_error::CodecFault::Truncated
                        ),
                        "byte {at}: fault {fault:?}"
                    );
                }
                other => panic!("byte {at}: {other:?}"),
            }
        }
        // Flip a checksum byte itself.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            from_bytes(&bad),
            Err(SnsError::Codec { fault: sns_error::CodecFault::Checksum, .. })
        ));
    }

    #[test]
    fn nested_decorator_bomb_is_rejected_not_a_stack_overflow() {
        // A well-framed, checksum-valid snapshot whose STATE payload is
        // thousands of repeated Anomaly tags must fail with a typed
        // Invalid error instead of recursing once per byte.
        let good = to_bytes(&snapshot());
        let mut w = Writer::new();
        w.bytes(&good[..7]); // magic + version + section count
        let mut r = Reader::new(&good[7..good.len() - 8]);
        for _ in 0..2 {
            let tag = r.u8("tag").unwrap();
            let len = r.usize("len").unwrap();
            let payload = r.bytes(len, "payload").unwrap();
            w.u8(tag);
            w.u64(len as u64);
            w.bytes(payload);
        }
        w.u8(3); // STATE section
        let bomb = vec![2u8; 100_000];
        w.u64(bomb.len() as u64);
        w.bytes(&bomb);
        let checksum = fnv1a(w.as_slice());
        w.u64(checksum);
        match from_bytes(&w.into_bytes()) {
            Err(SnsError::Codec { fault: CodecFault::Invalid, detail, .. }) => {
                assert!(detail.contains("nested"), "{detail}");
            }
            other => panic!("expected Invalid, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let bytes = to_bytes(&snapshot());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            from_bytes(&bad),
            Err(SnsError::Codec { fault: sns_error::CodecFault::BadMagic, .. })
        ));
        let mut future = bytes;
        future[4] = 0xfe;
        future[5] = 0xff;
        assert!(matches!(
            from_bytes(&future),
            Err(SnsError::Codec { fault: sns_error::CodecFault::UnsupportedVersion, .. })
        ));
    }

    /// A snapshot round-trips byte-identically and restores to an engine
    /// that continues bitwise-identically to the captured one.
    #[test]
    fn snapshot_round_trip_is_canonical_and_continues_bitwise() {
        let config = SnsConfig { rank: 3, theta: 2, seed: 9, ..Default::default() };
        let mut e = SnsEngine::new(&[4, 3], 3, 10, AlgorithmKind::PlusVec, &config);
        for t in 0..60u64 {
            e.ingest(StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t)).unwrap();
        }
        let snap = EngineSnapshot {
            stream_id: 7,
            spec: EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusVec, &config),
            seed: 0xf00d,
            wal_seq: 0,
            state: e.snapshot().unwrap(),
        };
        let bytes = to_bytes(&snap);
        let decoded = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&decoded), bytes, "re-encode must be canonical");
        let mut restored = decoded.state.into_engine().unwrap();
        for t in 60..90u64 {
            let tu = StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t);
            restored.ingest(tu).unwrap();
            e.ingest(tu).unwrap();
        }
        assert_eq!(
            to_bytes(&EngineSnapshot {
                stream_id: 7,
                spec: decoded.spec.clone(),
                seed: 0xf00d,
                wal_seq: 0,
                state: restored.snapshot().unwrap(),
            }),
            to_bytes(&EngineSnapshot {
                stream_id: 7,
                spec: snap.spec.clone(),
                seed: 0xf00d,
                wal_seq: 0,
                state: e.snapshot().unwrap(),
            }),
            "restored engine drifted from the original"
        );
    }
}
