//! File-backed checkpoint store: one full snapshot file per stream plus
//! a manifest, and pool-wide checkpoint/recover helpers.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   MANIFEST.sns            - text manifest (see below)
//!   stream-<id>.g<G>.snsc   - full snapshot committed at generation G
//! ```
//!
//! The manifest is line-oriented text, written atomically **after** all
//! snapshot files:
//!
//! ```text
//! sns-checkpoint v2
//! checkpoint <generation>
//! streams <count>
//! stream <id> file <name> bytes <len> crc <fnv1a-hex> kind full base -
//! ```
//!
//! v1 manifests (no `checkpoint` line, rows without `kind`/`base`) are
//! still parsed — every row reads as a full snapshot at generation 0.
//! Rows that older builds wrote as `kind delta` still parse, but loading
//! one fails typed: this build reads no delta snapshots.
//!
//! [`CheckpointStore::save`] and [`CheckpointStore::save_incremental`]
//! share one commit: each snapshot goes to a new file named for the new
//! generation, the manifest rename commits them, and files no row
//! references any more are pruned. No commit writes a file the manifest
//! it replaces references, so a crash or failure anywhere before the
//! manifest rename leaves the previous checkpoint loadable.
//!
//! Loading is manifest-driven: a missing or size/checksum-mismatched
//! file is a typed error, never a silently shorter fleet.

use crate::bytes::{fnv1a, fnv1a_split};
use crate::{decode, to_bytes};
use sns_error::{CodecFault, SnsError};
use sns_runtime::{EnginePool, EngineSnapshot, StreamSession};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Manifest file name inside a checkpoint directory.
pub const MANIFEST: &str = "MANIFEST.sns";

fn io_err(path: &Path, e: impl std::fmt::Display) -> SnsError {
    SnsError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// How a manifest row's snapshot file is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Self-contained snapshot (decodes with [`from_bytes`](crate::from_bytes)).
    Full,
    /// Delta snapshot written by an older build; loading it fails typed.
    Delta,
}

impl SnapshotKind {
    fn label(&self) -> &'static str {
        match self {
            SnapshotKind::Full => "full",
            SnapshotKind::Delta => "delta",
        }
    }
}

/// One manifest row: a stream's snapshot file and its integrity data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The stream id.
    pub stream_id: u64,
    /// File name inside the store directory.
    pub file: String,
    /// Expected file size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 of the file contents.
    pub crc: u64,
    /// How the file is encoded: this build writes only full rows.
    pub kind: SnapshotKind,
}

/// A directory of per-stream snapshot files plus a manifest.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    /// [`SnsError::Io`] if the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, SnsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(CheckpointStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    fn write_file_atomic(&self, file: &str, bytes: &[u8]) -> Result<(), SnsError> {
        let path = self.dir.join(file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        {
            // Each snapshot file is synced before the manifest is
            // renamed into place: the manifest is the commit point,
            // so everything it references must already be durable.
            let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))
    }

    fn write_manifest(&self, generation: u64, entries: &[ManifestEntry]) -> Result<(), SnsError> {
        let mut manifest = String::new();
        manifest.push_str("sns-checkpoint v2\n");
        manifest.push_str(&format!("checkpoint {generation}\n"));
        manifest.push_str(&format!("streams {}\n", entries.len()));
        for e in entries {
            manifest.push_str(&format!(
                "stream {} file {} bytes {} crc {:016x} kind {} base -\n",
                e.stream_id,
                e.file,
                e.bytes,
                e.crc,
                e.kind.label(),
            ));
        }
        let tmp = self.dir.join(format!("{MANIFEST}.tmp"));
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(manifest.as_bytes()).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        let path = self.manifest_path();
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        // The rename is the commit point, and WAL rotation deletes the
        // segments it covers right after: sync the directory so an OS
        // crash cannot lose the rename (or the snapshot renames before
        // it) once those segments are gone.
        fs::File::open(&self.dir).and_then(|d| d.sync_all()).map_err(|e| io_err(&self.dir, e))
    }

    /// Commits a checkpoint holding exactly `snapshots`, replacing the
    /// previous one in this directory (its files are pruned once the new
    /// manifest is in place).
    ///
    /// # Errors
    /// [`SnsError::Io`] on the first filesystem failure or a malformed
    /// previous manifest; the previous checkpoint stays loadable.
    pub fn save(&self, snapshots: &[EngineSnapshot]) -> Result<Vec<ManifestEntry>, SnsError> {
        self.commit(snapshots, false).map(|(_, entries)| entries)
    }

    /// Commits a new checkpoint **generation** on top of the existing
    /// manifest: rows for streams in `snapshots` are replaced, rows for
    /// other streams are kept — which is what lets a background daemon
    /// checkpoint one shard at a time without forgetting the rest of
    /// the fleet.
    ///
    /// Returns the committed generation and the merged manifest.
    ///
    /// # Errors
    /// As [`CheckpointStore::save`].
    pub fn save_incremental(
        &self,
        snapshots: &[EngineSnapshot],
    ) -> Result<(u64, Vec<ManifestEntry>), SnsError> {
        self.commit(snapshots, true)
    }

    /// The one commit path: writes each snapshot to a file named for
    /// the next generation, renames the manifest over the old one (the
    /// commit point), then prunes snapshot files no row references.
    /// `merge` keeps the previous rows of streams not in `snapshots`.
    fn commit(
        &self,
        snapshots: &[EngineSnapshot],
        merge: bool,
    ) -> Result<(u64, Vec<ManifestEntry>), SnsError> {
        let (previous, rows) =
            if self.manifest_path().exists() { self.parse_manifest()? } else { (0, Vec::new()) };
        let generation = previous + 1;
        let mut merged = BTreeMap::new();
        if merge {
            merged.extend(rows.into_iter().map(|e| (e.stream_id, e)));
        }
        for snapshot in snapshots {
            let bytes = to_bytes(snapshot);
            let file = format!("stream-{}.g{generation}.snsc", snapshot.stream_id);
            self.write_file_atomic(&file, &bytes)?;
            let entry = ManifestEntry {
                stream_id: snapshot.stream_id,
                file,
                bytes: bytes.len() as u64,
                crc: fnv1a(&bytes),
                kind: SnapshotKind::Full,
            };
            merged.insert(snapshot.stream_id, entry);
        }
        let entries: Vec<ManifestEntry> = merged.into_values().collect();
        self.write_manifest(generation, &entries)?;
        self.prune(&entries)?;
        Ok((generation, entries))
    }

    /// Deletes snapshot files no manifest row references, including
    /// delta files older builds left behind. WAL segments and foreign
    /// files are untouched.
    fn prune(&self, entries: &[ManifestEntry]) -> Result<(), SnsError> {
        let live: BTreeSet<&str> = entries.iter().map(|e| e.file.as_str()).collect();
        for dirent in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let dirent = dirent.map_err(|e| io_err(&self.dir, e))?;
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            let is_snapshot =
                name.starts_with("stream-") && (name.ends_with(".snsc") || name.ends_with(".snsd"));
            if is_snapshot && !live.contains(name) {
                fs::remove_file(dirent.path()).map_err(|e| io_err(&dirent.path(), e))?;
            }
        }
        Ok(())
    }

    fn parse_manifest(&self) -> Result<(u64, Vec<ManifestEntry>), SnsError> {
        let path = self.manifest_path();
        let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let mut lines = text.lines();
        let version = match lines.next() {
            Some("sns-checkpoint v1") => 1,
            Some("sns-checkpoint v2") => 2,
            _ => return Err(io_err(&path, "not a v1/v2 checkpoint manifest")),
        };
        let generation = if version >= 2 {
            lines
                .next()
                .and_then(|l| l.strip_prefix("checkpoint "))
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| io_err(&path, "missing checkpoint generation"))?
        } else {
            0
        };
        let count: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("streams "))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| io_err(&path, "missing stream count"))?;
        let mut entries = Vec::with_capacity(count);
        for line in lines {
            let parts: Vec<&str> = line.split_whitespace().collect();
            let malformed = || io_err(&path, format!("malformed manifest line: {line}"));
            let (core, kind) = match (version, parts.as_slice()) {
                (1, [kw, id, fkw, file, bkw, bytes, ckw, crc]) => {
                    if (*kw, *fkw, *bkw, *ckw) != ("stream", "file", "bytes", "crc") {
                        return Err(malformed());
                    }
                    ((*id, *file, *bytes, *crc), SnapshotKind::Full)
                }
                // The `base` column only ever named a delta's base file.
                (2, [kw, id, fkw, file, bkw, bytes, ckw, crc, kkw, kind, bakw, _]) => {
                    if (*kw, *fkw, *bkw, *ckw, *kkw, *bakw)
                        != ("stream", "file", "bytes", "crc", "kind", "base")
                    {
                        return Err(malformed());
                    }
                    let kind = match *kind {
                        "full" => SnapshotKind::Full,
                        "delta" => SnapshotKind::Delta,
                        _ => return Err(malformed()),
                    };
                    ((*id, *file, *bytes, *crc), kind)
                }
                _ => return Err(malformed()),
            };
            let (id, file, bytes, crc) = core;
            entries.push(ManifestEntry {
                stream_id: id.parse().map_err(|e| io_err(&path, e))?,
                file: file.to_string(),
                bytes: bytes.parse().map_err(|e| io_err(&path, e))?,
                crc: u64::from_str_radix(crc, 16).map_err(|e| io_err(&path, e))?,
                kind,
            });
        }
        if entries.len() != count {
            return Err(io_err(
                &path,
                format!("manifest promises {count} streams, lists {}", entries.len()),
            ));
        }
        Ok((generation, entries))
    }

    /// Parses the manifest's rows.
    ///
    /// # Errors
    /// [`SnsError::Io`] if it is missing or malformed.
    pub fn manifest(&self) -> Result<Vec<ManifestEntry>, SnsError> {
        self.parse_manifest().map(|(_, entries)| entries)
    }

    /// Loads one manifest row: reads the file, checks its size and
    /// FNV-1a against the row, decodes it and checks that it holds the
    /// row's stream. One hash pass yields both the whole-file crc the
    /// row records and the body hash the envelope embeds, and the checks
    /// run in that order. A legacy delta row fails typed before any read.
    pub(crate) fn load_entry(&self, entry: &ManifestEntry) -> Result<EngineSnapshot, SnsError> {
        if entry.kind == SnapshotKind::Delta {
            return Err(SnsError::Codec {
                fault: CodecFault::Invalid,
                offset: 0,
                detail: format!(
                    "manifest row for stream {} names delta snapshot {}, which this build \
                     no longer reads",
                    entry.stream_id, entry.file
                ),
            });
        }
        let path = self.dir.join(&entry.file);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        if bytes.len() as u64 != entry.bytes {
            return Err(io_err(
                &path,
                format!("{} bytes on disk, manifest says {}", bytes.len(), entry.bytes),
            ));
        }
        let (body, crc) = fnv1a_split(&bytes);
        if crc != entry.crc {
            return Err(io_err(
                &path,
                format!("crc {crc:016x} on disk, manifest says {:016x}", entry.crc),
            ));
        }
        let snapshot = decode(&bytes, Some(body))?;
        if snapshot.stream_id != entry.stream_id {
            return Err(io_err(
                &path,
                format!(
                    "file holds stream {}, manifest says {}",
                    snapshot.stream_id, entry.stream_id
                ),
            ));
        }
        Ok(snapshot)
    }

    /// Loads every snapshot listed in the manifest, verifying each
    /// file's size and checksum before decoding, in manifest (stream id)
    /// order, on the calling thread. Recovery does not call it:
    /// [`recover_pool`] loads each row on its stream's shard worker.
    ///
    /// # Errors
    /// [`SnsError::Io`] for missing/mismatched files,
    /// [`SnsError::Codec`] for undecodable snapshots and legacy delta
    /// rows.
    pub fn load(&self) -> Result<Vec<EngineSnapshot>, SnsError> {
        self.manifest()?.iter().map(|entry| self.load_entry(entry)).collect()
    }
}

/// Pool-wide durability: checkpoint every stream of `pool` into `store`.
/// All-or-nothing — a stream whose engine cannot be captured fails the
/// checkpoint (a checkpoint that silently omits streams is worse than
/// none), and the previous manifest stays in place.
///
/// # Errors
/// The first capture error, or [`SnsError::Io`] from the store.
pub fn checkpoint_pool(
    pool: &EnginePool,
    store: &CheckpointStore,
) -> Result<Vec<ManifestEntry>, SnsError> {
    let mut snapshots = Vec::new();
    for (_, result) in pool.checkpoint_all() {
        snapshots.push(result?);
    }
    store.save(&snapshots)
}

/// Pool-wide recovery: rebuild every checkpointed stream from `store`
/// onto `pool`, returning the live sessions in stream-id order. Each
/// stream's shard worker reads, verifies and decodes its own snapshot
/// file, so the shards load concurrently, and each restored engine
/// continues **bitwise-identically** from its checkpoint. For
/// checkpoint+WAL deployments use
/// [`recover_pool_wal`](crate::wal::recover_pool_wal), which also
/// replays the journal tail.
///
/// # Errors
/// Store/codec errors — the same ones [`CheckpointStore::load`] reports
/// — or a snapshot the pool cannot restore: the first failure in
/// manifest order. All-or-nothing: every session this call opened is
/// closed on an error.
pub fn recover_pool(
    pool: &EnginePool,
    store: &CheckpointStore,
) -> Result<Vec<StreamSession>, SnsError> {
    let rows = store.manifest()?.into_iter().map(|entry| {
        let store = store.clone();
        (entry.stream_id, move || Ok((store.load_entry(&entry)?, Vec::new())))
    });
    pool.recover_all(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_runtime::{EngineSpec, PoolConfig};
    use sns_stream::StreamTuple;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sns-codec-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> EngineSpec {
        let config = SnsConfig { rank: 2, theta: 4, ..Default::default() };
        EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config)
    }

    fn tuples(id: u64) -> Vec<StreamTuple> {
        (0..80u64)
            .map(|t| StreamTuple::new([((t + id) % 4) as u32, ((t * 3) % 3) as u32], 1.0, t))
            .collect()
    }

    impl CheckpointStore {
        /// The manifest's checkpoint generation (0 for legacy v1
        /// manifests).
        fn generation(&self) -> Result<u64, SnsError> {
            self.parse_manifest().map(|(generation, _)| generation)
        }
    }

    /// The `stream-*` snapshot files in `dir`, sorted.
    fn snapshot_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|d| d.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("stream-") && n.ends_with(".snsc"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn checkpoint_then_recover_round_trips_a_pool() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::create(&dir).unwrap();
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 9, ..Default::default() });
        let ids = [3u64, 1, 7];
        let mut sessions: Vec<_> = ids.iter().map(|&id| pool.open(id, spec()).unwrap()).collect();
        for (s, &id) in sessions.iter_mut().zip(&ids) {
            let _ = s.ingest_batch(&tuples(id)[..40]).unwrap();
        }
        let entries = checkpoint_pool(&pool, &store).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries.windows(2).all(|w| w[0].stream_id < w[1].stream_id));
        assert!(store.manifest_path().exists());
        drop(sessions);
        pool.join(); // crash

        let fresh = EnginePool::new(PoolConfig { shards: 2, base_seed: 9, ..Default::default() });
        let mut recovered = recover_pool(&fresh, &store).unwrap();
        assert_eq!(recovered.len(), 3);
        // Sessions come back in stream-id order and keep working.
        let sorted: Vec<u64> = recovered.iter().map(|s| s.stream_id()).collect();
        assert_eq!(sorted, vec![1, 3, 7]);
        for s in &mut recovered {
            let id = s.stream_id();
            let _ = s.ingest_batch(&tuples(id)[40..]).unwrap();
            assert_eq!(s.report().unwrap().error, None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_tampered_files_and_missing_manifest() {
        let dir = temp_dir("tamper");
        let store = CheckpointStore::create(&dir).unwrap();
        assert!(matches!(store.load(), Err(SnsError::Io { .. })), "no manifest yet");

        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 1, ..Default::default() });
        let mut s = pool.open(5, spec()).unwrap();
        let _ = s.ingest_batch(&tuples(5)[..20]).unwrap();
        checkpoint_pool(&pool, &store).unwrap();

        // Corrupt the snapshot file: the manifest crc catches it.
        let file = dir.join(&store.manifest().unwrap()[0].file);
        let mut bytes = fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&file, &bytes).unwrap();
        assert!(matches!(store.load(), Err(SnsError::Io { .. })));

        // Delete it: missing file is typed, not a shorter fleet.
        fs::remove_file(&file).unwrap();
        assert!(matches!(store.load(), Err(SnsError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The pre-hash-once load of one full row, kept as the oracle: the
    /// whole file hashed against the manifest, then hashed again by the
    /// envelope inside `from_bytes`.
    fn two_pass_load(store: &CheckpointStore) -> Result<Vec<EngineSnapshot>, SnsError> {
        let mut out = Vec::new();
        for entry in store.manifest()? {
            let path = store.dir().join(&entry.file);
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            if bytes.len() as u64 != entry.bytes {
                let detail =
                    format!("{} bytes on disk, manifest says {}", bytes.len(), entry.bytes);
                return Err(io_err(&path, detail));
            }
            let crc = fnv1a(&bytes);
            if crc != entry.crc {
                let detail = format!("crc {crc:016x} on disk, manifest says {:016x}", entry.crc);
                return Err(io_err(&path, detail));
            }
            let snapshot = crate::from_bytes(&bytes)?;
            if snapshot.stream_id != entry.stream_id {
                let detail = format!(
                    "file holds stream {}, manifest says {}",
                    snapshot.stream_id, entry.stream_id
                );
                return Err(io_err(&path, detail));
            }
            out.push(snapshot);
        }
        Ok(out)
    }

    /// Hashing each file once is the same check as hashing it twice: a
    /// byte flipped anywhere — header, each section frame, each payload,
    /// the trailer — fails `load` with exactly the error the two-pass
    /// reference reports, whether the manifest still holds the original
    /// crc (the whole-file check fires) or was re-stamped over the
    /// damaged file (the envelope's own checks fire).
    #[test]
    fn hash_once_load_fails_like_the_two_pass_reference_on_every_region() {
        let dir = temp_dir("hashonce");
        let store = CheckpointStore::create(&dir).unwrap();
        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 3, ..Default::default() });
        let mut s = pool.open(5, spec()).unwrap();
        let _ = s.ingest_batch(&tuples(5)[..40]).unwrap();
        checkpoint_pool(&pool, &store).unwrap();
        let file = dir.join(&store.manifest().unwrap()[0].file);
        let good = fs::read(&file).unwrap();
        let manifest = fs::read_to_string(store.manifest_path()).unwrap();

        // Header bytes, then per section its tag, first and last length
        // byte and first, middle and last payload byte, then the trailer.
        let mut at = vec![0, 3, 4, 5, 6];
        let mut frame = 7;
        for _ in 0..3 {
            let len = u64::from_le_bytes(good[frame + 1..frame + 9].try_into().unwrap()) as usize;
            let payload = frame + 9;
            at.extend([frame, frame + 1, frame + 8, payload, payload + len / 2]);
            at.push(payload + len - 1);
            frame = payload + len;
        }
        assert_eq!(frame, good.len() - 8, "three sections, then the trailer");
        at.extend([frame, frame + 4, good.len() - 1]);

        let name = |e: &SnsError| match e {
            SnsError::Codec { fault, .. } => format!("Codec({fault:?})"),
            SnsError::Io { .. } => "Io".to_string(),
            other => format!("{other:?}"),
        };
        let mut seen = std::collections::BTreeSet::new();
        for &i in &at {
            for restamp in [false, true] {
                let mut bad = good.clone();
                bad[i] ^= 0x01;
                fs::write(&file, &bad).unwrap();
                let text = if restamp {
                    let row = format!("bytes {} crc {:016x}", good.len(), fnv1a(&good));
                    let stamped = format!("bytes {} crc {:016x}", bad.len(), fnv1a(&bad));
                    assert!(manifest.contains(&row));
                    manifest.replace(&row, &stamped)
                } else {
                    manifest.clone()
                };
                fs::write(store.manifest_path(), text).unwrap();
                let (got, want) = (store.load(), two_pass_load(&store));
                let (got, want) = (got.map(|v| v.len()), want.map(|v| v.len()));
                assert_eq!(got, want, "byte {i} flipped, manifest re-stamped: {restamp}");
                let err = got.expect_err("a flipped byte must not load");
                seen.insert(name(&err));
            }
        }
        // Both checks and every envelope fault class were reached.
        let faults = ["BadMagic", "UnsupportedVersion", "Invalid", "Checksum"];
        for fault in ["Io".to_string()].into_iter().chain(faults.map(|f| format!("Codec({f})"))) {
            assert!(seen.contains(&fault), "{fault} never fired: {seen:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_manifests_still_parse_as_full_rows() {
        let dir = temp_dir("v1manifest");
        let store = CheckpointStore::create(&dir).unwrap();
        fs::write(
            store.manifest_path(),
            "sns-checkpoint v1\nstreams 1\nstream 5 file stream-5.snsc bytes 10 crc 00000000000000ff\n",
        )
        .unwrap();
        let entries = store.manifest().unwrap();
        assert_eq!(store.generation().unwrap(), 0);
        assert_eq!(
            entries,
            vec![ManifestEntry {
                stream_id: 5,
                file: "stream-5.snsc".into(),
                bytes: 10,
                crc: 0xff,
                kind: SnapshotKind::Full,
            }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_saves_merge_streams_and_prune() {
        let dir = temp_dir("incremental");
        let store = CheckpointStore::create(&dir).unwrap();
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 9, ..Default::default() });
        let mut a = pool.open(1, spec()).unwrap();
        let mut b = pool.open(2, spec()).unwrap();
        let _ = a.ingest_batch(&tuples(1)[..40]).unwrap();
        let _ = b.ingest_batch(&tuples(2)[..40]).unwrap();

        // Gen 1: both streams.
        let snaps = |s: &mut sns_runtime::StreamSession| s.snapshot().unwrap();
        let (g1, m1) = store.save_incremental(&[snaps(&mut a), snaps(&mut b)]).unwrap();
        assert_eq!((g1, m1.len()), (1, 2));
        assert!(m1.iter().all(|e| e.kind == SnapshotKind::Full));

        // Gen 2: stream 1 is re-committed to a new generation file;
        // stream 2's row is carried over untouched.
        let (g2, m2) = store.save_incremental(&[snaps(&mut a)]).unwrap();
        assert_eq!((g2, m2.len()), (2, 2));
        let row1 = m2.iter().find(|e| e.stream_id == 1).unwrap();
        let row2 = m2.iter().find(|e| e.stream_id == 2).unwrap();
        assert_eq!(row1.file, "stream-1.g2.snsc");
        assert_eq!(row2, m1.iter().find(|e| e.stream_id == 2).unwrap());
        assert!(!dir.join("stream-1.g1.snsc").exists(), "superseded file pruned");
        assert!(dir.join("stream-2.g1.snsc").exists(), "carried-over row's file kept");

        // Gen 3: stream 1 again, after more traffic.
        let _ = a.ingest_batch(&tuples(1)[40..]).unwrap();
        let (g3, m3) = store.save_incremental(&[snaps(&mut a)]).unwrap();
        assert_eq!(g3, 3);
        assert!(m3.iter().all(|e| e.kind == SnapshotKind::Full));
        assert!(!dir.join("stream-1.g2.snsc").exists(), "superseded file pruned");
        assert_eq!(snapshot_files(&dir), ["stream-1.g3.snsc", "stream-2.g1.snsc"]);

        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(to_bytes(&loaded[0]), to_bytes(&snaps(&mut a)));
        assert_eq!(to_bytes(&loaded[1]), to_bytes(&snaps(&mut b)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A commit that fails at the manifest — after every snapshot file
    /// is written — leaves the previous checkpoint loadable byte for
    /// byte, through `checkpoint_pool` (replace) and `save_incremental`
    /// (merge) alike. A retry once the fault is gone commits, and prunes
    /// the files the failed attempt orphaned.
    #[test]
    fn a_failed_manifest_commit_leaves_the_previous_checkpoint_loadable() {
        type Commit =
            fn(&EnginePool, &CheckpointStore, &mut [StreamSession]) -> Result<(), SnsError>;
        let replace: Commit = |pool, store, _| checkpoint_pool(pool, store).map(drop);
        let merge: Commit = |_, store, sessions| {
            let snapshots: Vec<_> = sessions.iter_mut().map(|s| s.snapshot().unwrap()).collect();
            store.save_incremental(&snapshots).map(drop)
        };
        for (tag, commit) in [("replace", replace), ("merge", merge)] {
            let dir = temp_dir(&format!("failedcommit-{tag}"));
            let store = CheckpointStore::create(&dir).unwrap();
            let pool =
                EnginePool::new(PoolConfig { shards: 2, base_seed: 4, ..Default::default() });
            let mut sessions: Vec<_> = [1u64, 2].map(|id| pool.open(id, spec()).unwrap()).into();
            for s in &mut sessions {
                let id = s.stream_id();
                let _ = s.ingest_batch(&tuples(id)[..30]).unwrap();
            }
            commit(&pool, &store, &mut sessions).unwrap();
            let first: Vec<Vec<u8>> = store.load().unwrap().iter().map(to_bytes).collect();
            let first_files = snapshot_files(&dir);

            for s in &mut sessions {
                let id = s.stream_id();
                let _ = s.ingest_batch(&tuples(id)[30..60]).unwrap();
            }
            let blocker = dir.join(format!("{MANIFEST}.tmp"));
            fs::create_dir(&blocker).unwrap();
            match commit(&pool, &store, &mut sessions) {
                Err(SnsError::Io { .. }) => {}
                other => panic!("{tag}: expected Io, got {other:?}"),
            }
            let loaded: Vec<Vec<u8>> = store.load().unwrap().iter().map(to_bytes).collect();
            assert!(loaded == first, "{tag}: the failed commit damaged the previous checkpoint");
            let orphans: Vec<String> =
                snapshot_files(&dir).into_iter().filter(|f| !first_files.contains(f)).collect();
            assert_eq!(orphans.len(), 2, "{tag}: the failed attempt wrote both files");

            // Retry without stream 2, so its orphan is not rewritten.
            fs::remove_dir(&blocker).unwrap();
            sessions.pop().unwrap().close();
            commit(&pool, &store, &mut sessions).unwrap();
            let files: Vec<String> =
                store.manifest().unwrap().into_iter().map(|e| e.file).collect();
            let mut want = files.clone();
            want.sort();
            assert_eq!(snapshot_files(&dir), want, "{tag}: unreferenced files must be pruned");
            assert!(orphans.iter().any(|f| !files.contains(f)), "{tag}: an orphan was pruned");
            let loaded = store.load().unwrap();
            let row1 = loaded.iter().find(|s| s.stream_id == 1).unwrap();
            assert!(to_bytes(row1) == to_bytes(&sessions[0].snapshot().unwrap()), "{tag}");
            drop(sessions);
            pool.join();
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A manifest row an older build wrote for a delta snapshot fails
    /// `load` and `recover_pool` with a typed `Codec { Invalid }` that
    /// names the row, and recovery stays all-or-nothing.
    #[test]
    fn a_legacy_delta_row_is_refused_typed() {
        let dir = temp_dir("legacydelta");
        let store = CheckpointStore::create(&dir).unwrap();
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 6, ..Default::default() });
        let ids = [1u64, 2, 3, 4];
        let mut sessions: Vec<_> = ids.iter().map(|&id| pool.open(id, spec()).unwrap()).collect();
        for (s, &id) in sessions.iter_mut().zip(&ids) {
            let _ = s.ingest_batch(&tuples(id)[..30]).unwrap();
        }
        let rows = checkpoint_pool(&pool, &store).unwrap();
        drop(sessions);
        pool.join();

        let victim = &rows[2];
        let manifest = fs::read_to_string(store.manifest_path()).unwrap();
        let row = format!(
            "file {} bytes {} crc {:016x} kind full base -",
            victim.file, victim.bytes, victim.crc
        );
        assert!(manifest.contains(&row));
        let delta = format!(
            "file {} bytes {} crc {:016x} kind delta base {}",
            victim.file, victim.bytes, victim.crc, rows[0].file
        );
        fs::write(store.manifest_path(), manifest.replace(&row, &delta)).unwrap();
        let refused = |e: &SnsError| match e {
            SnsError::Codec { fault: CodecFault::Invalid, detail, .. } => {
                detail.contains("stream 3") && detail.contains(&victim.file)
            }
            _ => false,
        };
        let serial = store.load().map(|s| s.len()).unwrap_err();
        assert!(refused(&serial), "load: {serial:?}");

        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 6, ..Default::default() });
        let mut events = pool.ops().subscribe();
        let err = recover_pool(&pool, &store).map(|s| s.len()).unwrap_err();
        assert_eq!(err, serial, "recovery must fail like the serial load");
        assert!(pool.checkpoint_all().is_empty(), "a failed recovery left live slots");
        let (mut opened, mut closed) = (Vec::new(), Vec::new());
        for item in events.drain() {
            let sns_ops::BusItem::Event(event) = item else { continue };
            match *event {
                sns_ops::PoolEvent::StreamMigrated { stream_id, .. } => opened.push(stream_id),
                sns_ops::PoolEvent::StreamEvicted {
                    stream_id,
                    reason: sns_ops::EvictReason::Closed,
                    ..
                } => closed.push(stream_id),
                _ => {}
            }
        }
        opened.sort_unstable();
        closed.sort_unstable();
        assert!(!opened.contains(&3), "the delta row's stream was installed");
        assert_eq!(closed, opened, "every session the call opened must be closed");
        pool.join();
        let _ = fs::remove_dir_all(&dir);
    }
}
