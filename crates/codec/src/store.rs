//! File-backed checkpoint store: snapshot files per stream plus a
//! manifest, with full **and delta** checkpoints and pool-wide
//! checkpoint/recover helpers.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   MANIFEST.sns            - text manifest (see below)
//!   stream-<id>.snsc        - full snapshot (legacy save())
//!   stream-<id>.g<G>.snsc   - full snapshot committed at generation G
//!   stream-<id>.g<G>.snsd   - delta snapshot committed at generation G
//! ```
//!
//! The manifest is line-oriented text, written atomically **after** all
//! snapshot files:
//!
//! ```text
//! sns-checkpoint v2
//! checkpoint <generation>
//! streams <count>
//! stream <id> file <name> bytes <len> crc <fnv1a-hex> kind <full|delta> base <file|->
//! ```
//!
//! v1 manifests (no `checkpoint` line, rows without `kind`/`base`) are
//! still parsed — every row reads as a full snapshot at generation 0.
//!
//! Loading is manifest-driven: a missing or size/checksum-mismatched
//! file is a typed error, never a silently shorter fleet. Snapshot files
//! are written to a temporary name and renamed into place, so a crash
//! mid-checkpoint leaves the previous manifest (and therefore the
//! previous consistent checkpoint) intact. Delta rows name their `base`
//! file, which [`CheckpointStore::save_incremental`] keeps on disk for
//! as long as any delta references it.

use crate::bytes::{fnv1a, fnv1a_split};
use crate::{decode, to_bytes, to_bytes_delta};
use sns_error::{CodecFault, SnsError};
use sns_runtime::{EnginePool, EngineSnapshot, StreamSession};
use std::collections::BTreeMap;
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
    /// Delta against the row's `base` file (decodes with
    /// [`from_bytes_with_base`](crate::from_bytes_with_base)).
    Delta,
}

impl SnapshotKind {
    /// Manifest token for the kind.
    pub fn label(&self) -> &'static str {
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
    /// Whether the file is a full snapshot or a delta.
    pub kind: SnapshotKind,
    /// For deltas: the full snapshot file the delta was encoded
    /// against. `None` for full snapshots.
    pub base: Option<String>,
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

    fn file_name(stream_id: u64) -> String {
        format!("stream-{stream_id}.snsc")
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
                "stream {} file {} bytes {} crc {:016x} kind {} base {}\n",
                e.stream_id,
                e.file,
                e.bytes,
                e.crc,
                e.kind.label(),
                e.base.as_deref().unwrap_or("-"),
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

    /// Writes one **full** file per snapshot plus the manifest (last,
    /// atomically via rename), replacing any previous checkpoint in
    /// this directory. For checkpoint-over-checkpoint workloads prefer
    /// [`CheckpointStore::save_incremental`], which keeps unchanged
    /// streams and writes deltas.
    ///
    /// # Errors
    /// [`SnsError::Io`] on the first filesystem failure.
    pub fn save(&self, snapshots: &[EngineSnapshot]) -> Result<Vec<ManifestEntry>, SnsError> {
        let generation = self.generation().unwrap_or(0) + 1;
        let mut entries = Vec::with_capacity(snapshots.len());
        for snapshot in snapshots {
            let bytes = to_bytes(snapshot);
            let file = Self::file_name(snapshot.stream_id);
            self.write_file_atomic(&file, &bytes)?;
            entries.push(ManifestEntry {
                stream_id: snapshot.stream_id,
                file,
                bytes: bytes.len() as u64,
                crc: fnv1a(&bytes),
                kind: SnapshotKind::Full,
                base: None,
            });
        }
        entries.sort_by_key(|e| e.stream_id);
        self.write_manifest(generation, &entries)?;
        Ok(entries)
    }

    /// Commits a new checkpoint **generation** on top of the existing
    /// manifest: rows for streams in `snapshots` are replaced, rows for
    /// other streams are kept — which is what lets a background daemon
    /// checkpoint one shard at a time without forgetting the rest of
    /// the fleet. Each snapshot is written as a **delta** against the
    /// stream's current full base when that undercuts the full encoding
    /// by 2×, and as a fresh full file otherwise. Snapshot files no
    /// longer referenced by any row (as `file` or `base`) are pruned.
    ///
    /// Returns the committed generation and the merged manifest.
    ///
    /// # Errors
    /// [`SnsError::Io`] on the first filesystem failure (the previous
    /// manifest stays in place); [`SnsError::Codec`] if an existing
    /// base file is unreadable.
    pub fn save_incremental(
        &self,
        snapshots: &[EngineSnapshot],
    ) -> Result<(u64, Vec<ManifestEntry>), SnsError> {
        let previous = if self.manifest_path().exists() { self.manifest()? } else { Vec::new() };
        let generation = self.generation().unwrap_or(0) + 1;
        let prev_by_stream: BTreeMap<u64, &ManifestEntry> =
            previous.iter().map(|e| (e.stream_id, e)).collect();
        let mut merged: BTreeMap<u64, ManifestEntry> =
            previous.iter().map(|e| (e.stream_id, e.clone())).collect();
        for snapshot in snapshots {
            let full = to_bytes(snapshot);
            // The stream's standing full base: the previous row itself
            // when full, or the base its delta chain hangs off.
            let base_file = match prev_by_stream.get(&snapshot.stream_id) {
                None => None,
                Some(prev) => match prev.kind {
                    SnapshotKind::Full => Some(prev.file.clone()),
                    // A delta row without a base is a corrupt manifest
                    // (hand-edited or torn by a foreign writer), not a
                    // code bug — report it, don't panic over it.
                    SnapshotKind::Delta => match &prev.base {
                        Some(base) => Some(base.clone()),
                        None => {
                            return Err(SnsError::Codec {
                                fault: CodecFault::Invalid,
                                offset: 0,
                                detail: format!(
                                    "manifest delta row for stream {} names no base",
                                    snapshot.stream_id
                                ),
                            })
                        }
                    },
                },
            };
            let delta = match &base_file {
                Some(base) => {
                    let base_path = self.dir.join(base);
                    let base_bytes = fs::read(&base_path).map_err(|e| io_err(&base_path, e))?;
                    let d = to_bytes_delta(snapshot, &base_bytes)?;
                    (d.len() * 2 < full.len()).then_some(d)
                }
                None => None,
            };
            let entry = match delta {
                Some(bytes) => {
                    let file = format!("stream-{}.g{generation}.snsd", snapshot.stream_id);
                    self.write_file_atomic(&file, &bytes)?;
                    ManifestEntry {
                        stream_id: snapshot.stream_id,
                        file,
                        bytes: bytes.len() as u64,
                        crc: fnv1a(&bytes),
                        kind: SnapshotKind::Delta,
                        base: base_file,
                    }
                }
                None => {
                    let file = format!("stream-{}.g{generation}.snsc", snapshot.stream_id);
                    self.write_file_atomic(&file, &full)?;
                    ManifestEntry {
                        stream_id: snapshot.stream_id,
                        file,
                        bytes: full.len() as u64,
                        crc: fnv1a(&full),
                        kind: SnapshotKind::Full,
                        base: None,
                    }
                }
            };
            merged.insert(snapshot.stream_id, entry);
        }
        let mut entries: Vec<ManifestEntry> = merged.into_values().collect();
        entries.sort_by_key(|e| e.stream_id);
        self.write_manifest(generation, &entries)?;
        self.prune(&entries)?;
        Ok((generation, entries))
    }

    /// Deletes snapshot files no new manifest row references (as `file`
    /// or `base`). WAL segments and foreign files are untouched.
    fn prune(&self, entries: &[ManifestEntry]) -> Result<(), SnsError> {
        let live: std::collections::BTreeSet<&str> = entries
            .iter()
            .flat_map(|e| [Some(e.file.as_str()), e.base.as_deref()])
            .flatten()
            .collect();
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
            let (core, kind, base) = match (version, parts.as_slice()) {
                (1, [kw, id, fkw, file, bkw, bytes, ckw, crc]) => {
                    if (*kw, *fkw, *bkw, *ckw) != ("stream", "file", "bytes", "crc") {
                        return Err(malformed());
                    }
                    ((*id, *file, *bytes, *crc), SnapshotKind::Full, None)
                }
                (2, [kw, id, fkw, file, bkw, bytes, ckw, crc, kkw, kind, bakw, base]) => {
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
                    let base = (*base != "-").then(|| (*base).to_string());
                    if (kind == SnapshotKind::Delta) != base.is_some() {
                        return Err(malformed());
                    }
                    ((*id, *file, *bytes, *crc), kind, base)
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
                base,
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

    /// The manifest's checkpoint generation (0 for legacy v1
    /// manifests).
    ///
    /// # Errors
    /// [`SnsError::Io`] if the manifest is missing or malformed.
    pub fn generation(&self) -> Result<u64, SnsError> {
        self.parse_manifest().map(|(generation, _)| generation)
    }

    /// Loads one manifest row: reads the file, checks its size and
    /// FNV-1a against the row, decodes it (a delta against its base file)
    /// and checks that it holds the row's stream. One hash pass yields
    /// both the whole-file crc the row records and the body hash the
    /// envelope embeds, and the checks run in that order.
    pub(crate) fn load_entry(&self, entry: &ManifestEntry) -> Result<EngineSnapshot, SnsError> {
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
        let base = match (&entry.kind, &entry.base) {
            (SnapshotKind::Full, _) => None,
            (SnapshotKind::Delta, Some(base)) => {
                let base_path = self.dir.join(base);
                Some(fs::read(&base_path).map_err(|e| io_err(&base_path, e))?)
            }
            (SnapshotKind::Delta, None) => {
                return Err(io_err(&path, "delta manifest row without a base file"));
            }
        };
        let snapshot = decode(&bytes, Some(body), base.as_deref())?;
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

    /// Loads every snapshot listed in the manifest — deltas are
    /// reconstructed against their base files — verifying each file's
    /// size and checksum before decoding, in manifest (stream id)
    /// order, on the calling thread. Recovery does not call it:
    /// [`recover_pool`] loads each row on its stream's shard worker.
    ///
    /// # Errors
    /// [`SnsError::Io`] for missing/mismatched files,
    /// [`SnsError::Codec`] for undecodable snapshots or base
    /// mismatches.
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
        let file = dir.join("stream-5.snsc");
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
        let file = dir.join("stream-5.snsc");
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
                base: None,
            }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_saves_write_deltas_merge_streams_and_prune() {
        let dir = temp_dir("incremental");
        let store = CheckpointStore::create(&dir).unwrap();
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 9, ..Default::default() });
        let mut a = pool.open(1, spec()).unwrap();
        let mut b = pool.open(2, spec()).unwrap();
        let _ = a.ingest_batch(&tuples(1)[..40]).unwrap();
        let _ = b.ingest_batch(&tuples(2)[..40]).unwrap();

        // Gen 1: both streams, necessarily full (no bases yet).
        let snaps = |s: &mut sns_runtime::StreamSession| s.snapshot().unwrap();
        let (g1, m1) = store.save_incremental(&[snaps(&mut a), snaps(&mut b)]).unwrap();
        assert_eq!((g1, m1.len()), (1, 2));
        assert!(m1.iter().all(|e| e.kind == SnapshotKind::Full));

        // Gen 2: stream 1 is re-committed barely changed (the idle-
        // stream case background commits hit constantly) — its row
        // becomes a delta against the gen-1 full file; stream 2's row
        // is carried over untouched.
        let (g2, m2) = store.save_incremental(&[snaps(&mut a)]).unwrap();
        assert_eq!((g2, m2.len()), (2, 2));
        let row1 = m2.iter().find(|e| e.stream_id == 1).unwrap();
        let row2 = m2.iter().find(|e| e.stream_id == 2).unwrap();
        assert_eq!(row1.kind, SnapshotKind::Delta);
        assert_eq!(row1.base.as_deref(), Some("stream-1.g1.snsc"));
        assert!(row1.bytes * 2 < row2.bytes, "delta must be much smaller than a full snapshot");
        assert_eq!(row2.kind, SnapshotKind::Full);
        assert!(dir.join("stream-1.g1.snsc").exists(), "delta bases survive pruning");

        // Gen 3: stream 1 again — the old delta file gets pruned, the
        // base stays, and the loaded fleet matches the live one.
        let (g3, _) = store.save_incremental(&[snaps(&mut a)]).unwrap();
        assert_eq!(g3, 3);
        assert!(!dir.join("stream-1.g2.snsd").exists(), "superseded delta pruned");
        assert!(dir.join("stream-1.g1.snsc").exists());

        // Gen 4: heavy movement — window slices rotate and the factors
        // shift, so block matching collapses and the store falls back
        // to a fresh full file, retiring the old base and delta.
        let _ = a.ingest_batch(&tuples(1)[40..]).unwrap();
        let (g4, m4) = store.save_incremental(&[snaps(&mut a)]).unwrap();
        assert_eq!(g4, 4);
        let row1 = m4.iter().find(|e| e.stream_id == 1).unwrap();
        assert_eq!(row1.kind, SnapshotKind::Full);
        assert!(!dir.join("stream-1.g1.snsc").exists(), "unreferenced base pruned");
        assert!(!dir.join("stream-1.g3.snsd").exists(), "superseded delta pruned");

        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(to_bytes(&loaded[0]), to_bytes(&snaps(&mut a)));
        assert_eq!(to_bytes(&loaded[1]), to_bytes(&snaps(&mut b)));
        let _ = fs::remove_dir_all(&dir);
    }
}
