//! Per-stream write-ahead log: append-only, checksummed, torn-tail
//! tolerant segments of accepted stream operations.
//!
//! Checkpoints alone bound recovery loss to "everything since the last
//! checkpoint". The WAL closes that gap: a pool configured with a
//! [`WalSet`] as its [`BatchJournal`]
//! appends every acknowledged state-changing operation — prefill and
//! ingest batches, clock advances, warm starts — to a per-stream
//! segment file, and recovery becomes "restore the newest checkpoint,
//! replay the journal tail with `seq >` the snapshot's
//! [`wal_seq`](sns_runtime::EngineSnapshot::wal_seq)"
//! ([`recover_pool_wal`]). Records hold the pool's own operation type,
//! [`JournalOp`], so a tail read back here is handed to the pool as is.
//! Replay is deterministic by the workspace's core invariant, so the
//! recovered fleet is **bitwise-identical** to one that never crashed.
//!
//! ## Segment format
//!
//! One file per stream and checkpoint generation,
//! `stream-<id>.g<gen>.wal`:
//!
//! ```text
//! header   magic "SNSW" | version u16 (1) | stream_id u64 | gen u64
//! record*  payload_len u32 | fnv1a64(payload) u64 | payload
//! payload  seq u64 | ticket u64 | op u8 | body
//!          op 0 Prefill   : count u64 | tuple*      (wire::put_tuple)
//!          op 1 Ingest    : count u64 | tuple*
//!          op 2 AdvanceTo : t u64
//!          op 3 WarmStart : max_iters u64 | tol f64 | seed u64 | init_scale f64
//! ```
//!
//! Sequence numbers are **strictly increasing within a segment** — a
//! repeat or regression is typed corruption
//! ([`CodecFault::Invalid`](sns_error::CodecFault)), which is how
//! duplicated or reordered replay input is caught. A record cut short
//! by a crash (length, checksum, or bytes missing) is a **torn tail**:
//! the reader stops there and reports what it has, no error — that is
//! the expected shape of the file the crash left behind. The writer
//! truncates a torn tail before appending, and appends idempotently
//! (a record whose `seq` is not beyond the segment's last is skipped),
//! so recovery replay — which the pool journals again — never
//! duplicates records.
//!
//! ## Durability window
//!
//! Appends go straight to the file (no user-space buffer) but are
//! fsynced only on [`WalSet::rotate`] and drop: an acknowledged batch
//! survives a process crash, while an OS crash may cost the last few
//! records. The ack therefore *precedes* durability by design — the
//! hot path never waits on a disk flush (see
//! [`sns_runtime::journal`] for the contract, `docs/DURABILITY.md`
//! for the rationale).

use crate::bytes::{fnv1a, Reader, Writer};
use crate::store::CheckpointStore;
use sns_core::als::AlsOptions;
use sns_error::{CodecFault, SnsError};
use sns_runtime::{BatchJournal, EnginePool, JournalEntry, JournalOp, StreamSession};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Leading magic of every WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"SNSW";

/// WAL segment format version.
pub const WAL_VERSION: u16 = 1;

const OP_PREFILL: u8 = 0;
const OP_INGEST: u8 = 1;
const OP_ADVANCE_TO: u8 = 2;
const OP_WARM_START: u8 = 3;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Stream WAL sequence after the operation.
    pub seq: u64,
    /// Session ticket the operation was acknowledged under.
    pub ticket: u64,
    /// The operation.
    pub op: JournalOp,
}

/// Everything a segment readback yields.
#[derive(Debug)]
pub struct SegmentRecords {
    /// The segment's checkpoint generation (from the header).
    pub gen: u64,
    /// Fully validated records, in append order.
    pub records: Vec<WalRecord>,
    /// Whether the segment ended in a torn record (crash artifact).
    pub truncated: bool,
    /// Bytes up to and including the last valid record — the append
    /// point after discarding the torn tail.
    pub valid_len: usize,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> SnsError {
    SnsError::Io { path: path.display().to_string(), message: e.to_string() }
}

fn invalid(detail: String) -> SnsError {
    SnsError::Codec { fault: CodecFault::Invalid, offset: 0, detail }
}

fn encode_record(seq: u64, ticket: u64, op: &JournalOp) -> Vec<u8> {
    let mut p = Writer::new();
    p.u64(seq);
    p.u64(ticket);
    match op {
        JournalOp::Prefill(tuples) => {
            p.u8(OP_PREFILL);
            p.u64(tuples.len() as u64);
            for t in tuples {
                crate::wire::put_tuple(&mut p, t);
            }
        }
        JournalOp::Ingest(tuples) => {
            p.u8(OP_INGEST);
            p.u64(tuples.len() as u64);
            for t in tuples {
                crate::wire::put_tuple(&mut p, t);
            }
        }
        JournalOp::AdvanceTo(t) => {
            p.u8(OP_ADVANCE_TO);
            p.u64(*t);
        }
        JournalOp::WarmStart(opts) => {
            p.u8(OP_WARM_START);
            p.u64(opts.max_iters as u64);
            p.f64(opts.tol);
            p.u64(opts.seed);
            p.f64(opts.init_scale);
        }
    }
    let payload = p.into_bytes();
    let mut w = Writer::new();
    w.u32(payload.len() as u32);
    w.u64(fnv1a(&payload));
    w.bytes(&payload);
    w.into_bytes()
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, SnsError> {
    let mut r = Reader::new(payload);
    let seq = r.u64("wal seq")?;
    let ticket = r.u64("wal ticket")?;
    let op = match r.u8("wal op")? {
        kind @ (OP_PREFILL | OP_INGEST) => {
            let count = r.len(1, "wal tuple count")?;
            let mut tuples = Vec::with_capacity(count);
            for _ in 0..count {
                tuples.push(crate::wire::get_tuple(&mut r)?);
            }
            if kind == OP_PREFILL {
                JournalOp::Prefill(tuples)
            } else {
                JournalOp::Ingest(tuples)
            }
        }
        OP_ADVANCE_TO => JournalOp::AdvanceTo(r.u64("wal advance t")?),
        OP_WARM_START => JournalOp::WarmStart(AlsOptions {
            max_iters: r.u64("wal max_iters")? as usize,
            tol: r.f64("wal tol")?,
            seed: r.u64("wal seed")?,
            init_scale: r.f64("wal init_scale")?,
        }),
        tag => return Err(r.invalid(format!("unknown wal op tag {tag}"))),
    };
    r.expect_end("wal record")?;
    Ok(WalRecord { seq, ticket, op })
}

fn segment_header(stream_id: u64, gen: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&WAL_MAGIC);
    w.u16(WAL_VERSION);
    w.u64(stream_id);
    w.u64(gen);
    w.into_bytes()
}

/// Parses one WAL segment. Torn tails (crash artifacts) are reported
/// in-band via [`SegmentRecords::truncated`]; *structural* corruption —
/// bad magic, a duplicate or regressing sequence number, a crc-valid
/// record that fails to parse — is a typed error.
///
/// # Errors
/// [`SnsError::Codec`]: `BadMagic`/`UnsupportedVersion` for a file
/// that is not this stream's segment, `Invalid` for duplicate or
/// out-of-order sequence numbers and malformed crc-valid records.
pub fn read_segment(bytes: &[u8], expect_stream: Option<u64>) -> Result<SegmentRecords, SnsError> {
    let header_len = 4 + 2 + 8 + 8;
    if bytes.len() < header_len {
        // A crash between file creation and the header write.
        return Ok(SegmentRecords { gen: 0, records: Vec::new(), truncated: true, valid_len: 0 });
    }
    let mut r = Reader::new(bytes);
    let magic = r.bytes(4, "wal magic")?;
    if magic != WAL_MAGIC {
        return Err(SnsError::Codec {
            fault: CodecFault::BadMagic,
            offset: 0,
            detail: format!("got {magic:02x?}"),
        });
    }
    let version = r.u16("wal version")?;
    if version != WAL_VERSION {
        return Err(SnsError::Codec {
            fault: CodecFault::UnsupportedVersion,
            offset: 4,
            detail: format!("wal segment v{version}, this build reads v{WAL_VERSION}"),
        });
    }
    let stream_id = r.u64("wal stream_id")?;
    if let Some(expect) = expect_stream {
        if stream_id != expect {
            return Err(invalid(format!("segment holds stream {stream_id}, expected {expect}")));
        }
    }
    let gen = r.u64("wal gen")?;
    let mut records = Vec::new();
    let mut truncated = false;
    let mut valid_len = header_len;
    let mut last_seq = 0u64;
    loop {
        if r.remaining() == 0 {
            break;
        }
        let Ok(len) = r.u32("record length") else {
            truncated = true;
            break;
        };
        let (Ok(crc), Ok(payload)) =
            (r.u64("record checksum"), r.bytes(len as usize, "record payload"))
        else {
            truncated = true;
            break;
        };
        if fnv1a(payload) != crc {
            truncated = true;
            break;
        }
        let record = decode_payload(payload)?;
        if record.seq <= last_seq {
            return Err(invalid(format!(
                "stream {stream_id} wal seq {} after {} — duplicated or reordered records",
                record.seq, last_seq
            )));
        }
        last_seq = record.seq;
        records.push(record);
        valid_len = r.pos();
    }
    Ok(SegmentRecords { gen, records, truncated, valid_len })
}

fn segment_file_name(stream_id: u64, gen: u64) -> String {
    format!("stream-{stream_id}.g{gen}.wal")
}

fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("stream-")?.strip_suffix(".wal")?;
    let (id, gen) = rest.split_once(".g")?;
    Some((id.parse().ok()?, gen.parse().ok()?))
}

/// One stream's open segment: current file, generation, last sequence.
#[derive(Debug)]
struct StreamWal {
    gen: u64,
    path: PathBuf,
    file: fs::File,
    last_seq: u64,
}

impl StreamWal {
    /// Opens the stream's highest-generation segment for append
    /// (truncating a torn tail), or creates generation 0.
    fn open(dir: &Path, stream_id: u64) -> Result<StreamWal, SnsError> {
        let segments = list_segments(dir, stream_id)?;
        let (gen, path) = match segments.last() {
            Some((gen, path)) => (*gen, path.clone()),
            None => (0, dir.join(segment_file_name(stream_id, 0))),
        };
        // The append cursor must cover records in EVERY surviving
        // segment, not just the newest: a crash right after rotation
        // leaves the fresh segment header-only while the uncommitted
        // records sit in the previous one (rotation keeps segments
        // whose tail exceeds the committed seq). Recovery replays
        // those records through `append` again; a cursor derived from
        // the newest segment alone would re-journal them into the new
        // segment and corrupt the cross-segment sequence order.
        let mut floor_seq = 0u64;
        for (seg_gen, seg_path) in &segments {
            if *seg_gen == gen {
                continue;
            }
            let bytes = fs::read(seg_path).map_err(|e| io_err(seg_path, e))?;
            let parsed = read_segment(&bytes, Some(stream_id))?;
            floor_seq = floor_seq.max(parsed.records.last().map_or(0, |r| r.seq));
        }
        if !path.exists() {
            let mut file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
            file.write_all(&segment_header(stream_id, gen)).map_err(|e| io_err(&path, e))?;
            return Ok(StreamWal { gen, path, file, last_seq: floor_seq });
        }
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        let parsed = read_segment(&bytes, Some(stream_id))?;
        let file = fs::OpenOptions::new().write(true).open(&path).map_err(|e| io_err(&path, e))?;
        if parsed.valid_len < bytes.len() {
            // Drop the torn tail so appended records stay reachable.
            file.set_len(parsed.valid_len as u64).map_err(|e| io_err(&path, e))?;
        }
        let last_seq = parsed.records.last().map_or(0, |r| r.seq).max(floor_seq);
        let mut wal = StreamWal { gen, path, file, last_seq };
        if parsed.valid_len == 0 {
            // The crash beat even the header; rewrite it.
            wal.file
                .write_all(&segment_header(stream_id, gen))
                .map_err(|e| io_err(&wal.path, e))?;
        } else {
            use std::io::Seek as _;
            wal.file
                .seek(std::io::SeekFrom::Start(parsed.valid_len as u64))
                .map_err(|e| io_err(&wal.path, e))?;
        }
        Ok(wal)
    }

    /// Appends one record; idempotently skips sequences already in the
    /// segment (recovery replay flows through the journal again).
    fn append(&mut self, seq: u64, ticket: u64, op: &JournalOp) -> Result<(), SnsError> {
        if seq <= self.last_seq {
            return Ok(());
        }
        let record = encode_record(seq, ticket, op);
        self.file.write_all(&record).map_err(|e| io_err(&self.path, e))?;
        self.last_seq = seq;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), SnsError> {
        self.file.sync_all().map_err(|e| io_err(&self.path, e))
    }
}

fn list_segments(dir: &Path, stream_id: u64) -> Result<Vec<(u64, PathBuf)>, SnsError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((id, gen)) = parse_segment_name(name) {
            if id == stream_id {
                out.push((gen, entry.path()));
            }
        }
    }
    out.sort_by_key(|&(gen, _)| gen);
    Ok(out)
}

/// Reads a stream's journal tail from the WAL directory `dir`: every
/// record with `seq > after_seq`, across all of its segments, in
/// sequence order. This is the recovery read (`after_seq` = the
/// restored snapshot's `wal_seq`). It needs no open [`WalSet`], so a
/// recovery loader can run it on the stream's shard worker.
///
/// # Errors
/// [`SnsError::Io`] on unreadable files; [`SnsError::Codec`] on
/// structural corruption (torn tails are *not* errors).
pub(crate) fn read_tail(
    dir: &Path,
    stream_id: u64,
    after_seq: u64,
) -> Result<Vec<WalRecord>, SnsError> {
    // Flush nothing: appends are unbuffered, the file is current.
    let mut out: Vec<WalRecord> = Vec::new();
    for (_, path) in list_segments(dir, stream_id)? {
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        let parsed = read_segment(&bytes, Some(stream_id))?;
        for record in parsed.records {
            if record.seq <= after_seq {
                continue;
            }
            match out.last() {
                Some(last) if record.seq <= last.seq => {
                    return Err(invalid(format!(
                        "stream {stream_id} wal seq {} across segments after {} — \
                         duplicated or reordered records",
                        record.seq, last.seq
                    )));
                }
                _ => out.push(record),
            }
        }
    }
    Ok(out)
}

/// A directory of per-stream WAL segments, usable directly as the
/// pool's [`BatchJournal`]. Appends are per-stream serialized (streams
/// never contend with each other — one stream's records come from one
/// shard worker anyway); I/O failures are **sticky** and surfaced via
/// [`WalSet::error`] instead of failing live traffic, per the journal
/// contract.
#[derive(Debug)]
pub struct WalSet {
    dir: PathBuf,
    streams: RwLock<BTreeMap<u64, Arc<Mutex<StreamWal>>>>,
    error: Mutex<Option<SnsError>>,
}

impl WalSet {
    /// Opens (creating if needed) a WAL directory.
    ///
    /// # Errors
    /// [`SnsError::Io`] if the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, SnsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(WalSet { dir, streams: RwLock::new(BTreeMap::new()), error: Mutex::new(None) })
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The first append failure since creation, if any. A non-`None`
    /// value means the log is incomplete from that point on — the
    /// operator's cue to fail over; live ingest was never blocked.
    pub fn error(&self) -> Option<SnsError> {
        self.error.lock().expect("wal error lock poisoned").clone()
    }

    fn stream(&self, stream_id: u64) -> Result<Arc<Mutex<StreamWal>>, SnsError> {
        if let Some(s) = self.streams.read().expect("wal map poisoned").get(&stream_id) {
            return Ok(Arc::clone(s));
        }
        let mut map = self.streams.write().expect("wal map poisoned");
        if let Some(s) = map.get(&stream_id) {
            return Ok(Arc::clone(s));
        }
        let wal = StreamWal::open(&self.dir, stream_id)?;
        let wal = Arc::new(Mutex::new(wal));
        map.insert(stream_id, Arc::clone(&wal));
        Ok(wal)
    }

    /// Rotates a stream onto a fresh `gen` segment after a checkpoint
    /// committed `committed_seq`: the current segment is fsynced and
    /// closed, and older segments that hold **only** committed records
    /// (max seq ≤ `committed_seq`) are deleted — the checkpoint already
    /// owns their contents. Bounds both the tail replayed at recovery
    /// and the disk the log occupies.
    ///
    /// # Errors
    /// [`SnsError::Io`] on filesystem failures; [`SnsError::Codec`] if
    /// an old segment is structurally corrupt.
    pub fn rotate(&self, stream_id: u64, gen: u64, committed_seq: u64) -> Result<(), SnsError> {
        let stream = self.stream(stream_id)?;
        let mut wal = stream.lock().expect("stream wal poisoned");
        if gen <= wal.gen {
            return Ok(()); // stale rotation (checkpoint raced a newer one)
        }
        wal.sync()?;
        let path = self.dir.join(segment_file_name(stream_id, gen));
        let mut file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
        file.write_all(&segment_header(stream_id, gen)).map_err(|e| io_err(&path, e))?;
        let last_seq = wal.last_seq;
        *wal = StreamWal { gen, path, file, last_seq };
        for (seg_gen, seg_path) in list_segments(&self.dir, stream_id)? {
            if seg_gen >= gen {
                continue;
            }
            let bytes = fs::read(&seg_path).map_err(|e| io_err(&seg_path, e))?;
            let parsed = read_segment(&bytes, Some(stream_id))?;
            let max_seq = parsed.records.last().map_or(0, |r| r.seq);
            if max_seq <= committed_seq {
                fs::remove_file(&seg_path).map_err(|e| io_err(&seg_path, e))?;
            }
        }
        Ok(())
    }

    /// Fsyncs every open segment (used at orderly shutdown; crash
    /// recovery does not require it).
    ///
    /// # Errors
    /// [`SnsError::Io`] on the first segment that fails to sync.
    pub fn sync(&self) -> Result<(), SnsError> {
        let streams: Vec<Arc<Mutex<StreamWal>>> =
            self.streams.read().expect("wal map poisoned").values().cloned().collect();
        for stream in streams {
            stream.lock().expect("stream wal poisoned").sync()?;
        }
        Ok(())
    }
}

impl BatchJournal for WalSet {
    fn record(&self, entry: JournalEntry<'_>) {
        let result = self.stream(entry.stream_id).and_then(|s| {
            s.lock().expect("stream wal poisoned").append(entry.seq, entry.ticket, entry.op)
        });
        if let Err(e) = result {
            self.error.lock().expect("wal error lock poisoned").get_or_insert(e);
        }
    }
}

/// Checkpoint + WAL recovery: restores every stream of the newest
/// checkpoint in `store` onto `pool` together with its journal tail
/// (`seq >` its snapshot's `wal_seq`), which the stream's shard worker
/// replays before it acknowledges the restore. Returns the sessions in
/// stream-id order plus the total WAL units replayed — by determinism,
/// the recovered fleet is bitwise-identical to one that never crashed,
/// and the replay cost is bounded by the journal written since the last
/// checkpoint.
///
/// Every stream is restored at once ([`EnginePool::recover_all`]), and
/// each stream's shard worker reads, verifies and decodes its snapshot
/// file, reads its tail and replays it, so the shards recover
/// concurrently and recovery takes about as long as the slowest shard.
/// Tuple-batch replay outcomes are not propagated: a journaled batch
/// reproduces its original result, including a typed error that was
/// already acknowledged in the first life.
///
/// The pool journals every replayed operation again. If `pool` is
/// configured with the same [`WalSet`] as its journal (the normal
/// arrangement), those records are idempotently skipped by sequence
/// number; a fresh journal receives the tail anew.
///
/// # Errors
/// Store/codec/WAL read errors, or a stream the pool cannot restore — a
/// snapshot that does not rebuild, or a tail whose replay panics the
/// engine: the first failure in manifest order. All-or-nothing: on an
/// error, every session this call opened is closed.
pub fn recover_pool_wal(
    pool: &EnginePool,
    store: &CheckpointStore,
    wal: &WalSet,
) -> Result<(Vec<StreamSession>, u64), SnsError> {
    let replayed = Arc::new(AtomicU64::new(0));
    let rows = store.manifest()?.into_iter().map(|entry| {
        let (store, dir, replayed) = (store.clone(), wal.dir.clone(), Arc::clone(&replayed));
        (entry.stream_id, move || {
            let snapshot = store.load_entry(&entry)?;
            let tail = read_tail(&dir, snapshot.stream_id, snapshot.wal_seq)?;
            let ops: Vec<JournalOp> = tail.into_iter().map(|record| record.op).collect();
            replayed.fetch_add(ops.iter().map(JournalOp::units).sum(), Ordering::Relaxed);
            Ok((snapshot, ops))
        })
    });
    let sessions = pool.recover_all(rows)?;
    Ok((sessions, replayed.load(Ordering::Relaxed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_runtime::{EngineSpec, PoolConfig};
    use sns_stream::StreamTuple;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sns-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tuples(n: u64, from: u64) -> Vec<StreamTuple> {
        (from..from + n)
            .map(|t| StreamTuple::new([(t % 4) as u32, (t % 3) as u32], 1.0, t))
            .collect()
    }

    fn journal_all(wal: &WalSet, stream_id: u64, records: &[(u64, JournalOp)]) {
        for (seq, op) in records {
            wal.record(JournalEntry { stream_id, seq: *seq, ticket: *seq, op });
        }
        assert_eq!(wal.error().map(|e| e.to_string()), None);
    }

    #[test]
    fn append_read_round_trip_with_all_op_kinds() {
        let dir = temp_dir("roundtrip");
        let wal = WalSet::create(&dir).unwrap();
        let batch = tuples(5, 0);
        let opts = AlsOptions { max_iters: 7, tol: 1e-3, seed: 42, init_scale: 0.5 };
        journal_all(
            &wal,
            3,
            &[
                (5, JournalOp::Prefill(batch.clone())),
                (6, JournalOp::WarmStart(opts.clone())),
                (11, JournalOp::Ingest(batch.clone())),
                (12, JournalOp::AdvanceTo(99)),
            ],
        );
        let tail = read_tail(&dir, 3, 0).unwrap();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].op, JournalOp::Prefill(batch.clone()));
        assert_eq!(tail[1].op, JournalOp::WarmStart(opts));
        assert_eq!(tail[2].op, JournalOp::Ingest(batch));
        assert_eq!(tail[3].op, JournalOp::AdvanceTo(99));
        assert_eq!(read_tail(&dir, 3, 6).unwrap().len(), 2, "tail filter is seq > after_seq");
        assert_eq!(read_tail(&dir, 3, 12).unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_at_every_byte_offset_is_tolerated_and_truncated_on_reopen() {
        let dir = temp_dir("torn");
        let wal = WalSet::create(&dir).unwrap();
        let batch = tuples(3, 0);
        journal_all(&wal, 1, &[(3, JournalOp::Ingest(batch)), (4, JournalOp::AdvanceTo(7))]);
        drop(wal);
        let path = dir.join(segment_file_name(1, 0));
        let full = fs::read(&path).unwrap();
        let whole = read_segment(&full, Some(1)).unwrap();
        assert_eq!(whole.records.len(), 2);
        assert!(!whole.truncated);
        let first_end = {
            let after_header = &full[22..];
            let len = u32::from_le_bytes(after_header[..4].try_into().unwrap()) as usize;
            22 + 4 + 8 + len
        };
        // Cut the file at every byte inside the *second* record: the
        // first record must always survive, the tear must never error.
        for cut in first_end..full.len() {
            let parsed = read_segment(&full[..cut], Some(1)).unwrap();
            assert_eq!(parsed.records.len(), 1, "cut at {cut}");
            assert_eq!(parsed.truncated, cut != first_end, "cut at {cut}");
            assert_eq!(parsed.valid_len, first_end, "cut at {cut}");
        }
        // Reopen-for-append after a tear: the tail is discarded, the
        // next record lands right after the surviving one.
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let wal = WalSet::create(&dir).unwrap();
        journal_all(&wal, 1, &[(5, JournalOp::AdvanceTo(8))]);
        let tail = read_tail(&dir, 1, 0).unwrap();
        assert_eq!(
            tail.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 5],
            "torn record 4 dropped, record 5 appended cleanly"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_and_out_of_order_sequences_are_typed_corruption() {
        let dir = temp_dir("dup");
        let wal = WalSet::create(&dir).unwrap();
        journal_all(&wal, 9, &[(1, JournalOp::AdvanceTo(1)), (2, JournalOp::AdvanceTo(2))]);
        drop(wal);
        let path = dir.join(segment_file_name(9, 0));
        let bytes = fs::read(&path).unwrap();
        // Duplicate the last record on disk (simulates a buggy writer —
        // the idempotent append cannot produce this).
        let second_start = {
            let len = u32::from_le_bytes(bytes[22..26].try_into().unwrap()) as usize;
            22 + 4 + 8 + len
        };
        let mut dup = bytes.clone();
        dup.extend_from_slice(&bytes[second_start..]);
        match read_segment(&dup, Some(9)) {
            Err(SnsError::Codec { fault: CodecFault::Invalid, detail, .. }) => {
                assert!(detail.contains("duplicated or reordered"), "{detail}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Writer-side idempotence: re-recording an old seq is a no-op.
        let wal = WalSet::create(&dir).unwrap();
        let op = &JournalOp::AdvanceTo(9);
        wal.record(JournalEntry { stream_id: 9, seq: 2, ticket: 0, op });
        wal.record(JournalEntry { stream_id: 9, seq: 1, ticket: 0, op });
        assert_eq!(wal.error().map(|e| e.to_string()), None);
        assert_eq!(read_tail(&dir, 9, 0).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_starts_a_new_generation_and_prunes_committed_segments() {
        let dir = temp_dir("rotate");
        let wal = WalSet::create(&dir).unwrap();
        journal_all(&wal, 4, &[(1, JournalOp::AdvanceTo(1)), (2, JournalOp::AdvanceTo(2))]);
        wal.rotate(4, 1, 2).unwrap();
        assert!(!dir.join(segment_file_name(4, 0)).exists(), "fully committed g0 pruned");
        journal_all(&wal, 4, &[(3, JournalOp::AdvanceTo(3))]);
        wal.rotate(4, 2, 2).unwrap();
        assert!(dir.join(segment_file_name(4, 1)).exists(), "g1 holds uncommitted seq 3");
        let tail = read_tail(&dir, 4, 2).unwrap();
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3]);
        // Stale rotation (gen going backwards) is a no-op.
        wal.rotate(4, 1, 99).unwrap();
        assert_eq!(read_tail(&dir, 4, 0).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_pool_checkpoint_wal_recovery_is_bitwise_identical() {
        let dir = temp_dir("pool");
        let wal = Arc::new(WalSet::create(dir.join("wal")).unwrap());
        let store = CheckpointStore::create(dir.join("ckpt")).unwrap();
        let config = SnsConfig { rank: 2, theta: 2, ..Default::default() };
        let spec = EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config);
        let trace = tuples(90, 0);

        // Reference: an uninterrupted journaled run.
        let reference = {
            let wal = Arc::new(WalSet::create(dir.join("ref-wal")).unwrap());
            let pool = EnginePool::new(PoolConfig {
                shards: 1,
                base_seed: 7,
                journal: Some(wal),
                ..Default::default()
            });
            let mut s = pool.open(5, spec.clone()).unwrap();
            let _ = s.ingest_batch(&trace).unwrap();
            crate::to_bytes(&s.snapshot().unwrap())
        };

        // Doomed run: checkpoint at tuple 40, journal through 60, crash.
        {
            let pool = EnginePool::new(PoolConfig {
                shards: 1,
                base_seed: 7,
                journal: Some(Arc::clone(&wal) as _),
                ..Default::default()
            });
            let mut s = pool.open(5, spec.clone()).unwrap();
            let _ = s.ingest_batch(&trace[..40]).unwrap();
            let snapshots: Vec<_> =
                pool.checkpoint_all().into_iter().map(|(_, r)| r.unwrap()).collect();
            assert_eq!(snapshots[0].wal_seq, 40);
            let (gen, _) = store.save_incremental(&snapshots).unwrap();
            wal.rotate(5, gen, snapshots[0].wal_seq).unwrap();
            let _ = s.ingest_batch(&trace[40..60]).unwrap();
            drop(s);
            pool.join(); // crash: tuples 40..60 exist only in the WAL
        }

        // Recover on a fresh pool sharing the same WAL, then finish.
        let pool = EnginePool::new(PoolConfig {
            shards: 1,
            base_seed: 7,
            journal: Some(Arc::clone(&wal) as _),
            ..Default::default()
        });
        let (mut sessions, replayed) = recover_pool_wal(&pool, &store, &wal).unwrap();
        assert_eq!(replayed, 20, "exactly the journal tail since the checkpoint");
        assert_eq!(wal.error().map(|e| e.to_string()), None);
        let s = &mut sessions[0];
        let _ = s.ingest_batch(&trace[60..]).unwrap();
        assert_eq!(
            crate::to_bytes(&s.snapshot().unwrap()),
            reference,
            "recovered stream diverged from the uninterrupted run"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash right after a rotation leaves the fresh segment holding
    /// only its header while records past the checkpoint sit in the
    /// previous one. Recovery must replay them once, re-journal them
    /// without duplicating a sequence number across segments, and a
    /// second crash and recovery must end where an uninterrupted run
    /// does.
    #[test]
    fn crash_right_after_rotation_then_recover_twice() {
        let dir = temp_dir("rotate-crash");
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
            crate::to_bytes(&s.snapshot().unwrap())
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
        let tail = read_tail(wal.dir(), 5, 40);
        tail.expect("read_tail after rotate-crash-recover cycle must not report corruption");
        let pool = journaled_pool(&wal);
        let (mut sessions, replayed) = recover_pool_wal(&pool, &store, &wal).unwrap();
        assert_eq!(replayed, 10);
        assert!(wal.error().is_none(), "wal error: {:?}", wal.error());
        assert!(
            crate::to_bytes(&sessions[0].snapshot().unwrap()) == reference,
            "the second recovery diverged from the uninterrupted run"
        );
        drop(sessions);
        pool.join();
        let _ = fs::remove_dir_all(&dir);
    }
}
