//! The pooled run: a workload driven through the public `EnginePool` /
//! `StreamSession` API from a single generator thread.
//!
//! Phases: set-up (repeated, the last one kept), a warm-up of
//! `warmup_batches` per stream ending in a fitness read (the fitness
//! horizon), the measured phase (closed or open loop), reads, and a
//! crash followed by timed recoveries that must reproduce the
//! uninterrupted state byte for byte.

use crate::alloc;
use crate::trace::Tracer;
use crate::workload::{Workload, LIVE_READS_PER_S, PROBE_READS, SHARDS};
use sns_codec::daemon::{CheckpointPolicy, Checkpointer};
use sns_codec::store::{checkpoint_pool, recover_pool, CheckpointStore, SnapshotKind};
use sns_codec::to_bytes;
use sns_codec::wal::{recover_pool_wal, WalSet};
use sns_runtime::{
    BatchJournal, BatchReceipt, EnginePool, EngineSnapshot, JournalEntry, PoolConfig, SnsError,
    StreamSession,
};
use sns_stream::StreamTuple;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported and the last one is kept.
pub const SETUP_REPS: usize = 5;
/// Crash recoveries per run; the median is reported.
pub const RECOVER_REPS: usize = 9;

/// Closed loops: rounds of writes, each followed by reads.
pub const ROUNDS: usize = 10;

/// How long the driver sleeps when a pass over every session found no
/// receipt; receipts are observed within about this bound.
const NAP: Duration = Duration::from_micros(150);

/// Which expectation the self-tests perturb to prove a check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    None,
    Receipts,
    Counts,
    Fitness,
    Recovery,
    Shadow,
}

impl Perturb {
    pub fn parse(name: &str) -> Option<Perturb> {
        Some(match name {
            "none" => Perturb::None,
            "receipts" => Perturb::Receipts,
            "counts" => Perturb::Counts,
            "fitness" => Perturb::Fitness,
            "recovery" => Perturb::Recovery,
            "shadow" => Perturb::Shadow,
            _ => return None,
        })
    }
}

/// Everything the pooled run measured. Times are raw samples.
#[derive(Default)]
pub struct Pooled {
    pub setup_s: Vec<f64>,
    /// `EnginePool::open` and `prefill_batch` time of the kept set-up.
    pub open_s: f64,
    pub prefill_s: f64,
    /// Per stream: fitness read after the warm-up batches.
    pub horizon_fitness: Vec<f64>,
    pub measured_s: f64,
    pub measured_updates: u64,
    pub measured_batches: u64,
    /// Trace-origin bounds of the measured phase (traced runs).
    pub measured_ns: (u64, u64),
    pub ack_ms: Vec<f64>,
    /// The same acknowledgment latencies, split by shard.
    pub ack_ms_by_shard: Vec<Vec<f64>>,
    pub read_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub dump_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub replayed_units: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub submit_us: Vec<f64>,
    pub submit_attempts: u64,
    pub submit_accepted: u64,
    pub receipt_wait_s: f64,
    pub depth_sum: f64,
    pub depth_samples: u64,
    pub backlog_max: usize,
    pub allocs: u64,
    pub groups: u64,
    pub commits: u64,
    pub delta_ratio: f64,
    pub store_bytes: u64,
    pub wal_bytes_per_tuple: f64,
    /// Per stream: live batches acknowledged (warm-up, measured, tail).
    pub batches_acked: Vec<usize>,
    /// Per stream: the uninterrupted final state.
    pub finals: Vec<EngineSnapshot>,
}

impl Pooled {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Times each `WalSet::record` from outside the codec; spans join their
/// batch by `(stream_id, ticket)`.
struct TracedJournal {
    wal: Arc<WalSet>,
    tracer: Tracer,
}

impl BatchJournal for TracedJournal {
    fn record(&self, entry: JournalEntry<'_>) {
        let start = Instant::now();
        self.wal.record(entry);
        self.tracer.record(
            "codec.wal_record",
            start,
            Instant::now(),
            entry.stream_id,
            entry.ticket,
        );
    }
}

/// A live pool with its sessions and durability stack.
struct Env {
    pool: Arc<EnginePool>,
    sessions: Vec<StreamSession>,
    wal: Option<Arc<WalSet>>,
    store: CheckpointStore,
    daemon: Option<Checkpointer>,
}

impl Env {
    /// Orderly teardown of a set-up that is not kept.
    fn discard(self) {
        drop(self.sessions);
        if let Some(daemon) = self.daemon {
            daemon.stop();
        }
        drop(self.pool);
    }
}

fn pool_config(w: &Workload, journal: Option<Arc<dyn BatchJournal>>) -> PoolConfig {
    PoolConfig {
        shards: SHARDS,
        base_seed: w.base_seed,
        queue_depth: 512,
        bus_capacity: 1024,
        quarantine: w.quarantine,
        journal,
    }
}

fn err(what: &str) -> impl Fn(SnsError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Pool start, opens, prefill and warm start.
fn setup(
    w: &Workload,
    dir: &Path,
    tracer: Option<&Tracer>,
    out: &mut Pooled,
) -> Result<Env, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let wal = match w.journal {
        true => Some(Arc::new(WalSet::create(dir.join("wal")).map_err(err("wal"))?)),
        false => None,
    };
    let journal: Option<Arc<dyn BatchJournal>> = wal.as_ref().map(|wal| match tracer {
        Some(t) => Arc::new(TracedJournal { wal: Arc::clone(wal), tracer: t.clone() }) as _,
        None => Arc::clone(wal) as _,
    });
    let pool = Arc::new(EnginePool::new(pool_config(w, journal)));
    let store = CheckpointStore::create(dir.join("store")).map_err(err("store"))?;
    let daemon = match &wal {
        Some(wal) => Some(
            Checkpointer::start(
                Arc::clone(&pool),
                store.clone(),
                Arc::clone(wal),
                CheckpointPolicy { min_batches: 256, poll: Duration::from_millis(50) },
            )
            .map_err(err("checkpointer"))?,
        ),
        None => None,
    };
    let (mut open_s, mut prefill_s) = (0.0, 0.0);
    let mut sessions = Vec::with_capacity(w.streams.len());
    for s in &w.streams {
        if pool.shard_of(s.id) != s.shard {
            return Err(format!("stream {} is not on shard {}", s.id, s.shard));
        }
        let t = Instant::now();
        sessions.push(pool.open(s.id, w.spec(s)).map_err(err("open"))?);
        open_s += t.elapsed().as_secs_f64();
    }
    for (s, session) in w.streams.iter().zip(&mut sessions) {
        let t = Instant::now();
        for chunk in w.prefill(s).chunks(4096) {
            let receipt = session.prefill_batch(chunk).map_err(err("prefill"))?;
            if receipt.accepted != chunk.len() {
                return Err(format!("prefill of stream {} accepted {}", s.id, receipt.accepted));
            }
        }
        prefill_s += t.elapsed().as_secs_f64();
    }
    for session in &mut sessions {
        let _ = session.warm_start(&w.als).map_err(err("warm start"))?;
    }
    out.setup_s.push(start.elapsed().as_secs_f64());
    out.open_s = open_s;
    out.prefill_s = prefill_s;
    if let Some(t) = tracer {
        t.record("setup", start, Instant::now(), 0, 0);
    }
    Ok(Env { pool, sessions, wal, store, daemon })
}

/// Driver-side state of one stream.
#[derive(Default)]
struct Lane {
    /// Next live batch to submit.
    next: usize,
    /// Submitted batches awaiting receipts: (batch, clock start). The
    /// clock starts at submit (closed loop) or at the due time (open).
    outstanding: VecDeque<(usize, Instant)>,
    /// Closed loop: when each freed slot's receipt was collected.
    freed: VecDeque<Instant>,
    tuples: u64,
    updates: u64,
}

struct Driver<'a> {
    w: &'a Workload,
    tracer: Option<&'a Tracer>,
    perturb: Perturb,
    /// Closed loop: lateness is measured from the freed slot.
    closed: bool,
    lanes: Vec<Lane>,
    out: Pooled,
}

impl Driver<'_> {
    fn backlog(&self) -> usize {
        self.lanes.iter().map(|l| l.outstanding.len()).sum()
    }

    fn on_receipt(&mut self, s: usize, r: Option<Result<BatchReceipt, SnsError>>, at: Instant) {
        let id = self.w.streams[s].id;
        let Some((batch, clock)) = self.lanes[s].outstanding.pop_front() else {
            self.out.fail(format!("stream {id}: receipt without a submitted batch"));
            return;
        };
        let ack = ms(at.saturating_duration_since(clock));
        self.out.ack_ms.push(ack);
        self.out.ack_ms_by_shard[self.w.streams[s].shard].push(ack);
        match r {
            Some(Ok(receipt)) => {
                if receipt.accepted != self.w.batch {
                    self.out
                        .fail(format!("stream {id} batch {batch}: accepted {}", receipt.accepted));
                }
                self.lanes[s].tuples += receipt.accepted as u64;
                self.lanes[s].updates += receipt.updates;
                self.out.measured_updates += receipt.updates;
            }
            Some(Err(e)) => {
                self.out.failed += 1;
                self.out.fail(format!("stream {id} batch {batch}: receipt error: {e}"));
            }
            None => {
                self.out.failed += 1;
                self.out.fail(format!("stream {id} batch {batch}: receipt missing"));
            }
        }
        if self.closed {
            self.lanes[s].freed.push_back(at);
        }
    }

    /// Collects every ready receipt; true if any arrived.
    fn poll(&mut self, sessions: &mut [StreamSession]) -> bool {
        let mut progress = false;
        for (s, session) in sessions.iter_mut().enumerate() {
            while let Some(r) = session.try_recv_receipt() {
                self.on_receipt(s, Some(r), Instant::now());
                progress = true;
            }
        }
        progress
    }

    /// Waits briefly for receipts. One session cannot wait on many, and
    /// blocking on any single receipt can leave the other shard idle once
    /// its own queue drains; a short nap keeps every shard fed without
    /// spinning a core away from them.
    fn nap(&mut self) {
        let start = Instant::now();
        std::thread::sleep(NAP);
        let end = Instant::now();
        self.out.receipt_wait_s += end.duration_since(start).as_secs_f64();
        if let Some(t) = self.tracer {
            t.record("runtime.receipt_wait", start, end, 0, 0);
        }
    }

    /// Submits lane `s`'s next batch; false on refusal or when the trace
    /// is exhausted.
    fn submit(&mut self, sessions: &mut [StreamSession], s: usize, clock: Option<Instant>) -> bool {
        let plan = &self.w.streams[s];
        let batch = self.lanes[s].next;
        if batch >= self.w.batches(plan) {
            self.out.fail(format!("stream {}: trace exhausted at batch {batch}", plan.id));
            return false;
        }
        let tuples = self.w.batch(plan, batch);
        let corrupt;
        let tuples =
            if self.perturb == Perturb::Receipts && s == 0 && batch == self.w.warmup_batches {
                // An out-of-bounds coordinate: the engine must refuse it.
                let mut bad = tuples.to_vec();
                bad[0] = StreamTuple::new([self.w.base_dims[0] as u32, 0u32], 1.0, bad[0].time);
                corrupt = bad;
                &corrupt[..]
            } else {
                tuples
            };
        self.out.attempted += 1;
        self.out.submit_attempts += 1;
        let start = Instant::now();
        let sent = sessions[s].try_ingest_batch(tuples);
        let end = Instant::now();
        if let Some(t) = self.tracer {
            t.record("runtime.submit", start, end, plan.id, sent.as_ref().map_or(0, |&k| k));
            self.out.submit_us.push(end.duration_since(start).as_secs_f64() * 1e6);
        }
        match sent {
            Ok(_ticket) => {
                self.out.submit_accepted += 1;
                let lane = &mut self.lanes[s];
                let since = match clock {
                    Some(due) => Some(due),
                    None => lane.freed.pop_front(),
                };
                if let Some(since) = since {
                    self.out.late_ms.push(ms(start.saturating_duration_since(since)));
                }
                lane.outstanding.push_back((batch, clock.unwrap_or(start)));
                lane.next += 1;
                let backlog = self.backlog();
                self.out.backlog_max = self.out.backlog_max.max(backlog);
                true
            }
            Err(SnsError::Backpressure { .. }) => {
                self.out.failed += 1;
                false
            }
            Err(e) => {
                self.out.failed += 1;
                self.out.fail(format!("stream {}: submit failed: {e}", plan.id));
                false
            }
        }
    }

    fn sample_depth(&mut self, pool: &EnginePool) {
        if self.tracer.is_some() {
            let m = pool.ops().metrics();
            let depth: usize = (0..SHARDS).map(|i| m.shard(i).depth()).sum();
            self.out.depth_sum += depth as f64 / SHARDS as f64;
            self.out.depth_samples += 1;
        }
    }

    fn dump(&mut self, pool: &EnginePool) {
        let start = Instant::now();
        let text = pool.ops().metrics().dump();
        let end = Instant::now();
        std::hint::black_box(text.len());
        self.out.dump_ms.push(ms(end.duration_since(start)));
        if let Some(t) = self.tracer {
            t.record("ops.dump", start, end, 0, 0);
        }
    }

    fn read(&mut self, sessions: &mut [StreamSession], s: usize) {
        self.out.attempted += 1;
        let start = Instant::now();
        let report = sessions[s].report();
        let end = Instant::now();
        self.out.read_ms.push(ms(end.duration_since(start)));
        if let Some(t) = self.tracer {
            t.record("runtime.read", start, end, self.w.streams[s].id, 0);
        }
        match report {
            Ok(r) if r.error.is_none() && r.fitness.is_finite() => {}
            Ok(r) => {
                self.out.failed += 1;
                self.out.fail(format!("stream {}: unhealthy read {:?}", r.stream_id, r.error));
            }
            Err(e) => {
                self.out.failed += 1;
                self.out.fail(format!("stream {}: read failed: {e}", self.w.streams[s].id));
            }
        }
    }

    /// Blocking ingest of lane `s`'s next batch outside the measured
    /// phase (warm-up and recovery tail).
    fn ingest_sync(&mut self, sessions: &mut [StreamSession], s: usize) {
        let plan = &self.w.streams[s];
        let batch = self.lanes[s].next;
        if batch >= self.w.batches(plan) {
            self.out.fail(format!("stream {}: trace exhausted at batch {batch}", plan.id));
            return;
        }
        self.out.attempted += 1;
        match sessions[s].ingest_batch(self.w.batch(plan, batch)) {
            Ok(r) => {
                self.lanes[s].tuples += r.accepted as u64;
                self.lanes[s].updates += r.updates;
            }
            Err(e) => {
                self.out.failed += 1;
                self.out.fail(format!("stream {}: batch {batch} failed: {e}", plan.id));
            }
        }
        self.lanes[s].next += 1;
    }

    /// Closed loop in `ROUNDS` rounds: each keeps `in_flight` batches
    /// outstanding per stream for its share of `seconds`, collects the
    /// rest, takes a metrics dump, and then reads every stream in turn on
    /// the drained pool. Spreading the reads over the run samples the
    /// same host conditions the writes see. Returns the time spent
    /// writing (round start to last receipt, summed).
    fn closed_loop(
        &mut self,
        pool: &EnginePool,
        sessions: &mut [StreamSession],
        seconds: f64,
    ) -> f64 {
        let mut writing = 0.0;
        for _ in 0..ROUNDS {
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(seconds / ROUNDS as f64);
            loop {
                let now = Instant::now();
                let submitting = now < end && self.out.failures.is_empty();
                if !submitting && self.backlog() == 0 {
                    break;
                }
                let mut progress = self.poll(sessions);
                if submitting {
                    for s in 0..self.lanes.len() {
                        while self.lanes[s].outstanding.len() < self.w.in_flight {
                            if !self.submit(sessions, s, None) {
                                break;
                            }
                            progress = true;
                        }
                    }
                }
                self.sample_depth(pool);
                if !progress {
                    self.nap();
                }
            }
            writing += start.elapsed().as_secs_f64();
            for lane in &mut self.lanes {
                lane.freed.clear();
            }
            self.dump(pool);
            for i in 0..PROBE_READS / ROUNDS {
                self.read(sessions, i % self.lanes.len());
            }
        }
        writing
    }

    /// Open loop: every batch is due when its last tuple arrives, with the
    /// trace's inter-arrival pattern compressed to the offered rate.
    /// Reads and metrics dumps run beside the writes.
    fn open_loop(&mut self, pool: &EnginePool, sessions: &mut [StreamSession], seconds: f64) {
        let w = self.w;
        let rate = w.offered_rate.unwrap_or(1.0) / w.streams.len() as f64;
        let per_stream = ((rate * seconds) / w.batch as f64).round().max(1.0) as usize;
        let start = Instant::now();
        // Per stream: due offsets of its scheduled batches.
        let schedules: Vec<Vec<Duration>> = w
            .streams
            .iter()
            .enumerate()
            .map(|(s, plan)| {
                let first = self.lanes[s].next;
                let t0 = w.batch(plan, first)[0].time;
                let t_end = w.batch(plan, first + per_stream - 1)[w.batch - 1].time;
                let ticks_per_s = (t_end - t0).max(1) as f64 / seconds;
                (first..first + per_stream)
                    .map(|b| {
                        let t = w.batch(plan, b)[w.batch - 1].time;
                        Duration::from_secs_f64((t - t0) as f64 / ticks_per_s)
                    })
                    .collect()
            })
            .collect();
        let mut cursor = vec![0usize; w.streams.len()];
        let read_every = Duration::from_secs_f64(w.streams.len() as f64 / LIVE_READS_PER_S);
        let mut next_read: Vec<Duration> = (0..w.streams.len())
            .map(|s| read_every.mul_f64((s as f64 + 0.5) / w.streams.len() as f64))
            .collect();
        let horizon = Duration::from_secs_f64(seconds);
        let mut next_dump = Duration::from_secs(1);
        loop {
            self.poll(sessions);
            self.sample_depth(pool);
            let now = start.elapsed();
            let due = (0..w.streams.len())
                .filter(|&s| cursor[s] < schedules[s].len())
                .map(|s| (schedules[s][cursor[s]], s))
                .min();
            if due.is_none() && self.backlog() == 0 {
                break;
            }
            if let Some((at, s)) = due.filter(|&(at, _)| at <= now) {
                if self.submit(sessions, s, Some(start + at)) {
                    cursor[s] += 1;
                } else if !self.out.failures.is_empty() {
                    cursor[s] = schedules[s].len();
                }
                continue;
            }
            let read =
                (0..w.streams.len()).map(|s| (next_read[s], s)).min().filter(|r| r.0 < horizon);
            if let Some((_, s)) = read.filter(|&(at, _)| at <= now) {
                self.read(sessions, s);
                next_read[s] += read_every;
                continue;
            }
            if next_dump < horizon && next_dump <= now {
                self.dump(pool);
                next_dump += Duration::from_secs(1);
                continue;
            }
            let wake = [due.map(|d| d.0), read.map(|r| r.0), Some(next_dump)]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(now);
            std::thread::sleep(wake.saturating_sub(now).clamp(Duration::from_micros(20), NAP));
        }
    }
}

/// Runs the workload's pooled phases. `dir` holds the run's WAL and
/// checkpoint files and is removed afterwards.
pub fn run(
    w: &Workload,
    seconds: f64,
    dir: &Path,
    tracer: Option<&Tracer>,
    perturb: Perturb,
) -> Result<Pooled, String> {
    let mut out = Pooled { ack_ms_by_shard: vec![Vec::new(); SHARDS], ..Pooled::default() };
    let mut env = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = env.take() {
            Env::discard(old);
        }
        env = Some(setup(w, &dir.join(format!("setup-{rep}")), tracer, &mut out)?);
    }
    let Env { pool, mut sessions, wal, store, daemon } = env.expect("at least one set-up");
    let mut d = Driver {
        w,
        tracer,
        perturb,
        closed: w.offered_rate.is_none(),
        lanes: w.streams.iter().map(|_| Lane::default()).collect(),
        out,
    };

    // Warm-up, then the fitness horizon.
    for _ in 0..w.warmup_batches {
        for s in 0..w.streams.len() {
            d.ingest_sync(&mut sessions, s);
        }
    }
    for (s, session) in sessions.iter_mut().enumerate() {
        d.out.attempted += 1;
        match session.report() {
            Ok(r) => d.out.horizon_fitness.push(r.fitness),
            Err(e) => d.out.fail(format!("stream {}: horizon read failed: {e}", w.streams[s].id)),
        }
    }

    // Measured phase.
    let groups = |pool: &EnginePool| -> u64 {
        (0..SHARDS).map(|i| pool.ops().metrics().shard(i).ingest_groups.load(Relaxed)).sum()
    };
    let submitted_before = d.lanes.iter().map(|l| l.next).sum::<usize>();
    let groups_before = groups(&pool);
    let allocs_before = alloc::calls();
    let start = Instant::now();
    let writing = match w.offered_rate {
        Some(_) => {
            d.open_loop(&pool, &mut sessions, seconds);
            None
        }
        None => Some(d.closed_loop(&pool, &mut sessions, seconds)),
    };
    let end = Instant::now();
    d.out.allocs = alloc::calls() - allocs_before;
    d.out.groups = groups(&pool) - groups_before;
    d.out.measured_s = writing.unwrap_or_else(|| end.duration_since(start).as_secs_f64());
    d.out.measured_batches =
        (d.lanes.iter().map(|l| l.next).sum::<usize>() - submitted_before) as u64;
    if let Some(t) = tracer {
        d.out.measured_ns = (t.ns(start), t.ns(end));
        t.record("measured", start, end, 0, 0);
    }

    // Durability: a final checkpoint, then (taxi-live) a fixed journal
    // tail that only the WAL holds.
    let commits = daemon.map(|daemon| daemon.stop().commits).unwrap_or(0);
    d.out.commits = commits;
    match &wal {
        Some(wal) => {
            if let Err(e) = commit_all(&pool, &store, wal) {
                d.out.fail(format!("final checkpoint: {e}"));
            }
            let before = dir_bytes(wal.dir());
            for _ in 0..w.tail_batches {
                for s in 0..w.streams.len() {
                    d.ingest_sync(&mut sessions, s);
                }
            }
            d.out.finals = snapshot_all(&mut sessions, &mut d.out);
            let tail_tuples = (w.tail_batches * w.batch * w.streams.len()).max(1);
            d.out.wal_bytes_per_tuple =
                dir_bytes(wal.dir()).saturating_sub(before) as f64 / tail_tuples as f64;
            if let Some(e) = wal.error() {
                d.out.fail(format!("wal: {e}"));
            }
        }
        None => {
            d.out.finals = snapshot_all(&mut sessions, &mut d.out);
            if let Err(e) = checkpoint_pool(&pool, &store) {
                d.out.fail(format!("checkpoint: {e}"));
            }
        }
    }
    if let Ok(manifest) = store.manifest() {
        let deltas = manifest.iter().filter(|e| e.kind == SnapshotKind::Delta).count();
        d.out.delta_ratio = deltas as f64 / manifest.len().max(1) as f64;
    }
    d.out.store_bytes = dir_bytes(store.dir());

    // Output checks: counts against the timestamp oracle.
    d.out.batches_acked = d.lanes.iter().map(|l| l.next).collect();
    for (s, session) in sessions.iter_mut().enumerate() {
        let plan = &w.streams[s];
        let n = d.lanes[s].next;
        let mut expected = w.expected_updates(plan, n);
        if perturb == Perturb::Counts && s == 0 {
            expected += 1;
        }
        let lane = &d.lanes[s];
        if lane.tuples != (n * w.batch) as u64 {
            d.out.fail(format!(
                "stream {}: {} tuples acked, expected {}",
                plan.id,
                lane.tuples,
                n * w.batch
            ));
        }
        if lane.updates != expected {
            d.out.fail(format!(
                "stream {}: {} updates acked, expected {expected}",
                plan.id, lane.updates
            ));
        }
        match session.report() {
            Ok(r) if r.updates_applied == expected => {}
            Ok(r) => d.out.fail(format!(
                "stream {}: engine applied {} updates, expected {expected}",
                plan.id, r.updates_applied
            )),
            Err(e) => d.out.fail(format!("stream {}: final read failed: {e}", plan.id)),
        }
    }

    // Crash, then recover repeatedly; each recovery must reproduce the
    // uninterrupted state byte for byte.
    drop(sessions);
    drop(pool);
    let mut reference: Vec<(u64, Vec<u8>)> =
        d.out.finals.iter().map(|f| (f.stream_id, to_bytes(f))).collect();
    if perturb == Perturb::Recovery {
        if let Some(byte) = reference.first_mut().and_then(|r| r.1.last_mut()) {
            *byte ^= 1;
        }
    }
    for _ in 0..RECOVER_REPS {
        let journal = wal.as_ref().map(|wal| Arc::clone(wal) as Arc<dyn BatchJournal>);
        let pool = EnginePool::new(pool_config(w, journal));
        d.out.attempted += 1;
        let t = Instant::now();
        let _ = std::hint::black_box(store.load().map(|s| s.len()));
        d.out.load_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let recovered = match &wal {
            Some(wal) => recover_pool_wal(&pool, &store, wal).map(|(sessions, replayed)| {
                d.out.replayed_units = replayed;
                sessions
            }),
            None => recover_pool(&pool, &store),
        };
        d.out.recover_s.push(t.elapsed().as_secs_f64());
        match recovered {
            Ok(mut sessions) => {
                if sessions.len() != reference.len() {
                    d.out.fail(format!(
                        "recovered {} of {} streams",
                        sessions.len(),
                        reference.len()
                    ));
                }
                for session in &mut sessions {
                    let id = session.stream_id();
                    let same = match session.snapshot() {
                        Ok(snap) => {
                            reference.iter().any(|(rid, b)| *rid == id && *b == to_bytes(&snap))
                        }
                        Err(_) => false,
                    };
                    if !same {
                        d.out.failed += 1;
                        d.out.fail(format!(
                            "stream {id}: recovered state differs from the uninterrupted run"
                        ));
                    }
                }
                drop(sessions);
            }
            Err(e) => {
                d.out.failed += 1;
                d.out.fail(format!("recovery failed: {e}"));
            }
        }
        pool.join();
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(d.out)
}

/// Checkpoints every shard the way the background daemon does (capture,
/// incremental save, WAL rotation).
fn commit_all(pool: &EnginePool, store: &CheckpointStore, wal: &WalSet) -> Result<(), SnsError> {
    for shard in 0..SHARDS {
        let mut snapshots = Vec::new();
        for (_, snapshot) in pool.checkpoint_shard(shard)? {
            snapshots.push(snapshot?);
        }
        if snapshots.is_empty() {
            continue;
        }
        let (generation, _) = store.save_incremental(&snapshots)?;
        for snapshot in &snapshots {
            wal.rotate(snapshot.stream_id, generation, snapshot.wal_seq)?;
        }
    }
    Ok(())
}

fn snapshot_all(sessions: &mut [StreamSession], out: &mut Pooled) -> Vec<EngineSnapshot> {
    let mut finals = Vec::with_capacity(sessions.len());
    for session in sessions {
        match session.snapshot() {
            Ok(snap) => finals.push(snap),
            Err(e) => out.fail(format!("stream {}: snapshot failed: {e}", session.stream_id())),
        }
    }
    finals
}

/// Total size of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The per-run scratch directory under the output directory.
pub fn run_dir(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("{workload}-{}", std::process::id()))
}
