//! Per-stream / per-shard counters, latency histograms, queue gauges.
//!
//! Everything here is updated with relaxed atomics from the hot path —
//! a metrics update is a handful of uncontended `fetch_add`s, never a
//! lock. Snapshots ([`MetricsRegistry::dump`]) read the same atomics
//! without stopping writers, so a dump taken mid-traffic is internally
//! *approximate* (counters may be a few events apart) but every
//! individual counter is exact.
//!
//! Latencies use a log₂-bucketed histogram over nanoseconds: bucket `i`
//! holds durations whose bit length is `i`, so quantiles are exact to a
//! factor of 2 across the full range (1 ns … ~9 min) with 40 fixed
//! `AtomicU64` buckets and no allocation on record.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::bus::BusStats;
use crate::dlq::DlqStats;

const BUCKETS: usize = 40;

/// Lock-free log₂ latency histogram (nanosecond domain).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Reads a consistent-enough snapshot with quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let quantile = |p: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let target = ((p * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    // Upper bound of bucket i (bit length i) is 2^i - 1 ns.
                    let upper_ns = if i >= 63 { u64::MAX } else { (1u64 << i).saturating_sub(1) };
                    return upper_ns.min(max_ns) as f64 / 1_000.0;
                }
            }
            max_ns as f64 / 1_000.0
        };
        HistogramSnapshot {
            count,
            mean_us: if count == 0 { 0.0 } else { sum_ns as f64 / count as f64 / 1_000.0 },
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            p999_us: quantile(0.999),
            max_us: max_ns as f64 / 1_000.0,
        }
    }
}

/// Point-in-time view of a [`Histogram`] (microsecond units).
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a snapshot is taken to be read; discarding it hides the measurement"]
pub struct HistogramSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median (upper bound of its log₂ bucket).
    pub p50_us: f64,
    /// 99th percentile (upper bound of its log₂ bucket).
    pub p99_us: f64,
    /// 99.9th percentile (upper bound of its log₂ bucket).
    pub p999_us: f64,
    /// Largest recorded sample (exact).
    pub max_us: f64,
}

/// Counters of one stream. All updates are relaxed atomics.
#[derive(Debug, Default)]
pub struct StreamMetrics {
    /// Shard currently hosting the stream (updated on open/migrate).
    pub shard: AtomicUsize,
    /// Batches acknowledged successfully.
    pub batches: AtomicU64,
    /// Tuples accepted across all batches.
    pub tuples: AtomicU64,
    /// Factor updates applied.
    pub updates: AtomicU64,
    /// Batches that came back with an error receipt.
    pub errors: AtomicU64,
    /// Batches diverted to the dead-letter queue.
    pub quarantined: AtomicU64,
    /// Quarantined batches successfully replayed after repair.
    pub replayed: AtomicU64,
    /// Enqueue→ack latency of acknowledged batches.
    pub latency: Histogram,
}

/// Counters and gauges of one shard worker.
#[derive(Debug)]
pub struct ShardMetrics {
    /// Commands currently enqueued (gauge; sessions inc, worker dec).
    pub queue_depth: AtomicI64,
    /// Configured queue capacity (commands).
    pub queue_capacity: usize,
    /// Commands processed by the worker.
    pub commands: AtomicU64,
    /// Batch groups executed, of either op (one group = one drain of
    /// consecutive same-stream prefill/ingest batches applied under one
    /// rollback capture; a lone batch is a group of one). `commands /
    /// ingest_groups` is the coalescing factor. The name predates
    /// prefill coalescing and is kept for the metrics JSON key.
    pub ingest_groups: AtomicU64,
    /// Engine panics caught on this shard.
    pub panics: AtomicU64,
    /// Checkpoints committed that covered this shard (pool-wide sweeps
    /// and per-shard background commits both count).
    pub checkpoints: AtomicU64,
}

impl ShardMetrics {
    fn new(queue_capacity: usize) -> Self {
        ShardMetrics {
            queue_depth: AtomicI64::new(0),
            queue_capacity,
            commands: AtomicU64::new(0),
            ingest_groups: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        }
    }

    /// Current queue depth, clamped at 0 (inc/dec race tolerantly).
    pub fn depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed).max(0) as usize
    }
}

/// The pool's metrics surface: per-shard gauges plus lazily created
/// per-stream counter blocks. Cloning is cheap; clones share state.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

/// Pads a per-shard block out to its own 128-byte alignment boundary
/// so adjacent shards' hottest counters (`queue_depth`, `commands`)
/// never share a cache line — each worker's relaxed `fetch_add`s stay
/// core-local instead of ping-ponging a shared line. 128 bytes covers
/// the spatial-prefetcher pair on x86 and the 128-byte lines on recent
/// aarch64.
#[derive(Debug)]
#[repr(align(128))]
struct CacheAligned<T>(T);

#[derive(Debug)]
struct RegistryInner {
    shards: Vec<CacheAligned<ShardMetrics>>,
    streams: RwLock<HashMap<u64, Arc<StreamMetrics>>>,
}

impl MetricsRegistry {
    /// Creates a registry for `shards` shards whose queues hold
    /// `queue_capacity` commands each.
    pub fn new(shards: usize, queue_capacity: usize) -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                shards: (0..shards)
                    .map(|_| CacheAligned(ShardMetrics::new(queue_capacity)))
                    .collect(),
                streams: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// The per-shard block (panics on an out-of-range shard — the pool
    /// validates shard indices before they reach metrics).
    pub fn shard(&self, shard: usize) -> &ShardMetrics {
        &self.inner.shards[shard].0
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The per-stream block, created on first touch. Blocks survive
    /// stream eviction so post-mortem dumps still answer questions.
    pub fn stream(&self, stream_id: u64) -> Arc<StreamMetrics> {
        if let Some(m) =
            self.inner.streams.read().expect("stream-metrics map poisoned").get(&stream_id)
        {
            return Arc::clone(m);
        }
        let mut map = self.inner.streams.write().expect("stream-metrics map poisoned");
        Arc::clone(map.entry(stream_id).or_default())
    }

    /// Stream ids with metric blocks, ascending.
    pub fn stream_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .inner
            .streams
            .read()
            .expect("stream-metrics map poisoned")
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// JSON dump of shards + streams only (no bus/DLQ sections).
    pub fn dump(&self) -> String {
        self.dump_with(None, None)
    }

    /// Full operational JSON dump; `bus`/`dlq` sections are included
    /// when the caller provides their stats.
    pub fn dump_with(&self, bus: Option<BusStats>, dlq: Option<DlqStats>) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"metrics\":\"sns-pool\",\"shards\":[");
        for (i, s) in self.inner.shards.iter().enumerate() {
            let s = &s.0;
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"queue_depth\":{},\"queue_capacity\":{},\"commands\":{},\"ingest_groups\":{},\"panics\":{},\"checkpoints\":{}}}",
                i,
                s.depth(),
                s.queue_capacity,
                s.commands.load(Ordering::Relaxed),
                s.ingest_groups.load(Ordering::Relaxed),
                s.panics.load(Ordering::Relaxed),
                s.checkpoints.load(Ordering::Relaxed),
            ));
        }
        out.push_str("],\"streams\":[");
        for (n, id) in self.stream_ids().into_iter().enumerate() {
            let m = self.stream(id);
            let lat = m.latency.snapshot();
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stream_id\":{},\"shard\":{},\"batches\":{},\"tuples\":{},\"updates\":{},\
                 \"errors\":{},\"quarantined\":{},\"replayed\":{},\"latency\":{{\"count\":{},\
                 \"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3},\"max_us\":{:.3}}}}}",
                id,
                m.shard.load(Ordering::Relaxed),
                m.batches.load(Ordering::Relaxed),
                m.tuples.load(Ordering::Relaxed),
                m.updates.load(Ordering::Relaxed),
                m.errors.load(Ordering::Relaxed),
                m.quarantined.load(Ordering::Relaxed),
                m.replayed.load(Ordering::Relaxed),
                lat.count,
                lat.mean_us,
                lat.p50_us,
                lat.p99_us,
                lat.p999_us,
                lat.max_us,
            ));
        }
        out.push(']');
        if let Some(b) = bus {
            out.push_str(&format!(
                ",\"events\":{{\"published\":{},\"dropped\":{},\"subscribers\":{},\"depth\":{},\"capacity\":{}}}",
                b.published, b.dropped, b.subscribers, b.depth, b.capacity
            ));
        }
        if let Some(d) = dlq {
            out.push_str(&format!(
                ",\"dlq\":{{\"pending\":{},\"quarantined_total\":{},\"replayed\":{},\"streams_affected\":{}}}",
                d.pending, d.quarantined_total, d.replayed, d.streams_affected
            ));
        }
        out.push('}');
        out
    }

    /// Human-oriented plain-text rendering of the same data.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.inner.shards.iter().enumerate() {
            let s = &s.0;
            out.push_str(&format!(
                "shard {i}: queue {}/{} commands={} ingest_groups={} panics={} checkpoints={}\n",
                s.depth(),
                s.queue_capacity,
                s.commands.load(Ordering::Relaxed),
                s.ingest_groups.load(Ordering::Relaxed),
                s.panics.load(Ordering::Relaxed),
                s.checkpoints.load(Ordering::Relaxed),
            ));
        }
        for id in self.stream_ids() {
            let m = self.stream(id);
            let lat = m.latency.snapshot();
            out.push_str(&format!(
                "stream {id} (shard {}): batches={} tuples={} updates={} errors={} \
                 quarantined={} replayed={} latency p50={:.1}us p99={:.1}us p999={:.1}us max={:.1}us\n",
                m.shard.load(Ordering::Relaxed),
                m.batches.load(Ordering::Relaxed),
                m.tuples.load(Ordering::Relaxed),
                m.updates.load(Ordering::Relaxed),
                m.errors.load(Ordering::Relaxed),
                m.quarantined.load(Ordering::Relaxed),
                m.replayed.load(Ordering::Relaxed),
                lat.p50_us,
                lat.p99_us,
                lat.p999_us,
                lat.max_us,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        // log2 buckets are exact to a factor of 2.
        assert!(s.p50_us >= 50.0 / 2.0 && s.p50_us <= 50.0 * 2.0, "p50={}", s.p50_us);
        assert!(s.p99_us >= 5000.0 / 2.0 && s.p99_us <= 5000.0, "p99={}", s.p99_us);
        assert!((s.max_us - 5000.0).abs() < 1.0);
        assert!(s.mean_us > 0.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }

    #[test]
    fn registry_creates_streams_lazily_and_dumps_sorted() {
        let reg = MetricsRegistry::new(2, 64);
        reg.stream(9).batches.fetch_add(1, Ordering::Relaxed);
        reg.stream(3).tuples.fetch_add(7, Ordering::Relaxed);
        reg.shard(1).commands.fetch_add(5, Ordering::Relaxed);
        assert_eq!(reg.stream_ids(), vec![3, 9]);
        let json = reg.dump();
        let i3 = json.find("\"stream_id\":3").unwrap();
        let i9 = json.find("\"stream_id\":9").unwrap();
        assert!(i3 < i9);
        assert!(json.contains("\"commands\":5"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains("\"events\""));
        let text = reg.render_text();
        assert!(text.contains("shard 1"));
        assert!(text.contains("stream 3"));
    }

    #[test]
    fn dump_with_includes_bus_and_dlq_sections() {
        let reg = MetricsRegistry::new(1, 4);
        let bus = BusStats { published: 10, dropped: 2, subscribers: 1, depth: 3, capacity: 8 };
        let dlq = DlqStats { pending: 1, quarantined_total: 2, replayed: 1, streams_affected: 1 };
        let json = reg.dump_with(Some(bus), Some(dlq));
        assert!(json.contains("\"events\":{\"published\":10"));
        assert!(json.contains("\"dlq\":{\"pending\":1"));
    }

    #[test]
    fn shard_blocks_do_not_share_cache_lines() {
        let reg = MetricsRegistry::new(4, 8);
        let a = reg.shard(0) as *const ShardMetrics as usize;
        let b = reg.shard(1) as *const ShardMetrics as usize;
        assert_eq!(a % 128, 0, "shard block not 128-byte aligned");
        assert!(b.abs_diff(a) >= 128, "adjacent shard blocks share a cache-line pair");
    }

    #[test]
    fn shard_depth_clamps_negative() {
        let reg = MetricsRegistry::new(1, 4);
        reg.shard(0).queue_depth.fetch_sub(3, Ordering::Relaxed);
        assert_eq!(reg.shard(0).depth(), 0);
    }
}
