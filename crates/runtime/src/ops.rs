//! The pool's operability surface: `sns-ops` instantiated for the
//! runtime.
//!
//! [`PoolOps`] bundles the three `sns-ops` layers the
//! [`EnginePool`](crate::pool::EnginePool) publishes into — the
//! [`PoolEvent`] bus, the [`MetricsRegistry`], and the
//! [`EngineSpec`]-typed dead-letter queue — behind one cheaply clonable
//! handle. The pool creates it, workers and sessions write into it, and
//! operators read from it ([`PoolOps::subscribe`], [`PoolOps::dump`])
//! without ever touching a worker thread.

use crate::spec::EngineSpec;
use sns_ops::{DeadLetter, DeadLetterQueue, EventBus, MetricsRegistry, PoolEvent, Subscription};

/// The pool's event bus, carrying [`PoolEvent`]s.
pub type PoolEventBus = EventBus<PoolEvent>;

/// The pool's dead-letter queue; letters carry the stream's
/// [`EngineSpec`] for repair tooling.
pub type PoolDlq = DeadLetterQueue<EngineSpec>;

/// One quarantined batch of a pooled stream.
pub type PoolDeadLetter = DeadLetter<EngineSpec>;

/// What happens to a stream whose batch panics its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuarantinePolicy {
    /// Roll the engine back to its pre-batch captured state, record the
    /// batch to the dead-letter queue, and keep serving: later batches
    /// divert to the DLQ (in order) until
    /// [`StreamSession::replay_quarantined`](crate::pool::StreamSession::replay_quarantined)
    /// re-drives them. Costs one state capture per coalesced batch group
    /// (a lone batch is a group of one) on streams of
    /// capture-supporting engines; engines without capture fall back to
    /// [`QuarantinePolicy::Disabled`] behaviour (the letter is still
    /// recorded).
    #[default]
    Rollback,
    /// Pre-PR-7 behaviour: the engine is dropped and the stream keeps
    /// reporting [`SnsError::EnginePanicked`](sns_error::SnsError)
    /// forever. No capture cost; the panicking batch is still
    /// recorded to the DLQ for post-mortems.
    Disabled,
}

/// Cheaply clonable handle to the pool's event bus, metrics registry,
/// and dead-letter queue. All clones share state.
#[derive(Clone)]
pub struct PoolOps {
    bus: PoolEventBus,
    metrics: MetricsRegistry,
    dlq: PoolDlq,
}

impl PoolOps {
    pub(crate) fn new(shards: usize, queue_capacity: usize, bus_capacity: usize) -> Self {
        PoolOps {
            bus: PoolEventBus::new(bus_capacity),
            metrics: MetricsRegistry::new(shards, queue_capacity),
            dlq: PoolDlq::new(),
        }
    }

    /// The lifecycle event bus.
    pub fn bus(&self) -> &PoolEventBus {
        &self.bus
    }

    /// The metrics registry (per-stream / per-shard counters, latency
    /// histograms, queue gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The dead-letter queue of quarantined batches.
    pub fn dlq(&self) -> &PoolDlq {
        &self.dlq
    }

    /// Subscribes to lifecycle events from "now" on. Lag-tolerant:
    /// a slow subscriber drops oldest events, never blocks workers.
    pub fn subscribe(&self) -> Subscription<PoolEvent> {
        self.bus.subscribe()
    }

    /// Full operational JSON dump: shards, streams, event-bus counters,
    /// DLQ counters. Safe to call mid-traffic.
    pub fn dump(&self) -> String {
        self.metrics.dump_with(Some(self.bus.stats()), Some(self.dlq.stats()))
    }

    /// Human-oriented plain-text rendering of the metrics.
    pub fn render_text(&self) -> String {
        self.metrics.render_text()
    }
}

impl std::fmt::Debug for PoolOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bus = self.bus.stats();
        let dlq = self.dlq.stats();
        write!(
            f,
            "PoolOps(events={}/{} dropped, dlq={} pending/{} total)",
            bus.published, bus.dropped, dlq.pending, dlq.quarantined_total
        )
    }
}
