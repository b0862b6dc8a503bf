//! The three workloads: their configuration, the inputs generated from
//! the seed, and the deterministic expectations the outputs are checked
//! against.

use sns_core::als::AlsOptions;
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_data::{generate, nytaxi_like, GeneratorConfig};
use sns_runtime::pool::stream_seed;
use sns_runtime::{EngineSpec, QuarantinePolicy};
use sns_stream::StreamTuple;

/// Worker shards in every workload: the host's two cores.
pub const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TaxiClosed,
    FleetClosed,
    TaxiLive,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::TaxiClosed, Kind::FleetClosed, Kind::TaxiLive];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TaxiClosed => "taxi-closed",
            Kind::FleetClosed => "fleet-closed",
            Kind::TaxiLive => "taxi-live",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Offered tuple rate of `taxi-live` across both streams. Closed-loop
/// capacity at paper dims is about 13k tuples/s on two cores; with a
/// rollback capture per batch, journaling, reads and checkpoints on top,
/// this rate keeps the shards about a third busy. At 5k tuples/s the
/// p99 acknowledgment latency varied by more than a quarter from seed to
/// seed on a 2-vCPU host, too unsteady to guard.
pub const LIVE_OFFERED_TUPLES_PER_S: f64 = 3_500.0;

/// Reads (`report()` round trips) per second across the pool on
/// `taxi-live`: enough samples in a ten-second run to support a p90.
/// Each read waits for its stream's queued batches and holds up the
/// generator meanwhile.
pub const LIVE_READS_PER_S: f64 = 20.0;

/// Reads per closed-loop run, issued between rounds of writes.
pub const PROBE_READS: usize = 1200;

/// One stream's chronological input: the prefill head (`..cut`) and the
/// live region cut into fixed-size batches.
pub struct Trace {
    pub tuples: Vec<StreamTuple>,
    pub cut: usize,
}

pub struct StreamPlan {
    pub id: u64,
    /// The shard `EnginePool::shard_of` places the stream on.
    pub shard: usize,
    pub algo: AlgorithmKind,
    /// Index into [`Workload::traces`].
    pub trace: usize,
    /// The engine seed the pool derives for this stream.
    pub seed: u64,
}

pub struct Workload {
    pub base_dims: Vec<usize>,
    pub window: usize,
    pub period: u64,
    pub rank: usize,
    pub theta: usize,
    pub als: AlsOptions,
    pub batch: usize,
    /// Closed loops: batches in flight per stream.
    pub in_flight: usize,
    pub quarantine: QuarantinePolicy,
    pub journal: bool,
    /// Open loop: offered tuples per second across all streams.
    pub offered_rate: Option<f64>,
    /// Batches per stream ingested before the measured phase; the fitness
    /// horizon.
    pub warmup_batches: usize,
    /// `taxi-live`: batches per stream ingested after the last checkpoint,
    /// so recovery replays a fixed journal tail.
    pub tail_batches: usize,
    pub base_seed: u64,
    pub streams: Vec<StreamPlan>,
    pub traces: Vec<Trace>,
}

/// SplitMix64 finalizer: derives independent seeds from the workload
/// seed.
fn mix(seed: u64, salt: u64) -> u64 {
    stream_seed(seed, salt)
}

/// The first stream ids that `EnginePool::shard_of` places on each shard,
/// `per_shard` of them per shard, grouped by shard.
fn ids_per_shard(per_shard: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); SHARDS];
    let mut id = 0u64;
    while out.iter().any(|ids| ids.len() < per_shard) {
        // Same placement as `EnginePool::shard_of`; the driver asserts it.
        let shard = (stream_seed(0, id) % SHARDS as u64) as usize;
        if out[shard].len() < per_shard {
            out[shard].push(id);
        }
        id += 1;
    }
    out
}

impl Workload {
    /// Builds the workload's configuration and generates its inputs for a
    /// measured phase of `seconds`.
    pub fn new(kind: Kind, seed: u64, seconds: f64) -> Workload {
        let base_seed = mix(seed, 0xba5e);
        match kind {
            Kind::TaxiClosed | Kind::TaxiLive => {
                let spec = nytaxi_like();
                let live = kind == Kind::TaxiLive;
                let placement = ids_per_shard(if live { 1 } else { 2 });
                let mut streams = Vec::new();
                for (shard, ids) in placement.iter().enumerate() {
                    // Each shard serves one SNS⁺_RND and one SNS⁺_VEC
                    // stream (`taxi-live`: one SNS⁺_RND stream).
                    for (slot, &id) in ids.iter().enumerate() {
                        let algo = if live || slot == 0 {
                            AlgorithmKind::PlusRnd
                        } else {
                            AlgorithmKind::PlusVec
                        };
                        let trace = streams.len();
                        streams.push(StreamPlan {
                            id,
                            shard,
                            algo,
                            trace,
                            seed: stream_seed(base_seed, id),
                        });
                    }
                }
                // The open loop's batches are smaller so that a ten-second
                // run acknowledges over a thousand of them: a p99 needs ten
                // samples beyond it.
                let batch = if live { 32 } else { 64 };
                let warmup_batches = 8;
                let tail_batches = if live { 16 } else { 0 };
                // Closed loops size the trace far above the measured
                // throughput; the open loop needs exactly its schedule.
                let live_tuples = match live {
                    true => {
                        let per_stream = LIVE_OFFERED_TUPLES_PER_S / streams.len() as f64;
                        (per_stream * seconds).ceil() as usize
                    }
                    false => (20_000.0 * seconds).ceil() as usize,
                } + (warmup_batches + tail_batches + 4) * batch;
                // Keep the paper-scale trace's density (events per tick) so
                // the window holds its usual ~10k tuples.
                let density = spec.default_events as f64 / spec.duration() as f64;
                let prefill_ticks = spec.window as u64 * spec.period;
                let prefill_tuples = (density * prefill_ticks as f64) as usize;
                let events = prefill_tuples + live_tuples + live_tuples / 8;
                let traces = (0..streams.len())
                    .map(|i| {
                        let mut cfg = spec.generator(events, STRUCTURE_SEED);
                        cfg.duration = (events as f64 / density) as u64;
                        // A run then spans about ten activity cycles of
                        // the trace instead of one, so every run sees the
                        // same mix of busy and quiet hours.
                        cfg.day_ticks /= 8;
                        make_trace(&cfg, prefill_ticks, mix(seed, i as u64 + 1))
                    })
                    .collect();
                Workload {
                    base_dims: spec.base_dims.to_vec(),
                    window: spec.window,
                    period: spec.period,
                    rank: spec.rank,
                    theta: spec.theta,
                    als: AlsOptions { max_iters: 10, tol: 1e-3, ..Default::default() },
                    batch,
                    in_flight: 4,
                    quarantine: QuarantinePolicy::Rollback,
                    journal: live,
                    offered_rate: live.then_some(LIVE_OFFERED_TUPLES_PER_S),
                    warmup_batches,
                    tail_batches,
                    base_seed,
                    streams,
                    traces,
                }
            }
            Kind::FleetClosed => {
                // Small tenants (the `bench fleet` configuration): pipeline
                // costs dominate and the kernels are cheap.
                const TRACES: usize = 8;
                let (base_dims, window, period) = (vec![20, 16], 5usize, 100u64);
                let placement = ids_per_shard(32);
                let mut streams = Vec::new();
                for (shard, ids) in placement.iter().enumerate() {
                    for &id in ids {
                        streams.push(StreamPlan {
                            id,
                            shard,
                            algo: AlgorithmKind::PlusRnd,
                            trace: streams.len() % TRACES,
                            seed: stream_seed(base_seed, id),
                        });
                    }
                }
                let batch = 16;
                let warmup_batches = 8;
                let density = 4.8;
                let prefill_ticks = window as u64 * period;
                let live_tuples =
                    (4_000.0 * seconds).ceil() as usize + (warmup_batches + 4) * batch;
                let events = (density * prefill_ticks as f64) as usize + live_tuples;
                let traces = (0..TRACES)
                    .map(|i| {
                        let cfg = GeneratorConfig {
                            base_dims: base_dims.clone(),
                            n_components: 3,
                            events,
                            duration: (events as f64 / density) as u64,
                            zipf_exponent: 1.2,
                            noise_fraction: 0.1,
                            day_ticks: 50,
                            seed: STRUCTURE_SEED,
                            ..Default::default()
                        };
                        make_trace(&cfg, prefill_ticks, mix(seed, i as u64 + 1))
                    })
                    .collect();
                Workload {
                    base_dims,
                    window,
                    period,
                    rank: 5,
                    theta: 20,
                    als: AlsOptions { max_iters: 4, tol: 1e-3, ..Default::default() },
                    batch,
                    in_flight: 2,
                    quarantine: QuarantinePolicy::Disabled,
                    journal: false,
                    offered_rate: None,
                    warmup_batches,
                    tail_batches: 0,
                    base_seed,
                    streams,
                    traces,
                }
            }
        }
    }

    pub fn spec(&self, s: &StreamPlan) -> EngineSpec {
        let config = SnsConfig { rank: self.rank, theta: self.theta, ..Default::default() };
        EngineSpec::sns(&self.base_dims, self.window, self.period, s.algo, &config)
    }

    pub fn prefill(&self, s: &StreamPlan) -> &[StreamTuple] {
        let t = &self.traces[s.trace];
        &t.tuples[..t.cut]
    }

    /// Live batches available to a stream.
    pub fn batches(&self, s: &StreamPlan) -> usize {
        let t = &self.traces[s.trace];
        (t.tuples.len() - t.cut) / self.batch
    }

    pub fn batch(&self, s: &StreamPlan, i: usize) -> &[StreamTuple] {
        let t = &self.traces[s.trace];
        let start = t.cut + i * self.batch;
        &t.tuples[start..start + self.batch]
    }

    /// The first `n` live batches, concatenated.
    pub fn live_prefix(&self, s: &StreamPlan, n: usize) -> &[StreamTuple] {
        let t = &self.traces[s.trace];
        &t.tuples[t.cut..t.cut + n * self.batch]
    }

    /// Expected factor updates after the first `n` live batches, derived
    /// from timestamps alone (see [`expected_updates`]).
    pub fn expected_updates(&self, s: &StreamPlan, n: usize) -> u64 {
        expected_updates(self.prefill(s), self.live_prefix(s, n), self.window, self.period)
    }
}

/// Seed of every trace's latent structure: which categories are popular
/// and how activity moves over the day. It depends on neither the
/// workload seed nor the stream, so all streams of a workload cost the
/// same to serve.
const STRUCTURE_SEED: u64 = 0x5eed_c17e;

/// Generates `cfg.events` tuples (in expectation) from `cfg`'s latent
/// structure, choosing which events occur with `seed`: the generator runs
/// over twice the events and `seed` keeps each with probability 1/2, which
/// preserves the density. Seeds then differ in the events a stream
/// carries, not in how expensive the stream is to serve.
fn make_trace(cfg: &GeneratorConfig, prefill_ticks: u64, seed: u64) -> Trace {
    let dense = GeneratorConfig { events: cfg.events * 2, ..cfg.clone() };
    let tuples: Vec<StreamTuple> = generate(&dense)
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| mix(seed, i as u64) & 1 == 0)
        .map(|(_, t)| t)
        .collect();
    let cut = tuples.partition_point(|t| t.time <= prefill_ticks);
    Trace { tuples, cut }
}

/// Factor updates a continuous engine applies while ingesting `live`
/// after prefilling `prefill`, computed from the window's semantics
/// rather than its code: every tuple at time `t` crosses unit boundary
/// `w` (1 ≤ w ≤ W) at `t + w·T`, and a crossing is applied when the clock
/// reaches it. Crossings due by the last prefill tuple fired during
/// prefill, which updates no factors; each live arrival is one update.
pub fn expected_updates(
    prefill: &[StreamTuple],
    live: &[StreamTuple],
    window: usize,
    period: u64,
) -> u64 {
    let Some(end) = live.last().map(|t| t.time) else { return 0 };
    let fired_in_prefill = prefill.last().map(|t| t.time);
    let mut updates = live.len() as u64;
    for t in prefill.iter().chain(live) {
        for w in 1..=window as u64 {
            let due = t.time + w * period;
            if due > end {
                break;
            }
            if fired_in_prefill.is_none_or(|f| due > f) {
                updates += 1;
            }
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::engine::SnsEngine;

    #[test]
    fn expected_updates_match_the_engine() {
        let w = Workload::new(Kind::FleetClosed, 3, 0.05);
        let s = &w.streams[0];
        let config = SnsConfig { rank: w.rank, theta: w.theta, seed: s.seed, ..Default::default() };
        let mut engine = SnsEngine::new(&w.base_dims, w.window, w.period, s.algo, &config);
        for t in w.prefill(s) {
            engine.prefill(*t).unwrap();
        }
        let n = 12;
        engine.ingest_all(w.live_prefix(s, n)).unwrap();
        assert_eq!(engine.updates_applied(), w.expected_updates(s, n));
    }

    #[test]
    fn placement_balances_shards() {
        let ids = ids_per_shard(3);
        for (shard, ids) in ids.iter().enumerate() {
            assert_eq!(ids.len(), 3);
            for id in ids {
                assert_eq!((stream_seed(0, *id) % SHARDS as u64) as usize, shard);
            }
        }
    }
}
