//! Fleet: the shards × streams aggregate-throughput grid behind
//! `bench fleet` — the wave-3 raw-speed scenario.
//!
//! One shared synthetic trace is driven through a fleet of identical
//! SNS⁺_RND tenants at each worker-shard count in
//! [`FleetConfig::shard_grid`]. Every stream pipelines its batches with
//! [`StreamSession::try_ingest_batch`] (falling back to the blocking
//! path under backpressure), so shard workers see deep queues and the
//! coalescing drain does real work. Per cell the report records:
//!
//! - **aggregate throughput** — factor updates across the whole fleet
//!   over the wall-clock of the measured ingest phase (prefill and warm
//!   start run outside the clock);
//! - **worst p99 ingest latency** — max over the per-stream
//!   enqueue→ack histograms the pool already keeps;
//! - **coalescing factor** — ingest batches submitted over ingest
//!   groups drained (`1.0` means no coalescing ever happened).
//!
//! The cell fleet runs with [`QuarantinePolicy::Disabled`]: this is the
//! raw-speed configuration — no pre-batch snapshots on the hot path.
//!
//! Two acceptance checks ride on the report (enforced by the `bench`
//! binary with `--enforce-floor`):
//!
//! - the best cell's aggregate throughput must clear
//!   [`AGGREGATE_FLOOR_EVENTS_PER_SEC`] — always enforced;
//! - at the widest shard count the aggregate must reach
//!   [`SCALING_REQUIRED`] × the single-shard cell — enforced only when
//!   the host exposes at least [`SCALING_MIN_CORES`] cores (a
//!   single-core box cannot scale by adding worker threads; there the
//!   check is advisory and the JSON says `"enforced": false`).

use sns_core::als::AlsOptions;
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_data::{generate, GeneratorConfig};
use sns_runtime::{EnginePool, EngineSpec, PoolConfig, QuarantinePolicy, SnsError, StreamSession};
use sns_stream::StreamTuple;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Small tenant tensors: the fleet is about pipeline throughput, not
/// fitting quality, so the per-event kernel is kept cheap enough that
/// queueing and coalescing dominate the profile.
const BASE_DIMS: [usize; 2] = [20, 16];
const W: usize = 5;
const T: u64 = 100;

/// Checked-in floor for the best cell's aggregate pooled throughput
/// (factor updates per second across the whole fleet). Matches the
/// serial 60k floor: the pooled pipeline may not cost more than the
/// bare engine loop at fleet scale.
pub const AGGREGATE_FLOOR_EVENTS_PER_SEC: f64 = 60_000.0;

/// Required aggregate speedup of the widest cell over the single-shard
/// cell when the host has enough cores for the workers to spread.
pub const SCALING_REQUIRED: f64 = 2.0;

/// Minimum `available_parallelism` for the scaling check to be
/// enforceable (the widest default cell runs 4 worker shards).
pub const SCALING_MIN_CORES: usize = 4;

/// How to size the fleet grid.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker-shard counts to sweep (one report cell each).
    pub shard_grid: Vec<usize>,
    /// Concurrent tenant streams per cell.
    pub streams: usize,
    /// Events in the shared trace (every stream ingests all of it).
    pub events: usize,
    /// Tuples per submitted batch.
    pub batch: usize,
    /// Shard command-queue bound.
    pub queue_depth: usize,
    /// Pool base seed (per-stream engine seeds derive from it).
    pub base_seed: u64,
    /// Shared-trace generator seed.
    pub data_seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shard_grid: vec![1, 2, 4],
            streams: 8,
            events: 24_000,
            batch: 256,
            queue_depth: 64,
            base_seed: 0xf1ee,
            data_seed: 42,
        }
    }
}

/// One (shard count) cell of the grid.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Worker shards in this cell's pool.
    pub shards: usize,
    /// Streams driven.
    pub streams: usize,
    /// Factor updates acknowledged across the fleet.
    pub updates: u64,
    /// Wall-clock of the measured ingest phase.
    pub seconds: f64,
    /// `updates / seconds`.
    pub aggregate_events_per_sec: f64,
    /// Worst per-stream p99 enqueue→ack latency (µs).
    pub p99_max_us: f64,
    /// Ingest batches submitted per coalesced group drained (≥ 1.0;
    /// exactly 1.0 means the workers never found a second queued batch).
    pub coalescing_factor: f64,
}

/// A completed fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One cell per entry of [`FleetConfig::shard_grid`], in order.
    pub cells: Vec<FleetCell>,
    /// Host `available_parallelism` (0 if unknown).
    pub cores: usize,
    /// Events in the shared trace that fell after the prefill horizon.
    pub live_events: usize,
}

impl FleetReport {
    /// Best aggregate throughput across the grid.
    pub fn best_aggregate(&self) -> f64 {
        self.cells.iter().map(|c| c.aggregate_events_per_sec).fold(0.0, f64::max)
    }

    /// True when the best cell clears the absolute aggregate floor.
    pub fn floor_pass(&self) -> bool {
        self.best_aggregate() >= AGGREGATE_FLOOR_EVENTS_PER_SEC
    }

    /// Widest-cell aggregate over single-shard aggregate, when both
    /// cells exist and the single-shard cell did work.
    pub fn scaling_ratio(&self) -> Option<f64> {
        let base = self.cells.iter().find(|c| c.shards == 1)?;
        let top = self.cells.iter().max_by_key(|c| c.shards)?;
        if top.shards == 1 || base.aggregate_events_per_sec <= 0.0 {
            return None;
        }
        Some(top.aggregate_events_per_sec / base.aggregate_events_per_sec)
    }

    /// True when the host has enough cores for the scaling check to
    /// mean anything.
    pub fn scaling_enforceable(&self) -> bool {
        self.cores >= SCALING_MIN_CORES
    }

    /// The scaling verdict itself (independent of enforceability).
    pub fn scaling_pass(&self) -> bool {
        self.scaling_ratio().is_some_and(|r| r >= SCALING_REQUIRED)
    }

    /// Renders the grid as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "  shards={:<2} {:>10.0} events/s aggregate  p99 {:>7.1}us  coalescing {:.2}x  ({} updates in {:.3}s)\n",
                c.shards,
                c.aggregate_events_per_sec,
                c.p99_max_us,
                c.coalescing_factor,
                c.updates,
                c.seconds,
            ));
        }
        match self.scaling_ratio() {
            Some(r) => out.push_str(&format!(
                "  scaling: {:.2}x at widest vs 1 shard (required {:.1}x, {} on {} core(s))\n",
                r,
                SCALING_REQUIRED,
                if self.scaling_enforceable() { "enforced" } else { "advisory" },
                self.cores,
            )),
            None => out.push_str("  scaling: n/a (grid has no 1-shard baseline)\n"),
        }
        out
    }

    /// The `BENCH_pr10.json` body (schema in the README).
    pub fn to_json(&self, cfg: &FleetConfig, mode: &str) -> String {
        let f = |x: f64| {
            if x.is_finite() {
                format!("{x:.6}")
            } else {
                "null".to_string()
            }
        };
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"sns-fleet\",\n");
        json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        json.push_str(&format!(
            "  \"config\": {{\"base_dims\": {:?}, \"window\": {}, \"period\": {}, \"streams\": {}, \"events\": {}, \"live_events\": {}, \"batch\": {}, \"queue_depth\": {}, \"quarantine\": \"disabled\", \"cores\": {}}},\n",
            BASE_DIMS, W, T, cfg.streams, cfg.events, self.live_events, cfg.batch,
            cfg.queue_depth, self.cores,
        ));
        json.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"shards\": {}, \"streams\": {}, \"updates\": {}, \"seconds\": {}, \"aggregate_events_per_sec\": {}, \"p99_max_us\": {}, \"coalescing_factor\": {}}}{}\n",
                c.shards,
                c.streams,
                c.updates,
                f(c.seconds),
                f(c.aggregate_events_per_sec),
                f(c.p99_max_us),
                f(c.coalescing_factor),
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        json.push_str("  ],\n");
        json.push_str(&format!(
            "  \"floor\": {{\"aggregate_events_per_sec\": {}, \"measured\": {}, \"pass\": {}}},\n",
            f(AGGREGATE_FLOOR_EVENTS_PER_SEC),
            f(self.best_aggregate()),
            self.floor_pass(),
        ));
        json.push_str(&format!(
            "  \"scaling\": {{\"required\": {}, \"ratio\": {}, \"min_cores\": {}, \"cores\": {}, \"enforced\": {}, \"pass\": {}}}\n",
            f(SCALING_REQUIRED),
            self.scaling_ratio().map_or_else(|| "null".to_string(), f),
            SCALING_MIN_CORES,
            self.cores,
            self.scaling_enforceable(),
            self.scaling_pass(),
        ));
        json.push_str("}\n");
        json
    }
}

/// The one shared trace every stream ingests.
fn shared_trace(cfg: &FleetConfig) -> Vec<StreamTuple> {
    generate(&GeneratorConfig {
        base_dims: BASE_DIMS.to_vec(),
        n_components: 3,
        events: cfg.events,
        duration: 10 * W as u64 * T,
        zipf_exponent: 1.2,
        noise_fraction: 0.1,
        day_ticks: 50,
        seed: cfg.data_seed,
        ..Default::default()
    })
}

/// Index of the first live (post-initialization) tuple.
fn prefill_cut(trace: &[StreamTuple]) -> usize {
    trace.partition_point(|t| t.time <= W as u64 * T)
}

fn tenant_spec() -> EngineSpec {
    EngineSpec::sns(
        &BASE_DIMS,
        W,
        T,
        AlgorithmKind::PlusRnd,
        &SnsConfig { rank: 5, theta: 20, ..Default::default() },
    )
}

fn als_opts() -> AlsOptions {
    AlsOptions { max_iters: 4, tol: 1e-3, ..Default::default() }
}

/// Drives one stream's live region pipelined; returns the fleet-side
/// update count for this stream once every receipt is in.
fn drive_pipelined(
    session: &mut StreamSession,
    live: &[StreamTuple],
    batch: usize,
) -> Result<u64, SnsError> {
    let mut updates = 0u64;
    for chunk in live.chunks(batch) {
        match session.try_ingest_batch(chunk) {
            Ok(_ticket) => {}
            Err(SnsError::Backpressure { .. }) => {
                // Free a slot if we own one, then shed this chunk to the
                // blocking path (the queue may be full of *other*
                // streams' commands, in which case we own nothing).
                if let Some(receipt) = session.recv_receipt() {
                    updates += receipt?.updates;
                }
                updates += session.ingest_batch(chunk)?.updates;
            }
            Err(e) => return Err(e),
        }
    }
    while let Some(receipt) = session.recv_receipt() {
        updates += receipt?.updates;
    }
    Ok(updates)
}

/// Runs one cell of the grid: a fresh pool at `shards`, the whole fleet
/// prefilled and warmed outside the clock, then the measured pipelined
/// ingest of the shared live region.
fn run_cell(
    cfg: &FleetConfig,
    shards: usize,
    trace: &[StreamTuple],
) -> Result<FleetCell, SnsError> {
    let cut = prefill_cut(trace);
    let live = &trace[cut..];
    let pool = EnginePool::new(PoolConfig {
        shards,
        base_seed: cfg.base_seed,
        queue_depth: cfg.queue_depth,
        bus_capacity: 1 << 12,
        quarantine: QuarantinePolicy::Disabled,
        ..Default::default()
    });
    let ids: Vec<u64> = (0..cfg.streams as u64).collect();
    let mut sessions: Vec<StreamSession> = Vec::with_capacity(ids.len());
    for &id in &ids {
        sessions.push(pool.open(id, tenant_spec())?);
    }

    // Prefill + warm start outside the clock.
    let warm: Vec<Result<(), SnsError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| {
                scope.spawn(move || -> Result<(), SnsError> {
                    for chunk in trace[..cut].chunks(cfg.batch) {
                        let _ = session.prefill_batch(chunk)?;
                    }
                    let _ = session.warm_start(&als_opts())?;
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("prefill thread panicked")).collect()
    });
    warm.into_iter().collect::<Result<Vec<()>, SnsError>>()?;

    // Batch groups of either op; the prefill's groups are excluded below.
    let groups = || -> u64 {
        let metrics = pool.ops().metrics();
        (0..shards).map(|s| metrics.shard(s).ingest_groups.load(Ordering::Relaxed)).sum()
    };
    let prefill_groups = groups();

    // Measured phase: every stream pipelines the live region.
    let start = Instant::now();
    let driven: Vec<Result<u64, SnsError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| scope.spawn(move || drive_pipelined(session, live, cfg.batch)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let updates =
        driven.into_iter().collect::<Result<Vec<u64>, SnsError>>()?.into_iter().sum::<u64>();

    let metrics = pool.ops().metrics();
    let mut p99_max_us = 0.0f64;
    for &id in &ids {
        let snapshot = metrics.stream(id).latency.snapshot();
        if snapshot.p99_us.is_finite() {
            p99_max_us = p99_max_us.max(snapshot.p99_us);
        }
    }
    // Exact batch count is known, and the prefill finished before any
    // pipelining, so the groups formed since are the measured phase's.
    let batches_per_stream = live.len().div_ceil(cfg.batch);
    let submitted = (batches_per_stream * cfg.streams) as u64;
    let groups = groups() - prefill_groups;
    let coalescing_factor = if groups > 0 { submitted as f64 / groups as f64 } else { f64::NAN };

    drop(sessions);
    pool.join();
    Ok(FleetCell {
        shards,
        streams: cfg.streams,
        updates,
        seconds,
        aggregate_events_per_sec: updates as f64 / seconds.max(1e-9),
        p99_max_us,
        coalescing_factor,
    })
}

/// Runs the full grid; see the module docs for the cell protocol.
///
/// # Errors
/// Any pool or engine error on any stream — the fleet runs with
/// quarantine disabled and an unpoisoned trace, so every error is a
/// scenario bug rather than an acceptance shortfall.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, SnsError> {
    let trace = shared_trace(cfg);
    let live_events = trace.len() - prefill_cut(&trace);
    let mut cells = Vec::with_capacity(cfg.shard_grid.len());
    for &shards in &cfg.shard_grid {
        cells.push(run_cell(cfg, shards.max(1), &trace)?);
    }
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Ok(FleetReport { cells, cores, live_events })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_grid_reports_throughput_latency_and_coalescing() {
        let cfg = FleetConfig {
            shard_grid: vec![1, 2],
            streams: 4,
            events: 2_000,
            batch: 64,
            ..Default::default()
        };
        let report = run_fleet(&cfg).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert!(report.live_events > 0);
        for cell in &report.cells {
            assert_eq!(cell.streams, 4);
            assert!(cell.updates > 0, "cell did no work: {cell:?}");
            assert!(cell.aggregate_events_per_sec > 0.0);
            assert!(cell.p99_max_us.is_finite() && cell.p99_max_us > 0.0);
            assert!(cell.coalescing_factor >= 1.0, "groups cannot outnumber batches: {cell:?}");
        }
        assert!(report.scaling_ratio().is_some());
        let json = report.to_json(&cfg, "smoke");
        for key in ["\"sns-fleet\"", "\"cells\"", "\"floor\"", "\"scaling\"", "\"enforced\""] {
            assert!(json.contains(key), "json missing {key}:\n{json}");
        }
    }
}
