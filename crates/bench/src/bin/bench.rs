//! Throughput bench: events/second per method at the Table-III default
//! configuration (synthetic NYC-Taxi-like stream, `R = 20`, `W = 10`,
//! `T = 3600`, `θ = 20`), emitting a machine-readable `BENCH_*.json` —
//! plus the allocation/RSS profile (`resources`) and the shards × streams
//! throughput grid (`fleet`).
//!
//! ```text
//! cargo run --release -p sns-bench --bin bench -- --smoke --tag pr6
//! cargo run --release -p sns-bench --bin bench -- resources --smoke --tag pr6
//! cargo run --release -p sns-bench --bin bench -- fleet --smoke
//! ```
//!
//! Throughput flags:
//! - `--smoke`          quarter-length stream (CI-sized, < 1 min);
//! - `--tag <tag>`      artifact tag (default `pr6`); the default output
//!   path is derived from it (`BENCH_<tag>.json`);
//! - `--out <path>`     JSON output path (overrides the tag-derived name);
//! - `--enforce-floor`  exit non-zero if the continuous SNS reference
//!   method (SNS⁺_RND) falls below [`FLOOR_EVENTS_PER_SEC`], or if
//!   SNS⁺_VEC regresses past its PR-3 per-event baseline
//!   ([`VEC_BASELINE_MICROS`]);
//! - `--runs <n>`       repetitions per method, best run reported
//!   (default 3; measurement is wall-clock and shared machines are
//!   noisy, so the floor check uses the best of `n`).
//!
//! `resources` subcommand (same `--smoke`/`--tag`/`--out`/`--runs`
//! flags, default output `RESOURCES_<tag>.json`): one timed run per
//! method recording steady-state allocation traffic (a counting global
//! allocator — bytes and calls per event on the measured ingest path),
//! process peak RSS (`VmHWM`), and CPU utilization (`/proc/self/stat`
//! utime+stime over wall time). With `--pooled`, an extra row drives
//! the same reference stream through a one-shard [`sns_runtime`]
//! `EnginePool` session (pipelined submits, one buffer per batch) and
//! the JSON gains a `pooled_guard`: with `--enforce-floor` the run
//! exits non-zero unless the pooled path stays at or under
//! [`POOLED_ALLOCS_PER_EVENT_MAX`] allocations per event — the command
//! pipeline's allocation budget, held to measurement.
//!
//! `fleet` subcommand flags (default output `BENCH_<tag>.json`, tag
//! default `pr10`):
//! - `--shards <a,b,c>`  worker-shard grid (default `1,2,4`);
//! - `--streams <n>`     concurrent pooled streams per cell (default 8);
//! - `--batch <n>`       tuples per pipelined batch (default 256);
//! - `--smoke`           quarter-length shared trace (CI-sized);
//! - `--tag <tag>` / `--out <path>`  artifact naming;
//! - `--enforce-floor`   exit non-zero if the best cell's aggregate
//!   throughput misses the 60k floor, or — on hosts with ≥ 4 cores —
//!   if the widest cell fails the 2× scaling requirement over one
//!   shard (advisory elsewhere; the JSON records `enforced`).
//!
//! All JSON schemas are documented in the README.

use sns_bench::experiments::fleet::{run_fleet, FleetConfig, AGGREGATE_FLOOR_EVENTS_PER_SEC};
use sns_bench::runner::{split_prefill, ExperimentParams};
use sns_bench::Method;
use sns_core::als::AlsOptions;
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_data::{generate, nytaxi_like};
use sns_runtime::{EnginePool, EngineSpec, PoolConfig, QuarantinePolicy, SnsError};
use sns_stream::StreamTuple;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Counting wrapper around the system allocator — bench-binary only.
/// Two relaxed atomic adds per allocation; the counters stay honest
/// under the scoped-thread kernels and cost nothing measurable against
/// an actual heap allocation.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counters never influence
// the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        ALLOC_CALLS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        ALLOC_CALLS.fetch_add(1, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only the growth: a shrinking realloc allocates nothing.
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        ALLOC_CALLS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Snapshot of the allocation counters.
fn alloc_counters() -> (u64, u64) {
    (ALLOC_BYTES.load(Relaxed), ALLOC_CALLS.load(Relaxed))
}

/// Peak resident set size (`VmHWM`) in kilobytes from
/// `/proc/self/status`, or `None` off Linux / on parse failure.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Cumulative process CPU time (user + system) in seconds from
/// `/proc/self/stat`, or `None` off Linux. Fields 14/15 are utime and
/// stime in clock ticks; `USER_HZ` is 100 on every mainstream Linux.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; skip past its
    // closing paren before splitting.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Checked-in floor for the continuous SNS reference method (SNS⁺_RND,
/// the paper's recommended variant) in events per second. Ratcheted
/// PR-3's 30k to 60k after the wave-2 kernel work (blocked fiber
/// MTTKRP, interleaved mirror, fused sampled-residual pass, cheap
/// uniform draws): measured ~110–152k ev/s on a single weak shared
/// core, so the floor keeps ~2× headroom for CI hardware variance while
/// still catching any genuine hot-path regression.
pub const FLOOR_EVENTS_PER_SEC: f64 = 60_000.0;

/// Measured SNS⁺_VEC per-event latency ceiling (µs) on the reference
/// machine. `--enforce-floor` additionally fails if SNS⁺_VEC's best run
/// is slower than this — a no-regression guard on the pure exact-path
/// kernels, which the 60k floor (on the sampled reference method) would
/// not catch alone. Wave 3 ratchets PR-3's 5.7µs down to 4.5µs: wave 2
/// measures ~3.5–4.9µs best-of-runs, and the floor check reports the
/// best of `--runs`, so 4.5µs still leaves noise headroom over the
/// observed best while banking the wave-2 kernel wins.
pub const VEC_BASELINE_MICROS: f64 = 4.5;

/// Allocation budget for the pooled resources row (`--pooled`):
/// allocations per acknowledged factor update on the measured pipelined
/// ingest path. A batch costs one tuple buffer plus amortized reply
/// channel blocks against thousands of factor updates, so steady state
/// measures well under this; anything above it means the command
/// pipeline regressed.
pub const POOLED_ALLOCS_PER_EVENT_MAX: f64 = 0.1;

struct MethodResult {
    name: String,
    tuples: usize,
    updates: u64,
    seconds: f64,
    events_per_sec: f64,
    tuples_per_sec: f64,
    final_fitness: f64,
    diverged: bool,
}

/// Prefill + warm start outside the clock, then time the batched ingest
/// of the measured stream (the same `ingest_all` path the pooled runtime
/// drives). Returns the best of `runs` repetitions.
fn run_method(
    method: Method,
    params: &ExperimentParams,
    stream: &[StreamTuple],
    runs: usize,
) -> MethodResult {
    let cfg = sns_bench::RunConfig {
        als: AlsOptions { max_iters: 10, tol: 1e-3, ..Default::default() },
        ..Default::default()
    };
    let (prefill, measured) = split_prefill(params, stream);
    let mut best: Option<MethodResult> = None;
    for _ in 0..runs.max(1) {
        let mut engine = method.build(params, &cfg);
        engine.prefill_all(prefill).expect("chronological stream");
        engine.warm_start(&cfg.als);
        let start = Instant::now();
        let outcome = engine.ingest_all(measured).expect("chronological stream");
        let seconds = start.elapsed().as_secs_f64();
        let updates = outcome.updates;
        let result = MethodResult {
            name: method.name(),
            tuples: measured.len(),
            updates,
            seconds,
            events_per_sec: updates as f64 / seconds,
            tuples_per_sec: measured.len() as f64 / seconds,
            final_fitness: engine.fitness(),
            diverged: engine.diverged(),
        };
        if best.as_ref().is_none_or(|b| result.seconds < b.seconds) {
            best = Some(result);
        }
    }
    best.expect("runs >= 1")
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn json_opt_u64(x: Option<u64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// The value following flag `name` (e.g. `--out`), if present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Shared CLI plumbing: `--tag` (default `default_tag`) and the `--out`
/// override for a `<PREFIX>_<tag>.json` artifact.
fn tagged_out_path(args: &[String], prefix: &str, default_tag: &str) -> String {
    let tag = flag_value(args, "--tag").unwrap_or(default_tag);
    flag_value(args, "--out").map_or_else(|| format!("{prefix}_{tag}.json"), String::from)
}

struct ResourceResult {
    name: String,
    updates: u64,
    seconds: f64,
    events_per_sec: f64,
    bytes_allocated: u64,
    alloc_calls: u64,
    bytes_per_event: f64,
    allocs_per_event: f64,
    cpu_percent: Option<f64>,
    peak_rss_kb_after: Option<u64>,
}

/// The `--pooled` resources row: the reference method (SNS⁺_RND at the
/// Table-III configuration) driven through a one-shard [`EnginePool`]
/// session with pipelined submits — the same command pipeline the fleet
/// bench exercises, measured by the same counting global allocator. The
/// counters are process-wide, so the shard worker's allocations count
/// too; the pipeline's per-batch allocations have to stay amortized for
/// this row to stay under [`POOLED_ALLOCS_PER_EVENT_MAX`].
fn run_pooled_resources(params: &ExperimentParams, stream: &[StreamTuple]) -> ResourceResult {
    const BATCH: usize = 512;
    let cfg = sns_bench::RunConfig {
        als: AlsOptions { max_iters: 10, tol: 1e-3, ..Default::default() },
        ..Default::default()
    };
    let (prefill, measured) = split_prefill(params, stream);
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: 42,
        queue_depth: 64,
        bus_capacity: 1 << 12,
        quarantine: QuarantinePolicy::Disabled,
        ..Default::default()
    });
    let spec = EngineSpec::sns(
        &params.base_dims,
        params.window,
        params.period,
        AlgorithmKind::PlusRnd,
        &SnsConfig {
            rank: params.rank,
            theta: params.theta,
            eta: params.eta,
            ..Default::default()
        },
    );
    let mut session = pool.open(0, spec).expect("open pooled stream");
    for chunk in prefill.chunks(4096) {
        let _ = session.prefill_batch(chunk).expect("chronological stream");
    }
    let _ = session.warm_start(&cfg.als).expect("warm start");
    // One pipelined warmup pass is already behind us (prefill batches
    // cross the same command pipeline), so the measured window sees
    // steady state from its first batch.
    let cpu_before = cpu_seconds();
    let (bytes_before, calls_before) = alloc_counters();
    let start = Instant::now();
    let mut updates = 0u64;
    for chunk in measured.chunks(BATCH) {
        match session.try_ingest_batch(chunk) {
            Ok(_ticket) => {}
            Err(SnsError::Backpressure { .. }) => {
                if let Some(receipt) = session.recv_receipt() {
                    updates += receipt.expect("pooled ingest").updates;
                }
                updates += session.ingest_batch(chunk).expect("pooled ingest").updates;
            }
            Err(e) => panic!("pooled ingest failed: {e}"),
        }
    }
    while let Some(receipt) = session.recv_receipt() {
        updates += receipt.expect("pooled ingest").updates;
    }
    let seconds = start.elapsed().as_secs_f64();
    let (bytes_after, calls_after) = alloc_counters();
    let cpu_after = cpu_seconds();
    drop(session);
    pool.join();
    let bytes = bytes_after - bytes_before;
    let calls = calls_after - calls_before;
    ResourceResult {
        name: "SNS+_RND@pool".to_string(),
        updates,
        seconds,
        events_per_sec: updates as f64 / seconds.max(1e-9),
        bytes_allocated: bytes,
        alloc_calls: calls,
        bytes_per_event: bytes as f64 / updates.max(1) as f64,
        allocs_per_event: calls as f64 / updates.max(1) as f64,
        cpu_percent: cpu_before.zip(cpu_after).map(|(b, a)| 100.0 * (a - b) / seconds.max(1e-9)),
        peak_rss_kb_after: peak_rss_kb(),
    }
}

/// `bench resources`: one timed run per method, recording allocation
/// traffic on the measured ingest path, CPU utilization, and process
/// peak RSS. Allocation counts are the interesting number — the PR-3
/// workspace work claims a steady-state allocation-free per-event path,
/// and this artifact is what holds that claim to measurement. With
/// `--pooled`, [`run_pooled_resources`] contributes the pooled pipeline
/// row and its allocation guard.
fn run_resources_command(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let pooled = args.iter().any(|a| a == "--pooled");
    let enforce = args.iter().any(|a| a == "--enforce-floor");
    let out_path = tagged_out_path(args, "RESOURCES", "pr6");
    let spec = nytaxi_like();
    let params = ExperimentParams::from_spec(&spec);
    let events = if smoke { spec.default_events / 4 } else { spec.default_events };
    let stream = generate(&spec.generator(events, 42));
    println!(
        "resources: {} (synthetic), dims {:?}, R={}, W={}, theta={}, events={} ({} mode)",
        spec.name,
        spec.base_dims,
        params.rank,
        params.window,
        params.theta,
        events,
        if smoke { "smoke" } else { "full" },
    );
    let cfg = sns_bench::RunConfig {
        als: AlsOptions { max_iters: 10, tol: 1e-3, ..Default::default() },
        ..Default::default()
    };
    let (prefill, measured) = split_prefill(&params, &stream);
    let methods = [
        Method::Sns(AlgorithmKind::Vec),
        Method::Sns(AlgorithmKind::Rnd),
        Method::Sns(AlgorithmKind::PlusVec),
        Method::Sns(AlgorithmKind::PlusRnd),
    ];
    let mut results: Vec<ResourceResult> = Vec::new();
    for method in methods {
        let mut engine = method.build(&params, &cfg);
        engine.prefill_all(prefill).expect("chronological stream");
        engine.warm_start(&cfg.als);
        let cpu_before = cpu_seconds();
        let (bytes_before, calls_before) = alloc_counters();
        let start = Instant::now();
        let outcome = engine.ingest_all(measured).expect("chronological stream");
        let seconds = start.elapsed().as_secs_f64();
        let (bytes_after, calls_after) = alloc_counters();
        let cpu_after = cpu_seconds();
        let updates = outcome.updates;
        let bytes = bytes_after - bytes_before;
        let calls = calls_after - calls_before;
        let r = ResourceResult {
            name: method.name(),
            updates,
            seconds,
            events_per_sec: updates as f64 / seconds,
            bytes_allocated: bytes,
            alloc_calls: calls,
            bytes_per_event: bytes as f64 / updates.max(1) as f64,
            allocs_per_event: calls as f64 / updates.max(1) as f64,
            cpu_percent: cpu_before
                .zip(cpu_after)
                .map(|(b, a)| 100.0 * (a - b) / seconds.max(1e-9)),
            peak_rss_kb_after: peak_rss_kb(),
        };
        println!(
            "  {:<10} {:>10.0} events/s  {:>8.1} B/event  {:>6.3} allocs/event  cpu {}  rss {} kB",
            r.name,
            r.events_per_sec,
            r.bytes_per_event,
            r.allocs_per_event,
            r.cpu_percent.map_or_else(|| "n/a".into(), |c| format!("{c:.0}%")),
            r.peak_rss_kb_after.map_or_else(|| "n/a".into(), |k| k.to_string()),
        );
        results.push(r);
    }
    let pooled_allocs = pooled.then(|| {
        let r = run_pooled_resources(&params, &stream);
        println!(
            "  {:<10} {:>10.0} events/s  {:>8.1} B/event  {:>6.3} allocs/event  cpu {}  rss {} kB",
            r.name,
            r.events_per_sec,
            r.bytes_per_event,
            r.allocs_per_event,
            r.cpu_percent.map_or_else(|| "n/a".into(), |c| format!("{c:.0}%")),
            r.peak_rss_kb_after.map_or_else(|| "n/a".into(), |k| k.to_string()),
        );
        let allocs = r.allocs_per_event;
        results.push(r);
        allocs
    });
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sns-resources\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!(
        "  \"config\": {{\"dataset\": \"{}\", \"synthetic\": true, \"base_dims\": {:?}, \"rank\": {}, \"window\": {}, \"period\": {}, \"theta\": {}, \"events\": {}, \"seed\": 42}},\n",
        spec.name, spec.base_dims, params.rank, params.window, params.period, params.theta, events,
    ));
    json.push_str("  \"methods\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"updates\": {}, \"seconds\": {}, \"events_per_sec\": {}, \"bytes_allocated\": {}, \"alloc_calls\": {}, \"bytes_per_event\": {}, \"allocs_per_event\": {}, \"cpu_percent\": {}, \"peak_rss_kb_after\": {}}}{}\n",
            r.name,
            r.updates,
            json_f64(r.seconds),
            json_f64(r.events_per_sec),
            r.bytes_allocated,
            r.alloc_calls,
            json_f64(r.bytes_per_event),
            json_f64(r.allocs_per_event),
            r.cpu_percent.map_or_else(|| "null".to_string(), json_f64),
            json_opt_u64(r.peak_rss_kb_after),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    if let Some(allocs) = pooled_allocs {
        json.push_str(&format!(
            "  \"pooled_guard\": {{\"name\": \"SNS+_RND@pool\", \"max_allocs_per_event\": {}, \"measured\": {}, \"pass\": {}}},\n",
            json_f64(POOLED_ALLOCS_PER_EVENT_MAX),
            json_f64(allocs),
            allocs <= POOLED_ALLOCS_PER_EVENT_MAX,
        ));
    }
    json.push_str(&format!("  \"peak_rss_kb\": {}\n", json_opt_u64(peak_rss_kb())));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write resources json");
    println!("wrote {out_path}");
    if let Some(allocs) = pooled_allocs {
        if enforce && allocs > POOLED_ALLOCS_PER_EVENT_MAX {
            eprintln!(
                "POOLED ALLOC REGRESSION: {allocs:.3} allocs/event, budget {POOLED_ALLOCS_PER_EVENT_MAX}",
            );
            std::process::exit(1);
        }
    }
}

/// `bench fleet`: the shards × streams aggregate-throughput grid.
/// Exits non-zero (with `--enforce-floor`) if the best cell misses the
/// aggregate floor, or — on hosts with enough cores for worker threads
/// to actually spread — if the widest cell fails the 2× scaling
/// requirement over the single-shard cell.
fn run_fleet_command(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce-floor");
    let out_path = tagged_out_path(args, "BENCH", "pr10");
    let mut cfg = FleetConfig::default();
    if let Some(grid) = flag_value(args, "--shards") {
        let parsed: Vec<usize> =
            grid.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n > 0).collect();
        if !parsed.is_empty() {
            cfg.shard_grid = parsed;
        }
    }
    if let Some(streams) = flag_value(args, "--streams") {
        if let Ok(n) = streams.parse::<usize>() {
            cfg.streams = n.max(1);
        }
    }
    if let Some(batch) = flag_value(args, "--batch") {
        if let Ok(n) = batch.parse::<usize>() {
            cfg.batch = n.max(1);
        }
    }
    if smoke {
        cfg.events /= 4;
    }
    println!(
        "fleet: {} streams x shards {:?}, {} shared events, batch {}, quarantine disabled ({} mode)",
        cfg.streams,
        cfg.shard_grid,
        cfg.events,
        cfg.batch,
        if smoke { "smoke" } else { "full" },
    );
    let report = match run_fleet(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet scenario failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());
    std::fs::write(&out_path, report.to_json(&cfg, if smoke { "smoke" } else { "full" }))
        .expect("write fleet json");
    println!("wrote {out_path}");
    if enforce && !report.floor_pass() {
        eprintln!(
            "AGGREGATE FLOOR VIOLATION: best cell at {:.0} events/s, floor {:.0}",
            report.best_aggregate(),
            AGGREGATE_FLOOR_EVENTS_PER_SEC,
        );
        std::process::exit(1);
    }
    if !report.scaling_pass() {
        let detail =
            report.scaling_ratio().map_or_else(|| "n/a".to_string(), |r| format!("{r:.2}x"));
        if enforce && report.scaling_enforceable() {
            eprintln!("SCALING VIOLATION: {detail} at widest cell, required 2x over 1 shard");
            std::process::exit(1);
        }
        println!(
            "scaling advisory: {detail} at widest cell (not enforced on {} core(s))",
            report.cores,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "resources") {
        run_resources_command(&args[1..]);
        return;
    }
    if args.first().is_some_and(|a| a == "fleet") {
        run_fleet_command(&args[1..]);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce-floor");
    let out_path = tagged_out_path(&args, "BENCH", "pr6");
    let runs = flag_value(&args, "--runs").and_then(|s| s.parse::<usize>().ok()).unwrap_or(3);

    let spec = nytaxi_like();
    let params = ExperimentParams::from_spec(&spec);
    let events = if smoke { spec.default_events / 4 } else { spec.default_events };
    let stream = generate(&spec.generator(events, 42));
    println!(
        "config: {} (synthetic), dims {:?}, R={}, W={}, T={}, theta={}, events={} ({} mode)",
        spec.name,
        spec.base_dims,
        params.rank,
        params.window,
        params.period,
        params.theta,
        events,
        if smoke { "smoke" } else { "full" },
    );

    // The four fast continuous methods in full; SNS_MAT (one ALS sweep
    // per event) on a capped slice so the bench stays minutes-bounded.
    let methods = [
        Method::Sns(AlgorithmKind::Vec),
        Method::Sns(AlgorithmKind::Rnd),
        Method::Sns(AlgorithmKind::PlusVec),
        Method::Sns(AlgorithmKind::PlusRnd),
    ];
    let mut results: Vec<MethodResult> = Vec::new();
    for m in methods {
        let r = run_method(m, &params, &stream, runs);
        println!(
            "  {:<10} {:>10.0} events/s  {:>10.0} tuples/s  ({} updates in {:.3}s, fitness {:.3}{})",
            r.name,
            r.events_per_sec,
            r.tuples_per_sec,
            r.updates,
            r.seconds,
            r.final_fitness,
            if r.diverged { ", DIVERGED" } else { "" },
        );
        results.push(r);
    }

    let reference =
        results.iter().find(|r| r.name == "SNS+_RND").expect("reference method present");
    let pass = reference.events_per_sec >= FLOOR_EVENTS_PER_SEC;
    let vec_ref = results.iter().find(|r| r.name == "SNS+_VEC").expect("SNS+_VEC present");
    let vec_micros = 1e6 / vec_ref.events_per_sec;
    let vec_pass = vec_micros <= VEC_BASELINE_MICROS;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sns-smoke\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!(
        "  \"config\": {{\"dataset\": \"{}\", \"synthetic\": true, \"base_dims\": {:?}, \"rank\": {}, \"window\": {}, \"period\": {}, \"theta\": {}, \"eta\": {}, \"events\": {}, \"seed\": 42, \"runs\": {}}},\n",
        spec.name, spec.base_dims, params.rank, params.window, params.period, params.theta,
        json_f64(params.eta), events, runs,
    ));
    json.push_str("  \"methods\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"tuples\": {}, \"updates\": {}, \"seconds\": {}, \"events_per_sec\": {}, \"tuples_per_sec\": {}, \"final_fitness\": {}, \"diverged\": {}}}{}\n",
            r.name,
            r.tuples,
            r.updates,
            json_f64(r.seconds),
            json_f64(r.events_per_sec),
            json_f64(r.tuples_per_sec),
            json_f64(r.final_fitness),
            r.diverged,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"floor\": {{\"method\": \"{}\", \"events_per_sec\": {}, \"measured\": {}, \"pass\": {}}},\n",
        reference.name,
        json_f64(FLOOR_EVENTS_PER_SEC),
        json_f64(reference.events_per_sec),
        pass,
    ));
    json.push_str(&format!(
        "  \"vec_guard\": {{\"method\": \"{}\", \"baseline_micros\": {}, \"measured_micros\": {}, \"pass\": {}}}\n",
        vec_ref.name,
        json_f64(VEC_BASELINE_MICROS),
        json_f64(vec_micros),
        vec_pass,
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if enforce && !pass {
        eprintln!(
            "FLOOR VIOLATION: {} at {:.0} events/s, floor {:.0}",
            reference.name, reference.events_per_sec, FLOOR_EVENTS_PER_SEC
        );
        std::process::exit(1);
    }
    if enforce && !vec_pass {
        eprintln!(
            "VEC REGRESSION: {} at {:.2}us/event, baseline {:.2}us",
            vec_ref.name, vec_micros, VEC_BASELINE_MICROS
        );
        std::process::exit(1);
    }
}
